"""cpt benchmark: three workloads, end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload coco-roundtrip --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. The dataset file for (workload, seed) is generated first,
then each workload runs in a fresh single-threaded worker process with
CPT_THREADS unset. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (name -> value and unit);
`--workload all` prints one such line per workload, tagged with its name.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA_DIR = ROOT / ".bench_data"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("coco-roundtrip", "coco-train", "coco-analysis")
# Set-up-only processes run this many times before and again after the timed one, so the
# samples straddle the timed run; setup_s is the median of all of them. Few, because host
# speed drifts over minutes, and a longer run spreads a set of runs over more of that drift.
SETUP_PROBES = 2
DEADLINE_S = 170  # a run must end within 180 s

UNITS = {
    "images_per_s": "images/s",
    "image_ms_p50": "ms",
    "image_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dataset.load_s": "s",
    "grid.splat_bytes": "MB",
    "bench.trace_overhead_pct": "%",
}


def unit(name: str) -> str:
    return UNITS.get(name) or ("ms" if name.endswith(("_ms", ".ms_per_image")) else "count")


def worker_env(cpt_threads: int | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CPT_THREADS"}
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if cpt_threads:
        env["CPT_THREADS"] = str(cpt_threads)
    return env


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *argv]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(deadline - time.monotonic(), 1.0)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(argv)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, cpt_threads=None, oracle=False) -> dict:
    from inputs import write_inputs

    deadline = time.monotonic() + DEADLINE_S
    data, meta = write_inputs(name, seed, DATA_DIR)
    env = worker_env(cpt_threads)
    common = ["--workload", name, "--data", str(data), "--meta", str(meta), "--seconds", str(seconds)]
    if oracle:
        common.append("--oracle")
    extra = ["--trace", str(trace)]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        extra += ["--trace-out", str(OUT_DIR / f"trace-{name}-{seed}.json")]
    probe = common + ["--setup-only"]
    before = [] if trace else [run_worker(probe, env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = run_worker(common + extra, env, deadline)
    metrics = res["metrics"]
    if not trace:
        after = [run_worker(probe, env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = statistics.median(before + [res["setup_s"]] + after)
    for problem in res["problems"]:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{name:15s} {key:32s} {value:14.6f} {unit(key)}", file=sys.stderr)
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {key: {"value": value, "unit": unit(key)} for key, value in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cpt-threads", type=int, help="reference runs only: set CPT_THREADS in the worker")
    p.add_argument("--oracle", action="store_true", help="reference runs only: oracle anchor path")
    args = p.parse_args()
    if not 0 <= args.seed < 1 << 64:
        p.error("--seed must lie in [0, 2**64)")
    if not (SRC / "cpt" / "__init__.py").is_file():
        print(f"error: no cpt sources at {SRC}; run inside a cpt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.cpt_threads, args.oracle)
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
