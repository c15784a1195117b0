"""One workload in one fresh process: set-up, timed closed loop, checks, one JSON result line.

Started by run.py with PYTHONPATH pointing at the checkout's src/. The set-up
clock starts before `import cpt` and stops once the dataset is loaded and the
workload is built, before the benchmark makes the first image's inputs.
"""
import time

T0 = time.perf_counter()

import cpt  # noqa: E402  (timed as part of set-up)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_IMAGES = 100  # p90 then has ten timed images beyond it
SAMPLE_EVERY = 10  # every tenth distinct image gets the expensive reference checks
REF_EVERY = 5  # traced runs time the host-drift kernel after every fifth image
# Untimed steps on the dataset's largest image before the clock starts: the heap grows to its
# working size, so first-touch page faults are not timed, and peak_rss_mb does not depend on
# which images the rounds of a run happen to cover.
WARMUP_STEPS = 2

# per-layer metric -> (span or counter key, scale); times are self time per image
LAYER_KEYS = {
    "targets.encode_ms": ("targets.encode", 1e3),
    "grid.splat_ms": ("grid.splat", 1e3),
    "grid.splat_calls": ("splat_calls", 1.0),
    "grid.splat_bytes": ("splat_bytes", 1e-6),
    "grid.peaks_ms": ("grid.peaks", 1e3),
    "grid.peaks_kept": ("peaks_kept", 1.0),
    "decode.boxes_ms": ("decode.boxes", 1e3),
    "decode.detections": ("detections", 1.0),
    "decode.detections_useful": ("detections_useful", 1.0),
    "evaluate.ms_per_image": ("evaluate", 1e3),
    "losses.focal_ms": ("losses.focal", 1e3),
    "losses.l1_ms": ("losses.l1", 1e3),
    "losses.total_ms": ("losses.total", 1e3),
    "analysis.anchors_ms": ("analysis.anchors", 1e3),
    "analysis.iou_collisions_ms": ("analysis.iou_collisions", 1e3),
    "analysis.center_collisions_ms": ("analysis.center_collisions", 1e3),
    "geometry.iou_matrix_ms": ("geometry.iou_matrix", 1e3),
    "geometry.anchor_grid_ms": ("geometry.anchor_grid", 1e3),
    "geometry.iou_matrix_pairs": ("iou_matrix_pairs", 1.0),
}


def ref_kernel(x: np.ndarray) -> float:
    """Milliseconds for a fixed numpy sort that uses no cpt code: a yardstick for host speed."""
    t0 = time.perf_counter()
    np.sort(x)
    return (time.perf_counter() - t0) * 1e3


def timed_step(workload, tracer, img, prepared, key=None):
    """Seconds for one step, or None when the step raised; traced when key is not None."""
    if key is not None:
        tracer.active, tracer.image = True, key
    t0 = time.perf_counter()
    try:
        workload.step(img, prepared)
    except Exception:  # a failing image is counted and the run goes on
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        if tracer is not None:
            tracer.active = False
    return time.perf_counter() - t0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--data", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--oracle", action="store_true")
    args = p.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(cpt)
        tracer.active = True
    ds = cpt.load_dataset(args.data)
    if tracer is not None:
        tracer.active = False
    with open(args.meta, encoding="utf-8") as f:
        meta = json.load(f)
    workload = WORKLOADS[args.workload](cpt, ds, meta, oracle=args.oracle)
    # set-up ends here: what follows until the first timed image is the benchmark's warm-up and inputs
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    times, overhead, peak_cells, ref_ms, problems = [], [], [], [], []
    ref_x = np.random.Generator(np.random.Philox(key=2019)).random(1 << 20) if tracer else None
    seen: set[int] = set()
    # runs end on whole rounds of the dataset, so every run sees the same mix of image sizes
    round_size = meta["round"]
    min_images = round_size if tracer else max(MIN_IMAGES, round_size)
    largest = max(ds.images, key=lambda m: len(workload.by_image[m.id]))
    # warm-up steps are attempted like timed ones, but their times are dropped
    failed = sum(timed_step(workload, None, largest, workload.prepare(largest)) is None for _ in range(WARMUP_STEPS))
    i = 0
    loop_t0 = time.perf_counter()
    while True:
        img = ds.images[i % len(ds.images)]
        prepared = workload.prepare(img)
        if tracer is None:
            dt = timed_step(workload, None, img, prepared)
        else:
            # paired: the same image once plain and once traced, alternating which goes first
            traced_first = i % 2 == 0
            a = timed_step(workload, tracer, img, prepared, i if traced_first else None)
            b = timed_step(workload, tracer, img, prepared, None if traced_first else i)
            dt = None
            if a is not None and b is not None:
                traced, dt = (a, b) if traced_first else (b, a)
                overhead.append((traced - dt) / dt * 100.0)
            if i % REF_EVERY == 0:
                ref_ms.append(ref_kernel(ref_x))
        if dt is None:
            failed += 1
        else:
            times.append(dt)
            if img.id not in seen:
                seen.add(img.id)
                sampled = i % SAMPLE_EVERY == 0
                problems += workload.inspect(img, sampled)
                if tracer is not None and sampled:
                    peak_cells.append(workload.peak_cells())
        i += 1
        if i % round_size == 0 and i >= min_images and time.perf_counter() - loop_t0 >= args.seconds:
            break

    if tracer is not None:
        tracer.active, tracer.image = True, None
    end_t0 = time.perf_counter()
    workload.finish()
    end_s = time.perf_counter() - end_t0
    if tracer is not None:
        tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += workload.final_checks()

    result = {"attempted": WARMUP_STEPS + i, "failed": failed, "problems": problems, "setup_s": setup_s}
    if tracer is None:
        result["metrics"] = {
            "images_per_s": len(times) / (sum(times) + end_s),
            "image_ms_p50": statistics.median(times) * 1e3,
            "image_ms_p90": statistics.quantiles(times, n=10)[-1] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        per_image, loose = tracer.per_image()
        n_images = len(seen)

        def layer(key):
            values = [vals.get(key, 0.0) for vals in per_image.values()] or [0.0]
            return statistics.median(values) + loose.get(key, 0.0) / max(n_images, 1)

        metrics = {name: layer(key) * scale for name, (key, scale) in LAYER_KEYS.items()}
        metrics["dataset.load_s"] = loose["dataset.load"]
        metrics["dataset.annotations"] = loose["annotations"]
        metrics["grid.peak_cells"] = statistics.median(peak_cells) if peak_cells else 0
        metrics["bench.ref_ms"] = statistics.median(ref_ms)
        metrics["bench.trace_overhead_pct"] = statistics.median(overhead)
        result["metrics"] = metrics
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
