"""Golden outputs: every subcommand's stdout and written files, pinned by SHA-256.

The input is a small seeded synthetic dataset with 3D fields and keypoints,
seeded prediction grids, a dataset of 4-px and >= 400-px boxes for
`cpt anchors` under the default anchor grid, and one 8-class 512x384 image
whose 98,304-cell heatmap spans several blocks of the focal loss. A refactor
that changes no behaviour keeps every digest. Run
`PYTHONPATH=src python tests/test_golden.py` to print the digests of the
current code, under the key of the platform it runs on.

The bytes are the same for the same numpy build and SIMD class, not across
them: numpy's float64 exp, log and log1p round some last bits differently
with and without AVX-512, and `cpt` calls them in every encode and in the
focal and depth losses. So EXPECTED holds one digest set per platform
fingerprint: the numpy version, and whether numpy dispatches to X86_V4
(AVX-512). The set without X86_V4 is computed on an AVX-512 host under
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", which
test_golden_digests_without_avx512 re-checks there.
"""
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cpt import DenseGrid, write_grid
from cpt.cli import run
from cpt.dataset import dataset_to_json
from cpt.synthetic import generator, make_dataset

JOINTS = 3
WITHOUT_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
AVX512 = {
    "encode": "77bb4c8c692a3393ec865283d0353202f388886682c6e19fbffb5433b56608e6",
    "encode_pose": "f64fed8c5068484e82f39796aef62cbae43eeece0dbfbc4c2c05fb7ce7ea0b38",
    "encode_cells": "1a73862d5c24c5a00a5944cdb748a05363eed372f44d8beaac22c8a1f94dbdcb",
    "decode_3d": "66e97856f1750d148ab05ad2c7c46e89b719abd4e177fad106fc8c1276134ba6",
    "decode_pixels": "fc1e1908322b91fed1eaaf168354955eb588e9391a217828ac418213a1f6781e",
    "decode_pose": "43f39d99204a2a01c7449f6939e2f95455afdb932a4c3ff8d6cd2ad504482c21",
    "decode_ties": "fa2f61fba9119ddfa3ba629db6a3aa5803319410f487944480fe6fde7d7dc150",
    "decode_ties_per_class": "62772bdb84a9b5ab91efe85c3d4e9176486e8925a81425e894a3c3e60ff09e2d",
    "loss_3d": "ba89606cc8e8e2afa9af45642ee62ce381a135f3004d4718574365a65c397a51",
    "loss_pose": "c6b4931ad9c1fddb09087b85c03d8ba3ca04591ed42957cf32ec60d6804fe479",
    "encode_large": "1032e971242d955dc02fe3b526c434d3002b976db9532b7faf089c0c9c710735",
    "loss_large": "1a206f550143fea6c7cc70f9144a8c3874ddd99337f78cc66a3d394027ee0410",
    "gradcheck": "c245d12e91ce445d09b6dd06b1282b047fe2799cf1f1fdb1b05aaa02f4ac4139",
    "collisions": "b301d5676cbe11f01e5c13faf4790c787a39603d518d64e3ca180e751fa7bf9a",
    "collisions_oracle": "b301d5676cbe11f01e5c13faf4790c787a39603d518d64e3ca180e751fa7bf9a",
    "anchors": "2f3ad27e730f001a958b050b2b09ecffb5a5d556750973a54d2b82b42f1fac15",
    "anchors_oracle": "2f3ad27e730f001a958b050b2b09ecffb5a5d556750973a54d2b82b42f1fac15",
    "anchors_mixed": "6a2248920a9a3a1e641687b30504ee74a6b3abbfe593f5cbb35ae630cbe4daf5",
    "anchors_mixed_ratios": "63d2ce42f958e280fdde3cbeb7a16ffee260d74fffa236e36781be232ee4af91",
    "roundtrip": "f00f811bc04ac9212837d146d50764adc080a075ee753ccb6aaec9f021a26264",
    "nms": "d34eb7ad80aff7c40d830c01aa4c2b302208ddc3477eecd3d262b89dc22159a0",
    "eval": "ff90ca795aeeda07ad577da10d80b0a7cdaf4a6117172903f6f0b368f560ec6f",
}
EXPECTED = {
    ("2.4.6", True): AVX512,
    # the cases that call exp, log or log1p: every encode, and the losses on encoded targets
    ("2.4.6", False): {
        **AVX512,
        "encode": "965f540662e0b3441ac55cd7b414476ffd16fabc059132fb5f0f471ac9001cee",
        "encode_pose": "1bc738dd75dd4966152507e71a5f32096e7f0b7fe62571ad50156a279afff84d",
        "encode_cells": "bf166903b73edbf70279db3ae0af160585ad6963138e5d36312874f38be7f569",
        "loss_3d": "1fc0f53f0085cd27fdf58f6a2f1e3a230c68aad6010b20c2120a0e6b84379836",
        "loss_pose": "d646ab9cb5d4e29a362718fb4f9c9075a56aebd146c93cff1729a22b8d9c8ff0",
        "encode_large": "24d06c641416e971b97eb404bb120bb2cdb3b915eebf9875aaa8e71b3d0e37a8",
        "loss_large": "1bc1dbf1f2ffab39b93812be5d32c0ecca2ebc4f3392e28be5f8ffc98db21a18",
    },
}


def fingerprint() -> tuple[str, bool | None]:
    """The platform key of EXPECTED: numpy's version and whether it dispatches to X86_V4 (None off x86)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return np.__version__, __cpu_features__.get("X86_V4")


def _write_inputs(work: Path) -> None:
    rng = generator(2024)
    ds = make_dataset(11, num_images=3, max_objects=6, num_classes=2, image_w=64, image_h=48, with_3d=True)
    anns = []
    for ann in ds.annotations:
        xy = rng.uniform(-4.0, 68.0, size=(JOINTS, 2))
        anns.append(replace(ann, keypoints=[(float(x), float(y), bool(rng.random() < 0.75)) for x, y in xy]))
    (work / "ds.json").write_text(json.dumps(dataset_to_json(replace(ds, annotations=anns))), encoding="utf-8")
    # 4-px and >= 400-px boxes on 640x480 images: under the default anchors the small ones are forced,
    # and a large one leaves most anchor shapes unable to reach its best IoU
    mrng = generator(2025)
    images, mixed = [], []
    for image_id in (1, 2, 3):
        images.append({"id": image_id, "width": 640, "height": 480})
        sizes = [(4.0, 4.0)] * 5 + [(float(mrng.uniform(400.0, 630.0)), float(mrng.uniform(400.0, 470.0))) for _ in range(3)]
        sizes += [(float(w), float(w * mrng.uniform(0.2, 3.0))) for w in mrng.uniform(20.0, 150.0, size=4)]
        for w, h in sizes:
            x, y = float(mrng.uniform(0.0, 640.0 - w)), float(mrng.uniform(0.0, 480.0 - h))
            mixed.append({"id": len(mixed) + 1, "image_id": image_id, "category_id": 1 + len(mixed) % 2, "bbox": [x, y, w, h]})
    categories = [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]
    (work / "mixed.json").write_text(json.dumps({"images": images, "categories": categories, "annotations": mixed}),
                                     encoding="utf-8")
    # predictions on the 16x12 grid of a 64x48 image at stride 4
    shapes = {"heatmap": 2, "person": 1, "offset": 2, "size": 2, "depth": 1, "dims": 3, "orientation": 8, "joints": 2 * JOINTS}
    for name, channels in shapes.items():
        if name in ("heatmap", "person"):
            data = rng.random((channels, 12, 16)).astype(np.float32)
        else:
            data = rng.normal(0.0, 2.0, (channels, 12, 16))
        write_grid(work / f"pred_{name}.cpt", DenseGrid(np.abs(data) * 6.0 if name == "size" else data))
    # an 8-class 512x384 image and float32 predictions on its 128x96 grid, some cells on the clamp edges
    large = make_dataset(15, num_images=1, max_objects=40, num_classes=8, image_w=512, image_h=384)
    (work / "large.json").write_text(json.dumps(dataset_to_json(large)), encoding="utf-8")
    lrng = generator(2026)
    heatmap = lrng.random((8, 96, 128), dtype=np.float32)
    edges = np.array([0.0, 1e-4, 1.0 - 1e-4, 1.0, np.nextafter(1e-4, 0.0), np.nextafter(1.0 - 1e-4, 1.0)])
    heatmap.ravel()[lrng.integers(0, heatmap.size, 60)] = np.repeat(edges, 10).astype(np.float32)
    write_grid(work / "pred_large_heatmap.cpt", DenseGrid(heatmap))
    write_grid(work / "pred_large_offset.cpt", DenseGrid(lrng.random((2, 96, 128))))
    write_grid(work / "pred_large_size.cpt", DenseGrid(lrng.uniform(0.0, 60.0, (2, 96, 128))))


def _cases():
    """(name, argv) in run order; a case writes files only under a directory named after it."""
    p = {name: f"pred_{name}.cpt" for name in ("heatmap", "person", "offset", "size", "depth", "dims", "orientation", "joints")}
    det = ["--heatmap", p["heatmap"], "--offset", p["offset"], "--size", p["size"]]
    preds = ["--pred-heatmap", p["heatmap"], "--pred-offset", p["offset"], "--pred-size", p["size"]]
    return [
        ("encode", ["encode", "ds.json", "--out", "encode", "--joints", str(JOINTS)]),
        ("encode_pose", ["encode", "ds.json", "--out", "encode_pose", "--joints", str(JOINTS), "--pose"]),
        ("encode_cells", ["encode", "ds.json", "--out", "encode_cells", "--joints", str(JOINTS), "--units", "cells"]),
        ("decode_3d", ["decode", *det, "--depth", p["depth"], "--dims", p["dims"], "--orientation", p["orientation"],
                       "--top-k", "12", "--image-id", "2"]),
        ("decode_pixels", ["decode", *det, "--per-class-top-k", "--top-k", "4", "--min-score", "0.5", "--to-pixels"]),
        ("decode_pose", ["decode", "--heatmap", p["person"], "--offset", p["offset"], "--size", p["size"],
                         "--joints-map", p["joints"], "--joint-heatmap", "encode_pose/image_1/joint_heatmap.cpt",
                         "--joint-local-offset", "encode_pose/image_1/joint_local_offset.cpt", "--top-k", "5",
                         "--image-id", "1", "--to-pixels"]),
        # the encoded target heatmap is mostly a zero plateau, so --min-score -1 prints the tie fill at the cut
        ("decode_ties", ["decode", "--heatmap", "encode/image_1/heatmap.cpt", "--offset", p["offset"], "--size",
                         p["size"], "--top-k", "40", "--min-score", "-1"]),
        ("decode_ties_per_class", ["decode", "--heatmap", "encode/image_1/heatmap.cpt", "--offset", p["offset"],
                                   "--size", p["size"], "--top-k", "25", "--min-score", "-1", "--per-class-top-k"]),
        ("loss_3d", ["loss", "--manifest", "encode/manifest.json", "--image", "1", *preds, "--pred-depth", p["depth"],
                     "--pred-dims", p["dims"], "--pred-orientation", p["orientation"], "--grad-out", "loss_3d"]),
        ("loss_pose", ["loss", "--manifest", "encode_pose/manifest.json", "--image", "2", *preds,
                       "--lambda-size", "0.5", "--grad-out", "loss_pose"]),
        ("encode_large", ["encode", "large.json", "--out", "encode_large"]),
        ("loss_large", ["loss", "--manifest", "encode_large/manifest.json", "--image", "1", "--pred-heatmap",
                        "pred_large_heatmap.cpt", "--pred-offset", "pred_large_offset.cpt", "--pred-size",
                        "pred_large_size.cpt", "--grad-out", "loss_large"]),
        ("gradcheck", ["gradcheck", "--seed", "5"]),
        ("collisions", ["collisions", "ds.json", "--thresholds", "0.05,0.2"]),
        ("collisions_oracle", ["collisions", "ds.json", "--thresholds", "0.05,0.2", "--oracle"]),
        ("anchors", ["anchors", "ds.json", "--sizes", "8,16,32", "--anchor-stride", "8", "--resize-shorter", "96"]),
        ("anchors_oracle", ["anchors", "ds.json", "--sizes", "8,16,32", "--anchor-stride", "8", "--resize-shorter", "96",
                            "--oracle"]),
        ("anchors_mixed", ["anchors", "mixed.json"]),
        ("anchors_mixed_ratios", ["anchors", "mixed.json", "--ratios", "0.25,1,3"]),
        ("roundtrip", ["roundtrip", "ds.json", "--recall-points", "101"]),
        ("nms", ["nms", "dets.jsonl", "--iou-thresh", "0.3"]),
        ("eval", ["eval", "dets.jsonl", "ds.json"]),
    ]


def golden_digests(work: Path, monkeypatch) -> dict[str, str]:
    monkeypatch.chdir(work)
    _write_inputs(work)
    digests, stdout = {}, {}
    for name, argv in _cases():
        if name == "nms":
            (work / "dets.jsonl").write_text(stdout["decode_3d"] + stdout["decode_pose"], encoding="utf-8")
        buf = io.StringIO()
        with redirect_stdout(buf):
            status = run(argv)
        assert status == 0, f"{name} exited {status}"
        stdout[name] = buf.getvalue()
        h = hashlib.sha256(stdout[name].encode("utf-8"))
        for path in sorted((work / name).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(work)).encode("utf-8") + b"\0" + path.read_bytes())
        digests[name] = h.hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return golden_digests(tmp_path_factory.mktemp("golden"), monkeypatch)


@pytest.mark.parametrize("name", [name for name, _ in _cases()])
def test_golden_digest(digests, name):
    key = fingerprint()
    assert key in EXPECTED, (
        f"no golden digests for numpy {key[0]} with X86_V4={key[1]}: on a commit whose digests hold on a known "
        f"platform, run `PYTHONPATH=src python tests/test_golden.py` here and add what it prints to EXPECTED"
    )
    assert digests[name] == EXPECTED[key][name]


@pytest.mark.skipif(not fingerprint()[1], reason="needs a host whose numpy dispatches to X86_V4, to mask it")
def test_golden_digests_without_avx512():
    """The digests of the SIMD class below AVX-512, checked in a subprocess with numpy's AVX-512 dispatch masked."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, **WITHOUT_AVX512}
    probe = "import test_golden; print(test_golden.fingerprint())"
    masked = subprocess.run([sys.executable, "-c", probe], cwd=root / "tests", env={**env, "PYTHONPATH": str(root / "src")},
                            capture_output=True, text=True, timeout=120)
    assert masked.stdout.strip() == repr((np.__version__, False)), masked.stderr
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::test_golden_digest"],
                            cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        print(f"    {fingerprint()!r}: {{")
        for name, digest in golden_digests(Path(tmp), mp).items():
            print(f'        "{name}": "{digest}",')
        print("    },")
