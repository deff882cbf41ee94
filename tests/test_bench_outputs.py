"""The bench's scenes give pinned outputs.

The benchmark compares every output digest between the runs of one
revision, not with the revision before. This pins the `tracks.txt` and
`intervals.txt` bytes of the smoke-size `dense_appearance` and
`sparse_long` scenes, and the `eval_report.txt` and `confusion_matrix.txt`
bytes of the smoke-size `eval_dense` scene, at seed 7, built by
`bench/scenes.py` itself (loaded from its file, not changed), so that a
change to any layer that moves one byte of `track` or `eval` output fails
here.
"""
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from trafficstate.cli import main

BENCH_SCENES = Path(__file__).resolve().parents[1] / "bench" / "scenes.py"
SEED = 7

PINNED = {
    "dense_appearance": {
        "tracks.txt": "547f05e27108336b673632c778056422a3e36386957c04374d42ac875b02c5cc",
        "intervals.txt": "2cbf8fd132185d639b8d55b93874588962c0cf0f9a6e2745a46788eef3bc7ffc",
    },
    "sparse_long": {
        "tracks.txt": "1249cbb058fe40812cadb305510f0a11520041f374919bf71487fbd27a823da3",
        "intervals.txt": "33e7956668fda7d3973868c38213b477cedb1b8bd9571ea5f97354d0167791cb",
    },
    "eval_dense": {
        "eval_report.txt": "dcfb37491d59254bc3d13fc602b20759884a818e126b07916e4ce39b22ad4215",
        "confusion_matrix.txt": "046bc863e885640cfb104f06d8e0abc6309cd1643fdd3d5d72b43064d7af92e6",
    },
}


def load_scenes():
    spec = importlib.util.spec_from_file_location("bench_scenes", BENCH_SCENES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


scenes = load_scenes()


def assert_pinned(out, workload):
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINNED[workload]}
    assert digests == PINNED[workload]


@pytest.mark.parametrize("workload", ["dense_appearance", "sparse_long"])
def test_smoke_scene_track_outputs_are_pinned(tmp_path, workload):
    inputs = scenes.build_inputs(workload, SEED, tmp_path / "in", smoke=True)
    out = tmp_path / "out"
    assert main(["track", "--detections", str(inputs.files["detections"]),
                 "--config", str(inputs.files["config"]), "--out-dir", str(out)]) == 0
    assert_pinned(out, workload)


def test_smoke_scene_eval_outputs_are_pinned(tmp_path):
    inputs = scenes.build_inputs("eval_dense", SEED, tmp_path / "in", smoke=True)
    out = tmp_path / "out"
    assert main(["eval", "--pred", str(inputs.files["pred"]), "--gt", str(inputs.files["gt"]),
                 "--out-dir", str(out)]) == 0
    assert_pinned(out, "eval_dense")
