"""The bench's scenes give pinned outputs.

The benchmark compares every output digest between the runs of one
revision, not with the revision before. This pins the `tracks.txt` and
`intervals.txt` bytes of the smoke-size `dense_appearance` and
`sparse_long` scenes, the `ground_truth.txt` input `GroundTruth.to_measurements`
writes for them, and the `eval_report.txt` and `confusion_matrix.txt`
bytes of the smoke-size `eval_dense` scene, at seeds 7, 12 and 101, built
by `bench/scenes.py` itself (loaded from its file, not changed), so that a
change to any layer that moves one byte of `track`, `eval` or the truth
fails here.
"""
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from trafficstate.cli import main

BENCH_SCENES = Path(__file__).resolve().parents[1] / "bench" / "scenes.py"

# seed -> workload -> file -> sha256; ground_truth.txt is an input the scene writes
PINNED = {
    7: {
        "dense_appearance": {
            "ground_truth.txt": "e7c790371d6007aa2a91b71614b6c865e7f2c01283e73f77e24f6218746d5b2f",
            "tracks.txt": "547f05e27108336b673632c778056422a3e36386957c04374d42ac875b02c5cc",
            "intervals.txt": "2cbf8fd132185d639b8d55b93874588962c0cf0f9a6e2745a46788eef3bc7ffc",
        },
        "sparse_long": {
            "ground_truth.txt": "cfefa35a9666d6020b0d3bd9abb7ab77787905cbb97693c471ad315b2738e648",
            "tracks.txt": "1249cbb058fe40812cadb305510f0a11520041f374919bf71487fbd27a823da3",
            "intervals.txt": "33e7956668fda7d3973868c38213b477cedb1b8bd9571ea5f97354d0167791cb",
        },
        "eval_dense": {
            "eval_report.txt": "dcfb37491d59254bc3d13fc602b20759884a818e126b07916e4ce39b22ad4215",
            "confusion_matrix.txt":
                "046bc863e885640cfb104f06d8e0abc6309cd1643fdd3d5d72b43064d7af92e6",
        },
    },
    12: {
        "dense_appearance": {
            "ground_truth.txt": "2cd94c591bc68a67da3d94256b9fe789c878c7a3ff11c7c236cde90c372fab6f",
            "tracks.txt": "0cab8bddd5ee120f468999d397d43f9934a8f30cfd0d93e08e05d1c570945109",
            "intervals.txt": "6d9599dfc5e7df8e9747b31a97c34abcdb905387fa8f746fe73a7ac55484374c",
        },
        "sparse_long": {
            "ground_truth.txt": "f4e23d686a53173fb26f4fe928cd0a8be92e07268f56893853d1c8a3a41e8f18",
            "tracks.txt": "ddca7835df7f1bf7d73f8c4526c26440424389dbc18f51f534222f22c453f805",
            "intervals.txt": "d716ec6c0adf0535fae160010abca50d33d8596b0a7bfb40e5328ff54a145317",
        },
        "eval_dense": {
            "eval_report.txt": "abeaac29829cbd90599bd055a8f9092db36335f743a17c9b697134d9fbce0f51",
            "confusion_matrix.txt":
                "3be01f2489588e12775f5a30050cb1f421af7be3047f04069f3572d07c449e6e",
        },
    },
    101: {
        "dense_appearance": {
            "ground_truth.txt": "de520a0c5c3b1fe64d79ada036f8ad627dfedb2f7aa0cea2de3540ef1ddbad58",
            "tracks.txt": "87836fc86bfcb99feb92a0018e3adab753b9ec9c10101c996fe8cd6cc52829f4",
            "intervals.txt": "c09611f5e7a062f9068856736cf78bfaef5ad6628ac7acefc1339ab9e6b581eb",
        },
        "sparse_long": {
            "ground_truth.txt": "d83bb444f61c6ec22b28a936eee7c616058cd1eb40fff1026ac99cd6f824b74a",
            "tracks.txt": "b72e4e095fe75e4c65658b36ab46343f984ece322a09d738853b328818cc68cb",
            "intervals.txt": "4b1b87a3f4adce5b58f3a65903bac27dd02e3f64051b18e819012b38986859fb",
        },
        "eval_dense": {
            "eval_report.txt": "47c194ac63af7e415b87fef5f7a76e873fa9b55a777b64843e7202187c10c4d4",
            "confusion_matrix.txt":
                "af17384ed774fc2cbebd2d146195001a03a02f0b7faaf54548f34bce895f8e46",
        },
    },
}
SEEDS = sorted(PINNED)


def load_scenes():
    spec = importlib.util.spec_from_file_location("bench_scenes", BENCH_SCENES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


scenes = load_scenes()


def assert_pinned(files, seed, workload):
    """files maps each pinned name of the workload to the file written under it."""
    pinned = PINNED[seed][workload]
    assert {name: hashlib.sha256(files[name].read_bytes()).hexdigest()
            for name in pinned} == pinned


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["dense_appearance", "sparse_long"])
def test_smoke_scene_track_outputs_are_pinned(tmp_path, workload, seed):
    inputs = scenes.build_inputs(workload, seed, tmp_path / "in", smoke=True)
    out = tmp_path / "out"
    assert main(["track", "--detections", str(inputs.files["detections"]),
                 "--config", str(inputs.files["config"]), "--out-dir", str(out)]) == 0
    assert_pinned({"ground_truth.txt": inputs.files["truth"], "tracks.txt": out / "tracks.txt",
                   "intervals.txt": out / "intervals.txt"}, seed, workload)


@pytest.mark.parametrize("seed", SEEDS)
def test_smoke_scene_eval_outputs_are_pinned(tmp_path, seed):
    inputs = scenes.build_inputs("eval_dense", seed, tmp_path / "in", smoke=True)
    out = tmp_path / "out"
    assert main(["eval", "--pred", str(inputs.files["pred"]), "--gt", str(inputs.files["gt"]),
                 "--out-dir", str(out)]) == 0
    assert_pinned({name: out / name for name in PINNED[seed]["eval_dense"]}, seed, "eval_dense")
