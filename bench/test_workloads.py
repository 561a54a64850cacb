"""Tests of the benchmark itself: seeded inputs, constructed truth and the
output protocol.  Run with ``python -m pytest bench``."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from rigidview import CameraRig, Mat, ProjectivePoint, assemble_b, forward_map, rank  # noqa: E402

import workloads  # noqa: E402

PREFIX = {"exact-pairs": 18, "span-126-9": 3}


def fingerprint(obj):
    """Every input value as text, floats with all their digits."""
    if isinstance(obj, CameraRig):
        return [fingerprint(cam.matrix) for cam in obj.cameras]
    if isinstance(obj, Mat):
        return [[repr(x) for x in row] for row in obj.data]
    if isinstance(obj, ProjectivePoint):
        return [repr(x) for x in obj.coords]
    if isinstance(obj, dict):
        return {key: fingerprint(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [fingerprint(value) for value in obj]
    return repr(obj)


def cases(name, seed):
    wl = workloads.WORKLOADS[name]
    return [fingerprint(wl.make(seed, i)) for i in range(PREFIX[name])]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs_and_labels(name):
    assert json.dumps(cases(name, 7)) == json.dumps(cases(name, 7))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_gives_other_inputs(name):
    for a, b in zip(cases(name, 7), cases(name, 8)):
        assert a["rig"] != b["rig"]


def squared_distance(x, y):
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x.coords[:3], y.coords[:3]))


def test_members_at_exactly_unit_distance_and_nonmembers_not():
    wl = workloads.WORKLOADS["exact-pairs"]
    kinds = set()
    for i in range(PREFIX["exact-pairs"]):
        case = wl.make(3, i)
        kinds.add(case["kind"])
        if case["kind"] == "epipole":
            v = case["v"]
            assert case["member"]
            assert rank(assemble_b(case["rig"], 0, 1, v[0], v[1]).mat).rank == 4
            continue
        x, y = case["world"]
        assert x.coords[3] == 1 and y.coords[3] == 1
        assert (squared_distance(x, y) == 1) == case["member"]
        assert case["u"] == forward_map(case["rig"], x)
        assert case["v"] == forward_map(case["rig"], y)
    assert {"member", "nonmember", "epipole"} <= kinds


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, check=False)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)[kind]}


def test_timed_run_reports_every_end_to_end_metric():
    result = result_line(run_bench("--workload", "exact-pairs", "--seed", "2",
                                   "--seconds", "1", "--trace", "0"))
    metrics = declared("end_to_end")
    assert set(result["metrics"]) == set(metrics)
    for name, value in result["metrics"].items():
        assert value["unit"] == metrics[name]["unit"]
        assert value["value"] > 0


def test_traced_counts_repeat_exactly():
    runs = [result_line(run_bench("--workload", "exact-pairs", "--seed", "2",
                                  "--seconds", "1", "--trace", "1")) for _ in range(2)]
    metrics = declared("per_layer")
    assert set(runs[0]["metrics"]) == set(metrics)
    counted = [name for name, m in metrics.items() if m["unit"] in ("calls/req", "count", "iters/req")]
    assert counted
    for name in counted:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]
    assert (runs[0]["attempted"], runs[0]["failed"]) == (runs[1]["attempted"], runs[1]["failed"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "exact-pairs", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
