"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run the benchmark on tiny inputs (--smoke), so they take seconds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles as O  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child(workload, *flags):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", "3",
         "--smoke", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_oracles():
    assert O.hook_count((2, 1)) == 2
    assert O.hook_count((3, 2)) == 5
    assert O.conjugate((3, 1)) == (2, 1, 1)
    assert O.n_stat((2, 1, 1)) == 3
    assert O.dyck_qt_catalan(2) == {(1, 0): 1, (0, 1): 1}
    assert O.dyck_qt_catalan(3) == {(3, 0): 1, (2, 1): 1, (1, 1): 1, (1, 2): 1, (0, 3): 1}
    assert sum(O.dyck_qt_catalan(5).values()) == 42
    assert O.dict_mul({(1, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): -1}) == {(2, 0): 1, (0, 0): -1}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    doc = _result(_run("--workload", workload, "--seed", "5", "--seconds", "1",
                       "--trace", "0", "--smoke"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(doc["metrics"]) == sorted(names)
    for m in SPEC["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    doc = _result(_run("--workload", "geometry-queries", "--seed", "5", "--seconds", "1",
                       "--trace", "1", "--smoke"))
    assert doc["correct"], doc
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(doc["metrics"]) == sorted(names)
    for m in SPEC["per_layer"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_tracing_keeps_results(workload):
    plain = _child(workload)
    first = _child(workload, "--trace")
    second = _child(workload, "--trace")
    assert not plain["failures"] and not first["failures"]
    assert plain["setup_scaled"] > 0 and plain["wall_scaled"] > 0
    assert first["results"] == plain["results"]
    assert second["counts"] == first["counts"]
    calls = {k: v for k, v in first["trace"].items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second["trace"].items() if k.endswith(".calls")}
    assert any(calls.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
