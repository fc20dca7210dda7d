"""Each workload end to end at tiny sizes, traced and untraced, plus the
tracer's handling of a wrapped name that no longer exists."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import layertrace
import run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small enough for a test run; still two c strengths, so that the second
# one meets the first one's cached system.
TINY = {"m": 16, "m_hess": 12, "radii": (0.15, 0.3, 0.45),
        "directions": 2, "strengths": (1.0, 10.0),
        "m_var": 20, "tuples": 6, "classify": 1, "classify_ring": 3,
        "flag_ns": (3,), "hopf_ns": (2,), "grassmann": ((1, 1), (2, 1))}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace, monkeypatch, capfd):
    monkeypatch.setattr(inputs, "SIZE", TINY)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    out, err = capfd.readouterr()
    assert code == 0, err
    res = json.loads(out.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, err
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in listed}
    if workload == "robin-sweep":
        # two c strengths per pass: the second reuses the first one's system
        passes = 4 if trace else 3
        assert (res["attempted"], res["failed"]) == (9 * passes, passes)
    else:
        assert res["failed"] == 0
    if trace == 0:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "robin-sweep", "--seed", "1", "--seconds", "1"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_absent_wrapped_name_drops_its_metrics(monkeypatch):
    import robinlab.green as green
    original = green.solve_green
    monkeypatch.setitem(layertrace.SPANS, "green.cg",
                        "robinlab.green:no_such_function")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert green.solve_green is not original
    finally:
        tracer.remove()
    assert green.solve_green is original
    assert tracer.absent == ["green.cg"]
    metrics = tracer.metrics()
    assert "green.cg_s" not in metrics and "green.solves" in metrics


def test_wall_s_sums_each_steps_fastest_time():
    import worker
    passes = [{"build": 1.0, "solve": 5.0}, {"build": 3.0, "solve": 2.0}]
    assert worker.fastest_pass(passes) == 3.0
