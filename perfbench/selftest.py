"""Self-test of the benchmark: ``python3 -m pytest -q perfbench/selftest.py``.

Checks that a tiny run of each workload prints every metric named in
``BENCHMARK.json`` with its unit, that a wrong verdict trips the gate, and
that the same seed gives the same input digest in any process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per workload: arguments of a run that takes a few seconds.
TINY = {
    "suite": ["--seconds", "1", "--scale", "0.15"],
    "loopfree": ["--seconds", "1", "--scale", "0.02"],
    "daemon": ["--seconds", "1", "--scale", "0.25"],
    "cli": ["--seconds", "1", "--scale", "0.1"],
}


def invoke(*args: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, env=env,
    )


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_prints_every_metric(workload, trace):
    done = invoke("--workload", workload, "--seed", "5", "--trace", str(trace), *TINY[workload])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}") for line in lines)


def test_wrong_verdict_trips_gate(monkeypatch, capsys):
    from repro.core.api import Session

    original = Session.run

    def flipped(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        if result.verdict == "safe":
            result.verdict = "unsafe"
        return result

    monkeypatch.setattr(Session, "run", flipped)
    code = run.main(["--workload", "suite", "--seed", "5", "--trace", "0", *TINY["suite"]])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("WRONG ") for line in out)


def test_gate_counts_failures_and_unchecked():
    from workloads import Outcome
    from inputs import Input

    outcomes = [
        Outcome(Input("a", "src", "safe"), "safe", "", 0.1, 0.1),
        Outcome(Input("b", "src", "safe"), "unknown", "refinement budget of 5 exhausted", 0.1, 0.1),
        Outcome(Input("c", "src", None), "unsafe", "", 0.1, 0.1),
        Outcome(Input("d", "src", "unsafe"), "unknown", "service failure", 0.1, 0.0, failure="overloaded"),
    ]
    result = run.gate(outcomes)
    assert (result.attempted, result.decided, result.unchecked, result.failed) == (4, 2, 1, 1)
    assert result.correct  # a refusal is a failure, not a wrong verdict
    assert result.unknown_reasons == {"b": "refinement budget of 5 exhausted"}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_same_digest(workload):
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import inputs; "
        f"print(inputs.digest(inputs.build({workload!r}, int(sys.argv[3]), 0.05)))"
    )

    def digest(seed: int, hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        argv = [sys.executable, "-c", code, str(HERE), str(ROOT / "src"), str(seed)]
        return subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout.strip()

    assert digest(11, "1") == digest(11, "2")
    if workload != "suite":  # the suite is the same 16 programs for every seed
        assert digest(11, "1") != digest(12, "1")


def test_refuses_without_sources():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
