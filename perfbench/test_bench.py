"""The benchmark's own tests, in seconds: python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS, WORKLOADS, per_layer_unit  # noqa: E402


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_checks_every_expected_answer():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = _results(proc.stdout)
    assert len(results) == 2 * len(WORKLOADS)  # untraced, then traced, per workload
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for untraced, traced in zip(results[::2], results[1::2]):
        assert {k: v["unit"] for k, v in untraced["metrics"].items()} == e2e
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == layers
    assert e2e == END_TO_END_UNITS
    assert [m["name"] for m in bench["workloads"]] == list(WORKLOADS) == list(workloads.WORKLOADS)


def test_two_traced_runs_do_the_same_work():
    def counts(workload: str) -> dict:
        out = subprocess.run([sys.executable, str(HERE / "worker.py"), "trace", "--workload",
                              workload, "--seed", "3", "--smoke"], cwd=ROOT, capture_output=True,
                             text=True, timeout=170, env={**os.environ, "PYTHONHASHSEED": "0"})
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        return {k: metrics[k] for k in tracing.WORK_COUNTS}

    for workload in WORKLOADS:
        assert counts(workload) == counts(workload)


def test_interaction_map_covers_every_layer_metric():
    doc = json.loads((HERE / "map.json").read_text())
    assert set(doc["interactions"]) == set(tracing.PER_LAYER) | {"trace.overhead_s"}
    assert set(doc["workloads"]) == set(WORKLOADS)
    assert per_layer_unit("pi.explore.states_per_s") == "1/s"


def test_answers_are_classified():
    check = workloads.Check("c", "yes", lambda: "yes", "hand")
    assert workloads.classify(check, "yes") == (True, False, False)
    assert workloads.classify(check, "no") == (True, True, True)
    assert workloads.classify(check, "inconclusive") == (False, False, False)
    assert workloads.classify(check, "error: PiError: x") == (False, True, False)
    assert workloads.outcome(workloads.Check("c", "yes", lambda: 1 / 0, "hand")).startswith(
        "error: ZeroDivisionError")


def test_seed_fixes_inputs():
    a = [c.name for c in workloads.build("pi-graph", 5, smoke=True)]
    assert a == [c.name for c in workloads.build("pi-graph", 5, smoke=True)]
    assert a != [c.name for c in workloads.build("pi-graph", 6, smoke=True)]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "finite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not _results(proc.stdout)
