"""The transcheck benchmark.

    python3 perfbench/run.py --workload finite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload pi-graph --seed 1 --trace 1
    python3 perfbench/run.py --seed 1            # every workload, one after another
    python3 perfbench/run.py --smoke             # every workload at its smallest sizes

Each workload (``workloads.py``) runs in fresh single-threaded interpreters
(``worker.py``), one at a time.  With ``--trace 0`` the end-to-end metrics are
measured with tracing off: ``setup_s`` is the median of several fresh
set-ups, ``wall_s`` the median pass time over the run, both speed-normalized
against a reference loop (see ``worker.py``), with the raw seconds printed
beside them; ``decided_ratio`` and ``ok_ratio`` (1 - failed_ratio) count the
checks of every pass; ``peak_rss_mb`` is the measuring process's peak.  With
``--trace 1`` a separate process runs the workload traced (``tracing.py``)
and reports the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Run from a checkout of the repository: the benchmark reads ``src/`` and
``fixtures/`` and writes traced spans under ``.perfbench/``.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("finite", "pi-canon", "pi-graph")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "decided_ratio": "ratio",
                    "ok_ratio": "ratio", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith((".s", "_s")) else "count"


class Worker:
    """Starts worker processes for one workload, each waited for, within one deadline."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.deadline = time.monotonic() + DEADLINE_S
        # a fixed string-hash seed keeps set iteration order, and so the work
        # done, the same from run to run
        self.env = {**os.environ, "PYTHONHASHSEED": "0"}

    def __call__(self, role: str, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), role, "--workload", self.workload,
               "--seed", str(self.seed), *(["--smoke"] if self.smoke else []), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no time left for the {role} worker")
        # subprocess.run kills the worker and waits for it when the timeout expires
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"{role} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def show_misses(workload: str, misses: list[dict]) -> None:
    for m in misses:
        print(f"  {workload}: {m['check']}: expected {m['expect']}, got {m['got']}")


def end_to_end(work: Worker, seconds: float) -> dict:
    work("setup")  # the first interpreter in a fresh checkout also compiles bytecode
    samples = [work("setup") for _ in range(1 if work.smoke else SETUP_SAMPLES)]
    raw_setups = [s["setup_s"] for s in samples]
    m = work("measure", "--seconds", str(seconds))
    attempted = m["checks"] * m["passes"]
    metrics = {"setup_s": statistics.median(s["setup_norm_s"] for s in samples),
               "wall_s": statistics.median(m["norm_walls"]),
               "decided_ratio": m["decided"] / attempted,
               "ok_ratio": 1 - m["failed"] / attempted,
               "peak_rss_mb": m["peak_rss_mb"]}
    print(f"{work.workload}: {m['checks']} checks x {m['passes']} passes; raw pass times "
          f"{', '.join(f'{w:.3f}' for w in m['walls'])} s, raw setup times "
          f"{', '.join(f'{x:.3f}' for x in raw_setups)} s")
    for name, value in metrics.items():
        print(f"{work.workload}: {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{work.workload}: failed_ratio = {m['failed'] / attempted:.6g} ratio "
          f"({m['failed']} of {attempted})")
    show_misses(work.workload, m["misses"])
    return {"correct": m["wrong"] == 0, "attempted": attempted, "failed": m["failed"],
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def per_layer(work: Worker) -> dict:
    spans = ROOT / ".perfbench" / f"spans-{work.workload}-{work.seed}.tsv"
    spans.parent.mkdir(exist_ok=True)
    t = work("trace", "--spans", str(spans))
    metrics = {**t["metrics"], "trace.overhead_s": t["trace_overhead_s"]}
    print(f"{work.workload}: traced wall_s {t['traced_wall_s']:.3f} s, untraced "
          f"{t['untraced_wall_s']:.3f} s, overhead {t['trace_overhead_s']:.3f} s; spans in {spans}")
    for name in sorted(metrics):
        print(f"{work.workload}: {name} = {metrics[name]:.6g} {per_layer_unit(name)}")
    if t["self_check"]:
        print(f"{work.workload}: trace self-check failed: {'; '.join(t['self_check'])}")
    show_misses(work.workload, t["misses"])
    return {"correct": t["wrong"] == 0 and not t["self_check"] and t["same_answers"],
            "attempted": t["checks"], "failed": t["failed"],
            "metrics": {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest size of every family, one pass, traced and untraced")
    ns = ap.parse_args()
    if not (ROOT / "src" / "transcheck" / "__init__.py").is_file():
        print(f"error: no transcheck sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    ok = True
    for workload in [ns.workload] if ns.workload else WORKLOADS:
        work = Worker(workload, ns.seed, ns.smoke)
        results = []
        if ns.smoke or not ns.trace:
            results.append(end_to_end(work, 0 if ns.smoke else ns.seconds))
        if ns.smoke or ns.trace:
            results.append(per_layer(work))
        for result in results:
            ok = ok and result["correct"] and (not ns.smoke or result["failed"] == 0)
            print(json.dumps(result), flush=True)
    return 0 if ok or not ns.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
