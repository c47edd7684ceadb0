"""One workload in one fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py setup   --workload W --seed N [--smoke]
    python3 perfbench/worker.py measure --workload W --seed N --seconds S [--smoke]
    python3 perfbench/worker.py trace   --workload W --seed N [--smoke] [--spans FILE]

``setup`` times importing ``transcheck.cli`` and building the workload's
inputs.  ``measure`` repeats the workload's checks, tracing off, while
another pass still fits in S seconds (at least one pass).  ``trace`` runs one
untraced pass and two traced passes, reports the per-layer metrics of the
first traced pass, the tracing overhead, and whether the two traced passes
did exactly the same work.

Speed normalization: the speed of a shared virtual machine swings by a
quarter or more, in bursts of seconds and in drifts over minutes.  So
``setup`` and ``measure`` also report their times in nominal seconds: the
raw time multiplied by the machine's mean speed relative to nominal, where a
timer signal runs a small fixed reference loop every few milliseconds
(set-up) or PASS_PROBE_S seconds (passes) between the bytecodes of whatever
is running, and each sample's speed is REF_NOMINAL_S over the loop's time.
The samples are spread evenly over the timed interval, so their mean is the
work per second the machine gave while it ran.  The loop's own time is taken
out of the raw time; it allocates no containers, so it does not move the
garbage collector; and it does not touch transcheck, so a change to
transcheck moves only the raw time in the scaled figure.  ``trace`` scales
its pass times and every per-layer time the same way; there the probe's few
tenths of a percent also fall inside whatever spans are open.
"""

import time

START = time.perf_counter()  # setup_s starts here, before any transcheck import

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

REF_NOMINAL_S = 0.00025  # the loop's usual time on a 2-core 2.0 GHz Xeon virtual machine
SETUP_PROBE_S = 0.005
PASS_PROBE_S = 0.05

_KEYS = [(i % 31, (i * 7) % 29, i % 5) for i in range(200)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def reference_time() -> float:
    """Seconds for a fixed piece of pure-Python work of the kinds transcheck
    does (tuple hashing and comparison, dict lookups, integer arithmetic)."""
    t0 = time.perf_counter()
    acc = 0
    first = _KEYS[0]
    for _ in range(10):
        for k in _KEYS:
            acc += _TABLE[k] ^ len(k)
            if k < first:
                acc += 1
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs the reference loop every ``period`` seconds of wall time, from a
    timer signal, while the block runs; ``spent`` is the probe's own time."""

    def __init__(self, period: float) -> None:
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_time())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Mean speed relative to nominal (1 without samples)."""
        return statistics.fmean(REF_NOMINAL_S / t for t in self.samples) if self.samples else 1.0


def run_pass(outcome, checks) -> tuple[float, float, list[str]]:
    """Wall time from the first check to the last verdict (the probe's own
    time taken out), the same time speed-normalized, and the answers."""
    gc.collect()
    with SpeedProbe(PASS_PROBE_S) as probe:
        t0 = time.perf_counter()
        answers = [outcome(c) for c in checks]
        raw = time.perf_counter() - t0 - probe.spent
    return raw, raw * probe.scale(), answers


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans")
    ns = ap.parse_args()

    with SpeedProbe(SETUP_PROBE_S) as probe:
        import workloads  # imports transcheck.cli and the layers under it
        checks = workloads.build(ns.workload, ns.seed, ns.smoke)
        setup_s = time.perf_counter() - START - probe.spent
    if ns.role == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_norm_s": setup_s * probe.scale()}))
        return

    if ns.role == "measure":
        start = time.perf_counter()
        walls, norms, counts = [], [], {"decided": 0, "failed": 0, "wrong": 0}
        first = None
        while True:
            wall, norm, answers = run_pass(workloads.outcome, checks)
            walls.append(wall)
            norms.append(norm)
            first = first or answers
            for k, v in workloads.tally(checks, answers).items():
                counts[k] += v
            if answers != first:  # verdicts must not depend on the pass
                counts["wrong"] += 1
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > ns.seconds:
                break
        print(json.dumps({
            "walls": walls, "norm_walls": norms, "checks": len(checks), "passes": len(walls),
            **counts, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "misses": workloads.misses(checks, first)}))
        return

    import tracing  # patches transcheck, so only this role imports it

    _, untraced_norm, answers = run_pass(workloads.outcome, checks)
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()

        def traced_outcome(check, tracer=tracer):
            idx = tracer.open(f"check {check.name}")
            try:
                return workloads.outcome(check)
            finally:
                tracer.close(idx)

        tracer.install()
        try:
            raw, norm, traced_answers = run_pass(traced_outcome, checks)
        finally:
            tracer.uninstall()
        passes.append((tracer.metrics(norm / raw), norm, traced_answers, tracer))
    (first, traced_norm, _, tracer), second = passes[0], passes[1][0]
    if ns.spans:
        tracer.write(ns.spans)
    print(json.dumps({
        "metrics": first, "untraced_wall_s": untraced_norm, "traced_wall_s": traced_norm,
        "trace_overhead_s": traced_norm - untraced_norm,
        "self_check": tracing.self_check(first, second),
        "same_answers": all(p[2] == answers for p in passes), "checks": len(checks),
        **workloads.tally(checks, answers), "misses": workloads.misses(checks, answers)}))


if __name__ == "__main__":
    main()
