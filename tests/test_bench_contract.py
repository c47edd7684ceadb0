"""The benchmark's contract with the package, at smoke size.

perfbench/tracing.py patches public functions of transcheck by name, and
perfbench/workloads.py calls them with fixed signatures.  So each workload
is built and run here in process with the tracer installed, and must end
with no failed and no wrong check: a change under src/ that removes a name
the tracer patches, or changes a signature a workload calls, fails tier 1
and not only ``python -m pytest perfbench``.  Nothing under perfbench/ is
changed; its modules are imported as they are."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from transcheck import pi  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_under_the_tracer_at_smoke_size(workload):
    explore = pi.explore
    tracer = tracing.Tracer()
    tracer.install()
    try:
        checks = workloads.build(workload, 1, smoke=True)
        answers = [workloads.outcome(c) for c in checks]
    finally:
        tracer.uninstall()
    assert pi.explore is explore  # every patched name restored
    tally = workloads.tally(checks, answers)
    assert (tally["failed"], tally["wrong"]) == (0, 0), workloads.misses(checks, answers)
    assert checks and tracer.counts["pi.explore.calls"] + tracer.counts["cli.main.calls"] > 0
