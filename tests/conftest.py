"""Shared fixtures and expected texts, plus the acceptance-criteria summary
lines."""

from pathlib import Path
from typing import NamedTuple

import pytest

from transcheck.cli import main
from transcheck.pi import PiState, PiTerm

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def cli(capsys, monkeypatch):
    """Run the command line entry point; returns (exit_code, stdout, stderr)."""
    monkeypatch.setenv("TRANSCHECK_FIXTURES", str(FIXTURES))

    def run(*args: str):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def hand_built(s: PiState) -> PiState:
    """s as a state that no canon made: one that reduce_once steps with a
    fresh canon and merges no successor of."""
    return PiState(s.restricted, s.threads, s.key)


class Offer(NamedTuple):
    """One offer of a top-level thread as an object of its own, as
    reduce_once once made one for each side of every met pair; the pi module
    now pairs the (top, row) tuples of its threads' offer rows in place."""
    kind: str  # "send" | "recv"
    chan: str
    msg: str | None
    param: str | None
    cont: PiTerm
    top: int  # top-level thread index
    levels: tuple

    @property
    def place(self) -> tuple:
        """The innermost copy that unfolds to reach the offer and its part
        there, or () for the thread itself."""
        return (self.levels[-1].cid, self.levels[-1].part) if self.levels else ()

    @classmethod
    def of(cls, pair: tuple) -> "Offer":
        """The offer of a (top, row) pair."""
        top, (kind, chan, msg, param, cont, levels, _) = pair
        return cls(kind, chan, msg, param, cont, top, levels)

    def pair(self) -> tuple:
        """The (top, row) pair that pi._successor takes."""
        return self.top, (self.kind, self.chan, self.msg, self.param, self.cont, self.levels,
                          self.place)


def chain_text(n: int, msg: str = "a") -> str:
    """How n nested x!msg. prefixes over 0 print."""
    return f"x!{msg}." * (n - 1) + f"x!{msg}"


def translated_chain_text(n: int) -> str:
    """How the translation of n nested x!a. prefixes over 0 prints:
    T(x!a.P) = new u. (x!u | u(v).(v!a | T(P))), with u, v = _b0, _b1, ..."""
    return "".join(f"new _b{i}. (x!_b{i} | _b{i}(_b{i + 1}).(_b{i + 1}!a | "
                   for i in range(0, 2 * n, 2)) + "0" + "))" * n


# one PASS/FAIL line per acceptance criterion at the end of the run

_outcomes: dict[int, bool] = {}


def _criterion_number(nodeid: str) -> int | None:
    if "test_acceptance.py::test_criterion_" not in nodeid:
        return None
    tail = nodeid.split("test_criterion_", 1)[1]
    digits = tail.split("_", 1)[0]
    return int(digits) if digits.isdigit() else None


def pytest_runtest_logreport(report):
    num = _criterion_number(report.nodeid)
    if num is None:
        return
    if report.when == "call":
        _outcomes[num] = report.passed
    elif report.failed:  # setup or teardown error
        _outcomes[num] = False


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_outcomes):
        word = "PASS" if _outcomes[num] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num}: {word}")
