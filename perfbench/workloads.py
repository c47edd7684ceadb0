"""The benchmark's workloads: seeded lists of checks with known answers.

A check is one call into a public decision procedure of transcheck, or one
in-process ``transcheck.cli.main(argv)``.  Each check carries its expected
verdict ("yes" or "no") and the basis of that verdict: a golden in ``tests/``
or a hand argument written beside the input.  No expected verdict is computed
by the code under test.

Library calls go through the module attribute (``pi.explore``, not a name
imported into this module), so that the tracer in ``tracing.py`` sees every
call when it patches the module namespaces.

The seed chooses the order of the checks and is the seed of the property
suite.  It never changes a family's size or names: state keys sort by name
and the bisimulation sweeps sets keyed by name hashes, so renaming alone
moves the work done by a tenth or more.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

from transcheck import cli, encodings, finlang, pi, terms

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

WORKLOADS = ("finite", "pi-canon", "pi-graph")


@dataclass(frozen=True)
class Check:
    """One call with a known answer.

    ``run`` returns "yes", "no" or "inconclusive"; any other string is an
    answer that contradicts the expectation (a wrong count or output).
    """
    name: str
    expect: str
    run: Callable[[], str]
    basis: str


def outcome(check: Check) -> str:
    """The check's answer, or "error: ..." when the call raises."""
    try:
        return check.run()
    except Exception as e:  # a raising check is a failed check; the pass goes on
        return f"error: {type(e).__name__}: {e}"


def classify(check: Check, got: str) -> tuple[bool, bool, bool]:
    """(decided, failed, wrong) for one answer.

    Decided: a definite answer within the check's budgets.  Failed: the call
    raised, exited 3 on valid input, or contradicted the expected answer.
    Wrong: the last case alone.
    """
    errored = got.startswith("error")
    decided = not errored and got != "inconclusive"
    wrong = decided and got != check.expect
    return decided, errored or wrong, wrong


def tally(checks: list[Check], answers: list[str]) -> dict[str, int]:
    """Decided, failed and wrong checks of one pass."""
    flags = [classify(c, got) for c, got in zip(checks, answers)]
    return {key: sum(f[i] for f in flags) for i, key in enumerate(("decided", "failed", "wrong"))}


def misses(checks: list[Check], answers: list[str]) -> list[dict]:
    """The checks of one pass that did not end in their expected answer."""
    return [{"check": c.name, "expect": c.expect, "got": got, "basis": c.basis}
            for c, got in zip(checks, answers) if got != c.expect]


# ------------- answer adapters -------------

def _yes_no(holds: bool) -> str:
    return "yes" if holds else "no"


def _verdict(v: finlang.Verdict) -> str:
    if v.holds:
        return "yes"
    return "inconclusive" if v.note.startswith("inconclusive") else "no"


_BISIM = {"bisimilar": "yes", "not": "no", "inconclusive": "inconclusive"}


def _graph(t: pi.PiTerm, budget: int, states: int, edges: int | None = None) -> Callable[[], str]:
    """explore, expected to close with exactly the given state (and edge) count."""
    def run() -> str:
        g = pi.explore(t, budget)
        if not g.complete:
            return "inconclusive"
        n_edges = sum(len(e) for e in g.edges.values())
        if len(g.states) != states or (edges is not None and n_edges != edges):
            return f"wrong: {len(g.states)} states, {n_edges} edges"
        return "yes"
    return run


def _cli(argv: list[str], stdout: str | None = None) -> Callable[[], str]:
    """In-process command line: exit 0 yes, 1 no, 2 inconclusive, 3 error.

    With a golden, a different stdout is a wrong answer."""
    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        if code == 3:
            return f"error: exit 3: {err.getvalue().strip()}"
        got = {0: "yes", 1: "no", 2: "inconclusive"}.get(code, f"wrong: exit {code}")
        if stdout is not None and code in (0, 1) and out.getvalue() != stdout:
            return f"wrong: stdout {out.getvalue()!r}"
        return got
    return run


# ------------- finite -------------

# (argv, expected verdict, golden stdout or None, basis)
_FIXTURE_CLI = [
    (["check", "valid", "--source", "negtop/L.json", "--target", "negtop/Lp.json",
      "--translation", "negtop/T.json", "--relation", "negtop/sim.json"],
     "yes", "valid: yes\nwitness: (0,0) (1,1)\n", "test_cli.py::test_check_valid_negation"),
    (["check", "correct", "--source", "negtop/L.json", "--target", "negtop/Lp.json",
      "--translation", "negtop/T.json", "--relation", "negtop/sim.json"],
     "no", "correct: no\nwitness: neg | {X1=top} | {X1=1} | top | 0\n",
     "test_cli.py::test_check_correct_negation_fails"),
    (["check", "preserves", "--source", "negtop/L.json", "--target", "negtop/Lp.json",
      "--translation", "negtop/T.json", "--relation", "negtop/sim.json"],
     "yes", None, "hand: negtop is valid (test_check_valid_negation) and valid implies "
                  "preserving (the paper's proposition, law (d) of the property suite)"),
    (["check", "congruence", "--lang", "negtop/L.json", "--relation", "negtop/sim.json"],
     "yes", "congruence: yes\n", "test_cli.py::test_check_congruence_holds_at_source"),
    (["check", "congruence", "--image", "--source", "negtop/L.json",
      "--target", "negtop/Lp.json", "--translation", "negtop/T.json",
      "--relation", "negtop/sim.json"],
     "no", "congruence: no\nwitness: neg | {X1=1} | {X1=top} | 0 | top\n",
     "test_cli.py::test_check_congruence_fails_on_image"),
    (["check", "preserves", "--source", "cycle4/L.json", "--target", "cycle4/Lp.json",
      "--translation", "cycle4/T.json", "--relation", "cycle4/sim.json"],
     "yes", "preserves: yes\nwitness: bT(a)=1 bT(b)=4\nnote: preserves\n",
     "test_cli.py::test_check_preserves_cycle"),
    (["check", "valid", "--source", "cycle4/L.json", "--target", "cycle4/Lp.json",
      "--translation", "cycle4/T.json", "--relation", "cycle4/sim.json"],
     "no", "valid: no\nnote: exhausted 15 candidates\n",
     "test_cli.py::test_check_valid_cycle_exhausts"),
    (["check", "respects", "--source", "cycle4/L.json", "--target", "cycle4/Lp.json",
      "--translation", "cycle4/T.json", "--relation", "cycle4/sim.json"],
     "no", "respects: no\nwitness: c0 | {X0=2} | 3 | a\n",
     "test_cli.py::test_check_respects_cycle_fails"),
    (["check", "valid", "--source", "mod3/L.json", "--target", "mod3/Lp.json",
      "--translation", "mod3/T.json", "--relation", "mod3/sim.json"],
     "yes", "valid: yes\nwitness: (0,minus) (1,plus) (2,plus)\n",
     "test_cli.py::test_check_valid_mod3"),
    (["check", "correct", "--source", "mod3/L.json", "--target", "mod3/Lp.json",
      "--translation", "mod3/T.json", "--relation", "mod3/sim.json"],
     "yes", None, "test_finite.py::test_mod3_valid_and_correct"),
    (["closure", "--lang", "mod3/Lp.json", "--relation", "mod3/sim.json"],
     "yes", "{0}\n{1}\n{2}\n", "test_cli.py::test_closure_is_identity_on_mod3"),
    (["compose", "--source", "mod3/L.json", "--mid", "mod3/Lp.json", "--target", "mod3/Lp.json",
      "--first", "mod3/T.json", "--second", "mod3/Tid.json"],
     "yes", "compose: pm -> mod3\nno: no\ntopc: topc\nyes: yes\n",
     "test_cli.py::test_compose_head_maps"),
    (["check", "valid", "--source", "samecopy/L.json", "--target", "samecopy/Lp.json",
      "--translation", "samecopy/T.json", "--relation", "samecopy/sim.json"],
     "yes", None, "test_finite.py::test_samecopy_lr_closures_differ"),
    (["check", "congruence", "--lang", "samecopy/L.json", "--relation", "samecopy/sim.json"],
     "no", None, "hand: top~bot in same4 but same(top,top)=1 and same(bot,top)=0 "
                 "are not related"),
    (["lr-closure", "--lang", "samecopy/L.json", "--relation", "samecopy/sim.json",
      "--semtrans", "samecopy/R.json"],
     "yes", "{same4.0, same4p.0}\n{same4.1, same4p.1}\n"
            "{same4.bot, same4p.bot}\n{same4.top, same4p.top}\n",
     "test_cli.py::test_lr_closure_straight"),
    (["lr-closure", "--lang", "samecopy/L.json", "--relation", "samecopy/sim.json",
      "--semtrans", "samecopy/Rdagger.json"],
     "yes", "{same4.0, same4p.0}\n{same4.1, same4p.1}\n"
            "{same4.bot, same4p.top}\n{same4.top, same4p.bot}\n",
     "test_cli.py::test_lr_closure_twisted"),
]


def _parity(n: int):
    """Z_n against Z_n, head map s |-> s(s(X1)), ~ relating equal parities.

    Hand argument, n even: w ~ v forces w+2 and v+1 to have different
    parities, so no semantic translation inside ~ is correct (not valid), and
    no value map bT with bT(v) ~ v keeps the meaning of s(X) (not preserving).
    """
    vals = [str(i) for i in range(n)]

    def lang(name: str) -> finlang.FiniteLanguage:
        table = {v: str((int(v) + 1) % n) for v in vals}
        return finlang.load_language(
            {"name": name, "values": vals,
             "operators": [{"name": "s", "arity": 1, "table": table}]})

    src, tgt = lang(f"z{n}"), lang(f"z{n}p")
    same_parity = ([[src.qualify(v), tgt.qualify(v)] for v in vals]
                   + [[src.qualify(str(i)), src.qualify(str(i + 2))] for i in range(n - 2)])
    rel = finlang.load_relation({"name": "parity", "kind": "equivalence",
                                 "carrier": list(src.qualified_values + tgt.qualified_values),
                                 "pairs": same_parity})
    tr = finlang.load_translation({"source": src.name, "target": tgt.name,
                                   "heads": {"s": "s(s(X1))"}}, src, tgt)
    return tr, src, tgt, rel


def _finite(seed: int, smoke: bool) -> list[Check]:
    checks = [Check("cli " + " ".join(argv), expect,
                    _cli([str(FIXTURES / a) if a.endswith(".json") else a for a in argv], golden),
                    basis)
              for argv, expect, golden, basis in _FIXTURE_CLI]

    trials = 10 if smoke else 200
    checks.append(Check(f"property_suite seed={seed} trials={trials}", "yes",
                        lambda: _yes_no(finlang.property_suite(seed, trials).ok),
                        "hand: the five laws are theorems of the paper (criterion 5)"))

    for n in (2,) if smoke else (2, 4, 6, 8):
        tr, src, tgt, rel = _parity(n)
        checks.append(Check(f"parity check_valid_upto n={n}", "no",
                            lambda a=(tr, src, tgt, rel): _verdict(finlang.check_valid_upto(*a)),
                            "hand: see _parity"))
    for n in (4,):
        tr, src, tgt, rel = _parity(n)
        checks.append(Check(f"parity check_preserves n={n}", "no",
                            lambda a=(tr, src, tgt, rel): _verdict(finlang.check_preserves(*a, 3)),
                            "hand: see _parity"))

    head_map = encodings.boudol_head_translation()
    cap = 100 if smoke else 1000
    basis = ("test_acceptance.py::test_criterion_08 holds at caps 10000 and 4000; both searches "
             "stop at the first failure in canonical order, so any smaller cap holds too")

    def compositional() -> str:
        route = terms.complete_compositional(head_map)
        v = terms.check_compositional(encodings.PI_TERM_SIG, encodings.API_TERM_SIG,
                                      route, 3, max_pairs=cap)
        return _yes_no(v.holds) if v.checked == cap else f"wrong: {v.checked} pairs"

    def fvr() -> str:
        route = terms.complete_compositional(head_map)
        v = terms.is_fvr(encodings.PI_TERM_SIG, encodings.API_TERM_SIG, route, 3, max_terms=cap)
        return _yes_no(v.holds) if v.checked == cap else f"wrong: {v.checked} terms"

    checks.append(Check(f"boudol head map check_compositional depth=3 max_pairs={cap}",
                        "yes", compositional, basis))
    checks.append(Check(f"boudol head map is_fvr depth=3 max_terms={cap}", "yes", fvr, basis))
    return checks


# ------------- pi-canon -------------

def _pi_canon(smoke: bool) -> list[Check]:
    checks = []
    for n in (2,) if smoke else (2, 3, 4):
        # Hand count: a state is the number m of sender/receiver pairs that
        # have met, and the multiset of their protocol phases (three each):
        # sum over m of C(m+2, 2) = C(n+3, 3) states.  Every pair that meets
        # ends with an output on r.
        p = encodings.boudol_translate(pi.parse_pi(" | ".join(["x!z"] * n + ["x(y).r!y"] * n)))
        checks.append(Check(f"boudol n={n} explore", "yes", _graph(p, 2000, comb(n + 3, 3)),
                            "hand: C(n+3,3) states, see the comment above"))
        checks.append(Check(f"boudol n={n} weak_barb r!", "yes",
                            lambda p=p: pi.weak_barb(p, pi.Barb("out", "r"), 2000),
                            "hand: each pair completes the protocol and outputs on r"))
    for k in (2,) if smoke else (2, 3):
        # Hand count: k components on disjoint names, each through the four
        # phases of one translated communication: 4^k states.
        p = encodings.boudol_translate(pi.parse_pi(
            " | ".join(f"c{i}!a | c{i}(y).d{i}!y" for i in range(k))))
        checks.append(Check(f"boudol {k}-product explore", "yes", _graph(p, 2000, 4 ** k),
                            "hand: 4^k states, see the comment above"))
        checks.append(Check(f"boudol {k}-product weak_barb d0!", "yes",
                            lambda p=p: pi.weak_barb(p, pi.Barb("out", "d0"), 2000),
                            "hand: component 0 completes its protocol and outputs"))

    # criterion 7: the parallel pair feeds both receptions of the context,
    # the sequential pair blocks after one
    ctx = pi.parse_pi("x(y).x(y).r!s | X")
    for label, src, expect in (("parallel", "x!z | x!z", "yes"),
                               ("sequential", "x!z.x!z", "no")):
        probe = encodings.ContextProbe(ctx, encodings.boudol_translate(pi.parse_pi(src)),
                                       pi.Barb("out", "r"))
        checks.append(Check(f"context probe {label}", expect, lambda p=probe: p.observe(500),
                            "test_acceptance.py::test_criterion_07_distinguishing_context"))

    lines = (FIXTURES / "pi" / "encoding_terms.txt").read_text().splitlines()
    for text in [s for s in lines if s.strip() and not s.startswith("#")]:
        p = pi.parse_pi(text)
        checks.append(Check(f"weak-barbed bisim(p, T(p)) {text}", "yes",
                            lambda p=p: _BISIM[pi.bisim(p, encodings.boudol_translate(p),
                                                        "weak-barbed", 500).result],
                            "test_acceptance.py::test_criterion_09_encoding_spot_checks"))

    checks.append(Check(
        "cli pi explore chain", "yes",
        _cli(["pi", "explore", "new u. (x!u | u(v).v!z) | x(u).u!v", "--budget", "50"],
             "states: 3 (complete)\n"
             "0: new u2. (x(u).u!v | u2(v).v!z | x!u2)  barbs[x!]  -> 1\n"
             "1: new u2. (u2(v).v!z | u2!v)  barbs[]  -> 2\n"
             "2: v!z  barbs[v!]  -> -\n"
             "divergent: none\n"),
        "test_cli.py::test_pi_explore_chain"))
    for subject, expect in (("x!z | x!z", "yes"), ("x!z.x!z", "no")):
        checks.append(Check(
            f"cli pi weak-barb --context --boudol {subject}", expect,
            _cli(["pi", "weak-barb", subject, "r", "--context", "x(y).x(y).r!s | X",
                  "--boudol", "--budget", "500"], f"{expect}\n"),
            "test_cli.py::test_pi_weak_barb_translated_subjects"))
    return checks


# ------------- pi-graph -------------

# Expected verdicts per lattice pair, in file order, for the kinds in
# pi.BISIM_KINDS order (strong, weak, branching, dp-branching, wdp-branching).
# Hand arguments:
#   1, 2: the sides are structurally congruent (0 unit, | commutative).
#   3, 4: one side needs a private tau first; only strong barbs see it
#         (test_pi.py::test_tau_prefix_profile has pair 4 verbatim).
#   5: the right side adds a divergent private loop; strong sees the step,
#      the two divergence-preserving kinds see the divergence
#      (test_pi.py::test_divergence_sensitive_kinds has this pair).
#   6: different barbs x! and y!.
#   7: the left side weakly reaches v!, the right side never does
#      (test_acceptance.py::test_criterion_06).
_LATTICE = [
    ("x!z.0 ;; x!z.0 | 0", "yes yes yes yes yes"),
    ("x!z.0 | x(y).0 ;; x(y).0 | x!z.0", "yes yes yes yes yes"),
    ("new u. (u!a | u(b).x!z.0) ;; x!z.0", "no yes yes yes yes"),
    ("x!z.0 ;; new t. (t!t | t(s).x!z.0)", "no yes yes yes yes"),
    ("x!z.0 ;; x!z.0 | new t. (!t(y).t!y | t!c)", "no yes yes no no"),
    ("x!z.0 ;; y!z.0", "no no no no no"),
    ("new u. (x!u | u(v).v!z) | x(u).u!v ;; x!z | x(u).u!v", "no no no no no"),
]


def _pi_graph(smoke: bool) -> list[Check]:
    checks = []
    k = 2 if smoke else 6
    # k independent pairs c_i!a | c_i(y).d_i!y: each pair has fired or not,
    # so 2^k states, and one step per unfired pair: k 2^(k-1) edges.
    comps = [f"c{i}!a | c{i}(y).d{i}!y" for i in range(k)]
    p = pi.parse_pi(" | ".join(comps))
    # q renames the last d to e, which p never uses, so p weakly shows that
    # d! and q never does: not bisimilar under any barbed kind
    q = pi.parse_pi(" | ".join(comps[:-1] + [f"c{k - 1}!a | c{k - 1}(y).e!y"]))
    budget = 1000
    checks.append(Check(f"{k} pairs explore", "yes", _graph(p, budget, 2 ** k, k * 2 ** (k - 1)),
                        "hand: 2^k states, k 2^(k-1) edges"))
    for kind in pi.BISIM_KINDS:
        checks.append(Check(f"{k} pairs {kind} bisim(p, p)", "yes",
                            lambda kind=kind: _BISIM[pi.bisim(p, p, kind, budget).result],
                            "hand: every bisimilarity is reflexive"))
        checks.append(Check(f"{k} pairs {kind} bisim(p, q)", "no",
                            lambda kind=kind: _BISIM[pi.bisim(p, q, kind, budget).result],
                            f"hand: p weakly shows d{k - 1}!, q never does"))

    pairs = encodings.load_pairs((FIXTURES / "pi" / "lattice_pairs.txt").read_text())
    if [f"{l} ;; {r}" for l, r in pairs] != [text for text, _ in _LATTICE]:
        raise ValueError("fixtures/pi/lattice_pairs.txt no longer matches the answer table")
    for (left, right), (text, answers) in zip(pairs, _LATTICE):
        lp, rp = pi.parse_pi(left), pi.parse_pi(right)
        for kind, expect in zip(pi.BISIM_KINDS, answers.split()):
            checks.append(Check(f"lattice {kind} {text}", expect,
                                lambda lp=lp, rp=rp, kind=kind:
                                    _BISIM[pi.bisim(lp, rp, kind, 300).result],
                                "hand: see _LATTICE"))
    return checks


def build(workload: str, seed: int, smoke: bool = False) -> list[Check]:
    """Load fixtures, parse terms and generate the families, in an order
    fixed by the seed."""
    if workload == "finite":
        checks = _finite(seed, smoke)
    elif workload == "pi-canon":
        checks = _pi_canon(smoke)
    elif workload == "pi-graph":
        checks = _pi_graph(smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(checks)
    return checks
