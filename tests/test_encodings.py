"""Acknowledgement-protocol encoding, context plugging, pullback checks."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transcheck.encodings import (API_TERM_SIG, PI_TERM_SIG, ContextProbe,
                                  Encoding, boudol_encoding,
                                  boudol_head_translation, boudol_translate,
                                  check_encoding_pairs,
                                  finite_pullback_precondition,
                                  full_abstraction_check, load_pairs,
                                  pi_to_term, plug, plug_var, pullback_equiv,
                                  routes_agree, term_to_pi)
from transcheck.finlang import FiniteLanguage, Operator, load_language
from transcheck.pi import (Barb, ExtBarb, In, Nil, Out, Par, PiError, PVar, Repl, Res,
                           alpha_eq_pi, bisim, is_async, normal_form, parse_pi,
                           strong_barbs)
from transcheck.terms import check_compositional, complete_compositional, is_fvr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def pp(text: str):
    return parse_pi(text, allow_reserved=True)


# ------------- the direct translation -------------

GOLDEN = [
    ("0", "0"),
    ("X", "X"),
    ("@w", "@w"),
    ("x!z.0", "new _b0. (x!_b0 | _b0(_b1).(_b1!z | 0))"),
    ("x(y).y!a",
     "x(_b0).new _b1. (_b0!_b1 | _b1(y).new _b2. (y!_b2 | _b2(_b3).(_b3!a | 0)))"),
    ("x!z.0 | x(y).0",
     "new _b0. (x!_b0 | _b0(_b1).(_b1!z | 0)) | x(_b2).new _b3. (_b2!_b3 | _b3(y).0)"),
    ("new n. n!a", "new n, _b0. (n!_b0 | _b0(_b1).(_b1!a | 0))"),
    ("!x!z", "!new _b0. (x!_b0 | _b0(_b1).(_b1!z | 0))"),
]


@pytest.mark.parametrize("src, expected", GOLDEN)
def test_translation_goldens(src, expected):
    got = boudol_translate(pp(src))
    assert got == pp(expected)
    assert alpha_eq_pi(got, pp(expected))


def test_translation_lands_in_async_fragment():
    for src, _ in GOLDEN:
        assert is_async(boudol_translate(pp(src)))


NAMES = st.sampled_from(["a", "b", "x", "_b0"])
LEAVES = st.one_of(st.just(Nil()), st.builds(PVar, st.sampled_from(["P", "Q"])),
                   st.builds(ExtBarb, st.sampled_from(["w", "v"])))


def _grow(inner):
    return st.one_of(st.builds(Out, NAMES, NAMES, inner), st.builds(In, NAMES, NAMES, inner),
                     st.builds(Par, inner, inner), st.builds(Res, NAMES, inner),
                     st.builds(Repl, inner))


@settings(max_examples=300, deadline=None)
@given(st.recursive(LEAVES, _grow, max_leaves=12))
def test_translation_lands_in_async_fragment_on_random_terms(p):
    assert is_async(boudol_translate(p))


def test_fresh_names_skip_occupied_ones():
    got = boudol_translate(pp("x!_b0"))
    assert got == pp("new _b1. (x!_b1 | _b1(_b2).(_b2!_b0 | 0))")


def test_translation_is_deterministic():
    p = pp("x!z.0 | x(y).y!a")
    assert boudol_translate(p) == boudol_translate(p)


PROBES = [
    "0",
    "x!z.0",
    "x(y).0",
    "x!z.y!w.0",
    "x(y).y!z",
    "x!z.0 | x(y).0",
    "new n. (n!a | n(b).b!c)",
    "!x(y).y!y",
    "new y. x(y).y!z",
]


def test_routes_agree_on_probes():
    v = routes_agree(boudol_encoding(), [pp(s) for s in PROBES])
    assert v.holds
    assert "9 probes" in v.note


def test_routes_disagree_is_reported():
    bad = Encoding("bad", lambda p: pp("0"), boudol_head_translation())
    v = routes_agree(bad, [pp("x!z.0")])
    assert not v.holds
    assert v.witness == (pp("x!z.0"),)


# ------------- the head-map route -------------

def test_head_map_is_well_formed():
    tr = boudol_head_translation()
    assert tr.source == PI_TERM_SIG
    assert tr.target == API_TERM_SIG
    assert {name for name, _ in tr.heads} == {c.name for c in PI_TERM_SIG.constructs}


def test_head_map_route_is_compositional():
    route = complete_compositional(boudol_head_translation())
    v = check_compositional(PI_TERM_SIG, API_TERM_SIG, route, 2)
    assert v.holds


def test_head_map_route_is_fvr():
    route = complete_compositional(boudol_head_translation())
    assert is_fvr(PI_TERM_SIG, API_TERM_SIG, route, 2).holds


def test_process_term_views_roundtrip():
    for src in PROBES:
        p = pp(src)
        assert term_to_pi(pi_to_term(p)) == p


def test_term_view_rejects_observation_constants():
    with pytest.raises(PiError, match="observation"):
        pi_to_term(pp("@done"))


# ------------- plugging -------------

def test_plug_fills_the_hole():
    got = plug(pp("x(y).X | z!w"), pp("w!a"))
    assert got == pp("x(y).w!a | z!w")


def test_plug_avoids_capture_by_restriction():
    got = plug(pp("new x. (X | x!a)"), pp("x!z"))
    assert alpha_eq_pi(got, pp("new x2. (x!z | x2!a)"))


def test_plug_avoids_capture_by_input_binder():
    got = plug(pp("x(n).(X | n!a)"), pp("n!z"))
    assert alpha_eq_pi(got, pp("x(m).(n!z | m!a)"))


def test_plug_fills_every_occurrence():
    got = plug(pp("X | x!a.X"), pp("y!b"))
    assert got == pp("y!b | x!a.y!b")


def test_plug_requires_exactly_one_hole():
    with pytest.raises(PiError):
        plug(pp("x!a"), pp("0"))
    with pytest.raises(PiError):
        plug(pp("X | Y"), pp("0"))


def test_plug_requires_closed_subject():
    with pytest.raises(PiError, match="open"):
        plug(pp("X | x!a"), pp("Y | y!b"))


def test_plug_var_picks_one_variable():
    got = plug_var(pp("X | Y"), "X", pp("a!b"))
    assert got == pp("a!b | Y")


def test_context_probe_observation():
    probe = ContextProbe(pp("x(y).r!s | X"), pp("x!z"), Barb("out", "r"))
    assert probe.plugged() == pp("x(y).r!s | x!z")
    assert probe.observe(50) == "yes"
    silent = ContextProbe(pp("x(y).r!s | X"), pp("0"), Barb("out", "r"))
    assert silent.observe(50) == "no"


# ------------- encoding spot checks -------------

def test_output_barbs_survive_translation():
    # on the bundled fixture set the protocol keeps every original output subject
    lines = (FIXTURES / "pi" / "encoding_terms.txt").read_text().splitlines()
    terms = [pp(s) for s in lines if s.strip() and not s.startswith("#")]
    assert terms
    for p in terms:
        before = {b for b in strong_barbs(normal_form(p)) if b.kind == "out"}
        after = {b for b in strong_barbs(normal_form(boudol_translate(p)))
                 if b.kind == "out"}
        assert before <= after


def test_check_encoding_pairs_counts():
    enc = boudol_encoding()
    terms = [pp("x!z.0"), pp("x!z.0 | x(y).0")]
    report = check_encoding_pairs(enc, terms, "weak-barbed", 300)
    assert report.kind == "weak-barbed"
    assert report.counts == {"bisimilar": 2, "not": 0, "inconclusive": 0}


def test_pullback_equiv_closes_open_translations():
    enc = boudol_encoding()
    oracle = lambda p, q: bisim(p, q, "weak-barbed", 300)
    theta = {"X": pp("a!b")}
    decide = pullback_equiv(enc, theta, oracle)
    assert decide(pp("X"), pp("X")).result == "bisimilar"
    assert decide(pp("X"), pp("x!z.0")).result == "not"


def test_pullback_equiv_on_the_output_ordering_pair():
    enc = boudol_encoding()
    oracle = lambda p, q: bisim(p, q, "weak-barbed", 300)
    decide = pullback_equiv(enc, {}, oracle)
    assert decide(pp("x!z | x!z"), pp("x!z.x!z")).result == "bisimilar"


def test_pullback_equiv_rejects_open_theta():
    with pytest.raises(PiError, match="not closed"):
        pullback_equiv(boudol_encoding(), {"X": pp("Y")}, lambda p, q: None)


def test_pullback_equiv_rejects_unclosed_variables():
    decide = pullback_equiv(boudol_encoding(), {},
                            lambda p, q: bisim(p, q, "weak-barbed", 50))
    with pytest.raises(PiError, match="unclosed"):
        decide(pp("X"), pp("0"))


# ------------- the finite-language precondition -------------

def test_precondition_fails_on_abstract_values():
    lang = load_language(json.loads((FIXTURES / "mod3" / "L.json").read_text()))
    v = finite_pullback_precondition(lang)
    assert not v.holds
    assert v.witness == ("plus",)
    assert "not a closed term" in v.note


def test_precondition_holds_on_a_closed_term_language():
    lang = FiniteLanguage("ct", ("yes", "no"), (
        Operator("yes", 0, {(): "yes"}),
        Operator("no", 0, {(): "no"}),
        Operator("flip", 1, {("yes",): "no", ("no",): "yes"}),
    ))
    v = finite_pullback_precondition(lang)
    assert v.holds
    assert v.note == "closed-term language"


def test_precondition_fails_when_value_denotes_another():
    lang = FiniteLanguage("swap", ("yes", "no"), (
        Operator("yes", 0, {(): "no"}),
        Operator("no", 0, {(): "yes"}),
    ))
    v = finite_pullback_precondition(lang)
    assert not v.holds
    assert "does not denote itself" in v.note


# ------------- full abstraction spot checks -------------

def test_full_abstraction_identity_translation():
    oracle = lambda p, q: bisim(p, q, "weak-barbed", 100)
    pairs = [(pp("x!z"), pp("x!z | 0")), (pp("x!z"), pp("y!z"))]
    report = full_abstraction_check(lambda p: p, oracle, oracle, pairs)
    assert [row[4] for row in report.rows] == ["pass", "pass"]
    assert report.counterexamples == []


def test_full_abstraction_flags_separating_translation():
    oracle = lambda p, q: bisim(p, q, "weak-barbed", 100)
    collapse = lambda p: pp("0")
    report = full_abstraction_check(collapse, oracle, oracle,
                                    [(pp("x!z"), pp("y!z"))])
    assert [row[4] for row in report.rows] == ["fail"]
    assert len(report.counterexamples) == 1


def test_full_abstraction_inconclusive_propagates():
    tight = lambda p, q: bisim(p, q, "weak-barbed", 1)
    report = full_abstraction_check(lambda p: p, tight, tight,
                                    [(pp("x!a.x!a | !x(y).0"), pp("0"))])
    assert [row[4] for row in report.rows] == ["inconclusive"]


# ------------- pair lists -------------

def test_load_pairs():
    text = "# comment\n\nx!z ;; x!z | 0\n0 ;; new a. 0\n"
    assert load_pairs(text) == [("x!z", "x!z | 0"), ("0", "new a. 0")]


def test_load_pairs_reports_line_numbers():
    with pytest.raises(PiError, match="line 2"):
        load_pairs("# fine\nx!z x!z\n")
