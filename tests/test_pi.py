"""Process workbench: syntax, normal forms, reduction, barbs, bisimilarities."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transcheck.pi import (BISIM_KINDS, Barb, ExtBarb, In, Nil, Out, Par,
                           PiError, PVar, Repl, Res, all_names, alpha_eq_pi,
                           barb_from_text, bisim, explore, free_names,
                           is_async, normal_form, parse_pi, print_pi,
                           print_state, process_vars, reduce_once,
                           strong_barbs, subst_names, weak_barb)


def nf(s: str):
    return normal_form(parse_pi(s, allow_reserved=True))


# ------------- concrete syntax -------------

ROUNDTRIP = [
    "0",
    "x!z",
    "x!z.y(w).0",
    "x(y).y!z",
    "P | x!z",
    "new a, b. (a!b | b(c).c!a)",
    "!x!z | !x(y).0",
    "@done | x!z",
    "new u. (x!u | u(v).(v!z | 0))",
    "x!a.(y!b | z!c)",
    "!(a!b | c!d)",
    "a!b | (c!d | e!f)",
]


@pytest.mark.parametrize("text", ROUNDTRIP)
def test_parse_print_roundtrip(text):
    t = parse_pi(text)
    assert parse_pi(print_pi(t)) == t


def test_output_continuation_sugar():
    assert parse_pi("x!z") == parse_pi("x!z.0")
    assert print_pi(parse_pi("x!z.0")) == "x!z"


def test_par_is_left_associative_and_lowest():
    t = parse_pi("a!b | c!d | e!f")
    assert t == Par(Par(parse_pi("a!b"), parse_pi("c!d")), parse_pi("e!f"))
    # prefix binds tighter than |
    t2 = parse_pi("x(y).y!a | z!b")
    assert isinstance(t2, Par) and isinstance(t2.left, In)


def test_replication_of_parallel_needs_parens():
    assert parse_pi("!(a!b | c!d)") == Repl(parse_pi("a!b | c!d"))
    assert parse_pi("!a!b | c!d") == Par(Repl(parse_pi("a!b")), parse_pi("c!d"))


def test_new_collapses_multiple_names():
    t = parse_pi("new a, b. a!b")
    assert t == Res("a", Res("b", Out("a", "b", Nil())))
    assert print_pi(t) == "new a, b. a!b"


@pytest.mark.parametrize("bad, fragment", [
    ("x!", "expected"),
    ("x y", r"expected '!' or '\('"),
    ("(x!y", r"expected '\)'"),
    ("x!y |", "unexpected"),
    ("new . 0", "expected 'name'"),
    ("x!new", "reserved word"),
    ("new new. 0", "reserved word"),
    ("new x 0", "expected '.'"),
    ("x!y.0)", "trailing"),
    ("_a!b", "reserved namespace"),
    ("x(_p).0", "reserved namespace"),
    ("", "unexpected"),
    ("x!y.%", "unexpected character"),
])
def test_parse_errors(bad, fragment):
    with pytest.raises(PiError, match=fragment):
        parse_pi(bad)


def test_reserved_names_allowed_with_flag():
    t = parse_pi("_a!b", allow_reserved=True)
    assert t == Out("_a", "b", Nil())


# ------------- names and substitution -------------

def test_free_names_and_binders():
    t = parse_pi("new u. (x!u | u(v).v!z)")
    assert free_names(t) == {"x", "z"}
    assert all_names(t) >= {"x", "u", "v", "z"}


def test_external_ids_are_not_names():
    t = parse_pi("new w. @w")
    assert free_names(t) == set()
    assert subst_names(t, {"w": "q"}) == t
    # the restriction does not hide the observation constant
    assert strong_barbs(normal_form(t)) == frozenset({Barb("ext", "w")})


def test_subst_names_avoids_capture():
    # renaming z to y must not let the input binder y capture it
    t = parse_pi("x(y).(y!a | z!b)")
    out = subst_names(t, {"z": "y"})
    assert isinstance(out, In) and out.param != "y"
    assert free_names(out) == {"x", "a", "b", "y"}


def test_subst_names_on_restriction_binder():
    t = parse_pi("new n. (n!a | m!b)")
    out = subst_names(t, {"m": "n"})
    assert free_names(out) == {"a", "b", "n"}
    assert isinstance(out, Res) and out.name != "n"


NAMES = st.sampled_from(["a", "b", "c", "x", "y"])


def pi_terms(async_only=False):
    out_cont = st.just(Nil()) if async_only else None

    def extend(kids):
        opts = [
            st.builds(Out, NAMES, NAMES, kids if out_cont is None else out_cont),
            st.builds(In, NAMES, NAMES, kids),
            st.builds(Par, kids, kids),
            st.builds(Res, NAMES, kids),
            st.builds(Repl, kids),
        ]
        return st.one_of(*opts)

    base = st.one_of(st.just(Nil()), st.builds(Out, NAMES, NAMES, st.just(Nil())))
    return st.recursive(base, extend, max_leaves=6)


def _res_count(t) -> int:
    match t:
        case Res(_, b):
            return 1 + _res_count(b)
        case Out(_, _, k) | In(_, _, k) | Repl(k):
            return _res_count(k)
        case Par(l, r):
            return _res_count(l) + _res_count(r)
        case _:
            return 0


@given(pi_terms(), st.sampled_from(["a", "x"]), st.sampled_from(["b", "y"]))
def test_subst_names_free_name_law(t, frm, to):
    assume(_res_count(t) <= 5)
    fn = free_names(t)
    got = free_names(subst_names(t, {frm: to}))
    want = (fn - {frm}) | ({to} if frm in fn else set())
    assert got == want


# ------------- structural normal form -------------

def test_normal_form_laws():
    assert nf("x!z | 0") == nf("x!z")
    assert nf("a!b | c!d") == nf("c!d | a!b")
    assert nf("a!b | (c!d | e!f)") == nf("(a!b | c!d) | e!f")
    assert nf("new u. x!z") == nf("x!z")          # unused restriction dropped
    assert nf("new a. a!b") == nf("new q. q!b")   # alpha-invariance


def test_normal_form_idempotent_on_examples():
    for text in ROUNDTRIP:
        if "P" in text:
            continue
        s = nf(text)
        assert normal_form(s.term()) == s


def test_restrictions_stay_under_prefixes():
    s = nf("x!y.new u. u!a")
    assert s.restricted == ()
    assert print_state(s) == "x!y.new u. u!a"
    s2 = nf("!new u. u!a")
    assert s2.restricted == ()


def test_restriction_order_is_canonical():
    assert nf("new a, b. (a!x | b!y)") == nf("new b, a. (a!x | b!y)")


def test_shadowed_binders_normalize_apart():
    s = nf("new n. (n!a | new n. n!b)")
    assert len(s.restricted) == 2
    assert len(set(s.restricted)) == 2


@settings(max_examples=60, deadline=None)
@given(pi_terms())
def test_normal_form_idempotent(t):
    assume(_res_count(t) <= 5)
    s = normal_form(t)
    assert normal_form(s.term()) == s


@settings(max_examples=60, deadline=None)
@given(pi_terms(), pi_terms())
def test_parallel_commutes(a, b):
    assume(_res_count(a) + _res_count(b) <= 5)
    assert normal_form(Par(a, b)) == normal_form(Par(b, a))


# ------------- barbs -------------

def test_barb_printing_and_parsing():
    assert str(Barb("out", "x")) == "x!"
    assert str(Barb("in", "x")) == "x("
    assert str(Barb("ext", "done")) == "@done"
    assert barb_from_text("x!") == Barb("out", "x")
    assert barb_from_text("x") == Barb("out", "x")
    assert barb_from_text("x(") == Barb("in", "x")
    assert barb_from_text("@done") == Barb("ext", "done")


@pytest.mark.parametrize("text", ["!", "@", "x y!", "X!", "@W", "x!!", "", "  "])
def test_malformed_barb_is_rejected(text):
    # an empty name, an empty id, a space, a process variable: bad input, never "no"
    with pytest.raises(PiError):
        barb_from_text(text)


def test_strong_barbs_hide_restricted_subjects():
    assert strong_barbs(nf("new x. (x!z | y!z)")) == {Barb("out", "y")}
    assert strong_barbs(nf("x!z.y!w")) == {Barb("out", "x")}  # not the continuation


def test_input_barbs_only_on_request():
    s = nf("x(y).0 | z!a")
    assert strong_barbs(s) == {Barb("out", "z")}
    assert strong_barbs(s, input_barbs=True) == {Barb("out", "z"), Barb("in", "x")}


def test_barbs_propagate_through_replication():
    assert strong_barbs(nf("!x!z")) == {Barb("out", "x")}
    assert strong_barbs(nf("!(new x. x!z)")) == frozenset()
    assert strong_barbs(nf("new d. !(@w | d!a)")) == {Barb("ext", "w")}


# ------------- reduction -------------

def succs(s: str):
    return reduce_once(nf(s))


def test_reduce_basic_communication():
    (s,) = succs("x!z | x(y).y!w")
    assert s == nf("z!w")


def test_reduce_scope_extrusion():
    (s,) = succs("new u. x!u | x(y).y!w")
    assert s == nf("new u. u!w")
    assert strong_barbs(s) == frozenset()


def test_reduce_branches_on_competing_senders():
    out = succs("x!a | x!b | x(y).y!c")
    assert set(out) == {nf("a!c | x!b"), nf("b!c | x!a")}
    assert [s.key for s in out] == sorted(s.key for s in out)


def test_reduce_is_lazy_on_replication():
    (s,) = succs("!x(y).y!c | x!a")
    assert s == nf("!x(y).y!c | a!c")


def test_reduce_inside_one_replication_copy():
    (s,) = succs("!(new u. (u!a | u(b).c!b))")
    assert s == nf("!(new u. (u!a | u(b).c!b)) | c!a")


def test_reduce_keeps_nested_replication():
    (s,) = succs("!(x!a | !x(y).0)")
    assert s == nf("!(x!a | !x(y).0) | !x(y).0")


def test_reduce_tolerates_inert_process_variables():
    (s,) = succs("x!z | x(y).X")
    assert s.threads == (PVar("X"),)


def test_communication_needs_equal_channels():
    assert succs("x!a | y(b).0") == []
    assert succs("new x. x!a | x(b).0") == []  # restricted x is a different channel


@settings(max_examples=40, deadline=None)
@given(pi_terms(async_only=True))
def test_async_fragment_closed_under_reduction(t):
    assume(_res_count(t) <= 5)
    assert is_async(t)
    for s in reduce_once(normal_form(t)):
        assert is_async(s.term())


@settings(max_examples=40, deadline=None)
@given(pi_terms())
def test_reduction_only_depends_on_the_state(t):
    assume(_res_count(t) <= 5)
    s = normal_form(t)
    again = normal_form(s.term())
    assert [x.key for x in reduce_once(s)] == [x.key for x in reduce_once(again)]


# ------------- exploration -------------

def test_explore_chain():
    g = explore(parse_pi("new u. (x!u | u(v).v!z) | x(u).u!v"), 50)
    assert g.complete and len(g.states) == 3
    order = g.order()
    assert [len(g.edges[k]) for k in order] == [1, 1, 0]
    assert g.barbs[order[0]] == {Barb("out", "x")}
    assert g.barbs[order[1]] == frozenset()
    assert g.barbs[order[2]] == {Barb("out", "v")}


def test_explore_replication_self_loop():
    g = explore(parse_pi("!x!z | !x(y).0"), 5)
    assert g.complete and len(g.states) == 1
    assert g.edges[g.root] == (g.root,)
    assert g.divergent == frozenset({g.root})


def test_explore_budget_truncation():
    g = explore(parse_pi("x!a.x!a.x!a | !x(y).0"), 2)
    assert not g.complete
    assert len(g.states) == 2
    assert g.divergent == frozenset()


def test_explore_rejects_free_process_variables():
    with pytest.raises(PiError, match="process variable"):
        explore(parse_pi("X | x!z"), 10)


def test_explore_deterministic():
    t = parse_pi("x!a | x!b | x(y).y!c | a(q).0")
    g1, g2 = explore(t, 50), explore(t, 50)
    assert g1.order() == g2.order()
    assert g1.edges == g2.edges


def test_weak_barb_verdicts():
    assert weak_barb(parse_pi("new u. (x!u | u(v).v!z) | x(u).u!v"),
                     Barb("out", "v"), 50) == "yes"
    assert weak_barb(parse_pi("x!z | x(u).u!v"), Barb("out", "v"), 50) == "no"
    assert weak_barb(parse_pi("x!a.x!a.x!a | !x(y).0"), Barb("out", "q"), 2) == "inconclusive"


def test_weak_barb_input_kind():
    assert weak_barb(parse_pi("x!z | x(y).a(b).0"), Barb("in", "a"), 50) == "yes"


# ------------- bisimilarities -------------

TAU_P = "x!z.0"
TAU_Q = "new t. (t!t | t(s).x!z.0)"
OMEGA = "new t. (!t(y).t!y | t!c)"


def test_tau_prefix_profile():
    results = {k: bisim(parse_pi(TAU_P), parse_pi(TAU_Q), k, 100).result
               for k in BISIM_KINDS}
    assert results == {
        "strong-barbed": "not",
        "weak-barbed": "bisimilar",
        "branching-barbed": "bisimilar",
        "dp-branching-barbed": "bisimilar",
        "wdp-branching-barbed": "bisimilar",
    }


def test_divergence_sensitive_kinds():
    p, q = parse_pi(TAU_P), parse_pi(f"{TAU_P} | {OMEGA}")
    results = {k: bisim(p, q, k, 100).result for k in BISIM_KINDS}
    assert results["weak-barbed"] == "bisimilar"
    assert results["branching-barbed"] == "bisimilar"
    assert results["dp-branching-barbed"] == "not"
    assert results["wdp-branching-barbed"] == "not"


def test_strong_bisim_distinguishes_subjects():
    v = bisim(parse_pi("x!z"), parse_pi("y!z"), "strong-barbed", 10)
    assert v.result == "not"
    assert "barb" in v.note


def test_barbed_bisim_ignores_payloads():
    assert bisim(parse_pi("x!a"), parse_pi("x!b"), "strong-barbed", 10).result == "bisimilar"


def test_external_barbs_distinguish():
    v = bisim(parse_pi("@done | x!z"), parse_pi("x!z"), "strong-barbed", 10)
    assert v.result == "not"


@pytest.mark.parametrize("kind", BISIM_KINDS)
def test_bisim_reflexive(kind):
    for text in (TAU_Q, OMEGA, "x!z | x(y).y!w"):
        assert bisim(parse_pi(text), parse_pi(text), kind, 100).result == "bisimilar"


def test_bisim_symmetric_verdict():
    p, q = parse_pi(TAU_P), parse_pi(f"{TAU_P} | {OMEGA}")
    for kind in BISIM_KINDS:
        assert (bisim(p, q, kind, 100).result ==
                bisim(q, p, kind, 100).result)


def test_bisim_inconclusive_on_truncation():
    v = bisim(parse_pi("x!a.x!a.x!a | !x(y).0"), parse_pi("0"), "weak-barbed", 2)
    assert v.result == "inconclusive"


def test_bisim_unknown_kind():
    with pytest.raises(PiError, match="unknown"):
        bisim(Nil(), Nil(), "mutual", 5)


def test_alpha_eq_pi():
    assert alpha_eq_pi(parse_pi("new a. a!x"), parse_pi("new b. b!x"))
    assert not alpha_eq_pi(parse_pi("new a. a!x"), parse_pi("new b. b!y"))
    assert not alpha_eq_pi(parse_pi("x!y | y!x"), parse_pi("y!x | x!y"))  # raw, not AC
