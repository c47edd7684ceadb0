"""Terms, substitution, heads, translations: frozen examples and laws."""

import json
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transcheck.terms import (App, Construct, Signature, TermError, Var,
                              alpha_eq, all_names, canon_key, canonical_binders,
                              check_compositional, complete_compositional,
                              compose_subst, compose_translations, enumerate_terms,
                              free_vars, head_decompose, is_fvr, is_prefix,
                              parse_term, print_term, signature_from_dict,
                              substitute, translation, validate)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

LAM = Signature("lam", (
    Construct("app", 2, ((), ())),
    Construct("lam", 1, (("v",),)),
    Construct("let2", 2, ((), ("a", "b"))),
    Construct("unit", 0, ()),
))

NAMES = ("x", "y", "z", "w")
VARS = ("X", "Y", "Z")


def lam(n, b):
    return App("lam", (n,), (b,))


def ap(f, a):
    return App("app", (), (f, a))


# ---------- strategies ----------

def _let2(pair, a, b):
    return App("let2", pair, (a, b))


terms_st = st.recursive(
    st.sampled_from([Var(n) for n in VARS + NAMES] + [App("unit", (), ())]),
    lambda sub: st.one_of(
        st.builds(ap, sub, sub),
        st.builds(lam, st.sampled_from(NAMES), sub),
        st.builds(_let2, st.sampled_from(list(permutations(NAMES, 2))), sub, sub),
    ),
    max_leaves=6,
)

substs_st = st.dictionaries(st.sampled_from(VARS + NAMES), terms_st, max_size=3)


# ---------- well-formedness ----------

def test_construct_guards():
    with pytest.raises(TermError):
        Construct("f", -1, ())
    with pytest.raises(TermError):
        Construct("f", 1, ((), ()))  # profile length mismatch
    with pytest.raises(TermError):
        Construct("f", 1, (("X1",),))  # slot label collides with placeholders
    with pytest.raises(TermError):
        Signature("s", (Construct("f", 0, ()), Construct("f", 0, ())))


def test_validate_rejects_equal_binders_on_one_arg():
    sig = Signature("s", (Construct("bi", 1, (("a", "b"),)),))
    validate(sig, App("bi", ("x", "y"), (Var("x"),)))
    with pytest.raises(TermError):
        validate(sig, App("bi", ("x", "x"), (Var("x"),)))


def test_validate_arity_and_binder_count():
    with pytest.raises(TermError):
        validate(LAM, App("app", (), (Var("X"),)))
    with pytest.raises(TermError):
        validate(LAM, App("lam", (), (Var("X"),)))


def test_validate_rejects_bad_binder_names():
    sig = Signature("s", (Construct("In", 2, ((), ("y",))), Construct("Nil", 0, ())))
    with pytest.raises(TermError, match="bad binder name"):
        parse_term(sig, "In[)](x, Nil)")
    with pytest.raises(TermError, match="bad binder name"):
        validate(sig, App("In", ("a b",), (Var("x"), App("Nil", (), ()))))
    t = parse_term(sig, "In[_y1](x, Nil)")
    assert parse_term(sig, print_term(t)) == t


# ---------- substitution ----------

def test_substitute_avoids_capture():
    t = lam("x", ap(Var("X"), Var("x")))
    out = substitute(LAM, t, {"X": Var("x")})
    # the binder must move out of the way of the free x being plugged in
    assert out.bound[0] != "x"
    assert out.args[0] == ap(Var("x"), Var(out.bound[0]))


def test_substitute_ignores_bound_occurrences():
    t = lam("x", Var("x"))
    assert substitute(LAM, t, {"x": Var("y")}) == t


def test_substitute_under_nested_binders():
    sig = Signature("s", (Construct("bi", 1, (("a", "b"),)),))
    t = App("bi", ("x", "y"), (App("bi", ("u", "v"), (Var("x"),)),))
    assert substitute(sig, t, {"Z": Var("x")}) == t
    out = substitute(sig, App("bi", ("x", "y"), (Var("X"),)), {"X": Var("x")})
    assert out.bound[0] != "x" and out.args[0] == Var("x")


@given(t=terms_st, sigma=substs_st)
def test_substitute_free_var_law(t, sigma):
    got = free_vars(LAM, substitute(LAM, t, sigma))
    want = set()
    for x in free_vars(LAM, t):
        want |= free_vars(LAM, sigma[x]) if x in sigma else {x}
    assert got == want


@given(t=terms_st)
def test_substitute_empty_is_identity(t):
    assert substitute(LAM, t, {}) == t


@given(t=terms_st, sigma=substs_st, xi=substs_st)
def test_substitution_composition_law(t, sigma, xi):
    lhs = substitute(LAM, substitute(LAM, t, sigma), xi)
    merged = dict(xi)
    merged.update(compose_subst(LAM, xi, sigma))
    assert alpha_eq(LAM, lhs, substitute(LAM, t, merged))


@given(t=terms_st, sigma=substs_st)
def test_substitute_respects_alpha(t, sigma):
    u = canonical_binders(LAM, t)
    assert alpha_eq(LAM, substitute(LAM, t, sigma), substitute(LAM, u, sigma))


# ---------- alpha equivalence ----------

def test_alpha_eq_basics():
    assert alpha_eq(LAM, lam("x", Var("x")), lam("y", Var("y")))
    assert not alpha_eq(LAM, lam("x", Var("x")), lam("y", Var("x")))
    assert not alpha_eq(LAM, Var("x"), Var("y"))


def test_alpha_eq_two_slot_binders():
    sig = Signature("s", (Construct("bi", 1, (("a", "b"),)),))
    s = App("bi", ("x", "y"), (ap(Var("x"), Var("y")),))
    t = App("bi", ("y", "x"), (ap(Var("y"), Var("x")),))
    u = App("bi", ("y", "x"), (ap(Var("x"), Var("y")),))
    sig2 = Signature("s", (Construct("bi", 1, (("a", "b"),)), LAM["app"]))
    assert alpha_eq(sig2, s, t)
    assert not alpha_eq(sig2, s, u)


@given(t=terms_st)
def test_canonical_binders_is_alpha_identity(t):
    u = canonical_binders(LAM, t)
    assert alpha_eq(LAM, t, u)
    assert free_vars(LAM, t) == free_vars(LAM, u)
    assert canonical_binders(LAM, u) == u


@given(t=terms_st, u=terms_st)
def test_canon_key_decides_alpha(t, u):
    assert (canon_key(LAM, t) == canon_key(LAM, u)) == alpha_eq(LAM, t, u)


# ---------- prefixes and heads ----------

def test_is_prefix_examples():
    e = lam("x", ap(Var("X"), Var("x")))
    f = lam("y", ap(lam("z", Var("z")), Var("y")))
    assert is_prefix(LAM, e, f)
    # X would have to become the bound variable itself: capture, not allowed
    g = lam("y", ap(Var("y"), Var("y")))
    assert not is_prefix(LAM, e, g)
    # inconsistent instantiation of the two X occurrences
    h = ap(Var("X"), Var("X"))
    assert is_prefix(LAM, h, ap(Var("y"), Var("y")))
    assert not is_prefix(LAM, h, ap(Var("y"), Var("z")))


@given(t=terms_st, sigma=substs_st)
def test_instance_has_prefix(t, sigma):
    assert is_prefix(LAM, t, substitute(LAM, t, sigma))


def test_head_decompose_examples():
    t = ap(Var("Y"), lam("x", ap(Var("x"), Var("Z"))))
    head, sigma = head_decompose(LAM, t)
    assert print_term(head) == "app(X1, X2)"
    assert sigma == {"X1": Var("Y"), "X2": lam("B1", ap(Var("B1"), Var("Z")))}
    # a subterm mentioning the binder above it cannot be abstracted away
    u = lam("x", ap(Var("x"), Var("Y")))
    head, sigma = head_decompose(LAM, u)
    assert print_term(head) == "lam[B1](app(B1, X1))"
    assert sigma == {"X1": Var("Y")}


def test_head_decompose_variable_rejected():
    with pytest.raises(TermError):
        head_decompose(LAM, Var("X"))


@given(t=terms_st)
def test_head_roundtrip(t):
    if isinstance(t, Var):
        return
    head, sigma = head_decompose(LAM, t)
    assert alpha_eq(LAM, substitute(LAM, head, sigma), t)
    assert free_vars(LAM, head) == set(sigma)
    # the decomposition cannot depend on the choice of bound names
    assert head_decompose(LAM, canonical_binders(LAM, t)) == (head, sigma)


# ---------- translations ----------

TOY = Signature("toy", (
    Construct("Nil", 0, ()),
    Construct("Par", 2, ((), ())),
    Construct("Out", 3, ((), (), ())),
    Construct("In", 2, ((), ("y",))),
))

TOY_HEADS = {
    "Nil": App("Nil", (), ()),
    "Par": App("Par", (), (Var("X1"), Var("X2"))),
    "Out": App("Out", (), (Var("X1"), Var("X2"), Var("X3"))),
    "In": App("In", ("y",), (Var("X1"), App("Par", (), (
        App("Out", (), (Var("y"), Var("y"), App("Nil", (), ()))), Var("X2"))))),
}


def test_complete_compositional_rebinds_slot_labels():
    tr = translation(TOY, TOY, TOY_HEADS)
    f = complete_compositional(tr)
    t = parse_term(TOY, "In[a](X, Out(a, a, Nil))")
    out = f(t)
    b = out.bound[0]
    assert out.args[1] == App("Par", (), (
        App("Out", (), (Var(b), Var(b), App("Nil", (), ()))),
        App("Out", (), (Var(b), Var(b), App("Nil", (), ())))))
    assert alpha_eq(TOY, out, parse_term(TOY, "In[a](X, Par(Out(a, a, Nil), Out(a, a, Nil)))"))


def test_complete_compositional_is_clause3():
    tr = translation(TOY, TOY, TOY_HEADS)
    f = complete_compositional(tr)
    assert f(Var("X")) == Var("X")


def test_image_must_bind_its_slots():
    bad = dict(TOY_HEADS)
    bad["In"] = App("Par", (), (Var("X1"), Var("X2")))  # binder dropped from the image
    tr = translation(TOY, TOY, bad)
    f = complete_compositional(tr)
    with pytest.raises(TermError):
        f(parse_term(TOY, "In[a](X, Out(a, a, Nil))"))


def test_translation_rejects_images_for_unknown_constructs():
    with pytest.raises(TermError, match=r"images for constructs toy lacks: \['Bogus', 'Zap'\]"):
        translation(TOY, TOY, {**TOY_HEADS, "Zap": App("Nil", (), ()),
                               "Bogus": App("Nil", (), ())})


def test_compose_translations_keeps_slot_labels():
    tr = translation(TOY, TOY, TOY_HEADS)
    twice = compose_translations(tr, tr)
    img = twice.head("In")
    assert img.bound == ("y",)
    assert alpha_eq(TOY, img, parse_term(
        TOY, "In[y](X1, Par(Out(y, y, Nil), Par(Out(y, y, Nil), X2)))"))


def test_compose_translations_signature_mismatch():
    src = Signature("a", (Construct("k", 0, ()),))
    tgt = Signature("b", (Construct("k", 0, ()),))
    t1 = translation(src, tgt, {"k": App("k", (), ())})
    with pytest.raises(TermError):
        compose_translations(t1, t1)


@given(t=terms_st)
@settings(max_examples=50)
def test_identity_translation_fixes_everything(t):
    heads = {
        "app": ap(Var("X1"), Var("X2")),
        "lam": App("lam", ("v",), (Var("X1"),)),
        "let2": App("let2", ("a", "b"), (Var("X1"), Var("X2"))),
        "unit": App("unit", (), ()),
    }
    f = complete_compositional(translation(LAM, LAM, heads))
    assert alpha_eq(LAM, f(t), t)


# ---------- enumeration and bounded checks ----------

def test_enumerate_terms_dedup_and_order():
    got = list(enumerate_terms(LAM, 2))
    keys = [canon_key(LAM, t) for t in got]
    assert len(keys) == len(set(keys))
    assert got[:3] == [Var("X"), Var("Y"), App("unit", (), ())]
    heights = {print_term(t) for t in got}
    assert "lam[z1](X)" in heights and "app(X, Y)" in heights


def test_counter_translation_not_compositional():
    src = signature_from_dict(json.loads((FIXTURES / "counters" / "src.json").read_text()))
    tgt = signature_from_dict(json.loads((FIXTURES / "counters" / "tgt.json").read_text()))

    def norm(t):
        i, j = 0, 0
        while isinstance(t, App):
            if t.op == "S":
                i += 2 ** j
            else:
                j += 1
            t = t.args[0]
        if i == 0:
            return t
        out = t
        if j:
            out = App(f"G{j}", (), (out,))
            i -= 1
        for _ in range(i):
            out = App("S", (), (out,))
        return out

    v = check_compositional(src, tgt, norm, depth=3)
    assert not v.holds
    assert v.checked == 17
    e, sigma, lhs, rhs = v.witness
    assert print_term(e) == "S(X)"
    assert {k: print_term(r) for k, r in sigma.items()} == {"X": "two(X)"}
    assert print_term(lhs) == "G1(X)"
    assert print_term(rhs) == "S(X)"
    fv = is_fvr(src, tgt, norm, depth=3)
    assert fv.holds and fv.note == "exhausted to depth 3"


def test_compositional_accepts_homomorphic_map():
    tr = translation(TOY, TOY, TOY_HEADS)
    f = complete_compositional(tr)
    v = check_compositional(TOY, TOY, f, depth=2)
    assert v.holds
    w = is_fvr(TOY, TOY, f, depth=2)
    assert w.holds


def test_compositional_clause3_detected():
    v = check_compositional(TOY, TOY, lambda t: App("Nil", (), ()), depth=2)
    assert not v.holds and v.witness[0] == "clause-3"


# ---------- concrete syntax ----------

def test_parse_print_fixed():
    t = parse_term(TOY, "In[y](X, Par(Out(y, x, Nil), Z))")
    assert t == App("In", ("y",), (Var("X"), App("Par", (), (
        App("Out", (), (Var("y"), Var("x"), App("Nil", (), ()))), Var("Z")))))
    assert print_term(t) == "In[y](X, Par(Out(y, x, Nil), Z))"
    with pytest.raises(TermError):
        parse_term(TOY, "Par(X")
    with pytest.raises(TermError):
        parse_term(TOY, "Out(X, Y)")


@given(t=terms_st)
def test_parse_print_roundtrip(t):
    assert parse_term(LAM, print_term(t)) == t
