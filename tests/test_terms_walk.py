"""The term walkers that read Construct.scopes, against the walkers that
looked the scoping binders up by slot label at every node.

The oracles below are the earlier definitions of free_vars, substitute,
canon_key, canonical_binders and complete_compositional, with the helpers
they used (the slot list and _arg_binders).  Each new result must equal its
oracle under ==, not only up to alpha: the binder names a walker picks
(_wN, freshened names) reach printed output.
"""

import json
import re
from itertools import count, islice
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from transcheck.encodings import PI_TERM_SIG, boudol_head_translation
from transcheck.terms import (App, Construct, Signature, TermError, Var, _fresh,
                              all_names, canon_key, canonical_binders,
                              complete_compositional, enumerate_terms, free_vars,
                              signature_from_dict, substitute, translation)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# ------------- the label-lookup walkers, kept as oracles -------------


def old_slots(c):
    seen = []
    for per_arg in c.binders:
        for lbl in per_arg:
            if lbl not in seen:
                seen.append(lbl)
    return tuple(seen)


def old_arg_binders(c, bound, i):
    return {bound[old_slots(c).index(lbl)] for lbl in c.binders[i]}


def old_free_vars(sig, t):
    match t:
        case Var(x):
            return {x}
        case App(_, bound, args):
            c = sig[t.op]
            out = set()
            for i, a in enumerate(args):
                out |= old_free_vars(sig, a) - old_arg_binders(c, bound, i)
            return out
    raise TermError(f"not a term: {t!r}")


def old_substitute(sig, t, subst, _capture=frozenset()):
    match t:
        case Var(x):
            return subst.get(x, t)
        case App(op, bound, args):
            c = sig[op]
            fv = old_free_vars(sig, t)
            active = {x: r for x, r in subst.items() if x in fv}
            if not active:
                return t
            range_fv = set()
            for r in active.values():
                range_fv |= old_free_vars(sig, r)
            avoid = range_fv | all_names(sig, t) | set(active)
            renamed_slot = {}
            new_bound = list(bound)
            for k, b in enumerate(bound):
                if b in range_fv and b not in _capture:
                    nb = _fresh(b, avoid)
                    avoid.add(nb)
                    renamed_slot[k] = nb
                    new_bound[k] = nb
            new_args = []
            for i, a in enumerate(args):
                slot_ks = [old_slots(c).index(lbl) for lbl in c.binders[i]]
                here = {bound[k] for k in slot_ks}
                inner = {x: r for x, r in active.items() if x not in here}
                inner.update({bound[k]: Var(renamed_slot[k])
                              for k in slot_ks if k in renamed_slot})
                new_args.append(old_substitute(sig, a, inner, _capture) if inner else a)
            return App(op, tuple(new_bound), tuple(new_args))
    raise TermError(f"not a term: {t!r}")


def old_canon_key(sig, t, env=None, depth=0):
    match t:
        case Var(x):
            env = env or {}
            return ("b", env[x]) if x in env else ("f", x)
        case App(op, bound, args):
            c = sig[op]
            slots = old_slots(c)
            levels = {lbl: depth + k for k, lbl in enumerate(slots)}
            parts = []
            for i, a in enumerate(args):
                env2 = dict(env or {})
                for lbl in c.binders[i]:
                    env2[bound[slots.index(lbl)]] = levels[lbl]
                parts.append(old_canon_key(sig, a, env2, depth + len(slots)))
            return ("a", op, tuple(parts))
    raise TermError(f"not a term: {t!r}")


def old_canonical_binders(sig, t, base="B"):
    counter = count(1)
    avoid = set(old_free_vars(sig, t))

    def next_name():
        while True:
            cand = f"{base}{next(counter)}"
            if cand not in avoid:
                avoid.add(cand)
                return cand

    def go(t, ren):
        match t:
            case Var(x):
                return Var(ren.get(x, x))
            case App(op, bound, args):
                c = sig[op]
                fresh_slot = [next_name() for _ in bound]
                new_args = []
                for i, a in enumerate(args):
                    ren2 = dict(ren)
                    for lbl in c.binders[i]:
                        k = old_slots(c).index(lbl)
                        ren2[bound[k]] = fresh_slot[k]
                    new_args.append(go(a, ren2))
                return App(op, tuple(fresh_slot), tuple(new_args))
        raise TermError(f"not a term: {t!r}")

    return go(t, {})


def old_rename_slot_binders(sig, t, ren):
    match t:
        case Var(_):
            return t
        case App(op, bound, args):
            c = sig[op]
            new_bound = tuple(ren.get(b, b) for b in bound)
            new_args = []
            for i, a in enumerate(args):
                here = old_arg_binders(c, bound, i)
                occ = {b: Var(ren[b]) for b in here if b in ren}
                a2 = (old_substitute(sig, a, occ, _capture=frozenset(ren.values()))
                      if occ else a)
                new_args.append(old_rename_slot_binders(sig, a2, ren))
            return App(op, new_bound, tuple(new_args))
    raise TermError(f"not a term: {t!r}")


def old_complete_compositional(tr, keep_binders=frozenset()):
    state = {"next": 0}
    w_pattern = re.compile(r"_w([0-9]+)$")

    def fresh_w():
        name = f"_w{state['next']}"
        state["next"] += 1
        return name

    def apply(t):
        match t:
            case Var(_):
                return t
            case App(op, bound, args):
                c = tr.source[op]
                slots = old_slots(c)
                image = dict(tr.heads)[op]
                w = {}
                for k, lbl in enumerate(slots):
                    w[lbl] = bound[k] if bound[k] in keep_binders else fresh_w()
                new_args = []
                for i, a in enumerate(args):
                    ren = {bound[slots.index(lbl)]: Var(w[lbl]) for lbl in c.binders[i]
                           if bound[slots.index(lbl)] != w[lbl]}
                    new_args.append(apply(old_substitute(tr.source, a, ren) if ren else a))
                image = old_rename_slot_binders(tr.target, image,
                                                {lbl: nm for lbl, nm in w.items() if lbl != nm})
                plugs = {f"X{i + 1}": new_args[i] for i in range(c.args)}
                out = old_substitute(tr.target, image, plugs, _capture=frozenset(w.values()))
                leaked = old_free_vars(tr.target, out) & set(w.values())
                if leaked:
                    raise TermError(f"image of {op} does not bind slot(s) {sorted(leaked)}")
                return out
        raise TermError(f"not a term: {t!r}")

    def translate(t):
        for nm in all_names(tr.source, t):
            m = w_pattern.match(nm)
            if m:
                state["next"] = max(state["next"], int(m.group(1)) + 1)
        return apply(t)

    return translate


# ------------- signatures and random terms -------------

LAM = Signature("lam", (
    Construct("app", 2, ((), ())),
    Construct("lam", 1, (("v",),)),
    Construct("let2", 2, ((), ("a", "b"))),
    Construct("unit", 0, ()),
))

# slot labels in a different order in different arguments: sw's slots are
# (b, a), and its second argument lists them as (a, b); two's slots each
# scope one argument, so one name may fill both
SWAP = Signature("swap", (
    Construct("sw", 2, (("b",), ("a", "b"))),
    Construct("two", 2, (("p",), ("q",))),
    Construct("u", 1, ((),)),
    Construct("k", 0, ()),
))


def _counters(name):
    return signature_from_dict(json.loads((FIXTURES / "counters" / name).read_text()))


COUNT_SRC = _counters("src.json")
SIGS = {"lam": LAM, "pi": PI_TERM_SIG, "counters": COUNT_SRC, "swap": SWAP}
NAMES = ("x", "y", "z", "_w1")
LEAVES = ("X", "Y", "x", "y", "_w2")


def _distinct_per_arg(c, bound):
    slots = old_slots(c)
    return all(len({bound[slots.index(lbl)] for lbl in per_arg}) == len(per_arg)
               for per_arg in c.binders)


def terms_over(sig):
    nullary = [App(c.name, (), ()) for c in sig.constructs if c.args == 0]
    composite = [c for c in sig.constructs if c.args > 0]

    def node(c, sub):
        bound = st.tuples(*[st.sampled_from(NAMES)] * len(c.slots)).filter(
            lambda b: _distinct_per_arg(c, b))
        return st.builds(lambda b, a: App(c.name, b, a), bound, st.tuples(*[sub] * c.args))

    return st.recursive(st.sampled_from([Var(x) for x in LEAVES] + nullary),
                        lambda sub: st.one_of(*(node(c, sub) for c in composite)),
                        max_leaves=8)


TERMS = {name: terms_over(sig) for name, sig in SIGS.items()}
SIG_AND_TERM = st.one_of(*(st.tuples(st.just(SIGS[name]), TERMS[name]) for name in SIGS))
SIG_TERM_AND_SUBST = st.one_of(*(
    st.tuples(st.just(SIGS[name]), TERMS[name],
              st.dictionaries(st.sampled_from(LEAVES + NAMES), TERMS[name], max_size=3))
    for name in SIGS))


# ------------- the walkers agree with their oracles -------------

@given(case=SIG_AND_TERM)
@settings(max_examples=200, deadline=None)
def test_free_vars_canon_key_and_canonical_binders_match(case):
    sig, t = case
    assert free_vars(sig, t) == old_free_vars(sig, t)
    assert canon_key(sig, t) == old_canon_key(sig, t)
    assert canonical_binders(sig, t) == old_canonical_binders(sig, t)
    assert canonical_binders(sig, t, base="q") == old_canonical_binders(sig, t, base="q")


@given(case=SIG_TERM_AND_SUBST)
@settings(max_examples=200, deadline=None)
def test_substitute_matches(case):
    sig, t, sigma = case
    assert substitute(sig, t, sigma) == old_substitute(sig, t, sigma)
    capture = frozenset(NAMES[:2])
    assert substitute(sig, t, sigma, capture) == old_substitute(sig, t, sigma, capture)


LAM_HEADS = {
    "app": App("app", (), (Var("X2"), Var("X1"))),
    "lam": App("let2", ("v", "w"), (App("unit", (), ()),
                                    App("app", (), (Var("X1"), Var("w"))))),
    "let2": App("let2", ("b", "a"), (Var("X1"), App("lam", ("v",), (Var("X2"),)))),
    "unit": App("unit", (), ()),
}
SWAP_HEADS = {
    "sw": App("sw", ("b", "a"), (App("u", (), (Var("X1"),)),
                                 App("two", ("c", "a"), (Var("X2"), Var("b"))))),
    "two": App("sw", ("q", "p"), (Var("X2"), App("two", ("p", "p"), (Var("X1"), Var("X1"))))),
    "u": App("two", ("c", "c"), (Var("X1"), Var("c"))),
    "k": App("k", (), ()),
}
COUNT_HEADS = {"S": App("two", (), (App("S", (), (Var("X1"),)),)),
               "two": App("S", (), (App("S", (), (Var("X1"),)),))}
TRANSLATIONS = {
    "lam": translation(LAM, LAM, LAM_HEADS),
    "pi": boudol_head_translation(),
    "counters": translation(COUNT_SRC, COUNT_SRC, COUNT_HEADS),
    "swap": translation(SWAP, SWAP, SWAP_HEADS),
}


def _both(new, old, t):
    """Both results, or both error messages."""
    out = []
    for f in (new, old):
        try:
            out.append(f(t))
        except TermError as e:
            out.append(str(e))
    return out


@given(case=st.one_of(*(st.tuples(st.just(name), TERMS[name]) for name in SIGS)))
@settings(max_examples=200, deadline=None)
def test_complete_compositional_matches(case):
    name, t = case
    tr = TRANSLATIONS[name]
    new, old = _both(complete_compositional(tr), old_complete_compositional(tr), t)
    assert new == old
    keep = frozenset(NAMES[:2])
    new, old = _both(complete_compositional(tr, keep), old_complete_compositional(tr, keep), t)
    assert new == old


def test_head_images_with_kept_slot_labels_match():
    """What compose_translations(tr, tr) runs: each image translated with its
    source construct's slot labels kept."""
    for name in ("lam", "counters", "swap"):
        tr = TRANSLATIONS[name]
        for op, img in tr.heads:
            keep = frozenset(tr.source[op].slots)
            got = complete_compositional(tr, keep_binders=keep)(img)
            assert got == old_complete_compositional(tr, keep_binders=keep)(img)


def test_boudol_head_map_matches_on_the_depth_3_pool():
    """The first 1,000 terms of the depth-3 pool: all of depth 2 (every
    construct), then Out terms over it.  The whole pool has 163,407 terms."""
    tr = boudol_head_translation()
    new, old = complete_compositional(tr), old_complete_compositional(tr)
    for t in islice(enumerate_terms(PI_TERM_SIG, 3), 1000):
        assert new(t) == old(t)
