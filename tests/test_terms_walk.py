"""The term walkers that read Construct.scopes, against the walkers that
looked the scoping binders up by slot label at every node.

The oracles below are the earlier definitions of free_vars, _names,
substitute, canon_key, canonical_binders, complete_compositional and
enumerate_terms, with the helpers they used (the slot list and _arg_binders).  They recompute at every
node and read no memo.  Each new result must equal its oracle under ==, not
only up to alpha: the binder names a walker picks (_wN, freshened names)
reach printed output.  The in-step alpha_eq is held equal to the comparison
of two canonical keys it replaced, and under a substitution to the
comparison with the term substitute builds, the head plans of complete_compositional
to the respelling and substitution they replaced, the semi-naive
enumerate_terms to the enumeration that dropped repeats by canonical key,
and check_compositional, which translates each term once per call, to the
loop that translated T(E) and every range term again for every pair.  The
route's _w check, read from a memo on each node, is held to the scan of every
name it replaced, the flat respelling of a memoized image to the one on
_map, and the free variables a head plan sets on each image it builds to
those of a rebuild of that image with no memo.
"""

import gc
import json
import re
import sys
import weakref
from functools import partial
from itertools import count, islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_terms import TOY, TOY_HEADS, counters_norm, counters_signatures
from transcheck import terms
from transcheck.encodings import (API_TERM_SIG, PI_TERM_SIG, boudol_encoding,
                                  boudol_head_translation, pi_to_term, term_to_pi)
from transcheck.pi import is_async, parse_pi, print_pi
from transcheck.terms import (App, Construct, Signature, TermError, Translation, Var, _arg,
                              _avoiding, _fresh, _map, _names, _rename_slot_binders, alpha_eq,
                              canon_key, canonical_binders, check_compositional,
                              complete_compositional, compose_translations, enumerate_terms,
                              free_vars, head_decompose, is_fvr, is_prefix, print_term,
                              signature_from_dict, substitute, translation, validate)
from transcheck.verdict import Verdict

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


def old_all_names(t):
    match t:
        case Var(x):
            return {x}
        case App(_, bound, args):
            out = set(bound)
            for a in args:
                out |= old_all_names(a)
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
            avoid = range_fv | old_all_names(t) | set(active)
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


def old_flat_key(key):
    """A nested key of old_canon_key as the flat pre-order key of canon_key:
    each node's parts follow its token, which gives their count."""
    out, todo = [], [key]
    while todo:
        k = todo.pop()
        if k[0] == "a":
            out.append(("a", k[1], len(k[2])))
            todo.extend(reversed(k[2]))
        else:
            out.append(k)
    return tuple(out)


def old_alpha_eq(sig, t, u):
    return canon_key(sig, t) == canon_key(sig, u)


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
        for nm in old_all_names(t):
            m = w_pattern.match(nm)
            if m:
                state["next"] = max(state["next"], int(m.group(1)) + 1)
        return apply(t)

    return translate


def old_enumerate_terms(sig, depth, leaf_vars=("X", "Y"), binder_names=("z1", "z2")):
    seen = set()
    level = [Var(x) for x in leaf_vars]
    level += [App(c.name, (), ()) for c in sig.constructs if c.args == 0]
    for t in level:
        seen.add(canon_key(sig, t))
        yield t
    pool = list(level)
    for _ in range(depth - 1):
        fresh_level = []
        for c in sig.constructs:
            if c.args == 0:
                continue
            bound = tuple(binder_names[k % len(binder_names)] for k in range(len(c.slots)))
            for args in product(pool, repeat=c.args):
                t = App(c.name, bound, args)
                key = canon_key(sig, t)
                if key not in seen:
                    seen.add(key)
                    fresh_level.append(t)
                    yield t
        pool += fresh_level


# ------------- the recursive walkers, kept as oracles of the fold -------------


def old_validate(sig, t):
    match t:
        case Var(x):
            if not terms._IDENT.match(x):
                raise TermError(f"bad variable name {x!r}")
        case App(op, bound, args):
            c = sig[op]
            if len(args) != c.args:
                raise TermError(f"{op}: expected {c.args} arguments, got {len(args)}")
            if len(bound) != len(c.slots):
                raise TermError(f"{op}: expected {len(c.slots)} binder names, got {len(bound)}")
            for b in bound:
                if not terms._IDENT.match(b):
                    raise TermError(f"{op}: bad binder name {b!r}")
            for scope in c.scopes:
                names = [bound[k] for k in scope]
                if len(set(names)) != len(names):
                    raise TermError(f"{op}: equal binder names scope the same argument")
            for a in args:
                old_validate(sig, a)


def old_print_term(t):
    match t:
        case Var(x):
            return x
        case App(op, bound, args):
            b = f"[{';'.join(bound)}]" if bound else ""
            if not args and not bound:
                return op
            return f"{op}{b}({', '.join(old_print_term(a) for a in args)})"
    raise TermError(f"not a term: {t!r}")


def old_is_prefix(sig, e, f):
    assignment = {}

    def go(e, f, env, fbound):
        match e:
            case Var(x):
                if x in env:
                    return isinstance(f, Var) and f.name == env[x]
                if not free_vars(sig, f).isdisjoint(fbound):
                    return False
                if x in assignment:
                    return alpha_eq(sig, assignment[x], f)
                assignment[x] = f
                return True
            case App(op, bound, args):
                if not isinstance(f, App) or f.op != op:
                    return False
                for i, scope in enumerate(sig[op].scopes):
                    env2 = dict(env)
                    fb2 = set(fbound)
                    for k in scope:
                        env2[bound[k]] = f.bound[k]
                        fb2.add(f.bound[k])
                    if not go(args[i], f.args[i], env2, fb2):
                        return False
                return True
        raise TermError(f"not a term: {e!r}")

    return go(e, f, {}, set())


def old_head_decompose(sig, t):
    if isinstance(t, Var):
        raise TermError("a variable has no head")
    fresh = count(1)
    sigma = {}

    def keep(t, above):
        match t:
            case Var(_):
                return t
            case App(op, bound, args):
                new_args = []
                for a, scope in zip(args, sig[op].scopes):
                    inner = above | {bound[k] for k in scope}
                    if not free_vars(sig, a).isdisjoint(inner):
                        new_args.append(keep(a, inner))
                    else:
                        x = f"X{next(fresh)}"
                        sigma[x] = old_canonical_binders(sig, a)
                        new_args.append(Var(x))
                return App(op, bound, tuple(new_args))
        raise TermError(f"not a term: {t!r}")

    return old_canonical_binders(sig, keep(t, set())), sigma


def old_respell_w(t, at, used, shift):
    """The respelling on its own post-order stack, before the fold."""
    ren = {f"_w{k}": f"_w{k + shift}" for k in range(at, at + used)}
    done = []
    todo = [(t, False)]
    while todo:
        u, ready = todo.pop()
        if isinstance(u, Var):
            nm = ren.get(u.name)
            done.append(u if nm is None else Var(nm))
        elif ready:
            cut = len(done) - len(u.args)
            args = tuple(done[cut:])
            del done[cut:]
            bound = tuple([ren.get(b, b) for b in u.bound])
            if bound == u.bound and all(a is b for a, b in zip(args, u.args)):
                done.append(u)
                continue
            done.append(App(u.op, bound, args))
        else:
            todo.append((u, True))
            todo.extend((a, False) for a in reversed(u.args))
    return done[0]


def scan_w_names(t):
    """The route's _w check before the memo: a scan of every name in t."""
    return frozenset(nm for nm in terms._names(t) if nm.startswith("_w"))


def fold_respell_w(t, at, used, shift):
    """The respelling on _map, a partial per node, before the flat loop."""
    names = {f"_w{k}": f"_w{k + shift}" for k in range(at, at + used)}
    ren = {old: Var(new) for old, new in names.items()}

    def build(u, *args):
        bound = tuple([names.get(b, b) for b in u.bound])
        if bound == u.bound and all(a is b for a, b in zip(args, u.args)):
            return u
        node = App(u.op, bound, args)
        if u._fv_memo is not None:
            sig, fv = u._fv_memo
            node._fv_memo = (sig, frozenset([names.get(n, n) for n in fv]))
        return node

    return _map(t, ren, lambda u, _: (partial(build, u), [_arg(a, ren) for a in u.args]))


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


def terms_over(sig, names=NAMES, leaves=LEAVES):
    nullary = [App(c.name, (), ()) for c in sig.constructs if c.args == 0]
    composite = [c for c in sig.constructs if c.args > 0]

    def node(c, sub):
        bound = st.tuples(*[st.sampled_from(names)] * len(c.slots)).filter(
            lambda b: _distinct_per_arg(c, b))
        return st.builds(lambda b, a: App(c.name, b, a), bound, st.tuples(*[sub] * c.args))

    return st.recursive(st.sampled_from([Var(x) for x in leaves] + nullary),
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
    assert _names(t) == old_all_names(t)
    assert canon_key(sig, t) == old_flat_key(old_canon_key(sig, t))
    assert canonical_binders(sig, t) == old_canonical_binders(sig, t)
    assert canonical_binders(sig, t, base="q") == old_canonical_binders(sig, t, base="q")


@given(case=SIG_TERM_AND_SUBST)
@settings(max_examples=200, deadline=None)
def test_substitute_matches(case):
    sig, t, sigma = case
    assert substitute(sig, t, sigma) == old_substitute(sig, t, sigma)
    capture = frozenset(NAMES[:2])
    assert _map(t, sigma, _avoiding(sig, capture)) == old_substitute(sig, t, sigma, capture)


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



# ------------- the translation memo -------------

# lam's image drops its bound name: a lam whose body uses it leaks the slot
LEAK = translation(LAM, LAM, dict(LAM_HEADS, lam=App("app", (), (Var("X1"), App("unit", (), ())))))
# an auxiliary image binder spelled _w over a plugged image where _w is free:
# freshening it picks the first of _w1, _w2, ... that the slot's _wN leaves
# free, which no respelling reproduces, so this route takes the plain path
W_AUX = translation(LAM, LAM, dict(
    LAM_HEADS,
    lam=App("let2", ("v", "_w"), (App("unit", (), ()), App("app", (), (Var("X1"), Var("_w"))))),
    unit=App("app", (), (Var("_w"), App("unit", (), ())))))
ROUTES = dict(TRANSLATIONS, leak=LEAK, w_aux=W_AUX)
TERMS_OF = dict({name: name for name in SIGS}, leak="lam", w_aux="lam")


def _outputs(route, calls):
    """The output or error message of each call, in order, on one route."""
    out = []
    for t in calls:
        try:
            out.append(route(t))
        except TermError as e:
            out.append(str(e))
    return out


@st.composite
def call_sequences(draw):
    """A route and a call sequence that repeats its terms."""
    name = draw(st.sampled_from(sorted(ROUTES)))
    pool = draw(st.lists(TERMS[TERMS_OF[name]], min_size=1, max_size=4))
    calls = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    keep = draw(st.sampled_from([frozenset(), frozenset(NAMES[:2]), frozenset({"_w1"})]))
    return ROUTES[name], keep, calls


@given(case=call_sequences())
@settings(max_examples=300, deadline=None)
def test_memo_matches_the_stateful_translation_on_call_sequences(case):
    tr, keep, calls = case
    assert (_outputs(complete_compositional(tr, keep), calls)
            == _outputs(old_complete_compositional(tr, keep), calls))


def test_memo_is_off_where_a_head_holds_a_w_name():
    t = App("lam", ("x",), (App("unit", (), ()),))
    got = _outputs(complete_compositional(W_AUX), [t] * 4)
    assert got == _outputs(old_complete_compositional(W_AUX), [t] * 4)
    assert [img.bound for img in got] == [("_w0", "_w1"), ("_w1", "_w2"), ("_w2", "_w1"),
                                          ("_w3", "_w1")]


def test_memo_keeps_the_counter_of_a_leaked_slot():
    # each ok consumes one fresh name, from the memo once it repeats; the
    # failing call consumes _w2 (lam), _w3 and _w4 (let2) before it raises
    ok = App("lam", ("x",), (Var("X"),))
    bad = App("lam", ("x",), (App("let2", ("a", "b"), (Var("x"), Var("a"))),))
    calls = [ok, ok, bad, ok, App("app", (), (ok, ok)), bad, ok]
    got = _outputs(complete_compositional(LEAK), calls)
    assert got == _outputs(old_complete_compositional(LEAK), calls)
    assert got[2] == "image of lam does not bind slot(s) ['_w2']"
    assert got[5] == "image of lam does not bind slot(s) ['_w8']"
    assert got[6] == App("app", (), (Var("X"), App("unit", (), ())))


def _both_routes_through_criterion_8(new, old):
    """check_compositional and is_fvr at the benchmark's caps on one route,
    each output compared with the stateful translation's; the calls made."""
    calls = []

    def both(t):
        got = new(t)
        assert got == old(t)
        calls.append(t)
        return got

    v = check_compositional(PI_TERM_SIG, API_TERM_SIG, both, 3, max_pairs=1000)
    w = is_fvr(PI_TERM_SIG, API_TERM_SIG, both, 3, max_terms=1000)
    assert (v.status, v.checked, v.note) == ("yes", 1000, "cap of 1000 pairs reached")
    assert (w.status, w.checked, w.note) == ("yes", 1000, "cap of 1000 terms reached")
    return calls


def test_memo_matches_on_the_criterion_8_call_sequence():
    tr = boudol_head_translation()
    calls = _both_routes_through_criterion_8(complete_compositional(tr),
                                             old_complete_compositional(tr))
    # 4,848 when T(E) and every range term were translated again for every pair
    assert len(calls) == 2066
    # a second route from the same head map starts afresh
    again = complete_compositional(tr)
    assert [again(t) for t in calls] == _outputs(old_complete_compositional(tr), calls)


def test_criterion_8_instantiates_few_heads(monkeypatch):
    # 12,676 head instantiations when every term was translated from scratch
    heads = []
    head = Translation.head

    def counted(self, op):
        heads.append(op)
        return head(self, op)

    monkeypatch.setattr(Translation, "head", counted)
    tr = boudol_head_translation()
    v = check_compositional(PI_TERM_SIG, API_TERM_SIG, complete_compositional(tr), 3,
                            max_pairs=1000)
    w = is_fvr(PI_TERM_SIG, API_TERM_SIG, complete_compositional(tr), 3, max_terms=1000)
    assert (v.status, v.checked, w.status, w.checked) == ("yes", 1000, "yes", 1000)
    assert 0 < len(heads) <= 2500


def test_criterion_8_scans_few_names(monkeypatch):
    # 2,078 scans when translate read every name of each term it was given
    # to find the _w ones; the _w memo of each node answers instead
    scans = []
    names = terms._names

    def counted(t):
        scans.append(t)
        return names(t)

    monkeypatch.setattr(terms, "_names", counted)
    tr = boudol_head_translation()
    v = check_compositional(PI_TERM_SIG, API_TERM_SIG, complete_compositional(tr), 3,
                            max_pairs=1000)
    w = is_fvr(PI_TERM_SIG, API_TERM_SIG, complete_compositional(tr), 3, max_terms=1000)
    assert (v.status, v.checked, w.status, w.checked) == ("yes", 1000, "yes", 1000)
    assert len(scans) <= 20


def test_memoized_images_die_with_their_route():
    # COUNT_HEADS bind nothing, so an image served from the memo is the
    # stored object itself
    route = complete_compositional(TRANSLATIONS["counters"])
    t = App("S", (), (App("two", (), (Var("X"),)),))
    first = route(t)
    assert route(t) == first and route(t) is route(t)
    ref = weakref.ref(route(t))
    del route, first
    gc.collect()
    assert ref() is None


def test_the_head_map_route_takes_a_deep_term():
    # a memo keyed by the terms' structure hashes each argument's whole
    # subtree, recursively: that failed from 500 prefixes, where translating
    # from scratch takes 900
    p = parse_pi("x!a." * 800 + "0")
    out = boudol_encoding().translate_via_heads(p)
    assert is_async(out) and print_pi(out).count("new") == 800
    # the third call on one route respells the image memoized by the second:
    # a recursive respelling, or one that left the free-variable memos
    # empty, failed on this chain, which translating from scratch takes
    route = complete_compositional(boudol_head_translation())
    t = pi_to_term(parse_pi("x(y)." * 600 + "y!a.0"))
    texts = [print_pi(term_to_pi(route(t))) for _ in range(3)]
    assert texts[1].count("_w") == 601
    assert texts[2] == re.sub(r"_w([0-9]+)", lambda m: f"_w{int(m.group(1)) + 600}", texts[1])


# ------------- head plans -------------

BOUDOL = boudol_head_translation()
NIL = App("Nil", (), ())


def _planned(monkeypatch):
    """Counts of the head instantiations made and of those built from a plan."""
    counts = {"heads": 0, "planned": 0}
    head, run = Translation.head, terms._run_plan

    def counted_head(self, op):
        counts["heads"] += 1
        return head(self, op)

    def counted_run(*args):
        counts["planned"] += 1
        return run(*args)

    monkeypatch.setattr(Translation, "head", counted_head)
    monkeypatch.setattr(terms, "_run_plan", counted_run)
    return counts


def _same_route(tr, calls, keep=frozenset()):
    """The outputs of a new route, which must equal the stateful translation's."""
    got = _outputs(complete_compositional(tr, keep), calls)
    assert got == _outputs(old_complete_compositional(tr, keep), calls)
    return got


def test_an_argument_name_an_auxiliary_binder_captures_takes_the_substitution_path(monkeypatch):
    # Out's image binds u over its three plugs and v over the last two; In's
    # binds u over both and v over the second
    counts = _planned(monkeypatch)
    _same_route(BOUDOL, [App("Out", (), (Var("a"), Var("b"), NIL))])
    assert counts["heads"] == counts["planned"] == 2
    out_u = App("Out", (), (Var("a"), Var("b"), App("Out", (), (Var("u"), Var("c"), NIL))))
    out_v = App("Out", (), (Var("a"), Var("v"), NIL))
    in_v = App("In", ("y",), (Var("a"), App("Out", (), (Var("y"), Var("v"), NIL))))
    for t, renamed in ((out_u, "u1"), (out_v, "v1"), (in_v, "v1")):
        counts.update(heads=0, planned=0)
        (image,) = _same_route(BOUDOL, [t])
        assert counts["planned"] < counts["heads"]
        assert renamed in _names(image)


def test_criterion_8_builds_every_head_from_its_plan(monkeypatch):
    counts = _planned(monkeypatch)
    v = check_compositional(PI_TERM_SIG, API_TERM_SIG, complete_compositional(BOUDOL), 3,
                            max_pairs=1000)
    w = is_fvr(PI_TERM_SIG, API_TERM_SIG, complete_compositional(BOUDOL), 3, max_terms=1000)
    assert (v.status, v.checked, w.status, w.checked) == ("yes", 1000, "yes", 1000)
    assert counts["heads"] == counts["planned"] > 0
    # u, free in the second argument, is bound by Out's image: Out falls back
    counts.update(heads=0, planned=0)
    complete_compositional(BOUDOL)(App("Out", (), (Var("a"), Var("u"), NIL)))
    assert (counts["heads"], counts["planned"]) == (2, 1)


# a head map of the process signature into itself whose In image binds its
# slot label y over a plugged argument and over an occurrence of y
ECHO = translation(PI_TERM_SIG, PI_TERM_SIG, {
    "Nil": NIL, "Out": App("Out", (), (Var("X1"), Var("X2"), Var("X3"))),
    "In": App("In", ("y",), (Var("X1"), App("Par", (), (
        App("Out", (), (Var("y"), Var("y"), NIL)), Var("X2"))))),
    "Par": App("Par", (), (Var("X1"), Var("X2"))), "Res": App("Res", ("x",), (Var("X1"),)),
    "Repl": App("Repl", (), (Var("X1"),)),
})


def test_kept_binders_through_composition_match(monkeypatch):
    counts = _planned(monkeypatch)
    for tr in (ECHO, TRANSLATIONS["counters"]):
        composed = compose_translations(tr, tr)
        images = dict(composed.heads)
        for op, img in tr.heads:
            keep = frozenset(tr.source[op].slots)
            assert images[op] == old_complete_compositional(tr, keep_binders=keep)(img)
        _same_route(composed, list(islice(enumerate_terms(tr.source, 3), 300)))
    assert dict(compose_translations(ECHO, ECHO).heads)["In"].bound == ("y",)
    assert counts["heads"] == counts["planned"] > 0
    # let2's image binds b and a where the source binds a and b: kept, they
    # spell one slot with the other's label, and fall back
    counts.update(heads=0, planned=0)
    keep = frozenset(LAM["let2"].slots)
    (image,) = _same_route(TRANSLATIONS["lam"], [LAM_HEADS["let2"]], keep)
    assert image.bound == ("a", "b")
    assert (counts["heads"], counts["planned"]) == (2, 1)


def test_a_head_binding_a_w_name_takes_the_substitution_path(monkeypatch):
    assert terms._head_plan(LAM["lam"], LAM, W_AUX.head("lam")) is None
    # a free _w is read like any free name
    assert terms._head_plan(LAM["unit"], LAM, W_AUX.head("unit")) is not None
    counts = _planned(monkeypatch)
    _same_route(W_AUX, [App("lam", ("x",), (App("unit", (), ()),))] * 2)
    assert (counts["heads"], counts["planned"]) == (4, 2)


def test_an_image_binder_spelled_like_a_placeholder_takes_the_substitution_path(monkeypatch):
    # lam's image binds X1 over X1, so the argument's image is never plugged
    image = App("lam", ("X1",), (App("app", (), (Var("X1"), App("unit", (), ()))),))
    tr = translation(LAM, LAM, dict(LAM_HEADS, lam=image))
    assert terms._head_plan(LAM["lam"], LAM, image) is None
    counts = _planned(monkeypatch)
    t = App("lam", ("x",), (App("app", (), (Var("x"), Var("X"))),))
    assert _same_route(tr, [t]) == [image]
    assert (counts["heads"], counts["planned"]) == (2, 1)


@pytest.mark.parametrize("image", [
    # a slot-labelled binder inside another: each occurrence takes the nearer
    App("lam", ("v",), (App("app", (), (App("lam", ("v",), (App("app", (), (
        Var("X1"), Var("v"))),)), Var("v"))),)),
    # a slot label occurring free stays as it is
    App("app", (), (Var("v"), App("lam", ("v",), (Var("X1"),)))),
], ids=["nested", "free"])
def test_slot_labels_nested_or_free_are_built_from_the_plan(monkeypatch, image):
    tr = translation(LAM, LAM, dict(LAM_HEADS, lam=image))
    calls = list(islice(enumerate_terms(LAM, 3), 400))
    counts = _planned(monkeypatch)
    for keep in (frozenset(), frozenset({"z1"}), frozenset({"v"})):
        _same_route(tr, calls, keep)
    assert counts["heads"] == counts["planned"] > 0


def test_a_kept_name_spelled_like_a_respelled_slot_label_takes_the_substitution_path(
        monkeypatch):
    # two's image binds p, then q over an occurrence of p.  A source two[q;z]
    # with q kept spells slot p as q, and respelling the occurrence of p
    # to q puts it under the binder of q, which is respelled _w0 with it
    tr = translation(SWAP, SWAP, dict(SWAP_HEADS, two=App("two", ("p", "c"), (
        App("two", ("q", "c"), (Var("p"), Var("X1"))), Var("X2")))))
    t = App("two", ("q", "z"), (Var("X"), Var("Y")))
    counts = _planned(monkeypatch)
    assert _same_route(tr, [t], frozenset({"q"})) == [App("two", ("q", "c"), (
        App("two", ("_w0", "c"), (Var("_w0"), Var("X"))), Var("Y")))]
    assert (counts["heads"], counts["planned"]) == (1, 0)
    assert _same_route(tr, [t]) == [App("two", ("_w0", "c"), (
        App("two", ("_w1", "c"), (Var("_w0"), Var("X"))), Var("Y")))]
    assert (counts["heads"], counts["planned"]) == (2, 1)


def test_a_kept_name_spelled_like_a_placeholder_takes_the_substitution_path(monkeypatch):
    # lam's image binds slot v over X1: kept, a source binder X1 spells that
    # binder X1, which shadows the placeholder, so the body is never plugged
    counts = _planned(monkeypatch)
    t = App("lam", ("X1",), (Var("Y"),))
    assert _same_route(TRANSLATIONS["lam"], [t], frozenset({"X1"})) == [App("let2", ("X1", "w"), (
        App("unit", (), ()), App("app", (), (Var("X1"), Var("w")))))]
    assert (counts["heads"], counts["planned"]) == (1, 0)


def test_a_leaked_slot_raises_from_the_plan(monkeypatch):
    counts = _planned(monkeypatch)
    bad = App("lam", ("x",), (App("let2", ("a", "b"), (Var("x"), Var("a"))),))
    assert _same_route(LEAK, [bad]) == ["image of lam does not bind slot(s) ['_w0']"]
    assert counts["heads"] == counts["planned"] == 2


# binder names of the source terms and images below: slot labels of LAM and
# SWAP, auxiliary names, a placeholder and a _w name, so that kept names meet
# image binders
HEAD_NAMES = ("x", "a", "b", "p", "q", "v", "u", "c", "X1", "_w1")


def _terms_binding(sig, names, leaves, max_leaves):
    nullary = [App(c.name, (), ()) for c in sig.constructs if c.args == 0]

    def node(c, sub):
        bound = st.tuples(*[st.sampled_from(names)] * len(c.slots)).filter(
            lambda b: _distinct_per_arg(c, b))
        return st.builds(lambda b, a: App(c.name, b, a), bound, st.tuples(*[sub] * c.args))

    composite = [c for c in sig.constructs if c.args]
    return st.recursive(st.sampled_from(leaves + nullary),
                        lambda sub: st.one_of([node(c, sub) for c in composite]),
                        max_leaves=max_leaves)


def _head_images(sig):
    return {c.name: _terms_binding(sig, HEAD_NAMES, [Var(f"X{i + 1}") for i in range(c.args)]
                                   + [Var(x) for x in HEAD_NAMES + ("X9",)], 6)
            for c in sig.constructs}


HEAD_IMAGES = {sig.name: _head_images(sig) for sig in (LAM, SWAP)}
HEAD_SOURCES = {sig.name: _terms_binding(sig, HEAD_NAMES,
                                         [Var(x) for x in ("X", "x", "u", "a", "c")], 8)
                for sig in (LAM, SWAP)}


@st.composite
def head_maps(draw):
    """A random head map of LAM or SWAP into itself, some source terms and a
    set of kept names."""
    sig = draw(st.sampled_from([LAM, SWAP]))
    heads = {op: draw(images) for op, images in HEAD_IMAGES[sig.name].items()}
    calls = draw(st.lists(HEAD_SOURCES[sig.name], min_size=1, max_size=3))
    return translation(sig, sig, heads), calls, draw(st.frozensets(st.sampled_from(HEAD_NAMES)))


@given(case=head_maps())
@settings(max_examples=300, deadline=None)
def test_plans_match_the_substitution_path_on_random_head_maps(case):
    tr, calls, keep = case
    _same_route(tr, calls, keep)


# ------------- the free variables a plan sets on its image -------------

def _rebuilt(t):
    """t from fresh nodes, which hold no memo."""
    return t if isinstance(t, Var) else App(t.op, t.bound, tuple(map(_rebuilt, t.args)))


def _memos_hold(tr, calls, keep=frozenset()):
    """Translate calls on a new route: every node a plan builds, and every
    image returned that carries a free-variable memo, carries the free
    variables of its rebuild under the target.  Gives the number of nodes
    the plans built."""
    built, returned = [], []
    run = terms._run_plan

    def recorded(plan, w, images):
        out = run(plan, w, images)
        if plan.steps[-1][0] == terms._NODE:
            built.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(terms, "_run_plan", recorded)
        route = complete_compositional(tr, keep)
        for t in calls:
            try:
                image = route(t)
            except TermError:
                continue
            if isinstance(image, App) and image._fv_memo is not None:
                returned.append(image)
    for u in built + returned:
        assert u._fv_memo[0] is tr.target
        assert u._fv_memo == (tr.target, terms._fv(tr.target, _rebuilt(u)))
    return len(built)


@given(case=head_maps())
@settings(max_examples=300, deadline=None)
def test_plan_memos_match_a_rebuild_on_random_head_maps(case):
    tr, calls, keep = case
    _memos_hold(tr, calls, keep)


def test_plan_memos_match_a_rebuild_on_the_criterion_8_pool():
    assert _memos_hold(BOUDOL, list(islice(enumerate_terms(PI_TERM_SIG, 3), 1000))) > 1000


def test_plan_memos_leave_out_what_a_slot_or_an_auxiliary_binder_captures(monkeypatch):
    # lam's image leaves c free under slot v: a kept source binder c spells
    # v as c, which captures it
    tr = translation(LAM, LAM, dict(LAM_HEADS, lam=App("lam", ("v",), (
        App("app", (), (Var("X1"), Var("c"))),))))
    t = App("lam", ("c",), (Var("X"),))
    counts = _planned(monkeypatch)
    assert _same_route(tr, [t], frozenset({"c"})) == [App("lam", ("c",), (
        App("app", (), (Var("X"), Var("c"))),))]
    assert _same_route(tr, [t]) == [App("lam", ("_w0",), (
        App("app", (), (Var("X"), Var("c"))),))]
    assert counts["heads"] == counts["planned"] == 2
    assert _memos_hold(tr, [t], frozenset({"c"})) == _memos_hold(tr, [t]) == 1
    assert complete_compositional(tr, frozenset({"c"}))(t)._fv_memo == (LAM, {"X"})
    assert complete_compositional(tr)(t)._fv_memo == (LAM, {"X", "c"})
    # In's image binds u on the node above X1 but not over it: a kept source
    # binder u, free in the channel, is neither renamed nor captured, so the
    # plan leaks the slot as the substitution path does
    t = App("In", ("u",), (Var("u"), NIL))
    counts.update(heads=0, planned=0)
    assert _same_route(BOUDOL, [t], frozenset({"u"})) == [
        "image of In does not bind slot(s) ['u']"]
    assert counts["heads"] == counts["planned"] == 2
    assert _memos_hold(BOUDOL, [t], frozenset({"u"})) == 1


def test_plan_built_images_carry_their_free_variables():
    """is_fvr and the leak check read an image's free variables from its
    memo: each image the Boudol head map's plans build carries it when the
    route returns it."""
    route = complete_compositional(BOUDOL)
    for t in islice(enumerate_terms(PI_TERM_SIG, 3), 1000):
        image = route(t)
        if isinstance(t, App) and t.op != "Nil":
            assert image._fv_memo is not None and image._fv_memo[0] is API_TERM_SIG


# ------------- criterion 8: each term translated once per call -------------

def old_check_compositional(sig_src, sig_tgt, translate, depth, max_pairs=10000):
    """check_compositional as it was: T(E) and every range term translated
    again for every pair."""
    if depth < 1:
        raise TermError("depth must be >= 1")
    for x in ("X", "Y"):
        got = translate(Var(x))
        if got != Var(x):
            return Verdict("no", ("clause-3", Var(x), got))
    ranges = list(enumerate_terms(sig_src, max(depth - 1, 1)))
    checked = 0
    for e in enumerate_terms(sig_src, depth):
        variant = canonical_binders(sig_src, e, base="q")
        if not alpha_eq(sig_tgt, translate(e), translate(variant)):
            return Verdict("no", ("clause-2", e, variant), checked=checked)
        fv = sorted(free_vars(sig_src, e))
        if not fv:
            domains = [{}]
        else:
            domains = ({x: r for x, r in zip(fv, combo)}
                       for combo in product(ranges, repeat=len(fv)))
        for sigma in domains:
            lhs = translate(substitute(sig_src, e, sigma))
            rhs = substitute(sig_tgt, translate(e), {x: translate(r) for x, r in sigma.items()})
            if not alpha_eq(sig_tgt, lhs, rhs):
                return Verdict("no", (e, sigma, lhs, rhs), checked=checked)
            checked += 1
            if checked >= max_pairs:
                return Verdict("yes", note=f"cap of {max_pairs} pairs reached", checked=checked)
    return Verdict("yes", note=f"exhausted to depth {depth}", checked=checked)


def _criterion_8_run(check, sig_src, sig_tgt, make_route, depth, cap):
    """The verdict, or the message of the TermError raised, with the distinct
    terms translated in the order they were first translated: a fresh route
    from make_route, so that both runs start at one counter."""
    route, inputs = make_route(), []

    def recorded(t):
        inputs.append(t)
        return route(t)

    try:
        got = check(sig_src, sig_tgt, recorded, depth, max_pairs=cap)
    except TermError as e:
        got = str(e)
    return got, list(dict.fromkeys(inputs))


def _same_as_per_pair(sig_src, sig_tgt, make_route, depth, cap):
    """check_compositional against its per-pair oracle: the same terms
    translated first in the same order, so the same pair, and the same
    verdict, lhs and rhs up to alpha (their _wN spellings depend on how
    often the route ran), or the same error up to its _wN names."""
    new, new_inputs = _criterion_8_run(check_compositional, sig_src, sig_tgt, make_route,
                                       depth, cap)
    old, old_inputs = _criterion_8_run(old_check_compositional, sig_src, sig_tgt, make_route,
                                       depth, cap)
    assert new_inputs == old_inputs
    if isinstance(old, str):
        assert isinstance(new, str)
        assert re.sub(r"_w[0-9]+", "_w", new) == re.sub(r"_w[0-9]+", "_w", old)
        return old
    assert (new.status, new.checked, new.note) == (old.status, old.checked, old.note)
    if new.status == "no" and new.witness[0] not in ("clause-2", "clause-3"):
        e, sigma, lhs, rhs = new.witness
        assert (e, sigma) == old.witness[:2]
        assert alpha_eq(sig_tgt, lhs, old.witness[2]) and alpha_eq(sig_tgt, rhs, old.witness[3])
    else:
        assert new.witness == old.witness
    return old


@pytest.mark.parametrize("cap", [1, 30, 1000, 10000])
def test_criterion_8_matches_the_per_pair_loop_on_the_boudol_head_map(cap):
    v = _same_as_per_pair(PI_TERM_SIG, API_TERM_SIG,
                          lambda: complete_compositional(boudol_head_translation()), 3, cap)
    assert (v.status, v.checked) == ("yes", cap)


def test_criterion_8_matches_the_per_pair_loop_on_small_maps():
    src, tgt = counters_signatures()
    v = _same_as_per_pair(src, tgt, lambda: counters_norm, 3, 10000)
    assert (v.status, v.checked) == ("no", 16)

    def toy():
        return complete_compositional(translation(TOY, TOY, TOY_HEADS))

    for depth, cap in ((2, 10000), (3, 2000)):
        v = _same_as_per_pair(TOY, TOY, toy, depth, cap)
        assert v.status == "yes" and v.checked > 0
    v = _same_as_per_pair(TOY, TOY, lambda: lambda t: App("Nil", (), ()), 2, 10000)
    assert v.witness[0] == "clause-3"

    def binder_leak():  # spells In's bound name free, so alpha-variants differ
        return lambda t: Var(t.bound[0]) if isinstance(t, App) and t.bound else t

    v = _same_as_per_pair(TOY, TOY, binder_leak, 2, 10000)
    assert v.witness[0] == "clause-2" and v.witness[1].op == "In"


@pytest.mark.parametrize("at", [2, 10, -1])
def test_criterion_8_raises_where_the_per_pair_loop_raises(at):
    # a translate that raises on one range term raises at the first pair
    # that holds it, with the same terms translated before
    bad = list(enumerate_terms(PI_TERM_SIG, 2))[at]

    def make_route():
        route = complete_compositional(boudol_head_translation())

        def raising(t):
            if t == bad:
                raise TermError(f"no image for {print_term(t)}")
            return route(t)
        return raising

    got = _same_as_per_pair(PI_TERM_SIG, API_TERM_SIG, make_route, 3, 10000)
    assert got == f"no image for {print_term(bad)}"


@given(case=head_maps())
@settings(max_examples=60, deadline=None)
def test_criterion_8_matches_the_per_pair_loop_on_random_head_maps(case):
    tr, _, _ = case
    for depth, cap in ((2, 10000), (3, 300)):
        _same_as_per_pair(tr.source, tr.target, lambda: complete_compositional(tr), depth, cap)


def _monotone_in_the_cap(check, sig_src, sig_tgt, make_route, depth, cap):
    """A "no", an error or an exhausted pool at cap b is check's answer at 2b
    and 10b, witness and count included; a capped "yes" went through b cases,
    and a larger cap goes through at least as many.  Each run on a fresh
    route from make_route, so that every run starts at one counter."""
    first, *larger = [_outcome(check, sig_src, sig_tgt, make_route(), depth, b)
                      for b in (cap, 2 * cap, 10 * cap)]
    if isinstance(first, str) or first.status == "no" or first.note.startswith("exhausted"):
        assert larger == [first, first]
    else:
        assert (first.status, first.checked) == ("yes", cap)
        assert first.note.startswith("cap of")
        assert all(isinstance(v, str) or v.checked >= cap for v in larger)
    return first


@given(case=head_maps(), cap=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_criterion_8_answers_are_monotone_in_the_cap_on_random_head_maps(case, cap):
    tr, _, _ = case
    for check in (check_compositional, is_fvr):
        for depth in (1, 2, 3):
            _monotone_in_the_cap(check, tr.source, tr.target, lambda: complete_compositional(tr),
                                 depth, cap)


@pytest.mark.parametrize("cap", [1, 5, 16, 17, 100])
def test_criterion_8_answers_are_monotone_in_the_cap_on_the_counters_map(cap):
    src, tgt = counters_signatures()
    v = _monotone_in_the_cap(check_compositional, src, tgt, lambda: counters_norm, 3, cap)
    assert (v.status, v.checked) == (("yes", cap) if cap < 17 else ("no", 16))
    _monotone_in_the_cap(is_fvr, src, tgt, lambda: counters_norm, 3, cap)


# ------------- the memos on App nodes -------------

# one construct name, two binding profiles: f's slot a scopes its first
# argument under A_FIRST and its second under A_SECOND, so a node's free
# variables depend on the signature it is read under
A_FIRST = Signature("first", (Construct("f", 2, (("a",), ())), Construct("g", 2, ((), ()))))
A_SECOND = Signature("second", (Construct("f", 2, ((), ("a",))), Construct("g", 2, ((), ()))))


def _memo_term():
    return App("g", (), (App("f", ("y",), (Var("y"), Var("X"))), Var("Z")))


def test_free_variable_memo_is_kept_apart_per_signature():
    t = _memo_term()
    fresh = _memo_term()
    sigma = {"y": App("f", ("x",), (Var("X"), Var("x"))), "X": Var("y")}
    for _ in range(2):  # the second round finds both signatures' memos filled
        for sig in (A_FIRST, A_SECOND, A_FIRST):
            assert free_vars(sig, t) == old_free_vars(sig, fresh)
            assert substitute(sig, t, sigma) == old_substitute(sig, fresh, sigma)
            assert canonical_binders(sig, t) == old_canonical_binders(sig, fresh)
    assert free_vars(A_FIRST, t) == {"X", "Z"}
    assert free_vars(A_SECOND, t) == {"X", "Z", "y"}
    assert substitute(A_FIRST, t, sigma) != substitute(A_SECOND, t, sigma)
    assert _names(t) == {"X", "Z", "y"}
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert repr(t) == ("App(op='g', bound=(), args=(App(op='f', bound=('y',), "
                       "args=(Var(name='y'), Var(name='X'))), Var(name='Z')))")
    match t:
        case App(op, bound, args):
            assert (op, bound, args) == ("g", (), fresh.args)


def test_returned_name_sets_do_not_alias_a_memo():
    t = _memo_term()
    first = free_vars(A_SECOND, t)
    want = set(first)
    first.add("z")
    first.discard("X")
    assert free_vars(A_SECOND, t) == want
    # the name memo itself is returned, and cannot be changed
    assert _names(t) is _names(t) and isinstance(_names(t), frozenset)


def test_memoized_walks_skip_repeated_work(monkeypatch):
    lookups = []
    plain_getitem = Signature.__getitem__

    def counted(self, op):
        lookups.append(op)
        return plain_getitem(self, op)

    monkeypatch.setattr(Signature, "__getitem__", counted)
    t = _memo_term()
    assert free_vars(A_FIRST, t) == {"X", "Z"}
    assert lookups
    lookups.clear()
    assert free_vars(A_FIRST, t) == {"X", "Z"}
    assert lookups == []
    # a substitution whose domain misses fv(t) returns t itself
    assert substitute(A_FIRST, t, {"y": Var("W"), "a": Var("X")}) is t
    assert substitute(A_FIRST, t, {}) is t
    assert lookups == []
    assert _rename_slot_binders(A_FIRST, t, {}) is t
    assert _rename_slot_binders(A_FIRST, t, {"q": "r"}) is t
    assert lookups == []


# ------------- alpha-equivalence in one walk -------------

def _graft(sig, t, shared, ren, env=None):
    """t with each X replaced by the object shared, and each binder b of t
    spelled ren[b] along with its bound occurrences; shared is not respelled."""
    env = env or {}
    match t:
        case Var("X"):
            return shared
        case Var(x):
            return Var(env.get(x, x))
        case App(op, bound, args):
            return App(op, tuple(ren[b] for b in bound), tuple(
                _graft(sig, a, shared, ren, {**env, **{bound[k]: ren[bound[k]] for k in scope}})
                for a, scope in zip(args, sig[op].scopes)))


@st.composite
def shared_pairs(draw):
    """Two graftings of one subterm object into one skeleton, the second with
    its binders respelled by a permutation of the binder names, so the shared
    subterm's free names are bound on both sides, on one side, or on none."""
    name = draw(st.sampled_from(sorted(SIGS)))
    skeleton, shared = draw(TERMS[name]), draw(TERMS[name])
    ren = dict(zip(NAMES, draw(st.permutations(NAMES))))
    same = dict(zip(NAMES, NAMES))
    sig = SIGS[name]
    return sig, _graft(sig, skeleton, shared, same), _graft(sig, skeleton, shared, ren)


@given(case=shared_pairs())
@settings(max_examples=300, deadline=None)
def test_alpha_eq_matches_the_canon_key_comparison_on_shared_subterms(case):
    sig, t, u = case
    assert alpha_eq(sig, t, u) == old_alpha_eq(sig, t, u)
    assert alpha_eq(sig, u, t) == old_alpha_eq(sig, u, t)
    assert alpha_eq(sig, t, t) and alpha_eq(sig, u, u)


@given(case=st.one_of(*(st.tuples(st.just(SIGS[name]), TERMS[name], TERMS[name])
                        for name in SIGS)))
@settings(max_examples=200, deadline=None)
def test_alpha_eq_matches_the_canon_key_comparison(case):
    sig, t, u = case
    assert alpha_eq(sig, t, u) == old_alpha_eq(sig, t, u)
    v = canonical_binders(sig, t, base="q")
    assert alpha_eq(sig, t, v) and old_alpha_eq(sig, t, v)


def test_a_shared_subterm_counts_only_where_its_free_names_agree():
    s = App("Out", (), (Var("x"), Var("b"), App("Nil", (), ())))
    cases = [
        # x bound on both sides at one position; the In binders differ, so
        # the two sides' maps differ and the shared Out's free names are read
        (App("Res", ("x",), (App("In", ("y",), (Var("a"), s)),)),
         App("Res", ("x",), (App("In", ("z",), (Var("a"), s)),)), True),
        # x bound on one side only
        (App("Res", ("x",), (s,)), App("Res", ("w",), (s,)), False),
        # x bound on both sides, at different positions
        (App("Res", ("x",), (App("Res", ("v",), (s,)),)),
         App("Res", ("v",), (App("Res", ("x",), (s,)),)), False),
    ]
    for t, u, want in cases:
        for left, right in ((t, u), (u, t)):
            assert alpha_eq(PI_TERM_SIG, left, right) == want
            assert old_alpha_eq(PI_TERM_SIG, left, right) == want


def test_alpha_eq_matches_on_the_criterion_8_comparisons(monkeypatch):
    answers = []

    def both(sig, t, u, subst=None):
        got = alpha_eq(sig, t, u, subst)
        answers.append((got, old_alpha_eq(sig, t, substitute(sig, u, subst) if subst else u)))
        return got

    monkeypatch.setattr(terms, "alpha_eq", both)
    route = complete_compositional(boudol_head_translation())
    v = check_compositional(PI_TERM_SIG, API_TERM_SIG, route, 3, max_pairs=1000)
    assert (v.status, v.checked) == ("yes", 1000)
    assert len(answers) == 1005 and all(got == want for got, want in answers)


def _chain(n, spell, leaf):
    """In[y](a, Out(y, b, ...)) n times over leaf, the i-th binder spelled spell(i)."""
    for i in range(n):
        y = spell(i)
        leaf = App("In", (y,), (Var("a"), App("Out", (), (Var(y), Var("b"), leaf))))
    return leaf


@pytest.mark.parametrize("n", [500, 2000])
def test_alpha_eq_answers_on_deep_terms(n):
    # the comparison of two canonical keys recursed once per node: it failed
    # from 500 pairs
    t = _chain(n, lambda i: "y", Var("c"))
    assert alpha_eq(PI_TERM_SIG, t, _chain(n, lambda i: f"y{i}", Var("c")))
    assert not alpha_eq(PI_TERM_SIG, t, _chain(n, lambda i: f"y{i}", Var("d")))
    assert not alpha_eq(PI_TERM_SIG, t, _chain(n, lambda i: "y", App("Nil", (), ())))
    # a term against itself is one step: no free variables are read
    assert alpha_eq(PI_TERM_SIG, t, t) and t._fv_memo is None
    # one chain shared under two spellings of an outer binder p: its free
    # variables are read, to any depth
    for leaf, same in ((Var("c"), True), (Var("p"), False)):
        inner = _chain(n, lambda i: "y", leaf)
        got = alpha_eq(PI_TERM_SIG, _chain(1, lambda i: "p", inner),
                       _chain(1, lambda i: "q", inner))
        assert got == same
        assert free_vars(PI_TERM_SIG, inner) == {"a", "b", leaf.name}


# ------------- alpha-equivalence under a substitution -------------

SUBST_SIGS = {"lam": LAM, "pi": PI_TERM_SIG, "api": API_TERM_SIG}
SUBST_TERMS = {"lam": TERMS["lam"], "pi": TERMS["pi"], "api": terms_over(API_TERM_SIG)}


@st.composite
def subst_cases(draw):
    """A term u, a substitution s whose replacements may hold u's binder
    names free, and a term t: u[s], its canonical binders, u[s] built letting
    u's binders capture, so that a replacement object sits where t binds its
    names, u under another substitution, or any term."""
    sig, terms_over_sig = draw(st.sampled_from(
        [(SUBST_SIGS[name], SUBST_TERMS[name]) for name in sorted(SUBST_SIGS)]))
    substs = st.dictionaries(st.sampled_from(LEAVES + NAMES), terms_over_sig, max_size=3)
    u, s = draw(terms_over_sig), draw(substs)
    image = substitute(sig, u, s)
    t = draw(st.sampled_from([
        image, canonical_binders(sig, image, base="q"),
        _map(u, s, _avoiding(sig, frozenset(NAMES))),
        substitute(sig, u, draw(substs)), draw(terms_over_sig)]))
    return sig, t, u, s


@given(case=subst_cases())
@settings(max_examples=500, deadline=None)
def test_alpha_eq_under_a_substitution_matches_the_built_image(case):
    sig, t, u, s = case
    image = substitute(sig, u, s)
    assert alpha_eq(sig, t, u, s) == alpha_eq(sig, t, image) == old_alpha_eq(sig, t, image)
    assert alpha_eq(sig, u, t, s) == alpha_eq(sig, u, substitute(sig, t, s))
    assert alpha_eq(sig, image, u, s)
    assert alpha_eq(sig, canonical_binders(sig, image), u, s)
    # no substitution is the comparison without one
    assert alpha_eq(sig, t, u, {}) == alpha_eq(sig, t, u, None) == alpha_eq(sig, t, u)


def _lam(b, body):
    return App("lam", (b,), (body,))


def _app(f, a):
    return App("app", (), (f, a))


X_, Y_, x_, y_, z_ = (Var(n) for n in ("X", "Y", "x", "y", "z"))
SHARED = _app(y_, y_)


@pytest.mark.parametrize("t, u, s, want", [
    # u's binder y is free in the replacement, so u[s] respells it
    (_lam("z", _app(y_, z_)), _lam("y", _app(X_, y_)), {"X": y_}, True),
    (_lam("y", _app(y_, y_)), _lam("y", _app(X_, y_)), {"X": y_}, False),
    # t binds a name the replacement holds free
    (_lam("y", _app(y_, y_)), _lam("z", _app(X_, z_)), {"X": y_}, False),
    # the replacement is the object on t's side: one step where t binds none
    # of its names, read where t binds y
    (_lam("z", SHARED), _lam("z", X_), {"X": SHARED}, True),
    (_lam("y", SHARED), _lam("z", X_), {"X": SHARED}, False),
    # x in dom(s) is bound by u, so it is not replaced
    (_lam("x", _app(x_, z_)), _lam("x", _app(x_, z_)), {"x": y_}, True),
    (_lam("x", _app(y_, z_)), _lam("x", _app(x_, z_)), {"x": y_}, False),
    # x |-> x changes nothing
    (_lam("y", _app(X_, y_)), _lam("z", _app(X_, z_)), {"X": X_}, True),
    # simultaneous: a replacement is not substituted again
    (_app(Y_, X_), _app(X_, Y_), {"X": Y_, "Y": X_}, True),
    (_app(X_, Y_), _app(X_, Y_), {"X": Y_, "Y": X_}, False),
])
def test_alpha_eq_under_a_substitution_avoids_capture(t, u, s, want):
    assert alpha_eq(LAM, t, u, s) == want
    assert alpha_eq(LAM, t, substitute(LAM, u, s)) == want


def test_alpha_eq_under_a_substitution_answers_on_deep_terms():
    # the variable replaced sits under 20,000 binders of u; replaced by y,
    # every one of them is respelled in u[s]
    u = _chain(20000, lambda i: "y", Var("X"))
    for leaf, want in ((Var("c"), True), (Var("y"), False)):
        t, s = _chain(20000, lambda i: "y", leaf), {"X": leaf}
        assert alpha_eq(PI_TERM_SIG, t, u, s) == want
        assert alpha_eq(PI_TERM_SIG, t, substitute(PI_TERM_SIG, u, s)) == want


def _flat(key):
    """A key's atoms and tuple lengths in pre-order, read on a stack: == on
    two deep keys recurses in the interpreter."""
    out, todo = [], [key]
    while todo:
        k = todo.pop()
        if isinstance(k, tuple):
            out.append(("len", len(k)))
            todo.extend(reversed(k))
        else:
            out.append(k)
    return out


def test_canon_key_answers_on_deep_terms():
    # the recursive key failed from 500 pairs
    assert (canon_key(PI_TERM_SIG, _chain(50, lambda i: f"y{i}", Var("c")))
            == old_flat_key(old_canon_key(PI_TERM_SIG, _chain(50, lambda i: "y", Var("c")))))
    key = _flat(canon_key(PI_TERM_SIG, _chain(2000, lambda i: "y", Var("c"))))
    assert key == _flat(canon_key(PI_TERM_SIG, _chain(2000, lambda i: f"y{i}", Var("c"))))
    assert key != _flat(canon_key(PI_TERM_SIG, _chain(2000, lambda i: "y", Var("d"))))
    # one binder position per In, the innermost at 1999
    assert 1999 in key and 2000 not in key


def test_deep_canon_keys_compare_and_hash():
    # a nested key of 2,000 pairs raised RecursionError under ==, and a set
    # of such keys on any hash collision; a flat key is one tuple of tokens
    key = canon_key(PI_TERM_SIG, _chain(20000, lambda i: "y", Var("c")))
    same = canon_key(PI_TERM_SIG, _chain(20000, lambda i: "z", Var("c")))
    other = key[:-1] + (("f", "d"),)  # the key of the chain over d
    assert key == same and key != other
    assert len({key, same, other}) == 2 and same in {key}
    assert len(key) == 5 * 20000 + 1  # In, a, Out, the bound y and b per pair, then c


# ------------- the walkers on one fold -------------

def _outcome(f, *args):
    """f's answer, or its error message."""
    try:
        return f(*args)
    except TermError as e:
        return str(e)


@given(case=SIG_AND_TERM)
@settings(max_examples=100, deadline=None)
def test_the_walkers_on_the_fold_match_their_recursive_oracles(case):
    sig, t = case
    assert print_term(t) == old_print_term(t)
    # under every signature, so that the first error met in pre-order is compared
    for other in SIGS.values():
        assert _outcome(validate, other, t) == _outcome(old_validate, other, t)
    if isinstance(t, App):
        assert head_decompose(sig, t) == old_head_decompose(sig, t)
    got = terms._respell_w(t, 1, 2, 3)
    assert got == old_respell_w(t, 1, 2, 3)
    if _names(t).isdisjoint({"_w1", "_w2"}):
        assert got is t


# names spelled like the route's fresh names, and like them but never drawn
W_NAMES = ("x", "_w", "_w7", "_w01")
W_LEAVES = ("X", "x", "_w", "_w7", "_w01", "_w2")
SIG_AND_W_TERM = st.one_of(*(st.tuples(st.just(sig), terms_over(sig, W_NAMES, W_LEAVES))
                             for sig in SIGS.values()))


def _same_copies(t, got, want, respelled):
    """got and want keep the same nodes of t, exactly those that hold no
    respelled name, and their copies carry the same free-variable memos."""
    todo = [(t, got, want)]
    while todo:
        u, g, w = todo.pop()
        assert (g is u) == (w is u) == respelled.isdisjoint(terms._names(u))
        if isinstance(u, App):
            assert g._fv_memo == w._fv_memo
            todo.extend(zip(u.args, g.args, w.args))


@given(case=SIG_AND_W_TERM, filled=st.booleans(), at=st.integers(0, 8),
       used=st.integers(1, 4), shift=st.sampled_from([-3, -2, -1, 1, 2, 5]))
@settings(max_examples=300, deadline=None)
def test_the_w_memo_and_the_flat_respelling_match_their_oracles(case, filled, at, used, shift):
    # as in a memo hit, the names move (shift != 0) to names >= _w0
    sig, t = case
    if at + shift < 0:
        shift = -shift
    assert terms._w_names(t) == scan_w_names(t)
    if filled:  # as the plain path leaves an image
        free_vars(sig, t)
    got, want = terms._respell_w(t, at, used, shift), fold_respell_w(t, at, used, shift)
    assert got == want == old_respell_w(t, at, used, shift)
    _same_copies(t, got, want, {f"_w{k}" for k in range(at, at + used)})


def test_the_w_memo_and_the_flat_respelling_take_a_deep_chain():
    # 10,000 levels of nesting, bound and free _w names at every level
    t = Var("_w01")
    for i in range(5000):
        t = App("lam", (("_w7", "_w", "x")[i % 3],), (App("app", (), (t, Var(f"_w{i % 5}"))),))
    assert terms._w_names(t) == scan_w_names(t) == {
        "_w01", "_w7", "_w", "_w0", "_w1", "_w2", "_w3", "_w4"}
    free_vars(LAM, t)
    got, want = terms._respell_w(t, 1, 7, 4), fold_respell_w(t, 1, 7, 4)
    assert print_term(got) == print_term(want) == re.sub(
        r"_w([1-7])\b", lambda m: f"_w{int(m.group(1)) + 4}", print_term(t))
    _same_copies(t, got, want, {f"_w{k}" for k in range(1, 8)})
    assert terms._respell_w(t, 8, 3, 1) is t is fold_respell_w(t, 8, 3, 1)


@pytest.mark.parametrize("bad", [
    5, App("app", (), (Var("x"), "y")), App("lam", ("v",), (App("app", (), (None, Var("v"))),))],
    ids=["top", "argument", "nested"])
def test_the_w_memo_refuses_a_non_term_as_the_name_scan_did(bad):
    with pytest.raises(TermError) as new:
        terms._w_names(bad)
    with pytest.raises(TermError) as old:
        scan_w_names(bad)
    assert str(new.value) == str(old.value)
    tr = TRANSLATIONS["lam"]
    route, oracle = _both(complete_compositional(tr), old_complete_compositional(tr), bad)
    assert isinstance(route, str) and route == oracle


@given(case=SIG_TERM_AND_SUBST)
@settings(max_examples=100, deadline=None)
def test_is_prefix_matches(case):
    sig, t, sigma = case
    u = substitute(sig, t, sigma)
    for e, f in ((t, u), (u, t), (t, canonical_binders(sig, t, base="q")), (t, t)):
        assert is_prefix(sig, e, f) == old_is_prefix(sig, e, f)
    if isinstance(t, App):
        head, _ = head_decompose(sig, t)
        assert is_prefix(sig, head, t) and old_is_prefix(sig, head, t)


def _recursing(f, *args):
    """f(*args) with room for the oracles' recursion."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        return f(*args)
    finally:
        sys.setrecursionlimit(limit)


def _bound_chain(n):
    """Res[x] over n pairs In[y](x, Out(y, x, ...)) ending in Out(x, c, Nil):
    only c and Nil hold no name bound above them, so the head keeps the rest."""
    t = App("Out", (), (Var("x"), Var("c"), NIL))
    for _ in range(n):
        t = App("In", ("y",), (Var("x"), App("Out", (), (Var("y"), Var("x"), t))))
    return App("Res", ("x",), (t,))


def _one_spelling(n, leaf):
    """The chain of n pairs with every binder spelled y, over Var(leaf)."""
    return _chain(n, lambda i: "y", Var(leaf))


def _deep_answer(walker, n):
    """What a walker moved onto the fold answers on chains of n pairs with
    one binder spelling, and the answer expected, terms as printed text:
    == on terms this deep recurses in the interpreter."""
    t = _one_spelling(n, "c")
    if walker == "print_term":
        return print_term(t), "In[y](a, Out(y, b, " * n + "c" + "))" * n
    if walker == "_names":
        return _names(t), {"y", "a", "b", "c"}
    if walker == "validate":
        return validate(PI_TERM_SIG, t), None
    if walker == "substitute":
        # c -> y: each binder y would capture it, so each is respelled y1
        return (print_term(substitute(PI_TERM_SIG, t, {"c": Var("y")})),
                "In[y1](a, Out(y1, b, " * n + "y" + "))" * n)
    if walker == "canonical_binders":
        return (print_term(canonical_binders(PI_TERM_SIG, t)),
                "".join(f"In[B{k}](a, Out(B{k}, b, " for k in range(1, n + 1)) + "c" + "))" * n)
    if walker == "head_decompose":
        head, sigma = head_decompose(PI_TERM_SIG, _bound_chain(n))
        return (print_term(head), sigma), (
            "Res[B1](" + "".join(f"In[B{k}](B1, Out(B{k}, B1, " for k in range(2, n + 2))
            + "Out(B1, X1, X2)" + "))" * n + ")", {"X1": Var("c"), "X2": NIL})
    if walker == "is_prefix":
        # the second would instantiate X by a name its own binder captures
        x = _one_spelling(n, "X")
        return (is_prefix(PI_TERM_SIG, x, _chain(n, lambda i: "z", NIL)),
                is_prefix(PI_TERM_SIG, x, _one_spelling(n, "y")),
                is_prefix(PI_TERM_SIG, x, t)), (True, False, True)
    assert walker == "complete_compositional"
    # each In's slot is spelled _wK, K counted from the outside
    return (print_term(complete_compositional(boudol_head_translation())(t)),
            "".join(f"In[u](a, Res[v](Par(Out(u, v), In[_w{k}](v, Res[u](Par(Out(_w{k}, u), "
                    f"In[v](u, Par(Out(v, b), " for k in range(n)) + "c" + ")" * (8 * n))


MOVED = ("print_term", "_names", "validate", "substitute", "canonical_binders",
         "head_decompose", "is_prefix", "complete_compositional")


# 6,000 levels of nesting, six times the interpreter's recursion limit and
# ten times the depth where the recursive walkers failed; each walker answers
# at 20,000 pairs too, in 0.5 to 6 s (the head-map route)
DEEP = 3000


@pytest.mark.parametrize("walker", MOVED)
def test_the_moved_walkers_answer_on_deep_terms(walker):
    # each recursed once per node and failed from 500 pairs, print_term from 300
    got, want = _deep_answer(walker, DEEP)
    assert got == want


def test_the_moved_walkers_match_their_oracles_at_300_pairs():
    for walker in MOVED:
        got, want = _deep_answer(walker, 300)
        assert got == want, walker
    t = _chain(300, lambda i: "y", Var("c"))
    x = _chain(300, lambda i: "y", Var("X"))
    for new, old, args in (
            (print_term, old_print_term, (t,)),
            (_names, old_all_names, (t,)),
            (validate, old_validate, (PI_TERM_SIG, t)),
            (canonical_binders, old_canonical_binders, (PI_TERM_SIG, t)),
            (head_decompose, old_head_decompose, (PI_TERM_SIG, _bound_chain(300))),
            (is_prefix, old_is_prefix, (PI_TERM_SIG, x, _chain(300, lambda i: "z", NIL))),
            (is_prefix, old_is_prefix, (PI_TERM_SIG, x, _chain(300, lambda i: "y", Var("y"))))):
        assert _recursing(lambda: new(*args) == old(*args))
    # the oracles of substitute and of the route read every free variable
    # afresh at every node, so they are held to 60 pairs
    t = _chain(60, lambda i: "y", Var("c"))
    assert substitute(PI_TERM_SIG, t, {"c": Var("y")}) == old_substitute(
        PI_TERM_SIG, t, {"c": Var("y")})
    tr = boudol_head_translation()
    assert _recursing(lambda: complete_compositional(tr)(t) == old_complete_compositional(tr)(t))


# ------------- the semi-naive enumeration -------------

@pytest.mark.parametrize("sig", [PI_TERM_SIG, API_TERM_SIG], ids=["pi", "api"])
def test_enumeration_matches_the_keyed_one_on_the_depth_3_pools(sig):
    got = list(islice(enumerate_terms(sig, 3), 30000))
    assert len(got) == {"pi": 30000, "api": 3963}[sig.name]
    assert got == list(islice(old_enumerate_terms(sig, 3), 30000))


def unique(leaf_vars):
    return tuple(dict.fromkeys(leaf_vars))


@pytest.mark.parametrize("kwargs", [
    {}, {"leaf_vars": ("X", "Y", "X")}, {"leaf_vars": ()}, {"binder_names": ("z",)},
    {"leaf_vars": ("X", "X"), "binder_names": ("z",)},
], ids=["default", "repeated-leaf", "no-leaves", "one-binder-name", "both"])
@pytest.mark.parametrize("sig", [LAM, SWAP], ids=["lam", "swap"])
def test_enumeration_matches_the_keyed_one_on_odd_leaves_and_binders(sig, kwargs):
    got = list(islice(enumerate_terms(sig, 3, **kwargs), 5000))
    # the oracle yields a repeated leaf once per repeat; enumerate_terms once
    once = dict(kwargs, leaf_vars=unique(kwargs.get("leaf_vars", ("X", "Y"))))
    assert got == list(islice(old_enumerate_terms(sig, 3, **once), 5000))


@pytest.mark.parametrize("sig", [LAM, SWAP], ids=["lam", "swap"])
def test_enumeration_yields_a_repeated_leaf_once(sig):
    got = list(enumerate_terms(sig, 1, leaf_vars=("X", "Y", "X", "X")))
    assert [t for t in got if isinstance(t, Var)] == [Var("X"), Var("Y")]
    assert len(got) == len(set(got))


@pytest.mark.parametrize("depth", [0, -1, -5])
def test_enumeration_refuses_a_depth_below_1(depth):
    # a depth below 1 yielded the height-1 terms
    with pytest.raises(TermError, match="depth must be >= 1"):
        enumerate_terms(LAM, depth)
    assert list(enumerate_terms(LAM, 1)) == [Var("X"), Var("Y"), App("unit", (), ())]


@st.composite
def signatures(draw):
    """One to four constructs of arity 0 to 3, each with 0 to 3 slots."""
    constructs = []
    for j in range(draw(st.integers(1, 4))):
        arity = draw(st.integers(0, 3))
        labels = ("a", "b", "c")[:draw(st.integers(0, 3))]
        binders = tuple(tuple(draw(st.lists(st.sampled_from(labels), unique=True)) if labels
                              else ()) for _ in range(arity))
        constructs.append(Construct(f"f{j}", arity, binders))
    return Signature("random", tuple(constructs))


@given(sig=signatures(), depth=st.integers(1, 3),
       leaf_vars=st.sampled_from([("X", "Y"), ("X", "X", "Y"), (), ("X",)]),
       binder_names=st.sampled_from([("z1", "z2"), ("z",), ("z1", "z2", "z3")]))
@settings(max_examples=100, deadline=None)
def test_enumeration_matches_the_keyed_one_on_random_signatures(sig, depth, leaf_vars,
                                                                binder_names):
    assert (list(islice(enumerate_terms(sig, depth, leaf_vars, binder_names), 3000))
            == list(islice(old_enumerate_terms(sig, depth, unique(leaf_vars), binder_names),
                           3000)))
