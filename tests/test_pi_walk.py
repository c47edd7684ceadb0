"""The pi-term walkers against the walkers they replace.

The name collectors, the external-barb walk of the command line, the scan
inside _uniquify, the barb walk behind strong_barbs and the offer walk of
reduce_once became the one name scan (pi._scan) and the one active-thread walk
(pi._acts).  The renaming and printing walkers, the alpha key, the parser
and the walkers of encodings.py became walks on the one explicit-stack fold
(pi._fold); the alpha key on the fold now lives here, as the oracle of
pi.alpha_eq_pi.  The oracles below are their earlier definitions, recursive but
for the explicit-stack binder renaming.  Each new result must equal its
oracle on random terms over all eight constructors, and the parser must agree
with its oracle on random strings.  reduce_once, which makes an offer only for
a send and a receive that meet, is held to the loop over every pair of offers.
"""

import copy
import gc
import pickle
import weakref
from functools import partial
from itertools import count
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import Offer, chain_text, hand_built, translated_chain_text

from transcheck.encodings import (boudol_encoding, boudol_translate, pi_to_term, plug,
                                  plug_var, routes_agree, term_to_pi)
from transcheck.pi import (Barb, ExtBarb, In, Nil, Out, Par, PiError, PiState,
                           PiTerm, PVar, Repl, Res, _Canon, _CopyLevel,
                           _fold, _fresh_name, _rename, _scan, _split_level,
                           _successor, _tokenize, all_names, alpha_eq_pi,
                           free_names, is_async, normal_form, parse_pi, print_pi,
                           process_vars, reduce_once, strong_barbs, subst_names)
from transcheck.terms import App, Term, Var

# ------------- the recursive walkers, kept as oracles -------------


def old_free_names(t):
    match t:
        case Nil() | PVar(_) | ExtBarb(_):
            return set()
        case Out(x, y, k):
            return {x, y} | old_free_names(k)
        case In(x, z, k):
            return {x} | (old_free_names(k) - {z})
        case Par(l, r):
            return old_free_names(l) | old_free_names(r)
        case Res(n, b):
            return old_free_names(b) - {n}
        case Repl(b):
            return old_free_names(b)
    raise PiError(f"not a process: {t!r}")


def old_all_names(t):
    match t:
        case Nil() | PVar(_):
            return set()
        case ExtBarb(w):
            return {w}
        case Out(x, y, k):
            return {x, y} | old_all_names(k)
        case In(x, z, k):
            return {x, z} | old_all_names(k)
        case Par(l, r):
            return old_all_names(l) | old_all_names(r)
        case Res(n, b):
            return {n} | old_all_names(b)
        case Repl(b):
            return old_all_names(b)
    raise PiError(f"not a process: {t!r}")


def old_process_vars(t):
    match t:
        case PVar(x):
            return {x}
        case Out(_, _, k) | In(_, _, k) | Res(_, k) | Repl(k):
            return old_process_vars(k)
        case Par(l, r):
            return old_process_vars(l) | old_process_vars(r)
        case _:
            return set()


def old_is_async(t):
    match t:
        case Out(_, _, k):
            return isinstance(k, Nil)
        case In(_, _, k) | Res(_, k) | Repl(k):
            return old_is_async(k)
        case Par(l, r):
            return old_is_async(l) and old_is_async(r)
        case _:
            return True


def old_ext_ids(t):
    match t:
        case ExtBarb(w):
            return {w}
        case Out(_, _, k) | In(_, _, k) | Res(_, k) | Repl(k):
            return old_ext_ids(k)
        case Par(l, r):
            return old_ext_ids(l) | old_ext_ids(r)
        case _:
            return set()


def old_uniquify_scan(t):
    """The parameters and restriction counts _uniquify's own walk gathered."""
    params, res_count = set(), {}

    def scan(u):
        match u:
            case Out(_, _, k) | Repl(k):
                scan(k)
            case In(_, z, k):
                params.add(z)
                scan(k)
            case Res(n, b):
                res_count[n] = res_count.get(n, 0) + 1
                scan(b)
            case Par(l, r):
                scan(l)
                scan(r)

    scan(t)
    return params, res_count


def _barbs_walk(t, hidden, acc, inp):
    match t:
        case ExtBarb(w):
            acc.add(Barb("ext", w))
        case Out(x, _, _):
            if x not in hidden:
                acc.add(Barb("out", x))
        case In(x, _, _):
            if inp and x not in hidden:
                acc.add(Barb("in", x))
        case Par(l, r):
            _barbs_walk(l, hidden, acc, inp)
            _barbs_walk(r, hidden, acc, inp)
        case Res(n, b):
            _barbs_walk(b, hidden | {n}, acc, inp)
        case Repl(b):
            _barbs_walk(b, hidden, acc, inp)


def old_strong_barbs(s, input_barbs=False):
    acc = set()
    for th in s.threads:
        _barbs_walk(th, frozenset(s.restricted), acc, input_barbs)
    return frozenset(acc)


def old_offers(threads):
    """The offer walk of reduce_once, as (kind, chan, msg, param, cont, top,
    levels) rows."""
    offers = []

    def go(t, top, levels):
        match t:
            case Out(x, y, k):
                offers.append(("send", x, y, None, k, top, levels))
            case In(x, z, k):
                offers.append(("recv", x, None, z, k, top, levels))
            case Repl(body):
                cid = next(cids)
                nus, parts = _split_level(body)
                for i, p in enumerate(parts):
                    go(p, top, levels + (_CopyLevel(cid, tuple(nus), tuple(parts), i),))

    for i, th in enumerate(threads):
        cids = count()  # copies are numbered within their top-level thread
        go(th, i, ())
    return offers


# ------------- the walkers that now run on the fold, kept as oracles -------------

_RESERVED_PREFIX = "_b"


def old_subst_names(t: PiTerm, mapping: dict[str, str]) -> PiTerm:
    """Capture-avoiding renaming of free name occurrences (barb ids untouched)."""
    live = {a: b for a, b in mapping.items() if a != b}
    if not live:
        return t
    match t:
        case Nil() | PVar(_) | ExtBarb(_):
            return t
        case Out(x, y, k):
            return Out(live.get(x, x), live.get(y, y), old_subst_names(k, live))
        case In(x, z, k):
            chan = live.get(x, x)
            inner = {a: b for a, b in live.items() if a != z}
            if z in inner.values():
                z2 = _fresh_name(z, all_names(k) | set(inner) | set(inner.values()))
                k = old_subst_names(k, {z: z2})
                z = z2
            return In(chan, z, old_subst_names(k, inner))
        case Res(n, b):
            inner = {a: b for a, b in live.items() if a != n}
            if n in inner.values():
                n2 = _fresh_name(n, all_names(b) | set(inner) | set(inner.values()))
                b = old_subst_names(b, {n: n2})
                n = n2
            return Res(n, old_subst_names(b, inner))
        case Par(l, r):
            return Par(old_subst_names(l, live), old_subst_names(r, live))
        case Repl(b):
            return Repl(old_subst_names(b, live))
    raise PiError(f"not a process: {t!r}")


def old_alpha_key(t: PiTerm) -> tuple:
    """Structure key invariant exactly under renaming of bound names."""
    def go(u: PiTerm, env: dict[str, int], depth: int) -> tuple:
        def tok(n: str):
            return env[n] if n in env else f"f:{n}"

        match u:
            case Nil():
                return ("nil",)
            case PVar(x):
                return ("pvar", x)
            case ExtBarb(w):
                return ("ext", w)
            case Out(x, y, k):
                return ("out", tok(x), tok(y), go(k, env, depth))
            case In(x, z, k):
                return ("in", tok(x), go(k, {**env, z: depth}, depth + 1))
            case Res(n, b):
                return ("res", go(b, {**env, n: depth}, depth + 1))
            case Par(l, r):
                return ("par", go(l, env, depth), go(r, env, depth))
            case Repl(b):
                return ("repl", go(b, env, depth))
        raise PiError(f"not a process: {u!r}")

    return go(t, {}, 0)


def alpha_key(t: PiTerm) -> tuple:
    """Structure key invariant exactly under renaming of bound names, on the
    explicit-stack fold, so a term of any depth is keyed: the oracle of
    alpha_eq_pi, which replaced it in the package."""
    def key(*parts) -> tuple:
        return parts

    def visit(u: PiTerm, ctx: tuple[dict[str, int], int]):
        env, depth = ctx
        cls = type(u)
        if cls is Out:
            x, y = env.get(u.chan, f"f:{u.chan}"), env.get(u.msg, f"f:{u.msg}")
            return partial(key, "out", x, y), ((u.cont, ctx),)
        if cls is In:
            x = env.get(u.chan, f"f:{u.chan}")
            return partial(key, "in", x), ((u.cont, ({**env, u.param: depth}, depth + 1)),)
        if cls is Res:
            return partial(key, "res"), ((u.body, ({**env, u.name: depth}, depth + 1)),)
        if cls is Par:
            return partial(key, "par"), ((u.left, ctx), (u.right, ctx))
        if cls is Repl:
            return partial(key, "repl"), ((u.body, ctx),)
        if cls is Nil:
            return partial(key, "nil"), ()
        if cls is PVar:
            return partial(key, "pvar", u.name), ()
        if cls is ExtBarb:
            return partial(key, "ext", u.ident), ()
        raise PiError(f"not a process: {u!r}")

    return _fold(t, ({}, 0), visit)


def old_parse_pi(text: str, allow_reserved: bool = False) -> PiTerm:
    toks = _tokenize(text)
    idx = 0

    def peek():
        return toks[idx] if idx < len(toks) else ("eof", "", len(text))

    def take(kind, value=None):
        nonlocal idx
        k, v, p = peek()
        if k != kind or (value is not None and v != value):
            want = value or kind
            raise PiError(f"expected {want!r} at position {p}, found {v or 'end of input'!r}")
        idx += 1
        return v

    def name():
        v = take("name")
        if v == "new":
            raise PiError("'new' is a reserved word, not a name")
        if v.startswith("_") and not allow_reserved:
            raise PiError(f"name {v!r} is in the reserved namespace (names starting with _)")
        return v

    def factor() -> PiTerm:
        k, v, p = peek()
        if k == "zero":
            take("zero")
            return Nil()
        if k == "sym" and v == "!":
            take("sym", "!")
            return Repl(factor())
        if k == "sym" and v == "(":
            take("sym", "(")
            t = par()
            take("sym", ")")
            return t
        if k == "sym" and v == "@":
            take("sym", "@")
            return ExtBarb(name())
        if k == "pvar":
            return PVar(take("pvar"))
        if k == "name" and v == "new":
            take("name")
            names = [name()]
            while peek()[:2] == ("sym", ","):
                take("sym", ",")
                names.append(name())
            take("sym", ".")
            body = factor()
            for n in reversed(names):
                body = Res(n, body)
            return body
        if k == "name":
            x = name()
            k2, v2, p2 = peek()
            if k2 == "sym" and v2 == "!":
                take("sym", "!")
                y = name()
                if peek()[:2] == ("sym", "."):
                    take("sym", ".")
                    return Out(x, y, factor())
                return Out(x, y, Nil())
            if k2 == "sym" and v2 == "(":
                take("sym", "(")
                z = name()
                take("sym", ")")
                take("sym", ".")
                return In(x, z, factor())
            raise PiError(f"expected '!' or '(' after name {x!r} at position {p2}")
        raise PiError(f"unexpected {v or 'end of input'!r} at position {p}")

    def par() -> PiTerm:
        t = factor()
        while peek()[:2] == ("sym", "|"):
            take("sym", "|")
            t = Par(t, factor())
        return t

    out = par()
    if idx != len(toks):
        raise PiError(f"trailing input at position {peek()[2]}")
    return out


def old_print_pi(t: PiTerm) -> str:
    def fac(u: PiTerm) -> str:
        s = go(u)
        return f"({s})" if isinstance(u, Par) else s

    def go(u: PiTerm) -> str:
        match u:
            case Nil():
                return "0"
            case PVar(x):
                return x
            case ExtBarb(w):
                return f"@{w}"
            case Out(x, y, Nil()):
                return f"{x}!{y}"
            case Out(x, y, k):
                return f"{x}!{y}.{fac(k)}"
            case In(x, z, k):
                return f"{x}({z}).{fac(k)}"
            case Repl(b):
                return f"!{fac(b)}"
            case Res(_, _):
                names = []
                while isinstance(u, Res):
                    names.append(u.name)
                    u = u.body
                return f"new {', '.join(names)}. {fac(u)}"
            case Par(_, _):
                # a left-nested spine of any length, without recursion
                rights = []
                while isinstance(u, Par):
                    rights.append(fac(u.right))
                    u = u.left
                rights.append(go(u))
                return " | ".join(reversed(rights))
        raise PiError(f"not a process: {u!r}")

    return go(t)


class _OldBuild(NamedTuple):
    """Stack entry that rebuilds a node of class cls from fields and the last
    arity results."""
    cls: type
    fields: tuple
    arity: int


def old_rename(t: PiTerm, ren: dict[str, str], clash: set[str], avoid: set[str]) -> PiTerm:
    """t with ren applied to its free names and each restriction binder in
    clash respelled afresh, avoiding avoid.  Binders are visited in
    pre-order, left before right, and each spelling joins clash and avoid,
    so the spellings chosen depend only on that order.  One walk with an
    explicit stack, so a term of any width or depth is renamed."""
    done: list[PiTerm] = []
    work: list = [(t, ren)]
    while work:
        item = work.pop()
        if type(item) is _OldBuild:
            kids = done[len(done) - item.arity:]
            del done[len(done) - item.arity:]
            done.append(item.cls(*item.fields, *kids))
            continue
        u, ren = item
        cls = type(u)
        if cls is Out:
            work.append(_OldBuild(Out, (ren.get(u.chan, u.chan), ren.get(u.msg, u.msg)), 1))
            work.append((u.cont, ren))
        elif cls is In:
            z = u.param
            work.append(_OldBuild(In, (ren.get(u.chan, u.chan), z), 1))
            work.append((u.cont, {a: b for a, b in ren.items() if a != z} if z in ren else ren))
        elif cls is Res:
            n = u.name
            m = n if n not in clash else _fresh_name(n, avoid)
            clash.add(m)
            avoid.add(m)
            work.append(_OldBuild(Res, (m,), 1))
            work.append((u.body, {**ren, n: m}))
        elif cls is Par:
            work.append(_OldBuild(Par, (), 2))
            work.append((u.right, ren))
            work.append((u.left, ren))
        elif cls is Repl:
            work.append(_OldBuild(Repl, (), 1))
            work.append((u.body, ren))
        elif cls is Nil or cls is PVar or cls is ExtBarb:
            done.append(u)
        else:
            raise PiError(f"not a process: {u!r}")
    return done[0]


def old_boudol_translate(p: PiTerm) -> PiTerm:
    """Protocol translation into the asynchronous sublanguage.

    Auxiliary names are drawn deterministically from the reserved namespace
    _b0, _b1, ... (least unused), skipping any that occur in p, outermost
    first and left to right; T(X) = X and the translation is homomorphic on
    0, |, !, new.
    """
    used = all_names(p)
    ctr = count()

    def fresh() -> str:
        while True:
            n = f"{_RESERVED_PREFIX}{next(ctr)}"
            if n not in used:
                return n

    def go(t: PiTerm) -> PiTerm:
        match t:
            case Nil() | PVar(_) | ExtBarb(_):
                return t
            case Out(x, z, k):
                u, v = fresh(), fresh()
                return Res(u, Par(Out(x, u, Nil()),
                                  In(u, v, Par(Out(v, z, Nil()), go(k)))))
            case In(x, y, k):
                u, v = fresh(), fresh()
                return In(x, u, Res(v, Par(Out(u, v, Nil()),
                                           In(v, y, go(k)))))
            case Par(l, r):
                return Par(go(l), go(r))
            case Res(n, b):
                return Res(n, go(b))
            case Repl(b):
                return Repl(go(b))
        raise PiError(f"not a process: {t!r}")

    out = go(p)
    if not is_async(out):
        raise AssertionError("translation left a guarded output continuation")
    return out


def old_pi_to_term(t: PiTerm) -> Term:
    """Embed a process as a term over the process signature.

    Names and process variables both become term variables; observation
    constants have no term form."""
    match t:
        case Nil():
            return App("Nil", (), ())
        case PVar(x):
            return Var(x)
        case ExtBarb(_):
            raise PiError("observation constants have no term-language form")
        case Out(x, y, k):
            return App("Out", (), (Var(x), Var(y), old_pi_to_term(k)))
        case In(x, z, k):
            return App("In", (z,), (Var(x), old_pi_to_term(k)))
        case Par(l, r):
            return App("Par", (), (old_pi_to_term(l), old_pi_to_term(r)))
        case Res(n, b):
            return App("Res", (n,), (old_pi_to_term(b),))
        case Repl(b):
            return App("Repl", (), (old_pi_to_term(b),))
    raise PiError(f"not a process: {t!r}")


def old_term_to_pi(t: Term) -> PiTerm:
    """Read a process-shaped term back; output arity picks the sublanguage."""
    def name_of(u: Term) -> str:
        if not isinstance(u, Var):
            raise PiError(f"name position holds a non-variable term: {u!r}")
        return u.name

    match t:
        case Var(x):
            if x[:1].isupper():
                return PVar(x)
            raise PiError(f"free lowercase variable {x!r} is not a process")
        case App("Nil", _, _):
            return Nil()
        case App("Out", _, args) if len(args) == 3:
            return Out(name_of(args[0]), name_of(args[1]), old_term_to_pi(args[2]))
        case App("Out", _, args) if len(args) == 2:
            return Out(name_of(args[0]), name_of(args[1]), Nil())
        case App("In", bound, args):
            return In(name_of(args[0]), bound[0], old_term_to_pi(args[1]))
        case App("Par", _, args):
            return Par(old_term_to_pi(args[0]), old_term_to_pi(args[1]))
        case App("Res", bound, args):
            return Res(bound[0], old_term_to_pi(args[0]))
        case App("Repl", _, args):
            return Repl(old_term_to_pi(args[0]))
    raise PiError(f"not a process-shaped term: {t!r}")


def old_subst_pvar(context: PiTerm, var: str, p: PiTerm) -> PiTerm:
    """Replace every occurrence of the process variable var by p, renaming
    context binders off the free names of p so nothing is captured."""
    fnp = free_names(p)
    avoid = set(all_names(context)) | set(fnp)

    def go(t: PiTerm, ren: dict[str, str]) -> PiTerm:
        match t:
            case Nil() | ExtBarb(_):
                return t
            case PVar(x):
                return p if x == var else t
            case Out(x, y, k):
                return Out(ren.get(x, x), ren.get(y, y), go(k, ren))
            case In(x, z, k):
                chan = ren.get(x, x)
                inner = {a: b for a, b in ren.items() if a != z}
                if z in fnp:
                    z2 = _fresh_name(z, avoid)
                    avoid.add(z2)
                    inner[z] = z2
                    z = z2
                return In(chan, z, go(k, inner))
            case Res(n, b):
                inner = {a: b for a, b in ren.items() if a != n}
                if n in fnp:
                    n2 = _fresh_name(n, avoid)
                    avoid.add(n2)
                    inner[n] = n2
                    n = n2
                return Res(n, go(b, inner))
            case Par(l, r):
                return Par(go(l, ren), go(r, ren))
            case Repl(b):
                return Repl(go(b, ren))
        raise PiError(f"not a process: {t!r}")

    return go(context, {})


# ------------- random terms over all eight constructors -------------

NAMES = st.sampled_from(["a", "b", "x", "y"])

leaves = st.one_of(
    st.just(Nil()),
    st.builds(PVar, st.sampled_from(["P", "Q"])),
    st.builds(ExtBarb, st.sampled_from(["w", "v"])),
    st.builds(Out, NAMES, NAMES, st.just(Nil())),
)


def _grow(inner):
    return st.one_of(
        st.builds(Out, NAMES, NAMES, inner),
        st.builds(In, NAMES, NAMES, inner),
        st.builds(Par, inner, inner),
        st.builds(Res, NAMES, inner),
        st.builds(Repl, inner),
    )


terms = st.recursive(leaves, _grow, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(terms)
def test_scan_matches_the_recursive_walkers(t):
    scan = _scan(t)
    assert free_names(t) == scan.free == old_free_names(t)
    assert all_names(t) == scan.names == old_all_names(t)
    assert process_vars(t) == scan.pvars == old_process_vars(t)
    assert is_async(t) == (not scan.sync) == old_is_async(t)
    assert scan.ext == old_ext_ids(t)
    assert (scan.params, scan.binders) == old_uniquify_scan(t)


@settings(max_examples=300, deadline=None)
@given(terms)
def test_barbs_and_offers_match_the_recursive_walks(t):
    s = normal_form(t)
    for inp in (False, True):
        assert strong_barbs(s, inp) == old_strong_barbs(s, inp)
    rows = [(top, row) for top, th in enumerate(s.threads) for row in _Canon().acts[th].offers]
    got = [(kind, chan, msg, param, cont, top, levels)
           for top, (kind, chan, msg, param, cont, levels, _) in rows]
    assert got == old_offers(s.threads)
    # each row carries its offer's place, as the property once worked it out
    assert [row[6] for _, row in rows] == [Offer.of(pair).place for pair in rows]


def old_reduce_once(state, canon):
    """reduce_once as it was: an Offer for every offer of every thread, and
    each send tried against every receive, in offer order."""
    offers = [Offer.of((top, row)) for top, th in enumerate(state.threads)
              for row in canon.acts[th].offers]
    succs = {}
    for s in offers:
        for r in offers:
            if s.kind == "send" and r.kind == "recv" and s.chan == r.chan:
                nxt = _successor(canon, state, s.pair(), r.pair())
                succs.setdefault(nxt.key, nxt)
    return [succs[k] for k in sorted(succs)]


def _same_successors_as_all_pairs(t):
    """reduce_once and the all-pairs loop give the same representative of
    each successor key, by the same pair: from a root a canon made (so
    successors merge) and from one built by hand."""
    for made in (True, False):
        roots = [normal_form(t), normal_form(t)]
        if not made:
            roots = list(map(hand_built, roots))
        got = reduce_once(roots[0])
        want = old_reduce_once(roots[1], roots[1]._canon or _Canon())
        assert ([(s.key, s.restricted, s.threads) for s in got]
                == [(s.key, s.restricted, s.threads) for s in want])


@settings(max_examples=300, deadline=None)
@given(terms)
def test_reduce_once_matches_the_all_pairs_loop(t):
    _same_successors_as_all_pairs(t)


def test_the_first_receive_in_order_gives_the_representative():
    # both receives give one successor key, spelled by the receive met first
    t = parse_pi("x!a | x(y).new b. b!y | x(y).new c. c!y")
    _same_successors_as_all_pairs(t)
    for root in (normal_form(t), hand_built(normal_form(t))):
        (s,) = reduce_once(root)
        assert print_pi(s.term()) == "new b. (x(y).new c. c!y | b!a)"


def test_barbs_under_nested_replication_copies():
    # restrictions inside a replication, and a replication inside that copy
    s = PiState(("z",), (
        Repl(Res("d", Par(Out("d", "a", Nil()),
                          Repl(Par(In("d", "y", Nil()), In("e", "y", Nil())))))),
        Repl(Par(ExtBarb("w"), Out("z", "a", Nil()))),
        Out("c", "a", Nil()),
    ), ())
    assert strong_barbs(s) == old_strong_barbs(s) == {Barb("out", "c"), Barb("ext", "w")}
    assert (strong_barbs(s, True) == old_strong_barbs(s, True)
            == {Barb("out", "c"), Barb("ext", "w"), Barb("in", "e")})


def test_non_process_is_rejected():
    for bad in ("x", Out("x", "a", "junk"), Par(Nil(), 3)):
        with pytest.raises(PiError, match="not a process"):
            _scan(bad)


@pytest.mark.parametrize("shape", ["out", "in", "both"])
def test_collectors_walk_a_chain_of_100000_prefixes(shape):
    t = Nil()
    for i in range(100_000):
        if shape == "out" or (shape == "both" and i % 2):
            t = Out("x", "a", t)
        else:
            t = In("x", "y", t)
    assert free_names(t) == {"out": {"x", "a"}, "in": {"x"}, "both": {"x", "a"}}[shape]
    assert all_names(t) == {"out": {"x", "a"}, "in": {"x", "y"}, "both": {"x", "a", "y"}}[shape]
    assert process_vars(t) == set()
    assert is_async(t) is (shape == "in")


# ------------- the walkers on the fold, against their oracles -------------

def _outcome(f, *args):
    """f's result, or the class and message of the error it raises."""
    try:
        return f(*args)
    except (PiError, IndexError) as e:
        return type(e).__name__, str(e)


closed_terms = terms.filter(lambda p: not process_vars(p))
renamings = st.dictionaries(NAMES, st.sampled_from(["a", "b", "x", "y", "a2", "z"]),
                            max_size=3)


@settings(max_examples=300, deadline=None)
@given(terms, renamings, st.sets(NAMES), closed_terms)
def test_walkers_match_their_oracles(t, ren, clash, p):
    assert subst_names(t, ren) == old_subst_names(t, ren)
    assert alpha_key(t) == old_alpha_key(t)
    assert print_pi(t) == old_print_pi(t)
    assert boudol_translate(t) == old_boudol_translate(t)
    assert plug_var(t, "P", p) == old_subst_pvar(t, "P", p)
    # _rename grows clash and avoid as it respells: they must grow alike
    avoid = all_names(t) | set(ren.values())
    new_sets, old_sets = (set(clash), set(avoid)), (set(clash), set(avoid))
    assert _rename(t, ren, *new_sets) == old_rename(t, ren, *old_sets)
    assert new_sets == old_sets
    term = _outcome(pi_to_term, t)
    assert term == _outcome(old_pi_to_term, t)
    if not isinstance(term, tuple):  # no observation constant in t
        assert term_to_pi(term) == old_term_to_pi(term) == t


def _apps(inner):
    def app(op, arity, binders):
        return st.builds(lambda args, bound: App(op, tuple(bound), tuple(args)),
                         st.lists(inner, min_size=arity, max_size=arity),
                         st.lists(NAMES, min_size=binders, max_size=binders))

    return st.one_of(app("Nil", 0, 0), app("Out", 3, 0), app("Out", 2, 0),
                     app("In", 2, 1), app("Par", 2, 0), app("Res", 1, 1),
                     app("Repl", 1, 0), app("Out", 1, 0), app("In", 2, 0),
                     app("Par", 1, 0), app("Res", 0, 1), app("Spawn", 1, 0))


raw_terms = st.recursive(st.builds(Var, st.sampled_from(["a", "x", "P", "Q"])), _apps,
                         max_leaves=10)


# the fewest arguments and binders each construct needs
LEAST = {"In": (2, 1), "Par": (2, 0), "Res": (1, 1), "Repl": (1, 0)}


def _too_few(u) -> bool:
    """Whether some construct in u lacks an argument or a binder."""
    if isinstance(u, Var):
        return False
    args, binders = LEAST.get(u.op, (0, 0))
    return len(u.args) < args or len(u.bound) < binders or any(map(_too_few, u.args))


@settings(max_examples=300, deadline=None)
@given(raw_terms)
def test_term_to_pi_matches_its_oracle_on_any_term(u):
    got = _outcome(term_to_pi, u)
    if _too_few(u):
        # refused as an input error; the oracle raised IndexError, or the
        # error of a subterm it read first
        assert got[0] == "PiError"
    else:
        assert got == _outcome(old_term_to_pi, u)


# strings over the token alphabet, a few prefixes and stray characters, and
# printed terms
fuzz_strings = st.one_of(
    st.lists(st.sampled_from(["x", "y", "a", "new", "_b", "P", "0", "!", "(", ")", ".", "|",
                              ",", "@", " ", "new a, b. ", "x!y.", "a(b).", "#", "-", "9",
                              "é", "\n"]),
             max_size=24).map("".join),
    terms.map(print_pi))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_strings)
def test_random_strings_parse_as_before_and_exit_with_a_contract_code(cli, text):
    for reserved in (False, True):
        assert _outcome(parse_pi, text, reserved) == _outcome(old_parse_pi, text, reserved)
    for args in (["parse", text], ["print", text], ["translate", text],
                 ["plug", text, "--context", "a(b).X"], ["plug", "x!a", "--context", text]):
        code, _, err = cli("pi", *args)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


def respelled(t: PiTerm, fresh=None) -> PiTerm:
    """t with every binder spelled afresh: alpha-equivalent to t."""
    fresh = fresh if fresh is not None else (f"q{i}" for i in count())
    match t:
        case Out(x, y, k):
            return Out(x, y, respelled(k, fresh))
        case In(x, z, k):
            z2 = next(fresh)
            return In(x, z2, subst_names(respelled(k, fresh), {z: z2}))
        case Res(n, b):
            n2 = next(fresh)
            return Res(n2, subst_names(respelled(b, fresh), {n: n2}))
        case Par(l, r):
            return Par(respelled(l, fresh), respelled(r, fresh))
        case Repl(b):
            return Repl(respelled(b, fresh))
        case _:
            return t


@settings(max_examples=150, deadline=None)
@given(terms, terms, renamings)
def test_alpha_eq_pi_matches_the_keys(t, u, ren):
    renamed = subst_names(t, ren)
    for a, b in ((t, u), (t, t), (t, respelled(t)), (t, renamed), (respelled(t), renamed)):
        assert alpha_eq_pi(a, b) == (alpha_key(a) == alpha_key(b))
    assert alpha_eq_pi(t, respelled(t))


# ------------- terms of any depth -------------

DEEP = 100_000


@pytest.fixture(scope="module")
def chain():
    return parse_pi("x!a." * DEEP + "0")


def test_chain_helpers_match_the_oracles():
    t = old_parse_pi("x!a." * 5 + "0")
    assert old_print_pi(t) == chain_text(5)
    assert old_print_pi(old_boudol_translate(t)) == translated_chain_text(5)


def test_a_chain_of_100000_prefixes_prints_renames_and_converts(chain):
    assert print_pi(chain) == chain_text(DEEP)
    assert print_pi(subst_names(chain, {"a": "b"})) == chain_text(DEEP, "b")
    assert print_pi(term_to_pi(pi_to_term(chain))) == chain_text(DEEP)
    key, depth = alpha_key(chain), 0
    while key[0] == "out":
        assert key[1:3] == ("f:x", "f:a")
        key, depth = key[3], depth + 1
    assert (key, depth) == (("nil",), DEEP)


def test_a_chain_of_100000_prefixes_translates_and_plugs(chain):
    assert print_pi(boudol_translate(chain)) == translated_chain_text(DEEP)
    context = PVar("X")
    for _ in range(DEEP):
        context = Out("x", "a", context)
    assert print_pi(plug(context, parse_pi("c!d"))) == "x!a." * DEEP + "c!d"


def test_a_chain_of_100000_prefixes_is_one_object_and_compares_in_constant_time(chain):
    again = parse_pi("x!a." * DEEP + "0")
    assert again is chain
    assert again == chain and hash(again) == hash(chain) and again in {chain}
    assert Out("x", "a", chain) != chain and Out("x", "a", chain) not in {chain}


def test_the_intern_table_does_not_keep_a_term_alive():
    t = Out("lifetime", "probe", Par(Nil(), PVar("P")))
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
    assert Out("lifetime", "probe", Par(Nil(), PVar("P"))).cont == Par(Nil(), PVar("P"))


def test_a_copied_or_unpickled_term_is_the_term_itself():
    t = parse_pi("new a. (x!a.a(y).y!b | !P | @w)")
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert print_pi(copy.copy(Out("x", "c", Nil()))) == "x!c"


def test_5000_nested_brackets_and_prefixes_parse_and_print():
    n = 5_000
    assert print_pi(parse_pi("(" * n + "x!a" + ")" * n)) == "x!a"
    t = parse_pi("(a!b | " * n + "0" + ")" * n)
    assert print_pi(t) == "a!b | (" * (n - 1) + "a!b | 0" + ")" * (n - 1)
    t = parse_pi("!" * n + "new a, b. " * n + "a(b).0")
    assert print_pi(t) == "!" * n + "new " + "a, b, " * (n - 1) + "a, b. a(b).0"


def test_alpha_eq_pi_compares_chains_of_any_depth():
    # the nested keys recursed in their comparison: both raised RecursionError
    assert routes_agree(boudol_encoding(), [parse_pi("x!a." * 700 + "0")]).status == "yes"
    n = 3_000
    assert alpha_eq_pi(parse_pi("x(y)." * n + "0"), parse_pi("x(z)." * n + "0"))
    assert alpha_eq_pi(parse_pi("x(y)." * n + "y!a"), parse_pi("x(z)." * n + "z!a"))
    assert not alpha_eq_pi(parse_pi("x(y)." * n + "y!a"), parse_pi("x(z)." * n + "z!b"))
