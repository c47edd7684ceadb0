"""The one name scan and the one active-thread walk of pi terms, against the
recursive walkers they replace.

The oracles below are the earlier recursive definitions: the four name
collectors, the external-barb walk of the command line, the scan inside
_uniquify, the barb walk behind strong_barbs and the offer walk of
reduce_once.  Each new result must equal its oracle on random terms over all
eight constructors.
"""

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transcheck.pi import (Barb, ExtBarb, In, Nil, Out, Par, PiError, PiState,
                           PVar, Repl, Res, _CopyLevel, _expand_offers, _scan,
                           _split_level, all_names, free_names, is_async,
                           normal_form, process_vars, strong_barbs)

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
    offers, cids = [], count()

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
        go(th, i, ())
    return offers


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
    got = [(o.kind, o.chan, o.msg, o.param, o.cont, o.top, o.levels)
           for o in _expand_offers(s.threads)]
    assert got == old_offers(s.threads)


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
