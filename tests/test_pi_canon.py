"""Canonical process states: the individualization-refinement key against the
brute-force permutation key it replaced, the incremental successors of explore
against successors normalized from scratch, the state-space frontier, and
weak barbs decided on the fly against the whole reduction graph."""

import os
import pickle
import random
import subprocess
import sys
from contextlib import contextmanager
from functools import cache
from itertools import chain, permutations
from math import comb
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Offer, hand_built

from transcheck import pi
from transcheck.cli import EXIT
from transcheck.encodings import ContextProbe, boudol_translate, load_pairs
from transcheck.pi import (Barb, ExtBarb, In, Nil, Out, Par, PiError, PVar, Repl,
                           Res, bisim, explore, normal_form, parse_pi, print_state,
                           reduce_once, strong_barbs, subst_names, weak_barb)
from transcheck.verdict import Verdict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ------------- the brute-force key (oracle) -------------

def _split(t):
    nus, threads = [], []

    def spine(u):
        match u:
            case Nil():
                pass
            case Par(l, r):
                spine(l)
                spine(r)
            case Res(n, b):
                nus.append(n)
                spine(b)
            case _:
                threads.append(u)

    spine(t)
    return nus, threads


def brute_level(nus, threads, env, depth):
    """Minimum over every numbering of the restricted names."""
    best = None
    for perm in permutations(nus):
        env2 = dict(env)
        env2.update({n: f"r{depth}.{i}" for i, n in enumerate(perm)})
        cand = (len(nus), tuple(sorted(brute_thread(th, env2, depth + 1) for th in threads)))
        if best is None or cand < best:
            best = cand
    return best


def brute_thread(t, env, depth):
    def tok(n):
        return env.get(n, f"f:{n}")

    match t:
        case Out(x, y, k):
            return ("out", tok(x), tok(y), brute_level(*_split(k), env, depth))
        case In(x, z, k):
            return ("in", tok(x), brute_level(*_split(k), {**env, z: f"p{depth}"}, depth + 1))
        case Repl(b):
            return ("repl", brute_level(*_split(b), env, depth))
        case PVar(x):
            return ("pvar", x)
        case ExtBarb(w):
            return ("ext", w)
    raise PiError(f"not a sequential thread: {t!r}")


def brute_key(t):
    """The permutation-search key of t's normal form."""
    s = normal_form(t)
    return brute_level(list(s.restricted), list(s.threads), {}, 0)


def max_level_width(t) -> int:
    """Most restricted names on one level of t's normal form."""
    s = normal_form(t)
    width = len(s.restricted)
    stack = list(s.threads)
    while stack:
        match stack.pop():
            case Out(_, _, k) | In(_, _, k) | Repl(k):
                nus, threads = _split(k)
                width = max(width, len(nus))
                stack.extend(threads)
    return width


# ------------- generated terms -------------

BOUND = "abcdef"
NAMES = st.sampled_from(["a", "b", "c", "d", "e", "f", "x", "p"])


@st.composite
def levels(draw, depth=0, width=6):
    """new <up to width names>. (threads), continuations two levels deep."""
    nus = list(BOUND[:draw(st.integers(0, width if depth == 0 else min(width, 2)))])
    threads = draw(st.lists(threads_at(depth, width), min_size=3 if depth == 0 else 0,
                            max_size=8 if depth == 0 else 2))
    core = Nil()
    for th in threads:
        core = th if isinstance(core, Nil) else Par(core, th)
    for n in reversed(nus):
        core = Res(n, core)
    return core


def threads_at(depth, width):
    leaf = st.builds(Out, NAMES, NAMES, st.just(Nil()))
    if depth >= 2:
        return leaf
    inner = levels(depth + 1, width)
    return st.one_of(leaf, leaf,
                     st.builds(Out, NAMES, NAMES, inner),
                     st.builds(In, NAMES, st.just("p"), inner),
                     st.builds(Repl, inner))


class _Fresh:
    def __init__(self):
        self.i = 0

    def __call__(self):
        self.i += 1
        return f"q{self.i}"


def variant(t, rnd, fresh=None):
    """A structurally congruent spelling of t: every bound name renamed,
    parallel components shuffled, and each restriction placed at a random
    legal scope, from the top down to the smallest one covering its uses."""
    fresh = fresh or _Fresh()
    nus, threads = [], []

    def spine(u):
        match u:
            case Nil():
                pass
            case Par(l, r):
                spine(l)
                spine(r)
            case Res(n, b):
                m = fresh()
                nus.append(m)
                spine(subst_names(b, {n: m}))
            case _:
                threads.append(u)

    spine(t)
    threads = [_variant_thread(th, rnd, fresh) for th in threads]
    if rnd.random() < 0.3:
        threads.append(Nil())
    rnd.shuffle(threads)
    rnd.shuffle(nus)
    # a name may be bound at any suffix of the chain that holds every use
    where = {}
    for n in nus:
        uses = [i for i, th in enumerate(threads) if n in _names(th)]
        where[n] = rnd.randint(0, uses[0]) if uses else 0
    core = threads[-1] if threads else Nil()
    for j in range(len(threads) - 1, -1, -1):
        if j < len(threads) - 1:
            core = Par(threads[j], core)
        for n in nus:
            if where[n] == j:
                core = Res(n, core)
    for n in nus:
        if where[n] == 0 and not threads:
            core = Res(n, core)
    return core


def _variant_thread(t, rnd, fresh):
    match t:
        case Out(x, y, k):
            return Out(x, y, variant(k, rnd, fresh))
        case In(x, z, k):
            z2 = fresh()
            return In(x, z2, variant(subst_names(k, {z: z2}), rnd, fresh))
        case Repl(b):
            return Repl(variant(b, rnd, fresh))
    return t


def _names(t):
    match t:
        case Out(x, y, k):
            return {x, y} | _names(k)
        case In(x, _, k):
            return {x} | _names(k)
        case Par(l, r):
            return _names(l) | _names(r)
        case Res(_, b) | Repl(b):
            return _names(b)
    return set()


def rebind(t, choice):
    """t with each use of a top-level restricted name replaced by a possibly
    different one of them: sometimes congruent to t, often not."""
    nus = []
    while isinstance(t, Res):
        nus.append(t.name)
        t = t.body
    if nus:
        t = subst_names(t, {n: nus[c % len(nus)] for n, c in zip(nus, choice)})
    for n in reversed(nus):
        t = Res(n, t)
    return t


# ------------- differential tests -------------

@settings(max_examples=120, deadline=None)
@given(levels(), st.lists(st.integers(0, 5), min_size=6, max_size=6), st.randoms())
def test_key_equality_matches_brute_force(t, choice, rnd):
    others = [variant(t, rnd), rebind(t, choice), variant(rebind(t, choice), rnd)]
    new, old = normal_form(t).key, brute_key(t)
    assert normal_form(others[0]).key == new
    assert brute_key(others[0]) == old
    for u in others[1:]:
        assert (normal_form(u).key == new) == (brute_key(u) == old)


@settings(max_examples=80, deadline=None)
@given(levels(width=1), st.randoms())
def test_key_is_the_brute_force_key_with_one_name_per_level(t, rnd):
    assert max_level_width(t) <= 1
    assert normal_form(t).key == brute_key(t)
    assert normal_form(variant(t, rnd)).key == brute_key(t)


@settings(max_examples=40, deadline=None)
@given(st.lists(levels(), min_size=2, max_size=4))
def test_key_equality_matches_brute_force_across_terms(ts):
    new = [normal_form(t).key for t in ts]
    old = [brute_key(t) for t in ts]
    for i in range(len(ts)):
        for j in range(i):
            assert (new[i] == new[j]) == (old[i] == old[j])


def test_nested_levels_match_brute_force():
    # a 3-cycle of restricted names under a prefix, outer names in its keys
    text = "new a, b. (a!b | x(p).new c, d, e. (c!d | d!e | e!c | c!a | p!b))"
    t = parse_pi(text)
    for seed in range(3):
        u = variant(t, random.Random(seed))
        assert normal_form(u) == normal_form(t) and brute_key(u) == brute_key(t)
    # the inner cycle reaches the outer pair the other way round
    u = parse_pi(text.replace("c!a", "c!b").replace("p!b", "p!a"))
    assert normal_form(u) != normal_form(t) and brute_key(u) != brute_key(t)


# ------------- many parallel restrictions -------------

def cycles(*lengths):
    """Directed cycles of the given lengths through restricted names."""
    names, threads = [], []
    for n in lengths:
        ring = [f"n{len(names) + i}" for i in range(n)]
        threads += [f"{a}!{b}" for a, b in zip(ring, ring[1:] + ring[:1])]
        names += ring
    return parse_pi(f"new {', '.join(names)}. ({' | '.join(threads)})")


@pytest.mark.parametrize("lengths", [(8,), (5, 3), (12,), (6, 3, 3)],
                         ids=["8", "5+3", "12", "6+3+3"])
def test_many_parallel_restrictions_normalize(lengths):
    # every name sends once and receives once, so refinement alone cannot
    # tell the names apart, nor a union of cycles from a single cycle
    t = cycles(*lengths)
    s = normal_form(t)
    assert len(s.restricted) == sum(lengths)
    again = normal_form(s.term())
    assert again == s and print_state(again) == print_state(s)
    for seed in range(5):
        assert normal_form(variant(t, random.Random(seed))) == s
    if len(lengths) > 1:
        assert s != normal_form(cycles(sum(lengths)))


SHAPES = {  # small graphs with many automorphisms, as edge lists
    "edge": [(0, 1), (1, 0)],
    "path": [(0, 1), (1, 0), (1, 2), (2, 1)],
    "triangle": [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)],
    "ring3": [(0, 1), (1, 2), (2, 0)],
    "square": [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)],
    "star": [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)],
}


def graph(shapes, extra=()):
    """Disjoint union of the shapes on restricted names, plus extra edges
    between the union's names (taken modulo its size)."""
    names, threads = [], []
    for shape in shapes:
        edges = SHAPES[shape]
        size = 1 + max(max(e) for e in edges)
        base = len(names)
        names += [f"n{base + i}" for i in range(size)]
        threads += [f"n{base + a}!n{base + b}" for a, b in edges]
    threads += [f"{names[a % len(names)]}!{names[b % len(names)]}" for a, b in extra]
    return parse_pi(f"new {', '.join(names)}. ({' | '.join(threads)})")


symmetric = st.tuples(st.lists(st.sampled_from(sorted(SHAPES)), min_size=1, max_size=3),
                      st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=2))


@settings(max_examples=60, deadline=None)
@given(symmetric, symmetric, st.randoms())
def test_symmetric_levels_are_canonical(g, h, rnd):
    # refinement leaves large cells here, so the individualization and the
    # automorphism pruning do the work
    t, u = graph(*g), graph(*h)
    key = normal_form(t).key
    for _ in range(3):
        assert normal_form(variant(t, rnd)).key == key
    if max(len(normal_form(t).restricted), len(normal_form(u).restricted)) <= 7:
        assert (normal_form(u).key == key) == (brute_key(u) == brute_key(t))


# ------------- levels split into components -------------

# a thread of a component, over its local names i and j (both may be one)
SHAPED = {
    "out": "{i}!{j}",
    "free": "{i}!x",
    "in": "{i}(p).p!{j}",
    "nested": "x(p).new q. (q!{i} | p!q | q(v).v!{j})",
    "repl": "!{i}(p).(p!{j} | y!p)",
}
NAME_FREE = ["x!y", "y!x", "x(p).p!z", "!y(p).new q. p!q"]


@st.composite
def component(draw, size):
    """Thread shapes over local names 0..size-1: a spanning tree that keeps
    the names linked, and up to two more threads."""
    shape = st.sampled_from(sorted(SHAPED))
    threads = [(draw(shape), i, draw(st.integers(0, i - 1))) for i in range(1, size)]
    threads += draw(st.lists(st.tuples(shape, st.integers(0, size - 1),
                                       st.integers(0, size - 1)),
                             min_size=1 if size == 1 else 0, max_size=2))
    return size, threads


@st.composite
def split_levels(draw):
    """2 to 4 components of 1 to 3 names each, at most 5 names in all so
    that the brute-force key stays cheap, and up to two name-free threads."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(
        lambda sizes: sum(sizes) <= 5))
    comps = [draw(component(size)) for size in sizes]
    return comps, draw(st.lists(st.sampled_from(NAME_FREE), max_size=2))


def split_term(comps, extra, spell="n", rnd=None):
    """new <names>. (threads) with component c's name i spelled
    f"{spell}{c}_{i}"; with rnd, the components, names and threads are
    shuffled first."""
    comps = list(comps)
    if rnd:
        rnd.shuffle(comps)
    names, threads = [], list(extra)
    for c, (size, shaped) in enumerate(comps):
        local = [f"{spell}{c}_{i}" for i in range(size)]
        names += local
        threads += [SHAPED[kind].format(i=local[i], j=local[j]) for kind, i, j in shaped]
    if rnd:
        rnd.shuffle(names)
        rnd.shuffle(threads)
    return parse_pi(f"new {', '.join(names)}. ({' | '.join(threads)})")


def is_split(key):
    return any(entry[0] == "~c" for entry in key[1])


@settings(max_examples=30, deadline=None)
@given(split_levels(), st.lists(st.integers(0, 3), min_size=2, max_size=4),
       st.lists(st.integers(0, 5), min_size=6, max_size=6),
       st.lists(st.sampled_from(NAME_FREE), max_size=2), st.randoms())
def test_split_key_equality_matches_brute_force(level, picks, choice, extra2, rnd):
    comps, extra = level
    t = split_term(comps, extra)
    assert is_split(normal_form(t).key)
    # the components again, some dropped or repeated, at most 5 names; the
    # names rebound; other name-free threads
    chosen = []
    for i in picks:
        if sum(size for size, _ in chosen) + comps[i % len(comps)][0] <= 5:
            chosen.append(comps[i % len(comps)])
    others = [rebind(t, choice), split_term(chosen, extra), split_term(chosen, extra, rnd=rnd),
              split_term(comps, extra2)]
    new, old = normal_form(t).key, brute_key(t)
    for u in others:
        assert (normal_form(u).key == new) == (brute_key(u) == old)


@settings(max_examples=30, deadline=None)
@given(split_levels(), st.randoms())
def test_split_key_ignores_component_order_and_spelling(level, rnd):
    comps, extra = level
    s = normal_form(split_term(comps, extra))
    for spell in ("m", "a"):
        u = split_term(comps, extra, spell, rnd)
        assert normal_form(u) == s
        assert normal_form(variant(u, rnd)) == s
    assert normal_form(s.term()) == s


@settings(max_examples=15, deadline=None)
@given(st.lists(split_levels(), min_size=1, max_size=3), st.lists(levels(), max_size=2))
def test_split_and_whole_keys_compare(split, whole):
    # a split key sorts among whole ones, at the top and under a prefix
    terms = [split_term(*level) for level in split] + whole + [cycles(3), graph(["edge"])]
    terms += [In("x", "p", Par(t, Out("p", "a", Nil()))) for t in terms]
    keys = [normal_form(t).key for t in terms]
    assert any(map(is_split, keys)) and not all(map(is_split, keys))
    assert sorted(keys) == sorted(reversed(keys))


def test_component_keys_depend_on_their_names_and_outer_tokens():
    # one canon keys the same threads as components of other names and under
    # other tokens of their outer names; each answer is a fresh canon's
    threads = [Out("a", "b", Nil()), Out("c", "c", Nil())]
    fns = [frozenset("ab"), frozenset("c")]
    canon = pi._Canon()
    for nus, env in [(["a", "c"], {}), (["b", "c"], {}), (["a", "c"], {"b": "r0.0"}),
                     (["a", "c"], {"b": "p0"}), (["b", "c"], {"a": "p0"})]:
        assert canon.level(nus, threads, fns, env, 1) == pi._Canon().level(
            nus, threads, fns, env, 1)


def old_refine(self, cells):
    """_Search.refine as it was: the whole colouring copied for each name."""
    while True:
        colour = {}
        pos = 0
        for cell in cells:
            for n in cell:
                colour[n] = f"c{self.depth}.{pos}"
            pos += len(cell)
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups = {}
            for n in cell:
                tokens = dict(colour)
                tokens[n] = f"s{self.depth}"
                sig = tuple(sorted(self.key(i, tokens) for i in self.occurs[n]))
                groups.setdefault(sig, []).append(n)
            out.extend(groups[sig] for sig in sorted(groups))
        if len(out) == len(cells):
            return out
        cells = out


def assert_refine_matches_the_copying_refine(terms):
    new = [normal_form(t) for t in terms]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pi._Search, "refine", old_refine)
        old = [normal_form(t) for t in terms]
    assert [s.key for s in new] == [s.key for s in old]
    assert [print_state(s) for s in new] == [print_state(s) for s in old]


@settings(max_examples=20, deadline=None)
@given(levels(), symmetric, split_levels())
def test_refine_matches_the_copying_refine(t, g, level):
    assert_refine_matches_the_copying_refine([t, graph(*g), split_term(*level)])


def test_refine_matches_the_copying_refine_on_hub_levels():
    assert_refine_matches_the_copying_refine([hub(w) for w in (2, 3, 5, 8, 13)])


# ------------- the orbit test of the search (oracle) -------------

def old_same_orbit(w, tried, path, autos):
    """The orbit test the search used before each frame kept its own
    union-find: rebuilt from every automorphism found so far at each call."""
    parent = {}

    def find(n):
        while parent.get(n, n) != n:
            n = parent[n]
        return n

    for g in autos:
        if all(g[v] == v for v in path):
            for a, b in g.items():
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    root = find(w)
    return any(find(u) == root for u in tried)


def wide(w):
    """w outputs in parallel under a prefix: Boudol's translation has a
    level of w restricted names, all symmetric, no two in one thread."""
    return boudol_translate(parse_pi("x(y).(" + " | ".join(["a!b"] * w) + ")"))


def hub(w):
    """wide(w) with the outputs on one restricted name h: Boudol's
    translation has a level of w + 1 names, one component through h, whose
    w names other than h are all symmetric."""
    return boudol_translate(parse_pi("x(y).new h. (" + " | ".join(["h!b"] * w) + ")"))


@contextmanager
def checked_orbits():
    """Check each orbit question of the search, answered by the frame's
    union-find, against the oracle on the same arguments; yield the answers."""
    answers = []
    same = pi._Orbits.same

    def checked(self, w, tried, autos):
        want = old_same_orbit(w, list(tried), self.path, list(autos))
        got = same(self, w, tried, autos)
        assert got == want
        answers.append(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pi._Orbits, "same", checked)
        yield answers


@settings(max_examples=60, deadline=None)
@given(levels(), symmetric)
def test_orbits_match_the_rebuilt_union_find(t, g):
    with checked_orbits():
        normal_form(t)
        normal_form(graph(*g))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_orbits_match_the_rebuilt_union_find_on_random_groups(data):
    # permutations arriving between questions, some fixing the path and
    # some not, as the search finds automorphisms between its questions
    names = [f"n{i}" for i in range(data.draw(st.integers(2, 8)))]
    path = tuple(data.draw(st.lists(st.sampled_from(names), unique=True, max_size=2)))
    free = [n for n in names if n not in path]
    orbits = pi._Orbits(path)
    autos, tried = [], []
    for _ in range(data.draw(st.integers(1, 8))):
        for _ in range(data.draw(st.integers(0, 2))):
            moved = free if data.draw(st.booleans()) else names
            g = dict(zip(names, names))
            g.update(zip(moved, data.draw(st.permutations(moved))))
            autos.append(g)
        w = data.draw(st.sampled_from(names))
        assert orbits.same(w, tried, autos) == old_same_orbit(w, tried, path, autos)
        tried.append(w)


def test_orbits_match_the_rebuilt_union_find_on_wide_levels():
    with checked_orbits() as answers:
        for w in range(2, 21):
            normal_form(hub(w))
    assert True in answers and False in answers


def test_orbit_questions_do_not_rebuild_the_union_find(monkeypatch):
    # at w = 50 the search asks 3,675 orbit questions; rebuilding the
    # union-find for each made 12.4M find calls
    calls = []
    find = pi._Orbits.find

    def counted(self, n):
        calls.append(n)
        return find(self, n)

    monkeypatch.setattr(pi._Orbits, "find", counted)
    normal_form(hub(50))
    assert 0 < len(calls) <= 500_000


def test_orbit_questions_skip_the_fixed_points(monkeypatch):
    # each new automorphism was joined name by name, fixed points included:
    # 381,894 find calls at w = 50, where the moved names alone make 22,038
    calls = []
    find = pi._Orbits.find

    def counted(self, n):
        calls.append(n)
        return find(self, n)

    monkeypatch.setattr(pi._Orbits, "find", counted)
    normal_form(hub(50))
    assert 0 < len(calls) <= 50_000


@contextmanager
def searched():
    """Yield the number of names of each _Search run in the block."""
    widths = []
    best = pi._Search.best

    def counted(self):
        widths.append(len(self.nus))
        return best(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pi._Search, "best", counted)
        yield widths


def test_wide_levels_are_keyed_without_a_wide_search():
    # no two of wide(50)'s 50 names share a thread, so each is a component
    # of its own; searching all 50 at once took about 0.6 s
    with searched() as widths:
        s = normal_form(wide(50))
    assert all(w <= 2 for w in widths)
    assert normal_form(variant(wide(50), random.Random(0))) == s


# ------------- the Boudol family -------------

def boudol(n):
    return boudol_translate(parse_pi(" | ".join(["x!z"] * n + ["x(y).r!y"] * n)))


def product(k):
    return boudol_translate(parse_pi(" | ".join(f"c{i}!a | c{i}(y).d{i}!y" for i in range(k))))


def counts(t):
    g = explore(t, 2000)
    assert g.complete
    return len(g.states), sum(len(e) for e in g.edges.values())


@pytest.mark.parametrize("make, size, states, edges", [
    (boudol, 2, 10, 12), (boudol, 3, 20, 30),
    (product, 2, 16, 24), (product, 3, 64, 144),
])
def test_state_and_edge_counts_unchanged(make, size, states, edges):
    assert counts(make(size)) == (states, edges)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_boudol_frontier_closes(n):
    # a state is the number m of sender/receiver pairs that have met and the
    # multiset of their three protocol phases: C(n+3, 3) states
    states, _ = counts(boudol(n))
    assert states == comb(n + 3, 3)


# ------------- successors from scratch (oracle) -------------

def old_uniquify(t):
    """The recursive binder renaming normal_form did on the whole term: a
    binder keeps its spelling unless it also occurs free, as an input
    parameter, or on another restriction."""
    scan = pi._scan(t)
    clash = scan.free | scan.params | {n for n, c in scan.binders.items() if c > 1}
    if clash.isdisjoint(scan.binders):
        return t
    avoid = scan.names

    def go(u, ren):
        match u:
            case Nil() | PVar(_) | ExtBarb(_):
                return u
            case Out(x, y, k):
                return Out(ren.get(x, x), ren.get(y, y), go(k, ren))
            case In(x, z, k):
                return In(ren.get(x, x), z, go(k, {a: b for a, b in ren.items() if a != z}))
            case Res(n, b):
                m = n if n not in clash else pi._fresh_name(n, avoid)
                clash.add(m)
                avoid.add(m)
                return Res(m, go(b, {**ren, n: m}))
            case Par(l, r):
                return Par(go(l, ren), go(r, ren))
            case Repl(b):
                return Repl(go(b, ren))

    return go(t, {})


def successor_parts(state, send, recv):
    """The restrictions and parts of the successor after the Offer send
    meets recv: the state's other threads, the unconsumed parts of each
    opened copy, and the two continuations."""
    components = [th for i, th in enumerate(state.threads)
                  if i not in {o.top for o in (send, recv) if not o.levels}]
    levels = {}
    for o in (send, recv):
        for lv in o.levels:
            levels.setdefault((o.top, lv.cid), (lv, set()))[1].add(lv.part)
    nus = list(state.restricted)
    for cid in sorted(levels):
        lv, opened = levels[cid]
        nus.extend(lv.nus)
        components += [p for j, p in enumerate(lv.parts) if j not in opened or isinstance(p, Repl)]
    components += [send.cont, subst_names(recv.cont, {recv.param: send.msg})]
    return nus, components


def scratch_successor(state, send, recv):
    """The successor as one term, normalized from scratch by normal_form."""
    nus, components = successor_parts(state, send, recv)
    core = components[0]
    for c in components[1:]:
        core = Par(core, c)
    for n in reversed(nus):
        core = Res(n, core)
    return normal_form(old_uniquify(core))


def scratch_reduce(state):
    offers = [Offer.of((top, row)) for top, th in enumerate(state.threads)
              for row in pi._acts(th).offers]
    succs = {}
    for s in offers:
        for r in offers:
            if s.kind == "send" and r.kind == "recv" and s.chan == r.chan:
                nxt = scratch_successor(state, s, r)
                succs.setdefault(nxt.key, nxt)
    return [succs[k] for k in sorted(succs)]


def reaches_cycle(edges):
    """The states from which an infinite run starts."""
    def reach(k):
        seen, stack = set(), list(edges[k])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(edges[u])
        return seen

    on_cycle = {k for k in edges if k in reach(k)}
    return frozenset(k for k in edges if k in on_cycle or reach(k) & on_cycle)


def scratch_explore(t, budget, input_barbs=False):
    """explore as it was: breadth first in key order, each successor
    normalized from scratch."""
    root = normal_form(old_uniquify(t))
    states, edges = {root.key: root}, {}
    barbs = {root.key: strong_barbs(root, input_barbs)}
    frontier, complete = [root.key], True
    while frontier:
        nxt = []
        for key in sorted(frontier):
            succ_keys = []
            for s in scratch_reduce(states[key]):
                if s.key not in states:
                    if len(states) >= budget:
                        complete = False
                        continue
                    states[s.key] = s
                    barbs[s.key] = strong_barbs(s, input_barbs)
                    nxt.append(s.key)
                succ_keys.append(s.key)
            edges[key] = tuple(sorted(set(succ_keys)))
        frontier = nxt
    return root.key, states, edges, barbs, complete, (
        reaches_cycle(edges) if complete else frozenset())


def assert_explore_matches_scratch(t, budget):
    for input_barbs in (False, True):
        g = explore(t, budget, input_barbs)
        root, states, edges, barbs, complete, divergent = scratch_explore(t, budget, input_barbs)
        assert g.root == root
        assert list(g.states) == list(states)
        assert [print_state(s) for s in g.states.values()] == [
            print_state(s) for s in states.values()]
        assert g.edges == edges and list(g.edges) == list(edges)
        assert g.barbs == barbs
        assert g.complete == complete and g.divergent == divergent


def pair_family(k):
    return parse_pi(" | ".join(f"c{i}!a | c{i}(y).d{i}!y" for i in range(k)))


# replication copies whose restrictions meet the state's own, so that binders
# are respelled on the way up
RESPELLED = [
    "new t. (x!z | t!c | !t(y).t!y)",
    "!new a. (x!a | a(y).y!b) | x(u).u!c | x(u).new a. a!u",
    "new a. (a!b | !new a. (x!a | a(v).v!a)) | x(u).u!u | x(a).a!a",
    "!x(u).new v. (u!v | !v(w).new u. w!u) | new v. x!v | x!v",
    "new u. (x!u | u(v).v!z) | x(u).u!v | !new u. x!u",
    "new y. x!y | x(y).y!b | !x(v).new v. v!v",
]


@settings(max_examples=60, deadline=None)
@given(levels())
def test_binders_are_respelled_as_on_the_whole_term(t):
    for u in (t, Par(t, parse_pi("new y. x!y | x(y).(y!b | new b. y!b)"))):
        s, again = normal_form(u), normal_form(old_uniquify(u))
        assert s.key == again.key and print_state(s) == print_state(again)


@settings(max_examples=60, deadline=None)
@given(levels(), st.sampled_from([1, 5, 17, 40]))
def test_explore_matches_successors_from_scratch(t, budget):
    assert_explore_matches_scratch(t, budget)


@pytest.mark.parametrize("make, sizes", [
    (boudol, [1, 2, 3, 4]), (product, [1, 2, 3]), (pair_family, [1, 2, 3, 4, 5, 6]),
], ids=["boudol", "product", "pairs"])
@pytest.mark.parametrize("budget", [1, 5, 17, 2000])
def test_explore_matches_scratch_on_the_families(make, sizes, budget):
    for n in sizes:
        assert_explore_matches_scratch(make(n), budget)


@pytest.mark.parametrize("budget", [1, 5, 17, 60])
def test_explore_matches_scratch_where_copies_are_respelled(budget):
    pairs = load_pairs((FIXTURES / "pi" / "lattice_pairs.txt").read_text())
    for text in RESPELLED + [side for pair in pairs for side in pair]:
        assert_explore_matches_scratch(parse_pi(text), budget)


def test_reduce_once_matches_scratch_on_hand_built_states():
    # threads that are not in normal form, and a level whose restriction is
    # not at its top, as a caller may build them
    state = normal_form(parse_pi("x!a | x(y).(y!b | new y. y!y) | !x(z).new z. z!z"))
    odd = pi.PiState(("a",), (
        In("x", "y", Par(Out("y", "a", Nil()), Res("a", Out("a", "y", Nil())))),
        Out("x", "a", Res("b", Par(Out("b", "a", Nil()), Nil()))),
        Repl(Par(In("x", "a", Out("a", "a", Nil())), Res("a", Out("x", "a", Nil())))),
    ), ())
    # no restricted names, but no canon made it: its successors are not
    # merged into its threads and its key
    plain = pi.PiState((), (
        In("x", "y", Par(Out("y", "b", Nil()), Out("c", "y", Nil()))),
        Out("x", "a", Nil()), Out("x", "a", Nil()),
    ), ())
    for s in (state, odd, plain):
        got, want = reduce_once(s), scratch_reduce(s)
        assert [x.key for x in got] == [x.key for x in want]
        assert [print_state(x) for x in got] == [print_state(x) for x in want]


def test_explore_normalizes_each_thread_structure_once(monkeypatch):
    # the pair family at k=6 has about 20 distinct threads; normalizing the
    # whole of each successor from scratch took 2,130 thread normalizations
    calls = []
    work = pi._Canon.normalize_thread

    def counted(self, t):
        calls.append(t)
        return work(self, t)

    monkeypatch.setattr(pi._Canon, "normalize_thread", counted)
    g = explore(pair_family(6), 1000)
    assert (len(g.states), sum(len(e) for e in g.edges.values())) == (64, 192)
    assert len(calls) <= 100


def test_explore_searches_only_small_components():
    # Boudol's pairs never share a thread, so no search holds more than one
    # pair's names; searching each successor's names all at once took 631
    # searches of up to 12 names at n = 6
    with searched() as widths:
        g = explore(boudol(6), 2000)
    assert (len(g.states), sum(len(e) for e in g.edges.values())) == (84, 168)
    assert max(widths) <= 2
    assert 0 < len(widths) <= 36


# ------------- successors merged into their parent -------------

@contextmanager
def counting(owner, name):
    """Yield the list of calls made in the block to owner.name, each as its
    arguments and result."""
    calls = []
    work = getattr(owner, name)

    def counted(*args):
        out = work(*args)
        calls.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, counted)
        yield calls


def assert_successors_match_state(t, budget=2000):
    """Each successor explore builds from t, merged or not, is the one that
    _Canon().state makes of the same parts: the same restrictions, threads
    in the same order, and the same key."""
    with counting(pi, "_successor") as built:
        explore(t, budget)
    for (_, state, send, recv), got in built:
        want = pi._Canon().state(*successor_parts(state, Offer.of(send), Offer.of(recv)))
        assert (got.restricted, got.threads, got.key) == (want.restricted, want.threads, want.key)


def unrestricted(t):
    """t without its top-level restrictions, their names left free."""
    while isinstance(t, Res):
        t = t.body
    return t


@st.composite
def with_repeats(draw, terms):
    """A drawn term with copies of some of its threads beside it, so that
    merged threads meet kept ones with equal keys."""
    t = draw(terms)
    _, threads = pi._split_level(t)
    for th in draw(st.lists(st.sampled_from(threads), max_size=4)):
        t = Par(t, th)
    return t


@settings(max_examples=120, deadline=None)
@given(st.one_of(levels(), with_repeats(levels()), levels().map(unrestricted),
                 with_repeats(levels(width=0))))
def test_merged_successors_match_the_full_state(t):
    assert_successors_match_state(t, 17)


@pytest.mark.parametrize("t, budget", [
    (pair_family(6), 2000), (boudol(3), 2000),
    # equal threads, and threads with equal keys spelled apart: a merged
    # e!a.new m. m!m goes after the kept e!a.new n. n!n
    (parse_pi("x!a | x!a | x(y).(y!b | y!b) | x(y).(y!b | y!b) | c!a.x(y).0 | c(u).x!u"
              " | e!a.new n. n!n | d!a | d(y).e!a.new m. m!m"), 2000),
    # one step opens a copy of each of two replications; no end of states
    (parse_pi("!(x!a | z!b) | !(x(y).y!c | w!d)"), 40),
], ids=["pairs", "boudol", "ties", "copies"])
def test_merged_successors_match_the_full_state_on_the_families(t, budget):
    assert_successors_match_state(t, budget)


def test_merged_successors_match_the_full_state_on_the_fixtures():
    pairs = load_pairs((FIXTURES / "pi" / "lattice_pairs.txt").read_text())
    lines = (FIXTURES / "pi" / "encoding_terms.txt").read_text().splitlines()
    terms = [parse_pi(s) for s in lines if s.strip() and not s.startswith("#")]
    for t in [parse_pi(side) for pair in pairs for side in pair] + terms:
        for u in (t, boudol_translate(t)):
            assert_successors_match_state(u, 500)


def test_a_respelled_parameter_takes_the_full_path():
    # m is received where y(m) binds it, so the substitution respells that
    # parameter m2, which the restriction new m2 already spells: only the
    # full path respells the restriction too
    t = parse_pi("x!m | x(z).y(m).z!m | a!b.new m2. m2!c")
    assert_successors_match_state(t)
    with counting(pi._Canon, "merge") as merged:
        succs = reduce_once(normal_form(t))
    assert merged == []
    assert [print_state(s) for s in succs] == ["y(m2).m!m2 | a!b.new m22. m22!c"]


def test_explore_rekeys_only_the_new_threads_of_unrestricted_states():
    # the pair family has no restriction anywhere: only the root is
    # normalized whole, and each of its 192 successors is merged; no two of
    # its threads have equal keys, so no state stands one thread for another
    with counting(pi._Canon, "state") as whole, counting(pi._Canon, "merge") as merged, \
            counting(pi, "_reps") as reps:
        g = explore(pair_family(6), 1000)
    assert (len(g.states), sum(len(e) for e in g.edges.values())) == (64, 192)
    assert len(whole) == 1 and len(merged) == 192
    assert reps == []
    # every Boudol state restricts the names of its protocol, and each
    # successor's level stays split into one component per pair: only the
    # root is normalized whole, and one pair of each orbit is merged, one
    # per edge (every pair made 57 and 630 merges)
    for n, states, edges in ((3, 20, 30), (6, 84, 168)):
        with counting(pi._Canon, "state") as whole, counting(pi._Canon, "merge") as merged:
            g = explore(boudol(n), 2000)
        assert (len(g.states), sum(len(e) for e in g.edges.values())) == (states, edges)
        assert len(whole) == 1 and len(merged) == edges
        assert all(out is not None for _, out in merged)


def split(level):
    return split_term(*level)


@settings(max_examples=60, deadline=None)
@given(st.one_of(split_levels().map(split), with_repeats(split_levels().map(split))))
def test_merged_successors_of_split_levels_match_the_full_state(t):
    assert_successors_match_state(t, 17)


def assert_merged(t, budget=2000):
    """assert_successors_match_state, where some successor is merged."""
    with counting(pi._Canon, "merge") as merged:
        assert_successors_match_state(t, budget)
    assert any(out is not None for _, out in merged)


@pytest.mark.parametrize("t", [
    # equal components: ties go by the position of each one's first name
    boudol(4), product(3),
    # x!a meets x(u).b!u: a is extruded into b's component, which then holds
    # a and b; c!g meets c(w).0 and leaves c unused
    parse_pi("new a, b, c. (x!a | a!e | x(u).b!u | b(v).v!f | c!g | c(w).0)"),
    # x!a.b!e meets x(u).0: a and b, linked only by the sender, split apart
    parse_pi("new a, b, c. (x!a.b!e | a!f | b!g | x(u).0 | c!h | c(w).0 | c!h)"),
    # a continuation that lifts two restrictions into two components, one
    # of them with a name of the sender's component
    parse_pi("new a, c. (x!a | x(u).new p, q. (p!u | q!q | q(v).0) | a!e | c!e | c(w).0)"),
    # a lifted component equal to c's goes after it
    parse_pi("new a, c. (x!e | x(u).new p. (p!u | p(w).0) | a!e | c!e | c(w).0)"),
    # a's kept threads have equal keys, and keep their order
    parse_pi("new a, c. (x!a | x(u).0 | a!e.new n. n!n | a!e.new m. m!m | c!e | c(w).0)"),
], ids=["boudol4", "product3", "extruded", "split", "lifted", "lifted-tie", "kept-ties"])
def test_merged_successors_match_the_full_state_on_split_levels(t):
    assert_merged(t)


def test_a_respelled_parameter_of_a_split_level_takes_the_full_path():
    # m is received where y(m) binds it, so subst respells that parameter
    # m2, which the restriction new m2 in a's component already spells: only
    # state respells that restriction too
    t = parse_pi("new a, d. (x!m | x(z).y(m).z!m | a!b.new m2. m2!a | d!e)")
    assert is_split(normal_form(t).key)
    with counting(pi._Canon, "state") as whole, counting(pi._Canon, "merge") as merged:
        g = explore(t, 2000)
    assert merged == [] and len(whole) == 2
    assert [print_state(s) for s in g.states.values()][1] == (
        "new a, d. (y(m2).m!m2 | a!b.new m22. m22!a | d!e)")
    assert_successors_match_state(t)


# ------------- one met pair per orbit -------------

def every_pair_reduce(state):
    """reduce_once as it was: every met (send, receive) pair stepped, the
    duplicate keys dropped afterwards."""
    canon = state._canon or pi._Canon()
    sends, recvs = [], {}
    for top, th in enumerate(state.threads):
        for row in canon.acts[th].offers:
            if row[0] == "send":
                sends.append((top, row))
            else:
                recvs.setdefault(row[1], []).append((top, row))
    succs = {}
    for send in sends:
        for recv in recvs.get(send[1][1], []):
            nxt = pi._successor(canon, state, send, recv)
            succs.setdefault(nxt.key, nxt)
    return [succs[k] for k in sorted(succs)]


@contextmanager
def every_pair():
    """explore and bisim stepping every met pair."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pi, "reduce_once", every_pair_reduce)
        yield


def graph_view(g):
    return (g.root, g.order(), [print_state(s) for s in g.states.values()], g.edges,
            list(g.edges), g.barbs, g.complete, g.divergent)


def assert_orbits_match_every_pair(t, budget=2000):
    """explore at budget, and at half the states it admits there, is what
    stepping every met pair gives, with output and with input barbs."""
    size = len(explore(t, budget).states)
    for b in sorted({budget, max(1, size // 2)}):
        for input_barbs in (False, True):
            got = graph_view(explore(t, b, input_barbs))
            with every_pair():
                want = graph_view(explore(t, b, input_barbs))
            assert got == want


def assert_bisim_matches_every_pair(p, q, budget=300):
    for kind in pi.BISIM_KINDS:
        got = bisim(p, q, kind, budget)
        with every_pair():
            want = bisim(p, q, kind, budget)
        assert (got.status, got.note) == (want.status, want.note)


# the same thread twice, one side of a pair from each copy or both from one:
# replicated outside threads with no names, replicated twins in a component,
# equal components whose sender meets its own receiver or the other's, and
# twin components that are restricted replications
TWINS = [
    "x!a | x!a | !x(y).y!b",
    "!(x!a | x(y).y!b) | !(x!a | x(y).y!b)",
    "new c, d. (!(c!a | c(y).y!b) | !(c!a | c(y).y!b) | d!e)",
    "new a. (x!a | x(y).a!y) | new a. (x!a | x(y).a!y)",
    "new a. (x!a | x(y).a!y | a(z).0) | new a. (x!a | x(y).a!y | a(z).0) | x!c",
    "new t. (t!c | !t(y).t!y) | new t. (t!c | !t(y).t!y) | x!a | x(y).0",
]


def fixture_terms():
    pairs = load_pairs((FIXTURES / "pi" / "lattice_pairs.txt").read_text())
    lines = (FIXTURES / "pi" / "encoding_terms.txt").read_text().splitlines()
    return [parse_pi(side) for pair in pairs for side in pair] + [
        parse_pi(s) for s in lines if s.strip() and not s.startswith("#")]


def test_twin_threads_and_entries_stand_for_the_first():
    # sorted, d's component of one thread comes first, then c's, whose two
    # replications are twins
    state = normal_form(parse_pi(TWINS[2]))
    assert state._spans().reps == [0, 1, 1]
    # two equal components of two threads each: each thread of the second
    # stands for the thread at its offset in the first
    state = normal_form(parse_pi(TWINS[3]))
    assert state._spans().reps == [0, 1, 0, 1]
    # k independent pairs: every thread stands for itself
    assert normal_form(pair_family(3))._spans().reps is None
    # a state that no canon made has no spans, so every pair is stepped
    assert hand_built(state)._spans() is None


# ------------- a state carries the canon that made it -------------

def test_explore_of_a_normal_form_is_explore_of_its_term():
    # a normal form carries its canon, so the root's successors are merged
    # as they are from explore's own root; from a hand-built root they are
    # keyed whole, and every graph is the same, closed or not
    terms = ([boudol(n) for n in range(1, 5)] + [pair_family(k) for k in range(1, 7)]
             + [parse_pi(t) for t in TWINS] + fixture_terms())
    for t in terms:
        for input_barbs in (False, True):
            want = graph_view(explore(t, 100, input_barbs))
            assert graph_view(explore(normal_form(t), 100, input_barbs)) == want
            assert graph_view(explore(hand_built(normal_form(t)), 100, input_barbs)) == want


def test_the_successors_of_a_normal_form_are_merged():
    root = normal_form(boudol(3))
    with counting(pi._Canon, "state") as whole, counting(pi._Canon, "merge") as merged:
        succs = reduce_once(root)
    # the three senders and three receivers of Boudol n = 3 meet in one orbit
    assert whole == [] and len(merged) == len(succs) == 1
    assert all(s._canon is root._canon for s in succs)
    # a hand-built state is never merged: every met pair is keyed whole
    with counting(pi._Canon, "state") as whole, counting(pi._Canon, "merge") as merged:
        again = reduce_once(hand_built(root))
    assert [out for _, out in merged] == [None] * len(whole) and len(whole) == 9
    assert ([(s.restricted, s.threads, s.key) for s in again]
            == [(s.restricted, s.threads, s.key) for s in succs])


@pytest.mark.parametrize("text", TWINS)
def test_one_pair_per_orbit_matches_every_pair_on_twins(text):
    t = parse_pi(text)
    with counting(pi, "_successor") as stepped:
        explore(t, 60)
    with every_pair(), counting(pi, "_successor") as every:
        explore(t, 60)
    assert len(stepped) < len(every)
    assert_orbits_match_every_pair(t, 60)
    assert_orbits_match_every_pair(boudol_translate(t), 60)


@pytest.mark.parametrize("make, sizes", [
    (boudol, [1, 2, 3, 4, 5, 6]), (product, [1, 2, 3]), (pair_family, [6]),
], ids=["boudol", "product", "pairs"])
def test_one_pair_per_orbit_matches_every_pair_on_the_families(make, sizes):
    for n in sizes:
        assert_orbits_match_every_pair(make(n))


def test_one_pair_per_orbit_matches_every_pair_on_the_fixtures():
    for t in fixture_terms():
        for u in (t, boudol_translate(t)):
            assert_orbits_match_every_pair(u, 500)


def test_bisim_with_one_pair_per_orbit_matches_every_pair():
    pairs = [tuple(map(parse_pi, pair)) for pair in
             load_pairs((FIXTURES / "pi" / "lattice_pairs.txt").read_text())]
    pairs += [(t, boudol_translate(t)) for t in fixture_terms()]
    # the twins whose graphs close; the others grow a copy per step
    pairs += [(parse_pi(text), boudol_translate(parse_pi(text)))
              for text in TWINS if explore(parse_pi(text), 300).complete]
    pairs += [(parse_pi(TWINS[0]), parse_pi("x!a | !x(y).y!b")),
              (parse_pi(TWINS[3]), parse_pi("new a. (x!a | x(y).a!y)")),
              (product(2), product(3)), (product(2), pair_family(2))]
    for n in range(1, 5):
        source = parse_pi(" | ".join(["x!z"] * n + ["x(y).r!y"] * n))
        pairs += [(boudol(n), source), (boudol(n), boudol(n + 1))]
    for p, q in pairs:
        assert_bisim_matches_every_pair(p, q)


@st.composite
def with_twin_components(draw):
    """A level split into components, with copies of some of them beside
    the originals under names of their own."""
    comps, extra = draw(split_levels())
    twins = draw(st.lists(st.sampled_from(comps), min_size=1, max_size=2))
    return split_term(comps + twins, extra)


@settings(max_examples=25, deadline=None)
@given(st.one_of(with_repeats(levels()), with_repeats(levels().map(unrestricted)),
                 levels().map(lambda t: Par(t, t)), with_twin_components()))
def test_one_pair_per_orbit_matches_every_pair_on_duplicated_components(t):
    assert_orbits_match_every_pair(t, 40)
    assert_bisim_matches_every_pair(t, Par(t, t), 40)


# ------------- one canon for both sides of bisim -------------

def per_side_bisim(p, q, kind, budget, input_barbs=False):
    """bisim as it was: a canon for each graph and one for q's root, and the
    union built from the two graphs' dicts by state key."""
    g1 = explore(p, budget, input_barbs)
    root2 = normal_form(q)
    g2 = g1 if root2.key == g1.root else explore(root2, budget, input_barbs)
    if not (g1.complete and g2.complete):
        return Verdict("inconclusive", note="state budget exhausted before both graphs closed")
    if g1 is g2:
        return Verdict("yes")
    states = {**g1.states, **g2.states}
    keys = list(states)
    index = {k: i for i, k in enumerate(keys)}
    edges, barbs = {**g1.edges, **g2.edges}, {**g1.barbs, **g2.barbs}
    g = pi._Graph([[index[v] for v in edges[k]] for k in keys], [barbs[k] for k in keys])
    a, b = (index[k] for k in sorted((g1.root, g2.root)))
    rounds = pi._refinement(g, kind)
    before = next(rounds)
    for block in rounds:
        if block[a] != block[b]:
            break
        before = block
    else:
        return Verdict("yes")

    def show(i):
        return print_state(states[keys[i]])

    for part in chain((before, block), rounds):
        def related(x, y):
            return part[x] == part[y] or (x, y) in ((a, b), (b, a))

        msg = (pi._violation(g, kind, a, b, related, show)
               or pi._violation(g, kind, b, a, related, show))
        if msg:
            return Verdict("no", note=msg)
    return Verdict("no", note="root states distinguished")


def assert_one_canon_matches_fresh_ones(p, q, budget, input_barbs=False):
    """explore of q by a canon that explored p first, from a root that canon
    made, is explore of q by a fresh canon; and bisim, which explores both
    by one canon, gives per_side_bisim's verdicts and reasons."""
    canon = pi._Canon()
    explore(canon.state([], [p]), budget, input_barbs)
    shared = explore(canon.state([], [q]), budget, input_barbs)
    fresh = explore(q, budget, input_barbs)
    assert shared.root == fresh.root and list(shared.states) == list(fresh.states)
    assert shared.order() == fresh.order() == list(fresh.states)
    assert ([print_state(s) for s in shared.states.values()]
            == [print_state(s) for s in fresh.states.values()])
    assert shared.edges == fresh.edges and list(shared.edges) == list(fresh.edges)
    assert shared.barbs == fresh.barbs
    assert shared.complete == fresh.complete and shared.divergent == fresh.divergent
    for kind in pi.BISIM_KINDS:
        got, want = bisim(p, q, kind, budget, input_barbs), per_side_bisim(
            p, q, kind, budget, input_barbs)
        assert (got.status, got.note) == (want.status, want.note)


def renamed_last_pair(k):
    """pair_family(k) with its last d renamed to e."""
    comps = [f"c{i}!a | c{i}(y).d{i}!y" for i in range(k)]
    return parse_pi(" | ".join(comps[:-1] + [f"c{k - 1}!a | c{k - 1}(y).e!y"]))


def one_canon_pairs():
    """The lattice pairs, k pairs against k pairs with one output renamed and
    against k - 1 pairs (k <= 6), n Boudol senders and receivers against
    their source (n <= 3), and a pair whose sides spell one state apart: the
    strong reason shows it as the second side spells it."""
    pairs = [tuple(map(parse_pi, pair)) for pair in
             load_pairs((FIXTURES / "pi" / "lattice_pairs.txt").read_text())]
    pairs.append((parse_pi("new x. (x!a | x(y).new n. n!y)"), parse_pi("new m. m!a")))
    for k in range(1, 7):
        fewer = pair_family(k - 1) if k > 1 else parse_pi("0")
        pairs += [(pair_family(k), renamed_last_pair(k)), (pair_family(k), fewer)]
    for n in range(1, 4):
        source = parse_pi(" | ".join(["x!z"] * n + ["x(y).r!y"] * n))
        pairs.append((boudol_translate(source), source))
    return pairs


def test_one_canon_matches_fresh_ones_on_the_families():
    for p, q in one_canon_pairs():
        assert_one_canon_matches_fresh_ones(p, q, 300)
        assert_one_canon_matches_fresh_ones(q, p, 300, input_barbs=True)


@settings(max_examples=25, deadline=None)
@given(st.one_of(levels(), with_repeats(levels())), st.one_of(levels(), levels().map(unrestricted)),
       st.sampled_from([5, 40]), st.booleans())
def test_one_canon_matches_fresh_ones(p, q, budget, input_barbs):
    assert_one_canon_matches_fresh_ones(p, q, budget, input_barbs)


# ------------- weak barbs on the fly -------------

def old_weak_barb(t, barb, budget, graph=explore):
    """weak_barb as it was: the whole reduction graph within the budget,
    then a look for the barb among its states."""
    g = graph(t, budget, input_barbs=barb.kind == "in")
    if any(barb in bs for bs in g.barbs.values()):
        return "yes"
    return "no" if g.complete else "inconclusive"


# external barbs behind a communication and behind a replicated input
OBSERVERS = parse_pi("x(p).@w | !a(p).@v")


def assert_weak_barbs_match(t, budgets):
    """weak_barb against the oracle at each budget, on every barb that a
    state within the largest budget shows and on one barb of each kind that
    none shows."""
    graph = cache(explore)  # one graph per budget and barb kind for the oracle
    shown = set().union(*graph(t, max(budgets), input_barbs=True).barbs.values())
    barbs = sorted(shown | {Barb(kind, "zz") for kind in ("out", "in", "ext")})
    for budget in budgets:
        for barb in barbs:
            assert weak_barb(t, barb, budget) == old_weak_barb(t, barb, budget, graph)


@settings(max_examples=25, deadline=None)
@given(levels(), st.booleans())
def test_weak_barb_matches_the_whole_graph(t, observed):
    assert_weak_barbs_match(Par(t, OBSERVERS) if observed else t, [1, 2, 5, 17, 40])


@pytest.mark.parametrize("make, sizes", [
    (boudol, [1, 2, 3, 4]), (product, [1, 2, 3]), (pair_family, [1, 2, 3, 4]),
], ids=["boudol", "product", "pairs"])
def test_weak_barb_matches_the_whole_graph_on_the_families(make, sizes):
    for n in sizes:
        t = make(n)
        assert explore(t, 2000).complete
        assert_weak_barbs_match(t, [1, 2, 5, 17, 2000])


@pytest.mark.parametrize("budget", [1, 2, 5, 17, 500])
def test_observe_and_the_cli_match_the_whole_graph(cli, budget):
    contexts = ["X | x(u).u!v", "x(y).x(y).r!s | X", "new x. (X | x(p).@w)"]
    subjects = ["x!z | x!z", "x!z.x!z", "new u. (x!u | u(v).v!z)",
                " | ".join(["x!z"] * 2 + ["x(y).r!y"] * 2)]
    barbs = [Barb("out", "r"), Barb("out", "v"), Barb("in", "x"), Barb("ext", "w")]
    for ctx in contexts:
        for src in subjects:
            for barb in barbs:
                probe = ContextProbe(parse_pi(ctx), boudol_translate(parse_pi(src)), barb)
                want = old_weak_barb(probe.plugged(), barb, budget)
                assert probe.observe(budget) == want
                assert cli("pi", "weak-barb", src, str(barb), "--context", ctx, "--boudol",
                           "--budget", str(budget)) == (EXIT[want], want + "\n", "")


def test_weak_barb_checks_the_root_before_it_looks():
    shown = parse_pi("x!a | X")
    with pytest.raises(PiError, match="budget"):
        weak_barb(parse_pi("x!a"), Barb("out", "x"), 0)
    with pytest.raises(PiError, match="free process variables"):
        weak_barb(shown, Barb("out", "x"), 5)
    with pytest.raises(PiError, match="free process variables"):
        old_weak_barb(shown, Barb("out", "x"), 5)


def test_weak_barb_stops_at_the_first_state_with_the_barb(monkeypatch):
    # Boudol at n = 6 has C(9, 3) = 84 states; r! shows after 3 expansions
    calls = []
    expand = pi.reduce_once

    def counted(state):
        calls.append(state.key)
        return expand(state)

    monkeypatch.setattr(pi, "reduce_once", counted)
    assert weak_barb(boudol(6), Barb("out", "r"), 2000) == "yes"
    assert 0 < len(calls) <= 3


# ------------- offer rows paired in place; a state hashed once -------------

def offer_reduce_once(state):
    """reduce_once as it was before it paired offer rows in place: an Offer
    made for each side of a met pair, the orbit read through its place
    property, and the successors gathered by key."""
    canon = state._canon or pi._Canon()
    spans = state._spans()
    reps = spans and spans.reps
    sends, recvs = [], {}
    for top, th in enumerate(state.threads):
        for row in canon.acts[th].offers:
            if row[0] == "send":
                sends.append((top, row))
            else:
                recvs.setdefault(row[1], []).append((top, row))
    met, succs, stepped = {}, {}, set()
    for top, row in sends:
        chan = row[1]
        if chan not in recvs:
            continue
        if chan not in met:
            met[chan] = [Offer.of(pair) for pair in recvs[chan]]
        s = Offer.of((top, row))
        for r in met[chan]:
            if reps:
                orbit = (reps[top], s.place, reps[r.top], r.place,
                         spans.owner[top] == spans.owner[r.top], top == r.top)
                if orbit in stepped:
                    continue
                stepped.add(orbit)
            nxt = pi._successor(canon, state, s.pair(), r.pair())
            succs.setdefault(nxt.key, nxt)
    return [s for _, s in sorted(succs.items(), key=itemgetter(0))]


def stepped_view(step, *args):
    """step(*args) with the calls it made to the canon's state and merge."""
    with counting(pi._Canon, "state") as whole, counting(pi._Canon, "merge") as merged:
        out = step(*args)
    return out, len(whole), len(merged)


def fields(states):
    return [(s.restricted, s.threads, s.key) for s in states]


def assert_pairing_matches_offers(t, budget):
    """explore, with and without input barbs, admits the same states with
    the same fields and edges as with the Offer loop, with as many calls to
    the canon's state and merge; and on each state it admits, reduce_once
    gives the Offer loop's successors in its order, with as many calls."""
    for input_barbs in (False, True):
        g, whole, merged = stepped_view(explore, t, budget, input_barbs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pi, "reduce_once", offer_reduce_once)
            want, *calls = stepped_view(explore, t, budget, input_barbs)
        assert (graph_view(g), fields(g._nodes), whole, merged) == (
            graph_view(want), fields(want._nodes), *calls)
    for s in g._nodes:
        got, *calls = stepped_view(reduce_once, s)
        want, *old_calls = stepped_view(offer_reduce_once, s)
        assert (fields(got), calls) == (fields(want), old_calls)


# twin replications whose copies each offer two sends, told apart by their
# places; two receives that give one key, each spelled its own way
PAIRED = ["!(x!a | x!b) | !(x!a | x!b) | x(y).y!c",
          "x!a | x(y).new b. b!y | x(y).new c. c!y | x!a"]


@pytest.mark.parametrize("t, budget", [
    *[(boudol(n), 2000) for n in range(1, 5)], *[(pair_family(k), 2000) for k in range(1, 7)],
    *[(parse_pi(text), 60) for text in TWINS + PAIRED],
], ids=[*(f"boudol{n}" for n in range(1, 5)), *(f"pairs{k}" for k in range(1, 7)),
        *(f"twins{i}" for i in range(len(TWINS))), "places", "spellings"])
def test_pairing_in_place_matches_the_offer_loop(t, budget):
    assert_pairing_matches_offers(t, budget)


def test_pairing_in_place_matches_the_offer_loop_on_the_fixtures():
    for t in fixture_terms():
        for u in (t, boudol_translate(t)):
            assert_pairing_matches_offers(u, 300)


class CountedKey(tuple):
    """A key that counts how often it is hashed."""
    hashed = 0

    def __hash__(self):
        CountedKey.hashed += 1
        return tuple.__hash__(self)


def test_a_state_is_slotted_and_hashed_once_by_its_key():
    for t in (boudol(3), pair_family(3), parse_pi(TWINS[3]), parse_pi("x!a | X")):
        made = normal_form(t)
        built = hand_built(made)
        for s in (made, built):
            assert not hasattr(s, "__dict__")
            assert hash(s) == hash(s.key)
        # equal by key whoever made them: one entry in a set or a dict
        assert made == built and made is not built and made._canon and not built._canon
        assert len({made, built}) == 1 and {made: 1, built: 2} == {made: 2}
        assert made != made.key and made not in {made.key}
    # the key is hashed when the state is built, and never again
    made = normal_form(boudol(2))
    CountedKey.hashed = 0
    s = pi.PiState(made.restricted, made.threads, CountedKey(made.key))
    assert CountedKey.hashed == 1
    assert s in {made} and {s: 0, made: 1} == {made: 1} and hash(s) == hash(made)
    assert CountedKey.hashed == 1


def test_a_state_pickled_under_another_hash_seed_is_hashed_again():
    text = "new a. (x!a | x(y).y!b) | c!d"
    code = ("import pickle, sys; from transcheck.pi import normal_form, parse_pi; "
            f"sys.stdout.buffer.write(pickle.dumps(normal_form(parse_pi({text!r}))))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    s = pickle.loads(run.stdout)
    assert hash(s) == hash(s.key) and s in {normal_form(parse_pi(text))}
    assert fields(reduce_once(s)) == fields(reduce_once(normal_form(parse_pi(text))))


def test_explore_keeps_its_dicts_keyed_by_state_key():
    for t in (boudol(3), pair_family(3), parse_pi(TWINS[0])):
        g = explore(t, 40)
        keys = g.order()
        assert all(type(k) is tuple for k in keys) and g.root == keys[0]
        assert list(g.states) == keys and [s.key for s in g.states.values()] == keys
        assert list(g.barbs) == keys
        assert all(type(k) is tuple and all(type(j) is tuple for j in succ)
                   for k, succ in g.edges.items())
        assert all(type(k) is tuple for k in g.divergent) and g.divergent <= set(keys)
        assert_explore_matches_scratch(t, 40)


def test_free_process_variables_are_refused_from_every_root():
    t = parse_pi("new a. (a!b | !a(y).Y) | x!a.X")
    message = r"free process variables: \['X', 'Y'\]"
    for root in (t, normal_form(t), hand_built(normal_form(t))):
        with pytest.raises(PiError, match=message):
            explore(root, 5)
        with pytest.raises(PiError, match=message):
            weak_barb(root, Barb("out", "x"), 5)
    with pytest.raises(PiError, match=r"free process variables: \['X'\]"):
        bisim(parse_pi("x!a"), parse_pi("x!a | X"), "strong-barbed", 5)


def test_explore_reads_the_root_term_from_the_canon_scan():
    # the canon scans the root term to normalize it; the check for free
    # process variables reads that scan, and scans none of the root's threads,
    # in explore and for both roots of bisim
    t, u = pair_family(3), pair_family(2)
    for run, roots in [(lambda: explore(t, 100), (t,)),
                       (lambda: bisim(t, u, "weak-barbed", 100), (t, u))]:
        with counting(pi, "_scan") as scanned:
            run()
        terms = [args[0] for args, _ in scanned]
        assert [terms.count(r) for r in roots] == [1] * len(roots)
        assert not {th for r in roots for th in normal_form(r).threads} & set(terms)


# ------------- two frames per nested prefix -------------

def deepest(run) -> int:
    """The most Python frames open at once under run()."""
    depth = top = 0

    def count(_frame, event, _arg):
        nonlocal depth, top
        if event == "call":
            depth += 1
            top = max(top, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return top


@pytest.mark.parametrize("prefix, tail", [("x!a.", "0"), ("x(y).", "y!a.0"), ("!", "x!a.0")])
def test_the_canon_takes_two_frames_per_nested_prefix(prefix, tail):
    # normalizing a prefix went through four methods and keying it through
    # five frames, so 50 more prefixes went 250 frames deeper
    short, long = (parse_pi(prefix * n + tail) for n in (50, 100))
    assert deepest(lambda: normal_form(long)) - deepest(lambda: normal_form(short)) <= 2 * 50
