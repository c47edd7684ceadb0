"""Barbed bisimilarities: the partition-refinement engine against the pairwise
greatest fixpoint it replaced, the divergence pass against the loop it
replaced, the reasons, and the state-space frontier."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transcheck import pi
from transcheck.encodings import load_pairs
from transcheck.pi import (BISIM_KINDS, Barb, In, Nil, Out, Par, Repl, Res,
                           _divergent, _Graph, _refinement, bisim, explore,
                           parse_pi)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ------------- the pairwise greatest fixpoint (oracle) -------------

def old_weak_closure(keys, edges):
    reach = {}
    for k in keys:
        seen = {k}
        stack = [k]
        while stack:
            u = stack.pop()
            for v in edges[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach[k] = seen
    return reach


def old_divergent(keys, edges):
    """The seed's divergence loop: states on a cycle, closed backwards."""
    div = set()
    for k in keys:
        seen = set()
        stack = list(edges[k])
        while stack:
            u = stack.pop()
            if u == k:
                div.add(k)
                break
            if u in seen:
                continue
            seen.add(u)
            stack.extend(edges[u])
    changed = True
    while changed:
        changed = False
        for k in keys:
            if k not in div and any(u in div for u in edges[k]):
                div.add(k)
                changed = True
    return div


def old_has_avoiding_lasso(start, avoid, edges):
    if start in avoid:
        return False
    seen = set()
    stack = [start]
    reach = set()
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        for v in edges[u]:
            if v not in avoid:
                reach.add(v)
                stack.append(v)
    pool = {start} | reach
    for k in pool:
        seen2 = set()
        stack = [v for v in edges[k] if v in pool]
        while stack:
            u = stack.pop()
            if u == k:
                return True
            if u in seen2 or u not in pool:
                continue
            seen2.add(u)
            stack.extend(v for v in edges[u] if v in pool)
    return False


def pairwise(keys, edges, barbs, kind):
    """The related pairs (a <= b) of the greatest fixpoint, swept pair by pair
    until no pair is removed."""
    keys = sorted(keys)
    weak = old_weak_closure(keys, edges)
    div = old_divergent(keys, edges)
    rel = {(a, b) for a in keys for b in keys if a <= b}

    def related(a, b):
        return ((a, b) if a <= b else (b, a)) in rel

    def violation(u, v):
        if kind == "strong-barbed":
            if any(w not in barbs[v] for w in barbs[u]):
                return True
            return any(not any(related(u2, v2) for v2 in edges[v]) for u2 in edges[u])
        if kind == "weak-barbed":
            if any(not any(w in barbs[v2] for v2 in weak[v]) for w in barbs[u]):
                return True
            return any(not any(related(u2, v2) for v2 in weak[v]) for u2 in edges[u])
        for w in barbs[u]:
            if not any(related(u, v2) and w in barbs[v2] for v2 in weak[v]):
                return True
        for u2 in edges[u]:
            if not any(related(u, vd) and (related(u2, vd) or any(related(u2, v2)
                                                                  for v2 in edges[vd]))
                       for vd in weak[v]):
                return True
        if kind == "dp-branching-barbed":
            rescued = {s for s in keys if any(related(s, v2) for v2 in edges[v])}
            if old_has_avoiding_lasso(u, rescued, edges):
                return True
        if kind == "wdp-branching-barbed":
            if u in div and v not in div:
                return True
        return False

    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            a, b = pair
            if violation(a, b) or violation(b, a):
                rel.discard(pair)
                changed = True
    return rel


def final_partition(keys, edges, barbs, kind):
    index = {k: i for i, k in enumerate(keys)}
    g = _Graph([[index[v] for v in edges[k]] for k in keys], [barbs[k] for k in keys])
    *_, last = _refinement(g, kind)
    return {k: last[i] for i, k in enumerate(keys)}


# ------------- random graphs -------------

BARBS = [Barb("out", "a"), Barb("out", "b"), Barb("in", "a")]


@st.composite
def graphs(draw):
    """Up to 7 states with any successor sets (self-loops and cycles
    included) and overlapping barbs from a pool of three."""
    n = draw(st.integers(1, 7))
    keys = list(range(n))
    edges = {k: tuple(sorted(draw(st.sets(st.sampled_from(keys), max_size=3))))
             for k in keys}
    barbs = {k: frozenset(draw(st.sets(st.sampled_from(BARBS), max_size=2))) for k in keys}
    return keys, edges, barbs


@pytest.mark.parametrize("kind", BISIM_KINDS)
@settings(max_examples=150, deadline=None)
@given(graphs())
def test_refinement_matches_pairwise_fixpoint(kind, graph):
    keys, edges, barbs = graph
    rel = pairwise(keys, edges, barbs, kind)
    block = final_partition(keys, edges, barbs, kind)
    for a in keys:
        for b in keys:
            if a <= b:
                assert ((a, b) in rel) == (block[a] == block[b]), (a, b)


# hand-made shapes: a tau-cycle, a divergent sink (self-loop) and a
# non-divergent sink, with the same barbs everywhere
SHAPES = {
    "cycle vs sink": ([0, 1, 2], {0: (1,), 1: (0,), 2: ()}),
    "self-loop vs sink": ([0, 1], {0: (0,), 1: ()}),
    "cycle exit vs sink": ([0, 1, 2, 3], {0: (1,), 1: (0, 2), 2: (), 3: (2,)}),
    "lasso vs chain": ([0, 1, 2, 3, 4], {0: (1,), 1: (1, 2), 2: (), 3: (4,), 4: (2,)}),
}


@pytest.mark.parametrize("kind", BISIM_KINDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_refinement_on_divergence_shapes(kind, shape):
    keys, edges = SHAPES[shape]
    barbs = {k: frozenset({BARBS[0]}) for k in keys}
    rel = pairwise(keys, edges, barbs, kind)
    block = final_partition(keys, edges, barbs, kind)
    assert {(a, b) for a in keys for b in keys if a <= b and block[a] == block[b]} == rel


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_scc_divergence_matches_old_loop(graph):
    keys, edges, _ = graph
    div = _divergent([list(edges[k]) for k in keys])
    assert {k for k in keys if div[k]} == old_divergent(keys, edges)


# ------------- random processes -------------

NAMES = st.sampled_from(["a", "b", "x"])


def small_terms():
    def extend(kids):
        return st.one_of(st.builds(Out, NAMES, NAMES, kids), st.builds(In, NAMES, NAMES, kids),
                         st.builds(Par, kids, kids), st.builds(Res, NAMES, kids),
                         st.builds(Repl, kids))

    base = st.one_of(st.just(Nil()), st.builds(Out, NAMES, NAMES, st.just(Nil())))
    return st.recursive(base, extend, max_leaves=5)


@settings(max_examples=80, deadline=None)
@given(small_terms())
def test_explore_divergence_matches_old_loop(t):
    g = explore(t, 40)
    if g.complete:
        assert g.divergent == old_divergent(list(g.states), g.edges)
    else:
        assert g.divergent == frozenset()


def test_explore_computes_divergence_on_first_read(monkeypatch):
    calls = []
    tarjan = pi._components

    def counted(succ):
        calls.append(len(succ))
        return tarjan(succ)

    monkeypatch.setattr(pi, "_components", counted)
    g = explore(parse_pi("new t. (x!z | t!c | !t(y).t!y) | x(y).0"), 100)
    assert g.complete and calls == []
    div = g.divergent
    assert g.divergent is div and len(calls) == 1
    assert div == old_divergent(list(g.states), g.edges) and div
    # neither graph's divergence is computed for a kind that does not read it
    p, q = (parse_pi(s) for s in ("new t. (x!z | t!c | !t(y).t!y)", "x!z"))
    assert bisim(p, q, "strong-barbed", 100).result == "not"
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(small_terms(), small_terms())
def test_bisim_matches_pairwise_fixpoint_on_processes(p, q):
    g1, g2 = explore(p, 40), explore(q, 40)
    if not (g1.complete and g2.complete):
        return
    keys = list({**g1.states, **g2.states})
    edges, barbs = {**g1.edges, **g2.edges}, {**g1.barbs, **g2.barbs}
    for kind in BISIM_KINDS:
        rel = pairwise(keys, edges, barbs, kind)
        v = bisim(p, q, kind, 40)
        assert v.result == ("bisimilar" if tuple(sorted((g1.root, g2.root))) in rel else "not")
        if v.result == "not":
            assert v.note != "root states distinguished"


@pytest.mark.parametrize("kind", BISIM_KINDS)
@pytest.mark.parametrize("left, right, budget, result", [
    ("x!z | x(y).y!w", "x!z | x(y).y!w", 100, "bisimilar"),
    ("new a. (a!b | a(c).c!w)", "new d. (d!b | d(e).e!w)", 100, "bisimilar"),
    ("new t. (t!t | !t(s).t!s)", "new t. (t!t | !t(s).t!s)", 100, "bisimilar"),
    ("x!a.x!a.x!a | !x(y).0", "x!a.x!a.x!a | !x(y).0", 2, "inconclusive"),
])
def test_bisim_explores_one_normal_form_once(monkeypatch, kind, left, right, budget, result):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return explore(*args, **kwargs)

    monkeypatch.setattr(pi, "explore", counting)
    assert bisim(parse_pi(left), parse_pi(right), kind, budget).result == result
    assert len(calls) == 1
    assert bisim(parse_pi(left), parse_pi("x!z"), kind, budget).result != "bisimilar"
    assert len(calls) == 3


# ------------- reasons -------------

def independent_pairs(k):
    """k pairs c_i!a | c_i(y).d_i!y, and the same with the last d renamed to
    e: 2^k states each, never bisimilar because only the first shows d_(k-1)!."""
    comps = [f"c{i}!a | c{i}(y).d{i}!y" for i in range(k)]
    p = parse_pi(" | ".join(comps))
    q = parse_pi(" | ".join(comps[:-1] + [f"c{k - 1}!a | c{k - 1}(y).e!y"]))
    return p, q


@pytest.mark.parametrize("kind", ["branching-barbed", "dp-branching-barbed",
                                  "wdp-branching-barbed"])
def test_branching_reason_names_the_step(kind):
    p, q = independent_pairs(4)
    v = bisim(p, q, kind, 100)
    assert v.result == "not"
    assert v.note.startswith("step ")
    assert "violates the branching condition" in v.note


def test_wdp_reason_names_the_divergence():
    pairs = load_pairs((FIXTURES / "pi" / "lattice_pairs.txt").read_text())
    p, q = (parse_pi(s) for s in pairs[4])
    v = bisim(p, q, "wdp-branching-barbed", 300)
    assert v.result == "not"
    assert v.note == "new t. (x!z | t!c | !t(y).t!y) diverges but x!z does not"


# ------------- frontier -------------

@pytest.mark.parametrize("kind", BISIM_KINDS)
def test_seven_independent_pairs(kind):
    p, q = independent_pairs(7)
    assert len(explore(p, 200).states) == 128
    assert bisim(p, p, kind, 200).result == "bisimilar"
    assert bisim(p, q, kind, 200).result == "not"
