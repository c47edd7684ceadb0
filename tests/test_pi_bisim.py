"""Barbed bisimilarities: the partition-refinement engine against the pairwise
greatest fixpoint it replaced, the divergence pass against the loop it
replaced, the reasons, and the state-space frontier."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transcheck import pi
from transcheck.encodings import boudol_translate, load_pairs
from transcheck.pi import (BISIM_KINDS, Barb, In, Nil, Out, Par, PiError, Repl, Res,
                           _Canon, _compare, _divergent, _Graph, _groups, _refinement,
                           _union, bisim, closed_state, explore, parse_pi,
                           subst_names, weak_barb)

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


# ------------- independent groups -------------

def product_bisim(p, q, kind, budget, input_barbs=False):
    """bisim's verdict by the product path alone: both graphs explored
    whole, refined on their union."""
    g1, g2 = explore(p, budget, input_barbs), explore(q, budget, input_barbs)
    if not (g1.complete and g2.complete):
        return "inconclusive"
    g, _, r2 = _union(g1, g2)
    *_, block = _refinement(g, kind)
    return "bisimilar" if block[0] == block[r2] else "not"


def product_weak_barb(p, barb, budget):
    """weak_barb's answer by a search of the whole graph."""
    g = explore(p, budget, barb.kind == "in")
    if any(barb in bs for bs in g.barbs.values()):
        return "yes"
    return "no" if g.complete else "inconclusive"


def group_count(t):
    groups = _groups(closed_state(t, _Canon()))
    return 1 if groups is None else len(groups)


def renamed_pairs(k, j):
    """The k pairs with the sent name a renamed to b in the first j pairs:
    b is never a subject either, so the result is bisimilar to the pairs
    under every barbed kind, and its first j groups have keys of their own."""
    return parse_pi(" | ".join(f"c{i}!{'b' if i < j else 'a'} | c{i}(y).d{i}!y"
                               for i in range(k)))


def assert_as_product(p, q, budgets, barbs=()):
    for budget in budgets:
        for kind in BISIM_KINDS:
            assert bisim(p, q, kind, budget).result == product_bisim(p, q, kind, budget), \
                (kind, budget)
        for barb in barbs:
            assert weak_barb(p, barb, budget) == product_weak_barb(p, barb, budget), \
                (barb, budget)


@pytest.mark.parametrize("k", range(2, 9))
def test_groups_answer_as_the_product_on_pairs(k):
    p, q = independent_pairs(k)
    size = 2 ** k
    barbs = [Barb("out", f"d{k - 1}"), Barb("out", "e"), Barb("in", "c0"), Barb("out", "a")]
    for other in (p, q, renamed_pairs(k, k // 2), renamed_pairs(k, k)):
        assert_as_product(p, other, (size - 1, size, size + 1), barbs)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_groups_answer_as_the_product_on_boudol_products(k):
    p = independent_pairs(k)[0]
    tp = boudol_translate(p)
    assert group_count(tp) == k
    size = 4 ** k
    barbs = [Barb("out", "d0"), Barb("out", "e"), Barb("in", "c0")]
    for other in (tp, p, boudol_translate(renamed_pairs(k, 1))):
        assert_as_product(tp, other, (size - 1, size, size + 1), barbs)


def apart(t, i):
    """t with each of its free names n spelled n<i>, so that parts spelled
    apart share no free name."""
    return subst_names(t, {n: f"{n}{i}" for n in pi.free_names(t)})


@settings(max_examples=40, deadline=None)
@given(st.lists(small_terms(), min_size=2, max_size=4), st.lists(small_terms(), min_size=2,
                                                                   max_size=4),
       st.booleans(), st.integers(1, 60))
def test_groups_answer_as_the_product_on_random_products(left, right, spelled_apart, budget):
    # parts spelled apart are independent; parts that share names may be too
    if spelled_apart:
        left = [apart(t, i) for i, t in enumerate(left)]
        right = [apart(t, i) for i, t in enumerate(right)]
    p, q = (parse_pi(" | ".join(f"({pi.print_pi(t)})" for t in ts)) for ts in (left, right))
    barbs = [Barb("out", "a"), Barb("out", "a0"), Barb("in", "x1")]
    assert_as_product(p, p, (budget,), barbs)
    assert_as_product(p, q, (budget,), barbs)
    assert_as_product(p, parse_pi(" | ".join(f"({pi.print_pi(t)})" for t in reversed(left))),
                      (budget,))


@pytest.mark.parametrize("text", [
    "a!c | a(x).x!b | c(y).0",  # a received name later used as a subject
    "new r. (a!r | r(y).0) | a(x).x!b",  # an extruded restriction
    "!a(x).x!b | a!c | c(y).0",  # a replicated learner
    "a!c | !a(x).x(y).0 | c!d",
    "x!z | x(y).y!w",
])
def test_threads_that_may_meet_stay_one_group(text):
    assert group_count(parse_pi(text)) == 1


@pytest.mark.parametrize("text, groups", [
    ("new r. (r!a | r(y).y!c) | new s. (s!a | s(y).y!c)", 2),
    ("x!z.new r. (r!a | r(y).0) | x!z.new r. (r!a | r(y).0)", 2),
    # each thread's parameter y stands for what that thread receives
    ("a!p | a(y).y!c | b!q | b(y).y(w).0", 2),
    ("c!a | c(y).d!y", 1),
    ("@done | x!z", 2),
    # a name only sent on, or only received on, links nothing
    ("x!a | x!b", 2),
    ("x(y).y!a | x(z).z!b", 2),
])
def test_threads_that_never_meet_split(text, groups):
    assert group_count(parse_pi(text)) == groups


@pytest.mark.parametrize("k", range(2, 9))
def test_pairs_and_boudol_products_split_into_their_pairs(k):
    p = independent_pairs(k)[0]
    assert group_count(p) == k
    if k <= 4:
        assert group_count(boudol_translate(p)) == k


def assert_groups_keyed_as_their_terms(t):
    canon = _Canon()
    groups = _groups(closed_state(t, canon)) or []
    for g in groups:
        assert closed_state(g.term(), canon).key == g.key


@pytest.mark.parametrize("k", [2, 3, 6])
def test_group_keys_are_the_keys_of_their_terms(k):
    p = independent_pairs(k)[0]
    assert_groups_keyed_as_their_terms(p)
    assert_groups_keyed_as_their_terms(renamed_pairs(k, 1))
    if k <= 3:
        assert_groups_keyed_as_their_terms(boudol_translate(p))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_terms(), min_size=2, max_size=4), st.booleans())
def test_group_keys_are_the_keys_of_their_terms_on_random_products(parts, spelled_apart):
    if spelled_apart:
        parts = [apart(t, i) for i, t in enumerate(parts)]
    assert_groups_keyed_as_their_terms(parse_pi(" | ".join(f"({pi.print_pi(t)})" for t in parts)))


@pytest.mark.parametrize("kind", BISIM_KINDS)
def test_groups_answer_only_where_the_product_would_close(monkeypatch, kind):
    # pairs k = 6: 64 states, six groups of 2
    p = independent_pairs(6)[0]
    sizes = []

    def counting(*args, **kwargs):
        g = explore(*args, **kwargs)
        sizes.append(len(g.states))
        return g

    monkeypatch.setattr(pi, "explore", counting)
    assert bisim(p, p, kind, 63).result == "inconclusive"
    # the sixth group may have 63 // 32 states: it stops at one
    assert sizes == [2] * 5 + [1, 63]
    sizes.clear()
    assert bisim(p, p, kind, 64).result == "bisimilar"
    assert sizes == [2] * 6
    sizes.clear()
    assert weak_barb(p, Barb("out", "d5"), 64) == "yes"
    assert weak_barb(p, Barb("out", "e"), 64) == "no"
    assert sizes == [2] * 12


@pytest.mark.parametrize("k", [2, 3])
def test_alike_groups_that_do_not_fit_leave_the_whole_to_decide(k):
    # k alike groups of 2 states: the whole graph is k + 1 multisets of
    # them, so it closes within budgets where the product of 2 ** k does not
    p = parse_pi(" | ".join(["new r. (r!a | r(y).y!c)"] * k))
    assert group_count(p) == k
    assert len(explore(p, 100).states) == k + 1
    for budget in range(1, 2 ** k + 1):
        for kind in BISIM_KINDS:
            assert bisim(p, p, kind, budget).result == product_bisim(p, p, kind, budget), \
                (kind, budget)
    assert bisim(p, p, "strong-barbed", k + 1).result == "bisimilar"


def test_a_group_that_does_not_close_stops_within_its_share(monkeypatch):
    # the second group grows without end; the first has 2 states, so the
    # second may have at most budget // 2
    grows = "!x(y).(x!y | x!y) | x!z"
    p = parse_pi(f"c!a | c(y).d!y | {grows}")
    assert group_count(p) == 2
    sizes = []

    def counting(*args, **kwargs):
        g = explore(*args, **kwargs)
        sizes.append((len(g.states), g.complete))
        return g

    monkeypatch.setattr(pi, "explore", counting)
    assert weak_barb(p, Barb("out", "d"), 200) == "yes"
    assert weak_barb(p, Barb("out", "e"), 200) == "inconclusive"
    assert sizes == [(2, True), (100, False)] * 2
    sizes.clear()
    assert bisim(p, p, "strong-barbed", 200).result == "inconclusive"
    assert sizes == [(2, True), (100, False), (200, False)]
    sizes.clear()
    # a root that shows the barb answers before any group is explored
    assert weak_barb(parse_pi(f"d!a | {grows}"), Barb("out", "d"), 200) == "yes"
    assert sizes == []
    monkeypatch.undo()
    for budget in (1, 2, 3, 50):
        for barb in (Barb("out", "d"), Barb("out", "e"), Barb("in", "x")):
            assert weak_barb(p, barb, budget) == product_weak_barb(p, barb, budget)


def test_a_budget_below_1_raises_before_any_analysis(monkeypatch):
    def refuse(_):
        raise AssertionError("analysed")

    monkeypatch.setattr(pi, "_groups", refuse)
    p = independent_pairs(3)[0]
    for kind in BISIM_KINDS:
        with pytest.raises(PiError, match="budget must be >= 1"):
            bisim(p, p, kind, 0)
    with pytest.raises(PiError, match="budget must be >= 1"):
        weak_barb(p, Barb("out", "d0"), 0)


# ------------- deep keys -------------

def nested(draw_leaf, depth):
    return st.recursive(draw_leaf, lambda kids: st.lists(kids, max_size=3).map(tuple),
                        max_leaves=depth)


@settings(max_examples=300, deadline=None)
@given(nested(st.sampled_from(["a", "b", "f:x"]), 12), nested(st.sampled_from(["a", "b"]), 12))
def test_compare_orders_as_tuples_do(a, b):
    if not (isinstance(a, tuple) and isinstance(b, tuple)):
        return
    try:
        want = (a > b) - (a < b)
    except TypeError:  # a string against a tuple: no order
        with pytest.raises(TypeError):
            _compare(a, b)
        return
    assert _compare(a, b) == want
    assert _compare(a, a) == 0


def test_bisim_compares_keys_deeper_than_the_interpreter_does():
    # x(y). and x(z). chains of 450 prefixes have equal keys that share no
    # tuple, nested three per prefix: comparing them recursed past the
    # interpreter's limit
    p, q = parse_pi("x(y)." * 450 + "0"), parse_pi("x(z)." * 450 + "0")
    a, b = (closed_state(t, _Canon()).key for t in (p, q))
    with pytest.raises(RecursionError):
        _ = a == b
    assert _compare(a, b) == 0
    assert bisim(p, q, "strong-barbed", 10).result == "bisimilar"
    assert bisim(p, parse_pi("x(y)." * 449 + "y!a"), "strong-barbed", 10).result == "bisimilar"
    assert bisim(p, parse_pi("x(y)." * 449 + "x!a"), "strong-barbed", 10).result == "bisimilar"
