"""The closure search of check_valid_upto and the depth-first bT search of
check_preserves against the exhaustive searches they replaced."""

import json
import random
import time
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transcheck import finlang
from transcheck.finlang import (FiniteLanguage, InputError, Operator, Relation,
                                SemanticTranslation, check_correct_wrt, check_preserves,
                                check_respects, check_valid_upto, denote, load_language,
                                load_relation, load_translation)
from transcheck.terms import App, Var, complete_compositional, translation
from transcheck.verdict import Verdict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------- the replaced searches, kept as oracles ----------

def subset_search(tr, lang, lang2, rel, cap=2 ** 20) -> Verdict:
    """Every subset of the related target x source pairs by increasing size;
    the first total one the translation is correct for is the witness."""
    if not lang.values:
        return Verdict("yes", SemanticTranslation("R", ()), "vacuous: no source values")
    pool = sorted((w, v) for w in lang2.values for v in lang.values
                  if rel.related(lang2.qualify(w), lang.qualify(v)))
    considered = 0
    for size in range(1, len(pool) + 1):
        for subset in combinations(pool, size):
            considered += 1
            if considered > cap:
                return Verdict("inconclusive", note=f"inconclusive: candidate cap {cap} exceeded")
            if {v for _, v in subset} != set(lang.values):
                continue
            r = SemanticTranslation("R", tuple(
                (lang2.qualify(w), lang.qualify(v)) for w, v in subset))
            if check_correct_wrt(tr, lang, lang2, r).holds:
                return Verdict("yes", r)
    return Verdict("no", note=f"exhausted {considered} candidates")


def full_scan(tr, lang, lang2, depth, **bounds):
    """The last yield of _preserve_reps: the scan with every level built,
    where check_preserves stops at the first level that settles."""
    *_, last = finlang._preserve_reps(tr, lang, lang2, depth, **bounds)
    return last


def product_preserves(tr, lang, lang2, rel, depth) -> Verdict:
    """check_preserves trying every bT in product order, each on all rows."""
    if not lang.values:
        return Verdict("yes", {}, "preserves")
    if not lang2.values:
        return Verdict("no")
    reps, _, rows_src, img_index, exhausted = full_scan(tr, lang, lang2, depth)
    cands = [[w for w in lang2.values if rel.related(lang2.qualify(w), lang.qualify(v))]
             for v in lang.values]
    for combo in product(*cands):
        bt = dict(zip(lang.values, combo))
        if all(rel.related(lang2.qualify(img[img_index[tuple(bt[v] for v in row)]]),
                           lang.qualify(src[i]))
               for src, img in reps for i, row in enumerate(rows_src)):
            certified = exhausted or homomorphism_certificate(tr, lang, lang2, bt)
            return Verdict("yes", bt, "preserves" if certified else f"holds-to-depth {depth}")
    return Verdict("no")


def homomorphism_certificate(tr, lang, lang2, bt) -> bool:
    """Image meanings commute with bT on every head; implies preservation for
    all terms by induction.  check_preserves now asks check_correct_wrt
    whether T is correct w.r.t. the graph of bT instead."""
    for _, head, image in finlang._heads(tr):
        for rho in finlang.valuations(finlang._joint_vars(lang, lang2, head, image),
                                      lang.values):
            eta = {x: bt[v] for x, v in rho.items()}
            if denote(lang2, image, eta) != bt[denote(lang, head, rho)]:
                return False
    return True


def same_answer(new: Verdict, old: Verdict) -> bool:
    return (new.status, new.witness, new.note) == (old.status, old.witness, old.note)


@pytest.fixture
def scans(monkeypatch):
    """Each behaviour scan run from now on, as the list of its levels that
    were pulled, each as (behaviours built so far, exhausted flag)."""
    out = []
    real = finlang._preserve_reps

    def recording(*args, **kwargs):
        levels = []
        out.append(levels)
        for level in real(*args, **kwargs):
            levels.append((len(level[0]), level[4]))
            yield level

    monkeypatch.setattr(finlang, "_preserve_reps", recording)
    return out


# ---------- instances ----------

def suite_instances(seed: int, trials: int):
    """The (translation, source, target, relation) instances property_suite
    draws with this seed: T1 from L1 to L2 and T2 from L2 to L3."""
    rnd = random.Random(seed)
    for _ in range(trials):
        l1, l2, l3 = (finlang._random_language(rnd, n) for n in ("L1", "L2", "L3"))
        rel = finlang._random_equivalence(
            rnd, l1.qualified_values + l2.qualified_values + l3.qualified_values)
        t1 = finlang._random_translation(rnd, l1, l2)
        t2 = finlang._random_translation(rnd, l2, l3)
        if t1 is None or t2 is None:
            continue
        for tr, src, tgt in ((t1, l1, l2), (t2, l2, l3)):
            yield tr, src, tgt, rel.restricted(set(src.qualified_values)
                                               | set(tgt.qualified_values))


SUITE = list(suite_instances(7, 1000))


def two_valued(src_ops, tgt_ops, heads, pairs):
    """S and T over the values 0 and 1 with operators (name, arity, table as
    in a language file), the head map heads, and the preorder relating T.w
    to S.v for each (w, v) in pairs."""
    def lang(name, ops):
        return load_language({"name": name, "values": ["0", "1"], "operators": [
            {"name": n, "arity": a, "table": t} for n, a, t in ops]})
    src, tgt = lang("S", src_ops), lang("T", tgt_ops)
    carrier = src.qualified_values + tgt.qualified_values
    rel = Relation("sim", "preorder", tuple(sorted(carrier)),
                   frozenset((f"T.{w}", f"S.{v}") for w, v in pairs)
                   | {(c, c) for c in carrier})
    tr = load_translation({"source": "S", "target": "T", "heads": heads}, src, tgt)
    return tr, src, tgt, rel


def fixture(name):
    d = FIXTURES / name
    src = load_language(json.loads((d / "L.json").read_text()))
    tgt = load_language(json.loads((d / "Lp.json").read_text()))
    rel = load_relation(json.loads((d / "sim.json").read_text()))
    return load_translation(json.loads((d / "T.json").read_text()), src, tgt), src, tgt, rel


def parity(n: int):
    """Z_n against Z_n, s |-> s(s(X1)), ~ relating values of equal parity."""
    vals = [str(i) for i in range(n)]

    def lang(name):
        return load_language({"name": name, "values": vals, "operators": [
            {"name": "s", "arity": 1, "table": {v: str((int(v) + 1) % n) for v in vals}}]})

    src, tgt = lang(f"z{n}"), lang(f"z{n}p")
    rel = load_relation({"kind": "equivalence",
                         "carrier": list(src.qualified_values + tgt.qualified_values),
                         "pairs": [[src.qualify(v), tgt.qualify(v)] for v in vals]
                         + [[src.qualify(str(i)), src.qualify(str(i + 2))]
                            for i in range(n - 2)]})
    tr = load_translation({"source": src.name, "target": tgt.name,
                           "heads": {"s": "s(s(X1))"}}, src, tgt)
    return tr, src, tgt, rel


@st.composite
def instances(draw):
    """Languages with an arity-2 operator each, a relation drawn pair by pair
    over target x source, and head images that may use the variable Y, which
    no head binds; at least one image does."""

    def language(name):
        values = tuple(f"v{i}" for i in range(draw(st.integers(1, 3))))
        arities = draw(st.lists(st.integers(0, 2), max_size=2)) + [2]
        return FiniteLanguage(name, values, tuple(
            Operator(f"f{j}", a, {args: draw(st.sampled_from(values))
                                  for args in product(values, repeat=a)})
            for j, a in enumerate(arities)))

    src, tgt = language("S"), language("T")
    cross = [(tgt.qualify(w), src.qualify(v)) for w in tgt.values for v in src.values]
    carrier = src.qualified_values + tgt.qualified_values
    pairs = draw(st.sets(st.sampled_from(cross)))
    rel = Relation("sim", "preorder", tuple(sorted(carrier)),
                   frozenset(pairs) | {(c, c) for c in carrier})
    consts = [App(op.name, (), ()) for op in tgt.operators if op.arity == 0]

    def image(arity, budget):
        leaves = [Var(f"X{i + 1}") for i in range(arity)] + [Var("Y")] + consts
        if budget == 0 or draw(st.booleans()):
            return draw(st.sampled_from(leaves))
        op = draw(st.sampled_from([op for op in tgt.operators if op.arity > 0]))
        return App(op.name, (), tuple(image(arity, budget - 1) for _ in range(op.arity)))

    heads = {op.name: image(op.arity, 2) for op in src.operators}
    binary = next(op.name for op in tgt.operators if op.arity == 2)
    forced = draw(st.sampled_from(sorted(heads)))
    heads[forced] = App(binary, (), (Var("Y"), heads[forced]))
    return translation(src.signature, tgt.signature, heads), src, tgt, rel


# ---------- check_valid_upto ----------

def test_closure_search_matches_subset_search_on_suite_instances():
    assert len(SUITE) >= 1000
    valid = 0
    for inst in SUITE:
        new, old = check_valid_upto(*inst), subset_search(*inst)
        assert same_answer(new, old), inst
        valid += new.holds
    assert valid >= 100  # valid instances are well represented, not only "no"


@settings(max_examples=300, deadline=None)
@given(instances())
def test_closure_search_matches_subset_search_with_image_only_variables(inst):
    assert same_answer(check_valid_upto(*inst), subset_search(*inst))


@pytest.mark.parametrize("name", ["negtop", "cycle4", "mod3", "samecopy"])
def test_closure_search_matches_subset_search_on_fixtures(name):
    inst = fixture(name)
    assert same_answer(check_valid_upto(*inst), subset_search(*inst))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_closure_search_matches_subset_search_on_parity(n):
    inst = parity(n)
    new = check_valid_upto(*inst)
    assert same_answer(new, subset_search(*inst))
    assert (new.status, new.note) == ("no", f"exhausted {2 ** (n * n // 2) - 1} candidates")


def test_cap_bounds_the_closures_computed():
    # Z_4: the closure of no choice, then the two choices for 0, both leaving ~
    assert check_valid_upto(*parity(4)).checked == 3
    for cap in (0, 1, 2):
        v = check_valid_upto(*parity(4), cap=cap)
        assert (v.status, v.note) == ("inconclusive", f"inconclusive: candidate cap {cap} exceeded")
        assert v.checked == cap
    assert check_valid_upto(*parity(4), cap=3).status == "no"


# ---------- check_preserves ----------

def graph(lang, lang2, bt) -> SemanticTranslation:
    """The semantic translation {(bT(v), v)}."""
    return SemanticTranslation("bT", tuple(sorted(
        (lang2.qualify(w), lang.qualify(v)) for v, w in bt.items())))


def certificate_agrees(tr, lang, lang2) -> tuple[int, int]:
    """Compare the certificate with correctness w.r.t. the graph of bT for
    every map bT from the source values to the target values; return how
    many maps were compared and how many held."""
    cases = held = 0
    for combo in product(lang2.values, repeat=len(lang.values)):
        bt = dict(zip(lang.values, combo))
        old = homomorphism_certificate(tr, lang, lang2, bt)
        assert check_correct_wrt(tr, lang, lang2, graph(lang, lang2, bt)).holds == old, (tr, bt)
        cases, held = cases + 1, held + old
    return cases, held


def test_the_certificate_is_correctness_wrt_the_graph_of_bt_on_suite_instances():
    cases, held = map(sum, zip(*(certificate_agrees(*inst[:3]) for inst in SUITE)))
    assert (cases, held) == (6169, 1424)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_the_certificate_is_correctness_wrt_the_graph_of_bt_with_image_only_variables(inst):
    certificate_agrees(*inst[:3])


def test_depth_first_bt_matches_product_order_on_suite_instances():
    found = 0
    for inst in SUITE[::2]:
        new, old = check_preserves(*inst, depth=3), product_preserves(*inst, depth=3)
        assert same_answer(new, old), inst
        found += new.holds
    assert found >= 50


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_early_stop_matches_the_full_scan_on_suite_seeds(seed):
    # the scan stops at the first level that settles; the oracle scans to
    # the end and tries every bT in product order
    statuses = set()
    for inst in suite_instances(seed, 100):
        new = check_preserves(*inst, depth=3)
        assert same_answer(new, product_preserves(*inst, depth=3)), inst
        statuses.add((new.status, new.note))
    assert {("no", ""), ("yes", "preserves")} <= statuses


@settings(max_examples=100, deadline=None)
@given(instances())
def test_depth_first_bt_matches_product_order_with_image_only_variables(inst):
    assert same_answer(check_preserves(*inst, depth=2), product_preserves(*inst, depth=2))


@settings(max_examples=50, deadline=None)
@given(instances())
def test_early_stop_matches_the_full_scan_at_depth_3_with_image_only_variables(inst):
    assert same_answer(check_preserves(*inst, depth=3), product_preserves(*inst, depth=3))


def test_a_no_at_the_leaves_stops_the_scan_there(scans):
    # S's constant c means 0 and T's means 1, which is not related to 0
    ops = [("s", 1, {"0": "1", "1": "0"})]
    inst = two_valued([("c", 0, {"": "0"})] + ops, [("c", 0, {"": "1"})] + ops,
                      {"c": "c", "s": "s(X1)"}, [("0", "0"), ("1", "1")])
    assert check_preserves(*inst, depth=3) == Verdict("no")
    assert scans == [[(3, False)]]  # X, Y and c; no height was built
    assert product_preserves(*inst, depth=3) == Verdict("no")


def test_a_certified_map_settles_in_product_order(scans):
    # S: s(v) = 0.  T: s(w) = w.  bT(0) is 1, bT(1) is 0 or 1.  The leaves
    # keep the first map, {0: 1, 1: 0}, which fails the certificate; s(X)
    # drops it (s(bT 1) = 0 is not related to s(1) = 0), and the next map
    # holds the certificate: it is the answer after two levels of three
    inst = two_valued([("s", 1, {"0": "0", "1": "0"})], [("s", 1, {"0": "0", "1": "1"})],
                      {"s": "s(X1)"}, [("1", "0"), ("0", "1"), ("1", "1")])
    first = {"0": "1", "1": "0"}
    assert check_preserves(*inst, depth=1) == Verdict("yes", first, "holds-to-depth 1")
    assert not homomorphism_certificate(*inst[:3], first)
    scans.clear()
    v = check_preserves(*inst, depth=3)
    assert v == Verdict("yes", {"0": "1", "1": "1"}, "preserves")
    assert scans == [[(2, False), (4, False)]]
    assert same_answer(v, product_preserves(*inst, depth=3))


def test_a_fixed_point_before_depth_ends_the_scan(scans):
    # S: s(v) = v.  T: s(w) = 1.  The first map {0: 0, 1: 1} fails the
    # certificate (s(bT 0) = 1, bT(s 0) = 0), yet every term keeps its
    # meaning: s(s(X)) behaves as s(X), a fixed point at height 3.  At
    # depth 10 the scan stops there; at depth 2 the probe of height 3
    # after the last level finds it
    inst = two_valued([("s", 1, {"0": "0", "1": "1"})], [("s", 1, {"0": "1", "1": "1"})],
                      {"s": "s(X1)"}, [("0", "0"), ("1", "0"), ("1", "1")])
    for depth in (10, 2):
        scans.clear()
        v = check_preserves(*inst, depth=depth)
        assert v == Verdict("yes", {"0": "0", "1": "1"}, "preserves")
        assert scans == [[(2, False), (4, False), (4, True)]]
        assert same_answer(v, product_preserves(*inst, depth=depth))
    assert not homomorphism_certificate(*inst[:3], v.witness)


def test_the_suites_preservation_scans_stop_early(scans):
    # the full scans of the same 100 instances build 7,098 behaviours
    finlang.property_suite(1, 200)
    assert (len(scans), sum(levels[-1][0] for levels in scans)) == (100, 290)
    t1s = list(suite_instances(1, 200))[::2]
    assert sum(len(full_scan(*inst[:3], 3)[0]) for inst in t1s) == 7098


def test_behaviour_tables_are_meanings():
    """Each behaviour's two tables are its term's meaning and its
    translation's meaning, row by row."""
    for tr, src, tgt, _ in SUITE[:50]:
        reps, variables, rows_src, img_index, _ = full_scan(tr, src, tgt, 3)
        rows_img = sorted(img_index, key=img_index.get)
        translate = complete_compositional(tr)
        for (src_tbl, img_tbl), term in reps.items():
            assert src_tbl == tuple(denote(src, term, dict(zip(variables, row)))
                                    for row in rows_src)
            image = translate(term)
            assert img_tbl == tuple(denote(tgt, image, dict(zip(variables, row)))
                                    for row in rows_img)


def binary_pair():
    """One binary f over 0, 1, 2 on each side, every value related to every
    other, and the head f -> f(X1, X2): its behaviour scan at depth 5 meets
    the cap, and the homomorphism certificate fails."""
    def lang(name, rows):
        return {"name": name, "values": ["0", "1", "2"], "operators": [
            {"name": "f", "arity": 2,
             "table": {f"{a},{b}": rows[a][b] for a in range(3) for b in range(3)}}]}
    src = lang("S", ["111", "121", "011"])
    tgt = lang("T", ["200", "102", "110"])
    carrier = [f"{n}.{v}" for n in "ST" for v in "012"]
    rel = {"kind": "equivalence", "carrier": carrier,
           "pairs": [[a, b] for a in carrier for b in carrier]}
    return src, tgt, {"source": "S", "target": "T", "heads": {"f": "f(X1,X2)"}}, rel


def test_a_capped_behaviour_scan_is_inconclusive(tmp_path, cli, scans):
    # the scan stopped at the cap, and the answer was yes, holds-to-depth 5
    src, tgt, tr, rel = map(json.dumps, binary_pair())
    lang, lang2 = load_language(json.loads(src)), load_language(json.loads(tgt))
    inst = (load_translation(json.loads(tr), lang, lang2), lang, lang2,
            load_relation(json.loads(rel)))
    reps, *_, exhausted = full_scan(*inst[:3], 5)
    assert (len(reps), exhausted) == (finlang.BEHAVIOUR_CAP, None)
    v = check_preserves(*inst, depth=5)
    note = f"inconclusive: behaviour cap {finlang.BEHAVIOUR_CAP} reached before depth 5"
    assert (v.status, v.note) == ("inconclusive", note)
    # no completed level settled it, so the scan went on to the cap
    assert scans[-1] == [(3, False), (12, False), (147, False), (finlang.BEHAVIOUR_CAP, None)]
    # an uncut scan still answers as the product-order search does
    assert check_preserves(*inst, depth=3) == product_preserves(*inst, depth=3)
    assert check_preserves(*inst, depth=3).note == "holds-to-depth 3"
    for name, text in zip(("src", "tgt", "tr", "rel"), (src, tgt, tr, rel)):
        (tmp_path / f"{name}.json").write_text(text)
    code, out, _ = cli("check", "preserves", "--source", str(tmp_path / "src.json"),
                       "--target", str(tmp_path / "tgt.json"),
                       "--translation", str(tmp_path / "tr.json"),
                       "--relation", str(tmp_path / "rel.json"), "--depth", "5")
    assert (code, out) == (2, f"preserves: inconclusive\nnote: {note}\n")


# ---------- the table bound of the behaviour scan ----------

@pytest.mark.parametrize("n", [4, 5, 6])
def test_parity_preserves_answers_under_the_table_bound(n):
    # Z_6 builds 2 x 46,656 valuation rows, and its full scan 18 behaviours: 2.24M cells
    assert check_preserves(*parity(n), depth=3).status == "no"


@pytest.mark.parametrize("depth", [0, -1])
def test_a_depth_below_1_is_refused(depth):
    # Z_4 answered yes, holds-to-depth -1, where depth 2 answers no
    inst = parity(4)
    assert check_preserves(*inst, depth=2).status == "no"
    for check in (check_preserves, check_respects):
        with pytest.raises(InputError, match="depth must be >= 1"):
            check(*inst, depth=depth)


def test_parity_z8_preserves_is_refused_before_the_scan(tmp_path, cli):
    # 8^8 valuation rows per side ran out of memory
    note = ("inconclusive: table bound 4000000 cells exceeded by 33554432 valuation rows "
            "of 8 cells")
    start = time.perf_counter()
    v = check_preserves(*parity(8), depth=3)
    assert (v.status, v.note) == ("inconclusive", note)
    vals = [str(i) for i in range(8)]
    for name in ("z8", "z8p"):
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "name": name, "values": vals, "operators": [
                {"name": "s", "arity": 1, "table": {v: str((int(v) + 1) % 8) for v in vals}}]}))
    (tmp_path / "T.json").write_text(json.dumps(
        {"source": "z8", "target": "z8p", "heads": {"s": "s(s(X1))"}}))
    (tmp_path / "sim.json").write_text(json.dumps({
        "kind": "equivalence",
        "carrier": [f"{lang}.{v}" for lang in ("z8", "z8p") for v in vals],
        "pairs": [[f"z8.{v}", f"z8p.{v}"] for v in vals]
        + [[f"z8.{i}", f"z8.{i + 2}"] for i in range(6)]}))
    code, out, _ = cli("check", "preserves", *(
        x for name, f in (("source", "z8"), ("target", "z8p"), ("translation", "T"),
                          ("relation", "sim"))
        for x in (f"--{name}", str(tmp_path / f"{f}.json"))))
    assert (code, out) == (2, f"preserves: inconclusive\nnote: {note}\n")
    assert time.perf_counter() - start < 1


def test_a_scan_cut_at_the_table_bound_keeps_a_no(monkeypatch, scans):
    # binary_pair at depth 5 holds to depth 3 and is cut at the behaviour
    # cap; 500 behaviours of 54 cells beside its 162 row cells cut it first
    src, tgt, tr, rel = binary_pair()
    lang, lang2 = load_language(src), load_language(tgt)
    inst = (load_translation(tr, lang, lang2), lang, lang2, load_relation(rel))
    reps, *_, exhausted = full_scan(*inst[:3], 5, cells=162 + 54 * 500)
    assert (len(reps), exhausted) == (500, None)
    monkeypatch.setattr(finlang, "CELL_BOUND", 162 + 54 * 500)
    v = check_preserves(*inst, depth=5)
    assert (v.status, v.note) == (
        "inconclusive", f"inconclusive: table bound {162 + 54 * 500} cells reached before depth 5")
    assert scans[-1] == [(3, False), (12, False), (147, False), (500, None)]
    # Z_6 is refuted within 10 of its 18 behaviours: a cut scan's no stands
    rows = 2 * 6 ** 6
    monkeypatch.setattr(finlang, "CELL_BOUND", rows * 6 + rows * 10)
    reps, *_, exhausted = full_scan(*parity(6)[:3], 3, cells=rows * 16)
    assert (len(reps), exhausted) == (10, None)
    assert check_preserves(*parity(6), depth=3).status == "no"
    # the leaves did not settle it, and the cut came within the next level
    assert scans[-1] == [(6, False), (10, None)]
