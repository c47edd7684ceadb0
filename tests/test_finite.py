"""Finite-domain decision procedures: frozen fixtures and exhaustive laws."""

import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transcheck.finlang import (FiniteLanguage, InputError, Operator, Relation,
                                SemanticTranslation, check_correct_upto,
                                check_correct_wrt, check_preserves,
                                check_respects, check_total, check_valid_upto,
                                close_relation, closed_terms, compose_semantic,
                                congruence_closure_1hole, denote, denote_subst,
                                image_congruence_closure_1hole,
                                is_congruence, is_congruence_for_image,
                                is_one_hole_congruence, load_language,
                                load_relation, load_semantic_translation,
                                load_translation, lr_closure, property_suite,
                                smallest_equiv_containing, upward_closed_targets,
                                valuations)
from transcheck import finlang
from transcheck.terms import (App, Var, complete_compositional, enumerate_terms, free_vars,
                              is_fvr)
from transcheck.verdict import Verdict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_set(name, *extra):
    d = FIXTURES / name
    lang = load_language(json.loads((d / "L.json").read_text()))
    lang2 = load_language(json.loads((d / "Lp.json").read_text()))
    rel = load_relation(json.loads((d / "sim.json").read_text()))
    tr = load_translation(json.loads((d / "T.json").read_text()), lang, lang2)
    out = [lang, lang2, rel, tr]
    for f in extra:
        out.append(load_semantic_translation(json.loads((d / f).read_text())))
    return out


# ---------- the swapped-negation example with an extra top value ----------

def test_negtop_valid_but_not_correct():
    lang, lang2, rel, tr = fixture_set("negtop")
    v = check_valid_upto(tr, lang, lang2, rel)
    assert v.holds
    assert sorted(v.witness.pairs) == [("neg3.0", "neg2.0"), ("neg3.1", "neg2.1")]
    c = check_correct_upto(tr, lang, lang2, rel)
    assert not c.holds
    assert c.witness == ("neg", {"X1": "top"}, {"X1": "1"}, "top", "0")


def test_negtop_congruence_split():
    lang, lang2, rel, tr = fixture_set("negtop")
    assert is_congruence(lang, rel).holds
    assert is_one_hole_congruence(lang, rel).holds
    u = tuple(upward_closed_targets(lang, lang2, rel))
    assert u == ("0", "1", "top")
    bad = is_congruence_for_image(tr, lang, lang2, rel, u)
    assert not bad.holds
    assert bad.witness == ("neg", {"X1": "1"}, {"X1": "top"}, "0", "top")
    # on the witness translation's image alone the heads do respect the relation
    assert is_congruence_for_image(tr, lang, lang2, rel, ("0", "1")).holds


# ---------- the two-step counter against the four-cycle ----------

def test_cycle4_preserves_with_unbounded_verdict():
    lang, lang2, rel, tr = fixture_set("cycle4")
    p = check_preserves(tr, lang, lang2, rel, depth=3)
    assert p.holds
    assert p.witness == {"a": "1", "b": "4"}
    assert p.note == "preserves"


def test_cycle4_not_valid():
    lang, lang2, rel, tr = fixture_set("cycle4")
    v = check_valid_upto(tr, lang, lang2, rel)
    assert not v.holds
    assert v.note == "exhausted 15 candidates"


def test_cycle4_does_not_respect():
    lang, lang2, rel, tr = fixture_set("cycle4")
    r = check_respects(tr, lang, lang2, rel, depth=3)
    assert not r.holds
    term, eta, lhs, rhs = r.witness
    assert term == App("c0", (), ())
    assert eta == {"X0": "2"}
    assert (lhs, rhs) == ("3", "a")


def test_cycle4_image_not_fvr():
    lang, lang2, rel, tr = fixture_set("cycle4")
    f = complete_compositional(tr)
    v = is_fvr(lang.signature, lang2.signature, f, depth=3)
    assert not v.holds
    assert v.witness == (App("c0", (), ()),)


# ---------- the sign language against counting mod three ----------

def test_mod3_valid_and_correct():
    lang, lang2, rel, tr = fixture_set("mod3")
    v = check_valid_upto(tr, lang, lang2, rel)
    assert v.holds
    assert sorted(v.witness.pairs) == [
        ("mod3.0", "pm.minus"), ("mod3.1", "pm.plus"), ("mod3.2", "pm.plus")]
    assert check_correct_upto(tr, lang, lang2, rel).holds


def test_mod3_target_closure_is_identity():
    _, lang2, rel, _ = fixture_set("mod3")
    cc = congruence_closure_1hole(lang2, rel)
    assert cc.classes() == [["mod3.0"], ["mod3.1"], ["mod3.2"]]


# ---------- equality testers and the two witness translations ----------

def test_samecopy_lr_closures_differ():
    lang, lang2, rel, tr, r, rd = fixture_set("samecopy", "R.json", "Rdagger.json")
    assert check_valid_upto(tr, lang, lang2, rel).holds
    for sem in (r, rd):
        assert check_correct_wrt(tr, lang, lang2, sem).holds
    lr = lr_closure(lang, rel, r)
    lrd = lr_closure(lang, rel, rd)
    assert lr.classes() == [["same4.0", "same4p.0"], ["same4.1", "same4p.1"],
                            ["same4.bot", "same4p.bot"], ["same4.top", "same4p.top"]]
    assert lrd.classes() == [["same4.0", "same4p.0"], ["same4.1", "same4p.1"],
                             ["same4.bot", "same4p.top"], ["same4.top", "same4p.bot"]]
    vq = set(lang.qualified_values)
    for closed in (lr, lrd):
        assert closed.restricted(vq).classes() == [
            ["same4.0"], ["same4.1"], ["same4.bot"], ["same4.top"]]


def test_lr_closure_restriction_matches_single_language_closure():
    lang, lang2, rel, _, r, rd = fixture_set("samecopy", "R.json", "Rdagger.json")
    vq = set(lang.qualified_values)
    cc = congruence_closure_1hole(lang, rel.restricted(vq))
    for sem in (r, rd):
        assert lr_closure(lang, rel, sem).restricted(vq).pairs == cc.pairs


def test_lr_closure_rejects_witness_outside_relation():
    lang, lang2, rel, _, r = fixture_set("samecopy", "R.json")
    bad = SemanticTranslation("R", r.pairs + (("same4p.0", "same4.1"),))
    with pytest.raises(InputError):
        lr_closure(lang, rel, bad)


def test_lr_closure_reports_intransitive_composite():
    # x bridges b and c, which sit in different closure blocks of the single
    # big relation class: the composite relates a~x~d but not a~d
    lang = FiniteLanguage("L", ("a", "b", "c", "d", "e", "g"), (
        Operator("f", 1, {("a",): "e", ("b",): "e", ("c",): "g", ("d",): "g",
                          ("e",): "e", ("g",): "g"}),))
    lang2 = FiniteLanguage("M", ("x",), ())
    carrier = lang.qualified_values + lang2.qualified_values
    rel = close_relation({("L.a", "L.b"), ("L.b", "L.c"), ("L.c", "L.d"),
                          ("L.d", "M.x")}, "equivalence", carrier)
    r = SemanticTranslation("R", (("M.x", "L.b"), ("M.x", "L.c")))
    with pytest.raises(InputError):
        lr_closure(lang, rel, r)


def test_qualified_values_are_computed_once():
    # a plain property rebuilt the tuple on each of 2,117 reads per finite pass
    lang = FiniteLanguage("L", ("a", "b"), ())
    assert lang.qualified_values == ("L.a", "L.b")
    assert lang.qualified_values is lang.qualified_values


# ---------- loading guards ----------

def test_language_table_must_be_total():
    with pytest.raises(InputError):
        FiniteLanguage("L", ("a", "b"), (Operator("f", 1, {("a",): "a"}),))
    with pytest.raises(InputError):
        FiniteLanguage("L", ("a",), (Operator("f", 0, {(): "z"}),))


def test_load_relation_rejects_malformed_pairs():
    base = {"name": "r", "kind": "preorder", "carrier": ["L.a", "L.b"]}
    for pairs, shown in (([["L.a", "L.b", "L.a"]], '["L.a", "L.b", "L.a"]'),
                         ([["L.a"]], '["L.a"]'), (["ab"], '"ab"'),
                         ([["L.a", ["L.b"]]], '["L.a", ["L.b"]]')):
        with pytest.raises(InputError, match=f"^relation pair {re.escape(shown)} is not a pair"):
            load_relation({**base, "pairs": pairs})
    with pytest.raises(InputError, match="^relation pairs are not a JSON list$"):
        load_relation({**base, "pairs": 5})


def test_load_relation_and_language_reject_malformed_value_lists():
    rel = {"name": "r", "kind": "preorder", "pairs": []}
    for carrier in (5, "ab", {"L.a": 1}, ["L.a", ["L.b"]], [1, "L.a"], ["L.a", None]):
        with pytest.raises(InputError, match="^relation carrier is not a JSON list of values$"):
            load_relation({**rel, "carrier": carrier})
    lang = json.loads((FIXTURES / "negtop" / "L.json").read_text())
    for values in (5, "01", ["0", {"1": 1}], ["0", "1", 2], [0, 1]):
        with pytest.raises(InputError, match="^language values are not a JSON list of values$"):
            load_language({**lang, "values": values})
    with pytest.raises(InputError, match="^language operators are not a JSON list$"):
        load_language({**lang, "operators": 5})


def dump_language(lang: FiniteLanguage) -> dict:
    return {
        "name": lang.name,
        "values": list(lang.values),
        "operators": [
            {"name": op.name, "arity": op.arity,
             "table": {",".join(k): v for k, v in sorted(op.table.items())}}
            for op in lang.operators
        ],
    }


def dump_relation(rel: Relation) -> dict:
    return {"name": rel.name, "kind": rel.kind, "carrier": sorted(rel.carrier),
            "pairs": sorted([a, b] for a, b in rel.pairs)}


def test_load_language_roundtrip():
    data = json.loads((FIXTURES / "mod3" / "Lp.json").read_text())
    lang = load_language(data)
    assert dump_language(lang) == data
    again = load_relation(dump_relation(load_relation(
        json.loads((FIXTURES / "mod3" / "sim.json").read_text()))))
    assert again.pairs == load_relation(
        json.loads((FIXTURES / "mod3" / "sim.json").read_text())).pairs


def test_translation_totality_guard():
    lang, lang2, rel, tr = fixture_set("mod3")
    with pytest.raises(InputError):
        check_total(SemanticTranslation("R", (("mod3.0", "pm.minus"),)), lang)
    with pytest.raises(InputError):
        load_translation({"source": "pm", "target": "wrong", "heads": {}}, lang, lang2)


def test_image_closure_needs_closed_value_set():
    lang, lang2, rel, tr = fixture_set("negtop")
    with pytest.raises(InputError):
        image_congruence_closure_1hole(tr, lang, lang2, rel, ("1", "top"))


# ---------- exhaustive checks against brute force ----------

def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in _partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [first]] + p[i + 1:]
        yield p + [[first]]


def _partition_relation(lang, blocks):
    pairs = set()
    for blk in blocks:
        pairs |= {(lang.qualify(a), lang.qualify(b)) for a in blk for b in blk}
    return Relation("cand", "equivalence", lang.qualified_values, frozenset(pairs))


def _mk_lang(n_vals, data):
    values = tuple(f"v{i}" for i in range(n_vals))
    ops = []
    for k in range(data.draw(st.integers(1, 2), label="n_ops")):
        ar = data.draw(st.integers(0, 2), label="arity")
        table = {key: data.draw(st.sampled_from(values), label="out")
                 for key in product(values, repeat=ar)}
        ops.append(Operator(f"f{k}", ar, table))
    return FiniteLanguage("L", values, tuple(ops))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_closure_is_largest_one_hole_congruence(data):
    lang = _mk_lang(data.draw(st.integers(2, 4), label="n_vals"), data)
    labels = [data.draw(st.integers(0, 2), label="class") for _ in lang.values]
    gens = {(lang.qualify(a), lang.qualify(b))
            for (a, la), (b, lb) in product(zip(lang.values, labels), repeat=2) if la == lb}
    rel = close_relation(gens, "equivalence", lang.qualified_values)
    cc = congruence_closure_1hole(lang, rel)
    assert cc.pairs <= rel.pairs
    assert is_one_hole_congruence(lang, cc).holds
    for blocks in _partitions(list(lang.values)):
        cand = _partition_relation(lang, blocks)
        if cand.pairs <= rel.pairs and is_one_hole_congruence(lang, cand).holds:
            assert cand.pairs <= cc.pairs


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_full_congruence_implies_one_hole(data):
    lang = _mk_lang(data.draw(st.integers(2, 4), label="n_vals"), data)
    for blocks in _partitions(list(lang.values)):
        cand = _partition_relation(lang, blocks)
        if is_congruence(lang, cand).holds:
            assert is_one_hole_congruence(lang, cand).holds


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_denote_laws(data):
    lang = _mk_lang(data.draw(st.integers(2, 3), label="n_vals"), data)
    terms = []
    for i, t in enumerate(enumerate_terms(lang.signature, 3)):
        terms.append(t)
        if i >= 30:
            break
    t = data.draw(st.sampled_from(terms), label="term")
    rho = data.draw(st.fixed_dictionaries(
        {x: st.sampled_from(lang.values) for x in ("X", "Y")}), label="rho")
    base = denote(lang, t, rho)
    # extending the valuation with unused variables never changes the result
    assert denote(lang, t, {**rho, "Q": lang.values[0]}) == base
    # substitution then evaluation equals evaluation under the evaluated substitution
    sigma = {"X": data.draw(st.sampled_from(terms), label="sX")}
    from transcheck.terms import substitute
    assert denote(lang, substitute(lang.signature, t, sigma), rho) == \
        denote(lang, t, denote_subst(lang, sigma, rho))


def test_smallest_equiv_containing():
    r = SemanticTranslation("R", (("M.x", "L.a"), ("M.x", "L.b")))
    eq = smallest_equiv_containing(r, ("L.a", "L.b", "L.c", "M.x"))
    assert eq.classes() == [["L.a", "L.b", "M.x"], ["L.c"]]


def _naive_closure(generators, kind, carrier):
    """The pairwise transitive-closure loop close_relation used to run."""
    pairs = {(a, a) for a in carrier} | set(generators)
    if kind == "equivalence":
        pairs |= {(b, a) for a, b in generators}
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return frozenset(pairs)


CLOSURE_CARRIER = ("L.a", "L.b", "L.c", "L.d", "M.x", "M.y")


@given(gens=st.sets(st.tuples(st.sampled_from(CLOSURE_CARRIER),
                              st.sampled_from(CLOSURE_CARRIER)), max_size=8),
       kind=st.sampled_from(["equivalence", "preorder"]))
@settings(max_examples=200)
def test_close_relation_matches_the_naive_closure(gens, kind):
    rel = close_relation(gens, kind, CLOSURE_CARRIER, "g")
    assert rel == Relation("g", kind, CLOSURE_CARRIER, _naive_closure(gens, kind, CLOSURE_CARRIER))
    if kind == "equivalence":
        r = SemanticTranslation("R", tuple(sorted(gens)))
        eq = smallest_equiv_containing(r, CLOSURE_CARRIER)
        assert eq == Relation("eq_R", kind, CLOSURE_CARRIER, rel.pairs)


def test_close_relation_names_the_least_stray_pair():
    with pytest.raises(InputError, match=r"^pair \(neg2\.0, zz\.a\) mentions"):
        close_relation({("neg2.1", "qq.b"), ("neg2.0", "zz.a")}, "equivalence",
                       ("neg2.0", "neg2.1"))
    with pytest.raises(InputError, match=r"^pair \(0, neg2\.0\) mentions"):
        close_relation({("neg2.1", "qq.b"), (0, "neg2.0")}, "preorder", ("neg2.0", "neg2.1"))
    with pytest.raises(InputError, match=r"^pair \(M\.x, L\.z\) mentions"):
        smallest_equiv_containing(SemanticTranslation("R", (("M.x", "L.z"), ("M.y", "L.q"))),
                                  ("L.a", "M.x", "M.y"))


def test_compose_semantic():
    r1 = SemanticTranslation("R1", (("M.x", "L.a"), ("M.y", "L.b")))
    r2 = SemanticTranslation("R2", (("N.u", "M.x"), ("N.u", "M.y")))
    assert compose_semantic(r2, r1).pairs == (("N.u", "L.a"), ("N.u", "L.b"))


def test_closed_terms_have_no_variables():
    lang, _, _, _ = fixture_set("cycle4")
    ts = list(closed_terms(lang, 3))
    assert ts and all(not isinstance(t, Var) for t in ts)


def test_valuations_cover_product():
    assert list(valuations(("X",), ("a", "b"))) == [{"X": "a"}, {"X": "b"}]
    assert list(valuations((), ("a",))) == [{}]


def test_correct_wrt_witness_does_not_depend_on_the_hash_seed(tmp_path):
    """Candidate targets come in the order of R's pairs, so the first
    failing eta is the same in every process."""
    files = {
        "s.json": {"name": "s", "values": ["0"],
                   "operators": [{"name": "f", "arity": 1, "table": {"0": "0"}}]},
        "t.json": {"name": "t", "values": ["a", "b", "c"],
                   "operators": [{"name": "g", "arity": 1,
                                  "table": {"a": "c", "b": "c", "c": "c"}}]},
        "T.json": {"source": "s", "target": "t", "heads": {"f": "g(X1)"}},
        "R.json": {"name": "R", "pairs": [["t.a", "s.0"], ["t.b", "s.0"]]},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "transcheck", "check", "correct", "--source", "s.json",
             "--target", "t.json", "--translation", "T.json", "--semtrans", "R.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert run.returncode == 1, run.stderr
        outs.add(run.stdout)
    assert outs == {"correct: no\nwitness: f | {X1=a} | {X1=0} | c | 0\n"}


# ---------- randomized law suite ----------

def test_property_suite_seed42():
    rep = property_suite(42, 200)
    assert rep.ok
    assert not rep.violations
    assert sum(rep.checks.values()) > 0


def test_property_suite_is_deterministic():
    a = property_suite(7, 25)
    b = property_suite(7, 25)
    assert a.checks == b.checks and a.violations == b.violations


# ---------- the replaced image checks and closures, kept as oracles ----------

def old_is_congruence_for_image(tr, lang, lang2, rel, w_set):
    """The loop is_congruence_for_image ran: every pair of valuations into
    w_set, with each image evaluated under both; it now tabulates each
    image once and runs is_congruence's loop on the tables."""
    finlang._need_carrier(rel, lang, lang2)
    stray = sorted(set(w_set) - set(lang2.values))
    if stray:
        raise InputError(f"values outside {lang2.name}: {stray}")
    for name, _, image in finlang._heads(tr):
        xs = tuple(sorted(free_vars(lang2.signature, image)))
        for theta in valuations(xs, w_set):
            for eta in valuations(xs, w_set):
                if all(rel.related(lang2.qualify(theta[x]), lang2.qualify(eta[x])) for x in xs):
                    lhs, rhs = denote(lang2, image, theta), denote(lang2, image, eta)
                    if not rel.related(lang2.qualify(lhs), lang2.qualify(rhs)):
                        return Verdict("no", (name, theta, eta, lhs, rhs))
    return Verdict("yes")


def old_refine(rel, lang, values, probe):
    """The partition refinement both one-hole closures ran, each with its
    own probe: probe(v, block) gives the blocks v's one-hole contexts reach."""
    qs = [lang.qualify(v) for v in values]
    block = {q: i for i, cls in enumerate(rel.restricted(set(qs)).classes()) for q in cls}
    while True:
        ids = {}
        nxt = {q: ids.setdefault((block[q], probe(v, block)), len(ids))
               for v, q in zip(values, qs)}
        if len(ids) == len(set(block.values())):
            break
        block = nxt
    return frozenset((a, b) for a in qs for b in qs if block[a] == block[b])


def old_congruence_closure_1hole(lang, rel):
    def probe(v, block):
        return tuple(block[lang.qualify(op.table[ctx[:i] + (v,) + ctx[i + 1:]])]
                     for op in lang.operators for ctx in product(lang.values, repeat=op.arity)
                     for i in range(op.arity))

    return Relation(f"{rel.name}^1c", "equivalence", lang.qualified_values,
                    old_refine(rel, lang, lang.values, probe))


def old_image_congruence_closure_1hole(tr, lang, lang2, rel, w_set):
    """The image closure with its own probe, which evaluated each image at
    every one-hole context; the closure now runs congruence_closure_1hole's
    refinement on the image tables."""
    images = [image for _, _, image in finlang._heads(tr)]

    def probe(w, block):
        sig = []
        for image in images:
            xs = tuple(sorted(free_vars(lang2.signature, image)))
            for i, x in enumerate(xs):
                others = xs[:i] + xs[i + 1:]
                for ctx in valuations(others, tuple(w_set)):
                    rho = dict(ctx)
                    rho[x] = w
                    out = lang2.qualify(denote(lang2, image, rho))
                    if out not in block:
                        raise InputError("image language is not closed on the given value set")
                    sig.append(block[out])
        return tuple(sig)

    return Relation(f"{rel.name}^1c_image", "equivalence",
                    tuple(sorted(lang2.qualify(w) for w in w_set)),
                    old_refine(rel, lang2, w_set, probe))


def old_lr_closure(lang, rel, r):
    """lr_closure as it looped over every (w1, w2, v1, v2) and checked
    transitivity over every pair of pairs."""
    for a, b in r.pairs:
        if not rel.related(a, b):
            raise InputError(f"semantic translation pair ({a}, {b}) is not inside the relation")
    eq = smallest_equiv_containing(r, rel.carrier)
    cc = congruence_closure_1hole(lang, rel)
    v_set = lang.qualified_values
    pairs = set()
    for w1 in rel.carrier:
        for w2 in rel.carrier:
            if any(eq.related(w1, v1) and cc.related(v1, v2) and eq.related(v2, w2)
                   for v1 in v_set for v2 in v_set):
                pairs.add((w1, w2))
    pairs |= {(w, w) for w in rel.carrier}
    out = Relation(f"{rel.name}^1c_{r.name}", "equivalence", rel.carrier, frozenset(pairs))
    for a, b in out.pairs:
        for c, d in out.pairs:
            if b == c and not out.related(a, d):
                raise InputError("combined closure is not transitive; "
                                 "the translation is not correct w.r.t. this semantic translation")
    return out


def outcome(f, *args):
    """f's result, or the message of the InputError it raised."""
    try:
        return f(*args)
    except InputError as e:
        return f"InputError: {e}"


def suite_triples(seed, trials):
    """The (T1, L1, L2, relation on L1 and L2) instances property_suite draws."""
    rnd = random.Random(seed)
    for _ in range(trials):
        l1, l2, l3 = (finlang._random_language(rnd, n) for n in ("L1", "L2", "L3"))
        rel = finlang._random_equivalence(
            rnd, l1.qualified_values + l2.qualified_values + l3.qualified_values)
        t1 = finlang._random_translation(rnd, l1, l2)
        if finlang._random_translation(rnd, l2, l3) is not None and t1 is not None:
            yield t1, l1, l2, rel.restricted(set(l1.qualified_values) | set(l2.qualified_values))


def assert_image_checks_match(tr, lang, lang2, rel, w_set):
    """The image congruence check and closure answer as their oracles do;
    return the two answers."""
    args = (tr, lang, lang2, rel, w_set)
    cong = outcome(is_congruence_for_image, *args)
    assert cong == outcome(old_is_congruence_for_image, *args), args
    closure = outcome(image_congruence_closure_1hole, *args)
    assert closure == outcome(old_image_congruence_closure_1hole, *args), args
    return cong, closure


def test_image_checks_match_their_oracles_on_suite_instances():
    # every value set: U, and each subset of the target values
    seen = set()
    for tr, lang, lang2, rel in suite_triples(3, 300):
        subsets = [tuple(w for w, keep in zip(lang2.values, mask) if keep)
                   for mask in product((0, 1), repeat=len(lang2.values))]
        for w_set in [tuple(upward_closed_targets(lang, lang2, rel))] + subsets:
            cong, closure = assert_image_checks_match(tr, lang, lang2, rel, w_set)
            seen.add((cong.status, type(closure).__name__))
    assert seen == {("yes", "Relation"), ("no", "Relation"), ("yes", "str"), ("no", "str")}


def test_the_closures_match_their_oracle_on_suite_instances():
    for tr, lang, lang2, rel in suite_triples(4, 300):
        for side in (lang, lang2):
            assert congruence_closure_1hole(side, rel) == old_congruence_closure_1hole(side, rel)


def two_languages():
    """S over a, b with a binary f and a constant c; T over 0, 1, 2 with a
    binary g, a unary h and a constant k."""
    src = FiniteLanguage("S", ("a", "b"), (
        Operator("f", 2, {k: "a" if k[0] == k[1] else "b" for k in product("ab", repeat=2)}),
        Operator("c", 0, {(): "a"})))
    tgt = FiniteLanguage("T", ("0", "1", "2"), (
        Operator("g", 2, {(x, y): str((int(x) * int(y) + 1) % 3)
                          for x, y in product("012", repeat=2)}),
        Operator("h", 1, {("0",): "1", ("1",): "0", ("2",): "2"}),
        Operator("k", 0, {(): "2"})))
    return src, tgt


@pytest.mark.parametrize("heads", [
    {"f": "g(X1, Y)", "c": "k"},          # an image variable no head binds
    {"f": "h(X2)", "c": "h(k)"},          # a placeholder the image leaves unused
    {"f": "g(h(X2), X1)", "c": "Z"},      # a constant whose image is a variable
    {"f": "X1", "c": "k"},
], ids=["extra-variable", "unused-placeholder", "open-constant", "projection"])
@pytest.mark.parametrize("kind", ["equivalence", "preorder"])
def test_image_checks_match_their_oracles_on_hand_made_heads(heads, kind):
    src, tgt = two_languages()
    tr = load_translation({"source": "S", "target": "T", "heads": heads}, src, tgt)
    carrier = src.qualified_values + tgt.qualified_values
    for gens in ({("T.0", "T.1")}, {("T.1", "T.2"), ("S.a", "T.0")}, {("T.2", "T.0")}, set()):
        rel = close_relation(gens, kind, carrier)
        for w_set in (("0", "1", "2"), ("0", "1"), ("1", "2"), ("2",), ()):
            assert_image_checks_match(tr, src, tgt, rel, w_set)


def test_a_value_set_the_image_leaves_is_refused_by_the_closure():
    # h maps 1 to 0: on {1, 2} the image of f leaves the set, as the oracle found
    src, tgt = two_languages()
    tr = load_translation({"source": "S", "target": "T",
                           "heads": {"f": "h(X2)", "c": "k"}}, src, tgt)
    rel = close_relation({("T.1", "T.2")}, "equivalence", src.qualified_values
                         + tgt.qualified_values)
    cong, closure = assert_image_checks_match(tr, src, tgt, rel, ("1", "2"))
    assert cong == Verdict("no", ("f", {"X2": "1"}, {"X2": "2"}, "0", "2"))
    assert closure == "InputError: image language is not closed on the given value set"
    # a constant image outside the set has no hole, and the closure takes it
    tr = load_translation({"source": "S", "target": "T",
                           "heads": {"f": "X1", "c": "h(k)"}}, src, tgt)
    _, closure = assert_image_checks_match(tr, src, tgt, rel, ("0", "1"))
    assert isinstance(closure, Relation)


def random_lr_instance(rnd):
    """A source language of 2 to 8 values with one unary f, a target of 1
    to 3 values with no operators, an equivalence on both, and a semantic
    translation drawn from the related pairs, with now and then a pair
    outside the relation.  The source values fall into up to four blocks,
    f maps each block into one block, and the relation joins whole blocks:
    so the one-hole closure keeps blocks of several values, which a target
    value related to two of them can bridge into an intransitive composite."""
    values = tuple(f"v{i}" for i in range(rnd.randint(2, 8)))
    block = {v: rnd.randrange(4) for v in values}
    live = sorted(set(block.values()))
    members = {b: [v for v in values if block[v] == b] for b in live}
    image = {b: rnd.choice(live) for b in live}
    lang = FiniteLanguage("L", values, (Operator(
        "f", 1, {(v,): rnd.choice(members[image[block[v]]]) for v in values}),))
    lang2 = FiniteLanguage("M", tuple(f"w{i}" for i in range(rnd.randint(1, 3))), ())
    group = {b: rnd.randrange(2) for b in live}
    label = {lang.qualify(v): group[block[v]] for v in values}
    label.update({w: rnd.randrange(2) for w in lang2.qualified_values})
    carrier = lang.qualified_values + lang2.qualified_values
    rel = Relation("sim", "equivalence", tuple(sorted(carrier)), frozenset(
        (a, b) for a in carrier for b in carrier if label[a] == label[b]))
    cross = [(w, v) for w in lang2.qualified_values for v in lang.qualified_values]
    pairs = {p for p in cross if rel.related(*p) and rnd.random() < 0.3}
    if rnd.random() < 0.05:
        pairs.add(rnd.choice(cross))
    return lang, rel, SemanticTranslation("R", tuple(sorted(pairs)))


def test_lr_closure_matches_the_quartic_loop_on_random_instances():
    rnd = random.Random(5)
    kinds = Counter()
    for _ in range(1000):
        lang, rel, r = random_lr_instance(rnd)
        new = outcome(lr_closure, lang, rel, r)
        assert new == outcome(old_lr_closure, lang, rel, r), (lang, rel, r)
        kinds["closure" if isinstance(new, Relation) else
              "intransitive" if "transitive" in new else "outside"] += 1
    assert kinds == {"closure": 950, "outside": 26, "intransitive": 24}


def test_lr_closure_matches_the_quartic_loop_on_the_suites_witnesses():
    compared = 0
    for tr, lang, lang2, rel in suite_triples(6, 300):
        v = check_valid_upto(tr, lang, lang2, rel)
        if v.holds:
            assert outcome(lr_closure, lang, rel, v.witness) == outcome(
                old_lr_closure, lang, rel, v.witness)
            compared += 1
    assert compared >= 20


def test_lr_closure_on_parity_z64_is_fast():
    # the quartic loop took 0.6 s on Z_32, and doubling n cost it about 16x
    n = 64
    vals = [str(i) for i in range(n)]
    src, tgt = (load_language({"name": name, "values": vals, "operators": [
        {"name": "s", "arity": 1, "table": {v: str((int(v) + 1) % n) for v in vals}}]})
        for name in ("z", "zp"))
    rel = load_relation({"kind": "equivalence",
                         "carrier": list(src.qualified_values + tgt.qualified_values),
                         "pairs": [[src.qualify(v), tgt.qualify(v)] for v in vals]
                         + [[src.qualify(str(i)), src.qualify(str(i + 2))] for i in range(n - 2)]})
    r = SemanticTranslation("R", tuple((tgt.qualify(v), src.qualify(v)) for v in vals))
    start = time.perf_counter()
    out = lr_closure(src, rel, r)
    assert time.perf_counter() - start < 0.5
    assert len(out.classes()) == 2 and len(out.pairs) == 2 * 64 ** 2


# ---------- names and values ----------

def test_a_language_with_a_repeated_value_is_refused():
    # the closure printed the class {a, a}
    with pytest.raises(InputError, match=r"^l: duplicate values \['a'\]$"):
        load_language({"name": "l", "values": ["a", "a"], "operators": []})
    # results may repeat
    assert load_language({"name": "l", "values": ["a", "b"], "operators": [
        {"name": "f", "arity": 1, "table": {"a": "a", "b": "a"}}]}).values == ("a", "b")


def test_correct_wrt_reads_target_names_through_the_target_language():
    # a target language named b.2 made the correctness check strip the
    # qualification at the first dot, and fail with KeyError ('2.x',)
    src = FiniteLanguage("a", ("x",), (Operator("f", 1, {("x",): "x"}),))
    tgt = FiniteLanguage("b.2", ("x",), (Operator("g", 1, {("x",): "x"}),))
    tr = load_translation({"source": "a", "target": "b.2", "heads": {"f": "g(X1)"}}, src, tgt)
    r = SemanticTranslation("R", (("b.2.x", "a.x"),))
    assert check_correct_wrt(tr, src, tgt, r) == Verdict("yes")
    with pytest.raises(InputError, match=r"^semantic translation pair \(zz\.q, a\.x\) names "
                                         r"a target value outside b\.2$"):
        check_correct_wrt(tr, src, tgt, SemanticTranslation("R", r.pairs + (("zz.q", "a.x"),)))
