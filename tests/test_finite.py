"""Finite-domain decision procedures: frozen fixtures and exhaustive laws."""

import json
import os
import subprocess
import sys
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
                                dump_language, dump_relation, image_congruence_closure_1hole,
                                is_congruence, is_congruence_for_image,
                                is_one_hole_congruence, load_language,
                                load_relation, load_semantic_translation,
                                load_translation, lr_closure, property_suite,
                                smallest_equiv_containing, upward_closed_targets,
                                valuations)
from transcheck.terms import App, Var, complete_compositional, enumerate_terms, is_fvr

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


# ---------- loading guards ----------

def test_language_table_must_be_total():
    with pytest.raises(InputError):
        FiniteLanguage("L", ("a", "b"), (Operator("f", 1, {("a",): "a"}),))
    with pytest.raises(InputError):
        FiniteLanguage("L", ("a",), (Operator("f", 0, {(): "z"}),))


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
