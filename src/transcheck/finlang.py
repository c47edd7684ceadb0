"""Finite interpreted languages and exhaustive checks for translation quality.

Languages here are binder-free: every construct is an operator with a total
table over a finite value domain.  Relations live on qualified value names
"lang.value" so the two domains of a translation stay disjoint even when the
bare value names coincide.
"""

from __future__ import annotations

import json
import random
from functools import cached_property
from itertools import chain, product
from typing import Iterator

from .terms import (App, Construct, Signature, Term, Translation, Var,
                    complete_compositional, compose_translations,
                    enumerate_terms, free_vars, parse_term, translation)
from .verdict import Verdict


class InputError(Exception):
    """Ill-formed language, relation, or translation input."""


# ------------- languages -------------

class Operator:
    """An operator with its total table.  == reads name, arity and table,
    hash name and arity.  The fields are not set again."""
    __slots__ = ("name", "arity", "table")

    def __init__(self, name: str, arity: int, table: dict[tuple[str, ...], str]) -> None:
        self.name = name
        self.arity = arity
        self.table = table

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.arity, self.table) == (other.name, other.arity, other.table)

    def __hash__(self) -> int:
        return hash((self.name, self.arity))


class FiniteLanguage:
    """Named values and the operators on them, each table total on the
    values.  The fields are not set again; signature, tables and
    qualified_values are computed on first use and kept."""

    def __init__(self, name: str, values: tuple[str, ...],
                 operators: tuple[Operator, ...]) -> None:
        vs = set(values)
        if len(vs) < len(values):
            dup = sorted({v for v in vs if values.count(v) > 1})
            raise InputError(f"{name}: duplicate values {dup}")
        names = [op.name for op in operators]
        dup = sorted({n for n in names if names.count(n) > 1})
        if dup:
            raise InputError(f"{name}: duplicate operator names {dup}")
        for op in operators:
            keys = set(op.table)
            want = set(product(values, repeat=op.arity))
            if not keys <= want:
                extra = sorted(keys - want)[:3]
                raise InputError(f"{name}.{op.name}: table keys outside values: {extra}")
            if keys != want:
                missing = sorted(want - keys)[:3]
                raise InputError(f"{name}.{op.name}: table not total, missing {missing}")
            for out in op.table.values():
                if out not in vs:
                    raise InputError(f"{name}.{op.name}: result {out} outside values")
        self.name = name
        self.values = values
        self.operators = operators

    @cached_property
    def signature(self) -> Signature:
        return Signature(self.name, tuple(
            Construct(op.name, op.arity, ((),) * op.arity) for op in self.operators))

    @cached_property
    def tables(self) -> dict[str, dict[tuple[str, ...], str]]:
        """Operator tables by operator name."""
        return {op.name: op.table for op in self.operators}

    def qualify(self, v: str) -> str:
        return f"{self.name}.{v}"

    @cached_property
    def qualified_values(self) -> tuple[str, ...]:
        return tuple(self.qualify(v) for v in self.values)


def _need_keys(data, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(data, dict):
        raise InputError(f"{what} is not a JSON object")
    missing = set(keys) - set(data)
    if missing:
        raise InputError(f"{what} lacks keys: {sorted(missing)}")


def _need_values(vs, message: str) -> None:
    """vs must be a JSON list of value names, which are strings: values are
    sorted, and a number beside a string does not sort; otherwise fail with
    message."""
    if not isinstance(vs, list) or not all(isinstance(v, str) for v in vs):
        raise InputError(message)


def _need_name(name, what: str) -> None:
    """name must be a nonempty string: translation and relation files name
    languages and operators by strings."""
    if not isinstance(name, str) or not name:
        raise InputError(f"{what} name {json.dumps(name)} is not a nonempty string")


def load_language(data: dict) -> FiniteLanguage:
    _need_keys(data, ("name", "values", "operators"), "language file")
    _need_name(data["name"], "language")
    _need_values(data["values"], "language values are not a JSON list of values")
    if not isinstance(data["operators"], list):
        raise InputError("language operators are not a JSON list")
    ops = []
    for op in data["operators"]:
        _need_keys(op, ("name", "arity", "table"), "operator")
        _need_name(op["name"], "operator")
        arity = op["arity"]
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
            raise InputError(f"operator {op['name']}: arity {json.dumps(arity)} is not "
                             "a nonnegative integer")
        _need_keys(op["table"], (), f"operator {op['name']} table")
        _need_values(list(op["table"].values()),
                     f"operator {op['name']} table results are not values")
        table = {}
        for key, out in op["table"].items():
            args = tuple(key.split(",")) if key else ()
            if len(args) != arity:
                raise InputError(f"{op['name']}: key {key!r} does not match arity {arity}")
            table[args] = out
        ops.append(Operator(op["name"], arity, table))
    return FiniteLanguage(data["name"], tuple(data["values"]), tuple(ops))


# ------------- evaluation -------------

Valuation = dict[str, str]


def denote(lang: FiniteLanguage, t: Term, rho: Valuation) -> str:
    match t:
        case Var(x):
            if x not in rho:
                raise InputError(f"valuation does not cover variable {x}")
            return rho[x]
        case App(op, _, args):
            return lang.tables[op][tuple(denote(lang, a, rho) for a in args)]
    raise InputError(f"not a term: {t!r}")


def denote_subst(lang: FiniteLanguage, sigma: dict[str, Term], rho: Valuation) -> Valuation:
    out = dict(rho)
    out.update({x: denote(lang, t, rho) for x, t in sigma.items()})
    return out


def valuations(variables: tuple[str, ...], values: tuple[str, ...]) -> Iterator[Valuation]:
    for combo in product(values, repeat=len(variables)):
        yield dict(zip(variables, combo))


# ------------- relations -------------

class Relation:
    """A relation on qualified value names.  == and hash read every field,
    which is not set again."""
    __slots__ = ("name", "kind", "carrier", "pairs")

    def __init__(self, name: str, kind: str, carrier: tuple[str, ...],
                 pairs: frozenset[tuple[str, str]]) -> None:
        self.name = name
        self.kind = kind  # "equivalence" | "preorder"
        self.carrier = carrier
        self.pairs = pairs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.kind, self.carrier, self.pairs)
                == (other.name, other.kind, other.carrier, other.pairs))

    def __hash__(self) -> int:
        return hash((self.name, self.kind, self.carrier, self.pairs))

    def related(self, a: str, b: str) -> bool:
        return (a, b) in self.pairs

    def classes(self) -> list[list[str]]:
        """Partition view; only meaningful for equivalences."""
        out: list[list[str]] = []
        placed: set[str] = set()
        for a in sorted(self.carrier):
            if a in placed:
                continue
            cls = sorted(b for b in self.carrier if self.related(a, b))
            placed.update(cls)
            out.append(cls)
        return out

    def restricted(self, subset: set[str]) -> "Relation":
        return Relation(self.name, self.kind, tuple(sorted(set(self.carrier) & subset)),
                        frozenset((a, b) for a, b in self.pairs if a in subset and b in subset))


def close_relation(generators: set[tuple[str, str]], kind: str,
                   carrier: tuple[str, ...], name: str = "rel") -> Relation:
    """Reflexive-transitive closure of the generators on the carrier, also
    symmetric for an equivalence: each value is related to every value its
    generator edges reach."""
    cs = set(carrier)
    stray = sorted((str(a), str(b)) for a, b in generators if a not in cs or b not in cs)
    if stray:
        a, b = stray[0]
        raise InputError(f"pair ({a}, {b}) mentions a value outside the carrier")
    if kind not in ("equivalence", "preorder"):
        raise InputError(f"unknown relation kind {kind!r}")
    edges: dict[str, set[str]] = {a: set() for a in carrier}
    for a, b in generators:
        edges[a].add(b)
        if kind == "equivalence":
            edges[b].add(a)
    pairs = set()
    for a in carrier:
        reached, work = {a}, [a]
        while work:
            for b in edges[work.pop()] - reached:
                reached.add(b)
                work.append(b)
        pairs |= {(a, b) for b in reached}
    return Relation(name, kind, tuple(sorted(carrier)), frozenset(pairs))


def load_relation(data: dict) -> Relation:
    _need_keys(data, ("pairs", "kind", "carrier"), "relation file")
    _need_values(data["carrier"], "relation carrier is not a JSON list of values")
    if not isinstance(data["pairs"], list):
        raise InputError("relation pairs are not a JSON list")
    for p in data["pairs"]:
        if not (isinstance(p, list) and len(p) == 2
                and not any(isinstance(v, (list, dict)) for v in p)):
            raise InputError(f"relation pair {json.dumps(p)} is not a pair of two values")
    return close_relation({tuple(p) for p in data["pairs"]}, data["kind"],
                          tuple(data["carrier"]), data.get("name", "rel"))


class SemanticTranslation:
    """Relation between target and source values, total on the source: pairs
    holds (target value, source value) pairs, qualified.  ==, hash and repr
    read name and pairs, which are not set again."""
    __slots__ = ("name", "pairs")

    def __init__(self, name: str, pairs: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.pairs = pairs

    def __repr__(self) -> str:
        return f"SemanticTranslation(name={self.name!r}, pairs={self.pairs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.pairs) == (other.name, other.pairs)

    def __hash__(self) -> int:
        return hash((self.name, self.pairs))

    def image(self) -> list[str]:
        return sorted({w for w, _ in self.pairs})


def load_semantic_translation(data: dict) -> SemanticTranslation:
    _need_keys(data, ("pairs",), "semantic translation file")
    if not isinstance(data["pairs"], list):
        raise InputError("semantic translation pairs are not a JSON list")
    for p in data["pairs"]:
        if not (isinstance(p, list) and len(p) == 2 and all(isinstance(v, str) for v in p)):
            raise InputError(f"semantic translation pair {json.dumps(p)} is not a pair of "
                             "two value names")
    return SemanticTranslation(data.get("name", "R"),
                               tuple(sorted((a, b) for a, b in data["pairs"])))


def check_total(r: SemanticTranslation, source: FiniteLanguage) -> None:
    for v in source.values:
        if not any(u == source.qualify(v) for _, u in r.pairs):
            raise InputError(f"semantic translation misses source value {v}")


def load_translation(data: dict, source: FiniteLanguage | Signature,
                     target: FiniteLanguage | Signature) -> Translation:
    src = source.signature if isinstance(source, FiniteLanguage) else source
    tgt = target.signature if isinstance(target, FiniteLanguage) else target
    _need_keys(data, ("source", "target", "heads"), "translation file")
    if data["source"] != src.name or data["target"] != tgt.name:
        raise InputError(f"translation is {data['source']} -> {data['target']}, "
                         f"got languages {src.name} -> {tgt.name}")
    _need_keys(data["heads"], (), "translation head map")
    for op, img in data["heads"].items():
        if not isinstance(img, str):
            raise InputError(f"translation head {op}: {json.dumps(img)} is not a term")
    heads = {op: parse_term(tgt, img) for op, img in data["heads"].items()}
    return translation(src, tgt, heads)


# ------------- congruence checks -------------

def is_congruence(lang: FiniteLanguage, rel: Relation) -> Verdict:
    """Equivalence preserved by every operator, all argument positions at once."""
    _need_carrier(rel, lang)
    found = _congruence_witness(lang, lang.operators, lang.values, rel)
    return Verdict("yes") if found is None else Verdict("no", found)


def _congruence_witness(lang: FiniteLanguage, ops, values: tuple[str, ...],
                        rel: Relation) -> tuple | None:
    """The first (operator, us, vs, op(us), op(vs)) with us and vs rows of
    values related pointwise and their results not related, names qualified
    by lang; None when every operator keeps rel."""
    for op in ops:
        for us in product(values, repeat=op.arity):
            for vs in product(values, repeat=op.arity):
                if all(rel.related(lang.qualify(u), lang.qualify(v)) for u, v in zip(us, vs)):
                    ru, rv = op.table[us], op.table[vs]
                    if not rel.related(lang.qualify(ru), lang.qualify(rv)):
                        return op.name, us, vs, ru, rv
    return None


def is_one_hole_congruence(lang: FiniteLanguage, rel: Relation) -> Verdict:
    """As is_congruence but varying one argument position at a time."""
    _need_carrier(rel, lang)
    for op in lang.operators:
        for ctx in product(lang.values, repeat=op.arity):
            for i in range(op.arity):
                for v in lang.values:
                    u = ctx[i]
                    if not rel.related(lang.qualify(u), lang.qualify(v)):
                        continue
                    other = ctx[:i] + (v,) + ctx[i + 1:]
                    ru, rv = op.table[ctx], op.table[other]
                    if not rel.related(lang.qualify(ru), lang.qualify(rv)):
                        return Verdict("no", (op.name, ctx, other, ru, rv))
    return Verdict("yes")


def _need_carrier(rel: Relation, *langs: FiniteLanguage) -> None:
    missing = {v for lang in langs for v in lang.qualified_values} - set(rel.carrier)
    if missing:
        raise InputError(f"relation carrier misses {sorted(missing)}")


def congruence_closure_1hole(lang: FiniteLanguage, rel: Relation) -> Relation:
    """Largest one-hole congruence for lang contained in the equivalence rel:
    values are split whenever some operator with one varied argument tells
    them apart."""
    if rel.kind != "equivalence":
        raise InputError("congruence closure needs an equivalence")
    _need_carrier(rel, lang)
    pairs = _one_hole_pairs(lang, lang.operators, lang.values, rel)
    return Relation(f"{rel.name}^1c", "equivalence", lang.qualified_values, pairs)


def _one_hole_pairs(lang: FiniteLanguage, ops, values: tuple[str, ...],
                    rel: Relation) -> frozenset[tuple[str, str]]:
    """Pairs of the coarsest partition of values inside rel that no operator
    with one varied argument splits, names qualified by lang: the greatest
    fixpoint of partition refinement.  Values start in their rel classes;
    each round splits a block by the blocks that each value's one-hole
    contexts reach under the current partition.  The operators' results
    must lie in values."""
    qs = [lang.qualify(v) for v in values]
    block = {q: i for i, cls in enumerate(rel.restricted(set(qs)).classes()) for q in cls}
    while True:
        ids: dict[tuple, int] = {}
        nxt = {}
        for v, q in zip(values, qs):
            reached = tuple(block[lang.qualify(op.table[ctx[:i] + (v,) + ctx[i + 1:]])]
                            for op in ops for ctx in product(values, repeat=op.arity)
                            for i in range(op.arity))
            nxt[q] = ids.setdefault((block[q], reached), len(ids))
        if len(ids) == len(set(block.values())):
            break
        block = nxt
    return frozenset((a, b) for a in qs for b in qs if block[a] == block[b])


def smallest_equiv_containing(r: SemanticTranslation, carrier: tuple[str, ...]) -> Relation:
    return close_relation(set(r.pairs), "equivalence", carrier, f"eq_{r.name}")


def lr_closure(lang: FiniteLanguage, rel: Relation, r: SemanticTranslation) -> Relation:
    """Combined closure on the whole carrier: w1 related to w2 iff
    w1 eq_R v1, v1 cc v2, v2 eq_R w2 for some source values v1, v2.

    eq_R and cc are equivalences, so w1 and w2 are related iff the source
    values in their eq_R classes meet one common cc class: the relation and
    its transitivity are computed on classes, not on every (w1, w2, v1, v2).
    """
    for a, b in r.pairs:
        if not rel.related(a, b):
            raise InputError(f"semantic translation pair ({a}, {b}) is not inside the relation")
    eq = smallest_equiv_containing(r, rel.carrier)
    cc = congruence_closure_1hole(lang, rel)
    block = {v: i for i, cls in enumerate(cc.classes()) for v in cls}
    classes = eq.classes()
    # the cc classes each eq class meets, and the eq classes meeting one of them
    meets = [{block[w] for w in cls if w in block} for cls in classes]
    near = [{j for j, other in enumerate(meets) if ids & other} for ids in meets]
    pairs = {(w, w) for w in rel.carrier}  # values unreachable from V stay singletons
    for k, cls in enumerate(classes):
        # reflexive and symmetric on classes, so transitive iff related
        # classes are related to the same classes; bad inputs break it
        if any(near[j] != near[k] for j in near[k]):
            raise InputError("combined closure is not transitive; "
                             "the translation is not correct w.r.t. this semantic translation")
        pairs.update(product(cls, chain.from_iterable(classes[j] for j in near[k])))
    return Relation(f"{rel.name}^1c_{r.name}", "equivalence", rel.carrier, frozenset(pairs))


# ------------- translation quality -------------

def _heads(tr: Translation) -> list[tuple[str, Term, Term]]:
    """(construct, generic head f(X1..Xn), its image) per source construct."""
    out = []
    for c in tr.source.constructs:
        head = App(c.name, (), tuple(Var(f"X{i + 1}") for i in range(c.args)))
        out.append((c.name, head, tr.head(c.name)))
    return out


def _joint_vars(lang: FiniteLanguage, lang2: FiniteLanguage,
                head: Term, image: Term) -> tuple[str, ...]:
    """The sorted variables of a head and its image: the domain of the
    valuation pairs the head is checked under."""
    return tuple(sorted(free_vars(lang.signature, head) | free_vars(lang2.signature, image)))


def _image_table(lang2: FiniteLanguage, image: Term, variables: tuple[str, ...],
                 values: tuple[str, ...]) -> dict[tuple[str, ...], str]:
    """The meaning of a head image at every row of values for variables,
    keyed by the row."""
    return {row: denote(lang2, image, dict(zip(variables, row)))
            for row in product(values, repeat=len(variables))}


def check_correct_wrt(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                      r: SemanticTranslation) -> Verdict:
    """Correctness w.r.t. a given semantic translation, decided on heads.

    For a head map it suffices to check each source construct's head H: for
    every pair of valuations eta (target side) and rho (source side) over the
    joint variables with eta(X) R rho(X) pointwise, the meaning of the image
    under eta must be R-related to the meaning of H under rho.
    """
    check_total(r, lang)
    bare = {lang2.qualify(w): w for w in lang2.values}
    stray = sorted((w, u) for w, u in r.pairs if w not in bare)
    if stray:
        raise InputError(f"semantic translation pair ({stray[0][0]}, {stray[0][1]}) "
                         f"names a target value outside {lang2.name}")
    rp = set(r.pairs)
    for name, head, image in _heads(tr):
        joint = _joint_vars(lang, lang2, head, image)
        for rho in valuations(joint, lang.values):
            cands = [[bare[w] for w, u in r.pairs if u == lang.qualify(rho[x])] for x in joint]
            for combo in product(*cands):
                eta = dict(zip(joint, combo))
                lhs = denote(lang2, image, eta)
                rhs = denote(lang, head, rho)
                if (lang2.qualify(lhs), lang.qualify(rhs)) not in rp:
                    return Verdict("no", (name, eta, rho, lhs, rhs))
    return Verdict("yes")


class _Closure:
    """Least closures under F_T, the map check_correct_wrt tests on heads.

    F_T(R) holds (I[eta], f[rho]) for every head f(X1..Xn) with image I and
    every pair of valuations with eta(x) R rho(x) on their joint variables;
    T is correct w.r.t. a total R iff F_T(R) is inside R.  Pairs are bare
    (target value, source value); a closure that would leave `inside` is None.
    """

    def __init__(self, tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                 inside: frozenset[tuple[str, str]]):
        self.lang2 = lang2
        self.inside = inside
        self.rules = []  # (joint variables, positions of X1..Xn in them, f's table, I, I's memo)
        for name, head, image in _heads(tr):
            joint = _joint_vars(lang, lang2, head, image)
            self.rules.append((joint, tuple(joint.index(x.name) for x in head.args),
                               lang.tables[name], image, {}))
        # heads with no variables derive their pair from the empty relation
        self.seeds = tuple(self._derive(rule, ()) for rule in self.rules if not rule[0])

    def _derive(self, rule: tuple, combo: tuple[tuple[str, str], ...]) -> tuple[str, str]:
        joint, args, table, image, memo = rule
        eta = tuple(w for w, _ in combo)
        if eta not in memo:
            memo[eta] = denote(self.lang2, image, dict(zip(joint, eta)))
        return memo[eta], table[tuple(combo[i][1] for i in args)]

    def __call__(self, rel: frozenset[tuple[str, str]],
                 new: tuple[tuple[str, str], ...]) -> frozenset[tuple[str, str]] | None:
        """The least closed relation holding rel (closed) and new.  Only
        derivations that use a new pair are made."""
        out = set(rel)
        work: list[tuple[str, str]] = []
        for p in new:
            if p not in out:
                if p not in self.inside:
                    return None
                out.add(p)
                work.append(p)
        while work:
            p = work.pop()
            others = list(out)
            for rule in self.rules:
                k = len(rule[0])
                for i in range(k):
                    for combo in product(*([p] if j == i else others for j in range(k))):
                        q = self._derive(rule, combo)
                        if q not in out:
                            if q not in self.inside:
                                return None
                            out.add(q)
                            work.append(q)
        return frozenset(out)


def check_valid_upto(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                     rel: Relation, cap: int = 2 ** 20) -> Verdict:
    """Search for a semantic translation inside the relation witnessing correctness.

    For a head map, T is correct w.r.t. a total R iff F_T(R) is inside R
    (see _Closure), and F_T is monotone.  So the correct relations are closed
    under intersection, and every smallest total correct R is the least
    F_T-closure of one choice of a related target per source value: the
    closure of the choices R makes is inside R, total and correct.  The
    search backtracks over such closures: it takes the first source value
    the current closure misses, adds each of its related targets in turn and
    closes again.  A branch ends when a derived pair leaves the relation,
    when its closure was seen before, or when it cannot end smaller than the
    best witness found.

    The witness is the least total closure by (size, sorted (target, source)
    pairs), which is the first total correct subset of the related pairs in
    order of size and then lexicographic order.  The note of "no" counts the
    candidates that answer rules out: every nonempty subset of the related
    pairs.  cap bounds the closures computed, which `checked` counts; when
    it is reached first the verdict is inconclusive.
    """
    _need_carrier(rel, lang, lang2)
    if not lang.values:
        return Verdict("yes", SemanticTranslation("R", ()), "vacuous: no source values")
    pool = sorted((w, v) for w in lang2.values for v in lang.values
                  if rel.related(lang2.qualify(w), lang.qualify(v)))
    targets = {v: [w for w, u in pool if u == v] for v in lang.values}
    close = _Closure(tr, lang, lang2, frozenset(pool))
    best: tuple[int, list[tuple[str, str]]] | None = None
    seen: set[frozenset[tuple[str, str]]] = set()
    checked = 0
    # frames: (closed relation, how many source values it misses, the
    # branches: pairs to add to it, one tuple per branch)
    stack = [(frozenset(), len(lang.values), iter([close.seeds]))]
    while stack:
        r, missing, branches = stack[-1]
        new = next(branches, None)
        if new is None or (best is not None and len(r) + missing > best[0]):
            stack.pop()
            continue
        if checked == cap:
            return Verdict("inconclusive", note=f"inconclusive: candidate cap {cap} exceeded",
                           checked=checked)
        checked += 1
        r = close(r, new)
        if r is None or r in seen:
            continue
        seen.add(r)
        covered = {v for _, v in r}
        uncovered = [v for v in lang.values if v not in covered]
        if uncovered:
            v = uncovered[0]
            stack.append((r, len(uncovered), iter([((w, v),) for w in targets[v]])))
        elif best is None or (len(r), sorted(r)) < best:
            best = (len(r), sorted(r))
    if best is None:
        return Verdict("no", note=f"exhausted {2 ** len(pool) - 1} candidates", checked=checked)
    return Verdict("yes", SemanticTranslation("R", tuple(
        (lang2.qualify(w), lang.qualify(v)) for w, v in best[1])), checked=checked)


def upward_closed_targets(lang: FiniteLanguage, lang2: FiniteLanguage,
                          rel: Relation) -> list[str]:
    """U: target values related to at least one source value."""
    return [w for w in lang2.values
            if any(rel.related(lang2.qualify(w), lang.qualify(v)) for v in lang.values)]


def check_correct_upto(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                       rel: Relation) -> Verdict:
    """Correctness up to the relation: every source value has a related target
    value, and the translation is correct w.r.t. the full restriction of the
    relation to target x source."""
    _need_carrier(rel, lang, lang2)
    for v in lang.values:
        if not any(rel.related(lang2.qualify(w), lang.qualify(v)) for w in lang2.values):
            return Verdict("no", ("unrelated-source-value", v))
    r = SemanticTranslation("R", tuple(sorted(
        (lang2.qualify(w), lang.qualify(v)) for w in lang2.values for v in lang.values
        if rel.related(lang2.qualify(w), lang.qualify(v)))))
    return check_correct_wrt(tr, lang, lang2, r)


def _extra_vars(tr: Translation) -> tuple[str, ...]:
    out: set[str] = set()
    for _, head, image in _heads(tr):
        out |= free_vars(tr.target, image) - {x.name for x in head.args}
    return tuple(sorted(out))


# the most distinct behaviours _preserve_reps builds before it stops
BEHAVIOUR_CAP = 20000
# the most table cells _preserve_reps materializes: a valuation row of either
# side holds one cell per variable, and a behaviour one per row of each side
CELL_BOUND = 4_000_000


def _preserve_reps(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                   depth: int, cap: int = BEHAVIOUR_CAP, cells: int = CELL_BOUND):
    """Distinct (source table, image table) behaviours of terms up to depth,
    built level by level: the leaves and constants (height 1), then each
    height up to depth.  Yields (reps, variables, rows_src, img_index,
    exhausted) after each completed level, with exhausted False, and once
    more when the scan ends.  The last yield's exhausted tells whether reps
    then holds every behaviour of every term: True when the scan reached a
    fixed point, False when it stopped at depth, None when it was cut at cap
    behaviours or at `cells` table cells, so that some terms up to depth
    were not scanned.  Every yield holds the one reps dict, which each level
    extends.  When the valuation rows alone would pass `cells`, no row is
    built: the one yield has no behaviour, no row and exhausted None.  A
    consumer that stops early leaves the later levels unbuilt.

    A term's two tables are its meaning and its translation's meaning as
    functions of a valuation row.  Enough distinct variables are used that any
    failing term can be renamed into this pool (variables sharing a value
    under the failing valuation may be merged, so |V| variables suffice);
    names already used free by the images are skipped to keep their rows
    independent.  Building behaviours bottom-up with deduplication makes the
    scan complete for all terms whenever it reaches a fixed point.
    """
    extras = _extra_vars(tr)
    pool = [v for v in ("X", "Y", "Z", "W") if v not in extras]
    pool += [f"x{i}" for i in range(4, 4 + len(lang.values)) if f"x{i}" not in extras]
    variables = tuple(pool[:len(lang.values)]) + extras
    rows = len(lang.values) ** len(variables) + len(lang2.values) ** len(variables)
    if rows * len(variables) > cells:
        yield {}, variables, [], {}, None
        return
    # the behaviours that fit beside the rows, and within the cap
    cap = min(cap, (cells - rows * len(variables)) // rows)
    # rows_src[i][k] is variables[k]'s value in row i: the rows of
    # valuations(variables, lang.values), in its order
    rows_src = list(product(lang.values, repeat=len(variables)))
    rows_img = list(product(lang2.values, repeat=len(variables)))
    img_index = {row: i for i, row in enumerate(rows_img)}
    ext_rows = [row[len(variables) - len(extras):] if extras else ()
                for row in rows_img]
    ext_cols = tuple(zip(*ext_rows))

    image_ops = {name: _image_table(lang2, image, tuple(x.name for x in head.args) + extras,
                                    lang2.values)
                 for name, head, image in _heads(tr)}

    def combine(op: Operator, combo: tuple) -> tuple:
        img_tbl = image_ops[op.name]
        if not combo:
            return (op.table[()],) * len(rows_src), tuple(map(img_tbl.__getitem__, ext_rows))
        # row i's argument tuple is column i of the combo's tables
        src = tuple(map(op.table.__getitem__, zip(*(c[0] for c in combo))))
        img = tuple(map(img_tbl.__getitem__, zip(*(c[1] for c in combo), *ext_cols)))
        return src, img

    reps: dict[tuple, Term] = {}
    for k, v in enumerate(variables):
        src = tuple(row[k] for row in rows_src)
        img = tuple(row[k] for row in rows_img)
        reps.setdefault((src, img), Var(v))
    for op in lang.operators:
        if op.arity == 0:
            reps.setdefault(combine(op, ()), App(op.name, (), ()))
    if len(reps) > cap:
        yield reps, variables, rows_src, img_index, None
        return
    yield reps, variables, rows_src, img_index, False
    current = list(reps)
    composite = [op for op in lang.operators if op.arity > 0]
    for _ in range(depth - 1):  # leaves and constants have height 1
        fresh: list[tuple] = []
        for op in composite:
            for combo in product(current, repeat=op.arity):
                key = combine(op, combo)
                if key not in reps:
                    if len(reps) >= cap:
                        yield reps, variables, rows_src, img_index, None
                        return
                    reps[key] = App(op.name, (), tuple(reps[c] for c in combo))
                    fresh.append(key)
        if not fresh:
            yield reps, variables, rows_src, img_index, True
            return
        current += fresh
        yield reps, variables, rows_src, img_index, False
    exhausted = all(combine(op, combo) in reps
                    for op in composite for combo in product(current, repeat=op.arity))
    yield reps, variables, rows_src, img_index, exhausted


def check_preserves(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                    rel: Relation, depth: int) -> Verdict:
    """Search for a value map bT with bT(v) related to v under which translated
    terms keep their meaning up to the relation.

    Verdict note "preserves" when the claim is unbounded (the behaviour scan
    reached a fixed point, or the homomorphism certificate over heads holds);
    otherwise "holds-to-depth", or "inconclusive" when the scan was cut at
    BEHAVIOUR_CAP behaviours or CELL_BOUND table cells before depth.  A "no"
    stands even then: the behaviours scanned are those of real terms.  When
    the valuation rows alone would pass CELL_BOUND the answer is
    "inconclusive" before any scan.

    The scan stops after the first completed level that settles the answer,
    which is then the answer of the full scan: when no bT survives the
    behaviours built so far, or when the first survivor in product order
    holds the certificate (see the invariant beside the stop).

    The certificate is that T is correct w.r.t. the graph of bT, the
    semantic translation {(bT(v), v)}: check_correct_wrt then asks, on
    every head f(X1..Xn) with image I and every valuation rho, that
    I[bT . rho] = bT(f[rho]).  So image meanings commute with bT on the
    heads, and by induction on terms every translated term keeps its
    meaning under bT.
    """
    _need_depth(depth)
    _need_carrier(rel, lang, lang2)
    if not lang.values:
        return Verdict("yes", {}, "preserves")
    if not lang2.values:
        return Verdict("no")
    levels = _preserve_reps(tr, lang, lang2, depth, cells=CELL_BOUND)
    first = next(levels)
    _, variables, rows_src, img_index, _ = first
    if not rows_src:
        rows = len(lang.values) ** len(variables) + len(lang2.values) ** len(variables)
        return Verdict("inconclusive", note=f"inconclusive: table bound {CELL_BOUND} cells "
                                            f"exceeded by {rows} valuation rows of "
                                            f"{len(variables)} cells")
    related = {(w, v) for w in lang2.values for v in lang.values
               if rel.related(lang2.qualify(w), lang.qualify(v))}
    cands = [[w for w in lang2.values if (w, v) in related] for v in lang.values]
    # bT is assigned depth-first in lang.values order, so the first full map
    # found is the first in product order; a row is checked at the depth that
    # gives its last value a target
    last = {v: d for d, v in enumerate(lang.values)}
    due: list[list[int]] = [[] for _ in lang.values]
    for i, row in enumerate(rows_src):
        due[max(last[v] for v in row)].append(i)

    def first_survivor(items: list[tuple]) -> dict[str, str] | None:
        """The first bT in product order that every behaviour of items keeps."""
        bt: dict[str, str] = {}

        def rows_hold(d: int) -> bool:
            for i in due[d]:
                theta = img_index[tuple(bt[v] for v in rows_src[i])]
                if any((img[theta], src[i]) not in related for src, img in items):
                    return False
            return True

        stack = [iter(cands[0])]
        while stack:
            d = len(stack) - 1
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                continue
            bt[lang.values[d]] = w
            if not rows_hold(d):
                continue
            if d + 1 < len(lang.values):
                stack.append(iter(cands[d + 1]))
                continue
            return {v: bt[v] for v in lang.values}
        return None

    searched = -1  # len(reps) at the last search; reps only grows
    for reps, *_, exhausted in chain([first], levels):
        if len(reps) == searched:
            continue
        searched = len(reps)
        found = first_survivor(list(reps))
        # Invariant: reps holds real terms' behaviours only, and every later
        # level, and so the full scan, cut or not, keeps all of them.  A bT
        # that fails here fails there: with no survivor the full scan answers
        # "no", and every map before found in product order is out.  A
        # certified map keeps every term's meaning, so found is the full
        # scan's first survivor too, and the full scan answers "preserves"
        # with it.  So a stop never changes an answer.
        if found is None:
            return Verdict("no")
        graph = SemanticTranslation("bT", tuple(sorted(
            (lang2.qualify(w), lang.qualify(v)) for v, w in found.items())))
        if check_correct_wrt(tr, lang, lang2, graph).status == "yes":
            return Verdict("yes", found, "preserves")
    if exhausted:
        return Verdict("yes", found, "preserves")
    if exhausted is None:
        bound = (f"behaviour cap {BEHAVIOUR_CAP}" if len(reps) >= BEHAVIOUR_CAP
                 else f"table bound {CELL_BOUND} cells")
        return Verdict("inconclusive", note=f"inconclusive: {bound} reached before depth {depth}")
    return Verdict("yes", found, f"holds-to-depth {depth}")


def _need_depth(depth: int) -> None:
    if depth < 1:
        raise InputError("depth must be >= 1")


def closed_terms(lang: FiniteLanguage, depth: int) -> Iterator[Term]:
    yield from enumerate_terms(lang.signature, depth, leaf_vars=())


def check_respects(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                   rel: Relation, depth: int) -> Verdict:
    """Every closed source term keeps its meaning under every valuation of the
    image's variables into U (target values related to some source value)."""
    _need_depth(depth)
    _need_carrier(rel, lang, lang2)
    if not lang.values:
        return Verdict("yes", note="vacuous: no source values")
    for v in lang.values:
        if not any(rel.related(lang2.qualify(w), lang.qualify(v)) for w in lang2.values):
            return Verdict("no", ("unrelated-source-value", v))
    u_set = tuple(upward_closed_targets(lang, lang2, rel))
    translate = complete_compositional(tr)
    for p in closed_terms(lang, depth):
        tp = translate(p)
        rhs = denote(lang, p, {})
        for eta in valuations(tuple(sorted(free_vars(lang2.signature, tp))), u_set):
            lhs = denote(lang2, tp, eta)
            if not rel.related(lang2.qualify(lhs), lang.qualify(rhs)):
                return Verdict("no", (p, eta, lhs, rhs))
    return Verdict("yes", note=f"holds-to-depth {depth}")


def _image_ops(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage, rel: Relation,
               w_set: tuple[str, ...]) -> list[tuple[Operator, tuple[str, ...]]]:
    """The translated heads as operators on w_set, each beside its
    arguments: its image's sorted free variables.  Results may leave w_set."""
    _need_carrier(rel, lang, lang2)
    stray = sorted(set(w_set) - set(lang2.values))
    if stray:
        raise InputError(f"values outside {lang2.name}: {stray}")
    out = []
    for name, _, image in _heads(tr):
        xs = tuple(sorted(free_vars(lang2.signature, image)))
        out.append((Operator(name, len(xs), _image_table(lang2, image, xs, w_set)), xs))
    return out


def is_congruence_for_image(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                            rel: Relation, w_set: tuple[str, ...]) -> Verdict:
    """Relation preserved by every translated head over valuations into w_set."""
    ops = _image_ops(tr, lang, lang2, rel, w_set)
    found = _congruence_witness(lang2, [op for op, _ in ops], w_set, rel)
    if found is None:
        return Verdict("yes")
    name, us, vs, lhs, rhs = found
    xs = next(xs for op, xs in ops if op.name == name)
    return Verdict("no", (name, dict(zip(xs, us)), dict(zip(xs, vs)), lhs, rhs))


def image_congruence_closure_1hole(tr: Translation, lang: FiniteLanguage,
                                   lang2: FiniteLanguage, rel: Relation,
                                   w_set: tuple[str, ...]) -> Relation:
    """Largest 1-hole congruence for the translated language on w_set inside rel."""
    ops = [op for op, _ in _image_ops(tr, lang, lang2, rel, w_set)]
    # a head without variables has no hole, so only the others must stay in w_set
    if any(out not in w_set for op in ops if op.arity for out in op.table.values()):
        raise InputError("image language is not closed on the given value set")
    return Relation(f"{rel.name}^1c_image", "equivalence",
                    tuple(sorted(lang2.qualify(w) for w in w_set)),
                    _one_hole_pairs(lang2, ops, w_set, rel))


def compose_semantic(r2: SemanticTranslation, r1: SemanticTranslation) -> SemanticTranslation:
    """Relational composition: (w3, v1) when w3 R2 v2 and v2 R1 v1 for some v2."""
    pairs = {(w3, v1) for w3, v2 in r2.pairs for u2, v1 in r1.pairs if v2 == u2}
    return SemanticTranslation(f"{r2.name}.{r1.name}", tuple(sorted(pairs)))


# ------------- randomized law checks -------------

class PropertyReport:
    """What property_suite found.  The fields are not set again."""
    __slots__ = ("seed", "trials", "checks", "violations")

    def __init__(self, seed: int, trials: int, checks: dict[str, int],
                 violations: list[tuple]) -> None:
        self.seed = seed
        self.trials = trials
        self.checks = checks
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_language(rnd: random.Random, name: str) -> FiniteLanguage:
    values = tuple(f"v{i}" for i in range(rnd.randint(1, 3)))
    ops = []
    for j in range(rnd.randint(1, 3)):
        arity = rnd.randint(0, 2)
        table = {args: rnd.choice(values) for args in product(values, repeat=arity)}
        ops.append(Operator(f"f{j}", arity, table))
    return FiniteLanguage(name, values, tuple(ops))


def _random_equivalence(rnd: random.Random, carrier: tuple[str, ...]) -> Relation:
    label = {c: rnd.randrange(3) for c in carrier}
    pairs = frozenset((a, b) for a in carrier for b in carrier if label[a] == label[b])
    return Relation("sim", "equivalence", tuple(sorted(carrier)), pairs)


def _random_image(rnd: random.Random, target: Signature, arity: int) -> Term:
    leaves = [Var(f"X{i + 1}") for i in range(arity)]
    leaves += [App(c.name, (), ()) for c in target.constructs if c.args == 0]

    def go(budget: int) -> Term | None:
        composite = [c for c in target.constructs if c.args > 0]
        if budget == 0 or not composite or (leaves and rnd.random() < 0.45):
            return rnd.choice(leaves) if leaves else None
        c = rnd.choice(composite)
        args = []
        for _ in range(c.args):
            a = go(budget - 1)
            if a is None:
                return None
            args.append(a)
        return App(c.name, (), tuple(args))

    return go(2)


def _random_translation(rnd: random.Random, src: FiniteLanguage,
                        tgt: FiniteLanguage) -> Translation | None:
    heads = {}
    for c in src.signature.constructs:
        img = _random_image(rnd, tgt.signature, c.args)
        if img is None:  # no closed target term to map a constant to
            return None
        heads[c.name] = img
    return translation(src.signature, tgt.signature, heads)


def property_suite(seed: int, trials: int) -> PropertyReport:
    """Brute-force the library's theorems on random small instances.

    Laws: (a) correct iff valid and the relation is a congruence for the
    image on U; (b) valid translations compose, witnessed by the composite
    semantic translation; (c) the three clauses of the combined-closure
    theorem; (d) valid implies preserves, to depth 3; (e) a certified
    preserving fvr head map is valid.  Any violation is an implementation
    bug, not an input problem.  Fewer than one trial is refused, as a depth
    below 1 is.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    rnd = random.Random(seed)
    checks: dict[str, int] = {k: 0 for k in
                              ("valid-correct", "composition", "closure-clauses",
                               "preservation", "preservation-is-valid")}
    violations: list[tuple] = []

    def note(law: str, payload) -> None:
        violations.append((law, payload))

    for trial in range(trials):
        l1 = _random_language(rnd, "L1")
        l2 = _random_language(rnd, "L2")
        l3 = _random_language(rnd, "L3")
        carrier = l1.qualified_values + l2.qualified_values + l3.qualified_values
        rel = _random_equivalence(rnd, carrier)
        t1 = _random_translation(rnd, l1, l2)
        t2 = _random_translation(rnd, l2, l3)
        if t1 is None or t2 is None:
            continue

        rel12 = rel.restricted(set(l1.qualified_values) | set(l2.qualified_values))
        v1 = check_valid_upto(t1, l1, l2, rel12)
        valid1 = v1.status == "yes"

        # (a) Thm: correct up to ~  <=>  valid up to ~ and congruence on U
        checks["valid-correct"] += 1
        correct = check_correct_upto(t1, l1, l2, rel12).status == "yes"
        u_set = tuple(upward_closed_targets(l1, l2, rel12))
        cong = is_congruence_for_image(t1, l1, l2, rel12, u_set).status == "yes"
        if correct != (valid1 and cong):
            note("valid-correct", (trial, correct, valid1, cong))

        # (b) Thm: composition of valid translations, witness R2 . R1
        v2 = check_valid_upto(t2, l2, l3, rel.restricted(
            set(l2.qualified_values) | set(l3.qualified_values)))
        if valid1 and v2.status == "yes":
            checks["composition"] += 1
            tc = compose_translations(t1, t2)
            rc = compose_semantic(v2.witness, v1.witness)
            if check_correct_wrt(tc, l1, l3, rc).status != "yes":
                note("composition", (trial,))

        # (c) Thm: combined closure, clauses (1)-(3)
        if valid1:
            checks["closure-clauses"] += 1
            try:
                lr = lr_closure(l1, rel12, v1.witness)
                cc = congruence_closure_1hole(l1, rel12)
                if lr.restricted(set(l1.qualified_values)).pairs != cc.pairs:
                    note("closure-clauses", (trial, 1))
                w_set = tuple(w for w in l2.values
                              if any(lr.related(l2.qualify(w), l1.qualify(v))
                                     for v in l1.values))
                if any(out not in w_set for op, _ in _image_ops(t1, l1, l2, rel12, w_set)
                       for out in op.table.values()):
                    note("closure-clauses", (trial, 2))
                else:
                    icc = image_congruence_closure_1hole(t1, l1, l2, rel12, w_set)
                    qw = {l2.qualify(w) for w in w_set}
                    if lr.restricted(qw).pairs != icc.pairs:
                        note("closure-clauses", (trial, 3))
            except InputError as err:
                note("closure-clauses", (trial, str(err)))

        pres = check_preserves(t1, l1, l2, rel12, depth=3)
        preserves = pres.status == "yes"

        # (d) Prop: valid implies preserves (depth 3)
        if valid1:
            checks["preservation"] += 1
            if not preserves:
                note("preservation", (trial,))

        # (e) Thm: preserving fvr head maps are valid
        if preserves and pres.note == "preserves":
            checks["preservation-is-valid"] += 1
            if not valid1:
                note("preservation-is-valid", (trial, pres.witness))

    return PropertyReport(seed, trials, checks, violations)
