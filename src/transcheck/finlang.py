"""Finite interpreted languages and exhaustive checks for translation quality.

Languages here are binder-free: every construct is an operator with a total
table over a finite value domain.  Relations live on qualified value names
"lang.value" so the two domains of a translation stay disjoint even when the
bare value names coincide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterator

from .terms import (App, Construct, Signature, Term, Translation, Var,
                    complete_compositional, compose_translations,
                    enumerate_terms, free_vars, parse_term, translation)
from .verdict import Verdict


class InputError(Exception):
    """Ill-formed language, relation, or translation input."""


# ------------- languages -------------

@dataclass(frozen=True)
class Operator:
    name: str
    arity: int
    table: dict[tuple[str, ...], str] = field(hash=False)


@dataclass(frozen=True)
class FiniteLanguage:
    name: str
    values: tuple[str, ...]
    operators: tuple[Operator, ...]

    def __post_init__(self) -> None:
        vs = set(self.values)
        for op in self.operators:
            keys = set(op.table)
            want = set(product(self.values, repeat=op.arity))
            if not keys <= want:
                extra = sorted(keys - want)[:3]
                raise InputError(f"{self.name}.{op.name}: table keys outside values: {extra}")
            if keys != want:
                missing = sorted(want - keys)[:3]
                raise InputError(f"{self.name}.{op.name}: table not total, missing {missing}")
            for out in op.table.values():
                if out not in vs:
                    raise InputError(f"{self.name}.{op.name}: result {out} outside values")

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

    @property
    def qualified_values(self) -> tuple[str, ...]:
        return tuple(self.qualify(v) for v in self.values)


def _need_keys(data, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(data, dict):
        raise InputError(f"{what} is not a JSON object")
    missing = set(keys) - set(data)
    if missing:
        raise InputError(f"{what} lacks keys: {sorted(missing)}")


def load_language(data: dict) -> FiniteLanguage:
    _need_keys(data, ("name", "values", "operators"), "language file")
    ops = []
    for op in data["operators"]:
        _need_keys(op, ("name", "arity", "table"), "operator")
        table = {}
        for key, out in op["table"].items():
            args = tuple(key.split(",")) if key else ()
            if len(args) != op["arity"]:
                raise InputError(f"{op['name']}: key {key!r} does not match arity {op['arity']}")
            table[args] = out
        ops.append(Operator(op["name"], op["arity"], table))
    return FiniteLanguage(data["name"], tuple(data["values"]), tuple(ops))


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

@dataclass(frozen=True)
class Relation:
    name: str
    kind: str  # "equivalence" | "preorder"
    carrier: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]

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
    return close_relation({tuple(p) for p in data["pairs"]}, data["kind"],
                          tuple(data["carrier"]), data.get("name", "rel"))


def dump_relation(rel: Relation) -> dict:
    return {"name": rel.name, "kind": rel.kind, "carrier": sorted(rel.carrier),
            "pairs": sorted([a, b] for a, b in rel.pairs)}


@dataclass(frozen=True)
class SemanticTranslation:
    """Relation between target and source values, total on the source."""
    name: str
    pairs: tuple[tuple[str, str], ...]  # (target value, source value), qualified

    def image(self) -> list[str]:
        return sorted({w for w, _ in self.pairs})


def load_semantic_translation(data: dict) -> SemanticTranslation:
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
    heads = {op: parse_term(tgt, img) for op, img in data["heads"].items()}
    return translation(src, tgt, heads)


# ------------- congruence checks -------------

def is_congruence(lang: FiniteLanguage, rel: Relation) -> Verdict:
    """Equivalence preserved by every operator, all argument positions at once."""
    _need_carrier(rel, lang)
    for op in lang.operators:
        for us in product(lang.values, repeat=op.arity):
            for vs in product(lang.values, repeat=op.arity):
                if all(rel.related(lang.qualify(u), lang.qualify(v)) for u, v in zip(us, vs)):
                    ru, rv = op.table[us], op.table[vs]
                    if not rel.related(lang.qualify(ru), lang.qualify(rv)):
                        return Verdict("no", (op.name, us, vs, ru, rv))
    return Verdict("yes")


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


def _refine(rel: Relation, lang: FiniteLanguage, values: tuple[str, ...],
            probe: Callable[[str, dict[str, int]], tuple]) -> frozenset[tuple[str, str]]:
    """Pairs of the coarsest partition of values inside rel that probe does
    not split: the greatest fixpoint of partition refinement.  Values start
    in their rel classes; each round splits a block by probe(v, block), the
    blocks that v's one-hole contexts reach under the current partition."""
    qs = [lang.qualify(v) for v in values]
    block = {q: i for i, cls in enumerate(rel.restricted(set(qs)).classes()) for q in cls}
    while True:
        ids: dict[tuple, int] = {}
        nxt = {q: ids.setdefault((block[q], probe(v, block)), len(ids))
               for v, q in zip(values, qs)}
        if len(ids) == len(set(block.values())):
            break
        block = nxt
    return frozenset((a, b) for a in qs for b in qs if block[a] == block[b])


def congruence_closure_1hole(lang: FiniteLanguage, rel: Relation) -> Relation:
    """Largest one-hole congruence for lang contained in the equivalence rel:
    values are split whenever some operator with one varied argument tells
    them apart."""
    if rel.kind != "equivalence":
        raise InputError("congruence closure needs an equivalence")
    _need_carrier(rel, lang)

    def probe(v: str, block: dict[str, int]) -> tuple:
        sig = []
        for op in lang.operators:
            for ctx in product(lang.values, repeat=op.arity):
                for i in range(op.arity):
                    plugged = ctx[:i] + (v,) + ctx[i + 1:]
                    sig.append(block[lang.qualify(op.table[plugged])])
        return tuple(sig)

    pairs = _refine(rel, lang, lang.values, probe)
    return Relation(f"{rel.name}^1c", "equivalence", lang.qualified_values, pairs)


def smallest_equiv_containing(r: SemanticTranslation, carrier: tuple[str, ...]) -> Relation:
    return close_relation(set(r.pairs), "equivalence", carrier, f"eq_{r.name}")


def lr_closure(lang: FiniteLanguage, rel: Relation, r: SemanticTranslation) -> Relation:
    """Combined closure on the whole carrier: w1 related to w2 iff
    w1 eq_R v1, v1 cc v2, v2 eq_R w2 for some source values v1, v2."""
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
    pairs |= {(w, w) for w in rel.carrier}  # values unreachable from V stay singletons
    out = Relation(f"{rel.name}^1c_{r.name}", "equivalence", rel.carrier, frozenset(pairs))
    for a, b in out.pairs:  # composite can fail to be transitive on bad inputs
        for c, d in out.pairs:
            if b == c and not out.related(a, d):
                raise InputError("combined closure is not transitive; "
                                 "the translation is not correct w.r.t. this semantic translation")
    return out


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


def check_correct_wrt(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                      r: SemanticTranslation) -> Verdict:
    """Correctness w.r.t. a given semantic translation, decided on heads.

    For a head map it suffices to check each source construct's head H: for
    every pair of valuations eta (target side) and rho (source side) over the
    joint variables with eta(X) R rho(X) pointwise, the meaning of the image
    under eta must be R-related to the meaning of H under rho.
    """
    check_total(r, lang)
    rp = set(r.pairs)
    for name, head, image in _heads(tr):
        joint = _joint_vars(lang, lang2, head, image)
        for rho in valuations(joint, lang.values):
            cands = [[w for w, u in r.pairs if u == lang.qualify(rho[x])] for x in joint]
            for combo in product(*cands):
                eta = dict(zip(joint, [w.split(".", 1)[1] for w in combo]))
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
    for name, _, image in _heads(tr):
        holes = {f"X{i + 1}" for i in range(tr.source[name].args)}
        out |= free_vars(tr.target, image) - holes
    return tuple(sorted(out))


def _preserve_reps(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                   depth: int, cap: int = 20000):
    """Distinct (source table, image table) behaviours of terms up to depth.

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
    rows_src = [tuple(r[v] for v in variables)
                for r in valuations(variables, lang.values)]
    rows_img = [tuple(r[v] for v in variables)
                for r in valuations(variables, lang2.values)]
    img_index = {row: i for i, row in enumerate(rows_img)}
    ext_rows = [row[len(variables) - len(extras):] if extras else ()
                for row in rows_img]
    ext_cols = tuple(zip(*ext_rows))

    image_ops = {}
    for name, _, image in _heads(tr):
        n = tr.source[name].args
        tbl = {}
        for args in product(lang2.values, repeat=n):
            for ext in product(lang2.values, repeat=len(extras)):
                rho = {f"X{i + 1}": args[i] for i in range(n)}
                rho.update(zip(extras, ext))
                tbl[args + ext] = denote(lang2, image, rho)
        image_ops[name] = tbl

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
    current = list(reps)
    composite = [op for op in lang.operators if op.arity > 0]
    for _ in range(depth - 1):  # leaves and constants have height 1
        fresh: list[tuple] = []
        for op in composite:
            for combo in product(current, repeat=op.arity):
                key = combine(op, combo)
                if key not in reps:
                    if len(reps) >= cap:
                        return reps, variables, rows_src, img_index, False
                    reps[key] = App(op.name, (), tuple(reps[c] for c in combo))
                    fresh.append(key)
        if not fresh:
            return reps, variables, rows_src, img_index, True
        current += fresh
    exhausted = all(combine(op, combo) in reps
                    for op in composite for combo in product(current, repeat=op.arity))
    return reps, variables, rows_src, img_index, exhausted


def check_preserves(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                    rel: Relation, depth: int) -> Verdict:
    """Search for a value map bT with bT(v) related to v under which translated
    terms keep their meaning up to the relation.

    Verdict note "preserves" when the claim is unbounded (the behaviour scan
    reached a fixed point, or the homomorphism certificate over heads holds);
    otherwise "holds-to-depth".
    """
    _need_carrier(rel, lang, lang2)
    if not lang.values:
        return Verdict("yes", {}, "preserves")
    if not lang2.values:
        return Verdict("no")
    reps, variables, rows_src, img_index, exhausted = _preserve_reps(tr, lang, lang2, depth)
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
    items = list(reps)
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
        found = {v: bt[v] for v in lang.values}
        certified = exhausted or _homomorphism_certificate(tr, lang, lang2, found)
        return Verdict("yes", found, "preserves" if certified else f"holds-to-depth {depth}")
    return Verdict("no")


def _homomorphism_certificate(tr: Translation, lang: FiniteLanguage,
                              lang2: FiniteLanguage, bt: dict[str, str]) -> bool:
    """Image meanings commute with bT on every head; implies preservation for
    all terms by induction."""
    for _, head, image in _heads(tr):
        for rho in valuations(_joint_vars(lang, lang2, head, image), lang.values):
            eta = {x: bt[v] for x, v in rho.items()}
            if denote(lang2, image, eta) != bt[denote(lang, head, rho)]:
                return False
    return True


def closed_terms(lang: FiniteLanguage, depth: int) -> Iterator[Term]:
    yield from enumerate_terms(lang.signature, depth, leaf_vars=())


def check_respects(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                   rel: Relation, depth: int) -> Verdict:
    """Every closed source term keeps its meaning under every valuation of the
    image's variables into U (target values related to some source value)."""
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


def is_congruence_for_image(tr: Translation, lang: FiniteLanguage, lang2: FiniteLanguage,
                            rel: Relation, w_set: tuple[str, ...]) -> Verdict:
    """Relation preserved by every translated head over valuations into w_set."""
    _need_carrier(rel, lang, lang2)
    stray = sorted(set(w_set) - set(lang2.values))
    if stray:
        raise InputError(f"values outside {lang2.name}: {stray}")
    for name, _, image in _heads(tr):
        xs = tuple(sorted(free_vars(lang2.signature, image)))
        for theta in valuations(xs, w_set):
            for eta in valuations(xs, w_set):
                if all(rel.related(lang2.qualify(theta[x]), lang2.qualify(eta[x])) for x in xs):
                    lhs, rhs = denote(lang2, image, theta), denote(lang2, image, eta)
                    if not rel.related(lang2.qualify(lhs), lang2.qualify(rhs)):
                        return Verdict("no", (name, theta, eta, lhs, rhs))
    return Verdict("yes")


def image_congruence_closure_1hole(tr: Translation, lang: FiniteLanguage,
                                   lang2: FiniteLanguage, rel: Relation,
                                   w_set: tuple[str, ...]) -> Relation:
    """Largest 1-hole congruence for the translated language on w_set inside rel."""
    images = [image for _, _, image in _heads(tr)]

    def probe(w: str, block: dict[str, int]) -> tuple:
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

    pairs = _refine(rel, lang2, w_set, probe)
    return Relation(f"{rel.name}^1c_image", "equivalence",
                    tuple(sorted(lang2.qualify(w) for w in w_set)), pairs)


def compose_semantic(r2: SemanticTranslation, r1: SemanticTranslation) -> SemanticTranslation:
    """Relational composition: (w3, v1) when w3 R2 v2 and v2 R1 v1 for some v2."""
    pairs = {(w3, v1) for w3, v2 in r2.pairs for u2, v1 in r1.pairs if v2 == u2}
    return SemanticTranslation(f"{r2.name}.{r1.name}", tuple(sorted(pairs)))


# ------------- randomized law checks -------------

@dataclass
class PropertyReport:
    seed: int
    trials: int
    checks: dict[str, int]
    violations: list[tuple]

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
    bug, not an input problem.
    """
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

        # (a) Thm: correct up to ~  <=>  valid up to ~ and congruence on U
        checks["valid-correct"] += 1
        correct = check_correct_upto(t1, l1, l2, rel12).holds
        u_set = tuple(upward_closed_targets(l1, l2, rel12))
        cong = is_congruence_for_image(t1, l1, l2, rel12, u_set).holds
        if correct != (v1.holds and cong):
            note("valid-correct", (trial, correct, v1.holds, cong))

        # (b) Thm: composition of valid translations, witness R2 . R1
        v2 = check_valid_upto(t2, l2, l3, rel.restricted(
            set(l2.qualified_values) | set(l3.qualified_values)))
        if v1.holds and v2.holds:
            checks["composition"] += 1
            tc = compose_translations(t1, t2)
            rc = compose_semantic(v2.witness, v1.witness)
            if not check_correct_wrt(tc, l1, l3, rc).holds:
                note("composition", (trial,))

        # (c) Thm: combined closure, clauses (1)-(3)
        if v1.holds:
            checks["closure-clauses"] += 1
            try:
                lr = lr_closure(l1, rel12, v1.witness)
                cc = congruence_closure_1hole(l1, rel12)
                if lr.restricted(set(l1.qualified_values)).pairs != cc.pairs:
                    note("closure-clauses", (trial, 1))
                w_set = tuple(w for w in l2.values
                              if any(lr.related(l2.qualify(w), l1.qualify(v))
                                     for v in l1.values))
                closed = all(
                    denote(l2, image, rho) in w_set
                    for _, _, image in _heads(t1)
                    for rho in valuations(
                        tuple(sorted(free_vars(l2.signature, image))), w_set))
                if not closed:
                    note("closure-clauses", (trial, 2))
                else:
                    icc = image_congruence_closure_1hole(t1, l1, l2, rel12, w_set)
                    qw = {l2.qualify(w) for w in w_set}
                    if lr.restricted(qw).pairs != icc.pairs:
                        note("closure-clauses", (trial, 3))
            except InputError as err:
                note("closure-clauses", (trial, str(err)))

        pres = check_preserves(t1, l1, l2, rel12, depth=3)

        # (d) Prop: valid implies preserves (depth 3)
        if v1.holds:
            checks["preservation"] += 1
            if not pres.holds:
                note("preservation", (trial,))

        # (e) Thm: preserving fvr head maps are valid
        if pres.holds and pres.note == "preserves":
            checks["preservation-is-valid"] += 1
            if not v1.holds:
                note("preservation-is-valid", (trial, pres.witness))

    return PropertyReport(seed, trials, checks, violations)
