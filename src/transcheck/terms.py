"""Terms over binding signatures: substitution, alpha-equivalence, heads, translations.

A signature declares constructs with an arity and a binding profile: for each
argument position, the list of slot labels whose bound name scopes over that
argument.  Variables double as ordinary term variables (uppercase) and as
bindable names (lowercase); alpha-conversion renames every kind of bound name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import count, product
from typing import Callable, Iterator

from .verdict import Verdict

_PLACEHOLDER = re.compile(r"X[0-9]+$")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class TermError(Exception):
    """Malformed signature, term, or translation."""


# ------------- signatures -------------

@dataclass(frozen=True)
class Construct:
    """A construct with its binding profile.

    binders[i] lists the slot labels whose bound names scope over argument i.
    Both derived fields are computed once: slots holds the distinct labels in
    first-appearance order, and an App's bound names are aligned with it;
    scopes[i] holds the indices into slots of the labels in binders[i], in
    that order, so bound[k] for k in scopes[i] are the names bound in
    argument i.
    """
    name: str
    args: int
    binders: tuple[tuple[str, ...], ...]
    slots: tuple[str, ...] = field(init=False, repr=False, compare=False)
    scopes: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.args < 0:
            raise TermError(f"{self.name}: negative arity")
        if len(self.binders) != self.args:
            raise TermError(f"{self.name}: binding profile length != arity")
        slots = tuple(dict.fromkeys(lbl for per_arg in self.binders for lbl in per_arg))
        for lbl in slots:
            if _PLACEHOLDER.match(lbl):
                raise TermError(f"{self.name}: slot label {lbl} collides with argument placeholders")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "scopes", tuple(
            tuple(slots.index(lbl) for lbl in per_arg) for per_arg in self.binders))


@dataclass(frozen=True)
class Signature:
    name: str
    constructs: tuple[Construct, ...]
    _by_name: dict[str, Construct] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name = {c.name: c for c in self.constructs}
        if len(by_name) != len(self.constructs):
            raise TermError(f"{self.name}: duplicate construct names")
        object.__setattr__(self, "_by_name", by_name)

    def __getitem__(self, op: str) -> Construct:
        c = self._by_name.get(op)
        if c is None:
            raise TermError(f"{self.name}: unknown construct {op}")
        return c

    def __contains__(self, op: str) -> bool:
        return op in self._by_name


def signature_from_dict(data: dict) -> Signature:
    constructs = tuple(
        Construct(c["name"], c["args"], tuple(tuple(b) for b in c["binders"]))
        for c in data["constructs"]
    )
    return Signature(data["name"], constructs)


# ------------- terms -------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    op: str
    bound: tuple[str, ...]  # actual binder names, aligned with the construct's slots
    args: tuple["Term", ...]


Term = Var | App


def validate(sig: Signature, t: Term) -> None:
    """Raise TermError unless t is well formed over sig."""
    match t:
        case Var(x):
            if not _IDENT.match(x):
                raise TermError(f"bad variable name {x!r}")
        case App(op, bound, args):
            c = sig[op]
            if len(args) != c.args:
                raise TermError(f"{op}: expected {c.args} arguments, got {len(args)}")
            if len(bound) != len(c.slots):
                raise TermError(f"{op}: expected {len(c.slots)} binder names, got {len(bound)}")
            for b in bound:
                if not _IDENT.match(b):
                    raise TermError(f"{op}: bad binder name {b!r}")
            for scope in c.scopes:
                names = [bound[k] for k in scope]
                if len(set(names)) != len(names):
                    raise TermError(f"{op}: equal binder names scope the same argument")
            for a in args:
                validate(sig, a)


def free_vars(sig: Signature, t: Term) -> set[str]:
    match t:
        case Var(x):
            return {x}
        case App(_, bound, args):
            out: set[str] = set()
            for a, scope in zip(args, sig[t.op].scopes):
                out |= free_vars(sig, a) - {bound[k] for k in scope}
            return out
    raise TermError(f"not a term: {t!r}")


def all_names(sig: Signature, t: Term) -> set[str]:
    """Every variable name occurring in t, free or bound."""
    match t:
        case Var(x):
            return {x}
        case App(_, bound, args):
            out = set(bound)
            for a in args:
                out |= all_names(sig, a)
            return out
    raise TermError(f"not a term: {t!r}")


def _fresh(base: str, avoid: set[str]) -> str:
    stem = base.rstrip("0123456789") or base
    if stem not in avoid:
        return stem
    for i in count(1):
        cand = f"{stem}{i}"
        if cand not in avoid:
            return cand
    raise AssertionError


def substitute(sig: Signature, t: Term, subst: dict[str, Term],
               _capture: frozenset[str] = frozenset()) -> Term:
    """Simultaneously replace free occurrences, renaming binders to avoid capture.

    Names in _capture are exempt from capture-avoidance; they are used
    internally to graft subterms under binders on purpose.
    """
    match t:
        case Var(x):
            return subst.get(x, t)
        case App(op, bound, args):
            c = sig[op]
            fv = free_vars(sig, t)
            active = {x: r for x, r in subst.items() if x in fv}
            if not active:
                return t
            range_fv: set[str] = set()
            for r in active.values():
                range_fv |= free_vars(sig, r)
            avoid = range_fv | all_names(sig, t) | set(active)
            renamed_slot: dict[int, str] = {}
            new_bound = list(bound)
            for k, b in enumerate(bound):
                if b in range_fv and b not in _capture:
                    nb = _fresh(b, avoid)
                    avoid.add(nb)
                    renamed_slot[k] = nb
                    new_bound[k] = nb
            new_args = []
            for a, scope in zip(args, c.scopes):
                here = {bound[k] for k in scope}
                inner = {x: r for x, r in active.items() if x not in here}
                inner.update({bound[k]: Var(renamed_slot[k])
                              for k in scope if k in renamed_slot})
                new_args.append(substitute(sig, a, inner, _capture) if inner else a)
            return App(op, tuple(new_bound), tuple(new_args))
    raise TermError(f"not a term: {t!r}")


def _canon_key(sig: Signature, t: Term, env: dict[str, int], depth: int) -> tuple:
    match t:
        case Var(x):
            return ("b", env[x]) if x in env else ("f", x)
        case App(op, bound, args):
            c = sig[op]
            parts = []
            for a, scope in zip(args, c.scopes):
                env2 = dict(env)
                for k in scope:
                    env2[bound[k]] = depth + k
                parts.append(_canon_key(sig, a, env2, depth + len(c.slots)))
            return ("a", op, tuple(parts))
    raise TermError(f"not a term: {t!r}")


def canon_key(sig: Signature, t: Term) -> tuple:
    """Hashable key identical for alpha-equivalent terms."""
    return _canon_key(sig, t, {}, 0)


def alpha_eq(sig: Signature, t: Term, u: Term) -> bool:
    return canon_key(sig, t) == canon_key(sig, u)


def canonical_binders(sig: Signature, t: Term, base: str = "B") -> Term:
    """Alpha-representative with binders renamed base1, base2, ... in pre-order."""
    counter = count(1)
    avoid = set(free_vars(sig, t))

    def next_name() -> str:
        while True:
            cand = f"{base}{next(counter)}"
            if cand not in avoid:
                avoid.add(cand)
                return cand

    def go(t: Term, ren: dict[str, str]) -> Term:
        match t:
            case Var(x):
                return Var(ren.get(x, x))
            case App(op, bound, args):
                fresh_slot = [next_name() for _ in bound]
                new_args = []
                for a, scope in zip(args, sig[op].scopes):
                    ren2 = dict(ren)
                    for k in scope:
                        ren2[bound[k]] = fresh_slot[k]
                    new_args.append(go(a, ren2))
                return App(op, tuple(fresh_slot), tuple(new_args))
        raise TermError(f"not a term: {t!r}")

    return go(t, {})


def compose_subst(sig: Signature, xi: dict[str, Term], sigma: dict[str, Term]) -> dict[str, Term]:
    """(xi after sigma)(X) = sigma(X)[xi]; domain equals dom(sigma)."""
    return {x: substitute(sig, r, xi) for x, r in sigma.items()}


# ------------- prefixes and heads -------------

def is_prefix(sig: Signature, e: Term, f: Term) -> bool:
    """True iff f is e with its free variables consistently instantiated (modulo alpha)."""
    assignment: dict[str, Term] = {}

    def go(e: Term, f: Term, env: dict[str, str], fbound: set[str]) -> bool:
        match e:
            case Var(x):
                if x in env:
                    return isinstance(f, Var) and f.name == env[x]
                if free_vars(sig, f) & fbound:
                    return False  # would need to capture a bound name
                if x in assignment:
                    return alpha_eq(sig, assignment[x], f)
                assignment[x] = f
                return True
            case App(op, bound, args):
                if not isinstance(f, App) or f.op != op:
                    return False
                for i, scope in enumerate(sig[op].scopes):
                    env2 = dict(env)
                    fb2 = set(fbound)
                    for k in scope:
                        env2[bound[k]] = f.bound[k]
                        fb2.add(f.bound[k])
                    if not go(args[i], f.args[i], env2, fb2):
                        return False
                return True
        raise TermError(f"not a term: {e!r}")

    return go(e, f, {}, set())


def head_decompose(sig: Signature, t: Term) -> tuple[Term, dict[str, Term]]:
    """Standard head and substitution with t =alpha head[sigma], dom(sigma) = fv(head).

    Each maximal proper subterm containing no occurrence of a variable bound
    above it is replaced by X1, X2, ... in leftmost-outermost order; the head
    and the range terms are alpha-canonicalized so the decomposition does not
    depend on the bound names of t.
    """
    if isinstance(t, Var):
        raise TermError("a variable has no head")
    fresh = count(1)
    sigma: dict[str, Term] = {}

    def keep(t: Term, above: set[str]) -> Term:
        match t:
            case Var(_):
                return t  # an occurrence bound above; free ones were abstracted
            case App(op, bound, args):
                new_args = []
                for a, scope in zip(args, sig[op].scopes):
                    inner = above | {bound[k] for k in scope}
                    if free_vars(sig, a) & inner:
                        new_args.append(keep(a, inner))
                    else:
                        x = f"X{next(fresh)}"
                        sigma[x] = canonical_binders(sig, a)
                        new_args.append(Var(x))
                return App(op, bound, tuple(new_args))
        raise TermError(f"not a term: {t!r}")

    head = canonical_binders(sig, keep(t, set()))
    return head, sigma


# ------------- translations -------------

@dataclass(frozen=True)
class Translation:
    """Head map from source constructs to open target terms over X1..Xn.

    Image binders named like a source slot label re-bind the source's bound
    name; every other image binder is auxiliary and is freshened against the
    plugged arguments.
    """
    source: Signature
    target: Signature
    heads: tuple[tuple[str, Term], ...]
    _images: dict[str, Term] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        images = dict(self.heads)
        stray = sorted(op for op in images if op not in self.source)
        if stray:
            raise TermError(f"translation has images for constructs {self.source.name} "
                            f"lacks: {stray}")
        for c in self.source.constructs:
            if c.name not in images:
                raise TermError(f"translation lacks an image for {c.name}")
            validate(self.target, images[c.name])
        object.__setattr__(self, "_images", images)

    def head(self, op: str) -> Term:
        return self._images[op]


def translation(source: Signature, target: Signature, heads: dict[str, Term]) -> Translation:
    return Translation(source, target, tuple(sorted(heads.items())))


def _rename_slot_binders(sig: Signature, t: Term, ren: dict[str, str]) -> Term:
    """Rename every binder site whose bound name is a key of ren, plus its occurrences."""
    match t:
        case Var(_):
            return t
        case App(op, bound, args):
            new_bound = tuple(ren.get(b, b) for b in bound)
            new_args = []
            for a, scope in zip(args, sig[op].scopes):
                here = {bound[k] for k in scope}
                occ = {b: Var(ren[b]) for b in here if b in ren}
                a2 = substitute(sig, a, occ, _capture=frozenset(ren.values())) if occ else a
                new_args.append(_rename_slot_binders(sig, a2, ren))
            return App(op, new_bound, tuple(new_args))
    raise TermError(f"not a term: {t!r}")


def complete_compositional(tr: Translation,
                           keep_binders: frozenset[str] = frozenset()) -> Callable[[Term], Term]:
    """Total translation function induced by a head map.

    Satisfies T(X) = X, maps f(E1,..,En) to the image of f with X_i replaced by
    T(E_i), re-binding slot-labelled binders to (freshened copies of) the
    source's bound names.  Binder names in keep_binders survive unrenamed; that
    is how composition keeps slot labels meaningful in composed images.
    """
    state = {"next": 0}
    w_pattern = re.compile(r"_w([0-9]+)$")

    def fresh_w() -> str:
        name = f"_w{state['next']}"
        state["next"] += 1
        return name

    def apply(t: Term) -> Term:
        match t:
            case Var(_):
                return t
            case App(op, bound, args):
                c = tr.source[op]
                image = tr.head(op)
                w = [b if b in keep_binders else fresh_w() for b in bound]  # per slot
                new_args = []
                for a, scope in zip(args, c.scopes):
                    ren = {bound[k]: Var(w[k]) for k in scope if bound[k] != w[k]}
                    new_args.append(apply(substitute(tr.source, a, ren) if ren else a))
                image = _rename_slot_binders(tr.target, image,
                                             {lbl: nm for lbl, nm in zip(c.slots, w) if lbl != nm})
                plugs = {f"X{i + 1}": new_args[i] for i in range(c.args)}
                out = substitute(tr.target, image, plugs, _capture=frozenset(w))
                leaked = free_vars(tr.target, out) & set(w)
                if leaked:
                    raise TermError(f"image of {op} does not bind slot(s) {sorted(leaked)}")
                return out
        raise TermError(f"not a term: {t!r}")

    def translate(t: Term) -> Term:
        for nm in all_names(tr.source, t):
            m = w_pattern.match(nm)
            if m:  # keep internal names clear of any _wN already in the input
                state["next"] = max(state["next"], int(m.group(1)) + 1)
        return apply(t)

    return translate


def compose_translations(t1: Translation, t2: Translation) -> Translation:
    """Head map of applying t2 after t1."""
    if t1.target.name != t2.source.name:
        raise TermError("translations do not compose: signature mismatch")
    heads: dict[str, Term] = {}
    for op, img in t1.heads:
        keep = frozenset(t1.source[op].slots)
        heads[op] = complete_compositional(t2, keep_binders=keep)(img)
    composed = translation(t1.source, t2.target, heads)
    # agreement net: instantiating the composed heads must match running the
    # two stages in sequence (can fail if a slot label collides with a name
    # used free by an image of t2, which the head format cannot express)
    fc = complete_compositional(composed)
    f1, f2 = complete_compositional(t1), complete_compositional(t2)
    for c in t1.source.constructs:
        bound = tuple(f"b{k + 1}" for k in range(len(c.slots)))
        args = tuple(Var(bound[scope[0]]) if scope else Var(f"X{i + 1}")
                     for i, scope in enumerate(c.scopes))
        g = App(c.name, bound, args)
        if not alpha_eq(t2.target, fc(g), f2(f1(g))):
            raise TermError(f"composed image of {c.name} does not match the two-stage translation")
    return composed


# ------------- bounded term enumeration and checks -------------

def enumerate_terms(sig: Signature, depth: int,
                    leaf_vars: tuple[str, ...] = ("X", "Y"),
                    binder_names: tuple[str, ...] = ("z1", "z2")) -> Iterator[Term]:
    """Terms of height <= depth in canonical order: height level, construct
    declaration order, then argument order over the previous levels' pool.
    Lazy, and deduplicated up to alpha-equivalence."""
    seen: set[tuple] = set()
    level: list[Term] = [Var(x) for x in leaf_vars]
    level += [App(c.name, (), ()) for c in sig.constructs if c.args == 0]
    for t in level:
        seen.add(canon_key(sig, t))
        yield t
    pool = list(level)
    for _ in range(depth - 1):
        fresh_level: list[Term] = []
        for c in sig.constructs:
            if c.args == 0:
                continue
            bound = tuple(binder_names[k % len(binder_names)] for k in range(len(c.slots)))
            for args in product(pool, repeat=c.args):
                t = App(c.name, bound, args)
                key = canon_key(sig, t)
                if key not in seen:
                    seen.add(key)
                    fresh_level.append(t)
                    yield t
        pool += fresh_level


def check_compositional(sig_src: Signature, sig_tgt: Signature,
                        translate: Callable[[Term], Term], depth: int,
                        max_pairs: int = 10000) -> Verdict:
    """Test the three compositionality clauses over the canonical term pool.

    Clause (1) T(E[sigma]) =alpha T(E)[T.sigma] is checked for pairs (E, sigma)
    in canonical order until the pool or the budget is exhausted; the budget
    keeps large signatures tractable, and the note says which ran out.
    """
    if depth < 1:
        raise TermError("depth must be >= 1")
    for x in ("X", "Y"):
        got = translate(Var(x))
        if got != Var(x):
            return Verdict("no", ("clause-3", Var(x), got))
    ranges = list(enumerate_terms(sig_src, max(depth - 1, 1)))
    checked = 0
    for e in enumerate_terms(sig_src, depth):
        variant = canonical_binders(sig_src, e, base="q")
        if not alpha_eq(sig_tgt, translate(e), translate(variant)):
            return Verdict("no", ("clause-2", e, variant), checked=checked)
        fv = sorted(free_vars(sig_src, e))
        if not fv:
            domains: list[dict[str, Term]] = [{}]
        else:
            domains = ({x: r for x, r in zip(fv, combo)}
                       for combo in product(ranges, repeat=len(fv)))
        for sigma in domains:
            lhs = translate(substitute(sig_src, e, sigma))
            rhs = substitute(sig_tgt, translate(e), {x: translate(r) for x, r in sigma.items()})
            checked += 1
            if not alpha_eq(sig_tgt, lhs, rhs):
                return Verdict("no", (e, sigma, lhs, rhs), checked=checked)
            if checked >= max_pairs:
                return Verdict("yes", note=f"cap of {max_pairs} pairs reached", checked=checked)
    return Verdict("yes", note=f"exhausted to depth {depth}", checked=checked)


def is_fvr(sig_src: Signature, sig_tgt: Signature,
           translate: Callable[[Term], Term], depth: int,
           max_terms: int = 4000) -> Verdict:
    """Free-variable respecting to depth: fv(T(E)) is a subset of fv(E)."""
    if depth < 1:
        raise TermError("depth must be >= 1")
    checked = 0
    for e in enumerate_terms(sig_src, depth):
        if not free_vars(sig_tgt, translate(e)) <= free_vars(sig_src, e):
            return Verdict("no", (e,), checked=checked)
        checked += 1
        if checked >= max_terms:
            return Verdict("yes", note=f"cap of {max_terms} terms reached", checked=checked)
    return Verdict("yes", note=f"exhausted to depth {depth}", checked=checked)


# ------------- concrete syntax -------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[()\[\];,])")


def parse_term(sig: Signature, text: str) -> Term:
    """Prefix syntax: f(t1,..,tn), binders per slot as f[x;y](..), bare idents
    are nullary constructs when declared, otherwise variables."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise TermError(f"bad character at {pos}: {text[pos:pos + 10]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    i = 0

    def peek() -> str | None:
        return tokens[i] if i < len(tokens) else None

    def eat(tok: str) -> None:
        nonlocal i
        if peek() != tok:
            raise TermError(f"expected {tok!r}, found {peek()!r}")
        i += 1

    def term() -> Term:
        nonlocal i
        name = peek()
        if name is None or not _IDENT.match(name):
            raise TermError(f"expected identifier, found {name!r}")
        i += 1
        bound: tuple[str, ...] = ()
        if peek() == "[":
            eat("[")
            names = [peek()]
            i += 1
            while peek() == ";":
                eat(";")
                names.append(peek())
                i += 1
            eat("]")
            bound = tuple(names)
        if peek() == "(":
            eat("(")
            args: list[Term] = []
            if peek() != ")":
                args.append(term())
                while peek() == ",":
                    eat(",")
                    args.append(term())
            eat(")")
            return App(name, bound, tuple(args))
        if bound:
            raise TermError(f"{name}: binder list without argument list")
        if name in sig:
            return App(name, (), ())
        return Var(name)

    out = term()
    if i != len(tokens):
        raise TermError(f"trailing input from token {tokens[i]!r}")
    validate(sig, out)
    return out


def print_term(t: Term) -> str:
    match t:
        case Var(x):
            return x
        case App(op, bound, args):
            b = f"[{';'.join(bound)}]" if bound else ""
            if not args and not bound:
                return op
            return f"{op}{b}({', '.join(print_term(a) for a in args)})"
    raise TermError(f"not a term: {t!r}")
