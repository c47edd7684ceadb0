"""Terms over binding signatures: substitution, alpha-equivalence, heads, translations.

A signature declares constructs with an arity and a binding profile: for each
argument position, the list of slot labels whose bound name scopes over that
argument.  Variables double as ordinary term variables (uppercase) and as
bindable names (lowercase); alpha-conversion renames every kind of bound name.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import count, product
from typing import Callable, Iterator
from weakref import WeakValueDictionary

from .verdict import Verdict

_PLACEHOLDER = re.compile(r"X[0-9]+$")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class TermError(Exception):
    """Malformed signature, term, or translation."""


# ------------- signatures -------------

class Construct:
    """A construct with its binding profile.

    binders[i] lists the slot labels whose bound names scope over argument i.
    Both derived fields are computed once: slots holds the distinct labels in
    first-appearance order, and an App's bound names are aligned with it;
    scopes[i] holds the indices into slots of the labels in binders[i], in
    that order, so bound[k] for k in scopes[i] are the names bound in
    argument i.  == and hash read name, args and binders.  The fields are not
    set again.
    """
    __slots__ = ("name", "args", "binders", "slots", "scopes")

    def __init__(self, name: str, args: int, binders: tuple[tuple[str, ...], ...]) -> None:
        if args < 0:
            raise TermError(f"{name}: negative arity")
        if len(binders) != args:
            raise TermError(f"{name}: binding profile length != arity")
        slots = tuple(dict.fromkeys(lbl for per_arg in binders for lbl in per_arg))
        for lbl in slots:
            if _PLACEHOLDER.match(lbl):
                raise TermError(f"{name}: slot label {lbl} collides with argument placeholders")
        self.name = name
        self.args = args
        self.binders = binders
        self.slots = slots
        self.scopes = tuple(tuple(slots.index(lbl) for lbl in per_arg) for per_arg in binders)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.args, self.binders) == (other.name, other.args, other.binders)

    def __hash__(self) -> int:
        return hash((self.name, self.args, self.binders))


class Signature:
    """Constructs by name.  == and hash read name and constructs.  The fields
    are not set again."""
    __slots__ = ("name", "constructs", "_by_name")

    def __init__(self, name: str, constructs: tuple[Construct, ...]) -> None:
        by_name = {c.name: c for c in constructs}
        if len(by_name) != len(constructs):
            raise TermError(f"{name}: duplicate construct names")
        self.name = name
        self.constructs = constructs
        self._by_name = by_name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.constructs) == (other.name, other.constructs)

    def __hash__(self) -> int:
        return hash((self.name, self.constructs))

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

class Var:
    """A variable, or a bindable name.  The field is not set again."""
    __slots__ = ("name", "__weakref__")
    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name,) == (other.name,)

    def __hash__(self) -> int:
        return hash((self.name,))


class App:
    """A construct applied to its bound names and arguments.

    bound holds the actual binder names, aligned with the construct's slots.
    ==, hash and repr read op, bound and args, which are not set again.  The
    three memo fields are filled on first use: _fv_memo pairs the free
    variables with the Signature they were computed under, since two
    signatures may give one construct name different binding profiles;
    _names_memo holds every name in the term, and _w_memo those of them that
    start with _w.
    """
    __slots__ = ("op", "bound", "args", "_fv_memo", "_names_memo", "_w_memo", "__weakref__")
    __match_args__ = ("op", "bound", "args")

    def __init__(self, op: str, bound: tuple[str, ...], args: tuple[Term, ...]) -> None:
        self.op = op
        self.bound = bound
        self.args = args
        self._fv_memo: tuple[Signature, frozenset[str]] | None = None
        self._names_memo: frozenset[str] | None = None
        self._w_memo: frozenset[str] | None = None

    def __repr__(self) -> str:
        return f"App(op={self.op!r}, bound={self.bound!r}, args={self.args!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.op, self.bound, self.args) == (other.op, other.bound, other.args)

    def __hash__(self) -> int:
        return hash((self.op, self.bound, self.args))


Term = Var | App

_DONE, _BUILD = object(), object()  # the contexts of a child folded already, of a builder


def _fold(t, ctx, visit: Callable) -> object:
    """Fold t, a term or a pi term, on an explicit stack, so that any depth
    and width is walked.  visit(u, ctx) is called on each node in pre-order,
    left before right, and gives the node's builder and its children as
    (child, ctx) pairs, (value, _DONE) for one folded already.  The builder
    is called on the children's values right after the last of them, before
    the node's next sibling is visited."""
    build, kids = visit(t, ctx)
    if not kids:
        return build()
    done: list = []
    starts: list[int] = [0]  # per node waiting on its children: where their values begin in done
    work: list = [(build, _BUILD)]
    work.extend(reversed(kids))
    push, pop, put = work.append, work.pop, done.append
    while work:
        u, c = pop()
        if c is _DONE:
            put(u)
        elif c is _BUILD:  # u is the builder of the last node that waits
            start = starts.pop()
            args = done[start:]
            del done[start:]
            put(u(*args))
        else:
            build, kids = visit(u, c)
            if kids:
                starts.append(len(done))
                push((build, _BUILD))
                work.extend(reversed(kids))
            else:
                put(build())
    return done[0]


def _skip(*_) -> None:
    """The builder of a visitor that folds to nothing."""


def _node(op: str, bound: tuple[str, ...], *args: Term) -> App:
    return App(op, bound, args)


def _map(t: Term, ren: dict[str, Term], bind: Callable) -> Term:
    """t with each free variable x replaced by ren.get(x, Var(x)), each node
    spelled by bind, the policy: a visitor of _fold, called with the
    replacements at the node, that gives its builder and its arguments as
    children (_arg makes one), or (lambda: u), () to keep the node u."""
    if isinstance(t, Var):
        return ren.get(t.name, t)
    if not isinstance(t, App):
        raise TermError(f"not a term: {t!r}")
    return _fold(t, ren, bind)


def _arg(a: Term, ren: dict[str, Term] | None) -> tuple:
    """Argument a of a mapped node as a child for _fold: a variable is
    replaced at once, and with ren None the argument is kept as it is."""
    if ren is None:
        return a, _DONE
    if isinstance(a, Var):
        return ren.get(a.name, a), _DONE
    if not isinstance(a, App):
        raise TermError(f"not a term: {a!r}")
    return a, ren


def validate(sig: Signature, t: Term) -> None:
    """Raise TermError unless t is well formed over sig."""
    def visit(u: Term, _):
        if isinstance(u, Var):
            if not _IDENT.match(u.name):
                raise TermError(f"bad variable name {u.name!r}")
            return _skip, ()
        if not isinstance(u, App):
            raise TermError(f"not a term: {u!r}")
        op, bound, args, c = u.op, u.bound, u.args, sig[u.op]
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
        return _skip, [(a, None) for a in args]

    _fold(t, None, visit)


def _fv(sig: Signature, t: Term) -> frozenset[str]:
    """Free variables of t over sig, memoized on each App node.

    A node is filled once its arguments are, on an explicit stack, so a term
    of any depth is read."""
    if isinstance(t, Var):
        return frozenset((t.name,))
    if not isinstance(t, App):
        raise TermError(f"not a term: {t!r}")
    memo = t._fv_memo
    if memo is not None and memo[0] is sig:
        return memo[1]
    todo = [t]
    while todo:
        u = todo[-1]
        bound = u.bound
        out: set[str] | None = set()  # None once an argument is not filled yet
        for a, scope in zip(u.args, sig[u.op].scopes):
            if isinstance(a, Var):
                fa = {a.name}
            elif isinstance(a, App):
                memo = a._fv_memo
                if memo is None or memo[0] is not sig:
                    todo.append(a)  # u is read again after a
                    out = None
                    continue
                fa = memo[1]
            else:
                raise TermError(f"not a term: {a!r}")
            if out is not None:
                out |= fa - {bound[k] for k in scope} if scope else fa
        if out is not None:
            todo.pop()
            u._fv_memo = (sig, frozenset(out))
    return t._fv_memo[1]


def _names(t: Term) -> frozenset[str]:
    """Every name in t, free or bound, memoized on each App node."""
    if isinstance(t, Var):
        return frozenset((t.name,))
    if not isinstance(t, App):
        raise TermError(f"not a term: {t!r}")
    if t._names_memo is None:  # fill the nodes that lack one, arguments first
        _fold(t, None, lambda u, _: (partial(_name, u), [
            (a, None) for a in u.args if isinstance(a, App) and a._names_memo is None]))
    return t._names_memo


def _name(u: App, *_) -> None:
    out = set(u.bound)
    for a in u.args:
        if not isinstance(a, (Var, App)):
            raise TermError(f"not a term: {a!r}")
        out |= {a.name} if isinstance(a, Var) else a._names_memo
    u._names_memo = frozenset(out)


_NO_W: frozenset[str] = frozenset()


def _w_names(t: Term) -> frozenset[str]:
    """The names in t, free or bound, that start with _w, memoized on each App
    node.  A node is filled once its arguments are, on an explicit stack, as
    _fv fills its memo."""
    if isinstance(t, Var):
        return frozenset((t.name,)) if t.name.startswith("_w") else _NO_W
    if not isinstance(t, App):
        raise TermError(f"not a term: {t!r}")
    if t._w_memo is not None:
        return t._w_memo
    todo = [t]
    while todo:
        u = todo[-1]
        out = [b for b in u.bound if b.startswith("_w")]
        ready = True
        for a in u.args:
            if isinstance(a, Var):
                if a.name.startswith("_w"):
                    out.append(a.name)
            elif isinstance(a, App):
                memo = a._w_memo
                if memo is None:
                    todo.append(a)  # u is read again after a
                    ready = False
                elif memo:
                    out.extend(memo)
            else:
                raise TermError(f"not a term: {a!r}")
        if ready:
            todo.pop()
            u._w_memo = frozenset(out) if out else _NO_W
    return t._w_memo


def free_vars(sig: Signature, t: Term) -> set[str]:
    return set(_fv(sig, t))


def _fresh(base: str, avoid: set[str]) -> str:
    stem = base.rstrip("0123456789") or base
    if stem not in avoid:
        return stem
    for i in count(1):
        cand = f"{stem}{i}"
        if cand not in avoid:
            return cand
    raise AssertionError


def _avoiding(sig: Signature, exempt: frozenset[str]) -> Callable:
    """The bind policy of substitution: a binder free in the replacement of a
    variable it scopes is respelled fresh, unless exempt, where it captures.
    A node free of the variables replaced is kept, looking up no construct."""
    def bind(u: App, subst: dict[str, Term]):
        fv = _fv(sig, u)
        active = {x: r for x, r in subst.items() if x in fv}
        if not active:
            return (lambda: u), ()
        bound = u.bound
        renamed: dict[int, Term] = {}  # slot index -> its new name, as a variable
        if bound:  # only a binder can clash with the replacements' free names
            range_fv = set().union(*[_fv(sig, r) for r in active.values()])
            for k, b in enumerate(u.bound):
                if b in range_fv and b not in exempt:
                    if not renamed:
                        avoid = range_fv | _names(u) | set(active)
                        bound = list(bound)
                    bound[k] = _fresh(b, avoid)
                    avoid.add(bound[k])
                    renamed[k] = Var(bound[k])
        kids = []
        for a, scope in zip(u.args, sig[u.op].scopes):
            inner = active
            if scope:
                here = {u.bound[k] for k in scope}
                inner = {x: r for x, r in active.items() if x not in here}
                for k in scope:
                    if k in renamed:
                        inner[u.bound[k]] = renamed[k]
            if isinstance(a, Var):
                kids.append((inner.get(a.name, a), _DONE))
            elif not inner or _fv(sig, a).isdisjoint(inner):
                kids.append((a, _DONE))  # a holds none of the variables replaced
            else:
                kids.append((a, inner))
        return partial(_node, u.op, tuple(bound) if renamed else bound), kids

    return bind


def substitute(sig: Signature, t: Term, subst: dict[str, Term]) -> Term:
    """Simultaneously replace free occurrences, renaming binders to avoid
    capture.  A subterm free of the variables replaced is returned as it is,
    so a substitution that changes nothing returns t itself."""
    if isinstance(t, App) and _fv(sig, t).isdisjoint(subst):
        return t
    return _map(t, subst, _avoiding(sig, frozenset()))


def canon_key(sig: Signature, t: Term) -> tuple:
    """Hashable key identical for alpha-equivalent terms.

    One token per node, in pre-order: ("a", op, n) for a node of n
    arguments, which keeps the key injective, ("b", d + k) for a variable
    bound at slot k of a node at binder depth d, ("f", name) for a free one.
    A flat key compares and hashes without recursion, at any depth."""
    out: list[tuple] = []

    def visit(u: Term, ctx: tuple[dict[str, int], int]):
        env, depth = ctx
        if isinstance(u, Var):
            out.append(("b", env[u.name]) if u.name in env else ("f", u.name))
            return _skip, ()
        if not isinstance(u, App):
            raise TermError(f"not a term: {u!r}")
        c = sig[u.op]
        kids = [(a, ({**env, **{u.bound[k]: depth + k for k in scope}} if scope else env,
                     depth + len(c.slots))) for a, scope in zip(u.args, c.scopes)]
        out.append(("a", u.op, len(kids)))
        return _skip, kids

    _fold(t, ({}, 0), visit)
    return tuple(out)


def alpha_eq(sig: Signature, t: Term, u: Term,
             subst: dict[str, Term] | None = None) -> bool:
    """t and u[subst] are equal up to the spelling of their bound names, the
    substitution simultaneous and capture-avoiding; u itself without subst.

    One walk over both terms in step, on an explicit stack.  Each side maps a
    bound name to its binder position (depth + k, as in canon_key).  A pair
    that is one object is skipped when the maps agree on its free variables,
    read only when the maps differ: they stay one object while the two sides
    bind the same names, as under a translation that shares its images.

    u[subst] is never built.  A free variable x of u in dom(subst) is read as
    subst[x] under an empty binder map, so the replacement's names stay free
    whatever u binds there, and the replacement is not substituted again.  A
    subterm of u free of dom(subst) is walked as it stands."""
    env: dict[str, int] = {}
    todo: list[tuple] = [(t, u, env, env, 0, subst or None)]
    while todo:
        a, b, ea, eb, depth, s = todo.pop()
        if s is not None:  # b is read under s
            if isinstance(b, Var):
                if b.name in s and b.name not in eb:
                    b, eb = s[b.name], {}
                s = None
            elif _fv(sig, b).isdisjoint(s):
                s = None
        if a is b and s is None and (
                ea is eb or all(ea.get(x) == eb.get(x) for x in _fv(sig, a))):
            continue
        if isinstance(a, Var) and isinstance(b, Var):
            if ea.get(a.name, a.name) != eb.get(b.name, b.name):
                return False
            continue
        if not (isinstance(a, App) and isinstance(b, App)):
            for x in (a, b):
                if not isinstance(x, (Var, App)):
                    raise TermError(f"not a term: {x!r}")
            return False
        if a.op != b.op or len(a.args) != len(b.args):
            return False
        c = sig[a.op]
        inner = depth + len(c.slots)
        for x, y, scope in zip(reversed(a.args), reversed(b.args), reversed(c.scopes)):
            xa, yb = ea, eb
            if scope:
                xa = {**ea, **{a.bound[k]: depth + k for k in scope}}
                yb = xa if ea is eb and all(a.bound[k] == b.bound[k] for k in scope) else {
                    **eb, **{b.bound[k]: depth + k for k in scope}}
            todo.append((x, y, xa, yb, inner, s))
    return True


def canonical_binders(sig: Signature, t: Term, base: str = "B") -> Term:
    """Alpha-representative with binders renamed base1, base2, ... in pre-order."""
    counter = count(1)
    avoid = set(_fv(sig, t))

    def next_name() -> str:
        while True:
            cand = f"{base}{next(counter)}"
            if cand not in avoid:
                avoid.add(cand)
                return cand

    def bind(u: App, ren: dict[str, Term]):
        fresh = tuple([next_name() for _ in u.bound])
        return partial(_node, u.op, fresh), [
            _arg(a, {**ren, **{u.bound[k]: Var(fresh[k]) for k in scope}} if scope else ren)
            for a, scope in zip(u.args, sig[u.op].scopes)]

    return _map(t, {}, bind)


def compose_subst(sig: Signature, xi: dict[str, Term], sigma: dict[str, Term]) -> dict[str, Term]:
    """(xi after sigma)(X) = sigma(X)[xi]; domain equals dom(sigma)."""
    return {x: substitute(sig, r, xi) for x, r in sigma.items()}


# ------------- prefixes and heads -------------

def is_prefix(sig: Signature, e: Term, f: Term) -> bool:
    """True iff f is e with its free variables consistently instantiated (modulo
    alpha).  One walk over both terms in step, on an explicit stack; env maps
    a name e binds to the one f binds there, fbound holds all f binds above."""
    assignment: dict[str, Term] = {}
    todo: list[tuple[Term, Term, dict[str, str], frozenset[str]]] = [(e, f, {}, frozenset())]
    while todo:
        e, f, env, fbound = todo.pop()
        if isinstance(e, Var):
            x = e.name
            if x in env:
                if not (isinstance(f, Var) and f.name == env[x]):
                    return False
            elif not _fv(sig, f).isdisjoint(fbound):
                return False  # would need to capture a bound name
            elif x not in assignment:
                assignment[x] = f
            elif not alpha_eq(sig, assignment[x], f):
                return False
        elif isinstance(e, App):
            if not isinstance(f, App) or f.op != e.op:
                return False
            for i, scope in reversed(list(enumerate(sig[e.op].scopes))):
                todo.append((e.args[i], f.args[i],
                             {**env, **{e.bound[k]: f.bound[k] for k in scope}} if scope else env,
                             fbound | {f.bound[k] for k in scope} if scope else fbound))
        else:
            raise TermError(f"not a term: {e!r}")
    return True


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

    def keep(u: Term, above: frozenset[str] | None):  # above: bound above u; None at t
        if above is not None and _fv(sig, u).isdisjoint(above):
            x = f"X{next(fresh)}"
            sigma[x] = canonical_binders(sig, u)
            return (lambda: Var(x)), ()
        if isinstance(u, Var):
            return (lambda: u), ()  # an occurrence bound above
        if not isinstance(u, App):
            raise TermError(f"not a term: {u!r}")
        above = above or frozenset()
        return (lambda *args: App(u.op, u.bound, args)), [
            (a, above | {u.bound[k] for k in scope}) for a, scope in zip(u.args, sig[u.op].scopes)]

    head = canonical_binders(sig, _fold(t, None, keep))
    return head, sigma


# ------------- translations -------------

class Translation:
    """Head map from source constructs to open target terms over X1..Xn.

    Image binders named like a source slot label re-bind the source's bound
    name; every other image binder is auxiliary and is freshened against the
    plugged arguments.  heads pairs each construct name with its image.  The
    fields are not set again.
    """
    __slots__ = ("source", "target", "heads", "_images")

    def __init__(self, source: Signature, target: Signature,
                 heads: tuple[tuple[str, Term], ...]) -> None:
        images = dict(heads)
        stray = sorted(op for op in images if op not in source)
        if stray:
            raise TermError(f"translation has images for constructs {source.name} "
                            f"lacks: {stray}")
        for c in source.constructs:
            if c.name not in images:
                raise TermError(f"translation lacks an image for {c.name}")
            validate(target, images[c.name])
        self.source = source
        self.target = target
        self.heads = heads
        self._images = images

    def head(self, op: str) -> Term:
        return self._images[op]


def translation(source: Signature, target: Signature, heads: dict[str, Term]) -> Translation:
    return Translation(source, target, tuple(sorted(heads.items())))


def _rename_slot_binders(sig: Signature, t: Term, ren: dict[str, str]) -> Term:
    """Rename every binder site whose bound name is a key of ren, plus its
    occurrences.  A node's occurrences are respelled before the binders below
    it, which capture them, and respell them too, where they share a name."""
    capturing = _avoiding(sig, frozenset(ren.values()))  # respells no binder: all capture

    def bind(u: App, _):
        if ren.keys().isdisjoint(_names(u)):
            return (lambda: u), ()
        kids = []
        for a, scope in zip(u.args, sig[u.op].scopes):
            occ = {u.bound[k]: Var(ren[u.bound[k]]) for k in scope if u.bound[k] in ren}
            kids.append(_arg(_map(a, occ, capturing) if occ else a, {}))
        return partial(_node, u.op, tuple([ren.get(b, b) for b in u.bound])), kids

    return _map(t, {}, bind)


# the kinds of step in a head plan
_KEEP, _PLUG, _SLOT, _NODE = range(4)


class _HeadPlan:
    """How to instantiate one head image: a post-order program over its
    nodes, and a table of what the result leaves free.

    Each step pushes one term: (_KEEP, t) pushes the image subterm t, which
    holds no placeholder, no slot-labelled binder and no name one binds;
    (_PLUG, i) the image of argument i; (_SLOT, k) Var(w[k]), an occurrence
    bound by the binder of slot k; (_NODE, op, spelled, n, static) rebuilds a
    node from the last n terms pushed, spelled giving each binder by name or,
    for a slot-labelled one, by its slot index k (spelled w[k]); static is
    true when no binder is slot-labelled, and spelled is then the node's
    binder tuple as it stands.

    table holds one (what, aux, bound, slots) row per placeholder
    occurrence and per group of names the image leaves free, rows alike kept
    once.  what is the argument index i of an occurrence of X(i+1), or the
    free names.  aux holds the auxiliary binders of the nodes above the
    occurrence, which the capture check reads, bound those of them whose
    scope holds it, and slots the indices k of the slot-labelled binders
    whose scope holds it; all three are empty for free names, which no
    auxiliary binder binds.  The names free in the head instantiated are
    each row's what, or those of the image plugged for it, less bound and
    each w[k]: a slot spelled like a name the image leaves free captures
    it.  The fields are not set again."""
    __slots__ = ("steps", "table")

    def __init__(self, steps: tuple[tuple, ...],
                 table: tuple[tuple[int | frozenset[str], frozenset[str], frozenset[str],
                                    tuple[int, ...]], ...]) -> None:
        self.steps = steps
        self.table = table


def _head_plan(c: Construct, target: Signature, image: Term) -> _HeadPlan | None:
    """The plan of image as the head of c, or None when image binds a name
    spelled like a placeholder or starting with _w.  Written on the fold:
    each subterm folds to whether it is kept whole, and each occurrence of a
    name not bound above it is a row of the table."""
    labels = {lbl: k for k, lbl in enumerate(c.slots)}
    plugs = {f"X{i + 1}": i for i in range(c.args)}
    steps: list[tuple] = []
    rows: dict[tuple, None] = {}  # the plug rows of the table, in order
    free: dict[tuple[int, ...], set[str]] = {}  # slots above -> the free names under them
    refused = []

    # ctx: names bound above u -> slot or None, and the auxiliary binders of
    # the nodes above u
    def visit(u: Term, ctx: tuple[dict[str, int | None], frozenset[str]]):
        env, aux = ctx
        if isinstance(u, Var):
            if u.name not in env:
                slots = tuple(sorted({k for k in env.values() if k is not None}))
                if u.name in plugs:
                    bound = frozenset(b for b, k in env.items() if k is None)
                    rows[(plugs[u.name], aux, bound, slots)] = None
                else:
                    free.setdefault(slots, set()).add(u.name)
            if env.get(u.name) is not None:
                steps.append((_SLOT, env[u.name]))
                return (lambda: False), ()
            if u.name in plugs:
                steps.append((_PLUG, plugs[u.name]))
                return (lambda: False), ()
            steps.append((_KEEP, u))
            return (lambda: True), ()
        refused.extend(b for b in u.bound if _PLACEHOLDER.match(b) or b.startswith("_w"))
        aux = aux.union([b for b in u.bound if b not in labels])
        return partial(node, u, len(steps)), [
            (a, ({**env, **{u.bound[k]: labels.get(u.bound[k]) for k in scope}} if scope else env,
                 aux)) for a, scope in zip(u.args, target[u.op].scopes)]

    def node(u: App, start: int, *whole: bool) -> bool:
        if all(whole) and not any(b in labels for b in u.bound):
            del steps[start:]
            steps.append((_KEEP, u))
            return True
        spelled = tuple(labels.get(b, b) for b in u.bound)
        steps.append((_NODE, u.op, spelled, len(whole), spelled == u.bound))
        return False

    _fold(image, ({}, frozenset()), visit)
    return None if refused else _HeadPlan(tuple(steps), tuple(rows) + tuple(
        (frozenset(names), frozenset(), frozenset(), slots) for slots, names in free.items()))


def _run_plan(plan: _HeadPlan, w: list[str], images: list[Term]) -> Term:
    """The head instantiated: slot k's binders spelled w[k], placeholder X(i+1)
    replaced by images[i].  A loop over the steps, so no recursion."""
    done: list[Term] = []
    for step in plan.steps:
        kind = step[0]
        if kind == _KEEP:
            done.append(step[1])
        elif kind == _PLUG:
            done.append(images[step[1]])
        elif kind == _SLOT:
            done.append(Var(w[step[1]]))
        else:
            _, op, spelled, n, static = step
            cut = len(done) - n
            args = tuple(done[cut:])
            del done[cut:]
            bound = spelled if static else tuple([w[s] if isinstance(s, int) else s
                                                  for s in spelled])
            done.append(App(op, bound, args))
    return done[0]


def complete_compositional(tr: Translation,
                           keep_binders: frozenset[str] = frozenset()) -> Callable[[Term], Term]:
    """Total translation function induced by a head map.

    Satisfies T(X) = X, maps f(E1,..,En) to the image of f with X_i replaced by
    T(E_i), re-binding slot-labelled binders to fresh _wN names, or to the
    source's bound names in keep_binders (how composition keeps slot labels).

    A term is translated by one _fold: a node's _wN names are drawn when it
    is visited, in pre-order, and its image is built right after its
    arguments', before its next sibling is visited, as under recursion.  A
    term holding no _w name always draws the same number n of names, and its
    image at counter c is the one at c0 with each _wK respelled _w(K + c - c0).
    So the memo, keyed by the term object (a structural key would hash whole
    subtrees), maps such a term to (image, c0, n); terms holding a _w name,
    and all when a head holds one, take the plain path.  Whether a term holds
    one is read from its _w memo (_w_names), not from a scan of its names;
    a hit's image is respelled by _respell_w.  Arguments are
    memoized as they are translated, a term passed in only when the same
    object comes a second time, so a stream of distinct terms costs no memory.

    Each head is instantiated from its _HeadPlan, built on first use, unless
    respelling the slot binders and then substituting would rename or capture
    a name (see build); those instantiations, and all of a head _head_plan
    refuses, take that route.  Only a construct with a slot can leak one.
    The plan's table, one row per placeholder occurrence and per group of
    names the image leaves free, gives both that capture check and the free
    variables of the image built: those of each argument image, read from
    its memo, less the binders above the occurrence, slots spelled w[k].
    They are set as the built image's _fv memo under tr.target, so neither
    the leak check nor a caller such as is_fvr walks the nodes just built.
    Only the image's root gets the memo: filling every node the plan builds
    costs check_compositional more than it saves is_fvr."""
    state = {"next": 0}
    w_pattern = re.compile(r"_w([0-9]+)$")
    # a head binder spelled _w... may be freshened to a _wN that depends on
    # the counter; a kept binder matters only in a term that holds it, and
    # such a term takes the plain path
    memo_ok = not any(_w_names(img) for _, img in tr.heads)
    # id(term) -> (term, which keeps the id taken; image, counter at, names used)
    memo: dict[int, tuple[Term, Term, int, int]] = {}
    seen: WeakValueDictionary[int, Term] = WeakValueDictionary()  # outside terms met once
    plans: dict[str, _HeadPlan | None] = {}  # construct name -> plan of its head, built on use

    def fresh_w() -> str:
        name = f"_w{state['next']}"
        state["next"] += 1
        return name

    def visit(t: Term, keep: bool | None):
        """keep: None on the plain path, else whether t's image is memoized."""
        if not isinstance(t, App):
            raise TermError(f"not a term: {t!r}")
        start = state["next"]
        if keep is not None:
            hit = memo.get(id(t))
            if hit is not None:
                _, image, at, used = hit
                state["next"] += used
                if start != at and used:
                    image = _respell_w(image, at, used, start - at)
                return (lambda: image), ()
        c = tr.source[t.op]
        w = [b if b in keep_binders else fresh_w() for b in t.bound]  # per slot
        kids = []
        for a, scope in zip(t.args, c.scopes):
            ren = {t.bound[k]: Var(w[k]) for k in scope if t.bound[k] != w[k]}
            a2 = substitute(tr.source, a, ren) if ren else a
            # a renamed argument holds a _wN
            kids.append((a2, _DONE) if isinstance(a2, Var)
                        else (a2, True if keep is not None and a2 is a else None))
        return partial(build, t, c, w, start, keep), kids

    def build(t: App, c: Construct, w: list[str], start: int, keep: bool | None,
              *new_args: Term) -> Term:
        op, image = t.op, tr.head(t.op)
        if op not in plans:
            plans[op] = _head_plan(c, tr.target, image)
        plan = plans[op]
        ren: dict[str, str] = {}
        slot_names: frozenset[str] = frozenset()
        if w:  # with no slot, nothing is respelled, shadowed, captured or leaked
            ren = {lbl: nm for lbl, nm in zip(c.slots, w) if lbl != nm}
            slot_names = frozenset(w)
        # The plan builds what the other route builds unless that captures an
        # occurrence under a binder spelled like a slot label it respells, a
        # slot binder shadows a placeholder, or it renames an auxiliary
        # binder, not in slot_names, free in a plugged image under it.  Its
        # table gives the free names of what it builds, set on the image it
        # returns, so that neither the leak check nor a caller walks it.
        fv: set[str] | None = None
        if plan is not None and not (w and any(nm in ren or _PLACEHOLDER.match(nm) for nm in w)):
            fv = set()
            for what, aux, bound, slots in plan.table:
                names = what if what.__class__ is frozenset else _fv(tr.target, new_args[what])
                if aux:
                    caught = aux & names
                    if caught:
                        if not caught <= slot_names:
                            fv = None
                            break
                        names = names - bound
                fv |= names.difference([w[k] for k in slots]) if slots else names
        if fv is not None:
            out = _run_plan(plan, w, new_args)
            if plan.steps[-1][0] == _NODE:  # out is a node built here, not a term passed on
                out._fv_memo = (tr.target, frozenset(fv))
        else:
            if ren:
                image = _rename_slot_binders(tr.target, image, ren)
            plugs = {f"X{i + 1}": new_args[i] for i in range(c.args)}
            # the slot binders capture the images plugged under them
            out = _map(image, plugs, _avoiding(tr.target, slot_names))
        if slot_names:
            leaked = _fv(tr.target, out) & slot_names
            if leaked:
                raise TermError(f"image of {op} does not bind slot(s) {sorted(leaked)}")
        if keep:
            memo[id(t)] = (t, out, start, state["next"] - start)
        return out

    def translate(t: Term) -> Term:
        held = _w_names(t)
        for nm in held:
            m = w_pattern.match(nm)
            if m:  # keep internal names clear of any _wN already in the input
                state["next"] = max(state["next"], int(m.group(1)) + 1)
        if isinstance(t, Var):
            return t
        if held or not memo_ok:
            return _fold(t, None, visit)
        repeat = seen.get(id(t)) is t
        if not repeat:
            seen[id(t)] = t
        return _fold(t, repeat, visit)

    return translate


def _respell_w(t: Term, at: int, used: int, shift: int) -> Term:
    """t with _wK renamed _w(K + shift) for at <= K < at + used, bound or
    free.  A subterm that holds none of them comes back as it is.  One loop
    on an explicit stack: a node is opened, its arguments are respelled, then
    (node,) rebuilds it from their results."""
    names = {f"_w{k}": f"_w{k + shift}" for k in range(at, at + used)}
    done: list[Term] = []
    todo: list = [t]
    while todo:
        u = todo.pop()
        if u.__class__ is tuple:
            u = u[0]
            cut = len(done) - len(u.args)
            args = tuple(done[cut:])
            del done[cut:]
            bound = tuple([names.get(b, b) for b in u.bound])
            if bound == u.bound and all(a is b for a, b in zip(args, u.args)):
                done.append(u)
                continue
            node = App(u.op, bound, args)
            if u._fv_memo is not None:  # as the plain path leaves it, so no walk for them follows
                sig, fv = u._fv_memo
                node._fv_memo = (sig, frozenset([names.get(n, n) for n in fv]))
            done.append(node)
        elif isinstance(u, Var):
            new = names.get(u.name)
            done.append(u if new is None else Var(new))
        elif isinstance(u, App):
            todo.append((u,))
            todo.extend(reversed(u.args))
        else:
            raise TermError(f"not a term: {u!r}")
    return done[0]


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
    Lazy, and deduplicated up to alpha-equivalence: a repeated leaf
    variable is yielded once, where it first occurs.

    Semi-naive: a level combines only the argument tuples that hold a term
    of the level before, in product order; every other tuple builds a term
    an earlier level built.  So no key is needed: the pool holds no two
    alpha-equivalent terms, and two terms with one construct and one spelling
    of its binders are alpha-equivalent exactly when their arguments are.
    A depth below 1 is refused at the call."""
    if depth < 1:
        raise TermError("depth must be >= 1")
    return _enumerate(sig, depth, leaf_vars, binder_names)


def _enumerate(sig: Signature, depth: int, leaf_vars: tuple[str, ...],
               binder_names: tuple[str, ...]) -> Iterator[Term]:
    level: list[Term] = [Var(x) for x in dict.fromkeys(leaf_vars)]
    level += [App(c.name, (), ()) for c in sig.constructs if c.args == 0]
    yield from level
    pool = list(dict.fromkeys(level))
    lo = 0  # where the level before begins in pool
    for _ in range(depth - 1):
        newest = pool[lo:]
        numbered = list(enumerate(pool))
        fresh_level: list[Term] = []
        for c in sig.constructs:
            if c.args == 0:
                continue
            bound = tuple(binder_names[k % len(binder_names)] for k in range(len(c.slots)))
            # the last argument may be any term once an earlier one is new
            for head in product(numbered, repeat=c.args - 1):
                first = tuple(t for _, t in head)
                for t in pool if any(i >= lo for i, _ in head) else newest:
                    new = App(c.name, bound, first + (t,))
                    fresh_level.append(new)
                    yield new
        lo = len(pool)
        pool += fresh_level


def check_compositional(sig_src: Signature, sig_tgt: Signature,
                        translate: Callable[[Term], Term], depth: int,
                        max_pairs: int = 10000) -> Verdict:
    """Test the three compositionality clauses over the canonical term pool.

    Clause (1) T(E[sigma]) =alpha T(E)[T.sigma] is checked for pairs (E, sigma)
    in canonical order until the pool or the budget is exhausted; the budget
    keeps large signatures tractable, and the note says which ran out.  Each
    pool term E and each range term is translated once per call: T(E) for
    clause (2), reused by every pair of E, and a range term on the first pair
    that holds it.  The right side is compared in one walk, alpha_eq with
    T.sigma as its subst; T(E)[T.sigma] is built only as a failing pair's
    witness.
    """
    if depth < 1:
        raise TermError("depth must be >= 1")
    if max_pairs < 1:
        raise TermError("max_pairs must be >= 1")
    for x in ("X", "Y"):
        got = translate(Var(x))
        if got != Var(x):
            return Verdict("no", ("clause-3", Var(x), got))
    ranges = list(enumerate_terms(sig_src, max(depth - 1, 1)))
    images: list[Term | None] = [None] * len(ranges)  # T(ranges[i]), made on first use
    checked = 0
    for e in enumerate_terms(sig_src, depth):
        variant = canonical_binders(sig_src, e, base="q")
        image = translate(e)
        if not alpha_eq(sig_tgt, image, translate(variant)):
            return Verdict("no", ("clause-2", e, variant), checked=checked)
        fv = sorted(_fv(sig_src, e))
        for combo in product(range(len(ranges)), repeat=len(fv)):
            sigma = {x: ranges[i] for x, i in zip(fv, combo)}
            lhs = translate(substitute(sig_src, e, sigma))
            for i in combo:
                if images[i] is None:
                    images[i] = translate(ranges[i])
            tsub = {x: images[i] for x, i in zip(fv, combo)}
            if not alpha_eq(sig_tgt, lhs, image, tsub):
                return Verdict("no", (e, sigma, lhs, substitute(sig_tgt, image, tsub)),
                               checked=checked)
            checked += 1
            if checked >= max_pairs:
                return Verdict("yes", note=f"cap of {max_pairs} pairs reached", checked=checked)
    return Verdict("yes", note=f"exhausted to depth {depth}", checked=checked)


def is_fvr(sig_src: Signature, sig_tgt: Signature,
           translate: Callable[[Term], Term], depth: int,
           max_terms: int = 4000) -> Verdict:
    """Free-variable respecting to depth: fv(T(E)) is a subset of fv(E)."""
    if depth < 1:
        raise TermError("depth must be >= 1")
    if max_terms < 1:
        raise TermError("max_terms must be >= 1")
    checked = 0
    for e in enumerate_terms(sig_src, depth):
        if not _fv(sig_tgt, translate(e)) <= _fv(sig_src, e):
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
    """The concrete syntax of t, written in order on the fold: a node opens
    on its visit, after its separator, and closes after its arguments."""
    out: list[str] = []

    def visit(u: Term, before: str):
        if isinstance(u, Var):
            out.append(before + u.name)
            return _skip, ()
        if not isinstance(u, App):
            raise TermError(f"not a term: {u!r}")
        if not u.args and not u.bound:
            out.append(before + u.op)
            return _skip, ()
        b = f"[{';'.join(u.bound)}]" if u.bound else ""
        out.append(f"{before}{u.op}{b}(")
        return (lambda *_: out.append(")")), [(a, ", " if i else "") for i, a in enumerate(u.args)]

    _fold(t, "", visit)
    return "".join(out)
