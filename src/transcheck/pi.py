"""Pi-calculus workbench: syntax, reduction semantics, barbs, bisimilarities.

Processes are the fragment without matching, tau or choice; replication is
kept in place and unfolded lazily during reduction.  External barbs @w are
observer constants whose ids live outside the name discipline: they are never
bound, substituted, or restricted.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from functools import cached_property, partial
from itertools import chain, count, islice
from operator import attrgetter, eq, itemgetter
from typing import Callable, Generator, Iterator, Sequence
from weakref import WeakValueDictionary

from .terms import _fold, _skip
from .verdict import Verdict


class PiError(Exception):
    """Syntax or usage error in the process workbench."""


# ------------- syntax -------------

_INTERNED = WeakValueDictionary()
_alloc, _set = object.__new__, object.__setattr__


class _Interned:
    """Base of the term constructors: while a node lives, no other is built
    with its class and fields, and its fields are set once, here, and never
    again (Filliâtre and Conchon, Type-safe modular hash-consing, 2006).  So
    equal terms are one object, and == and hash are the identity's at any
    depth.  A copy or an unpickled node is the node itself."""
    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _INTERNED.get(key)
        if node is None:
            node = _INTERNED[key] = _alloc(cls)
            for name, value in zip(cls.__match_args__, fields):
                _set(node, name, value)
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, _value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class Nil(_Interned):
    __slots__ = __match_args__ = ()


class Out(_Interned):
    __slots__ = __match_args__ = ("chan", "msg", "cont")
    chan: str
    msg: str
    cont: PiTerm


class In(_Interned):
    __slots__ = __match_args__ = ("chan", "param", "cont")
    chan: str
    param: str
    cont: PiTerm


class Par(_Interned):
    __slots__ = __match_args__ = ("left", "right")
    left: PiTerm
    right: PiTerm


class Res(_Interned):
    __slots__ = __match_args__ = ("name", "body")
    name: str
    body: PiTerm


class Repl(_Interned):
    __slots__ = __match_args__ = ("body",)
    body: PiTerm


class PVar(_Interned):
    __slots__ = __match_args__ = ("name",)
    name: str


class ExtBarb(_Interned):
    __slots__ = __match_args__ = ("ident",)
    ident: str


PiTerm = Nil | Out | In | Par | Res | Repl | PVar | ExtBarb


class _Names:
    """What one walk of a term collects (see _scan).  The fields are not set
    again."""
    __slots__ = ("free", "names", "params", "binders", "pvars", "ext", "sync")

    def __init__(self, free: set[str], names: set[str], params: set[str],
                 binders: dict[str, int], pvars: set[str], ext: set[str], sync: bool) -> None:
        self.free = free  # free names
        self.names = names  # every name, bound or free, barb ids included
        self.params = params  # input parameters
        self.binders = binders  # restriction binders, with how often each occurs
        self.pvars = pvars  # process variables
        self.ext = ext  # external barb ids
        self.sync = sync  # some output has a continuation other than 0


class _Unbind:
    """Stack entry that closes the scope of one input or restriction binder."""
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


def _scan(t: PiTerm) -> _Names:
    """Collect the names of t in one walk with an explicit stack, so a term
    of any depth is walked.  bound counts the binders of each name whose
    scope holds the node being visited; a name occurs free where it has
    none."""
    free: set[str] = set()
    names: set[str] = set()
    params: set[str] = set()
    binders: dict[str, int] = {}
    pvars: set[str] = set()
    ext: set[str] = set()
    sync = False
    bound: dict[str, int] = {}
    stack: list = [t]
    while stack:
        u = stack.pop()
        cls = type(u)
        if cls is _Unbind:
            bound[u.name] -= 1
        elif cls is Out:
            x, y = u.chan, u.msg
            names.add(x)
            names.add(y)
            if not bound.get(x):
                free.add(x)
            if not bound.get(y):
                free.add(y)
            if type(u.cont) is not Nil:
                sync = True
            stack.append(u.cont)
        elif cls is In:
            x, z = u.chan, u.param
            names.add(x)
            names.add(z)
            params.add(z)
            if not bound.get(x):
                free.add(x)
            bound[z] = bound.get(z, 0) + 1
            stack.append(_Unbind(z))
            stack.append(u.cont)
        elif cls is Res:
            n = u.name
            names.add(n)
            binders[n] = binders.get(n, 0) + 1
            bound[n] = bound.get(n, 0) + 1
            stack.append(_Unbind(n))
            stack.append(u.body)
        elif cls is Par:
            stack.append(u.right)
            stack.append(u.left)
        elif cls is Repl:
            stack.append(u.body)
        elif cls is PVar:
            pvars.add(u.name)
        elif cls is ExtBarb:
            names.add(u.ident)
            ext.add(u.ident)
        elif cls is not Nil:
            raise PiError(f"not a process: {u!r}")
    return _Names(free, names, params, binders, pvars, ext, sync)


def free_names(t: PiTerm) -> set[str]:
    return _scan(t).free


def all_names(t: PiTerm) -> set[str]:
    """Every name occurring anywhere, bound or free (barb ids included)."""
    return _scan(t).names


def process_vars(t: PiTerm) -> set[str]:
    return _scan(t).pvars


def is_async(t: PiTerm) -> bool:
    """Asynchronous sublanguage membership: every output continuation is 0."""
    return not _scan(t).sync


def _fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    for i in count(2):
        cand = f"{base}{i}"
        if cand not in taken:
            return cand
    raise AssertionError


def _map_names(t: PiTerm, ren: dict[str, str], bind: Callable, plug: dict) -> PiTerm:
    """t with ren applied to its free names and each leaf that is a key of
    plug replaced by its process.  bind(cls, z, body, ren) gives the spelling
    of the In or Res binder z, its body and the renaming under it; binders
    are met in pre-order, left before right."""
    def visit(u: PiTerm, ren: dict[str, str]):
        cls = type(u)
        if cls is Out:
            return partial(Out, ren.get(u.chan, u.chan), ren.get(u.msg, u.msg)), ((u.cont, ren),)
        if cls is In:
            z, k, inner = bind(In, u.param, u.cont, ren)
            return partial(In, ren.get(u.chan, u.chan), z), ((k, inner),)
        if cls is Res:
            z, k, inner = bind(Res, u.name, u.body, ren)
            return partial(Res, z), ((k, inner),)
        if cls is Par:
            return Par, ((u.left, ren), (u.right, ren))
        if cls is Repl:
            return Repl, ((u.body, ren),)
        if cls is Nil or cls is PVar or cls is ExtBarb:
            return (lambda: plug.get(u, u)), ()
        raise PiError(f"not a process: {u!r}")

    return _fold(t, ren, visit)


def subst_names(t: PiTerm, mapping: dict[str, str]) -> PiTerm:
    """Capture-avoiding renaming of free name occurrences (barb ids untouched)."""
    def bind(_, z: str, k: PiTerm, live: dict[str, str]):
        inner = {a: b for a, b in live.items() if a != z}
        if z in inner.values():  # respell z, to a name fresh for k
            z2 = _fresh_name(z, all_names(k) | set(inner) | set(inner.values()))
            return z2, subst_names(k, {z: z2}), inner
        return z, k, inner

    live = {a: b for a, b in mapping.items() if a != b}
    return _map_names(t, live, bind, {}) if live else t


def alpha_eq_pi(a: PiTerm, b: PiTerm) -> bool:
    """Whether a and b are equal up to renaming of bound names, decided by
    walking both terms in step with an explicit stack, so that terms of any
    depth are compared.  A bound name stands for the depth of its binder, a
    free name for itself."""
    if a is b:  # terms are interned
        return True
    work: list = [(a, b, {}, {}, 0)]
    while work:
        u, v, eu, ev, depth = work.pop()
        cls = type(u)
        if cls is not type(v):
            return False
        if cls is Out:
            if eu.get(u.chan, u.chan) != ev.get(v.chan, v.chan) \
                    or eu.get(u.msg, u.msg) != ev.get(v.msg, v.msg):
                return False
            work.append((u.cont, v.cont, eu, ev, depth))
        elif cls is In:
            if eu.get(u.chan, u.chan) != ev.get(v.chan, v.chan):
                return False
            work.append((u.cont, v.cont, {**eu, u.param: depth}, {**ev, v.param: depth},
                         depth + 1))
        elif cls is Res:
            work.append((u.body, v.body, {**eu, u.name: depth}, {**ev, v.name: depth},
                         depth + 1))
        elif cls is Par:
            work.append((u.right, v.right, eu, ev, depth))
            work.append((u.left, v.left, eu, ev, depth))
        elif cls is Repl:
            work.append((u.body, v.body, eu, ev, depth))
        elif cls is PVar:
            if u.name != v.name:
                return False
        elif cls is ExtBarb:
            if u.ident != v.ident:
                return False
        elif cls is not Nil:
            raise PiError(f"not a process: {u!r}")
    return True


# ------------- concrete syntax -------------

_NAME_PATTERN = r"[a-z_][a-zA-Z0-9_]*"
_PI_TOKEN = re.compile(
    rf"\s*(?:(?P<name>{_NAME_PATTERN})|(?P<pvar>[A-Z][a-zA-Z0-9_]*)"
    r"|(?P<zero>0)|(?P<sym>[!().|,@]))")
_NAME = re.compile(_NAME_PATTERN)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _PI_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PiError(f"unexpected character {text[pos:].strip()[0]!r} at {pos}")
            break
        kind = m.lastgroup
        toks.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return toks


def parse_pi(text: str, allow_reserved: bool = False) -> PiTerm:
    """Read a process.  One loop with an explicit stack of open parentheses
    and of prefixes awaiting their factor, so a term of any depth is read."""
    toks = _tokenize(text) + [("eof", "", len(text))]
    idx = 0

    def take(kind, value=None):
        nonlocal idx
        k, v, p = toks[idx]
        if k != kind or (value is not None and v != value):
            want = value or kind
            raise PiError(f"expected {want!r} at position {p}, found {v or 'end of input'!r}")
        idx += 1
        return v

    def accept(sym: str) -> bool:
        nonlocal idx
        if toks[idx][:2] == ("sym", sym):
            idx += 1
            return True
        return False

    def name():
        v = take("name")
        if v == "new":
            raise PiError("'new' is a reserved word, not a name")
        if v.startswith("_") and not allow_reserved:
            raise PiError(f"name {v!r} is in the reserved namespace (names starting with _)")
        return v

    # the prefixes read whose factor is still open, as (class, fields), and
    # each open parenthesis, as (None, the par before it at its level)
    stack: list = []
    left = None  # the par read so far at the innermost open level
    while True:
        k, v, p = toks[idx]
        t = None  # the factor, once its last token is read
        if k == "zero":
            take("zero")
            t = Nil()
        elif accept("!"):
            stack.append((Repl, ()))
        elif accept("("):
            stack.append((None, left))
            left = None
        elif accept("@"):
            t = ExtBarb(name())
        elif k == "pvar":
            t = PVar(take("pvar"))
        elif (k, v) == ("name", "new"):
            take("name")
            stack.append((Res, (name(),)))
            while accept(","):
                stack.append((Res, (name(),)))
            take("sym", ".")
        elif k == "name":
            x = name()
            if accept("!"):
                y = name()
                if accept("."):
                    stack.append((Out, (x, y)))
                else:
                    t = Out(x, y, Nil())
            elif accept("("):
                z = name()
                take("sym", ")")
                take("sym", ".")
                stack.append((In, (x, z)))
            else:
                raise PiError(f"expected '!' or '(' after name {x!r} at position {toks[idx][2]}")
        else:
            raise PiError(f"unexpected {v or 'end of input'!r} at position {p}")
        # wrap the factor in its prefixes and add it to its level; a level
        # that ends here is closed and is itself the factor
        while t is not None:
            while stack and stack[-1][0] is not None:
                cls, fields = stack.pop()
                t = cls(*fields, t)
            left = t if left is None else Par(left, t)
            if accept("|"):
                break  # the level goes on with another factor
            if not stack:
                if idx != len(toks) - 1:
                    raise PiError(f"trailing input at position {toks[idx][2]}")
                return left
            take("sym", ")")
            t, left = left, stack.pop()[1]


def print_pi(t: PiTerm) -> str:
    """The concrete syntax of t.  The walk writes the text in order, and the
    pieces are joined once, so a term of any depth prints in linear time."""
    out: list[str] = []

    def visit(u: PiTerm, trail: str):
        # write u's prefixes down to a Par or a leaf; trail is the text after
        # u's last leaf: the separators and closing brackets of the nodes that
        # end with u
        while True:
            cls = type(u)
            if cls is Par:
                bracket = type(u.right) is Par
                return _skip, ((u.left, " | " + "(" * bracket), (u.right, ")" * bracket + trail))
            k = None  # the prefix's continuation, a factor
            if cls is Res:
                names = []
                while type(u) is Res:
                    names.append(u.name)
                    u = u.body
                text, k = f"new {', '.join(names)}. ", u
            elif cls is In:
                text, k = f"{u.chan}({u.param}).", u.cont
            elif cls is Out:
                text, k = f"{u.chan}!{u.msg}.", u.cont
                if type(k) is Nil:
                    text, k = text[:-1], None
            elif cls is Repl:
                text, k = "!", u.body
            elif cls is Nil:
                text = "0"
            elif cls is PVar:
                text = u.name
            elif cls is ExtBarb:
                text = "@" + u.ident
            else:
                raise PiError(f"not a process: {u!r}")
            if k is None:
                out.append(text + trail)
                return _skip, ()
            if type(k) is Par:  # bracketed
                text, trail = text + "(", ")" + trail
            out.append(text)
            u = k

    _fold(t, "", visit)
    return "".join(out)


# ------------- canonical states -------------

class PiState:
    """Structural-congruence normal form (see normal_form): restrictions
    lifted to the top, parallel threads flattened, both in the order that
    realizes the canonical key, and identity by that key (see
    _Canon.level), hashed once, here.  A state carries the canon that made
    it, if any, and whether two entries of its key may be equal or an entry
    may hold twins (see _Spans): neither is compared nor printed.  Its
    fields are not set again once it is built."""
    __slots__ = ("restricted", "threads", "key", "_hash", "_canon", "_note", "_memo")

    def __init__(self, restricted: tuple[str, ...], threads: tuple[PiTerm, ...], key: tuple,
                 canon: _Canon | None = None, symmetric: bool = False) -> None:
        self.restricted, self.threads, self.key = restricted, threads, key
        self._hash, self._canon, self._note = hash(key), canon, symmetric
        self._memo = False  # the spans, once worked out

    def __reduce__(self):  # rebuilt, so the key is hashed under the loader's hash seed
        return PiState, (self.restricted, self.threads, self.key, self._canon, self._note)

    def __repr__(self) -> str:
        return (f"PiState(restricted={self.restricted!r}, threads={self.threads!r}, "
                f"key={self.key!r})")

    def _spans(self) -> _Spans | None:
        """Where the entries of the key lie (see _Spans), when a canon made
        this state with a level keyed entry by entry; else None."""
        if self._memo is False:
            self._memo = self._canon and _Spans.of(self.key, self._note)
        return self._memo

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiState):
            return False
        try:
            return self.key == other.key
        except RecursionError:
            return _compare(self.key, other.key) == 0

    def __hash__(self) -> int:
        return self._hash

    def term(self) -> PiTerm:
        return _assemble(self.restricted, self.threads)


def _compare(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as a sorts before, with or after b in the order of tuples,
    walked with an explicit stack.  The interpreter's own comparison recurses
    once per nested tuple, and a key nests three tuples per prefix, so keys
    that it refuses to compare are compared here instead."""
    stack = [(a, b, 0)]
    while stack:
        x, y, i = stack.pop()
        if i == len(x) or i == len(y):
            if len(x) != len(y):
                return -1 if len(x) < len(y) else 1
            continue  # equal: the enclosing pair goes on with its next entries
        stack.append((x, y, i + 1))
        u, v = x[i], y[i]
        if u is v:
            continue
        if type(u) is tuple and type(v) is tuple:
            stack.append((u, v, 0))
        elif u != v:
            return -1 if u < v else 1
    return 0


def _key_below(a: tuple, b: tuple) -> bool:
    try:
        return a < b
    except RecursionError:
        return _compare(a, b) < 0


def print_state(s: PiState) -> str:
    return print_pi(s.term())


def _rename(t: PiTerm, ren: dict[str, str], clash: set[str], avoid: set[str]) -> PiTerm:
    """t with ren applied to its free names and each restriction binder in
    clash respelled afresh, avoiding avoid.  Binders are visited in
    pre-order, left before right, and each spelling joins clash and avoid,
    so the spellings chosen depend only on that order."""
    def bind(cls: type, n: str, body: PiTerm, ren: dict[str, str]):
        if cls is In:
            return n, body, {a: b for a, b in ren.items() if a != n} if n in ren else ren
        m = n if n not in clash else _fresh_name(n, avoid)
        clash.add(m)
        avoid.add(m)
        return m, body, {**ren, n: m}

    return _map_names(t, ren, bind, {})


def _split_level(t: PiTerm) -> tuple[list[str], list[PiTerm]]:
    """Unwrap leading restrictions and flatten the parallel spine, lifting
    the restrictions met on it: names and threads in pre-order, left before
    right.  One walk with an explicit stack, so the spine may be of any
    length."""
    nus: list[str] = []
    threads: list[PiTerm] = []
    stack = [t]
    while stack:
        u = stack.pop()
        cls = type(u)
        if cls is Par:
            stack.append(u.right)
            stack.append(u.left)
        elif cls is Res:
            nus.append(u.name)
            stack.append(u.body)
        elif cls is not Nil:
            threads.append(u)
    return nus, threads


class _Level:
    """A normalized continuation: its term, its restrictions and threads,
    each thread's free names, and the level's own free names.  The fields
    are not set again."""
    __slots__ = ("term", "nus", "threads", "fns", "free")

    def __init__(self, term: PiTerm, nus: list[str], threads: list[PiTerm],
                 fns: list[frozenset[str]], free: frozenset[str]) -> None:
        self.term = term
        self.nus = nus
        self.threads = threads
        self.fns = fns
        self.free = free


_EMPTY = _Level(Nil(), [], [], [], frozenset())


def _assemble(nus, threads) -> PiTerm:
    core: PiTerm = Nil()
    if threads:
        core = threads[0]
        for th in threads[1:]:
            core = Par(core, th)
    for n in reversed(nus):
        core = Res(n, core)
    return core


class _Memo(dict):
    """A dict that fills in a missing key k with make(k), so that a hit
    costs one lookup and no call."""

    def __init__(self, make: Callable) -> None:
        self.make = make  # the dict starts empty: dict.__new__ ignores make

    def __missing__(self, k):
        out = self[k] = self.make(k)
        return out


class _Canon:
    """Normalization and canonical keys, and the offers and barbs of
    top-level threads, memoized for the life of one canon, which each state
    it makes carries (see PiState) and is stepped with (see reduce_once).

    A level is the restricted names and the parallel threads directly under a
    prefix (or at the top).  Its key is ``(len(nus), sorted thread keys)`` with
    the restricted names spelled ``r{depth}.{i}``, or, when its names fall into
    several components, ``(len(nus), sorted entries)`` with one entry per
    component (see level); input parameters are spelled ``p{depth}`` and free
    names ``f:{name}``.

    Terms are interned, so every memo is keyed by the node itself.  The
    canon's memos are _levels, _normal, scans, acts, _conts and _steps (see
    __init__), and each _Search keeps its own: a thread is normalized,
    scanned and walked for its offers once, and a normalized continuation is
    keyed once per depth and spelling of its free names, so keying a thread
    met before costs its first prefix.  A top-level key whose level has
    no names, or several components, is a list of entries: one per
    component, and one per thread outside every component.  Every
    successor goes through merge.  Of a state that a canon keyed so, the
    entries the step touched are split and keyed anew, the same step in
    another state is looked up, and every other entry keeps its key, names
    and threads, respelled in place where the step calls for it (see
    merge).  So a successor costs the entries its step touched, not the whole
    state.  A successor keyed whole, or of a state keyed whole or built by
    hand, is keyed whole (see keyed), a thread normalized before at one
    lookup.  Only roots and
    normal_form go through state, which scans every part for binders to
    respell, then gathers, keys and sorts every thread but normalizes only
    the threads not met before.  Where such a state's entries lie (see
    PiState._spans) is worked out once, when it is first expanded; state
    and merge note whether two of its entries may be equal or an entry may
    hold twins, and only then are the threads that stand for others looked
    for, so that reduce_once steps one met pair per orbit.
    """

    def __init__(self) -> None:
        # by node: normalized continuations (by core), normalized threads
        # with their free names (by the raw thread and by the normalized one
        # itself), and scans of parts (scans[t]); by (node, depth, tokens of
        # its free names): the keys of continuations; and by top-level
        # thread: its offers and barbs (acts[th])
        self._levels: dict[PiTerm, _Level] = {}
        self._normal: dict[PiTerm, tuple[PiTerm, frozenset[str]]] = {}
        self.scans: dict[PiTerm, _Names] = _Memo(_scan)
        self._conts: dict[tuple, tuple] = {}
        self.acts: dict[PiTerm, _Acts] = _Memo(_acts)
        # the states known to hold no free process variable: the roots
        # closed_state made, and their groups (see _groups)
        self.closed: set[PiState] = set()
        # merge's re-keyed entries by the touched names and kept threads and
        # the step (see rekey)
        self._steps: dict[tuple, tuple[list[tuple], int, int, bool]] = {}

    def state(self, nus: list[str], parts: list[PiTerm]) -> PiState:
        """The normal form of ``new nus. (parts[0] | parts[1] | ...)``: its
        binders respelled (see _respell), then its levels flattened and
        keyed (see keyed)."""
        return self.keyed(*self._respell(nus, parts))

    def keyed(self, nus: list[str], parts: list[PiTerm]) -> PiState:
        """The state of ``new nus. (parts[0] | ...)`` whose binders need no
        respelling: the levels flattened, the threads normalized (a thread
        met before, or normalized already, costs one lookup), and the level
        keyed (see level)."""
        top: list[str] = list(nus)
        raw: list[PiTerm] = []
        for p in parts:
            more, threads = _split_level(p)
            top += more
            raw += threads
        top, threads, fns = self.gather(top, raw)
        key, order, perm = self.level(top, threads, fns, {}, 0)
        return PiState(tuple(order), tuple([threads[i] for i in perm]), key, self,
                       _symmetric(key[1]))

    def merge(self, state: PiState, tops: tuple[int, int], consumed: tuple[int, ...],
              nus: tuple[str, ...], parts: tuple[PiTerm, ...], cont: PiTerm, param: str,
              msg: str) -> PiState:
        """The successor of state after a step (see _successor), as state
        would make it of the parent's restrictions and nus, the parent's
        threads but those numbered in consumed, parts, and the receiver's
        continuation cont with msg for param; tops are the numbers of the
        two threads that offered.

        A parent that a canon made has binders that occur once and clash
        with no free name or input parameter, so its successor needs them
        respelled only where the step opens a replication copy (an offer
        that consumes no thread), whose binders are its replication's, or
        where an input of cont binds msg, which subst_names then respells.
        There, and for a parent built by hand, the whole part list is
        respelled as state would.  A thread or restricted name of the parent
        so respelled keeps its place and its entry's key, since no key or
        order reads the spelling of a bound name; a thread is normalized
        again, since a name moved free in it may reorder its continuation.

        Where a canon keyed the parent entry by entry and the successor's
        level is keyed that way too (see level), only the entries that lost
        a thread, or are components that offered, are keyed again (see
        rekey).  Every other entry keeps its key, names and threads: whole,
        given a component in its own canonical order, returns that order
        and thread order, since the first leaf _Search reaches
        individualizes at each frame the name the canonical leaf did there.
        The entries go in the order of level's stable sort: equal outside
        threads by index, kept ones first, then the new ones; equal
        components by the position of their first name in the parent's
        restrictions, then the copies' and the lifted ones.  Otherwise the
        level is keyed whole (see keyed), over the parent's threads
        (normalized already, unless built by hand) and the new parts."""
        names, threads = list(state.restricted), list(state.threads)
        if len(consumed) < 2 or msg in self.scans[cont].params or state._canon is None:
            cont, param = subst_names(cont, {param: msg}), msg
            keep = [i for i in range(len(threads)) if i not in consumed]
            spelt, out = self._respell(names + list(nus),
                                       [threads[i] for i in keep] + [*parts, cont])
            r, k = len(names), len(keep)
            names, nus, parts, cont = spelt[:r], tuple(spelt[r:]), tuple(out[k:-1]), out[-1]
            for i, p in zip(keep, out):
                threads[i] = self.normalize_thread(p)[0]
        spans = state._spans()
        if spans is not None:
            owner, names_at, threads_at, ties, comps, keys, reps = spans
            # the touched entries, each to be cut out; the names of those that
            # are components, with their positions, and their kept threads
            a, b = owner[tops[0]], owner[tops[1]]
            cuts: list[tuple] = []
            cnames: list[str] = []
            where: list[int] = []
            kept: list[PiTerm] = []
            for j in (a,) if a == b else (a, b) if a < b else (b, a):
                lo, hi = names_at[j], names_at[j + 1]
                if lo == hi and threads_at[j] not in consumed:
                    continue  # a replication outside every component that opened a copy
                cuts.append((j, 1, None, None, (), ()))
                if lo < hi:
                    cnames += names[lo:hi]
                    where += range(lo, hi)
                    comps -= 1
                    kept += [threads[i] for i in range(threads_at[j], threads_at[j + 1])
                             if i not in consumed]
            step = (tuple(cnames), tuple(kept), nus, parts, cont, param, msg)
            done = self._steps.get(step)
            if done is None:
                done = self._steps[step] = self.rekey(*step)
            new, added, linked, symmetric = done
            # level keys the successor entry by entry when it has no names, or
            # two or more in two or more components
            if not (len(names) - len(cnames) + added and comps + linked < 2):
                # each new entry goes before the parent's first entry with a
                # larger key, or an equal key and a larger tie: a new thread
                # ties after every old one, a new name after every name of the
                # parent.  The successor may hold equal entries or twins where
                # the parent held some, where the new entries do among
                # themselves, or where a new entry equals an entry of the
                # parent (perhaps a touched one)
                symmetric = symmetric or reps is not None
                for key, tie, ns, ths in new:
                    at = bisect_right(keys, key)
                    if not symmetric and at and keys[at - 1] == key:
                        symmetric = True
                    if ns:
                        tie = where[tie] if tie < len(where) else len(names) + tie
                        lo = bisect_left(keys, key, 0, at)
                        if lo < at:
                            at = bisect_right(ties, tie, lo, at)
                    cuts.append((at, 0, key, tie, ns, ths))
                # edit the parent's orders from the back, a touched entry cut
                # out before the new ones that go in its place
                cuts.sort(reverse=True)
                ekeys = list(keys)
                for at, cut, key, _, ns, ths in cuts:
                    n, t = names_at[at], threads_at[at]
                    if cut:
                        del ekeys[at], names[n:names_at[at + 1]], threads[t:threads_at[at + 1]]
                    else:
                        ekeys.insert(at, key)
                        names[n:n] = ns
                        threads[t:t] = ths
                return PiState(tuple(names), tuple(threads), (len(names), tuple(ekeys)), self,
                               symmetric)
        return self.keyed(names + list(nus), [th for i, th in enumerate(threads)
                                              if i not in consumed]
                          + [*parts, subst_names(cont, {param: msg})])

    def rekey(self, names: tuple[str, ...], kept: tuple[PiTerm, ...], nus: tuple[str, ...],
              parts: tuple[PiTerm, ...], cont: PiTerm, param: str,
              msg: str) -> tuple[list[tuple], int, int, bool]:
        """The entries that replace a successor's touched ones (see merge),
        with their number of names and of components, and whether two of
        them are equal or one holds twins (see _Spans): the touched entries'
        names and kept threads, with the restrictions nus and parts of the
        opened copies and the sender's continuation, and the receiver's cont
        with msg for param, split into components anew and keyed, unused
        names dropped.  The new parts hold no name of an untouched entry,
        since each one's free names were those of a touched thread, or of a
        replication that holds no restricted name.  Each entry is (key, tie,
        names, threads) with a local tie: for a component the index of its
        first name in names, nus and then the lifted ones, for an outside
        thread its index in kept and then the new threads.  Every outside
        thread is new, since a kept thread still holds a name of its
        component."""
        lifted: list[str] = []
        raw = list(kept)
        for p in (*parts, subst_names(cont, {param: msg})):
            more, threads = _split_level(p)
            lifted += more
            raw += threads
        index = {n: i for i, n in enumerate(chain(names, nus, lifted))}
        used, threads, fns = self.gather(list(index), raw)
        comps, outside = _linked(used, fns)
        new = [(self.thread(threads[i], {}, 1), i, (), (threads[i],)) for i in outside]
        for cnames, tids in comps:
            (_, keys), order, perm = self.whole(
                cnames, [threads[i] for i in tids], [fns[i] for i in tids], {}, 0)
            new.append((("~c", len(cnames), keys), index[cnames[0]], tuple(order),
                        tuple([threads[tids[j]] for j in perm])))
        return (new, sum(len(c) for c, _ in comps), len(comps),
                _symmetric(sorted([e[0] for e in new])))

    def _respell(self, nus: list[str], parts: list[PiTerm]) -> tuple[list[str], list[PiTerm]]:
        """nus and parts with the restriction binders renamed so that lifting
        them over siblings is capture-free: a binder keeps its spelling
        unless that spelling also occurs free, as an input parameter, or on
        another restriction.  That is decided from the scans of the parts.
        The binders are renamed as one pre-order walk of ``new nus. (parts[0]
        | ...)`` would (see _rename), and only a part holding such a binder,
        or a free occurrence of a renamed name of nus, is rebuilt."""
        scans = [self.scans[p] for p in parts]
        count: dict[str, int] = {}
        for n in nus:
            count[n] = count.get(n, 0) + 1
        for sc in scans:
            for n, c in sc.binders.items():
                count[n] = count.get(n, 0) + c
        free = set().union(*(sc.free for sc in scans)).difference(nus)
        params = set().union(*(sc.params for sc in scans))
        clash = {n for n, c in count.items() if c > 1 or n in free or n in params}
        if not clash:
            return nus, parts
        avoid = set(nus).union(*(sc.names for sc in scans))
        ren: dict[str, str] = {}
        spelt = []
        for n in nus:
            m = n if n not in clash else _fresh_name(n, avoid)
            clash.add(m)
            avoid.add(m)
            ren[n] = m
            spelt.append(m)
        moved = {n for n, m in ren.items() if n != m}
        out = []
        for p, sc in zip(parts, scans):
            if clash.isdisjoint(sc.binders) and moved.isdisjoint(sc.free):
                out.append(p)  # no binder renamed, no free name moved
            else:
                out.append(_rename(p, ren, clash, avoid))
        return spelt, out

    def gather(self, nus: list[str], raw: list[PiTerm]) -> tuple[
            list[str], list[PiTerm], list[frozenset[str]]]:
        """The used restrictions, normalized threads and their free names of
        a level with restrictions nus and threads raw."""
        parts = list(map(self.normalize_thread, raw))  # a comprehension adds a frame per prefix
        used = frozenset().union(*(fn for _, fn in parts))
        return [n for n in nus if n in used], [th for th, _ in parts], [fn for _, fn in parts]

    def normalize_thread(self, t: PiTerm) -> tuple[PiTerm, frozenset[str]]:
        """The thread with its continuation normalized, and its free names,
        made once per thread.  The continuation is normalized here, so that
        normalizing takes two frames per nested prefix (this and gather):
        unused restrictions are dropped, restrictions and threads ordered
        canonically, and its level recorded in _levels for keying.  A
        normalized thread is its own normal form, which is recorded too, so
        that a state's threads are normalized again at one lookup each."""
        done = self._normal.get(t)
        if done is not None:
            return done
        cls = type(t)
        k = t.body if cls is Repl else t.cont if cls is Out or cls is In else Nil()
        lv = _EMPTY
        if type(k) is not Nil:
            nus, threads, fns = self.gather(*_split_level(k))
            if len(nus) > 1 or len(threads) > 1:
                _, nus, perm = self.level(nus, threads, fns, {}, 0)
                threads = [threads[i] for i in perm]
                fns = [fns[i] for i in perm]
            core = _assemble(nus, threads)
            free = frozenset().union(*fns) - set(nus)
            lv = self._levels[core] = _Level(core, nus, threads, fns, free)
        if cls is Out:
            done = Out(t.chan, t.msg, lv.term), lv.free | {t.chan, t.msg}
        elif cls is In:
            done = In(t.chan, t.param, lv.term), (lv.free - {t.param}) | {t.chan}
        else:  # a replication, or a thread with no continuation
            done = (Repl(lv.term) if cls is Repl else t), lv.free
        self._normal[t] = self._normal[done[0]] = done
        return done

    def thread(self, t: PiTerm, env: dict[str, str], depth: int) -> tuple:
        """Key of a normalized thread.  Its continuation is keyed here, so
        that keying takes two frames per nested prefix (this and whole, or
        level).  That key depends on env only through the tokens of the
        continuation's free names, which key the memo _conts."""
        match t:
            case Out(x, y, k):
                head = ("out", env.get(x) or f"f:{x}", env.get(y) or f"f:{y}")
            case In(x, z, k):
                head = ("in", env.get(x) or f"f:{x}")
                env, depth = {**env, z: f"p{depth}"}, depth + 1
            case Repl(k):
                head = ("repl",)
            case PVar(x):
                return ("pvar", x)
            case ExtBarb(w):
                return ("ext", w)
            case _:
                raise PiError(f"not a sequential thread: {t!r}")
        if type(k) is Nil:
            return (*head, (0, ()))
        lv = self._levels[k]
        memo_key = (k, depth, tuple(map(env.get, lv.free)))
        key = self._conts.get(memo_key)
        if key is None:  # level splits a level of two names or more into components
            key = self._conts[memo_key] = (self.level if len(lv.nus) > 1 else self.whole)(
                lv.nus, lv.threads, lv.fns, env, depth)[0]
        return (*head, key)

    def level(self, nus: list[str], threads: list[PiTerm], fns: list[frozenset[str]],
              env: dict[str, str], depth: int) -> tuple[tuple, list[str], list[int]]:
        """The level's key, and the restriction order and thread order
        (indices into threads) that realize it.

        Two restricted names are linked when some thread holds both (see
        _linked).  A level with at most one name, or whose names form one
        component, is keyed whole.  Otherwise, as ``new a. (P | Q)`` is
        congruent to ``P | new a. Q`` when a is not free in P, each component
        is keyed on its own with component-local tokens, and the key is
        ``(len(nus), sorted entries)``: a component gives ``("~c", its number
        of names, its sorted thread keys)`` and a thread holding none of the
        names its own key.  No thread key starts with "~c", so a split key
        never equals a whole one, and every entry starts with a string, so
        any two keys compare.  The orders are the entries' own, joined in
        entry order."""
        if len(nus) > 1:
            comps, outside = _linked(nus, fns)
            if len(comps) > 1:
                entries = [(self.thread(threads[i], env, depth + 1), [], [i]) for i in outside]
                for names, tids in comps:
                    (_, keys), order, perm = self.whole(
                        names, [threads[i] for i in tids], [fns[i] for i in tids], env, depth)
                    entries.append((("~c", len(names), keys), order, [tids[j] for j in perm]))
                entries.sort(key=itemgetter(0))
                return ((len(nus), tuple([e for e, _, _ in entries])),
                        [n for _, order, _ in entries for n in order],
                        [i for _, _, perm in entries for i in perm])
        return self.whole(nus, threads, fns, env, depth)

    def whole(self, nus: list[str], threads: list[PiTerm], fns: list[frozenset[str]],
              env: dict[str, str], depth: int) -> tuple[tuple, list[str], list[int]]:
        """level's answer for the level as one component: ``(len(nus),
        sorted thread keys)`` with the names spelled ``r{depth}.{i}``, by
        _Search when there are two names or more."""
        if len(nus) > 1:
            keys, order, perm = _Search(self, nus, threads, fns, env, depth).best()
            return (len(nus), keys), order, perm
        env2 = {**env, nus[0]: f"r{depth}.0"} if nus else env
        keyed = []
        for i, th in enumerate(threads):  # a comprehension adds a frame per prefix
            keyed.append((self.thread(th, env2, depth + 1), i))
        keyed.sort()
        return (len(nus), tuple([k for k, _ in keyed])), list(nus), [i for _, i in keyed]


class _Search:
    """Individualization-refinement over the restricted names of one level.

    A node is an ordered partition of the names into cells.  Refinement splits
    each cell by the sorted keys of the threads a name occurs in, with the name
    itself marked and every other name shown by its cell; it repeats until no
    cell splits.  Where a cell stays larger than one name, each of its names is
    individualized in turn.  A leaf (all cells single) numbers the names by
    position.  Nothing here reads the names' spelling, so the leaf set of a
    renamed level is the renamed leaf set, and the minimum leaf key is
    canonical.  Two leaves with equal keys yield an automorphism; the search
    skips children in the same orbit and leaves a subtree as soon as one of its
    leaves matches the first leaf (McKay and Piperno, Practical graph
    isomorphism II, 2014).
    """

    def __init__(self, canon: _Canon, nus: list[str], threads: list[PiTerm],
                 fns: list[frozenset[str]], env: dict[str, str], depth: int) -> None:
        self.canon, self.nus, self.threads, self.env, self.depth = canon, nus, threads, env, depth
        self.mine = [[n for n in nus if n in fn] for fn in fns]
        self.occurs = {n: [i for i, fn in enumerate(fns) if n in fn] for n in nus}
        self.memo: dict[tuple, tuple] = {}

    def key(self, i: int, tokens: dict[str, str]) -> tuple:
        """Key of thread i with this level's names spelled by tokens."""
        mine = self.mine[i]
        memo_key = (i, tuple(map(tokens.__getitem__, mine)))
        key = self.memo.get(memo_key)
        if key is None:
            env = dict(self.env)
            env.update((n, tokens[n]) for n in mine)
            key = self.memo[memo_key] = self.canon.thread(self.threads[i], env, self.depth + 1)
        return key

    def refine(self, cells: list[list[str]]) -> list[list[str]]:
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
                groups: dict[tuple, list[str]] = {}
                for n in cell:
                    # the name marked while its threads are keyed, then restored
                    own, colour[n] = colour[n], f"s{self.depth}"
                    sig = tuple(sorted(self.key(i, colour) for i in self.occurs[n]))
                    colour[n] = own
                    groups.setdefault(sig, []).append(n)
                out.extend(groups[sig] for sig in sorted(groups))
            if len(out) == len(cells):
                return out
            cells = out

    def leaf(self, cells: list[list[str]]) -> tuple[tuple, list[str], list[int]]:
        """The sorted thread keys of a leaf, its restriction order, and its
        thread order."""
        order = [cell[0] for cell in cells]
        tokens = {n: f"r{self.depth}.{i}" for i, n in enumerate(order)}
        keyed = sorted((self.key(i, tokens), i) for i in range(len(self.threads)))
        return tuple(k for k, _ in keyed), order, [i for _, i in keyed]

    def best(self) -> tuple[tuple, list[str], list[int]]:
        """The leaf with the minimum key."""
        n = len(self.nus)
        root = self.refine([list(self.nus)])
        if len(root) == n:
            return self.leaf(root)
        first = best = first_path = None
        autos: list[dict[str, str]] = []
        # the open path: frames[k] = [cells, path of k names, target cell, next child,
        # tried, orbits of the automorphisms fixing the path]
        frames = [[root, (), _first_cell(root), 0, [], _Orbits(())]]
        while frames:
            cells, path, t, nxt, tried, orbits = frame = frames[-1]
            if nxt == len(cells[t]):
                frames.pop()
                continue
            frame[3] += 1
            w = cells[t][nxt]
            if tried and orbits.same(w, tried, autos):
                continue
            tried.append(w)
            child = self.refine(
                cells[:t] + [[w], [v for v in cells[t] if v != w]] + cells[t + 1:])
            here = path + (w,)
            if len(child) < n:
                frames.append([child, here, _first_cell(child), 0, [], _Orbits(here)])
                continue
            leaf = self.leaf(child)
            if first is None:
                first = best = leaf
                first_path = here
            elif leaf[0] == first[0]:
                autos.append(dict(zip(first[1], leaf[1])))
                # the automorphism fixes the path shared with the first leaf
                # and maps the first path's subtree onto this one: resume
                # where the two paths part
                j = 0
                while here[j] == first_path[j]:
                    j += 1
                del frames[j + 1:]
            elif leaf[0] == best[0]:
                autos.append(dict(zip(best[1], leaf[1])))
            elif leaf[0] < best[0]:
                best = leaf
        return best


class _Spans:
    """Where the entries of a level key lie in the level's orders: thread i
    is in entry owner[i], and entry j holds names names_at[j]:names_at[j + 1]
    and threads threads_at[j]:threads_at[j + 1]; ties[j] orders entries of
    equal keys as level's sort does, by the position of a component's first
    name and of an outside thread; comps counts the components, and entries
    are the key's own.

    Two entries with equal keys are interchangeable: mapping the k-th name
    and the k-th thread of one onto those of the other, and back, is an
    automorphism of the level.  So is swapping two threads of one entry
    whose keys are equal under its one labelling (twins): they are one
    thread spelled twice.  reps[i] is the thread that stands for thread i
    under these maps: the thread at i's offset in the first entry equal to
    i's, or the first of its twins there.  reps is None when no two entries
    are equal and no entry holds twins, so each thread stands for itself.
    The fields are not set again; iterating gives them in this order."""
    __slots__ = ("owner", "names_at", "threads_at", "ties", "comps", "entries", "reps")

    def __init__(self, owner: Sequence[int], names_at: Sequence[int],
                 threads_at: Sequence[int], ties: Sequence[int], comps: int, entries: tuple,
                 reps: list[int] | None) -> None:
        self.owner = owner
        self.names_at = names_at
        self.threads_at = threads_at
        self.ties = ties
        self.comps = comps
        self.entries = entries
        self.reps = reps

    def __iter__(self) -> Iterator:
        return iter((self.owner, self.names_at, self.threads_at, self.ties, self.comps,
                     self.entries, self.reps))

    @staticmethod
    def of(key: tuple, symmetric: bool) -> _Spans | None:
        """The spans of a level key in the split format or with no names: a
        component entry holds its names and its thread keys, an outside
        thread none and one; None for a key keyed whole.  reps is looked for
        only where symmetric says that two entries may be equal or an entry
        may hold twins."""
        names, entries = key
        if not names:  # bytes of zeros: no entry holds a name
            n = len(entries)
            owner, names_at, threads_at, ties, comps = (
                range(n), bytes(n + 1), range(n + 1), range(n), 0)
        elif not any(e[0] == "~c" for e in entries):
            return None
        else:
            owner = []
            names_at, threads_at, ties = [0], [0], []
            for j, e in enumerate(entries):
                n, t = names_at[-1], threads_at[-1]
                if e[0] == "~c":
                    ties.append(n)
                    names_at.append(n + e[1])
                    threads_at.append(t + len(e[2]))
                else:
                    ties.append(t)
                    names_at.append(n)
                    threads_at.append(t + 1)
                owner += [j] * (threads_at[-1] - t)
            comps = sum(e[0] == "~c" for e in entries)
        return _Spans(owner, names_at, threads_at, ties, comps, entries,
                      _reps(entries, threads_at) if symmetric else None)


def _symmetric(entries: Sequence[tuple]) -> bool:
    """Whether two entries of a sorted level key are equal, or two thread
    keys of one component entry: sorted, equal ones are adjacent."""
    return True in map(eq, islice(entries, 1, None), entries) or any(
        e[0] == "~c" and True in map(eq, islice(e[2], 1, None), e[2]) for e in entries)


def _reps(entries: tuple, threads_at: Sequence[int]) -> list[int] | None:
    """_Spans.reps, entry by entry: an entry equal to the one before takes
    its threads' representatives offset by offset, and in any other
    component entry a thread whose key equals the one before it takes that
    thread's.  None when every thread stands for itself."""
    reps = list(range(threads_at[-1]))
    moved = False
    for j, e in enumerate(entries):
        t, end = threads_at[j], threads_at[j + 1]
        if j and e == entries[j - 1]:
            reps[t:end] = reps[2 * t - end:t]
            moved = True
        elif e[0] == "~c":
            keys = e[2]
            for k in range(1, end - t):
                if keys[k] == keys[k - 1]:
                    reps[t + k] = reps[t + k - 1]
                    moved = True
    return reps if moved else None


def _linked(nus: list[str], fns: list[frozenset[str]]) -> tuple[
        list[tuple[list[str], list[int]]], list[int]]:
    """The components of a level with restricted names nus and thread free
    names fns: each a list of names and the indices of the threads holding
    them, two names in one component when some thread holds both; and the
    indices of the threads holding none of the names."""
    root = {n: n for n in nus}

    def find(n: str) -> str:
        while root[n] != n:
            root[n] = n = root[root[n]]
        return n

    held = []
    for fn in fns:
        mine = [n for n in fn if n in root]
        held.append(mine)
        for n in mine[1:]:
            root[find(n)] = find(mine[0])
    comps: dict[str, tuple[list[str], list[int]]] = {}
    for n in nus:
        comps.setdefault(find(n), ([], []))[0].append(n)
    outside = []
    for i, mine in enumerate(held):
        if mine:
            comps[find(mine[0])][1].append(i)
        else:
            outside.append(i)
    return list(comps.values()), outside


def _first_cell(cells: list[list[str]]) -> int:
    return next(i for i, cell in enumerate(cells) if len(cell) > 1)


class _Orbits:
    """The orbits of the group generated by the automorphisms found so far
    that fix path, as a union-find over the names.  Each search frame keeps
    one and extends it by the automorphisms found since its last question."""

    def __init__(self, path: tuple[str, ...]) -> None:
        self.path = path
        self.parent: dict[str, str] = {}
        self.read = 0  # autos[:read] are joined in

    def find(self, n: str) -> str:
        parent = self.parent
        root = n
        while parent.get(root, root) != root:
            root = parent[root]
        while n != root:  # path compression
            parent[n], n = root, parent[n]
        return root

    def same(self, w: str, tried: list[str], autos: list[dict[str, str]]) -> bool:
        """Whether some automorphism fixing path maps a tried name to w."""
        find, parent, path = self.find, self.parent, self.path
        for g in islice(autos, self.read, None):
            if all(g[v] == v for v in path):
                for a, b in g.items():
                    if a == b:  # a fixed point joins nothing
                        continue
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
        self.read = len(autos)
        root = find(w)
        return any(find(u) == root for u in tried)


def normal_form(t: PiTerm) -> PiState:
    """Structural-congruence normal form of t.

    Restriction binders are renamed apart and lifted to the top of each
    level, the parallel spine is flattened, unused restrictions are dropped,
    and every continuation is normalized the same way.  Each level's
    restricted names are split into components, two names in one when some
    thread holds both, and each component is keyed by the minimum thread-key
    list over the leaves of an individualization-refinement search on its
    names (see _Canon.level and _Search).  The leaf set does not depend on how
    the names are spelled, so two terms get equal keys exactly when they are
    structurally congruent up to renaming of bound names.  A component with
    one restricted name has a single leaf.
    """
    return _Canon().state([], [t])


# ------------- barbs -------------

class Barb:
    """A barb: an output or input on a name, or an external barb.  ==, hash
    and < read kind and name, which are not set again."""
    __slots__ = ("kind", "name")

    def __init__(self, kind: str, name: str) -> None:
        self.kind = kind  # "out" | "in" | "ext"
        self.name = name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.name) == (other.kind, other.name)

    def __hash__(self) -> int:
        return hash((self.kind, self.name))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.name) < (other.kind, other.name)

    def __str__(self) -> str:
        if self.kind == "out":
            return f"{self.name}!"
        if self.kind == "in":
            return f"{self.name}("
        return f"@{self.name}"


def barb_from_text(s: str) -> Barb:
    """``x!`` or ``x`` (output), ``x(`` or ``x?`` (input), ``@w`` (external
    barb); x and w are spelled as names are in process terms."""
    s = s.strip()
    if not s:
        raise PiError("empty barb")
    if s.startswith("@"):
        barb = Barb("ext", s[1:])
    elif s.endswith("!"):
        barb = Barb("out", s[:-1])
    elif s.endswith("(") or s.endswith("?"):
        barb = Barb("in", s[:-1])
    else:
        barb = Barb("out", s)
    if not _NAME.fullmatch(barb.name):
        raise PiError(f"barb {s!r}: {barb.name!r} is not a name")
    return barb


# ------------- reduction -------------

class _CopyLevel:
    """One unfolded copy of a replication's body on the way to an offer: the
    copy's number cid within its top-level thread, the body's restricted
    names nus and parallel parts, and the part the offer sits in.  == and
    hash read every field, which is not set again."""
    __slots__ = ("cid", "nus", "parts", "part")

    def __init__(self, cid: int, nus: tuple[str, ...], parts: tuple[PiTerm, ...],
                 part: int) -> None:
        self.cid = cid
        self.nus = nus
        self.parts = parts
        self.part = part

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.cid, self.nus, self.parts, self.part)
                == (other.cid, other.nus, other.parts, other.part))

    def __hash__(self) -> int:
        return hash((self.cid, self.nus, self.parts, self.part))


class _Acts:
    """What one top-level thread can do now (see _acts): its offers as
    (kind, chan, msg, param, cont, levels, place) rows, its external barbs
    with the subjects of its outputs, and the subjects of its inputs, each
    subject only where no restriction of an unfolded copy hides it.  An
    offer's place is where it sits in the thread: the innermost copy that
    unfolds to reach it and its part there, or () for the thread itself.
    It tells the offers of one thread apart, as their rank does, and is the
    same in any thread spelled alike.  The fields are not set again."""
    __slots__ = ("offers", "barbs", "inputs")

    def __init__(self, offers: tuple[tuple, ...], barbs: frozenset[Barb],
                 inputs: frozenset[Barb]) -> None:
        self.offers = offers
        self.barbs = barbs
        self.inputs = inputs


def _acts(th: PiTerm) -> _Acts:
    """The acts of the threads of the top-level thread th that can act now,
    in order: th itself, or in place of a replication the threads of one
    copy of its body.  Each offer carries the copies (outermost first) that
    unfold to reach it, numbered from 0 within th, and its place."""
    offers: list[tuple] = []
    barbs: set[Barb] = set()
    inputs: set[Barb] = set()
    cids = count()
    stack: list[tuple[PiTerm, tuple[_CopyLevel, ...], tuple]] = [(th, (), ())]
    while stack:
        t, levels, place = stack.pop()
        cls = type(t)
        if cls is Repl:
            cid = next(cids)
            nus, parts = _split_level(t.body)
            nus, parts = tuple(nus), tuple(parts)
            for i in reversed(range(len(parts))):
                stack.append((parts[i], levels + (_CopyLevel(cid, nus, parts, i),), (cid, i)))
        elif cls is ExtBarb:
            barbs.add(Barb("ext", t.ident))
        elif cls is Out or cls is In:
            x = t.chan
            shown = all(x not in lv.nus for lv in levels)
            if cls is Out:
                offers.append(("send", x, t.msg, None, t.cont, levels, place))
                if shown:
                    barbs.add(Barb("out", x))
            else:
                offers.append(("recv", x, None, t.param, t.cont, levels, place))
                if shown:
                    inputs.add(Barb("in", x))
    return _Acts(tuple(offers), frozenset(barbs), frozenset(inputs))


def strong_barbs(s: PiState, input_barbs: bool = False) -> frozenset[Barb]:
    """The external barbs of the active threads (see _acts), and the
    subjects of their outputs (and of their inputs, with input_barbs) that no
    restriction of the state or of an unfolded copy hides, each thread's
    read from the memo of the canon that made s."""
    memo = (s._canon or _Canon()).acts
    acc: set[Barb] = set()
    for th in s.threads:
        acts = memo[th]
        acc |= acts.barbs
        if input_barbs:
            acc |= acts.inputs
    if s.restricted:
        hidden = set(s.restricted)
        return frozenset([b for b in acc if b.kind == "ext" or b.name not in hidden])
    return frozenset(acc)


def _successor(canon: _Canon, state: PiState, send: tuple[int, tuple],
               recv: tuple[int, tuple]) -> PiState:
    """The state after send meets recv, each a top-level thread's number and
    one of its offer rows (see _Acts), made by canon's merge: the state's
    other threads, the unconsumed parts of every replication copy either
    offer opened (with its restrictions), and the two continuations, the
    received name substituted for the parameter."""
    stop, (_, _, msg, _, sent, slevels, _) = send
    rtop, (_, _, _, param, cont, rlevels, _) = recv
    if not (slevels or rlevels):  # both threads consumed, only the continuations new
        return canon.merge(state, (stop, rtop), (stop, rtop), (), (sent,), cont, param, msg)
    # materialize every unfolded copy touched by either offer, in the order
    # of their top-level threads and, within one, of their numbers; an
    # offer that opens no copy consumes its thread
    opened: dict[tuple[int, int], tuple[_CopyLevel, set[int]]] = {}
    for top, levels in ((stop, slevels), (rtop, rlevels)):
        for lv in levels:
            opened.setdefault((top, lv.cid), (lv, set()))[1].add(lv.part)
    nus: list[str] = []
    parts: list[PiTerm] = []
    for copy in sorted(opened):
        lv, used = opened[copy]
        nus += lv.nus
        for j, p in enumerate(lv.parts):
            if j not in used or isinstance(p, Repl):  # the replication itself persists
                parts.append(p)
    parts.append(sent)
    consumed = tuple([top for top, levels in ((stop, slevels), (rtop, rlevels)) if not levels])
    return canon.merge(state, (stop, rtop), consumed, tuple(nus), tuple(parts), cont, param, msg)


def reduce_once(state: PiState) -> list[PiState]:
    """The successors of state, in key order, made by the canon that made
    state (a fresh one for a state built by hand), so that every state
    reached from one root shares one memo.

    Where that canon keyed state entry by entry and some threads stand for
    others (see _Spans.reps), a met pair and its image under one of those
    automorphisms lead to successors with equal keys (Emerson and Sistla,
    Symmetry and model checking, 1996).  So one pair of each orbit is
    stepped, the first in the order below: the orbit of a pair is each
    side's representative thread and the offer's place in it (see _Acts),
    and whether the two sides sit in one entry and in one thread.  The
    first pair that makes a key is the first of its orbit, so the successor
    kept for each key is the one every pair would keep."""
    canon = state._canon or _Canon()
    spans = state._spans()
    reps = spans and spans.reps
    # the offers of the active threads (see _acts) as (top, row): the sends
    # in order, the receives in order per channel; each met pair is stepped
    # as these two tuples, made once per offer
    sends: list[tuple[int, tuple]] = []
    recvs: dict[str, list[tuple[int, tuple]]] = {}
    acts = canon.acts
    for top, th in enumerate(state.threads):
        for row in acts[th].offers:
            if row[0] == "send":
                sends.append((top, row))
            else:
                recvs.setdefault(row[1], []).append((top, row))
    succs: dict[PiState, PiState] = {}
    stepped: set[tuple] = set()
    for send in sends:
        top, row = send
        for recv in recvs.get(row[1], ()):
            if reps:
                at = recv[0]
                orbit = (reps[top], row[6], reps[at], recv[1][6],
                         spans.owner[top] == spans.owner[at], top == at)
                if orbit in stepped:
                    continue
                stepped.add(orbit)
            nxt = _successor(canon, state, send, recv)
            succs.setdefault(nxt, nxt)
    return sorted(succs, key=attrgetter("key"))


# ------------- graphs on numbered states -------------

class _Graph:
    """A reduction graph on states numbered 0..n-1: succ[i] the successors of
    state i in key order and barbs[i] its strong barbs."""

    def __init__(self, succ: list[list[int]], barbs: list[frozenset[Barb]]) -> None:
        self.succ = succ
        self.barbs = barbs

    @cached_property
    def divergent(self) -> list[bool]:
        """Whether an infinite run starts at each state."""
        return _divergent(self.succ)

    @cached_property
    def marks(self) -> list[frozenset[int]]:
        """The barbs numbered as negative ints, so that one set can hold
        barbs and block numbers (never negative) apart."""
        ids: dict[Barb, int] = {}
        return [frozenset(~ids.setdefault(b, len(ids)) for b in bs) for bs in self.barbs]


def _components(succ: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """The strongly connected components of the graph on 0..n-1 with
    successor lists succ, and the component of each node.  Components come
    sinks first: each one after every component it reaches (iterative
    Tarjan)."""
    n = len(succ)
    order = [-1] * n  # discovery number
    low = [0] * n
    comp_of = [-1] * n
    comps: list[list[int]] = []
    stack: list[int] = []
    found = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = found
        found += 1
        stack.append(root)
        work = [(root, 0)]
        while work:
            u, i = work[-1]
            if i < len(succ[u]):
                work[-1] = (u, i + 1)
                v = succ[u][i]
                if order[v] < 0:
                    order[v] = low[v] = found
                    found += 1
                    stack.append(v)
                    work.append((v, 0))
                elif comp_of[v] < 0 and order[v] < low[u]:  # v is still on the stack
                    low[u] = order[v]
                continue
            work.pop()
            if work and low[u] < low[work[-1][0]]:
                low[work[-1][0]] = low[u]
            if low[u] == order[u]:
                members = []
                while True:
                    w = stack.pop()
                    comp_of[w] = len(comps)
                    members.append(w)
                    if w == u:
                        break
                comps.append(members)
    return comps, comp_of


def _divergent(succ: list[list[int]],
               components: tuple[list[list[int]], list[int]] | None = None) -> list[bool]:
    """Whether an infinite run starts at each node: whether it reaches a
    cycle.  components are those of succ, when already known."""
    comps, comp_of = components or _components(succ)
    div: list[bool] = []
    for c, members in enumerate(comps):
        div.append(len(members) > 1 or any(comp_of[v] == c or div[comp_of[v]]
                                           for u in members for v in succ[u]))
    return [div[c] for c in comp_of]


def _gather(succ: list[list[int]], own: list[frozenset],
            components: tuple[list[list[int]], list[int]] | None = None) -> list[frozenset]:
    """For each node, the union of own over every node it reaches, itself
    included; nodes of one component share one set."""
    comps, comp_of = components or _components(succ)
    acc: list[frozenset] = []
    for c, members in enumerate(comps):
        s: set = set()
        for u in members:
            s |= own[u]
            for v in succ[u]:
                if comp_of[v] != c:
                    s |= acc[comp_of[v]]
        acc.append(frozenset(s))
    return [acc[c] for c in comp_of]


# ------------- exploration -------------

class ReductionGraph:
    """The states explore admitted, numbered in discovery order, with the
    successors and strong barbs of each.  The numbered graph is what explore
    builds; the dicts by state key and the divergent states are computed on
    first read."""

    def __init__(self, nodes: list[PiState], index: dict[PiState, int], graph: _Graph,
                 expanded: list[int], complete: bool) -> None:
        self.root: tuple = nodes[0].key
        self.complete = complete
        self._nodes = nodes  # the admitted states, by number
        self._index = index  # the number of each state
        self._graph = graph
        self._expanded = expanded  # the states' numbers in the order they were expanded

    def order(self) -> list[tuple]:
        """Stable state order: BFS discovery."""
        return [s.key for s in self._nodes]

    @cached_property
    def states(self) -> dict[tuple, PiState]:
        """Each state by its key, in discovery order."""
        return {s.key: s for s in self._nodes}

    @cached_property
    def edges(self) -> dict[tuple, tuple[tuple, ...]]:
        """The successor keys of each state, in the order of expansion."""
        keys, succ = self.order(), self._graph.succ
        return {keys[i]: tuple([keys[j] for j in succ[i]]) for i in self._expanded}

    @cached_property
    def barbs(self) -> dict[tuple, frozenset[Barb]]:
        """The strong barbs of each state, in discovery order."""
        return dict(zip(self.order(), self._graph.barbs))

    @cached_property
    def divergent(self) -> frozenset:
        """The states where an infinite run starts; none when the graph did
        not close."""
        if not self.complete:
            return frozenset()
        return frozenset([s.key for s, d in zip(self._nodes, self._graph.divergent) if d])


def closed_state(t: PiTerm | PiState, canon: _Canon | None = None) -> PiState:
    """The state t, or the normal form of the term t made by canon (a fresh
    one by default), refused if it has a free process variable: what that
    does is unknown, so no run of it can answer.  A term is checked on the
    scan that normalizing it reads anyway.  A state that closed_state made
    is not checked again; another state's threads are scanned through the
    canon that made it (a fresh one for a state built by hand)."""
    if isinstance(t, PiState):
        canon, parts = t._canon or _Canon(), t.threads
        if t in canon.closed:
            return t
    else:
        canon, parts = canon or _Canon(), [t]
    pvs = set().union(*(canon.scans[p].pvars for p in parts))
    if pvs:
        raise PiError(f"cannot explore a process with free process variables: {sorted(pvs)}")
    if isinstance(t, PiState):
        return t
    root = canon.state([], [t])
    canon.closed.add(root)
    return root


def _bfs(root: PiState, budget: int, input_barbs: bool) -> Generator[
        tuple[PiState, frozenset[Barb]], None,
        tuple[list[PiState], dict[PiState, int], list[list[int]], list[int], bool]]:
    """The breadth-first search of explore, one admitted state at a time.

    Yields each state as it is admitted, with its strong barbs: the root,
    then each frontier's new successors, the frontier expanded in key order,
    until budget states are admitted.  reduce_once steps each state with the
    canon that made it, so the root's canon (see closed_state) makes every
    successor, and a thread met again is neither renormalized nor rekeyed,
    nor walked again for its offers and barbs.  Each state is numbered as it
    is admitted.  Returns the admitted states by number, the number of each
    state, the successor numbers of each state, the states' numbers in the
    order they were expanded, and whether no successor was left out for the
    budget."""
    if budget < 1:
        raise PiError("budget must be >= 1")
    nodes = [root]
    index = {root: 0}
    succ: list[list[int]] = [[]]
    expanded: list[int] = []
    yield root, strong_barbs(root, input_barbs)
    frontier = [(root.key, 0)]
    complete = True
    while frontier:
        nxt: list[tuple[tuple, int]] = []
        for _, i in sorted(frontier, key=itemgetter(0)):
            expanded.append(i)
            out = succ[i]
            for s in reduce_once(nodes[i]):  # sorted, once each
                n = len(nodes)
                j = index.setdefault(s, n)
                if j == n:
                    if n >= budget:
                        del index[s]
                        complete = False
                        continue
                    nodes.append(s)
                    succ.append([])
                    yield s, strong_barbs(s, input_barbs)
                    nxt.append((s.key, j))
                out.append(j)
        frontier = nxt
    return nodes, index, succ, expanded, complete


def explore(t: PiTerm | PiState, budget: int, input_barbs: bool = False) -> ReductionGraph:
    """The reduction graph of t, breadth first with each frontier in key
    order, up to budget states (see _bfs), made by the canon of the root:
    the canon that made the state t, or a fresh one.  t must be closed (see
    closed_state)."""
    search = _bfs(closed_state(t), budget, input_barbs)
    barbs: list[frozenset[Barb]] = []
    try:
        while True:
            barbs.append(next(search)[1])
    except StopIteration as end:
        nodes, index, succ, expanded, complete = end.value
    return ReductionGraph(nodes, index, _Graph(succ, barbs), expanded, complete)


# ------------- independent groups -------------

def _groups(state: PiState) -> list[PiState] | None:
    """The state as a parallel composition of groups that can never
    interact, each group's state made by the canon that made state, in the
    order of their first threads; None when state has fewer than two top-level
    threads or they form one group, or no canon made it.

    A group is a set of top-level threads with the top-level restrictions
    they hold.  Threads that share a restricted name are in one group, and
    so are two threads when a name that one may output on is a name the
    other may input on.  Which names those are is a least fixed point over
    the names that may travel on each channel (Bodei, Degano, Nielson and
    Nielson, Control flow analysis for the π-calculus, 1998).  A name is a
    free name or top-level restriction of state, or one restriction under
    a prefix per top-level thread and spelling, which every replication copy
    shares; an input parameter, per top-level thread and spelling, stands for
    every name it may receive.  So the names a thread's descendants ever use
    as subjects are among its own, and two groups never meet on a channel:
    the state's graph is the product of the groups' graphs, a state's strong
    barbs the union of its groups'.  A name that is sent but never used as a
    subject, like a in ``c!a | c(y).d!y``, joins nothing."""
    threads = state.threads
    if len(threads) < 2 or state._canon is None:  # a state built by hand
        return None
    canon = state._canon
    top = set(state.restricted)
    # every output as (thread, its subjects, its objects) and every input as
    # (thread, its subjects, what its parameter may receive), each a set of
    # names: a free name or top-level restriction is itself, a restriction
    # under a prefix a (thread, spelling) pair, and the names a parameter may
    # receive one set per thread and spelling, filled in below
    outs: list[tuple[int, set, set]] = []
    ins: list[tuple[int, set, set]] = []
    params: dict[tuple[int, str], set] = {}
    fns: list[set[str]] = []  # the free names of each thread
    for i, th in enumerate(threads):
        free: set[str] = set()
        fns.append(free)
        stack: list[tuple[PiTerm, dict[str, set]]] = [(th, {})]
        while stack:
            t, env = stack.pop()
            cls = type(t)
            if cls is Out or cls is In:
                xs = env.get(t.chan)
                if xs is None:
                    free.add(t.chan)
                    xs = {t.chan}
                if cls is Out:
                    ys = env.get(t.msg)
                    if ys is None:
                        free.add(t.msg)
                        ys = {t.msg}
                    outs.append((i, xs, ys))
                    stack.append((t.cont, env))
                else:
                    zs = params.setdefault((i, t.param), set())
                    ins.append((i, xs, zs))
                    stack.append((t.cont, {**env, t.param: zs}))
            elif cls is Res:
                stack.append((t.body, {**env, t.name: {(i, t.name)}}))
            elif cls is Par:
                stack.append((t.right, env))
                stack.append((t.left, env))
            elif cls is Repl:
                stack.append((t.body, env))
    travel: dict = {}  # the names that may travel on each name
    changed = True
    while changed:
        changed = False
        for _, xs, ys in outs:
            for c in xs:
                have = travel.get(c)
                if have is None:
                    travel[c] = set(ys)
                    changed = True
                elif not have >= ys:
                    have |= ys
                    changed = True
        for _, xs, zs in ins:
            for c in list(xs):  # xs may be zs
                more = travel.get(c)
                if more and not zs >= more:
                    zs |= more
                    changed = True
    # a name both output and input on links every thread that uses it so
    senders: dict = {}
    receivers: dict = {}
    for side, uses in ((senders, outs), (receivers, ins)):
        for i, xs, _ in uses:
            for c in xs:
                side.setdefault(c, set()).add(i)
    held = [top.intersection(fn) for fn in fns]
    links = list(state.restricted)
    for c, ts in senders.items():
        if c in receivers:
            if c not in top:
                links.append(c)
            for i in ts | receivers[c]:
                held[i].add(c)
    comps, outside = _linked(links, held)
    if len(comps) + len(outside) < 2:
        return None
    # each group's state, as state() would make it of the group's threads;
    # the root has no free process variable, nor has any group
    out = []
    for names, tids in sorted(comps + [([], [i]) for i in outside], key=lambda c: c[1][0]):
        ths = [threads[i] for i in tids]
        nus = [n for n in names if n in top]
        key, order, perm = canon.level(nus, ths, [fns[i] for i in tids], {}, 0)
        group = PiState(tuple(order), tuple([ths[i] for i in perm]), key, canon,
                        _symmetric(key[1]))
        canon.closed.add(group)
        out.append(group)
    return out


def _closed(root: PiState, budget: int,
            input_barbs: bool) -> dict[PiState, ReductionGraph] | None:
    """The graph of each group of root (see _groups), explored once, when
    each closes and the product of their sizes is at most budget, so that
    the graph of the whole closes within budget too; None otherwise, and
    empty when root has no groups.  A group is explored within budget over
    the product of the sizes before it, the most states it may have for the
    product to stay within budget, so a group that cannot fit stops there."""
    graphs: dict[PiState, ReductionGraph] = {}
    size = 1
    for s in _groups(root) or ():
        g = graphs.get(s)
        if g is None:
            g = graphs[s] = explore(s, budget // size, input_barbs)
        size *= len(g._nodes)  # a group met before may exceed its share here
        if not g.complete or size > budget:
            return None
    return graphs


def weak_barb(t: PiTerm, barb: Barb, budget: int) -> str:
    """'yes' | 'no' | 'inconclusive' for reachability of the barb.  t must
    be closed (see closed_state).

    When the root does not show the barb but splits into groups that never
    interact (see _groups), whose graphs all close with a product of sizes
    at most budget (see _closed), the search of the whole would close too,
    and some state of it shows the barb exactly when some group's graph has
    a state that does.  Otherwise the search of explore runs, and stops at
    the first admitted state that shows the barb; only a search that admits
    no such state is run to its end."""
    root = closed_state(t)
    input_barbs = barb.kind == "in"
    if budget >= 1 and barb not in strong_barbs(root, input_barbs):
        graphs = _closed(root, budget, input_barbs)
        if graphs:
            shown = any(barb in bs for g in graphs.values() for bs in g._graph.barbs)
            return "yes" if shown else "no"
    search = _bfs(root, budget, input_barbs)
    try:
        while True:
            if barb in next(search)[1]:
                return "yes"
    except StopIteration as end:
        return "no" if end.value[-1] else "inconclusive"


# ------------- barbed bisimilarities -------------

BISIM_KINDS = ("strong-barbed", "weak-barbed", "branching-barbed",
               "dp-branching-barbed", "wdp-branching-barbed")
_UNCLOSED = "state budget exhausted before both graphs closed"


def _refinement(g: _Graph, kind: str) -> Iterator[list[int]]:
    """The partitions of signature refinement for kind, as block numbers per
    state: first the partition with one block, then the partition of each
    round, ending with the coarsest stable one.  A round splits each block by
    the signature of its states under the previous partition:

    * strong: the barbs, and the blocks of the successors;
    * weak: the barbs and the blocks of every state reachable in any number of
      steps (the weak closure);
    * branching: the barbs and the exit blocks (blocks other than its own
      that a step enters) of every state reachable by inert steps, steps that
      stay inside the block;
    * dp-branching: branching, and whether an infinite run of inert steps
      starts at the state;
    * wdp-branching: branching, and whether any infinite run starts at the
      state, which is the same as splitting the first partition by it.

    The inert steps and the weak closure are gathered once per round over
    their strongly connected components.
    """
    n = len(g.succ)
    succ, marks = g.succ, g.marks
    everything = _components(succ) if kind == "weak-barbed" else None
    block = [0] * n
    blocks = 1
    yield block
    while True:
        if kind == "strong-barbed":
            sig: list = [(marks[u], frozenset([block[v] for v in succ[u]])) for u in range(n)]
        elif kind == "weak-barbed":
            sig = _gather(succ, [marks[u] | {block[u]} for u in range(n)], everything)
        else:
            inert = [[v for v in succ[u] if block[v] == block[u]] for u in range(n)]
            exits = [marks[u].union([block[v] for v in succ[u] if block[v] != block[u]])
                     for u in range(n)]
            comps = _components(inert)
            sig = _gather(inert, exits, comps)
            if kind == "dp-branching-barbed":
                sig = list(zip(sig, _divergent(inert, comps)))
            elif kind == "wdp-branching-barbed":
                sig = list(zip(sig, g.divergent))
        ids: dict = {}
        block = [ids.setdefault(key, len(ids)) for key in zip(block, sig)]
        if len(ids) == blocks:
            return
        blocks = len(ids)
        yield block


def _violation(g: _Graph, kind: str, u: int, v: int, related: Callable[[int, int], bool],
               show: Callable[[int], str]) -> str | None:
    """How u escapes v under the relation related, or None.  Each check asks
    that some related state exist, so a difference found under a relation
    also holds under every smaller one."""
    succ, barbs = g.succ, g.barbs
    if kind == "strong-barbed":
        for w in sorted(barbs[u]):
            if w not in barbs[v]:
                return f"barb {w} of {show(u)} not matched by {show(v)}"
        for u2 in succ[u]:
            if not any(related(u2, v2) for v2 in succ[v]):
                return f"step {show(u)} -> {show(u2)} not matched by {show(v)}"
        return None
    weak = {v}
    stack = [v]
    while stack:
        for v2 in succ[stack.pop()]:
            if v2 not in weak:
                weak.add(v2)
                stack.append(v2)
    if kind == "weak-barbed":
        for w in sorted(barbs[u]):
            if not any(w in barbs[v2] for v2 in weak):
                return f"barb {w} of {show(u)} not weakly matched by {show(v)}"
        for u2 in succ[u]:
            if not any(related(u2, v2) for v2 in weak):
                return f"step {show(u)} -> {show(u2)} not weakly matched by {show(v)}"
        return None
    # branching family: v may first move through states related to u
    stay = [vd for vd in weak if related(u, vd)]
    for w in sorted(barbs[u]):
        if not any(w in barbs[vd] for vd in stay):
            return (f"barb {w} of {show(u)} not matched through "
                    f"related intermediate states of {show(v)}")
    for u2 in succ[u]:
        if not any(related(u2, vd) or any(related(u2, v2) for v2 in succ[vd]) for vd in stay):
            return (f"step {show(u)} -> {show(u2)} "
                    f"violates the branching condition against {show(v)}")
    if kind == "dp-branching-barbed":
        # an infinite run from u that never meets a state related to a
        # successor of v
        rescued = [any(related(s, v2) for v2 in succ[v]) for s in range(len(succ))]
        if not rescued[u]:
            avoiding = [[y for y in ys if not rescued[y]] for ys in succ]
            if _divergent(avoiding)[u]:
                return f"divergence from {show(u)} cannot be tracked by {show(v)}"
    if kind == "wdp-branching-barbed":
        if g.divergent[u] and not g.divergent[v]:
            return f"{show(u)} diverges but {show(v)} does not"
    return None


def _union(g1: ReductionGraph, g2: ReductionGraph) -> tuple[_Graph, list[PiState], int]:
    """The union of two closed graphs: g1's states numbered as in g1, then
    g2's other states in g2's order, a state both hold shown as g2 shows it;
    and the number of g2's root.  A state both hold has one successor list,
    since its successors' keys depend on its key alone."""
    nodes = list(g1._nodes)
    succ, barbs = list(g1._graph.succ), list(g1._graph.barbs)
    at: list[int] = []  # the union's number of each state of g2
    for s in g2._nodes:
        i = g1._index.get(s)
        if i is None:
            i = len(nodes)
            nodes.append(s)
        else:
            nodes[i] = s
        at.append(i)
    for i, out in enumerate(g2._graph.succ):
        if at[i] >= len(g1._nodes):
            succ.append([at[j] for j in out])
            barbs.append(g2._graph.barbs[i])
    return _Graph(succ, barbs), nodes, at[0]


def bisim(p: PiTerm, q: PiTerm, kind: str, budget: int,
          input_barbs: bool = False) -> Verdict:
    """Decide whether p and q are bisimilar of the given kind.

    p and q must be closed (see closed_state).  One canon makes both roots,
    so the second graph reuses the first one's memos.

    When p and q have one normal form, they are bisimilar, and the verdict
    is "yes" if its graph closes within the state budget and inconclusive
    otherwise.  Where its root splits into groups that never interact (see
    _groups), whose graphs all close with a product of sizes at most budget
    (see _closed), the graph of the whole would close too, and it is not
    built.  It may close where the groups do not, since its states are
    multisets and alike groups share them, so otherwise it is explored.
    Every other verdict comes from the two graphs, as follows.
    Both are explored within the state budget; if either does not close,
    the verdict is inconclusive.  On the union of the two numbered graphs
    (see _union), _refinement splits blocks by the kind's signature until
    the partition is stable; the roots are bisimilar iff they end in one
    block.
    Divergence (some infinite run, or for dp-branching an infinite run of
    inert steps) comes from one pass of Tarjan's strongly connected
    components, made only for the kinds that read it.

    A "not" verdict stops at the round that separates the roots.  Its reason
    is the first failure of the bisimulation conditions (see _violation) for
    the roots, in key order and then the other way round, with the states of
    one block of the partition that round refined taken as related.  Where
    that partition shows no failure yet, the partitions after it are tried
    in turn, with the roots taken as related too: what would fail if they
    were.  The stable partition always shows one, because the bisimilarity
    is the largest relation with no failure.
    """
    if kind not in BISIM_KINDS:
        raise PiError(f"unknown bisimilarity kind {kind!r}")
    canon = _Canon()
    root1 = closed_state(p, canon)
    root2 = root1 if q is p else closed_state(q, canon)  # one node: terms are interned
    if root1 == root2:  # one graph, bisimilar to itself once it closes
        closes = budget >= 1 and _closed(root1, budget, input_barbs)
        if closes or explore(root1, budget, input_barbs).complete:
            return Verdict("yes")
        return Verdict("inconclusive", note=_UNCLOSED)
    g1 = explore(root1, budget, input_barbs)
    g2 = explore(root2, budget, input_barbs)
    if not (g1.complete and g2.complete):
        return Verdict("inconclusive", note=_UNCLOSED)
    g, nodes, r2 = _union(g1, g2)
    a, b = (0, r2) if _key_below(g1.root, g2.root) else (r2, 0)
    rounds = _refinement(g, kind)
    before = next(rounds)
    for block in rounds:
        if block[a] != block[b]:
            break
        before = block
    else:
        return Verdict("yes")

    def show(i: int) -> str:
        return print_state(nodes[i])

    for part in chain((before, block), rounds):
        def related(x: int, y: int) -> bool:
            return part[x] == part[y] or (x, y) in ((a, b), (b, a))

        msg = _violation(g, kind, a, b, related, show) or _violation(g, kind, b, a, related, show)
        if msg:
            return Verdict("no", note=msg)
    return Verdict("no", note="root states distinguished")
