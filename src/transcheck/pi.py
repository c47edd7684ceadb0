"""Pi-calculus workbench: syntax, reduction semantics, barbs, bisimilarities.

Processes are the fragment without matching, tau or choice; replication is
kept in place and unfolded lazily during reduction.  External barbs @w are
observer constants whose ids live outside the name discipline: they are never
bound, substituted, or restricted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple


class PiError(Exception):
    """Syntax or usage error in the process workbench."""


# ------------- syntax -------------

@dataclass(frozen=True)
class Nil:
    pass


@dataclass(frozen=True)
class Out:
    chan: str
    msg: str
    cont: "PiTerm"


@dataclass(frozen=True)
class In:
    chan: str
    param: str
    cont: "PiTerm"


@dataclass(frozen=True)
class Par:
    left: "PiTerm"
    right: "PiTerm"


@dataclass(frozen=True)
class Res:
    name: str
    body: "PiTerm"


@dataclass(frozen=True)
class Repl:
    body: "PiTerm"


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class ExtBarb:
    ident: str


PiTerm = Nil | Out | In | Par | Res | Repl | PVar | ExtBarb


def free_names(t: PiTerm) -> set[str]:
    match t:
        case Nil() | PVar(_) | ExtBarb(_):
            return set()
        case Out(x, y, k):
            return {x, y} | free_names(k)
        case In(x, z, k):
            return {x} | (free_names(k) - {z})
        case Par(l, r):
            return free_names(l) | free_names(r)
        case Res(n, b):
            return free_names(b) - {n}
        case Repl(b):
            return free_names(b)
    raise PiError(f"not a process: {t!r}")


def all_names(t: PiTerm) -> set[str]:
    """Every name occurring anywhere, bound or free (barb ids included)."""
    match t:
        case Nil() | PVar(_):
            return set()
        case ExtBarb(w):
            return {w}
        case Out(x, y, k):
            return {x, y} | all_names(k)
        case In(x, z, k):
            return {x, z} | all_names(k)
        case Par(l, r):
            return all_names(l) | all_names(r)
        case Res(n, b):
            return {n} | all_names(b)
        case Repl(b):
            return all_names(b)
    raise PiError(f"not a process: {t!r}")


def process_vars(t: PiTerm) -> set[str]:
    match t:
        case PVar(x):
            return {x}
        case Out(_, _, k) | In(_, _, k) | Res(_, k) | Repl(k):
            return process_vars(k)
        case Par(l, r):
            return process_vars(l) | process_vars(r)
        case _:
            return set()


def is_async(t: PiTerm) -> bool:
    """Asynchronous sublanguage membership: every output continuation is 0."""
    match t:
        case Out(_, _, k):
            return isinstance(k, Nil)
        case In(_, _, k) | Res(_, k) | Repl(k):
            return is_async(k)
        case Par(l, r):
            return is_async(l) and is_async(r)
        case _:
            return True


def _fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    for i in count(2):
        cand = f"{base}{i}"
        if cand not in taken:
            return cand
    raise AssertionError


def subst_names(t: PiTerm, mapping: dict[str, str]) -> PiTerm:
    """Capture-avoiding renaming of free name occurrences (barb ids untouched)."""
    live = {a: b for a, b in mapping.items() if a != b}
    if not live:
        return t
    match t:
        case Nil() | PVar(_) | ExtBarb(_):
            return t
        case Out(x, y, k):
            return Out(live.get(x, x), live.get(y, y), subst_names(k, live))
        case In(x, z, k):
            chan = live.get(x, x)
            inner = {a: b for a, b in live.items() if a != z}
            if z in inner.values():
                z2 = _fresh_name(z, all_names(k) | set(inner) | set(inner.values()))
                k = subst_names(k, {z: z2})
                z = z2
            return In(chan, z, subst_names(k, inner))
        case Res(n, b):
            inner = {a: b for a, b in live.items() if a != n}
            if n in inner.values():
                n2 = _fresh_name(n, all_names(b) | set(inner) | set(inner.values()))
                b = subst_names(b, {n: n2})
                n = n2
            return Res(n, subst_names(b, inner))
        case Par(l, r):
            return Par(subst_names(l, live), subst_names(r, live))
        case Repl(b):
            return Repl(subst_names(b, live))
    raise PiError(f"not a process: {t!r}")


def alpha_key(t: PiTerm) -> tuple:
    """Structure key invariant exactly under renaming of bound names."""
    def go(u: PiTerm, env: dict[str, int], depth: int) -> tuple:
        def tok(n: str):
            return env[n] if n in env else f"f:{n}"

        match u:
            case Nil():
                return ("nil",)
            case PVar(x):
                return ("pvar", x)
            case ExtBarb(w):
                return ("ext", w)
            case Out(x, y, k):
                return ("out", tok(x), tok(y), go(k, env, depth))
            case In(x, z, k):
                return ("in", tok(x), go(k, {**env, z: depth}, depth + 1))
            case Res(n, b):
                return ("res", go(b, {**env, n: depth}, depth + 1))
            case Par(l, r):
                return ("par", go(l, env, depth), go(r, env, depth))
            case Repl(b):
                return ("repl", go(b, env, depth))
        raise PiError(f"not a process: {u!r}")

    return go(t, {}, 0)


def alpha_eq_pi(a: PiTerm, b: PiTerm) -> bool:
    return alpha_key(a) == alpha_key(b)


# ------------- concrete syntax -------------

_PI_TOKEN = re.compile(
    r"\s*(?:(?P<name>[a-z_][a-zA-Z0-9_]*)|(?P<pvar>[A-Z][a-zA-Z0-9_]*)"
    r"|(?P<zero>0)|(?P<sym>[!().|,@]))")


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
    toks = _tokenize(text)
    idx = 0

    def peek():
        return toks[idx] if idx < len(toks) else ("eof", "", len(text))

    def take(kind, value=None):
        nonlocal idx
        k, v, p = peek()
        if k != kind or (value is not None and v != value):
            want = value or kind
            raise PiError(f"expected {want!r} at position {p}, found {v or 'end of input'!r}")
        idx += 1
        return v

    def name():
        v = take("name")
        if v == "new":
            raise PiError("'new' is a reserved word, not a name")
        if v.startswith("_") and not allow_reserved:
            raise PiError(f"name {v!r} is in the reserved namespace (names starting with _)")
        return v

    def factor() -> PiTerm:
        k, v, p = peek()
        if k == "zero":
            take("zero")
            return Nil()
        if k == "sym" and v == "!":
            take("sym", "!")
            return Repl(factor())
        if k == "sym" and v == "(":
            take("sym", "(")
            t = par()
            take("sym", ")")
            return t
        if k == "sym" and v == "@":
            take("sym", "@")
            return ExtBarb(name())
        if k == "pvar":
            return PVar(take("pvar"))
        if k == "name" and v == "new":
            take("name")
            names = [name()]
            while peek()[:2] == ("sym", ","):
                take("sym", ",")
                names.append(name())
            take("sym", ".")
            body = factor()
            for n in reversed(names):
                body = Res(n, body)
            return body
        if k == "name":
            x = name()
            k2, v2, p2 = peek()
            if k2 == "sym" and v2 == "!":
                take("sym", "!")
                y = name()
                if peek()[:2] == ("sym", "."):
                    take("sym", ".")
                    return Out(x, y, factor())
                return Out(x, y, Nil())
            if k2 == "sym" and v2 == "(":
                take("sym", "(")
                z = name()
                take("sym", ")")
                take("sym", ".")
                return In(x, z, factor())
            raise PiError(f"expected '!' or '(' after name {x!r} at position {p2}")
        raise PiError(f"unexpected {v or 'end of input'!r} at position {p}")

    def par() -> PiTerm:
        t = factor()
        while peek()[:2] == ("sym", "|"):
            take("sym", "|")
            t = Par(t, factor())
        return t

    out = par()
    if idx != len(toks):
        raise PiError(f"trailing input at position {peek()[2]}")
    return out


def print_pi(t: PiTerm) -> str:
    def fac(u: PiTerm) -> str:
        s = go(u)
        return f"({s})" if isinstance(u, Par) else s

    def go(u: PiTerm) -> str:
        match u:
            case Nil():
                return "0"
            case PVar(x):
                return x
            case ExtBarb(w):
                return f"@{w}"
            case Out(x, y, Nil()):
                return f"{x}!{y}"
            case Out(x, y, k):
                return f"{x}!{y}.{fac(k)}"
            case In(x, z, k):
                return f"{x}({z}).{fac(k)}"
            case Repl(b):
                return f"!{fac(b)}"
            case Res(_, _):
                names = []
                while isinstance(u, Res):
                    names.append(u.name)
                    u = u.body
                return f"new {', '.join(names)}. {fac(u)}"
            case Par(l, r):
                return f"{go(l)} | {fac(r)}"
        raise PiError(f"not a process: {u!r}")

    return go(t)


# ------------- canonical states -------------

@dataclass(frozen=True, eq=False)
class PiState:
    """Structural-congruence normal form (see normal_form): restrictions
    lifted to the top, parallel threads flattened, both in the order of the
    canonical key's leaf, and identity by that key.  The key is the minimum,
    over the leaves of the individualization-refinement search on the
    restricted names, of the sorted thread keys."""
    restricted: tuple[str, ...]
    threads: tuple[PiTerm, ...]
    key: tuple

    def __eq__(self, other) -> bool:
        return isinstance(other, PiState) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def term(self) -> PiTerm:
        return _assemble(self.restricted, self.threads)


def print_state(s: PiState) -> str:
    return print_pi(s.term())


def _uniquify(t: PiTerm) -> PiTerm:
    """Rename restriction binders so that lifting them over siblings is
    capture-free: a binder keeps its spelling unless that spelling also occurs
    free, as an input parameter, or on another restriction."""
    params: set[str] = set()
    res_count: dict[str, int] = {}
    avoid: set[str] = set()  # every name, as all_names(t)
    free: set[str] = set()  # as free_names(t)

    def scan(u: PiTerm, bound: frozenset[str]) -> None:
        match u:
            case Out(x, y, k):
                avoid.update((x, y))
                if x not in bound:
                    free.add(x)
                if y not in bound:
                    free.add(y)
                scan(k, bound)
            case In(x, z, k):
                params.add(z)
                avoid.update((x, z))
                if x not in bound:
                    free.add(x)
                scan(k, bound | {z})
            case Res(n, b):
                res_count[n] = res_count.get(n, 0) + 1
                avoid.add(n)
                scan(b, bound | {n})
            case Par(l, r):
                scan(l, bound)
                scan(r, bound)
            case Repl(b):
                scan(b, bound)
            case ExtBarb(w):
                avoid.add(w)

    scan(t, frozenset())
    clash = free | params | {n for n, c in res_count.items() if c > 1}
    if clash.isdisjoint(res_count):
        return t  # every binder keeps its spelling

    def go(u: PiTerm, ren: dict[str, str]) -> PiTerm:
        match u:
            case Nil() | PVar(_) | ExtBarb(_):
                return u
            case Out(x, y, k):
                return Out(ren.get(x, x), ren.get(y, y), go(k, ren))
            case In(x, z, k):
                inner = {a: b for a, b in ren.items() if a != z}
                return In(ren.get(x, x), z, go(k, inner))
            case Res(n, b):
                m = n if n not in clash else _fresh_name(n, avoid)
                clash.add(m)
                avoid.add(m)
                return Res(m, go(b, {**ren, n: m}))
            case Par(l, r):
                return Par(go(l, ren), go(r, ren))
            case Repl(b):
                return Repl(go(b, ren))
        raise PiError(f"not a process: {u!r}")

    return go(t, {})


def _split_level(t: PiTerm) -> tuple[list[str], list[PiTerm]]:
    """Unwrap leading restrictions and flatten the parallel spine."""
    nus: list[str] = []
    while isinstance(t, Res):
        nus.append(t.name)
        t = t.body
    threads: list[PiTerm] = []

    def spine(u: PiTerm) -> None:
        match u:
            case Nil():
                pass
            case Par(l, r):
                spine(l)
                spine(r)
            case Res(n, b):
                nus.append(n)
                spine(b)
            case _:
                threads.append(u)

    spine(t)
    return nus, threads


class _Level(NamedTuple):
    """A normalized continuation: its term, its restrictions and threads,
    each thread's free names, and the level's own free names."""
    term: PiTerm
    nus: list[str]
    threads: list[PiTerm]
    fns: list[frozenset[str]]
    free: frozenset[str]


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


class _Canon:
    """Normalization and canonical keys for one normal_form call.

    A level is the restricted names and the parallel threads directly under a
    prefix (or at the top).  Its key is ``(len(nus), sorted thread keys)`` with
    the restricted names spelled ``r{depth}.{i}``; input parameters are spelled
    ``p{depth}`` and free names ``f:{name}``.  Levels are memoized by the id of
    their term, and each memo entry holds that term, so the id cannot be
    reused while the memo lives.
    """

    def __init__(self) -> None:
        self._levels: dict[int, _Level] = {}
        self._conts: dict[tuple, tuple] = {}

    def gather(self, t: PiTerm) -> tuple[list[str], list[PiTerm], list[frozenset[str]]]:
        """The used restrictions, normalized threads and their free names of
        the level at t."""
        nus, raw = _split_level(t)
        parts = [self.renorm_thread(th) for th in raw]
        used = frozenset().union(*(fn for _, fn in parts))
        return [n for n in nus if n in used], [th for th, _ in parts], [fn for _, fn in parts]

    def renorm(self, t: PiTerm) -> _Level:
        """Normalize a continuation: drop unused restrictions and order
        restrictions and threads canonically."""
        if isinstance(t, Nil):
            return _EMPTY
        nus, threads, fns = self.gather(t)
        if len(nus) > 1 or len(threads) > 1:
            _, nus, perm = self.level(nus, threads, fns, {}, 0)
            threads = [threads[i] for i in perm]
            fns = [fns[i] for i in perm]
        core = _assemble(nus, threads)
        free = frozenset().union(*fns) - set(nus)
        lv = self._levels[id(core)] = _Level(core, nus, threads, fns, free)
        return lv

    def renorm_thread(self, t: PiTerm) -> tuple[PiTerm, frozenset[str]]:
        """The thread with normalized continuations, and its free names."""
        match t:
            case Out(x, y, k):
                lv = self.renorm(k)
                return Out(x, y, lv.term), lv.free | {x, y}
            case In(x, z, k):
                lv = self.renorm(k)
                return In(x, z, lv.term), (lv.free - {z}) | {x}
            case Repl(b):
                lv = self.renorm(b)
                return Repl(lv.term), lv.free
            case _:
                return t, frozenset()

    def thread(self, t: PiTerm, env: dict[str, str], depth: int) -> tuple:
        match t:
            case Out(x, y, k):
                return ("out", env.get(x) or f"f:{x}", env.get(y) or f"f:{y}",
                        self.cont(k, env, depth))
            case In(x, z, k):
                return ("in", env.get(x) or f"f:{x}",
                        self.cont(k, {**env, z: f"p{depth}"}, depth + 1))
            case Repl(b):
                return ("repl", self.cont(b, env, depth))
            case PVar(x):
                return ("pvar", x)
            case ExtBarb(w):
                return ("ext", w)
        raise PiError(f"not a sequential thread: {t!r}")

    def cont(self, t: PiTerm, env: dict[str, str], depth: int) -> tuple:
        """Key of a normalized continuation.  It depends on env only through
        the tokens of the level's free names, which key the memo."""
        if isinstance(t, Nil):
            return (0, ())
        lv = self._levels[id(t)]
        memo_key = (id(t), depth, tuple(map(env.get, lv.free)))
        key = self._conts.get(memo_key)
        if key is None:
            key = self._conts[memo_key] = self.level(lv.nus, lv.threads, lv.fns, env, depth)[0]
        return key

    def level(self, nus: list[str], threads: list[PiTerm], fns: list[frozenset[str]],
              env: dict[str, str], depth: int) -> tuple[tuple, list[str], list[int]]:
        """The level's key, and the restriction order and thread order
        (indices into threads) that realize it."""
        if len(nus) > 1:
            keys, order, perm = _Search(self, nus, threads, fns, env, depth).best()
            return (len(nus), keys), order, perm
        env2 = {**env, nus[0]: f"r{depth}.0"} if nus else env
        keyed = sorted((self.thread(th, env2, depth + 1), i) for i, th in enumerate(threads))
        return (len(nus), tuple(k for k, _ in keyed)), list(nus), [i for _, i in keyed]


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
                    tokens = dict(colour)
                    tokens[n] = f"s{self.depth}"
                    sig = tuple(sorted(self.key(i, tokens) for i in self.occurs[n]))
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
        # the open path: frames[k] = [cells, path of k names, target cell, next child, tried]
        frames = [[root, (), _first_cell(root), 0, []]]
        while frames:
            cells, path, t, nxt, tried = frame = frames[-1]
            if nxt == len(cells[t]):
                frames.pop()
                continue
            frame[3] += 1
            w = cells[t][nxt]
            if tried and _same_orbit(w, tried, path, autos):
                continue
            tried.append(w)
            child = self.refine(
                cells[:t] + [[w], [v for v in cells[t] if v != w]] + cells[t + 1:])
            here = path + (w,)
            if len(child) < n:
                frames.append([child, here, _first_cell(child), 0, []])
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


def _first_cell(cells: list[list[str]]) -> int:
    return next(i for i, cell in enumerate(cells) if len(cell) > 1)


def _same_orbit(w: str, tried: list[str], path: tuple[str, ...],
                autos: list[dict[str, str]]) -> bool:
    """Whether some automorphism fixing path maps a tried name to w, in the
    group generated by the automorphisms found so far that fix path."""
    parent: dict[str, str] = {}

    def find(n: str) -> str:
        while parent.get(n, n) != n:
            n = parent[n]
        return n

    for g in autos:
        if all(g[v] == v for v in path):
            for a, b in g.items():
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    root = find(w)
    return any(find(u) == root for u in tried)


def normal_form(t: PiTerm) -> PiState:
    """Structural-congruence normal form of t.

    Restriction binders are renamed apart and lifted to the top of each
    level, the parallel spine is flattened, unused restrictions are dropped,
    and every continuation is normalized the same way.  The key is the
    minimum thread-key list over the leaves of an individualization-refinement
    search on each level's restricted names (see _Search).  The leaf set does
    not depend on how the names are spelled, so two terms get equal keys
    exactly when they are structurally congruent up to renaming of bound
    names.  A level with at most one restricted name has a single leaf.
    """
    canon = _Canon()
    nus, threads, fns = canon.gather(_uniquify(t))
    key, order, perm = canon.level(nus, threads, fns, {}, 0)
    return PiState(tuple(order), tuple(threads[i] for i in perm), key)


# ------------- barbs -------------

@dataclass(frozen=True, order=True)
class Barb:
    kind: str  # "out" | "in" | "ext"
    name: str

    def __str__(self) -> str:
        if self.kind == "out":
            return f"{self.name}!"
        if self.kind == "in":
            return f"{self.name}("
        return f"@{self.name}"


def barb_from_text(s: str) -> Barb:
    s = s.strip()
    if s.startswith("@"):
        return Barb("ext", s[1:])
    if s.endswith("!"):
        return Barb("out", s[:-1])
    if s.endswith("(") or s.endswith("?"):
        return Barb("in", s[:-1])
    if not s:
        raise PiError("empty barb")
    return Barb("out", s)


def _barbs_walk(t: PiTerm, hidden: frozenset[str], acc: set[Barb], inp: bool) -> None:
    match t:
        case Nil() | PVar(_):
            pass
        case ExtBarb(w):
            acc.add(Barb("ext", w))
        case Out(x, _, _):
            if x not in hidden:
                acc.add(Barb("out", x))
        case In(x, _, _):
            if inp and x not in hidden:
                acc.add(Barb("in", x))
        case Par(l, r):
            _barbs_walk(l, hidden, acc, inp)
            _barbs_walk(r, hidden, acc, inp)
        case Res(n, b):
            _barbs_walk(b, hidden | {n}, acc, inp)
        case Repl(b):
            _barbs_walk(b, hidden, acc, inp)


def strong_barbs(s: PiState, input_barbs: bool = False) -> frozenset[Barb]:
    acc: set[Barb] = set()
    hidden = frozenset(s.restricted)
    for th in s.threads:
        _barbs_walk(th, hidden, acc, input_barbs)
    return frozenset(acc)


# ------------- reduction -------------

@dataclass(frozen=True)
class _CopyLevel:
    cid: int
    nus: tuple[str, ...]
    parts: tuple[PiTerm, ...]
    part: int


@dataclass(frozen=True)
class _Offer:
    kind: str              # "send" | "recv"
    chan: str
    msg: str | None
    param: str | None
    cont: PiTerm
    top: int               # top-level thread index
    levels: tuple[_CopyLevel, ...]
    eid: int


def _expand_offers(threads: tuple[PiTerm, ...]) -> list[_Offer]:
    offers: list[_Offer] = []
    cids = count()
    eids = count()

    def go(t: PiTerm, top: int, levels: tuple[_CopyLevel, ...]) -> None:
        match t:
            case Out(x, y, k):
                offers.append(_Offer("send", x, y, None, k, top, levels, next(eids)))
            case In(x, z, k):
                offers.append(_Offer("recv", x, None, z, k, top, levels, next(eids)))
            case Repl(body):
                cid = next(cids)
                nus, parts = _split_level(body)
                for i, p in enumerate(parts):
                    go(p, top, levels + (_CopyLevel(cid, tuple(nus), tuple(parts), i),))
            case _:
                pass

    for i, th in enumerate(threads):
        go(th, i, ())
    return offers


def _successor(state: PiState, send: _Offer, recv: _Offer) -> PiState:
    components: list[PiTerm] = []
    consumed_top = {o.top for o in (send, recv) if not o.levels}
    for i, th in enumerate(state.threads):
        if i not in consumed_top:
            components.append(th)
    # materialize every unfolded copy touched by either offer
    levels: dict[int, tuple[_CopyLevel, set[int]]] = {}
    for o in (send, recv):
        for lv in o.levels:
            info = levels.setdefault(lv.cid, (lv, set()))
            info[1].add(lv.part)
    extra_nus: list[str] = []
    for cid in sorted(levels):
        lv, opened = levels[cid]
        extra_nus.extend(lv.nus)
        for j, p in enumerate(lv.parts):
            if j not in opened:
                components.append(p)
            elif isinstance(p, Repl):
                components.append(p)  # the replication itself persists
    components.append(send.cont)
    components.append(subst_names(recv.cont, {recv.param: send.msg}))
    core: PiTerm = Nil()
    if components:
        core = components[0]
        for c in components[1:]:
            core = Par(core, c)
    for n in reversed(list(state.restricted) + extra_nus):
        core = Res(n, core)
    return normal_form(core)


def reduce_once(state: PiState) -> list[PiState]:
    offers = _expand_offers(state.threads)
    sends = [o for o in offers if o.kind == "send"]
    recvs = [o for o in offers if o.kind == "recv"]
    succs: dict[tuple, PiState] = {}
    for s in sends:
        for r in recvs:
            if s.chan == r.chan and s.eid != r.eid:
                nxt = _successor(state, s, r)
                succs.setdefault(nxt.key, nxt)
    return [succs[k] for k in sorted(succs)]


# ------------- exploration -------------

@dataclass
class ReductionGraph:
    root: tuple
    states: dict[tuple, PiState]
    edges: dict[tuple, tuple[tuple, ...]]
    barbs: dict[tuple, frozenset[Barb]]
    complete: bool
    divergent: frozenset = frozenset()

    def order(self) -> list[tuple]:
        """Stable state order: BFS discovery."""
        return list(self.states)


def explore(t: PiTerm | PiState, budget: int, input_barbs: bool = False) -> ReductionGraph:
    if budget < 1:
        raise PiError("budget must be >= 1")
    root = t if isinstance(t, PiState) else normal_form(t)
    pvs = set()
    for th in root.threads:
        pvs |= process_vars(th)
    if pvs:
        raise PiError(f"cannot explore a process with free process variables: {sorted(pvs)}")
    states = {root.key: root}
    edges: dict[tuple, tuple[tuple, ...]] = {}
    barbs = {root.key: strong_barbs(root, input_barbs)}
    frontier = [root.key]
    complete = True
    while frontier:
        nxt: list[tuple] = []
        for key in sorted(frontier):
            succ_keys = []
            for s in reduce_once(states[key]):
                if s.key not in states:
                    if len(states) >= budget:
                        complete = False
                        continue
                    states[s.key] = s
                    barbs[s.key] = strong_barbs(s, input_barbs)
                    nxt.append(s.key)
                succ_keys.append(s.key)
            edges[key] = tuple(sorted(set(succ_keys)))
        frontier = nxt
    divergent: frozenset = frozenset()
    if complete:
        on_cycle = set()
        for k in states:
            seen: set[tuple] = set()
            stack = list(edges[k])
            while stack:
                u = stack.pop()
                if u == k:
                    on_cycle.add(k)
                    break
                if u in seen:
                    continue
                seen.add(u)
                stack.extend(edges[u])
        div = set(on_cycle)
        changed = True
        while changed:
            changed = False
            for k in states:
                if k not in div and any(u in div for u in edges[k]):
                    div.add(k)
                    changed = True
        divergent = frozenset(div)
    return ReductionGraph(root.key, states, edges, barbs, complete, divergent)


def weak_barb(t: PiTerm, barb: Barb, budget: int) -> str:
    """'yes' | 'no' | 'inconclusive' for reachability of the barb."""
    g = explore(t, budget, input_barbs=barb.kind == "in")
    if any(barb in bs for bs in g.barbs.values()):
        return "yes"
    return "no" if g.complete else "inconclusive"


# ------------- barbed bisimilarities -------------

BISIM_KINDS = ("strong-barbed", "weak-barbed", "branching-barbed",
               "dp-branching-barbed", "wdp-branching-barbed")


@dataclass(frozen=True)
class BisimVerdict:
    result: str  # "bisimilar" | "not" | "inconclusive"
    reason: str | None = None


def _weak_closure(keys: list[tuple], edges: dict) -> dict[tuple, set[tuple]]:
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


def _divergent_keys(keys: list[tuple], edges: dict) -> set[tuple]:
    div = set()
    for k in keys:
        seen: set[tuple] = set()
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


def _has_avoiding_lasso(start: tuple, avoid: set[tuple], edges: dict) -> bool:
    """Infinite reduction run from start that never enters avoid."""
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
    # a cycle exists in the avoid-free reachable subgraph iff some state there
    # can reach itself
    for k in pool:
        seen2: set[tuple] = set()
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


def bisim(p: PiTerm, q: PiTerm, kind: str, budget: int,
          input_barbs: bool = False) -> BisimVerdict:
    if kind not in BISIM_KINDS:
        raise PiError(f"unknown bisimilarity kind {kind!r}")
    g1 = explore(p, budget, input_barbs)
    g2 = explore(q, budget, input_barbs)
    if not (g1.complete and g2.complete):
        return BisimVerdict("inconclusive", "state budget exhausted before both graphs closed")
    states = {**g1.states, **g2.states}
    edges = {**g1.edges, **g2.edges}
    barbs = {**g1.barbs, **g2.barbs}
    keys = sorted(states)
    weak = _weak_closure(keys, edges)
    div = _divergent_keys(keys, edges)

    rel = {(a, b) for a in keys for b in keys if a <= b}

    def related(a: tuple, b: tuple) -> bool:
        return ((a, b) if a <= b else (b, a)) in rel

    def violation(u: tuple, v: tuple) -> str | None:
        su, sv = states[u], states[v]
        if kind == "strong-barbed":
            for w in sorted(barbs[u]):
                if w not in barbs[v]:
                    return f"barb {w} of {print_state(su)} not matched by {print_state(sv)}"
            for u2 in edges[u]:
                if not any(related(u2, v2) for v2 in edges[v]):
                    return (f"step {print_state(su)} -> {print_state(states[u2])} "
                            f"not matched by {print_state(sv)}")
            return None
        if kind == "weak-barbed":
            for w in sorted(barbs[u]):
                if not any(w in barbs[v2] for v2 in weak[v]):
                    return f"barb {w} of {print_state(su)} not weakly matched by {print_state(sv)}"
            for u2 in edges[u]:
                if not any(related(u2, v2) for v2 in weak[v]):
                    return (f"step {print_state(su)} -> {print_state(states[u2])} "
                            f"not weakly matched by {print_state(sv)}")
            return None
        # branching family
        for w in sorted(barbs[u]):
            if not any(related(u, v2) and w in barbs[v2] for v2 in weak[v]):
                return (f"barb {w} of {print_state(su)} not matched through "
                        f"related intermediate states of {print_state(sv)}")
        for u2 in edges[u]:
            ok = False
            for vd in weak[v]:
                if not related(u, vd):
                    continue
                if related(u2, vd) or any(related(u2, v2) for v2 in edges[vd]):
                    ok = True
                    break
            if not ok:
                return (f"step {print_state(su)} -> {print_state(states[u2])} "
                        f"violates the branching condition against {print_state(sv)}")
        if kind == "dp-branching-barbed":
            rescued = {s for s in keys if any(related(s, v2) for v2 in edges[v])}
            if _has_avoiding_lasso(u, rescued, edges):
                return (f"divergence from {print_state(su)} cannot be tracked by "
                        f"{print_state(sv)}")
        if kind == "wdp-branching-barbed":
            if u in div and v not in div:
                return f"{print_state(su)} diverges but {print_state(sv)} does not"
        return None

    reasons: dict[tuple, str] = {}
    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            a, b = pair
            msg = violation(a, b) or violation(b, a)
            if msg:
                rel.discard(pair)
                reasons[pair] = msg
                changed = True

    root_pair = (g1.root, g2.root) if g1.root <= g2.root else (g2.root, g1.root)
    if root_pair in rel:
        return BisimVerdict("bisimilar")
    return BisimVerdict("not", reasons.get(root_pair, "root states distinguished"))
