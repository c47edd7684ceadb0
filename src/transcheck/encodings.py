"""Synchronous-to-asynchronous process encoding and encoding spot-checkers.

The bundled encoding protocols each synchronous output through a private
acknowledgement channel: x!z.P becomes new u. (x!u | u(v).(v!z | P')), and a
receiver x(y).P becomes x(u).new v. (u!v | v(y).P').  It is realized twice,
directly on process terms and as a head map over the process signature, and
the two routes are required to agree up to renaming of bound names.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from typing import Callable

from .finlang import FiniteLanguage, denote
from .pi import (Barb, ExtBarb, In, Nil, Out, Par, PiError, PiTerm, PVar, Repl, Res,
                 all_names, alpha_eq_pi, bisim, free_names, process_vars,
                 weak_barb, _fresh_name, _map_names)
from .terms import (App, Construct, Signature, Term, TermError, Translation,
                    Var, complete_compositional, free_vars, parse_term,
                    translation, _fold)
from .verdict import BISIM_WORDS, Verdict


_RESERVED_PREFIX = "_b"


def boudol_translate(p: PiTerm) -> PiTerm:
    """Protocol translation into the asynchronous sublanguage.

    Auxiliary names are drawn deterministically from the reserved namespace
    _b0, _b1, ... (least unused), skipping any that occur in p, outermost
    first and left to right; T(X) = X and the translation is homomorphic on
    0, |, !, new.
    """
    used, ctr, nil = all_names(p), count(), Nil()

    def fresh() -> str:
        while True:
            n = f"{_RESERVED_PREFIX}{next(ctr)}"
            if n not in used:
                return n

    def visit(t: PiTerm, _):
        match t:
            case Out(x, z, k):
                u, v = fresh(), fresh()
                return (lambda c: Res(u, Par(Out(x, u, nil),
                                             In(u, v, Par(Out(v, z, nil), c))))), ((k, None),)
            case In(x, y, k):
                u, v = fresh(), fresh()
                return (lambda c: In(x, u, Res(v, Par(Out(u, v, nil), In(v, y, c))))), ((k, None),)
            case Nil() | PVar(_) | ExtBarb(_):
                return (lambda: t), ()
            case Par(l, r):
                return Par, ((l, None), (r, None))
            case Res(n, b):
                return partial(Res, n), ((b, None),)
            case Repl(b):
                return Repl, ((b, None),)
        raise PiError(f"not a process: {t!r}")

    return _fold(p, None, visit)


# ------------- the same translation as a head map -------------

PI_TERM_SIG = Signature("pi", (
    Construct("Nil", 0, ()),
    Construct("Out", 3, ((), (), ())),
    Construct("In", 2, ((), ("y",))),
    Construct("Par", 2, ((), ())),
    Construct("Res", 1, (("x",),)),
    Construct("Repl", 1, ((),)),
))

API_TERM_SIG = Signature("api", (
    Construct("Nil", 0, ()),
    Construct("Out", 2, ((), ())),
    Construct("In", 2, ((), ("y",))),
    Construct("Par", 2, ((), ())),
    Construct("Res", 1, (("x",),)),
    Construct("Repl", 1, ((),)),
))


def boudol_head_translation() -> Translation:
    heads = {
        "Nil": App("Nil", (), ()),
        "Out": App("Res", ("u",), (
            App("Par", (), (
                App("Out", (), (Var("X1"), Var("u"))),
                App("In", ("v",), (Var("u"),
                    App("Par", (), (
                        App("Out", (), (Var("v"), Var("X2"))),
                        Var("X3"))))))),)),
        "In": App("In", ("u",), (Var("X1"),
            App("Res", ("v",), (
                App("Par", (), (
                    App("Out", (), (Var("u"), Var("v"))),
                    App("In", ("y",), (Var("v"), Var("X2"))))),)))),
        "Par": App("Par", (), (Var("X1"), Var("X2"))),
        "Res": App("Res", ("x",), (Var("X1"),)),
        "Repl": App("Repl", (), (Var("X1"),)),
    }
    return translation(PI_TERM_SIG, API_TERM_SIG, heads)


def pi_to_term(t: PiTerm) -> Term:
    """Embed a process as a term over the process signature.

    Names and process variables both become term variables; observation
    constants have no term form."""
    def visit(u: PiTerm, _):
        match u:
            case Nil():
                return (lambda: App("Nil", (), ())), ()
            case PVar(x):
                return (lambda: Var(x)), ()
            case ExtBarb(_):
                raise PiError("observation constants have no term-language form")
            case Out(x, y, k):
                return (lambda c: App("Out", (), (Var(x), Var(y), c))), ((k, None),)
            case In(x, z, k):
                return (lambda c: App("In", (z,), (Var(x), c))), ((k, None),)
            case Par(l, r):
                return (lambda a, b: App("Par", (), (a, b))), ((l, None), (r, None))
            case Res(n, b):
                return (lambda c: App("Res", (n,), (c,))), ((b, None),)
            case Repl(b):
                return (lambda c: App("Repl", (), (c,))), ((b, None),)
        raise PiError(f"not a process: {u!r}")

    return _fold(t, None, visit)


def term_to_pi(t: Term) -> PiTerm:
    """Read a process-shaped term back; output arity picks the sublanguage.
    A construct with too few arguments or binders is a PiError."""
    def name_of(u: Term) -> str:
        if not isinstance(u, Var):
            raise PiError(f"name position holds a non-variable term: {u!r}")
        return u.name

    def visit(u: Term, _):
        match u:
            case Var(x):
                if x[:1].isupper():
                    return (lambda: PVar(x)), ()
                raise PiError(f"free lowercase variable {x!r} is not a process")
            case App("Nil", _, _):
                return Nil, ()
            case App("Out", _, (x, y)):
                return partial(Out, name_of(x), name_of(y), Nil()), ()
            case App("Out", _, (x, y, k)):
                return partial(Out, name_of(x), name_of(y)), ((k, None),)
            case App("In", (z, *_), (x, k, *_)):
                return partial(In, name_of(x), z), ((k, None),)
            case App("Par", _, (l, r, *_)):
                return Par, ((l, None), (r, None))
            case App("Res", (n, *_), (b, *_)):
                return partial(Res, n), ((b, None),)
            case App("Repl", _, (b, *_)):
                return Repl, ((b, None),)
        raise PiError(f"not a process-shaped term: {u!r}")

    return _fold(t, None, visit)


class Encoding:
    """A process translation given both directly and by its head map.  The
    fields are not set again."""
    __slots__ = ("name", "translate", "head_map")

    def __init__(self, name: str, translate: Callable[[PiTerm], PiTerm],
                 head_map: Translation) -> None:
        self.name = name
        self.translate = translate
        self.head_map = head_map

    def translate_via_heads(self, p: PiTerm) -> PiTerm:
        return term_to_pi(complete_compositional(self.head_map)(pi_to_term(p)))


def boudol_encoding() -> Encoding:
    return Encoding("boudol", boudol_translate, boudol_head_translation())


def routes_agree(enc: Encoding, probes: list[PiTerm]) -> Verdict:
    """Direct route vs head-map route, compared up to renaming of bound names."""
    for p in probes:
        if not alpha_eq_pi(enc.translate(p), enc.translate_via_heads(p)):
            return Verdict("no", (p,), "translation routes disagree")
    return Verdict("yes", note=f"agree on {len(probes)} probes")


# ------------- plugging contexts -------------

def _subst_pvar(context: PiTerm, var: str, p: PiTerm) -> PiTerm:
    """Replace every occurrence of the process variable var by p, renaming
    context binders off the free names of p so nothing is captured."""
    fnp = free_names(p)
    avoid = set(all_names(context)) | set(fnp)

    def bind(_, z: str, body: PiTerm, ren: dict[str, str]):
        inner = {a: b for a, b in ren.items() if a != z}
        if z in fnp:  # respell z, so that it does not capture a free name of p
            inner[z] = _fresh_name(z, avoid)
            avoid.add(inner[z])
        return inner.get(z, z), body, inner

    return _map_names(context, {}, bind, {PVar(var): p})


def plug(context: PiTerm, p: PiTerm) -> PiTerm:
    """Substitute p for the unique process variable of context."""
    holes = process_vars(context)
    if len(holes) != 1:
        raise PiError(f"context must have exactly one process variable, found {sorted(holes)}")
    (hole,) = holes
    return plug_var(context, hole, p)


class ContextProbe:
    """A one-hole observer: plug a subject in, ask for a weak barb.  The
    fields are not set again."""
    __slots__ = ("context", "subject", "barb")

    def __init__(self, context: PiTerm, subject: PiTerm, barb: Barb) -> None:
        self.context = context
        self.subject = subject
        self.barb = barb

    def plugged(self) -> PiTerm:
        return plug(self.context, self.subject)

    def observe(self, budget: int) -> str:
        return weak_barb(self.plugged(), self.barb, budget)


# ------------- spot checks and reports -------------

class EncodingReport:
    """One (term, verdict) row per term checked, under one kind of
    bisimilarity.  The fields are not set again; rows grows as terms are
    checked."""
    __slots__ = ("kind", "rows")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.rows: list[tuple[PiTerm, Verdict]] = []

    @property
    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(BISIM_WORDS.values(), 0)
        for _, v in self.rows:
            out[BISIM_WORDS[v.status]] += 1
        return out


def check_encoding_pairs(enc: Encoding, terms: list[PiTerm], kind: str,
                         budget: int) -> EncodingReport:
    """For each source term P, compare P against its translation."""
    report = EncodingReport(kind)
    for p in terms:
        report.rows.append((p, bisim(p, enc.translate(p), kind, budget)))
    return report


def pullback_equiv(enc: Encoding, theta: dict[str, PiTerm],
                   target_oracle: Callable[[PiTerm, PiTerm], Verdict],
                   ) -> Callable[[PiTerm, PiTerm], Verdict]:
    """Equivalence on source terms induced by comparing closed translations.

    theta closes over stray process variables of the translations; the
    returned procedure inherits any inconclusiveness of the target oracle."""
    for x, q in theta.items():
        if process_vars(q):
            raise PiError(f"theta({x}) is not closed")

    def close(p: PiTerm) -> PiTerm:
        tp = enc.translate(p)
        stray = process_vars(tp)
        missing = stray - set(theta)
        if missing:
            raise PiError(f"translation left process variables {sorted(missing)} unclosed")
        for x in sorted(stray):
            tp = plug_var(tp, x, theta[x])
        return tp

    def decide(p: PiTerm, q: PiTerm) -> Verdict:
        return target_oracle(close(p), close(q))

    return decide


def plug_var(t: PiTerm, var: str, p: PiTerm) -> PiTerm:
    """plug() for one named process variable among possibly several."""
    if process_vars(p):
        raise PiError(f"cannot plug an open process: free {sorted(process_vars(p))}")
    return _subst_pvar(t, var, p)


def finite_pullback_precondition(lang: FiniteLanguage) -> Verdict:
    """Closed-term language test: the pullback construction needs a language
    interpreted in its own closed terms, so every value must itself be a
    closed term of the language denoting that value."""
    for v in lang.values:
        try:
            t = parse_term(lang.signature, v)
        except TermError:
            t = None
        if t is None or free_vars(lang.signature, t):
            return Verdict("no", (v,), "precondition-violation: value is not a closed term")
        got = denote(lang, t, {})
        if got != v:
            return Verdict("no", (v, got),
                           "precondition-violation: value does not denote itself")
    return Verdict("yes", note="closed-term language")


class FullAbstractionReport:
    """One (p, q, source verdict, target verdict, status) row per pair
    checked.  rows is not set again; it grows as pairs are checked."""
    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: list[tuple[PiTerm, PiTerm, Verdict, Verdict, str]] = []

    @property
    def counterexamples(self) -> list[tuple[PiTerm, PiTerm]]:
        return [(p, q) for p, q, _, _, status in self.rows if status == "fail"]


def full_abstraction_check(translate: Callable[[PiTerm], PiTerm],
                           source_oracle: Callable[[PiTerm, PiTerm], Verdict],
                           target_oracle: Callable[[PiTerm, PiTerm], Verdict],
                           pairs: list[tuple[PiTerm, PiTerm]]) -> FullAbstractionReport:
    """Per pair, both directions of: p ~ q iff T(p) ~ T(q)."""
    report = FullAbstractionReport()
    for p, q in pairs:
        sv = source_oracle(p, q)
        tv = target_oracle(translate(p), translate(q))
        if "inconclusive" in (sv.status, tv.status):
            status = "inconclusive"
        elif sv.status == tv.status:
            status = "pass"
        else:
            status = "fail"
        report.rows.append((p, q, sv, tv, status))
    return report


def load_pairs(text: str) -> list[tuple[str, str]]:
    """Pair-list format: one pair per line, sides separated by ' ;; '."""
    pairs = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if " ;; " not in line:
            raise PiError(f"line {ln}: expected two terms separated by ' ;; '")
        left, _, right = line.partition(" ;; ")
        pairs.append((left.strip(), right.strip()))
    return pairs
