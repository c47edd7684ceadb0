"""Command-line front end.

Exit codes: 0 = the check holds, 1 = it fails (witness printed), 2 =
inconclusive within the given budget, 3 = input or usage error.  Output is
deterministic for identical inputs and seed, with witnesses in a canonical
sorted serialization, so runs are golden-file friendly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import cache

from .encodings import (boudol_encoding, check_encoding_pairs,
                        full_abstraction_check, load_pairs, plug)
from .finlang import (FiniteLanguage, InputError, Relation, SemanticTranslation,
                      check_correct_upto, check_correct_wrt, check_preserves,
                      check_respects, congruence_closure_1hole,
                      check_valid_upto, is_congruence, is_congruence_for_image,
                      is_one_hole_congruence, load_language, load_relation,
                      load_semantic_translation, load_translation, lr_closure,
                      property_suite, upward_closed_targets)
from .pi import (BISIM_KINDS, PiError, PiTerm, barb_from_text, bisim, closed_state,
                 explore, normal_form, parse_pi, print_pi, print_state, reduce_once,
                 strong_barbs, weak_barb, _scan)
from .terms import Term, TermError, compose_translations, print_term
from .verdict import BISIM_WORDS, Verdict

OK, FAIL, INCONCLUSIVE, USAGE = 0, 1, 2, 3
EXIT = {"yes": OK, "no": FAIL, "inconclusive": INCONCLUSIVE}

FIXTURE_ENV = "TRANSCHECK_FIXTURES"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE)


def _resolve(path: str) -> str:
    if os.path.exists(path):
        return path
    root = os.environ.get(FIXTURE_ENV)
    if root:
        alt = os.path.join(root, path)
        if os.path.exists(alt):
            return alt
    raise InputError(f"no such file: {path}")


def _read_json(path: str) -> dict:
    with open(_resolve(path)) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise InputError(f"{path}: not valid JSON ({e})")


def _read_text(path: str) -> str:
    with open(_resolve(path)) as fh:
        return fh.read()


def _lang(path: str) -> FiniteLanguage:
    return load_language(_read_json(path))


def _unqualify(value: str, langs: tuple[FiniteLanguage, ...]) -> str:
    for lang in langs:
        prefix = f"{lang.name}."
        if value.startswith(prefix):
            return value[len(prefix):]
    return value


def _fmt_item(item, langs=()) -> str:
    if isinstance(item, dict):
        inner = " ".join(f"{k}={_fmt_item(v, langs)}" for k, v in sorted(item.items()))
        return "{" + inner + "}"
    if isinstance(item, Term):
        return print_term(item)
    if isinstance(item, tuple):
        return "(" + ", ".join(_fmt_item(x, langs) for x in item) + ")"
    if isinstance(item, str):
        return _unqualify(item, langs)
    return str(item)


def _print_witness(witness, langs=()) -> None:
    if witness is None:
        return
    print("witness: " + " | ".join(_fmt_item(x, langs) for x in witness))


def _print_partition(rel: Relation, langs=()) -> None:
    for cls in rel.classes():
        print("{" + ", ".join(_unqualify(v, langs) for v in cls) + "}")


def _report(label: str, v: Verdict, langs=(), show=None) -> int:
    """Print `label: status`, the witness and the note; return the exit code.

    A "no" prints its counterexample; a "yes" prints its witness only when
    show is given to format it, as show(witness, *langs)."""
    print(f"{label}: {v.status}")
    if v.status == "no":
        _print_witness(v.witness, langs)
    elif v.status == "yes" and show is not None:
        print("witness: " + show(v.witness, *langs))
    if v.note:
        print(f"note: {v.note}")
    return EXIT[v.status]


def _tally(rows, good: str, bad: str) -> int:
    """Print each (word, text) row as `word: text`, then how many rows say
    good, bad and inconclusive.  A batch fails if one row is bad, else is
    inconclusive if one is."""
    n = Counter(word for word, _ in rows)
    for word, text in rows:
        print(f"{word}: {text}")
    print(f"{good}={n[good]} {bad}={n[bad]} inconclusive={n['inconclusive']}")
    return EXIT["no" if n[bad] else "inconclusive" if n["inconclusive"] else "yes"]


# ------------- finite-language commands -------------

def _cmd_lang_validate(ns) -> int:
    try:
        lang = _lang(ns.lang)
    except InputError as e:
        print(f"invalid: {e}")
        return FAIL
    print(f"ok: {lang.name} ({len(lang.values)} values, {len(lang.operators)} operators)")
    return OK


def _cmd_check_congruence(ns) -> int:
    # each mode refuses the options only the other one reads
    for flag in ("lang", "one_hole") if ns.image else ("source", "target", "translation", "w"):
        if getattr(ns, flag) not in (None, False):  # "" is given, False is --one-hole unset
            option = "--" + flag.replace("_", "-")
            raise InputError(f"--image does not take {option}" if ns.image
                             else f"{option} needs --image")
    rel = load_relation(_read_json(ns.relation))
    if ns.image:
        for flag in ("source", "target", "translation"):
            if getattr(ns, flag) is None:
                raise InputError(f"--image needs --{flag}")
        src, tgt = _lang(ns.source), _lang(ns.target)
        tr = load_translation(_read_json(ns.translation), src, tgt)
        if ns.w is not None:
            if not ns.w:
                raise InputError("--w lists no value")
            w_set = tuple(ns.w.split(","))
            twice = sorted(w for w, n in Counter(w_set).items() if n > 1)
            if twice:
                raise InputError(f"--w repeats {twice}")
        else:
            w_set = tuple(upward_closed_targets(src, tgt, rel))
        v = is_congruence_for_image(tr, src, tgt, rel, w_set)
        return _report("congruence", v, (src, tgt))
    if ns.lang is None:
        raise InputError("check congruence needs --lang (or --image with languages)")
    lang = _lang(ns.lang)
    v = is_one_hole_congruence(lang, rel) if ns.one_hole else is_congruence(lang, rel)
    return _report("congruence", v, (lang,))


def _cmd_closure(ns) -> int:
    lang = _lang(ns.lang)
    rel = load_relation(_read_json(ns.relation))
    _print_partition(congruence_closure_1hole(lang, rel), (lang,))
    return OK


def _cmd_lr_closure(ns) -> int:
    lang = _lang(ns.lang)
    rel = load_relation(_read_json(ns.relation))
    semtrans = load_semantic_translation(_read_json(ns.semtrans))
    _print_partition(lr_closure(lang, rel, semtrans))
    return OK


def _show_relation(r: SemanticTranslation, src: FiniteLanguage, tgt: FiniteLanguage) -> str:
    pairs = sorted((_unqualify(a, (tgt,)), _unqualify(b, (src,))) for a, b in r.pairs)
    return " ".join(f"({a},{b})" for a, b in pairs)


def _show_value_map(bt: dict[str, str], *_langs) -> str:
    return " ".join(f"bT({a})={b}" for a, b in sorted(bt.items()))


def _cmd_check(ns) -> int:
    """check correct|valid|preserves|respects: the subcommand's library
    function, and the format of its "yes" witness (None: a "yes" prints
    none).  correct with --semtrans checks w.r.t. that semantic translation
    instead of searching the relation, and refuses --relation beside it."""
    semtrans = getattr(ns, "semtrans", None)
    if semtrans and ns.relation is not None:
        raise InputError("--semtrans does not take --relation")
    src, tgt = _lang(ns.source), _lang(ns.target)
    tr = load_translation(_read_json(ns.translation), src, tgt)
    check, show = {"correct": (check_correct_upto, None),
                   "valid": (check_valid_upto, _show_relation),
                   "preserves": (check_preserves, _show_value_map),
                   "respects": (check_respects, None)}[ns.subcommand]
    if semtrans:
        check, rel = check_correct_wrt, load_semantic_translation(_read_json(semtrans))
    elif ns.relation is None:
        raise InputError("check correct needs --relation or --semtrans")
    else:
        rel = load_relation(_read_json(ns.relation))
    v = check(tr, src, tgt, rel, *([ns.depth] if "depth" in ns else []))
    return _report(ns.subcommand, v, (src, tgt), show)


def _cmd_compose(ns) -> int:
    a, b, c = _lang(ns.source), _lang(ns.mid), _lang(ns.target)
    t1 = load_translation(_read_json(ns.first), a, b)
    t2 = load_translation(_read_json(ns.second), b, c)
    try:
        composed = compose_translations(t1, t2)
    except TermError as e:
        print(f"compose: no ({e})")
        return FAIL
    print(f"compose: {a.name} -> {c.name}")
    for op, img in sorted(composed.heads):
        print(f"{op}: {print_term(img)}")
    return OK


def _cmd_property_suite(ns) -> int:
    report = property_suite(ns.seed, ns.trials)
    print(f"seed: {report.seed}")
    print(f"trials: {report.trials}")
    for name in sorted(report.checks):
        print(f"check {name}: {report.checks[name]}")
    print(f"violations: {len(report.violations)}")
    for law, payload in report.violations:
        print(f"violation {law}: {payload!r}")
    return OK if report.ok else FAIL


# ------------- process commands -------------

def _parse_term_arg(ns, text: str) -> PiTerm:
    t = parse_pi(text, allow_reserved=ns.allow_reserved)
    if ns.ext is not None:
        declared = set(ns.ext.split(",")) if ns.ext else set()
        stray = _scan(t).ext - declared
        if stray:
            raise PiError(f"external barb ids {sorted(stray)} not in the declared set")
    return t


def _subject(ns) -> PiTerm:
    """Positional term, optionally translated and plugged into a context."""
    t = _parse_term_arg(ns, ns.term)
    if ns.boudol:
        t = boudol_encoding().translate(t)
    if ns.context:
        t = plug(parse_pi(ns.context, allow_reserved=True), t)
    return t


def _cmd_pi_parse(ns) -> int:
    print(print_pi(_parse_term_arg(ns, ns.term)))
    return OK


def _cmd_pi_print(ns) -> int:
    print(print_state(normal_form(_subject(ns))))
    return OK


def _cmd_pi_reduce(ns) -> int:
    for s in reduce_once(closed_state(_subject(ns))):
        print(print_state(s))
    return OK


def _cmd_pi_explore(ns) -> int:
    g = explore(_subject(ns), ns.budget, input_barbs=ns.input_barbs)
    order = g.order()
    index = {k: i for i, k in enumerate(order)}
    print(f"states: {len(order)} ({'complete' if g.complete else 'truncated'})")
    for i, k in enumerate(order):
        barbs = ",".join(sorted(str(b) for b in g.barbs[k]))
        succ = " ".join(str(index[t]) for t in g.edges.get(k, ()))
        print(f"{i}: {print_state(g.states[k])}  barbs[{barbs}]  -> {succ if succ else '-'}")
    if g.complete:
        div = " ".join(str(index[k]) for k in order if k in g.divergent)
        print(f"divergent: {div if div else 'none'}")
    return EXIT["yes" if g.complete else "inconclusive"]


def _cmd_pi_barbs(ns) -> int:
    bs = strong_barbs(closed_state(_subject(ns)), input_barbs=ns.input_barbs)
    for b in sorted(bs, key=str):
        print(b)
    return OK


def _cmd_pi_weak_barb(ns) -> int:
    verdict = weak_barb(closed_state(_subject(ns)), barb_from_text(ns.barb), ns.budget)
    print(verdict)
    return EXIT[verdict]


def _cmd_pi_bisim(ns) -> int:
    p = _parse_term_arg(ns, ns.left)
    q = _parse_term_arg(ns, ns.right)
    v = bisim(p, q, ns.kind, ns.budget, input_barbs=ns.input_barbs)
    word = {"yes": "bisimilar", "no": "not bisimilar"}.get(v.status, v.status)
    print(f"{word}: {v.note}" if v.note else word)
    return EXIT[v.status]


def _cmd_pi_translate(ns) -> int:
    print(print_pi(boudol_encoding().translate(_parse_term_arg(ns, ns.term))))
    return OK


def _cmd_pi_plug(ns) -> int:
    print(print_pi(_subject(ns)))
    return OK


def _cmd_pi_check_encoding(ns) -> int:
    texts: list[str] = list(ns.terms)
    if ns.file:  # the blank-and-# rules of load_pairs
        lines = map(str.strip, _read_text(ns.file).splitlines())
        texts = [s for s in lines if s and not s.startswith("#")] + texts
    if not texts:
        raise InputError("no terms given (positional or --file)")
    terms = [_parse_term_arg(ns, s) for s in texts]
    report = check_encoding_pairs(boudol_encoding(), terms, ns.kind, ns.budget)
    return _tally([(BISIM_WORDS[v.status], print_pi(p)) for p, v in report.rows],
                  "bisimilar", "not")


def _cmd_pi_full_abstraction(ns) -> int:
    pairs = [(_parse_term_arg(ns, a), _parse_term_arg(ns, b))
             for a, b in load_pairs(_read_text(ns.pairs))]
    if not pairs:
        raise InputError(f"no pairs given ({ns.pairs} lists none)")

    def oracle(p, q):
        return bisim(p, q, ns.kind, ns.budget)

    report = full_abstraction_check(boudol_encoding().translate, oracle, oracle, pairs)
    return _tally([(status, f"{print_pi(p)} ;; {print_pi(q)} (source={BISIM_WORDS[sv.status]}, "
                            f"target={BISIM_WORDS[tv.status]})")
                   for p, q, sv, tv, status in report.rows], "pass", "fail")


# ------------- wiring -------------

def _parent() -> argparse.ArgumentParser:
    """A parser that only lends its arguments to the commands built on it,
    so each argument is declared once.  A command takes its parents'
    arguments first, in the order its parents are listed, then its own."""
    return argparse.ArgumentParser(add_help=False)


def _file_options(required: bool) -> dict[str, argparse.ArgumentParser]:
    """The file options of the finite-language commands, each on its own
    parent, keyed by its name without the dashes."""
    opts = {name: _parent() for name in ("lang", "relation", "source", "target",
                                         "translation", "semtrans")}
    opts["lang"].add_argument("--lang", required=required)
    opts["relation"].add_argument("--relation", required=required)
    opts["source"].add_argument("--source", required=required)
    opts["target"].add_argument("--target", required=required)
    opts["translation"].add_argument("--translation", required=required)
    opts["semtrans"].add_argument("--semtrans", required=required,
                                  help="semantic translation file (check correct: check "
                                       "w.r.t. it instead of searching the relation)")
    return opts


def _plug_options(context_required: bool) -> argparse.ArgumentParser:
    """How a pi command turns its term into the process it reads."""
    p = _parent()
    p.add_argument("--context", required=context_required)
    p.add_argument("--boudol", action="store_true", help="translate the term before plugging")
    return p


@cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and a handler looks up the functions it calls when it runs."""
    top = _Parser(prog="transcheck",
                  description="checkers for translations between system description "
                              "languages, with a pi-calculus workbench")
    sub = top.add_subparsers(dest="command", required=True)

    def group(name: str, help: str):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    def command(subs, name: str, func, *parents, **kw) -> _Parser:
        p = subs.add_parser(name, parents=parents, **kw)
        p.set_defaults(func=func)
        return p

    # arguments of one or two commands that come before shared ones: on
    # parents too, so that usage lines and "required" errors list every
    # command's arguments in the order they have always had
    mode, depth, mid, batch, pairs = (_parent() for _ in range(5))
    mode.add_argument("--one-hole", action="store_true")
    mode.add_argument("--image", action="store_true",
                      help="check on the translated image over U (needs the triple)")
    depth.add_argument("--depth", type=int, default=3)
    mid.add_argument("--mid", required=True)
    batch.add_argument("terms", nargs="*")
    batch.add_argument("--file", help="file with one term per line")
    pairs.add_argument("--pairs", required=True,
                       help="file with one pair per line, sides separated by ' ;; '")

    req, opt = _file_options(True), _file_options(False)
    command(group("lang", "language file utilities"), "validate", _cmd_lang_validate,
            req["lang"], help="validate a language file")
    check = group("check", "translation and relation checks")
    cc = command(check, "congruence", _cmd_check_congruence, opt["lang"], req["relation"],
                 mode, opt["source"], opt["target"], opt["translation"],
                 help="is the relation a congruence")
    cc.add_argument("--w", help="comma list of target values overriding U")
    triple = (req["source"], req["target"], req["translation"])
    command(check, "correct", _cmd_check, *triple, opt["relation"], opt["semtrans"])
    command(check, "valid", _cmd_check, *triple, req["relation"])
    for name in ("preserves", "respects"):
        command(check, name, _cmd_check, *triple, req["relation"], depth)
    command(sub, "closure", _cmd_closure, req["lang"], req["relation"],
            help="largest one-hole congruence inside a relation")
    command(sub, "lr-closure", _cmd_lr_closure, req["lang"], req["relation"], req["semtrans"],
            help="congruence closure of a translation")
    co = command(sub, "compose", _cmd_compose, req["source"], mid, req["target"],
                 help="compose two head-map translations")
    co.add_argument("--first", required=True)
    co.add_argument("--second", required=True)
    ps = command(sub, "property-suite", _cmd_property_suite,
                 help="brute-force the library's theorems")
    ps.add_argument("--trials", type=int, default=200)
    ps.add_argument("--seed", type=int, default=42)

    # names: what every pi command takes first
    names, term, barb, sides, budget, kind, input_barbs = (_parent() for _ in range(7))
    names.add_argument("--allow-reserved", action="store_true",
                       help="accept names in the reserved _ namespace")
    names.add_argument("--ext", help="declared external barb ids (comma list)")
    term.add_argument("term")
    barb.add_argument("barb")
    sides.add_argument("left")
    sides.add_argument("right")
    budget.add_argument("--budget", type=int, default=200)
    kind.add_argument("--kind", choices=BISIM_KINDS, default="weak-barbed")
    input_barbs.add_argument("--input-barbs", action="store_true")
    plugging = _plug_options(context_required=False)
    pi_sub = group("pi", "process workbench")

    def pi(name: str, func, *parents, help: str) -> _Parser:
        return command(pi_sub, name, func, names, *parents, help=help)

    pi("parse", _cmd_pi_parse, term, help="syntax check; echo the parsed term")
    pi("print", _cmd_pi_print, term, plugging, help="print the structural normal form")
    pi("reduce", _cmd_pi_reduce, term, plugging, help="single-step successors")
    pi("explore", _cmd_pi_explore, term, budget, input_barbs, plugging,
       help="bounded reduction graph")
    pi("barbs", _cmd_pi_barbs, term, input_barbs, plugging,
       help="strong barbs of the normal form")
    pi("weak-barb", _cmd_pi_weak_barb, term, barb, budget, plugging,
       help="is the barb reachable")
    pi("bisim", _cmd_pi_bisim, sides, kind, budget, input_barbs,
       help="barbed bisimilarity check")
    pi("translate", _cmd_pi_translate, term, help="synchronous-to-asynchronous translation")
    pi("plug", _cmd_pi_plug, term, _plug_options(context_required=True),
       help="plug a term into a one-hole context")
    pi("check-encoding", _cmd_pi_check_encoding, batch, kind, budget,
       help="spot-check terms against their translations")
    pi("full-abstraction", _cmd_pi_full_abstraction, pairs, kind, budget,
       help="p ~ q iff T(p) ~ T(q) on listed pairs")
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE
    except (InputError, TermError, PiError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return USAGE
    except MemoryError:  # a resource limit, not an answer: never "fails"
        print("inconclusive: the check ran out of memory", file=sys.stderr)
        return INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
