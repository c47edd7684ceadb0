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
from .finlang import (FiniteLanguage, InputError, Relation,
                      check_correct_upto, check_correct_wrt, check_preserves,
                      check_respects, congruence_closure_1hole,
                      check_valid_upto, is_congruence, is_congruence_for_image,
                      is_one_hole_congruence, load_language, load_relation,
                      load_semantic_translation, load_translation, lr_closure,
                      property_suite, upward_closed_targets)
from .pi import (BISIM_KINDS, PiError, PiTerm, barb_from_text, bisim, explore,
                 normal_form, parse_pi, print_pi, print_state, reduce_once,
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
    show is given to format it."""
    print(f"{label}: {v.status}")
    if v.status == "no":
        _print_witness(v.witness, langs)
    elif v.status == "yes" and show is not None:
        print("witness: " + show(v.witness))
    if v.note:
        print(f"note: {v.note}")
    return EXIT[v.status]


def _batch_exit(failed: int, inconclusive: int) -> int:
    """A batch fails if one check fails, else is inconclusive if one is."""
    return EXIT["no" if failed else "inconclusive" if inconclusive else "yes"]


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
        if getattr(ns, flag):
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
        if ns.w:
            w_set = tuple(ns.w.split(","))
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


def _load_triple(ns):
    src, tgt = _lang(ns.source), _lang(ns.target)
    tr = load_translation(_read_json(ns.translation), src, tgt)
    return src, tgt, tr


def _cmd_check_correct(ns) -> int:
    src, tgt, tr = _load_triple(ns)
    if ns.semtrans:
        r = load_semantic_translation(_read_json(ns.semtrans))
        v = check_correct_wrt(tr, src, tgt, r)
    elif ns.relation:
        rel = load_relation(_read_json(ns.relation))
        v = check_correct_upto(tr, src, tgt, rel)
    else:
        raise InputError("check correct needs --relation or --semtrans")
    return _report("correct", v, (src, tgt))


def _cmd_check_valid(ns) -> int:
    src, tgt, tr = _load_triple(ns)
    rel = load_relation(_read_json(ns.relation))
    v = check_valid_upto(tr, src, tgt, rel)

    def show(r) -> str:
        pairs = sorted((_unqualify(a, (tgt,)), _unqualify(b, (src,))) for a, b in r.pairs)
        return " ".join(f"({a},{b})" for a, b in pairs)

    return _report("valid", v, show=show)


def _cmd_check_preserves(ns) -> int:
    src, tgt, tr = _load_triple(ns)
    rel = load_relation(_read_json(ns.relation))
    v = check_preserves(tr, src, tgt, rel, ns.depth)
    return _report("preserves", v, (src, tgt),
                   lambda bt: " ".join(f"bT({a})={b}" for a, b in sorted(bt.items())))


def _cmd_check_respects(ns) -> int:
    src, tgt, tr = _load_triple(ns)
    rel = load_relation(_read_json(ns.relation))
    v = check_respects(tr, src, tgt, rel, ns.depth)
    return _report("respects", v, (src, tgt))


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
    omega = getattr(ns, "ext", None)
    if omega is not None:
        declared = set(omega.split(",")) if omega else set()
        stray = _scan(t).ext - declared
        if stray:
            raise PiError(f"external barb ids {sorted(stray)} not in the declared set")
    return t


def _subject(ns) -> PiTerm:
    """Positional term, optionally translated and plugged into a context."""
    t = _parse_term_arg(ns, ns.term)
    if getattr(ns, "boudol", False):
        t = boudol_encoding().translate(t)
    ctx = getattr(ns, "context", None)
    if ctx:
        t = plug(parse_pi(ctx, allow_reserved=True), t)
    return t


def _cmd_pi_parse(ns) -> int:
    print(print_pi(_parse_term_arg(ns, ns.term)))
    return OK


def _cmd_pi_print(ns) -> int:
    print(print_state(normal_form(_subject(ns))))
    return OK


def _cmd_pi_reduce(ns) -> int:
    for s in reduce_once(normal_form(_subject(ns))):
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
    bs = strong_barbs(normal_form(_subject(ns)), input_barbs=ns.input_barbs)
    for b in sorted(bs, key=str):
        print(b)
    return OK


def _cmd_pi_weak_barb(ns) -> int:
    verdict = weak_barb(_subject(ns), barb_from_text(ns.barb), ns.budget)
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
    if ns.file:
        texts = [line.strip() for line in _read_text(ns.file).splitlines()
                 if line.strip() and not line.strip().startswith("#")] + texts
    if not texts:
        raise InputError("no terms given (positional or --file)")
    terms = [_parse_term_arg(ns, s) for s in texts]
    report = check_encoding_pairs(boudol_encoding(), terms, ns.kind, ns.budget)
    for p, v in report.rows:
        print(f"{BISIM_WORDS[v.status]}: {print_pi(p)}")
    counts = report.counts
    print(f"bisimilar={counts['bisimilar']} not={counts['not']} "
          f"inconclusive={counts['inconclusive']}")
    return _batch_exit(counts["not"], counts["inconclusive"])


def _cmd_pi_full_abstraction(ns) -> int:
    pairs = [(_parse_term_arg(ns, a), _parse_term_arg(ns, b))
             for a, b in load_pairs(_read_text(ns.pairs))]
    enc = boudol_encoding()

    def oracle(p, q):
        return bisim(p, q, ns.kind, ns.budget)

    report = full_abstraction_check(enc.translate, oracle, oracle, pairs)
    for p, q, sv, tv, status in report.rows:
        print(f"{status}: {print_pi(p)} ;; {print_pi(q)} "
              f"(source={BISIM_WORDS[sv.status]}, target={BISIM_WORDS[tv.status]})")
    n = Counter(status for *_, status in report.rows)
    print(f"pass={n['pass']} fail={n['fail']} inconclusive={n['inconclusive']}")
    return _batch_exit(n["fail"], n["inconclusive"])


# ------------- wiring -------------

@cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and a handler looks up the functions it calls when it runs."""
    top = _Parser(prog="transcheck",
                  description="checkers for translations between system description "
                              "languages, with a pi-calculus workbench")
    sub = top.add_subparsers(dest="command", required=True)

    lang = sub.add_parser("lang", help="language file utilities")
    lang_sub = lang.add_subparsers(dest="subcommand", required=True)
    lv = lang_sub.add_parser("validate", help="validate a language file")
    lv.add_argument("--lang", required=True)
    lv.set_defaults(func=_cmd_lang_validate)

    check = sub.add_parser("check", help="translation and relation checks")
    check_sub = check.add_subparsers(dest="subcommand", required=True)

    cc = check_sub.add_parser("congruence", help="is the relation a congruence")
    cc.add_argument("--lang")
    cc.add_argument("--relation", required=True)
    cc.add_argument("--one-hole", action="store_true", dest="one_hole")
    cc.add_argument("--image", action="store_true",
                    help="check on the translated image over U (needs the triple)")
    cc.add_argument("--source")
    cc.add_argument("--target")
    cc.add_argument("--translation")
    cc.add_argument("--w", help="comma list of target values overriding U")
    cc.set_defaults(func=_cmd_check_congruence)

    for name, fn, with_depth in (
            ("correct", _cmd_check_correct, False),
            ("valid", _cmd_check_valid, False),
            ("preserves", _cmd_check_preserves, True),
            ("respects", _cmd_check_respects, True)):
        p = check_sub.add_parser(name)
        p.add_argument("--source", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--translation", required=True)
        p.add_argument("--relation", required=name != "correct")
        if name == "correct":
            p.add_argument("--semtrans", help="check w.r.t. this semantic translation "
                                              "instead of searching the relation")
        if with_depth:
            p.add_argument("--depth", type=int, default=3)
        p.set_defaults(func=fn)

    cl = sub.add_parser("closure", help="largest one-hole congruence inside a relation")
    cl.add_argument("--lang", required=True)
    cl.add_argument("--relation", required=True)
    cl.set_defaults(func=_cmd_closure)

    lr = sub.add_parser("lr-closure", help="congruence closure of a translation")
    lr.add_argument("--lang", required=True, help="source language (closure side)")
    lr.add_argument("--relation", required=True)
    lr.add_argument("--semtrans", required=True)
    lr.set_defaults(func=_cmd_lr_closure)

    co = sub.add_parser("compose", help="compose two head-map translations")
    co.add_argument("--source", required=True)
    co.add_argument("--mid", required=True)
    co.add_argument("--target", required=True)
    co.add_argument("--first", required=True)
    co.add_argument("--second", required=True)
    co.set_defaults(func=_cmd_compose)

    ps = sub.add_parser("property-suite", help="brute-force the library's theorems")
    ps.add_argument("--trials", type=int, default=200)
    ps.add_argument("--seed", type=int, default=42)
    ps.set_defaults(func=_cmd_property_suite)

    pi = sub.add_parser("pi", help="process workbench")
    pi_sub = pi.add_subparsers(dest="subcommand", required=True)

    def piparser(name, **kw):
        p = pi_sub.add_parser(name, **kw)
        p.add_argument("--allow-reserved", action="store_true", dest="allow_reserved",
                       help="accept names in the reserved _ namespace")
        p.add_argument("--ext", help="declared external barb ids (comma list)")
        return p

    pp = piparser("parse", help="syntax check; echo the parsed term")
    pp.add_argument("term")
    pp.set_defaults(func=_cmd_pi_parse)

    pn = piparser("print", help="print the structural normal form")
    pn.add_argument("term")
    pn.add_argument("--context")
    pn.add_argument("--boudol", action="store_true")
    pn.set_defaults(func=_cmd_pi_print)

    pr = piparser("reduce", help="single-step successors")
    pr.add_argument("term")
    pr.add_argument("--context")
    pr.add_argument("--boudol", action="store_true")
    pr.set_defaults(func=_cmd_pi_reduce)

    pe = piparser("explore", help="bounded reduction graph")
    pe.add_argument("term")
    pe.add_argument("--budget", type=int, default=200)
    pe.add_argument("--input-barbs", action="store_true", dest="input_barbs")
    pe.add_argument("--context")
    pe.add_argument("--boudol", action="store_true")
    pe.set_defaults(func=_cmd_pi_explore)

    pb = piparser("barbs", help="strong barbs of the normal form")
    pb.add_argument("term")
    pb.add_argument("--input-barbs", action="store_true", dest="input_barbs")
    pb.add_argument("--context")
    pb.add_argument("--boudol", action="store_true")
    pb.set_defaults(func=_cmd_pi_barbs)

    pw = piparser("weak-barb", help="is the barb reachable")
    pw.add_argument("term")
    pw.add_argument("barb")
    pw.add_argument("--budget", type=int, default=200)
    pw.add_argument("--context")
    pw.add_argument("--boudol", action="store_true")
    pw.set_defaults(func=_cmd_pi_weak_barb)

    pbi = piparser("bisim", help="barbed bisimilarity check")
    pbi.add_argument("left")
    pbi.add_argument("right")
    pbi.add_argument("--kind", choices=BISIM_KINDS, default="weak-barbed")
    pbi.add_argument("--budget", type=int, default=200)
    pbi.add_argument("--input-barbs", action="store_true", dest="input_barbs")
    pbi.set_defaults(func=_cmd_pi_bisim)

    pt = piparser("translate", help="synchronous-to-asynchronous translation")
    pt.add_argument("term")
    pt.set_defaults(func=_cmd_pi_translate)

    pg = piparser("plug", help="plug a term into a one-hole context")
    pg.add_argument("term")
    pg.add_argument("--context", required=True)
    pg.add_argument("--boudol", action="store_true",
                    help="translate the term before plugging")
    pg.set_defaults(func=_cmd_pi_plug)

    pc = piparser("check-encoding", help="spot-check terms against their translations")
    pc.add_argument("terms", nargs="*")
    pc.add_argument("--file", help="file with one term per line")
    pc.add_argument("--kind", choices=BISIM_KINDS, default="weak-barbed")
    pc.add_argument("--budget", type=int, default=200)
    pc.set_defaults(func=_cmd_pi_check_encoding)

    pf = piparser("full-abstraction", help="p ~ q iff T(p) ~ T(q) on listed pairs")
    pf.add_argument("--pairs", required=True,
                    help="file with one pair per line, sides separated by ' ;; '")
    pf.add_argument("--kind", choices=BISIM_KINDS, default="weak-barbed")
    pf.add_argument("--budget", type=int, default=200)
    pf.set_defaults(func=_cmd_pi_full_abstraction)

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
