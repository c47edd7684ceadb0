"""Command line goldens: exact stdout and exit codes over the fixture files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

from transcheck.cli import main

OK, FAIL, INCONCLUSIVE, USAGE = 0, 1, 2, 3


# ------------- finite-language commands -------------

def test_lang_validate(cli):
    code, out, _ = cli("lang", "validate", "--lang", "negtop/L.json")
    assert code == OK
    assert out == "ok: neg2 (2 values, 3 operators)\n"


def test_check_valid_negation(cli):
    code, out, _ = cli("check", "valid",
                       "--source", "negtop/L.json", "--target", "negtop/Lp.json",
                       "--translation", "negtop/T.json", "--relation", "negtop/sim.json")
    assert code == OK
    assert out == "valid: yes\nwitness: (0,0) (1,1)\n"


def test_check_correct_negation_fails(cli):
    code, out, _ = cli("check", "correct",
                       "--source", "negtop/L.json", "--target", "negtop/Lp.json",
                       "--translation", "negtop/T.json", "--relation", "negtop/sim.json")
    assert code == FAIL
    assert out == "correct: no\nwitness: neg | {X1=top} | {X1=1} | top | 0\n"


def test_check_congruence_holds_at_source(cli):
    code, out, _ = cli("check", "congruence",
                       "--lang", "negtop/L.json", "--relation", "negtop/sim.json")
    assert code == OK
    assert out == "congruence: yes\n"


def test_check_congruence_fails_on_image(cli):
    code, out, _ = cli("check", "congruence", "--image",
                       "--source", "negtop/L.json", "--target", "negtop/Lp.json",
                       "--translation", "negtop/T.json", "--relation", "negtop/sim.json")
    assert code == FAIL
    assert out == "congruence: no\nwitness: neg | {X1=1} | {X1=top} | 0 | top\n"


def test_check_valid_mod3(cli):
    code, out, _ = cli("check", "valid",
                       "--source", "mod3/L.json", "--target", "mod3/Lp.json",
                       "--translation", "mod3/T.json", "--relation", "mod3/sim.json")
    assert code == OK
    assert out == "valid: yes\nwitness: (0,minus) (1,plus) (2,plus)\n"


def test_closure_is_identity_on_mod3(cli):
    code, out, _ = cli("closure", "--lang", "mod3/Lp.json", "--relation", "mod3/sim.json")
    assert code == OK
    assert out == "{0}\n{1}\n{2}\n"


def test_check_preserves_cycle(cli):
    code, out, _ = cli("check", "preserves",
                       "--source", "cycle4/L.json", "--target", "cycle4/Lp.json",
                       "--translation", "cycle4/T.json", "--relation", "cycle4/sim.json")
    assert code == OK
    assert out == "preserves: yes\nwitness: bT(a)=1 bT(b)=4\nnote: preserves\n"


def test_check_valid_cycle_exhausts(cli):
    code, out, _ = cli("check", "valid",
                       "--source", "cycle4/L.json", "--target", "cycle4/Lp.json",
                       "--translation", "cycle4/T.json", "--relation", "cycle4/sim.json")
    assert code == FAIL
    assert out == "valid: no\nnote: exhausted 15 candidates\n"


def test_check_respects_cycle_fails(cli):
    code, out, _ = cli("check", "respects",
                       "--source", "cycle4/L.json", "--target", "cycle4/Lp.json",
                       "--translation", "cycle4/T.json", "--relation", "cycle4/sim.json")
    assert code == FAIL
    assert out == "respects: no\nwitness: c0 | {X0=2} | 3 | a\n"


def test_lr_closure_straight(cli):
    code, out, _ = cli("lr-closure", "--lang", "samecopy/L.json",
                       "--relation", "samecopy/sim.json", "--semtrans", "samecopy/R.json")
    assert code == OK
    assert out == ("{same4.0, same4p.0}\n{same4.1, same4p.1}\n"
                   "{same4.bot, same4p.bot}\n{same4.top, same4p.top}\n")


def test_lr_closure_twisted(cli):
    code, out, _ = cli("lr-closure", "--lang", "samecopy/L.json",
                       "--relation", "samecopy/sim.json", "--semtrans", "samecopy/Rdagger.json")
    assert code == OK
    assert out == ("{same4.0, same4p.0}\n{same4.1, same4p.1}\n"
                   "{same4.bot, same4p.top}\n{same4.top, same4p.bot}\n")


def test_compose_head_maps(cli):
    code, out, _ = cli("compose", "--source", "mod3/L.json", "--mid", "mod3/Lp.json",
                       "--target", "mod3/Lp.json", "--first", "mod3/T.json",
                       "--second", "mod3/Tid.json")
    assert code == OK
    assert out == "compose: pm -> mod3\nno: no\ntopc: topc\nyes: yes\n"


def test_property_suite_small_run(cli):
    code, out, _ = cli("property-suite", "--trials", "10", "--seed", "7")
    assert code == OK
    assert out == ("seed: 7\ntrials: 10\n"
                   "check closure-clauses: 2\ncheck composition: 0\n"
                   "check preservation: 2\ncheck preservation-is-valid: 2\n"
                   "check valid-correct: 6\nviolations: 0\n")


# ------------- process commands -------------

def test_pi_parse_echoes_canonical_spelling(cli):
    code, out, _ = cli("pi", "parse", "x!z.0 | x(y).0")
    assert code == OK
    assert out == "x!z | x(y).0\n"


def test_pi_print_normal_form(cli):
    code, out, _ = cli("pi", "print", "new u. x!z | 0")
    assert code == OK
    assert out == "x!z\n"


def test_pi_reduce_lists_successors(cli):
    code, out, _ = cli("pi", "reduce", "x!a | x!b | x(y).y!c")
    assert code == OK
    assert out == "a!c | x!b\nb!c | x!a\n"


def test_pi_explore_chain(cli):
    code, out, _ = cli("pi", "explore", "new u. (x!u | u(v).v!z) | x(u).u!v",
                       "--budget", "50")
    assert code == OK
    assert out == ("states: 3 (complete)\n"
                   "0: new u2. (x(u).u!v | u2(v).v!z | x!u2)  barbs[x!]  -> 1\n"
                   "1: new u2. (u2(v).v!z | u2!v)  barbs[]  -> 2\n"
                   "2: v!z  barbs[v!]  -> -\n"
                   "divergent: none\n")


def test_pi_explore_self_loop(cli):
    code, out, _ = cli("pi", "explore", "!x!z | !x(y).0", "--budget", "5")
    assert code == OK
    assert out == ("states: 1 (complete)\n"
                   "0: !x(y).0 | !x!z  barbs[x!]  -> 0\n"
                   "divergent: 0\n")


def test_pi_explore_truncation_is_inconclusive(cli):
    code, out, _ = cli("pi", "explore", "x!a.x!a.x!a | !x(y).0", "--budget", "2")
    assert code == INCONCLUSIVE
    assert out == ("states: 2 (truncated)\n"
                   "0: x!a.x!a.x!a | !x(y).0  barbs[x!]  -> 1\n"
                   "1: x!a.x!a | !x(y).0  barbs[x!]  -> -\n")


def test_pi_barbs(cli):
    code, out, _ = cli("pi", "barbs", "x!z.0")
    assert code == OK
    assert out == "x!\n"


def test_pi_barbs_with_inputs(cli):
    code, out, _ = cli("pi", "barbs", "new x. (x!z | y!z | q(r).0)", "--input-barbs")
    assert code == OK
    assert out == "q(\ny!\n"


def test_pi_weak_barb_in_context(cli):
    code, out, _ = cli("pi", "weak-barb", "new u. (x!u | u(v).v!z)", "v",
                       "--context", "X | x(u).u!v")
    assert code == OK
    assert out == "yes\n"
    code, out, _ = cli("pi", "weak-barb", "x!z", "v", "--context", "X | x(u).u!v")
    assert code == FAIL
    assert out == "no\n"


def test_pi_weak_barb_translated_subjects(cli):
    ctx = "x(y).x(y).r!s | X"
    code, out, _ = cli("pi", "weak-barb", "x!z | x!z", "r", "--context", ctx,
                       "--boudol", "--budget", "500")
    assert (code, out) == (OK, "yes\n")
    code, out, _ = cli("pi", "weak-barb", "x!z.x!z", "r", "--context", ctx,
                       "--boudol", "--budget", "500")
    assert (code, out) == (FAIL, "no\n")


def test_pi_weak_barb_boudol_four_pairs(cli):
    # eight restrictions in flight at once in the translated process
    subject = " | ".join(["x!z"] * 4 + ["x(y).r!y"] * 4)
    code, out, _ = cli("pi", "weak-barb", subject, "r", "--boudol", "--budget", "500")
    assert (code, out) == (OK, "yes\n")


def test_pi_bisim_default_kind(cli):
    code, out, _ = cli("pi", "bisim", "x!z.0", "new t. (t!t | t(s).x!z.0)")
    assert code == OK
    assert out == "bisimilar\n"


def test_pi_bisim_reports_separating_barb(cli):
    code, out, _ = cli("pi", "bisim", "x!z.0", "y!z.0", "--kind", "strong-barbed")
    assert code == FAIL
    assert out == "not bisimilar: barb x! of x!z not matched by y!z\n"


def test_pi_bisim_budget_exhaustion(cli):
    code, out, _ = cli("pi", "bisim", "x!a.x!a.x!a | !x(y).0", "0", "--budget", "2")
    assert code == INCONCLUSIVE
    assert out == "inconclusive: state budget exhausted before both graphs closed\n"


def test_pi_translate(cli):
    code, out, _ = cli("pi", "translate", "x!z.0")
    assert code == OK
    assert out == "new _b0. (x!_b0 | _b0(_b1).(_b1!z | 0))\n"


def test_pi_translate_output_reparses_with_flag(cli):
    code, out, _ = cli("pi", "bisim", "new _b0. (x!_b0 | _b0(_b1).(_b1!z | 0))",
                       "x!z.0", "--allow-reserved")
    assert code == OK
    assert out == "bisimilar\n"


def test_pi_plug(cli):
    code, out, _ = cli("pi", "plug", "x!z | x(u).u!v",
                       "--context", "new u. (x!u | u(v).v!z) | X")
    assert code == OK
    assert out == "new u. (x!u | u(v2).v2!z) | (x!z | x(u).u!v)\n"


def test_pi_check_encoding_from_file(cli):
    code, out, _ = cli("pi", "check-encoding", "--file", "pi/encoding_terms.txt",
                       "--budget", "300")
    assert code == OK
    assert out == ("bisimilar: x!z\n"
                   "bisimilar: x!z | x(y).0\n"
                   "bisimilar: new x. (x!z | x(y).y!w)\n"
                   "bisimilar=3 not=0 inconclusive=0\n")


def test_pi_check_encoding_positional_terms(cli):
    code, out, _ = cli("pi", "check-encoding", "x!z.0", "x(y).0", "--budget", "300")
    assert code == OK
    assert out == ("bisimilar: x!z\n"
                   "bisimilar: x(y).0\n"
                   "bisimilar=2 not=0 inconclusive=0\n")


def test_pi_full_abstraction_pairs_file(cli):
    code, out, _ = cli("pi", "full-abstraction", "--pairs", "pi/full_abstraction_pairs.txt",
                       "--budget", "300")
    assert code == OK
    assert out == (
        "pass: x!z | x(y).0 ;; x(y).0 | x!z (source=bisimilar, target=bisimilar)\n"
        "pass: x!z ;; x!z (source=bisimilar, target=bisimilar)\n"
        "pass: x!z | x!z ;; x!z.x!z (source=bisimilar, target=bisimilar)\n"
        "pass: new a. (a!b | a(c).c!w) ;; b!w (source=bisimilar, target=bisimilar)\n"
        "pass=4 fail=0 inconclusive=0\n")


def test_pi_full_abstraction_lattice_pairs(cli):
    code, out, _ = cli("pi", "full-abstraction", "--pairs", "pi/lattice_pairs.txt",
                       "--budget", "300")
    assert code == OK
    assert out.endswith("pass=7 fail=0 inconclusive=0\n")
    assert out.count("source=not, target=not") == 2
    assert "fail:" not in out


# ------------- argument and input errors -------------

def test_unknown_command_is_usage_error(cli):
    code, out, err = cli("nonsense")
    assert code == USAGE
    assert out == ""
    assert "invalid choice" in err


def test_missing_required_argument(cli):
    code, _, err = cli("check", "valid", "--source", "negtop/L.json",
                       "--target", "negtop/Lp.json", "--translation", "negtop/T.json")
    assert code == USAGE
    assert "--relation" in err


def test_bad_term_is_usage_error(cli):
    code, _, err = cli("pi", "parse", "x!(")
    assert code == USAGE
    assert err == "error: expected 'name' at position 2, found '('\n"


def test_deeply_nested_term_is_usage_error(cli):
    code, out, err = cli("pi", "parse", "x!a." * 1500 + "0")
    assert (code, out) == (USAGE, "")
    assert err == "error: input nested too deeply to process\n"


def test_open_subject_is_usage_error(cli):
    code, _, err = cli("pi", "weak-barb", "X | x(u).u!v", "v",
                       "--context", "Y | x!a")
    assert code == USAGE
    assert "open process" in err


def test_free_process_variable_cannot_be_explored(cli):
    code, _, err = cli("pi", "explore", "X | x!z", "--budget", "5")
    assert code == USAGE
    assert "free process variables" in err


def test_reserved_names_need_the_flag(cli):
    code, _, err = cli("pi", "parse", "_b0!x")
    assert code == USAGE
    assert "reserved namespace" in err


def test_undeclared_external_barb_rejected(cli):
    code, _, err = cli("pi", "barbs", "@done | x!z", "--ext", "other")
    assert code == USAGE
    assert err == "error: external barb ids ['done'] not in the declared set\n"
    code, out, _ = cli("pi", "barbs", "@done | x!z", "--ext", "done")
    assert code == OK
    assert out == "@done\nx!\n"


def test_check_encoding_checks_declared_external_barbs(cli):
    code, out, err = cli("pi", "check-encoding", "@w | x!z", "--ext", "")
    assert code == USAGE
    assert out == ""
    assert err == "error: external barb ids ['w'] not in the declared set\n"


def test_full_abstraction_checks_declared_external_barbs(cli, tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("x!z ;; @w | x!z\n")
    code, out, err = cli("pi", "full-abstraction", "--pairs", str(pairs), "--ext", "v")
    assert code == USAGE
    assert out == ""
    assert err == "error: external barb ids ['w'] not in the declared set\n"


def test_missing_file_is_usage_error(cli):
    code, _, err = cli("closure", "--lang", "no/such/file.json",
                       "--relation", "mod3/sim.json")
    assert code == USAGE
    assert err == "error: no such file: no/such/file.json\n"


def test_lang_validate_reports_missing_file_as_invalid(cli):
    code, out, _ = cli("lang", "validate", "--lang", "no/such/file.json")
    assert code == FAIL
    assert out == "invalid: no such file: no/such/file.json\n"


def test_malformed_relation_file_is_usage_error(cli, tmp_path):
    bad = tmp_path / "rel.json"
    bad.write_text('{"name": "r", "pairs": [["a", "b"]]}')
    code, _, err = cli("lr-closure", "--lang", "samecopy/L.json",
                       "--relation", str(bad), "--semtrans", "samecopy/R.json")
    assert code == USAGE
    assert "lacks keys" in err


def test_paths_resolve_without_the_env_too(capsys, monkeypatch):
    monkeypatch.delenv("TRANSCHECK_FIXTURES", raising=False)
    code = main(["lang", "validate", "--lang", str(FIXTURES / "negtop" / "L.json")])
    assert code == OK
    assert capsys.readouterr().out == "ok: neg2 (2 values, 3 operators)\n"


# ------------- relations and files that do not fit -------------

UNCOVERED = ("--source", "negtop/L.json", "--target", "negtop/Lp.json",
             "--translation", "negtop/T.json", "--relation", "cycle4/sim.json")
MISSES = ("error: relation carrier misses "
          "['neg2.0', 'neg2.1', 'neg3.0', 'neg3.1', 'neg3.top']\n")


def test_check_valid_uncovered_relation_is_usage_error(cli):
    code, out, err = cli("check", "valid", *UNCOVERED)
    assert (code, out, err) == (USAGE, "", MISSES)


def test_check_correct_uncovered_relation_is_usage_error(cli):
    code, out, err = cli("check", "correct", *UNCOVERED)
    assert (code, out, err) == (USAGE, "", MISSES)


def test_check_preserves_uncovered_relation_is_usage_error(cli):
    code, out, err = cli("check", "preserves", *UNCOVERED, "--depth", "2")
    assert (code, out, err) == (USAGE, "", MISSES)


def test_check_respects_uncovered_relation_is_usage_error(cli):
    code, out, err = cli("check", "respects", *UNCOVERED, "--depth", "2")
    assert (code, out, err) == (USAGE, "", MISSES)


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_language_without_operators_is_usage_error(cli, tmp_path):
    lang = _write_json(tmp_path / "L.json", {"name": "l", "values": ["0"]})
    code, out, err = cli("closure", "--lang", lang, "--relation", "mod3/sim.json")
    assert (code, out) == (USAGE, "")
    assert err == "error: language file lacks keys: ['operators']\n"
    code, out, _ = cli("lang", "validate", "--lang", lang)
    assert (code, out) == (FAIL, "invalid: language file lacks keys: ['operators']\n")


def test_language_file_must_be_an_object(cli, tmp_path):
    lang = _write_json(tmp_path / "L.json", ["name", "values", "operators"])
    code, _, err = cli("closure", "--lang", lang, "--relation", "mod3/sim.json")
    assert (code, err) == (USAGE, "error: language file is not a JSON object\n")


def test_operator_without_table_is_usage_error(cli, tmp_path):
    lang = _write_json(tmp_path / "L.json", {"name": "l", "values": ["0"],
                                             "operators": [{"name": "z", "arity": 0}]})
    code, _, err = cli("closure", "--lang", lang, "--relation", "mod3/sim.json")
    assert code == USAGE
    assert err == "error: operator lacks keys: ['table']\n"


def test_translation_without_heads_is_usage_error(cli, tmp_path):
    tr = _write_json(tmp_path / "T.json", {"source": "neg2", "target": "neg3"})
    code, _, err = cli("check", "correct", "--source", "negtop/L.json",
                       "--target", "negtop/Lp.json", "--translation", tr,
                       "--relation", "negtop/sim.json")
    assert code == USAGE
    assert err == "error: translation file lacks keys: ['heads']\n"


def test_translation_with_a_stray_head_is_usage_error(cli, tmp_path):
    data = json.loads((FIXTURES / "negtop" / "T.json").read_text())
    data["heads"]["bogus"] = "yes"
    tr = _write_json(tmp_path / "T.json", data)
    code, out, err = cli("check", "valid", "--source", "negtop/L.json",
                         "--target", "negtop/Lp.json", "--translation", tr,
                         "--relation", "negtop/sim.json")
    assert (code, out) == (USAGE, "")
    assert err == "error: translation has images for constructs neg2 lacks: ['bogus']\n"


def test_relation_error_does_not_depend_on_the_hash_seed(tmp_path):
    """Out-of-carrier pairs are reported in sorted order, so every process
    names the same pair."""
    rel = _write_json(tmp_path / "R.json", {
        "kind": "equivalence", "carrier": ["neg2.0", "neg2.1"],
        "pairs": [["neg2.0", "zz.a"], ["neg2.1", "qq.b"]]})
    src = str(Path(__file__).resolve().parent.parent / "src")
    errs = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "transcheck", "check", "congruence",
             "--lang", str(FIXTURES / "negtop" / "L.json"), "--relation", rel],
            env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (USAGE, "")
        errs.add(run.stderr)
    assert errs == {"error: pair (neg2.0, zz.a) mentions a value outside the carrier\n"}


def test_table_key_outside_values_is_named(cli, tmp_path):
    lang = _write_json(tmp_path / "L.json", {
        "name": "l", "values": ["0", "1"],
        "operators": [{"name": "neg", "arity": 1, "table": {"0": "1", "1": "0", "2": "0"}}]})
    code, out, _ = cli("lang", "validate", "--lang", lang)
    assert (code, out) == (FAIL, "invalid: l.neg: table keys outside values: [('2',)]\n")


def test_check_congruence_on_image_needs_the_carrier(cli):
    code, out, err = cli("check", "congruence", "--image", *UNCOVERED)
    assert (code, out, err) == (USAGE, "", MISSES)


def test_check_congruence_on_image_rejects_stray_values(cli):
    image = ("check", "congruence", "--image", "--source", "negtop/L.json",
             "--target", "negtop/Lp.json", "--translation", "negtop/T.json",
             "--relation", "negtop/sim.json")
    code, out, err = cli(*image, "--w", "0,zzz")
    assert (code, out, err) == (USAGE, "", "error: values outside neg3: ['zzz']\n")
    code, out, _ = cli(*image, "--w", "0,1,top")
    assert (code, out) == (FAIL, "congruence: no\nwitness: neg | {X1=1} | {X1=top} | 0 | top\n")
    code, out, _ = cli(*image, "--w", "0,1")
    assert (code, out) == (OK, "congruence: yes\n")


# ------------- the exit-code contract -------------

NEGTOP = ("--source", "negtop/L.json", "--target", "negtop/Lp.json",
          "--translation", "negtop/T.json", "--relation", "negtop/sim.json")
MOD3 = ("--source", "mod3/L.json", "--target", "mod3/Lp.json",
        "--translation", "mod3/T.json", "--relation", "mod3/sim.json")
CYCLE4 = ("--source", "cycle4/L.json", "--target", "cycle4/Lp.json",
          "--translation", "cycle4/T.json", "--relation", "cycle4/sim.json")
ANSWER_EXIT = {"yes": OK, "bisimilar": OK, "no": FAIL, "not bisimilar": FAIL,
               "inconclusive": INCONCLUSIVE}


def _answer(out: str) -> str:
    """The answer word of a verdict's first line: `label: word`, `word` or
    `word: reason`."""
    first = out.splitlines()[0]
    label, _, rest = first.partition(": ")
    return label if label in ANSWER_EXIT else rest


@pytest.mark.parametrize("argv", [
    *(("check", name, *triple) for name in ("valid", "correct", "preserves", "respects")
      for triple in (NEGTOP, MOD3, CYCLE4)),
    *(("check", "congruence", "--image", *triple) for triple in (NEGTOP, MOD3, CYCLE4)),
    ("check", "congruence", "--lang", "negtop/L.json", "--relation", "negtop/sim.json"),
    ("check", "congruence", "--lang", "mod3/Lp.json", "--relation", "mod3/sim.json",
     "--one-hole"),
    ("pi", "bisim", "x!z.0", "new t. (t!t | t(s).x!z.0)"),
    ("pi", "bisim", "x!z.0", "y!z.0", "--kind", "strong-barbed"),
    ("pi", "bisim", "x!a.x!a.x!a | !x(y).0", "0", "--budget", "2"),
    ("pi", "weak-barb", "x!z", "v", "--context", "X | x(u).u!v"),
    ("pi", "weak-barb", "new u. (x!u | u(v).v!z)", "v", "--context", "X | x(u).u!v"),
    ("pi", "weak-barb", "!x(y).(x!y | x!y) | x!a", "q", "--budget", "3"),
], ids=" ".join)
def test_answer_word_matches_exit_code(cli, argv):
    code, out, err = cli(*argv)
    assert err == ""
    assert ANSWER_EXIT[_answer(out)] == code


def _parity(tmp_path, n: int) -> tuple[str, ...]:
    """Z_n against Z_n with the head map s |-> s(s(X1)), ~ relating values of
    equal parity; for even n no semantic translation inside ~ is correct."""
    vals = [str(i) for i in range(n)]
    for name in (f"z{n}", f"z{n}p"):
        _write_json(tmp_path / f"{name}.json", {
            "name": name, "values": vals,
            "operators": [{"name": "s", "arity": 1,
                           "table": {v: str((int(v) + 1) % n) for v in vals}}]})
    _write_json(tmp_path / "T.json", {"source": f"z{n}", "target": f"z{n}p",
                                      "heads": {"s": "s(s(X1))"}})
    pairs = ([[f"z{n}.{v}", f"z{n}p.{v}"] for v in vals]
             + [[f"z{n}.{i}", f"z{n}.{i + 2}"] for i in range(n - 2)])
    _write_json(tmp_path / "sim.json", {
        "kind": "equivalence", "pairs": pairs,
        "carrier": [f"{lang}.{v}" for lang in (f"z{n}", f"z{n}p") for v in vals]})
    return ("--source", str(tmp_path / f"z{n}.json"), "--target", str(tmp_path / f"z{n}p.json"),
            "--translation", str(tmp_path / "T.json"), "--relation", str(tmp_path / "sim.json"))


def test_check_valid_decides_parity_z8(cli, tmp_path):
    code, out, _ = cli("check", "valid", *_parity(tmp_path, 8))
    assert code == FAIL
    assert out == "valid: no\nnote: exhausted 4294967295 candidates\n"
