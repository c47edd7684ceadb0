"""Command line goldens: exact stdout and exit codes over the fixture files."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, chain_text, translated_chain_text

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


@pytest.mark.parametrize("depth", ["0", "-2"])
@pytest.mark.parametrize("command", ["preserves", "respects"])
def test_check_refuses_a_depth_below_1(cli, command, depth):
    # respects at --depth -2 answered no and exited 1
    code, out, err = cli("check", command,
                         "--source", "cycle4/L.json", "--target", "cycle4/Lp.json",
                         "--translation", "cycle4/T.json", "--relation", "cycle4/sim.json",
                         "--depth", depth)
    assert (code, out, err) == (USAGE, "", "error: depth must be >= 1\n")


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


def test_deeply_nested_term_gets_an_answer(cli):
    # parse, translate and plug walk a term of any depth
    term = "x!a." * 1500 + "0"
    assert cli("pi", "parse", term) == (OK, chain_text(1500) + "\n", "")
    assert cli("pi", "translate", term) == (OK, translated_chain_text(1500) + "\n", "")
    assert cli("pi", "plug", term, "--context", "a(b).X") == (OK, f"a(b).{chain_text(1500)}\n", "")


def test_bisim_takes_the_chains_print_takes():
    # bisim normalizes both roots itself, at the depth print does: two chains
    # of 195 nested x!a. prefixes, the second ending in x!b, are compared
    # (each state shows only the barb x!, and no state moves); both commands
    # take 198
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    p, q = chain_text(195), chain_text(194) + ".x!b"
    runs = [subprocess.run([sys.executable, "-m", "transcheck", "pi", *argv],
                           env=env, capture_output=True, text=True)
            for argv in (("print", p), ("bisim", p, q))]
    assert [(run.returncode, run.stdout, run.stderr) for run in runs] == [
        (OK, p + "\n", ""), (OK, "bisimilar\n", "")]


def test_recursion_error_is_an_input_error(cli, monkeypatch):
    def too_deep(*_):
        raise RecursionError

    monkeypatch.setattr("transcheck.cli.print_pi", too_deep)
    assert cli("pi", "parse", "x!a") == (USAGE, "", "error: input nested too deeply to process\n")


@pytest.mark.parametrize("argv, call", [
    (("check", "preserves", "--source", "cycle4/L.json", "--target", "cycle4/Lp.json",
      "--translation", "cycle4/T.json", "--relation", "cycle4/sim.json"), "check_preserves"),
    (("pi", "explore", "x!a | x(y).0"), "explore"),
])
def test_memory_error_is_inconclusive(cli, monkeypatch, argv, call):
    # running out of memory is a resource limit: it must not read as "fails"
    def exhausted(*_, **__):
        raise MemoryError

    monkeypatch.setattr(f"transcheck.cli.{call}", exhausted)
    code, out, err = cli(*argv)
    assert (code, out) == (INCONCLUSIVE, "")
    assert err == "inconclusive: the check ran out of memory\n"
    assert "Traceback" not in err


def test_wide_parallel_composition_gets_an_answer(cli):
    # width is not nesting: 2,000 parallel threads are processed, not refused
    term = " | ".join(["x!a"] * 2000)
    code, out, err = cli("pi", "print", term)
    assert (code, out, err) == (OK, term + "\n", "")
    code, out, err = cli("pi", "explore", term, "--budget", "5")
    assert (code, err) == (OK, "")
    assert out == f"states: 1 (complete)\n0: {term}  barbs[x!]  -> -\ndivergent: none\n"
    # nor is it under a prefix or a replication
    term = "x(y).(" + " | ".join(["a!b"] * 1200) + ")"
    assert cli("pi", "parse", term) == (OK, term + "\n", "")
    assert cli("pi", "print", term) == (OK, term + "\n", "")
    repl = "!(" + " | ".join(["a!b"] * 1200) + ")"
    out = f"states: 1 (complete)\n0: {repl}  barbs[a!]  -> -\ndivergent: none\n"
    assert cli("pi", "explore", repl, "--budget", "3") == (OK, out, "")
    assert cli("pi", "plug", term, "--context", "a(b).X") == (OK, f"a(b2).{term}\n", "")
    threads = " | ".join(f"new _b{i}. (a!_b{i} | _b{i}(_b{i + 1}).(_b{i + 1}!b | 0))"
                         for i in range(2, 2402, 2))
    out = f"x(_b0).new _b1. (_b0!_b1 | _b1(y).({threads}))\n"
    assert cli("pi", "translate", term) == (OK, out, "")


@pytest.mark.parametrize("barb", ["!", "@", "x y!", "X!"])
def test_malformed_barb_is_usage_error(cli, barb):
    code, out, err = cli("pi", "weak-barb", "x!a", barb)
    assert (code, out) == (USAGE, "")
    assert err.startswith(f"error: barb {barb!r}: ")


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


def test_relation_pair_of_three_values_is_usage_error(cli, tmp_path):
    rel = _write_json(tmp_path / "rel.json", {
        "name": "r", "kind": "equivalence", "carrier": ["neg2.0", "neg2.1"],
        "pairs": [["neg2.0", "neg2.1", "neg2.0"]]})
    code, out, err = cli("closure", "--lang", "negtop/L.json", "--relation", rel)
    assert (code, out) == (USAGE, "")
    assert err == ('error: relation pair ["neg2.0", "neg2.1", "neg2.0"] '
                   "is not a pair of two values\n")


def test_language_with_a_duplicate_operator_name_is_rejected(cli, tmp_path):
    data = json.loads((FIXTURES / "negtop" / "L.json").read_text())
    data["operators"].append({"name": "neg", "arity": 1, "table": {"0": "0", "1": "1"}})
    lang = _write_json(tmp_path / "L.json", data)
    message = "neg2: duplicate operator names ['neg']"
    code, out, _ = cli("lang", "validate", "--lang", lang)
    assert (code, out) == (FAIL, f"invalid: {message}\n")
    code, out, err = cli("closure", "--lang", lang, "--relation", "negtop/sim.json")
    assert (code, out, err) == (USAGE, "", f"error: {message}\n")


def test_carrier_or_values_that_are_not_lists_are_rejected(cli, tmp_path):
    rel = _write_json(tmp_path / "rel.json", {"name": "r", "kind": "equivalence",
                                              "carrier": 5, "pairs": []})
    code, out, err = cli("closure", "--lang", "negtop/L.json", "--relation", rel)
    assert (code, out, err) == (USAGE, "", "error: relation carrier is not a JSON list of values\n")
    data = json.loads((FIXTURES / "negtop" / "L.json").read_text())
    lang = _write_json(tmp_path / "L.json", {**data, "values": 5})
    code, out, _ = cli("lang", "validate", "--lang", lang)
    assert (code, out) == (FAIL, "invalid: language values are not a JSON list of values\n")
    code, out, err = cli("closure", "--lang", lang, "--relation", "negtop/sim.json")
    assert (code, out, err) == (USAGE, "", "error: language values are not a JSON list of values\n")


def test_values_of_mixed_types_are_usage_errors(cli, tmp_path):
    # values are sorted, and a number does not sort beside a string: a
    # carrier [1, "neg2.0", "neg2.1"] once gave a TypeError traceback, exit 1
    rel = _write_json(tmp_path / "rel.json", {"name": "r", "kind": "equivalence",
                                              "carrier": [1, "neg2.0", "neg2.1"], "pairs": []})
    assert_input_error(cli("closure", "--lang", "negtop/L.json", "--relation", rel),
                       "relation carrier is not a JSON list of values")
    data = json.loads((FIXTURES / "negtop" / "L.json").read_text())
    lang = _write_json(tmp_path / "L.json", {**data, "values": ["0", "1", 2]})
    assert_input_error(cli("closure", "--lang", lang, "--relation", "negtop/sim.json"),
                       "language values are not a JSON list of values")
    data["operators"][2]["table"]["0"] = 1
    lang = _write_json(tmp_path / "L.json", data)
    assert_input_error(cli("closure", "--lang", lang, "--relation", "negtop/sim.json"),
                       "operator neg table results are not values")


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


SAMECOPY = ("--source", "samecopy/L.json", "--target", "samecopy/Lp.json")


def assert_input_error(result, message):
    """A malformed file is an input error (exit 3), reported on stderr, and
    never a failed check (exit 1) or a traceback."""
    code, out, err = result
    assert (code, out, err) == (USAGE, "", f"error: {message}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("data, message", [
    ({"name": "R"}, "semantic translation file lacks keys: ['pairs']"),
    ({"pairs": [["a", "b", "c"]]},
     'semantic translation pair ["a", "b", "c"] is not a pair of two value names'),
    ({"pairs": 5}, "semantic translation pairs are not a JSON list"),
    ([1, 2], "semantic translation file is not a JSON object"),
], ids=["no-pairs", "three-values", "pairs-not-a-list", "not-an-object"])
def test_malformed_semantic_translation_is_usage_error(cli, tmp_path, data, message):
    semtrans = _write_json(tmp_path / "R.json", data)
    assert_input_error(cli("check", "correct", *SAMECOPY, "--translation", "samecopy/T.json",
                           "--semtrans", semtrans), message)
    assert_input_error(cli("lr-closure", "--lang", "samecopy/L.json",
                           "--relation", "samecopy/sim.json", "--semtrans", semtrans), message)


@pytest.mark.parametrize("heads, message", [
    (5, "translation head map is not a JSON object"),
    (["a"], "translation head map is not a JSON object"),
    ({"yes": 5, "no": "no", "same": "same(X1, X2)"}, "translation head yes: 5 is not a term"),
], ids=["number", "list", "head-not-a-string"])
def test_malformed_translation_heads_are_usage_error(cli, tmp_path, heads, message):
    data = json.loads((FIXTURES / "samecopy" / "T.json").read_text())
    tr = _write_json(tmp_path / "T.json", {**data, "heads": heads})
    assert_input_error(cli("check", "correct", *SAMECOPY, "--translation", tr,
                           "--semtrans", "samecopy/R.json"), message)


@pytest.mark.parametrize("table, message", [
    (5, "operator neg table is not a JSON object"),
    ({"0": ["0"], "1": "0"}, "operator neg table results are not values"),
], ids=["number", "list-result"])
def test_malformed_operator_table_is_usage_error(cli, tmp_path, table, message):
    data = json.loads((FIXTURES / "negtop" / "L.json").read_text())
    data["operators"][2]["table"] = table
    lang = _write_json(tmp_path / "L.json", data)
    assert_input_error(cli("check", "valid", "--source", lang, *NEGTOP[2:]), message)
    # lang validate reports the same fault as its answer
    assert cli("lang", "validate", "--lang", lang) == (FAIL, f"invalid: {message}\n", "")


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


@pytest.mark.parametrize("w, message", [
    ("", "--w lists no value"), ("0,0", "--w repeats ['0']"),
    ("1,0,top,1,0", "--w repeats ['0', '1']"),
], ids=["empty", "twice", "two-twice"])
def test_check_congruence_on_image_refuses_an_empty_or_repeating_w(cli, w, message):
    # --w "" was taken as no --w: the check ran over U and answered
    # "congruence: no", exit 1
    assert_input_error(cli("check", "congruence", "--image", *NEGTOP, "--w", w), message)


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


def _dotted_target(tmp_path) -> tuple[str, ...]:
    """The identity from a over x to b.2 over x: a target language whose
    name holds a dot, with the relation relating the two x."""
    for name in ("a", "b.2"):
        _write_json(tmp_path / f"{name}.json", {
            "name": name, "values": ["x"],
            "operators": [{"name": "f", "arity": 1, "table": {"x": "x"}}]})
    _write_json(tmp_path / "T.json", {"source": "a", "target": "b.2", "heads": {"f": "f(X1)"}})
    _write_json(tmp_path / "sim.json", {"kind": "equivalence", "carrier": ["a.x", "b.2.x"],
                                        "pairs": [["b.2.x", "a.x"]]})
    return ("--source", str(tmp_path / "a.json"), "--target", str(tmp_path / "b.2.json"),
            "--translation", str(tmp_path / "T.json"))


def test_a_dotted_target_name_is_read_through_its_language(cli, tmp_path):
    # check correct cut the target name at its first dot and ended in
    # KeyError ('2.x',), a traceback and exit 1
    triple = _dotted_target(tmp_path)
    assert cli("check", "correct", *triple, "--relation", str(tmp_path / "sim.json")) == (
        OK, "correct: yes\n", "")
    assert cli("check", "preserves", *triple, "--relation", str(tmp_path / "sim.json")) == (
        OK, "preserves: yes\nwitness: bT(x)=x\nnote: preserves\n", "")


def test_a_semantic_translation_pair_outside_the_target_is_usage_error(cli, tmp_path):
    # the target zz.q was cut to q and looked up in b.2's tables: KeyError, exit 1
    triple = _dotted_target(tmp_path)
    semtrans = _write_json(tmp_path / "R.json", {"pairs": [["zz.q", "a.x"], ["b.2.x", "a.x"]]})
    assert_input_error(cli("check", "correct", *triple, "--semtrans", semtrans),
                       "semantic translation pair (zz.q, a.x) names a target value outside b.2")


def test_a_language_with_a_repeated_value_is_refused(cli, tmp_path):
    # lang validate said "ok: l (2 values, 0 operators)", and closure
    # printed the class {a, a}
    lang = _write_json(tmp_path / "l.json", {"name": "l", "values": ["a", "a"], "operators": []})
    rel = _write_json(tmp_path / "sim.json", {"kind": "equivalence", "carrier": ["l.a"],
                                              "pairs": []})
    message = "l: duplicate values ['a']"
    assert cli("lang", "validate", "--lang", lang) == (FAIL, f"invalid: {message}\n", "")
    assert_input_error(cli("closure", "--lang", lang, "--relation", rel), message)
    assert_input_error(cli("check", "congruence", "--lang", lang, "--relation", rel), message)
    assert_input_error(cli("check", "valid", "--source", lang, *NEGTOP[2:]), message)


def assert_language_refused(cli, lang, message):
    """lang validate answers invalid, and every command that loads the
    language exits 3, with one message."""
    rel = "negtop/sim.json"
    assert cli("lang", "validate", "--lang", lang) == (FAIL, f"invalid: {message}\n", "")
    assert_input_error(cli("closure", "--lang", lang, "--relation", rel), message)
    assert_input_error(cli("check", "congruence", "--lang", lang, "--relation", rel), message)
    assert_input_error(cli("check", "valid", "--source", lang, *NEGTOP[2:]), message)


@pytest.mark.parametrize("arity, table, shown", [
    (-1, {}, "-1"),
    ("1", {"a": "a"}, '"1"'),
    (True, {"a": "a"}, "true"),
    (1.5, {"a": "a"}, "1.5"),
], ids=["negative", "string", "bool", "float"])
def test_an_operator_arity_that_is_no_count_is_refused(cli, tmp_path, arity, table, shown):
    # -1 ended in a ValueError traceback (exit 1); "1" was reported as a key
    # that does not match arity 1
    lang = _write_json(tmp_path / "l.json", {"name": "l", "values": ["a"], "operators": [
        {"name": "f", "arity": arity, "table": table}]})
    assert_language_refused(cli, lang, f"operator f: arity {shown} is not a nonnegative integer")


@pytest.mark.parametrize("data, message", [
    ({"name": 5, "values": ["a"], "operators": []}, "language name 5 is not a nonempty string"),
    ({"name": "", "values": ["a"], "operators": []},
     'language name "" is not a nonempty string'),
    ({"name": "l", "values": ["a"], "operators": [{"name": ["f"], "arity": 0,
                                                   "table": {"": "a"}}]},
     'operator name ["f"] is not a nonempty string'),
    ({"name": "l", "values": ["a"], "operators": [{"name": "", "arity": 0,
                                                   "table": {"": "a"}}]},
     'operator name "" is not a nonempty string'),
], ids=["language-number", "language-empty", "operator-list", "operator-empty"])
def test_a_name_that_is_no_string_is_refused(cli, tmp_path, data, message):
    # {"name": 5} validated as "ok: 5", and closure and check congruence
    # answered on an operator named ["f"]
    assert_language_refused(cli, _write_json(tmp_path / "l.json", data), message)


@pytest.mark.parametrize("extra, message", [
    (("--image", "--one-hole", *NEGTOP), "--image does not take --one-hole"),
    (("--image", "--lang", "negtop/L.json", *NEGTOP), "--image does not take --lang"),
    (("--lang", "negtop/L.json", "--relation", "negtop/sim.json", "--w", "0"),
     "--w needs --image"),
    # an empty --w was not refused: "congruence: yes", exit 0
    (("--lang", "negtop/L.json", "--relation", "negtop/sim.json", "--w", ""),
     "--w needs --image"),
    (("--lang", "negtop/L.json", *NEGTOP), "--source needs --image"),
    (("--lang", "negtop/L.json", "--relation", "negtop/sim.json",
      "--target", "negtop/Lp.json"), "--target needs --image"),
    (("--lang", "negtop/L.json", "--relation", "negtop/sim.json",
      "--translation", "negtop/T.json"), "--translation needs --image"),
], ids=["one-hole-with-image", "lang-with-image", "w", "empty-w", "source", "target",
        "translation"])
def test_check_congruence_refuses_options_its_mode_does_not_read(cli, extra, message):
    # --one-hole with --image was ignored, and the all-positions check on
    # the image answered "congruence: no", exit 1
    assert_input_error(cli("check", "congruence", *extra), message)


@pytest.mark.parametrize("relation", ["no/such/file.json", "samecopy/sim.json", ""])
def test_check_correct_with_semtrans_refuses_a_relation(cli, relation):
    # --relation was never opened: a missing file answered "correct: yes", exit 0
    assert_input_error(cli("check", "correct", *SAMECOPY, "--translation", "samecopy/T.json",
                           "--semtrans", "samecopy/R.json", "--relation", relation),
                       "--semtrans does not take --relation")


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


# ------------- one parser per process -------------

def test_in_process_calls_match_runs_on_their_own(cli, monkeypatch):
    # the parser is built once and reused: a usage error, help, a finite
    # check and a pi check in one process each answer as in a process of
    # their own
    from transcheck.cli import _build_parser
    calls = [("pi", "weak-barb", "x!a"), ("--help",), ("check", "valid", *NEGTOP),
             ("pi", "weak-barb", " | ".join(["x!z"] * 2 + ["x(y).r!y"] * 2), "r",
              "--boudol", "--budget", "50")]
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "COLUMNS": "80", "TRANSCHECK_FIXTURES": str(FIXTURES),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    alone = [subprocess.run([sys.executable, "-m", "transcheck", *argv],
                            env=env, capture_output=True, text=True) for argv in calls]
    assert [run.returncode for run in alone] == [USAGE, OK, OK, OK]
    assert [cli(*argv) for argv in calls] == [
        (run.returncode, run.stdout, run.stderr) for run in alone]
    assert _build_parser() is _build_parser()


# ------------- refusals -------------

@pytest.mark.parametrize("trials", ["0", "-3"])
def test_property_suite_refuses_fewer_than_one_trial(cli, trials):
    # --trials -3 printed "trials: -3", no violations, and exited 0
    assert cli("property-suite", "--trials", trials) == (
        USAGE, "", "error: trials must be >= 1\n")


@pytest.mark.parametrize("text", ["", "\n   \n# a comment\n"], ids=["empty", "comments"])
def test_full_abstraction_refuses_an_empty_pair_list(cli, tmp_path, text):
    # printed pass=0 fail=0 inconclusive=0 and exited 0, where check-encoding
    # refuses an empty term list
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(text)
    assert cli("pi", "full-abstraction", "--pairs", str(pairs)) == (
        USAGE, "", f"error: no pairs given ({pairs} lists none)\n")


@pytest.mark.parametrize("argv", [
    ("reduce", "X | x!a | x(y).0"), ("barbs", "X | x!a"), ("explore", "X | x!a"),
    ("weak-barb", "X | x!a", "x!"), ("bisim", "x!a", "X | x!a"), ("bisim", "Y", "x!a"),
], ids=" ".join)
def test_every_command_that_runs_a_process_refuses_an_open_one(cli, argv):
    # what X does is unknown: pi reduce printed X and pi barbs printed x!,
    # both with exit 0
    free = "Y" if "Y" in argv else "X"
    assert cli("pi", *argv) == (
        USAGE, "", f"error: cannot explore a process with free process variables: ['{free}']\n")


def test_a_subject_plugged_into_a_context_is_closed(cli):
    assert cli("pi", "reduce", "x!a", "--context", "X | x(y).y!b") == (OK, "a!b\n", "")
    assert cli("pi", "barbs", "x!a", "--context", "X | y!b") == (OK, "x!\ny!\n", "")


def test_pi_plug_needs_a_context(cli):
    code, out, err = cli("pi", "plug", "x!a")
    assert (code, out) == (USAGE, "")
    assert err.endswith("error: the following arguments are required: --context\n")


# ------------- the parser's shape -------------

STORE, FLAG = "_StoreAction", "_StoreTrueAction"
KINDS = ("strong-barbed", "weak-barbed", "branching-barbed", "dp-branching-barbed",
         "wdp-branching-barbed")

# every command's arguments in order, as (option string or positional, dest,
# action class, default, type, choices, required, nargs), recorded from the
# parser that declared each command's options on the command itself
PARSER_SHAPE = {
    "lang validate": [
        ("--lang", "lang", STORE, None, None, None, True, None),
    ],
    "check congruence": [
        ("--lang", "lang", STORE, None, None, None, False, None),
        ("--relation", "relation", STORE, None, None, None, True, None),
        ("--one-hole", "one_hole", FLAG, False, None, None, False, 0),
        ("--image", "image", FLAG, False, None, None, False, 0),
        ("--source", "source", STORE, None, None, None, False, None),
        ("--target", "target", STORE, None, None, None, False, None),
        ("--translation", "translation", STORE, None, None, None, False, None),
        ("--w", "w", STORE, None, None, None, False, None),
    ],
    "check correct": [
        ("--source", "source", STORE, None, None, None, True, None),
        ("--target", "target", STORE, None, None, None, True, None),
        ("--translation", "translation", STORE, None, None, None, True, None),
        ("--relation", "relation", STORE, None, None, None, False, None),
        ("--semtrans", "semtrans", STORE, None, None, None, False, None),
    ],
    "check valid": [
        ("--source", "source", STORE, None, None, None, True, None),
        ("--target", "target", STORE, None, None, None, True, None),
        ("--translation", "translation", STORE, None, None, None, True, None),
        ("--relation", "relation", STORE, None, None, None, True, None),
    ],
    "check preserves": [
        ("--source", "source", STORE, None, None, None, True, None),
        ("--target", "target", STORE, None, None, None, True, None),
        ("--translation", "translation", STORE, None, None, None, True, None),
        ("--relation", "relation", STORE, None, None, None, True, None),
        ("--depth", "depth", STORE, 3, "int", None, False, None),
    ],
    "check respects": [
        ("--source", "source", STORE, None, None, None, True, None),
        ("--target", "target", STORE, None, None, None, True, None),
        ("--translation", "translation", STORE, None, None, None, True, None),
        ("--relation", "relation", STORE, None, None, None, True, None),
        ("--depth", "depth", STORE, 3, "int", None, False, None),
    ],
    "closure": [
        ("--lang", "lang", STORE, None, None, None, True, None),
        ("--relation", "relation", STORE, None, None, None, True, None),
    ],
    "lr-closure": [
        ("--lang", "lang", STORE, None, None, None, True, None),
        ("--relation", "relation", STORE, None, None, None, True, None),
        ("--semtrans", "semtrans", STORE, None, None, None, True, None),
    ],
    "compose": [
        ("--source", "source", STORE, None, None, None, True, None),
        ("--mid", "mid", STORE, None, None, None, True, None),
        ("--target", "target", STORE, None, None, None, True, None),
        ("--first", "first", STORE, None, None, None, True, None),
        ("--second", "second", STORE, None, None, None, True, None),
    ],
    "property-suite": [
        ("--trials", "trials", STORE, 200, "int", None, False, None),
        ("--seed", "seed", STORE, 42, "int", None, False, None),
    ],
    "pi parse": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("term", "term", STORE, None, None, None, True, None),
    ],
    "pi print": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("term", "term", STORE, None, None, None, True, None),
        ("--context", "context", STORE, None, None, None, False, None),
        ("--boudol", "boudol", FLAG, False, None, None, False, 0),
    ],
    "pi reduce": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("term", "term", STORE, None, None, None, True, None),
        ("--context", "context", STORE, None, None, None, False, None),
        ("--boudol", "boudol", FLAG, False, None, None, False, 0),
    ],
    "pi explore": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("term", "term", STORE, None, None, None, True, None),
        ("--budget", "budget", STORE, 200, "int", None, False, None),
        ("--input-barbs", "input_barbs", FLAG, False, None, None, False, 0),
        ("--context", "context", STORE, None, None, None, False, None),
        ("--boudol", "boudol", FLAG, False, None, None, False, 0),
    ],
    "pi barbs": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("term", "term", STORE, None, None, None, True, None),
        ("--input-barbs", "input_barbs", FLAG, False, None, None, False, 0),
        ("--context", "context", STORE, None, None, None, False, None),
        ("--boudol", "boudol", FLAG, False, None, None, False, 0),
    ],
    "pi weak-barb": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("term", "term", STORE, None, None, None, True, None),
        ("barb", "barb", STORE, None, None, None, True, None),
        ("--budget", "budget", STORE, 200, "int", None, False, None),
        ("--context", "context", STORE, None, None, None, False, None),
        ("--boudol", "boudol", FLAG, False, None, None, False, 0),
    ],
    "pi bisim": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("left", "left", STORE, None, None, None, True, None),
        ("right", "right", STORE, None, None, None, True, None),
        ("--kind", "kind", STORE, "weak-barbed", None, KINDS, False, None),
        ("--budget", "budget", STORE, 200, "int", None, False, None),
        ("--input-barbs", "input_barbs", FLAG, False, None, None, False, 0),
    ],
    "pi translate": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("term", "term", STORE, None, None, None, True, None),
    ],
    "pi plug": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("term", "term", STORE, None, None, None, True, None),
        ("--context", "context", STORE, None, None, None, True, None),
        ("--boudol", "boudol", FLAG, False, None, None, False, 0),
    ],
    "pi check-encoding": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("terms", "terms", STORE, None, None, None, True, "*"),
        ("--file", "file", STORE, None, None, None, False, None),
        ("--kind", "kind", STORE, "weak-barbed", None, KINDS, False, None),
        ("--budget", "budget", STORE, 200, "int", None, False, None),
    ],
    "pi full-abstraction": [
        ("--allow-reserved", "allow_reserved", FLAG, False, None, None, False, 0),
        ("--ext", "ext", STORE, None, None, None, False, None),
        ("--pairs", "pairs", STORE, None, None, None, True, None),
        ("--kind", "kind", STORE, "weak-barbed", None, KINDS, False, None),
        ("--budget", "budget", STORE, 200, "int", None, False, None),
    ],
}


def _shape(parser) -> dict[str, list[tuple]]:
    """The arguments of each command of parser, as in PARSER_SHAPE."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {"": [(a.option_strings[0] if a.option_strings else a.dest, a.dest,
                      type(a).__name__, a.default, a.type and a.type.__name__,
                      a.choices and tuple(a.choices), a.required, a.nargs)
                     for a in parser._actions if not isinstance(a, argparse._HelpAction)]}
    return {f"{name} {path}".strip(): args for name, p in subs[0].choices.items()
            for path, args in _shape(p).items()}


def test_every_command_keeps_its_arguments():
    # options moved onto shared parent parsers: no option is added, dropped
    # or renamed, and none changes its dest, default, type, choices,
    # requiredness, arity or place
    from transcheck.cli import _build_parser
    shape = _shape(_build_parser())
    assert list(shape) == list(PARSER_SHAPE)
    for command, args in PARSER_SHAPE.items():
        assert shape[command] == args, command
