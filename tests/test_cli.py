"""CLI surface: every subcommand, exit codes, and output determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hintikka
from hintikka import cli, selfcheck
from hintikka.cli import COMMANDS, build_parser, parse_args, run
from hintikka.closure import parse_facts
from hintikka.composition import plain_union_scheme, serialize_scheme
from hintikka.numbersets import QuadrupleSystem, serialize_system
from hintikka.spectra import induce_system_from_facts
from hintikka.structures import (
    Structure,
    Vocabulary,
    path_graph,
    serialize_structure,
)
from hintikka.theory import compute_theory


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    write("p3.struct", serialize_structure(path_graph(3)))
    write("k2a.struct", serialize_structure(path_graph(2, 1, (1,))))
    write("k2b.struct", serialize_structure(path_graph(2, 1, (0,))))
    point = plain_union_scheme(1, 1, 1, ident=((0, 0),), result_refs=(("s", 0, 0),))
    write("point.scm", serialize_scheme(point))
    write("evens.qs", serialize_system(
        QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({2}),))))
    paths["tmp"] = str(tmp_path)
    return paths


def _capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def test_theory_header(files, capsys):
    code, out = _capture(capsys, ["theory", "--model", files["p3.struct"], "--depth", "1"])
    assert code == 0
    assert out.startswith("theory depth=1 tau=E/2 m=0 k=0 digest=")


def test_module_entry_point(files, capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(hintikka.__file__).resolve().parent.parent))

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "hintikka.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    bogus = module_run("--bogus")
    assert bogus.returncode == 2 and "error:" in bogus.stderr
    argv = ["theory", "--model", files["p3.struct"], "--depth", "1"]
    ok = module_run(*argv)
    assert ok.returncode == 0
    assert ok.stdout == _capture(capsys, argv)[1]


def test_glue_and_check_addition(files, capsys):
    code, out = _capture(capsys, [
        "glue", "--left", files["k2a.struct"], "--right", files["k2b.struct"],
        "--scheme", files["point.scm"]])
    assert code == 0 and "size 3" in out
    code, out = _capture(capsys, [
        "check-addition", "--left", files["k2a.struct"], "--right",
        files["k2b.struct"], "--scheme", files["point.scm"], "--depth", "2"])
    assert code == 0 and out.startswith("OK")


def test_pattern_dump(files, capsys):
    code, out = _capture(capsys, [
        "pattern-dump", "--vocab", "E/2", "--scheme", files["point.scm"]])
    assert code == 0
    assert all(line.startswith("E ") for line in out.splitlines())


def test_schemes_enumerate_and_budget_exit(files, capsys):
    code, out = _capture(capsys, [
        "schemes-enumerate", "--vocab", "S/1", "--k1", "0", "--k2", "0",
        "--k", "0", "--kstar", "1"])
    assert code == 0 and out.startswith("# total ")
    code, _ = _capture(capsys, [
        "schemes-enumerate", "--vocab", "E/2", "--k1", "1", "--k2", "1",
        "--k", "1", "--kstar", "2", "--budget", "100"])
    assert code == 2


def test_closure_spectrum_pipeline(files, capsys, tmp_path):
    facts = str(tmp_path / "facts.txt")
    chain = plain_union_scheme(2, 2, 2, ident=((1, 0),),
                               result_refs=(("1", 0), ("2", 1)))
    scheme_path = str(tmp_path / "chain.scm")
    with open(scheme_path, "w") as fh:
        fh.write(serialize_scheme(chain))
    base_path = str(tmp_path / "p2.struct")
    with open(base_path, "w") as fh:
        fh.write(serialize_structure(path_graph(2, 2, (0, 1))))
    code, out = _capture(capsys, [
        "closure", "--vocab", "E/2", "--depth", "0", "--scheme", scheme_path,
        "--base-model", base_path, "--facts-out", facts])
    assert code == 0 and "status=converged" in out
    code, out = _capture(capsys, ["spectrum", "--facts", facts, "--bound", "8"])
    assert code == 0 and out.count("spectrum t=") >= 8


def _fresh_run(*argv):
    """stdout of the CLI run in a fresh interpreter, through the module
    entry point; the command must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(hintikka.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "hintikka.cli", *argv], env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_theory_dump_is_the_same_fresh_and_after_a_warm_up(files, capsys):
    """A fresh interpreter and this one, where other commands have run,
    print the same dump."""
    argv = ["theory", "--model", files["p3.struct"], "--depth", "1", "--dump"]
    fresh = _fresh_run(*argv)
    _capture(capsys, ["theory", "--model", files["k2a.struct"], "--depth", "1"])
    assert _capture(capsys, argv)[1].encode() == fresh


def test_spectrum_whole_file_golden(tmp_path):
    """Whole-file spectrum output of the depth-0 disjoint-union closure over
    all graphs of size at most 1, pinned byte for byte: 17 digests, one
    system. Each command runs in a fresh interpreter, as from a shell; the
    same closure run in-process after other work is pinned below."""
    facts = tmp_path / "du.facts"
    scheme_path = tmp_path / "du.scm"
    scheme_path.write_text("scheme k1=0 k2=0 k=0\n")
    _fresh_run("closure", "--vocab", "E/2", "--depth", "0", "--scheme", str(scheme_path),
               "--small-models", "1", "--facts-out", str(facts))
    assert hashlib.sha256(facts.read_bytes()).hexdigest() == (
        "19b8aefb284eaba4d6c57eb3765ac01bc5dad1b84d43dc360127878d7c8c8cf8")
    out = _fresh_run("spectrum", "--facts", str(facts), "--bound", "16")
    assert out.count(b"spectrum t=") == 17
    assert hashlib.sha256(out).hexdigest() == (
        "bd20abbfcd3a99bb4867efee030b085dc87517f931ea5e516c7e9525b6c79e2b")


def test_closure_facts_do_not_follow_earlier_work(tmp_path, capsys):
    """The facts file lists facts in intern order. Theories computed in
    this process before the command do not move that order: every command
    starts from an empty default interner, so the file is the one a fresh
    interpreter writes."""
    graphs = Vocabulary((("E", 2),))
    for m in (path_graph(3), Structure(graphs, 1, (frozenset({(0, 0)}),)),
              Structure(graphs, 2, (frozenset({(0, 0), (1, 1)}),))):
        compute_theory(m, 0)
    facts = tmp_path / "du.facts"
    scheme_path = tmp_path / "du.scm"
    scheme_path.write_text("scheme k1=0 k2=0 k=0\n")
    code, _ = _capture(capsys, ["closure", "--vocab", "E/2", "--depth", "0",
                                "--scheme", str(scheme_path), "--small-models", "1",
                                "--facts-out", str(facts)])
    assert code == 0
    assert hashlib.sha256(facts.read_bytes()).hexdigest() == (
        "19b8aefb284eaba4d6c57eb3765ac01bc5dad1b84d43dc360127878d7c8c8cf8")


def test_periodicity_and_reach(files, capsys):
    code, out = _capture(capsys, [
        "periodicity", "--system", files["evens.qs"], "--label", "0",
        "--scan", "200", "--window", "16"])
    assert code == 0
    assert "threshold=2 period=2" in out and "reverified=yes" in out
    code, out = _capture(capsys, [
        "system-reach", "--system", files["evens.qs"], "--bound", "12"])
    assert code == 0 and "label 0: 2,4,6,8,10,12" in out
    assert out.startswith("reach bound=12 slack=0 slack_stable=yes exact=yes\n")


def test_system_reach_says_when_its_answer_is_not_exact(tmp_path, capsys):
    """Label 0 counts down from 79 = 80 - 1, where 80 is 10 doubled three
    times: the default window misses it, and the answer (and the
    periodicity certificate read from it) says it is not exact although
    doubling the slack changed nothing."""
    system = tmp_path / "climb.qs"
    system.write_text("labels 7\nrule 0 5 0 1\nrule 0 6 0 0\nrule 1 1 2 0\n"
                      "rule 2 2 3 0\nrule 3 3 4 0\nrule 4 5 0 1\n"
                      "base 1: 10\nbase 5: 0\nbase 6: 1\n")
    code, out = _capture(capsys, ["system-reach", "--system", str(system), "--bound", "30"])
    assert code == 0
    assert out.startswith("reach bound=30 slack=14 slack_stable=yes exact=no\nlabel 0: -\n")
    # the certificate read from that answer calls label 0 finite: not exact either
    code, out = _capture(capsys, ["periodicity", "--system", str(system), "--label", "0",
                                  "--scan", "30", "--window", "5"])
    assert code == 0
    assert out == ("periodicity label=0 threshold=0 period=1 verified_to=30 status=finite "
                   "reverified=yes exact=no\n")


def test_periodicity_does_not_call_a_pumped_set_finite(tmp_path, capsys):
    """The multiples of 50: the scan to 96 sees 50 alone, but the pump
    100 = 50 + 50 proves the set infinite, so no certificate is printed."""
    system = tmp_path / "fifties.qs"
    system.write_text("labels 1\nrule 0 0 0 0\nbase 0: 50\n")
    code, out = _capture(capsys, ["periodicity", "--system", str(system), "--label", "0",
                                  "--scan", "96", "--window", "16"])
    assert (code, out) == (1, "inconclusive label=0 scan=96 window=16\n")


def test_periodicity_and_spectrum_give_a_label_one_status(tmp_path, capsys):
    """The induced system of the spectrum workload's facts: periodicity
    prints, for every label, the certificate that spectrum prints for its
    digest, finite ones included (label 1 is realized at size 1 only)."""
    scheme_path, facts = tmp_path / "du.scm", tmp_path / "du.facts"
    scheme_path.write_text("scheme k1=0 k2=0 k=0\n")
    assert run(["closure", "--vocab", "E/2", "--depth", "0", "--scheme", str(scheme_path),
                "--small-models", "1", "--facts-out", str(facts)]) == 0
    code, spectra = _capture(capsys, ["spectrum", "--facts", str(facts), "--bound", "16"])
    assert code == 0
    system, digests = induce_system_from_facts(*parse_facts(facts.read_text()))
    system_path = tmp_path / "du.qs"
    system_path.write_text(serialize_system(system))
    certificates = [line for line in spectra.splitlines() if line.startswith("periodicity")]
    assert len(certificates) == len(digests) == 17
    for label, certificate in enumerate(certificates):
        code, out = _capture(capsys, ["periodicity", "--system", str(system_path), "--label",
                                      str(label), "--scan", "96", "--window", "16"])
        assert code == 0 and out == certificate + " reverified=yes exact=yes\n"
    assert certificates[1] == ("periodicity label=1 threshold=2 period=1 verified_to=96 "
                               "status=finite")


def test_decompose_and_profile(files, capsys):
    code, out = _capture(capsys, [
        "decompose", "--model", files["p3.struct"], "--k", "1", "--m", "2"])
    assert code == 0 and out.startswith("SPLIT A1=")
    code, out = _capture(capsys, [
        "decompose-profile", "--models", files["p3.struct"], "--k", "1", "--m", "2"])
    assert code == 0 and "decomposable" in out


def test_incidence_and_smalleq(files, capsys, tmp_path):
    code, out = _capture(capsys, ["incidence", "--n", "3"])
    assert code == 0 and "size 6" in out
    target = str(tmp_path / "p2c.struct")
    with open(target, "w") as fh:
        fh.write(serialize_structure(path_graph(2, 1, (0,))))
    code, out = _capture(capsys, [
        "smalleq", "--model", target, "--depth", "0", "--size-max", "2"])
    assert code == 0 and out.startswith("vocab")


def test_gaps(files, capsys):
    code, out = _capture(capsys, ["gaps", "--sizes", "4,8", "--ratio", "2"])
    assert code == 0 and "pairs=(4,8)" in out
    code, out = _capture(capsys, ["gaps", "--sizes", "3 5 9 10", "--ratio", "2"])
    assert code == 0 and "violations=0" in out


def test_oracle_commands(files, capsys):
    code, out = _capture(capsys, [
        "oracle-eval", "--model", files["p3.struct"],
        "--formula", "(exists x (exists y (E x y)))"])
    assert code == 0 and out.strip() == "true"
    code, out = _capture(capsys, [
        "oracle-spectrum", "--vocab", "E/2", "--max-size", "3",
        "--formula", "(exists x (= x x))"])
    assert code == 0 and out.strip() == "1,2,3"


def test_domain_error_exit_code(files, capsys, tmp_path):
    bad = str(tmp_path / "bad.struct")
    with open(bad, "w") as fh:
        fh.write("vocab E/2\nsize 2\nrel E: (0,9)\n")
    code = run(["theory", "--model", bad, "--depth", "0"])
    assert code == 1


def test_unknown_config_key_exit_code(files, capsys, tmp_path):
    # removed fields such as k_star_max are unknown keys: exit 1, no traceback
    cfg = tmp_path / "old.cfg"
    for key in ("k_star_max", "scan_default"):
        cfg.write_text(f"{key}=4\n", encoding="utf-8")
        code = run(["--config", str(cfg), "theory", "--model", files["p3.struct"],
                    "--depth", "0"])
        assert code == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_bad_config_boolean_exit_code(files, capsys, tmp_path):
    # a boolean is one of 1/0/true/false/yes/no; anything else is refused
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("include_empty_model=maybe\n", encoding="utf-8")
    code = run(["--config", str(cfg), "theory", "--model", files["p3.struct"], "--depth", "0"])
    assert code == 1
    assert "line 1: bad value for include_empty_model" in capsys.readouterr().err


P2_TEXT = serialize_structure(path_graph(2))
# (file text, command with {} for the file's path, line refused)
LEAKS = {
    "structure-size-twice": (P2_TEXT + "size 3\n", "theory --model {} --depth 0", 6),
    "structure-const-twice": ("vocab E/2\nconsts 1\nsize 2\nconst 0 = 1\nconst 0 = 0\n",
                              "theory --model {} --depth 0", 5),
    "structure-trailing-token": ("vocab E/2\nsize 2 7\n", "theory --model {} --depth 0", 2),
    "scheme-pattern-twice": ('scheme k1=0 k2=0 k=0\ntable E pattern "x"=1\n'
                             'table E pattern "x"=0\n',
                             "pattern-dump --vocab E/2 --scheme {}", 3),
    "facts-k-not-int": ("base t=a size=2 k=zz\n", "spectrum --facts {} --bound 4", 1),
    "facts-size-negative": ("base t=a size=-2\n", "spectrum --facts {} --bound 4", 1),
    "config-key-twice": ("n_max = 2\nn_max = 5\n",
                         "--config {} theory --model P3 --depth 0", 2),
    "structure-element-out-of-range": ("vocab E/2\nsize 2\nrel E: (0,1) (0,9)\n",
                                       "theory --model {} --depth 0", 3),
    "system-rule-label-out-of-range": ("labels 1\nbase 0: 2\nrule 0 0 5 1\n",
                                       "system-reach --system {} --bound 4", 3),
    "scheme-ident-out-of-range": ("scheme k1=1 k2=1 k=0\nident 0~5\n",
                                  "pattern-dump --vocab E/2 --scheme {}", 2),
}


@pytest.mark.parametrize("leak", LEAKS)
def test_malformed_input_refused_with_its_line(leak, files, capsys, tmp_path):
    text, command, line = LEAKS[leak]
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    argv = [files["p3.struct"] if arg == "P3" else arg.format(path) for arg in command.split()]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"line {line}:" in err and "Traceback" not in err


# commands whose arguments are refused where they enter (exit 1, one error
# line); {p3}, {qs}, {phi} and {du} stand for a structure, a one-label system
# file, a sentence file and a disjoint-union scheme, {s1} for an S/1 structure
BAD_ARGUMENTS = {
    "reach-negative-slack": "system-reach --system {qs} --bound 4 --slack -2",
    "gaps-size-not-int": "gaps --sizes 1,x --ratio 2",
    "gaps-ratio-not-number": "gaps --sizes 1,4 --ratio abc",
    "gaps-ratio-zero-denominator": "gaps --sizes 1,4 --ratio 1/0",
    "gaps-no-sizes": "gaps --ratio 2",
    "gaps-negative-size": "gaps --sizes=-3,-1,2 --ratio 3/2",
    "gaps-negative-threshold": "gaps --sizes 1,2,3 --ratio 2 --threshold -1",
    "periodicity-label-out-of-range": "periodicity --system {qs} --label 5 --scan 40 --window 8",
    "periodicity-window-zero": "periodicity --system {qs} --label 0 --scan 40 --window 0",
    "smalleq-negative-size-max": "smalleq --model {p3} --depth 0 --size-max -1",
    "oracle-spectrum-negative-max-size":
        "oracle-spectrum --vocab E/2 --formula-file {phi} --max-size -1",
    "oracle-eval-arity-mismatch": "oracle-eval --model {p3} --formula-file {unary_e}",
    "oracle-spectrum-arity-mismatch":
        "oracle-spectrum --vocab E/2 --formula-file {unary_e} --max-size 3",
    "oracle-eval-unknown-predicate-after-true-part":
        "oracle-eval --model {p3} --formula-file {or_f}",
    "theory-negative-depth": "theory --model {p3} --depth -1",
    "schemes-negative-k1": "schemes-enumerate --vocab E/2 --k1 -1 --k2 0 --k 0 --kstar 1",
    "schemes-negative-k2": "schemes-enumerate --vocab E/2 --k1 0 --k2 -1 --k 0 --kstar 1",
    "schemes-negative-k": "schemes-enumerate --vocab E/2 --k1 0 --k2 0 --k -1 --kstar 1",
    "schemes-negative-budget":
        "schemes-enumerate --vocab E/2 --k1 0 --k2 0 --k 0 --kstar 1 --budget -1",
    "schemes-negative-kstar": "schemes-enumerate --vocab E/2 --k1 0 --k2 0 --k 0 --kstar -1",
    "closure-negative-small-models":
        "closure --vocab E/2 --depth 0 --scheme {du} --base-model {p3} --small-models -1",
    "closure-negative-small-models-alone":
        "closure --vocab E/2 --depth 0 --scheme {du} --small-models -1",
    "closure-base-model-other-signature":
        "closure --vocab E/2 --depth 0 --scheme {du} --base-model {s1}",
    "pattern-dump-unknown-predicate": "pattern-dump --vocab E/2 --scheme {du} --pred Q",
    "pattern-dump-set-column-without-sets": "pattern-dump --vocab E/2 --scheme {du} --pred P0",
    "pattern-dump-set-column-out-of-range":
        "pattern-dump --vocab E/2 --sets 1 --scheme {du} --pred P3",
}

# what the error line of a refusal must say, where a misleading message was seen
REFUSAL_NAMES = {
    "gaps-negative-threshold": "threshold=-1 is not a natural number",
    "schemes-negative-kstar": "k*=-1 is not a natural number",
    "closure-negative-small-models": "--small-models=-1 is not a natural number",
    "closure-negative-small-models-alone": "--small-models=-1 is not a natural number",
    "closure-base-model-other-signature":
        "signature S/1 sets=0, but --vocab/--sets give E/2 sets=0",
    "oracle-eval-arity-mismatch": "atom (E x): E takes 2 terms, not 1",
    "oracle-spectrum-arity-mismatch": "atom (E x): E takes 2 terms, not 1",
    "oracle-eval-unknown-predicate-after-true-part":
        "atom (F x x): no predicate F in the vocabulary E/2",
    "pattern-dump-unknown-predicate": "no table 'Q' in this vocabulary; tables: E",
    "pattern-dump-set-column-without-sets": "no table 'P0' in this vocabulary; tables: E",
    "pattern-dump-set-column-out-of-range": "no table 'P3' in this vocabulary; tables: E, P0",
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_arguments_refused(case, files, capsys, tmp_path):
    system = tmp_path / "cofinite.qs"
    system.write_text("labels 1\nrule 0 0 0 1\nbase 0: 2\n", encoding="utf-8")
    sentence = tmp_path / "nonempty.mso"
    sentence.write_text("(exists x (= x x))\n", encoding="utf-8")
    unary_e = tmp_path / "unary-e.mso"
    unary_e.write_text("(exists x (E x))\n", encoding="utf-8")
    or_f = tmp_path / "or-f.mso"
    or_f.write_text("(or (exists x (= x x)) (exists x (F x x)))\n", encoding="utf-8")
    union = tmp_path / "du.scm"
    union.write_text("scheme k1=0 k2=0 k=0\n", encoding="utf-8")
    unary = tmp_path / "s1.struct"
    unary.write_text(serialize_structure(
        Structure(Vocabulary((("S", 1),)), 2, (frozenset({(0,)}),))), encoding="utf-8")
    argv = BAD_ARGUMENTS[case].format(p3=files["p3.struct"], qs=system, phi=sentence,
                                      du=union, s1=unary, unary_e=unary_e,
                                      or_f=or_f).split()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert REFUSAL_NAMES.get(case, "") in captured.err.splitlines()[0]


def test_scheme_with_trailing_comment(files, capsys, tmp_path):
    scheme = tmp_path / "commented.scm"
    scheme.write_text('scheme k1=0 k2=0 k=0  # disjoint union\n'
                      'table E pattern "p" = 1  # note\n', encoding="utf-8")
    code, out = _capture(capsys, ["glue", "--left", files["p3.struct"],
                                  "--right", files["p3.struct"], "--scheme", str(scheme)])
    assert code == 0 and out.splitlines()[3] == "size 6"


def test_budget_exit_code(files, capsys):
    code = run(["theory", "--model", files["p3.struct"], "--depth", "4"])
    assert code == 2


def test_system_label_budget_exit_code(files, capsys, tmp_path):
    system = tmp_path / "huge.qs"
    system.write_text("labels 3000000\n", encoding="utf-8")
    assert run(["system-reach", "--system", str(system), "--bound", "4"]) == 2
    assert "budget 'system_labels' exceeded" in capsys.readouterr().err
    config = tmp_path / "small.cfg"
    config.write_text("system_labels_max = 1\n", encoding="utf-8")
    assert run(["--config", str(config), "periodicity", "--system", files["evens.qs"],
                "--label", "0", "--scan", "40", "--window", "8"]) == 0
    system.write_text("labels 2\n", encoding="utf-8")
    assert run(["--config", str(config), "system-reach", "--system", str(system),
                "--bound", "4"]) == 2


def test_selfcheck_golden():
    """selfcheck stdout pinned byte for byte: it carries the closure-spectra
    and numbersets certificates (pump witnesses included, one of them
    empirical), which depend on where the pump search stops."""
    out = _fresh_run("selfcheck", "--seed", "2024")
    assert out.endswith(b"selfcheck ok checks=9 failures=0\n")
    assert hashlib.sha256(out).hexdigest() == (
        "7d7aa02b382fd473a9a18972d5908c58da749607f4f27379421bfdbfcdb23d8d")


def _passing_check():
    return True, ["fine"]


def _failing_check():
    return False, ["planted failure"]


def _malformed_check():
    return True     # not an (ok, detail lines) pair


def test_selfcheck_reports_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(selfcheck, "all_checks", lambda seed: [
        ("planted", _failing_check), ("fine", _passing_check)])
    code, out = _capture(capsys, ["selfcheck"])
    assert code == 1
    assert out == ("check planted: FAIL\n  planted failure\ncheck fine: ok\n  fine\n"
                   "selfcheck FAILED checks=2 failures=1\n")


def test_selfcheck_refuses_malformed_check_result(capsys, monkeypatch):
    # a result that is not an (ok, detail lines) pair is an error, never "ok"
    monkeypatch.setattr(selfcheck, "all_checks", lambda seed: [
        ("fine", _passing_check), ("malformed", _malformed_check)])
    with pytest.raises(TypeError):
        run(["selfcheck"])


# the CLI has no job count and no separate spectrum base file: argparse
# refuses both (exit 2)
@pytest.mark.parametrize("argv", [["--jobs", "2", "selfcheck"],
                                  ["spectrum", "--facts", "f", "--base", "b", "--bound", "8"]],
                         ids=["jobs", "spectrum-base"])
def test_removed_options_refused(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "hintikka: error: " in capsys.readouterr().err


# ``run`` builds only the subcommand that argv names; its help, usage and
# error text must be the full parser's, byte for byte

def _exit_text(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends the program."""
    with pytest.raises(SystemExit) as info:
        parse(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", COMMANDS)
def test_command_help_is_the_full_parsers(name, capsys):
    full = _exit_text(build_parser().parse_args, [name, "--help"], capsys)
    assert full[0] == 0 and full[1].startswith(f"usage: hintikka {name} ")
    assert _exit_text(run, [name, "--help"], capsys) == full


BAD_ARGV = {
    "unknown-option-after-command": ["theory", "--model", "m", "--depth", "1", "--bogus"],
    "unknown-option-and-value": ["spectrum", "--facts", "f", "--base", "b", "--bound", "8"],
    "missing-required-option": ["theory", "--model", "m"],
    "bad-int": ["theory", "--model", "m", "--depth", "x"],
    "unknown-command": ["theroy", "--model", "m"],
    "no-arguments": [],
    "config-before-command": ["--config", "c.cfg", "periodicity", "--system", "q"],
}


@pytest.mark.parametrize("case", BAD_ARGV)
def test_parse_errors_are_the_full_parsers(case, capsys):
    argv = BAD_ARGV[case]
    full = _exit_text(build_parser().parse_args, argv, capsys)
    assert full[0] == 2 and full[1] == "" and full[2].startswith("usage: hintikka")
    assert _exit_text(run, argv, capsys) == full


VALID_ARGV = {
    "theory": "--model m --depth 1 --dump --out o",
    "pattern-dump": "--vocab E/2 --sets 1 --scheme s --pred E",
    "glue": "--left a --right b --scheme s",
    "check-addition": "--left a --right b --scheme s --depth 1",
    "schemes-enumerate": "--vocab E/2 --k1 0 --k2 1 --k 1 --kstar 2 --budget 5",
    "closure": ("--vocab E/2 --depth 0 --scheme s --scheme t --base-model m "
                "--small-models 1 --max-iter 3 --facts-out f"),
    "spectrum": "--facts f --theory t --bound 8",
    "periodicity": "--system q --label 0 --scan 40 --window 8",
    "system-reach": "--system q --bound 4 --slack 2",
    "decompose": "--model m --k 1 --m 2",
    "decompose-profile": "--models a b --k 1 --m 2",
    "incidence": "--n 3",
    "smalleq": "--model m --depth 0 --size-max 3",
    "gaps": "--sizes 1,2 --sizes-file z --ratio 3/2 --threshold 1",
    "oracle-eval": "--model m --formula phi --formula-file f",
    "oracle-spectrum": "--vocab E/2 --consts 1 --sets 1 --formula phi --max-size 3",
    "selfcheck": "--seed 7",
}


def test_every_command_has_a_valid_argv():
    assert list(VALID_ARGV) == list(COMMANDS)


@pytest.mark.parametrize("name", VALID_ARGV)
def test_one_command_parser_reads_what_the_full_parser_reads(name):
    argv = [name, *VALID_ARGV[name].split()]
    full = build_parser().parse_args(argv)
    assert build_parser([name], cli._OneCommandParser).parse_args(argv) == full
    assert parse_args(argv) == full
    assert parse_args(["--config", "c.cfg", *argv]) == build_parser().parse_args(
        ["--config", "c.cfg", *argv])
