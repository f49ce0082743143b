"""Command-line surface and the experiment pipeline runner."""

import json
import re
import tracemalloc

import pytest

import rainbow_lattice
from rainbow_lattice import cli
from rainbow_lattice.cli import main
from rainbow_lattice.experiments import congen_trial_rows, run_experiment


def run_cli(*argv):
    return main(list(argv))


def test_construct_and_detect(tmp_path, capsys):
    out = tmp_path / "coloring.json"
    assert run_cli("construct", "--type", "lift3", "--n", "5",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["class_sizes"] == [8, 8, 8]
    coloring_path = tmp_path / "c.json"
    coloring_path.write_text(json.dumps(data["coloring"]))
    assert run_cli("detect", "--coloring", str(coloring_path),
                   "--forbid", "P3,V2,W2", "--mode", "induced") == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "ok"


def test_detect_reports_witness(tmp_path, capsys):
    coloring = {"n": 2, "l": 2, "colors": [0, 1, 2, 0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(coloring))
    assert run_cli("detect", "--coloring", str(path), "--forbid", "A2") == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "rainbow" and out["sets"] == [1, 2]


def test_detect_family_mode(capsys):
    assert run_cli("detect", "--family", '[0, 1, 3]', "--poset", "P3") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["found"]


def test_solve_command(tmp_path):
    out = tmp_path / "res.json"
    assert run_cli("solve", "--n", "3", "--colors", "3",
                   "--forbid", "P3,V2,W2", "--kind", "partial",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["value"] == 2 and data["status"] == "optimal"
    assert data["witness"]["colors"]


def test_decompose_command(capsys):
    assert run_cli("decompose", "--n", "3",
                   "--families", '[["{1}", "{2}"], [3]]') == 0
    out = json.loads(capsys.readouterr().out)
    assert out["found"] and out["chain"] == [0, 3, 7]
    # a violated hypothesis is a usage error: one line on stderr, nothing on stdout
    assert run_cli("decompose", "--n", "3", "--families", '[[1], [2]]') == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_bounds_commands(capsys):
    assert run_cli("bounds", "--op", "m", "--l", "6") == 0
    assert json.loads(capsys.readouterr().out)["m"] == 4
    assert run_cli("bounds", "--op", "formulaA2", "--n", "4", "--l", "2") == 0
    assert json.loads(capsys.readouterr().out)["value"] == 3
    assert run_cli("bounds", "--op", "eq", "--l", "2", "--i", "1") == 0
    assert json.loads(capsys.readouterr().out)["holds"]
    assert run_cli("bounds", "--op", "c0") == 0
    assert json.loads(capsys.readouterr().out)["roots"] == []
    assert run_cli("bounds", "--op", "known", "--n", "5", "--l", "2",
                   "--forbid", "A2") == 0
    assert json.loads(capsys.readouterr().out)["value"] == 5


def test_congen_command(tmp_path, capsys):
    csv_path = tmp_path / "sizes.csv"
    assert run_cli("congen", "--n", "12", "--k", "3", "--l", "2",
                   "--trials", "5", "--seed", "3", "--report", str(csv_path)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trials"] == 5
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,seed,condition_pass,min_class_size"
    assert len(lines) == 6


def test_verify_quick_exits_clean(capsys):
    assert run_cli("verify", "--profile", "quick", "--format", "text") == 0
    text = capsys.readouterr().out
    assert "RESULT: PASS" in text


def test_run_experiment(tmp_path):
    spec = {
        "name": "demo",
        "seed": 5,
        "pipeline": [
            {"op": "construct", "type": "lift3", "n": 5, "out": "lift.json"},
            {"op": "validate", "coloring": "lift.json", "forbid": "P3,V2,W2"},
            {"op": "stats", "coloring": "lift.json", "out": "stats.csv"},
            {"op": "congen_trials", "n": 12, "k": 3, "l": 2, "trials": 4,
             "out": "trials.csv"},
        ],
    }
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(spec))
    outdir = tmp_path / "results"
    manifest = run_experiment(spec_path, outdir=outdir)
    assert (outdir / "manifest.json").is_file()
    assert (outdir / "lift.json").is_file()
    assert (outdir / "stats.csv").read_text().startswith("class,size")
    assert len((outdir / "trials.csv").read_text().strip().splitlines()) == 5
    assert manifest["steps"][1]["verdict"] == "ok"
    assert manifest["seed"] == 5


def test_run_experiment_missing_file_no_outputs(tmp_path):
    with pytest.raises(FileNotFoundError):
        run_experiment(tmp_path / "nope.json", outdir=tmp_path / "res")
    assert not (tmp_path / "res").exists()


def test_run_experiment_failing_validate_writes_nothing(tmp_path):
    spec = {
        "pipeline": [
            {"op": "construct", "type": "p3", "n": 4, "out": "c.json"},
            {"op": "validate", "coloring": "c.json", "forbid": "A2"},
        ],
    }
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(spec))
    outdir = tmp_path / "res"
    with pytest.raises(ValueError, match="rainbow"):
        run_experiment(spec_path, outdir=outdir)
    assert not outdir.exists()


def test_congen_trial_rows_deterministic():
    a = congen_trial_rows(10, 3, 2, 5, seed=9)
    b = congen_trial_rows(10, 3, 2, 5, seed=9)
    assert a == b
    assert {row["condition_pass"] for row in a} <= {True, False}


def test_cli_error_paths(capsys):
    assert run_cli("construct", "--type", "chain", "--n", "4", "--l", "3") == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (("solve", "--n", "3", "--colors", "2", "--forbid", "A2", "--budget", "-5"), "budget"),
    (("verify", "--budget", "-1"), "budget"),
    (("detect", "--family", "[1, 2]", "--poset", "A999999"), "cap of 1024"),
    (("bounds", "--op", "known", "--n", "4", "--l", "2", "--forbid", "X9"), "X9"),
    (("construct", "--type", "chain", "--n", "4", "--l", "100000000000"), "l*log2(l)"),
    (("solve", "--n", "3", "--colors", "100000000000", "--forbid", "A2"), "COLOR_CAP"),
    (("construct", "--type", "pk", "--n", "4", "--k", "100000000000"), "COLOR_CAP"),
    (("construct", "--type", "congen", "--n", "6", "--k", "100000000000", "--l", "2"),
     "COLOR_CAP"),
    (("congen", "--n", "6", "--k", "100000000000", "--l", "2"), "COLOR_CAP"),
    (("construct", "--type", "traces", "--n", "12", "--l", "300"), "COLOR_CAP"),
    (("bounds", "--op", "known", "--n", "4", "--l", "0", "--forbid", "P2"), "l=0"),
    (("bounds", "--op", "known", "--n", "64", "--l", "2", "--forbid", "P2"), "n=64"),
    (("bounds", "--op", "formulaA2", "--n", "64", "--l", "2"), "n=64"),
])
def test_out_of_range_input_exits_2(argv, needle, capsys):
    # a negative node budget would report a solve it never ran, a poset
    # beyond the size cap would take hours to close, and a color count
    # beyond COLOR_CAP fits no byte per set (congen would first draw
    # all k - 1 chains)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and needle in captured.err


@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("argv, code, message", [
    (("solve", "--n", "3", "--colors", "3", "--forbid", "A3,P4"), 0,
     "forbidden poset Poset(P4) has more elements than colors (l=3); vacuously avoided"),
    (("bounds", "--op", "known", "--n", "4", "--l", "4", "--forbid", "P4,A5"), 0,
     "forbidden poset Poset(A5) has more elements than colors (l=4); vacuously avoided"),
    (("detect", "--coloring", "c.json", "--forbid", "A2", "--mode", "weak"), 1,
     "weak antichain Poset(A2) is degenerate: any 2 distinctly colored sets form a copy"),
])
def test_library_warnings_print_as_one_line(argv, code, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"n": 2, "l": 2, "colors": [1, 2, 1, 2]}))
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    assert captured.err == f"warning: {message}\n"
    json.loads(captured.out)


@pytest.mark.parametrize("argv, flag", [
    (("decompose", "--n", "3", "--families", '[["{300000000}"]]'), "--families"),
    (("detect", "--family", '["{300000000}", "{1}"]', "--poset", "A2"), "--family"),
])
def test_subset_literal_element_is_refused_before_the_set_is_built(argv, flag, capsys):
    # the set {300000000} alone is a 37.5 MB integer: an element above n
    # (above ANALYTIC_CAP without --n) is refused first, by name
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: element 300000000 ") and peak < 1 << 22


@pytest.mark.parametrize("make_argv, needle", [
    (lambda d: ("detect", "--coloring", d, "--forbid", "A2"), "Is a directory"),
    (lambda d: ("detect", "--family", "@" + d, "--poset", "P2"), "Is a directory"),
    (lambda d: ("bounds", "--op", "m", "--l", "3", "--out", d), "Is a directory"),
    (lambda d: ("run", d), "is not a file"),
], ids=["coloring", "family", "out", "run"])
def test_a_directory_path_exits_2(make_argv, needle, tmp_path, capsys):
    assert run_cli(*make_argv(str(tmp_path))) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and needle in lines[0]


def test_out_is_checked_before_the_command_runs(tmp_path, monkeypatch, capsys):
    # the witness-seeded f(5,3,A3) solve takes about a second: an --out it
    # cannot write exits 2 before the solve starts
    def never(*args, **kwargs):
        raise AssertionError("solved before --out was checked")

    monkeypatch.setattr(cli, "solve_min_class", never)
    argv = ("solve", "--n", "5", "--colors", "3", "--forbid", "A3", "--out")
    assert run_cli(*argv, str(tmp_path)) == 2
    assert run_cli(*argv, str(tmp_path / "missing" / "r.json")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and "Is a directory" in lines[0] and "No such file" in lines[1]
    monkeypatch.undo()
    # a command that fails leaves no file behind, and one that succeeds
    # replaces what the file held
    out = tmp_path / "r.json"
    assert run_cli("solve", "--n", "3", "--colors", "2", "--forbid", "X9", "--out", str(out)) == 2
    assert not out.exists()
    out.write_text("x" * 10_000)
    assert run_cli("solve", "--n", "3", "--colors", "2", "--forbid", "A2", "--out", str(out)) == 0
    assert json.loads(out.read_text())["status"] == "optimal"


_HUGE = "9" * 5000


@pytest.mark.parametrize("argv, message", [
    (("decompose", "--n", "3", "--families", f"[[{_HUGE}]]"), "--families: integer"),
    (("detect", "--family", f"[1, {_HUGE}]", "--poset", "A1"), "--family: integer"),
    (("detect", "--family", f'["{{1,{_HUGE}}}"]', "--poset", "A1"), "--family: element"),
    (("decompose", "--n", "3", "--families", f'[["{_HUGE}"]]'), "--families: subset id"),
], ids=["families-integer", "family-integer", "family-element", "families-string-id"])
def test_oversized_integer_exits_2_naming_the_flag(argv, message, capsys):
    # more digits than Python converts at once: the error names the flag,
    # not the interpreter's limit
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} of 5000 digits is out of range\n"


def test_huge_color_count_answers_at_once(tmp_path, capsys):
    # the closed form tests l > n before it computes l^l and 2^n
    for extra in ((), ("--forbid", "A2")):
        op = "known" if extra else "formulaA2"
        assert run_cli("bounds", "--op", op, "--n", "3", "--l", "100000000000", *extra) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["applicable"] is False and out["value"] is None, op
    # a coloring file cannot ask for a count array of l + 1 entries
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "l": 100000000000, "colors": [0, 1]}))
    assert run_cli("detect", "--coloring", str(path), "--forbid", "A2") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "COLOR_CAP" in err


def test_deep_solve_exits_0_with_its_seed(capsys):
    # the search recurses once per set; a solve that reaches Python's
    # recursion limit stops as one out of budget does, with no traceback
    assert run_cli("solve", "--n", "13", "--colors", "2", "--forbid", "P2",
                   "--budget", "100000") == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert (out["status"], out["value"], out["upper"]) == ("lower_bound_only", 2048, 4096)
    assert "Traceback" not in captured.err


def test_budget_zero_is_a_set_up_call(capsys):
    assert run_cli("solve", "--n", "4", "--colors", "2", "--forbid", "A2", "--budget", "0") == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["value"], out["nodes_explored"]) == ("lower_bound_only", 3, 0)


def test_known_value_of_an_explicit_object(capsys):
    assert run_cli("bounds", "--op", "known", "--n", "6", "--l", "2",
                   "--forbid", '{"size": 2, "relations": [[0, 1]]}') == 0
    out = json.loads(capsys.readouterr().out)
    assert out["applicable"] and out["value"] == 16


@pytest.mark.parametrize("argv, flag", [
    (("detect",), "--coloring"),
    (("detect", "--coloring", "missing.json"), "--forbid"),
    (("bounds", "--op", "m"), "--l"),
    (("bounds", "--op", "formulaA2", "--l", "3"), "--n"),
    (("bounds", "--op", "eq", "--l", "3"), "--i"),
    (("bounds", "--op", "known", "--n", "4", "--l", "2"), "--forbid"),
    (("bounds", "--op", "entropy"), "--x"),
    (("construct", "--type", "traces", "--n", "4"), "--l"),
    (("construct", "--type", "chain", "--n", "4"), "--l"),
    (("construct", "--type", "pk", "--n", "4"), "--k"),
    (("construct", "--type", "congen", "--n", "6", "--l", "2"), "--k"),
    (("construct", "--type", "congen", "--n", "6", "--k", "3"), "--l"),
])
def test_missing_argument_exits_2_naming_the_flag(argv, flag, capsys):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "Traceback" not in err


# Invocations that read every flag they are given, and for each one the flags
# the command accepts but that this invocation, its --type, --op or detect
# mode does not read.  Giving any of those must exit 2 and name it.
_READS_ALL = {
    "construct traces": ("construct", "--type", "traces", "--n", "6", "--l", "3", "--total"),
    "construct chain": ("construct", "--type", "chain", "--n", "6", "--l", "3"),
    "construct congen": ("construct", "--type", "congen", "--n", "6", "--k", "3", "--l", "2",
                         "--seed", "1", "--no-materialize"),
    "construct lift3": ("construct", "--type", "lift3", "--n", "5", "--variant", "four_color"),
    "construct p3": ("construct", "--type", "p3", "--n", "4"),
    "construct pk": ("construct", "--type", "pk", "--n", "4", "--k", "4"),
    "detect coloring": ("detect", "--coloring", "c.json", "--forbid", "A2", "--mode", "weak"),
    "detect family": ("detect", "--family", "[0, 1, 3]", "--poset", "P3", "--mode", "weak"),
    "solve": ("solve", "--n", "2", "--colors", "2", "--forbid", "A2", "--kind", "total",
              "--budget", "100"),
    "decompose": ("decompose", "--n", "3", "--families", '[["{1}", "{2}"], [3]]'),
    "bounds m": ("bounds", "--op", "m", "--l", "6"),
    "bounds formulaA2": ("bounds", "--op", "formulaA2", "--n", "4", "--l", "2"),
    "bounds entropy": ("bounds", "--op", "entropy", "--x", "0.25"),
    "bounds c0": ("bounds", "--op", "c0", "--tol", "1e-6"),
    "bounds eq": ("bounds", "--op", "eq", "--l", "2", "--i", "1"),
    "bounds known": ("bounds", "--op", "known", "--n", "5", "--l", "2", "--forbid", "A2",
                     "--kind", "total"),
    "congen": ("congen", "--n", "6", "--k", "3", "--l", "2", "--seed", "1"),
    "run": ("run", "spec.json", "--out", "res"),
}
_UNREAD = {
    "construct traces": ("--k", "--seed", "--variant", "--no-materialize"),
    "construct chain": ("--k", "--seed", "--total", "--variant", "--no-materialize"),
    "construct congen": ("--total", "--variant"),
    "construct lift3": ("--l", "--k", "--seed", "--total", "--no-materialize"),
    "construct p3": ("--l", "--k", "--seed", "--total", "--variant", "--no-materialize",
                     "--budget"),
    "construct pk": ("--l", "--seed", "--total", "--variant", "--no-materialize"),
    "detect coloring": ("--family", "--poset", "--seed", "--budget"),
    "detect family": ("--forbid",),
    "solve": ("--seed",),
    "decompose": ("--seed", "--budget"),
    "bounds m": ("--n", "--i", "--x", "--tol", "--forbid", "--kind", "--seed", "--budget"),
    "bounds formulaA2": ("--i", "--x", "--tol", "--forbid", "--kind"),
    "bounds entropy": ("--n", "--l", "--i", "--tol", "--forbid", "--kind"),
    "bounds c0": ("--n", "--l", "--i", "--x", "--forbid", "--kind"),
    "bounds eq": ("--n", "--x", "--tol", "--forbid", "--kind"),
    "bounds known": ("--i", "--x", "--tol"),
    "congen": ("--report", "--budget"),
    "run": ("--seed", "--budget"),
}
_FLAG_VALUES = {"--n": "4", "--l": "3", "--k": "3", "--i": "1", "--x": "0.5", "--tol": "1e-6",
                "--seed": "3", "--budget": "5", "--variant": "four_color", "--forbid": "A2",
                "--kind": "total", "--family": "[0, 1]", "--poset": "A2", "--report": "r.csv"}
_UNREAD_CASES = [(name, flag) for name, flags in _UNREAD.items() for flag in flags]


@pytest.fixture
def cli_inputs(tmp_path, monkeypatch):
    """A valid coloring c.json and a one-step spec.json in the working directory."""
    monkeypatch.chdir(tmp_path)
    _write_json(tmp_path / "c.json", {"n": 2, "l": 2, "colors": [0, 1, 1, 0]})
    _write_json(tmp_path / "spec.json",
                {"pipeline": [{"op": "construct", "type": "p3", "n": 4}]})


def _exit_code(argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse rejects flags a subcommand does not declare
        return exc.code


def test_unread_flag_table_covers_every_case():
    assert len(_UNREAD_CASES) == 73
    assert not any(flag in _READS_ALL[name] for name, flag in _UNREAD_CASES)


@pytest.mark.parametrize("name", sorted(_READS_ALL))
def test_invocation_reading_all_its_flags_succeeds(name, cli_inputs, capsys):
    assert _exit_code(_READS_ALL[name]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, flag", _UNREAD_CASES,
                         ids=[f"{name} {flag}" for name, flag in _UNREAD_CASES])
def test_unread_flag_exits_2_naming_it(name, flag, cli_inputs, capsys):
    value = (_FLAG_VALUES[flag],) if flag in _FLAG_VALUES else ()
    assert _exit_code(_READS_ALL[name] + (flag,) + value) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and re.search(re.escape(flag) + r"(?![\w-])", errors[0]), errors


@pytest.mark.parametrize("spec", [
    '{"relations": []}', '{"size": 2, "relations": [[0, "1"]]}', '{"size": 2, "relations": 5}'])
def test_malformed_poset_object_exits_2(spec, capsys):
    # a bad explicit poset is a usage error in --poset and in --forbid alike
    assert run_cli("detect", "--family", "[0,1,2,3]", "--poset", spec) == 2
    assert run_cli("solve", "--n", "2", "--colors", "2", "--forbid", f"A2,{spec}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("make_argv, field", [
    (lambda d: ("detect", "--coloring", _write_json(d / "c.json", {"n": 2, "l": 2}),
                "--forbid", "A2"), "'colors'"),
    (lambda d: ("detect", "--coloring", _write_json(d / "c.json", [1, 2]),
                "--forbid", "A2"), "coloring"),
    (lambda d: ("detect", "--coloring",
                _write_json(d / "c.json", {"n": 2, "l": "two", "colors": [0, 1, 1, 0]}),
                "--forbid", "A2"), "'l'"),
    (lambda d: ("detect", "--coloring",
                _write_json(d / "c.json", {"n": 2.9, "l": 2, "colors": [0, 1, 1, 0]}),
                "--forbid", "A2"), "'n'"),
    (lambda d: ("detect", "--coloring",
                _write_json(d / "c.json", {"n": 2, "l": 2, "colors": "0110"}),
                "--forbid", "A2"), "'colors'"),
    (lambda d: ("detect", "--family", "5", "--poset", "A2"), "--family"),
    (lambda d: ("detect", "--family", "[true, 3]", "--poset", "P2"),
     "--family: cannot parse subset literal True"),
    (lambda d: ("decompose", "--n", "3", "--families", "[1]"), "--families"),
    (lambda d: ("decompose", "--n", "2", "--families", "[[true], [3]]"),
     "--families: cannot parse subset literal True"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "construct", "n": 4}]})), "'type'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "construct", "type": "p3",
                                                  "n": "four"}]})), "'n'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "construct", "type": "traces",
                                                  "n": 4}]})), "'l'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "construct", "type": "lift3",
                                                  "n": 5, "l": 5}]})), "'l'"),
    (lambda d: ("run", _write_json(d / "spec.json", {"pipeline": [3]})), "step 0"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"seed": "x", "pipeline": [{"op": "stats"}]})), "'seed'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "construct", "type": "chain",
                                                  "n": 4.9, "l": 2.7}]})), "'l'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "construct", "type": "p3",
                                                  "n": True}]})), "'n'"),
    (lambda d: ("congen", "--n", "6", "--k", "3", "--l", "2", "--trials", "-1"), "--trials"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "congen_trials", "n": 6, "k": 3,
                                                  "l": 2, "trials": 0}]})), "'trials'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "validate", "coloring": "c.json",
                                                  "forbid": 5}]})), "'forbid'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "stats", "coloring": 5}]})), "'coloring'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "construct", "type": "p3", "n": 3,
                                                  "out": 7}]}), "--out", str(d / "res")),
     "'out'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"outdir": 5, "pipeline": [{"op": "construct", "type": "p3",
                                                               "n": 3}]})), "'outdir'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "construct", "type": "traces", "n": 4,
                                                  "l": 2, "total": "no"}]})), "'total'"),
    (lambda d: ("run", _write_json(d / "spec.json",
                                   {"pipeline": [{"op": "construct", "type": "congen", "n": 6,
                                                  "k": 3, "l": 2, "materialize": "no"}]})),
     "'materialize'"),
    (lambda d: ("run", _write_json(d / "spec.json", {"pipeline": [
        {"op": "validate", "forbid": "P2", "allow_invalid": "false",
         "coloring": _write_json(d / "c.json", {"n": 1, "l": 2, "colors": [1, 2]})}]})),
     "'allow_invalid'"),
], ids=["coloring-without-colors", "coloring-not-object", "coloring-bad-l", "coloring-float-n",
        "coloring-string-colors", "family-not-list", "family-bool-id",
        "families-not-lists", "families-bool-id", "step-without-type", "step-bad-n",
        "traces-step-without-l", "lift3-step-with-l", "step-not-object",
        "spec-bad-seed", "step-float-fields", "step-bool-n", "congen-negative-trials",
        "congen-step-zero-trials", "step-int-forbid", "step-int-coloring", "step-int-out",
        "spec-int-outdir", "step-string-total", "step-string-materialize",
        "step-string-allow-invalid"])
def test_malformed_json_input_exits_2_naming_the_field(make_argv, field, tmp_path, capsys):
    assert run_cli(*make_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0]
    assert "Traceback" not in err


def test_mistyped_out_writes_nothing(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json",
                       {"pipeline": [{"op": "construct", "type": "p3", "n": 3, "out": 7}]})
    assert run_cli("run", spec, "--out", str(tmp_path / "res")) == 2
    assert not (tmp_path / "res").exists()


def test_forbid_takes_explicit_objects(capsys):
    # commas inside an explicit object do not split the family
    assert run_cli("solve", "--n", "3", "--colors", "2",
                   "--forbid", '{"size": 2, "relations": [[0, 1]]}') == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["value"], out["status"]) == (2, "optimal")


def test_format_csv_is_rejected(capsys):
    # no subcommand writes CSV to stdout, so the choice is not offered
    with pytest.raises(SystemExit) as exc:
        run_cli("bounds", "--op", "m", "--l", "3", "--format", "csv")
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_format_text_prints_one_line_per_key(tmp_path, capsys):
    assert run_cli("bounds", "--op", "m", "--l", "3", "--format", "text") == 0
    assert capsys.readouterr().out == "l: 3\nm: 3\n"
    out = tmp_path / "solve.txt"
    assert run_cli("solve", "--n", "3", "--colors", "2", "--forbid", "A2",
                   "--format", "text", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert {"status: optimal", "value: 2", "upper: 2", "witness_stats: [3,2]",
            'witness: {"colors":[1,1,0,2,0,2,0,1],"l":2,"n":3}'} <= set(lines)
    keys = [line.split(":")[0] for line in lines]
    assert keys == sorted(set(keys))


def test_version_flag_prints_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == rainbow_lattice.__version__
