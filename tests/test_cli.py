"""Command-line driver: exit codes, formats, output files."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from qudit_toffoli import cli, optical
from qudit_toffoli.cli import main
from qudit_toffoli.fock import CrossKerr, VacuumAttenuator
from qudit_toffoli.optical import load_chain_solution
from reference import chain_params_json, save_chain_solution


@pytest.fixture()
def solution_file(tmp_path):
    path = tmp_path / "chain_params.json"
    save_chain_solution(load_chain_solution(), path)
    return str(path)


def test_verify_toffoli_passes(capsys):
    assert main(["verify-toffoli", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "two-qudit gates:     3" in out
    assert "PASS" in out


def test_verify_toffoli_n5_count_nine(capsys):
    assert main(["verify-toffoli", "--n", "5"]) == 0
    assert "two-qudit gates:     9" in capsys.readouterr().out


def test_verify_toffoli_json_format(capsys):
    assert main(["--format", "json", "verify-toffoli", "--n", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["two_qudit_gate_count"] == 5
    assert data["passed"] is True


def test_verify_toffoli_exit_code_follows_the_report(monkeypatch, capsys):
    verify = cli.verify_decomposition
    monkeypatch.setattr(cli, "verify_decomposition", lambda *args: dataclasses.replace(
        verify(*args), fidelity_to_oracle=1.0 - 1e-6))
    assert main(["--format", "json", "verify-toffoli", "--n", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_verify_toffoli_usage_error_for_n1():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-toffoli", "--n", "1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate-optical", "heralded", "--cs-success", "abc"],
    ["simulate-optical", "heralded", "--cs-success", "1/0"],
    ["simulate-optical", "heralded", "--cs-success", "2"],
    ["simulate-optical", "heralded", "--cs-success", "0"],
    ["simulate-optical", "chained", "--starts", "0"],
    ["--tol", "1e-9", "verify-toffoli", "--n", "2"],
    ["verify-toffoli", "--n", "two"],
    ["simulate-optical", "chained", "--seed", "-1"],
    ["simulate-optical", "heralded", "--cs-success", " 2\n"],
    ["--out", "out\0.txt", "verify-toffoli", "--n", "2"],
    ["simulate-optical", "chained", "--params-file", "params\0.json"],
    ["verify-toffoli", "--n", "2", "stray\nline"],
])
def test_bad_values_are_one_line_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]


def test_unknown_construction_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate-optical", "warp-drive"])
    assert excinfo.value.code == 2


def test_simulate_kerr(capsys):
    assert main(["simulate-optical", "kerr"]) == 0
    assert "1/1" in capsys.readouterr().out


def test_simulate_heralded(capsys):
    assert main(["simulate-optical", "heralded"]) == 0
    out = capsys.readouterr().out
    assert "1/32" in out
    assert "|0,0,1>" in out


def test_simulate_heralded_other_cs_quality(capsys):
    assert main(["simulate-optical", "heralded", "--cs-success", "1/9"]) == 0
    assert "1/162" in capsys.readouterr().out


def test_simulate_postselected_cs(capsys):
    assert main(["simulate-optical", "postselected-cs"]) == 0
    out = capsys.readouterr().out
    assert "1/9" in out
    assert "1/162" in out


def test_simulate_chained_from_params_file(capsys, solution_file):
    assert main(["simulate-optical", "chained", "--params-file", solution_file]) == 0
    out = capsys.readouterr().out
    assert "1/72" in out
    assert "|0,0,0>" in out


def test_simulate_chained_json(capsys, solution_file):
    assert main(["--format", "json", "simulate-optical", "chained",
                 "--params-file", solution_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["success_probability_float"] - 1 / 72) < 1e-9
    assert data["certified"] is True and data["residual"] <= 1e-12


SUMMARY_KEYS = ["construction", "success_probability", "success_probability_float",
                "flipped_component", "residual", "certified"]


@pytest.mark.parametrize("which", [
    ["kerr"], ["heralded"], ["postselected-cs"], ["chained", "--params-file", "{solution}"],
], ids=["kerr", "heralded", "postselected-cs", "chained"])
def test_every_construction_prints_its_certified_verdict(which, capsys, solution_file):
    argv = ["--format", "json", "simulate-optical"] + [a.format(solution=solution_file) for a in which]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data)[:len(SUMMARY_KEYS)] == SUMMARY_KEYS
    assert data["certified"] is True and data["residual"] <= 1e-12


def _kerr_on_modes_0_3(elements):
    assert elements == (CrossKerr(math.pi, (1, 3)),)
    return (CrossKerr(math.pi, (0, 3)),)


def _attenuator_at_0_34(elements):
    assert elements[1] == VacuumAttenuator(1 / 3, 1, 4)
    return (elements[0], VacuumAttenuator(0.34, 1, 4)) + elements[2:]


@pytest.mark.parametrize("which, name, rewrite", [
    ("kerr", "cross-Kerr controlled-sign", _kerr_on_modes_0_3),
    ("postselected-cs", "post-selected controlled-sign", _attenuator_at_0_34),
], ids=["kerr", "postselected-cs"])
def test_a_broken_construction_fails_its_verdict(which, name, rewrite, monkeypatch, capsys):
    realize = optical._realize

    def broken(gate_name, m, elements, *args, **kwargs):
        if gate_name == name:
            elements = rewrite(elements)
        return realize(gate_name, m, elements, *args, **kwargs)

    monkeypatch.setattr(optical, "_realize", broken)
    assert main(["--format", "json", "simulate-optical", which]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["certified"] is False and data["residual"] > 1e-12


def test_missing_params_file_is_usage_error(capsys):
    assert main(["simulate-optical", "chained", "--params-file", "/nonexistent.json"]) == 2


def _without_splitter_in(data):
    del data["splitter_in"]
    return json.dumps(data)


@pytest.mark.parametrize("command", [["simulate-optical", "chained"], ["report-all"]])
@pytest.mark.parametrize("rewrite", [
    _without_splitter_in,
    lambda data: json.dumps(data)[:-1],
    lambda data: json.dumps({**data, "splitter_in": 1.5}),
    lambda data: json.dumps({**data, "coupler_reflectivity": 0.5}),
    lambda data: json.dumps({**data, "bogus_key": 7}),
    lambda data: json.dumps({**data, "bogus\nkey": 7}),
    lambda data: json.dumps({**data, "splitter_in": 10 ** 400}),
    lambda data: json.dumps({**data, "splitter_in": True}),
    lambda data: json.dumps({key: value if key == "coupler_reflectivity" else str(value) for key, value in data.items()}),
    lambda data: json.dumps(list(data)),
    lambda data: "[" * 200_000,
    lambda data: "[" * 20_000,
    lambda data: json.dumps(data) + " " * cli.PARAMS_FILE_LIMIT,
], ids=["missing-key", "malformed-json", "reflectivity-1.5", "coupler-0.5", "unknown-key", "unknown-key-with-newline",
        "reflectivity-400-digits", "reflectivity-true", "reflectivity-string", "top-level-array", "nested-200000-deep",
        "nested-20000-deep", "padded-past-limit"])
def test_bad_params_file_is_one_line_usage_error(command, rewrite, tmp_path, capsys, solution_file):
    bad = tmp_path / "bad\nname.json"      # the error quotes the path, so its newline stays on the line
    with open(solution_file) as fh:
        bad.write_text(rewrite(json.load(fh)))
    assert main(command + ["--params-file", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["simulate-optical", "chained"], ["report-all"]])
def test_a_repeated_params_key_is_a_one_line_usage_error_naming_it(command, tmp_path, capsys, solution_file):
    bad = tmp_path / "repeated.json"     # an earlier "splitter_in" that the committed one would silently replace
    with open(solution_file) as fh:
        bad.write_text('{"splitter_in": 0.2, ' + fh.read().lstrip()[1:])
    assert main(command + ["--params-file", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "repeated key 'splitter_in'" in err


@pytest.mark.parametrize("argv", [
    ["simulate-optical", "chained", "--params-file", "{dir}"],
    ["report-all", "--params-file", "{dir}"],
    ["--out", "{dir}", "verify-toffoli", "--n", "2"],
    # an empty path names no file either
    ["simulate-optical", "chained", "--params-file", ""],
    ["report-all", "--params-file", ""],
    ["--out", "", "verify-toffoli", "--n", "2"],
])
def test_directory_path_is_one_line_usage_error(argv, tmp_path, capsys):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", [40, 1100, 10 ** 12, 99999999999999999999])
def test_oversized_n_is_refused_with_memory_estimate(n, capsys):
    assert main(["verify-toffoli", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --n {n} needs about ") and captured.err.count("\n") == 1
    assert "GiB" in captured.err


def test_verify_toffoli_n12_fits_the_memory_guard(capsys):
    assert main(["--format", "json", "verify-toffoli", "--n", "12"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["flipped_component"] == [1] * 13
    assert data["max_level_used"] == 12


def test_wrong_reflectivities_fail_verification(tmp_path, capsys):
    # valid parameter ranges, but not an operating point: exit code 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "splitter_in": 0.5, "recombiner_mid": 0.5, "splitter_out": 0.5,
        "atten_c1_top": 0.5, "atten_c1_bottom": 0.5, "atten_t_bottom": 0.5,
        "atten_c2_top": 0.5, "atten_c2_bottom": 0.5}))
    assert main(["simulate-optical", "chained", "--params-file", str(bad)]) == 1


def test_chain_point_off_by_a_part_per_million_fails_both_commands(tmp_path, capsys):
    # the probability is still within 1e-6 of 1/72, but the magnitudes
    # spread by about 6e-8: report-all must agree with simulate-optical
    params = load_chain_solution()
    path = tmp_path / "off.json"
    save_chain_solution(dataclasses.replace(params, atten_c1_top=params.atten_c1_top * (1 + 1e-6)),
                        path)
    assert main(["report-all", "--params-file", str(path)]) == 1
    assert "MISMATCH" in capsys.readouterr().out
    assert main(["simulate-optical", "chained", "--params-file", str(path)]) == 1


def test_chain_point_dimmed_by_ten_parts_per_million_fails_both_commands(tmp_path, capsys):
    # both c1 attenuators dimmed alike: the magnitudes stay equal and the
    # probability drops by about 1.4e-7, so only the whole-transfer verdict
    # catches it, and report-all must agree with simulate-optical
    params = load_chain_solution()
    path = tmp_path / "dimmed.json"
    save_chain_solution(dataclasses.replace(params, atten_c1_top=params.atten_c1_top * (1 - 1e-5),
                                            atten_c1_bottom=params.atten_c1_bottom * (1 - 1e-5)),
                        path)
    assert main(["--format", "json", "report-all", "--params-file", str(path)]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["construction"] for row in rows if not row["ok"]] == [
        "post-selected T-S, chained interferometers"]
    assert main(["simulate-optical", "chained", "--params-file", str(path)]) == 1


def test_kerr_on_the_wrong_control_fails_every_row_that_reads_it(monkeypatch, capsys):
    # the CS(a) step moved onto control b keeps every magnitude: the heralded
    # transfer flips |0,0,1> and |1,0,1>, the deterministic one flips nothing
    steps = optical._TS_STEPS
    assert optical._optical_elements(steps[2:3]) == (CrossKerr(math.pi, (optical.A_V, optical.S_V)),)
    rewired = steps[:2] + (dataclasses.replace(steps[2], wires=(1, 2)),) + steps[3:]
    assert optical._optical_elements(rewired[2:3]) == (CrossKerr(math.pi, (optical.B_V, optical.S_V)),)
    monkeypatch.setattr(optical, "_TS_STEPS", rewired)
    assert main(["--format", "json", "report-all"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert {row["construction"] for row in rows if not row["ok"]} == {
        "deterministic optical T-S, Kerr interactions",
        "deterministic cross-Kerr T-S",
        "heralded T-S, qudit target + filter",
        "post-selected T-S, two C-S gates + filter",
    }
    assert main(["simulate-optical", "heralded"]) == 1


def test_report_all_text(capsys):
    assert main(["report-all"]) == 0
    out = capsys.readouterr().out
    assert "1/4096" in out
    assert "1/1065" in out
    assert "1/32" in out
    assert "1/162" in out
    assert "~1/133" in out
    assert "overall: PASS" in out


def test_report_all_json_rows(capsys):
    assert main(["--format", "json", "report-all"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_ok"] is True
    assert len(data["rows"]) >= 7
    sources = {row["source"] for row in data["rows"]}
    assert sources == {"simulated", "cited"}
    cited = [row for row in data["rows"] if row["source"] == "cited"]
    assert all(row["ok"] for row in cited)


def test_output_file_option(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert main(["--out", str(out_path), "verify-toffoli", "--n", "2"]) == 0
    assert capsys.readouterr().out == ""
    assert "PASS" in out_path.read_text()


def test_the_one_parser_carries_no_state_from_call_to_call(capsys):
    # every command runs on the process's one parser, after a refused value;
    # each JSON equals that of a call on a freshly built parser
    def run(argv, fresh):
        if fresh:
            cli.build_parser.cache_clear()
        code = main(["--format", "json", *argv])
        return code, capsys.readouterr().out

    parser = cli.build_parser()
    with pytest.raises(SystemExit) as excinfo:
        main(["--format", "json", "simulate-optical", "heralded", "--cs-success", "2"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    commands = (["simulate-optical", "heralded", "--cs-success", "1/9"],
                ["simulate-optical", "heralded"],
                ["verify-toffoli", "--n", "3"])
    reused = [run(argv, fresh=False) for argv in commands]
    assert cli.build_parser() is parser
    assert reused == [run(argv, fresh=True) for argv in commands]
    assert [code for code, _ in reused] == [0, 0, 0]
    assert json.loads(reused[1][1])["cs_success"] == "1/4"
    assert json.loads(reused[1][1])["success_probability"] == "1/32"


# ---------------------------------------------------------------------------
# generated argv and params files, run in a scratch directory
# ---------------------------------------------------------------------------

# values by option dest, valid and boundary ("params.json" is the generated
# file); an option the parser gains without an entry is a KeyError
_VALUES = {
    "format": ["text", "json"], "out": ["out.txt", ".", "missing/out.txt", "out\0.txt"], "starts": ["1", "0", "-1", "2"],
    "n": [str(n) for n in range(2, 13)] + ["0", "1", "-1", "40", "1100", "99999999999999999999"],
    "which": ["kerr", "heralded", "postselected-cs", "chained"], "seed": ["0", "1", "-1", "99999999999999999999"],
    "params_file": ["params.json", "params.json", ".", "missing.json"],
    "cs_success": ["1/4", "1/9", "3/7", "1", "0", "2", "-1/2", "1/0", "1e-400", "nan"],
}
# junk favours what breaks an error line or a path, and cannot abbreviate an option
_JUNK = st.text(st.sampled_from("\n\t \x00/.-") | st.characters(), max_size=6).filter(lambda t: t[:2] != "--")
_COMMITTED = json.loads(chain_params_json(load_chain_solution()))
_ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from([10 ** 400, 2 ** 63, " 0.75 ", "nan"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(_JUNK, inner, max_size=2), max_leaves=4)


@st.composite
def _argv(draw):
    """The parser's own actions (the required ones, a random subset of the rest)
    in random order with drawn values; in half the draws one token is dropped,
    followed by a stray option, replaced by junk, or given a trailing space, newline, tab or NUL."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    argv, command = [], draw(st.sampled_from(sorted(commands)))
    for actions, after in ((parser._actions, [command]), (commands[command]._actions, [])):
        for action in draw(st.permutations([a for a in actions if a.dest not in ("help", "command")])):
            if action.required or draw(st.booleans()):
                argv += action.option_strings[-1:] + [draw(st.sampled_from(_VALUES[action.dest]))]
        argv += after
    if draw(st.booleans()):
        at = draw(st.integers(0, len(argv) - 1))
        argv[at:at + 1] = draw(st.sampled_from([[], [argv[at], "--bogus"]]) | _JUNK.map(lambda t: [t])
                               | st.sampled_from(" \n\t\x00").map(lambda c: [argv[at] + c]))
    return argv


@st.composite
def _params_bytes(draw):
    """The committed params file after up to three edits (a key dropped, a junk
    key added, a value moved within [0, 1] or swapped for another type, a
    non-finite or huge number, or nested data), written plain, after a BOM, with
    a byte that is not UTF-8, truncated, 100,000 lists deep, or as a top-level array."""
    data = dict(_COMMITTED)
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.sampled_from(sorted(data)))] = draw(st.floats(0, 1) | _ANY_VALUE | st.just(...))
    data.update(draw(st.dictionaries(_JUNK, _ANY_VALUE, max_size=1)))
    data = {key: value for key, value in data.items() if value is not ...}    # ... drops the key
    raw = json.dumps(data).encode()
    at = draw(st.integers(0, len(raw)))
    return draw(st.sampled_from([raw] * 5 + [b"\xef\xbb\xbf" + raw, raw[:at] + b"\xff" + raw[at:], raw[:at],
                                 b"[" * 100_000 + raw + b"]" * 100_000, json.dumps(list(data.values())).encode()]))


@st.composite
def _case(draw):
    """An argv and the bytes of params.json.  In one draw of five, a command
    that reads params.json (in a drawn format, to stdout or a file) meets the
    committed file with one to three reflectivities moved by more than 1e-3
    within [0, 1]: parseable, but off the operating point, so the run ends in
    exit 1.  The other draws take `_argv` and `_params_bytes` apart."""
    if draw(st.integers(0, 4)):
        return draw(_argv()), draw(_params_bytes())
    data = dict(_COMMITTED)
    names = sorted(set(data) - {"coupler_reflectivity"})
    for key in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)):
        data[key] = draw(st.floats(0, 1).filter(lambda value, old=data[key]: abs(value - old) > 1e-3))
    argv = (draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"]]))
            + draw(st.sampled_from([[], ["--out", "out.txt"]]))
            + draw(st.sampled_from([["simulate-optical", "chained"], ["report-all"]])))
    return argv + ["--params-file", "params.json"], json.dumps(data).encode()


def _check_run(argv, cwd):
    """`main` run in `cwd` ends in exit 0, 1 or 2 (raising nothing but argparse's SystemExit); on exit 2
    the last stderr line, and only it, is the error; on exit 0 or 1 with `--format json` the output parses."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(home)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, code)
    if code == 2:   # ours starts "error: ", argparse's with the program name
        assert lines and [line for line in lines if "error:" in line] == [lines[-1]], lines
        assert lines[-1].startswith(("error: ", cli.build_parser().prog)), lines
    elif (options := dict(zip(argv, argv[1:]))).get("--format") == "json":
        json.loads((cwd / options["--out"]).read_text() if "--out" in options else out.getvalue())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=_case())
def test_every_generated_argv_ends_in_exit_0_1_or_2(case, workdir):
    argv, params = case
    assume("chained" not in argv or "--params-file" in argv)    # a solve has its own budget below
    (workdir / "params.json").write_bytes(params)
    _check_run(argv, workdir)


@settings(max_examples=4, derandomize=True, deadline=None)
@given(fmt=st.sampled_from(["text", "json"]), seed=st.sampled_from(_VALUES["seed"]) | _JUNK)
def test_a_one_start_solve_ends_in_exit_0_1_or_2(fmt, seed, workdir):
    _check_run(["--format", fmt, "simulate-optical", "chained", "--seed", seed, "--starts", "1"], workdir)
