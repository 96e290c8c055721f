#!/usr/bin/env python3
"""Mutation catalogue: known ways to break the package, and the tests that
must catch each one.

    python tools/mutants.py

The runner copies `src/`, `tests/` and `pyproject.toml` into a temporary
directory and checks that every listed test passes there unmutated.  It then
applies one mutant at a time (an exact text replacement in one file) and
runs that mutant's tests, every one of which must fail (for a parametrized
test, at least one of its cases).  It exits 1 if a mutant survives any of
its tests, if pytest ends in anything but test failures (a usage or
collection error), or if a mutant's old text does not occur exactly once in
its file, so the catalogue has to follow every refactor of the code it
names.  On SIGINT or SIGTERM it ends its running pytest and removes its
temporary copy before it exits.

Standard library only, and outside the pytest suite.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")

OPTICAL = "src/qudit_toffoli/optical.py"
FOCK = "src/qudit_toffoli/fock.py"
TOFFOLI = "src/qudit_toffoli/toffoli.py"
QUDITS = "src/qudit_toffoli/qudits.py"
REPORT = "src/qudit_toffoli/report.py"
CLI = "src/qudit_toffoli/cli.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                  # relative to the repository root
    old: str                   # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]     # pytest node ids that must all fail


CATALOGUE = (
    Mutant("chain block gathered transposed", OPTICAL,
           "sub = mode_matrix[modes[:, None, :, None], modes[None, :, None, :]]",
           "sub = mode_matrix[modes[None, :, :, None], modes[:, None, None, :]]",
           ("tests/test_optical.py::test_chain_block_matches_permanent_oracle_on_sampled_entries",)),
    Mutant("layout table in little-endian order", FOCK,
           "np.array(list(product(*groups)), dtype=int)",
           "np.array([row[::-1] for row in product(*groups[::-1])], dtype=int)",
           ("tests/test_fock.py::test_layout_table_row_x_holds_each_wires_mode_at_its_digit",
            "tests/test_fock.py::test_logical_transfer_matches_dense_operator_rows",
            "tests/test_optical.py::test_chain_block_matches_permanent_oracle_on_sampled_entries")),
    Mutant("mode range check dropped", FOCK,
           "        if max(el.modes) >= m:\n",
           "        if False:\n",
           ("tests/test_fock.py::test_a_bad_element_mode_is_a_one_line_value_error",)),
    Mutant("one of the six permutations dropped", OPTICAL,
           "_PERMUTATIONS_3 = np.array(list(permutations(range(3))))",
           "_PERMUTATIONS_3 = np.array(list(permutations(range(3)))[1:])",
           ("tests/test_optical.py::test_chained_coincidence_carries_sign_only_on_000",
            "tests/test_optical.py::test_committed_solution_verifies_tightly")),
    Mutant("mode block applied as a column operation", FOCK,
           "mat[modes] = block @ mat[modes]",
           "mat[:, modes] = mat[:, modes] @ block",
           ("tests/test_fock.py::test_single_photon_transfer_matches_embedded_block_product",)),
    Mutant("leakage read from the qubit rows", TOFFOLI,
           "outside_norm2 = np.bincount(cols[~inside], weights=np.abs(amps[~inside]) ** 2, minlength=dim)",
           "outside_norm2 = np.abs(1 - np.bincount(cols[inside], weights=np.abs(amps[inside]) ** 2, "
           "minlength=dim))",
           ("tests/test_toffoli.py::test_verify_matches_dense_references_on_masked_variants",)),
    Mutant("level scan skips the last step's output", TOFFOLI,
           "        digits[wires] = table.digits.take(local, axis=1)\n"
           "        phases = phases * table.entries[local]\n"
           "        max_level = max(max_level, int(digits[-1].max()))\n",
           "        max_level = max(max_level, int(digits[-1].max()))\n"
           "        digits[wires] = table.digits.take(local, axis=1)\n"
           "        phases = phases * table.entries[local]\n",
           ("tests/test_toffoli.py::test_verify_matches_dense_references_on_masked_variants",
            "tests/test_toffoli.py::test_monomial_route_matches_the_dense_unitary")),
    Mutant("local equivalence without the residual", TOFFOLI,
           "equivalent = bool(component) and residual < PRODUCT_TOL",
           "equivalent = bool(component)",
           ("tests/test_toffoli.py::test_verify_matches_dense_references_on_masked_variants",
            "tests/test_toffoli.py::test_monomial_route_matches_the_dense_unitary")),
    Mutant("monomial step drops its phase", TOFFOLI,
           "phases = phases * table.entries[local]",
           "phases = phases",
           ("tests/test_toffoli.py::test_scaling_and_fidelity",
            "tests/test_toffoli.py::test_monomial_route_matches_the_dense_unitary")),
    Mutant("monomial step writes its digits back in reversed wire order", TOFFOLI,
           "digits[wires] = table.digits.take(local, axis=1)",
           "digits[wires[::-1]] = table.digits.take(local, axis=1)",
           ("tests/test_toffoli.py::test_scaling_and_fidelity",
            "tests/test_toffoli.py::test_monomial_route_matches_the_dense_unitary")),
    Mutant("gate memo keyed without params", TOFFOLI,
           "key = (name, params, wire_dims)",
           "key = (name, wire_dims)",
           ("tests/test_toffoli.py::test_each_distinct_gate_is_built_once_per_circuit",
            "tests/test_toffoli.py::test_scaling_and_fidelity")),
    Mutant("cnot column map swaps the control's 0 rows", TOFFOLI,
           "rows[dt], rows[dt + 1] = dt + 1, dt",
           "rows[0], rows[1] = 1, 0",
           ("tests/test_toffoli.py::test_library_gate_columns_match_dense_discovery",
            "tests/test_toffoli.py::test_scaling_and_fidelity")),
    Mutant("table built along rows", QUDITS,
           "rows = nonzero.argmax(axis=0)",
           "rows = nonzero.argmax(axis=1)",
           ("tests/test_qudits.py::test_monomial_table_rebuilds_a_random_monomial_gate",)),
    Mutant("circuit accepts a step of the wrong arity", QUDITS,
           "            if len(step.wires) != len(step.gate.wire_dims):\n",
           "            if False:\n",
           ("tests/test_qudits.py::test_each_guard_is_a_one_line_error",)),
    Mutant("gate wire-dimension check dropped", QUDITS,
           "wd = _checked_dims(self.wire_dims)",
           "wd = tuple(int(d) for d in self.wire_dims)",
           ("tests/test_qudits.py::test_each_guard_is_a_one_line_error[gate-dimension-0]",
            "tests/test_qudits.py::test_each_guard_is_a_one_line_error[gate-dimension-1]",
            "tests/test_qudits.py::test_each_guard_is_a_one_line_error[gate-no-wires]",
            "tests/test_qudits.py::test_each_guard_is_a_one_line_error[columns-dimension-0]")),
    Mutant("permutation check dropped", QUDITS,
           "            if set(rows.tolist()) != set(range(dim)):\n",
           "            if False:\n",
           ("tests/test_qudits.py::test_each_guard_is_a_one_line_error[columns-repeated-row]",
            "tests/test_qudits.py::test_each_guard_is_a_one_line_error[columns-row-range]")),
    Mutant("unit-modulus check dropped", QUDITS,
           "err = np.abs(np.abs(entries) - 1.0).max()",
           "err = 0.0",
           ("tests/test_qudits.py::test_each_guard_is_a_one_line_error[columns-nan]",
            "tests/test_qudits.py::test_each_guard_is_a_one_line_error[columns-off-circle]")),
    Mutant("kernel moves the gate's wires in reverse order", QUDITS,
           "np.moveaxis(tensor, wires, range(k))",
           "np.moveaxis(tensor, wires[::-1], range(k))",
           ("tests/test_qudits.py::test_embed_gate_matches_kron_under_the_wire_permutation",
            "tests/test_toffoli.py::test_monomial_route_matches_the_dense_unitary")),
    Mutant("lift drops the ladder factor", FOCK,
           "coeff * u * math.sqrt(out[i])",
           "coeff * u",
           ("tests/test_fock.py::test_hong_ou_mandel_dip",
            "tests/test_fock.py::test_lift_agrees_with_oracle_random_interferometers",
            "tests/test_acceptance.py::test_criterion_09_lift_agrees_with_permanent_oracle")),
    Mutant("lift reads the mode matrix transposed", FOCK,
           "for column in mode_matrix.T.tolist()]",
           "for column in mode_matrix.tolist()]",
           ("tests/test_fock.py::test_lift_agrees_with_oracle_random_interferometers",
            "tests/test_fock.py::test_circuit_operator_matches_lift_and_permanent_oracle",
            "tests/test_acceptance.py::test_criterion_09_lift_agrees_with_permanent_oracle")),
    Mutant("oracle skips the occupation length check", FOCK,
           "    if len(in_occ) != m or len(out_occ) != m:\n",
           "    if False:\n",
           ("tests/test_fock.py::test_oracle_refuses_a_malformed_matrix_or_occupation",)),
    Mutant("beamsplitter accepts a repeated mode", FOCK,
           "        if self.modes[0] == self.modes[1]:\n"
           '            raise ValueError("beamsplitter needs two distinct modes")\n',
           "        if self.modes[0] != self.modes[1]:\n"
           '            raise ValueError("beamsplitter needs two distinct modes")\n',
           ("tests/test_fock.py::test_each_guard_is_a_one_line_error",)),
    Mutant("single_photon_transfer lets a cross-Kerr through", FOCK,
           "        if isinstance(el, CrossKerr):\n            raise TypeError",
           "        if False:\n            raise TypeError",
           ("tests/test_fock.py::test_kerr_has_no_mode_matrix",)),
    Mutant("conjugated Kerr diagonal", FOCK,
           "np.exp(1j * self.chi * pairs)",
           "np.exp(-1j * self.chi * pairs)",
           ("tests/test_fock.py::test_logical_transfer_matches_dense_operator_rows",)),
    Mutant("reference embeds its block on swapped modes", FOCK,
           "embedded[np.ix_(modes, modes)] = block",
           "embedded[np.ix_(modes[::-1], modes[::-1])] = block",
           ("tests/test_fock.py::test_circuit_operator_matches_lift_and_permanent_oracle",
            "tests/test_fock.py::test_logical_transfer_matches_dense_operator_rows")),
    Mutant("element accepts a non-finite χ", FOCK,
           'object.__setattr__(self, "chi", _real("chi", self.chi))',
           'object.__setattr__(self, "chi", float(self.chi))',
           ("tests/test_fock.py::test_each_guard_is_a_one_line_error[kerr-nan]",
            "tests/test_fock.py::test_each_guard_is_a_one_line_error[kerr-inf]")),
    Mutant("tensor Kerr phase conjugated", FOCK,
           "phase = np.exp(1j * el.chi)",
           "phase = np.exp(-1j * el.chi)",
           ("tests/test_optical.py::test_kerr_cs_general_strength_phases_delta_term",
            "tests/test_fock.py::test_logical_transfer_matches_dense_operator_rows")),
    Mutant("block applied to one photon axis fewer", FOCK,
           "for k, photon_reach in enumerate(reach):",
           "for k, photon_reach in enumerate(reach[:-1]):",
           ("tests/test_fock.py::test_logical_transfer_matches_dense_operator_rows",
            "tests/test_fock.py::test_logical_transfer_matches_permanent_oracle_on_qudit_layouts")),
    Mutant("run composed in reverse order", FOCK,
           "pending[rows] = block @ pending[rows]",
           "pending[:, rows] = pending[:, rows] @ block",
           ("tests/test_fock.py::test_logical_transfer_matches_dense_operator_rows",
            "tests/test_fock.py::test_logical_transfer_matches_permanent_oracle_on_qudit_layouts")),
    Mutant("run not applied before a cross-Kerr", FOCK,
           "            tensor, pending, touched = _apply_run(pending, touched, tensor, reach), None, set()\n",
           "",
           ("tests/test_fock.py::test_logical_transfer_applies_each_run_between_its_cross_kerrs",
            "tests/test_acceptance.py::test_criterion_05_deterministic_optical_ts")),
    Mutant("reach not widened", FOCK,
           "        photon_reach |= touched\n",
           "        pass\n",
           ("tests/test_fock.py::test_a_later_run_acts_on_a_photon_through_the_mode_an_earlier_run_led_it_to",)),
    Mutant("Kerr applied for k<l only", FOCK,
           "for k, l in permutations(range(n), 2):",
           "for k, l in ((k, l) for k in range(n) for l in range(k + 1, n)):",
           ("tests/test_fock.py::test_a_later_run_acts_on_a_photon_through_the_mode_an_earlier_run_led_it_to",
            "tests/test_fock.py::test_logical_transfer_applies_each_run_between_its_cross_kerrs",
            "tests/test_fock.py::test_logical_transfer_matches_dense_operator_rows")),
    Mutant("read-out keeps one ordering of the output modes, not the permanent", FOCK,
           "for order in permutations(range(n)))",
           "for order in [tuple(range(n))])",
           ("tests/test_fock.py::test_logical_transfer_matches_permanent_oracle_on_qudit_layouts",
            "tests/test_optical.py::test_postselected_cs_transfer_and_probability")),
    Mutant("claimed Fraction reported without certification", OPTICAL,
           "optical = claimed if certified else float(np.mean(np.abs(diag)) ** 2)",
           "optical = claimed",
           ("tests/test_optical.py::test_report_reads_probabilities_off_the_simulation",)),
    Mutant("logical read-out transposed", FOCK,
           "    return amps.T\n",
           "    return amps\n",
           ("tests/test_fock.py::test_logical_transfer_matches_dense_operator_rows",)),
    Mutant("filter's t-path wave plate at 0.3 rad", OPTICAL,
           "HalfWavePlate(HADAMARD_HWP_ANGLE, (T_H, T_V)),",
           "HalfWavePlate(0.3, (T_H, T_V)),",
           ("tests/test_cli.py::test_simulate_heralded", "tests/test_cli.py::test_report_all_text")),
    Mutant("closing PBS dropped from the deterministic gate", OPTICAL,
           "        HalfWavePlate(HADAMARD_HWP_ANGLE, (S_H, S_V)),\n"
           "        PolarizingBeamsplitter((S_H, S_V), (T_H, T_V)),\n"
           "    )\n"
           '    return _realize("deterministic',
           "        HalfWavePlate(HADAMARD_HWP_ANGLE, (S_H, S_V)),\n"
           "    )\n"
           '    return _realize("deterministic',
           ("tests/test_cli.py::test_report_all_text",
            "tests/test_acceptance.py::test_criterion_05_deterministic_optical_ts")),
    Mutant("deterministic gate carries a fourth, idle Kerr", OPTICAL,
           "        PolarizingBeamsplitter((S_H, S_V), (T_H, T_V)),\n"
           "    )\n"
           '    return _realize("deterministic',
           "        PolarizingBeamsplitter((S_H, S_V), (T_H, T_V)),\n"
           "        CrossKerr(0.0, (A_V, B_V)),\n"
           "    )\n"
           '    return _realize("deterministic',
           ("tests/test_cli.py::test_report_all_text",
            "tests/test_optical.py::test_deterministic_uses_three_kerr_interactions",
            "tests/test_acceptance.py::test_criterion_05_deterministic_optical_ts")),
    Mutant("CS(a) Kerr wired to control b", OPTICAL,
           "CrossKerr(math.pi, (A_V, S_V)),",
           "CrossKerr(math.pi, (B_V, S_V)),",
           ("tests/test_cli.py::test_report_all_text", "tests/test_cli.py::test_simulate_heralded")),
    Mutant("_realize certifies magnitudes only", OPTICAL,
           "residual = float(np.max(np.abs(transfer - math.sqrt(claimed) * np.diag(phases))))",
           "residual = float(np.max(np.abs(np.abs(transfer) - math.sqrt(claimed) * np.eye(len(phases)))))",
           ("tests/test_cli.py::test_kerr_on_the_wrong_control_fails_every_row_that_reads_it",)),
    Mutant("report's simulated rows accept a value within 1e-6", REPORT,
           "ok = isinstance(value, Fraction) and value == expected",
           "ok = abs(value - expected) < 1e-6",
           ("tests/test_cli.py::test_chain_point_dimmed_by_ten_parts_per_million_fails_both_commands",
            "tests/test_cli.py::test_chain_point_off_by_a_part_per_million_fails_both_commands")),
    Mutant("a Fraction printed as a decimal", CLI,
           '        return f"{value.numerator}/{value.denominator}"\n',
           "        return str(float(value))\n",
           ("tests/test_golden.py::test_command_output_matches_its_golden_file",)),
    Mutant("simulate-optical ignores the verdict", CLI,
           "    return PASS if realization.certified else FAIL",
           "    return PASS",
           ("tests/test_cli.py::test_chain_point_dimmed_by_ten_parts_per_million_fails_both_commands",
            "tests/test_cli.py::test_a_broken_construction_fails_its_verdict[kerr]",
            "tests/test_cli.py::test_a_broken_construction_fails_its_verdict[postselected-cs]")),
    Mutant("report's Kerr-count row ignores the verdict", REPORT,
           "Fraction(det.kerr_count) if det.certified else Fraction(0)",
           "Fraction(det.kerr_count)",
           ("tests/test_optical.py::test_report_reads_probabilities_off_the_simulation",)),
    Mutant("verify-toffoli guard back on exact integers and a float quotient", TOFFOLI,
           "return _ESTIMATE.multiply(_ESTIMATE.power(2, (n + 1) + 3 - 30), n + 1 + 16)",
           "return 8 * 2 ** (n + 1) * (n + 1 + 16) / 2 ** 30",
           ("tests/test_cli.py::test_oversized_n_is_refused_with_memory_estimate[1100]",)),
    Mutant("heralded gate accepts any cs_success", OPTICAL,
           "    if not 0 < cs_success <= 1:\n",
           "    if False:\n",
           ("tests/test_optical.py::test_meaningless_inputs_raise_value_error[cs_success-2]",
            "tests/test_optical.py::test_meaningless_inputs_raise_value_error[cs_success-minus-half]",
            "tests/test_optical.py::test_meaningless_inputs_raise_value_error[naive-cs-2]")),
    Mutant("naive total reads the 1/4-heralded total instead of the filter factor", OPTICAL,
           "** 2 * heralded.filter_success",
           "** 2 * heralded.success_probability",
           ("tests/test_optical.py::test_postselected_chain_total",
            "tests/test_optical.py::test_naive_chain_reads_the_heralded_filter_factor_at_any_cs_success",
            "tests/test_acceptance.py::test_criterion_07_postselected_controlled_sign",
            "tests/test_golden.py::test_command_output_matches_its_golden_file")),
    Mutant("params file accepts unknown keys", OPTICAL,
           "        if unknown:\n",
           "        if False:\n",
           ("tests/test_cli.py::test_bad_params_file_is_one_line_usage_error",)),
    Mutant("unknown keys printed unquoted", OPTICAL,
           "map(repr, unknown)",
           "map(str, unknown)",
           ("tests/test_cli.py::test_bad_params_file_is_one_line_usage_error[unknown-key-with-newline-command0]",
            "tests/test_cli.py::test_bad_params_file_is_one_line_usage_error[unknown-key-with-newline-command1]")),
    Mutant("unrecognized arguments printed unquoted", CLI,
           "' '.join(map(repr, unknown))",
           "' '.join(unknown)",
           ("tests/test_cli.py::test_bad_values_are_one_line_usage_errors[argv11]",)),
    Mutant("an out-of-range probability echoed unquoted", CLI,
           'f"must lie in (0, 1], got {text!r}"',
           'f"must lie in (0, 1], got {text}"',
           ("tests/test_cli.py::test_bad_values_are_one_line_usage_errors[argv8]",)),
    Mutant("params path printed unquoted", CLI,
           'raise UsageError(f"{path!r}: {exc}")',
           'raise UsageError(f"{path}: {exc}")',
           ("tests/test_cli.py::test_bad_params_file_is_one_line_usage_error",)),
    Mutant("a path may hold a NUL byte", CLI,
           '    if "\\0" in text:\n',
           "    if False:\n",
           ("tests/test_cli.py::test_bad_values_are_one_line_usage_errors[argv9]",
            "tests/test_cli.py::test_bad_values_are_one_line_usage_errors[argv10]",
            "tests/test_cli.py::test_every_generated_argv_ends_in_exit_0_1_or_2")),
    Mutant("params file read without a bound", CLI,
           "            raw = fh.read(PARAMS_FILE_LIMIT + 1)\n        if len(raw) > PARAMS_FILE_LIMIT:\n",
           "            raw = fh.read()\n        if False:\n",
           ("tests/test_cli.py::test_bad_params_file_is_one_line_usage_error[padded-past-limit-command0]",
            "tests/test_cli.py::test_bad_params_file_is_one_line_usage_error[padded-past-limit-command1]")),
    Mutant("an empty --out reads as stdout", CLI,
           "    if args.out is not None:\n",
           "    if args.out:\n",
           ("tests/test_cli.py::test_directory_path_is_one_line_usage_error[argv5]",)),
    Mutant("_real accepts a string", FOCK,
           "if isinstance(value, bool) or not isinstance(value, numbers.Real):",
           "if isinstance(value, bool):",
           ("tests/test_cli.py::test_bad_params_file_is_one_line_usage_error[reflectivity-string-command0]",
            "tests/test_cli.py::test_bad_params_file_is_one_line_usage_error[reflectivity-string-command1]",
            "tests/test_fock.py::test_each_guard_is_a_one_line_error[kerr-string]")),
)


def _pytest(workdir: Path, node_ids) -> tuple[int, list[str]]:
    """pytest's exit code and the ids of the failed tests."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *node_ids],
        cwd=workdir, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return run.returncode, failed


def _stop(signum, frame):
    """Unwind on a signal: `subprocess.run` kills its pytest child and the
    temporary directory removes itself on the way out."""
    raise SystemExit(f"stopped by signal {signal.Signals(signum).name}")


def main() -> int:
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _stop)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / name)

        bad_text = [m.name for m in CATALOGUE if (work / m.path).read_text().count(m.old) != 1]
        for name in bad_text:
            print(f"STALE     {name}: old text does not occur exactly once")
        if bad_text:
            return 1
        all_tests = sorted({t for m in CATALOGUE for t in m.tests})
        code, _ = _pytest(work, all_tests)
        if code != 0:
            print(f"the listed tests do not pass unmutated (pytest exit {code})")
            return 1

        failures = 0
        for m in CATALOGUE:
            path = work / m.path
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            t0 = time.perf_counter()
            code, failed = _pytest(work, m.tests)
            path.write_text(original)
            passed = [t for t in m.tests
                      if not any(f == t or f.startswith(t + "[") for f in failed)]
            if code not in (0, 1):
                verdict = f"ERROR     {m.name}: pytest exit {code}"
            elif passed:
                verdict = f"SURVIVED  {m.name}: {', '.join(passed)} passed"
            else:
                verdict = f"killed    {m.name}"
            failures += bool(code not in (0, 1) or passed)
            print(f"{verdict} ({time.perf_counter() - t0:.1f} s)")
    print(f"{len(CATALOGUE) - failures}/{len(CATALOGUE)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
