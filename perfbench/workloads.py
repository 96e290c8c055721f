"""The benchmark workloads: seeded inputs, the timed operation, its check.

Each workload draws a batch of JSON-ready inputs from a seeded generator
(`batch`), runs one operation per input through the package's public
functions (`run`), and checks the operation's output (`check`, which raises
`CheckFailed`).

Program functions are looked up on their modules at call time
(`toffoli.build_n_ts_circuit`, not a name bound at import), so the span
wrappers that `tracing` installs on those modules see every call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from qudit_toffoli import cli, qudits, toffoli

# Paths handed to the command line are relative to the checkout root, which
# run.py makes the working directory.
SOLUTION_FILE = "src/qudit_toffoli/data/chain_solution.json"
OUT_DIR = ".bench_out"
CLI_OUT = f"{OUT_DIR}/cli-out.json"


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class VerifySweep:
    """`build_n_ts_circuit(n)` plus `verify_decomposition`, with every circuit
    conjugated by bit flips on a random mask of its wires."""

    # (n, operations per batch); the median operation falls inside n=5 and
    # the slowest ten inside n=7 once a run holds two batches.
    MIX = ((2, 4), (3, 4), (4, 6), (5, 12), (6, 12), (7, 6), (8, 1))

    def batch(self, rng):
        sizes = [n for n, count in self.MIX for _ in range(count)]
        return [{"n": n, "mask": [int(b) for b in rng.integers(0, 2, n + 1)]}
                for n in (sizes[i] for i in rng.permutation(len(sizes)))]

    def run(self, item):
        n, mask = item["n"], tuple(item["mask"])
        circ = toffoli.build_n_ts_circuit(n)
        flips = tuple(
            qudits.GateStep("x", (), (w,), toffoli.standard_gate_builder("x", (), (circ.dims.dims[w],)))
            for w, bit in enumerate(mask) if bit)
        circ = qudits.CircuitDescription(circ.dims, flips + circ.steps + flips)
        oracle = toffoli.oracle_n_toffoli_sign(n, _masked_component(n, mask))
        return toffoli.verify_decomposition(circ, oracle, n)

    def check(self, item, report):
        n, mask = item["n"], tuple(item["mask"])
        _require(report.passed, f"n={n} mask={mask}: decomposition check failed")
        expected = _masked_component(n, mask)
        _require(tuple(report.flipped_component) == expected,
                 f"n={n} mask={mask}: flipped {report.flipped_component}, expected {expected}")
        _require(report.max_level_used == n,
                 f"n={n}: max target level {report.max_level_used}, expected {n}")
        _require(report.locally_equivalent_to_all_ones,
                 f"n={n} mask={mask}: not locally equivalent to the all-ones flip")


def _masked_component(n, mask):
    return tuple(d ^ b for d, b in zip(toffoli.expected_flipped_component(n), mask))


class CliBatch:
    """`cli.main([...])` in-process, in a seeded order, writing JSON to a file."""

    COPIES = 3                # of each fixed command per batch
    HERALDED_PER_BATCH = 42   # the median command falls among these

    def batch(self, rng):
        commands = self.COPIES * (
            [["report-all"]] * 2
            + [["simulate-optical", "kerr"]] * 2
            + [["simulate-optical", "postselected-cs"]] * 2
            + [["simulate-optical", "chained", "--params-file", SOLUTION_FILE]] * 2
            + [["verify-toffoli", "--n", str(n)] for n in range(2, 7)])
        for _ in range(self.HERALDED_PER_BATCH):
            q = int(rng.integers(1, 13))
            p = int(rng.integers(1, q + 1))
            commands.append(["simulate-optical", "heralded", "--cs-success", f"{p}/{q}"])
        return [{"argv": ["--format", "json", "--out", CLI_OUT] + commands[i]}
                for i in rng.permutation(len(commands))]

    def run(self, item):
        Path(CLI_OUT).unlink(missing_ok=True)  # no stale answer from the previous command
        code = cli.main(list(item["argv"]))
        with open(CLI_OUT) as fh:
            return code, json.load(fh)

    def check(self, item, out):
        argv = item["argv"]
        code, data = out
        _require(code == 0, f"{' '.join(argv)}: exit code {code}")
        cmd = argv[4:]
        if cmd[0] == "report-all":
            _check_report(data)
        elif cmd[0] == "verify-toffoli":
            n = int(cmd[2])
            _require(data["passed"] and data["two_qudit_gate_count"] == 2 * n - 1
                     and tuple(data["flipped_component"]) == toffoli.expected_flipped_component(n),
                     f"verify-toffoli --n {n}: {data}")
        elif cmd[1] == "kerr":
            _require(data["success_probability"] == "1/1", f"kerr: {data}")
        elif cmd[1] == "postselected-cs":
            _require(data["success_probability"] == "1/9"
                     and data["naive_chain_total"] == "1/162", f"postselected-cs: {data}")
            _require(max(abs(p - 1 / 9) for p in data["coincidence_probabilities"]) < 1e-12,
                     f"postselected-cs coincidences: {data['coincidence_probabilities']}")
        elif cmd[1] == "chained":
            _require(abs(data["success_probability_float"] - 1 / 72) < 1e-9,
                     f"chained: {data['success_probability_float']}")
        else:
            cs = Fraction(cmd[3])
            expected = cs * cs / 2
            _require(data["success_probability"] == f"{expected.numerator}/{expected.denominator}",
                     f"heralded --cs-success {cmd[3]}: {data['success_probability']}, "
                     f"expected {expected}")


def _check_report(data):
    _require(data["all_ok"], "report-all: not all rows ok")
    rows = {row["construction"]: row for row in data["rows"]}
    for name, display in (("heralded T-S, qudit target + filter", "1/32"),
                          ("post-selected controlled-sign", "1/9"),
                          ("post-selected T-S, two C-S gates + filter", "1/162")):
        _require(rows[name]["display"] == display,
                 f"report-all {name!r}: {rows[name]['display']}, expected {display}")
    chained = rows["post-selected T-S, chained interferometers"]["value"]
    _require(abs(chained - 1 / 72) < 1e-9, f"report-all chained: {chained}")


WORKLOADS = {
    "verify-sweep": VerifySweep,
    "cli-batch": CliBatch,
}
