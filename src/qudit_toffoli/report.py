"""Comparison tables: gate counts and success probabilities.

Simulated rows are recomputed from the constructions in this package and
read their verdicts; cited rows are published comparison constants carried
along for context.  A report is only "ok" if every simulated row shows its
exact Fraction, which only a certified construction reports: a simulated
float there, the optimized chain's included, is a MISMATCH.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import optical, toffoli


@dataclass(frozen=True)
class ReportRow:
    section: str                 # "gate counts" | "success probabilities"
    construction: str
    resources: str
    value: float
    display: str                 # exact fraction or decimal, as appropriate
    source: str                  # "simulated" | "cited"
    ok: bool


@dataclass(frozen=True)
class Report:
    rows: tuple[ReportRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def sections(self):
        seen = []
        for row in self.rows:
            if row.section not in seen:
                seen.append(row.section)
        return seen

    def to_text(self) -> str:
        lines = []
        for section in self.sections():
            rows = [r for r in self.rows if r.section == section]
            lines.append(section.upper())
            widths = (
                max(len(r.construction) for r in rows),
                max(len(r.resources) for r in rows),
                max(len(r.display) for r in rows),
            )
            for r in rows:
                status = "ok" if r.ok else "MISMATCH"
                lines.append(
                    f"  {r.construction:<{widths[0]}}  {r.resources:<{widths[1]}}  "
                    f"{r.display:>{widths[2]}}  [{r.source}] {status}")
            lines.append("")
        lines.append(f"overall: {'PASS' if self.all_ok else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "rows": [vars(r) for r in self.rows],
            "all_ok": self.all_ok,
        }


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def _simulated(section, construction, resources, value, expected: Fraction) -> ReportRow:
    """`expected` is the exact Fraction `value` must be."""
    ok = isinstance(value, Fraction) and value == expected
    display = _frac(value) if isinstance(value, Fraction) else f"{float(value):.9f}"
    return ReportRow(section, construction, resources, float(value), display, "simulated", ok)


def _cited(section, construction, resources, value, display=None) -> ReportRow:
    display = display if display is not None else (_frac(value) if isinstance(value, Fraction) else str(value))
    return ReportRow(section, construction, resources, float(value), display, "cited", True)


def build_report(chain_params: optical.ChainParameters | None = None) -> Report:
    """Assemble the full comparison report.

    `chain_params` defaults to the committed solver output; pass a freshly
    solved point to report that instead.
    """
    rows: list[ReportRow] = []

    # ---- gate counts ------------------------------------------------------
    counts = "gate counts"
    rep3 = toffoli.verify_decomposition(
        toffoli.build_n_ts_circuit(2), toffoli.oracle_n_toffoli_sign(2, toffoli.expected_flipped_component(2)), 2)
    rep5 = toffoli.verify_decomposition(
        toffoli.build_n_ts_circuit(5), toffoli.oracle_n_toffoli_sign(5, toffoli.expected_flipped_component(5)), 5)
    rows.append(_cited(counts, "Toffoli, qubits only, controlled-sign gates", "3 qubits",
                       Fraction(toffoli.QUBIT_ONLY_CS_GATES)))
    rows.append(_cited(counts, "Toffoli, qubits only, general two-qubit gates", "3 qubits",
                       Fraction(toffoli.QUBIT_ONLY_TWO_QUBIT_GATES)))
    rows.append(_simulated(counts, "Toffoli-sign, qutrit target (fidelity-checked)", "2 qubits + 1 qutrit",
                           Fraction(rep3.two_qudit_gate_count) if rep3.passed else Fraction(0),
                           Fraction(3)))
    rows.append(_cited(counts, "5-Toffoli, qubits only, two-qubit gates", "6 qubits",
                       Fraction(toffoli.FIVE_TOFFOLI_QUBIT_ONLY_GATES)))
    rows.append(_simulated(counts, "5-Toffoli-sign, 6-level target (fidelity-checked)", "5 qubits + 1 six-level qudit",
                           Fraction(rep5.two_qudit_gate_count) if rep5.passed else Fraction(0),
                           Fraction(9)))
    det = optical.deterministic_ts_gate()
    rows.append(_simulated(counts, "deterministic optical T-S, Kerr interactions", "3 photons",
                           Fraction(det.kerr_count) if det.certified else Fraction(0), Fraction(3)))

    # ---- success probabilities -------------------------------------------
    probs = "success probabilities"
    rows.append(_simulated(probs, "deterministic cross-Kerr T-S", "3 photons, 3 Kerr",
                           det.success_probability, Fraction(1)))
    heralded = optical.heralded_ts_gate()
    rows.append(_simulated(probs, "heralded T-S, qudit target + filter", "2 entangled pairs",
                           heralded.success_probability, Fraction(1, 32)))
    rows.append(_cited(probs, "heralded Toffoli, chain of 6 C-S gates", "6 entangled pairs",
                       optical.NAIVE_HERALDED_CHAIN))
    rows.append(_cited(probs, "heralded Toffoli, dedicated 3-pair scheme", "3 entangled pairs",
                       optical.ALTERNATIVE_HERALDED_3PAIR))
    cs = optical.postselected_cs_gate()
    rows.append(_simulated(probs, "post-selected controlled-sign", "2 photons",
                           cs.success_probability, Fraction(1, 9)))
    rows.append(_simulated(probs, "post-selected T-S, two C-S gates + filter", "3 photons",
                           optical.naive_postselected_chain_probability(cs, heralded), Fraction(1, 162)))
    params = chain_params if chain_params is not None else optical.load_chain_solution()
    rows.append(_simulated(probs, "post-selected T-S, chained interferometers", "3 photons",
                           optical.verify_chain_parameters(params).success_probability, optical.CHAINED_TARGET))
    rows.append(_cited(probs, "post-selected Toffoli, alternative architecture", "3 photons",
                       optical.ALTERNATIVE_POSTSELECTED, display="~1/133"))

    return Report(tuple(rows))
