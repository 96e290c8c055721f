"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one pass/fail line
per criterion.
"""

from fractions import Fraction

import numpy as np

from qudit_toffoli.fock import (
    FockBasis,
    circuit_fock_operator,
    lift_to_fock,
    permanent_amplitude_oracle,
)
from qudit_toffoli.optical import (
    ARM_L,
    chained_ts_gate,
    chain_topology,
    heralded_ts_gate,
    kerr_cs_gate,
    deterministic_ts_gate,
    load_chain_solution,
    naive_postselected_chain_probability,
    postselected_cs_gate,
    verify_chain_parameters,
)
from qudit_toffoli.qudits import WireDims, basis_index, circuit_unitary, equiv_up_to_global_phase, random_unitary
from qudit_toffoli.toffoli import (
    build_n_ts_circuit,
    expected_flipped_component,
    oracle_n_toffoli_sign,
    qubit_subspace_leakage,
    restrict_to_qubit_subspace,
    verify_decomposition,
)
from reference import detection_outcomes, fock_state, logical_indices, pattern_mask


def _report(number: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_three_gate_circuit_reproduction():
    circ = build_n_ts_circuit(2)
    unitary = circuit_unitary(circ)
    restricted = restrict_to_qubit_subspace(unitary, circ.dims)
    expected = np.eye(8, dtype=complex)
    flip = basis_index((1, 0, 1), WireDims((2, 2, 2)))
    expected[flip, flip] = -1.0
    deviation = float(np.max(np.abs(restricted - expected)))
    count = circ.two_qudit_gate_count()
    _report(1, deviation < 1e-10 and count == 3,
            f"qubit-subspace action = diag with -1 at |1,0,1> (max dev {deviation:.2e}), "
            f"{count} two-qudit gates")


def test_criterion_02_scaling_two_n_minus_one():
    ok = True
    details = []
    for n in range(2, 7):
        circ = build_n_ts_circuit(n)
        report = verify_decomposition(
            circ, oracle_n_toffoli_sign(n, expected_flipped_component(n)), n)
        good = (abs(report.fidelity_to_oracle - 1.0) < 1e-10
                and report.two_qudit_gate_count == 2 * n - 1)
        ok = ok and good
        details.append(f"n={n}:{report.two_qudit_gate_count}")
    five = build_n_ts_circuit(5).two_qudit_gate_count()
    ok = ok and five == 9
    _report(2, ok, f"fidelity 1 within 1e-10 and counts {' '.join(details)} "
                   f"(n=5 gives 9 vs 64 for qubits only)")


def test_criterion_03_qubit_subspace_closure():
    worst = 0.0
    for n in range(2, 7):
        circ = build_n_ts_circuit(n)
        worst = max(worst, qubit_subspace_leakage(circuit_unitary(circ), circ.dims))
    _report(3, worst < 1e-12, f"borrowed-level leakage over all basis inputs {worst:.2e} < 1e-12")


def test_criterion_04_cross_kerr_controlled_sign():
    gate = kerr_cs_gate()
    deviation = float(np.max(np.abs(gate.transfer - np.diag([1, 1, 1, -1]))))
    basis = FockBasis(4, 1)
    op = circuit_fock_operator(gate.circuit.elements, basis)
    vac_ok = True
    for occ in [(1, 0, 0, 0), (0, 1, 0, 0)]:
        state = fock_state(basis, occ)
        vac_ok = vac_ok and np.max(np.abs(op @ state - state)) < 1e-12
    _report(4, deviation < 1e-12 and vac_ok,
            f"transfer = diag(1,1,1,-1) at chi=pi (dev {deviation:.2e}); "
            f"identity on vacuum target group")


def test_criterion_05_deterministic_optical_ts():
    gate = deterministic_ts_gate()
    circ = build_n_ts_circuit(2)
    reference = restrict_to_qubit_subspace(circuit_unitary(circ), circ.dims)
    ok, lam = equiv_up_to_global_phase(gate.transfer, reference, 1e-10)
    _report(5, gate.kerr_count == 3 and ok,
            f"3 Kerr interactions; matches the qutrit circuit under dual-rail "
            f"encoding up to phase {lam}")


def test_criterion_06_heralded_gate():
    gate = heralded_ts_gate()
    basis = gate.circuit.basis()
    logical_columns = circuit_fock_operator(gate.circuit.elements, basis)[:, logical_indices(gate.layout, basis)]
    kept = pattern_mask(gate.circuit.pattern, basis)
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        final = logical_columns @ (amps / np.linalg.norm(amps))
        prob = np.sum(np.abs(final[kept]) ** 2)
        worst = max(worst, abs(prob - 0.5))
    total_ok = gate.success_probability == Fraction(1, 32)
    flip_ok = gate.flipped_component == (0, 0, 1)
    _report(6, worst < 1e-12 and total_ok and flip_ok,
            f"filter probability 1/2 (worst dev {worst:.2e}) over 100 random inputs; "
            f"total = 1/32 exactly; flip on |0,0,1>")


def test_criterion_07_postselected_controlled_sign():
    gate = postselected_cs_gate()
    probs = gate.coincidence_probabilities()
    prob_dev = float(np.max(np.abs(probs - 1 / 9)))
    transfer_dev = float(np.max(np.abs(gate.transfer - np.diag([1, 1, 1, -1]) / 3)))
    chain = naive_postselected_chain_probability()
    _report(7, prob_dev < 1e-10 and transfer_dev < 1e-10 and chain == Fraction(1, 162),
            f"coincidence probability 1/9 (dev {prob_dev:.2e}); transfer prop. to "
            f"diag(1,1,1,-1); naive chain = 1/162 exactly")


def test_criterion_08_reflectivity_solve_and_committed_point(solved_chain):
    solved = solved_chain
    v_solved = solved.verification
    solve_ok = (solved.converged
                and v_solved.certified
                and v_solved.flipped_component == (0, 0, 0)
                and v_solved.success_probability == Fraction(1, 72))
    committed = verify_chain_parameters(load_chain_solution())
    committed_ok = (committed.certified
                    and committed.flipped_component == (0, 0, 0)
                    and committed.success_probability == Fraction(1, 72))
    _report(8, solve_ok and committed_ok,
            f"solver reached |lambda|^2 = {float(v_solved.success_probability):.9f} "
            f"(1/72 = {1 / 72:.9f}); committed parameter file certified to 1e-12; "
            f"single sign flip at |0,0,0>")


def test_criterion_09_lift_agrees_with_permanent_oracle():
    rng = np.random.default_rng(909)
    worst_entry = 0.0
    worst_unitary = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(1, 4))
        mode = random_unitary(m, rng)
        basis = FockBasis(m, n)
        lifted = lift_to_fock(mode, basis)
        worst_unitary = max(worst_unitary, float(np.max(np.abs(
            lifted.conj().T @ lifted - np.eye(basis.size)))))
        for i, occ_out in enumerate(basis.states):
            for j, occ_in in enumerate(basis.states):
                oracle = permanent_amplitude_oracle(mode, occ_in, occ_out)
                worst_entry = max(worst_entry, abs(lifted[i, j] - oracle))
    _report(9, worst_entry < 1e-9 and worst_unitary < 1e-9,
            f"50 random interferometers (m<=7, N<=3): entrywise dev {worst_entry:.2e}, "
            f"unitarity dev {worst_unitary:.2e}")


def test_criterion_10_probability_completeness():
    rng = np.random.default_rng(1010)
    worst = 0.0

    def detection_total(gate, elements, detected_modes):
        # a random logical input, propagated; the probabilities of the final
        # state grouped by the photon counts on the detected modes
        basis = gate.circuit.basis()
        amps = rng.normal(size=len(gate.transfer)) + 1j * rng.normal(size=len(gate.transfer))
        logical_columns = circuit_fock_operator(elements, basis)[:, logical_indices(gate.layout, basis)]
        final = logical_columns @ (amps / np.linalg.norm(amps))
        return sum(detection_outcomes(basis, final, detected_modes).values())

    heralded = heralded_ts_gate()
    worst = max(worst, abs(detection_total(heralded, heralded.circuit.elements, [4, 5]) - 1.0))

    ps = postselected_cs_gate()
    worst = max(worst, abs(detection_total(ps, ps.circuit.elements, [4, 5]) - 1.0))

    params = load_chain_solution()
    chained = chained_ts_gate(params)
    worst = max(worst, abs(detection_total(chained, chain_topology(params).elements,
                                           [ARM_L, 7, 8, 9, 10, 11]) - 1.0))

    _report(10, worst < 1e-9,
            f"detection partitions sum to 1 for all post-selected constructions "
            f"(worst dev {worst:.2e})")
