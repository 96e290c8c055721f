"""Optical gate realizations: transfer matrices, probabilities, sign patterns."""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qudit_toffoli import optical
from qudit_toffoli.fock import (
    FockBasis,
    ModeLayout,
    _transfer_plan,
    circuit_fock_operator,
    lift_to_fock,
    logical_transfer,
    permanent_amplitude_oracle,
    single_photon_transfer,
)
from qudit_toffoli.optical import (
    ARM_L,
    ARM_U,
    C1_0,
    C1_1,
    C2_0,
    C2_1,
    T1,
    ChainParameters,
    deterministic_ts_gate,
    chain_coincidence_block,
    chain_elements,
    chain_mode_matrix,
    chained_ts_gate,
    heralded_ts_gate,
    kerr_cs_gate,
    load_chain_solution,
    naive_postselected_chain_probability,
    postselected_cs_gate,
    solve_chain_reflectivities,
    verify_chain_parameters,
)
from qudit_toffoli.report import build_report
from qudit_toffoli.qudits import CircuitDescription, basis_digits, basis_index, circuit_unitary
from qudit_toffoli.toffoli import build_n_ts_circuit, qubit_subspace_indices
from reference import ORACLE_TOL, QUQUIT_TARGET_LAYOUT, chain_params_json, logical_occupation
from reference import detection_outcomes, fock_state, logical_indices, vacuum_mask
from reference import equiv_up_to_global_phase, random_unitary, restrict_to_qubit_subspace


def _random_logical(n, rng):
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return amps / np.linalg.norm(amps)


def _final_state(gate, logical):
    """The gate's Fock basis, and its final state on the input that carries
    the logical amplitudes `logical` over its layout."""
    basis = FockBasis(gate.m, len(gate.layout.groups))
    return basis, circuit_fock_operator(gate.elements, basis)[:, logical_indices(gate.layout, basis)] @ logical


# ---------------------------------------------------------------------------
# cross-Kerr controlled-sign
# ---------------------------------------------------------------------------

def test_kerr_cs_transfer_is_diag_with_sign():
    gate = kerr_cs_gate()
    assert np.max(np.abs(gate.transfer - np.diag([1, 1, 1, -1]))) < 1e-12
    assert gate.flipped_component == (1, 1)
    assert gate.success_probability == Fraction(1)


def test_kerr_cs_general_strength_phases_delta_term():
    # arbitrary two-qubit superposition: only the |1,1> amplitude is phased
    chi = 0.7
    gate = kerr_cs_gate(chi=chi)
    rng = np.random.default_rng(21)
    alphas = _random_logical(4, rng)
    out = gate.transfer @ alphas
    expected = alphas * np.array([1, 1, 1, np.exp(1j * chi)])
    assert np.max(np.abs(out - expected)) < 1e-12


def test_kerr_cs_zero_strength_is_identity():
    gate = kerr_cs_gate(chi=0.0)
    assert np.max(np.abs(gate.transfer - np.eye(4))) < 1e-15


def test_kerr_cs_identity_on_vacuum_target_group():
    # one photon in the control pair, nothing in the target pair
    gate = kerr_cs_gate()
    basis = FockBasis(4, 1)
    for occ in [(1, 0, 0, 0), (0, 1, 0, 0)]:
        state = fock_state(basis, occ)
        out = circuit_fock_operator(gate.elements, basis) @ state
        assert np.max(np.abs(out - state)) < 1e-15


# ---------------------------------------------------------------------------
# deterministic T-S
# ---------------------------------------------------------------------------

def test_deterministic_uses_three_kerr_interactions():
    gate = deterministic_ts_gate()
    assert gate.kerr_count == 3
    kerr_elements = [el for el in gate.elements if type(el).__name__ == "CrossKerr"]
    assert len(kerr_elements) == 3


def test_deterministic_single_flip_on_all_equal_input():
    gate = deterministic_ts_gate()
    out = gate.transfer @ np.full(8, 1 / np.sqrt(8))
    signs = np.sign(out.real)
    assert np.sum(signs < 0) == 1
    assert gate.flipped_component == (1, 0, 1)


def test_deterministic_matches_qutrit_circuit_under_encoding():
    gate = deterministic_ts_gate()
    circ = build_n_ts_circuit(2)
    reference = restrict_to_qubit_subspace(circuit_unitary(circ), circ.dims)
    ok, lam = equiv_up_to_global_phase(gate.transfer, reference, 1e-10)
    assert ok
    assert abs(lam - 1.0) < 1e-10
    # stage by stage: the gate compiled from the first k steps holds each qubit
    # input where those k register steps do, target levels 0, 1, 2 on
    # (S_H, S_V, T_H) while level 2 is parked and on (T_H, T_V, S_H) after it
    assert gate.elements == optical._optical_elements(optical._TS_STEPS)
    assert heralded_ts_gate().elements[:5] == optical._optical_elements(optical._TS_STEPS[:3])
    basis = FockBasis(8, 3)
    inputs = logical_indices(gate.layout, basis)
    for k in range(1, 6):
        optical_cols = circuit_fock_operator(optical._optical_elements(optical._TS_STEPS[:k]), basis)[:, inputs]
        register = circuit_unitary(CircuitDescription(circ.dims, circ.steps[:k]))
        target = (T_H, T_V, S_H) if k == 5 else (S_H, S_V, T_H)
        register_cols = np.zeros_like(optical_cols)
        register_cols[logical_indices(ModeLayout(((A_H, A_V), (B_H, B_V), target)), basis)] = \
            register[:, qubit_subspace_indices(circ.dims)]
        assert np.max(np.abs(optical_cols - register_cols)) < 1e-12, f"stage {k}"
    # the three-control circuit has no rule from its first step on, nor its cnot(2, 3)
    three = build_n_ts_circuit(3).steps
    for steps, fragment in ((three, "step xa on wires (3,)"), (three[1:2], "step cnot on wires (2, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"no optical rule for {fragment}")) as exc:
            optical._optical_elements(steps)
        assert "\n" not in str(exc.value)


def test_deterministic_applied_twice_is_identity():
    gate = deterministic_ts_gate()
    assert np.max(np.abs(gate.transfer @ gate.transfer - np.eye(8))) < 1e-12


def test_deterministic_is_fully_unitary_with_unit_success():
    gate = deterministic_ts_gate()
    op = circuit_fock_operator(gate.elements, FockBasis(gate.m, len(gate.layout.groups)))
    assert np.max(np.abs(op.conj().T @ op - np.eye(op.shape[0]))) < 1e-9
    assert np.max(np.abs(np.sum(np.abs(gate.transfer) ** 2, axis=0) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# heralded T-S: the three published intermediate states
# ---------------------------------------------------------------------------

A_H, A_V, B_H, B_V, S_H, S_V, T_H, T_V = range(8)


def _heralded_input(alphas):
    """The heralded gate, its Fock basis and the input state carrying the
    logical amplitudes `alphas`."""
    gate = heralded_ts_gate()
    basis = FockBasis(gate.m, len(gate.layout.groups))
    state = np.zeros(basis.size, dtype=complex)
    state[logical_indices(gate.layout, basis)] = alphas.reshape(-1)
    return gate, basis, state


def _logical_and_leak(amps, layout, basis):
    """The logical amplitudes of `amps` over `layout`, and the norm outside them."""
    idx = logical_indices(layout, basis)
    return amps[idx], float(np.linalg.norm(np.delete(amps, idx)))


def _occupation(**kw):
    occ = [0] * 8
    for mode, count in kw.items():
        occ[globals()[mode.upper()]] = count
    return tuple(occ)


def _mode_of(qubit, value):
    return {("a", 0): A_H, ("a", 1): A_V, ("b", 0): B_H, ("b", 1): B_V}[(qubit, value)]


def test_heralded_state_after_second_cs():
    """After both controlled-sign gates: the target's original 0 amplitude is
    parked as H in path t, the 1 amplitude sits in path s as V (control b
    off) or H (control b on), and only the (1,0,1) term has flipped sign."""
    rng = np.random.default_rng(31)
    alphas = _random_logical(8, rng).reshape(2, 2, 2)
    gate, basis, state = _heralded_input(alphas)
    # the front end, through the second controlled sign
    mid = circuit_fock_operator(gate.elements[:5], basis) @ state

    expected = np.zeros(basis.size, dtype=complex)

    def put(i, j, extra_mode, coeff):
        occ = [0] * 8
        occ[_mode_of("a", i)] = 1
        occ[_mode_of("b", j)] = 1
        occ[extra_mode] = 1
        expected[basis.index_of(tuple(occ))] = coeff

    for i in range(2):
        for j in range(2):
            put(i, j, T_H, alphas[i, j, 0])                      # |vac, H>
        put(i, 0, S_V, -alphas[i, 0, 1] if i == 1 else alphas[i, 0, 1])   # |V, vac>
        put(i, 1, S_H, alphas[i, 1, 1])                          # |H, vac>
    assert np.max(np.abs(mid - expected)) < 1e-12


def test_heralded_mid_state_is_a_clean_ququit():
    # both spatial paths of the target are in play mid-circuit: a 4-level
    # system, with no leakage out of one-photon-per-group
    rng = np.random.default_rng(32)
    alphas = _random_logical(8, rng)
    gate, basis, state = _heralded_input(alphas)
    # the front end, through the second controlled sign
    mid = circuit_fock_operator(gate.elements[:5], basis) @ state
    logical, leak = _logical_and_leak(mid, QUQUIT_TARGET_LAYOUT, basis)
    assert leak < 1e-12
    # original target-0 amplitude lives in ququit level 2 (H in path t)
    dims = QUQUIT_TARGET_LAYOUT.wire_dims
    assert abs(logical[basis_index((0, 0, 2), dims)] - alphas[0]) < 1e-12
    assert abs(logical[basis_index((0, 0, 1), dims)] - alphas[1]) < 1e-12


def test_heralded_state_after_filter_waveplates():
    """The filter's wave plates rotate path s onto the diagonal basis and
    path t likewise: parked terms become D in t, and the path-s qubit holds
    A (for target 1, control b off) or D (control b on)."""
    rng = np.random.default_rng(33)
    alphas = _random_logical(8, rng).reshape(2, 2, 2)
    gate, basis, state = _heralded_input(alphas)
    # the front end and the filter's two wave plates
    mid = circuit_fock_operator(gate.elements[:7], basis) @ state
    inv_sqrt2 = 1 / np.sqrt(2)

    def amp(i, j, extra_mode):
        occ = [0] * 8
        occ[_mode_of("a", i)] = 1
        occ[_mode_of("b", j)] = 1
        occ[extra_mode] = 1
        return mid[basis.index_of(tuple(occ))]

    for i in range(2):
        for j in range(2):
            # |vac, D>: equal H and V amplitudes in path t
            assert abs(amp(i, j, T_H) - alphas[i, j, 0] * inv_sqrt2) < 1e-12
            assert abs(amp(i, j, T_V) - alphas[i, j, 0] * inv_sqrt2) < 1e-12
        sign = -1.0 if i == 1 else 1.0
        # b off: A state (H minus V) carrying the controlled-sign's flip
        assert abs(amp(i, 0, S_H) - sign * alphas[i, 0, 1] * inv_sqrt2) < 1e-12
        assert abs(amp(i, 0, S_V) + sign * alphas[i, 0, 1] * inv_sqrt2) < 1e-12
        # b on: D state
        assert abs(amp(i, 1, S_H) - alphas[i, 1, 1] * inv_sqrt2) < 1e-12
        assert abs(amp(i, 1, S_V) - alphas[i, 1, 1] * inv_sqrt2) < 1e-12


def test_heralded_conditional_output_flips_001():
    """Zero detection on the recombiner's path-s port leaves the logical
    output with the sign moved onto (0,0,1) and overall weight one half."""
    rng = np.random.default_rng(34)
    alphas = _random_logical(8, rng)
    gate, basis, state = _heralded_input(alphas)
    final = circuit_fock_operator(gate.elements, basis) @ state
    kept = np.where(vacuum_mask(basis, (S_H, S_V)), final, 0.0)
    assert abs(np.linalg.norm(kept) ** 2 - 0.5) < 1e-12
    logical, leak = _logical_and_leak(kept, gate.layout, basis)
    assert leak < 1e-12
    expected = alphas.copy() / np.sqrt(2)
    expected[1] *= -1.0          # index 1 == (0,0,1)
    assert np.max(np.abs(logical - expected)) < 1e-12


def test_heralded_filter_probability_is_half_for_100_random_inputs():
    gate = heralded_ts_gate()
    basis = FockBasis(gate.m, len(gate.layout.groups))
    logical_columns = circuit_fock_operator(gate.elements, basis)[:, logical_indices(gate.layout, basis)]
    kept = vacuum_mask(basis, (S_H, S_V))
    rng = np.random.default_rng(35)
    for _ in range(100):
        final = logical_columns @ _random_logical(8, rng)
        prob = np.sum(np.abs(final[kept]) ** 2)
        assert abs(prob - 0.5) < 1e-12


def test_heralded_total_probability_bookkeeping():
    gate = heralded_ts_gate()
    assert gate.success_probability == Fraction(1, 32)
    assert gate.cs_success == Fraction(1, 4)
    assert gate.filter_success == Fraction(1, 2)
    # the same arithmetic with other gate qualities
    assert heralded_ts_gate(Fraction(1, 2)).success_probability == Fraction(1, 8)


def test_heralded_transfer_pattern():
    gate = heralded_ts_gate()
    expected = np.diag([1, -1, 1, 1, 1, 1, 1, 1]) / np.sqrt(2)
    assert np.max(np.abs(gate.transfer - expected)) < 1e-12
    assert gate.flipped_component == (0, 0, 1)


def test_heralded_filter_is_a_fixed_linear_map_on_the_ququit():
    """The filter's conditional action on the 4-level target equals one fixed
    operator: built from basis states, then checked on superpositions."""
    gate = heralded_ts_gate()
    filter_elements = gate.elements[5:]          # after the second controlled sign
    basis = FockBasis(8, 1)
    group = QUQUIT_TARGET_LAYOUT.groups[2]
    out_modes = (T_H, T_V)
    op = circuit_fock_operator(filter_elements, basis)
    detected = vacuum_mask(basis, (S_H, S_V))
    out_idx = [basis.index_of(tuple(1 if m == om else 0 for m in range(8))) for om in out_modes]

    columns = []
    for level in range(4):
        occ = [0] * 8
        occ[group[level]] = 1
        kept = np.where(detected, op @ fock_state(basis, tuple(occ)), 0.0)
        columns.append(kept[out_idx])
    fixed_map = np.array(columns).T

    rng = np.random.default_rng(36)
    for _ in range(10):
        weights = _random_logical(4, rng)
        amps = np.zeros(basis.size, dtype=complex)
        for level, w in enumerate(weights):
            occ = [0] * 8
            occ[group[level]] = 1
            amps[basis.index_of(tuple(occ))] = w
        kept = np.where(detected, op @ amps, 0.0)
        got = kept[out_idx]
        assert np.max(np.abs(got - fixed_map @ weights)) < 1e-12


def test_heralded_probability_completeness():
    gate = heralded_ts_gate()
    rng = np.random.default_rng(37)
    basis, final = _final_state(gate, _random_logical(8, rng))
    total = sum(detection_outcomes(basis, final, [S_H, S_V]).values())
    assert abs(total - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# post-selected controlled-sign
# ---------------------------------------------------------------------------

def test_postselected_cs_transfer_and_probability():
    gate = postselected_cs_gate()
    assert np.max(np.abs(gate.transfer - np.diag([1, 1, 1, -1]) / 3)) < 1e-12
    probs = gate.coincidence_probabilities()
    assert np.max(np.abs(probs - 1 / 9)) < 1e-10
    assert gate.success_probability == Fraction(1, 9)


def test_postselected_cs_minus_one_third_on_11():
    gate = postselected_cs_gate()
    assert abs(gate.transfer[3, 3] + 1 / 3) < 1e-12


def test_postselected_cs_matches_permanent_oracle_entrywise():
    gate = postselected_cs_gate()
    mode = single_photon_transfer(gate.elements, 6)
    basis = FockBasis(gate.m, len(gate.layout.groups))
    op = circuit_fock_operator(gate.elements, basis)
    for i, occ_out in enumerate(basis.states):
        for j, occ_in in enumerate(basis.states):
            oracle = permanent_amplitude_oracle(mode, occ_in, occ_out)
            assert abs(op[i, j] - oracle) < 1e-9


def test_postselected_chain_total():
    assert naive_postselected_chain_probability(postselected_cs_gate(), heralded_ts_gate()) == Fraction(1, 162)


def test_naive_chain_reads_the_heralded_filter_factor_at_any_cs_success():
    # the heralded realization contributes its filter's 1/2, not its total
    cs = postselected_cs_gate()
    assert naive_postselected_chain_probability(cs, heralded_ts_gate(Fraction(3, 7))) == Fraction(1, 162)


def test_postselected_cs_probability_completeness():
    gate = postselected_cs_gate()
    rng = np.random.default_rng(38)
    basis, final = _final_state(gate, _random_logical(4, rng))
    total = sum(detection_outcomes(basis, final, [4, 5]).values())
    assert abs(total - 1.0) < 1e-9


def test_report_reads_probabilities_off_the_simulation(monkeypatch):
    # wave plates off the Hadamard angle: the filter no longer passes 1/2 of
    # every input and the Kerr gate loses weight, so the heralded 1/32, the
    # two-C-S 1/162 and the deterministic 1 must all show as decimal misses,
    # and the Kerr count, which needs the deterministic transfer certified, 0
    monkeypatch.setattr(optical, "HADAMARD_HWP_ANGLE", 0.3)
    rows = {row.construction: row for row in build_report().rows}
    for name in ("deterministic cross-Kerr T-S", "heralded T-S, qudit target + filter",
                 "post-selected T-S, two C-S gates + filter",
                 "deterministic optical T-S, Kerr interactions"):
        assert not rows[name].ok
        assert "/" not in rows[name].display
    assert rows["post-selected controlled-sign"].ok


@pytest.mark.parametrize("build", [
    pytest.param(kerr_cs_gate, id="kerr-pi"),
    pytest.param(lambda: kerr_cs_gate(0.7), id="kerr-0.7"),
    pytest.param(lambda: kerr_cs_gate(0.0), id="kerr-0"),
    pytest.param(deterministic_ts_gate, id="deterministic"),
    pytest.param(heralded_ts_gate, id="heralded-1/4"),
    pytest.param(lambda: heralded_ts_gate(Fraction(1, 9)), id="heralded-1/9"),
    pytest.param(lambda: heralded_ts_gate(Fraction(3, 7)), id="heralded-3/7"),
    pytest.param(postselected_cs_gate, id="postselected-cs"),
    pytest.param(lambda: chained_ts_gate(load_chain_solution()), id="chained"),
])
def test_a_warm_transfer_plan_gives_the_cold_plans_transfer_bit_for_bit(build):
    gate = build()
    _transfer_plan.cache_clear()
    cold = logical_transfer(gate.elements, gate.m, gate.layout)
    warm = logical_transfer(gate.elements, gate.m, gate.layout)
    assert warm.tobytes() == cold.tobytes() == gate.transfer.tobytes()


# ---------------------------------------------------------------------------
# chained-interferometer T-S
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved_params():
    return load_chain_solution()


def test_committed_solution_verifies_tightly(solved_params):
    v = verify_chain_parameters(solved_params)
    assert v.certified
    assert v.flipped_component == (0, 0, 0)
    assert v.success_probability == Fraction(1, 72)


def test_first_interferometer_antibalanced_when_control_off(solved_params):
    """Single photon entering the target's zero rail, first control's bottom
    mode empty: after the middle recombiner it sits entirely in the lower arm
    with a sign flip (the reflection off the coupler's dotted surface)."""
    elements = chain_elements(solved_params)[:5]
    basis = FockBasis(12, 1)
    occ = [0] * 12
    occ[ARM_U] = 1
    out = circuit_fock_operator(elements, basis) @ fock_state(basis, tuple(occ))
    upper = out[basis.index_of(tuple(1 if m == ARM_U else 0 for m in range(12)))]
    lower = out[basis.index_of(tuple(1 if m == ARM_L else 0 for m in range(12)))]
    assert abs(upper) < 1e-12
    assert abs(lower + 1 / np.sqrt(2)) < 1e-12


def test_first_interferometer_balanced_when_control_on(solved_params):
    """With the first control's bottom mode occupied, two-photon interference
    at the 1/3 coupler cancels the sign and the photon exits the upper arm."""
    elements = chain_elements(solved_params)[:5]
    basis = FockBasis(12, 2)
    occ = [0] * 12
    occ[ARM_U] = 1
    occ[C1_1] = 1
    out = circuit_fock_operator(elements, basis) @ fock_state(basis, tuple(occ))

    def joint(arm):
        pattern = [0] * 12
        pattern[C1_1] = 1
        pattern[arm] = 1
        return out[basis.index_of(tuple(pattern))]

    assert abs(joint(ARM_L)) < 1e-12
    assert abs(joint(ARM_U) - 1 / np.sqrt(6)) < 1e-12


def test_chained_coincidence_carries_sign_only_on_000(solved_params):
    block = chain_coincidence_block(chain_mode_matrix(solved_params))
    diag = np.diagonal(block).real
    assert diag[0] < 0
    assert np.all(diag[1:] > 0)
    assert np.max(np.abs(np.abs(diag) - 1 / np.sqrt(72))) < 1e-9
    off = block - np.diag(np.diagonal(block))
    assert np.max(np.abs(off)) < 1e-12


def test_chained_first_quantized_route_agrees_with_permanent_route(solved_params):
    realization = chained_ts_gate(solved_params)
    block = chain_coincidence_block(chain_mode_matrix(solved_params))
    assert np.max(np.abs(realization.transfer - block)) < 1e-10
    assert realization.flipped_component == (0, 0, 0)


_CHAIN_PARAMS = st.lists(st.floats(1e-4, 1.0), min_size=8, max_size=8).map(
    lambda vec: ChainParameters(*vec))
# the chain's logical wires, restated from the mode constants
_CHAIN_WIRES = ModeLayout(((C1_0, C1_1), (ARM_U, T1), (C2_0, C2_1)))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_CHAIN_PARAMS)
def test_chain_block_matches_first_quantized_route_on_random_parameters(params):
    block = chain_coincidence_block(chain_mode_matrix(params))
    assert np.max(np.abs(block - chained_ts_gate(params).transfer)) < 1e-10


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_CHAIN_PARAMS, st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=8))
def test_chain_block_matches_permanent_oracle_on_sampled_entries(params, seed, entries):
    # the chain's own block is diagonal, so a generic unitary covers the
    # off-diagonal entries
    dims = _CHAIN_WIRES.wire_dims
    for mode in (chain_mode_matrix(params), random_unitary(12, np.random.default_rng(seed))):
        block = chain_coincidence_block(mode)
        for y, x in entries:
            want = permanent_amplitude_oracle(mode, logical_occupation(_CHAIN_WIRES, basis_digits(x, dims), 12),
                                              logical_occupation(_CHAIN_WIRES, basis_digits(y, dims), 12))
            assert abs(block[y, x] - want) < ORACLE_TOL


def test_chained_success_uniform_over_basis_inputs(solved_params):
    realization = chained_ts_gate(solved_params)
    probs = realization.coincidence_probabilities()
    assert probs.max() - probs.min() < 1e-9
    assert abs(probs[0] - 1 / 72) < 1e-9


def test_chained_evolution_is_unitary(solved_params):
    mode = chain_mode_matrix(solved_params)
    assert np.max(np.abs(mode.conj().T @ mode - np.eye(12))) < 1e-9
    basis = FockBasis(12, 3)
    lifted = lift_to_fock(mode, basis)
    assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(basis.size))) < 1e-9


def test_chained_probability_completeness(solved_params):
    rng = np.random.default_rng(39)
    basis, final = _final_state(chained_ts_gate(solved_params), _random_logical(8, rng))
    total = sum(detection_outcomes(basis, final, [ARM_L, 7, 8, 9, 10, 11]).values())
    assert abs(total - 1.0) < 1e-9


def test_solver_reaches_the_published_operating_point(solved_chain):
    result = solved_chain
    assert result.converged
    assert result.verification.certified
    assert result.verification.flipped_component == (0, 0, 0)
    assert result.verification.success_probability == Fraction(1, 72)


def test_solver_is_deterministic_under_fixed_seed():
    a = solve_chain_reflectivities(seed=4, n_starts=4)
    b = solve_chain_reflectivities(seed=4, n_starts=4)
    assert a.params == b.params


def test_chained_parameters_validate_range():
    with pytest.raises(ValueError):
        ChainParameters(1.5, 0.5, 0.25, 1 / 3, 1.0, 0.125, 1.0, 1 / 3)


@pytest.mark.parametrize("call", [
    lambda: heralded_ts_gate(Fraction(2)),
    lambda: heralded_ts_gate(Fraction(-1, 2)),
    lambda: heralded_ts_gate(0),
    lambda: solve_chain_reflectivities(n_starts=0),
    lambda: naive_postselected_chain_probability(
        dataclasses.replace(postselected_cs_gate(), success_probability=Fraction(2)), heralded_ts_gate()),
    lambda: naive_postselected_chain_probability(
        dataclasses.replace(postselected_cs_gate(), success_probability=0.0), heralded_ts_gate()),
], ids=["cs_success-2", "cs_success-minus-half", "cs_success-0", "zero-starts", "naive-cs-2", "naive-cs-0"])
def test_meaningless_inputs_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_chained_parameters_json_round_trip(solved_params):
    restored = ChainParameters.from_json(chain_params_json(solved_params))
    assert restored == solved_params
