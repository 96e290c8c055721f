"""Qutrit/qudit Toffoli-sign constructions against brute-force oracles."""

import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qudit_toffoli.qudits import (
    NORM_TOL,
    PRODUCT_TOL,
    CircuitDescription,
    GateMatrix,
    GateStep,
    WireDims,
    WireError,
    basis_digits,
    basis_index,
    circuit_unitary,
    embed_gate,
)
from qudit_toffoli.toffoli import (
    _run_qubit_inputs,
    build_n_ts_circuit,
    expected_flipped_component,
    gate_cnot_embedded,
    gate_cs_embedded,
    gate_h_padded,
    gate_level_swap,
    gate_x_padded,
    gate_xa,
    gate_xb,
    oracle_n_toffoli_sign,
    qubit_subspace_indices,
    qubit_subspace_leakage,
    standard_gate_builder,
    verify_decomposition,
)
from reference import restrict_to_qubit_subspace, toffoli_truth_table


# ---------------------------------------------------------------------------
# gate library
# ---------------------------------------------------------------------------

def test_xa_swaps_levels_0_and_2():
    xa = gate_xa(3).matrix
    zero, one, two = np.eye(3)
    assert np.allclose(xa @ zero, two)
    assert np.allclose(xa @ two, zero)
    assert np.allclose(xa @ one, one)


def test_xa_is_involution():
    xa = gate_xa(3).matrix
    assert np.allclose(xa @ xa, np.eye(3))


def test_xa_requires_three_levels():
    with pytest.raises(ValueError):
        gate_xa(2)


def test_xb_flips_ququit_between_1_and_3():
    xb = gate_xb(4).matrix
    levels = np.eye(4)
    assert np.allclose(xb @ levels[1], levels[3])
    assert np.allclose(xb @ levels[3], levels[1])
    assert np.allclose(xb @ levels[0], levels[0])


def test_level_swap_matches_xa():
    assert np.allclose(gate_level_swap(0, 2, 3).matrix, gate_xa(3).matrix)


def test_level_swap_squares_to_identity():
    m = gate_level_swap(2, 4, 5).matrix
    assert np.allclose(m @ m, np.eye(5))


def test_level_swap_rejects_bad_levels():
    with pytest.raises(ValueError):
        gate_level_swap(0, 4, 3)
    with pytest.raises(ValueError):
        gate_level_swap(1, 1, 3)


def test_a_level_swap_allocates_no_dense_matrix():
    tracemalloc.start()
    try:
        gate_level_swap(0, 1, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20   # a dense 1024 x 1024 complex matrix takes 16 MiB


def test_cs_embedded_standard_qubit_block():
    assert np.allclose(gate_cs_embedded(2, 2).matrix, np.diag([1, 1, 1, -1]))


def test_cs_embedded_identity_on_qutrit_level():
    cs = gate_cs_embedded(2, 3)
    idx = basis_index((1, 2), WireDims((2, 3)))
    column = cs.matrix[:, idx]
    expected = np.zeros(6)
    expected[idx] = 1.0
    assert np.allclose(column, expected)


def test_cs_embedded_flips_one_one():
    cs = gate_cs_embedded(2, 3)
    idx = basis_index((1, 1), WireDims((2, 3)))
    assert cs.matrix[idx, idx] == -1.0


def test_cnot_embedded_flips_target():
    cnot = gate_cnot_embedded(2, 3)
    dims = WireDims((2, 3))
    src = basis_index((1, 0), dims)
    dst = basis_index((1, 1), dims)
    assert cnot.matrix[dst, src] == 1.0


def test_cnot_embedded_identity_on_qutrit_level():
    cnot = gate_cnot_embedded(2, 3)
    idx = basis_index((1, 2), WireDims((2, 3)))
    assert cnot.matrix[idx, idx] == 1.0


def test_cnot_is_hadamard_conjugated_cs():
    # controlled-NOT from controlled-sign between a pair of Hadamards
    for dt in (2, 3, 4):
        h = np.kron(np.eye(2), gate_h_padded(dt).matrix)
        product = h @ gate_cs_embedded(2, dt).matrix @ h
        assert np.max(np.abs(product - gate_cnot_embedded(2, dt).matrix)) < 1e-12


# each monomial library gate is built from its column map; the dense
# constructions it replaced, inlined, are the reference for its matrix

def _dense_level_swap(j, k, d):
    mat = np.eye(d, dtype=complex)
    mat[[j, k]] = mat[[k, j]]
    return mat


def _dense_cs(dc, dt):
    diag = np.ones(dc * dt, dtype=complex)
    diag[1 * dt + 1] = -1.0
    return np.diag(diag)


def _dense_cnot(dc, dt):
    mat = np.zeros((dc * dt, dc * dt), dtype=complex)
    for c in range(dc):
        for t in range(dt):
            t_out = (1 - t) if (c == 1 and t < 2) else t
            mat[c * dt + t_out, c * dt + t] = 1.0
    return mat


_LIBRARY_GATES = (
    [pytest.param(gate_xa, (d,), _dense_level_swap, (0, 2, d), id=f"xa-{d}") for d in range(3, 10)]
    + [pytest.param(gate_xb, (d,), _dense_level_swap, (1, 3, d), id=f"xb-{d}") for d in range(4, 10)]
    + [pytest.param(gate_x_padded, (d,), _dense_level_swap, (0, 1, d), id=f"x-{d}") for d in range(2, 10)]
    + [pytest.param(gate_level_swap, (j, k, d), _dense_level_swap, (j, k, d), id=f"swap-{j}-{k}-{d}")
       for d in range(2, 7) for j in range(d) for k in range(d) if j != k]
    + [pytest.param(gate_cs_embedded, (dc, dt), _dense_cs, (dc, dt), id=f"cs-{dc}x{dt}")
       for dc in range(2, 6) for dt in range(2, 6)]
    + [pytest.param(gate_cnot_embedded, (dc, dt), _dense_cnot, (dc, dt), id=f"cnot-{dc}x{dt}")
       for dc in range(2, 6) for dt in range(2, 6)])


@pytest.mark.parametrize("build, args, dense, dense_args", _LIBRARY_GATES)
def test_library_gate_columns_match_dense_discovery(build, args, dense, dense_args):
    gate = build(*args)
    assert "columns" in vars(gate)          # stored by the constructor, not discovered
    discovered = GateMatrix.from_matrix(gate.wire_dims, gate.matrix).columns
    for f in dataclasses.fields(discovered):
        built, found = getattr(gate.columns, f.name), getattr(discovered, f.name)
        assert built.dtype == found.dtype and np.array_equal(built, found), f.name
    mat = gate.matrix
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(gate.dim))) <= NORM_TOL
    expected = dense(*dense_args)
    assert mat.dtype == expected.dtype and mat.shape == expected.shape
    assert mat.tobytes() == expected.tobytes()
    assert not mat.flags.writeable


# ---------------------------------------------------------------------------
# the three-gate circuit, step by step
# ---------------------------------------------------------------------------

def _arbitrary_three_qubit_state(rng=None):
    """Input amplitudes on (2, 2, 3) with every qubit component populated;
    the target starts in its qubit levels only."""
    dims = WireDims((2, 2, 3))
    if rng is None:
        alphas = np.full((2, 2, 2), 1 / np.sqrt(8), dtype=complex)
    else:
        alphas = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        alphas /= np.linalg.norm(alphas)
    amps = np.zeros(dims.total_dim, dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                amps[basis_index((i, j, k), dims)] = alphas[i, j, k]
    return amps, alphas


def _run_prefix(circ, upto, amps):
    """Amplitudes after the circuit's first `upto` steps (all of them for
    None), as a function of the digits: the input times the prefix
    circuit's unitary."""
    out = circuit_unitary(CircuitDescription(circ.dims, circ.steps[:upto])) @ amps
    return lambda digits: out[basis_index(digits, circ.dims)]


def test_ts_circuit_intermediate_states():
    """Trace the circuit through its first gates: after X_A the target's 0
    amplitude sits in level 2; after the first CNOT the (j=1, k=1) amplitude
    has moved to target level 0; after the CS only the (1,0,1) component has
    flipped sign."""
    rng = np.random.default_rng(11)
    circ = build_n_ts_circuit(2)
    state, a = _arbitrary_three_qubit_state(rng)

    after_xa = _run_prefix(circ, 1, state)
    for i in range(2):
        for j in range(2):
            assert abs(after_xa((i, j, 2)) - a[i, j, 0]) < 1e-14
            assert abs(after_xa((i, j, 1)) - a[i, j, 1]) < 1e-14
            assert abs(after_xa((i, j, 0))) < 1e-14

    after_cnot = _run_prefix(circ, 2, state)
    for i in range(2):
        assert abs(after_cnot((i, 0, 2)) - a[i, 0, 0]) < 1e-14
        assert abs(after_cnot((i, 0, 1)) - a[i, 0, 1]) < 1e-14
        assert abs(after_cnot((i, 1, 2)) - a[i, 1, 0]) < 1e-14
        assert abs(after_cnot((i, 1, 0)) - a[i, 1, 1]) < 1e-14

    after_cs = _run_prefix(circ, 3, state)
    assert abs(after_cs((1, 0, 1)) + a[1, 0, 1]) < 1e-14
    assert abs(after_cs((0, 0, 1)) - a[0, 0, 1]) < 1e-14


def test_ts_circuit_flips_101_component_only():
    circ = build_n_ts_circuit(2)
    state, a = _arbitrary_three_qubit_state()
    out = _run_prefix(circ, None, state)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected = -a[i, j, k] if (i, j, k) == (1, 0, 1) else a[i, j, k]
                assert abs(out((i, j, k)) - expected) < 1e-13
            assert abs(out((i, j, 2))) < 1e-13


def test_ts_circuit_has_three_two_qudit_gates():
    assert build_n_ts_circuit(2).two_qudit_gate_count() == 3


def test_hadamard_conjugation_gives_toffoli_up_to_bit_flip():
    """H on the target before and after turns the T-S into a Toffoli; ours
    flips on (1,0,1) so it matches the brute-force Toffoli conjugated by a
    bit flip on the middle wire."""
    circ = build_n_ts_circuit(2)
    dims = circ.dims
    h_full = embed_gate(gate_h_padded(3), (2,), dims)
    u = h_full @ circuit_unitary(circ) @ h_full
    idx = qubit_subspace_indices(dims)
    restricted = u[np.ix_(idx, idx)]

    qdims = WireDims((2, 2, 2))
    flip_b = embed_gate(gate_x_padded(2), (1,), qdims)
    expected = flip_b @ toffoli_truth_table(2).matrix @ flip_b
    assert np.max(np.abs(restricted - expected)) < 1e-10


@pytest.mark.parametrize("n", range(2, 13))
def test_hadamard_conjugated_ts_propagates_as_the_toffoli(n):
    """H on the target around the n-control T-S, propagated on digit tuples
    with no dense matrix: each qubit input goes to itself with amplitude 1,
    its target flipped iff its controls are those of the flipped component.
    Up to n = 6 the entries are also the dense product's qubit columns."""
    circ = build_n_ts_circuit(n)
    h = GateStep("h", (), (n,), gate_h_padded(n + 1))
    circ = CircuitDescription(circ.dims, (h,) + circ.steps + (h,))
    digits, cols, amps, _ = _run_qubit_inputs(circ)
    inputs = np.indices((2,) * (n + 1)).reshape(n + 1, -1)
    expected = inputs.copy()
    controls = np.array(expected_flipped_component(n)[:n])[:, None]
    expected[n] ^= (inputs[:n] == controls).all(axis=0)
    assert np.array_equal(np.sort(cols), np.arange(2 ** (n + 1)))
    assert np.array_equal(digits, expected[:, cols])
    assert np.abs(amps - 1).max() < 1e-12
    if n <= 6:
        columns = np.zeros((circ.dims.total_dim, 2 ** (n + 1)), dtype=complex)
        columns[np.ravel_multi_index(digits, circ.dims.dims), cols] = amps
        full = circuit_unitary(circ)
        assert np.max(np.abs(full[:, qubit_subspace_indices(circ.dims)] - columns)) < 1e-12


@pytest.mark.parametrize("dims", [(2, 2, 3), (3, 2, 4), (2,) * 5 + (6,), (5,)])
def test_qubit_subspace_indices_match_the_digit_definition(dims):
    wd = WireDims(dims)
    want = [i for i in range(wd.total_dim) if max(basis_digits(i, wd)) < 2]
    assert qubit_subspace_indices(wd).tolist() == want


# ---------------------------------------------------------------------------
# n-control generalization
# ---------------------------------------------------------------------------

def test_n2_reproduces_ts_circuit():
    # the three-gate circuit: X_A(c), CNOT(b,c), CS(a,c), CNOT(b,c), X_A(c)
    circ = build_n_ts_circuit(2)
    assert circ.dims == WireDims((2, 2, 3))
    assert [(s.name, s.wires) for s in circ.steps] == [
        ("xa", (2,)), ("cnot", (1, 2)), ("cs", (0, 2)), ("cnot", (1, 2)), ("xa", (2,))]


def test_n3_five_gates_flip_on_all_ones():
    circ = build_n_ts_circuit(3)
    assert circ.two_qudit_gate_count() == 5
    oracle = oracle_n_toffoli_sign(3, (1, 1, 1, 1))
    report = verify_decomposition(circ, oracle, 3)
    assert abs(report.fidelity_to_oracle - 1.0) < 1e-10
    assert report.flipped_component == (1, 1, 1, 1)


def test_n5_needs_nine_gates():
    circ = build_n_ts_circuit(5)
    assert circ.two_qudit_gate_count() == 9


def test_each_distinct_gate_is_built_once_per_circuit():
    circ = build_n_ts_circuit(6)
    cnots = [step.gate for step in circ.steps if step.name == "cnot"]
    assert len(cnots) == 10 and all(gate is cnots[0] for gate in cnots)
    swaps = [step for step in circ.steps if step.name == "swap"]
    assert {step.params for step in swaps} == {(0, 4), (1, 5), (0, 6)}
    for step in swaps:
        assert np.array_equal(step.gate.matrix, gate_level_swap(*step.params, 7).matrix)


def test_rejects_fewer_than_two_controls():
    with pytest.raises(ValueError):
        build_n_ts_circuit(1)


@pytest.mark.parametrize("n", range(2, 7))
def test_scaling_and_fidelity(n):
    circ = build_n_ts_circuit(n)
    oracle = oracle_n_toffoli_sign(n, expected_flipped_component(n))
    report = verify_decomposition(circ, oracle, n)
    assert report.two_qudit_gate_count == 2 * n - 1
    assert abs(report.fidelity_to_oracle - 1.0) < 1e-10
    assert report.locally_equivalent_to_all_ones
    assert report.passed


@pytest.mark.parametrize("n", range(2, 7))
def test_qubit_subspace_closure(n):
    # borrowed levels are only transient: nothing remains above level 1
    circ = build_n_ts_circuit(n)
    u = circuit_unitary(circ)
    assert qubit_subspace_leakage(u, circ.dims) < 1e-12


@pytest.mark.parametrize("n", range(2, 6))
def test_full_unitary_involutive_on_qubit_subspace(n):
    circ = build_n_ts_circuit(n)
    u = circuit_unitary(circ)
    r = restrict_to_qubit_subspace(u, circ.dims)
    assert np.max(np.abs(r @ r - np.eye(2 ** (n + 1)))) < 1e-10


def test_max_level_used_matches_construction():
    for n in (2, 3, 4):
        report = verify_decomposition(
            build_n_ts_circuit(n), oracle_n_toffoli_sign(n, expected_flipped_component(n)), n)
        assert report.max_level_used == n


# ---------------------------------------------------------------------------
# oracle and verification
# ---------------------------------------------------------------------------

def test_oracle_n2_component_101_at_index_5():
    oracle = oracle_n_toffoli_sign(2, (1, 0, 1))
    assert oracle.shape == (8,)
    assert oracle[5] == -1.0
    assert np.sum(oracle < 0) == 1


def test_oracle_is_involution():
    oracle = oracle_n_toffoli_sign(3, (1, 0, 1, 1))
    assert oracle.shape == (16,)
    assert (oracle * oracle == 1).all()


def test_oracle_n3_all_ones_at_index_15():
    oracle = oracle_n_toffoli_sign(3, (1, 1, 1, 1))
    assert oracle[15] == -1.0


def test_oracle_rejects_out_of_range_component():
    with pytest.raises(WireError, match="wire 2: digit 2 out of range for dimension 2"):
        oracle_n_toffoli_sign(2, (0, 0, 2))


@pytest.mark.parametrize("oracle", [
    np.ones(4),
    np.ones((8, 8)),
    np.r_[np.ones(7), 0.5],
    np.r_[np.ones(7), np.nan],
    np.r_[-np.ones(7), 1j],
])
def test_verify_rejects_a_meaningless_oracle(oracle):
    with pytest.raises(ValueError, match="oracle must be a vector of 8 entries, each [+]1 or -1"):
        verify_decomposition(build_n_ts_circuit(2), oracle, 2)


def test_verify_reports_counts_and_references():
    report = verify_decomposition(
        build_n_ts_circuit(2), oracle_n_toffoli_sign(2, (1, 0, 1)), 2)
    assert report.two_qudit_gate_count == 3
    assert report.reference_counts["cs_gates_qubit_only_3toffoli"] == 6
    assert report.reference_counts["two_qubit_gates_qubit_only_5toffoli"] == 64
    assert "PASS" in report.to_text()


def test_corrupted_circuit_reports_low_fidelity_without_raising():
    circ = build_n_ts_circuit(2)
    corrupted = CircuitDescription(circ.dims, circ.steps[:3] + circ.steps[4:])  # drop a CNOT
    report = verify_decomposition(corrupted, oracle_n_toffoli_sign(2, (1, 0, 1)), 2)
    assert report.fidelity_to_oracle < 1.0 - 1e-6
    assert not report.passed


# ---------------------------------------------------------------------------
# one propagation against the dense references
# ---------------------------------------------------------------------------

def _masked_variants(n, rng):
    """Bit-flip-masked n-control circuits: as built, with a Hadamard inserted
    at a random place, with a random step dropped, and cut off right after a
    random parking step of the first half (so the last step reaches a new
    target level)."""
    base = build_n_ts_circuit(n)
    dims = base.dims
    for variant in ("masked", "inserted h", "dropped step", "truncated"):
        mask = rng.integers(0, 2, n + 1)
        flips = tuple(GateStep("x", (), (w,), gate_x_padded(dims.dims[w]))
                      for w, bit in enumerate(mask) if bit)
        steps = list(flips + base.steps + flips)
        if variant == "inserted h":
            wire = int(rng.integers(0, n + 1))
            steps.insert(int(rng.integers(0, len(steps) + 1)),
                         GateStep("h", (), (wire,), gate_h_padded(dims.dims[wire])))
        elif variant == "dropped step":
            del steps[int(rng.integers(0, len(steps)))]
        elif variant == "truncated":
            first_half = steps[:len(flips) + len(base.steps) // 2]
            parks = [i for i, step in enumerate(first_half) if step.name in ("xa", "xb", "swap")]
            del steps[int(rng.choice(parks)) + 1:]
        component = tuple(d ^ int(b) for d, b in zip(expected_flipped_component(n), mask))
        yield variant, CircuitDescription(dims, steps), oracle_n_toffoli_sign(n, component)


def _dense_equivalent_to_all_ones(restricted, component, n):
    """Conjugate by explicit X flips on every wire whose component digit is 0
    and compare with the all-ones oracle."""
    if not component:
        return False
    qdims = WireDims((2,) * (n + 1))
    conj = np.eye(2 ** (n + 1), dtype=complex)
    for wire, digit in enumerate(component):
        if digit == 0:
            conj = conj @ embed_gate(gate_x_padded(2), (wire,), qdims)
    moved = conj @ restricted @ conj
    target = np.diag(oracle_n_toffoli_sign(n, (1,) * (n + 1)))
    return bool(np.max(np.abs(moved - target)) < PRODUCT_TOL)


def _prefix_max_level(circ):
    """Highest target level holding amplitude after any prefix, from the
    columns of every all-qubit-levels input in the unitary of each prefix
    circuit (the first k steps, for every k)."""
    inputs = [basis_index(digits, circ.dims)
              for digits in itertools.product((0, 1), repeat=circ.dims.n_wires)]
    level = 1
    for k in range(1, len(circ.steps) + 1):
        columns = circuit_unitary(CircuitDescription(circ.dims, circ.steps[:k]))[:, inputs]
        for index in np.nonzero((np.abs(columns) > 1e-9).any(axis=1))[0]:
            level = max(level, basis_digits(int(index), circ.dims)[-1])
    return level


@pytest.mark.parametrize("n", range(2, 7))
def test_verify_matches_dense_references_on_masked_variants(n):
    rng = np.random.default_rng(1000 + n)
    dim = 2 ** (n + 1)
    for variant, circ, oracle in _masked_variants(n, rng):
        report = verify_decomposition(circ, oracle, n)
        full = circuit_unitary(circ)
        restricted = restrict_to_qubit_subspace(full, circ.dims)
        fidelity = abs(np.trace(restricted.conj().T @ np.diag(oracle))) / dim
        negative = np.nonzero(np.diagonal(restricted).real < 0)[0]
        component = (basis_digits(int(negative[0]), WireDims((2,) * (n + 1)))
                     if negative.size == 1 else ())
        assert abs(report.fidelity_to_oracle - fidelity) < 1e-12, variant
        assert abs(report.qubit_subspace_leakage
                   - qubit_subspace_leakage(full, circ.dims)) < 1e-12, variant
        assert report.flipped_component == component, variant
        assert report.locally_equivalent_to_all_ones == _dense_equivalent_to_all_ones(
            restricted, component, n), variant
        if n <= 5:
            assert report.max_level_used == _prefix_max_level(circ), variant
        assert report.passed == (variant == "masked"), variant


@st.composite
def _monomial_circuits(draw):
    """(n, circuit, oracle component): n qubit wires and a last wire of 2..5
    levels, carrying random level swaps on the last wire and `cnot` / `cs` on
    random wire pairs between two layers of `x` on a random mask.  The second
    layer is sometimes left out, so that the last step can reach a new level."""
    n = draw(st.integers(1, 3))
    dims = WireDims((2,) * n + (draw(st.integers(2, 5)),))
    wire = st.integers(0, n)
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("cs", "cnot", "swap")))
        if kind == "swap":
            j, k = draw(st.lists(st.integers(0, dims.dims[n] - 1), min_size=2, max_size=2, unique=True))
            steps.append(GateStep("swap", (j, k), (n,), gate_level_swap(j, k, dims.dims[n])))
        else:
            c, t = draw(st.lists(wire, min_size=2, max_size=2, unique=True))
            build = gate_cnot_embedded if kind == "cnot" else gate_cs_embedded
            steps.append(GateStep(kind, (), (c, t), build(dims.dims[c], dims.dims[t])))
    bits = st.lists(st.integers(0, 1), min_size=n + 1, max_size=n + 1)
    flips = tuple(GateStep("x", (), (w,), gate_x_padded(dims.dims[w]))
                  for w, bit in enumerate(draw(bits)) if bit)
    closing = () if draw(st.booleans()) else flips
    return n, CircuitDescription(dims, flips + tuple(steps) + closing), tuple(draw(bits))


@st.composite
def _split_circuits(draw):
    """A `_monomial_circuits` case with one or two `h` steps inserted at random
    places on random wires, so that the propagation splits and merges."""
    n, circ, component = draw(_monomial_circuits())
    steps = list(circ.steps)
    for _ in range(draw(st.integers(1, 2))):
        wire = draw(st.integers(0, n))
        steps.insert(draw(st.integers(0, len(steps))),
                     GateStep("h", (), (wire,), gate_h_padded(circ.dims.dims[wire])))
    return n, CircuitDescription(circ.dims, tuple(steps)), component


def _assert_report_matches_the_dense_unitary(n, circ, component):
    oracle = oracle_n_toffoli_sign(n, component)
    report = verify_decomposition(circ, oracle, n)
    full = circuit_unitary(circ)
    restricted = restrict_to_qubit_subspace(full, circ.dims)
    negative = np.nonzero(np.diagonal(restricted).real < 0)[0]
    flipped = basis_digits(int(negative[0]), WireDims((2,) * (n + 1))) if negative.size == 1 else ()
    assert abs(report.fidelity_to_oracle
               - abs(np.trace(restricted.conj().T @ np.diag(oracle))) / oracle.size) < 1e-12
    assert abs(report.qubit_subspace_leakage - qubit_subspace_leakage(full, circ.dims)) < 1e-12
    assert report.flipped_component == flipped
    assert report.locally_equivalent_to_all_ones == _dense_equivalent_to_all_ones(restricted, flipped, n)
    assert report.max_level_used == _prefix_max_level(circ)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_monomial_circuits())
def test_monomial_route_matches_the_dense_unitary(case):
    _assert_report_matches_the_dense_unitary(*case)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_split_circuits())
def test_split_route_matches_the_dense_unitary(case):
    _assert_report_matches_the_dense_unitary(*case)


# ---------------------------------------------------------------------------
# one-line guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: gate_xb(3), "X_B needs at least 4 levels, got 3", id="xb-qutrit"),
    pytest.param(lambda: gate_xa(2.5), "dimension 2.5 is not an integer", id="xa-dimension-float"),
    pytest.param(lambda: gate_xa(True), "dimension True is not an integer", id="xa-dimension-bool"),
    pytest.param(lambda: gate_xa("3"), "dimension '3' is not an integer", id="xa-dimension-string"),
    pytest.param(lambda: gate_xb(3.5), "dimension 3.5 is not an integer", id="xb-dimension-float"),
    pytest.param(lambda: gate_h_padded(2.5), "dimension 2.5 is not an integer", id="h-dimension-float"),
    pytest.param(lambda: standard_gate_builder("swap", (True, 3), (4,)), "swap levels must be integers, got (True, 3)",
                 id="swap-param-bool"),
    pytest.param(lambda: gate_level_swap(0.5, 1, 3), "level 0.5 is not an integer", id="swap-level-float"),
    pytest.param(lambda: gate_level_swap(True, 0, 3), "level True is not an integer", id="swap-level-bool"),
    pytest.param(lambda: gate_level_swap("a", "a", 3), "level 'a' is not an integer", id="swap-level-string"),
    pytest.param(lambda: gate_x_padded(2.5), "dimension 2.5 is not an integer", id="x-dimension-float"),
    pytest.param(lambda: gate_cs_embedded(2, 2.5), "target dimension 2.5 is not an integer", id="cs-target-dim-float"),
    pytest.param(lambda: gate_cnot_embedded(2.5, 2), "control dimension 2.5 is not an integer",
                 id="cnot-control-dim-float"),
    pytest.param(lambda: build_n_ts_circuit(2.5), "control count 2.5 is not an integer", id="circuit-n-float"),
    pytest.param(lambda: oracle_n_toffoli_sign(2, (0.5, 0, 1)), "wire 0: digit 0.5 is not an integer",
                 id="oracle-digit-float"),
    pytest.param(lambda: oracle_n_toffoli_sign(True, (1, 1)), "control count True is not an integer",
                 id="oracle-n-bool"),
    pytest.param(lambda: oracle_n_toffoli_sign(2.0, (1, 0, 1)), "control count 2.0 is not an integer",
                 id="oracle-n-float"),
    pytest.param(lambda: gate_cs_embedded(1, 2), "controlled-sign needs dimensions >= 2", id="cs-control-dim"),
    pytest.param(lambda: gate_cnot_embedded(2, 1), "controlled-NOT needs dimensions >= 2", id="cnot-target-dim"),
    pytest.param(lambda: verify_decomposition(build_n_ts_circuit(2), oracle_n_toffoli_sign(3, (0, 0, 0, 0)), 3),
                 "circuit / oracle dimensions do not match n", id="verify-n-mismatch"),
])
def test_each_guard_is_a_one_line_error(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)) as exc:
        call()
    assert "\n" not in str(exc.value)
