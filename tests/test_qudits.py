"""Mixed-radix register engine: indexing, gate embedding, circuit products."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qudit_toffoli.qudits import (
    CircuitDescription,
    CircuitParseError,
    GateMatrix,
    GateStep,
    WireDims,
    WireError,
    basis_digits,
    basis_index,
    circuit_unitary,
    embed_gate,
    equiv_up_to_global_phase,
    parse_circuit,
    random_unitary,
)
from qudit_toffoli.toffoli import (
    build_n_ts_circuit,
    gate_cnot_embedded,
    gate_xa,
    oracle_n_toffoli_sign,
    standard_gate_builder,
    verify_decomposition,
)


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------

def test_basis_index_zero_case():
    assert basis_index((0, 0, 0), WireDims((2, 2, 3))) == 0


def test_basis_index_big_endian():
    # 1*6 + 0*3 + 1, first wire most significant
    assert basis_index((1, 0, 1), WireDims((2, 2, 3))) == 7


def test_basis_index_digit_out_of_range_names_wire():
    with pytest.raises(WireError, match="wire 2"):
        basis_index((0, 0, 3), WireDims((2, 2, 3)))


def test_basis_round_trip_small_register():
    dims = WireDims((2, 2, 3))
    for i in range(dims.total_dim):
        assert basis_index(basis_digits(i, dims), dims) == i


@pytest.mark.parametrize("dims", [(2, 3), (4, 2, 3), (2, 2, 2, 2, 2), (5, 7), (3, 3, 3, 3)])
def test_basis_round_trip_various_dims(dims):
    wd = WireDims(dims)
    assert wd.total_dim <= 10 ** 4
    for i in range(wd.total_dim):
        assert basis_index(basis_digits(i, wd), wd) == i


def test_wire_dims_rejects_dimension_below_two():
    with pytest.raises(WireError, match="wire 1"):
        WireDims((2, 1))


# ---------------------------------------------------------------------------
# gate application: a state after k steps is the state times the unitary of
# the circuit's first k steps
# ---------------------------------------------------------------------------

def _random_state(dims, rng):
    amps = rng.normal(size=dims.total_dim) + 1j * rng.normal(size=dims.total_dim)
    return amps / np.linalg.norm(amps)


def test_identity_gate_leaves_state_alone():
    dims = WireDims((2, 3))
    state = _random_state(dims, np.random.default_rng(0))
    eye = GateMatrix((3,), np.eye(3))
    out = circuit_unitary(CircuitDescription(dims, (GateStep("eye", (), (1,), eye),))) @ state
    assert np.allclose(out, state, atol=1e-15)


def test_xa_on_qutrit_wire():
    # X_A takes the target of |0,0,0> to level 2
    dims = WireDims((2, 2, 3))
    u = circuit_unitary(CircuitDescription(dims, (GateStep("xa", (), (2,), gate_xa(3)),)))
    out = u[:, basis_index((0, 0, 0), dims)]
    assert abs(out[basis_index((0, 0, 2), dims)] - 1.0) < 1e-15
    assert abs(np.linalg.norm(out) - 1.0) < 1e-15


def test_unitary_then_adjoint_restores_state():
    rng = np.random.default_rng(1)
    dims = WireDims((2, 3, 2))
    state = _random_state(dims, rng)
    u = random_unitary(6, rng)
    steps = (GateStep("u", (), (1, 2), GateMatrix((3, 2), u)),
             GateStep("u_dagger", (), (1, 2), GateMatrix((3, 2), u.conj().T)))
    out = circuit_unitary(CircuitDescription(dims, steps)) @ state
    assert np.max(np.abs(out - state)) < 1e-12


def test_norm_preserved_under_random_gates():
    rng = np.random.default_rng(2)
    dims = WireDims((2, 3, 4))
    state = _random_state(dims, rng)
    steps = []
    for _ in range(40):
        wire = int(rng.integers(3))
        d = dims.dims[wire]
        steps.append(GateStep("u", (), (wire,), GateMatrix((d,), random_unitary(d, rng))))
    for k in range(1, len(steps) + 1):
        out = circuit_unitary(CircuitDescription(dims, steps[:k])) @ state
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_embed_gate_rejects_repeated_wire():
    gate = GateMatrix((2, 2), np.eye(4))
    with pytest.raises(WireError, match="repeated"):
        embed_gate(gate, (0, 0), WireDims((2, 2)))


def test_circuit_rejects_repeated_wire():
    gate = GateMatrix((2, 2), np.eye(4))
    with pytest.raises(WireError, match="step 0: repeated wire"):
        CircuitDescription(WireDims((2, 2)), (GateStep("cs", (), (1, 1), gate),))


def test_embed_gate_rejects_dimension_mismatch():
    gate = GateMatrix((2,), np.eye(2))
    with pytest.raises(WireError, match="dimension"):
        embed_gate(gate, (1,), WireDims((2, 3)))


def test_disjoint_wire_gates_commute():
    rng = np.random.default_rng(3)
    dims = WireDims((2, 3, 2, 3))
    for _ in range(10):
        g1 = GateMatrix((2, 3), random_unitary(6, rng))
        g2 = GateMatrix((2, 3), random_unitary(6, rng))
        a = embed_gate(g1, (0, 1), dims) @ embed_gate(g2, (2, 3), dims)
        b = embed_gate(g2, (2, 3), dims) @ embed_gate(g1, (0, 1), dims)
        assert np.max(np.abs(a - b)) < 1e-10


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       sizes=st.lists(st.integers(2, 4), min_size=1, max_size=5).filter(lambda d: math.prod(d) <= 64))
def test_embed_gate_matches_kron_under_the_wire_permutation(data, seed, sizes):
    """A random non-monomial unitary on a random ordered subset of wires,
    against (g kron I) in the basis whose leading digits are the gate's wires
    in the step's order, brought back by an explicit basis permutation: no
    axis moves, unlike the kernel."""
    dims = WireDims(tuple(sizes))
    wires = data.draw(st.lists(st.integers(0, dims.n_wires - 1), min_size=1,
                               max_size=dims.n_wires, unique=True))
    gate_dims = tuple(sizes[w] for w in wires)
    gate = GateMatrix(gate_dims, random_unitary(math.prod(gate_dims), np.random.default_rng(seed)))
    assert gate.monomial is None
    order = wires + [w for w in range(dims.n_wires) if w not in wires]
    digits = np.indices(sizes).reshape(dims.n_wires, -1)
    moved = np.ravel_multi_index(digits[order], [sizes[w] for w in order])
    perm = np.zeros((dims.total_dim, dims.total_dim))
    perm[moved, np.arange(dims.total_dim)] = 1.0     # full-register index -> gate-wires-first index
    front = np.kron(gate.matrix, np.eye(dims.total_dim // gate.dim))
    assert np.max(np.abs(embed_gate(gate, wires, dims) - perm.T @ front @ perm)) < 1e-12


def test_gate_matrix_rejects_non_unitary():
    with pytest.raises(WireError, match="unitary"):
        GateMatrix((2,), np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_gate_matrix_keeps_a_read_only_copy():
    mine = np.eye(2, dtype=complex)
    gate = GateMatrix((2,), mine)
    with pytest.raises(ValueError, match="read-only"):
        gate.matrix[0, 0] = -1
    mine[0, 0] = -1                  # the caller's array stays writable and apart from the gate's
    assert gate.matrix[0, 0] == 1


@pytest.mark.parametrize("gate", [gate_xa(3), GateMatrix((2,), [[0, 1], [1, 0]])], ids=["columns", "dense"])
def test_monomial_table_is_read_only(gate):
    table = gate.monomial
    for array in (table.strides, table.digits, table.entries):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


@pytest.mark.parametrize("wire_dims", [(3,), (2, 3), (3, 2, 2)])
def test_monomial_table_rebuilds_a_random_monomial_gate(wire_dims):
    rng = np.random.default_rng(sum(wire_dims))
    dim = math.prod(wire_dims)
    order = rng.permutation(dim)
    perm = np.empty(dim, dtype=int)
    perm[order] = np.roll(order, 1)  # one dim-cycle, so the gate is not its own transpose
    mat = np.zeros((dim, dim), dtype=complex)
    mat[perm, np.arange(dim)] = np.exp(2j * np.pi * rng.random(dim))
    table = GateMatrix(wire_dims, mat).monomial
    assert np.array_equal(table.strides @ np.indices(wire_dims).reshape(len(wire_dims), -1),
                          np.arange(dim))
    rebuilt = np.zeros_like(mat)
    rebuilt[np.ravel_multi_index(table.digits, wire_dims), np.arange(dim)] = table.entries
    assert np.array_equal(rebuilt, mat)


def test_monomial_table_is_none_for_a_gate_with_a_spread_column():
    assert GateMatrix((2,), np.array([[1, 1], [1, -1]]) / np.sqrt(2)).monomial is None


# ---------------------------------------------------------------------------
# circuit unitaries
# ---------------------------------------------------------------------------

def test_empty_circuit_is_identity():
    from qudit_toffoli.qudits import CircuitDescription
    circ = CircuitDescription(WireDims((2, 3)), ())
    u = circuit_unitary(circ)
    assert np.allclose(u, np.eye(6))


def test_ts_circuit_unitary_restricted_diagonal():
    # the three-gate T-S: -1 exactly on |1,0,1>, +1 on the other qubit states
    from qudit_toffoli.toffoli import restrict_to_qubit_subspace
    circ = build_n_ts_circuit(2)
    u = circuit_unitary(circ)
    r = restrict_to_qubit_subspace(u, circ.dims)
    expected = np.diag([1, 1, 1, 1, 1, -1, 1, 1]).astype(complex)
    assert np.max(np.abs(r - expected)) < 1e-10


def test_two_ts_circuits_cancel_on_qubit_subspace():
    # self-inverse of a +-1 diagonal, checked by direct matrix product
    from qudit_toffoli.toffoli import restrict_to_qubit_subspace
    circ = build_n_ts_circuit(2)
    u = circuit_unitary(circ)
    squared = u @ u
    idx = [0, 1, 3, 4, 6, 7, 9, 10]
    assert np.max(np.abs(squared[np.ix_(idx, idx)] - np.eye(8))) < 1e-10


# ---------------------------------------------------------------------------
# phase-insensitive comparison
# ---------------------------------------------------------------------------

def test_equiv_identical_matrices():
    a = np.diag([1, 1j, -1, -1j])
    ok, lam = equiv_up_to_global_phase(a, a, 1e-12)
    assert ok and abs(lam - 1.0) < 1e-12


def test_equiv_negated_matrices():
    a = np.diag([1.0, 1.0, -1.0, 1.0])
    ok, lam = equiv_up_to_global_phase(a, -a, 1e-12)
    assert ok and abs(lam + 1.0) < 1e-12


def test_equiv_rejects_sign_pattern_difference():
    ok, lam = equiv_up_to_global_phase(np.diag([1.0, 1, 1, -1]), np.eye(4), 1e-10)
    assert not ok and lam is None


def test_equiv_rejects_shape_mismatch():
    with pytest.raises(WireError):
        equiv_up_to_global_phase(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# circuit text format
# ---------------------------------------------------------------------------

TS_CIRCUIT_TEXT = """\
# three-gate Toffoli-sign on two qubits and a qutrit
dims 2 2 3
xa 2
cnot 1 2
cs 0 2
cnot 1 2
xa 2
"""


def test_parse_ts_circuit_matches_builder():
    parsed = parse_circuit(TS_CIRCUIT_TEXT, standard_gate_builder)
    built = build_n_ts_circuit(2)
    assert parsed.dims == built.dims
    assert [s.name for s in parsed.steps] == [s.name for s in built.steps]
    assert np.allclose(circuit_unitary(parsed), circuit_unitary(built))


def test_parse_parameterized_gate():
    circ = parse_circuit("dims 4\nswap(1,3) 0\n", standard_gate_builder)
    assert circ.steps[0].params == (1, 3)
    expected = np.eye(4)[:, [0, 3, 2, 1]]
    assert np.allclose(circ.steps[0].gate.matrix, expected)


def test_parse_error_reports_line_number_unknown_gate():
    text = "dims 2 2\ncnot 0 1\nfrobnicate 0\n"
    with pytest.raises(CircuitParseError, match="line 3"):
        parse_circuit(text, standard_gate_builder)


def test_parse_error_reports_line_number_bad_wire():
    with pytest.raises(CircuitParseError, match="line 2"):
        parse_circuit("dims 2 2\ncnot 0 5\n", standard_gate_builder)


def test_parse_error_reports_line_number_repeated_wire():
    with pytest.raises(CircuitParseError, match="line 2: repeated wire"):
        parse_circuit("dims 2 3\ncnot 0 0\n", standard_gate_builder)


@pytest.mark.parametrize("step", ["h(0.5) 1", "x(7) 1", "cs(1,2) 0 1"])
def test_parse_error_reports_line_number_unused_parameters(step):
    with pytest.raises(CircuitParseError, match="line 3: .*takes no parameters"):
        parse_circuit(f"dims 2 3\nxa 1\n{step}\n", standard_gate_builder)


def test_parse_error_missing_dims():
    with pytest.raises(CircuitParseError, match="dims"):
        parse_circuit("cnot 0 1\n", standard_gate_builder)


@pytest.mark.parametrize("step", ["swap(1.5,0) 1", "swap(0,2.5) 1", "swap(1e400,0) 1"])
def test_parse_error_reports_line_number_non_integer_level(step):
    with pytest.raises(CircuitParseError, match="line 3: .*integers"):
        parse_circuit(f"dims 2 4\nxa 1\n{step}\n", standard_gate_builder)


# a line is a gate head (name and parameters) and a few wire tokens, valid or not
_CIRCUIT_HEADS = ("dims", "xa", "xb", "x", "h", "cs", "cnot", "swap", "frobnicate", "swap(1,3)",
                  "swap(1.5,0)", "swap(1e400,0)", "swap(nan,0)", "swap(1)", "h(0.5)", "cs(1,2)",
                  "x(", "#")
_CIRCUIT_ARGS = ("0", "1", "2", "-1", "1.5", "x", ")")
_CIRCUIT_LINES = st.tuples(st.sampled_from(_CIRCUIT_HEADS),
                           st.lists(st.sampled_from(_CIRCUIT_ARGS), max_size=2)).map(
    lambda t: " ".join((t[0],) + tuple(t[1])))
# the same heads on in-range wires, to get past the first lines
_CIRCUIT_STEPS = st.tuples(st.sampled_from(_CIRCUIT_HEADS),
                           st.lists(st.sampled_from(("0", "1")), min_size=1, max_size=2, unique=True)).map(
    lambda t: " ".join((t[0],) + tuple(t[1])))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(
    st.text(max_size=120),
    st.tuples(st.lists(st.sampled_from(("2", "3", "4")), min_size=2, max_size=3),
              st.lists(_CIRCUIT_STEPS, max_size=6)).map(
        lambda t: "\n".join([" ".join(("dims",) + tuple(t[0]))] + t[1])),
    st.lists(_CIRCUIT_LINES, max_size=8).map("\n".join)))
def test_parse_circuit_raises_only_its_own_error(text):
    try:
        parse_circuit(text, standard_gate_builder)
    except CircuitParseError:
        pass


# ---------------------------------------------------------------------------
# a NaN fails every unitarity and norm guard instead of slipping past it
# ---------------------------------------------------------------------------

def _unchecked_gate(matrix):
    """A one-qubit GateMatrix built without its unitarity check."""
    gate = object.__new__(GateMatrix)
    object.__setattr__(gate, "wire_dims", (2,))
    object.__setattr__(gate, "matrix", np.asarray(matrix, dtype=complex))
    return gate


def test_monomial_table_of_an_unchecked_gate_is_built_on_first_use():
    gate = _unchecked_gate([[0, 1], [1, 0]])
    assert gate.monomial is gate.monomial
    assert gate.monomial.digits.tolist() == [[1, 0]]


def test_gate_matrix_rejects_nan():
    with pytest.raises(WireError, match="not unitary"):
        GateMatrix((2,), [[np.nan, 0], [0, 1]])


def test_circuit_unitary_rejects_nan_product():
    nan_gate = _unchecked_gate([[np.nan, 0], [0, 1]])
    circ = CircuitDescription(WireDims((2, 2)), (GateStep("nan", (), (0,), nan_gate),))
    with pytest.raises(WireError, match="not unitary"):
        circuit_unitary(circ)


def test_verify_decomposition_rejects_nan_propagation():
    circ = build_n_ts_circuit(2)
    corrupted = CircuitDescription(
        circ.dims, circ.steps + (GateStep("nan", (), (0,), _unchecked_gate([[np.nan, 0], [0, 1]])),))
    with pytest.raises(WireError, match="not unitary"):
        verify_decomposition(corrupted, oracle_n_toffoli_sign(2, (1, 0, 1)), 2)


@pytest.mark.parametrize("matrix", [
    [[1, 1], [0, 0]],          # one nonzero per column, but both columns land on level 0
    [[1, 0], [0, 1 + 1e-9]],   # distinct outputs, one phase off the unit circle by 1e-9
])
def test_verify_decomposition_rejects_non_unitary_monomial_step(matrix):
    circ = build_n_ts_circuit(2)
    corrupted = CircuitDescription(
        circ.dims, circ.steps + (GateStep("bad", (), (0,), _unchecked_gate(matrix)),))
    with pytest.raises(WireError, match="not unitary on the qubit inputs"):
        verify_decomposition(corrupted, oracle_n_toffoli_sign(2, (1, 0, 1)), 2)


# ---------------------------------------------------------------------------
# one-line guards
# ---------------------------------------------------------------------------

_BIT = GateMatrix((2,), np.eye(2))
_CNOT = gate_cnot_embedded(2, 2)


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: basis_index((0,), WireDims((2, 2))), WireError,
                 "expected 2 digits, got 1", id="index-digit-count"),
    pytest.param(lambda: basis_digits(4, WireDims((2, 2))), WireError,
                 "index 4 out of range for total dimension 4", id="digits-index-range"),
    pytest.param(lambda: GateMatrix((2,), np.eye(3)), WireError,
                 "matrix shape (3, 3) does not match wire dims (2,)", id="gate-shape"),
    pytest.param(lambda: GateMatrix((0,), np.zeros((0, 0))), WireError,
                 "wire 0: dimension 0 < 2", id="gate-dimension-0"),
    pytest.param(lambda: GateMatrix((1,), np.eye(1)), WireError,
                 "wire 0: dimension 1 < 2", id="gate-dimension-1"),
    pytest.param(lambda: GateMatrix((), np.eye(1)), WireError,
                 "register needs at least one wire", id="gate-no-wires"),
    pytest.param(lambda: GateMatrix.from_columns((0,), [], []), WireError,
                 "wire 0: dimension 0 < 2", id="columns-dimension-0"),
    pytest.param(lambda: GateMatrix.from_columns((3,), [0, 1, 1], np.ones(3)), WireError,
                 "column rows [0, 1, 1] are not a permutation of range(3)", id="columns-repeated-row"),
    pytest.param(lambda: GateMatrix.from_columns((3,), [0, 1, 3], np.ones(3)), WireError,
                 "column rows [0, 1, 3] are not a permutation of range(3)", id="columns-row-range"),
    pytest.param(lambda: GateMatrix.from_columns((2, 2), [0, 1, 2], np.ones(3)), WireError,
                 "column map needs 4 integer rows and 4 entries for wire dims (2, 2), got 3", id="columns-length"),
    pytest.param(lambda: GateMatrix.from_columns((2,), [1, 0], [np.nan, 1]), WireError,
                 "matrix is not unitary (an entry is nan off the unit circle)", id="columns-nan"),
    pytest.param(lambda: GateMatrix.from_columns((2,), [1, 0], [1, 1 + 1e-9]), WireError,
                 "matrix is not unitary (an entry is 1.000e-09 off the unit circle)", id="columns-off-circle"),
    pytest.param(lambda: embed_gate(_BIT, (2,), WireDims((2, 2))), WireError,
                 "wire index 2 out of range for 2 wires", id="embed-wire-range"),
    pytest.param(lambda: CircuitDescription(WireDims((2, 2)), (GateStep("x", (), (2,), _BIT),)), WireError,
                 "step 0: wire index 2 out of range", id="circuit-wire-range"),
    pytest.param(lambda: CircuitDescription(WireDims((2, 2)), (GateStep("x", (), (1.0,), _BIT),)), WireError,
                 "step 0: wire 1.0 is not an integer", id="wire-float"),
    pytest.param(lambda: CircuitDescription(WireDims((2, 2)), (GateStep("x", (), (True,), _BIT),)), WireError,
                 "step 0: wire True is not an integer", id="wire-bool"),
    pytest.param(lambda: CircuitDescription(WireDims((2, 3)), (GateStep("x", (), (1,), _BIT),)), WireError,
                 "step 0: wire 1 has dimension 3, gate x expects 2", id="circuit-dimension"),
    pytest.param(lambda: CircuitDescription(WireDims((2, 2)), (GateStep("cnot", (), (0,), _CNOT),)), WireError,
                 "step 0: gate cnot acts on 2 wires, step names 1", id="circuit-arity-short"),
    pytest.param(lambda: CircuitDescription(WireDims((2, 2)), (GateStep("x", (), (0, 1), _BIT),)), WireError,
                 "step 0: gate x acts on 1 wires, step names 2", id="circuit-arity-long"),
    pytest.param(lambda: parse_circuit("dims 2\n1x 0", standard_gate_builder), CircuitParseError,
                 "line 2: cannot parse step '1x 0'", id="parse-step"),
    pytest.param(lambda: parse_circuit("dims 2\nx", standard_gate_builder), CircuitParseError,
                 "line 2: step names no target wires", id="parse-no-wires"),
])
def test_each_guard_is_a_one_line_error(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as exc:
        call()
    assert "\n" not in str(exc.value)
