"""Fock-space engine: element unitaries, the permanent oracle and layouts."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qudit_toffoli.fock import (
    Beamsplitter,
    CrossKerr,
    FockBasis,
    HADAMARD_HWP_ANGLE,
    HalfWavePlate,
    ModeLayout,
    PhotonNumberError,
    PolarizingBeamsplitter,
    VacuumAttenuator,
    circuit_fock_operator,
    lift_to_fock,
    logical_transfer,
    permanent,
    permanent_amplitude_oracle,
    single_photon_transfer,
)
from qudit_toffoli.qudits import basis_digits
from reference import ORACLE_TOL, fock_state, logical_occupation, random_unitary


def _random_state(basis, rng):
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_basis_size_is_binomial():
    for m, n in [(2, 2), (3, 3), (7, 3), (8, 3)]:
        assert FockBasis(m, n).size == math.comb(n + m - 1, n)


def test_basis_order_lexicographic_descending():
    states = FockBasis(3, 2).states
    assert states[0] == (2, 0, 0)
    assert list(states) == sorted(states, reverse=True)


def test_basis_index_round_trip():
    basis = FockBasis(4, 3)
    for i, occ in enumerate(basis.states):
        assert basis.index_of(occ) == i


def test_basis_rejects_wrong_photon_number():
    with pytest.raises(PhotonNumberError):
        FockBasis(3, 2).index_of((1, 1, 1))


# ---------------------------------------------------------------------------
# mode matrices
# ---------------------------------------------------------------------------

def test_balanced_beamsplitter_is_hadamard_block():
    mat = single_photon_transfer([Beamsplitter(0.5, (0, 1))], 2)
    assert np.max(np.abs(mat - np.array([[1, 1], [1, -1]]) / np.sqrt(2))) < 1e-15


def test_empty_element_list_gives_identity():
    assert np.allclose(single_photon_transfer([], 3), np.eye(3))


def test_beamsplitter_is_involution():
    bs = Beamsplitter(0.37, (0, 2))
    mat = single_photon_transfer([bs, bs], 3)
    assert np.max(np.abs(mat - np.eye(3))) < 1e-14


def test_dotted_side_moves_sign():
    # the sign sits on the second listed mode, so listing the modes the other
    # way round moves it
    default = single_photon_transfer([Beamsplitter(0.25, (0, 1))], 2)
    flipped = single_photon_transfer([Beamsplitter(0.25, (1, 0))], 2)
    assert default[1, 1] < 0 and default[0, 0] > 0
    assert flipped[0, 0] < 0 and flipped[1, 1] > 0


def test_beamsplitter_rejects_bad_reflectivity():
    with pytest.raises(ValueError):
        Beamsplitter(1.2, (0, 1))


def test_kerr_has_no_mode_matrix():
    with pytest.raises(TypeError, match="CrossKerr has no single-photon mode matrix"):
        single_photon_transfer([CrossKerr(np.pi, (0, 1))], 2)


# ---------------------------------------------------------------------------
# lifting and the permanent oracle
# ---------------------------------------------------------------------------

def test_lift_single_photon_equals_mode_matrix():
    rng = np.random.default_rng(5)
    u = random_unitary(4, rng)
    basis = FockBasis(4, 1)
    lifted = lift_to_fock(u, basis)
    # N=1 basis enumerates modes in reverse order (descending occupations)
    perm = [basis.index_of(tuple(1 if j == i else 0 for j in range(4))) for i in range(4)]
    assert np.max(np.abs(lifted[np.ix_(perm, perm)] - u)) < 1e-12


def test_hong_ou_mandel_dip():
    basis = FockBasis(2, 2)
    u = lift_to_fock(single_photon_transfer([Beamsplitter(0.5, (0, 1))], 2), basis)
    out = u[:, basis.index_of((1, 1))]
    assert abs(out[basis.index_of((1, 1))]) < 1e-14
    assert abs(abs(out[basis.index_of((2, 0))]) ** 2 - 0.5) < 1e-12


def test_one_third_beamsplitter_two_photon_amplitude():
    # the stay-put amplitude is 1 - 2*eta = +1/3: magnitude forced by the
    # block, the plus sign by the dotted-side convention
    basis = FockBasis(2, 2)
    u = lift_to_fock(single_photon_transfer([Beamsplitter(1 / 3, (0, 1))], 2), basis)
    amp = u[basis.index_of((1, 1)), basis.index_of((1, 1))]
    assert abs(amp - (1 / 3)) < 1e-14


def test_one_third_beamsplitter_bunching_amplitude_vs_oracle():
    mode = single_photon_transfer([Beamsplitter(1 / 3, (0, 1))], 2)
    basis = FockBasis(2, 2)
    lifted = lift_to_fock(mode, basis)
    got = lifted[basis.index_of((2, 0)), basis.index_of((1, 1))]
    oracle = permanent_amplitude_oracle(mode, (1, 1), (2, 0))
    assert abs(got - oracle) < 1e-12
    # probability of bunching into the first mode: |sqrt(2) r t|^2 = 4/9 * 1/2 * 2
    assert abs(abs(got) ** 2 - 2 * (1 / 3) * (2 / 3)) < 1e-12


def test_identity_oracle_amplitude_is_one():
    for occ in [(1, 0, 2), (3, 0, 0), (1, 1, 1)]:
        assert abs(permanent_amplitude_oracle(np.eye(3), occ, occ) - 1.0) < 1e-14


def test_oracle_rejects_photon_mismatch():
    with pytest.raises(PhotonNumberError):
        permanent_amplitude_oracle(np.eye(2), (1, 0), (1, 1))


@pytest.mark.parametrize("mode, occ_in, occ_out, fragment", [
    (np.eye(2), (0, 0, 1), (0, 0, 1), "occupations of length 3 and 3 for 2 modes"),
    (np.eye(3), (1, 0), (1, 0), "occupations of length 2 and 2 for 3 modes"),
    (np.eye(2), (1.5, 0), (1, 0), "photon number 1.5 is not a non-negative integer"),
    (np.eye(2), (-1, 1), (0, 0), "photon number -1 is not a non-negative integer"),
    (np.full((2, 3), 0.5), (1, 0), (1, 0), "mode matrix shape (2, 3) is not square"),
], ids=["occupation-too-long", "occupation-too-short", "fractional-count", "negative-count", "2x3-matrix"])
def test_oracle_refuses_a_malformed_matrix_or_occupation(mode, occ_in, occ_out, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)) as exc:
        permanent_amplitude_oracle(mode, occ_in, occ_out)
    assert "\n" not in str(exc.value)


def test_permanent_small_cases():
    assert permanent(np.array([[3.0]])) == 3.0
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert abs(permanent(a) - 10.0) < 1e-13


def test_lift_agrees_with_oracle_random_interferometers():
    rng = np.random.default_rng(17)
    for _ in range(12):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(1, 4))
        mode = random_unitary(m, rng)
        basis = FockBasis(m, n)
        lifted = lift_to_fock(mode, basis)
        assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(basis.size))) < 1e-9
        for _ in range(20):
            i, j = rng.integers(basis.size, size=2)
            oracle = permanent_amplitude_oracle(mode, basis.states[j], basis.states[i])
            assert abs(lifted[i, j] - oracle) < 1e-9


def test_lift_rejects_non_unitary_input():
    with pytest.raises(ValueError, match="unitary"):
        lift_to_fock(np.array([[1.0, 0.0], [0.0, 2.0]]), FockBasis(2, 1))


# ---------------------------------------------------------------------------
# element application
# ---------------------------------------------------------------------------

def test_kerr_pi_flips_doubly_occupied_pair():
    basis = FockBasis(2, 2)
    out = circuit_fock_operator([CrossKerr(np.pi, (0, 1))], basis) @ fock_state(basis, (1, 1))
    assert abs(out[basis.index_of((1, 1))] + 1.0) < 1e-14


def test_kerr_identity_when_either_mode_empty():
    basis = FockBasis(3, 2)
    state = fock_state(basis, (2, 0, 0))
    out = circuit_fock_operator([CrossKerr(np.pi, (0, 1))], basis) @ state
    assert np.allclose(out, state)


def test_kerr_zero_strength_is_identity():
    rng = np.random.default_rng(6)
    basis = FockBasis(3, 2)
    state = _random_state(basis, rng)
    assert np.allclose(circuit_fock_operator([CrossKerr(0.0, (0, 2))], basis) @ state, state)


def test_kerr_operator_is_diagonal():
    basis = FockBasis(3, 2)
    op = circuit_fock_operator([CrossKerr(1.3, (0, 2))], basis)
    assert np.max(np.abs(op - np.diag(np.diagonal(op)))) < 1e-15


def test_hwp_at_hadamard_angle():
    basis = FockBasis(2, 1)
    op = circuit_fock_operator([HalfWavePlate(HADAMARD_HWP_ANGLE, (0, 1))], basis)
    d = op @ fock_state(basis, (1, 0))
    assert np.allclose(d, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    a = op @ fock_state(basis, (0, 1))
    assert np.allclose(a, [1 / np.sqrt(2), -1 / np.sqrt(2)])


def test_hwp_at_zero_degrees():
    _, block = HalfWavePlate(0.0, (0, 1)).mode_block()
    assert np.allclose(block, np.diag([1.0, -1.0]))


def test_pbs_routes_v_and_keeps_h():
    basis = FockBasis(4, 1)
    op = circuit_fock_operator([PolarizingBeamsplitter((0, 1), (2, 3))], basis)
    v1 = op @ fock_state(basis, (0, 1, 0, 0))
    assert abs(v1[basis.index_of((0, 0, 0, 1))] - 1) < 1e-15
    h1 = op @ fock_state(basis, (1, 0, 0, 0))
    assert abs(h1[basis.index_of((1, 0, 0, 0))] - 1) < 1e-15


def test_pbs_twice_restores_dual_rail_qubit():
    rng = np.random.default_rng(8)
    basis = FockBasis(4, 1)
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.index_of((1, 0, 0, 0))] = 0.6
    amps[basis.index_of((0, 1, 0, 0))] = 0.8j
    pbs = PolarizingBeamsplitter((0, 1), (2, 3))
    out = circuit_fock_operator([pbs, pbs], basis) @ amps
    assert np.max(np.abs(out - amps)) < 1e-15


def test_elements_conserve_photon_number_and_norm():
    rng = np.random.default_rng(9)
    basis = FockBasis(5, 3)
    state = _random_state(basis, rng)
    elements = [
        Beamsplitter(0.3, (0, 1)),
        HalfWavePlate(0.4, (2, 3)),
        CrossKerr(0.7, (1, 4)),
        VacuumAttenuator(0.5, 2, 4),
        PolarizingBeamsplitter((0, 1), (2, 3)),
    ]
    for el in elements:
        out = circuit_fock_operator([el], basis) @ state
        assert out.shape == (basis.size,)  # same (m, N) space
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_element_operators_are_unitary():
    basis = FockBasis(4, 2)
    for el in [Beamsplitter(0.21, (1, 3)), HalfWavePlate(0.3, (0, 1)),
               CrossKerr(2.0, (0, 3)), PolarizingBeamsplitter((0, 1), (2, 3))]:
        op = circuit_fock_operator([el], basis)
        assert np.max(np.abs(op.conj().T @ op - np.eye(basis.size))) < 1e-12


ELEMENT_KINDS = ("bs", "atten", "hwp", "pbs", "kerr")
MODE_LINEAR_KINDS = ("bs", "atten", "hwp", "pbs")


def _random_element(rng, m, kind):
    a, b, c, d = (int(x) for x in rng.permutation(m)[:4])
    if kind == "bs":
        return Beamsplitter(float(rng.uniform()), ((a, b), (b, a), (a, b))[rng.integers(3)])
    if kind == "atten":
        return VacuumAttenuator(float(rng.uniform()), a, b)
    if kind == "hwp":
        return HalfWavePlate(float(rng.uniform(0.0, np.pi)), (a, b))
    if kind == "pbs":
        return PolarizingBeamsplitter((a, b), (c, d))
    return CrossKerr(float(rng.uniform(0.0, 2 * np.pi)), (a, b))


def test_circuit_operator_matches_lift_and_permanent_oracle():
    rng = np.random.default_rng(22)
    for shape in [(4, 2), (5, 3), (8, 3)]:
        basis = FockBasis(*shape)
        for _ in range(4):
            elements = [_random_element(rng, basis.m, str(rng.choice(MODE_LINEAR_KINDS)))
                        for _ in range(int(rng.integers(1, 9)))]
            op = circuit_fock_operator(elements, basis)
            mode = single_photon_transfer(elements, basis.m)
            assert np.max(np.abs(op - lift_to_fock(mode, basis))) < 1e-12
            for _ in range(15):
                i, j = rng.integers(basis.size, size=2)
                oracle = permanent_amplitude_oracle(mode, basis.states[j], basis.states[i])
                assert abs(op[i, j] - oracle) < ORACLE_TOL


def _embedded_block_product(elements, m):
    """The composition spelled out: each block embedded in an m x m identity."""
    mat = np.eye(m, dtype=complex)
    for el in elements:
        modes, block = el.mode_block()
        embedded = np.eye(m, dtype=complex)
        embedded[np.ix_(modes, modes)] = block
        mat = embedded @ mat
    return mat


@settings(max_examples=60, derandomize=True, deadline=None)
@given(m=st.integers(4, 8), kinds=st.lists(st.sampled_from(MODE_LINEAR_KINDS), max_size=10),
       seed=st.integers(0, 2 ** 32 - 1))
def test_single_photon_transfer_matches_embedded_block_product(m, kinds, seed):
    rng = np.random.default_rng(seed)
    elements = [_random_element(rng, m, kind) for kind in kinds]
    want = _embedded_block_product(elements, m)
    assert np.max(np.abs(single_photon_transfer(elements, m) - want)) < 1e-12


def _assert_logical_transfer_matches_dense_operator_rows(elements, m, k, rng):
    # a random dual-rail layout of k wires on a subset of the modes; the other
    # modes stay empty
    modes = [int(x) for x in rng.permutation(m)[:2 * k]]
    layout = ModeLayout(tuple(zip(modes[::2], modes[1::2])))
    basis = FockBasis(m, k)
    dims = layout.wire_dims
    idx = [basis.index_of(logical_occupation(layout, basis_digits(x, dims), m)) for x in range(dims.total_dim)]
    want = circuit_fock_operator(elements, basis)[np.ix_(idx, idx)]
    assert np.max(np.abs(logical_transfer(elements, m, layout) - want)) < 1e-12


@settings(max_examples=60, derandomize=True, deadline=None)
@given(m=st.integers(4, 8), data=st.data(), kinds=st.lists(st.sampled_from(ELEMENT_KINDS), max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_logical_transfer_matches_dense_operator_rows(m, data, kinds, seed):
    rng = np.random.default_rng(seed)
    # most photons first: a Kerr acts only on two photons, and only with many
    # photons does its pair get occupied in both photon orders
    k = data.draw(st.sampled_from(range(m // 2, 0, -1)))
    elements = [_random_element(rng, m, kind) for kind in kinds]
    _assert_logical_transfer_matches_dense_operator_rows(elements, m, k, rng)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(m=st.integers(4, 7), data=st.data(),
       runs=st.lists(st.lists(st.sampled_from(MODE_LINEAR_KINDS), min_size=1, max_size=3),
                     min_size=3, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_logical_transfer_applies_each_run_between_its_cross_kerrs(m, data, runs, seed):
    # mode-linear runs with a cross-Kerr between each two, so two or more
    # Kerrs; a run applied on the wrong side of a Kerr changes the rows.  At
    # least two photons, so that a Kerr can find both its modes occupied.
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(2, m // 2))
    elements = []
    for i, run in enumerate(runs):
        if i:
            elements.append(_random_element(rng, m, "kerr"))
        elements += [_random_element(rng, m, kind) for kind in run]
    _assert_logical_transfer_matches_dense_operator_rows(elements, m, k, rng)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(2, 4), min_size=1, max_size=3),
       kinds=st.lists(st.sampled_from(MODE_LINEAR_KINDS), max_size=10), seed=st.integers(0, 2 ** 32 - 1))
def test_logical_transfer_matches_permanent_oracle_on_qudit_layouts(data, sizes, kinds, seed):
    # groups of 2-4 modes, like the ququit target's, on a random subset of the modes
    m = data.draw(st.integers(max(4, sum(sizes)), 12))
    rng = np.random.default_rng(seed)
    modes = [int(x) for x in rng.permutation(m)]
    layout = ModeLayout(tuple(tuple(modes[sum(sizes[:i]):sum(sizes[:i + 1])]) for i in range(len(sizes))))
    elements = [_random_element(rng, m, kind) for kind in kinds]
    transfer = logical_transfer(elements, m, layout)
    mode = single_photon_transfer(elements, m)
    dims = layout.wire_dims
    for y, x in rng.integers(dims.total_dim, size=(8, 2)):
        oracle = permanent_amplitude_oracle(mode, logical_occupation(layout, basis_digits(int(x), dims), m),
                                            logical_occupation(layout, basis_digits(int(y), dims), m))
        assert abs(transfer[y, x] - oracle) < 1e-12


def test_a_later_run_acts_on_a_photon_through_the_mode_an_earlier_run_led_it_to():
    # the first run takes photon 0 into ancilla mode 4 (and lets photon 1
    # into group 0); after a cross-Kerr whose only occupied pair is photon 1
    # on mode 2 and photon 0 on mode 0, the last run touches only mode 4 and
    # photon 1's group, yet must still move photon 0
    m, layout = 5, ModeLayout(((0, 1), (2, 3)))
    elements = [Beamsplitter(0.5, (1, 4)), Beamsplitter(0.4, (3, 0)), CrossKerr(0.9, (2, 0)),
                Beamsplitter(0.3, (4, 2))]
    basis, dims = FockBasis(m, 2), layout.wire_dims
    idx = [basis.index_of(logical_occupation(layout, basis_digits(x, dims), m)) for x in range(dims.total_dim)]
    want = circuit_fock_operator(elements, basis)[np.ix_(idx, idx)]
    assert np.max(np.abs(logical_transfer(elements, m, layout) - want)) < 1e-12


class _Amplifier(HalfWavePlate):
    """A wave plate whose block doubles the v mode: not unitary."""

    def mode_block(self):
        return list(self.modes), np.diag([1.0, 2.0]).astype(complex)


class _NanPlate(HalfWavePlate):
    """A wave plate whose block is NaN: its angle is checked finite when it
    is built, so only a faulty block can carry one."""

    def mode_block(self):
        return list(self.modes), np.full((2, 2), np.nan, dtype=complex)


class _Deamplifier(HalfWavePlate):
    """A wave plate whose block halves the v mode: the amplifier's inverse."""

    def mode_block(self):
        return list(self.modes), np.diag([1.0, 0.5]).astype(complex)


@pytest.mark.parametrize("element", [_NanPlate(0.0, (0, 1)), _Amplifier(0.0, (0, 1))],
                         ids=["nan", "gain"])
def test_logical_transfer_rejects_a_non_unitary_block(element):
    with pytest.raises(ValueError, match="not unitary"):
        logical_transfer([element], 2, ModeLayout(((0, 1),)))


def test_a_unitary_run_of_non_unitary_blocks_is_still_rejected():
    # the gain and its inverse compose to the identity; each block is checked
    # on its own before it joins the run
    elements = [_Amplifier(0.0, (0, 1)), _Deamplifier(0.0, (0, 1))]
    assert np.allclose(_embedded_block_product(elements, 2), np.eye(2))
    with pytest.raises(ValueError, match="_Amplifier block not unitary"):
        logical_transfer(elements, 2, ModeLayout(((0, 1),)))


def test_a_layout_without_wires_is_a_one_line_value_error():
    with pytest.raises(ValueError, match="layout needs at least one wire") as exc:
        ModeLayout(())
    assert "\n" not in str(exc.value)


def test_logical_transfer_names_a_layout_mode_out_of_range():
    with pytest.raises(ValueError, match="layout mode 3 out of range for 3 modes") as exc:
        logical_transfer([], 3, ModeLayout(((0, 1), (2, 3))))
    assert "\n" not in str(exc.value)


def _element_on(kind, mode):
    """An element of `kind` whose last mode is `mode`; its others are 0-2."""
    if kind == "bs":
        return Beamsplitter(0.5, (0, mode))
    if kind == "atten":
        return VacuumAttenuator(0.5, 0, mode)
    if kind == "hwp":
        return HalfWavePlate(0.3, (0, mode))
    if kind == "pbs":
        return PolarizingBeamsplitter((0, 1), (2, mode))
    return CrossKerr(np.pi, (0, mode))


# the routes that read an element's modes against the mode count
_ROUTES = {
    "logical": lambda elements, m: logical_transfer(elements, m, ModeLayout(((0, 1),))),
    "single-photon": single_photon_transfer,
    "fock": lambda elements, m: circuit_fock_operator(elements, FockBasis(m, 1)),
    # the element's operator: its step on the columns of the identity
    "element-operator": lambda elements, m: elements[0].apply(FockBasis(m, 1), np.eye(m)),
    "element-apply": lambda elements, m: elements[0].apply(FockBasis(m, 1), np.eye(m)[0]),
}


@pytest.mark.parametrize("route", _ROUTES)
@pytest.mark.parametrize("bad", ["-1", "m", "1.5"])
@pytest.mark.parametrize("kind", ELEMENT_KINDS)
def test_a_bad_element_mode_is_a_one_line_value_error(kind, bad, route):
    # a negative or fractional mode is refused when the element is built, a
    # mode >= m by whichever route reads the element
    m = 4
    mode = {"-1": -1, "m": m, "1.5": 1.5}[bad]
    with pytest.raises(ValueError) as exc:
        _ROUTES[route]([_element_on(kind, mode)], m)
    message = str(exc.value)
    assert "\n" not in message
    assert f"mode {mode} " in message
    if bad == "m":
        assert type(_element_on(kind, m)).__name__ in message


@pytest.mark.parametrize("build", [
    lambda: ModeLayout(((0, 1.5),)),
    lambda: ModeLayout(((-1, 0),)),
], ids=["layout-1.5", "layout-minus-1"])
def test_layouts_and_patterns_reject_a_negative_or_fractional_mode(build):
    with pytest.raises(ValueError, match="is not a non-negative integer") as exc:
        build()
    assert "\n" not in str(exc.value)


def test_nan_block_is_rejected_by_single_photon_transfer():
    with pytest.raises(ValueError, match="not unitary"):
        single_photon_transfer([_NanPlate(0.0, (0, 1))], 2)


def test_nan_mode_matrix_is_rejected_by_lift_to_fock():
    with pytest.raises(ValueError, match="not unitary"):
        lift_to_fock(np.array([[np.nan, 0.0], [0.0, 1.0]]), FockBasis(2, 1))


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

@settings(max_examples=40, derandomize=True, deadline=None)
@given(sizes=st.lists(st.integers(2, 4), min_size=1, max_size=3), seed=st.integers(0, 2 ** 32 - 1))
def test_layout_table_row_x_holds_each_wires_mode_at_its_digit(sizes, seed):
    # groups of 2-4 modes on a random subset of the modes
    rng = np.random.default_rng(seed)
    modes = [int(x) for x in rng.permutation(sum(sizes) + 2)]
    layout = ModeLayout(tuple(tuple(modes[sum(sizes[:i]):sum(sizes[:i + 1])]) for i in range(len(sizes))))
    dims = layout.wire_dims
    assert layout.modes.shape == (dims.total_dim, len(sizes))
    assert layout.modes.dtype.kind == "i"
    for x in range(dims.total_dim):
        assert list(layout.modes[x]) == [layout.groups[k][d] for k, d in enumerate(basis_digits(x, dims))]


def test_layout_rejects_overlapping_groups():
    with pytest.raises(ValueError):
        ModeLayout(((0, 1), (1, 2)))


# ---------------------------------------------------------------------------
# one-line guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: FockBasis(0, 1), ValueError, "bad basis shape m=0, N=1", id="basis-no-modes"),
    pytest.param(lambda: FockBasis(2, -1), ValueError, "bad basis shape m=2, N=-1", id="basis-negative-N"),
    pytest.param(lambda: Beamsplitter(0.5, (1, 1)), ValueError,
                 "beamsplitter needs two distinct modes", id="bs-repeated-mode"),
    pytest.param(lambda: HalfWavePlate(0.3, (1, 1)), ValueError,
                 "wave plate needs two distinct modes", id="hwp-repeated-mode"),
    pytest.param(lambda: PolarizingBeamsplitter((0, 1), (1, 2)), ValueError,
                 "polarizing beamsplitter needs four distinct modes", id="pbs-repeated-mode"),
    pytest.param(lambda: CrossKerr(np.pi, (1, 1)), ValueError,
                 "cross-Kerr needs two distinct modes", id="kerr-repeated-mode"),
    pytest.param(lambda: CrossKerr(float("nan"), (1, 3)), ValueError, "chi = nan is not finite", id="kerr-nan"),
    pytest.param(lambda: CrossKerr(float("inf"), (1, 3)), ValueError, "chi = inf is not finite", id="kerr-inf"),
    pytest.param(lambda: CrossKerr("x", (1, 3)), ValueError, "chi = 'x', expected a number", id="kerr-string"),
    pytest.param(lambda: HalfWavePlate(float("nan"), (0, 1)), ValueError,
                 "theta = nan is not finite", id="hwp-nan"),
    pytest.param(lambda: Beamsplitter(True, (0, 1)), ValueError,
                 "reflectivity = True, expected a number", id="bs-bool"),
    pytest.param(lambda: CrossKerr(np.pi, (0, 1)).mode_block(), TypeError,
                 "cross-Kerr is not a mode-linear element", id="kerr-mode-block"),
    pytest.param(lambda: lift_to_fock(np.eye(3), FockBasis(2, 1)), ValueError,
                 "mode matrix shape (3, 3) != (2, 2)", id="lift-shape"),
    pytest.param(lambda: ModeLayout(((0,),)), ValueError,
                 "each logical wire needs at least two modes", id="layout-one-mode-group"),
])
def test_each_guard_is_a_one_line_error(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as exc:
        call()
    assert "\n" not in str(exc.value)
