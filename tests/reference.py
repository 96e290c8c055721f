"""Test-side references: amplitude vectors over a `FockBasis`, built and read
by basis index, the dense register helpers that no command runs, and the
writer of a chain params file, which no command writes."""

import json
from collections import defaultdict
from itertools import product

import numpy as np

from qudit_toffoli.fock import ModeLayout
from qudit_toffoli.optical import A_H, A_V, B_H, B_V, COUPLER_REFLECTIVITY, S_H, S_V, T_H, T_V
from qudit_toffoli.qudits import PRODUCT_TOL, GateMatrix, WireDims, WireError, basis_digits, basis_index
from qudit_toffoli.toffoli import qubit_subspace_indices

# how closely an amplitude must match `permanent_amplitude_oracle`
ORACLE_TOL = 1e-9
# mid-circuit the heralded gate's target occupies both spatial paths: a ququit
QUQUIT_TARGET_LAYOUT = ModeLayout(((A_H, A_V), (B_H, B_V), (S_H, S_V, T_H, T_V)))


def fock_state(basis, occupation) -> np.ndarray:
    """The amplitude vector of one occupation."""
    return np.eye(basis.size, dtype=complex)[basis.index_of(occupation)]


def logical_occupation(layout, digits, m):
    """Occupation of a logical basis state, read off the layout's groups
    rather than its `modes` table."""
    occ = [0] * m
    for group, digit in zip(layout.groups, digits):
        occ[group[digit]] = 1
    return tuple(occ)


def logical_indices(layout, basis) -> np.ndarray:
    """Basis index of every logical basis state of `layout`, in logical index
    order (wires big-endian), each read off the groups by `logical_occupation`."""
    digits = product(*(range(len(group)) for group in layout.groups))
    return np.array([basis.index_of(logical_occupation(layout, d, basis.m)) for d in digits])


def vacuum_mask(basis, modes) -> np.ndarray:
    """Boolean mask of the basis states with zero photons on every one of `modes`."""
    return np.array([not any(occ[mode] for mode in modes) for occ in basis.states])


def detection_outcomes(basis, amps, modes) -> dict:
    """Probability of each tuple of photon counts detected on `modes`: the
    squared amplitudes grouped by those counts."""
    outcomes = defaultdict(float)
    for occ, amp in zip(basis.states, amps):
        outcomes[tuple(occ[mode] for mode in modes)] += abs(amp) ** 2
    return dict(outcomes)


def equiv_up_to_global_phase(a, b, tol: float = PRODUCT_TOL):
    """Whether a == lam * b for some unit-modulus lam; returns (bool, lam or None)."""
    am, bm = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if am.shape != bm.shape:
        raise WireError(f"shape mismatch: {am.shape} vs {bm.shape}")
    pivot = np.unravel_index(np.argmax(np.abs(bm)), bm.shape)
    if abs(bm[pivot]) < tol:
        # b is numerically zero; equivalence reduces to a being zero too
        return (bool(np.max(np.abs(am)) < tol), 1.0 + 0.0j)
    lam = am[pivot] / bm[pivot]
    if abs(abs(lam) - 1.0) > tol:
        return (False, None)
    lam /= abs(lam)
    if np.max(np.abs(am - lam * bm)) < tol:
        return (True, complex(lam))
    return (False, None)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def toffoli_truth_table(n: int = 2) -> GateMatrix:
    """Brute-force n-control Toffoli permutation matrix (target = last wire)."""
    dims = WireDims((2,) * (n + 1))
    mat = np.zeros((dims.total_dim, dims.total_dim), dtype=complex)
    for idx in range(dims.total_dim):
        digits = list(basis_digits(idx, dims))
        if all(digits[:-1]):
            digits[-1] ^= 1
        mat[basis_index(digits, dims), idx] = 1.0
    return GateMatrix(dims.dims, mat)


def restrict_to_qubit_subspace(unitary: np.ndarray, dims: WireDims) -> np.ndarray:
    idx = qubit_subspace_indices(dims)
    return unitary[np.ix_(idx, idx)]


def chain_params_json(params) -> str:
    """A params file's text: the fixed coupler reflectivity, then every field."""
    return json.dumps({"coupler_reflectivity": float(COUPLER_REFLECTIVITY), **vars(params)}, indent=2)


def save_chain_solution(params, path) -> None:
    with open(path, "w") as fh:
        fh.write(chain_params_json(params) + "\n")
