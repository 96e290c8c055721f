"""Amplitude vectors over a `FockBasis`, built and read by basis index, for
tests that propagate them by `circuit_fock_operator(elements, basis) @ amps`."""

from collections import defaultdict

import numpy as np


def fock_state(basis, occupation) -> np.ndarray:
    """The amplitude vector of one occupation."""
    return np.eye(basis.size, dtype=complex)[basis.index_of(occupation)]


def logical_indices(layout, basis) -> np.ndarray:
    """Basis index of every logical basis state of `layout`, in logical index
    order: state x holds one photon on each mode of row x of `layout.modes`."""
    occupations = np.zeros((len(layout.modes), basis.m), dtype=int)
    np.put_along_axis(occupations, layout.modes, 1, axis=1)
    return np.array([basis.index_of(occ) for occ in occupations])


def pattern_mask(pattern, basis) -> np.ndarray:
    """Boolean mask of the basis states that satisfy the detection pattern."""
    return np.array([all(occ[mode] == count for mode, count in pattern.conditions)
                     for occ in basis.states])


def detection_outcomes(basis, amps, modes) -> dict:
    """Probability of each tuple of photon counts detected on `modes`: the
    squared amplitudes grouped by those counts."""
    outcomes = defaultdict(float)
    for occ, amp in zip(basis.states, amps):
        outcomes[tuple(occ[mode] for mode in modes)] += abs(amp) ** 2
    return dict(outcomes)
