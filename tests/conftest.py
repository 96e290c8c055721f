"""Fixtures shared across test modules."""

import pytest

from qudit_toffoli.optical import solve_chain_reflectivities


@pytest.fixture(scope="session")
def solved_chain():
    """One 12-start solve from the published seed, shared by the tests that
    check where the solver lands."""
    return solve_chain_reflectivities(seed=20070, n_starts=12)
