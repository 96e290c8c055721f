"""The route ledger: each job's fast route, the independent route that checks
it, and the package functions the two may share.

Each route's package calls are recorded with `sys.setprofile`, on inputs built
before recording starts.  A function that both routes call must be in the
row's allowed set, and every allowed function has a reason; a new shared
function fails the row, which names it.  Independently written routes can
still fail together (Knight & Leveson, IEEE TSE 12(1), 1986), so what they
share is measured here rather than claimed in a docstring."""

import sys
from dataclasses import dataclass
from typing import Callable

import pytest

from qudit_toffoli.fock import FockBasis, circuit_fock_operator, logical_transfer
from qudit_toffoli.optical import (
    chain_coincidence_block,
    chain_mode_matrix,
    chained_ts_gate,
    deterministic_ts_gate,
    heralded_ts_gate,
    load_chain_solution,
)
from qudit_toffoli.qudits import circuit_unitary
from qudit_toffoli.toffoli import build_n_ts_circuit, oracle_n_toffoli_sign, verify_decomposition

# every function that two routes may share, and why sharing it does not make
# the check depend on the route it checks
REASONS = {
    "fock._check_element_modes": "an input check on the elements' modes; it computes no amplitude",
    "fock.Beamsplitter.mode_block": "the element's own 2x2 block, the physics both routes are given",
    "fock.HalfWavePlate.mode_block": "the element's own 2x2 block, the physics both routes are given",
    "fock.PolarizingBeamsplitter.mode_block": "the element's own permutation block",
    "fock.PolarizingBeamsplitter.modes": "the element's mode list, read by the mode check",
    "qudits.WireDims.total_dim": "the register's size, read off its wire dimensions",
}
SPLITTERS = frozenset({"fock._check_element_modes", "fock.Beamsplitter.mode_block"})
POLARIZATION = frozenset({"fock._check_element_modes", "fock.HalfWavePlate.mode_block",
                          "fock.PolarizingBeamsplitter.mode_block", "fock.PolarizingBeamsplitter.modes"})


@dataclass(frozen=True)
class Route:
    job: str
    fast: Callable        # the route the commands run, called on the inputs
    check: Callable       # the independent route that checks it
    inputs: Callable      # builds the inputs, outside the recording
    allowed: frozenset


def _chain_inputs():
    params = load_chain_solution()
    gate = chained_ts_gate(params)
    return params, gate.elements, gate.layout, FockBasis(gate.m, len(gate.layout.groups))


def _gate_inputs(build):
    def inputs():
        gate = build()
        return gate.elements, gate.m, gate.layout, FockBasis(gate.m, len(gate.layout.groups))
    return inputs


def _ts_inputs():
    return build_n_ts_circuit(3), oracle_n_toffoli_sign(3, (1, 1, 1, 1)), 3


LEDGER = (
    Route("chain block against the first-quantized transfer",
          lambda params, elements, layout, basis: chain_coincidence_block(chain_mode_matrix(params)),
          lambda params, elements, layout, basis: logical_transfer(elements, 12, layout),
          _chain_inputs, SPLITTERS),
    Route("chain block against the second-quantized reference",
          lambda params, elements, layout, basis: chain_coincidence_block(chain_mode_matrix(params)),
          lambda params, elements, layout, basis: circuit_fock_operator(elements, basis),
          _chain_inputs, SPLITTERS),
    Route("heralded gate transfer against the second-quantized reference",
          lambda elements, m, layout, basis: logical_transfer(elements, m, layout),
          lambda elements, m, layout, basis: circuit_fock_operator(elements, basis),
          _gate_inputs(heralded_ts_gate), POLARIZATION),
    Route("deterministic gate transfer against the second-quantized reference",
          lambda elements, m, layout, basis: logical_transfer(elements, m, layout),
          lambda elements, m, layout, basis: circuit_fock_operator(elements, basis),
          _gate_inputs(deterministic_ts_gate), POLARIZATION),
    Route("T-S verification against the dense register product",
          lambda circ, oracle, n: verify_decomposition(circ, oracle, n),
          lambda circ, oracle, n: circuit_unitary(circ),
          _ts_inputs, frozenset({"qudits.WireDims.total_dim"})),
)


def _package_calls(route, args) -> set[str]:
    """`module.qualname` of every package function that `route(*args)` calls."""
    seen = set()

    def hook(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("qudit_toffoli."):
            seen.add(f"{module.rpartition('.')[2]}.{frame.f_code.co_qualname}")

    sys.setprofile(hook)
    try:
        route(*args)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("row", LEDGER, ids=lambda row: row.job)
def test_a_check_route_shares_only_its_allowed_functions(row):
    args = row.inputs()
    fast, check = _package_calls(row.fast, args), _package_calls(row.check, args)
    assert fast and check
    unexpected = sorted((fast & check) - row.allowed)
    assert not unexpected, f"{row.job}: both routes now call {', '.join(unexpected)}"


def test_every_allowed_shared_function_has_a_reason():
    assert {name for row in LEDGER for name in row.allowed} <= set(REASONS)
