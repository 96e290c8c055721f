"""The route ledger: each job's fast route, the independent route that checks
it, and the package functions the two may share.

Each route's package calls are recorded with `sys.setprofile`, on inputs built
before recording starts and on a cleared transfer-plan memo, so that a route
through `logical_transfer` reads its element blocks.  A function that both
routes call must be in the row's allowed set, and every allowed function has
a reason; a new shared function fails the row, which names it.
Independently written routes can still fail together (Knight & Leveson, IEEE
TSE 12(1), 1986), so what they share is measured here rather than claimed in
a docstring."""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from qudit_toffoli.fock import (
    Beamsplitter,
    FockBasis,
    HalfWavePlate,
    ModeLayout,
    PolarizingBeamsplitter,
    _transfer_plan,
    circuit_fock_operator,
    lift_to_fock,
    logical_transfer,
    permanent_amplitude_oracle,
    single_photon_transfer,
)
from qudit_toffoli.optical import (
    chain_coincidence_block,
    chain_mode_matrix,
    chained_ts_gate,
    deterministic_ts_gate,
    heralded_ts_gate,
    load_chain_solution,
)
from qudit_toffoli.qudits import CircuitDescription, GateStep, circuit_unitary
from qudit_toffoli.toffoli import build_n_ts_circuit, gate_h_padded, oracle_n_toffoli_sign, verify_decomposition
from reference import package_calls, random_unitary

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


def _lift_inputs():
    basis = FockBasis(4, 2)
    return random_unitary(4, np.random.default_rng(13)), basis, basis.states


def _qudit_layout_inputs():
    # a qutrit, a qubit and a ququart on 10 modes, mixed by splitters, wave
    # plates and a polarizing beamsplitter, with each logical state's
    # occupation read off the layout table
    m, layout = 10, ModeLayout(((0, 1, 2), (3, 4), (5, 6, 7, 8)))
    elements = (Beamsplitter(0.3, (2, 3)), HalfWavePlate(0.4, (4, 5)), PolarizingBeamsplitter((1, 6), (8, 9)),
                Beamsplitter(0.7, (9, 0)), HalfWavePlate(1.1, (7, 2)))
    return elements, m, layout, [tuple(np.bincount(row, minlength=m)) for row in layout.modes]


def _oracle_on_layout(elements, m, layout, occupations):
    """The mode matrix, then the permanent oracle over every pair of layout entries."""
    mode = single_photon_transfer(elements, m)
    return [[permanent_amplitude_oracle(mode, x, y) for x in occupations] for y in occupations]


def _ts_inputs():
    return build_n_ts_circuit(3), oracle_n_toffoli_sign(3, (1, 1, 1, 1)), 3


def _toffoli_inputs():
    # H on the target around the T-S, so that the verifier splits and merges;
    # both routes read the same gates, each `h` table read off its matrix when built
    circ = build_n_ts_circuit(3)
    h = GateStep("h", (), (3,), gate_h_padded(4))
    return CircuitDescription(circ.dims, (h,) + circ.steps + (h,)), oracle_n_toffoli_sign(3, (1, 1, 1, 1)), 3


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
    Route("lift against the permanent oracle",
          lambda mode, basis, states: lift_to_fock(mode, basis),
          lambda mode, basis, states: [permanent_amplitude_oracle(mode, occ_in, occ_out)
                                       for occ_in in states for occ_out in states],
          _lift_inputs, frozenset()),
    Route("logical_transfer against the oracle on a qudit layout",
          lambda elements, m, layout, occupations: logical_transfer(elements, m, layout),
          _oracle_on_layout, _qudit_layout_inputs, POLARIZATION | {"fock.Beamsplitter.mode_block"}),
    Route("T-S verification against the dense register product",
          lambda circ, oracle, n: verify_decomposition(circ, oracle, n),
          lambda circ, oracle, n: circuit_unitary(circ),
          _ts_inputs, frozenset({"qudits.WireDims.total_dim"})),
    Route("T-S verification through the split step against the dense register product",
          lambda circ, oracle, n: verify_decomposition(circ, oracle, n),
          lambda circ, oracle, n: circuit_unitary(circ),
          _toffoli_inputs, frozenset()),
)


def _cold_calls(route, args) -> set[str]:
    _transfer_plan.cache_clear()
    return package_calls(route, args)


@pytest.mark.parametrize("row", LEDGER, ids=lambda row: row.job)
def test_a_check_route_shares_only_its_allowed_functions(row):
    args = row.inputs()
    fast, check = _cold_calls(row.fast, args), _cold_calls(row.check, args)
    assert fast and check
    unexpected = sorted((fast & check) - row.allowed)
    assert not unexpected, f"{row.job}: both routes now call {', '.join(unexpected)}"


def test_every_allowed_shared_function_has_a_reason():
    assert {name for row in LEDGER for name in row.allowed} <= set(REASONS)


def test_the_hadamard_row_runs_the_split_step():
    assert "toffoli._split" in package_calls(verify_decomposition, _toffoli_inputs())
