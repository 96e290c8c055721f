"""Qudit-assisted Toffoli-sign constructions and their optical realizations.

Three layers: a mixed-radix register engine (`qudits`), the qutrit/qudit
circuit constructions with 2n-1 two-qudit gates (`toffoli`), and a Fock-space
simulator for the optical versions (`fock`, `optical`) including the heralded
1/32 gate and the post-selected chained-interferometer gate whose
reflectivities are recovered numerically at success probability 1/72.
"""

from .qudits import (
    CircuitDescription,
    CircuitParseError,
    GateMatrix,
    GateStep,
    PureState,
    WireDims,
    apply_gate,
    basis_digits,
    basis_index,
    circuit_unitary,
    embed_gate,
    equiv_up_to_global_phase,
    parse_circuit,
)
from .toffoli import (
    DecompositionReport,
    build_n_ts_circuit,
    build_ts_circuit,
    expected_flipped_component,
    gate_cnot_embedded,
    gate_cs_embedded,
    gate_level_swap,
    gate_xa,
    gate_xb,
    oracle_n_toffoli_sign,
    standard_gate_builder,
    verify_decomposition,
)
from .fock import (
    Beamsplitter,
    CrossKerr,
    DetectionPattern,
    FockBasis,
    HalfWavePlate,
    ModeLayout,
    OpticalCircuit,
    OpticalParseError,
    OpticalState,
    PolarizingBeamsplitter,
    VacuumAttenuator,
    apply_elements,
    lift_to_fock,
    parse_optical_circuit,
    permanent,
    permanent_amplitude_oracle,
    postselect,
    single_photon_transfer,
)
from .optical import (
    ChainParameters,
    GateRealization,
    deterministic_ts_gate,
    chained_ts_gate,
    chain_topology,
    heralded_ts_gate,
    kerr_cs_gate,
    load_chain_solution,
    postselected_cs_gate,
    solve_chain_reflectivities,
    verify_chain_parameters,
)
from .report import Report, build_report

__version__ = "0.1.0"
