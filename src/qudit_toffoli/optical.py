"""Optical realizations of the qutrit-assisted Toffoli-sign gate.

Four constructions, all on polarization/spatial dual-rail encodings:

* `kerr_cs_gate` - controlled-sign between two polarization qubits from a
  single cross-Kerr interaction between their V modes (deterministic).
* `deterministic_ts_gate` - the full three-wire T-S, compiled from the five
  steps of `build_n_ts_circuit(2)` by one rule table, `_optical_elements`;
  cut after any step, it holds each qubit input where the register circuit
  does after that step.  Three cross-Kerrs, success probability 1.
* `heralded_ts_gate` - its first three steps compiled alike, then a passive
  filter in place of the last two; each controlled sign is charged an
  external heralding probability (default 1/4), for (1/4)^2 * 1/2 = 1/32.
* `postselected_cs_gate` / `chain_elements` - coincidence-basis gates built
  from 1/3 beamsplitters.  The controlled-sign alone succeeds with 1/9;
  chaining two plus the filter gives 1/162; threading the target's zero mode
  through two coupled interferometers instead (solved numerically by
  `solve_chain_reflectivities`) reaches 1/72.

A construction is its mode count, its ordered elements and its layout, which
is also its post-selection: one photon on each layout wire's modes, none
elsewhere.  Each states its claimed logical transfer, an exact factor (1, 1/2,
1/9 or 1/72) times a unit-modulus diagonal, and is judged by one route,
`_realize`: `certified`, the whole transfer within 1e-12 of the claim, is the
one verdict the report and the CLI read.  The transfer is the elements'
`fock.logical_transfer` (first quantized), or for `verify_chain_parameters`
the chain's coincidence block.  Only a certified realization reports the
exact factor, else the simulated float, so a broken element shows up as a
mismatch downstream.  `GateRealization.kerr_count` counts `CrossKerr`s.

Mode bookkeeping for the polarization constructions (modes 0..7):
a_h, a_v, b_h, b_v, s_h, s_v, t_h, t_v.  The target qubit enters and leaves
in spatial path t; path s is the working path whose polarization qubit the
controlled gates act on.  Logical 0 is the H (first) mode of a pair.

For the coincidence-chain construction (modes 0..6 plus one vacuum ancilla
per attenuator): c1_0, c1_1, arm_u, arm_l, t_1, c2_0, c2_1.  The target's
zero rail enters arm_u, is split over (arm_u, arm_l), couples to c1_1 and
c2_0 through reflectivity-1/3 beamsplitters, and exits on arm_u.  Logical 0
of each qubit is its first listed mode.  Its 8x8 coincidence amplitudes have
one route, `chain_coincidence_block` (3x3 permanents of the mode matrix),
shared by the solver's objective and `verify_chain_parameters`.
`chained_ts_gate` makes the same 1/72 claim as an independent check on it:
its transfer comes from the first-quantized route, which shares the layout
table `ModeLayout.modes` with the block's gather but no code that computes
amplitudes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources
from itertools import permutations

import numpy as np
from scipy import optimize

from .fock import (
    Beamsplitter,
    CrossKerr,
    HalfWavePlate,
    HADAMARD_HWP_ANGLE,
    ModeLayout,
    PolarizingBeamsplitter,
    VacuumAttenuator,
    _real,
    logical_transfer,
    single_photon_transfer,
)
from .qudits import basis_digits
from .toffoli import build_n_ts_circuit, oracle_n_toffoli_sign

COUPLER_REFLECTIVITY = Fraction(1, 3)

# Published comparison constants (success probabilities of non-simulated
# alternatives; see the report module).
NAIVE_HERALDED_CHAIN = Fraction(1, 4) ** 6          # six heralded C-S gates
ALTERNATIVE_HERALDED_3PAIR = Fraction(1, 1065)
ALTERNATIVE_POSTSELECTED = Fraction(1, 133)            # quoted as "about 1/133"
CHAINED_TARGET = Fraction(1, 72)


# ---------------------------------------------------------------------------
# Realization container and its verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateRealization:
    """An optical construction's verdict: its mode count `m`, `elements` and
    `layout`, the logical transfer read off them, and how it meets the claim.

    `transfer` is the post-selected logical matrix over `layout` (the same
    layout in and out), and `residual` its largest entrywise distance from
    the claimed transfer; `certified` is residual <= EXACT_TOL.
    `success_probability` is the exact claimed optical factor (a Fraction)
    when certified, else the simulated float (mean |diagonal|)^2, times any
    external heralding factor (`cs_success` squared).  `flipped_component`
    is the digit tuple of the single negative diagonal entry, () if there is
    not exactly one.  The Kerr count is read off `elements`.
    """

    name: str
    m: int
    elements: tuple
    layout: ModeLayout
    transfer: np.ndarray
    success_probability: Fraction | float
    flipped_component: tuple[int, ...]
    residual: float
    certified: bool
    cs_success: Fraction | None = None
    filter_success: Fraction | float | None = None

    @property
    def kerr_count(self) -> int:
        return sum(isinstance(element, CrossKerr) for element in self.elements)

    def coincidence_probabilities(self) -> np.ndarray:
        """Per-logical-basis-input success probability from the transfer."""
        return np.sum(np.abs(self.transfer) ** 2, axis=0)


EXACT_TOL = 1e-12


def _realize(name: str, m: int, elements: tuple, layout: ModeLayout, claimed: Fraction, phases,
             transfer: np.ndarray | None = None, cs_success: Fraction | None = None) -> GateRealization:
    """The one verdict on a construction of `m` modes: its logical transfer over
    `layout` checked whole against the claimed transfer sqrt(`claimed`) * diag(`phases`).

    `transfer` defaults to `logical_transfer(elements, m, layout)`.  Only a
    certified transfer (residual within EXACT_TOL) reports the exact
    `claimed` factor, any other the simulated float.  A `cs_success`
    (external heralding, per controlled sign) multiplies in squared, and the
    optical factor becomes `filter_success`."""
    if transfer is None:
        transfer = logical_transfer(elements, m, layout)
    diag = np.diagonal(transfer)
    flipped = np.flatnonzero((np.abs(diag) > 1e-14) & (diag.real < 0))
    residual = float(np.max(np.abs(transfer - math.sqrt(claimed) * np.diag(phases))))
    certified = residual <= EXACT_TOL
    optical = claimed if certified else float(np.mean(np.abs(diag)) ** 2)
    filter_success = None if cs_success is None else optical
    success = optical if cs_success is None else cs_success ** 2 * optical
    return GateRealization(
        name=name,
        m=m,
        elements=elements,
        layout=layout,
        transfer=transfer,
        success_probability=success,
        flipped_component=basis_digits(int(flipped[0]), layout.wire_dims) if flipped.size == 1 else (),
        residual=residual,
        certified=certified,
        cs_success=cs_success,
        filter_success=filter_success,
    )


# polarization-construction mode indices
A_H, A_V, B_H, B_V, S_H, S_V, T_H, T_V = range(8)

_POLARIZATION_LAYOUT = ModeLayout(((A_H, A_V), (B_H, B_V), (T_H, T_V)))


def kerr_cs_gate(chi: float = math.pi) -> GateRealization:
    """Controlled-sign between two polarization qubits via one cross-Kerr pass.

    Only the doubly occupied V/V component picks up exp(i*chi); at chi = pi
    that is diag(1, 1, 1, -1).  A qubit whose mode pair is in vacuum is left
    alone, which is exactly the borrowed-level behaviour the qutrit circuit
    needs.
    """
    return _realize("cross-Kerr controlled-sign", 4, (CrossKerr(chi, (1, 3)),),
                    ModeLayout(((0, 1), (2, 3))), claimed=Fraction(1),
                    phases=np.exp(1j * chi * np.array([0, 0, 0, 1])))


# the register circuit both polarization T-S gates are compiled from, built once
_TS_STEPS = build_n_ts_circuit(2).steps


def _optical_elements(steps) -> tuple:
    """The elements of T-S register steps on (qubit a, qubit b, qutrit target
    wire 2), one rule per gate: `xa` on the target is the polarizing
    beamsplitter of paths s and t, `cs(c, t)` a cross-Kerr between control
    c's V mode and S_V, and `cnot(c, t)` that Kerr between two Hadamard wave
    plates on path s.  Any other step is a one-line ValueError."""
    control_v = {0: A_V, 1: B_V}
    hadamard = HalfWavePlate(HADAMARD_HWP_ANGLE, (S_H, S_V))
    elements = ()
    for step in steps:
        if step.name == "xa" and step.wires == (2,):
            elements += (PolarizingBeamsplitter((S_H, S_V), (T_H, T_V)),)
        elif step.name in ("cs", "cnot") and step.wires[1:] == (2,) and step.wires[0] in control_v:
            kerr = CrossKerr(math.pi, (control_v[step.wires[0]], S_V))
            elements += (kerr,) if step.name == "cs" else (hadamard, kerr, hadamard)
        else:
            raise ValueError(f"no optical rule for step {step.name} on wires {step.wires}")
    return elements


def deterministic_ts_gate() -> GateRealization:
    """Toffoli-sign on three polarization qubits compiled from all five register
    steps: three Kerr interactions, success probability 1, the flip on |1,0,1>."""
    return _realize("deterministic cross-Kerr T-S", 8, _optical_elements(_TS_STEPS), _POLARIZATION_LAYOUT,
                    Fraction(1), oracle_n_toffoli_sign(2, (1, 0, 1)))


def _checked_cs_success(cs_success) -> Fraction:
    """`cs_success` as a Fraction; outside (0, 1] it is a ValueError."""
    cs_success = Fraction(cs_success)
    if not 0 < cs_success <= 1:
        raise ValueError(f"cs_success must lie in (0, 1], got {cs_success}")
    return cs_success


def heralded_ts_gate(cs_success: Fraction = Fraction(1, 4)) -> GateRealization:
    """Heralded T-S: the first three register steps compiled, their two
    controlled signs modelled as ideal logical gates, each charged the
    external success probability `cs_success` (their internal heralding is
    outside this simulator), then a passive filter, simulated in full, whose
    zero detection on path s succeeds with probability exactly 1/2 for every
    input.  With cs_success = 1/4 the total is 1/16 * 1/2 = 1/32, and the
    sign flip lands on |0,0,1>."""
    cs_success = _checked_cs_success(cs_success)
    elements = _optical_elements(_TS_STEPS[:3]) + (
        HalfWavePlate(HADAMARD_HWP_ANGLE, (S_H, S_V)),
        HalfWavePlate(HADAMARD_HWP_ANGLE, (T_H, T_V)),
        PolarizingBeamsplitter((S_H, S_V), (T_H, T_V)),
    )
    return _realize("heralded T-S with passive filter", 8, elements, _POLARIZATION_LAYOUT,
                    Fraction(1, 2), oracle_n_toffoli_sign(2, (0, 0, 1)), cs_success=cs_success)


def postselected_cs_gate() -> GateRealization:
    """Coincidence-basis controlled-sign from 1/3 beamsplitters (modes:
    c_0, c_1, t_0, t_1, two vacuum ancillas).

    The control's zero rail meets the target's one rail on the central 1/3
    splitter, which puts the reflection sign on its second listed mode, the
    target rail; balancing 1/3 attenuators sit on the two bypass rails.
    Two-photon interference cancels the sign on |0,1>, leaving -1/3 exactly
    on |1,1>: the post-selected transfer is (1/3) diag(1, 1, 1, -1) and every
    logical input succeeds with probability 1/9.
    """
    eta = float(COUPLER_REFLECTIVITY)
    elements = (
        Beamsplitter(eta, (0, 3)),            # sign on t_1
        VacuumAttenuator(eta, 1, 4),
        VacuumAttenuator(eta, 2, 5),
    )
    return _realize("post-selected controlled-sign", 6, elements, ModeLayout(((0, 1), (2, 3))),
                    claimed=Fraction(1, 9), phases=oracle_n_toffoli_sign(1, (1, 1)))


def naive_postselected_chain_probability(cs: GateRealization, heralded: GateRealization) -> Fraction | float:
    """Two post-selected controlled-sign gates plus the heralded filter:
    1/9 * 1/9 * 1/2, read off the caller's realizations, `cs` from
    `postselected_cs_gate` and `heralded` from `heralded_ts_gate`, whose
    optical factor is its filter's, at any `cs_success`.  A C-S probability
    outside (0, 1] is a ValueError, as for `heralded_ts_gate`."""
    return _checked_cs_success(cs.success_probability) ** 2 * heralded.filter_success


# ---------------------------------------------------------------------------
# Chained-interferometer post-selected T-S
# ---------------------------------------------------------------------------

# principal modes
C1_0, C1_1, ARM_U, ARM_L, T1, C2_0, C2_1 = range(7)

_CHAIN_LAYOUT = ModeLayout(((C1_0, C1_1), (ARM_U, T1), (C2_0, C2_1)))
_CHAIN_TARGET = oracle_n_toffoli_sign(2, (0, 0, 0))
_CHAIN_NAME = "post-selected T-S, chained interferometers"


def _unrepeated(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a ValueError naming it."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


@dataclass(frozen=True)
class ChainParameters:
    """Free reflectivities of the chained-interferometer T-S.

    The two coupling beamsplitters are pinned at reflectivity 1/3; the three
    splitters along the target's zero rail and the five bypass attenuators
    (stay probabilities) are free.  The phase-flip surfaces are fixed by
    the topology: the second listed mode of every splitter, i.e. the lower
    arm of each in-line splitter and the arm side of each coupler.
    """

    splitter_in: float
    recombiner_mid: float
    splitter_out: float
    atten_c1_top: float
    atten_c1_bottom: float
    atten_t_bottom: float
    atten_c2_top: float
    atten_c2_bottom: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _real(f.name, getattr(self, f.name), unit=True))

    @classmethod
    def from_json(cls, text: str) -> "ChainParameters":
        """A params file: a JSON object holding every field and, optionally,
        the fixed coupler reflectivity; anything else is a ValueError."""
        data = json.loads(text, object_pairs_hook=_unrepeated)
        if not isinstance(data, dict):
            raise ValueError(f"parameters must be a JSON object, got {type(data).__name__}")
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in data]
        if missing:
            raise ValueError(f"missing reflectivities: {', '.join(missing)}")
        unknown = [k for k in data if k not in names and k != "coupler_reflectivity"]
        if unknown:
            raise ValueError(f"unknown keys: {', '.join(map(repr, unknown))}")
        coupler = data.get("coupler_reflectivity", COUPLER_REFLECTIVITY)
        if not abs(_real("coupler_reflectivity", coupler) - COUPLER_REFLECTIVITY) <= 1e-12:
            raise ValueError(f"coupler_reflectivity = {coupler}, but the couplers are fixed at 1/3")
        return cls(**{name: data[name] for name in names})


def chain_elements(params: ChainParameters) -> tuple:
    """Ordered element list on 12 modes; attenuator ancillas are modes 7..11."""
    eta = float(COUPLER_REFLECTIVITY)
    return (
        VacuumAttenuator(params.atten_c1_top, C1_0, 7),
        VacuumAttenuator(params.atten_c1_bottom, C1_1, 8),
        Beamsplitter(params.splitter_in, (ARM_U, ARM_L)),
        Beamsplitter(eta, (C1_1, ARM_U)),      # coupler 1, sign on the arm
        Beamsplitter(params.recombiner_mid, (ARM_U, ARM_L)),
        Beamsplitter(eta, (C2_0, ARM_L)),      # coupler 2, sign on the arm
        Beamsplitter(params.splitter_out, (ARM_U, ARM_L)),
        VacuumAttenuator(params.atten_t_bottom, T1, 9),
        VacuumAttenuator(params.atten_c2_top, C2_0, 10),
        VacuumAttenuator(params.atten_c2_bottom, C2_1, 11),
    )


def chain_mode_matrix(params: ChainParameters) -> np.ndarray:
    return single_photon_transfer(chain_elements(params), 12)


_PERMUTATIONS_3 = np.array(list(permutations(range(3))))


def chain_coincidence_block(mode_matrix: np.ndarray) -> np.ndarray:
    """8x8 logical coincidence amplitudes from the composed mode matrix.

    Entry (y, x) is the permanent of the 3x3 submatrix on output modes y and
    input modes x (one photon per logical wire, nothing anywhere else): all
    64 submatrices are gathered at once and their six permutation products
    summed.  `chained_ts_gate` is the independent check."""
    modes = _CHAIN_LAYOUT.modes
    sub = mode_matrix[modes[:, None, :, None], modes[None, :, None, :]]
    return sub[..., np.arange(3), _PERMUTATIONS_3].prod(axis=-1).sum(axis=-1)


def chain_diagonal(params_vector: np.ndarray) -> np.ndarray:
    """The 8 coincidence diagonal amplitudes as a real vector: the real
    diagonal of `chain_coincidence_block` (the transfer is real by
    construction)."""
    mode = chain_mode_matrix(ChainParameters(*params_vector))
    return np.diagonal(chain_coincidence_block(mode)).real


def verify_chain_parameters(params: ChainParameters) -> GateRealization:
    """The chain's claim checked on the fast route: the coincidence block
    (3x3 permanents of the mode matrix, shared with the solver) against
    1/72 times a single sign flip on |0,0,0>."""
    return _realize(_CHAIN_NAME, 12, chain_elements(params), _CHAIN_LAYOUT, CHAINED_TARGET, _CHAIN_TARGET,
                    transfer=chain_coincidence_block(chain_mode_matrix(params)))


@dataclass(frozen=True)
class ChainSolveResult:
    params: ChainParameters
    verification: GateRealization     # verify_chain_parameters(params)
    converged: bool
    residual: float                   # feasibility residual of the polish


_PARAM_BOUNDS = (1e-4, 1.0)
_PENALTY_WEIGHT = 50.0


def _chain_residuals(vec: np.ndarray) -> tuple[np.ndarray, float]:
    """Equal-magnitude/sign-pattern residuals d_i - t_i * mu, and mu, the
    projection of the diagonal onto the target pattern."""
    diag = chain_diagonal(vec)
    mu = float(diag @ _CHAIN_TARGET) / 8.0
    return diag - _CHAIN_TARGET * mu, mu


def _chain_objective(vec: np.ndarray) -> float:
    """Penalized objective: feasibility residuals squared minus the squared
    pattern amplitude, so feasible points are ranked by success probability."""
    r, mu = _chain_residuals(vec)
    return _PENALTY_WEIGHT * float(r @ r) - mu * mu


def solve_chain_reflectivities(seed: int = 20070, n_starts: int = 16) -> ChainSolveResult:
    """Recover the free reflectivities by constrained optimization.

    Multi-start penalty minimization (equal coincidence magnitudes, single
    sign flip on |0,0,0>, success probability maximized) followed by a
    least-squares polish with near-bound attenuators pinned to 1.  The
    polish refines feasibility to machine precision without re-targeting any
    published value; non-convergence is reported, not papered over.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    rng = np.random.default_rng(seed)
    lo, hi = _PARAM_BOUNDS
    best = None
    for _ in range(n_starts):
        x0 = rng.uniform(lo, hi, size=8)
        res = optimize.minimize(
            _chain_objective, x0, method="L-BFGS-B",
            bounds=[(lo, hi)] * 8,
            options={"maxiter": 400, "ftol": 1e-15, "gtol": 1e-12})
        if best is None or res.fun < best.fun:
            best = res
    x = np.clip(best.x, lo, hi)

    # pin attenuators the penalty phase pushed against their upper bound,
    # then polish the rest onto the feasibility manifold
    pinned = x > 1.0 - 1e-3
    free_idx = np.nonzero(~pinned)[0]
    x_pinned = x.copy()
    x_pinned[pinned] = 1.0

    def residuals_free(free_values: np.ndarray) -> np.ndarray:
        full = x_pinned.copy()
        full[free_idx] = free_values
        return _chain_residuals(full)[0]

    polish = optimize.least_squares(
        residuals_free, x_pinned[free_idx],
        bounds=([lo] * free_idx.size, [hi] * free_idx.size),
        xtol=3e-16, ftol=3e-16, gtol=3e-16)
    solution = x_pinned.copy()
    solution[free_idx] = polish.x
    residual = float(np.max(np.abs(_chain_residuals(solution)[0])))

    params = ChainParameters(*solution)
    verification = verify_chain_parameters(params)
    converged = residual < 1e-10 and verification.flipped_component == (0, 0, 0)
    return ChainSolveResult(
        params=params,
        verification=verification,
        converged=converged,
        residual=residual,
    )


def chained_ts_gate(params: ChainParameters) -> GateRealization:
    """The same claim as `verify_chain_parameters` on the independent route:
    the transfer comes from the first-quantized `logical_transfer`, which
    shares the layout table with `chain_coincidence_block` but neither
    `single_photon_transfer` nor the block's permanents."""
    return _realize(_CHAIN_NAME, 12, chain_elements(params), _CHAIN_LAYOUT, CHAINED_TARGET, _CHAIN_TARGET)


SOLUTION_RESOURCE = "chain_solution.json"


def load_chain_solution() -> ChainParameters:
    """Committed solver output, re-verified (not re-solved) by the tests."""
    text = resources.files("qudit_toffoli.data").joinpath(SOLUTION_RESOURCE).read_text()
    return ChainParameters.from_json(text)
