"""Toffoli-sign circuits that borrow extra levels on the target wire.

A Toffoli-sign (T-S) gate is a diagonal multi-qubit gate that flips the sign
of exactly one computational-basis component; conjugating the target with
Hadamards turns it into a Toffoli.  The constructions here use a target wire
with n+1 levels for n controls, parking amplitudes in the extra levels so a
single controlled-sign gate plus 2(n-1) controlled-NOTs do the whole job:
2n-1 two-qudit gates in total, versus 6 controlled-sign gates (or 5 general
two-qubit gates) for the plain-qubit 3-qubit case and dozens for larger n.

Controlled gates here act on the {0,1} sub-block of their target and do
nothing on any higher target level; that "acts as identity on borrowed
levels" behaviour is what makes the parking trick work.

A gate is its column table.  Every library gate but `h` is monomial and built
from its column map (`GateMatrix.from_columns`), once per circuit, so steps
share gates, tables and each table's check; `h` is read off its dense matrix.
`verify_decomposition` runs the 2^(n+1) qubit inputs through the circuit once
as sparse entries: a monomial step gathers from its gate's table, any other
splits and merges.  The dense `circuit_unitary` is the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from decimal import MAX_EMAX, Context, Decimal, DivisionByZero, InvalidOperation

import numpy as np

from .qudits import (
    PRODUCT_TOL,
    CircuitDescription,
    GateMatrix,
    GateStep,
    WireDims,
    WireError,
    _integer,
    basis_digits,
    basis_index,
)

LEAKAGE_TOL = 1e-12
# the default traps but Overflow: an estimate past the largest Decimal is Infinity
_ESTIMATE = Context(prec=6, Emax=MAX_EMAX, traps=[DivisionByZero, InvalidOperation])

# Published comparison constants for 3-qubit Toffoli decompositions and the
# 5-control case, reported alongside our counts.
QUBIT_ONLY_TWO_QUBIT_GATES = 5
QUBIT_ONLY_CS_GATES = 6
FIVE_TOFFOLI_QUBIT_ONLY_GATES = 64


# ---------------------------------------------------------------------------
# Gate library
# ---------------------------------------------------------------------------

def gate_level_swap(j: int, k: int, d: int) -> GateMatrix:
    """Transposition of levels j and k of a d-level wire."""
    j, k, d = _integer(j, "level"), _integer(k, "level"), _integer(d, "dimension")
    if j == k:
        raise ValueError(f"level swap needs two distinct levels, got {j},{k}")
    if not (0 <= j < d and 0 <= k < d):
        raise ValueError(f"levels ({j},{k}) out of range for dimension {d}")
    rows = np.arange(d)
    rows[j], rows[k] = k, j
    return GateMatrix.from_columns((d,), rows, np.ones(d))


def gate_xa(d: int) -> GateMatrix:
    """Swap levels 0 and 2, fix everything else."""
    if _integer(d, "dimension") < 3:
        raise ValueError(f"X_A needs at least 3 levels, got {d}")
    return gate_level_swap(0, 2, d)


def gate_xb(d: int) -> GateMatrix:
    """Swap levels 1 and 3, fix everything else."""
    if _integer(d, "dimension") < 4:
        raise ValueError(f"X_B needs at least 4 levels, got {d}")
    return gate_level_swap(1, 3, d)


def gate_x_padded(d: int) -> GateMatrix:
    """Bit flip on levels {0,1}, identity on higher levels."""
    return gate_level_swap(0, 1, d)


def gate_h_padded(d: int) -> GateMatrix:
    """2x2 Hadamard on levels {0,1}, identity on higher levels."""
    mat = np.eye(_integer(d, "dimension"), dtype=complex)
    mat[:2, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return GateMatrix.from_matrix((d,), mat)


def gate_cs_embedded(dc: int, dt: int) -> GateMatrix:
    """Controlled-sign: -1 on |1>_c|1>_t, +1 everywhere else.

    Higher target levels are untouched, so acting on a parked amplitude is
    the identity regardless of the control.
    """
    if _integer(dc, "control dimension") < 2 or _integer(dt, "target dimension") < 2:
        raise ValueError("controlled-sign needs dimensions >= 2")
    entries = np.ones(dc * dt)
    entries[1 * dt + 1] = -1.0
    return GateMatrix.from_columns((dc, dt), np.arange(dc * dt), entries)


def gate_cnot_embedded(dc: int, dt: int) -> GateMatrix:
    """X on the target's {0,1} levels iff the control is 1; identity otherwise."""
    if _integer(dc, "control dimension") < 2 or _integer(dt, "target dimension") < 2:
        raise ValueError("controlled-NOT needs dimensions >= 2")
    rows = np.arange(dc * dt)
    rows[dt], rows[dt + 1] = dt + 1, dt  # control 1 (local index dt + t): target levels 0 and 1 swap
    return GateMatrix.from_columns((dc, dt), rows, np.ones(dc * dt))


# Parameterless gates by (name, wire count), each built from the wire dimensions.
_FIXED_GATES = {("xa", 1): gate_xa, ("xb", 1): gate_xb, ("x", 1): gate_x_padded,
                ("h", 1): gate_h_padded, ("cs", 2): gate_cs_embedded, ("cnot", 2): gate_cnot_embedded}


def standard_gate_builder(name: str, params, wire_dims) -> GateMatrix:
    """Resolve a circuit-file gate name to its matrix.  Raises ValueError."""
    name = name.lower()
    if name == "swap" and len(wire_dims) == 1:
        if len(params) != 2:
            raise ValueError("swap takes exactly two level parameters, e.g. swap(1,3)")
        if not all(type(p) is int or (isinstance(p, float) and p.is_integer()) for p in params):
            raise ValueError(f"swap levels must be integers, got {params}")
        return gate_level_swap(int(params[0]), int(params[1]), wire_dims[0])
    build = _FIXED_GATES.get((name, len(wire_dims)))
    if build is None:
        raise ValueError(f"unknown gate {name!r} for {len(wire_dims)} wire(s)")
    if params:
        raise ValueError(f"gate {name!r} takes no parameters, got {params}")
    return build(*wire_dims)


def _step(gates: dict, name: str, wires, dims: WireDims, params=()) -> GateStep:
    """A step of the named gate on `wires`; `gates` memoizes one GateMatrix per
    (name, params, wire dims), so repeated steps share a gate and its table."""
    params, wire_dims = tuple(params), tuple(dims.dims[w] for w in wires)
    key = (name, params, wire_dims)
    gate = gates.get(key)
    if gate is None:
        gate = gates[key] = standard_gate_builder(name, params, wire_dims)
    return GateStep(name, params, tuple(wires), gate)


# ---------------------------------------------------------------------------
# Circuit builders
# ---------------------------------------------------------------------------

def build_n_ts_circuit(n: int) -> CircuitDescription:
    """n-control T-S circuit on (n qubits, one (n+1)-level target).

    Wire order: controls 0..n-1, target wire n; control 0 carries the single
    controlled-sign gate.  Two-qudit gate count is exactly 2n-1 (n-1 CNOT
    pairs plus one CS); level swaps are single-qudit and free.

    The parking schedule: X_A moves the target's 0-amplitude to level 2, then
    each CNOT tests one control and the branch that failed the test is swapped
    out to the next unused level (3, 4, ...).  The surviving all-controls-on
    branch alternates between levels 0 and 1; for even n >= 4 one padded bit
    flip re-aligns it so the CS picks out the all-ones component.  The mirror
    sequence then restores the target to its qubit levels.

    The flipped component is |1,0,1> for n=2, where the circuit is X_A(c),
    CNOT(b,c), CS(a,c), CNOT(b,c), X_A(c) on (qubit a, qubit b, qutrit c),
    and |1,1,...,1> for n >= 3.
    """
    if _integer(n, "control count") < 2:
        raise ValueError(f"need at least 2 controls, got {n}")
    dims = WireDims((2,) * n + (n + 1,))
    target = n
    gates: dict = {}
    first_half: list[GateStep] = [_step(gates, "xa", (target,), dims)]
    survivor_level = 1
    next_free = 3
    for control in range(n - 1, 0, -1):
        first_half.append(_step(gates, "cnot", (control, target), dims))
        failed_level = survivor_level
        survivor_level = 1 - survivor_level
        if control > 1:
            name = "xb" if (failed_level, next_free) == (1, 3) else "swap"
            params = () if name == "xb" else (failed_level, next_free)
            first_half.append(_step(gates, name, (target,), dims, params))
            next_free += 1
    if n >= 3 and survivor_level == 0:
        first_half.append(_step(gates, "x", (target,), dims))
    steps = tuple(first_half) + (_step(gates, "cs", (0, target), dims),) + tuple(reversed(first_half))
    return CircuitDescription(dims, steps)


def oracle_n_toffoli_sign(n: int, flipped_component: tuple[int, ...]) -> np.ndarray:
    """Diagonal of the +/-1 oracle over n+1 qubits: a length-2^(n+1) vector of
    +1 with a single -1 on the digit tuple `flipped_component`, such as
    (1, 0, 1).  A tuple of the wrong length or a digit outside {0, 1} is
    `basis_index`'s WireError.
    """
    dims = WireDims((2,) * (_integer(n, "control count") + 1))
    diag = np.ones(dims.total_dim)
    diag[basis_index(flipped_component, dims)] = -1.0
    return diag


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def qubit_subspace_indices(dims: WireDims) -> np.ndarray:
    """Indices of basis states with every wire in {0, 1}, ascending: the
    2^k binary digit tuples in lexicographic order, ranked big-endian."""
    k = dims.n_wires
    return np.ravel_multi_index(np.indices((2,) * k).reshape(k, -1), dims.dims)


def qubit_subspace_leakage(unitary: np.ndarray, dims: WireDims) -> float:
    """Largest norm leaked out of the all-qubit-levels subspace over its basis inputs."""
    idx = qubit_subspace_indices(dims)
    outside = np.setdiff1d(np.arange(dims.total_dim), idx)
    if outside.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(unitary[np.ix_(outside, idx)], axis=0)))


def _split(table, wires, local, digits, cols, amps, dims: WireDims):
    """A non-monomial table's step on the entries: each entry splits into one
    per nonzero of its local column, then the entries of one input that reach
    the same digits merge, their amplitudes summed and exact zeros dropped."""
    counts = np.diff(table.offsets)[local]
    source = np.repeat(np.arange(local.size), counts)
    # each copy's nonzero: its column's first one plus the copy's rank among its entry's copies
    nonzero = np.repeat(table.offsets[local] - np.cumsum(counts) + counts, counts) + np.arange(source.size)
    digits, cols = digits[:, source], cols[source]
    digits[wires] = table.digits[:, nonzero]
    amps = amps[source] * table.entries[nonzero]
    keys = np.ravel_multi_index(np.vstack((cols, digits)), (2 ** dims.n_wires,) + dims.dims)
    _, first, merged = np.unique(keys, return_index=True, return_inverse=True)
    amps = np.bincount(merged, amps.real) + 1j * np.bincount(merged, amps.imag)
    kept = amps != 0
    return digits[:, first[kept]], cols[first[kept]], amps[kept]


def _run_qubit_inputs(circ: CircuitDescription):
    """Run the 2^k all-qubit-levels basis inputs through the circuit once.
    Returns the nonzero outputs as (output digits, column, amplitude) entries,
    a k x m digit array and two length-m vectors, the column being the input's
    rank among the qubit inputs (lexicographic, so also its index in the 2^k
    qubit space), and the highest target (last wire) level holding amplitude
    above 1e-9 after any step.  Each step reads its gate's `columns` table,
    checked once per table (`defect`): a monomial step gathers from each
    entry's local column, so each input stays one basis state; any other is a `_split`."""
    dims = circ.dims
    digits = np.indices((2,) * dims.n_wires).reshape(dims.n_wires, -1)
    cols = np.arange(digits.shape[1])
    amps = np.ones(cols.size, dtype=complex)
    max_level = 1
    for s, step in enumerate(circ.steps):
        table = step.gate.columns
        if table.defect:
            raise WireError(f"circuit not unitary on the qubit inputs (step {s}, {step.name}: {table.defect})")
        wires = np.array(step.wires)  # an index array: numpy gathers by it faster than by a list
        local = table.strides @ digits[wires]
        if table.monomial:
            digits[wires] = table.digits.take(local, axis=1)
            amps = amps * table.entries[local]
            max_level = max(max_level, int(digits[-1].max()))
        else:
            digits, cols, amps = _split(table, wires, local, digits, cols, amps, dims)
            max_level = max(max_level, int(digits[-1][np.abs(amps) > 1e-9].max(initial=1)))
    return digits, cols, amps, max_level


def max_target_level_used(circ: CircuitDescription) -> int:
    """Highest target (last wire) level occupied while running the qubit-basis inputs."""
    return _run_qubit_inputs(circ)[3]


@dataclass
class DecompositionReport:
    """Outcome of checking a T-S circuit against its diagonal-sign oracle."""

    n: int
    two_qudit_gate_count: int
    single_qudit_gate_count: int
    max_level_used: int
    fidelity_to_oracle: float
    flipped_component: tuple[int, ...]
    qubit_subspace_leakage: float
    locally_equivalent_to_all_ones: bool
    bit_flip_mask: tuple[int, ...]
    reference_counts: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (abs(self.fidelity_to_oracle - 1.0) < PRODUCT_TOL
                and self.qubit_subspace_leakage < LEAKAGE_TOL
                and self.two_qudit_gate_count == 2 * self.n - 1)

    def to_text(self) -> str:
        lines = [
            f"controls:            {self.n}",
            f"two-qudit gates:     {self.two_qudit_gate_count} (expected {2 * self.n - 1})",
            f"single-qudit gates:  {self.single_qudit_gate_count}",
            f"max target level:    {self.max_level_used}",
            f"fidelity to oracle:  {self.fidelity_to_oracle:.15f}",
            f"flipped component:   |{','.join(map(str, self.flipped_component))}>",
            f"subspace leakage:    {self.qubit_subspace_leakage:.3e}",
            f"bit-flip equivalent to all-ones flip: {self.locally_equivalent_to_all_ones} "
            f"(mask {''.join(map(str, self.bit_flip_mask))})",
        ]
        for key, value in self.reference_counts.items():
            lines.append(f"reference count [{key}]: {value}")
        lines.append(f"status:              {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"passed": self.passed}


def verify_decomposition(circ: CircuitDescription, oracle: np.ndarray, n: int) -> DecompositionReport:
    """Compare a circuit's qubit-subspace action against a diagonal-sign oracle,
    given as its +/-1 diagonal (`oracle_n_toffoli_sign`).

    Every field comes from one propagation of the 2^(n+1) qubit-basis inputs
    (`_run_qubit_inputs`).  Fidelity is the phase-insensitive process overlap
    |tr(U' O)| / dim: only outputs equal to their input count.  A corrupted
    circuit reports fidelity < 1 rather than raising."""
    dim = 2 ** (n + 1)
    if circ.dims.n_wires != n + 1:
        raise ValueError("circuit / oracle dimensions do not match n")
    oracle = np.asarray(oracle)
    if oracle.shape != (dim,) or not ((oracle == 1) | (oracle == -1)).all():
        raise ValueError(f"oracle must be a vector of {dim} entries, each +1 or -1")
    digits, cols, amps, max_level = _run_qubit_inputs(circ)
    inside = (digits < 2).all(axis=0)
    fixed = inside & (np.ravel_multi_index(digits, (2,) * (n + 1), mode="clip") == cols)
    diag = np.zeros(dim, dtype=complex)
    diag[cols[fixed]] = amps[fixed]
    fidelity = float(abs(np.vdot(diag, oracle)) / dim)
    outside_norm2 = np.bincount(cols[~inside], weights=np.abs(amps[~inside]) ** 2, minlength=dim)
    leakage = float(np.sqrt(outside_norm2.max()))
    # distance of the qubit block from diag(signs): its diagonal, then every other qubit row
    signs = np.where(diag.real < 0, -1.0, 1.0)
    residual = max(float(np.abs(diag - signs).max()),
                   float(np.abs(amps[inside & ~fixed]).max(initial=0.0)))
    flipped = np.flatnonzero(signs < 0)
    component = basis_digits(int(flipped[0]), WireDims((2,) * (n + 1))) if flipped.size == 1 else ()
    # X flips on the mask permute rows and columns alike and take diag(signs)
    # to the all-ones oracle, so the flipped block is `residual` away from it
    mask = tuple(1 - d for d in component)
    equivalent = bool(component) and residual < PRODUCT_TOL

    references = {
        "two_qubit_gates_qubit_only_3toffoli": QUBIT_ONLY_TWO_QUBIT_GATES,
        "cs_gates_qubit_only_3toffoli": QUBIT_ONLY_CS_GATES,
        "two_qubit_gates_qubit_only_5toffoli": FIVE_TOFFOLI_QUBIT_ONLY_GATES,
        "two_qudit_gates_this_construction": 2 * n - 1,
    }
    return DecompositionReport(
        n=n,
        two_qudit_gate_count=circ.two_qudit_gate_count(),
        single_qudit_gate_count=circ.single_qudit_gate_count(),
        max_level_used=max_level,
        fidelity_to_oracle=fidelity,
        flipped_component=component,
        qubit_subspace_leakage=leakage,
        locally_equivalent_to_all_ones=equivalent,
        bit_flip_mask=mask,
        reference_counts=references,
    )


def verification_gib(n: int) -> Decimal:
    """Estimated peak GiB of verifying the n-control circuit, which is
    monomial throughout: per qubit input (2^(n+1) of them), one 8-byte digit
    for each of the n+1 wires plus 16 words for its phase, its oracle sign and
    the analysis' temporaries (tracemalloc measured 11-12 at n = 10..16).
    Six digits with an exponent up to MAX_EMAX, so that any n is estimated
    without building the integer 2^(n+1); past that (n above about 3.3e18)
    the estimate is Infinity."""
    # 2^(n+1) inputs of n+1+16 words, 2^3 bytes a word, 2^30 bytes a GiB
    return _ESTIMATE.multiply(_ESTIMATE.power(2, (n + 1) + 3 - 30), n + 1 + 16)


def expected_flipped_component(n: int) -> tuple[int, ...]:
    """Component our construction flips: |1,0,1> for n=2, all-ones for n>=3."""
    return (1, 0, 1) if n == 2 else (1,) * (n + 1)
