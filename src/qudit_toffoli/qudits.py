"""Mixed-radix register engine.

Registers are ordered lists of wires with independent dimensions (2 for a
qubit, 3 for a qutrit, ...).  Basis states are addressed big-endian: the
first wire is the most significant digit, so for dims (2, 2, 3) the ket
|i, j, k> sits at linear index i*6 + j*3 + k.

There is one dense route through a register, `circuit_unitary`: the steps
of a `CircuitDescription`, which validates each step once, applied in turn
by the unchecked kernel `_apply_to_block`.  `embed_gate` is a one-step circuit.

A monomial gate (one nonzero per column) has a `MonomialTable`.  A gate
built by `GateMatrix.from_columns` is checked and stored as that table, in
O(dim), and scatters its dense matrix once.  A gate handed in as a dense
matrix is checked by a dim^3 product, and its table, if it has one, is
discovered from the matrix on first use: that is the route for such gates
and the independent check of the column route.

Everything here is a pure function on immutable-by-convention values; no
operation mutates its inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

NORM_TOL = 1e-12      # norm / unitarity of exact constructions
PRODUCT_TOL = 1e-10   # accumulated gate products


class WireError(ValueError):
    """A wire index or per-wire digit is out of range."""


# ---------------------------------------------------------------------------
# Register description and indexing
# ---------------------------------------------------------------------------

def _checked_dims(dims) -> tuple[int, ...]:
    """`dims` as a tuple of ints; no wires, or a wire of dimension < 2, is a WireError."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise WireError("register needs at least one wire")
    for w, d in enumerate(dims):
        if d < 2:
            raise WireError(f"wire {w}: dimension {d} < 2")
    return dims


@dataclass(frozen=True)
class WireDims:
    """Per-wire dimensions of a register, e.g. (2, 2, 3) for qubit+qubit+qutrit."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", _checked_dims(self.dims))

    @property
    def n_wires(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        p = 1
        for d in self.dims:
            p *= d
        return p


def basis_index(digits, dims: WireDims) -> int:
    """Linear index of the basis ket with the given per-wire levels (big-endian)."""
    if len(digits) != dims.n_wires:
        raise WireError(f"expected {dims.n_wires} digits, got {len(digits)}")
    idx = 0
    for w, (digit, d) in enumerate(zip(digits, dims.dims)):
        if not 0 <= digit < d:
            raise WireError(f"wire {w}: digit {digit} out of range for dimension {d}")
        idx = idx * d + digit
    return idx


def basis_digits(index: int, dims: WireDims) -> tuple[int, ...]:
    """Inverse of :func:`basis_index`."""
    if not 0 <= index < dims.total_dim:
        raise WireError(f"index {index} out of range for total dimension {dims.total_dim}")
    out = []
    for d in reversed(dims.dims):
        out.append(index % d)
        index //= d
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialTable:
    """A monomial gate (one nonzero per column) as lookup arrays over its k
    wires: local input index = strides @ input digits, and input column j
    goes to the output digits digits[:, j] with the factor entries[j]."""

    strides: np.ndarray   # (k,) big-endian place values of the gate's wires
    digits: np.ndarray    # (k, dim) output digits of each input column
    entries: np.ndarray   # (dim,) each column's nonzero entry

    @classmethod
    def from_rows(cls, wire_dims: tuple[int, ...], rows: np.ndarray, entries: np.ndarray) -> MonomialTable:
        """The table of the gate whose column j has its nonzero entries[j] in
        local row rows[j].  Its arrays are read-only, like the gate's matrix, so
        the two stay true to each other; `entries` itself becomes one of them."""
        strides = np.array([math.prod(wire_dims[w + 1:]) for w in range(len(wire_dims))])
        table = cls(strides, np.array(np.unravel_index(rows, wire_dims)), entries)
        for array in (table.strides, table.digits, table.entries):
            array.flags.writeable = False
        return table


@dataclass(frozen=True)
class GateMatrix:
    """Unitary acting on a (sub)register with the given per-wire dimensions.

    The constructor keeps a read-only copy of the matrix, so one gate can be
    shared by many circuit steps and its `monomial` table stays true to it;
    the caller's array is left writable.  `from_columns` builds a monomial
    gate from its column map instead (`_columns`, with `matrix` None)."""

    wire_dims: tuple[int, ...]
    matrix: np.ndarray
    _columns: InitVar[tuple | None] = None

    def __post_init__(self, _columns):
        wd = _checked_dims(self.wire_dims)
        object.__setattr__(self, "wire_dims", wd)
        dim = math.prod(wd)
        if _columns is None:
            mat = np.array(self.matrix, dtype=complex)
            if mat.shape != (dim, dim):
                raise WireError(f"matrix shape {mat.shape} does not match wire dims {wd}")
            err = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
            if not err <= NORM_TOL:
                raise WireError(f"matrix is not unitary (deviation {err:.3e})")
        else:
            rows, entries = np.asarray(_columns[0]), np.array(_columns[1], dtype=complex)
            if rows.dtype.kind not in "iu" or rows.shape != (dim,) or entries.shape != (dim,):
                raise WireError(f"column map needs {dim} integer rows and {dim} entries for wire dims "
                                f"{wd}, got {rows.size} {rows.dtype} rows and {entries.size} entries")
            if set(rows.tolist()) != set(range(dim)):
                raise WireError(f"column rows {rows.tolist()} are not a permutation of range({dim})")
            err = np.abs(np.abs(entries) - 1.0).max()
            if not err <= NORM_TOL:
                raise WireError(f"matrix is not unitary (an entry is {err:.3e} off the unit circle)")
            mat = np.zeros((dim, dim), dtype=complex)
            mat[rows, np.arange(dim)] = entries
            object.__setattr__(self, "monomial", MonomialTable.from_rows(wd, rows, entries))
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_columns(cls, wire_dims, rows, entries) -> GateMatrix:
        """The monomial gate whose column j goes to local row rows[j] with the
        factor entries[j].  Unitary iff `rows` is a permutation of range(dim)
        and every entry is within NORM_TOL of the unit circle, which is
        checked in O(dim); the table is stored as the gate's `monomial`."""
        return cls(wire_dims, None, (rows, entries))

    @property
    def dim(self) -> int:
        return math.prod(self.wire_dims)

    @cached_property
    def monomial(self) -> MonomialTable | None:
        """The gate's `MonomialTable`, or None if some column does not have
        exactly one nonzero.  A gate from `from_columns` holds it from
        construction; for any other gate it is discovered from the dense
        matrix on first use and kept on the gate."""
        nonzero = self.matrix != 0
        if not (nonzero.sum(axis=0) == 1).all():
            return None
        rows = nonzero.argmax(axis=0)
        return MonomialTable.from_rows(self.wire_dims, rows, self.matrix[rows, np.arange(rows.size)])


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


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateStep:
    """One circuit step: a named gate with parameters, applied to target wires."""

    name: str
    params: tuple
    wires: tuple[int, ...]
    gate: GateMatrix

    @property
    def is_multi_wire(self) -> bool:
        return len(self.wires) > 1


@dataclass(frozen=True)
class CircuitDescription:
    """Ordered gate applications on a fixed register."""

    dims: WireDims
    steps: tuple[GateStep, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for s, step in enumerate(self.steps):
            if len(step.wires) != len(step.gate.wire_dims):
                raise WireError(f"step {s}: gate {step.name} acts on {len(step.gate.wire_dims)} "
                                f"wires, step names {len(step.wires)}")
            for w in step.wires:
                if isinstance(w, bool) or not isinstance(w, (int, np.integer)):
                    raise WireError(f"step {s}: wire {w!r} is not an integer")
                if not 0 <= w < self.dims.n_wires:
                    raise WireError(
                        f"step {s}: wire index {w} out of range for {self.dims.n_wires} wires")
            if len(set(step.wires)) != len(step.wires):
                raise WireError(f"step {s}: repeated wire index in {list(step.wires)}")
            for w, d in zip(step.wires, step.gate.wire_dims):
                if self.dims.dims[w] != d:
                    raise WireError(
                        f"step {s}: wire {w} has dimension {self.dims.dims[w]}, "
                        f"gate {step.name} expects {d}")

    def two_qudit_gate_count(self) -> int:
        return sum(1 for s in self.steps if s.is_multi_wire)

    def single_qudit_gate_count(self) -> int:
        return sum(1 for s in self.steps if not s.is_multi_wire)


def _apply_to_block(amps: np.ndarray, gate: GateMatrix, wires, dims: WireDims) -> np.ndarray:
    """Apply a gate to the wires of every column of `amps`, shape (total_dim,
    batch).  The wires are those of a step that `CircuitDescription` has
    validated, so nothing is checked here."""
    k = len(wires)
    tensor = amps.reshape(dims.dims + (-1,))
    tensor = np.moveaxis(tensor, wires, range(k))
    out = (gate.matrix @ tensor.reshape(gate.dim, -1)).reshape(tensor.shape)
    return np.moveaxis(out, range(k), wires).reshape(amps.shape)


def circuit_unitary(circ: CircuitDescription) -> np.ndarray:
    """Ordered product of the embedded step unitaries over the full register,
    checked unitary to PRODUCT_TOL."""
    dim = circ.dims.total_dim
    amps = np.eye(dim, dtype=complex)
    for step in circ.steps:
        amps = _apply_to_block(amps, step.gate, step.wires, circ.dims)
    err = np.max(np.abs(amps.conj().T @ amps - np.eye(dim)))
    if not err <= PRODUCT_TOL:
        raise WireError(f"accumulated circuit product not unitary (deviation {err:.3e})")
    return amps


def embed_gate(gate: GateMatrix, wires, dims: WireDims) -> np.ndarray:
    """Full-register matrix of a gate on the given wires: a one-step circuit's unitary."""
    return circuit_unitary(CircuitDescription(dims, (GateStep("embedded", (), tuple(wires), gate),)))


# ---------------------------------------------------------------------------
# Circuit text format
# ---------------------------------------------------------------------------
#
#   # comment
#   dims 2 2 3
#   xa 2
#   cnot 1 2
#   swap(1,3) 2
#
# First directive must be "dims".  Each following line is
# "<gate>[ (p1,p2,...) ] <wire> [<wire> ...]".  Gate names are resolved by a
# caller-supplied builder: builder(name, params, wire_dims) -> GateMatrix.

class CircuitParseError(ValueError):
    """Raised with a 1-based line number on malformed circuit text."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_STEP_RE = re.compile(r"^([a-zA-Z_][a-zA-Z_0-9]*)\s*(?:\(([^)]*)\))?\s*(.*)$")


def parse_circuit(text: str, gate_builder) -> CircuitDescription:
    """Parse circuit text into a CircuitDescription.

    `gate_builder(name, params, wire_dims)` must return the GateMatrix for a
    lower-cased gate name and raise ValueError/KeyError for unknown names.
    """
    dims: WireDims | None = None
    steps: list[GateStep] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dims is None:
            parts = line.split()
            if parts[0].lower() != "dims":
                raise CircuitParseError(line_no, "first directive must be 'dims'")
            try:
                dims = WireDims(tuple(int(p) for p in parts[1:]))
            except (ValueError, WireError) as exc:
                raise CircuitParseError(line_no, f"bad dims: {exc}") from exc
            continue
        match = _STEP_RE.match(line)
        if not match:
            raise CircuitParseError(line_no, f"cannot parse step {line!r}")
        name = match.group(1).lower()
        params: tuple = ()
        if match.group(2) is not None:
            try:
                params = tuple(
                    float(p) if "." in p or "e" in p.lower() else int(p)
                    for p in match.group(2).split(",") if p.strip())
            except ValueError as exc:
                raise CircuitParseError(line_no, f"bad parameters: {exc}") from exc
        try:
            wires = tuple(int(w) for w in match.group(3).split())
        except ValueError as exc:
            raise CircuitParseError(line_no, f"bad wire list: {exc}") from exc
        if not wires:
            raise CircuitParseError(line_no, "step names no target wires")
        for w in wires:
            if not 0 <= w < dims.n_wires:
                raise CircuitParseError(line_no, f"wire {w} out of range")
        if len(set(wires)) != len(wires):
            raise CircuitParseError(line_no, f"repeated wire in {list(wires)}")
        wire_dims = tuple(dims.dims[w] for w in wires)
        try:
            gate = gate_builder(name, params, wire_dims)
        except (KeyError, ValueError) as exc:
            raise CircuitParseError(line_no, str(exc)) from exc
        steps.append(GateStep(name, params, wires, gate))
    if dims is None:
        raise CircuitParseError(1, "no 'dims' directive found")
    return CircuitDescription(dims, tuple(steps))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
