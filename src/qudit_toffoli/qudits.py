"""Mixed-radix register engine.

Registers are ordered lists of wires with independent dimensions (2 for a
qubit, 3 for a qutrit, ...).  Basis states are addressed big-endian: the
first wire is the most significant digit, so for dims (2, 2, 3) the ket
|i, j, k> sits at linear index i*6 + j*3 + k.

There is one dense route through a register, `circuit_unitary`: the steps
of a `CircuitDescription`, which validates each step once, applied in turn
by the unchecked kernel `_apply_to_block`.  `embed_gate` is a one-step circuit.

A gate is stored only as its sparse `ColumnTable`, its nonzeros column by
column, checked once by the table's `defect`: built from a monomial column map
in O(dim) (`GateMatrix.from_columns`) or read off a dense unitary (`from_matrix`).
The dense `GateMatrix.matrix` is the table's scatter, made on first read.

Everything here is a pure function on immutable-by-convention values; no
operation mutates its inputs.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

NORM_TOL = 1e-12      # norm / unitarity of exact constructions
PRODUCT_TOL = 1e-10   # accumulated gate products


class WireError(ValueError):
    """A wire index or per-wire digit is out of range."""


# ---------------------------------------------------------------------------
# Register description and indexing
# ---------------------------------------------------------------------------

def _integer(value, what: str, wire: int | None = None) -> int:
    """`value` as an int; anything but an integer (numpy's count), a bool too,
    is a WireError naming `what`, and `wire` if given.  A plain int skips the
    slower ABC check."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise WireError(f"{'' if wire is None else f'wire {wire}: '}{what} {value!r} is not an integer")
    return int(value)


def _checked_dims(dims) -> tuple[int, ...]:
    """`dims` as a tuple of ints; a non-integer, no wires or a dimension < 2 is a WireError."""
    dims = tuple(_integer(d, "dimension", w) for w, d in enumerate(dims))
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
        return math.prod(self.dims)


def basis_index(digits, dims: WireDims) -> int:
    """Linear index of the basis ket with the given per-wire levels (big-endian)."""
    if len(digits) != dims.n_wires:
        raise WireError(f"expected {dims.n_wires} digits, got {len(digits)}")
    idx = 0
    for w, (digit, d) in enumerate(zip(digits, dims.dims)):
        if not 0 <= _integer(digit, "digit", w) < d:
            raise WireError(f"wire {w}: digit {digit} out of range for dimension {d}")
        idx = idx * d + digit
    return idx


def basis_digits(index: int, dims: WireDims) -> tuple[int, ...]:
    """Inverse of :func:`basis_index`."""
    if not 0 <= _integer(index, "index") < dims.total_dim:
        raise WireError(f"index {index} out of range for total dimension {dims.total_dim}")
    out = []
    for d in reversed(dims.dims):
        out.append(index % d)
        index //= d
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def _monomial_defect(rows: np.ndarray, entries: np.ndarray) -> str:
    """Why the map of column j to local row rows[j] with the factor entries[j]
    is not unitary, in one line, or '' if it is: checked in O(dim)."""
    if set(rows.tolist()) != set(range(rows.size)):
        return f"column rows {rows.tolist()} are not a permutation of range({rows.size})"
    err = np.abs(np.abs(entries) - 1.0).max()
    return "" if err <= NORM_TOL else f"matrix is not unitary (an entry is {err:.3e} off the unit circle)"


@dataclass(frozen=True)
class ColumnTable:
    """A gate's nonzeros as lookup arrays over its k wires: local input index
    = strides @ input digits, and input column j holds the nonzeros
    offsets[j]:offsets[j + 1], nonzero i going to digits[:, i] times entries[i]."""

    strides: np.ndarray   # (k,) big-endian place values of the gate's wires
    offsets: np.ndarray   # (dim + 1,) where each column's nonzeros start
    digits: np.ndarray    # (k, nnz) output digits of each nonzero
    entries: np.ndarray   # (nnz,) each nonzero's value

    @classmethod
    def from_rows(cls, wire_dims: tuple[int, ...], offsets, rows: np.ndarray, entries: np.ndarray) -> ColumnTable:
        """The table whose column j holds the local rows rows[offsets[j]:offsets[j + 1]]
        and those entries; `offsets` and `entries` become two of its read-only arrays.
        A monomial map's `defect` is found here, once, on the rows as given."""
        defect = _monomial_defect(rows, entries) if offsets.tolist() == list(range(entries.size + 1)) else None
        strides = np.array([math.prod(wire_dims[w + 1:]) for w in range(len(wire_dims))])
        # only a map with a defect has a row out of range: wrapped, not raised on
        table = cls(strides, offsets, np.array(np.unravel_index(rows % math.prod(wire_dims), wire_dims)), entries)
        for array in (table.strides, table.offsets, table.digits, table.entries):
            array.flags.writeable = False
        if defect is not None:
            table.__dict__["defect"] = defect  # the cache of `defect`, which is not computed again
        return table

    @property
    def monomial(self) -> bool:
        """One nonzero per column, for a table without a `defect`."""
        return self.entries.size == self.offsets.size - 1

    @cached_property
    def defect(self) -> str:
        """Why the table is not a unitary's, in one line, or '': found by
        `from_rows` for a monomial map, else the Gram product of the scatter."""
        mat = self.scatter()
        err = np.max(np.abs(mat.conj().T @ mat - np.eye(len(mat))))
        return "" if err <= NORM_TOL else f"matrix is not unitary (deviation {err:.3e})"

    def scatter(self) -> np.ndarray:
        """The table as a read-only dense dim x dim matrix."""
        dim = self.offsets.size - 1
        mat = np.zeros((dim, dim), dtype=complex)
        mat[self.strides @ self.digits, np.repeat(np.arange(dim), np.diff(self.offsets))] = self.entries
        mat.flags.writeable = False
        return mat


@dataclass(frozen=True)
class GateMatrix:
    """Unitary acting on a (sub)register with the given per-wire dimensions,
    stored as its `columns` table alone; the constructor refuses a table with
    a `defect`.  Build one with `from_columns` or `from_matrix`."""

    wire_dims: tuple[int, ...]
    columns: ColumnTable

    def __post_init__(self):
        if self.columns.defect:
            raise WireError(self.columns.defect)

    @classmethod
    def from_columns(cls, wire_dims, rows, entries) -> GateMatrix:
        """The monomial gate whose column j goes to local row rows[j] with the
        factor entries[j], checked in O(dim)."""
        wd = _checked_dims(wire_dims)
        dim = math.prod(wd)
        rows, entries = np.asarray(rows), np.array(entries, dtype=complex)
        if rows.dtype.kind not in "iu" or rows.shape != (dim,) or entries.shape != (dim,):
            raise WireError(f"column map needs {dim} integer rows and {dim} entries for wire dims "
                            f"{wd}, got {rows.size} {rows.dtype} rows and {entries.size} entries")
        return cls(wd, ColumnTable.from_rows(wd, np.arange(dim + 1), rows, entries))

    @classmethod
    def from_matrix(cls, wire_dims, matrix) -> GateMatrix:
        """The gate of a dense unitary, its table read off the matrix (not kept)."""
        wd, mat = _checked_dims(wire_dims), np.asarray(matrix, dtype=complex)
        if mat.shape != (math.prod(wd),) * 2:
            raise WireError(f"matrix shape {mat.shape} does not match wire dims {wd}")
        cols, rows = np.nonzero(mat.T)
        offsets = np.concatenate(([0], np.cumsum(np.count_nonzero(mat, axis=0))))
        return cls(wd, ColumnTable.from_rows(wd, offsets, rows, mat[rows, cols]))

    @property
    def dim(self) -> int:
        return math.prod(self.wire_dims)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only: the table's scatter, made on first read."""
        return self.columns.scatter()


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
        dims = self.dims.dims
        for s, step in enumerate(self.steps):
            if len(step.wires) != len(step.gate.wire_dims):
                raise WireError(f"step {s}: gate {step.name} acts on {len(step.gate.wire_dims)} "
                                f"wires, step names {len(step.wires)}")
            for w in step.wires:
                if not 0 <= _integer(w, f"step {s}: wire") < len(dims):
                    raise WireError(f"step {s}: wire index {w} out of range for {len(dims)} wires")
            if len(set(step.wires)) != len(step.wires):
                raise WireError(f"step {s}: repeated wire index in {list(step.wires)}")
            for w, d in zip(step.wires, step.gate.wire_dims):
                if dims[w] != d:
                    raise WireError(f"step {s}: wire {w} has dimension {dims[w]}, gate {step.name} expects {d}")

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
