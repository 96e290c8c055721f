"""Bosonic Fock-space engine for m optical modes at fixed total photon number.

Conventions, fixed once and used everywhere:

* Basis enumeration is lexicographically descending in the occupation tuple,
  so for (m=2, N=2): (2,0), (1,1), (0,2).
* A beamsplitter of reflectivity eta on modes (p, q) applies the real block

      [ sqrt(eta)    sqrt(1-eta) ]
      [ sqrt(1-eta)  -sqrt(eta)  ]

  i.e. the sign sits on the reflection off the "dotted" surface, which by
  default is the second listed mode (pass dotted=first mode to move it).
  This matrix is an involution, and the two-photon stay-put amplitude is
  1 - 2*eta: zero at a balanced splitter (Hong-Ou-Mandel) and +1/3 at
  eta = 1/3, so two-photon interference cancels the reflection sign there.
* A polarizing beamsplitter on spatial paths (h1,v1) and (h2,v2) transmits
  the h modes and swaps the v modes, with no phase.
* A half-wave plate at angle theta applies [[cos 2t, sin 2t], [sin 2t,
  -cos 2t]] to its (h, v) pair; theta = pi/8 (22.5 degrees) is a Hadamard.
* An attenuator is a beamsplitter against an explicit vacuum ancilla mode,
  keeping the whole evolution unitary; its `eta` is the probability the
  photon stays.
* A cross-Kerr element multiplies each basis amplitude by
  exp(i * chi * n_a * n_b); it is diagonal and not a mode-linear element.

Every element has one route into Fock space, `element.fock_operator(basis)`:
the `lift_to_fock` of its own block embedded in the m x m identity, a dense
matrix built once per call; a cross-Kerr's is the diagonal of its phases.
`circuit_fock_operator`, the product of the element operators, is the one
second-quantized reference: a state is a plain amplitude vector over the
basis, propagated by that product.  `element.apply(basis, amps)` takes one
element's step on such a vector: the element's operator times it, for a
cross-Kerr its phases times it, and for the polarizing beamsplitter a
relabelling of the occupations, which checks the lift of its permutation
block.  No command calls `apply`; each class keeps its own because the
benchmark's tracer (`perfbench/tracing.py`) wraps all three by name.

`ModeLayout.modes` is the one map from logical states to photons: row x
holds each photon's mode in logical basis state x, wires big-endian.
Elements, layouts and patterns refuse a negative or fractional mode, every
route from elements to amplitudes refuses an element mode >= m, and every
route that reads a layout against m modes refuses a layout mode >= m.

`logical_transfer(elements, m, layout)` is the one route from an optical
circuit to its post-selected logical matrix, and it is first-quantized: each
logical input is a product of N labelled photons, one per layout group,
held as a tensor with one mode axis per photon.  Each Kerr-free run of
mode-linear elements is composed into one mode matrix and then applied once
per photon axis, a cross-Kerr multiplies by its phase on the photon counts,
and a logical output's amplitude sums the N! orderings of its modes (the
permanent).  It builds no `FockBasis` and no element operator; each block is
checked unitary on its own, before it joins its run.  The chained gate read
this way shares only the element blocks and the layout table with
`optical.chain_coincidence_block`, and no code that computes amplitudes
(neither `single_photon_transfer` nor the block's permanents), so it is the
independent check on that block.

Three routes compute multi-photon amplitudes and tests hold each to
another.  Second quantization: `lift_to_fock` expands products of
creation-operator linear forms over the nonzero entries of each column of
the mode matrix; every element operator is such a lift, and
`circuit_fock_operator` multiplies them.  `permanent_amplitude_oracle`
evaluates scaled matrix permanents directly, and agrees with the lift to
1e-9.  First quantization: `logical_transfer` matches the logical rows and
columns of `circuit_fock_operator` (Kerr included) and the oracle's entries
on qudit layouts, to 1e-12, sharing only the elements' blocks with either.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .qudits import WireDims

MODE_UNITARY_TOL = 1e-10
ORACLE_TOL = 1e-9
HADAMARD_HWP_ANGLE = math.pi / 8


class PhotonNumberError(ValueError):
    """Occupations do not conserve the total photon number."""


def _index(value, what: str = "mode") -> int:
    """`value` as an int; a negative or non-integer value is a ValueError."""
    if not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{what} {value!r} is not a non-negative integer")
    return int(value)


def _check_element_modes(elements, m: int) -> None:
    """Every element's modes lie below m, else a ValueError naming the element."""
    for el in elements:
        if max(el.modes) >= m:
            raise ValueError(f"{el!r}: mode {max(el.modes)} out of range for {m} modes")


def _check_layout_modes(layout, m: int) -> None:
    """Every mode of the layout lies below m, else a one-line ValueError."""
    top = layout.modes.max(initial=-1)
    if top >= m:
        raise ValueError(f"layout mode {top} out of range for {m} modes")


# ---------------------------------------------------------------------------
# Basis
# ---------------------------------------------------------------------------

def _enumerate_occupations(m: int, n: int):
    if m == 1:
        yield (n,)
        return
    for head in range(n, -1, -1):
        for tail in _enumerate_occupations(m - 1, n - head):
            yield (head,) + tail


class FockBasis:
    """All occupation tuples of m modes holding exactly N photons."""

    def __init__(self, m: int, n_photons: int):
        if m < 1 or n_photons < 0:
            raise ValueError(f"bad basis shape m={m}, N={n_photons}")
        self.m = m
        self.n_photons = n_photons
        self.states: tuple[tuple[int, ...], ...] = tuple(_enumerate_occupations(m, n_photons))
        self._index = {occ: i for i, occ in enumerate(self.states)}

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, occupation) -> int:
        occ = tuple(map(int, occupation))
        if occ not in self._index:
            raise PhotonNumberError(
                f"occupation {occ} is not a state of {self.m} modes / {self.n_photons} photons")
        return self._index[occ]

    def __eq__(self, other) -> bool:
        return isinstance(other, FockBasis) and (self.m, self.n_photons) == (other.m, other.n_photons)

    def __hash__(self):
        return hash((self.m, self.n_photons))

    def __repr__(self):
        return f"FockBasis(m={self.m}, N={self.n_photons}, size={self.size})"


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class OpticalElement:
    """Base: every element maps FockBasis(m, N) to itself unitarily."""

    is_mode_linear = True

    def mode_block(self):
        """(modes, block) for mode-linear elements."""
        raise NotImplementedError

    def fock_operator(self, basis: FockBasis) -> np.ndarray:
        """Dense many-photon operator on `basis`: the lift of the element's
        block embedded in the m x m identity."""
        return lift_to_fock(single_photon_transfer((self,), basis.m), basis)

    def apply(self, basis: FockBasis, amps: np.ndarray) -> np.ndarray:
        """The amplitude vector `amps` over `basis` after this element."""
        return self.fock_operator(basis) @ amps


@dataclass(frozen=True)
class Beamsplitter(OpticalElement):
    """Asymmetric beamsplitter; `dotted` names the mode whose reflection
    picks up the minus sign (defaults to the second listed mode)."""

    eta: float
    modes: tuple[int, int]
    dotted: int | None = None

    def __post_init__(self):
        if not 0.0 <= float(self.eta) <= 1.0:
            raise ValueError(f"reflectivity {self.eta} outside [0, 1]")
        object.__setattr__(self, "modes", tuple(map(_index, self.modes)))
        if self.modes[0] == self.modes[1]:
            raise ValueError("beamsplitter needs two distinct modes")
        if self.dotted is not None and self.dotted not in self.modes:
            raise ValueError(f"dotted mode {self.dotted} is not one of {self.modes}")

    def mode_block(self):
        r = math.sqrt(float(self.eta))
        t = math.sqrt(1.0 - float(self.eta))
        if self.dotted is None or self.dotted == self.modes[1]:
            block = np.array([[r, t], [t, -r]], dtype=complex)
        else:
            block = np.array([[-r, t], [t, r]], dtype=complex)
        return list(self.modes), block


def VacuumAttenuator(eta, mode: int, ancilla: int) -> Beamsplitter:
    """Attenuating beamsplitter against an explicit vacuum ancilla: the
    photon stays in `mode` with amplitude sqrt(eta)."""
    return Beamsplitter(eta, (mode, ancilla))


@dataclass(frozen=True)
class HalfWavePlate(OpticalElement):
    """Wave plate on one (h, v) polarization pair; theta in radians."""

    theta: float
    modes: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(map(_index, self.modes)))
        if self.modes[0] == self.modes[1]:
            raise ValueError("wave plate needs two distinct modes")

    def mode_block(self):
        c = math.cos(2.0 * self.theta)
        s = math.sin(2.0 * self.theta)
        return list(self.modes), np.array([[c, s], [s, -c]], dtype=complex)


@dataclass(frozen=True)
class PolarizingBeamsplitter(OpticalElement):
    """Mode permutation on two spatial paths: h modes pass, v modes swap."""

    path1: tuple[int, int]
    path2: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "path1", tuple(map(_index, self.path1)))
        object.__setattr__(self, "path2", tuple(map(_index, self.path2)))
        if len(set(self.modes)) != 4:
            raise ValueError("polarizing beamsplitter needs four distinct modes")

    @property
    def modes(self) -> tuple[int, ...]:
        return self.path1 + self.path2

    def mode_block(self):
        # on (h1, v1, h2, v2): the h modes stay, v1 and v2 swap
        return list(self.modes), np.eye(4, dtype=complex)[[0, 3, 2, 1]]

    def apply(self, basis: FockBasis, amps: np.ndarray) -> np.ndarray:
        # permutation: relabel occupations directly, no amplitude mixing
        h1, v1 = self.path1
        h2, v2 = self.path2
        _check_element_modes((self,), basis.m)
        result = np.zeros_like(amps)
        for idx, occ in enumerate(basis.states):
            if amps[idx] == 0:
                continue
            out = list(occ)
            out[v1], out[v2] = occ[v2], occ[v1]
            result[basis.index_of(tuple(out))] += amps[idx]
        return result


@dataclass(frozen=True)
class CrossKerr(OpticalElement):
    """Diagonal two-mode phase exp(i chi n_a n_b): only doubly occupied
    mode pairs pick up the phase."""

    chi: float
    modes: tuple[int, int]

    is_mode_linear = False

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(map(_index, self.modes)))
        if self.modes[0] == self.modes[1]:
            raise ValueError("cross-Kerr needs two distinct modes")

    def mode_block(self):
        raise TypeError("cross-Kerr is not a mode-linear element")

    def _phases(self, basis: FockBasis) -> np.ndarray:
        _check_element_modes((self,), basis.m)
        a, b = self.modes
        return np.array([
            np.exp(1j * self.chi * occ[a] * occ[b]) if occ[a] and occ[b] else 1.0
            for occ in basis.states], dtype=complex)

    def fock_operator(self, basis: FockBasis) -> np.ndarray:
        return np.diag(self._phases(basis))

    def apply(self, basis: FockBasis, amps: np.ndarray) -> np.ndarray:
        return amps * self._phases(basis)


# ---------------------------------------------------------------------------
# Mode-matrix composition and Fock lifting
# ---------------------------------------------------------------------------

def single_photon_transfer(elements, m: int) -> np.ndarray:
    """Compose per-element blocks into the interferometer's m x m mode matrix.

    Each element's `mode_block` acts as a row operation on the rows of its
    modes; the other rows are untouched.  Only mode-linear elements
    participate; a cross-Kerr in the list is an error.  The composition is
    checked unitary as an internal bug guard.
    """
    _check_element_modes(elements, m)
    mat = np.eye(m, dtype=complex)
    for el in elements:
        if not el.is_mode_linear:
            raise TypeError(f"{type(el).__name__} has no single-photon mode matrix")
        modes, block = el.mode_block()
        mat[modes] = block @ mat[modes]
    err = np.max(np.abs(mat.conj().T @ mat - np.eye(m)))
    if not err <= MODE_UNITARY_TOL:
        raise ValueError(f"composed mode matrix not unitary (deviation {err:.3e})")
    return mat


def _expand_creation_product(columns, occupation) -> dict[tuple[int, ...], complex]:
    """Output occupations and amplitudes for one input occupation, by
    expanding prod_j (sum_i U[i,j] a_i^dag)^{n_j} |vac> with ladder factors;
    `columns[j]` holds the nonzero pairs (i, U[i,j]) of column j."""
    current: dict[tuple[int, ...], complex] = {(0,) * len(occupation): 1.0 + 0.0j}
    for j, nj in enumerate(occupation):
        for _ in range(nj):
            nxt: dict[tuple[int, ...], complex] = {}
            for occ, coeff in current.items():
                for i, u in columns[j]:
                    out = list(occ)
                    out[i] += 1
                    key = tuple(out)
                    nxt[key] = nxt.get(key, 0.0) + coeff * u * math.sqrt(out[i])
            current = nxt
    norm = math.sqrt(math.prod(math.factorial(n) for n in occupation))
    return {occ: coeff / norm for occ, coeff in current.items()}


def lift_to_fock(mode_matrix: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Many-photon unitary induced by an m x m mode unitary on the basis.

    Matrix elements equal permanents of row/column-repeated submatrices
    scaled by occupation factorials; here they are built by expanding
    creation-operator polynomials, which keeps this route independent of the
    permanent oracle.
    """
    mode_matrix = np.asarray(mode_matrix, dtype=complex)
    if mode_matrix.shape != (basis.m, basis.m):
        raise ValueError(f"mode matrix shape {mode_matrix.shape} != ({basis.m}, {basis.m})")
    err = np.max(np.abs(mode_matrix.conj().T @ mode_matrix - np.eye(basis.m)))
    if not err <= MODE_UNITARY_TOL:
        raise ValueError(f"mode matrix not unitary (deviation {err:.3e})")
    columns = [[(i, u) for i, u in enumerate(column) if u != 0] for column in mode_matrix.T.tolist()]
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for col, occ in enumerate(basis.states):
        for occ_out, amp in _expand_creation_product(columns, occ).items():
            out[basis.index_of(occ_out), col] = amp
    return out


def circuit_fock_operator(elements, basis: FockBasis) -> np.ndarray:
    """Dense many-photon operator of an ordered element list (Kerr included);
    the reference `logical_transfer` is tested against."""
    op = np.eye(basis.size, dtype=complex)
    for el in elements:
        op = el.fock_operator(basis) @ op
    return op


# ---------------------------------------------------------------------------
# Permanent oracle
# ---------------------------------------------------------------------------

def permanent(mat: np.ndarray) -> complex:
    """Matrix permanent by Ryser's inclusion-exclusion formula, O(n 2^n).

    Plain-Python accumulation: the matrices here are tiny (n <= photon
    number) and array overhead would dominate.
    """
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    rows = [tuple(row) for row in mat]
    total = 0.0 + 0.0j
    for subset in range(1, 1 << n):
        prod = 1.0 + 0.0j
        for row in rows:
            acc = 0.0 + 0.0j
            s = subset
            j = 0
            while s:
                if s & 1:
                    acc += row[j]
                s >>= 1
                j += 1
            prod *= acc
        total += -prod if subset.bit_count() & 1 else prod
    return complex(total if n % 2 == 0 else -total)


def permanent_amplitude_oracle(mode_matrix: np.ndarray, in_occupation, out_occupation) -> complex:
    """Transfer amplitude <out| Phi(U) |in> = per(U[out, in]) / sqrt(prod n! prod n'!).

    The submatrix repeats row i out_i times and column j in_j times.  This is
    the independent check on lift_to_fock.  A non-square matrix, an
    occupation whose length is not m, or a negative or fractional count is a
    one-line ValueError.
    """
    mode_matrix = np.asarray(mode_matrix, dtype=complex)
    if mode_matrix.ndim != 2 or mode_matrix.shape[0] != mode_matrix.shape[1]:
        raise ValueError(f"mode matrix shape {mode_matrix.shape} is not square")
    m = len(mode_matrix)
    in_occ = tuple(_index(x, "photon number") for x in in_occupation)
    out_occ = tuple(_index(x, "photon number") for x in out_occupation)
    if len(in_occ) != m or len(out_occ) != m:
        raise ValueError(f"occupations of length {len(in_occ)} and {len(out_occ)} for {m} modes")
    if sum(in_occ) != sum(out_occ):
        raise PhotonNumberError(
            f"photon number mismatch: {sum(in_occ)} in, {sum(out_occ)} out")
    rows = [i for i, n in enumerate(out_occ) for _ in range(n)]
    cols = [j for j, n in enumerate(in_occ) for _ in range(n)]
    sub = mode_matrix[np.ix_(rows, cols)]
    scale = math.sqrt(math.prod(math.factorial(n) for n in in_occ)
                      * math.prod(math.factorial(n) for n in out_occ))
    return permanent(sub) / scale


# ---------------------------------------------------------------------------
# Detection patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionPattern:
    """Exact photon-count conditions on a subset of modes; unlisted modes are
    unconstrained.  `zero(...)` is the common zero-detection condition."""

    conditions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        conds = tuple(sorted((_index(m), _index(c, "count")) for m, c in self.conditions))
        if not conds:
            raise ValueError("detection pattern must constrain at least one mode")
        modes = [m for m, _ in conds]
        if len(set(modes)) != len(modes):
            raise ValueError("detection pattern repeats a mode")
        object.__setattr__(self, "conditions", conds)

    @classmethod
    def zero(cls, modes) -> "DetectionPattern":
        return cls(tuple((m, 0) for m in modes))


# ---------------------------------------------------------------------------
# Dual-rail (and qudit-rail) encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeLayout:
    """Maps logical wires onto disjoint mode groups: one photon per group,
    its position within the group being the logical level.  Row x of the
    (X, N) table `modes` is each photon's mode in logical basis state x."""

    groups: tuple[tuple[int, ...], ...]
    modes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = tuple(tuple(map(_index, g)) for g in self.groups)
        if not groups:
            raise ValueError("layout needs at least one wire")
        flat = [m for g in groups for m in g]
        if len(set(flat)) != len(flat):
            raise ValueError("layout groups overlap")
        for g in groups:
            if len(g) < 2:
                raise ValueError("each logical wire needs at least two modes")
        object.__setattr__(self, "groups", groups)
        modes = np.array(list(product(*groups)), dtype=int)
        modes.flags.writeable = False     # shared by every route that reads it
        object.__setattr__(self, "modes", modes)

    @property
    def wire_dims(self) -> WireDims:
        return WireDims(tuple(len(g) for g in self.groups))


def _apply_to_each_photon(mode_matrix: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """An m x m mode matrix applied along every photon axis of a tensor of
    shape (X,) + (m,) * N: one batched matrix product per axis but the last,
    and one 2-D product for the last, whose rows are contiguous."""
    shape = tensor.shape
    m = len(mode_matrix)
    for axis in range(1, tensor.ndim - 1):
        tensor = np.matmul(mode_matrix, tensor.reshape(math.prod(shape[:axis]), m, -1))
    tensor = tensor.reshape(-1, m) @ mode_matrix.T
    return tensor.reshape(shape)


def logical_transfer(elements, m: int, layout: ModeLayout) -> np.ndarray:
    """Post-selected logical matrix <enc(y)| U |enc(x)> of an ordered element
    list over all digit tuples, propagated in first quantization.

    Logical input x puts photon k on its mode of group k, so the state is a
    tensor of shape (X,) + (m,) * N with photon k on axis k + 1.  Photons do
    not interact between two cross-Kerrs, so each maximal Kerr-free run of
    mode-linear elements is composed into one m x m mode matrix (each block
    a row operation on its modes, and checked unitary on its own), which is
    then applied once along each photon axis.  A cross-Kerr multiplies by
    exp(i chi n_a n_b), n_a counting the axes on mode a.  Output y occupies N
    distinct modes, so its amplitude is the sum over the N! orderings of
    those modes (the permanent).  No Fock basis or many-photon operator is
    built."""
    _check_element_modes(elements, m)
    _check_layout_modes(layout, m)
    modes = layout.modes
    n_inputs, n = modes.shape
    tensor = np.zeros((n_inputs,) + (m,) * n, dtype=complex)
    tensor[(np.arange(n_inputs),) + tuple(modes.T)] = 1.0
    photon_modes = np.indices((m,) * n)   # [k] is photon k's mode at each entry
    pending = None                        # the current Kerr-free run, composed
    for el in elements:
        if isinstance(el, CrossKerr):
            if pending is not None:
                tensor, pending = _apply_to_each_photon(pending, tensor), None
            n_a, n_b = (np.sum(photon_modes == mode, axis=0) for mode in el.modes)
            tensor = tensor * np.exp(1j * el.chi * n_a * n_b)
            continue
        rows, block = el.mode_block()
        err = np.max(np.abs(block.conj().T @ block - np.eye(len(rows))))
        if not err <= MODE_UNITARY_TOL:
            raise ValueError(f"{type(el).__name__} block not unitary (deviation {err:.3e})")
        if pending is None:
            pending = np.eye(m, dtype=complex)
        pending[rows] = block @ pending[rows]
    if pending is not None:
        tensor = _apply_to_each_photon(pending, tensor)
    amps = sum(tensor[(slice(None),) + tuple(modes[:, k] for k in order)]
               for order in permutations(range(n)))
    return amps.T


# ---------------------------------------------------------------------------
# Optical circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpticalCircuit:
    """An optical construction's mode count, photon number, ordered elements
    and optional detection pattern (held to its layout by `optical._realize`)."""

    m: int
    n_photons: int
    elements: tuple
    pattern: DetectionPattern | None = None

    def basis(self) -> FockBasis:
        return FockBasis(self.m, self.n_photons)
