"""Bosonic Fock-space engine for m optical modes at fixed total photon number.

Conventions, fixed once and used everywhere:

* Basis enumeration is lexicographically descending in the occupation tuple,
  so for (m=2, N=2): (2,0), (1,1), (0,2).
* A beamsplitter of reflectivity eta on modes (p, q) applies the real block

      [ sqrt(eta)    sqrt(1-eta) ]
      [ sqrt(1-eta)  -sqrt(eta)  ]

  i.e. the sign sits on the reflection off the second listed mode; listing
  the modes the other way round moves it.
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

Every element takes its one second-quantized step with
`element.apply(basis, amps)`, on an amplitude vector over the basis or a
matrix of such columns: the `lift_to_fock` of its own `mode_block` embedded
in the m x m identity, or for a cross-Kerr each row times its phase.  No
command calls it; the polarizing beamsplitter and the cross-Kerr keep their
own `apply` because the benchmark's tracer (`perfbench/tracing.py`) wraps all
three by name.

`ModeLayout.modes` is the one map from logical states to photons: row x
holds each photon's mode in logical basis state x, wires big-endian.
Elements and layouts refuse a negative, fractional or bool mode, every
route from elements to amplitudes refuses an element mode >= m, and every
route that reads a layout against m modes refuses a layout mode >= m.

`logical_transfer(elements, m, layout)` is the one route from an optical
circuit to its post-selected logical matrix, and it is first-quantized: each
logical input is a product of N labelled photons, one per layout group,
held as a tensor with one mode axis per photon.  Each photon has a reach,
the modes where it can have amplitude, which starts as its layout group.
Each Kerr-free run of mode-linear elements is composed into one mode matrix
and applied only along the axes whose reach meets the modes the run touches,
whose reach then grows by those modes; along any other axis the run is
exactly the identity.  A cross-Kerr multiplies one slice by exp(i chi) for
each ordered photon pair whose reaches hold its two modes, and a logical
output's amplitude sums the N! orderings of its modes (the permanent).  It
builds no `FockBasis` and no many-photon operator.  The composed runs, the
Kerr phases and each distinct element's block, checked unitary on its own
before it joins its run, depend only on the element list and m: they form a
plan that is built once per process for each such pair (`_transfer_plan`,
memoized), while the mode checks and the propagation run on every call.  The
chained gate read this way shares only the element blocks and the layout
table with `optical.chain_coincidence_block`, and no code that computes
amplitudes (neither `single_photon_transfer` nor the block's permanents), so
it is the independent check on that block.

Three routes compute multi-photon amplitudes.  `logical_transfer` is the
fast one.  `circuit_fock_operator`, which folds each element's `apply` over
the identity, is the second-quantized reference: `lift_to_fock` expands
products of creation-operator linear forms over the nonzero entries of each
column of the mode matrix.  It shares only the element blocks and the mode
check with `logical_transfer` and with the chain's `single_photon_transfer`,
and matches `logical_transfer`'s rows and columns (Kerr included) to 1e-12.
`permanent_amplitude_oracle` evaluates scaled matrix permanents directly; it
is the check on the lift, to 1e-9, and on `logical_transfer` on qudit layouts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .qudits import WireDims, _integer, _real

MODE_UNITARY_TOL = 1e-10
HADAMARD_HWP_ANGLE = math.pi / 8


class PhotonNumberError(ValueError):
    """Occupations do not conserve the total photon number."""


_mode = functools.partial(_integer, what="mode", non_negative=True)   # a mode as a non-negative int


def _check_element_modes(elements, m) -> int:
    """The mode count m as an int, every element's modes below it; else a one-line ValueError."""
    m = _integer(m, "mode count", non_negative=True)
    for el in elements:
        if max(el.modes) >= m:
            raise ValueError(f"{el!r}: mode {max(el.modes)} out of range for {m} modes")
    return m


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
        self.m, self.n_photons = _integer(m, "mode count", non_negative=True), _integer(n_photons, "photon number")
        if self.m < 1 or self.n_photons < 0:
            raise ValueError(f"bad basis shape m={m}, N={n_photons}")
        self.states: tuple[tuple[int, ...], ...] = tuple(_enumerate_occupations(self.m, self.n_photons))
        self._index = {occ: i for i, occ in enumerate(self.states)}

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, occupation) -> int:
        occ = tuple(_integer(x, "photon number", non_negative=True) for x in occupation)
        if occ not in self._index:
            raise PhotonNumberError(
                f"occupation {occ} is not a state of {self.m} modes / {self.n_photons} photons")
        return self._index[occ]


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class OpticalElement:
    """Base: every element maps FockBasis(m, N) to itself unitarily; each
    mode-linear one gives its `mode_block`, (modes, block)."""

    def apply(self, basis: FockBasis, amps: np.ndarray) -> np.ndarray:
        """`amps` over `basis`, a vector or a matrix of columns, after this
        element: the lift of its own block embedded in the m x m identity."""
        _check_element_modes((self,), basis.m)
        modes, block = self.mode_block()
        embedded = np.eye(basis.m, dtype=complex)
        embedded[np.ix_(modes, modes)] = block
        return lift_to_fock(embedded, basis) @ amps


@dataclass(frozen=True)
class Beamsplitter(OpticalElement):
    """Asymmetric beamsplitter; the reflection off the second listed mode
    picks up the minus sign."""

    eta: float
    modes: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "eta", _real("reflectivity", self.eta, unit=True))
        object.__setattr__(self, "modes", tuple(map(_mode, self.modes)))
        if self.modes[0] == self.modes[1]:
            raise ValueError("beamsplitter needs two distinct modes")

    def mode_block(self):
        r = math.sqrt(self.eta)
        t = math.sqrt(1.0 - self.eta)
        return list(self.modes), np.array([[r, t], [t, -r]], dtype=complex)


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
        object.__setattr__(self, "theta", _real("theta", self.theta))
        object.__setattr__(self, "modes", tuple(map(_mode, self.modes)))
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
        object.__setattr__(self, "path1", tuple(map(_mode, self.path1)))
        object.__setattr__(self, "path2", tuple(map(_mode, self.path2)))
        if len(set(self.modes)) != 4:
            raise ValueError("polarizing beamsplitter needs four distinct modes")

    @property
    def modes(self) -> tuple[int, ...]:
        return self.path1 + self.path2

    def mode_block(self):
        # on (h1, v1, h2, v2): the h modes stay, v1 and v2 swap
        return list(self.modes), np.eye(4, dtype=complex)[[0, 3, 2, 1]]

    # its own binding: the benchmark's tracer wraps `apply` on this class by name
    apply = OpticalElement.apply


@dataclass(frozen=True)
class CrossKerr(OpticalElement):
    """Diagonal two-mode phase exp(i chi n_a n_b): only doubly occupied
    mode pairs pick up the phase."""

    chi: float
    modes: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "chi", _real("chi", self.chi))
        object.__setattr__(self, "modes", tuple(map(_mode, self.modes)))
        if self.modes[0] == self.modes[1]:
            raise ValueError("cross-Kerr needs two distinct modes")

    def apply(self, basis: FockBasis, amps: np.ndarray) -> np.ndarray:
        """`amps` over `basis`, a vector or a matrix of columns, with each
        basis state's row multiplied by its phase exp(i chi n_a n_b)."""
        _check_element_modes((self,), basis.m)
        a, b = self.modes
        pairs = np.array([occ[a] * occ[b] for occ in basis.states])
        return (amps.T * np.exp(1j * self.chi * pairs)).T


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
    m = _check_element_modes(elements, m)
    mat = np.eye(m, dtype=complex)
    for el in elements:
        if isinstance(el, CrossKerr):
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
    """Dense many-photon operator of an ordered element list (Kerr included),
    each element's `apply` folded over the identity: the reference
    `logical_transfer` is tested against."""
    op = np.eye(basis.size, dtype=complex)
    for el in elements:
        op = el.apply(basis, op)
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
    in_occ = tuple(_integer(x, "photon number", non_negative=True) for x in in_occupation)
    out_occ = tuple(_integer(x, "photon number", non_negative=True) for x in out_occupation)
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
# Dual-rail (and qudit-rail) encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeLayout:
    """Maps logical wires onto disjoint mode groups: one photon per group,
    its position within the group being the logical level, and none outside
    the groups; that is the post-selection `logical_transfer` reads.  Row x
    of the (X, N) table `modes` is each photon's mode in logical basis state x."""

    groups: tuple[tuple[int, ...], ...]
    modes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = tuple(tuple(map(_mode, g)) for g in self.groups)
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


def _apply_run(run: np.ndarray | None, touched: frozenset, tensor: np.ndarray, reach: list) -> np.ndarray:
    """A composed Kerr-free m x m run applied to a tensor of shape
    (X,) + (m,) * N along each photon axis whose reach meets the modes the
    run touches, which widens that reach by them: a batched matrix product
    per axis, or a 2-D product for the last axis, whose rows are contiguous.
    Outside `touched` the run's columns are unit vectors, so along any other
    axis it is exactly the identity."""
    if run is None:
        return tensor
    shape = tensor.shape
    m = len(run)
    for k, photon_reach in enumerate(reach):
        if photon_reach.isdisjoint(touched):
            continue
        photon_reach |= touched
        if k == len(reach) - 1:
            tensor = tensor.reshape(-1, m) @ run.T
        else:
            tensor = np.matmul(run, tensor.reshape(math.prod(shape[:k + 1]), m, -1))
    return tensor.reshape(shape)


# a process realizes few distinct element lists (the commands build four, the
# heralded one the same at every --cs-success), so a few more is headroom
_PLAN_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _transfer_plan(elements: tuple, m: int) -> tuple:
    """The part of `logical_transfer` that depends only on the element list
    and m: one (run, touched, kerr) segment per cross-Kerr, and one more with
    kerr None for the elements after the last.  `run` is the read-only m x m
    composition of the segment's Kerr-free elements (each block a row
    operation on its modes, each distinct element's block checked unitary
    before it joins), or None if there are none; `touched` the modes it
    touches; `kerr` the cross-Kerr's modes and phase (a, b, exp(i chi)).
    Elements compare by value, so an equal list shares its plan; a
    non-unitary block raises, and nothing is cached for it."""
    segments = []
    blocks = {}                           # each distinct element's checked (rows, block)
    pending, touched = None, set()        # the current Kerr-free run, composed, and its modes

    def close(kerr):
        if pending is not None:
            pending.flags.writeable = False   # shared by every later call with this list
        segments.append((pending, frozenset(touched), kerr))

    for el in elements:
        if isinstance(el, CrossKerr):
            close(el.modes + (np.exp(1j * el.chi),))
            pending, touched = None, set()
            continue
        if el not in blocks:
            rows, block = el.mode_block()
            err = np.max(np.abs(block.conj().T @ block - np.eye(len(rows))))
            if not err <= MODE_UNITARY_TOL:
                raise ValueError(f"{type(el).__name__} block not unitary (deviation {err:.3e})")
            blocks[el] = rows, block
        rows, block = blocks[el]
        if pending is None:
            pending = np.eye(m, dtype=complex)
        pending[rows] = block @ pending[rows]
        touched.update(rows)
    close(None)
    return tuple(segments)


def logical_transfer(elements, m: int, layout: ModeLayout) -> np.ndarray:
    """Post-selected logical matrix <enc(y)| U |enc(x)> of an ordered element
    list over all digit tuples, propagated in first quantization.

    Logical input x puts photon k on its mode of group k, so the state is a
    tensor of shape (X,) + (m,) * N with photon k on axis k + 1, and photon
    k's reach, the modes where it can have amplitude, starts as group k.
    Photons do not interact between two cross-Kerrs, so each maximal
    Kerr-free run of mode-linear elements is composed into one m x m mode
    matrix (`_transfer_plan`, memoized per element list and m), which is then
    applied along each photon axis whose reach meets the run's modes, and
    widens those reaches by them.  Along any other axis the run is exactly the
    identity and is skipped.  A cross-Kerr's exp(i chi n_a n_b) is the
    product over ordered photon pairs (k, l) of exp(i chi [x_k = a][x_l = b]),
    so it multiplies one slice by exp(i chi) for each pair with a in k's
    reach and b in l's.  Output y occupies N distinct modes, so its amplitude
    is the sum over the N! orderings of those modes (the permanent).  No Fock
    basis or many-photon operator is built."""
    elements = tuple(elements)
    m = _check_element_modes(elements, m)
    modes = layout.modes
    if modes.max(initial=-1) >= m:
        raise ValueError(f"layout mode {modes.max()} out of range for {m} modes")
    n_inputs, n = modes.shape
    tensor = np.zeros((n_inputs,) + (m,) * n, dtype=complex)
    tensor[(np.arange(n_inputs),) + tuple(modes.T)] = 1.0
    reach = [set(group) for group in layout.groups]
    for run, touched, kerr in _transfer_plan(elements, m):
        tensor = _apply_run(run, touched, tensor, reach)
        if kerr is None:
            continue
        a, b, phase = kerr
        for k, l in permutations(range(n), 2):
            if a in reach[k] and b in reach[l]:
                index = [slice(None)] * (n + 1)
                index[k + 1], index[l + 1] = a, b
                tensor[tuple(index)] *= phase
    amps = sum(tensor[(slice(None),) + tuple(modes[:, k] for k in order)]
               for order in permutations(range(n)))
    return amps.T
