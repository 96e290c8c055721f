"""In-memory spans around the package's public functions, and per-layer metrics.

`Tracer.install()` replaces each boundary function with a wrapper at every
module binding that reaches it (`fock.lift_to_fock` and `optical.lift_to_fock`
are both rebound), so a call is recorded once whichever name it went
through; `uninstall()` puts the originals back.  A span is
`(id, parent id, operation id, name, start, end, attributes)`; the spans
stay in memory until `write()`.  Nothing in the package is modified on disk.

A layer's self time is the span duration minus the time its child spans
cover.  Per-layer metrics are totals over the traced batches divided by
their number, so runs of different lengths compare.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from time import perf_counter

from scipy import optimize as scipy_optimize

import qudit_toffoli
from qudit_toffoli import cli, fock, optical, qudits, report, toffoli

MODULES = (qudit_toffoli, qudits, toffoli, fock, optical, report, cli)
USEFUL_START_TOL = 1e-9


def _circuit_unitary_sizes(args, kwargs, result):
    """Flops and bytes of the dense products, computed from the sizes: each
    step multiplies a g x g gate into the D x D matrix (8 g D^2 real flops,
    the matrix read and written), and the unitarity check is a D x D x D
    product (8 D^3 flops, two operands read, one written)."""
    circ = args[0] if args else kwargs["circ"]
    d = circ.dims.total_dim
    entry = 16  # complex128
    flops = sum(8 * step.gate.dim * d * d for step in circ.steps) + 8 * d ** 3
    moved = len(circ.steps) * 2 * entry * d * d + 3 * entry * d * d
    return {"dim_max": d, "flops_computed": flops, "bytes_computed": moved}


def _lift_sizes(args, kwargs, result):
    basis = args[1] if len(args) > 1 else kwargs["basis"]
    return {"basis_size_max": basis.size, "entries_computed": basis.size * basis.size}


def _minimize_result(args, kwargs, result):
    return {"nfev": int(result.nfev), "fun": float(result.fun)}


def _least_squares_result(args, kwargs, result):
    return {"nfev": int(result.nfev)}


# (span name, module, attribute, attributes recorded on return).  Functions
# are wrapped at every binding in MODULES; methods are wrapped on the class
# that defines them.  perfbench/README.md says which end-to-end metric each
# boundary should move.
FUNCTIONS = (
    ("qudits.circuit_unitary", qudits, "circuit_unitary", _circuit_unitary_sizes),
    ("qudits.embed_gate", qudits, "embed_gate", None),
    ("toffoli.build_n_ts_circuit", toffoli, "build_n_ts_circuit", None),
    ("toffoli.verify_decomposition", toffoli, "verify_decomposition", None),
    ("toffoli.max_target_level_used", toffoli, "max_target_level_used", None),
    ("toffoli.qubit_subspace_leakage", toffoli, "qubit_subspace_leakage", None),
    ("fock.lift_to_fock", fock, "lift_to_fock", _lift_sizes),
    ("fock.circuit_fock_operator", fock, "circuit_fock_operator", None),
    ("fock.single_photon_transfer", fock, "single_photon_transfer", None),
    ("fock.permanent_amplitude_oracle", fock, "permanent_amplitude_oracle", None),
    ("fock.logical_transfer", fock, "logical_transfer", None),
    ("optical.chain_diagonal", optical, "chain_diagonal", None),
    ("optical.solve_chain_reflectivities", optical, "solve_chain_reflectivities", None),
    ("optical.verify_chain_parameters", optical, "verify_chain_parameters", None),
    ("optical.gate", optical, "kerr_cs_gate", None),
    ("optical.gate", optical, "deterministic_ts_gate", None),
    ("optical.gate", optical, "heralded_ts_gate", None),
    ("optical.gate", optical, "postselected_cs_gate", None),
    ("optical.gate", optical, "chained_ts_gate", None),
    ("report.build_report", report, "build_report", None),
    ("cli.main", cli, "main", None),
)
METHODS = (
    ("fock.element_apply", fock.OpticalElement, "apply"),
    ("fock.element_apply", fock.PolarizingBeamsplitter, "apply"),
    ("fock.element_apply", fock.CrossKerr, "apply"),
    ("fock.FockBasis", fock.FockBasis, "__init__"),
)
# optical calls scipy through its `optimize` module binding.
SOLVER = (
    ("optical.solver.minimize", "minimize", _minimize_result),
    ("optical.solver.least_squares", "least_squares", _least_squares_result),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS] + [s[0] for s in SOLVER]))


class _Optimize:
    """Stands in for `scipy.optimize` on the optical module."""

    def __getattr__(self, name):
        return getattr(scipy_optimize, name)


class Tracer:
    """Spans of one run, and the wrappers that record them."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn, attrs=None):
        """`fn` recording one span per call; `attrs(args, kwargs, result)`
        adds attributes to the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            result = extra = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if attrs is not None and result is not None:
                    extra = attrs(args, kwargs, result)
                tracer.spans.append((sid, parent, tracer.op_id, name, start, end, extra))
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for name, module, attr, attrs in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, attrs)
            for mod in MODULES:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, wrapper)
        for name, cls, attr in METHODS:
            self._set(cls, attr, self.wrap(name, vars(cls)[attr]))
        proxy = _Optimize()
        for name, attr, attrs in SOLVER:
            setattr(proxy, attr, self.wrap(name, getattr(scipy_optimize, attr), attrs))
        self._set(optical, "optimize", proxy)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, parent, op, name, start, end, extra in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end, **(extra or {})}) + "\n")

    def layer_metrics(self, n_batches):
        """Per-layer metrics per traced batch, over `n_batches` batches.
        Attributes named `*_max` are maxima; the others are summed."""
        per = 1.0 / n_batches
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append(span)
        out = {f"{name}.{kind}": 0.0 for name in SPAN_NAMES for kind in ("calls", "self_s")}
        extras = defaultdict(float)
        useful = starts = 0
        for sid, _, _, name, start, end, attrs in self.spans:
            if name not in SPAN_NAMES:
                continue
            out[f"{name}.calls"] += per
            out[f"{name}.self_s"] += per * (end - start - _covered(start, end, children[sid]))
            for key, value in (attrs or {}).items():
                if key.endswith("_max"):
                    extras[f"{name}.{key}"] = max(extras[f"{name}.{key}"], value)
                elif key != "fun":
                    extras[f"{name}.{key}"] += per * value
            if name == "optical.solve_chain_reflectivities":
                funs = [c[6]["fun"] for c in children[sid]
                        if c[3] == "optical.solver.minimize" and c[6]]
                useful += sum(1 for f in funs if f - min(funs) <= USEFUL_START_TOL)
                starts += len(funs)
        for key in ("qudits.circuit_unitary.dim_max", "qudits.circuit_unitary.flops_computed",
                    "qudits.circuit_unitary.bytes_computed", "fock.lift_to_fock.basis_size_max",
                    "fock.lift_to_fock.entries_computed"):
            out[key] = extras[key]
        out["optical.solver.nfev"] = (extras["optical.solver.minimize.nfev"]
                                      + extras["optical.solver.least_squares.nfev"])
        out["optical.solver.useful_start_ratio"] = useful / starts if starts else 0.0
        return out


def _covered(start, end, kids):
    """Length of [start, end] covered by the union of the child spans."""
    total = 0.0
    reach = start
    for _, _, _, _, s, e, _ in sorted(kids, key=lambda k: k[4]):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total

