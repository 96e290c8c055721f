"""The hostile-value table: every public entry point that takes a count,
level, dimension, mode, angle, reflectivity or probability is fed a fixed
corpus in place of that one parameter.

Each call either raises a one-line `ValueError` (a subclass counts) from the
package's own code, or returns what the equal plain value returns.  A bool, a
numpy bool, a string, a `Decimal`, a NaN and an infinity are always refused;
so are the entry's own valid value written as a string and as a `Decimal`
and, for an integer parameter, as a float, and for a real one 10**400.
`np.int64(3)` and `Fraction(3)` give the plain 3's result.  An integer
parameter also refuses 2.5 and, unless the entry says otherwise, -1; a real
one may take either.  Huge counts are out of the corpus: refusing a request
too large for memory is a budget question, not a number check.

The entries are listed by hand, and a public function whose parameter name
marks one of those kinds must be among them or be listed with its reason."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable
from unittest import mock

import numpy as np
import pytest

import qudit_toffoli
from qudit_toffoli import fock, optical, qudits, toffoli
from qudit_toffoli.fock import Beamsplitter, FockBasis, ModeLayout

PACKAGE = Path(qudit_toffoli.__file__).parent
CORPUS = (True, np.bool_(1), 2.5, "3", math.nan, math.inf, -1, Fraction(3), Decimal(3), np.int64(3))
BEYOND_FLOAT_RANGE = 10 ** 400
EQUAL_TO_3 = (Fraction(3), np.int64(3))


@dataclass(frozen=True)
class Entry:
    key: str                  # "module.function:parameter"
    call: Callable            # the entry point with `value` in place of that parameter
    valid: object             # a plain value the parameter accepts
    integer: bool             # an integer kind (count, level, dimension, mode), else a real one
    negative_ok: bool = False  # an integer parameter that takes -1


def _int(key, call, valid=3, negative_ok=False) -> Entry:
    return Entry(key, call, valid, True, negative_ok)


def _real(key, call, valid) -> Entry:
    return Entry(key, call, valid, False)


class _StartPoints:
    """Stands in for `scipy.optimize` in the solver: each start's point is its
    own minimum and polish, so a solve costs a few objective calls, and how
    many starts ran still shows in the result."""

    @staticmethod
    def minimize(fun, x0, **_):
        return SimpleNamespace(x=x0, fun=fun(x0))

    @staticmethod
    def least_squares(fun, x0, **_):
        return SimpleNamespace(x=x0)


def _solve(n_starts):
    with mock.patch.object(optical, "optimize", _StartPoints):
        return optical.solve_chain_reflectivities(seed=5, n_starts=n_starts)


_SOLUTION = vars(optical.load_chain_solution())
_SPLITTER = (Beamsplitter(0.5, (0, 1)),)

ENTRIES = (
    _int("qudits.WireDims:dims", lambda v: qudits.WireDims((v, 2))),
    _int("qudits.GateMatrix.from_columns:wire_dims", lambda v: qudits.GateMatrix.from_columns((v,), [1, 0, 2], np.ones(3))),
    _int("qudits.GateMatrix.from_matrix:wire_dims", lambda v: qudits.GateMatrix.from_matrix((v,), np.eye(3))),
    _int("toffoli.gate_level_swap:j", lambda v: toffoli.gate_level_swap(v, 0, 4)),
    _int("toffoli.gate_level_swap:k", lambda v: toffoli.gate_level_swap(0, v, 4)),
    _int("toffoli.gate_level_swap:d", lambda v: toffoli.gate_level_swap(0, 1, v)),
    _int("toffoli.gate_xa:d", toffoli.gate_xa),
    _int("toffoli.gate_xb:d", toffoli.gate_xb, valid=4),
    _int("toffoli.gate_x_padded:d", toffoli.gate_x_padded),
    _int("toffoli.gate_h_padded:d", toffoli.gate_h_padded),
    _int("toffoli.gate_cs_embedded:dc", lambda v: toffoli.gate_cs_embedded(v, 3)),
    _int("toffoli.gate_cs_embedded:dt", lambda v: toffoli.gate_cs_embedded(2, v)),
    _int("toffoli.gate_cnot_embedded:dc", lambda v: toffoli.gate_cnot_embedded(v, 3)),
    _int("toffoli.gate_cnot_embedded:dt", lambda v: toffoli.gate_cnot_embedded(2, v)),
    _int("toffoli.standard_gate_builder:wire_dims", lambda v: toffoli.standard_gate_builder("xa", (), (v,))),
    _int("toffoli.build_n_ts_circuit:n", toffoli.build_n_ts_circuit),
    _int("toffoli.oracle_n_toffoli_sign:n", lambda v: toffoli.oracle_n_toffoli_sign(v, (1, 1, 1, 1))),
    _int("toffoli.verify_decomposition:n", lambda v: toffoli.verify_decomposition(
        toffoli.build_n_ts_circuit(3), toffoli.oracle_n_toffoli_sign(3, (1, 1, 1, 1)), v)),
    # formulas in n, defined for every integer; the commands refuse n < 2 first
    _int("toffoli.verification_gib:n", toffoli.verification_gib, negative_ok=True),
    _int("toffoli.expected_flipped_component:n", toffoli.expected_flipped_component, negative_ok=True),
    _int("fock.FockBasis:m", lambda v: FockBasis(v, 2)),
    _int("fock.FockBasis:n_photons", lambda v: FockBasis(2, v)),
    _int("fock.FockBasis.index_of:occupation", lambda v: FockBasis(2, 3).index_of((v, 0))),
    _real("fock.Beamsplitter:eta", lambda v: Beamsplitter(v, (0, 1)), 0.5),
    _int("fock.Beamsplitter:modes", lambda v: Beamsplitter(0.5, (0, v))),
    _real("fock.VacuumAttenuator:eta", lambda v: fock.VacuumAttenuator(v, 0, 1), 0.5),
    _int("fock.VacuumAttenuator:mode", lambda v: fock.VacuumAttenuator(0.5, v, 0)),
    _int("fock.VacuumAttenuator:ancilla", lambda v: fock.VacuumAttenuator(0.5, 0, v)),
    _real("fock.HalfWavePlate:theta", lambda v: fock.HalfWavePlate(v, (0, 1)), 0.3),
    _int("fock.HalfWavePlate:modes", lambda v: fock.HalfWavePlate(0.3, (0, v))),
    _int("fock.PolarizingBeamsplitter:path1", lambda v: fock.PolarizingBeamsplitter((v, 1), (2, 0))),
    _int("fock.PolarizingBeamsplitter:path2", lambda v: fock.PolarizingBeamsplitter((0, 1), (2, v))),
    _real("fock.CrossKerr:chi", lambda v: fock.CrossKerr(v, (0, 1)), math.pi),
    _int("fock.CrossKerr:modes", lambda v: fock.CrossKerr(math.pi, (0, v))),
    _int("fock.single_photon_transfer:m", lambda v: fock.single_photon_transfer(_SPLITTER, v)),
    _int("fock.logical_transfer:m", lambda v: fock.logical_transfer(_SPLITTER, v, ModeLayout(((0, 1),)))),
    _int("fock.permanent_amplitude_oracle:in_occupation",
         lambda v: fock.permanent_amplitude_oracle(np.eye(2), (v, 0), (3, 0))),
    _int("fock.permanent_amplitude_oracle:out_occupation",
         lambda v: fock.permanent_amplitude_oracle(np.eye(2), (3, 0), (v, 0))),
    _int("fock.ModeLayout:groups", lambda v: ModeLayout(((0, v),))),
    _real("optical.kerr_cs_gate:chi", optical.kerr_cs_gate, math.pi),
    _real("optical.heralded_ts_gate:cs_success", optical.heralded_ts_gate, Fraction(1, 4)),
    _int("optical.solve_chain_reflectivities:n_starts", _solve),
) + tuple(
    _real(f"optical.ChainParameters:{name}",
          lambda v, name=name: optical.ChainParameters(**dict(_SOLUTION, **{name: v})), valid)
    for name, valid in _SOLUTION.items()
)

# parameters whose names mark a kind, but which are not entry points for an outside value
NOT_ENTRY_POINTS = {
    "qudits.GateMatrix:wire_dims": "takes a table built for these dims; from_columns and from_matrix check them",
    "qudits.ColumnTable.from_rows:wire_dims": "builds the table of dims that from_columns or from_matrix checked",
    "optical.GateRealization:m": "a verdict record, filled by `_realize` from a checked construction",
    "optical.GateRealization:cs_success": "a verdict record, filled by `_realize` from a checked cs_success",
    "toffoli.DecompositionReport:n": "a report record, filled by `verify_decomposition` from its checked n",
}

# parameter names that mark a count, level, dimension, mode, angle, reflectivity or probability
_MARKED = re.compile(r"n|m|n_\w+|j|k|d|dc|dt|(wire_)?dims|modes?|ancilla|path\d|groups|(\w+_)?occupation"
                     r"|theta|chi|eta|splitter_\w+|recombiner_\w+|atten_\w+|cs_success")


def _fingerprint(value):
    """A comparable image of a result: arrays by dtype, shape and entries,
    dataclasses field by field, and every other leaf by its type and repr, so
    that a numpy integer left in a result shows."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tolist()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(_fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, FockBasis):
        return value.m, value.n_photons, value.states
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(map(_fingerprint, value))
    if isinstance(value, dict):
        return tuple((k, _fingerprint(v)) for k, v in value.items())
    return type(value).__name__, repr(value)


def _outcome(call, value):
    """("raised", type, message) for a one-line ValueError raised in the
    package, ("returned", fingerprint) for a result; anything else fails."""
    try:
        result = call(value)
    except ValueError as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        origin = Path(tb.tb_frame.f_code.co_filename)
        assert PACKAGE in origin.parents, f"{value!r}: {type(exc).__name__} from {origin.name}: {exc}"
        assert "\n" not in str(exc), f"{value!r}: a message of several lines"
        return "raised", type(exc), str(exc)
    return "returned", _fingerprint(result)


def _extras(entry: Entry) -> tuple:
    """The entry's valid value as a string and a Decimal, and as a float for
    an integer parameter, or 10**400 for a real one."""
    return (str(entry.valid), Decimal(float(entry.valid)),
            float(entry.valid) if entry.integer else BEYOND_FLOAT_RANGE)


def _must_refuse(entry: Entry, value) -> bool:
    """Whether no parameter of the entry's kind may accept `value`."""
    if isinstance(value, (bool, np.bool_, str, Decimal)) or value is BEYOND_FLOAT_RANGE:
        return True
    if isinstance(value, float):
        return entry.integer or not math.isfinite(value)
    return entry.integer and not entry.negative_ok and value == -1


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.key)
def test_a_hostile_value_is_refused_in_one_line_or_read_as_its_plain_equal(entry):
    assert _outcome(entry.call, entry.valid)[0] == "returned", f"{entry.key} refuses its valid value"
    plain = _outcome(entry.call, 3)
    failures = []
    for value in CORPUS + _extras(entry):
        try:
            got = _outcome(entry.call, value)
        except Exception as exc:  # noqa: BLE001 - any other exception, or a failed check of the error, is reported
            failures.append(f"{value!r}: {type(exc).__name__}: {exc}".splitlines()[0])
            continue
        if _must_refuse(entry, value) and got[0] != "raised":
            failures.append(f"{value!r} accepted")
        elif any(value is equal for equal in EQUAL_TO_3) and got != plain:
            failures.append(f"{value!r} gave {got[:2]}, plain 3 gave {plain[:2]}")
    assert not failures, f"{entry.key}: " + "; ".join(failures)


def _marked_parameters() -> set[str]:
    """`module.qualname:parameter` of every parameter of a public `src/`
    function, class or method whose name marks a kind; a parameter that takes
    a `WireDims` takes a checked value, and is skipped."""
    marked = set()
    for info in pkgutil.iter_modules(qudit_toffoli.__path__):
        module = importlib.import_module(f"qudit_toffoli.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            targets = [(name, obj)]
            if inspect.isclass(obj):
                targets += [(f"{name}.{attr}", getattr(member, "__func__", member))
                            for attr, member in vars(obj).items()
                            if not attr.startswith("_") and inspect.isfunction(getattr(member, "__func__", member))]
            for qualname, target in targets:
                try:
                    parameters = inspect.signature(target).parameters.values()
                except ValueError:      # a builtin exception class
                    continue
                marked |= {f"{info.name}.{qualname}:{p.name}" for p in parameters
                           if _MARKED.fullmatch(p.name) and p.annotation != "WireDims"}
    return marked


def test_every_marked_parameter_is_in_the_table_or_listed():
    listed = {entry.key for entry in ENTRIES} | set(NOT_ENTRY_POINTS)
    missing = sorted(_marked_parameters() - listed)
    assert not missing, f"not in the hostile-value table: {', '.join(missing)}"
    stale = sorted(listed - _marked_parameters())
    assert not stale, f"in the table but not a marked parameter of a public function: {', '.join(stale)}"
