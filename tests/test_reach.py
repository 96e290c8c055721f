"""The reachability ledger: every function and method defined in `src/` is
reached by a command, or is listed in `UNREACHED` with its reason.

The commands are the 18 of `tests/golden/`, in both formats, plus one
one-start `chained` solve; their package calls are recorded with
`package_calls`.  They run here rather than inside the golden test, and the
memoized parser and transfer plans are cleared first, so that the ledger does
not depend on which tests ran before it.  A function is keyed by its
qualified name, so a method that a subclass rebinds is one entry, a memoized
function is its wrapped one, and dataclass-generated methods (whose code is
not in `src/`) are skipped.  A new unreached function fails the test, naming it; so does a
stale entry, one that a command now reaches or that no longer exists, so
the table only shrinks."""

import contextlib
import importlib
import inspect
import io
import pkgutil

import qudit_toffoli
from qudit_toffoli.cli import build_parser, main
from qudit_toffoli.fock import _transfer_plan
from reference import package_calls
from test_golden import COMMANDS

_SECOND_QUANTIZED = "the second-quantized reference, the independent check of logical_transfer; moves with item 2"
_DENSE = "the dense register product, the independent check of verify_decomposition; moves with item 2"
_NO_H = "no command circuit has an `h` until item 6"

UNREACHED = {
    "fock.FockBasis.__init__": "the second-quantized reference's basis; moves with item 2",
    "fock.FockBasis.size": "the second-quantized reference's basis; moves with item 2",
    "fock.FockBasis.index_of": "the second-quantized reference's basis; moves with item 2",
    "fock._enumerate_occupations": "the second-quantized reference's basis; moves with item 2",
    "fock.OpticalElement.apply": _SECOND_QUANTIZED,
    "fock.CrossKerr.apply": _SECOND_QUANTIZED,
    "fock._expand_creation_product": _SECOND_QUANTIZED,
    "fock.lift_to_fock": _SECOND_QUANTIZED,
    "fock.circuit_fock_operator": _SECOND_QUANTIZED,
    "fock.permanent": "the independent check of the lift; moves with item 2",
    "fock.permanent_amplitude_oracle": "the independent check of the lift; moves with item 2",
    "optical.chained_ts_gate": "the independent check of the chain block; moves with item 2",
    "qudits.parse_circuit": "item 6 gives it a command (`verify-toffoli --circuit FILE`)",
    "qudits.CircuitParseError.__init__": "item 6 gives it a command (`verify-toffoli --circuit FILE`)",
    "qudits.GateMatrix.from_matrix": f"reads a dense unitary's table: {_NO_H}",
    "qudits.ColumnTable.defect": f"the Gram check of a table that is not monomial: {_NO_H}",
    "qudits.GateMatrix.matrix": f"read by the dense kernel only: {_DENSE}",
    "qudits.ColumnTable.scatter": f"the dense kernel's matrix and an `h` table's check: {_DENSE}",
    "qudits.GateMatrix.dim": f"read by the dense kernel only: {_DENSE}",
    "qudits._apply_to_block": _DENSE,
    "qudits.circuit_unitary": _DENSE,
    "qudits.embed_gate": _DENSE,
    "toffoli._split": f"the split step: {_NO_H}",
    "toffoli.gate_h_padded": _NO_H,
    "toffoli.max_target_level_used": "only the benchmark tracer names it; item 2 deletes it after item 3",
    "toffoli.qubit_subspace_indices": "the dense leakage reference's index set; moves with item 2",
    "toffoli.qubit_subspace_leakage": "the dense leakage reference; moves with item 2",
}


def _defined() -> set[str]:
    """`module.qualname` of every function and method whose code is in `src/`."""
    names = set()
    for info in pkgutil.iter_modules(qudit_toffoli.__path__):
        module = importlib.import_module(f"qudit_toffoli.{info.name}")

        def add(obj):
            obj = getattr(obj, "__func__", obj)   # classmethod, staticmethod
            obj = getattr(obj, "__wrapped__", obj)  # functools.cache, lru_cache
            obj = getattr(obj, "func", obj)       # cached_property
            if isinstance(obj, property):
                for accessor in (obj.fget, obj.fset, obj.fdel):
                    add(accessor)
                return
            code = getattr(obj, "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                names.add(f"{info.name}.{code.co_qualname}")

        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) and obj.__module__ == module.__name__ else (obj,)
            for member in members:
                add(member)
    return names


def _reached() -> set[str]:
    argvs = [["--format", fmt] + command for command in COMMANDS.values() for fmt in ("json", "text")]
    argvs.append(["simulate-optical", "chained", "--starts", "1"])
    build_parser.cache_clear()  # so that the parser is built, and its type checks made, while recording
    _transfer_plan.cache_clear()  # so that each element list's blocks are read while recording
    reached = set()
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            reached |= package_calls(main, (argv,))
    return reached


def test_every_src_function_is_reached_by_a_command_or_listed():
    unreached = _defined() - _reached()
    new = sorted(unreached - set(UNREACHED))
    assert not new, f"no command reaches {', '.join(new)}: delete it, or list it with its reason"
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"listed as unreached but reached or gone: {', '.join(stale)}"
