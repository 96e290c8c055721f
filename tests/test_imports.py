"""Import layering: the register layers, the Fock engine and the command
line load numpy only, and scipy loads with `optical` alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qudit_toffoli

SRC = Path(qudit_toffoli.__file__).resolve().parent.parent


@pytest.mark.parametrize("module, absent", [
    ("qudit_toffoli", "scipy"),
    ("qudit_toffoli.qudits", "scipy"),
    ("qudit_toffoli.toffoli", "scipy"),
    ("qudit_toffoli.cli", "scipy"),
    ("qudit_toffoli.fock", "scipy"),
])
def test_module_imports_without(module, absent):
    code = (f"import sys, {module}\n"
            f"print(sorted(m for m in sys.modules if m == {absent!r} or m.startswith({absent!r} + '.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
