"""Import layering: the register layers, the Fock engine and the command
line load numpy only, and scipy loads with `optical` alone.  The benchmark's
tracer finds every package name it wraps."""

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


def test_the_benchmark_tracer_installs_on_the_package():
    # perfbench/run.py imports the tracer in every run, which reads the Fock
    # element classes; `--trace 1` installs it, which reads every function and
    # method it wraps by name
    code = "import tracing\ntracer = tracing.Tracer()\ntracer.install()\ntracer.uninstall()\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent / "perfbench"), str(SRC)]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
