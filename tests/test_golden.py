"""Golden command outputs: the JSON and text of 18 commands, held byte for
byte to the files under `tests/golden/`.

A change that alters an output regenerates its file as an explicit act and
says why; nothing here rewrites a golden file."""

import re
from pathlib import Path

import pytest

from qudit_toffoli import optical
from qudit_toffoli.cli import main
from qudit_toffoli.optical import EXACT_TOL

GOLDEN = Path(__file__).resolve().parent / "golden"
SOLUTION = str(Path(optical.__file__).resolve().parent / "data" / optical.SOLUTION_RESOURCE)

COMMANDS = {
    "report-all": ["report-all"],
    "kerr": ["simulate-optical", "kerr"],
    "heralded-1_4": ["simulate-optical", "heralded", "--cs-success", "1/4"],
    "heralded-1_9": ["simulate-optical", "heralded", "--cs-success", "1/9"],
    "heralded-3_7": ["simulate-optical", "heralded", "--cs-success", "3/7"],
    "postselected-cs": ["simulate-optical", "postselected-cs"],
    "chained": ["simulate-optical", "chained", "--params-file", SOLUTION],
    **{f"verify-toffoli-n{n}": ["verify-toffoli", "--n", str(n)] for n in range(2, 13)},
}

# a `residual` value: the JSON field and the text summary's line
_RESIDUAL = re.compile(r'^( *"residual": |residual: +)(\S+?)(,?)$', re.MULTILINE)


def _mask_residuals(text: str) -> tuple[str, list[float]]:
    """`text` with each residual value replaced by a marker, and the values."""
    values = []

    def mask(match):
        values.append(float(match.group(2)))
        return f"{match.group(1)}<residual>{match.group(3)}"

    return _RESIDUAL.sub(mask, text), values


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_output_matches_its_golden_file(name, fmt, ext, capsys):
    """The command exits 0 and its output equals the golden file byte for
    byte, except each `residual` value: that is the one float at rounding
    level (2.2e-16 or 2.8e-17), so it is compared as "<= EXACT_TOL" rather
    than to the golden digits."""
    assert main(["--format", fmt] + COMMANDS[name]) == 0
    got, residuals = _mask_residuals(capsys.readouterr().out)
    want, _ = _mask_residuals((GOLDEN / f"{name}.{ext}").read_text())
    assert got == want
    assert all(value <= EXACT_TOL for value in residuals), residuals
