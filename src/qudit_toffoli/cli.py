"""Batch driver: decomposition checks, optical simulations, the
chained-interferometer solve, and the comparison report.

Exit codes: 0 every check passed, 1 a verification failed, 2 usage error.

`optical` and `report` (and with them scipy) are imported inside the
commands that use them, so `verify-toffoli` loads numpy only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .toffoli import (
    build_n_ts_circuit,
    expected_flipped_component,
    oracle_n_toffoli_sign,
    verification_gib,
    verify_decomposition,
)

PASS, FAIL, USAGE = 0, 1, 2
PARAMS_FILE_LIMIT = 64 * 1024   # bytes read of a params file at most; the committed one is about 330


class UsageError(Exception):
    """Bad input found after argument parsing; `main` reports it in one line, exit 2."""


def _emit(text: str, args) -> None:
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _format_fraction(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return f"{float(value):.9f}"


def _read_chain_params(path: str):
    from .optical import ChainParameters

    try:
        with open(path, "rb") as fh:
            raw = fh.read(PARAMS_FILE_LIMIT + 1)
        if len(raw) > PARAMS_FILE_LIMIT:
            raise ValueError(f"longer than {PARAMS_FILE_LIMIT} bytes")
        return ChainParameters.from_json(raw.decode())
    except (TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"{path!r}: {exc}") from None


def cmd_verify_toffoli(args) -> int:
    need = verification_gib(args.n)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    if need > have:
        raise UsageError(f"--n {args.n} needs about {need:.3g} GiB to verify, "
                         f"more than the {have:.3g} GiB of physical memory")
    circuit = build_n_ts_circuit(args.n)
    oracle = oracle_n_toffoli_sign(args.n, expected_flipped_component(args.n))
    report = verify_decomposition(circuit, oracle, args.n)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2), args)
    else:
        _emit(report.to_text(), args)
    return PASS if report.passed else FAIL


def _summary_text(summary: dict) -> str:
    shown = dict(summary, flipped_component=f"|{','.join(map(str, summary['flipped_component']))}>")
    return "\n".join(f"{key.replace('_', ' ') + ':':27s}{value}" for key, value in shown.items())


def cmd_simulate_optical(args) -> int:
    from .optical import (
        heralded_ts_gate,
        kerr_cs_gate,
        naive_postselected_chain_probability,
        postselected_cs_gate,
        solve_chain_reflectivities,
        verify_chain_parameters,
    )

    if args.which == "kerr":
        realization, extras = kerr_cs_gate(), {}
    elif args.which == "heralded":
        realization = heralded_ts_gate(cs_success=args.cs_success)
        extras = {"cs_success": _format_fraction(realization.cs_success),
                  "filter_success": _format_fraction(realization.filter_success)}
    elif args.which == "postselected-cs":
        realization = postselected_cs_gate()
        naive = naive_postselected_chain_probability(realization, heralded_ts_gate())
        extras = {"coincidence_probabilities": [float(p) for p in realization.coincidence_probabilities()],
                  "naive_chain_total": _format_fraction(naive)}
    else:  # "chained"; argparse restricts the choices
        if args.params_file is not None:
            params = _read_chain_params(args.params_file)
            realization, solved = verify_chain_parameters(params), False
        else:
            result = solve_chain_reflectivities(seed=args.seed, n_starts=args.starts)
            params, realization, solved = result.params, result.verification, True
        extras = {"solved_here": solved, "parameters": vars(params)}
    summary = {
        "construction": realization.name,
        "success_probability": _format_fraction(realization.success_probability),
        "success_probability_float": float(realization.success_probability),
        "flipped_component": list(realization.flipped_component),
        "residual": realization.residual,
        "certified": realization.certified,
        **extras,
    }
    _emit(json.dumps(summary, indent=2) if args.format == "json" else _summary_text(summary), args)
    return PASS if realization.certified else FAIL


def cmd_report_all(args) -> int:
    from .report import build_report

    params = None
    if args.params_file is not None:
        params = _read_chain_params(args.params_file)
    report = build_report(chain_params=params)
    _emit(json.dumps(report.to_dict(), indent=2) if args.format == "json"
          else report.to_text(), args)
    return PASS if report.all_ok else FAIL


def _int_at_least(lowest: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value
    return parse


def _path(text: str) -> str:
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"a path cannot hold a NUL byte, got {text!r}")
    return text


def _probability(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction such as 1/4, got {text!r}") from None
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; `parse_args` keeps no state in it
    between calls, so every `main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="qudit-toffoli",
        description="Verify qudit-assisted Toffoli constructions and their optical realizations.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", type=_path, help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_toffoli = sub.add_parser("verify-toffoli", help="check the n-control construction")
    p_toffoli.add_argument("--n", type=_int_at_least(2), required=True,
                           help="number of controls (>= 2)")
    p_toffoli.set_defaults(func=cmd_verify_toffoli)

    p_optical = sub.add_parser("simulate-optical", help="simulate one optical construction")
    p_optical.add_argument("which", choices=("kerr", "heralded", "postselected-cs", "chained"))
    p_optical.add_argument("--cs-success", type=_probability, default="1/4",
                           help="heralded C-S success probability as a fraction (default 1/4)")
    p_optical.add_argument("--params-file", type=_path,
                           help="verify this reflectivity file instead of solving")
    p_optical.add_argument("--seed", type=_int_at_least(0), default=20070, help="solver multistart seed")
    p_optical.add_argument("--starts", type=_int_at_least(1), default=16, help="solver restarts")
    p_optical.set_defaults(func=cmd_simulate_optical)

    p_report = sub.add_parser("report-all", help="full comparison table")
    p_report.add_argument("--params-file", type=_path, help="reflectivity file for the chained gate "
                          "(default: the committed solution)")
    p_report.set_defaults(func=cmd_report_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:     # as `parse_args` does, but with each argument quoted, so a newline stays on one line
        parser.error(f"unrecognized arguments: {' '.join(map(repr, unknown))}")
    try:
        return args.func(args)
    except (OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
