"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py --workloads verify-sweep,cli-batch --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-10 --write perfbench/baseline.json

Runs `run.py` once per (workload, seed), one run at a time, and reports for
each end-to-end metric the median of its values and the distance between
their first and third quartiles (`statistics.quantiles(values, n=4)`) as a
share of the median, next to the metric's bound in BENCHMARK.json.  The
printed but ungated timings (`op_p50_ms`, `op_tail_ms`) are read from each
run's record in `.bench_out/` and reported the same way, without a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNGATED = ("op_p50_ms", "op_tail_ms")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", help="write medians, quartiles and values to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in [*bounds, *UNGATED]}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            record = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
            measured = json.loads(record.read_text())["values"]
            for name in UNGATED:
                if measured.get(name) is not None:
                    values[name].append(measured[name])
        table[workload] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            table[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "values": vals}
            if name in bounds and name != "setup_s":
                worst = max(worst, spread / bounds[name])
            bound = f"bound {bounds[name]:.2f}" if name in bounds else "not gated"
            print(f"{workload:13} {name:12} median {median:12.4f}  spread {spread:6.3f}  {bound}",
                  flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if args.write:
        Path(args.write).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds, "metrics": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
