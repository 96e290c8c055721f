"""Benchmark driver for qudit-toffoli.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) as a closed loop with one caller in
this process: batches of seeded inputs, one operation after another, until
the next batch would end past `--seconds`.  A run holds at least one batch;
with `--trace 1`, a warm-up batch and then at least one untraced and one
traced batch, alternating.  Each operation's output is checked; an
exception or a wrong answer is a failure, and any failure makes the exit
code 1.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
BENCHMARK.json's end-to-end metrics, with `--trace 1` its per-layer ones.
The inputs, per-operation times, provenance and (traced) spans go to
`.bench_out/`.  `--workload all` runs every workload, each in a fresh
process, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
TAIL_BEYOND = 10          # samples beyond the reported tail percentile
PROBE_TIMEOUT_S = 60
MAX_FAILURES_SHOWN = 10


def _cap_blas_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _import_package():
    """Import the package from this checkout's src/ and warm up BLAS."""
    sys.path.insert(0, str(SRC))
    try:
        import qudit_toffoli
    except ImportError as exc:
        sys.exit(f"error: cannot import qudit_toffoli from {SRC}: {exc}")
    if Path(qudit_toffoli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported qudit_toffoli from {qudit_toffoli.__file__}, not {SRC}")
    import numpy as np
    a = np.random.default_rng(0).standard_normal((64, 64)) * (1 + 1j)
    np.linalg.qr(a @ a)


def _setup_seconds():
    """Median over fresh processes of the time from spawn to ready:
    interpreter start, importing the package and the BLAS warm-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, __file__, "--setup-probe", repr(time.monotonic())]
        try:
            probe = subprocess.run(cmd, capture_output=True, text=True,
                                   timeout=PROBE_TIMEOUT_S, check=True)
        except (subprocess.SubprocessError, OSError) as exc:
            sys.exit(f"error: set-up probe failed: {exc}")
        samples.append(float(probe.stdout))
    return statistics.median(samples), samples


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(nproc, seed, workload, seconds):
    import numpy as np
    import scipy
    from workloads import WORKLOADS
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
        "workload": workload,
        "sizes": {k: v for k, v in vars(WORKLOADS[workload]).items() if k.isupper()},
        "seconds": seconds,
    }


def _tail(times):
    """The highest percentile with at least TAIL_BEYOND samples above it,
    as (value, percentile, samples); None below 2 * TAIL_BEYOND samples."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _batch_kinds(traced):
    """Untraced runs: plain batches.  Traced runs: one warm-up batch, so that
    neither side of the overhead pays for the cold start, then plain and
    traced batches alternating."""
    if traced:
        yield "warmup"
    while True:
        yield "plain"
        if traced:
            yield "traced"


def measure(name, seed, seconds, traced):
    """Run the closed loop; returns the per-batch records and the tracer."""
    import numpy as np
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    rng = np.random.default_rng(seed)
    tracer = tracing.Tracer() if traced else None
    needed = {"plain", "traced"} if traced else {"plain"}
    batches = []
    start = time.perf_counter()
    op_id = 0
    for kind in _batch_kinds(traced):
        items = workload.batch(rng)
        run = workload.run
        if kind == "traced":
            tracer.install()
            run = tracer.wrap("bench.op", run)
        times, failures = [], []
        t0 = time.perf_counter()
        try:
            for item in items:
                if tracer:
                    tracer.op_id = op_id
                op_id += 1
                try:
                    t = time.perf_counter()
                    try:
                        out = run(item)
                    finally:
                        times.append(time.perf_counter() - t)
                    workload.check(item, out)
                except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
                    failures.append({"input": item, "error": f"{type(exc).__name__}: {exc}"})
            wall = time.perf_counter() - t0
        finally:
            if kind == "traced":
                tracer.uninstall()
        batches.append({"kind": kind, "wall_s": wall, "op_s": times,
                        "failures": failures, "inputs": items})
        done = needed <= {b["kind"] for b in batches}
        if done and time.perf_counter() - start + wall > seconds:
            return batches, tracer


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def _select(values, listed):
    """The listed metrics, in BENCHMARK.json's order and units."""
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        sys.exit(f"error: no value measured for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def run_one(args, nproc, main_setup_s):
    end_to_end, per_layer = _spec()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    setup_s, setup_samples = (None, []) if args.trace else _setup_seconds()
    batches, tracer = measure(args.workload, args.seed, args.seconds, args.trace)

    plain = [b for b in batches if b["kind"] == "plain"]
    ops = [t for b in plain for t in b["op_s"]]
    attempted = sum(len(b["inputs"]) for b in batches)
    failed = sum(len(b["failures"]) for b in batches)
    wall_s = statistics.median(b["wall_s"] for b in plain)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_p50_ms": 1e3 * statistics.median(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": failed / attempted,
    }
    tail = _tail(ops)
    if tail:
        values["op_tail_ms"] = 1e3 * tail[0]

    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    if args.trace:
        traced = [b for b in batches if b["kind"] == "traced"]
        values.update(tracer.layer_metrics(len(traced)))
        values["trace.overhead_s"] = statistics.median(b["wall_s"] for b in traced) - wall_s
        tracer.write(out_dir / f"{stem}-spans.jsonl.gz")
        metrics = _select(values, per_layer)
    else:
        metrics = _select(values, end_to_end)

    summary = [f"{args.workload} seed {args.seed}: {len(batches)} batches, "
               f"{attempted} operations, {failed} failed"]
    units = {"op_p50_ms": "ms", "op_tail_ms": "ms", "failed_ratio": "1", **{m["name"]: m["unit"] for m in end_to_end}}
    for name in ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "failed_ratio"):
        if values.get(name) is None:
            continue
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{tail[1]:.1f} of {tail[2]} operations)"
        elif name == "failed_ratio":
            note = f"  ({failed}/{attempted})"
        summary.append(f"  {name:<13} {values[name]:12.4f} {units[name]}{note}")
    failures = [f for b in batches for f in b["failures"]]
    summary += [f"  FAILED {f['input']}: {f['error']}" for f in failures[:MAX_FAILURES_SHOWN]]
    print("\n".join(summary))

    record = {
        "provenance": _provenance(nproc, args.seed, args.workload, args.seconds),
        "main_setup_s": main_setup_s,
        "setup_samples_s": setup_samples,
        "values": values,
        "tail": tail and {"percentile": tail[1], "samples": tail[2]},
        "batches": batches,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args, names):
    """Each workload in a fresh process; one table of every result."""
    results, code = {}, 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode in (0, 1) else proc.stderr.strip())
        if proc.returncode != 0:
            code = 1
        if proc.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def main(argv=None):
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="SPAWN_TIME", type=float,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = _cap_blas_threads()
    _import_package()
    if args.setup_probe is not None:
        print(time.monotonic() - args.setup_probe)
        return 0
    main_setup_s = time.perf_counter() - t_start
    os.chdir(ROOT)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    return run_one(args, nproc, main_setup_s)


if __name__ == "__main__":
    sys.exit(main())
