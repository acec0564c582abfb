"""Closed-loop benchmark of the scatdecay command line.

    python3 bench/run.py                    # every workload, each in its own child process
    python3 bench/run.py --trace 1          # the same, traced: per-layer breakdown
    python3 bench/run.py --workload certify --seed 3 --seconds 20 --trace 0

One client sends the next operation only when the previous one has
returned.  Each operation is one in-process call of
``scatdecay.cli.main(argv)`` on bank, model and signal files generated from
``--seed``; the clock runs only inside that call.  Every output is checked
(see check.py).  Operations come in fixed-shape cycles (see workloads.py).
A run holds a whole number of cycles fixed by ``--seconds`` alone, one per
CYCLE_SECONDS, whatever the host's speed, so every run of a workload holds
the same operations.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with ``--trace 1`` the run plays its
cycles untraced and then replays them with spans around every public
scatdecay function (see spans.py), and the metrics are per layer.
"""
from __future__ import annotations

import os

# One process and no extra threads: numpy's BLAS and OpenMP pools get one
# thread unless the caller set them.  This has to happen before numpy loads.
for _pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_pool, "1")

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from check import check, self_check
from spans import Tracer, kind_table, summarize, unit
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Nominal length of one cycle on the machine in README.md.  It only converts
# --seconds into a cycle count; the clock never decides when a run stops.
CYCLE_SECONDS = 20
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
                    "latency_tail_s": "s", "peak_rss_mb": "MB"}


def import_scatdecay():
    """(Re-)import scatdecay from this checkout's src/ and return its cli module.

    Dropping the package from ``sys.modules`` first makes every set-up pay
    for module-level work, so work moved to import time shows in setup_s.
    """
    for name in [m for m in sys.modules if m == "scatdecay" or m.startswith("scatdecay.")]:
        del sys.modules[name]
    import scatdecay.cli

    where = Path(scatdecay.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"bench: scatdecay was imported from {where}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return scatdecay.cli


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        # unset for the run so the default single worker is measured
        "SCATTER_THREADS": os.environ.pop("SCATTER_THREADS", None),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "measured": "SCATTER_THREADS unset (one worker); the SCATTER_THREADS>1 path is not measured",
    }


# ---------------------------------------------------------------------------
# One operation.


@dataclass(frozen=True)
class Result:
    kind: str
    seconds: float
    failure: str | None


def write_inputs(op, folder: Path) -> list[str]:
    """Write the operation's input files and return its argv."""
    folder.mkdir(parents=True, exist_ok=True)
    argv = list(op.words)
    (folder / "bank.json").write_text(json.dumps(op.bank))
    argv += ["--bank", str(folder / "bank.json")]
    if op.model is not None:
        (folder / "model.json").write_text(json.dumps(op.model))
        argv += ["--model", str(folder / "model.json")]
    if op.signal is not None:
        (folder / "signal.csv").write_text("".join(f"{v!r}\n" for v in op.signal.tolist()))
        argv += ["--signal", str(folder / "signal.csv")]
    return argv


def call(main, argv: list[str]) -> tuple[int, str, float]:
    """Run ``main(argv)`` with its output captured; return (exit code, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    return code, err.getvalue(), seconds


def run_op(cli, op, work: Path) -> Result:
    out = work / "out"
    argv = write_inputs(op, work / "in") + ["--out", str(out)]
    code, stderr, seconds = call(cli.main, argv)
    failure = check(op, code, stderr, str(out))
    shutil.rmtree(out, ignore_errors=True)
    return Result(op.kind, seconds, failure)


def cycle_count(seconds: int) -> int:
    """Whole cycles in a run of ``seconds`` nominal seconds, at least one."""
    return max(1, round(seconds / CYCLE_SECONDS))


def run_cycles(cli, cycles: list, work: Path, on_op=None) -> list[Result]:
    results = []
    for op in (op for cycle in cycles for op in cycle):
        if on_op is not None:
            on_op(len(results))
        results.append(run_op(cli, op, work))
    return results


# ---------------------------------------------------------------------------
# Set-up, measurement and report for one workload.


def setup(name: str, seed: int, n_cycles: int, work: Path):
    """Import, generate the warm-up and every cycle's operations, run each warm-up once.

    Returns (seconds, cli module, cycles, warm-up calls as self_check takes them).
    """
    start = time.perf_counter()
    cli = import_scatdecay()
    make_cycles, make_warmups = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    warmups = make_warmups(rng)
    cycles = list(islice(make_cycles(rng), n_cycles))
    warm = []
    for i, op in enumerate(warmups):
        out = work / f"warmup{i}"
        shutil.rmtree(out, ignore_errors=True)
        code, stderr, _ = call(cli.main, write_inputs(op, work / "in") + ["--out", str(out)])
        warm.append((op, code, stderr, str(out)))
    return time.perf_counter() - start, cli, cycles, warm


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  Runs of fewer than 11
    operations have no such percentile and report their fastest operation.
    """
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, cli, cycles, warm = setup(name, seed, cycle_count(seconds), work)
            setups.append(elapsed)
        problems = [p for w in warm for p in self_check(*w, scratch=str(work / "corrupt"))]
        for problem in problems:
            print(f"self-check FAILED: {problem}")
        if not problems:
            print("self-check: every corrupted output was rejected")
        if traced:
            return traced_run(cli, cycles, work, problems)
        results = run_cycles(cli, cycles, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    latencies = [r.seconds for r in results]
    failed = report_failures(results)
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {name}, seed {seed}: {len(results)} operations in {len(cycles)} cycles, "
          f"{failed} failed")
    print(f"  setup_s        {metrics['setup_s']:.4f} s   (median of {SETUP_REPEATS}: "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"  ops_per_s      {metrics['ops_per_s']:.4f} 1/s")
    print(f"  latency_p50_s  {metrics['latency_p50_s']:.4f} s")
    print(f"  latency_tail_s {tail:.4f} s   (p{pct:.1f} of {len(latencies)} samples, {beyond} beyond)")
    print(f"  fail_ratio     {failed / len(results):.4f}   ({failed} of {len(results)})")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def report_failures(results: list[Result]) -> int:
    failures = [r for r in results if r.failure is not None]
    for r in failures:
        print(f"FAILED {r.kind}: {r.failure}")
    return len(failures)


def traced_run(cli, cycles: list, work: Path, problems: list[str]) -> dict:
    """The cycles untraced, then the same operations again with spans."""
    untraced = run_cycles(cli, cycles, work)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cycles(cli, cycles, work, on_op=lambda i: setattr(tracer, "op", i))
    finally:
        tracer.uninstall()
    walls = {i: r.seconds for i, r in enumerate(traced)}
    metrics = summarize(tracer.spans, walls, {i: r.seconds for i, r in enumerate(untraced)})
    failed = report_failures(untraced + traced)

    print(f"traced {len(traced)} operations, {metrics['trace.spans']:.0f} spans per operation, "
          f"tracing overhead {100 * metrics['trace.overhead_ratio']:+.2f}% of untraced wall time")
    layers = [k for k in metrics if k.count(".") == 1 and k.endswith(".self_s")]
    parts = " + ".join(f"{k.split('.')[0]} {metrics[k]:.4f}" for k in layers)
    print(f"per operation: {parts} + remainder {metrics['trace.remainder_s']:.6f} "
          f"= {sum(metrics[k] for k in layers) + metrics['trace.remainder_s']:.4f} s; "
          f"traced wall {metrics['trace.wall_s']:.4f} s")
    for kind, row in kind_table(tracer.spans, [r.kind for r in traced], walls).items():
        print(f"  {kind:28s} " + "  ".join(f"{k}={v}" for k, v in row.items()))
    for name, value in metrics.items():
        print(f"  {name:52s} {value:.6g} {unit(name)}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Every workload, one child process each.


def run_all(seed: int, seconds: int, trace: int) -> int:
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited with {child.returncode}")
            return 1
        summary[name] = json.loads(lines[-1])
    if not trace:
        print(f"\n{'metric':16s} " + " ".join(f"{name:>14s}" for name in summary))
        for metric, unit in END_TO_END_UNITS.items():
            cells = " ".join(f"{summary[n]['metrics'][metric]['value']:14.4f}" for n in summary)
            print(f"{metric:16s} {cells}  {unit}")
        cells = " ".join(f"{summary[n]['failed'] / summary[n]['attempted']:14.4f}" for n in summary)
        print(f"{'fail_ratio':16s} {cells}")
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=CYCLE_SECONDS,
                        help=f"run length: one whole cycle per {CYCLE_SECONDS} s, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scatdecay" / "__init__.py").is_file():
        print(f"bench: no scatdecay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
