"""Run one workload in this (fresh) interpreter and write its measurements.

    python perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --tmp DIR --result FILE

``run.py`` starts this with ``src`` on the path and BLAS/OpenMP pinned to
one thread.  Every CLI output goes to ``--tmp`` and is removed after its
check.  With ``--trace 0`` the CLI is invoked in a closed loop for ``--seconds``
of wall time, output checks included; each invocation is checked.  The
calibration kernel of ``calibrate.py`` is timed just before each
invocation, and converts that invocation's time to reference seconds.
The result holds the median items per reference second, the median items
per second as measured, and this process's peak resident memory.
Between invocations, spread evenly over the run, ``SETUP_SAMPLES`` fresh
interpreters time ``import schoenberg.cli`` plus the parser build; the
result holds their median as ``setup_s``.  Spreading them over the run
keeps one slow stretch of a shared host from deciding the figure.
With ``--trace 1`` the loop runs pairs of an untraced and a traced
invocation on the same seed instead, and the result holds the per-layer
metrics, the tracing overhead, the solver grid and the call tree.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
from calibrate import REFERENCE_S, time_kernel
from outcheck import ARCHIVE_BASENAME, check, load_reference
from spans import Tracer
from workloads import WORKLOADS, invocation_seed

SETUP_SAMPLES = 11
SETUP_CODE = (
    "import time; start = time.perf_counter(); import schoenberg.cli as cli; "
    "cli._build_parser(); print(time.perf_counter() - start)"
)
SETUP_TIMEOUT_S = 20


def invoke(argv: list[str]) -> tuple[int | None, float, str]:
    """One ``cli.main`` call: exit code (None if it raised), seconds, output."""
    from schoenberg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, seconds, buf.getvalue()


class Runner:
    def __init__(self, workload, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.reference = load_reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, k: int, label: str, warmup: bool = False) -> tuple[float, int]:
        """Invoke, check and clean up; returns (seconds, archive bytes)."""
        seed = invocation_seed(self.seed, k)
        outdir = self.tmp / f"{label}{k}"
        outdir.mkdir()
        argv = self.workload.argv(seed, str(outdir / ARCHIVE_BASENAME), warmup=warmup)
        code, seconds, output = invoke(argv)
        if warmup:
            problems = [] if code == 0 else [f"warm-up exit code {code}: {output[-2000:]}"]
            self.attempted += bool(problems)
        else:
            self.attempted += 1
            problems = check(self.workload, seed, code, outdir, output, self.reference)
            if code is None:
                problems.append(output[-2000:])
        if problems:
            self.failed += 1
            self.problems += [f"{label}{k} seed {seed}: {p}" for p in problems]
            print("\n".join(self.problems[-len(problems):]), file=sys.stderr)
        archive_bytes = sum(p.stat().st_size for p in outdir.iterdir())
        shutil.rmtree(outdir)
        gc.collect()
        return seconds, archive_bytes


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import the CLI and build its parser."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=os.environ, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: float) -> dict:
    rates, ref_rates, setups, kernels, k = [], [], [], [], 0
    start = time.perf_counter()
    while k == 0 or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_SAMPLES * (time.perf_counter() - start) / seconds:
            setups.append(setup_sample())
        kernels.append(time_kernel())
        dt, _ = runner.run(k, "inv")
        rates.append(runner.workload.items / dt)
        ref_rates.append(rates[-1] * kernels[-1] / REFERENCE_S)
        k += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    return {
        "items_per_s": statistics.median(ref_rates),
        "measured_items_per_s": statistics.median(rates),
        "invocation_rates": rates,
        "kernel_s": statistics.median(kernels),
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(runner: Runner, seconds: float) -> dict:
    tracer = Tracer()
    untraced = traced = 0.0
    archive_bytes = 0
    start, k = time.perf_counter(), 0
    while k == 0 or time.perf_counter() - start < seconds:
        untraced += runner.run(k, "plain")[0]
        with layers.instrumented(tracer):
            dt, nbytes = runner.run(k, "traced")
        traced += dt
        archive_bytes += nbytes
        k += 1
    metrics = layers.layer_metrics(tracer, k, runner.workload.items)
    metrics["cli.archive_bytes"] = archive_bytes / k
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics.update(layers.solver_grid(runner.seed))
    return {
        "per_layer": {name: metrics[name] for name in layers.PER_LAYER_METRICS},
        "shares": layers.shares(tracer),
        "traced_invocations": k,
        "call_tree": tracer.to_json(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    runner = Runner(WORKLOADS[args.workload], args.seed, args.tmp)
    runner.run(0, "warmup", warmup=True)
    result = trace(runner, args.seconds) if args.trace else measure(runner, args.seconds)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:50],
        numpy=np.__version__,
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
