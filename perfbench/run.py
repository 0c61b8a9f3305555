"""Benchmark of the ``schoenberg`` CLI on four workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src``, so nothing is installed.  With ``--trace 0`` the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics:

* ``items_per_s``: median over the run's invocations of configurations
  (sweeps), ascents (search) or samples (oracle) per reference second;
* ``setup_s``: median over fresh interpreters, started between the
  invocations, of ``import schoenberg.cli`` plus the parser build;
* ``peak_rss_mb``: peak resident memory of the process that ran only this
  workload.

A reference second is a second of a host that runs the calibration kernel
of ``calibrate.py`` in ``calibrate.REFERENCE_S``: the kernel is timed
just before every invocation and converts that invocation's time, so
that a shared host's drift in speed cancels out.  The rate as measured
is kept in the provenance line.  ``setup_s`` is not
scaled: it is mostly file loading, which the kernel does not track.

With ``--trace 1`` the metrics are the per-layer ones of ``layers.py``,
and the call tree is written to ``.perfbench_out/``.  Every invocation's
output is checked (``outcheck.py``); ``failed`` counts the invocations
that exited with an unexpected code or failed the check.  The line before
the result records the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from calibrate import REFERENCE_S
from layers import PER_LAYER_METRICS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 140

E2E_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def pinned_env() -> dict:
    """The CLI's environment: ``src`` first on the path, one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=20)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the schoenberg CLI.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")
    if not (ROOT / "src" / "schoenberg" / "cli.py").is_file():
        print(f"error: no schoenberg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = pinned_env()
    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_parent))
    try:
        result_path = tmp / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload.name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp),
             "--result", str(result_path)],
            env=env, cwd=ROOT, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result_path.exists():
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass

    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **workload.describe(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }
    if args.trace:
        values = result["per_layer"]
        units = PER_LAYER_METRICS
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"provenance": provenance, **result}, indent=1))
        layer_self = sorted(result["shares"]["layer_self"].items(), key=lambda kv: -kv[1])
        functions = list(result["shares"]["function_inclusive"].items())[2:8]  # below cli.main, cli.cmd_*
        print("layer self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in layer_self), file=sys.stderr)
        print("inclusive shares: " + ", ".join(f"{k} {v:.1%}" for k, v in functions), file=sys.stderr)
        print(f"call tree in {trace_path.relative_to(ROOT)}", file=sys.stderr)
    else:
        provenance["measured"] = {"items_per_s": result["measured_items_per_s"], "kernel_s": result["kernel_s"]}
        values = {
            "items_per_s": result["items_per_s"],
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = E2E_UNITS
        print(f"host speed: kernel {result['kernel_s']:.6g} s (median) against {REFERENCE_S} s on the "
              f"reference host; {result['measured_items_per_s']:.6g} items/s as measured", file=sys.stderr)
        rates = result["invocation_rates"]
        print(f"{len(rates)} invocations, items/s min {min(rates):.6g} median {statistics.median(rates):.6g} "
              f"max {max(rates):.6g}", file=sys.stderr)
        print("setup samples (s): " + json.dumps(result["setup_samples"]), file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:>40} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
