"""Command-line interface: verify | oracle | sweep | search | report.

Exit codes follow one contract everywhere: 0 all checks passed, 1 a
mathematical violation or verified counterexample was recorded, 2 usage
or numeric-infrastructure error.  All randomness flows from ``--seed``
(a fixed constant when omitted, never wall-clock entropy), JSONL is the
machine archive and CSV the human summary, and both are written
atomically (temp file + rename).

JSONL record fields: ``{kind, seed, n, zeros: [[re, im], ...], a?,
reports: [{id, lhs, rhs, slack, holds, equality}], objective?,
objective_value?}``.  Non-finite numbers are serialized as null.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULT_SEED, TOL_EQ, TOL_ROOT
from .errors import (
    ConvergenceError,
    InvalidInputError,
    NumericConsistencyError,
)
from .inequalities import (
    CENTERED_IDS,
    evaluate_ensemble,
    full_report,
    make_report,
    order6_bounds,
    star_trace_oracle,
    starstar_trace_oracle,
)
from .matrices import is_normal, sds_matrix, verify_spectrum
from .poly import centroid_residual, is_collinear, recenter
from .rootfind import RootSolverSettings, cluster_sizes
from .search import (
    COUNTEREXAMPLE_MARGIN,
    ENSEMBLE_KINDS,
    Ensemble,
    SearchSettings,
    maximize_batch,
    sample,
    sample_array,
    sample_one,
    sample_seed,
    verify_candidate,
)
from .sendov import SendovInstance, check_special_case, special_case_batch

TRACE_ORACLE_TOL = 1e-10
SPECTRUM_TOL = 1e-7

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# small I/O helpers

def _num(x) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _pairs(zeros) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(zeros, dtype=complex)]


def _report_dict(rep) -> dict:
    return {
        "id": rep.inequality_id,
        "lhs": _num(rep.lhs),
        "rhs": _num(rep.rhs),
        "slack": _num(rep.slack),
        "holds": bool(rep.holds),
        "equality": bool(rep.equality),
    }


def _record(kind, seed, zeros, reports, a=None, objective=None, objective_value=None) -> dict:
    rec = {"kind": kind, "seed": int(seed), "n": int(len(zeros)), "zeros": _pairs(zeros)}
    if a is not None:
        rec["a"] = float(a)
    rec["reports"] = [_report_dict(r) for r in reports]
    if objective is not None:
        rec["objective"] = objective
        rec["objective_value"] = _num(objective_value)
    return rec


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_jsonl(path: Path, records: list[dict]) -> None:
    _atomic_write(path, "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records))


SUMMARY_COLUMNS = ("inequality_id", "n", "samples", "violations", "min_slack", "equality_count")


def _summary_rows(records: list[dict]) -> list[dict]:
    """Aggregate JSONL records into the CSV summary rows, keyed by (id, n)."""
    acc: dict[tuple, dict] = {}
    for rec in records:
        for rep in rec.get("reports", []):
            key = (rep["id"], rec["n"])
            row = acc.setdefault(
                key,
                {
                    "inequality_id": rep["id"],
                    "n": rec["n"],
                    "samples": 0,
                    "violations": 0,
                    "min_slack": math.inf,
                    "equality_count": 0,
                },
            )
            row["samples"] += 1
            slack = rep["slack"] if rep["slack"] is not None else math.inf
            row["min_slack"] = min(row["min_slack"], slack)
            row["violations"] += 0 if rep["holds"] else 1
            row["equality_count"] += 1 if rep["equality"] else 0
    return [acc[k] for k in sorted(acc, key=lambda t: (t[1], t[0]))]


def _summary_csv(rows: list[dict]) -> str:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        lines.append(
            f"{row['inequality_id']},{row['n']},{row['samples']},{row['violations']},"
            f"{row['min_slack']:.12g},{row['equality_count']}"
        )
    return "\n".join(lines) + "\n"


def _print_summary(rows: list[dict]) -> None:
    print(f"{'inequality':>12} {'n':>3} {'samples':>8} {'violations':>10} {'min_slack':>14} {'equality':>9}")
    for row in rows:
        print(
            f"{row['inequality_id']:>12} {row['n']:>3} {row['samples']:>8} "
            f"{row['violations']:>10} {row['min_slack']:>14.6e} {row['equality_count']:>9}"
        )


def _out_paths(base: str) -> tuple[Path, Path]:
    """JSONL and CSV paths of an output basename: a .jsonl/.csv suffix is replaced, any other kept."""
    p = Path(base)
    if p.suffix in {".jsonl", ".csv"}:
        p = p.with_suffix("")
    return p.with_name(p.name + ".jsonl"), p.with_name(p.name + ".csv")


# ---------------------------------------------------------------------------
# argument parsing

def _parse_zeros(text: str) -> np.ndarray:
    out = []
    for token in text.replace(";", " ").split():
        parts = token.split(",")
        try:
            re_part, im_part = (float(part) for part in parts)
        except ValueError:
            raise InvalidInputError(f"zero token {token!r} is not 're,im'") from None
        out.append(complex(re_part, im_part))
    if not out:
        raise InvalidInputError("no zeros given")
    return np.array(out, dtype=complex)


def _load_config_file(path: str) -> tuple[np.ndarray, float | None]:
    """Zeros and optional Sendov ``a`` of a JSON file ``{"zeros": [[re, im], ...], "a": a?}``."""
    try:
        with open(path) as handle:
            data = json.load(handle)
        zeros = np.array([complex(float(re), float(im)) for re, im in data["zeros"]], dtype=complex)
        a = None if data.get("a") is None else float(data["a"])
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidInputError(f"{path}: not a JSON object with 'zeros' [re, im] pairs: {exc!r}") from None
    unknown = sorted(set(data) - {"zeros", "a"})
    if unknown:
        raise InvalidInputError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; only 'zeros' and 'a' are read")
    return zeros, a


def _tolerance(text: str) -> float:
    """A ``--tol-eq`` value: a finite, nonnegative float."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schoenberg",
        description="Verify and stress-test the zero/critical-point inequality suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": dict(type=int, default=DEFAULT_SEED, help="RNG seed (fixed default)"),
        "--tol-root": dict(type=float, default=TOL_ROOT),
        "--tol-eq": dict(type=_tolerance, default=TOL_EQ),
        "--out": dict(type=str, default=None, help="output path (basename for sweep/search)"),
        "--format": dict(choices=("table", "csv", "jsonl"), default="table"),
    }

    def common(p, *flags):
        """Add the shared flags that the subcommand's handler reads."""
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("verify", help="evaluate every inequality on one configuration")
    p.add_argument("--zeros", type=str, default=None, help="space-separated re,im pairs")
    p.add_argument("--config", type=str, default=None, help="JSON file with {zeros, a?}")
    p.add_argument("--a", type=float, default=None, help="distinguished Sendov zero; --zeros then hold the others")
    p.add_argument("--recenter", action="store_true", help="evaluate centered-only forms after recentering")
    common(p, "--seed", "--tol-root", "--tol-eq", "--out", "--format")

    p = sub.add_parser("oracle", help="closed forms vs brute-force traces and spectra")
    p.add_argument("--n", type=int, required=True, help="degree, 2..10")
    p.add_argument("--samples", type=int, default=1000)
    common(p, "--seed", "--tol-root")

    p = sub.add_parser("sweep", help="evaluate an ensemble and archive per-sample records")
    p.add_argument("--ensemble", choices=ENSEMBLE_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--recenter", action="store_true", help="recenter sampled configurations")
    p.add_argument("--scale", type=float, default=0.1, help="perturbation scale for roots-of-unity-perturbed")
    p.add_argument("--hypothesis-filter", action="store_true",
                   help="sendov-boundary: keep only instances satisfying the centroid hypothesis")
    common(p, "--seed", "--tol-root", "--tol-eq", "--out")

    p = sub.add_parser("search", help="derivative-free ascent of a slack ratio or M_-2")
    p.add_argument("--objective", type=str, required=True,
                   help="inequality id (ratio objective) or M_MINUS2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--starts", type=int, default=20)
    p.add_argument("--ensemble", choices=ENSEMBLE_KINDS, default=None,
                   help="start sampler (default: by objective)")
    p.add_argument("--max-iterations", type=int, default=200)
    p.add_argument("--raw-starts", action="store_true",
                   help="use sampled starts as-is; centered-form objectives then fail with exit 2")
    common(p, "--seed", "--tol-root", "--out")

    p = sub.add_parser("report", help="summarize a JSONL archive as the CSV table")
    p.add_argument("--input", type=str, required=True, nargs="+")
    common(p, "--out", "--format")

    return parser


# ---------------------------------------------------------------------------
# commands

def _verify_reports_output(args, zeros, reports, extra_lines):
    for line in extra_lines:
        print(line)
    print(f"{'inequality':>12} {'lhs':>14} {'rhs':>14} {'slack':>14}  holds equality applicable")
    for rep in reports:
        print(
            f"{rep.inequality_id:>12} {rep.lhs:>14.6e} {rep.rhs:>14.6e} {rep.slack:>14.6e}  "
            f"{str(rep.holds):>5} {str(rep.equality):>8} {str(rep.applicable):>10}"
        )
    if args.out:
        record = _record("verify", args.seed, zeros, reports)
        if args.format == "jsonl":
            _write_jsonl(Path(args.out), [record])
        elif args.format == "csv":
            _atomic_write(Path(args.out), _summary_csv(_summary_rows([record])))
        else:
            _atomic_write(Path(args.out), "\n".join(
                f"{r.inequality_id},{r.lhs!r},{r.rhs!r},{r.slack!r},{r.holds},{r.equality}" for r in reports
            ) + "\n")


def cmd_verify(args) -> int:
    if (args.zeros is None) == (args.config is None):
        raise InvalidInputError("give exactly one of --zeros or --config")
    a = args.a
    if args.config is not None:
        zeros, file_a = _load_config_file(args.config)
        a = a if file_a is None else file_a
    else:
        zeros = _parse_zeros(args.zeros)

    settings = RootSolverSettings(tol_root=args.tol_root)
    extra = []
    sendov_reports = []
    if a is not None:
        inst = SendovInstance(a=float(a), other_zeros=zeros)
        zeros = inst.zeros()
        pm = check_special_case(inst, settings)
        # C1/C2 are theorems only under the centroid hypothesis.
        if pm.condition_holds:
            sendov_reports = [
                make_report("C1", float(inst.n - 1), pm.c1_value, args.tol_eq),
                make_report("C2", pm.c2_value, float(inst.n - 1), args.tol_eq),
            ]
        extra.append(
            f"sendov: condition_holds={pm.condition_holds} min|w-a|={pm.min_distance:.6f} "
            f"M2={pm.values[2]:.6f} M-2={pm.values[1]:.6f}"
        )

    reports = full_report(zeros, settings, recenter_centered=args.recenter, tol_eq=args.tol_eq) + sendov_reports

    spectrum = verify_spectrum(zeros, settings)
    scale = max(1.0, float(np.max(np.abs(zeros))))
    worst_cluster = int(np.max(cluster_sizes(spectrum.expected, 1e-6 * scale)))
    spectrum_tol = max(SPECTRUM_TOL, args.tol_root ** (1.0 / worst_cluster)) * scale
    extra.append(
        f"spectrum check: max pairing distance {spectrum.max_pair_distance:.3e} "
        f"(tolerance {spectrum_tol:.1e})"
    )
    extra.append(
        f"centroid residual {centroid_residual(zeros):.3e}; "
        f"collinear={is_collinear(zeros)}; normal(SDS)={is_normal(sds_matrix(zeros))}"
    )
    _verify_reports_output(args, zeros, reports, extra)
    if spectrum.max_pair_distance > spectrum_tol:
        print("numeric-consistency failure: companion spectrum mismatch", file=sys.stderr)
        return EXIT_USAGE
    applicable = [r for r in reports if r.applicable]
    return EXIT_OK if all(r.holds for r in applicable) else EXIT_VIOLATION


def _normalized_centered_batch(n, count, seed):
    zs = sample_array(Ensemble(kind="uniform-disk", n=n, count=count, seed=seed, recenter=True))
    scale = np.abs(zs).max(axis=1)
    scale[scale == 0] = 1.0
    return zs / scale[:, np.newaxis]


def cmd_oracle(args) -> int:
    if not 2 <= args.n <= 10:
        print(f"oracle supports n in 2..10, got {args.n}", file=sys.stderr)
        return EXIT_USAGE
    zs = _normalized_centered_batch(args.n, args.samples, args.seed)
    star_closed, starstar_closed = order6_bounds(zs)
    settings = RootSolverSettings(tol_root=args.tol_root)
    trace_dev = np.maximum(
        np.abs(star_trace_oracle(zs) - star_closed), np.abs(starstar_trace_oracle(zs) - starstar_closed)
    )
    spec_dev = verify_spectrum(zs, settings).max_pair_distance
    worst_trace_at, worst_spec_at = int(np.argmax(trace_dev)), int(np.argmax(spec_dev))
    worst_trace, worst_spec = trace_dev[worst_trace_at], spec_dev[worst_spec_at]

    print(f"trace oracle: {zs.shape[0]} samples, n={args.n}, max |closed - trace| = {worst_trace:.3e}")
    print(f"spectrum check: max pairing distance = {worst_spec:.3e}")
    ok = worst_trace <= TRACE_ORACLE_TOL and worst_spec <= SPECTRUM_TOL
    if not ok:
        if not worst_trace <= TRACE_ORACLE_TOL:
            print(f"worst trace config: {_pairs(zs[worst_trace_at])}", file=sys.stderr)
        if not worst_spec <= SPECTRUM_TOL:
            print(f"worst spectrum config: {_pairs(zs[worst_spec_at])}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _sweep_root_records(args) -> list[dict]:
    ens = Ensemble(
        kind=args.ensemble, n=args.n, count=args.count, seed=args.seed,
        recenter=args.recenter, scale=args.scale,
    )
    zs = np.array([sample_one(ens, i) for i in range(args.count)])
    settings = RootSolverSettings(tol_root=args.tol_root)
    table, _mask = evaluate_ensemble(zs, settings, recenter_centered=True)
    sides = [(iid, col.lhs.tolist(), col.rhs.tolist(), col.centered_required) for iid, col in table.items()]
    return [
        _record(
            "sample", sample_seed(args.seed, i), zs[i],
            [make_report(iid, lhs[i], rhs[i], args.tol_eq, required) for iid, lhs, rhs, required in sides],
        )
        for i in range(args.count)
    ]


def _sweep_sendov_records(args) -> list[dict]:
    ens = Ensemble(kind="sendov-boundary", n=args.n, count=args.count, seed=args.seed)
    instances, seeds = [], []
    index = 0
    # Rejection keeps the per-sample seeds aligned with their sample index.
    while len(instances) < args.count and index < 1000 * args.count:
        inst = sample_one(ens, index)
        if not args.hypothesis_filter or inst.hypothesis_margin() >= 0:
            instances.append(inst)
            seeds.append(sample_seed(args.seed, index))
        index += 1
    if len(instances) < args.count:
        raise InvalidInputError("hypothesis filter rejected too many samples")
    a = np.array([inst.a for inst in instances])
    others = np.array([inst.other_zeros for inst in instances])
    settings = RootSolverSettings(tol_root=args.tol_root)
    special = special_case_batch(a, others, settings)
    side = float(args.n - 1)
    records = []
    for i, inst in enumerate(instances):
        reports = []
        # C1/C2 are theorems only under the centroid hypothesis.
        if inst.hypothesis_margin() >= 0.0:
            reports = [
                make_report("C1", side, special.c1[i], args.tol_eq),
                make_report("C2", special.c2[i], side, args.tol_eq),
            ]
        records.append(
            _record(
                "sample", seeds[i], inst.zeros(), reports, a=inst.a,
                objective="M_MINUS2", objective_value=special.m_minus2[i],
            )
        )
    return records


def cmd_sweep(args) -> int:
    if args.ensemble == "sendov-boundary":
        records = _sweep_sendov_records(args)
    else:
        records = _sweep_root_records(args)
    rows = _summary_rows(records)
    jsonl_path, csv_path = _out_paths(args.out or "sweep")
    _write_jsonl(jsonl_path, records)
    _atomic_write(csv_path, _summary_csv(rows))
    _print_summary(rows)
    violations = sum(row["violations"] for row in rows)
    m2_bad = sum(
        1 for rec in records
        if rec.get("objective") == "M_MINUS2"
        and rec.get("objective_value") is not None
        and rec["objective_value"] > 1.0 + COUNTEREXAMPLE_MARGIN
    )
    if m2_bad:
        print(f"M_MINUS2 candidates above 1: {m2_bad}", file=sys.stderr)
    print(f"records: {len(records)} -> {jsonl_path} / {csv_path}")
    return EXIT_OK if violations == 0 and m2_bad == 0 else EXIT_VIOLATION


def cmd_search(args) -> int:
    objective = args.objective
    settings = SearchSettings(
        max_iterations=args.max_iterations,
        solver=RootSolverSettings(tol_root=args.tol_root),
    )
    if objective == "M_MINUS2":
        kind = args.ensemble or "sendov-boundary"
        if kind != "sendov-boundary":
            raise InvalidInputError("M_MINUS2 starts come from the sendov-boundary ensemble")
    else:
        kind = args.ensemble or "uniform-disk"
        if kind == "sendov-boundary":
            raise InvalidInputError(f"objective {objective} needs a root-configuration ensemble")
    needs_center = objective in CENTERED_IDS and not args.raw_starts
    ens = Ensemble(kind=kind, n=args.n, count=args.starts, seed=args.seed, recenter=needs_center)
    seeds = [sample_seed(args.seed, i) for i in range(args.starts)]
    records, verified_counterexample = [], False
    for rec in maximize_batch(objective, sample(ens), settings, sample_seeds=seeds):
        if rec is None:
            continue
        kind_tag = "search"
        if rec.objective_value > 1.0 + COUNTEREXAMPLE_MARGIN:
            refined = verify_candidate(rec, settings)
            if refined > 1.0 + COUNTEREXAMPLE_MARGIN:
                kind_tag = "counterexample"
                verified_counterexample = True
                print(
                    f"counterexample candidate verified: {objective} = {refined:.9f} "
                    f"zeros {_pairs(rec.zeros)}",
                    file=sys.stderr,
                )
        records.append(
            _record(
                kind_tag, rec.sample_seed, rec.zeros, rec.reports, a=rec.a,
                objective=objective, objective_value=rec.objective_value,
            )
        )
    jsonl_path, _csv = _out_paths(args.out or "search")
    _write_jsonl(jsonl_path, records)
    best = max((r["objective_value"] for r in records if r["objective_value"] is not None), default=None)
    print(f"{len(records)} ascents, best {objective} = {best}")
    print(f"records -> {jsonl_path}")
    return EXIT_VIOLATION if verified_counterexample else EXIT_OK


def _read_records(paths) -> list[dict]:
    records = []
    for path in paths:
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                try:
                    if line.strip():
                        records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise InvalidInputError(f"{path}:{lineno}: not a JSON record: {exc}") from None
    return records


def cmd_report(args) -> int:
    try:
        rows = _summary_rows(_read_records(args.input))
    except (AttributeError, KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed record: {exc!r}") from None
    if args.format == "csv" or args.out:
        text = _summary_csv(rows)
        if args.out:
            _atomic_write(Path(args.out), text)
        else:
            sys.stdout.write(text)
    if args.format != "csv":
        _print_summary(rows)
    violations = sum(row["violations"] for row in rows)
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "oracle": cmd_oracle,
        "sweep": cmd_sweep,
        "search": cmd_search,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, NumericConsistencyError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
