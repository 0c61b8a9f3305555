"""Command-line interface: verify | oracle | sweep | search | report.

Exit codes follow one contract everywhere: 0 all checks passed, 1 a
mathematical violation or verified counterexample was recorded, 2 usage
or numeric-infrastructure error.  ``sweep``, ``search`` and ``verify --a``
confirm counterexample candidates through one rule, ``search._confirmed``,
and exit 1 on a confirmed one.  All randomness flows from ``--seed`` (a
fixed constant when omitted, never wall-clock entropy), JSONL is the
machine archive and CSV the human summary, and both are written
atomically (temp file + rename).

JSONL record fields: ``{kind, seed, n, zeros: [[re, im], ...], a?,
reports: [{id, lhs, rhs, slack, holds, equality}], objective?,
objective_value?}``, as compact JSON.  Each line is written straight
from the inequality reports; non-finite numbers are written as null (and
count as an inf slack in the summary).  Every command that samples
draws through ``_chunks``, at most ``_CHUNK`` rows at a time, and solves
and evaluates each chunk as one stack, whose solves ``rootfind`` splits
into calls of a fixed element budget.  ``_sweep_root`` and
``_sweep_sendov`` turn one row of the results at a time into its record's
reports, line and M_{-2} value for ``cmd_sweep``'s one loop to summarize,
write and count, so memory grows neither with the sample count nor with
the square of the degree.  ``search`` streams its records the same way,
and ``oracle`` keeps only each check's worst row so far.  The archive
and its CSV land together or not at all: the CSV is written once the
archive is in place, and a failed CSV write removes the archive.
``report`` reads an archive one record at a time.  Outputs are
byte-identical for a fixed seed on one numpy and LAPACK build; another
LAPACK kernel may move the last bits of sides and values.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
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
    _suite_columns,
    evaluate_ensemble,
    lookup,
    order6_bounds,
    row_reports,
    star_trace_oracle,
    starstar_trace_oracle,
)
from .matrices import is_normal, sds_matrix, verify_spectrum
from .poly import _frame, _unit_frame, as_zeros, centroid_residual, is_collinear
from .rootfind import RootSolverSettings, cluster_sizes
from .search import (
    ENSEMBLE_KINDS,
    Ensemble,
    SearchSettings,
    _confirmed,
    _sample_seeds,
    _samples,
    _sendov_instance,
    maximize_batch,
    sample_one,
)
from .sendov import SendovInstance, distance_columns, hypothesis_margins, special_case_batch, special_case_reports

TRACE_ORACLE_TOL = 1e-10
SPECTRUM_TOL = 1e-7

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# The most samples any command holds at once, as one stack; ``_chunks`` draws them.
_CHUNK = 1024


# ---------------------------------------------------------------------------
# small I/O helpers

def _pair_array(zeros) -> np.ndarray:
    """The [re, im] pairs of a configuration, or of each row of a stack, as a float array."""
    z = np.asarray(zeros, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1)


def _pairs(zeros) -> list:
    """[re, im] float pairs of a configuration, or a list of them per row of a stack."""
    return _pair_array(zeros).tolist()


def _json_float(x: float) -> str:
    return repr(x) if math.isfinite(x) else "null"


def _record_line(kind, seed, zeros, reports, a=None, objective=None, objective_value=None) -> str:
    """One JSONL record, written straight from the reports.

    The text is the compact ``json.dumps`` of ``{kind, seed, n, zeros, a?,
    reports, objective?, objective_value?}``.  ``zeros`` are [re, im]
    pairs of floats, finite as every command validates them, so their list
    repr without spaces is their JSON; report sides are floats too
    (``make_report`` converts them).  Kinds, ids and objectives are table
    names that need no escaping.
    """
    head = f'{{"kind":"{kind}","seed":{int(seed)},"n":{len(zeros)},"zeros":{str(zeros).replace(" ", "")}'
    if a is not None:
        head += f',"a":{float(a)!r}'
    body = ",".join(
        f'{{"id":"{r.inequality_id}","lhs":{_json_float(r.lhs)},"rhs":{_json_float(r.rhs)},'
        f'"slack":{_json_float(r.slack)},"holds":{"true" if r.holds else "false"},'
        f'"equality":{"true" if r.equality else "false"}}}'
        for r in reports
    )
    line = f'{head},"reports":[{body}]'
    if objective is not None:
        line += f',"objective":"{objective}","objective_value":{_json_float(float(objective_value))}'
    return line + "}\n"


@contextlib.contextmanager
def _atomic_writer(path: Path):
    """A text handle on ``path.tmp<pid>``, renamed onto ``path`` on success and removed on any exception."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        # A sweep writes its lines one at a time: 64 KiB of buffer writes them in few system calls.
        with open(tmp, "w", buffering=1 << 16) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_writer(path) as handle:
        handle.write(text)


SUMMARY_COLUMNS = ("inequality_id", "n", "samples", "violations", "min_slack", "equality_count")


class _Summary:
    """The CSV summary rows, one per (id, n), aggregated from ``(id, n, slack, holds, equality)`` items.

    A missing or non-finite slack counts as inf.
    """

    def __init__(self, items=()):
        self._acc: dict[tuple, list] = {}
        self.update(items)

    def update(self, items) -> None:
        acc = self._acc
        for iid, n, slack, holds, equality in items:
            row = acc.get((n, iid))
            if row is None:
                row = acc[n, iid] = [iid, n, 0, 0, math.inf, 0]
            row[2] += 1
            row[3] += 0 if holds else 1
            if slack is not None and math.isfinite(slack) and slack < row[4]:
                row[4] = slack
            row[5] += 1 if equality else 0

    def rows(self) -> list[list]:
        """``SUMMARY_COLUMNS`` rows, sorted by (n, id)."""
        return [self._acc[key] for key in sorted(self._acc)]


def _report_items(n, reports):
    return ((r.inequality_id, n, r.slack, r.holds, r.equality) for r in reports)


def _record_items(records):
    return (
        (rep["id"], rec["n"], rep["slack"], rep["holds"], rep["equality"])
        for rec in records
        for rep in rec.get("reports", [])
    )


def _summary_csv(rows: list[list]) -> str:
    lines = [",".join(SUMMARY_COLUMNS)]
    for iid, n, samples, violations, min_slack, equality_count in rows:
        lines.append(f"{iid},{n},{samples},{violations},{min_slack:.12g},{equality_count}")
    return "\n".join(lines) + "\n"


def _print_summary(rows: list[list]) -> None:
    print(f"{'inequality':>12} {'n':>3} {'samples':>8} {'violations':>10} {'min_slack':>14} {'equality':>9}")
    for iid, n, samples, violations, min_slack, equality_count in rows:
        print(f"{iid:>12} {n:>3} {samples:>8} {violations:>10} {min_slack:>14.6e} {equality_count:>9}")


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


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-1e-9`` as a value, not an option, as newer argparse releases do."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--scale", type=float, default=None,
                   help="perturbation scale for roots-of-unity-perturbed (default 0.1)")
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
    common(p, "--seed", "--tol-root", "--out")

    p = sub.add_parser("report", help="summarize a JSONL archive as the CSV table")
    p.add_argument("--input", type=str, required=True, nargs="+")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    common(p, "--out")

    return parser


# ---------------------------------------------------------------------------
# commands

def _verify_output(args, zeros, reports, extra_lines, a=None):
    """Print the verify table; ``--out`` writes it, or the JSONL record, or the CSV summary."""
    lines = [*extra_lines, f"{'inequality':>12} {'lhs':>14} {'rhs':>14} {'slack':>14}  holds equality applicable"]
    lines += [
        f"{rep.inequality_id:>12} {rep.lhs:>14.6e} {rep.rhs:>14.6e} {rep.slack:>14.6e}  "
        f"{str(rep.holds):>5} {str(rep.equality):>8} {str(rep.applicable):>10}"
        for rep in reports
    ]
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        if args.format == "jsonl":
            text = _record_line("verify", args.seed, _pairs(zeros), reports, a=a)
        elif args.format == "csv":
            text = _summary_csv(_Summary(_report_items(len(zeros), reports)).rows())
        else:
            text = table
        _atomic_write(Path(args.out), text)


def cmd_verify(args) -> int:
    if (args.zeros is None) == (args.config is None):
        raise InvalidInputError("give exactly one of --zeros or --config")
    a = args.a
    if args.config is not None:
        zeros, file_a = _load_config_file(args.config)
        if a is not None and file_a is not None:
            raise InvalidInputError('give --a or an "a" in the --config file, not both')
        a = a if file_a is None else file_a
    else:
        zeros = _parse_zeros(args.zeros)

    settings = RootSolverSettings(tol_root=args.tol_root)
    zs = (as_zeros(zeros) if a is None else SendovInstance(a=float(a), other_zeros=zeros).zeros())[np.newaxis]
    # One solve of p': the suite and C1/C2 read the spectrum check's solver side, after its exact 0.
    spectrum = verify_spectrum(zs, settings)
    zeros, w, distance = zs[0], spectrum.expected[:, 1:], float(spectrum.max_pair_distance[0])
    reports = next(row_reports(_suite_columns(zs, w, settings), args.tol_eq))
    extra, m2_bad = [], 0
    if a is not None:
        special = distance_columns(zs, w)
        reports += special_case_reports(zs, special, args.tol_eq)[0]
        extra.append(
            f"sendov: condition_holds={bool(hypothesis_margins(zs)[0] >= 0.0)} "
            f"min|w-a|={special.min_distance[0]:.6f} M2={special.m2[0]:.6f} M-2={special.m_minus2[0]:.6f}"
        )
        m2_bad = int(_confirmed("M_MINUS2", zs, special.m_minus2, settings)[0].sum())

    framed, (e,) = _frame(zeros)  # the tolerance and the cluster radius are relative to the framed largest |z|
    unit = np.abs(framed).max()
    worst_cluster = int(np.max(cluster_sizes(spectrum.expected[0], np.ldexp(1e-6 * unit, -e))))
    with np.errstate(over="ignore"):  # never under one step of max |z|: NaN where max |z| overflows, which fmax skips
        relative = np.ldexp(max(SPECTRUM_TOL, args.tol_root ** (1.0 / worst_cluster)) * unit, -e)
        spectrum_tol = float(np.fmax(relative, np.spacing(np.ldexp(unit, -e))))
    extra.append(f"spectrum check: max pairing distance {distance:.3e} (tolerance {spectrum_tol:.1e})")
    extra.append(
        f"centroid residual {centroid_residual(zeros):.3e}; "
        f"collinear={is_collinear(zeros)}; normal(SDS)={is_normal(sds_matrix(framed))}"
    )
    _verify_output(args, zeros, reports, extra, a)
    if m2_bad:
        print(f"M_MINUS2 candidates above 1: {m2_bad}", file=sys.stderr)
    if not distance <= spectrum_tol:  # NaN where LAPACK did not converge on D S
        print("numeric-consistency failure: companion spectrum mismatch", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if all(r.holds for r in reports) and not m2_bad else EXIT_VIOLATION


def _chunks(count: int, draw, keep=None):
    """The first ``count`` samples that ``keep`` masks in (all without it), as ``(seeds, zeros stack)`` chunks.

    Every command that samples draws here: ``draw(indices)`` gives the seed list and zeros stack of at most
    ``_CHUNK`` indices, as many as the acceptance so far says are needed.  Rejection keeps each seed aligned
    with its index, at most ``1000 * count`` samples are drawn, and chunks come in index order.  A chunk may
    be short: every stage treats rows alone.
    """
    found, index, cap = 0, 0, 1000 * count
    while found < count and index < cap:
        needed = count - found
        size = min(max(needed, needed * index // max(found, 1)), _CHUNK)  # by the acceptance so far
        indices = range(index, min(index + size, cap))
        seeds, zs = draw(indices)
        if keep is not None:
            rows = np.flatnonzero(keep(zs))[:needed]
            seeds, zs = [seeds[i] for i in rows], zs[rows]
        found, index = found + len(seeds), indices.stop
        if seeds:
            yield seeds, zs
        del seeds, zs  # a chunk is not held while the next is drawn
    if found < count:
        raise InvalidInputError("hypothesis filter rejected too many samples")


def _worst(worst, deviations, zs):
    """``worst`` ``(deviation, row)``, or None, updated by a chunk's per-row deviations and zeros.

    The row kept is the first largest deviation over all chunks, a NaN above every number, as
    ``np.argmax`` would pick it from all the rows at once.
    """
    i = int(np.argmax(deviations))
    if worst is None or not (np.isnan(worst[0]) or deviations[i] <= worst[0]):
        return deviations[i], zs[i].copy()
    return worst


def cmd_oracle(args) -> int:
    if not 2 <= args.n <= 10:
        raise InvalidInputError(f"oracle supports n in 2..10, got {args.n}")
    ens = Ensemble(kind="uniform-disk", n=args.n, count=args.samples, seed=args.seed, recenter=True)
    settings = RootSolverSettings(tol_root=args.tol_root)
    trace_worst = spec_worst = None  # each check's (deviation, zeros in their _unit_frame) of its worst row so far
    for _seeds, zs in _chunks(args.samples, lambda indices: _samples(ens, indices)):
        (zs,) = _unit_frame(zs)
        star_closed, starstar_closed = order6_bounds(zs)
        trace_dev = np.maximum(np.abs(star_trace_oracle(zs) - star_closed),
                               np.abs(starstar_trace_oracle(zs) - starstar_closed))
        trace_worst = _worst(trace_worst, trace_dev, zs)
        spec_worst = _worst(spec_worst, verify_spectrum(zs, settings).max_pair_distance, zs)
    (worst_trace, worst_trace_zeros), (worst_spec, worst_spec_zeros) = trace_worst, spec_worst

    print(f"trace oracle: {args.samples} samples, n={args.n}, max |closed - trace| = {worst_trace:.3e}")
    print(f"spectrum check: max pairing distance = {worst_spec:.3e}")
    ok = worst_trace <= TRACE_ORACLE_TOL and worst_spec <= SPECTRUM_TOL
    if not ok:
        if not worst_trace <= TRACE_ORACLE_TOL:
            print(f"worst trace config: {_pairs(worst_trace_zeros)}", file=sys.stderr)
        if not worst_spec <= SPECTRUM_TOL:
            print(f"worst spectrum config: {_pairs(worst_spec_zeros)}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _sweep_root(args, ens: Ensemble):
    """The sweep's ``(reports, line, False)`` records in index order, drawn, solved and evaluated a chunk at a time."""
    settings = RootSolverSettings(tol_root=args.tol_root)

    def draw(indices):  # row by row through sample_one, plus the stacked seed derivation
        return _sample_seeds(ens.seed, indices), np.array([sample_one(ens, i) for i in indices])

    for seeds, zs in _chunks(args.count, draw):
        table = evaluate_ensemble(zs, settings)
        for seed, row_pairs, reports in zip(seeds, _pair_array(zs), row_reports(table, args.tol_eq)):
            yield reports, _record_line("sample", seed, row_pairs.tolist(), reports), False
        del seeds, zs, table, row_pairs  # not held while the next chunk is solved; a row view holds all pairs


def _sweep_sendov(args, ens: Ensemble):
    """The sweep's ``(reports, line, confirmed M_MINUS2 candidate)`` records in index order, a chunk at a time."""
    settings = RootSolverSettings(tol_root=args.tol_root)
    keep = (lambda zs: hypothesis_margins(zs) >= 0) if args.hypothesis_filter else None
    for seeds, zs in _chunks(args.count, lambda indices: _samples(ens, indices), keep):
        special = special_case_batch(zs, settings)
        for seed, row_pairs, a, reports, value, candidate in zip(
            seeds, _pair_array(zs), zs[:, 0].real.tolist(), special_case_reports(zs, special, args.tol_eq),
            special.m_minus2.tolist(), _confirmed("M_MINUS2", zs, special.m_minus2, settings)[0].tolist(),
        ):
            yield reports, _record_line("sample", seed, row_pairs.tolist(), reports, a=a,
                                        objective="M_MINUS2", objective_value=value), candidate
        del seeds, zs, special, row_pairs  # as in _sweep_root


def cmd_sweep(args) -> int:
    if args.hypothesis_filter and args.ensemble != "sendov-boundary":
        raise InvalidInputError("--hypothesis-filter applies to the sendov-boundary ensemble only")
    ens = Ensemble(kind=args.ensemble, n=args.n, count=args.count, seed=args.seed,
                   recenter=args.recenter, scale=0.1 if args.scale is None else args.scale)
    if args.scale is not None and ens.kind != "roots-of-unity-perturbed":
        raise InvalidInputError("--scale applies to the roots-of-unity-perturbed ensemble only")
    summary, m2_bad = _Summary(), 0
    jsonl_path, csv_path = _out_paths(args.out or "sweep")
    sweep = _sweep_sendov if ens.kind == "sendov-boundary" else _sweep_root
    with _atomic_writer(jsonl_path) as handle:
        for reports, line, candidate in sweep(args, ens):
            summary.update(_report_items(args.n, reports))
            handle.write(line)
            m2_bad += candidate
    rows = summary.rows()
    try:
        _atomic_write(csv_path, _summary_csv(rows))
    except BaseException:
        jsonl_path.unlink(missing_ok=True)  # the archive and its CSV land together or not at all
        raise
    _print_summary(rows)
    violations = sum(row[3] for row in rows)
    if m2_bad:
        print(f"M_MINUS2 candidates above 1: {m2_bad}", file=sys.stderr)
    print(f"records: {args.count} -> {jsonl_path} / {csv_path}")
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
    ens = Ensemble(kind=kind, n=args.n, count=args.starts, seed=args.seed, recenter=objective in CENTERED_IDS)
    # Records and messages name the objective by its canonical id, the one its reports carry.
    name = objective if objective == "M_MINUS2" else lookup(objective, args.n).iid

    def ascents():  # every start's record, whether it is a confirmed candidate and its re-score, a chunk at a time
        for seeds, zs in _chunks(args.starts, lambda indices: _samples(ens, indices)):
            starts = [_sendov_instance(row) for row in zs] if kind == "sendov-boundary" else zs
            records = [r for r in maximize_batch(objective, starts, settings, sample_seeds=seeds) if r is not None]
            confirmed, refined = _confirmed(objective, np.array([r.zeros for r in records]),
                                            [r.objective_value for r in records], settings.solver)
            yield from zip(records, confirmed.tolist(), refined.tolist())
            del records  # no name holds a chunk's records once they are written, while the next chunk ascends

    jsonl_path, _csv = _out_paths(args.out or "search")
    count, best, verified_counterexample = 0, None, False
    with _atomic_writer(jsonl_path) as handle:
        for rec, confirmed, refined in ascents():
            if confirmed:
                verified_counterexample = True
                print(f"counterexample candidate verified: {name} = {refined:.9f} zeros {_pairs(rec.zeros)}",
                      file=sys.stderr)
            handle.write(_record_line("counterexample" if confirmed else "search", rec.sample_seed, _pairs(rec.zeros),
                                      rec.reports, a=rec.a, objective=name, objective_value=rec.objective_value))
            count += 1
            value = float(rec.objective_value)
            if math.isfinite(value) and (best is None or value > best):
                best = value
    print(f"{count} ascents, best {name} = {best}")
    print(f"records -> {jsonl_path}")
    return EXIT_VIOLATION if verified_counterexample else EXIT_OK


def _read_records(paths):
    """The records of JSONL archives, one at a time, in file and line order."""
    for path in paths:
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InvalidInputError(f"{path}:{lineno}: not a JSON record: {exc}") from None
                yield record


def cmd_report(args) -> int:
    try:
        rows = _Summary(_record_items(_read_records(args.input))).rows()
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
    violations = sum(row[3] for row in rows)
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
