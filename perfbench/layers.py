"""The per-layer view of the ``schoenberg`` package.

A layer is one module of the package.  ``instrumented`` wraps every public
function of every layer at every module namespace that binds it: ``cli``,
``search``, ``sendov``, ``inequalities`` and ``matrices`` import names
directly, so patching only the defining module would miss most calls.
``layer_metrics`` turns the recorded call tree into the per-layer
metrics, and ``solver_grid`` times direct ``critical_points_batch`` calls
at the two call shapes the CLI issues (one row, a large batch).

No layer has a queue or a lock and the program runs on one thread, so no
waiting time is measured.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from spans import Tracer

LAYERS = ("cli", "inequalities", "rootfind", "poly", "search", "sendov", "matrices")
SOLVES = frozenset(f"rootfind.{n}" for n in ("critical_points", "critical_points_batch", "find_roots", "find_roots_batch"))
MODULI = frozenset({"rootfind.moduli_critical_points", "rootfind.moduli_critical_points_batch"})
SINGLE_EVALS = frozenset(
    f"inequalities.{n}"
    for n in ("eval_order1", "eval_order2", "eval_order4", "eval_order6", "eval_symmetric", "eval_logmaj", "eval_general")
)
SAMPLERS = frozenset({"search.sample_one", "search.sample_array"})

# (degree, batch) shapes of the solver grid; b=1 is the search/sendov/oracle
# call shape and b=2000 the sweep one.
GRID = ((8, 1), (8, 2000), (20, 1), (20, 2000))
GRID_MIN_SECONDS = 0.3

# Every per-layer metric and its unit, in report order.
PER_LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.archive_bytes": "bytes",
    "inequalities.self_s": "s",
    "inequalities.make_report.calls": "count",
    "inequalities.single_eval.calls": "count",
    "rootfind.self_s": "s",
    "rootfind.calls": "count",
    "rootfind.rows": "count",
    "rootfind.rows_per_config": "rows/item",
    "rootfind.rows_per_call": "rows/call",
    "rootfind.ms_per_row": "ms",
    "rootfind.convergence_errors": "count",
    "rootfind.moduli_s": "s",
    **{f"rootfind.grid.ms_per_row.n{n}.b{b}": "ms" for n, b in GRID},
    "poly.from_roots.s": "s",
    "poly.as_zeros.calls": "count",
    "search.sample_s": "s",
    "search.sample_one.calls": "count",
    "search.maximize.self_s": "s",
    "search.solves_per_ascent": "count",
    "search.verify_candidate.calls": "count",
    "sendov.self_s": "s",
    "sendov.check_special_case.calls": "count",
    "sendov.probe_m_minus2.calls": "count",
    "matrices.self_s": "s",
    "matrices.verify_spectrum.calls": "count",
    "matrices.char_poly.s": "s",
    "matrices.eigenvalues.s": "s",
    "matrices.trace_word.calls": "count",
    "trace.overhead_frac": "fraction",
}


def _rows(args, kwargs) -> int:
    """Rows of a solver call: the leading axis of a 2-D first argument, else 1."""
    x = args[0] if args else next(iter(kwargs.values()))
    return int(np.shape(x)[0]) if np.ndim(x) >= 2 else 1


def public_functions(module) -> dict:
    """The functions a layer defines and exports (generator functions excluded)."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not inspect.isgeneratorfunction(fn):
            out[name] = fn
    return out


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every layer's public functions wherever the package binds them."""
    modules = {layer: importlib.import_module(f"schoenberg.{layer}") for layer in LAYERS}
    package = [m for name, m in sys.modules.items() if name == "schoenberg" or name.startswith("schoenberg.")]
    patched = []
    try:
        for layer, module in modules.items():
            for name, fn in public_functions(module).items():
                qualified = f"{layer}.{name}"
                wrapper = tracer.wrap(fn, qualified, layer, _rows if qualified in SOLVES else None)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _has_ancestor(node, names) -> bool:
    node = node.parent
    while node is not None:
        if node.name in names:
            return True
        node = node.parent
    return False


def _times(tracer: Tracer) -> tuple[dict, dict]:
    """Self time per layer, and inclusive time per function over its outermost spans."""
    self_s, inclusive = defaultdict(float), defaultdict(float)
    for node in tracer.nodes():
        self_s[node.layer] += node.self_time
        if not _has_ancestor(node, {node.name}):
            inclusive[node.name] += node.total
    return self_s, inclusive


def layer_metrics(tracer: Tracer, invocations: int, items: int) -> dict:
    """Per-invocation layer metrics from the call tree of ``invocations`` runs."""
    self_s, inclusive = _times(tracer)
    calls = Counter()
    solve_calls = solve_rows = solve_errors = 0
    solve_s = 0.0
    ascent_solves = 0
    for node in tracer.nodes():
        calls[node.name] += node.count
        if node.name in SOLVES and node.parent.layer != "rootfind":
            solve_calls += node.count
            solve_rows += node.rows
            solve_s += node.total
            solve_errors += node.errors["ConvergenceError"]
            if _has_ancestor(node, {"search.maximize"}):
                ascent_solves += node.count

    per = 1.0 / invocations
    return {
        "cli.self_s": self_s["cli"] * per,
        "inequalities.self_s": self_s["inequalities"] * per,
        "inequalities.make_report.calls": calls["inequalities.make_report"] * per,
        "inequalities.single_eval.calls": sum(calls[n] for n in SINGLE_EVALS) * per,
        "rootfind.self_s": self_s["rootfind"] * per,
        "rootfind.calls": solve_calls * per,
        "rootfind.rows": solve_rows * per,
        "rootfind.rows_per_config": _ratio(solve_rows, items * invocations),
        "rootfind.rows_per_call": _ratio(solve_rows, solve_calls),
        "rootfind.ms_per_row": 1e3 * _ratio(solve_s, solve_rows),
        "rootfind.convergence_errors": solve_errors * per,
        "rootfind.moduli_s": sum(inclusive[n] for n in MODULI) * per,
        "poly.from_roots.s": inclusive["poly.from_roots"] * per,
        "poly.as_zeros.calls": calls["poly.as_zeros"] * per,
        "search.sample_s": sum(inclusive[n] for n in SAMPLERS) * per,
        "search.sample_one.calls": calls["search.sample_one"] * per,
        "search.maximize.self_s": sum(n.self_time for n in tracer.nodes() if n.name == "search.maximize") * per,
        "search.solves_per_ascent": _ratio(ascent_solves, calls["search.maximize"]),
        "search.verify_candidate.calls": calls["search.verify_candidate"] * per,
        "sendov.self_s": self_s["sendov"] * per,
        "sendov.check_special_case.calls": calls["sendov.check_special_case"] * per,
        "sendov.probe_m_minus2.calls": calls["sendov.probe_m_minus2"] * per,
        "matrices.self_s": self_s["matrices"] * per,
        "matrices.verify_spectrum.calls": calls["matrices.verify_spectrum"] * per,
        "matrices.char_poly.s": inclusive["matrices.char_poly"] * per,
        "matrices.eigenvalues.s": inclusive["matrices.eigenvalues"] * per,
        "matrices.trace_word.calls": calls["matrices.trace_word"] * per,
    }


def shares(tracer: Tracer) -> dict:
    """Each layer's self time and each function's inclusive time, as shares of all traced time."""
    self_s, inclusive = _times(tracer)
    total = sum(n.total for n in tracer.root.children.values())
    return {
        "layer_self": {layer: _ratio(self_s[layer], total) for layer in LAYERS},
        "function_inclusive": {
            name: _ratio(t, total) for name, t in sorted(inclusive.items(), key=lambda kv: -kv[1])
        },
    }


def _uniform_disk(rng, b: int, n: int) -> np.ndarray:
    return np.sqrt(rng.uniform(size=(b, n))) * np.exp(2j * np.pi * rng.uniform(size=(b, n)))


def solver_grid(seed: int) -> dict:
    """Median ms per row of ``critical_points_batch`` on uniform-disk inputs."""
    from schoenberg.rootfind import critical_points_batch

    out = {}
    for n, b in GRID:
        rng = np.random.default_rng([seed, n, b])
        inputs = [_uniform_disk(rng, b, n) for _ in range(64 if b == 1 else 1)]
        times = []
        while not times or sum(times) < GRID_MIN_SECONDS:
            z = inputs[len(times) % len(inputs)]
            start = time.perf_counter()
            critical_points_batch(z)
            times.append(time.perf_counter() - start)
        out[f"rootfind.grid.ms_per_row.n{n}.b{b}"] = 1e3 * statistics.median(times) / b
    return out
