"""In-memory span tracing of l1kernels' public entry points, from outside.

Nothing under ``src/`` is edited: :func:`install` replaces each traced
function or method with a wrapper, in every ``l1kernels`` module namespace
that holds it (callers look functions up through their own module, so a
function re-exported from the package is patched in each place).  Each call
records one span: name, layer, start, end, parent span and the operation it
belongs to.  A layer's self time is the time of its spans minus the time of
their direct child spans, so the self times of all layers plus the time
outside any span add up to the traced wall time.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
import scipy.linalg

# (layer, owner path, attribute).  Owners are modules or classes; a dotted
# owner is resolved from the l1kernels package.
TRACED = [
    ("kernels", "kernels.KernelSpec", "eval"),
    ("gram", "gram", "build_system"),
    ("gram", "gram.GramSystem", "cardinal_matrix"),
    ("gram", "gram.GramSystem", "cardinal_coefficients"),
    ("admissibility", "admissibility", "audit_a1"),
    ("admissibility", "admissibility", "audit_a2"),
    ("admissibility", "admissibility", "audit_a4"),
    ("admissibility", "admissibility", "audit_relaxed_a4"),
    ("admissibility", "admissibility", "lebesgue_constant"),
    ("interpolation", "interpolation", "min_norm_interpolant_b"),
    ("interpolation", "interpolation.ExpansionFunction", "bnorm"),
    ("interpolation", "interpolation.ExpansionFunction", "evaluate"),
    ("interpolation", "admissibility", "extension_norm"),
    ("solvers", "solvers.LassoSolver", "__init__"),
    ("solvers", "solvers.LassoSolver", "solve"),
    ("solvers", "solvers.RidgeSolver", "solve"),
    ("solvers", "solvers", "lasso_gram"),
    ("solvers", "solvers", "ridge_gram"),
    ("experiment", "experiment", "run_experiment"),
    ("experiment", "experiment", "run_trial"),
]

class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "child_s", "info")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _describe(name, args, result, span):
    """Exact counts read from a traced call's arguments or result."""
    info = span.info
    if name == "KernelSpec.eval":
        info["entries"] = int(np.size(result))
    elif name == "GramSystem.cardinal_matrix":
        info["columns"] = int(np.size(args[1]))
    elif name == "GramSystem.cardinal_coefficients":
        info["columns"] = 1
    elif name == "ExpansionFunction.evaluate":
        info["points"] = int(np.size(args[1]))
    elif name == "LassoSolver.solve":
        info["iterations"] = int(result.iterations)
        info["converged"] = bool(result.converged)
    elif name == "run_experiment":
        info["trials"] = len(result.records)
    elif name.startswith("audit_") and name != "audit_a2":
        info["trials"] = int(result.stats.n_trials)
        info["skipped"] = skipped_trials(result)
        info["inconclusive"] = result.verdict.value == "inconclusive"


def skipped_trials(report) -> int:
    """Singular-Gram skips of an audit; the count exists only in the message."""
    message = report.message or ""
    if "trials skipped" in message:
        return int(message.split(" of ", 1)[0])
    if report.verdict.value == "inconclusive" and "every sampled Gram" in message:
        return int(report.stats.n_trials)
    return 0


class Tracer:
    """Records spans in memory while installed; see :func:`install`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name, layer) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, layer, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def wrap(self, name, layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            _describe(name, args, result, span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ----------------------------------------------------

    def install(self, lk) -> None:
        for layer, owner_path, attr in TRACED:
            owner = _resolve(lk, owner_path)
            original = getattr(owner, attr)
            label = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
            wrapper = self.wrap(label, layer, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # a module-level function: patch every l1kernels namespace holding it
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "l1kernels" and getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

        lu_factor = scipy.linalg.lu_factor
        tracer = self

        def counted_lu_factor(*args, **kwargs):
            if tracer.stack:
                info = tracer.stack[-1].info
                info["lu_factor"] = info.get("lu_factor", 0) + 1
            return lu_factor(*args, **kwargs)

        self._patch(scipy.linalg, "lu_factor", counted_lu_factor)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def to_json(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": index[id(s.parent)] if s.parent is not None else None,
                "op": s.op,
                **s.info,
            }
            for s in self.spans
        ]

    def layer_metrics(self, spans=None) -> dict:
        """Per-layer metrics of the given spans (default: all), named as in
        BENCHMARK.json's per_layer list; times are self times in seconds."""
        spans = self.spans if spans is None else spans
        by_name: dict[str, list[Span]] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def named(*names):
            return [s for n in names for s in by_name.get(n, [])]

        def self_s(*names):
            return sum(s.self_s for s in named(*names))

        def layer_self(layer):
            return sum(s.self_s for s in spans if s.layer == layer)

        solves = named("LassoSolver.solve")
        solve_s = sorted(s.duration for s in solves)
        converged = sum(1 for s in solves if s.info.get("converged"))
        audits = named("audit_a1", "audit_a4", "audit_relaxed_a4")
        profiling = named("audit_a4", "audit_relaxed_a4")
        profiled_trials = sum(s.info.get("trials", 0) - s.info.get("skipped", 0) for s in profiling)
        profiling_trials = sum(s.info.get("trials", 0) for s in profiling)
        metrics = {
            "kernels.eval_calls": len(named("KernelSpec.eval")),
            "kernels.eval_entries": sum(s.info.get("entries", 0) for s in named("KernelSpec.eval")),
            "kernels.eval_s": layer_self("kernels"),
            "gram.builds": len(named("build_system")),
            "gram.build_s": self_s("build_system"),
            "gram.singular_rejects": sum(
                1 for s in named("build_system") if s.info.get("error") == "SingularGram"
            ),
            "gram.cardinal_columns": sum(
                s.info.get("columns", 0)
                for s in named("GramSystem.cardinal_matrix", "GramSystem.cardinal_coefficients")
            ),
            "gram.cardinal_s": self_s("GramSystem.cardinal_matrix", "GramSystem.cardinal_coefficients"),
            "gram.self_s": layer_self("gram"),
            "admissibility.audit_calls": len(named("audit_a1", "audit_a2", "audit_a4", "audit_relaxed_a4")),
            "admissibility.audit_trials": sum(s.info.get("trials", 0) for s in audits),
            "admissibility.skipped_trials": sum(s.info.get("skipped", 0) for s in audits),
            "admissibility.useful_ratio": profiled_trials / profiling_trials if profiling_trials else 0.0,
            "admissibility.self_s": layer_self("admissibility"),
            "interpolation.interpolant_s": self_s(
                "min_norm_interpolant_b", "ExpansionFunction.bnorm", "ExpansionFunction.evaluate"
            ),
            "interpolation.extension_s": self_s("extension_norm"),
            "interpolation.eval_points": sum(s.info.get("points", 0) for s in named("ExpansionFunction.evaluate")),
            "interpolation.self_s": layer_self("interpolation"),
            "solvers.lasso_solves": len(solves),
            "solvers.lasso_iterations": sum(s.info.get("iterations", 0) for s in solves),
            "solvers.lasso_unconverged": len(solves) - converged,
            "solvers.certified_ratio": converged / len(solves) if solves else 0.0,
            "solvers.lasso_s": self_s("LassoSolver.solve", "lasso_gram"),
            "solvers.lasso_solve_s_p50": quantile(solve_s, 0.5),
            "solvers.lasso_solve_s_p90": quantile(solve_s, 0.9),
            "solvers.lasso_setup_calls": len(named("LassoSolver.__init__")),
            "solvers.lasso_setup_s": self_s("LassoSolver.__init__"),
            "solvers.ridge_solves": len(named("RidgeSolver.solve")),
            "solvers.ridge_factorizations": sum(s.info.get("lu_factor", 0) for s in named("RidgeSolver.solve")),
            "solvers.ridge_s": self_s("RidgeSolver.solve", "ridge_gram"),
            "solvers.self_s": layer_self("solvers"),
            "experiment.trials": len(named("run_trial"))
            + sum(s.info.get("trials", 0) for s in named("run_experiment")),
            "experiment.self_s": layer_self("experiment"),
            "bench.self_s": layer_self("bench"),
            "trace.spans": len(spans),
        }
        return metrics

    def per_operation(self, ops: int) -> dict:
        """layer_metrics() per traced operation; ratios and percentiles as they are."""
        return {
            k: v if (k.endswith("_ratio") or "_s_p" in k) else v / ops
            for k, v in self.layer_metrics().items()
        }

    def exact_counts(self, keep) -> dict:
        """The count metrics (no times) over the spans for which keep(span) holds."""
        metrics = self.layer_metrics([s for s in self.spans if keep(s)])
        return {k: v for k, v in metrics.items() if not (k.endswith("_s") or "_s_p" in k)}

    def wall_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Traced against untraced wall time of the same operations."""
        in_spans = sum(s.duration for s in self.spans if s.parent is None)
        return {
            "trace.wall_s": traced_wall_s,
            "trace.untraced_wall_s": untraced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
            "trace.overhead_share": traced_wall_s / untraced_wall_s - 1.0,
            "trace.outside_spans_s": traced_wall_s - in_spans,
        }


def _resolve(lk, path):
    obj = lk
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def quantile(sorted_values, q):
    """Interpolated quantile of a sorted sample; 0.0 for an empty sample."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]
