"""Layer-boundary wrappers for the traced run, and the metrics they give.

:func:`install` replaces the public functions and methods at each layer
boundary of ``repro`` with span-recording wrappers (nothing under
``src/`` changes; the wrappers live here and are removed by the
returned undo function).  :func:`layer_metrics` turns the recorded
spans into the per-layer metrics listed in ``BENCHMARK.json``.

Span names are ``<layer>.<call>``; the layers are the package's
modules: ``kernels``, ``core``, ``planner``, ``quadtree``, ``parallel``,
``service``, ``results``, ``cache`` and ``incremental``.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Any, Callable

from measure import tail
from spans import Span, SpanRecorder, ancestors, self_times

LAYERS = (
    "kernels", "core", "planner", "quadtree", "parallel", "service",
    "results", "cache", "incremental",
)

#: Classes whose planner predictions are scored separately.
PLAN_CLASSES = ("plain", "weighted", "cross", "approx", "rebucket", "batch")

_KERNEL_FUNCS = (
    "bin_gathered_pairs", "bin_dense_self", "bin_dense_cross",
    "bin_gathered_pairs_weighted", "bin_dense_self_weighted",
    "bin_dense_cross_weighted",
)


def _stats_counts(stats: Any) -> tuple[int, int, int, int]:
    if stats is None:
        return (0, 0, 0, 0)
    return (
        stats.total_resolve_calls,
        stats.total_resolved_pairs,
        stats.distance_computations,
        stats.approximated_pairs,
    )


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that unwraps."""
    import repro
    import repro.planner as planner
    from repro import kernels
    from repro.core import brute_force, query
    from repro.core.dm_sdh_grid import GridSDHEngine
    from repro.incremental import delta
    from repro.parallel import engine as parallel_engine
    from repro.quadtree.grid import GridPyramid
    from repro.service.cache import PlanCache
    from repro.service.executor import QueryExecutor
    from repro.service.results import ResultCache

    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Callable) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def traced(owner: Any, attr: str, name: str, after=None) -> None:
        patch(owner, attr, recorder.wrap(getattr(owner, attr), name, after))

    def counted(owner: Any, attr: str, name: str,
                stats_of: Callable[[tuple, dict], Any]) -> None:
        """Span whose attributes are the SDHStats counters it added."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stats = stats_of(args, kwargs)
            before = _stats_counts(stats)
            with recorder.span(name) as span:
                result = original(*args, **kwargs)
                after = _stats_counts(stats)
                span.attrs.update(zip(
                    ("resolve_calls", "resolved_pairs", "distances",
                     "approx_pairs"),
                    (a - b for a, b in zip(after, before)),
                ))
                return result

        patch(owner, attr, wrapper)

    # -- kernels: every backend function returns (bins, distances) ----
    backends = [kernels.get_backend("numpy")]
    if kernels.NUMBA_AVAILABLE:
        backends.append(kernels.get_backend("numba"))
    for backend in backends:
        for fname in _KERNEL_FUNCS:
            traced(backend, fname, f"kernels.{fname}", after=_kernel_attrs)

    # -- core: engines and the query entry points ----------------------
    counted(GridSDHEngine, "run", "core.grid_run",
            lambda args, kwargs: args[0].stats)
    for owner in (brute_force, query):
        counted(owner, "brute_force_sdh", "core.brute",
                lambda args, kwargs: kwargs.get("stats"))
    counted(brute_force, "brute_force_cross_sdh", "core.brute",
            lambda args, kwargs: kwargs.get("stats"))
    for owner in (repro, query):
        traced(owner, "compute_sdh", "core.query")
    traced(query.SDHQuery, "run", "core.query")

    # -- planner, quadtree, parallel -----------------------------------
    traced(planner, "plan_request", "planner.plan", after=_plan_attrs)
    traced(GridPyramid, "__init__", "quadtree.build")
    traced(parallel_engine, "parallel_sdh", "parallel.run")

    # -- incremental ---------------------------------------------------
    traced(delta.IncrementalSDH, "__init__", "incremental.base")
    original_advance = delta.IncrementalSDH.advance

    @functools.wraps(original_advance)
    def advance(self: Any, frame: Any) -> Any:
        moved_before = self.moved_total
        with recorder.span("incremental.advance") as span:
            result = original_advance(self, frame)
            k = self.moved_total - moved_before
            n = frame.size
            # update_histogram removes and re-adds every pair touching a
            # moved particle: cross(moved, static) + intra(moved), twice.
            span.attrs.update(
                moved=k, distances=2 * (k * (n - k) + k * (k - 1) // 2)
            )
            return result

    patch(delta.IncrementalSDH, "advance", advance)
    traced(delta, "update_histogram", "incremental.update")

    # -- service: executor, result cache, plan cache --------------------
    original_submit = QueryExecutor.submit

    @functools.wraps(original_submit)
    def submit(self: Any, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        with recorder.span("service.submit"):
            submitted = time.perf_counter()

            def run(*a: Any, **k: Any) -> Any:
                wait = time.perf_counter() - submitted
                with recorder.span("service.run", wait=wait):
                    return fn(*a, **k)

            return original_submit(self, run, *args, **kwargs)

    patch(QueryExecutor, "submit", submit)
    traced(ResultCache, "fetch", "results.fetch",
           after=lambda span, a, k, result: span.attrs.update(
               outcome=result[1]))
    traced(ResultCache, "get", "results.get")
    traced(PlanCache, "get_or_build", "cache.get_or_build")

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _kernel_attrs(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    distances = int(result[1])
    dim = int(args[0].shape[1])
    # Computed, not measured: each distance reads two float64 points
    # (and two float64 weights in the weighted kernels).
    per = 2 * dim * 8 + (16 if span.name.endswith("_weighted") else 0)
    span.attrs.update(distances=distances, bytes=distances * per)


def _plan_attrs(span: Span, args: tuple, kwargs: dict, plan: Any) -> None:
    span.attrs.update(
        engine=plan.engine,
        mode=plan.mode,
        predicted_s=float(plan.chosen.estimate.seconds),
    )


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric the traced run reports, with its unit.
SPAN_METRICS: dict[str, str] = {
    "kernels.calls": "count",
    "kernels.s": "s",
    "kernels.distances": "count",
    "kernels.distances_per_s": "1/s",
    "kernels.bytes_computed": "bytes",
    "kernels.weighted_s": "s",
    "core.frontier_s": "s",
    "core.resolve_calls": "count",
    "core.resolved_ratio": "fraction",
    "core.distance_computations": "count",
    "core.approx_pairs": "count",
    "planner.calls": "count",
    "planner.plan_ms_p50": "ms",
    "planner.mispredict_factor": "ratio",
    **{f"planner.mispredict_factor.{c}": "ratio" for c in PLAN_CLASSES},
    "planner.chose_grid": "count",
    "planner.chose_brute": "count",
    "planner.chose_adm": "count",
    "planner.chose_parallel": "count",
    "quadtree.builds": "count",
    "quadtree.build_s": "s",
    "parallel.calls": "count",
    "parallel.s": "s",
    "service.executor_wait_ms_p50": "ms",
    "service.executor_wait_ms_p95": "ms",
    "service.executor_run_ms_p50": "ms",
    "cache.build_s": "s",
    "incremental.advance_ms_p50": "ms",
    "incremental.moved_per_frame": "count",
    "incremental.distances_per_frame": "count",
    "incremental.base_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The :data:`SPAN_METRICS` values recorded in ``spans``.

    Metrics of a layer the run never entered are 0.
    """
    by_layer: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)
    own = self_times(spans)
    up = ancestors(spans)
    out: dict[str, float] = {}

    kern = by_layer["kernels"]
    kernel_s = sum(s.duration for s in kern)
    distances = sum(s.attrs["distances"] for s in kern)
    out.update({
        "kernels.calls": len(kern),
        "kernels.s": kernel_s,
        "kernels.distances": distances,
        "kernels.distances_per_s": distances / kernel_s if kernel_s else 0.0,
        "kernels.bytes_computed": sum(s.attrs["bytes"] for s in kern),
        "kernels.weighted_s": sum(
            s.duration for s in kern if s.name.endswith("_weighted")
        ),
    })

    engines = [s for s in by_layer["core"]
               if s.name in ("core.grid_run", "core.brute")]
    examined = sum(s.attrs["resolve_calls"] for s in engines)
    out.update({
        "core.frontier_s": sum(
            own[s.id] for s in engines if s.name == "core.grid_run"
        ),
        "core.resolve_calls": examined,
        "core.resolved_ratio": (
            sum(s.attrs["resolved_pairs"] for s in engines) / examined
            if examined else 0.0
        ),
        "core.distance_computations": sum(
            s.attrs["distances"] for s in engines
        ),
        "core.approx_pairs": sum(s.attrs["approx_pairs"] for s in engines),
    })

    plans = by_layer["planner"]
    out.update({
        "planner.calls": len(plans),
        "planner.plan_ms_p50": _median([s.duration * 1e3 for s in plans]),
        "planner.chose_grid": sum(
            s.attrs["engine"] == "grid" and s.attrs["mode"] == "exact"
            for s in plans
        ),
        "planner.chose_brute": sum(s.attrs["engine"] == "brute"
                                   for s in plans),
        "planner.chose_adm": sum(s.attrs["mode"] == "adm" for s in plans),
        "planner.chose_parallel": sum(s.attrs["engine"] == "parallel"
                                      for s in plans),
    })
    out.update(_mispredict_factor(spans, plans, up))

    builds = by_layer["quadtree"]
    out.update({
        "quadtree.builds": len(builds),
        "quadtree.build_s": sum(s.duration for s in builds),
        "parallel.calls": len(by_layer["parallel"]),
        "parallel.s": sum(s.duration for s in by_layer["parallel"]),
        "cache.build_s": sum(
            s.duration for s in builds
            if any(a.name == "cache.get_or_build" for a in up(s))
        ),
    })

    runs = [s for s in by_layer["service"] if s.name == "service.run"]
    waits = [s.attrs["wait"] * 1e3 for s in runs]
    out.update({
        "service.executor_wait_ms_p50": _median(waits),
        "service.executor_wait_ms_p95": tail(waits).value if waits else 0.0,
        "service.executor_run_ms_p50": _median(
            [s.duration * 1e3 for s in runs]
        ),
    })

    advances = [s for s in by_layer["incremental"]
                if s.name == "incremental.advance"]
    bases = [s for s in by_layer["incremental"]
             if s.name == "incremental.base"]
    out.update({
        "incremental.advance_ms_p50": _median(
            [s.duration * 1e3 for s in advances]
        ),
        "incremental.moved_per_frame": (
            sum(s.attrs["moved"] for s in advances) / len(advances)
            if advances else 0.0
        ),
        "incremental.distances_per_frame": (
            sum(s.attrs["distances"] for s in advances) / len(advances)
            if advances else 0.0
        ),
        "incremental.base_s": _median([s.duration for s in bases]),
    })

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(own[s.id] for s in by_layer[layer])
    return out


def _mispredict_factor(spans: list[Span], plans: list[Span],
                       up: Callable) -> dict[str, float]:
    """How many times the chosen plan's predicted seconds are off the
    engine seconds measured, either way: ``max(r, 1/r)`` of the ratio
    ``r`` of predicted to measured seconds.  1 is a perfect prediction;
    0 means no request of the class was planned and run.

    Engine seconds of a request are the time of its outermost query
    calls (``compute_sdh`` / ``SDHQuery.run``) minus the planning done
    inside them.  Requests are grouped by class, the prefix of the
    request id (``<class>-<n>``).
    """
    predicted: dict[str, float] = {}
    actual: dict[str, float] = {}
    for s in plans:
        predicted[s.request] = (
            predicted.get(s.request, 0.0) + s.attrs["predicted_s"]
        )
    for s in spans:
        if s.name != "core.query" or s.request not in predicted:
            continue
        if any(a.name == "core.query" for a in up(s)):
            continue
        actual[s.request] = actual.get(s.request, 0.0) + s.duration
    for s in plans:
        if s.request in actual and any(
            a.name == "core.query" for a in up(s)
        ):
            actual[s.request] -= s.duration

    def factor(requests: list[str]) -> float:
        num = sum(predicted[r] for r in requests)
        den = sum(actual[r] for r in requests)
        if num <= 0 or den <= 0:
            return 0.0
        return max(num / den, den / num)

    scored = [r for r in actual if r is not None]
    out = {"planner.mispredict_factor": factor(scored)}
    for cls in PLAN_CLASSES:
        out[f"planner.mispredict_factor.{cls}"] = factor(
            [r for r in scored if r.split("-", 1)[0] == cls]
        )
    return out


def server_time(spans: list[Span]) -> dict[str, float]:
    """Seconds each request spent in the server's outermost spans."""
    out: dict[str, float] = {}
    for s in spans:
        if s.parent is None and s.request is not None:
            out[s.request] = out.get(s.request, 0.0) + s.duration
    return out

