import itertools
import json
import os

import numpy as np
import pytest

from spans import SpanRecorder, covered, self_times


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # parent [0, 10] holding child [1, 3] which holds grandchild [2, 2.5]
    rec = SpanRecorder(clock=fake_clock([0, 1, 2, 2.5, 3, 10]))
    with rec.span("a.parent"):
        with rec.span("b.child"):
            with rec.span("c.grandchild"):
                pass
    own = {s.name: t for s, t in
           ((s, self_times(rec.spans)[s.id]) for s in rec.spans)}
    assert own == pytest.approx(
        {"a.parent": 8.0, "b.child": 1.5, "c.grandchild": 0.5}
    )


def test_self_time_counts_overlapping_children_once():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5.0
    # A child outliving its parent only counts inside the parent.
    assert covered([(8, 12)], 0, 10) == 2.0
    assert covered([], 0, 10) == 0.0


def test_children_inherit_parent_and_request():
    rec = SpanRecorder()
    with rec.span("op", request="plain-1") as root:
        with rec.span("core.query") as child:
            pass
    assert child.parent == root.id
    assert child.request == "plain-1"
    assert root.parent is None
    assert child.layer == "core"


def test_root_request_comes_from_the_source():
    rec = SpanRecorder(request_source=lambda: "trace-7")
    with rec.span("results.fetch") as span:
        pass
    assert span.request == "trace-7"


def test_parent_links_onto_executor_worker_threads():
    from layers import install
    from repro.service.executor import QueryExecutor

    rec = SpanRecorder()
    uninstall = install(rec)
    try:
        with QueryExecutor(max_workers=2, max_queue=0) as executor:
            def work():
                with rec.span("core.work"):
                    return 42

            with rec.span("op", request="rebucket-3") as root:
                assert executor.submit(work, timeout=10) == 42
    finally:
        uninstall()
    by_name = {s.name: s for s in rec.spans}
    submit, run, work = (by_name["service.submit"], by_name["service.run"],
                         by_name["core.work"])
    assert submit.parent == root.id
    assert run.parent == submit.id
    assert work.parent == run.id
    assert work.request == "rebucket-3"
    assert run.attrs["wait"] >= 0.0


def _traced_counts():
    """Count metrics of one fixed, seeded batch of library calls."""
    import repro
    from layers import install, layer_metrics
    from repro import AABB, ParticleSet, SDHRequest
    from repro.incremental.delta import IncrementalSDH

    rng = np.random.default_rng(5)
    data = ParticleSet(rng.uniform(0, 1, (900, 2)), AABB.cube(1.0, 2))
    moved = data.positions.copy()
    moved[:9] *= 0.999
    rec = SpanRecorder()
    uninstall = install(rec)
    try:
        for l in (4, 16, 64):
            repro.compute_sdh(data, SDHRequest(num_buckets=l))
        repro.compute_sdh(
            data, SDHRequest(num_buckets=16, error_bound=0.1), rng=1
        )
        spec = SDHRequest(num_buckets=16).resolved_spec(data)
        IncrementalSDH(spec, data).advance(ParticleSet(moved, data.box))
    finally:
        uninstall()
    metrics = layer_metrics(rec.spans)
    return {name: metrics[name] for name in EXACT_COUNTS}


#: The per-layer counts that must repeat exactly on the same inputs.
EXACT_COUNTS = (
    "kernels.calls", "kernels.distances", "kernels.bytes_computed",
    "core.resolve_calls", "core.distance_computations", "core.approx_pairs",
    "planner.calls", "planner.chose_grid", "planner.chose_brute",
    "planner.chose_adm", "planner.chose_parallel", "quadtree.builds",
    "incremental.moved_per_frame", "incremental.distances_per_frame",
)


def test_counts_repeat_exactly_on_the_same_inputs():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["kernels.distances"] > 0
    assert first["core.resolve_calls"] > 0
    assert first["planner.calls"] == 4
    assert first["incremental.moved_per_frame"] == 9
    assert first["incremental.distances_per_frame"] == 2 * (
        9 * (900 - 9) + 9 * 8 // 2
    )


def test_install_is_undone():
    import repro
    from layers import install

    before = repro.compute_sdh
    install(SpanRecorder())()
    assert repro.compute_sdh is before


def test_benchmark_json_matches_the_harness():
    import run

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END.items()
    )
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.per_layer_units()
    for metric in itertools.chain(bench["end_to_end"], bench["per_layer"]):
        assert metric["better"] in ("higher", "lower")
