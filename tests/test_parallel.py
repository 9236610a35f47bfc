"""Parallel DM-SDH engine: bit-identical results, shm hygiene.

The whole value proposition of ``engine="parallel"`` is that its merge
is *exact*: every partial count is an integral float64 far below 2^53,
so summing per-worker histograms in any order reproduces the serial
grid engine bit for bit.  These tests pin that across data families,
periodic boundaries, restricted varieties, and the nothing-resolves
(row-band-sharded dense sweep) code path — and verify that no run,
successful or failed, leaks a shared-memory segment.
"""

import numpy as np
import pytest

from repro import (
    BallRegion,
    DistanceOverflowError,
    OverflowPolicy,
    QueryError,
    SDHRequest,
    SDHStats,
    UniformBuckets,
    compute_sdh,
    build_plan,
    dm_sdh_grid,
    gaussian_clusters,
    parallel_sdh,
    random_types,
    uniform,
    zipf_clustered,
)
from repro.parallel import SharedArrayBundle, live_segments
from repro.parallel.shm import attach
from repro.quadtree import GridPyramid

WORKERS = 2


def _assert_same_stats(serial: SDHStats, parallel: SDHStats) -> None:
    assert parallel.start_level == serial.start_level
    assert parallel.levels_visited == serial.levels_visited
    assert parallel.resolve_calls == serial.resolve_calls
    assert parallel.resolved_pairs == serial.resolved_pairs
    assert parallel.resolved_distances == serial.resolved_distances
    assert parallel.distance_computations == serial.distance_computations


class TestBitIdentical:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: uniform(1500, dim=3, rng=11),
            lambda: uniform(1200, dim=2, rng=12),
            lambda: zipf_clustered(1000, dim=2, rng=13),
            lambda: gaussian_clusters(900, dim=3, rng=14),
        ],
        ids=["uniform3d", "uniform2d", "zipf2d", "gauss3d"],
    )
    def test_across_data_families(self, maker):
        data = maker()
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 12)
        serial_stats, parallel_stats = SDHStats(), SDHStats()
        reference = dm_sdh_grid(pyramid, spec=spec, stats=serial_stats)
        hist = parallel_sdh(
            pyramid, spec=spec, workers=WORKERS, stats=parallel_stats
        )
        np.testing.assert_array_equal(reference.counts, hist.counts)
        _assert_same_stats(serial_stats, parallel_stats)

    @pytest.mark.parametrize("buckets, frontier", [(2, True), (12, False)])
    def test_stats_match_serial(self, buckets, frontier):
        """Two buckets start two maps above the dense level (frontier
        shards); twelve start below it (row bands of the dense sweep)."""
        data = uniform(2000, dim=2, rng=15)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, buckets)
        serial_stats, parallel_stats = SDHStats(), SDHStats()
        reference = dm_sdh_grid(pyramid, spec=spec, stats=serial_stats)
        hist = parallel_sdh(
            pyramid, spec=spec, workers=WORKERS, stats=parallel_stats,
            fanout_pairs=1,
        )
        np.testing.assert_array_equal(reference.counts, hist.counts)
        _assert_same_stats(serial_stats, parallel_stats)
        assert (serial_stats.total_resolve_calls > 0) == frontier
        assert type(parallel_stats.distance_computations) is int

    def test_periodic(self):
        data = uniform(1000, dim=3, rng=21)
        reference = compute_sdh(
            data, SDHRequest(num_buckets=10, periodic=True)
        )
        hist = compute_sdh(
            data,
            SDHRequest(num_buckets=10, periodic=True, workers=WORKERS),
        )
        np.testing.assert_array_equal(reference.counts, hist.counts)

    def test_triangle_path_when_start_is_leaf(self):
        """Many narrow buckets force the start map down to the leaf map,
        below the dense level: workers sweep row bands of all pairs."""
        data = uniform(800, dim=2, rng=22)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 96)
        reference = dm_sdh_grid(pyramid, spec=spec)
        hist = parallel_sdh(pyramid, spec=spec, workers=WORKERS)
        np.testing.assert_array_equal(reference.counts, hist.counts)

    def test_restricted_region_and_types(self):
        data = random_types(
            uniform(1200, dim=2, rng=23), {"A": 0.6, "B": 0.4}, rng=23
        )
        for extra in (
            {"type_filter": "A"},
            {"type_pair": ("A", "B")},
            {"region": BallRegion([0.5, 0.5], 0.35)},
        ):
            reference = compute_sdh(data, SDHRequest(num_buckets=8, **extra))
            hist = compute_sdh(
                data, SDHRequest(num_buckets=8, workers=WORKERS, **extra)
            )
            np.testing.assert_array_equal(reference.counts, hist.counts)

    def test_plan_run_parallel_request(self):
        data = uniform(1000, dim=2, rng=24)
        plan = build_plan(data)
        reference = plan.run(SDHRequest(num_buckets=8))
        hist = plan.run(SDHRequest(num_buckets=8, workers=WORKERS))
        np.testing.assert_array_equal(reference.counts, hist.counts)

    def test_explicit_parallel_engine_name(self):
        data = uniform(600, dim=2, rng=25)
        reference = compute_sdh(data, SDHRequest(num_buckets=8))
        hist = compute_sdh(
            data,
            SDHRequest(num_buckets=8, engine="parallel", workers=WORKERS),
        )
        np.testing.assert_array_equal(reference.counts, hist.counts)

    def test_worker_count_does_not_change_counts(self):
        data = uniform(900, dim=3, rng=26)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 12)
        reference = dm_sdh_grid(pyramid, spec=spec)
        for workers in (2, 3):
            hist = parallel_sdh(pyramid, spec=spec, workers=workers)
            np.testing.assert_array_equal(reference.counts, hist.counts)


class TestInlineFallback:
    def test_single_worker_runs_without_pool(self):
        data = uniform(500, dim=2, rng=31)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        hist = parallel_sdh(pyramid, spec=spec, workers=1)
        np.testing.assert_array_equal(
            dm_sdh_grid(pyramid, spec=spec).counts, hist.counts
        )
        assert live_segments() == set()

    def test_invalid_workers_rejected(self):
        data = uniform(100, dim=2, rng=32)
        with pytest.raises(QueryError, match="workers"):
            parallel_sdh(GridPyramid(data), bucket_width=0.5, workers=0)


class TestSharedMemoryHygiene:
    def test_no_leak_after_success(self):
        data = uniform(800, dim=2, rng=41)
        parallel_sdh(
            GridPyramid(data), bucket_width=0.25, workers=WORKERS
        )
        assert live_segments() == set()

    def test_no_leak_after_worker_error(self):
        """A too-short spec with the RAISE policy blows up inside the
        workers; the parent must still unlink the segment."""
        data = uniform(800, dim=2, rng=42)
        spec = UniformBuckets(0.05, 3)  # reach 0.15 << box diagonal
        with pytest.raises(DistanceOverflowError):
            parallel_sdh(
                GridPyramid(data),
                spec=spec,
                workers=WORKERS,
                policy=OverflowPolicy.RAISE,
            )
        assert live_segments() == set()

    def test_bundle_round_trip(self):
        positions = np.random.default_rng(43).random((64, 3))
        starts = np.arange(10, dtype=np.int64)
        bundle = SharedArrayBundle(
            {"positions": positions, "leaf_starts": starts}
        )
        try:
            assert bundle.descriptor().segment in live_segments()
            views, handle = attach(bundle.descriptor())
            np.testing.assert_array_equal(views["positions"], positions)
            np.testing.assert_array_equal(views["leaf_starts"], starts)
            assert not views["positions"].flags.writeable
            del views
            handle.close()
        finally:
            bundle.unlink()
        assert live_segments() == set()

    def test_unlink_idempotent(self):
        bundle = SharedArrayBundle({"x": np.zeros(8)})
        bundle.unlink()
        bundle.unlink()
        assert live_segments() == set()

    def test_no_leak_under_repeated_midflight_failures(self):
        """Stress: several back-to-back runs that die inside the workers
        must each unlink their segment — one leaked permit-equivalent
        per failure would show up as a growing live set."""
        data = uniform(600, dim=2, rng=44)
        pyramid = GridPyramid(data)
        spec = UniformBuckets(0.05, 3)  # reach 0.15 << box diagonal
        for _ in range(3):
            with pytest.raises(DistanceOverflowError):
                parallel_sdh(
                    pyramid,
                    spec=spec,
                    workers=WORKERS,
                    policy=OverflowPolicy.RAISE,
                )
            assert live_segments() == set()
        # And a healthy run straight after still works and stays clean.
        parallel_sdh(pyramid, bucket_width=0.25, workers=WORKERS)
        assert live_segments() == set()

    def test_live_segment_gauge_returns_to_zero(self):
        from repro.observability import get_registry

        data = uniform(400, dim=2, rng=45)
        parallel_sdh(GridPyramid(data), bucket_width=0.3, workers=WORKERS)
        gauge = get_registry().get("sdh_shm_live_segments")
        assert gauge is not None
        assert gauge.value == 0
