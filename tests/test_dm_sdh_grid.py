"""Tests for repro.core.dm_sdh_grid internals and edge cases."""

import importlib

import numpy as np
import pytest

from repro.core import (
    GridSDHEngine,
    OverflowPolicy,
    SDHStats,
    UniformBuckets,
    brute_force_sdh,
    dm_sdh_grid,
    make_allocator,
)
from repro.core.brute_force import brute_force_cross_sdh
from repro.data import ParticleSet, uniform
from repro.errors import DistanceOverflowError, QueryError
from repro.quadtree import GridPyramid

# The module, not the function repro.core re-exports under its name.
grid_module = importlib.import_module("repro.core.dm_sdh_grid")


class TestChunkInvariance:
    """Results must not depend on internal batching sizes."""

    def test_pair_chunk(self):
        data = uniform(400, dim=2, rng=61)
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        pyramid = GridPyramid(data)
        baseline = dm_sdh_grid(pyramid, spec=spec)
        tiny = GridSDHEngine(
            pyramid, spec=spec, pair_chunk=17, distance_chunk=13
        ).run()
        np.testing.assert_array_equal(baseline.counts, tiny.counts)

    def test_stats_invariant_under_chunking(self):
        data = uniform(300, dim=2, rng=62)
        spec = UniformBuckets.with_count(data.max_possible_distance, 4)
        pyramid = GridPyramid(data)
        s1, s2 = SDHStats(), SDHStats()
        GridSDHEngine(pyramid, spec=spec, stats=s1).run()
        GridSDHEngine(
            pyramid, spec=spec, stats=s2, pair_chunk=19, distance_chunk=11
        ).run()
        assert s1.resolve_calls == s2.resolve_calls
        assert s1.resolved_pairs == s2.resolved_pairs
        assert s1.distance_computations == s2.distance_computations


class TestPolicies:
    def test_overflow_raises_for_short_spec(self):
        data = uniform(100, dim=2, rng=63)
        short = UniformBuckets(
            data.max_possible_distance / 8, 2
        )  # covers a quarter of the diagonal
        with pytest.raises(DistanceOverflowError):
            dm_sdh_grid(data, spec=short)

    def test_clamp_matches_brute_force(self):
        data = uniform(200, dim=2, rng=64)
        short = UniformBuckets(data.max_possible_distance / 6, 3)
        got = dm_sdh_grid(data, spec=short, policy=OverflowPolicy.CLAMP)
        expected = brute_force_sdh(
            data, spec=short, policy=OverflowPolicy.CLAMP
        )
        np.testing.assert_array_equal(expected.counts, got.counts)
        assert got.total == data.num_pairs

    def test_drop_matches_brute_force(self):
        data = uniform(200, dim=2, rng=65)
        short = UniformBuckets(data.max_possible_distance / 6, 3)
        got = dm_sdh_grid(data, spec=short, policy=OverflowPolicy.DROP)
        expected = brute_force_sdh(
            data, spec=short, policy=OverflowPolicy.DROP
        )
        np.testing.assert_array_equal(expected.counts, got.counts)
        assert got.total < data.num_pairs


class TestNonzeroR0:
    def test_custom_low_edge_matches_brute_force(self):
        """r0 > 0 queries drop short distances, per the problem
        statement's generalization."""
        from repro.core import CustomBuckets

        data = uniform(250, dim=2, rng=66)
        diag = data.max_possible_distance
        spec = CustomBuckets(
            [0.2 * diag, 0.4 * diag, 0.7 * diag, diag]
        )
        got = dm_sdh_grid(data, spec=spec)
        expected = brute_force_sdh(data, spec=spec)
        np.testing.assert_array_equal(expected.counts, got.counts)

    def test_nonuniform_buckets_match(self):
        from repro.core import CustomBuckets

        data = uniform(250, dim=2, rng=67)
        diag = data.max_possible_distance
        spec = CustomBuckets(
            [0.0, 0.05 * diag, 0.3 * diag, 0.35 * diag, diag]
        )
        got = dm_sdh_grid(data, spec=spec)
        expected = brute_force_sdh(data, spec=spec)
        np.testing.assert_array_equal(expected.counts, got.counts)
        assert got.total == data.num_pairs


class TestApproximateModeGuards:
    def test_stop_without_allocator_rejected(self):
        data = uniform(100, rng=0)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 4)
        with pytest.raises(QueryError):
            GridSDHEngine(pyramid, spec=spec, stop_after_levels=2)

    def test_allocator_without_stop_rejected(self):
        data = uniform(100, rng=0)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 4)
        with pytest.raises(QueryError):
            GridSDHEngine(pyramid, spec=spec, allocator=make_allocator(3))

    def test_negative_stop_rejected(self):
        data = uniform(100, rng=0)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 4)
        with pytest.raises(QueryError):
            GridSDHEngine(
                pyramid,
                spec=spec,
                stop_after_levels=-1,
                allocator=make_allocator(3),
            )


class TestStats:
    def test_mass_accounting(self):
        """Resolved + computed + approximated == all pairs."""
        data = uniform(500, dim=2, rng=68)
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        stats = SDHStats()
        h = dm_sdh_grid(data, spec=spec, stats=stats)
        resolved = sum(stats.resolved_distances.values())
        intra = h.counts[0]  # includes the bucket-0 shortcut mass
        # resolved + computed covers everything outside the intra-cell
        # shortcut; total is conserved regardless.
        assert h.total == data.num_pairs
        assert resolved + stats.distance_computations <= data.num_pairs
        assert resolved + stats.distance_computations >= (
            data.num_pairs - intra
        )

    def test_levels_visited(self):
        """Exact runs visit the maps from the start level down to the
        dense level; ADM-SDH runs visit ``stop_after_levels`` maps below
        the start map, capped at the pyramid leaf, as before."""
        data = uniform(1000, dim=2, rng=69)
        spec = UniformBuckets.with_count(data.max_possible_distance, 2)
        pyramid = GridPyramid(data)
        stats = SDHStats()
        engine = GridSDHEngine(pyramid, spec=spec, stats=stats)
        engine.run()
        assert stats.start_level is not None
        assert stats.start_level < engine.dense_level < pyramid.leaf_level
        assert stats.levels_visited == (
            engine.dense_level - stats.start_level + 1
        )
        for stop in (0, 1, 10):
            adm = SDHStats()
            dm_sdh_grid(
                pyramid, spec=spec, stats=adm, stop_after_levels=stop,
                allocator=make_allocator("proportional"),
            )
            last = min(pyramid.leaf_level, adm.start_level + stop)
            assert adm.levels_visited == last - adm.start_level + 1

    def test_dense_sweep_when_nothing_resolves(self):
        """Buckets narrower than every cell: one dense sweep, no maps."""
        data = uniform(600, dim=2, rng=70)
        spec = UniformBuckets.with_count(data.max_possible_distance, 256)
        stats = SDHStats()
        hist = dm_sdh_grid(data, spec=spec, stats=stats)
        assert stats.start_level is None
        assert stats.levels_visited == 0
        assert stats.total_resolve_calls == 0
        assert stats.distance_computations == data.num_pairs
        assert type(stats.distance_computations) is int
        np.testing.assert_array_equal(
            hist.counts, brute_force_sdh(data, spec=spec).counts
        )


def _beta_for_level(n, dim, level):
    """A ``DENSE_BETA`` that puts the dense level at ``level``."""
    return n / 2 ** (dim * level) * 1.01 / 2 ** (dim - 2)


class TestDenseLevel:
    """Grid against brute force with the dense level D moved by
    monkeypatching its beta: D at the start level and one map below it
    (one dense sweep), two maps below it (the frontier stops mid-way)
    and at the pyramid leaf.  The slice sweep must reproduce every
    distance's bucket, so histograms are bit-identical."""

    N = 1500

    @pytest.fixture(params=["start", "below", "mid", "leaf"])
    def dense_at(self, request, monkeypatch):
        def place(data, spec, with_mbr=False, height=7, **kwargs):
            pyramid = GridPyramid(data, height=height, with_mbr=with_mbr)
            start = GridSDHEngine(pyramid, spec=spec, **kwargs)._start_level()
            assert start + 3 == pyramid.leaf_level
            target = start + ("start", "below", "mid", "leaf").index(
                request.param
            )
            monkeypatch.setattr(
                grid_module,
                "DENSE_BETA",
                _beta_for_level(data.size, data.dim, target),
            )
            stats = SDHStats()
            engine = GridSDHEngine(pyramid, spec=spec, stats=stats, **kwargs)
            assert engine.dense_level == target
            hist = engine.run()
            refined = request.param in ("mid", "leaf")
            assert (stats.start_level is not None) == refined
            assert stats.levels_visited == (target - start + 1) * refined
            return hist

        return place

    def _data(self, seed, weights=False, dim=2, n=N):
        data = uniform(n, dim=dim, rng=seed)
        if weights:
            w = np.random.default_rng(seed).uniform(-1.0, 3.0, data.size)
            data = data.with_weights(w)
        return data

    def test_plain(self, dense_at):
        data = self._data(81)
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        np.testing.assert_array_equal(
            dense_at(data, spec).counts,
            brute_force_sdh(data, spec=spec).counts,
        )

    def test_weighted(self, dense_at):
        data = self._data(82, weights=True)
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        np.testing.assert_array_equal(
            dense_at(data, spec).counts,
            brute_force_sdh(data, spec=spec).counts,
        )

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cross(self, dense_at, weighted):
        data = self._data(83, weights=weighted)
        split = 600
        a = data.select(np.arange(data.size) < split)
        b = data.select(np.arange(data.size) >= split)
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        np.testing.assert_array_equal(
            dense_at(data, spec, cross_split=split).counts,
            brute_force_cross_sdh(a, b, spec).counts,
        )

    def test_mbr(self, dense_at):
        data = self._data(84)
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        np.testing.assert_array_equal(
            dense_at(data, spec, with_mbr=True, use_mbr=True).counts,
            brute_force_sdh(data, spec=spec).counts,
        )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_periodic(self, dense_at, dim):
        data = self._data(85, dim=dim)
        spec = UniformBuckets.with_count(data.max_periodic_distance, 2)
        np.testing.assert_array_equal(
            dense_at(data, spec, height=6, periodic=True).counts,
            brute_force_sdh(data, spec=spec, periodic=True).counts,
        )

    @pytest.mark.parametrize("policy", list(OverflowPolicy)[1:])
    def test_short_spec_slow_path(self, dense_at, policy):
        """A spec that misses the far distances is not kernel-eligible:
        the open slices are binned through the spec and its policy."""
        data = self._data(86, weights=True, n=500)  # exact ints per pair
        spec = UniformBuckets(data.max_possible_distance / 6, 4)
        np.testing.assert_array_equal(
            dense_at(data, spec, policy=policy).counts,
            brute_force_sdh(data, spec=spec, policy=policy).counts,
        )
