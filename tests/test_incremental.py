"""Tests for repro.incremental (frame-to-frame SDH maintenance)."""

import numpy as np
import pytest

from repro.core import (
    CustomBuckets,
    OverflowPolicy,
    UniformBuckets,
    brute_force_sdh,
)
from repro.data import (
    ParticleSet,
    random_walk_trajectory,
    uniform,
)
from repro.errors import QueryError
from repro.kernels import get_backend
from repro.incremental import (
    IncrementalSDH,
    sdh_over_trajectory,
    update_histogram,
)


@pytest.fixture
def setup(rng):
    initial = uniform(150, dim=2, rng=rng)
    spec = UniformBuckets.with_count(initial.max_possible_distance, 6)
    base = brute_force_sdh(initial, spec=spec)
    return initial, spec, base


class TestUpdateHistogram:
    def test_exactness_single_step(self, setup, rng):
        initial, spec, base = setup
        new_positions = initial.positions.copy()
        movers = rng.choice(150, size=10, replace=False)
        new_positions[movers] = rng.uniform(size=(10, 2)) * 0.9
        updated = update_histogram(base, initial.positions, new_positions)
        expected = brute_force_sdh(
            ParticleSet(new_positions, initial.box), spec=spec
        )
        np.testing.assert_allclose(
            updated.counts, expected.counts, atol=1e-9
        )

    def test_no_movement_is_identity(self, setup):
        initial, _spec, base = setup
        updated = update_histogram(
            base, initial.positions, initial.positions.copy()
        )
        np.testing.assert_array_equal(updated.counts, base.counts)

    def test_input_not_mutated(self, setup, rng):
        initial, _spec, base = setup
        before = base.counts.copy()
        new_positions = initial.positions.copy()
        new_positions[0] = [0.123, 0.456]
        update_histogram(base, initial.positions, new_positions)
        np.testing.assert_array_equal(base.counts, before)

    def test_shape_mismatch_rejected(self, setup):
        initial, _spec, base = setup
        with pytest.raises(QueryError):
            update_histogram(
                base, initial.positions, initial.positions[:-1]
            )

    def test_all_particles_moved(self, setup, rng):
        initial, spec, base = setup
        new_positions = rng.uniform(size=initial.positions.shape) * 0.9
        updated = update_histogram(base, initial.positions, new_positions)
        expected = brute_force_sdh(
            ParticleSet(new_positions, initial.box), spec=spec
        )
        np.testing.assert_allclose(
            updated.counts, expected.counts, atol=1e-9
        )


class TestIncrementalSDH:
    def test_tracks_trajectory_exactly(self, rng):
        initial = uniform(120, dim=2, rng=rng)
        spec = UniformBuckets.with_count(
            initial.max_possible_distance, 5
        )
        traj = random_walk_trajectory(
            initial, 6, move_fraction=0.1, rng=rng
        )
        inc = IncrementalSDH(spec, traj[0])
        for frame in traj.frames[1:]:
            inc.advance(frame)
        expected = brute_force_sdh(traj.frames[-1], spec=spec)
        np.testing.assert_allclose(
            inc.histogram.counts, expected.counts, atol=1e-9
        )
        assert inc.frames_processed == 6
        assert inc.moved_total > 0

    def test_base_histogram_reuse(self, setup):
        initial, spec, base = setup
        inc = IncrementalSDH(spec, initial, base_histogram=base)
        np.testing.assert_array_equal(inc.histogram.counts, base.counts)

    def test_base_spec_mismatch(self, setup):
        initial, _spec, base = setup
        other = UniformBuckets.with_count(
            initial.max_possible_distance, 9
        )
        with pytest.raises(QueryError):
            IncrementalSDH(other, initial, base_histogram=base)

    def test_histogram_is_a_copy(self, setup):
        initial, spec, base = setup
        inc = IncrementalSDH(spec, initial, base_histogram=base)
        inc.histogram.counts[0] = -99
        assert inc.histogram.counts[0] != -99

    def test_frame_shape_change_rejected(self, setup, rng):
        initial, spec, base = setup
        inc = IncrementalSDH(spec, initial, base_histogram=base)
        with pytest.raises(QueryError):
            inc.advance(uniform(10, rng=rng))


class TestKernelRouting:
    """Eligible specs take the dense kernels; the rest stay on binning."""

    @staticmethod
    def _count_kernel_calls(monkeypatch):
        backend = get_backend()
        calls = []
        for name in ("bin_dense_self", "bin_dense_cross"):
            original = getattr(backend, name)

            def wrapper(*args, _original=original, **kwargs):
                calls.append(_original)
                return _original(*args, **kwargs)

            monkeypatch.setattr(backend, name, wrapper)
        return calls

    @staticmethod
    def _moved(rng, positions, k):
        new = positions.copy()
        rows = rng.choice(positions.shape[0], size=k, replace=False)
        new[rows] = rng.random((k, positions.shape[1]))
        return new

    def test_uniform_spec_uses_kernels_exactly(self, monkeypatch, rng):
        old = rng.random((120, 3))
        new = self._moved(rng, old, 9)
        spec = UniformBuckets.with_count(np.sqrt(3.0), 7)
        base = brute_force_sdh(old, spec=spec)
        calls = self._count_kernel_calls(monkeypatch)
        got = update_histogram(base, old, new)
        assert len(calls) == 4  # cross + intra, removed then re-added
        np.testing.assert_array_equal(
            got.counts, brute_force_sdh(new, spec=spec).counts
        )

    def test_custom_buckets_stay_on_binning(self, monkeypatch, rng):
        old = rng.random((100, 2))
        new = self._moved(rng, old, 7)
        spec = CustomBuckets([0.0, 0.1, 0.3, 0.7, 1.5])
        base = brute_force_sdh(old, spec=spec)
        calls = self._count_kernel_calls(monkeypatch)
        got = update_histogram(base, old, new)
        assert calls == []
        np.testing.assert_array_equal(
            got.counts, brute_force_sdh(new, spec=spec).counts
        )

    def test_reach_covers_both_frames(self, monkeypatch, rng):
        # The new frame stretches past a spec sized for the old one:
        # the joint box makes it ineligible, so the overflow policy
        # still decides where the long distances go.
        old = rng.random((80, 2))
        new = old.copy()
        new[0] = (3.0, 3.0)
        spec = UniformBuckets.with_count(np.sqrt(2.0), 5)
        clamp = OverflowPolicy.CLAMP
        base = brute_force_sdh(old, spec=spec, policy=clamp)
        calls = self._count_kernel_calls(monkeypatch)
        got = update_histogram(base, old, new, policy=clamp)
        assert calls == []
        np.testing.assert_array_equal(
            got.counts, brute_force_sdh(new, spec=spec, policy=clamp).counts
        )


class TestTrajectoryHelper:
    def test_every_frame_exact(self, rng):
        initial = uniform(80, dim=2, rng=rng)
        spec = UniformBuckets.with_count(
            initial.max_possible_distance, 4
        )
        traj = random_walk_trajectory(
            initial, 4, move_fraction=0.2, rng=rng
        )
        histograms = sdh_over_trajectory(traj, spec)
        assert len(histograms) == 4
        for frame, got in zip(traj, histograms):
            expected = brute_force_sdh(frame, spec=spec)
            np.testing.assert_allclose(
                got.counts, expected.counts, atol=1e-9
            )
