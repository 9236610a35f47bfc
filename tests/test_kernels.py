"""Leaf-resolution kernel tier: backends, eligibility, capability wiring.

The numpy backend is the bit-identical reference; the numba tests run
only where numba is installed (the CI kernel job) and assert exact
equality against it.  Engine-integration parity pins ``kernel=`` through
``compute_sdh`` and checks the histograms never move.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CustomBuckets,
    QueryError,
    SDHRequest,
    UniformBuckets,
    available_engines,
    compute_sdh,
    get_engine,
    lattice,
    uniform,
    zipf_clustered,
)
from repro.kernels import (
    KERNEL_TIERS,
    NUMBA_AVAILABLE,
    available_kernel_tiers,
    fast_uniform_width,
    get_backend,
    resolve_kernel,
)
from repro.kernels import exact, numpy_backend

NBINS = 12

numba_only = pytest.mark.skipif(
    not NUMBA_AVAILABLE, reason="numba is not installed"
)


def _dataset(family: str):
    if family == "uniform2d":
        return uniform(160, dim=2, rng=11)
    if family == "uniform3d":
        return uniform(120, dim=3, rng=12)
    if family == "zipf":
        return zipf_clustered(150, dim=2, rng=13)
    return lattice(12, dim=2)


FAMILIES = ("uniform2d", "uniform3d", "zipf", "lattice")


def _spec_for(data):
    return UniformBuckets.with_count(data.max_possible_distance, NBINS)


def _reference_hist(delta, width, nbins, box_lengths):
    """The contract's op sequence on an ``(n, d)`` delta array."""
    if box_lengths is not None:
        lengths = np.asarray(box_lengths, dtype=np.float64)
        delta = delta - lengths * np.round(delta / lengths)
    distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    bins = np.minimum((distances / width).astype(np.int64), nbins - 1)
    return np.bincount(bins, minlength=nbins).astype(np.int64), distances.size


def _reference_self(positions, width, nbins, box_lengths=None):
    """Unchunked O(n^2) reference with the contract's op sequence."""
    idx_a, idx_b = np.triu_indices(positions.shape[0], k=1)
    delta = positions[idx_a] - positions[idx_b]
    return _reference_hist(delta, width, nbins, box_lengths)


def _reference_cross(pos_a, pos_b, width, nbins, box_lengths=None):
    """Unchunked reference for all ``len(a) * len(b)`` pairs."""
    delta = (pos_a[:, None, :] - pos_b[None, :, :]).reshape(
        -1, pos_a.shape[1]
    )
    return _reference_hist(delta, width, nbins, box_lengths)


class TestResolution:
    def test_numpy_always_available(self):
        tiers = available_kernel_tiers()
        assert tiers[0] == "numpy"
        assert set(tiers) <= set(KERNEL_TIERS)

    def test_auto_resolves_to_available_tier(self):
        assert resolve_kernel("auto") in available_kernel_tiers()

    def test_explicit_names_pass_through(self):
        assert resolve_kernel("numpy") == "numpy"
        assert resolve_kernel("NumPy") == "numpy"
        # Explicit numba resolves even when absent (the planner prices
        # it); get_backend is what enforces availability.
        assert resolve_kernel("numba") == "numba"

    def test_unknown_tier_rejected(self):
        with pytest.raises(QueryError, match="unknown kernel tier"):
            resolve_kernel("fortran")

    def test_get_backend_names(self):
        assert get_backend("numpy").NAME == "numpy"
        assert get_backend("auto").NAME == resolve_kernel("auto")

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_missing_numba_backend_rejected(self):
        with pytest.raises(QueryError, match="numba is not installed"):
            get_backend("numba")


class TestFastUniformWidth:
    def test_covering_uniform_spec_is_eligible(self):
        spec = UniformBuckets.with_count(10.0, 5)
        assert fast_uniform_width(spec, 10.0) == spec.width
        assert fast_uniform_width(spec, 9.0) == spec.width

    def test_short_spec_is_ineligible(self):
        spec = UniformBuckets.with_count(5.0, 5)
        assert fast_uniform_width(spec, 10.0) is None

    def test_custom_buckets_are_ineligible(self):
        spec = CustomBuckets([0.0, 1.0, 2.0, 4.0])
        assert fast_uniform_width(spec, 2.0) is None

    def test_edge_tolerance(self):
        # A reach epsilon past the top edge still qualifies.
        spec = UniformBuckets.with_count(10.0, 5)
        assert fast_uniform_width(spec, 10.0 * (1 + 1e-12)) == spec.width


class TestNumpyBackend:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_dense_self_matches_unchunked_reference(self, family):
        data = _dataset(family)
        spec = _spec_for(data)
        expected, npairs = _reference_self(
            data.positions, spec.width, NBINS
        )
        backend = get_backend("numpy")
        for chunk in (7, 64, 4096):
            hist, total = backend.bin_dense_self(
                data.positions, spec.width, NBINS, chunk=chunk
            )
            np.testing.assert_array_equal(hist, expected)
            assert total == npairs == data.num_pairs

    def test_periodic_minimum_image(self):
        data = uniform(130, dim=3, rng=21)
        spec = UniformBuckets.with_count(data.max_periodic_distance, NBINS)
        lengths = np.asarray(data.box.sides)
        expected, npairs = _reference_self(
            data.positions, spec.width, NBINS, box_lengths=lengths
        )
        hist, total = get_backend("numpy").bin_dense_self(
            data.positions, spec.width, NBINS, box_lengths=lengths,
            chunk=17,
        )
        np.testing.assert_array_equal(hist, expected)
        assert total == npairs

    def test_cross_plus_self_decomposition(self):
        # self(A ++ B) == self(A) + self(B) + cross(A, B): a metamorphic
        # identity that is not circular with the implementation.
        a = uniform(90, dim=2, rng=31).positions
        b = uniform(70, dim=2, rng=32).positions
        both = np.vstack((a, b))
        reach = float(
            np.sqrt(((both.max(0) - both.min(0)) ** 2).sum())
        )
        spec = UniformBuckets.with_count(reach, NBINS)
        backend = get_backend("numpy")
        whole, n_whole = backend.bin_dense_self(both, spec.width, NBINS)
        ha, na = backend.bin_dense_self(a, spec.width, NBINS)
        hb, nb = backend.bin_dense_self(b, spec.width, NBINS)
        hab, nab = backend.bin_dense_cross(a, b, spec.width, NBINS)
        np.testing.assert_array_equal(whole, ha + hb + hab)
        assert n_whole == na + nb + nab == both.shape[0] * (
            both.shape[0] - 1
        ) // 2

    def test_gathered_pairs_match_dense_self(self):
        data = uniform(80, dim=2, rng=41)
        spec = _spec_for(data)
        backend = get_backend("numpy")
        idx_a, idx_b = np.triu_indices(data.size, k=1)
        gathered, n_gathered = backend.bin_gathered_pairs(
            data.positions, idx_a, idx_b, spec.width, NBINS
        )
        dense, n_dense = backend.bin_dense_self(
            data.positions, spec.width, NBINS
        )
        np.testing.assert_array_equal(gathered, dense)
        assert n_gathered == n_dense

    def test_empty_and_singleton_inputs(self):
        backend = get_backend("numpy")
        empty_idx = np.zeros(0, dtype=np.int64)
        one = np.zeros((1, 3))
        hist, total = backend.bin_gathered_pairs(
            one, empty_idx, empty_idx, 1.0, NBINS
        )
        assert total == 0 and not hist.any()
        hist, total = backend.bin_dense_self(one, 1.0, NBINS)
        assert total == 0 and not hist.any()
        hist, total = backend.bin_dense_cross(
            np.zeros((0, 3)), one, 1.0, NBINS
        )
        assert total == 0 and not hist.any()


def _cloud(n, dim, seed, periodic):
    """Points in a box of side 2 (wrapped when periodic) and a width."""
    positions = np.random.default_rng(seed).random((n, dim)) * 2.0
    lengths = np.full(dim, 2.0) if periodic else None
    reach = np.sqrt(dim) * (1.0 if periodic else 2.0)
    return positions, lengths, reach / NBINS


class TestTiledSweeps:
    """Bit-identity of the tiled dense sweeps at tile edges.

    With ``n`` points a self sweep uses ``TILE_PAIRS // n`` rows per
    tile (capped by ``chunk``) until the remaining rows fit one square
    tile; ``sqrt(TILE_PAIRS)`` is where the whole input is one tile.
    """

    SIDE = int(np.sqrt(numpy_backend.TILE_PAIRS))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_self_around_one_square_tile(self, dim, periodic, offset):
        n = self.SIDE + offset
        positions, lengths, width = _cloud(n, dim, 100 + n, periodic)
        expected, npairs = _reference_self(positions, width, NBINS, lengths)
        for chunk in (numpy_backend.DEFAULT_CHUNK, 17, 1):
            hist, total = numpy_backend.bin_dense_self(
                positions, width, NBINS, lengths, chunk=chunk
            )
            np.testing.assert_array_equal(hist, expected)
            assert total == npairs

    @pytest.mark.parametrize("tile", [16, 64])
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65])
    def test_self_around_row_and_column_counts(self, monkeypatch, tile, n):
        # Small tiles put every row/column boundary case in reach: n
        # equal to, one below and one above a tile's rows or columns.
        monkeypatch.setattr(numpy_backend, "TILE_PAIRS", tile)
        for dim, periodic in ((1, False), (2, True), (3, False)):
            positions, lengths, width = _cloud(n, dim, n * dim, periodic)
            expected, npairs = _reference_self(
                positions, width, NBINS, lengths
            )
            for chunk in (1, 2, 3, numpy_backend.DEFAULT_CHUNK):
                hist, total = numpy_backend.bin_dense_self(
                    positions, width, NBINS, lengths, chunk=chunk
                )
                np.testing.assert_array_equal(hist, expected)
                assert total == npairs
            # Gathered pairs are tiled by TILE_PAIRS too.
            idx_a, idx_b = np.triu_indices(n, k=1)
            hist, _ = numpy_backend.bin_gathered_pairs(
                positions, idx_a, idx_b, width, NBINS, lengths
            )
            np.testing.assert_array_equal(hist, expected)

    @pytest.mark.parametrize(
        "na, nb",
        [(3, 70_000), (70_000, 3), (1, 1), (255, 257), (257, 255)],
    )
    @pytest.mark.parametrize("periodic", [False, True])
    def test_cross_lopsided_and_edge_shapes(self, na, nb, periodic):
        # 70_000 columns exceed one tile's width, so a single row spans
        # two tiles; 70_000 rows take many row blocks of few columns.
        pos_a, lengths, width = _cloud(na, 2, na, periodic)
        pos_b, _, _ = _cloud(nb, 2, nb + 1, periodic)
        expected, npairs = _reference_cross(
            pos_a, pos_b, width, NBINS, lengths
        )
        for chunk in (numpy_backend.DEFAULT_CHUNK, 7):
            hist, total = numpy_backend.bin_dense_cross(
                pos_a, pos_b, width, NBINS, lengths, chunk=chunk
            )
            np.testing.assert_array_equal(hist, expected)
            assert total == npairs == na * nb

    @pytest.mark.parametrize("tile", [16, 64])
    def test_cross_around_row_and_column_counts(self, monkeypatch, tile):
        monkeypatch.setattr(numpy_backend, "TILE_PAIRS", tile)
        for na in (1, 3, 4, 5, 15, 16, 17):
            for nb in (1, 3, 4, 5, 15, 16, 17, 63, 64, 65):
                pos_a, lengths, width = _cloud(na, 3, na, True)
                pos_b, _, _ = _cloud(nb, 3, 50 + nb, True)
                expected, _ = _reference_cross(
                    pos_a, pos_b, width, NBINS, lengths
                )
                for chunk in (1, 4, numpy_backend.DEFAULT_CHUNK):
                    hist, _ = numpy_backend.bin_dense_cross(
                        pos_a, pos_b, width, NBINS, lengths, chunk=chunk
                    )
                    np.testing.assert_array_equal(hist, expected)

    def test_self_peak_memory_is_bounded(self):
        # The sweep allocates tile buffers, not panels: the traced peak
        # stays under a bound set by TILE_PAIRS alone, whatever n is.
        bound = 6 * numpy_backend.TILE_PAIRS * 8
        for n in (1500, 6000):
            positions, _, width = _cloud(n, 2, n, False)
            tracemalloc.start()
            try:
                numpy_backend.bin_dense_self(positions, width, NBINS)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (n, peak)


def _slice_pairs(starts_a, counts_a, starts_b, counts_b):
    """Every point pair of the slice pairs, enumerated one by one."""
    pairs = [
        (i, j)
        for s0, c0, s1, c1 in zip(starts_a, counts_a, starts_b, counts_b)
        for i in range(s0, s0 + c0)
        for j in range(s1, s1 + c1)
    ]
    idx = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return idx[:, 0], idx[:, 1]


def _slice_reference(positions, slices, width, nbins, box_lengths=None):
    idx_a, idx_b = _slice_pairs(*slices)
    delta = positions[idx_a] - positions[idx_b]
    return _reference_hist(delta, width, nbins, box_lengths)


def _random_slices(rng, n_points, n_pairs, max_count):
    counts_a = rng.integers(0, max_count + 1, n_pairs)
    counts_b = rng.integers(0, max_count + 1, n_pairs)
    starts_a = rng.integers(0, n_points - counts_a + 1)
    starts_b = rng.integers(0, n_points - counts_b + 1)
    return starts_a, counts_a, starts_b, counts_b


def _gathered(backend, positions, slices, width, lengths=None, weights=None):
    starts_a, counts_a, starts_b, counts_b = slices
    args = (starts_a, starts_b, width, NBINS, lengths)
    counts = {"counts_a": counts_a, "counts_b": counts_b}
    if weights is None:
        return backend.bin_gathered_pairs(positions, *args, **counts)
    return backend.bin_gathered_pairs_weighted(
        positions, weights, *args, **counts
    )


class TestGatheredSlices:
    """The slice form of the gathered kernels against per-pair
    references: pair ``k`` bins every point of slice ``a[k]`` against
    every point of slice ``b[k]``."""

    def test_basic(self):
        positions = np.random.default_rng(1).random((30, 2))
        slices = ([0, 5], [2, 1], [10, 20], [2, 3])
        hist, total = _gathered(numpy_backend, positions, slices, 0.1)
        expected, npairs = _slice_reference(positions, slices, 0.1, NBINS)
        np.testing.assert_array_equal(hist, expected)
        assert total == npairs == 2 * 2 + 1 * 3
        assert type(total) is int

    @pytest.mark.parametrize("tile", [16, 64])
    def test_tiling_preserves_pairs(self, monkeypatch, tile):
        # Shapes from 1x1 to 12x12 put ca*cb below, at and above the
        # tile (those go through the cross sweep), and many pairs per
        # shape put group boundaries inside and between tiles.
        monkeypatch.setattr(numpy_backend, "TILE_PAIRS", tile)
        rng = np.random.default_rng(tile)
        positions = rng.random((200, 2))
        slices = _random_slices(rng, 200, 300, 12)
        expected, npairs = _slice_reference(positions, slices, 0.1, NBINS)
        for chunk in (1, 5, numpy_backend.DEFAULT_CHUNK):
            hist, total = numpy_backend.bin_gathered_pairs(
                positions, slices[0], slices[2], 0.1, NBINS, chunk=chunk,
                counts_a=slices[1], counts_b=slices[3],
            )
            np.testing.assert_array_equal(hist, expected)
            assert total == npairs

    def test_zero_count_slices_skipped(self):
        positions = np.random.default_rng(2).random((40, 3))
        slices = ([0, 4, 9], [2, 0, 1], [10, 20, 30], [1, 5, 2])
        hist, total = _gathered(numpy_backend, positions, slices, 0.1)
        expected, npairs = _slice_reference(positions, slices, 0.1, NBINS)
        np.testing.assert_array_equal(hist, expected)
        assert total == npairs == 2 + 2

    def test_empty(self):
        positions = np.zeros((3, 2))
        empty = np.zeros(0, dtype=np.int64)
        slices = (empty, empty, empty, empty)
        hist, total = _gathered(numpy_backend, positions, slices, 0.1)
        assert not hist.any() and total == 0 and type(total) is int
        limbs, total = _gathered(
            numpy_backend, positions, slices, 0.1, weights=np.ones(3)
        )
        assert not limbs.any() and total == 0 and type(total) is int

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_dims_and_periodic(self, dim, periodic):
        rng = np.random.default_rng(10 * dim + periodic)
        positions, lengths, width = _cloud(400, dim, dim, periodic)
        slices = _random_slices(rng, 400, 500, 30)
        expected, npairs = _slice_reference(
            positions, slices, width, NBINS, lengths
        )
        hist, total = _gathered(
            numpy_backend, positions, slices, width, lengths
        )
        np.testing.assert_array_equal(hist, expected)
        assert total == npairs

    def test_slice_pairs_above_one_tile(self):
        # 300 x 300 points exceed TILE_PAIRS = 2**16 at the real size.
        rng = np.random.default_rng(4)
        positions, lengths, width = _cloud(1000, 2, 4, True)
        slices = ([0, 10, 500], [300, 3, 300], [600, 700, 0], [300, 5, 2])
        assert 300 * 300 > numpy_backend.TILE_PAIRS
        expected, npairs = _slice_reference(
            positions, slices, width, NBINS, lengths
        )
        hist, total = _gathered(
            numpy_backend, positions, slices, width, lengths
        )
        np.testing.assert_array_equal(hist, expected)
        weights = rng.uniform(-1.0, 2.0, 1000)
        limbs, _ = _gathered(
            numpy_backend, positions, slices, width, lengths, weights
        )
        assert list(exact.limbs_to_ints(limbs)) == _exact_slice_reference(
            positions, weights, slices, width, lengths
        )

    @pytest.mark.parametrize("pass_pairs", [1, 5, 64])
    def test_weighted_across_bincount_passes(self, monkeypatch, pass_pairs):
        monkeypatch.setattr(exact, "BINCOUNT_PAIRS", pass_pairs)
        rng = np.random.default_rng(pass_pairs)
        positions = rng.random((80, 2))
        weights = rng.normal(size=80) * 10.0 ** rng.integers(-300, 300, 80)
        weights[::9] = 0.0
        slices = _random_slices(rng, 80, 40, 6)
        limbs, total = _gathered(
            numpy_backend, positions, slices, 0.25, weights=weights
        )
        assert list(exact.limbs_to_ints(limbs)) == _exact_slice_reference(
            positions, weights, slices, 0.25
        )
        assert total == int(np.dot(slices[1], slices[3]))

    def test_enumerated_pairs_are_slices_of_one(self):
        positions = np.random.default_rng(6).random((50, 2))
        idx_a, idx_b = np.triu_indices(50, k=1)
        ones = np.ones(idx_a.size, dtype=np.int64)
        plain = numpy_backend.bin_gathered_pairs(
            positions, idx_a, idx_b, 0.1, NBINS
        )
        sliced = numpy_backend.bin_gathered_pairs(
            positions, idx_a, idx_b, 0.1, NBINS, counts_a=ones, counts_b=ones
        )
        np.testing.assert_array_equal(plain[0], sliced[0])
        assert plain[1] == sliced[1] == idx_a.size

    @pytest.mark.parametrize("tile", [16, numpy_backend.TILE_PAIRS])
    def test_slice_blocks_cover_each_pair_once(self, monkeypatch, tile):
        # The index blocks the engines' inline path bins: every point
        # pair exactly once (up to orientation), no block over a tile.
        monkeypatch.setattr(numpy_backend, "TILE_PAIRS", tile)
        rng = np.random.default_rng(7)
        slices = _random_slices(rng, 600, 200, 20)
        # Plus one 300 x 300 pair, above every tile.
        slices = tuple(
            np.append(x, v) for x, v in zip(slices, (0, 300, 300, 300))
        )
        seen = []
        for ka, kb in numpy_backend.slice_blocks(*slices, chunk=7):
            shape = np.broadcast_shapes(ka.shape, kb.shape)
            assert np.prod(shape) <= tile
            seen.extend(zip(np.broadcast_to(ka, shape).ravel().tolist(),
                            np.broadcast_to(kb, shape).ravel().tolist()))
        idx_a, idx_b = _slice_pairs(*slices)
        expected = sorted(
            (min(i, j), max(i, j))
            for i, j in zip(idx_a.tolist(), idx_b.tolist())
        )
        assert sorted((min(i, j), max(i, j)) for i, j in seen) == expected


def _exact_slice_reference(positions, weights, slices, width, lengths=None):
    """Per-bucket exact integer sums of the slice pairs, pair by pair."""
    idx_a, idx_b = _slice_pairs(*slices)
    delta = positions[idx_a] - positions[idx_b]
    if lengths is not None:
        delta = delta - lengths * np.round(delta / lengths)
    distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    bins = np.minimum((distances / width).astype(np.int64), NBINS - 1)
    ints = exact.weight_ints(weights)
    totals = [0] * NBINS
    for b, i, j in zip(bins.tolist(), idx_a.tolist(), idx_b.tolist()):
        totals[b] += ints[i] * ints[j]
    return totals


class TestDistanceCountsArePythonInts:
    """Counts reach SDHStats and the JSON of /v1/stats: a numpy scalar
    there is not serializable, so every kernel returns a Python int."""

    def test_every_numpy_kernel(self):
        positions = np.random.default_rng(8).random((20, 2))
        weights = np.ones(20)
        idx = np.arange(5)
        results = [
            numpy_backend.bin_gathered_pairs(positions, idx, idx + 5, 0.1, 8),
            numpy_backend.bin_gathered_pairs(
                positions, idx, idx + 5, 0.1, 8, counts_a=idx,
                counts_b=idx,
            ),
            numpy_backend.bin_dense_self(positions, 0.1, 8),
            numpy_backend.bin_dense_cross(positions[:7], positions[7:],
                                          0.1, 8),
            numpy_backend.bin_gathered_pairs_weighted(
                positions, weights, idx, idx + 5, 0.1, 8
            ),
            numpy_backend.bin_dense_self_weighted(positions, weights,
                                                  0.1, 8),
            numpy_backend.bin_dense_cross_weighted(
                positions[:7], positions[7:], weights[:7], weights[7:],
                0.1, 8,
            ),
        ]
        for _, total in results:
            assert type(total) is int


@numba_only
class TestNumbaParity:
    """Bit-identity of the compiled tier against the numpy reference."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dense_self_identical(self, family):
        data = _dataset(family)
        spec = _spec_for(data)
        ref, n_ref = get_backend("numpy").bin_dense_self(
            data.positions, spec.width, NBINS
        )
        hist, total = get_backend("numba").bin_dense_self(
            data.positions, spec.width, NBINS
        )
        np.testing.assert_array_equal(hist, ref)
        assert total == n_ref

    def test_dense_cross_identical(self):
        a = uniform(90, dim=3, rng=51).positions
        b = uniform(60, dim=3, rng=52).positions
        reach = float(np.sqrt(27.0))  # unit-cube pair, generous cover
        spec = UniformBuckets.with_count(max(reach, 1.0) * 4, NBINS)
        ref, n_ref = get_backend("numpy").bin_dense_cross(
            a, b, spec.width, NBINS
        )
        hist, total = get_backend("numba").bin_dense_cross(
            a, b, spec.width, NBINS
        )
        np.testing.assert_array_equal(hist, ref)
        assert total == n_ref

    def test_periodic_identical(self):
        data = uniform(110, dim=3, rng=53)
        spec = UniformBuckets.with_count(data.max_periodic_distance, NBINS)
        lengths = np.asarray(data.box.sides)
        ref, _ = get_backend("numpy").bin_dense_self(
            data.positions, spec.width, NBINS, box_lengths=lengths
        )
        hist, _ = get_backend("numba").bin_dense_self(
            data.positions, spec.width, NBINS, box_lengths=lengths
        )
        np.testing.assert_array_equal(hist, ref)

    def test_gathered_pairs_identical(self):
        data = zipf_clustered(140, dim=2, rng=54)
        spec = _spec_for(data)
        idx_a, idx_b = np.triu_indices(data.size, k=1)
        ref, _ = get_backend("numpy").bin_gathered_pairs(
            data.positions, idx_a, idx_b, spec.width, NBINS
        )
        hist, _ = get_backend("numba").bin_gathered_pairs(
            data.positions, idx_a, idx_b, spec.width, NBINS
        )
        np.testing.assert_array_equal(hist, ref)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_gathered_slices_identical(self, periodic):
        rng = np.random.default_rng(55)
        positions, lengths, width = _cloud(300, 3, 55, periodic)
        slices = _random_slices(rng, 300, 400, 25)
        ref, n_ref = _gathered(
            get_backend("numpy"), positions, slices, width, lengths
        )
        hist, total = _gathered(
            get_backend("numba"), positions, slices, width, lengths
        )
        np.testing.assert_array_equal(hist, ref)
        assert total == n_ref and type(total) is int
        weights = rng.uniform(-1.0, 2.0, 300)
        ref, _ = _gathered(
            get_backend("numpy"), positions, slices, width, lengths, weights
        )
        limbs, _ = _gathered(
            get_backend("numba"), positions, slices, width, lengths, weights
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(limbs), exact.limbs_to_ints(ref)
        )


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def data(self):
        return uniform(220, dim=2, rng=61)

    @pytest.mark.parametrize("engine", ("brute", "tree", "grid"))
    def test_pinned_numpy_matches_auto(self, data, engine):
        base = compute_sdh(
            data, SDHRequest(num_buckets=NBINS, engine=engine)
        )
        pinned = compute_sdh(
            data,
            SDHRequest(num_buckets=NBINS, engine=engine, kernel="numpy"),
        )
        np.testing.assert_array_equal(base.counts, pinned.counts)
        assert base.total == data.num_pairs

    def test_all_tiers_agree_across_engines(self, data):
        reference = None
        for engine in ("brute", "tree", "grid"):
            for tier in available_kernel_tiers():
                hist = compute_sdh(
                    data,
                    SDHRequest(
                        num_buckets=NBINS, engine=engine, kernel=tier
                    ),
                )
                if reference is None:
                    reference = hist.counts
                np.testing.assert_array_equal(hist.counts, reference)

    def test_custom_buckets_ignore_kernel_pin(self, data):
        # Ineligible specs fall back to the inline binning path; the
        # pin must be accepted and the result unchanged.
        edges = CustomBuckets(
            [0.0, 0.1, 0.5, data.max_possible_distance]
        )
        base = compute_sdh(data, SDHRequest(spec=edges))
        pinned = compute_sdh(
            data, SDHRequest(spec=edges, kernel="numpy")
        )
        np.testing.assert_array_equal(base.counts, pinned.counts)

    def test_unavailable_tier_is_rejected(self, data):
        request = SDHRequest(
            num_buckets=NBINS, engine="grid", kernel="numba"
        )
        if "numba" in available_kernel_tiers():
            hist = compute_sdh(data, request)
            reference = compute_sdh(
                data,
                SDHRequest(
                    num_buckets=NBINS, engine="grid", kernel="numpy"
                ),
            )
            np.testing.assert_array_equal(hist.counts, reference.counts)
        else:
            with pytest.raises(QueryError, match="kernel tier"):
                compute_sdh(data, request)


# ----------------------------------------------------------------------
# Weighted variants.  The weighted kernels return exact fixed-point limb
# arrays; `exact.limbs_to_ints` recovers exact product-scale integers,
# so equality below is bit-exact by construction — any drift is a bug in
# a backend's op sequence, not floating-point noise.
# ----------------------------------------------------------------------
_wcoord = st.integers(min_value=0, max_value=64).map(lambda k: k / 64.0)
_weight = st.one_of(
    st.just(0.0),
    st.floats(
        min_value=-4.0, max_value=4.0,
        allow_nan=False, allow_infinity=False,
    ),
    st.sampled_from([1e-140, -1e140, 1e100, -2.5e-100, 1e-300]),
)


@st.composite
def _weighted_cloud(draw, min_size=2, max_size=18):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    points = draw(
        st.lists(
            st.tuples(*[_wcoord] * dim), min_size=n, max_size=n
        )
    )
    weights = draw(st.lists(_weight, min_size=n, max_size=n))
    return (
        np.asarray(points, dtype=np.float64),
        np.asarray(weights, dtype=np.float64),
    )


def _finalized(limbs):
    return exact.finalize(exact.limbs_to_ints(limbs))


class TestWeightedKernelProperties:
    """Metamorphic properties of the numpy weighted reference."""

    @settings(max_examples=30, deadline=None)
    @given(_weighted_cloud())
    def test_unit_weights_match_unweighted_counts(self, cloud):
        positions, _ = cloud
        backend = get_backend("numpy")
        ones = np.ones(positions.shape[0])
        limbs, n_w = backend.bin_dense_self_weighted(
            positions, ones, 0.25, NBINS, chunk=5
        )
        hist, n_u = backend.bin_dense_self(positions, 0.25, NBINS)
        np.testing.assert_array_equal(
            _finalized(limbs), hist.astype(np.float64)
        )
        assert n_w == n_u

    @settings(max_examples=30, deadline=None)
    @given(_weighted_cloud(), st.integers(min_value=1, max_value=20))
    def test_power_of_two_scaling_is_exact(self, cloud, exponent):
        # Bilinearity on an exactly-representable scalar: scaling the
        # weights by 2^j scales every exact bucket integer by 2^(2j).
        # Asserted before rounding: a subnormal bucket is rounded at
        # subnormal precision, so the rounded results need not scale.
        positions, weights = cloud
        factor = float(2.0**exponent)
        backend = get_backend("numpy")
        base, _ = backend.bin_dense_self_weighted(
            positions, weights, 0.25, NBINS
        )
        scaled, _ = backend.bin_dense_self_weighted(
            positions, weights * factor, 0.25, NBINS
        )
        assert list(exact.limbs_to_ints(scaled)) == [
            value << (2 * exponent)
            for value in exact.limbs_to_ints(base)
        ]

    @settings(max_examples=30, deadline=None)
    @given(_weighted_cloud(min_size=4))
    def test_self_cross_decomposition_is_exact(self, cloud):
        # self(A ++ B) == self(A) + self(B) + cross(A, B) at the exact
        # integer layer — chunk boundaries and pair order cannot move it.
        positions, weights = cloud
        cut = positions.shape[0] // 2
        backend = get_backend("numpy")
        whole, _ = backend.bin_dense_self_weighted(
            positions, weights, 0.25, NBINS, chunk=3
        )
        ha, _ = backend.bin_dense_self_weighted(
            positions[:cut], weights[:cut], 0.25, NBINS
        )
        hb, _ = backend.bin_dense_self_weighted(
            positions[cut:], weights[cut:], 0.25, NBINS
        )
        hab, _ = backend.bin_dense_cross_weighted(
            positions[:cut], positions[cut:],
            weights[:cut], weights[cut:], 0.25, NBINS,
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(whole),
            exact.limbs_to_ints(ha)
            + exact.limbs_to_ints(hb)
            + exact.limbs_to_ints(hab),
        )

    @settings(max_examples=20, deadline=None)
    @given(_weighted_cloud())
    def test_gathered_pairs_match_dense_self(self, cloud):
        positions, weights = cloud
        backend = get_backend("numpy")
        idx_a, idx_b = np.triu_indices(positions.shape[0], k=1)
        gathered, _ = backend.bin_gathered_pairs_weighted(
            positions, weights, idx_a, idx_b, 0.25, NBINS, chunk=4
        )
        dense, _ = backend.bin_dense_self_weighted(
            positions, weights, 0.25, NBINS
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(gathered), exact.limbs_to_ints(dense)
        )


def _exact_self_reference(positions, weights, width, nbins):
    """Per-bucket exact integer sums via Python ints, pair by pair."""
    idx_a, idx_b = np.triu_indices(positions.shape[0], k=1)
    delta = positions[idx_a] - positions[idx_b]
    distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    bins = np.minimum((distances / width).astype(np.int64), nbins - 1)
    ints = exact.weight_ints(weights)
    totals = [0] * nbins
    for b, i, j in zip(bins.tolist(), idx_a.tolist(), idx_b.tolist()):
        totals[b] += ints[i] * ints[j]
    return totals


class TestWeightedScatter:
    """The bincount scatter is exact across passes and tiles."""

    @pytest.mark.parametrize("pass_pairs", [1, 5, 64])
    def test_exact_across_bincount_passes(self, monkeypatch, pass_pairs):
        rng = np.random.default_rng(pass_pairs)
        positions = rng.random((40, 2))
        # Mixed signs, zeros, subnormals and extreme exponents in one
        # pass, so slot sums carry across limbs and pieces go negative.
        weights = rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40)
        weights[::7] = 0.0
        weights[3] = 5e-324
        weights[4] = -np.finfo(np.float64).max
        expected = _exact_self_reference(positions, weights, 0.25, NBINS)
        monkeypatch.setattr(exact, "BINCOUNT_PAIRS", pass_pairs)
        for chunk in (3, numpy_backend.DEFAULT_CHUNK):
            limbs, total = numpy_backend.bin_dense_self_weighted(
                positions, weights, 0.25, NBINS, chunk=chunk
            )
            assert list(exact.limbs_to_ints(limbs)) == expected
            assert total == 40 * 39 // 2

    def test_exact_across_tiles(self, monkeypatch):
        monkeypatch.setattr(numpy_backend, "TILE_PAIRS", 16)
        rng = np.random.default_rng(3)
        positions = rng.random((33, 3))
        weights = rng.uniform(-2.0, 2.0, 33)
        expected = _exact_self_reference(positions, weights, 0.25, NBINS)
        limbs, _ = numpy_backend.bin_dense_self_weighted(
            positions, weights, 0.25, NBINS
        )
        assert list(exact.limbs_to_ints(limbs)) == expected
        idx_a, idx_b = np.triu_indices(33, k=1)
        gathered, _ = numpy_backend.bin_gathered_pairs_weighted(
            positions, weights, idx_a, idx_b, 0.25, NBINS
        )
        assert list(exact.limbs_to_ints(gathered)) == expected
        cut = 20
        cross, _ = numpy_backend.bin_dense_cross_weighted(
            positions[:cut], positions[cut:],
            weights[:cut], weights[cut:], 0.25, NBINS,
        )
        ha, _ = numpy_backend.bin_dense_self_weighted(
            positions[:cut], weights[:cut], 0.25, NBINS
        )
        hb, _ = numpy_backend.bin_dense_self_weighted(
            positions[cut:], weights[cut:], 0.25, NBINS
        )
        assert list(
            exact.limbs_to_ints(ha)
            + exact.limbs_to_ints(hb)
            + exact.limbs_to_ints(cross)
        ) == expected

    def test_weighted_peak_memory_is_bounded(self):
        # One tile's scatter temporaries, never an index array per pair.
        bound = 16 * numpy_backend.TILE_PAIRS * 8
        rng = np.random.default_rng(5)
        for n in (500, 2000):
            positions = rng.random((n, 2))
            weights = rng.uniform(0.5, 2.0, n)
            tracemalloc.start()
            try:
                numpy_backend.bin_dense_self_weighted(
                    positions, weights, 0.25, NBINS
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (n, peak)


@numba_only
class TestNumbaWeightedParity:
    """Compiled weighted kernels must match numpy limb-for-limb."""

    @settings(max_examples=25, deadline=None)
    @given(_weighted_cloud())
    def test_dense_self_identical(self, cloud):
        positions, weights = cloud
        ref, n_ref = get_backend("numpy").bin_dense_self_weighted(
            positions, weights, 0.25, NBINS
        )
        limbs, total = get_backend("numba").bin_dense_self_weighted(
            positions, weights, 0.25, NBINS
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(limbs), exact.limbs_to_ints(ref)
        )
        assert total == n_ref

    @settings(max_examples=25, deadline=None)
    @given(_weighted_cloud(min_size=4))
    def test_dense_cross_identical(self, cloud):
        positions, weights = cloud
        cut = positions.shape[0] // 2
        args = (
            positions[:cut], positions[cut:],
            weights[:cut], weights[cut:], 0.25, NBINS,
        )
        ref, n_ref = get_backend("numpy").bin_dense_cross_weighted(*args)
        limbs, total = get_backend("numba").bin_dense_cross_weighted(*args)
        np.testing.assert_array_equal(
            exact.limbs_to_ints(limbs), exact.limbs_to_ints(ref)
        )
        assert total == n_ref

    @settings(max_examples=25, deadline=None)
    @given(_weighted_cloud())
    def test_gathered_pairs_identical_periodic(self, cloud):
        positions, weights = cloud
        idx_a, idx_b = np.triu_indices(positions.shape[0], k=1)
        lengths = np.ones(positions.shape[1])
        args = (positions, weights, idx_a, idx_b, 0.25, NBINS)
        ref, _ = get_backend("numpy").bin_gathered_pairs_weighted(
            *args, box_lengths=lengths
        )
        limbs, _ = get_backend("numba").bin_gathered_pairs_weighted(
            *args, box_lengths=lengths
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(limbs), exact.limbs_to_ints(ref)
        )


class TestCapabilityMatrix:
    def test_every_engine_declares_tiers(self):
        for name, caps in available_engines().items():
            assert isinstance(caps.kernel_tiers, tuple), name
            assert "numpy" in caps.kernel_tiers, name
            assert set(caps.kernel_tiers) <= set(KERNEL_TIERS), name

    def test_builtins_advertise_available_tiers(self):
        for name in ("brute", "tree", "grid", "parallel"):
            caps = get_engine(name).capabilities
            assert caps.kernel_tiers == available_kernel_tiers()


class TestRequestKernelField:
    def test_default_is_auto_and_omitted_from_json(self):
        request = SDHRequest(num_buckets=4)
        assert request.kernel == "auto"
        assert "kernel" not in request.to_dict()

    def test_explicit_kernel_round_trips(self):
        request = SDHRequest(num_buckets=4, kernel="numpy").normalize()
        body = request.to_dict()
        assert body["kernel"] == "numpy"
        assert SDHRequest.from_dict(body) == request

    def test_normalize_lowercases(self):
        assert SDHRequest(num_buckets=4, kernel="NUMBA").normalize(
        ).kernel == "numba"

    def test_bad_kernel_rejected(self):
        with pytest.raises(QueryError, match="kernel"):
            SDHRequest(num_buckets=4, kernel="cuda").validate()
