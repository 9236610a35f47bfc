"""Vectorized DM-SDH over the array-based density-map pyramid.

Functionally identical to :mod:`repro.core.dm_sdh` (tests assert exact
integer equality of the histograms), but the recursion is flattened
into a level-by-level worklist of cell-pair arrays so that numpy can
resolve millions of pairs per call — the pure-Python recursion is the
bottleneck the paper's C implementation never had, and this module is
the honest Python answer to it.

Two engine-level optimizations exploit the grid structure (results are
bit-identical to the naive formulation, which the test suite checks):

* **offset-class tables** — on a given level, the min/max distance
  bounds of a cell pair depend only on the per-axis index offset, so
  the resolve decision and target bucket are precomputed once per level
  for all ``G^d`` offset classes and then applied to pair batches with
  a single gather;
* **index-space expansion** — unresolved pairs are refined by integer
  index arithmetic (``child = 2 * parent + offset``) without en-/
  decoding flat cell ids per level;
* **dense level** — exact runs stop refining at the level where a cell
  holds about :data:`DENSE_BETA` particles instead of the paper's
  ``2^d + 1``, and bin each still-open cell pair as a tile of two
  contiguous particle slices (:meth:`GridPyramid.layout`).  When the
  maps above it cannot settle enough distances to pay for that, the
  run is one dense sweep of the whole set.

The same engine runs the approximate ADM-SDH of Sec. V: a ``stop``
parameter bounds how many density maps are visited, and the pairs still
unresolved at the stop level are handed to an
:class:`~repro.core.heuristics.Allocator` instead of being refined
further (no distance is ever computed in approximate mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..data.particles import ParticleSet
from ..errors import DistanceOverflowError, QueryError
from ..geometry import box_pair_bounds
from ..geometry.distance import minimum_image
from ..kernels import exact, fast_uniform_width, get_backend, numpy_backend
from ..quadtree.grid import GridPyramid
from ..quadtree.tree import tree_height
from .brute_force import sweep_cross, sweep_self
from .buckets import BucketSpec, OverflowPolicy, UniformBuckets
from .heuristics import AllocationContext, Allocator
from .histogram import DistanceHistogram
from .instrumentation import SDHStats
from .weighted import WeightedAccumulator

__all__ = ["DENSE_BETA", "GridSDHEngine", "dense_level", "dm_sdh_grid"]

#: Default ceiling on the number of cell pairs processed per batch.
DEFAULT_PAIR_CHUNK = 1 << 21
#: Default cap on the rows of one dense distance tile (the kernels'
#: ``chunk``, and the block size of the inline slow path).
DEFAULT_DISTANCE_CHUNK = 2048

#: Leaf occupancy beta of Eq. (2), in 2D, for the level where exact
#: runs stop refining cell pairs and compute distances (the dense
#: level); ``d``-dimensional data uses ``DENSE_BETA * 2**(d - 2)``.
#:
#: Refining an open cell pair one level costs ``4^d`` resolve calls and
#: settles about half of its ``n^2`` distances (Lemma 1), so it pays
#: while ``4^d * c_resolve < n^2 / 2 * c_distance``: while cells hold
#: more than ``n* = sqrt(2 * 4^d * c_resolve / c_distance)`` particles.
#: Eq. (2) with ``beta = n*`` stops at the first level whose occupancy
#: is at most ``n*``.  ``n*`` grows as ``2^d``, like the paper's
#: ``2^d + 1``, which assumes ``c_resolve`` near ``c_distance`` (its C
#: code).  Here a vectorized resolve with its child expansion costs
#: about 0.28 us per examined pair and a slice-tile distance about
#: 11 ns (2D uniform, N = 24000, 2-core Xeon); the ratio of about 25
#: gives ``n*`` of 28 in 2D and 57 in 3D.  Small slices cost more per
#: distance; ``benchmarks/bench_ablation_beta.py`` measures 32 fastest
#: in 2D at N = 6000, 12000 and 24000 (occupancy 23, 12, 23); 8 and
#: 128 are 1.1x to 2.5x slower.  In 3D at l = 4 the 3D beta of 64 puts
#: the dense level one map below the start map, so runs sweep densely
#: (see ``refines_from``); refining one map further took 1.8x as long
#: (N = 24000).  The pyramid keeps the paper's beta, so ADM-SDH's
#: levels are unchanged.
DENSE_BETA = 32.0


def dense_level(n: int, dim: int) -> int:
    """The level exact runs resolve with distances: Eq. (2)'s leaf
    level for :data:`DENSE_BETA` (callers cap it at the pyramid leaf)."""
    return tree_height(max(int(n), 1), dim, DENSE_BETA * 2 ** (dim - 2)) - 1


# Offset-class statuses.
_RESOLVED = 0
_OPEN = 1
_BELOW = 2
_ABOVE = 3


def dm_sdh_grid(
    data: GridPyramid | ParticleSet,
    spec: BucketSpec | None = None,
    bucket_width: float | None = None,
    use_mbr: bool = False,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
    stats: SDHStats | None = None,
    stop_after_levels: int | None = None,
    allocator: Allocator | None = None,
    rng: np.random.Generator | int | None = None,
    periodic: bool = False,
    kernel: str = "auto",
    cross_split: int | None = None,
) -> DistanceHistogram:
    """Compute an SDH with the vectorized DM-SDH engine.

    With ``periodic=True``, distances are measured under the
    minimum-image convention over the simulation box (the molecular-
    dynamics setting); cell resolution then uses torus distance bounds.

    Parameters mirror :func:`repro.core.dm_sdh.dm_sdh_tree` where they
    overlap.  ``kernel`` selects the leaf-resolution backend (see
    :mod:`repro.kernels`).  Weighted datasets (a :class:`ParticleSet`
    carrying per-particle weights) accumulate exact pair products; see
    :mod:`repro.core.weighted`.  The extra parameters select cross-set
    and approximate mode:

    cross_split:
        Cross-set mode: ``data`` holds the concatenation of two sets
        (A first), ``cross_split`` is ``|A|``, and the histogram counts
        only pairs with one particle from each side (every cell tracks
        per-side counts, so a resolved cell pair contributes
        ``na1 * nb2 + nb1 * na2``).
    stop_after_levels:
        Visit at most this many density maps below the start map
        (the paper's ``m``).  Requires ``allocator``.
    allocator:
        Heuristic that distributes the unresolved pairs' counts
        (Sec. V heuristics; see :func:`repro.core.heuristics.make_allocator`).
    """
    if isinstance(data, GridPyramid):
        pyramid = data
    else:
        pyramid = GridPyramid(data, with_mbr=use_mbr)
    engine = GridSDHEngine(
        pyramid,
        spec=spec,
        bucket_width=bucket_width,
        use_mbr=use_mbr,
        policy=policy,
        stats=stats,
        stop_after_levels=stop_after_levels,
        allocator=allocator,
        rng=rng,
        periodic=periodic,
        kernel=kernel,
        cross_split=cross_split,
    )
    return engine.run()


@dataclass
class _LevelTable:
    """Per-level lookup over all offset classes ``|di|`` per axis.

    ``status[cls]`` is one of the class constants above; ``bucket[cls]``
    the target bucket for resolved classes.  ``cls`` is the row-major
    encoding of the per-axis absolute offsets.
    """

    status: np.ndarray
    bucket: np.ndarray


class GridSDHEngine:
    """One (exact or approximate) SDH computation over a grid pyramid."""

    def __init__(
        self,
        pyramid: GridPyramid,
        spec: BucketSpec | None = None,
        bucket_width: float | None = None,
        use_mbr: bool = False,
        policy: OverflowPolicy = OverflowPolicy.RAISE,
        stats: SDHStats | None = None,
        stop_after_levels: int | None = None,
        allocator: Allocator | None = None,
        rng: np.random.Generator | int | None = None,
        pair_chunk: int = DEFAULT_PAIR_CHUNK,
        distance_chunk: int = DEFAULT_DISTANCE_CHUNK,
        periodic: bool = False,
        kernel: str = "auto",
        cross_split: int | None = None,
    ):
        self.pyramid = pyramid
        self.particles = pyramid.particles
        self.periodic = bool(periodic)
        self.spec = _resolve_spec(
            spec, bucket_width, self.particles, periodic=self.periodic
        )
        if use_mbr and not pyramid.has_mbr:
            raise QueryError("use_mbr requires a pyramid built with_mbr=True")
        if use_mbr and self.periodic:
            raise QueryError(
                "MBR resolution is not defined under periodic boundaries"
            )
        self.use_mbr = use_mbr
        self.policy = policy
        self.stats = stats if stats is not None else SDHStats()
        if (stop_after_levels is None) != (allocator is None):
            raise QueryError(
                "approximate mode needs both stop_after_levels and allocator"
            )
        if stop_after_levels is not None and stop_after_levels < 0:
            raise QueryError("stop_after_levels must be >= 0")
        if allocator is not None and self.spec.low > 0:
            raise QueryError(
                "approximate mode supports standard queries (r0 == 0) only"
            )
        self.stop_after_levels = stop_after_levels
        self.allocator = allocator
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        self.pair_chunk = int(pair_chunk)
        self.distance_chunk = int(distance_chunk)
        self.histogram = DistanceHistogram(self.spec)
        self._tables: dict[int, _LevelTable] = {}
        self._float_counts: dict[int, np.ndarray] = {}
        # Fast binning path: a standard query whose buckets cover every
        # realizable distance needs no policy checks per distance —
        # a clipped integer division bins exactly like bin_counts_query.
        # Eligible leaf work routes through the selected kernel backend
        # (repro.kernels); anything else stays on the inline
        # bin_counts_query path regardless of the requested tier.
        reach = (
            self.particles.max_periodic_distance
            if self.periodic
            else self.particles.max_possible_distance
        )
        self._fast_bin_width = fast_uniform_width(self.spec, reach)
        self._kernel_backend = get_backend(kernel)
        self.kernel = self._kernel_backend.NAME
        self._box_lengths = (
            np.asarray(self.particles.box.sides, dtype=np.float64)
            if self.periodic
            else None
        )
        #: The level whose open cell pairs are resolved by distances.
        self.dense_level = min(
            pyramid.leaf_level,
            dense_level(self.particles.size, pyramid.dim),
        )
        #: Optional observer called with (a_ids, b_ids) for every batch
        #: of dense-level cell pairs whose distances are computed — the
        #: access pattern the storage layer replays to count I/O
        #: (Sec. IV-B).  Intra-cell scans report pairs (c, c).
        self.on_leaf_pairs: (
            "callable[[np.ndarray, np.ndarray], None] | None"
        ) = None

        # Weighted / cross-set state.  Weighted mode replaces the float
        # histogram accumulation with the exact integer machinery of
        # repro.core.weighted; cross mode tracks per-side cell masses.
        self.cross_split = None if cross_split is None else int(cross_split)
        self.weighted = self.particles.weighted
        if self.weighted or self.cross_split is not None:
            if self.approximate:
                raise QueryError(
                    "weighted/cross-set queries cannot run in "
                    "approximate mode"
                )
            if pyramid.order is None:
                raise QueryError(
                    "weighted/cross-set queries need a pyramid with a "
                    "materialized sort order"
                )
        if self.cross_split is not None and not (
            0 < self.cross_split < self.particles.size
        ):
            raise QueryError(
                f"cross_split must split the set, got {cross_split} "
                f"of {self.particles.size}"
            )
        self._accum = (
            WeightedAccumulator(self.spec, policy) if self.weighted else None
        )
        self._sides_sorted = (
            None
            if self.cross_split is None
            else pyramid.order >= self.cross_split
        )
        self._w_obj = (
            exact.weight_ints(self.particles.weights)
            if self.weighted
            else None
        )
        self._dense_weights: np.ndarray | None = None
        self._wsum_levels: "list[np.ndarray] | None" = None
        self._side_wsum_levels: (
            "tuple[list[np.ndarray], list[np.ndarray]] | None"
        ) = None
        self._side_count_levels: (
            "tuple[list[np.ndarray], list[np.ndarray]] | None"
        ) = None

    # ------------------------------------------------------------------
    @property
    def approximate(self) -> bool:
        """Whether this run is ADM-SDH (no distance ever computed)."""
        return self.allocator is not None

    def refines_from(self, start: int) -> bool:
        """Whether an exact run starting on map ``start`` refines cell
        pairs down to the dense level, rather than sweeping every pair.

        The dense level must lie at least two maps below the start map:
        cell pairs of the first map below it span about one bucket
        width and settle only 11-15% of the distances in 2D (14% in 3D),
        less than the slice tiles cost over one dense sweep.  Measured
        on uniform and Zipf data at l = 4 to 16 and N = 6000 to 24000,
        grid took 1.3x to 2.0x brute's time with the dense level one map
        down, 0.7x to 1.1x with it two maps down, and 0.35x to 0.6x with
        it three down.
        """
        return start + 2 <= self.dense_level

    def run(self) -> DistanceHistogram:
        """Execute the algorithm and return the histogram.

        Exact runs visit the maps from the start level down to the
        dense level (see :meth:`refines_from`); otherwise, and when
        there is no start level, every distance is computed in one
        dense sweep.  ADM-SDH visits at most ``stop_after_levels`` maps
        below the start map.
        """
        start = self._start_level()
        if self.approximate:
            last_level = min(
                self.pyramid.leaf_level, start + self.stop_after_levels
            )
        elif not self.refines_from(start):
            self._dense_sweep()
            return self.histogram
        else:
            last_level = self.dense_level
        self.stats.start_level = start
        self.stats.levels_visited = last_level - start + 1

        self._intra_cell(start)
        self._drain(start, self._start_pairs(start), last_level)
        if self._accum is not None:
            self._accum.finalize_into(self.histogram)
        return self.histogram

    def _drain(
        self,
        level: int,
        batches: "Iterator[tuple[np.ndarray, np.ndarray]]",
        last_level: int,
    ) -> None:
        """Run the level-by-level worklist from ``level`` down to the end.

        ``batches`` yields same-level cell-pair batches as pairs of
        per-axis index arrays of shape (n, d).  Unresolved pairs are
        expanded to their children and re-drained until ``last_level``
        settles everything (distances in exact mode, the allocator in
        approximate mode).
        """
        while True:
            carry: list[tuple[np.ndarray, np.ndarray]] = []
            for idx_a, idx_b in batches:
                unresolved = self._process_batch(level, idx_a, idx_b,
                                                 last_level)
                if unresolved is not None:
                    carry.append(unresolved)
            if level == last_level or not carry:
                break
            level += 1
            batches = iter(self._expand(carry, child_level=level))

    # ------------------------------------------------------------------
    # Resumable entry points (used by the parallel engine's workers)
    # ------------------------------------------------------------------
    def process_pairs(
        self, level: int, idx_a: np.ndarray, idx_b: np.ndarray
    ) -> None:
        """Fully resolve one batch of same-level cell pairs.

        Picks up the algorithm mid-descent: the pairs are processed at
        ``level`` and their unresolved children drained down to the
        dense level exactly as :meth:`run` would have.  Counts accumulate
        into :attr:`histogram` / :attr:`stats`; a parallel worker calls
        this for its shard of the frontier and ships both back for
        merging.
        """
        self._drain(level, iter([(idx_a, idx_b)]), self.dense_level)

    def process_dense_rows(self, begin: int, end: int) -> None:
        """Bin the pairs ``(i, j)`` with ``begin <= i < end`` and ``i < j``.

        The rows of the whole-set dense sweep that :meth:`run` does when
        it does not refine; the parallel engine shards them across
        workers.  Unweighted single-set runs only.
        """
        if self.weighted or self.cross_split is not None:
            raise QueryError("row shards cover unweighted single-set runs")
        positions = self.particles.positions
        self._add_sweep(sweep_self, positions[begin:end], None)
        if end < positions.shape[0]:
            self._add_sweep(
                sweep_cross, positions[begin:end], positions[end:], None, None
            )

    # ------------------------------------------------------------------
    # Level geometry tables
    # ------------------------------------------------------------------
    def _level_table(self, level: int) -> _LevelTable:
        """Status/bucket for every offset class of a level (cached)."""
        table = self._tables.get(level)
        if table is not None:
            return table
        grid = self.pyramid.cells_per_axis(level)
        sides = self.pyramid.cell_sides(level)
        dim = self.pyramid.dim

        offsets = np.arange(grid, dtype=np.float64)
        if self.periodic:
            from ..geometry.distance import periodic_interval_minmax

            gap_1d = []
            span_1d = []
            for ax in range(dim):
                length = grid * sides[ax]
                a = np.maximum(offsets - 1, 0.0) * sides[ax]
                b = np.minimum(offsets + 1, grid) * sides[ax]
                g_min, g_max = periodic_interval_minmax(a, b, length)
                gap_1d.append(g_min)
                span_1d.append(g_max)
        else:
            gap_1d = [
                np.maximum(offsets - 1, 0.0) * sides[ax]
                for ax in range(dim)
            ]
            span_1d = [(offsets + 1) * sides[ax] for ax in range(dim)]
        # Row-major class encoding: axis 0 fastest.
        shape = (grid,) * dim
        gap_sq = np.zeros(shape)
        span_sq = np.zeros(shape)
        for ax in range(dim):
            view = [None] * dim
            view[ax] = slice(None)
            idx = tuple(view[::-1])  # axis 0 fastest -> last array axis
            gap_sq = gap_sq + (gap_1d[ax][idx] ** 2)
            span_sq = span_sq + (span_1d[ax][idx] ** 2)
        u = np.sqrt(gap_sq.reshape(-1))
        v = np.sqrt(span_sq.reshape(-1))

        num = self.spec.num_buckets
        bu = self.spec.bucket_of(u)
        bv = self.spec.bucket_of(v)
        status = np.full(u.shape, _OPEN, dtype=np.int8)
        status[bv < 0] = _BELOW
        status[bu >= num] = _ABOVE
        resolved = (bu == bv) & (bu >= 0) & (bu < num)
        status[resolved] = _RESOLVED
        table = _LevelTable(
            status=status, bucket=bu.astype(np.int32)
        )
        self._tables[level] = table
        return table

    def _class_of(self, level: int, idx_a: np.ndarray,
                  idx_b: np.ndarray) -> np.ndarray:
        """Offset-class ids (row-major over per-axis |di|, axis0 fastest)."""
        grid = self.pyramid.cells_per_axis(level)
        diff = np.abs(idx_a - idx_b)
        cls = diff[:, -1].copy()
        for ax in range(self.pyramid.dim - 2, -1, -1):
            cls *= grid
            cls += diff[:, ax]
        return cls

    def _flat(self, level: int, idx: np.ndarray) -> np.ndarray:
        """Flat cell ids from per-axis indices (axis 0 fastest)."""
        grid = self.pyramid.cells_per_axis(level)
        flat = idx[:, -1].copy()
        for ax in range(self.pyramid.dim - 2, -1, -1):
            flat *= grid
            flat += idx[:, ax]
        return flat

    def _counts_float(self, level: int) -> np.ndarray:
        """Per-cell counts as float64 (cached; avoids per-batch casts)."""
        cached = self._float_counts.get(level)
        if cached is None:
            cached = self.pyramid.counts(level).astype(np.float64)
            self._float_counts[level] = cached
        return cached

    # ------------------------------------------------------------------
    # Weighted / cross auxiliary pyramids (built lazily, all levels)
    # ------------------------------------------------------------------
    def _leaf_cell_ids(self) -> np.ndarray:
        """Leaf cell id of every sorted particle (CSR expansion)."""
        starts = self.pyramid.leaf_starts
        return np.repeat(
            np.arange(starts.size - 1, dtype=np.int64), np.diff(starts)
        )

    def _pool_leaf(self, leaf_values: np.ndarray) -> "list[np.ndarray]":
        grid = 1 << (self.pyramid.height - 1)
        return _pool_values(leaf_values, grid, self.pyramid.dim)

    def _weight_sums(self, level: int) -> np.ndarray:
        """Exact integer weight sum per cell at a level (object array)."""
        if self._wsum_levels is None:
            leaf = exact.zero_ints(self.pyramid.leaf_starts.size - 1)
            w_sorted = self._w_obj[self.pyramid.order]
            np.add.at(leaf, self._leaf_cell_ids(), w_sorted)
            self._wsum_levels = self._pool_leaf(leaf)
        return self._wsum_levels[level]

    def _side_weight_sums(
        self, level: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-side weight sums per cell (cross mode, object arrays)."""
        if self._side_wsum_levels is None:
            cells = self._leaf_cell_ids()
            num = self.pyramid.leaf_starts.size - 1
            sides = self._sides_sorted
            leaf_a = exact.zero_ints(num)
            leaf_b = exact.zero_ints(num)
            w_sorted = self._w_obj[self.pyramid.order]
            np.add.at(leaf_a, cells[~sides], w_sorted[~sides])
            np.add.at(leaf_b, cells[sides], w_sorted[sides])
            self._side_wsum_levels = (
                self._pool_leaf(leaf_a), self._pool_leaf(leaf_b)
            )
        return (
            self._side_wsum_levels[0][level],
            self._side_wsum_levels[1][level],
        )

    def _side_counts(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-side float cell counts (cross mode)."""
        if self._side_count_levels is None:
            cells = self._leaf_cell_ids()
            num = self.pyramid.leaf_starts.size - 1
            leaf_b = np.bincount(
                cells[self._sides_sorted], minlength=num
            ).astype(np.float64)
            nb_levels = self._pool_leaf(leaf_b)
            na_levels = [
                self._counts_float(lvl) - nb_levels[lvl]
                for lvl in range(self.pyramid.height)
            ]
            self._side_count_levels = (na_levels, nb_levels)
        return (
            self._side_count_levels[0][level],
            self._side_count_levels[1][level],
        )

    def _pair_masses(
        self, level: int, flat_a: np.ndarray, flat_b: np.ndarray
    ) -> np.ndarray:
        """Exact pair-product masses of whole cell pairs (object array).

        For a resolved pair the sum of its particle-pair products equals
        the product of the two cell weight sums — exactly, because the
        sums are exact integers (the float shortcut the density-map
        engines rely on would not survive rounding).
        """
        if self.cross_split is not None:
            wa, wb = self._side_weight_sums(level)
            return wa[flat_a] * wb[flat_b] + wb[flat_a] * wa[flat_b]
        w = self._weight_sums(level)
        return w[flat_a] * w[flat_b]

    def _add_sweep(self, sweep, *operands) -> None:
        """Add one whole-block sweep (:func:`sweep_self`/``_cross``)."""
        hist, computed = sweep(
            *operands,
            self.spec,
            self.policy,
            self._fast_bin_width,
            self._box_lengths,
            self._kernel_backend,
            self.distance_chunk,
        )
        self.histogram.counts += hist.counts
        self.stats.distance_computations += computed

    def _dense_sweep(self) -> None:
        """Compute every distance of the query in one sweep."""
        if self.on_leaf_pairs is not None:
            cells = np.flatnonzero(self.pyramid.counts(self.dense_level))
            self.on_leaf_pairs(cells, cells)
            a, b = np.triu_indices(cells.size, k=1)
            if a.size:
                self.on_leaf_pairs(cells[a], cells[b])
        positions = self.particles.positions
        weights = self.particles.weights
        split = self.cross_split
        if split is None:
            self._add_sweep(sweep_self, positions, weights)
            return
        sides = (None, None) if weights is None else (
            weights[:split], weights[split:]
        )
        self._add_sweep(
            sweep_cross, positions[:split], positions[split:], *sides
        )

    def _bin_slices(self, layout, starts_a, counts_a, starts_b, counts_b):
        """Bin every point pair of the paired slices of a cell layout.

        Kernel-eligible queries (see ``kernels.fast_uniform_width``) go
        through the selected backend in one call, which fuses distance
        computation and binning.  Anything else computes the distances
        of the same index blocks the way brute force's inline path does
        and bins them through the bucket spec, so policy handling and
        custom buckets behave exactly as there.
        """
        positions = layout.positions
        width = self._fast_bin_width
        if width is not None and self.weighted:
            if self._dense_weights is None:
                self._dense_weights = self.particles.weights[layout.order]
            limbs, computed = self._kernel_backend.bin_gathered_pairs_weighted(
                positions, self._dense_weights, starts_a, starts_b, width,
                self.spec.num_buckets, self._box_lengths,
                counts_a=counts_a, counts_b=counts_b,
            )
            self._accum.add_limbs(limbs, computed)
        elif width is not None:
            hist, computed = self._kernel_backend.bin_gathered_pairs(
                positions, starts_a, starts_b, width, self.spec.num_buckets,
                self._box_lengths, counts_a=counts_a, counts_b=counts_b,
            )
            self.histogram.counts += hist
        else:
            computed = 0
            for ka, kb in numpy_backend.slice_blocks(
                starts_a, counts_a, starts_b, counts_b, self.distance_chunk
            ):
                shape = np.broadcast_shapes(ka.shape, kb.shape)
                ia = np.broadcast_to(ka, shape).ravel()
                ib = np.broadcast_to(kb, shape).ravel()
                delta = positions[ia] - positions[ib]
                if self.periodic:
                    delta = minimum_image(delta, self._box_lengths)
                distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
                computed += distances.size
                if self.weighted:
                    self._accum.bin_products(
                        distances,
                        self._w_obj[layout.order[ia]],
                        self._w_obj[layout.order[ib]],
                    )
                else:
                    self.histogram.add_counts(
                        self.spec.bin_counts_query(
                            distances, policy=self.policy
                        )
                    )
        self.stats.distance_computations += int(computed)

    # ------------------------------------------------------------------
    # Stage 1: intra-cell counts on the start map (Fig. 2 lines 3-5)
    # ------------------------------------------------------------------
    def _intra_cell(self, start: int) -> None:
        counts = self.pyramid.counts(start)
        shortcut = (
            self.spec.low == 0.0
            and self.pyramid.cell_diagonal(start) <= float(self.spec.edges[1])
        )
        if shortcut:
            if self.weighted:
                if self.cross_split is not None:
                    wa, wb = self._side_weight_sums(start)
                    mass = sum((wa * wb).tolist(), 0)
                else:
                    # sum_c (W_c^2 - S2_c) / 2, with sum_c S2_c equal to
                    # the level-independent global sum of squares.
                    w = self._weight_sums(start)
                    square = sum(
                        (x * x for x in self._w_obj.tolist()), 0
                    )
                    mass = (sum((w * w).tolist(), 0) - square) >> 1
                self._accum.add_mass(0, mass)
                return
            if self.cross_split is not None:
                na, nb = self._side_counts(start)
                self.histogram.add(0, float((na * nb).sum()))
                return
            n = counts.astype(np.float64)
            self.histogram.add(0, float((n * (n - 1)).sum() / 2.0))
            return
        if self.approximate:
            # No distance computation allowed: distribute intra-cell
            # ranges [0, diagonal] heuristically.
            nonempty = np.flatnonzero(counts >= 2)
            if nonempty.size == 0:
                return
            n = counts[nonempty].astype(np.float64)
            weights = n * (n - 1) / 2.0
            u = np.zeros(nonempty.size)
            v = np.full(nonempty.size, self.pyramid.cell_diagonal(start))
            context = AllocationContext(
                offsets=np.zeros((nonempty.size, self.pyramid.dim), np.int64),
                cell_sides=self.pyramid.cell_sides(start),
                rng=self.rng,
            )
            self._allocate(u, v, weights, context)
            return
        # Exact runs start above the dense level, on the map
        # start_level_for found, so the shortcut always applies to them.
        raise AssertionError("exact run without the intra-cell shortcut")

    # ------------------------------------------------------------------
    # Stage 2: the level loop
    # ------------------------------------------------------------------
    def _start_pairs(self, level: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """All unordered pairs of non-empty cells on the start map."""
        nonempty = np.flatnonzero(self.pyramid.counts(level))
        c = nonempty.size
        if c < 2:
            return
        idx = self.pyramid.decode(level, nonempty)
        # Emit blocks of rows of the (strict upper) pair triangle.
        row = 0
        while row < c - 1:
            rows_here = max(1, min(c - 1 - row,
                                   self.pair_chunk // max(1, c - row - 1)))
            chunk_rows = np.arange(row, row + rows_here)
            repeats = c - 1 - chunk_rows
            a_rows = np.repeat(chunk_rows, repeats)
            b_rows = np.concatenate(
                [np.arange(r + 1, c) for r in chunk_rows]
            )
            yield idx[a_rows], idx[b_rows]
            row += rows_here

    def _process_batch(
        self,
        level: int,
        idx_a: np.ndarray,
        idx_b: np.ndarray,
        last_level: int,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Resolve one batch of same-level cell pairs.

        Returns the unresolved sub-batch (to be expanded to the next
        level) or None when everything was settled here.
        """
        counts = self._counts_float(level)
        flat_a = self._flat(level, idx_a)
        flat_b = self._flat(level, idx_b)
        if self.cross_split is not None:
            na, nb = self._side_counts(level)
            weights = na[flat_a] * nb[flat_b] + nb[flat_a] * na[flat_b]
        else:
            weights = counts[flat_a] * counts[flat_b]
        num = self.spec.num_buckets

        if self.use_mbr:
            lo_arr = self.pyramid.mbr_lo(level)
            hi_arr = self.pyramid.mbr_hi(level)
            u, v = box_pair_bounds(
                lo_arr[flat_a], hi_arr[flat_a], lo_arr[flat_b], hi_arr[flat_b]
            )
            bu = self.spec.bucket_of(u)
            bv = self.spec.bucket_of(v)
            status = np.full(u.shape, _OPEN, dtype=np.int8)
            status[bv < 0] = _BELOW
            status[bu >= num] = _ABOVE
            status[(bu == bv) & (bu >= 0) & (bu < num)] = _RESOLVED
            bucket = bu
        else:
            table = self._level_table(level)
            cls = self._class_of(level, idx_a, idx_b)
            status = table.status[cls]
            bucket = table.bucket[cls]

        resolved = status == _RESOLVED
        if resolved.any():
            if self.weighted:
                self._accum.add_resolved(
                    np.asarray(bucket[resolved], dtype=np.int64),
                    self._pair_masses(level, flat_a[resolved],
                                      flat_b[resolved]),
                )
            else:
                self.histogram.add_counts(
                    np.bincount(
                        bucket[resolved], weights=weights[resolved],
                        minlength=num,
                    )
                )
        above = status == _ABOVE
        if self.cross_split is not None:
            # A cell pair holding no cross pairs (e.g. both cells pure
            # side A) contributes nothing and must not trip the policy.
            above = above & (weights > 0)
        if above.any():
            if self.weighted:
                masses = self._pair_masses(
                    level, flat_a[above], flat_b[above]
                )
                self._accum.add_overflow(
                    sum(masses.tolist(), 0), int(above.sum())
                )
            else:
                self._handle_overflow(weights[above])
        self.stats.record_batch(
            level,
            examined=idx_a.shape[0],
            resolved=int(resolved.sum()),
            resolved_distances=float(weights[resolved].sum()),
        )

        open_mask = status == _OPEN
        if not open_mask.any():
            return None
        a_open = idx_a[open_mask]
        b_open = idx_b[open_mask]

        if level == last_level:
            if self.approximate:
                u_open, v_open = self._pair_bounds(
                    level, a_open, b_open, flat_a[open_mask],
                    flat_b[open_mask],
                )
                context = AllocationContext(
                    # Under periodic boundaries the offset class does
                    # not determine the pair geometry the sampling
                    # model assumes; omit it so heuristic 4 falls back
                    # to the proportional allocation.
                    offsets=(
                        None if self.periodic
                        else np.abs(a_open - b_open)
                    ),
                    cell_sides=self.pyramid.cell_sides(level),
                    rng=self.rng,
                )
                self._allocate(
                    u_open, v_open, weights[open_mask], context
                )
            else:
                self._dense_pairs(flat_a[open_mask], flat_b[open_mask])
            return None
        return a_open, b_open

    def _pair_bounds(
        self,
        level: int,
        idx_a: np.ndarray,
        idx_b: np.ndarray,
        flat_a: np.ndarray,
        flat_b: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Min/max distance bounds for a (small) subset of pairs."""
        if self.use_mbr:
            lo_arr = self.pyramid.mbr_lo(level)
            hi_arr = self.pyramid.mbr_hi(level)
            return box_pair_bounds(
                lo_arr[flat_a], hi_arr[flat_a],
                lo_arr[flat_b], hi_arr[flat_b],
            )
        if self.periodic:
            from ..geometry.distance import periodic_grid_pair_bounds

            return periodic_grid_pair_bounds(
                idx_a,
                idx_b,
                self.pyramid.cells_per_axis(level),
                self.pyramid.cell_sides(level),
            )
        from ..geometry import grid_pair_bounds

        return grid_pair_bounds(
            idx_a, idx_b, self.pyramid.cell_sides(level)
        )

    def _expand(
        self,
        carry: list[tuple[np.ndarray, np.ndarray]],
        child_level: int,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Children pairs of the unresolved parents (Fig. 2 lines 13-16).

        Works purely in index space: each parent cell's children have
        per-axis indices ``2 * parent + {0, 1}``.
        """
        dim = self.pyramid.dim
        degree = 1 << dim
        shifts = self.pyramid._child_offsets  # (2^d, d)
        step = max(1, self.pair_chunk // degree)
        child_counts = self.pyramid.counts(child_level)

        # Combo pieces are small; coalesce them into ~pair_chunk-sized
        # batches so downstream processing stays vectorized instead of
        # fragmenting 16x per level.
        buffer_a: list[np.ndarray] = []
        buffer_b: list[np.ndarray] = []
        buffered = 0
        for idx_a, idx_b in carry:
            for begin in range(0, idx_a.shape[0], step):
                a2 = idx_a[begin : begin + step] * 2
                b2 = idx_b[begin : begin + step] * 2
                # One pass per (child-of-a, child-of-b) shift combo:
                # avoids materializing the (n, 2^d, 2^d, d) intermediate
                # a broadcasted product would need.
                for sa in range(degree):
                    pa = a2 + shifts[sa]
                    live_a = child_counts[self._flat(child_level, pa)] > 0
                    if not live_a.any():
                        continue
                    pa = pa[live_a]
                    b_live = b2[live_a]
                    for sb in range(degree):
                        pb = b_live + shifts[sb]
                        keep = (
                            child_counts[self._flat(child_level, pb)] > 0
                        )
                        if not keep.any():
                            continue
                        buffer_a.append(pa[keep])
                        buffer_b.append(pb[keep])
                        buffered += buffer_a[-1].shape[0]
                        if buffered >= self.pair_chunk:
                            yield (
                                np.concatenate(buffer_a),
                                np.concatenate(buffer_b),
                            )
                            buffer_a, buffer_b = [], []
                            buffered = 0
        if buffered:
            yield np.concatenate(buffer_a), np.concatenate(buffer_b)

    # ------------------------------------------------------------------
    # Stage 3: dense-level distances (Fig. 2 lines 7-11)
    # ------------------------------------------------------------------
    def _dense_pairs(self, a_ids: np.ndarray, b_ids: np.ndarray) -> None:
        """Distances of the open cell pairs of the dense level.

        Every cell is one slice of :meth:`GridPyramid.layout`, so a cell
        pair is a slice pair.  A cross-set cell holds its side-A
        particles before its side-B ones, so a cell pair is the two
        slice pairs ``(A of a, B of b)`` and ``(B of a, A of b)``.
        """
        if self.on_leaf_pairs is not None:
            self.on_leaf_pairs(a_ids, b_ids)
        level = self.dense_level
        layout = self.pyramid.layout(level)
        starts = layout.starts[:-1]
        counts = self.pyramid.counts(level)
        if self.cross_split is None:
            self._bin_slices(
                layout, starts[a_ids], counts[a_ids], starts[b_ids],
                counts[b_ids],
            )
            return
        na = self._side_counts(level)[0].astype(np.int64)
        nb = counts - na
        mid = starts + na
        self._bin_slices(
            layout,
            np.concatenate((starts[a_ids], mid[a_ids])),
            np.concatenate((na[a_ids], nb[a_ids])),
            np.concatenate((mid[b_ids], starts[b_ids])),
            np.concatenate((nb[b_ids], na[b_ids])),
        )

    # ------------------------------------------------------------------
    def _allocate(
        self,
        u: np.ndarray,
        v: np.ndarray,
        weights: np.ndarray,
        context: AllocationContext,
    ) -> None:
        assert self.allocator is not None
        self.stats.approximated_pairs += int(u.size)
        self.stats.approximated_distances += float(weights.sum())
        self.histogram.add_counts(
            self.allocator.allocate(self.spec, u, v, weights, context)
        )

    def _handle_overflow(self, weights: np.ndarray) -> None:
        if self.policy is OverflowPolicy.RAISE:
            raise DistanceOverflowError(
                f"{weights.size} cell pair(s) entirely above "
                f"{self.spec.high}"
            )
        if self.policy is OverflowPolicy.CLAMP:
            self.histogram.add(
                self.spec.num_buckets - 1, float(weights.sum())
            )
        # DROP: nothing to do.

    def _start_level(self) -> int:
        if self.spec.low == 0.0:
            first_width = float(self.spec.edges[1])
            level = self.pyramid.start_level_for(first_width)
            if level is not None:
                return level
        return self.pyramid.leaf_level


def _pool_values(
    leaf_values: np.ndarray, grid: int, dim: int
) -> "list[np.ndarray]":
    """Per-level cell sums, finest to coarsest, for arbitrary dtypes.

    The same 2x sum-pooling as :meth:`GridPyramid._pool_counts`, but
    usable with float side counts and object-int weight sums (python
    ints survive ``reshape``/``sum``, so the pooled sums stay exact).
    """
    height = grid.bit_length()  # grid == 2**(height-1)
    levels: "list[np.ndarray]" = [None] * height  # type: ignore
    levels[height - 1] = leaf_values
    current = leaf_values.reshape((grid,) * dim, order="F")
    for level in range(height - 2, -1, -1):
        pooled = current
        for axis in range(dim):
            g = pooled.shape[axis]
            new_shape = (
                pooled.shape[:axis] + (g // 2, 2) + pooled.shape[axis + 1 :]
            )
            pooled = pooled.reshape(new_shape).sum(axis=axis + 1)
        current = pooled
        levels[level] = current.reshape(-1, order="F").copy()
    return levels


def _resolve_spec(
    spec: BucketSpec | None,
    bucket_width: float | None,
    particles: ParticleSet,
    periodic: bool = False,
) -> BucketSpec:
    if spec is not None:
        if bucket_width is not None:
            raise QueryError("provide spec or bucket_width, not both")
        return spec
    if bucket_width is None:
        raise QueryError("provide either spec or bucket_width")
    if periodic:
        return UniformBuckets.cover(
            particles.max_periodic_distance, bucket_width
        )
    return UniformBuckets.cover(particles.max_possible_distance, bucket_width)
