"""Array-based density-map pyramid.

The linked-node tree of :mod:`repro.quadtree.tree` is a faithful replica
of the paper's data structure, but Python objects are slow to traverse
at scale.  :class:`GridPyramid` stores the *same* series of density maps
as numpy arrays — one count grid per level, plus a CSR layout of the
particles sorted by finest-level cell — so the vectorized DM-SDH engine
(:mod:`repro.core.dm_sdh_grid`) can process millions of cell pairs in
bulk.  Both structures represent identical density maps; tests assert
their per-level counts agree cell by cell.

Cells at level ``k`` form a ``2**k``-per-axis grid over the simulation
box.  Flat cell ids are row-major over axes ``(x, y[, z])`` with x
fastest, i.e. ``flat = ix + G * (iy + G * iz)``.

:meth:`GridPyramid.layout` gives the particles of any level in that
level's cell order, so every cell of the level is one contiguous slice
(the cell lists of FCFC, see PAPERS.md); the exact engine sweeps its
dense level from such slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..data.particles import ParticleSet
from ..errors import TreeError
from .tree import tree_height

__all__ = ["CellLayout", "GridPyramid"]


@dataclass(frozen=True)
class CellLayout:
    """The particles sorted by the cells of one level.

    Cell ``c`` owns slots ``starts[c]:starts[c + 1]``; slot ``k`` holds
    particle ``order[k]`` of :attr:`GridPyramid.particles`, at
    ``positions[k]``.  Within a cell, particles keep their dataset
    order, so the two sides of a concatenated cross-set input (side A
    first) form two consecutive sub-slices.
    """

    order: np.ndarray
    positions: np.ndarray
    starts: np.ndarray


class GridPyramid:
    """Density maps of doubling resolution stored as numpy count grids.

    Parameters mirror :class:`~repro.quadtree.tree.DensityMapTree`.
    With ``with_mbr`` the pyramid additionally stores, per level, the
    per-cell coordinate minima/maxima of the contained particles (the
    MBR optimization of Sec. III-C.3).
    """

    def __init__(
        self,
        particles: ParticleSet,
        height: int | None = None,
        beta: float | None = None,
        with_mbr: bool = False,
    ):
        if height is None:
            height = tree_height(particles.size, particles.dim, beta)
        if height < 1:
            raise TreeError(f"height must be >= 1, got {height}")
        self._particles = particles
        self._height = int(height)
        self._with_mbr = bool(with_mbr)
        self._layouts: dict[int, CellLayout] = {}
        self._build()

    # ------------------------------------------------------------------
    @classmethod
    def from_components(
        cls,
        particles: ParticleSet,
        height: int,
        leaf_starts: np.ndarray,
        sorted_positions: np.ndarray,
    ) -> "GridPyramid":
        """Reassemble a pyramid from its leaf-level arrays without rebuilding.

        This is the parallel engine's worker-side constructor: the
        parent ships ``sorted_positions`` and ``leaf_starts`` through
        shared memory, and each worker wraps zero-copy views of them
        into a pyramid whose per-level counts are re-pooled from the
        leaf counts (cheap — the whole pyramid holds ~(2^d/(2^d-1))×
        the leaf cell count).  ``particles`` must already hold the
        *sorted* positions, so :attr:`order` is the identity and is not
        materialized.  MBR arrays are not reconstructed.
        """
        self = cls.__new__(cls)
        if height < 1:
            raise TreeError(f"height must be >= 1, got {height}")
        self._particles = particles
        self._height = int(height)
        self._with_mbr = False
        self._leaf_starts = np.asarray(leaf_starts, dtype=np.int64)
        self._sorted_positions = sorted_positions
        self._order = None  # identity by construction; never gathered
        self._layouts = {}
        grid = 1 << (self._height - 1)
        dim = particles.dim
        if self._leaf_starts.size != grid**dim + 1:
            raise TreeError(
                f"leaf_starts has {self._leaf_starts.size} entries, "
                f"expected {grid ** dim + 1} for height {self._height}"
            )
        leaf_counts = np.diff(self._leaf_starts)
        self._counts = self._pool_counts(leaf_counts, grid, dim)
        self._child_offsets = self._make_child_offsets(dim)
        return self

    @property
    def particles(self) -> ParticleSet:
        """The indexed dataset."""
        return self._particles

    @property
    def height(self) -> int:
        """Number of levels H (level 0 is the single-cell map)."""
        return self._height

    @property
    def dim(self) -> int:
        """Spatial dimensionality."""
        return self._particles.dim

    @property
    def has_mbr(self) -> bool:
        """Whether per-cell MBR arrays were built."""
        return self._with_mbr

    @property
    def leaf_level(self) -> int:
        """Index of the finest density map."""
        return self._height - 1

    def cells_per_axis(self, level: int) -> int:
        """Grid size ``2**level`` of a level."""
        self._check_level(level)
        return 1 << level

    def cell_sides(self, level: int) -> np.ndarray:
        """Per-axis cell side lengths at a level."""
        self._check_level(level)
        sides = np.asarray(self._particles.box.sides, dtype=float)
        return sides / (1 << level)

    def cell_diagonal(self, level: int) -> float:
        """Cell diagonal at a level (start-map criterion input)."""
        sides = self.cell_sides(level)
        return float(math.sqrt(float((sides * sides).sum())))

    def counts(self, level: int) -> np.ndarray:
        """Flat int64 array of per-cell particle counts at a level."""
        self._check_level(level)
        return self._counts[level]

    def start_level_for(self, bucket_width: float) -> int | None:
        """First level with cell diagonal <= bucket width, else None."""
        for level in range(self._height):
            if self.cell_diagonal(level) <= bucket_width:
                return level
        return None

    # -- cell id arithmetic --------------------------------------------
    def decode(self, level: int, flat: np.ndarray) -> np.ndarray:
        """Per-axis integer indices ``(n, d)`` of flat cell ids."""
        grid = self.cells_per_axis(level)
        flat = np.asarray(flat, dtype=np.int64)
        out = np.empty(flat.shape + (self.dim,), dtype=np.int64)
        remaining = flat
        for axis in range(self.dim):
            out[..., axis] = remaining % grid
            remaining = remaining // grid
        return out

    def encode(self, level: int, idx: np.ndarray) -> np.ndarray:
        """Flat cell ids from per-axis indices (inverse of :meth:`decode`)."""
        grid = self.cells_per_axis(level)
        idx = np.asarray(idx, dtype=np.int64)
        flat = np.zeros(idx.shape[:-1], dtype=np.int64)
        for axis in range(self.dim - 1, -1, -1):
            flat = flat * grid + idx[..., axis]
        return flat

    def children_of(self, level: int, flat: np.ndarray) -> np.ndarray:
        """Flat ids ``(n, 2**d)`` of each cell's children one level down.

        This is the refinement step of ``RESOLVETWOCELLS`` (Fig. 2 lines
        13–16): a non-resolvable cell is replaced by its 4/8 partitions
        on the next density map.
        """
        if level + 1 >= self._height:
            raise TreeError(f"level {level} has no children")
        idx = self.decode(level, flat)  # (n, d)
        offsets = self._child_offsets  # (2**d, d)
        child_idx = idx[:, None, :] * 2 + offsets[None, :, :]
        return self.encode(level + 1, child_idx)

    # -- particle access (leaf level, CSR layout) -----------------------
    def leaf_slice(self, flat: int) -> np.ndarray:
        """Dataset indices of the particles in one leaf cell."""
        start = self._leaf_starts[flat]
        stop = self._leaf_starts[flat + 1]
        return self._order[start:stop]

    @property
    def leaf_starts(self) -> np.ndarray:
        """CSR offsets: leaf cell ``c`` owns ``order[starts[c]:starts[c+1]]``."""
        return self._leaf_starts

    @property
    def order(self) -> np.ndarray:
        """Dataset indices sorted by leaf cell id."""
        return self._order

    @property
    def sorted_positions(self) -> np.ndarray:
        """Positions re-ordered by leaf cell (cache-friendly gathers)."""
        return self._sorted_positions

    def layout(self, level: int) -> CellLayout:
        """Particles in the cell order of ``level`` (built once, cached).

        Cell membership comes from the leaf CSR (a level cell's index is
        its leaf cells' index shifted right), so every slice holds
        exactly the particles :meth:`counts` reports for its cell.  The
        pyramid never changes after construction, so the cache needs no
        invalidation; concurrent first calls may both build it, and
        either result is the same.
        """
        self._check_level(level)
        cached = self._layouts.get(level)
        if cached is not None:
            return cached
        starts = self._leaf_starts
        leaf_cells = np.repeat(
            np.arange(starts.size - 1, dtype=np.int64), np.diff(starts)
        )
        cells = self.encode(
            level, self.decode(self.leaf_level, leaf_cells)
            >> (self.leaf_level - level)
        )
        if self._order is not None:  # back to dataset order
            by_particle = np.empty_like(cells)
            by_particle[self._order] = cells
            cells = by_particle
        order = np.argsort(cells, kind="stable").astype(np.int64)
        level_starts = np.zeros(self.cells_per_axis(level) ** self.dim + 1,
                                dtype=np.int64)
        np.cumsum(self._counts[level], out=level_starts[1:])
        cached = CellLayout(
            order=order,
            positions=np.ascontiguousarray(
                self._particles.positions[order]
            ),
            starts=level_starts,
        )
        self._layouts[level] = cached
        return cached

    # -- MBR arrays ------------------------------------------------------
    def mbr_lo(self, level: int) -> np.ndarray:
        """Per-cell particle-coordinate minima ``(cells, d)`` (MBR mode).

        Empty cells hold ``+inf``; engines must mask them out (they skip
        empty cells anyway).
        """
        self._require_mbr()
        self._check_level(level)
        return self._mbr_lo[level]

    def mbr_hi(self, level: int) -> np.ndarray:
        """Per-cell particle-coordinate maxima (``-inf`` when empty)."""
        self._require_mbr()
        self._check_level(level)
        return self._mbr_hi[level]

    # ------------------------------------------------------------------
    def _build(self) -> None:
        particles = self._particles
        positions = particles.positions
        dim = particles.dim
        height = self._height
        grid = 1 << (height - 1)

        lo = np.asarray(particles.box.lo)
        sides = np.asarray(particles.box.sides, dtype=float)
        # Bin to the finest level; particles exactly on the upper box
        # face are clipped into the last cell.
        scaled = (positions - lo) / sides * grid
        cell_idx = np.clip(scaled.astype(np.int64), 0, grid - 1)
        flat = np.zeros(positions.shape[0], dtype=np.int64)
        for axis in range(dim - 1, -1, -1):
            flat = flat * grid + cell_idx[:, axis]

        num_leaves = grid**dim
        leaf_counts = np.bincount(flat, minlength=num_leaves)
        self._order = np.argsort(flat, kind="stable").astype(np.int64)
        self._sorted_positions = np.ascontiguousarray(positions[self._order])
        starts = np.zeros(num_leaves + 1, dtype=np.int64)
        np.cumsum(leaf_counts, out=starts[1:])
        self._leaf_starts = starts

        self._counts = self._pool_counts(leaf_counts, grid, dim)
        self._child_offsets = self._make_child_offsets(dim)

        if self._with_mbr:
            self._build_mbrs(flat, positions, grid, dim)

    @staticmethod
    def _pool_counts(
        leaf_counts: np.ndarray, grid: int, dim: int
    ) -> "list[np.ndarray]":
        """Count pyramid, finest to coarsest, by 2x sum-pooling per axis."""
        height = grid.bit_length()  # grid == 2**(height-1)
        counts: list[np.ndarray] = [None] * height  # type: ignore
        counts[height - 1] = np.asarray(leaf_counts, dtype=np.int64)
        current = counts[height - 1].reshape((grid,) * dim, order="F")
        for level in range(height - 2, -1, -1):
            pooled = current
            for axis in range(dim):
                g = pooled.shape[axis]
                new_shape = (
                    pooled.shape[:axis] + (g // 2, 2) + pooled.shape[axis + 1 :]
                )
                pooled = pooled.reshape(new_shape).sum(axis=axis + 1)
            current = pooled
            counts[level] = np.ascontiguousarray(
                current.reshape(-1, order="F")
            ).astype(np.int64)
        return counts

    @staticmethod
    def _make_child_offsets(dim: int) -> np.ndarray:
        """Child-offset table in the same axis order as encode/decode."""
        offsets = np.zeros((2**dim, dim), dtype=np.int64)
        for code in range(2**dim):
            for axis in range(dim):
                offsets[code, axis] = (code >> axis) & 1
        return offsets

    def _build_mbrs(
        self,
        flat: np.ndarray,
        positions: np.ndarray,
        grid: int,
        dim: int,
    ) -> None:
        height = self._height
        num_leaves = grid**dim
        lo = np.full((num_leaves, dim), np.inf)
        hi = np.full((num_leaves, dim), -np.inf)
        np.minimum.at(lo, flat, positions)
        np.maximum.at(hi, flat, positions)
        self._mbr_lo: list[np.ndarray] = [None] * height  # type: ignore
        self._mbr_hi: list[np.ndarray] = [None] * height  # type: ignore
        self._mbr_lo[height - 1] = lo
        self._mbr_hi[height - 1] = hi
        for level in range(height - 2, -1, -1):
            child_grid = 1 << (level + 1)
            parent_grid = 1 << level
            num_parents = parent_grid**dim
            child_ids = np.arange(child_grid**dim, dtype=np.int64)
            child_axes = self.decode(level + 1, child_ids)
            parent_flat = self.encode(level, child_axes // 2)
            plo = np.full((num_parents, dim), np.inf)
            phi = np.full((num_parents, dim), -np.inf)
            np.minimum.at(plo, parent_flat, self._mbr_lo[level + 1])
            np.maximum.at(phi, parent_flat, self._mbr_hi[level + 1])
            self._mbr_lo[level] = plo
            self._mbr_hi[level] = phi

    def _require_mbr(self) -> None:
        if not self._with_mbr:
            raise TreeError("pyramid was built without MBRs")

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self._height:
            raise TreeError(
                f"level {level} out of range [0, {self._height})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridPyramid(N={self._particles.size}, d={self.dim}, "
            f"H={self._height}, mbr={self._with_mbr})"
        )
