"""Pure-numpy leaf-resolution backend (always available).

Performs exactly the float operations the engines used inline before
the kernel tier existed — elementwise delta, minimum-image wrap
``delta - L * round(delta / L)`` (round-half-even), per-axis sum of
squares added in axis order, ``sqrt``, then a clamped truncating
division — so the histograms it produces are bit-identical to the
historical engine output and serve as the reference the numba tier is
verified against.

The dense sweeps walk cache-sized tiles of at most :data:`TILE_PAIRS`
pairs.  Coordinates are read per axis from contiguous column arrays,
and every step of the op sequence writes into tile buffers allocated
once per call (``out=`` ufuncs), so a pair costs a handful of passes
over L2-resident memory instead of passes over multi-megabyte panels.
The weighted sweeps scatter one tile at a time, so no pair index array
grows with the input.  See ``docs/KERNELS.md``.
"""

from __future__ import annotations

import numpy as np

from . import exact

__all__ = [
    "NAME",
    "bin_gathered_pairs",
    "bin_dense_self",
    "bin_dense_cross",
    "bin_gathered_pairs_weighted",
    "bin_dense_self_weighted",
    "bin_dense_cross_weighted",
]

NAME = "numpy"

#: Default cap on the rows of one tile of the dense sweeps.  The
#: gathered kernels apply it only to slice pairs larger than one tile,
#: which they cut into row blocks.
DEFAULT_CHUNK = 2048

#: Pairs per tile.  One float64 tile buffer is 512 KiB, so the buffers
#: of a sweep stay resident in a 2 MiB L2.
TILE_PAIRS = 1 << 16


# ----------------------------------------------------------------------
# Tiles: the contract's op sequence in reused buffers
# ----------------------------------------------------------------------


class _Tile:
    """Reused buffers of one sweep and the contract's op sequence.

    Two float64 buffers hold the running sum of squares and the current
    axis's delta (a third holds the minimum-image correction when the
    query is periodic); one int64 buffer holds the bucket indices.
    """

    def __init__(
        self, width: float, nbins: int, box_lengths: np.ndarray | None
    ):
        self.width = width
        self.nbins = nbins
        self.box = (
            None
            if box_lengths is None
            else np.asarray(box_lengths, dtype=np.float64)
        )
        self._acc = np.empty(TILE_PAIRS)
        self._delta = np.empty(TILE_PAIRS)
        self._wrap = None if self.box is None else np.empty(TILE_PAIRS)
        self._bins = np.empty(TILE_PAIRS, dtype=np.int64)

    def bins(self, rows: list, cols: list, dump=None) -> np.ndarray:
        """Bucket indices of the pairs ``rows[k] - cols[k]`` of one tile.

        ``rows[k]`` and ``cols[k]`` hold axis ``k``'s coordinates and
        broadcast against each other: a ``(r, 1)`` column against a
        ``(1, c)`` row for a dense tile, an ``(m, ca, 1)`` block
        against an ``(m, 1, cb)`` block for ``m`` slice pairs.  Pairs
        where ``dump`` is true get index ``nbins``, one past the last
        bucket.
        """
        shape = np.broadcast_shapes(rows[0].shape, cols[0].shape)
        size = int(np.prod(shape))
        acc = self._acc[:size].reshape(shape)
        delta = self._delta[:size].reshape(shape)
        for axis, (a, b) in enumerate(zip(rows, cols)):
            out = acc if axis == 0 else delta
            np.subtract(a, b, out=out)
            if self.box is not None:
                wrap = self._wrap[:size].reshape(shape)
                length = self.box[axis]
                np.divide(out, length, out=wrap)
                np.rint(wrap, out=wrap)  # round-half-even, as np.round
                np.multiply(wrap, length, out=wrap)
                np.subtract(out, wrap, out=out)
            np.multiply(out, out, out=out)
            if axis:
                np.add(acc, delta, out=acc)
        np.sqrt(acc, out=acc)
        np.divide(acc, self.width, out=acc)
        # Truncation of a non-negative quotient == floor, and the clamp
        # covers the topmost bucket edge — the same expression as
        # UniformBuckets.bucket_of under the fast-binning eligibility
        # condition (see kernels.fast_uniform_width).
        bins = self._bins[:size].reshape(shape)
        np.copyto(bins, acc, casting="unsafe")  # truncates, as astype
        np.minimum(bins, self.nbins - 1, out=bins)
        if dump is not None:
            np.putmask(bins[:, : dump.shape[1]], dump, self.nbins)
        return bins


def _columns(positions: np.ndarray) -> list[np.ndarray]:
    positions = np.asarray(positions, dtype=np.float64)
    return [
        np.ascontiguousarray(positions[:, axis])
        for axis in range(positions.shape[1])
    ]


# Sweeps yield ``(bins, key_a, key_b)`` per tile: the tile's bucket
# indices (a view of the tile buffer, overwritten by the next tile), and
# the keys that index a per-point array of either operand into the
# shape that broadcasts against ``bins`` (the weighted kernels gather
# their weight mantissas with them).


def slice_blocks(
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray,
    counts_b: np.ndarray,
    chunk: int = DEFAULT_CHUNK,
):
    """Index blocks covering every point pair of the slice pairs.

    Yields ``(keys_a, keys_b)``: an ``(m, na, 1)`` and an ``(m, 1, nb)``
    int64 array of point indices that broadcast to at most
    :data:`TILE_PAIRS` pairs.  Slice pairs are grouped by their
    ``(na, nb)`` shape, so a batch of small cell pairs costs a few numpy
    calls per shape instead of per pair; a slice pair larger than one
    tile is cut into blocks of at most ``chunk`` rows on its own.
    Every pair is swept with its longer slice last (see below).
    """
    live = (counts_a > 0) & (counts_b > 0)
    if not live.any():
        return
    sa, ca = starts_a[live], counts_a[live]
    sb, cb = starts_b[live], counts_b[live]
    # A pair's distance does not depend on its orientation (a negated
    # delta squares, and wraps, to the same value), so every pair puts
    # its longer slice last: the broadcast's inner loop runs over it,
    # and about half as many shapes remain.
    flip = ca > cb
    sa, sb = np.where(flip, sb, sa), np.where(flip, sa, sb)
    ca, cb = np.minimum(ca, cb), np.maximum(ca, cb)
    shape_key = ca * (int(cb.max()) + 1) + cb
    order = np.argsort(shape_key, kind="stable")
    sa, ca, sb, cb = (x[order] for x in (sa, ca, sb, cb))
    bounds = np.flatnonzero(np.diff(shape_key[order])) + 1
    for lo, hi in zip(
        np.concatenate(([0], bounds)), np.concatenate((bounds, [ca.size]))
    ):
        na, nb = int(ca[lo]), int(cb[lo])
        if na * nb > TILE_PAIRS:
            rows = max(1, min(chunk, na, TILE_PAIRS // nb))
            step = TILE_PAIRS // rows
            for a0, b0 in zip(sa[lo:hi].tolist(), sb[lo:hi].tolist()):
                for i0 in range(a0, a0 + na, rows):
                    ka = np.arange(i0, min(i0 + rows, a0 + na))
                    for j0 in range(b0, b0 + nb, step):
                        kb = np.arange(j0, min(j0 + step, b0 + nb))
                        yield ka[None, :, None], kb[None, None, :]
            continue
        step = TILE_PAIRS // (na * nb)
        offs_a = np.arange(na)[None, :, None]
        offs_b = np.arange(nb)[None, None, :]
        for begin in range(lo, hi, step):
            end = min(begin + step, hi)
            yield (
                sa[begin:end, None, None] + offs_a,
                sb[begin:end, None, None] + offs_b,
            )


def _slice_sweep(tile: _Tile, positions, slices, chunk: int):
    """Tiles of :func:`slice_blocks`.  Gathers read the strided axis
    views directly, so the caller's positions are not copied per call."""
    axes = np.asarray(positions, dtype=np.float64).T
    for ka, kb in slice_blocks(*slices, chunk):
        yield tile.bins([c[ka] for c in axes], [c[kb] for c in axes]), ka, kb


def _self_sweep(tile: _Tile, positions: np.ndarray, chunk: int):
    """Every pair ``i < j``, in tiles of at most ``chunk`` rows.

    A row block ``[i0, i1)`` starts at column ``i0 + 1``, so the first
    tile's leading ``r x (r - 1)`` block holds pairs ``j <= i``, which
    are dumped.  Row blocks grow as the remaining columns shrink, so
    tiles stay near :data:`TILE_PAIRS` pairs; ``r * r <= TILE_PAIRS``
    bounds the dumped waste.
    """
    cols = _columns(positions)
    n = len(positions)
    i0 = 0
    while i0 < n - 1:
        remaining = n - i0
        r = max(1, min(chunk, remaining, TILE_PAIRS // remaining))
        step = TILE_PAIRS // r
        rs = slice(i0, i0 + r)
        dump = np.tri(r, r - 1, k=-1, dtype=bool) if r > 1 else None
        for j0 in range(i0 + 1, n, step):
            cs = slice(j0, j0 + step)
            bins = tile.bins(
                [c[rs, None] for c in cols], [c[None, cs] for c in cols], dump
            )
            yield bins, (rs, None), (None, cs)
            dump = None
        i0 += r


def _cross_sweep(tile: _Tile, pos_a, pos_b, chunk: int):
    """Every ``a x b`` pair, in tiles of at most ``chunk`` rows."""
    cols_a = _columns(pos_a)
    cols_b = _columns(pos_b)
    na, nb = pos_a.shape[0], pos_b.shape[0]
    if not (na and nb):
        return
    r = max(1, min(chunk, na, TILE_PAIRS // nb))
    step = TILE_PAIRS // r
    for i0 in range(0, na, r):
        rs = slice(i0, i0 + r)
        for j0 in range(0, nb, step):
            cs = slice(j0, j0 + step)
            bins = tile.bins(
                [c[rs, None] for c in cols_a], [c[None, cs] for c in cols_b]
            )
            yield bins, (rs, None), (None, cs)


def _histogram(tile: _Tile, sweep) -> np.ndarray:
    hist = np.zeros(tile.nbins + 1, dtype=np.int64)
    for bins, _, _ in sweep:
        hist += np.bincount(bins.ravel(), minlength=tile.nbins + 1)
    return hist[: tile.nbins]


def slice_arrays(starts_a, starts_b, counts_a=None, counts_b=None):
    """``(starts_a, counts_a, starts_b, counts_b)`` as contiguous int64
    arrays (both backends); absent counts mean slices of one point."""
    ones = np.ones(np.shape(starts_a)[0], dtype=np.int64)
    return tuple(
        np.ascontiguousarray(ones if arr is None else arr, dtype=np.int64)
        for arr in (starts_a, counts_a, starts_b, counts_b)
    )


def slice_pair_total(counts_a: np.ndarray, counts_b: np.ndarray) -> int:
    """Point pairs of all slice pairs, as a Python int (it reaches JSON)."""
    return int(np.dot(counts_a, counts_b)) if counts_a.size else 0


def bin_gathered_pairs(
    positions: np.ndarray,
    starts_a: np.ndarray,
    starts_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = DEFAULT_CHUNK,
    counts_a: np.ndarray | None = None,
    counts_b: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Histogram the distances between paired slices of ``positions``.

    Pair ``k`` covers every point of ``positions[starts_a[k]:][:counts_a[k]]``
    against every point of ``positions[starts_b[k]:][:counts_b[k]]``.
    Without counts every slice holds one point: the pairs
    ``(starts_a[k], starts_b[k])`` are enumerated explicitly.
    """
    slices = slice_arrays(starts_a, starts_b, counts_a, counts_b)
    tile = _Tile(width, nbins, box_lengths)
    sweep = _slice_sweep(tile, positions, slices, chunk)
    return _histogram(tile, sweep), slice_pair_total(slices[1], slices[3])


def bin_dense_self(
    positions: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> tuple[np.ndarray, int]:
    """Histogram all ``n(n-1)/2`` intra-set distances."""
    tile = _Tile(width, nbins, box_lengths)
    sweep = _self_sweep(tile, positions, chunk)
    n = positions.shape[0]
    return _histogram(tile, sweep), n * (n - 1) // 2


def bin_dense_cross(
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> tuple[np.ndarray, int]:
    """Histogram all ``len(a) * len(b)`` cross-set distances."""
    tile = _Tile(width, nbins, box_lengths)
    sweep = _cross_sweep(tile, pos_a, pos_b, chunk)
    return _histogram(tile, sweep), pos_a.shape[0] * pos_b.shape[0]


# ----------------------------------------------------------------------
# Weighted variants: same distance op-sequence and bin indices as the
# unweighted kernels, with pair weights ``w_i * w_j`` accumulated through
# the exact fixed-point machinery of :mod:`repro.kernels.exact` (limb
# arrays).  Returns ``(limbs, n_distances)``; callers convert limbs to
# exact bucket integers and round once at the end of the query.
# ----------------------------------------------------------------------


def _weighted(tile: _Tile, sweep, weights_a, weights_b=None) -> np.ndarray:
    """Exact limb sums of ``w_a * w_b`` per bucket, one tile at a time.

    Limb row ``nbins`` collects the dumped pairs and is dropped.  One
    :class:`~repro.kernels.exact.ScatterScratch` serves every tile.
    """
    mant_a, shift_a = exact.decompose(weights_a)
    mant_b, shift_b = (
        (mant_a, shift_a) if weights_b is None else exact.decompose(weights_b)
    )
    limbs = exact.new_limbs(tile.nbins + 1)
    scratch = exact.ScatterScratch(TILE_PAIRS)
    pending = 0
    for bins, ka, kb in sweep:
        exact.scatter_products(
            limbs, bins, mant_a[ka], shift_a[ka], mant_b[kb], shift_b[kb],
            scratch,
        )
        pending += bins.size
        if pending >= exact.SCATTER_LIMIT:
            exact.normalize_limbs(limbs)
            pending = 0
    return limbs[: tile.nbins]


def bin_gathered_pairs_weighted(
    positions: np.ndarray,
    weights: np.ndarray,
    starts_a: np.ndarray,
    starts_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = DEFAULT_CHUNK,
    counts_a: np.ndarray | None = None,
    counts_b: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Weighted histogram of paired slices (see :func:`bin_gathered_pairs`)."""
    slices = slice_arrays(starts_a, starts_b, counts_a, counts_b)
    tile = _Tile(width, nbins, box_lengths)
    sweep = _slice_sweep(tile, positions, slices, chunk)
    limbs = _weighted(tile, sweep, weights)
    return limbs, slice_pair_total(slices[1], slices[3])


def bin_dense_self_weighted(
    positions: np.ndarray,
    weights: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> tuple[np.ndarray, int]:
    """Weighted histogram of all ``n(n-1)/2`` intra-set pairs."""
    tile = _Tile(width, nbins, box_lengths)
    sweep = _self_sweep(tile, positions, chunk)
    n = positions.shape[0]
    return _weighted(tile, sweep, weights), n * (n - 1) // 2


def bin_dense_cross_weighted(
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> tuple[np.ndarray, int]:
    """Weighted histogram of all ``len(a) * len(b)`` cross-set pairs."""
    tile = _Tile(width, nbins, box_lengths)
    sweep = _cross_sweep(tile, pos_a, pos_b, chunk)
    limbs = _weighted(tile, sweep, weights_a, weights_b)
    return limbs, pos_a.shape[0] * pos_b.shape[0]
