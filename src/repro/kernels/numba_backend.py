"""Numba leaf-resolution backend: tiled, multi-threaded pair histograms.

CADISHI-style design (see ``docs/KERNELS.md``): the dense kernels walk
point blocks of :data:`BLOCK` rows so both operands of the inner loop
stay cache-resident, and every ``prange`` lane accumulates into its own
private ``int64`` histogram row; the rows are merged by integer
summation afterwards, which is exactly order-independent — the merge
cannot perturb the result no matter how the scheduler interleaves
lanes.  Each distance is computed with the identical sequence of
IEEE-754 double operations as the numpy backend (no fastmath, no
reassociation), so histograms are bit-identical to the numpy tier; the
differential verify harness enforces this across all fuzz families.

This module imports ``numba`` unconditionally — it must only be
imported through :func:`repro.kernels.get_backend`, which guards on
:data:`repro.kernels.NUMBA_AVAILABLE`.  Compilation is lazy (first
call) and cached on disk via ``cache=True``.
"""

from __future__ import annotations

import numpy as np

import numba
from numba import njit, prange

from . import exact
from .numpy_backend import slice_arrays, slice_pair_total

__all__ = [
    "NAME",
    "bin_gathered_pairs",
    "bin_dense_self",
    "bin_dense_cross",
    "bin_gathered_pairs_weighted",
    "bin_dense_self_weighted",
    "bin_dense_cross_weighted",
]

NAME = "numba"

#: Point-block edge of the dense kernels.  256 rows x 3 axes x 8 bytes
#: = 6 KiB per operand block — two blocks plus a histogram row fit in
#: L1/L2 comfortably.
BLOCK = 256

#: Work-chunk multiplier for the gathered-slices kernel: more chunks
#: than threads smooths load imbalance from uneven slice pairs.
_CHUNKS_PER_THREAD = 8


def _num_chunks(n_items: int) -> int:
    return max(1, min(n_items, numba.get_num_threads() * _CHUNKS_PER_THREAD))


@njit(parallel=True, cache=True)
def _gathered_slices_kernel(
    positions, starts_a, counts_a, starts_b, counts_b, width, nbins, box,
    periodic, nchunks,
):  # pragma: no cover - compiled
    hist = np.zeros((nchunks, nbins), dtype=np.int64)
    n = starts_a.shape[0]
    dim = positions.shape[1]
    for t in prange(nchunks):
        for p in range(t, n, nchunks):
            for a in range(starts_a[p], starts_a[p] + counts_a[p]):
                for b in range(starts_b[p], starts_b[p] + counts_b[p]):
                    d2 = 0.0
                    for ax in range(dim):
                        delta = positions[a, ax] - positions[b, ax]
                        if periodic:
                            delta = delta - box[ax] * np.rint(
                                delta / box[ax]
                            )
                        d2 += delta * delta
                    k = np.int64(np.sqrt(d2) / width)
                    if k >= nbins:
                        k = nbins - 1
                    hist[t, k] += 1
    return hist


@njit(parallel=True, cache=True)
def _dense_self_kernel(
    positions, width, nbins, box, periodic, block
):  # pragma: no cover - compiled
    n = positions.shape[0]
    dim = positions.shape[1]
    nblocks = (n + block - 1) // block
    rows = nblocks if nblocks > 0 else 1
    hist = np.zeros((rows, nbins), dtype=np.int64)
    for bi in prange(nblocks):
        i0 = bi * block
        i1 = min(n, i0 + block)
        for bj in range(bi, nblocks):
            j0 = bj * block
            j1 = min(n, j0 + block)
            for i in range(i0, i1):
                js = i + 1 if bi == bj else j0
                for j in range(js, j1):
                    d2 = 0.0
                    for ax in range(dim):
                        delta = positions[i, ax] - positions[j, ax]
                        if periodic:
                            delta = delta - box[ax] * np.rint(
                                delta / box[ax]
                            )
                        d2 += delta * delta
                    k = np.int64(np.sqrt(d2) / width)
                    if k >= nbins:
                        k = nbins - 1
                    hist[bi, k] += 1
    return hist


@njit(parallel=True, cache=True)
def _dense_cross_kernel(
    pos_a, pos_b, width, nbins, box, periodic, block
):  # pragma: no cover - compiled
    na = pos_a.shape[0]
    nb = pos_b.shape[0]
    dim = pos_a.shape[1]
    nblocks = (na + block - 1) // block
    rows = nblocks if nblocks > 0 else 1
    hist = np.zeros((rows, nbins), dtype=np.int64)
    for bi in prange(nblocks):
        i0 = bi * block
        i1 = min(na, i0 + block)
        for j0 in range(0, nb, block):
            j1 = min(nb, j0 + block)
            for i in range(i0, i1):
                for j in range(j0, j1):
                    d2 = 0.0
                    for ax in range(dim):
                        delta = pos_a[i, ax] - pos_b[j, ax]
                        if periodic:
                            delta = delta - box[ax] * np.rint(
                                delta / box[ax]
                            )
                        d2 += delta * delta
                    k = np.int64(np.sqrt(d2) / width)
                    if k >= nbins:
                        k = nbins - 1
                    hist[bi, k] += 1
    return hist


# ----------------------------------------------------------------------
# Weighted variants.  Distances and bin indices use the identical op
# sequence as the unweighted kernels above; pair weights accumulate as
# exact fixed-point integers into per-lane limb arrays (see
# repro.kernels.exact), so lane merging is plain integer addition and
# the result is the correctly-rounded exact sum — independent of thread
# count, schedule, and backend.
# ----------------------------------------------------------------------

#: Pairs one private limb row absorbs between carry normalizations.
_NORMALIZE_EVERY = 1 << 26


@njit(cache=True)
def _scatter_product(
    limbs, k, ma, sa, mb, sb
):  # pragma: no cover - compiled
    """Add the exact product of two decomposed weights into bucket k."""
    sign = np.int64(1)
    if ma < 0:
        sign = -sign
        ma = -ma
    if mb < 0:
        sign = -sign
        mb = -mb
    if ma == 0 or mb == 0:
        return
    hi_a = ma >> 27
    lo_a = ma & np.int64(0x7FFFFFF)
    hi_b = mb >> 27
    lo_b = mb & np.int64(0x7FFFFFF)
    base = sa + sb
    for part in range(4):
        if part == 0:
            p = lo_a * lo_b
            shift = base
        elif part == 1:
            p = lo_a * hi_b
            shift = base + 27
        elif part == 2:
            p = hi_a * lo_b
            shift = base + 27
        else:
            p = hi_a * hi_b
            shift = base + 54
        limb = shift >> 5
        off = shift & np.int64(31)
        keep = np.int64(32) - off
        low = (p & ((np.int64(1) << keep) - 1)) << off
        rest = p >> keep
        limbs[k, limb] += sign * low
        limbs[k, limb + 1] += sign * (rest & np.int64(0xFFFFFFFF))
        limbs[k, limb + 2] += sign * (rest >> 32)


@njit(cache=True)
def _normalize_row(limbs):  # pragma: no cover - compiled
    """Carry-propagate one (nbins, nlimbs) row to [0, 2**32) digits."""
    for b in range(limbs.shape[0]):
        for k in range(limbs.shape[1] - 1):
            carry = limbs[b, k] >> 32
            limbs[b, k] -= carry << 32
            limbs[b, k + 1] += carry


@njit(parallel=True, cache=True)
def _gathered_slices_weighted_kernel(
    positions, mant, shift, starts_a, counts_a, starts_b, counts_b, width,
    nbins, box, periodic, nchunks, nlimbs, normalize_every,
):  # pragma: no cover - compiled
    limbs = np.zeros((nchunks, nbins, nlimbs), dtype=np.int64)
    n = starts_a.shape[0]
    dim = positions.shape[1]
    for t in prange(nchunks):
        pending = 0
        for p in range(t, n, nchunks):
            for a in range(starts_a[p], starts_a[p] + counts_a[p]):
                for b in range(starts_b[p], starts_b[p] + counts_b[p]):
                    d2 = 0.0
                    for ax in range(dim):
                        delta = positions[a, ax] - positions[b, ax]
                        if periodic:
                            delta = delta - box[ax] * np.rint(
                                delta / box[ax]
                            )
                        d2 += delta * delta
                    k = np.int64(np.sqrt(d2) / width)
                    if k >= nbins:
                        k = nbins - 1
                    _scatter_product(
                        limbs[t], k, mant[a], shift[a], mant[b], shift[b]
                    )
                    pending += 1
                    if pending >= normalize_every:
                        _normalize_row(limbs[t])
                        pending = 0
        _normalize_row(limbs[t])
    return limbs


@njit(parallel=True, cache=True)
def _dense_self_weighted_kernel(
    positions, mant, shift, width, nbins, box, periodic, block, nlimbs,
    normalize_every,
):  # pragma: no cover - compiled
    n = positions.shape[0]
    dim = positions.shape[1]
    nblocks = (n + block - 1) // block
    rows = nblocks if nblocks > 0 else 1
    limbs = np.zeros((rows, nbins, nlimbs), dtype=np.int64)
    for bi in prange(nblocks):
        pending = 0
        i0 = bi * block
        i1 = min(n, i0 + block)
        for bj in range(bi, nblocks):
            j0 = bj * block
            j1 = min(n, j0 + block)
            for i in range(i0, i1):
                js = i + 1 if bi == bj else j0
                for j in range(js, j1):
                    d2 = 0.0
                    for ax in range(dim):
                        delta = positions[i, ax] - positions[j, ax]
                        if periodic:
                            delta = delta - box[ax] * np.rint(
                                delta / box[ax]
                            )
                        d2 += delta * delta
                    k = np.int64(np.sqrt(d2) / width)
                    if k >= nbins:
                        k = nbins - 1
                    _scatter_product(
                        limbs[bi], k, mant[i], shift[i], mant[j], shift[j]
                    )
            pending += (i1 - i0) * (j1 - j0)
            if pending >= normalize_every:
                _normalize_row(limbs[bi])
                pending = 0
        _normalize_row(limbs[bi])
    return limbs


@njit(parallel=True, cache=True)
def _dense_cross_weighted_kernel(
    pos_a, pos_b, mant_a, shift_a, mant_b, shift_b, width, nbins, box,
    periodic, block, nlimbs, normalize_every,
):  # pragma: no cover - compiled
    na = pos_a.shape[0]
    nb = pos_b.shape[0]
    dim = pos_a.shape[1]
    nblocks = (na + block - 1) // block
    rows = nblocks if nblocks > 0 else 1
    limbs = np.zeros((rows, nbins, nlimbs), dtype=np.int64)
    for bi in prange(nblocks):
        pending = 0
        i0 = bi * block
        i1 = min(na, i0 + block)
        for j0 in range(0, nb, block):
            j1 = min(nb, j0 + block)
            for i in range(i0, i1):
                for j in range(j0, j1):
                    d2 = 0.0
                    for ax in range(dim):
                        delta = pos_a[i, ax] - pos_b[j, ax]
                        if periodic:
                            delta = delta - box[ax] * np.rint(
                                delta / box[ax]
                            )
                        d2 += delta * delta
                    k = np.int64(np.sqrt(d2) / width)
                    if k >= nbins:
                        k = nbins - 1
                    _scatter_product(
                        limbs[bi], k,
                        mant_a[i], shift_a[i], mant_b[j], shift_b[j],
                    )
            pending += (i1 - i0) * (j1 - j0)
            if pending >= normalize_every:
                _normalize_row(limbs[bi])
                pending = 0
        _normalize_row(limbs[bi])
    return limbs


def bin_gathered_pairs_weighted(
    positions: np.ndarray,
    weights: np.ndarray,
    starts_a: np.ndarray,
    starts_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = 2048,
    counts_a: np.ndarray | None = None,
    counts_b: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Weighted histogram of paired slices (see :func:`bin_gathered_pairs`)."""
    positions = _prep(positions)
    slices = slice_arrays(starts_a, starts_b, counts_a, counts_b)
    mant, shift = exact.decompose(weights)
    box, periodic = _box_args(box_lengths, positions.shape[1])
    limbs = _gathered_slices_weighted_kernel(
        positions, mant, shift, *slices, float(width), int(nbins),
        box, periodic, _num_chunks(slices[0].shape[0]), exact.NLIMBS,
        _NORMALIZE_EVERY,
    )
    return limbs.sum(axis=0), slice_pair_total(slices[1], slices[3])


def bin_dense_self_weighted(
    positions: np.ndarray,
    weights: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = 2048,
) -> tuple[np.ndarray, int]:
    """Weighted histogram of all ``n(n-1)/2`` intra-set pairs."""
    positions = _prep(positions)
    n = positions.shape[0]
    mant, shift = exact.decompose(weights)
    box, periodic = _box_args(box_lengths, positions.shape[1])
    limbs = _dense_self_weighted_kernel(
        positions, mant, shift, float(width), int(nbins), box, periodic,
        BLOCK, exact.NLIMBS, _NORMALIZE_EVERY,
    )
    return limbs.sum(axis=0), n * (n - 1) // 2


def bin_dense_cross_weighted(
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = 2048,
) -> tuple[np.ndarray, int]:
    """Weighted histogram of all ``len(a) * len(b)`` cross-set pairs."""
    pos_a = _prep(pos_a)
    pos_b = _prep(pos_b)
    mant_a, shift_a = exact.decompose(weights_a)
    mant_b, shift_b = exact.decompose(weights_b)
    box, periodic = _box_args(box_lengths, pos_a.shape[1])
    limbs = _dense_cross_weighted_kernel(
        pos_a, pos_b, mant_a, shift_a, mant_b, shift_b, float(width),
        int(nbins), box, periodic, BLOCK, exact.NLIMBS, _NORMALIZE_EVERY,
    )
    return limbs.sum(axis=0), int(pos_a.shape[0]) * int(pos_b.shape[0])


def _prep(positions: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(positions, dtype=np.float64)




def _box_args(
    box_lengths: np.ndarray | None, dim: int
) -> tuple[np.ndarray, bool]:
    if box_lengths is None:
        # Never read by the kernel (periodic=False); ones keep the
        # division well-defined for any speculative execution.
        return np.ones(dim, dtype=np.float64), False
    box = np.ascontiguousarray(
        np.broadcast_to(np.asarray(box_lengths, dtype=np.float64), (dim,))
    )
    return box, True


def bin_gathered_pairs(
    positions: np.ndarray,
    starts_a: np.ndarray,
    starts_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = 2048,
    counts_a: np.ndarray | None = None,
    counts_b: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Histogram the distances between paired slices of ``positions``.

    Pair ``k`` covers ``counts_a[k]`` points from ``starts_a[k]``
    against ``counts_b[k]`` points from ``starts_b[k]``; without counts
    every slice holds one point.  Each ``prange`` lane loops over a
    stride of the slice pairs.
    """
    positions = _prep(positions)
    slices = slice_arrays(starts_a, starts_b, counts_a, counts_b)
    box, periodic = _box_args(box_lengths, positions.shape[1])
    hist = _gathered_slices_kernel(
        positions, *slices, float(width), int(nbins),
        box, periodic, _num_chunks(slices[0].shape[0]),
    )
    return hist.sum(axis=0), slice_pair_total(slices[1], slices[3])


def bin_dense_self(
    positions: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = 2048,
) -> tuple[np.ndarray, int]:
    """Histogram all ``n(n-1)/2`` intra-set distances."""
    positions = _prep(positions)
    n = positions.shape[0]
    box, periodic = _box_args(box_lengths, positions.shape[1])
    hist = _dense_self_kernel(
        positions, float(width), int(nbins), box, periodic, BLOCK
    )
    return hist.sum(axis=0), n * (n - 1) // 2


def bin_dense_cross(
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = 2048,
) -> tuple[np.ndarray, int]:
    """Histogram all ``len(a) * len(b)`` cross-set distances."""
    pos_a = _prep(pos_a)
    pos_b = _prep(pos_b)
    box, periodic = _box_args(box_lengths, pos_a.shape[1])
    hist = _dense_cross_kernel(
        pos_a, pos_b, float(width), int(nbins), box, periodic, BLOCK
    )
    return hist.sum(axis=0), int(pos_a.shape[0]) * int(pos_b.shape[0])
