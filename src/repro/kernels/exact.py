"""Exact fixed-point accumulation for weighted histograms.

Weighted SDH buckets hold sums of pair-weight products ``w_i * w_j``.
Accumulating them in float64 would make the result depend on summation
order — and every engine (brute, tree, grid, parallel shards) visits
pairs in a different order, so bit-identical differential verification
would be impossible.  Worse, the density-map engines never touch most
pairs at all: a resolved cell pair contributes the *product of two cell
weight sums*, which only equals the sum of its pairwise products in
exact arithmetic.

This module therefore represents every weight exactly as a scaled
integer and keeps all intermediate sums exact:

* a float64 weight ``w = m * 2**(e-53)`` (``m`` the 53-bit signed
  mantissa) becomes the integer ``m << (e - 53 + WEIGHT_BIAS)`` — exact
  for every finite double, including subnormals, at scale
  ``2**-WEIGHT_BIAS``;
* pair products, cell-sum products and squared weights are integer
  products at scale ``2**-PRODUCT_BIAS``;
* per-bucket accumulators are either arbitrary-precision Python ints
  (engine-level cell resolution) or fixed-width little-endian *limb
  arrays* of int64 (kernel-level hot loops: vectorizable in numpy,
  loopable in numba, mergeable by plain integer addition);
* :func:`finalize` divides the exact integer totals by
  ``2**PRODUCT_BIAS`` with Python's correctly-rounded int/int division.

The result of a weighted query is therefore the **correctly-rounded
double of the exact real sum** — independent of engine decomposition,
kernel tier, chunk size, thread count and merge order.  That is what
lets ``repro-sdh verify`` demand bit-identical weighted histograms from
every engine x kernel-tier combination.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WEIGHT_BIAS",
    "PRODUCT_BIAS",
    "LIMB_BITS",
    "NLIMBS",
    "decompose",
    "weight_ints",
    "zero_ints",
    "new_limbs",
    "BINCOUNT_PAIRS",
    "ScatterScratch",
    "scatter_products",
    "normalize_limbs",
    "limbs_to_ints",
    "finalize",
    "exact_weighted_total",
]

#: Scale exponent of single weights: ``w * 2**WEIGHT_BIAS`` is an exact
#: integer for every finite double (the smallest subnormal is
#: ``2**-1074``; frexp yields exponents >= -1073 and mantissa shift 53).
WEIGHT_BIAS = 1126

#: Scale exponent of pair products (two weights multiplied).
PRODUCT_BIAS = 2 * WEIGHT_BIAS

#: Bits per limb of the fixed-width kernel accumulators.  Limbs are
#: stored in int64 so ~2**30 carries can pile up before overflow;
#: :func:`normalize_limbs` restores canonical [0, 2**32) digits.
LIMB_BITS = 32

#: Limbs needed to cover any pair product: the largest product mantissa
#: top bit sits at ``2 * 1024 + PRODUCT_BIAS`` ~ 4300 bits.
NLIMBS = 136

_MASK = (1 << LIMB_BITS) - 1


def decompose(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(mantissa, shift)`` integer form of float64 values.

    Each value equals ``mantissa * 2**(shift - WEIGHT_BIAS)`` exactly,
    with ``|mantissa| <= 2**53`` and ``shift >= 0``.  Zeros decompose to
    mantissa 0.  Values must be finite (``ParticleSet`` validates).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    frac, exp = np.frexp(values)
    mant = (frac * 9007199254740992.0).astype(np.int64)  # * 2**53, exact
    shift = exp.astype(np.int64) - 53 + WEIGHT_BIAS
    return mant, shift


def weight_ints(values: np.ndarray) -> np.ndarray:
    """Exact integers at scale ``2**-WEIGHT_BIAS``, as an object array.

    Python ints carry arbitrary precision, so cell weight sums and
    sum-products computed from these are exact; numpy object arrays let
    the engines keep their vectorized indexing/pooling idioms.
    """
    mant, shift = decompose(values)
    out = np.empty(mant.shape[0], dtype=object)
    for i in range(mant.shape[0]):
        out[i] = int(mant[i]) << int(shift[i])
    return out


def zero_ints(nbins: int) -> np.ndarray:
    """A fresh object-int bucket accumulator (all buckets zero)."""
    out = np.empty(int(nbins), dtype=object)
    out[:] = 0
    return out


def new_limbs(nbins: int) -> np.ndarray:
    """A fresh ``(nbins, NLIMBS)`` int64 limb accumulator."""
    return np.zeros((int(nbins), NLIMBS), dtype=np.int64)


#: Most pairs one bincount pass of :func:`scatter_products` covers.  A
#: pass adds one 28-bit piece of every pair's product to a slot no
#: other piece of that pair touches, so every float64 slot sum stays
#: below ``2**48`` — an exact integer, whatever order bincount adds in.
BINCOUNT_PAIRS = 1 << 20

#: Bit offsets of the four pieces of a product mantissa (see
#: :func:`scatter_products`).
_PIECE_BITS = 27
_LOW_PIECE = (1 << _PIECE_BITS) - 1
_TOP_PIECE = 3 * _PIECE_BITS


class ScatterScratch:
    """Buffers of :func:`scatter_products`, reused across its calls.

    A weighted kernel makes one per call and hands it to every tile's
    scatter, so a tile allocates nothing of its own size: the pair keys,
    the three partial products, one integer temporary and one float64
    piece buffer are written in place (``out=`` ufuncs).  Fresh
    tile-sized temporaries on every tile would be returned to the
    allocator and faulted back in each time.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.keys, self.p0, self.p1, self.p2, self.tmp = (
            np.empty(self.capacity, dtype=np.int64) for _ in range(5)
        )
        self.piece = np.empty(self.capacity)

    def views(self, shape: tuple) -> tuple[np.ndarray, ...]:
        """The six buffers' leading elements, shaped like one tile."""
        size = int(np.prod(shape))
        return tuple(
            buf[:size].reshape(shape)
            for buf in (self.keys, self.p0, self.p1, self.p2, self.tmp,
                        self.piece)
        )


def scatter_products(
    limbs: np.ndarray,
    bins: np.ndarray,
    mant_a: np.ndarray,
    shift_a: np.ndarray,
    mant_b: np.ndarray,
    shift_b: np.ndarray,
    scratch: ScatterScratch | None = None,
) -> None:
    """Add exact pair products ``a * b`` into per-bucket limb rows.

    Each signed 53-bit mantissa splits as ``hi * 2**27 + lo`` with
    ``lo`` in ``[0, 2**27)`` (floor shift, so ``|hi| <= 2**26``); the
    three partial products ``lo*lo``, ``lo*hi + hi*lo`` and ``hi*hi``
    stay inside int64, and regrouped on a 27-bit grid they give four
    pieces, each below ``2**28`` in magnitude, at bit offsets 0, 27, 54
    and 81 above the pair's shift ``shift_a + shift_b``.

    ``np.bincount`` then sums the pieces per ``(bin, shift)`` slot in
    passes of at most :data:`BINCOUNT_PAIRS` pairs (exact, see there),
    and only those few slot totals are carry-split into the signed
    32-bit limb pieces of their ``(bin, limb)`` rows — so the per-pair
    work has no variable shifts at all.  Pure integer arithmetic: order
    cannot perturb the result.

    The ``a`` and ``b`` operands broadcast against ``bins``: a dense
    tile passes a column of row points and a row of column points.
    ``scratch`` supplies the tile-sized buffers; without one (or with
    one too small) they are allocated for this call.
    """
    shape = np.shape(bins)
    n = int(np.prod(shape))
    if not n:
        return
    if scratch is None or scratch.capacity < n:
        scratch = ScatterScratch(n)
    keys, p0, p1, p2, tmp, piece = scratch.views(shape)
    low_a, low_b = int(shift_a.min()), int(shift_b.min())
    spread = int(shift_a.max()) - low_a + int(shift_b.max()) - low_b
    width = spread + _TOP_PIECE + 1  # slots per bin: shifts + piece offsets
    size = limbs.shape[0] * width
    np.multiply(bins, width, out=keys)
    keys += shift_a - low_a
    keys += shift_b - low_b
    hi_a, lo_a = mant_a >> _PIECE_BITS, mant_a & _LOW_PIECE
    hi_b, lo_b = mant_b >> _PIECE_BITS, mant_b & _LOW_PIECE
    np.multiply(lo_a, lo_b, out=p0)
    np.multiply(lo_a, hi_b, out=p1)
    np.multiply(hi_a, lo_b, out=tmp)
    p1 += tmp
    np.multiply(hi_a, hi_b, out=p2)
    keys, p0, p1, p2, tmp, piece = (
        a.reshape(-1) for a in (keys, p0, p1, p2, tmp, piece)
    )
    for start in range(0, n, BINCOUNT_PAIRS):
        part = slice(start, start + BINCOUNT_PAIRS)
        sums = np.zeros(size + _TOP_PIECE)
        for k in range(4):
            _piece(k, p0[part], p1[part], p2[part], tmp[part], piece[part])
            at = k * _PIECE_BITS
            sums[at : at + size] += np.bincount(
                keys[part], piece[part], minlength=size
            )
        _add_at_shifts(
            limbs, sums[:size].astype(np.int64).reshape(-1, width),
            low_a + low_b,
        )


def _piece(k, p0, p1, p2, tmp, out) -> None:
    """Piece ``k`` of the partial products, written to float64 ``out``.

    The pieces are ``p0 & LOW``, ``(p0 >> 27) + (p1 & LOW)``,
    ``(p1 >> 27) + (p2 & LOW)`` and ``p2 >> 27``: integers below
    ``2**29`` in magnitude, so float64 holds them and their sum exactly.
    """
    if k == 0:
        np.bitwise_and(p0, _LOW_PIECE, out=tmp)
        np.copyto(out, tmp)
        return
    np.right_shift((p0, p1, p2)[k - 1], _PIECE_BITS, out=tmp)
    np.copyto(out, tmp)
    if k < 3:
        np.bitwise_and((p1, p2)[k - 1], _LOW_PIECE, out=tmp)
        out += tmp


def _add_at_shifts(limbs: np.ndarray, totals: np.ndarray, lowest: int):
    """Add ``totals[b, t] * 2**(lowest + t)`` into limb row ``b``.

    Each total (``|total| < 2**48``) splits into a low, mid and high
    limb piece, all below ``2**32`` in magnitude; at most 32 columns
    share a limb, so the float64 bincount sums stay exact.
    """
    shifts = lowest + np.arange(totals.shape[1], dtype=np.int64)
    off = shifts & 31
    keep = 32 - off  # in [1, 32], so every shift below is < 64
    rest = totals >> keep
    slots = (
        np.arange(totals.shape[0], dtype=np.int64)[:, None] * NLIMBS
        + (shifts >> 5)
    ).ravel()
    pieces = (
        (totals & ((np.int64(1) << keep) - 1)) << off,
        rest & _MASK,
        rest >> LIMB_BITS,
    )
    flat = np.zeros(limbs.size + 2)
    for k, piece in enumerate(pieces):
        flat[k : k + limbs.size] += np.bincount(
            slots, piece.ravel(), minlength=limbs.size
        )
    limbs += flat[: limbs.size].astype(np.int64).reshape(limbs.shape)


#: Pairs one limb array can absorb between normalizations without any
#: risk of int64 overflow (a pair's four product pieces add at most
#: four limb pieces below 2**32 to any limb).
SCATTER_LIMIT = 1 << 28


def normalize_limbs(limbs: np.ndarray) -> None:
    """Carry-propagate so every limb is a canonical [0, 2**32) digit.

    (The top limb keeps the sign; conversion handles it.)  Needed only
    to bound int64 growth between scatter batches — conversions via
    :func:`limbs_to_ints` are exact for any limb values.
    """
    for k in range(limbs.shape[1] - 1):
        carry = limbs[:, k] >> LIMB_BITS
        limbs[:, k] -= carry << LIMB_BITS
        limbs[:, k + 1] += carry


def limbs_to_ints(limbs: np.ndarray) -> np.ndarray:
    """Exact Python-int value of each limb row (object array)."""
    out = np.empty(limbs.shape[0], dtype=object)
    for b in range(limbs.shape[0]):
        total = 0
        row = limbs[b]
        for k in range(limbs.shape[1] - 1, -1, -1):
            total = (total << LIMB_BITS) + int(row[k])
        out[b] = total
    return out


_PRODUCT_DEN = 1 << PRODUCT_BIAS


def finalize(bucket_ints: np.ndarray) -> np.ndarray:
    """Correctly-rounded float64 bucket values of exact integer sums."""
    out = np.empty(bucket_ints.shape[0], dtype=np.float64)
    for b in range(bucket_ints.shape[0]):
        try:
            out[b] = bucket_ints[b] / _PRODUCT_DEN
        except OverflowError:  # |sum| beyond the double range
            out[b] = np.inf if bucket_ints[b] > 0 else -np.inf
    return out


def exact_weighted_total(
    weights_a: np.ndarray, weights_b: np.ndarray | None = None
) -> float:
    """Correctly-rounded total weighted pair mass.

    Self mass ``((sum w)**2 - sum w**2) / 2`` for one set, or the full
    cross mass ``(sum wa) * (sum wb)`` for two — computed through the
    same exact integer path as the engines, so a conserving engine's
    histogram total matches this value bit-for-bit.
    """
    wa = weight_ints(weights_a)
    total_a = sum(wa.tolist(), 0)
    if weights_b is None:
        square = sum((w * w for w in wa.tolist()), 0)
        mass = (total_a * total_a - square) >> 1
    else:
        wb = weight_ints(weights_b)
        mass = total_a * sum(wb.tolist(), 0)
    try:
        return mass / _PRODUCT_DEN
    except OverflowError:  # pragma: no cover - astronomically large
        return float("inf") if mass > 0 else float("-inf")
