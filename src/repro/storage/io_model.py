"""I/O cost measurement: DM-SDH versus the blocked nested-loop baseline.

Sec. IV-B claims DM-SDH's I/O complexity is ``O((N/b)^{(2d-1)/d})`` —
asymptotically below the ``O((N/b)^2 / B)`` page cost of computing all
distances with a block-based nested-loop self-join.  This module turns
both claims into measurements on the simulated storage stack:

* :func:`blocked_join_io` — the classic analytic page cost of a block
  nested-loop self-join, plus an exact buffer-pool replay;
* :func:`dm_sdh_io` — replays the *actual* leaf-page access trace of a
  DM-SDH run (captured via the engine's ``on_leaf_pairs`` hook) against
  an LRU buffer pool.

Both report buffer *misses*, which are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.buckets import BucketSpec
from ..core.dm_sdh_grid import GridSDHEngine, dense_level
from ..data.particles import ParticleSet
from ..errors import StorageError
from ..quadtree.grid import GridPyramid
from .layout import CellPageLayout
from .pager import BufferPool, IOCounter

__all__ = ["IOReport", "blocked_join_io", "dm_sdh_io", "dm_sdh_io_bound"]

_DATA_TAG = "data"


@dataclass(frozen=True)
class IOReport:
    """Result of one simulated I/O experiment."""

    num_pages: int  #: data pages P = ceil(N / b)
    buffer_pages: int  #: buffer pool capacity B
    page_reads: int  #: physical reads (buffer misses)
    logical_reads: int  #: total page requests
    #: Distinct (page, page) combinations brought together for distance
    #: work — the quantity behind the paper's "one data page only needs
    #: to be paired with O(sqrt(N)) other data pages" (0 for the join,
    #: which pairs every page with every page by construction).
    page_pairs: int = 0

    @property
    def hit_ratio(self) -> float:
        """Buffer hit ratio of the run."""
        if self.logical_reads == 0:
            return 0.0
        return 1.0 - self.page_reads / self.logical_reads


def blocked_join_io(
    num_pages: int,
    buffer_pages: int,
    simulate: bool = True,
) -> IOReport:
    """Page cost of a block nested-loop *self*-join over the data file.

    The brute-force SDH reads every pair of pages: with ``B`` buffer
    pages, ``B - 1`` outer pages are pinned per outer block and the
    whole file streams past them.  Analytically that costs::

        P + ceil(P / (B - 1)) * P        physical reads (roughly)

    With ``simulate=True`` the exact access trace is replayed through
    the LRU pool instead, which is what the benchmarks report.
    """
    if num_pages < 1:
        raise StorageError("need at least one page")
    if buffer_pages < 2:
        raise StorageError("block nested loop needs >= 2 buffer pages")
    if not simulate:
        outer_blocks = -(-num_pages // (buffer_pages - 1))
        reads = num_pages + outer_blocks * num_pages
        return IOReport(num_pages, buffer_pages, reads, reads)

    counter = IOCounter()
    pool = BufferPool(buffer_pages, counter)
    block = buffer_pages - 1
    for outer_lo in range(0, num_pages, block):
        outer = range(outer_lo, min(outer_lo + block, num_pages))
        for page in outer:
            pool.get(_DATA_TAG, page)
        for inner in range(num_pages):
            pool.get(_DATA_TAG, inner)
    return IOReport(
        num_pages, buffer_pages, counter.reads, counter.logical_reads
    )


def dm_sdh_io(
    particles: ParticleSet,
    spec: BucketSpec,
    page_size: int,
    buffer_pages: int,
    pyramid: GridPyramid | None = None,
) -> IOReport:
    """Replay a real DM-SDH run's leaf-page accesses through a buffer.

    Only distance calculations touch particle data (cell resolution
    reads the density maps, which are tiny — Sec. IV-B item 2 notes
    their I/O "will be much smaller"); the engine's ``on_leaf_pairs``
    hook captures exactly those accesses.  The engine computes
    distances between the cells of its dense level, so the pages are
    laid out by those cells: the pyramid's leaf must be the dense level
    (the default pyramid is built that way).
    """
    if pyramid is None:
        pyramid = GridPyramid(
            particles, height=dense_level(particles.size, particles.dim) + 1
        )
    layout = CellPageLayout(pyramid, page_size)
    counter = IOCounter()
    pool = BufferPool(buffer_pages, counter)
    num_pages = layout.num_pages
    first_page = layout.first_pages
    pair_keys: set[int] = set()

    def observe(a_ids: np.ndarray, b_ids: np.ndarray) -> None:
        if a_ids is b_ids or np.array_equal(a_ids, b_ids):
            # Intra-cell scan: each cell's own pages stream once.
            pool.get_many(_DATA_TAG, layout.pages_of_cells(a_ids))
            return
        # Distinct page pairs (cells are finer than pages; each cell's
        # first page represents it — cells rarely straddle pages).
        pa = first_page[np.minimum(a_ids, b_ids)]
        pb = first_page[np.maximum(a_ids, b_ids)]
        pair_keys.update(np.unique(pa * num_pages + pb).tolist())
        # LRU replay, scheduled for locality: group by the first cell
        # so its pages stay pinned while partners stream past — the
        # blocking the paper assumes when it counts one page against
        # its O(sqrt(N)) partner pages.
        order = np.lexsort((pb, pa))
        for a, b in zip(a_ids[order], b_ids[order]):
            pool.get_many(_DATA_TAG, layout.pages_of_cell(int(a)))
            pool.get_many(_DATA_TAG, layout.pages_of_cell(int(b)))

    engine = GridSDHEngine(pyramid, spec=spec)
    if engine.dense_level != pyramid.leaf_level:
        raise StorageError(
            f"pyramid leaf level {pyramid.leaf_level} is not the engine's "
            f"dense level {engine.dense_level}"
        )
    engine.on_leaf_pairs = observe
    engine.run()
    return IOReport(
        layout.num_pages,
        buffer_pages,
        counter.reads,
        counter.logical_reads,
        page_pairs=len(pair_keys),
    )


def dm_sdh_io_bound(n: int, page_size: int, dim: int) -> float:
    """The paper's asymptotic I/O bound ``(N / b)^{(2d-1)/d}``."""
    if n < 1 or page_size < 1:
        raise StorageError("n and page_size must be positive")
    pages = max(1.0, n / page_size)
    return pages ** ((2 * dim - 1) / dim)
