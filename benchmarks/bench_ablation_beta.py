"""Ablation A2: the dense-level occupancy beta of Eq. (2).

Sec. III-C.2 sets the tree height so each leaf holds about beta
particles, with beta "slightly greater than 4 in 2D (8 for 3D) since
the CPU cost of resolving two cells is higher than computing the
distance between two points".  The grid engine keeps that pyramid, but
its exact runs stop refining at the *dense level*: Eq. (2)'s leaf level
for ``repro.core.dm_sdh_grid.DENSE_BETA``, re-tuned for the cost ratio
of vectorized resolution to tiled distances.  This ablation sweeps that
beta (one dense level per step, 2^d-fold occupancy apart) and records
the chosen level, its occupancy, the resolve/distance operation split
and wall time, exposing the trade-off the paper describes: too-shallow
dense levels degenerate toward brute force (all distances), too-deep
ones drown in cell-resolution calls.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_ablation_beta.py``.
"""

from __future__ import annotations

import importlib

import pytest

from repro.bench import format_table, make_dataset
from repro.core import GridSDHEngine, SDHStats, UniformBuckets
from repro.quadtree import GridPyramid

from _common import timed, write_result

grid_module = importlib.import_module("repro.core.dm_sdh_grid")

NUM_BUCKETS = 4
#: (dim, N) of each sweep.
SWEEPS = ((2, 6000), (2, 12000), (2, 24000), (3, 24000))
#: DENSE_BETA values around the default, one dense level apart (the
#: 3D beta is twice the constant).
BETAS = {2: (2.0, 8.0, 32.0, 128.0, 512.0), 3: (4.0, 32.0, 256.0)}


def _best_of(run, rounds=3):
    return min(timed(run)[1] for _ in range(rounds))


@pytest.fixture(scope="module")
def beta_data():
    results = {}
    rows = []
    patch = pytest.MonkeyPatch()
    try:
        for dim, n in SWEEPS:
            data = make_dataset("uniform", n, dim=dim, seed=23)
            spec = UniformBuckets.with_count(
                data.max_possible_distance, NUM_BUCKETS
            )
            pyramid = GridPyramid(data)
            for beta in BETAS[dim]:
                patch.setattr(grid_module, "DENSE_BETA", beta)
                stats = SDHStats()
                engine = GridSDHEngine(pyramid, spec=spec, stats=stats)
                level = engine.dense_level
                engine.run()
                seconds = _best_of(
                    lambda: GridSDHEngine(pyramid, spec=spec).run()
                )
                occupancy = n / 2 ** (dim * level)
                results[(dim, n, beta)] = {
                    "level": level,
                    "occupancy": occupancy,
                    "seconds": seconds,
                    "resolve_calls": stats.total_resolve_calls,
                    "distances": stats.distance_computations,
                }
                rows.append([
                    f"{dim}D", n, f"{beta:g}", level, f"{occupancy:.1f}",
                    f"{seconds:.3f}", stats.total_resolve_calls,
                    stats.distance_computations,
                ])
    finally:
        patch.undo()
    text = format_table(
        ["data", "N", "DENSE_BETA", "dense level", "occupancy",
         "time [s]", "resolve calls", "distances computed"],
        rows,
        title=(
            f"Ablation: dense-level beta sweep (uniform, l={NUM_BUCKETS}, "
            f"best of 3; DENSE_BETA={grid_module.DENSE_BETA:g})"
        ),
    )
    write_result("ablation_beta", text)
    return results


def _sweep(results, dim, n):
    return [results[(dim, n, beta)] for beta in BETAS[dim]]


class TestBetaAblation:
    @pytest.mark.parametrize("dim, n", SWEEPS)
    def test_larger_beta_computes_more_distances(self, beta_data, dim, n):
        distances = [r["distances"] for r in _sweep(beta_data, dim, n)]
        assert distances == sorted(distances)

    @pytest.mark.parametrize("dim, n", SWEEPS)
    def test_smaller_beta_resolves_more(self, beta_data, dim, n):
        calls = [r["resolve_calls"] for r in _sweep(beta_data, dim, n)]
        assert calls == sorted(calls, reverse=True)

    @pytest.mark.parametrize("dim, n", SWEEPS)
    def test_default_beta_is_near_optimal(self, beta_data, dim, n):
        """The module's beta should be within 40% of the sweep's best
        wall time (it was tuned for exactly this balance)."""
        best = min(r["seconds"] for r in _sweep(beta_data, dim, n))
        default = beta_data[(dim, n, grid_module.DENSE_BETA)]
        assert default["seconds"] <= 1.4 * best


def test_benchmark_default_beta(benchmark, beta_data):
    data = make_dataset("uniform", 12000, dim=2, seed=23)
    pyramid = GridPyramid(data)
    spec = UniformBuckets.with_count(
        data.max_possible_distance, NUM_BUCKETS
    )
    benchmark.pedantic(
        lambda: GridSDHEngine(pyramid, spec=spec).run(),
        rounds=3,
        iterations=1,
    )
