"""Seeded inputs, operations and output checks of the library workloads.

A library workload runs in a child process (``worker.py``) that makes
its inputs from the seed and times calls into ``repro``'s public API;
the parent process (``run.py``) rebuilds the same inputs from the same
seed to check every output outside the timed region.

Sizes are below those of the paper's figures so that one run, its
set-up and its checks fit the benchmark's time budget on a 2-core host;
``README.md`` records the sizes and why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro
from repro import AABB, ParticleSet, SDHQuery, SDHRequest
from repro.data.trajectory import random_walk_trajectory
from repro.incremental.delta import IncrementalSDH


def pairs(n: int) -> int:
    return n * (n - 1) // 2


def error_rate(counts: list[float], exact: list[float]) -> float:
    """The paper's Sec VI-B error: sum |h - h'| / sum h."""
    return float(np.abs(np.subtract(counts, exact)).sum() / np.sum(exact))


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def uniform_set(seed: int, tag: int, n: int, dim: int) -> ParticleSet:
    """``n`` points uniform in the unit cube."""
    points = _rng(seed, tag).uniform(0.0, 1.0, size=(n, dim))
    return ParticleSet(points, AABB.cube(1.0, dim))


def zipf_set(seed: int, tag: int, n: int, dim: int) -> ParticleSet:
    """``n`` points whose ``16**dim`` grid cells fill by a Zipf(1) law:
    clustered data with many empty cells (the paper's skewed case)."""
    grid = 16
    rng = _rng(seed, tag)
    cells = grid ** dim
    weights = 1.0 / np.arange(1, cells + 1, dtype=float)
    cell = rng.permutation(cells)[
        rng.choice(cells, size=n, p=weights / weights.sum())
    ]
    points = np.empty((n, dim))
    for axis in range(dim):
        points[:, axis] = (cell % grid + rng.uniform(0.0, 1.0, n)) / grid
        cell //= grid
    return ParticleSet(np.minimum(points, np.nextafter(1.0, 0.0)),
                       AABB.cube(1.0, dim))


@dataclass
class Op:
    """One timed call into the program.

    ``cls`` groups operations for per-class metrics, ``key`` names the
    inputs and request so the parent can check the output, and
    ``pairs`` is the number of particle pairs the histogram covers.
    """

    cls: str
    key: str
    pairs: int
    call: Callable[[], Any]


class ExactOneshot:
    """Exact ``compute_sdh`` calls, engine and kernel left on ``auto``."""

    name = "exact-oneshot"
    trace_rounds = 1

    def inputs(self, seed: int) -> dict[str, Any]:
        weighted = uniform_set(seed, 3, 2000, 2)
        return {
            "u2": uniform_set(seed, 1, 6000, 2),
            "z3": zipf_set(seed, 2, 3000, 3),
            "w2": weighted,
            "w": tuple(_rng(seed, 4).uniform(0.5, 2.0, weighted.size)),
            "a": uniform_set(seed, 5, 3000, 2),
            "b": uniform_set(seed, 6, 3000, 2),
        }

    def queries(self, inp: dict[str, Any]) -> dict[str, tuple]:
        """key -> (class, dataset, request, second dataset or None)."""
        out = {}
        for l in (4, 16, 64):
            out[f"u2/l{l}"] = ("plain", inp["u2"],
                               SDHRequest(num_buckets=l), None)
        for l in (16, 64):
            out[f"z3/l{l}"] = ("plain", inp["z3"],
                               SDHRequest(num_buckets=l), None)
        out["w2/l16"] = ("weighted", inp["w2"],
                         SDHRequest(num_buckets=16, weights=inp["w"]), None)
        out["ab/l16"] = ("cross", inp["a"], SDHRequest(num_buckets=16),
                         inp["b"])
        return out

    def setup(self, inp: dict[str, Any]) -> dict[str, tuple]:
        return self.queries(inp)

    def round(self, state: dict[str, tuple]) -> list[Op]:
        ops = []
        for key, (cls, data, request, b) in state.items():
            n = data.size * b.size if b is not None else pairs(data.size)
            ops.append(Op(cls, key, n, _exact_call(data, request, b)))
        return ops

    def expected(self, inp: dict[str, Any]) -> dict[str, list[float]]:
        """The brute engine's histogram for every query."""
        out = {}
        for key, (_, data, request, b) in self.queries(inp).items():
            hist = repro.compute_sdh(
                data, request.replace(engine="brute"), b=b
            )
            out[key] = hist.counts.tolist()
        return out


def _exact_call(data, request, b):
    # Looked up at call time, so the traced run's wrapper is the one called.
    return lambda: repro.compute_sdh(data, request, b=b)


class ApproxBounded:
    """Error-bounded ADM-SDH queries against prebuilt ``SDHQuery`` plans."""

    name = "approx-bounded"
    trace_rounds = 1
    BOUNDS = (0.1, 0.01)
    BUCKETS = (16, 64)

    def inputs(self, seed: int) -> dict[str, Any]:
        return {
            "u2": uniform_set(seed, 1, 5000, 2),
            "u3": uniform_set(seed, 2, 4000, 3),
            "seed": seed,
        }

    def setup(self, inp: dict[str, Any]) -> dict[str, Any]:
        return {"plans": {k: SDHQuery(inp[k]) for k in ("u2", "u3")},
                "seed": inp["seed"]}

    def round(self, state: dict[str, Any]) -> list[Op]:
        ops = []
        for name, plan in state["plans"].items():
            for eps in self.BOUNDS:
                for l in self.BUCKETS:
                    request = SDHRequest(num_buckets=l, error_bound=eps,
                                         heuristic=3)
                    rng = state["seed"] * 1000 + len(ops)
                    ops.append(Op(
                        "approx", f"{name}/l{l}/e{eps}",
                        pairs(plan.particles.size),
                        _plan_call(plan, request, rng),
                    ))
        return ops

    def expected(self, inp: dict[str, Any]) -> dict[str, list[float]]:
        """Exact histograms (brute engine) at each bucket count."""
        out = {}
        for name in ("u2", "u3"):
            for l in self.BUCKETS:
                hist = repro.compute_sdh(
                    inp[name], SDHRequest(num_buckets=l, engine="brute")
                )
                for eps in self.BOUNDS:
                    out[f"{name}/l{l}/e{eps}"] = hist.counts.tolist()
        return out


def _plan_call(plan, request, rng):
    return lambda: plan.run(request, rng=rng)


class TrajectoryStream:
    """``IncrementalSDH`` fed the frames of a seeded random walk."""

    name = "trajectory-stream"
    trace_rounds = 2
    N = 6000
    #: One round: a stretch of small moves, then one of larger moves.
    STRETCHES = ((16, 0.01), (4, 0.05))

    def inputs(self, seed: int) -> dict[str, Any]:
        first = uniform_set(seed, 1, self.N, 2)
        return {
            "first": first,
            "spec": SDHRequest(num_buckets=16).resolved_spec(first),
            "rng": _rng(seed, 2),
        }

    def setup(self, inp: dict[str, Any]) -> dict[str, Any]:
        return {"inc": IncrementalSDH(inp["spec"], inp["first"]),
                "inp": inp, "last": inp["first"]}

    def frames(self, inp: dict[str, Any], last: ParticleSet) -> list:
        """The next round of frames after ``last`` (advances the rng)."""
        out = []
        for count, fraction in self.STRETCHES:
            walk = random_walk_trajectory(
                last, count + 1, move_fraction=fraction, rng=inp["rng"]
            )
            out.extend(walk.frames[1:])
            last = out[-1]
        return out

    def round(self, state: dict[str, Any]) -> list[Op]:
        frames = self.frames(state["inp"], state["last"])
        state["last"] = frames[-1]
        inc = state["inc"]
        return [
            Op("frame", "frame", pairs(self.N),
               lambda f=f: inc.advance(f))
            for f in frames
        ]

    def final_frame(self, seed: int, rounds: int) -> ParticleSet:
        inp = self.inputs(seed)
        last = inp["first"]
        for _ in range(rounds):
            last = self.frames(inp, last)[-1]
        return last


LIBRARY = {w.name: w for w in (ExactOneshot(), ApproxBounded(),
                                TrajectoryStream())}
