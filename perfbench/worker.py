"""Child process that runs one library workload against ``repro``.

Run by ``run.py`` with ``PYTHONPATH=src``; prints one JSON object with
the timings, outputs and (traced) per-layer metrics.  ``--probe``
measures only the import-time part of set-up.

    python3 perfbench/worker.py --workload exact-oneshot --seed 1 \
        --seconds 10 --rounds 0 --trace 0
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time


def _import_program() -> float:
    """Import the program and load what it loads lazily; seconds taken."""
    started = time.perf_counter()
    import repro  # noqa: F401
    from repro.kernels import get_backend
    from repro.planner import get_calibration

    get_calibration()
    get_backend("auto")
    return time.perf_counter() - started


def environment() -> dict:
    """The planner's routing inputs, recorded with every result."""
    import os

    import numpy as np
    from repro.kernels import available_kernel_tiers
    from repro.planner import get_calibration

    return {
        "calibration": get_calibration().source,
        "kernel_tiers": list(available_kernel_tiers()),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds (0: time-bound)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_program()
    if args.probe:
        print(json.dumps({"import_s": import_s}))
        return 0

    from layers import install, layer_metrics
    from spans import SpanRecorder
    from workloads import LIBRARY

    workload = LIBRARY[args.workload]
    inputs = workload.inputs(args.seed)
    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        install(recorder)

    setup_samples = []
    for _ in range(3):
        started = time.perf_counter()
        state = workload.setup(inputs)
        setup_samples.append(time.perf_counter() - started)

    ops = []
    rounds = 0
    began = time.perf_counter()
    while (rounds < args.rounds if args.rounds
           else time.perf_counter() - began < args.seconds):
        for index, op in enumerate(workload.round(state)):
            started = time.perf_counter()
            if recorder is not None:
                with recorder.span("op", request=f"{op.cls}-{rounds}.{index}"):
                    hist = op.call()
            else:
                hist = op.call()
            seconds = time.perf_counter() - started
            ops.append({
                "round": rounds, "cls": op.cls, "key": op.key,
                "pairs": op.pairs,
                "seconds": seconds, "total": float(hist.total),
                "counts": hist.counts.tolist() if op.key != "frame" else None,
            })
        rounds += 1
    result = {
        "import_s": import_s,
        "setup_samples": setup_samples,
        "rounds": rounds,
        "ops": ops,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if workload.name == "trajectory-stream":
        result["final_counts"] = state["inc"].histogram.counts.tolist()
    if recorder is not None:
        result["layers"] = layer_metrics(recorder.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
