"""Child process that serves ``repro``'s HTTP service for serve-mix.

Prints one JSON line ``{"port": ..., "import_s": ...}`` once the server
listens, serves until a line arrives on stdin, then shuts down and
prints one JSON line with its peak memory and, when traced, the
per-layer metrics and each request's time inside the server.

    PYTHONPATH=src python3 perfbench/launcher.py --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    from repro.observability.tracing import current_trace_id
    from repro.planner import get_calibration
    from repro.service import SDHService, ServiceConfig

    get_calibration()
    import_s = time.perf_counter() - started
    from worker import environment

    recorder = None
    if args.trace:
        from layers import install
        from spans import SpanRecorder

        recorder = SpanRecorder(request_source=current_trace_id)
        install(recorder)

    # Two workers (one per core); every other setting at its default.
    service = SDHService(ServiceConfig(max_workers=2)).start()
    try:
        print(json.dumps({"port": service.address[1], "import_s": import_s,
                          "env": environment()}), flush=True)
        sys.stdin.readline()
    finally:
        service.shutdown()
    result = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        from layers import layer_metrics, server_time

        result["layers"] = layer_metrics(recorder.spans)
        result["server_s"] = server_time(recorder.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
