"""The repository benchmark: one seeded workload per call.

    python3 perfbench/run.py --workload exact-oneshot --seed 1 \
        --seconds 16 --trace 0

Run from the repository root.  Prints one ``name value unit`` line per
metric and workload detail, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (and the tracing
overhead on each end-to-end metric) with ``--trace 1``.  Exits 1 when
any output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: End-to-end metrics, reported by every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "pairs_per_s": "pairs/s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
    "accuracy_pct": "%",
}

#: Per-class and per-phase workload figures, reported untraced on their own
#: workload (0 elsewhere): name -> unit.
DETAILS = {
    "exact_pairs_per_s": "pairs/s",
    "weighted_pairs_per_s": "pairs/s",
    "cross_pairs_per_s": "pairs/s",
    "approx_queries_per_s": "1/s",
    "approx_error_pct": "%",
    "serve_ms_p50": "ms",
    "serve_ms_p95": "ms",
    "serve_repeat_ms_p50": "ms",
    "serve_rebucket_ms_p50": "ms",
    "serve_goodput": "fraction",
    "serve_saturated_rps": "req/s",
    "stream_frames_per_s": "frames/s",
}

#: Per-layer metrics from the service's own counters and client timing.
SERVICE_LAYER = {
    "service.frontend_ms_p50": "ms",
    "service.rejected": "count",
    "service.timeouts": "count",
    "results.hit_rate": "fraction",
    "results.rebucket_hit_rate": "fraction",
    "results.coalesced": "count",
    "results.invalidations": "count",
    "cache.hit_rate": "fraction",
    "cache.builds": "count",
    "loadgen.late_ms_p95": "ms",
}


def end_to_end_directions() -> dict[str, str]:
    """``better`` of each end-to-end metric, as BENCHMARK.json declares."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def per_layer_units() -> dict[str, str]:
    """Every metric of a traced run, name -> unit."""
    from layers import SPAN_METRICS

    return {
        **SPAN_METRICS,
        **SERVICE_LAYER,
        **DETAILS,
        **{f"overhead.{name}_pct": "%" for name in END_TO_END},
    }


def _child(args: list[str], env: dict) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        capture_output=True, text=True, env=env, timeout=170,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker {args} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _median_round(ops: list[dict], rounds: int) -> float:
    """Median over rounds of the seconds ``ops`` took in each round."""
    per_round = [0.0] * rounds
    for op in ops:
        per_round[op["round"]] += op["seconds"]
    return statistics.median(per_round)


def run_library(name: str, seed: int, seconds: float, trace: bool,
                env: dict) -> dict:
    from measure import tail
    from workloads import LIBRARY, error_rate

    workload = LIBRARY[name]
    # Import time can be taken only once per process: it is measured in
    # the worker and in probe children, four before the workload and
    # four after it, so that the median of the nine samples spans the
    # run rather than one moment of it.
    probes = [_child(["--probe"], env)["import_s"] for _ in range(4)]
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds)]
    if trace:
        rounds = ["--rounds", str(workload.trace_rounds)]
        passes = [_child(common + rounds + ["--trace", "0"], env),
                  _child(common + rounds + ["--trace", "1"], env)]
    else:
        passes = [_child(common + ["--trace", "0"], env)]
    probes += [_child(["--probe"], env)["import_s"] for _ in range(4)]

    # Output checks, outside every timed region.
    if name == "trajectory-stream":
        from repro import brute_force_sdh

        spec = workload.inputs(seed)["spec"]
        expected = {
            run["rounds"]: brute_force_sdh(
                workload.final_frame(seed, run["rounds"]), spec=spec
            ).counts.tolist()
            for run in passes
        }
    else:
        expected = workload.expected(workload.inputs(seed))

    results = []
    for run in passes:
        ops = run["ops"]
        failed = 0
        errors = []
        for op in ops:
            if op["key"] == "frame":
                continue
            exact = expected[op["key"]]
            if name == "approx-bounded":
                # ADM-SDH distributes every pair: mass is conserved.
                ok = abs(op["total"] - op["pairs"]) <= 1e-9 * op["pairs"]
            else:
                ok = op["counts"] == exact
            failed += not ok
            errors.append(error_rate(op["counts"], exact))
        if name == "trajectory-stream":
            ok = run["final_counts"] == expected[run["rounds"]]
            failed += not ok
            errors.append(0.0 if ok else 1.0)
        # Every round repeats the same operations, so throughput is a
        # round's work over the median round time: robust to a burst of
        # contention from outside the program.
        rounds = run["rounds"]
        round_s = _median_round(ops, rounds)
        lat = [op["seconds"] * 1e3 for op in ops]
        p95 = tail(lat)
        by_key: dict[str, list[float]] = {}
        for op in ops:
            by_key.setdefault(op["key"], []).append(op["seconds"] * 1e3)
        metrics = {
            "setup_s": statistics.median(probes + [run["import_s"]])
            + statistics.median(run["setup_samples"]),
            "peak_rss_mb": run["rss_mb"],
            "ops_per_s": len(ops) / rounds / round_s,
            "pairs_per_s": sum(op["pairs"] for op in ops) / rounds / round_s,
            # The median over the round's distinct calls of each call's
            # median time.  A plain median of all calls would sit on the
            # edge between two equal-sized groups of fast and slow calls
            # (approx-bounded: four 3D and four 2D queries).
            "latency_ms_p50": statistics.median(
                statistics.median(v) for v in by_key.values()
            ),
            "latency_ms_p95": p95.value,
            "accuracy_pct": 100.0 * (1.0 - statistics.mean(errors)),
        }
        details = {}
        for cls, detail in (("plain", "exact_pairs_per_s"),
                            ("weighted", "weighted_pairs_per_s"),
                            ("cross", "cross_pairs_per_s")):
            mine = [op for op in ops if op["cls"] == cls]
            if mine:
                details[detail] = (
                    sum(op["pairs"] for op in mine) / rounds
                    / _median_round(mine, rounds), "pairs/s")
        if name == "approx-bounded":
            details["approx_queries_per_s"] = (metrics["ops_per_s"], "1/s")
            details["approx_error_pct"] = (
                100.0 * statistics.mean(errors), "%")
        if name == "trajectory-stream":
            details["stream_frames_per_s"] = (metrics["ops_per_s"],
                                              "frames/s")
        details["latency_ms_p95.percentile"] = (p95.p, "%")
        details["latency_ms_p95.samples"] = (p95.n, "count")
        results.append({
            "metrics": metrics, "details": details, "failed": failed,
            "attempted": len(ops), "env": run["env"],
            "layers": run.get("layers", {}),
        })
    return _combine(results)


def run_serve(seed: int, seconds: float, trace: bool, env: dict) -> dict:
    import serve

    if trace:
        raws = [serve.run_pass(env, seed, seconds / 2, False, 1),
                serve.run_pass(env, seed, seconds / 2, True, 1)]
    else:
        raws = [serve.run_pass(env, seed, seconds, False, serve.SETUPS)]
    oracle = serve.Oracle({
        alias: [ps for raw in raws for ps in raw["versions"][alias]]
        for alias in raws[0]["versions"]
    })
    results = []
    for raw in raws:
        out = serve.summarize(raw, oracle)
        out["env"] = raw["env"]
        out["layers"] = {**raw["final"].get("layers", {}),
                         **serve.service_layers(raw)}
        results.append(out)
    return _combine(results)


def _combine(results: list[dict]) -> dict:
    """One untraced pass, or an untraced and a traced pass of the same
    fixed work: the traced pass gives the per-layer metrics, and the
    pair the tracing overhead."""
    base = results[0]
    report = {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "env": base["env"],
        "details": base["details"],
        "e2e": base["metrics"],
    }
    if len(results) == 2:
        traced = results[1]
        units = per_layer_units()
        layer = {name: 0.0 for name in units}
        layer.update(traced["layers"])
        layer.update({k: v for k, (v, _) in base["details"].items()
                      if k in units})
        # Positive overhead: tracing made the metric worse.
        better = end_to_end_directions()
        for name, value in base["metrics"].items():
            change = (traced["metrics"][name] - value) / value
            if better[name] == "higher":
                change = -change
            layer[f"overhead.{name}_pct"] = 100.0 * change
        report["layers"] = layer
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-oneshot", "approx-bounded",
                                 "serve-mix", "trajectory-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    # Pin the planner to its built-in constants: a calibration file left
    # in the user's cache would reroute queries between hosts and runs.
    os.environ["REPRO_SDH_CALIBRATION"] = os.path.join(
        HERE, "no-calibration.json"
    )
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    sys.path.insert(0, src)
    env = dict(os.environ)

    if args.workload == "serve-mix":
        report = run_serve(args.seed, args.seconds, bool(args.trace), env)
    else:
        report = run_library(args.workload, args.seed, args.seconds,
                             bool(args.trace), env)

    if report["env"]["calibration"] != "default":
        print(f"perfbench: planner calibration is "
              f"{report['env']['calibration']!r}, not the built-in default",
              file=sys.stderr)
        return 2
    print("env " + " ".join(f"{k}={v}" for k, v in report["env"].items()))
    for name, value in report["e2e"].items():
        print(f"{name} {value:.6g} {END_TO_END[name]}")
    for name, (value, unit) in report["details"].items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in report["e2e"].items()}
    print(f"attempted {report['attempted']} failed {report['failed']}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
