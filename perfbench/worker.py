"""One fresh benchmark process: set up a workload, then time its passes.

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object on stdout.  Set-up is timed from the first line of
this file: library import, input generation and a warm-up at reduced size.
Set-up and passes are timed under a pacer (pacer.py), which scales them to a
nominal host.  run.py starts this file once per sample and combines the
results.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pacer  # noqa: E402

# The library is imported from the checkout's source tree; this file's own
# directory is already on the path, so the benchmark's modules import too.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PACER_INTERVAL_S = 0.04  # set-up is short, so sample it often


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timing_metrics(passes: list[float], latencies: list[float]) -> dict:
    return {
        "wall_s": statistics.median(passes),
        "throughput_rps": len(latencies) / sum(passes),
        "latency_p50_ms": 1000 * _percentile(latencies, 50),
        "latency_p95_ms": 1000 * _percentile(latencies, 95),
    }


def measure(workload, seconds: float) -> dict:
    """Untraced passes for `seconds` (at least MIN_PASSES) under the pacer;
    end-to-end metrics scaled to the nominal host, and unscaled for the
    record."""
    from workloads import Ops

    ops = Ops()
    pass_ops: list[range] = []
    start = time.perf_counter()
    with pacer.Pacer() as pace:
        while len(pass_ops) < MIN_PASSES or time.perf_counter() - start < seconds:
            first = len(ops.spans)
            workload.run_pass(ops)
            pass_ops.append(range(first, len(ops.spans)))
        # let the last operations have samples after them too
        time.sleep(pacer.WINDOW_S)
    timed = []  # (net, scaled) seconds per operation
    for a, b in ops.spans:
        net = pace.net(a, b)
        timed.append((net, net * pace.factor(a, b)))
    passes: dict[str, list[float]] = {"raw": [], "scaled": []}
    latencies: dict[str, list[float]] = {"raw": [], "scaled": []}
    for ids in pass_ops:
        for col, kind in enumerate(("raw", "scaled")):
            lats = [timed[i][col] for i in ids]
            passes[kind].append(sum(lats))
            latencies[kind].extend([sum(lats)] if workload.request_is_pass else lats)
    return {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "passes": len(pass_ops),
        "requests": len(latencies["raw"]),
        "pacer_samples_s": pace.durations,
        "metrics": _timing_metrics(passes["scaled"], latencies["scaled"]),
        "raw_metrics": _timing_metrics(passes["raw"], latencies["raw"]),
        "raw_pass_s": passes["raw"],
    }


def measure_traced(workload, seconds: float, trace_file: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced
    ones, whose counts must repeat exactly from pass to pass."""
    from tracer import LAYERS, Tracer
    from workloads import Ops

    tracer = Tracer()
    tracer.prepare({layer: importlib.import_module(f"permclass.{layer}")
                    for layer in LAYERS})
    ops = Ops(tracer)
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        workload.run_pass(ops)
        untraced.append(time.perf_counter() - t0)
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            workload.run_pass(ops)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
    tracer.dump(trace_file)

    metrics = {}
    for name, first in summaries[0].items():
        values = [s[name] for s in summaries]
        if isinstance(first, int):
            metrics[name] = first
            if any(v != first for v in values):
                ops.failed += 1
                ops.failures.append(f"count {name} differs between passes: {values}")
        else:
            metrics[name] = statistics.median(values)
    # Each traced pass runs right after an untraced one, so the host's drift
    # cancels best within a pair.
    metrics["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(traced, untraced)) - 1
    return {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "passes": len(traced),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", type=Path, default=None)
    args = parser.parse_args(argv)

    with pacer.Pacer(SETUP_PACER_INTERVAL_S) as setup_pacer:
        t0 = time.perf_counter()
        import permclass.cli  # noqa: F401
        import_s = time.perf_counter() - t0
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed)
        workload.warm_up()
        setup_end = time.perf_counter()
    # the pacer's self-check ran inside the timed interval too
    net = setup_pacer.net(T0, setup_end) - setup_pacer.check_s
    result = {"setup_s": net * setup_pacer.factor(T0, setup_end),
              "raw_setup_s": net,
              "import_s": import_s * setup_pacer.factor(T0, setup_end)}
    if not args.setup_only:
        if args.trace:
            result.update(measure_traced(workload, args.seconds, args.trace_file))
        else:
            result.update(measure(workload, args.seconds))
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
