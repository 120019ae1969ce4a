"""permclass benchmark: one workload, checked answers, metrics by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample runs in a fresh process
(perfbench/worker.py), one at a time, with no extra threads: first
SETUP_SAMPLES - 1 set-up-only processes, then one that sets up and measures
for S seconds.  --trace 0 reports the end-to-end metrics; --trace 1 runs
traced and untraced passes and reports the per-layer metrics.  The last line
of stdout is the JSON result; the full record, with the environment, also
goes to perfbench/out/.  Exits 2 without a result if the library source is
missing, 1 if a worker fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIBRARY = ROOT / "src" / "permclass"
OUT = HERE / "out"

WORKLOADS = ("count-quad", "count-catalan", "antichain", "queries")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # the whole run, including every worker

SPEC_FILE = ROOT / "BENCHMARK.json"  # the metric names and units reported


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(LIBRARY.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(extra)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (LIBRARY / "__init__.py").is_file():
        print(f"error: library source not found at {LIBRARY}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads(SPEC_FILE.read_text())
    env = environment(args)
    trace_file = OUT / f"trace-{args.workload}.bin"
    try:
        probes = [run_worker(args, ["--setup-only"], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        main_run = run_worker(
            args, ["--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--trace-file", str(trace_file)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples = probes + [main_run]
    setup_s = statistics.median(s["setup_s"] for s in samples)
    import_s = statistics.median(s["import_s"] for s in samples)

    if args.trace:
        metrics = dict(main_run["metrics"], **{"cli.import_s": import_s})
    else:
        metrics = dict(main_run["metrics"], setup_s=setup_s,
                       peak_rss_mb=main_run["peak_rss_mb"])
    attempted, failed = main_run["attempted"], main_run["failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "passes": main_run["passes"],
              "requests": main_run.get("requests"),
              "setup_samples": [s["setup_s"] for s in samples],
              "raw_setup_samples": [s["raw_setup_s"] for s in samples],
              "failures": main_run["failures"], "result": result}
    for key in ("raw_metrics", "raw_pass_s", "pacer_samples_s"):
        if key in main_run:
            record[key] = main_run[key]
    record_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n")

    for line in main_run["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(f"passes {main_run['passes']}, requests {main_run.get('requests')}, "
          f"setup samples {len(samples)}")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate {failed / attempted:.6g} fraction ({failed} of {attempted} failed)")
    if "raw_metrics" in main_run:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in main_run["raw_metrics"].items())
        pace = statistics.median(main_run["pacer_samples_s"])
        print(f"unscaled: {raw}; pacer median {pace:.6g} s over "
              f"{len(main_run['pacer_samples_s'])} samples")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
