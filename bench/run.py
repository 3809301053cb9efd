"""Benchmark of aqua-qkd: one workload per run, from a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's operations one after another (a closed loop with one
client) until ``--seconds`` have passed, checks every output, and prints a
readable report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
BENCHMARK.json, measured with no tracing installed.  With ``--trace 1``
each operation runs twice on the same inputs, once plain and once with spans
recorded around the program's public functions (see ``spans.py``); the
metrics are the ``per_layer`` ones, and the outputs of the two runs must be
byte-identical.  The spans of the first traced operation are written to
``.bench_out/`` in the checkout.

Exit codes: 0 when the run completed (check ``correct`` for the verdict),
1 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import spans
from workloads import ROOT, WORKLOADS, Outcome

BENCH_DIR = Path(__file__).resolve().parent
# Set-up is measured in this many fresh processes and reported as the median.
SETUP_SAMPLES = 7
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def measure_setup(name: str) -> list[float]:
    """Seconds from process start until the workload is ready, per fresh process."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def run_once(wl, inputs) -> tuple[Outcome, float]:
    start = time.perf_counter()
    try:
        outcome = wl.run(inputs)
    except Exception as exc:  # noqa: BLE001 - a failed operation, counted below
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(b"", [f"exception:{type(exc).__name__}"] * wl.operations, {})
    return outcome, time.perf_counter() - start


def loop(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Run operations until ``seconds`` have passed; at least one runs."""
    tracer = spans.Tracer() if trace else None
    main_thread = threading.get_ident()
    times, observed, failures, layers, overheads = [], [], [], [], []
    first_spans = None
    index = 0
    deadline = time.perf_counter() + seconds
    while index == 0 or time.perf_counter() < deadline:
        inputs = wl.inputs(seed, index)
        if not trace:
            outcome, elapsed = run_once(wl, inputs)
        else:
            # Alternate which of the pair runs first so neither gets the warmer cache.
            results = {}
            for traced in (index % 2 == 1, index % 2 == 0):
                if traced:
                    tracer.run_id = index
                    tracer.install()
                try:
                    results[traced] = run_once(wl, inputs)
                finally:
                    if traced:
                        tracer.uninstall()
            # The report's times stay those of the plain run.
            (plain, elapsed), (outcome, traced_s) = results[False], results[True]
            overheads.append(100.0 * (traced_s - elapsed) / elapsed)
            if outcome.output != plain.output:
                outcome.failures = ["trace_changed_output"] * wl.operations
            layers.append(spans.layer_metrics(tracer.spans, main_thread))
            if first_spans is None:
                first_spans = tracer.dump()
            tracer.spans.clear()
        times.append(elapsed)
        observed.append(outcome.observed)
        failures.extend(f"op {index}: {f}" for f in outcome.failures)
        index += 1
    return {
        "calls": index,
        "times": times,
        "observed": observed,
        "failures": failures,
        "layers": layers,
        "overheads": overheads,
        "first_spans": first_spans,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    e2e_units, layer_units = metric_units()
    setup_times = measure_setup(args.workload)

    wl = WORKLOADS[args.workload]()
    wl.setup()
    try:
        result = loop(wl, args.seed, args.seconds, bool(args.trace))
    finally:
        wl.close()

    times = result["times"]
    attempted = result["calls"] * wl.operations
    failed = len(result["failures"])
    # Work per median operation: a slow spell of the host that stretches a few
    # operations moves the median less than the total.
    items_per_s = wl.items / statistics.median(times)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": items_per_s,
        "peak_rss_mb": peak_rss_mb(),
    }

    print(
        f"bench {wl.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
        f"{result['calls']} calls of {wl.items} {wl.item}, closed loop, one client"
    )
    print(f"  {'setup_s':<28}{e2e['setup_s']:.4f} s (median of {len(setup_times)} fresh processes)")
    for name, (value, unit) in wl.report(items_per_s, times, result["observed"]).items():
        print(f"  {name:<28}{value:.6g} {unit}")
    print(f"  {'peak_rss_mb':<28}{e2e['peak_rss_mb']:.1f} MB")
    print(f"  {'fail_frac':<28}{failed / attempted:.6g} ({failed}/{attempted} operations failed)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")

    if args.trace:
        per_op = {
            name: statistics.median(op[name] for op in result["layers"])
            for name in result["layers"][0]
        }
        per_op["trace.overhead_pct"] = statistics.median(result["overheads"])
        metrics = {name: (per_op[name], unit) for name, unit in layer_units.items()}
        print(f"  per operation, median of {len(result['layers'])} traced calls:")
        for name, (value, unit) in metrics.items():
            print(f"    {name:<34}{value:.6g} {unit}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(result["first_spans"]) + "\n", encoding="utf-8")
        print(f"  spans of the first traced call: {spans_path}")
    else:
        metrics = {name: (e2e[name], unit) for name, unit in e2e_units.items()}

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
