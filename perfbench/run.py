"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Workloads: ``serve`` and ``serve-cold`` (the HTTP daemon under a closed
loop of clients; a warm mix and an all-cold one), ``sweep`` (fused
what-if studies in process), ``robust`` (robust-chain batches and numeric
sweeps) and ``parallel`` (the robust batch at ``jobs=2`` plus a journaled
campaign and its resume).  ``BENCHMARK.json`` lists the ones steady
enough to gate on.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  Every op is checked against an oracle.

Standard output ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it are a readable table and a
``report`` line with the environment record, sample counts, the tail
latency and the span profile.  The program under test is always the one
in this checkout's ``src``; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import atexit
import json
import shutil
import signal
import sys

import common

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "requests_per_s": "1/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
WORKLOADS = ("serve", "serve-cold", "sweep", "robust", "parallel")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(args) -> tuple[common.Ledger, dict, dict, common.Tracer]:
    import inproc
    import serve_load

    tracer = common.Tracer(enabled=bool(args.trace))
    if args.workload in serve_load.MIXES:
        if args.trace:
            ledger, metrics, extra = serve_load.run_traced(
                args.workload, args.seed, args.seconds, tracer
            )
        else:
            ledger, metrics, extra = serve_load.run(args.workload, args.seed, args.seconds)
    elif args.trace:
        ledger, metrics, extra = inproc.run_traced(
            args.workload, args.seed, args.seconds, tracer
        )
    else:
        ledger, metrics, extra = inproc.run(args.workload, args.seed, args.seconds)
    return ledger, metrics, extra, tracer


def _terminate(signum, frame):
    """SIGTERM unwinds like an error, so every ``finally`` stops what it started."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _arguments(argv)
    signal.signal(signal.SIGTERM, _terminate)
    atexit.register(common.stop_helper_processes)
    try:
        common.require_program()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import layers

    try:
        ledger, measured, extra, tracer = _measure(args)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    if args.trace:
        metrics = layers.idle_metrics()
        metrics.update(measured)
        metrics.update(common.import_probe())
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        metrics = measured
        units = END_TO_END
    tail = common.tail_percentile(ledger.latencies)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": common.environment(args.seed),
        "samples": len(ledger.latencies),
        "tail_latency": None if tail is None else {
            "percentile": tail[0], "ms": tail[1] * 1e3, "beyond": tail[2],
        },
        "failures": ledger.failures,
        "profile": common.profile(tracer.spans),
        **extra,
    }
    for name, unit in units.items():
        print(f"{args.workload:10s} {name:34s} {metrics[name]:14.6g} {unit}")
    if tail is None:
        print(f"{args.workload:10s} no percentile above p75 has "
              f"{common.MIN_BEYOND} samples beyond it (n={len(ledger.latencies)})")
    else:
        print(f"{args.workload:10s} tail latency p{tail[0]:g} = {tail[1] * 1e3:.4g} ms "
              f"(n={len(ledger.latencies)}, {tail[2]} beyond)")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
