"""One workload in one fresh process: warm up, timed rounds, checks.

Run by ``run.py`` with ``src`` on PYTHONPATH; prints one JSON object with
the raw figures on its last stdout line.  A single closed-loop caller: one
thread, one op in flight, ops called in-process through ``qecopt.cli.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback

import calibration
import checks
import tracing
import workloads


def call(main, argv: list[str]) -> tuple[int, str, int]:
    """(exit code, stdout, ns) of one op.  A SystemExit counts as its code and
    an uncaught exception as exit 1, as the ``qecopt`` process would exit."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the loop must go on; the op counts as failed
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter_ns() - start
    if code != 0:
        sys.stderr.write(f"op failed ({code}): {' '.join(argv)}\n{err.getvalue()}")
    return code, out.getvalue(), elapsed


def run_round(main, ops, recorder=None):
    """Raw latencies (ms), reports (None where the op failed), failure count
    and the calibration samples taken between the round's ops."""
    latencies, reports, failed, samples = [], [], 0, []
    last = -math.inf
    for i, argv in enumerate(ops):
        if time.perf_counter() - last >= calibration.INTERVAL_S:
            samples.append(calibration.sample_ns())
            last = time.perf_counter()
        if recorder is not None:
            recorder.op = i
        code, text, ns = call(main, argv)
        latencies.append(ns / 1e6)
        reports.append(text if code == 0 else None)
        failed += code != 0
    samples.append(calibration.sample_ns())
    return latencies, reports, failed, samples


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from qecopt import cli

    ops = workloads.build(args.workload, args.seed)
    _, warm_up, _ = call(cli.main, ops[0])

    # Whole rounds until the run length is reached, so every run covers the
    # same op mix.  A traced run alternates untraced and traced rounds and
    # ends on a traced one.
    recorder = tracing.Recorder()
    plain, traced = [], []  # per round: (raw latencies in ms, calibration samples)
    first_reports, report_bytes, failed = None, 0, 0
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        trace_round = bool(args.trace) and len(plain) > len(traced)
        if trace_round:
            main_fn = tracing.install(recorder)
            try:
                latencies, reports, round_failed, samples = run_round(main_fn, ops, recorder)
            finally:
                recorder.unpatch()
            traced.append((latencies, samples))
            report_bytes += sum(len(r.encode()) for r in reports if r is not None)
        else:
            latencies, reports, round_failed, samples = run_round(cli.main, ops)
            plain.append((latencies, samples))
        failed += round_failed
        if first_reports is None:
            first_reports = reports
            errors += checks.check_repeats(reports[:1], [warm_up], "warm-up")
        else:
            errors += checks.check_repeats(first_reports, reports,
                                           f"round {len(plain) + len(traced) - 1}")
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or len(traced) == len(plain)):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors += checks.check_round(args.workload, ops, first_reports)
    for message in errors[:20]:
        sys.stderr.write(f"check failed: {message}\n")

    result = {
        "ops_per_round": len(ops),
        "plain_ms": [latencies for latencies, _ in plain],
        "plain_scale": [calibration.scale(samples) for _, samples in plain],
        "attempted": len(ops) * (len(plain) + len(traced)),
        "failed": failed,
        "peak_rss_mb": rss_mb,
        "check_failures": len(errors),
    }
    if args.trace:
        # Per-layer times are scaled by one factor from all traced rounds.
        n_traced = len(ops) * len(traced)
        traced_scale = calibration.scale([s for _, samples in traced for s in samples])
        layers = tracing.layer_metrics(recorder, n_traced, report_bytes, traced_scale)

        def mean_scaled(rounds):
            return (sum(sum(lat) * calibration.scale(samples) for lat, samples in rounds)
                    / (len(ops) * len(rounds)))

        layers["trace.overhead_ms"] = mean_scaled(traced) - mean_scaled(plain)
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
