"""qecopt benchmark: one workload, end to end or per layer.

    python3 benchmarks/run.py --workload sweeps --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones; the last stdout line
is the JSON result.  See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

COLD_LAUNCHES = 3
WORKER_TIMEOUT_S = 150
LAUNCH_TIMEOUT_S = 30


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def calibrated(launch) -> tuple[list, float]:
    """Run ``launch`` COLD_LAUNCHES times with calibration samples around
    each; returns its results and the calibration factor."""
    samples = [calibration.sample_ns() for _ in range(3)]
    results = []
    for _ in range(COLD_LAUNCHES):
        results.append(launch())
        samples += [calibration.sample_ns() for _ in range(3)]
    return results, calibration.scale(samples)


def cold_start_s(first_op: list[str]) -> tuple[float, float]:
    """Median wall time (raw, and scaled by the calibration factor) of fresh
    ``python -m qecopt.cli <first op>`` processes: interpreter start, import,
    lazy set-up and the first answer."""

    def launch() -> float:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "qecopt.cli", *first_op],
                              cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=LAUNCH_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"cold start failed ({done.returncode}): {done.stderr.decode()}")
        return time.perf_counter() - start

    times, factor = calibrated(launch)
    raw = statistics.median(times)
    return raw, raw * factor


_IMPORT_LINE = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|(\s*)(\S+)")


def import_ms() -> dict[str, float]:
    """``import qecopt.cli`` in fresh interpreters: wall time of the import
    statement, and scipy.integrate's cumulative share from -X importtime."""
    probe = ("import time; t = time.perf_counter(); import qecopt.cli; "
             "print(time.perf_counter() - t)")

    def launch() -> tuple[float, float]:
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", probe],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=LAUNCH_TIMEOUT_S, check=True)
        cumulative_us = {m.group(4): int(m.group(2))
                         for m in map(_IMPORT_LINE.match, done.stderr.splitlines()) if m}
        return (float(done.stdout.split()[-1]) * 1e3,
                cumulative_us.get("scipy.integrate", 0) / 1e3)

    results, factor = calibrated(launch)
    return {"import.qecopt_cli_ms": statistics.median(r[0] for r in results) * factor,
            "import.scipy_integrate_ms": statistics.median(r[1] for r in results) * factor}


def run_worker(args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def latency_metrics(samples: list[float], n: int) -> tuple[float, float, float]:
    """(ops_per_s, op_p50_ms, op_tail_ms) of whole rounds of n ops; below
    TAIL_MIN_OPS ops a round there is no tail and the median stands in."""
    p50 = statistics.median(samples)
    tail = stats.tail_value(samples, n)
    return len(samples) / (sum(samples) / 1e3), p50, p50 if tail is None else tail


def end_to_end(raw: dict, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    n, rounds = raw["ops_per_round"], len(raw["plain_ms"])
    wall = [ms for rnd in raw["plain_ms"] for ms in rnd]
    scaled = [ms * factor for rnd, factor in zip(raw["plain_ms"], raw["plain_scale"])
              for ms in rnd]
    rank = stats.tail_rank(n)
    tail_note = (f"no tail below {stats.TAIL_MIN_OPS} ops a round: the median" if rank is None
                 else f"p{100.0 * rank / n:.1f}, {rounds * stats.TAIL_BEYOND} beyond")
    notes = {
        "setup_s": f"median of {COLD_LAUNCHES} cold launches",
        "ops_per_s": f"{len(wall)} ops in {rounds} rounds of {n}",
        "op_p50_ms": f"n={len(wall)}",
        "op_tail_ms": tail_note,
        "peak_rss_mb": "ru_maxrss of the worker",
    }
    values = dict(zip(("ops_per_s", "op_p50_ms", "op_tail_ms"), latency_metrics(scaled, n)))
    walls = dict(zip(("ops_per_s", "op_p50_ms", "op_tail_ms"), latency_metrics(wall, n)))
    values["setup_s"], walls["setup_s"] = setup[1], setup[0]
    values["peak_rss_mb"] = raw["peak_rss_mb"]
    units = declared("end_to_end")
    lines = [f"  {name:<12} {values[name]:12.4f} {unit:<6} "
             + (f"wall {walls[name]:12.4f}  " if name in walls else " " * 19)
             + f"({notes[name]})" for name, unit in units.items()]
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "qecopt" / "cli.py").is_file():
        sys.exit(f"no qecopt source under {SRC}; run from a source checkout")

    ops = workloads.build(args.workload, args.seed)
    setup = cold_start_s(ops[0]) if not args.trace else None
    imports = import_ms() if args.trace else {}
    raw = run_worker(args)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    raw_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw_path.write_text(json.dumps({**raw, "setup_s": setup, **imports}) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{raw['ops_per_round']} ops a round, one closed-loop caller; "
          f"times scaled to the calibration kernel's reference speed")
    if args.trace:
        values = {**imports, **raw["layers"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared("per_layer").items()}
        for name, m in metrics.items():
            print(f"  {name:<26} {m['value']:14.4f} {m['unit']}")
    else:
        metrics, lines = end_to_end(raw, setup)
        print("\n".join(lines))
    correct = raw["check_failures"] == 0
    print(f"  attempted {raw['attempted']}  failed {raw['failed']}  "
          f"checks failed {raw['check_failures']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
