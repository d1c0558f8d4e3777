"""Spans around the calls into each ``qecopt`` layer, recorded from outside.

A span is recorded by replacing the module attribute that the caller looks
up with a wrapper, so nothing is added inside the program.  The same
function can be bound under several names: ``cli`` calls
``optimizer.find_kmax`` while ``shor`` calls its own import of it,
``shor.find_kmax``; both bindings are wrapped.  Spans stay in memory and
are reduced to per-layer metrics when the run ends.
"""

from __future__ import annotations

import time
import tracemalloc

MB = float(1 << 20)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "children_ns")

    def __init__(self, name: str, parent: "Span | None", op: int):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0
        self.children_ns = 0

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.children_ns


class Recorder:
    """Collects spans and counts from the wrappers ``install`` puts in place;
    ``unpatch`` restores the program's own functions."""

    def __init__(self):
        self.op = -1
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name: str, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` adds counts."""

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.children_ns += span.ns
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


# The square oracle scans every site up to this side and the centre site
# above it (qecopt.crosstalk.FULL_SCAN_SIDE).
FULL_SCAN_SIDE = 64


def oracle_cells(spec) -> int:
    """Lattice terms the oracle's path evaluates, computed from the input:
    one per site pair on the prefix-sum chain path, and a row of side^2
    terms per scanned site on a square (the sites with i <= j up to
    FULL_SCAN_SIDE, the centre site above it)."""
    if spec.aspect == "chain":
        return spec.N0 - 1
    side = spec.side
    sites = side * (side + 1) // 2 if side <= FULL_SCAN_SIDE else 1
    return sites * side * side


def install(recorder: Recorder):
    """Wrap every layer boundary the benchmark measures; returns the
    wrapped ``cli.main`` that the traced rounds call."""
    from qecopt import cli, crosstalk, gatesim, optimizer, shor

    def curve_points(args, result):
        recorder.count("optimizer.curve_points", len(result.curve))

    def budget_answered(args, result):
        if result.feasible:
            recorder.count("shor.budgets_answered")

    find_kmax = recorder.wrap(optimizer.find_kmax, "optimizer.find_kmax", curve_points)
    for module in (optimizer, shor):
        recorder.patch(module, "find_kmax", find_kmax)
    recorder.patch(cli, "build_parser", recorder.wrap(cli.build_parser, "cli.build_parser"))
    recorder.patch(optimizer, "exp_model_bounds",
                   recorder.wrap(optimizer.exp_model_bounds, "optimizer.exp_model_bounds"))
    recorder.patch(shor, "min_photon_budget",
                   recorder.wrap(shor.min_photon_budget, "shor.min_photon_budget",
                                 budget_answered))
    recorder.patch(shor, "energy_bill", recorder.wrap(shor.energy_bill, "shor.energy_bill"))
    recorder.patch(gatesim, "evolve_noisy_gate",
                   recorder.wrap(gatesim.evolve_noisy_gate, "gatesim.evolve_noisy_gate"))
    recorder.patch(crosstalk, "delta0_asymptotic",
                   recorder.wrap(crosstalk.delta0_asymptotic, "crosstalk.delta0_asymptotic"))

    # The noise law is called ~10^4 times per sweep op: count it, do not time it.
    eta_at_level = optimizer.eta_at_level

    def counted_eta(*args, **kwargs):
        recorder.count("scheme.eta_calls")
        return eta_at_level(*args, **kwargs)

    recorder.patch(optimizer, "eta_at_level", counted_eta)

    # The oracle's memory is traced inside its span only.
    oracle = crosstalk.delta_lattice_oracle

    def traced_oracle(spec):
        tracemalloc.start()
        try:
            return oracle(spec)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            recorder.counts["crosstalk.oracle_peak_bytes"] = max(
                peak, recorder.counts.get("crosstalk.oracle_peak_bytes", 0))
            recorder.count("crosstalk.oracle_cells", oracle_cells(spec))

    recorder.patch(crosstalk, "delta_lattice_oracle",
                   recorder.wrap(traced_oracle, "crosstalk.delta_lattice_oracle"))
    return recorder.wrap(cli.main, "cli.main")


def layer_metrics(recorder: Recorder, ops: int, report_bytes: int,
                  scale: float) -> dict[str, float]:
    """Per-layer metrics of the traced rounds.  ``ops`` is their op count and
    ``scale`` the calibration factor applied to every time.

    A layer the workload never reaches reads 0.  Counts are exact integers
    over whole rounds, so the per-op ratios repeat exactly run to run.
    """
    calls: dict[str, int] = {}
    total_ns: dict[str, float] = {}
    self_ns: dict[str, float] = {}
    scans_in_budgets = 0
    for span in recorder.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        total_ns[span.name] = total_ns.get(span.name, 0) + span.ns * scale
        self_ns[span.name] = self_ns.get(span.name, 0) + span.self_ns * scale
        if (span.name == "optimizer.find_kmax" and span.parent is not None
                and span.parent.name == "shor.min_photon_budget"):
            scans_in_budgets += 1

    def per_call(name: str, ns: dict[str, float], unit: float) -> float:
        return ns.get(name, 0) / calls[name] / unit if calls.get(name) else 0.0

    counts = recorder.counts
    answered = counts.get("shor.budgets_answered", 0)
    oracle_calls = calls.get("crosstalk.delta_lattice_oracle", 0)
    return {
        "cli.parser_ms": total_ns.get("cli.build_parser", 0) / ops / 1e6,
        "cli.self_ms": self_ns.get("cli.main", 0) / ops / 1e6,
        "cli.report_kb": report_bytes / ops / 1024.0,
        "optimizer.find_kmax_calls": calls.get("optimizer.find_kmax", 0) / ops,
        "optimizer.curve_points": counts.get("optimizer.curve_points", 0) / ops,
        "optimizer.find_kmax_us": per_call("optimizer.find_kmax", total_ns, 1e3),
        "scheme.eta_calls": counts.get("scheme.eta_calls", 0) / ops,
        "shor.budget_self_ms": per_call("shor.min_photon_budget", self_ns, 1e6),
        "shor.scans_per_budget": scans_in_budgets / answered if answered else 0.0,
        "gatesim.evolve_ms": per_call("gatesim.evolve_noisy_gate", total_ns, 1e6),
        "crosstalk.oracle_ms": per_call("crosstalk.delta_lattice_oracle", total_ns, 1e6),
        "crosstalk.asymptotic_ms": per_call("crosstalk.delta0_asymptotic", total_ns, 1e6),
        "crosstalk.oracle_cells": (counts.get("crosstalk.oracle_cells", 0) / oracle_calls
                                   if oracle_calls else 0.0),
        "crosstalk.oracle_peak_mb": counts.get("crosstalk.oracle_peak_bytes", 0) / MB,
    }
