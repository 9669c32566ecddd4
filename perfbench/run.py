"""kcharge benchmark: enumerate / stat / verify through the CLI, in-process.

    python3 perfbench/run.py --workload stat --seed 3 --seconds 12 --trace 0

A closed loop: one process, one CLI operation at a time, no workers.
Timings are drift-adjusted (see drift.py) and every operation's exit code
and stdout are checked against the seed commit's digest (reference.json).

With --trace 0 the run sets up the workload three times (set-up time is the
median), then runs operations for --seconds and prints the end-to-end
metrics.  With --trace 1 it runs one fixed pass of every workload twice,
plain and then traced (see spans.py), and prints the per-layer metrics of
all three; the --workload argument only names the run.  The last line of
stdout is the JSON result; a run record and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter, sleep

import workloads
from drift import PROBE_EVERY_S, WINDOW_S, DriftClock
from spans import Tracer
from workloads import WORKLOADS, Checker, call

BENCHMARK_PATH = workloads.ROOT / "BENCHMARK.json"
OUT = workloads.HERE / "out"
SETUP_REPS = 3


@dataclass
class Timing:
    """Per-operation raw seconds, wall-clock interval and adjusted seconds."""

    raw: list[float] = field(default_factory=list)
    intervals: list[tuple[float, float]] = field(default_factory=list)
    adjusted: list[float] = field(default_factory=list)
    tableaux: int = 0

    def adjust(self, clock: DriftClock) -> "Timing":
        """Fill `adjusted`, once the probes after the last operation exist."""
        self.adjusted = [r * clock.factor(*iv) for r, iv in zip(self.raw, self.intervals)]
        return self


def run_ops(main, ops, checker, clock, deadline=None, whole_passes=False, tracer=None) -> Timing:
    """One pass over ops or, with a deadline, passes until it is reached.

    With whole_passes the run stops only at the end of a pass, so every run
    has the same mix of inputs whatever the seed.
    """
    timing = Timing()
    while True:
        for pos, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = len(timing.raw)
            (code, stdout), raw, t0, t1 = clock.time(lambda: call(main, op))
            timing.raw.append(raw)
            timing.intervals.append((t0, t1))
            timing.tableaux += checker.check(op, code, stdout)
            last = pos == len(ops) - 1
            if deadline is None:
                done = last
            else:
                done = perf_counter() >= deadline and (last or not whole_passes)
            if done:
                return timing


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics, with the weights taken at rank
    midpoints.  Unlike a single order statistic it does not jump when the
    quantile sits in a gap between input sizes, as p90 does on enumerate."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mids = [(i + 0.5) / n for i in range(n)]
    logw = [(a - 1) * math.log(m) + (b - 1) * math.log(1 - m) for m in mids]
    top = max(logw)
    weights = [math.exp(w - top) for w in logw]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(
    name: str, seed: int, seconds: float, checker: Checker, record: dict, limit: int | None = None
) -> dict:
    setups = Timing()
    with DriftClock() as clock:
        for _ in range(SETUP_REPS):
            setup, raw, t0, t1 = clock.time(lambda: workloads.setup(name, seed, checker, limit))
            setups.raw.append(raw)
            setups.intervals.append((t0, t1))
        timing = run_ops(
            setup.main, setup.ops, checker, clock, perf_counter() + seconds, setup.whole_passes
        )
        sleep(WINDOW_S)  # let the probes after the last operation run
    setup_s = setups.adjust(clock).adjusted
    timing.adjust(clock)
    record.update(
        ops=len(timing.raw),
        tableaux=timing.tableaux,
        raw_s=sum(timing.raw),
        adjusted_s=sum(timing.adjusted),
        setup_adjusted_s=setup_s,
        op_raw_s=timing.raw,
        op_adjusted_s=timing.adjusted,
        ref_loop_ms=clock.ref_ms(),
        probes=len(clock.refs),
    )
    return {
        "tableaux_per_s": timing.tableaux / sum(timing.adjusted),
        "op_p50_ms": quantile(timing.adjusted, 0.5) * 1e3,
        "op_p90_ms": quantile(timing.adjusted, 0.9) * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# Per-layer metrics by workload: span names reported as self seconds, and
# call counts reported as they are or per tableau.
SELF_S = {
    "enumerate": ("cores.addable_corners", "ktableaux.enumerate_k_tableaux"),
    "stat": (
        "ktableaux.standard_sequences",
        "statistics.k_charge.lp",
        "statistics.k_charge.morse",
        "statistics.k_cocharge.lp",
        "statistics.k_cocharge.morse",
        "statistics.sequence_reports",
        "ktableaux.parse_text",
        "ktableaux.validate",
        "cli.main",
    ),
    "verify": (
        "ktableaux.enumerate_k_tableaux",
        "sweeps.check_tableau_identities",
        "statistics.classical_charge",
        "cores.is_n_core",
        "cores.k_interior",
    ),
}
CALLS = {
    "enumerate": ("cores.addable_corners",),
    "stat": ("ktableaux.restrict_sequence", "ktableaux.KTableau.cells_of", "statistics.diag"),
    "verify": ("ktableaux.restrict_sequence", "ktableaux.KTableau.cells_of", "statistics.diag"),
}
CALLS_PER_TABLEAU = {
    "stat": ("ktableaux.standard_sequences",),
    "verify": ("ktableaux.standard_sequences",),
}


def layer_metrics(name: str, tracer: Tracer, traced: Timing, plain: Timing) -> dict:
    factors = [a / r for a, r in zip(traced.adjusted, traced.raw)]
    totals = tracer.totals(factors)

    def span_total(span: str, column: int) -> float:
        # A span that never ran (its function was removed or is no longer
        # called) reads 0 rather than failing the run.
        return totals.get(span, [0, 0.0, 0.0])[column]

    def calls(span: str) -> int:
        return tracer.calls[span] if span in tracer.calls else span_total(span, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {"bench.trace_overhead": sum(traced.adjusted) / sum(plain.adjusted)}
    for span in SELF_S[name]:
        out[f"{span}.self_s"] = span_total(span, 2)
    for span in CALLS.get(name, ()):
        out[f"{span}.calls"] = calls(span)
    for span in CALLS_PER_TABLEAU.get(name, ()):
        out[f"{span}.calls_per_tableau"] = ratio(calls(span), traced.tableaux)
    if name == "enumerate":
        out["ktableaux.cover_yield"] = ratio(traced.tableaux, calls("cores.addable_corners"))
    if name == "stat":
        out["statistics.morse_over_lp"] = ratio(
            span_total("statistics.k_charge.morse", 1) + span_total("statistics.k_cocharge.morse", 1),
            span_total("statistics.k_charge.lp", 1) + span_total("statistics.k_cocharge.lp", 1),
        )
    if name == "verify":
        out["sweeps.identities_per_tableau"] = ratio(
            tracer.identities_checked, calls("sweeps.check_tableau_identities")
        )
        tasks = tracer.durations("sweeps.task", factors)
        out["sweeps.task_max_share"] = ratio(max(tasks, default=0.0), sum(tasks))
    return {f"{name}.{metric}": value for metric, value in out.items()}


def per_layer(seed: int, checker: Checker, record: dict, limit: int | None = None) -> dict:
    metrics = {}
    tracers = {}
    with DriftClock() as clock:
        for name in WORKLOADS:
            setup = workloads.setup(name, seed, checker, limit)
            plain = run_ops(setup.main, setup.traced_ops, checker, clock).adjust(clock)
            tracer = Tracer()
            tracer.install()
            clock.on_probe = tracer.on_probe
            try:
                traced = run_ops(
                    tracer.span(setup.main, "cli.main"), setup.traced_ops, checker, clock,
                    tracer=tracer,
                ).adjust(clock)
            finally:
                clock.on_probe = None
                tracer.uninstall()
            metrics.update(layer_metrics(name, tracer, traced, plain))
            tracers[name] = tracer
            record[name] = {
                "ops": len(traced.raw),
                "plain_raw_s": sum(plain.raw),
                "plain_adjusted_s": sum(plain.adjusted),
                "traced_raw_s": sum(traced.raw),
                "traced_adjusted_s": sum(traced.adjusted),
                "spans": len(tracer.start),
                "not_traced": tracer.missing,
            }
    metrics["bench.ref_loop_ms"] = clock.ref_ms()
    record.update(ref_loop_ms=clock.ref_ms(), probes=len(clock.refs))
    for name, tracer in tracers.items():
        tracer.write(OUT / f"spans-{name}-seed{seed}.bin")
    return metrics


def load_units(section: str) -> dict[str, str]:
    with open(BENCHMARK_PATH) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def result_line(metrics: dict, units: dict[str, str], checker: Checker) -> str:
    if set(metrics) != set(units):
        missing, extra = set(units) - set(metrics), set(metrics) - set(units)
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ["KCHARGE_THREADS"] = "1"
    try:
        units = load_units("per_layer" if args.trace else "end_to_end")
        checker = Checker(workloads.load_reference())
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "probe_every_s": PROBE_EVERY_S}
        if args.trace:
            metrics = per_layer(args.seed, checker, record)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, checker, record)
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    record.update(attempted=checker.attempted, failed=checker.failed,
                  error_rate=checker.failed / max(checker.attempted, 1),
                  mismatched=checker.mismatched, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for key in ("ops", "tableaux", "raw_s", "adjusted_s", "ref_loop_ms", "error_rate"):
        if key in record:
            print(f"{key}: {record[key]}")
    print(result_line(metrics, units, checker))
    return 0


if __name__ == "__main__":
    sys.exit(main())
