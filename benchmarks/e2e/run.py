"""Whole-domain wall-clock benchmark with a per-layer ledger.

One workload per process::

    python3 benchmarks/e2e/run.py --workload steady-mix --seed 1 \\
        --seconds 10 --trace 0      # end-to-end metrics, untraced
    python3 benchmarks/e2e/run.py --workload steady-mix --seed 1 \\
        --seconds 10 --trace 1      # per-layer ledger, traced

plus ``--quick`` (all workloads on a tiny domain, for the smoke test),
``suite`` (every workload several times, each run its own process) and
``compare`` (two suite files -> one verdict per metric and workload).
The last line of standard output is one JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parents[1] / "src"
if not (SOURCES / "repro").is_dir():
    sys.exit(f"run.py: the program under test is missing: no {SOURCES}/repro")
sys.path.insert(0, str(SOURCES))

import e2e_report as report  # noqa: E402
from e2e_driver import (  # noqa: E402
    Phase, end_to_end, run_phase, slowness, speed_probe, virtual_latency, warm_up,
)
from e2e_ledger import (  # noqa: E402
    LAYERS, Ledger, attribute, call_counts, span_excerpt,
)
from e2e_replay import REPLAYED, replay_all, span_cost_us  # noqa: E402
from e2e_scenario import (  # noqa: E402
    FULL, QUICK, WORKLOADS, WORKLOADS_BY_NAME, OpStream, Scale, WorkloadSpec, World,
)

DEFAULT_SECONDS = 10

#: client entry points whose inclusive time is ``client.issue_us``
ISSUE_SPANS = (
    "InsClient.resolve_early", "InsClient.discover", "InsClient.send_anycast",
    "InsClient.send_multicast", "Service.rename",
)


class NotDeterministic(Exception):
    """Two passes over the same seed disagreed on an exact counter."""


def build(spec: WorkloadSpec, seed: int, scale: Scale, observe: bool = False
          ) -> Tuple[World, OpStream, float]:
    """Set-up as a user pays it: build the domain, join the overlay,
    advertise every name, warm up. Returns the reference seconds it
    took (host seconds scaled by speed probes taken right before and
    right after)."""
    probes = [speed_probe() for _ in range(3)]
    world = World(spec, seed, scale, observe=observe)
    stream = OpStream(world, seed)
    begin = time.perf_counter()
    failed = warm_up(world, stream)
    elapsed = world.setup_seconds + time.perf_counter() - begin
    probes += [speed_probe() for _ in range(3)]
    if failed:
        raise RuntimeError(f"{failed} warm-up ops failed the oracle")
    return world, stream, elapsed / slowness(probes)


def require_same(label: str, first: object, second: object) -> None:
    if first != second:
        detail = ""
        if isinstance(first, dict) and isinstance(second, dict):
            detail = "; differing keys: " + ", ".join(
                sorted(k for k in set(first) | set(second)
                       if first.get(k) != second.get(k))[:8]
            )
        raise NotDeterministic(f"{label} differs between two passes{detail}")


# ----------------------------------------------------------------------
# --trace 0: the end-to-end metrics
# ----------------------------------------------------------------------
def fixed_pass(world: World, stream: OpStream, seconds: float) -> Phase:
    """The pass a determinism twin repeats, and the exact end-to-end
    metrics (wire bytes, virtual latencies) are taken over: a fixed op
    count on a quiet domain; with periodic updates running, whole
    refresh cycles of virtual time, which hold every periodic update
    equally often whatever the seed."""
    spec = world.spec
    if spec.quiet:
        ops = max(10, int(spec.check_ops_per_second * seconds))
        return run_phase(world, stream, max_ops=ops)
    return run_phase(
        world, stream,
        virtual_seconds=world.scale.fixed_pass_cycles * spec.cycle_seconds,
    )


def measure_untraced(spec: WorkloadSpec, seed: int, seconds: float, scale: Scale) -> dict:
    setups: List[float] = []
    twins: List[Phase] = []
    # Set-up time is the median of three builds; the first two double
    # as the determinism twins: the same fixed-count pass on each.
    for _ in range(2):
        world, stream, elapsed = build(spec, seed, scale)
        setups.append(elapsed)
        twins.append(fixed_pass(world, stream, seconds))
    require_same("counters", _deltas(twins[0]), _deltas(twins[1]))
    require_same("virtual latencies", twins[0].virtual, twins[1].virtual)
    fixed = twins[0]
    world, stream, elapsed = build(spec, seed, scale)
    setups.append(elapsed)
    gc.collect()
    phase = run_phase(world, stream, seconds=seconds)
    values, taken = end_to_end(phase)
    attempted = phase.ops + sum(twin.ops for twin in twins)
    failed = phase.failed + sum(twin.failed for twin in twins)
    values["setup_s"] = statistics.median(setups)
    values["op_fail_ratio"] = failed / attempted
    values["wire_bytes_per_op"] = fixed.delta("wire_bytes") / fixed.ops
    values.update(virtual_latency(fixed))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "detail": {
            "setup_builds_s": setups,
            "fixed_pass_ops": fixed.ops,
            "measured_ops": phase.ops,
            "measured_wall_s": phase.wall,
            "taken": taken,
            "think_gap_share": phase.gap_seconds / phase.wall,
            "host_slowness": phase.slowness(),
        },
    }


def _deltas(phase: Phase, upto_mark: bool = False) -> Dict[str, float]:
    return {
        name: phase.delta(name, upto_mark) for name in sorted(phase.before)
        if name != "pending"
    }


# ----------------------------------------------------------------------
# --trace 1: the per-layer ledger
# ----------------------------------------------------------------------
def measure_traced(spec: WorkloadSpec, seed: int, seconds: float, scale: Scale) -> dict:
    ops = max(40, int(spec.ledger_ops_per_second * seconds))
    twin_ops = ops // 4
    ledger = Ledger()
    costs = ledger.calibrate()
    # Pass C: the ledger pass's ops untraced, first, so the gap between
    # the two runs — the tracing overhead — is known when spans are read.
    world, stream, _ = build(spec, seed, scale)
    gc.collect()
    plain = run_phase(world, stream, max_ops=ops)
    ledger.install()
    try:
        # Pass A: the ledger pass, fixed op count, spans recorded.
        world, stream, _ = build(spec, seed, scale)
        gc.collect()
        ledger.start_recording()
        traced = run_phase(
            world, stream, max_ops=ops, mark=twin_ops,
            wrap_op=ledger.op_span, wrap_gap=ledger.gap_span,
        )
        ledger.stop_recording()
        require_same("traced vs untraced counters", _deltas(traced), _deltas(plain))
        attribution = attribute(ledger, costs)
        prefix_calls = call_counts(ledger, twin_ops)
        excerpt = span_excerpt(ledger)
        # Pass B: its determinism twin over the prefix, also capturing
        # the arguments seen at each boundary for the replays.
        twin_world, twin_stream, _ = build(spec, seed, scale)
        ledger.start_recording(capture=True)
        twin = run_phase(
            twin_world, twin_stream, max_ops=twin_ops,
            wrap_op=ledger.op_span, wrap_gap=ledger.gap_span,
        )
        ledger.stop_recording()
        require_same("counters", _deltas(traced, upto_mark=True), _deltas(twin))
        require_same(
            "virtual latencies", traced.virtual[:twin_ops], twin.virtual
        )
        require_same("calls per boundary", prefix_calls, call_counts(ledger, twin_ops))
        corpus = ledger.corpus
    finally:
        ledger.uninstall()
    unit_costs = replay_all(corpus)
    del twin_world, twin_stream, corpus
    # Pass D: the program's own tracing (InsDomain.observe()) switched on.
    observed_ops = max(20, ops // 2)
    world, stream, _ = build(spec, seed, scale, observe=True)
    gc.collect()
    observed = run_phase(world, stream, max_ops=observed_ops)
    # Time under the op and gap roots, traced (wrapper cost removed)
    # over untraced: what is left is the program itself running slower
    # among the wrappers. Per-layer times are divided by it, so that
    # they add up to the untraced run's time; shares are unaffected.
    slowdown = attribution.traced_seconds / (sum(plain.host) + plain.gap_seconds)
    values = ledger_metrics(
        traced, plain, observed, attribution, unit_costs, observed_ops, slowdown,
    )
    values["obs.span_us"] = span_cost_us(world.domain.collector.tracer.spans)
    cross_check = cross_check_rows(attribution, unit_costs, traced.ops, slowdown)
    return {
        "attempted": traced.ops + twin.ops + plain.ops + observed.ops,
        "failed": traced.failed + twin.failed + plain.failed + observed.failed,
        "values": values,
        "detail": {
            "ledger_ops": ops,
            "twin_ops": twin_ops,
            "spans": attribution.spans,
            "spans_outside_ops": attribution.spans_outside,
            "wrapper_cost_us": costs,
            "slowdown_beyond_wrapper_cost": slowdown,
            "traced_wall_s": traced.wall,
            "untraced_wall_s": plain.wall,
            "layer_self_s_in_ops": attribution.layer_in_ops,
            "layer_self_s_in_gaps": attribution.layer_in_gaps,
            "boundaries": {
                name: {
                    "layer": attribution.layer_of[name],
                    "calls": attribution.calls[name],
                    "self_s": attribution.self_seconds[name],
                    "inclusive_s": attribution.inclusive_seconds[name],
                }
                for name in sorted(attribution.calls)
            },
            "cross_check": cross_check,
            "span_excerpt": excerpt,
        },
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger_metrics(traced: Phase, plain: Phase, observed: Phase, attribution,
                   unit_costs: Dict[str, float], observed_ops: int,
                   slowdown: float) -> Dict[str, float]:
    ops = traced.ops
    values: Dict[str, float] = dict(unit_costs)
    layer_seconds = {layer: attribution.layer_seconds(layer) for layer in LAYERS}
    # Everything under the op and gap root spans, wrapper cost removed;
    # the roots' own self time (the driver's stepping loop) and spans of
    # unmeasured packages are the residual.
    total = attribution.traced_seconds
    for layer in LAYERS:
        values[f"{layer}.self_us_per_op"] = layer_seconds[layer] / slowdown / ops * 1e6
        values[f"{layer}.share"] = _ratio(layer_seconds[layer], total)
        values[f"{layer}.calls_per_op"] = attribution.layer_calls.get(layer, 0) / ops
    values["harness.residual_share"] = 1.0 - sum(
        values[f"{layer}.share"] for layer in LAYERS
    )
    calls = attribution.calls
    values["nametree.lookups_per_op"] = calls.get("NameTree.lookup", 0) / ops
    values["nametree.updates_per_op"] = (
        calls.get("NameTree.insert", 0) + calls.get("NameTree.remove", 0)
    ) / ops
    hits, misses = traced.delta("memo_hits"), traced.delta("memo_misses")
    values["nametree.memo_hit_ratio"] = _ratio(hits, hits + misses)
    events = traced.delta("events")
    scheduled = calls.get("Simulator.at", 0)
    values["netsim.events_per_op"] = events / ops
    values["netsim.event_us"] = _ratio(layer_seconds["netsim"] / slowdown, events) * 1e6
    values["netsim.events_per_s"] = plain.delta("events") / plain.wall
    values["netsim.sends_per_op"] = calls.get("Network.send", 0) / ops
    values["netsim.peak_pending_events"] = float(traced.peak_pending)
    still_pending = traced.after["pending"] - traced.before["pending"]
    values["netsim.cancelled_ratio"] = max(
        0.0, _ratio(scheduled - events - still_pending, scheduled)
    )
    values["resolver.lookups_per_op"] = traced.delta("lookups") / ops
    values["resolver.forwards_per_op"] = traced.delta("packets_forwarded") / ops
    values["resolver.update_names_per_op"] = (
        traced.delta("update_names_processed")
        + traced.delta("advertisements_processed")
    ) / ops
    cache_hits, cache_misses = traced.delta("cache_hits"), traced.delta("cache_misses")
    values["resolver.cache_hit_ratio"] = _ratio(cache_hits, cache_hits + cache_misses)
    values["resolver.drops_per_op"] = traced.delta("packets_dropped") / ops
    values["resolver.maintenance_share"] = plain.gap_seconds / plain.wall
    issue_calls = sum(calls.get(name, 0) for name in ISSUE_SPANS)
    issue_seconds = sum(
        attribution.inclusive_seconds.get(name, 0.0) for name in ISSUE_SPANS
    )
    values["client.issue_us"] = _ratio(issue_seconds / slowdown, issue_calls) * 1e6
    values["client.retries_per_op"] = traced.delta("client_retries") / ops
    values["obs.spans_per_op"] = observed.delta("obs_spans") / observed.ops
    plain_prefix_rate = observed_ops / plain.ends[observed_ops - 1]
    values["obs.tracing_overhead_ratio"] = (
        (observed.ops / observed.wall) / plain_prefix_rate
    )
    values["harness.trace_overhead_ratio"] = traced.wall / plain.wall
    values["harness.driver_us_per_op"] = (
        plain.wall - sum(plain.host) - plain.gap_seconds
    ) / ops * 1e6
    return values


def cross_check_rows(attribution, unit_costs: Dict[str, float], ops: int,
                     slowdown: float) -> List[dict]:
    rows = []
    per_op_us = 1e6 / slowdown / ops
    for metric, cls, method in REPLAYED:
        boundary = f"{cls.__name__}.{method}"
        per_op = attribution.calls.get(boundary, 0) / ops
        rows.append({
            "boundary": boundary,
            "calls_per_op": per_op,
            "unit_us": unit_costs[metric],
            "count_x_unit_us": per_op * unit_costs[metric],
            "traced_inclusive_us":
                attribution.inclusive_seconds.get(boundary, 0.0) * per_op_us,
            "traced_self_us": attribution.self_seconds.get(boundary, 0.0) * per_op_us,
        })
    return rows


# ----------------------------------------------------------------------
# One run, as the contract wants it
# ----------------------------------------------------------------------
def run_one(spec: WorkloadSpec, seed: int, seconds: float, trace: int,
            scale: Scale = FULL) -> dict:
    if trace:
        measured = measure_traced(spec, seed, seconds, scale)
        group = report.PER_LAYER
    else:
        measured = measure_untraced(spec, seed, seconds, scale)
        group = report.END_TO_END
    return {
        "benchmark": "e2e",
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": report.as_metrics(measured["values"], group),
        "detail": measured["detail"],
    }


def print_run(result: dict) -> None:
    title = (
        f"{result['workload']}  seed {result['seed']}  "
        f"{'traced ledger' if result['trace'] else 'untraced end to end'}  "
        f"{result['attempted']} ops, {result['failed']} failed"
    )
    print(report.format_metrics(title, result["metrics"]))
    if result["trace"]:
        print(report.format_cross_check(result["detail"]["cross_check"]))
        print(
            "  residual = share of traced time under no layer's span "
            f"(the stated error): {result['metrics']['harness.residual_share']['value']:.4f}"
        )
        return
    for name, how in result["detail"]["taken"].items():
        raw = 1.0 / how["raw"] if name == "ops_per_s" else how["raw"] * 1e6
        print(
            f"  {name}: median of {how['batches']} batches of "
            f"n={how['samples_per_batch']:.0f} ops; on the raw clock {raw:.4f}"
        )
    print(
        "  timings are in reference seconds: the host ran the speed probe "
        f"{result['detail']['host_slowness']:.3f}x as slowly as the reference host"
    )


def contract_line(result: dict) -> str:
    """The result line: the metrics ``BENCHMARK.json`` lists, no others."""
    group = report.PER_LAYER if result["trace"] else report.END_TO_END
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: result["metrics"][m.name] for m in group if m.contract},
    })


def result_name(workload: str, seed: int, trace: int) -> str:
    return f"run-{workload}-seed{seed}-trace{trace}.json"


def main_run(args: argparse.Namespace) -> int:
    spec = WORKLOADS_BY_NAME[args.workload]
    try:
        result = run_one(spec, args.seed, args.seconds, args.trace)
    except NotDeterministic as error:
        print(f"run.py: {spec.name} seed {args.seed}: {error}", file=sys.stderr)
        return 3
    path = report.write_result(result, result_name(spec.name, args.seed, args.trace))
    print_run(result)
    print(f"  written: {path.relative_to(HERE.parents[1])}")
    print(contract_line(result))
    return 0


def main_quick(args: argparse.Namespace) -> int:
    """Every workload, both modes, on a tiny domain: proves the harness
    end to end in seconds. The numbers mean nothing."""
    out = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for spec in WORKLOADS:
        metrics = {}
        for trace in (0, 1):
            try:
                result = run_one(spec, args.seed, 0.1, trace, scale=QUICK)
            except NotDeterministic as error:
                print(f"run.py: {spec.name}: {error}", file=sys.stderr)
                return 3
            print_run(result)
            metrics.update(result["metrics"])
            out["attempted"] += result["attempted"]
            out["failed"] += result["failed"]
        out["workloads"][spec.name] = {"metrics": metrics}
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------------------
# suite / compare
# ----------------------------------------------------------------------
def main_suite(args: argparse.Namespace) -> int:
    """Run every workload ``--repeats`` times untraced and once traced,
    one process per run."""
    runs: List[dict] = []
    for spec in WORKLOADS:
        for trace, repeats in ((0, args.repeats), (1, 1)):
            for repeat in range(repeats):
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", spec.name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ]
                done = subprocess.run(
                    command, capture_output=True, text=True, timeout=600
                )
                if done.returncode != 0:
                    print(done.stdout + done.stderr, file=sys.stderr)
                    return done.returncode
                # the file has every metric, the result line only the contract's
                written = report.RESULTS_DIR / result_name(spec.name, args.seed, trace)
                runs.append(json.loads(written.read_text()))
                print(
                    f"{spec.name} trace={trace} run {repeat + 1}/{repeats}: "
                    f"{runs[-1]['attempted']} ops, {runs[-1]['failed']} failed",
                    flush=True,
                )
    suite = {
        "benchmark": "e2e-suite",
        "seed": args.seed,
        "seconds": args.seconds,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "runs": report.summarize_runs(runs),
    }
    path = report.write_result(suite, args.out)
    print(f"written: {path}")
    return 0 if suite["failed"] == 0 else 1


def main_compare(args: argparse.Namespace) -> int:
    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    rows = report.compare_sets(baseline, current)
    print(report.format_comparison(rows))
    return 1 if any(row["verdict"] != "ok" for row in rows) else 0


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.set_defaults(handler=main_run)
    parser.add_argument("--workload", choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    commands = parser.add_subparsers(dest="command")
    suite = commands.add_parser("suite", help=main_suite.__doc__)
    suite.set_defaults(handler=main_suite)
    suite.add_argument("--seed", type=int, default=1)
    suite.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    suite.add_argument("--repeats", type=int, default=5)
    suite.add_argument("--out", default="suite.json", help="file name under results/")
    compare = commands.add_parser("compare", help="verdict per metric and workload")
    compare.set_defaults(handler=main_compare)
    compare.add_argument("baseline")
    compare.add_argument("current")
    args = parser.parse_args(argv)
    if args.command is None:
        if args.quick:
            args.handler = main_quick
        elif args.workload is None:
            parser.error("--workload is required (or --quick, suite, compare)")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.handler in (main_run, main_quick) and os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are randomised per process, and with them the
        # layout of every dict and set keyed by a name token: worth a few
        # per cent of run-to-run spread. Measure under one fixed layout.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
