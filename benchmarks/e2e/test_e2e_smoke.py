"""Smoke test of the whole-domain benchmark (``pytest benchmarks/e2e -q``).

Runs ``run.py --quick`` once — every workload, untraced and traced, on
a tiny domain — and checks the harness against ``BENCHMARK.json``: every
workload and metric it names is emitted, names are well formed, the
ledger's shares and residual add up, and the code's metric tables say
what the JSON says. The numbers themselves mean nothing at this size.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import e2e_report  # noqa: E402
from e2e_driver import Phase  # noqa: E402
from e2e_ledger import LAYERS  # noqa: E402
from e2e_scenario import WORKLOADS, key_matches  # noqa: E402


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick() -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_declared_workload_and_metric_is_emitted(declared, quick):
    assert quick["correct"] and quick["failed"] == 0 and quick["attempted"] > 0
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    # printed and judged by compare, but not metrics the contract can carry
    extra = {m.name: m.unit for m in e2e_report.END_TO_END if not m.contract}
    assert sorted(extra) == [
        "op_fail_ratio", "op_p99_us", "virtual_op_p50_ms", "virtual_op_p99_ms",
    ]
    assert sorted(quick["workloads"]) == sorted(w["name"] for w in declared["workloads"])
    for workload, emitted in quick["workloads"].items():
        metrics = emitted["metrics"]
        assert sorted(metrics) == sorted({**units, **extra}), workload
        for name, entry in metrics.items():
            assert entry["unit"] == units.get(name, extra.get(name))
            assert isinstance(entry["value"], (int, float))
        assert metrics["op_fail_ratio"]["value"] == 0


def test_result_line_carries_exactly_the_declared_metrics(declared):
    import run

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        group = e2e_report.PER_LAYER if trace else e2e_report.END_TO_END
        result = {
            "trace": trace, "correct": True, "attempted": 1, "failed": 0,
            "metrics": e2e_report.as_metrics({m.name: 1.5 for m in group}, group),
        }
        line = json.loads(run.contract_line(result))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert list(line["metrics"]) == [m["name"] for m in declared[key]]


def test_names_are_well_formed(declared):
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_end_to_end_metrics_are_never_zero(declared, quick):
    for workload, emitted in quick["workloads"].items():
        for metric in declared["end_to_end"]:
            assert emitted["metrics"][metric["name"]]["value"] > 0, (workload, metric)


def test_layer_shares_and_residual_sum_to_one(quick):
    for workload, emitted in quick["workloads"].items():
        metrics = emitted["metrics"]
        shares = [metrics[f"{layer}.share"]["value"] for layer in LAYERS]
        residual = metrics["harness.residual_share"]["value"]
        assert all(share >= 0 for share in shares), workload
        assert sum(shares) + residual == pytest.approx(1.0, abs=1e-9), workload


def test_code_tables_match_benchmark_json(declared):
    assert [(w.name, w.why) for w in WORKLOADS] == [
        (w["name"], w["why"]) for w in declared["workloads"]
    ]
    assert [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in e2e_report.END_TO_END if m.contract
    ] == declared["end_to_end"]
    assert [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in e2e_report.PER_LAYER
    ] == declared["per_layer"]
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in declared["end_to_end"]
    )


def test_oracle_matcher_follows_the_lookup_rules():
    name = (("a0", "v1", (("a1", "v2", ()), ("a2", "v0", ()))), ("a2", "v2", ()))
    assert key_matches(name, name)
    assert key_matches((("a0", "v1", (("a1", "*", ()),)),), name)
    assert key_matches((("a2", "v2", ()),), name)           # the name may say more
    assert not key_matches((("a0", "v2", ()),), name)       # value differs
    assert not key_matches((("a1", "v2", ()),), name)       # attribute absent at that level
    assert not key_matches((("a0", "v1", (("a1", "v0", ()),)),), name)


def test_batches_merge_to_enough_samples_and_probes_fall_back():
    phase = Phase()
    phase.host.extend([1e-4] * 300)
    phase.ends.extend(index * 1e-3 for index in range(1, 301))
    phase.edges = [(0, 0.0), (50, 0.05), (150, 0.15), (300, 0.3)]
    phase.probes = [(0.0, 4.5e-3), (0.2, 9e-3)]
    assert [batch[:2] for batch in phase.batches()] == [(0, 50), (50, 150), (150, 300)]
    assert [batch[:2] for batch in phase.batches(100)] == [(0, 150), (150, 300)]
    assert phase.slowness(0.0, 0.05) == pytest.approx(1.0)
    assert phase.slowness(0.15, 0.3) == pytest.approx(2.0)
    assert phase.slowness(0.06, 0.1) == pytest.approx(1.5)   # no probe inside: the phase's
    phase.edges = [(10, 0.01)]                               # less than one whole round
    assert phase.batches() == [(0, 300, 0.0, phase.wall)]


def test_compare_judges_by_bound_and_flags_noise():
    def suite(ops, p50, events, wire=(186.92,), fail=(0.0,)):
        return {"runs": {"resolve-quiet": {
            "ops_per_s": ops, "op_p50_us": p50, "netsim.events_per_op": events,
            "wire_bytes_per_op": list(wire), "op_fail_ratio": list(fail),
            "naming.parse_us": [30.0],     # a per-layer timing: not judged
        }}}

    def verdicts(current):
        return {
            row["metric"]: row["verdict"]
            for row in e2e_report.compare_sets(base, current)
        }

    base = suite([1000.0, 1010.0, 990.0], [50.0, 50.5, 49.5], [4.0])
    assert verdicts(suite([985.0, 1000.0, 1005.0], [51.0], [4.0])) == {
        "ops_per_s": "ok", "op_p50_us": "ok", "netsim.events_per_op": "ok",
        "wire_bytes_per_op": "ok", "op_fail_ratio": "ok",
    }
    assert verdicts(
        suite([700.0, 1300.0, 1000.0], [63.0], [4.5], wire=[186.93], fail=[0.001])
    ) == {
        "ops_per_s": "unresolved",          # spread wider than the bound
        "op_p50_us": "regressed",           # 50 -> 63 us against a 25% bound
        "netsim.events_per_op": "regressed",  # an exact counter moved
        "wire_bytes_per_op": "regressed",   # exact for one seed, whatever its bound
        "op_fail_ratio": "regressed",       # any failure at all
    }
    # 50 -> 62 us is 24 % of the baseline: inside the bound
    assert verdicts(suite([1000.0], [62.0], [4.0]))["op_p50_us"] == "ok"
