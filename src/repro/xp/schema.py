"""Versioned validation schemas for every ``BENCH_*.json`` artifact.

Benchmarks in this repository leave machine-readable artifacts under
``benchmarks/results/``; downstream sessions, the CI gate and trend
tooling all parse them. This module pins what each artifact family must
look like — one schema per ``benchmark`` discriminator value, plus
filename-keyed families for the raw metrics snapshots and Chrome
traces — and a tier-1 test validates every committed file against it,
so a writer change that silently reshapes an artifact fails the suite
instead of breaking a consumer three sessions later.

The validator is deliberately structural, not exhaustive: it checks the
discriminator, the schema version, the load-bearing fields and their
types, and tolerates extra keys (artifacts may grow). Checks are pure
predicates — no clocks, no I/O beyond reading the file handed in.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

RUN_ID_PREFIX = "xp-"


class SchemaError(ValueError):
    """An artifact does not satisfy its family's schema."""


Check = Callable[[object, str], None]


def _fail(where: str, message: str) -> None:
    raise SchemaError(f"{where}: {message}")


def number(value: object, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"expected a number, got {type(value).__name__}")


def integer(value: object, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"expected an integer, got {type(value).__name__}")


def string(value: object, where: str) -> None:
    if not isinstance(value, str):
        _fail(where, f"expected a string, got {type(value).__name__}")


def boolean(value: object, where: str) -> None:
    if not isinstance(value, bool):
        _fail(where, f"expected a boolean, got {type(value).__name__}")


def anything(value: object, where: str) -> None:
    return None


def run_id(value: object, where: str) -> None:
    string(value, where)
    body = str(value)[len(RUN_ID_PREFIX):]
    if not str(value).startswith(RUN_ID_PREFIX) or len(body) != 16 or any(
        c not in "0123456789abcdef" for c in body
    ):
        _fail(where, f"expected an {RUN_ID_PREFIX}<16 hex> run id, got {value!r}")


def list_of(item: Check, min_items: int = 0) -> Check:
    def check(value: object, where: str) -> None:
        if not isinstance(value, list):
            _fail(where, f"expected a list, got {type(value).__name__}")
        if len(value) < min_items:
            _fail(where, f"expected at least {min_items} items, got {len(value)}")
        for index, element in enumerate(value):
            item(element, f"{where}[{index}]")

    return check


def mapping_of(item: Check) -> Check:
    def check(value: object, where: str) -> None:
        if not isinstance(value, dict):
            _fail(where, f"expected an object, got {type(value).__name__}")
        for key in sorted(value):
            if not isinstance(key, str):
                _fail(where, f"non-string key {key!r}")
            item(value[key], f"{where}.{key}")

    return check


def obj(
    required: Optional[Mapping[str, Check]] = None,
    optional: Optional[Mapping[str, Check]] = None,
) -> Check:
    """An object with at least ``required`` fields; extra keys are
    allowed (artifacts may grow), ``optional`` fields are checked when
    present."""

    def check(value: object, where: str) -> None:
        if not isinstance(value, dict):
            _fail(where, f"expected an object, got {type(value).__name__}")
        for key, field_check in sorted((required or {}).items()):
            if key not in value:
                _fail(where, f"missing required field {key!r}")
            field_check(value[key], f"{where}.{key}")
        for key, field_check in sorted((optional or {}).items()):
            if key in value:
                field_check(value[key], f"{where}.{key}")

    return check


# ----------------------------------------------------------------------
# Shared fragments
# ----------------------------------------------------------------------
#: One histogram series as the obs registry snapshots it — the
#: deterministic p50/p95/p99 summary is part of the contract.
histogram_series = obj(required={
    "buckets": mapping_of(number),
    "count": number,
    "sum": number,
    "quantiles": obj(required={"p50": number, "p95": number, "p99": number}),
})

#: A full ``MetricsRegistry.snapshot()`` payload.
metrics_snapshot = obj(required={
    "counters": mapping_of(mapping_of(number)),
    "gauges": mapping_of(mapping_of(number)),
    "histograms": mapping_of(mapping_of(histogram_series)),
})

#: The ``observability`` block chaos/experiment writers embed.
observability_payload = obj(
    required={"span_summary": anything},
    optional={"metrics": metrics_snapshot},
)

_availability_report = obj(required={
    "success_rate": number,
    "requests_attempted": number,
    "requests_succeeded": number,
    "requests_hung": number,
    "latency_p50": number,
    "latency_p99": number,
    "resilience": boolean,
    "fault_kinds": list_of(string),
})

_dtn_report = obj(required={
    "custody": boolean,
    "delivery_ratio": number,
    "messages_sent": number,
    "messages_delivered": number,
    "latency_p50": number,
    "latency_max": number,
})

_delegation_report = obj(required={
    "two_phase": boolean,
    "window_success_rate": number,
    "success_rate": number,
    "lost_records": number,
    "authority": list_of(string),
})

_matrix_result = obj(
    required={"metrics": mapping_of(number)},
    optional={
        "timings": mapping_of(number),
        "observability": obj(required={"span_summary": anything}),
    },
)

_matrix_ablation = obj(
    required={
        "metrics": mapping_of(number),
        "run_id": run_id,
        "deltas": mapping_of(obj(required={
            "baseline": number,
            "ablated": number,
            "delta": number,
            "relative": number,
        })),
    },
    optional={
        "primary": obj(required={
            "metric": string,
            "direction": string,
            "importance": number,
        }),
    },
)


# ----------------------------------------------------------------------
# Artifact families, keyed by the ``benchmark`` discriminator
# ----------------------------------------------------------------------
#: family name -> (expected schema_version, payload check)
ARTIFACT_SCHEMAS: Dict[str, Tuple[int, Check]] = {
    "fig12-lookup": (3, obj(required={
        "curve": list_of(obj(required={
            "names_in_tree": number,
            "lookups_per_second": number,
            "mean_lookup_us": number,
        }), min_items=1),
        "memo_ablation": obj(required={
            "names_in_tree": number,
            "distinct_queries": number,
            "lookups": number,
            "uncached_lookups_per_second": number,
            "cached_lookups_per_second": number,
            "speedup": number,
            "memo_hits": number,
            "memo_misses": number,
            "memo_invalidations": number,
        }),
    })),
    "availability-chaos": (1, obj(required={
        "resilience_on": _availability_report,
        "resilience_off": _availability_report,
        "success_rate_delta": number,
        "observability": mapping_of(observability_payload),
    })),
    "dtn-chaos": (1, obj(required={
        "rows": list_of(obj(required={
            "disruption": number,
            "delivery_ratio_delta": number,
            "custody_on": _dtn_report,
            "custody_off": _dtn_report,
        }), min_items=1),
        "observability": mapping_of(observability_payload),
    })),
    "delegation-chaos": (1, obj(required={
        "matrix": list_of(_delegation_report, min_items=1),
        "ablation": obj(required={
            "two_phase": _delegation_report,
            "ablated": _delegation_report,
            "lost_records_delta": number,
            "window_success_delta": number,
        }),
        "observability": mapping_of(observability_payload),
    })),
    "fig14-discovery-time": (1, obj(required={
        "rows": list_of(obj(required={
            "hops": number,
            "discovery_ms": number,
        }), min_items=2),
        "slope_ms_per_hop": number,
        "observability": observability_payload,
    })),
    "fig15-routing-burst": (1, obj(required={
        "rows": list_of(obj(required={
            "names_in_vspace": number,
            "local_ms": number,
            "remote_same_vspace_ms": number,
            "remote_other_vspace_ms": number,
        }), min_items=1),
        "observability": observability_payload,
    })),
    "xp-matrix": (1, obj(
        required={
            "engine": obj(required={"toggles": mapping_of(string)}),
            "suite": list_of(obj(required={
                "name": string,
                "workload": string,
                "seed": integer,
                "run_id": run_id,
                "params": anything,
                "toggles": mapping_of(boolean),
                "baseline": _matrix_result,
                "ablations": mapping_of(_matrix_ablation),
            }), min_items=1),
            "importance_ranking": list_of(obj(required={
                "component": string,
                "importance": number,
                "workload": string,
                "spec": string,
                "metric": string,
                "direction": string,
                "baseline": number,
                "ablated": number,
            })),
        },
        optional={"generated_at": string},
    )),
}

#: Filename-suffix families for artifacts without a discriminator.
SUFFIX_SCHEMAS: Dict[str, Tuple[str, Check]] = {
    "_metrics.json": ("metrics-snapshot", metrics_snapshot),
    "_trace.json": ("chrome-trace", obj(required={
        "traceEvents": list_of(anything),
        "displayTimeUnit": string,
    })),
}


def validate_artifact(
    path: Union[str, Path], payload: Optional[dict] = None
) -> str:
    """Validate one artifact file (or a pre-loaded payload standing in
    for it) and return the family name it matched. Raises
    :class:`SchemaError` on any mismatch, including an unknown family —
    new artifact kinds must register a schema here."""
    path = Path(path)
    if payload is None:
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise SchemaError(f"{path.name}: not valid JSON ({error})")
    for suffix, (family, check) in SUFFIX_SCHEMAS.items():
        if path.name.endswith(suffix):
            check(payload, path.name)
            return family
    if not isinstance(payload, dict):
        _fail(path.name, "expected a top-level JSON object")
    family = payload.get("benchmark")
    if family not in ARTIFACT_SCHEMAS:
        _fail(
            path.name,
            f"unknown benchmark family {family!r} "
            f"(known: {', '.join(sorted(ARTIFACT_SCHEMAS))})",
        )
    expected_version, check = ARTIFACT_SCHEMAS[family]
    version = payload.get("schema_version")
    if version != expected_version:
        _fail(
            path.name,
            f"family {family!r} expects schema_version "
            f"{expected_version}, found {version!r}",
        )
    check(payload, path.name)
    return str(family)


def validate_results_dir(results_dir: Union[str, Path]) -> Dict[str, str]:
    """Validate every ``*.json`` artifact in a results directory.
    Returns {filename: family}; raises on the first invalid file."""
    results_dir = Path(results_dir)
    validated: Dict[str, str] = {}
    for path in sorted(results_dir.glob("*.json")):
        validated[path.name] = validate_artifact(path)
    return validated
