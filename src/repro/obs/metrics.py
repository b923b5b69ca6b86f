"""A unified metrics registry: counters, gauges, histograms.

One registry per run absorbs what used to be scattered per-component
counter classes (``InrStats``, ``ClientStats``, ``LinkStats``)
behind a single ``snapshot() -> dict`` with label support — per-INR,
per-vspace, per-drop-cause — so experiments and the chaos harness read
one schema instead of plucking fields from three.

Determinism contract: a snapshot is a pure function of the metric
operations applied, label keys are canonically sorted, and
:meth:`MetricsRegistry.to_json` emits ``sort_keys=True`` JSON — two
same-seed runs produce byte-identical snapshots. Values are whatever
the caller observed (sim-clock durations, counts); nothing in here
reads a clock or an RNG.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds, in seconds: spans from
#: sub-millisecond cache answers to multi-second chaos-retry tails.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

LabelValues = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelValues:
    """Canonical (sorted, stringified) form of one label set."""
    return tuple((str(k), str(labels[k])) for k in sorted(labels))


def _key_text(key: LabelValues) -> str:
    """Render a canonical label set as ``a=1,b=x`` ('' for no labels)."""
    return ",".join(f"{name}={value}" for name, value in key)


class _Metric:
    """Shared family plumbing: a name and per-label-set storage."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def snapshot(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count, per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def snapshot(self) -> dict:
        return {
            _key_text(key): self._values[key]
            for key in sorted(self._values)
        }


class Gauge(_Metric):
    """A point-in-time value, per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(labels)] = value

    def add(self, amount: float, **labels: object) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict:
        return {
            _key_text(key): self._values[key]
            for key in sorted(self._values)
        }


class Histogram(_Metric):
    """Observations bucketed at fixed boundaries, per label set.

    Buckets are cumulative-style upper bounds plus an implicit +Inf;
    boundaries are fixed at construction so every snapshot of a family
    shares one schema (the Prometheus convention).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.bounds = bounds
        #: label set -> (per-bucket counts + overflow, total count, sum)
        self._series: Dict[LabelValues, List[float]] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            # bucket counts..., +Inf count, total count, sum
            series = [0.0] * (len(self.bounds) + 3)
            self._series[key] = series
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                series[index] += 1
                break
        else:
            series[len(self.bounds)] += 1
        series[-2] += 1
        series[-1] += value

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return int(series[-2]) if series else 0

    def percentile(self, q: float, **labels: object) -> float:
        """Approximate quantile: the upper bound of the bucket the
        q-th observation falls in (+Inf reports the last bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        series = self._series.get(_label_key(labels))
        if not series or series[-2] == 0:
            return float("nan")
        rank = q * series[-2]
        seen = 0.0
        for index, bound in enumerate(self.bounds):
            seen += series[index]
            if seen >= rank:
                return bound
        return self.bounds[-1]

    QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

    def snapshot(self) -> dict:
        """Per-series buckets, count, sum — and deterministic p50/p95/
        p99 summaries (bucket upper bounds, the same statistic
        :meth:`percentile` reports), so engine reports and the bench
        gate can compare tail latency without reprocessing buckets."""
        out = {}
        for key in sorted(self._series):
            series = self._series[key]
            buckets = {
                f"{bound!r}": series[index]
                for index, bound in enumerate(self.bounds)
            }
            buckets["+Inf"] = series[len(self.bounds)]
            labels = dict(key)
            out[_key_text(key)] = {
                "buckets": buckets,
                "count": series[-2],
                "sum": series[-1],
                "quantiles": {
                    name: self.percentile(q, **labels)
                    for name, q in self.QUANTILES
                },
            }
        return out


class MetricsRegistry:
    """Owns every metric family of one run.

    Families are created on first use (``counter()`` etc. get-or-create
    by name) so instrumentation sites never race over declaration.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get(self, name: str, factory, kind: str, **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name, **kwargs)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, "counter", help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, "gauge", help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(name, Histogram, "histogram", help=help, buckets=buckets)

    def ingest(
        self,
        prefix: str,
        values: Mapping[str, object],
        **labels: object,
    ) -> None:
        """Absorb a stats ``snapshot()`` dict as labelled counters.

        Numeric scalar fields become counters named ``prefix.field``;
        nested mappings (e.g. ``drops_by_cause``) become one counter
        with the inner key as an extra ``cause`` label. Non-numeric
        fields are skipped — the registry carries measurements, not
        configuration.
        """
        for field_name in sorted(values):
            value = values[field_name]
            if isinstance(value, Mapping):
                for inner in sorted(value):
                    inner_value = value[inner]
                    if isinstance(inner_value, (int, float)):
                        self.counter(f"{prefix}.{field_name}").inc(
                            float(inner_value), cause=inner, **labels
                        )
            elif isinstance(value, bool):
                continue
            elif isinstance(value, (int, float)):
                self.counter(f"{prefix}.{field_name}").inc(
                    float(value), **labels
                )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every family's current state, grouped by kind, keys sorted."""
        out: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        group = {"counter": "counters", "gauge": "gauges",
                 "histogram": "histograms"}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[group[metric.kind]][name] = metric.snapshot()
        return out

    def to_json(self) -> str:
        """Canonical JSON: byte-identical across same-seed runs."""
        import json

        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"


def merge_counts(
    snapshots: Iterable[Mapping[str, object]],
) -> Dict[str, float]:
    """Sum the numeric fields of several stats snapshots.

    The aggregation the availability report needs: total retries across
    all clients, total sheds across all INRs — without plucking fields
    one by one. Nested mappings are summed per inner key under
    ``field.key``.
    """
    totals: Dict[str, float] = {}
    for snap in snapshots:
        for field_name in snap:
            value = snap[field_name]
            if isinstance(value, bool):
                continue
            if isinstance(value, Mapping):
                for inner, inner_value in value.items():
                    if isinstance(inner_value, (int, float)):
                        key = f"{field_name}.{inner}"
                        totals[key] = totals.get(key, 0.0) + inner_value
            elif isinstance(value, (int, float)):
                totals[field_name] = totals.get(field_name, 0.0) + value
    return totals
