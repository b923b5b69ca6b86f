"""A unified metrics registry: counters and gauges.

One registry per run absorbs what used to be scattered per-component
counter classes (``InrStats``, ``ClientStats``, ``LinkStats``)
behind a single ``snapshot() -> dict`` with label support — per-INR,
per-vspace, per-drop-cause — so experiments and the chaos harness read
one schema instead of plucking fields from three.

Determinism contract: a snapshot is a pure function of the metric
operations applied and its label keys are canonically sorted, so
written with ``write_canonical_json`` two same-seed runs produce
byte-identical snapshots. Values are whatever the caller observed
(sim-clock durations, counts); nothing in here reads a clock or an RNG.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

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

    def snapshot(self) -> dict:
        return {
            _key_text(key): self._values[key]
            for key in sorted(self._values)
        }


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
        """Every family's current state, grouped by kind, keys sorted.

        The ``histograms`` group stays, always empty: it is part of the
        snapshot every committed ``BENCH_*`` file embeds."""
        out: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        group = {"counter": "counters", "gauge": "gauges"}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[group[metric.kind]][name] = metric.snapshot()
        return out


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
