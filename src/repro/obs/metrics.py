"""The one reader of a stats snapshot, and the label text metrics use.

Every per-component counter class (``InrStats``, ``ClientStats``,
``LinkStats``) reports through one ``snapshot() -> dict`` of counts,
and :func:`stats_fields` is the only code that walks that shape: the
collector files what it yields as labelled counters, the chaos reports
sum it.

Determinism contract: label text is canonical (names sorted), and a
family is a plain ``{label text: float}`` dict, so written with
``write_canonical_json`` two same-seed runs produce byte-identical
metrics. Nothing in here reads a clock or an RNG.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Tuple


def label_text(**labels: object) -> str:
    """One label set as ``a=1,b=x``, names sorted ('' for none)."""
    return ",".join(f"{name}={labels[name]}" for name in sorted(labels))


def _is_count(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def stats_fields(
    snapshot: Mapping[str, object],
) -> Iterator[Tuple[str, Optional[str], float]]:
    """Every count of a stats ``snapshot()`` as ``(field, inner key or
    None, value)``.

    A nested mapping (``drops_by_cause``) yields one entry per inner
    key. Only numbers are counts: a bool, a string or any other field
    is configuration, and is skipped.
    """
    for field_name, value in snapshot.items():
        if isinstance(value, Mapping):
            for inner, inner_value in value.items():
                if _is_count(inner_value):
                    yield field_name, inner, float(inner_value)
        elif _is_count(value):
            yield field_name, None, float(value)
