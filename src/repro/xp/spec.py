"""Declarative experiment specifications with content-hashed run IDs.

An :class:`ExperimentSpec` is the entire identity of an engine run: the
workload name, the seed, the named component toggles that form the
baseline configuration, and the workload's scale parameters. Two specs
with equal canonical forms have equal run IDs; any field change — a
different seed, a flipped toggle, a new parameter — yields a new ID.
Run IDs are therefore stable across sessions, machines and Python
versions, and an artifact can always be traced back to the exact
configuration that produced it.

This module is pure data: no clocks, no randomness, no I/O beyond
hashing. The ``entropy-taint`` lint rule, which applies everywhere,
pins the wall-clock ban.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

#: The named component toggles an :class:`ExperimentSpec` may carry.
#: Each names one separable piece of machinery grown on top of the
#: paper's base system; ablating it measures what the component buys.
TOGGLES: Dict[str, str] = {
    "lookup_memo": (
        "LOOKUP-NAME memo: epoch-invalidated LRU of canonical query "
        "keys on the name-tree"
    ),
    "packet_cache": (
        "INR packet caching of intentionally-named data (Section 3.2)"
    ),
    "resilience": (
        "client request resilience: retries/backoff, deadlines, "
        "automatic failover"
    ),
    "custody": (
        "disruption-tolerant custody store-and-forward for late-binding "
        "anycast (PROTOCOL.md §10)"
    ),
    "delegation_two_phase": (
        "crash-safe two-phase vspace handoff (OFFER/ACCEPT/TRANSFER/"
        "COMMIT) instead of the single-shot transfer"
    ),
    "obs_tracing": (
        "hop-by-hop span tracing carried in the header flag-bit "
        "extension (adds trace-context wire bytes)"
    ),
    "load_balancing": (
        "Section 2.5 spawn/terminate and vspace-delegation load policy"
    ),
    "delivery_artifact": (
        "the paper's Figure-15 delivery-code artifact: local delivery "
        "cost linear in the vspace's name count"
    ),
}

#: Bump when the canonical form of a spec changes incompatibly (run IDs
#: embed it, so old and new IDs can never collide silently).
SPEC_VERSION = 1


class SpecError(ValueError):
    """An :class:`ExperimentSpec` field failed validation."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: workload + seed + toggles + params.

    ``toggles`` holds the *baseline* value of every component the
    experiment controls; the runner produces one additional ablated run
    per toggle by flipping it. ``params`` are workload scale knobs
    (name counts, durations, client counts, a sweep's points as a
    tuple) — part of the identity, so a reduced-scale CI run and a
    full-scale run never share an ID.
    """

    name: str
    workload: str
    seed: int = 0
    toggles: Mapping[str, bool] = field(default_factory=dict)
    params: Mapping[str, object] = field(default_factory=dict)
    #: restrict which toggles this spec ablates; empty = every toggle
    #: the workload honors. Lets a spec exist to measure one component
    #: under special conditions without re-ablating everything else.
    ablations: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError("spec needs a non-empty name")
        if not self.workload or not isinstance(self.workload, str):
            raise SpecError(f"spec {self.name!r} needs a workload")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError(f"spec {self.name!r}: seed must be an int")
        for toggle, value in self.toggles.items():
            if toggle not in TOGGLES:
                raise SpecError(
                    f"spec {self.name!r}: unknown toggle {toggle!r} "
                    f"(known: {', '.join(sorted(TOGGLES))})"
                )
            if not isinstance(value, bool):
                raise SpecError(
                    f"spec {self.name!r}: toggle {toggle!r} must be a bool"
                )
        for toggle in self.ablations:
            if toggle not in TOGGLES:
                raise SpecError(
                    f"spec {self.name!r}: unknown ablation toggle {toggle!r}"
                )
        # Params are hashed as canonical JSON: what it cannot carry (a
        # set, an object, a NaN or an infinity) has no run ID.
        try:
            json.dumps(dict(self.params), sort_keys=True, allow_nan=False)
        except (TypeError, ValueError) as error:
            raise SpecError(
                f"spec {self.name!r}: params must be plain JSON data ({error})"
            ) from None
        object.__setattr__(
            self, "ablations", tuple(sorted(set(self.ablations)))
        )
        # Freeze the mappings so a frozen spec is deep-immutable in
        # practice (dataclass frozen= only guards rebinding).
        object.__setattr__(self, "toggles", dict(sorted(self.toggles.items())))
        object.__setattr__(self, "params", dict(sorted(self.params.items())))

    # ------------------------------------------------------------------
    # Canonical form and run IDs
    # ------------------------------------------------------------------
    def canonical_dict(self, ablate: Optional[str] = None) -> dict:
        """The spec as plain sorted data — the hashed identity.

        ``ablate`` names a toggle flipped relative to the baseline;
        ablated runs hash to their own IDs without constructing a
        whole new spec.
        """
        toggles = dict(self.toggles)
        if ablate is not None:
            if ablate not in TOGGLES:
                raise SpecError(
                    f"spec {self.name!r}: cannot ablate unknown toggle "
                    f"{ablate!r}"
                )
            # The ``ablate`` field itself is part of the hashed identity,
            # so the ID is distinct even when the spec leaves the toggle
            # at the workload default rather than pinning it.
            if ablate in toggles:
                toggles[ablate] = not toggles[ablate]
        return {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "workload": self.workload,
            "seed": self.seed,
            "toggles": toggles,
            "params": self.params,
            "ablations": list(self.ablations),
            "ablate": ablate,
        }

    def canonical_json(self, ablate: Optional[str] = None) -> str:
        """Canonical JSON: sorted keys, tight separators, no floats
        reformatted — equal specs serialize byte-identically."""
        return json.dumps(
            self.canonical_dict(ablate),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
        )

    def run_id(self, ablate: Optional[str] = None) -> str:
        """Content-hashed run ID, stable across sessions and hosts."""
        # Imported here, not with the module: ``hashlib`` maps OpenSSL
        # (3.7 MiB of RSS), and the whole-domain benchmark imports this
        # package (for ``repro.xp.gate``) without ever hashing a spec.
        import hashlib

        digest = hashlib.sha256(
            self.canonical_json(ablate).encode("ascii")
        ).hexdigest()
        return f"xp-{digest[:16]}"
