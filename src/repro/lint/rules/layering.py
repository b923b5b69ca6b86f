"""Layering rule: the declared module DAG, enforced.

The system is layered the way the paper's architecture is: names
(``naming``) are stored in name-trees (``nametree``), carried in
packets (``message``) across the simulated network (``netsim``),
resolved and routed by INRs (``resolver``), which self-organize via the
DSR overlay (``overlay``); clients, the chaos harness, and the
experiments sit on top. An import against that direction couples a
lower layer to a higher one — the kind of cycle that made the
``resolver``/``overlay`` split leak until the DSR wire messages moved
down into ``message``.

Each subpackage declares the exact set of subpackages it may import.
Importing an undeclared (new) layer is a warning — add the layer to the
DAG deliberately — while importing against the declared direction is an
error.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Tuple

from ..engine import SEVERITY_WARNING, FileContext, Finding
from . import Rule, register

#: The declared DAG: subpackage -> subpackages it may import.
#: Order below mirrors the layering, bottom to top.
LAYER_DAG: Dict[str, FrozenSet[str]] = {
    "naming": frozenset(),
    "netsim": frozenset(),
    "lint": frozenset(),
    #: Observability sits at the bottom, beside naming/netsim: it
    #: imports nothing from the system so every layer above may record
    #: spans and metrics into it (message carries its TraceContext).
    "obs": frozenset(),
    "nametree": frozenset({"naming"}),
    "message": frozenset({"naming", "obs"}),
    "resolver": frozenset({"naming", "nametree", "message", "netsim", "obs"}),
    "overlay": frozenset(
        {"naming", "nametree", "message", "netsim", "resolver", "obs"}
    ),
    "client": frozenset(
        {"naming", "nametree", "message", "netsim", "resolver", "overlay",
         "obs"}
    ),
    "baselines": frozenset(
        {"naming", "nametree", "message", "netsim", "resolver", "overlay",
         "client", "obs"}
    ),
    "apps": frozenset(
        {"naming", "nametree", "message", "netsim", "resolver", "overlay",
         "client", "obs"}
    ),
    "experiments": frozenset(
        {"naming", "nametree", "message", "netsim", "resolver", "overlay",
         "client", "apps", "baselines", "obs"}
    ),
    "chaos": frozenset(
        {"naming", "nametree", "message", "netsim", "resolver", "overlay",
         "client", "experiments", "obs"}
    ),
    #: The evaluation sits on top: one module per experiment (its
    #: driver on the experiment and chaos harnesses, its metrics, tables
    #: and ``BENCH_*`` payload) plus the engine that runs them. Nothing
    #: imports it back.
    "xp": frozenset(
        {"naming", "nametree", "message", "netsim", "resolver", "overlay",
         "client", "apps", "baselines", "experiments", "chaos", "obs"}
    ),
}


@register
class LayeringRule(Rule):
    id = "layering"
    summary = (
        "imports must follow the declared layer DAG "
        "(naming/obs -> nametree/message -> netsim -> resolver "
        "-> overlay -> client -> apps/baselines -> experiments "
        "-> chaos -> xp)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        own = ctx.package
        if own is None:
            # Outside ``repro`` (tests, benchmarks) or a root facade
            # module (``repro/__init__``, ``repro/__main__``) that sits
            # above every layer by design.
            return
        for node, target in self._repro_imports(ctx):
            yield from self._evaluate(ctx, own, node, target)

    # ------------------------------------------------------------------
    # Import extraction
    # ------------------------------------------------------------------
    def _repro_imports(
        self, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, List[str]]]:
        """Yield ``(node, dotted_parts)`` for every intra-repro import."""
        module_parts = (ctx.module or "").split(".")
        is_package = ctx.path.name == "__init__.py"
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "repro":
                        yield node, parts
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    if node.module and \
                            node.module.split(".")[0] == "repro":
                        yield node, node.module.split(".")
                    continue
                # Relative import: climb ``level`` packages from here.
                climb = node.level - 1 if is_package else node.level
                if climb >= len(module_parts):
                    continue
                base = module_parts[: len(module_parts) - climb]
                if base[0] != "repro":
                    continue
                if node.module:
                    yield node, base + node.module.split(".")
                else:
                    # ``from .. import client`` names the subpackages
                    # directly.
                    for alias in node.names:
                        yield node, base + [alias.name]

    # ------------------------------------------------------------------
    # DAG evaluation
    # ------------------------------------------------------------------
    def _evaluate(
        self, ctx: FileContext, own: str, node: ast.AST, target: List[str]
    ) -> Iterator[Finding]:
        if len(target) < 2:
            yield self.finding(
                ctx,
                node,
                f"{own} imports the repro package root, which re-exports "
                "every layer; import the specific subpackage instead",
            )
            return
        dependency = target[1]
        if dependency == own:
            return
        allowed = LAYER_DAG.get(own)
        if allowed is None:
            yield self.finding(
                ctx,
                node,
                f"module is in undeclared layer {own!r}; add it to the "
                "layer DAG (repro.lint.rules.layering.LAYER_DAG)",
                severity=SEVERITY_WARNING,
            )
            return
        if dependency not in LAYER_DAG:
            yield self.finding(
                ctx,
                node,
                f"{own} imports undeclared layer {dependency!r}; add it "
                "to the layer DAG deliberately before depending on it",
                severity=SEVERITY_WARNING,
            )
        elif dependency not in allowed:
            declared = ", ".join(sorted(allowed)) or "nothing"
            yield self.finding(
                ctx,
                node,
                f"{own} may not import {dependency} (declared deps: "
                f"{declared}); move shared code below both layers or "
                "invert the dependency",
            )
