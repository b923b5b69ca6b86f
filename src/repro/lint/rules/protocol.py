"""Protocol-surface exhaustiveness: wire messages, drop causes, docs.

The protocol has three surfaces that must not drift apart:

1. **Exports vs dispatch.** Every message class exported from
   ``repro.message`` (the wire format, the DSR's messages) or from
   ``repro.resolver.protocol`` (the INR's own control messages) must be
   matched by a dispatch arm reachable from a dispatch entry point
   (``INR.handle_message``, the DSR's and the client's handlers). An
   arm is either an ``isinstance`` test or a key of a class-level
   ``{message type: ...}`` table that a reachable method reads through
   ``self``: a dict literal, or the union of other classes' class-level
   dict literals (the INR's dispatch table, assembled from its
   components' ``HANDLERS`` and bound per incarnation). An exported message
   nobody dispatches is either dead wire format or — worse — a payload
   that silently vanishes on arrival.
2. **Drop counters vs span statuses.** Every ``drops_*`` field on
   ``InrStats`` must have a matching ``drop:<cause>`` span-status
   emission somewhere, so every counted loss is attributable in a
   trace (the OBSERVABILITY contract).
3. **Drop counters vs PROTOCOL.md.** Every drop cause must be
   mentioned in the protocol document, so the spec enumerates the ways
   a packet can die.

All checks are one-directional from the declared surface (the export
list, the stats dataclass) toward its consumers; span-status detection
is best-effort over string constants in modules that reference
``DROP_PREFIX`` (the codebase emits both literal ``"drop:x"`` statuses
and ``DROP_PREFIX + cause`` concatenations with the cause threaded as a
literal argument).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set, Tuple

from ..engine import Finding
from ..project import KIND_CLASS, ProjectModel, _attribute_chain
from . import ProjectRule, register

#: The modules whose ``__all__`` declares the message surface.
MESSAGE_PACKAGES = ("repro.message", "repro.resolver.protocol")

#: Dispatch roots; arms are collected from every project function
#: reachable from these.
DISPATCH_ENTRIES = (
    "repro.resolver.inr.INR.handle_message",
    "repro.overlay.dsr.DomainSpaceResolver.handle_message",
    "repro.client.api.InsClient.handle_message",
)

#: Exported names that are message *format*, not dispatched payloads:
#: headers, enums, records carried inside payloads (a ``NameUpdate``
#: travels in an ``UpdateBatch``), error types, and InsMessage
#: (dispatched wrapped in the resolver's DataPacket).
NON_PAYLOAD = frozenset({
    "Binding", "DelegateRecord", "DelegationWireError",
    "Delivery", "Header", "HeaderError", "InsMessage", "NameUpdate",
})

#: The stats dataclass carrying per-cause drop counters.
STATS_CLASS = "repro.resolver.stats.InrStats"
DROPS_PREFIX = "drops_"

#: Protocol document checked for drop-cause mentions, relative to the
#: lint root; the doc surface is skipped when absent.
PROTOCOL_DOC = "docs/PROTOCOL.md"


def _string_constants(tree: ast.AST) -> Set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _self_reads(tree: ast.AST) -> Set[str]:
    """Attribute names read (or written) as ``self.<name>`` in ``tree``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _class_bindings(cls) -> Iterator[Tuple[str, ast.expr]]:
    """``(name, value)`` of every assignment in the body of ``cls``."""
    for stmt in cls.node.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, stmt.value


def _references_name(tree: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(tree)
    )


@register
class ProtocolExhaustiveRule(ProjectRule):
    id = "protocol-exhaustive"
    summary = (
        "every exported message needs a reachable dispatch arm "
        "(isinstance test or dispatch-table key); every drops_* counter "
        "needs a drop:<cause> span emission and a PROTOCOL.md mention"
    )
    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        yield from self._check_dispatch(model)
        yield from self._check_drop_causes(model)

    # ------------------------------------------------------------------
    # Surface 1: exports vs reachable dispatch arms
    # ------------------------------------------------------------------
    def _check_dispatch(self, model: ProjectModel) -> Iterator[Finding]:
        if not any(e in model.functions for e in DISPATCH_ENTRIES):
            return  # no dispatcher in scope — half a tree, stay quiet
        arms = self._reachable_arms(model, DISPATCH_ENTRIES)
        for package in MESSAGE_PACKAGES:
            info = model.modules.get(package)
            if info is None:
                continue  # tree without this package (fixtures, subsets)
            for export, _lineno in info.exports:
                if export in NON_PAYLOAD:
                    continue
                resolved = model.resolve_local(package, export)
                if resolved is None or resolved[0] != KIND_CLASS:
                    continue  # constants, helper functions, unresolved
                if resolved[1] in arms:
                    continue
                cls = model.classes[resolved[1]]
                yield self.finding_at(
                    model, cls.path, cls.node.lineno,
                    f"wire message {export} is exported from {package} "
                    "but no dispatch arm (isinstance test or "
                    "dispatch-table key) reachable from an INR, DSR or "
                    "client handle_message matches it; arriving payloads "
                    "of this type vanish undispatched — add a handler arm "
                    "or unexport it",
                )

    def _reachable_arms(
        self, model: ProjectModel, entries: Sequence[str]
    ) -> Set[str]:
        arms: Set[str] = set()
        for qname in model.reachable_from(entries):
            fn = model.functions[qname]
            for module, candidate in self._arm_candidates(model, fn):
                chain = _attribute_chain(candidate)
                if chain is None:
                    continue
                resolved = model.resolve_dotted(module, chain)
                if resolved is not None and resolved[0] == KIND_CLASS:
                    arms.add(resolved[1])
        return arms

    @classmethod
    def _arm_candidates(
        cls, model: ProjectModel, fn
    ) -> Iterator[Tuple[str, ast.expr]]:
        """Expressions in ``fn`` that may name a dispatched class, each
        with the module whose names it is written in: the type arguments
        of its ``isinstance`` tests, and the keys of every table bound in
        its class body that it reads through ``self`` (a dispatch table
        looked up by ``type(payload)``)."""
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                types = node.args[1]
                for expr in types.elts if isinstance(types, ast.Tuple) else [types]:
                    yield fn.module, expr
        owner = model.classes.get(fn.class_qname or "")
        if owner is None:
            return
        reads = _self_reads(fn.node)
        # A per-instance table built from a class-level one (``self.x =
        # {... self._TABLE ...}`` in any method) has that table's keys.
        for stmt in ast.walk(owner.node):
            if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Attribute) and _self_reads(target) & reads
                for target in stmt.targets
            ):
                reads = reads | _self_reads(stmt.value)
        for name, value in _class_bindings(owner):
            if name in reads:
                for module, table in cls._dict_literals(model, owner, value):
                    yield from ((module, key) for key in table.keys if key is not None)

    @classmethod
    def _dict_literals(
        cls, model: ProjectModel, owner, value: ast.expr
    ) -> Iterator[Tuple[str, ast.Dict]]:
        """The dict literals a class-level table is made of, each with
        its module: the table itself, or — for one assembled from other
        classes' tables (``merge(a=A.TABLE, b=B.TABLE)``) — every
        class-level table it names."""
        if isinstance(value, ast.Dict):
            yield owner.module, value
            return
        for node in ast.walk(value):
            chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
            resolved = chain and model.resolve_dotted(owner.module, chain[:-1])
            if resolved and resolved[0] == KIND_CLASS:
                part = model.classes[resolved[1]]
                for name, bound in _class_bindings(part):
                    if name == chain[-1]:
                        yield from cls._dict_literals(model, part, bound)

    # ------------------------------------------------------------------
    # Surfaces 2 + 3: drops_* counters vs spans vs PROTOCOL.md
    # ------------------------------------------------------------------
    def _check_drop_causes(self, model: ProjectModel) -> Iterator[Finding]:
        cls = model.classes.get(STATS_CLASS)
        if cls is None:
            return
        emitted = self._emitted_statuses(model)
        doc_text = self._protocol_doc_text(model)
        for stmt in cls.node.body:
            if not (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id.startswith(DROPS_PREFIX)
            ):
                continue
            field = stmt.target.id
            cause = field[len(DROPS_PREFIX):].replace("_", "-")
            if f"drop:{cause}" not in emitted and cause not in emitted:
                yield self.finding_at(
                    model, cls.path, stmt.lineno,
                    f"drop counter {field} has no matching "
                    f"'drop:{cause}' span-status emission; a loss "
                    "counted here is invisible to trace queries — end "
                    "the hop span with DROP_PREFIX + the cause",
                )
            if doc_text is not None and cause not in doc_text and \
                    field not in doc_text:
                yield self.finding_at(
                    model, cls.path, stmt.lineno,
                    f"drop cause '{cause}' ({field}) is not mentioned "
                    f"in {PROTOCOL_DOC}; the spec must enumerate every way a "
                    "packet can die",
                )

    def _emitted_statuses(self, model: ProjectModel) -> Set[str]:
        """Strings that can form a ``drop:<cause>`` span status.

        Collects every ``drop:``-prefixed literal project-wide, plus
        *all* string constants from modules that reference
        ``DROP_PREFIX`` — those modules build statuses by
        concatenation, with the cause carried as a literal argument.
        """
        statuses: Set[str] = set()
        for info in model.modules.values():
            tree = info.ctx.tree
            constants = _string_constants(tree)
            statuses.update(s for s in constants if s.startswith("drop:"))
            if _references_name(tree, "DROP_PREFIX"):
                statuses.update(constants)
        return statuses

    def _protocol_doc_text(self, model: ProjectModel) -> Optional[str]:
        doc = model.root / PROTOCOL_DOC
        try:
            return doc.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return None
