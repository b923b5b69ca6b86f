"""Cross-file flow rules: entropy taint and node isolation.

``entropy-taint``
    No ambient entropy — wall clock, interpreter-global RNG, OS entropy
    — may reach simulation code. The rule reports (a) every source call
    itself, in a function or at module level, and (b) every project
    call site that transitively *reaches* a source over the call graph,
    so a ``time.time()`` laundered through helpers in other modules is
    pinned at each hop. A pragma at the source suppresses only (a): a
    host-profiling helper may justify its own clock read, but its
    callers are still reported, so taint flows through the pragma.
    Half (a) is also the only witness for a source inside a handler
    reached through a dispatch table, which no call site names.

``node-isolation``
    The simulator's race-detector analog. Simulated nodes must interact
    only through the message plane (netsim ``send``); a node method
    that writes attributes through another node's process reference, or
    that mutates module-level shared state, is cross-node coupling no
    seed controls — the same bug class a data race is in a real
    distributed system. Reads stay free (experiments and invariants
    inspect state liberally); *writes* are flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import Finding
from ..project import ProjectModel, _attribute_chain
from . import ProjectRule, register

# ----------------------------------------------------------------------
# entropy-taint
# ----------------------------------------------------------------------

TAINT_RNG = "ambient-rng"
TAINT_OS_ENTROPY = "os-entropy"
TAINT_WALL_CLOCK = "wall-clock"

#: Ambient-entropy sources by dotted origin. Besides these, every
#: ``secrets.*`` call is OS entropy and every ``random.<fn>`` call but
#: the seeded ``random.Random`` constructor uses the global RNG.
#: ``time.perf_counter`` is not a source: host-CPU measurement never
#: feeds simulated behaviour. ``random.SystemRandom`` accepts a seed and
#: ignores it, so it is OS entropy, not a seeded RNG.
SOURCES: Dict[str, str] = {
    **dict.fromkeys(
        (
            "time.time",
            "time.time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        ),
        TAINT_WALL_CLOCK,
    ),
    **dict.fromkeys(
        (
            "os.urandom",
            "os.getrandom",
            "uuid.uuid1",
            "uuid.uuid4",
            "random.SystemRandom",
        ),
        TAINT_OS_ENTROPY,
    ),
}

#: What the rule says about a source, and about a call that reaches one.
SOURCE_MESSAGES = {
    TAINT_WALL_CLOCK: "reads the wall clock; use the simulator's virtual "
                      "now (perf_counter is allowed for host-CPU "
                      "measurements)",
    TAINT_RNG: "uses the interpreter-global RNG; draw from a seeded "
               "random.Random (e.g. sim.rng) instead",
    TAINT_OS_ENTROPY: "reads OS entropy, which no seed can reproduce; "
                      "derive ids/bytes from a seeded random.Random",
}
REMEDIES = {
    TAINT_WALL_CLOCK: "thread the simulator's virtual now instead",
    TAINT_RNG: "thread a seeded random.Random instead",
    TAINT_OS_ENTROPY: "derive bytes/ids from a seeded random.Random instead",
}

#: Chains longer than this are reported truncated (they still flag).
MAX_CHAIN_DISPLAY = 6


def classify_entropy_origin(origin: str) -> Optional[str]:
    """Taint kind of one external call origin, or None when clean."""
    if origin in SOURCES:
        return SOURCES[origin]
    parts = origin.split(".")
    if parts[0] == "secrets":
        return TAINT_OS_ENTROPY
    if parts[0] == "random" and len(parts) == 2 and parts[1] != "Random":
        return TAINT_RNG
    return None


@register
class EntropyTaintRule(ProjectRule):
    id = "entropy-taint"
    summary = (
        "no ambient entropy (wall clock, unseeded RNG, OS entropy): "
        "neither a source call nor a call path reaching one, even through "
        "helpers in other modules"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        for ctx in model.contexts.values():
            yield from self._sources(model, ctx)
        taint = self._propagate(model)
        for fn in model.functions.values():
            for callee, call in fn.project_calls:
                for kind, chain in sorted(taint.get(callee, {}).items()):
                    yield self._taint_finding(
                        model, fn.path, call, kind, (callee,) + chain
                    )

    def _sources(self, model: ProjectModel, ctx) -> Iterator[Finding]:
        """Half (a): every source call in one file, at any nesting."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.resolve_name(node.func)
            kind = classify_entropy_origin(origin) if origin else None
            if kind is not None:
                yield self.finding_at(
                    model, ctx.rel_path, node.lineno,
                    f"{origin}() {SOURCE_MESSAGES[kind]}",
                    col=node.col_offset,
                )

    # ------------------------------------------------------------------
    def _propagate(
        self, model: ProjectModel
    ) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """Fixed point of taint over the call graph.

        ``taint[qname][kind]`` is the shortest known chain from that
        function to a source: ``(callee, ..., origin)``. Direct sources
        seed the map; each iteration extends callers until stable.
        """
        taint: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        for qname, fn in model.functions.items():
            for origin, _call in fn.external_calls:
                kind = classify_entropy_origin(origin)
                if kind is None:
                    continue
                chains = taint.setdefault(qname, {})
                if kind not in chains or len(chains[kind]) > 1:
                    chains[kind] = (f"{origin}()",)
        changed = True
        iterations = 0
        limit = max(4, len(model.functions))
        while changed and iterations < limit:
            changed = False
            iterations += 1
            for qname, fn in model.functions.items():
                chains = taint.setdefault(qname, {})
                for callee, _call in fn.project_calls:
                    if callee == qname:
                        continue
                    for kind, chain in taint.get(callee, {}).items():
                        candidate = (callee,) + chain
                        if kind not in chains or \
                                len(candidate) < len(chains[kind]):
                            chains[kind] = candidate
                            changed = True
        return {q: c for q, c in taint.items() if c}

    def _taint_finding(
        self,
        model: ProjectModel,
        path: str,
        call: ast.Call,
        kind: str,
        chain: Tuple[str, ...],
    ) -> Finding:
        shown = list(chain[:MAX_CHAIN_DISPLAY])
        if len(chain) > MAX_CHAIN_DISPLAY:
            shown.append("...")
        return self.finding_at(
            model,
            path,
            call.lineno,
            f"call launders {kind} through {' -> '.join(shown)}; "
            f"{REMEDIES[kind]}",
            col=call.col_offset,
        )


# ----------------------------------------------------------------------
# node-isolation
# ----------------------------------------------------------------------

#: Root process classes; methods of their subclasses are "node methods".
PROCESS_BASES = ("repro.netsim.process.Process",)

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {"append", "add", "update", "pop", "remove", "discard", "clear",
     "extend", "insert", "setdefault", "popitem", "appendleft",
     "extendleft"}
)


def _store_roots(target: ast.AST) -> Optional[Tuple[str, List[str]]]:
    """``(root_name, chain)`` when the store target is an attribute or
    subscript chain hanging off a Name; None for plain-name stores.

    Subscripts are transparent: ``registry.LIVE[k] = v`` yields
    ``("registry", ["registry", "LIVE"])``.
    """
    node = target
    attrs: List[str] = []
    saw_deref = False
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        saw_deref = True
        if isinstance(node, ast.Attribute):
            attrs.append(node.attr)
        node = node.value
    if not saw_deref or not isinstance(node, ast.Name):
        return None
    return node.id, [node.id] + list(reversed(attrs))


def _collect_bound_names(target: ast.AST, names: Set[str]) -> None:
    """Names a store target *binds*. ``x = ...`` binds ``x``;
    ``x[k] = ...`` and ``x.a = ...`` mutate an existing object and bind
    nothing — their roots must NOT be treated as locals."""
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, ast.Starred):
        _collect_bound_names(target.value, names)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _collect_bound_names(elt, names)


def _local_names(fn_node: ast.AST) -> Set[str]:
    """Names bound inside the function (params, assignments, loops,
    withs, comprehensions) — stores through these are local, not global."""
    names: Set[str] = set()
    args = getattr(fn_node, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            names.add(arg.arg)
    for node in ast.walk(fn_node):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets = [
                item.optional_vars for item in node.items
                if item.optional_vars is not None
            ]
        elif isinstance(node, ast.comprehension):
            targets = [node.target]
        for target in targets:
            _collect_bound_names(target, names)
    return names


def _global_decls(fn_node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


@register
class NodeIsolationRule(ProjectRule):
    id = "node-isolation"
    summary = (
        "node methods must not write through another node's process "
        "reference or mutate module-level state; nodes communicate "
        "only via netsim send"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        process_classes = model.subclasses_of(PROCESS_BASES)
        if not process_classes:
            return
        for fn in model.functions.values():
            if fn.class_qname in process_classes:
                yield from self._check_method(model, fn, process_classes)

    # ------------------------------------------------------------------
    def _check_method(self, model, fn, process_classes) -> Iterator[Finding]:
        foreign = self._foreign_process_names(model, fn, process_classes)
        locals_ = _local_names(fn.node)
        globals_ = _global_decls(fn.node)
        module = model.modules.get(fn.module)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target] if getattr(node, "value", True) \
                    else []
            else:
                if isinstance(node, ast.Call):
                    yield from self._check_mutating_call(
                        model, fn, module, node, foreign, locals_
                    )
                continue
            for target in targets:
                yield from self._check_store(
                    model, fn, module, node, target, foreign, locals_,
                    globals_,
                )

    def _foreign_process_names(
        self, model, fn, process_classes
    ) -> Set[str]:
        """Parameter (and aliased-local) names holding *another* node's
        process: annotated as a process class, excluding ``self``."""
        names: Set[str] = set()
        types = model.local_types(fn)
        for name, class_qname in types.items():
            if name == "self":
                continue
            if class_qname in process_classes:
                names.add(name)
        return names

    def _check_store(
        self, model, fn, module, stmt, target, foreign, locals_, globals_
    ) -> Iterator[Finding]:
        rooted = _store_roots(target)
        if rooted is None:
            # Plain-name store: only a declared global is shared state.
            if isinstance(target, ast.Name) and target.id in globals_:
                yield self.finding_at(
                    model, fn.path, stmt.lineno,
                    f"node method rebinds module-level {target.id!r} via "
                    "'global'; keep per-node state on the process object "
                    "so runs stay seed-isolated",
                    col=stmt.col_offset,
                )
            return
        root, chain = rooted
        if root in foreign:
            dotted = ".".join(chain)
            yield self.finding_at(
                model, fn.path, stmt.lineno,
                f"node method writes {dotted} through another node's "
                "process reference; nodes may only communicate via "
                "netsim send (reads are fine, writes are a simulated "
                "data race)",
                col=stmt.col_offset,
            )
            return
        yield from self._flag_global_mutation(
            model, fn, module, stmt, chain, locals_, "stores into"
        )

    def _check_mutating_call(
        self, model, fn, module, call, foreign, locals_
    ) -> Iterator[Finding]:
        func = call.func
        if not isinstance(func, ast.Attribute) or \
                func.attr not in MUTATING_METHODS:
            return
        chain = _attribute_chain(func)
        if chain is None:
            return
        root = chain[0]
        if root in foreign:
            dotted = ".".join(chain)
            yield self.finding_at(
                model, fn.path, call.lineno,
                f"node method calls {dotted}() — an in-place mutation "
                "through another node's process reference; send a "
                "message instead",
                col=call.col_offset,
            )
            return
        if len(chain) <= 3:  # G.append() / mod.G.update(); deeper
            yield from self._flag_global_mutation(  # chains are object
                model, fn, module, call, chain[:-1], locals_,  # state
                f"mutates in place via .{func.attr}()",
            )

    def _flag_global_mutation(
        self, model, fn, module, node, chain, locals_, verb
    ) -> Iterator[Finding]:
        root = chain[0]
        if root in locals_ or root == "self" or module is None:
            return
        owner: Optional[str] = None
        name = root
        if root in module.mutable_vars:
            owner = module.name
        else:
            resolved = model.resolve_local(module.name, root)
            if resolved is not None and resolved[0] == "var":
                var_module, var_name = resolved[1].rsplit(".", 1)
                info = model.modules.get(var_module)
                if info is not None and var_name in info.mutable_vars:
                    owner = var_module
                    name = var_name
            elif resolved is not None and resolved[0] == "module" and \
                    len(chain) >= 2:
                # module-attribute form: registry.LIVE_NODES[...] = x
                info = model.modules.get(resolved[1])
                if info is not None and chain[1] in info.mutable_vars:
                    owner = resolved[1]
                    name = chain[1]
        if owner is None:
            return
        yield self.finding_at(
            model, fn.path, node.lineno,
            f"node method {verb} module-level mutable {name!r} "
            f"(defined in {owner}); module globals are shared across "
            "every node and every run — keep the state on the process "
            "or pass it through the simulator",
            col=node.col_offset,
        )
