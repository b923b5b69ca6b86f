"""Pass 2: the whole-program model project rules consume.

Pass 1 parses every file into a :class:`~repro.lint.engine.FileContext`;
this module assembles those parses into one :class:`ProjectModel` — a
module symbol table with import bindings chased through re-exports, a
class index with resolved bases and best-effort attribute types, a
function/method index, and a call graph — so rules can answer the
questions no per-file visitor can: *does this custody helper transitively
reach a wall clock?* *is every exported wire message dispatched
somewhere reachable from the resolver's handler?* *does any node method
write state it can only legitimately reach through the message plane?*

Everything here is best-effort static resolution over Python's dynamic
surface. The resolver follows the forms this codebase actually uses
(absolute and relative imports, package ``__init__`` re-exports,
``self.attr = ClassName(...)`` component wiring, annotated parameters)
and returns ``None`` for anything fancier; project rules are written so
an unresolved edge means a *missed* finding, never a false one.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

if TYPE_CHECKING:  # engine imports this module lazily; avoid the cycle
    from .engine import FileContext

#: Symbol kinds a dotted reference can resolve to.
KIND_MODULE = "module"
KIND_CLASS = "class"
KIND_FUNCTION = "function"
KIND_VAR = "var"
KIND_EXTERNAL = "external"

#: Constructor calls / literals whose module-level binding is mutable
#: shared state (what ``node-isolation`` polices).
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)
_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)


def _is_mutable_binding(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None when the root isn't a Name."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    return parts


class FunctionInfo:
    """One module-level function or class method."""

    def __init__(
        self,
        qname: str,
        module: str,
        path: str,
        node: ast.AST,
        class_qname: Optional[str] = None,
    ):
        self.qname = qname
        self.module = module
        self.path = path
        self.node = node
        self.class_qname = class_qname
        #: ``(callee_qname, call_node)`` for calls resolved to project
        #: functions/methods; filled by :meth:`ProjectModel._link_calls`.
        self.project_calls: List[Tuple[str, ast.Call]] = []
        #: ``(dotted_origin, call_node)`` for calls resolved outside the
        #: project (``time.time``, ``random.uniform``, ...).
        self.external_calls: List[Tuple[str, ast.Call]] = []

    @property
    def name(self) -> str:
        return self.qname.rsplit(".", 1)[-1]


class ClassInfo:
    """One class: resolved bases, methods, and component attr types."""

    def __init__(self, qname: str, module: str, path: str, node: ast.ClassDef):
        self.qname = qname
        self.module = module
        self.path = path
        self.node = node
        #: Base expressions as dotted chains, resolved lazily.
        self.base_chains: List[List[str]] = []
        for base in node.bases:
            chain = _attribute_chain(base)
            if chain is not None:
                self.base_chains.append(chain)
        #: method name -> function qname
        self.methods: Dict[str, str] = {}
        #: ``self.<attr>`` -> class qname (from ``self.x = Cls(...)`` in
        #: ``__init__`` and from class-body / ``__init__`` annotations).
        self.attr_types: Dict[str, str] = {}


class ModuleInfo:
    """One parsed module's symbol table."""

    def __init__(self, name: str, ctx: FileContext):
        self.name = name
        self.ctx = ctx
        self.path = ctx.rel_path
        #: local name -> function qname (module level defs only)
        self.functions: Dict[str, str] = {}
        #: local name -> class qname
        self.classes: Dict[str, str] = {}
        #: module-level variable name -> binding line
        self.variables: Dict[str, int] = {}
        #: module-level names bound to mutable containers
        self.mutable_vars: Set[str] = set()
        #: local name -> (base_module, original_name or None).
        #: ``None`` original means the binding IS the module ``base``.
        self.import_bindings: Dict[str, Tuple[str, Optional[str]]] = {}
        #: ``__all__`` entries as ``(name, lineno)`` when statically a
        #: list/tuple of string constants.
        self.exports: List[Tuple[str, int]] = []


class ProjectModel:
    """The whole-program view assembled from every parsed file."""

    def __init__(
        self,
        contexts: Sequence[FileContext],
        root: Optional[Path] = None,
    ):
        self.root = Path(root) if root is not None else Path.cwd()
        self.contexts: Dict[str, FileContext] = {}
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for ctx in contexts:
            self._index_file(ctx)
        for info in self.functions.values():
            self._link_calls(info)

    # ------------------------------------------------------------------
    # Pass 2a: per-file indexing
    # ------------------------------------------------------------------
    def module_name_for(self, ctx: FileContext) -> str:
        """``repro.*`` dotted name, or a path-derived pseudo-module for
        files outside the package (tests, benchmarks, examples)."""
        if ctx.module:
            return ctx.module
        rel = ctx.rel_path
        if rel.endswith(".py"):
            rel = rel[: -len(".py")]
        parts = [p for p in rel.replace("\\", "/").split("/") if p]
        if parts and parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts) or "<anonymous>"

    def _index_file(self, ctx: FileContext) -> None:
        name = self.module_name_for(ctx)
        info = ModuleInfo(name, ctx)
        self.contexts[ctx.rel_path] = ctx
        self.modules[name] = info
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{name}.{node.name}"
                info.functions[node.name] = qname
                self.functions[qname] = FunctionInfo(
                    qname, name, ctx.rel_path, node
                )
            elif isinstance(node, ast.ClassDef):
                self._index_class(info, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._index_variable(info, target.id, node)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self._index_variable(info, node.target.id, node)
        self._index_module_imports(info)

    def _index_variable(self, info: ModuleInfo, name: str, node: ast.stmt) -> None:
        info.variables[name] = node.lineno
        value = getattr(node, "value", None)
        if name == "__all__":
            if isinstance(value, (ast.List, ast.Tuple)):
                info.exports = [
                    (elt.value, elt.lineno)
                    for elt in value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                ]
            return
        if value is not None and _is_mutable_binding(value):
            info.mutable_vars.add(name)

    def _index_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{info.name}.{node.name}"
        cls = ClassInfo(qname, info.name, info.ctx.rel_path, node)
        info.classes[node.name] = qname
        self.classes[qname] = cls
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qname = f"{qname}.{stmt.name}"
                cls.methods[stmt.name] = method_qname
                self.functions[method_qname] = FunctionInfo(
                    method_qname, info.name, info.ctx.rel_path, stmt,
                    class_qname=qname,
                )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                chain = _attribute_chain(stmt.annotation) \
                    if stmt.annotation is not None else None
                if chain:
                    cls.attr_types[stmt.target.id] = ".".join(chain)

    def _index_module_imports(self, info: ModuleInfo) -> None:
        """Absolutized import bindings — unlike ``FileContext``'s table
        this resolves *relative* imports, which is what package
        ``__init__`` re-exports are written with."""
        ctx = info.ctx
        module_parts = info.name.split(".")
        is_package = ctx.path.name == "__init__.py"
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        info.import_bindings[alias.asname] = (alias.name, None)
                    else:
                        top = alias.name.split(".")[0]
                        info.import_bindings[top] = (top, None)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    base = node.module
                else:
                    climb = node.level - 1 if is_package else node.level
                    if climb > len(module_parts):
                        continue
                    kept = module_parts[: len(module_parts) - climb] \
                        if climb else module_parts
                    if not kept:
                        continue
                    base = ".".join(kept)
                    if node.module:
                        base = f"{base}.{node.module}"
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    info.import_bindings[bound] = (base, alias.name)

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------
    def resolve_local(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Tuple[str, str]]:
        """Resolve one local name in ``module`` to ``(kind, qname)``,
        chasing re-export chains through package ``__init__`` files."""
        info = self.modules.get(module)
        if info is None:
            return None
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return None  # import cycle in a re-export chain
        seen.add((module, name))
        if name in info.functions:
            return (KIND_FUNCTION, info.functions[name])
        if name in info.classes:
            return (KIND_CLASS, info.classes[name])
        if name in info.import_bindings:
            base, original = info.import_bindings[name]
            if original is None:
                if base in self.modules:
                    return (KIND_MODULE, base)
                return (KIND_EXTERNAL, base)
            if base in self.modules:
                resolved = self.resolve_local(base, original, seen)
                if resolved is not None:
                    return resolved
                submodule = f"{base}.{original}"
                if submodule in self.modules:
                    return (KIND_MODULE, submodule)
                return None  # project module, but the symbol is dynamic
            return (KIND_EXTERNAL, f"{base}.{original}")
        if name in info.variables:
            return (KIND_VAR, f"{module}.{name}")
        return None

    def resolve_dotted(
        self, module: str, parts: Sequence[str]
    ) -> Optional[Tuple[str, str]]:
        """Resolve a dotted chain (``mod.Cls.method``) from ``module``."""
        if not parts:
            return None
        current = self.resolve_local(module, parts[0])
        if current is None:
            return None
        for part in parts[1:]:
            kind, target = current
            if kind == KIND_MODULE:
                nxt = self.resolve_local(target, part)
                if nxt is None:
                    submodule = f"{target}.{part}"
                    if submodule in self.modules:
                        nxt = (KIND_MODULE, submodule)
                    else:
                        return None
                current = nxt
            elif kind == KIND_CLASS:
                method = self.lookup_method(target, part)
                if method is None:
                    return None
                current = (KIND_FUNCTION, method)
            elif kind == KIND_EXTERNAL:
                current = (KIND_EXTERNAL, f"{target}.{part}")
            else:
                return None
        return current

    def resolve_annotation(
        self, module: str, annotation: Optional[ast.AST]
    ) -> Optional[str]:
        """Class qname named by an annotation (handles string forms)."""
        if annotation is None:
            return None
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split("[", 1)[0].strip().split(".")
            parts = [p for p in (part.strip() for part in parts) if p]
        else:
            chain = _attribute_chain(node)
            if chain is None:
                return None
            parts = chain
        resolved = self.resolve_dotted(module, parts)
        if resolved is None and len(parts) == 1:
            # A bare string annotation may name a class in this module
            # without a local binding (forward reference) — already
            # covered — or fail entirely; give up quietly.
            return None
        if resolved is not None and resolved[0] == KIND_CLASS:
            return resolved[1]
        return None

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------
    def base_qnames(self, class_qname: str) -> List[str]:
        cls = self.classes.get(class_qname)
        if cls is None:
            return []
        resolved: List[str] = []
        for chain in cls.base_chains:
            base = self.resolve_dotted(cls.module, chain)
            if base is not None and base[0] == KIND_CLASS:
                resolved.append(base[1])
        return resolved

    def subclasses_of(self, base_qnames: Iterable[str]) -> Set[str]:
        """Every project class transitively deriving from the bases
        (the bases themselves included when they exist in the model)."""
        bases = set(base_qnames)
        result = {q for q in bases if q in self.classes}
        changed = True
        while changed:
            changed = False
            for qname in self.classes:
                if qname in result:
                    continue
                if any(
                    b in result or b in bases
                    for b in self.base_qnames(qname)
                ):
                    result.add(qname)
                    changed = True
        return result

    def lookup_method(self, class_qname: str, name: str) -> Optional[str]:
        """Method qname on the class or its nearest ancestor."""
        stack = [class_qname]
        seen: Set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            stack.extend(self.base_qnames(current))
        return None

    def attr_type(self, class_qname: str, attr: str) -> Optional[str]:
        """Class qname of ``self.<attr>``, walking the base chain."""
        stack = [class_qname]
        seen: Set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            dotted = cls.attr_types.get(attr)
            if dotted is not None:
                # ``_harvest_attr_types`` stores fully-resolved qnames;
                # class-body annotations store local dotted chains.
                if dotted in self.classes:
                    return dotted
                resolved = self.resolve_dotted(cls.module, dotted.split("."))
                if resolved is not None and resolved[0] == KIND_CLASS:
                    return resolved[1]
                return None
            stack.extend(self.base_qnames(current))
        return None

    # ------------------------------------------------------------------
    # Pass 2b: call-graph linking
    # ------------------------------------------------------------------
    def _link_calls(self, fn: FunctionInfo) -> None:
        if fn.class_qname is not None and fn.name == "__init__":
            self._harvest_attr_types(fn)
        local_types = self.local_types(fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self._resolve_call(fn, node, local_types)
            if resolved is None:
                continue
            kind, target = resolved
            if kind == KIND_EXTERNAL:
                fn.external_calls.append((target, node))
            elif kind == KIND_FUNCTION:
                fn.project_calls.append((target, node))
            elif kind == KIND_CLASS:
                init = self.lookup_method(target, "__init__")
                if init is not None:
                    fn.project_calls.append((init, node))

    def _harvest_attr_types(self, init_fn: FunctionInfo) -> None:
        """``self.x = ClassName(...)`` in ``__init__`` wires components;
        record the attr's class so ``self.x.method()`` calls resolve."""
        cls = self.classes[init_fn.class_qname]
        for node in ast.walk(init_fn.node):
            value_cls: Optional[str] = None
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
                ann = self.resolve_annotation(cls.module, node.annotation)
                if ann is not None:
                    value_cls = ann
            else:
                continue
            if value_cls is None and isinstance(value, ast.Call):
                chain = _attribute_chain(value.func)
                if chain:
                    resolved = self.resolve_dotted(cls.module, chain)
                    if resolved is not None and resolved[0] == KIND_CLASS:
                        value_cls = resolved[1]
            if value_cls is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in cls.attr_types
                ):
                    cls.attr_types[target.attr] = value_cls

    def local_types(self, fn: "FunctionInfo") -> Dict[str, str]:
        """Names in the function known to hold project-class instances:
        annotated parameters and ``x = ClassName(...)`` locals."""
        types: Dict[str, str] = {}
        args = getattr(fn.node, "args", None)
        if args is not None:
            every = (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
            for arg in every:
                resolved = self.resolve_annotation(fn.module, arg.annotation)
                if resolved is not None:
                    types[arg.arg] = resolved
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                chain = _attribute_chain(node.value.func)
                if not chain:
                    continue
                resolved = self.resolve_dotted(fn.module, chain)
                if resolved is None or resolved[0] != KIND_CLASS:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        types[target.id] = resolved[1]
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Name
            ):
                # Alias of an already-typed name (e.g. a parameter).
                source = types.get(node.value.id)
                if source is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = source
        return types

    def _resolve_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        local_types: Dict[str, str],
    ) -> Optional[Tuple[str, str]]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in local_types:
                return None  # calling an instance — not resolvable
            return self.resolve_local(fn.module, func.id)
        chain = _attribute_chain(func)
        if chain is None:
            return None
        root = chain[0]
        if root == "self" and fn.class_qname is not None:
            if len(chain) == 2:
                method = self.lookup_method(fn.class_qname, chain[1])
                return (KIND_FUNCTION, method) if method else None
            if len(chain) == 3:
                attr_cls = self.attr_type(fn.class_qname, chain[1])
                if attr_cls is None:
                    return None
                method = self.lookup_method(attr_cls, chain[2])
                return (KIND_FUNCTION, method) if method else None
            return None
        if root in local_types and len(chain) == 2:
            method = self.lookup_method(local_types[root], chain[1])
            return (KIND_FUNCTION, method) if method else None
        return self.resolve_dotted(fn.module, chain)

    # ------------------------------------------------------------------
    # Conveniences for rules
    # ------------------------------------------------------------------
    def callees(self, qname: str) -> List[Tuple[str, ast.Call]]:
        fn = self.functions.get(qname)
        return list(fn.project_calls) if fn is not None else []

    def reachable_from(self, entries: Iterable[str], max_depth: int = 8) -> Set[str]:
        """Function qnames reachable from the entry points via the
        project call graph (entries included when they exist)."""
        frontier = [q for q in entries if q in self.functions]
        seen: Set[str] = set(frontier)
        for _ in range(max_depth):
            nxt: List[str] = []
            for qname in frontier:
                for callee, _node in self.callees(qname):
                    if callee not in seen and callee in self.functions:
                        seen.add(callee)
                        nxt.append(callee)
            if not nxt:
                break
            frontier = nxt
        return seen

    def source_line(self, rel_path: str, lineno: int) -> str:
        ctx = self.contexts.get(rel_path)
        return ctx.source_line(lineno) if ctx is not None else ""
