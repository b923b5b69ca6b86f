"""Determinism rule ``no-unsorted-iteration``.

Every figure in the reproduction and the chaos harness's
same-seed-same-run guarantee depend on one property: a simulation run
is a pure function of its seed. Iterating a ``set`` observes hash
order, which varies across processes (``PYTHONHASHSEED``) and with
object identity. When loop order feeds the event scheduler, packet
emission, or serialization, that is silent nondeterminism.
Order-sensitive iteration over sets (``for`` loops, ``list``/``tuple``
conversions, list/dict comprehensions, ``join``) must go through
``sorted(...)``; order-insensitive folds (``sum``, ``len``, ``any``,
set algebra) remain free. Ambient entropy — the other half of the
contract — is ``entropy-taint``'s (``flow.py``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..engine import FileContext, Finding
from . import Rule, register

#: Annotation heads that mark a name as set-typed.
SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
)

#: Methods on a set that produce another set.
SET_PRODUCING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Builtins that materialize iteration order into a sequence.
ORDER_SENSITIVE_CONVERTERS = frozenset({"list", "tuple"})


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    head = annotation
    if isinstance(head, ast.Subscript):
        head = head.value
    if isinstance(head, ast.Attribute):
        return head.attr in SET_ANNOTATIONS
    if isinstance(head, ast.Name):
        return head.id in SET_ANNOTATIONS
    if isinstance(head, ast.Constant) and isinstance(head.value, str):
        # String annotation, e.g. ``"Set[NameRecord]"``.
        stripped = head.value.split("[", 1)[0].strip().rsplit(".", 1)[-1]
        return stripped in SET_ANNOTATIONS
    return False


class _SetTracker:
    """File-local inference of which expressions are sets.

    Purely syntactic and intraprocedural: set literals/comprehensions,
    ``set()``/``frozenset()`` calls, set algebra, set-producing methods,
    names assigned or annotated as sets in the enclosing scope, and
    attributes a class in this file declares as sets.
    """

    def __init__(self, ctx: FileContext):
        self.set_attrs: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AnnAssign) and \
                    _annotation_is_set(node.annotation):
                if isinstance(node.target, ast.Attribute):
                    self.set_attrs.add(node.target.attr)
            elif isinstance(node, ast.Assign):
                if self._is_set_literalish(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Attribute):
                            self.set_attrs.add(target.attr)

    @staticmethod
    def _is_set_literalish(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"}
        )

    def scope_sets(self, scope: ast.AST) -> Set[str]:
        """Names bound to sets within one function/module scope."""
        names: Set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                if _annotation_is_set(arg.annotation):
                    names.add(arg.arg)
        # Two passes so ``a = set(); b = a | other`` resolves ``b``.
        for _ in range(2):
            for node in _scope_nodes(scope):
                if isinstance(node, ast.Assign) and \
                        self.is_set_expr(node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif isinstance(node, ast.AnnAssign) and \
                        isinstance(node.target, ast.Name) and \
                        _annotation_is_set(node.annotation):
                    names.add(node.target.id)
                elif isinstance(node, ast.AugAssign) and \
                        isinstance(node.target, ast.Name) and \
                        self.is_set_expr(node.value, names):
                    names.add(node.target.id)
        return names

    def is_set_expr(self, node: ast.AST, scope_sets: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in scope_sets
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left, scope_sets) or \
                self.is_set_expr(node.right, scope_sets)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and \
                    func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute) and \
                    func.attr in SET_PRODUCING_METHODS:
                return self.is_set_expr(func.value, scope_sets)
        if isinstance(node, ast.IfExp):
            return self.is_set_expr(node.body, scope_sets) or \
                self.is_set_expr(node.orelse, scope_sets)
        return False


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope's statements without entering nested scopes."""
    body = scope.body if hasattr(scope, "body") else []
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                   ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register
class UnsortedIterationRule(Rule):
    id = "no-unsorted-iteration"
    summary = (
        "order-sensitive iteration over a set observes hash order; "
        "wrap the iterable in sorted(...)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tracker = _SetTracker(ctx)
        for scope in _scopes(ctx.tree):
            scope_sets = tracker.scope_sets(scope)
            for node in _scope_nodes(scope):
                yield from self._check_node(ctx, tracker, scope_sets, node)

    def _check_node(
        self,
        ctx: FileContext,
        tracker: _SetTracker,
        scope_sets: Set[str],
        node: ast.AST,
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if tracker.is_set_expr(node.iter, scope_sets):
                yield self.finding(
                    ctx,
                    node.iter,
                    "for-loop over a set observes hash order (varies "
                    "with PYTHONHASHSEED/object identity); iterate "
                    "sorted(...) so scheduling and emission order are "
                    "reproducible",
                )
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            for generator in node.generators:
                if tracker.is_set_expr(generator.iter, scope_sets):
                    yield self.finding(
                        ctx,
                        generator.iter,
                        "comprehension builds an ordered result from a "
                        "set's hash order; iterate sorted(...)",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            converter = None
            if isinstance(func, ast.Name) and \
                    func.id in ORDER_SENSITIVE_CONVERTERS:
                converter = func.id
            elif isinstance(func, ast.Attribute) and func.attr == "join":
                converter = "join"
            if converter and node.args and \
                    tracker.is_set_expr(node.args[0], scope_sets):
                yield self.finding(
                    ctx,
                    node,
                    f"{converter}(...) materializes a set's hash order "
                    "into a sequence; use sorted(...) instead",
                )
