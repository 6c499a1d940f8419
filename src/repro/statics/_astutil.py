"""Shared AST plumbing for the whole-program static analyzer.

Every rule family needs the same few primitives: resolve what dotted
name a call refers to (through ``import``/``from`` aliases), know which
class/function a node sits in, and turn a node into a stable
``(line, col, end_col)`` anchor for diagnostics.  They live here so the
rule modules stay declarative.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "import_table",
    "resolve_call_name",
    "dotted_name",
    "node_anchor",
    "iter_function_defs",
    "owned_attributes",
    "handler_catches",
]


def import_table(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted names they import.

    ``import time`` binds ``time -> time``; ``import numpy as np`` binds
    ``np -> numpy``; ``from os import urandom as rng`` binds
    ``rng -> os.urandom``.  Relative imports keep their leading dots so
    callers can resolve them against the importing module's path.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                table[local] = alias.name if alias.asname else alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return table


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call_name(func: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a call target through the module's import aliases.

    With ``from datetime import datetime``, ``datetime.now()`` resolves
    to ``datetime.datetime.now``; with ``import time``, ``time.time()``
    resolves to ``time.time``.  Unresolvable targets return ``None``.
    """
    raw = dotted_name(func)
    if raw is None:
        return None
    head, _, rest = raw.partition(".")
    resolved_head = imports.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head


def node_anchor(node: ast.AST, lines: List[str]) -> Tuple[int, int, int]:
    """``(line, col, end_col)`` for a node, clamped to its first line.

    Diagnostics underline one physical line; a node spanning several
    lines is anchored at its first line and underlined to that line's
    end, which keeps the caret rendering unambiguous.
    """
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    end_line = getattr(node, "end_lineno", line) or line
    end_col = getattr(node, "end_col_offset", col + 1) or (col + 1)
    if end_line != line:
        text = lines[line - 1] if 0 <= line - 1 < len(lines) else ""
        end_col = len(text.rstrip("\n"))
    return line, col, max(end_col, col + 1)


def iter_function_defs(
    tree: ast.Module,
) -> Iterator[Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef", Optional[str]]]:
    """Yield ``(qualname, node, enclosing_class_name)`` for every def.

    Qualnames are dotted (``Class.method``); nested functions get
    ``outer.<locals>.inner`` so they never collide with module-level
    defs.
    """

    def visit(
        node: ast.AST, prefix: str, class_name: Optional[str]
    ) -> Iterator[Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef", Optional[str]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child, class_name
                yield from visit(child, f"{qualname}.<locals>.", class_name)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.", child.name)

    yield from visit(tree, "", None)


def owned_attributes(class_node: ast.ClassDef) -> Dict[str, ast.AST]:
    """Attributes a class owns: ``self.x`` stores plus class-level fields.

    Returns ``{attr: defining_node}`` (first definition wins, in source
    order).  Dataclass field annotations count — they are how
    ``BrokerStats`` declares its counters.
    """
    owned: Dict[str, ast.AST] = {}
    for stmt in class_node.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                owned.setdefault(target.id, stmt)
    for node in ast.walk(class_node):
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and not target.attr.startswith("__")
        ):
            owned.setdefault(target.attr, node)
    return owned


#: Exception names treated as catch-alls for escape analysis.
_BROAD = frozenset({"Exception", "BaseException"})


def handler_catches(handler: ast.ExceptHandler) -> frozenset:
    """The set of exception names a handler catches; ``'*'`` means all."""
    if handler.type is None:
        return frozenset({"*"})
    names = []
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for type_node in types:
        name = dotted_name(type_node)
        if name is None:
            return frozenset({"*"})  # computed type: assume broad
        tail = name.rsplit(".", 1)[-1]
        names.append("*" if tail in _BROAD else tail)
    return frozenset(names)
