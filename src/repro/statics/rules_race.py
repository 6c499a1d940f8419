"""RACE — shared-state mutation hazards (the m-worker worklist).

ROADMAP item 5 introduces ``m`` dispatcher workers (Gunther's M/M/m
ansatz, arXiv:2008.06823).  Today's single-threaded code freely mutates
broker-wide objects from wherever is convenient; under m workers every
one of those sites is a data race unless it goes through a designated
serialization point.  These rules produce the audited worklist:

* ``RACE001`` — an attribute owned by a shared broker object
  (``Broker``, ``FilterIndex``, ``DispatchMemo``, ``Journal``,
  ``BrokerStats``, ``Ledger`` and ``IngressLedger`` — the shared totals
  and the two conservation ledgers) is mutated through a reference *outside the
  owning class* (``obj.attr = ...`` / ``obj.attr += ...`` where ``obj``
  is not ``self`` in the owner).  Attributes are matched by name; a
  target whose counters no ``self.x = ...`` declares (the ledgers build
  theirs from a fate table) is matched through the attribute that holds
  it (``self.ledger = Ledger(...)`` makes ``q.ledger.acked += 1`` a
  finding).  Mutations funnelled through the owner's methods — the
  serialization points — do not trigger.
* ``RACE002`` — an attribute mutation inside a nested function or
  lambda on an object *captured from the enclosing scope* (callback
  context): under concurrent dispatch the callback runs on whichever
  worker fires it.

Existing sites are grandfathered into ``STATIC_BASELINE.json`` with the
worklist reason; the rules stop *new* unserialized mutation from
landing while the worklist is burned down.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ._astutil import dotted_name, iter_function_defs, owned_attributes
from .engine import PackageIndex, Rule
from .model import Finding, Severity

__all__ = ["rules", "ExternalMutationRule", "CallbackMutationRule", "DEFAULT_TARGETS"]

#: Shared-object classes whose attributes m workers would contend on.
DEFAULT_TARGETS: Tuple[str, ...] = (
    "Broker",
    "FilterIndex",
    "DispatchMemo",
    "Journal",
    "BrokerStats",
    "Ledger",
    "IngressLedger",
    "StandbyReplica",
    "LeaseCoordinator",
    "SimulatedLink",
    "ReplicatedPair",
    "ShardedBroker",
    "MeshMembership",
    "PartitionTable",
    "HashRing",
    "RetryBudget",
    "DeliveryLog",
)


def _mutated_attribute(node: ast.AST) -> Optional[ast.Attribute]:
    """The attribute a statement stores into, if any."""
    target: Optional[ast.expr] = None
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        target = node.target
    return target if isinstance(target, ast.Attribute) else None


class ExternalMutationRule(Rule):
    code = "RACE001"
    severity = Severity.WARNING
    description = "shared-object attribute mutated outside its owning class"

    def __init__(
        self,
        targets: Tuple[str, ...] = DEFAULT_TARGETS,
        serialization_points: Optional[frozenset] = None,
    ):
        self.targets = targets
        #: ``Class.method`` / ``function`` qualnames allowed to mutate
        #: target attributes directly (none yet; item 5 will add the
        #: worker-serialization shims here).
        self.serialization_points = serialization_points or frozenset()

    def run(self, index: PackageIndex) -> Iterable[Finding]:
        owners: Dict[str, str] = {}  # attr -> owning target class
        holders: Dict[str, str] = {}  # attr storing a target instance -> target
        for module in index.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name in self.targets:
                    for attr in owned_attributes(node):
                        if not attr.startswith("_"):
                            owners.setdefault(attr, node.name)
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    made = dotted_name(node.value.func)
                    if made in self.targets:
                        for target in node.targets:
                            if isinstance(target, ast.Attribute):
                                holders.setdefault(target.attr, made)
        if not owners and not holders:
            return
        for module in index.modules:
            enclosing: Dict[int, Tuple[Optional[str], str]] = {}
            for qualname, func, class_name in iter_function_defs(module.tree):
                for child in ast.walk(func):
                    enclosing.setdefault(id(child), (class_name, qualname))
            for node in ast.walk(module.tree):
                attribute = _mutated_attribute(node)
                if attribute is None:
                    continue
                owner = owners.get(attribute.attr)
                if owner is None and isinstance(attribute.value, ast.Attribute):
                    owner = holders.get(attribute.value.attr)
                if owner is None:
                    continue
                if isinstance(attribute.value, ast.Name) and attribute.value.id == "self":
                    continue  # the owner (or a same-named attr's owner) itself
                class_name, qualname = enclosing.get(id(node), (None, "<module>"))
                if class_name == owner:
                    continue
                if qualname.replace(".<locals>.", ".") in self.serialization_points:
                    continue
                holder = dotted_name(attribute.value) or "<expr>"
                yield self.finding(
                    module,
                    node,
                    f"attribute {owner}.{attribute.attr} mutated via "
                    f"{holder!r} outside {owner} — route through an owner "
                    "method (serialization point) before m-worker dispatch",
                )


class CallbackMutationRule(Rule):
    code = "RACE002"
    severity = Severity.WARNING
    description = "attribute mutation on a captured object in callback context"

    def run(self, index: PackageIndex) -> Iterable[Finding]:
        for module in index.modules:
            for qualname, func, _class in iter_function_defs(module.tree):
                if "<locals>" not in qualname:
                    continue  # only nested defs run in callback context
                local_names = self._local_names(func)
                for node in ast.walk(func):
                    if self._in_nested_scope(func, node):
                        continue
                    attribute = _mutated_attribute(node)
                    if attribute is None:
                        continue
                    base = attribute.value
                    while isinstance(base, ast.Attribute):
                        base = base.value
                    if not isinstance(base, ast.Name) or base.id in local_names:
                        continue
                    yield self.finding(
                        module,
                        node,
                        f"callback {func.name}() mutates "
                        f"{dotted_name(attribute.value) or base.id}."
                        f"{attribute.attr} captured from the enclosing scope "
                        "— a worker pool runs callbacks concurrently",
                    )

    @staticmethod
    def _local_names(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> Set[str]:
        names = {arg.arg for arg in func.args.args}
        names.update(arg.arg for arg in func.args.kwonlyargs)
        names.update(arg.arg for arg in func.args.posonlyargs)
        if func.args.vararg:
            names.add(func.args.vararg.arg)
        if func.args.kwarg:
            names.add(func.args.kwarg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
                names.add(node.name)
        return names

    @staticmethod
    def _in_nested_scope(
        func: "ast.FunctionDef | ast.AsyncFunctionDef", node: ast.AST
    ) -> bool:
        """True when ``node`` belongs to a def nested inside ``func``."""
        for child in ast.walk(func):
            if (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                and child is not func
            ):
                for grandchild in ast.walk(child):
                    if grandchild is node:
                        return True
        return False


def rules() -> List[Rule]:
    return [ExternalMutationRule(), CallbackMutationRule()]
