"""SIM — bit-determinism rules for the simulation package.

The DES reproduces paper figures from a seed: the only admissible
sources of time are the engine's virtual clock and the only admissible
randomness is :class:`repro.rng.RandomStreams`.  Anything
that smuggles wall-clock time, process entropy or environment state
into ``src/repro`` breaks replayability — the same seed must give the
same history, byte for byte.

* ``SIM001`` — wall-clock reads (``time.time``, ``datetime.now``, ...).
* ``SIM002`` — unseeded/global entropy (module-level ``random.*``,
  ``os.urandom``, ``uuid.uuid4``, ``secrets``).
* ``SIM003`` — iteration over a ``set``/``frozenset``/``os.environ``:
  order depends on the per-process hash seed, not the program.
* ``SIM004`` — environment-variable reads: behavior keyed on ``os.environ``
  is invisible to the seed.  Deliberate feature gates carry an inline
  ``# repro: ignore[SIM004]`` with their justification.

``tools/`` and ``tests/`` are exempt by construction: the engine only
scans the package roots it is given (``src/repro``).
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ._astutil import import_table, resolve_call_name
from .engine import ModuleSource, PackageIndex, Rule
from .model import Finding, Severity

__all__ = ["rules", "WallClockRule", "EntropyRule", "SetIterationRule", "EnvReadRule"]

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Global-entropy callables; ``random.Random(seed)`` / ``SystemRandom``
#: construction is not listed — constructing a *seeded* generator is the
#: sanctioned pattern, using the module-level functions is not.
_ENTROPY_EXEMPT = frozenset({"random.Random", "random.SystemRandom"})
_ENTROPY_EXACT = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})
_ENTROPY_PREFIXES = ("random.", "secrets.")


class _CallScanRule(Rule):
    """Base for rules that classify resolved call targets."""

    def run(self, index: PackageIndex) -> Iterable[Finding]:
        for module in index.modules:
            imports = import_table(module.tree)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    resolved = resolve_call_name(node.func, imports)
                    if resolved is not None:
                        yield from self.classify(module, node, resolved)

    def classify(
        self, module: ModuleSource, node: ast.Call, resolved: str
    ) -> Iterable[Finding]:
        raise NotImplementedError


class WallClockRule(_CallScanRule):
    code = "SIM001"
    severity = Severity.ERROR
    description = "wall-clock read inside the simulation package"

    def classify(
        self, module: ModuleSource, node: ast.Call, resolved: str
    ) -> Iterable[Finding]:
        if resolved in _WALL_CLOCK:
            yield self.finding(
                module,
                node,
                f"wall-clock call {resolved}() — the simulation must use "
                "virtual time (engine.now), never host time",
            )


class EntropyRule(_CallScanRule):
    code = "SIM002"
    severity = Severity.ERROR
    description = "unseeded or global entropy source"

    def classify(
        self, module: ModuleSource, node: ast.Call, resolved: str
    ) -> Iterable[Finding]:
        if resolved in _ENTROPY_EXEMPT:
            return
        if resolved in _ENTROPY_EXACT or resolved.startswith(_ENTROPY_PREFIXES):
            yield self.finding(
                module,
                node,
                f"nondeterministic entropy {resolved}() — draw from a seeded "
                "RandomStreams stream instead of process-global randomness",
            )


class SetIterationRule(Rule):
    code = "SIM003"
    severity = Severity.WARNING
    description = "iteration order depends on the hash seed"

    def run(self, index: PackageIndex) -> Iterable[Finding]:
        for module in index.modules:
            for node in ast.walk(module.tree):
                iters: List[ast.expr] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters = [node.iter]
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    iters = [gen.iter for gen in node.generators]
                for candidate in iters:
                    reason = _unordered_iterable(candidate)
                    if reason is not None:
                        yield self.finding(
                            module,
                            candidate,
                            f"iterating over {reason}: order varies with "
                            "PYTHONHASHSEED — sort first, or iterate a list/dict",
                        )


def _unordered_iterable(node: ast.expr) -> "str | None":
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return f"{node.func.id}(...)"
    from ._astutil import dotted_name

    if dotted_name(node) == "os.environ":
        return "os.environ"
    return None


class EnvReadRule(Rule):
    code = "SIM004"
    severity = Severity.WARNING
    description = "environment-dependent behavior"

    def run(self, index: PackageIndex) -> Iterable[Finding]:
        from ._astutil import dotted_name

        for module in index.modules:
            imports = import_table(module.tree)
            for node in ast.walk(module.tree):
                resolved = None
                if isinstance(node, ast.Call):
                    name = resolve_call_name(node.func, imports)
                    if name in ("os.getenv", "os.environ.get"):
                        resolved = name
                elif isinstance(node, ast.Subscript):
                    raw = dotted_name(node.value)
                    if raw is not None:
                        head, _, rest = raw.partition(".")
                        if f"{imports.get(head, head)}{'.' + rest if rest else ''}" == "os.environ":
                            resolved = "os.environ[...]"
                if resolved is not None:
                    yield self.finding(
                        module,
                        node,
                        f"environment read {resolved} — behavior keyed on the "
                        "environment is invisible to the seed; gate explicitly "
                        "and justify with an inline ignore",
                    )


def rules() -> List[Rule]:
    return [WallClockRule(), EntropyRule(), SetIterationRule(), EnvReadRule()]
