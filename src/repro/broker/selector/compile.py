"""Selector compilation: lower ASTs to specialized Python functions.

The tree-walking evaluator (:mod:`repro.broker.selector.evaluator`) pays
an ``isinstance`` dispatch chain and a Python-level recursion per AST
node *per message*.  This module pays those costs **once per selector**
instead: the AST is lowered to straight-line Python source — identifier
loads hoisted into locals, SQL-92 three-valued logic inlined with
short-circuiting, LIKE patterns pre-compiled to anchored regexes, IN
lists frozen into sets — and ``compile()``-d into a single code object.
Evaluating a message is then one function call.

A topic's dispatch plan needs the verdict of *every* installed filter,
so :func:`compile_scan` takes the same lowering one level up: a run of
filters becomes one generated function per block of :data:`SCAN_BLOCK`,
which loads every referenced property once per block and carries each
selector's straight-line body inline (see :class:`ScanKernel`).

Semantics are *exactly* the evaluator's (the hypothesis equivalence
suite in ``tests/broker/test_selector_compile.py`` proves it on
randomized ASTs and messages): ``None`` represents SQL NULL/UNKNOWN
inside the generated code and is mapped back to
:data:`~repro.broker.selector.evaluator.UNKNOWN` at the API boundary.

The interpreter remains available as a fallback: set the environment
variable ``REPRO_SELECTOR_COMPILE=0`` before import, or call
:func:`set_compilation` at runtime, and every subsequently-built matcher
walks the tree again.
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from ..errors import InvalidSelectorError
from .ast import (
    Between,
    Binary,
    Expr,
    Identifier,
    InList,
    IsNull,
    Like,
    Literal,
    Unary,
    iter_identifiers,
)
from .evaluator import UNKNOWN, _like_regex  # noqa: F401 - re-exported for tests

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..message import Message

__all__ = [
    "SCAN_BLOCK",
    "CompiledSelector",
    "ScanKernel",
    "compile_ast",
    "compile_scan",
    "compiled_for_ast",
    "compilation_enabled",
    "set_compilation",
]

#: JMS header fields a selector identifier may name.  These never collide
#: with application properties (property names may not use the ``JMS``
#: prefix), so the generated prologue can route them through
#: ``message.header`` and everything else through ``message.properties``.
_HEADER_NAMES = frozenset(
    {
        "JMSMessageID",
        "JMSCorrelationID",
        "JMSPriority",
        "JMSTimestamp",
        "JMSDeliveryMode",
        "JMSDestination",
        "JMSRedelivered",
    }
)

_COMPARISON_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ORDERING_OPS = frozenset({"<", "<=", ">", ">="})

# Opt-out escape hatch only: flipping it changes *speed*, never results
# (check_static's equivalence smoke enforces exactly that).
_enabled = os.environ.get("REPRO_SELECTOR_COMPILE", "1") != "0"  # repro: ignore[SIM004]


def compilation_enabled() -> bool:
    """Is the compiled hot path active for newly-built matchers?"""
    return _enabled


def set_compilation(enabled: bool) -> bool:
    """Toggle selector compilation; returns the previous setting.

    Only affects matchers built *after* the call — a
    :class:`~repro.broker.selector.Selector` caches the matcher it built
    first.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


class CompiledSelector:
    """A selector lowered to a single generated function.

    Attributes
    ----------
    fn:
        The raw generated closure; returns ``True``/``False``/``None``
        (``None`` encodes SQL UNKNOWN) or a number/string for
        non-condition expressions.
    matches:
        ``Callable[[message], bool]`` — the hot-path predicate.
    source:
        The generated Python source (debugging/teaching aid).
    ast:
        The expression that was compiled.
    """

    __slots__ = ("fn", "matches", "source", "ast")

    def __init__(self, fn: Callable[[Any], Any], source: str, ast: Expr):
        self.fn = fn
        self.source = source
        self.ast = ast

        def matches(message: Any, _fn: Callable[[Any], Any] = fn) -> bool:
            return _fn(message) is True

        self.matches = matches

    def evaluate(self, message: Any) -> Any:
        """Three-valued result, API-compatible with the interpreter."""
        result = self.fn(message)
        return UNKNOWN if result is None else result

    def __call__(self, message: Any) -> bool:
        return self.fn(message) is True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSelector({str(self.ast)!r})"


class _CodeGen:
    """Accumulates generated statements and shared constants."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.consts: Dict[str, object] = {}
        self.ident_vars: Dict[str, str] = {}
        self._tmp = 0

    def temp(self) -> str:
        self._tmp += 1
        return f"t{self._tmp}"

    def const(self, value: object) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)


def _atom(value: object) -> str:
    """Literal constants as source text (repr round-trips all JMS types)."""
    if value is True:
        return "True"
    if value is False:
        return "False"
    return repr(value)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _num_check(expr: str) -> str:
    """Source for the evaluator's ``_is_number`` test (bool excluded)."""
    return f"(isinstance({expr}, _num) and not isinstance({expr}, bool))"


def _bool_check(expr: str) -> str:
    return f"({expr} is True or {expr} is False)"


_NOT_CONST = object()


def _compile_node(gen: _CodeGen, expr: Expr, depth: int) -> Tuple[str, object]:
    """Emit statements computing ``expr``; return ``(atom, const_value)``.

    ``atom`` is a variable name or literal source text holding the
    three-valued result (``None`` = UNKNOWN).  ``const_value`` is the
    compile-time value for :class:`Literal` nodes (else ``_NOT_CONST``),
    which lets comparisons constant-fold the literal side's type checks.
    """
    if isinstance(expr, Literal):
        return _atom(expr.value), expr.value
    if isinstance(expr, Identifier):
        return gen.ident_vars[expr.name], _NOT_CONST
    if isinstance(expr, Unary):
        return _compile_unary(gen, expr, depth)
    if isinstance(expr, Binary):
        return _compile_binary(gen, expr, depth)
    if isinstance(expr, Between):
        return _compile_between(gen, expr, depth)
    if isinstance(expr, InList):
        return _compile_in(gen, expr, depth)
    if isinstance(expr, Like):
        return _compile_like(gen, expr, depth)
    if isinstance(expr, IsNull):
        return _compile_is_null(gen, expr, depth)
    raise InvalidSelectorError(f"cannot compile AST node {type(expr).__name__}")


def _compile_unary(gen: _CodeGen, expr: Unary, depth: int) -> Tuple[str, object]:
    value, _ = _compile_node(gen, expr.operand, depth)
    out = gen.temp()
    if expr.op == "NOT":
        gen.emit(depth, f"{out} = (not {value}) if {_bool_check(value)} else None")
    elif expr.op == "+":
        gen.emit(depth, f"{out} = {value} if {_num_check(value)} else None")
    else:  # unary minus
        gen.emit(depth, f"{out} = (-{value}) if {_num_check(value)} else None")
    return out, _NOT_CONST


def _compile_binary(gen: _CodeGen, expr: Binary, depth: int) -> Tuple[str, object]:
    if expr.op == "AND":
        return _compile_and(gen, expr, depth)
    if expr.op == "OR":
        return _compile_or(gen, expr, depth)
    left, left_const = _compile_node(gen, expr.left, depth)
    right, right_const = _compile_node(gen, expr.right, depth)
    if expr.op in ("+", "-", "*", "/"):
        return _compile_arith(gen, expr.op, left, right, depth)
    return _compile_comparison(gen, expr.op, left, left_const, right, right_const, depth)


def _compile_and(gen: _CodeGen, expr: Binary, depth: int) -> Tuple[str, object]:
    out = gen.temp()
    left, _ = _compile_node(gen, expr.left, depth)
    # Kleene AND with short-circuit: False dominates, so the right-hand
    # side is skipped entirely when the left is False (sub-expressions
    # are pure, so skipping them cannot change the result).
    gen.emit(depth, f"if {left} is False:")
    gen.emit(depth + 1, f"{out} = False")
    gen.emit(depth, "else:")
    right, _ = _compile_node(gen, expr.right, depth + 1)
    gen.emit(depth + 1, f"if {right} is False:")
    gen.emit(depth + 2, f"{out} = False")
    gen.emit(depth + 1, f"elif {left} is None or {right} is None:")
    gen.emit(depth + 2, f"{out} = None")
    gen.emit(depth + 1, f"elif {left} is True:")
    gen.emit(depth + 2, f"{out} = True if {right} is True else None")
    gen.emit(depth + 1, "else:")
    gen.emit(depth + 2, f"{out} = None")  # non-boolean operand
    return out, _NOT_CONST


def _compile_or(gen: _CodeGen, expr: Binary, depth: int) -> Tuple[str, object]:
    out = gen.temp()
    left, _ = _compile_node(gen, expr.left, depth)
    gen.emit(depth, f"if {left} is True:")
    gen.emit(depth + 1, f"{out} = True")
    gen.emit(depth, "else:")
    right, _ = _compile_node(gen, expr.right, depth + 1)
    gen.emit(depth + 1, f"if {right} is True:")
    gen.emit(depth + 2, f"{out} = True")
    gen.emit(depth + 1, f"elif {left} is None or {right} is None:")
    gen.emit(depth + 2, f"{out} = None")
    gen.emit(depth + 1, f"elif {left} is False:")
    gen.emit(depth + 2, f"{out} = False if {right} is False else None")
    gen.emit(depth + 1, "else:")
    gen.emit(depth + 2, f"{out} = None")  # non-boolean operand
    return out, _NOT_CONST


def _compile_arith(
    gen: _CodeGen, op: str, left: str, right: str, depth: int
) -> Tuple[str, object]:
    out = gen.temp()
    guard = f"{_num_check(left)} and {_num_check(right)}"
    if op == "/":
        # SQL: division by zero poisons the predicate; exact integer
        # division stays an int when it divides evenly.
        gen.emit(depth, f"if {guard} and {right} != 0:")
        gen.emit(
            depth + 1,
            f"{out} = ({left} // {right}) if (isinstance({left}, int)"
            f" and isinstance({right}, int) and {left} % {right} == 0)"
            f" else ({left} / {right})",
        )
        gen.emit(depth, "else:")
        gen.emit(depth + 1, f"{out} = None")
    else:
        gen.emit(depth, f"if {guard}:")
        gen.emit(depth + 1, f"{out} = {left} {op} {right}")
        gen.emit(depth, "else:")
        gen.emit(depth + 1, f"{out} = None")
    return out, _NOT_CONST


def _compile_comparison(
    gen: _CodeGen,
    op: str,
    left: str,
    left_const: object,
    right: str,
    right_const: object,
    depth: int,
) -> Tuple[str, object]:
    # Normalise so a literal (if any) sits on the right; ordering ops flip.
    if left_const is not _NOT_CONST and right_const is _NOT_CONST:
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
        op = flip[op]
        left, right = right, left
        left_const, right_const = right_const, left_const
    pyop = _COMPARISON_OPS[op]
    out = gen.temp()
    if right_const is not _NOT_CONST:
        value = right_const
        if op in _ORDERING_OPS:
            if _is_number(value):
                gen.emit(
                    depth,
                    f"{out} = ({left} {pyop} {right}) if {_num_check(left)} else None",
                )
            else:
                # Ordering against a string/boolean constant is UNKNOWN
                # for every possible operand type.
                gen.emit(depth, f"{out} = None")
        elif _is_number(value):
            gen.emit(
                depth, f"{out} = ({left} {pyop} {right}) if {_num_check(left)} else None"
            )
        elif isinstance(value, bool):
            gen.emit(
                depth, f"{out} = ({left} {pyop} {right}) if {_bool_check(left)} else None"
            )
        else:  # string constant
            gen.emit(
                depth,
                f"{out} = ({left} {pyop} {right}) if isinstance({left}, str) else None",
            )
        return out, _NOT_CONST
    # Generic path: mirror the evaluator's _compare chain exactly.
    gen.emit(depth, f"if {left} is None or {right} is None:")
    gen.emit(depth + 1, f"{out} = None")
    gen.emit(depth, f"elif {_num_check(left)}:")
    gen.emit(depth + 1, f"{out} = ({left} {pyop} {right}) if {_num_check(right)} else None")
    if op in _ORDERING_OPS:
        # Booleans and strings support only (in)equality.
        gen.emit(depth, "else:")
        gen.emit(depth + 1, f"{out} = None")
    else:
        gen.emit(depth, f"elif {_bool_check(left)}:")
        gen.emit(
            depth + 1, f"{out} = ({left} {pyop} {right}) if {_bool_check(right)} else None"
        )
        gen.emit(depth, f"elif isinstance({left}, str) and isinstance({right}, str):")
        gen.emit(depth + 1, f"{out} = {left} {pyop} {right}")
        gen.emit(depth, "else:")
        gen.emit(depth + 1, f"{out} = None")
    return out, _NOT_CONST


def _compile_between(gen: _CodeGen, expr: Between, depth: int) -> Tuple[str, object]:
    value, _ = _compile_node(gen, expr.operand, depth)
    low, _ = _compile_node(gen, expr.low, depth)
    high, _ = _compile_node(gen, expr.high, depth)
    out = gen.temp()
    test = f"{low} <= {value} <= {high}"
    if expr.negated:
        test = f"not ({test})"
    gen.emit(
        depth,
        f"if {_num_check(value)} and {_num_check(low)} and {_num_check(high)}:",
    )
    gen.emit(depth + 1, f"{out} = {test}")
    gen.emit(depth, "else:")
    gen.emit(depth + 1, f"{out} = None")
    return out, _NOT_CONST


def _compile_in(gen: _CodeGen, expr: InList, depth: int) -> Tuple[str, object]:
    value, _ = _compile_node(gen, expr.operand, depth)
    members = gen.const(frozenset(expr.values))
    out = gen.temp()
    membership = f"{value} not in {members}" if expr.negated else f"{value} in {members}"
    gen.emit(depth, f"{out} = ({membership}) if isinstance({value}, str) else None")
    return out, _NOT_CONST


def _compile_like(gen: _CodeGen, expr: Like, depth: int) -> Tuple[str, object]:
    value, _ = _compile_node(gen, expr.operand, depth)
    # Pre-compile the pattern once; the hot path is one fullmatch call.
    matcher = gen.const(_like_regex(expr.pattern, expr.escape).fullmatch)
    out = gen.temp()
    test = f"{matcher}({value}) is None" if expr.negated else f"{matcher}({value}) is not None"
    gen.emit(depth, f"{out} = ({test}) if isinstance({value}, str) else None")
    return out, _NOT_CONST


def _compile_is_null(gen: _CodeGen, expr: IsNull, depth: int) -> Tuple[str, object]:
    if not isinstance(expr.operand, Identifier):
        raise InvalidSelectorError("IS NULL applies to identifiers only")
    value = gen.ident_vars[expr.operand.name]
    out = gen.temp()
    test = f"{value} is not None" if expr.negated else f"{value} is None"
    gen.emit(depth, f"{out} = {test}")
    return out, _NOT_CONST


def _hoist_identifiers(gen: _CodeGen, names: Sequence[str]) -> List[str]:
    """Give every identifier in ``names`` a local and return the
    statements that load them, once per call of the generated function.

    ``dict.get`` returns None for absent properties — exactly the
    NULL-as-UNKNOWN encoding the generated code uses.
    """
    for position, name in enumerate(names):
        gen.ident_vars[name] = f"v{position}"
    loads: List[str] = []
    property_names = [name for name in names if name not in _HEADER_NAMES]
    header_names = [name for name in names if name in _HEADER_NAMES]
    if property_names:
        loads.append("    _pg = message.properties.get")
        loads.extend(f"    {gen.ident_vars[name]} = _pg({name!r})" for name in property_names)
    if header_names:
        loads.append("    _hd = message.header")
        loads.extend(f"    {gen.ident_vars[name]} = _hd({name!r})" for name in header_names)
    return loads


def _materialize(source: str, filename: str, name: str, gen: _CodeGen) -> Any:
    """``compile`` + ``exec`` generated ``source``; return function ``name``."""
    namespace: Dict[str, object] = {
        "_num": (int, float),
        "isinstance": isinstance,
        **gen.consts,
    }
    code = compile(source, filename, "exec")
    exec(code, namespace)  # noqa: S102 - code is generated from our own AST
    return namespace[name]


def compile_ast(expr: Expr) -> CompiledSelector:
    """Lower ``expr`` to a :class:`CompiledSelector`.

    The generated function takes one message (anything exposing the
    :class:`~repro.broker.message.Message` interface: a ``properties``
    mapping plus the JMS header attributes when the selector references
    them) and returns ``True``/``False``/``None``.
    """
    gen = _CodeGen()
    loads = _hoist_identifiers(gen, sorted(set(iter_identifiers(expr))))
    result, _ = _compile_node(gen, expr, 1)
    source = "\n".join(
        ["def _selector(message):"] + loads + gen.lines + [f"    return {result}"]
    )
    fn = _materialize(source, f"<selector:{expr}>", "_selector", gen)
    return CompiledSelector(fn=fn, source=source, ast=expr)


#: Compilation cache, keyed by ``repr`` of the AST.  Dataclass equality is
#: the wrong key here: ``Literal(True) == Literal(1) == Literal(1.0)`` (and
#: they hash alike), yet the three compile to different type guards and
#: division semantics.  ``repr`` spells the literal classes apart.
# Deliberate process-wide memo: keyed on source text, value is pure.
_COMPILED_CACHE: Dict[str, CompiledSelector] = {}  # repro: ignore[API002]
_COMPILED_CACHE_MAXSIZE = 4096


def compiled_for_ast(expr: Expr) -> CompiledSelector:
    """Cached compilation, shared across selectors whose (canonical) ASTs
    print identically — the type-aware analogue of the filter index's
    canonical-text sharing key."""
    key = repr(expr)
    cached = _COMPILED_CACHE.get(key)
    if cached is None:
        if len(_COMPILED_CACHE) >= _COMPILED_CACHE_MAXSIZE:
            _COMPILED_CACHE.clear()
        cached = _COMPILED_CACHE[key] = compile_ast(expr)
    return cached


# ----------------------------------------------------------------------
# From closure to scan kernel: one generated function per block of filters
# ----------------------------------------------------------------------
#: Filters fused into one generated function.  A measurement, not a knob:
#: one function for a whole 200-selector topic is ~4,000 generated lines,
#: ``compile()`` of it takes 30 ms and — worse — +8.8 MB of peak RSS
#: (101.5 -> 110.3 MB on the lifecycle benchmark's ``fanout_filtered``),
#: while blocks of 10 / 25 / 50 measured 100.9 / 101.3 / 101.6 MB at the
#: same throughput.  Blocks also bound what a subscription change
#: regenerates: the blocks before the change are cache hits.
SCAN_BLOCK = 32


class ScanFilter(Protocol):
    """What :func:`compile_scan` needs of a filter — structurally a
    :class:`~repro.broker.filters.MessageFilter`, spelled here because
    ``filters`` imports this package and not the other way round."""

    @property
    def is_trivial(self) -> bool: ...

    def inline_ast(self) -> Optional[Expr]: ...

    def matcher(self) -> Callable[["Message"], bool]: ...


#: One position of a scan: an AST to inline, an opaque predicate to call,
#: or ``None`` for a trivial filter (accepted without evaluation).
_Unit = Union[Expr, Callable[["Message"], bool], None]
#: A generated block: ``block(message, hit, base)`` calls ``hit(base + k)``
#: for every block-local position ``k`` whose filter evaluated TRUE.
_Block = Callable[["Message", Callable[[int], None], int], None]


class ScanKernel:
    """``kernel(message)`` → positions of the filters that evaluated TRUE.

    Every non-trivial filter is evaluated, unconditionally and
    independently, for every call — the kernel removes the toll of
    *reaching* a filter (five Python calls and a re-load of the same few
    properties per selector), never an evaluation, so ``evaluated`` is
    the ``n_fltr`` a caller bills per scan.

    Attributes
    ----------
    evaluated:
        How many of the scanned filters are non-trivial, i.e. evaluated
        per call.
    blocks_generated:
        Blocks this kernel had to generate (the rest were cache hits).
    block_calls:
        Generated-function calls made so far: one per block per scan,
        i.e. ``ceil(len(filters) / SCAN_BLOCK)`` per scan.
    """

    __slots__ = ("evaluated", "blocks_generated", "block_calls", "_blocks")

    def __init__(
        self, evaluated: int, blocks: Sequence[Tuple[int, _Block]], blocks_generated: int
    ):
        self.evaluated = evaluated
        self.blocks_generated = blocks_generated
        self.block_calls = 0
        self._blocks = tuple(blocks)

    def __call__(self, message: "Message") -> List[int]:
        hits: List[int] = []
        hit = hits.append
        for base, block in self._blocks:
            block(message, hit, base)
        self.block_calls += len(self._blocks)
        return hits


def _generate_block(units: Sequence[_Unit]) -> _Block:
    """Lower up to :data:`SCAN_BLOCK` units to one function: identifier
    loads for the whole block first, then each unit's verdict in order."""
    gen = _CodeGen()
    loads = _hoist_identifiers(
        gen,
        sorted(
            {name for unit in units if isinstance(unit, Expr) for name in iter_identifiers(unit)}
        ),
    )
    for position, unit in enumerate(units):
        accept = f"hit(base + {position})"
        if unit is None:
            gen.emit(1, accept)
        elif isinstance(unit, Expr):
            result, const = _compile_node(gen, unit, 1)
            if const is _NOT_CONST:
                gen.emit(1, f"if {result} is True:")
                gen.emit(2, accept)
            elif const is True:
                gen.emit(1, accept)
        else:
            # Not ours to inline (a correlation-ID filter, a user filter,
            # or compilation is off): call it, from the same function.
            gen.emit(1, f"if {gen.const(unit)}(message):")
            gen.emit(2, accept)
    source = "\n".join(
        ["def _scan(message, hit, base):"] + loads + gen.lines + ["    return None"]
    )
    block: _Block = _materialize(source, f"<scan:{len(units)} filters>", "_scan", gen)
    return block


#: Generated blocks, keyed like ``_COMPILED_CACHE`` on the ``repr`` of the
#: block's units: positions inside a block are block-local (the caller
#: passes ``base``), so equal runs of selectors share one function across
#: topics, brokers and shards.  Same selector budget, same clear-when-full.
# Deliberate process-wide memo: keyed on source text, value is pure.
_BLOCK_CACHE: Dict[str, _Block] = {}  # repro: ignore[API002]
_BLOCK_CACHE_MAXSIZE = _COMPILED_CACHE_MAXSIZE // SCAN_BLOCK


def compile_scan(filters: Sequence[ScanFilter]) -> ScanKernel:
    """Fuse ``filters`` into a :class:`ScanKernel`.

    A filter offering an :meth:`inline_ast` has its selector body
    inlined; any other non-trivial filter is bound as its
    :meth:`matcher` and called from the generated function, so an
    exception it raises propagates to the scan's caller.  A block that
    binds such an instance is generated afresh; all others are shared
    process-wide by content.
    """
    blocks: List[Tuple[int, _Block]] = []
    evaluated = generated = 0
    for base in range(0, len(filters), SCAN_BLOCK):
        units: List[_Unit] = []
        for filter_ in filters[base : base + SCAN_BLOCK]:
            if filter_.is_trivial:
                units.append(None)
            else:
                ast = filter_.inline_ast()
                units.append(ast if ast is not None else filter_.matcher())
        evaluated += sum(unit is not None for unit in units)
        # Only a block of inlined ASTs is a pure function of its text.
        shareable = all(unit is None or isinstance(unit, Expr) for unit in units)
        key = repr(units) if shareable else None
        block = _BLOCK_CACHE.get(key) if key is not None else None
        if block is None:
            block = _generate_block(units)
            generated += 1
            if key is not None:
                if len(_BLOCK_CACHE) >= _BLOCK_CACHE_MAXSIZE:
                    _BLOCK_CACHE.clear()
                _BLOCK_CACHE[key] = block
        blocks.append((base, block))
    return ScanKernel(evaluated, blocks, generated)
