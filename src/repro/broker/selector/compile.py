"""Selector compilation: lower ASTs to specialized Python functions.

The tree-walking evaluator (:mod:`repro.broker.selector.evaluator`) pays
an ``isinstance`` dispatch chain and a Python-level recursion per AST
node *per message*.  This module pays those costs **once per selector**
instead: the AST is lowered to Python source — identifier loads and the
type tests of what they loaded hoisted into locals, LIKE patterns
pre-compiled to anchored regexes, IN lists frozen into sets — and
``compile()``-d into code objects.  Evaluating a message is then one
function call.

**The lowering asks "is it TRUE?", never "what is it?".**  A message
matches only when its selector is TRUE, so a condition needs no
three-valued *value*: :func:`_truth` and :func:`_falsity` give, for any
condition, a plain Python boolean expression over the hoisted locals
that holds iff the condition is TRUE, respectively FALSE::

    truth(A AND B) = truth(A) and truth(B)   falsity(A AND B) = falsity(A) or falsity(B)
    truth(A OR B)  = truth(A) or truth(B)    falsity(A OR B)  = falsity(A) and falsity(B)
    truth(NOT A)   = falsity(A)              falsity(NOT A)   = truth(A)
    truth(x < 5)   = guard and x < 5         falsity(x < 5)   = guard and not (x < 5)

SQL's UNKNOWN is "neither": a predicate's ``guard`` says it is *not*
UNKNOWN (operands present and of comparable kinds, the evaluator's rules
one for one), an identifier or literal used as a condition is decided by
identity (``v is True``) or at compile time, and short-circuiting is
Python's own ``and`` / ``or`` over sub-expressions that are pure.  Only a
condition used as a *value* — ``(a > 1) = flag``, or the result of
:meth:`CompiledSelector.evaluate` — spells UNKNOWN out, as ``None``
(:data:`~repro.broker.selector.evaluator.UNKNOWN` at the API boundary).

A topic's dispatch plan needs the verdict of *every* installed filter,
so :func:`compile_scan` takes the same lowering one level up: a run of
filters becomes one generated function per block of :data:`SCAN_BLOCK`,
which loads every referenced property — and tests its type — once per
block and carries each selector as one line, ``if <truth>: hit(k)``
(see :class:`ScanKernel`).  Semantics are *exactly* the evaluator's: the
hypothesis equivalence suite in ``tests/broker/test_selector_compile.py``
proves it on randomized ASTs and messages, NaN and infinities included,
with the tree-walking interpreter as the oracle.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
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
from .evaluator import UNKNOWN, _is_number, _like_regex

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..message import Message

__all__ = [
    "SCAN_BLOCK",
    "CompiledSelector",
    "ScanKernel",
    "compile_ast",
    "compile_scan",
    "compiled_for_ast",
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
_ARITH_OPS = frozenset({"+", "-", "*", "/"})


class CompiledSelector:
    """A selector lowered to a single generated function.

    Attributes
    ----------
    fn:
        The generated three-valued function; returns ``True``/``False``/
        ``None`` (``None`` encodes SQL UNKNOWN) or a number/string for
        non-condition expressions.
    matches:
        ``Callable[[message], bool]`` — the hot-path predicate, generated
        from the "is it TRUE?" expression alone.
    source:
        The generated Python source (debugging/teaching aid).
    ast:
        The expression that was compiled.
    """

    __slots__ = ("fn", "matches", "source", "ast")

    def __init__(
        self, fn: Callable[[Any], Any], matches: Callable[[Any], bool], source: str, ast: Expr
    ):
        self.fn = fn
        self.matches = matches
        self.source = source
        self.ast = ast

    def evaluate(self, message: Any) -> Any:
        """Three-valued result, API-compatible with the interpreter."""
        result = self.fn(message)
        return UNKNOWN if result is None else result

    def __call__(self, message: Any) -> bool:
        return self.matches(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSelector({str(self.ast)!r})"


#: How many levels of parenthesised and/or groups one generated expression
#: may nest before a group is spilled into a ``tN = ...`` statement of its
#: own.  Deeper than selectors people write; what it protects is the
#: generated ones — CPython refuses a few hundred nested parentheses, and
#: nesting must not grow with the length of a selector.  A spilled group
#: is evaluated unconditionally (sub-expressions are pure), so the cost
#: of the limit is short-circuiting, never a verdict.
_MAX_NESTING = 8


class _Chain(NamedTuple):
    """A flat ``a and b and c`` / ``a or b or c`` of Python source terms.

    ``depth`` counts the parenthesised groups nested inside the deepest
    term.  A single term is a chain of one (its ``op`` is moot).
    """

    op: str
    terms: Tuple[str, ...]
    depth: int


#: A lowered condition: decided at compile time, or a boolean expression.
_Cond = Union[bool, _Chain]


def _term(text: str) -> _Chain:
    return _Chain("and", (text,), 0)


def _render(cond: _Cond) -> str:
    if isinstance(cond, bool):
        return repr(cond)
    return f" {cond.op} ".join(cond.terms)


#: The type tests a block hoists next to its loads, one local per
#: (identifier, kind) some unit asks about.  ``n`` is the evaluator's
#: ``_is_number``: an int or a non-NaN float, never a bool; ``i`` refines
#: a value already known to be a number.
_GUARD_TESTS = {
    "n": "isinstance({v}, _num) and not isinstance({v}, bool) and {v} == {v}",
    "s": "isinstance({v}, str)",
    "b": "{v} is True or {v} is False",
    "i": "isinstance({v}, int)",
}


class _CodeGen:
    """Accumulates generated statements, hoisted guards and constants."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.consts: Dict[str, object] = {}
        self.ident_vars: Dict[str, str] = {}
        self.guards: Dict[str, str] = {}
        #: ``id`` of a condition node used as a value -> the local bound to it.
        self.values: Dict[int, str] = {}
        self._tmp = 0

    def temp(self) -> str:
        self._tmp += 1
        return f"t{self._tmp}"

    def const(self, value: object) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def literal(self, value: object) -> str:
        """A literal as source text; ``repr`` round-trips every JMS type
        but the non-finite floats (``1e999`` parses to ``inf``)."""
        if isinstance(value, float) and not math.isfinite(value):
            return self.const(value)
        return repr(value)

    def guard(self, var: str, kind: str) -> _Chain:
        """The hoisted local that answers "is ``var`` of ``kind``?"."""
        name = f"{kind}_{var}"
        self.guards.setdefault(name, f"    {name} = " + _GUARD_TESTS[kind].format(v=var))
        return _term(name)

    def join(self, op: str, *parts: _Cond) -> _Cond:
        """``parts`` under ``and`` / ``or``: constants folded, chains of
        the same operator spliced flat, repeated terms dropped (in a
        chain a term that was reached again has the value it had), and a
        group that would nest beyond :data:`_MAX_NESTING` spilled."""
        absorbing = op == "or"  # TRUE decides an ``or``, FALSE an ``and``
        if any(part is absorbing for part in parts):
            return absorbing
        chains = [part for part in parts if not isinstance(part, bool)]
        if len(chains) < 2:
            return chains[0] if chains else not absorbing
        terms: Dict[str, None] = {}
        depth = 0
        for part in chains:
            if part.op == op or len(part.terms) == 1:
                terms.update(dict.fromkeys(part.terms))
                depth = max(depth, part.depth)
            elif part.depth + 1 < _MAX_NESTING:
                terms[f"({_render(part)})"] = None
                depth = max(depth, part.depth + 1)
            else:
                spilled = self.temp()
                self.emit(f"{spilled} = {_render(part)}")
                terms[spilled] = None
        return _Chain(op, tuple(terms), depth)


# ----------------------------------------------------------------------
# Polarity lowering: "is it TRUE?" and "is it FALSE?", never "what is it?"
# ----------------------------------------------------------------------
def _is_arith(expr: Expr) -> bool:
    return isinstance(expr, (Unary, Binary)) and expr.op in _ARITH_OPS


def _truth(gen: _CodeGen, expr: Expr) -> _Cond:
    """A Python boolean expression that holds iff ``expr`` is TRUE."""
    if isinstance(expr, Binary) and expr.op in ("AND", "OR"):
        op = "and" if expr.op == "AND" else "or"
        return gen.join(op, _truth(gen, expr.left), _truth(gen, expr.right))
    if isinstance(expr, Unary) and expr.op == "NOT":
        return _falsity(gen, expr.operand)
    if isinstance(expr, Literal):
        return expr.value is True
    if isinstance(expr, Identifier):
        return _term(f"{gen.ident_vars[expr.name]} is True")
    return _predicate(gen, expr, True)


def _falsity(gen: _CodeGen, expr: Expr) -> _Cond:
    """A Python boolean expression that holds iff ``expr`` is FALSE.

    UNKNOWN is what is left when neither this nor :func:`_truth` holds;
    no generated code ever holds it in a variable.
    """
    if isinstance(expr, Binary) and expr.op in ("AND", "OR"):
        op = "or" if expr.op == "AND" else "and"  # Kleene: De Morgan holds
        return gen.join(op, _falsity(gen, expr.left), _falsity(gen, expr.right))
    if isinstance(expr, Unary) and expr.op == "NOT":
        return _truth(gen, expr.operand)
    if isinstance(expr, Literal):
        return expr.value is False
    if isinstance(expr, Identifier):
        return _term(f"{gen.ident_vars[expr.name]} is False")
    return _predicate(gen, expr, False)


def _predicate(gen: _CodeGen, expr: Expr, want: bool) -> _Cond:
    """``guard and test`` for TRUE, ``guard and not (test)`` for FALSE.

    The guard says the predicate is not UNKNOWN (operands present and of
    comparable types).  FALSE is the *negated test*, never the
    complementary operator: the two differ wherever a Python comparison
    is not total, and the guard alone must decide what is UNKNOWN.
    """
    if _is_arith(expr):
        return False  # a number (or UNKNOWN) is neither TRUE nor FALSE
    guard, test, negated = _guard_and_test(gen, expr)
    return gen.join("and", guard, _term(f"not ({test})" if want == negated else test))


def _guard_and_test(gen: _CodeGen, expr: Expr) -> Tuple[_Cond, str, bool]:
    """``(guard, test, negated)`` of a comparison, BETWEEN, IN, LIKE or
    IS NULL, mirroring the evaluator's type rules one for one."""
    if isinstance(expr, Binary):
        left, right = _operand(gen, expr.left), _operand(gen, expr.right)
        # Numbers compare with every operator; booleans and strings
        # support only (in)equality; mixed kinds never compare.
        kinds = [
            kind
            for kind in ("n" if expr.op in _ORDERING_OPS else "nbs")
            if left.kind in (None, kind) and right.kind in (None, kind)
        ]
        guard = gen.join(
            "or", *(gen.join("and", _is(gen, left, k), _is(gen, right, k)) for k in kinds)
        )
        return guard, f"{left.value} {_COMPARISON_OPS[expr.op]} {right.value}", False
    if isinstance(expr, Between):
        value, low, high = (_operand(gen, e) for e in (expr.operand, expr.low, expr.high))
        guard = gen.join("and", *(_is(gen, operand, "n") for operand in (value, low, high)))
        return guard, f"{low.value} <= {value.value} <= {high.value}", expr.negated
    if isinstance(expr, InList):
        value = _operand(gen, expr.operand)
        members = gen.const(frozenset(expr.values))
        return _is(gen, value, "s"), f"{value.value} in {members}", expr.negated
    if isinstance(expr, Like):
        value = _operand(gen, expr.operand)
        # Pre-compile the pattern once; the hot path is one fullmatch call.
        matcher = gen.const(_like_regex(expr.pattern, expr.escape).fullmatch)
        return _is(gen, value, "s"), f"{matcher}({value.value}) is not None", expr.negated
    if isinstance(expr, IsNull):
        if not isinstance(expr.operand, Identifier):
            raise InvalidSelectorError("IS NULL applies to identifiers only")
        # The one predicate with no UNKNOWN: NULL *is* the information.
        return True, f"{gen.ident_vars[expr.operand.name]} is None", expr.negated
    raise InvalidSelectorError(f"cannot compile AST node {type(expr).__name__}")


class _Operand(NamedTuple):
    """A value operand: where its value is, and when it is of which kind."""

    value: str  #: source text; meaningful only where the guard holds
    kind: Optional[str]  #: the one kind it can have; ``None``: an identifier, any
    guard: _Cond  #: holds iff the value is of ``kind`` (in particular not UNKNOWN)


def _is(gen: _CodeGen, operand: _Operand, kind: str) -> _Cond:
    if operand.kind is None:
        return gen.guard(operand.value, kind)
    return operand.guard if operand.kind == kind else False


def _operand(gen: _CodeGen, expr: Expr) -> _Operand:
    if isinstance(expr, Literal):
        value = expr.value
        kind = (
            "b" if isinstance(value, bool)
            else "n" if _is_number(value)
            else "s" if isinstance(value, str)
            else ""
        )
        return _Operand(gen.literal(value), kind, True)
    if isinstance(expr, Identifier):
        return _Operand(gen.ident_vars[expr.name], None, True)
    # Anything computed is bound once and checked the way the evaluator
    # re-checks what it is handed: an arithmetic result may be NaN, a
    # condition's value UNKNOWN.
    if _is_arith(expr):
        guard, value = _arith(gen, expr)
        bound = gen.temp()
        bind = _term(f"({bound} := {value}) == {bound}")
        return _Operand(bound, "n", gen.join("and", guard, bind))
    # A condition is total, so its value gets a statement of its own, and
    # one per node: "is TRUE" and "is FALSE" of the enclosing comparison
    # both read it, and lowering it once each would double per level.
    name = gen.values.get(id(expr))
    if name is None:
        name = gen.values[id(expr)] = gen.temp()
        gen.emit(f"{name} = {_tristate(_truth(gen, expr), _falsity(gen, expr))}")
    return _Operand(name, "b", _term(f"{name} is not None"))


def _arith(gen: _CodeGen, expr: Expr) -> Tuple[_Cond, str]:
    """``(guard, value)``: ``value`` is the number ``expr`` evaluates to
    wherever ``guard`` holds; elsewhere the expression is UNKNOWN."""
    if isinstance(expr, Unary):
        operand = _operand(gen, expr.operand)
        return _is(gen, operand, "n"), f"{'' if expr.op == '+' else '-'}{operand.value}"
    assert isinstance(expr, Binary)
    left, right = _operand(gen, expr.left), _operand(gen, expr.right)
    guard = gen.join("and", _is(gen, left, "n"), _is(gen, right, "n"))
    a, b = left.value, right.value
    if expr.op != "/":
        return guard, f"{a} {expr.op} {b}"
    # SQL: division by zero poisons the predicate; exact integer division
    # stays an int when it divides evenly.
    exact = gen.join(
        "and", _is_int(gen, expr.left, a), _is_int(gen, expr.right, b), _term(f"{a} % {b} == 0")
    )
    value = f"{a} / {b}" if exact is False else f"({a} // {b} if {_render(exact)} else {a} / {b})"
    return gen.join("and", guard, _term(f"{b} != 0")), value


def _is_int(gen: _CodeGen, expr: Expr, value: str) -> _Cond:
    """Is the operand (already known to be a number) an ``int``?"""
    if isinstance(expr, Literal):
        return isinstance(expr.value, int)
    if isinstance(expr, Identifier):
        return gen.guard(value, "i")
    return _term(f"isinstance({value}, int)")


def _tristate(truth: _Cond, falsity: _Cond) -> str:
    """A condition as a *value* — ``(a > 1) = TRUE``, or what
    :meth:`CompiledSelector.evaluate` returns: the only place UNKNOWN
    (``None``) is spelled out."""
    return f"True if {_render(truth)} else False if {_render(falsity)} else None"


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


def _materialize(source: str, filename: str, gen: _CodeGen) -> Dict[str, Any]:
    """``compile`` + ``exec`` generated ``source``; return its namespace."""
    namespace: Dict[str, Any] = {
        "_num": (int, float),
        "isinstance": isinstance,
        **gen.consts,
    }
    code = compile(source, filename, "exec")
    exec(code, namespace)  # noqa: S102 - code is generated from our own AST
    return namespace


def compile_ast(expr: Expr) -> CompiledSelector:
    """Lower ``expr`` to a :class:`CompiledSelector`.

    The generated functions take one message (anything exposing the
    :class:`~repro.broker.message.Message` interface: a ``properties``
    mapping plus the JMS header attributes when the selector references
    them).  ``_matches`` answers "is it TRUE?" and nothing else;
    ``_selector`` returns ``True``/``False``/``None``, or the value of a
    non-condition such as ``a + 1``.
    """
    gen = _CodeGen()
    loads = _hoist_identifiers(gen, sorted(set(iter_identifiers(expr))))
    truth = _truth(gen, expr)
    truth_lines = list(gen.lines)
    if isinstance(expr, (Literal, Identifier)):
        value = _operand(gen, expr).value
    elif _is_arith(expr):
        guard, number = _arith(gen, expr)
        value = f"{number} if {_render(guard)} else None"
    else:
        value = _tristate(truth, _falsity(gen, expr))
    prologue = loads + list(gen.guards.values())
    source = "\n".join(
        ["def _selector(message):"] + prologue + gen.lines + [f"    return {value}"]
        + ["def _matches(message):"] + prologue + truth_lines + [f"    return {_render(truth)}"]
    )
    namespace = _materialize(source, f"<selector:{expr}>", gen)
    return CompiledSelector(namespace["_selector"], namespace["_matches"], source, expr)


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
#: Filters fused into one generated function.  A measurement, not a knob,
#: taken when a 200-selector topic lowered to ~4,300 lines of ``if``/
#: ``elif`` ladders: one function for all of it took 30 ms to ``compile()``
#: and +8.8 MB of peak RSS (101.5 -> 110.3 MB on the lifecycle benchmark's
#: ``fanout_filtered``), blocks of 10 / 25 / 50 measured 100.9 / 101.3 /
#: 101.6 MB at the same throughput.  As boolean expressions the same topic
#: is 282 lines in 7 blocks or 212 in one, and the memory argument is gone
#: (100.6 vs 100.4 MB; one block reads 6-7 % faster end to end, DESIGN
#: §10).  What blocks still bound is what a subscription change
#: regenerates: the blocks before the change are cache hits.
SCAN_BLOCK = 32


class ScanFilter(Protocol):
    """What :func:`compile_scan` needs of a filter — structurally a
    :class:`~repro.broker.filters.MessageFilter`, spelled here because
    ``filters`` imports this package and not the other way round."""

    @property
    def is_trivial(self) -> bool: ...

    def inline_ast(self) -> Optional[Expr]: ...

    def inline_key(self) -> Optional[str]: ...

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
    loads and type guards for the whole block first, then one line per
    unit — "if it is TRUE, hit" — in order."""
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
            gen.emit(accept)
        elif isinstance(unit, Expr):
            truth = _truth(gen, unit)
            if truth is True:
                gen.emit(accept)
            elif truth is not False:
                gen.emit(f"if {_render(truth)}: {accept}")
        else:
            # Not ours to inline (a correlation-ID filter, a user filter,
            # or compilation is off): call it, from the same function.
            gen.emit(f"if {gen.const(unit)}(message): {accept}")
    source = "\n".join(
        ["def _scan(message, hit, base):"] + loads + list(gen.guards.values()) + gen.lines
        + ["    return None"]
    )
    block: _Block = _materialize(source, f"<scan:{len(units)} filters>", gen)["_scan"]
    return block


#: Generated blocks, keyed like ``_COMPILED_CACHE`` on the ``repr`` of
#: each unit's AST (``None`` for a trivial one), as the filters'
#: :meth:`inline_key` gives it — a ``Selector`` computes its own once:
#: positions inside a block are block-local (the caller passes ``base``),
#: so equal runs of selectors share one function across topics, brokers
#: and shards.  Same selector budget, same clear-when-full.
# Deliberate process-wide memo: keyed on source text, value is pure.
_BLOCK_CACHE: Dict[Tuple[Optional[str], ...], _Block] = {}  # repro: ignore[API002]
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
        texts: List[Optional[str]] = []
        for filter_ in filters[base : base + SCAN_BLOCK]:
            if filter_.is_trivial:
                units.append(None)
                texts.append(None)
            elif (ast := filter_.inline_ast()) is not None:
                units.append(ast)
                texts.append(filter_.inline_key())
            else:
                units.append(filter_.matcher())
        evaluated += sum(unit is not None for unit in units)
        # Only a block of inlined ASTs is a pure function of its text.
        key = tuple(texts) if len(texts) == len(units) else None
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
