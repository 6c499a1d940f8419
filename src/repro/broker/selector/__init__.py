"""JMS message-selector language: lexer, parser, AST and evaluator.

The public entry point is :class:`Selector`:

>>> from repro.broker.selector import Selector
>>> from repro.broker import Message
>>> selector = Selector("region = 'EU' AND price BETWEEN 10 AND 20")
>>> selector.matches(Message(topic="t", properties={"region": "EU", "price": 15}))
True
>>> sorted(selector.identifiers)
['price', 'region']

The static analyzer (:mod:`repro.broker.selector.analysis`) adds a
canonical normal form — semantically equal selectors share it:

>>> Selector("'EU' = region").canonical_text
"(region = 'EU')"
>>> Selector("NOT (region <> 'EU')").canonical_text
"(region = 'EU')"

A subscription takes its selector from :func:`selector_for`, which
builds one :class:`Selector` per text per process and hands the same
object to every later caller:

>>> selector_for("price > 10") is selector_for("price > 10")
True
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, FrozenSet

from .analysis import (
    SelectorAnalysis,
    SelectorType,
    analyze,
    canonical_text,
    canonicalize,
    check_selector,
    simplify,
    type_check,
)
from .compile import (
    SCAN_BLOCK,
    CompiledSelector,
    ScanKernel,
    compile_ast,
    compile_scan,
    compiled_for_ast,
)
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
from ...diagnostics import Diagnostic, Severity, render_diagnostics
from .evaluator import UNKNOWN, evaluate, matches
from .lexer import Token, TokenType, tokenize
from .parser import parse

__all__ = [
    "Selector",
    "selector_for",
    "parse",
    "tokenize",
    "evaluate",
    "matches",
    "UNKNOWN",
    "Expr",
    "Literal",
    "Identifier",
    "Unary",
    "Binary",
    "Between",
    "InList",
    "Like",
    "IsNull",
    "Token",
    "TokenType",
    "iter_identifiers",
    # compilation (hot path)
    "SCAN_BLOCK",
    "CompiledSelector",
    "ScanKernel",
    "compile_ast",
    "compile_scan",
    "compiled_for_ast",
    # static analysis
    "SelectorAnalysis",
    "SelectorType",
    "analyze",
    "canonicalize",
    "canonical_text",
    "check_selector",
    "simplify",
    "type_check",
    "Diagnostic",
    "Severity",
    "render_diagnostics",
]


class Selector:
    """A compiled message selector.

    Parsing happens once at construction (raising
    :class:`~repro.broker.errors.InvalidSelectorError` eagerly, as a JMS
    provider must when the subscription is created).  Matching runs
    through a closure compiled from the canonical AST
    (:mod:`repro.broker.selector.compile`); :meth:`evaluate` walks the
    tree, the reference the compiled form is held to.
    """

    __slots__ = (
        "text", "ast", "identifiers", "_canonical", "_canonical_repr", "_matcher", "_analysis"
    )

    def __init__(self, text: str):
        self.text = text
        self.ast = parse(text)
        self.identifiers: FrozenSet[str] = frozenset(iter_identifiers(self.ast))
        self._canonical: Expr | None = None
        self._canonical_repr: str | None = None
        self._matcher: Callable[[Any], bool] | None = None
        self._analysis: SelectorAnalysis | None = None

    def matches(self, message: Any) -> bool:
        """True iff the selector evaluates to TRUE for ``message``."""
        matcher = self._matcher
        if matcher is None:
            matcher = self._build_matcher()
        return matcher(message)

    def matcher(self) -> Callable[[Any], bool]:
        """The hot-path predicate, for callers that evaluate in a loop.

        Built once per selector: the compiled closure of the canonical AST.
        """
        matcher = self._matcher
        if matcher is None:
            matcher = self._build_matcher()
        return matcher

    def _build_matcher(self) -> Callable[[Any], bool]:
        matcher = self._matcher = compiled_for_ast(self.canonical).matches
        return matcher

    @property
    def compiled(self) -> CompiledSelector:
        """The shared compiled form of the canonical AST."""
        return compiled_for_ast(self.canonical)

    def evaluate(self, message: Any):
        """Raw three-valued result (True / False / UNKNOWN)."""
        return evaluate(self.ast, message)

    @property
    def canonical(self) -> Expr:
        """Canonical normal form of the AST (computed lazily, cached)."""
        if self._canonical is None:
            self._canonical = simplify(self.ast)
        return self._canonical

    @property
    def canonical_repr(self) -> str:
        """``repr`` of the canonical AST (computed lazily, cached): the key
        generated code is shared under.  Unlike AST equality it tells
        ``TRUE``, ``1`` and ``1.0`` apart."""
        if self._canonical_repr is None:
            self._canonical_repr = repr(self.canonical)
        return self._canonical_repr

    @property
    def canonical_text(self) -> str:
        """The canonical form unparsed to selector text (a sharing key)."""
        return str(self.canonical)

    @property
    def analysis(self) -> SelectorAnalysis:
        """What the static analyzer finds in this text (computed lazily,
        cached): one analysis however many subscriptions name the text."""
        if self._analysis is None:
            self._analysis = analyze(self.text)
        return self._analysis

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Selector) and self.ast == other.ast

    def __hash__(self) -> int:
        return hash(self.ast)

    def __repr__(self) -> str:
        return f"Selector({self.text!r})"


@lru_cache(maxsize=4096)
def selector_for(text: str) -> Selector:
    """The process's one :class:`Selector` for ``text``.

    Everything a selector derives is a pure function of its text — the
    AST, the identifier set, the canonical form and the compiled
    matcher — so the filters that name one text share one object and pay
    for each derivation once.  That saves work only when a text comes
    again in the same process: several subscribers with one selector, or
    a broker built again from the same subscriptions.  The first
    subscription of a text costs what it did.  Bounded like the compile
    caches; a text that does not parse raises
    :class:`~repro.broker.errors.InvalidSelectorError` on every call,
    since a raise is not cached.
    """
    return Selector(text)
