"""Optimized filter evaluation — the ablation FioranoMQ does not have.

The paper verifies that FioranoMQ evaluates every installed filter per
message: identical filters cost the same as distinct ones, so the server
implements none of the sharing optimizations of the literature it cites
([15]).  This module implements exactly such an optimization, as an
*ablation*: the measurement harness can swap it in to quantify what the
commercial server leaves on the table.

Three optimizations:

1. **Identical-filter sharing** — equal filters are evaluated once per
   message and the verdict fans out to all their subscriptions.
2. **Exact correlation-ID hash index** — exact-match correlation-ID
   filters are resolved by one dictionary lookup for the whole group
   (counted as a single filter evaluation); range/prefix filters and
   property selectors still evaluate per distinct filter.
3. **Canonical sharing** (``canonicalize=True``) — property filters are
   grouped by the *canonical form* of their selector
   (:func:`repro.broker.selector.analysis.simplify`), so textually
   different but semantically equal selectors (``x = '1'``, ``'1' = x``,
   ``NOT (x <> '1')``…) share one evaluation.  Statically dead selectors
   (never match) are dropped from the hot path entirely and tautological
   selectors join the no-evaluation match-all bucket.

The distinct filters are evaluated by the same scan kernel as the linear
scan (:func:`repro.broker.selector.compile_scan`), one unit per shared
group, rebuilt lazily after the groups change.

The returned plan reports ``filters_evaluated`` as the number of
evaluations *actually performed*, so the virtual CPU charges the reduced
bill.  Because canonicalization is behavior-preserving, dispatch results
are identical with and without it — only the bill shrinks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from .dispatch import DispatchPlan
from .filters import CorrelationIdFilter, MessageFilter, PropertyFilter
from .message import Message
from .selector import ScanKernel, compile_scan
from .selector.analysis import always_matches, never_matches
from .subscriptions import Subscription

__all__ = ["FilterIndex"]


def _is_exact_correlation(filter_: MessageFilter) -> bool:
    return isinstance(filter_, CorrelationIdFilter) and filter_.is_exact


class _SharedGroup:
    """One distinct filter and the subscriptions sharing its verdict."""

    __slots__ = ("filter", "subscriptions")

    def __init__(self, filter_: MessageFilter):
        self.filter = filter_
        self.subscriptions: List[Subscription] = []


class FilterIndex:
    """A shared-evaluation index over a topic's subscriptions.

    Build once per topic configuration; ``plan`` evaluates a message.
    Subscription changes after the build are applied incrementally with
    :meth:`add` / :meth:`remove` — the :class:`~repro.broker.server.Broker`
    calls them from ``subscribe``/``unsubscribe``, so an installed index
    can no longer silently serve a stale subscription set.

    With ``canonicalize=True`` the index additionally shares evaluation
    across semantically equivalent property selectors and prunes filters
    the static analyzer proves dead or trivial.
    """

    def __init__(self, subscriptions: Sequence[Subscription], *, canonicalize: bool = False):
        self.canonicalize = canonicalize
        #: subscriptions without filter work (match-all, incl. tautologies).
        self._trivial: List[Subscription] = []
        #: exact correlation-ID value -> subscriptions.
        self._exact_cid: Dict[str, List[Subscription]] = {}
        #: share key -> shared group (evaluated filter + its subscriptions).
        self._shared: "OrderedDict[object, _SharedGroup]" = OrderedDict()
        #: scan over the shared groups' filters and the groups by scan
        #: position; ``None`` until the first plan after a change.
        self._scan: Optional[Tuple[ScanKernel, List[_SharedGroup]]] = None
        self._order: Dict[int, int] = {}
        self._next_position = 0
        #: subscriptions whose selector can never match (canonical mode).
        self.dead_subscriptions: Tuple[Subscription, ...] = ()
        for subscription in subscriptions:
            self.add(subscription)

    def add(self, subscription: Subscription) -> None:
        """Incrementally index a new subscription (at the end of the
        registration order, matching a fresh rebuild)."""
        self._order[subscription.subscription_id] = self._next_position
        self._next_position += 1
        self._scan = None
        filter_ = subscription.filter
        if filter_.is_trivial:
            self._trivial.append(subscription)
        elif _is_exact_correlation(filter_):
            assert isinstance(filter_, CorrelationIdFilter)
            self._exact_cid.setdefault(filter_.spec, []).append(subscription)
        elif self.canonicalize and isinstance(filter_, PropertyFilter):
            canonical = filter_.selector.canonical
            if never_matches(canonical):
                # provably zero deliveries — keep out of the hot path
                self.dead_subscriptions = self.dead_subscriptions + (subscription,)
            elif always_matches(canonical):
                self._trivial.append(subscription)
            else:
                key = ("selector", filter_.canonical_key)
                group = self._shared.get(key)
                if group is None:
                    group = self._shared[key] = _SharedGroup(filter_)
                group.subscriptions.append(subscription)
        else:
            group = self._shared.get(filter_)
            if group is None:
                group = self._shared[filter_] = _SharedGroup(filter_)
            group.subscriptions.append(subscription)

    def remove(self, subscription: Subscription) -> None:
        """Drop a subscription from the index; empty filter groups are
        dismantled so their evaluation cost disappears with them.

        Raises :class:`KeyError` if the subscription was never indexed.
        """
        sub_id = subscription.subscription_id
        del self._order[sub_id]  # KeyError: not indexed
        self._scan = None

        def _drop(bucket: List[Subscription]) -> bool:
            for i, candidate in enumerate(bucket):
                if candidate.subscription_id == sub_id:
                    del bucket[i]
                    return True
            return False

        if _drop(self._trivial):
            return
        for spec, bucket in self._exact_cid.items():
            if _drop(bucket):
                if not bucket:
                    del self._exact_cid[spec]
                return
        for key, group in self._shared.items():
            if _drop(group.subscriptions):
                if not group.subscriptions:
                    del self._shared[key]
                return
        survivors = tuple(
            s for s in self.dead_subscriptions if s.subscription_id != sub_id
        )
        if len(survivors) != len(self.dead_subscriptions):
            self.dead_subscriptions = survivors
            return
        raise KeyError(sub_id)  # pragma: no cover - _order guarantees presence

    @property
    def distinct_filters(self) -> int:
        """Distinct filters the index may evaluate per message."""
        return len(self._shared) + (1 if self._exact_cid else 0)

    def plan(self, message: Message) -> DispatchPlan:
        """Match ``message`` using shared evaluation and hash lookups."""
        matches: List[Subscription] = list(self._trivial)
        evaluations = 0
        if self._exact_cid:
            # One hash probe resolves every exact correlation-ID filter.
            evaluations += 1
            cid = message.correlation_id
            if cid is not None:
                matches.extend(self._exact_cid.get(cid, ()))
        if self._scan is None:
            groups = list(self._shared.values())
            self._scan = compile_scan([group.filter for group in groups]), groups
        kernel, groups = self._scan
        evaluations += kernel.evaluated
        for position in kernel(message):
            matches.extend(groups[position].subscriptions)
        order = self._order
        matches.sort(key=lambda s: order[s.subscription_id])
        return DispatchPlan(
            message=message,
            matches=tuple(matches),
            filters_evaluated=evaluations,
        )
