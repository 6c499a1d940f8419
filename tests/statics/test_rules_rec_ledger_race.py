"""REC and RACE families: positives and negatives on tiny packages."""

import textwrap

from repro.statics.rules_race import CallbackMutationRule, ExternalMutationRule
from repro.statics.rules_rec import NoRaiseRule

def findings_for(rule, index):
    return sorted(rule.run(index), key=lambda f: f.sort_key)



RECOVERY = textwrap.dedent(
    """
    from .codec import decode

    def scan(payload):
        records = []
        for chunk in payload:
            records.append(decode(chunk))
        return records

    def scan_guarded(payload):
        records = []
        for chunk in payload:
            try:
                records.append(decode(chunk))
            except ValueError:
                continue
        return records
    """
)

CODEC = textwrap.dedent(
    """
    def decode(chunk):
        if not chunk:
            raise ValueError("empty chunk")
        return chunk
    """
)


class TestNoRaise:
    def test_uncaught_raise_through_call_chain(self, make_index):
        index = make_index({"recovery.py": RECOVERY, "codec.py": CODEC})
        rule = NoRaiseRule(entry_points=(("pkg/recovery.py", "scan"),))
        found = findings_for(rule, index)
        assert [f.rule for f in found] == ["REC001"]
        assert found[0].path == "pkg/codec.py"
        assert "ValueError escapes recovery entry point scan()" in found[0].message
        assert "via scan -> decode" in found[0].message

    def test_guarded_call_is_clean(self, make_index):
        index = make_index({"recovery.py": RECOVERY, "codec.py": CODEC})
        rule = NoRaiseRule(entry_points=(("pkg/recovery.py", "scan_guarded"),))
        assert findings_for(rule, index) == []

    def test_handler_body_is_not_guarded_by_its_own_try(self, make_index):
        source = textwrap.dedent(
            """
            def entry(x):
                try:
                    return x[0]
                except IndexError:
                    raise RuntimeError("empty")
            """
        )
        index = make_index({"entry.py": source})
        rule = NoRaiseRule(entry_points=(("pkg/entry.py", "entry"),))
        found = findings_for(rule, index)
        assert [f.rule for f in found] == ["REC001"]
        assert "RuntimeError" in found[0].message


SHARED = textwrap.dedent(
    """
    class Broker:
        def __init__(self):
            self.depth = 0

        def record(self):
            self.depth += 1
    """
)


class TestExternalMutation:
    def test_flags_mutation_from_other_class(self, make_index):
        other = textwrap.dedent(
            """
            class Harness:
                def poke(self, broker):
                    broker.depth += 1
            """
        )
        index = make_index({"broker.py": SHARED, "harness.py": other})
        found = findings_for(ExternalMutationRule(targets=("Broker",)), index)
        assert [f.rule for f in found] == ["RACE001"]
        assert "Broker.depth" in found[0].message
        assert found[0].path == "pkg/harness.py"

    def test_owner_method_is_a_serialization_point(self, make_index):
        index = make_index({"broker.py": SHARED})
        assert findings_for(ExternalMutationRule(targets=("Broker",)), index) == []

    def test_allowlisted_serialization_point_is_clean(self, make_index):
        other = "def shim(broker):\n    broker.depth += 1\n"
        index = make_index({"broker.py": SHARED, "shim.py": other})
        rule = ExternalMutationRule(
            targets=("Broker",), serialization_points=frozenset({"shim"})
        )
        assert findings_for(rule, index) == []


    def test_table_built_target_is_matched_through_its_holder(self, make_index):
        """A target whose counters are not declared by assignment (the
        product ``Ledger``) is still owned: the attribute that stores the
        instance identifies it."""
        source = textwrap.dedent(
            """
            class Ledger:
                __slots__ = ("_counts",)

                def record(self, name):
                    self._counts[name] += 1

            class Queue:
                def __init__(self):
                    self.ledger = Ledger()

                def send(self):
                    self.ledger.record("acked")

            def poke(queue):
                queue.ledger.acked += 1
            """
        )
        index = make_index({"queue.py": source})
        found = findings_for(ExternalMutationRule(targets=("Ledger",)), index)
        assert [f.rule for f in found] == ["RACE001"]
        assert "Ledger.acked" in found[0].message
        assert "'queue.ledger'" in found[0].message

    def test_ingress_ledger_is_a_default_target(self, make_index):
        """The simulated server's books are owned like the queue's: a
        write from outside is a finding, ``record`` is not."""
        source = textwrap.dedent(
            """
            @ledger_class(INGRESS_FATES, gauges=("backlog", "in_service"))
            class IngressLedger(LedgerBase):
                pass

            class Server:
                def __init__(self, stats):
                    self.books = IngressLedger(stats)

                def accept(self):
                    self.books.record("accepted")

            def poke(server):
                server.books.accepted += 1
            """
        )
        index = make_index({"server.py": source})
        found = findings_for(ExternalMutationRule(), index)
        assert [f.rule for f in found] == ["RACE001"]
        assert "IngressLedger.accepted" in found[0].message
        assert "'server.books'" in found[0].message


class TestCallbackMutation:
    def test_flags_captured_object_mutation(self, make_index):
        source = textwrap.dedent(
            """
            def install(handle):
                def granted():
                    handle.accepted = True
                return granted
            """
        )
        index = make_index({"cb.py": source})
        found = findings_for(CallbackMutationRule(), index)
        assert [f.rule for f in found] == ["RACE002"]
        assert "granted()" in found[0].message
        assert "handle.accepted" in found[0].message

    def test_local_object_mutation_is_clean(self, make_index):
        source = textwrap.dedent(
            """
            def install(factory):
                def granted():
                    handle = factory()
                    handle.accepted = True
                    return handle
                return granted
            """
        )
        index = make_index({"cb.py": source})
        assert findings_for(CallbackMutationRule(), index) == []
