"""Tests for the paper's experiment-scenario builders."""

import pytest

from repro.core import BinomialReplication, FilterType, costs_for
from repro.testbed import build_filter_scenario, make_test_message
from repro.testbed.scenario import build_replication_scenario, replication_service_model


class TestFilterScenario:
    def test_filter_counts(self):
        scenario = build_filter_scenario(
            FilterType.CORRELATION_ID, replication_grade=5, n_additional=20
        )
        assert scenario.n_fltr == 25
        assert scenario.broker.filter_count("measurement") == 25

    def test_message_matches_exactly_r_subscribers(self):
        scenario = build_filter_scenario(
            FilterType.CORRELATION_ID, replication_grade=7, n_additional=40
        )
        plan = scenario.broker.dry_run(scenario.make_message())
        assert plan.replication_grade == 7
        assert plan.filters_evaluated == 47

    def test_property_filter_variant(self):
        scenario = build_filter_scenario(
            FilterType.APP_PROPERTY, replication_grade=3, n_additional=10
        )
        plan = scenario.broker.dry_run(scenario.make_message())
        assert plan.replication_grade == 3
        assert plan.filters_evaluated == 13

    def test_identical_non_matching_filters(self):
        """The identical-filters variant: all n filters look for '#1'."""
        scenario = build_filter_scenario(
            FilterType.CORRELATION_ID,
            replication_grade=2,
            n_additional=10,
            identical_non_matching=True,
        )
        filters = {
            s.filter.spec
            for s in scenario.broker.subscriptions("measurement")
            if s.subscriber.subscriber_id.startswith("other")
        }
        assert filters == {"#1"}
        plan = scenario.broker.dry_run(scenario.make_message())
        assert plan.replication_grade == 2

    def test_distinct_non_matching_filters(self):
        scenario = build_filter_scenario(
            FilterType.CORRELATION_ID, replication_grade=1, n_additional=5
        )
        specs = {
            s.filter.spec
            for s in scenario.broker.subscriptions("measurement")
            if s.subscriber.subscriber_id.startswith("other")
        }
        assert specs == {"#1", "#2", "#3", "#4", "#5"}

    def test_plain_subscribers_receive_without_filter_cost(self):
        scenario = build_filter_scenario(
            FilterType.CORRELATION_ID,
            replication_grade=0,
            n_additional=0,
            plain_subscribers=4,
        )
        plan = scenario.broker.dry_run(scenario.make_message())
        assert plan.replication_grade == 4
        assert plan.filters_evaluated == 0

    def test_zero_body_default(self):
        assert make_test_message(FilterType.CORRELATION_ID).body == b""
        assert len(make_test_message(FilterType.APP_PROPERTY, body_size=128).body) == 128

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            build_filter_scenario(FilterType.CORRELATION_ID, -1, 0)


class TestReplicationScenario:
    def test_the_service_model_counts_the_filters_the_scenario_installs(self):
        replication = BinomialReplication(4, 0.5)
        scenario = build_replication_scenario(replication, FilterType.APP_PROPERTY)
        model = replication_service_model(replication, FilterType.APP_PROPERTY, 100.0)
        assert model.n_fltr == scenario.n_fltr == 1 + 2 + 3 + 4
        assert model.replication is replication
        assert model.costs == costs_for(FilterType.APP_PROPERTY).scaled(100.0)
