"""Tests for repro.core.policies (observation dataclasses and policy ABCs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policies import (
    CacheObservation,
    CachingPolicy,
    ServiceObservation,
)
from repro.exceptions import ValidationError


def cache_observation(num_rsus=2, per_rsu=3) -> CacheObservation:
    shape = (num_rsus, per_rsu)
    return CacheObservation(
        time_slot=5,
        ages=np.full(shape, 2.0),
        max_ages=np.full(shape, 6.0),
        popularity=np.full(shape, 1.0 / per_rsu),
        update_costs=np.full(shape, 1.0),
    )


class TestCacheObservation:
    def test_shape_properties(self):
        observation = cache_observation(3, 4)
        assert observation.num_rsus == 3
        assert observation.contents_per_rsu == 4

    def test_1d_ages_rejected(self):
        with pytest.raises(ValidationError):
            CacheObservation(
                time_slot=0,
                ages=np.ones(3),
                max_ages=np.ones(3),
                popularity=np.ones(3),
                update_costs=np.ones(3),
            )

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValidationError):
            CacheObservation(
                time_slot=0,
                ages=np.ones((2, 3)),
                max_ages=np.ones((2, 2)),
                popularity=np.ones((2, 3)),
                update_costs=np.ones((2, 3)),
            )

    def test_mismatched_mbs_ages_rejected(self):
        with pytest.raises(ValidationError):
            CacheObservation(
                time_slot=0,
                ages=np.ones((2, 3)),
                max_ages=np.ones((2, 3)),
                popularity=np.ones((2, 3)),
                update_costs=np.ones((2, 3)),
                mbs_ages=np.ones((1, 3)),
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            CacheObservation(
                time_slot=-1,
                ages=np.ones((1, 1)),
                max_ages=np.ones((1, 1)),
                popularity=np.ones((1, 1)),
                update_costs=np.ones((1, 1)),
            )


class TestValidateActions:
    def test_valid_actions_pass(self):
        observation = cache_observation()
        actions = np.zeros((2, 3), dtype=int)
        actions[0, 1] = 1
        result = CachingPolicy.validate_actions(actions, observation)
        np.testing.assert_array_equal(result, actions)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError):
            CachingPolicy.validate_actions(np.zeros((1, 3), dtype=int), cache_observation())

    def test_non_binary_rejected(self):
        actions = np.zeros((2, 3), dtype=int)
        actions[0, 0] = 2
        with pytest.raises(ValidationError):
            CachingPolicy.validate_actions(actions, cache_observation())

    def test_two_updates_per_rsu_rejected(self):
        actions = np.zeros((2, 3), dtype=int)
        actions[0, 0] = 1
        actions[0, 1] = 1
        with pytest.raises(ValidationError, match="at most one"):
            CachingPolicy.validate_actions(actions, cache_observation())

    @pytest.mark.parametrize("value", [2, -1])
    def test_non_binary_reported_before_per_rsu_count(self, value):
        # A lone 2 also breaks the per-RSU count, and a -1 can hide a
        # second update in its row's sum; both must name the binary rule.
        actions = np.zeros((2, 3), dtype=int)
        actions[1, 0] = value
        actions[1, 1] = 1
        with pytest.raises(ValidationError, match="binary"):
            CachingPolicy.validate_actions(actions, cache_observation())

    def test_offending_rsu_named(self):
        actions = np.zeros((2, 3), dtype=int)
        actions[1, :2] = 1
        with pytest.raises(ValidationError, match="RSU 1 updates 2 contents"):
            CachingPolicy.validate_actions(actions, cache_observation())


class TestServiceObservation:
    def test_freshness_flag(self):
        fresh = ServiceObservation(
            time_slot=0,
            rsu_id=0,
            queue_backlog=1.0,
            service_cost=1.0,
            departure=1.0,
            head_content_age=3.0,
            head_content_max_age=5.0,
        )
        stale = ServiceObservation(
            time_slot=0,
            rsu_id=0,
            queue_backlog=1.0,
            service_cost=1.0,
            departure=1.0,
            head_content_age=8.0,
            head_content_max_age=5.0,
        )
        unknown = ServiceObservation(
            time_slot=0,
            rsu_id=0,
            queue_backlog=1.0,
            service_cost=1.0,
            departure=1.0,
        )
        assert fresh.head_content_is_fresh is True
        assert stale.head_content_is_fresh is False
        assert unknown.head_content_is_fresh is None

    def test_negative_backlog_rejected(self):
        with pytest.raises(ValidationError):
            ServiceObservation(
                time_slot=0,
                rsu_id=0,
                queue_backlog=-1.0,
                service_cost=1.0,
                departure=1.0,
            )

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            ServiceObservation(
                time_slot=0,
                rsu_id=0,
                queue_backlog=1.0,
                service_cost=-1.0,
                departure=1.0,
            )

    def test_negative_departure_rejected(self):
        with pytest.raises(ValidationError):
            ServiceObservation(
                time_slot=0,
                rsu_id=0,
                queue_backlog=1.0,
                service_cost=1.0,
                departure=-1.0,
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            ServiceObservation(
                time_slot=-1,
                rsu_id=0,
                queue_backlog=1.0,
                service_cost=1.0,
                departure=1.0,
            )
