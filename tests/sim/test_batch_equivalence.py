"""Golden-trajectory equivalence: seed-batched runs vs per-seed runs.

``run_batch`` is only allowed to be *fast*: for every seed in the batch it
must reproduce the per-run vectorised loop slot for slot — the same ages,
actions, reward breakdowns, backlogs, latencies, costs, and decisions,
compared with exact equality (no tolerances).  These tests pin that contract
across policies (batched MDP decide, exact-mode fallback, per-seed baseline
fallback), cost models (static and time-varying), arrival processes,
deadlines, and horizon overrides — extending the PR 1 equivalence suite to
the seed axis.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.baselines.caching import (
    AlwaysUpdatePolicy,
    NeverUpdatePolicy,
    PeriodicUpdatePolicy,
    RandomUpdatePolicy,
)
from repro.baselines.service import AlwaysServePolicy, CostGreedyPolicy
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.exceptions import ValidationError
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import CacheSimulator, JointSimulator, ServiceSimulator

SEEDS = [0, 3, 11]


def assert_cache_results_identical(single, batched):
    assert np.array_equal(
        single.metrics.age_matrix_history(), batched.metrics.age_matrix_history()
    )
    assert np.array_equal(
        single.metrics.action_matrix_history(),
        batched.metrics.action_matrix_history(),
    )
    assert single.metrics.reward.totals == batched.metrics.reward.totals
    assert single.metrics.reward.costs == batched.metrics.reward.costs
    assert (
        single.metrics.reward.aoi_utilities == batched.metrics.reward.aoi_utilities
    )
    assert single.summary() == batched.summary()


def assert_cache_batch_identical(config, make_policy, num_slots=None, seeds=SEEDS):
    singles = [
        CacheSimulator(
            config.with_overrides(seed=seed),
            make_policy(config.with_overrides(seed=seed)),
        ).run(num_slots=num_slots)
        for seed in seeds
    ]
    batch = CacheSimulator(config, make_policy(config)).run_batch(
        seeds,
        policies=[
            make_policy(config.with_overrides(seed=seed)) for seed in seeds
        ],
        num_slots=num_slots,
    )
    assert len(batch) == len(seeds)
    for single, batched in zip(singles, batch):
        assert_cache_results_identical(single, batched)


def assert_service_batch_identical(config, make_policy, num_slots=None, **kwargs):
    singles = [
        ServiceSimulator(
            config.with_overrides(seed=seed),
            make_policy(config.with_overrides(seed=seed)),
            **kwargs,
        ).run(num_slots=num_slots)
        for seed in SEEDS
    ]
    batch = ServiceSimulator(config, make_policy(config), **kwargs).run_batch(
        SEEDS,
        policies=[
            make_policy(config.with_overrides(seed=seed)) for seed in SEEDS
        ],
        num_slots=num_slots,
    )
    for single, batched in zip(singles, batch):
        for history in ("backlog_history", "latency_history", "cost_history"):
            assert np.array_equal(
                getattr(single.metrics, history)(),
                getattr(batched.metrics, history)(),
            ), history
        assert single.summary() == batched.summary()


class TestCacheBatchEquivalence:
    def test_mdp_policy_fig1a_uses_batched_decide(self):
        # All-factored MDP controllers take the stacked gather + argmax path.
        config = ScenarioConfig.fig1a(seed=0).with_overrides(num_slots=80)
        assert_cache_batch_identical(
            config, lambda cfg: MDPCachingPolicy(cfg.build_mdp_config())
        )

    def test_exact_mode_small_scenario_falls_back(self):
        # The small scenario selects the exact per-RSU mode, which cannot
        # stack: the batch must fall back to per-seed decides and still match.
        config = ScenarioConfig.small(seed=3, num_slots=60)
        assert_cache_batch_identical(
            config, lambda cfg: MDPCachingPolicy(cfg.build_mdp_config())
        )

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda cfg: NeverUpdatePolicy(),
            lambda cfg: AlwaysUpdatePolicy(),
            lambda cfg: PeriodicUpdatePolicy(period=3),
            lambda cfg: RandomUpdatePolicy(rate=0.4, rng=123),
        ],
        ids=["never", "always", "periodic", "random"],
    )
    def test_baseline_policies_fall_back_per_seed(self, make_policy):
        config = ScenarioConfig.fig1a(seed=5).with_overrides(num_slots=50)
        assert_cache_batch_identical(config, make_policy)

    def test_fading_cost_model_reprepares_every_slot(self):
        # Time-varying costs force a per-slot re-solve in the per-run path;
        # the batched path must re-prepare its stacked tables identically.
        config = ScenarioConfig.fig1a(seed=2).with_overrides(
            num_slots=50, cost_model_kind="fading", cost_sigma=0.5
        )
        assert_cache_batch_identical(
            config, lambda cfg: MDPCachingPolicy(cfg.build_mdp_config())
        )

    def test_distance_cost_model(self):
        config = ScenarioConfig.fig1a(seed=2).with_overrides(
            num_slots=50, cost_model_kind="distance"
        )
        assert_cache_batch_identical(
            config, lambda cfg: MDPCachingPolicy(cfg.build_mdp_config())
        )

    def test_horizon_override(self):
        config = ScenarioConfig.small(seed=9)
        assert_cache_batch_identical(
            config,
            lambda cfg: MDPCachingPolicy(cfg.build_mdp_config()),
            num_slots=25,
        )

    def test_single_seed_batch_equals_single_run(self):
        config = ScenarioConfig.small(seed=4, num_slots=40)
        assert_cache_batch_identical(
            config,
            lambda cfg: MDPCachingPolicy(cfg.build_mdp_config()),
            seeds=[4],
        )

    def test_default_policies_deep_copy_the_instance(self):
        # policies=None must replicate the per-run semantics: every seed
        # starts from a pristine deep copy of the simulator's own policy, so
        # a stochastic instance replays its internal stream per seed.
        config = ScenarioConfig.small(seed=6, num_slots=40)
        policy = RandomUpdatePolicy(rate=0.5, rng=99)
        singles = [
            CacheSimulator(
                config.with_overrides(seed=seed), copy.deepcopy(policy)
            ).run()
            for seed in SEEDS
        ]
        batch = CacheSimulator(config, policy).run_batch(SEEDS)
        for single, batched in zip(singles, batch):
            assert_cache_results_identical(single, batched)

    def test_reference_batch_matches_reference_runs(self):
        config = ScenarioConfig.small(seed=2, num_slots=30)
        singles = [
            CacheSimulator(
                config.with_overrides(seed=seed), PeriodicUpdatePolicy(period=2),
                reference=True,
            ).run()
            for seed in SEEDS
        ]
        batch = CacheSimulator(
            config, PeriodicUpdatePolicy(period=2), reference=True
        ).run_batch(SEEDS)
        for single, batched in zip(singles, batch):
            assert_cache_results_identical(single, batched)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda actions: actions.__setitem__((0, 0), 2), "binary"),
            (lambda actions: actions.__setitem__((1, slice(0, 2)), 1), "RSU 1 updates 2"),
            (lambda actions: actions[:, :1], "shape"),
        ],
        ids=["non-binary", "two-per-rsu", "shape"],
    )
    def test_invalid_seed_actions_raise_the_per_run_error(self, corrupt, message):
        # The batch validates the stacked decisions in one pass; a bad seed
        # must still surface the exact error validate_actions raises.
        class Corrupting(NeverUpdatePolicy):
            def __init__(self, bad):
                self.bad = bad

            def decide(self, observation):
                actions = super().decide(observation)
                if not self.bad:
                    return actions
                out = corrupt(actions)
                return actions if out is None else out

        config = ScenarioConfig.small(seed=0, num_slots=5)
        simulator = CacheSimulator(config, NeverUpdatePolicy())
        with pytest.raises(ValidationError, match=message):
            simulator.run_batch(
                [0, 1, 2],
                policies=[Corrupting(False), Corrupting(True), Corrupting(False)],
            )

    def test_invalid_batches_rejected(self):
        config = ScenarioConfig.small(seed=0, num_slots=10)
        simulator = CacheSimulator(config, NeverUpdatePolicy())
        with pytest.raises(ValidationError):
            simulator.run_batch([])
        with pytest.raises(ValidationError):
            simulator.run_batch([-1])
        with pytest.raises(ValidationError):
            simulator.run_batch([0, 1], policies=[NeverUpdatePolicy()])


class TestServiceBatchEquivalence:
    def test_lyapunov_fig1b(self):
        config = ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=100)
        assert_service_batch_identical(
            config, lambda cfg: LyapunovServiceController(cfg.tradeoff_v)
        )

    def test_always_serve(self):
        config = ScenarioConfig.fig1b(seed=4).with_overrides(num_slots=80)
        assert_service_batch_identical(config, lambda cfg: AlwaysServePolicy())

    def test_deadlines_poisson_and_service_batch(self):
        config = ScenarioConfig.fig1b(seed=6).with_overrides(
            num_slots=80,
            deadline_slots=4,
            arrival_kind="poisson",
            arrival_rate=3.0,
        )
        assert_service_batch_identical(
            config, lambda cfg: LyapunovServiceController(5.0), service_batch=2
        )

    def test_cost_greedy(self):
        config = ScenarioConfig.fig1b(seed=4).with_overrides(
            num_slots=80, arrival_kind="poisson", arrival_rate=2.0
        )
        assert_service_batch_identical(
            config, lambda cfg: CostGreedyPolicy(backlog_cap=20.0)
        )


class TestJointBatchEquivalence:
    @pytest.mark.parametrize("base_seed", [0, 7])
    def test_mdp_plus_lyapunov(self, base_seed):
        config = ScenarioConfig.small(
            seed=base_seed, num_slots=80, arrival_rate=0.8
        )
        singles = [
            JointSimulator(
                config.with_overrides(seed=seed),
                MDPCachingPolicy(config.build_mdp_config()),
                LyapunovServiceController(config.tradeoff_v),
            ).run()
            for seed in SEEDS
        ]
        batch = JointSimulator(
            config,
            MDPCachingPolicy(config.build_mdp_config()),
            LyapunovServiceController(config.tradeoff_v),
        ).run_batch(
            SEEDS,
            caching_policies=[
                MDPCachingPolicy(config.build_mdp_config()) for _ in SEEDS
            ],
            service_policies=[
                LyapunovServiceController(config.tradeoff_v) for _ in SEEDS
            ],
        )
        for single, batched in zip(singles, batch):
            assert np.array_equal(
                single.cache_metrics.age_matrix_history(),
                batched.cache_metrics.age_matrix_history(),
            )
            assert np.array_equal(
                single.cache_metrics.action_matrix_history(),
                batched.cache_metrics.action_matrix_history(),
            )
            assert np.array_equal(
                single.service_metrics.backlog_history(),
                batched.service_metrics.backlog_history(),
            )
            assert np.array_equal(
                single.service_metrics.latency_history(),
                batched.service_metrics.latency_history(),
            )
            assert single.summary() == batched.summary()

    def test_aoi_guard_blocks_identically_without_updates(self):
        # A never-updating cache stales out: the per-seed AoI guards must
        # block service at exactly the same slots reading the live tensor.
        config = ScenarioConfig.small(seed=7).with_overrides(
            num_slots=60, arrival_rate=1.0
        )
        singles = [
            JointSimulator(
                config.with_overrides(seed=seed),
                NeverUpdatePolicy(),
                LyapunovServiceController(1.0),
            ).run()
            for seed in SEEDS
        ]
        batch = JointSimulator(
            config, NeverUpdatePolicy(), LyapunovServiceController(1.0)
        ).run_batch(SEEDS)
        for single, batched in zip(singles, batch):
            assert (
                single.service_metrics.total_served
                == batched.service_metrics.total_served
            )
            assert single.summary() == batched.summary()
