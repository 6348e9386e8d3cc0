"""Behavioural tests of the built-in workload models.

Includes the golden-fingerprint pins asserting the ``stationary`` workload
(and therefore the default scenario configuration) is byte-identical to the
pre-workload-subsystem trajectories: the hashes below were captured from
the repository *before* ``repro.workloads`` existed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.net.content import ContentCatalog
from repro.net.requests import BernoulliArrivals, PoissonArrivals, RequestGenerator
from repro.net.topology import RoadTopology
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import CacheSimulator, JointSimulator, ServiceSimulator
from repro.workloads import WorkloadSpec, create_workload, workload_names

#: Synthetic model specs (with parameters chosen so dynamics actually kick
#: in within a short horizon) reused across the behavioural tests.
SYNTHETIC_SPECS = [
    "stationary",
    "drift:period=10,step=0.6",
    "flash-crowd:burst_prob=0.3,duration=5",
    "shot-noise:event_rate=0.2,mean_lifetime=8",
]


@pytest.fixture
def topology():
    return RoadTopology(8, 4)


@pytest.fixture
def catalog():
    return ContentCatalog.random(8, rng=1)


def build(spec_text, topology, catalog, *, rng=7, rate=0.9):
    return create_workload(
        spec_text,
        topology,
        catalog,
        arrivals=BernoulliArrivals(rate),
        rng=rng,
    )


class TestGoldenStationaryFingerprints:
    """Pins: default workload == the pre-PR-3 trajectories, byte for byte."""

    def test_request_stream_fingerprint(self):
        topology = RoadTopology(20, 5)
        catalog = ContentCatalog.random(20, rng=3)
        generator = RequestGenerator(
            topology, catalog, arrivals=PoissonArrivals(1.5), rng=42
        )
        trace = generator.generate_trace(50)
        blob = ",".join(
            f"{r.time_slot}:{r.rsu_id}:{r.content_id}" for r in trace
        )
        assert len(trace) == 364
        assert (
            hashlib.sha256(blob.encode()).hexdigest()
            == "184ed55609018bfd113d97c6428200df36ffe8875a7c0ae87b207e1b1302bf3d"
        )

    def test_service_simulator_fingerprint(self):
        config = ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=120)
        result = ServiceSimulator(
            config, LyapunovServiceController(config.tradeoff_v)
        ).run()
        latency = result.metrics.latency_history()
        assert (
            hashlib.sha256(latency.tobytes()).hexdigest()
            == "c84f3796255bbb9a90930a093b47b9ec2d0eefbdbb0649dd4e9137519b96c971"
        )

    def test_cache_simulator_fingerprint(self):
        config = ScenarioConfig.fig1a(seed=0).with_overrides(num_slots=80)
        result = CacheSimulator(
            config, MDPCachingPolicy(config.build_mdp_config())
        ).run()
        assert (
            hashlib.sha256(np.asarray(result.cumulative_reward).tobytes()).hexdigest()
            == "84fc19088eaf597ec4c2481bd08f8bb90d103d7418cbafe4effb57a32bd24b49"
        )

    def test_joint_simulator_fingerprint(self):
        config = ScenarioConfig.small(seed=7, num_slots=60, arrival_rate=0.8)
        result = JointSimulator(
            config,
            MDPCachingPolicy(config.build_mdp_config()),
            LyapunovServiceController(config.tradeoff_v),
        ).run()
        assert result.service_metrics.total_served == 99
        assert repr(result.cache_metrics.reward.total_reward) == "140.25699190778818"

    def test_explicit_stationary_spec_matches_default(self):
        config = ScenarioConfig.small(seed=3, num_slots=40, arrival_rate=0.9)
        explicit = config.with_overrides(workload="stationary")
        a = ServiceSimulator(config, LyapunovServiceController(5.0)).run()
        b = ServiceSimulator(explicit, LyapunovServiceController(5.0)).run()
        assert np.array_equal(
            a.metrics.latency_history(), b.metrics.latency_history()
        )
        assert a.summary() == b.summary()

    def test_stationary_model_matches_request_generator_draws(self, topology, catalog):
        generator = RequestGenerator(
            topology, catalog, arrivals=BernoulliArrivals(0.9), rng=11
        )
        model = build("stationary", topology, catalog, rng=11)
        for t in range(30):
            expected = generator.generate_slot_contents(t)
            actual = model.generate_slot_contents(t)
            assert len(expected) == len(actual)
            for (r1, c1), (r2, c2) in zip(expected, actual):
                assert r1 == r2
                assert np.array_equal(c1, c2)


class TestHorizonEquivalence:
    @pytest.mark.parametrize("spec_text", SYNTHETIC_SPECS)
    def test_generate_horizon_replays_per_slot_draws(
        self, spec_text, topology, catalog
    ):
        horizon = build(spec_text, topology, catalog).generate_horizon(40)
        sequential = build(spec_text, topology, catalog)
        for t in range(40):
            expected = sequential.generate_slot_contents(t)
            actual = horizon.slot_batches(t)
            assert len(expected) == len(actual), (spec_text, t)
            for (r1, c1), (r2, c2) in zip(expected, actual):
                assert r1 == r2
                assert np.array_equal(c1, c2)

    @pytest.mark.parametrize("spec_text", SYNTHETIC_SPECS)
    def test_horizon_matches_generate_slot_requests(
        self, spec_text, topology, catalog
    ):
        horizon = build(spec_text, topology, catalog).generate_horizon(40)
        sequential = build(spec_text, topology, catalog)
        for t in range(40):
            requests = sequential.generate_slot(t)
            flat = [
                (rsu_id, int(content_id))
                for rsu_id, content_ids in horizon.slot_batches(t)
                for content_id in content_ids
            ]
            assert [(r.rsu_id, r.content_id) for r in requests] == flat

    def test_horizon_out_of_range_rejected(self, topology, catalog):
        horizon = build("stationary", topology, catalog).generate_horizon(10)
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            horizon.slot_batches(10)
        with pytest.raises(ValidationError):
            horizon.slot_batches(-1)

    def test_horizon_counts_match_batches(self, topology, catalog):
        horizon = build("stationary", topology, catalog).generate_horizon(25)
        counts = horizon.counts()
        assert counts.shape == (25, topology.num_rsus)
        assert counts.sum() == horizon.total_requests

    def test_same_seed_same_horizon_different_seed_differs(self, topology, catalog):
        a = build("drift:period=5", topology, catalog, rng=1).generate_horizon(60)
        b = build("drift:period=5", topology, catalog, rng=1).generate_horizon(60)
        c = build("drift:period=5", topology, catalog, rng=2).generate_horizon(60)
        assert np.array_equal(a.content_ids, b.content_ids)
        assert not (
            a.total_requests == c.total_requests
            and np.array_equal(a.content_ids, c.content_ids)
        )


class TestDriftWorkload:
    def test_weights_static_before_first_period(self, topology, catalog):
        model = build("drift:period=10,step=0.8", topology, catalog)
        base = model.base_popularity(0)
        for t in range(10):
            model.generate_slot_contents(t)
            assert np.array_equal(model._weights(0, t), base)

    def test_weights_shift_at_period_boundaries(self, topology, catalog):
        model = build("drift:period=10,step=0.8", topology, catalog)
        base = model.base_popularity(0)
        for t in range(15):
            model.generate_slot_contents(t)
        shifted = model._weights(0, 14)
        assert not np.array_equal(shifted, base)
        assert shifted.sum() == pytest.approx(1.0)
        assert (shifted >= 0).all()

    def test_content_population_reports_base_profile(self, topology, catalog):
        model = build("drift:period=5,step=0.8", topology, catalog)
        before = model.content_population(0)
        for t in range(20):
            model.generate_slot_contents(t)
        assert model.content_population(0) == before


class TestFlashCrowdWorkload:
    def test_burst_concentrates_mass_on_hot_content(self, topology, catalog):
        model = build(
            "flash-crowd:burst_prob=1.0,duration=3,concentration=0.9",
            topology,
            catalog,
        )
        model.generate_slot_contents(0)
        weights = model._weights(0, 0)
        assert weights.max() >= 0.9
        assert weights.sum() == pytest.approx(1.0)
        assert model.hot_content(0) is not None

    def test_hot_content_visible_through_the_bursts_last_slot(
        self, topology, catalog
    ):
        # duration=1 bursts are active exactly in the slot they fire; the
        # accessor must report them (regression: off-by-one vs the cursor).
        model = build(
            "flash-crowd:burst_prob=1.0,duration=1,concentration=0.9",
            topology,
            catalog,
        )
        for t in range(5):
            model.generate_slot_contents(t)
            assert model.hot_content(0) is not None, t

    def test_burst_expires_back_to_base(self, topology, catalog):
        model = build(
            "flash-crowd:burst_prob=0.0,duration=2", topology, catalog
        )
        base = model.base_popularity(0)
        for t in range(5):
            model.generate_slot_contents(t)
        assert np.array_equal(model._weights(0, 4), base)
        assert model.hot_content(0) is None


class TestShotNoiseWorkload:
    def test_active_shot_boosts_weight_then_decays(self, topology, catalog):
        model = build(
            "shot-noise:event_rate=1.0,mean_lifetime=3,boost=10",
            topology,
            catalog,
        )
        model.generate_slot_contents(0)
        weights = model._weights(0, 0)
        base = model.base_popularity(0)
        assert weights.max() > base.max()
        assert weights.sum() == pytest.approx(1.0)
        assert model.active_contents(0).size >= 1

    def test_no_events_keeps_base_popularity(self, topology, catalog):
        model = build("shot-noise:event_rate=0.0", topology, catalog)
        base = model.base_popularity(0)
        for t in range(10):
            model.generate_slot_contents(t)
        assert np.array_equal(model._weights(0, 9), base)
        assert model.active_contents(0).size == 0


def _reference_flash_crowd(model, rng, params):
    """The per-RSU scalar flash-crowd evolution, one uniform per RSU."""
    base = {rsu.rsu_id: model.base_popularity(rsu.rsu_id) for rsu in model._topology.rsus}
    weights = {rsu_id: w.copy() for rsu_id, w in base.items()}
    burst_end = {rsu_id: -1 for rsu_id in base}

    def evolve(t):
        for rsu in model._topology.rsus:
            rsu_id = rsu.rsu_id
            if 0 <= burst_end[rsu_id] < t:
                burst_end[rsu_id] = -1
                weights[rsu_id] = base[rsu_id].copy()
            if rng.random() < params["burst_prob"]:
                hot = int(rng.integers(base[rsu_id].size))
                spiked = (1.0 - params["concentration"]) * base[rsu_id]
                spiked[hot] += params["concentration"]
                weights[rsu_id] = model._normalized(spiked)
                burst_end[rsu_id] = t + params["duration"] - 1

    return evolve, weights


def _reference_shot_noise(model, rng, params):
    """The per-RSU scalar shot-noise evolution, one uniform per RSU."""
    base = {rsu.rsu_id: model.base_popularity(rsu.rsu_id) for rsu in model._topology.rsus}
    weights = {rsu_id: w.copy() for rsu_id, w in base.items()}
    expiry = {rsu_id: np.zeros(w.size) for rsu_id, w in base.items()}
    next_change = {rsu_id: np.inf for rsu_id in base}

    def evolve(t):
        for rsu in model._topology.rsus:
            rsu_id = rsu.rsu_id
            changed = False
            if rng.random() < params["event_rate"]:
                index = int(rng.integers(expiry[rsu_id].size))
                lifetime = float(rng.exponential(params["mean_lifetime"]))
                expiry[rsu_id][index] = max(expiry[rsu_id][index], t + 1.0 + lifetime)
                changed = True
            if changed or next_change[rsu_id] <= t:
                active = expiry[rsu_id] > t
                if active.any():
                    factors = np.where(active, params["boost"], 1.0)
                    weights[rsu_id] = model._normalized(base[rsu_id] * factors)
                    next_change[rsu_id] = float(expiry[rsu_id][active].min())
                else:
                    weights[rsu_id] = base[rsu_id].copy()
                    next_change[rsu_id] = np.inf

    return evolve, weights


class TestEvolutionOracle:
    """Block-drawn, row-batched evolution equals the scalar per-RSU loop.

    The models draw each slot's per-RSU event uniforms as one block and
    rewind on a hit; the reference keeps the historical loop (one
    ``rng.random()`` per RSU, then the event's own draws).  Weights, CDFs
    and the final RNG state must match slot by slot — nothing else pins
    the non-stationary RNG streams.
    """

    CASES = [
        ("flash-crowd", dict(burst_prob=0.02, duration=20, concentration=0.8)),
        ("flash-crowd", dict(burst_prob=0.3, duration=1, concentration=1.0)),
        ("flash-crowd", dict(burst_prob=1.0, duration=3, concentration=0.5)),
        ("shot-noise", dict(event_rate=0.05, mean_lifetime=25.0, boost=8.0)),
        ("shot-noise", dict(event_rate=0.5, mean_lifetime=0.3, boost=8.0)),
        ("shot-noise", dict(event_rate=1.0, mean_lifetime=4.0, boost=1.0)),
    ]
    REFERENCES = {"flash-crowd": _reference_flash_crowd, "shot-noise": _reference_shot_noise}

    @pytest.mark.parametrize("grid", [(12, 4), (640, 32), (274, 2)], ids=str)
    @pytest.mark.parametrize(
        "name, params", CASES, ids=[f"{n}-{i}" for i, (n, _) in enumerate(CASES)]
    )
    def test_matches_scalar_loop(self, name, params, grid):
        from repro.net.requests import sampling_cdf

        topology = RoadTopology(*grid)
        catalog = ContentCatalog.random(grid[0], rng=3)
        spec = name + ":" + ",".join(f"{k}={v}" for k, v in params.items())
        model = build(spec, topology, catalog, rng=11)
        reference_rng = build(spec, topology, catalog, rng=11)._rng
        evolve, expected = self.REFERENCES[name](model, reference_rng, params)
        for t in range(120):
            model._advance_to(t)
            evolve(t)
            for rsu in topology.rsus:
                got = model._weights(rsu.rsu_id, t)
                np.testing.assert_array_equal(got, expected[rsu.rsu_id])
                np.testing.assert_array_equal(
                    model._cdf(rsu.rsu_id, t), sampling_cdf(expected[rsu.rsu_id])
                )
            assert model._rng.bit_generator.state == reference_rng.bit_generator.state, t


class TestWorkloadSweepOutcomes:
    def test_non_stationary_workloads_change_the_service_trajectory(self):
        config = ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=150)
        histories = {}
        for spec_text in SYNTHETIC_SPECS:
            scenario = config.with_overrides(workload=spec_text)
            result = ServiceSimulator(
                scenario, LyapunovServiceController(scenario.tradeoff_v)
            ).run()
            histories[spec_text] = result.metrics.latency_history()
        stationary = histories.pop("stationary")
        changed = [
            not np.array_equal(history, stationary)
            for history in histories.values()
        ]
        # The non-stationary models perturb the RNG stream and the weights;
        # at least two of the three must visibly diverge from stationary.
        assert sum(changed) >= 2

    def test_every_registered_workload_name_is_exercised(self):
        assert set(workload_names()) == {
            "stationary",
            "drift",
            "flash-crowd",
            "shot-noise",
            "trace",
        }
