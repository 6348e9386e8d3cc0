"""Full two-stage simulator coupling cache management and content service.

Split out of the monolithic ``repro.sim.simulator`` behind the
:func:`repro.sim.engine.simulate` façade; the class surface and every
trajectory are unchanged (pinned by the golden-trajectory and
batch-equivalence suites).

The vectorised loops consume precomputed arrival tensors and emit both
stages' metrics in ``block_size``-slot blocks, byte-identical to the
per-slot reference accounting (see :mod:`repro.sim.cache_sim` and
:mod:`repro.sim.service_sim`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.policies import CachingPolicy, ServicePolicy
from repro.core.reward import UtilityFunction
from repro.net.queueing import RequestQueue
from repro.sim.cache_sim import _BatchedCacheStage, _CacheBlockRecorder
from repro.sim.metrics import (
    DEFAULT_BLOCK_SLOTS,
    CacheMetrics,
    ServiceMetrics,
    check_metrics_mode,
)
from repro.sim.results import JointSimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.service_sim import (
    _ServiceBlockRecorder,
    _VectorQueues,
    _enqueue_batches,
    _reference_service_slot,
    _vector_service_slot,
)
from repro.sim.system import SystemState, _expand_batch_policies
from repro.utils.validation import check_positive_int

class JointStepper:
    """Resumable one-slot-at-a-time execution of the coupled two-stage loop.

    :meth:`step` runs exactly the vectorised per-slot body — stage 1 cache
    management on the live ages matrix, stage 2 service with the AoI guard
    reading the post-update (pre-tick) ages — so driving a stepper to the
    horizon is byte-identical to :meth:`JointSimulator.run`, which is now a
    thin driver over this class.  ``batches=None`` draws the slot's
    arrivals from the scenario workload; a live session passes explicit
    ``(rsu_id, content_ids)`` batches instead.
    """

    kind = "joint"

    def __init__(
        self,
        config: ScenarioConfig,
        caching_policy: CachingPolicy,
        service_policy: ServicePolicy,
        *,
        service_batch: Optional[int] = None,
        metrics: str = "full",
        block_size: Optional[int] = None,
        expected_slots: Optional[int] = None,
    ) -> None:
        if service_batch is not None:
            check_positive_int(service_batch, "service_batch")
        if block_size is not None:
            check_positive_int(block_size, "block_size")
        expected = int(
            expected_slots if expected_slots is not None else config.num_slots
        )
        mode = check_metrics_mode(metrics)
        self.config = config
        self.caching_policy = caching_policy
        self.service_policy = service_policy
        self.state = SystemState(config)
        self.cache_metrics = CacheMetrics(
            config.num_rsus,
            config.contents_per_rsu,
            self.state.max_ages,
            mode=mode,
            expected_slots=expected,
        )
        self.service_metrics = ServiceMetrics(
            config.num_rsus, mode=mode, expected_slots=expected
        )
        caching_policy.reset()
        service_policy.reset()
        self._service_batch = service_batch
        self._queues = _VectorQueues(config.num_rsus, config.deadline_slots)
        self._ages = self.state.ages_matrix()
        self._weight = config.aoi_weight
        self._distance = 0.5 * self.state.topology.region_length
        block = block_size if block_size else DEFAULT_BLOCK_SLOTS
        block = max(1, min(int(block), max(1, expected)))
        shape = (config.num_rsus, config.contents_per_rsu)
        self._cache_recorder = _CacheBlockRecorder(
            self.cache_metrics, shape, block
        )
        self._service_recorder = _ServiceBlockRecorder(
            self.service_metrics, config.num_rsus, block
        )
        self.time_slot = 0

    def step(self, batches=None) -> dict:
        """Advance one slot; returns both stages' per-slot aggregates."""
        t = self.time_slot
        state = self.state
        ages = self._ages
        # ---- Stage 1: cache management -----------------------------------
        observation = state.observation_vector(t, ages, copy=False)
        actions = self.caching_policy.decide(observation)
        actions = CachingPolicy.validate_actions(actions, observation)
        costs = observation.update_costs
        # Inlined UtilityFunction.evaluate on the validated actions (see
        # CacheStepper.step).
        acts = np.asarray(actions, dtype=float)
        ages = np.where(acts > 0, 1.0, ages)
        aoi = float(
            np.sum((state.max_ages / np.maximum(ages, 1.0)) * state.popularity)
        )
        cost_total = float(np.sum(acts * costs))
        self._cache_recorder.add(
            t, ages, actions, aoi, cost_total, self._weight * aoi - cost_total
        )
        # ---- Stage 2: content service ------------------------------------
        # The AoI guard reads the live post-update (pre-tick) ages.
        if batches is None:
            batches = state.workload.generate_slot_contents(t)
        arrivals = _enqueue_batches(self._queues, t, batches)
        cost = state.service_cost_model.cost(
            distance=self._distance, size=1.0, time_slot=t
        )
        backlog, latency, spent, served = _vector_service_slot(
            state, self._queues, self.service_policy, self._service_batch,
            self._service_recorder, t, cost, ages,
        )
        # ---- Advance time ------------------------------------------------
        self._ages = np.minimum(ages + 1.0, state.cache_ceilings)
        state.mbs_store.tick(t + 1)
        self.time_slot = t + 1
        return {
            "aoi_utility": aoi,
            "update_cost": cost_total,
            "reward": self._weight * aoi - cost_total,
            "arrivals": float(arrivals),
            "backlog": backlog,
            "latency": latency,
            "cost": spent,
            "served": served,
        }

    def sync(self) -> None:
        """Flush staged metric blocks (byte-identical at any boundary)."""
        self._cache_recorder.flush()
        self._service_recorder.flush()

    def result(self) -> JointSimulationResult:
        """The run so far, wrapped exactly like :meth:`JointSimulator.run`."""
        self.sync()
        return JointSimulationResult(
            config=self.config,
            caching_policy_name=getattr(
                self.caching_policy, "name", type(self.caching_policy).__name__
            ),
            service_policy_name=getattr(
                self.service_policy, "name", type(self.service_policy).__name__
            ),
            cache_metrics=self.cache_metrics,
            service_metrics=self.service_metrics,
        )


class JointSimulator:
    """Full two-stage simulator coupling cache management and content service.

    Per slot the MBS first applies the caching policy (refreshing cached
    copies and accruing the Eq. (1) reward), then every RSU applies the
    service policy to its request queue with the AoI-validity guard reading
    the *current* cache ages — so a stale cache blocks service until the MBS
    refreshes it, which is exactly the interplay the paper's two-stage design
    argues for.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        caching_policy: CachingPolicy,
        service_policy: ServicePolicy,
        *,
        service_batch: Optional[int] = None,
        reference: bool = False,
        metrics: str = "full",
        block_size: Optional[int] = None,
    ) -> None:
        if service_batch is not None:
            check_positive_int(service_batch, "service_batch")
        if block_size is not None:
            check_positive_int(block_size, "block_size")
        self._config = config
        self._caching_policy = caching_policy
        self._service_policy = service_policy
        self._service_batch = service_batch
        self._reference = bool(reference)
        self._metrics_mode = check_metrics_mode(metrics)
        self._block_size = block_size

    @property
    def config(self) -> ScenarioConfig:
        """The scenario being simulated."""
        return self._config

    @property
    def reference(self) -> bool:
        """Whether the scalar reference loop is used instead of the vectorised one."""
        return self._reference

    @property
    def metrics_mode(self) -> str:
        """The metric collection mode, ``"full"`` or ``"summary"``."""
        return self._metrics_mode

    def _block(self, num_slots: int) -> int:
        block = self._block_size if self._block_size else DEFAULT_BLOCK_SLOTS
        return max(1, min(int(block), int(num_slots)))

    def _make_metrics(self, state: SystemState, num_slots: int):
        cache_metrics = CacheMetrics(
            self._config.num_rsus,
            self._config.contents_per_rsu,
            state.max_ages,
            mode=self._metrics_mode,
            expected_slots=num_slots,
        )
        service_metrics = ServiceMetrics(
            self._config.num_rsus,
            mode=self._metrics_mode,
            expected_slots=num_slots,
        )
        return cache_metrics, service_metrics

    def run(self, *, num_slots: Optional[int] = None) -> JointSimulationResult:
        """Run the coupled simulation and return both stages' metrics."""
        num_slots = check_positive_int(
            num_slots if num_slots is not None else self._config.num_slots,
            "num_slots",
        )
        if self._reference:
            state = SystemState(self._config)
            cache_metrics, service_metrics = self._make_metrics(state, num_slots)
            self._caching_policy.reset()
            self._service_policy.reset()
            self._run_reference(state, cache_metrics, service_metrics, num_slots)
            return JointSimulationResult(
                config=self._config,
                caching_policy_name=getattr(
                    self._caching_policy, "name", type(self._caching_policy).__name__
                ),
                service_policy_name=getattr(
                    self._service_policy, "name", type(self._service_policy).__name__
                ),
                cache_metrics=cache_metrics,
                service_metrics=service_metrics,
            )
        stepper = JointStepper(
            self._config,
            self._caching_policy,
            self._service_policy,
            service_batch=self._service_batch,
            metrics=self._metrics_mode,
            block_size=self._block_size,
            expected_slots=num_slots,
        )
        for _ in range(num_slots):
            stepper.step()
        return stepper.result()

    def run_batch(
        self,
        seeds: Sequence[int],
        *,
        caching_policies: Optional[Sequence[CachingPolicy]] = None,
        service_policies: Optional[Sequence[ServicePolicy]] = None,
        num_slots: Optional[int] = None,
    ) -> List[JointSimulationResult]:
        """Run one coupled simulation per seed through a seed-batched loop.

        Stage 1 (cache management) runs on the stacked
        ``(num_seeds, num_rsus, contents_per_rsu)`` ages tensor exactly like
        :meth:`CacheSimulator.run_batch`; stage 2 reads each seed's live
        post-update slice of that tensor, preserving the AoI-guard coupling.
        Bit-identical to per-seed :meth:`run` calls.
        """
        num_slots = check_positive_int(
            num_slots if num_slots is not None else self._config.num_slots,
            "num_slots",
        )
        seeds = [int(seed) for seed in seeds]
        caching_policies = _expand_batch_policies(
            seeds, caching_policies, self._caching_policy
        )
        service_policies = _expand_batch_policies(
            seeds, service_policies, self._service_policy
        )
        configs = [self._config.with_overrides(seed=seed) for seed in seeds]
        if self._reference:
            return [
                JointSimulator(
                    config,
                    caching_policy,
                    service_policy,
                    service_batch=self._service_batch,
                    reference=True,
                    metrics=self._metrics_mode,
                    block_size=self._block_size,
                ).run(num_slots=num_slots)
                for config, caching_policy, service_policy in zip(
                    configs, caching_policies, service_policies
                )
            ]
        states = [SystemState(config) for config in configs]
        pairs = [self._make_metrics(state, num_slots) for state in states]
        cache_metrics = [pair[0] for pair in pairs]
        service_metrics = [pair[1] for pair in pairs]
        for policy in caching_policies:
            policy.reset()
        for policy in service_policies:
            policy.reset()
        stage = _BatchedCacheStage(states, caching_policies)
        queues = [
            _VectorQueues(self._config.num_rsus, self._config.deadline_slots)
            for _ in states
        ]
        horizons = [state.workload.generate_horizon(num_slots) for state in states]
        block = self._block(num_slots)
        shape = (self._config.num_rsus, self._config.contents_per_rsu)
        cache_recorders = [
            _CacheBlockRecorder(metric, shape, block) for metric in cache_metrics
        ]
        service_recorders = [
            _ServiceBlockRecorder(metric, self._config.num_rsus, block)
            for metric in service_metrics
        ]
        for t in range(num_slots):
            # ---- Stage 1: cache management (seed-batched) ----------------
            stage.step(t, cache_recorders)
            # ---- Stage 2: content service, AoI guard on live ages --------
            for s, state in enumerate(states):
                _enqueue_batches(queues[s], t, horizons[s].slot_batches(t))
                distance = 0.5 * state.topology.region_length
                cost = state.service_cost_model.cost(
                    distance=distance, size=1.0, time_slot=t
                )
                _vector_service_slot(
                    state, queues[s], service_policies[s], self._service_batch,
                    service_recorders[s], t, cost, stage.ages[s],
                )
            # ---- Advance time --------------------------------------------
            stage.advance(t)
        for recorder in cache_recorders:
            recorder.flush()
        for recorder in service_recorders:
            recorder.flush()
        return [
            JointSimulationResult(
                config=config,
                caching_policy_name=getattr(
                    caching_policy, "name", type(caching_policy).__name__
                ),
                service_policy_name=getattr(
                    service_policy, "name", type(service_policy).__name__
                ),
                cache_metrics=cache_metric,
                service_metrics=service_metric,
            )
            for config, caching_policy, service_policy, cache_metric, service_metric
            in zip(
                configs, caching_policies, service_policies,
                cache_metrics, service_metrics,
            )
        ]

    def _run_reference(
        self,
        state: SystemState,
        cache_metrics: CacheMetrics,
        service_metrics: ServiceMetrics,
        num_slots: int,
    ) -> None:
        """The original scalar two-stage loop."""
        queues = [RequestQueue(rsu.rsu_id) for rsu in state.topology.rsus]

        for t in range(num_slots):
            # ---- Stage 1: cache management -------------------------------
            observation = state.observation(t)
            actions = self._caching_policy.decide(observation)
            actions = CachingPolicy.validate_actions(actions, observation)
            costs = observation.update_costs
            breakdown = UtilityFunction(
                state.max_ages, costs, weight=self._config.aoi_weight
            ).evaluate(observation.ages, actions, state.popularity)
            for k, rsu in enumerate(state.topology.rsus):
                for slot, content_id in enumerate(rsu.covered_regions):
                    if actions[k, slot]:
                        state.caches[k].apply_update(content_id)
            cache_metrics.record_slot(t, state.ages_matrix(), actions, breakdown)

            # ---- Stage 2: content service ---------------------------------
            _reference_service_slot(
                state, queues, self._service_policy, self._service_batch,
                service_metrics, t,
                deadline_slots=self._config.deadline_slots,
            )

            # ---- Advance time ---------------------------------------------
            for cache in state.caches:
                cache.tick(1)
            state.mbs_store.tick(t + 1)
