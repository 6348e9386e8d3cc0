"""Stage-1 simulator: MBS cache management over the RSU caches.

Split out of the monolithic ``repro.sim.simulator`` behind the
:func:`repro.sim.engine.simulate` façade; the class surface and every
trajectory are unchanged (pinned by the golden-trajectory and
batch-equivalence suites).

The vectorised and seed-batched hot loops emit metrics in blocks of
``block_size`` slots (slot-blocked recording): per-slot work is the policy
decision plus the element-wise reward math, while the metric bookkeeping —
history writes, reward-trace appends, aggregate reductions — lands in one
``record_block`` call per block.  Blocked emission is byte-identical to
per-slot recording; the scalar ``reference=True`` loop still records slot
by slot.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.caching_mdp import BatchedCacheDecider
from repro.core.policies import CachingPolicy
from repro.core.reward import RewardBreakdown, UtilityFunction
from repro.net.channel import LinkBudget
from repro.sim.metrics import (
    DEFAULT_BLOCK_SLOTS,
    CacheMetrics,
    check_metrics_mode,
)
from repro.sim.results import CacheSimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import SystemState, _expand_batch_policies
from repro.utils.validation import check_positive_int

class _CacheBlockRecorder:
    """Stages per-slot cache metrics and flushes K-slot blocks.

    Full-mode collectors receive the staged age/action matrices through
    :meth:`CacheMetrics.record_block`; summary-mode collectors receive only
    per-slot scalar aggregates (:meth:`CacheMetrics.record_block_aggregates`)
    so no matrix ever needs staging.  Either way the recorded metrics are
    byte-identical to per-slot :meth:`CacheMetrics.record_slot` calls.
    """

    def __init__(self, metrics: CacheMetrics, shape, block_size: int) -> None:
        self._metrics = metrics
        self._full = metrics.mode == "full"
        block = max(1, int(block_size))
        self._aoi = np.zeros(block)
        self._costs = np.zeros(block)
        self._totals = np.zeros(block)
        self._fill = 0
        self._start = 0
        if self._full:
            self._ages = np.zeros((block, *shape))
            self._actions = np.zeros((block, *shape), dtype=int)
            self._age_sums = None
            self._updates = None
            self._violations = None
        else:
            self._ages = self._actions = None
            self._age_sums = np.zeros(block)
            self._updates = np.zeros(block, dtype=np.int64)
            self._violations = np.zeros(block, dtype=np.int64)
            self._max_ages = metrics._max_ages

    def add(self, time_slot, ages, actions, aoi, cost, total) -> None:
        """Stage one slot (post-update ages, actions, reward components)."""
        fill = self._fill
        if fill == 0:
            self._start = time_slot
        self._aoi[fill] = aoi
        self._costs[fill] = cost
        self._totals[fill] = total
        if self._full:
            self._ages[fill] = ages
            self._actions[fill] = actions
        else:
            # Identical reductions to what record_slot would compute.
            self._age_sums[fill] = float(np.sum(ages))
            self._updates[fill] = int(actions.sum())
            self._violations[fill] = int(np.count_nonzero(ages > self._max_ages))
        self._fill = fill + 1
        if self._fill == self._aoi.shape[0]:
            self.flush()

    def add_aggregates(
        self, time_slot, aoi, cost, total, age_sum, updates, violations
    ) -> None:
        """Stage one slot from pre-reduced aggregates (summary mode only)."""
        fill = self._fill
        if fill == 0:
            self._start = time_slot
        self._aoi[fill] = aoi
        self._costs[fill] = cost
        self._totals[fill] = total
        self._age_sums[fill] = age_sum
        self._updates[fill] = updates
        self._violations[fill] = violations
        self._fill = fill + 1
        if self._fill == self._aoi.shape[0]:
            self.flush()

    @property
    def wants_matrices(self) -> bool:
        """Whether :meth:`add` (with matrices) must be used over aggregates."""
        return self._full

    def flush(self) -> None:
        """Emit the staged slots to the collector."""
        fill = self._fill
        if not fill:
            return
        if self._full:
            self._metrics.record_block(
                self._start,
                self._ages[:fill],
                self._actions[:fill],
                self._aoi[:fill],
                self._costs[:fill],
                self._totals[:fill],
            )
        else:
            self._metrics.record_block_aggregates(
                self._aoi[:fill],
                self._costs[:fill],
                self._totals[:fill],
                self._age_sums[:fill],
                int(self._updates[:fill].sum()),
                int(self._violations[:fill].sum()),
            )
        self._fill = 0


class _BatchedCacheStage:
    """Seed-axis tensor execution of the stage-1 (cache management) loop.

    Stacks the per-seed ages, parameter, and cost matrices into
    ``(num_seeds, num_rsus, contents_per_rsu)`` tensors and replays the
    vectorised per-run loop along the leading seed axis: the element-wise
    updates are the identical float operations, and the per-seed reward
    reductions run over the same contiguous buffers, so every seed's
    trajectory is bit-identical to its own per-run execution (pinned by
    tests/sim/test_batch_equivalence.py).

    Policies decide through :class:`~repro.core.caching_mdp.BatchedCacheDecider`
    when every seed runs the factored MDP controller — one stacked gather +
    argmax per slot — and fall back to per-seed ``decide`` calls (identical
    results, per-run speed) for exact-mode or non-MDP policies.
    """

    def __init__(self, states: List[SystemState], policies: List) -> None:
        self.states = states
        self.policies = policies
        self.ages = np.stack([state.ages_matrix() for state in states])
        self.max_ages = np.stack([state.max_ages for state in states])
        self.popularity = np.stack([state.popularity for state in states])
        self.ceilings = np.stack([state.cache_ceilings for state in states])
        self.weight = states[0].config.aoi_weight
        self.time_varying = states[0].update_cost_model.time_varying
        self._decider = (
            BatchedCacheDecider(policies)
            if BatchedCacheDecider.supports(policies)
            else None
        )
        self._batched = self._decider is not None
        self._costs: Optional[np.ndarray] = None
        # Persistent element-wise scratch tensors: the per-slot math reuses
        # them instead of allocating fresh (S, R, C) temporaries every slot.
        self._post = np.empty_like(self.ages)
        self._scratch = np.empty_like(self.ages)
        self._cost_scratch = np.empty_like(self.ages)

    def slot_costs(self, time_slot: int) -> np.ndarray:
        """Stacked per-seed update costs for *time_slot* (cached when static)."""
        if self._costs is None or self.time_varying:
            self._costs = np.stack(
                [state.update_costs_vector(time_slot) for state in self.states]
            )
        return self._costs

    def decide(self, time_slot: int, costs: np.ndarray) -> np.ndarray:
        """Stacked update decisions of every seed's policy for this slot."""
        if self._batched and (time_slot == 0 or self.time_varying):
            # Static parameters only need ensuring once: later slots would
            # hit the policy's exact-equality fast path and change nothing.
            self._batched = self._decider.prepare(
                self.max_ages, self.popularity, costs
            )
        if self._batched:
            return self._decider.decide(self.ages)
        per_seed = []
        shape = self.ages.shape[1:]
        for s, state in enumerate(self.states):
            # The static parameter matrices are never mutated, so aliasing
            # them is safe even for policies that retain observations; the
            # ages tensor *is* recycled in place across slots, so each
            # seed's slice is copied out.
            observation = state.observation_vector(
                time_slot, self.ages[s].copy(), copy=False
            )
            actions = np.asarray(self.policies[s].decide(observation), dtype=int)
            if actions.shape != shape:
                CachingPolicy.validate_actions(actions, observation)
            per_seed.append(actions)
        stacked = np.stack(per_seed)
        # One validation pass over the stacked tensor; only a failing batch
        # is re-checked per seed, to raise the first bad seed's exact error.
        if stacked.size and not CachingPolicy._actions_valid(stacked):
            for actions in per_seed:
                if not CachingPolicy._actions_valid(actions):
                    CachingPolicy._raise_invalid(actions)
        return stacked

    def step(self, time_slot: int, recorders: List[_CacheBlockRecorder]) -> None:
        """Run one slot: decide, account the Eq. (1) reward, apply updates."""
        costs = self.slot_costs(time_slot)
        actions = self.decide(time_slot, costs)
        num_seeds = len(self.states)
        # Batched twin of UtilityFunction.evaluate: identical element-wise
        # expressions (bit for bit), reduced per seed over the same
        # contiguous layout — written into the persistent scratch tensors
        # so the per-slot loop allocates nothing of O(grid) size.
        post_ages = self._post
        np.copyto(post_ages, self.ages)
        updated = actions > 0
        np.copyto(post_ages, 1.0, where=updated)
        scratch = self._scratch
        np.maximum(post_ages, 1.0, out=scratch)
        np.divide(self.max_ages, scratch, out=scratch)
        np.multiply(scratch, self.popularity, out=scratch)
        aoi_totals = scratch.reshape(num_seeds, -1).sum(axis=1)
        # Actions are 0/1 (validated, or one-hot from the batched decider),
        # so the boolean mask multiplies to the same products, cast cheaper.
        np.multiply(updated, costs, out=self._cost_scratch)
        cost_totals = self._cost_scratch.reshape(num_seeds, -1).sum(axis=1)
        totals = self.weight * aoi_totals - cost_totals
        # Swap buffers: the outgoing ages tensor becomes next slot's scratch.
        self._post = self.ages
        self.ages = post_ages
        if recorders and not recorders[0].wants_matrices:
            # Summary-mode fast path: reduce every seed's slot in one pass
            # over the stacked tensors (identical per-row reductions to the
            # per-seed record_slot calls) and stage scalars only.
            age_sums = post_ages.reshape(num_seeds, -1).sum(axis=1)
            updates = actions.reshape(num_seeds, -1).sum(axis=1)
            violations = (post_ages > self.max_ages).reshape(num_seeds, -1).sum(axis=1)
            for s, recorder in enumerate(recorders):
                recorder.add_aggregates(
                    time_slot,
                    aoi_totals[s],
                    cost_totals[s],
                    totals[s],
                    age_sums[s],
                    int(updates[s]),
                    int(violations[s]),
                )
        else:
            for s, recorder in enumerate(recorders):
                recorder.add(
                    time_slot,
                    post_ages[s],
                    actions[s],
                    aoi_totals[s],
                    cost_totals[s],
                    totals[s],
                )

    def advance(self, time_slot: int) -> None:
        """Age every cached copy by one slot and regenerate the MBS copies.

        In place: every same-slot consumer (recorders, the joint service
        stage's AoI guard) has already read — or copied — the post-update
        ages by the time the loop advances.
        """
        np.add(self.ages, 1.0, out=self.ages)
        np.minimum(self.ages, self.ceilings, out=self.ages)
        for state in self.states:
            state.mbs_store.tick(time_slot + 1)


class CacheStepper:
    """Resumable one-slot-at-a-time execution of the stage-1 loop.

    Owns the ages matrix, :class:`~repro.sim.system.SystemState`, and the
    staged metrics recorder that the batch ``run()`` loop previously built
    inline; :meth:`step` runs exactly the vectorised per-slot body, so
    driving a stepper to the horizon is byte-identical to
    :meth:`CacheSimulator.run` — which is now a thin driver over this
    class.  Stage 1 consumes no request arrivals, so the ``batches``
    argument is accepted (for a uniform stepper surface) and ignored.
    """

    kind = "cache"

    def __init__(
        self,
        config: ScenarioConfig,
        policy: CachingPolicy,
        *,
        metrics: str = "full",
        block_size: Optional[int] = None,
        expected_slots: Optional[int] = None,
    ) -> None:
        if block_size is not None:
            check_positive_int(block_size, "block_size")
        expected = int(
            expected_slots if expected_slots is not None else config.num_slots
        )
        self.config = config
        self.policy = policy
        self.state = SystemState(config)
        self.metrics = CacheMetrics(
            config.num_rsus,
            config.contents_per_rsu,
            self.state.max_ages,
            mode=check_metrics_mode(metrics),
            expected_slots=expected,
        )
        policy.reset()
        self._ages = self.state.ages_matrix()
        self._weight = config.aoi_weight
        block = block_size if block_size else DEFAULT_BLOCK_SLOTS
        shape = (config.num_rsus, config.contents_per_rsu)
        self._recorder = _CacheBlockRecorder(
            self.metrics, shape, max(1, min(int(block), max(1, expected)))
        )
        self.time_slot = 0

    def step(self, batches=None) -> dict:
        """Advance one slot; returns the slot's reward components."""
        t = self.time_slot
        state = self.state
        ages = self._ages
        observation = state.observation_vector(t, ages, copy=False)
        actions = self.policy.decide(observation)
        actions = CachingPolicy.validate_actions(actions, observation)
        costs = observation.update_costs
        # Inlined UtilityFunction.evaluate on the validated actions: the
        # identical element-wise expressions and reductions, minus the
        # per-slot revalidation and RewardBreakdown boxing.
        acts = np.asarray(actions, dtype=float)
        ages = np.where(acts > 0, 1.0, ages)
        aoi = float(
            np.sum((state.max_ages / np.maximum(ages, 1.0)) * state.popularity)
        )
        cost = float(np.sum(acts * costs))
        self._recorder.add(t, ages, actions, aoi, cost, self._weight * aoi - cost)
        # Advance time: cached copies age by one slot, the MBS regenerates.
        self._ages = np.minimum(ages + 1.0, state.cache_ceilings)
        state.mbs_store.tick(t + 1)
        self.time_slot = t + 1
        return {
            "aoi_utility": aoi,
            "update_cost": cost,
            "reward": self._weight * aoi - cost,
        }

    def sync(self) -> None:
        """Flush staged metric blocks (byte-identical at any boundary)."""
        self._recorder.flush()

    def result(self) -> CacheSimulationResult:
        """The run so far, wrapped exactly like :meth:`CacheSimulator.run`."""
        self.sync()
        return CacheSimulationResult(
            config=self.config,
            policy_name=getattr(self.policy, "name", type(self.policy).__name__),
            metrics=self.metrics,
            catalog=self.state.catalog,
            topology=self.state.topology,
        )


class CacheSimulator:
    """Stage-1 simulator: MBS cache management over the RSU caches.

    Parameters
    ----------
    config:
        The scenario to simulate.
    policy:
        The caching policy the MBS uses (the paper's
        :class:`~repro.core.caching_mdp.MDPCachingPolicy` or any baseline).
    reference:
        When ``True``, run the original scalar per-(RSU, content) loop; the
        default runs the vectorised loop, which produces bit-for-bit
        identical trajectories (see tests/sim/test_vectorized_equivalence.py)
        at a fraction of the per-slot cost.
    metrics:
        Metric collection mode, ``"full"`` (default) or ``"summary"`` —
        see :mod:`repro.sim.metrics`.  ``summary()`` / ``rows()`` output is
        byte-identical; ``"summary"`` keeps memory flat in the grid size.
    block_size:
        Slots staged per metrics flush in the vectorised loops (default
        :data:`~repro.sim.metrics.DEFAULT_BLOCK_SLOTS`); byte-identical for
        any value.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        policy: CachingPolicy,
        *,
        reference: bool = False,
        metrics: str = "full",
        block_size: Optional[int] = None,
    ) -> None:
        if block_size is not None:
            check_positive_int(block_size, "block_size")
        self._config = config
        self._policy = policy
        self._reference = bool(reference)
        self._metrics_mode = check_metrics_mode(metrics)
        self._block_size = block_size

    @property
    def config(self) -> ScenarioConfig:
        """The scenario being simulated."""
        return self._config

    @property
    def policy(self) -> CachingPolicy:
        """The caching policy under evaluation."""
        return self._policy

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

    def _make_metrics(self, state: SystemState, num_slots: int) -> CacheMetrics:
        return CacheMetrics(
            self._config.num_rsus,
            self._config.contents_per_rsu,
            state.max_ages,
            mode=self._metrics_mode,
            expected_slots=num_slots,
        )

    def run(self, *, num_slots: Optional[int] = None) -> CacheSimulationResult:
        """Run the simulation and return the recorded result."""
        num_slots = check_positive_int(
            num_slots if num_slots is not None else self._config.num_slots,
            "num_slots",
        )
        if self._reference:
            state = SystemState(self._config)
            metrics = self._make_metrics(state, num_slots)
            self._policy.reset()
            self._run_reference(state, metrics, num_slots)
            return CacheSimulationResult(
                config=self._config,
                policy_name=getattr(self._policy, "name", type(self._policy).__name__),
                metrics=metrics,
                catalog=state.catalog,
                topology=state.topology,
            )
        stepper = CacheStepper(
            self._config,
            self._policy,
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
        policies: Optional[Sequence[CachingPolicy]] = None,
        num_slots: Optional[int] = None,
    ) -> List[CacheSimulationResult]:
        """Run one simulation per seed through a single seed-batched loop.

        Equivalent — bit for bit — to calling :meth:`run` once per seed on
        ``config.with_overrides(seed=seed)``, but the hot loop carries all
        seeds through ``(num_seeds, num_rsus, contents_per_rsu)`` tensors, so
        one vectorised slot replaces ``len(seeds)`` separate ones.

        Parameters
        ----------
        seeds:
            Master scenario seeds, one per run.
        policies:
            Optional per-seed policy instances (e.g. factory-built); omitted,
            each run gets a deep copy of the simulator's policy, exactly as
            the per-run path would.
        num_slots:
            Optional horizon override shared by every run.
        """
        num_slots = check_positive_int(
            num_slots if num_slots is not None else self._config.num_slots,
            "num_slots",
        )
        seeds = [int(seed) for seed in seeds]
        policies = _expand_batch_policies(seeds, policies, self._policy)
        configs = [self._config.with_overrides(seed=seed) for seed in seeds]
        if self._reference:
            # The scalar loop has no tensor twin; replay it per seed.
            return [
                CacheSimulator(
                    config,
                    policy,
                    reference=True,
                    metrics=self._metrics_mode,
                    block_size=self._block_size,
                ).run(num_slots=num_slots)
                for config, policy in zip(configs, policies)
            ]
        states = [SystemState(config) for config in configs]
        metrics = [self._make_metrics(state, num_slots) for state in states]
        for policy in policies:
            policy.reset()
        stage = _BatchedCacheStage(states, policies)
        shape = (self._config.num_rsus, self._config.contents_per_rsu)
        block = self._block(num_slots)
        recorders = [
            _CacheBlockRecorder(metric, shape, block) for metric in metrics
        ]
        for t in range(num_slots):
            stage.step(t, recorders)
            stage.advance(t)
        for recorder in recorders:
            recorder.flush()
        return [
            CacheSimulationResult(
                config=config,
                policy_name=getattr(policy, "name", type(policy).__name__),
                metrics=metric,
                catalog=state.catalog,
                topology=state.topology,
            )
            for config, policy, metric, state in zip(
                configs, policies, metrics, states
            )
        ]

    def _run_reference(
        self, state: SystemState, metrics: CacheMetrics, num_slots: int
    ) -> None:
        """The original scalar loop: one Python iteration per (RSU, slot)."""
        mbs_budget = LinkBudget()

        for t in range(num_slots):
            observation = state.observation(t)
            actions = self._policy.decide(observation)
            actions = CachingPolicy.validate_actions(actions, observation)
            costs = observation.update_costs
            breakdown = UtilityFunction(
                state.max_ages, costs, weight=self._config.aoi_weight
            ).evaluate(observation.ages, actions, state.popularity)
            # Apply the chosen updates to the caches.
            for k, rsu in enumerate(state.topology.rsus):
                for slot, content_id in enumerate(rsu.covered_regions):
                    if actions[k, slot]:
                        state.caches[k].apply_update(content_id)
                        mbs_budget.charge(costs[k, slot])
            metrics.record_slot(t, state.ages_matrix(), actions, breakdown)
            # Advance time: cached copies age by one slot, the MBS regenerates.
            for cache in state.caches:
                cache.tick(1)
            state.mbs_store.tick(t + 1)
