"""Shared per-run system construction for all simulation kinds.

:class:`SystemState` materialises one scenario — topology, catalog, caches,
cost models, workload, and the static parameter/index matrices consumed by
both the scalar reference loops and the vectorised hot loops.  It is
internal plumbing shared by :mod:`repro.sim.cache_sim`,
:mod:`repro.sim.service_sim`, and :mod:`repro.sim.joint_sim`.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence

import numpy as np

from repro.core.policies import CacheObservation
from repro.core.reward import UtilityFunction
from repro.exceptions import ValidationError
from repro.net.cache import MBSContentStore, RSUCache
from repro.sim.scenario import ScenarioConfig

class SystemState:
    """Shared construction of topology, catalog, caches, and parameters."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        streams = config.spawn_rngs(6)
        (
            self.catalog_rng,
            self.init_rng,
            self.workload_rng,
            self.update_cost_rng,
            self.service_cost_rng,
            self.policy_rng,
        ) = streams
        self.topology = config.build_topology()
        self.catalog = config.build_catalog(self.catalog_rng)
        self.update_cost_model = config.build_update_cost_model(self.update_cost_rng)
        self.service_cost_model = config.build_service_cost_model(self.service_cost_rng)
        self.workload = config.build_workload(
            self.topology, self.catalog, rng=self.workload_rng
        )
        # Historical alias: the workload model is a RequestGenerator subclass.
        self.request_generator = self.workload
        self.mbs_store = MBSContentStore(self.catalog)
        self.caches: List[RSUCache] = []
        for rsu in self.topology.rsus:
            cache = RSUCache(rsu.rsu_id, rsu.covered_regions, self.catalog)
            if config.random_initial_ages:
                cache.randomize_ages(self.init_rng)
            self.caches.append(cache)
        # Static per-(RSU, content-slot) parameter matrices, gathered from
        # one-pass catalog arrays (per-item catalog indexing is measurable
        # setup cost at production grid sizes).
        num_rsus = config.num_rsus
        per_rsu = config.contents_per_rsu
        self.content_ids = np.asarray(
            [rsu.covered_regions for rsu in self.topology.rsus], dtype=int
        )
        self.max_ages = self.catalog.max_ages[self.content_ids]
        # RoadTopology numbers contents RSU by RSU, so the gather from
        # per-content vectors is normally a plain reshape.
        ids = self.content_ids.ravel()
        self._ids_in_order = ids.size == self.catalog.num_contents and bool(
            np.array_equal(ids, np.arange(ids.size))
        )
        self.popularity = np.zeros((num_rsus, per_rsu))
        for k, rsu in enumerate(self.topology.rsus):
            population = self.request_generator.content_population(rsu.rsu_id)
            self.popularity[k] = [
                population[content_id] for content_id in rsu.covered_regions
            ]
        self.utility = UtilityFunction(
            self.max_ages,
            np.zeros_like(self.max_ages),  # costs are supplied per slot
            weight=config.aoi_weight,
        )
        # Static index/parameter arrays used by the vectorised hot loops.
        self.content_sizes = self.catalog.sizes[self.content_ids]
        self.mbs_distances = np.asarray(
            [self.topology.mbs_distance(k) for k in range(num_rsus)], dtype=float
        )[:, np.newaxis]
        self.cache_ceilings = np.asarray(
            [cache.age_ceiling for cache in self.caches], dtype=float
        )[:, np.newaxis]
        # Each content is cached by exactly one RSU; map it to its cache
        # slot within that RSU.
        self.content_slot = np.zeros(self.catalog.num_contents, dtype=int)
        self.content_slot[self.content_ids] = np.arange(per_rsu, dtype=int)
        self._static_update_costs: Optional[np.ndarray] = None

    def ages_matrix(self) -> np.ndarray:
        """Current cache ages as a ``(num_rsus, contents_per_rsu)`` matrix."""
        return np.stack([cache.ages for cache in self.caches])

    def update_costs_matrix(self, time_slot: int) -> np.ndarray:
        """Per-(RSU, content) MBS->RSU transfer costs for *time_slot*."""
        num_rsus = self.config.num_rsus
        per_rsu = self.config.contents_per_rsu
        costs = np.zeros((num_rsus, per_rsu))
        for k in range(num_rsus):
            distance = self.topology.mbs_distance(k)
            for slot, content_id in enumerate(self.topology.rsus[k].covered_regions):
                size = self.catalog[content_id].size
                costs[k, slot] = self.update_cost_model.cost(
                    distance=distance, size=size, time_slot=time_slot
                )
        return costs

    def observation(self, time_slot: int) -> CacheObservation:
        """Build the MDP observation for *time_slot*."""
        mbs_ages = np.zeros_like(self.max_ages)
        for k, rsu in enumerate(self.topology.rsus):
            for slot, content_id in enumerate(rsu.covered_regions):
                mbs_ages[k, slot] = self.mbs_store.age_of(content_id)
        return CacheObservation(
            time_slot=time_slot,
            ages=self.ages_matrix(),
            max_ages=self.max_ages.copy(),
            popularity=self.popularity.copy(),
            update_costs=self.update_costs_matrix(time_slot),
            mbs_ages=mbs_ages,
        )

    def update_costs_vector(self, time_slot: int, *, copy: bool = True) -> np.ndarray:
        """Vectorised twin of :meth:`update_costs_matrix` (identical values).

        Distances and sizes are static, so time-invariant cost models are
        evaluated once and the matrix is reused (copied by default, so
        callers may keep or mutate it; hot loops pass ``copy=False`` and
        treat the result as read-only).
        """
        if self.update_cost_model.time_varying:
            return self.update_cost_model.cost_array(
                distances=self.mbs_distances,
                sizes=self.content_sizes,
                time_slot=time_slot,
            )
        if self._static_update_costs is None:
            self._static_update_costs = self.update_cost_model.cost_array(
                distances=self.mbs_distances,
                sizes=self.content_sizes,
                time_slot=time_slot,
            )
        if copy:
            return self._static_update_costs.copy()
        return self._static_update_costs

    def observation_vector(
        self, time_slot: int, ages: np.ndarray, *, copy: bool = True
    ) -> CacheObservation:
        """Vectorised twin of :meth:`observation` for a given *ages* matrix.

        Builds the identical :class:`CacheObservation` (bit for bit) with
        array gathers instead of per-(RSU, content) Python loops.  With
        ``copy=False`` the observation aliases the static parameter
        matrices instead of defensively copying them each slot, and uses
        *ages* as passed.  The values are identical, and the statics are
        never mutated over a run (so even policies that retain
        observations stay correct); the hot loops use it to skip O(grid)
        copies per slot, passing an *ages* array that is not mutated in
        place afterwards.
        """
        if copy:
            ages = ages.copy()
        return CacheObservation(
            time_slot=time_slot,
            ages=ages,
            max_ages=self.max_ages.copy() if copy else self.max_ages,
            popularity=self.popularity.copy() if copy else self.popularity,
            update_costs=self.update_costs_vector(time_slot, copy=copy),
            mbs_ages=self._mbs_ages_matrix(),
        )

    def _mbs_ages_matrix(self) -> np.ndarray:
        """MBS copy ages gathered per (RSU, content slot), as a fresh array."""
        ages = self.mbs_store.ages
        if self._ids_in_order:
            return ages.reshape(self.content_ids.shape)
        return ages[self.content_ids]


def _expand_batch_policies(seeds: Sequence[int], policies, base_policy) -> List:
    """Normalise a ``run_batch`` seed/policy pairing.

    ``policies=None`` deep-copies the simulator's own policy per seed — the
    exact semantics of executing the per-run path once per seed, where each
    run starts from a pristine copy of the policy instance.
    """
    if not len(seeds):
        raise ValidationError("seeds must be non-empty")
    for seed in seeds:
        if seed < 0:
            raise ValidationError(f"seeds must be >= 0, got {seed}")
    if policies is None:
        return [copy.deepcopy(base_policy) for _ in seeds]
    policies = list(policies)
    if len(policies) != len(seeds):
        raise ValidationError(
            f"got {len(policies)} policies for {len(seeds)} seeds"
        )
    return policies
