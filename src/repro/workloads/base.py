"""Base class and parameter plumbing for the pluggable workload models.

A *workload model* is a named, seedable request process: it decides, for
every simulation slot, how many requests each RSU receives and for which
contents.  All models share :class:`~repro.net.requests.RequestGenerator`'s
sampling engine — one arrival-count draw per RSU per slot, then, per RSU
with arrivals, one block of uniforms mapped to contents by a
``searchsorted`` on the RSU's popularity CDF (the same RNG doubles, and
the same contents, as ``rng.choice(n, size, p=weights)``) — and expose
three entry points:

* ``generate_slot(t)`` — :class:`~repro.net.requests.Request` objects, used
  by the scalar reference simulator loops;
* ``generate_slot_contents(t)`` — allocation-free ``(rsu_id, content_ids)``
  pairs, same RNG draws;
* ``generate_horizon(num_slots)`` — the whole horizon precomputed into a
  packed :class:`~repro.net.requests.WorkloadHorizon`, consumed by the
  vectorised and seed-batched simulator hot loops.

Because all three funnel through the same per-slot sampling core, every
execution mode of the simulators sees the identical workload bit for bit —
the invariant pinned by ``tests/workloads/test_cross_mode_equivalence.py``.

Non-stationary models override ``_evolve(t)``, which advances the
popularity state (drawing any evolution variates from the workload RNG)
and stores each RSU's new popularity through
:meth:`WorkloadModel._set_weights` (or :meth:`WorkloadModel._reset_weights`
back to the base profile), so the sampling CDF is rebuilt only when the
weights change.  Per-RSU event draws go through
:meth:`WorkloadModel._event_rsus`, which draws a slot's uniforms as one
block yet consumes the stream exactly as the one-draw-per-RSU loop does
(pinned by ``tests/workloads/test_models.py::TestEvolutionOracle``).
Evolution runs inside the per-slot core, so the contract above holds by
construction as long as slots are generated in increasing order — which
is how every simulator loop consumes them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.net.content import ContentCatalog
from repro.net.requests import (
    ArrivalProcess,
    RequestGenerator,
    WorkloadHorizon,
    sampling_cdf,
)
from repro.net.topology import RoadTopology
from repro.utils.rng import RandomSource

__all__ = ["WorkloadModel", "WorkloadHorizon"]


class WorkloadModel(RequestGenerator):
    """A named, registrable request-process model.

    Subclasses are registered with
    :func:`repro.workloads.registry.register_workload` and built through
    :func:`repro.workloads.registry.create_workload`; their extra keyword
    parameters must be declared in :attr:`PARAM_DEFAULTS` and validated by
    :meth:`normalize_params`, which runs at
    :class:`~repro.workloads.registry.WorkloadSpec` construction time so a
    bad knob fails fast — before any simulation starts.
    """

    #: Registry name; filled in by the ``register_workload`` decorator.
    workload_name: str = ""

    #: Declared extra parameters and their defaults.  ``normalize_params``
    #: rejects anything not listed here.
    PARAM_DEFAULTS: Dict[str, Any] = {}

    def __init__(
        self,
        topology: RoadTopology,
        catalog: ContentCatalog,
        *,
        arrivals: Optional[ArrivalProcess] = None,
        zipf_exponent: Optional[float] = None,
        rng: RandomSource = None,
    ) -> None:
        super().__init__(
            topology,
            catalog,
            arrivals=arrivals,
            zipf_exponent=zipf_exponent,
            rng=rng,
        )
        # Non-stationary subclasses evolve a copy; the base profile stays
        # available as the stationary popularity view the MDP stage uses.
        self._base_popularity: Dict[int, np.ndarray] = {
            rsu_id: weights.copy()
            for rsu_id, weights in self._local_popularity.items()
        }
        # The popularity in effect for sampling, and its CDF; only
        # _set_weights changes them.
        self._evolved: Dict[int, np.ndarray] = {
            rsu_id: weights.copy()
            for rsu_id, weights in self._base_popularity.items()
        }
        self._evolved_cdf: Dict[int, np.ndarray] = dict(self._local_cdf)
        # RSU ids in topology order (the order evolution draws run in), and
        # each id's position in it, for per-RSU state kept in arrays.
        self._rsu_ids = [rsu.rsu_id for rsu in topology.rsus]
        self._rsu_position = {
            rsu_id: position for position, rsu_id in enumerate(self._rsu_ids)
        }
        # Slot cursor of the evolution loop shared by all subclasses.
        self._cursor = 0

    # ------------------------------------------------------------------
    # Parameter validation
    # ------------------------------------------------------------------
    @classmethod
    def normalize_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        """Validate *params* and return them merged over the defaults.

        Raises :class:`~repro.exceptions.ConfigurationError` on unknown
        keys; subclasses extend this with per-knob value checks (wrapped so
        a :class:`~repro.exceptions.ValidationError` from the shared
        checkers surfaces as a configuration error naming the workload).
        """
        unknown = sorted(set(params) - set(cls.PARAM_DEFAULTS))
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {', '.join(unknown)} for workload "
                f"{cls.workload_name!r}; known: "
                f"{', '.join(sorted(cls.PARAM_DEFAULTS)) or '(none)'}"
            )
        merged = dict(cls.PARAM_DEFAULTS)
        merged.update(params)
        return merged

    @classmethod
    def describe(cls) -> str:
        """One-line human description used by the CLI workload listing."""
        doc = (cls.__doc__ or "").strip().splitlines()
        return doc[0] if doc else cls.__name__

    # ------------------------------------------------------------------
    # Evolution scaffolding
    # ------------------------------------------------------------------
    def _advance_to(self, time_slot: int) -> None:
        """Run :meth:`_evolve` once per elapsed slot, in order.

        Keeping the evolution per-slot (rather than lazily jumping to
        *time_slot*) makes the RNG consumption a function of the slot index
        alone, so scalar, vectorised, and seed-batched modes — which all
        sample slots ``0, 1, 2, ...`` — draw identical sequences.
        """
        while self._cursor <= time_slot:
            self._evolve(self._cursor)
            self._cursor += 1

    def _evolve(self, time_slot: int) -> None:
        """Advance the popularity state into *time_slot*.  Default: static."""

    def _set_weights(
        self, rsu_id: int, weights: np.ndarray, cdf: Optional[np.ndarray] = None
    ) -> None:
        """Make *weights* RSU *rsu_id*'s sampling popularity from now on.

        *cdf*, when given, must be ``sampling_cdf(weights)`` already built
        (for example one row of a batch); otherwise it is built here.
        """
        self._evolved[rsu_id] = weights
        self._evolved_cdf[rsu_id] = sampling_cdf(weights) if cdf is None else cdf

    def _reset_weights(self, rsu_id: int) -> None:
        """Return RSU *rsu_id* to its base popularity (and its base CDF)."""
        self._evolved[rsu_id] = self._base_popularity[rsu_id].copy()
        self._evolved_cdf[rsu_id] = self._local_cdf[rsu_id]

    def _event_rsus(self, probability: float) -> Iterator[int]:
        """Yield, in topology order, the RSUs whose slot event fires.

        Each RSU's event is one uniform draw below *probability*, and the
        stream is consumed exactly as one ``self._rng.random()`` per RSU in
        topology order would consume it, with whatever the caller draws for
        a yielded RSU right after that RSU's uniform.  The uniforms are
        drawn as one block; on a hit the generator rewinds the bit
        generator to the block's start and re-draws up to the hit, so a
        slot without events costs one vector draw instead of a Python loop.
        The caller must exhaust the iterator.
        """
        rng = self._rng
        bit_generator = rng.bit_generator
        rsu_ids = self._rsu_ids
        start, count = 0, len(rsu_ids)
        while start < count:
            state = bit_generator.state
            hits = (rng.random(count - start) < probability).nonzero()[0]
            if not hits.size:
                return
            hit = start + int(hits[0])
            if hit + 1 < count:
                bit_generator.state = state
                rng.random(hit + 1 - start)
            yield rsu_ids[hit]
            start = hit + 1

    def _weights(self, rsu_id: int, time_slot: int) -> np.ndarray:
        return self._evolved[rsu_id]

    def _cdf(self, rsu_id: int, time_slot: int) -> np.ndarray:
        return self._evolved_cdf[rsu_id]

    def base_popularity(self, rsu_id: int) -> np.ndarray:
        """The stationary (slot-0) popularity profile of RSU *rsu_id*."""
        return self._base_popularity[self._check_rsu(rsu_id)].copy()

    @staticmethod
    def _normalized_rows(weights: np.ndarray) -> np.ndarray:
        """:meth:`_normalized` of every row of 2-D *weights* at once.

        Each row sum reduces the contiguous row exactly as a 1-D sum does,
        so every row equals ``_normalized(row)`` bit for bit.  Rows must
        have positive sums, as any row built from a base popularity does.
        """
        weights = np.asarray(weights, dtype=float).clip(0.0, None)
        return weights / weights.sum(axis=1, keepdims=True)

    @staticmethod
    def _normalized(weights: np.ndarray) -> np.ndarray:
        """Renormalise *weights* into an exact probability vector."""
        weights = np.asarray(weights, dtype=float).clip(0.0, None)
        total = weights.sum()
        if total <= 0:
            return np.full(weights.size, 1.0 / weights.size)
        return weights / total
