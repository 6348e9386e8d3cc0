"""Content-request workload generation.

The paper's evaluation states that "the content requested by the UV to the
RSU is randomly generated".  This module turns that into a configurable
workload generator: every slot, each RSU receives a random number of
requests, each for one of the contents that RSU caches.  Three arrival
processes and two popularity profiles cover the paper's setup plus the
workload-sensitivity extensions.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.net.content import ContentCatalog, zipf_popularity
from repro.net.topology import RoadTopology
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    check_probability_vector,
)


def sampling_cdf(weights: np.ndarray) -> np.ndarray:
    """The normalised CDF :meth:`RequestGenerator._slot_batches` samples from.

    Built exactly as ``Generator.choice(n, size, p=weights)`` builds it for
    ``replace=True``, so ``cdf.searchsorted(rng.random(size), side="right")``
    returns the same indices and consumes the same doubles from *rng*.  A
    2-D *weights* gets one CDF per row, each equal to the 1-D result for
    that row (the accumulation runs along the row in order).
    """
    cdf = np.add.accumulate(np.asarray(weights, dtype=float), axis=-1)
    cdf /= cdf[..., -1:].copy()
    return cdf


@dataclass(frozen=True)
class Request:
    """A single content request issued by a UV to an RSU.

    Attributes
    ----------
    request_id:
        Globally unique identifier.
    time_slot:
        Slot in which the request was issued.
    rsu_id:
        The RSU the request was sent to.
    content_id:
        The requested content.
    vehicle_id:
        The issuing vehicle, or ``-1`` when the workload is generated
        synthetically without an explicit fleet.
    deadline:
        Latest slot by which the request must be served (for example because
        the vehicle leaves RSU coverage then); ``None`` means no deadline.
    """

    request_id: int
    time_slot: int
    rsu_id: int
    content_id: int
    vehicle_id: int = -1
    deadline: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {self.time_slot}")
        if self.rsu_id < 0:
            raise ValidationError(f"rsu_id must be >= 0, got {self.rsu_id}")
        if self.content_id < 0:
            raise ValidationError(f"content_id must be >= 0, got {self.content_id}")
        if self.deadline is not None and self.deadline < self.time_slot:
            raise ValidationError(
                f"deadline ({self.deadline}) must be >= time_slot ({self.time_slot})"
            )


class ArrivalProcess(abc.ABC):
    """Number of requests arriving at one RSU in one slot."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> int:
        """Draw the number of arrivals for one RSU in one slot."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected number of arrivals per RSU per slot."""


class BernoulliArrivals(ArrivalProcess):
    """Zero or one request per slot with probability *rate* — the paper's setup."""

    def __init__(self, rate: float = 0.5) -> None:
        self._rate = check_probability(rate, "rate")

    @property
    def rate(self) -> float:
        """Per-slot arrival probability."""
        return self._rate

    @property
    def mean(self) -> float:
        return self._rate

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.random() < self._rate)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"BernoulliArrivals(rate={self._rate:g})"


class PoissonArrivals(ArrivalProcess):
    """Poisson-distributed request count per slot with mean *rate*."""

    def __init__(self, rate: float = 1.0) -> None:
        self._rate = check_non_negative(rate, "rate")

    @property
    def rate(self) -> float:
        """Mean arrivals per slot."""
        return self._rate

    @property
    def mean(self) -> float:
        return self._rate

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self._rate))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"PoissonArrivals(rate={self._rate:g})"


class DeterministicArrivals(ArrivalProcess):
    """Exactly *count* requests per slot — useful for worst-case load tests."""

    def __init__(self, count: int = 1) -> None:
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        self._count = int(count)

    @property
    def count(self) -> int:
        """Fixed number of arrivals per slot."""
        return self._count

    @property
    def mean(self) -> float:
        return float(self._count)

    def sample(self, rng: np.random.Generator) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"DeterministicArrivals(count={self._count})"


@dataclass(frozen=True)
class WorkloadHorizon:
    """A whole horizon of per-slot request arrivals, packed into flat arrays.

    Produced by :meth:`RequestGenerator.generate_horizon`; the vectorised
    and seed-batched simulator loops consume it instead of calling back into
    the workload model every slot.  Arrival batches are stored in generation
    order — one batch per (slot, RSU-with-arrivals) pair — with CSR-style
    pointer arrays, so reading one slot is pure array slicing.

    Attributes
    ----------
    num_slots, num_rsus:
        Shape of the horizon.
    batch_rsus:
        RSU id of each arrival batch, in generation order.
    batch_ptr:
        ``batch_ptr[i]:batch_ptr[i+1]`` slices :attr:`content_ids` to the
        contents requested by batch ``i``.
    content_ids:
        All requested content ids, concatenated across batches.
    slot_ptr:
        ``slot_ptr[t]:slot_ptr[t+1]`` is the range of batch indices issued
        in slot ``t``.
    """

    num_slots: int
    num_rsus: int
    batch_rsus: np.ndarray
    batch_ptr: np.ndarray
    content_ids: np.ndarray
    slot_ptr: np.ndarray

    @property
    def total_requests(self) -> int:
        """Total number of requests over the horizon."""
        return int(self.content_ids.size)

    def slot_batches(self, time_slot: int) -> List[Tuple[int, np.ndarray]]:
        """Return slot *time_slot*'s arrivals as ``(rsu_id, content_ids)`` pairs.

        The pairs carry array *views* into the packed horizon, in the same
        order :meth:`RequestGenerator.generate_slot_contents` would produce
        them — bit for bit.
        """
        if not 0 <= time_slot < self.num_slots:
            raise ValidationError(
                f"time_slot {time_slot} outside horizon [0, {self.num_slots})"
            )
        start, stop = int(self.slot_ptr[time_slot]), int(self.slot_ptr[time_slot + 1])
        return [
            (
                int(self.batch_rsus[i]),
                self.content_ids[self.batch_ptr[i] : self.batch_ptr[i + 1]],
            )
            for i in range(start, stop)
        ]

    def counts(self) -> np.ndarray:
        """Arrival counts as a dense ``(num_slots, num_rsus)`` matrix."""
        matrix = np.zeros((self.num_slots, self.num_rsus), dtype=int)
        sizes = np.diff(self.batch_ptr)
        for t in range(self.num_slots):
            for i in range(int(self.slot_ptr[t]), int(self.slot_ptr[t + 1])):
                matrix[t, int(self.batch_rsus[i])] += int(sizes[i])
        return matrix


class RequestGenerator:
    """Generates per-RSU request batches for each simulation slot.

    Each slot, every RSU independently draws an arrival count from the
    arrival process and then draws that many content ids from the RSU's
    local popularity distribution (restricted to the contents the RSU
    caches, per the paper's "only the content of the region covered by the
    RSU is cached").

    This class is also the sampling engine behind :mod:`repro.workloads`:
    non-stationary request-process models subclass it and override the
    :meth:`_advance_to` / :meth:`_weights` / :meth:`_cdf` hooks to evolve
    the per-RSU popularity over time, inheriting the exact per-slot RNG
    draw discipline that keeps the scalar, vectorised, and seed-batched
    simulator loops on identical workloads.

    Parameters
    ----------
    topology:
        Road geometry; defines which contents each RSU can be asked for.
    catalog:
        Content catalog providing the global popularity profile.
    arrivals:
        Arrival process applied independently at every RSU.
    zipf_exponent:
        When not ``None``, overrides the catalog popularity with a Zipf
        profile of this exponent over each RSU's local contents.
    rng:
        Seed or generator for the workload.
    """

    def __init__(
        self,
        topology: RoadTopology,
        catalog: ContentCatalog,
        *,
        arrivals: Optional[ArrivalProcess] = None,
        zipf_exponent: Optional[float] = None,
        rng: RandomSource = None,
    ) -> None:
        if catalog.num_contents != topology.num_regions:
            raise ConfigurationError(
                f"catalog has {catalog.num_contents} contents but topology has "
                f"{topology.num_regions} regions; the paper's model requires one "
                "content per region"
            )
        self._topology = topology
        self._catalog = catalog
        self._arrivals = arrivals or BernoulliArrivals(0.5)
        self._rng = ensure_rng(rng)
        self._id_counter = itertools.count()
        self._local_popularity: Dict[int, np.ndarray] = {}
        self._local_contents: Dict[int, Tuple[int, ...]] = {}
        # Cached integer arrays of each RSU's contents so the hot path can
        # fancy-index the chosen contents instead of round-tripping through
        # a Python list comprehension.
        self._local_content_arrays: Dict[int, np.ndarray] = {}
        # Per-RSU sampling CDFs, built once: the popularity never changes.
        self._local_cdf: Dict[int, np.ndarray] = {}
        for rsu in topology.rsus:
            contents = rsu.covered_regions
            self._local_contents[rsu.rsu_id] = contents
            self._local_content_arrays[rsu.rsu_id] = np.asarray(contents, dtype=int)
            if zipf_exponent is None:
                weights = catalog.subset_popularity(contents)
            else:
                weights = zipf_popularity(len(contents), zipf_exponent)
            self._local_popularity[rsu.rsu_id] = check_probability_vector(
                weights, f"popularity of RSU {rsu.rsu_id}"
            )
            self._local_cdf[rsu.rsu_id] = sampling_cdf(
                self._local_popularity[rsu.rsu_id]
            )

    @property
    def arrivals(self) -> ArrivalProcess:
        """The arrival process applied at each RSU."""
        return self._arrivals

    @property
    def mean_load_per_rsu(self) -> float:
        """Expected number of requests per RSU per slot."""
        return self._arrivals.mean

    def local_popularity(self, rsu_id: int) -> np.ndarray:
        """Popularity distribution over RSU *rsu_id*'s cached contents."""
        if rsu_id not in self._local_popularity:
            raise ValidationError(f"unknown RSU id {rsu_id}")
        return self._local_popularity[rsu_id].copy()

    def content_population(self, rsu_id: int) -> Dict[int, float]:
        """Return ``{content_id: probability}`` for RSU *rsu_id*.

        This is the content-population term ``p_{k,h}(t)`` of the MDP state
        and of the Eq. (2) reward: the weight the MBS puts on keeping each
        RSU content fresh, proportional to how often it is requested.
        """
        contents = self._local_contents[self._check_rsu(rsu_id)]
        weights = self._local_popularity[rsu_id]
        return {int(h): float(w) for h, w in zip(contents, weights)}

    # ------------------------------------------------------------------
    # Hooks for non-stationary request-process models (repro.workloads)
    # ------------------------------------------------------------------
    def _advance_to(self, time_slot: int) -> None:
        """Evolve internal workload state up to *time_slot*.

        The stationary generator has no evolving state and draws nothing
        here — which is what keeps its RNG stream byte-identical to the
        pre-workload-subsystem behaviour.  Non-stationary subclasses advance
        a slot cursor and draw their evolution variates from ``self._rng``;
        because every execution mode samples slots in the same order, the
        draw sequence stays identical across modes.
        """

    def _weights(self, rsu_id: int, time_slot: int) -> np.ndarray:
        """Popularity over RSU *rsu_id*'s contents in effect at *time_slot*."""
        return self._local_popularity[rsu_id]

    def _cdf(self, rsu_id: int, time_slot: int) -> np.ndarray:
        """:func:`sampling_cdf` of :meth:`_weights`, kept in step with it."""
        return self._local_cdf[rsu_id]

    def _slot_batches(self, time_slot: int) -> List[Tuple[int, np.ndarray]]:
        """Sample one slot's arrivals: the single RNG-drawing core.

        Every public generation method funnels through here, so all of them
        perform exactly the same draws in exactly the same order: first the
        state evolution of :meth:`_advance_to`, then per RSU (in topology
        order) one arrival-count sample, then, when that RSU has arrivals,
        one block of ``count`` uniforms mapped to contents by a
        ``searchsorted`` on the RSU's precomputed CDF.  That is the draw
        ``rng.choice(n, size=count, p=weights)`` makes internally: it
        consumes the same RNG doubles and picks the same contents, without
        re-validating and re-summing the weights on every call.
        """
        if time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {time_slot}")
        self._advance_to(time_slot)
        batches: List[Tuple[int, np.ndarray]] = []
        for rsu in self._topology.rsus:
            count = self._arrivals.sample(self._rng)
            if count <= 0:
                continue
            contents = self._local_content_arrays[rsu.rsu_id]
            cdf = self._cdf(rsu.rsu_id, time_slot)
            chosen = cdf.searchsorted(self._rng.random(count), side="right")
            batches.append((rsu.rsu_id, contents[chosen]))
        return batches

    def generate_slot(
        self,
        time_slot: int,
        *,
        deadline_slots: Optional[int] = None,
    ) -> List[Request]:
        """Generate all requests issued in *time_slot* across all RSUs."""
        requests: List[Request] = []
        deadline = (
            None if deadline_slots is None else int(time_slot + deadline_slots)
        )
        for rsu_id, content_ids in self._slot_batches(time_slot):
            for content_id in content_ids:
                requests.append(
                    Request(
                        request_id=next(self._id_counter),
                        time_slot=int(time_slot),
                        rsu_id=rsu_id,
                        content_id=int(content_id),
                        deadline=deadline,
                    )
                )
        return requests

    def generate_slot_contents(self, time_slot: int) -> List[Tuple[int, np.ndarray]]:
        """Generate one slot's arrivals as ``(rsu_id, content_ids)`` pairs.

        This is the allocation-free twin of :meth:`generate_slot` used by the
        vectorised simulators: it performs *exactly* the same RNG draws in
        exactly the same order (one arrival-count sample per RSU, then one
        CDF ``searchsorted`` draw per RSU with arrivals), so a run consuming
        this method sees the same workload, bit for bit, as one consuming
        :meth:`generate_slot` — it just skips building per-request
        :class:`Request` objects.
        """
        return self._slot_batches(time_slot)

    def generate_horizon(self, num_slots: int) -> WorkloadHorizon:
        """Precompute *num_slots* slots of arrivals as one packed tensor.

        Performs the identical draw sequence as *num_slots* successive
        :meth:`generate_slot_contents` calls (it is implemented on top of
        the same sampling core), then packs the batches into flat arrays so
        the simulator hot loops can replay the workload with pure array
        slicing — no per-slot calls back into the workload model.
        """
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be > 0, got {num_slots}")
        batch_rsus: List[int] = []
        batch_sizes: List[int] = [0]
        chunks: List[np.ndarray] = []
        slot_ptr = np.zeros(int(num_slots) + 1, dtype=int)
        for t in range(int(num_slots)):
            batches = self._slot_batches(t)
            slot_ptr[t + 1] = slot_ptr[t] + len(batches)
            for rsu_id, content_ids in batches:
                batch_rsus.append(rsu_id)
                batch_sizes.append(int(content_ids.size))
                chunks.append(content_ids)
        return WorkloadHorizon(
            num_slots=int(num_slots),
            num_rsus=self._topology.num_rsus,
            batch_rsus=np.asarray(batch_rsus, dtype=int),
            batch_ptr=np.cumsum(batch_sizes, dtype=int),
            content_ids=(
                np.concatenate(chunks) if chunks else np.zeros(0, dtype=int)
            ),
            slot_ptr=slot_ptr,
        )

    def generate_trace(
        self, num_slots: int, *, deadline_slots: Optional[int] = None
    ) -> List[Request]:
        """Generate a full request trace of *num_slots* slots."""
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be > 0, got {num_slots}")
        trace: List[Request] = []
        for t in range(int(num_slots)):
            trace.extend(self.generate_slot(t, deadline_slots=deadline_slots))
        return trace

    def _check_rsu(self, rsu_id: int) -> int:
        if rsu_id not in self._local_contents:
            raise ValidationError(f"unknown RSU id {rsu_id}")
        return int(rsu_id)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"RequestGenerator(num_rsus={self._topology.num_rsus}, "
            f"arrivals={self._arrivals!r})"
        )
