"""RSU cache state.

Each RSU caches exactly one copy of each content describing the regions it
covers.  The cache tracks the age of every copy (via
:class:`~repro.core.aoi.AoIVector`), applies MBS-pushed updates, and answers
freshness queries used by both the MDP reward and the Lyapunov service
constraint ("guaranteeing the valid content service").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aoi import AoIVector
from repro.exceptions import CacheError, ValidationError
from repro.net.content import ContentCatalog
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_index, check_positive_int


@dataclass(frozen=True)
class CacheEntry:
    """A snapshot of one cached content copy."""

    content_id: int
    age: float
    max_age: float

    @property
    def is_fresh(self) -> bool:
        """Whether the copy is within its maximum tolerable age."""
        return self.age <= self.max_age

    @property
    def utility(self) -> float:
        """AoI utility ``A_max / A`` of this copy."""
        return self.max_age / max(self.age, 1.0)


class RSUCache:
    """The cache of one RSU.

    Parameters
    ----------
    rsu_id:
        Identifier of the owning RSU.
    content_ids:
        Ids of the contents this RSU caches (the regions it covers).
    catalog:
        Content catalog, providing per-content maximum ages.
    initial_ages:
        Optional starting ages (defaults to all fresh).  The paper's
        evaluation draws them at random; use :meth:`randomize_ages`.
    age_ceiling:
        Saturation value for ages; defaults to twice the largest ``A_max``
        among the cached contents.
    """

    def __init__(
        self,
        rsu_id: int,
        content_ids: Sequence[int],
        catalog: ContentCatalog,
        *,
        initial_ages: Optional[Sequence[float]] = None,
        age_ceiling: Optional[float] = None,
    ) -> None:
        content_ids = [int(h) for h in content_ids]
        if not content_ids:
            raise CacheError(f"RSU {rsu_id} cache must hold at least one content")
        if len(set(content_ids)) != len(content_ids):
            raise CacheError(f"RSU {rsu_id} cache has duplicate content ids")
        self._rsu_id = int(rsu_id)
        self._content_ids: List[int] = content_ids
        self._catalog = catalog
        max_ages = [catalog[h].max_age for h in content_ids]
        self._aoi = AoIVector(
            max_ages, initial_ages=initial_ages, ceiling=age_ceiling
        )
        self._slot_to_content = dict(enumerate(content_ids))
        self._content_to_slot = {h: i for i, h in self._slot_to_content.items()}
        self._update_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rsu_id(self) -> int:
        """Identifier of the owning RSU."""
        return self._rsu_id

    @property
    def content_ids(self) -> List[int]:
        """Ids of the cached contents, in slot order."""
        return list(self._content_ids)

    @property
    def capacity(self) -> int:
        """Number of cache slots (== number of covered regions)."""
        return len(self._content_ids)

    @property
    def ages(self) -> np.ndarray:
        """Current ages of the cached copies, in slot order."""
        return self._aoi.ages

    @property
    def max_ages(self) -> np.ndarray:
        """Maximum tolerable ages of the cached contents, in slot order."""
        return self._aoi.max_ages

    @property
    def age_ceiling(self) -> float:
        """Saturation value of the cache's age counters."""
        return self._aoi.ceiling

    @property
    def utilities(self) -> np.ndarray:
        """Per-slot AoI utilities ``A_max / A``."""
        return self._aoi.utilities

    @property
    def violations(self) -> np.ndarray:
        """Boolean mask of cached copies exceeding their maximum age."""
        return self._aoi.violations

    @property
    def update_count(self) -> int:
        """Number of MBS updates applied to this cache so far."""
        return self._update_count

    def holds(self, content_id: int) -> bool:
        """Whether this cache holds a copy of *content_id*."""
        return content_id in self._content_to_slot

    def entry(self, content_id: int) -> CacheEntry:
        """Return a snapshot of the cached copy of *content_id*."""
        slot = self._slot_of(content_id)
        return CacheEntry(
            content_id=content_id,
            age=float(self._aoi[slot]),
            max_age=float(self._aoi.max_ages[slot]),
        )

    def entries(self) -> List[CacheEntry]:
        """Return snapshots of all cached copies."""
        return [self.entry(h) for h in self._content_ids]

    def age_of(self, content_id: int) -> float:
        """Return the age of the cached copy of *content_id*."""
        return float(self._aoi[self._slot_of(content_id)])

    def is_fresh(self, content_id: int) -> bool:
        """Whether the cached copy of *content_id* is within its ``A_max``."""
        return self.entry(content_id).is_fresh

    def slot_of(self, content_id: int) -> int:
        """Return the cache-slot index of *content_id*."""
        return self._slot_of(content_id)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def tick(self, slots: int = 1) -> None:
        """Age every cached copy by *slots*."""
        self._aoi.tick(slots)

    def apply_update(self, content_id: int, *, delivered_age: float = 1.0) -> None:
        """Apply an MBS-pushed refresh of *content_id*."""
        slot = self._slot_of(content_id)
        self._aoi.refresh(slot, delivered_age)
        self._update_count += 1

    def randomize_ages(
        self,
        rng: RandomSource = None,
        *,
        low: float = 1.0,
        high: Optional[float] = None,
    ) -> None:
        """Draw every cached copy's age uniformly at random.

        Mirrors the paper's evaluation setup where "the initial content AoI
        value of the MBS and RSU ... [is] determined as random".  Ages are
        drawn uniformly from ``[low, high]`` per content; *high* defaults to
        each content's own maximum age so the initial state is feasible.
        """
        generator = ensure_rng(rng)
        if low < 1.0:
            raise ValidationError(f"low must be >= 1, got {low}")
        max_ages = self._aoi.max_ages
        highs = np.full_like(max_ages, float(high)) if high is not None else max_ages
        if np.any(highs < low):
            raise ValidationError(
                f"high ({high}) must be >= low ({low}) for every content"
            )
        ages = generator.uniform(low, highs)
        self._aoi.set_ages(np.maximum(ages, 1.0))

    def snapshot(self) -> Dict[int, float]:
        """Return ``{content_id: age}`` for all cached copies."""
        return {h: self.age_of(h) for h in self._content_ids}

    def restore(self, snapshot: Dict[int, float]) -> None:
        """Restore ages from a :meth:`snapshot` dictionary."""
        ages = self._aoi.ages
        for content_id, age in snapshot.items():
            ages[self._slot_of(content_id)] = float(age)
        self._aoi.set_ages(ages)

    def _slot_of(self, content_id: int) -> int:
        try:
            return self._content_to_slot[int(content_id)]
        except KeyError:
            raise CacheError(
                f"RSU {self._rsu_id} does not cache content {content_id}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"RSUCache(rsu_id={self._rsu_id}, capacity={self.capacity}, "
            f"updates={self._update_count})"
        )


class MBSContentStore:
    """The macro base station's own content store.

    The paper assumes "the MBS has all the new contents generated at each
    time slot", i.e. the MBS copy of each content has age 1 at the start of
    every slot.  Keeping an explicit store nonetheless lets experiments relax
    that assumption (generation every ``g`` slots) and exposes the MBS-side
    ages that the MDP state formally includes.

    Parameters
    ----------
    catalog:
        The content catalog.
    generation_period:
        Number of slots between fresh generations of each content; the
        paper's assumption corresponds to the default of 1.
    """

    def __init__(self, catalog: ContentCatalog, *, generation_period: int = 1) -> None:
        if generation_period < 1:
            raise ValidationError(
                f"generation_period must be >= 1, got {generation_period}"
            )
        self._catalog = catalog
        self._period = int(generation_period)
        self._aoi = AoIVector(catalog.max_ages)

    @property
    def generation_period(self) -> int:
        """Slots between fresh content generations at the MBS."""
        return self._period

    @property
    def ages(self) -> np.ndarray:
        """Current ages of the MBS copies of all contents."""
        return self._aoi.ages

    def age_of(self, content_id: int) -> float:
        """Age of the MBS copy of *content_id*."""
        check_index(content_id, self._catalog.num_contents, label="content id")
        return float(self._aoi[content_id])

    def tick(self, time_slot: int) -> None:
        """Advance one slot: age all copies, regenerating those that are due."""
        if time_slot % self._period == 0:
            # Regeneration overwrites every age, so ageing first is moot.
            self._aoi.refresh_all(1.0)
        else:
            self._aoi.tick(1)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"MBSContentStore(num_contents={self._catalog.num_contents})"


class LruContentCache:
    """A bounded per-node cache with LRU eviction and per-copy ages.

    Unlike :class:`RSUCache` (a fixed content set whose ages the MDP
    refreshes in place), this cache backs the multi-hop network core:
    on-path strategies insert arbitrary contents as they travel the
    delivery path, and the least-recently-used copy is evicted once the
    node is full.  Each copy carries the age it had at insertion time and
    ages by one per slot, so freshness queries compose with the AoI
    machinery of the rest of the library.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = check_positive_int(capacity, "capacity")
        # content id -> age; insertion order == LRU order (oldest first).
        self._entries: "OrderedDict[int, float]" = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum number of copies this node can hold."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, content_id: int) -> bool:
        return int(content_id) in self._entries

    def has(self, content_id: int) -> bool:
        """Whether a copy of *content_id* is held (no LRU promotion)."""
        return int(content_id) in self._entries

    def contents(self) -> List[int]:
        """Held content ids, least-recently-used first."""
        return list(self._entries)

    def age_of(self, content_id: int) -> float:
        """Age of the held copy of *content_id*."""
        content_id = int(content_id)
        if content_id not in self._entries:
            raise CacheError(f"content {content_id} is not cached at this node")
        return self._entries[content_id]

    def get(self, content_id: int) -> bool:
        """Look up *content_id*, promoting it to most-recently-used on a hit."""
        content_id = int(content_id)
        if content_id not in self._entries:
            return False
        self._entries.move_to_end(content_id)
        return True

    def put(self, content_id: int, *, age: float = 1.0) -> Optional[int]:
        """Insert (or refresh) a copy of *content_id* with the given *age*.

        Returns the content id evicted to make room, or ``None``.
        """
        content_id = int(content_id)
        if content_id in self._entries:
            self._entries[content_id] = float(age)
            self._entries.move_to_end(content_id)
            return None
        evicted: Optional[int] = None
        if len(self._entries) >= self._capacity:
            evicted, _ = self._entries.popitem(last=False)
        self._entries[content_id] = float(age)
        return evicted

    def tick(self, slots: int = 1) -> None:
        """Age every held copy by *slots* time slots."""
        if slots < 0:
            raise ValidationError(f"slots must be >= 0, got {slots}")
        if slots:
            for content_id in self._entries:
                self._entries[content_id] += float(slots)

    def clear(self) -> None:
        """Drop every held copy."""
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"LruContentCache(capacity={self._capacity}, "
            f"held={len(self._entries)})"
        )
