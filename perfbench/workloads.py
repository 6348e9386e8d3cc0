"""Workload definitions shared by the set-up probe and the timed phase.

Every input is a pure function of the workload seed: the scenario (its
topology, content ages and cost draws), the experiment grid, and the
pre-generated request records the ``serve-live`` client sends.  The
program under test receives only these generated inputs.

All four workloads run the paper's scenario size: 32 RSUs x 20 contents
with Poisson arrivals (one request per RSU per slot on average).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any, List, Sequence, Tuple

WORKLOADS = ("paper-grid", "fading-solve", "multihop-onpath", "serve-live")

#: Joint two-stage pairing of the paper: MDP cache updates, Lyapunov service.
JOINT = ("mdp", "lyapunov")
#: On-path strategies run side by side by ``multihop-onpath``: a copy at
#: every hop (write-heavy) and probabilistic caching (read-heavy).
ONPATH = ("lce", "probcache")

#: ``paper-grid``: the Lyapunov trade-off sweep x 4 replicate seeds.
GRID_TRADEOFF_V = (1.0, 10.0)
GRID_SEEDS = 4
GRID_SLOTS = 300
GRID_WORKERS = 2
#: ``fading-solve``: the fading gain changes every slot, so the MDP re-solves.
FADING_SEEDS = 2
FADING_SLOTS = 40
#: ``multihop-onpath``: line topology, both strategies in one pass.
MULTIHOP_SEEDS = 2
MULTIHOP_SLOTS = 100
#: ``serve-live``: two closed-loop connections; each session replays the
#: same pre-generated stream of this many slots, closes, and a fresh
#: session opens on a new connection.
SERVE_CONNECTIONS = 2
SERVE_SESSION_SLOTS = 200
#: Slots between two host-speed reference timings inside a ``serve-live``
#: round (about 0.1 s on the reference host).  With one timing per round
#: (0.4 s) the referenced slots/s and p50 spread by 17-18% of their
#: medians over ten seeds.
SERVE_CHECKPOINT_SLOTS = 50
#: In-process live-session probe of the batch workloads: slots per session,
#: distinct pre-generated sessions (cycled) and timed sessions per run (a
#: fixed count, after one untimed session per policy set).  The counts give
#: each probe 1.5-4 s of sessions on the reference host: a shorter window
#: caught single phases of the host's speed, and the paper-grid p50 then
#: spread by 41% of its median over five seeds.
PROBE_SLOTS = 50
PROBE_DISTINCT_SESSIONS = 4
PROBE_SESSIONS = {"paper-grid": 64, "fading-solve": 16, "multihop-onpath": 20}
#: Seed of the scenario the live probe opens.  It is the same in every run:
#: under fading cost the per-slot work (how many MDPs re-solve) is set by
#: the scenario's gain draws, and with a per-run scenario the probe's p50
#: moved 14% between seeds.  The probe's request streams come from the
#: workload seed.
PROBE_SCENARIO_SEED = 7


def base_scenario(seed: int, **overrides: Any):
    """The 32x20 Poisson scenario every workload starts from."""
    from repro import ScenarioConfig

    fields = dict(
        num_rsus=32,
        contents_per_rsu=20,
        num_slots=GRID_SLOTS,
        arrival_kind="poisson",
        arrival_rate=1.0,
        cost_model_kind="constant",
        seed=int(seed),
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


def scenario_for(workload: str, seed: int):
    """The scenario a workload simulates (and its live probe opens)."""
    if workload == "fading-solve":
        return base_scenario(seed, cost_model_kind="fading", num_slots=FADING_SLOTS)
    if workload == "multihop-onpath":
        return base_scenario(seed, topology_kind="line", num_slots=MULTIHOP_SLOTS)
    if workload in ("paper-grid", "serve-live"):
        return base_scenario(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def policies_for(workload: str) -> Sequence[Any]:
    """The policy sets a workload runs: one entry per simulated pairing."""
    if workload == "multihop-onpath":
        return ONPATH
    return (JOINT,)


def grid_specs(seed: int, *, num_seeds: int = GRID_SEEDS, num_slots: int = GRID_SLOTS):
    """``paper-grid``'s declarative specs: joint runs over the V sweep."""
    from repro import ExperimentSpec

    scenario = base_scenario(seed, num_slots=num_slots)
    return [
        ExperimentSpec(
            kind="joint",
            scenario=scenario.with_overrides(tradeoff_v=v),
            policy=JOINT[0],
            service_policy=JOINT[1],
            seed=int(seed),
            num_seeds=num_seeds,
            metrics="summary",
            label=f"V={v:g}",
        )
        for v in GRID_TRADEOFF_V
    ]


def slot_records(scenario, num_slots: int) -> List[List[Tuple[int, int]]]:
    """Per-slot ``(rsu, content)`` requests drawn from *scenario*'s workload.

    The scenario's own generator only emits pairs the topology caches
    (content = rsu * contents_per_rsu + j), so the server accepts them all.
    """
    from repro.sim.system import SystemState

    horizon = SystemState(scenario).workload.generate_horizon(num_slots)
    return [
        [
            (int(rsu), int(content))
            for rsu, contents in horizon.slot_batches(t)
            for content in contents
        ]
        for t in range(num_slots)
    ]


def session_seed(seed: int, connection: int, index: int) -> int:
    """Seed of one pre-generated session's request stream."""
    return int(seed) * 1000 + connection * 100 + index


def digest(value: Any) -> str:
    """Order-stable hash of JSON-like output (floats hashed by ``repr``)."""

    def canonical(item: Any) -> Any:
        if isinstance(item, float):
            return "nan" if math.isnan(item) else repr(item)
        if isinstance(item, dict):
            return {str(key): canonical(val) for key, val in item.items()}
        if isinstance(item, (list, tuple)):
            return [canonical(val) for val in item]
        if hasattr(item, "item"):  # numpy scalar
            return canonical(item.item())
        return item

    payload = json.dumps(canonical(value), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def serve_scenario(seed: int, directory: str):
    """``serve-live``'s request stream and the scenario that replays it.

    The records are written as a trace file and the served scenario's
    workload is that trace (a trace workload takes its content popularity
    from the file), so every session's close summary must equal an
    offline ``simulate()`` of the scenario.  Writes ``scenario.json`` for
    ``repro.cli serve --scenario``; returns ``(scenario, records, path)``.
    """
    from repro.workloads.codec import encode_meta, encode_record

    records = slot_records(
        base_scenario(session_seed(seed, 0, 0)), SERVE_SESSION_SLOTS
    )
    trace_path = os.path.join(directory, "serve-trace.jsonl")
    with open(trace_path, "w", encoding="utf-8") as handle:
        handle.write(encode_meta(len(records)) + "\n")
        for t, slot in enumerate(records):
            for rsu, content in slot:
                handle.write(encode_record(t, rsu, content) + "\n")
    scenario = scenario_for("serve-live", seed).with_overrides(
        workload=f"trace:path={trace_path}"
    )
    scenario_path = os.path.join(directory, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as handle:
        json.dump(scenario.to_dict(), handle)
    return scenario, records, scenario_path
