"""Timed phase of one benchmark run, in a process of its own.

``run.py`` starts this module once per run, after the set-up probes, so
``RUSAGE_SELF``/``RUSAGE_CHILDREN`` cover only the program's work (this
process and its pool workers).  It prints one JSON line::

    {"metrics": {...}, "attempted": n, "failed": k, "checks": [...]}

Usage (normally through ``run.py``)::

    python3 perfbench/measure.py --workload paper-grid --seed 1 \
        --seconds 10 --trace 0 --workdir <scratch dir inside the checkout>
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

from repro import ExperimentRunner, open_session, simulate  # noqa: E402
from repro.core.solve_cache import reset_solve_cache  # noqa: E402
from repro.serve.protocol import sanitize  # noqa: E402
from repro.workloads.codec import encode_record  # noqa: E402

DIGESTS_PATH = os.path.join(HERE, "digests.json")
#: Seed of the fixed-input canary whose output digest is pinned per workload.
CANARY_SEED = 20221
#: Lower bound on timed passes per phase, so every median has company.
MIN_PASSES = 3
#: Latency samples per block when taking p99 (see ``latency_metrics``).
P99_BLOCK = 1000


class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Scratch:
    """Fresh program state per pass: solve-cache and run-store directories."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._count = 0

    def directory(self, tag: str) -> str:
        self._count += 1
        path = os.path.join(self.root, f"{tag}-{self._count}")
        os.makedirs(path)
        return path

    def fresh_solve_cache(self) -> str:
        """Point the global MDP solve cache at an empty directory."""
        path = self.directory("solves")
        os.environ["REPRO_SOLVE_CACHE_DIR"] = path
        reset_solve_cache()
        return path


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Batch workloads: one pass = one identical unit of work


class BatchWorkload:
    """A workload timed as repeated identical passes."""

    name = ""

    def __init__(self, seed: int, scratch: Scratch, checks: Checks) -> None:
        self.seed = seed
        self.scratch = scratch
        self.checks = checks
        self.pass_digests: List[str] = []

    def run_pass(self) -> Tuple[int, Any]:
        """Run one pass; returns (simulated slots, comparable output)."""
        raise NotImplementedError

    def after_pass(self, output: Any) -> None:
        """Extra per-pass checks (untimed)."""

    def canary(self) -> Any:
        """Fixed-seed output whose digest is pinned in ``digests.json``."""
        raise NotImplementedError

    def timed_passes(
        self,
        seconds: float,
        host: HostSpeed,
        on_pass: Optional[Callable[[], None]] = None,
    ) -> Tuple[List[float], List[float]]:
        """Run passes for *seconds* (at least MIN_PASSES).

        Returns slots/s per pass, referenced to the host speed and raw.
        """
        spans: List[Tuple[float, float]] = []
        slots_done: List[int] = []
        started = time.perf_counter()
        while len(spans) < MIN_PASSES or time.perf_counter() - started < seconds:
            if on_pass is not None:
                on_pass()
            host.sample()
            begin = time.perf_counter()
            slots, output = self.run_pass()
            spans.append((begin, time.perf_counter()))
            slots_done.append(slots)
            digest = wl.digest(output)
            self.pass_digests.append(digest)
            self.checks.expect(
                digest == self.pass_digests[0],
                f"{self.name}: pass {len(spans)} output differs from pass 1",
            )
            self.after_pass(output)
        host.sample()
        referenced = host.referenced(spans)
        rates = [slots / took for slots, took in zip(slots_done, referenced)]
        raw = [slots / (end - start) for slots, (start, end) in zip(slots_done, spans)]
        return rates, raw


class PaperGrid(BatchWorkload):
    """``ExperimentRunner(workers=2).run_grid`` over the V sweep, cold then warm."""

    name = "paper-grid"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.specs = wl.grid_specs(self.seed)
        self.runner = ExperimentRunner(workers=wl.GRID_WORKERS)
        self.cold_stats: List[Dict[str, Any]] = []
        self.warm_ms: List[float] = []
        self.warm_stats: List[Dict[str, Any]] = []
        self._store = ""

    def run_pass(self) -> Tuple[int, Any]:
        self.scratch.fresh_solve_cache()
        self._store = self.scratch.directory("runs")
        batch = self.runner.run_grid(self.specs, store=self._store)
        self.cold_stats.append(self.runner.last_dispatch_stats)
        return len(batch.records) * wl.GRID_SLOTS, batch.rows()

    def after_pass(self, output: Any) -> None:
        began = time.perf_counter()
        warm = self.runner.run_grid(self.specs, store=self._store)
        self.warm_ms.append((time.perf_counter() - began) * 1000.0)
        stats = self.runner.last_dispatch_stats
        self.warm_stats.append(stats)
        self.checks.expect(
            warm.rows() == output, "paper-grid: warm pass rows differ from the cold pass"
        )
        self.checks.expect(
            stats["run_store"]["cells_dispatched"] == 0,
            f"paper-grid: warm pass dispatched {stats['run_store']['cells_dispatched']} cells",
        )

    def canary(self) -> Any:
        self.scratch.fresh_solve_cache()
        specs = wl.grid_specs(CANARY_SEED, num_seeds=2, num_slots=40)
        return self.runner.run_grid(specs, store=self.scratch.directory("runs")).rows()

    def runtime_metrics(self) -> Dict[str, float]:
        """Dispatch numbers from the runner's public ``last_dispatch_stats``."""

        def med(stats: List[Dict[str, Any]], pick: Callable[[Dict[str, Any]], float]) -> float:
            return median([pick(entry) for entry in stats])

        cold = self.cold_stats
        return {
            "runtime.runner.dispatch_ms": med(cold, lambda s: s["wall_seconds"] * 1000.0),
            "runtime.runner.task_ms_total": med(cold, lambda s: s["task_seconds_total"] * 1000.0),
            "runtime.runner.worker_busy_ratio": med(
                cold, lambda s: s["task_seconds_total"] / (s["wall_seconds"] * max(1, s["workers"]))
            ),
            "runtime.shm.horizon_precompute_ms": med(
                cold, lambda s: s["horizon_precompute_seconds"] * 1000.0
            ),
            "runtime.shm.setup_ms": med(cold, lambda s: s["shm_setup_seconds"] * 1000.0),
            "runtime.store.warm_pass_ms": median(self.warm_ms),
            "runtime.store.hit_rate": med(self.warm_stats, lambda s: s["run_store"]["hit_rate"]),
            "runtime.store.cells_dispatched": med(
                self.warm_stats, lambda s: s["run_store"]["cells_dispatched"]
            ),
        }


class FadingSolve(BatchWorkload):
    """In-process ``simulate()`` of the joint stack under fading costs."""

    name = "fading-solve"

    def run_pass(self) -> Tuple[int, Any]:
        self.scratch.fresh_solve_cache()
        scenario = wl.scenario_for(self.name, self.seed)
        results = simulate(scenario, wl.JOINT, seeds=wl.FADING_SEEDS, metrics="summary")
        return wl.FADING_SEEDS * wl.FADING_SLOTS, [r.summary() for r in results]

    def canary(self) -> Any:
        self.scratch.fresh_solve_cache()
        scenario = wl.scenario_for(self.name, CANARY_SEED).with_overrides(num_slots=12)
        return [r.summary() for r in simulate(scenario, wl.JOINT, seeds=1, metrics="summary")]


class MultihopOnpath(BatchWorkload):
    """In-process multihop ``simulate()``: ``lce`` and ``probcache`` per pass."""

    name = "multihop-onpath"

    def run_pass(self) -> Tuple[int, Any]:
        scenario = wl.scenario_for(self.name, self.seed)
        outputs = []
        for policy in wl.ONPATH:
            results = simulate(scenario, policy, seeds=wl.MULTIHOP_SEEDS, metrics="summary")
            outputs.append([r.summary() for r in results])
        return len(wl.ONPATH) * wl.MULTIHOP_SEEDS * wl.MULTIHOP_SLOTS, outputs

    def canary(self) -> Any:
        scenario = wl.scenario_for(self.name, CANARY_SEED).with_overrides(num_slots=30)
        return [
            [r.summary() for r in simulate(scenario, policy, seeds=1, metrics="summary")]
            for policy in wl.ONPATH
        ]


BATCH = {cls.name: cls for cls in (PaperGrid, FadingSolve, MultihopOnpath)}


def live_probe(workload: BatchWorkload, host: HostSpeed) -> Dict[str, float]:
    """Live-session latency of a batch workload's scenario, in-process.

    The benchmark reports every end-to-end metric on every workload, and a
    batch workload has no wire; this is its scenario served live.  The
    scenario has the fixed seed ``PROBE_SCENARIO_SEED``; the request
    streams come from the workload seed.

    The serving mode's per-slot step without the wire: each session applies
    one slot's pre-generated requests and takes a snapshot, per slot.  Like
    a long-running server, the probe keeps one solve cache: an untimed
    warm-up session per policy set fills it, then ``PROBE_SESSIONS[name]``
    sessions open and run.  Multihop alternates its two strategies.
    """
    name, seed, checks = workload.name, workload.seed, workload.checks
    policy_sets = wl.policies_for(name)
    inputs = [
        wl.slot_records(
            wl.scenario_for(name, wl.session_seed(seed, 9, index)), wl.PROBE_SLOTS
        )
        for index in range(wl.PROBE_DISTINCT_SESSIONS)
    ]
    scenario = wl.scenario_for(name, wl.PROBE_SCENARIO_SEED)
    workload.scratch.fresh_solve_cache()
    opens: List[Tuple[float, float]] = []
    steps: List[Tuple[float, float]] = []

    def session(index: int) -> None:
        records = inputs[index % len(inputs)]
        began = time.perf_counter()
        live = open_session(scenario, policy_sets[index % len(policy_sets)])
        live.step(records[0])
        snapshot = live.snapshot()
        opened = (began, time.perf_counter())
        stepped = []
        for t in range(1, len(records)):
            began = time.perf_counter()
            live.step(records[t])
            snapshot = live.snapshot()
            stepped.append((began, time.perf_counter()))
        checks.expect(
            snapshot["time_slot"] == len(records)
            and snapshot["dropped"] == 0
            and snapshot["late"] == 0,
            f"{name}: live probe session {index} ended at slot {snapshot['time_slot']}",
        )
        live.close()
        if index >= len(policy_sets):  # the first of each policy set warms up
            opens.append(opened)
            steps.extend(stepped)

    for index in range(len(policy_sets) + wl.PROBE_SESSIONS[name]):
        if index >= len(policy_sets):
            # Sessions last 25-300 ms.  With one reference timing per 0.5 s
            # instead of one per session, the paper-grid p50 spread by
            # 13-18% of its median over ten seeds.
            host.sample()
        session(index)
    host.sample()
    print(
        f"# {name}: live probe {len(steps)} snapshot samples, {len(opens)} opens",
        flush=True,
    )
    return latency_metrics(host, steps, groups_of(opens, len(policy_sets)))


def groups_of(items: List[Any], size: int) -> List[List[Any]]:
    """Consecutive whole groups of *size* items (a trailing part is dropped)."""
    return [items[start : start + size] for start in range(0, len(items) - size + 1, size)]


def latency_metrics(
    host: HostSpeed,
    steps: List[Tuple[float, float]],
    opens: List[List[Tuple[float, float]]],
) -> Dict[str, float]:
    """Referenced latency metrics, in ms, from ``(start, end)`` intervals.

    p50 over all samples; p99 per block of P99_BLOCK consecutive samples
    (10 beyond each block's p99), median over the blocks, so one burst of
    host noise does not set the run's tail.  p99 is returned as
    ``serve.snapshot_p99_ms``, a traced-run metric: across ten seeds its
    IQR reached 46% of its median, beyond any bound an end-to-end metric
    may have.  *opens* holds one group per
    round of session opens that ran together (serve-live: one per
    connection, served one after the other on the server's loop; the
    multihop probe: one per strategy).  Each group counts by its mean, as
    a median over the mixed first- and second-served opens would flip
    between the two.
    """
    latencies = [took * 1000.0 for took in host.referenced(steps)]
    blocks = [
        latencies[start : start + P99_BLOCK]
        for start in range(0, len(latencies) - P99_BLOCK + 1, P99_BLOCK)
    ] or [latencies]
    raw = sorted((end - start) * 1000.0 for start, end in steps)
    p99 = median([percentile(block, 99) for block in blocks])
    print(
        f"# {len(latencies)} snapshot samples: raw p50 {raw[len(raw) // 2]:.4f} ms; "
        f"p99 {p99:.4f} ms over {len(blocks)} blocks",
        flush=True,
    )
    return {
        "snapshot_p50_ms": percentile(latencies, 50),
        "serve.snapshot_p99_ms": p99,
        "session_open_ms": median(
            [statistics.mean(host.referenced(group)) * 1000.0 for group in opens]
        ),
    }


def check_canary(workload: str, output: Any, checks: Checks) -> None:
    digest = wl.digest(output)
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    checks.expect(
        pinned.get(workload) == digest,
        f"{workload}: canary digest {digest} != pinned {pinned.get(workload)}",
    )


def measure_batch(name: str, seed: int, seconds: float, trace: bool, scratch: Scratch) -> Dict[str, Any]:
    checks = Checks()
    workload = BATCH[name](seed, scratch, checks)
    host = HostSpeed()
    if not trace:
        rates, raw = workload.timed_passes(seconds, host)
        print(
            f"# {name}: referenced slots/s per pass {[round(rate, 1) for rate in rates]}; "
            f"raw {[round(rate, 1) for rate in raw]}",
            flush=True,
        )
        metrics = {"slots_per_s": median(rates)}
        metrics.update(live_probe(workload, host))
        metrics["peak_rss_mb"] = peak_rss_mb()
    else:
        untraced, _ = workload.timed_passes(seconds / 2.0, host)
        # The runner's own dispatch report, from the untraced cold passes.
        dispatch = workload.runtime_metrics() if isinstance(workload, PaperGrid) else {}
        worker_dir = scratch.directory("worker-spans")
        tracer = tracing.install(worker_dir=worker_dir)
        documents: List[Dict[str, Any]] = []
        passes = [0]

        def next_pass() -> None:
            # The pass replaces the global solve cache: count the last one's lookups.
            tracer.harvest_solve_cache()
            passes[0] += 1
            tracer.context = passes[0]

        traced, _ = workload.timed_passes(seconds / 2.0, host, on_pass=next_pass)
        tracer.uninstall()
        documents.append(tracer.document())
        for entry in sorted(os.listdir(worker_dir)):
            documents.append(tracing.read_dump(os.path.join(worker_dir, entry)))
        merged = tracing.merge(documents)
        metrics = tracing.layer_metrics(merged, passes[0])
        metrics["trace.overhead_ratio"] = median(untraced) / median(traced)
        metrics["trace.host_factor"] = host.factor()
        metrics.update(dispatch)
        write_trace(scratch, name, merged)
    check_canary(name, workload.canary(), checks)
    return {"metrics": metrics, "checks": checks}


def write_trace(scratch: Scratch, name: str, merged: Dict[str, Any]) -> None:
    """Write the traced run's spans and counters under ``.bench_work/traces``."""
    directory = os.path.join(os.path.dirname(os.path.dirname(scratch.root)), "traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"trace-{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "span_fields": ["name", "start_ns", "end_ns", "parent", "context", "self_ns"],
                "spans": merged["spans"],
                "counts": dict(merged["counts"]),
                "maxima": dict(merged["maxima"]),
            },
            handle,
        )
    print(f"# trace written to {path} ({len(merged['spans'])} spans)", flush=True)


# ----------------------------------------------------------------------
# serve-live: a real `repro.cli serve` subprocess, two closed-loop clients


class Server:
    """A serving subprocess bound to an ephemeral port."""

    def __init__(self, command: List[str], cwd: str) -> None:
        self.process = subprocess.Popen(
            command, cwd=cwd, stdout=subprocess.PIPE, text=True, env=dict(os.environ)
        )
        ready = self.process.stdout.readline().strip()
        if " on " not in ready:
            self.stop()
            raise RuntimeError(f"server did not report its port: {ready!r}")
        self.port = int(ready.rsplit(":", 1)[1])

    def mark(self) -> None:
        """Ask the traced server to start its reported window now."""
        self.process.send_signal(signal.SIGUSR1)
        line = self.process.stdout.readline().strip()
        if line != "marked":
            raise RuntimeError(f"traced server did not mark its window: {line!r}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdout.close()


def serve_command(scenario_path: str, trace_dump: Optional[str]) -> List[str]:
    policies = ["--policy", wl.JOINT[0], "--policy", wl.JOINT[1]]
    if trace_dump is None:
        return [sys.executable, "-m", "repro.cli", "serve", "--scenario", scenario_path, *policies]
    launcher = os.path.join(HERE, "serve_launcher.py")
    return [sys.executable, launcher, "--scenario", scenario_path, "--trace-out", trace_dump, *policies]


def encode_session(records: List[List[Tuple[int, int]]]) -> List[bytes]:
    """One wire payload per slot: the slot's records plus a snapshot op."""
    snapshot = b'{"op": "snapshot"}\n'
    return [
        "".join(encode_record(t, rsu, content) + "\n" for rsu, content in slot).encode("utf-8")
        + snapshot
        for t, slot in enumerate(records)
    ]


class Checkpoint:
    """Holds every connection until all have arrived, then runs *action* once."""

    def __init__(self, parties: int, action: Callable[[], None]) -> None:
        self.parties = parties
        self.action = action
        self.arrived = 0
        self.release: Optional[asyncio.Event] = None

    async def __call__(self) -> None:
        if self.release is None:
            self.release = asyncio.Event()
        release = self.release
        self.arrived += 1
        if self.arrived < self.parties:
            await release.wait()
            return
        self.action()
        self.arrived = 0
        self.release = None
        release.set()


class LiveClient:
    """Closed-loop connections: each sends one slot, then waits for its reply.

    The connections run their sessions in step: every round opens one
    session per connection, runs them concurrently on one event loop, and
    waits for both to close.  The host-speed reference is timed before each
    round and, within it, every ``SERVE_CHECKPOINT_SLOTS`` slots, when both
    connections have their reply and the server is idle.
    """

    def __init__(self, port: int, records: List[List[Tuple[int, int]]], checks: Checks) -> None:
        self.port = port
        self.records = records
        self.payloads = encode_session(records)
        self.checks = checks
        self.steps: List[Tuple[float, float]] = []
        self.opens: List[Tuple[float, float]] = []
        #: Per round, its stretches between reference timings.
        self.rounds: List[List[Tuple[float, float]]] = []
        self.closes: List[Dict[str, Any]] = []

    async def session(self, checkpoint: Optional[Checkpoint] = None) -> None:
        payloads, records, checks = self.payloads, self.records, self.checks
        began = time.perf_counter()
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            last_slot_with_records = 0
            for t, payload in enumerate(payloads):
                if checkpoint is not None and t and t % wl.SERVE_CHECKPOINT_SLOTS == 0:
                    await checkpoint()
                sent = time.perf_counter()
                writer.write(payload)
                reply = json.loads(await reader.readline())
                now = time.perf_counter()
                if records[t]:
                    last_slot_with_records = t
                if t == 0:
                    self.opens.append((began, now))
                else:
                    self.steps.append((sent, now))
                # Feeding slot t's records executes every slot before t.
                checks.expect(
                    reply.get("ok") is True
                    and reply.get("op") == "snapshot"
                    and reply.get("time_slot") == last_slot_with_records
                    and reply.get("dropped") == 0
                    and reply.get("late") == 0,
                    f"serve-live: bad snapshot reply at slot {t}: {str(reply)[:200]}",
                )
            writer.write(b'{"op": "close"}\n')
            reply = json.loads(await reader.readline())
            ok = checks.expect(
                reply.get("ok") is True
                and reply.get("op") == "close"
                and reply.get("time_slot") == len(payloads)
                and reply.get("dropped") == 0
                and reply.get("late") == 0,
                f"serve-live: bad close reply: {str(reply)[:200]}",
            )
            if ok:
                self.closes.append(reply["summary"])
        finally:
            writer.close()
            await writer.wait_closed()

    def run(self, seconds: float, host: HostSpeed) -> None:
        """Run rounds for *seconds* (at least MIN_PASSES)."""

        stretches: List[Tuple[float, float]] = []
        began = [0.0]

        def reference() -> None:
            stretches.append((began[0], time.perf_counter()))
            host.sample()
            began[0] = time.perf_counter()

        async def main() -> None:
            checkpoint = Checkpoint(wl.SERVE_CONNECTIONS, reference)
            started = time.perf_counter()
            while len(self.rounds) < MIN_PASSES or time.perf_counter() - started < seconds:
                host.sample()
                began[0] = time.perf_counter()
                await asyncio.gather(
                    *(self.session(checkpoint) for _ in range(wl.SERVE_CONNECTIONS))
                )
                stretches.append((began[0], time.perf_counter()))
                self.rounds.append(list(stretches))
                stretches.clear()
            host.sample()

        asyncio.run(main())

    def slot_rates(self, host: HostSpeed) -> List[float]:
        """Referenced slots/s of each round (all connections together)."""
        slots = wl.SERVE_CONNECTIONS * len(self.payloads)
        return [slots / sum(host.referenced(stretches)) for stretches in self.rounds]


def measure_serve(seed: int, seconds: float, trace: bool, scratch: Scratch) -> Dict[str, Any]:
    checks = Checks()
    scenario, records, scenario_path = wl.serve_scenario(seed, scratch.root)

    host = HostSpeed()

    def phase(length: float, trace_dump: Optional[str]) -> Tuple[LiveClient, float]:
        scratch.fresh_solve_cache()
        server = Server(serve_command(scenario_path, trace_dump), scratch.root)
        try:
            # One untimed session fills the server's solve cache, as on a
            # long-running server; its close summary is checked too.
            warmup = LiveClient(server.port, records, checks)
            asyncio.run(warmup.session())
            if trace_dump is not None:
                server.mark()
            client = LiveClient(server.port, records, checks)
            client.closes.extend(warmup.closes)
            client.run(length, host)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        return client, rss

    if not trace:
        client, rss = phase(seconds, None)
        clients = [client]
        rates = client.slot_rates(host)
        print(
            f"# serve-live: {len(client.steps)} snapshot samples, {len(client.opens)} "
            f"session opens, {len(rates)} rounds; referenced slots/s per round "
            f"{[round(rate, 1) for rate in rates]}",
            flush=True,
        )
        metrics = {"slots_per_s": median(rates), "peak_rss_mb": rss}
        metrics.update(
            latency_metrics(host, client.steps, groups_of(client.opens, wl.SERVE_CONNECTIONS))
        )
    else:
        untraced, _ = phase(seconds / 2.0, None)
        dump = os.path.join(scratch.root, "server-spans.json")
        traced, _ = phase(seconds / 2.0, dump)
        clients = [untraced, traced]
        merged = tracing.merge([tracing.read_dump(dump)])
        # One serve-live pass is one session (SERVE_SESSION_SLOTS slots).
        metrics = tracing.layer_metrics(merged, len(traced.opens))
        metrics["trace.overhead_ratio"] = median(untraced.slot_rates(host)) / median(
            traced.slot_rates(host)
        )
        metrics["trace.host_factor"] = host.factor()
        # The untraced phase's tail (see ``latency_metrics``).
        metrics["serve.snapshot_p99_ms"] = latency_metrics(
            host, untraced.steps, groups_of(untraced.opens, wl.SERVE_CONNECTIONS)
        )["serve.snapshot_p99_ms"]
        write_trace(scratch, "serve-live", merged)
    scratch.fresh_solve_cache()
    expected = sanitize(
        simulate(scenario, wl.JOINT, num_slots=len(records), metrics="summary").summary()
    )
    for client in clients:
        for index, summary in enumerate(client.closes):
            checks.expect(
                summary == expected,
                f"serve-live: close summary {index} differs from offline simulate()",
            )
    check_canary("serve-live", canary_output("serve-live", scratch), checks)
    return {"metrics": metrics, "checks": checks}


def canary_output(name: str, scratch: Scratch) -> Any:
    """The fixed-seed output pinned in ``digests.json`` for *name*."""
    if name == "serve-live":
        scratch.fresh_solve_cache()
        scenario, records, _ = wl.serve_scenario(CANARY_SEED, scratch.directory("canary"))
        return simulate(scenario, wl.JOINT, num_slots=len(records), metrics="summary").summary()
    return BATCH[name](CANARY_SEED, scratch, Checks()).canary()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--pin", action="store_true",
        help="recompute every workload's canary digest into digests.json",
    )
    args = parser.parse_args(argv)
    scratch = Scratch(os.path.join(args.workdir, "state"))
    os.makedirs(scratch.root, exist_ok=True)
    if args.pin:
        digests = {name: wl.digest(canary_output(name, scratch)) for name in wl.WORKLOADS}
        with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(json.dumps(digests))
        return 0
    try:
        if args.workload == "serve-live":
            outcome = measure_serve(args.seed, args.seconds, bool(args.trace), scratch)
        else:
            outcome = measure_batch(
                args.workload, args.seed, args.seconds, bool(args.trace), scratch
            )
    finally:
        shutil.rmtree(scratch.root, ignore_errors=True)
    checks = outcome["checks"]
    for failure in checks.failures[:20]:
        print(f"# check failed: {failure}", flush=True)
    print(
        json.dumps(
            {
                "metrics": outcome["metrics"],
                "attempted": checks.attempted,
                "failed": len(checks.failures),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
