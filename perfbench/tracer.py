"""Span and counter recording for the traced benchmark run.

Nothing here touches ``src/``: :func:`install` wraps the program's public
functions *where their callers look them up* (a module global such as
``repro.core.caching_mdp.value_iteration``, or a class attribute such as
``LyapunovServiceController.decide``) and records, per call, a span
``(name, start_ns, end_ns, parent_span, context, self_ns)`` in memory.
``context`` is the pass id (batch workloads) or the request id (the
serving subprocess).  Counters are recorded at the same boundaries.

Pool workers are forked from a process that has already installed the
wrappers, so they inherit them; the wrapped
``repro.runtime.runner._execute_batch_timed`` entry point writes each
worker task's spans to a file that the parent merges.  The serving
subprocess installs the wrappers itself (``serve_launcher.py``).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "net.requests.generate_horizon": "net.requests",
    "net.requests.generate_slot_contents": "net.requests",
    "core.solvers.value_iteration": "core.solvers",
    "core.caching_mdp.decide": "core.caching_mdp",
    "core.lyapunov.decide": "core.lyapunov",
    "sim.step": "sim",
    "sim.metrics.record": "sim.metrics",
    "policies.onpath.process_request": "policies.onpath",
    "runtime.runner.run_grid": "runtime.runner",
    "serve.protocol.parse": "serve.protocol",
    "serve.protocol.encode": "serve.protocol",
    "serve.session.open": "serve.session",
    "serve.session.feed": "serve.session",
    "serve.session.snapshot": "serve.session",
    "serve.session.close": "serve.session",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

#: Every per-layer metric of a traced run, with its unit.  A workload that
#: does not reach a layer reports 0 for it.  Times and counts are per pass
#: (``serve-live``: per session); ratios are over the traced passes.
PER_LAYER_UNITS = {
    "net.requests.generate_horizon_ms": "ms",
    "net.requests.generate_horizon_calls": "count",
    "net.requests.slot_contents_ms": "ms",
    "net.requests.slot_contents_calls": "count",
    "core.solvers.value_iteration_ms": "ms",
    "core.solvers.value_iteration_calls": "count",
    "core.solvers.sweeps": "count",
    "core.caching_mdp.decide_ms": "ms",
    "core.caching_mdp.decide_calls": "count",
    "core.caching_mdp.memo_hit_rate": "ratio",
    "core.solve_cache.hit_rate": "ratio",
    "core.solve_cache.disk_writes": "count",
    "core.lyapunov.decide_ms": "ms",
    "core.lyapunov.decide_calls": "count",
    "sim.step_ms": "ms",
    "sim.metrics.record_block_ms": "ms",
    "policies.onpath.process_request_ms": "ms",
    "policies.onpath.process_request_calls": "count",
    "net.controller.request_hops": "count",
    "net.controller.get_content_calls": "count",
    "net.controller.put_content_calls": "count",
    "net.cache.hit_ratio": "ratio",
    "runtime.runner.dispatch_ms": "ms",
    "runtime.runner.task_ms_total": "ms",
    "runtime.runner.worker_busy_ratio": "ratio",
    "runtime.shm.horizon_precompute_ms": "ms",
    "runtime.shm.setup_ms": "ms",
    "runtime.store.warm_pass_ms": "ms",
    "runtime.store.hit_rate": "ratio",
    "runtime.store.cells_dispatched": "count",
    "serve.protocol.parse_ms": "ms",
    "serve.protocol.encode_ms": "ms",
    "serve.session.feed_ms": "ms",
    "serve.session.snapshot_ms": "ms",
    "serve.session.open_ms": "ms",
    "serve.session.pending_max": "count",
    "serve.session.dropped": "count",
    "serve.session.late": "count",
    "serve.errors": "count",
    "serve.snapshot_p99_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
    "trace.host_factor": "ratio",
}


class Tracer:
    """Per-process span list, open-span stack and counters."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.context = 0
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.policies: List[Any] = []
        self._stack: List[int] = []
        self._inner: List[int] = []
        self._patches: List[tuple] = []
        self._mark: Optional[tuple] = None
        #: The solve cache last read by :meth:`harvest_solve_cache`, and its counts then.
        self._solve_base: Optional[tuple] = None
        #: Whether to count the solve-cache directory's entries (off in pool
        #: workers: they share their parent's directory, which counts them).
        self.count_files = True

    def mark(self) -> None:
        """Start the reported window here: :meth:`document` drops what came before."""
        self.harvest_solve_cache()
        self._mark = (len(self.spans), dict(self.counts), self._memo_totals())

    def _solve_snapshot(self) -> tuple:
        """The process's global solve cache and its lookup counts."""
        from repro.core.solve_cache import global_solve_cache

        cache = global_solve_cache()
        stats = cache.stats
        hits = stats.hits + stats.disk_hits
        counts = {
            "core.solve_cache.hits": hits,
            "core.solve_cache.lookups": hits + stats.misses,
        }
        directory = cache.directory
        if self.count_files and directory is not None and os.path.isdir(directory):
            counts["core.solve_cache.disk_writes"] = sum(
                name.endswith(".npz") for name in os.listdir(directory)
            )
        return cache, counts

    def rebase_solve_cache(self) -> None:
        """Count the global solve cache's lookups from now on."""
        self._solve_base = self._solve_snapshot()

    def harvest_solve_cache(self) -> None:
        """Add the global solve cache's counts since the last harvest.

        ``SolveCache.stats`` counts the lookups; a replaced cache (a fresh
        one per pass) starts from zero.  Disk writes are the entries its
        directory gained.
        """
        cache, counts = self._solve_snapshot()
        base = self._solve_base[1] if self._solve_base and self._solve_base[0] is cache else {}
        for key, value in counts.items():
            self.counts[key] += value - base.get(key, 0)
        self._solve_base = (cache, counts)

    def _memo_totals(self) -> Dict[str, int]:
        totals = {"hits": 0, "misses": 0}
        for policy in self.policies:
            stats = policy.memo_stats
            totals["hits"] += stats["hits"]
            totals["misses"] += stats["misses"]
        return totals

    def clear(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.policies = []
        self._stack = []
        self._inner = []
        self._mark = None

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Return *fn* recording a span *name*; *after(result, *args, **kwargs)* counts."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, inner = self.spans, self._stack, self._inner
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            inner.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                covered = inner.pop()
                duration = end - start
                if inner:
                    inner[-1] += duration
                spans[index] = (name, start, end, parent, self.context, duration - covered)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def count(self, fn: Callable, after: Callable[..., None]) -> Callable:
        """Return *fn* that only runs *after(result, *args, **kwargs)* (no span)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, *args, **kwargs)
            return result

        return counted

    def patch(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def document(self) -> Dict[str, Any]:
        """This process's spans and counters since :meth:`mark`; clears them."""
        self.harvest_solve_cache()
        counts = defaultdict(float, self.counts)
        memo = self._memo_totals()
        spans = self.spans
        if self._mark is not None:
            first, marked_counts, marked_memo = self._mark
            spans = [
                (name, start, end, parent - first if parent >= first else -1, context, own)
                for name, start, end, parent, context, own in spans[first:]
            ]
            for key, value in marked_counts.items():
                counts[key] -= value
            memo = {key: memo[key] - marked_memo[key] for key in memo}
        counts["core.caching_mdp.memo_hits"] += memo["hits"]
        counts["core.caching_mdp.memo_misses"] += memo["misses"]
        document = {"spans": spans, "counts": dict(counts), "maxima": dict(self.maxima)}
        self.clear()
        return document

    def dump(self, path: str) -> None:
        """Write :meth:`document` as JSON (from a worker or subprocess)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.document(), handle)


TRACER = Tracer()


def install(tracer: Tracer = TRACER, *, worker_dir: Optional[str] = None) -> Tracer:
    """Wrap every layer boundary the per-layer metrics are read from.

    *worker_dir* (batch workloads with a process pool) makes each forked
    worker write its spans there after every task.
    """
    import repro.core.caching_mdp as caching_mdp
    import repro.core.solvers as solvers
    import repro.runtime.runner as runner
    import repro.serve.server as server
    from repro.core.lyapunov import LyapunovServiceController
    from repro.net.controller import NetworkController
    from repro.net.requests import RequestGenerator
    from repro.policies.onpath import OnPathStrategy
    from repro.serve.session import SimulationSession
    from repro.sim.cache_sim import CacheSimulator, CacheStepper
    from repro.sim.joint_sim import JointSimulator, JointStepper
    from repro.sim.metrics import CacheMetrics, MultihopMetrics, ServiceMetrics
    from repro.sim.multihop_sim import MultihopStepper
    from repro.sim.service_sim import ServiceSimulator, ServiceStepper

    def bump(key: str, amount: float = 1.0) -> None:
        tracer.counts[key] += amount

    def after_solve(result, *_, **__):
        bump("core.solvers.sweeps", result.iterations)

    def after_reset(_, policy, **__):
        tracer.policies.append(policy)

    def after_end_session(result, *_, **__):
        bump("net.cache.sessions")
        if result.hit:
            bump("net.cache.hits")

    def after_feed(_, session, *__, **___):
        tracer.maxima["serve.session.pending_max"] = max(
            tracer.maxima["serve.session.pending_max"], session.pending
        )

    def after_close(_, session, *__, **___):
        bump("serve.session.dropped", session.dropped)
        bump("serve.session.late", session.late)

    def after_parse(result, *_, **__):
        if result is not None and result[0] == "op":
            tracer.context += 1

    def after_encode(_, payload, **__):
        if payload.get("ok") is False:
            bump("serve.errors")

    def calls(key: str) -> Callable[..., None]:
        return lambda *_, **__: bump(key)

    # Functions imported by name: patch the consumer's module global.
    tracer.patch(
        caching_mdp,
        "value_iteration",
        tracer.wrap("core.solvers.value_iteration", solvers.value_iteration, after_solve),
    )
    tracer.patch(server, "parse_line", tracer.wrap("serve.protocol.parse", server.parse_line, after_parse))
    tracer.patch(server, "encode_reply", tracer.wrap("serve.protocol.encode", server.encode_reply, after_encode))
    tracer.patch(server, "open_session", tracer.wrap("serve.session.open", server.open_session))
    tracer.patch(runner.ExperimentRunner, "run_grid", tracer.wrap("runtime.runner.run_grid", runner.ExperimentRunner.run_grid))
    # Methods: patch the class attribute every instance resolves.
    spans = [
        (RequestGenerator, "generate_horizon", "net.requests.generate_horizon"),
        (RequestGenerator, "generate_slot_contents", "net.requests.generate_slot_contents"),
        (caching_mdp.MDPCachingPolicy, "decide", "core.caching_mdp.decide"),
        (caching_mdp.BatchedCacheDecider, "decide", "core.caching_mdp.decide"),
        (LyapunovServiceController, "decide", "core.lyapunov.decide"),
        (CacheStepper, "step", "sim.step"),
        (ServiceStepper, "step", "sim.step"),
        (JointStepper, "step", "sim.step"),
        (MultihopStepper, "step", "sim.step"),
        (CacheSimulator, "run_batch", "sim.step"),
        (ServiceSimulator, "run_batch", "sim.step"),
        (JointSimulator, "run_batch", "sim.step"),
        (CacheMetrics, "record_block", "sim.metrics.record"),
        (CacheMetrics, "record_block_aggregates", "sim.metrics.record"),
        (ServiceMetrics, "record_block", "sim.metrics.record"),
        (MultihopMetrics, "record_slot", "sim.metrics.record"),
        (OnPathStrategy, "process_request", "policies.onpath.process_request"),
        (SimulationSession, "snapshot", "serve.session.snapshot"),
    ]
    for owner, attribute, name in spans:
        tracer.patch(owner, attribute, tracer.wrap(name, owner.__dict__[attribute]))
    tracer.patch(
        SimulationSession, "feed",
        tracer.wrap("serve.session.feed", SimulationSession.feed, after_feed),
    )
    tracer.patch(
        SimulationSession, "close",
        tracer.wrap("serve.session.close", SimulationSession.close, after_close),
    )
    counters = [
        (caching_mdp.MDPCachingPolicy, "reset", after_reset),
        (NetworkController, "forward_request_hop", calls("net.controller.request_hops")),
        (NetworkController, "get_content", calls("net.controller.get_content_calls")),
        (NetworkController, "put_content", calls("net.controller.put_content_calls")),
        (NetworkController, "end_session", after_end_session),
    ]
    for owner, attribute, after in counters:
        tracer.patch(owner, attribute, tracer.count(owner.__dict__[attribute], after))
    if worker_dir is not None:
        _install_worker_export(tracer, runner, worker_dir)
    tracer.rebase_solve_cache()
    return tracer


def _install_worker_export(tracer: Tracer, runner: Any, worker_dir: str) -> None:
    """Make forked pool workers write each task's spans to *worker_dir*.

    The runner resolves ``_execute_batch_timed`` as a module global when it
    dispatches, and pickle resolves it by name in the (forked) worker, so
    the wrapper below is what every worker task runs.
    """
    original = runner._execute_batch_timed
    parent_pid = os.getpid()
    tasks = [0]

    @functools.wraps(original)
    def exported(task):
        in_worker = os.getpid() != parent_pid
        if in_worker and tracer.pid != os.getpid():
            tracer.pid = os.getpid()  # forked copy: drop the parent's spans
            tracer.clear()
            tracer.count_files = False
            tracer.rebase_solve_cache()
        outcome = original(task)
        if in_worker:
            tasks[0] += 1
            tracer.dump(os.path.join(worker_dir, f"worker-{os.getpid()}-{tasks[0]}.json"))
        return outcome

    tracer.patch(runner, "_execute_batch_timed", exported)


def read_dump(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def merge(documents: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Concatenate per-process documents, re-basing parent span indices."""
    spans: List[tuple] = []
    counts: Dict[str, float] = defaultdict(float)
    maxima: Dict[str, float] = defaultdict(float)
    for document in documents:
        offset = len(spans)
        for name, start, end, parent, context, own in document["spans"]:
            spans.append(
                (name, start, end, parent + offset if parent >= 0 else -1, context, own)
            )
        for key, value in document["counts"].items():
            counts[key] += value
        for key, value in document["maxima"].items():
            maxima[key] = max(maxima[key], value)
    return {"spans": spans, "counts": counts, "maxima": maxima}


def layer_metrics(merged: Dict[str, Any], passes: int) -> Dict[str, float]:
    """Per-pass per-layer metrics from a :func:`merge` result.

    ``*_ms`` metrics of a named call are inclusive times of its outermost
    occurrences (a span nested in a span of the same name counts once);
    ``<layer>.self_ms`` is the layer's self time: its spans' durations
    minus the parts their child spans cover.
    """
    spans, counts, maxima = merged["spans"], merged["counts"], merged["maxima"]
    passes = max(1, passes)
    calls: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, float] = defaultdict(float)
    for name, _, _, _, _, own in spans:
        calls[name] += 1
        self_ns[LAYER_OF[name]] += own
    inclusive = _outermost(spans)

    def per_pass_ms(value: float) -> float:
        return value / 1e6 / passes

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "net.requests.generate_horizon_ms": per_pass_ms(inclusive["net.requests.generate_horizon"]),
        "net.requests.generate_horizon_calls": per_pass(calls["net.requests.generate_horizon"]),
        "net.requests.slot_contents_ms": per_pass_ms(inclusive["net.requests.generate_slot_contents"]),
        "net.requests.slot_contents_calls": per_pass(calls["net.requests.generate_slot_contents"]),
        "core.solvers.value_iteration_ms": per_pass_ms(inclusive["core.solvers.value_iteration"]),
        "core.solvers.value_iteration_calls": per_pass(calls["core.solvers.value_iteration"]),
        "core.solvers.sweeps": per_pass(counts.get("core.solvers.sweeps", 0.0)),
        "core.caching_mdp.decide_ms": per_pass_ms(inclusive["core.caching_mdp.decide"]),
        "core.caching_mdp.decide_calls": per_pass(calls["core.caching_mdp.decide"]),
        "core.caching_mdp.memo_hit_rate": ratio(
            counts.get("core.caching_mdp.memo_hits", 0.0),
            counts.get("core.caching_mdp.memo_hits", 0.0) + counts.get("core.caching_mdp.memo_misses", 0.0),
        ),
        "core.solve_cache.hit_rate": ratio(
            counts.get("core.solve_cache.hits", 0.0), counts.get("core.solve_cache.lookups", 0.0)
        ),
        "core.solve_cache.disk_writes": per_pass(counts.get("core.solve_cache.disk_writes", 0.0)),
        "core.lyapunov.decide_ms": per_pass_ms(inclusive["core.lyapunov.decide"]),
        "core.lyapunov.decide_calls": per_pass(calls["core.lyapunov.decide"]),
        "sim.step_ms": per_pass_ms(inclusive["sim.step"]),
        "sim.metrics.record_block_ms": per_pass_ms(inclusive["sim.metrics.record"]),
        "policies.onpath.process_request_ms": per_pass_ms(inclusive["policies.onpath.process_request"]),
        "policies.onpath.process_request_calls": per_pass(calls["policies.onpath.process_request"]),
        "net.controller.request_hops": per_pass(counts.get("net.controller.request_hops", 0.0)),
        "net.controller.get_content_calls": per_pass(counts.get("net.controller.get_content_calls", 0.0)),
        "net.controller.put_content_calls": per_pass(counts.get("net.controller.put_content_calls", 0.0)),
        "net.cache.hit_ratio": ratio(counts.get("net.cache.hits", 0.0), counts.get("net.cache.sessions", 0.0)),
        "serve.protocol.parse_ms": per_pass_ms(inclusive["serve.protocol.parse"]),
        "serve.protocol.encode_ms": per_pass_ms(inclusive["serve.protocol.encode"]),
        "serve.session.feed_ms": per_pass_ms(inclusive["serve.session.feed"]),
        "serve.session.snapshot_ms": per_pass_ms(inclusive["serve.session.snapshot"]),
        "serve.session.open_ms": per_pass_ms(inclusive["serve.session.open"]),
        "serve.session.pending_max": maxima.get("serve.session.pending_max", 0.0),
        "serve.session.dropped": counts.get("serve.session.dropped", 0.0),
        "serve.session.late": counts.get("serve.session.late", 0.0),
        "serve.errors": counts.get("serve.errors", 0.0),
        "trace.spans": per_pass(len(spans)),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = per_pass_ms(self_ns[layer])
    return metrics


def _outermost(spans: List[tuple]) -> Dict[str, float]:
    """Inclusive ns per name, skipping spans nested in a same-name span."""
    totals: Dict[str, float] = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            totals[name] += end - start
    return totals
