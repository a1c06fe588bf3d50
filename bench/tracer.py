"""In-memory span tracer installed around srascan's public functions.

The tracer patches module and class attributes from outside the package, so
nothing under `src/` changes.  Each wrapped call is a span; spans nest per
thread, and a span's self time is its duration minus the durations of its
direct children on the same thread.  Aggregates (calls, inclusive time, self
time) and a few counts are kept in memory and returned by `summary()` once
the traced command has finished.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Generators of target_gen: each next() on them is timed as one span.
TARGET_GENERATORS = (
    "gen_stage1",
    "gen_stage2",
    "gen_stage3",
    "gen_route6",
    "gen_bgp_all",
    "gen_from_hitlist",
)
ANALYSIS_FUNCTIONS = (
    "match_replies",
    "alias_filter",
    "stability_mapping",
    "summarize_scan",
    "detect_loops",
)


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # inclusive, nested calls of the same name counted once
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, Counter]] = []
        self.inject_samples: list[float] = []
        # Single writer each: the sender thread injects, the receiver receives.
        self.emitted = 0
        self.received = 0
        self.backlog_max = 0

    # --- span bookkeeping ---------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stats = defaultdict(_Stat)
            local.counts = Counter()
            with self._lock:
                self._threads.append((local.stats, local.counts))
        return local

    def _enter(self, name: str) -> list:
        frame = [name, 0.0, 0.0]  # name, start, time covered by children
        self._state().stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        local = self._local
        stack = local.stack
        stack.pop()
        name, start, children = frame
        duration = end - start
        stat = local.stats[name]
        stat.calls += 1
        stat.self_time += duration - children
        if not any(f[0] == name for f in stack):
            stat.total += duration
        if stack:
            stack[-1][2] += duration
        return duration

    def count(self, name: str, n: float = 1) -> None:
        self._state().counts[name] += n

    def outermost(self, name: str) -> bool:
        return not any(f[0] == name for f in self._state().stack)

    # --- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def wrap_generator(self, name: str, fn, items: str | None = None):
        """Time every next() of the generator `fn` returns as one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stream():
                try:
                    while True:
                        top = items is not None and self.outermost(name)
                        frame = self._enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._exit(frame)
                        if top:
                            self.count(items)
                        yield item
                finally:
                    inner.close()

            return stream()

        return traced

    def install(self, cli, target_gen, probe_engine, netsim, analysis) -> None:
        """Patch the public entry points that the CLI reaches."""
        cli.main = self.wrap("cli.main", cli.main)
        for name in TARGET_GENERATORS:
            fn = getattr(target_gen, name)
            setattr(
                target_gen,
                name,
                self.wrap_generator("target_gen.gen", fn, items="target_gen.targets"),
            )
        for name in ANALYSIS_FUNCTIONS:
            setattr(analysis, name, self.wrap(f"analysis.{name}", getattr(analysis, name)))

        probe_engine.run_scan = self.wrap_generator(
            "probe_engine.run_scan", probe_engine.run_scan
        )
        probe_engine.build_echo_request = self.wrap(
            "probe_engine.build_echo_request", probe_engine.build_echo_request
        )
        record = probe_engine.ReplyRecord
        record.to_json = self.wrap("probe_engine.to_json", record.to_json)
        record.from_json = classmethod(
            self.wrap("probe_engine.from_json", record.__dict__["from_json"].__func__)
        )
        classify = probe_engine.classify_icmp

        @functools.wraps(classify)
        def classify_icmp(*args, **kwargs):
            frame = self._enter("probe_engine.classify_icmp")
            try:
                rec = classify(*args, **kwargs)
            finally:
                self._exit(frame)
            if rec is not None:
                self.count("classified")
                if rec.embedded_target is not None:
                    self.count("authenticated")
            return rec

        probe_engine.classify_icmp = classify_icmp

        netsim.load_topology = self.wrap("netsim.load_topology", netsim.load_topology)
        transport = netsim.SimTransport
        transport.__init__ = self.wrap("netsim.sim_init", transport.__init__)
        transport.send = self.wrap("netsim.send", transport.send)
        receive = transport.receive

        @functools.wraps(receive)
        def traced_receive(transport_self, timeout):
            frame = self._enter("netsim.receive")
            try:
                item = receive(transport_self, timeout)
            finally:
                duration = self._exit(frame)
            if item is None:
                self.count("recv_idle_s", duration)
            else:
                self.received += 1
            return item

        transport.receive = traced_receive
        inject = netsim.Simulation.inject

        @functools.wraps(inject)
        def traced_inject(sim_self, packet, now=0.0):
            frame = self._enter("netsim.inject")
            try:
                delivery = inject(sim_self, packet, now)
            finally:
                self.inject_samples.append(self._exit(frame))
            self.count("events", delivery.events)
            self.count("emissions", len(delivery.emissions))
            self.count("budget_hits", int(delivery.budget_exceeded))
            self.emitted += len(delivery.emissions)
            self.backlog_max = max(self.backlog_max, self.emitted - self.received)
            return delivery

        netsim.Simulation.inject = traced_inject

    # --- results ------------------------------------------------------------

    def summary(self) -> dict:
        spans: dict[str, dict] = {}
        counts: Counter = Counter()
        with self._lock:
            threads = list(self._threads)
        for stats, thread_counts in threads:
            counts.update(thread_counts)
            for name, stat in stats.items():
                agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                agg["calls"] += stat.calls
                agg["total_s"] += stat.total
                agg["self_s"] += stat.self_time
        counts["rx_backlog_max"] = self.backlog_max
        return {
            "spans": spans,
            "counts": dict(counts),
            "inject_samples_s": self.inject_samples,
        }
