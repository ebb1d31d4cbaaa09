"""In-memory spans around the public callables of each layer.

The launcher (``launcher.py``) calls :func:`instrument` before it starts
serving.  Every wrapped call records one span — name, start, end and the
enclosing span on the same thread — plus, for a few boundaries, counts
read where the work happens (pipeline stats deltas, bytes a commit
wrote, observations a batch produced).  Nothing inside ``src/`` changes:
the wrappers replace class and module attributes from the outside.

A span's *self time* is its duration minus the time its child spans
cover.  Children always nest inside their parent on one thread, so the
covered time is the sum of the children's durations, which each span
accumulates into its parent as it ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import Counter, defaultdict

# Span record layout (a list, so the end and child time can be filled in
# after the record is appended).
NAME, START, END, PARENT, CHILD = range(5)

#: Pipeline-stats counters whose per-call deltas the detect span records.
DETECT_COUNTERS = (
    "pairs_examined", "prescreen_pruned_pairs", "planned_pairs",
    "cache_hits", "shared_cache_hits", "solver_calls",
)


class Recorder:
    """Spans and counts of one server process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything recorded so far (call while no request is
        in flight)."""
        self.spans = []
        self.counts = Counter()

    def wrap(self, name: str, func, after=None):
        """``func`` wrapped in a span called ``name``.  ``after(args,
        result, before)`` records counts; ``before`` is what the optional
        ``after.before(args)`` returned ahead of the call."""
        local = self._local
        before_hook = getattr(after, "before", None)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent, 0.0]
            self.spans.append(record)
            stack.append(record)
            before = before_hook(args) if before_hook is not None else None
            record[START] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += end - record[START]
            if after is not None:
                after(args, result, before)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod)
        with its traced version."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, after)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, after)))
        else:
            setattr(owner, attr, self.wrap(name, raw, after))

    # ------------------------------------------------------------------
    # Aggregation and output

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus counts."""
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for record in self.spans:
            duration = record[END] - record[START]
            calls[record[NAME]] += 1
            total[record[NAME]] += duration
            own[record[NAME]] += duration - record[CHILD]
        return {
            "spans": {
                name: {
                    "calls": calls[name],
                    "total_s": total[name],
                    "self_s": own[name],
                }
                for name in sorted(calls)
            },
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        """Every span as one JSON line: name, start, end, parent line."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                parent = record[PARENT]
                out.write(json.dumps([
                    record[NAME], record[START], record[END],
                    None if parent is None else index.get(id(parent)),
                ]) + "\n")


def _counter(recorder: Recorder, key: str, value_of):
    def after(args, result, before):
        recorder.counts[key] += value_of(args, result)
    return after


def _detect_counts(recorder: Recorder):
    def before(args):
        stats = args[0].stats
        return [getattr(stats, field) for field in DETECT_COUNTERS]

    def after(args, result, snapshot):
        stats = args[0].stats
        recorder.counts["detect_calls"] += 1
        for field, old in zip(DETECT_COUNTERS, snapshot):
            recorder.counts[field] += getattr(stats, field) - old

    after.before = before
    return after


def instrument(recorder: Recorder) -> None:
    """Wrap the named public callables of every layer.  Call once,
    before the server starts."""
    from repro.constraints.solver import Solver
    from repro.detector.pipeline import DetectionPipeline
    from repro.detector.store import DetectionStore
    from repro.monitor.engine import MonitorEngine
    from repro.rules.extractor import RuleExtractor
    from repro.service import home as service_home
    from repro.service import schemas
    from repro.service.service import HomeGuardService
    from repro.service.transport import server as transport_server

    patch = recorder.patch
    # transport: each RPC handler (execute glue) and, on the event loop,
    # the response encoding that runs between execute and write.
    server_cls = transport_server.FleetServer
    for attr in sorted(vars(server_cls)):
        if attr.startswith("_rpc_"):
            patch(server_cls, attr, "transport.handler")
    patch(transport_server, "encode_result", "transport.encode")
    patch(transport_server, "http_response", "transport.encode")
    # schemas: request decoding and response encoding.
    for model in (
        schemas.InstallRequest, schemas.AuditRequest,
        schemas.DecisionRequest, schemas.MonitorEventRequest,
    ):
        patch(model, "from_json", "schemas.decode")
    patch(schemas.MonitorEventRequest, "to_events", "schemas.decode")
    patch(schemas.ThreatReport, "from_review", "schemas.encode")
    for model in (
        schemas.ThreatReport, schemas.InstallSession,
        schemas.ObservationRecord, schemas.DetectionStatsRecord,
    ):
        patch(model, "to_json", "schemas.encode")
    patch(schemas.ObservationRecord, "from_observation", "schemas.encode")
    patch(schemas.DetectionStatsRecord, "from_stats", "schemas.encode")
    # service façade.
    for attr in (
        "install", "decide", "audit", "ingest_events", "create_home",
        "register_device", "installed_apps", "sessions",
        "detection_stats_record",
    ):
        patch(HomeGuardService, attr, "service")
    # detector, constraints, store, monitor, symex.
    patch(DetectionPipeline, "detect", "detector.detect",
          _detect_counts(recorder))
    patch(service_home, "find_chains", "detector.chains")
    patch(Solver, "solve", "constraints.solve")
    bytes_of = _counter(recorder, "commit_bytes",
                        lambda args, result: result.bytes_written)
    patch(DetectionStore, "commit_app", "store.commit", bytes_of)
    patch(DetectionStore, "commit_frontend", "store.commit", bytes_of)
    patch(DetectionStore, "save", "store.save")
    patch(DetectionStore, "load", "store.load")
    patch(MonitorEngine, "ingest_batch", "monitor.ingest",
          _counter(recorder, "observations",
                   lambda args, result: len(result)))
    patch(RuleExtractor, "extract", "symex.extract")
