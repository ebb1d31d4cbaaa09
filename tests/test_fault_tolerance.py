"""Fault-tolerance batteries (DESIGN.md §15).

Chaos principle under test: recovery must be invisible in the results.
With deterministic fault plans injecting worker crashes, hung solves,
killed pool processes and transient backend I/O errors, every audit
must still produce byte-identical threats, solve caches and store
bytes — and every retry / requeue / breaker event must be accounted
exactly once in the recovery counters.

Run under both the default hash seed and ``PYTHONHASHSEED=0``
(``make test-faults``) so recovery-path merges prove as
iteration-order-clean as the happy path.
"""

import json
import os
import socket
import sqlite3
import time
import warnings

import pytest

from repro.constraints import TypeBasedResolver
from repro.constraints.dispatch import (
    ProcessPoolDispatcher,
    SerialDispatcher,
    ThreadPoolDispatcher,
)
from repro.constraints.solvecache import SQLiteSolveCache
from repro.corpus import demo_apps
from repro.detector import DetectionPipeline, DetectionStore
from repro.detector.storage import SQLiteStoreBackend, StoreReadError
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.rules.extractor import RuleExtractor
from repro.service import HomeGuardService
from repro.service.errors import (
    TransportConnectionError,
    UnavailableError,
)
from repro.service.transport import FleetClient, serve_background
from repro.testing.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_hook,
    shielded,
)

# ----------------------------------------------------------------------
# Corpus + audit helpers (mirroring tests/test_dispatch_equivalence.py)


def _demo_corpus():
    extractor = RuleExtractor()
    rulesets, hints, values = [], {}, {}
    for app in demo_apps():
        rulesets.append(extractor.extract(app.source, app.name))
        hints[app.name] = app.type_hints
        values[app.name] = app.values
    return rulesets, hints, values


def _full_threats(reports):
    return [
        (
            report.app_name,
            threat.type.value,
            threat.rule_a.rule_id,
            threat.rule_b.rule_id,
            threat.detail,
            threat.witness,
        )
        for report in reports
        for threat in report.threats
    ]


def _store_bytes(pipeline, rulesets, tmp_path, label):
    store_dir = tmp_path / label
    DetectionStore(store_dir).save(
        pipeline, rulesets={r.app_name: r for r in rulesets}
    )
    return {
        path.name: path.read_bytes()
        for path in sorted(store_dir.iterdir())
    }


def _audit(corpus, dispatcher, tmp_path, label, shared_cache=None):
    rulesets, hints, values = corpus
    pipeline = DetectionPipeline(
        TypeBasedResolver(type_hints=hints, values=values),
        dispatcher=dispatcher,
        shared_cache=shared_cache,
    )
    try:
        reports = pipeline.audit_store(rulesets)
        # Taken before close(): a thread pool's close waits out a hung
        # worker, which recovery itself must not.
        ended = time.time()
        return {
            "ended": ended,
            "threats": _full_threats(reports),
            "caches": json.dumps(
                pipeline.engine.export_caches(), default=str
            ),
            "counters": (
                pipeline.stats.solver_calls,
                pipeline.stats.cache_hits,
                pipeline.stats.pairs_examined,
                pipeline.stats.prescreen_pruned_pairs,
                pipeline.stats.planned_pairs,
            ),
            "faults": (
                pipeline.stats.tasks_retried,
                pipeline.stats.chunks_requeued,
                pipeline.stats.pool_failures,
                pipeline.stats.degraded_serial,
            ),
            "store": _store_bytes(pipeline, rulesets, tmp_path, label),
        }
    finally:
        pipeline.close()


def _event_log(tmp_path, name):
    # FAULT_EVENT_LOG (set by `make test-faults`) collects every
    # injected event in one append-mode file for the CI artifact.
    return os.environ.get("FAULT_EVENT_LOG") or tmp_path / f"{name}.jsonl"


def _recovery_seconds(plan, outcome):
    """Wall seconds from the plan's last injected fault to the end of
    the audit it hit."""
    events = plan.events()
    assert events, "the plan logged no fault events"
    return outcome["ended"] - max(event["t"] for event in events)


def _assert_equivalent(outcome, reference, label):
    assert outcome["threats"] == reference["threats"], label
    assert outcome["caches"] == reference["caches"], label
    assert outcome["store"] == reference["store"], label
    assert outcome["counters"] == reference["counters"], label


# ----------------------------------------------------------------------
# CircuitBreaker


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_breaker_opens_after_threshold_and_recovers():
    clock = _FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=3, cooldown_seconds=5.0, clock=clock, name="t"
    )
    assert breaker.state == "closed"
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()  # third consecutive failure: open
    assert breaker.state == "open"
    assert not breaker.allow()
    assert breaker.times_opened == 1
    clock.advance(4.999)
    assert not breaker.allow()  # cooldown not yet elapsed
    clock.advance(0.001)
    assert breaker.state == "half-open"
    assert breaker.allow()  # the probe call
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.times_opened == 1


def test_breaker_failed_probe_reopens():
    clock = _FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, cooldown_seconds=2.0, clock=clock
    )
    breaker.record_failure()
    assert breaker.state == "open"
    clock.advance(2.0)
    assert breaker.state == "half-open"
    breaker.record_failure()  # probe failed: straight back to open
    assert breaker.state == "open"
    assert breaker.times_opened == 2
    clock.advance(2.0)
    breaker.record_success()
    assert breaker.state == "closed"


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker(failure_threshold=2, cooldown_seconds=1.0)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == "closed"  # streak broken: never opened


def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(cooldown_seconds=-1.0)


# ----------------------------------------------------------------------
# RetryPolicy


def test_retry_policy_delays_are_deterministic_and_bounded():
    policy = RetryPolicy(
        attempts=5, base_delay=0.05, factor=2.0, max_delay=0.3,
        jitter=0.1, seed=7,
    )
    first = policy.delays()
    assert first == RetryPolicy(
        attempts=5, base_delay=0.05, factor=2.0, max_delay=0.3,
        jitter=0.1, seed=7,
    ).delays()
    assert len(first) == 4
    for i, delay in enumerate(first, start=1):
        raw = min(0.3, 0.05 * 2.0 ** (i - 1))
        assert raw * 0.9 <= delay <= raw * 1.1
    # A different seed jitters differently; zero jitter is exact.
    assert first != RetryPolicy(
        attempts=5, base_delay=0.05, factor=2.0, max_delay=0.3,
        jitter=0.1, seed=8,
    ).delays()
    exact = RetryPolicy(attempts=4, base_delay=0.1, jitter=0.0)
    assert exact.delays() == [0.1, 0.2, 0.4]


def test_retry_policy_run_retries_then_raises():
    slept = []
    calls = []

    def flaky():
        calls.append(1)
        raise TimeoutError("down")

    policy = RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0)
    with pytest.raises(TimeoutError):
        policy.run(flaky, retryable=(TimeoutError,), sleep=slept.append)
    assert len(calls) == 3
    assert slept == policy.delays()

    # Non-retryable errors propagate immediately.
    def boom():
        calls.append(1)
        raise KeyError("no")

    calls.clear()
    with pytest.raises(KeyError):
        policy.run(boom, retryable=(TimeoutError,), sleep=slept.append)
    assert len(calls) == 1


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy().delay(0)


# ----------------------------------------------------------------------
# FaultPlan harness


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("dispatch.chunk", kind="meteor")
    with pytest.raises(ValueError):
        FaultSpec("not.a.point")
    with pytest.raises(ValueError):
        FaultSpec("cache.get", probability=1.5)


def test_fault_plan_nth_and_every_fire_exactly(tmp_path):
    log = tmp_path / "faults.jsonl"
    plan = FaultPlan(
        [FaultSpec("cache.get", kind="io-error", nth=(2, 5))],
        log_path=log,
    )
    with plan:
        outcomes = []
        for _ in range(6):
            try:
                fault_hook("cache.get", key="k")
                outcomes.append("ok")
            except sqlite3.OperationalError:
                outcomes.append("fault")
    assert outcomes == ["ok", "fault", "ok", "ok", "fault", "ok"]
    assert plan.calls("cache.get") == 6
    assert plan.fired("cache.get") == 2
    assert plan.fired_total() == 2
    events = plan.events()
    assert [e["index"] for e in events] == [2, 5]
    assert all(e["point"] == "cache.get" for e in events)
    assert all(e["kind"] == "io-error" for e in events)
    # Cleared: the hook is inert again.
    fault_hook("cache.get", key="k")
    assert plan.calls("cache.get") == 6


def test_fault_plan_probability_is_seed_deterministic():
    def pattern(seed):
        fired = []
        with FaultPlan(
            [FaultSpec("dispatch.chunk", probability=0.3)], seed=seed
        ):
            for _ in range(40):
                try:
                    fault_hook("dispatch.chunk")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
        return fired

    first = pattern(42)
    assert first == pattern(42)
    assert any(first) and not all(first)
    assert first != pattern(43)


def test_shielded_suppresses_matching_points():
    with FaultPlan([FaultSpec("dispatch.chunk", every=1)]) as plan:
        with pytest.raises(InjectedFault):
            fault_hook("dispatch.chunk")
        with shielded("dispatch."):
            fault_hook("dispatch.chunk")  # suppressed, not even counted
        with pytest.raises(InjectedFault):
            fault_hook("dispatch.chunk")
    assert plan.calls("dispatch.chunk") == 2


# ----------------------------------------------------------------------
# Chaos equivalence: crash-injected audits are byte-identical


# (name, dispatcher factory, fault cadence).  The serial reference
# solves one chunk per planning round, so its cadence is every=1; the
# pooled backends plan and solve 2-pair plan chunks and take a fault
# every third chunk, which the coordinator re-plans inline.
CHAOS_BACKENDS = [
    ("serial", lambda: SerialDispatcher(), 1),
    ("thread2", lambda: ThreadPoolDispatcher(2, plan_chunk_pairs=2), 3),
    ("process2", lambda: ProcessPoolDispatcher(2, plan_chunk_pairs=2), 3),
]


@pytest.mark.parametrize("name,factory,every", CHAOS_BACKENDS)
def test_chunk_crashes_never_change_results(name, factory, every, tmp_path):
    corpus = _demo_corpus()
    reference = _audit(corpus, None, tmp_path, "inline")
    assert reference["threats"], "corpus produced no threats to compare"
    assert reference["faults"] == (0, 0, 0, 0)
    dispatcher = factory()
    # Install before the audit so lazily forked pool workers inherit
    # the plan and its shared counters.
    plan = FaultPlan(
        [FaultSpec("dispatch.chunk", kind="error", every=every)],
        log_path=_event_log(tmp_path, name),
    )
    with plan, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        outcome = _audit(corpus, dispatcher, tmp_path, name)
    assert plan.fired("dispatch.chunk") > 0, name
    _assert_equivalent(outcome, reference, name)
    # Recovery is prompt: inline re-execution, no deadline waited out.
    assert _recovery_seconds(plan, outcome) < 2.0, name
    retried, requeued, failures, degraded = outcome["faults"]
    assert failures > 0, name
    assert requeued > 0, name
    # Exactly-once accounting: the per-batch deltas drained into the
    # stats equal the dispatcher's lifetime totals (fresh dispatcher),
    # and the delta slots are empty after the drain.
    totals = dispatcher.fault_totals()
    assert (retried, requeued, failures, degraded) == (
        totals["tasks_retried"],
        totals["chunks_requeued"],
        totals["pool_failures"],
        totals["degraded_serial"],
    ), name
    assert dispatcher.take_fault_counters() == {
        "tasks_retried": 0,
        "chunks_requeued": 0,
        "pool_failures": 0,
        "degraded_serial": 0,
    }, name


def test_hung_solve_hits_deadline_and_recovers_inline(tmp_path):
    corpus = _demo_corpus()
    reference = _audit(corpus, None, tmp_path, "inline")
    dispatcher = ThreadPoolDispatcher(
        2, plan_chunk_pairs=10_000, solve_timeout=0.05
    )
    delay = 1.0
    plan = FaultPlan(
        [FaultSpec("dispatch.chunk", kind="hang", delay=delay, nth=(1,))],
        log_path=_event_log(tmp_path, "hang"),
    )
    with plan, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        outcome = _audit(corpus, dispatcher, tmp_path, "hang")
    assert plan.fired("dispatch.chunk") == 1
    _assert_equivalent(outcome, reference, "hang")
    retried, requeued, failures, degraded = outcome["faults"]
    assert failures >= 1  # the hung chunk (plus any queued behind it)
    assert requeued >= 1
    assert degraded == 0
    # The solve_timeout deadline released the batch, not the hang's end.
    assert _recovery_seconds(plan, outcome) < delay


def test_killed_worker_breaks_pool_and_recovers(tmp_path):
    corpus = _demo_corpus()
    reference = _audit(corpus, None, tmp_path, "inline")
    dispatcher = ProcessPoolDispatcher(2, plan_chunk_pairs=8)
    plan = FaultPlan(
        [FaultSpec("dispatch.chunk", kind="kill", nth=(1,))],
        log_path=_event_log(tmp_path, "kill"),
    )
    with plan, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        outcome = _audit(corpus, dispatcher, tmp_path, "kill")
    assert plan.fired("dispatch.chunk") == 1
    _assert_equivalent(outcome, reference, "kill")
    # The dead worker broke the pool: at least its chunk failed and was
    # re-planned inline; the pool was rebuilt and finished the batch.
    assert outcome["faults"][2] >= 1  # pool_failures
    assert outcome["faults"][1] >= 1  # chunks_requeued
    assert _recovery_seconds(plan, outcome) < 2.0


def test_relentless_faults_trip_degraded_serial_mode(tmp_path):
    corpus = _demo_corpus()
    reference = _audit(corpus, None, tmp_path, "inline")
    dispatcher = ThreadPoolDispatcher(
        2, plan_chunk_pairs=8, max_pool_failures=2
    )
    plan = FaultPlan(
        [FaultSpec("dispatch.chunk", kind="error", every=1)],
        log_path=_event_log(tmp_path, "degraded"),
    )
    with plan, pytest.warns(RuntimeWarning, match="degrading to serial"):
        outcome = _audit(corpus, dispatcher, tmp_path, "degraded")
    _assert_equivalent(outcome, reference, "degraded")
    assert outcome["faults"][3] == 1  # degraded_serial: tripped once
    assert outcome["faults"][2] >= 2  # at least max_pool_failures
    assert _recovery_seconds(plan, outcome) < 2.0
    # Degraded mode is per-batch: the next batch re-arms the pool.
    assert dispatcher.degraded is True
    dispatcher.for_batch(1)
    assert dispatcher.degraded is False
    dispatcher.close()


def test_shared_cache_io_errors_degrade_to_resolves(tmp_path):
    # Transient cache I/O errors must cost only performance: detection
    # re-solves what the cache cannot serve, results are unchanged.
    corpus = _demo_corpus()
    reference = _audit(corpus, None, tmp_path, "inline")
    cache = SQLiteSolveCache(
        tmp_path / "cache.db",
        breaker=CircuitBreaker(failure_threshold=3, cooldown_seconds=60.0),
    )
    try:
        with FaultPlan(
            [
                FaultSpec("cache.get", kind="io-error", every=2),
                FaultSpec("cache.put", kind="io-error", every=2),
            ],
            log_path=_event_log(tmp_path, "cache-chaos"),
        ) as plan, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            outcome = _audit(
                corpus, SerialDispatcher(), tmp_path, "cache-chaos",
                shared_cache=cache,
            )
        assert plan.fired_total() > 0
        assert outcome["threats"] == reference["threats"]
        assert outcome["caches"] == reference["caches"]
        assert outcome["store"] == reference["store"]
        # A failed cache call falls through to the solver at once.
        assert _recovery_seconds(plan, outcome) < 2.0
    finally:
        cache.close()


def _guarded_sqlite_user(user, tmp_path, breaker):
    """One user of the breaker-guarded SQLite connection: the backend,
    its fault points, a write (truthy once it landed), a read (``None``
    on a miss — for the store, a read it refused) and what the read
    returns after that one write."""
    if user == "solve-cache":
        cache = SQLiteSolveCache(tmp_path / "cache.db", breaker=breaker)
        entry = {"verdict": "sat"}
        return (
            cache,
            ("cache.get", "cache.put"),
            lambda: cache.put("k1", entry),
            lambda: cache.get("k1"),
            entry,
        )
    store = SQLiteStoreBackend(
        tmp_path / "store.sqlite", namespace="h1", breaker=breaker
    )

    def read():
        try:
            return store.read_journal("journal")
        except StoreReadError:
            return None

    return (
        store,
        ("store.append",),
        lambda: store.append_journal("journal", "line-1") > 0,
        read,
        ["line-1"],
    )


@pytest.mark.parametrize("user", ["solve-cache", "store"])
def test_sqlite_cache_breaker_opens_and_recovers(tmp_path, user):
    now = [0.0]
    breaker = CircuitBreaker(
        failure_threshold=2, cooldown_seconds=5.0, clock=lambda: now[0]
    )
    backend, points, write, read, written = _guarded_sqlite_user(
        user, tmp_path, breaker
    )
    try:
        with FaultPlan(
            [FaultSpec(point, kind="io-error", every=1) for point in points]
        ):
            assert not write()
            with pytest.warns(
                RuntimeWarning, match="circuit breaker"
            ) as opened:
                assert not write()  # opens here
        # A transient outage is told apart from a permanent disable.
        assert "until the breaker closes" in str(opened[0].message)
        # Open: with the faults gone, reads still miss and writes
        # report nothing until the cooldown passes.
        assert backend.breaker_state == "open"
        assert read() is None
        assert not write()
        # After the cooldown the next call is the half-open probe; it
        # succeeds and closes the breaker.
        now[0] += breaker.cooldown_seconds
        assert backend.breaker_state == "half-open"
        assert write()
        assert backend.breaker_state == "closed"
        assert read() == written
    finally:
        backend.close()


# ----------------------------------------------------------------------
# SQLite store under a locked database (satellite: degradation + no
# data loss once the lock clears)


def test_store_backend_survives_locked_database(tmp_path):
    db = tmp_path / "store.sqlite"
    backend = SQLiteStoreBackend(
        db, namespace="h1", busy_timeout_ms=5,
        breaker=CircuitBreaker(failure_threshold=2, cooldown_seconds=0.0),
    )
    assert backend.write_doc("snapshot", "before-lock") > 0

    locker = sqlite3.connect(str(db), timeout=0.1)
    try:
        locker.execute("BEGIN IMMEDIATE")  # hold the write lock
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # Writes degrade to zero bytes — never an exception, never
            # a hang (the 5ms busy timeout gives up fast).
            assert backend.write_doc("snapshot", "during-lock") == 0
            assert backend.append_journal("journal", "line-1") == 0
            assert backend.breaker_state in ("open", "half-open")
        # Reads of committed state still work (WAL readers don't need
        # the write lock), so nothing already durable is lost.
        assert backend.read_doc("snapshot") == "before-lock"
    finally:
        locker.rollback()
        locker.close()
        released = time.monotonic()

    # Lock cleared + zero cooldown: the half-open probe succeeds and
    # service resumes with no data loss for everything after it —
    # within 2 s of the release.
    assert backend.write_doc("snapshot", "after-lock") > 0
    assert time.monotonic() - released < 2.0
    assert backend.breaker_state == "closed"
    assert backend.read_doc("snapshot") == "after-lock"
    assert backend.append_journal("journal", "line-2") > 0
    assert backend.read_journal("journal") == ["line-2"]


# ----------------------------------------------------------------------
# Dispatcher API details


class _Unpicklable(TypeBasedResolver):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.live_handle = lambda: None


def test_unpicklable_resolver_warns_by_name():
    dispatcher = ProcessPoolDispatcher(2)
    with pytest.warns(RuntimeWarning, match="_Unpicklable.*not.*picklable"):
        assert dispatcher.encode_resolver(_Unpicklable()) is None
    # A picklable resolver encodes silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatcher.encode_resolver(TypeBasedResolver()) is not None
    dispatcher.close()


def test_dispatcher_validates_fault_tolerance_params():
    with pytest.raises(ValueError):
        ThreadPoolDispatcher(2, solve_timeout=0.0)
    with pytest.raises(ValueError):
        ThreadPoolDispatcher(2, max_pool_failures=0)


# ----------------------------------------------------------------------
# Transport: typed connection errors, retries, deadlines


def _dead_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_client_raises_typed_transport_connection_error():
    client = FleetClient("127.0.0.1", _dead_port(), timeout=2.0)
    with pytest.raises(TransportConnectionError) as excinfo:
        client.status()
    error = excinfo.value
    assert error.code == "transport-connection"
    assert error.details["method"] == "status"
    assert error.details["host"] == "127.0.0.1"
    # Compatibility: the typed error is still a ConnectionError, so
    # pre-taxonomy `except OSError` callers keep working.
    assert isinstance(error, ConnectionError)


def test_client_retry_backs_off_deterministically():
    slept = []
    policy = RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0)
    client = FleetClient(
        "127.0.0.1", _dead_port(), timeout=2.0,
        retry=policy, sleep=slept.append,
    )
    with pytest.raises(TransportConnectionError):
        client.call("status")
    assert slept == policy.delays()  # one backoff per failed attempt


def test_client_retry_recovers_when_server_appears():
    # First attempt hits a dead port; the injected sleep "fails the
    # server over" to a live instance and the retry succeeds — the
    # client-visible contract of retryable transport failures.
    service = HomeGuardService(workers=None)
    with serve_background(service, own_service=True) as background:
        client = FleetClient(
            "127.0.0.1", _dead_port(), timeout=2.0,
            retry=RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0),
        )

        failures = []

        def failover(_delay):
            failures.append(time.monotonic())
            client.port = background.port

        client._sleep = failover
        assert client.status().state == "serving"
        # One failed attempt, and the retry is served promptly.
        assert len(failures) == 1
        assert time.monotonic() - failures[0] < 2.0


def test_server_sheds_requests_past_deadline():
    service = HomeGuardService(workers=None)
    with serve_background(
        service, own_service=True, request_deadline_seconds=1e-9
    ) as background:
        with FleetClient(background.host, background.port) as client:
            with pytest.raises(UnavailableError) as excinfo:
                client.call("echo", {"kind": "x"})
            error = excinfo.value
            assert error.details["reason"] == "deadline-exceeded"
            assert error.details["retryable"] is True
            assert error.details["queued_seconds"] > 0
            # status is answered inline (no queue), so it never sheds —
            # and it reports the shed request.
            record = client.status()
            assert record.deadline_rejections == 1
            assert record.internal_errors == 0


def test_server_status_reports_fault_surface(tmp_path):
    service = HomeGuardService(
        workers=None,
        solve_cache=f"sqlite:{tmp_path / 'cache.db'}",
        store_root=tmp_path / "homes",
        store_backend="sqlite",
    )
    with serve_background(service, own_service=True) as background:
        with FleetClient(background.host, background.port) as client:
            record = client.status()
            assert record.breaker_states == {
                "solve-cache": "closed",
                "store": "closed",
            }
            assert record.tasks_retried == 0
            assert record.degraded_serial == 0
            assert record.deadline_rejections == 0


def test_injected_write_fault_is_survivable(tmp_path):
    # A response lost to a broken socket write: the server closes the
    # connection (never leaves a half-written response on a keep-alive
    # stream) and the client's reconnect path resends transparently.
    service = HomeGuardService(workers=None)
    with serve_background(service, own_service=True) as background:
        plan = FaultPlan(
            [FaultSpec("transport.write", kind="disconnect", nth=(1,))],
            log_path=tmp_path / "write.jsonl",
        )
        with plan:
            with FleetClient(background.host, background.port) as client:
                started = time.monotonic()
                assert client.status().state == "serving"
                recovery = time.monotonic() - started
        assert plan.fired("transport.write") == 1
        # The reset is fast: the transparent resend lands well inside
        # the client's 60 s read timeout instead of waiting it out.
        assert recovery < 5.0, f"write-fault recovery took {recovery:.1f}s"
        events = plan.events()
        assert events[0]["point"] == "transport.write"
        assert events[0]["bytes"] > 0
        # The server stayed healthy: no internal errors, next calls fine.
        with FleetClient(background.host, background.port) as client:
            assert client.status().internal_errors == 0


# ----------------------------------------------------------------------
# Service integration: faults during fleet audits stay invisible


def test_service_audit_with_chunk_faults_matches_clean_run(tmp_path):
    from repro.service.schemas import (
        AuditRequest,
        DecisionRequest,
        InstallRequest,
    )

    def run_fleet(dispatcher, plan=None):
        # Same home id in both runs (separate service instances), so
        # the serialized reports are comparable byte-for-byte.
        service = HomeGuardService(workers=dispatcher)
        with service:
            service.create_home("home-demo")
            apps = list(demo_apps())
            service.preload(apps)
            installed = []
            ctx = plan if plan is not None else _NullContext()
            with ctx, warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for app in apps:
                    session = service.install(
                        InstallRequest(
                            home_id="home-demo",
                            app_name=app.name,
                            devices=dict(app.type_hints),
                            values=dict(app.values),
                        )
                    )
                    installed.append(session.report.to_json())
                    # Keep each app so later installs audit against it
                    # (pending sessions never commit to the index).
                    service.decide(
                        DecisionRequest(
                            home_id="home-demo",
                            session_id=session.session_id,
                            decision="keep",
                        )
                    )
                reports = service.audit(
                    AuditRequest(home_id="home-demo")
                )
            return installed, [r.to_json() for r in reports]

    class _NullContext:
        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

    clean = run_fleet(SerialDispatcher())
    chaos_dispatcher = ThreadPoolDispatcher(2)
    chaos = run_fleet(
        chaos_dispatcher,
        FaultPlan([FaultSpec("dispatch.chunk", kind="error", every=2)]),
    )
    assert chaos == clean
    totals = chaos_dispatcher.fault_totals()
    assert totals["pool_failures"] > 0
