"""Runtime interference monitor (DESIGN.md §16).

Covers the rolling baseline, the shipped rule catalog
(threat-confirmation compilation plus the anomaly rules), the engine's
event-time clock and exactly-once dedup, trace replay vs. live-bus
equivalence, the evidence feedback loop into handling policies, and
the full acceptance path: a statically predicted threat whose witness
sequence is replayed through the monitor is confirmed exactly once,
the ``EvidencePolicy`` verdict escalates with persisted provenance,
observations survive a store save/load round-trip, and loopback
``FleetClient`` ingestion yields byte-identical observations to the
in-process call.  A chaos arm proves no observation is double-counted
under injected store-append and transport-write faults.
"""

import json
import random

import pytest

from repro.corpus import app_by_name
from repro.detector.types import Threat, ThreatType
from repro.monitor import (
    KIND_ANOMALY,
    KIND_CONFIRMED,
    KIND_CONTRADICTED,
    CommandLoopRule,
    ConfirmationRule,
    MonitorEngine,
    Observation,
    OffHoursRule,
    PowerAnomalyRule,
    RollingBaseline,
    ToggleSpamRule,
    compile_confirmations,
    default_anomaly_rules,
    threat_key,
)
from repro.resilience import RetryPolicy
from repro.rules.model import Action, Condition, DeviceRef, Rule, Trigger
from repro.runtime.events import Event, EventBus
from repro.service import (
    DecisionRequest,
    EvidencePolicy,
    HomeGuardService,
    InstallRequest,
    MonitorEventRequest,
    ObservationRecord,
    SeverityThresholdPolicy,
)
from repro.service.home import InstallReview
from repro.service.transport import FleetClient, serve_background
from repro.testing.faults import FaultPlan, FaultSpec

# Mid-day event time, so the off-hours anomaly rule stays quiet in
# tests that exercise other rules.
NOON = 12 * 3600.0


def ev(subject, name, value, ts):
    return Event(subject=subject, name=name, value=value, timestamp=ts)


# ----------------------------------------------------------------------
# Baseline primitive


def test_rolling_baseline_bounded_mean():
    baseline = RollingBaseline(size=3)
    for value in (10.0, 20.0, 30.0, 40.0):
        baseline.push(value)
    assert baseline.count == 3
    assert baseline.mean() == pytest.approx(30.0)


# ----------------------------------------------------------------------
# Rule catalog


def test_confirmation_rule_ordered_requires_sequence():
    rule = ConfirmationRule(
        "CT:A/R1->B/R1",
        ((("d1", "switch", "on"),), (("d2", "switch", "off"),)),
        window=100.0,
        ordered=True,
    )
    # Effect-of-B before effect-of-A: no confirmation.
    assert rule.observe(ev("d2", "switch", "off", 10.0), 10.0) == []
    assert rule.observe(ev("d1", "switch", "on", 20.0), 20.0) == []
    # Now the witness order: A then B fires exactly one finding.
    found = rule.observe(ev("d2", "switch", "off", 30.0), 30.0)
    assert len(found) == 1
    assert found[0].kind == KIND_CONFIRMED
    assert found[0].threat_key == "CT:A/R1->B/R1"


def test_confirmation_rule_unordered_and_window_expiry():
    rule = ConfirmationRule(
        "AR:A/R1->B/R1",
        ((("d1", "switch", "on"),), (("d1", "switch", "off"),)),
        window=50.0,
        ordered=False,
    )
    # Either order works for symmetric threats...
    assert rule.observe(ev("d1", "switch", "off", 10.0), 10.0) == []
    assert rule.observe(ev("d1", "switch", "on", 40.0), 40.0) != []
    # ...but stamps further apart than the window never complete.
    assert rule.observe(ev("d1", "switch", "off", 100.0), 100.0) == []
    assert rule.observe(ev("d1", "switch", "on", 200.0), 200.0) == []
    # The fresh stamp is kept: completing within the window still fires.
    assert rule.observe(ev("d1", "switch", "off", 230.0), 230.0) != []


def _rule(rule_id, app, device, command, capability="switch"):
    return Rule(
        app_name=app,
        rule_id=rule_id,
        trigger=Trigger(subject=device, attribute=capability),
        condition=Condition(),
        action=Action(
            subject=device,
            command=command,
            capability=capability,
            device=DeviceRef(name=device, capability=capability),
        ),
    )


def _threat(threat_type, rule_a, rule_b):
    return Threat(type=threat_type, rule_a=rule_a, rule_b=rule_b)


def test_compile_confirmations_resolves_devices_and_kinds():
    rule_a = _rule("A/R1", "A", "sw1", "on")
    rule_b = _rule("B/R1", "B", "sw2", "off")
    devices = {"A": {"sw1": "dev-9"}, "B": {"sw2": "dev-9"}}
    threats = [
        _threat(ThreatType.ACTUATOR_RACE, rule_a, rule_b),
        _threat(ThreatType.COVERT_TRIGGERING, rule_a, rule_b),
        _threat(ThreatType.DISABLING_CONDITION, rule_a, rule_b),
        # Duplicate key: compiled once.
        _threat(ThreatType.ACTUATOR_RACE, rule_a, rule_b),
    ]
    compiled = compile_confirmations(threats, devices)
    assert [c.threat_key for c in compiled] == [
        "AR:A/R1->B/R1", "CT:A/R1->B/R1", "DC:A/R1->B/R1",
    ]
    race, covert, disabling = compiled
    # Input names resolved to the bound home device id, effects to the
    # capability registry's attribute/value pairs.
    assert race.channels == frozenset({("dev-9", "switch")})
    assert race.ordered is False  # action interference is symmetric
    assert covert.ordered is True
    # A disabling-condition prediction inverts: seeing the sequence
    # contradicts the static verdict.
    assert disabling.kind == KIND_CONTRADICTED
    assert race.kind == KIND_CONFIRMED


def test_toggle_spam_fires_once_per_episode():
    rule = ToggleSpamRule(window=30.0, threshold=3)
    findings = []
    for i in range(8):
        findings += rule.observe(
            ev("sw1", "switch", "on", NOON + i), NOON + i
        )
    # 8 events, threshold 3: fires at the 4th event, window clears,
    # fires again at the 8th — one observation per episode.
    assert len(findings) == 2
    assert all(f.kind == KIND_ANOMALY for f in findings)


def test_power_anomaly_baseline_and_nonpositive():
    rule = PowerAnomalyRule(factor=1.5, min_samples=3)
    for i in range(3):
        assert rule.observe(ev("p1", "power", 100.0, NOON + i), NOON + i) == []
    spike = rule.observe(ev("p1", "power", 400.0, NOON + 10), NOON + 10)
    assert len(spike) == 1 and "exceeds" in spike[0].detail
    dead = rule.observe(ev("p1", "power", 0.0, NOON + 400), NOON + 400)
    assert len(dead) == 1 and "non-positive" in dead[0].detail


def test_power_anomaly_ignores_non_finite_readings():
    # Wire values reach the rule as strings, and float() accepts
    # "inf" and "nan".  Such a reading must neither be flagged nor
    # enter the baseline: an infinite sample used to turn the rolling
    # mean into NaN once it left the window, silencing the device.
    rule = PowerAnomalyRule()
    clock = iter(range(100))

    def feed(value):
        at = NOON + next(clock)
        return rule.observe(ev("p1", "power", value, at), at)

    for _ in range(10):
        assert feed(100.0) == []
    for value in ("inf", "-inf", "nan", float("inf")):
        assert feed(value) == []
    for _ in range(32):
        assert feed(100.0) == []
    spike = feed(900.0)
    assert len(spike) == 1 and "exceeds" in spike[0].detail
    assert "rolling mean 100.0W" in spike[0].detail
    assert len(feed(5000.0)) == 1


def test_off_hours_rule_one_finding_per_day():
    rule = OffHoursRule()
    assert rule.observe(ev("lock1", "lock", "unlocked", NOON), NOON) == []
    night = 3 * 3600.0
    first = rule.observe(ev("lock1", "lock", "unlocked", night), night)
    assert len(first) == 1 and first[0].dedup == "d0"
    # The rest of that day stays quiet for the device, not for others.
    later = night + 600.0
    assert rule.observe(ev("lock1", "lock", "locked", later), later) == []
    other = rule.observe(ev("door1", "door", "open", later), later)
    assert len(other) == 1 and other[0].dedup == "d0"
    next_night = 86400.0 + night
    second = rule.observe(
        ev("lock1", "lock", "unlocked", next_night), next_night
    )
    assert len(second) == 1 and second[0].dedup == "d1"
    assert second[0].detail.startswith("lock=unlocked at 3.0h")


def test_command_loop_detects_cycle():
    rule = CommandLoopRule(window=60.0, min_cycle=3)
    sequence = [("a", "switch"), ("b", "switch"), ("c", "switch"),
                ("a", "switch")]
    findings = []
    for i, (subject, attr) in enumerate(sequence):
        findings += rule.observe(
            ev(subject, attr, "on", NOON + i), NOON + i
        )
    assert len(findings) == 1
    assert "a.switch -> b.switch -> c.switch -> a.switch" in findings[0].detail
    # A two-channel ping-pong is below min_cycle: quiet.
    quiet_rule = CommandLoopRule(window=60.0, min_cycle=3)
    quiet = []
    for i, subject in enumerate(("a", "b", "a", "b", "a")):
        quiet += quiet_rule.observe(
            ev(subject, "switch", "on", NOON + i), NOON + i
        )
    assert quiet == []


# ----------------------------------------------------------------------
# Engine: clock, dedup, replay equivalence


def test_engine_event_time_clock_never_goes_backwards():
    engine = MonitorEngine("h1", default_anomaly_rules())
    engine.ingest(ev("sw1", "switch", "on", 100.0))
    engine.ingest(ev("sw1", "switch", "off", 40.0))  # late arrival
    assert engine.now() == 100.0


def test_engine_dedups_identical_observations():
    engine = MonitorEngine("h1", [OffHoursRule()])
    night = 3 * 3600.0
    first = engine.ingest(ev("lock1", "lock", "unlocked", night))
    again = engine.ingest(ev("lock1", "lock", "locked", night + 60))
    assert len(first) == 1 and again == []
    assert engine.counters()["anomalies"] == 1


def test_engine_seen_seed_prevents_reemission_after_rebuild():
    engine = MonitorEngine("h1", [OffHoursRule()])
    emitted = engine.ingest(ev("lock1", "lock", "unlocked", 3600.0))
    rebuilt = MonitorEngine(
        "h1", [OffHoursRule()], seen=[o.key for o in emitted]
    )
    assert rebuilt.ingest(ev("lock1", "lock", "unlocked", 3600.0)) == []


def test_replay_jsonl_matches_live_bus_tap():
    events = [
        ev("sw1", "switch", "on", NOON + i) for i in range(12)
    ] + [ev("p1", "power", 999.0, NOON + 20)]
    live = MonitorEngine("h1", default_anomaly_rules())
    bus = EventBus()
    live.attach(bus)
    for event in events:
        bus.publish(event)
    live_observations = live.drain()
    assert live_observations  # toggle spam fired
    lines = [
        '{"subject": "%s", "attribute": "%s", "value": "%s", '
        '"timestamp": %f}' % (e.subject, e.name, e.value, e.timestamp)
        for e in events
    ] + ["", "not json", '{"missing": "subject"}']
    replayed = MonitorEngine("h1", default_anomaly_rules())
    replay_observations = replayed.replay_jsonl(lines)
    assert [o.to_json() for o in replay_observations] == [
        o.to_json() for o in live_observations
    ]
    live.detach(bus)
    bus.publish(ev("sw9", "switch", "on", NOON + 100))
    assert live.drain() == []  # detached taps see nothing


def test_set_rules_preserves_dedup_state():
    engine = MonitorEngine("h1", [OffHoursRule()])
    assert engine.ingest(ev("lock1", "lock", "unlocked", 3600.0))
    engine.set_rules([OffHoursRule()])  # recompiled after an install
    assert engine.ingest(ev("lock1", "lock", "unlocked", 3700.0)) == []


def test_rule_changes_reroute_later_events():
    # The engine caches each channel's route; add_rule and set_rules
    # must drop it, so later events reach exactly the new rule set.
    engine = MonitorEngine("h1", [OffHoursRule()])
    night = 3 * 3600.0
    assert engine.ingest(ev("sw1", "switch", "on", night))
    engine.add_rule(ToggleSpamRule(window=30.0, threshold=2))
    found = []
    for i in range(1, 4):
        found += engine.ingest(ev("sw1", "switch", "on", night + i))
    assert [o.rule for o in found] == ["toggle-spam"]
    race = ConfirmationRule(
        "AR:A/R1->B/R1",
        ((("sw1", "switch", "on"),), (("sw1", "switch", "off"),)),
        ordered=False,
    )
    engine.set_rules([race])
    found = []
    for i, value in enumerate(("on", "off", "on", "off")):
        found += engine.ingest(ev("sw1", "switch", value, night + 10 + i))
    # Off-hours and toggle spam are gone; only the race sees the
    # channel, and it confirms once (the second completion dedups).
    assert [o.rule for o in found] == ["confirm:AR:A/R1->B/R1"]
    assert engine.counters()["events_seen"] == 8


def test_ingest_equals_a_one_event_batch():
    events = _seeded_stream("window-1", "tv-1", count=600, seed=9)
    single = MonitorEngine("h1", default_anomaly_rules())
    batched = MonitorEngine("h1", default_anomaly_rules())
    for event in events:
        assert [o.to_json() for o in single.ingest(event)] == [
            o.to_json() for o in batched.ingest_batch([event])
        ]
    assert single.counters() == batched.counters()
    assert single.counters()["observations"] > 0
    assert single.now() == batched.now()


def test_identity_memo_never_emits_a_seeded_key():
    # Keys from a persisted ledger seed the rebuilt engine.  The
    # identity memo skips hashing only for identities whose key is
    # already seen, so no seeded key is emitted again, not even after
    # a rule recompile.
    events = _seeded_stream("window-1", "tv-1", count=800, seed=4)
    first = MonitorEngine("h1", default_anomaly_rules())
    emitted = first.ingest_batch(events[:400])
    seeded = {o.key for o in emitted}
    assert len(seeded) > 5
    rebuilt = MonitorEngine("h1", default_anomaly_rules(), seen=seeded)
    again = rebuilt.ingest_batch(events[:200])
    rebuilt.set_rules(default_anomaly_rules())
    again += rebuilt.ingest_batch(events[200:])
    assert not seeded & {o.key for o in again}
    # The rest of the stream still yields what one engine yields.
    first.ingest_batch(events[400:])
    whole = MonitorEngine("h1", default_anomaly_rules())
    expected = [o.key for o in whole.ingest_batch(events)]
    assert sorted(seeded | {o.key for o in again}) == sorted(expected)
    assert first.counters()["observations"] == len(expected)


# ----------------------------------------------------------------------
# Evidence feedback into handling policies


def _review_with(threat):
    review = InstallReview(app_name=threat.rule_b.app_name, rules=[])
    review.threats.append(threat)
    return review


def test_evidence_policy_escalates_and_downgrades():
    threat = _threat(
        ThreatType.ACTUATOR_RACE,
        _rule("A/R1", "A", "sw1", "on"),
        _rule("B/R1", "B", "sw1", "off"),
    )
    key = threat_key(threat)
    policy = EvidencePolicy(
        SeverityThresholdPolicy(threshold=5),
        escalate_by=2, downgrade_by=1, unconfirmed_after=1000.0,
    )
    assert policy.name == "evidence+severity-threshold"
    review = _review_with(threat)
    # No evidence: identical to the inner policy (AR severity 4 < 5).
    assert policy.decide_with_evidence(review, {}) is not None
    assert policy.worst_with_evidence(review, {}) == 4

    from repro.monitor import ThreatEvidence

    confirmed = {key: ThreatEvidence(confirmed=1)}
    assert policy.worst_with_evidence(review, confirmed) == 6
    assert policy.decide_with_evidence(review, confirmed).value == "delete"
    assert any("escalate" in note for note in policy.proposals(review, confirmed))

    contradicted = {key: ThreatEvidence(contradicted=2)}
    assert policy.worst_with_evidence(review, contradicted) == 3
    assert any(
        "downgrade" in note for note in policy.proposals(review, contradicted)
    )
    stale = {key: ThreatEvidence(watch_seconds=5000.0)}
    assert policy.worst_with_evidence(review, stale) == 3
    assert any("unconfirmed" in note for note in policy.proposals(review, stale))


# ----------------------------------------------------------------------
# Service integration: the acceptance loop


COMFORT_TV = dict(
    app_name="ComfortTV",
    devices={"tv1": "TV", "tSensor": "Temp", "window1": "Window"},
    values={"threshold1": 30},
)
COLD_DEFENDER = dict(
    app_name="ColdDefender",
    devices={"tv2": "TV", "window2": "Window"},
    values={"weather": "rainy"},
)


def evidence_service(**kwargs):
    kwargs.setdefault("workers", None)
    kwargs.setdefault(
        "policy", EvidencePolicy(SeverityThresholdPolicy(threshold=5))
    )
    service = HomeGuardService(**kwargs)
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    return service


def setup_home(service, home_id="h1"):
    service.create_home(home_id)
    service.register_device(home_id, "TV", "tv")
    service.register_device(home_id, "Temp", "temperatureSensor")
    window = service.register_device(home_id, "Window", "windowOpener")
    service.install(InstallRequest(home_id=home_id, **COMFORT_TV))
    session = service.install(InstallRequest(home_id=home_id, **COLD_DEFENDER))
    assert session.decision == "keep"  # AR severity 4 < threshold 5
    assert any(t.type == "AR" for t in session.report.threats)
    return window.device_id


def witness_request(home_id, window_id, batch_id="b-1"):
    """ComfortTV opens the window, ColdDefender closes it — the AR
    threat's witness sequence on the shared actuator."""
    return MonitorEventRequest(
        home_id=home_id,
        events=(
            (window_id, "switch", "on", NOON),
            (window_id, "switch", "off", NOON + 30.0),
        ),
        batch_id=batch_id,
    )


def test_predicted_threat_confirms_exactly_once_and_escalates(tmp_path):
    with evidence_service(store_root=tmp_path) as service:
        window_id = setup_home(service)
        request = witness_request("h1", window_id)
        produced = service.ingest_events(request)
        confirmed = [o for o in produced if o.outcome == "confirmed"]
        assert len(confirmed) == 1
        assert confirmed[0].threat_key.startswith("AR:")

        # Resending the batch (a transport retry) returns the original
        # observations byte-identically and counts nothing twice.
        replayed = service.ingest_events(request)
        assert [o.to_json() for o in replayed] == [
            o.to_json() for o in produced
        ]
        stats = service.detection_stats_record("h1")
        assert stats.monitor_events == 2
        assert stats.threats_confirmed == 1
        # Feeding the same witness sequence again (fresh batch) cannot
        # re-confirm: the confirmation is global per threat per home.
        later = service.ingest_events(
            MonitorEventRequest(
                home_id="h1",
                events=(
                    (window_id, "switch", "on", NOON + 900.0),
                    (window_id, "switch", "off", NOON + 930.0),
                ),
                batch_id="b-2",
            )
        )
        assert [o for o in later if o.outcome == "confirmed"] == []

        evidence = service.home("h1").evidence()
        ar_key = confirmed[0].threat_key
        assert evidence[ar_key].confirmed == 1

        # The evidence feedback loop: re-reviewing the same app now
        # escalates past the threshold, with policy provenance.
        session = service.install(InstallRequest(home_id="h1", **COLD_DEFENDER))
        assert session.decision == "delete"
        assert session.decided_by == "evidence+severity-threshold"
        persisted = service.home("h1").reviews[-1]
        assert persisted.decided_by == "evidence+severity-threshold"

    # Store save/load round-trip: a fresh service over the same store
    # restores the ledger byte-identically, evidence included.
    with evidence_service(store_root=tmp_path) as restored:
        restored.create_home("h1")
        restored.restore("h1")
        assert [o.to_json() for o in restored.observations("h1")] == [
            o.to_json() for o in produced
        ]
        assert restored.home("h1").evidence()[ar_key].confirmed == 1
        assert restored.home("h1").reviews[-1].decided_by == (
            "evidence+severity-threshold"
        )


def test_loopback_ingestion_is_byte_identical_to_in_process(tmp_path):
    with evidence_service(store_root=tmp_path / "wire") as wire_service:
        window_wire = setup_home(wire_service)
        with serve_background(wire_service) as background:
            with FleetClient(background.host, background.port) as client:
                over_wire = client.ingest_events(
                    witness_request("h1", window_wire)
                )
                listed = client.observations("h1")
                status = client.status()
        assert status.monitor_events == 2
        assert status.monitor_observations == len(over_wire)

    with evidence_service(store_root=tmp_path / "local") as local_service:
        window_local = setup_home(local_service)
        # Same registry, same install order: device ids line up.
        assert window_local == window_wire
        in_process = local_service.ingest_events(
            witness_request("h1", window_local)
        )

    assert [o.to_json() for o in over_wire] == [
        o.to_json() for o in in_process
    ]
    assert [o.to_json() for o in listed] == [o.to_json() for o in in_process]


def test_observation_record_wire_round_trip():
    observation = Observation(
        key="abc123", home_id="h1", rule="confirm:AR:A/R1->B/R1",
        kind="confirmed", subject="d1", threat_key="AR:A/R1->B/R1",
        detail="seen", timestamp=12.5, window_seconds=300.0,
    )
    record = ObservationRecord.from_observation(observation)
    assert record.outcome == "confirmed"
    assert ObservationRecord.from_json(record.to_json()) == record
    assert record.to_observation() == observation


# ----------------------------------------------------------------------
# Chaos arm: injected faults cannot double-count observations


def test_store_append_fault_then_retry_counts_once(tmp_path):
    with evidence_service(store_root=tmp_path) as service:
        window_id = setup_home(service)
        request = witness_request("h1", window_id)
        plan = FaultPlan([FaultSpec("store.append", kind="io-error", nth=(1,))])
        with plan:
            with pytest.raises(Exception):
                service.ingest_events(request)
            assert plan.fired("store.append") == 1
            # The client's retry of the failed batch succeeds and
            # returns the original observations — nothing is recounted.
            produced = service.ingest_events(request)
        confirmed = [o for o in produced if o.outcome == "confirmed"]
        assert len(confirmed) == 1
        stats = service.detection_stats_record("h1")
        assert stats.monitor_events == 2
        assert stats.threats_confirmed == 1
        ledger = service.observations("h1")
        assert len({o.key for o in ledger}) == len(ledger)

    # And the retried commit was durable: the ledger round-trips.
    with evidence_service(store_root=tmp_path) as restored:
        restored.create_home("h1")
        restored.restore("h1")
        assert [o.to_json() for o in restored.observations("h1")] == [
            o.to_json() for o in produced
        ]


def test_transport_write_fault_then_resend_counts_once(tmp_path):
    with evidence_service(store_root=tmp_path) as service:
        window_id = setup_home(service)
        request = witness_request("h1", window_id)
        with serve_background(service) as background:
            plan = FaultPlan(
                [FaultSpec("transport.write", kind="disconnect", nth=(1,))]
            )
            with plan:
                # Short timeout: the lost response surfaces quickly and
                # the client's reconnect path resends the same batch.
                with FleetClient(
                    background.host, background.port, timeout=2.0,
                    retry=RetryPolicy(attempts=3, base_delay=0.01),
                ) as client:
                    produced = client.ingest_events(request)
            assert plan.fired("transport.write") == 1
        confirmed = [o for o in produced if o.outcome == "confirmed"]
        assert len(confirmed) == 1
        stats = service.detection_stats_record("h1")
        # The server processed the batch at least twice (original plus
        # resend) but the dedup key admitted it exactly once.
        assert stats.monitor_events == 2
        assert stats.threats_confirmed == 1
        ledger = service.observations("h1")
        assert len({o.key for o in ledger}) == len(ledger)


# ----------------------------------------------------------------------
# Batch-split invariance: how a stream is cut into ingestion batches
# must never change what the monitor observes.


def _interactive_home():
    """A home keeping the ComfortTV/ColdDefender AR pair, so the
    stream below feeds a confirmation rule as well as the anomaly
    catalog.  Returns the home and its window and TV device ids."""
    service = HomeGuardService(workers=None)
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    service.create_home("h1")
    tv = service.register_device("h1", "TV", "tv")
    service.register_device("h1", "Temp", "temperatureSensor")
    window = service.register_device("h1", "Window", "windowOpener")
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision="keep",
        ))
    return service.home("h1"), window.device_id, tv.device_id


def _seeded_stream(window_id, tv_id, count=4000, seed=16):
    """Switch traffic on the watched window and TV (with toggle bursts),
    power readings with spikes and dropouts, and lock/alarm events,
    spread over more than a day of event time (nights included)."""
    rng = random.Random(seed)
    events, now = [], 0.0
    while len(events) < count:
        burst = rng.random() < 0.3
        now += rng.uniform(0.2, 1.0) if burst else rng.uniform(5, 90)
        kind = rng.random()
        if kind < 0.01:
            for flip in range(12):  # a flapping window: toggle spam
                events.append(ev(window_id, "switch", ("on", "off")[flip % 2],
                                 now + flip))
            now += 12
        elif kind < 0.5:
            subject = window_id if rng.random() < 0.6 else tv_id
            value = rng.choice(["on", "off"])
            events.append(ev(subject, "switch", value, now))
        elif kind < 0.8:
            watts = rng.choice(
                [0.0, rng.uniform(80, 120), rng.uniform(900, 2000)]
            )
            events.append(ev("meter", "power", round(watts, 2), now))
        else:
            name, values = rng.choice(
                [("lock", ["locked", "unlocked"]), ("alarm", ["off", "both"])]
            )
            events.append(ev("front", name, rng.choice(values), now))
    return events[:count]


def test_monitor_ledger_is_invariant_to_batch_split():
    ledgers = {}
    for size in (1, 7, 50, 100, 400, 4000):
        home, window_id, tv_id = _interactive_home()
        stream = _seeded_stream(window_id, tv_id)
        for start in range(0, len(stream), size):
            home.ingest_events(
                stream[start:start + size], batch_id=f"split{size}-{start}"
            )
        observations = home.observations()
        ledgers[size] = json.dumps([o.to_json() for o in observations])
    assert len(set(ledgers.values())) == 1, sorted(
        (size, len(json.loads(ledger))) for size, ledger in ledgers.items()
    )
    # The invariance is only as strong as what the stream exercises.
    kinds = {o.kind for o in observations}
    assert {KIND_CONFIRMED, KIND_ANOMALY} <= kinds


# ----------------------------------------------------------------------
# Running evidence tallies: equal to a rescan of the persisted ledger


def _rescanned_evidence(home):
    """``TenantHome.evidence()`` from scratch: one pass over the whole
    persisted ledger and the watch starts."""
    from repro.monitor import ThreatEvidence

    counts, latest = {}, 0.0
    for entry in home.frontend_state.get("observations", []):
        latest = max(latest, float(entry.get("timestamp", 0.0) or 0.0))
        key = str(entry.get("threat_key") or "")
        if not key:
            continue
        tally = counts.setdefault(key, [0, 0])
        if entry.get("kind") == KIND_CONFIRMED:
            tally[0] += 1
        elif entry.get("kind") == KIND_CONTRADICTED:
            tally[1] += 1
    watch = home.frontend_state.get("monitor", {}).get("watch", {})
    if home.monitor is not None:
        latest = max(latest, home.monitor.now())
    return {
        key: ThreatEvidence(
            confirmed=counts.get(key, (0, 0))[0],
            contradicted=counts.get(key, (0, 0))[1],
            watch_seconds=(
                max(0.0, latest - watch[key]) if key in watch else 0.0
            ),
        )
        for key in set(counts) | set(watch)
    }


def test_evidence_tallies_equal_a_ledger_rescan(tmp_path):
    service = HomeGuardService(
        workers=None, store_root=tmp_path, max_resident_homes=1
    )
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    service.create_home("h1")
    tv = service.register_device("h1", "TV", "tv").device_id
    service.register_device("h1", "Temp", "temperatureSensor")
    window = service.register_device("h1", "Window", "windowOpener").device_id
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision="keep",
        ))
    stream = _seeded_stream(window, tv, count=1200, seed=5)
    batches = [stream[start:start + 60] for start in range(0, 1200, 60)]
    produced = {}
    for index, batch in enumerate(batches):
        home = service.home("h1")
        produced[index] = home.ingest_events(batch, batch_id=f"b{index}")
        assert home.evidence() == _rescanned_evidence(home)
    evidence = service.home("h1").evidence()
    assert any(tally.confirmed for tally in evidence.values())

    # A retry replays the original batch and changes nothing.
    home = service.home("h1")
    assert home.ingest_events(batches[3], batch_id="b3") == produced[3]
    assert home.evidence() == evidence == _rescanned_evidence(home)

    # Eviction and reload rebuild the tallies and the retry index.
    service.create_home("h2")
    reloaded = service.home("h1")
    assert reloaded is not home
    assert reloaded.evidence() == _rescanned_evidence(reloaded)
    assert reloaded.ingest_events(batches[7], batch_id="b7") == produced[7]

    # A decision reopens the watch; later batches keep the tallies
    # equal to the rescan.
    session = service.install(InstallRequest(home_id="h1", **COLD_DEFENDER))
    service.decide(DecisionRequest(
        home_id="h1", session_id=session.session_id, decision="keep",
    ))
    home = service.home("h1")
    tail = _seeded_stream(window, tv, count=300, seed=6)
    offset = stream[-1].timestamp
    home.ingest_events(
        [ev(e.subject, e.name, e.value, e.timestamp + offset) for e in tail],
        batch_id="tail",
    )
    assert home.evidence() == _rescanned_evidence(home)
    service.close()
