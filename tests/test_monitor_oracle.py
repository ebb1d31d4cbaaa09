"""An independent oracle for the runtime monitor (DESIGN.md §16).

The monitor's rules keep sliding windows, rolling baselines and
per-rule stamps, and the tenant home feeds them batch by batch.  This
file re-derives every observation from the rule catalog's documented
semantics with a naive scan of the *whole* trace: for each event it
loops back over the events before it to rebuild each windowed quantity
(toggle counts, the power baseline, the command-loop trail), and it
computes observation keys itself.  It imports nothing from
``repro.monitor`` — no rule, window or engine code — so a bug there
cannot hide in both.  Three seeded streams and one shaped like the
``monitor_ingest`` benchmark workload, each split into ingestion
batches of 1, 7 and 100 events, must leave exactly the oracle's keys,
in order, in the home's ledger (the persisted one for the 100-event
split).
"""

import hashlib
import math
import random

from repro.capabilities.registry import find_command
from repro.corpus import app_by_name
from repro.detector import DetectionStore
from repro.detector.types import ThreatType
from repro.runtime.events import Event
from repro.service import DecisionRequest, HomeGuardService, InstallRequest

from tests.test_monitor import COLD_DEFENDER, COMFORT_TV, _seeded_stream

HOME = "h1"
CONFIRM_WINDOW = 300.0      # TenantHome.monitor_window
TOGGLE_WINDOW, TOGGLE_THRESHOLD = 30.0, 10
POWER_FACTOR, POWER_MIN_SAMPLES, POWER_BASELINE, POWER_BUCKET = (
    1.5, 5, 32, 300.0,
)
ACTIVE_HOURS = (8 * 3600.0, 18 * 3600.0)
OFF_HOURS_ATTRIBUTES = {"switch", "lock", "door", "alarm"}
LOOP_WINDOW, LOOP_MIN_CYCLE = 60.0, 3
SYMMETRIC = {
    ThreatType.ACTUATOR_RACE, ThreatType.GOAL_CONFLICT,
    ThreatType.LOOP_TRIGGERING,
}


def observation_key(rule, kind, subject, threat_key="", dedup=""):
    material = "\x1f".join((HOME, rule, kind, subject, threat_key, dedup))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def _matchers(rule, devices):
    """The (subject, attribute, value) events a rule's action shows up
    as: its bound device and the attributes its command drives, or the
    bare command name when the registry knows no effect."""
    action = rule.action
    name = action.device.name if action.device is not None else action.subject
    subject = devices.get(rule.app_name, {}).get(name, name)
    spec = find_command(action.command, action.capability)
    if spec is not None and spec.sets:
        return tuple(
            (subject, attribute, value) for attribute, value in spec.sets
        )
    return ((subject, action.command, None),)


def confirmation_specs(home):
    """One spec per kept predicted threat, in review order, each key
    once: ``(threat key, kind, ordered, steps)``."""
    devices = {
        app: dict(payload.devices)
        for app, payload in home.config_recorder.payloads.items()
    }
    specs, keys = [], set()
    for review in home.reviews:
        if review.decision != "keep":
            continue
        for threat in [*review.threats, *review.chains]:
            key = (
                f"{threat.type.value}:{threat.rule_a.rule_id}"
                f"->{threat.rule_b.rule_id}"
            )
            if key in keys:
                continue
            keys.add(key)
            kind = (
                "contradicted"
                if threat.type is ThreatType.DISABLING_CONDITION
                else "confirmed"
            )
            steps = (
                _matchers(threat.rule_a, devices),
                _matchers(threat.rule_b, devices),
            )
            specs.append((key, kind, threat.type not in SYMMETRIC, steps))
    return specs


def _confirms(stamps, ordered, steps, event, now):
    """Advance one confirmation's step stamps by ``event``; True when
    the witness sequence completed inside the window."""
    for index, step in enumerate(steps):
        for subject, attribute, value in step:
            if (subject, attribute) != (event.subject, event.name):
                continue
            if value is not None and str(event.value) != value:
                continue
            if ordered and index > 0 and (
                stamps[index - 1] is None or now < stamps[index - 1]
            ):
                break
            stamps[index] = now
            break
    if None in stamps:
        return False
    if max(stamps) - min(stamps) > CONFIRM_WINDOW:
        for index, stamp in enumerate(stamps):
            if ordered or now - stamp > CONFIRM_WINDOW:
                stamps[index] = None
        return False
    stamps[:] = [None] * len(stamps)
    return True


def _power(value):
    """A power reading as a number, or None when it is not a finite
    number (such readings are neither flagged nor baselined)."""
    try:
        reading = float(value)
    except (TypeError, ValueError):
        return None
    return reading if math.isfinite(reading) else None


def oracle_firings(events, specs):
    """Every ``(rule, observation key)`` the rule catalog's semantics
    fire over the trace, in order, repeats included: the ledger holds
    each key's first firing."""
    nows, clock = [], 0.0
    for event in events:
        clock = max(clock, event.timestamp)
        nows.append(clock)
    fired = []

    def emit(key):
        fired.append((rule, key))

    stamps = [[None] * len(steps) for _, _, _, steps in specs]
    toggle_from = {}   # subject -> first event after its last spam finding
    loop_from = 0      # first event of the command-loop trail
    for i, event in enumerate(events):
        now, channel = nows[i], (event.subject, event.name)
        for (key, kind, ordered, steps), spec_stamps in zip(specs, stamps):
            channels = {(s, a) for step in steps for s, a, _ in step}
            rule = f"confirm:{key}"
            if channel in channels and _confirms(
                spec_stamps, ordered, steps, event, now
            ):
                emit(observation_key(
                    f"confirm:{key}", kind, steps[-1][0][0], key
                ))

        rule = "toggle-spam"
        if event.name == "switch":
            count = 0
            for j in range(i, toggle_from.get(event.subject, 0) - 1, -1):
                if nows[j] <= now - TOGGLE_WINDOW:
                    break
                if channel == (events[j].subject, events[j].name):
                    count += 1
            if count > TOGGLE_THRESHOLD:
                emit(observation_key(
                    "toggle-spam", "anomaly", event.subject,
                    dedup=f"b{int(now // TOGGLE_WINDOW)}",
                ))
                toggle_from[event.subject] = i + 1

        rule = "power-anomaly"
        if event.name == "power":
            value = _power(event.value)
            if value is not None:
                baseline = []
                for j in range(i - 1, -1, -1):
                    if len(baseline) == POWER_BASELINE:
                        break
                    if (events[j].subject, events[j].name) != channel:
                        continue
                    reading = _power(events[j].value)
                    if reading is not None and reading > 0:
                        baseline.append(reading)
                dedup = f"b{int(now // POWER_BUCKET)}"
                if value <= 0 or (
                    len(baseline) >= POWER_MIN_SAMPLES
                    and value > POWER_FACTOR * sum(baseline) / len(baseline)
                ):
                    emit(observation_key(
                        "power-anomaly", "anomaly", event.subject,
                        dedup=dedup,
                    ))

        rule = "off-hours"
        start, end = ACTIVE_HOURS
        if event.name in OFF_HOURS_ATTRIBUTES and not (
            start <= now % 86400.0 < end
        ):
            emit(observation_key(
                "off-hours", "anomaly", event.subject,
                dedup=f"d{int(now // 86400.0)}",
            ))

        rule = "command-loop"
        trail = []
        for j in range(i - 1, loop_from - 1, -1):
            if nows[j] <= now - LOOP_WINDOW:
                break
            trail.insert(0, (events[j].subject, events[j].name))
        if channel in trail:
            last = len(trail) - 1 - trail[::-1].index(channel)
            between = []
            for other in trail[last + 1:]:
                if other != channel and other not in between:
                    between.append(other)
            if len(between) >= LOOP_MIN_CYCLE - 1:
                cycle = "|".join(sorted(
                    f"{subject}.{attribute}"
                    for subject, attribute in {channel, *between}
                ))
                emit(observation_key(
                    "command-loop", "anomaly", event.subject, dedup=cycle,
                ))
                loop_from = i
    return fired


def _workload_stream(window_id, tv_id, count=1500, seed=24):
    """The ``monitor_ingest`` workload's shape: window and TV toggles,
    temperature and power readings (a few spikes and non-finite
    strings), 1-120 s apart from 8AM on, so the stream crosses nights
    and the off-hours and race rules fire again and again after their
    first observation."""
    rng = random.Random(seed)
    events, now = [], 8 * 3600.0
    for _ in range(count):
        now += rng.uniform(1.0, 120.0)
        pick = rng.random()
        if pick < 0.4:
            event = (window_id, "switch", rng.choice(("on", "off")))
        elif pick < 0.6:
            event = (tv_id, "switch", rng.choice(("on", "off")))
        elif pick < 0.8:
            event = ("temp", "temperature", rng.randint(18, 34))
        else:
            draw = rng.random()
            watts = (
                rng.choice(("inf", "nan", "-inf")) if draw < 0.01
                else 900.0 if draw < 0.03
                else round(rng.uniform(90, 130), 1)
            )
            event = (tv_id, "power", watts)
        events.append(Event(*event, now))
    return events


def _ledger(root, stream_of, size, batch_prefix):
    """Feed one home the stream in batches of ``size``; returns its
    ledger, the confirmation specs and the stream.  With a ``root`` the
    home has a store and the ledger is the one it persisted; without
    one it is the home's in-memory ledger."""
    service = HomeGuardService(workers=None, store_root=root)
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    service.create_home(HOME)
    tv = service.register_device(HOME, "TV", "tv").device_id
    service.register_device(HOME, "Temp", "temperatureSensor")
    window = service.register_device(HOME, "Window", "windowOpener").device_id
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = service.install(InstallRequest(home_id=HOME, **spec))
        service.decide(DecisionRequest(
            home_id=HOME, session_id=session.session_id, decision="keep",
        ))
    home = service.home(HOME)
    specs = confirmation_specs(home)
    stream = stream_of(window, tv)
    for start in range(0, len(stream), size):
        home.ingest_events(
            stream[start:start + size], batch_id=f"{batch_prefix}-{start}"
        )
    service.close()
    if root is None:
        return home.frontend_state["observations"], specs, stream
    ledger = DetectionStore(root / HOME).load().frontend["extra"][
        "observations"
    ]
    return ledger, specs, stream


def _assert_ledgers_match_the_oracle(tmp_path, name, stream_of):
    """Every split of the stream leaves the oracle's keys, in order, in
    the ledger; returns the oracle's firings and the persisted ledger.
    Only the 100-event split persists: a store commit per batch of one
    would make the test's time follow the disk's fsync latency."""
    expected = None
    for size in (1, 7, 100):
        ledger, specs, stream = _ledger(
            tmp_path / f"{name}-{size}" if size == 100 else None,
            stream_of, size, name,
        )
        assert specs
        if expected is None:
            fired = oracle_firings(stream, specs)
            expected = list(dict.fromkeys(key for _, key in fired))
        assert [entry["key"] for entry in ledger] == expected, (name, size)
    return fired, ledger


def test_monitor_ledger_matches_a_naive_full_trace_scan(tmp_path):
    rules_seen = set()
    for seed in (21, 22, 23):
        _, ledger = _assert_ledgers_match_the_oracle(
            tmp_path, f"seed{seed}",
            lambda w, tv: _seeded_stream(w, tv, count=1500, seed=seed),
        )
        rules_seen.update(entry["rule"].split(":")[0] for entry in ledger)
    # The comparison is only as strong as the rules the streams fire.
    assert rules_seen == {
        "confirm", "toggle-spam", "power-anomaly", "off-hours",
        "command-loop",
    }


def test_monitor_ledger_matches_the_oracle_on_a_workload_shaped_stream(
    tmp_path,
):
    fired, ledger = _assert_ledgers_match_the_oracle(
        tmp_path, "workload", _workload_stream
    )
    # Off-hours and the race confirmation fire again after their first
    # observation; only the engine's dedup and the rules' memos keep
    # those repeats out of the ledger.
    firings = [rule.split(":")[0] for rule, _ in fired]
    kept = [entry["rule"].split(":")[0] for entry in ledger]
    for rule in ("off-hours", "confirm"):
        assert firings.count(rule) > kept.count(rule) > 0, rule
