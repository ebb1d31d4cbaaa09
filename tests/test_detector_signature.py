"""Unit tests for the signature/index layers of the detection pipeline.

The signed candidate tests must agree with the per-pair derivations in
``repro.detector.analysis``, and the inverted index must return a
superset of every threat class's candidate pairs.
"""

from repro.constraints import TypeBasedResolver
from repro.detector import (
    DetectionEngine,
    RuleIndex,
    SignatureBuilder,
    compute_signature,
)
from repro.detector.analysis import (
    action_identity,
    action_touches_condition,
    action_triggers,
    actions_contradict,
    command_target,
    goal_conflict_channels,
)
from repro.detector.signature import (
    signatures_contradict,
    signed_action_triggers,
    signed_condition_touches,
    signed_goal_conflicts,
)
from repro.rules import extract_rules

HEATER_APP = '''
input "c1", "capability.contactSensor"
input "heater1", "capability.switch"
def installed() { subscribe(c1, "contact.closed", h) }
def h(evt) { heater1.on() }
'''

FAN_APP = '''
input "t2", "capability.temperatureMeasurement"
input "fan2", "capability.switch"
def installed() { subscribe(t2, "temperature", h) }
def h(evt) {
    if (evt.value.toInteger() > 80) fan2.on()
}
'''

GUARD_APP = '''
input "lamp1", "capability.switch"
input "motion1", "capability.motionSensor"
input "alarm1", "capability.alarm"
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    if (lamp1.currentSwitch == "on") alarm1.both()
}
'''

MODE_SETTER = '''
input "p1", "capability.presenceSensor"
def installed() { subscribe(p1, "presence.not present", h) }
def h(evt) { setLocationMode("Away") }
'''

NOTIFY_APP = '''
input "c9", "capability.contactSensor"
def installed() { subscribe(c9, "contact.open", h) }
def h(evt) { sendPush("door opened") }
'''

HINTS = {
    "Heater": {"c1": "contactSensor", "heater1": "heater"},
    "FanCtl": {"t2": "temperatureSensor", "fan2": "fan"},
    "Guard": {"lamp1": "floorLamp", "motion1": "motionSensor",
              "alarm1": "siren"},
    "Setter": {"p1": "presenceSensor"},
    "Notify": {"c9": "contactSensor"},
}


def _resolver():
    return TypeBasedResolver(type_hints=HINTS)


def _rule(source, app):
    return extract_rules(source, app).rules[0]


def test_signature_matches_analysis_derivations():
    resolver = _resolver()
    rule = _rule(HEATER_APP, "Heater")
    sig = compute_signature(resolver, rule)
    identity, type_name = action_identity(resolver, rule)
    assert sig.action_identity == identity
    assert sig.action_type == type_name
    assert sig.command_target == command_target(rule.action)
    assert "temperature" in sig.action_effects
    assert sig.is_device_action
    assert sig.trigger_fireable
    assert sig.trigger_identity is not None


def test_signature_location_action():
    resolver = _resolver()
    sig = compute_signature(resolver, _rule(MODE_SETTER, "Setter"))
    assert sig.sets_location_mode
    assert sig.action_identity == "location:mode"
    assert sig.command_target == ("mode", "Away")


def test_signature_non_device_action():
    resolver = _resolver()
    sig = compute_signature(resolver, _rule(NOTIFY_APP, "Notify"))
    assert not sig.is_device_action
    assert sig.action_identity is None
    assert sig.action_effects == {}


def test_signature_condition_reads():
    resolver = _resolver()
    sig = compute_signature(resolver, _rule(GUARD_APP, "Guard"))
    assert any(
        read.attr.attribute == "switch" for read in sig.condition_reads
    )


def test_signed_tests_agree_with_analysis():
    resolver = _resolver()
    heater = _rule(HEATER_APP, "Heater")
    fan = _rule(FAN_APP, "FanCtl")
    guard = _rule(GUARD_APP, "Guard")
    sig_h = compute_signature(resolver, heater)
    sig_f = compute_signature(resolver, fan)
    sig_g = compute_signature(resolver, guard)
    for a, b, sa, sb in [
        (heater, fan, sig_h, sig_f),
        (fan, heater, sig_f, sig_h),
        (heater, guard, sig_h, sig_g),
        (guard, heater, sig_g, sig_h),
    ]:
        assert signatures_contradict(sa, sb) == actions_contradict(a, b)
        assert signed_goal_conflicts(sa, sb) == goal_conflict_channels(
            resolver, a, b
        )
        assert signed_action_triggers(sa, sb) == action_triggers(
            resolver, a, b
        )
        assert signed_condition_touches(sa, sb) == action_touches_condition(
            resolver, a, b
        )


def test_signature_builder_memoizes_and_invalidates():
    builder = SignatureBuilder(_resolver())
    rule = _rule(HEATER_APP, "Heater")
    first = builder.sign(rule)
    assert builder.sign(rule) is first
    builder.invalidate_app("Heater")
    assert builder.sign(rule) is not first


def test_index_candidates_cover_detected_pairs():
    # Every pair the engine finds a threat in must be index-reachable
    # from at least one side.
    resolver = _resolver()
    engine = DetectionEngine(resolver)
    builder = engine.signatures
    rules = [
        _rule(HEATER_APP, "Heater"),
        _rule(FAN_APP, "FanCtl"),
        _rule(GUARD_APP, "Guard"),
        _rule(MODE_SETTER, "Setter"),
        _rule(NOTIFY_APP, "Notify"),
    ]
    sigs = [builder.sign(rule) for rule in rules]
    index = RuleIndex()
    index.add_ruleset(sigs)
    for sig_a in sigs:
        reachable = {s.rule_id for s in index.candidates(sig_a)}
        for sig_b in sigs:
            if sig_b.rule_id == sig_a.rule_id:
                continue
            if engine.detect_signed(sig_a, sig_b):
                assert (
                    sig_b.rule_id in reachable
                    or sig_a.rule_id
                    in {s.rule_id for s in index.candidates(sig_b)}
                )


def test_index_remove_app():
    resolver = _resolver()
    builder = SignatureBuilder(resolver)
    sig_h = builder.sign(_rule(HEATER_APP, "Heater"))
    sig_f = builder.sign(_rule(FAN_APP, "FanCtl"))
    index = RuleIndex()
    index.add_ruleset([sig_h, sig_f])
    assert len(index) == 2
    assert any(s.rule_id == sig_h.rule_id for s in index.candidates(sig_f))
    index.remove_app("Heater")
    assert len(index) == 1
    assert index.apps == ["FanCtl"]
    assert not any(
        s.rule_id == sig_h.rule_id for s in index.candidates(sig_f)
    )


def test_index_excludes_app():
    resolver = _resolver()
    builder = SignatureBuilder(resolver)
    sig_h = builder.sign(_rule(HEATER_APP, "Heater"))
    sig_f = builder.sign(_rule(FAN_APP, "FanCtl"))
    index = RuleIndex()
    index.add(sig_h)
    assert index.candidates(sig_f)
    assert not index.candidates(sig_f, exclude_app="Heater")
    assert not index.candidates(sig_h, exclude_app="Heater")


TWO_SENSOR_APP = '''
input "tA", "capability.temperatureMeasurement"
input "tB", "capability.temperatureMeasurement"
input "fan3", "capability.switch"
def installed() { subscribe(tA, "temperature", h) }
def h(evt) {
    if (tA.currentTemperature > 80 && tB.currentTemperature > 80) fan3.on()
}
'''


def test_index_remove_app_drops_a_signature_filed_twice_under_one_key():
    # Both condition reads resolve to one (identity, attribute) and one
    # channel, so the signature is filed twice under each of those keys.
    resolver = TypeBasedResolver(
        type_hints={
            **HINTS,
            "TwoSensors": {"tA": "temperatureSensor",
                           "tB": "temperatureSensor", "fan3": "fan"},
        }
    )
    builder = SignatureBuilder(resolver)
    sig_two = builder.sign(_rule(TWO_SENSOR_APP, "TwoSensors"))
    sig_h = builder.sign(_rule(HEATER_APP, "Heater"))
    read_key = {
        (read.identity, read.attr.attribute) for read in sig_two.condition_reads
    }
    assert len(sig_two.condition_reads) == 2 and len(read_key) == 1
    index = RuleIndex()
    index.add(sig_h)
    index.add(sig_two)
    assert index.conditions_by_identity_attr[read_key.pop()] == [
        sig_two, sig_two,
    ]
    index.remove_app("TwoSensors")
    fresh = RuleIndex()
    fresh.add(sig_h)
    assert index == fresh
