"""Failure-injection tests: malformed inputs, broken transports,
missing configuration, adversarial apps."""

import pytest

from repro.capabilities.devices import make_device_id
from repro.config import ConfigPayload, SmsTransport, decode_uri, encode_uri
from repro.config.recorder import ConfigRecorder
from repro.constraints import TypeBasedResolver
from repro.detector import DetectionEngine
from repro.rules import extract_rules
from repro.rules.extractor import ExtractionError, RuleExtractor
from repro.runtime import SmartHome
from repro.service import HomeGuardService, InstallDecision


def test_malformed_uri_segments_rejected():
    with pytest.raises(ValueError):
        decode_uri("http://my.com/appname:A/brokensegment/")


def test_companion_app_survives_partial_config():
    """Unbound device inputs must not alias across apps (no spurious
    same-device findings when configuration is incomplete)."""
    backend = RuleExtractor()
    source = '''
input "c1", "capability.contactSensor"
input "l1", "capability.switch"
def installed() { subscribe(c1, "contact.open", h) }
def h(evt) { l1.on() }
'''
    backend.extract(source, "A")
    backend.extract(source.replace("l1.on()", "l1.off()")
                    .replace('"c1"', '"c9"').replace('"l1"', '"l9"')
                    .replace("c1,", "c9,").replace("l1.off", "l9.off"),
                    "B")
    home = HomeGuardService(extractor=backend, workers=None).create_home("h")
    # Neither app's payload carries any device binding.
    review_a = home.review_installation(ConfigPayload(app_name="A"))
    home.decide(review_a, InstallDecision.KEEP)
    review_b = home.review_installation(ConfigPayload(app_name="B"))
    assert review_b.threats == []  # unbound inputs never alias


def test_sms_transport_failure_is_loud():
    transport = SmsTransport()
    transport.roaming = True
    payload = ConfigPayload(app_name="A", devices={"d": make_device_id("x")})
    with pytest.raises(ConnectionError):
        transport.send(encode_uri(payload), None)


def test_detection_engine_tolerates_rules_without_devices():
    source = '''
input "c1", "capability.contactSensor"
def installed() { subscribe(c1, "contact.open", h) }
def h(evt) { sendPush("hello") }
'''
    rule = extract_rules(source, "N").rules[0]
    engine = DetectionEngine(TypeBasedResolver())
    assert engine.detect_pair(rule, rule) == []


def test_extractor_rejects_garbage_source():
    with pytest.raises(ExtractionError):
        RuleExtractor().extract("}}} not groovy at all {{{")


def test_runtime_app_error_does_not_kill_home():
    home = SmartHome()
    home.add_device("Door", "contactSensor")
    home.add_device("Lamp", "light")
    crashing = '''
definition(name: "Crashy")
input "c1", "capability.contactSensor"
def installed() { subscribe(c1, "contact.open", h) }
def h(evt) {
    def x = null
    x.explode()
}
'''
    healthy = '''
definition(name: "Healthy")
input "c2", "capability.contactSensor"
input "l1", "capability.switch"
def installed() { subscribe(c2, "contact.open", h) }
def h(evt) { l1.on() }
'''
    home.install_app(crashing, "Crashy", bindings={"c1": "Door"})
    home.install_app(healthy, "Healthy",
                     bindings={"c2": "Door", "l1": "Lamp"})
    home.trigger("Door", "contact", "open")
    # The crashing handler is recorded, the healthy one still ran.
    assert home.device("Lamp").current_value("switch") == "on"


def test_event_pump_runaway_guard():
    """Two apps that re-trigger each other unboundedly get cut off."""
    home = SmartHome()
    home.add_device("L1", "light")
    home.add_device("L2", "light")
    ping = '''
definition(name: "Ping")
input "a", "capability.switch"
input "b", "capability.switch"
def installed() { subscribe(a, "switch", h) }
def h(evt) {
    if (evt.value == "on") { b.on() } else { b.off() }
}
'''
    pong = '''
definition(name: "Pong")
input "c", "capability.switch"
input "d", "capability.switch"
def installed() { subscribe(c, "switch", h) }
def h(evt) {
    if (evt.value == "on") { d.off() } else { d.on() }
}
'''
    home.install_app(ping, "Ping", bindings={"a": "L1", "b": "L2"})
    home.install_app(pong, "Pong", bindings={"c": "L2", "d": "L1"})
    home.trigger("L1", "switch", "on")  # starts an infinite flip loop
    assert any("runaway" in error for error in home.errors)


def test_recorder_identity_stable_across_reconfiguration():
    recorder = ConfigRecorder()
    from repro.symex.values import DeviceRef

    device_id = make_device_id("lamp")
    recorder.record(ConfigPayload(app_name="A", devices={"l1": device_id}))
    first, _ = recorder.identity("A", DeviceRef("l1", "capability.switch"))
    # Reconfiguration with the same device keeps the identity.
    recorder.record(ConfigPayload(app_name="A", devices={"l1": device_id},
                                  values={"x": "1"}))
    second, _ = recorder.identity("A", DeviceRef("l1", "capability.switch"))
    assert first == second


@pytest.mark.slow
def test_path_explosion_capped_gracefully():
    branches = "\n".join(
        f'    if (state.s{i}) {{ sw1.on() }} else {{ sw1.off() }}'
        for i in range(16)
    )
    source = f'''
input "sw1", "capability.switch"
input "c1", "capability.contactSensor"
def installed() {{ subscribe(c1, "contact.open", h) }}
def h(evt) {{
{branches}
}}
'''
    report = RuleExtractor().extract_with_report(source, "Explode")
    # 2^16 paths exceed the budget; extraction still terminates with
    # rules and a warning instead of hanging.
    assert len(report.ruleset) >= 2
    assert any("explosion" in w for w in report.warnings)
