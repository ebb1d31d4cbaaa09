"""Tests for the review-screen rendering and threat phrasing details."""

from repro.detector.types import Threat, ThreatType
from repro.frontend import InstallReview, describe_threat, render_review
from repro.frontend.ui import _wrap
from repro.rules import Action, Condition, Rule, Trigger
from repro.symex.values import DeviceRef


def rule(app, command="on"):
    device = DeviceRef("sw", "capability.switch")
    return Rule(
        app_name=app,
        rule_id=f"{app}/R1",
        trigger=Trigger(subject="sw", attribute="switch", device=device),
        condition=Condition(),
        action=Action(subject="sw", command=command, device=device,
                      capability="switch"),
    )


def test_render_clean_review():
    review = InstallReview(app_name="Solo", rules=["when x then y"])
    text = render_review(review)
    assert "Solo" in text
    assert "No cross-app interference" in text
    assert "R1. when x then y" in text


def test_render_review_with_threats_and_chains():
    threat = Threat(type=ThreatType.ACTUATOR_RACE, rule_a=rule("A"),
                    rule_b=rule("B", "off"))
    chain = Threat(type=ThreatType.CHAINED, rule_a=rule("A"),
                   rule_b=rule("C"), chain=(rule("A"), rule("B"), rule("C")))
    review = InstallReview(app_name="Multi", rules=["r"], threats=[threat],
                           chains=[chain])
    text = render_review(review)
    assert "2 potential cross-app interference threat(s)" in text
    assert "[AR]" in text
    assert "[CHAIN]" in text


def test_wrap_long_lines():
    text = "word " * 40
    lines = _wrap(text.strip())
    assert len(lines) > 1
    assert all(len(line) <= 70 for line in lines)


def test_describe_threat_every_category_has_phrasing():
    a, b = rule("AppA"), rule("AppB", "off")
    for threat_type in ThreatType:
        threat = Threat(type=threat_type, rule_a=a, rule_b=b,
                        detail="details here", chain=(a, b))
        text = describe_threat(threat)
        assert threat_type.value in text
        assert len(text) > 30


def test_witness_rendered_in_description():
    threat = Threat(
        type=ThreatType.ACTUATOR_RACE, rule_a=rule("A"), rule_b=rule("B"),
        witness=(("type:tv.switch", "on"),
                 ("type:temperatureSensor.temperature", 90.01234)),
    )
    text = describe_threat(threat)
    assert "Example situation" in text
    assert "tv.switch = on" in text


def test_directed_flag():
    a, b = rule("A"), rule("B")
    assert Threat(type=ThreatType.COVERT_TRIGGERING, rule_a=a, rule_b=b).directed
    assert not Threat(type=ThreatType.ACTUATOR_RACE, rule_a=a, rule_b=b).directed
