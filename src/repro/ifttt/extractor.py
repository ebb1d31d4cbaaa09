"""IFTTT applet -> Rule extraction.

Maps chunked applet phrases onto the shared rule model through a device/
attribute/command lexicon, so IFTTT rules can be checked for CAI threats
against SmartApp rules (multi-platform applicability, Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rules.model import Action, Condition, Rule, Trigger
from repro.symex.values import BinExpr, Const, DeviceRef, EventValue

# phrase -> (capability, attribute, value)
_TRIGGER_LEXICON: list[tuple[tuple[str, ...], tuple[str, str, str | None]]] = [
    (("motion", "detected"), ("capability.motionSensor", "motion", "active")),
    (("motion", "stops"), ("capability.motionSensor", "motion", "inactive")),
    (("door", "opens"), ("capability.contactSensor", "contact", "open")),
    (("door", "closes"), ("capability.contactSensor", "contact", "closed")),
    (("window", "opens"), ("capability.contactSensor", "contact", "open")),
    (("door", "unlocked"), ("capability.lock", "lock", "unlocked")),
    (("door", "locked"), ("capability.lock", "lock", "locked")),
    (("i", "leave"), ("capability.presenceSensor", "presence", "not present")),
    (("leave", "home"), ("capability.presenceSensor", "presence", "not present")),
    (("i", "arrive"), ("capability.presenceSensor", "presence", "present")),
    (("arrive", "home"), ("capability.presenceSensor", "presence", "present")),
    (("smoke", "detected"), ("capability.smokeDetector", "smoke", "detected")),
    (("leak", "detected"), ("capability.waterSensor", "water", "wet")),
    (("water", "detected"), ("capability.waterSensor", "water", "wet")),
    (("switch", "turned", "on"), ("capability.switch", "switch", "on")),
    (("switch", "turned", "off"), ("capability.switch", "switch", "off")),
    (("sun", "sets"), ("location", "sunset", None)),
    (("sun", "rises"), ("location", "sunrise", None)),
    (("button", "pressed"), ("capability.button", "button", "pushed")),
]

_NUMERIC_TRIGGERS: list[tuple[str, tuple[str, str]]] = [
    ("temperature", ("capability.temperatureMeasurement", "temperature")),
    ("humidity", ("capability.relativeHumidityMeasurement", "humidity")),
    ("illuminance", ("capability.illuminanceMeasurement", "illuminance")),
    ("brightness", ("capability.illuminanceMeasurement", "illuminance")),
    ("power", ("capability.powerMeter", "power")),
]

# phrase -> (capability, device input, command, device type hint)
_ACTION_LEXICON: list[tuple[tuple[str, ...], tuple[str, str, str, str]]] = [
    (("turn", "on", "light"), ("capability.switch", "light", "on", "light")),
    (("turn", "off", "light"), ("capability.switch", "light", "off", "light")),
    (("turn", "on", "lights"), ("capability.switch", "light", "on", "light")),
    (("turn", "off", "lights"), ("capability.switch", "light", "off", "light")),
    (("turn", "on", "heater"), ("capability.switch", "heater", "on", "heater")),
    (("turn", "off", "heater"), ("capability.switch", "heater", "off", "heater")),
    (("turn", "on", "fan"), ("capability.switch", "fan", "on", "fan")),
    (("turn", "off", "fan"), ("capability.switch", "fan", "off", "fan")),
    (("open", "window"), ("capability.switch", "window", "on", "windowOpener")),
    (("close", "window"), ("capability.switch", "window", "off", "windowOpener")),
    (("open", "garage"), ("capability.garageDoorControl", "garage", "open", "garageDoor")),
    (("close", "garage"), ("capability.garageDoorControl", "garage", "close", "garageDoor")),
    (("lock", "door"), ("capability.lock", "lock", "lock", "doorLock")),
    (("unlock", "door"), ("capability.lock", "lock", "unlock", "doorLock")),
    (("open", "shades"), ("capability.windowShade", "shades", "open", "windowShade")),
    (("close", "shades"), ("capability.windowShade", "shades", "close", "windowShade")),
    (("sound", "siren"), ("capability.alarm", "siren", "siren", "siren")),
    (("take", "photo"), ("capability.imageCapture", "camera", "take", "camera")),
    (("notify", "me"), ("notification", "notification", "sendPush", "")),
    (("send", "sms"), ("notification", "notification", "sendSms", "")),
]

_COMPARATORS = {
    "above": ">",
    "over": ">",
    "exceeds": ">",
    "below": "<",
    "under": "<",
    "drops": "<",
}


class IftttExtractionError(Exception):
    """The applet text could not be mapped onto a rule."""


@dataclass(frozen=True, slots=True)
class Applet:
    """An IFTTT applet: a name plus its template sentence."""

    name: str
    text: str


def _match_phrase(words: tuple[str, ...], lexicon) -> object | None:
    for phrase, payload in lexicon:
        if all(word in words for word in phrase):
            return payload
    return None


def _numeric_trigger(words: tuple[str, ...]):
    for keyword, (capability, attribute) in _NUMERIC_TRIGGERS:
        if keyword not in words:
            continue
        op = None
        for word, symbol in _COMPARATORS.items():
            if word in words:
                op = symbol
                break
        threshold = None
        for word in words:
            cleaned = word.rstrip("%°f")
            try:
                threshold = float(cleaned)
                break
            except ValueError:
                continue
        if op is not None and threshold is not None:
            return capability, attribute, op, threshold
    return None


def extract_applet_rule(applet: Applet) -> Rule:
    """Parse an applet sentence into a :class:`Rule`."""
    from repro.ifttt.nlp import chunk_applet

    try:
        spans = chunk_applet(applet.text)
    except ValueError as exc:
        raise IftttExtractionError(str(exc)) from exc
    trigger_span = next(span for span in spans if span.role == "trigger")
    action_span = next(span for span in spans if span.role == "action")

    trigger = _build_trigger(applet, trigger_span.words)
    action = _build_action(applet, action_span.words)
    return Rule(
        app_name=applet.name,
        rule_id=f"{applet.name}/R1",
        trigger=trigger,
        condition=Condition(),
        action=action,
    )


def _build_trigger(applet: Applet, words: tuple[str, ...]) -> Trigger:
    payload = _match_phrase(words, _TRIGGER_LEXICON)
    if payload is not None:
        capability, attribute, value = payload
        if capability == "location":
            return Trigger(subject="location", attribute=attribute)
        device = DeviceRef(f"{applet.name}_trigger", capability)
        constraint = (
            BinExpr("==", EventValue(), Const(value)) if value is not None else None
        )
        return Trigger(
            subject=device.name,
            attribute=attribute,
            constraint=constraint,
            device=device,
        )
    numeric = _numeric_trigger(words)
    if numeric is not None:
        capability, attribute, op, threshold = numeric
        device = DeviceRef(f"{applet.name}_trigger", capability)
        return Trigger(
            subject=device.name,
            attribute=attribute,
            constraint=BinExpr(op, EventValue(), Const(threshold)),
            device=device,
        )
    raise IftttExtractionError(
        f"no trigger phrase recognised in {applet.text!r}"
    )


def _build_action(applet: Applet, words: tuple[str, ...]) -> Action:
    payload = _match_phrase(words, _ACTION_LEXICON)
    if payload is None:
        raise IftttExtractionError(
            f"no action phrase recognised in {applet.text!r}"
        )
    capability, input_name, command, _type_hint = payload
    if capability == "notification":
        return Action(subject="notification", command=command)
    device = DeviceRef(f"{applet.name}_{input_name}", capability)
    return Action(
        subject=device.name,
        command=command,
        device=device,
        capability=capability.split(".", 1)[-1],
    )
