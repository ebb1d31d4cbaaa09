"""Soak test: a realistic home accumulating many store apps through the
full HomeGuardService install/decide path."""

from homes import HOME, install, new_home
from repro.corpus import app_by_name
from repro.detector.types import ThreatType
from repro.runtime import SmartHome


INSTALL_PLAN = [
    ("SmartNightlight",
     {"motion1": "Hall motion", "lights": "Hall light",
      "lightSensor": "Hall lux"},
     {"luxLevel": 50}),
    ("LetThereBeDark",
     {"contact1": "Front door", "lights": "Hall light"}, {}),
    ("UndeadEarlyWarning",
     {"contact1": "Front door", "lights": "Hall light"}, {}),
    ("EnergySaver",
     {"meter": "Main meter", "devices": "Space heater"},
     {"threshold": 2000}),
    ("ModeAwareHeater",
     {"heater1": "Space heater", "tSensor": "Hall temp"},
     {"tooCold": 62, "occupiedMode": "Home"}),
    ("LightUpTheNight",
     {"lightSensor": "Hall lux", "lights": "Hall light"},
     {"darkLux": 30, "brightLux": 50}),
    ("LockItWhenILeave",
     {"presence1": "Phone", "lock1": "Front lock"}, {}),
    ("PresenceWelcomeHome",
     {"presence1": "Phone", "lock1": "Front lock"},
     {"homeMode": "Home"}),
]


HOME_DEVICES = [
    ("Hall motion", "motionSensor"), ("Hall light", "light"),
    ("Hall lux", "illuminanceSensor"), ("Front door", "contactSensor"),
    ("Main meter", "powerMeter"), ("Space heater", "heater"),
    ("Hall temp", "temperatureSensor"), ("Phone", "presenceSensor"),
    ("Front lock", "doorLock"),
]


def test_store_accumulation_end_to_end():
    service = new_home(HOME_DEVICES)
    reviews = []
    for name, devices, values in INSTALL_PLAN:
        reviews.append(
            install(service, name, devices=devices, values=values)
        )
    assert len(service.installed_apps(HOME)) == len(INSTALL_PLAN)

    all_threats = [t for review in reviews for t in review.threats]
    found = {t.type for t in all_threats}
    # This particular home exhibits at least races (open-door light on vs
    # closed-door light off share the hall light), loop triggering
    # (LightUpTheNight vs SmartNightlight on the same light+lux sensor)
    # and self-disabling (EnergySaver vs ModeAwareHeater on the heater).
    assert ThreatType.ACTUATOR_RACE in found
    assert ThreatType.SELF_DISABLING in found
    assert ThreatType.COVERT_TRIGGERING in found
    # Every review renders without crashing.
    from repro.frontend import render_review

    for review in reviews:
        assert review.app_name in render_review(review)


def test_same_apps_run_in_simulator_without_errors():
    home = SmartHome(seed=5)
    for label, type_name in HOME_DEVICES:
        home.add_device(label, type_name)
    for name, devices, values in INSTALL_PLAN:
        bindings = {
            input_name: label for input_name, label in devices.items()
        }
        home.install_app(app_by_name(name).source, name,
                         bindings=bindings, settings=values)
    # Drive a day of activity.
    home.trigger("Front door", "contact", "open")
    home.trigger("Hall motion", "motion", "active")
    home.trigger("Phone", "presence", "not present")
    home.advance(3600)
    home.trigger("Phone", "presence", "present")
    home.trigger("Front door", "contact", "closed")
    home.advance(3600)
    assert home.errors == []
    assert home.commands  # the home actually did things
    # LockItWhenILeave locked on departure; PresenceWelcomeHome unlocked
    # on arrival: final state reflects the latter.
    assert home.device("Front lock").current_value("lock") == "unlocked"


def test_app_touch_event():
    home = SmartHome()
    home.add_device("Lamp", "light")
    source = '''
definition(name: "TapToToggle")
input "l1", "capability.switch"
def installed() { subscribe(app, "appTouch", h) }
def h(evt) {
    if (l1.currentSwitch == "off") { l1.on() } else { l1.off() }
}
'''
    home.install_app(source, "TapToToggle", bindings={"l1": "Lamp"})
    home.touch_app("TapToToggle")
    assert home.device("Lamp").current_value("switch") == "on"
    home.touch_app("TapToToggle")
    assert home.device("Lamp").current_value("switch") == "off"
