"""End-to-end tests: companion-app reviews, decisions and UI rendering
through HomeGuardService."""

import pytest

from homes import HOME, install, new_home
from repro.config import ConfigPayload, FcmHttpTransport, encode_uri
from repro.corpus import app_by_name
from repro.detector.types import ThreatType
from repro.frontend import describe_threat, render_review
from repro.service import HomeGuardService

DEVICES = [
    ("TV", "tv"),
    ("Temp", "temperatureSensor"),
    ("Window", "windowOpener"),
    ("Voice", "speaker"),
    ("Lamp", "floorLamp"),
    ("Motion", "motionSensor"),
    ("Siren", "siren"),
]
COMFORT_TV = dict(
    devices={"tv1": "TV", "tSensor": "Temp", "window1": "Window"},
    values={"threshold1": 30},
)
COLD_DEFENDER = dict(
    devices={"tv2": "TV", "window2": "Window"},
    values={"weather": "rainy"},
)
BURGLAR_FINDER = dict(
    devices={"lamp1": "Lamp", "motion1": "Motion", "alarm1": "Siren"},
)


def fresh_home():
    return new_home(DEVICES)


def test_first_app_installs_clean():
    service = fresh_home()
    review = install(service, "ComfortTV", **COMFORT_TV)
    assert review.clean
    assert service.installed_apps(HOME) == ["ComfortTV"]


def test_actuator_race_reported_on_second_install():
    service = fresh_home()
    install(service, "ComfortTV", **COMFORT_TV)
    review = install(service, "ColdDefender", **COLD_DEFENDER)
    assert any(t.type is ThreatType.ACTUATOR_RACE for t in review.threats)


def test_race_not_reported_when_windows_differ():
    service = fresh_home()
    service.register_device(HOME, "Window2", "windowOpener")
    install(service, "ComfortTV", **COMFORT_TV)
    review = install(service, "ColdDefender",
                     devices={"tv2": "TV", "window2": "Window2"},
                     values={"weather": "rainy"})
    # Different physical windows: no race on the same actuator.
    assert not any(t.type is ThreatType.ACTUATOR_RACE for t in review.threats)


def test_covert_triggering_reported():
    service = fresh_home()
    install(service, "ComfortTV", **COMFORT_TV)
    review = install(service, "CatchLiveShow",
                     devices={"voice": "Voice", "tv3": "TV"},
                     values={"showDay": "Thursday"})
    assert any(t.type is ThreatType.COVERT_TRIGGERING for t in review.threats)


def test_disabling_condition_reported():
    service = fresh_home()
    install(service, "BurglarFinder", **BURGLAR_FINDER)
    review = install(service, "NightCare", devices={"lamp2": "Lamp"})
    assert any(t.type is ThreatType.DISABLING_CONDITION for t in review.threats)


def test_delete_decision_forgets_app():
    service = fresh_home()
    install(service, "ComfortTV", **COMFORT_TV)
    install(service, "ColdDefender", **COLD_DEFENDER, decision="delete")
    assert service.installed_apps(HOME) == ["ComfortTV"]


def test_reconfigure_rebinding_updates_detection():
    # An installed app re-sends its configuration bound to a different
    # device; even with a RECONFIGURE decision the recorded payload is
    # the new one, so later installs must be checked against the new
    # binding (regression: the pipeline index kept the old identities).
    service = fresh_home()
    service.register_device(HOME, "Window2", "windowOpener")
    install(service, "ComfortTV", **COMFORT_TV)
    install(service, "ComfortTV",
            devices={"tv1": "TV", "tSensor": "Temp", "window1": "Window2"},
            values={"threshold1": 30},
            decision="reconfigure")
    review = install(service, "ColdDefender",
                     devices={"tv2": "TV", "window2": "Window2"},
                     values={"weather": "rainy"})
    assert any(t.type is ThreatType.ACTUATOR_RACE for t in review.threats)


def test_device_retyping_refreshes_other_installed_apps():
    # Device types are home-global: when a later install re-types a
    # device, previously installed apps bound to it gain/lose effect
    # channels and must be re-signed (regression: only the reviewed
    # app was invalidated, hiding covert triggering via temperature).
    service = new_home([("Heater", "switch"),  # mis-typed at first
                        ("Temp", "temperatureSensor")])
    install(service, "ModeAwareHeater",
            devices={"heater1": "Heater", "tSensor": "Temp"},
            values={"tooCold": 62, "occupiedMode": "Home"})
    # Corrected type, same label/id.
    service.register_device(HOME, "Heater", "heater")
    review = install(service, "ItsTooHot",
                     devices={"tSensor": "Temp", "ac": "Heater"},
                     values={"tooHot": 80})
    # The heater's temperature effect can now fire ItsTooHot's trigger.
    assert any(
        t.type is ThreatType.COVERT_TRIGGERING for t in review.threats
    )


def test_reconfigure_decision_keeps_nothing_yet():
    service = fresh_home()
    install(service, "ComfortTV", **COMFORT_TV, decision="reconfigure")
    assert service.installed_apps(HOME) == []


def test_review_shows_rules_in_english():
    service = fresh_home()
    review = install(service, "ComfortTV", **COMFORT_TV)
    assert len(review.rules) == 1
    assert "then" in review.rules[0]


def test_render_review_clean_and_dirty():
    service = fresh_home()
    r1 = install(service, "ComfortTV", **COMFORT_TV)
    text = render_review(r1)
    assert "No cross-app interference" in text
    r2 = install(service, "ColdDefender", **COLD_DEFENDER)
    text2 = render_review(r2)
    assert "threat(s) detected" in text2
    assert "[Keep]" in text2


def test_describe_threat_every_type_readable():
    service = fresh_home()
    install(service, "ComfortTV", **COMFORT_TV)
    install(service, "BurglarFinder", **BURGLAR_FINDER)
    review2 = install(service, "ColdDefender", **COLD_DEFENDER)
    review3 = install(service, "NightCare", devices={"lamp2": "Lamp"})
    for threat in review2.threats + review3.threats:
        text = describe_threat(threat)
        assert threat.type.value in text
        assert threat.rule_a.app_name in text or threat.rule_b.app_name in text


def test_missing_backend_rules_raises():
    home = HomeGuardService(workers=None).create_home(HOME)
    with pytest.raises(LookupError):
        home.review_installation(ConfigPayload(app_name="Ghost"))


def test_chain_detected_through_allowed_list():
    service = new_home([("Wall switch", "switch"), ("Front lock", "doorLock"),
                        ("Hall motion", "motionSensor")])
    install(service, "SwitchChangesMode",
            devices={"master": "Wall switch"},
            values={"onMode": "Home", "offMode": "Away"})
    install(service, "MakeItSo",
            devices={"switches": "Wall switch", "locks": "Front lock"},
            values={"targetMode": "Home", "heatSetpoint": 70})
    review = install(service, "CurlingIron",
                     devices={"motion1": "Hall motion",
                              "outlets": "Wall switch"},
                     values={"minutesLater": 30})
    # CurlingIron -> SwitchChangesMode -> MakeItSo: motion ends up
    # unlocking the door (the paper's §VIII-B example 2).
    assert review.chains
    chain_apps = [rule.app_name for rule in review.chains[0].chain]
    assert chain_apps[0] == "CurlingIron"
    assert chain_apps[-1] == "MakeItSo"


def test_transport_log_populated():
    # The §IV-C path: the configuration URI crosses a messaging
    # transport into the home's queue before it is reviewed.
    service = fresh_home()
    service.preload([app_by_name("ComfortTV")])
    transport = FcmHttpTransport()
    service.connect_transport(HOME, transport)
    bound, types = service.home(HOME).bind_inputs(COMFORT_TV["devices"])
    transport.send(encode_uri(ConfigPayload(
        app_name="ComfortTV", devices=bound, values={"threshold1": "30"},
    )), None)
    (session,) = service.review_pending(HOME, types)
    assert session.report.clean
    assert len(transport.log) == 1
    assert transport.log[0].uri.startswith("http://my.com/appname:ComfortTV")
