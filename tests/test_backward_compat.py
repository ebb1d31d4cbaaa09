"""Backward-compatibility audit (paper §VIII-D.3)."""

from homes import HOME, install, new_home
from repro.detector.types import ThreatType
from repro.service import AuditRequest

TV_HOME = [("TV", "tv"), ("Temp", "temperatureSensor"),
           ("Window", "windowOpener")]


def test_audit_existing_finds_threats_in_prior_installs():
    service = new_home(TV_HOME)
    # Both apps were "already installed" before anyone looked at the
    # reviews (the user clicked Keep without reading).
    install(service, "ComfortTV",
            devices={"tv1": "TV", "tSensor": "Temp", "window1": "Window"},
            values={"threshold1": 30})
    install(service, "ColdDefender",
            devices={"tv2": "TV", "window2": "Window"},
            values={"weather": "rainy"})

    reviews = service.home(HOME).audit_existing()
    assert len(reviews) == 2
    all_threats = [t for review in reviews for t in review.threats]
    assert any(t.type is ThreatType.ACTUATOR_RACE for t in all_threats)


def test_audit_existing_clean_home():
    service = new_home([("Door", "contactSensor"), ("Valve", "waterValve")])
    install(service, "WhenItRainsItPours",
            devices={"leak1": "Door", "valve1": "Valve"})
    reports = service.audit(AuditRequest(home_id=HOME))
    assert len(reports) == 1
    assert reports[0].clean


def test_audit_covers_every_installed_app():
    service = new_home([*TV_HOME, ("Voice", "speaker")])
    for app_name, devices, values in [
        ("ComfortTV", {"tv1": "TV", "tSensor": "Temp", "window1": "Window"},
         {"threshold1": 30}),
        ("ColdDefender", {"tv2": "TV", "window2": "Window"},
         {"weather": "rainy"}),
        ("CatchLiveShow", {"voice": "Voice", "tv3": "TV"},
         {"showDay": "Thursday"}),
    ]:
        install(service, app_name, devices=devices, values=values)
    reports = service.audit(AuditRequest(home_id=HOME))
    assert sorted(r.app_name for r in reports) == [
        "CatchLiveShow", "ColdDefender", "ComfortTV",
    ]
