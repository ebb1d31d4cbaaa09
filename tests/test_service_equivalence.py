"""Equivalence gates for the service (DESIGN.md §11).

Driving a home through typed requests + ``InteractivePolicy`` decisions
must report exactly the pairwise threats of the brute-force detector:
after every kept install, a fresh ``DetectionEngine.detect_rulesets``
over the new app and the kept apps yields the same threat multiset as
the session's report — for the demo and generated corpora, on the
serial and ``auto`` dispatchers.  The paper's configuration-URI path
(§IV-C: a messaging transport feeding ``review_pending``) and the
loopback socket transport must give **byte-identical** threats, solve
caches and store bytes to the typed ``install``/``decide`` path.  Two
homes sharing one service (and one dispatcher) must likewise match two
isolated single-home services exactly.

Every wire object produced along the way must survive a JSON
dump/load round-trip with the schema version asserted.

Run under both the default hash seed and ``PYTHONHASHSEED=0``
(``make test-hashseed``): multi-tenant interleaving must not let
set/dict iteration order leak into any home's results.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.config import ConfigPayload, FcmHttpTransport, encode_uri
from repro.corpus import app_by_name, device_controlling_apps
from repro.detector import DetectionEngine
from repro.service import (
    WIRE_SCHEMA_VERSION,
    AuditRequest,
    DecisionRequest,
    HomeGuardService,
    InstallRequest,
)
from repro.service.schemas import ThreatRecord

# ----------------------------------------------------------------------
# Install plans: (app, device-input -> label, values)

DEMO_DEVICES = [
    ("TV", "tv"),
    ("Temp", "temperatureSensor"),
    ("Window", "windowOpener"),
    ("Voice", "speaker"),
    ("Lamp", "floorLamp"),
    ("Motion", "motionSensor"),
    ("Siren", "siren"),
    ("Switch", "switch"),
    ("Lock", "doorLock"),
]

DEMO_PLAN = [
    ("ComfortTV",
     {"tv1": "TV", "tSensor": "Temp", "window1": "Window"},
     {"threshold1": 30}),
    ("ColdDefender",
     {"tv2": "TV", "window2": "Window"},
     {"weather": "rainy"}),
    ("CatchLiveShow",
     {"voice": "Voice", "tv3": "TV"},
     {"showDay": "Thursday"}),
    ("BurglarFinder",
     {"lamp1": "Lamp", "motion1": "Motion", "alarm1": "Siren"},
     {}),
    ("NightCare", {"lamp2": "Lamp"}, {}),
    ("SwitchChangesMode",
     {"master": "Switch"},
     {"onMode": "Home", "offMode": "Away"}),
    ("MakeItSo",
     {"switches": "Switch", "locks": "Lock"},
     {"targetMode": "Home", "heatSetpoint": 70}),
    # Completes the paper's §VIII-B motion->mode->unlock chain, so the
    # equivalence covers chained threats and the Allowed list too.
    ("CurlingIron",
     {"motion1": "Motion", "outlets": "Switch"},
     {"minutesLater": 30}),
]

# 18 shared-device apps give ~1.5k threat instances (incl. chains)
# while keeping the KEEP-everything Allowed-list chain graph tractable
# — a couple more apps and find_chains' path enumeration explodes.
GENERATED_APPS = 18


def generated_setup():
    """A generated-corpus plan: one shared device per device type
    (labels = type names), so apps interfere exactly like the
    repository-analysis mode."""
    apps = list(device_controlling_apps())[:GENERATED_APPS]
    types = sorted({t for app in apps for t in app.type_hints.values()})
    devices = [(t, t) for t in types]
    plan = [(app.name, dict(app.type_hints), dict(app.values))
            for app in apps]
    return devices, plan


def setup_for(corpus_name):
    if corpus_name == "demo":
        return DEMO_DEVICES, DEMO_PLAN
    return generated_setup()


# ----------------------------------------------------------------------
# Fingerprints (loss-free: order, types, rules, details, witnesses,
# chain paths, decisions all participate)


def _record_multiset(records):
    return Counter(
        json.dumps(record.to_json(), sort_keys=True) for record in records
    )


def _wire_threats(report):
    return [
        (report.app_name, record.type, record.rule_a, record.rule_b,
         record.detail, tuple(record.witness), tuple(record.chain))
        for record in (*report.threats, *report.chains)
    ]


def _store_bytes(store_dir):
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(store_dir).iterdir())
    }


def _round_trip(obj):
    """Assert the wire contract on a live response object, then hand
    back its decoded twin (which the comparisons below use, so a lossy
    encoding would also break equivalence)."""
    encoded = obj.to_json()
    assert encoded["schema"] == WIRE_SCHEMA_VERSION
    decoded = type(obj).from_json(json.loads(json.dumps(encoded)))
    assert decoded == obj
    return decoded


# ----------------------------------------------------------------------
# The drivers


def _assert_brute_force(service, home_id, session, kept):
    """The oracle: a fresh all-pairs engine over the new app and every
    kept app finds exactly the session's pairwise threats."""
    home = service.home(home_id)
    new = service.extractor.rules_of(session.app_name)
    brute = DetectionEngine(home.config_recorder).detect_rulesets(new, kept)
    assert _record_multiset(session.report.threats) == _record_multiset(
        ThreatRecord.from_threat(threat) for threat in brute.threats
    ), session.app_name


def _outcome(service, home_id, store_dir, threats):
    """Audit the home and fingerprint everything it left behind."""
    audit = []
    for report in service.audit(AuditRequest(home_id=home_id)):
        audit.extend(_wire_threats(_round_trip(report)))
    return {
        "threats": threats,
        "audit": audit,
        "caches": json.dumps(
            service.home(home_id).pipeline.engine.export_caches(),
            default=str),
        "store": _store_bytes(store_dir),
        "installed": service.installed_apps(home_id),
    }


def run_service(devices, plan, store_dir, workers, home_id="home",
                solve_cache=None, oracle=False):
    """The typed surface: InstallRequest, InteractivePolicy, one
    explicit DecisionRequest per install.  With ``oracle`` every kept
    install is checked against the brute-force detector."""
    service = HomeGuardService(workers=workers, solve_cache=solve_cache)
    try:
        service.preload([app_by_name(name) for name, _, _ in plan])
        service.create_home(home_id, store_path=store_dir)
        for label, type_name in devices:
            service.register_device(home_id, label, type_name)
        threats = []
        kept = []
        for name, bindings, values in plan:
            session = service.install(InstallRequest(
                home_id=home_id, app_name=name,
                devices=bindings, values=values,
            ))
            assert session.pending  # InteractivePolicy defers, as the paper does
            session = service.decide(DecisionRequest(
                home_id=home_id, session_id=session.session_id,
                decision="keep",
            ))
            session = _round_trip(session)
            if oracle:
                _assert_brute_force(service, home_id, session, kept)
                home = service.home(home_id)
                kept.append(home.rule_recorder.rules_of(name))
            threats.extend(_wire_threats(session.report))
        return _outcome(service, home_id, store_dir, threats)
    finally:
        service.close()


def run_config_uri(devices, plan, store_dir, workers, home_id="home"):
    """The paper's §IV-C path: each app's configuration URI crosses a
    messaging transport into the home's queue, and ``review_pending``
    opens the session the user then decides."""
    service = HomeGuardService(workers=workers)
    try:
        service.preload([app_by_name(name) for name, _, _ in plan])
        home = service.create_home(home_id, store_path=store_dir)
        for label, type_name in devices:
            service.register_device(home_id, label, type_name)
        transport = FcmHttpTransport()
        service.connect_transport(home_id, transport)
        threats = []
        for name, bindings, values in plan:
            bound, types = home.bind_inputs(bindings)
            transport.send(encode_uri(ConfigPayload(
                app_name=name, devices=bound,
                values={key: str(value) for key, value in values.items()},
            )), None)
            (session,) = service.review_pending(home_id, types)
            assert session.pending
            session = service.decide(DecisionRequest(
                home_id=home_id, session_id=session.session_id,
                decision="keep",
            ))
            threats.extend(_wire_threats(_round_trip(session).report))
        return _outcome(service, home_id, store_dir, threats)
    finally:
        service.close()


def run_transport(devices, plan, store_dir, workers, home_id="home",
                  solve_cache=None):
    """The fleet-transport surface (DESIGN.md §13): the same typed
    requests as :func:`run_service`, but through a live loopback
    JSON-RPC server — every request crosses the socket."""
    from repro.service.transport import FleetClient, serve_background

    service = HomeGuardService(workers=workers, solve_cache=solve_cache,
                               store_root=store_dir)
    try:
        service.preload([app_by_name(name) for name, _, _ in plan])
        threats = []
        audit = []
        with serve_background(service) as live:
            with FleetClient(live.host, live.port) as client:
                client.create_home(home_id)
                for label, type_name in devices:
                    client.register_device(home_id, label, type_name)
                for name, bindings, values in plan:
                    session = client.install(InstallRequest(
                        home_id=home_id, app_name=name,
                        devices=bindings, values=values,
                    ))
                    assert session.pending
                    session = client.decide(DecisionRequest(
                        home_id=home_id, session_id=session.session_id,
                        decision="keep",
                    ))
                    threats.extend(_wire_threats(_round_trip(session).report))
                for report in client.audit(AuditRequest(home_id=home_id)):
                    audit.extend(_wire_threats(_round_trip(report)))
                assert client.status().internal_errors == 0
        # The server has drained and closed; the caches and store are
        # whatever the socket-driven flow left behind.
        return {
            "threats": threats,
            "audit": audit,
            "caches": json.dumps(
                service.home(home_id).pipeline.engine.export_caches(),
                default=str),
            "store": _store_bytes(Path(store_dir) / home_id),
            "installed": service.installed_apps(home_id),
        }
    finally:
        service.close()


# ----------------------------------------------------------------------
# The gates


def _assert_same(served, reference):
    assert reference["threats"], "corpus produced no threats to compare"
    assert served["threats"] == reference["threats"]
    assert served["audit"] == reference["audit"]
    assert served["caches"] == reference["caches"]
    assert served["installed"] == reference["installed"]
    # Byte-identical persistence: same filenames, same bytes.
    assert served["store"] == reference["store"]


@pytest.mark.parametrize("workers", ["serial", "auto"])
@pytest.mark.parametrize("corpus_name", ["demo", "generated"])
def test_service_matches_brute_force_oracle(corpus_name, workers, tmp_path):
    devices, plan = setup_for(corpus_name)
    served = run_service(devices, plan, tmp_path / "service", workers,
                         oracle=True)
    assert served["threats"], "corpus produced no threats to compare"
    assert served["installed"] == sorted(name for name, _, _ in plan)
    assert any(name.startswith("shard-") for name in served["store"])


@pytest.mark.parametrize("workers", ["serial", "auto"])
@pytest.mark.parametrize("corpus_name", ["demo", "generated"])
def test_config_uri_path_matches_typed_path(corpus_name, workers, tmp_path):
    """Paper §IV-C: the configuration URI sent over a messaging
    transport and reviewed from the home's queue is the typed install
    request in another envelope — same threats, caches and store
    bytes."""
    devices, plan = setup_for(corpus_name)
    typed = run_service(devices, plan, tmp_path / "typed", workers)
    via_uri = run_config_uri(devices, plan, tmp_path / "uri", workers)
    _assert_same(via_uri, typed)


@pytest.mark.parametrize("workers", ["serial", "auto"])
def test_transport_matches_typed_path(workers, tmp_path):
    """The loopback equivalence gate (DESIGN.md §13): driving the demo
    plan across the socket — strict wire decode, admission control and
    fair scheduling in the path — yields byte-identical threats, solve
    caches and store bytes as the in-process typed flow.  The
    transport is a front end, never a semantic layer."""
    devices, plan = setup_for("demo")
    typed = run_service(devices, plan, tmp_path / "typed", workers)
    served = run_transport(devices, plan, tmp_path / "socket", workers)
    _assert_same(served, typed)


def test_demo_plan_exercises_chains(tmp_path):
    # The equivalence above is only as strong as what the plan covers:
    # pin that it includes a chained threat (CurlingIron -> ... ->
    # MakeItSo) so chain records are part of the byte-equality claim.
    served = run_service(DEMO_DEVICES, DEMO_PLAN, tmp_path / "s", None)
    assert any(len(t[6]) >= 3 for t in served["threats"])


# ----------------------------------------------------------------------
# Multi-tenant: N homes over one service/dispatcher == N isolated
# single-home deployments (satellite of the service redesign)


def _split_demo_plan():
    home_a = DEMO_PLAN[:3]    # TV/temperature cluster
    home_b = DEMO_PLAN[3:]    # lamp/motion + chain cluster
    return home_a, home_b


@pytest.mark.parametrize("workers", [None, "process:2"])
def test_two_tenants_match_isolated_deployments(workers, tmp_path):
    """Two homes interleaved over ONE service (sharing its dispatcher
    and worker pool) must produce exactly the threats and store bytes
    of two isolated single-home services — tenancy is invisible to
    detection."""
    plan_a, plan_b = _split_demo_plan()

    service = HomeGuardService(workers=workers)
    try:
        service.preload([app_by_name(name) for name, _, _ in DEMO_PLAN])
        for home_id, plan in (("alice", plan_a), ("bob", plan_b)):
            service.create_home(home_id,
                                store_path=tmp_path / f"svc-{home_id}")
            for label, type_name in DEMO_DEVICES:
                service.register_device(home_id, label, type_name)
        shared = {"alice": [], "bob": []}
        # Strict interleaving: every other install lands on the other
        # home, all over the same dispatcher.
        interleaved = []
        for i in range(max(len(plan_a), len(plan_b))):
            if i < len(plan_a):
                interleaved.append(("alice", plan_a[i]))
            if i < len(plan_b):
                interleaved.append(("bob", plan_b[i]))
        for home_id, (name, bindings, values) in interleaved:
            session = service.install(InstallRequest(
                home_id=home_id, app_name=name,
                devices=bindings, values=values,
            ))
            session = service.decide(DecisionRequest(
                home_id=home_id, session_id=session.session_id,
                decision="keep",
            ))
            shared[home_id].extend(
                _wire_threats(_round_trip(session).report)
            )
        shared_store = {
            home_id: _store_bytes(tmp_path / f"svc-{home_id}")
            for home_id in ("alice", "bob")
        }
    finally:
        service.close()

    # The isolated references run inline (workers=None): per the §9
    # guarantee the backend is a pure performance choice, so the shared
    # pool must change nothing either.
    for home_id, plan in (("alice", plan_a), ("bob", plan_b)):
        isolated = run_service(DEMO_DEVICES, plan,
                               tmp_path / f"iso-{home_id}", None)
        assert shared[home_id] == isolated["threats"], home_id
        assert shared_store[home_id] == isolated["store"], home_id
    assert any(shared["alice"]) or any(shared["bob"])


# ----------------------------------------------------------------------
# Shared cross-tenant solve cache (DESIGN.md §12): a pure performance
# feature on the service surface too.


@pytest.mark.parametrize("workers", ["serial", "auto"])
@pytest.mark.parametrize("cache_spec", ["lru", "sqlite"])
def test_shared_cache_service_matches_uncached(cache_spec, workers, tmp_path):
    devices, plan = setup_for("demo")
    uncached = run_service(devices, plan, tmp_path / "uncached", workers)
    spec = (
        "lru" if cache_spec == "lru"
        else f"sqlite:{tmp_path / 'fleet.db'}"
    )
    served = run_service(devices, plan, tmp_path / "service", workers,
                         solve_cache=spec)
    _assert_same(served, uncached)


def test_identical_tenants_share_solves(tmp_path):
    """The tentpole win: a second tenant installing a structurally
    identical corpus is served entirely from the shared cache — zero
    solver calls — with threats and store bytes still byte-identical
    to the first tenant's."""
    service = HomeGuardService(solve_cache="lru")
    try:
        service.preload([app_by_name(name) for name, _, _ in DEMO_PLAN])
        threats = {}
        for home_id in ("alice", "bob"):
            service.create_home(home_id,
                                store_path=tmp_path / f"svc-{home_id}")
            for label, type_name in DEMO_DEVICES:
                service.register_device(home_id, label, type_name)
            threats[home_id] = []
            for name, bindings, values in DEMO_PLAN:
                session = service.install(InstallRequest(
                    home_id=home_id, app_name=name,
                    devices=bindings, values=values,
                ))
                session = service.decide(DecisionRequest(
                    home_id=home_id, session_id=session.session_id,
                    decision="keep",
                ))
                threats[home_id].extend(_wire_threats(session.report))
        assert threats["alice"]
        assert threats["alice"] == threats["bob"]
        assert _store_bytes(tmp_path / "svc-alice") == _store_bytes(
            tmp_path / "svc-bob"
        )
        # The counters travel the wire (schema v2 field addition).
        record = _round_trip(service.detection_stats_record("bob"))
        assert record.home_id == "bob"
        assert record.solver_calls == 0
        assert record.shared_cache_hits > 0
        assert record.shared_cache_publishes == 0
        first = service.detection_stats("alice")
        assert first.solver_calls + first.shared_cache_hits == (
            record.shared_cache_hits
        )
    finally:
        service.close()
