"""Wire-schema contract tests (DESIGN.md §11).

Every request/response dataclass must JSON-round-trip loss-free with
its schema version stamped, decode strictly (unknown fields, missing
fields, values of the wrong JSON type and version mismatches are
errors, never guesses), and match the committed
``schema_manifest.json`` — the schema-stability gate CI runs via
``make schema-check``.
"""

import dataclasses
import json

import pytest

from repro.service import (
    WIRE_SCHEMA_VERSION,
    AuditRequest,
    DecisionRequest,
    DetectionStatsRecord,
    InstallRequest,
    InstallSession,
    InvalidRequestError,
    MonitorEventRequest,
    ObservationRecord,
    SchemaMismatchError,
    ServerStatusRecord,
    ServiceError,
    ThreatRecord,
    ThreatReport,
    UnknownHomeError,
    decode_wire,
)
from repro.service.errors import ERROR_CODES
from repro.service.schemas import (
    WIRE_MODELS,
    WireModel,
    check_manifest,
    manifest_path,
    schema_manifest,
)


def sample_record():
    return ThreatRecord(
        type="AR",
        category="Action-Interference",
        rule_a="A/R1",
        rule_b="B/R1",
        apps=("A", "B"),
        detail="opposite commands race on the same actuator",
        witness=(("temperature", 31), ("mode", "Home")),
        chain=("A/R1", "C/R2", "B/R1"),
        description="[AR] A and B race",
    )


def sample_report():
    return ThreatReport(
        home_id="h1",
        app_name="ColdDefender",
        rules=("when x then y",),
        threats=(sample_record(),),
        chains=(),
    )


SAMPLES = [
    InstallRequest(
        home_id="h1",
        app_name="ComfortTV",
        devices={"tv1": "Living-room TV"},
        values={"threshold1": 30, "weather": "rainy"},
    ),
    InstallRequest(home_id="h1", app_name="Custom", source="def x() {}"),
    AuditRequest(home_id="h1"),
    AuditRequest(home_id="h1", apps=("ComfortTV", "ColdDefender")),
    DecisionRequest(home_id="h1", session_id="h1/s000001", decision="keep"),
    sample_record(),
    sample_report(),
    InstallSession(
        session_id="h1/s000001",
        home_id="h1",
        app_name="ColdDefender",
        status="pending",
        report=sample_report(),
    ),
    InstallSession(
        session_id="h1/s000002",
        home_id="h1",
        app_name="ColdDefender",
        status="decided",
        report=sample_report(),
        decision="delete",
        decided_by="auto-deny",
    ),
    MonitorEventRequest(
        home_id="h1",
        events=(
            ("d1", "switch", "on", 10.0),
            ("d2", "power", "120.5", 11.5),
        ),
        batch_id="b-001",
    ),
    ObservationRecord(
        key="0123456789abcdef",
        home_id="h1",
        rule="confirm:AR:A/R1->B/R1",
        outcome="confirmed",
        subject="d1",
        threat_key="AR:A/R1->B/R1",
        detail="witness sequence observed: A/R1 -> B/R1 (AR)",
        timestamp=11.5,
        window_seconds=1.5,
    ),
    DetectionStatsRecord(
        home_id="h1",
        solver_calls=12,
        cache_hits=3,
        shared_cache_hits=2,
        shared_cache_publishes=7,
        pairs_examined=28,
        prescreen_pruned_pairs=13,
        planned_pairs=15,
        monitor_events=42,
        monitor_observations=3,
        threats_confirmed=1,
        threats_contradicted=1,
        anomalies_flagged=1,
    ),
    ServerStatusRecord(
        state="serving",
        homes=3,
        requests_total=250,
        requests_inflight=4,
        quota_rejections=17,
        admission_rejections=2,
        drain_rejections=0,
        errors_total=19,
        internal_errors=0,
        phase_seconds={"parse": 0.012, "execute": 4.5},
        phase_counts={"parse": 250, "execute": 231},
        tenants={"h1": {"requests": 100, "completed": 98}},
        monitor_events=100000,
        monitor_observations=17,
    ),
]


@pytest.mark.parametrize(
    "obj", SAMPLES, ids=[type(s).__name__ + str(i) for i, s in enumerate(SAMPLES)]
)
def test_json_round_trip_is_loss_free(obj):
    encoded = obj.to_json()
    # The version stamp is on every record (nested ones included).
    assert encoded["schema"] == WIRE_SCHEMA_VERSION
    assert encoded["kind"] == type(obj).kind
    # Through real JSON text, not just dict identity.
    decoded = type(obj).from_json(json.loads(json.dumps(encoded)))
    assert decoded == obj
    # And via the kind-dispatched generic decoder.
    assert decode_wire(json.loads(json.dumps(encoded))) == obj


def test_wire_objects_are_frozen():
    request = SAMPLES[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        request.app_name = "other"


def test_decode_rejects_wrong_schema_version():
    encoded = SAMPLES[0].to_json()
    encoded["schema"] = WIRE_SCHEMA_VERSION + 1
    with pytest.raises(SchemaMismatchError):
        InstallRequest.from_json(encoded)


def test_decode_rejects_unknown_fields():
    encoded = SAMPLES[0].to_json()
    encoded["surprise"] = True
    with pytest.raises(SchemaMismatchError, match="unknown field"):
        InstallRequest.from_json(encoded)


def test_decode_rejects_wrong_kind_and_shapes():
    with pytest.raises(SchemaMismatchError):
        InstallRequest.from_json(AuditRequest(home_id="h").to_json())
    with pytest.raises(SchemaMismatchError):
        InstallRequest.from_json("not an object")
    with pytest.raises(SchemaMismatchError):
        decode_wire({"kind": "NoSuchModel", "schema": WIRE_SCHEMA_VERSION})
    # Even an unhashable kind value stays inside the taxonomy.
    with pytest.raises(SchemaMismatchError, match="malformed wire kind"):
        decode_wire({"kind": ["InstallRequest"],
                     "schema": WIRE_SCHEMA_VERSION})
    bad = SAMPLES[0].to_json()
    del bad["home_id"]
    with pytest.raises(SchemaMismatchError):
        InstallRequest.from_json(bad)


# ----------------------------------------------------------------------
# Decode strictness over every model: each declared field is required
# and typed, and no unknown field gets through.

# One sample per model (the last one listed in SAMPLES).
REPRESENTATIVE = {type(sample).kind: sample for sample in SAMPLES}
FIELD_CASES = [
    (kind, f.name)
    for kind, cls in sorted(WIRE_MODELS.items())
    for f in dataclasses.fields(cls)
]
FIELD_IDS = [f"{kind}.{name}" for kind, name in FIELD_CASES]


def wrong_json_type(value):
    """A JSON value of a type the field's encoded ``value`` excludes."""
    if isinstance(value, str):
        return 7
    if isinstance(value, (int, float)):
        return "7"
    if isinstance(value, list):
        return "x"
    if isinstance(value, dict):
        return ["x"]
    return 7  # null in an optional field


def test_samples_cover_every_wire_model():
    assert set(REPRESENTATIVE) == set(WIRE_MODELS)


@pytest.mark.parametrize("kind,name", FIELD_CASES, ids=FIELD_IDS)
def test_decode_requires_every_field(kind, name):
    encoded = REPRESENTATIVE[kind].to_json()
    del encoded[name]
    with pytest.raises(SchemaMismatchError, match="missing field"):
        WIRE_MODELS[kind].from_json(encoded)


@pytest.mark.parametrize("kind,name", FIELD_CASES, ids=FIELD_IDS)
def test_decode_rejects_a_wrong_json_type_in_every_field(kind, name):
    encoded = REPRESENTATIVE[kind].to_json()
    encoded[name] = wrong_json_type(encoded[name])
    with pytest.raises(SchemaMismatchError, match=f"{kind}.{name}"):
        WIRE_MODELS[kind].from_json(encoded)


@pytest.mark.parametrize("kind", sorted(WIRE_MODELS))
def test_decode_rejects_an_unknown_field_in_every_model(kind):
    encoded = REPRESENTATIVE[kind].to_json()
    encoded["surprise"] = None
    with pytest.raises(SchemaMismatchError, match="unknown field"):
        WIRE_MODELS[kind].from_json(encoded)


# Malformed values inside a field.  The first six were silently coerced
# by the hand-written decoders the derived codec replaced.
MALFORMED_VALUES = [
    ("ThreatRecord", "witness", ["ab"], SchemaMismatchError),
    ("ThreatRecord", "witness", {"xy": 1}, SchemaMismatchError),
    ("ThreatRecord", "witness", [[1, 2]], SchemaMismatchError),
    ("ThreatRecord", "description", None, SchemaMismatchError),
    ("ObservationRecord", "threat_key", 7, SchemaMismatchError),
    ("ThreatRecord", "detail", [1], SchemaMismatchError),
    ("ThreatRecord", "apps", ["A", "B", "C"], SchemaMismatchError),
    ("ThreatReport", "threats", [{"kind": "ThreatRecord", "schema": 6}],
     SchemaMismatchError),
    ("DetectionStatsRecord", "solver_calls", True, SchemaMismatchError),
    ("ServerStatusRecord", "tenants", {"h1": {"requests": 1.5}},
     SchemaMismatchError),
    ("InstallRequest", "devices", {"tv1": 7}, SchemaMismatchError),
    ("AuditRequest", "apps", ["ComfortTV", 7], SchemaMismatchError),
    # Event rows are checked for shape by the codec and for values by
    # MonitorEventRequest.__post_init__ (one pass over the batch).
    ("MonitorEventRequest", "events", [["d1", "switch", "on"]],
     SchemaMismatchError),
    ("MonitorEventRequest", "events", [[7, "switch", "on", 1.0]],
     InvalidRequestError),
    ("MonitorEventRequest", "events", [["d1", "switch", "on", "noon"]],
     InvalidRequestError),
    ("DecisionRequest", "decision", "maybe", InvalidRequestError),
]


@pytest.mark.parametrize(
    "kind,name,value,error", MALFORMED_VALUES,
    ids=[f"{kind}.{name}={value!r}"
         for kind, name, value, _ in MALFORMED_VALUES],
)
def test_decode_rejects_malformed_values(kind, name, value, error):
    encoded = REPRESENTATIVE[kind].to_json()
    encoded[name] = value
    with pytest.raises(error):
        WIRE_MODELS[kind].from_json(encoded)


def test_unsupported_annotation_fails_when_the_model_is_defined():
    with pytest.raises(TypeError, match="unsupported wire annotation"):
        class ListModel(WireModel):
            names: list[str]


def test_invalid_field_values_fail_at_construction():
    with pytest.raises(InvalidRequestError):
        DecisionRequest(home_id="h", session_id="s", decision="maybe")
    with pytest.raises(InvalidRequestError):
        InstallRequest(home_id="", app_name="A")
    # A bare string would iterate into characters and audit nothing.
    with pytest.raises(InvalidRequestError, match="bare string"):
        AuditRequest(home_id="h", apps="Heater")
    with pytest.raises(InvalidRequestError):
        InstallSession(
            session_id="s", home_id="h", app_name="A",
            status="undetermined", report=sample_report(),
        )
    with pytest.raises(InvalidRequestError):
        ServerStatusRecord(state="rebooting")
    # Counter dicts decode strictly: bools are not counts.
    bad = ServerStatusRecord(state="serving").to_json()
    bad["phase_counts"] = {"parse": True}
    with pytest.raises(SchemaMismatchError):
        ServerStatusRecord.from_json(bad)


def test_service_error_taxonomy_round_trips():
    error = UnknownHomeError("no home 'h9'", home_id="h9")
    encoded = json.loads(json.dumps(error.to_json()))
    assert encoded["code"] == "unknown-home"
    assert encoded["schema"] == WIRE_SCHEMA_VERSION
    decoded = decode_wire(encoded)
    assert type(decoded) is UnknownHomeError
    assert decoded.message == error.message
    assert decoded.details == {"home_id": "h9"}
    # Unknown codes (a future taxonomy member) degrade to the base
    # class — with the transported code preserved for dispatch.
    encoded["code"] = "code-from-the-future"
    future = ServiceError.from_json(encoded)
    assert type(future) is ServiceError
    assert future.code == "code-from-the-future"
    # Wire-controlled details must not collide with constructor
    # arguments (regression: **details crashed on a 'message' key).
    hostile = UnknownHomeError("x").to_json()
    hostile["details"] = {"message": "shadow", "home_id": "h9"}
    decoded_hostile = ServiceError.from_json(hostile)
    assert decoded_hostile.message == "x"
    assert decoded_hostile.details == {"message": "shadow", "home_id": "h9"}
    # Every code in the taxonomy is stable and distinct.
    assert len(ERROR_CODES) == len(
        {cls.code for cls in ERROR_CODES.values()}
    )


def test_schema_manifest_matches_committed_file():
    """The schema-stability gate: any field change without a version
    bump + manifest regeneration fails here (and in CI via
    ``make schema-check``)."""
    findings = check_manifest()
    assert not findings, (
        "wire schema drifted from src/repro/service/schema_manifest.json:\n"
        + "\n".join(findings)
        + "\nIf the change is deliberate, bump WIRE_SCHEMA_VERSION and run"
        " `python -m repro.service.schemas --write-manifest`."
    )
    committed = json.loads(manifest_path().read_text(encoding="utf-8"))
    assert committed == schema_manifest()


def test_manifest_covers_every_model_and_error():
    manifest = schema_manifest()
    assert set(manifest["models"]) == set(WIRE_MODELS)
    assert manifest["errors"] == sorted(ERROR_CODES)
    assert manifest["schema"] == WIRE_SCHEMA_VERSION
