"""Typed, versioned wire schemas for the HomeGuard service (DESIGN.md §11).

Every request a tenant sends to :class:`~repro.service.service
.HomeGuardService` and every response it returns is one of the frozen
dataclasses below — never an ad-hoc tuple or dict.  The contract:

* **Frozen** — wire objects are immutable value types; handlers cannot
  mutate a request in flight.
* **Versioned** — ``to_json`` stamps every record with its ``kind`` and
  the module-wide :data:`~repro.service.errors.WIRE_SCHEMA_VERSION`;
  ``from_json`` rejects records from a different version instead of
  guessing.  Changing any field list without bumping the version fails
  the schema-stability check (``make schema-check``), which pins the
  committed ``schema_manifest.json``.
* **JSON-round-trippable** — ``from_json(json.loads(json.dumps(
  obj.to_json()))) == obj`` holds for every model, so the same objects
  can cross a process boundary, a message queue, or the ROADMAP's
  future many-host dispatcher without a separate serialization layer.
* **Strict** — unknown fields, missing fields and values of the wrong
  JSON type or shape raise
  :class:`~repro.service.errors.SchemaMismatchError`; bad field
  *values* (e.g. an unknown decision verb) raise
  :class:`~repro.service.errors.InvalidRequestError` at construction
  time, so an invalid request object cannot even be built.

The codec is derived from the declarations: every model subclasses
:class:`WireModel`, which makes it a frozen dataclass, takes its
``kind`` from the class name, and compiles one encoder/decoder per
field from ``dataclasses.fields`` and the type annotations, once, when
the class is defined.  ``to_json`` writes the ``kind``/``schema``
header, then every field in declaration order, tuples as lists.
``from_json`` requires every declared field — ``to_json`` always
writes them all — and checks JSON types and shapes only; value rules
(decision verbs, empty ids, event normalisation) live in each model's
``__post_init__``.  The annotation forms are:

* ``str``; ``int`` (``bool`` rejected); ``float`` (``int`` accepted
  and widened, ``bool`` rejected); ``X | None``;
* ``object`` — any JSON value, through :func:`_wire_value`;
* ``dict[str, X]``, ``tuple[X, ...]`` and fixed-arity ``tuple[X, Y]``
  (a JSON list of exactly that length);
* another :class:`WireModel`, nested as its own stamped record.

Any other annotation raises ``TypeError`` when the model is defined.
A field declared with ``metadata=ROWS_CHECKED_BY_MODEL`` has its
fixed-arity rows checked for length only: the model's ``__post_init__``
validates and normalises their values itself, so a monitor batch is
validated in one pass.

Regenerate the manifest after a deliberate, version-bumped change
with::

    python -m repro.service.schemas --write-manifest
"""

from __future__ import annotations

import dataclasses
import json
import operator
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    ClassVar,
    Self,
    dataclass_transform,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.service.errors import (
    ERROR_CODES,
    WIRE_SCHEMA_VERSION,
    InvalidRequestError,
    SchemaMismatchError,
)

# The three one-time decision verbs of paper §VIII-D.1, as wire text
# (mirrors repro.service.home.InstallDecision values).
DECISION_VERBS = ("keep", "reconfigure", "delete")

# Monitor observation outcomes (DESIGN.md §16), as wire text (mirrors
# the repro.monitor.rules KIND_* vocabulary).
OBSERVATION_OUTCOMES = ("confirmed", "contradicted", "anomaly")

SESSION_PENDING = "pending"
SESSION_DECIDED = "decided"

# Field metadata: the model's ``__post_init__`` validates this field's
# fixed-arity rows, so the codec checks their length only.
ROWS_CHECKED_BY_MODEL = {"rows_checked_by_model": True}


# ----------------------------------------------------------------------
# The derived codec


def _wire_value(value: object) -> object:
    """A JSON-primitive view of one user/witness value (non-primitives
    degrade to ``str``, exactly like the config URI encoding does)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def _check_header(kind: str, data: object) -> dict:
    if not isinstance(data, dict):
        raise SchemaMismatchError(
            f"{kind}: expected a JSON object, got {type(data).__name__}"
        )
    if data.get("kind") != kind:
        raise SchemaMismatchError(
            f"expected kind {kind!r}, got {data.get('kind')!r}"
        )
    if data.get("schema") != WIRE_SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"{kind}: wire schema {data.get('schema')!r} != "
            f"{WIRE_SCHEMA_VERSION}; peers must speak the same version"
        )
    return data


def _mismatch(expected: str, value: object) -> SchemaMismatchError:
    return SchemaMismatchError(f"expected {expected}, got {value!r}")


def _decode_str(value: object) -> str:
    if isinstance(value, str):
        return value
    raise _mismatch("a string", value)


def _decode_int(value: object) -> int:
    # bool is an int subclass; a True/False counter is malformed wire.
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _mismatch("an integer", value)


def _decode_float(value: object) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise _mismatch("a number", value)


_SCALARS = {str: _decode_str, int: _decode_int, float: _decode_float}


def _codec(hint: object, rows_checked_by_model: bool = False) -> tuple:
    """``(encoder, decoder)`` for one annotation; a ``None`` encoder
    means the value is already its own JSON form."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in _SCALARS:
        return None, _SCALARS[hint]
    if hint is object:
        return _wire_value, _wire_value
    if isinstance(hint, type) and issubclass(hint, WireModel):
        return operator.methodcaller("to_json"), hint.from_json
    if (
        origin is types.UnionType
        and len(args) == 2
        and args[1] is type(None)
    ):
        encode, decode = _codec(args[0], rows_checked_by_model)
        return (
            None if encode is None
            else lambda v: None if v is None else encode(v),
            lambda v: None if v is None else decode(v),
        )
    if origin is dict and len(args) == 2 and args[0] is str:
        encode, decode = _codec(args[1], rows_checked_by_model)

        def decode_dict(value):
            if not isinstance(value, dict):
                raise _mismatch("an object", value)
            decoded = {}
            for key, item in value.items():
                if not isinstance(key, str):
                    raise _mismatch("string keys", key)
                decoded[key] = decode(item)
            return decoded

        return (
            dict if encode is None
            else lambda v: {key: encode(item) for key, item in v.items()},
            decode_dict,
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        encode, decode = _codec(args[0], rows_checked_by_model)

        def decode_tuple(value):
            if not isinstance(value, list):
                raise _mismatch("a list", value)
            return tuple([decode(item) for item in value])

        return (
            list if encode is None else lambda v: [encode(x) for x in v],
            decode_tuple,
        )
    if origin is tuple and args and Ellipsis not in args:
        length = len(args)
        codecs = [_codec(arg) for arg in args]
        # Rows the model checks itself are taken as sent, by shape only.
        decoders = (
            None if rows_checked_by_model else [dec for _, dec in codecs]
        )

        def decode_fixed(value):
            if not (isinstance(value, list) and len(value) == length):
                raise _mismatch(f"a list of {length} entries", value)
            if decoders is None:
                return tuple(value)
            return tuple([dec(x) for dec, x in zip(decoders, value)])

        if rows_checked_by_model or not any(enc for enc, _ in codecs):
            return list, decode_fixed
        encoders = [enc or (lambda x: x) for enc, _ in codecs]
        return (
            lambda v: [enc(x) for enc, x in zip(encoders, v)],
            decode_fixed,
        )
    raise TypeError(f"unsupported wire annotation {hint!r}")


@dataclass_transform(frozen_default=True, field_specifiers=(field,))
class WireModel:
    """Base of every wire model: each subclass becomes a frozen
    dataclass whose ``kind`` is its class name and whose
    ``to_json``/``from_json`` are compiled from its field declarations
    (see the module docstring for the annotation forms)."""

    kind: ClassVar[str]
    # (name, encoder or None, decoder) per field, in declaration order.
    _wire_fields: ClassVar[tuple[tuple[str, Any, Any], ...]]
    _wire_keys: ClassVar[frozenset[str]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        dataclass(frozen=True)(cls)
        cls.kind = cls.__name__
        hints = get_type_hints(cls)
        cls._wire_fields = tuple(
            (f.name,
             *_codec(hints[f.name], "rows_checked_by_model" in f.metadata))
            for f in dataclasses.fields(cls)
        )
        cls._wire_keys = frozenset(
            [name for name, _, _ in cls._wire_fields] + ["kind", "schema"]
        )

    def to_json(self) -> dict:
        record = {"kind": self.kind, "schema": WIRE_SCHEMA_VERSION}
        for name, encode, _ in self._wire_fields:
            value = getattr(self, name)
            record[name] = value if encode is None else encode(value)
        return record

    @classmethod
    def from_json(cls, data: object) -> Self:
        data = _check_header(cls.kind, data)
        if data.keys() != cls._wire_keys:
            unknown = sorted(data.keys() - cls._wire_keys)
            if unknown:
                raise SchemaMismatchError(
                    f"{cls.kind}: unknown field(s) {unknown!r} — a schema "
                    "change must bump WIRE_SCHEMA_VERSION"
                )
            raise SchemaMismatchError(
                f"{cls.kind}: missing field(s) "
                f"{sorted(cls._wire_keys - data.keys())!r}"
            )
        values = {}
        for name, _, decode in cls._wire_fields:
            try:
                values[name] = decode(data[name])
            except SchemaMismatchError as exc:
                raise SchemaMismatchError(
                    f"{cls.kind}.{name}: {exc.message}"
                ) from None
        return cls(**values)


# ----------------------------------------------------------------------
# Requests


class InstallRequest(WireModel):
    """Install (or re-configure) one app in one tenant home.

    ``devices`` maps the app's device input names to *home device
    labels* (registered via ``register_device``) or bare device type
    names (a device of that type is auto-registered on first use, see
    :meth:`~repro.service.home.TenantHome.bind_inputs`); ``values``
    are the user-entered input values.  ``source`` optionally carries
    custom SmartApp source for apps the shared backend has not
    extracted offline."""

    home_id: str
    app_name: str
    devices: dict[str, str] = field(default_factory=dict)
    values: dict[str, object] = field(default_factory=dict)
    source: str | None = None

    def __post_init__(self) -> None:
        if not self.home_id:
            raise InvalidRequestError("InstallRequest.home_id is empty")
        if not self.app_name:
            raise InvalidRequestError("InstallRequest.app_name is empty")


class AuditRequest(WireModel):
    """Re-run detection over a home's already-installed apps (the
    paper's §VIII-D.3 backward-compatibility audit).  ``apps`` limits
    the replay to the named apps; ``None`` audits everything."""

    home_id: str
    apps: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.home_id:
            raise InvalidRequestError("AuditRequest.home_id is empty")
        if self.apps is not None:
            # A bare string would silently iterate into characters and
            # audit nothing — reject it like any other invalid value.
            if isinstance(self.apps, (str, bytes)):
                raise InvalidRequestError(
                    "AuditRequest.apps must be a sequence of app names "
                    f"(or None), not a bare string: {self.apps!r}"
                )
            object.__setattr__(
                self, "apps", tuple(str(app) for app in self.apps)
            )


class DecisionRequest(WireModel):
    """The tenant's one-time decision for a pending install session."""

    home_id: str
    session_id: str
    decision: str

    def __post_init__(self) -> None:
        if not self.home_id:
            raise InvalidRequestError("DecisionRequest.home_id is empty")
        if not self.session_id:
            raise InvalidRequestError("DecisionRequest.session_id is empty")
        if self.decision not in DECISION_VERBS:
            raise InvalidRequestError(
                f"unknown decision verb {self.decision!r}; expected one "
                f"of {', '.join(DECISION_VERBS)}"
            )


# ----------------------------------------------------------------------
# Responses


class ThreatRecord(WireModel):
    """One detected CAI threat, as wire data.

    The live :class:`~repro.detector.types.Threat` holds full
    :class:`~repro.rules.model.Rule` objects; the wire record carries
    their stable ids plus everything the front end renders — type,
    Table I category, witness situation, chain path and the
    human-readable explanation."""

    type: str
    category: str
    rule_a: str
    rule_b: str
    apps: tuple[str, str]
    detail: str = ""
    witness: tuple[tuple[str, object], ...] = ()
    chain: tuple[str, ...] = ()
    description: str = ""

    @classmethod
    def from_threat(cls, threat) -> "ThreatRecord":
        from repro.frontend.threat_interpreter import describe_threat

        return cls(
            type=threat.type.value,
            category=threat.type.category,
            rule_a=threat.rule_a.rule_id,
            rule_b=threat.rule_b.rule_id,
            apps=(threat.rule_a.app_name, threat.rule_b.app_name),
            detail=threat.detail,
            witness=tuple(
                (str(key), _wire_value(value))
                for key, value in threat.witness
            ),
            chain=tuple(rule.rule_id for rule in threat.chain),
            description=describe_threat(threat),
        )


class ThreatReport(WireModel):
    """Everything detection found for one app in one home — the wire
    form of an installation review screen (rendered rules + pairwise
    threats + chained threats through the home's Allowed list)."""

    home_id: str
    app_name: str
    rules: tuple[str, ...] = ()
    threats: tuple[ThreatRecord, ...] = ()
    chains: tuple[ThreatRecord, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.threats and not self.chains

    @classmethod
    def from_review(cls, home_id: str, review) -> "ThreatReport":
        return cls(
            home_id=home_id,
            app_name=review.app_name,
            rules=tuple(review.rules),
            threats=tuple(
                ThreatRecord.from_threat(t) for t in review.threats
            ),
            chains=tuple(
                ThreatRecord.from_threat(t) for t in review.chains
            ),
        )


class InstallSession(WireModel):
    """One install request's lifecycle: review shown -> one-time
    decision applied.

    ``status`` is :data:`SESSION_PENDING` while the home's
    :class:`~repro.service.policies.HandlingPolicy` deferred to the
    user (the paper's interactive flow) and :data:`SESSION_DECIDED`
    once a decision landed; ``decided_by`` names the policy that
    decided automatically, or is ``None`` for a user decision."""

    session_id: str
    home_id: str
    app_name: str
    status: str
    report: ThreatReport
    decision: str | None = None
    decided_by: str | None = None

    def __post_init__(self) -> None:
        if self.status not in (SESSION_PENDING, SESSION_DECIDED):
            raise InvalidRequestError(
                f"unknown session status {self.status!r}"
            )
        if self.decision is not None and self.decision not in DECISION_VERBS:
            raise InvalidRequestError(
                f"unknown decision verb {self.decision!r}"
            )

    @property
    def pending(self) -> bool:
        return self.status == SESSION_PENDING


class MonitorEventRequest(WireModel):
    """A batch of runtime events for one home's interference monitor
    (wire schema v6, DESIGN.md §16).

    ``events`` is a sequence of ``(subject, attribute, value,
    timestamp)`` tuples — the wire view of
    :class:`~repro.runtime.events.Event` — and is deliberately a
    *batch*: a 10k-event burst is one admission-controlled fleet job
    under the quota/fairness scheduler, not 10k.  ``batch_id`` is the
    client's idempotency token; a retried batch with the same id (or
    the same content, which the server hashes when the id is empty)
    returns the original observations instead of double-counting."""

    home_id: str
    events: tuple[tuple[str, str, object, float], ...] = field(
        default=(), metadata=ROWS_CHECKED_BY_MODEL
    )
    batch_id: str = ""

    def __post_init__(self) -> None:
        if not self.home_id:
            raise InvalidRequestError("MonitorEventRequest.home_id is empty")
        if not isinstance(self.batch_id, str):
            raise InvalidRequestError(
                "MonitorEventRequest.batch_id must be a string"
            )
        normalized = []
        for entry in self.events:
            try:
                subject, attribute, value, timestamp = entry
            except (TypeError, ValueError):
                raise InvalidRequestError(
                    "MonitorEventRequest.events: expected (subject, "
                    f"attribute, value, timestamp) tuples, got {entry!r}"
                ) from None
            if not (isinstance(subject, str) and subject):
                raise InvalidRequestError(
                    f"MonitorEventRequest.events: bad subject {subject!r}"
                )
            if not (isinstance(attribute, str) and attribute):
                raise InvalidRequestError(
                    f"MonitorEventRequest.events: bad attribute "
                    f"{attribute!r}"
                )
            if not isinstance(timestamp, (int, float)) or isinstance(
                timestamp, bool
            ):
                raise InvalidRequestError(
                    f"MonitorEventRequest.events: bad timestamp "
                    f"{timestamp!r}"
                )
            normalized.append(
                (subject, attribute, _wire_value(value), float(timestamp))
            )
        object.__setattr__(self, "events", tuple(normalized))

    def to_events(self):
        """The batch as live runtime events, replay-ready."""
        from repro.runtime.events import Event

        return [
            Event(subject, attribute, value, timestamp)
            for subject, attribute, value, timestamp in self.events
        ]


class ObservationRecord(WireModel):
    """One deduplicated monitor observation, as wire data (wire schema
    v6, DESIGN.md §16) — the persisted evidence that a statically
    predicted threat fired (``outcome="confirmed"``), that its
    prediction failed to hold (``"contradicted"``), or that an anomaly
    rule flagged emergent behavior the solver never saw
    (``"anomaly"``).

    ``key`` is the observation's deterministic identity (the
    exactly-once dedup key); ``threat_key`` links confirmation
    observations back to their static threat; ``timestamp`` is event
    time, so replaying the same trace reproduces the record
    byte-for-byte.  The fields mirror
    :class:`~repro.monitor.engine.Observation` one for one, except
    that the engine's ``kind`` is the wire ``outcome``."""

    key: str
    home_id: str
    rule: str
    outcome: str
    subject: str
    threat_key: str = ""
    detail: str = ""
    timestamp: float = 0.0
    window_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.key:
            raise InvalidRequestError("ObservationRecord.key is empty")
        if not self.home_id:
            raise InvalidRequestError("ObservationRecord.home_id is empty")
        if self.outcome not in OBSERVATION_OUTCOMES:
            raise InvalidRequestError(
                f"unknown observation outcome {self.outcome!r}; expected "
                f"one of {', '.join(OBSERVATION_OUTCOMES)}"
            )

    @classmethod
    def from_observation(cls, observation) -> "ObservationRecord":
        """Build from a :class:`~repro.monitor.engine.Observation`."""
        return cls(
            outcome=observation.kind,
            **{name: getattr(observation, name)
               for name, _, _ in cls._wire_fields if name != "outcome"},
        )

    def to_observation(self):
        from repro.monitor.engine import Observation

        return Observation(
            kind=self.outcome,
            **{name: getattr(self, name)
               for name, _, _ in self._wire_fields if name != "outcome"},
        )


class DetectionStatsRecord(WireModel):
    """One home's cumulative solver/cache accounting, as wire data.

    Mirrors the counter fields of
    :class:`~repro.detector.engine.DetectionStats` that a fleet
    operator monitors: how many pairs detection examined, how many the
    signature prescreen pruned, and where the verdicts came from —
    fresh solver calls, the home's own solve cache, or the shared
    cross-tenant solve cache (DESIGN.md §12).  The shared-cache
    counters are a versioned addition (wire schema v2), the
    storage-engine counters — bytes the store backend durably wrote
    for this home's commits and the wall seconds those commits took
    (DESIGN.md §14) — a v4 one, the fault-recovery counters
    (DESIGN.md §15) a v5 one, and the runtime-monitor counters —
    events ingested, deduplicated observations, and their
    confirmed/contradicted/anomaly split (DESIGN.md §16) — a v6 one;
    peers on an older version reject the record instead of silently
    dropping fields.  Every field after ``home_id`` is a
    ``DetectionStats`` attribute of the same name."""

    home_id: str
    solver_calls: int = 0
    cache_hits: int = 0
    shared_cache_hits: int = 0
    shared_cache_publishes: int = 0
    pairs_examined: int = 0
    prescreen_pruned_pairs: int = 0
    planned_pairs: int = 0
    store_bytes_written: int = 0
    store_commit_seconds: float = 0.0
    tasks_retried: int = 0
    chunks_requeued: int = 0
    pool_failures: int = 0
    degraded_serial: int = 0
    monitor_events: int = 0
    monitor_observations: int = 0
    threats_confirmed: int = 0
    threats_contradicted: int = 0
    anomalies_flagged: int = 0

    def __post_init__(self) -> None:
        if not self.home_id:
            raise InvalidRequestError("DetectionStatsRecord.home_id is empty")

    @classmethod
    def from_stats(cls, home_id: str, stats) -> "DetectionStatsRecord":
        return cls(
            home_id=home_id,
            **{name: getattr(stats, name)
               for name, _, _ in cls._wire_fields if name != "home_id"},
        )


SERVER_STATES = ("serving", "draining", "closed")


class ServerStatusRecord(WireModel):
    """One fleet server's health/accounting snapshot, as wire data
    (DESIGN.md §13) — what the transport's ``status`` RPC returns.

    Counters are process-lifetime totals: every accepted request,
    every quota/admission/drain rejection, every typed error response,
    and the ``internal_errors`` count of handler exceptions that fell
    outside the :class:`~repro.service.errors.ServiceError` taxonomy
    (the fuzz battery pins this at zero).  ``phase_seconds`` /
    ``phase_counts`` hold the per-phase latency accounting of the
    structured access log (parse / admit / queue / execute / write);
    ``tenants`` the per-home request and rejection counters.
    ``homes`` counts every registered home; ``homes_resident`` (wire
    schema v4) the subset currently hydrated in memory — with
    ``max_resident_homes`` set it stays under the bound no matter how
    large the fleet grows (DESIGN.md §14).

    The fault-tolerance surface (wire schema v5, DESIGN.md §15):
    ``breaker_states`` maps each breaker-guarded backend (e.g.
    ``solve_cache``, ``store``) to its circuit state
    (closed/open/half-open, or ``disabled`` for a permanently degraded
    backend); ``tasks_retried`` / ``degraded_serial`` are the shared
    dispatcher's lifetime recovery totals (they survive tenant-home
    eviction, unlike the per-home stats records); and
    ``deadline_rejections`` counts queued requests the server turned
    away because they overran ``request_deadline_seconds``.

    The runtime-monitor surface (wire schema v6, DESIGN.md §16):
    ``monitor_events`` / ``monitor_observations`` are service-lifetime
    ingestion totals across every home — like the dispatcher recovery
    totals, they survive tenant-home eviction."""

    state: str
    homes: int = 0
    homes_resident: int = 0
    requests_total: int = 0
    requests_inflight: int = 0
    quota_rejections: int = 0
    admission_rejections: int = 0
    drain_rejections: int = 0
    errors_total: int = 0
    internal_errors: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_counts: dict[str, int] = field(default_factory=dict)
    tenants: dict[str, dict[str, int]] = field(default_factory=dict)
    breaker_states: dict[str, str] = field(default_factory=dict)
    tasks_retried: int = 0
    degraded_serial: int = 0
    deadline_rejections: int = 0
    monitor_events: int = 0
    monitor_observations: int = 0

    def __post_init__(self) -> None:
        if self.state not in SERVER_STATES:
            raise InvalidRequestError(
                f"unknown server state {self.state!r}; expected one of "
                f"{', '.join(SERVER_STATES)}"
            )


# ----------------------------------------------------------------------
# Registry, generic decode, schema manifest


WIRE_MODELS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        InstallRequest,
        AuditRequest,
        DecisionRequest,
        ThreatRecord,
        ThreatReport,
        InstallSession,
        MonitorEventRequest,
        ObservationRecord,
        DetectionStatsRecord,
        ServerStatusRecord,
    )
}


def decode_wire(data: object) -> Any:
    """Decode any wire record by its ``kind`` tag (requests, responses
    or a transported :class:`~repro.service.errors.ServiceError`)."""
    if not isinstance(data, dict):
        raise SchemaMismatchError(
            f"expected a JSON object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise SchemaMismatchError(f"malformed wire kind {kind!r}")
    if kind == "ServiceError":
        from repro.service.errors import ServiceError

        return ServiceError.from_json(data)
    cls = WIRE_MODELS.get(kind)
    if cls is None:
        raise SchemaMismatchError(f"unknown wire kind {kind!r}")
    return cls.from_json(data)


def schema_manifest() -> dict:
    """The wire contract as data: version, per-model field lists, and
    the error-code taxonomy.  The committed ``schema_manifest.json``
    pins this; the schema-stability check fails on any drift, which is
    what makes "change a field without bumping the version" a CI
    failure instead of a silent wire break."""
    return {
        "schema": WIRE_SCHEMA_VERSION,
        "models": {
            kind: [f.name for f in dataclasses.fields(cls)]
            for kind, cls in sorted(WIRE_MODELS.items())
        },
        "errors": sorted(ERROR_CODES),
    }


def manifest_path() -> Path:
    return Path(__file__).with_name("schema_manifest.json")


def check_manifest() -> list[str]:
    """Compare the live schemas against the committed manifest;
    returns human-readable drift findings (empty = stable)."""
    current = schema_manifest()
    try:
        committed = json.loads(manifest_path().read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"cannot read {manifest_path()}: {exc}"]
    findings: list[str] = []
    if committed.get("schema") != current["schema"]:
        findings.append(
            f"WIRE_SCHEMA_VERSION is {current['schema']} but the "
            f"committed manifest pins {committed.get('schema')}; "
            "regenerate with --write-manifest"
        )
    for kind, fields in current["models"].items():
        recorded = committed.get("models", {}).get(kind)
        if recorded is None:
            findings.append(f"{kind}: new model not in the manifest")
        elif recorded != fields:
            findings.append(
                f"{kind}: fields changed {recorded} -> {fields} — bump "
                "WIRE_SCHEMA_VERSION and regenerate the manifest"
            )
    for kind in set(committed.get("models", {})) - set(current["models"]):
        findings.append(f"{kind}: model removed without a version bump")
    if committed.get("errors") != current["errors"]:
        findings.append(
            f"error taxonomy changed {committed.get('errors')} -> "
            f"{current['errors']} — bump WIRE_SCHEMA_VERSION and "
            "regenerate the manifest"
        )
    return findings


def _main(argv: list[str]) -> int:
    if "--write-manifest" in argv:
        manifest_path().write_text(
            json.dumps(schema_manifest(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {manifest_path()}")
        return 0
    findings = check_manifest()
    if findings:
        for finding in findings:
            print(f"schema drift: {finding}")
        return 1
    print(
        f"wire schema v{WIRE_SCHEMA_VERSION} matches the committed "
        "manifest"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    import sys

    raise SystemExit(_main(sys.argv[1:]))
