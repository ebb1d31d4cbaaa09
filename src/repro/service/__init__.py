"""Multi-tenant HomeGuard service API (DESIGN.md §11).

The canonical public surface of the reproduction:

* :class:`HomeGuardService` — N tenant homes over one shared backend
  extractor, one shared solver dispatcher, per-home persistent stores;
* typed wire schemas (:class:`InstallRequest`, :class:`AuditRequest`,
  :class:`DecisionRequest` in; :class:`InstallSession`,
  :class:`ThreatReport`, :class:`ThreatRecord` out) — frozen,
  versioned, JSON-round-trippable;
* the :class:`ServiceError` taxonomy with stable machine-readable
  codes;
* pluggable threat handling (:class:`HandlingPolicy`:
  :class:`InteractivePolicy` — the paper's one-time user decision —
  plus :class:`AutoDenyPolicy`, :class:`SeverityThresholdPolicy`,
  :class:`ChainedPolicy`, and the monitor-fed :class:`EvidencePolicy`).

The socket front end lives in :mod:`repro.service.transport`
(DESIGN.md §13): ``FleetServer`` / ``serve_background`` put a
stdlib-only HTTP + JSON-RPC server — with per-tenant quotas, admission
control and weighted-fair scheduling — in front of one service;
``FleetClient`` / ``AsyncFleetClient`` speak the same wire records and
raise the same typed errors across the socket.
"""

from repro.service.errors import (
    WIRE_SCHEMA_VERSION,
    DuplicateHomeError,
    InvalidRequestError,
    QuotaExceededError,
    RequestTooLargeError,
    SchemaMismatchError,
    ServiceError,
    SessionDecidedError,
    UnavailableError,
    UnknownAppError,
    UnknownHomeError,
    UnknownSessionError,
)
from repro.service.home import (
    InstallDecision,
    InstalledDevice,
    InstallReview,
    TenantHome,
)
from repro.service.policies import (
    AutoDenyPolicy,
    ChainedPolicy,
    EvidencePolicy,
    HandlingPolicy,
    InteractivePolicy,
    SeverityThresholdPolicy,
)
from repro.service.schemas import (
    AuditRequest,
    DecisionRequest,
    DetectionStatsRecord,
    InstallRequest,
    InstallSession,
    MonitorEventRequest,
    ObservationRecord,
    ServerStatusRecord,
    ThreatRecord,
    ThreatReport,
    decode_wire,
    schema_manifest,
)
from repro.service.service import HomeGuardService

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "AuditRequest",
    "AutoDenyPolicy",
    "ChainedPolicy",
    "DecisionRequest",
    "DetectionStatsRecord",
    "DuplicateHomeError",
    "EvidencePolicy",
    "HandlingPolicy",
    "HomeGuardService",
    "InstallDecision",
    "InstallRequest",
    "InstallReview",
    "InstallSession",
    "InstalledDevice",
    "InteractivePolicy",
    "InvalidRequestError",
    "MonitorEventRequest",
    "ObservationRecord",
    "QuotaExceededError",
    "RequestTooLargeError",
    "SchemaMismatchError",
    "ServerStatusRecord",
    "ServiceError",
    "SessionDecidedError",
    "SeverityThresholdPolicy",
    "TenantHome",
    "UnavailableError",
    "ThreatRecord",
    "ThreatReport",
    "UnknownAppError",
    "UnknownHomeError",
    "UnknownSessionError",
    "decode_wire",
    "schema_manifest",
]
