"""HomeGuard — Cross-App Interference threat detection for smart homes.

A from-scratch reproduction of *"Cross-App Interference Threats in Smart
Homes: Categorization, Detection and Handling"* (Chi, Zeng, Du, Yu —
DSN 2020).

Public API highlights
---------------------
* :class:`repro.service.HomeGuardService` — the canonical multi-tenant
  service: N homes over one shared backend extractor and solver
  dispatcher, typed JSON-round-trippable wire schemas
  (:class:`~repro.service.InstallRequest`,
  :class:`~repro.service.InstallSession`,
  :class:`~repro.service.ThreatReport`, the
  :class:`~repro.service.ServiceError` taxonomy) and pluggable
  threat-handling policies (DESIGN.md §11); each tenant home is a
  :class:`repro.service.home.TenantHome`, the paper's companion app
  (§VII-B),
* :mod:`repro.frontend` — the review screen and threat interpreter
  (paper Fig. 7b),
* :func:`repro.rules.extract_rules` — symbolic-execution rule extraction
  for one SmartApp,
* :class:`repro.detector.DetectionEngine` — pairwise CAI detection
  (AR/GC/CT/SD/LT/EC/DC + chains),
* :class:`repro.detector.DetectionPipeline` /
  :class:`repro.detector.DetectionStore` — the indexed incremental
  pipeline and its persistent, environment-sharded store (warm-start
  audits across processes; DESIGN.md §8),
* :mod:`repro.constraints.dispatch` — plan/execute solver batching with
  serial / thread / process backends (byte-identical results;
  DESIGN.md §9),
* :class:`repro.runtime.SmartHome` — concrete smart-home simulator for
  verifying threats dynamically,
* :mod:`repro.corpus` — the 205-app evaluation corpus.
"""

from repro.service import (
    AuditRequest,
    DecisionRequest,
    HomeGuardService,
    InstallRequest,
    InstallSession,
    ServiceError,
    ThreatReport,
)
from repro.service.home import InstallDecision, InstalledDevice, InstallReview

__version__ = "7.0.0"

__all__ = [
    "AuditRequest",
    "DecisionRequest",
    "HomeGuardService",
    "InstallDecision",
    "InstallRequest",
    "InstallReview",
    "InstallSession",
    "InstalledDevice",
    "ServiceError",
    "ThreatReport",
    "__version__",
]
