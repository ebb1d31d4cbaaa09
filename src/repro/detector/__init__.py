"""CAI threat detection (paper §III categorization + §VI detection).

The detection engine evaluates the interaction relations between the
rules of a newly installed (or reconfigured) app and those of already
installed apps:

* **Action interference** — Actuator Race (AR) and Goal Conflict (GC),
* **Trigger interference** — Covert Triggering (CT), Self Disabling
  (SD) and Loop Triggering (LT),
* **Condition interference** — Enabling (EC) and Disabling (DC),
* **Chained threats** — indirect interference through the Allowed list.

Candidate filtering uses the global M_AR / M_GC mappings; candidates are
confirmed by overlapping-condition detection via the constraint solver,
with solving results reused across threat types (paper Fig. 9).

Detection runs as a three-layer pipeline (DESIGN.md): per-rule
:class:`RuleSignature` facts are computed once, filed into the inverted
:class:`RuleIndex` (its channel and mode keys scoped per home), and
the incremental :class:`DetectionPipeline` feeds the engine only
index-selected candidate pairs — so installing app N+1 never rescans
all installed rule pairs.  :class:`DetectionStore` persists all three
layers plus the solve caches to a versioned, environment-sharded
on-disk store, so audits warm-start across processes with zero solver
calls (DESIGN.md §8).

With a :class:`~repro.constraints.dispatch.SolverDispatcher` configured
(``DetectionPipeline(dispatcher=...)``), detection runs in plan/execute
mode: candidate pairs are planned into a solve batch first and the
batch fans out to serial/thread/process workers with byte-identical
threat reports, caches and store bytes (DESIGN.md §9).
"""

from repro.detector.types import (
    Threat,
    ThreatReport,
    ThreatType,
)
from repro.detector.engine import DetectionEngine
from repro.detector.index import RuleIndex
from repro.detector.pipeline import DetectionPipeline
from repro.detector.signature import (
    RuleSignature,
    SignatureBuilder,
    compute_signature,
    may_interfere,
)
from repro.detector.storage import (
    DirectoryBackend,
    SQLiteStoreBackend,
    StoreBackend,
    make_store_backend,
)
from repro.detector.store import (
    DetectionStore,
    StoreCommit,
    StoreSnapshot,
    WarmStart,
)

__all__ = [
    "DetectionEngine",
    "DetectionPipeline",
    "DetectionStore",
    "DirectoryBackend",
    "RuleIndex",
    "RuleSignature",
    "SQLiteStoreBackend",
    "SignatureBuilder",
    "StoreBackend",
    "StoreCommit",
    "StoreSnapshot",
    "Threat",
    "ThreatReport",
    "ThreatType",
    "WarmStart",
    "compute_signature",
    "make_store_backend",
    "may_interfere",
]
