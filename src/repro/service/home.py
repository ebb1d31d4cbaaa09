"""Per-tenant home state — the companion-app core (paper §VII-B).

:class:`TenantHome` holds one home's configuration/rule recorders, its
incremental detection pipeline, the Allowed list, the review/decision
history, the registered home devices, and the save-on-commit /
load-on-startup persistence.  :class:`~repro.service.service
.HomeGuardService` manages N of these over one shared backend
extractor and one shared solver dispatcher (DESIGN.md §11).

Reviews agree with the brute-force all-pairs detector, and the
configuration-URI path (paper §IV-C) persists byte-identically to the
typed install path — ``tests/test_service_equivalence.py`` enforces
both.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.capabilities.devices import make_device_id
from repro.config.messaging import MessageRecord
from repro.config.recorder import ConfigRecorder, RuleRecorder
from repro.config.uri import ConfigPayload, decode_uri
from repro.detector.chains import AllowedList, find_chains
from repro.detector.pipeline import DetectionPipeline
from repro.detector.store import DetectionStore, StoreCommit
from repro.detector.types import Threat, ThreatType
from repro.monitor.engine import MonitorEngine, Observation
from repro.monitor.rules import (
    KIND_CONFIRMED,
    KIND_CONTRADICTED,
    ThreatEvidence,
    compile_confirmations,
    default_anomaly_rules,
)
from repro.rules.extractor import RuleExtractor
from repro.runtime.events import Event
from repro.rules.interpreter import describe_rule
from repro.rules.model import RuleSet

if TYPE_CHECKING:
    from repro.constraints.dispatch import SolverDispatcher
    from repro.service.policies import HandlingPolicy


class InstallDecision(enum.Enum):
    KEEP = "keep"
    RECONFIGURE = "reconfigure"
    DELETE = "delete"


@dataclass(slots=True)
class InstallReview:
    """Everything shown to the user for one installation.

    ``decision`` records the one-time choice once :meth:`TenantHome
    .decide` ran; ``decided_by`` names the handling policy when the
    decision was automatic (``None`` for a user decision — the
    historical interactive flow).  Both persist with the review, so a
    warm-started process can still show why an app is installed (and
    which accepted threats fed the Allowed list)."""

    app_name: str
    rules: list[str]
    threats: list[Threat] = field(default_factory=list)
    chains: list[Threat] = field(default_factory=list)
    decision: str | None = None
    decided_by: str | None = None

    @property
    def clean(self) -> bool:
        return not self.threats and not self.chains


@dataclass(frozen=True, slots=True)
class InstalledDevice:
    """A home device as the companion app sees it."""

    device_id: str
    label: str
    type_name: str


def _threat_record(threat: Threat) -> list:
    """A threat as a JSON-able record: type, rule ids, detail, witness
    and (for chained threats) the chain's rule ids."""
    return [
        threat.type.value,
        threat.rule_a.rule_id,
        threat.rule_b.rule_id,
        threat.detail,
        [[key, value] for key, value in threat.witness],
        [rule.rule_id for rule in threat.chain],
    ]


def _threat_from_record(record, rules_by_id) -> Threat | None:
    """Rebuild a persisted threat; ``None`` when the record is malformed
    or mentions rules that did not restore (degraded, never a crash)."""
    try:
        type_value, id_a, id_b, detail, witness, chain_ids = record
        threat_type = ThreatType(type_value)
        rule_a, rule_b = rules_by_id[id_a], rules_by_id[id_b]
        chain = tuple(rules_by_id[rule_id] for rule_id in chain_ids)
        return Threat(
            type=threat_type,
            rule_a=rule_a,
            rule_b=rule_b,
            detail=str(detail),
            witness=tuple((str(key), value) for key, value in witness),
            chain=chain,
        )
    except (TypeError, ValueError, KeyError):
        return None


class TenantHome:
    """One home's full companion-app state inside the service.

    ``dispatcher`` is a live :class:`~repro.constraints.dispatch
    .SolverDispatcher` (usually the service's shared one) or ``None``
    for the inline solve path — the home never owns it and never closes
    it.  ``policy`` is the home's :class:`~repro.service.policies
    .HandlingPolicy` (``None`` = use the service default).
    """

    #: Confirmation-rule window (event-time seconds) and the number of
    #: recent ingestion-batch dedup keys the home remembers (a retried
    #: batch inside this memory returns its original observations).
    monitor_window = 300.0
    monitor_batch_memory = 256

    def __init__(
        self,
        home_id: str,
        backend: RuleExtractor,
        store_path: str | Path | None = None,
        dispatcher: "SolverDispatcher | None" = None,
        policy: "HandlingPolicy | None" = None,
        shared_cache=None,
        store_backend=None,
    ) -> None:
        self.home_id = home_id
        self.backend = backend
        self.policy = policy
        self.config_recorder = ConfigRecorder()
        self.rule_recorder = RuleRecorder()
        # Incremental detection state: the pipeline's index holds the
        # signed rules of every kept app, so each review solves only
        # index-selected candidate pairs (DESIGN.md).  ``shared_cache``
        # (the service's cross-tenant solve cache, DESIGN.md §12) is
        # borrowed exactly like the dispatcher: never owned, never
        # closed here.
        self.pipeline = DetectionPipeline(
            self.config_recorder,
            dispatcher=dispatcher,
            shared_cache=shared_cache,
        )
        # Optional persistence: decisions append delta records to the
        # store journal (``store_backend`` picks the storage engine,
        # DESIGN.md §14), and :meth:`load_store` warm-starts a fresh
        # process from the last base + journal (DESIGN.md §8).
        self.store = (
            DetectionStore(store_path, backend=store_backend)
            if store_path is not None
            else None
        )
        self.allowed = AllowedList()
        self.reviews: list[InstallReview] = []
        self.home_devices: dict[str, InstalledDevice] = {}
        # Opaque facade state persisted verbatim with every snapshot.
        self.frontend_state: dict = {}
        self._pending: list[ConfigPayload] = []
        # Runtime interference monitor (DESIGN.md §16), built lazily on
        # first ingestion and recompiled after every install decision.
        # Window state is transient; the observation ledger (and its
        # dedup keys) persists in the frontend blob, so eviction or a
        # restart can never double-count an observation.
        self.monitor: MonitorEngine | None = None
        self._monitor_stale = True

    # ------------------------------------------------------------------
    # Home devices

    def register_device(self, label: str, type_name: str) -> InstalledDevice:
        """Register (or re-type) a physical device under a home-unique
        label.  Device ids are deterministic per label, so the same
        home described twice binds the same identities."""
        device = InstalledDevice(
            device_id=make_device_id(f"hg:{label}"),
            label=label,
            type_name=type_name,
        )
        self.home_devices[label] = device
        # Ride along with the snapshots so labels keep resolving after
        # a warm restart.
        self.frontend_state.setdefault("home_devices", {})[label] = {
            "device_id": device.device_id,
            "type": device.type_name,
        }
        return device

    def bind_inputs(
        self, devices: Mapping[str, str] | None
    ) -> tuple[dict[str, str], dict[str, str]]:
        """Resolve an install request's device inputs against the home.

        Each value is a registered device *label*, or a bare device
        type name — a device of that type is auto-registered on first
        use.  Returns ``(input -> device id, device id -> type)``."""
        bound: dict[str, str] = {}
        types: dict[str, str] = {}
        for input_name, type_or_label in (devices or {}).items():
            if type_or_label in self.home_devices:
                device = self.home_devices[type_or_label]
            else:
                device = self.register_device(
                    f"{type_or_label}-{len(self.home_devices)}",
                    type_or_label,
                )
            bound[input_name] = device.device_id
            types[device.device_id] = device.type_name
        return bound, types

    # ------------------------------------------------------------------
    # Message intake

    def receive_message(self, record: MessageRecord) -> None:
        """Transport callback: decode the URI and queue the payload; the
        user then "clicks the notification" via
        :meth:`~repro.service.service.HomeGuardService.review_pending`."""
        payload = decode_uri(record.uri)
        self._pending.append(payload)

    # ------------------------------------------------------------------
    # Detection flow

    def _resolve_ruleset(self, app_name: str) -> RuleSet:
        """The app's rules, preferring the backend extractor.

        A warm-started process may not have re-run the offline
        extraction; the recorded (persisted) rules are the same
        loss-free representation the backend would serve."""
        ruleset = self.backend.rules_of(app_name)
        if ruleset is None:
            ruleset = self.rule_recorder.rules_of(app_name)
        if ruleset is None:
            raise LookupError(
                f"backend has no rules for app {app_name!r}; extract it "
                "first (offline phase) or submit the custom source"
            )
        return ruleset

    def review_installation(
        self,
        payload: ConfigPayload,
        device_types: dict[str, str] | None = None,
    ) -> InstallReview:
        """The online detection run for one app installation/update."""
        ruleset = self._resolve_ruleset(payload.app_name)
        # A re-recorded configuration may change device identities, in
        # which case everything cached about this app is stale.  An
        # identical payload (audit replays) keeps the caches.
        previous = self.config_recorder.config_of(payload.app_name)
        retyped_devices = {
            device_id
            for device_id, type_name in (device_types or {}).items()
            if self.config_recorder.device_types.get(device_id) != type_name
        }
        self.config_recorder.record(payload, device_types)
        if previous != payload or retyped_devices:
            self.pipeline.invalidate_app(payload.app_name)
        if retyped_devices:
            # Device types are home-global: re-typing a device changes
            # the signatures of every installed app bound to it.
            for app_name, recorded in self.config_recorder.payloads.items():
                if app_name != payload.app_name and retyped_devices & set(
                    recorded.devices.values()
                ):
                    self.pipeline.invalidate_app(app_name)
        report = self.pipeline.detect(ruleset)
        chains = find_chains(report.threats, self.allowed)
        review = InstallReview(
            app_name=payload.app_name,
            rules=[describe_rule(rule) for rule in ruleset.rules],
            threats=report.threats,
            chains=chains,
        )
        self.reviews.append(review)
        return review

    def decide(
        self,
        review: InstallReview,
        decision: InstallDecision,
        decided_by: str | None = None,
    ) -> None:
        """Apply the one-time decision.  ``decided_by`` names the
        handling policy for automatic verdicts (``None`` = the user)."""
        review.decision = decision.value
        review.decided_by = decided_by
        # Any decision can change the kept-threat set the monitor
        # watches; recompile its confirmation rules on next ingestion.
        self._monitor_stale = True
        if decision is InstallDecision.KEEP:
            ruleset = self._resolve_ruleset(review.app_name)
            self.rule_recorder.record(ruleset)
            self.pipeline.commit(review.app_name, ruleset)
            # Accepted pairs join the Allowed list for chained detection
            # (paper §VI-D).
            self.allowed.add_all(review.threats)
            self._commit_store(review.app_name)
        elif decision is InstallDecision.DELETE:
            self.rule_recorder.forget(review.app_name)
            self.config_recorder.forget(review.app_name)
            self.pipeline.discard(review.app_name)
            self.pipeline.remove_ruleset(review.app_name)
            self._commit_store(review.app_name, remove=True)
        else:
            # RECONFIGURE keeps nothing: the app will send a fresh
            # payload after the user updates its settings.
            self.pipeline.discard(review.app_name)

    def installed_apps(self) -> list[str]:
        return sorted(self.rule_recorder.rulesets)

    # ------------------------------------------------------------------
    # Backward-compatibility audit (paper §VIII-D.3)

    def audit_existing(
        self, apps: list[str] | None = None
    ) -> list[InstallReview]:
        """Re-run detection for apps installed *before* HomeGuard was
        deployed, by replaying their recorded configuration payloads in
        installation order.  Each review covers one app against all the
        others, so the union covers every installed pair.  ``apps``
        restricts the replay; an audit replay carries no keep/delete
        decision — staged signatures are dropped, the apps stay
        installed as-is."""
        wanted = None if apps is None else set(apps)
        reviews: list[InstallReview] = []
        for app_name in self.installed_apps():
            if wanted is not None and app_name not in wanted:
                continue
            payload = self.config_recorder.config_of(app_name)
            if payload is None:
                continue
            review = self.review_installation(payload)
            self.pipeline.discard(app_name)
            reviews.append(review)
        return reviews

    # ------------------------------------------------------------------
    # Runtime interference monitor (DESIGN.md §16)

    def _monitor_state(self) -> dict:
        """The monitor's persisted bookkeeping inside the frontend
        blob: recent batch dedup keys and the per-threat watch-start
        timestamps (event time)."""
        state = self.frontend_state.setdefault("monitor", {})
        if not isinstance(state.get("batches"), list):
            state["batches"] = []
        if not isinstance(state.get("watch"), dict):
            state["watch"] = {}
        return state

    def _kept_threats(self) -> list[Threat]:
        """The threats worth watching at runtime: predictions the
        tenant accepted (kept installs) — exactly the risk the static
        pass priced and the user (or policy) chose to live with."""
        threats: list[Threat] = []
        for review in self.reviews:
            if review.decision == InstallDecision.KEEP.value:
                threats.extend(review.threats)
                threats.extend(review.chains)
        return threats

    def monitor_engine(self) -> MonitorEngine:
        """The home's monitor, built lazily (seeded with every ledger
        key, so a rebuilt engine can never re-emit a persisted
        observation) and recompiled when the kept-threat set changed."""
        if self.monitor is None:
            ledger = self.frontend_state.get("observations", [])
            seen = [
                str(entry.get("key"))
                for entry in ledger
                if isinstance(entry, dict) and entry.get("key")
            ]
            self.monitor = MonitorEngine(self.home_id, seen=seen)
            self._monitor_stale = True
        if self._monitor_stale:
            devices = {
                app_name: dict(payload.devices)
                for app_name, payload in self.config_recorder.payloads.items()
            }
            confirmations = compile_confirmations(
                self._kept_threats(), devices, window=self.monitor_window
            )
            self.monitor.set_rules(
                [*confirmations, *default_anomaly_rules()]
            )
            watch = self._monitor_state()["watch"]
            for rule in confirmations:
                watch.setdefault(rule.threat_key, self.monitor.now())
            self._monitor_stale = False
        return self.monitor

    @staticmethod
    def _batch_key(events: list[Event]) -> str:
        """Content-addressed identity of one ingestion batch: the
        dedup fallback when the client did not supply a ``batch_id``."""
        canonical = json.dumps(
            [
                [e.subject, e.name, str(e.value), e.timestamp]
                for e in events
            ],
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def ingest_events(
        self, events: Iterable[Event], batch_id: str = ""
    ) -> list[Observation]:
        """Run a batch of runtime events through the monitor.

        Returns the *new* observations the batch produced, appends them
        to the persisted ledger, and records the batch's dedup key: a
        retried batch (same ``batch_id``, or same content) returns the
        original observations byte-identically and re-attempts
        persistence instead of double-counting — the exactly-once
        contract under transport retries and store-append faults."""
        events = list(events)
        engine = self.monitor_engine()
        state = self._monitor_state()
        key = batch_id or self._batch_key(events)
        for recorded_key, observation_keys in state["batches"]:
            if recorded_key == key:
                by_key = {
                    entry.get("key"): entry
                    for entry in self.frontend_state.get("observations", [])
                    if isinstance(entry, dict)
                }
                replayed = [
                    Observation.from_json(by_key[obs_key])
                    for obs_key in observation_keys
                    if obs_key in by_key
                ]
                # The original attempt may have died before its store
                # commit landed; persisting again is idempotent.
                self._commit_monitor_store()
                return replayed
        fresh = engine.ingest_batch(events)
        ledger = self.frontend_state.setdefault("observations", [])
        ledger.extend(observation.to_json() for observation in fresh)
        state["batches"].append([key, [o.key for o in fresh]])
        del state["batches"][: -self.monitor_batch_memory]
        stats = self.pipeline.stats
        stats.monitor_events += len(events)
        stats.monitor_observations += len(fresh)
        for observation in fresh:
            if observation.kind == KIND_CONFIRMED:
                stats.threats_confirmed += 1
            elif observation.kind == KIND_CONTRADICTED:
                stats.threats_contradicted += 1
            else:
                stats.anomalies_flagged += 1
        self._commit_monitor_store()
        return fresh

    def observations(self) -> list[Observation]:
        """The home's full persisted observation ledger, oldest first."""
        return [
            Observation.from_json(entry)
            for entry in self.frontend_state.get("observations", [])
            if isinstance(entry, dict)
        ]

    def evidence(self) -> dict[str, ThreatEvidence]:
        """What the monitor knows per predicted threat — the view the
        evidence-aware handling policies consume.  Built straight from
        persisted state, so it is correct even before (or without) a
        live monitor engine."""
        counts: dict[str, list[int]] = {}
        latest = 0.0
        for entry in self.frontend_state.get("observations", []):
            if not isinstance(entry, dict):
                continue
            latest = max(latest, float(entry.get("timestamp", 0.0) or 0.0))
            key = str(entry.get("threat_key") or "")
            if not key:
                continue
            tally = counts.setdefault(key, [0, 0])
            if entry.get("kind") == KIND_CONFIRMED:
                tally[0] += 1
            elif entry.get("kind") == KIND_CONTRADICTED:
                tally[1] += 1
        monitor_state = self.frontend_state.get("monitor", {})
        watch = (
            monitor_state.get("watch", {})
            if isinstance(monitor_state, dict)
            else {}
        )
        if self.monitor is not None:
            latest = max(latest, self.monitor.now())
        evidence: dict[str, ThreatEvidence] = {}
        for key in set(counts) | set(watch):
            confirmed, contradicted = counts.get(key, (0, 0))
            started = watch.get(key)
            watched = (
                max(0.0, latest - float(started))
                if isinstance(started, (int, float))
                else 0.0
            )
            evidence[key] = ThreatEvidence(
                confirmed=confirmed,
                contradicted=contradicted,
                watch_seconds=watched,
            )
        return evidence

    def _commit_monitor_store(self) -> None:
        """Persist the observation ledger as one frontend-only journal
        record — O(blob), never a shard rewrite (DESIGN.md §16)."""
        if self.store is None:
            return
        self._account_store(
            self.store.commit_frontend(
                self.pipeline,
                self._frontend_blob(),
                rulesets=self.rule_recorder.rulesets,
            )
        )

    # ------------------------------------------------------------------
    # Persistence (save-on-commit / load-on-startup, DESIGN.md §8)

    def _threat_restorable(self, threat: Threat) -> bool:
        """Whether a persisted record of this threat could be rebuilt on
        load: every rule it mentions must belong to a recorded app."""
        apps = {threat.rule_a.app_name, threat.rule_b.app_name}
        apps.update(rule.app_name for rule in threat.chain)
        return all(app in self.rule_recorder.rulesets for app in apps)

    def _review_entry(self, review: InstallReview) -> dict:
        """One review as its persisted frontend-blob entry.  The
        ``decided_by`` key appears only for policy-decided reviews (a
        user decision carries no provenance)."""
        entry = {
            "app": review.app_name,
            "rules": list(review.rules),
            "decision": review.decision,
        }
        if review.decided_by is not None:
            entry["decided_by"] = review.decided_by
        entry["threats"] = [
            _threat_record(t)
            for t in review.threats
            if self._threat_restorable(t)
        ]
        entry["chains"] = [
            _threat_record(t)
            for t in review.chains
            if self._threat_restorable(t)
        ]
        return entry

    def _frontend_blob(self) -> dict:
        """The opaque frontend blob persisted with every snapshot and
        every journal record: recorded payloads, device types, Allowed
        list, review/decision history, and the facade's extra state."""
        return {
            "payloads": [
                {
                    "app": payload.app_name,
                    "devices": dict(payload.devices),
                    "values": dict(payload.values),
                }
                for payload in self.config_recorder.payloads.values()
            ],
            "device_types": dict(self.config_recorder.device_types),
            "allowed": [
                [threat.type.value, threat.rule_a.rule_id,
                 threat.rule_b.rule_id]
                for threat in self.allowed.pairs
            ],
            # Review/decision history: every install screen shown so
            # far, with the one-time decision (and the deciding policy,
            # when one decided automatically) — the provenance of the
            # Allowed list and of each kept app.  Survives warm
            # restarts (the past is re-rendered, not re-detected).
            # Threat records referencing apps whose rules are no longer
            # recorded (deleted apps) could never be reconstructed on
            # load, so they are pruned here instead of being carried as
            # dead weight in every snapshot; the review entry itself —
            # app, rendered rules, decision — always persists.
            "reviews": [
                self._review_entry(review) for review in self.reviews
            ],
            "extra": self.frontend_state,
        }

    def save_store(self) -> None:
        """Snapshot detection state + recorders to the configured store
        as a full base rewrite (a no-op without a ``store_path``)."""
        if self.store is None:
            return
        started = time.perf_counter()
        written = self.store.save(
            self.pipeline,
            rulesets=self.rule_recorder.rulesets,
            frontend=self._frontend_blob(),
        )
        self._account_store(
            StoreCommit(written, time.perf_counter() - started, full=True)
        )

    def _commit_store(self, app_name: str, remove: bool = False) -> None:
        """Durably record one decision — the delta path: O(changed app)
        journal append instead of a full snapshot rewrite (a no-op
        without a ``store_path``)."""
        if self.store is None:
            return
        self._account_store(
            self.store.commit_app(
                self.pipeline,
                app_name,
                rulesets=self.rule_recorder.rulesets,
                frontend=self._frontend_blob(),
                remove=remove,
            )
        )

    def _account_store(self, receipt: StoreCommit) -> None:
        """Fold one durable write into the store-cost counters."""
        stats = self.pipeline.stats
        stats.store_bytes_written += receipt.bytes_written
        stats.store_commit_seconds += receipt.seconds

    def load_store(self) -> list[str]:
        """Warm-start this home from the persisted store.

        Restores the configuration recorder, rule recorder, Allowed
        list and registered home devices, then loads the pipeline:
        fingerprint-validated apps come back without a single solver
        call; apps whose recorded bindings changed since the snapshot
        are transparently re-reviewed (their fresh reviews are appended
        like any install).  Returns the restored app names; with no /
        an unusable store nothing changes and the list is empty."""
        if self.store is None:
            return []
        snapshot = self.store.load()
        if snapshot is None:
            return []
        frontend = (
            snapshot.frontend if isinstance(snapshot.frontend, dict) else {}
        )
        # Configuration first: the recorder *is* the pipeline's resolver,
        # so identities must be in place before any re-signing happens.
        # Malformed entries are skipped (the app then restores as stale
        # or not at all — degraded, never a crash).
        for entry in frontend.get("payloads", []):
            try:
                self.config_recorder.record(
                    ConfigPayload(
                        app_name=entry["app"],
                        devices=dict(entry.get("devices", {})),
                        values=dict(entry.get("values", {})),
                    )
                )
            except (TypeError, KeyError, ValueError):
                continue
        device_types = frontend.get("device_types", {})
        if isinstance(device_types, dict):
            self.config_recorder.device_types.update(device_types)
        extra = frontend.get("extra", {})
        self.frontend_state = dict(extra) if isinstance(extra, dict) else {}
        rulesets = snapshot.rulesets()
        result = self.store.restore_into(
            self.pipeline, list(rulesets.values()), snapshot=snapshot
        )
        for ruleset in rulesets.values():
            self.rule_recorder.record(ruleset)
        rules_by_id = {
            rule.rule_id: rule
            for ruleset in rulesets.values()
            for rule in ruleset.rules
        }
        for entry in frontend.get("allowed", []):
            try:
                type_value, id_a, id_b = entry
                threat_type = ThreatType(type_value)
            except (TypeError, ValueError):
                continue
            rule_a, rule_b = rules_by_id.get(id_a), rules_by_id.get(id_b)
            if rule_a is not None and rule_b is not None:
                self.allowed.add(
                    Threat(type=threat_type, rule_a=rule_a, rule_b=rule_b)
                )
        # Replay the persisted review/decision history so past install
        # screens re-render after a warm restart.  Threats mentioning
        # rules that did not restore are dropped from their review;
        # malformed review entries are skipped entirely.
        for entry in frontend.get("reviews", []):
            try:
                review = InstallReview(
                    app_name=str(entry["app"]),
                    rules=[str(rule) for rule in entry.get("rules", [])],
                    decision=(
                        str(entry["decision"])
                        if entry.get("decision") is not None
                        else None
                    ),
                    decided_by=(
                        str(entry["decided_by"])
                        if entry.get("decided_by") is not None
                        else None
                    ),
                )
            except (TypeError, KeyError, ValueError):
                continue
            for kind, into in (
                ("threats", review.threats),
                ("chains", review.chains),
            ):
                for record in entry.get(kind, []):
                    threat = _threat_from_record(record, rules_by_id)
                    if threat is not None:
                        into.append(threat)
            self.reviews.append(review)
        # Binding changes surface as fresh reviews, exactly like a
        # re-sent configuration payload would.
        for report in result.reports:
            ruleset = rulesets.get(report.app_name)
            self.reviews.append(
                InstallReview(
                    app_name=report.app_name,
                    rules=[describe_rule(r) for r in ruleset.rules]
                    if ruleset else [],
                    threats=report.threats,
                    chains=find_chains(report.threats, self.allowed),
                )
            )
        # Registered home devices came back with the frontend blob;
        # rebuild the label registry so future installs keep resolving.
        home_devices = self.frontend_state.get("home_devices", {})
        if isinstance(home_devices, dict):
            for label, entry in home_devices.items():
                try:
                    self.home_devices[label] = InstalledDevice(
                        device_id=entry["device_id"],
                        label=label,
                        type_name=entry["type"],
                    )
                except (TypeError, KeyError):
                    continue  # malformed entry: that label won't resolve
        return result.warm_apps + result.stale_apps
