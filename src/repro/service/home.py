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
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.capabilities.devices import DEVICE_TYPES, make_device_id
from repro.config.messaging import MessageRecord
from repro.config.recorder import ConfigRecorder, RuleRecorder
from repro.config.uri import ConfigPayload, decode_uri
from repro.detector.chains import AllowedList, find_chains
from repro.detector.pipeline import DetectionPipeline
from repro.detector.store import DetectionStore, FrontendDelta, StoreCommit
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
from repro.service.errors import InvalidRequestError

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


def _payload_entry(payload: ConfigPayload) -> dict:
    return {
        "app": payload.app_name,
        "devices": dict(payload.devices),
        "values": dict(payload.values),
    }


def _allowed_record(threat: Threat) -> list:
    return [threat.type.value, threat.rule_a.rule_id, threat.rule_b.rule_id]


def _threat_apps(threat: Threat) -> set[str]:
    """Every app a threat's rules belong to."""
    apps = {threat.rule_a.app_name, threat.rule_b.app_name}
    apps.update(rule.app_name for rule in threat.chain)
    return apps


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
        # The blob's ``extra`` sections: registered home devices, the
        # monitor's bookkeeping and its observation ledger.
        self.frontend_state: dict = {}
        self._pending: list[ConfigPayload] = []
        # Runtime interference monitor (DESIGN.md §16), built lazily on
        # first ingestion and recompiled after every install decision.
        # Window state is transient; the observation ledger (and its
        # dedup keys) persists in the frontend blob, so eviction or a
        # restart can never double-count an observation.
        self.monitor: MonitorEngine | None = None
        self._monitor_stale = True
        # Running views of the ledger, updated on ingest and rebuilt on
        # load: per-threat [confirmed, contradicted] counts, the latest
        # observation time, and batch key -> ledger positions of the
        # batch's observations (the retry lookup).
        self._tallies: dict[str, list[int]] = {}
        self._latest = 0.0
        self._batch_index: dict[str, Iterable[int]] = {}
        # What the next commit journals: the frontend ops the mutations
        # since the last durable commit queued, and the indices of
        # reviews whose entries changed (rendered at commit time).  A
        # ``None`` queue means no durable baseline: the next commit is
        # a full save.  Detection-state changes need no queue — the
        # store diffs the pipeline itself.
        self._ops: list | None = None
        self._dirty_reviews: set[int] = set()

    # ------------------------------------------------------------------
    # Home devices

    def register_device(self, label: str, type_name: str) -> InstalledDevice:
        """Register (or re-type) a physical device under a home-unique
        label.  Device ids are deterministic per label, so the same
        home described twice binds the same identities.  An unknown
        device type raises :class:`InvalidRequestError`."""
        if type_name not in DEVICE_TYPES:
            raise InvalidRequestError(
                f"unknown device type {type_name!r}",
                label=label, type=type_name,
            )
        device = InstalledDevice(
            device_id=make_device_id(f"hg:{label}"),
            label=label,
            type_name=type_name,
        )
        self.home_devices[label] = device
        # Ride along with the snapshots so labels keep resolving after
        # a warm restart.
        entry = {"device_id": device.device_id, "type": device.type_name}
        self.frontend_state.setdefault("home_devices", {})[label] = entry
        self._journal(["put", "home_devices", label, entry])
        return device

    def bind_inputs(
        self, devices: Mapping[str, str] | None
    ) -> tuple[dict[str, str], dict[str, str]]:
        """Resolve an install request's device inputs against the home.

        Each value is a registered device *label*, or a bare device
        type name — a device of that type is auto-registered on first
        use.  Returns ``(input -> device id, device id -> type)``.  A
        value that is neither raises :class:`InvalidRequestError` before
        anything is registered, leaving the home unchanged."""
        devices = devices or {}
        for input_name, type_or_label in devices.items():
            if (
                type_or_label not in self.home_devices
                and type_or_label not in DEVICE_TYPES
            ):
                raise InvalidRequestError(
                    f"device {type_or_label!r} for input {input_name!r} "
                    "is neither a registered label nor a device type",
                    input=input_name, device=type_or_label,
                )
        bound: dict[str, str] = {}
        types: dict[str, str] = {}
        for input_name, type_or_label in devices.items():
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
        retyped = {
            device_id: type_name
            for device_id, type_name in (device_types or {}).items()
            if self.config_recorder.device_types.get(device_id) != type_name
        }
        self.config_recorder.record(payload, device_types)
        entry = _payload_entry(payload)
        if previous is None or json.dumps(
            _payload_entry(previous), default=str
        ) != json.dumps(entry, default=str):
            self._journal(["put", "payloads", payload.app_name, entry])
        self._journal(*(
            ["put", "device_types", device_id, type_name]
            for device_id, type_name in retyped.items()
        ))
        stale = [payload.app_name] if previous != payload or retyped else []
        if retyped:
            # Device types are home-global: re-typing a device changes
            # the signatures of every installed app bound to it.
            stale += [
                app_name
                for app_name, recorded in self.config_recorder.payloads.items()
                if app_name != payload.app_name
                and retyped.keys() & set(recorded.devices.values())
            ]
        for app_name in stale:
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
        self._dirty_reviews.add(len(self.reviews) - 1)
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
        self._dirty_reviews.update(
            index for index, shown in enumerate(self.reviews)
            if shown is review
        )
        # Any decision can change the kept-threat set the monitor
        # watches; recompile its confirmation rules on next ingestion.
        self._monitor_stale = True
        app_name = review.app_name
        recorded = app_name in self.rule_recorder.rulesets
        if decision is InstallDecision.KEEP:
            ruleset = self._resolve_ruleset(app_name)
            self.rule_recorder.record(ruleset)
            if not recorded:
                self._mark_reviews_naming(app_name)
            self.pipeline.commit(app_name, ruleset)
            # Accepted pairs join the Allowed list for chained detection
            # (paper §VI-D), replacing the app's earlier ones: the
            # list holds each pair once, as the latest review saw it.
            self._disallow(app_name)
            allowed = len(self.allowed.pairs)
            self.allowed.add_all(review.threats)
            added = [_allowed_record(t) for t in self.allowed.pairs[allowed:]]
            if added:
                self._journal(["allow", added])
            self._commit_store(app_name)
        elif decision is InstallDecision.DELETE:
            # A chain through an uninstalled rule cannot fire.
            self._disallow(app_name)
            self.rule_recorder.forget(app_name)
            if recorded:
                self._mark_reviews_naming(app_name)
            if app_name in self.config_recorder.payloads:
                if self._ops is not None:
                    # Its queued puts would only land to be dropped.
                    self._ops[:] = [
                        op for op in self._ops
                        if op[:3] != ["put", "payloads", app_name]
                    ]
                self._journal(["drop", "payloads", app_name])
            self.config_recorder.forget(app_name)
            self.pipeline.discard(app_name)
            self.pipeline.remove_ruleset(app_name)
            self._commit_store(app_name, remove=True)
        else:
            # RECONFIGURE keeps nothing: the app will send a fresh
            # payload after the user updates its settings.
            self.pipeline.discard(app_name)

    def _disallow(self, app_name: str) -> None:
        """Drop every Allowed pair naming ``app_name``."""
        if self.allowed.disallow(app_name):
            self._journal(["disallow", app_name])

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
        installed as-is, and the reviews are returned, not added to the
        review history (which holds install screens and their
        decisions)."""
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
            # Kept, every audit would grow the history and the store.
            self.reviews.pop()
            self._dirty_reviews.discard(len(self.reviews))
            reviews.append(review)
        return reviews

    # ------------------------------------------------------------------
    # Runtime interference monitor (DESIGN.md §16)

    def _monitor_state(self) -> dict:
        """The monitor's persisted bookkeeping inside the frontend
        blob: recent batch dedup keys and the per-threat watch-start
        timestamps (event time)."""
        state = self.frontend_state.setdefault("monitor", {})
        for name, empty in (("batches", []), ("watch", {})):
            if not isinstance(state.get(name), type(empty)):
                if name in state:
                    # Repairing a malformed persisted value is no op
                    # the journal can express: resync with a full save.
                    self._ops = None
                state[name] = empty
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
        state = self._monitor_state()
        watch, watched = state["watch"], len(state["watch"])
        engine = self.monitor_engine()
        key = batch_id or self._batch_key(events)
        positions = self._batch_index.get(key)
        change: dict = {}
        if positions is not None:
            ledger = self.frontend_state["observations"]
            observations = [
                Observation.from_json(ledger[position])
                for position in positions
            ]
        else:
            observations = engine.ingest_batch(events)
            created = "observations" not in self.frontend_state
            ledger = self.frontend_state.setdefault("observations", [])
            start = len(ledger)
            ledger.extend(o.to_json() for o in observations)
            for entry in ledger[start:]:
                self._tally(entry)
            if observations or created:
                change["observations"] = ledger[start:]
            record = [key, [o.key for o in observations]]
            batches = state["batches"]
            batches.append(record)
            self._batch_index[key] = range(start, len(ledger))
            for evicted, _ in batches[: -self.monitor_batch_memory]:
                self._batch_index.pop(evicted, None)
            del batches[: -self.monitor_batch_memory]
            change["batches"] = [record]
            change["memory"] = self.monitor_batch_memory
            stats = self.pipeline.stats
            stats.monitor_events += len(events)
            stats.monitor_observations += len(observations)
            for observation in observations:
                if observation.kind == KIND_CONFIRMED:
                    stats.threats_confirmed += 1
                elif observation.kind == KIND_CONTRADICTED:
                    stats.threats_contradicted += 1
                else:
                    stats.anomalies_flagged += 1
        if len(watch) > watched:
            change["watch"] = dict(islice(watch.items(), watched, None))
        if change:
            self._journal(["monitor", change])
        # A retried batch's first attempt may have died before its
        # store commit landed; committing again journals whatever of it
        # is not durable yet.
        self.flush_store()
        return observations

    def observations(self) -> list[Observation]:
        """The home's full persisted observation ledger, oldest first."""
        return [
            Observation.from_json(entry)
            for entry in self.frontend_state.get("observations", [])
            if isinstance(entry, dict)
        ]

    def evidence(self) -> dict[str, ThreatEvidence]:
        """What the monitor knows per predicted threat — the view the
        evidence-aware handling policies consume.  Built from the
        running ledger tallies (rebuilt from persisted state on load),
        so it is correct even before (or without) a live monitor
        engine."""
        counts = self._tallies
        latest = self._latest
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

    def _tally(self, entry) -> None:
        """Fold one ledger entry into the running evidence views."""
        if not isinstance(entry, dict):
            return
        try:
            timestamp = float(entry.get("timestamp", 0.0) or 0.0)
        except (TypeError, ValueError):
            timestamp = 0.0  # malformed persisted entry: no time
        self._latest = max(self._latest, timestamp)
        key = str(entry.get("threat_key") or "")
        if not key:
            return
        tally = self._tallies.setdefault(key, [0, 0])
        if entry.get("kind") == KIND_CONFIRMED:
            tally[0] += 1
        elif entry.get("kind") == KIND_CONTRADICTED:
            tally[1] += 1

    def _index_ledger(self) -> None:
        """Rebuild the running evidence views and the batch retry
        index from the persisted ledger (after a load)."""
        self._tallies = {}
        self._latest = 0.0
        self._batch_index = {}
        ledger = self.frontend_state.get("observations", [])
        if not isinstance(ledger, list):
            return
        position_of: dict = {}
        for position, entry in enumerate(ledger):
            self._tally(entry)
            if isinstance(entry, dict):
                position_of[entry.get("key")] = position
        monitor_state = self.frontend_state.get("monitor", {})
        batches = (
            monitor_state.get("batches")
            if isinstance(monitor_state, dict)
            else None
        )
        for record in batches if isinstance(batches, list) else []:
            try:
                key, observation_keys = record
                self._batch_index.setdefault(key, [
                    position_of[obs_key]
                    for obs_key in observation_keys
                    if obs_key in position_of
                ])
            except (TypeError, ValueError):
                continue  # malformed batch record: never matches

    def flush_store(self) -> None:
        """Commit what is not durable yet as one frontend-only journal
        record — O(change), never a shard rewrite (DESIGN.md §16): after
        every monitor batch, before eviction and at service close.  A
        home with no baseline writes a full save, unless it holds no
        state at all (then a store an earlier process left stays as it
        is)."""
        if self._ops is None:
            pending = self.reviews or self.frontend_state
        else:
            pending = self._ops or self._dirty_reviews
        if self.store is None or not pending:
            return
        self._account_store(
            self.store.commit_frontend(
                self.pipeline,
                self._frontend_delta(),
                rulesets=self.rule_recorder.rulesets,
            )
        )

    # ------------------------------------------------------------------
    # Persistence (save-on-commit / load-on-startup, DESIGN.md §8)

    def _review_entry(self, review: InstallReview) -> dict:
        """One review as its persisted frontend-blob entry.  The
        ``decided_by`` key appears only for policy-decided reviews (a
        user decision carries no provenance).  A threat record is kept
        only if load could rebuild it: every rule it mentions belongs
        to a recorded app."""
        recorded = self.rule_recorder.rulesets.keys()
        entry = {
            "app": review.app_name,
            "rules": list(review.rules),
            "decision": review.decision,
        }
        if review.decided_by is not None:
            entry["decided_by"] = review.decided_by
        for kind, threats in (
            ("threats", review.threats), ("chains", review.chains),
        ):
            entry[kind] = [
                _threat_record(t) for t in threats
                if _threat_apps(t) <= recorded
            ]
        return entry

    def _frontend_blob(self) -> dict:
        """The whole frontend blob, written by full saves (seed,
        compaction); commits journal its changes
        (:meth:`_frontend_delta`).  Recorded payloads, device types,
        Allowed list, review/decision history, and the facade's extra
        state."""
        return {
            "payloads": [
                _payload_entry(payload)
                for payload in self.config_recorder.payloads.values()
            ],
            "device_types": dict(self.config_recorder.device_types),
            "allowed": [
                _allowed_record(threat) for threat in self.allowed.pairs
            ],
            # Review/decision history: every install screen shown so
            # far, with the one-time decision (and the deciding policy)
            # — the provenance of the Allowed list and of each kept app,
            # re-rendered, not re-detected, after a warm restart.
            "reviews": [
                self._review_entry(review) for review in self.reviews
            ],
            "extra": self.frontend_state,
        }

    def _journal(self, *ops: list) -> None:
        """Queue frontend ops for the next commit (unless it is full)."""
        if self._ops is not None:
            self._ops.extend(ops)

    def _mark_reviews_naming(self, app_name: str) -> None:
        """Mark the reviews with a threat naming ``app_name``, just
        recorded or dropped: entries prune unrecorded apps' threats."""
        if self._ops is not None:  # else the next commit renders all
            self._dirty_reviews.update(
                index
                for index, review in enumerate(self.reviews)
                if any(
                    app_name in _threat_apps(threat)
                    for threat in (*review.threats, *review.chains)
                )
            )

    def _synced(self) -> None:
        """All of the live state is durable (a full save, a load)."""
        self._ops = []
        self._dirty_reviews.clear()

    def _frontend_delta(self) -> FrontendDelta:
        """This commit's frontend change: the queued ops, then the
        dirty reviews rendered in index order — O(change).  With no
        baseline (a ``None`` queue) it asks for a full save instead."""
        queue = self._ops
        if queue is None:
            return FrontendDelta(None, self._frontend_blob, self._synced)
        landed = len(queue)
        rendered = sorted(self._dirty_reviews)
        ops = queue + [
            ["review", index, self._review_entry(self.reviews[index])]
            for index in rendered
        ]

        def on_durable() -> None:
            # Runs again after a compaction that followed the append:
            # only the first call drops the prefix that landed.
            nonlocal landed
            del queue[:landed]
            landed = 0
            self._dirty_reviews.difference_update(rendered)

        return FrontendDelta(ops, self._frontend_blob, on_durable)

    def _commit_store(self, app_name: str, remove: bool = False) -> None:
        """Durably record one decision — the delta path: one journal
        record with the app's detection delta and the frontend ops,
        instead of a full snapshot rewrite (a no-op without a
        ``store_path``)."""
        if self.store is None:
            return
        self._account_store(
            self.store.commit_app(
                self.pipeline,
                app_name,
                rulesets=self.rule_recorder.rulesets,
                frontend=self._frontend_delta(),
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
        self._index_ledger()
        # The store holds exactly the live frontend unless the load
        # changed something (stale apps re-reviewed, malformed entries
        # skipped, or state that was here before): then the next
        # commit is a full save.
        if json.dumps(self._frontend_blob(), default=str) == json.dumps(
            frontend, default=str
        ):
            self._synced()
        else:
            self._ops = None
        return result.warm_apps + result.stale_apps
