"""The multi-tenant HomeGuard service façade (DESIGN.md §11).

:class:`HomeGuardService` is the canonical public API: N tenant homes
served over **one** shared backend rule extractor (the offline phase
runs once per app, not once per home), **one** shared
:class:`~repro.constraints.dispatch.SolverDispatcher` (a single worker
pool absorbs every home's solve batches), and one shared capability
registry — with per-home :class:`~repro.detector.store.DetectionStore`
directories under a common store root, so each home's snapshot is
byte-identical to what a dedicated single-home deployment would have
written.

Tenants speak the typed wire schemas of :mod:`repro.service.schemas`
(``InstallRequest`` in, ``InstallSession``/``ThreatReport`` out,
:class:`~repro.service.errors.ServiceError` on failure) and configure
threat *handling* per home via :mod:`repro.service.policies` — the
default :class:`~repro.service.policies.InteractivePolicy` reproduces
the paper's one-time user decision, while ``AutoDenyPolicy`` /
``SeverityThresholdPolicy`` / ``ChainedPolicy`` handle threats without
a human in the loop.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterable

from repro.capabilities import registry as capability_registry
from repro.config.messaging import Transport
from repro.config.uri import ConfigPayload
from repro.constraints.dispatch import SolverDispatcher, make_dispatcher
from repro.constraints.solvecache import SolveCacheBackend, make_solve_cache
from repro.corpus.model import CorpusApp
from repro.detector.storage import (
    SQLITE_STORE_FILE,
    SQLiteStoreBackend,
    make_store_backend,
)
from repro.rules.extractor import ExtractionError, RuleExtractor
from repro.rules.model import RuleSet
from repro.service.errors import (
    DuplicateHomeError,
    InvalidRequestError,
    SessionDecidedError,
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
from repro.service.policies import HandlingPolicy, InteractivePolicy
from repro.service.schemas import (
    SESSION_DECIDED,
    SESSION_PENDING,
    AuditRequest,
    DecisionRequest,
    DetectionStatsRecord,
    InstallRequest,
    InstallSession,
    MonitorEventRequest,
    ObservationRecord,
    ThreatReport,
)


class _LiveSession:
    """Service-side session state: the wire view plus the live review
    the one-time decision will be applied to.  ``review`` and ``home``
    are dropped once the session is decided — only pending sessions
    need the live threat/rule object graph (and only they pin their
    home resident, see :meth:`HomeGuardService._evictable`); a
    long-running service must not hold one per install forever."""

    __slots__ = ("wire", "review", "home")

    def __init__(
        self,
        wire: InstallSession,
        review: InstallReview | None,
        home: TenantHome | None,
    ) -> None:
        self.wire = wire
        self.review = review
        self.home = home


class _HomeRecord:
    """Registry entry for one created home: everything needed to
    re-hydrate an evicted :class:`TenantHome` from its store."""

    __slots__ = ("store_path", "policy", "store_backend")

    def __init__(self, store_path, policy, store_backend) -> None:
        self.store_path = store_path
        self.policy = policy
        self.store_backend = store_backend


class HomeGuardService:
    """Serve CAI detection and threat handling for many tenant homes.

    Parameters
    ----------
    extractor:
        The shared backend :class:`RuleExtractor` (one offline
        extraction serves every home).  A fresh one by default.
    workers:
        The shared solver-dispatch setting, as accepted by
        :func:`~repro.constraints.dispatch.make_dispatcher` (``"auto"``
        by default; ``None`` = inline solves).  One dispatcher instance
        is created here and shared by every home's pipeline — with a
        pooled backend, one worker pool absorbs the whole fleet's solve
        batches.
    store_root:
        Optional directory; each created home persists to
        ``store_root/<home_id>`` (save-on-commit, DESIGN.md §8).  A
        home can also pin an explicit ``store_path``.
    policy:
        The default :class:`HandlingPolicy` for homes that don't set
        their own (:class:`InteractivePolicy` if omitted).
    solve_cache:
        Optional shared cross-tenant solve cache (DESIGN.md §12), as
        accepted by :func:`~repro.constraints.solvecache
        .make_solve_cache`: a backend instance, ``"lru[:N]"``,
        ``"sqlite:<path>"``, or ``None`` (the default — no sharing).
        One backend is created here and consulted by every home's
        engine, so a formula any tenant solved is never solved again
        fleet-wide; verdicts are keyed by content-addressed formula
        fingerprints, never by rule source or home identity.
    store_backend:
        Storage engine for the per-home detection stores (DESIGN.md
        §14): ``None``/``"dir"`` for the directory-of-JSON layout,
        ``"sqlite"`` to pack the whole fleet into one WAL-mode
        database under ``store_root`` (``store_root/store.sqlite``;
        every home gets a key-namespace view over one shared
        connection), ``"sqlite:<file>"`` to name the database
        explicitly, or a :class:`~repro.detector.storage
        .SQLiteStoreBackend` instance to share with another
        controller.  Any other backend instance is refused with
        ``ValueError``: it cannot give each home its own namespace.
    max_resident_homes:
        Optional bound on *resident* tenant homes (lazy shard
        loading, DESIGN.md §14).  Created homes are registered
        durably; beyond the bound the least-recently-used home with a
        store is evicted from memory (after a flush of its changes
        not yet durable) and transparently re-hydrated from its store
        on next touch — exactly a warm restart, so threats, caches and
        store bytes are unchanged.  Homes without a store, homes with
        queued payloads, homes with pending sessions and homes whose
        flush failed are never evicted.  ``None`` (default) keeps every
        home resident.
    """

    #: Decided sessions kept queryable before the oldest are evicted
    #: (pending sessions are never evicted — they still await their
    #: one-time decision).  Bounds service memory under sustained
    #: install traffic.
    max_decided_sessions = 4096

    def __init__(
        self,
        extractor: RuleExtractor | None = None,
        workers: int | str | SolverDispatcher | None = "auto",
        store_root: str | Path | None = None,
        policy: HandlingPolicy | None = None,
        solve_cache: str | SolveCacheBackend | None = None,
        store_backend: "str | SQLiteStoreBackend | None" = None,
        max_resident_homes: int | None = None,
    ) -> None:
        self.store_root = None if store_root is None else Path(store_root)
        # One fleet-wide store database (when configured): every home
        # persists through a namespace view over this single backend —
        # one file, one connection, shareable across controllers.
        self._fleet_backend: SQLiteStoreBackend | None = None
        if isinstance(store_backend, SQLiteStoreBackend):
            self._fleet_backend = store_backend
        elif isinstance(store_backend, str):
            name, _, arg = store_backend.strip().partition(":")
            if name.lower() != "sqlite":
                # Every other spec resolves against each home's own
                # store path; check it now, not at the first home.
                make_store_backend(store_backend, "")
            elif arg:
                self._fleet_backend = SQLiteStoreBackend(Path(arg))
            elif self.store_root is not None:
                self._fleet_backend = SQLiteStoreBackend(
                    self.store_root / SQLITE_STORE_FILE
                )
            # else: the spec passes through per home (each home's
            # store_path gets its own database file).
        elif store_backend is not None:
            # One instance would be every home's store at once: only a
            # SQLite backend can hand each home its own namespace.
            raise ValueError(
                f"store_backend {store_backend!r} cannot be namespaced "
                "per home; pass None, 'dir', 'sqlite', 'sqlite:<path>' "
                "or a SQLiteStoreBackend instance"
            )
        self.extractor = extractor if extractor is not None else RuleExtractor()
        self.dispatcher = make_dispatcher(workers)
        self.solve_cache = make_solve_cache(solve_cache)
        self.default_policy = policy if policy is not None else InteractivePolicy()
        self.store_backend = store_backend
        self.max_resident_homes = max_resident_homes
        # The capability registry is process-global by design (paper
        # Appendix A); expose it so tenants introspect one shared
        # catalogue instead of importing module internals.
        self.capabilities = capability_registry
        # Every created home (durable identity) vs. the homes currently
        # *resident* in memory.  ``_homes`` doubles as the LRU: dicts
        # preserve insertion order, and a touch reinserts at the end.
        self._registry: dict[str, _HomeRecord] = {}
        self._homes: dict[str, TenantHome] = {}
        # home_id -> count of its pending (undecided) sessions; a home
        # with pending sessions is pinned resident (the live review
        # object graph cannot be re-hydrated from the store).
        self._pending_homes: dict[str, int] = {}
        self._sessions: dict[str, _LiveSession] = {}
        self._decided_order: list[str] = []
        self._session_seq = 0
        # app name -> (owner home_ids | None for public, source text).
        # Public entries come from preload()/extract(); owned entries
        # from custom-source installs — tenants outside the owner set
        # cannot install (or read the rules of) a custom app.  A home
        # that resubmits the byte-identical source joins the owners.
        self._sources: dict[str, tuple[set[str] | None, str]] = {}
        # Service-lifetime monitor totals (DESIGN.md §16).  Per-home
        # monitor counters live in each home's pipeline stats and reset
        # when the home is evicted; these accumulate the deltas at
        # ingest time, so the fleet-wide ``status`` view survives
        # eviction — the same pattern as the dispatcher's fault totals.
        self._monitor_events_total = 0
        self._monitor_observations_total = 0
        self._close_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Tenant home lifecycle

    def create_home(
        self,
        home_id: str,
        store_path: str | Path | None = None,
        policy: HandlingPolicy | None = None,
    ) -> TenantHome:
        """Register a tenant home and return its live state handle.

        ``store_path`` overrides the ``store_root/<home_id>`` default;
        ``policy`` overrides the service default for this home."""
        if not home_id:
            raise InvalidRequestError("home_id is empty")
        if home_id in self._registry:
            raise DuplicateHomeError(
                f"home {home_id!r} already exists", home_id=home_id
            )
        if store_path is None and self.store_root is not None:
            store_path = self.store_root / home_id
        record = _HomeRecord(
            store_path, policy, self._store_backend_for(home_id, store_path)
        )
        home = self._hydrate(home_id, record, load=False)
        self._registry[home_id] = record
        self._homes[home_id] = home
        self._evict_over_limit(keep=home_id)
        return home

    def _store_backend_for(self, home_id: str, store_path):
        """The storage-engine setting for one home: a namespace view of
        the fleet database when one is configured, the raw spec (e.g. a
        per-home ``"sqlite"``) otherwise."""
        if store_path is None:
            return None
        if self._fleet_backend is not None:
            return self._fleet_backend.namespace(home_id)
        return self.store_backend

    def _hydrate(
        self, home_id: str, record: _HomeRecord, load: bool
    ) -> TenantHome:
        """Build a live :class:`TenantHome` from its registry record,
        warm-starting it from its store when ``load`` is set (the
        eviction-recovery path — byte-equivalent to a warm restart)."""
        home = TenantHome(
            home_id,
            self.extractor,
            store_path=record.store_path,
            dispatcher=self.dispatcher,
            policy=record.policy,
            shared_cache=self.solve_cache,
            store_backend=record.store_backend,
        )
        if load and home.store is not None:
            home.load_store()
        return home

    def _evictable(self, home: TenantHome) -> bool:
        """Only homes whose whole state is re-hydratable may leave
        memory: a store to come back from, no queued payloads, and no
        pending sessions (their live reviews exist nowhere else)."""
        return (
            home.store is not None
            and not home._pending
            and not self._pending_homes.get(home.home_id)
        )

    def _evict_over_limit(self, keep: str | None = None) -> None:
        """Drop least-recently-used evictable homes, each flushed
        first, until the resident count honours ``max_resident_homes``
        (``keep`` is exempt: the home being touched right now must
        stay; a home whose flush failed counts as pinned)."""
        limit = self.max_resident_homes
        if limit is None:
            return
        limit = max(1, int(limit))
        while len(self._homes) > limit:
            for home_id, home in self._homes.items():
                if home_id == keep or not self._evictable(home):
                    continue
                try:
                    # A device registration or a RECONFIGURE's review
                    # may not be durable yet.
                    home.flush_store()
                except OSError:
                    continue
                del self._homes[home_id]
                break
            else:
                return  # every candidate is pinned; stay over bound

    def home(self, home_id: str) -> TenantHome:
        home = self._homes.get(home_id)
        if home is not None:
            if self.max_resident_homes is not None:
                # LRU touch: reinsert at the end of the resident order.
                del self._homes[home_id]
                self._homes[home_id] = home
            return home
        record = self._registry.get(home_id)
        if record is None:
            raise UnknownHomeError(
                f"no home {home_id!r}; create_home() it first",
                home_id=home_id,
            )
        home = self._hydrate(home_id, record, load=True)
        self._homes[home_id] = home
        self._evict_over_limit(keep=home_id)
        return home

    def homes(self) -> list[str]:
        return sorted(self._registry)

    def home_count(self) -> int:
        """Homes registered with the service (resident or not)."""
        return len(self._registry)

    def resident_count(self) -> int:
        """Homes currently hydrated in memory (≤ ``home_count()``;
        bounded by ``max_resident_homes`` when set)."""
        return len(self._homes)

    def remove_home(self, home_id: str) -> None:
        """Forget a home (its persisted store, if any, stays on disk);
        pending sessions for the home are dropped."""
        if home_id not in self._registry:
            raise UnknownHomeError(
                f"no home {home_id!r}; create_home() it first",
                home_id=home_id,
            )
        del self._registry[home_id]
        self._homes.pop(home_id, None)
        self._pending_homes.pop(home_id, None)
        self._sessions = {
            sid: live
            for sid, live in self._sessions.items()
            if live.wire.home_id != home_id
        }

    # ------------------------------------------------------------------
    # Shared offline phase

    def preload(self, apps: Iterable[CorpusApp]) -> None:
        """Extract rules for public-store apps ahead of time — once,
        for every tenant."""
        for app in apps:
            self.extractor.extract(app.source, app.name)
            self._sources[app.name] = (None, app.source)

    def extract(self, source: str, app_name: str) -> RuleSet:
        """Extract (and publish to every tenant) one app's rules."""
        ruleset = self.extractor.extract(source, app_name)
        self._sources[ruleset.app_name] = (None, source)
        return ruleset

    # ------------------------------------------------------------------
    # Devices and messaging

    def register_device(
        self, home_id: str, label: str, type_name: str
    ) -> InstalledDevice:
        return self.home(home_id).register_device(label, type_name)

    def connect_transport(self, home_id: str, transport: Transport) -> None:
        """Route a messaging transport's configuration URIs into the
        home's pending queue (paper §VII-B); process them with
        :meth:`review_pending`."""
        transport.connect(self.home(home_id).receive_message)

    def review_pending(
        self, home_id: str, device_types: dict[str, str] | None = None
    ) -> list[InstallSession]:
        """Turn queued configuration payloads into install sessions
        (each reviewed and run through the home's handling policy).

        Payloads naming an app the home cannot see — never extracted,
        or another tenant's custom app — raise
        :class:`~repro.service.errors.UnknownAppError`.  The offending
        payload is dropped and the rest of the queue stays intact;
        sessions already opened for earlier payloads of this call are
        listed in the error's ``details["opened_sessions"]`` (they
        remain queryable via :meth:`session` / :meth:`sessions`), so a
        caller never loses a session id to a later bad payload."""
        home = self.home(home_id)
        sessions: list[InstallSession] = []
        while home._pending:
            payload = home._pending.pop(0)
            try:
                self._check_visibility(home, payload.app_name)
                review = home.review_installation(payload, device_types)
            except (UnknownAppError, LookupError) as exc:
                raise UnknownAppError(
                    str(exc),
                    app_name=payload.app_name,
                    opened_sessions=[s.session_id for s in sessions],
                ) from exc
            sessions.append(self._open_session(home, review))
        return sessions

    # ------------------------------------------------------------------
    # Install / decide / audit

    @staticmethod
    def _rules_fingerprint(ruleset: RuleSet) -> str:
        from repro.rules.serialization import rule_to_json

        return json.dumps(
            [rule_to_json(rule) for rule in ruleset.rules],
            sort_keys=True, default=str,
        )

    def _unknown_app(self, app_name: str) -> UnknownAppError:
        return UnknownAppError(
            f"no rules for app {app_name!r}; preload() it or send the "
            "source with the request",
            app_name=app_name,
        )

    def _check_visibility(self, home: TenantHome, app_name: str) -> None:
        """Custom apps are private to the home(s) that submitted their
        source: another tenant naming one (without the source) gets the
        same UnknownAppError a nonexistent app would — no existence
        leak, and no reviewing tenant B against tenant A's rules."""
        owners = self._sources.get(app_name, (None,))[0]
        if owners is not None and home.home_id not in owners:
            raise self._unknown_app(app_name)

    def _ensure_rules(self, home: TenantHome, request: InstallRequest) -> None:
        existing = self.extractor.rules_of(request.app_name)
        if request.source is not None:
            record = self._sources.get(request.app_name)
            if record is not None:
                # Byte-identical resubmission (idempotent retries, or a
                # tenant who evidently has the source): the submitting
                # home joins the owner set, so its later no-source
                # requests (reconfigures, transport payloads) resolve.
                if record[1] == request.source:
                    if record[0] is not None:
                        record[0].add(home.home_id)
                    return
                raise InvalidRequestError(
                    f"app name {request.app_name!r} already names a "
                    "different app on this service; submit the custom "
                    "source under a unique name",
                    app_name=request.app_name,
                )
            try:
                if existing is None:
                    self.extractor.extract(request.source, request.app_name)
                    self._sources[request.app_name] = (
                        {home.home_id}, request.source,
                    )
                    return
                # The extractor was populated outside the service's
                # bookkeeping (e.g. a caller-supplied extractor with a
                # warm cache).  Extraction is deterministic, so compare
                # the loss-free rule serializations to tell an innocent
                # resubmission from a name collision.
                submitted = RuleExtractor().extract(
                    request.source, request.app_name
                )
            except ExtractionError as exc:
                raise InvalidRequestError(
                    f"cannot extract rules for {request.app_name!r}: {exc}",
                    app_name=request.app_name,
                ) from exc
            if self._rules_fingerprint(existing) != self._rules_fingerprint(
                submitted
            ):
                raise InvalidRequestError(
                    f"app name {request.app_name!r} already names a "
                    "different app on this service; submit the custom "
                    "source under a unique name",
                    app_name=request.app_name,
                )
            self._sources[request.app_name] = (None, request.source)
            return
        self._check_visibility(home, request.app_name)
        if existing is None and home.rule_recorder.rules_of(
            request.app_name
        ) is None:
            raise self._unknown_app(request.app_name)

    def install(self, request: InstallRequest) -> InstallSession:
        """Install an app into a tenant home.

        Binds the request's device inputs against the home's registry,
        records the configuration, runs detection against the home's
        installed history, and opens an install session.  The home's
        handling policy then either decides on the spot (session comes
        back ``decided``, with ``decided_by`` naming the policy) or
        defers to the tenant (``pending`` — answer with
        :meth:`decide`)."""
        home = self.home(request.home_id)
        self._ensure_rules(home, request)
        bound, types = home.bind_inputs(request.devices)
        payload = ConfigPayload(
            app_name=request.app_name,
            devices=bound,
            values={k: str(v) for k, v in request.values.items()},
        )
        review = home.review_installation(payload, device_types=types)
        return self._open_session(home, review)

    def _remember_decided(self, session_id: str) -> None:
        """Track a decided session for bounded retention: beyond
        ``max_decided_sessions`` the oldest decided sessions are
        evicted (later queries raise UnknownSessionError).  Pending
        sessions are never evicted."""
        self._decided_order.append(session_id)
        while len(self._decided_order) > self.max_decided_sessions:
            oldest = self._decided_order.pop(0)
            self._sessions.pop(oldest, None)

    def _open_session(
        self, home: TenantHome, review: InstallReview
    ) -> InstallSession:
        self._session_seq += 1
        session_id = f"{home.home_id}/s{self._session_seq:06d}"
        report = ThreatReport.from_review(home.home_id, review)
        policy = home.policy if home.policy is not None else self.default_policy
        # Evidence-aware entry point (DESIGN.md §16): the home's
        # persisted monitor observations revise evidence-aware
        # policies' verdicts; every pre-monitor policy's default
        # implementation delegates straight to ``decide``.
        verdict = policy.decide_with_evidence(review, home.evidence())
        if verdict is None:
            wire = InstallSession(
                session_id=session_id,
                home_id=home.home_id,
                app_name=review.app_name,
                status=SESSION_PENDING,
                report=report,
            )
            self._sessions[session_id] = _LiveSession(wire, review, home)
            # Pin the home resident until the decision arrives: the
            # pending review's threat/rule graph lives only here.
            self._pending_homes[home.home_id] = (
                self._pending_homes.get(home.home_id, 0) + 1
            )
            return wire
        home.decide(review, verdict, decided_by=policy.name)
        wire = InstallSession(
            session_id=session_id,
            home_id=home.home_id,
            app_name=review.app_name,
            status=SESSION_DECIDED,
            report=report,
            decision=verdict.value,
            decided_by=policy.name,
        )
        self._sessions[session_id] = _LiveSession(wire, None, None)
        self._remember_decided(session_id)
        return wire

    def session(self, session_id: str) -> InstallSession:
        live = self._sessions.get(session_id)
        if live is None:
            raise UnknownSessionError(
                f"no session {session_id!r}", session_id=session_id
            )
        return live.wire

    def sessions(self, home_id: str | None = None) -> list[InstallSession]:
        """All sessions (optionally one home's), in open order."""
        return [
            live.wire
            for live in self._sessions.values()
            if home_id is None or live.wire.home_id == home_id
        ]

    def decide(self, request: DecisionRequest) -> InstallSession:
        """Apply the tenant's one-time decision to a pending session."""
        self.home(request.home_id)  # raises UnknownHomeError
        live = self._sessions.get(request.session_id)
        if live is None or live.wire.home_id != request.home_id:
            raise UnknownSessionError(
                f"no session {request.session_id!r} in home "
                f"{request.home_id!r}",
                session_id=request.session_id,
                home_id=request.home_id,
            )
        if not live.wire.pending:
            raise SessionDecidedError(
                f"session {request.session_id!r} already decided "
                f"({live.wire.decision!r}); install decisions are "
                "one-time (paper §VIII-D.1)",
                session_id=request.session_id,
                decision=live.wire.decision,
            )
        assert live.review is not None  # pending sessions keep their review
        assert live.home is not None  # ... and pin their home resident
        live.home.decide(live.review, InstallDecision(request.decision))
        live.review = None  # decided: release the threat/rule graph
        live.home = None  # ... and un-pin the home
        remaining = self._pending_homes.get(request.home_id, 0) - 1
        if remaining > 0:
            self._pending_homes[request.home_id] = remaining
        else:
            self._pending_homes.pop(request.home_id, None)
        self._evict_over_limit()
        live.wire = InstallSession(
            session_id=live.wire.session_id,
            home_id=live.wire.home_id,
            app_name=live.wire.app_name,
            status=SESSION_DECIDED,
            report=live.wire.report,
            decision=request.decision,
        )
        self._remember_decided(live.wire.session_id)
        return live.wire

    def audit(self, request: AuditRequest) -> list[ThreatReport]:
        """Re-audit a home's installed apps (paper §VIII-D.3) and
        return one wire report per replayed app."""
        home = self.home(request.home_id)
        apps = None if request.apps is None else list(request.apps)
        return [
            ThreatReport.from_review(home.home_id, review)
            for review in home.audit_existing(apps)
        ]

    # ------------------------------------------------------------------
    # Runtime monitoring (DESIGN.md §16)

    def ingest_events(
        self, request: MonitorEventRequest
    ) -> list[ObservationRecord]:
        """Feed one batch of recorded device events through the home's
        runtime monitor and return the observations it produced.

        Ingestion is exactly-once per batch: a resent batch (same
        ``batch_id``, or byte-identical events) returns the original
        batch's observations without re-counting them, so transport
        retries are safe.  Observations persist through the home's
        store and survive eviction; the service-lifetime totals the
        ``status`` RPC reports accumulate here."""
        home = self.home(request.home_id)
        stats = home.pipeline.stats
        before_events = stats.monitor_events
        before_observations = stats.monitor_observations
        produced = home.ingest_events(
            request.to_events(), batch_id=request.batch_id
        )
        self._monitor_events_total += stats.monitor_events - before_events
        self._monitor_observations_total += (
            stats.monitor_observations - before_observations
        )
        return [ObservationRecord.from_observation(obs) for obs in produced]

    def observations(self, home_id: str) -> list[ObservationRecord]:
        """One home's full persisted observation ledger, in ingest
        order (re-hydrated from the store when the home was evicted)."""
        return [
            ObservationRecord.from_observation(obs)
            for obs in self.home(home_id).observations()
        ]

    def monitor_totals(self) -> dict[str, int]:
        """Service-lifetime monitor totals (events ingested and
        observations produced across every home, surviving home
        eviction) — the fleet-wide view the ``status`` RPC surfaces."""
        return {
            "monitor_events": self._monitor_events_total,
            "monitor_observations": self._monitor_observations_total,
        }

    # ------------------------------------------------------------------
    # Convenience queries

    def installed_apps(self, home_id: str) -> list[str]:
        return self.home(home_id).installed_apps()

    def detection_stats(self, home_id: str):
        """Cumulative solver/cache accounting for one home's reviews."""
        return self.home(home_id).pipeline.stats

    def detection_stats_record(self, home_id: str) -> DetectionStatsRecord:
        """One home's counters as a wire record — including the shared
        cross-tenant solve-cache hit/publish counters (DESIGN.md §12),
        so a fleet operator can monitor cache effectiveness without
        reaching into live engine objects."""
        return DetectionStatsRecord.from_stats(
            home_id, self.detection_stats(home_id)
        )

    def breaker_states(self) -> dict[str, str]:
        """Circuit-breaker state per resilient backend (DESIGN.md §15):
        ``solve-cache`` for the shared SQLite solve cache, ``store``
        for the fleet store database — only backends that *have* a
        breaker appear, so an all-in-memory service reports ``{}``."""
        states: dict[str, str] = {}
        cache = self.solve_cache
        if cache is not None and hasattr(cache, "breaker_state"):
            states["solve-cache"] = cache.breaker_state
        if self._fleet_backend is not None:
            states["store"] = self._fleet_backend.breaker_state
        return states

    def fault_summary(self) -> dict[str, int]:
        """Lifetime dispatch-recovery totals of the shared dispatcher
        (tasks_retried / chunks_requeued / pool_failures /
        degraded_serial) — the fleet-wide view the ``status`` RPC
        surfaces; per-home deltas live in each home's
        :class:`DetectionStatsRecord`."""
        dispatcher = self.dispatcher
        if dispatcher is None:
            return {}
        return dispatcher.fault_totals()

    # ------------------------------------------------------------------
    # Persistence

    def restore(self, home_id: str) -> list[str]:
        """Warm-start one home from its configured store; returns the
        restored app names (empty without a usable store)."""
        return self.home(home_id).load_store()

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self) -> None:
        """Commit each resident home's changes not yet durable (as
        eviction does), release the shared dispatcher's workers, if any
        were started, and flush + close the shared solve cache, if one
        is configured.  Idempotent (every dispatcher's ``close`` is, and
        so are the cache backends'), and safe after a failed
        :meth:`restore` — tenant pipelines never own either, so one
        close here is complete.  A later detection run transparently
        restarts the pool; just close again when done.

        Also safe to call concurrently: the fleet server's drain path
        (an event-loop thread) and a ``with`` block (the main thread)
        may both reach here, so the shutdown steps run under a lock,
        and a flush or a dispatcher that fails cannot leave the cache
        unflushed."""
        with self._close_lock:
            try:
                for home in list(self._homes.values()):
                    home.flush_store()
            finally:
                try:
                    if self.dispatcher is not None:
                        self.dispatcher.close()
                finally:
                    try:
                        if self.solve_cache is not None:
                            self.solve_cache.flush()
                            self.solve_cache.close()
                    finally:
                        if self._fleet_backend is not None:
                            # Checkpoint only: the underlying connection
                            # may be shared with another controller's
                            # views.
                            self._fleet_backend.close()

    def __enter__(self) -> "HomeGuardService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"HomeGuardService(homes={len(self._registry)}, "
            f"resident={len(self._homes)}, "
            f"dispatcher={self.dispatcher!r}, "
            f"policy={self.default_policy!r})"
        )
