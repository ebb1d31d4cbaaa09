"""The per-home monitor engine (DESIGN.md §16).

A :class:`MonitorEngine` consumes one home's event stream — live from
the runtime :class:`~repro.runtime.events.EventBus` (via a bus tap),
from batched fleet ingestion, or from a recorded JSONL trace — runs
the registered :class:`~repro.monitor.rules.MonitorRule`\\ s that see
each event, and turns their findings into deduplicated
:class:`Observation`\\ s.  Every path goes through
:meth:`MonitorEngine.ingest_batch`.

Routing: the rules an event reaches depend only on its ``(subject,
attribute)`` channel, so the engine computes each channel's route once
and caches it (channel rules first, then the admitting wildcard rules,
each in registration order); changing the rule set clears the cache.

Time is *event time*: the engine's clock only moves forward
(``max(seen timestamps)``), with an optional injected monotonic clock
(the :mod:`repro.resilience` idiom) merged in for live attachment, so
replaying a recorded trace yields byte-identical observations to the
live run that produced it.

Exactly-once: every observation has a deterministic key (SHA-256 over
home, rule, kind, subject, threat key and the rule's dedup context).
The engine drops keys it has already emitted; callers that persist
observations (the tenant home's ledger) seed ``seen`` on rebuild, so
eviction, restarts and replayed batches can never double-count.  A
finding whose identity (the key's inputs but the home) is known to
have its key in ``seen`` is dropped before hashing; identities enter
that memo only once their key is in ``seen``, so it never admits a key
``seen`` would refuse.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from repro.monitor.rules import (
    KIND_ANOMALY,
    KIND_CONFIRMED,
    KIND_CONTRADICTED,
    MonitorRule,
)
from repro.runtime.events import Event, EventBus


@dataclass(frozen=True, slots=True)
class Observation:
    """One deduplicated monitor observation (the engine-internal twin
    of the wire :class:`~repro.service.schemas.ObservationRecord`)."""

    key: str
    home_id: str
    rule: str
    kind: str
    subject: str
    threat_key: str = ""
    detail: str = ""
    timestamp: float = 0.0
    window_seconds: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "Observation":
        return Observation(
            key=str(data.get("key", "")),
            home_id=str(data.get("home_id", "")),
            rule=str(data.get("rule", "")),
            kind=str(data.get("kind", "")),
            subject=str(data.get("subject", "")),
            threat_key=str(data.get("threat_key", "")),
            detail=str(data.get("detail", "")),
            timestamp=float(data.get("timestamp", 0.0)),
            window_seconds=float(data.get("window_seconds", 0.0)),
        )


def observation_key(
    home_id: str,
    rule: str,
    kind: str,
    subject: str,
    threat_key: str = "",
    dedup: str = "",
) -> str:
    """The deterministic identity of one observation."""
    material = "\x1f".join((home_id, rule, kind, subject, threat_key, dedup))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


class MonitorEngine:
    """Sliding-window analytics over one home's event stream."""

    def __init__(
        self,
        home_id: str,
        rules: Iterable[MonitorRule] | None = None,
        *,
        clock: Callable[[], float] | None = None,
        seen: Iterable[str] | None = None,
    ) -> None:
        self.home_id = home_id
        self._clock = clock
        self._rules: list[MonitorRule] = list(rules or ())
        #: (subject, attribute) -> the rules that see that channel, in
        #: dispatch order; filled lazily by :meth:`_route`.
        self._routes: dict[tuple[str, str], tuple[MonitorRule, ...]] = {}
        self._seen: set[str] = set(seen or ())
        #: (rule, kind, subject, threat key, dedup) identities whose
        #: observation key is already in ``_seen``.
        self._known: set[tuple[str, str, str, str, str]] = set()
        self._now = 0.0
        #: Observations produced through a live bus tap, drained by the
        #: owner (``ingest`` returns them directly instead).
        self.pending: list[Observation] = []
        self._tap_owner: str | None = None
        # Counters (event-stream accounting, mirrored into
        # DetectionStats by the tenant home).
        self.events_seen = 0
        self.observations = 0
        self.confirmed = 0
        self.contradicted = 0
        self.anomalies = 0

    # ------------------------------------------------------------------
    # Rule registry

    @property
    def rules(self) -> list[MonitorRule]:
        return list(self._rules)

    def add_rule(self, rule: MonitorRule) -> None:
        self._rules.append(rule)
        self._routes.clear()

    def set_rules(self, rules: Iterable[MonitorRule]) -> None:
        """Replace the rule set (recompiled confirmations after a new
        install decision).  Emitted-observation dedup state survives —
        a recompiled threat rule cannot re-confirm a confirmed threat."""
        self._rules = list(rules)
        self._routes.clear()

    def _route(self, channel: tuple[str, str]) -> tuple[MonitorRule, ...]:
        """The rules one channel's events run through: the rules that
        name the channel, then the wildcard rules whose ``attributes``
        admit its attribute, each group in registration order."""
        attribute = channel[1]
        route = tuple(
            [
                rule for rule in self._rules
                if rule.channels is not None and channel in rule.channels
            ]
            + [
                rule for rule in self._rules
                if rule.channels is None
                and (rule.attributes is None or attribute in rule.attributes)
            ]
        )
        self._routes[channel] = route
        return route

    # ------------------------------------------------------------------
    # Ingestion

    def now(self) -> float:
        """The engine's current event-time clock."""
        return self._now

    def ingest(self, event: Event) -> list[Observation]:
        """Run one event through the rules; returns *new* observations
        (already deduplicated against everything ever emitted)."""
        return self.ingest_batch((event,))

    def ingest_batch(self, events: Iterable[Event]) -> list[Observation]:
        """Run events through the rules in order; returns the *new*
        observations (already deduplicated against everything ever
        emitted)."""
        emitted: list[Observation] = []
        clock = self._clock
        routes = self._routes
        known = self._known
        seen = self._seen
        home_id = self.home_id
        for event in events:
            now = event.timestamp
            if clock is not None:
                clocked = clock()
                if clocked > now:
                    now = clocked
            if now > self._now:
                self._now = now
            else:
                now = self._now
            self.events_seen += 1
            channel = (event.subject, event.name)
            route = routes.get(channel)
            if route is None:
                route = self._route(channel)
            for rule in route:
                findings = rule.observe(event, now)
                if not findings:
                    continue
                rule_name = rule.name
                for finding in findings:
                    kind = finding.kind
                    identity = (
                        rule_name, kind, finding.subject,
                        finding.threat_key, finding.dedup,
                    )
                    if identity in known:
                        continue
                    known.add(identity)
                    key = observation_key(home_id, *identity)
                    if key in seen:
                        continue
                    seen.add(key)
                    self.observations += 1
                    if kind == KIND_CONFIRMED:
                        self.confirmed += 1
                    elif kind == KIND_CONTRADICTED:
                        self.contradicted += 1
                    elif kind == KIND_ANOMALY:
                        self.anomalies += 1
                    emitted.append(
                        Observation(
                            key=key,
                            home_id=home_id,
                            rule=rule_name,
                            kind=kind,
                            subject=finding.subject,
                            threat_key=finding.threat_key,
                            detail=finding.detail,
                            timestamp=now,
                            window_seconds=finding.window_seconds,
                        )
                    )
        return emitted

    def replay_jsonl(self, lines: Iterable[str]) -> list[Observation]:
        """Offline replay of a recorded trace: one JSON event object
        per line (``subject``, ``attribute`` or ``name``, ``value``,
        ``timestamp``).  Unparseable lines are skipped — a truncated
        trace degrades to the events before the tear."""
        events: list[Event] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                events.append(Event(
                    subject=str(data["subject"]),
                    name=str(data.get("attribute", data.get("name"))),
                    value=data.get("value"),
                    timestamp=float(data.get("timestamp", 0.0)),
                ))
            except (ValueError, TypeError, KeyError):
                continue
        return self.ingest_batch(events)

    # ------------------------------------------------------------------
    # Live attachment

    def attach(self, bus: EventBus) -> str:
        """Tap a live event bus: every published event flows through
        :meth:`ingest` and new observations accumulate in
        :attr:`pending` until :meth:`drain` collects them."""
        owner = f"monitor:{self.home_id}"
        bus.add_tap(self._on_event, owner)
        self._tap_owner = owner
        return owner

    def detach(self, bus: EventBus) -> None:
        if self._tap_owner is not None:
            bus.unsubscribe_owner(self._tap_owner)
            self._tap_owner = None

    def _on_event(self, event: Event) -> None:
        self.pending.extend(self.ingest(event))

    def drain(self) -> list[Observation]:
        drained, self.pending = self.pending, []
        return drained

    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        return {
            "events_seen": self.events_seen,
            "observations": self.observations,
            "confirmed": self.confirmed,
            "contradicted": self.contradicted,
            "anomalies": self.anomalies,
        }

    def __repr__(self) -> str:
        return (
            f"MonitorEngine({self.home_id!r}, rules={len(self._rules)}, "
            f"events={self.events_seen}, observations={self.observations})"
        )
