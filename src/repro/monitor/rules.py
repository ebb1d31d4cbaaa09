"""The monitor rule catalog (DESIGN.md §16).

A :class:`MonitorRule` watches one home's event stream and emits
:class:`Finding`\\ s — rule-local observations the
:class:`~repro.monitor.engine.MonitorEngine` stamps with the home id,
the event-time timestamp and a deterministic dedup key.

Two families ship:

* **Confirmation rules**, compiled from the home's statically detected
  :class:`~repro.detector.types.Threat`\\ s by
  :func:`compile_confirmations`: a predicted threat *fires* when the
  observable effects of its two rules' actions occur within a sliding
  window (ordered for trigger/condition interference, unordered for
  action interference).  Disabling-condition threats invert: observing
  the interfered rule act *after* the interferer predicted to disable
  it contradicts the static verdict.
* **Anomaly rules** the solver cannot see (SNIPPETS 2–3, Zhou et al.
  arXiv:1811.03241): toggle spam, power readings off a rolling
  baseline, off-hours actuation, and command loops (A→B→…→A
  oscillation — the runtime shadow of the k-hop roadmap item).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.capabilities.registry import find_command
from repro.detector.types import Threat, ThreatType
from repro.monitor.windows import RollingBaseline
from repro.runtime.events import Event

#: Observation kinds, part of the wire vocabulary (schemas.py).
KIND_CONFIRMED = "confirmed"
KIND_CONTRADICTED = "contradicted"
KIND_ANOMALY = "anomaly"


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule-local observation, before the engine stamps identity.

    ``dedup`` is extra dedup context beyond (rule, kind, subject,
    threat_key) — e.g. a time bucket so a recurring anomaly yields one
    observation per episode, or empty so a confirmation is global
    (exactly once per threat per home)."""

    kind: str
    subject: str
    detail: str = ""
    threat_key: str = ""
    window_seconds: float = 0.0
    dedup: str = ""


@dataclass(frozen=True, slots=True)
class ThreatEvidence:
    """What the monitor has learned about one predicted threat —
    the view :meth:`~repro.service.home.TenantHome.evidence` hands to
    evidence-aware handling policies."""

    confirmed: int = 0
    contradicted: int = 0
    watch_seconds: float = 0.0


def threat_key(threat: Threat) -> str:
    """A stable identity for a predicted threat, independent of the
    witness/detail text: type plus the two rule ids (rule ids embed
    their app name).  Chained threats key on their endpoints, like the
    Allowed list does."""
    return (
        f"{threat.type.value}:{threat.rule_a.rule_id}"
        f"->{threat.rule_b.rule_id}"
    )


class MonitorRule:
    """One windowed check over a home's event stream.

    ``channels`` narrows dispatch to exact ``(subject, attribute)``
    pairs; ``None`` means the rule sees every event, optionally
    pre-filtered by ``attributes``.  The engine reads both when it
    routes a channel, so they are fixed once the rule is registered.
    State is transient — windows do not survive process restarts; only
    the emitted observations do (they persist in the home's ledger).
    """

    name = "abstract"
    channels: frozenset[tuple[str, str]] | None = None
    attributes: frozenset[str] | None = None

    def observe(self, event: Event, now: float) -> list[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


# ----------------------------------------------------------------------
# Predicted-threat confirmation


class ConfirmationRule(MonitorRule):
    """A compiled witness-sequence watcher for one predicted threat.

    ``steps`` is a tuple of match steps; each step is a tuple of
    ``(subject, attribute, value-or-None)`` alternatives (one action
    can drive several attributes — any of them counts).  Ordered mode
    requires step *i* at-or-after step *i-1*; unordered mode (the
    symmetric action-interference threats) just needs every step inside
    the window.  When the sequence completes, the rule emits one
    ``kind`` finding (``confirmed``, or ``contradicted`` for
    disabling-condition predictions) and resets.
    """

    def __init__(
        self,
        key: str,
        steps: tuple[tuple[tuple[str, str, str | None], ...], ...],
        *,
        window: float = 300.0,
        ordered: bool = True,
        kind: str = KIND_CONFIRMED,
        detail: str = "",
    ) -> None:
        self.name = f"confirm:{key}"
        self.threat_key = key
        self.steps = steps
        self.window = float(window)
        self.ordered = ordered
        self.kind = kind
        self.detail = detail
        self.channels = frozenset(
            (subject, attribute)
            for step in steps
            for subject, attribute, _value in step
        )
        # channel -> ((step, ordered, accepted values), ...) in step
        # order: the steps an event on that channel can stamp, whether
        # the step waits for the one before it, and the values it
        # accepts (None: any value).
        by_channel: dict[tuple[str, str], dict[int, frozenset | None]] = {}
        for index, step in enumerate(steps):
            for subject, attribute, value in step:
                per_step = by_channel.setdefault((subject, attribute), {})
                values = per_step.get(index, frozenset())
                per_step[index] = (
                    None if value is None or values is None
                    else values | {value}
                )
        self._matchers = {
            channel: tuple(
                (index, ordered and index > 0, values)
                for index, values in per_step.items()
            )
            for channel, per_step in by_channel.items()
        }
        self._subject = steps[-1][0][0]
        self._stamps: list[float | None] = [None] * len(steps)

    def observe(self, event: Event, now: float) -> list[Finding]:
        matchers = self._matchers.get((event.subject, event.name))
        if matchers is None:
            return []
        stamps = self._stamps
        text = None
        for index, waits, accepted in matchers:
            if accepted is not None:
                if text is None:
                    text = str(event.value)
                if text not in accepted:
                    continue
            if waits:
                previous = stamps[index - 1]
                if previous is None or now < previous:
                    continue
            stamps[index] = now
        if None in stamps:
            return []
        if max(stamps) - min(stamps) > self.window:
            # Too spread out: keep the freshest stamps and wait.
            if self.ordered:
                self._stamps = [None] * len(self.steps)
            else:
                self._stamps = [
                    s if now - s <= self.window else None for s in stamps
                ]
            return []
        self._stamps = [None] * len(self.steps)
        return [
            Finding(
                kind=self.kind,
                subject=self._subject,
                detail=self.detail,
                threat_key=self.threat_key,
                window_seconds=self.window,
            )
        ]


def _effect_matchers(
    rule, devices: dict[str, dict[str, str]]
) -> tuple[tuple[str, str, str | None], ...]:
    """The observable event matchers for one rule's action: the home
    device its action targets (resolved from the app's recorded input
    bindings) and the attribute/value pairs its command drives, per the
    capability registry.  Commands without a registered effect (platform
    sinks like ``sendSms``) match on the command name — they never fire
    from a device stream, which is the right degraded mode."""
    action = rule.action
    mapping = devices.get(rule.app_name, {})
    input_name = (
        action.device.name if action.device is not None else action.subject
    )
    subject = mapping.get(input_name, input_name)
    spec = find_command(action.command, action.capability)
    if spec is not None and spec.sets:
        return tuple(
            (subject, attribute, value) for attribute, value in spec.sets
        )
    return ((subject, action.command, None),)


def compile_confirmations(
    threats: list[Threat],
    devices: dict[str, dict[str, str]],
    *,
    window: float = 300.0,
) -> list[ConfirmationRule]:
    """Compile the home's predicted threats into confirmation rules.

    ``devices`` maps app name → (device input name → home device id),
    i.e. each app's recorded configuration bindings — the same
    resolution detection used, so the monitor watches the exact
    devices the solver reasoned about.  Duplicate threat keys (the
    same pair re-reviewed) compile once.
    """
    compiled: list[ConfirmationRule] = []
    seen: set[str] = set()
    for threat in threats:
        key = threat_key(threat)
        if key in seen:
            continue
        seen.add(key)
        step_a = _effect_matchers(threat.rule_a, devices)
        step_b = _effect_matchers(threat.rule_b, devices)
        symmetric = threat.type in (
            ThreatType.ACTUATOR_RACE,
            ThreatType.GOAL_CONFLICT,
            ThreatType.LOOP_TRIGGERING,
        )
        if threat.type is ThreatType.DISABLING_CONDITION:
            kind = KIND_CONTRADICTED
            detail = (
                f"{threat.rule_b.rule_id} acted although "
                f"{threat.rule_a.rule_id} was predicted to disable it"
            )
        else:
            kind = KIND_CONFIRMED
            detail = (
                f"witness sequence observed: {threat.rule_a.rule_id}"
                f" -> {threat.rule_b.rule_id} ({threat.type.value})"
            )
        compiled.append(
            ConfirmationRule(
                key,
                (step_a, step_b),
                window=window,
                ordered=not symmetric,
                kind=kind,
                detail=detail,
            )
        )
    return compiled


# ----------------------------------------------------------------------
# Anomaly rules (SNIPPETS 2-3)


class ToggleSpamRule(MonitorRule):
    """More than ``threshold`` switch events on one device inside the
    window — a flapping actuator or a rule fight the static pass never
    priced.  One observation per episode (the window clears on fire)."""

    name = "toggle-spam"
    attributes = frozenset({"switch"})

    def __init__(self, window: float = 30.0, threshold: int = 10) -> None:
        self.window = float(window)
        self.threshold = int(threshold)
        #: subject -> event times of its switch events inside the window.
        self._windows: dict[str, deque[float]] = {}

    def observe(self, event: Event, now: float) -> list[Finding]:
        times = self._windows.get(event.subject)
        if times is None:
            times = self._windows[event.subject] = deque()
        times.append(now)
        horizon = now - self.window
        while times and times[0] <= horizon:
            times.popleft()
        if len(times) <= self.threshold:
            return []
        count = len(times)
        times.clear()
        return [
            Finding(
                kind=KIND_ANOMALY,
                subject=event.subject,
                detail=f"{count} switch toggles in {self.window:g}s",
                window_seconds=self.window,
                dedup=f"b{int(now // max(self.window, 1.0))}",
            )
        ]


class PowerAnomalyRule(MonitorRule):
    """Power readings that are non-positive or far above the device's
    rolling baseline (default: > 1.5x the mean of the last 32 good
    samples, once at least ``min_samples`` exist).  A reading that is
    not a finite number (unparseable, NaN or infinite) is ignored: no
    finding, and it never enters the baseline."""

    name = "power-anomaly"
    attributes = frozenset({"power"})

    def __init__(
        self,
        factor: float = 1.5,
        min_samples: int = 5,
        baseline_size: int = 32,
        bucket: float = 300.0,
    ) -> None:
        self.factor = float(factor)
        self.min_samples = int(min_samples)
        self.baseline_size = int(baseline_size)
        self.bucket = float(bucket)
        self._baselines: dict[str, RollingBaseline] = {}

    def observe(self, event: Event, now: float) -> list[Finding]:
        try:
            value = float(event.value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return []
        if not math.isfinite(value):
            return []
        baseline = self._baselines.get(event.subject)
        if baseline is None:
            baseline = self._baselines[event.subject] = RollingBaseline(
                self.baseline_size
            )
        if value <= 0:
            detail = f"non-positive power reading {value:g}W"
        else:
            mean = baseline.mean()
            spike = (
                baseline.count >= self.min_samples
                and value > self.factor * mean
            )
            baseline.push(value)
            if not spike:
                return []
            detail = (
                f"power {value:g}W exceeds {self.factor:g}x "
                f"rolling mean {mean:.1f}W"
            )
        return [
            Finding(
                kind=KIND_ANOMALY,
                subject=event.subject,
                detail=detail,
                window_seconds=self.bucket,
                dedup=f"b{int(now // max(self.bucket, 1.0))}",
            )
        ]


class OffHoursRule(MonitorRule):
    """Actuation outside the home's active hours (default 8AM-6PM of
    the event-time day).  One observation per device per day: the rule
    remembers the last day it reported for each device and stays quiet
    for the rest of that day.  A rule instance serves one engine (the
    engine's clock never goes backwards)."""

    name = "off-hours"
    attributes = frozenset({"switch", "lock", "door", "alarm"})

    def __init__(
        self,
        start: float = 8 * 3600.0,
        end: float = 18 * 3600.0,
        attributes: frozenset[str] | None = None,
    ) -> None:
        self.start = float(start)
        self.end = float(end)
        if attributes is not None:
            self.attributes = frozenset(attributes)
        #: subject -> the last event-time day it was reported on.
        self._reported: dict[str, int] = {}

    def observe(self, event: Event, now: float) -> list[Finding]:
        time_of_day = now % 86400.0
        if self.start <= time_of_day < self.end:
            return []
        day = int(now // 86400.0)
        if self._reported.get(event.subject) == day:
            return []
        self._reported[event.subject] = day
        return [
            Finding(
                kind=KIND_ANOMALY,
                subject=event.subject,
                detail=(
                    f"{event.name}={event.value} at "
                    f"{time_of_day / 3600.0:.1f}h (outside "
                    f"{self.start / 3600.0:g}-{self.end / 3600.0:g}h)"
                ),
                window_seconds=self.end - self.start,
                dedup=f"d{day}",
            )
        ]


class CommandLoopRule(MonitorRule):
    """A channel revisited inside the window after at least
    ``min_cycle - 1`` *other* distinct channels fired in between:
    A→B→…→A oscillation, the runtime shadow of a loop-triggering or
    chained threat.  One observation per distinct channel cycle."""

    name = "command-loop"

    def __init__(self, window: float = 60.0, min_cycle: int = 3) -> None:
        self.window = float(window)
        self.min_cycle = int(min_cycle)
        #: (event time, channel) of the events inside the window.
        self._trail: deque[tuple[float, tuple[str, str]]] = deque()

    def observe(self, event: Event, now: float) -> list[Finding]:
        channel = (event.subject, event.name)
        trail = self._trail
        horizon = now - self.window
        while trail and trail[0][0] <= horizon:
            trail.popleft()
        # The channels after this one's last visit, newest first.
        since: list[tuple[str, str]] = []
        for _ts, other in reversed(trail):
            if other == channel:
                break
            since.append(other)
        else:
            trail.append((now, channel))
            return []
        between = list(dict.fromkeys(reversed(since)))
        finding: list[Finding] = []
        if len(between) >= self.min_cycle - 1:
            path = " -> ".join(
                f"{subject}.{attribute}"
                for subject, attribute in (channel, *between, channel)
            )
            cycle_id = "|".join(
                sorted(
                    f"{subject}.{attribute}"
                    for subject, attribute in {channel, *between}
                )
            )
            finding = [
                Finding(
                    kind=KIND_ANOMALY,
                    subject=event.subject,
                    detail=f"command loop {path} in {self.window:g}s",
                    window_seconds=self.window,
                    dedup=cycle_id,
                )
            ]
            trail.clear()
        trail.append((now, channel))
        return finding


def default_anomaly_rules() -> list[MonitorRule]:
    """The shipped anomaly catalog with default thresholds."""
    return [
        ToggleSpamRule(),
        PowerAnomalyRule(),
        OffHoursRule(),
        CommandLoopRule(),
    ]
