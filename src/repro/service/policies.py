"""Pluggable threat-handling policies (paper §VIII-D.1, DESIGN.md §11).

The paper's *Handling* pillar is a one-time interactive decision: the
companion app shows the review screen and the user picks keep /
reconfigure / delete.  A multi-tenant service cannot assume a human in
the loop for every install — fleet controllers auto-reject risky apps,
kiosk deployments keep everything below a severity line, and so on
(the conflict-*resolution* strategies surveyed in Huang et al. 2023).

A :class:`HandlingPolicy` decides what happens right after detection:

* return an :class:`~repro.service.home.InstallDecision` to handle the
  threat automatically (the verdict is applied immediately and the
  install session completes as ``decided`` with ``decided_by`` set to
  the policy's name — that provenance persists in the store's frontend
  blob alongside the user's own decisions);
* return ``None`` to defer — the session stays ``pending`` until a
  :class:`~repro.service.schemas.DecisionRequest` arrives, which is
  exactly the paper's interactive flow
  (:class:`InteractivePolicy` always defers).

Policies see the *live* review (full :class:`~repro.detector.types
.Threat` objects with rules and witnesses), not the wire form, so a
custom policy can dispatch on anything detection knows.
"""

from __future__ import annotations

from typing import Mapping

from repro.detector.types import Threat, ThreatType
from repro.monitor.rules import ThreatEvidence, threat_key
from repro.service.home import InstallDecision, InstallReview

# Default severity ranking over the Table I threat classes, low to
# high.  Condition/trigger interference (an app merely influencing
# another's trigger or condition) ranks below action interference (two
# apps fighting over one actuator), and chains — which the user never
# saw as a single pair — rank highest.  Policies accept an override
# map, so the ranking is a default, not a commitment.
DEFAULT_SEVERITY: dict[ThreatType, int] = {
    ThreatType.ENABLING_CONDITION: 1,
    ThreatType.COVERT_TRIGGERING: 2,
    ThreatType.DISABLING_CONDITION: 2,
    ThreatType.SELF_DISABLING: 3,
    ThreatType.LOOP_TRIGGERING: 3,
    ThreatType.ACTUATOR_RACE: 4,
    ThreatType.GOAL_CONFLICT: 4,
    ThreatType.CHAINED: 5,
}


class HandlingPolicy:
    """Decides an install session's outcome right after detection."""

    name = "abstract"

    def decide(self, review: InstallReview) -> InstallDecision | None:
        """An automatic verdict, or ``None`` to leave the session
        pending for the tenant's one-time decision."""
        raise NotImplementedError

    def decide_with_evidence(
        self,
        review: InstallReview,
        evidence: Mapping[str, ThreatEvidence],
    ) -> InstallDecision | None:
        """The evidence-aware entry point the service calls
        (DESIGN.md §16): ``evidence`` maps each predicted threat's
        :func:`~repro.monitor.rules.threat_key` to what the runtime
        monitor has observed about it.  Evidence-unaware policies
        ignore it — the default delegates to :meth:`decide`, so every
        pre-monitor policy keeps its exact behavior."""
        return self.decide(review)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InteractivePolicy(HandlingPolicy):
    """The paper's user-decision flow: never decide automatically.

    Every session stays pending until a
    :class:`~repro.service.schemas.DecisionRequest` arrives; applied
    decisions carry ``decided_by=None``, so the persisted review
    history has no policy provenance.  This is the default policy."""

    name = "interactive"

    def decide(self, review: InstallReview) -> InstallDecision | None:
        return None


class AutoDenyPolicy(HandlingPolicy):
    """Zero-tolerance tenant: keep clean installs, delete anything
    that raised a threat or completed a chain."""

    name = "auto-deny"

    def decide(self, review: InstallReview) -> InstallDecision | None:
        if review.clean:
            return InstallDecision.KEEP
        return InstallDecision.DELETE


class SeverityThresholdPolicy(HandlingPolicy):
    """Keep installs whose worst threat stays below a severity line.

    Threats are ranked via ``severity`` (default
    :data:`DEFAULT_SEVERITY`); an install whose worst rank is below
    ``threshold`` is kept automatically.  At or above the line the
    policy applies ``above`` — default ``DELETE`` — or, with
    ``above=None``, defers to the user (escalation: only the risky
    installs interrupt a human)."""

    name = "severity-threshold"

    def __init__(
        self,
        threshold: int = 4,
        above: InstallDecision | None = InstallDecision.DELETE,
        severity: dict[ThreatType, int] | None = None,
    ) -> None:
        self.threshold = threshold
        self.above = above
        self.severity = dict(
            DEFAULT_SEVERITY if severity is None else severity
        )

    def worst(self, review: InstallReview) -> int:
        """The review's highest severity rank (0 when clean; unknown
        threat types rank at the top — fail closed)."""
        top = max(self.severity.values(), default=0) + 1
        return max(
            (
                self.severity.get(threat.type, top)
                for threat in (*review.threats, *review.chains)
            ),
            default=0,
        )

    def decide(self, review: InstallReview) -> InstallDecision | None:
        if self.worst(review) < self.threshold:
            return InstallDecision.KEEP
        return self.above

    def __repr__(self) -> str:
        return (
            f"SeverityThresholdPolicy(threshold={self.threshold}, "
            f"above={self.above})"
        )


class ChainedPolicy(HandlingPolicy):
    """Compose policies: the first non-``None`` verdict wins, and a
    fully undecided chain defers to the user.  E.g. auto-keep the
    obviously safe, auto-deny the obviously dangerous, and escalate
    the middle band::

        ChainedPolicy(
            SeverityThresholdPolicy(threshold=3, above=None),
            SeverityThresholdPolicy(threshold=5),
        )
    """

    name = "chained"

    def __init__(self, *policies: HandlingPolicy) -> None:
        self.policies = tuple(policies)

    def decide(self, review: InstallReview) -> InstallDecision | None:
        for policy in self.policies:
            verdict = policy.decide(review)
            if verdict is not None:
                return verdict
        return None

    def decide_with_evidence(
        self,
        review: InstallReview,
        evidence: Mapping[str, ThreatEvidence],
    ) -> InstallDecision | None:
        for policy in self.policies:
            verdict = policy.decide_with_evidence(review, evidence)
            if verdict is not None:
                return verdict
        return None

    def __repr__(self) -> str:
        inner = ", ".join(repr(policy) for policy in self.policies)
        return f"ChainedPolicy({inner})"


class EvidencePolicy(HandlingPolicy):
    """Revise a :class:`SeverityThresholdPolicy`'s verdicts with the
    runtime monitor's observed evidence (DESIGN.md §16).

    The static severity ranking is a *prediction*; the monitor reports
    which predictions actually fired.  This wrapper recomputes each
    threat's effective severity before applying the inner threshold:

    * **escalate**: a threat with at least one ``confirmed``
      observation gains ``escalate_by`` ranks — a predicted-and-seen
      interference is more dangerous than a predicted one;
    * **downgrade**: a threat whose prediction was ``contradicted``
      (the interfered rule demonstrably still acts), or that has been
      watched for ``unconfirmed_after`` event-time seconds without a
      single confirmation, loses ``downgrade_by`` ranks — the proposal
      path for long-unconfirmed static verdicts.

    ``decided_by`` provenance: sessions this policy decides persist
    with the composite name ``evidence+<inner name>``, so a review's
    history shows the verdict was evidence-revised.  Without any
    evidence (no monitor traffic yet) every verdict is byte-identical
    to the inner policy's.
    """

    def __init__(
        self,
        inner: SeverityThresholdPolicy | None = None,
        *,
        escalate_by: int = 2,
        downgrade_by: int = 1,
        unconfirmed_after: float = 7 * 86400.0,
    ) -> None:
        self.inner = SeverityThresholdPolicy() if inner is None else inner
        self.escalate_by = int(escalate_by)
        self.downgrade_by = int(downgrade_by)
        self.unconfirmed_after = float(unconfirmed_after)
        self.name = f"evidence+{self.inner.name}"

    def effective_severity(
        self, threat: Threat, evidence: Mapping[str, ThreatEvidence]
    ) -> int:
        top = max(self.inner.severity.values(), default=0) + 1
        base = self.inner.severity.get(threat.type, top)
        seen = evidence.get(threat_key(threat))
        if seen is None:
            return base
        if seen.confirmed:
            return base + self.escalate_by
        if seen.contradicted:
            return max(0, base - self.downgrade_by)
        if seen.watch_seconds >= self.unconfirmed_after:
            return max(0, base - self.downgrade_by)
        return base

    def worst_with_evidence(
        self,
        review: InstallReview,
        evidence: Mapping[str, ThreatEvidence],
    ) -> int:
        return max(
            (
                self.effective_severity(threat, evidence)
                for threat in (*review.threats, *review.chains)
            ),
            default=0,
        )

    def proposals(
        self,
        review: InstallReview,
        evidence: Mapping[str, ThreatEvidence],
    ) -> list[str]:
        """Human-readable revision proposals for the review's threats —
        what changed versus the static ranking and why."""
        top = max(self.inner.severity.values(), default=0) + 1
        notes: list[str] = []
        for threat in (*review.threats, *review.chains):
            key = threat_key(threat)
            seen = evidence.get(key)
            if seen is None:
                continue
            base = self.inner.severity.get(threat.type, top)
            effective = self.effective_severity(threat, evidence)
            if effective > base:
                notes.append(
                    f"escalate {key}: severity {base} -> {effective} "
                    f"({seen.confirmed} confirmed observation(s))"
                )
            elif effective < base and seen.contradicted:
                notes.append(
                    f"downgrade {key}: severity {base} -> {effective} "
                    f"(prediction contradicted {seen.contradicted}x)"
                )
            elif effective < base:
                notes.append(
                    f"downgrade {key}: severity {base} -> {effective} "
                    f"(unconfirmed for {seen.watch_seconds:.0f}s)"
                )
        return notes

    def decide(self, review: InstallReview) -> InstallDecision | None:
        return self.inner.decide(review)

    def decide_with_evidence(
        self,
        review: InstallReview,
        evidence: Mapping[str, ThreatEvidence],
    ) -> InstallDecision | None:
        if self.worst_with_evidence(review, evidence) < self.inner.threshold:
            return InstallDecision.KEEP
        return self.inner.above

    def __repr__(self) -> str:
        return (
            f"EvidencePolicy({self.inner!r}, "
            f"escalate_by={self.escalate_by}, "
            f"downgrade_by={self.downgrade_by})"
        )
