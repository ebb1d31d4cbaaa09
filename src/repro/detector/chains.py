"""Chained CAI threat detection (paper §VI-D).

Users may accept a flagged pair and install anyway; accepted pairs are
recorded in the ``Allowed`` list.  When a new app arrives, the pairwise
results are combined with the Allowed list to find *long-chained* rules:
R1 triggers R2 triggers R3 ... — e.g. the paper's CurlingIron ->
SwitchChangesMode -> MakeItSo chain that unlocks a door on motion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detector.types import Threat, ThreatType
from repro.rules.model import Rule

_CHAINABLE = (ThreatType.COVERT_TRIGGERING,)
_MAX_CHAIN_LENGTH = 6


@dataclass(slots=True)
class AllowedList:
    """Rule pairs the user has already accepted, kept bottom-up from the
    first app installed in the home."""

    pairs: list[Threat] = field(default_factory=list)

    def add(self, threat: Threat) -> None:
        self.pairs.append(threat)

    def add_all(self, threats: list[Threat]) -> None:
        for threat in threats:
            if threat.type in _CHAINABLE:
                self.pairs.append(threat)

    def disallow(self, app_name: str) -> bool:
        """Drop every pair with a rule of ``app_name``; ``True`` if any."""
        count = len(self.pairs)
        self.pairs[:] = [
            t for t in self.pairs
            if app_name not in (t.rule_a.app_name, t.rule_b.app_name)
        ]
        return len(self.pairs) < count

    def triggering_edges(self) -> list[tuple[Rule, Rule]]:
        return [
            (threat.rule_a, threat.rule_b)
            for threat in self.pairs
            if threat.type in _CHAINABLE
        ]


def find_chains(
    new_threats: list[Threat],
    allowed: AllowedList,
) -> list[Threat]:
    """Combine the new pairwise results with the Allowed list and search
    for triggering chains of length >= 2 edges involving a new rule."""
    edges: dict[str, list[tuple[Rule, Rule]]] = {}
    new_rule_ids: set[str] = set()
    all_edges: list[tuple[Rule, Rule]] = []
    for threat in new_threats:
        if threat.type in _CHAINABLE:
            all_edges.append((threat.rule_a, threat.rule_b))
            new_rule_ids.add(threat.rule_a.rule_id)
            new_rule_ids.add(threat.rule_b.rule_id)
    all_edges.extend(allowed.triggering_edges())
    for source, target in all_edges:
        edges.setdefault(source.rule_id, []).append((source, target))

    chains: list[Threat] = []
    seen: set[tuple[str, ...]] = set()

    def extend(path: list[Rule]) -> None:
        if len(path) > _MAX_CHAIN_LENGTH:
            return
        head = path[-1]
        for _source, target in edges.get(head.rule_id, []):
            if any(target.rule_id == rule.rule_id for rule in path):
                continue  # avoid cycles (loops are LT's business)
            longer = path + [target]
            if len(longer) >= 3:
                key = tuple(rule.rule_id for rule in longer)
                involves_new = any(
                    rule.rule_id in new_rule_ids for rule in longer
                )
                if key not in seen and involves_new:
                    seen.add(key)
                    chains.append(_chain_threat(longer))
            extend(longer)

    for source, _target in all_edges:
        extend([source])
    return chains


def _chain_threat(path: list[Rule]) -> Threat:
    hops = " -> ".join(
        f"{rule.app_name}({rule.action.subject}.{rule.action.command})"
        for rule in path
    )
    return Threat(
        type=ThreatType.CHAINED,
        rule_a=path[0],
        rule_b=path[-1],
        detail=f"covert rule chain: {hops}",
        chain=tuple(path),
    )
