"""Inverted rule indexes (pipeline layer 2, DESIGN.md §3).

The paper pre-stores the M_AR / M_GC mappings so candidate filtering is
cheap; :class:`RuleIndex` generalizes that idea to *every* threat
class.  Each installed rule's signature is filed under hash keys —
actuator identity, effect channel, trigger subscription, condition
read — so that when a new rule arrives, its candidate partners come
from a handful of dict lookups instead of a scan over all installed
rules.

The index answers an over-approximate question ("which installed rules
*could* form a threat pair with this one?"); the detection engine then
runs the exact pairwise tests and the solver only on those candidates.
Completeness argument, per threat class:

* AR needs equal actuator identities            -> ``writers_by_identity``
* GC needs opposite effects on a shared channel in the same
  environment                            -> ``movers_by_channel_effect``
* CT/SD/LT need A1 ↦ T2 (direct: action identity == trigger identity
  *and* the written attribute == the subscribed attribute;
  environment: trigger channel ∈ action effects, same home), in either
  direction  -> ``triggers_by_identity_attr`` / ``triggers_by_channel``
                plus the writer/mover maps for the reverse direction
* EC/DC need A1 to touch C2's inputs (direct: identity *and* attribute
  match / environment / location mode)
             -> ``conditions_by_identity_attr`` / ``conditions_by_channel``
                / ``mode_conditions`` and the reverse writer maps

The direct-state buckets are keyed by ``(identity, attribute)`` pairs
(DESIGN.md §12): the candidate tests in :mod:`repro.detector.signature`
require the written attribute to equal the subscribed/read attribute,
so two rules meeting only on a device — TV power writer vs. TV channel
subscriber — never collide in a bucket and are never materialized as a
pair tuple at all (the prescreen predicate no longer has to reject
them one by one).  ``writers_by_identity`` keeps its coarse identity
key because Actuator Race needs *any* two writers of one actuator,
whatever attributes they set.

Every candidate test in :mod:`repro.detector.signature` requires at
least one of those keys to collide, so no threat pair can be missed.
A single-key collision is still weaker than the pairwise candidate
tests (e.g. two writers of one actuator whose targets don't
contradict), so :meth:`RuleIndex.candidates` accepts an optional
``prescreen`` predicate — typically :func:`repro.detector.signature
.may_interfere` — applied once per deduplicated candidate to prune
pairs that provably cannot interfere before any planning or constraint
term building happens (DESIGN.md §10).
Channel and mode keys are scoped by the signature's environment:
channels are physical features of one home, so a multi-home (zoned)
resolver makes cross-home channel buckets disjoint and candidate counts
stay linear in the store size.  Identity buckets are *not* scoped: a
resolver that aliases one device identity across environments (e.g.
repository analysis with per-tenant homes) still pairs its writers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.detector.signature import RuleSignature


@dataclass(slots=True)
class RuleIndex:
    """Inverted indexes over installed rule signatures."""

    # Actions, keyed by what they write / move.  The identity map keys
    # any actuator writer (AR pairs two writers whatever they set); the
    # (identity, attribute) map additionally keys the written attribute
    # for the direct trigger/condition reverse lookups.  Channel keys
    # are (environment, channel); the effect map additionally keys the
    # direction so Goal Conflict looks up opposite movers directly.
    writers_by_identity: dict[str, list[RuleSignature]] = field(
        default_factory=dict
    )
    writers_by_identity_attr: dict[
        tuple[str, str], list[RuleSignature]
    ] = field(default_factory=dict)
    movers_by_channel: dict[tuple[str, str], list[RuleSignature]] = field(
        default_factory=dict
    )
    movers_by_channel_effect: dict[
        tuple[str, str, str], list[RuleSignature]
    ] = field(default_factory=dict)
    # Triggers, keyed by (subscribed identity, subscribed attribute).
    triggers_by_identity_attr: dict[
        tuple[str, str], list[RuleSignature]
    ] = field(default_factory=dict)
    triggers_by_channel: dict[tuple[str, str], list[RuleSignature]] = field(
        default_factory=dict
    )
    # Conditions, keyed by (read identity, read attribute).
    conditions_by_identity_attr: dict[
        tuple[str, str], list[RuleSignature]
    ] = field(default_factory=dict)
    conditions_by_channel: dict[tuple[str, str], list[RuleSignature]] = field(
        default_factory=dict
    )
    mode_conditions: dict[str, list[RuleSignature]] = field(
        default_factory=dict
    )
    mode_writers: dict[str, list[RuleSignature]] = field(default_factory=dict)
    # All indexed signatures in insertion order, per app.
    by_app: dict[str, list[RuleSignature]] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(len(sigs) for sigs in self.by_app.values())

    @property
    def apps(self) -> list[str]:
        return list(self.by_app)

    # ------------------------------------------------------------------
    # Maintenance

    def _postings(
        self, sig: RuleSignature
    ) -> Iterator[tuple[dict[object, list[RuleSignature]], object]]:
        """The (bucket map, key) pairs ``sig`` is filed under, in
        filing order; a key may repeat (e.g. two condition reads of one
        (identity, attribute))."""
        env = sig.environment
        if sig.is_device_action:
            if sig.action_identity is not None:
                yield self.writers_by_identity, sig.action_identity
                if sig.command_target is not None:
                    yield self.writers_by_identity_attr, (
                        sig.action_identity, sig.command_target[0]
                    )
            for channel, effect in sig.action_effects.items():
                yield self.movers_by_channel, (env, channel)
                yield self.movers_by_channel_effect, (
                    env, channel, effect.value
                )
        if sig.sets_location_mode:
            yield self.mode_writers, env
        if sig.trigger_fireable:
            if (
                sig.trigger_identity is not None
                and sig.trigger_attribute is not None
            ):
                yield self.triggers_by_identity_attr, (
                    sig.trigger_identity, sig.trigger_attribute
                )
            if sig.trigger_has_device and sig.trigger_channel is not None:
                yield self.triggers_by_channel, (env, sig.trigger_channel)
        for read in sig.condition_reads:
            yield self.conditions_by_identity_attr, (
                read.identity, read.attr.attribute
            )
            if read.channel is not None:
                yield self.conditions_by_channel, (env, read.channel)
        if sig.condition_uses_mode:
            yield self.mode_conditions, env

    def add(self, sig: RuleSignature) -> None:
        self.by_app.setdefault(sig.app_name, []).append(sig)
        for mapping, key in self._postings(sig):
            mapping.setdefault(key, []).append(sig)

    def add_ruleset(self, sigs: Iterable[RuleSignature]) -> None:
        for sig in sigs:
            self.add(sig)

    def remove_app(self, app_name: str) -> None:
        """Un-index an app.  Only the buckets its signatures are filed
        under are filtered, each once, so the cost follows the app, not
        the index size; the other apps' entries keep their order."""
        sigs = self.by_app.pop(app_name, None)
        if sigs is None:
            return
        touched: dict[tuple[int, object], dict] = {}
        for sig in sigs:
            for mapping, key in self._postings(sig):
                touched[id(mapping), key] = mapping
        for (_, key), mapping in touched.items():
            kept = [s for s in mapping[key] if s.app_name != app_name]
            if kept:
                mapping[key] = kept
            else:
                del mapping[key]

    # ------------------------------------------------------------------
    # Candidate retrieval

    def candidates(
        self,
        sig: RuleSignature,
        exclude_app: str | None = None,
        prescreen=None,
    ) -> list[RuleSignature]:
        """Installed rules that could form a threat pair with ``sig``,
        deduplicated, in index insertion order per bucket.

        ``prescreen`` is an optional ``(other) -> bool`` predicate run
        once per deduplicated candidate; candidates it rejects are
        dropped from the result (the caller counts rejections)."""
        env = sig.environment
        found: dict[str, RuleSignature] = {}

        def take(bucket: list[RuleSignature] | None) -> None:
            if not bucket:
                return
            for other in bucket:
                if other.app_name == exclude_app:
                    continue
                found.setdefault(other.rule_id, other)

        # sig's action against installed rules' actuators / triggers /
        # conditions.  Direct trigger/condition lookups need the
        # command's written attribute: a command without a modeled
        # target (e.g. `refresh`) changes no subscribed or read state,
        # so only the writer (AR) bucket applies.
        if sig.is_device_action:
            if sig.action_identity is not None:
                take(self.writers_by_identity.get(sig.action_identity))
                if sig.command_target is not None:
                    attr_key = (sig.action_identity, sig.command_target[0])
                    take(self.triggers_by_identity_attr.get(attr_key))
                    take(self.conditions_by_identity_attr.get(attr_key))
            for channel, effect in sig.action_effects.items():
                take(
                    self.movers_by_channel_effect.get(
                        (env, channel, effect.opposite.value)
                    )
                )
                take(self.triggers_by_channel.get((env, channel)))
                take(self.conditions_by_channel.get((env, channel)))
        if sig.sets_location_mode:
            take(self.mode_conditions.get(env))
        # Installed rules' actions against sig's trigger / condition:
        # a direct hit needs a writer of exactly the subscribed / read
        # (identity, attribute) pair.
        if sig.trigger_fireable:
            if (
                sig.trigger_identity is not None
                and sig.trigger_attribute is not None
            ):
                take(self.writers_by_identity_attr.get(
                    (sig.trigger_identity, sig.trigger_attribute)
                ))
            if sig.trigger_has_device and sig.trigger_channel is not None:
                take(self.movers_by_channel.get((env, sig.trigger_channel)))
        for read in sig.condition_reads:
            take(self.writers_by_identity_attr.get(
                (read.identity, read.attr.attribute)
            ))
            if read.channel is not None:
                take(self.movers_by_channel.get((env, read.channel)))
        if sig.condition_uses_mode:
            take(self.mode_writers.get(env))
        if prescreen is None:
            return list(found.values())
        return [other for other in found.values() if prescreen(other)]
