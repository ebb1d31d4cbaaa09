"""Persistent, environment-sharded detection store (DESIGN.md §8).

The paper's engine pre-stores its M_AR / M_GC mappings so repeated
audits are cheap (§VI); this module extends that idea across *process
boundaries*: everything a :class:`~repro.detector.pipeline
.DetectionPipeline` learned during an audit — the per-rule
:class:`~repro.detector.signature.RuleSignature` facts, the inverted
:class:`~repro.detector.index.RuleIndex` buckets, and the engine's
situation/condition/effect solve caches — is serialized to a versioned
on-disk store, so a fresh process can *warm-start* and re-audit an
unchanged 5k-app store with **zero solver calls** while reporting the
exact same threat set as the cold run.

On-disk format (schema version 3)
---------------------------------

A store is a set of named documents plus an append-only journal,
persisted through a pluggable :class:`~repro.detector.storage
.StoreBackend` (DESIGN.md §14).  Under the default
:class:`~repro.detector.storage.DirectoryBackend` that is a
directory::

    <store>/
      meta.json         # format marker, schema version, app directory
      shard-000002-0000.json   # one file per environment (home)
      shard-000002-0001.json
      journal.jsonl     # per-commit delta records since the base
      ...

(the ``"sqlite"`` backend packs the same documents and journal into
one shareable WAL-mode database file instead).

``meta.json`` holds ``{"format", "schema", "generation", "apps": {app:
{"environment", "fingerprint"}}, "shards": {environment: filename},
"frontend": {...}}`` — the app directory is ordered by installation,
and ``frontend`` is an opaque blob the companion app uses for its
configuration recorder, Allowed list and review/decision history (past
install screens and the user's keep/delete choices re-render after a
warm restart; see :meth:`repro.service.home.TenantHome.save_store`).

Each shard file carries one environment's slice of the detection state:
the serialized rulesets (loss-free, via :mod:`repro.rules
.serialization`), the per-rule signature records, and every solve-cache
entry whose rules live in that home.  Sharding is the multi-home fleet
story: a controller restoring a single home's install parses one shard
file, not the whole snapshot (:meth:`DetectionStore.load` takes an
``environments`` filter, and :meth:`DetectionStore.load_shard_index`
rebuilds one home's index directly).

Delta snapshots and compaction
------------------------------

:meth:`DetectionStore.save` rewrites the full snapshot (the *base*);
:meth:`DetectionStore.commit_app` appends one compact delta record per
keep/delete decision to the journal instead — O(changed app), not
O(store).  :meth:`DetectionStore.load` replays the journal's longest
consistent prefix over the base (see :mod:`repro.detector.storage
.journal` for the record format and crash-recovery semantics), and a
size-triggered **compaction** (or an explicit :meth:`DetectionStore
.compact`) folds the journal back into fresh base shards, garbage-
collecting deleted-app and decided-session debris.  Replay is exactly
equivalent to the eager full-rewrite path, so compaction never changes
what a load observes.

Warm-start invalidation rules
-----------------------------

Stale results are never served.  A persisted app's cached state is used
only when **all** of the following hold, and transparent re-signing
(plus re-solving) happens otherwise:

* the store's ``format`` marker and ``schema`` version match exactly —
  otherwise the whole snapshot is ignored (cold start);
* the app's shard file is present and parseable — corrupted or missing
  shards degrade only their own apps to re-signing;
* the app's *fingerprint* matches: a SHA-256 over the serialized rules,
  the signature records derived under the **current** resolver
  bindings, and the resolver-pinned input values.  Any change to the
  rules, the device bindings (identities/types/environments), or the
  configured input values changes the fingerprint, so re-binding an
  app re-solves every pair that touches it.

Solve-cache entries are imported only when every rule id they mention
belongs to a fingerprint-validated app (see
:meth:`~repro.detector.engine.DetectionEngine.import_caches`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.constraints.builder import DeviceResolver, environment_of
from repro.detector.engine import app_of_rule_id
from repro.detector.index import RuleIndex, ShardedRuleIndex
from repro.detector.pipeline import DetectionPipeline
from repro.detector.signature import RuleSignature, SignatureBuilder
from repro.detector.storage import StoreBackend, make_store_backend
from repro.detector.storage import journal as journal_format
from repro.detector.types import ThreatReport
from repro.rules.model import RuleSet
from repro.rules.serialization import rule_from_json, rule_to_json
from repro.symex.values import SymExpr, UserInput

STORE_FORMAT = "homeguard-detection-store"
# v3: per-commit delta journals + pluggable backends (DESIGN.md §14) —
# shard payloads dropped the persisted index buckets (re-signed on
# load instead), so v2 readers must reject v3 stores and vice versa.
SCHEMA_VERSION = 3

_META_FILE = "meta.json"
_JOURNAL_FILE = "journal.jsonl"


# ----------------------------------------------------------------------
# Signature records and binding fingerprints


def signature_record(sig: RuleSignature) -> dict:
    """A :class:`RuleSignature`'s derived fields as a JSON-able record.

    This is the persisted form of a signature: everything the candidate
    tests read, minus the live :class:`~repro.rules.model.Rule` object
    (rules are persisted separately, loss-free).  The record doubles as
    the binding-sensitive part of the app fingerprint — identities,
    environments, channels and effects all come from the resolver, so
    any re-binding changes the record."""
    return {
        "rule_id": sig.rule_id,
        "environment": sig.environment,
        "is_device_action": sig.is_device_action,
        "sets_location_mode": sig.sets_location_mode,
        "action_identity": sig.action_identity,
        "action_type": sig.action_type,
        "command_target": (
            list(sig.command_target) if sig.command_target else None
        ),
        "action_effects": {
            channel: effect.value
            for channel, effect in sorted(sig.action_effects.items())
        },
        "trigger_fireable": sig.trigger_fireable,
        "trigger_identity": sig.trigger_identity,
        "trigger_attribute": sig.trigger_attribute,
        "trigger_has_device": sig.trigger_has_device,
        "trigger_channel": sig.trigger_channel,
        "trigger_bounds": [
            [op, value] for op, value in sig.trigger_bounds
        ],
        "condition_reads": [
            {
                "identity": read.identity,
                "device": read.attr.device.name,
                "capability": read.attr.device.capability,
                "attribute": read.attr.attribute,
                "channel": read.channel,
            }
            for read in sig.condition_reads
        ],
        "condition_uses_mode": sig.condition_uses_mode,
    }


def _pinned_inputs(resolver: DeviceResolver, ruleset: RuleSet) -> dict:
    """The resolver-configured values for every user input the app's
    trigger/condition constraints read — the same set
    :meth:`ConstraintBuilder._input_pins` pins at solve time, so a
    value change invalidates cached solves via the fingerprint."""
    exprs: list[SymExpr] = []
    for rule in ruleset.rules:
        if rule.trigger.constraint is not None:
            exprs.append(rule.trigger.constraint)
        exprs.extend(rule.condition.predicate_constraints)
        exprs.extend(c.value for c in rule.condition.data_constraints)
    names: set[str] = set()
    for expr in exprs:
        for node in expr.walk():
            if isinstance(node, UserInput):
                names.add(node.name)
    return {
        name: repr(resolver.input_value(ruleset.app_name, name))
        for name in sorted(names)
    }


def app_fingerprint(
    resolver: DeviceResolver,
    ruleset: RuleSet,
    sigs: Iterable[RuleSignature],
) -> str:
    """SHA-256 binding fingerprint of one installed app.

    Covers the rules themselves (loss-free JSON), the signature records
    under the current resolver bindings, and the pinned input values —
    the three inputs that determine every detection verdict involving
    the app.  A mismatch against the persisted fingerprint forces
    re-signing and re-solving (DESIGN.md §8)."""
    document = {
        "rules": [rule_to_json(rule) for rule in ruleset.rules],
        "signatures": [signature_record(sig) for sig in sigs],
        "inputs": _pinned_inputs(resolver, ruleset),
    }
    canonical = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Snapshot (parsed store content)


@dataclass(slots=True)
class StoreSnapshot:
    """Parsed content of a store directory (possibly a shard subset)."""

    schema: int
    apps: dict[str, dict]      # app -> {"environment", "fingerprint"}
    shards: dict[str, dict]    # environment -> parsed shard payload
    frontend: dict = field(default_factory=dict)

    def environment(self, app_name: str) -> str | None:
        record = self.apps.get(app_name)
        return None if record is None else record.get("environment", "")

    def fingerprint(self, app_name: str) -> str | None:
        """The persisted fingerprint, or ``None`` when the app is
        unknown *or* its shard was not loaded (treated as stale)."""
        record = self.apps.get(app_name)
        if record is None:
            return None
        if record.get("environment", "") not in self.shards:
            return None
        return record.get("fingerprint")

    def rulesets(self) -> dict[str, RuleSet]:
        """Decode the persisted rulesets of every loaded shard, in
        installation (app-directory) order.

        Structurally malformed app entries (valid JSON, broken shape —
        e.g. a bit-flipped shard that still parses) are skipped: the
        app simply does not restore, which is the documented degraded
        mode, never a crash."""
        decoded: dict[str, RuleSet] = {}
        for app_name, record in self.apps.items():
            if not isinstance(record, dict):
                continue
            shard = self.shards.get(record.get("environment", ""))
            if shard is None:
                continue
            try:
                entry = shard.get("apps", {}).get(app_name)
                if entry is None:
                    continue
                decoded[app_name] = RuleSet(
                    app_name=app_name,
                    rules=[
                        rule_from_json(r) for r in entry.get("ruleset", [])
                    ],
                )
            except Exception:
                continue
        return decoded

    def cache_payloads(self) -> list[dict]:
        return [shard.get("caches", {}) for shard in self.shards.values()]


@dataclass(slots=True)
class WarmStart:
    """Outcome of :meth:`DetectionStore.warm_start` /
    :meth:`DetectionStore.restore_into`."""

    pipeline: DetectionPipeline
    reports: list[ThreatReport]
    warm_apps: list[str]      # fingerprint-validated, caches served
    stale_apps: list[str]     # re-signed and re-solved transparently
    cold: bool = False        # no usable snapshot at all


@dataclass(slots=True)
class StoreCommit:
    """Receipt of one :meth:`DetectionStore.commit_app`: what the
    backend durably wrote and how long the commit took — the source of
    the ``store_bytes_written`` / ``store_commit_seconds`` counters."""

    bytes_written: int
    seconds: float
    compacted: bool = False   # this commit triggered a compaction
    full: bool = False        # fell back to a full snapshot rewrite


@dataclass(slots=True)
class _JournalState:
    """In-process journal bookkeeping for the delta-commit path: the
    base generation being extended, the next record sequence number,
    size counters for the compaction trigger, and the set of cache
    keys currently persisted (base + journal) per cache kind, which is
    what turns the engine's full cache export into a delta."""

    base: int
    next_seq: int
    records: int
    bytes: int
    persisted: dict[str, set[tuple]]


# ----------------------------------------------------------------------
# The store


class DetectionStore:
    """Versioned on-disk persistence for a detection pipeline.

    See the module docstring for the on-disk format and the warm-start
    invalidation rules.  All read paths are defensive: a missing,
    corrupted or version-mismatched store degrades to a cold start (or
    per-shard to re-signing), never to a crash or a stale result."""

    #: Compaction triggers: a commit that grows the journal past either
    #: bound folds it back into fresh base shards.  Class attributes so
    #: deployments (and tests) can tune them per store instance.
    journal_max_records = 64
    journal_max_bytes = 1 << 20

    def __init__(
        self,
        path: str | Path,
        backend: "str | StoreBackend | None" = None,
        delta: bool = True,
    ) -> None:
        self.path = Path(path)
        self.backend = make_store_backend(backend, self.path)
        #: When ``False``, :meth:`commit_app` always rewrites the full
        #: snapshot (the pre-§14 eager behavior) — the reference arm the
        #: equivalence gates and benchmarks compare the delta path to.
        self.delta = delta
        self._journal: _JournalState | None = None
        # app -> (ruleset, signatures, pinned-inputs json, fingerprint):
        # repeated saves (one per commit) skip re-hashing apps whose
        # signed state did not change.
        self._fingerprint_memo: dict[str, tuple] = {}

    def exists(self) -> bool:
        return self.backend.has_doc(_META_FILE)

    def _fingerprint(
        self,
        resolver: DeviceResolver,
        ruleset: RuleSet,
        sigs: list[RuleSignature],
    ) -> str:
        """Memoizing :func:`app_fingerprint`.

        Signatures are immutable and re-signed (as new objects) on any
        binding change, so identity of the ruleset + signature objects
        plus the pinned input values decides whether the cached hash is
        still the truth."""
        pins = json.dumps(_pinned_inputs(resolver, ruleset), sort_keys=True)
        memo = self._fingerprint_memo.get(ruleset.app_name)
        if memo is not None:
            memo_ruleset, memo_sigs, memo_pins, memo_fp = memo
            if (
                memo_ruleset is ruleset
                and memo_pins == pins
                and len(memo_sigs) == len(sigs)
                and all(a is b for a, b in zip(memo_sigs, sigs))
            ):
                return memo_fp
        fingerprint = app_fingerprint(resolver, ruleset, sigs)
        self._fingerprint_memo[ruleset.app_name] = (
            ruleset, list(sigs), pins, fingerprint,
        )
        return fingerprint

    def _write_atomic(self, filename: str, payload: dict) -> int:
        return self.backend.write_doc(
            filename, json.dumps(payload, default=str)
        )

    # ------------------------------------------------------------------
    # Saving

    def save(
        self,
        pipeline: DetectionPipeline,
        rulesets: Mapping[str, RuleSet] | None = None,
        frontend: dict | None = None,
    ) -> int:
        """Snapshot a pipeline's installed state to the store; returns
        the bytes durably written (the full-rewrite cost the delta path
        is benchmarked against).

        ``rulesets`` optionally supplies the exact extracted rule sets
        (e.g. with their input declarations); when omitted they are
        reconstructed from the installed signatures.  ``frontend`` is an
        opaque JSON-able blob returned verbatim on load (the companion
        app persists its configuration recorder there).

        Shard documents carry a *generation* number and ``meta.json``
        is replaced atomically only after every shard of the new
        generation is durable, so a crash mid-save always leaves the
        previous snapshot intact (plus harmless orphan documents the
        next save cleans up).  A successful save is also a
        **compaction**: the journal's records are superseded by the new
        base (their ``base`` generation is now stale), so the journal
        is dropped and the delta state reset."""
        resolver = pipeline.engine.resolver
        previous_generation = -1
        try:
            meta_text = self.backend.read_doc(_META_FILE)
            if meta_text is not None:
                previous_meta = json.loads(meta_text)
                previous_generation = int(
                    previous_meta.get("generation", -1)
                )
        except (ValueError, TypeError, AttributeError):
            pass
        generation = previous_generation + 1
        bytes_written = 0
        installed = pipeline.installed_signatures()
        # Group apps by environment, preserving installation order.
        apps_by_env: dict[str, list[str]] = {}
        env_of_app: dict[str, str] = {}
        for app_name, sigs in installed.items():
            env = sigs[0].environment if sigs else ""
            env_of_app[app_name] = env
            apps_by_env.setdefault(env, []).append(app_name)

        # Route solve-cache entries to the shard of their first app;
        # entries touching a non-installed (staged/discarded) app are
        # not persisted.
        caches_by_env: dict[str, dict[str, list]] = {
            env: {"situation": [], "condition": [], "effect": []}
            for env in apps_by_env
        }
        for kind, entries in pipeline.engine.export_caches().items():
            for rule_ids, result in entries:
                apps = [app_of_rule_id(rule_id) for rule_id in rule_ids]
                if any(app not in env_of_app for app in apps):
                    continue
                caches_by_env[env_of_app[apps[0]]][kind].append(
                    [rule_ids, result]
                )

        meta_apps: dict[str, dict] = {}
        shard_files: dict[str, str] = {}
        for position, (env, app_names) in enumerate(apps_by_env.items()):
            shard_apps: dict[str, dict] = {}
            for app_name in app_names:
                sigs = installed[app_name]
                if rulesets is not None and app_name in rulesets:
                    ruleset = rulesets[app_name]
                else:
                    ruleset = RuleSet(
                        app_name=app_name, rules=[s.rule for s in sigs]
                    )
                fingerprint = self._fingerprint(resolver, ruleset, sigs)
                meta_apps[app_name] = {
                    "environment": env,
                    "fingerprint": fingerprint,
                }
                shard_apps[app_name] = {
                    "fingerprint": fingerprint,
                    "ruleset": [rule_to_json(r) for r in ruleset.rules],
                    "signatures": [signature_record(s) for s in sigs],
                }
            filename = f"shard-{generation:06d}-{position:04d}.json"
            shard_files[env] = filename
            payload = {
                "environment": env,
                "apps": shard_apps,
                "caches": caches_by_env[env],
            }
            bytes_written += self._write_atomic(filename, payload)
        # Installation order must survive the per-shard grouping above.
        meta_apps = {
            app_name: meta_apps[app_name]
            for app_name in installed
        }
        meta = {
            "format": STORE_FORMAT,
            "schema": SCHEMA_VERSION,
            "generation": generation,
            "apps": meta_apps,
            "shards": shard_files,
            "frontend": frontend or {},
        }
        # The atomic meta replacement is the commit point: until it
        # lands, readers see the previous generation's snapshot; the
        # new generation's shard documents are inert orphans.
        bytes_written += self._write_atomic(_META_FILE, meta)
        # The journal is superseded: any surviving records pin the old
        # base generation and would be inert on replay anyway.
        self.backend.delete(_JOURNAL_FILE)
        # Drop documents the fresh meta no longer references (previous
        # generations, leftover temporaries from crashed saves).
        keep = set(shard_files.values())
        for stale in self.backend.list_docs("shard-"):
            if stale not in keep:
                self.backend.delete(stale)
        self.backend.sweep()
        self._journal = _JournalState(
            base=generation,
            next_seq=0,
            records=0,
            bytes=0,
            persisted={
                kind: {
                    tuple(entry[0])
                    for env in caches_by_env
                    for entry in caches_by_env[env][kind]
                }
                for kind in journal_format.CACHE_KINDS
            },
        )
        return bytes_written

    # ------------------------------------------------------------------
    # Delta commits and compaction

    def _init_journal(self) -> None:
        """Seed the in-process delta state from whatever is durable:
        base generation, surviving journal prefix length, and the set
        of cache keys the store currently persists per kind."""
        loaded = self._load()
        if loaded is None:
            self._journal = None
            return
        snapshot, next_seq, journal_bytes, generation, _failed = loaded
        persisted: dict[str, set[tuple]] = {
            kind: set() for kind in journal_format.CACHE_KINDS
        }
        for shard in snapshot.shards.values():
            caches = shard.get("caches", {})
            for kind in journal_format.CACHE_KINDS:
                for entry in caches.get(kind, []):
                    persisted[kind].add(tuple(entry[0]))
        self._journal = _JournalState(
            base=generation,
            next_seq=next_seq,
            records=next_seq,
            bytes=journal_bytes,
            persisted=persisted,
        )

    def commit_app(
        self,
        pipeline: DetectionPipeline,
        app_name: str,
        *,
        rulesets: Mapping[str, RuleSet] | None = None,
        frontend: dict | None = None,
        remove: bool = False,
    ) -> StoreCommit:
        """Durably record one keep/delete decision — O(changed app),
        not O(store).

        Appends a single delta record to the journal: the committed
        app's rules/signatures/fingerprint plus the solve-cache entries
        that appeared or vanished since the last durable state (or a
        removal marker with the cache keys the app took with it).  A
        load that replays the record observes exactly the state a full
        :meth:`save` would have written.  Falls back to a full save
        when delta mode is off or there is no usable base snapshot yet,
        and folds the journal into a fresh base (compaction) when it
        outgrows ``journal_max_records`` / ``journal_max_bytes``."""
        start = time.perf_counter()
        if not self.delta:
            written = self.save(pipeline, rulesets=rulesets, frontend=frontend)
            return StoreCommit(
                written, time.perf_counter() - start, full=True
            )
        if self._journal is None:
            self._init_journal()
        if self._journal is None:
            # No base to delta against — the first commit seeds one.
            written = self.save(pipeline, rulesets=rulesets, frontend=frontend)
            return StoreCommit(
                written, time.perf_counter() - start, full=True
            )
        state = self._journal
        installed = pipeline.installed_signatures()
        frontend_blob = frontend or {}
        if remove or app_name not in installed:
            record = journal_format.remove_record(
                state.next_seq, state.base, app_name, frontend_blob
            )
            prefix = f"{app_name}/"
            for kind in journal_format.CACHE_KINDS:
                state.persisted[kind] = {
                    key
                    for key in state.persisted[kind]
                    if not any(
                        isinstance(rule_id, str)
                        and rule_id.startswith(prefix)
                        for rule_id in key
                    )
                }
        else:
            sigs = installed[app_name]
            environment = sigs[0].environment if sigs else ""
            if rulesets is not None and app_name in rulesets:
                ruleset = rulesets[app_name]
            else:
                ruleset = RuleSet(
                    app_name=app_name, rules=[s.rule for s in sigs]
                )
            fingerprint = self._fingerprint(
                pipeline.engine.resolver, ruleset, sigs
            )
            # Diff the engine's cache export against what is already
            # persisted.  Adds keep export order (= engine insertion
            # order = the order an eager save writes); drops are sorted
            # for deterministic record bytes (replay treats them as a
            # set, so order carries no meaning).
            cache_add: dict[str, list] = {}
            cache_drop: dict[str, list] = {}
            for kind, entries in pipeline.engine.export_caches().items():
                eligible: dict[tuple, list] = {}
                for rule_ids, result in entries:
                    apps = [app_of_rule_id(r) for r in rule_ids]
                    if any(app not in installed for app in apps):
                        continue
                    eligible[tuple(rule_ids)] = [rule_ids, result]
                persisted = state.persisted.setdefault(kind, set())
                cache_add[kind] = [
                    entry
                    for key, entry in eligible.items()
                    if key not in persisted
                ]
                cache_drop[kind] = sorted(
                    list(key) for key in persisted if key not in eligible
                )
                state.persisted[kind] = set(eligible)
            record = journal_format.commit_record(
                state.next_seq,
                state.base,
                app_name,
                environment,
                fingerprint,
                [rule_to_json(rule) for rule in ruleset.rules],
                [signature_record(sig) for sig in sigs],
                cache_add,
                cache_drop,
                frontend_blob,
            )
        line = json.dumps(record, default=str)
        written = self.backend.append_journal(_JOURNAL_FILE, line)
        state.next_seq += 1
        state.records += 1
        state.bytes += written
        compacted = False
        if (
            state.records >= self.journal_max_records
            or state.bytes >= self.journal_max_bytes
        ):
            # Fold the journal into a fresh base.  save() recomputes
            # from the live pipeline — the source of truth the journal
            # replay is provably equivalent to — and resets the state.
            written += self.save(
                pipeline, rulesets=rulesets, frontend=frontend
            )
            compacted = True
        return StoreCommit(
            written, time.perf_counter() - start, compacted=compacted
        )

    def commit_frontend(
        self,
        pipeline: DetectionPipeline,
        frontend: dict,
        *,
        rulesets: Mapping[str, RuleSet] | None = None,
    ) -> StoreCommit:
        """Durably record a frontend-blob-only change — O(blob), no
        shard or directory edits.

        The delta path for state that lives entirely in the opaque
        frontend blob, e.g. the runtime monitor's observation ledger
        (DESIGN.md §16): one ``frontend`` journal record replaces the
        blob on replay and touches nothing else.  Falls back to a full
        save when delta mode is off or no base snapshot exists yet, and
        compacts on the same journal bounds as :meth:`commit_app`
        (``rulesets`` feeds that fallback/compaction save)."""
        start = time.perf_counter()
        if not self.delta:
            written = self.save(pipeline, rulesets=rulesets, frontend=frontend)
            return StoreCommit(
                written, time.perf_counter() - start, full=True
            )
        if self._journal is None:
            self._init_journal()
        if self._journal is None:
            written = self.save(pipeline, rulesets=rulesets, frontend=frontend)
            return StoreCommit(
                written, time.perf_counter() - start, full=True
            )
        state = self._journal
        record = journal_format.frontend_record(
            state.next_seq, state.base, frontend or {}
        )
        line = json.dumps(record, default=str)
        written = self.backend.append_journal(_JOURNAL_FILE, line)
        state.next_seq += 1
        state.records += 1
        state.bytes += written
        compacted = False
        if (
            state.records >= self.journal_max_records
            or state.bytes >= self.journal_max_bytes
        ):
            written += self.save(
                pipeline, rulesets=rulesets, frontend=frontend
            )
            compacted = True
        return StoreCommit(
            written, time.perf_counter() - start, compacted=compacted
        )

    def compact(self) -> bool:
        """Offline compaction: fold the durable base + journal into a
        fresh base generation without a live pipeline (the janitor /
        startup path), garbage-collecting deleted-app debris and
        orphan documents.  Returns ``False`` — changing nothing — when
        there is no usable snapshot or when a base shard is corrupt
        (folding then would make the degradation permanent: those apps
        currently re-sign transparently, and must keep doing so)."""
        loaded = self._load()
        if loaded is None:
            return False
        snapshot, _next_seq, _journal_bytes, generation, failed = loaded
        if failed:
            return False
        new_generation = generation + 1
        apps_by_env: dict[str, list[str]] = {}
        for app_name, app_record in snapshot.apps.items():
            if not isinstance(app_record, dict):
                continue
            env = app_record.get("environment", "")
            apps_by_env.setdefault(env, []).append(app_name)
        meta_apps: dict[str, dict] = {}
        shard_files: dict[str, str] = {}
        position = 0
        for env, app_names in apps_by_env.items():
            source = snapshot.shards.get(env)
            if source is None:
                continue  # directory debris without a shard: GC'd
            shard_apps: dict[str, dict] = {}
            for app_name in app_names:
                entry = source.get("apps", {}).get(app_name)
                if entry is None:
                    continue  # listed but absent from the shard: GC'd
                shard_apps[app_name] = entry
                meta_apps[app_name] = {
                    "environment": env,
                    "fingerprint": snapshot.apps[app_name].get(
                        "fingerprint"
                    ),
                }
            if not shard_apps:
                continue
            filename = f"shard-{new_generation:06d}-{position:04d}.json"
            position += 1
            shard_files[env] = filename
            self._write_atomic(
                filename,
                {
                    "environment": env,
                    "apps": shard_apps,
                    "caches": source.get(
                        "caches", journal_format.empty_caches()
                    ),
                },
            )
        meta_apps = {
            app_name: meta_apps[app_name]
            for app_name in snapshot.apps
            if app_name in meta_apps
        }
        self._write_atomic(
            _META_FILE,
            {
                "format": STORE_FORMAT,
                "schema": SCHEMA_VERSION,
                "generation": new_generation,
                "apps": meta_apps,
                "shards": shard_files,
                "frontend": snapshot.frontend,
            },
        )
        self.backend.delete(_JOURNAL_FILE)
        keep = set(shard_files.values())
        for stale in self.backend.list_docs("shard-"):
            if stale not in keep:
                self.backend.delete(stale)
        self.backend.sweep()
        persisted: dict[str, set[tuple]] = {
            kind: set() for kind in journal_format.CACHE_KINDS
        }
        for env in shard_files:
            caches = snapshot.shards[env].get("caches", {})
            for kind in journal_format.CACHE_KINDS:
                for entry in caches.get(kind, []):
                    persisted[kind].add(tuple(entry[0]))
        self._journal = _JournalState(
            base=new_generation,
            next_seq=0,
            records=0,
            bytes=0,
            persisted=persisted,
        )
        return True

    # ------------------------------------------------------------------
    # Loading

    def _load(
        self, environments: Iterable[str] | None = None
    ) -> "tuple[StoreSnapshot, int, int, int, set[str]] | None":
        """Parse base snapshot + journal replay; ``None`` when the
        store is missing, corrupted, or a different schema version.

        Returns ``(snapshot, next_seq, journal_bytes, generation,
        failed_environments)`` — the extra fields seed
        :meth:`_init_journal` so fresh commits extend the surviving
        consistent prefix, and let :meth:`compact` refuse to fold over
        a base shard that no longer parses."""
        meta_text = self.backend.read_doc(_META_FILE)
        if meta_text is None:
            return None
        try:
            meta = json.loads(meta_text)
        except ValueError:
            return None
        if not isinstance(meta, dict):
            return None
        if meta.get("format") != STORE_FORMAT:
            return None
        if meta.get("schema") != SCHEMA_VERSION:
            return None
        apps = meta.get("apps")
        shard_files = meta.get("shards")
        if not isinstance(apps, dict) or not isinstance(shard_files, dict):
            return None
        try:
            generation = int(meta.get("generation", 0))
        except (ValueError, TypeError):
            generation = 0
        wanted = None if environments is None else set(environments)
        shards: dict[str, dict] = {}
        failed: set[str] = set()
        for env, filename in shard_files.items():
            if wanted is not None and env not in wanted:
                continue
            text = self.backend.read_doc(str(filename))
            if text is None:
                failed.add(env)
                continue  # missing shard: its apps degrade to stale
            try:
                payload = json.loads(text)
            except ValueError:
                failed.add(env)
                continue  # corrupted shard: its apps degrade to stale
            if isinstance(payload, dict):
                shards[env] = payload
            else:
                failed.add(env)
        # Replay the journal's longest consistent prefix over the base:
        # strictly sequential seq for this base generation, parseable
        # JSON, applicable shape.  Anything after the first torn or
        # corrupt record is dropped — the state degrades to the last
        # acknowledged commit, never to a crash or a stale result.
        frontend_box = [meta.get("frontend") or {}]
        next_seq = 0
        journal_bytes = 0
        for line in self.backend.read_journal(_JOURNAL_FILE):
            try:
                record = json.loads(line)
            except ValueError:
                break
            if not isinstance(record, dict):
                break
            if record.get("base") != generation:
                # A record from before the last compaction: inert (its
                # state is already folded into the base), skip it.
                journal_bytes += len(line.encode("utf-8")) + 1
                continue
            if record.get("seq") != next_seq:
                break
            try:
                journal_format.apply_record(
                    record, apps, shards, frontend_box, wanted
                )
            except Exception:
                break
            next_seq += 1
            journal_bytes += len(line.encode("utf-8")) + 1
        snapshot = StoreSnapshot(
            schema=int(meta["schema"]),
            apps=apps,
            shards=shards,
            frontend=frontend_box[0],
        )
        return snapshot, next_seq, journal_bytes, generation, failed

    def load(
        self, environments: Iterable[str] | None = None
    ) -> StoreSnapshot | None:
        """Parse the store (base snapshot plus journal replay), or
        ``None`` when it is missing, corrupted, or written by a
        different schema version.

        ``environments`` restricts parsing to the named shards — the
        multi-home fleet path where one install should not pay for the
        whole snapshot.  Apps whose shard is not loaded validate as
        stale (their fingerprints report ``None``)."""
        loaded = self._load(environments)
        return None if loaded is None else loaded[0]

    def load_shard_index(
        self, environment: str, resolver: DeviceResolver
    ) -> tuple[dict[str, RuleSet], RuleIndex] | None:
        """Rebuild a single home's rulesets and inverted index straight
        from its shard — the per-home query path: nothing outside the
        shard (plus the journal tail) is read, and the index buckets
        are re-derived by re-signing under the *current* resolver, so
        they can never disagree with the live bindings."""
        snapshot = self.load(environments=[environment])
        if snapshot is None or environment not in snapshot.shards:
            return None
        rulesets = snapshot.rulesets()
        index = RuleIndex()
        builder = SignatureBuilder(resolver)
        for ruleset in rulesets.values():
            index.add_ruleset(builder.sign_ruleset(ruleset))
        return rulesets, index

    # ------------------------------------------------------------------
    # Warm start

    def _validate(
        self,
        pipeline: DetectionPipeline,
        snapshot: StoreSnapshot,
        rulesets: Iterable[RuleSet],
    ) -> tuple[list[str], list[str]]:
        """Split apps into warm (persisted fingerprint matches the
        current bindings) and stale (everything else)."""
        resolver = pipeline.engine.resolver
        warm: list[str] = []
        stale: list[str] = []
        for ruleset in rulesets:
            sigs = pipeline.engine.signatures.sign_ruleset(ruleset)
            recorded = snapshot.fingerprint(ruleset.app_name)
            if recorded is not None and recorded == app_fingerprint(
                resolver, ruleset, sigs
            ):
                warm.append(ruleset.app_name)
            else:
                stale.append(ruleset.app_name)
        return warm, stale

    def warm_start(
        self,
        resolver: DeviceResolver,
        rulesets: list[RuleSet] | None = None,
        include_intra_app: bool = True,
        index: RuleIndex | ShardedRuleIndex | None = None,
    ) -> WarmStart:
        """Replay a full store audit on a fresh pipeline, serving every
        solve of fingerprint-validated apps from the persisted caches.

        With an unchanged store the replay performs **zero** solver
        calls and reports a threat set identical to the cold audit; apps
        whose bindings changed (and pairs touching them) re-solve
        transparently.  ``rulesets`` defaults to the persisted ones, so
        a bare ``warm_start(resolver)`` re-audits the stored fleet."""
        pipeline = DetectionPipeline(
            resolver,
            include_intra_app=include_intra_app,
            index=ShardedRuleIndex() if index is None else index,
        )
        environments = None
        if rulesets is not None:
            environments = {
                environment_of(resolver, ruleset.app_name)
                for ruleset in rulesets
            }
        snapshot = self.load(environments=environments)
        if snapshot is None:
            audited = list(rulesets) if rulesets is not None else []
            return WarmStart(
                pipeline=pipeline,
                reports=pipeline.audit_store(audited),
                warm_apps=[],
                stale_apps=[ruleset.app_name for ruleset in audited],
                cold=True,
            )
        if rulesets is None:
            rulesets = list(snapshot.rulesets().values())
        warm, stale = self._validate(pipeline, snapshot, rulesets)
        valid = set(warm)
        for payload in snapshot.cache_payloads():
            pipeline.engine.import_caches(payload, valid)
        reports = pipeline.audit_store(rulesets)
        return WarmStart(
            pipeline=pipeline,
            reports=reports,
            warm_apps=warm,
            stale_apps=stale,
            cold=False,
        )

    def restore_into(
        self,
        pipeline: DetectionPipeline,
        rulesets: list[RuleSet] | None = None,
        snapshot: StoreSnapshot | None = None,
    ) -> WarmStart:
        """Load the persisted installation state into an existing (live)
        pipeline without re-reviewing warm apps.

        Fingerprint-validated apps are installed via
        :meth:`DetectionPipeline.restore_ruleset` (no detection, no
        solver calls — their past reviews were already decided); stale
        apps are re-audited through :meth:`DetectionPipeline.add_ruleset`
        and their fresh reports returned.  This is the companion app's
        load-on-startup path.  ``snapshot`` lets a caller that already
        parsed the store (e.g. for its frontend blob) skip a re-read.

        With no usable snapshot, any passed rulesets are still audited
        cold (all stale) — same degradation as :meth:`warm_start`."""
        if snapshot is None:
            snapshot = self.load()
        if snapshot is None:
            audited = list(rulesets) if rulesets is not None else []
            return WarmStart(
                pipeline=pipeline,
                reports=[pipeline.add_ruleset(r) for r in audited],
                warm_apps=[],
                stale_apps=[r.app_name for r in audited],
                cold=True,
            )
        if rulesets is None:
            rulesets = list(snapshot.rulesets().values())
        warm, stale = self._validate(pipeline, snapshot, rulesets)
        valid = set(warm)
        for payload in snapshot.cache_payloads():
            pipeline.engine.import_caches(payload, valid)
        reports: list[ThreatReport] = []
        for ruleset in rulesets:
            if ruleset.app_name in valid:
                pipeline.restore_ruleset(ruleset)
            else:
                reports.append(pipeline.add_ruleset(ruleset))
        return WarmStart(
            pipeline=pipeline,
            reports=reports,
            warm_apps=warm,
            stale_apps=stale,
            cold=False,
        )
