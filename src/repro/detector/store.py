"""Persistent, environment-sharded detection store (DESIGN.md §8).

The paper's engine pre-stores its M_AR / M_GC mappings so repeated
audits are cheap (§VI); this module extends that idea across process
boundaries: what a :class:`~repro.detector.pipeline.DetectionPipeline`
learned — the rules, their signature facts and the engine's
situation/condition/effect solve caches — is serialized to a versioned
store, so a fresh process can *warm-start* and re-audit an unchanged
5k-app store with **zero solver calls** and the exact same threats.

On-disk format (schema version 5)
---------------------------------

A store is a set of named documents plus an append-only journal,
persisted through a pluggable :class:`~repro.detector.storage
.StoreBackend` (DESIGN.md §14) — by default a directory holding
``meta.json``, one ``shard-<generation>-<n>.json`` per environment
(home) and ``journal.jsonl``; the ``"sqlite"`` backend packs the same
documents into one shareable WAL-mode database file.

``meta.json`` holds ``{"format", "schema", "generation", "apps": {app:
{"environment", "fingerprint"}}, "shards": {environment: filename},
"frontend": {...}}``; ``frontend`` is the companion app's blob
(configuration recorder, Allowed list, review/decision history,
monitor ledger — see :meth:`repro.service.home.TenantHome
._frontend_blob`), which commits journal as section ops
(:class:`FrontendDelta`), never whole.  Each shard holds one
environment's rulesets (loss-free, :mod:`repro.rules.serialization`),
signature records and the solve-cache entries routed to it, so a
controller restoring one home parses one shard (:meth:`DetectionStore
.load` takes an ``environments`` filter).  The app directory and each
shard's apps stay in installation order — the index, and so candidate
order, follows it after a load — while each cache section is sorted by
key, so its bytes depend on what it holds, never on when an entry was
solved or committed.

:meth:`DetectionStore.save` rewrites the full snapshot (the *base*);
:meth:`DetectionStore.commit_app` and :meth:`DetectionStore
.commit_frontend` append one delta record per commit instead —
O(change), not O(store).  :meth:`DetectionStore.load` replays the
journal's longest consistent prefix over the base (see
:mod:`repro.detector.storage.journal`), exactly equivalent to a full
save after every commit, so a size-triggered **compaction** (or
:meth:`DetectionStore.compact`) that folds the journal into fresh base
shards never changes what a load observes.

Warm-start invalidation rules
-----------------------------

Stale results are never served.  A persisted app's cached state is used
only when **all** of the following hold, and transparent re-signing
(plus re-solving) happens otherwise:

* the store's ``format`` marker and ``schema`` version are ones this
  reader knows — otherwise the whole snapshot is ignored (cold start);
* the app's shard file is present and parseable — corrupted or missing
  shards degrade only their own apps to re-signing;
* the app's *fingerprint* matches: a SHA-256 over the serialized rules,
  the signature records derived under the **current** resolver
  bindings, and the resolver-pinned input values, so re-binding or
  re-configuring an app re-solves every pair that touches it.

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
from typing import Callable, Iterable, Mapping

from repro.constraints.builder import DeviceResolver, environment_of
from repro.detector.engine import app_of_rule_id
from repro.detector.pipeline import DetectionPipeline
from repro.detector.signature import RuleSignature
from repro.detector.storage import (
    StoreBackend,
    StoreWriteError,
    make_store_backend,
)
from repro.detector.storage import journal as journal_format
from repro.detector.types import ThreatReport
from repro.rules.model import RuleSet
from repro.rules.serialization import rule_from_json, rule_to_json
from repro.symex.values import SymExpr, UserInput

STORE_FORMAT = "homeguard-detection-store"
# v3: per-commit delta journals + pluggable backends (DESIGN.md §14) —
# shard payloads dropped the persisted index buckets (re-signed on
# load instead), so v2 readers must reject v3 stores and vice versa.
# v4: journal records carry frontend section ops instead of the whole
# frontend blob.
# v5: every home mutation is a journal record — shard cache sections
# in canonical (key-sorted) order, ``resign`` entries and cache deltas
# on any record, and the ``disallow`` frontend op.  v3 and v4 stores still
# load; their first commit writes a v5 base.
SCHEMA_VERSION = 5
_READABLE_SCHEMAS = (3, 4, 5)

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
class FrontendDelta:
    """One commit's change to the frontend blob: the journal's frontend
    ops that turn the durable blob into the live one (``None`` without
    a durable baseline, which makes the commit a full save), a builder
    of the whole live blob for seed and compaction saves, and a hook
    run once the change is durable (a commit that raises first leaves
    the change to be journaled again)."""

    ops: list | None
    blob: Callable[[], dict]
    on_durable: Callable[[], None]


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
class _Tip:
    """What the store holds after some journal record, as the next
    commit's diff baseline: the cache results per kind and key; per
    directory app, the signatures its entry was written from (or its
    fingerprint, after a load or compaction); and the pipeline's
    :attr:`~DetectionPipeline.changes` count it was taken at."""

    caches: dict[str, dict[tuple, object]]
    signed: dict[str, "list[RuleSignature] | str"]
    changes: int | None


@dataclass(slots=True)
class _JournalState:
    """In-process journal bookkeeping: the base generation being
    extended, the next record sequence number, size counters for the
    compaction trigger and the durable :class:`_Tip`.  ``unwritten``
    holds the records a failed append left for the next commit, each
    with the tip it leads to."""

    base: int
    next_seq: int
    records: int
    bytes: int
    durable: _Tip
    unwritten: list[tuple[dict, _Tip]] = field(default_factory=list)


# ----------------------------------------------------------------------
# The store


def _ruleset_of(
    app_name: str,
    sigs: list[RuleSignature],
    rulesets: Mapping[str, RuleSet] | None,
) -> RuleSet:
    """The exact extracted ruleset when the caller supplied one, else
    one reconstructed from the installed signatures."""
    if rulesets is not None and app_name in rulesets:
        return rulesets[app_name]
    return RuleSet(app_name=app_name, rules=[s.rule for s in sigs])


def _persisted_caches(
    pipeline: DetectionPipeline, installed: Mapping[str, list]
) -> dict[str, dict[tuple, list]]:
    """The engine's solve-cache entries a snapshot persists, per kind,
    by key: those whose rules all belong to installed apps (entries
    touching a staged or discarded app are not persisted)."""
    return {
        kind: {
            tuple(rule_ids): [rule_ids, result]
            for rule_ids, result in entries
            if all(app_of_rule_id(rule_id) in installed for rule_id in rule_ids)
        }
        for kind, entries in pipeline.engine.export_caches().items()
    }


def _fingerprints(apps: Mapping[str, dict]) -> dict[str, str]:
    return {
        app: str(record.get("fingerprint"))
        for app, record in apps.items() if isinstance(record, dict)
    }


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
    ) -> None:
        self.path = Path(path)
        self.backend = make_store_backend(backend, self.path)
        self._journal: _JournalState | None = None
        # app -> (ruleset, signatures, pinned-inputs json, fingerprint):
        # repeated saves (one per commit) skip re-hashing apps whose
        # signed state did not change.
        self._fingerprint_memo: dict[str, tuple] = {}

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

    # ------------------------------------------------------------------
    # Base snapshots

    def _write_doc(self, key: str, text: str) -> int:
        """Write one document; a write the backend dropped (0 bytes)
        raises :class:`StoreWriteError` instead of counting as durable."""
        written = self.backend.write_doc(key, text)
        if not written:
            raise StoreWriteError(f"store document {key!r} was not written")
        return written

    def _write_base(
        self,
        generation: int,
        apps: dict[str, dict],
        shards: dict[str, dict],
        frontend: dict,
        signed: Mapping[str, "list[RuleSignature] | str"],
        changes: int | None = None,
    ) -> int:
        """Write one base generation and return the bytes written;
        ``signed`` and ``changes`` seed the journal's :class:`_Tip`.

        Every shard document lands before ``meta.json``, and the atomic
        meta replacement is the commit point: until it lands, readers
        see the previous generation's snapshot and the new shard
        documents are inert orphans, so a crash mid-write (or a write
        the backend dropped) always leaves the previous snapshot
        intact.  The journal is then superseded (its records pin the
        old base generation), and documents the fresh meta no longer
        references are garbage-collected."""
        write = self._write_doc
        bytes_written = 0
        shard_files: dict[str, str] = {}
        for position, (env, payload) in enumerate(shards.items()):
            filename = f"shard-{generation:06d}-{position:04d}.json"
            shard_files[env] = filename
            bytes_written += write(filename, json.dumps(payload, default=str))
        meta = json.dumps(
            {
                "format": STORE_FORMAT,
                "schema": SCHEMA_VERSION,
                "generation": generation,
                "apps": apps,
                "shards": shard_files,
                "frontend": frontend,
            },
            default=str,
        )
        bytes_written += write(_META_FILE, meta)
        self.backend.delete(_JOURNAL_FILE)
        keep = set(shard_files.values())
        for stale in self.backend.list_docs("shard-"):
            if stale not in keep:
                self.backend.delete(stale)
        self.backend.sweep()
        self._reset_journal(generation, shards.values(), signed, changes)
        return bytes_written

    def _reset_journal(
        self,
        base: int,
        shards: Iterable[dict],
        signed: Mapping[str, "list[RuleSignature] | str"],
        changes: int | None = None,
        next_seq: int = 0,
        journal_bytes: int = 0,
    ) -> None:
        """Point the in-process delta state at ``base``, with the cache
        entries the given shard payloads persist as the diff baseline."""
        caches: dict[str, dict[tuple, object]] = {
            kind: {} for kind in journal_format.CACHE_KINDS
        }
        for shard in shards:
            sections = shard.get("caches", {})
            for kind in journal_format.CACHE_KINDS:
                for rule_ids, result in sections.get(kind, []):
                    caches[kind][tuple(rule_ids)] = result
        self._journal = _JournalState(
            base=base,
            next_seq=next_seq,
            records=next_seq,
            bytes=journal_bytes,
            durable=_Tip(caches, dict(signed), changes),
        )

    def save(
        self,
        pipeline: DetectionPipeline,
        rulesets: Mapping[str, RuleSet] | None = None,
        frontend: dict | None = None,
    ) -> int:
        """Snapshot a pipeline's installed state to the store as a fresh
        base generation; returns the bytes durably written (the
        full-rewrite cost the delta path is benchmarked against).

        ``rulesets`` optionally supplies the exact extracted rule sets
        (e.g. with their input declarations); when omitted they are
        reconstructed from the installed signatures.  ``frontend`` is an
        opaque JSON-able blob returned verbatim on load (the companion
        app persists its configuration recorder there).  A save is also
        a **compaction**: it supersedes the journal (see
        :meth:`_write_base`)."""
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
        installed = pipeline.installed_signatures()
        # One shard per environment, in installation order.
        shards: dict[str, dict] = {}
        apps: dict[str, dict] = {}
        for app_name, sigs in installed.items():
            entry = self._app_entry(pipeline, app_name, sigs, rulesets)
            del entry["app"]
            env = entry.pop("environment")
            apps[app_name] = {
                "environment": env, "fingerprint": entry["fingerprint"],
            }
            shard = shards.setdefault(env, journal_format.empty_shard(env))
            shard["apps"][app_name] = entry
        # Route solve-cache entries to the shard of their first app, in
        # canonical order (sorted by key).
        for kind, entries in _persisted_caches(pipeline, installed).items():
            for key in sorted(entries):
                env = apps[app_of_rule_id(key[0])]["environment"]
                shards[env]["caches"][kind].append(entries[key])
        return self._write_base(
            previous_generation + 1, apps, shards, frontend or {},
            installed, pipeline.changes,
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
        apps: dict[str, dict] = {}
        shards: dict[str, dict] = {}
        for app_name, record in snapshot.apps.items():
            if not isinstance(record, dict):
                continue
            env = record.get("environment", "")
            source = snapshot.shards.get(env)
            if source is None:
                continue  # directory debris without a shard: GC'd
            if env not in shards:
                shards[env] = {
                    "environment": env,
                    "apps": {},
                    "caches": source.get(
                        "caches", journal_format.empty_caches()
                    ),
                }
            entry = source.get("apps", {}).get(app_name)
            if entry is None:
                continue  # listed but absent from the shard: GC'd
            shards[env]["apps"][app_name] = entry
            apps[app_name] = {
                "environment": env,
                "fingerprint": record.get("fingerprint"),
            }
        shards = {env: shard for env, shard in shards.items() if shard["apps"]}
        self._write_base(
            generation + 1, apps, shards, snapshot.frontend,
            _fingerprints(apps),
        )
        return True

    # ------------------------------------------------------------------
    # Delta commits

    def _init_journal(self) -> None:
        """Seed the in-process delta state from whatever is durable:
        base generation, surviving journal prefix length, the cache
        entries per kind and the directory's fingerprints."""
        loaded = self._load()
        if loaded is None or loaded[0].schema != SCHEMA_VERSION:
            # Nothing to delta against, or an older base whose journal
            # a v5 record must not extend: the next commit writes a v5
            # base.
            self._journal = None
            return
        snapshot, next_seq, journal_bytes, generation, _failed = loaded
        self._reset_journal(
            generation,
            snapshot.shards.values(),
            _fingerprints(snapshot.apps),
            next_seq=next_seq,
            journal_bytes=journal_bytes,
        )

    def _durable_frontend(self) -> dict:
        """The frontend blob as durably stored (base plus journal ops),
        read without parsing a single shard."""
        loaded = self._load(environments=())
        return {} if loaded is None else loaded[0].frontend

    def _save_commit(
        self,
        pipeline: DetectionPipeline,
        rulesets: Mapping[str, RuleSet] | None,
        frontend: FrontendDelta | None,
    ) -> int:
        """A full save standing in for (or folding after) a commit: the
        live blob when the commit carries a frontend change, the durable
        one otherwise."""
        blob = (
            self._durable_frontend() if frontend is None else frontend.blob()
        )
        written = self.save(pipeline, rulesets=rulesets, frontend=blob)
        if frontend is not None:
            frontend.on_durable()
        return written

    def _app_entry(
        self,
        pipeline: DetectionPipeline,
        app_name: str,
        sigs: list[RuleSignature],
        rulesets: Mapping[str, RuleSet] | None,
    ) -> dict:
        ruleset = _ruleset_of(app_name, sigs, rulesets)
        return {
            "app": app_name,
            "environment": sigs[0].environment if sigs else "",
            "fingerprint": self._fingerprint(
                pipeline.engine.resolver, ruleset, sigs
            ),
            "ruleset": [rule_to_json(rule) for rule in ruleset.rules],
            "signatures": [signature_record(sig) for sig in sigs],
        }

    def _record(
        self,
        pipeline: DetectionPipeline,
        tip: _Tip,
        seq: int,
        base: int,
        app_name: str | None,
        remove: bool,
        rulesets: Mapping[str, RuleSet] | None,
    ) -> tuple[dict, _Tip]:
        """The record that takes the store from ``tip`` to the live
        pipeline — ``app_name``'s commit (a remove when ``remove`` or
        the app is not installed), else a frontend record — and the tip
        it leads to.  It re-signs the other directory apps re-signed
        since ``tip`` and carries the cache entries that changed; a
        pipeline with the tip's change count skips both diffs, so a
        frontend-only commit stays O(change)."""
        changed = pipeline.changes != tip.changes
        if app_name is None and not changed:
            return journal_format.record(seq, base, "frontend"), tip
        installed = pipeline.installed_signatures()
        signed = dict(tip.signed)
        resigned: list[dict] = []
        for name, sigs in installed.items() if changed else ():
            known = signed.get(name)
            if name == app_name or known is None:
                continue
            if isinstance(known, str):
                ruleset = _ruleset_of(name, sigs, rulesets)
                resolver = pipeline.engine.resolver
                current = known == self._fingerprint(resolver, ruleset, sigs)
            else:
                current = len(known) == len(sigs) and all(
                    a is b for a, b in zip(known, sigs)
                )
            if not current:
                resigned.append(
                    self._app_entry(pipeline, name, sigs, rulesets)
                )
            signed[name] = sigs
        caches = tip.caches
        if app_name is None:
            record = journal_format.record(seq, base, "frontend")
        elif remove or app_name not in installed:
            record = journal_format.record(seq, base, "remove", app=app_name)
        else:
            sigs = signed[app_name] = installed[app_name]
            record = journal_format.record(
                seq, base, "commit",
                **self._app_entry(pipeline, app_name, sigs, rulesets),
            )
        if resigned:
            record["resign"] = resigned
        if changed:
            after: dict[str, dict[tuple, object]] = {}
            for kind, entries in _persisted_caches(pipeline, installed).items():
                known = caches[kind]
                stale = {
                    key for key, result in known.items()
                    if key not in entries or entries[key][1] != result
                }
                added = [
                    entries[key] for key in sorted(
                        key for key in entries
                        if key not in known or key in stale
                    )
                ]
                if added:
                    record.setdefault("cache_add", {})[kind] = added
                if stale:
                    record.setdefault("cache_drop", {})[kind] = sorted(
                        map(list, stale)
                    )
                after[kind] = {
                    key: entry[1] for key, entry in entries.items()
                }
            caches = after
        return record, _Tip(caches, signed, pipeline.changes)

    def _append(
        self,
        pipeline: DetectionPipeline,
        app_name: str | None,
        remove: bool,
        rulesets: Mapping[str, RuleSet] | None,
        frontend: FrontendDelta | None,
    ) -> StoreCommit:
        """Append this commit's record (:meth:`_record`) with the
        frontend ops, adopting the tip it leads to once it is durable.
        Records an earlier failed append left go first; a commit that
        changes nothing writes nothing.

        Seeds a base with a full :meth:`save` instead when there is no
        usable snapshot to delta against (or an older-format one, which
        this migrates) or the frontend change has no baseline, and
        folds the journal into a fresh base (compaction) when it
        outgrows ``journal_max_records`` / ``journal_max_bytes``.
        :meth:`save` recomputes from the live pipeline — the source of
        truth journal replay is equivalent to — so ``rulesets`` and
        ``frontend`` feed both full saves."""
        start = time.perf_counter()
        if self._journal is None:
            self._init_journal()
        if self._journal is None or (
            frontend is not None and frontend.ops is None
        ):
            written = self._save_commit(pipeline, rulesets, frontend)
            return StoreCommit(
                written, time.perf_counter() - start, full=True
            )
        state = self._journal
        tip = state.unwritten[-1][1] if state.unwritten else state.durable
        record, after = self._record(
            pipeline, tip, state.next_seq + len(state.unwritten), state.base,
            app_name, remove, rulesets,
        )
        if frontend is not None and frontend.ops:
            record["frontend_ops"] = frontend.ops
        if not journal_format.changes_nothing(record):
            state.unwritten.append((record, after))
        if state.unwritten:
            written = self._write_unwritten(state)
        else:
            state.durable = after
            written = 0
        if frontend is not None:
            frontend.on_durable()
        compacted = (
            state.records >= self.journal_max_records
            or state.bytes >= self.journal_max_bytes
        )
        if compacted:
            written += self._save_commit(pipeline, rulesets, frontend)
        return StoreCommit(
            written, time.perf_counter() - start, compacted=compacted
        )

    def _write_unwritten(self, state: _JournalState) -> int:
        """Append the unwritten records oldest first, advancing the
        cursor after each durable one; returns the bytes appended.

        An append that raises, or that the backend dropped (0 bytes:
        :class:`StoreWriteError`), leaves the records still unwritten
        for the next commit without their frontend ops (the caller
        resends those); records left changing nothing are dropped, the
        rest renumbered to follow the last durable record."""
        written = 0
        while state.unwritten:
            record, after = state.unwritten[0]
            try:
                appended = self.backend.append_journal(
                    _JOURNAL_FILE, json.dumps(record, default=str)
                )
                if not appended:
                    raise StoreWriteError(
                        f"journal record {record['seq']} was not appended"
                    )
            except BaseException:
                kept = []
                for pending, tip in state.unwritten:
                    pending.pop("frontend_ops", None)
                    if not journal_format.changes_nothing(pending):
                        pending["seq"] = state.next_seq + len(kept)
                        kept.append((pending, tip))
                state.unwritten = kept
                raise
            del state.unwritten[0]
            state.durable = after
            state.next_seq += 1
            state.records += 1
            state.bytes += appended
            written += appended
        return written

    def commit_app(
        self,
        pipeline: DetectionPipeline,
        app_name: str,
        *,
        rulesets: Mapping[str, RuleSet] | None = None,
        frontend: FrontendDelta | None = None,
        remove: bool = False,
    ) -> StoreCommit:
        """Durably record one keep/delete decision — O(changed app),
        not O(store).

        Appends one delta record to the journal: the committed app's
        rules/signatures/fingerprint (or a removal marker), the other
        apps re-signed in place and the solve-cache entries changed
        since the last durable state, and the ``frontend`` ops, if any
        (without them the blob stays as it is).  A load that replays it
        observes exactly the state a full :meth:`save` would have
        written (see :meth:`_append` for the seeding and compaction
        saves)."""
        return self._append(pipeline, app_name, remove, rulesets, frontend)

    def commit_frontend(
        self,
        pipeline: DetectionPipeline,
        frontend: FrontendDelta,
        *,
        rulesets: Mapping[str, RuleSet] | None = None,
    ) -> StoreCommit:
        """Durably record a change made outside any keep/delete
        decision, e.g. the runtime monitor's observation ledger
        (DESIGN.md §16): one ``frontend`` record with the ops, O(change)
        — plus the re-signed apps and cache delta when the pipeline
        changed since the last durable commit (an audit's solves, a
        re-configured installed app).  A change with no ops and no
        pipeline change writes nothing.  Seeds and compacts like
        :meth:`commit_app` (``rulesets`` feeds those full saves)."""
        return self._append(pipeline, None, False, rulesets, frontend)

    # ------------------------------------------------------------------
    # Loading

    def _load(
        self, environments: Iterable[str] | None = None
    ) -> "tuple[StoreSnapshot, int, int, int, set[str]] | None":
        """Parse base snapshot + journal replay; ``None`` when the
        store is missing, corrupted, or a schema version this reader
        does not know.

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
        if meta.get("schema") not in _READABLE_SCHEMAS:
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
                    record, apps, shards, frontend_box, wanted,
                    canonical=meta["schema"] >= 5,
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
        ``None`` when it is missing, corrupted, or written by a schema
        version this reader does not know (v3, v4 and v5 load).

        ``environments`` restricts parsing to the named shards — the
        multi-home fleet path where one install should not pay for the
        whole snapshot.  Apps whose shard is not loaded validate as
        stale (their fingerprints report ``None``)."""
        loaded = self._load(environments)
        return None if loaded is None else loaded[0]

    # ------------------------------------------------------------------
    # Warm start

    def _import_warm(
        self,
        pipeline: DetectionPipeline,
        snapshot: StoreSnapshot | None,
        rulesets: list[RuleSet],
    ) -> tuple[list[str], list[str]]:
        """Split apps into warm (persisted fingerprint matches the
        current bindings) and stale (everything else, all of them
        without a snapshot), and import the persisted solve-cache
        entries that touch only warm apps."""
        if snapshot is None:
            return [], [ruleset.app_name for ruleset in rulesets]
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
        valid = set(warm)
        for payload in snapshot.cache_payloads():
            pipeline.engine.import_caches(payload, valid)
        return warm, stale

    def warm_start(
        self,
        resolver: DeviceResolver,
        rulesets: list[RuleSet] | None = None,
    ) -> WarmStart:
        """Replay a full store audit on a fresh pipeline, serving every
        solve of fingerprint-validated apps from the persisted caches.

        With an unchanged store the replay performs **zero** solver
        calls and reports a threat set identical to the cold audit; apps
        whose bindings changed (and pairs touching them) re-solve
        transparently.  ``rulesets`` defaults to the persisted ones, so
        a bare ``warm_start(resolver)`` re-audits the stored fleet."""
        pipeline = DetectionPipeline(resolver)
        environments = None
        if rulesets is not None:
            environments = {
                environment_of(resolver, ruleset.app_name)
                for ruleset in rulesets
            }
        snapshot = self.load(environments=environments)
        if rulesets is None:
            rulesets = self._persisted_rulesets(snapshot)
        warm, stale = self._import_warm(pipeline, snapshot, rulesets)
        reports = pipeline.audit_store(rulesets)
        return WarmStart(pipeline, reports, warm, stale, snapshot is None)

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
        if rulesets is None:
            rulesets = self._persisted_rulesets(snapshot)
        warm, stale = self._import_warm(pipeline, snapshot, rulesets)
        valid = set(warm)
        reports: list[ThreatReport] = []
        for ruleset in rulesets:
            if ruleset.app_name in valid:
                pipeline.restore_ruleset(ruleset)
            else:
                reports.append(pipeline.add_ruleset(ruleset))
        return WarmStart(pipeline, reports, warm, stale, snapshot is None)

    @staticmethod
    def _persisted_rulesets(snapshot: StoreSnapshot | None) -> list[RuleSet]:
        return [] if snapshot is None else list(snapshot.rulesets().values())
