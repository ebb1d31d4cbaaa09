"""Per-commit delta records and their replay (DESIGN.md §14).

The journal is the delta half of the storage engine: instead of
rewriting a home's shard on every keep/delete decision, the store
appends one compact JSON record per commit and replays the journal
over the base snapshot at load time.  Record shape (one JSON object
per line)::

    {"seq": N, "base": G, "op": "commit",
     "app": ..., "environment": ..., "fingerprint": ...,
     "ruleset": [...], "signatures": [...],
     "cache_add": {"situation": [[ids, result], ...], ...},
     "cache_drop": {"situation": [ids, ...], ...},
     "frontend": {...}}

    {"seq": N, "base": G, "op": "remove", "app": ..., "frontend": {...}}

    {"seq": N, "base": G, "op": "frontend", "frontend": {...}}

(the ``frontend`` op replaces only the opaque frontend blob — the
O(delta) persistence path for frontend-side state that changes without
any detection change, e.g. the runtime monitor's observation ledger,
DESIGN.md §16).

``base`` pins the meta generation the record extends: records from
before a compaction (whose meta bumped the generation) are inert, so
an interrupted compaction — new shards and meta on disk, journal not
yet deleted — replays to exactly the compacted state.  ``seq`` is a
dense counter per base; replay applies the longest consistent prefix
(strictly sequential seq, parseable JSON, applicable shape) and stops
at the first torn or corrupt record — the documented crash-recovery
semantics: a truncated tail degrades to the state as of the last
acknowledged commit, never to a crash and never to stale results.

Replay is *exactly* equivalent to a full save after every commit: commit
records pop-and-reappend the app in the directory and its shard
(mirroring how :meth:`DetectionPipeline.commit` moves a re-committed
app to the end of the installed order), cache deltas drop in place and
append at the end (mirroring dict delete + reinsert in the engine's
solve caches), and cache entries route to the shard of their first
app, exactly like :meth:`DetectionStore.save`.  That equivalence is
what makes compaction a pure fold: the compacted store parses to the
same snapshot the base + journal parsed to, byte for byte.
"""

from __future__ import annotations

CACHE_KINDS = ("situation", "condition", "effect")


def empty_caches() -> dict[str, list]:
    return {kind: [] for kind in CACHE_KINDS}


def empty_shard(environment: str) -> dict:
    return {
        "environment": environment,
        "apps": {},
        "caches": empty_caches(),
    }


def commit_record(
    seq: int,
    base: int,
    app: str,
    environment: str,
    fingerprint: str,
    ruleset: list,
    signatures: list,
    cache_add: dict[str, list],
    cache_drop: dict[str, list],
    frontend: dict,
) -> dict:
    return {
        "seq": seq,
        "base": base,
        "op": "commit",
        "app": app,
        "environment": environment,
        "fingerprint": fingerprint,
        "ruleset": ruleset,
        "signatures": signatures,
        "cache_add": cache_add,
        "cache_drop": cache_drop,
        "frontend": frontend,
    }


def remove_record(seq: int, base: int, app: str, frontend: dict) -> dict:
    return {
        "seq": seq,
        "base": base,
        "op": "remove",
        "app": app,
        "frontend": frontend,
    }


def frontend_record(seq: int, base: int, frontend: dict) -> dict:
    return {
        "seq": seq,
        "base": base,
        "op": "frontend",
        "frontend": frontend,
    }


def _first_app(rule_ids: list) -> str | None:
    if not rule_ids or not isinstance(rule_ids[0], str):
        return None
    return rule_ids[0].rsplit("/", 1)[0]


def apply_record(
    record: dict,
    apps: dict,
    shards: dict,
    frontend_box: list,
    wanted: set[str] | None,
) -> None:
    """Fold one journal record into parsed snapshot structures.

    ``apps``/``shards`` are the store's app directory and loaded shard
    payloads, mutated in place; ``frontend_box`` is a one-slot list
    holding the current frontend blob; ``wanted`` is the optional
    environment filter of :meth:`DetectionStore.load` — shard edits for
    unloaded environments are skipped, directory and frontend updates
    always apply.  Raises on a malformed record; the caller treats that
    as the end of the consistent prefix."""
    op = record["op"]
    frontend = record.get("frontend")
    if isinstance(frontend, dict):
        frontend_box[0] = frontend

    if op == "frontend":
        # Frontend-only delta: nothing but the blob changes.  A record
        # without a blob is malformed (ends the consistent prefix).
        if not isinstance(frontend, dict):
            raise ValueError("frontend record without a frontend blob")
        return

    app = str(record["app"])

    if op == "remove":
        removed = apps.pop(app, None)
        prefix = f"{app}/"
        for environment in list(shards):
            shard = shards[environment]
            shard.get("apps", {}).pop(app, None)
            caches = shard.get("caches", {})
            for kind in CACHE_KINDS:
                entries = caches.get(kind)
                if entries:
                    caches[kind] = [
                        entry
                        for entry in entries
                        if not any(
                            isinstance(rule_id, str)
                            and rule_id.startswith(prefix)
                            for rule_id in entry[0]
                        )
                    ]
            # An environment with no installed apps has no shard in a
            # full save either (its caches route with their first
            # app, so they empty out with it) — GC it the same way.
            if not shard.get("apps"):
                del shards[environment]
        del removed
        return

    if op != "commit":
        raise ValueError(f"unknown journal op {op!r}")

    environment = str(record["environment"])
    fingerprint = record["fingerprint"]
    # Re-committing moves the app to the end of the installed order —
    # mirror DetectionPipeline.commit's pop + reinsert exactly, in the
    # directory and in the shards.
    apps.pop(app, None)
    apps[app] = {"environment": environment, "fingerprint": fingerprint}
    for shard in shards.values():
        shard.get("apps", {}).pop(app, None)
    if wanted is None or environment in wanted:
        shard = shards.get(environment)
        if shard is None:
            shard = shards[environment] = empty_shard(environment)
        shard.setdefault("apps", {})[app] = {
            "fingerprint": fingerprint,
            "ruleset": record["ruleset"],
            "signatures": record["signatures"],
        }

    drops = record.get("cache_drop", {})
    for kind in CACHE_KINDS:
        keys = {tuple(key) for key in drops.get(kind, [])}
        if not keys:
            continue
        for shard in shards.values():
            caches = shard.get("caches", {})
            entries = caches.get(kind)
            if entries:
                caches[kind] = [
                    entry
                    for entry in entries
                    if tuple(entry[0]) not in keys
                ]

    adds = record.get("cache_add", {})
    for kind in CACHE_KINDS:
        for entry in adds.get(kind, []):
            first = _first_app(entry[0])
            target = None if first is None else apps.get(first)
            if not isinstance(target, dict):
                continue
            target_env = target.get("environment", "")
            if wanted is not None and target_env not in wanted:
                continue
            shard = shards.get(target_env)
            if shard is None:
                shard = shards[target_env] = empty_shard(target_env)
            shard.setdefault("caches", empty_caches()).setdefault(
                kind, []
            ).append(entry)
