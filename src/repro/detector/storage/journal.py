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
     "frontend_ops": [...]}

    {"seq": N, "base": G, "op": "remove", "app": ..., "frontend_ops": [...]}

    {"seq": N, "base": G, "op": "frontend", "frontend_ops": [...]}

``frontend_ops`` (optional on ``commit``/``remove``) edits the frontend
blob — the companion app's state, laid out by
:meth:`repro.service.home.TenantHome._frontend_blob` — one section at a
time, so a commit writes what changed, never the whole blob (store
format v4).  The ops, applied in order::

    ["put", section, key, value]   # payloads / device_types / home_devices
    ["drop", section, key]
    ["allow", [[type, rule_a, rule_b], ...]]     # append Allowed pairs
    ["review", index, entry]       # replace; index == len appends
    ["monitor", {"observations": [...],          # ledger entries to append
                 "batches": [...], "memory": M,  # dedup keys, keep last M
                 "watch": {threat_key: ts}}]     # new watch starts

``put`` and ``drop`` have dict semantics: a put assigns in place when
the key exists and appends it otherwise (``payloads`` is a list keyed
by each entry's ``"app"``).  A key that moved is dropped and put again,
exactly where the live dict popped and reinserted it.  Every
``monitor`` field is optional; the op always creates
``extra.monitor.{batches,watch}`` as the live home does.  Store format
v3 records instead carried the whole blob (``"frontend": {...}``),
replacing it on replay; that reader stays so v3 stores still load.

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
    }


def remove_record(seq: int, base: int, app: str) -> dict:
    return {"seq": seq, "base": base, "op": "remove", "app": app}


def frontend_record(seq: int, base: int) -> dict:
    return {"seq": seq, "base": base, "op": "frontend"}


# ----------------------------------------------------------------------
# Frontend ops

#: Where each put/drop section lives in the blob.
_SECTIONS = {
    "payloads": ("payloads",),
    "device_types": ("device_types",),
    "home_devices": ("extra", "home_devices"),
}


def _container(blob: dict, path: tuple, empty):
    node = blob
    for name in path[:-1]:
        node = node.setdefault(name, {})
    found = node.setdefault(path[-1], empty)
    if not isinstance(found, type(empty)):
        raise ValueError(f"frontend section {path!r} is not a {type(empty)}")
    return found


def _keyed(section: str, blob: dict):
    path = _SECTIONS[section]
    return _container(blob, path, [] if section == "payloads" else {})


def _payload_index(payloads: list, app) -> int | None:
    for index, entry in enumerate(payloads):
        if isinstance(entry, dict) and entry.get("app") == app:
            return index
    return None


def _apply_frontend_op(blob: dict, op: list) -> None:
    name = op[0]
    if name == "put":
        _, section, key, value = op
        target = _keyed(section, blob)
        if isinstance(target, list):
            index = _payload_index(target, key)
            if index is None:
                target.append(value)
            else:
                target[index] = value
        else:
            target[key] = value
    elif name == "drop":
        _, section, key = op
        target = _keyed(section, blob)
        if isinstance(target, list):
            index = _payload_index(target, key)
            if index is not None:
                del target[index]
        else:
            target.pop(key, None)
    elif name == "allow":
        _, pairs = op
        _container(blob, ("allowed",), []).extend(pairs)
    elif name == "review":
        _, index, entry = op
        reviews = _container(blob, ("reviews",), [])
        if index == len(reviews):
            reviews.append(entry)
        elif 0 <= index < len(reviews):
            reviews[index] = entry
        else:
            raise ValueError(f"review index {index} past the history")
    elif name == "monitor":
        _, change = op
        extra = _container(blob, ("extra",), {})
        state = _container(extra, ("monitor",), {})
        batches = _container(state, ("batches",), [])
        watch = _container(state, ("watch",), {})
        if "observations" in change:
            _container(extra, ("observations",), []).extend(
                change["observations"]
            )
        if "batches" in change:
            batches.extend(change["batches"])
            # The live trim, verbatim (``memory`` 0 keeps everything).
            del batches[: -int(change["memory"])]
        watch.update(change.get("watch", {}))
    else:
        raise ValueError(f"unknown frontend op {name!r}")


def apply_frontend_ops(blob: dict, ops: list) -> None:
    """Apply one record's frontend ops to ``blob`` in place.  Raises
    on a malformed op; the caller treats that as the end of the
    consistent prefix."""
    for op in ops:
        _apply_frontend_op(blob, op)


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
    holding the current frontend blob (v3 records replace it, v4 ops
    edit it in place); ``wanted`` is the optional environment filter
    of :meth:`DetectionStore.load` — shard edits for unloaded
    environments are skipped, directory and frontend updates always
    apply.  Raises on a malformed record; the caller treats that
    as the end of the consistent prefix."""
    op = record["op"]
    # A v3 record carries the whole blob and replaces it; a v4 record
    # carries the ops that edit it.
    frontend = record.get("frontend")
    if isinstance(frontend, dict):
        frontend_box[0] = frontend
    ops = record.get("frontend_ops")
    if ops is not None:
        apply_frontend_ops(frontend_box[0], ops)

    if op == "frontend":
        # Frontend-only delta: nothing but the blob changes.  A record
        # that changes no blob is malformed (ends the consistent prefix).
        if not isinstance(frontend, dict) and not isinstance(ops, list):
            raise ValueError("frontend record without frontend ops")
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
