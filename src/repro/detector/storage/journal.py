"""Per-commit delta records and their replay (DESIGN.md §14).

The journal is the delta half of the storage engine: instead of
rewriting a home's shard on every commit, the store appends one compact
JSON record per commit and replays the journal over the base snapshot
at load time.  Record shapes (one JSON object per line)::

    {"seq": N, "base": G, "op": "commit", "app": ..., "environment": ...,
     "fingerprint": ..., "ruleset": [...], "signatures": [...]}
    {"seq": N, "base": G, "op": "remove", "app": ...}
    {"seq": N, "base": G, "op": "frontend"}

Any record may also carry these fields, applied around its op in the
order shown (a ``frontend`` record must carry one)::

    "frontend_ops": [...],
    "resign": [{<the commit fields from "app" on>}, ...],
    <the op>
    "cache_drop": {"situation": [ids, ...], ...},
    "cache_add": {"situation": [[ids, result], ...], ...}

A ``commit`` installs an app at the end of the installed order,
mirroring :meth:`DetectionPipeline.commit`'s pop and reinsert; a
``resign`` entry replaces an installed app's directory and shard entry
where it stands, as :meth:`DetectionPipeline.invalidate_app` re-signs
a re-configured or re-typed app in place; a ``remove`` drops the app
and every cache entry naming it.  The cache fields hold the entries
that appeared, vanished or were re-solved (dropped and re-added) since
the previous durable state.  Re-signs and cache deltas ride on the
commit's own record, so a torn journal never replays half a commit.

``frontend_ops`` edits the frontend blob — laid out by
:meth:`repro.service.home.TenantHome._frontend_blob` — one section at
a time, so a commit writes what changed, never the whole blob::

    ["put", section, key, value]   # payloads / device_types / home_devices
    ["drop", section, key]
    ["allow", [[type, rule_a, rule_b], ...]]     # append Allowed pairs
    ["disallow", app]              # drop every Allowed pair naming app
    ["review", index, entry]       # replace; index == len appends
    ["monitor", {"observations": [...],          # ledger entries to append
                 "batches": [...], "memory": M,  # dedup keys, keep last M
                 "watch": {threat_key: ts}}]     # new watch starts

``put`` and ``drop`` have dict semantics: a put assigns in place when
the key exists and appends it otherwise (``payloads`` is a list keyed
by each entry's ``"app"``).  A key that moved is dropped and put again,
exactly where the live dict popped and reinserted it.  Every
``monitor`` field is optional; the op always creates
``extra.monitor.{batches,watch}`` as the live home does.

``base`` pins the meta generation the record extends: records from
before a compaction are inert, so an interrupted compaction — new
shards and meta on disk, journal not yet deleted — replays to exactly
the compacted state.  ``seq`` is a dense counter per base; replay
applies the longest consistent prefix (strictly sequential seq,
parseable JSON, applicable shape) and stops at the first torn or
corrupt record: a truncated tail degrades to the state as of the last
acknowledged commit, never to a crash and never to stale results.

Replay is *exactly* equivalent to a full save after every commit: the
app directory and each shard's apps follow the installed order, cache
entries route to the shard of their first app, exactly like
:meth:`DetectionStore.save`, and every cache section stays in canonical
order, sorted by key — a full save writes it sorted and replay re-sorts
each section a record adds to, so where an entry lands depends on its
key, never on when it was solved or committed.  That equivalence makes
compaction a pure fold: the compacted store parses to the same snapshot
the base + journal parsed to, byte for byte.  Older formats replay by
their own rules: v4 appended cache additions at the end of their
section, and v3 records carried the whole blob (``"frontend"``).
"""

from __future__ import annotations

CACHE_KINDS = ("situation", "condition", "effect")


def empty_caches() -> dict[str, list]:
    return {kind: [] for kind in CACHE_KINDS}


def empty_shard(environment: str) -> dict:
    return {"environment": environment, "apps": {}, "caches": empty_caches()}


def record(seq: int, base: int, op: str, **fields) -> dict:
    return {"seq": seq, "base": base, "op": op, **fields}


def changes_nothing(record: dict) -> bool:
    """A frontend record with no blob, ops or cache delta: the store
    never writes one, and replay rejects it."""
    return record["op"] == "frontend" and not any(
        name in record
        for name in (
            "frontend", "frontend_ops", "resign", "cache_add", "cache_drop",
        )
    )


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


def _app_of(rule_id) -> str | None:
    if not isinstance(rule_id, str):
        return None
    return rule_id.rsplit("/", 1)[0]


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
    elif name == "disallow":
        _, app = op
        allowed = _container(blob, ("allowed",), [])
        allowed[:] = [
            pair for pair in allowed
            if app not in (_app_of(pair[1]), _app_of(pair[2]))
        ]
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


def apply_record(
    record: dict,
    apps: dict,
    shards: dict,
    frontend_box: list,
    wanted: set[str] | None,
    canonical: bool = True,
) -> None:
    """Fold one journal record into parsed snapshot structures.

    ``apps``/``shards`` are the store's app directory and loaded shard
    payloads, mutated in place; ``frontend_box`` is a one-slot list
    holding the current frontend blob (v3 records replace it, later
    ones edit it in place); ``wanted`` is the optional environment
    filter of :meth:`DetectionStore.load` — shard edits for unloaded
    environments are skipped, directory and frontend updates always
    apply.  ``canonical`` re-sorts the cache sections the record adds
    to (format v5; off for v3/v4 records, which appended).  Raises on a
    malformed record; the caller treats that as the end of the
    consistent prefix."""
    op = record["op"]
    # A v3 record carries the whole blob and replaces it; a later
    # record carries the ops that edit it.
    frontend = record.get("frontend")
    if isinstance(frontend, dict):
        frontend_box[0] = frontend
    for frontend_op in record.get("frontend_ops", []):
        _apply_frontend_op(frontend_box[0], frontend_op)
    for entry in record.get("resign", []):
        _put_app(entry, apps, shards, wanted, move=False)
    if op == "frontend":
        # A record that changes nothing is malformed (ends the
        # consistent prefix).
        if changes_nothing(record):
            raise ValueError("frontend record that changes nothing")
    elif op == "remove":
        _remove_app(str(record["app"]), apps, shards)
    elif op == "commit":
        _put_app(record, apps, shards, wanted, move=True)
    else:
        raise ValueError(f"unknown journal op {op!r}")
    _apply_cache_delta(record, apps, shards, wanted, canonical)


def _drop_entries(shards: dict, doomed) -> None:
    """Drop every cache entry for which ``doomed(kind, key)`` holds."""
    for shard in shards.values():
        caches = shard.get("caches", {})
        for kind in CACHE_KINDS:
            if caches.get(kind):
                caches[kind] = [
                    entry for entry in caches[kind]
                    if not doomed(kind, tuple(entry[0]))
                ]


def _remove_app(app: str, apps: dict, shards: dict) -> None:
    apps.pop(app, None)
    prefix = f"{app}/"
    _drop_entries(shards, lambda kind, key: any(
        isinstance(rule_id, str) and rule_id.startswith(prefix)
        for rule_id in key
    ))
    for environment in list(shards):
        shards[environment].get("apps", {}).pop(app, None)
        # An environment with no installed apps has no shard in a full
        # save either (its caches route with their first app, so they
        # empty out with it) — GC it the same way.
        if not shards[environment].get("apps"):
            del shards[environment]


def _put_app(
    entry: dict, apps: dict, shards: dict, wanted: set[str] | None,
    move: bool,
) -> None:
    """Write an app's directory and shard entry: at the end of the
    installed order when ``move`` (a commit), else where it stands (a
    re-sign)."""
    app = str(entry["app"])
    environment = str(entry["environment"])
    fingerprint = entry["fingerprint"]
    if move:
        apps.pop(app, None)
    apps[app] = {"environment": environment, "fingerprint": fingerprint}
    for env, shard in shards.items():
        if move or env != environment:
            shard.get("apps", {}).pop(app, None)
    if wanted is None or environment in wanted:
        shard = shards.get(environment)
        if shard is None:
            shard = shards[environment] = empty_shard(environment)
        shard.setdefault("apps", {})[app] = {
            "fingerprint": fingerprint,
            "ruleset": entry["ruleset"],
            "signatures": entry["signatures"],
        }


def _apply_cache_delta(
    record: dict, apps: dict, shards: dict, wanted: set[str] | None,
    canonical: bool,
) -> None:
    if "cache_drop" in record:
        drops = {
            kind: {tuple(key) for key in keys}
            for kind, keys in record["cache_drop"].items()
        }
        _drop_entries(shards, lambda kind, key: key in drops.get(kind, ()))

    grown: dict[int, list] = {}
    adds = record.get("cache_add", {})
    for kind in CACHE_KINDS:
        for entry in adds.get(kind, []):
            target = apps.get(_app_of(entry[0][0]) if entry[0] else None)
            if not isinstance(target, dict):
                continue
            target_env = target.get("environment", "")
            if wanted is not None and target_env not in wanted:
                continue
            shard = shards.get(target_env)
            if shard is None:
                shard = shards[target_env] = empty_shard(target_env)
            section = shard.setdefault("caches", empty_caches()).setdefault(
                kind, []
            )
            section.append(entry)
            grown[id(section)] = section
    if canonical:
        for section in grown.values():
            section.sort(key=lambda entry: entry[0])
