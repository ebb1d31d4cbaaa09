"""Storage-engine battery (DESIGN.md §14): delta snapshots, crash
recovery, compaction, the SQLite KV backend, and LRU-bounded residency.

The invariants under test:

* per-commit delta journaling is *observably equivalent* to the
  full-save oracle (``tests/stores.py``): the canonical parsed store
  state (apps, shard payloads, frontend — including dict order) is
  byte-identical after every app and frontend commit, and a warm start
  from a delta-built store replays with zero solver calls;
* any truncation of the journal degrades to the state at some earlier
  commit boundary — the longest consistent prefix — never to a crash
  and never to a state that was not durably acknowledged;
* an interrupted compaction (new base durable, journal not yet
  deleted) replays to exactly the compacted state: stale-base records
  are inert;
* offline compaction restores byte-identically and refuses to fold
  over a corrupt base shard;
* the SQLite backend persists the same canonical state as the
  directory backend, and a corrupt database degrades (RuntimeWarning,
  cold start) without deleting the file;
* a service with ``max_resident_homes`` set keeps the resident count
  under the bound during churn while producing reports and store
  states identical to the unbounded service.
"""

import json
import random
import sqlite3
import warnings

import pytest

from repro.corpus import app_by_name
from repro.detector import DetectionPipeline, DetectionStore, ShardedRuleIndex
from repro.detector.storage import (
    DirectoryBackend,
    SQLiteStoreBackend,
    make_store_backend,
)
from repro.runtime.events import Event
from repro.service import (
    DecisionRequest,
    HomeGuardService,
    InstallRequest,
    SeverityThresholdPolicy,
)

from tests.stores import FullSaveStore, full_save_homes
from tests.test_detector_store import ZonedResolver, build_store

KEEP_ALL = dict(policy=SeverityThresholdPolicy(threshold=10**6))

COMFORT_TV = dict(
    app_name="ComfortTV",
    devices={"tv1": "TV", "tSensor": "Temp", "window1": "Window"},
    values={"threshold1": 30},
)
COLD_DEFENDER = dict(
    app_name="ColdDefender",
    devices={"tv2": "TV", "window2": "Window"},
    values={"weather": "rainy"},
)


def canonical_state(store: DetectionStore) -> str | None:
    """The parsed store as one canonical JSON string: apps, shard
    payloads and frontend, with dict *insertion order preserved* (order
    is part of the equivalence contract — journal replay must restore
    installation order exactly)."""
    snapshot = store.load()
    if snapshot is None:
        return None
    return json.dumps(
        {
            "apps": snapshot.apps,
            "shards": {
                env: snapshot.shards[env]
                for env in sorted(snapshot.shards)
            },
            "frontend": snapshot.frontend,
        },
        default=str,
    )


def drive_commits(
    path, rulesets, resolver, backend=None, full_save=False, removals=()
):
    """Install apps one commit at a time (the incremental service flow)
    against a store — the full-save oracle with ``full_save`` — then
    remove ``removals``.  Returns the pipeline, the store, and the
    canonical state recorded after every commit."""
    pipeline = DetectionPipeline(resolver, index=ShardedRuleIndex())
    store_cls = FullSaveStore if full_save else DetectionStore
    store = store_cls(path, backend=backend)
    named = {r.app_name: r for r in rulesets}
    states = []
    for ruleset in rulesets:
        pipeline.detect(ruleset)
        pipeline.commit(ruleset.app_name, ruleset)
        store.commit_app(
            pipeline, ruleset.app_name, rulesets=named,
            frontend={"installed": ruleset.app_name},
        )
        states.append(canonical_state(store))
    for app_name in removals:
        pipeline.discard(app_name)
        pipeline.remove_ruleset(app_name)
        store.commit_app(
            pipeline, app_name, rulesets=named,
            frontend={"removed": app_name}, remove=True,
        )
        states.append(canonical_state(store))
    return pipeline, store, states


# ----------------------------------------------------------------------
# Delta vs full-save oracle equivalence


def test_delta_commits_equal_eager_full_saves(tmp_path):
    rulesets, resolver = build_store(8)
    removals = [rulesets[2].app_name]
    _, delta_store, _ = drive_commits(
        tmp_path / "delta", rulesets, resolver, removals=removals
    )
    _, eager_store, _ = drive_commits(
        tmp_path / "eager", rulesets, resolver, full_save=True,
        removals=removals,
    )
    assert (delta_store.path / "journal.jsonl").is_file()
    assert not (eager_store.path / "journal.jsonl").exists()
    delta_state = canonical_state(delta_store)
    assert delta_state is not None
    assert delta_state == canonical_state(eager_store)


def test_recommit_moves_app_to_end_like_eager_save(tmp_path):
    rulesets, resolver = build_store(6)
    for arm, full_save in (("delta", False), ("eager", True)):
        pipeline, store, _ = drive_commits(
            tmp_path / arm, rulesets, resolver, full_save=full_save
        )
        # Re-commit the very first app: installation order must rotate
        # it to the end, in the directory and in its shard.
        first = rulesets[0]
        pipeline.detect(first)
        pipeline.commit(first.app_name, first)
        store.commit_app(
            pipeline, first.app_name,
            rulesets={r.app_name: r for r in rulesets},
        )
    delta_state = canonical_state(DetectionStore(tmp_path / "delta"))
    assert delta_state == canonical_state(DetectionStore(tmp_path / "eager"))
    apps = json.loads(delta_state)["apps"]
    assert list(apps)[-1] == rulesets[0].app_name


def _frontend_commit_steps(store_root, tune_store=None):
    """Drive one stored home through two interfering installs and
    their decisions, then 20 seeded monitor batches (each one
    frontend-only commit).  Yields the home's store path after every
    step; ``tune_store`` sees the home's store before the first
    commit."""
    service = HomeGuardService(workers=None, store_root=store_root)
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    service.create_home("h1")
    if tune_store is not None:
        tune_store(service.home("h1").store)
    tv = service.register_device("h1", "TV", "tv").device_id
    service.register_device("h1", "Temp", "temperatureSensor")
    window = service.register_device("h1", "Window", "windowOpener").device_id
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision="keep",
        ))
        yield store_root / "h1"
    rng = random.Random(7)
    now = 0.0
    for batch in range(20):
        events = []
        for _ in range(8):
            now += rng.uniform(1, 900)
            subject, name, values = rng.choice([
                (window, "switch", ["on", "off"]),
                (tv, "switch", ["on", "off"]),
                ("meter", "power", [0.0, 100.0, 1500.0]),
                ("front", "lock", ["locked", "unlocked"]),
            ])
            events.append(Event(
                subject=subject, name=name,
                value=rng.choice(values), timestamp=now,
            ))
        service.home("h1").ingest_events(events, batch_id=f"b{batch}")
        yield store_root / "h1"
    service.close()


def _generation(store_path) -> int:
    meta = json.loads((store_path / "meta.json").read_text("utf-8"))
    return meta["generation"]


def test_frontend_commits_equal_full_saves(tmp_path):
    def tune(store):
        store.journal_max_records = 3  # compaction fires mid-monitoring

    delta_states = [
        (canonical_state(DetectionStore(path)), _generation(path))
        for path in _frontend_commit_steps(tmp_path / "delta", tune)
    ]
    with full_save_homes():
        oracle_states = [
            canonical_state(DetectionStore(path))
            for path in _frontend_commit_steps(tmp_path / "full")
        ]
    assert [state for state, _ in delta_states] == oracle_states
    assert all(state is not None for state in oracle_states)
    assert not (tmp_path / "full" / "h1" / "journal.jsonl").exists()
    # Only frontend commits ran after the two decisions, so a later
    # base generation proves commit_frontend compacted.
    generations = [generation for _, generation in delta_states]
    assert generations[-1] > generations[1]


def test_warm_start_from_delta_store_zero_solver_calls(tmp_path):
    rulesets, resolver = build_store(8)
    cold_pipeline, store, _ = drive_commits(
        tmp_path / "store", rulesets, resolver
    )
    assert cold_pipeline.stats.solver_calls > 0
    result = DetectionStore(tmp_path / "store").warm_start(resolver)
    assert not result.cold
    assert sorted(result.warm_apps) == sorted(r.app_name for r in rulesets)
    assert result.pipeline.stats.solver_calls == 0


def test_commit_receipts_count_bytes_and_seconds(tmp_path):
    rulesets, resolver = build_store(6)
    pipeline = DetectionPipeline(resolver, index=ShardedRuleIndex())
    store = DetectionStore(tmp_path / "store")
    named = {r.app_name: r for r in rulesets}
    receipts = []
    for ruleset in rulesets:
        pipeline.detect(ruleset)
        pipeline.commit(ruleset.app_name, ruleset)
        receipts.append(
            store.commit_app(pipeline, ruleset.app_name, rulesets=named)
        )
    assert receipts[0].full  # no base yet: the first commit seeds one
    assert all(not r.full and not r.compacted for r in receipts[1:])
    assert all(r.bytes_written > 0 and r.seconds >= 0 for r in receipts)
    # A delta commit writes O(changed app): strictly less than the
    # full-store rewrite of the same final state.
    full_bytes = store.save(pipeline, rulesets=named)
    assert max(r.bytes_written for r in receipts[1:]) < full_bytes


def test_journal_size_trigger_compacts(tmp_path):
    rulesets, resolver = build_store(6)
    store = DetectionStore(tmp_path / "store")
    store.journal_max_records = 3
    pipeline = DetectionPipeline(resolver, index=ShardedRuleIndex())
    named = {r.app_name: r for r in rulesets}
    compactions = 0
    for ruleset in rulesets:
        pipeline.detect(ruleset)
        pipeline.commit(ruleset.app_name, ruleset)
        receipt = store.commit_app(
            pipeline, ruleset.app_name, rulesets=named
        )
        compactions += receipt.compacted
        if receipt.compacted:
            assert not (store.path / "journal.jsonl").exists()
    assert compactions >= 1
    assert canonical_state(store) == canonical_state(
        DetectionStore(tmp_path / "store")
    )


# ----------------------------------------------------------------------
# Crash recovery: truncated / corrupt journals, interrupted compaction


def test_truncated_journal_degrades_to_a_commit_boundary(tmp_path):
    rulesets, resolver = build_store(8)
    _, store, states = drive_commits(
        tmp_path / "store", rulesets, resolver,
        removals=[rulesets[1].app_name],
    )
    journal = store.path / "journal.jsonl"
    pristine = journal.read_bytes()
    acknowledged = set(states)
    # Every truncation point — including mid-record tears — must load
    # to exactly one of the acknowledged commit-boundary states.
    for cut in list(range(0, len(pristine), 97)) + [len(pristine) - 1]:
        journal.write_bytes(pristine[:cut])
        state = canonical_state(DetectionStore(store.path))
        assert state is not None
        assert state in acknowledged
    journal.write_bytes(pristine)
    assert canonical_state(DetectionStore(store.path)) == states[-1]


def test_corrupt_mid_journal_record_stops_replay_at_prefix(tmp_path):
    rulesets, resolver = build_store(6)
    _, store, states = drive_commits(tmp_path / "store", rulesets, resolver)
    journal = store.path / "journal.jsonl"
    lines = journal.read_bytes().split(b"\n")[:-1]
    assert len(lines) >= 3
    corrupt_at = 1  # second journal record (third commit overall)
    lines[corrupt_at] = b'{"seq": ' + lines[corrupt_at][10:]
    journal.write_bytes(b"\n".join(lines) + b"\n")
    # Replay stops *before* the corrupt record; later (intact) records
    # must not be applied — a gap would mean serving a fabricated state.
    assert canonical_state(DetectionStore(store.path)) == states[corrupt_at]


def test_interrupted_compaction_leaves_journal_inert(tmp_path):
    rulesets, resolver = build_store(6)
    _, store, states = drive_commits(tmp_path / "store", rulesets, resolver)
    journal = store.path / "journal.jsonl"
    old_journal = journal.read_bytes()
    assert store.compact()
    assert not journal.exists()
    # Crash model: the new base and meta are durable but the journal
    # deletion never happened.  Its records pin the old generation, so
    # replay must ignore every one of them.
    journal.write_bytes(old_journal)
    assert canonical_state(DetectionStore(store.path)) == states[-1]


def test_orphan_shards_from_crashed_compaction_are_ignored(tmp_path):
    rulesets, resolver = build_store(6)
    _, store, states = drive_commits(tmp_path / "store", rulesets, resolver)
    # Crash model: a compaction wrote next-generation shards (even
    # corrupt ones) but never the meta commit point.
    (store.path / "shard-000099-0000.json").write_text("{ torn", "utf-8")
    (store.path / "shard-000099-0001.json.tmp").write_text("x", "utf-8")
    assert canonical_state(DetectionStore(store.path)) == states[-1]
    # The next full save garbage-collects the debris.
    warm = DetectionStore(store.path).warm_start(resolver)
    warm_store = DetectionStore(store.path)
    warm_store.save(warm.pipeline, rulesets={r.app_name: r for r in rulesets})
    assert not (store.path / "shard-000099-0000.json").exists()
    assert not (store.path / "shard-000099-0001.json.tmp").exists()


def test_compaction_restores_byte_identically(tmp_path):
    rulesets, resolver = build_store(8)
    _, store, states = drive_commits(
        tmp_path / "store", rulesets, resolver,
        removals=[rulesets[0].app_name],
    )
    before = canonical_state(store)
    assert before == states[-1]
    assert store.compact()
    assert not (store.path / "journal.jsonl").exists()
    assert canonical_state(DetectionStore(store.path)) == before
    # Idempotent: compacting an already-compacted store changes nothing.
    assert DetectionStore(store.path).compact()
    assert canonical_state(DetectionStore(store.path)) == before


def test_compact_refuses_over_corrupt_base_shard(tmp_path):
    rulesets, resolver = build_store(8)
    _, store, _ = drive_commits(tmp_path / "store", rulesets, resolver)
    shard = next(store.path.glob("shard-*.json"))
    shard.write_text("not json", encoding="utf-8")
    meta_before = (store.path / "meta.json").read_bytes()
    # Folding now would permanently GC the corrupt shard's apps; they
    # must instead keep degrading to transparent re-signing.
    assert not DetectionStore(store.path).compact()
    assert (store.path / "meta.json").read_bytes() == meta_before


# ----------------------------------------------------------------------
# Backend protocol: directory durability details, spec parsing


def test_directory_journal_drops_torn_tail(tmp_path):
    backend = DirectoryBackend(tmp_path / "b")
    backend.append_journal("journal.jsonl", '{"seq": 0}')
    backend.append_journal("journal.jsonl", '{"seq": 1}')
    with open(tmp_path / "b" / "journal.jsonl", "ab") as handle:
        handle.write(b'{"seq": 2, "torn')  # no trailing newline
    assert backend.read_journal("journal.jsonl") == [
        '{"seq": 0}', '{"seq": 1}',
    ]


def test_directory_sweep_clears_crashed_temporaries(tmp_path):
    backend = DirectoryBackend(tmp_path / "b")
    backend.write_doc("meta.json", "{}")
    (tmp_path / "b" / "meta.json.tmp").write_text("partial", "utf-8")
    assert "meta.json.tmp" not in backend.list_docs("meta")
    backend.sweep()
    assert not (tmp_path / "b" / "meta.json.tmp").exists()
    assert backend.read_doc("meta.json") == "{}"


def test_make_store_backend_specs(tmp_path):
    assert isinstance(
        make_store_backend(None, tmp_path), DirectoryBackend
    )
    assert isinstance(
        make_store_backend("dir", tmp_path), DirectoryBackend
    )
    sqlite_backend = make_store_backend("sqlite", tmp_path)
    assert isinstance(sqlite_backend, SQLiteStoreBackend)
    assert sqlite_backend.path == tmp_path / "store.sqlite"
    named = make_store_backend(f"sqlite:{tmp_path / 'fleet.db'}", tmp_path)
    assert named.path == tmp_path / "fleet.db"
    assert make_store_backend(named, tmp_path) is named
    with pytest.raises(ValueError):
        make_store_backend("postgres", tmp_path)


# ----------------------------------------------------------------------
# SQLite KV backend


def test_sqlite_backend_equivalent_to_directory(tmp_path):
    rulesets, resolver = build_store(8)
    removals = [rulesets[3].app_name]
    _, dir_store, _ = drive_commits(
        tmp_path / "dir", rulesets, resolver, removals=removals
    )
    _, sql_store, _ = drive_commits(
        tmp_path / "sql", rulesets, resolver, backend="sqlite",
        removals=removals,
    )
    assert (tmp_path / "sql" / "store.sqlite").is_file()
    assert not (tmp_path / "sql" / "meta.json").exists()
    assert canonical_state(sql_store) == canonical_state(dir_store)
    warm = DetectionStore(tmp_path / "sql", backend="sqlite").warm_start(
        resolver
    )
    assert not warm.cold and warm.pipeline.stats.solver_calls == 0


def test_sqlite_namespaces_share_one_database(tmp_path):
    rulesets, resolver = build_store(8)
    shared = SQLiteStoreBackend(tmp_path / "fleet.db")
    half = len(rulesets) // 2
    _, store_a, _ = drive_commits(
        tmp_path / "a", rulesets[:half], resolver,
        backend=shared.namespace("home-a"),
    )
    _, store_b, _ = drive_commits(
        tmp_path / "b", rulesets[half:], resolver,
        backend=shared.namespace("home-b"),
    )
    # One database file; both stores load their own state back.
    snap_a = store_a.load()
    snap_b = store_b.load()
    assert sorted(snap_a.apps) == sorted(r.app_name for r in rulesets[:half])
    assert sorted(snap_b.apps) == sorted(r.app_name for r in rulesets[half:])
    # A reopened view (fresh process) sees the same canonical state.
    reopened = DetectionStore(
        tmp_path / "a",
        backend=SQLiteStoreBackend(tmp_path / "fleet.db", "home-a"),
    )
    assert canonical_state(reopened) == canonical_state(store_a)


def test_sqlite_corruption_degrades_to_cold_store(tmp_path):
    db = tmp_path / "corrupt.db"
    db.write_bytes(b"definitely not a sqlite database" * 64)
    with pytest.warns(RuntimeWarning, match="degrading to a cold store"):
        backend = SQLiteStoreBackend(db)
    store = DetectionStore(tmp_path / "s", backend=backend)
    assert store.load() is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rulesets, resolver = build_store(4)
        warm = store.warm_start(resolver, rulesets)
        assert warm.cold
        assert sorted(warm.stale_apps) == sorted(
            r.app_name for r in rulesets
        )
    # The file is never deleted: diagnosis stays possible, and a
    # healthy controller sharing the path is never sabotaged.
    assert db.read_bytes().startswith(b"definitely not")


def test_sqlite_failed_open_closes_its_connection(tmp_path, monkeypatch):
    closed = []

    class TrackedConnection(sqlite3.Connection):
        def close(self):
            closed.append(self)
            super().close()

    connect = sqlite3.connect
    monkeypatch.setattr(
        sqlite3, "connect",
        lambda *args, **kwargs: connect(
            *args, factory=TrackedConnection, **kwargs
        ),
    )
    db = tmp_path / "garbage.db"
    db.write_bytes(b"definitely not a sqlite database" * 64)
    # connect() succeeds on any file; the first PRAGMA then fails.
    with pytest.warns(RuntimeWarning, match="degrading to a cold store"):
        backend = SQLiteStoreBackend(db)
    assert backend.breaker_state == "disabled"
    assert len(closed) == 1


# ----------------------------------------------------------------------
# Service-level residency: lazy hydration + LRU eviction


def fleet_service(store_root, **kwargs):
    kwargs.setdefault("workers", None)
    kwargs.setdefault("policy", SeverityThresholdPolicy(threshold=10**6))
    service = HomeGuardService(store_root=store_root, **kwargs)
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    return service


def churn(service, home_ids):
    """Install two apps into every home, interleaved so each home is
    touched, evicted (in the bounded arm) and touched again."""
    reports = []
    for home_id in home_ids:
        service.create_home(home_id)
        service.register_device(home_id, "TV", "tv")
        service.register_device(home_id, "Temp", "temperatureSensor")
        service.register_device(home_id, "Window", "windowOpener")
        session = service.install(
            InstallRequest(home_id=home_id, **COMFORT_TV)
        )
        reports.append((home_id, session.decision, session.report))
    for home_id in home_ids:
        session = service.install(
            InstallRequest(home_id=home_id, **COLD_DEFENDER)
        )
        reports.append((home_id, session.decision, session.report))
    return reports


def test_lru_bounded_service_matches_unbounded(tmp_path):
    home_ids = [f"h{i:02d}" for i in range(10)]
    bound = 3
    unbounded = fleet_service(tmp_path / "unbounded")
    bounded = fleet_service(
        tmp_path / "bounded", max_resident_homes=bound
    )
    reference = churn(unbounded, home_ids)
    peak = 0
    results = []
    for step in churn(bounded, home_ids):
        results.append(step)
        peak = max(peak, bounded.resident_count())
    assert peak <= bound
    assert bounded.home_count() == len(home_ids)
    assert bounded.homes() == unbounded.homes()
    # Same decisions, same wire reports, on every single install.
    assert [
        (home_id, decision, report.to_json())
        for home_id, decision, report in results
    ] == [
        (home_id, decision, report.to_json())
        for home_id, decision, report in reference
    ]
    # Same persisted store state per home, byte for byte.
    for home_id in home_ids:
        assert canonical_state(
            DetectionStore(tmp_path / "bounded" / home_id)
        ) == canonical_state(
            DetectionStore(tmp_path / "unbounded" / home_id)
        )
    # The storage counters flow to the wire record.  (Per-home stats
    # are per-residency, like any in-memory counter across a restart:
    # ask a home that committed since its last hydration.)
    record = bounded.detection_stats_record(home_ids[-1])
    assert record.store_bytes_written > 0
    assert record.store_commit_seconds > 0


def test_eviction_is_a_warm_restart(tmp_path):
    service = fleet_service(tmp_path / "root", max_resident_homes=1)
    service.create_home("h1")
    service.register_device("h1", "TV", "tv")
    service.register_device("h1", "Temp", "temperatureSensor")
    service.register_device("h1", "Window", "windowOpener")
    service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    first = service.home("h1")
    # Touching a second home evicts h1 (bound is 1, h1 has no pending
    # sessions and a committed store).
    service.create_home("h2")
    assert service.resident_count() == 1
    assert service.home_count() == 2
    rehydrated = service.home("h1")
    assert rehydrated is not first  # a fresh hydration, not the object
    assert rehydrated.installed_apps() == ["ComfortTV"]
    assert [review.decision for review in rehydrated.reviews] == ["keep"]
    # And it keeps working: the next install detects against the
    # restored history without re-solving the restored apps.
    session = service.install(InstallRequest(home_id="h1", **COLD_DEFENDER))
    assert any(t.type == "AR" for t in session.report.threats)


def test_pending_sessions_pin_homes_over_the_bound(tmp_path):
    service = fleet_service(
        tmp_path / "root", max_resident_homes=1, policy=None
    )  # default InteractivePolicy: sessions stay pending
    sessions = {}
    for home_id in ("h1", "h2", "h3"):
        service.create_home(home_id)
        service.register_device(home_id, "TV", "tv")
        service.register_device(home_id, "Temp", "temperatureSensor")
        service.register_device(home_id, "Window", "windowOpener")
        sessions[home_id] = service.install(
            InstallRequest(home_id=home_id, **COMFORT_TV)
        )
    # All three stay resident: their pending reviews exist only in
    # memory, so eviction would lose acknowledged sessions.
    assert service.resident_count() == 3
    for home_id, session in sessions.items():
        decided = service.decide(
            DecisionRequest(
                home_id=home_id, session_id=session.session_id,
                decision="keep",
            )
        )
        assert decided.decision == "keep"
    # Decisions un-pin: the LRU bound applies again.
    assert service.resident_count() == 1
    assert sorted(service.installed_apps(h) for h in ("h1", "h2", "h3")) == [
        ["ComfortTV"]
    ] * 3


def test_homes_without_stores_are_never_evicted(tmp_path):
    service = HomeGuardService(
        workers=None, max_resident_homes=1, **KEEP_ALL
    )
    for home_id in ("h1", "h2", "h3"):
        service.create_home(home_id)
    # No store to re-hydrate from: eviction would destroy state.
    assert service.resident_count() == 3


def test_fleet_sqlite_backend_packs_fleet_into_one_file(tmp_path):
    home_ids = [f"h{i}" for i in range(4)]
    dir_arm = fleet_service(tmp_path / "dir")
    sql_arm = fleet_service(
        tmp_path / "sql", store_backend="sqlite", max_resident_homes=2
    )
    churn(dir_arm, home_ids)
    churn(sql_arm, home_ids)
    assert (tmp_path / "sql" / "store.sqlite").is_file()
    shared = SQLiteStoreBackend(tmp_path / "sql" / "store.sqlite")
    for home_id in home_ids:
        assert canonical_state(
            DetectionStore(
                tmp_path / "sql" / home_id,
                backend=shared.namespace(home_id),
            )
        ) == canonical_state(
            DetectionStore(tmp_path / "dir" / home_id)
        )
        # No per-home directory sprawl.
        assert not (tmp_path / "sql" / home_id).exists()
