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
import shutil
import sqlite3
import time
import warnings
from pathlib import Path

import pytest

from repro.constraints.solvecache import SQLiteSolveCache
from repro.corpus import app_by_name
from repro.detector import DetectionPipeline, DetectionStore
from repro.detector.store import SCHEMA_VERSION
from repro.detector.storage import (
    DirectoryBackend,
    SQLiteStoreBackend,
    StoreReadError,
    StoreWriteError,
    make_store_backend,
)
from repro.runtime.events import Event
from repro.service.home import _allowed_record
from repro.service import (
    AuditRequest,
    DecisionRequest,
    HomeGuardService,
    InstallRequest,
    SeverityThresholdPolicy,
)

from repro.testing.faults import FaultPlan, FaultSpec

from tests.stores import (
    FrontendMarker,
    FullSaveStore,
    full_save_homes,
    recording_homes,
)
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

# A device-type pair: re-typing "Heater" from "switch" to "heater"
# re-signs an installed ModeAwareHeater when ItsTooHot binds it.
MODE_AWARE_HEATER = dict(
    app_name="ModeAwareHeater",
    devices={"heater1": "Heater", "tSensor": "Temp"},
    values={"tooCold": 62, "occupiedMode": "Home"},
)
ITS_TOO_HOT = dict(
    app_name="ItsTooHot",
    devices={"tSensor": "Temp", "ac": "Heater"},
    values={"tooHot": 80},
)

CHAIN_APPS = (
    dict(
        app_name="SwitchChangesMode",
        devices={"master": "Wall switch"},
        values={"onMode": "Home", "offMode": "Away"},
    ),
    dict(
        app_name="MakeItSo",
        devices={"switches": "Wall switch", "locks": "Front lock"},
        values={"targetMode": "Home", "heatSetpoint": 70},
    ),
    dict(
        app_name="CurlingIron",
        devices={"motion1": "Hall motion", "outlets": "Wall switch"},
        values={"minutesLater": 30},
    ),
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
    remove ``removals``.  Each commit also marks its app in the
    frontend blob (a put, and a drop on removal).  Returns the
    pipeline, the store, and the canonical state recorded after every
    commit."""
    marker = FrontendMarker()
    pipeline = DetectionPipeline(resolver)
    store_cls = FullSaveStore if full_save else DetectionStore
    store = store_cls(path, backend=backend)
    named = {r.app_name: r for r in rulesets}
    states = []
    for ruleset in rulesets:
        pipeline.detect(ruleset)
        pipeline.commit(ruleset.app_name, ruleset)
        store.commit_app(
            pipeline, ruleset.app_name, rulesets=named,
            frontend=marker.put(ruleset.app_name),
        )
        states.append(canonical_state(store))
    for app_name in removals:
        pipeline.discard(app_name)
        pipeline.remove_ruleset(app_name)
        store.commit_app(
            pipeline, app_name, rulesets=named,
            frontend=marker.drop(app_name), remove=True,
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


MONITOR_PHASE = 20  # monitor batches right after the two decisions


def _stored_service(store_root, specs, tune_store=None):
    """A service with one home, ``h1``, stored under ``store_root`` and
    the apps of ``specs`` preloaded; ``tune_store`` sees its store."""
    service = HomeGuardService(workers=None, store_root=store_root)
    service.preload([app_by_name(spec["app_name"]) for spec in specs])
    service.create_home("h1")
    if tune_store is not None:
        tune_store(service.home("h1").store)
    return service


def _frontend_commit_steps(store_root, tune_store=None):
    """Drive one stored home through two interfering installs and
    their decisions, then ``MONITOR_PHASE`` seeded monitor batches
    (each one frontend-only commit), then every other kind of frontend
    change: two pending sessions decided out of order, a DELETE of a
    kept app, a RECONFIGURE of it and its re-keep (the DELETE prunes
    threat records in earlier reviews, the keep restores them), late
    device registrations, Allowed-list growth and a chain, an audit,
    and a warm reload mid-stream, with monitor batches between.
    Yields ``(step, store path)`` after every step; ``tune_store`` sees
    the home's store before its first commit (and after the reload)."""
    path = store_root / "h1"

    def open_service():
        service = _stored_service(
            store_root, (COMFORT_TV, COLD_DEFENDER, *CHAIN_APPS), tune_store
        )
        # A short dedup memory, so the batch list is trimmed in-run.
        service.home("h1").monitor_batch_memory = 8
        return service

    service = open_service()
    tv = service.register_device("h1", "TV", "tv").device_id
    service.register_device("h1", "Temp", "temperatureSensor")
    window = service.register_device("h1", "Window", "windowOpener").device_id

    def install(spec):
        return service.install(InstallRequest(home_id="h1", **spec))

    def decide(session, decision):
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision=decision,
        ))

    rng = random.Random(7)
    clock = [0.0]
    batches = iter(range(10**6))

    def monitor_batch():
        events = []
        for _ in range(8):
            clock[0] += rng.uniform(1, 900)
            subject, name, values = rng.choice([
                (window, "switch", ["on", "off"]),
                (tv, "switch", ["on", "off"]),
                ("meter", "power", [0.0, 100.0, 1500.0]),
                ("front", "lock", ["locked", "unlocked"]),
            ])
            events.append(Event(
                subject=subject, name=name,
                value=rng.choice(values), timestamp=clock[0],
            ))
        service.home("h1").ingest_events(
            events, batch_id=f"b{next(batches)}"
        )

    for spec in (COMFORT_TV, COLD_DEFENDER):
        decide(install(spec), "keep")
        yield f"keep {spec['app_name']}", path
    for batch in range(MONITOR_PHASE):
        monitor_batch()
        yield f"batch {batch}", path
    first = install(COLD_DEFENDER)
    second = install(COMFORT_TV)
    decide(second, "keep")
    yield "keep the second pending session", path
    decide(first, "keep")
    yield "keep the first pending session", path
    decide(install(COLD_DEFENDER), "delete")
    yield "delete kept ColdDefender", path
    monitor_batch()
    yield "batch after delete", path
    # RECONFIGURE commits nothing; its review and recorded payload
    # reach the store with the next commit.
    decide(install(dict(COLD_DEFENDER, values={"weather": "sunny"})),
           "reconfigure")
    yield "reconfigure ColdDefender", path
    monitor_batch()
    yield "batch after reconfigure", path
    service.register_device("h1", "Lamp", "switch")
    decide(install(COLD_DEFENDER), "keep")
    yield "keep ColdDefender again", path
    # A covert-triggering pair joins the Allowed list, and the third
    # app closes a chain through it (paper §VIII-B example 2).
    for label, type_name in (
        ("Wall switch", "switch"), ("Front lock", "doorLock"),
        ("Hall motion", "motionSensor"),
    ):
        service.register_device("h1", label, type_name)
    for spec in CHAIN_APPS:
        decide(install(spec), "keep")
        yield f"keep {spec['app_name']}", path
    service.audit(AuditRequest(home_id="h1"))
    yield "audit", path
    monitor_batch()
    yield "batch after audit", path
    service.close()
    service = open_service()
    service.restore("h1")
    yield "warm reload", path
    for batch in range(4):
        monitor_batch()
        yield f"batch {batch} after reload", path
    for spec in (COLD_DEFENDER, CHAIN_APPS[1]):
        decide(install(spec), "delete")
        yield f"delete {spec['app_name']} after reload", path
    service.close()


def _generation(store_path) -> int:
    meta = json.loads((store_path / "meta.json").read_text("utf-8"))
    return meta["generation"]


def store_bytes(store_path) -> list[bytes]:
    """A compacted store's documents as bytes — meta, then its shards
    in meta order — with the base generation number masked, so stores
    written at different generations compare byte for byte."""
    meta_bytes = (store_path / "meta.json").read_bytes()
    meta = json.loads(meta_bytes)
    generation = meta["generation"]
    masked = meta_bytes.replace(
        f'"generation": {generation}'.encode(), b'"generation": G'
    ).replace(f"-{generation:06d}-".encode(), b"-G-")
    return [masked] + [
        (store_path / name).read_bytes() for name in meta["shards"].values()
    ]


def _compacted_bytes(store_path, scratch) -> list[bytes]:
    """Fold a copy of the store and return its bytes."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(store_path, scratch)
    assert DetectionStore(scratch).compact()
    assert not (scratch / "journal.jsonl").exists()
    return store_bytes(scratch)


def _resign_steps(store_root, tune_store=None):
    """Drive one stored home through both ways detection re-signs an
    installed app in place: a RECONFIGURE of the first kept app (the
    rejected payload stays recorded, and the app is signed under it)
    and a re-typed device that a later review binds (every installed
    app bound to it is re-signed), then an audit that solves the pairs
    the re-signing dropped, a re-keep and a DELETE of an app with
    accepted pairs, and a warm reload.  Yields ``(step, store path)``
    after every step, like :func:`_frontend_commit_steps`."""
    path = store_root / "h1"
    specs = (COMFORT_TV, COLD_DEFENDER, MODE_AWARE_HEATER, ITS_TOO_HOT)
    service = _stored_service(store_root, specs, tune_store)
    for label, type_name in (
        ("TV", "tv"), ("Temp", "temperatureSensor"),
        ("Window", "windowOpener"), ("Heater", "switch"),
    ):
        service.register_device("h1", label, type_name)
    window = service.home("h1").home_devices["Window"].device_id

    def decide(spec, decision):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision=decision,
        ))

    def monitor_batch(number):
        service.home("h1").ingest_events(
            [Event(window, "switch", "on", float(number))],
            batch_id=f"b{number}",
        )

    for spec in (COMFORT_TV, COLD_DEFENDER):
        decide(spec, "keep")
        yield f"keep {spec['app_name']}", path
    decide(dict(COMFORT_TV, values={"threshold1": 25}), "reconfigure")
    yield "reconfigure kept ComfortTV", path
    monitor_batch(1)
    yield "batch after the reconfigure", path
    decide(MODE_AWARE_HEATER, "keep")
    yield "keep ModeAwareHeater", path
    service.register_device("h1", "Heater", "heater")
    decide(ITS_TOO_HOT, "keep")
    yield "re-type Heater, keep ItsTooHot", path
    service.audit(AuditRequest(home_id="h1"))
    yield "audit", path
    monitor_batch(2)
    yield "batch after the audit", path
    decide(MODE_AWARE_HEATER, "keep")
    yield "keep ModeAwareHeater again", path
    decide(MODE_AWARE_HEATER, "delete")
    yield "delete ModeAwareHeater", path
    service.close()
    service = _stored_service(store_root, specs, tune_store)
    service.restore("h1")
    yield "warm reload", path
    monitor_batch(3)
    yield "batch after the reload", path
    service.close()


def _assert_equal_full_saves(steps, root, tune_store):
    """Drive ``steps(store_root, tune_store)`` against a delta store
    and against the full-save oracle: after every step the canonical
    state, and the delta store's bytes once compacted, must equal the
    oracle's.  Then every delta commit but the home's first (the seed)
    must be a journal append: none is a full save, and the base
    generation moves only in a step whose commits compacted.  Returns
    the delta store's base generation per step."""
    receipts = []
    delta = []
    with recording_homes(receipts):
        for step, path in steps(root / "delta", tune_store):
            delta.append((
                step,
                canonical_state(DetectionStore(path)),
                _generation(path),
                _compacted_bytes(path, root / "fold"),
                list(receipts),
            ))
            receipts.clear()
    with full_save_homes():
        oracle = [
            (step, canonical_state(DetectionStore(path)), store_bytes(path))
            for step, path in steps(root / "full", None)
        ]
    assert [step for step, *_ in delta] == [step for step, *_ in oracle]
    for (step, state, _, folded, _), (_, oracle_state, oracle_bytes) in zip(
        delta, oracle
    ):
        assert oracle_state is not None, step
        assert state == oracle_state, step
        assert folded == oracle_bytes, step
    assert not (root / "full" / "h1" / "journal.jsonl").exists()
    commits = [receipt for *_, step_receipts in delta
               for receipt in step_receipts]
    assert commits[0].full
    assert not [receipt for receipt in commits[1:] if receipt.full]
    for (_, _, before, *_), (step, _, after, _, step_receipts) in zip(
        delta, delta[1:]
    ):
        compacted = any(receipt.compacted for receipt in step_receipts)
        assert (after != before) == compacted, step
    return [generation for _, _, generation, *_ in delta]


def test_frontend_commits_equal_full_saves(tmp_path):
    def tune(store):
        store.journal_max_records = 3  # compaction fires mid-monitoring

    generations = _assert_equal_full_saves(
        _frontend_commit_steps, tmp_path / "steps", tune
    )
    # Only frontend commits ran in the monitor phase, so a later base
    # generation at its end proves commit_frontend compacted.
    assert generations[1 + MONITOR_PHASE] > generations[1]
    # A re-signed app's directory entry reaches the store too.
    _assert_equal_full_saves(_resign_steps, tmp_path / "resign", tune)


# Each app with two configurations, and devices with two types: the
# random walk below reconfigures kept apps and re-types bound devices.
RANDOM_APPS = [
    (spec, dict(spec["values"], **changed))
    for spec, changed in (
        (COMFORT_TV, {"threshold1": 25}),
        (COLD_DEFENDER, {"weather": "sunny"}),
        (MODE_AWARE_HEATER, {"tooCold": 58}),
        (ITS_TOO_HOT, {"tooHot": 85}),
    )
]
RANDOM_DEVICES = {
    "TV": ("tv",),
    "Temp": ("temperatureSensor",),
    "Window": ("windowOpener", "switch"),
    "Heater": ("switch", "heater"),
}


def _random_steps(store_root, seed, count, tune_store=None):
    """``count`` seeded random operations on one stored home: installs
    decided keep, delete or reconfigure (with either configuration),
    device registrations and re-types, monitor batches, audits and
    warm restarts.  The draws never depend on the home's state, so a
    run against the full-save oracle makes the same moves.  Yields
    ``(step, store path)`` after every operation."""
    rng = random.Random(seed)
    path = store_root / "h1"
    specs = [spec for spec, _ in RANDOM_APPS]
    service = _stored_service(store_root, specs, tune_store)
    for label, types in RANDOM_DEVICES.items():
        service.register_device("h1", label, types[0])
    # A first batch that observes nothing (a switch at noon) still
    # creates the ledger.
    clock = 12 * 3600.0
    home = service.home("h1")
    tv = home.home_devices["TV"].device_id
    assert home.ingest_events([Event(tv, "switch", "on", clock)]) == []
    for step in range(count):
        kind = rng.choice(
            ["install"] * 4 + ["device", "batch", "batch", "audit", "restore"]
        )
        if kind == "install":
            spec, changed = rng.choice(RANDOM_APPS)
            values = rng.choice([spec["values"], changed])
            decision = rng.choice(["keep", "keep", "delete", "reconfigure"])
            session = service.install(
                InstallRequest(home_id="h1", **dict(spec, values=values))
            )
            service.decide(DecisionRequest(
                home_id="h1", session_id=session.session_id,
                decision=decision,
            ))
            kind = f"{decision} {spec['app_name']} {values}"
        elif kind == "device":
            label = rng.choice(sorted(RANDOM_DEVICES))
            type_name = rng.choice(RANDOM_DEVICES[label])
            service.register_device("h1", label, type_name)
            kind = f"register {label} as {type_name}"
        elif kind == "batch":
            home = service.home("h1")
            events = []
            for _ in range(6):
                clock += rng.uniform(1, 600)
                label, name, values = rng.choice([
                    ("Window", "switch", ["on", "off"]),
                    ("TV", "switch", ["on", "off"]),
                    ("Heater", "switch", ["on", "off"]),
                    ("Temp", "temperature", [55, 70, 90]),
                ])
                events.append(Event(
                    subject=home.home_devices[label].device_id, name=name,
                    value=rng.choice(values), timestamp=clock,
                ))
            home.ingest_events(events, batch_id=f"b{step}")
        elif kind == "audit":
            service.audit(AuditRequest(home_id="h1"))
        else:
            service.close()
            service = _stored_service(store_root, specs, tune_store)
            service.restore("h1")
        yield f"{step}: {kind}", path
    service.close()


@pytest.mark.slow
def test_random_operations_equal_full_saves(tmp_path):
    # Seed 25 re-types "Heater" under an installed ModeAwareHeater
    # before ItsTooHot binds it (step 18); seed 1 keeps apps whose
    # earlier rejected reviews must render their threats again.  All
    # reconfigure kept apps, keep solves cached long before, delete
    # apps with accepted pairs and audit — each a journal append.
    def tune(store):
        store.journal_max_records = 8  # replay and compaction both run

    for seed in (25, 1, 2, 3, 4, 5):
        _assert_equal_full_saves(
            lambda root, tune_store: _random_steps(root, seed, 60, tune_store),
            tmp_path / f"seed{seed}",
            tune,
        )


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("schema", [3, 4])
def test_v3_and_v4_stores_load_under_v5(tmp_path, schema):
    # A store written by the last writer of its format (see
    # tests/fixtures/make_store_v3.py and make_store_v4.py) parses to
    # the state that writer parsed it to, folds into a v5 base without
    # changing it, and a home warm-started from it migrates it with its
    # first commit.
    fixture = FIXTURES / f"store_v{schema}"
    expected = (fixture / "canonical_state.json").read_text("utf-8")
    for name in ("load", "fold", "home"):
        shutil.copytree(fixture / "h1", tmp_path / name / "h1")
    store = DetectionStore(tmp_path / "load" / "h1")
    assert store.load().schema == schema
    assert canonical_state(store) == expected

    folded = DetectionStore(tmp_path / "fold" / "h1")
    assert folded.compact()
    assert folded.load().schema == SCHEMA_VERSION == 5
    assert canonical_state(folded) == expected

    apps = list(json.loads(expected)["apps"])
    service = HomeGuardService(workers=None, store_root=tmp_path / "home")
    service.preload([app_by_name(app) for app in apps])
    service.create_home("h1")
    assert sorted(service.restore("h1")) == sorted(apps)
    home = service.home("h1")
    assert len(home.observations()) == len(
        json.loads(expected)["frontend"]["extra"]["observations"]
    )
    window = home.home_devices["Window"].device_id
    home.ingest_events([Event(window, "switch", "on", 10**6)], batch_id="v5")
    migrated = DetectionStore(home.store.path)
    assert migrated.load().schema == 5
    assert not (home.store.path / "journal.jsonl").exists()
    assert json.dumps(migrated.load().frontend) == json.dumps(
        json.loads(json.dumps(home._frontend_blob()))
    )
    service.close()


def test_monitor_commit_bytes_stay_flat_as_the_ledger_grows(tmp_path):
    # A monitor commit journals the batch's own observations, not the
    # ledger: bytes per (non-compacting) commit at batch 1,000 stay
    # within 2x of those at batch 10.  A whole-blob record grew ~31x.
    service = HomeGuardService(workers=None, store_root=tmp_path)
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    service.create_home("h1")
    tv = service.register_device("h1", "TV", "tv").device_id
    service.register_device("h1", "Temp", "temperatureSensor")
    window = service.register_device("h1", "Window", "windowOpener").device_id
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision="keep",
        ))
    home = service.home("h1")
    receipts = []
    commit_frontend = home.store.commit_frontend

    def recording(*args, **kwargs):
        receipt = commit_frontend(*args, **kwargs)
        receipts.append(receipt)
        return receipt

    home.store.commit_frontend = recording
    rng = random.Random(11)
    clock = 0.0
    for batch in range(1000):
        events = []
        for _ in range(10):
            clock += rng.uniform(1, 120)
            subject, name, values = rng.choice([
                (window, "switch", ["on", "off"]),
                (tv, "switch", ["on", "off"]),
                ("meter", "power", [100.0, 1500.0]),
            ])
            events.append(Event(
                subject=subject, name=name,
                value=rng.choice(values), timestamp=clock,
            ))
        home.ingest_events(events, batch_id=f"b{batch}")
    service.close()
    assert len(home.observations()) > 1000

    def median_bytes(window_receipts):
        sizes = sorted(
            receipt.bytes_written
            for receipt in window_receipts
            if not receipt.compacted and not receipt.full
        )
        return sizes[len(sizes) // 2]

    early = median_bytes(receipts[:20])
    late = median_bytes(receipts[-20:])
    assert late <= 2 * early, (early, late)


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
    pipeline = DetectionPipeline(resolver)
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
    pipeline = DetectionPipeline(resolver)
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


@pytest.mark.slow
def test_truncated_journal_degrades_to_a_commit_boundary(tmp_path):
    rulesets, resolver = build_store(9)
    extra = rulesets.pop()
    _, store, states = drive_commits(
        tmp_path / "store", rulesets, resolver,
        removals=[rulesets[1].app_name],
    )
    journal = store.path / "journal.jsonl"
    pristine = journal.read_bytes()
    acknowledged = set(states)
    named = {r.app_name: r for r in rulesets + [extra]}
    # Every truncation point — including mid-record tears — must load
    # to exactly one of the acknowledged commit-boundary states, and a
    # commit made after the cut must survive a reload.
    for cut in list(range(0, len(pristine), 97)) + [len(pristine) - 1]:
        journal.write_bytes(pristine[:cut])
        state = canonical_state(DetectionStore(store.path))
        assert state is not None
        assert state in acknowledged
        _assert_commit_after_cut_lands(
            store.path, tmp_path / "after-cut", resolver, extra, named
        )
    journal.write_bytes(pristine)
    assert canonical_state(DetectionStore(store.path)) == states[-1]


def _assert_commit_after_cut_lands(path, scratch, resolver, extra, named):
    """On a copy of the (cut) store at ``path``, restore a fresh
    pipeline, install ``extra`` and commit it through a fresh store: the
    commit is a journal append, and a reload holds ``extra`` and equals
    a full save of the same pipeline."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(path, scratch / "delta")
    store = DetectionStore(scratch / "delta")
    snapshot = store.load()
    pipeline = DetectionPipeline(resolver)
    store.restore_into(pipeline, snapshot=snapshot)
    pipeline.detect(extra)
    pipeline.commit(extra.app_name, extra)
    receipt = store.commit_app(pipeline, extra.app_name, rulesets=named)
    assert not receipt.full
    reloaded = DetectionStore(scratch / "delta")
    assert extra.app_name in reloaded.load().apps
    oracle = FullSaveStore(scratch / "oracle")
    oracle.save(pipeline, rulesets=named, frontend=snapshot.frontend)
    assert canonical_state(reloaded) == canonical_state(oracle)


def _ops_in(journal_bytes: bytes) -> set[str]:
    """The record kinds and frontend op kinds a journal carries
    (``put``/``drop`` with their section; ``+cache`` and ``+resign``
    on a record kind that carries a cache delta or re-signs)."""
    kinds = set()
    for line in journal_bytes.splitlines():
        record = json.loads(line)
        kinds.add(record["op"])
        if "cache_add" in record or "cache_drop" in record:
            kinds.add(f"{record['op']}+cache")
        if "resign" in record:
            kinds.add(f"{record['op']}+resign")
        for op in record.get("frontend_ops", []):
            keyed = op[0] in ("put", "drop")
            kinds.add(f"{op[0]} {op[1]}" if keyed else op[0])
    return kinds


#: The record kinds and frontend ops each home step list journals.
HOME_JOURNAL_KINDS = {
    "frontend": {
        "commit", "commit+cache", "remove", "remove+cache", "frontend",
        "put payloads", "drop payloads", "put device_types",
        "put home_devices", "allow", "disallow", "review", "monitor",
    },
    "resign": {
        "commit", "commit+cache", "commit+resign", "remove", "remove+cache",
        "frontend", "frontend+cache", "frontend+resign", "put payloads",
        "drop payloads", "put device_types", "put home_devices", "allow",
        "disallow", "review", "monitor",
    },
}


def test_truncated_home_journal_degrades_to_a_commit_boundary(tmp_path):
    # The same battery over the journals a home wrote, holding every
    # record kind and frontend op the home emits (no compaction: one
    # base, one log), cut at every record boundary and one byte either
    # side of it.
    def tune(store):
        store.journal_max_records = 10**6

    for name, steps in (
        ("frontend", _frontend_commit_steps), ("resign", _resign_steps),
    ):
        _assert_truncations_hit_commit_boundaries(
            steps, tmp_path / name, tune, HOME_JOURNAL_KINDS[name]
        )


def _assert_truncations_hit_commit_boundaries(steps, root, tune, kinds):
    """Drive ``steps``, check the journal carries exactly ``kinds``,
    then cut it at every record boundary ±1 byte (and every 263rd
    byte): each cut must load to a state some step acknowledged."""
    acknowledged = set()
    path = None
    for _, path in steps(root, tune):
        acknowledged.add(canonical_state(DetectionStore(path)))
    journal = path / "journal.jsonl"
    pristine = journal.read_bytes()
    assert _ops_in(pristine) == kinds
    boundaries = [
        index + 1 for index, byte in enumerate(pristine) if byte == 0x0A
    ]
    cuts = set(range(0, len(pristine), 263))
    for boundary in boundaries:
        cuts.update((boundary - 1, boundary, boundary + 1))
    for cut in sorted(cut for cut in cuts if cut <= len(pristine)):
        journal.write_bytes(pristine[:cut])
        state = canonical_state(DetectionStore(path))
        assert state is not None
        assert state in acknowledged, cut
    journal.write_bytes(pristine)


# A failed append surfaces as the backend's error (the directory
# backend raises the injected OSError) or, where the backend swallows
# it and reports zero bytes (SQLite), as the store's StoreWriteError.
APPEND_FAILURES = {
    "dir": sqlite3.OperationalError,
    "sqlite": StoreWriteError,
}


def _home_store(root, backend, home_id="h1") -> DetectionStore:
    """A fresh handle on the store a service rooted at ``root`` with
    ``store_backend=backend`` keeps for ``home_id``."""
    if backend == "sqlite":
        return DetectionStore(
            root / home_id,
            backend=SQLiteStoreBackend(root / "store.sqlite").namespace(
                home_id
            ),
        )
    return DetectionStore(root / home_id)


def _seconds_since_last_fault(plan) -> float:
    """Wall seconds from the plan's last injected fault until now."""
    events = plan.events()
    assert events, "the plan logged no fault events"
    return time.time() - max(event["t"] for event in events)


@pytest.mark.parametrize("backend", sorted(APPEND_FAILURES))
def test_failed_commits_journal_their_delta_later(tmp_path, backend):
    # A store append that fails leaves the home's durable cursor where
    # it was: the next commit journals the lost change too, so after
    # every successful commit the store holds exactly the live blob —
    # including a payload that was dropped and re-added across the
    # failure (a pop plus reinsert in one record).  The record lands
    # with the next commit, within 2 s of the fault.
    service = HomeGuardService(
        workers=None, store_root=tmp_path, store_backend=backend
    )
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    service.create_home("h1")
    home = service.home("h1")
    home.store.journal_max_records = 10**6
    for label, type_name in (
        ("TV", "tv"), ("Temp", "temperatureSensor"),
        ("Window", "windowOpener"),
    ):
        service.register_device("h1", label, type_name)

    def decide(spec, decision):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision=decision,
        ))

    def stored_blob():
        return json.dumps(_home_store(tmp_path, backend).load().frontend)

    def live_blob():
        return json.dumps(json.loads(json.dumps(home._frontend_blob())))

    decide(COMFORT_TV, "keep")
    decide(COLD_DEFENDER, "keep")
    plan = FaultPlan(
        [FaultSpec("store.append", kind="io-error", nth=(1,))],
        log_path=tmp_path / "faults.jsonl",
    )
    with plan:
        with pytest.raises(APPEND_FAILURES[backend]):
            decide(COMFORT_TV, "delete")
    assert stored_blob() != live_blob()
    decide(COMFORT_TV, "keep")
    assert _seconds_since_last_fault(plan) < 2.0
    journal = home.store.backend.read_journal("journal.jsonl")
    last_ops = json.loads(journal[-1])["frontend_ops"]
    assert ["drop", "payloads", "ComfortTV"] in last_ops
    assert stored_blob() == live_blob()
    service.close()


@pytest.mark.parametrize("backend", sorted(APPEND_FAILURES))
def test_failed_app_commit_keeps_its_delta(tmp_path, backend):
    # A kept app whose journal append fails must still reach the store:
    # the store holds the unwritten record and appends it ahead of the
    # next commit's, so the app, its solves and its frontend ops all
    # land — within 2 s of the fault — and the store equals a full
    # save after the next commit.
    def run(root, plan):
        service = HomeGuardService(
            workers=None, store_root=root, store_backend=backend
        )
        service.preload([app_by_name("ComfortTV"),
                         app_by_name("ColdDefender")])
        service.create_home("h1")
        service.home("h1").store.journal_max_records = 10**6
        for label, type_name in (
            ("TV", "tv"), ("Temp", "temperatureSensor"),
            ("Window", "windowOpener"),
        ):
            service.register_device("h1", label, type_name)

        def decide(spec):
            session = service.install(InstallRequest(home_id="h1", **spec))
            service.decide(DecisionRequest(
                home_id="h1", session_id=session.session_id,
                decision="keep",
            ))

        decide(COMFORT_TV)
        if plan is not None:
            with plan:
                with pytest.raises(APPEND_FAILURES[backend]):
                    decide(COLD_DEFENDER)
        else:
            decide(COLD_DEFENDER)
        decide(COMFORT_TV)
        if plan is not None:
            assert _seconds_since_last_fault(plan) < 2.0
        live = service.home("h1").pipeline.engine.export_caches()
        service.close()
        return canonical_state(_home_store(root, backend)), live

    state, live = run(tmp_path / "delta", FaultPlan(
        [FaultSpec("store.append", kind="io-error", nth=(1,))],
        log_path=tmp_path / "faults.jsonl",
    ))
    with full_save_homes():
        oracle, _ = run(tmp_path / "full", None)
    assert state == oracle
    assert sum(map(len, live.values())) > 0

    service = HomeGuardService(
        workers=None, store_root=tmp_path / "delta", store_backend=backend
    )
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    service.create_home("h1")
    assert sorted(service.restore("h1")) == ["ColdDefender", "ComfortTV"]
    home = service.home("h1")
    assert home.pipeline.engine.export_caches() == live
    assert home.pipeline.stats.solver_calls == 0
    service.close()


def test_allowed_list_follows_delete_and_rekeep(tmp_path):
    # Re-keeping an app replaces its accepted pairs (each pair once, as
    # its latest review saw it) and a DELETE drops them, so the live
    # list equals the one a restarted home loads, the reload is no
    # full save, and a later reinstall finds the same chains in both.
    def home_after(steps, restart):
        root = tmp_path / f"{len(steps)}-{restart}"
        service = _stored_service(root, (MODE_AWARE_HEATER, ITS_TOO_HOT))
        for label, type_name in (("Temp", "temperatureSensor"),
                                 ("Heater", "heater")):
            service.register_device("h1", label, type_name)
        for spec, decision in steps:
            session = service.install(InstallRequest(home_id="h1", **spec))
            service.decide(DecisionRequest(
                home_id="h1", session_id=session.session_id,
                decision=decision,
            ))
        if restart:
            service.close()
            service = _stored_service(root, (MODE_AWARE_HEATER, ITS_TOO_HOT))
            service.restore("h1")
        return service, root / "h1"

    rekept = [(MODE_AWARE_HEATER, "keep"), (ITS_TOO_HOT, "keep"),
              (MODE_AWARE_HEATER, "keep")]
    for steps in (rekept, rekept + [(MODE_AWARE_HEATER, "delete")]):
        homes = []
        for restart in (False, True):
            service, path = home_after(steps, restart)
            home = service.home("h1")
            pairs = [json.dumps(_allowed_record(t)) for t in home.allowed.pairs]
            assert len(pairs) == len(set(pairs))
            generation = _generation(path)
            review = home.review_installation(
                home.config_recorder.config_of("ItsTooHot")
            )
            home.pipeline.discard("ItsTooHot")
            homes.append((pairs, [_allowed_record(c) for c in review.chains]))
            service.close()
            assert _generation(path) == generation
        assert homes[0] == homes[1]
    assert homes[0][0] == []  # every pair named the deleted app


def test_deleted_install_journals_no_payload(tmp_path):
    # A DELETE cancels the queued put of the payload its review
    # recorded; the drop alone keeps the store equal to a full save.
    service = _stored_service(tmp_path, (COMFORT_TV, COLD_DEFENDER))
    for label, type_name in (
        ("TV", "tv"), ("Temp", "temperatureSensor"),
        ("Window", "windowOpener"),
    ):
        service.register_device("h1", label, type_name)
    for spec, decision in ((COMFORT_TV, "keep"), (COLD_DEFENDER, "delete")):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision=decision,
        ))
    journal = (tmp_path / "h1" / "journal.jsonl").read_text("utf-8")
    ops = json.loads(journal.splitlines()[-1])["frontend_ops"]
    assert ["drop", "payloads", "ColdDefender"] in ops
    assert not [op for op in ops if op[:2] == ["put", "payloads"]]
    service.close()


def test_on_durable_drops_only_the_ops_that_landed(tmp_path):
    # A compaction right after an append runs on_durable a second time;
    # an op queued after the delta was built survives both calls.
    service = HomeGuardService(workers=None, store_root=tmp_path)
    service.create_home("h1")
    home = service.home("h1")
    service.register_device("h1", "Temp", "temperatureSensor")
    home.flush_store()  # a baseline: changes queue from here on
    service.register_device("h1", "TV", "tv")
    delta = home._frontend_delta()
    service.register_device("h1", "Lamp", "switch")
    delta.on_durable()
    delta.on_durable()
    assert home._ops == [["put", "home_devices", "Lamp", {
        "device_id": home.home_devices["Lamp"].device_id, "type": "switch",
    }]]


def test_load_that_changes_the_live_frontend_resyncs(tmp_path):
    # Loading into a home that already holds state merges the two, so
    # the live blob is no longer what the store holds: the next commit
    # must write it whole rather than journal ops against the store.
    service = HomeGuardService(workers=None, store_root=tmp_path)
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    service.create_home("h1")
    for label, type_name in (
        ("TV", "tv"), ("Temp", "temperatureSensor"),
        ("Window", "windowOpener"),
    ):
        service.register_device("h1", label, type_name)
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision="keep",
        ))
    home = service.home("h1")
    reviews = len(home.reviews)
    service.restore("h1")
    assert len(home.reviews) == 2 * reviews
    window = home.home_devices["Window"].device_id
    home.ingest_events([Event(window, "switch", "on", 1.0)], batch_id="b")
    assert not (home.store.path / "journal.jsonl").exists()
    stored = DetectionStore(home.store.path).load().frontend
    assert json.dumps(stored) == json.dumps(
        json.loads(json.dumps(home._frontend_blob()))
    )
    service.close()


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
    # A fresh backend (a restarted process) drops the torn tail before
    # its first append, so the new record gets a line of its own.
    DirectoryBackend(tmp_path / "b").append_journal(
        "journal.jsonl", '{"seq": 2}'
    )
    assert backend.read_journal("journal.jsonl") == [
        '{"seq": 0}', '{"seq": 1}', '{"seq": 2}',
    ]


def test_unreadable_directory_journal_loads_cold(tmp_path):
    # A journal that exists but cannot be read is not an empty one:
    # replaying the base without it would restore a state the store
    # never had, so the load is cold and a commit refuses to full-save
    # over it.  Only an absent journal reads as empty.
    rulesets, resolver = build_store(4)
    pipeline, store, _ = drive_commits(tmp_path / "s", rulesets, resolver)
    journal = tmp_path / "s" / "journal.jsonl"
    assert journal.read_bytes()
    journal.unlink()
    journal.mkdir()  # reading it now fails with IsADirectoryError
    backend = DirectoryBackend(tmp_path / "s")
    with pytest.raises(StoreReadError):
        backend.read_journal("journal.jsonl")
    assert backend.read_journal("absent.jsonl") == []
    assert backend.read_doc("absent.json") is None
    reopened = DetectionStore(tmp_path / "s")
    assert reopened.load() is None
    assert not reopened.compact()
    with pytest.raises(StoreReadError):
        reopened.commit_app(pipeline, rulesets[0].app_name)


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
    with pytest.raises(ValueError):
        make_store_backend(f"dir:{tmp_path / 'elsewhere'}", tmp_path)


def test_service_refuses_a_store_setting_every_home_would_share(tmp_path):
    # A named directory, or a backend instance other than SQLite's
    # (which namespaces per home), would be one store for every home.
    for shared in (
        f"dir:{tmp_path / 'shared'}", DirectoryBackend(tmp_path / "shared")
    ):
        with pytest.raises(ValueError):
            HomeGuardService(
                workers=None, store_root=tmp_path, store_backend=shared
            )


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


def _corrupt_second_half(db: Path) -> None:
    """Checkpoint ``db`` and overwrite the second half of its pages
    with 0xFF: the file still opens, and only a read that walks into
    the damaged pages fails ("database disk image is malformed")."""
    conn = sqlite3.connect(str(db))
    conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    conn.close()
    data = db.read_bytes()
    half = len(data) // 4096 // 2 * 4096
    db.write_bytes(data[:half] + b"\xff" * (len(data) - half))


def test_sqlite_corrupt_page_degrades_on_read(tmp_path):
    # The file opens cleanly; the damage shows only when a read walks
    # into a corrupt page.  That read disables the connection like a
    # corrupt header does and raises the typed StoreReadError — never
    # the raw sqlite3 error, and never an empty journal that would
    # pass for a real one.
    db = tmp_path / "store.sqlite"
    backend = SQLiteStoreBackend(db, namespace="h1")
    for index in range(400):
        line = f"{index:04d}" + "x" * 896
        assert backend.append_journal("journal.jsonl", line) > 0
    del backend  # the last view: its shared connection goes with it
    _corrupt_second_half(db)
    reopened = SQLiteStoreBackend(db, namespace="h1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StoreReadError):
            reopened.read_journal("journal.jsonl")
    assert len(caught) == 1
    assert "degrading to a cold store" in str(caught[0].message)
    assert reopened.breaker_state == "disabled"


def test_sqlite_corrupt_journal_restores_cold_not_partial(tmp_path):
    # A home kept two apps, then journaled 300 device registrations.
    # With the pages under its journal corrupt, a restore must not
    # replay the base without the journal (that would bring back a
    # state the home never had); it loads cold: no apps, one warning,
    # the store breaker disabled, and no exception.
    def service():
        service = HomeGuardService(
            workers=None, store_root=tmp_path, store_backend="sqlite",
            **KEEP_ALL,
        )
        service.preload(
            [app_by_name("ComfortTV"), app_by_name("ColdDefender")]
        )
        service.create_home("h1")
        return service

    first = service()
    first.home("h1").store.journal_max_records = 10**6
    for label, type_name in (
        ("TV", "tv"), ("Temp", "temperatureSensor"),
        ("Window", "windowOpener"),
    ):
        first.register_device("h1", label, type_name)
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = first.install(InstallRequest(home_id="h1", **spec))
        assert session.decision == "keep"
    for index in range(300):
        first.register_device("h1", f"Lamp{index:03d}", "switch")
    first.close()
    intact = service()
    assert sorted(intact.restore("h1")) == ["ColdDefender", "ComfortTV"]
    intact.close()
    del first, intact  # drop the last views of the shared connection
    _corrupt_second_half(tmp_path / "store.sqlite")

    damaged = service()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert damaged.restore("h1") == []
    assert len(caught) == 1
    assert "degrading to a cold store" in str(caught[0].message)
    assert damaged.breaker_states()["store"] == "disabled"


@pytest.mark.parametrize(
    "open_backend, degraded",
    [
        (SQLiteStoreBackend, "degrading to a cold store"),
        (SQLiteSolveCache, "degrading to re-solving"),
    ],
    ids=["store", "solve-cache"],
)
def test_sqlite_failed_open_closes_its_connection(
    tmp_path, monkeypatch, open_backend, degraded
):
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
    with pytest.warns(RuntimeWarning, match=degraded):
        backend = open_backend(db)
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


def test_eviction_flushes_changes_not_yet_durable(tmp_path):
    # A device registration commits nothing by itself: eviction must
    # flush it, for a home with no store yet (a full save) and for one
    # with a journal (a frontend record).
    service = fleet_service(tmp_path / "root", max_resident_homes=1)
    service.create_home("h1")
    service.register_device("h1", "TV", "tv")
    service.create_home("h2")  # evicts h1
    assert service.resident_count() == 1
    assert service.home("h1").home_devices["TV"].type_name == "tv"
    service.register_device("h1", "Temp", "temperatureSensor")
    service.register_device("h1", "Window", "windowOpener")
    service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    service.register_device("h1", "Lamp", "switch")
    service.home("h2")  # evicts h1 again
    rehydrated = service.home("h1")
    assert rehydrated.installed_apps() == ["ComfortTV"]
    assert rehydrated.home_devices["Lamp"].type_name == "switch"


def test_close_flushes_changes_not_yet_durable(tmp_path):
    # Registrations commit nothing by themselves: close() flushes them,
    # as eviction does, so a restart before any install keeps them.
    service = fleet_service(tmp_path / "root")
    service.create_home("h1")
    service.register_device("h1", "TV", "tv")
    service.close()
    service.register_device("h1", "Lamp", "switch")  # a journal record
    service.close()
    restarted = fleet_service(tmp_path / "root")
    restarted.create_home("h1")
    restarted.restore("h1")
    devices = restarted.home("h1").home_devices
    assert {label: d.type_name for label, d in devices.items()} == {
        "TV": "tv", "Lamp": "switch",
    }


def test_audits_leave_history_and_store_as_they_were(tmp_path):
    # An audit carries no decision: kept in the review history, every
    # audit of a home would grow it, and each eviction would write it.
    service = fleet_service(tmp_path / "root", max_resident_homes=1)
    service.create_home("h1")
    for label, type_name in (
        ("TV", "tv"), ("Temp", "temperatureSensor"),
        ("Window", "windowOpener"),
    ):
        service.register_device("h1", label, type_name)
    for spec in (COMFORT_TV, COLD_DEFENDER):
        service.install(InstallRequest(home_id="h1", **spec))
    reviews = len(service.home("h1").reviews)
    service.create_home("h2")  # evicts h1
    before = store_bytes(tmp_path / "root" / "h1")
    for _ in range(2):
        reports = service.audit(AuditRequest(home_id="h1"))
        assert any(report.threats for report in reports)
        assert len(service.home("h1").reviews) == reviews
        service.home("h2")  # evicts h1
    assert store_bytes(tmp_path / "root" / "h1") == before


def test_reload_after_a_delete_matches_the_store(tmp_path):
    # A DELETE drops the app's accepted pairs from the live Allowed
    # list, as a load does, so a re-hydrated home equals its store:
    # evictions write nothing and the journal is never folded early.
    service = HomeGuardService(
        workers=None, store_root=tmp_path / "root", max_resident_homes=1
    )
    service.preload([
        app_by_name(spec["app_name"])
        for spec in (MODE_AWARE_HEATER, ITS_TOO_HOT)
    ])
    service.create_home("h1")
    for label, type_name in (("Temp", "temperatureSensor"),
                             ("Heater", "heater")):
        service.register_device("h1", label, type_name)
    for spec, decision in (
        (MODE_AWARE_HEATER, "keep"), (ITS_TOO_HOT, "keep"),
        (MODE_AWARE_HEATER, "delete"),
    ):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision=decision,
        ))
    assert service.home("h1").allowed.pairs == []
    service.create_home("h2")  # evicts h1
    path = tmp_path / "root" / "h1"
    stored = {p.name: p.read_bytes() for p in path.iterdir()}
    for _ in range(2):
        service.home("h1")
        service.home("h2")  # evicts h1
        assert {p.name: p.read_bytes() for p in path.iterdir()} == stored


def test_failed_eviction_flush_keeps_the_home_resident(tmp_path):
    service = fleet_service(tmp_path / "root", max_resident_homes=1)
    service.create_home("h1")
    for label, type_name in (
        ("TV", "tv"), ("Temp", "temperatureSensor"),
        ("Window", "windowOpener"),
    ):
        service.register_device("h1", label, type_name)
    service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    service.register_device("h1", "Lamp", "switch")
    home = service.home("h1")
    with FaultPlan([FaultSpec("store.append", kind="io-error", nth=(1,))]):
        service.create_home("h2")
    # The flush failed, so h1 stays over the bound with its change.
    assert service.resident_count() == 2
    assert service.home("h1") is home
    service.create_home("h3")  # the flush lands: h1 and h2 leave
    assert service.resident_count() == 1
    assert service.home("h1").home_devices["Lamp"].type_name == "switch"


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
