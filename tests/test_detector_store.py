"""Persistence round trips for the detection store (DESIGN.md §8).

The invariants under test:

* save -> warm start in a fresh pipeline replays the audit with **zero**
  solver calls and reports threats identical to the cold run (down to
  the solver witnesses);
* corrupted stores, old schema versions and corrupted shards never
  crash or serve stale results — they degrade to transparent
  re-signing/re-solving;
* a resolver-binding change (device re-binding, input value change)
  invalidates exactly the touched app;
* the environment-sharded index is observably equivalent to the flat
  index, including the cross-environment identity corner case, and one
  home's shard is loadable without reading any other shard file.
"""

import json
from dataclasses import dataclass, field, replace

from homes import HOME, install, new_home
from repro.corpus import device_controlling_apps
from repro.detector import (
    DetectionPipeline,
    DetectionStore,
    RuleIndex,
    ShardedRuleIndex,
)
from repro.detector.store import SCHEMA_VERSION, _pinned_inputs
from repro.rules.extractor import RuleExtractor
from repro.rules.model import RuleSet
from repro.service import InstallDecision

ZONE_SIZE = 4
STORE_SIZE = 24


@dataclass(slots=True)
class ZonedResolver:
    """Deployment-style identity: same-type devices alias only within
    an app's zone; one environment per zone."""

    type_hints: dict[str, dict[str, str]] = field(default_factory=dict)
    values: dict[str, dict[str, object]] = field(default_factory=dict)
    zones: dict[str, int] = field(default_factory=dict)

    def identity(self, app_name, ref):
        zone = self.zones.get(app_name, 0)
        hint = self.type_hints.get(app_name, {}).get(ref.name)
        if hint is not None:
            return f"z{zone}:{hint}", hint
        cap_name = ref.capability.split(".", 1)[-1]
        return f"z{zone}:cap:{cap_name}", None

    def input_value(self, app_name, input_name):
        return self.values.get(app_name, {}).get(input_name)

    def environment(self, app_name):
        return f"z{self.zones.get(app_name, 0)}"


def _clone_ruleset(base: RuleSet, clone_name: str) -> RuleSet:
    rules = [
        replace(rule, app_name=clone_name, rule_id=f"{clone_name}/R{i + 1}")
        for i, rule in enumerate(base.rules)
    ]
    return RuleSet(app_name=clone_name, rules=rules, inputs=dict(base.inputs))


def build_store(size: int = STORE_SIZE):
    apps = list(device_controlling_apps())
    extractor = RuleExtractor()
    base = {app.name: extractor.extract(app.source, app.name) for app in apps}
    resolver = ZonedResolver()
    rulesets = []
    for k in range(size):
        app = apps[k % len(apps)]
        clone_name = f"{app.name}X{k}"
        rulesets.append(_clone_ruleset(base[app.name], clone_name))
        resolver.type_hints[clone_name] = app.type_hints
        resolver.values[clone_name] = dict(app.values)
        resolver.zones[clone_name] = k // ZONE_SIZE
    return rulesets, resolver


def _cold_audit(rulesets, resolver, index=None):
    pipeline = DetectionPipeline(
        resolver, index=ShardedRuleIndex() if index is None else index
    )
    reports = pipeline.audit_store(rulesets)
    return pipeline, reports


def _keys(reports):
    return {
        (t.type.value, t.rule_a.rule_id, t.rule_b.rule_id)
        for report in reports
        for t in report.threats
    }


def _detailed(reports):
    """Full threat content (including solver witnesses), orderable."""
    return sorted(
        (
            (t.type.value, t.rule_a.rule_id, t.rule_b.rule_id, t.detail,
             t.witness)
            for report in reports
            for t in report.threats
        ),
        key=lambda item: (item[0], item[1], item[2], item[3], str(item[4])),
    )


def _saved_store(tmp_path, rulesets, resolver):
    pipeline, reports = _cold_audit(rulesets, resolver)
    store = DetectionStore(tmp_path / "store")
    store.save(pipeline, rulesets={r.app_name: r for r in rulesets})
    return store, pipeline, reports


# ----------------------------------------------------------------------
# Warm-start round trips


def test_warm_start_replays_with_zero_solver_calls(tmp_path):
    rulesets, resolver = build_store()
    store, cold_pipeline, cold_reports = _saved_store(
        tmp_path, rulesets, resolver
    )
    assert cold_pipeline.stats.solver_calls > 0

    warm = store.warm_start(resolver, rulesets)
    assert not warm.cold
    assert warm.stale_apps == []
    assert sorted(warm.warm_apps) == sorted(r.app_name for r in rulesets)
    assert warm.pipeline.stats.solver_calls == 0
    # Identical down to details and solver witnesses, not just pair keys.
    assert _detailed(warm.reports) == _detailed(cold_reports)


def test_warm_start_from_persisted_rulesets_alone(tmp_path):
    """A fresh process can re-audit without re-extracting anything: the
    rulesets themselves round-trip through the store."""
    rulesets, resolver = build_store()
    store, _, cold_reports = _saved_store(tmp_path, rulesets, resolver)

    warm = store.warm_start(resolver)  # no rulesets passed
    assert warm.pipeline.stats.solver_calls == 0
    assert _keys(warm.reports) == _keys(cold_reports)
    assert _detailed(warm.reports) == _detailed(cold_reports)


def test_missing_store_is_a_cold_start(tmp_path):
    rulesets, resolver = build_store(size=8)
    _, cold_reports = _cold_audit(rulesets, resolver)
    store = DetectionStore(tmp_path / "nowhere")
    warm = store.warm_start(resolver, rulesets)
    assert warm.cold
    assert warm.warm_apps == []
    assert warm.pipeline.stats.solver_calls > 0
    assert _keys(warm.reports) == _keys(cold_reports)


# ----------------------------------------------------------------------
# Degradation: corruption, version skew, binding changes


def test_corrupt_meta_falls_back_to_cold(tmp_path):
    rulesets, resolver = build_store(size=8)
    store, _, cold_reports = _saved_store(tmp_path, rulesets, resolver)
    (store.path / "meta.json").write_text("{not json", encoding="utf-8")

    warm = store.warm_start(resolver, rulesets)
    assert warm.cold
    assert warm.pipeline.stats.solver_calls > 0
    assert _keys(warm.reports) == _keys(cold_reports)


def test_schema_version_mismatch_falls_back_to_cold(tmp_path):
    rulesets, resolver = build_store(size=8)
    store, _, cold_reports = _saved_store(tmp_path, rulesets, resolver)
    meta_path = store.path / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert meta["schema"] == SCHEMA_VERSION
    meta["schema"] = SCHEMA_VERSION + 1
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    assert store.load() is None
    warm = store.warm_start(resolver, rulesets)
    assert warm.cold
    assert warm.pipeline.stats.solver_calls > 0
    assert _keys(warm.reports) == _keys(cold_reports)


def test_corrupt_shard_degrades_only_its_apps(tmp_path):
    rulesets, resolver = build_store()
    store, cold_pipeline, cold_reports = _saved_store(
        tmp_path, rulesets, resolver
    )
    meta = json.loads((store.path / "meta.json").read_text(encoding="utf-8"))
    broken_env = sorted(meta["shards"])[0]
    broken_apps = {
        app
        for app, record in meta["apps"].items()
        if record["environment"] == broken_env
    }
    (store.path / meta["shards"][broken_env]).write_text(
        "garbage", encoding="utf-8"
    )

    warm = store.warm_start(resolver, rulesets)
    assert not warm.cold
    assert set(warm.stale_apps) == broken_apps
    # The broken shard re-solves; everything else stays warm.
    assert 0 < warm.pipeline.stats.solver_calls < (
        cold_pipeline.stats.solver_calls
    )
    assert _keys(warm.reports) == _keys(cold_reports)


def test_binding_change_invalidates_exactly_that_app(tmp_path):
    rulesets, resolver = build_store()
    store, _, _ = _saved_store(tmp_path, rulesets, resolver)

    # The user reconfigures one app's input values: its fingerprint must
    # mismatch, forcing transparent re-signing + re-solving for it only.
    # Pick an app whose values actually pin a constraint input.
    victim, changed = next(
        (ruleset.app_name, next(iter(_pinned_inputs(resolver, ruleset))))
        for ruleset in rulesets
        if _pinned_inputs(resolver, ruleset)
    )
    resolver.values[victim] = dict(
        resolver.values.get(victim, {}), **{changed: 999999}
    )

    warm = store.warm_start(resolver, rulesets)
    assert warm.stale_apps == [victim]
    assert warm.pipeline.stats.solver_calls > 0
    # Ground truth: a fully cold audit under the *new* bindings.
    _, fresh_reports = _cold_audit(rulesets, resolver)
    assert _detailed(warm.reports) == _detailed(fresh_reports)


# ----------------------------------------------------------------------
# Sharded index equivalence


def test_sharded_index_matches_flat_index():
    rulesets, resolver = build_store()
    flat_pipeline, flat_reports = _cold_audit(
        rulesets, resolver, index=RuleIndex()
    )
    sharded_pipeline, sharded_reports = _cold_audit(rulesets, resolver)
    assert _keys(sharded_reports) == _keys(flat_reports)
    assert (
        sharded_pipeline.stats.solver_calls
        == flat_pipeline.stats.solver_calls
    )
    assert len(sharded_pipeline.index.environments) > 1


def test_sharded_index_finds_cross_environment_identities():
    """A resolver may alias one device identity across environments
    (repository analysis with per-tenant homes); direct-state candidate
    pairs must still be found across shards."""

    @dataclass(slots=True)
    class CrossEnvResolver:
        envs: dict[str, str]

        def identity(self, app_name, ref):
            cap_name = ref.capability.split(".", 1)[-1]
            return f"type:cap:{cap_name}", None  # NOT env-scoped

        def input_value(self, app_name, input_name):
            return None

        def environment(self, app_name):
            return self.envs[app_name]

    source_on = '''
input "m1", "capability.motionSensor"
input "sw1", "capability.switch"
def installed() { subscribe(m1, "motion.active", h) }
def h(evt) { sw1.on() }
'''
    source_off = '''
input "m2", "capability.motionSensor"
input "sw2", "capability.switch"
def installed() { subscribe(m2, "motion.active", h) }
def h(evt) { sw2.off() }
'''
    extractor = RuleExtractor()
    rulesets = [
        extractor.extract(source_on, "OnApp"),
        extractor.extract(source_off, "OffApp"),
    ]
    resolver = CrossEnvResolver(envs={"OnApp": "home1", "OffApp": "home2"})

    flat_pipeline, flat_reports = _cold_audit(
        rulesets, resolver, index=RuleIndex()
    )
    sharded_pipeline, sharded_reports = _cold_audit(rulesets, resolver)
    # The same-actuator AR pair spans two environments; both index
    # layouts must find it.
    assert _keys(flat_reports) == _keys(sharded_reports)
    assert any(
        key[0] == "AR" for key in _keys(sharded_reports)
    ), "expected a cross-environment actuator race"

    # After removing one app the cross-shard identity bookkeeping must
    # shrink back: no candidates remain for the other app's signature.
    sharded_pipeline.remove_ruleset("OffApp")
    sig = sharded_pipeline.installed_signatures()["OnApp"][0]
    assert sharded_pipeline.index.candidates(sig, exclude_app="OnApp") == []


def test_load_shard_index_reads_one_shard_only(tmp_path):
    rulesets, resolver = build_store()
    store, pipeline, _ = _saved_store(tmp_path, rulesets, resolver)
    meta = json.loads((store.path / "meta.json").read_text(encoding="utf-8"))
    target_env = sorted(meta["shards"])[1]
    # Hard guarantee: every *other* shard file is unreadable, so the
    # per-home load cannot possibly depend on them.
    for env, filename in meta["shards"].items():
        if env != target_env:
            (store.path / filename).write_text("garbage", encoding="utf-8")

    loaded = store.load_shard_index(target_env, resolver)
    assert loaded is not None
    shard_rulesets, shard_index = loaded
    expected_apps = {
        app
        for app, record in meta["apps"].items()
        if record["environment"] == target_env
    }
    assert set(shard_rulesets) == expected_apps
    assert set(shard_index.by_app) == expected_apps
    # The rebuilt-from-payload buckets answer candidates exactly like
    # the live pipeline's shard.
    live_shard = pipeline.index.shards[target_env]
    for app in expected_apps:
        for sig in pipeline.installed_signatures()[app]:
            expected = {
                s.rule_id for s in live_shard.candidates(sig, exclude_app=app)
            }
            actual = {
                s.rule_id for s in shard_index.candidates(sig, exclude_app=app)
            }
            assert actual == expected


def test_index_payload_roundtrip_is_lossless():
    rulesets, resolver = build_store(size=8)
    pipeline, _ = _cold_audit(rulesets, resolver, index=RuleIndex())
    index = pipeline.index
    signatures = {
        sig.rule_id: sig
        for sigs in pipeline.installed_signatures().values()
        for sig in sigs
    }
    rebuilt = RuleIndex.from_payload(
        json.loads(json.dumps(index.to_payload())), signatures
    )
    assert rebuilt.to_payload() == index.to_payload()


# ----------------------------------------------------------------------
# Companion-app wiring (save-on-commit / load-on-startup)

LIVING_ROOM = [("Living-room TV", "tv"), ("Hall sensor", "temperatureSensor"),
               ("Back window", "windowOpener")]
LIVING_ROOM_COMFORT_TV = dict(
    devices={"tv1": "Living-room TV", "tSensor": "Hall sensor",
             "window1": "Back window"},
    values={"threshold1": 30},
)


def test_homeguard_store_roundtrip(tmp_path):
    store_path = tmp_path / "home-store"
    service = new_home(LIVING_ROOM, store_path=store_path)
    install(service, "ComfortTV", **LIVING_ROOM_COMFORT_TV)
    install(service, "ColdDefender",
            devices={"tv2": "Living-room TV", "window2": "Back window"},
            values={"weather": "rainy"})
    cold_audit = service.home(HOME).audit_existing()

    # A fresh deployment (new process) warm-starts from the snapshot:
    # same installed apps, same audit verdicts, zero solver calls.
    service2 = new_home(store_path=store_path)
    restored = service2.restore(HOME)
    assert sorted(restored) == sorted(service.installed_apps(HOME))
    assert service2.installed_apps(HOME) == service.installed_apps(HOME)
    assert service2.detection_stats(HOME).solver_calls == 0
    warm_audit = service2.home(HOME).audit_existing()
    assert _detailed(warm_audit) == _detailed(cold_audit)
    assert service2.detection_stats(HOME).solver_calls == 0

    # And the restored deployment keeps working: a further install
    # reviews against the restored history.
    review = install(service2, "ComfortTV", **LIVING_ROOM_COMFORT_TV)
    assert review.threats  # conflicts with ColdDefender, as in session 1


def test_homeguard_restore_without_store_is_noop(tmp_path):
    assert new_home().restore(HOME) == []
    service = new_home(store_path=tmp_path / "never-written")
    assert service.restore(HOME) == []
    assert service.installed_apps(HOME) == []


def test_structurally_malformed_shard_never_crashes(tmp_path):
    """Valid JSON with a broken shape (bit-flip survivors) must degrade
    to re-signing / re-solving, not crash (code-review hardening)."""
    rulesets, resolver = build_store(size=8)
    store, _, cold_reports = _saved_store(tmp_path, rulesets, resolver)
    meta = json.loads((store.path / "meta.json").read_text(encoding="utf-8"))
    env = sorted(meta["shards"])[0]
    shard_path = store.path / meta["shards"][env]
    shard = json.loads(shard_path.read_text(encoding="utf-8"))
    for entry in shard["apps"].values():
        entry["ruleset"] = [{}]            # decodes as JSON, not as rules
    shard["caches"] = {"situation": ["junk", [["x"]]], "effect": [None]}
    shard_path.write_text(json.dumps(shard), encoding="utf-8")

    # Caller-supplied rulesets: fingerprints (from the intact meta)
    # still validate, the junk cache entries are skipped, and the lost
    # solves simply re-run — correct results, no crash.
    warm = store.warm_start(resolver, rulesets)
    assert _keys(warm.reports) == _keys(cold_reports)
    assert warm.pipeline.stats.solver_calls > 0

    # The persisted-rulesets path simply drops the undecodable apps.
    broken_apps = {
        app for app, rec in meta["apps"].items() if rec["environment"] == env
    }
    partial = store.warm_start(resolver)
    audited = {report.app_name for report in partial.reports}
    assert audited == set(meta["apps"]) - broken_apps


def test_decide_keep_after_warm_start_without_backend(tmp_path):
    """Re-reviewing + KEEPing an app in a warm-started process whose
    backend never re-extracted must not crash (code-review fix):
    decide() falls back to the recorded rules like review does."""
    store_path = tmp_path / "store"
    service = new_home(LIVING_ROOM, store_path=store_path)
    install(service, "ComfortTV", **LIVING_ROOM_COMFORT_TV)

    service2 = new_home(store_path=store_path)
    service2.restore(HOME)
    home = service2.home(HOME)
    payload = home.config_recorder.config_of("ComfortTV")
    review = home.review_installation(payload)
    home.decide(review, InstallDecision.KEEP)  # used to AssertionError
    assert service2.installed_apps(HOME) == ["ComfortTV"]


def test_save_is_generational_and_cleans_orphans(tmp_path):
    rulesets, resolver = build_store(size=8)
    store, pipeline, _ = _saved_store(tmp_path, rulesets, resolver)
    first = {p.name for p in store.path.glob("shard-*.json")}
    (store.path / "shard-999999-0000.json.tmp").write_text("x")

    store.save(pipeline, rulesets={r.app_name: r for r in rulesets})
    second = {p.name for p in store.path.glob("shard-*.json")}
    # A fresh generation replaced the old files and swept the orphans.
    assert first.isdisjoint(second)
    assert not list(store.path.glob("*.tmp"))
    meta = json.loads((store.path / "meta.json").read_text(encoding="utf-8"))
    assert meta["generation"] == 1
    assert set(meta["shards"].values()) == second
    # And the new generation still warm-starts clean.
    warm = store.warm_start(resolver, rulesets)
    assert warm.pipeline.stats.solver_calls == 0


def _review_facts(review):
    return (
        review.app_name,
        review.decision,
        tuple(review.rules),
        tuple(
            (t.type.value, t.rule_a.rule_id, t.rule_b.rule_id, t.detail,
             t.witness)
            for t in review.threats
        ),
    )


def test_review_decision_history_survives_warm_restart(tmp_path):
    """Past install screens — including the user's keep/delete choices
    and the threat evidence shown — must re-render after a restart."""
    store_path = tmp_path / "reviews-store"
    service = new_home([*LIVING_ROOM, ("Kitchen speaker", "speaker")],
                       store_path=store_path)
    install(service, "ComfortTV", **LIVING_ROOM_COMFORT_TV)
    kept = install(
        service, "ColdDefender",
        devices={"tv2": "Living-room TV", "window2": "Back window"},
        values={"weather": "rainy"},
    )
    assert kept.threats and kept.decision == "keep"
    deleted = install(
        service, "CatchLiveShow",
        devices={"voice": "Kitchen speaker", "tv3": "Living-room TV"},
        values={"showDay": "Thursday"},
        decision="delete",
    )
    assert deleted.decision == "delete"

    service2 = new_home(store_path=store_path)
    service2.restore(HOME)
    original = service.home(HOME).reviews
    restored = service2.home(HOME).reviews
    assert len(restored) == len(original)
    # Reviews of still-installed apps restore loss-free: decisions,
    # rendered rules, threat types/pairs/details/witnesses.
    assert _review_facts(restored[0]) == _review_facts(original[0])
    assert _review_facts(restored[1]) == _review_facts(original[1])
    # The deleted app's rules were forgotten, so its threats cannot be
    # reconstructed — but the decision record itself survives.
    assert restored[2].app_name == "CatchLiveShow"
    assert restored[2].decision == "delete"
    # Allowed-list provenance: the accepted CT pairs in the restored
    # history are exactly the restored Allowed list.
    accepted = [
        (t.rule_a.rule_id, t.rule_b.rule_id)
        for review in restored
        if review.decision == "keep"
        for t in review.threats
        if t.type.value == "CT"
    ]
    assert accepted == [
        (t.rule_a.rule_id, t.rule_b.rule_id)
        for t in service2.home(HOME).allowed.pairs
    ]


def test_chained_threat_reviews_restore_with_chains(tmp_path):
    store_path = tmp_path / "chain-store"
    service = new_home([("Wall switch", "switch"), ("Front lock", "doorLock"),
                        ("Hall motion", "motionSensor")],
                       store_path=store_path)
    install(service, "SwitchChangesMode",
            devices={"master": "Wall switch"},
            values={"onMode": "Home", "offMode": "Away"})
    install(service, "MakeItSo",
            devices={"switches": "Wall switch", "locks": "Front lock"},
            values={"targetMode": "Home", "heatSetpoint": 70})
    review = install(service, "CurlingIron",
                     devices={"motion1": "Hall motion",
                              "outlets": "Wall switch"},
                     values={"minutesLater": 30})
    assert review.chains

    service2 = new_home(store_path=store_path)
    service2.restore(HOME)
    restored = service2.home(HOME).reviews[
        len(service.home(HOME).reviews) - 1
    ]
    assert restored.app_name == "CurlingIron"
    assert [
        tuple(rule.rule_id for rule in chain.chain)
        for chain in restored.chains
    ] == [
        tuple(rule.rule_id for rule in chain.chain)
        for chain in review.chains
    ]


def test_malformed_review_entries_degrade_not_crash(tmp_path):
    store_path = tmp_path / "mangled-reviews"
    service = new_home(LIVING_ROOM, store_path=store_path)
    install(service, "ComfortTV", **LIVING_ROOM_COMFORT_TV)
    meta_path = store_path / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["frontend"]["reviews"] = [
        "not-a-dict",
        {"rules": ["missing app key"]},
        {"app": "ComfortTV", "rules": [], "decision": "keep",
         "threats": [["XX", "bad/R1", "bad/R2", "d", [], []], "junk"],
         "chains": []},
        meta["frontend"]["reviews"][0],
    ]
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    service2 = new_home(store_path=store_path)
    service2.restore(HOME)
    # The two malformed entries are skipped, the entry with broken
    # threat records keeps its review shell, the intact one restores.
    reviews = service2.home(HOME).reviews
    assert [r.app_name for r in reviews] == ["ComfortTV", "ComfortTV"]
    assert reviews[0].threats == []
    assert service2.installed_apps(HOME) == ["ComfortTV"]


def test_restore_into_missing_store_audits_cold(tmp_path):
    """restore_into must degrade like warm_start: with no usable
    snapshot the passed rulesets are still audited (all stale), so a
    live pipeline never silently comes up empty."""
    rulesets, resolver = build_store(size=8)
    store = DetectionStore(tmp_path / "nowhere")
    pipeline = DetectionPipeline(resolver, index=ShardedRuleIndex())
    result = store.restore_into(pipeline, rulesets)
    assert result.cold
    assert sorted(result.stale_apps) == sorted(r.app_name for r in rulesets)
    assert sorted(pipeline.installed_apps()) == sorted(
        r.app_name for r in rulesets
    )
    assert pipeline.stats.solver_calls > 0
    _, cold_reports = _cold_audit(rulesets, resolver)
    assert _keys(result.reports) == _keys(cold_reports)
