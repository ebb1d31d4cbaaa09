"""Dispatcher equivalence: plan/execute detection must be a pure
performance feature (DESIGN.md §9).

Every backend — inline (no dispatcher), SerialDispatcher,
ThreadPoolDispatcher, ProcessPoolDispatcher, at any worker count —
must produce:

* identical :class:`ThreatReport` sequences (order, detail, witness),
* identical exported solve caches (content *and* insertion order),
* identical persisted :class:`DetectionStore` bytes,
* identical stats counters (solver calls / cache hits / pairs), with
  each executed solve's CPU time attributed exactly once (the
  ``solver_cpu_seconds`` double-count regression).

Run under both the default hash seed and ``PYTHONHASHSEED=0`` (see
``make test-hashseed``) to catch ordering that leaks from set/dict
iteration into the supposedly deterministic merge.
"""

import json
from pathlib import Path

import pytest

from repro.constraints import TypeBasedResolver
from repro.constraints.dispatch import (
    AutoDispatcher,
    PlanTask,
    ProcessPoolDispatcher,
    SerialDispatcher,
    SolverDispatcher,
    ThreadPoolDispatcher,
    make_dispatcher,
)
from repro.corpus import demo_apps, device_controlling_apps
from repro.detector import DetectionPipeline, DetectionStore
from repro.rules.extractor import RuleExtractor


def _extract_corpus(apps):
    extractor = RuleExtractor()
    rulesets, hints, values = [], {}, {}
    for app in apps:
        rulesets.append(extractor.extract(app.source, app.name))
        hints[app.name] = app.type_hints
        values[app.name] = app.values
    return rulesets, hints, values


def _demo_corpus():
    return _extract_corpus(list(demo_apps()))


def _generated_corpus():
    return _extract_corpus(list(device_controlling_apps()))


def _full_threats(reports):
    """Loss-free threat fingerprint: order, types, rules, explanation
    text and solver witnesses all participate in the comparison."""
    return [
        (
            report.app_name,
            threat.type.value,
            threat.rule_a.rule_id,
            threat.rule_b.rule_id,
            threat.detail,
            threat.witness,
        )
        for report in reports
        for threat in report.threats
    ]


def _store_bytes(pipeline, rulesets, tmp_path: Path, label: str) -> dict:
    store_dir = tmp_path / label
    DetectionStore(store_dir).save(
        pipeline, rulesets={r.app_name: r for r in rulesets}
    )
    return {
        path.name: path.read_bytes()
        for path in sorted(store_dir.iterdir())
    }


def _audit(corpus, dispatcher, tmp_path, label, shared_cache=None):
    rulesets, hints, values = corpus
    pipeline = DetectionPipeline(
        TypeBasedResolver(type_hints=hints, values=values),
        dispatcher=dispatcher,
        shared_cache=shared_cache,
    )
    try:
        reports = pipeline.audit_store(rulesets)
        return {
            "threats": _full_threats(reports),
            "caches": json.dumps(
                pipeline.engine.export_caches(), default=str
            ),
            "counters": (
                pipeline.stats.solver_calls,
                pipeline.stats.cache_hits,
                pipeline.stats.pairs_examined,
                pipeline.stats.prescreen_pruned_pairs,
                pipeline.stats.planned_pairs,
            ),
            "shared": (
                pipeline.stats.shared_cache_hits,
                pipeline.stats.shared_cache_publishes,
            ),
            "store": _store_bytes(pipeline, rulesets, tmp_path, label),
        }
    finally:
        pipeline.close()


BACKENDS = [
    ("serial", lambda: SerialDispatcher()),
    ("thread2", lambda: ThreadPoolDispatcher(2)),
    ("process2", lambda: ProcessPoolDispatcher(2)),
    ("process4", lambda: ProcessPoolDispatcher(4)),
    # Tiny plan chunks force the chunked planning path across many
    # chunk boundaries (deterministic merge coverage, DESIGN.md §10).
    ("process2-chunk3", lambda: ProcessPoolDispatcher(2, plan_chunk_pairs=3)),
    # The auto backend pinned above its threshold: adaptive selection
    # must be just another byte-identical way to run the batch.
    ("auto2", lambda: AutoDispatcher(workers=2, min_batch=1)),
]


@pytest.mark.parametrize(
    "corpus_name", ["demo", pytest.param("generated", marks=pytest.mark.slow)]
)
def test_backends_equivalent_to_inline(corpus_name, tmp_path):
    corpus = (
        _demo_corpus() if corpus_name == "demo" else _generated_corpus()
    )
    reference = _audit(corpus, None, tmp_path, "inline")
    assert reference["threats"], "corpus produced no threats to compare"
    for name, factory in BACKENDS:
        outcome = _audit(corpus, factory(), tmp_path, name)
        assert outcome["threats"] == reference["threats"], name
        assert outcome["caches"] == reference["caches"], name
        assert outcome["counters"] == reference["counters"], name
        assert outcome["store"] == reference["store"], name


@pytest.mark.parametrize(
    "corpus_name", ["demo", pytest.param("generated", marks=pytest.mark.slow)]
)
def test_shared_cache_backends_equivalent(corpus_name, tmp_path):
    # The shared cross-tenant solve cache (DESIGN.md §12) is a pure
    # performance feature too: with any backend, threats, exported
    # caches and store bytes stay byte-identical, and the only counter
    # movement is the exact solver-call <-> shared-hit trade.
    from repro.constraints.solvecache import (
        InProcessLRUCache,
        SQLiteSolveCache,
    )

    corpus = (
        _demo_corpus() if corpus_name == "demo" else _generated_corpus()
    )
    reference = _audit(corpus, None, tmp_path, "inline")
    ref_calls, *ref_rest = reference["counters"]
    assert reference["shared"] == (0, 0)
    arms = [
        ("inline-lru", lambda: None, lambda: InProcessLRUCache()),
        ("serial-lru", lambda: SerialDispatcher(),
         lambda: InProcessLRUCache()),
        ("auto2-sqlite", lambda: AutoDispatcher(workers=2, min_batch=1),
         lambda: SQLiteSolveCache(tmp_path / "auto2.db")),
    ]
    for name, dispatcher_of, cache_of in arms:
        cache = cache_of()
        outcome = _audit(
            corpus, dispatcher_of(), tmp_path, name, shared_cache=cache
        )
        cache.close()
        assert outcome["threats"] == reference["threats"], name
        assert outcome["caches"] == reference["caches"], name
        assert outcome["store"] == reference["store"], name
        solver_calls, *rest = outcome["counters"]
        shared_hits, shared_publishes = outcome["shared"]
        assert rest == ref_rest, name
        # Verdict conservation: every reference solve either executed
        # or was served from the shared cache — nothing else moved.
        assert solver_calls + shared_hits == ref_calls, name
        assert 0 < shared_publishes <= solver_calls, name


def test_warmed_shared_cache_eliminates_solver_calls(tmp_path):
    from repro.constraints.solvecache import SQLiteSolveCache

    corpus = _demo_corpus()
    reference = _audit(corpus, None, tmp_path, "inline")
    cache = SQLiteSolveCache(tmp_path / "fleet.db")
    try:
        _audit(corpus, SerialDispatcher(), tmp_path, "cold",
               shared_cache=cache)
        # A structurally identical corpus audited against the warmed
        # cache — any backend — performs zero solver calls and still
        # reproduces every byte.
        warm = _audit(
            corpus, AutoDispatcher(workers=2, min_batch=1), tmp_path,
            "warm", shared_cache=cache,
        )
    finally:
        cache.close()
    assert warm["threats"] == reference["threats"]
    assert warm["caches"] == reference["caches"]
    assert warm["store"] == reference["store"]
    assert warm["counters"][0] == 0  # solver_calls
    assert warm["shared"][0] > 0
    assert warm["shared"][1] == 0  # nothing new to publish


def test_worker_count_never_changes_results(tmp_path):
    corpus = _demo_corpus()
    with_two = _audit(corpus, ProcessPoolDispatcher(2), tmp_path, "two")
    with_three = _audit(corpus, ProcessPoolDispatcher(3), tmp_path, "three")
    assert with_two == with_three


def test_per_install_batches_match_inline():
    # The companion-app flow dispatches one batch per review (detect +
    # commit), not one per audit; that path must match inline too.
    rulesets, hints, values = _demo_corpus()

    def run(dispatcher):
        pipeline = DetectionPipeline(
            TypeBasedResolver(type_hints=hints, values=values),
            dispatcher=dispatcher,
        )
        try:
            reports = []
            for ruleset in rulesets:
                reports.append(pipeline.detect(ruleset))
                pipeline.commit(ruleset.app_name)
            return _full_threats(reports), (
                pipeline.stats.solver_calls,
                pipeline.stats.cache_hits,
                pipeline.stats.pairs_examined,
            )
        finally:
            pipeline.close()

    assert run(ThreadPoolDispatcher(2)) == run(None)


class _RecordingDispatcher(SerialDispatcher):
    """Serial backend that remembers every executed task outcome."""

    def __init__(self):
        self.outcomes = {}

    def run(self, tasks):
        outcomes = super().run(tasks)
        self.outcomes.update(outcomes)
        return outcomes


def test_solver_cpu_seconds_counts_each_task_once():
    # A situation solve is looked up by AR, GC *and* CT for the same
    # pair; naive batch merging would attribute its CPU time at every
    # lookup.  The attributed total must equal the executed tasks'
    # summed CPU exactly — one attribution per task, cache hits free.
    rulesets, hints, values = _demo_corpus()
    dispatcher = _RecordingDispatcher()
    pipeline = DetectionPipeline(
        TypeBasedResolver(type_hints=hints, values=values),
        dispatcher=dispatcher,
    )
    pipeline.audit_store(rulesets)
    stats = pipeline.stats
    executed = sum(o.seconds for o in dispatcher.outcomes.values())
    assert stats.solver_calls == len(dispatcher.outcomes)
    assert stats.cache_hits > 0
    assert abs(stats.solver_cpu_seconds() - executed) < 1e-9
    # Batched accounting splits planning from execution.
    assert stats.plan_seconds > 0.0
    assert stats.dispatch_seconds > 0.0
    assert stats.solve_wall_seconds() == stats.dispatch_seconds
    # Single-planner rounds: planning CPU is the rounds' wall time, and
    # plan_seconds additionally covers the finalize pass.
    assert 0.0 < stats.plan_cpu_seconds <= stats.plan_seconds


def test_inline_stats_have_no_batch_phases():
    rulesets, hints, values = _demo_corpus()
    pipeline = DetectionPipeline(
        TypeBasedResolver(type_hints=hints, values=values)
    )
    pipeline.audit_store(rulesets)
    stats = pipeline.stats
    assert stats.plan_seconds == 0.0
    assert stats.dispatch_seconds == 0.0
    assert stats.solve_wall_seconds() == stats.solver_cpu_seconds()


def test_make_dispatcher_specs():
    assert make_dispatcher(None) is None
    assert type(make_dispatcher(1)) is SerialDispatcher
    assert type(make_dispatcher("serial")) is SerialDispatcher
    process = make_dispatcher(6)
    assert type(process) is ProcessPoolDispatcher and process.workers == 6
    thread = make_dispatcher("thread:3")
    assert type(thread) is ThreadPoolDispatcher and thread.workers == 3
    assert make_dispatcher("process").workers == 4
    auto = make_dispatcher("auto")
    assert type(auto) is AutoDispatcher and auto.workers >= 1
    assert make_dispatcher("auto:3").workers == 3
    custom = SerialDispatcher()
    assert make_dispatcher(custom) is custom
    for bad in ("quantum:9", 0, -4, "process:four", "thread:0", "auto:0",
                "auto:two"):
        with pytest.raises(ValueError):
            make_dispatcher(bad)


def test_make_dispatcher_typo_error_lists_valid_specs():
    # A typo'd spec must say what IS valid, not just reject the input.
    with pytest.raises(ValueError) as excinfo:
        make_dispatcher("proces:4")
    message = str(excinfo.value)
    assert "'proces:4'" in message
    assert "unknown backend name 'proces'" in message
    for valid in ("'serial'", "'thread[:N]'", "'process[:N]'", "'auto[:N]'"):
        assert valid in message, message
    # Bad counts name the actual problem too.
    assert "worker count 'four' is not an int" in str(
        pytest.raises(ValueError, make_dispatcher, "process:four").value
    )
    assert "worker count must be >= 1" in str(
        pytest.raises(ValueError, make_dispatcher, "thread:0").value
    )
    assert "worker count must be >= 1" in str(
        pytest.raises(ValueError, make_dispatcher, -4).value
    )
    with pytest.raises(ValueError):
        ProcessPoolDispatcher(0)
    with pytest.raises(ValueError):
        ProcessPoolDispatcher(2, plan_chunk_pairs=0)
    with pytest.raises(ValueError):
        AutoDispatcher(workers=0)


def test_observe_batch_autotunes_chunk_sizes():
    # Chunk sizing is pure scheduling (the equivalence tests above pin
    # that results never move); here: the sizes actually retarget at
    # ~8ms per worker message, clamped, and only with autotune on.
    tuned = ProcessPoolDispatcher(2, autotune=True)
    # Cheap pairs (10 us each) -> bigger chunks, clamped at 1024.
    tuned.observe_batch(plan_cpu=0.01, pairs=1000)
    assert tuned.plan_chunk_pairs == 800  # 8ms / 10us
    tuned.observe_batch(plan_cpu=0.0001, pairs=1000)
    assert tuned.plan_chunk_pairs == 1024
    # Expensive pairs (100 ms each) -> clamped at the floor.
    tuned.observe_batch(plan_cpu=10.0, pairs=100)
    assert tuned.plan_chunk_pairs == 16
    # Empty/zero observations never divide by zero or move the size.
    tuned.observe_batch(plan_cpu=0.0, pairs=0)
    assert tuned.plan_chunk_pairs == 16
    tuned.close()

    fixed = ProcessPoolDispatcher(2)
    before = fixed.plan_chunk_pairs
    fixed.observe_batch(plan_cpu=0.01, pairs=1000)
    assert fixed.plan_chunk_pairs == before
    fixed.close()
    # The base protocol is a no-op for non-pooled backends.
    SerialDispatcher().observe_batch(0.1, 10)
    # AutoDispatcher's lazily created pool runs autotuned.
    auto = AutoDispatcher(workers=2, min_batch=1)
    try:
        assert auto.for_batch(10).autotune is True
    finally:
        auto.close()


def test_auto_dispatcher_adapts_to_batch_size():
    auto = AutoDispatcher(workers=2, min_batch=10)
    try:
        # Small batches run on the serial reference...
        assert type(auto.for_batch(3)) is SerialDispatcher
        assert auto._pool is None  # ...without ever starting a pool.
        # Large batches get the lazily created process pool.
        pooled = auto.for_batch(10)
        assert type(pooled) is ProcessPoolDispatcher
        assert pooled.workers == 2
        assert auto.for_batch(500) is pooled
    finally:
        auto.close()
    assert auto._pool is None
    # Single-CPU sizing (workers=1) never leaves the serial reference.
    single = AutoDispatcher(workers=1, min_batch=1)
    assert type(single.for_batch(10_000)) is SerialDispatcher


class _UnpicklableResolver(TypeBasedResolver):
    """A resolver process planning cannot ship (closure attribute)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.live_handle = lambda: None  # defeats pickle


def test_unpicklable_resolver_falls_back_to_inline_planning(tmp_path):
    rulesets, hints, values = _demo_corpus()
    reference = _audit((rulesets, hints, values), None, tmp_path, "inline")

    dispatcher = ProcessPoolDispatcher(2)
    pipeline = DetectionPipeline(
        _UnpicklableResolver(type_hints=hints, values=values),
        dispatcher=dispatcher,
    )
    try:
        with pytest.warns(RuntimeWarning, match="plans and solves inline"):
            reports = pipeline.audit_store(rulesets)
        assert _full_threats(reports) == reference["threats"]
        assert json.dumps(
            pipeline.engine.export_caches(), default=str
        ) == reference["caches"]
        # Planning and solving both stayed on the coordinator: the
        # single-planner rounds ran and the pool was never started.
        assert pipeline.stats.plan_cpu_seconds > 0.0
        assert pipeline.stats.solver_calls > 0
        assert dispatcher._executor is None
    finally:
        pipeline.close()


def test_prescreen_counters_attributed_once():
    rulesets, hints, values = _demo_corpus()
    resolver = TypeBasedResolver(type_hints=hints, values=values)
    inline = DetectionPipeline(resolver)
    inline.audit_store(rulesets)
    stats = inline.stats
    # Every index candidate is either planned or pruned, and the
    # engine examines exactly the planned pairs.
    assert stats.planned_pairs == stats.pairs_examined
    assert stats.prescreen_pruned_pairs >= 0
    assert stats.planned_pairs > 0


class _ExplodingDispatcher(SerialDispatcher):
    """Fails at solve time, like a broken worker pool would."""

    def run(self, tasks):
        raise RuntimeError("worker pool died")


def test_failed_batch_audit_rolls_back_installs():
    # The serial path only ever commits fully audited apps; a dispatch
    # failure mid-batch must not leave this audit's apps installed but
    # unaudited.
    rulesets, hints, values = _demo_corpus()
    resolver = TypeBasedResolver(type_hints=hints, values=values)
    pipeline = DetectionPipeline(resolver, dispatcher=_ExplodingDispatcher())
    with pytest.raises(RuntimeError, match="worker pool died"):
        pipeline.audit_store(rulesets)
    assert pipeline.installed_apps() == []
    assert json.dumps(pipeline.engine.export_caches()) == json.dumps(
        DetectionPipeline(resolver).engine.export_caches()
    )
    # The prescreen counters attributed while staging the failed batch
    # are unwound with it.
    assert pipeline.stats.planned_pairs == 0
    assert pipeline.stats.prescreen_pruned_pairs == 0
    # The pipeline stays usable: a healthy dispatcher audits the same
    # store from the rolled-back state, matching the inline run.
    pipeline.dispatcher = SerialDispatcher()
    retried = _full_threats(pipeline.audit_store(rulesets))
    reference = DetectionPipeline(resolver)
    assert retried == _full_threats(reference.audit_store(rulesets))
    assert pipeline.stats.planned_pairs == pipeline.stats.pairs_examined


def test_dispatcher_context_manager_closes_pool():
    with ThreadPoolDispatcher(2) as dispatcher:
        assert isinstance(dispatcher, SolverDispatcher)
        empty = PlanTask(pairs=(), known=(), resolver=TypeBasedResolver())
        (result,) = dispatcher.plan_stream([empty])
        assert result.outcomes == () and result.deferred == ()
        assert dispatcher._executor is not None
    assert dispatcher._executor is None
