"""The detection engine (paper §VI, Fig. 6 "Detection Engine").

Detection for a rule pair proceeds in two steps: a light-weight
*candidate filtering* based on the pre-stored M_AR / M_GC mappings and
trigger/condition analysis, then an *overlapping-condition detection*
that merges the rules' constraints and asks the solver for
satisfiability.  Solving results are cached and reused across threat
types — AR's result serves CT/SD/LT, and DC reuses EC's solve (paper
Fig. 9) — so the expensive step runs at most twice per pair direction.

Since the indexed-pipeline refactor (DESIGN.md), the pairwise tests run
over precomputed :class:`~repro.detector.signature.RuleSignature`
objects: :meth:`DetectionEngine.detect_signed` is the primitive, and
:meth:`DetectionEngine.detect_pair` is a thin compatibility wrapper
that signs its arguments first.  Store-scale workloads should use
:class:`~repro.detector.pipeline.DetectionPipeline`, which feeds the
engine only index-selected candidate pairs.

Plan/execute detection (DESIGN.md §9)
-------------------------------------

The pairwise tests are written once, against a *solve access* object:

* the inline access solves cache misses immediately — the serial hot
  path, byte-for-byte the historical behavior;
* the batch access answers from the caches and from already-executed
  batch outcomes, and otherwise emits a :class:`~repro.constraints
  .dispatch.SolveTask` and reports the lookup as *pending*.

:meth:`DetectionEngine.detect_signed_batch` drives the second mode:
planning passes (pure, cheap) collect every cache-missing constraint
instance of a whole pair list into a :class:`~repro.constraints
.dispatch.SolveBatch`, a :class:`~repro.constraints.dispatch
.SolverDispatcher` executes them (serially, on threads, or on worker
processes), and a final pass replays each pair in order, committing
results into the solve caches in exactly the order the serial engine
would have produced — so threat lists, stats counters and exported
caches are identical for every backend and worker count.

Since the parallel-planning refactor (DESIGN.md §10), pooled backends
shard the planning passes themselves: each round's pending pairs are
chunked into :class:`~repro.constraints.dispatch.PlanTask`\\ s that
workers plan *and solve* against scratch engines seeded with this
engine's cached verdicts (:func:`plan_pair_chunk`), while the
coordinator only merges keyed outcomes in chunk order and runs the
serial finalize pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.capabilities.channels import CHANNELS
from repro.constraints.builder import (
    ConstraintBuilder,
    DeviceResolver,
    FormulaInterner,
    environment_of,
    scoped_key,
)
from repro.constraints.dispatch import (
    KNOWN_INEXPRESSIBLE,
    KNOWN_SAT,
    KNOWN_UNKNOWN,
    KNOWN_UNSAT,
    PairKnowledge,
    PlanResult,
    PlanTask,
    SerialDispatcher,
    SolveBatch,
    SolveOutcome,
    SolveTask,
    SolverDispatcher,
    TaskKey,
    execute_chunk,
    resolver_from_payload,
)
from repro.constraints.solvecache import (
    cache_from_payload,
    decode_entry,
    encode_entry,
    shared_key,
)
from repro.constraints.solver import Result, Solver, VarPool
from repro.constraints.terms import BoolFormula, CmpAtom, StrTerm, conj, lit
from repro.detector.analysis import ConditionTouch, command_target
from repro.detector.signature import (
    RuleSignature,
    SignatureBuilder,
    signatures_contradict,
    signed_action_triggers,
    signed_condition_touches,
    signed_goal_conflicts,
)
from repro.detector.types import Threat, ThreatReport, ThreatType
from repro.rules.model import Rule, RuleSet
from repro.symex.values import Const

# Where a direction-only effect (heater on -> temperature rises) is
# assumed to drive a channel, relative to the channel's range.  A pure
# modeling choice documented in DESIGN.md: the paper's example only
# covers setpoint commands, which carry an explicit target.
EFFECT_TARGET_FRACTION = 0.75

# Sentinel a batch-planning solve lookup returns when the result is not
# known yet (the task was queued instead).  Never escapes the engine.
PENDING = object()


def app_of_rule_id(rule_id: str) -> str:
    """The app a rule id belongs to (ids are ``<app_name>/R<n>``)."""
    return rule_id.rsplit("/", 1)[0]


@dataclass(slots=True)
class DetectionStats:
    """Timing/accounting for the Fig. 9 overhead reproduction.

    Batched (plan/execute) runs additionally split the wall clock into
    ``plan_seconds`` — the pure planning/finalize passes in the
    coordinating process — and ``dispatch_seconds`` — the wall time a
    dispatcher took to execute the solve batches, which with process
    workers is *less* than the summed solver CPU the tasks cost."""

    candidate_seconds: dict[ThreatType, float] = field(default_factory=dict)
    solve_seconds: dict[ThreatType, float] = field(default_factory=dict)
    solver_calls: int = 0
    cache_hits: int = 0
    pairs_examined: int = 0
    # Prescreen accounting (DESIGN.md §10), attributed exactly once per
    # candidate pair when the pair list is built — planning rounds and
    # the finalize pass never re-count them.
    prescreen_pruned_pairs: int = 0
    planned_pairs: int = 0
    # Shared cross-tenant solve cache accounting (DESIGN.md §12), both
    # attributed exactly once: a hit when a verdict is served from the
    # shared backend instead of a solver call, a publish when this
    # engine's executed solve newly entered the backend.
    shared_cache_hits: int = 0
    shared_cache_publishes: int = 0
    # Plan/execute accounting (zero for inline detection).
    plan_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    # Summed CPU spent in planning passes, across however many workers
    # planned them (= plan wall for the single-planner paths; the
    # chunked fan-out reports each chunk's planning cost exactly once).
    plan_cpu_seconds: float = 0.0
    # Storage-engine accounting (DESIGN.md §14): bytes the store
    # backend durably wrote for this home's commits (delta records are
    # O(changed app); full snapshots and compactions count too) and the
    # wall seconds those commits took end to end.
    store_bytes_written: int = 0
    store_commit_seconds: float = 0.0
    # Fault-recovery accounting (DESIGN.md §15), drained from the
    # dispatcher once per batch so every recovery event lands in
    # exactly one batch's stats: solve tasks re-executed after a
    # worker failure, chunks re-run inline after a failure, failed
    # worker messages, and serial-degraded-mode trips.
    tasks_retried: int = 0
    chunks_requeued: int = 0
    pool_failures: int = 0
    degraded_serial: int = 0
    # Runtime-monitor accounting (DESIGN.md §16), maintained by the
    # tenant home's ingestion path: events run through the home's
    # MonitorEngine, deduplicated observations emitted, and the
    # confirmed/contradicted/anomaly split of those observations.
    monitor_events: int = 0
    monitor_observations: int = 0
    threats_confirmed: int = 0
    threats_contradicted: int = 0
    anomalies_flagged: int = 0

    def add_candidate(self, threat_type: ThreatType, seconds: float) -> None:
        self.candidate_seconds[threat_type] = (
            self.candidate_seconds.get(threat_type, 0.0) + seconds
        )

    def add_solve(self, threat_type: ThreatType, seconds: float) -> None:
        self.solve_seconds[threat_type] = (
            self.solve_seconds.get(threat_type, 0.0) + seconds
        )

    def solver_cpu_seconds(self) -> float:
        """Summed CPU seconds spent inside the solver, across however
        many workers executed the solves."""
        return sum(self.solve_seconds.values())

    def solve_wall_seconds(self) -> float:
        """Wall seconds the solve phase took: the dispatch wall time for
        batched runs, the (serial) CPU sum for inline runs."""
        if self.dispatch_seconds:
            return self.dispatch_seconds
        return self.solver_cpu_seconds()


def _unordered_key(kind: str, rule_a: Rule, rule_b: Rule) -> TaskKey:
    id_a, id_b = rule_a.rule_id, rule_b.rule_id
    if id_b < id_a:
        id_a, id_b = id_b, id_a
    return (kind, id_a, id_b)


class _InlineSolves:
    """Solve access for serial detection: a cache miss solves on the
    spot and every counter is attributed immediately (the historical
    engine behavior, unchanged)."""

    __slots__ = ("engine",)
    record = True

    def __init__(self, engine: "DetectionEngine") -> None:
        self.engine = engine

    def count_pair(self) -> None:
        self.engine.stats.pairs_examined += 1

    def add_candidate(self, threat_type: ThreatType, seconds: float) -> None:
        self.engine.stats.add_candidate(threat_type, seconds)

    def situation(
        self, rule_a: Rule, rule_b: Rule, threat_type: ThreatType
    ) -> Result:
        return self.engine._overlap_situation(rule_a, rule_b, threat_type)

    def conditions(
        self, rule_a: Rule, rule_b: Rule, threat_type: ThreatType
    ) -> Result:
        return self.engine._overlap_conditions(rule_a, rule_b, threat_type)

    def effect(
        self,
        rule_a: Rule,
        rule_b: Rule,
        touches: list[ConditionTouch],
        mode_touch: bool,
    ) -> Result | None:
        return self.engine._solve_effect(rule_a, rule_b, touches, mode_touch)


class _BatchRun:
    """Shared state of one :meth:`DetectionEngine.detect_signed_batch`:
    the task batch plus planning verdicts that never become tasks."""

    __slots__ = ("batch", "inexpressible", "publish")

    def __init__(self) -> None:
        self.batch = SolveBatch()
        # Effect task keys planning proved inexpressible (the serial
        # path caches ``None`` for these without calling the solver).
        self.inexpressible: set[TaskKey] = set()
        # Shared-cache misses awaiting publication: task key ->
        # (shared key, var map, free map) captured at consult time, so
        # the executed outcome can be encoded without rebuilding the
        # constraint instance (DESIGN.md §12).
        self.publish: dict[TaskKey, tuple[str, dict, dict]] = {}


class _BatchSolves:
    """Solve access for plan/execute detection.

    In *planning* passes (``record=False``) a lookup answers from the
    engine caches or from executed batch outcomes; a miss queues a
    :class:`SolveTask` (once per key) and returns :data:`PENDING`
    without touching any stats or cache.  The *finalize* pass
    (``record=True``) replays the pair with every outcome available and
    commits results + counters in exactly the serial engine's order."""

    __slots__ = ("engine", "run", "record", "pending")

    def __init__(
        self, engine: "DetectionEngine", run: _BatchRun, record: bool
    ) -> None:
        self.engine = engine
        self.run = run
        self.record = record
        self.pending = False

    # -- stats attribution (finalize pass only) ------------------------

    def count_pair(self) -> None:
        if self.record:
            self.engine.stats.pairs_examined += 1

    def add_candidate(self, threat_type: ThreatType, seconds: float) -> None:
        if self.record:
            self.engine.stats.add_candidate(threat_type, seconds)

    def _defer(self):
        if self.record:
            raise RuntimeError(
                "batch finalize pass hit an unexecuted solve; "
                "planning rounds did not converge"
            )
        self.pending = True
        return PENDING

    # -- lookups -------------------------------------------------------

    def situation(
        self, rule_a: Rule, rule_b: Rule, threat_type: ThreatType
    ) -> Result:
        engine = self.engine
        key = frozenset((rule_a.rule_id, rule_b.rule_id))
        cached = engine._situation_cache.get(key)
        if cached is not None:
            if self.record:
                engine.stats.cache_hits += 1
            return cached
        task_key = _unordered_key("situation", rule_a, rule_b)
        outcome = self.run.batch.outcome(task_key)
        if outcome is not None:
            if self.record:
                if outcome.shared:
                    engine.stats.shared_cache_hits += 1
                else:
                    engine.stats.solver_calls += 1
                    engine.stats.add_solve(threat_type, outcome.seconds)
                engine._situation_cache[key] = outcome.result
            return outcome.result
        if task_key not in self.run.batch.requested:
            pool, formula = engine._situation_instance(rule_a, rule_b)
            if not self.record:
                result = engine._shared_consult(
                    task_key, pool, formula, self.run
                )
                if result is not None:
                    return result
            self.run.batch.add(SolveTask(task_key, pool, formula))
        return self._defer()

    def conditions(
        self, rule_a: Rule, rule_b: Rule, threat_type: ThreatType
    ) -> Result:
        engine = self.engine
        key = frozenset((rule_a.rule_id, rule_b.rule_id))
        # Fig. 9 reuse, exactly like the serial path: a SAT situation
        # answer for the pair settles the condition overlap.  On the
        # finalize pass any batch-solved situation was already committed
        # to the cache (the situation lookup runs earlier in the pair),
        # so the cache alone is authoritative there.
        situation = engine._situation_cache.get(key)
        situation_key = _unordered_key("situation", rule_a, rule_b)
        if situation is None and not self.record:
            outcome = self.run.batch.outcome(situation_key)
            if outcome is not None:
                situation = outcome.result
        if situation is not None and situation.sat:
            if self.record:
                engine.stats.cache_hits += 1
            return situation
        if (
            situation is None
            and not self.record
            and situation_key in self.run.batch.requested
            and self.run.batch.outcome(situation_key) is None
        ):
            # The situation solve is queued but not executed yet; only
            # its verdict decides whether a condition solve is needed.
            return self._defer()
        cached = engine._condition_cache.get(key)
        if cached is not None:
            if self.record:
                engine.stats.cache_hits += 1
            return cached
        task_key = _unordered_key("condition", rule_a, rule_b)
        outcome = self.run.batch.outcome(task_key)
        if outcome is not None:
            if self.record:
                if outcome.shared:
                    engine.stats.shared_cache_hits += 1
                else:
                    engine.stats.solver_calls += 1
                    engine.stats.add_solve(threat_type, outcome.seconds)
                engine._condition_cache[key] = outcome.result
            return outcome.result
        if task_key not in self.run.batch.requested:
            pool, formula = engine._condition_instance(rule_a, rule_b)
            if not self.record:
                result = engine._shared_consult(
                    task_key, pool, formula, self.run
                )
                if result is not None:
                    return result
            self.run.batch.add(SolveTask(task_key, pool, formula))
        return self._defer()

    def effect(
        self,
        rule_a: Rule,
        rule_b: Rule,
        touches: list[ConditionTouch],
        mode_touch: bool,
    ) -> Result | None:
        engine = self.engine
        key = (rule_a.rule_id, rule_b.rule_id)
        if key in engine._effect_cache:
            if self.record:
                engine.stats.cache_hits += 1
            return engine._effect_cache[key]
        task_key = ("effect", key[0], key[1])
        outcome = self.run.batch.outcome(task_key)
        if outcome is not None:
            if self.record:
                if outcome.shared:
                    engine.stats.shared_cache_hits += 1
                else:
                    engine.stats.solver_calls += 1
                    engine.stats.add_solve(
                        ThreatType.ENABLING_CONDITION, outcome.seconds
                    )
                engine._effect_cache[key] = outcome.result
            return outcome.result
        if task_key in self.run.inexpressible:
            if self.record:
                # Persist the planning verdict just like the serial
                # path caches the inexpressible-effect ``None``.
                engine._effect_cache[key] = None
            return None
        if task_key in self.run.batch.requested:
            return self._defer()
        instance = engine._effect_instance(rule_a, rule_b, touches, mode_touch)
        if instance is None:
            self.run.inexpressible.add(task_key)
            if self.record:
                engine._effect_cache[key] = None
            return None
        if not self.record:
            result = engine._shared_consult(task_key, *instance, self.run)
            if result is not None:
                return result
        self.run.batch.add(SolveTask(task_key, *instance))
        return self._defer()


class DetectionEngine:
    """Pairwise CAI threat detection over extracted rules."""

    def __init__(
        self, resolver: DeviceResolver, shared_cache=None
    ) -> None:
        self._resolver = resolver
        self.signatures = SignatureBuilder(resolver)
        self.stats = DetectionStats()
        # Optional shared cross-tenant solve cache (DESIGN.md §12): a
        # :class:`~repro.constraints.solvecache.SolveCacheBackend`
        # consulted between the per-home caches and the solver.  It
        # only ever short-circuits solves — with it on, off, or
        # corrupted, threats, exported caches and store bytes are
        # byte-identical.
        self.shared_cache = shared_cache
        # Per-rule lowering memo shared by every constraint instance
        # this engine builds (DESIGN.md §10); invalidated with the
        # signature memo when an app's bindings change.
        self._interner = FormulaInterner()
        # Solve caches, keyed by rule-id pairs: merged trigger+condition
        # situations, condition-only overlaps, and EC/DC effect solves.
        self._situation_cache: dict[frozenset[str], Result] = {}
        self._condition_cache: dict[frozenset[str], Result] = {}
        self._effect_cache: dict[tuple[str, str], Result | None] = {}

    @property
    def resolver(self) -> DeviceResolver:
        return self._resolver

    def reset_stats(self) -> None:
        """Zero the counters without dropping the solve caches, so
        benchmarks can reuse one engine across measured phases."""
        self.stats = DetectionStats()

    def invalidate_app(self, app_name: str) -> None:
        """Drop every cached signature and solve result involving an
        app, e.g. after its configuration changed."""
        self.signatures.invalidate_app(app_name)
        self._interner.invalidate_app(app_name)
        prefix = f"{app_name}/"
        for cache in (self._situation_cache, self._condition_cache):
            stale = [
                key
                for key in cache
                if any(rule_id.startswith(prefix) for rule_id in key)
            ]
            for key in stale:
                del cache[key]
        stale_effects = [
            key
            for key in self._effect_cache
            if key[0].startswith(prefix) or key[1].startswith(prefix)
        ]
        for key in stale_effects:
            del self._effect_cache[key]

    # ------------------------------------------------------------------
    # Cache persistence (DESIGN.md §8)

    def export_caches(self) -> dict[str, list]:
        """Snapshot the solve caches as a JSON-serializable payload.

        Cache keys are rule-id pairs and values are solver
        :class:`Result`s (or ``None`` for inexpressible effects), so the
        payload round-trips losslessly through JSON and a fresh process
        can replay an audit without any solver calls (warm start)."""
        def dump(result: Result | None) -> dict | None:
            if result is None:
                return None
            return {
                "sat": result.sat,
                "witness": dict(result.witness),
                "decisions": result.decisions,
            }

        return {
            "situation": [
                [sorted(key), dump(result)]
                for key, result in self._situation_cache.items()
            ],
            "condition": [
                [sorted(key), dump(result)]
                for key, result in self._condition_cache.items()
            ],
            "effect": [
                [list(key), dump(result)]
                for key, result in self._effect_cache.items()
            ],
        }

    def import_caches(
        self, payload: dict, valid_apps: set[str] | None = None
    ) -> int:
        """Preload solve caches from an :meth:`export_caches` payload.

        ``valid_apps`` restricts loading to entries whose rules all
        belong to fingerprint-validated apps — entries touching an app
        whose configuration changed are silently skipped, so the engine
        re-solves them instead of serving stale results.  Structurally
        malformed entries (a corrupted-but-parseable store) are skipped
        the same way: the worst outcome of a bad entry is a re-solve.
        Returns the number of entries loaded."""
        if not isinstance(payload, dict):
            return 0

        def admissible(rule_ids) -> bool:
            return (
                isinstance(rule_ids, list)
                and all(isinstance(rule_id, str) for rule_id in rule_ids)
                and (
                    valid_apps is None
                    or all(
                        app_of_rule_id(rule_id) in valid_apps
                        for rule_id in rule_ids
                    )
                )
            )

        def load(entry: dict | None) -> Result | None:
            if entry is None:
                return None
            return Result(
                sat=bool(entry["sat"]),
                witness=dict(entry.get("witness", {})),
                decisions=int(entry.get("decisions", 0)),
            )

        loaded = 0
        for cache, name in (
            (self._situation_cache, "situation"),
            (self._condition_cache, "condition"),
        ):
            for item in payload.get(name, []):
                try:
                    rule_ids, entry = item
                    if entry is None or not admissible(rule_ids):
                        continue
                    cache[frozenset(rule_ids)] = load(entry)
                except (TypeError, ValueError, KeyError):
                    continue
                loaded += 1
        for item in payload.get("effect", []):
            try:
                rule_ids, entry = item
                if len(rule_ids) != 2 or not admissible(rule_ids):
                    continue
                self._effect_cache[(rule_ids[0], rule_ids[1])] = load(entry)
            except (TypeError, ValueError, KeyError):
                continue
            loaded += 1
        return loaded

    # ------------------------------------------------------------------
    # Pairwise detection

    def detect_pair(self, rule_a: Rule, rule_b: Rule) -> list[Threat]:
        """All CAI threats between two rules (both directions).

        Compatibility wrapper over :meth:`detect_signed`."""
        return self.detect_signed(
            self.signatures.sign(rule_a), self.signatures.sign(rule_b)
        )

    def detect_signed(
        self, sig_a: RuleSignature, sig_b: RuleSignature
    ) -> list[Threat]:
        """All CAI threats between two signed rules (both directions)."""
        return self._detect_pair(sig_a, sig_b, _InlineSolves(self))

    def _detect_pair(
        self, sig_a: RuleSignature, sig_b: RuleSignature, ctx
    ) -> list[Threat]:
        ctx.count_pair()
        threats: list[Threat] = []
        threats.extend(self._detect_action_interference(sig_a, sig_b, ctx))
        threats.extend(self._detect_trigger_interference(sig_a, sig_b, ctx))
        threats.extend(self._detect_condition_interference(sig_a, sig_b, ctx))
        return threats

    def detect_signed_batch(
        self,
        pairs: Sequence[tuple[RuleSignature, RuleSignature]],
        dispatcher: SolverDispatcher | None = None,
    ) -> list[list[Threat]]:
        """Plan/execute detection over a whole pair list (DESIGN.md §9).

        Planning passes run the candidate tests and queue one
        :class:`SolveTask` per cache-missing constraint instance;
        ``dispatcher`` executes each round's tasks (a condition solve is
        only needed once the pair's situation solve came back UNSAT, so
        up to two rounds arise); a finalize pass then replays every pair
        in order with all outcomes available.  Threat lists, solve
        caches, stats counters and exported store bytes are identical to
        running :meth:`detect_signed` pair-by-pair, for every backend
        and worker count — only ``plan_seconds`` / ``dispatch_seconds``
        and the wall clock differ.

        Backends that plan remotely (DESIGN.md §10) shard each round's
        pending pairs into :class:`PlanTask` chunks: workers plan their
        pairs against a scratch engine seeded with this engine's cached
        verdicts, build the cache-missing constraint instances, solve
        them locally, and return outcomes — the coordinator only merges
        (in chunk order) and finalizes.  Adaptive dispatchers pick their
        backend per batch via :meth:`SolverDispatcher.for_batch`."""
        if dispatcher is None:
            dispatcher = SerialDispatcher()
        dispatcher = dispatcher.for_batch(len(pairs))
        run = _BatchRun()
        resolver_payload = None
        cache_payload = None
        if dispatcher.plans_remotely:
            resolver_payload = dispatcher.encode_resolver(self._resolver)
            cache_payload = dispatcher.encode_cache(self.shared_cache)
        plan_cpu_before = self.stats.plan_cpu_seconds
        pending = list(range(len(pairs)))
        while pending:
            if resolver_payload is not None:
                deferred, progressed = self._plan_round_chunked(
                    pairs, pending, run, dispatcher, resolver_payload,
                    cache_payload,
                )
            else:
                deferred, progressed = self._plan_round_inline(
                    pairs, pending, run, dispatcher
                )
            # Executed outcomes are publishable the moment they are
            # absorbed; shared-cache-served ones never are.
            self._publish_executed(run)
            if not deferred:
                break
            if not progressed:
                raise RuntimeError(
                    "batch planning stalled: deferred pairs without tasks"
                )
            pending = deferred
        dispatcher.observe_batch(
            self.stats.plan_cpu_seconds - plan_cpu_before, len(pairs)
        )
        # Drain the dispatcher's recovery counters into this batch's
        # stats (DESIGN.md §15).  take semantics mean every retry /
        # requeue / degrade event is attributed to exactly one batch.
        faults = dispatcher.take_fault_counters()
        self.stats.tasks_retried += faults["tasks_retried"]
        self.stats.chunks_requeued += faults["chunks_requeued"]
        self.stats.pool_failures += faults["pool_failures"]
        self.stats.degraded_serial += faults["degraded_serial"]
        finalize_started = time.perf_counter()
        results: list[list[Threat]] = []
        for sig_a, sig_b in pairs:
            results.append(
                self._detect_pair(sig_a, sig_b, _BatchSolves(self, run, True))
            )
        self.stats.plan_seconds += time.perf_counter() - finalize_started
        return results

    def _plan_round_inline(
        self,
        pairs: Sequence[tuple[RuleSignature, RuleSignature]],
        pending: list[int],
        run: _BatchRun,
        dispatcher: SolverDispatcher,
    ) -> tuple[list[int], int]:
        """One single-planner round: walk the pending pairs in order,
        then solve the round's tasks through :meth:`SolverDispatcher.run`.
        Returns (deferred pair indices, tasks solved)."""
        plan_started = time.perf_counter()
        deferred: list[int] = []
        for i in pending:
            ctx = _BatchSolves(self, run, record=False)
            sig_a, sig_b = pairs[i]
            self._detect_pair(sig_a, sig_b, ctx)
            if ctx.pending:
                deferred.append(i)
        plan_elapsed = time.perf_counter() - plan_started
        self.stats.plan_seconds += plan_elapsed
        self.stats.plan_cpu_seconds += plan_elapsed
        tasks = run.batch.take_pending()
        if tasks:
            solve_started = time.perf_counter()
            run.batch.absorb(dispatcher.run(tasks))
            self.stats.dispatch_seconds += (
                time.perf_counter() - solve_started
            )
        return deferred, len(tasks)

    def _plan_round_chunked(
        self,
        pairs: Sequence[tuple[RuleSignature, RuleSignature]],
        pending: list[int],
        run: _BatchRun,
        dispatcher: SolverDispatcher,
        resolver_payload: object,
        cache_payload: object = None,
    ) -> tuple[list[int], int]:
        """One fan-out round (DESIGN.md §10): shard the pending pairs
        into :class:`PlanTask` chunks, let workers plan *and solve*
        them, merge the results in chunk order.  Returns (deferred pair
        indices, fresh outcomes merged)."""
        round_started = time.perf_counter()
        chunk_pairs = max(1, dispatcher.plan_chunk_pairs)
        chunks = [
            pending[i: i + chunk_pairs]
            for i in range(0, len(pending), chunk_pairs)
        ]
        plan_tasks = [
            PlanTask(
                pairs=tuple(pairs[i] for i in chunk),
                known=tuple(
                    self._pair_knowledge(pairs[i], run) for i in chunk
                ),
                resolver=resolver_payload,
                cache=cache_payload,
            )
            for chunk in chunks
        ]
        deferred: list[int] = []
        progressed = 0
        waited = 0.0
        stream = dispatcher.plan_stream(plan_tasks)
        for chunk in chunks:
            wait_started = time.perf_counter()
            result = next(stream)
            waited += time.perf_counter() - wait_started
            for key in result.inexpressible:
                run.inexpressible.add(key)
            progressed += run.batch.absorb_planned(result.outcomes)
            deferred.extend(chunk[i] for i in result.deferred)
            self.stats.plan_cpu_seconds += result.plan_seconds
            # Workers consult the shared cache but never write it: the
            # coordinator publishes their post-miss solves, so the
            # publish count is attributed exactly once even when two
            # chunks solved the same formula.
            if self.shared_cache is not None:
                for skey, entry in result.publishable:
                    if self.shared_cache.put(skey, entry):
                        self.stats.shared_cache_publishes += 1
        # The coordinator's own share of the round is chunk building +
        # merging; the wall spent blocked on workers is dispatch time
        # (workers interleave planning and solving inside it).
        self.stats.dispatch_seconds += waited
        self.stats.plan_seconds += (
            time.perf_counter() - round_started - waited
        )
        return deferred, progressed

    def _pair_knowledge(
        self,
        pair: tuple[RuleSignature, RuleSignature],
        run: _BatchRun,
    ) -> PairKnowledge:
        """What this engine already knows about a pair's solve slots —
        the seed a plan worker needs to reproduce the single-planner
        walk exactly (cached verdicts gate which tasks planning emits,
        paper Fig. 9)."""
        sig_a, sig_b = pair
        id_a, id_b = sig_a.rule_id, sig_b.rule_id
        unordered = frozenset((id_a, id_b))
        batch = run.batch

        def overlap_state(cache, kind) -> int:
            cached = cache.get(unordered)
            if cached is None:
                task_key = _unordered_key(kind, sig_a.rule, sig_b.rule)
                outcome = batch.outcome(task_key)
                if outcome is None:
                    return KNOWN_UNKNOWN
                cached = outcome.result
            return KNOWN_SAT if cached.sat else KNOWN_UNSAT

        def effect_state(first: str, second: str) -> int:
            key = (first, second)
            if key in self._effect_cache:
                cached = self._effect_cache[key]
                if cached is None:
                    return KNOWN_INEXPRESSIBLE
                return KNOWN_SAT if cached.sat else KNOWN_UNSAT
            task_key = ("effect", first, second)
            if task_key in run.inexpressible:
                return KNOWN_INEXPRESSIBLE
            outcome = batch.outcome(task_key)
            if outcome is None:
                return KNOWN_UNKNOWN
            return KNOWN_SAT if outcome.result.sat else KNOWN_UNSAT

        return (
            overlap_state(self._situation_cache, "situation"),
            overlap_state(self._condition_cache, "condition"),
            effect_state(id_a, id_b),
            effect_state(id_b, id_a),
        )

    # ------------------------------------------------------------------
    # Shared cross-tenant solve cache (DESIGN.md §12)

    def _shared_consult(
        self,
        task_key: TaskKey,
        pool: VarPool,
        formula: BoolFormula,
        run: _BatchRun,
    ) -> Result | None:
        """Consult the shared cache for a planned instance just before
        it would become a :class:`SolveTask`.

        A hit is absorbed into the batch as a ``shared`` outcome (the
        finalize pass attributes it once, to ``shared_cache_hits``) and
        returned; a miss registers the canonical maps so the executed
        outcome can be published later, and answers ``None`` — the
        caller queues the task exactly as without a backend."""
        cache = self.shared_cache
        if cache is None:
            return None
        skey, var_map, free_map = shared_key(pool, formula)
        entry = cache.get(skey)
        if entry is not None:
            result = decode_entry(entry, var_map, free_map)
            if result is not None:
                run.batch.absorb_planned(
                    [(task_key, SolveOutcome(result, 0.0, shared=True))]
                )
                return result
        run.publish[task_key] = (skey, var_map, free_map)
        return None

    def _publish_executed(self, run: _BatchRun) -> None:
        """Publish executed outcomes whose planning consult missed the
        shared cache.  ``put`` reports whether the entry was newly
        stored, so concurrent fleet controllers racing on one SQLite
        file still count each publish exactly once."""
        cache = self.shared_cache
        if cache is None or not run.publish:
            return
        ready = [
            task_key
            for task_key in run.publish
            if run.batch.outcome(task_key) is not None
        ]
        for task_key in ready:
            skey, var_map, free_map = run.publish.pop(task_key)
            outcome = run.batch.outcome(task_key)
            if outcome.shared:
                continue
            entry = encode_entry(outcome.result, var_map, free_map)
            if entry is not None and cache.put(skey, entry):
                self.stats.shared_cache_publishes += 1

    def detect_rulesets(
        self,
        new_ruleset: RuleSet,
        installed: list[RuleSet],
    ) -> ThreatReport:
        """Brute-force detection run for one app installation (paper §VI
        intro): the new app's rules against every installed rule, plus
        the new app's own rule pairs (flawed benign apps).

        This is the all-pairs baseline;
        :class:`~repro.detector.pipeline.DetectionPipeline` reaches the
        same threat set from indexed candidates only.
        """
        report = ThreatReport(app_name=new_ruleset.app_name)
        for other in installed:
            for rule_a in new_ruleset.rules:
                for rule_b in other.rules:
                    report.threats.extend(self.detect_pair(rule_a, rule_b))
        rules = new_ruleset.rules
        for i, rule_a in enumerate(rules):
            for rule_b in rules[i + 1:]:
                report.threats.extend(self.detect_pair(rule_a, rule_b))
        return report

    # ------------------------------------------------------------------
    # Action interference (paper §VI-A)

    def _detect_action_interference(
        self, sig_a: RuleSignature, sig_b: RuleSignature, ctx
    ) -> list[Threat]:
        threats: list[Threat] = []
        rule_a, rule_b = sig_a.rule, sig_b.rule
        started = time.perf_counter()
        identity_a = sig_a.action_identity
        identity_b = sig_b.action_identity
        is_ar_candidate = (
            identity_a is not None
            and identity_a == identity_b
            and signatures_contradict(sig_a, sig_b)
        )
        ctx.add_candidate(
            ThreatType.ACTUATOR_RACE, time.perf_counter() - started
        )
        if is_ar_candidate:
            result = ctx.situation(rule_a, rule_b, ThreatType.ACTUATOR_RACE)
            if result is not PENDING and result.sat:
                threats.append(
                    Threat(
                        type=ThreatType.ACTUATOR_RACE,
                        rule_a=rule_a,
                        rule_b=rule_b,
                        detail=(
                            f"contradictory commands {rule_a.action.command!r} vs "
                            f"{rule_b.action.command!r} on the same actuator"
                        ),
                        witness=tuple(sorted(result.witness.items())),
                    )
                )
        started = time.perf_counter()
        conflict_channels = []
        if identity_a is None or identity_a != identity_b:
            conflict_channels = signed_goal_conflicts(sig_a, sig_b)
        ctx.add_candidate(
            ThreatType.GOAL_CONFLICT, time.perf_counter() - started
        )
        if conflict_channels:
            result = ctx.situation(rule_a, rule_b, ThreatType.GOAL_CONFLICT)
            if result is not PENDING and result.sat:
                threats.append(
                    Threat(
                        type=ThreatType.GOAL_CONFLICT,
                        rule_a=rule_a,
                        rule_b=rule_b,
                        detail=(
                            "opposite effects on "
                            + ", ".join(conflict_channels)
                        ),
                        witness=tuple(sorted(result.witness.items())),
                    )
                )
        return threats

    # ------------------------------------------------------------------
    # Trigger interference (paper §VI-B)

    def _detect_trigger_interference(
        self, sig_a: RuleSignature, sig_b: RuleSignature, ctx
    ) -> list[Threat]:
        threats: list[Threat] = []
        rule_a, rule_b = sig_a.rule, sig_b.rule
        ct_ab = self._covert_triggering(sig_a, sig_b, ctx)
        ct_ba = self._covert_triggering(sig_b, sig_a, ctx)
        if ct_ab is PENDING or ct_ba is PENDING:
            return []
        contradictory = signatures_contradict(sig_a, sig_b)
        if ct_ab is not None:
            threats.append(ct_ab)
            if contradictory:
                threats.append(
                    Threat(
                        type=ThreatType.SELF_DISABLING,
                        rule_a=rule_a,
                        rule_b=rule_b,
                        detail=(
                            f"{rule_b.app_name} undoes {rule_a.app_name}'s "
                            f"{rule_a.action.command!r} right after it triggers"
                        ),
                        witness=ct_ab.witness,
                    )
                )
        if ct_ba is not None:
            threats.append(ct_ba)
            if contradictory:
                threats.append(
                    Threat(
                        type=ThreatType.SELF_DISABLING,
                        rule_a=rule_b,
                        rule_b=rule_a,
                        detail=(
                            f"{rule_a.app_name} undoes {rule_b.app_name}'s "
                            f"{rule_b.action.command!r} right after it triggers"
                        ),
                        witness=ct_ba.witness,
                    )
                )
        if ct_ab is not None and ct_ba is not None and contradictory:
            threats.append(
                Threat(
                    type=ThreatType.LOOP_TRIGGERING,
                    rule_a=rule_a,
                    rule_b=rule_b,
                    detail=(
                        "the rules trigger each other and issue contradictory "
                        "commands on the same actuator(s)"
                    ),
                    witness=ct_ab.witness,
                )
            )
        return threats

    def _covert_triggering(
        self, sig_a: RuleSignature, sig_b: RuleSignature, ctx
    ):
        """A CT threat, ``None``, or :data:`PENDING` while planning."""
        rule_a, rule_b = sig_a.rule, sig_b.rule
        started = time.perf_counter()
        match = signed_action_triggers(sig_a, sig_b)
        ctx.add_candidate(
            ThreatType.COVERT_TRIGGERING, time.perf_counter() - started
        )
        if match is None:
            return None
        # Overlapping-condition detection on the two conditions; this
        # reuses the situation solve when one is already cached (Fig. 9).
        result = ctx.conditions(
            rule_a, rule_b, ThreatType.COVERT_TRIGGERING
        )
        if result is PENDING:
            return PENDING
        if not result.sat:
            return None
        way = (
            "directly changes the subscribed device state"
            if match.way == "direct"
            else f"changes the home's {match.channel} sensed by the trigger"
        )
        return Threat(
            type=ThreatType.COVERT_TRIGGERING,
            rule_a=rule_a,
            rule_b=rule_b,
            detail=f"{rule_a.action.command!r} {way}",
            witness=tuple(sorted(result.witness.items())),
        )

    # ------------------------------------------------------------------
    # Condition interference (paper §VI-C)

    def _detect_condition_interference(
        self, sig_a: RuleSignature, sig_b: RuleSignature, ctx
    ) -> list[Threat]:
        threats: list[Threat] = []
        for source, target in ((sig_a, sig_b), (sig_b, sig_a)):
            threat = self._condition_interference(source, target, ctx)
            if threat is not None and threat is not PENDING:
                threats.append(threat)
        return threats

    def _condition_interference(
        self, sig_a: RuleSignature, sig_b: RuleSignature, ctx
    ):
        """An EC/DC threat, ``None``, or :data:`PENDING` while planning."""
        rule_a, rule_b = sig_a.rule, sig_b.rule
        started = time.perf_counter()
        touches = signed_condition_touches(sig_a, sig_b)
        mode_touch = (
            sig_a.sets_location_mode
            and sig_b.condition_uses_mode
            and sig_a.environment == sig_b.environment
        )
        ctx.add_candidate(
            ThreatType.ENABLING_CONDITION, time.perf_counter() - started
        )
        if not touches and not mode_touch:
            return None
        result = ctx.effect(rule_a, rule_b, touches, mode_touch)
        if result is PENDING:
            return PENDING
        if result is None:
            # Effect not expressible (symbolic parameter): report the
            # candidate conservatively as a potential enabling.
            return Threat(
                type=ThreatType.ENABLING_CONDITION,
                rule_a=rule_a,
                rule_b=rule_b,
                detail="effect depends on a runtime parameter; may enable the condition",
            )
        threat_type = (
            ThreatType.ENABLING_CONDITION
            if result.sat
            else ThreatType.DISABLING_CONDITION
        )
        what = ", ".join(
            f"{touch.attr.device.name}.{touch.attr.attribute}" for touch in touches
        ) or "location.mode"
        verb = "enables" if result.sat else "disables"
        return Threat(
            type=threat_type,
            rule_a=rule_a,
            rule_b=rule_b,
            detail=f"{rule_a.action.command!r} {verb} the condition via {what}",
            witness=tuple(sorted(result.witness.items())),
        )

    # ------------------------------------------------------------------
    # Constraint instances (shared by inline solving and batch planning)

    def _situation_instance(
        self, rule_a: Rule, rule_b: Rule
    ) -> tuple[VarPool, BoolFormula]:
        builder = ConstraintBuilder(self._resolver, interner=self._interner)
        formula = conj([builder.situation(rule_a), builder.situation(rule_b)])
        return builder.pool, formula

    def _condition_instance(
        self, rule_a: Rule, rule_b: Rule
    ) -> tuple[VarPool, BoolFormula]:
        builder = ConstraintBuilder(self._resolver, interner=self._interner)
        formula = conj([builder.condition(rule_a), builder.condition(rule_b)])
        return builder.pool, formula

    def _effect_instance(
        self,
        rule_a: Rule,
        rule_b: Rule,
        touches: list[ConditionTouch],
        mode_touch: bool,
    ) -> tuple[VarPool, BoolFormula] | None:
        """The EC/DC constraint instance, or ``None`` when no effect of
        ``rule_a`` on ``rule_b``'s condition is expressible."""
        builder = ConstraintBuilder(self._resolver, interner=self._interner)
        effect_parts: list[BoolFormula] = []
        expressible = False
        for touch in touches:
            formula = self._effect_formula(builder, rule_a, rule_b, touch)
            if formula is not None:
                effect_parts.append(formula)
                expressible = True
        if mode_touch:
            target = command_target(rule_a.action)
            if target is not None and target[1] is not None:
                # Mode touches require equal environments, so rule_b's
                # home names the (environment-scoped) mode variable the
                # condition lowering will use.
                env = environment_of(self._resolver, rule_b.app_name)
                key_var = builder.pool.declare_str(
                    scoped_key(env, "location:mode"), None
                )
                effect_parts.append(
                    lit(CmpAtom(StrTerm(key_var), "==", StrTerm(None, target[1])))
                )
                expressible = True
        if not expressible:
            return None
        condition = builder.condition(rule_b)
        return builder.pool, conj(effect_parts + [condition])

    def _solve_effect(
        self,
        rule_a: Rule,
        rule_b: Rule,
        touches: list[ConditionTouch],
        mode_touch: bool,
    ) -> Result | None:
        key = (rule_a.rule_id, rule_b.rule_id)
        if key in self._effect_cache:
            self.stats.cache_hits += 1
            return self._effect_cache[key]
        instance = self._effect_instance(rule_a, rule_b, touches, mode_touch)
        if instance is None:
            self._effect_cache[key] = None
            return None
        pool, formula = instance
        result = self._solve_shared(
            pool, formula, ThreatType.ENABLING_CONDITION
        )
        self._effect_cache[key] = result
        return result

    def _effect_formula(
        self,
        builder: ConstraintBuilder,
        rule_a: Rule,
        rule_b: Rule,
        touch: ConditionTouch,
    ) -> BoolFormula | None:
        action = rule_a.action
        if touch.way == "direct":
            target = command_target(action)
            if target is None or target[1] is None:
                return None
            return builder.attr_equals(
                rule_b.app_name, touch.attr.device, touch.attr.attribute, target[1]
            )
        # Environmental effect.  Setpoint commands carry their target
        # (paper: effect constraint `tSensor.temperature >= T`); bare
        # directional commands are modeled as driving the channel to the
        # EFFECT_TARGET_FRACTION point of its range.
        assert touch.channel is not None and touch.effect is not None
        channel = CHANNELS[touch.channel]
        params = action.params
        if (
            action.command.startswith("set")
            and params
            and isinstance(params[0], Const)
            and isinstance(params[0].value, (int, float))
        ):
            op = ">=" if touch.effect.value == "+" else "<="
            return builder.attr_compare(
                rule_b.app_name,
                touch.attr.device,
                touch.attr.attribute,
                op,
                float(params[0].value),
            )
        span = channel.high - channel.low
        if touch.effect.value == "+":
            target_value = channel.low + EFFECT_TARGET_FRACTION * span
            return builder.attr_compare(
                rule_b.app_name, touch.attr.device, touch.attr.attribute,
                ">=", target_value,
            )
        target_value = channel.high - EFFECT_TARGET_FRACTION * span
        return builder.attr_compare(
            rule_b.app_name, touch.attr.device, touch.attr.attribute,
            "<=", target_value,
        )

    # ------------------------------------------------------------------
    # Overlap solving with reuse

    def _solve_shared(
        self, pool: VarPool, formula: BoolFormula, threat_type: ThreatType
    ) -> Result:
        """Inline solve with the shared cache between the per-home
        caches and the solver (DESIGN.md §12): consult, solve on miss,
        publish the fresh verdict.  Without a backend this is exactly
        the historical solve-and-count sequence."""
        cache = self.shared_cache
        skey = var_map = free_map = None
        if cache is not None:
            skey, var_map, free_map = shared_key(pool, formula)
            entry = cache.get(skey)
            if entry is not None:
                result = decode_entry(entry, var_map, free_map)
                if result is not None:
                    self.stats.shared_cache_hits += 1
                    return result
        started = time.perf_counter()
        result = Solver(pool).solve(formula)
        self.stats.add_solve(threat_type, time.perf_counter() - started)
        self.stats.solver_calls += 1
        if cache is not None:
            entry = encode_entry(result, var_map, free_map)
            if entry is not None and cache.put(skey, entry):
                self.stats.shared_cache_publishes += 1
        return result

    def _overlap_situation(
        self, rule_a: Rule, rule_b: Rule, threat_type: ThreatType
    ) -> Result:
        key = frozenset((rule_a.rule_id, rule_b.rule_id))
        cached = self._situation_cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        pool, formula = self._situation_instance(rule_a, rule_b)
        result = self._solve_shared(pool, formula, threat_type)
        self._situation_cache[key] = result
        return result

    def _overlap_conditions(
        self, rule_a: Rule, rule_b: Rule, threat_type: ThreatType
    ) -> Result:
        # Reuse the full-situation result when available: if the merged
        # triggers+conditions are satisfiable, so are the conditions.
        key = frozenset((rule_a.rule_id, rule_b.rule_id))
        cached = self._situation_cache.get(key)
        if cached is not None and cached.sat:
            self.stats.cache_hits += 1
            return cached
        cached = self._condition_cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        pool, formula = self._condition_instance(rule_a, rule_b)
        result = self._solve_shared(pool, formula, threat_type)
        self._condition_cache[key] = result
        return result


# ----------------------------------------------------------------------
# Plan-chunk worker (DESIGN.md §10)


def _seed_pair_knowledge(
    engine: DetectionEngine, id_a: str, id_b: str, known: PairKnowledge
) -> None:
    """Replant a pair's coordinator-side verdicts into a scratch
    engine's caches.  Planning only ever reads presence, the ``sat``
    bit and the inexpressible ``None`` marker, so witness-free stub
    results reproduce the coordinator's planning decisions exactly."""
    situation, condition, effect_ab, effect_ba = known
    unordered = frozenset((id_a, id_b))
    if situation != KNOWN_UNKNOWN:
        engine._situation_cache[unordered] = Result(
            sat=situation == KNOWN_SAT
        )
    if condition != KNOWN_UNKNOWN:
        engine._condition_cache[unordered] = Result(
            sat=condition == KNOWN_SAT
        )
    for key, state in (
        ((id_a, id_b), effect_ab),
        ((id_b, id_a), effect_ba),
    ):
        if state == KNOWN_INEXPRESSIBLE:
            engine._effect_cache[key] = None
        elif state != KNOWN_UNKNOWN:
            engine._effect_cache[key] = Result(sat=state == KNOWN_SAT)


def plan_pair_chunk(task: PlanTask) -> PlanResult:
    """Plan one :class:`PlanTask` chunk and solve its tasks in place.

    Runs wherever the dispatcher put it — a worker process (the task
    pickles by construction), a pool thread, or inline.  The scratch
    engine is seeded with the coordinator's per-pair verdicts, so the
    chunk emits exactly the tasks the single-planner walk would have
    emitted for these pairs, in the same order; solving them locally
    (fused plan+solve) keeps formulas on the worker and ships only the
    small keyed outcomes back.

    When the task carries a shared solve-cache payload (DESIGN.md §12)
    the worker consults it while planning — warmed verdicts come back
    as ``shared`` outcomes instead of local solves — and encodes its
    post-miss solves as ``publishable`` entries for the *coordinator*
    to publish (workers never write the backend)."""
    resolver = resolver_from_payload(task.resolver)
    engine = DetectionEngine(
        resolver, shared_cache=cache_from_payload(task.cache)
    )
    run = _BatchRun()
    for (sig_a, sig_b), known in zip(task.pairs, task.known):
        _seed_pair_knowledge(engine, sig_a.rule_id, sig_b.rule_id, known)
    plan_started = time.perf_counter()
    deferred: list[int] = []
    for i, (sig_a, sig_b) in enumerate(task.pairs):
        ctx = _BatchSolves(engine, run, record=False)
        engine._detect_pair(sig_a, sig_b, ctx)
        if ctx.pending:
            deferred.append(i)
    plan_seconds = time.perf_counter() - plan_started
    # Executed outcomes join the shared-cache hits absorbed during
    # planning; ``outcomes.items()`` preserves planning/execution order
    # so the coordinator's merge stays deterministic.
    run.batch.absorb(execute_chunk(run.batch.take_pending()))
    publishable: list[tuple[str, dict]] = []
    for task_key, (skey, var_map, free_map) in run.publish.items():
        outcome = run.batch.outcome(task_key)
        if outcome is None or outcome.shared:
            continue
        entry = encode_entry(outcome.result, var_map, free_map)
        if entry is not None:
            publishable.append((skey, entry))
    return PlanResult(
        outcomes=tuple(run.batch.outcomes.items()),
        inexpressible=tuple(sorted(run.inexpressible)),
        deferred=tuple(deferred),
        plan_seconds=plan_seconds,
        publishable=tuple(publishable),
    )
