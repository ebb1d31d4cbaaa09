"""Batched solver dispatch (plan/execute detection, DESIGN.md §9).

Detection planning (:meth:`repro.detector.engine.DetectionEngine
.detect_signed_batch`) walks the candidate tests without calling the
solver and emits one :class:`SolveTask` per cache-missing constraint
instance.  Tasks are pure data — a :class:`~repro.constraints.solver
.VarPool` plus a :class:`~repro.constraints.terms.BoolFormula`, both
built from frozen dataclasses — so a batch can be solved anywhere: in
the coordinator, or inside the plan worker that planned it.

The contract every backend must honour (and the equivalence tests
enforce) is *deterministic merge*: outcomes are keyed by task, callers
read them by key and commit results in their own (serial) planning
order, so completion order never influences threat reports, solve
caches or persisted store bytes — they are identical for every backend
and worker count.

Backends
--------

* :class:`SerialDispatcher` — executes tasks inline, in submission
  order; the default and the semantic reference.
* :class:`ThreadPoolDispatcher` — ``concurrent.futures`` threads.  The
  solver is pure Python, so the GIL caps the speedup; useful mainly as
  a cheap determinism cross-check and to overlap I/O-heavy callers.
* :class:`ProcessPoolDispatcher` — worker processes; plan chunks are
  pickled over.  This is the backend that turns the solver loop into a
  real fan-out (the store-scale benchmark's worker sweep).

Parallel planning (DESIGN.md §10)
---------------------------------

Pooled backends fan out planning and solving together: they shard a
batch's candidate-pair list into picklable :class:`PlanTask` chunks
that workers plan independently — each chunk walks its pairs against
the batch solve access, builds the cache-missing constraint instances,
solves them locally, and returns a :class:`PlanResult` with the
outcomes plus locally-resolved planning verdicts (inexpressible
effects, deferred pairs).  The coordinator
merges results in chunk order, so the batch state after a round is
identical to the single-planner walk — formulas never cross the wire
back and forth, only signatures go out and small outcomes come home.

:class:`AutoDispatcher` (``make_dispatcher("auto")``) adds adaptive
backend selection on top: batches below :data:`AUTO_MIN_BATCH_PAIRS`
candidate pairs run on the serial reference (a single install review is
too small to amortize worker fan-out), larger ones on a process pool
sized from ``os.cpu_count()``.

Executors are created lazily and reused across batches; call
:meth:`~SolverDispatcher.close` (or use the dispatcher as a context
manager) to release workers deterministically.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.constraints.solver import Result, Solver, VarPool
from repro.constraints.terms import BoolFormula
from repro.testing.faults import fault_hook, shielded as _fault_shield

# A task key names one solve-cache slot: ("situation" | "condition",
# rule_id_lo, rule_id_hi) with the ids sorted (those caches are keyed by
# unordered pairs), or ("effect", rule_id_a, rule_id_b) in rule order.
TaskKey = tuple[str, str, str]

# Candidate pairs per planning chunk: planning one pair costs ~0.1 ms
# (candidate tests + constraint lowering for cache misses), so a chunk
# is a few ms of work — enough to amortize pickling its signatures.
_PLAN_CHUNK_PAIRS = 96

# Autotuning (DESIGN.md §12): dispatchers created with ``autotune=True``
# re-derive the plan-chunk size from the previous batch's observed
# planning cost, targeting this many seconds of work per worker message;
# the clamps keep a pathological measurement (a zero-cost plan round)
# from collapsing or exploding the chunking.  Chunk sizes only shape
# scheduling — results are byte-identical at any size, which the
# fixed-chunk equivalence arms already prove.
_TARGET_CHUNK_SECONDS = 0.008
_PLAN_CHUNK_PAIRS_MIN, _PLAN_CHUNK_PAIRS_MAX = 16, 1024

# Below this many candidate pairs the auto backend stays serial: one
# install review's batch is too small to pay for process fan-out.
AUTO_MIN_BATCH_PAIRS = 256

# Fault tolerance (DESIGN.md §15): after this many failed worker
# messages within one detection batch a pooled dispatcher trips into
# serial-degraded mode — the rest of the batch executes inline in the
# coordinator, which is always correct (the serial reference), just
# slower.  for_batch() re-arms the pool for the next batch.
_MAX_POOL_FAILURES = 8

# The four recovery counters.  Semantics (each event counted exactly
# once, DESIGN.md §15):
#   pool_failures   — failed chunk executions: a worker message (or the
#                     serial reference's inline chunk) that raised,
#                     died with its worker, or overran solve_timeout.
#   chunks_requeued — chunks re-executed inline after a failure.
#   tasks_retried   — individual solve tasks re-executed after a
#                     failure, counted once per re-execution.
#   degraded_serial — times a dispatcher tripped into serial-degraded
#                     mode for the remainder of a batch.
_FAULT_FIELDS = (
    "tasks_retried",
    "chunks_requeued",
    "pool_failures",
    "degraded_serial",
)


class FaultCounters:
    """A small bundle of recovery-event counters."""

    __slots__ = _FAULT_FIELDS

    def __init__(self) -> None:
        for name in _FAULT_FIELDS:
            setattr(self, name, 0)

    def add(self, field: str, n: int = 1) -> None:
        setattr(self, field, getattr(self, field) + n)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _FAULT_FIELDS}

    def take(self) -> dict[str, int]:
        snap = self.snapshot()
        for name in _FAULT_FIELDS:
            setattr(self, name, 0)
        return snap


class _FaultState:
    """Per-dispatcher recovery state.

    ``delta`` is drained by the detection engine into the batch's
    :class:`~repro.detector.engine.DetectionStats` (exactly once);
    ``totals`` never resets and feeds the service-level status record,
    so counts survive tenant-home eviction."""

    __slots__ = ("delta", "totals", "batch_failures", "degraded")

    def __init__(self) -> None:
        self.delta = FaultCounters()
        self.totals = FaultCounters()
        self.batch_failures = 0
        self.degraded = False


@dataclass(frozen=True, slots=True)
class SolveTask:
    """One deferred solver call: everything needed to decide it.

    Pure data (pool and formula are plain frozen dataclasses over
    builtins), so solving it touches no engine state — in the
    coordinator or inside a plan worker alike."""

    key: TaskKey
    pool: VarPool
    formula: BoolFormula


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    """A task's result plus the solver CPU seconds it cost.

    ``shared`` marks a verdict served from the shared cross-tenant
    solve cache (DESIGN.md §12) instead of an executed task; the
    finalize pass attributes it to ``shared_cache_hits`` rather than
    ``solver_calls``, and it contributes no solver CPU."""

    result: Result
    seconds: float
    shared: bool = False


def execute_chunk(
    tasks: Sequence[SolveTask],
) -> list[tuple[TaskKey, SolveOutcome]]:
    """Solve a chunk of tasks in order — a plan chunk's solves, or one
    round of the serial planner's — timing each solve."""
    fault_hook("dispatch.chunk", size=len(tasks))
    outcomes = []
    for task in tasks:
        started = time.perf_counter()
        result = Solver(task.pool).solve(task.formula)
        outcomes.append(
            (task.key, SolveOutcome(result, time.perf_counter() - started))
        )
    return outcomes


# Per-pair cache knowledge shipped with a plan chunk, as small ints:
# situation/condition verdicts are -1 unknown / 0 unsat / 1 sat, the
# two directed effect slots additionally use 2 for a cached
# inexpressible-effect ``None``.
PairKnowledge = tuple[int, int, int, int]

KNOWN_UNKNOWN = -1
KNOWN_UNSAT = 0
KNOWN_SAT = 1
KNOWN_INEXPRESSIBLE = 2


@dataclass(frozen=True, slots=True)
class PlanTask:
    """One planning chunk: a shard of a batch's candidate-pair list.

    Pure data by construction — ``pairs`` holds frozen
    :class:`~repro.detector.signature.RuleSignature` pairs, ``known``
    the per-pair cache verdicts the coordinating engine already holds,
    and ``resolver`` either the live resolver object (thread backends)
    or its pickled bytes (process backends; workers memoize the decoded
    object per process, so a 2k-app resolver is decoded once, not once
    per chunk).  A worker plans the chunk against a scratch engine
    seeded from ``known`` and solves every task it planned locally, so
    formulas are built *and* decided worker-side.

    ``cache`` optionally carries the coordinator's shared solve-cache
    backend — live object for in-process backends, an
    :meth:`~repro.constraints.solvecache.SolveCacheBackend.encode`
    payload across a pickle boundary, or ``None`` when the backend
    cannot travel (workers then plan without shared-cache consults)."""

    pairs: tuple
    known: tuple[PairKnowledge, ...]
    resolver: object
    cache: object = None


@dataclass(frozen=True, slots=True)
class PlanResult:
    """What one planned chunk resolved.

    ``outcomes`` are the chunk's resolved solves in planning order —
    executed tasks plus any verdicts served from the shared solve
    cache (flagged on the :class:`SolveOutcome`); ``inexpressible`` the
    effect task keys planning proved undecidable without a solver;
    ``deferred`` the chunk-local indices of pairs that need another
    planning round (their condition solve waits on this round's
    situation verdict, paper Fig. 9); ``plan_seconds`` the worker CPU
    spent planning (solve CPU lives in each outcome); ``publishable``
    the ``(shared_key, entry)`` pairs for solves the worker executed
    after a shared-cache miss — the *coordinator* publishes them, so
    ``shared_cache_publishes`` is attributed exactly once."""

    outcomes: tuple[tuple[TaskKey, SolveOutcome], ...]
    inexpressible: tuple[TaskKey, ...]
    deferred: tuple[int, ...]
    plan_seconds: float
    publishable: tuple[tuple[str, dict], ...] = ()


# Decoded-resolver memo for process plan workers, keyed by the pickled
# payload; one batch ships the same payload in every chunk.
_RESOLVER_MEMO: dict[bytes, object] = {}


def resolver_from_payload(payload: object) -> object:
    """The live resolver a plan chunk should plan against."""
    if not isinstance(payload, bytes):
        return payload
    cached = _RESOLVER_MEMO.get(payload)
    if cached is None:
        if len(_RESOLVER_MEMO) >= 4:
            _RESOLVER_MEMO.clear()
        cached = _RESOLVER_MEMO[payload] = pickle.loads(payload)
    return cached


def execute_plan_task(task: PlanTask) -> PlanResult:
    """Plan one chunk.  Module-level so process pools can pickle it;
    the engine import is deferred to break the import cycle (the
    detector engine imports this module)."""
    from repro.detector.engine import plan_pair_chunk

    return plan_pair_chunk(task)


class SolverDispatcher:
    """Executes solve tasks; base class and serial reference."""

    name = "serial"
    workers = 1
    # Whether planning passes are sharded onto this backend's workers
    # (DESIGN.md §10).  The serial reference plans inline against the
    # live engine — the semantics every other mode must reproduce.
    plans_remotely = False
    # Candidate pairs per PlanTask chunk when planning remotely.
    plan_chunk_pairs = _PLAN_CHUNK_PAIRS
    # Per-chunk deadline in seconds (None = wait forever): a pooled
    # plan chunk whose future has not resolved within this long is
    # abandoned and re-planned inline (DESIGN.md §15).
    solve_timeout: float | None = None
    # Failed worker messages per batch before degrading to serial.
    max_pool_failures = _MAX_POOL_FAILURES

    # -- fault accounting (DESIGN.md §15) ------------------------------

    def _fault_state(self) -> _FaultState:
        # Lazily attached so subclasses never need to chain __init__.
        state = self.__dict__.get("_faults")
        if state is None:
            state = self.__dict__["_faults"] = _FaultState()
        return state

    @property
    def degraded(self) -> bool:
        """True while this dispatcher is in serial-degraded mode."""
        return self._fault_state().degraded

    def _record_fault(self, field: str, n: int = 1) -> None:
        state = self._fault_state()
        state.delta.add(field, n)
        state.totals.add(field, n)

    def _note_pool_failure(self) -> None:
        """Count one failed worker message; trip degraded mode once the
        batch has burned through ``max_pool_failures`` of them."""
        state = self._fault_state()
        self._record_fault("pool_failures")
        state.batch_failures += 1
        if not state.degraded and state.batch_failures >= self.max_pool_failures:
            state.degraded = True
            self._record_fault("degraded_serial")
            warnings.warn(
                f"{self.name} dispatcher hit {state.batch_failures} pool "
                "failures in one batch; degrading to serial execution "
                "for the remainder of the batch",
                RuntimeWarning,
                stacklevel=3,
            )

    def _begin_batch(self) -> None:
        state = self._fault_state()
        state.batch_failures = 0
        state.degraded = False

    def take_fault_counters(self) -> dict[str, int]:
        """Drain the recovery counters accumulated since the last take.

        The detection engine calls this once per batch and folds the
        deltas into that batch's :class:`DetectionStats`, so every
        event lands in exactly one batch's stats."""
        return self._fault_state().delta.take()

    def fault_totals(self) -> dict[str, int]:
        """Lifetime recovery totals (never reset; status reporting)."""
        return self._fault_state().totals.snapshot()

    def for_batch(self, pair_count: int) -> "SolverDispatcher":
        """The backend to use for a batch of ``pair_count`` candidate
        pairs — adaptive dispatchers pick per batch, everything else
        returns itself.  Also re-arms fault-recovery state: degraded
        mode lasts for the remainder of one batch only."""
        self._begin_batch()
        return self

    def encode_resolver(self, resolver: object) -> object | None:
        """Prepare a resolver for shipping inside :class:`PlanTask`s.

        Returns ``None`` when the resolver cannot travel to this
        backend's workers, which makes the engine plan and solve the
        batch inline in the coordinator."""
        return resolver

    def encode_cache(self, cache: object) -> object | None:
        """Prepare a shared solve-cache backend for shipping inside
        :class:`PlanTask`\\ s.  In-process backends travel as the live
        object; process backends override this to ask the backend for a
        picklable payload (``None`` = workers skip shared-cache
        consults; solving is unaffected)."""
        return cache

    def observe_batch(self, plan_cpu: float, pairs: int) -> None:
        """Feedback after a detection batch: summed planning CPU over
        ``pairs`` candidate pairs.  Autotuning backends re-derive their
        plan-chunk size from it; the base class ignores it."""

    def plan_stream(
        self, tasks: Sequence[PlanTask]
    ) -> Iterator[PlanResult]:
        """Plan chunks, yielding results in submission order.  The
        serial reference plans lazily, one chunk per pull."""
        return (execute_plan_task(task) for task in tasks)

    def run(
        self, tasks: Sequence[SolveTask]
    ) -> dict[TaskKey, SolveOutcome]:
        """Solve one planning round's tasks in the coordinator — the
        serial planner's solve step.

        A chunk that raises is counted as one failed execution and
        re-executed exactly once with ``dispatch.*`` fault injection
        shielded: the retry models the coordinator's own process, which
        worker-boundary faults cannot reach, so recovery terminates even
        under an every-call fault plan.  The solver is deterministic, so
        the re-executed outcomes are byte-identical (only the timing
        differs, which never reaches persisted bytes)."""
        if not tasks:
            return {}
        try:
            return dict(execute_chunk(tasks))
        except Exception:
            self._record_fault("pool_failures")
            self._record_fault("chunks_requeued")
            self._record_fault("tasks_retried", len(tasks))
            with _fault_shield("dispatch."):
                return dict(execute_chunk(tasks))

    def close(self) -> None:
        """Release any pooled workers (no-op for the serial backend)."""

    def __enter__(self) -> "SolverDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialDispatcher(SolverDispatcher):
    """In-order, in-process execution — byte-identical to the engine
    solving inline, and the reference the parallel backends are tested
    against."""


class _PooledDispatcher(SolverDispatcher):
    """Shared lazy-executor plumbing for thread/process backends."""

    plans_remotely = True

    def __init__(
        self,
        workers: int = 4,
        plan_chunk_pairs: int = _PLAN_CHUNK_PAIRS,
        autotune: bool = False,
        solve_timeout: float | None = None,
        max_pool_failures: int = _MAX_POOL_FAILURES,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if plan_chunk_pairs < 1:
            raise ValueError(
                f"plan_chunk_pairs must be >= 1, got {plan_chunk_pairs}"
            )
        if solve_timeout is not None and solve_timeout <= 0:
            raise ValueError(
                f"solve_timeout must be > 0 or None, got {solve_timeout}"
            )
        if max_pool_failures < 1:
            raise ValueError(
                f"max_pool_failures must be >= 1, got {max_pool_failures}"
            )
        self.workers = workers
        self.plan_chunk_pairs = plan_chunk_pairs
        self.solve_timeout = solve_timeout
        self.max_pool_failures = max_pool_failures
        # With autotune on, observe_batch() re-derives plan_chunk_pairs
        # from each batch's measured planning cost; an explicit setting
        # stays fixed otherwise.
        self.autotune = autotune
        self._executor: Executor | None = None

    def observe_batch(self, plan_cpu: float, pairs: int) -> None:
        """Retarget the plan-chunk size at :data:`_TARGET_CHUNK_SECONDS`
        of measured planning work per worker message (DESIGN.md §12).
        Cheap pairs pack more per message (less IPC per pair), expensive
        ones spread thinner (better load balance).  Results never depend
        on chunk sizes, so the adaptation is a pure scheduling change."""
        if not self.autotune:
            return
        if pairs > 0 and plan_cpu > 0.0:
            per_pair = plan_cpu / pairs
            self.plan_chunk_pairs = max(
                _PLAN_CHUNK_PAIRS_MIN,
                min(
                    _PLAN_CHUNK_PAIRS_MAX,
                    int(_TARGET_CHUNK_SECONDS / per_pair),
                ),
            )

    def _make_executor(self) -> Executor:
        raise NotImplementedError

    def _executor_or_start(self) -> Executor:
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def _reset_executor(self) -> None:
        """Discard a broken executor; the next submission forks fresh
        workers.  ``wait=False``: the pool is already dead."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def _plan_inline(self, task: PlanTask) -> PlanResult:
        """Coordinator-side re-planning of a lost plan chunk (shielded,
        like the retry in :meth:`SolverDispatcher.run`; planning is
        deterministic, so the result matches what the lost worker would
        have sent)."""
        with _fault_shield("dispatch."):
            return execute_plan_task(task)

    def plan_stream(
        self, tasks: Sequence[PlanTask]
    ) -> Iterator[PlanResult]:
        if self.degraded:
            def degraded_results() -> Iterator[PlanResult]:
                for task in tasks:
                    try:
                        yield execute_plan_task(task)
                    except Exception:
                        self._record_fault("pool_failures")
                        self._record_fault("chunks_requeued")
                        yield self._plan_inline(task)

            return degraded_results()
        pending: list[tuple] = []
        for task in tasks:
            try:
                future = self._executor_or_start().submit(
                    execute_plan_task, task
                )
            except BrokenExecutor:
                self._reset_executor()
                future = self._executor_or_start().submit(
                    execute_plan_task, task
                )
            pending.append((future, task))

        def results() -> Iterator[PlanResult]:
            for future, task in pending:
                try:
                    yield future.result(timeout=self.solve_timeout)
                    continue
                except _FuturesTimeout:
                    self._note_pool_failure()
                    future.cancel()
                except Exception as exc:
                    self._note_pool_failure()
                    if isinstance(exc, BrokenExecutor):
                        self._reset_executor()
                # The coordinator re-plans the lost chunk inline,
                # preserving the chunk-order merge.
                self._record_fault("chunks_requeued")
                yield self._plan_inline(task)

        return results()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class ThreadPoolDispatcher(_PooledDispatcher):
    """Thread-pool execution (GIL-bound; determinism cross-check and
    overlap with I/O-heavy callers)."""

    name = "thread"

    def _make_executor(self) -> Executor:
        return ThreadPoolExecutor(max_workers=self.workers)


class ProcessPoolDispatcher(_PooledDispatcher):
    """Process-pool execution; tasks and results cross a pickle
    boundary, which :class:`SolveTask` supports by construction."""

    name = "process"

    def _make_executor(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def encode_resolver(self, resolver: object) -> object | None:
        """Pickle the resolver once per batch; every chunk ships the
        same bytes and workers decode them once per process.  An
        unpicklable resolver (e.g. one closed over live handles)
        returns ``None`` — the engine then plans and solves the whole
        batch in the coordinator.  The fallback warns so "why is
        detection serial?" is diagnosable."""
        try:
            return pickle.dumps(resolver)
        except Exception as exc:
            warnings.warn(
                f"resolver of type {type(resolver).__name__} is not "
                f"picklable ({type(exc).__name__}: {exc}); the batch "
                "plans and solves inline in the coordinator",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def encode_cache(self, cache: object) -> object | None:
        """Ask the backend for a payload workers can reopen it from
        (e.g. the SQLite cache's file path).  In-process-only backends
        answer ``None``: plan workers then skip shared-cache consults
        while the coordinator keeps consulting and publishing."""
        if cache is None:
            return None
        return cache.encode()


class AutoDispatcher(SolverDispatcher):
    """Adaptive backend selection (DESIGN.md §10).

    :meth:`for_batch` picks per detection batch: below ``min_batch``
    candidate pairs (or on single-CPU hosts) the serial reference runs
    — an install review's handful of pairs never amortizes worker
    fan-out — and above it a lazily created
    :class:`ProcessPoolDispatcher` sized from ``os.cpu_count()``
    (capped at 8: the solver loop stops scaling past that) takes over.
    Byte-identical results either way, per the §9 guarantee."""

    name = "auto"

    def __init__(
        self,
        workers: int | None = None,
        min_batch: int = AUTO_MIN_BATCH_PAIRS,
        solve_timeout: float | None = None,
        max_pool_failures: int = _MAX_POOL_FAILURES,
    ) -> None:
        cpus = os.cpu_count() or 1
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else min(cpus, 8)
        self.min_batch = min_batch
        self.solve_timeout = solve_timeout
        self.max_pool_failures = max_pool_failures
        self._serial = SerialDispatcher()
        self._pool: ProcessPoolDispatcher | None = None

    def for_batch(self, pair_count: int) -> SolverDispatcher:
        if self.workers < 2 or pair_count < self.min_batch:
            return self._serial.for_batch(pair_count)
        if self._pool is None:
            # The adaptive backend also adapts its chunking: each
            # batch's observed planning cost retunes the pool's
            # plan_chunk_pairs for the next one (DESIGN.md §12) instead
            # of trusting the fixed default.
            self._pool = ProcessPoolDispatcher(
                self.workers,
                autotune=True,
                solve_timeout=self.solve_timeout,
                max_pool_failures=self.max_pool_failures,
            )
        return self._pool.for_batch(pair_count)

    def take_fault_counters(self) -> dict[str, int]:
        merged = self._serial.take_fault_counters()
        if self._pool is not None:
            for field, count in self._pool.take_fault_counters().items():
                merged[field] += count
        return merged

    def fault_totals(self) -> dict[str, int]:
        merged = self._serial.fault_totals()
        if self._pool is not None:
            for field, count in self._pool.fault_totals().items():
                merged[field] += count
        return merged

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __repr__(self) -> str:
        return (
            f"AutoDispatcher(workers={self.workers}, "
            f"min_batch={self.min_batch})"
        )


class SolveBatch:
    """An ordered, key-deduplicated collection of :class:`SolveTask`s
    and the outcomes of the rounds executed so far.

    Planning may run in several rounds (a condition solve is only
    needed once the pair's situation solve came back UNSAT, mirroring
    the serial engine's Fig. 9 reuse), so the batch tracks which tasks
    are still unexecuted; :meth:`take_pending` hands exactly those to
    the dispatcher and :meth:`absorb` merges the outcomes."""

    __slots__ = ("_pending", "requested", "outcomes")

    def __init__(self) -> None:
        self._pending: list[SolveTask] = []
        self.requested: set[TaskKey] = set()
        self.outcomes: dict[TaskKey, SolveOutcome] = {}

    def add(self, task: SolveTask) -> bool:
        """Queue a task unless its key is already requested."""
        if task.key in self.requested:
            return False
        self.requested.add(task.key)
        self._pending.append(task)
        return True

    def take_pending(self) -> list[SolveTask]:
        """Pop the tasks queued since the last call."""
        tasks, self._pending = self._pending, []
        return tasks

    def absorb(self, outcomes: dict[TaskKey, SolveOutcome]) -> None:
        self.outcomes.update(outcomes)

    def absorb_planned(
        self, outcomes: Iterable[tuple[TaskKey, SolveOutcome]]
    ) -> int:
        """Merge outcomes a plan worker solved locally (fused
        plan+solve, DESIGN.md §10); returns how many keys were new —
        the batch's progress measure for the stall check."""
        fresh = 0
        for key, outcome in outcomes:
            if key not in self.requested:
                self.requested.add(key)
                fresh += 1
            self.outcomes[key] = outcome
        return fresh

    def outcome(self, key: TaskKey) -> SolveOutcome | None:
        return self.outcomes.get(key)


def make_dispatcher(
    workers: int | str | SolverDispatcher | None,
) -> SolverDispatcher | None:
    """Resolve a user-facing ``workers=`` setting into a dispatcher.

    * ``None`` — no batching: the engine keeps its inline solve path.
    * ``"auto"`` / ``"auto:N"`` — :class:`AutoDispatcher`: serial for
      small batches, a cpu-sized (or ``N``-worker) process pool above
      :data:`AUTO_MIN_BATCH_PAIRS` pairs.  The HomeGuard default.
    * ``"serial"`` / ``1`` — plan/execute with :class:`SerialDispatcher`
      (same results, one batch per detection run).
    * an ``int > 1`` — :class:`ProcessPoolDispatcher` with that many
      workers (the backend that actually scales the solver loop).
    * ``"thread"`` / ``"thread:N"`` / ``"process"`` / ``"process:N"`` —
      explicit backend choice (default 4 workers).
    * a :class:`SolverDispatcher` instance — used as-is.
    """
    def unknown(problem: str = "") -> ValueError:
        detail = f" ({problem})" if problem else ""
        return ValueError(
            f"invalid dispatcher spec {workers!r}{detail}; valid specs: "
            "None (inline solves), a positive int (process workers), "
            "'serial', 'thread[:N]', 'process[:N]', 'auto[:N]' with "
            "N >= 1, or a SolverDispatcher instance"
        )

    if workers is None:
        return None
    if isinstance(workers, SolverDispatcher):
        return workers
    if isinstance(workers, int):
        if workers < 1:
            raise unknown("worker count must be >= 1")
        if workers == 1:
            return SerialDispatcher()
        return ProcessPoolDispatcher(workers)
    spec = str(workers).strip().lower()
    name, _, count_text = spec.partition(":")
    if name not in ("auto", "serial", "thread", "process"):
        raise unknown(f"unknown backend name {name!r}")
    if name == "auto":
        try:
            count = int(count_text) if count_text else None
        except ValueError:
            raise unknown(f"worker count {count_text!r} is not an int") \
                from None
        if count is not None and count < 1:
            raise unknown("worker count must be >= 1")
        return AutoDispatcher(workers=count)
    try:
        count = int(count_text) if count_text else 4
    except ValueError:
        raise unknown(f"worker count {count_text!r} is not an int") from None
    if count < 1:
        raise unknown("worker count must be >= 1")
    if name == "serial":
        return SerialDispatcher()
    if name == "thread":
        return ThreadPoolDispatcher(count)
    return ProcessPoolDispatcher(count)
