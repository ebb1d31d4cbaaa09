"""Fault-recovery overhead: a large audit under injected chunk crashes.

The fault-tolerance layer (DESIGN.md §15) promises that worker
failures cost only wall clock, never correctness: a crashed plan
chunk is re-planned inline in the coordinator and the batch's merged
results stay byte-identical to a fault-free run.  This benchmark
prices that promise at store scale:

* the *clean* arm runs a cold plan/execute audit of a cloned-corpus
  store on a thread-pool dispatcher, whose workers plan and solve the
  batch's plan chunks;
* the *faulty* arm repeats the identical audit with a seeded
  :class:`~repro.testing.faults.FaultPlan` crashing ~5% of all
  ``dispatch.chunk`` executions (`error` kind — the worker raises,
  exactly like a crashed solve).

Gates (the paper-shaped claims this file reproduces):

* **identical results** — threat tuples (full fidelity: details and
  witnesses) and persisted store bytes match the clean arm exactly;
* **exact accounting** — every fired fault is one recorded
  ``pool_failures`` event, recoveries show up in ``chunks_requeued``,
  and the per-batch deltas the engine drained into ``DetectionStats``
  sum to the dispatcher's lifetime totals (nothing double- or
  under-counted);
* **bounded overhead** — the faulty audit finishes in under
  ``OVERHEAD_GATE``x (2x) the clean wall clock: recovery re-executes
  only the lost chunks, never the batch.

Select the store size with BENCH_FAULT_APPS (default 120 under
pytest so `make bench` stays quick; 500 when run as a script).  Script
runs write ``BENCH_fault_recovery.json`` at the repo root as the
committed trajectory point; pytest passes leave it alone.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from pathlib import Path

from bench_store_scale import _store_files, build_store
from repro.constraints.dispatch import ThreadPoolDispatcher
from repro.detector import DetectionPipeline, DetectionStore, ShardedRuleIndex
from repro.testing.faults import FaultPlan, FaultSpec

APPS = int(os.environ.get("BENCH_FAULT_APPS", "120"))
_SCRIPT_APPS = 500
FAULT_PROBABILITY = 0.05
FAULT_SEED = 7
OVERHEAD_GATE = 2.0
WORKERS = 2
_RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_fault_recovery.json"
)
_EMIT_TRAJECTORY = False


def _run_audit(rulesets, resolver, dispatcher):
    """Cold plan/execute audit; returns wall seconds, the full-fidelity
    threat tuple, the persisted store bytes and the pipeline stats."""
    pipeline = DetectionPipeline(
        resolver, index=ShardedRuleIndex(), dispatcher=dispatcher
    )
    try:
        started = time.perf_counter()
        reports = pipeline.audit_store(rulesets)
        elapsed = time.perf_counter() - started
        threats = tuple(
            (t.type.value, t.rule_a.rule_id, t.rule_b.rule_id, t.detail,
             t.witness)
            for report in reports
            for t in report.threats
        )
        with tempfile.TemporaryDirectory() as store_dir:
            DetectionStore(store_dir).save(
                pipeline, rulesets={r.app_name: r for r in rulesets}
            )
            store_bytes = _store_files(store_dir)
        return elapsed, threats, store_bytes, pipeline.stats
    finally:
        pipeline.close()


def test_fault_recovery_is_invisible_and_bounded():
    rulesets, resolver = build_store(APPS)

    clean_seconds, clean_threats, clean_store, _ = _run_audit(
        rulesets, resolver, ThreadPoolDispatcher(WORKERS)
    )
    assert clean_threats, "corpus produced no threats to compare"

    dispatcher = ThreadPoolDispatcher(WORKERS)
    plan = FaultPlan(
        [
            FaultSpec(
                "dispatch.chunk", kind="error",
                probability=FAULT_PROBABILITY,
            )
        ],
        seed=FAULT_SEED,
    )
    with plan, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        faulty_seconds, faulty_threats, faulty_store, stats = _run_audit(
            rulesets, resolver, dispatcher
        )

    fired = plan.fired("dispatch.chunk")
    calls = plan.calls("dispatch.chunk")
    assert fired > 0, (
        f"no faults fired over {calls} chunk executions; "
        "grow BENCH_FAULT_APPS or the probability"
    )

    # Identical results: threats and persisted bytes match exactly.
    assert faulty_threats == clean_threats
    assert faulty_store == clean_store

    # Exact accounting: one pool failure per fired fault (the `error`
    # kind crashes exactly the chunk it fires in; inline recovery is
    # shielded and can neither fire nor fail), every failure requeued
    # at least one chunk (a crashed plan chunk is re-planned inline),
    # and the engine's drained per-batch deltas sum to the
    # dispatcher's lifetime totals.
    totals = dispatcher.fault_totals()
    assert totals["pool_failures"] == fired
    assert totals["chunks_requeued"] >= fired
    assert totals["degraded_serial"] == 0
    assert (
        stats.tasks_retried,
        stats.chunks_requeued,
        stats.pool_failures,
        stats.degraded_serial,
    ) == (
        totals["tasks_retried"],
        totals["chunks_requeued"],
        totals["pool_failures"],
        totals["degraded_serial"],
    )

    # Bounded overhead: recovery re-executes lost chunks, not batches.
    overhead = faulty_seconds / clean_seconds
    assert overhead < OVERHEAD_GATE, (
        f"faulty audit took {overhead:.2f}x the clean run "
        f"({faulty_seconds:.2f}s vs {clean_seconds:.2f}s); "
        f"gate is {OVERHEAD_GATE}x"
    )

    metrics = {
        "apps": APPS,
        "workers": WORKERS,
        "fault_probability": FAULT_PROBABILITY,
        "fault_seed": FAULT_SEED,
        "chunk_calls": calls,
        "faults_fired": fired,
        "clean_seconds": round(clean_seconds, 3),
        "faulty_seconds": round(faulty_seconds, 3),
        "overhead_x": round(overhead, 3),
        "overhead_gate_x": OVERHEAD_GATE,
        "identical_threats": True,
        "identical_store_bytes": True,
        "threats": len(clean_threats),
        "pool_failures": totals["pool_failures"],
        "chunks_requeued": totals["chunks_requeued"],
        "tasks_retried": totals["tasks_retried"],
        "degraded_serial": totals["degraded_serial"],
    }
    print(
        f"fault recovery @ {APPS} apps: {fired}/{calls} chunks crashed, "
        f"{metrics['overhead_x']}x overhead "
        f"({metrics['faulty_seconds']}s vs {metrics['clean_seconds']}s)"
    )
    if _EMIT_TRAJECTORY:
        payload = {
            "benchmark": "fault_recovery",
            "cpu_count": os.cpu_count() or 1,
            **metrics,
        }
        _RESULTS_PATH.write_text(
            json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
        )
        print(f"trajectory point written to {_RESULTS_PATH.name}")


if __name__ == "__main__":
    if "BENCH_FAULT_APPS" not in os.environ:
        APPS = _SCRIPT_APPS
    _EMIT_TRAJECTORY = True
    test_fault_recovery_is_invisible_and_bounded()
