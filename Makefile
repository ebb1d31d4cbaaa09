PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-hashseed test-faults bench bench-smoke bench-fleet \
	bench-store bench-monitor serve-smoke perf-smoke lint docs-check \
	schema-check loc

# Tier-1 verification: the full unit/integration suite.  The ten
# slowest tests are listed so a stalled test shows up in every CI log.
test:
	$(PYTHON) -m pytest -x -q --durations=10

# Dispatcher-, service-, monitor- and store-equivalence tests under
# both the default (randomized) and a pinned hash seed: set/dict
# iteration order must never leak into the deterministic batch merge,
# into a tenant home's results (threats, caches, store bytes — the
# journal's frontend ops included), or into the runtime monitor's
# observation stream (trace replay must stay byte-identical to live
# ingestion), or into the detection store's bytes (cache sections are
# written in canonical key order).
test-hashseed:
	$(PYTHON) -m pytest -q tests/test_dispatch_equivalence.py \
		tests/test_service_equivalence.py tests/test_monitor.py \
		tests/test_store_engine.py tests/test_detector_store.py
	PYTHONHASHSEED=0 $(PYTHON) -m pytest -q \
		tests/test_dispatch_equivalence.py \
		tests/test_service_equivalence.py tests/test_monitor.py \
		tests/test_store_engine.py tests/test_detector_store.py

# Fault-injection chaos battery (DESIGN.md §15): injected worker
# crashes, hung solves, killed processes and backend I/O errors must
# leave audit results byte-identical to a fault-free run.  Runs under
# two fixed hash seeds (fault-plan triggers are seed-deterministic;
# set/dict order must not leak into recovery either), appending every
# injected event to fault_events.ci.jsonl (uploaded as a CI artifact).
test-faults:
	PYTHONHASHSEED=0 FAULT_EVENT_LOG=fault_events.ci.jsonl \
		$(PYTHON) -m pytest -q tests/test_fault_tolerance.py
	PYTHONHASHSEED=1 FAULT_EVENT_LOG=fault_events.ci.jsonl \
		$(PYTHON) -m pytest -q tests/test_fault_tolerance.py

# Wire-schema stability: every service request/response dataclass must
# JSON-round-trip and match the committed schema_manifest.json — a
# field change without a WIRE_SCHEMA_VERSION bump fails here.  After a
# deliberate, version-bumped change regenerate the manifest with
# `python -m repro.service.schemas --write-manifest`.
schema-check:
	$(PYTHON) -W ignore::RuntimeWarning -m repro.service.schemas
	$(PYTHON) -m pytest -q tests/test_service_schemas.py

# Full benchmark sweep (paper figures/tables + store-scale audit).
bench:
	$(PYTHON) -m pytest -q benchmarks/bench_*.py

# Quick benchmark smoke for CI: small store sizes plus a tiny worker
# sweep (<= 200 apps, serial/2/4 workers) so plan/execute-path
# regressions fail fast without the full 5k-app script run.  The
# regression gate fails the run when the cold 200-app audit is >25%
# slower than the committed BENCH_store_scale.json baseline, and the
# run's own numbers land in BENCH_store_scale.ci.json (uploaded as a
# workflow artifact by CI).
bench-smoke:
	BENCH_STORE_SIZES=30,200 BENCH_WORKER_COUNTS=1,2,4 \
	BENCH_REGRESSION_GATE=1 BENCH_EMIT_PATH=BENCH_store_scale.ci.json \
	BENCH_FLEET_EMIT_PATH=BENCH_fleet_cache.ci.json \
	BENCH_STORE_EMIT_PATH=BENCH_store_engine.ci.json \
	BENCH_MONITOR_EMIT_PATH=BENCH_monitor.ci.json \
		$(PYTHON) -m pytest -q benchmarks/bench_*.py

# Full fleet-cache sweep (DESIGN.md §12): 6 tenants with overlapping
# corpora over one shared solve cache; rewrites the committed
# BENCH_fleet_cache.json trajectory point.
bench-fleet:
	$(PYTHON) benchmarks/bench_fleet_cache.py

# Full storage-engine sweep (DESIGN.md §14): a 10k-home fleet database
# gating delta-commit cost at < 1% of a full-store rewrite, plus a
# 384-home churn bounded at 256 resident homes across the delta/dir and
# delta/sqlite arms and the full-save oracle in tests/stores.py;
# rewrites the committed BENCH_store_engine.json trajectory point.
bench-store:
	$(PYTHON) benchmarks/bench_store_engine.py

# Runtime-monitor streaming sweep (DESIGN.md §16): 100k synthetic
# events across 200 single-process homes, gating sustained ingest at
# >= 50k events/sec with p95 batch latency reported; rewrites the
# committed BENCH_monitor.json trajectory point.
bench-monitor:
	$(PYTHON) benchmarks/bench_monitor.py

# Transport smoke for CI (DESIGN.md §13): the conformance + fuzz +
# fairness batteries against a live loopback server, then a mini load
# run (60 tenants) whose numbers land in BENCH_service_load.ci.json
# (uploaded as a workflow artifact).  The full 200-tenant sweep that
# rewrites the committed BENCH_service_load.json is
# `python benchmarks/bench_service_load.py`.
serve-smoke:
	$(PYTHON) -m pytest -q tests/test_transport_conformance.py \
		tests/test_transport_fuzz.py tests/test_transport_fairness.py
	BENCH_SERVICE_TENANTS=60 BENCH_SERVICE_REQUESTS=2 \
	BENCH_SERVICE_EMIT_PATH=BENCH_service_load.ci.json \
		$(PYTHON) -m pytest -q benchmarks/bench_service_load.py

# Socket-to-store benchmark smoke: every perfbench workload for 2 s,
# traced.  The trace wraps library callables by name, so a rename that
# would break a traced run fails here, and each workload's own
# correctness checks run too (exit 1 on a wrong answer).
perf-smoke:
	$(PYTHON) perfbench/run.py --workload all --seed 1 --seconds 2 --trace 1

# Docs smoke: run the example scripts the README points at, end to
# end, so the quickstart instructions can't rot.  store_audit also
# asserts the warm-start replay does zero solver calls (DESIGN.md §8);
# install_flow drives the HomeGuardService wire API (sessions,
# decisions, policies, JSON round-trip) through the messaging path;
# ifttt_rules renders reviews through repro.frontend.
docs-check:
	$(PYTHON) examples/quickstart.py > /dev/null
	$(PYTHON) examples/store_audit.py > /dev/null
	$(PYTHON) examples/install_flow.py > /dev/null
	$(PYTHON) examples/serve_fleet.py > /dev/null
	$(PYTHON) examples/monitor_live.py > /dev/null
	$(PYTHON) examples/ifttt_rules.py > /dev/null
	$(PYTHON) examples/exploitation_demo.py > /dev/null
	@echo "docs-check: README example scripts ran clean"

# The size of the library: lines of every Python file under src/ (the
# count each CHANGES.md entry states before and after its change).
loc:
	@find src -name '*.py' -print0 | xargs -0 cat | wc -l

# Byte-compile everything as a cheap syntax/import lint (no external
# linters baked into the image).
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	$(PYTHON) -c "import repro, repro.detector, repro.frontend, repro.runtime"
