"""Shared cross-tenant solve cache units (DESIGN.md §12).

Covers the three layers the cache is built from:

* content-addressed keys: two tenants' structurally identical
  constraint instances share one key no matter what their device ids
  are, while any structural difference (bounds, candidates, constants,
  operators) changes it;
* entry encode/decode: a cached verdict decoded through another
  instance's name maps is byte-identical to solving that instance
  locally, and any structural surprise decodes as a miss, never a
  wrong answer;
* backends: LRU and SQLite honour first-write-wins ``put`` (the
  exactly-once publish counter contract), and a corrupted SQLite file
  *degrades* — warning + misses + unchanged results — mirroring the
  ``DetectionStore`` corrupt-store behavior.
"""

import json

import pytest

from repro.constraints import TypeBasedResolver
from repro.constraints.solvecache import (
    InProcessLRUCache,
    SolveCacheBackend,
    SQLiteSolveCache,
    cache_from_payload,
    decode_entry,
    encode_entry,
    make_solve_cache,
    shared_key,
)
from repro.constraints.solver import Result, Solver, VarPool
from repro.constraints.terms import (
    AffineTerm,
    CmpAtom,
    FreeAtom,
    StrTerm,
    conj,
    lit,
)
from repro.corpus import demo_apps
from repro.detector import DetectionPipeline
from repro.rules.extractor import RuleExtractor


def _instance(prefix: str, threshold: float = 70.0):
    """One (pool, formula) constraint instance whose variable names all
    carry ``prefix`` — the stand-in for a tenant's device ids."""
    pool = VarPool()
    temp = pool.declare_num(f"{prefix}.temperature", 0.0, 100.0)
    mode = pool.declare_str(f"{prefix}.mode", {"home", "away"})
    formula = conj(
        [
            lit(CmpAtom(AffineTerm(temp), ">", AffineTerm.const(threshold))),
            lit(CmpAtom(StrTerm(mode), "==", StrTerm(None, "home"))),
            lit(FreeAtom(f"{prefix}.motion")),
        ]
    )
    return pool, formula


# ----------------------------------------------------------------------
# Content-addressed keys


def test_shared_key_ignores_variable_names():
    key_a, vmap_a, fmap_a = shared_key(*_instance("tenantA-d03"))
    key_b, vmap_b, fmap_b = shared_key(*_instance("tenantB-d41"))
    assert key_a == key_b
    assert key_a.startswith("sc1:")
    # The name maps differ — that is exactly what the key abstracts.
    assert vmap_a != vmap_b
    assert fmap_a != fmap_b
    assert sorted(vmap_a.values()) == sorted(vmap_b.values())


def test_shared_key_distinguishes_structure():
    base, _, _ = shared_key(*_instance("x"))
    # A different comparison constant is a different instance.
    other, _, _ = shared_key(*_instance("x", threshold=71.0))
    assert other != base
    # Different declared bounds are a different instance too, even when
    # the formula text is identical.
    pool, formula = _instance("x")
    pool.num_bounds["x.temperature"] = (0.0, 200.0)
    widened, _, _ = shared_key(pool, formula)
    assert widened != base


# ----------------------------------------------------------------------
# Entry encode/decode


def test_entry_round_trip_matches_local_solve():
    pool_a, formula_a = _instance("alice")
    local_a = Solver(pool_a).solve(formula_a)
    _, vmap_a, fmap_a = shared_key(pool_a, formula_a)
    entry = encode_entry(local_a, vmap_a, fmap_a)
    # Storage is JSON (SQLite TEXT column) — round-trip through it.
    entry = json.loads(json.dumps(entry, sort_keys=True))

    pool_b, formula_b = _instance("bob")
    _, vmap_b, fmap_b = shared_key(pool_b, formula_b)
    decoded = decode_entry(entry, vmap_b, fmap_b)
    local_b = Solver(pool_b).solve(formula_b)
    # Byte-identical to solving locally: same verdict, same witness
    # values *and insertion order*, same decision count.
    assert decoded == local_b
    assert list(decoded.witness) == list(local_b.witness)
    assert repr(decoded) == repr(local_b)


def test_unsat_entry_round_trips():
    pool = VarPool()
    temp = pool.declare_num("t", 0.0, 50.0)
    formula = lit(CmpAtom(AffineTerm(temp), ">", AffineTerm.const(99.0)))
    result = Solver(pool).solve(formula)
    assert not result.sat
    _, vmap, fmap = shared_key(pool, formula)
    decoded = decode_entry(encode_entry(result, vmap, fmap), vmap, fmap)
    assert decoded == result


def test_encode_refuses_untranslatable_witness():
    _, vmap, fmap = shared_key(*_instance("a"))
    rogue = Result(sat=True, witness={"not.declared": 1})
    assert encode_entry(rogue, vmap, fmap) is None
    rogue_free = Result(sat=True, witness={"?not.declared": True})
    assert encode_entry(rogue_free, vmap, fmap) is None


def test_decode_rejects_structural_surprises():
    _, vmap, fmap = shared_key(*_instance("a"))
    good = {"sat": True, "decisions": 1, "witness": []}
    assert decode_entry(good, vmap, fmap) is not None
    for bad in (
        None,
        "sat",
        [],
        {"sat": 1, "witness": []},  # sat must be a real bool
        {"sat": True, "witness": {}},  # witness must be a list
        {"sat": True, "witness": [["v0"]]},  # not a pair
        {"sat": True, "witness": [[3, 1]]},  # name not a string
        {"sat": True, "witness": [["v999", 1]]},  # undeclared variable
        {"sat": True, "witness": [["?f999", True]]},  # undeclared atom
        {"sat": True, "witness": [], "decisions": "many"},
    ):
        assert decode_entry(bad, vmap, fmap) is None, bad


# ----------------------------------------------------------------------
# Backends: contract, specs, payloads


def test_backend_base_contract():
    backend = SolveCacheBackend()
    with pytest.raises(NotImplementedError):
        backend.get("k")
    with pytest.raises(NotImplementedError):
        backend.put("k", {})
    backend.flush()  # no-ops, never raise
    backend.close()
    assert backend.encode() is None


def test_lru_put_once_and_eviction():
    cache = InProcessLRUCache(max_entries=2)
    assert cache.put("a", {"sat": True}) is True
    assert cache.put("a", {"sat": True}) is False  # first write wins
    assert cache.put("b", {"sat": False}) is True
    assert cache.get("a") == {"sat": True}  # touch: "a" is now newest
    assert cache.put("c", {"sat": True}) is True  # evicts "b"
    assert cache.get("b") is None
    assert cache.get("a") is not None
    assert len(cache) == 2
    # LRU state cannot cross a process boundary.
    assert cache.encode() is None
    with pytest.raises(ValueError):
        InProcessLRUCache(max_entries=0)


def test_make_solve_cache_specs(tmp_path):
    assert make_solve_cache(None) is None
    backend = InProcessLRUCache()
    assert make_solve_cache(backend) is backend
    assert isinstance(make_solve_cache("lru"), InProcessLRUCache)
    assert make_solve_cache("lru:5").max_entries == 5
    sqlite_backend = make_solve_cache(f"sqlite:{tmp_path / 'fleet.db'}")
    assert isinstance(sqlite_backend, SQLiteSolveCache)
    sqlite_backend.close()
    for bad in ("lru:zero", "lru:0", "sqlite:", "quantum:9", 3):
        with pytest.raises(ValueError, match="valid specs"):
            make_solve_cache(bad)


def test_cache_from_payload(tmp_path):
    assert cache_from_payload(None) is None
    live = InProcessLRUCache()
    assert cache_from_payload(live) is live
    payload = ("sqlite", str(tmp_path / "fleet.db"))
    reopened = cache_from_payload(payload)
    assert isinstance(reopened, SQLiteSolveCache)
    # Memoized: every chunk of a batch reuses one connection.
    assert cache_from_payload(payload) is reopened
    assert cache_from_payload(("unknown", "x")) is None


# ----------------------------------------------------------------------
# SQLite backend


def test_sqlite_round_trip_persists_across_reopen(tmp_path):
    path = tmp_path / "fleet.db"
    cache = SQLiteSolveCache(path)
    entry = {"sat": True, "decisions": 3, "witness": [["v0", 42]]}
    assert cache.put("sc1:abc", entry) is True
    assert cache.put("sc1:abc", {"sat": False}) is False  # first write wins
    assert cache.get("sc1:abc") == entry
    assert cache.get("sc1:missing") is None
    assert len(cache) == 1
    assert cache.encode() == ("sqlite", str(path))
    cache.flush()
    cache.close()
    # Closed: everything degrades to misses, nothing raises.
    assert cache.get("sc1:abc") is None
    assert cache.put("sc1:new", entry) is False
    assert cache.encode() is None
    reopened = SQLiteSolveCache(path)
    assert reopened.get("sc1:abc") == entry  # survived the process
    reopened.close()


def test_sqlite_spec_creates_missing_parent_directory(tmp_path, recwarn):
    cache = make_solve_cache(f"sqlite:{tmp_path / 'new' / 'fleet.db'}")
    assert cache.put("sc1:abc", {"sat": True}) is True
    assert cache.breaker_state == "closed"
    assert not recwarn.list
    cache.close()


def test_sqlite_corrupt_file_degrades_with_warning(tmp_path):
    path = tmp_path / "fleet.db"
    garbage = b"this was never a SQLite database\x00\xff" * 64
    path.write_bytes(garbage)
    with pytest.warns(RuntimeWarning, match="degrading to re-solving"):
        cache = SQLiteSolveCache(path)
    assert cache.get("sc1:any") is None
    assert cache.put("sc1:any", {"sat": True}) is False
    assert len(cache) == 0
    assert cache.encode() is None
    assert "disabled" in repr(cache)
    # Never deleted or rewritten: diagnosis stays possible.
    assert path.read_bytes() == garbage


def test_sqlite_truncated_database_degrades(tmp_path):
    path = tmp_path / "fleet.db"
    seeded = SQLiteSolveCache(path)
    seeded.put("sc1:abc", {"sat": True, "decisions": 0, "witness": []})
    seeded.close()
    path.write_bytes(path.read_bytes()[:100])  # truncate mid-header
    with pytest.warns(RuntimeWarning, match="is unusable"):
        cache = SQLiteSolveCache(path)
        assert cache.get("sc1:abc") is None


def test_sqlite_bad_row_is_one_miss(tmp_path):
    import sqlite3

    path = tmp_path / "fleet.db"
    cache = SQLiteSolveCache(path)
    cache.put("sc1:good", {"sat": True, "decisions": 0, "witness": []})
    conn = sqlite3.connect(str(path))
    conn.execute(
        "INSERT INTO entries (key, value) VALUES (?, ?)",
        ("sc1:bad", "{not json"),
    )
    conn.commit()
    conn.close()
    assert cache.get("sc1:bad") is None  # degrades, backend stays open
    assert cache.get("sc1:good") is not None
    cache.close()


# ----------------------------------------------------------------------
# End-to-end: the cache only ever short-circuits solves


def _demo_corpus():
    extractor = RuleExtractor()
    rulesets, hints, values = [], {}, {}
    for app in demo_apps():
        rulesets.append(extractor.extract(app.source, app.name))
        hints[app.name] = app.type_hints
        values[app.name] = app.values
    return rulesets, hints, values


def _audit_threats(rulesets, hints, values, shared_cache):
    pipeline = DetectionPipeline(
        TypeBasedResolver(type_hints=hints, values=values),
        shared_cache=shared_cache,
    )
    reports = pipeline.audit_store(rulesets)
    threats = [
        (r.app_name, t.type.value, t.rule_a.rule_id, t.rule_b.rule_id,
         t.detail, t.witness)
        for r in reports
        for t in r.threats
    ]
    return threats, pipeline.stats


def test_warmed_cache_short_circuits_second_tenant():
    rulesets, hints, values = _demo_corpus()
    reference, _ = _audit_threats(rulesets, hints, values, None)
    assert reference, "corpus produced no threats to compare"

    shared = InProcessLRUCache()
    first, first_stats = _audit_threats(rulesets, hints, values, shared)
    second, second_stats = _audit_threats(rulesets, hints, values, shared)
    # Identical threats with or without the cache, cold or warm.
    assert first == reference
    assert second == reference
    # The second tenant's structurally identical corpus never solves.
    assert second_stats.solver_calls == 0
    assert second_stats.shared_cache_hits > 0
    assert second_stats.shared_cache_publishes == 0
    # Hit/solve trade is exact: everything else is untouched, so the
    # verdict count is conserved across the arms.
    assert (
        second_stats.solver_calls + second_stats.shared_cache_hits
        == first_stats.solver_calls + first_stats.shared_cache_hits
    )
    assert second_stats.pairs_examined == first_stats.pairs_examined
    assert second_stats.cache_hits == first_stats.cache_hits


def test_corrupt_cache_leaves_results_unaffected(tmp_path):
    rulesets, hints, values = _demo_corpus()
    reference, reference_stats = _audit_threats(rulesets, hints, values, None)

    path = tmp_path / "fleet.db"
    path.write_bytes(b"\xde\xad\xbe\xef" * 256)
    with pytest.warns(RuntimeWarning, match="degrading to re-solving"):
        broken = SQLiteSolveCache(path)
    threats, stats = _audit_threats(rulesets, hints, values, broken)
    assert threats == reference
    # Every get missed and every put was refused: plain re-solving.
    assert stats.solver_calls == reference_stats.solver_calls
    assert stats.shared_cache_hits == 0
    assert stats.shared_cache_publishes == 0
