"""Shared cross-tenant solve cache (DESIGN.md §12).

Since the service redesign each :class:`~repro.service.home.TenantHome`
keeps private solve caches keyed by *home-local rule ids*, so a fleet
controller re-solves the same merged trigger/condition formula once per
tenant.  This module makes a solve reusable across homes by keying it
on the *content* of the constraint instance instead:

* :func:`shared_key` canonicalizes a ``(pool, formula)`` instance —
  variable names are replaced by positional placeholders (``v0``,
  ``v1``, … in pool declaration order, free atoms ``f0``, ``f1``, … in
  formula preorder) — and derives a SHA-256 key from the canonical
  serialization.  Two tenants whose rules lower to structurally
  identical constraints (same bounds, candidate sets, comparison
  structure) share one key no matter what their device ids are.
* :func:`encode_entry` / :func:`decode_entry` store a solver
  :class:`~repro.constraints.solver.Result` under canonical variable
  names and translate it back through the instance's own name maps.
  The solver's search is rename-equivariant (branching follows formula
  structure, witness construction iterates declaration order), so the
  decoded result is byte-identical to what solving locally would have
  produced — the cache can only ever short-circuit a solve, never
  change its outcome.
* :class:`SolveCacheBackend` is the pluggable storage protocol, with an
  in-process :class:`InProcessLRUCache` and a concurrency-safe
  :class:`SQLiteSolveCache` (WAL mode; multiple fleet-controller
  processes can share one cache file).  A corrupted SQLite file
  *degrades* — a warning plus cache misses — and is never served
  stale or deleted; the degrade rules live in
  :class:`~repro.resilience.GuardedSQLite`, shared with the SQLite
  store backend.

Privacy stance: entries are keyed by fingerprints and store only the
verdict (sat bit, decision count, canonical witness values).  No rule
source, app name, device id or home id ever enters the cache, so a
shared cache file leaks nothing about any tenant's configuration.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from pathlib import Path

from repro.constraints.solver import Result, VarPool
from repro.constraints.terms import AffineTerm, BoolFormula, CmpAtom, FreeAtom
from repro.resilience import CircuitBreaker, GuardedSQLite

# Bump when the canonical serialization or entry format changes: old
# keys simply stop matching, so stale-format entries are never decoded.
_KEY_VERSION = "sc1"


# ----------------------------------------------------------------------
# Content-addressed keys


def _canon_term(term, var_map: dict[str, str], counter: list[int]) -> str:
    """Serialize one term under canonical variable names, assigning a
    placeholder to any variable the pool did not declare (defensive —
    the builder declares everything it references)."""
    var = term.var
    if var is not None:
        canon = var_map.get(var)
        if canon is None:
            canon = var_map[var] = f"v{counter[0]}"
            counter[0] += 1
    else:
        canon = ""
    if isinstance(term, AffineTerm):
        return f"a({canon},{term.mul!r},{term.add!r})"
    return f"t({canon},{term.value!r})"


def _canon_formula(
    formula: BoolFormula,
    var_map: dict[str, str],
    free_map: dict[str, str],
    counter: list[int],
) -> str:
    if formula.kind == "const":
        return "C1" if formula.value else "C0"
    if formula.kind == "lit":
        atom = formula.atom
        sign = "L1" if formula.positive else "L0"
        if isinstance(atom, CmpAtom):
            left = _canon_term(atom.left, var_map, counter)
            right = _canon_term(atom.right, var_map, counter)
            return f"{sign}[{left}{atom.op}{right}]"
        assert isinstance(atom, FreeAtom)
        canon = free_map.get(atom.key)
        if canon is None:
            canon = free_map[atom.key] = f"f{len(free_map)}"
        return f"{sign}[F({canon})]"
    parts = ",".join(
        _canon_formula(child, var_map, free_map, counter)
        for child in formula.children
    )
    joiner = "&" if formula.kind == "and" else "|"
    return f"{joiner}({parts})"


def shared_key(
    pool: VarPool, formula: BoolFormula
) -> tuple[str, dict[str, str], dict[str, str]]:
    """Content-addressed key for one constraint instance.

    Returns ``(key, var_map, free_map)`` where the maps take original
    variable / free-atom names to their canonical placeholders (used to
    translate witnesses in :func:`encode_entry` /
    :func:`decode_entry`).  Canonical names are positional: comparison
    variables in pool declaration order (numeric bounds first, then
    string candidate sets — both insertion-ordered dicts, a
    deterministic function of the formula's structure), free atoms in
    formula preorder.  The solve *kind* (situation/condition/effect) is
    deliberately not part of the key: the verdict depends only on the
    instance, so structurally equal instances hit across kinds too."""
    var_map: dict[str, str] = {}
    free_map: dict[str, str] = {}
    counter = [0]
    lines = [_KEY_VERSION]
    for var, (low, high) in pool.num_bounds.items():
        canon = var_map.get(var)
        if canon is None:
            canon = var_map[var] = f"v{counter[0]}"
            counter[0] += 1
        lines.append(f"n|{canon}|{low!r}|{high!r}")
    for var, candidates in pool.str_candidates.items():
        canon = var_map.get(var)
        if canon is None:
            canon = var_map[var] = f"v{counter[0]}"
            counter[0] += 1
        if candidates is None:
            lines.append(f"s|{canon}|*")
        else:
            lines.append(f"s|{canon}|{sorted(candidates)!r}")
    lines.append(_canon_formula(formula, var_map, free_map, counter))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return f"{_KEY_VERSION}:{digest}", var_map, free_map


# ----------------------------------------------------------------------
# Entry encode/decode (canonical-name witnesses)


def encode_entry(
    result: Result, var_map: dict[str, str], free_map: dict[str, str]
) -> dict | None:
    """A :class:`Result` as a JSON-safe cache entry under canonical
    names, or ``None`` when a witness key is untranslatable (never
    happens for solver-produced results; guarded so a surprise can only
    cost a publish, not corrupt the cache)."""
    witness: list[list] = []
    for key, value in result.witness.items():
        if key.startswith("?"):
            canon = free_map.get(key[1:])
            if canon is None:
                return None
            witness.append([f"?{canon}", value])
        else:
            canon = var_map.get(key)
            if canon is None:
                return None
            witness.append([canon, value])
    return {
        "sat": result.sat,
        "decisions": result.decisions,
        "witness": witness,
    }


def decode_entry(
    entry: object, var_map: dict[str, str], free_map: dict[str, str]
) -> Result | None:
    """Rebuild a :class:`Result` from a cache entry, translating the
    canonical witness names back through this instance's maps.  Any
    structural surprise — wrong shape, a canonical name this instance
    does not declare — returns ``None`` (a cache miss: the caller
    re-solves, which is always safe)."""
    if not isinstance(entry, dict):
        return None
    sat = entry.get("sat")
    witness_items = entry.get("witness")
    if not isinstance(sat, bool) or not isinstance(witness_items, list):
        return None
    inverse_vars = {canon: orig for orig, canon in var_map.items()}
    inverse_free = {canon: orig for orig, canon in free_map.items()}
    witness: dict[str, object] = {}
    for item in witness_items:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            return None
        canon, value = item
        if not isinstance(canon, str):
            return None
        if canon.startswith("?"):
            orig = inverse_free.get(canon[1:])
            if orig is None:
                return None
            witness[f"?{orig}"] = value
        else:
            orig = inverse_vars.get(canon)
            if orig is None:
                return None
            witness[orig] = value
    try:
        decisions = int(entry.get("decisions", 0))
    except (TypeError, ValueError):
        return None
    return Result(sat=sat, witness=witness, decisions=decisions)


# ----------------------------------------------------------------------
# Backends


class SolveCacheBackend:
    """Pluggable storage for shared solve verdicts.

    The contract every backend must honour: :meth:`get` returns exactly
    what an earlier :meth:`put` stored for the key (or ``None``),
    :meth:`put` is first-write-wins and reports whether the key was
    newly stored (so publish counters attribute each formula exactly
    once, fleet-wide), and any storage failure degrades to misses —
    never a stale entry, never an exception on the detection path."""

    def get(self, key: str) -> dict | None:
        raise NotImplementedError

    def put(self, key: str, entry: dict) -> bool:
        raise NotImplementedError

    def flush(self) -> None:
        """Persist buffered writes (no-op for unbuffered backends)."""

    def close(self) -> None:
        """Release storage handles; further gets degrade to misses."""

    def encode(self) -> object | None:
        """A picklable payload process plan-workers can reopen this
        backend from (:func:`cache_from_payload`), or ``None`` when the
        backend cannot be shared across processes — workers then simply
        skip shared-cache consults (solving is unaffected)."""
        return None


class InProcessLRUCache(SolveCacheBackend):
    """In-process LRU backend: one fleet controller process, many
    tenant homes.  Thread-safe; cannot travel to process plan-workers
    (``encode`` returns ``None``), so multi-process fleets want
    :class:`SQLiteSolveCache`."""

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> dict | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, entry: dict) -> bool:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return False
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return True

    def __repr__(self) -> str:
        return (
            f"InProcessLRUCache(entries={len(self._entries)}, "
            f"max_entries={self.max_entries})"
        )


class SQLiteSolveCache(SolveCacheBackend):
    """SQLite-backed shared cache, safe for concurrent fleet
    controllers.

    WAL journaling plus a busy timeout let multiple processes read and
    publish against one cache file without serializing on each other.
    Layout is a single ``entries(key TEXT PRIMARY KEY, value TEXT)``
    table — ``INSERT OR IGNORE`` gives first-write-wins publishes and
    an exact newly-stored signal.

    Every call is one statement through
    :class:`~repro.resilience.GuardedSQLite`, the guard the SQLite
    store backend uses too (DESIGN.md §15.3).  A corrupt or unreadable
    file disables the cache with a :class:`RuntimeWarning`: every get
    misses, every put reports not-stored, detection re-solves.  A
    transient SQLite ``OperationalError`` (a locked database, a
    momentarily unwritable disk) is one miss and a strike on the
    ``"solve-cache"`` circuit breaker; after the cooldown a probe call
    quietly restores service.  Either way a failure can only cost a
    re-solve, never change a verdict."""

    def __init__(
        self,
        path: str | Path,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.path = Path(path)
        self.breaker = breaker or CircuitBreaker(name="solve-cache")
        self._db = GuardedSQLite(
            self.path,
            (
                "CREATE TABLE IF NOT EXISTS entries ("
                "key TEXT PRIMARY KEY, value TEXT NOT NULL)",
            ),
            synchronous="NORMAL",
            what="shared solve cache",
            fallback="degrading to re-solving (results are unaffected)",
            breaker=self.breaker,
        )

    @property
    def breaker_state(self) -> str:
        """"disabled" (permanent), else the breaker's current state."""
        return self._db.breaker_state

    def __len__(self) -> int:
        rows = self._db.query("SELECT COUNT(*) FROM entries")
        return int(rows[0][0]) if rows else 0

    def get(self, key: str) -> dict | None:
        rows = self._db.query(
            "SELECT value FROM entries WHERE key = ?", (key,),
            fault_point="cache.get", key=key,
        )
        if not rows:
            return None
        try:
            entry = json.loads(rows[0][0])
        except (TypeError, ValueError):
            return None  # one bad row degrades to one miss
        return entry if isinstance(entry, dict) else None

    def put(self, key: str, entry: dict) -> bool:
        count = self._db.execute(
            "INSERT OR IGNORE INTO entries (key, value) VALUES (?, ?)",
            (key, json.dumps(entry, sort_keys=True)),
            fault_point="cache.put", key=key,
        )
        return (count or 0) > 0

    def flush(self) -> None:
        self._db.checkpoint()

    def close(self) -> None:
        self._db.close()

    def encode(self) -> object | None:
        if self.breaker_state == "disabled":
            return None
        return ("sqlite", str(self.path))

    def __repr__(self) -> str:
        state = "disabled" if self.breaker_state == "disabled" else "open"
        return f"SQLiteSolveCache({str(self.path)!r}, {state})"


# Per-process backend memo for plan workers: every chunk of a batch
# ships the same payload, so a worker opens one connection per cache
# file, not one per chunk (mirrors the resolver memo in dispatch.py).
_CACHE_MEMO: dict[tuple, SolveCacheBackend] = {}


def cache_from_payload(payload: object) -> SolveCacheBackend | None:
    """The live backend a plan worker should consult, from a
    :meth:`SolveCacheBackend.encode` payload (or a live backend object
    when the dispatcher never crossed a process boundary)."""
    if payload is None:
        return None
    if isinstance(payload, SolveCacheBackend):
        return payload
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and payload[0] == "sqlite"
    ):
        cached = _CACHE_MEMO.get(payload)
        if cached is None:
            if len(_CACHE_MEMO) >= 4:
                _CACHE_MEMO.clear()
            cached = _CACHE_MEMO[payload] = SQLiteSolveCache(payload[1])
        return cached
    return None


def make_solve_cache(
    spec: str | SolveCacheBackend | None,
) -> SolveCacheBackend | None:
    """Resolve a user-facing ``solve_cache=`` setting into a backend.

    * ``None`` — no shared cache (each home's private caches only).
    * ``"lru"`` / ``"lru:N"`` — :class:`InProcessLRUCache` (default /
      ``N`` max entries).
    * ``"sqlite:<path>"`` — :class:`SQLiteSolveCache` on that file.
    * a :class:`SolveCacheBackend` instance — used as-is.
    """
    def unknown(problem: str = "") -> ValueError:
        detail = f" ({problem})" if problem else ""
        return ValueError(
            f"invalid solve-cache spec {spec!r}{detail}; valid specs: "
            "None (no shared cache), 'lru[:N]' with N >= 1, "
            "'sqlite:<path>', or a SolveCacheBackend instance"
        )

    if spec is None:
        return None
    if isinstance(spec, SolveCacheBackend):
        return spec
    if not isinstance(spec, str):
        raise unknown(f"unsupported type {type(spec).__name__}")
    text = spec.strip()
    name, _, arg = text.partition(":")
    if name.lower() == "lru":
        if not arg:
            return InProcessLRUCache()
        try:
            max_entries = int(arg)
        except ValueError:
            raise unknown(f"max entries {arg!r} is not an int") from None
        if max_entries < 1:
            raise unknown("max entries must be >= 1")
        return InProcessLRUCache(max_entries)
    if name.lower() == "sqlite":
        if not arg:
            raise unknown("sqlite spec needs a path: 'sqlite:<path>'")
        return SQLiteSolveCache(arg)
    raise unknown(f"unknown backend name {name!r}")
