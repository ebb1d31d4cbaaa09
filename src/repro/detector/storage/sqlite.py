"""WAL-mode SQLite key-value backend for the detection store.

One database file holds every document and journal record of one store
— or, namespaced, of a whole fleet's store root: multiple fleet
controllers can open the same file concurrently (WAL journaling plus a
busy timeout, exactly like
:class:`~repro.constraints.solvecache.SQLiteSolveCache`), and a
:class:`~repro.service.service.HomeGuardService` gives every tenant
home a :meth:`SQLiteStoreBackend.namespace` view over a single shared
connection, so a million-home fleet costs one file descriptor instead
of one per home.

A corrupt or unreadable database *degrades*: a :class:`RuntimeWarning`
is issued once, every read misses (the store loads as cold — apps
re-sign and re-solve, stale results are never served), every write
reports zero bytes.  The file is never deleted, so diagnosis stays
possible and a concurrent healthy controller is never sabotaged.

*Transient* failures — ``sqlite3.OperationalError``, most commonly
``database is locked`` when another controller holds a long write
transaction — do **not** disable the connection.  They feed a
:class:`~repro.resilience.CircuitBreaker` (DESIGN.md §15): the failed
statement degrades like a corrupt store would (miss / zero bytes
written — the commit layer above reports the shortfall in
``store_bytes_written``), repeated failures open the breaker so the
fleet stops hammering a locked database, and once the cooldown passes
a probe statement restores service with no data loss for everything
written after that point.

Durability: ``synchronous=FULL`` — the store is a system of record
(acknowledged keep/delete decisions), unlike the solve cache where
NORMAL suffices because a lost entry only costs a re-solve.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import warnings
import weakref
from pathlib import Path

from repro.detector.storage.backend import StoreBackend
from repro.resilience import CircuitBreaker
from repro.testing.faults import fault_hook

# Documents/journals per database file are shared across every
# namespace view, so one process opens one connection per file no
# matter how many tenant stores it hydrates.  Weak values: when the
# last backend view dies, the connection is released with it.
_DOC_FILES: "weakref.WeakValueDictionary[str, _SQLiteDocFile]" = (
    weakref.WeakValueDictionary()
)
_DOC_FILES_LOCK = threading.Lock()


class _SQLiteDocFile:
    """One shared WAL-mode connection to one store database file."""

    def __init__(
        self,
        path: Path,
        busy_timeout_ms: int = 5000,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.path = path
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=3, cooldown_seconds=5.0, name="store"
        )
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass  # nothing was created; connect below degrades instead
        try:
            # Held on self at once, so a failure on the statements
            # below still closes it in _disable.
            conn = self._conn = sqlite3.connect(
                str(self.path),
                check_same_thread=False,
                isolation_level=None,  # autocommit: writes land immediately
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
            conn.execute("PRAGMA synchronous=FULL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS docs ("
                "key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS journal ("
                "key TEXT NOT NULL, seq INTEGER NOT NULL, "
                "line TEXT NOT NULL, PRIMARY KEY (key, seq))"
            )
        except sqlite3.Error as exc:
            self._disable(exc)

    def _disable(self, exc: Exception) -> None:
        warnings.warn(
            f"detection store database {self.path} is unusable ({exc}); "
            "degrading to a cold store (apps re-sign and re-solve, "
            "results are unaffected)",
            RuntimeWarning,
            stacklevel=4,
        )
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass  # the handle is dropped below either way
        self._conn = None

    def _transient(self, exc: Exception) -> None:
        before = self.breaker.times_opened
        self.breaker.record_failure()
        if self.breaker.times_opened > before:
            warnings.warn(
                f"detection store database {self.path} hit repeated "
                f"transient errors ({exc}); circuit breaker open for "
                f"{self.breaker.cooldown_seconds:.1f}s — writes degrade "
                "until it closes",
                RuntimeWarning,
                stacklevel=5,
            )

    @property
    def breaker_state(self) -> str:
        if self._conn is None:
            return "disabled"
        return self.breaker.state

    def execute(self, sql: str, params: tuple = (), fault_point: str = ""):
        """Run one statement under the lock; ``None`` when degraded
        (permanently disabled, breaker open, or a transient failure —
        the statement itself is never retried here, the layers above
        re-drive writes through their own commit paths)."""
        with self._lock:
            if self._conn is None or not self.breaker.allow():
                return None
            try:
                if fault_point:
                    fault_hook(fault_point)
                cursor = self._conn.execute(sql, params)
            except sqlite3.OperationalError as exc:
                self._transient(exc)
                return None
            except sqlite3.Error as exc:
                self._disable(exc)
                return None
            self.breaker.record_success()
            return cursor

    def flush(self) -> None:
        self.execute("PRAGMA wal_checkpoint(PASSIVE)")

    def close(self) -> None:
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.close()
            except sqlite3.Error:
                pass  # the handle is dropped below either way
            self._conn = None


def _shared_doc_file(
    path: Path,
    busy_timeout_ms: int = 5000,
    breaker: CircuitBreaker | None = None,
) -> _SQLiteDocFile:
    key = os.path.abspath(str(path))
    with _DOC_FILES_LOCK:
        doc_file = _DOC_FILES.get(key)
        if doc_file is None:
            doc_file = _SQLiteDocFile(path, busy_timeout_ms, breaker)
            _DOC_FILES[key] = doc_file
        return doc_file


class SQLiteStoreBackend(StoreBackend):
    """Key-value store backend over one (shareable) SQLite file.

    ``namespace`` scopes every key under ``<namespace>/`` so many
    tenant stores coexist in one database; :meth:`namespace` derives a
    sibling view sharing this view's connection.  All failure modes
    degrade (see the module docstring) — never an exception on the
    detection path."""

    def __init__(
        self,
        path: str | Path,
        namespace: str = "",
        busy_timeout_ms: int = 5000,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.path = Path(path)
        self.namespace_name = namespace
        self._prefix = f"{namespace}/" if namespace else ""
        # busy_timeout_ms / breaker only take effect for the view that
        # first opens the file; sibling views share its connection.
        self._file = _shared_doc_file(self.path, busy_timeout_ms, breaker)

    def namespace(self, name: str) -> "SQLiteStoreBackend":
        """A view over the same database scoped to ``name``'s keys."""
        return SQLiteStoreBackend(self.path, name)

    @property
    def breaker_state(self) -> str:
        """"disabled" (permanent), else the shared connection's breaker
        state — one breaker per database file, shared by all views."""
        return self._file.breaker_state

    def _key(self, key: str) -> str:
        return self._prefix + key

    def read_doc(self, key: str) -> str | None:
        cursor = self._file.execute(
            "SELECT value FROM docs WHERE key = ?", (self._key(key),)
        )
        if cursor is None:
            return None
        row = cursor.fetchone()
        return None if row is None else row[0]

    def write_doc(self, key: str, text: str) -> int:
        cursor = self._file.execute(
            "INSERT OR REPLACE INTO docs (key, value) VALUES (?, ?)",
            (self._key(key), text),
        )
        return 0 if cursor is None else len(text.encode("utf-8"))

    def has_doc(self, key: str) -> bool:
        cursor = self._file.execute(
            "SELECT 1 FROM docs WHERE key = ?", (self._key(key),)
        )
        return cursor is not None and cursor.fetchone() is not None

    def list_docs(self, prefix: str) -> list[str]:
        low = self._key(prefix)
        high = low + "\U0010ffff"
        cursor = self._file.execute(
            "SELECT key FROM docs WHERE key >= ? AND key <= ? ORDER BY key",
            (low, high),
        )
        if cursor is None:
            return []
        cut = len(self._prefix)
        return [row[0][cut:] for row in cursor.fetchall()]

    def append_journal(self, key: str, line: str) -> int:
        # Single-statement append: the MAX(seq)+1 subselect and the
        # insert run atomically, so concurrent appenders (two fleet
        # controllers sharing a file) cannot collide on a sequence.
        cursor = self._file.execute(
            "INSERT INTO journal (key, seq, line) VALUES (?, "
            "COALESCE((SELECT MAX(seq) + 1 FROM journal WHERE key = ?), 0), "
            "?)",
            (self._key(key), self._key(key), line),
            fault_point="store.append",
        )
        return 0 if cursor is None else len(line.encode("utf-8")) + 1

    def read_journal(self, key: str) -> list[str]:
        cursor = self._file.execute(
            "SELECT line FROM journal WHERE key = ? ORDER BY seq",
            (self._key(key),),
        )
        if cursor is None:
            return []
        return [row[0] for row in cursor.fetchall()]

    def delete(self, key: str) -> None:
        self._file.execute(
            "DELETE FROM docs WHERE key = ?", (self._key(key),)
        )
        self._file.execute(
            "DELETE FROM journal WHERE key = ?", (self._key(key),)
        )

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        # Deliberately only a checkpoint: the underlying connection is
        # shared with sibling namespace views (and memoized per file),
        # so closing it here would sabotage them.  It is released when
        # the last view is garbage-collected.
        self._file.flush()

    def __repr__(self) -> str:
        return (
            f"SQLiteStoreBackend({str(self.path)!r}, "
            f"namespace={self.namespace_name!r})"
        )
