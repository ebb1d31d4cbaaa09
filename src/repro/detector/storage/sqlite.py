"""WAL-mode SQLite key-value backend for the detection store.

One database file holds every document and journal record of one store
— or, namespaced, of a whole fleet's store root: multiple fleet
controllers can open the same file concurrently (WAL journaling plus a
busy timeout), and a :class:`~repro.service.service.HomeGuardService`
gives every tenant home a :meth:`SQLiteStoreBackend.namespace` view
over a single shared connection, so a million-home fleet costs one
file descriptor instead of one per home.

Every statement runs through :class:`~repro.resilience.GuardedSQLite`,
the same guard the shared solve cache uses (DESIGN.md §15.3), so
failures degrade exactly alike.  A corrupt or unreadable database —
at open or on any later read — disables the connection with one
:class:`RuntimeWarning`.  A transient SQLite ``OperationalError``
(most commonly ``database is locked`` while another controller holds a
long write transaction) is a strike on the ``"store"`` circuit
breaker instead: repeated failures open the breaker, and once the
cooldown passes a probe statement restores service with no data loss
for everything written after that point.  Either way a statement the
guard refused is never a partial answer: a document or journal read
raises :class:`~repro.detector.storage.backend.StoreReadError`, so
the store loads cold (apps re-sign and re-solve, stale results are
never served) instead of replaying a base without its journal, and a
write reports zero bytes.

Durability: ``synchronous=FULL`` — the store is a system of record
(acknowledged keep/delete decisions), unlike the solve cache where
NORMAL suffices because a lost entry only costs a re-solve.
"""

from __future__ import annotations

import os
import threading
import weakref
from pathlib import Path

from repro.detector.storage.backend import StoreBackend, StoreReadError
from repro.resilience import CircuitBreaker, GuardedSQLite

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS docs ("
    "key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS journal ("
    "key TEXT NOT NULL, seq INTEGER NOT NULL, "
    "line TEXT NOT NULL, PRIMARY KEY (key, seq))",
)

# Documents/journals per database file are shared across every
# namespace view, so one process opens one connection per file no
# matter how many tenant stores it hydrates.  Weak values: when the
# last backend view dies, the connection is released with it.
_DOC_FILES: "weakref.WeakValueDictionary[str, GuardedSQLite]" = (
    weakref.WeakValueDictionary()
)
_DOC_FILES_LOCK = threading.Lock()


def _shared_doc_file(
    path: Path,
    busy_timeout_ms: int = 5000,
    breaker: CircuitBreaker | None = None,
) -> GuardedSQLite:
    key = os.path.abspath(str(path))
    with _DOC_FILES_LOCK:
        doc_file = _DOC_FILES.get(key)
        if doc_file is None:
            doc_file = _DOC_FILES[key] = GuardedSQLite(
                path,
                _SCHEMA,
                synchronous="FULL",
                what="detection store database",
                fallback="degrading to a cold store (apps re-sign and "
                "re-solve, results are unaffected)",
                breaker=breaker or CircuitBreaker(name="store"),
                busy_timeout_ms=busy_timeout_ms,
            )
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
        rows = self._file.query(
            "SELECT value FROM docs WHERE key = ?", (self._key(key),)
        )
        if rows is None:
            raise StoreReadError(f"store document {key!r} was not read")
        return rows[0][0] if rows else None

    def write_doc(self, key: str, text: str) -> int:
        count = self._file.execute(
            "INSERT OR REPLACE INTO docs (key, value) VALUES (?, ?)",
            (self._key(key), text),
        )
        return 0 if count is None else len(text.encode("utf-8"))

    def has_doc(self, key: str) -> bool:
        return bool(
            self._file.query(
                "SELECT 1 FROM docs WHERE key = ?", (self._key(key),)
            )
        )

    def list_docs(self, prefix: str) -> list[str]:
        low = self._key(prefix)
        high = low + "\U0010ffff"
        rows = self._file.query(
            "SELECT key FROM docs WHERE key >= ? AND key <= ? ORDER BY key",
            (low, high),
        )
        cut = len(self._prefix)
        return [row[0][cut:] for row in rows or ()]

    def append_journal(self, key: str, line: str) -> int:
        # Single-statement append: the MAX(seq)+1 subselect and the
        # insert run atomically, so concurrent appenders (two fleet
        # controllers sharing a file) cannot collide on a sequence.
        count = self._file.execute(
            "INSERT INTO journal (key, seq, line) VALUES (?, "
            "COALESCE((SELECT MAX(seq) + 1 FROM journal WHERE key = ?), 0), "
            "?)",
            (self._key(key), self._key(key), line),
            fault_point="store.append",
        )
        return 0 if count is None else len(line.encode("utf-8")) + 1

    def read_journal(self, key: str) -> list[str]:
        rows = self._file.query(
            "SELECT line FROM journal WHERE key = ? ORDER BY seq",
            (self._key(key),),
        )
        if rows is None:
            raise StoreReadError(f"store journal {key!r} was not read")
        return [row[0] for row in rows]

    def delete(self, key: str) -> None:
        self._file.execute(
            "DELETE FROM docs WHERE key = ?", (self._key(key),)
        )
        self._file.execute(
            "DELETE FROM journal WHERE key = ?", (self._key(key),)
        )

    def flush(self) -> None:
        self._file.checkpoint()

    def close(self) -> None:
        # Deliberately only a checkpoint: the underlying connection is
        # shared with sibling namespace views (and memoized per file),
        # so closing it here would sabotage them.  It is released when
        # the last view is garbage-collected.
        self._file.checkpoint()

    def __repr__(self) -> str:
        return (
            f"SQLiteStoreBackend({str(self.path)!r}, "
            f"namespace={self.namespace_name!r})"
        )
