"""Pluggable storage backends for the detection store (DESIGN.md §14).

A :class:`StoreBackend` is a small durable document store: named JSON
*documents* (the store's ``meta.json`` and shard files) plus an
append-only *journal* of newline-delimited records (the per-commit
delta log).  :class:`~repro.detector.store.DetectionStore` speaks only
this protocol, so the on-disk representation is swappable:

* :class:`DirectoryBackend` — the historical directory-of-JSON layout
  (one file per document, ``journal.jsonl`` for the delta log), now
  with full fsync durability: an acknowledged write survives a crash.
* :class:`~repro.detector.storage.sqlite.SQLiteStoreBackend` — a
  WAL-mode SQLite key-value file that multiple fleet controllers can
  share, with per-home key namespaces so one database serves a whole
  store root.

Durability/consistency contract every backend must honour:

* ``write_doc`` is atomic (readers see the old or the new document,
  never a torn one) and durable before it returns;
* ``append_journal`` appends one record durably; a crash may truncate
  the *tail* of the journal but never corrupt acknowledged records;
* ``read_journal`` returns a **consistent prefix**: only complete
  records, in append order — a torn tail is silently dropped;
* read failures degrade (``None`` / empty), they never raise on the
  detection path — mirroring the corrupt-store behavior of
  :mod:`repro.constraints.solvecache`.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.testing.faults import fault_hook


class StoreWriteError(OSError):
    """A backend acknowledged a document write or journal append with
    zero bytes — degraded, so nothing became durable.  The store raises
    it instead of counting the write as landed, which leaves the
    change queued for the next commit."""


class StoreBackend:
    """Protocol base class for detection-store storage backends."""

    def read_doc(self, key: str) -> str | None:
        """The document's text, or ``None`` when absent/unreadable."""
        raise NotImplementedError

    def write_doc(self, key: str, text: str) -> int:
        """Atomically, durably replace a document; returns the bytes
        written (0 when the backend is degraded and dropped the
        write)."""
        raise NotImplementedError

    def has_doc(self, key: str) -> bool:
        raise NotImplementedError

    def list_docs(self, prefix: str) -> list[str]:
        """Sorted document names starting with ``prefix``."""
        raise NotImplementedError

    def append_journal(self, key: str, line: str) -> int:
        """Durably append one record line to the named journal;
        returns the bytes appended (0 when degraded)."""
        raise NotImplementedError

    def read_journal(self, key: str) -> list[str]:
        """The journal's complete record lines, in append order (a
        torn/truncated tail is dropped; missing journal = empty)."""
        raise NotImplementedError

    def delete(self, key: str) -> None:
        """Remove a document or journal (missing = no-op)."""
        raise NotImplementedError

    def sweep(self) -> None:
        """Janitor hook: drop leftover temporaries from crashed writes
        (no-op for backends without temporaries)."""

    def flush(self) -> None:
        """Persist buffered state (no-op for unbuffered backends)."""

    def close(self) -> None:
        """Release storage handles; further reads degrade to misses."""


class DirectoryBackend(StoreBackend):
    """The directory-of-JSON layout: one file per document under the
    store path, ``journal.jsonl``-style files for journals.

    Document writes go through a temp file + ``os.replace`` with the
    file *and* the directory fsynced, so the rename — the commit point
    — is durable: a crash right after an acknowledged commit cannot
    roll the store back to the previous snapshot (the durability gap
    the pre-§14 ``_write_atomic`` had).  Filesystems that refuse
    directory fsyncs (some network mounts) degrade gracefully: the
    write is still atomic, just not crash-durable past the rename."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        # Journals whose tail this instance has checked for a torn
        # record (see _drop_torn_tail).
        self._tails_checked: set[str] = set()

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass  # directory fsync refused: the rename is still atomic
        finally:
            os.close(fd)

    def read_doc(self, key: str) -> str | None:
        try:
            return (self.path / key).read_text(encoding="utf-8")
        except OSError:
            return None

    def write_doc(self, key: str, text: str) -> int:
        self.path.mkdir(parents=True, exist_ok=True)
        data = text.encode("utf-8")
        tmp = self.path / f"{key}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path / key)
        self._fsync_dir()
        return len(data)

    def has_doc(self, key: str) -> bool:
        return (self.path / key).is_file()

    def list_docs(self, prefix: str) -> list[str]:
        try:
            return sorted(
                entry.name
                for entry in self.path.iterdir()
                if entry.name.startswith(prefix)
                and not entry.name.endswith(".tmp")
            )
        except OSError:
            return []

    def _drop_torn_tail(self, key: str) -> None:
        """Truncate the journal back to its last newline, durably.

        A crash mid-append leaves a record without its newline; an
        append after it would share its line, and replay, which stops
        at the first line that does not parse, would hide that record
        and every later one."""
        try:
            handle = open(self.path / key, "r+b")
        except FileNotFoundError:
            return
        with handle:
            size = handle.seek(0, os.SEEK_END)
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            handle.truncate(handle.read().rfind(b"\n") + 1)
            handle.flush()
            os.fsync(handle.fileno())

    def append_journal(self, key: str, line: str) -> int:
        # Chaos-battery injection point: a planned fault here surfaces
        # as the OSError an interrupted append would raise (DESIGN.md
        # §15), matching the sqlite backend's "store.append" point.
        fault_hook("store.append")
        if key not in self._tails_checked:
            # Once per instance: a tail is torn only by a crash before
            # this instance's first append, or by a failed append of
            # its own (which clears the mark below).
            self._drop_torn_tail(key)
            self._tails_checked.add(key)
        target = self.path / key
        data = line.encode("utf-8") + b"\n"
        try:
            handle = open(target, "ab")
        except FileNotFoundError:
            self.path.mkdir(parents=True, exist_ok=True)
            handle = open(target, "ab")
        try:
            with handle:
                fresh = handle.tell() == 0
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
        except BaseException:
            self._tails_checked.discard(key)
            raise
        if fresh:
            # The journal file's directory entry must be durable too,
            # or a crash could lose the whole (acknowledged) journal.
            self._fsync_dir()
        return len(data)

    def read_journal(self, key: str) -> list[str]:
        try:
            data = (self.path / key).read_bytes()
        except OSError:
            return []
        lines: list[str] = []
        # Only newline-terminated records count: a crash mid-append
        # leaves a torn tail, which is exactly the part we drop.
        for raw in data.split(b"\n")[:-1]:
            try:
                lines.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                break  # consistent prefix: stop at the first torn record
        return lines

    def delete(self, key: str) -> None:
        try:
            (self.path / key).unlink(missing_ok=True)
        except OSError:
            pass  # an unreferenced leftover: the next base write retries

    def sweep(self) -> None:
        try:
            stale = list(self.path.glob("*.tmp"))
        except OSError:
            return
        for path in stale:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # list_docs ignores it; the next sweep retries

    def __repr__(self) -> str:
        return f"DirectoryBackend({str(self.path)!r})"
