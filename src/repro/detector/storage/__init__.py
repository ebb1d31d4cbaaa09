"""Pluggable storage engine for the detection store (DESIGN.md §14).

:class:`StoreBackend` is the durable document/journal protocol the
:class:`~repro.detector.store.DetectionStore` persists through;
:class:`DirectoryBackend` keeps the historical directory-of-JSON
layout (with fsync durability), :class:`SQLiteStoreBackend` packs a
whole fleet's stores into one shareable WAL-mode database file.
:func:`make_store_backend` resolves the user-facing ``backend=``
setting (``None``/``"dir"``, ``"sqlite"``, ``"sqlite:<path>"`` or a
backend instance) against a store path.
"""

from __future__ import annotations

from pathlib import Path

from repro.detector.storage.backend import (
    DirectoryBackend,
    StoreBackend,
    StoreWriteError,
)
from repro.detector.storage.sqlite import SQLiteStoreBackend

#: Database filename used when a SQLite backend is rooted inside a
#: store directory (``backend="sqlite"`` without an explicit file).
SQLITE_STORE_FILE = "store.sqlite"


def make_store_backend(
    spec: "str | StoreBackend | None", path: "str | Path"
) -> StoreBackend:
    """Resolve a ``backend=`` setting into a live backend for ``path``.

    * ``None`` / ``"dir"`` — :class:`DirectoryBackend` on the store
      directory (the historical layout, the default).
    * ``"sqlite"`` — :class:`SQLiteStoreBackend` on
      ``<path>/store.sqlite``.
    * ``"sqlite:<file>"`` — :class:`SQLiteStoreBackend` on that file
      (shareable across stores via namespaces).
    * a :class:`StoreBackend` instance — used as-is.
    """
    if isinstance(spec, StoreBackend):
        return spec
    if spec is None:
        return DirectoryBackend(path)
    if not isinstance(spec, str):
        raise ValueError(
            f"invalid store backend spec {spec!r}; valid specs: None or "
            "'dir' (directory of JSON files), 'sqlite', 'sqlite:<path>', "
            "or a StoreBackend instance"
        )
    name, _, arg = spec.strip().partition(":")
    if name.lower() == "dir" and not arg:
        return DirectoryBackend(path)
    if name.lower() == "sqlite":
        return SQLiteStoreBackend(
            Path(arg) if arg else Path(path) / SQLITE_STORE_FILE
        )
    raise ValueError(
        f"invalid store backend spec {spec!r}; valid specs: None or "
        "'dir', 'sqlite', 'sqlite:<path>', or a StoreBackend instance"
    )


__all__ = [
    "DirectoryBackend",
    "SQLITE_STORE_FILE",
    "SQLiteStoreBackend",
    "StoreBackend",
    "StoreWriteError",
    "make_store_backend",
]
