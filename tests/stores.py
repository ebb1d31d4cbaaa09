"""The full-save oracle for the delta-journal store.

``FullSaveStore`` commits every decision and every frontend change by
rewriting the whole snapshot with :meth:`DetectionStore.save` — no
journal, O(store) per commit, and the frontend blob built whole
(``FrontendDelta.blob``) instead of journaled as ops.  Journal replay
must observe exactly this store's state after every commit, so the
delta-equivalence tests and the store-engine benchmark compare the
production path against it.  ``full_save_homes()`` makes every ``TenantHome`` built inside the
``with`` block (and so every home of a ``HomeGuardService``) persist
through it.
"""

import time
from unittest import mock

import repro.service.home
from repro.detector.store import DetectionStore, FrontendDelta, StoreCommit


class FullSaveStore(DetectionStore):
    """A :class:`DetectionStore` whose commits are full saves."""

    def _full_save(self, pipeline, rulesets, frontend) -> StoreCommit:
        start = time.perf_counter()
        written = self._save_commit(pipeline, rulesets, frontend)
        return StoreCommit(written, time.perf_counter() - start, full=True)

    def commit_app(
        self, pipeline, app_name, *, rulesets=None, frontend=None,
        remove=False,
    ) -> StoreCommit:
        return self._full_save(pipeline, rulesets, frontend)

    def commit_frontend(
        self, pipeline, frontend, *, rulesets=None
    ) -> StoreCommit:
        return self._full_save(pipeline, rulesets, frontend)


class FrontendMarker:
    """A minimal frontend for driving a bare :class:`DetectionStore`:
    each commit puts (or drops) one key of the blob's ``device_types``
    section.  The whole blob is kept by hand, so a full save writes
    what the journaled op should replay to."""

    def __init__(self) -> None:
        self.marks: dict[str, str] = {}

    def _delta(self, op: list) -> FrontendDelta:
        blob = {"device_types": dict(self.marks)}
        return FrontendDelta([op], lambda: blob, lambda: None)

    def put(self, key: str, value: str = "installed") -> FrontendDelta:
        self.marks[key] = value
        return self._delta(["put", "device_types", key, value])

    def drop(self, key: str) -> FrontendDelta:
        del self.marks[key]
        return self._delta(["drop", "device_types", key])


def recording_homes(receipts: list):
    """Context manager: tenant homes created inside it store through a
    :class:`DetectionStore` that appends every commit's
    :class:`StoreCommit` to ``receipts``."""

    class RecordingStore(DetectionStore):
        def commit_app(self, *args, **kwargs) -> StoreCommit:
            receipts.append(super().commit_app(*args, **kwargs))
            return receipts[-1]

        def commit_frontend(self, *args, **kwargs) -> StoreCommit:
            receipts.append(super().commit_frontend(*args, **kwargs))
            return receipts[-1]

    return mock.patch.object(
        repro.service.home, "DetectionStore", RecordingStore
    )


def full_save_homes():
    """Context manager: tenant homes created inside it store through
    :class:`FullSaveStore`."""
    return mock.patch.object(
        repro.service.home, "DetectionStore", FullSaveStore
    )
