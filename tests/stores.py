"""The full-save oracle for the delta-journal store.

``FullSaveStore`` commits every decision and every frontend change by
rewriting the whole snapshot with :meth:`DetectionStore.save` — no
journal, O(store) per commit.  Journal replay must observe exactly
this store's state after every commit, so the delta-equivalence tests
and the store-engine benchmark compare the production path against
it.  ``full_save_homes()`` makes every ``TenantHome`` built inside the
``with`` block (and so every home of a ``HomeGuardService``) persist
through it.
"""

import time
from unittest import mock

import repro.service.home
from repro.detector.store import DetectionStore, StoreCommit


class FullSaveStore(DetectionStore):
    """A :class:`DetectionStore` whose commits are full saves."""

    def _full_save(self, pipeline, rulesets, frontend) -> StoreCommit:
        start = time.perf_counter()
        written = self.save(pipeline, rulesets=rulesets, frontend=frontend)
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


def full_save_homes():
    """Context manager: tenant homes created inside it store through
    :class:`FullSaveStore`."""
    return mock.patch.object(
        repro.service.home, "DetectionStore", FullSaveStore
    )
