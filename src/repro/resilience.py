"""Shared resilience primitives: circuit breakers, retry policies and
the breaker-guarded SQLite connection.

This module is a leaf — it imports only the standard library and the
fault-injection hook — so every layer of the stack (constraint cache,
storage backends, transport clients) can share one vocabulary for
"stop hammering a sick dependency" and "retry with bounded,
deterministic backoff".

``CircuitBreaker`` implements the classic closed -> open -> half-open
state machine on a monotonic clock:

* **closed** — calls flow; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the
  breaker opens and ``allow()`` returns ``False`` until
  ``cooldown_seconds`` have elapsed.
* **half-open** — after the cooldown one probe call is allowed through;
  success closes the breaker, failure re-opens it (and restarts the
  cooldown).

The clock is injectable so tests can drive transitions without
sleeping.  All methods are thread-safe.

``RetryPolicy`` is a frozen value object describing bounded exponential
backoff with *deterministic* seeded jitter: the same
``(seed, attempt)`` pair always yields the same delay, so retry timing
never introduces nondeterminism into otherwise reproducible runs.

``GuardedSQLite`` is the one place that decides how a SQLite failure
degrades, for both the shared solve cache and the SQLite store backend
(DESIGN.md §15.3): a transient ``sqlite3.OperationalError`` is a
breaker strike, any other ``sqlite3.Error`` disables the connection
for good with a ``RuntimeWarning``, and either way the statement
returns ``None`` instead of raising.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.testing.faults import fault_hook

__all__ = ["CircuitBreaker", "GuardedSQLite", "RetryPolicy"]


class CircuitBreaker:
    """Thread-safe closed/open/half-open circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (while closed) before the breaker opens.
    cooldown_seconds:
        How long the breaker stays open before allowing a probe call.
    clock:
        Monotonic time source; injectable for tests.
    name:
        Optional label used in ``repr`` and surfaced in status records.
    """

    __slots__ = (
        "name",
        "failure_threshold",
        "cooldown_seconds",
        "_clock",
        "_lock",
        "_state",
        "_failures",
        "_opened_at",
        "times_opened",
    )

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 5.0,
        *,
        clock=time.monotonic,
        name: str = "",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        #: Lifetime count of closed->open transitions (including
        #: half-open probes that failed and re-opened the breaker).
        self.times_opened = 0

    # -- state ---------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state ("closed", "open" or "half-open").

        Reading the state performs the open -> half-open transition if
        the cooldown has elapsed, so callers always see the state an
        ``allow()`` call would act on.
        """
        with self._lock:
            self._tick()
            return self._state

    def _tick(self) -> None:
        # Caller holds the lock.
        if self._state == "open":
            if self._clock() - self._opened_at >= self.cooldown_seconds:
                self._state = "half-open"

    # -- protocol ------------------------------------------------------

    def allow(self) -> bool:
        """Return True when a call may proceed.

        While open, returns False until the cooldown elapses; the first
        call after the cooldown is the half-open probe and is allowed.
        """
        with self._lock:
            self._tick()
            return self._state != "open"

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self._tick()
            if self._state == "half-open":
                self._open()
                return
            self._failures += 1
            if self._state == "closed" and self._failures >= self.failure_threshold:
                self._open()

    def _open(self) -> None:
        # Caller holds the lock.
        self._state = "open"
        self._failures = 0
        self._opened_at = self._clock()
        self.times_opened += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = f" {self.name!r}" if self.name else ""
        return f"<CircuitBreaker{label} state={self.state}>"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    ``attempts`` counts *total* tries including the first one, so
    ``attempts=3`` means "one call plus up to two retries".  The delay
    before retry ``i`` (1-based) is::

        min(max_delay, base_delay * factor ** (i - 1)) * jitter_scale

    where ``jitter_scale`` is drawn deterministically from
    ``sha256(seed, i)`` in ``[1 - jitter, 1 + jitter]``.  Identical
    ``(seed, attempt)`` pairs always produce identical delays.
    """

    attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_delay, self.base_delay * self.factor ** (attempt - 1))
        if not self.jitter:
            return raw
        digest = hashlib.sha256(f"{self.seed}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * fraction)

    def delays(self):
        """All backoff delays, in order (``attempts - 1`` of them)."""
        return [self.delay(i) for i in range(1, self.attempts)]

    def run(self, fn, *, retryable=(Exception,), sleep=time.sleep):
        """Call ``fn`` with retries; re-raise the last retryable error."""
        for attempt in range(1, self.attempts + 1):
            try:
                return fn()
            except retryable:
                if attempt >= self.attempts:
                    raise
                sleep(self.delay(attempt))
        raise AssertionError("unreachable")  # pragma: no cover


class GuardedSQLite:
    """One WAL-mode SQLite connection whose failures degrade instead of
    raising.

    ``schema`` is the DDL run after the PRAGMAs; ``what`` names the
    database in warnings ("shared solve cache") and ``fallback`` says
    what a permanent disable means for its user ("degrading to
    re-solving ..."); a breaker that opens is transient and its
    warning says so instead.
    Every statement runs inside one lock (the connection is shared
    across threads) and returns ``None`` when degraded: permanently
    disabled, breaker open, or a failure of this very statement —
    which is never retried here; the layers above re-drive writes
    through their own commit paths.  The file is never deleted, so
    diagnosis stays possible and a concurrent healthy process is never
    sabotaged.
    """

    def __init__(
        self,
        path: str | Path,
        schema: tuple[str, ...],
        *,
        synchronous: str,
        what: str,
        fallback: str,
        breaker: CircuitBreaker,
        busy_timeout_ms: int = 5000,
    ) -> None:
        self.path = Path(path)
        self.breaker = breaker
        self._what = what
        self._fallback = fallback
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
            conn.execute(f"PRAGMA synchronous={synchronous}")
            for statement in schema:
                conn.execute(statement)
        except sqlite3.Error as exc:
            self._disable(exc)

    def _disable(self, exc: Exception) -> None:
        warnings.warn(
            f"{self._what} {self.path} is unusable ({exc}); "
            f"{self._fallback}",
            RuntimeWarning,
            stacklevel=4,
        )
        self._release()

    def _strike(self, exc: Exception) -> None:
        """One transient failure: a breaker strike, not a disable."""
        before = self.breaker.times_opened
        self.breaker.record_failure()
        if self.breaker.times_opened > before:
            warnings.warn(
                f"{self._what} {self.path} hit repeated transient errors "
                f"({exc}); circuit breaker open for "
                f"{self.breaker.cooldown_seconds:.1f}s — degraded until "
                "the breaker closes",
                RuntimeWarning,
                stacklevel=5,
            )

    def _release(self) -> None:
        # Caller holds the lock (or is the constructor).
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass  # the handle is dropped below either way
        self._conn = None

    @property
    def breaker_state(self) -> str:
        """"disabled" (permanent), else the breaker's current state."""
        if self._conn is None:
            return "disabled"
        return self.breaker.state

    def _run(self, fetch, sql, params, fault_point, info):
        with self._lock:
            if self._conn is None or not self.breaker.allow():
                return None
            try:
                if fault_point:
                    fault_hook(fault_point, **info)
                result = fetch(self._conn.execute(sql, params))
            except sqlite3.OperationalError as exc:
                self._strike(exc)
                return None
            except sqlite3.Error as exc:
                self._disable(exc)
                return None
            self.breaker.record_success()
            return result

    def query(
        self, sql: str, params: tuple = (), fault_point: str = "", **info
    ) -> list | None:
        """Every row of one statement, fetched inside the guard."""
        return self._run(
            sqlite3.Cursor.fetchall, sql, params, fault_point, info
        )

    def execute(
        self, sql: str, params: tuple = (), fault_point: str = "", **info
    ) -> int | None:
        """The row count of one statement."""
        return self._run(
            lambda cursor: cursor.rowcount, sql, params, fault_point, info
        )

    def checkpoint(self) -> None:
        self.execute("PRAGMA wal_checkpoint(PASSIVE)")

    def close(self) -> None:
        with self._lock:
            self._release()
