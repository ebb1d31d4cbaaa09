"""Deterministic, process-safe fault injection.

The production code carries named *injection points* — plain
``fault_hook("dispatch.chunk", ...)`` calls that are a single global
read when no plan is installed.  A test (or benchmark) builds a
:class:`FaultPlan` from :class:`FaultSpec` triggers, installs it, and
the hooks start firing faults deterministically:

* ``nth`` — trigger on specific 1-based call indices of that point;
* ``every`` — trigger on every Nth call;
* ``probability`` — trigger on a deterministic hash of
  ``(seed, point, call index)``, so the same seed always yields the
  same fault pattern for the same call sequence.

Call counters are ``multiprocessing.Value`` slots: on fork-based
platforms (Linux, the only platform this repo targets) pool workers
created *after* the plan is installed inherit both the plan and the
shared counters, so one plan spans serial, thread-pool and
process-pool dispatch.  Fault events are appended as JSON lines to an
optional log file (append-mode writes, safe across processes); each
carries its wall-clock time ``t`` and its plan's ``plan`` token, so
plans sharing one log file read back only their own events.

Fault kinds
-----------
``error``
    Raise :class:`InjectedFault` (a worker-side crash on any backend).
``kill``
    ``os._exit`` the current process — only meaningful inside a pool
    worker process, where it produces a real ``BrokenProcessPool``.
``hang``
    Sleep ``delay`` seconds, then continue — simulates a wedged solve
    for the per-chunk ``solve_timeout`` deadline.
``io-error``
    Raise :class:`InjectedIOError` — the transient storage failure the
    circuit breakers are wired for: a ``sqlite3.OperationalError`` to
    the SQLite guard, an ``OSError`` to the directory backend.
``disconnect``
    Raise ``ConnectionResetError`` — a dropped transport peer.

Coordinator-side *recovery* paths run under :func:`shielded`, which
suppresses matching points: the inline re-execution of a lost chunk
models the coordinator's own process, which worker-boundary faults
cannot reach.  Without this, an ``every=1`` plan could never make
progress.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedIOError",
    "fault_hook",
    "install_plan",
    "clear_plan",
    "shielded",
    "tagged",
]

#: Injection points compiled into the production code.  Kept here as
#: documentation and so plans can validate their spec points.
KNOWN_POINTS = frozenset(
    {
        "dispatch.chunk",
        "cache.get",
        "cache.put",
        "store.append",
        "transport.write",
    }
)


class InjectedFault(RuntimeError):
    """Raised by ``error``-kind fault specs."""


class InjectedIOError(sqlite3.OperationalError, OSError):
    """Raised by ``io-error``-kind fault specs: one exception that is
    the transient failure of whichever storage backend it hits."""


@dataclass(frozen=True)
class FaultSpec:
    """One trigger rule for one injection point."""

    point: str
    kind: str = "error"
    nth: tuple[int, ...] = ()
    every: int = 0
    probability: float = 0.0
    delay: float = 0.25
    exit_code: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("error", "kill", "hang", "io-error", "disconnect"):
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; known: {sorted(KNOWN_POINTS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.every < 0 or self.delay < 0:
            raise ValueError("every and delay must be >= 0")

    def triggers(self, index: int, seed: int) -> bool:
        """Deterministically decide whether call ``index`` (1-based) fires."""
        if index in self.nth:
            return True
        if self.every and index % self.every == 0:
            return True
        if self.probability:
            digest = hashlib.sha256(f"{seed}:{self.point}:{index}".encode()).digest()
            if int.from_bytes(digest[:8], "big") / 2**64 < self.probability:
                return True
        return False


# Thread-local shielding + tagging.  Worker processes start with fresh
# (unshielded) state after fork, which is exactly what we want: only
# the coordinator's own recovery frames are shielded.
_LOCAL = threading.local()


@contextmanager
def shielded(prefix: str = ""):
    """Suppress faults for points starting with ``prefix`` in this thread."""
    stack = getattr(_LOCAL, "shields", None)
    if stack is None:
        stack = _LOCAL.shields = []
    stack.append(prefix)
    try:
        yield
    finally:
        stack.pop()


@contextmanager
def tagged(tag: str):
    """Attach ``tag`` to fault events fired from this thread."""
    stack = getattr(_LOCAL, "tags", None)
    if stack is None:
        stack = _LOCAL.tags = []
    stack.append(tag)
    try:
        yield
    finally:
        stack.pop()


def _is_shielded(point: str) -> bool:
    stack = getattr(_LOCAL, "shields", None)
    if not stack:
        return False
    return any(point.startswith(prefix) for prefix in stack)


def _current_tag() -> str | None:
    stack = getattr(_LOCAL, "tags", None)
    return stack[-1] if stack else None


class FaultPlan:
    """A seeded set of fault specs with process-shared call counters."""

    def __init__(
        self,
        specs: list[FaultSpec] | tuple[FaultSpec, ...],
        *,
        seed: int = 0,
        log_path: str | os.PathLike[str] | None = None,
    ) -> None:
        self.seed = int(seed)
        self.log_path = os.fspath(log_path) if log_path is not None else None
        self.token = os.urandom(8).hex()
        self._specs: dict[str, tuple[FaultSpec, ...]] = {}
        for spec in specs:
            self._specs[spec.point] = self._specs.get(spec.point, ()) + (spec,)
        # One shared slot per point for call counts and trigger counts.
        # fork-inherited, so pool workers increment the same memory.
        self._calls = {point: multiprocessing.Value("Q", 0) for point in self._specs}
        self._fired = {point: multiprocessing.Value("Q", 0) for point in self._specs}

    # -- introspection -------------------------------------------------

    def calls(self, point: str) -> int:
        slot = self._calls.get(point)
        return int(slot.value) if slot is not None else 0

    def fired(self, point: str) -> int:
        slot = self._fired.get(point)
        return int(slot.value) if slot is not None else 0

    def fired_total(self) -> int:
        return sum(int(slot.value) for slot in self._fired.values())

    def events(self) -> list[dict]:
        """This plan's events from the JSON-lines log (empty if no log
        is configured); other plans' events in a shared log are skipped."""
        if self.log_path is None or not os.path.exists(self.log_path):
            return []
        out = []
        with open(self.log_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    event = json.loads(line)
                    if event.get("plan") == self.token:
                        out.append(event)
        return out

    # -- firing --------------------------------------------------------

    def fire(self, point: str, **info) -> None:
        specs = self._specs.get(point)
        if not specs or _is_shielded(point):
            return
        calls = self._calls[point]
        with calls.get_lock():
            calls.value += 1
            index = int(calls.value)
        for spec in specs:
            if spec.triggers(index, self.seed):
                fired = self._fired[point]
                with fired.get_lock():
                    fired.value += 1
                self._log_event(spec, index, info)
                self._act(spec, point, index)
                return

    def _log_event(self, spec: FaultSpec, index: int, info: dict) -> None:
        if self.log_path is None:
            return
        event = {
            "point": spec.point,
            "kind": spec.kind,
            "index": index,
            "pid": os.getpid(),
            "tag": _current_tag(),
            "plan": self.token,
            "t": time.time(),
        }
        event.update(info)
        line = json.dumps(event, sort_keys=True) + "\n"
        # O_APPEND single-write keeps concurrent writers line-atomic.
        fd = os.open(self.log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def _act(self, spec: FaultSpec, point: str, index: int) -> None:
        message = f"injected {spec.kind} at {point} (call {index})"
        if spec.kind == "error":
            raise InjectedFault(message)
        if spec.kind == "io-error":
            raise InjectedIOError(message)
        if spec.kind == "disconnect":
            raise ConnectionResetError(message)
        if spec.kind == "hang":
            time.sleep(spec.delay)
            return
        if spec.kind == "kill":
            os._exit(spec.exit_code)
        raise AssertionError(spec.kind)  # pragma: no cover

    # -- installation --------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        install_plan(self)
        return self

    def __exit__(self, *exc_info) -> None:
        clear_plan()


_ACTIVE: FaultPlan | None = None


def install_plan(plan: FaultPlan) -> None:
    """Install ``plan`` globally.

    Install *before* the first use of a process-pool dispatcher so
    lazily forked workers inherit the plan and its shared counters.
    """
    global _ACTIVE
    _ACTIVE = plan


def clear_plan() -> None:
    global _ACTIVE
    _ACTIVE = None


def fault_hook(point: str, **info) -> None:
    """Injection point: no-op (one global read) unless a plan is active."""
    plan = _ACTIVE
    if plan is not None:
        plan.fire(point, **info)
