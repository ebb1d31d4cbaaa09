"""The benchmark's workloads.

Each workload makes every input from its seed, populates the server
during set-up, drives a closed loop over one connection until the
deadline, and then checks the server's answers.  The timed window is a
sequence of *rounds*, each the same work as the one before, so that the
figures of a run can be taken over rounds rather than over however much
work the host was fast enough to do.  The *primary* RPC of a workload is
the operation its end-to-end metrics count; the other RPCs it sends
(home creation, decisions, ...) count towards the request totals but not
towards the op latencies.  See ``README.md`` for why each workload
exists.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from repro.corpus import app_by_name, device_controlling_apps
from repro.service.schemas import (
    AuditRequest,
    DecisionRequest,
    InstallRequest,
    MonitorEventRequest,
)

APPS_PER_HOME = 20


class RpcLog:
    """Client-side record of every RPC sent on the benchmark's
    connections: latencies, the primary ops' latencies, failures."""

    def __init__(self) -> None:
        self.requests = 0
        self.failed = 0
        self.seconds = 0.0
        self.primary: list[float] = []
        self.errors: list[str] = []


class Conn:
    """One keep-alive connection that times each call into an
    :class:`RpcLog`.  Errors are returned, never raised."""

    def __init__(self, client, log: RpcLog) -> None:
        self.client = client
        self.log = log

    async def call(self, method: str, params=None, primary: bool = False):
        started = time.perf_counter()
        result, error = await self.client.call(method, params)
        elapsed = time.perf_counter() - started
        log = self.log
        log.requests += 1
        log.seconds += elapsed
        if error is not None:
            log.failed += 1
            if len(log.errors) < 5:
                log.errors.append(f"{method}: {error.code}: {error}")
        elif primary:
            log.primary.append(elapsed)
        return result, error


class SetupError(RuntimeError):
    """A population RPC failed: the run cannot be measured."""


async def _must(conn: Conn, method: str, params=None):
    result, error = await conn.call(method, params)
    if error is not None:
        raise SetupError(f"{method} failed during set-up: {error}")
    return result


def digest(result) -> str:
    """Canonical fingerprint of one decoded RPC answer."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode("utf-8")
    ).hexdigest()


def threat_keys(reports) -> set[tuple[str, str, str]]:
    """The pairwise threats of a list of wire reports, as a set of
    (type, rule, rule) with the two rules in sorted order: an install
    review reports a pair from the new app's side, an audit from both."""
    return {
        (threat["type"], *sorted((threat["rule_a"], threat["rule_b"])))
        for report in reports
        for threat in report["threats"]
    }


def threat_count(report) -> int:
    return len(report["threats"]) + len(report["chains"])


class Round:
    """One complete round: its wall time and its primary ops' latencies."""

    def __init__(self, seconds: float, latencies: list[float]) -> None:
        self.seconds = seconds
        self.latencies = latencies


class Workload:
    """Base class: shape, population, rounds until the deadline, checks."""

    name = ""
    store = "dir"
    #: The service's ``max_resident_homes``; ``None`` keeps every home.
    max_resident: int | None = None
    #: The service's fleet-wide ``solve_cache``; ``None`` shares none.
    solve_cache: str | None = None
    #: Primary ops after which the server's peak RSS is read; ``None``
    #: reads it at the end of the window.
    rss_after_ops: int | None = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds: list[Round] = []

    def rng(self, *scope) -> random.Random:
        """A generator for one input stream of this workload and seed."""
        return random.Random("/".join([self.name, str(self.seed), *map(str, scope)]))

    def fleet_rng(self) -> random.Random:
        """The generator of a fleet populated in set-up.  It ignores the
        seed: every seed measures the same fleet, and the seed draws the
        requests sent to it."""
        return random.Random(f"{self.name}/fleet")

    def shape(self) -> dict:
        return {}

    async def populate(self, conn: Conn) -> None:
        pass

    async def drive(self, conn: Conn, deadline: float) -> None:
        """Rounds until the deadline.  A round the deadline cut short
        counts towards the totals but is not recorded in ``rounds``."""
        number = 0
        while time.perf_counter() < deadline:
            await self.prepare(conn, number)
            first = len(conn.log.primary)
            started = time.perf_counter()
            if await self.round(conn, number, deadline):
                self.rounds.append(Round(
                    time.perf_counter() - started, conn.log.primary[first:]
                ))
            number += 1

    async def prepare(self, conn: Conn, number: int) -> None:
        """Untimed work before round ``number`` (fresh homes, ...)."""

    async def round(self, conn: Conn, number: int, deadline: float) -> bool:
        """Run round ``number``; ``False`` when the deadline cut it short."""
        raise NotImplementedError

    async def check(self, conn: Conn) -> list[str]:
        """Failed correctness checks, beyond ``internal_errors == 0``."""
        return []

    def checks_run(self) -> int:
        return 0

    def properties(self) -> dict:
        """Input properties of the run (shares a claim may depend on)."""
        return {}

    # ------------------------------------------------------------------
    # Shared home population: one device per type, labelled by its type,
    # then install each app and decide it (delete it when the review
    # lists a chained threat, keep it otherwise).

    async def install_home(
        self, conn: Conn, home_id: str, apps, primary: bool = False,
        deadline: float | None = None,
    ) -> list[tuple[str, dict, str]]:
        """``(app, report, decision)`` per decided install."""
        await _must(conn, "create_home", {"home_id": home_id})
        for type_name in sorted({
            t for app in apps for t in app.type_hints.values()
        }):
            await _must(conn, "register_device", {
                "home_id": home_id, "label": type_name, "type": type_name,
            })
        decided = []
        for app in apps:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            request = InstallRequest(
                home_id=home_id, app_name=app.name,
                devices=dict(app.type_hints), values=dict(app.values),
            )
            session, error = await conn.call(
                "install", request.to_json(), primary=primary
            )
            if error is not None:
                if not primary:
                    raise SetupError(f"install failed during set-up: {error}")
                continue
            report = session["report"]
            decision = "delete" if report["chains"] else "keep"
            if session["status"] == "pending":
                _, error = await conn.call("decide", DecisionRequest(
                    home_id=home_id, session_id=session["session_id"],
                    decision=decision,
                ).to_json())
                if error is not None:
                    if not primary:
                        raise SetupError(f"decide failed during set-up: {error}")
                    continue
            decided.append((app.name, report, decision))
        return decided


class InstallCold(Workload):
    """Fresh homes, each installing a sample of the corpus."""

    name = "install_cold"
    store = "dir"
    audited_homes = 4
    #: Home specs (app sample and install order) in the fixed pool.  A
    #: round creates one fresh home per spec, so every round, and every
    #: seed, does the same work: with a fresh draw per home, the seed
    #: that happened to draw chain-heavy homes ran a quarter slower.
    pool_homes = 16
    #: Decided sessions (with their reviews) stay in the service until
    #: 4096 of them exist, so memory grows with every install.  Peak RSS
    #: is read after four rounds, not at the end of the window: otherwise
    #: it follows how fast the host was.
    rss_after_ops = 4 * pool_homes * APPS_PER_HOME

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.corpus = device_controlling_apps()
        fleet = self.fleet_rng()
        self.pool = []
        for _ in range(self.pool_homes):
            apps = fleet.sample(self.corpus, APPS_PER_HOME)
            fleet.shuffle(apps)
            self.pool.append(apps)
        self.order = self.rng("order")
        #: Per home with a decided install, the pairwise threats of the
        #: apps it kept: all the check needs of the reviews, which would
        #: otherwise fill the load process's memory.
        self.kept: dict[str, set[tuple[str, str, str]]] = {}
        self.decided = 0
        self.deleted = 0
        self.threats = 0
        self.audited = 0

    def shape(self) -> dict:
        return {"homes": "a fresh one per 20 installs",
                "homes_per_round": self.pool_homes,
                "apps_per_home": APPS_PER_HOME, "corpus_apps": len(self.corpus),
                "rss_after_ops": self.rss_after_ops}

    async def round(self, conn: Conn, number: int, deadline: float) -> bool:
        # One fresh home per pool spec, in an order the seed draws.
        for k, spec in enumerate(self.order.sample(self.pool, len(self.pool))):
            if time.perf_counter() >= deadline:
                return False
            home_id = f"cold-{number:04d}-{k:02d}"
            decided = await self.install_home(
                conn, home_id, spec, primary=True, deadline=deadline
            )
            if decided:
                self.kept[home_id] = threat_keys(
                    report for _, report, decision in decided
                    if decision == "keep"
                )
            self.decided += len(decided)
            self.deleted += sum(1 for *_, decision in decided if decision == "delete")
            self.threats += sum(threat_count(report) for _, report, _ in decided)
        return len(decided) == len(spec)

    async def check(self, conn: Conn) -> list[str]:
        failures = []
        homes = sorted(self.kept)
        sample = self.rng("audit").sample(
            homes, min(self.audited_homes, len(homes))
        )
        for home_id in sample:
            expected = self.kept[home_id]
            result, error = await conn.call(
                "audit", AuditRequest(home_id=home_id).to_json()
            )
            if error is not None:
                failures.append(f"audit {home_id}: {error}")
            elif threat_keys(result["reports"]) != expected:
                failures.append(
                    f"audit of {home_id} does not reproduce its install-time "
                    "threats"
                )
        self.audited = len(sample)
        return failures

    def checks_run(self) -> int:
        return self.audited

    def properties(self) -> dict:
        decided = self.decided
        return {
            "installs_decided": decided,
            "deleted_share": self.deleted / decided if decided else 0.0,
            "threats_per_response": self.threats / decided if decided else 0.0,
        }


class AuditFleet(Workload):
    """Audits of populated homes, half of them resident at a time."""

    name = "audit_fleet"
    store = "sqlite"
    homes_count = 8
    max_resident = homes_count // 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.corpus = device_controlling_apps()
        self.home_ids = [f"fleet-{n:03d}" for n in range(self.homes_count)]
        self.order = self.rng("audits")
        self.setup_solver_calls: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        self.mismatches: set[str] = set()
        self.audits = 0
        self.threats = 0

    def shape(self) -> dict:
        return {"homes": self.homes_count, "apps_per_home": APPS_PER_HOME,
                "resident_bound": self.max_resident}

    async def populate(self, conn: Conn) -> None:
        rng = self.fleet_rng()
        for home_id in self.home_ids:
            await self.install_home(
                conn, home_id, rng.sample(self.corpus, APPS_PER_HOME)
            )
            stats = await _must(conn, "stats", {"home_id": home_id})
            self.setup_solver_calls[home_id] = stats["solver_calls"]

    def _record(self, home_id: str, result) -> None:
        fingerprint = digest(result)
        if self.digests.setdefault(home_id, fingerprint) != fingerprint:
            self.mismatches.add(home_id)

    async def round(self, conn: Conn, number: int, deadline: float) -> bool:
        # Every home twice, in an order the seed draws.
        for home_id in self.order.sample(2 * self.home_ids, 2 * self.homes_count):
            if time.perf_counter() >= deadline:
                return False
            result, error = await conn.call(
                "audit", AuditRequest(home_id=home_id).to_json(), primary=True
            )
            if error is None:
                self.audits += 1
                self.threats += sum(threat_count(r) for r in result["reports"])
                self._record(home_id, result)
        return True

    async def check(self, conn: Conn) -> list[str]:
        # Audit every home twice in a row: the first call hydrates the
        # home if it was evicted, the second finds it resident.  Both
        # must equal what the timed phase saw.
        for home_id in self.home_ids:
            for _ in range(2):
                result, error = await conn.call(
                    "audit", AuditRequest(home_id=home_id).to_json()
                )
                if error is None:
                    self._record(home_id, result)
                else:
                    self.mismatches.add(home_id)
        failures = [
            f"audit answers of {home_id} differ between calls"
            for home_id in sorted(self.mismatches)
        ]
        for home_id in self.home_ids:
            stats, error = await conn.call("stats", {"home_id": home_id})
            # Resident since set-up: the set-up count; re-hydrated: 0.
            if error is not None or stats["solver_calls"] not in (
                0, self.setup_solver_calls[home_id]
            ):
                failures.append(f"solver calls of {home_id} moved")
        return failures

    def checks_run(self) -> int:
        return 2 * len(self.home_ids)

    def properties(self) -> dict:
        return {
            "audits": self.audits,
            "threats_per_response": (
                self.threats / self.audits if self.audits else 0.0
            ),
        }


class MonitorIngest(Workload):
    """Event batches for homes that keep a predicted actuator race."""

    name = "monitor_ingest"
    store = "dir"
    #: Every fresh home installs the same two apps.  A fleet-wide solve
    #: cache, filled by one home in set-up, answers their solves, so the
    #: window makes no solver calls: the solver has no part in ingest.
    solve_cache = "lru"
    #: Fresh homes per round, made before the round starts.  Each home's
    #: observation ledger grows with every batch and the store rewrites
    #: it on each commit, so a batch costs more the more batches the home
    #: has had: a fixed set of homes fed until the deadline makes a fast
    #: host's batches dearer than a slow host's.
    homes_per_round = 2
    batches_per_home = 100
    batch = 100
    #: Every fresh home keeps a ledger, so memory grows with every round.
    rss_after_ops = 20 * homes_per_round * batches_per_home

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # The batches of each home slot, with device labels for ids;
        # every round sends the same ones to its fresh homes.
        self.streams = [
            self._stream(self.rng("events", slot))
            for slot in range(self.homes_per_round)
        ]
        self.homes: list[tuple[str, dict[str, str]]] = []
        self.last: dict[str, tuple[dict, list]] = {}
        self.batches = 0
        self.events = 0
        self.observations = 0
        self.resent = 0

    def shape(self) -> dict:
        return {"homes_per_round": self.homes_per_round,
                "batches_per_home": self.batches_per_home,
                "apps_per_home": 2, "batch_size": self.batch}

    def _stream(self, rng: random.Random) -> list[list[tuple]]:
        """One home's batches: window and TV toggles (the race and toggle
        bursts), temperature and power readings; event time advances
        1-120 s per event, so batches cross day and night."""
        clock = 8 * 3600.0
        batches = []
        for _ in range(self.batches_per_home):
            events = []
            for _ in range(self.batch):
                clock += rng.uniform(1.0, 120.0)
                pick = rng.random()
                if pick < 0.4:
                    event = ("Window", "switch", rng.choice(("on", "off")), clock)
                elif pick < 0.6:
                    event = ("TV", "switch", rng.choice(("on", "off")), clock)
                elif pick < 0.8:
                    event = ("Temp", "temperature", rng.randint(18, 34), clock)
                else:
                    watts = 900.0 if rng.random() < 0.02 else rng.uniform(90, 130)
                    event = ("TV", "power", round(watts, 1), clock)
                events.append(event)
            batches.append(events)
        return batches

    async def populate(self, conn: Conn) -> None:
        await self._make_home(conn, "mon-warm")

    async def prepare(self, conn: Conn, number: int) -> None:
        self.homes = [
            (home_id, await self._make_home(conn, home_id))
            for home_id in (
                f"mon-{number:04d}-{slot}" for slot in range(self.homes_per_round)
            )
        ]
        self.last = {}

    async def _make_home(self, conn: Conn, home_id: str) -> dict[str, str]:
        """Create a home that keeps both apps; its device ids by label."""
        comfort, cold = app_by_name("ComfortTV"), app_by_name("ColdDefender")
        await _must(conn, "create_home", {"home_id": home_id})
        devices = {}
        for label, type_name in (
            ("TV", "tv"), ("Temp", "temperatureSensor"),
            ("Window", "windowOpener"),
        ):
            device = await _must(conn, "register_device", {
                "home_id": home_id, "label": label, "type": type_name,
            })
            devices[label] = device["device_id"]
        for app, bindings in (
            (comfort, {"tv1": "TV", "tSensor": "Temp", "window1": "Window"}),
            (cold, {"tv2": "TV", "window2": "Window"}),
        ):
            session = await _must(conn, "install", InstallRequest(
                home_id=home_id, app_name=app.name, devices=bindings,
                values=dict(app.values),
            ).to_json())
            if session["status"] == "pending":
                await _must(conn, "decide", DecisionRequest(
                    home_id=home_id, session_id=session["session_id"],
                    decision="keep",
                ).to_json())
        return devices

    async def round(self, conn: Conn, number: int, deadline: float) -> bool:
        for index in range(self.batches_per_home):
            for slot, (home_id, devices) in enumerate(self.homes):
                if time.perf_counter() >= deadline:
                    return False
                events = tuple(
                    (devices[label], attribute, value, at)
                    for label, attribute, value, at in self.streams[slot][index]
                )
                request = MonitorEventRequest(
                    home_id=home_id, events=events,
                    batch_id=f"{home_id}/b{index:03d}",
                ).to_json()
                result, error = await conn.call(
                    "ingest_events", request, primary=True
                )
                if error is None:
                    self.batches += 1
                    self.events += len(events)
                    self.observations += len(result["observations"])
                    self.last[home_id] = (request, result["observations"])
        return True

    async def check(self, conn: Conn) -> list[str]:
        failures = []
        # The last batch of each home of the last round started.
        for request, observations in self.last.values():
            self.resent += 1
            result, error = await conn.call("ingest_events", request)
            if error is not None or result["observations"] != observations:
                failures.append(f"resent batch of {request['home_id']} changed")
        status, error = await conn.call("status")
        if error is not None or (
            status["monitor_observations"], status["monitor_events"]
        ) != (self.observations, self.events):
            failures.append("server monitor totals differ from the client tally")
        return failures

    def checks_run(self) -> int:
        return self.resent + 1

    def properties(self) -> dict:
        return {
            "batches": self.batches,
            "observations_per_batch": (
                self.observations / self.batches if self.batches else 0.0
            ),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (InstallCold, AuditFleet, MonitorIngest)
}
