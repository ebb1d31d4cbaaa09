"""Transport fairness battery (DESIGN.md §13).

The claims under test: admitted work reaches the shared solver
dispatcher in *weighted-fair* order, not arrival order, so a flooding
tenant cannot starve a light one; quota accounting is exact; and
tenant boundaries (custom-app privacy) hold across the socket exactly
as they do in-process.
"""

import asyncio
import threading

import pytest

from repro.service.errors import (
    QuotaExceededError,
    UnknownAppError,
)
from repro.service.schemas import AuditRequest, InstallRequest
from repro.service.service import HomeGuardService
from repro.service.transport import (
    AsyncFleetClient,
    FleetClient,
    TenantQuota,
    WeightedFairQueue,
    serve_background,
)


def app_source(name: str, extra: str = "") -> str:
    return f'''
definition(name: "{name}", namespace: "t", author: "t")
preferences {{
    section("sw") {{ input "sw", "capability.switch" }}
}}
def installed() {{ subscribe(sw, "switch.on", h) }}
def h(evt) {{ sw.off() }}
{extra}
'''


# ----------------------------------------------------------------------
# Weighted-fair queue unit behavior


def test_flooded_queue_serves_a_late_light_tenant_almost_immediately():
    queue = WeightedFairQueue()
    for index in range(100):
        queue.push("flood", 1.0, f"flood{index}")
    # Drain a few, then a light tenant shows up.
    for _ in range(10):
        queue.pop()
    queue.push("light", 1.0, "light0")
    # The light job's tag lands just past virtual now: it runs after at
    # most one more of the flood's 90 queued jobs.
    popped = [queue.pop()[1] for _ in range(3)]
    assert "light0" in popped[:2]


def test_weights_buy_proportional_service():
    queue = WeightedFairQueue()
    for index in range(6):
        queue.push("gold", 2.0, f"gold{index}")
    for index in range(6):
        queue.push("standard", 1.0, f"standard{index}")
    first_nine = [queue.pop()[0] for _ in range(9)]
    # Weight 2.0 wins twice the pops while both queues are backlogged.
    assert first_nine.count("gold") == 6
    assert first_nine.count("standard") == 3


def test_equal_weights_degrade_to_round_robin():
    queue = WeightedFairQueue()
    for index in range(4):
        queue.push("a", 1.0, f"a{index}")
        queue.push("b", 1.0, f"b{index}")
    order = [queue.pop()[0] for _ in range(8)]
    assert order == ["a", "b"] * 4


def test_idle_queue_forgets_virtual_history():
    queue = WeightedFairQueue()
    for index in range(50):
        queue.push("busy", 1.0, index)
    while queue.pop() is not None:
        pass
    # A fresh burst after idleness starts from a clean slate: the
    # formerly-busy tenant is not owed (or charged) old virtual time.
    queue.push("busy", 1.0, "new")
    queue.push("other", 1.0, "fresh")
    first = queue.pop()
    assert first[0] == "busy"  # equal tags, arrival order breaks tie
    assert queue.pop()[0] == "other"


# ----------------------------------------------------------------------
# Live-server fairness under skewed load


def test_flooding_tenant_cannot_starve_a_light_one():
    access_records = []
    lock = threading.Lock()

    def on_access(record):
        with lock:
            access_records.append(record)

    service = HomeGuardService(workers=None)
    # Hold the first flood install on the scheduler's single executor
    # thread, so the rest of the flood must queue behind it however
    # fast installs run on this host.
    gate = threading.Event()
    held = threading.Event()
    install = service.install

    def gated_install(request):
        if not held.is_set():
            held.set()
            gate.wait(timeout=60)
        return install(request)

    service.install = gated_install
    with serve_background(
        service,
        own_service=True,
        on_access=on_access,
        quota=TenantQuota(rate=1000.0, burst=10_000, max_inflight=64),
    ) as live:
        with FleetClient(live.host, live.port) as setup:
            setup.create_home("heavy")
            setup.create_home("light")

        flood_size = 20

        async def scenario():
            floods = [
                AsyncFleetClient(live.host, live.port)
                for _ in range(flood_size)
            ]
            tasks = [
                asyncio.ensure_future(client.call("install", InstallRequest(
                    home_id="heavy",
                    app_name=f"flood-app-{index}",
                    source=app_source(f"Flood App {index}"),
                    devices={"sw": "switch"},
                ).to_json()))
                for index, client in enumerate(floods)
            ]
            # Wait until the flood has genuinely queued up.
            async with AsyncFleetClient(live.host, live.port) as probe:
                backlog = 0
                for _ in range(1000):
                    result, _ = await probe.call("status")
                    backlog = result["requests_inflight"]
                    if backlog >= 10:
                        break
                    await asyncio.sleep(0.005)
                assert backlog >= 10, "flood never built a backlog"
                # Now the light tenant asks for one small thing; the
                # gate opens only once the request is queued.
                async with AsyncFleetClient(
                    live.host, live.port
                ) as light:
                    light_call = asyncio.ensure_future(light.call(
                        "installed_apps", {"home_id": "light"}
                    ))
                    for _ in range(1000):
                        result, _ = await probe.call("status")
                        if result["tenants"].get("light", {}).get(
                            "requests"
                        ):
                            break
                        await asyncio.sleep(0.005)
                    gate.set()
                    result, error = await light_call
                    assert error is None
                    assert result == {"apps": []}
            results = await asyncio.gather(*tasks)
            for client in floods:
                await client.close()
            return results

        try:
            results = asyncio.run(scenario())
        finally:
            gate.set()  # never strand the executor thread on a failure
        assert all(error is None for _, error in results)

    work_records = [
        record for record in access_records
        if record["method"] in ("install", "installed_apps")
    ]
    light_position = next(
        index for index, record in enumerate(work_records)
        if record["tenant"] == "light"
    )
    floods_after_light = sum(
        1 for record in work_records[light_position + 1:]
        if record["tenant"] == "heavy"
    )
    # Weighted-fair ordering: the light request overtook most of the
    # queued flood instead of waiting behind all of it.
    assert floods_after_light >= 5, (
        f"light tenant waited behind the flood "
        f"(only {floods_after_light} flood installs completed after it)"
    )


# ----------------------------------------------------------------------
# Exact quota accounting


def test_quota_accounting_is_exact_with_a_non_refilling_bucket():
    service = HomeGuardService(workers=None)
    burst = 5
    total = 12
    with serve_background(
        service,
        own_service=True,
        quota=TenantQuota(rate=0.0, burst=burst, max_inflight=8),
    ) as live:
        with FleetClient(live.host, live.port) as client:
            outcomes = []
            for _ in range(total):
                try:
                    client.call("sessions", {"home_id": "metered"})
                    outcomes.append("ok")
                except QuotaExceededError as error:
                    assert error.details["tenant"] == "metered"
                    outcomes.append("rejected")
            # rate=0 never refills: exactly `burst` requests pass, in
            # order, and every later one is rejected.
            assert outcomes == ["ok"] * burst + ["rejected"] * (
                total - burst
            )
            record = client.status()  # unmetered: status is inline
            assert record.quota_rejections == total - burst
            tenant = record.tenants["metered"]
            assert tenant["requests"] == total
            assert tenant["completed"] == burst
            assert tenant["quota_rejections"] == total - burst
            # Another tenant's bucket is untouched.
            client.call("sessions", {"home_id": "fresh-tenant"})


def test_admission_accounting_is_consistent_under_concurrency():
    service = HomeGuardService(workers=None)
    with serve_background(
        service,
        own_service=True,
        quota=TenantQuota(rate=0.0, burst=1000, max_inflight=2),
    ) as live:
        total = 10

        async def scenario():
            clients = [
                AsyncFleetClient(live.host, live.port)
                for _ in range(total)
            ]
            results = await asyncio.gather(*(
                client.call("sessions", {"home_id": "crowded"})
                for client in clients
            ))
            for client in clients:
                await client.close()
            return results

        results = asyncio.run(scenario())
        succeeded = sum(1 for _, error in results if error is None)
        rejected = sum(
            1 for _, error in results
            if error is not None and error.code == "unavailable"
        )
        assert succeeded + rejected == total
        assert succeeded >= 1
        with FleetClient(live.host, live.port) as client:
            record = client.status()
            assert record.admission_rejections == rejected
            assert record.requests_inflight == 0  # all released
            # Once the burst drains, the tenant is admitted again.
            client.call("sessions", {"home_id": "crowded"})


# ----------------------------------------------------------------------
# Tenant isolation across the socket


def test_custom_apps_stay_private_across_the_socket():
    service = HomeGuardService(workers=None)
    with serve_background(service, own_service=True) as live:
        with FleetClient(live.host, live.port) as alice, \
                FleetClient(live.host, live.port) as bob:
            alice.create_home("alice")
            bob.create_home("bob")
            session = alice.install(InstallRequest(
                home_id="alice", app_name="alice-private",
                source=app_source("Alice Private"),
                devices={"sw": "switch"},
            ))
            assert session.home_id == "alice"
            # Bob cannot install Alice's custom app by name...
            with pytest.raises(UnknownAppError):
                bob.install(InstallRequest(
                    home_id="bob", app_name="alice-private",
                    devices={"sw": "switch"},
                ))
            # ...cannot see it installed...
            assert bob.installed_apps("bob") == []
            # ...cannot audit it into view (audits skip apps that are
            # not installed in *this* home — same as in-process)...
            assert bob.audit(AuditRequest(
                home_id="bob", apps=("alice-private",)
            )) == []
            # ...and cannot read Alice's sessions by home id.
            assert bob.sessions("bob") == []
            assert len(alice.sessions("alice")) == 1
