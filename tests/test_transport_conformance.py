"""Transport conformance battery (DESIGN.md §13).

Every wire model pinned by ``schema_manifest.json`` must round-trip
through a *live* loopback server byte-loss-free, and every error code
in the taxonomy must cross the socket and come back as the same typed
:class:`ServiceError` subclass a direct caller would have caught —
including codes from a future peer that this build has never heard of.
The in-process API and the socket API are the same surface; these
tests hold the transport to that.
"""

import http.client
import json

import pytest

from repro.corpus import app_by_name
from repro.service import (
    DuplicateHomeError,
    InstallRequest,
    InvalidRequestError,
    ServerStatusRecord,
    ServiceError,
    UnknownHomeError,
    UnknownSessionError,
    decode_wire,
)
from repro.service.errors import ERROR_CODES
from repro.service.schemas import schema_manifest
from repro.service.service import HomeGuardService
from repro.service.transport import (
    ERROR_STATUS,
    FleetClient,
    serve_background,
)
from test_service_schemas import SAMPLES


@pytest.fixture(scope="module")
def live():
    """One loopback server for the whole battery."""
    service = HomeGuardService(workers=None)
    with serve_background(service, own_service=True) as background:
        yield background


@pytest.fixture()
def client(live):
    with FleetClient(live.host, live.port) as fleet_client:
        yield fleet_client


def raw_call(live, method, params, rpc_id=1):
    """One RPC at the HTTP level: (status, headers, decoded body)."""
    connection = http.client.HTTPConnection(
        live.host, live.port, timeout=30
    )
    try:
        connection.request(
            "POST",
            "/rpc",
            json.dumps(
                {
                    "jsonrpc": "2.0",
                    "id": rpc_id,
                    "method": method,
                    "params": params,
                }
            ),
        )
        response = connection.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), json.loads(body)
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Models


def test_samples_cover_every_manifest_model():
    """The battery below is only as strong as its coverage: one sample
    per model the committed manifest pins (errors ride separately)."""
    sampled = {type(sample).kind for sample in SAMPLES}
    assert sampled == set(schema_manifest()["models"])


@pytest.mark.parametrize(
    "sample",
    SAMPLES,
    ids=[type(s).__name__ + str(i) for i, s in enumerate(SAMPLES)],
)
def test_every_manifest_model_round_trips_the_wire(client, sample):
    echoed = client.echo(sample)
    assert type(sample).from_json(echoed) == sample
    assert decode_wire(echoed) == sample


# ----------------------------------------------------------------------
# Errors


def test_every_error_code_survives_the_wire(client):
    for code, error_class in sorted(ERROR_CODES.items()):
        error = error_class(f"probe for {code}", probe=code)
        echoed = client.echo(error.to_json())
        decoded = decode_wire(echoed)
        assert type(decoded) is error_class, code
        assert decoded.code == code
        assert decoded.message == error.message
        assert decoded.details == {"probe": code}


def test_unknown_peer_error_code_survives_the_wire(client):
    """A code outside this build's taxonomy (a future peer) must cross
    the wire with its code intact, not be coerced or rejected."""
    record = ServiceError("from the future").to_json()
    record["code"] = "code-from-the-future"
    echoed = client.echo(record)
    decoded = ServiceError.from_json(echoed)
    assert type(decoded) is ServiceError
    assert decoded.code == "code-from-the-future"
    assert decoded.message == "from the future"


def test_error_status_map_covers_the_whole_taxonomy():
    assert set(ERROR_STATUS) == set(schema_manifest()["errors"])
    statuses = {status for status, _ in ERROR_STATUS.values()}
    assert statuses <= {400, 404, 409, 413, 429, 500, 503}
    # JSON-RPC application codes stay in the server-error band.
    for code, (_, rpc_code) in ERROR_STATUS.items():
        assert -32099 <= rpc_code <= -32000 or rpc_code in (-32600, -32602), code


def test_typed_errors_raise_across_the_socket(client):
    with pytest.raises(UnknownHomeError) as excinfo:
        client.installed_apps("ghost-home")
    assert excinfo.value.code == "unknown-home"
    client.create_home("conformance-errors")
    with pytest.raises(DuplicateHomeError):
        client.create_home("conformance-errors")
    with pytest.raises(UnknownSessionError):
        client.session("conformance-errors", "never-issued")


def test_unknown_device_is_a_typed_error_over_the_wire(tmp_path):
    service = HomeGuardService(workers=None, store_root=tmp_path)
    service.preload([app_by_name("ColdDefender")])
    with serve_background(service, own_service=True) as background:
        with FleetClient(background.host, background.port) as client:
            client.create_home("h1")
            with pytest.raises(InvalidRequestError):
                client.install(InstallRequest(
                    home_id="h1", app_name="ColdDefender",
                    devices={"tv2": "TV", "window2": "Window"}, values={},
                ))
            with pytest.raises(InvalidRequestError):
                client.register_device("h1", "Lamp", "nosuchtype")
            assert client.status().internal_errors == 0
            home = service.home("h1")
            assert home.home_devices == {}
            home.flush_store()
            assert home.pipeline.stats.store_bytes_written == 0


def test_http_statuses_match_the_taxonomy(live):
    status, headers, body = raw_call(
        live, "installed_apps", {"home_id": "nope"}
    )
    assert status == 404
    assert body["error"]["data"]["code"] == "unknown-home"
    assert "X-Request-Id" in headers
    # Garbage into the strict decoder: schema-mismatch, HTTP 400.
    status, _, body = raw_call(live, "echo", {"kind": "NoSuchModel"})
    assert status == 400
    assert body["error"]["data"]["code"] == "schema-mismatch"
    # Unknown method: protocol-level -32601, taxonomy invalid-request.
    status, _, body = raw_call(live, "frobnicate", {})
    assert status == 400
    assert body["error"]["code"] == -32601
    assert body["error"]["data"]["code"] == "invalid-request"


# ----------------------------------------------------------------------
# Envelope + connection behavior


def test_keep_alive_connection_serves_many_requests(live):
    connection = http.client.HTTPConnection(
        live.host, live.port, timeout=30
    )
    try:
        request_ids = []
        for index in range(5):
            connection.request(
                "POST",
                "/rpc",
                json.dumps(
                    {
                        "jsonrpc": "2.0",
                        "id": index,
                        "method": "status",
                        "params": None,
                    }
                ),
            )
            response = connection.getresponse()
            envelope = json.loads(response.read())
            assert response.status == 200
            assert envelope["id"] == index
            request_ids.append(response.getheader("X-Request-Id"))
        # One id per request, all distinct, all on one connection.
        assert len(set(request_ids)) == 5
    finally:
        connection.close()


def test_rpc_ids_echo_back_verbatim(live):
    """String, numeric and null ids all come back as sent."""
    for rpc_id in ("alpha", 17, None):
        status, _, body = raw_call(live, "status", None, rpc_id=rpc_id)
        assert status == 200
        assert body["id"] == rpc_id


def test_status_decodes_as_a_server_status_record(client):
    record = client.status()
    assert isinstance(record, ServerStatusRecord)
    assert record.state == "serving"
    assert record.requests_total >= 1
    assert record.internal_errors == 0
    assert set(record.phase_counts) <= {
        "parse", "admit", "queue", "execute", "write"
    }


# ----------------------------------------------------------------------
# Lifecycle: drain ordering and idempotent close


def test_drain_rejects_new_intake_but_completes_inflight_work():
    import threading

    from repro.service import UnavailableError
    from repro.service.schemas import InstallRequest

    service = HomeGuardService(workers=None)
    with serve_background(service, own_service=True) as background:
        with FleetClient(background.host, background.port) as client:
            client.create_home("drain-home")

        install_outcome = {}

        def slow_install():
            with FleetClient(
                background.host, background.port
            ) as installer:
                try:
                    install_outcome["session"] = installer.install(
                        InstallRequest(
                            home_id="drain-home",
                            app_name="drain-app",
                            source=(
                                'definition(name: "Drain App", '
                                'namespace: "t", author: "t")\n'
                                'preferences { section("sw") { '
                                'input "sw", "capability.switch" } }\n'
                                "def installed() { "
                                'subscribe(sw, "switch.on", h) }\n'
                                "def h(evt) { sw.off() }\n"
                            ),
                            devices={"sw": "switch"},
                        )
                    )
                except Exception as error:  # surfaced by the assert below
                    install_outcome["error"] = error

        installer_thread = threading.Thread(target=slow_install)
        installer_thread.start()

        # Only start draining once the install is admitted (or already
        # done) — draining first would reject it at intake.
        with FleetClient(background.host, background.port) as client:
            for _ in range(2000):
                if install_outcome or client.status().requests_inflight:
                    break

        drainer_thread = threading.Thread(target=background.drain)
        drainer_thread.start()

        # status keeps answering mid-drain (it is the health probe)...
        with FleetClient(background.host, background.port) as client:
            deadline = 400
            while client.status().state != "draining" and deadline:
                deadline -= 1
            assert client.status().state == "draining"
            # ...while new work is refused with a *retryable* typed
            # error, not a dropped connection.
            with pytest.raises(UnavailableError) as excinfo:
                client.installed_apps("drain-home")
            assert excinfo.value.details.get("retryable") is True

        installer_thread.join(30)
        drainer_thread.join(30)
        # The in-flight install was never cut off by the drain.
        assert "error" not in install_outcome, install_outcome.get("error")
        assert install_outcome["session"].home_id == "drain-home"
        with FleetClient(background.host, background.port) as client:
            assert client.status().drain_rejections >= 1


def test_server_close_is_idempotent_and_concurrency_safe():
    import asyncio

    from repro.service.transport import FleetServer

    async def scenario():
        service = HomeGuardService(workers=None)
        server = FleetServer(service, own_service=True)
        await server.start()
        assert server.state == "serving"
        # Two concurrent closes + one late close: one does the work,
        # the others observe it; none raises.
        await asyncio.gather(server.close(), server.close())
        await server.close()
        assert server.state == "closed"
        # A never-started server closes as a no-op too.
        unstarted = FleetServer(HomeGuardService(workers=None))
        await unstarted.close()
        assert unstarted.state == "closed"

    asyncio.run(scenario())


def test_background_stop_is_idempotent():
    service = HomeGuardService(workers=None)
    with serve_background(service, own_service=True) as background:
        with FleetClient(background.host, background.port) as client:
            assert client.status().state == "serving"
        background.stop()
        background.stop()  # second stop is a no-op
        with pytest.raises(OSError):
            FleetClient(background.host, background.port).status()
