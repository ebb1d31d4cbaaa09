"""Transport fuzz battery (DESIGN.md §13).

Hundreds of malformed frames — truncated bodies, invalid UTF-8,
unknown kind/schema stamps, oversized payloads, duplicated fields,
garbage HTTP heads, random mutations of valid frames — thrown at a
live server.  Every one must come back as a typed
:class:`ServiceError` response (or a clean connection close), never a
traceback on the wire, never a crashed server.  The server's own
``internal_errors`` counter is the ground truth: it counts every
request the catch-all 500 path had to absorb, and this battery pins it
at zero.
"""

import json
import random
import socket
import threading

import pytest

from repro.service.errors import ERROR_CODES, SessionDecidedError
from repro.service.schemas import DecisionRequest, InstallRequest
from repro.service.service import HomeGuardService
from repro.service.transport import (
    FleetClient,
    TenantQuota,
    serve_background,
)

#: Request-size cap for the fuzz server (small, so oversize is cheap).
MAX_REQUEST_BYTES = 32 * 1024

#: Every frame the battery sent, for the final accounting test.
FRAMES_SENT = []

APP_SOURCE = """
definition(name: "Fuzz App", namespace: "t", author: "t")
preferences {
    section("sw") { input "sw", "capability.switch" }
}
def installed() { subscribe(sw, "switch.on", h) }
def h(evt) { sw.off() }
"""


@pytest.fixture(scope="module")
def live():
    service = HomeGuardService(workers=None)
    with serve_background(
        service,
        own_service=True,
        max_request_bytes=MAX_REQUEST_BYTES,
        io_timeout=0.05,  # truncated bodies answer fast
        quota=TenantQuota(rate=1000.0, burst=10_000, max_inflight=64),
    ) as background:
        yield background


# ----------------------------------------------------------------------
# Raw frame plumbing


def frame(
    body: bytes,
    length: int | None = None,
    method: str = "POST",
    target: str = "/rpc",
    headers: tuple = (),
) -> bytes:
    head = (
        f"{method} {target} HTTP/1.1\r\n"
        f"Host: fuzz\r\n"
        f"Content-Length: {len(body) if length is None else length}\r\n"
    )
    for header in headers:
        head += header + "\r\n"
    return head.encode("latin-1") + b"\r\n" + body


def rpc_body(method="status", params=None, **envelope) -> bytes:
    payload = {"jsonrpc": "2.0", "id": 1, "method": method,
               "params": params}
    payload.update(envelope)
    return json.dumps(payload).encode("utf-8")


def read_response(sock: socket.socket) -> bytes:
    """One HTTP response (or b'' if the server just closed)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data = data + chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest = rest + chunk
    # Cut at Content-Length: a mutated, shorter request length makes the
    # server answer the leftover bytes as a pipelined second request,
    # and that second response can arrive in the same recv.
    return head + b"\r\n\r\n" + rest[:length]


def exchange(live, payload: bytes, half_close: bool = False) -> bytes:
    """Send raw bytes, return the server's raw response bytes."""
    FRAMES_SENT.append(len(payload))
    with socket.create_connection(
        (live.host, live.port), timeout=5.0
    ) as sock:
        try:
            sock.sendall(payload)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            # Server already refused (e.g. oversize) and closed.
            return b""
        try:
            return read_response(sock)
        except (socket.timeout, ConnectionResetError):
            return b""


def assert_typed_rejection(response: bytes, allow_empty: bool = True):
    """The invariant every malformed frame is held to."""
    assert b"Traceback" not in response
    assert b'"exc_info"' not in response
    if not response:
        assert allow_empty, "expected a response, connection just closed"
        return None
    status = int(response.split(b" ", 2)[1])
    assert 400 <= status < 600, response[:120]
    _, _, body = response.partition(b"\r\n\r\n")
    envelope = json.loads(body)
    error = envelope["error"]
    record = error["data"]
    assert record["kind"] == "ServiceError"
    assert record["code"] in ERROR_CODES
    return record["code"]


# ----------------------------------------------------------------------
# Categories


def test_truncated_bodies_yield_typed_errors(live):
    rng = random.Random(7001)
    body = rpc_body()
    for trial in range(60):
        cut = rng.randrange(0, len(body))
        payload = frame(body[:cut], length=len(body))
        code = assert_typed_rejection(
            exchange(live, payload, half_close=trial % 2 == 0),
            allow_empty=False,
        )
        assert code in ("invalid-request", "schema-mismatch")


def test_invalid_utf8_bodies_yield_schema_mismatch(live):
    rng = random.Random(7002)
    for _ in range(60):
        junk = bytes(
            rng.choice((0xFF, 0xFE, 0xC0, 0xA0, 0x80))
            for _ in range(rng.randrange(1, 40))
        )
        body = rpc_body()[:-1] + junk
        code = assert_typed_rejection(
            exchange(live, frame(body)), allow_empty=False
        )
        assert code == "schema-mismatch"


def test_malformed_envelopes_yield_typed_errors(live):
    bad_envelopes = [
        b"null", b"42", b"[]", b'"rpc"', b"{}", b"{not json",
        rpc_body(jsonrpc="1.0"),
        rpc_body(jsonrpc=2.0),
        rpc_body(surprise=True),
        rpc_body(method=None),
        rpc_body(method=""),
        rpc_body(method=["status"]),
        rpc_body(id={"nested": 1}),
        json.dumps({"id": 1, "method": "status"}).encode(),
    ]
    rng = random.Random(7003)
    for trial in range(80):
        body = bad_envelopes[trial % len(bad_envelopes)]
        if trial >= len(bad_envelopes) * 2:
            # Pad with whitespace/garbage tails to vary the byte shape.
            body = body + bytes(rng.choice(b" \t\r\n{}[],") for _ in range(8))
        assert_typed_rejection(exchange(live, frame(body)),
                               allow_empty=False)


def test_unknown_kind_and_schema_stamps_yield_typed_errors(live):
    rng = random.Random(7004)
    base = InstallRequest(
        home_id="h", app_name="a", devices={"sw": "switch"}
    ).to_json()
    for trial in range(80):
        record = dict(base)
        mutation = trial % 4
        if mutation == 0:
            record["kind"] = rng.choice(
                ["NoSuchModel", "installrequest", "", 17, None,
                 ["InstallRequest"]]
            )
        elif mutation == 1:
            record["schema"] = rng.choice(
                [0, -1, 99, "3", None, 2.5]
            )
        elif mutation == 2:
            record[f"field{rng.randrange(100)}"] = "surprise"
        else:
            record.pop(rng.choice(["home_id", "app_name", "kind",
                                   "schema"]), None)
        code = assert_typed_rejection(
            exchange(live, frame(rpc_body("echo", record))),
            allow_empty=False,
        )
        assert code in ("schema-mismatch", "invalid-request")


def test_oversized_payloads_are_refused_with_413(live):
    for promised in (MAX_REQUEST_BYTES + 1, MAX_REQUEST_BYTES * 4,
                     10**9):
        for send_body in (False, True):
            body = b"x" * min(promised, MAX_REQUEST_BYTES * 4) if send_body else b""
            payload = frame(body, length=promised)
            response = exchange(live, payload)
            code = assert_typed_rejection(response, allow_empty=send_body)
            if code is not None:
                assert code == "request-too-large"
                assert b" 413 " in response.split(b"\r\n", 1)[0]
    # Oversized *head* (header flood) is refused too.
    flood = frame(b"", headers=tuple(
        f"X-Flood-{index}: {'y' * 200}" for index in range(200)
    ))
    assert_typed_rejection(exchange(live, flood))


def test_duplicated_fields_are_rejected(live):
    rng = random.Random(7006)
    for trial in range(60):
        if trial % 2 == 0:
            body = (
                b'{"jsonrpc":"2.0","id":1,"method":"status",'
                b'"method":"echo","params":null}'
            )
        else:
            name = rng.choice(
                [b"home_id", b"kind", b"schema", b"app_name"]
            )
            body = (
                b'{"jsonrpc":"2.0","id":1,"method":"echo","params":'
                b'{"kind":"AuditRequest","schema":3,"apps":null,'
                b'"home_id":"h","' + name + b'":"dup"}}'
            )
        code = assert_typed_rejection(exchange(live, frame(body)),
                                      allow_empty=False)
        assert code == "schema-mismatch"


def test_garbage_http_heads_never_crash(live):
    rng = random.Random(7007)
    heads = [
        b"\r\n\r\n",
        b"GARBAGE\r\n\r\n",
        b"POST\r\n\r\n",
        b"POST /rpc\r\n\r\n",
        b"POST /rpc SPDY/99\r\n\r\n",
        b"GET /rpc HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        b"POST /other HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        b"POST /rpc HTTP/1.1\r\nno-colon-header\r\n\r\n",
        b"POST /rpc HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        b"POST /rpc HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /rpc HTTP/1.1\r\n\r\n",  # no length at all
    ]
    for trial in range(80):
        if trial < len(heads) * 4:
            payload = heads[trial % len(heads)]
        else:
            payload = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 200))
            ) + b"\r\n\r\n"
        assert_typed_rejection(exchange(live, payload, half_close=True))


def test_random_mutations_of_a_valid_frame_never_crash(live):
    rng = random.Random(7008)
    valid = frame(rpc_body("status"))
    for _ in range(120):
        mutated = bytearray(valid)
        for _ in range(rng.randrange(1, 6)):
            position = rng.randrange(len(mutated))
            mutated[position] = rng.randrange(256)
        response = exchange(live, bytes(mutated), half_close=True)
        # A mutation can leave the frame valid — 200 is fine; anything
        # else must be a typed rejection, and never a traceback.
        assert b"Traceback" not in response
        if response and b" 200 " not in response.split(b"\r\n", 1)[0]:
            assert_typed_rejection(response)


# ----------------------------------------------------------------------
# Concurrency: session-replay races


def test_concurrent_decide_race_has_exactly_one_winner(live):
    with FleetClient(live.host, live.port) as client:
        client.create_home("fuzz-race")
        session = client.install(InstallRequest(
            home_id="fuzz-race", app_name="fuzz-app", source=APP_SOURCE,
            devices={"sw": "switch"},
        ))
        assert session.pending
        outcomes = []
        lock = threading.Lock()

        def decide():
            with FleetClient(live.host, live.port) as racer:
                try:
                    racer.decide(DecisionRequest(
                        home_id="fuzz-race",
                        session_id=session.session_id,
                        decision="keep",
                    ))
                    outcome = "won"
                except SessionDecidedError:
                    outcome = "decided"
            with lock:
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=decide) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count("won") == 1
        assert outcomes.count("decided") == 7
        # The one-shot decision stuck.
        assert client.session(
            "fuzz-race", session.session_id
        ).decision == "keep"


# ----------------------------------------------------------------------
# Accounting: the server survived all of it


def test_battery_volume_and_zero_internal_errors(live):
    assert len(FRAMES_SENT) >= 500, (
        f"fuzz battery shrank to {len(FRAMES_SENT)} frames; "
        "keep it at 500+"
    )
    with FleetClient(live.host, live.port) as client:
        record = client.status()
        assert record.state == "serving"
        assert record.internal_errors == 0
        # And the server still does real work after the beating.
        client.create_home("fuzz-after")
        assert client.installed_apps("fuzz-after") == []
