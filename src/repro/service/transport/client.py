"""Clients for the fleet server (DESIGN.md §13).

Two clients over the same wire protocol:

* :class:`FleetClient` — synchronous, ``http.client``-based, one
  keep-alive connection.  What tests, examples and operators use.
* :class:`AsyncFleetClient` — asyncio streams, for callers that need
  hundreds of concurrent connections in one process (the load
  benchmark drives ~200 tenants with these).

Both decode responses through :func:`decode_rpc_response`, so a server
failure comes back as the *typed* taxonomy exception the service
raised — ``except UnknownHomeError:`` works identically in-process and
across the socket.  The typed convenience methods (:meth:`install`,
:meth:`audit`, :meth:`status`, ...) re-hydrate wire records into the
frozen dataclasses of :mod:`repro.service.schemas`.

Fault tolerance (DESIGN.md §15): connection failures (refused, reset,
timed out) surface as the typed, retryable
:class:`~repro.service.errors.TransportConnectionError` instead of raw
``ConnectionError`` / ``socket.timeout``, and both clients optionally
take a :class:`~repro.resilience.RetryPolicy` that automatically
retries the *retryable* codes (``unavailable``,
``transport-connection``) with bounded, deterministically jittered
backoff.  Retries are opt-in: with ``retry=None`` every failure is
raised (or returned) on first occurrence, exactly as before.  Blind
re-sends are safe for this protocol's mutating calls too — install
sessions are one-time-keyed and decisions are one-shot — but a caller
wiring retries around bespoke non-idempotent methods should think
first.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import time

from repro.resilience import RetryPolicy
from repro.service.errors import (
    RETRYABLE_CODES,
    ServiceError,
    TransportConnectionError,
)
from repro.service.schemas import (
    AuditRequest,
    DecisionRequest,
    DetectionStatsRecord,
    InstallRequest,
    InstallSession,
    MonitorEventRequest,
    ObservationRecord,
    ServerStatusRecord,
    ThreatReport,
)
from repro.service.transport.framing import decode_rpc_response


class FleetClient:
    """Synchronous JSON-RPC client over one keep-alive connection.

    ``call`` raises the transported :class:`ServiceError` subclass on
    failure — including :class:`TransportConnectionError` when the
    server cannot be reached at all; the typed helpers return frozen
    wire dataclasses.  Usable as a context manager.

    ``retry`` (optional) enables automatic retries of retryable codes;
    ``sleep`` is injectable so tests can assert backoff without
    waiting."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        sleep=time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._sleep = sleep
        self._ids = itertools.count(1)
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Plumbing

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(self, body: bytes):
        conn = self._connection()
        conn.request(
            "POST", "/rpc", body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        data = response.read()
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response.status, data

    def _roundtrip_reconnect(self, body: bytes):
        try:
            return self._roundtrip(body)
        except (ConnectionError, http.client.HTTPException, OSError):
            # Server closed the keep-alive connection (drain, previous
            # Connection: close, restart): reconnect and retry once.
            self.close()
            return self._roundtrip(body)

    def call(self, method: str, params: object = None) -> object:
        """One RPC; returns the result or raises the typed error.

        A connection that cannot be (re)established raises
        :class:`TransportConnectionError`; with a ``retry`` policy set,
        retryable failures back off and resend before raising."""
        body = json.dumps(
            {
                "jsonrpc": "2.0",
                "id": next(self._ids),
                "method": method,
                "params": params,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        policy = self.retry
        attempts = policy.attempts if policy is not None else 1
        for attempt in range(1, attempts + 1):
            try:
                status, data = self._roundtrip_reconnect(body)
            except (
                ConnectionError,
                http.client.HTTPException,
                OSError,
            ) as exc:
                self.close()
                error: ServiceError = TransportConnectionError(
                    f"fleet call {method!r} to "
                    f"{self.host}:{self.port} failed: "
                    f"{type(exc).__name__}: {exc}",
                    host=self.host,
                    port=self.port,
                    method=method,
                )
                error.__cause__ = exc
            else:
                result, error = decode_rpc_response(status, data)
                if error is None:
                    return result
            if (
                policy is not None
                and attempt < attempts
                and error.code in RETRYABLE_CODES
            ):
                self._sleep(policy.delay(attempt))
                continue
            raise error
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Typed surface

    def create_home(
        self, home_id: str, policy: str | None = None
    ) -> None:
        params: dict = {"home_id": home_id}
        if policy is not None:
            params["policy"] = policy
        self.call("create_home", params)

    def register_device(
        self, home_id: str, label: str, type_name: str
    ) -> dict:
        return self.call(
            "register_device",
            {"home_id": home_id, "label": label, "type": type_name},
        )

    def install(self, request: InstallRequest) -> InstallSession:
        return InstallSession.from_json(
            self.call("install", request.to_json())
        )

    def decide(self, request: DecisionRequest) -> InstallSession:
        return InstallSession.from_json(
            self.call("decide", request.to_json())
        )

    def audit(self, request: AuditRequest) -> list[ThreatReport]:
        reports = self.call("audit", request.to_json())
        return [
            ThreatReport.from_json(report)
            for report in reports["reports"]
        ]

    def session(self, home_id: str, session_id: str) -> InstallSession:
        return InstallSession.from_json(
            self.call(
                "session",
                {"home_id": home_id, "session_id": session_id},
            )
        )

    def sessions(
        self, home_id: str | None = None
    ) -> list[InstallSession]:
        params = {} if home_id is None else {"home_id": home_id}
        return [
            InstallSession.from_json(session)
            for session in self.call("sessions", params)["sessions"]
        ]

    def installed_apps(self, home_id: str) -> list[str]:
        return list(
            self.call("installed_apps", {"home_id": home_id})["apps"]
        )

    def stats(self, home_id: str) -> DetectionStatsRecord:
        return DetectionStatsRecord.from_json(
            self.call("stats", {"home_id": home_id})
        )

    def ingest_events(
        self, request: MonitorEventRequest
    ) -> list[ObservationRecord]:
        """Stream one batch of device events into the home's runtime
        monitor.  Retry-safe: set ``batch_id`` on the request and a
        resent batch returns the original observations instead of
        double-counting (the server's exactly-once contract)."""
        response = self.call("ingest_events", request.to_json())
        return [
            ObservationRecord.from_json(record)
            for record in response["observations"]
        ]

    def observations(self, home_id: str) -> list[ObservationRecord]:
        """One home's full persisted observation ledger."""
        return [
            ObservationRecord.from_json(record)
            for record in self.call(
                "observations", {"home_id": home_id}
            )["observations"]
        ]

    def status(self) -> ServerStatusRecord:
        return ServerStatusRecord.from_json(self.call("status"))

    def echo(self, record) -> dict:
        """Round-trip any wire record (dataclass instance or raw JSON
        object) through the server's strict decoder."""
        payload = record.to_json() if hasattr(record, "to_json") else record
        return self.call("echo", payload)


class AsyncFleetClient:
    """Asyncio JSON-RPC client: one connection, sequential calls.

    Built for fan-out — the load benchmark opens one per simulated
    tenant, so hundreds of concurrent connections fit in one process.
    ``call`` returns ``(result, error)`` instead of raising: under
    deliberate quota pressure, rejections are data, not exceptions —
    and so are connection failures, which come back as a
    :class:`TransportConnectionError` in the error slot.  An optional
    ``retry`` policy resends retryable failures (with
    ``asyncio.sleep`` backoff) before reporting them."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._ids = itertools.count(1)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        # Forget the streams first, so a cancelled close still leaves
        # the client disconnected (the next call reconnects).
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # the peer reset first: the socket is closed anyway

    async def __aenter__(self) -> "AsyncFleetClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def call(
        self, method: str, params: object = None
    ) -> tuple[object, ServiceError | None]:
        policy = self.retry
        attempts = policy.attempts if policy is not None else 1
        for attempt in range(1, attempts + 1):
            try:
                result, error = await self._call_once(method, params)
            except (OSError, EOFError, asyncio.IncompleteReadError) as exc:
                await self.close()
                error = TransportConnectionError(
                    f"fleet call {method!r} to "
                    f"{self.host}:{self.port} failed: "
                    f"{type(exc).__name__}: {exc}",
                    host=self.host,
                    port=self.port,
                    method=method,
                )
                error.__cause__ = exc
                result = None
            if (
                error is not None
                and policy is not None
                and attempt < attempts
                and error.code in RETRYABLE_CODES
            ):
                await asyncio.sleep(policy.delay(attempt))
                continue
            return result, error
        raise AssertionError("unreachable")  # pragma: no cover

    async def _call_once(
        self, method: str, params: object = None
    ) -> tuple[object, ServiceError | None]:
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = json.dumps(
            {
                "jsonrpc": "2.0",
                "id": next(self._ids),
                "method": method,
                "params": params,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        head = (
            f"POST /rpc HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status, response = await asyncio.wait_for(
            self._read_response(), self.timeout
        )
        return decode_rpc_response(status, response)

    async def _read_response(self) -> tuple[int, bytes]:
        assert self._reader is not None
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
            elif (
                name.strip().lower() == "connection"
                and value.strip().lower() == "close"
            ):
                close = True
        body = await self._reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, body
