"""The asyncio fleet server (DESIGN.md §13).

:class:`FleetServer` puts a socket in front of one
:class:`~repro.service.service.HomeGuardService`: a stdlib-only
HTTP/1.1 + JSON-RPC front end exposing ``install`` / ``decide`` /
``audit`` / ``status`` (plus the home-admin calls) per tenant home,
decoding requests through the strict wire schemas of
:mod:`repro.service.schemas` and answering every failure with a typed
:class:`~repro.service.errors.ServiceError` record — never a traceback.

Around the raw socket layer sits the fleet-serving machinery:

* **intake** (event loop): parse frames, enforce the request-size cap,
  reject duplicated JSON fields, stamp a request id;
* **admission** (:mod:`.quota`): per-tenant token-bucket quotas and
  max-inflight bounds, checked before any service state is touched;
* **scheduling** (:mod:`.scheduler`): admitted work queues per tenant
  and reaches the one shared
  :class:`~repro.constraints.dispatch.SolverDispatcher` in
  weighted-fair order instead of arrival (FIFO) order;
* **accounting**: request-ID'd structured access logs (the
  ``repro.service.transport.access`` logger emits one JSON line per
  request) with per-phase latency counters — parse / admit / queue /
  execute / write — surfaced as a
  :class:`~repro.service.schemas.ServerStatusRecord` via the
  ``status`` RPC;
* **drain**: :meth:`FleetServer.drain` flips the server to rejecting
  new intake with a *retryable* ``unavailable`` error (HTTP 503 +
  ``Retry-After``) while every in-flight session completes;
  :meth:`FleetServer.close` drains first, then releases the socket,
  the scheduler's executor and (with ``own_service=True``) the
  service's shared process pool and solve cache — idempotent and safe
  to call concurrently;
* **deadlines** (DESIGN.md §15): with ``request_deadline_seconds``
  set, admitted work that sat in the fair-scheduling queue past the
  deadline is *not* executed — the client gets a typed, retryable
  ``unavailable`` error (``reason="deadline-exceeded"``) instead of a
  result it stopped waiting for, and ``deadline_rejections`` counts
  every such shed request in the ``status`` record.

:func:`serve_background` runs a server on a dedicated event-loop
thread and hands back a blocking handle — what synchronous tests,
examples and the service-equivalence gate use.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.service.errors import (
    InvalidRequestError,
    QuotaExceededError,
    RequestTooLargeError,
    ServiceError,
    UnavailableError,
    UnknownSessionError,
)
from repro.service.schemas import (
    AuditRequest,
    DecisionRequest,
    InstallRequest,
    MonitorEventRequest,
    ServerStatusRecord,
    decode_wire,
)
from repro.service.service import HomeGuardService
from repro.service.transport.framing import (
    DEFAULT_MAX_REQUEST_BYTES,
    MAX_HEADER_BYTES,
    FrameError,
    encode_error,
    encode_result,
    http_response,
    http_status_of,
    parse_http_head,
    parse_rpc,
)
from repro.service.transport.quota import AdmissionController, TenantQuota
from repro.service.transport.scheduler import FairScheduler
from repro.testing.faults import fault_hook

access_log = logging.getLogger("repro.service.transport.access")
server_log = logging.getLogger("repro.service.transport")

#: Latency phases of one request, in order.
PHASES = ("parse", "admit", "queue", "execute", "write")

#: Methods answered inline on the event loop: no quota, no queue, and
#: available while draining — exactly what a health/metrics probe needs.
INLINE_METHODS = frozenset({"status"})

#: Tenant key for methods that carry no home_id (e.g. ``echo``).
UNTENANTED = "-"


class _TenantCounters:
    __slots__ = ("requests", "completed", "quota_rejections",
                 "admission_rejections")

    def __init__(self) -> None:
        self.requests = 0
        self.completed = 0
        self.quota_rejections = 0
        self.admission_rejections = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "quota_rejections": self.quota_rejections,
            "admission_rejections": self.admission_rejections,
        }


class FleetServer:
    """One long-lived service process absorbing a fleet's traffic.

    Parameters
    ----------
    service:
        The :class:`HomeGuardService` to serve.  With
        ``own_service=True`` the server closes it (dispatcher pool +
        shared solve cache) after its own drain — the shutdown ordering
        that keeps the WAL-SQLite cache and process pool clean under
        in-flight load.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    quota:
        Default :class:`TenantQuota` (rate/burst/max-inflight/weight)
        for every tenant; ``tenant_quotas`` overrides per home id.
    max_inflight_total:
        Server-wide admission bound across all tenants.
    max_request_bytes:
        Request bodies above this are refused with a typed
        ``request-too-large`` error before being read.
    io_timeout:
        Seconds to wait for a promised request body; a truncated body
        yields a typed error response, not a hung connection.
    idle_timeout:
        Seconds a keep-alive connection may sit idle between requests.
    on_access:
        Optional callback receiving each access-log record (a dict) —
        the test batteries use it to observe execution order.
    request_deadline_seconds:
        Optional bound on how long an admitted request may wait in the
        scheduling queue before execution.  Work still queued past the
        deadline is shed with a retryable ``unavailable`` error
        (``reason="deadline-exceeded"``) instead of being executed for
        a client that has likely timed out — the overload valve that
        keeps queue time bounded.  ``None`` (default) never sheds.
    """

    def __init__(
        self,
        service: HomeGuardService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        quota: TenantQuota | None = None,
        tenant_quotas: dict[str, TenantQuota] | None = None,
        max_inflight_total: int = 1024,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        io_timeout: float = 30.0,
        idle_timeout: float = 120.0,
        own_service: bool = False,
        on_access: Callable[[dict], None] | None = None,
        request_deadline_seconds: float | None = None,
        clock=time.monotonic,
    ) -> None:
        if request_deadline_seconds is not None and (
            request_deadline_seconds <= 0
        ):
            raise ValueError(
                "request_deadline_seconds must be positive, got "
                f"{request_deadline_seconds!r}"
            )
        self.service = service
        self.host = host
        self.port = port
        self.max_request_bytes = max_request_bytes
        self.io_timeout = io_timeout
        self.idle_timeout = idle_timeout
        self.own_service = own_service
        self.on_access = on_access
        self.request_deadline_seconds = request_deadline_seconds
        self.state = "closed"  # closed -> serving -> draining -> closed
        self._admission = AdmissionController(
            quota if quota is not None else TenantQuota(),
            tenant_quotas,
            max_inflight_total=max_inflight_total,
            clock=clock,
        )
        self._server: asyncio.base_events.Server | None = None
        self._scheduler: FairScheduler | None = None
        self._scheduler_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._close_lock: asyncio.Lock | None = None
        self._rid = 0
        # Process-lifetime accounting (all mutated on the event loop).
        self.requests_total = 0
        self.errors_total = 0
        self.internal_errors = 0
        self.quota_rejections = 0
        self.admission_rejections = 0
        self.drain_rejections = 0
        self.deadline_rejections = 0
        self._phase_seconds = {phase: 0.0 for phase in PHASES}
        self._phase_counts = {phase: 0 for phase in PHASES}
        self._tenants: dict[str, _TenantCounters] = {}
        self._methods: dict[str, Callable] = {
            "create_home": self._rpc_create_home,
            "register_device": self._rpc_register_device,
            "install": self._rpc_install,
            "decide": self._rpc_decide,
            "audit": self._rpc_audit,
            "session": self._rpc_session,
            "sessions": self._rpc_sessions,
            "installed_apps": self._rpc_installed_apps,
            "stats": self._rpc_stats,
            "ingest_events": self._rpc_ingest_events,
            "observations": self._rpc_observations,
            "echo": self._rpc_echo,
        }

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        if self.state != "closed":
            raise RuntimeError(f"server already {self.state}")
        self._close_lock = asyncio.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fleet-exec"
        )
        self._scheduler = FairScheduler(self._executor)
        self._scheduler_task = asyncio.get_running_loop().create_task(
            self._scheduler.run()
        )
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=MAX_HEADER_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.state = "serving"
        server_log.info(
            "fleet server listening on %s:%d", self.host, self.port
        )

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def drain(self) -> None:
        """Stop taking new work; return once every admitted request has
        completed.  Idempotent, and callable concurrently — every
        caller returns once the server is quiescent."""
        if self.state == "serving":
            self.state = "draining"
            server_log.info("fleet server draining")
        while self._admission.inflight_total > 0:
            await asyncio.sleep(0.005)

    async def close(self) -> None:
        """Drain, then release the socket, the scheduler executor and
        (when owned) the service's shared pool/cache.  Idempotent and
        safe to call concurrently: one caller does the work under the
        lock, the rest wait and return."""
        if self._close_lock is None:  # never started
            self.state = "closed"
            return
        async with self._close_lock:
            if self.state == "closed":
                return
            await self.drain()
            self.state = "closed"
            if self._scheduler is not None:
                self._scheduler.stop()
            if self._scheduler_task is not None:
                await self._scheduler_task
                self._scheduler_task = None
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
                self._server = None
            for writer in list(self._connections):
                writer.close()
            self._connections.clear()
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            if self.own_service:
                self.service.close()
            server_log.info("fleet server closed")

    async def __aenter__(self) -> "FleetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Connection handling

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while self.state != "closed":
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except ConnectionError:
            pass  # the peer went away mid-request: the finally cleans up
        finally:
            # Cancellation (loop shutdown) propagates after this cleanup.
            self._connections.discard(writer)
            try:
                writer.close()
            except Exception:
                pass  # closing a broken transport: nothing left to free

    async def _read_head(self, reader: asyncio.StreamReader) -> bytes | None:
        """The raw request head, ``None`` for a clean EOF, or a
        :class:`FrameError` for an unusable stream."""
        try:
            return await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self.idle_timeout
            )
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between requests
            raise FrameError(
                InvalidRequestError(
                    "connection closed mid-request (truncated head)"
                )
            ) from exc
        except (asyncio.LimitOverrunError, ValueError) as exc:
            raise FrameError(
                RequestTooLargeError(
                    f"request head exceeds {MAX_HEADER_BYTES} bytes"
                )
            ) from exc
        except asyncio.TimeoutError:
            return None  # idle keep-alive connection: close silently

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        timings = {phase: 0.0 for phase in PHASES}
        rid = None
        try:
            head_bytes = await self._read_head(reader)
            if head_bytes is None:
                return False
            started = time.perf_counter()
            self._rid += 1
            rid = f"r{self._rid:08d}"
            head = parse_http_head(head_bytes)
            if head.method != "POST":
                raise FrameError(
                    InvalidRequestError(
                        f"method {head.method!r} not allowed; POST a "
                        "JSON-RPC envelope to /rpc"
                    ),
                    status=405,
                    close=head.content_length in (None, 0),
                )
            if head.target not in ("/rpc", "/"):
                raise FrameError(
                    InvalidRequestError(
                        f"unknown target {head.target!r}; RPCs go to /rpc"
                    ),
                    status=404,
                )
            length = head.content_length
            if length is None:
                raise FrameError(
                    InvalidRequestError(
                        "Content-Length is required (chunked bodies are "
                        "not supported)"
                    )
                )
            if length > self.max_request_bytes:
                raise FrameError(
                    RequestTooLargeError(
                        f"request body of {length} bytes exceeds the "
                        f"{self.max_request_bytes}-byte cap",
                        limit=self.max_request_bytes,
                    )
                )
            body = await self._read_body(reader, length)
            rpc = parse_rpc(body)
            timings["parse"] = time.perf_counter() - started
        except FrameError as exc:
            self.errors_total += 1
            await self._respond_error(
                writer, None, exc.error, exc.status, rid,
                keep_alive=not exc.close, timings=timings,
                method=None, tenant=None,
            )
            return not exc.close
        self.requests_total += 1
        keep_alive = head.keep_alive
        await self._dispatch(writer, rpc, rid, timings, keep_alive)
        return keep_alive

    async def _read_body(
        self, reader: asyncio.StreamReader, length: int
    ) -> bytes:
        try:
            return await asyncio.wait_for(
                reader.readexactly(length), self.io_timeout
            )
        except asyncio.IncompleteReadError as exc:
            raise FrameError(
                InvalidRequestError(
                    f"truncated request body: promised {length} bytes, "
                    f"received {len(exc.partial)}"
                )
            ) from exc
        except asyncio.TimeoutError:
            raise FrameError(
                InvalidRequestError(
                    f"truncated request body: promised {length} bytes "
                    f"never arrived within {self.io_timeout:.1f}s"
                )
            ) from None

    # ------------------------------------------------------------------
    # Dispatch

    @staticmethod
    def _tenant_of(rpc) -> str:
        params = rpc.params
        if isinstance(params, dict):
            home_id = params.get("home_id")
            if isinstance(home_id, str) and home_id:
                return home_id
        return UNTENANTED

    def _tenant_counters(self, tenant: str) -> _TenantCounters:
        counters = self._tenants.get(tenant)
        if counters is None:
            counters = self._tenants[tenant] = _TenantCounters()
        return counters

    async def _dispatch(
        self, writer, rpc, rid: str, timings: dict, keep_alive: bool
    ) -> None:
        tenant = self._tenant_of(rpc)
        counters = self._tenant_counters(tenant)
        counters.requests += 1
        handler = self._methods.get(rpc.method)
        if rpc.method in INLINE_METHODS:
            # Health/metrics path: no quota, no queue, works mid-drain.
            result = self._status_record().to_json()
            await self._respond_result(
                writer, rpc, result, rid, keep_alive, timings,
                tenant=tenant,
            )
            counters.completed += 1
            return
        if handler is None:
            self.errors_total += 1
            await self._respond_error(
                writer, rpc, InvalidRequestError(
                    f"unknown method {rpc.method!r}; valid methods: "
                    + ", ".join(sorted(set(self._methods) | INLINE_METHODS))
                ),
                None, rid, keep_alive, timings, rpc.method, tenant,
                jsonrpc_code=-32601,
            )
            return

        admit_started = time.perf_counter()
        if self.state != "serving":
            self.drain_rejections += 1
            self.errors_total += 1
            timings["admit"] = time.perf_counter() - admit_started
            await self._respond_error(
                writer, rpc, UnavailableError(
                    "server is draining; retry against a live instance",
                    retryable=True, reason="draining",
                ),
                None, rid, keep_alive, timings, rpc.method, tenant,
                retry_after=1.0,
            )
            return
        verdict = self._admission.admit(tenant)
        timings["admit"] = time.perf_counter() - admit_started
        if verdict == "quota":
            quota = self._admission.quota_for(tenant)
            retry_after = 1.0 / quota.rate if quota.rate > 0 else None
            self.quota_rejections += 1
            counters.quota_rejections += 1
            self.errors_total += 1
            await self._respond_error(
                writer, rpc, QuotaExceededError(
                    f"tenant {tenant!r} exceeded its request quota "
                    f"({quota.rate:g}/s, burst {quota.burst})",
                    retryable=quota.rate > 0, tenant=tenant,
                ),
                None, rid, keep_alive, timings, rpc.method, tenant,
                retry_after=retry_after,
            )
            return
        if verdict == "inflight":
            self.admission_rejections += 1
            counters.admission_rejections += 1
            self.errors_total += 1
            await self._respond_error(
                writer, rpc, UnavailableError(
                    f"tenant {tenant!r} is at its max-inflight bound; "
                    "retry once queued work completes",
                    retryable=True, reason="max-inflight", tenant=tenant,
                ),
                None, rid, keep_alive, timings, rpc.method, tenant,
                retry_after=0.05,
            )
            return

        queue_started = time.perf_counter()

        def queue_done() -> None:
            timings["queue"] = time.perf_counter() - queue_started

        weight = self._admission.quota_for(tenant).weight
        try:
            execute_box = {}

            deadline = self.request_deadline_seconds

            def job(params=rpc.params, handler=handler):
                job_started = time.perf_counter()
                queued_for = job_started - queue_started
                if deadline is not None and queued_for > deadline:
                    # Shed, don't execute: the client has likely given
                    # up on a request that waited this long, and doing
                    # the work anyway only deepens the queue.
                    raise UnavailableError(
                        f"request {rid} spent {queued_for:.3f}s queued, "
                        f"past the {deadline:.3f}s deadline; retry "
                        "against a less-loaded instance",
                        retryable=True, reason="deadline-exceeded",
                        queued_seconds=round(queued_for, 6),
                    )
                try:
                    return handler(params)
                finally:
                    execute_box["seconds"] = (
                        time.perf_counter() - job_started
                    )

            future = self._scheduler.submit(
                tenant, weight, job, on_start=queue_done
            )
            try:
                result = await future
            finally:
                timings["execute"] = execute_box.get("seconds", 0.0)
        except ServiceError as exc:
            self.errors_total += 1
            if exc.details.get("reason") == "deadline-exceeded":
                self.deadline_rejections += 1
            await self._respond_error(
                writer, rpc, exc, None, rid, keep_alive, timings,
                rpc.method, tenant,
                retry_after=(
                    0.05
                    if exc.details.get("reason") == "deadline-exceeded"
                    else None
                ),
            )
            return
        except Exception:
            # The one catch-all: no traceback ever reaches the wire.
            self.internal_errors += 1
            self.errors_total += 1
            server_log.exception(
                "unhandled exception serving %s %s (tenant %s)",
                rid, rpc.method, tenant,
            )
            await self._respond_error(
                writer, rpc, ServiceError(
                    f"internal error serving request {rid}; see the "
                    "server log",
                ),
                None, rid, keep_alive, timings, rpc.method, tenant,
            )
            return
        finally:
            self._admission.release(tenant)
        counters.completed += 1
        await self._respond_result(
            writer, rpc, result, rid, keep_alive, timings, tenant=tenant
        )

    # ------------------------------------------------------------------
    # Responses + accounting

    async def _write(
        self, writer, payload: bytes, timings: dict
    ) -> None:
        started = time.perf_counter()
        try:
            fault_hook("transport.write", bytes=len(payload))
            writer.write(payload)
            await writer.drain()
        except Exception:
            # The client went away, or an injected (or genuinely
            # broken) write: close the connection so the client sees a
            # fast reset instead of waiting out its read timeout — a
            # half-sent response would desynchronise its HTTP framing,
            # turning one lost response into a poisoned keep-alive
            # stream.  Accounting already happened.
            try:
                writer.close()
            except Exception:
                pass  # closing a broken transport: nothing left to free
        timings["write"] = time.perf_counter() - started

    def _account(
        self, rid, method, tenant, status: int, code: str | None,
        timings: dict, bytes_out: int,
    ) -> None:
        for phase in PHASES:
            seconds = timings.get(phase, 0.0)
            if seconds:
                self._phase_seconds[phase] += seconds
                self._phase_counts[phase] += 1
        record = {
            "rid": rid,
            "method": method,
            "tenant": tenant,
            "status": status,
            "code": code,
            "bytes_out": bytes_out,
            "phases_ms": {
                phase: round(timings.get(phase, 0.0) * 1000.0, 3)
                for phase in PHASES
            },
        }
        if access_log.isEnabledFor(logging.INFO):
            access_log.info(json.dumps(record, sort_keys=True))
        if self.on_access is not None:
            try:
                self.on_access(dict(record))
            except Exception:
                server_log.exception("on_access callback failed")

    async def _respond_result(
        self, writer, rpc, result, rid, keep_alive, timings, tenant
    ) -> None:
        body = encode_result(rpc.id if rpc else None, result)
        payload = http_response(
            200, body, keep_alive=keep_alive, request_id=rid
        )
        await self._write(writer, payload, timings)
        self._account(
            rid, rpc.method if rpc else None, tenant, 200, None,
            timings, len(payload),
        )

    async def _respond_error(
        self, writer, rpc, error: ServiceError, status, rid, keep_alive,
        timings, method, tenant, retry_after: float | None = None,
        jsonrpc_code: int | None = None,
    ) -> None:
        body = encode_error(rpc.id if rpc else None, error)
        if jsonrpc_code is not None:
            # Re-encode with the protocol-level code (e.g. -32601).
            envelope = json.loads(body)
            envelope["error"]["code"] = jsonrpc_code
            body = json.dumps(envelope, separators=(",", ":")).encode()
        http_status = status if status is not None else http_status_of(error)
        payload = http_response(
            http_status, body, keep_alive=keep_alive, request_id=rid,
            retry_after=retry_after,
        )
        await self._write(writer, payload, timings)
        self._account(
            rid, method, tenant, http_status, error.code, timings,
            len(payload),
        )

    # ------------------------------------------------------------------
    # Status

    def _status_record(self) -> ServerStatusRecord:
        faults = self.service.fault_summary()
        monitor = self.service.monitor_totals()
        return ServerStatusRecord(
            state=self.state,
            homes=self.service.home_count(),
            homes_resident=self.service.resident_count(),
            requests_total=self.requests_total,
            requests_inflight=self._admission.inflight_total,
            quota_rejections=self.quota_rejections,
            admission_rejections=self.admission_rejections,
            drain_rejections=self.drain_rejections,
            deadline_rejections=self.deadline_rejections,
            errors_total=self.errors_total,
            internal_errors=self.internal_errors,
            breaker_states=self.service.breaker_states(),
            tasks_retried=faults.get("tasks_retried", 0),
            degraded_serial=faults.get("degraded_serial", 0),
            monitor_events=monitor.get("monitor_events", 0),
            monitor_observations=monitor.get("monitor_observations", 0),
            phase_seconds={
                phase: round(seconds, 6)
                for phase, seconds in self._phase_seconds.items()
            },
            phase_counts=dict(self._phase_counts),
            tenants={
                tenant: counters.as_dict()
                for tenant, counters in sorted(self._tenants.items())
            },
        )

    # ------------------------------------------------------------------
    # RPC method handlers (run on the scheduler's executor thread, one
    # at a time — the service object is single-threaded by contract)

    @staticmethod
    def _params_dict(params) -> dict:
        if params is None:
            return {}
        if not isinstance(params, dict):
            raise InvalidRequestError(
                f"params must be an object, got {type(params).__name__}"
            )
        return params

    @staticmethod
    def _param_str(params: dict, name: str) -> str:
        value = params.get(name)
        if not isinstance(value, str) or not value:
            raise InvalidRequestError(
                f"params.{name} must be a non-empty string, got {value!r}"
            )
        return value

    def _rpc_create_home(self, params) -> dict:
        params = self._params_dict(params)
        unknown = set(params) - {"home_id", "policy"}
        if unknown:
            raise InvalidRequestError(
                f"unknown create_home param(s) {sorted(unknown)!r}"
            )
        home_id = self._param_str(params, "home_id")
        policy_name = params.get("policy")
        policy = None
        if policy_name is not None:
            from repro.service.policies import (
                AutoDenyPolicy,
                InteractivePolicy,
            )

            policies = {
                "interactive": InteractivePolicy,
                "auto-deny": AutoDenyPolicy,
            }
            if policy_name not in policies:
                raise InvalidRequestError(
                    f"unknown policy {policy_name!r}; valid policies: "
                    + ", ".join(sorted(policies))
                )
            policy = policies[policy_name]()
        self.service.create_home(home_id, policy=policy)
        return {"home_id": home_id, "created": True}

    def _rpc_register_device(self, params) -> dict:
        params = self._params_dict(params)
        device = self.service.register_device(
            self._param_str(params, "home_id"),
            self._param_str(params, "label"),
            self._param_str(params, "type"),
        )
        return {
            "device_id": device.device_id,
            "label": device.label,
            "type": device.type_name,
        }

    def _rpc_install(self, params) -> dict:
        return self.service.install(
            InstallRequest.from_json(params)
        ).to_json()

    def _rpc_decide(self, params) -> dict:
        return self.service.decide(
            DecisionRequest.from_json(params)
        ).to_json()

    def _rpc_audit(self, params) -> dict:
        reports = self.service.audit(AuditRequest.from_json(params))
        return {"reports": [report.to_json() for report in reports]}

    def _rpc_session(self, params) -> dict:
        params = self._params_dict(params)
        home_id = self._param_str(params, "home_id")
        session_id = self._param_str(params, "session_id")
        session = self.service.session(session_id)
        if session.home_id != home_id:
            # Same no-existence-leak contract as decide(): another
            # tenant's session ids look like they never existed.
            raise UnknownSessionError(
                f"no session {session_id!r} in home {home_id!r}",
                session_id=session_id, home_id=home_id,
            )
        return session.to_json()

    def _rpc_sessions(self, params) -> dict:
        params = self._params_dict(params)
        home_id = params.get("home_id")
        if home_id is not None and not isinstance(home_id, str):
            raise InvalidRequestError(
                f"params.home_id must be a string, got {home_id!r}"
            )
        return {
            "sessions": [
                session.to_json()
                for session in self.service.sessions(home_id)
            ]
        }

    def _rpc_installed_apps(self, params) -> dict:
        params = self._params_dict(params)
        return {
            "apps": self.service.installed_apps(
                self._param_str(params, "home_id")
            )
        }

    def _rpc_stats(self, params) -> dict:
        params = self._params_dict(params)
        return self.service.detection_stats_record(
            self._param_str(params, "home_id")
        ).to_json()

    def _rpc_ingest_events(self, params) -> dict:
        # One batch = one admission-controlled job: a 10k-event burst
        # occupies exactly one scheduler slot, so monitor ingestion
        # cannot starve other tenants' install traffic.
        records = self.service.ingest_events(
            MonitorEventRequest.from_json(params)
        )
        return {"observations": [record.to_json() for record in records]}

    def _rpc_observations(self, params) -> dict:
        params = self._params_dict(params)
        return {
            "observations": [
                record.to_json()
                for record in self.service.observations(
                    self._param_str(params, "home_id")
                )
            ]
        }

    def _rpc_echo(self, params) -> dict:
        # Conformance probe: strict-decode any wire record (requests,
        # responses, transported ServiceErrors) and re-encode it — the
        # loopback proof that frozen dataclasses survive the socket.
        return decode_wire(params).to_json()


# ----------------------------------------------------------------------
# Background serving (synchronous callers)


class BackgroundServer:
    """Blocking handle over a :class:`FleetServer` on its own loop
    thread."""

    def __init__(self, server: FleetServer, loop, thread) -> None:
        self._server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def server(self) -> FleetServer:
        return self._server

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/rpc"

    def _run(self, coro, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout
        )

    def drain(self, timeout: float = 60.0) -> None:
        self._run(self._server.drain(), timeout)

    def stop(self, timeout: float = 60.0) -> None:
        """Drain + close the server, stop the loop, join the thread.
        Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        try:
            self._run(self._server.close(), timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)


@contextmanager
def serve_background(
    service: HomeGuardService, **server_kwargs
) -> Iterator[BackgroundServer]:
    """Run a :class:`FleetServer` on a dedicated event-loop thread.

    Yields a :class:`BackgroundServer`; the server is drained and
    closed on exit (the service itself is closed only with
    ``own_service=True``)."""
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot: dict = {}

    def runner() -> None:
        asyncio.set_event_loop(loop)
        server = FleetServer(service, **server_kwargs)
        try:
            loop.run_until_complete(server.start())
            boot["server"] = server
        except BaseException as exc:
            boot["error"] = exc
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=runner, name="fleet-server", daemon=True
    )
    thread.start()
    started.wait(30.0)
    if "error" in boot:
        raise boot["error"]
    if "server" not in boot:
        raise RuntimeError("fleet server failed to start within 30s")
    handle = BackgroundServer(boot["server"], loop, thread)
    try:
        yield handle
    finally:
        handle.stop()
