"""Asyncio front-end for the campaign service: plans in, SSE events out.

``repro serve`` binds a :class:`CampaignServer` — a deliberately small
stdlib-only HTTP/1.1 endpoint (no web framework in the dependency set) that
multiplexes any number of concurrent clients onto one shared
:class:`~repro.service.daemon.WorkerDaemon`:

* ``GET /health`` — JSON snapshot: worker pids, tasks dispatched, pool
  restarts, owned shared-memory segments, campaigns served.
* ``POST /campaigns`` — body is a campaign plan exactly as
  :meth:`repro.campaign.Campaign.from_dict` accepts it (the ``repro
  campaign run`` plan-file format).  The response is a
  ``text/event-stream``: one server-sent event per streamed
  :class:`~repro.campaign.CampaignEvent` (``progress`` / ``completed`` /
  ``retried`` / ``failed``, each ``data:`` line the JSON form of the event)
  followed by a terminal ``result`` event carrying every entry's run set
  plus execution stats — the same payload shape ``repro campaign run
  --json`` writes.

Each campaign runs its ordinary :class:`~repro.campaign.CampaignExecutor`
in a worker thread with a :class:`~repro.service.daemon.PersistentPoolBackend`;
the event loop only parses requests and forwards events, so slow clients
never stall the simulation.  Warm requests — every task already in the
result store — are served entirely from the executor's cache-hits-first
path and never touch a daemon worker.

The server intentionally applies no per-task timeout by default: a timeout
kill terminates the *shared* daemon's workers, collateral included (see
:mod:`repro.service.daemon`); pass an explicit :class:`RetryPolicy` to opt
in anyway.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Any, Dict, Optional, Tuple, Union

from repro import __version__
from repro.campaign import (
    Campaign,
    CampaignEvent,
    CampaignExecutor,
    CampaignProgress,
    CampaignResult,
    RetryPolicy,
    TaskCompleted,
    TaskFailed,
    TaskRetried,
)
from repro.service.daemon import PersistentPoolBackend, WorkerDaemon
from repro.store import ResultStore
from repro.utils.serialization import to_jsonable
from repro.utils.validation import ValidationError

__all__ = ["CampaignServer", "event_name", "event_payload", "serve"]

#: Queue sentinel: the executor thread is done (result or exception follows).
_DONE = object()

#: Largest request body the server reads.  A campaign plan is a few KB of
#: JSON; a longer declared ``Content-Length`` is answered 413 unread.
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _RequestError(Exception):
    """A request the server answers with an error status, unread body and all."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_EVENT_NAMES = (
    (TaskCompleted, "completed"),
    (TaskRetried, "retried"),
    (TaskFailed, "failed"),
    (CampaignProgress, "progress"),
)


def event_name(event: CampaignEvent) -> str:
    """The SSE ``event:`` field for one streamed campaign event."""
    for kind, name in _EVENT_NAMES:
        if isinstance(event, kind):
            return name
    return "event"  # pragma: no cover - exhaustive over CampaignEvent


def event_payload(event: CampaignEvent) -> Dict[str, Any]:
    """The SSE ``data:`` JSON for one streamed campaign event."""
    payload = to_jsonable(event)
    task = getattr(event, "task", None)
    if task is not None:
        payload["task"]["task_id"] = task.task_id
    return payload


class CampaignServer:
    """The asyncio HTTP/SSE front-end over one shared worker daemon.

    Parameters mirror :class:`~repro.campaign.CampaignExecutor` where they
    overlap: ``store`` is resolved once and shared by every campaign (one
    cached SQLite connection per serving thread, not one per request), and
    ``retry`` applies to every served campaign (default: no retries, no
    timeout).  ``port=0`` binds an ephemeral port, published as
    :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        daemon: Optional[WorkerDaemon] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Union[ResultStore, None, str] = "default",
        retry: Optional[RetryPolicy] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.daemon = daemon if daemon is not None else WorkerDaemon(max_workers)
        self.host = host
        self.port = port
        if store == "default":
            self.store: Optional[ResultStore] = ResultStore()
        elif store is None or isinstance(store, ResultStore):
            self.store = store
        else:
            raise ValidationError(
                "store must be a ResultStore, None, or the string 'default'"
            )
        self.retry = retry
        self._server: Optional[asyncio.AbstractServer] = None
        self._lock = threading.Lock()
        self.campaigns_served = 0
        self.active_campaigns = 0

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> "CampaignServer":
        """Bind and start accepting clients (idempotent)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting clients (the daemon's lifecycle stays the owner's)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------- HTTP layer
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except _RequestError as error:
                await self._send_json(writer, error.status, {"error": str(error)})
                return
            if request is None:
                return
            method, path, body = request
            if method == "GET" and path == "/health":
                await self._send_json(writer, 200, self.health())
            elif method == "POST" and path == "/campaigns":
                await self._serve_campaign(writer, body)
            else:
                await self._send_json(
                    writer,
                    404,
                    {"error": f"no route for {method} {path}",
                     "routes": ["GET /health", "POST /campaigns"]},
                )
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - already-dead transport
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, bytes]]:
        """Parse one HTTP/1.1 request (method, path, body) — or None on EOF.

        Raises :class:`_RequestError` for a malformed or negative
        ``Content-Length`` (400) and for one above :data:`MAX_BODY_BYTES`
        (413); the body is not read in either case.
        """
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _RequestError(400, f"malformed Content-Length: {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _RequestError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(length) if length > 0 else b""
        return method, target.split("?", 1)[0], body

    @staticmethod
    async def _send_json(
        writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    async def _send_event(
        writer: asyncio.StreamWriter, name: str, payload: Dict[str, Any]
    ) -> None:
        frame = f"event: {name}\ndata: {json.dumps(payload)}\n\n".encode("utf-8")
        writer.write(frame)
        await writer.drain()

    # ---------------------------------------------------------- the endpoints
    def health(self) -> Dict[str, Any]:
        """The ``GET /health`` body (also handy for in-process checks)."""
        stats = self.daemon.stats()
        stats.update(
            {
                "status": "ok",
                "version": __version__,
                "campaigns_served": self.campaigns_served,
                "active_campaigns": self.active_campaigns,
                "store": str(self.store.root) if self.store is not None else None,
                "store_backend": (
                    self.store.backend.name if self.store is not None else None
                ),
            }
        )
        return stats

    async def _serve_campaign(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            plan = json.loads(body.decode("utf-8"))
            campaign = Campaign.from_dict(plan)
        except (ValueError, ValidationError) as error:
            await self._send_json(writer, 400, {"error": str(error)})
            return

        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()

        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def emit(event: CampaignEvent) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, event)

        def work() -> CampaignResult:
            executor = CampaignExecutor(
                campaign,
                parallel=True,
                max_workers=self.daemon.max_workers,
                store=self.store,
                retry=self.retry,
                backend=PersistentPoolBackend(self.daemon),
            )
            try:
                # strict=False: exhausted tasks ride in the result payload as
                # structured failures instead of tearing the stream down.
                return executor.collect(strict=False, on_event=emit)
            finally:
                loop.call_soon_threadsafe(queue.put_nowait, _DONE)

        with self._lock:
            self.active_campaigns += 1
        try:
            task = loop.run_in_executor(None, work)
            while True:
                event = await queue.get()
                if event is _DONE:
                    break
                await self._send_event(writer, event_name(event), event_payload(event))
            try:
                result = await task
            except Exception as error:  # noqa: BLE001 - surfaced to the client
                await self._send_event(writer, "error", {"error": repr(error)})
                return
            await self._send_event(
                writer, "result", self._result_payload(campaign, result)
            )
        finally:
            with self._lock:
                self.active_campaigns -= 1
                self.campaigns_served += 1

    def _result_payload(
        self, campaign: Campaign, result: CampaignResult
    ) -> Dict[str, Any]:
        """The terminal ``result`` event: ``repro campaign run --json`` shape."""
        return {
            "name": campaign.name,
            "labels": list(result.labels),
            "runsets": {label: to_jsonable(runset) for label, runset in result},
            "execution": {
                "tasks": result.total_tasks,
                "cache_hits": result.cache_hits,
                "cache_misses": result.cache_misses,
                "elapsed_seconds": result.elapsed_seconds,
                "parallel": True,
                "workers": self.daemon.max_workers,
                "tasks_dispatched": self.daemon.tasks_dispatched,
                "store": str(self.store.root) if self.store is not None else None,
                "store_backend": (
                    self.store.backend.name if self.store is not None else None
                ),
                "task_retries": result.task_retries,
                "failures": [
                    {
                        "task": failure.task.task_id,
                        "lambda_g": failure.task.lambda_g,
                        "attempts": failure.attempts,
                        "error": failure.error,
                    }
                    for failure in result.failures
                ],
            },
        }


async def _serve_async(server: CampaignServer) -> None:
    await server.start()
    print(f"repro campaign service on http://{server.host}:{server.port}")
    print("endpoints: GET /health, POST /campaigns (SSE stream)")
    loop = asyncio.get_running_loop()
    stop: asyncio.Future = loop.create_future()

    def _request_stop(*_args: Any) -> None:
        if not stop.done():
            stop.set_result(None)

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, _request_stop)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-Unix
            signal.signal(signum, lambda *_: _request_stop())
    await stop
    print("shutting down: stopping workers and unlinking shared memory")
    await server.stop()


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    daemon: Optional[WorkerDaemon] = None,
    store: Union[ResultStore, None, str] = "default",
    retry: Optional[RetryPolicy] = None,
    max_workers: Optional[int] = None,
) -> None:
    """Blocking entry point: serve until SIGINT/SIGTERM, then clean up.

    Shutdown order matters: the listener stops first (no new campaigns),
    then the daemon terminates its workers and unlinks every shared-memory
    segment it exported — the guarantee the ``/dev/shm`` leak test pins.
    """
    server = CampaignServer(
        daemon, host=host, port=port, store=store, retry=retry, max_workers=max_workers
    )
    try:
        asyncio.run(_serve_async(server))
    finally:
        server.daemon.shutdown()
