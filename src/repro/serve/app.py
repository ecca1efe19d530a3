"""Coloring-as-a-service: the HTTP face of the job server.

:class:`ServeApp` glues the pieces together — the ``jobs`` ledger in
the run store, the :class:`~repro.serve.executor.JobExecutor` worker
pool, and the server-wide :class:`~repro.obs.registry.MetricsRegistry`
— and exposes them as plain-JSON endpoints over TCP
(``ThreadingHTTPServer`` on localhost) or a Unix domain socket:

========================  ====================================================
``POST /jobs``            submit a spec (see :mod:`repro.serve.model`);
                          returns the job row, with ``deduped: true`` when an
                          equal-digest job was already queued/running/done
``GET  /jobs``            newest-first job listing (``?state=`` filter)
``GET  /jobs/<id>``       status poll (row without the result payload)
``GET  /jobs/<id>/result``  the finished rows (409 until ``done``)
``POST /jobs/<id>/cancel``  cooperative cancel (between cells)
``POST /jobs/<id>/restart`` re-queue a terminal job for a fresh attempt
``GET  /health``          liveness + queue depth + store schema
``GET  /metrics``         job counters, the metrics registry, store counts
========================  ====================================================

Submissions dedup by :func:`~repro.serve.model.spec_digest`: a repeat
of work that is queued, running, or already done returns the existing
job (poll it, fetch its cached result) instead of recomputing —
failed/cancelled attempts do not block a re-submit.

Request handling is per-request-connection: handler threads open a
short-lived :class:`~repro.store.db.RunStore` per call (WAL mode keeps
readers and the worker threads' writers out of each other's way), so
the ledger — not server memory — is the source of truth, and a
``kill``-ed server loses nothing but in-flight simulated cycles:
``ServeApp(recover=True)`` re-queues every non-terminal row at boot.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from ..obs.registry import MetricsRegistry
from ..store.db import TERMINAL_JOB_STATES, RunStore, _utcnow
from .executor import JobExecutor
from .model import SpecError, expand_spec, new_job_id, normalize_spec, spec_digest

__all__ = [
    "ApiError",
    "ServeApp",
    "make_server",
    "make_unix_server",
    "run_server",
]


#: largest request body the server reads; a job spec is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20


class ApiError(Exception):
    """An error with an HTTP status (the handler turns it into JSON)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _job_view(row: dict[str, Any], *, with_result: bool = False) -> dict[str, Any]:
    """The wire shape of a job row (result stripped unless asked for)."""
    view = dict(row)
    view.pop("id", None)
    if not with_result:
        view.pop("result", None)
    view["spec"] = json.loads(row["spec"]) if isinstance(row["spec"], str) else row["spec"]
    return view


class ServeApp:
    """Server state + request logic, independent of the HTTP plumbing.

    Keeping the logic off the handler makes the whole lifecycle —
    submit, dedup, cancel, restart, recover, drain — drivable from
    tests without a socket in sight.
    """

    def __init__(
        self,
        store_path: str | Path,
        *,
        workers: int = 1,
        job_workers: int = 1,
        recover: bool = False,
    ) -> None:
        self.store_path = str(store_path)
        # create/migrate eagerly so a bad store fails at boot, not on
        # the first request
        RunStore(self.store_path).close()
        self.registry = MetricsRegistry()
        self.executor = JobExecutor(
            self.store_path,
            registry=self.registry,
            workers=workers,
            job_workers=job_workers,
        )
        self._submit_lock = threading.Lock()
        self.started_at = time.time()
        self.recovered: list[str] = []
        self.executor.start()
        if recover:
            self.recovered = self.recover()

    def open_store(self) -> RunStore:
        return RunStore(self.store_path)

    def close(self) -> None:
        self.executor.stop()

    # -- lifecycle verbs ------------------------------------------------

    def recover(self) -> list[str]:
        """Re-queue every non-terminal job; returns the re-queued ids."""
        with self.open_store() as store:
            ids = store.reset_interrupted_jobs()
        for job_id in ids:
            self.executor.submit(job_id, counter="recovered")
        return ids

    def submit(self, raw_spec: Any) -> tuple[dict[str, Any], bool]:
        """Validate, dedup, and enqueue; returns (job view, deduped?)."""
        try:
            spec = normalize_spec(raw_spec)
            digest = spec_digest(spec)
            plan = expand_spec(spec)
        except SpecError as exc:
            raise ApiError(400, str(exc)) from None
        with self._submit_lock, self.open_store() as store:
            for row in store.jobs_by_digest(digest):
                if row["state"] not in TERMINAL_JOB_STATES or row["state"] == "done":
                    self.executor._bump("deduped")
                    return _job_view(row), True
            job_id = new_job_id()
            store.insert_job(
                job_id=job_id,
                kind=spec["kind"],
                spec=json.dumps(spec, sort_keys=True),
                spec_digest=digest,
                cells=plan.num_cells,
            )
            row = store.job(job_id)
        self.executor.submit(job_id)
        assert row is not None
        return _job_view(row), False

    def _fetch(self, store: RunStore, job_id: str) -> dict[str, Any]:
        row = store.job(job_id)
        if row is None:
            raise ApiError(404, f"no job {job_id!r}")
        return row

    def job(self, job_id: str) -> dict[str, Any]:
        with self.open_store() as store:
            return _job_view(self._fetch(store, job_id))

    def result(self, job_id: str) -> dict[str, Any]:
        with self.open_store() as store:
            row = self._fetch(store, job_id)
        if row["state"] != "done":
            raise ApiError(
                409, f"job {job_id} is {row['state']}, not done; poll /jobs/{job_id}"
            )
        view = _job_view(row, with_result=True)
        view["result"] = json.loads(row["result"] or "[]")
        return view

    def cancel(self, job_id: str) -> dict[str, Any]:
        with self.open_store() as store:
            row = self._fetch(store, job_id)
            if row["state"] in TERMINAL_JOB_STATES:
                return _job_view(row)  # nothing left to cancel
            self.executor.cancel(job_id)
            if row["state"] == "queued":
                # not started yet: finalize right here; a worker that
                # dequeues it later sees the non-queued state and skips
                store.update_job(
                    job_id, state="cancelled", finished_at=_utcnow()
                )
            return _job_view(self._fetch(store, job_id))

    def restart(self, job_id: str) -> dict[str, Any]:
        with self.open_store() as store:
            row = self._fetch(store, job_id)
            if row["state"] not in TERMINAL_JOB_STATES:
                raise ApiError(
                    409, f"job {job_id} is {row['state']}; only terminal jobs restart"
                )
            store.update_job(
                job_id,
                state="queued",
                error="",
                result=None,
                cells_done=0,
                started_at=None,
                finished_at=None,
            )
            row = self._fetch(store, job_id)
        self.executor.submit(job_id)
        return _job_view(row)

    def jobs(
        self, *, state: str | None = None, limit: int = 50
    ) -> list[dict[str, Any]]:
        with self.open_store() as store:
            rows = store.list_jobs(state=state, limit=limit)
        return [_job_view(r) for r in rows]

    # -- introspection --------------------------------------------------

    def health(self) -> dict[str, Any]:
        with self.open_store() as store:
            schema = store.schema_version()
        return {
            "ok": True,
            "store": self.store_path,
            "schema": schema,
            "uptime_s": round(time.time() - self.started_at, 3),
            "inflight": self.executor.inflight,
            "workers": self.executor.workers,
            "job_workers": self.executor.job_workers,
            "recovered": len(self.recovered),
        }

    def metrics(self) -> dict[str, Any]:
        with self.open_store() as store:
            counts = store.counts()
        return {
            "jobs": self.executor.counters_snapshot(),
            "registry": self.executor.registry_snapshot(),
            "store": counts,
        }


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto a bound :class:`ServeApp`."""

    app: ServeApp  # bound by make_server via a subclass attribute
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the CLI prints its own lifecycle lines; requests stay quiet

    def address_string(self) -> str:
        # AF_UNIX peers have no (host, port); don't let logging blow up
        try:
            return super().address_string()
        except (IndexError, TypeError):  # pragma: no cover
            return "local"

    def _send_json(self, status: int, doc: Any) -> None:
        body = json.dumps(doc, indent=2).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            self.close_connection = True  # the body's extent is unknown
            raise ApiError(400, f"Content-Length {header!r} is not a byte count")
        length = int(header)
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # leave the body unread
            raise ApiError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"request body is not JSON: {exc}") from None

    def _route(self, method: str) -> None:
        from urllib.parse import parse_qs, urlparse

        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        try:
            self._dispatch(method, parts, query)
        except ApiError as exc:
            self._send_json(exc.status, {"error": exc.message})
        except Exception as exc:  # noqa: BLE001 - one request, one error
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _dispatch(self, method: str, parts: list[str], query: dict[str, str]) -> None:
        app = self.app
        if method == "GET" and parts == ["health"]:
            self._send_json(200, app.health())
        elif method == "GET" and parts == ["metrics"]:
            self._send_json(200, app.metrics())
        elif method == "GET" and parts == ["jobs"]:
            limit = int(query.get("limit", 50))
            self._send_json(
                200, {"jobs": app.jobs(state=query.get("state"), limit=limit)}
            )
        elif method == "POST" and parts == ["jobs"]:
            view, deduped = app.submit(self._read_body())
            self._send_json(200 if deduped else 201, {**view, "deduped": deduped})
        elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            self._send_json(200, app.job(parts[1]))
        elif len(parts) == 3 and parts[0] == "jobs":
            job_id, verb = parts[1], parts[2]
            if method == "GET" and verb == "result":
                self._send_json(200, app.result(job_id))
            elif method == "POST" and verb == "cancel":
                self._send_json(200, app.cancel(job_id))
            elif method == "POST" and verb == "restart":
                self._send_json(200, app.restart(job_id))
            else:
                raise ApiError(404, f"no such endpoint: {method} {self.path}")
        else:
            raise ApiError(404, f"no such endpoint: {method} {self.path}")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._route("POST")


class UnixHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to a Unix domain socket path."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        path = self.server_address
        assert isinstance(path, (str, bytes))
        Path(str(path)).unlink(missing_ok=True)  # stale socket from a kill
        self.socket.bind(path)
        self.server_name = str(path)
        self.server_port = 0


def _bind_handler(app: ServeApp) -> type[_Handler]:
    return type("BoundHandler", (_Handler,), {"app": app})


def make_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A TCP server for ``app``; ``port=0`` picks an ephemeral port."""
    server = ThreadingHTTPServer((host, port), _bind_handler(app))
    server.daemon_threads = True
    return server


def make_unix_server(app: ServeApp, socket_path: str | Path) -> UnixHTTPServer:
    """A Unix-domain-socket server for ``app``."""
    server = UnixHTTPServer(str(socket_path), _bind_handler(app))
    server.daemon_threads = True
    return server


def run_server(
    server: ThreadingHTTPServer,
    app: ServeApp,
    *,
    drain: bool = False,
    stop_event: threading.Event | None = None,
    poll_s: float = 0.1,
) -> None:
    """Serve until stopped (or, with ``drain``, until the queue empties).

    ``drain`` keeps every endpoint live while the executor finishes all
    known work, then exits — the deterministic shape CI's kill/recover
    smoke needs. ``stop_event`` is the signal-handler hook: setting it
    shuts the server down from any thread.
    """
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        if stop_event is None:
            stop_event = threading.Event()
        while not stop_event.is_set():
            if drain and app.executor.inflight == 0:
                break
            stop_event.wait(poll_s)
    finally:
        server.shutdown()
        server.server_close()
        app.close()
        thread.join(timeout=5.0)
