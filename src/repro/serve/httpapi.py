"""The daemon's HTTP/JSON surface (stdlib only).

A thin, schema-first edge over :class:`~repro.serve.daemon.AuditDaemon`:
every body is a :mod:`repro.serve.protocol` payload, every handler does
parse -> delegate -> serialize and nothing else.  Built on
``http.server.ThreadingHTTPServer`` so the daemon needs no dependency
beyond the standard library.

Routes::

    GET    /healthz                    liveness + job counts + uptime
    GET    /metrics                    Prometheus text exposition
    POST   /jobs                       submit a JobRequest -> SubmitReply
    GET    /jobs                       every job, newest first
    GET    /jobs/{id}                  JobStatusReply (state + progress)
    GET    /jobs/{id}/events           EventsReply (long-poll stream)
    GET    /jobs/{id}/top              dashboard numbers (progress/rss/stages)
    DELETE /jobs/{id}                  cancel (queued or running)
    GET    /results/{id}/report        stored StudyReport / series dict
    GET    /results/{id}/evidence      explain_document per provider
    GET    /results/{id}/metrics       merged metrics snapshot
    GET    /results/{id}/fingerprint   archive fingerprint record
    GET    /trace/query?job=ID&q=EXPR  trace query over the stored trace

Errors are :class:`~repro.serve.protocol.ErrorReply` bodies with the
matching status code (400 bad payload, 404 unknown job or result, 409
uncancellable state, 503 draining).

Every verb tolerates the client vanishing mid-reply: watch clients are
long-pollers that get killed routinely (Ctrl-C on ``repro client
watch``), and a ``BrokenPipeError`` must neither traceback nor wedge
the handler thread — the connection just closes.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Optional
from urllib.parse import parse_qs, urlsplit

from repro.serve.jobs import UnknownJobError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ErrorReply,
    JobRequest,
    ProtocolError,
    TraceQueryReply,
)

if TYPE_CHECKING:
    from repro.serve.daemon import AuditDaemon

_MAX_BODY = 1 << 20  # 1 MiB: a JobRequest is tiny; refuse anything huge.
_MAX_EVENT_WAIT_S = 30.0  # long-poll ceiling; clients re-poll from a cursor


def build_server(
    daemon: "AuditDaemon", host: str, port: int
) -> ThreadingHTTPServer:
    """An HTTP server bound to *host:port* (0 = ephemeral) for *daemon*."""

    class Handler(_ServeHandler):
        pass

    Handler.daemon_ref = daemon
    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    return server


class _ServeHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    daemon_ref: "AuditDaemon"  # injected by build_server

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    # A client that disconnects mid-reply (a killed watch, a timed-out
    # scraper) raises BrokenPipeError/ConnectionResetError out of
    # wfile.write; swallow it and close — anything else would spam the
    # log and leave the ThreadingHTTPServer thread in a bad state.
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._do_get()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._do_post()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            self._do_delete()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _do_get(self) -> None:
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._reply(200, self.daemon_ref.health())
            elif parts == ["metrics"]:
                self._reply_text(200, self.daemon_ref.metrics_text())
            elif parts == ["jobs"]:
                self._reply(
                    200,
                    {
                        "version": PROTOCOL_VERSION,
                        "jobs": [
                            reply.to_dict()
                            for reply in self.daemon_ref.list_jobs()
                        ],
                    },
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                self._reply(200, self.daemon_ref.status(parts[1]).to_dict())
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "events"
            ):
                self._job_events(parts[1], parse_qs(url.query))
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "top"
            ):
                self._reply(200, self.daemon_ref.top(parts[1]))
            elif len(parts) == 3 and parts[0] == "results":
                self._get_result(parts[1], parts[2])
            elif parts == ["trace", "query"]:
                self._trace_query(parse_qs(url.query))
            else:
                self._error(404, "not_found", f"no route for {url.path}")
        except UnknownJobError as exc:
            self._error(404, "unknown_job", f"no job {exc.args[0]!r}")

    def _do_post(self) -> None:
        parts = [p for p in urlsplit(self.path).path.split("/") if p]
        if parts != ["jobs"]:
            self._error(404, "not_found", f"no POST route for {self.path}")
            return
        if self.daemon_ref.draining:
            self._error(
                503, "draining", "daemon is shutting down; resubmit later"
            )
            return
        body = self._read_body()
        if body is None:
            return
        try:
            request = JobRequest.from_dict(json.loads(body))
        except json.JSONDecodeError as exc:
            self._error(400, "bad_json", str(exc))
            return
        except ProtocolError as exc:
            self._error(400, "bad_request", str(exc))
            return
        reply = self.daemon_ref.submit(request)
        self._reply(202, reply.to_dict())

    def _do_delete(self) -> None:
        parts = [p for p in urlsplit(self.path).path.split("/") if p]
        if len(parts) != 2 or parts[0] != "jobs":
            self._error(404, "not_found", f"no DELETE route for {self.path}")
            return
        try:
            record = self.daemon_ref.cancel(parts[1])
        except UnknownJobError as exc:
            self._error(404, "unknown_job", f"no job {exc.args[0]!r}")
            return
        if record is None:
            self._error(
                409,
                "not_cancellable",
                "job already reached a terminal state",
            )
            return
        self._reply(200, self.daemon_ref.status(parts[1]).to_dict())

    # ------------------------------------------------------------------
    # Route bodies
    # ------------------------------------------------------------------
    def _get_result(self, job_id: str, name: str) -> None:
        try:
            document = self.daemon_ref.result(job_id, name)
        except KeyError:
            self._error(
                404, "unknown_result",
                f"no result kind {name!r}; see /jobs/{job_id} 'results'",
            )
            return
        if document is None:
            self._error(
                404, "result_not_ready",
                f"job {job_id!r} has no {name!r} result (yet)",
            )
            return
        self._reply(200, document)

    def _job_events(self, job_id: str, query: dict[str, list[str]]) -> None:
        try:
            since = int((query.get("since") or ["0"])[0])
            wait_s = float((query.get("wait") or ["0"])[0])
            if since < 0:
                raise ValueError(since)
        except ValueError:
            self._error(
                400, "bad_query",
                "events query takes ?since=<int>&wait=<seconds>",
            )
            return
        # Cap the long-poll below common client/proxy timeouts; the
        # client simply re-polls from its cursor.
        wait_s = max(0.0, min(wait_s, _MAX_EVENT_WAIT_S))
        reply = self.daemon_ref.events(job_id, since=since, wait_s=wait_s)
        self._reply(200, reply.to_dict())

    def _trace_query(self, query: dict[str, list[str]]) -> None:
        job_id = (query.get("job") or [None])[0]
        expression = (query.get("q") or [None])[0]
        if not job_id or expression is None:
            self._error(
                400, "bad_query",
                "trace query needs ?job=<job id>&q=<expression>",
            )
            return
        try:
            reply = self.daemon_ref.trace_query(job_id, expression)
        except UnknownJobError as exc:
            self._error(404, "unknown_job", f"no job {exc.args[0]!r}")
            return
        except FileNotFoundError:
            self._error(
                404, "no_trace",
                f"job {job_id!r} stored no trace (submit with obs.trace)",
            )
            return
        except ValueError as exc:
            self._error(400, "bad_query", str(exc))
            return
        self._reply(200, reply.to_dict())

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY:
            self._error(400, "bad_length", "missing or oversized body")
            return None
        return self.rfile.read(length)

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode() + b"\n"
        self._send(status, "application/json", body)

    def _reply_text(self, status: int, text: str) -> None:
        self._send(
            status,
            "text/plain; version=0.0.4; charset=utf-8",
            text.encode(),
        )

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, error: str, detail: str) -> None:
        self._reply(status, ErrorReply(error=error, detail=detail).to_dict())

    def log_message(self, format: str, *args: object) -> None:
        # One quiet hook instead of stderr spam; the daemon decides.
        self.daemon_ref.log_http(
            f"{self.address_string()} {format % args}"
        )


__all__ = ["build_server", "TraceQueryReply"]
