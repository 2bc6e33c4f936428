"""A small urllib client for the audit service.

:class:`ServeClient` speaks the daemon's HTTP/JSON protocol — the same
:mod:`repro.serve.protocol` payloads the server emits — so `repro client`
and the tests never hand-build URLs or parse ad-hoc JSON.  Errors come
back as :class:`ServeError` carrying the server's status code and
machine-readable error token.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Optional

from repro.serve.protocol import (
    EventsReply,
    JobRequest,
    JobStatusReply,
    SubmitReply,
    TERMINAL_STATES,
    TraceQueryReply,
)


class ServeError(RuntimeError):
    """An error reply from the daemon (or a transport failure)."""

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(f"{error} (HTTP {status}): {detail}")
        self.status = status
        self.error = error
        self.detail = detail


class ServeClient:
    """Talk to a running :class:`~repro.serve.daemon.AuditDaemon`."""

    def __init__(self, endpoint: str, timeout_s: float = 10.0) -> None:
        self.endpoint = endpoint.rstrip("/")
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(self, request: JobRequest) -> SubmitReply:
        payload = self._request("POST", "/jobs", body=request.to_dict())
        return SubmitReply.from_dict(payload)

    def status(self, job_id: str) -> JobStatusReply:
        return JobStatusReply.from_dict(
            self._request("GET", f"/jobs/{job_id}")
        )

    def jobs(self) -> list[JobStatusReply]:
        payload = self._request("GET", "/jobs")
        return [JobStatusReply.from_dict(d) for d in payload["jobs"]]

    def cancel(self, job_id: str) -> JobStatusReply:
        return JobStatusReply.from_dict(
            self._request("DELETE", f"/jobs/{job_id}")
        )

    def result(self, job_id: str, name: str) -> dict:
        return self._request("GET", f"/results/{job_id}/{name}")

    def events(
        self, job_id: str, since: int = 0, wait_s: float = 0.0
    ) -> EventsReply:
        """One page of the job's event stream from cursor *since*.

        ``wait_s > 0`` long-polls: the daemon holds the request until
        events past the cursor exist (or the wait expires).  The HTTP
        timeout stretches to cover the wait.
        """
        query = urllib.parse.urlencode(
            {"since": since, "wait": f"{wait_s:g}"}
        )
        payload = self._request(
            "GET",
            f"/jobs/{job_id}/events?{query}",
            timeout_s=self.timeout_s + wait_s,
        )
        return EventsReply.from_dict(payload)

    def watch(
        self,
        job_id: str,
        handler,
        since: int = 0,
        poll_wait_s: float = 10.0,
        timeout_s: Optional[float] = None,
    ) -> EventsReply:
        """Follow a job's event stream, feeding each event to *handler*.

        *handler* receives wire-form event dicts in ``seq`` order,
        starting at *since* — the full history when 0, so a watcher
        attached mid-run replays what it missed first.  Returns the
        final (terminal) reply; a terminal state guarantees the stream
        was delivered completely, so the loop ends exactly then.
        """
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        cursor = since
        while True:
            reply = self.events(job_id, since=cursor, wait_s=poll_wait_s)
            for event in reply.events:
                handler(event)
            cursor = reply.next
            if reply.terminal:
                return reply
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id!r} still {reply.state.value} "
                    f"after {timeout_s:.0f}s"
                )

    def top(self, job_id: str) -> dict:
        """The job's dashboard numbers from ``GET /jobs/{id}/top``.

        The dict is :meth:`repro.runtime.dashboard.DashboardState.top`
        output — render it with
        :func:`repro.runtime.dashboard.render_top`.
        """
        return self._request("GET", f"/jobs/{job_id}/top")

    def trace_query(self, job_id: str, expression: str) -> TraceQueryReply:
        query = urllib.parse.urlencode({"job": job_id, "q": expression})
        return TraceQueryReply.from_dict(
            self._request("GET", f"/trace/query?{query}")
        )

    def wait(self, job_id: str, timeout_s: float = 120.0) -> JobStatusReply:
        """Poll until the job reaches a terminal state; raises on timeout."""
        deadline = time.monotonic() + timeout_s
        while True:
            reply = self.status(job_id)
            if reply.record.state in TERMINAL_STATES:
                return reply
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id!r} still {reply.record.state.value} "
                    f"after {timeout_s:.0f}s"
                )
            time.sleep(0.1)

    def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``GET /metrics``."""
        request = urllib.request.Request(
            self.endpoint + "/metrics", method="GET"
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return response.read().decode()
        except urllib.error.HTTPError as exc:
            raise ServeError(exc.code, "http_error", str(exc)) from None
        except urllib.error.URLError as exc:
            raise ServeError(0, "unreachable", str(exc.reason)) from None

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        timeout_s: Optional[float] = None,
    ) -> dict:
        data = (
            json.dumps(body, sort_keys=True).encode()
            if body is not None
            else None
        )
        request = urllib.request.Request(
            self.endpoint + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(
                request,
                timeout=timeout_s if timeout_s is not None else self.timeout_s,
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read())
            except (json.JSONDecodeError, ValueError):
                payload = {}
            raise ServeError(
                exc.code,
                payload.get("error", "http_error"),
                payload.get("detail", str(exc)),
            ) from None
        except urllib.error.URLError as exc:
            raise ServeError(0, "unreachable", str(exc.reason)) from None


__all__ = ["ServeClient", "ServeError"]
