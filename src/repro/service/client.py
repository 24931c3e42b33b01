"""Thin blocking client for the simulation daemon.

Pure stdlib (``http.client``) and zero daemon-side coupling: everything
it knows about the server is the wire schema in
:mod:`repro.service.models` and the endpoint file the daemon publishes
under ``<cache-dir>/service/endpoint.json``.  Results come back as the
exact bytes the daemon persisted — the client never re-serializes them —
so byte-for-byte comparisons against direct
:class:`~repro.experiments.pool.SweepPool` output hold end to end.
"""

from __future__ import annotations

import http.client
import json
import os
import time

from repro.service.models import TERMINAL_STATES
from repro.service.server import endpoint_path
from repro.workloads.tracecache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR


class ServiceError(RuntimeError):
    """An HTTP-level failure; carries the status and the server's reason."""

    def __init__(self, status: int, reason: str):
        self.status = status
        self.reason = reason
        super().__init__(f"HTTP {status}: {reason}")


class ServiceUnavailable(ServiceError):
    """Could not reach a daemon (no endpoint file, refused connection)."""

    def __init__(self, reason: str):
        super().__init__(0, reason)


def discover_endpoint(
    cache_dir: str | os.PathLike | None = None,
) -> tuple[str, int]:
    """(host, port) from the daemon's published endpoint file."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    path = endpoint_path(cache_dir)
    try:
        payload = json.loads(path.read_text())
        return payload["host"], int(payload["port"])
    except FileNotFoundError:
        raise ServiceUnavailable(
            f"no daemon endpoint at {path}; start one with"
            " 'python -m repro.experiments serve'"
        ) from None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        raise ServiceUnavailable(
            f"unreadable daemon endpoint file {path}"
        ) from None


class ServiceClient:
    """Talks to one daemon; raises :class:`ServiceError` on any non-2xx."""

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        timeout: float = 60.0,
    ):
        if host is None or port is None:
            host, port = discover_endpoint(cache_dir)
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, bytes]:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body, sort_keys=True).encode()
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        except (ConnectionError, OSError) as exc:
            raise ServiceUnavailable(
                f"cannot reach daemon at {self.host}:{self.port} ({exc})"
            ) from None
        finally:
            connection.close()

    def _json(self, method: str, path: str, body: dict | None = None) -> dict:
        status, data = self._request(method, path, body)
        try:
            payload = json.loads(data)
        except json.JSONDecodeError:
            payload = {"error": data.decode(errors="replace")}
        if status >= 400:
            raise ServiceError(status, payload.get("error", "unknown error"))
        return payload

    # ------------------------------------------------------------------ #
    # verbs
    # ------------------------------------------------------------------ #

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    def submit(self, kind: str, request: dict) -> dict:
        """Admit one job; returns ``{job_id, state, queue_depth}``."""
        return self._json(
            "POST", "/submit", {"kind": kind, "request": request}
        )

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/status/{job_id}")

    def result(self, job_id: str) -> bytes:
        """The daemon's stored result payload, byte-exact."""
        status, data = self._request("GET", f"/result/{job_id}")
        if status >= 400:
            try:
                reason = json.loads(data).get("error", "unknown error")
            except json.JSONDecodeError:
                reason = data.decode(errors="replace")
            raise ServiceError(status, reason)
        return data

    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.1
    ) -> dict:
        """Poll ``/status`` until the job is terminal; returns the final
        status payload (caller checks ``state``)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )
            time.sleep(poll)

    def run(
        self,
        kind: str,
        request: dict,
        timeout: float = 300.0,
    ) -> bytes:
        """Submit, wait, fetch: the one-call convenience round trip."""
        job_id = self.submit(kind, request)["job_id"]
        status = self.wait(job_id, timeout=timeout)
        if status["state"] != "done":
            raise ServiceError(
                409,
                f"job {job_id} finished {status['state']}:"
                f" {status.get('error', 'no error recorded')}",
            )
        return self.result(job_id)


def wait_for_endpoint(
    cache_dir: str | os.PathLike | None = None, timeout: float = 30.0
) -> tuple[str, int]:
    """Block until a daemon publishes its endpoint (CI / test helper)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return discover_endpoint(cache_dir)
        except ServiceUnavailable:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "discover_endpoint",
    "wait_for_endpoint",
]
