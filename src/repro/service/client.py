"""A stdlib HTTP client for the analysis daemon.

Small on purpose: the daemon speaks plain HTTP + JSON, so anything can
talk to it, but the tests, the benchmark and the CI smoke all want the
same few calls — connect over TCP or a unix socket, post an image,
read back a validated schema-1 payload.

    client = ServiceClient.tcp("127.0.0.1", 8484)
    payload = client.analyze(image_bytes)
    payload = client.query(image_bytes, routine="inc")
"""

from __future__ import annotations

import base64
import http.client
import json
import socket
from dataclasses import dataclass
from typing import Any, Dict, Optional


class ServiceError(Exception):
    """A non-2xx daemon response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` stream socket."""

    def __init__(self, socket_path: str, timeout: Optional[float] = None):
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._socket_path)
        self.sock = sock


@dataclass
class Response:
    """One daemon answer: status, parsed JSON, response headers."""

    status: int
    payload: Dict[str, Any]
    headers: Dict[str, str]

    @property
    def warm(self) -> bool:
        return self.headers.get("X-Repro-Warm") == "hit"

    @property
    def run_id(self) -> Optional[str]:
        return self.headers.get("X-Repro-Run-Id")


class ServiceClient:
    """One logical peer; opens one connection per request."""

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
        tenant: Optional[str] = None,
        timeout: float = 120.0,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise ValueError("supply either host+port or socket_path")
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.tenant = tenant
        self.timeout = timeout

    @classmethod
    def tcp(
        cls, host: str, port: int, tenant: Optional[str] = None
    ) -> "ServiceClient":
        return cls(host=host, port=port, tenant=tenant)

    @classmethod
    def unix(
        cls, socket_path: str, tenant: Optional[str] = None
    ) -> "ServiceClient":
        return cls(socket_path=socket_path, tenant=tenant)

    # -- transport -----------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self.socket_path is not None:
            return _UnixHTTPConnection(self.socket_path, timeout=self.timeout)
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        raise_on_error: bool = True,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        connection = self._connection()
        request_headers = {"Content-Type": "application/json"}
        if self.tenant is not None:
            request_headers["X-Repro-Tenant"] = self.tenant
        if headers:
            request_headers.update(headers)
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
        try:
            connection.request(
                method, path, body=data, headers=request_headers
            )
            raw = connection.getresponse()
            blob = raw.read()
            response = Response(
                status=raw.status,
                payload=json.loads(blob.decode("utf-8")) if blob else {},
                headers=dict(raw.getheaders()),
            )
        finally:
            connection.close()
        if raise_on_error and response.status >= 400:
            message = response.payload.get("error", "unexpected failure")
            raise ServiceError(response.status, str(message))
        return response

    # -- the API -------------------------------------------------------

    def healthz(self) -> Response:
        return self.request("GET", "/healthz", raise_on_error=False)

    def metricsz(self, include_histograms: bool = False) -> Dict[str, Any]:
        path = "/metricsz"
        if include_histograms:
            path += "?include=histograms"
        return self.request("GET", path).payload

    def metricsz_prometheus(self) -> str:
        """The ``/metricsz`` Prometheus text exposition, verbatim."""
        connection = self._connection()
        try:
            connection.request(
                "GET", "/metricsz?format=prometheus",
                headers={"Accept": "text/plain"},
            )
            raw = connection.getresponse()
            blob = raw.read()
            if raw.status >= 400:
                raise ServiceError(raw.status, blob.decode("utf-8", "replace"))
            return blob.decode("utf-8")
        finally:
            connection.close()

    def analyze(
        self,
        image_bytes: bytes,
        edit: Optional[Dict[str, Any]] = None,
        include_summaries: bool = False,
        trace: bool = False,
    ) -> Response:
        body: Dict[str, Any] = {
            "image_b64": base64.b64encode(image_bytes).decode("ascii")
        }
        if edit is not None:
            body["edit"] = edit
        if include_summaries:
            body["include_summaries"] = True
        return self.request(
            "POST", "/v1/analyze", body,
            headers={"X-Repro-Trace": "1"} if trace else None,
        )

    def query(
        self,
        image_bytes: bytes,
        routine: str,
        include_summaries: bool = False,
        trace: bool = False,
    ) -> Response:
        body: Dict[str, Any] = {
            "image_b64": base64.b64encode(image_bytes).decode("ascii"),
            "routine": routine,
        }
        if include_summaries:
            body["include_summaries"] = True
        return self.request(
            "POST", "/v1/query", body,
            headers={"X-Repro-Trace": "1"} if trace else None,
        )
