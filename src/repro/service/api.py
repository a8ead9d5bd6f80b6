"""The analysis service's HTTP JSON API (stdlib only).

Endpoints (all JSON, UTF-8, sorted keys):

* ``GET /health`` — liveness; 503 with ``{"status": "starting"}`` until the
  first analysis pass has published a snapshot, 200 afterwards.  While no
  pass has succeeded and one has raised, the 503 reads
  ``{"status": "failed"}`` with ``failed_passes`` and ``last_error``.  When
  the newest pass raised while an older snapshot still serves, the 200
  reads ``{"status": "degraded"}`` with the same two fields; the next pass
  that succeeds returns it to ``ok``.
* ``GET /findings`` — every finding of the current snapshot, batch-identical
  with ``repro-engine run --json``; ``?checker=`` and ``?function=`` filter.
  ``?since=<revision>`` switches to delta form: ``added``/``removed``
  relative to that past revision (``delta_base``), falling back to the full
  list with ``"delta_base": null`` when the revision has aged out of the
  service's history window.
* ``GET /findings/by-file/<tu>`` — the current findings of one translation
  unit (``<tu>`` is the corpus filename and may contain slashes).
* ``GET /summaries/<function>`` — one function's interprocedural summary
  (the CLI callgraph payload) plus its SCC membership; 404 when unknown.
* ``GET /stats`` — service counters plus the last pass's incremental stats;
  ``failed_passes`` and ``last_error`` (type, message, revision) report
  passes that raised.
* ``POST /analyze`` — force a reconcile pass now; returns its stats, or a
  500 carrying the error when the pass raised.
  Concurrent requests coalesce: while a pass runs, one follow-up pass is
  queued and later arrivals ride on it (``"coalesced": true``) instead of
  stacking up redundant full passes.

Handlers read one immutable snapshot reference and serve entirely from it,
so requests never block behind a running re-analysis (except ``/analyze``,
which *is* one).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..engine.analyses import summary_payload


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes requests against the owning service's current snapshot."""

    server_version = "repro-engine-serve/1"
    #: Set by make_server on the subclass.
    service = None

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.service, "verbose", False):
            super().log_message(format, *args)

    def _reply(self, status: int, payload: dict) -> None:
        body = _json_bytes(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        query = parse_qs(parsed.query)
        if route == "/health":
            self._health()
        elif route.startswith("/findings/by-file/"):
            self._findings_by_file(route[len("/findings/by-file/"):])
        elif route == "/findings":
            self._findings(query)
        elif route.startswith("/summaries/"):
            self._summary(route[len("/summaries/"):])
        elif route == "/stats":
            self._stats()
        else:
            self._reply(404, {"error": f"unknown endpoint {route!r}",
                              "endpoints": ["/health", "/findings",
                                            "/findings/by-file/<tu>",
                                            "/summaries/<function>",
                                            "/stats", "POST /analyze"]})

    def _unavailable(self) -> None:
        """503 while no snapshot exists: starting, or failed so far."""
        service = self.service
        payload = {"status": service.status()}
        if service.last_error is not None:
            payload.update(failed_passes=service.failed_passes,
                           last_error=service.last_error)
        self._reply(503, payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        route = urlparse(self.path).path.rstrip("/")
        if route == "/analyze":
            try:
                snapshot, coalesced = self.service.request_reconcile()
            except Exception as error:  # noqa: BLE001 - reported to the client
                self._reply(500, {"status": "failed",
                                  "error": {"type": type(error).__name__,
                                            "message": str(error)},
                                  "failed_passes": self.service.failed_passes})
                return
            self._reply(200, {"status": "ok",
                              "revision": snapshot.revision,
                              "coalesced": coalesced,
                              "finding_count": snapshot.report.finding_count,
                              "stats": snapshot.stats.to_dict()})
        else:
            self._reply(404, {"error": f"unknown endpoint {route!r}"})

    # -- endpoint bodies ----------------------------------------------------

    def _health(self) -> None:
        service = self.service
        snapshot = service.snapshot
        if snapshot is None:
            self._unavailable()
            return
        payload = {"status": service.status(),
                   "revision": snapshot.revision,
                   "passes": service.passes,
                   "uptime_seconds": round(service.uptime(), 3)}
        if payload["status"] == "degraded":
            payload.update(failed_passes=service.failed_passes,
                           last_error=service.last_error)
        self._reply(200, payload)

    def _findings(self, query: dict) -> None:
        snapshot = self.service.snapshot
        if snapshot is None:
            self._unavailable()
            return
        findings = snapshot.report.all_findings()
        checker = query.get("checker", [None])[0]
        function = query.get("function", [None])[0]
        if checker is not None:
            findings = [f for f in findings if f["analysis"] == checker]
        if function is not None:
            findings = [f for f in findings if f["function"] == function]
        since = query.get("since", [None])[0]
        if since is not None:
            self._findings_delta(snapshot, findings, since, checker, function)
            return
        self._reply(200, {"revision": snapshot.revision,
                          "count": len(findings),
                          "findings": findings})

    def _findings_delta(self, snapshot, findings: list, since: str,
                        checker, function) -> None:
        """Delta form of ``/findings``: what changed since a past revision.

        An unparsable or aged-out ``since`` degrades to the full list with
        ``delta_base: null`` — clients resynchronize from it and resume
        polling with the new revision.
        """
        try:
            base_revision = int(since)
        except ValueError:
            base_revision = None
        base = (self.service.findings_at(base_revision)
                if base_revision is not None else None)
        if base is None:
            self._reply(200, {"revision": snapshot.revision,
                              "delta_base": None,
                              "count": len(findings),
                              "findings": findings})
            return
        if checker is not None:
            base = [f for f in base if f["analysis"] == checker]
        if function is not None:
            base = [f for f in base if f["function"] == function]

        def key(finding: dict) -> str:
            return json.dumps(finding, sort_keys=True)

        base_keys = {key(f) for f in base}
        current_keys = {key(f) for f in findings}
        added = [f for f in findings if key(f) not in base_keys]
        removed = [f for f in base if key(f) not in current_keys]
        self._reply(200, {"revision": snapshot.revision,
                          "delta_base": base_revision,
                          "count": len(findings),
                          "added": added,
                          "removed": removed})

    def _findings_by_file(self, filename: str) -> None:
        snapshot = self.service.snapshot
        if snapshot is None:
            self._unavailable()
            return
        findings = [f for f in snapshot.report.all_findings()
                    if f["file"] == filename]
        self._reply(200, {"revision": snapshot.revision,
                          "file": filename,
                          "count": len(findings),
                          "findings": findings})

    def _summary(self, name: str) -> None:
        snapshot = self.service.snapshot
        if snapshot is None:
            self._unavailable()
            return
        artifacts = snapshot.artifacts
        payload = summary_payload(artifacts, name)
        if not payload:
            self._reply(404, {"error": f"unknown function {name!r}"})
            return
        condensation = artifacts.condensation
        index = condensation.scc_of.get(name)
        if index is not None:
            scc = condensation.sccs[index]
            payload["scc"] = {"members": list(scc),
                              "recursive": condensation.is_recursive(name)}
        payload["function"] = name
        payload["revision"] = snapshot.revision
        self._reply(200, payload)

    def _stats(self) -> None:
        self._reply(200, self.service.stats_payload())


def make_server(service, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for ``service`` (port 0 picks a free one)."""
    handler = type("BoundServiceRequestHandler", (ServiceRequestHandler,),
                   {"service": service})
    return ThreadingHTTPServer((host, port), handler)
