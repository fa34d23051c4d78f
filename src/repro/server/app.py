"""The model-repository application: routing, REST semantics, caching.

Transport-agnostic on purpose: :meth:`ModelRepositoryApp.handle` maps a
``(method, path, headers, body)`` request onto a :class:`Response`, so
the whole HTTP surface is unit-testable without opening a socket (the
socket layer is :mod:`repro.server.httpd`).

Routes (paper §4–§6 over the web, DESIGN.md §11):

======================================  =====================================
``GET    /``                            service index (JSON)
``GET    /models``                      model listing (JSON)
``PUT    /models/<name>``               upload; XSD-validated, 422 on errors
``GET    /models/<name>``               the raw XML document (ETag/304)
``DELETE /models/<name>``               remove model + its cached sites
``GET    /site/<name>/``                published multi-page site, index.html
``GET    /site/<name>/<page>``          any page; ``?variant=single`` for §4's
                                        XSLT 1.0 one-page pipeline
``GET    /bundle/<name>/``              client-bundle file list (JSON)
``GET    /bundle/<name>/<file>``        §6 browser-side bundle (XML + XSL)
``GET    /health/<model>``              link-check report for the built site
``GET|POST /olap/<name>/query``         slice/dice/roll-up query (§16);
                                        ``?format=xml`` for the XSLT
                                        rendering
``GET    /olap/<name>/schema``          the queryable surface (JSON)
``GET    /olap/<name>/stats``           aggregate-cache counters (JSON)
``GET    /stats``                       cache + request counters (JSON)
``GET    /metrics``                     Prometheus text exposition
``GET    /dashboard``                   live ops page (HTML, via XSLT)
======================================  =====================================

Every published resource is served with a strong ETag (SHA-256 of the
bytes on the wire) and honours ``If-None-Match`` with ``304 Not
Modified``; Content-Type (with charset) follows the file extension.

Every response additionally carries an ``X-Goldcase-Request-Id``
header (DESIGN.md §15): minted per request, or adopted from the
client's header so one logical request keeps its identity across
retries.  The telemetry layer brackets :meth:`ModelRepositoryApp
.handle` and is on by default.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlparse

from ..coalesce import CacheBuildError, CacheOverloadError
from ..faults import FAULTS, FaultError
from ..obs.recorder import RECORDER as _REC
from ..olap.service import (
    OlapService,
    QueryError,
    QueryRenderError,
    RESULT_FORMATS,
    parse_query,
    resolve_query,
)
from .cache import SiteCache, SiteEntry, VARIANTS
from .store import ModelStore, ModelStoreError
from .telemetry import ServerTelemetry, current_context, mark, mark_model

__all__ = ["ModelRepositoryApp", "Response", "CONTENT_TYPES",
           "METRICS_CONTENT_TYPE", "REQUEST_ID_HEADER"]

#: The Prometheus text exposition format version served by /metrics.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The request-id header, on every response and honoured on requests.
REQUEST_ID_HEADER = "X-Goldcase-Request-Id"

#: Content types per served extension (charset explicit: the paper's
#: HTML carries accented Spanish section names).
CONTENT_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".css": "text/css; charset=utf-8",
    ".xml": "application/xml; charset=utf-8",
    ".xsl": "application/xslt+xml; charset=utf-8",
    ".xsd": "application/xml; charset=utf-8",
    ".json": "application/json; charset=utf-8",
    ".txt": "text/plain; charset=utf-8",
}


@dataclass
class Response:
    """One HTTP response: status, headers, body bytes."""

    status: int
    body: bytes = b""
    headers: list[tuple[str, str]] = field(default_factory=list)

    def header(self, name: str) -> str | None:
        """The first header value named *name* (case-insensitive)."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    @property
    def json(self):
        """The body decoded as JSON (raises on non-JSON bodies)."""
        return json.loads(self.body.decode("utf-8"))


def _json_response(status: int, payload, *,
                   extra: list[tuple[str, str]] | None = None) -> Response:
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n") \
        .encode("utf-8")
    headers = [("Content-Type", CONTENT_TYPES[".json"])]
    headers.extend(extra or [])
    return Response(status, body, headers)


def _error(status: int, message: str, *, kind: str = "error",
           issues: list[dict] | None = None) -> Response:
    payload = {"error": message, "kind": kind}
    if issues is not None:
        payload["issues"] = issues
    return _json_response(status, payload)


def _content_type(filename: str) -> str:
    dot = filename.rfind(".")
    extension = filename[dot:] if dot >= 0 else ""
    return CONTENT_TYPES.get(extension, "application/octet-stream")


def _etag_matches(header_value: str, etag: str) -> bool:
    """RFC 9110 §13.1.2 If-None-Match against one strong ETag."""
    if header_value.strip() == "*":
        return True
    candidates = [item.strip() for item in header_value.split(",")]
    # A weak validator (W/"...") still matches for GET ("weak
    # comparison"); strip the weakness prefix before comparing.
    return any(
        candidate.removeprefix("W/") == etag for candidate in candidates)


class ModelRepositoryApp:
    """Routes repository requests onto the store and the site cache."""

    def __init__(self, store: ModelStore | None = None,
                 cache: SiteCache | None = None,
                 telemetry: ServerTelemetry | None = None,
                 olap: OlapService | None = None, *,
                 worker_id: int | None = None,
                 fleet=None,
                 prebuild=None) -> None:
        self.store = store if store is not None else ModelStore()
        self.cache = cache if cache is not None else SiteCache()
        self.telemetry = telemetry if telemetry is not None \
            else ServerTelemetry()
        self.olap = olap if olap is not None else OlapService()
        #: Pre-fork identity (DESIGN.md §17).  When set, every /metrics
        #: sample carries a ``worker`` label and /stats reports
        #: ``{"worker": {"id", "pid"}}`` so scrapes through the shared
        #: port stay attributable to the process that answered them.
        self.worker_id = worker_id
        #: Optional :class:`repro.server.buildstore.BuildStore` used
        #: only for its fleet snapshots: /metrics appends the
        #: supervisor-aggregate series and /stats a ``fleet`` block.
        self.fleet = fleet
        #: Optional callable(name) enqueueing a background pre-build of
        #: the freshly PUT model (the supervisor's build pool); failures
        #: are swallowed — the request path rebuilds on demand anyway.
        self._prebuild = prebuild
        self._stats_lock = threading.Lock()
        self._requests = {"total": 0, "not_modified": 0}

    def request_count(self) -> int:
        """Requests this app instance has handled (fleet snapshots)."""
        with self._stats_lock:
            return self._requests["total"]

    # -- entry point -------------------------------------------------------

    def handle(self, method: str, path: str,
               headers: dict[str, str] | None = None,
               body: bytes = b"") -> Response:
        """Serve one request; never raises for client-visible errors."""
        headers = {key.lower(): value
                   for key, value in (headers or {}).items()}
        parsed = urlparse(path)
        segments = [unquote(part)
                    for part in parsed.path.split("/") if part]
        query_lists = parse_qs(parsed.query)
        query = {key: values[-1] for key, values in query_lists.items()}
        with self._stats_lock:
            self._requests["total"] += 1
        ctx = self.telemetry.begin(
            method, parsed.path,
            client_id=headers.get(REQUEST_ID_HEADER.lower()))
        # HEAD routes exactly like GET; the transport drops the body.
        routed = "GET" if method == "HEAD" else method
        try:
            with _REC.span("server.request", method=method,
                           path=parsed.path):
                try:
                    response = self._route(routed, segments, query,
                                           query_lists, headers, body)
                except FaultError as exc:
                    # An injected fault that no degradation path absorbed
                    # (store.put, xsd.validate on upload, ...): a clean 500
                    # instead of a handler-thread traceback.
                    response = _error(500, str(exc), kind="fault")
                except CacheOverloadError as exc:
                    response = self._shed(exc)
                except QueryRenderError as exc:
                    response = _error(500, str(exc), kind="olap")
        except BaseException as exc:
            # Whatever escapes (a transport bug, KeyboardInterrupt) must
            # not leave a stale context pinned to this pooled thread.
            # The transport answers it with a 500 of its own: this is
            # the request's one count and log line, and the id rides on
            # the exception so that 500 carries it.
            if ctx is not None:
                mark("transport_error")
                self.telemetry.finish(ctx, 500, 0)
                exc.request_id = ctx.request_id
            raise
        if response.status == 304:
            with self._stats_lock:
                self._requests["not_modified"] += 1
            mark("not_modified")
        if ctx is not None:
            response.headers.append((REQUEST_ID_HEADER, ctx.request_id))
            self.telemetry.finish(ctx, response.status, len(response.body))
        return response

    # -- routing -----------------------------------------------------------

    def _route(self, method: str, segments: list[str], query: dict,
               query_lists: dict, headers: dict[str, str],
               body: bytes) -> Response:
        if not segments:
            if method != "GET":
                return _error(405, "method not allowed")
            return self._index()
        head, rest = segments[0], segments[1:]
        if head == "models":
            return self._models(method, rest, headers, body)
        if head == "olap":
            return self._olap(method, rest, query, query_lists,
                              headers, body)
        if head == "site":
            if method != "GET":
                return _error(405, "method not allowed")
            return self._site(rest, query, headers)
        if head == "bundle":
            if method != "GET":
                return _error(405, "method not allowed")
            return self._bundle(rest, headers)
        if head == "health":
            if method != "GET":
                return _error(405, "method not allowed")
            return self._health(rest, query)
        if head == "stats":
            if method != "GET":
                return _error(405, "method not allowed")
            return self._stats()
        if head == "metrics":
            if method != "GET":
                return _error(405, "method not allowed")
            return self._metrics()
        if head == "dashboard":
            if method != "GET":
                return _error(405, "method not allowed")
            return self._dashboard()
        return _error(404, f"no such endpoint: /{head}")

    def _index(self) -> Response:
        return _json_response(200, {
            "service": "goldcase model repository",
            "endpoints": [
                "GET /models", "PUT /models/<name>", "GET /models/<name>",
                "DELETE /models/<name>", "GET /site/<name>/<page>",
                "GET /bundle/<name>/<file>", "GET /health/<name>",
                "GET|POST /olap/<name>/query", "GET /olap/<name>/schema",
                "GET /olap/<name>/stats",
                "GET /stats", "GET /metrics", "GET /dashboard"],
            "models": self.store.names(),
        })

    # -- /models -----------------------------------------------------------

    def _models(self, method: str, rest: list[str],
                headers: dict[str, str], body: bytes) -> Response:
        if not rest:
            if method != "GET":
                return _error(405, "method not allowed")
            return _json_response(200, {"models": self.store.listing()})
        if len(rest) != 1:
            return _error(404, "models takes a single name segment")
        name = rest[0]
        if method == "PUT":
            return self._put_model(name, body)
        if method == "GET":
            return self._get_model(name, headers)
        if method == "DELETE":
            return self._delete_model(name)
        return _error(405, "method not allowed")

    def _put_model(self, name: str, body: bytes) -> Response:
        if not body:
            return _error(400, "empty request body", kind="parse")
        mark_model(name)
        try:
            record, created = self.store.put(name, body)
        except ModelStoreError as exc:
            status = 400 if exc.kind in ("name", "parse") else 422
            return _error(status, f"model rejected ({exc.kind})",
                          kind=exc.kind, issues=exc.issues)
        if self._prebuild is not None:
            try:
                self._prebuild(record.name)
            except Exception:
                pass  # warming is best-effort; requests build on demand
        return _json_response(
            201 if created else 200,
            {"stored": record.summary(), "created": created},
            extra=[("ETag", record.etag),
                   ("Location", f"/models/{record.name}")])

    def _get_model(self, name: str,
                   headers: dict[str, str]) -> Response:
        record = self.store.get(name)
        if record is None:
            return _error(404, f"no model named {name!r}")
        mark_model(name)
        etag = record.etag
        if self._not_modified(headers, etag):
            return Response(304, b"", [("ETag", etag)])
        return Response(200, record.xml_bytes, [
            ("Content-Type", CONTENT_TYPES[".xml"]),
            ("ETag", etag)])

    def _delete_model(self, name: str) -> Response:
        if not self.store.delete(name):
            return _error(404, f"no model named {name!r}")
        self.cache.invalidate(name)
        self.olap.invalidate(name)
        return _json_response(200, {"deleted": name})

    # -- the OLAP query service (DESIGN.md §16) ----------------------------

    def _olap(self, method: str, rest: list[str], query: dict,
              query_lists: dict, headers: dict[str, str],
              body: bytes) -> Response:
        if len(rest) != 2 or rest[1] not in ("query", "schema", "stats"):
            return _error(404,
                          "usage: /olap/<model>/{query|schema|stats}")
        name, action = rest
        record = self.store.get(name)
        if record is None:
            return _error(404, f"no model named {name!r}")
        mark_model(name)
        if action == "query":
            if method not in ("GET", "POST"):
                return _error(405, "method not allowed")
            return self._olap_query(method, record, query, query_lists,
                                    headers, body)
        if method != "GET":
            return _error(405, "method not allowed")
        if action == "schema":
            payload = self.olap.schema_payload(record.model)
            payload["content_hash"] = record.content_hash
            response = _json_response(200, payload)
            etag = f'"{record.content_hash}-olap-schema"'
            if self._not_modified(headers, etag):
                return Response(304, b"", [("ETag", etag)])
            response.headers.append(("ETag", etag))
            return response
        return _json_response(200, {
            "model": record.name,
            "content_hash": record.content_hash,
            **self.olap.stats(),
        })

    def _olap_query(self, method: str, record, query: dict,
                    query_lists: dict, headers: dict[str, str],
                    body: bytes) -> Response:
        """Parse, resolve, materialize, render — degrading like /site.

        GET reads the query from URL parameters (repeat ``slice=`` for
        several predicates); POST reads the same vocabulary from a JSON
        body.  ``format`` selects the rendering and is not part of the
        canonical query key — both renderings belong to one
        materialization, which stores the JSON; the XML is derived from
        it on the first XML request (DESIGN.md §16.8).
        """
        fmt = query.get("format", "json")
        if fmt not in RESULT_FORMATS:
            return _error(400, f"unknown format {fmt!r} (expected one "
                               f"of {list(RESULT_FORMATS)})")
        if method == "POST":
            try:
                params = json.loads(body.decode("utf-8")) \
                    if body else None
            except (UnicodeDecodeError, ValueError) as exc:
                return _error(400, f"unreadable JSON body: {exc}",
                              kind="form")
            if not isinstance(params, dict):
                return _error(400, "the POST body must be a JSON "
                                   "object", kind="form")
        else:
            params = {key: values for key, values in query_lists.items()
                      if key != "format"}
        try:
            spec = resolve_query(parse_query(params), record.model)
        except QueryError as exc:
            status = 400 if exc.kind == "form" else 422
            return _error(status, f"query rejected ({exc.kind})",
                          kind=exc.kind, issues=exc.issues)
        try:
            with _REC.span("olap.query", model=record.name):
                entry, outcome = self.olap.execute(
                    record.name, record.content_hash, record.model, spec)
        except CacheBuildError as exc:
            return _error(500, f"query execution failed: {exc.cause}",
                          kind="olap")
        mark({"hit": "olap_hit", "executed": "olap_executed",
              "coalesced": "olap_coalesced",
              "stale": "stale_served"}[outcome])
        stale = entry.content_hash != record.content_hash
        data, etag = self.olap.rendering(entry, fmt)
        if self._not_modified(headers, etag):
            return Response(304, b"", [("ETag", etag)])
        response = Response(200, data, [
            ("Content-Type", CONTENT_TYPES[f".{fmt}"]),
            ("ETag", etag),
            ("Cache-Control", "no-cache"),
            ("X-Goldcase-Olap", outcome),
            ("X-Goldcase-Query-Key", entry.query_key)])
        if stale:
            response.headers.append(
                ("Warning", '110 goldcase "stale content: query '
                            'execution failed, serving previous '
                            'materialization"'))
            response.headers.append(("X-Goldcase-Stale", "true"))
        return response

    # -- published sites ---------------------------------------------------

    @staticmethod
    def _shed(exc) -> Response:
        """The overload response: 503 with a Retry-After the
        :class:`repro.web.client.RepositoryClient` backoff honours."""
        response = _error(503, str(exc), kind="overload")
        response.headers.append(("Retry-After", str(exc.retry_after_s)))
        return response

    def _entry_for(self, name: str, variant: str) -> tuple[
            SiteEntry | None, bool, Response | None]:
        """``(entry, stale, failure)`` for one model variant.

        *stale* is True when the cache degraded to the previous build
        (its content hash no longer matches the record's — the rebuild
        failed).  A failed build with no stale fallback is the 500
        *failure*; overload propagates and is mapped in :meth:`handle`.
        """
        record = self.store.get(name)
        if record is None:
            return None, False, _error(404, f"no model named {name!r}")
        mark_model(name)
        if variant not in VARIANTS:
            return None, False, _error(
                400, f"unknown variant {variant!r} "
                     f"(expected one of {list(VARIANTS)})")
        try:
            entry = self.cache.entry(record, variant)
        except CacheBuildError as exc:
            return None, False, _error(
                500, f"site build failed: {exc.cause}", kind="build")
        return entry, entry.content_hash != record.content_hash, None

    def _site(self, rest: list[str], query: dict,
              headers: dict[str, str]) -> Response:
        if not rest:
            return _error(404, "usage: /site/<model>/<page>")
        name, page_parts = rest[0], rest[1:]
        page = "/".join(page_parts) or "index.html"
        variant = query.get("variant", "multi")
        if variant == "bundle":
            return _error(400, "bundles are served from /bundle/<name>/")
        entry, stale, failure = self._entry_for(name, variant)
        if failure is not None:
            return failure
        return self._serve_page(entry, page, headers, stale=stale)

    def _bundle(self, rest: list[str],
                headers: dict[str, str]) -> Response:
        if not rest:
            return _error(404, "usage: /bundle/<model>/<file>")
        name, file_parts = rest[0], rest[1:]
        entry, stale, failure = self._entry_for(name, "bundle")
        if failure is not None:
            return failure
        filename = "/".join(file_parts)
        if not filename:
            return _json_response(200, {
                "model": name, "files": sorted(entry.pages),
                "hint": "open model.xml in an XSLT-capable browser "
                        "(paper §6)"})
        return self._serve_page(entry, filename, headers, stale=stale)

    def _serve_page(self, entry: SiteEntry, page: str,
                    headers: dict[str, str], *,
                    stale: bool = False) -> Response:
        data = entry.pages.get(page)
        if data is None:
            return _error(404, f"no page {page!r} in {entry.name} "
                               f"({entry.variant}); available: "
                               f"{sorted(entry.pages)}")
        etag = entry.etags[page]
        if self._not_modified(headers, etag):
            return Response(304, b"", [("ETag", etag)])
        response = Response(200, data, [
            ("Content-Type", _content_type(page)),
            ("ETag", etag),
            ("Cache-Control", "no-cache")])
        if stale:
            # Degraded mode is explicit on the wire: the RFC 9111
            # stale-while-degraded warning plus a machine-checkable
            # marker the chaos runner keys on.
            response.headers.append(
                ("Warning", '110 goldcase "stale content: rebuild '
                            'failed, serving previous build"'))
            response.headers.append(("X-Goldcase-Stale", "true"))
        return response

    @staticmethod
    def _not_modified(headers: dict[str, str], etag: str) -> bool:
        candidate = headers.get("if-none-match")
        return candidate is not None and _etag_matches(candidate, etag)

    # -- health + stats ----------------------------------------------------

    def _health(self, rest: list[str], query: dict) -> Response:
        if len(rest) != 1:
            return _error(404, "usage: /health/<model>")
        variant = query.get("variant", "multi")
        if variant == "bundle":
            return _error(400, "bundles have no link graph to check")
        entry, stale, failure = self._entry_for(rest[0], variant)
        if failure is not None:
            return failure
        report = entry.link_report
        ok = (report is not None and report.ok) and not stale
        payload = {
            "model": entry.name,
            "variant": entry.variant,
            "content_hash": entry.content_hash,
            "ok": ok,
            "stale": stale,
            "last_build_error": self.cache.build_error(
                entry.name, entry.variant),
            "pages": len(entry.pages),
            "total_links": report.total_links if report else 0,
            "broken_pages": [list(pair) for pair in report.broken_pages]
            if report else [],
            "broken_anchors": [list(pair) for pair in report.broken_anchors]
            if report else [],
            "orphans": list(report.orphans) if report else [],
        }
        return _json_response(200 if ok else 503, payload)

    def _engine_caches(self) -> dict[str, dict]:
        """Every engine-level cache's hit/miss/size view, by name.

        The PR 6/7 caches (compiled transformers, publisher compile
        caches, xpath/pattern/AVT memoisation) come from
        :func:`repro.obs.cache_stats`; the site cache's dependency-index
        store reports through the same shape so ``/stats`` and
        ``/metrics`` expose one uniform cache surface.
        """
        from ..obs.export import cache_stats

        caches = cache_stats()
        caches["server.dep_index"] = self.cache.dep_index_info()
        caches["olap.aggregates"] = self.olap.cache.info()
        caches["olap.datasets"] = self.olap.dataset_info()
        return caches

    def _stats(self) -> Response:
        import os

        with self._stats_lock:
            requests = dict(self._requests)
        payload = {
            "requests": requests,
            "site_cache": self.cache.stats(),
            "olap": self.olap.stats(),
            "caches": self._engine_caches(),
            "models": self.store.names(),
            "faults": FAULTS.describe(),
            "slos": self.telemetry.slo_report(),
        }
        if self.worker_id is not None:
            payload["worker"] = {"id": self.worker_id, "pid": os.getpid()}
        if self.fleet is not None:
            payload["fleet"] = self.fleet.read_fleet()
        return _json_response(200, payload)

    # -- telemetry surfaces ------------------------------------------------

    def _metrics(self) -> Response:
        labels = None if self.worker_id is None \
            else {"worker": str(self.worker_id)}
        text = self.telemetry.metrics_text(
            caches=self._engine_caches(),
            site_cache=self.cache.stats(),
            extra_gauges={"models": len(self.store.names())},
            default_labels=labels)
        if self.fleet is not None:
            text += self._fleet_metrics()
        return Response(200, text.encode("utf-8"),
                        [("Content-Type", METRICS_CONTENT_TYPE)])

    def _fleet_metrics(self) -> str:
        """The supervisor-aggregate series, from fleet snapshots.

        Gauges on purpose: a respawned worker restarts its request
        count at zero, so a fleet-wide sum can step backwards across a
        kill — a counter here would violate the monotonicity contract
        the chaos probes enforce on ``_total`` series.
        """
        snapshots = self.fleet.read_fleet()
        lines = [
            "# HELP goldcase_fleet_workers Worker snapshots visible in "
            "the shared build store.",
            "# TYPE goldcase_fleet_workers gauge",
            f"goldcase_fleet_workers {len(snapshots)}",
            "# HELP goldcase_fleet_requests Requests served fleet-wide "
            "(sum of live worker snapshots; resets on respawn).",
            "# TYPE goldcase_fleet_requests gauge",
            "goldcase_fleet_requests "
            f"{sum(s.get('requests', 0) for s in snapshots.values())}",
            "# HELP goldcase_worker_up 1 for every worker with a "
            "snapshot, labelled by id and pid.",
            "# TYPE goldcase_worker_up gauge",
        ]
        for worker_id in sorted(snapshots):
            snap = snapshots[worker_id]
            lines.append(
                f'goldcase_worker_up{{pid="{snap.get("pid", 0)}",'
                f'worker="{worker_id}"}} 1')
        lines.append(
            "# HELP goldcase_worker_requests Requests served per "
            "worker snapshot.")
        lines.append("# TYPE goldcase_worker_requests gauge")
        for worker_id in sorted(snapshots):
            lines.append(
                f'goldcase_worker_requests{{worker="{worker_id}"}} '
                f"{snapshots[worker_id].get('requests', 0)}")
        return "\n".join(lines) + "\n"

    def _dashboard(self) -> Response:
        from ..obs.dashboard import render_dashboard_html

        ctx = current_context()
        ctx_id = ctx.request_id if ctx is not None else ""
        html = render_dashboard_html(
            self.telemetry.snapshot(), request_id=ctx_id)
        return Response(200, html.encode("utf-8"),
                        [("Content-Type", CONTENT_TYPES[".html"]),
                         ("Cache-Control", "no-cache")])
