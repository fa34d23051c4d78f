"""Layer spans for the traced goldbench run, and their analysis.

The server launcher calls :func:`install` before the server starts.  It
replaces each layer's public entry points (listed in :data:`POINTS`,
named after the module they live in) with wrappers that record one span
per call: name, start, end, parent span, thread and the request id of
the telemetry context active on that thread.  Nothing under ``src/``
changes: the wrappers are installed by rebinding the attribute the
caller looks up (a class attribute, or the module-level name the calling
module imported).

Spans stay in memory in each server process; the launcher writes them
out when the process's server closes.  The rest of this module turns
the spans of a run into self times (span minus the part of it covered by
child spans) and the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _request_id(args, result):
    return {"rid": result.header("X-Goldcase-Request-Id")}


def _republish_info(args, result):
    info = result[2]
    return {"mode": info["mode"], "pages_rebuilt": info["pages_rebuilt"]}


def _agg_outcome(args, result):
    return {"outcome": result[1]}


def _engine_cells(args, result):
    engine, cube = args[0], args[1]
    return {"rows": len(engine.star.fact_table(
        engine.model.fact_class(cube.fact).id)),
        "cells": len(result.rows)}


def _loaded(args, result):
    return {"hit": result is not None}


#: (span name, module, attribute path, hook turning ``(args, result)`` into
#: the span's extra info, or None).
#: Module-level names are wrapped where the *caller* imported them.
POINTS = (
    ("httpd.dispatch", "repro.server.httpd", "_RepositoryHandler._dispatch",
     None),
    ("app.handle", "repro.server.app", "ModelRepositoryApp.handle",
     _request_id),
    ("telemetry.begin", "repro.server.telemetry", "ServerTelemetry.begin",
     None),
    ("telemetry.finish", "repro.server.telemetry", "ServerTelemetry.finish",
     None),
    ("store.put", "repro.server.store", "ModelStore.put", None),
    ("store.put", "repro.server.buildstore", "SharedModelStore.put", None),
    ("store.parse_xml", "repro.server.store", "parse_xml", None),
    ("store.xsd_validate", "repro.server.store", "xsd_validate", None),
    ("store.document_to_model", "repro.server.store", "document_to_model",
     None),
    ("cache.site.entry", "repro.server.cache", "SiteCache.entry", None),
    # Only an entry() call that missed the lock-free fast path takes the
    # model lock; the span marks its entry span as "not a hit".
    ("cache.site.slow_path", "repro.server.cache", "SiteCache._model_lock",
     None),
    # The one place a build actually runs (disk-tier adoptions do not).
    ("cache.site.rebuild", "repro.server.cache", "SiteCache._attempt", None),
    ("publisher.publish_multi_page", "repro.server.cache",
     "publish_multi_page", None),
    ("publisher.publish_multi_page", "repro.web.incremental",
     "publish_multi_page", None),
    ("incremental.republish_incremental", "repro.server.cache",
     "republish_incremental", _republish_info),
    ("linkcheck.check_site", "repro.server.cache", "check_site", None),
    ("xslt.compiled.render", "repro.xslt.compile.runtime",
     "CompiledTransformer.render", None),
    ("xslt.engine.transform", "repro.xslt.engine", "Transformer.transform",
     None),
    ("olap.query.parse_query", "repro.server.app", "parse_query", None),
    ("olap.query.resolve_query", "repro.server.app", "resolve_query", None),
    ("olap.agg.entry", "repro.olap.service.aggcache", "AggregateCache.entry",
     _agg_outcome),
    ("olap.datagen.synthesize_star", "repro.olap.service.service",
     "synthesize_star", None),
    ("olap.engine.execute", "repro.olap.engine", "CubeEngine.execute",
     _engine_cells),
    ("olap.render.render_json", "repro.olap.service.service", "render_json",
     None),
    ("olap.render.render_xml", "repro.olap.service.service", "render_xml",
     None),
    ("buildstore.model_get", "repro.server.buildstore",
     "SharedModelStore.get", None),
    ("buildstore.load_site", "repro.server.buildstore",
     "BuildStore.load_site", _loaded),
    ("buildstore.store_site", "repro.server.buildstore",
     "BuildStore.store_site", None),
    ("buildstore.parse_xml", "repro.server.buildstore", "parse_xml", None),
    ("buildstore.document_to_model", "repro.server.buildstore",
     "document_to_model", None),
)

#: The span that times acquiring ``BuildStore.lock`` (the flock wait).
LOCK_WAIT = "buildstore.lock_wait"


class Recorder:
    """In-memory spans of one process."""

    def __init__(self) -> None:
        #: (id, parent, name, start, end, thread, request id, error, info)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extra=None):
        """*fn* recording one span per call."""
        from repro.server.telemetry import current_context

        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            ctx = current_context()
            stack.append(span_id)
            error = True
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = extra(args, result) if extra and not error else None
                spans.append((span_id, parent, name, start, end,
                              threading.get_ident(),
                              ctx.request_id if ctx is not None else None,
                              error, info))
        return traced

    def wrap_lock(self, lock_method):
        """``BuildStore.lock`` with its acquisition timed as a span."""
        acquire = self.wrap(LOCK_WAIT, lambda cm: cm.__enter__())

        @contextlib.contextmanager
        def traced(store, kind, key):
            manager = lock_method(store, kind, key)
            acquire(manager)
            try:
                yield
            except BaseException:
                if not manager.__exit__(*sys.exc_info()):
                    raise
            else:
                manager.__exit__(None, None, None)
        return traced


def install(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`POINTS` (and the lock)."""
    for name, module_name, path, extra in POINTS:
        owner = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        setattr(owner, attribute,
                recorder.wrap(name, original, extra))
    from repro.server.buildstore import BuildStore

    BuildStore.lock = recorder.wrap_lock(BuildStore.lock)


# -- analysis ----------------------------------------------------------------


class Span:
    """One recorded call, linked into its process's span tree."""

    __slots__ = ("key", "parent", "name", "start", "end", "rid", "error",
                 "info", "children", "self_s")

    def __init__(self, pid: int, row) -> None:
        span_id, parent, name, start, end, _thread, rid, error, info = row
        self.key = (pid, span_id)
        self.parent = (pid, parent) if parent else None
        self.name = name
        self.start = start
        self.end = end
        self.rid = rid
        self.error = error
        self.info = info or {}
        self.children: list[Span] = []
        self.self_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start


def covered(start: float, end: float,
            intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def build_tree(processes: dict[int, list]) -> list[Span]:
    """Every span, linked to its children, with self times filled in.

    Request ids propagate down from the nearest ancestor that has one,
    and a transport span (``httpd.dispatch``) takes the id of the
    request its ``app.handle`` child served.
    """
    spans: dict[tuple, Span] = {}
    for pid, rows in processes.items():
        for row in rows:
            span = Span(pid, row)
            spans[span.key] = span
    roots = []
    for span in spans.values():
        parent = spans.get(span.parent) if span.parent else None
        if parent is None:
            roots.append(span)
        else:
            parent.children.append(span)
    for span in spans.values():
        span.self_s = span.duration_s - covered(
            span.start, span.end,
            [(child.start, child.end) for child in span.children])
        if span.name == "app.handle" and span.info.get("rid"):
            span.rid = span.info["rid"]

    def propagate(span: Span, rid: str | None) -> None:
        if span.name == "httpd.dispatch" and rid is None:
            rid = next((c.rid for c in span.children
                        if c.name == "app.handle" and c.rid), None)
        rid = span.rid or rid
        span.rid = rid
        for child in span.children:
            propagate(child, rid)

    for root in roots:
        propagate(root, None)
    return list(spans.values())


def function_table(spans: list[Span]) -> dict[str, dict]:
    """``{name: {calls, busy_ms, errors}}``; busy is self time."""
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_ms": 0.0, "errors": 0})
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["busy_ms"] += span.self_s * 1000.0
        row["errors"] += int(span.error)
    return dict(sorted(table.items()))


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _under(span: Span, name: str, by_key: dict) -> bool:
    parent = by_key.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_key.get(parent.parent)
    return False


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def derive(spans: list[Span], *, reads: list, connect_ms: list[float],
           stats_before: list[dict], stats_after: list[dict],
           first_edit_start: float | None, edits: int) -> dict[str, float]:
    """The per-layer metrics of one traced run (see BENCHMARK.json).

    *reads* are the measured reads ``(request id, client ms)``;
    *stats_before*/*stats_after* are ``/stats`` scrapes, one per server
    process, taken just before and just after the measured window.
    """
    by_key = {span.key: span for span in spans}
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def ms(name, keep=lambda s: True):
        return [s.duration_s * 1000.0 for s in named[name] if keep(s)]

    def us(name):
        return [s.duration_s * 1e6 for s in named[name]]

    handle_ms = {s.rid: s.duration_s * 1000.0 for s in named["app.handle"]
                 if s.rid}
    overhead = [client - handle_ms[rid] for rid, client in reads
                if rid in handle_ms]

    bracket = defaultdict(float)
    parse_resolve = defaultdict(float)
    for span in named["telemetry.begin"] + named["telemetry.finish"]:
        bracket[span.parent] += span.duration_s
    for span in (named["olap.query.parse_query"]
                 + named["olap.query.resolve_query"]):
        parse_resolve[span.parent] += span.duration_s

    # An entry() that took the model lock either built, adopted a disk
    # artifact or waited for another thread's build: none is a hit.
    hits = [s for s in named["cache.site.entry"] if not s.children]
    rebuilds = named["cache.site.rebuild"]
    after_edit = [s for s in rebuilds if first_edit_start is not None
                  and s.start >= first_edit_start]
    republish = named["incremental.republish_incremental"]
    outcomes = [s.info.get("outcome") for s in named["olap.agg.entry"]]
    engine = [s.info for s in named["olap.engine.execute"] if s.info]
    loads = [s.info.get("hit") for s in named["buildstore.load_site"]]

    def delta(section: str, key: str) -> float:
        return sum(after.get(section, {}).get(key, 0)
                   - before.get(section, {}).get(key, 0)
                   for before, after in zip(stats_before, stats_after))

    site_hits = delta("site_cache", "hits")
    site_lookups = site_hits + sum(
        delta("site_cache", k) for k in ("rebuilds", "coalesced",
                                         "disk_hits"))
    served = [after["requests"]["total"] - before["requests"]["total"]
              for before, after in zip(stats_before, stats_after)]
    return {
        "httpd.connect_ms.max": max(connect_ms),
        "httpd.overhead_ms.p50": _p50(overhead),
        "app.handle.self_us.p50": _p50(
            [s.self_s * 1e6 for s in named["app.handle"]]),
        "telemetry.bracket_us.p50": _p50(
            [v * 1e6 for v in bracket.values()]),
        "store.put_ms.p50": _p50(ms("store.put")),
        "store.parse_ms.p50": _p50(ms("store.parse_xml")),
        "store.validate_ms.p50": _p50(ms("store.xsd_validate")),
        "store.to_model_ms.p50": _p50(ms("store.document_to_model")),
        "cache.site.hit_ratio": _ratio(site_hits, site_lookups),
        "cache.site.resident_mb": sum(
            after["site_cache"]["resident_bytes"]
            for after in stats_after) / 1e6,
        "cache.site.entry_hit_us.p50": _p50(
            [s.duration_s * 1e6 for s in hits]),
        "cache.site.rebuild_ms.p50": _p50(
            [s.duration_s * 1000.0 for s in after_edit or rebuilds]),
        "cache.site.rebuilds_per_edit": _ratio(len(after_edit), edits),
        "incremental.republish_ms.p50": _p50(
            ms("incremental.republish_incremental")),
        "incremental.pages_rebuilt.mean": _ratio(
            sum(s.info.get("pages_rebuilt", 0) for s in republish),
            len(republish)),
        "incremental.fallbacks": float(sum(
            1 for s in republish if s.info.get("mode") == "full")),
        "linkcheck.check_ms.p50": _p50(ms("linkcheck.check_site")),
        "publish.cold_ms": _p50(ms(
            "publisher.publish_multi_page",
            lambda s: not _under(s, "incremental.republish_incremental",
                                 by_key))),
        "xslt.compiled_render_ms.per_edit": _ratio(sum(ms(
            "xslt.compiled.render",
            lambda s: _under(s, "incremental.republish_incremental",
                             by_key))), len(republish)),
        "xslt.interpreted_transform_ms.p50": _p50(ms(
            "xslt.engine.transform",
            lambda s: not _under(s, "xslt.compiled.render", by_key))),
        "olap.query.parse_resolve_us.p50": _p50(
            [v * 1e6 for v in parse_resolve.values()]),
        "olap.agg.hit_ratio": _ratio(outcomes.count("hit"), len(outcomes)),
        "olap.agg.coalesced": float(outcomes.count("coalesced")),
        "olap.agg.entry_hit_us.p50": _p50(
            [s.duration_s * 1e6 for s in named["olap.agg.entry"]
             if s.info.get("outcome") == "hit"]),
        "olap.engine.execute_ms.p50": _p50(ms("olap.engine.execute")),
        "olap.engine.rows_per_cell": _ratio(
            sum(i["rows"] for i in engine), sum(i["cells"] for i in engine)),
        "olap.render.json_ms.p50": _p50(ms("olap.render.render_json")),
        "olap.render.xml_ms.p50": _p50(ms("olap.render.render_xml")),
        "olap.datagen_s": _p50(
            [s.duration_s for s in named["olap.datagen.synthesize_star"]]),
        "buildstore.model_get_us.p50": _p50(us("buildstore.model_get")),
        "buildstore.load_site_ms.p50": _p50(ms("buildstore.load_site")),
        "buildstore.store_site_ms.p50": _p50(ms("buildstore.store_site")),
        "buildstore.lock_wait_ms.p50": _p50(ms(LOCK_WAIT)),
        "buildstore.disk_hit_ratio": _ratio(loads.count(True), len(loads)),
        "workers.request_share.min": _ratio(min(served), sum(served)),
    }


def coverage(spans: list[Span], reads: list) -> float:
    """Median share of a read's client latency that span self times
    plus the transport overhead account for."""
    tree_s: dict[str, float] = defaultdict(float)
    handle_s: dict[str, float] = {}
    for span in spans:
        if span.rid is None:
            continue
        if span.name == "app.handle":
            handle_s[span.rid] = span.duration_s
        if span.name != "httpd.dispatch":
            tree_s[span.rid] += span.self_s
    shares = []
    for rid, client_ms in reads:
        if rid in handle_s and client_ms > 0:
            overhead_s = client_ms / 1000.0 - handle_s[rid]
            shares.append((tree_s[rid] + overhead_s) * 1000.0 / client_ms)
    return _p50(shares)
