"""Always-on server telemetry: request ids, access logs, rolling SLOs.

This module glues the generic rolling layer (:mod:`repro.obs.rolling`,
:mod:`repro.obs.slo`, :mod:`repro.obs.ids`) onto the repository server
(DESIGN.md §15).  Unlike the PR 3 profiler it is **on by default** —
the hot-path budget is a ULID mint plus a handful of dict increments
under one short lock per request, gated to stay within 5% of the clean
R5 throughput by ``benchmarks/bench_o8_telemetry.py``.

Wiring:

* :meth:`ServerTelemetry.begin` / :meth:`~ServerTelemetry.finish`
  bracket every request in :meth:`repro.server.app.ModelRepositoryApp
  .handle`: an id is minted (or adopted from a well-behaved
  ``X-Goldcase-Request-Id`` the client sent), the request context is
  installed in a thread-local, and on finish the rolling window gains
  counters (``http.requests``, ``http.status.<class>``, per-model,
  per-flag) plus a latency observation, and one JSON access-log line
  is emitted when a sink is configured.
* The *flags* on that context come from the layers below without any
  plumbing through return values: :func:`mark` is called by the site
  cache on hits/rebuilds/coalesces/stale/shed, and the fault registry's
  fire listener (installed at import) appends every fault point that
  fired while this thread was handling the request.  Both degrade to
  no-ops outside a request.
* Telemetry is per-:class:`~repro.server.app.ModelRepositoryApp`
  (tests isolate cleanly); only the thread-local *context* is module
  global, which is what lets cache code annotate whichever app is
  handling the current thread's request.

Disable with ``set_enabled(False)`` (or ``enabled=False``) to
benchmark the bare serving path; everything above degrades to a single
flag check per request.
"""

from __future__ import annotations

import json
import threading
import time
from time import perf_counter

from ..faults import set_fire_listener
from ..obs.ids import RequestIdGenerator, is_request_id
from ..obs.rolling import WINDOWS, RollingWindow
from ..obs.slo import default_slos

__all__ = [
    "ServerTelemetry",
    "RequestContext",
    "current_context",
    "mark",
    "mark_model",
]

#: Status classes exposed as counters (``http.status.2xx`` ...).
_STATUS_CLASSES = ("1xx", "2xx", "3xx", "4xx", "5xx")

#: status // 100 -> counter name, precomputed off the hot path.
_STATUS_COUNTERS = {index + 1: f"http.status.{name}"
                    for index, name in enumerate(_STATUS_CLASSES)}

_LOCAL = threading.local()


def _coarse_ms() -> int:
    """Wall milliseconds quantized to 64 ms, for per-thread minting.

    A ULID's timestamp prefix re-encodes only when the generator's
    clock ticks to a new value; at a few hundred requests per second
    per handler thread an exact clock ticks on *every* mint, so the
    per-thread generators trade 64 ms of id-timestamp resolution for a
    ~95% prefix-cache hit rate.  Ids stay strictly increasing per
    generator (the in-tick path increments the payload), and access-log
    lines carry the exact wall time separately.
    """
    return int(time.time() * 1000) & -64


class _ThreadState:
    """Everything telemetry keeps per handler thread, in one object.

    ``threading.local`` attribute access costs real time on the hot
    path (a dict lookup against the thread state per attribute); one
    state object means ``begin``/``finish`` pay it once per call
    instead of once per field.  The scratch dicts are reused across
    requests and the id generator is per-thread so minting never
    touches a lock another thread can hold.
    """

    __slots__ = ("ctx", "counters", "generator", "buffer",
                 "buffer_window", "free")

    def __init__(self) -> None:
        self.ctx: RequestContext | None = None
        self.counters: dict[str, int] = {}
        self.generator: RequestIdGenerator | None = None
        #: One recycled RequestContext: ``finish`` parks the context it
        #: just closed and the next ``begin`` on this thread refills it
        #: instead of allocating.  Safe because a context's useful life
        #: ends at ``finish`` — nothing in the server holds one after.
        self.free: RequestContext | None = None
        #: This thread's write buffer of *buffer_window*, cached so the
        #: finish path skips the window's own thread-local lookup.
        #: Keyed by window identity because one thread can serve many
        #: apps (tests spin servers up and down freely).
        self.buffer = None
        self.buffer_window = None


def _state() -> _ThreadState:
    state = getattr(_LOCAL, "state", None)
    if state is None:
        state = _LOCAL.state = _ThreadState()
    return state


def current_context() -> "RequestContext | None":
    """The request context active on this thread, if any."""
    state = getattr(_LOCAL, "state", None)
    return state.ctx if state is not None else None


def mark(flag: str) -> None:
    """Tag the current request with *flag* (no-op outside a request).

    Called by the site cache (``cache_hit``, ``rebuild``, ``coalesced``,
    ``stale_served``, ``shed``, ...) so access-log lines say what the
    cache did for each request without threading state through returns.
    Flags outside :data:`ServerTelemetry.FLAG_COUNTERS` are ignored —
    the per-request representation is a bitmask over the known set,
    which keeps the hot path allocation-free.
    """
    state = getattr(_LOCAL, "state", None)
    ctx = state.ctx if state is not None else None
    if ctx is not None:
        ctx.flag_bits |= _FLAG_BITS.get(flag, 0)


def mark_model(name: str) -> None:
    """Attribute the current request to model *name* (no-op outside)."""
    state = getattr(_LOCAL, "state", None)
    ctx = state.ctx if state is not None else None
    if ctx is not None:
        ctx.model = name


def _on_fault_fire(point: str, mode: str) -> None:
    state = getattr(_LOCAL, "state", None)
    ctx = state.ctx if state is not None else None
    if ctx is not None:
        if ctx.faults is None:
            ctx.faults = []
        ctx.faults.append(point)


# One process-wide listener: contexts are thread-local, so attribution
# is correct regardless of how many apps share the fault registry.
set_fire_listener(_on_fault_fire)


class RequestContext:
    """Mutable per-request state between ``begin`` and ``finish``.

    Flags live in a bitmask and the fault list is allocated only when
    a fault actually fires: besides the context itself, a clean request
    allocates no GC-tracked containers, which matters because the
    dominant telemetry cost at full request rate is not the metric
    arithmetic but the extra garbage-collector passes over the server's
    large cached-page heap.
    """

    __slots__ = ("telemetry", "state", "request_id", "method", "path",
                 "flag_bits", "faults", "model", "start")

    def __init__(self, telemetry: "ServerTelemetry", state: "_ThreadState",
                 request_id: str, method: str, path: str) -> None:
        self.telemetry = telemetry
        #: The minting thread's state; ``finish`` runs on the same
        #: thread (the bracket is synchronous), so carrying it here
        #: saves the second ``threading.local`` lookup per request.
        self.state = state
        self.request_id = request_id
        self.method = method
        self.path = path
        self.flag_bits = 0
        self.faults: list[str] | None = None
        self.model: str | None = None
        self.start = perf_counter()

    @property
    def flags(self) -> set[str]:
        """The marked flags as names (tests and introspection)."""
        return {name for name, bit in _FLAG_BITS.items()
                if self.flag_bits & bit}


class ServerTelemetry:
    """One app's always-on metric surface; see the module docstring."""

    #: Rolling counter/sketch names flagged requests increment, keyed
    #: by the flag the cache (or httpd) marks.
    FLAG_COUNTERS = {
        "cache_hit": "cache.hit",
        "rebuild": "cache.rebuild",
        "coalesced": "cache.coalesced",
        "stale_served": "http.stale",
        "shed": "http.shed",
        "incremental": "cache.incremental",
        "incremental_fallback": "cache.incremental_fallback",
        "build_failure": "cache.build_failure",
        "invalidation": "cache.invalidation",
        "not_modified": "http.not_modified",
        "transport_error": "http.transport_error",
        "olap_hit": "olap.hit",
        "olap_executed": "olap.executed",
        "olap_coalesced": "olap.coalesced",
        # Appended after PR 9 (bit positions are enumeration order —
        # only ever add at the end): the on-disk build-store tier.
        "disk_hit": "cache.disk_hit",
        "disk_store": "cache.disk_store",
    }

    def __init__(self, *, enabled: bool = True, clock=time.monotonic,
                 access_log=None, slos: list | None = None) -> None:
        self.enabled = enabled
        # Each handler thread writes to a buffer of its own: the armed
        # hot path never waits on a lock another thread holds.
        self.window = RollingWindow(clock=clock)
        self.slos = list(slos) if slos is not None else default_slos()
        #: A file-like (``write(str)``) or callable sink for JSON
        #: access-log lines; None disables access logging.
        self.access_log = access_log
        self._log_lock = threading.Lock()
        #: model name -> interned "model.<name>" counter key; saves an
        #: f-string per request on the finish path.
        self._model_counters: dict[str, str] = {}
        #: (status, flag_bits, model) -> tuple of counter names each
        #: fault-free request with that shape increments by one.  The
        #: shape space is tiny (a few statuses x a few flag combos x
        #: the served models), so after warm-up the finish path reads
        #: one cached tuple instead of assembling a dict per request.
        self._hit_names: dict[tuple, tuple] = {}

    def set_enabled(self, enabled: bool) -> None:
        """Flip the whole layer (benchmark kill switch)."""
        self.enabled = enabled

    # -- the request bracket -----------------------------------------------

    def begin(self, method: str, path: str,
              client_id: str | None = None) -> RequestContext | None:
        """Open a request context; returns None when disabled.

        A syntactically valid client-supplied id is adopted verbatim —
        that is how one logical client request keeps a single identity
        across retries — anything else gets a fresh ULID.
        """
        if not self.enabled:
            return None
        state = _state()
        if client_id is not None and is_request_id(client_id.upper()):
            request_id = client_id.upper()
        else:
            # Minted per thread: a shared generator's lock showed up as
            # contention under eight handler threads.
            generator = state.generator
            if generator is None:
                generator = state.generator = RequestIdGenerator(
                    clock_ms=_coarse_ms)
            request_id = generator()
        ctx = state.free
        if ctx is None:
            ctx = RequestContext(self, state, request_id, method, path)
        else:
            state.free = None
            ctx.telemetry = self
            ctx.state = state
            ctx.request_id = request_id
            ctx.method = method
            ctx.path = path
            ctx.flag_bits = 0
            ctx.faults = None
            ctx.model = None
            ctx.start = perf_counter()
        state.ctx = ctx
        return ctx

    def finish(self, ctx: RequestContext, status: int,
               response_bytes: int) -> None:
        """Close *ctx*: roll counters, observe latency, log the line."""
        state = ctx.state
        if state.ctx is ctx:
            state.ctx = None
        duration_s = perf_counter() - ctx.start
        if ctx.faults is None:
            # Fault-free fast path (every request in normal operation):
            # the counter names for this request shape come from one
            # cache hit, and they land on this thread's buffer directly
            # — no scratch dict, no per-request thread-local lookup.
            key = (status, ctx.flag_bits, ctx.model)
            names = self._hit_names.get(key)
            if names is None:
                names = self._hit_names[key] = self._counter_names(
                    status, ctx.flag_bits, ctx.model)
            window = self.window
            if state.buffer_window is window:
                buffer = state.buffer
            else:
                buffer = state.buffer = window.buffer_for_thread()
                state.buffer_window = window
            buffer.record_hit(
                names, "http.bytes" if response_bytes else None,
                response_bytes, "http.latency", duration_s)
        else:
            counters = state.counters
            counters.clear()
            for name in self._counter_names(status, ctx.flag_bits,
                                            ctx.model):
                counters[name] = 1
            if response_bytes:
                counters["http.bytes"] = response_bytes
            for point in ctx.faults:
                name = f"fault.{point}"
                counters[name] = counters.get(name, 0) + 1
            self.window.record(counters, {"http.latency": duration_s})
        if self.access_log is not None:
            self._log(ctx, status, response_bytes, duration_s)
        state.free = ctx

    def _counter_names(self, status: int, bits: int,
                       model: str | None) -> tuple:
        """The +1 counters a (status, flags, model) request rolls."""
        names = ["http.requests"]
        status_counter = _STATUS_COUNTERS.get(status // 100)
        if status_counter is not None:
            names.append(status_counter)
        if bits:
            for bit, counter in _FLAG_COUNTER_BITS:
                if bits & bit:
                    names.append(counter)
        if model is not None:
            model_counters = self._model_counters
            name = model_counters.get(model)
            if name is None:
                name = model_counters[model] = f"model.{model}"
            names.append(name)
        return tuple(names)

    def _log(self, ctx: RequestContext, status: int, response_bytes: int,
             duration_s: float) -> None:
        record = {
            "ts": round(time.time(), 6),
            "id": ctx.request_id,
            "method": ctx.method,
            "path": ctx.path,
            "status": status,
            "bytes": response_bytes,
            "duration_ms": round(duration_s * 1000.0, 3),
        }
        if ctx.model is not None:
            record["model"] = ctx.model
        if ctx.flag_bits:
            record["flags"] = sorted(name for name, bit in _FLAG_BITS.items()
                                     if ctx.flag_bits & bit)
        if ctx.faults:
            record["faults"] = ctx.faults
        line = json.dumps(record, sort_keys=True) + "\n"
        sink = self.access_log
        with self._log_lock:
            if callable(sink):
                sink(line)
            else:
                sink.write(line)
                flush = getattr(sink, "flush", None)
                if flush is not None:
                    flush()

    def transport_event(self, method: str, path: str, status: int,
                        message: str) -> str | None:
        """Record a transport-level rejection the app never saw.

        The httpd layer calls this for 400/408/413/500 responses it
        fabricates itself (bad framing, stalled bodies, an app that
        raised before its own bracket opened) so those exchanges still
        get ids, counters, and access-log lines.  Returns the minted id
        (None when disabled).
        """
        ctx = self.begin(method, path)
        if ctx is None:
            return None
        ctx.flag_bits |= _FLAG_BITS["transport_error"]
        self.finish(ctx, status, 0)
        return ctx.request_id

    # -- reading -----------------------------------------------------------

    def slo_report(self) -> list[dict]:
        """Every configured SLO evaluated now, as JSON-ready dicts."""
        return [slo.evaluate(self.window).as_dict() for slo in self.slos]

    def top_models(self, n: int = 10) -> list[tuple[str, int]]:
        """The *n* most-requested models (lifetime), busiest first."""
        totals = self.window.totals()
        models = [(name[len("model."):], count)
                  for name, count in totals.items()
                  if name.startswith("model.")]
        models.sort(key=lambda pair: (-pair[1], pair[0]))
        return models[:n]

    def snapshot(self) -> dict:
        """The dashboard's view: windows, SLOs, top models, sparkline."""
        snap = self.window.snapshot()
        snap["slos"] = self.slo_report()
        snap["top_models"] = self.top_models()
        snap["series_60s"] = self.window.series("http.requests", 60)
        return snap

    # -- /metrics exposition -----------------------------------------------

    def metrics_text(self, *, caches: dict | None = None,
                     site_cache: dict | None = None,
                     extra_gauges: dict | None = None,
                     default_labels: dict | None = None) -> str:
        """Prometheus text exposition (version 0.0.4) of everything.

        Lifetime counters become ``_total`` series (monotonic by
        construction — the chaos runner scrapes twice and asserts they
        never step backwards), windowed rates and SLO states become
        gauges, and the cumulative latency sketch becomes a classic
        cumulative-``le`` histogram.

        *default_labels* is stamped onto every sample (explicit labels
        win on collision).  The pre-fork server passes
        ``{"worker": "<id>"}`` so N workers' expositions stay distinct
        series when one scraper reads them through the shared port.
        """
        window = self.window
        lines: list[str] = []

        def header(name: str, kind: str, help_text: str) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        def sample(name: str, value, labels: dict | None = None) -> None:
            merged = dict(default_labels) if default_labels else {}
            if labels:
                merged.update(labels)
            if merged:
                inner = ",".join(
                    f'{key}="{_escape(str(val))}"'
                    for key, val in sorted(merged.items()))
                lines.append(f"{name}{{{inner}}} {_number(value)}")
            else:
                lines.append(f"{name} {_number(value)}")

        header("goldcase_uptime_seconds", "gauge",
               "Seconds since the telemetry window started.")
        sample("goldcase_uptime_seconds", window.uptime_s())

        totals = window.totals()
        flat = {name: value for name, value in totals.items()
                if not name.startswith(("model.", "fault."))}
        for name in sorted(flat):
            metric = "goldcase_" + _sanitize(name) + "_total"
            header(metric, "counter", f"Lifetime count of {name}.")
            sample(metric, flat[name])
        models = {name[len("model."):]: value
                  for name, value in totals.items()
                  if name.startswith("model.")}
        if models:
            header("goldcase_model_requests_total", "counter",
                   "Lifetime requests attributed to each model.")
            for model in sorted(models):
                sample("goldcase_model_requests_total", models[model],
                       {"model": model})
        faults = {name[len("fault."):]: value
                  for name, value in totals.items()
                  if name.startswith("fault.")}
        if faults:
            header("goldcase_fault_fires_total", "counter",
                   "Lifetime injected-fault fires attributed to "
                   "requests.")
            for point in sorted(faults):
                sample("goldcase_fault_fires_total", faults[point],
                       {"point": point})

        header("goldcase_request_rate", "gauge",
               "Requests per second over each trailing window.")
        header("goldcase_error_rate", "gauge",
               "5xx responses per second over each trailing window.")
        for window_s in WINDOWS:
            label = {"window": f"{window_s}s"}
            counters = window.window_counters(window_s)
            sample("goldcase_request_rate",
                   counters.get("http.requests", 0) / window_s, label)
            sample("goldcase_error_rate",
                   counters.get("http.status.5xx", 0) / window_s, label)

        for name in window.sketch_names():
            metric = "goldcase_" + _sanitize(name) + "_seconds"
            header(metric, "summary",
                   f"Windowed quantiles of {name} (seconds).")
            for window_s in WINDOWS:
                sketch = window.window_sketch(name, window_s)
                if not sketch.count:
                    continue
                for q in (0.5, 0.9, 0.99):
                    sample(metric, sketch.quantile(q),
                           {"window": f"{window_s}s", "quantile": str(q)})
            total_sketch = window.total_sketch(name)
            header(metric + "_hist", "histogram",
                   f"Lifetime histogram of {name} (seconds).")
            for upper, cumulative in total_sketch.cumulative_buckets():
                sample(metric + "_hist_bucket", cumulative,
                       {"le": f"{upper:.9g}"})
            sample(metric + "_hist_bucket", total_sketch.count,
                   {"le": "+Inf"})
            sample(metric + "_hist_sum", total_sketch.total)
            sample(metric + "_hist_count", total_sketch.count)

        if self.slos:
            header("goldcase_slo_ok", "gauge",
                   "1 when the SLO holds over its window, else 0.")
            header("goldcase_slo_burn", "gauge",
                   "Error-budget burn rate (1.0 = spending exactly the "
                   "budget).")
            header("goldcase_slo_value", "gauge",
                   "The measured signal each SLO constrains.")
            for status in self.slo_report():
                label = {"slo": status["name"],
                         "window": f"{status['window_s']}s"}
                sample("goldcase_slo_ok", 1 if status["ok"] else 0, label)
                sample("goldcase_slo_burn", status["burn"], label)
                sample("goldcase_slo_value", status["value"], label)

        if site_cache:
            monotonic = {key: value for key, value in site_cache.items()
                         if isinstance(value, int)
                         and key not in ("entries", "resident_bytes")}
            for key in sorted(monotonic):
                metric = "goldcase_site_" + _sanitize(key) + "_total"
                header(metric, "counter", f"Site cache {key}.")
                sample(metric, monotonic[key])
            for key in ("entries", "resident_bytes"):
                if key in site_cache:
                    metric = "goldcase_site_" + _sanitize(key)
                    header(metric, "gauge", f"Site cache {key}.")
                    sample(metric, site_cache[key])

        if caches:
            header("goldcase_cache_hits_total", "counter",
                   "Engine cache hits (compile/index caches).")
            header("goldcase_cache_misses_total", "counter",
                   "Engine cache misses (compile/index caches).")
            header("goldcase_cache_size", "gauge",
                   "Current engine cache entry counts.")
            for name in sorted(caches):
                info = caches[name]
                label = {"cache": name}
                sample("goldcase_cache_hits_total", info["hits"], label)
                sample("goldcase_cache_misses_total", info["misses"], label)
                sample("goldcase_cache_size", info["currsize"], label)

        for name, value in sorted((extra_gauges or {}).items()):
            metric = "goldcase_" + _sanitize(name)
            header(metric, "gauge", f"{name}.")
            sample(metric, value)

        return "\n".join(lines) + "\n"


#: flag name -> bit in ``RequestContext.flag_bits``; the per-request
#: flag representation is an int so marking costs an ``or``, not a set.
_FLAG_BITS = {flag: 1 << index for index, flag
              in enumerate(ServerTelemetry.FLAG_COUNTERS)}

#: (bit, rolling counter name) pairs for the finish path.
_FLAG_COUNTER_BITS = tuple(
    (1 << index, counter) for index, counter
    in enumerate(ServerTelemetry.FLAG_COUNTERS.values()))


def _sanitize(name: str) -> str:
    return "".join(char if char.isalnum() else "_" for char in name)


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"") \
        .replace("\n", r"\n")


def _number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))
