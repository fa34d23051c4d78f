"""Engine-wide observability: spans, counters, sinks (DESIGN.md §10).

Quick use::

    from repro.obs import profiling, build_trace, text_report

    with profiling():
        publish_multi_page(model)
        trace = build_trace()
    print(text_report(trace))

The instrumented hot paths (``xml/dom.py``, ``xpath/evaluator.py``,
``xslt/engine.py``, ``xsd/validator.py``, ``web/publisher.py``) guard
every recording call on ``RECORDER.enabled`` and are no-ops by default;
``benchmarks/bench_o3_overhead.py`` holds the ≤2 % disabled-overhead
guard.

Only the stdlib-only modules (:mod:`.recorder`, :mod:`.export`) load
eagerly — the HTML sink pulls in the XSLT engine, so it stays a lazy
import inside :func:`render_profile_html`'s module.
"""

from .export import (
    SCHEMA_VERSION,
    build_trace,
    cache_stats,
    text_report,
    trace_json,
    write_trace,
)
from .ids import RequestIdGenerator, is_request_id
from .recorder import (
    RECORDER,
    Recorder,
    Snapshot,
    count,
    enabled,
    observe,
    profiling,
    span,
)
from .rolling import GAMMA, WINDOWS, QuantileSketch, RollingWindow
from .slo import LatencySLO, RatioSLO, SLOStatus, default_slos, parse_slo

__all__ = [
    "GAMMA",
    "LatencySLO",
    "QuantileSketch",
    "RECORDER",
    "RatioSLO",
    "Recorder",
    "RequestIdGenerator",
    "RollingWindow",
    "SLOStatus",
    "Snapshot",
    "SCHEMA_VERSION",
    "WINDOWS",
    "build_trace",
    "cache_stats",
    "count",
    "default_slos",
    "enabled",
    "is_request_id",
    "observe",
    "parse_slo",
    "profiling",
    "render_dashboard_html",
    "render_profile_html",
    "span",
    "text_report",
    "trace_json",
    "write_trace",
]


def render_profile_html(trace: dict | None = None) -> str:
    """Render the HTML profile page (lazy import of the XSLT sink)."""
    from .htmlreport import render_profile_html as render

    return render(trace)


def render_dashboard_html(snap: dict, *, request_id: str = "") -> str:
    """Render the live ops page (lazy import of the XSLT sink)."""
    from .dashboard import render_dashboard_html as render

    return render(snap, request_id=request_id)
