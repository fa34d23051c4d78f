"""The OLAP query service (DESIGN.md §16).

Turns stored models into a live, compute-bound OLAP workload: seeded
synthetic datasets derived per ``(model content hash, data seed)``, a
declarative slice/dice/roll-up query form, and a materialized-aggregate
cache: the shared :mod:`repro.coalesce` cache the site cache also
builds on.
"""

from .aggcache import AggregateCache, AggregateEntry
from .datagen import DatasetConfig, synthesize_star
from .query import (
    QueryError,
    QuerySpec,
    RawQuery,
    parse_query,
    resolve_query,
)
from .render import RESULT_XSL, render_json, render_xml, result_payload
from .service import RESULT_FORMATS, OlapService, QueryRenderError

__all__ = [
    "AggregateCache", "AggregateEntry", "DatasetConfig", "synthesize_star",
    "QueryError", "QuerySpec", "RawQuery", "parse_query",
    "resolve_query", "RESULT_XSL", "render_json", "render_xml",
    "result_payload", "RESULT_FORMATS", "OlapService",
    "QueryRenderError",
]
