"""The model-repository HTTP server (DESIGN.md §11).

The paper's deployment (§6) — XSLT runs "in the server and the HTML is
returned to the client browser" — realized as a stdlib-only subsystem:

* :mod:`repro.server.store` — the validated REST model store;
* :mod:`repro.server.cache` — the incremental rebuild cache (the
  shared :mod:`repro.coalesce` cache, plus incremental builds and
  build-time link checking);
* :mod:`repro.server.app` — transport-agnostic routing with strong
  ETags, conditional GET, and per-extension content types;
* :mod:`repro.server.telemetry` — the always-on metric surface:
  request ids, rolling windows, SLOs, ``/metrics``, ``/dashboard``;
* :mod:`repro.server.httpd` — the threaded HTTP front end behind
  ``goldcase serve``;
* :mod:`repro.server.buildstore` — the content-addressed on-disk
  artifact tier shared by every process (DESIGN.md §17);
* :mod:`repro.server.workers` — the pre-fork supervisor behind
  ``goldcase serve --workers N``.
"""

from .app import (
    CONTENT_TYPES,
    METRICS_CONTENT_TYPE,
    REQUEST_ID_HEADER,
    ModelRepositoryApp,
    Response,
)
from .buildstore import BuildStore, SharedModelStore
from .cache import SiteCache, SiteEntry, VARIANTS
from .httpd import (
    MAX_BODY_BYTES,
    READ_TIMEOUT_S,
    ModelServer,
    make_server,
    serve_forever,
)
from .store import ModelRecord, ModelStore, ModelStoreError
from .telemetry import RequestContext, ServerTelemetry
from .workers import (
    MultiWorkerServer,
    make_worker_app,
    reuseport_available,
    serve_forever_multi,
)

__all__ = [
    "BuildStore",
    "MultiWorkerServer",
    "SharedModelStore",
    "make_worker_app",
    "reuseport_available",
    "serve_forever_multi",
    "CONTENT_TYPES",
    "MAX_BODY_BYTES",
    "METRICS_CONTENT_TYPE",
    "ModelRepositoryApp",
    "READ_TIMEOUT_S",
    "REQUEST_ID_HEADER",
    "RequestContext",
    "ServerTelemetry",
    "Response",
    "SiteCache",
    "SiteEntry",
    "VARIANTS",
    "ModelServer",
    "make_server",
    "serve_forever",
    "ModelRecord",
    "ModelStore",
    "ModelStoreError",
]
