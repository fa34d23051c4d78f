"""What the server families share: one exchange, one site oracle, one
/metrics parser and the fleet width.

The ``chaos``, ``chaosmp`` and ``multiproc`` families of
:mod:`repro.testkit.run` drive a live server over HTTP and compare what
it serves against an offline publish in this process.  Each of them,
and the pre-fork server tests, use the helpers below.
"""

from __future__ import annotations

import hashlib

from ..faults import FAULTS
from ..server import ModelRepositoryApp
from ..web import ClientResponse, RepositoryClient, RetryPolicy

__all__ = ["fetch", "offline_pages", "parse_metrics"]

#: One attempt per exchange: whether a shed or a dropped connection is
#: legal is for the caller's invariants to judge, not to be retried away.
_ONE_ATTEMPT = RetryPolicy(retries=0)

#: A read this long is a hung connection, never a slow one.
FETCH_TIMEOUT_S = 30.0

#: The width of the fleets the ``multiproc`` and ``chaosmp`` families
#: start.
WORKERS = 2


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def fetch(server, method: str, path: str,
          body: bytes | None = None) -> ClientResponse:
    """One exchange with *server* on a fresh connection.

    A fleet's reuseport hash re-rolls the answering worker per
    connection.  A transport failure raises
    :class:`~repro.web.RetriesExhausted`, and a read that outlasts
    :data:`FETCH_TIMEOUT_S` raises :class:`TimeoutError`.
    """
    with RepositoryClient(server.host, server.port,
                          timeout_s=FETCH_TIMEOUT_S,
                          policy=_ONE_ATTEMPT) as client:
        return client.request(method, path, body=body)


def offline_pages(xml_bytes: bytes) -> dict[str, bytes]:
    """The site oracle: every page of the multi-page site that a
    single-process app publishes for *xml_bytes*, by file name.

    The pages embed the model's XML name, not the name it is stored
    under, so one oracle serves any record name.  Faults must be off:
    the offline app shares the fault registry with a server under test.
    """
    assert not FAULTS.enabled, "the oracle must render fault-free"
    app = ModelRepositoryApp()
    response = app.handle("PUT", "/models/m", {}, xml_bytes)
    assert response.status == 201, response.status
    assert app.handle("GET", "/site/m/index.html").status == 200
    pages = {}
    for page in app.cache.peek("m", "multi").pages:
        response = app.handle("GET", f"/site/m/{page}")
        assert response.status == 200, (page, response.status)
        pages[page] = response.body
    return pages


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text exposition → ``{series-with-labels: value}``.

    Raises ValueError on a malformed sample line, which the families
    report as a violation: /metrics must stay parseable mid-storm.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            raise ValueError(f"malformed metrics line {line!r}")
        samples[key] = float(value)
    return samples
