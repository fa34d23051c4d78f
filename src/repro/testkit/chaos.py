"""The ``chaos`` family: fault plans against a live model server.

Run it with ``python -m repro.testkit.run --family chaos``.  The
family's fixture is one :class:`~repro.server.httpd.ModelServer`,
started once per run, whose models one :class:`ModelTracker` each
bootstraps and warms.  Each iteration is one round, drawn from the
family's RNG, and has four beats:

1. **Mutate** (faults off): one model advances a version; expected page
   bytes for the new version are computed offline first, so every byte
   the server may legitimately serve is known in advance.
2. **Coalesce check** (faults off): a barrier burst against the stale
   page must trigger exactly one rebuild and one shared body.
3. **Hammer** (faults on): a randomized :class:`FaultPlan` — rebuild
   failures, per-page render failures, incremental-diff failures,
   OLAP execution/generation failures, transport delays and drops — is
   activated while concurrent :class:`RepositoryClient` workers fetch
   models, pages, OLAP query results (a seeded share of them as XML),
   and health, and a mid-phase version flip forces rebuilds to happen
   *under* the faults.  Warm rebuilds route through the incremental
   republisher (the cache already holds the previous build plus its
   dependency index), so the flip exercises the diff path specifically.
4. **Recover** (faults off): the :func:`recovery_sweep` — every
   resource must come back fresh, current, and unmarked.

Invariants checked on every response:

* no hung connections — a client socket timeout is always a violation;
* no 5xx the active fault plan cannot explain — a JSON query runs no
  XSLT, so only an OLAP fault explains its 500, while an XML query's
  500 may also come from ``xslt.transform`` (DESIGN.md §16.8); and no
  stale query result unless an OLAP execution fault is armed;
* served bytes are never torn: every 200 body — page *or* OLAP query
  result — is byte-identical to an expected rendering of some version,
  and after recovery it is the *current* version with no staleness
  marker;
* rebuild coalescing holds (one build per burst);
* the telemetry surface stays up: ``/metrics`` is scraped mid-storm
  and after recovery, must stay serveable and parseable, and its
  ``_total`` counters must never step backwards across scrapes (the
  rolling ring may reclaim buckets, the lifetime counters may not);
  ``/dashboard`` must render once faults are off.

Each violation record carries the round's fault plan, and each
response-level one the ``X-Goldcase-Request-Id`` of the offending
exchange, so a failure can be joined against the server's access log.
:func:`check_response` and :func:`recovery_sweep` also serve the
``chaosmp`` family, whose hammer runs with no plan armed.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..faults import FAULTS, FaultPlan
from ..mdm import model_to_xml, sales_model, two_facts_model
from ..olap.service import DatasetConfig, OlapService, RESULT_FORMATS
from ..server import ModelRepositoryApp, ModelServer
from ..web import RepositoryClient, RetriesExhausted, RetryPolicy
from ..web.client import query_path
from .live import _sha, fetch, offline_pages, parse_metrics

__all__ = ["ModelTracker", "check_response", "recovery_sweep",
           "run_round", "serving"]

#: Points a random plan may draw from, with the modes that keep the
#: server *degradable*: store faults are excluded because the harness
#: flips versions through the store directly and must know they landed.
FAULT_MENU = (
    ("cache.rebuild", "raise"),
    ("cache.rebuild", "delay"),
    ("publish.page", "raise"),
    ("publish.diff", "raise"),
    ("xslt.transform", "raise"),
    ("olap.execute", "raise"),
    ("olap.execute", "delay"),
    ("olap.generate", "raise"),
    ("httpd.read", "delay"),
    ("httpd.write", "delay"),
    ("httpd.read", "raise"),
    ("httpd.write", "raise"),
)

#: Points whose ``raise`` mode surfaces as a dropped connection rather
#: than an HTTP status — the only sanctioned cause of transport errors.
TRANSPORT_POINTS = frozenset({"httpd.read", "httpd.write"})

#: Points whose ``raise`` mode may surface as a 500 (cold build) —
#: normally absorbed into a stale 200, but never guaranteed to be.
BUILD_POINTS = frozenset({"cache.rebuild", "publish.page",
                          "publish.diff", "xslt.transform"})

#: Points whose ``raise`` mode fails a query execution: a cold query
#: answers 500, a warm one a marked-stale 200.  Nothing else makes a
#: query stale — an execution runs no XSLT (DESIGN.md §16.8).
EXECUTION_POINTS = frozenset({"olap.execute", "olap.generate"})

#: Per query format, the points whose ``raise`` mode may explain a 500.
#: An XML query also renders the stored JSON through the XSLT engine,
#: and a failed rendering is a 500 even on a warm entry.
QUERY_POINTS = {
    "json": EXECUTION_POINTS,
    "xml": EXECUTION_POINTS | {"xslt.transform"},
}

#: The share of hammer queries that ask for XML.
XML_QUERY_SHARE = 0.3

#: Shrunken synthetic datasets so per-version oracle precomputation and
#: under-fault regeneration stay cheap; the live server under test and
#: the offline oracle renderer must share this config byte-for-byte.
CHAOS_DATASET = DatasetConfig(members_per_level=4, rows_per_fact=300)

#: Concurrent hammer clients per round, and requests per client.
CLIENTS = 6
REQUESTS = 20


def _metrics_violations(previous: dict[str, float],
                        current: dict[str, float]) -> list[str]:
    """Counters that stepped backwards (or vanished) between scrapes."""
    problems = []
    for key, before in previous.items():
        if not key.startswith("goldcase_") or "_total" not in key:
            continue
        after = current.get(key)
        if after is None:
            problems.append(f"{key} vanished (was {before})")
        elif after < before:
            problems.append(f"{key} went backwards: {before} -> {after}")
    return problems


def _metrics_probe(server: "ModelServer", plan: FaultPlan | None,
                   state: dict, *, phase: str) -> list[dict]:
    """Scrape ``/metrics`` and apply the telemetry invariants.

    *state* carries the previous scrape's samples across calls (and
    rounds), so monotonicity is checked over the whole run.  During the
    hammer phase the scrape rides a retrying client; a dropped scrape
    is only tolerated when the active plan contains transport
    ``raise`` faults — the only sanctioned cause of drops.
    """
    failures: list[dict] = []
    policy = RetryPolicy(retries=2, base_delay_s=0.01, max_delay_s=0.2)
    with RepositoryClient(server.host, server.port, timeout_s=10.0,
                          policy=policy) as client:
        try:
            response = client.request("GET", "/metrics")
        except RetriesExhausted as exc:
            transport_raises = plan is not None and any(
                spec.mode == "raise" and point in TRANSPORT_POINTS
                for point, spec in plan.specs.items())
            if not transport_raises:
                failures.append({"check": "metrics-unscrapeable",
                                 "phase": phase, "detail": str(exc)})
            return failures
    if response.status != 200:
        failures.append({"check": "metrics-status", "phase": phase,
                         "request_id": response.request_id,
                         "detail": f"status {response.status}"})
        return failures
    try:
        samples = parse_metrics(response.body.decode("utf-8"))
    except ValueError as exc:
        failures.append({"check": "metrics-unparseable", "phase": phase,
                         "request_id": response.request_id,
                         "detail": str(exc)})
        return failures
    previous = state.get("samples")
    if previous is not None:
        for problem in _metrics_violations(previous, samples):
            failures.append({"check": "metrics-monotonicity",
                             "phase": phase,
                             "request_id": response.request_id,
                             "detail": problem})
    state["samples"] = samples
    return failures


def _pick_format(rng: random.Random) -> str:
    return "xml" if rng.random() < XML_QUERY_SHARE else "json"


def _query_path(name: str, params: dict, fmt: str) -> str:
    """The path of query *params* asking for *fmt* (JSON, the default,
    sends no ``format``)."""
    return query_path(name, params, None if fmt == "json" else fmt)


def _expected_queries(name: str, xml_bytes: bytes, queries: tuple[dict, ...]
                      ) -> dict[str, dict[str, bytes]]:
    """Execute model *name*'s OLAP queries offline: the oracle bytes.

    Query results are deterministic per (model content hash, data seed,
    query), so an offline app with the same :data:`CHAOS_DATASET` yields
    exactly the bytes the live server may serve.  Returns format →
    {request path → body}.
    """
    assert not FAULTS.enabled, "oracle execution must be fault-free"
    app = ModelRepositoryApp(olap=OlapService(dataset=CHAOS_DATASET))
    response = app.handle("PUT", f"/models/{name}", {}, xml_bytes)
    assert response.status == 201, response.status
    bodies: dict[str, dict[str, bytes]] = {}
    for fmt in RESULT_FORMATS:
        bodies[fmt] = {}
        for params in queries:
            path = _query_path(name, params, fmt)
            result = app.handle("GET", path)
            assert result.status == 200, (result.status, result.body)
            bodies[fmt][path] = result.body
    return bodies


class ModelTracker:
    """One model's version history and every byte it may serve."""

    def __init__(self, name: str, base_xml: bytes, marker: bytes,
                 queries: tuple[dict, ...] = ()) -> None:
        self.name = name
        self.base_xml = base_xml
        self.marker = marker
        assert marker in base_xml
        self.version = 0
        self.current_xml = base_xml
        self.current_pages: dict[str, bytes] = {}
        #: OLAP query parameter dicts the hammer fires; oracle bodies
        #: are keyed by format, then by request path (:func:`_query_path`).
        self.queries = queries
        self.current_queries: dict[str, dict[str, bytes]] = {}
        #: Every XML body ever current (raw-model responses must match).
        self.xml_history: set[bytes] = {base_xml}
        #: SHA-256 of every expected page rendering, all versions.
        self.page_shas: set[str] = set()
        #: Per format, SHA-256 of every expected query rendering, all
        #: versions: a JSON request answered with XML bytes is torn.
        self.query_shas: dict[str, set[str]] = {
            fmt: set() for fmt in RESULT_FORMATS}
        self._pending: tuple[int, bytes, dict[str, bytes],
                             dict[str, dict[str, bytes]]] | None = None

    def _render(self, xml: bytes) -> tuple[dict[str, bytes],
                                           dict[str, dict[str, bytes]]]:
        """The oracle bytes of version *xml*, each added to the history
        of what the server may serve (faults must be off)."""
        pages = offline_pages(xml)
        queries = _expected_queries(self.name, xml, self.queries)
        self.xml_history.add(xml)
        self.page_shas.update(_sha(b) for b in pages.values())
        for fmt, bodies in queries.items():
            self.query_shas[fmt].update(_sha(b) for b in bodies.values())
        return pages, queries

    def bootstrap(self, store) -> None:
        """Install version 0 in the server and record its oracle."""
        self.current_pages, self.current_queries = self._render(
            self.base_xml)
        store.put(self.name, self.base_xml)

    def _xml_for(self, version: int) -> bytes:
        if version == 0:
            return self.base_xml
        stamp = self.marker + f" r{version}".encode("ascii")
        return self.base_xml.replace(self.marker, stamp)

    def precompute_next(self) -> None:
        """Render the next version's oracle (faults must be off).

        History is extended *now*, before the flip, so hammer workers
        racing a mid-phase flip never see bytes ahead of the oracle.
        """
        if self._pending is not None:
            return
        version = self.version + 1
        xml = self._xml_for(version)
        self._pending = (version, xml, *self._render(xml))

    def flip(self, store) -> None:
        """Make the precomputed version current in the live server."""
        assert self._pending is not None, "flip() without precompute_next()"
        version, xml, pages, queries = self._pending
        self._pending = None
        store.put(self.name, xml)
        self.version, self.current_xml = version, xml
        self.current_pages, self.current_queries = pages, queries

    def advance(self, store) -> None:
        self.precompute_next()
        self.flip(store)


def default_trackers() -> list[ModelTracker]:
    sales_queries = (
        dict(cube="c46-dice-slice", seed=1),
        dict(fact="Sales", measure="qty:SUM", dice="Time@Month", seed=1),
        dict(fact="Sales", measure="inventory:MAX,qty:SUM",
             dice="Store@City,Time@Month", seed=2),
        dict(fact="Sales", measure="qty:SUM", dice="Product@Family",
             slice='Product.product_name NOTEQ "unknown"', seed=1),
    )
    retail_queries = (
        dict(fact="Sales", measure="qty:SUM,amount:SUM",
             dice="Time@Month", seed=1),
        dict(fact="Inventory", measure="stock_level:AVG",
             dice="Product", seed=1),
    )
    return [
        ModelTracker("sales", model_to_xml(sales_model()).encode("utf-8"),
                     b"Sales DW", queries=sales_queries),
        ModelTracker("retail",
                     model_to_xml(two_facts_model()).encode("utf-8"),
                     b"Retail DW", queries=retail_queries),
    ]


def random_plan(rng: random.Random) -> FaultPlan:
    """A seeded plan of 1–3 distinct faults from the menu."""
    plan = FaultPlan(seed=rng.randrange(2 ** 32))
    for point, mode in rng.sample(FAULT_MENU, rng.randint(1, 3)):
        if plan.spec(point) is not None:
            continue
        if mode == "delay":
            plan.add(point, "delay",
                     rate=rng.choice([0.2, 0.5, 1.0]),
                     delay_s=rng.uniform(0.002, 0.03))
        elif point in TRANSPORT_POINTS:
            # Drops are disruptive: probabilistic and budgeted.
            plan.add(point, "raise", rate=rng.uniform(0.05, 0.3),
                     times=rng.randint(1, 6))
        else:
            plan.add(point, "raise", rate=rng.choice([0.1, 0.5, 1.0]))
    return plan


def _coalescing_burst(app: ModelRepositoryApp, tracker: ModelTracker,
                      clients: int) -> list[dict]:
    """Barrier burst against a stale page: one rebuild, one body."""
    before = app.cache.stats()["rebuilds"]
    barrier = threading.Barrier(clients)
    responses: list = [None] * clients

    def fetch(slot: int) -> None:
        barrier.wait()
        responses[slot] = app.handle(
            "GET", f"/site/{tracker.name}/index.html")

    threads = [threading.Thread(target=fetch, args=(slot,))
               for slot in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)

    failures = []
    rebuilds = app.cache.stats()["rebuilds"] - before
    if rebuilds > 1:
        failures.append({"check": "coalescing",
                         "model": tracker.name,
                         "detail": f"{rebuilds} rebuilds for one burst"})
    statuses = {r.status for r in responses if r is not None}
    bodies = {r.body for r in responses if r is not None}
    if None in responses or statuses != {200} or len(bodies) != 1:
        failures.append({
            "check": "coalescing-responses", "model": tracker.name,
            "detail": f"statuses={sorted(statuses)} "
                      f"distinct_bodies={len(bodies)} "
                      f"hung={responses.count(None)}"})
    return failures


def check_response(kind: str, path: str, response, tracker: ModelTracker,
                   plan: FaultPlan | None = None,
                   fmt: str = "json") -> dict | None:
    """Apply the hammer invariants to one completed exchange (*fmt* is
    the format a query asked for).  With no *plan* armed, only an
    overload shed excuses a non-200."""
    armed = {} if plan is None else plan.specs
    raise_points = {point for point, spec in armed.items()
                    if spec.mode == "raise"}
    if kind == "health":
        if response.status not in (200, 503):
            return {"check": "health-status", "path": path,
                    "detail": f"status {response.status}"}
        return None
    if response.status == 503:
        return None  # overload shed: legal whenever a plan is active
    if response.status == 500:
        # A 500 is explained only by faults on the path that served it:
        # build faults never leak into query responses and vice versa,
        # and only an XML query runs the XSLT engine.
        explaining = QUERY_POINTS[fmt] if kind == "query" \
            else BUILD_POINTS
        if raise_points & explaining:
            return None
        return {"check": "unexplained-5xx", "path": path,
                "detail": f"500 with plan {sorted(armed)}"}
    if response.status != 200:
        return {"check": "unexpected-status", "path": path,
                "detail": f"status {response.status}"}
    if kind == "model":
        if response.body not in tracker.xml_history:
            return {"check": "torn-model-bytes", "path": path,
                    "detail": f"unexpected sha {_sha(response.body)[:12]}"}
        return None
    digest = _sha(response.body)
    if kind == "query":
        stale = response.header("X-Goldcase-Stale")
        if digest not in tracker.query_shas[fmt]:
            return {"check": "torn-query-bytes", "path": path,
                    "stale": stale,
                    "detail": f"unexpected sha {digest[:12]}"}
        if stale == "true" and not raise_points & EXECUTION_POINTS:
            return {"check": "unexplained-stale", "path": path,
                    "detail": f"stale query with plan {sorted(armed)}"}
        return None
    if digest not in tracker.page_shas:
        return {"check": "torn-page-bytes", "path": path,
                "stale": response.header("X-Goldcase-Stale"),
                "detail": f"unexpected sha {digest[:12]}"}
    return None


def _hammer(server: ModelServer, trackers: list[ModelTracker],
            plan: FaultPlan, seed: int, index: int, flip: ModelTracker,
            metrics_state: dict) -> tuple[list[dict], Counter]:
    """Concurrent clients under the active plan, plus a mid-phase flip."""
    failures: list[dict] = []
    counts: Counter = Counter()
    lock = threading.Lock()

    def worker(worker_id: int) -> None:
        rng = random.Random(f"chaos:{seed}:{index}:client{worker_id}")
        policy = RetryPolicy(retries=2, base_delay_s=0.01, max_delay_s=0.2)
        with RepositoryClient(server.host, server.port, timeout_s=10.0,
                              policy=policy, rng=rng) as client:
            for _ in range(REQUESTS):
                tracker = rng.choice(trackers)
                kind = rng.choice(
                    ["model", "index", "page", "query", "health"])
                fmt = "json"
                if kind == "model":
                    path = f"/models/{tracker.name}"
                elif kind == "health":
                    path = f"/health/{tracker.name}"
                elif kind == "index":
                    path = f"/site/{tracker.name}/index.html"
                elif kind == "query":
                    fmt = _pick_format(rng)
                    path = _query_path(tracker.name,
                                       rng.choice(tracker.queries), fmt)
                else:
                    page = rng.choice(sorted(tracker.current_pages))
                    path = f"/site/{tracker.name}/{page}"
                record: dict | None = None
                try:
                    response = client.request("GET", path)
                except TimeoutError:
                    record = {"check": "hung-connection", "path": path,
                              "detail": "client read timed out"}
                    response = None
                except RetriesExhausted as exc:
                    response = None
                    with lock:
                        counts["drops"] += 1
                    if not ({point for point, spec in plan.specs.items()
                             if spec.mode == "raise"} & TRANSPORT_POINTS):
                        record = {"check": "unexplained-drop",
                                  "path": path, "detail": str(exc)}
                else:
                    record = check_response(
                        kind, path, response, tracker, plan, fmt)
                if record is not None and response is not None:
                    # Join key into the server's access log.
                    record["request_id"] = response.request_id
                with lock:
                    counts["requests"] += 1
                    if kind == "query":
                        counts["queries"] += 1
                    if response is not None:
                        counts["retries"] += response.retries
                        if response.status == 503 and kind != "health":
                            counts["shed"] += 1
                        if response.header("X-Goldcase-Stale") == "true":
                            counts["stale"] += 1
                    if record is not None:
                        failures.append(record)

    threads = [threading.Thread(target=worker, args=(worker_id,))
               for worker_id in range(CLIENTS)]
    for thread in threads:
        thread.start()
    # Mid-phase: force rebuilds to happen *under* the active faults.
    time.sleep(0.05)
    flip.flip(server.app.store)
    # Scrape the telemetry surface while the storm is still raging:
    # /metrics must stay up and monotonic under active faults.
    failures.extend(_metrics_probe(
        server, plan, metrics_state, phase="hammer"))
    for thread in threads:
        thread.join(timeout=60)
        if thread.is_alive():
            failures.append({"check": "hung-worker",
                             "detail": "hammer worker did not finish"})
    return failures, counts


def recovery_sweep(server, trackers: list[ModelTracker], *,
                   passes: int = 1) -> list[dict]:
    """Faults off and every worker up: each model, page and query result
    (in every format) must be current, unmarked and byte-identical to
    the oracle, ``/dashboard`` must render and each model's health must
    be 200.  Every request opens a fresh connection, so a fleet spreads
    its passes over its workers."""
    failures: list[dict] = []

    def expect(check: str, tracker: ModelTracker, path: str,
               expected: bytes) -> None:
        response = fetch(server, "GET", path)
        stale = response.header("X-Goldcase-Stale")
        if response.status != 200 or response.body != expected or stale:
            failures.append({
                "check": check, "model": tracker.name, "path": path,
                "detail": f"status {response.status} stale={stale} "
                          f"sha {_sha(response.body)[:12]} "
                          f"want {_sha(expected)[:12]}"})

    for _ in range(passes):
        response = fetch(server, "GET", "/dashboard")
        if response.status != 200 or b"goldcase ops" not in response.body:
            failures.append({"check": "recovery-dashboard",
                             "detail": f"status {response.status}"})
        for tracker in trackers:
            expect("recovery-model", tracker, f"/models/{tracker.name}",
                   tracker.current_xml)
            for page, expected in sorted(tracker.current_pages.items()):
                expect("recovery-page", tracker,
                       f"/site/{tracker.name}/{page}", expected)
            for bodies in tracker.current_queries.values():
                for path, expected in sorted(bodies.items()):
                    expect("recovery-query", tracker, path, expected)
            response = fetch(server, "GET", f"/health/{tracker.name}")
            if response.status != 200:
                body = response.body.decode("utf-8", "replace")
                failures.append({
                    "check": "recovery-health", "model": tracker.name,
                    "detail": f"status {response.status}: {body[:200]}"})
    return failures


@dataclass
class ChaosServer:
    """The family's fixture: one live server and its models' trackers."""

    server: ModelServer
    trackers: list[ModelTracker]
    #: The previous ``/metrics`` scrape, for monotonicity across rounds.
    metrics_state: dict = field(default_factory=dict)
    #: Requests, queries, stale answers, sheds, drops, retries and fired
    #: faults, summed over the run's rounds.
    totals: Counter = field(default_factory=Counter)


@contextmanager
def serving() -> Iterator[ChaosServer]:
    """Start the fixture: the server shares the oracle's dataset (or no
    query body would match), and each model's site is built before the
    first round, so round 0 measures degradation, not cold builds."""
    app = ModelRepositoryApp(olap=OlapService(dataset=CHAOS_DATASET))
    trackers = default_trackers()
    with ModelServer(app) as server:
        for tracker in trackers:
            tracker.bootstrap(app.store)
            assert app.handle(
                "GET", f"/site/{tracker.name}/index.html").status == 200
        yield ChaosServer(server, trackers)


def context(fixture: ChaosServer) -> dict:
    """The run-level record: the site cache's counters and the totals."""
    return {"check": "cache-stats",
            "stats": fixture.server.app.cache.stats(),
            "totals": dict(fixture.totals)}


def run_round(rng: random.Random, seed: int, index: int,
              fixture: ChaosServer) -> list[dict]:
    """One chaos round, drawn from *rng*; returns its violations."""
    server, trackers = fixture.server, fixture.trackers
    failures: list[dict] = []

    FAULTS.deactivate()
    target = rng.choice(trackers)
    target.advance(server.app.store)
    flip = rng.choice(trackers)
    flip.precompute_next()

    failures.extend(_coalescing_burst(server.app, target, CLIENTS))

    plan = random_plan(rng)
    FAULTS.activate(plan)
    try:
        hammered, counts = _hammer(server, trackers, plan, seed, index,
                                   flip, fixture.metrics_state)
        failures.extend(hammered)
    finally:
        fired = FAULTS.fired()
        FAULTS.deactivate()
    counts["faults_fired"] = sum(fired.values())
    fixture.totals.update(counts)

    failures.extend(recovery_sweep(server, trackers))
    # Faults are off: the scrape must succeed and stay monotonic
    # relative to the mid-storm scrape.
    failures.extend(_metrics_probe(
        server, None, fixture.metrics_state, phase="recovery"))

    for record in failures:
        record.setdefault("plan", plan.describe())
    return failures
