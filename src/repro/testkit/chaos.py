"""Fault-injection chaos harness for the model-repository server.

Usage::

    python -m repro.testkit.chaos --seed 0 --budget 30

Boots a real :class:`~repro.server.httpd.ModelServer` and replays
seed-derived rounds against it.  Each round is determined by
``(seed, index)`` and has four beats:

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
4. **Recover** (faults off): every resource must come back fresh,
   current, and unmarked; each query is fetched once, a seeded share of
   them as XML.

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

Violations are written as JSON reproducers (like ``repro.testkit.run``)
to ``--failures-dir`` and can be replayed with
``--seed S --start R --rounds 1``.  Each response-level record carries
the ``X-Goldcase-Request-Id`` of the offending exchange, so a failure
can be joined against the server's access log (``--access-log``).
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import sys
import threading
import time

from urllib.parse import urlencode

from ..faults import FAULTS, FaultPlan
from ..mdm import model_to_xml, sales_model, two_facts_model
from ..olap.service import DatasetConfig, OlapService, RESULT_FORMATS
from ..server import ModelRepositoryApp, ModelServer
from ..web import RepositoryClient, RetriesExhausted, RetryPolicy

__all__ = ["ModelTracker", "parse_metrics", "run_round", "main"]

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

#: The share of hammer and recovery-sweep queries that ask for XML.
XML_QUERY_SHARE = 0.3

#: Shrunken synthetic datasets so per-version oracle precomputation and
#: under-fault regeneration stay cheap; the live server under test and
#: the offline oracle renderer must share this config byte-for-byte.
CHAOS_DATASET = DatasetConfig(members_per_level=4, rows_per_fact=300)


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text exposition → ``{series-with-labels: value}``.

    Raises ValueError on a malformed sample line, which the probe
    reports as a violation — /metrics must stay parseable mid-storm.
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


def _expected_pages(xml_bytes: bytes) -> dict[str, bytes]:
    """Render the site for *xml_bytes* offline: the oracle bytes.

    Must run with faults deactivated — the offline app shares the
    process-global registry with the server under test.
    """
    assert not FAULTS.enabled, "oracle rendering must be fault-free"
    app = ModelRepositoryApp()
    response = app.handle("PUT", "/models/m", {}, xml_bytes)
    assert response.status == 201, response.status
    assert app.handle("GET", "/site/m/index.html").status == 200
    entry = app.cache.peek("m", "multi")
    pages = {}
    for page in entry.etags:
        body = app.handle("GET", f"/site/m/{page}")
        assert body.status == 200
        pages[page] = body.body
    return pages


def _query_string(**params) -> str:
    """urlencode with list values repeating the parameter."""
    pairs: list[tuple[str, str]] = []
    for key, value in params.items():
        if isinstance(value, (list, tuple)):
            pairs += [(key, str(item)) for item in value]
        else:
            pairs.append((key, str(value)))
    return urlencode(pairs)


def _format_params(params: dict, fmt: str) -> dict:
    """*params* asking for *fmt*: JSON is the default and sends none."""
    return params if fmt == "json" else {**params, "format": fmt}


def _pick_format(rng: random.Random) -> str:
    return "xml" if rng.random() < XML_QUERY_SHARE else "json"


def _expected_queries(xml_bytes: bytes, queries: tuple[dict, ...]
                      ) -> dict[str, dict[str, bytes]]:
    """Execute the tracker's OLAP queries offline: the oracle bytes.

    Query results are deterministic per (model content hash, data seed,
    query), so an offline app with the same :data:`CHAOS_DATASET` yields
    exactly the bytes the live server may serve.  The record name does
    not matter: the rendering embeds the model's *XML* name.  Returns
    format → {urlencoded query string as sent → body}.
    """
    assert not FAULTS.enabled, "oracle execution must be fault-free"
    app = ModelRepositoryApp(olap=OlapService(dataset=CHAOS_DATASET))
    response = app.handle("PUT", "/models/m", {}, xml_bytes)
    assert response.status == 201, response.status
    bodies: dict[str, dict[str, bytes]] = {}
    for fmt in RESULT_FORMATS:
        bodies[fmt] = {}
        for params in queries:
            encoded = _query_string(**_format_params(params, fmt))
            result = app.handle("GET", f"/olap/m/query?{encoded}")
            assert result.status == 200, (result.status, result.body)
            bodies[fmt][encoded] = result.body
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
        #: OLAP query parameter dicts the hammer fires via
        #: :meth:`RepositoryClient.query_cube`; oracle bodies are keyed
        #: by format, then by their urlencoded form as sent (see
        #: :func:`_query_string` and :func:`_format_params`).
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

    def _record_queries(self, queries: dict[str, dict[str, bytes]]
                        ) -> None:
        for fmt, bodies in queries.items():
            self.query_shas[fmt].update(_sha(b) for b in bodies.values())

    def bootstrap(self, store) -> None:
        """Install version 0 in the server and record its oracle."""
        self.current_pages = _expected_pages(self.base_xml)
        self.page_shas.update(_sha(b) for b in self.current_pages.values())
        self.current_queries = _expected_queries(self.base_xml,
                                                 self.queries)
        self._record_queries(self.current_queries)
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
        pages = _expected_pages(xml)
        queries = _expected_queries(xml, self.queries)
        self.xml_history.add(xml)
        self.page_shas.update(_sha(b) for b in pages.values())
        self._record_queries(queries)
        self._pending = (version, xml, pages, queries)

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


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"chaos:{seed}:{index}")


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


def _check_response(kind: str, path: str, response,
                    tracker: ModelTracker, plan: FaultPlan,
                    fmt: str) -> dict | None:
    """Apply the hammer-phase invariants to one completed exchange
    (*fmt* is the format a query asked for)."""
    raise_points = {point for point, spec in plan.specs.items()
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
                "detail": f"500 with plan {sorted(plan.specs)}"}
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
                    "detail": f"stale query with plan "
                              f"{sorted(plan.specs)}"}
        return None
    if digest not in tracker.page_shas:
        return {"check": "torn-page-bytes", "path": path,
                "stale": response.header("X-Goldcase-Stale"),
                "detail": f"unexpected sha {digest[:12]}"}
    return None


def _hammer(server: ModelServer, trackers: list[ModelTracker],
            plan: FaultPlan, seed: int, index: int, clients: int,
            requests: int, flip: ModelTracker,
            metrics_state: dict) -> tuple[list[dict], dict]:
    """Concurrent clients under the active plan, plus a mid-phase flip."""
    failures: list[dict] = []
    counts = {"requests": 0, "queries": 0, "stale": 0, "shed": 0,
              "drops": 0, "retries": 0}
    lock = threading.Lock()

    def worker(worker_id: int) -> None:
        rng = random.Random(f"chaos:{seed}:{index}:client{worker_id}")
        policy = RetryPolicy(retries=2, base_delay_s=0.01, max_delay_s=0.2)
        with RepositoryClient(server.host, server.port, timeout_s=10.0,
                              policy=policy, rng=rng) as client:
            for _ in range(requests):
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
                    params = _format_params(rng.choice(tracker.queries),
                                            fmt)
                    path = (f"/olap/{tracker.name}/query?"
                            f"{_query_string(**params)}")
                else:
                    page = rng.choice(sorted(tracker.current_pages))
                    path = f"/site/{tracker.name}/{page}"
                record: dict | None = None
                try:
                    if kind == "query":
                        response = client.query_cube(tracker.name, params)
                    else:
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
                    record = _check_response(
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
               for worker_id in range(clients)]
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


def _recovery_sweep(server: ModelServer, trackers: list[ModelTracker],
                    rng: random.Random) -> list[dict]:
    """Faults off: everything must be current, fresh, and healthy.

    Each query is fetched once, in the format *rng* picks.
    """
    failures: list[dict] = []
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30)

    def fetch(path: str):
        connection.request("GET", path)
        response = connection.getresponse()
        return response, response.read()

    try:
        response, body = fetch("/dashboard")
        if response.status != 200 or b"goldcase ops" not in body:
            failures.append({
                "check": "recovery-dashboard",
                "detail": f"status {response.status}"})
        for tracker in trackers:
            response, body = fetch(f"/models/{tracker.name}")
            if response.status != 200 or body != tracker.current_xml:
                failures.append({
                    "check": "recovery-model", "model": tracker.name,
                    "detail": f"status {response.status}"})
            for page, expected in sorted(tracker.current_pages.items()):
                response, body = fetch(f"/site/{tracker.name}/{page}")
                stale = response.getheader("X-Goldcase-Stale")
                if response.status != 200 or body != expected or stale:
                    failures.append({
                        "check": "recovery-page", "model": tracker.name,
                        "page": page,
                        "detail": f"status {response.status} stale={stale} "
                                  f"sha {_sha(body)[:12]} "
                                  f"want {_sha(expected)[:12]}"})
            for params in tracker.queries:
                fmt = _pick_format(rng)
                encoded = _query_string(**_format_params(params, fmt))
                expected = tracker.current_queries[fmt][encoded]
                response, body = fetch(
                    f"/olap/{tracker.name}/query?{encoded}")
                stale = response.getheader("X-Goldcase-Stale")
                if response.status != 200 or body != expected or stale:
                    failures.append({
                        "check": "recovery-query", "model": tracker.name,
                        "query": encoded,
                        "detail": f"status {response.status} stale={stale} "
                                  f"sha {_sha(body)[:12]} "
                                  f"want {_sha(expected)[:12]}"})
            response, body = fetch(f"/health/{tracker.name}")
            if response.status != 200:
                failures.append({
                    "check": "recovery-health", "model": tracker.name,
                    "detail": f"status {response.status}: "
                              f"{body.decode('utf-8', 'replace')[:200]}"})
    finally:
        connection.close()
    return failures


def run_round(server: ModelServer, trackers: list[ModelTracker],
              seed: int, index: int, *, clients: int = 6,
              requests: int = 20,
              metrics_state: dict | None = None) -> tuple[list[dict], dict]:
    """One chaos round; returns (failure records, counters)."""
    rng = round_rng(seed, index)
    failures: list[dict] = []
    if metrics_state is None:
        metrics_state = {}

    FAULTS.deactivate()
    target = rng.choice(trackers)
    target.advance(server.app.store)
    flip = rng.choice(trackers)
    flip.precompute_next()

    failures.extend(_coalescing_burst(server.app, target, clients))

    plan = random_plan(rng)
    FAULTS.activate(plan)
    try:
        hammered, counts = _hammer(server, trackers, plan, seed, index,
                                   clients, requests, flip, metrics_state)
        failures.extend(hammered)
    finally:
        fired = FAULTS.fired()
        FAULTS.deactivate()
    counts["faults_fired"] = sum(fired.values())

    failures.extend(_recovery_sweep(server, trackers, rng))
    # Faults are off: the scrape must succeed and stay monotonic
    # relative to the mid-storm scrape.
    failures.extend(_metrics_probe(
        server, None, metrics_state, phase="recovery"))

    for record in failures:
        record.setdefault("seed", seed)
        record.setdefault("round", index)
        record.setdefault("plan", plan.describe())
    return failures, counts


def _write_reproducers(directory: str, seed: int,
                       failures: list[dict]) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"seed{seed}-chaos-failures.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(failures, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit.chaos",
        description="Chaos harness: randomized fault schedules against "
                    "a live model-repository server.")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; round r uses RNG(chaos:seed:r)")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="time budget in seconds (default 30)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly N rounds, ignoring --budget")
    parser.add_argument("--start", type=int, default=0,
                        help="first round index (for replaying one "
                             "failing round)")
    parser.add_argument("--clients", type=int, default=6,
                        help="concurrent clients per round (default 6)")
    parser.add_argument("--requests", type=int, default=20,
                        help="requests per client per round (default 20)")
    parser.add_argument("--failures-dir", default="chaos-failures",
                        help="directory for JSON reproducers of violations")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-round progress output")
    args = parser.parse_args(argv)

    started = time.monotonic()
    FAULTS.deactivate()  # a GOLDCASE_FAULTS env plan would skew oracles
    trackers = default_trackers()
    all_failures: list[dict] = []
    totals = {"requests": 0, "queries": 0, "stale": 0, "shed": 0,
              "drops": 0, "retries": 0, "faults_fired": 0}
    completed = 0
    index = args.start
    metrics_state: dict = {}
    # The live server must share the oracle's (shrunken) dataset config,
    # or query bodies would never match the offline renderings.
    app = ModelRepositoryApp(olap=OlapService(dataset=CHAOS_DATASET))
    with ModelServer(app) as server:
        for tracker in trackers:
            tracker.bootstrap(server.app.store)
            # Warm the cache so round 1 measures degradation, not
            # cold-start builds.
            assert server.app.handle(
                "GET", f"/site/{tracker.name}/index.html").status == 200
        try:
            while True:
                if args.rounds is not None:
                    if completed >= args.rounds:
                        break
                elif completed > 0 and \
                        time.monotonic() - started >= args.budget:
                    break
                failures, counts = run_round(
                    server, trackers, args.seed, index,
                    clients=args.clients, requests=args.requests,
                    metrics_state=metrics_state)
                completed += 1
                for key, value in counts.items():
                    totals[key] += value
                if failures:
                    all_failures.extend(failures)
                    print(f"round {index}: {len(failures)} violation(s)",
                          file=sys.stderr)
                    for record in failures[:5]:
                        print(f"  {json.dumps(record, sort_keys=True)}",
                              file=sys.stderr)
                elif not args.quiet:
                    print(f"round {index}: ok — "
                          f"{counts['requests']} requests "
                          f"({counts['queries']} queries), "
                          f"{counts['faults_fired']} faults fired, "
                          f"{counts['stale']} stale, "
                          f"{counts['shed']} shed, "
                          f"{counts['drops']} drops")
                index += 1
        finally:
            FAULTS.deactivate()

    elapsed = time.monotonic() - started
    summary = (f"{completed} rounds, {totals['requests']} requests "
               f"({totals['queries']} queries), "
               f"{totals['faults_fired']} faults fired, "
               f"{totals['stale']} stale, {totals['shed']} shed, "
               f"{totals['drops']} drops, {elapsed:.1f}s")
    if all_failures:
        bad = sorted({record["round"] for record in all_failures})
        all_failures.append({
            "check": "cache-stats", "seed": args.seed, "round": -1,
            "stats": server.app.cache.stats(), "totals": totals,
        })
        path = _write_reproducers(
            args.failures_dir, args.seed, all_failures)
        print(f"chaos: FAIL — {len(all_failures) - 1} violation(s) "
              f"across rounds {bad}; {summary}; reproducers: {path}")
        print(f"replay one with: python -m repro.testkit.chaos "
              f"--seed {args.seed} --start {bad[0]} --rounds 1")
        return 1
    print(f"chaos: OK — 0 violations; {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
