"""The ``chaosmp`` family: worker kills against the pre-fork fleet.

Run it with ``python -m repro.testkit.run --family chaosmp``.  The
``chaos`` family (:mod:`repro.testkit.chaos`) injects *faults*; this one
injects *death*.  Its fixture is a live two-worker
:class:`~repro.server.workers.MultiWorkerServer`, started once per run.
Every round SIGKILLs a random worker mid-traffic — no fault plan is
active, the kill IS the chaos — and checks the fleet-level invariants:

* **no hangs, no torn bytes**: every in-flight request either completes
  with bytes byte-identical to some expected version (the chaos
  family's :func:`~repro.testkit.chaos.check_response` with no plan
  armed, over the same offline oracles) or dies with a *clean*
  transport error (connection reset by the dying worker); a client
  read timeout is always a violation;
* **survivors stay correct**: requests landing on surviving workers
  keep serving current-version bytes throughout the storm;
* **respawn is warm**: the supervisor forks a replacement under the
  same worker id, and the replacement serves the site straight from the
  on-disk artifact store — its site cache reports zero rebuilds and at
  least one disk hit (it never re-renders what the fleet already
  rendered);
* **recovery is total**: with the fleet whole again, two passes of the
  chaos family's :func:`~repro.testkit.chaos.recovery_sweep` find every
  model byte, site page and OLAP query result current, unmarked and
  byte-identical to the offline oracle, and ``/metrics`` reports the
  full worker count again.
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from ..server import MultiWorkerServer
from ..web import RetriesExhausted
from ..web.client import query_path
from .chaos import (
    CHAOS_DATASET,
    ModelTracker,
    check_response,
    default_trackers,
    recovery_sweep,
)
from .live import WORKERS, _sha, fetch, parse_metrics

__all__ = ["fleet", "run_round"]

#: Concurrent hammer clients per round, and requests per client.
CLIENTS = 6
REQUESTS = 15


class _HttpStore:
    """Adapter so :class:`ModelTracker` flips versions over the wire.

    The chaos family pokes ``server.app.store`` directly; here the
    stores live in forked workers, so a flip is an HTTP PUT — which
    also exercises the cross-worker publish path every round.
    """

    def __init__(self, server: MultiWorkerServer) -> None:
        self.server = server

    def put(self, name: str, xml_bytes: bytes) -> None:
        response = fetch(self.server, "PUT", f"/models/{name}", xml_bytes)
        assert response.status in (200, 201), (
            response.status, response.body[:200])


def _materialize(server: MultiWorkerServer,
                 tracker: ModelTracker) -> list[dict]:
    """Serve every current page once so its artifact reaches the store.

    Run before the kill: the respawn-warm invariant (zero rebuilds in
    the replacement) is only meaningful once the current version's
    artifacts exist on disk for the replacement to adopt.
    """
    failures: list[dict] = []
    for page, expected in sorted(tracker.current_pages.items()):
        path = f"/site/{tracker.name}/{page}"
        response = fetch(server, "GET", path)
        if response.status != 200 or response.body != expected:
            failures.append({
                "check": "materialize", "model": tracker.name,
                "path": path,
                "detail": f"status {response.status} "
                          f"sha {_sha(response.body)[:12]} "
                          f"want {_sha(expected)[:12]}"})
    return failures


def _hammer(server: MultiWorkerServer, trackers: list[ModelTracker],
            seed: int, index: int, victim: int) -> tuple[list[dict], int]:
    """Concurrent readers on fresh connections; mid-phase, SIGKILL the
    victim worker.  Requests in flight on the dying worker may fail
    with a clean transport error — never a hang, never torn bytes.
    Returns the violations and the pid shot."""
    failures: list[dict] = []
    lock = threading.Lock()

    def worker(worker_id: int) -> None:
        rng = random.Random(f"chaosmp:{seed}:{index}:client{worker_id}")
        for _ in range(REQUESTS):
            tracker = rng.choice(trackers)
            kind = rng.choice(["model", "page", "page", "query"])
            if kind == "model":
                path = f"/models/{tracker.name}"
            elif kind == "query":
                path = query_path(tracker.name, rng.choice(tracker.queries))
            else:
                page = rng.choice(sorted(tracker.current_pages))
                path = f"/site/{tracker.name}/{page}"
            try:
                response = fetch(server, "GET", path)
            except TimeoutError:
                record = {"check": "hung-connection", "path": path,
                          "detail": "client read timed out"}
            except RetriesExhausted:
                # Clean drop: the kernel reset the connection when the
                # victim died mid-exchange.  Legal during a kill round
                # — unlike a hang above.
                record = None
            else:
                record = check_response(kind, path, response, tracker)
            if record is not None:
                with lock:
                    failures.append(record)

    threads = [threading.Thread(target=worker, args=(worker_id,))
               for worker_id in range(CLIENTS)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)
    shot = server.kill_worker(victim)
    for thread in threads:
        thread.join(timeout=90)
        if thread.is_alive():
            failures.append({"check": "hung-worker",
                             "detail": "hammer client did not finish"})
    return failures, shot


def _await_respawn(server: MultiWorkerServer, shot: int,
                   respawns_before: int,
                   timeout_s: float = 30.0) -> dict | None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        pids = server.worker_pids()
        if (len(pids) == server.workers and shot not in pids
                and server.respawns > respawns_before):
            return None
        time.sleep(0.05)
    return {"check": "no-respawn",
            "detail": f"pids {server.worker_pids()} after {timeout_s}s "
                      f"(shot {shot}, respawns {server.respawns})"}


def _respawn_warm_check(server: MultiWorkerServer, victim: int,
                        shot: int, tracker: ModelTracker,
                        timeout_s: float = 30.0) -> dict | None:
    """The replacement worker must serve from the artifact store: its
    site cache shows zero rebuilds and (once a site request lands on
    it) at least one disk hit.  A single rebuild is an immediate
    violation — it re-rendered what the fleet already rendered."""
    page = sorted(tracker.current_pages)[0]
    deadline = time.monotonic() + timeout_s
    seen: dict | None = None
    while time.monotonic() < deadline:
        # Fresh connections re-roll the reuseport hash until both the
        # site request and the stats scrape land on the replacement.
        fetch(server, "GET", f"/site/{tracker.name}/{page}")
        response = fetch(server, "GET", "/stats")
        if response.status != 200:
            continue
        payload = json.loads(response.body)
        if payload["worker"]["id"] != victim or \
                payload["worker"]["pid"] == shot:
            continue
        seen = payload
        site = payload["site_cache"]
        if site["rebuilds"] > 0:
            return {"check": "respawn-rerendered",
                    "detail": f"replacement pid "
                              f"{payload['worker']['pid']} rebuilt "
                              f"{site['rebuilds']} time(s)", "site": site}
        if site["disk_hits"] >= 1:
            return None
    detail = "replacement never answered /stats" if seen is None else \
        f"no disk hit within {timeout_s}s: {seen['site_cache']}"
    return {"check": "respawn-not-warm", "detail": detail}


def _fleet_metrics_check(server: MultiWorkerServer,
                         timeout_s: float = 30.0) -> dict | None:
    """/metrics must report the full fleet again after the respawn."""
    wanted = float(server.workers)
    deadline = time.monotonic() + timeout_s
    last: dict[str, float] = {}
    while time.monotonic() < deadline:
        response = fetch(server, "GET", "/metrics")
        if response.status == 200:
            try:
                last = parse_metrics(response.body.decode("utf-8"))
            except ValueError as exc:
                return {"check": "metrics-unparseable",
                        "detail": str(exc)}
            if last.get("goldcase_fleet_workers") == wanted:
                return None
        time.sleep(0.1)
    return {"check": "fleet-metrics",
            "detail": f"goldcase_fleet_workers never returned to "
                      f"{wanted}: {last.get('goldcase_fleet_workers')}"}


@contextmanager
def fleet() -> Iterator[tuple[MultiWorkerServer, list[ModelTracker]]]:
    """Start the fixture: a fleet over a fresh build store, sharing the
    oracle's dataset, with every model's current artifacts stored."""
    trackers = default_trackers()
    with tempfile.TemporaryDirectory(prefix="goldcase-chaosmp-") as root, \
            MultiWorkerServer(root, workers=WORKERS,
                              dataset=CHAOS_DATASET) as server:
        store = _HttpStore(server)
        for tracker in trackers:
            tracker.bootstrap(store)
            failures = _materialize(server, tracker)
            assert not failures, failures
        yield server, trackers


def run_round(rng: random.Random, seed: int, index: int,
              fixture: tuple[MultiWorkerServer, list[ModelTracker]]
              ) -> list[dict]:
    """One kill round, drawn from *rng*; returns its violations."""
    server, trackers = fixture
    failures: list[dict] = []

    # Mutate (fleet whole): one model advances a version over HTTP,
    # then its artifacts are materialized so the respawn can be warm.
    target = rng.choice(trackers)
    target.advance(_HttpStore(server))
    failures.extend(_materialize(server, target))

    # Hammer + mid-phase SIGKILL of a random worker.
    victim = rng.randrange(server.workers)
    respawns_before = server.respawns
    hammered, shot = _hammer(server, trackers, seed, index, victim)
    failures.extend(hammered)

    # Respawn: same worker id, new pid, warmed from the store.
    problem = _await_respawn(server, shot, respawns_before)
    if problem is not None:
        failures.append(problem)
    else:
        problem = _respawn_warm_check(server, victim, shot, target)
        if problem is not None:
            failures.append(problem)
        failures.extend(recovery_sweep(server, trackers, passes=2))
        problem = _fleet_metrics_check(server)
        if problem is not None:
            failures.append(problem)

    for record in failures:
        record.setdefault("victim", victim)
    return failures
