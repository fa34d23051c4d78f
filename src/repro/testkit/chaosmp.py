"""Worker-kill chaos for the pre-fork server.

Usage::

    python -m repro.testkit.chaosmp --seed 0 --budget 30 --workers 2

The single-process chaos harness (:mod:`repro.testkit.chaos`) injects
*faults*; this harness injects *death*.  Every round SIGKILLs a random
worker of a live :class:`~repro.server.workers.MultiWorkerServer`
mid-traffic — no fault plan is active, the kill IS the chaos — and
checks the fleet-level invariants:

* **no hangs, no torn bytes**: every in-flight request either completes
  with bytes byte-identical to some expected version (oracles are the
  same offline renderings the single-process harness uses) or dies with
  a *clean* transport error (connection reset by the dying worker); a
  client read timeout is always a violation;
* **survivors stay correct**: requests landing on surviving workers
  keep serving current-version bytes throughout the storm;
* **respawn is warm**: the supervisor forks a replacement under the
  same worker id, and the replacement serves the site straight from the
  on-disk artifact store — its site cache reports zero rebuilds and at
  least one disk hit (it never re-renders what the fleet already
  rendered);
* **recovery is total**: with the fleet whole again, every model byte,
  site page, and OLAP query result is current, unmarked, and
  byte-identical to the offline oracle, and ``/metrics`` reports the
  full worker count again.

Rounds are deterministic per ``(seed, index)``; violations are written
as JSON reproducers replayable with ``--seed S --start R --rounds 1``.
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

from ..faults import FAULTS
from ..server import MultiWorkerServer
from .chaos import (
    CHAOS_DATASET,
    ModelTracker,
    _query_string,
    default_trackers,
    parse_metrics,
)
from .run import _write_reproducers

__all__ = ["run_round", "main"]


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"chaosmp:{seed}:{index}")


def _request(port: int, method: str, path: str,
             body: bytes | None = None,
             timeout_s: float = 30.0) -> tuple[int, bytes, dict]:
    """One exchange on a fresh connection (re-rolls the worker)."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout_s)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        headers = {key.lower(): value
                   for key, value in response.getheaders()}
        return response.status, response.read(), headers
    finally:
        conn.close()


class _HttpStore:
    """Adapter so :class:`ModelTracker` flips versions over the wire.

    The single-process harness pokes ``server.app.store`` directly; here
    the stores live in forked workers, so a flip is an HTTP PUT — which
    also exercises the cross-worker publish path every round.
    """

    def __init__(self, port: int) -> None:
        self.port = port

    def put(self, name: str, xml_bytes: bytes) -> None:
        status, body, _ = _request(
            self.port, "PUT", f"/models/{name}", xml_bytes)
        assert status in (200, 201), (status, body[:200])


def _materialize(port: int, tracker: ModelTracker) -> list[dict]:
    """Serve every current page once so its artifact reaches the store.

    Run before the kill: the respawn-warm invariant (zero rebuilds in
    the replacement) is only meaningful once the current version's
    artifacts exist on disk for the replacement to adopt.
    """
    failures: list[dict] = []
    for page, expected in sorted(tracker.current_pages.items()):
        path = f"/site/{tracker.name}/{page}"
        status, body, _ = _request(port, "GET", path)
        if status != 200 or body != expected:
            failures.append({
                "check": "materialize", "model": tracker.name,
                "path": path,
                "detail": f"status {status} sha {_sha(body)[:12]} "
                          f"want {_sha(expected)[:12]}"})
    return failures


def _check_body(kind: str, path: str, status: int, body: bytes,
                tracker: ModelTracker) -> dict | None:
    """Hammer invariants for one completed exchange (no fault plan:
    the only legal non-200 is an overload shed)."""
    if status == 503:
        return None
    if status != 200:
        return {"check": "unexpected-status", "path": path,
                "detail": f"status {status}"}
    if kind == "model":
        if body not in tracker.xml_history:
            return {"check": "torn-model-bytes", "path": path,
                    "detail": f"unexpected sha {_sha(body)[:12]}"}
        return None
    digest = _sha(body)
    expected = tracker.query_shas["json"] if kind == "query" \
        else tracker.page_shas
    if digest not in expected:
        return {"check": f"torn-{kind}-bytes", "path": path,
                "detail": f"unexpected sha {digest[:12]}"}
    return None


def _hammer(server: MultiWorkerServer, trackers: list[ModelTracker],
            seed: int, index: int, clients: int, requests: int,
            victim: int) -> tuple[list[dict], dict]:
    """Concurrent readers on fresh connections; mid-phase, SIGKILL the
    victim worker.  Requests in flight on the dying worker may fail
    with a clean transport error — never a hang, never torn bytes."""
    failures: list[dict] = []
    counts = {"requests": 0, "drops": 0, "shed": 0}
    lock = threading.Lock()

    def worker(worker_id: int) -> None:
        rng = random.Random(f"chaosmp:{seed}:{index}:client{worker_id}")
        for _ in range(requests):
            tracker = rng.choice(trackers)
            kind = rng.choice(["model", "page", "page", "query"])
            if kind == "model":
                path = f"/models/{tracker.name}"
            elif kind == "query":
                params = rng.choice(tracker.queries)
                path = (f"/olap/{tracker.name}/query?"
                        f"{_query_string(**params)}")
            else:
                page = rng.choice(sorted(tracker.current_pages))
                path = f"/site/{tracker.name}/{page}"
            record: dict | None = None
            try:
                status, body, _ = _request(server.port, "GET", path,
                                           timeout_s=30.0)
            except TimeoutError:
                record = {"check": "hung-connection", "path": path,
                          "detail": "client read timed out"}
            except (ConnectionError, http.client.HTTPException,
                    OSError):
                # Clean drop: the kernel reset the connection when the
                # victim died mid-exchange.  Legal during a kill round
                # (counted, not a violation) — unlike a hang above.
                with lock:
                    counts["drops"] += 1
            else:
                record = _check_body(kind, path, status, body, tracker)
                if status == 503:
                    with lock:
                        counts["shed"] += 1
            with lock:
                counts["requests"] += 1
                if record is not None:
                    failures.append(record)

    threads = [threading.Thread(target=worker, args=(worker_id,))
               for worker_id in range(clients)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)
    shot = server.kill_worker(victim)
    for thread in threads:
        thread.join(timeout=90)
        if thread.is_alive():
            failures.append({"check": "hung-worker",
                             "detail": "hammer client did not finish"})
    counts["shot_pid"] = shot
    return failures, counts


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
        _request(server.port, "GET", f"/site/{tracker.name}/{page}")
        status, body, _ = _request(server.port, "GET", "/stats")
        if status != 200:
            continue
        payload = json.loads(body)
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


def _recovery_sweep(server: MultiWorkerServer,
                    trackers: list[ModelTracker],
                    passes: int = 2) -> list[dict]:
    """Fleet whole again: several passes of everything (fresh
    connections spread them across every worker, replacement included)
    must serve current, unmarked, byte-identical responses."""
    failures: list[dict] = []
    for _ in range(passes):
        for tracker in trackers:
            status, body, _ = _request(
                server.port, "GET", f"/models/{tracker.name}")
            if status != 200 or body != tracker.current_xml:
                failures.append({
                    "check": "recovery-model", "model": tracker.name,
                    "detail": f"status {status}"})
            for page, expected in sorted(tracker.current_pages.items()):
                path = f"/site/{tracker.name}/{page}"
                status, body, headers = _request(server.port, "GET", path)
                stale = headers.get("x-goldcase-stale")
                if status != 200 or body != expected or stale:
                    failures.append({
                        "check": "recovery-page", "model": tracker.name,
                        "page": page,
                        "detail": f"status {status} stale={stale} "
                                  f"sha {_sha(body)[:12]} "
                                  f"want {_sha(expected)[:12]}"})
            for encoded, expected in sorted(
                    (encoded, body)
                    for bodies in tracker.current_queries.values()
                    for encoded, body in bodies.items()):
                path = f"/olap/{tracker.name}/query?{encoded}"
                status, body, headers = _request(server.port, "GET", path)
                stale = headers.get("x-goldcase-stale")
                if status != 200 or body != expected or stale:
                    failures.append({
                        "check": "recovery-query", "model": tracker.name,
                        "query": encoded,
                        "detail": f"status {status} stale={stale} "
                                  f"sha {_sha(body)[:12]} "
                                  f"want {_sha(expected)[:12]}"})
    return failures


def _fleet_metrics_check(server: MultiWorkerServer,
                         timeout_s: float = 30.0) -> dict | None:
    """/metrics must report the full fleet again after the respawn."""
    wanted = float(server.workers)
    deadline = time.monotonic() + timeout_s
    last: dict[str, float] = {}
    while time.monotonic() < deadline:
        status, body, _ = _request(server.port, "GET", "/metrics")
        if status == 200:
            try:
                last = parse_metrics(body.decode("utf-8"))
            except ValueError as exc:
                return {"check": "metrics-unparseable",
                        "detail": str(exc)}
            if last.get("goldcase_fleet_workers") == wanted:
                return None
        time.sleep(0.1)
    return {"check": "fleet-metrics",
            "detail": f"goldcase_fleet_workers never returned to "
                      f"{wanted}: {last.get('goldcase_fleet_workers')}"}


def run_round(server: MultiWorkerServer, trackers: list[ModelTracker],
              seed: int, index: int, *, clients: int = 6,
              requests: int = 15) -> tuple[list[dict], dict]:
    """One kill round; returns (failure records, counters)."""
    rng = round_rng(seed, index)
    failures: list[dict] = []
    store = _HttpStore(server.port)

    # Mutate (fleet whole): one model advances a version over HTTP,
    # then its artifacts are materialized so the respawn can be warm.
    target = rng.choice(trackers)
    target.advance(store)
    failures.extend(_materialize(server.port, target))

    # Hammer + mid-phase SIGKILL of a random worker.
    victim = rng.randrange(server.workers)
    respawns_before = server.respawns
    hammered, counts = _hammer(server, trackers, seed, index,
                               clients, requests, victim)
    failures.extend(hammered)

    # Respawn: same worker id, new pid, warmed from the store.
    problem = _await_respawn(server, counts["shot_pid"], respawns_before)
    if problem is not None:
        failures.append(problem)
    else:
        problem = _respawn_warm_check(
            server, victim, counts["shot_pid"], target)
        if problem is not None:
            failures.append(problem)
        failures.extend(_recovery_sweep(server, trackers))
        problem = _fleet_metrics_check(server)
        if problem is not None:
            failures.append(problem)

    counts["victim"] = victim
    for record in failures:
        record.setdefault("seed", seed)
        record.setdefault("round", index)
        record.setdefault("victim", victim)
    return failures, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit.chaosmp",
        description="Worker-kill chaos: SIGKILL random workers of a "
                    "live pre-fork fleet under traffic.")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; round r uses RNG(chaosmp:seed:r)")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="time budget in seconds (default 30)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly N rounds, ignoring --budget")
    parser.add_argument("--start", type=int, default=0,
                        help="first round index (replay)")
    parser.add_argument("--workers", type=int, default=2,
                        help="fleet width (default 2)")
    parser.add_argument("--clients", type=int, default=6,
                        help="concurrent clients per round (default 6)")
    parser.add_argument("--requests", type=int, default=15,
                        help="requests per client per round (default 15)")
    parser.add_argument("--store-dir", default=None,
                        help="build-store directory (default: a "
                             "fresh temporary directory)")
    parser.add_argument("--failures-dir", default="chaosmp-failures",
                        help="directory for JSON reproducers")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if not hasattr(os, "fork"):
        print("chaosmp: SKIP — platform has no fork()")
        return 0

    started = time.monotonic()
    FAULTS.deactivate()  # oracles must render fault-free
    trackers = default_trackers()
    all_failures: list[dict] = []
    totals = {"requests": 0, "drops": 0, "shed": 0, "kills": 0}
    completed = 0
    index = args.start

    import tempfile
    store_dir = args.store_dir or tempfile.mkdtemp(
        prefix="goldcase-chaosmp-")
    with MultiWorkerServer(store_dir, workers=args.workers,
                           dataset=CHAOS_DATASET) as server:
        store = _HttpStore(server.port)
        for tracker in trackers:
            tracker.bootstrap(store)
            failures = _materialize(server.port, tracker)
            assert not failures, failures
        while True:
            if args.rounds is not None:
                if completed >= args.rounds:
                    break
            elif completed > 0 and \
                    time.monotonic() - started >= args.budget:
                break
            failures, counts = run_round(
                server, trackers, args.seed, index,
                clients=args.clients, requests=args.requests)
            completed += 1
            totals["requests"] += counts["requests"]
            totals["drops"] += counts["drops"]
            totals["shed"] += counts["shed"]
            totals["kills"] += 1
            if failures:
                all_failures.extend(failures)
                print(f"round {index}: {len(failures)} violation(s)",
                      file=sys.stderr)
                for record in failures[:5]:
                    print(f"  {json.dumps(record, sort_keys=True)}",
                          file=sys.stderr)
            elif not args.quiet:
                print(f"round {index}: ok — killed worker "
                      f"{counts['victim']} (pid {counts['shot_pid']}), "
                      f"{counts['requests']} requests, "
                      f"{counts['drops']} clean drops, "
                      f"{counts['shed']} shed")
            index += 1

    elapsed = time.monotonic() - started
    summary = (f"{completed} rounds, {totals['kills']} kills, "
               f"{totals['requests']} requests, {totals['drops']} "
               f"clean drops, {totals['shed']} shed, {elapsed:.1f}s")
    if all_failures:
        bad = sorted({record["round"] for record in all_failures})
        path = _write_reproducers(
            args.failures_dir, args.seed, all_failures)
        print(f"chaosmp: FAIL — {len(all_failures)} violation(s) "
              f"across rounds {bad}; {summary}; reproducers: {path}")
        print(f"replay one with: python -m repro.testkit.chaosmp "
              f"--seed {args.seed} --start {bad[0]} --rounds 1")
        return 1
    print(f"chaosmp: OK — 0 violations; {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
