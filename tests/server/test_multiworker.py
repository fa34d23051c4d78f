"""The pre-fork server: distribution, visibility, crash recovery.

Each test drives a real :class:`MultiWorkerServer` — forked worker
processes behind one port — through plain HTTP, comparing served bytes
against an offline single-process publish (the PR 4 contract, extended
across processes).  Fresh connections per request make the kernel's
reuseport hashing spread load, so a handful of requests observes every
worker; the edit-path test instead pins one keep-alive connection to
each worker.
"""

from __future__ import annotations

import http.client
import json
import os
import time

import pytest

from repro.mdm import model_to_xml, sales_model, two_facts_model
from repro.server import MultiWorkerServer
from repro.testkit.live import offline_pages

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pre-fork server needs fork()")


def _xml(model) -> bytes:
    return model_to_xml(model).encode("utf-8")


def _request(port: int, method: str, path: str, body: bytes | None = None
             ) -> tuple[int, bytes]:
    """One exchange on a fresh connection (its own source port, so the
    reuseport hash re-rolls which worker answers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        return _exchange(conn, method, path, body)
    finally:
        conn.close()


def _exchange(conn: http.client.HTTPConnection, method: str, path: str,
              body: bytes | None = None) -> tuple[int, bytes]:
    """One exchange on *conn*, which stays open."""
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.read()


def _offline_site(xml_bytes: bytes, name: str) -> dict[str, bytes]:
    """Every multi-variant page path → bytes, published offline."""
    return {f"/site/{name}/{page}": body
            for page, body in offline_pages(xml_bytes).items()}


def _stats_by_pid(port: int, wanted_pids: set[int],
                  timeout_s: float = 30.0) -> dict[int, dict]:
    """/stats payloads keyed by answering pid, until all wanted pids
    have answered (reuseport: keep re-rolling fresh connections)."""
    seen: dict[int, dict] = {}
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, body = _request(port, "GET", "/stats")
        assert status == 200
        payload = json.loads(body)
        seen[payload["worker"]["pid"]] = payload
        if wanted_pids <= set(seen):
            return seen
    raise AssertionError(
        f"only pids {sorted(seen)} answered /stats within {timeout_s}s; "
        f"wanted {sorted(wanted_pids)}")


def test_served_bytes_identical_to_offline_across_workers(tmp_path):
    """Every page served by any of the workers is byte-identical to a
    single-process offline publish, and both workers actually serve."""
    xml_bytes = _xml(sales_model())
    expected = _offline_site(xml_bytes, "sales")
    with MultiWorkerServer(str(tmp_path / "store"), workers=2) as server:
        status, _ = _request(server.port, "PUT", "/models/sales",
                             xml_bytes)
        assert status == 201
        status, body = _request(server.port, "GET", "/models/sales")
        assert status == 200 and body == xml_bytes
        for path, page_bytes in sorted(expected.items()):
            status, body = _request(server.port, "GET", path)
            assert status == 200
            assert body == page_bytes, path
        pids = set(_stats_by_pid(server.port, set(server.worker_pids())))
        assert pids == set(server.worker_pids())
        assert len(pids) == 2


def test_put_on_one_worker_visible_to_all(tmp_path):
    """Read-your-writes across the fleet: after a PUT is acknowledged
    (by whichever worker got it), every subsequent GET — on fresh
    connections landing on random workers — serves the new bytes."""
    first = _xml(sales_model())
    second = _xml(two_facts_model())
    with MultiWorkerServer(str(tmp_path / "store"), workers=2) as server:
        assert _request(server.port, "PUT", "/models/m", first)[0] == 201
        for _ in range(8):
            status, body = _request(server.port, "GET", "/models/m")
            assert status == 200 and body == first
        assert _request(server.port, "PUT", "/models/m", second)[0] == 200
        for _ in range(8):
            status, body = _request(server.port, "GET", "/models/m")
            assert status == 200 and body == second


def test_fleet_metrics_and_worker_labels(tmp_path):
    """/metrics through the shared port: per-worker labels on every
    series plus the supervisor-aggregate fleet series."""
    with MultiWorkerServer(str(tmp_path / "store"), workers=2) as server:
        deadline = time.monotonic() + 30
        while True:
            status, body = _request(server.port, "GET", "/metrics")
            assert status == 200
            text = body.decode("utf-8")
            if "goldcase_fleet_workers 2" in text:
                break
            assert time.monotonic() < deadline, text
            time.sleep(0.1)
        assert 'worker="' in text
        assert "goldcase_worker_up{" in text
        assert "goldcase_fleet_requests " in text


def test_killed_worker_respawns_warm_from_the_store(tmp_path):
    """SIGKILL one worker: the monitor forks a replacement under the
    same id, survivors keep serving correct bytes throughout, and the
    respawned worker serves the site from the on-disk artifact without
    re-rendering anything (rebuilds stays 0, disk hits appear)."""
    xml_bytes = _xml(sales_model())
    expected = _offline_site(xml_bytes, "sales")
    paths = sorted(expected)
    with MultiWorkerServer(str(tmp_path / "store"), workers=2) as server:
        assert _request(server.port, "PUT", "/models/sales",
                        xml_bytes)[0] == 201
        for path in paths:  # force the build + artifact store
            assert _request(server.port, "GET", path)[0] == 200

        shot = server.kill_worker(0)
        deadline = time.monotonic() + 30
        while True:
            pids = server.worker_pids()
            if len(pids) == 2 and shot not in pids:
                break
            assert time.monotonic() < deadline, \
                f"no respawn: {pids} (shot {shot})"
            time.sleep(0.05)
        assert server.respawns == 1

        # Everyone — survivor and replacement — serves correct bytes.
        for _ in range(4):
            for path in paths:
                status, body = _request(server.port, "GET", path)
                assert status == 200 and body == expected[path]

        # The replacement holds worker id 0 under a new pid and warmed
        # from the store: zero transforms, at least one disk hit.
        stats = _stats_by_pid(server.port, set(server.worker_pids()))
        replacement = next(
            payload for payload in stats.values()
            if payload["worker"]["id"] == 0)
        assert replacement["worker"]["pid"] != shot
        site = replacement["site_cache"]
        assert site["rebuilds"] == 0, site
        assert site["disk_hits"] >= 1, site


def test_inherited_fd_fallback_serves_correctly(tmp_path, monkeypatch):
    """With SO_REUSEPORT unavailable (the fallback path), workers
    accept on the supervisor's inherited listening socket and serve
    the same bytes."""
    import repro.server.workers as workers_module

    monkeypatch.setattr(workers_module, "reuseport_available",
                        lambda: False)
    xml_bytes = _xml(sales_model())
    expected = _offline_site(xml_bytes, "sales")
    with MultiWorkerServer(str(tmp_path / "store"), workers=2) as server:
        assert server._shared_socket is not None  # fallback engaged
        assert _request(server.port, "PUT", "/models/sales",
                        xml_bytes)[0] == 201
        for path, page_bytes in sorted(expected.items()):
            status, body = _request(server.port, "GET", path)
            assert status == 200 and body == page_bytes, path


def _pinned(port: int, worker_id: int, attempts: int = 200
            ) -> http.client.HTTPConnection:
    """A keep-alive connection served by worker *worker_id*.

    The kernel picks the worker when it accepts the connection, so
    redial until ``/stats`` on the new connection reports that id.
    """
    for _ in range(attempts):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        status, body = _exchange(conn, "GET", "/stats")
        assert status == 200
        if json.loads(body)["worker"]["id"] == worker_id:
            return conn
        conn.close()
    raise AssertionError(
        f"no connection reached worker {worker_id} in {attempts} tries")


def _site_stats(conn: http.client.HTTPConnection) -> dict:
    status, body = _exchange(conn, "GET", "/stats")
    assert status == 200
    return json.loads(body)["site_cache"]


def test_reading_worker_rebuilds_each_edit_incrementally(tmp_path):
    """The fleet's edit path: chained edits PUT via worker 0 and read
    via worker 1.  Worker 1 serves every page of every version
    byte-identical to an offline publish, and after its first build it
    rebuilds each edit incrementally against the entry it built itself:
    no cold fallback, no artifact adopted from disk."""
    from repro.testkit.generators import apply_model_edit

    model = sales_model()
    versions = [model]
    for step in range(1, 4):
        model, _ = apply_model_edit(model, ("describe", step, step, 0))
        versions.append(model)
    with MultiWorkerServer(str(tmp_path / "store"), workers=2) as server:
        writer = _pinned(server.port, 0)
        reader = _pinned(server.port, 1)
        try:
            before = None
            for version in versions:
                xml_bytes = _xml(version)
                status, _ = _exchange(writer, "PUT", "/models/sales",
                                      xml_bytes)
                assert status in (200, 201)
                for path, page_bytes in sorted(
                        _offline_site(xml_bytes, "sales").items()):
                    status, body = _exchange(reader, "GET", path)
                    assert status == 200 and body == page_bytes, path
                if before is None:
                    before = _site_stats(reader)
            after = _site_stats(reader)
        finally:
            writer.close()
            reader.close()
    delta = {key: after[key] - before[key]
             for key in ("rebuilds", "incremental", "incremental_fallback",
                         "disk_hits")}
    assert delta == {"rebuilds": 3, "incremental": 3,
                     "incremental_fallback": 0, "disk_hits": 0}, delta
