"""The closed-loop traffic of the four workloads.

Each function here runs on one load-generator thread against one
pre-connected :class:`loadgen.Client` until ``stop_at`` (a
``perf_counter`` time) and returns the :class:`loadgen.Op` list it
produced.  Responses are only hashed here; the oracles check them after
the run, outside the clock.
"""

from __future__ import annotations

import queue
import threading
import time

from inputs import MODEL_NAME, query_path
from loadgen import Client, Op, TransportError

#: How long an edit may take to become visible before it counts failed.
VISIBLE_TIMEOUT_S = 10.0

#: After an edit shows, the editor pauses for this share of the time it
#: took, as an author looking at the result does.  Without a pause the
#: server works on edits nearly all the time, and the concurrent
#: reader's median flips between its fast reads and the ones stuck
#: behind a rebuild from one run to the next.  A pause in proportion to
#: the edit keeps the editor's share of the core the same on a fast and
#: a slow host.
THINK_SHARE = 0.5


def page_path(page: str) -> str:
    return f"/site/{MODEL_NAME}/{page}"


def etag(digest: str) -> str:
    return f'"{digest}"'


def read_page(client: Client, page: str, if_none_match: str | None) -> Op:
    """One page GET, conditional when *if_none_match* is given."""
    headers = {"If-None-Match": if_none_match} if if_none_match else None
    start = time.perf_counter()
    try:
        reply = client.get(page_path(page), headers)
    except TransportError as exc:
        _reconnect(client)
        return Op("read", start, time.perf_counter(), ok=False,
                  detail={"page": page, "error": str(exc)})
    return Op("read", reply.start, reply.end, ok=reply.status in (200, 304),
              request_id=reply.request_id,
              detail={"page": page, "status": reply.status,
                      "sha": reply.sha, "conditional": bool(if_none_match)})


def _reconnect(client: Client) -> None:
    try:
        client.connect()
    except OSError:
        pass  # the next request fails and is counted again


def reader(client: Client, stream, versions, stop_at: float,
           handoff: "EditHandoff | None" = None) -> list[Op]:
    """Browse *stream* until *stop_at*.

    Conditional GETs carry version 0's ETag.  With a *handoff* (fleet),
    a pending edit's visibility read is served before the next browse
    read, and browsing goes on past *stop_at* until the edit in flight
    has been seen.
    """
    ops: list[Op] = []
    while time.perf_counter() < stop_at or (handoff is not None
                                            and not handoff.close()):
        if handoff is not None:
            pending = handoff.pending()
            if pending is not None:
                pending(client)
                continue
        page, conditional = next(stream)
        ops.append(read_page(
            client, page,
            etag(versions.hashes[0][page]) if conditional else None))
    return ops


def await_visible(client: Client, versions, version: int,
                  start: float) -> Op:
    """GET the page *version* dirtied until it shows that version.

    The op spans from *start* (the PUT's start) to the read that
    returned the expected bytes.  A read returning the previous
    version's bytes is retried; any other body fails the op.
    """
    page = versions.dirtied[version]
    expected = versions.hashes[version][page]
    previous = versions.hashes[version - 1][page]
    rids = []
    while True:
        try:
            reply = client.get(page_path(page))
        except TransportError as exc:
            _reconnect(client)
            return Op("edit", start, time.perf_counter(), ok=False,
                      detail={"version": version, "error": str(exc)})
        rids.append(reply.request_id)
        ok = reply.status == 200 and reply.sha == expected
        stale = reply.status == 200 and reply.sha == previous
        if ok or not stale or reply.end - start > VISIBLE_TIMEOUT_S:
            return Op("edit", start, reply.end, ok=ok,
                      request_id=reply.request_id,
                      detail={"version": version, "page": page,
                              "status": reply.status, "reads": rids})


def put_version(client: Client, versions, version: int,
                commits: list) -> tuple[float, bool]:
    """PUT *version*'s bytes; records ``(version, start, end)``."""
    start = time.perf_counter()
    try:
        reply = client.request("PUT", f"/models/{MODEL_NAME}",
                               body=versions.xml[version])
    except TransportError:
        _reconnect(client)
        return start, False
    commits.append((version, reply.start, reply.end))
    return start, reply.status == 200


def editor(client: Client, versions, first: int, last: int,
           stop_at: float, commits: list) -> list[Op]:
    """PUT versions first..last in turn, each followed by its visibility
    read on the same connection and a pause, until *stop_at*."""
    ops: list[Op] = []
    for version in range(first, last + 1):
        if time.perf_counter() >= stop_at:
            break
        start, stored = put_version(client, versions, version, commits)
        if not stored:
            ops.append(Op("edit", start, time.perf_counter(), ok=False,
                          detail={"version": version, "error": "PUT"}))
            continue
        ops.append(await_visible(client, versions, version, start))
        time.sleep(ops[-1].ms / 1000.0 * THINK_SHARE)
    return ops


class EditHandoff:
    """Fleet edits: PUT on connection A, visibility read on B.

    A's thread calls :meth:`edit` per version; B's reader thread polls
    :meth:`pending` between browse reads and runs the visibility read,
    after which A's thread pauses (:data:`THINK_SHARE`) and moves on to
    the next edit (closed loop).
    """

    def __init__(self, versions) -> None:
        self.versions = versions
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self.ops: list[Op] = []
        self._lock = threading.Lock()
        #: True from an edit's PUT until its visibility read is done.
        self._active = False
        self._closed = False

    def close(self) -> bool:
        """Called by B past the window: stop unless an edit is in flight."""
        with self._lock:
            if not self._active:
                self._closed = True
            return self._closed

    def edit(self, client: Client, version: int, commits: list) -> bool:
        """One edit; False once B has stopped reading."""
        with self._lock:
            if self._closed:
                return False
            self._active = True
        try:
            start, stored = put_version(client, self.versions, version,
                                        commits)
            if not stored:
                self.ops.append(Op("edit", start, time.perf_counter(),
                                   ok=False, detail={"version": version,
                                                     "error": "PUT"}))
                return True
            done = threading.Event()
            self._queue.put((version, start, done))
            if not done.wait(VISIBLE_TIMEOUT_S * 3):
                raise RuntimeError(f"edit {version} was never read back")
            return True
        finally:
            with self._lock:
                self._active = False

    def pending(self):
        try:
            version, start, done = self._queue.get_nowait()
        except queue.Empty:
            return None

        def visibility_read(client: Client) -> None:
            self.ops.append(await_visible(client, self.versions, version,
                                          start))
            done.set()
        return visibility_read

    def editor(self, client: Client, first: int, last: int, stop_at: float,
               commits: list) -> list[Op]:
        for version in range(first, last + 1):
            if time.perf_counter() >= stop_at or \
                    not self.edit(client, version, commits):
                break
            time.sleep(self.ops[-1].ms / 1000.0 * THINK_SHARE)
        return []


class Countdown:
    """Calls *action* once, on the thread that makes the *n*-th
    :meth:`tick`, and keeps what it returned in :attr:`result`."""

    def __init__(self, n: int, action) -> None:
        self._left = n
        self._lock = threading.Lock()
        self._action = action
        self.result = None

    def tick(self) -> None:
        with self._lock:
            self._left -= 1
            if self._left != 0:
                return
        self.result = self._action()


def analyst(client: Client, stream, fresh: list[dict], stop_at: float,
            barrier: threading.Barrier, fresh_done) -> list[Op]:
    """Send the ``(kind, index)`` OLAP *stream* until *stop_at*, calling
    *fresh_done* after each fresh query.

    The analysts send their fresh queries together and wait for both
    to finish before going on to their repeats.  Without that, a repeat
    sometimes waits one or two 5 ms GIL switch intervals behind the
    other connection's executing query and sometimes not at all, and
    the read median jumps between those modes from run to run.
    """
    ops: list[Op] = []
    try:
        for kind, index in stream:
            if time.perf_counter() >= stop_at:
                break
            if kind == "fresh":
                barrier.wait()
            ops.append(olap_query(client, fresh[index], kind, index))
            if kind == "fresh":
                fresh_done()
                barrier.wait()
    except threading.BrokenBarrierError:
        pass  # the other analyst has stopped
    finally:
        barrier.abort()
    return ops


def olap_query(client: Client, params: dict, kind: str, index: int) -> Op:
    """One OLAP GET; a fresh query must execute, a repeat must hit."""
    start = time.perf_counter()
    try:
        reply = client.get(query_path(params))
    except TransportError as exc:
        _reconnect(client)
        return Op(kind, start, time.perf_counter(), ok=False,
                  detail={"index": index, "error": str(exc)})
    outcome = reply.headers.get("x-goldcase-olap")
    wanted = "executed" if kind == "fresh" else "hit"
    return Op(kind, reply.start, reply.end,
              ok=reply.status == 200 and outcome == wanted,
              request_id=reply.request_id,
              detail={"index": index, "status": reply.status,
                      "outcome": outcome, "sha": reply.sha})


def run_threads(targets: list) -> list[list[Op]]:
    """Run each ``(fn, args)`` on its own thread; re-raise any error."""
    results: list = [None] * len(targets)
    errors: list = []

    def body(slot: int, fn, args) -> None:
        try:
            results[slot] = fn(*args)
        except BaseException as exc:  # reported to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(slot, fn, args),
                                name=f"goldbench-load-{slot}")
               for slot, (fn, args) in enumerate(targets)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results
