"""Pre-fork serving: a supervisor, N worker processes, one build store.

The single-process server (:mod:`repro.server.httpd`) tops out around
one core: handler threads share the GIL, so XSLT rendering and response
serialization serialize no matter how many clients connect.  This
module is the scale-out described in DESIGN.md §17:

* **A supervisor** that owns the port and the worker fleet.  On
  platforms with ``SO_REUSEPORT`` (Linux), the supervisor *reserves*
  the port — binds a reuseport socket without ever calling
  ``listen()``, so the kernel excludes it from connection distribution
  but keeps the port ours even while zero workers are up — and every
  worker binds its own reuseport *listening* socket on that port; the
  kernel then load-balances new connections across workers with no
  accept lock and no proxy hop.  Elsewhere, the supervisor binds and
  listens one socket and the forked workers all ``accept()`` on the
  inherited descriptor.
* **N workers**, each a full :class:`~http.server.ThreadingHTTPServer`
  running the exact same hardened handler as the single-process server
  (:func:`repro.server.httpd.make_handler`) over its own app, cache,
  and telemetry.  Per-worker state keeps every existing contract —
  coalescing, serve-stale, shedding — intact *within* a worker; the
  shared :class:`~repro.server.buildstore.BuildStore` extends build
  coalescing *across* workers (one transform fleet-wide) and gives a
  respawned worker a warm start.
* **Crash containment.**  A monitor thread reaps dead workers and
  forks replacements under the same worker id.  A SIGKILLed worker
  costs only its own in-flight connections (clean transport errors at
  the client); its reuseport socket leaves the group atomically, its
  ``flock``s die with it, and its replacement warms from the on-disk
  store without re-rendering anything a peer already built.  The
  worker-kill chaos runner (:mod:`repro.testkit.chaosmp`) enforces all
  three properties.

A site is built by the worker whose request needs it, or adopted from
the peer that stored it; a worker rebuilds incrementally (DESIGN.md
§14) only after a build of its own.

``fork`` start method only: workers inherit the listening socket and
(in tests) monkeypatched module state, without pickling anything.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time

from .app import ModelRepositoryApp
from .buildstore import BuildStore, SharedModelStore
from .cache import SiteCache
from .httpd import RepositoryHTTPServer, make_handler
from .telemetry import ServerTelemetry

__all__ = ["MultiWorkerServer", "make_worker_app", "reuseport_available",
           "serve_forever_multi"]

#: How often each worker publishes its fleet snapshot.
FLEET_FLUSH_S = 0.25

#: How long the supervisor waits for a worker to come up.
READY_TIMEOUT_S = 30.0


def reuseport_available() -> bool:
    """True when the kernel supports ``SO_REUSEPORT`` distribution."""
    return hasattr(socket, "SO_REUSEPORT")


def make_worker_app(buildstore: BuildStore, *,
                    worker_id: int | None = None,
                    dataset=None) -> ModelRepositoryApp:
    """One worker's application over the shared build store.

    Everything per-process (cache, telemetry, OLAP service) is fresh;
    everything durable (models, built artifacts, fleet snapshots) goes
    through *buildstore*, which is how N of these stay one repository.
    """
    from ..olap.service import OlapService

    return ModelRepositoryApp(
        SharedModelStore(buildstore),
        SiteCache(buildstore=buildstore),
        ServerTelemetry(),
        OlapService(dataset=dataset, buildstore=buildstore),
        worker_id=worker_id, fleet=buildstore)


class _ReusePortServer(RepositoryHTTPServer):
    """A threaded server whose socket joins a reuseport group."""

    def server_bind(self) -> None:
        self.socket.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class _InheritedSocketServer(RepositoryHTTPServer):
    """A threaded server accepting on a socket bound by the parent."""

    def __init__(self, shared: socket.socket, handler: type) -> None:
        address = shared.getsockname()[:2]
        super().__init__(address, handler, bind_and_activate=False)
        self.socket.close()  # the unused fresh socket
        self.socket = shared
        self.server_address = address
        self.server_name = socket.getfqdn(address[0])
        self.server_port = address[1]


def _worker_main(worker_id: int, host: str, port: int, store_dir: str,
                 quiet: bool, dataset, shared_socket, ready) -> None:
    """A worker process, from fork to shutdown.  Never returns."""
    # The terminal delivers SIGINT to the whole group; the supervisor
    # owns shutdown and asks politely with SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    buildstore = BuildStore(store_dir)
    app = make_worker_app(buildstore, worker_id=worker_id, dataset=dataset)
    handler = make_handler(app, quiet=quiet)
    if shared_socket is not None:
        server = _InheritedSocketServer(shared_socket, handler)
    else:
        server = _ReusePortServer((host, port), handler)

    def on_term(_signum, _frame) -> None:
        # shutdown() blocks until the serve loop exits, so it must run
        # off the loop's own (main) thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, on_term)

    stop_flush = threading.Event()

    def flush() -> None:
        buildstore.write_fleet(worker_id, {
            "worker": worker_id, "pid": os.getpid(),
            "requests": app.request_count(), "updated": time.time()})

    def flush_loop() -> None:
        while not stop_flush.wait(FLEET_FLUSH_S):
            flush()

    flush()
    threading.Thread(target=flush_loop, daemon=True,
                     name="goldcase-fleet-flush").start()
    ready.set()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        stop_flush.set()
        flush()
        server.server_close()
    os._exit(0)


class MultiWorkerServer:
    """The embeddable pre-fork server: supervisor + N workers.

    Mirrors :class:`repro.server.httpd.ModelServer`'s shape (``start``
    / ``stop`` / context manager / ``.url``) so tests, benchmarks, and
    the chaos runner drive either interchangeably — the difference is
    that requests land in worker *processes* and all durable state
    lives in ``store_dir``.
    """

    def __init__(self, store_dir: str, *, workers: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 quiet: bool = True, dataset=None) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.store_dir = store_dir
        self.buildstore = BuildStore(store_dir)
        self.workers = workers
        self.respawns = 0  # replacements forked by the monitor
        self._host = host
        self._requested_port = port
        self._quiet = quiet
        self._dataset = dataset
        self._ctx = multiprocessing.get_context("fork")
        self._procs: list = [None] * workers
        self._port: int | None = None
        self._reserve_socket: socket.socket | None = None
        self._shared_socket: socket.socket | None = None
        self._stopping = threading.Event()
        self._monitor_thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- addresses ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------

    def _bind(self) -> None:
        if reuseport_available():
            # Reserve the port without listening: a non-listening bound
            # socket never receives connections but keeps the port (and
            # with port=0, *decides* it) for the whole fleet's lifetime,
            # including windows where every worker is dead.
            reserve = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            reserve.bind((self._host, self._requested_port))
            self._reserve_socket = reserve
            self._port = reserve.getsockname()[1]
        else:  # pragma: no cover - non-Linux fallback
            shared = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            shared.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            shared.bind((self._host, self._requested_port))
            shared.listen(RepositoryHTTPServer.request_queue_size)
            self._shared_socket = shared
            self._port = shared.getsockname()[1]

    def _spawn(self, worker_id: int) -> tuple:
        ready = self._ctx.Event()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._host, self._port, self.store_dir,
                  self._quiet, self._dataset, self._shared_socket, ready),
            daemon=True, name=f"goldcase-worker-{worker_id}")
        proc.start()
        return proc, ready

    def start(self) -> "MultiWorkerServer":
        self.buildstore.clear_fleet()
        self._bind()
        pending = []
        with self._lock:
            for worker_id in range(self.workers):
                proc, ready = self._spawn(worker_id)
                self._procs[worker_id] = proc
                pending.append((worker_id, proc, ready))
        for worker_id, proc, ready in pending:
            if not ready.wait(READY_TIMEOUT_S):
                self.stop()
                raise RuntimeError(
                    f"worker {worker_id} (pid {proc.pid}) did not come "
                    f"up within {READY_TIMEOUT_S}s "
                    f"(exitcode={proc.exitcode})")
        self._monitor_thread = threading.Thread(
            target=self._monitor, daemon=True, name="goldcase-supervisor")
        self._monitor_thread.start()
        return self

    def _monitor(self) -> None:
        """Reap dead workers and fork replacements under the same id."""
        while not self._stopping.wait(0.05):
            for worker_id in range(self.workers):
                with self._lock:
                    proc = self._procs[worker_id]
                if proc is None or proc.is_alive() \
                        or self._stopping.is_set():
                    continue
                proc.join()  # reap the zombie
                replacement, ready = self._spawn(worker_id)
                with self._lock:
                    if self._stopping.is_set():
                        replacement.terminate()
                        replacement.join(timeout=5)
                        return
                    self._procs[worker_id] = replacement
                    self.respawns += 1
                ready.wait(READY_TIMEOUT_S)

    def worker_pids(self) -> list[int]:
        """Current pid per worker slot (monitor may change these)."""
        with self._lock:
            return [proc.pid for proc in self._procs if proc is not None]

    def kill_worker(self, worker_id: int) -> int:
        """SIGKILL one worker (chaos); returns the pid that was shot.

        The monitor forks a replacement under the same worker id within
        its next scan.
        """
        with self._lock:
            proc = self._procs[worker_id]
        if proc is None or proc.pid is None:
            raise RuntimeError(f"worker {worker_id} not running")
        pid = proc.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    def stop(self) -> None:
        self._stopping.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10)
            self._monitor_thread = None
        with self._lock:
            procs = [proc for proc in self._procs if proc is not None]
            self._procs = [None] * self.workers
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=10)
        for sock in (self._reserve_socket, self._shared_socket):
            if sock is not None:
                sock.close()
        self._reserve_socket = None
        self._shared_socket = None
        self._stopping = threading.Event()  # restartable

    def __enter__(self) -> "MultiWorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_forever_multi(store_dir: str, *, workers: int,
                        host: str = "127.0.0.1", port: int = 8040,
                        quiet: bool = False) -> None:
    """Blocking pre-fork serve loop for the CLI (Ctrl-C to stop)."""
    server = MultiWorkerServer(
        store_dir, workers=workers, host=host, port=port, quiet=quiet)
    server.start()
    mode = "SO_REUSEPORT" if reuseport_available() else "inherited FD"
    print(f"goldcase: {workers} workers on {server.url} ({mode}), "
          f"build store at {store_dir}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
