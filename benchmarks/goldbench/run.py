"""goldbench: the repository's end-to-end benchmark.

One command starts the real server in its own process, drives it over
HTTP from this process (at most two threads, two keep-alive
connections, closed loop), checks every response against offline
oracles and prints every metric by name with its unit.  The run, the
server and a host-speed sampler share one core, and every time is
reported at the sampler's reference speed (hostspeed.py)::

    python3 benchmarks/goldbench/run.py --workload browse --seed 0
    python3 benchmarks/goldbench/run.py --workload analyze --trace 1
    python3 benchmarks/goldbench/run.py --trace-dir out/   # all, traced
    python3 benchmarks/goldbench/run.py --sets 2 --runs 5 --compare
    python3 benchmarks/goldbench/run.py --smoke            # medium model

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).  The exit code is non-zero when
any operation failed or any oracle disagreed.  Workloads, metrics and
their bounds are described in ``benchmarks/goldbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"goldbench: no source tree at {ROOT}/src; run it from a "
             "full checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402
import workloads as load  # noqa: E402
from oracle import OlapOracle, SiteVersions  # noqa: E402

LAUNCHER = os.path.join(HERE, "launcher.py")

#: Scratch space for server run directories and build stores; removed
#: at the end of every run.
WORK_ROOT = os.path.join(ROOT, ".goldbench")

#: The read median is taken per round of this many seconds, each
#: corrected by the host speed of its round, then its median over the
#: rounds is reported: a stall inside a run moves a few rounds, not the
#: result.
ROUND_S = 0.5

WORKLOADS = {
    "browse": "single",
    "author": "single",
    "analyze": "single",
    "fleet": "fleet",
}

#: What ``op_p50_ms`` times on each workload: the operation its users
#: wait on besides their page reads.  A revalidation is a conditional
#: GET answered 304; an edit runs from the start of its PUT until the
#: page it dirtied shows the new bytes; a fresh query is an OLAP query
#: the engine executes (a miss).
OPERATION = {
    "browse": "revalidation",
    "author": "edit",
    "analyze": "fresh query",
    "fleet": "edit",
}

#: (name, unit, better, bound) — mirrored in BENCHMARK.json.  The time
#: bounds are as wide as the run-to-run spread of this 2-vCPU host
#: requires (README, "Bounds").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("req_rps", "req/s", "higher", 0.24),
    ("req_p50_ms", "ms", "lower", 0.24),
    ("op_p50_ms", "ms", "lower", 0.24),
    ("server_rss_mb", "MB", "lower", 0.10),
    ("ok_share", "ratio", "higher", 0.0),
)

#: (name, unit, better, layer module, end-to-end metric it should move,
#: workloads it should move on) — mirrored in BENCHMARK.json.
PER_LAYER = (
    ("httpd.connect_ms.max", "ms", "lower", "server/httpd.py",
     "setup_s", "all"),
    ("httpd.overhead_ms.p50", "ms", "lower", "server/httpd.py",
     "req_p50_ms", "browse"),
    ("app.handle.self_us.p50", "us", "lower", "server/app.py",
     "req_rps", "browse"),
    ("telemetry.bracket_us.p50", "us", "lower", "server/telemetry.py",
     "req_rps", "browse"),
    ("store.put_ms.p50", "ms", "lower", "server/store.py",
     "op_p50_ms", "author"),
    ("store.parse_ms.p50", "ms", "lower", "xml/",
     "op_p50_ms", "author"),
    ("store.validate_ms.p50", "ms", "lower", "xsd/",
     "op_p50_ms", "author"),
    ("store.to_model_ms.p50", "ms", "lower", "mdm/",
     "op_p50_ms", "author"),
    ("cache.site.hit_ratio", "ratio", "higher", "server/cache.py",
     "req_p50_ms", "browse"),
    ("cache.site.resident_mb", "MB", "lower", "server/cache.py",
     "server_rss_mb", "author"),
    ("cache.site.entry_hit_us.p50", "us", "lower", "server/cache.py",
     "req_p50_ms", "browse"),
    ("cache.site.rebuild_ms.p50", "ms", "lower", "server/cache.py",
     "op_p50_ms", "author"),
    ("cache.site.rebuilds_per_edit", "count", "lower", "server/cache.py",
     "op_p50_ms", "author"),
    ("incremental.republish_ms.p50", "ms", "lower", "web/incremental.py",
     "op_p50_ms", "author"),
    ("incremental.pages_rebuilt.mean", "count", "lower", "web/incremental.py",
     "op_p50_ms", "author"),
    ("incremental.fallbacks", "count", "lower", "web/incremental.py",
     "op_p50_ms", "author"),
    ("linkcheck.check_ms.p50", "ms", "lower", "web/linkcheck.py",
     "op_p50_ms", "author, fleet"),
    ("publish.cold_ms", "ms", "lower", "web/publisher.py",
     "setup_s", "browse, author, fleet"),
    ("xslt.compiled_render_ms.per_edit", "ms", "lower", "xslt/compile/",
     "op_p50_ms", "author"),
    ("xslt.interpreted_transform_ms.p50", "ms", "lower", "xslt/engine.py",
     "op_p50_ms", "analyze"),
    ("olap.query.parse_resolve_us.p50", "us", "lower", "olap/service/query.py",
     "req_p50_ms", "analyze"),
    ("olap.agg.hit_ratio", "ratio", "higher", "olap/service/aggcache.py",
     "req_rps", "analyze"),
    ("olap.agg.coalesced", "count", "lower", "olap/service/aggcache.py",
     "req_rps", "analyze"),
    ("olap.agg.entry_hit_us.p50", "us", "lower", "olap/service/aggcache.py",
     "req_p50_ms", "analyze"),
    ("olap.engine.execute_ms.p50", "ms", "lower", "olap/engine.py",
     "op_p50_ms", "analyze"),
    ("olap.engine.rows_per_cell", "count", "lower", "olap/engine.py",
     "op_p50_ms", "analyze"),
    ("olap.render.json_ms.p50", "ms", "lower", "olap/service/render.py",
     "op_p50_ms", "analyze"),
    ("olap.render.xml_ms.p50", "ms", "lower", "olap/service/render.py",
     "op_p50_ms", "analyze"),
    ("olap.datagen_s", "s", "lower", "olap/service/datagen.py",
     "setup_s", "analyze"),
    ("buildstore.model_get_us.p50", "us", "lower", "server/buildstore.py",
     "req_p50_ms", "fleet"),
    ("buildstore.load_site_ms.p50", "ms", "lower", "server/buildstore.py",
     "op_p50_ms", "fleet"),
    ("buildstore.store_site_ms.p50", "ms", "lower", "server/buildstore.py",
     "op_p50_ms", "fleet"),
    ("buildstore.lock_wait_ms.p50", "ms", "lower", "server/buildstore.py",
     "op_p50_ms", "fleet"),
    ("buildstore.disk_hit_ratio", "ratio", "higher", "server/buildstore.py",
     "op_p50_ms", "fleet"),
    ("workers.request_share.min", "ratio", "higher", "server/workers.py",
     "req_rps", "fleet"),
)


@dataclass(frozen=True)
class Settings:
    """Run sizes; ``--smoke`` shrinks everything to the medium model."""

    size: str = "large"
    #: The measured window; BENCHMARK.json's bounds hold for this length.
    seconds: float = 10.0
    warmup_s: float = 1.0
    setup_starts: int = 3
    #: Length of the author/fleet edit script: enough to keep the editor
    #: busy through warm-up and window down to 0.19 s per edit and pause
    #: (today an author edit and its pause take about 0.7 s), so an edit
    #: path made several times faster still has edits to run.
    edits: int = 60
    #: Distinct fresh queries in the analyze stream (5x as many requests).
    fresh: int = 400
    #: On analyze, ``server_rss_mb`` is read once this many fresh queries
    #: have been answered (about half the window on the slowest host
    #: seen), not at the end of the window: the aggregate cache keeps
    #: every answer, so the server's memory grows with each query it
    #: executes, and a faster engine would read as a memory regression.
    rss_after_fresh: int = 100


SMOKE = Settings(size="medium", seconds=1.5, warmup_s=0.2, setup_starts=1,
                 edits=12, fresh=40, rss_after_fresh=10)


class ServerProcess:
    """The launcher subprocess: one server (or fleet) under test."""

    def __init__(self, mode: str, run_dir: str, traced: bool) -> None:
        os.makedirs(run_dir)
        self.run_dir = run_dir
        command = [sys.executable, LAUNCHER, "--mode", mode,
                   "--run-dir", run_dir]
        if traced:
            command.append("--trace")
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("the server process exited before listening")
        info = json.loads(line)
        self.host, self.port = info["host"], info["port"]
        #: The processes that serve requests (the fleet's workers).
        self.pids: list[int] = info["pids"]

    def peak_rss_mb(self) -> float:
        """Peak resident memory (``VmHWM``) summed over :attr:`pids`."""
        total_kb = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                total_kb += next(int(line.split()[1]) for line in status
                                 if line.startswith("VmHWM:"))
        return total_kb * 1024 / 1e6

    def stop(self) -> list[dict]:
        """Stop the server; returns the per-process span reports."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        reports = []
        for path in sorted(glob.glob(os.path.join(self.run_dir,
                                                  "proc-*.json"))):
            with open(path, encoding="utf-8") as handle:
                reports.append(json.load(handle))
        return reports


@dataclass
class Tally:
    """Operations attempted and failed, over the whole run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


class Run:
    """One run of one workload: setup, window, checks, metrics."""

    def __init__(self, workload: str, seed: int, settings: Settings,
                 traced: bool, core: int | None) -> None:
        self.workload = workload
        self.mode = WORKLOADS[workload]
        self.seed = seed
        self.settings = settings
        self.traced = traced
        #: The core the run is pinned to (hostspeed.pin).
        self.core = core
        self.tally = Tally()
        self.work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        self.servers = 0
        self.commits: list[tuple[int, float, float]] = []
        #: Wall seconds per phase of the run (reported, not a metric).
        self.phases: dict[str, float] = {}
        #: When ``server_rss_mb`` was read (Settings.rss_after_fresh).
        self.rss_point = "at the end of the window"
        began = time.perf_counter()

        # -- inputs and oracles, all before any clock starts ------------
        self.versions = SiteVersions(inputs.model_xml(settings.size), seed)
        model = self.versions.models[0]
        if OPERATION[workload] == "edit":
            # Versions 1.. are the window's edit script.
            for edit in inputs.edit_script(model, seed, settings.edits):
                self.versions.add(edit.model)
        self.fresh = inputs.fresh_queries(model, seed, settings.fresh) \
            if workload == "analyze" else []
        self.phases["inputs"] = time.perf_counter() - began

    # -- server lifecycle ----------------------------------------------------

    def _start(self, traced: bool) -> tuple[ServerProcess, float, float]:
        """Spawn -> listening -> PUT -> cold build; returns the server and
        the ``perf_counter`` times it took."""
        self.servers += 1
        start = time.perf_counter()
        server = ServerProcess(
            self.mode, os.path.join(self.work, f"server-{self.servers}"),
            traced)
        client = loadgen.Client(server.host, server.port)
        try:
            client.connect()
            reply = client.request("PUT", f"/models/{inputs.MODEL_NAME}",
                                   body=self.versions.xml[0])
            self.tally.check(reply.status == 201, f"setup PUT {reply.status}")
            if self.workload == "analyze":
                reply = client.get(inputs.query_path(
                    inputs.setup_query(self.versions.models[0])))
                ok = reply.status == 200 and \
                    reply.headers.get("x-goldcase-olap") == "executed"
            else:
                reply = client.get(load.page_path("index.html"))
                ok = reply.status == 200 and \
                    reply.sha == self.versions.hashes[0]["index.html"]
            end = time.perf_counter()
            self.tally.check(ok, f"setup cold build {reply.status}")
        except BaseException:
            server.stop()
            raise
        finally:
            client.close()
        return server, start, end

    def _connect(self, server: ServerProcess) -> list[loadgen.Client]:
        """The two measured connections, opened serially."""
        if self.mode == "fleet":
            return [loadgen.pin(server.host, server.port, worker)
                    for worker in (0, 1)]
        clients = [loadgen.Client(server.host, server.port)
                   for _ in range(2)]
        for client in clients:
            client.connect()
        return clients

    def _scrape(self, clients: list[loadgen.Client]) -> list[dict]:
        """``/stats`` of every server process (one per fleet worker)."""
        targets = clients if self.mode == "fleet" else clients[:1]
        out = []
        for client in targets:
            reply = client.get("/stats")
            self.tally.check(reply.status == 200, "/stats")
            out.append(reply.json())
        return out

    # -- the run -------------------------------------------------------------

    def execute(self) -> dict:
        settings = self.settings
        setups = []
        server = None
        mark = time.perf_counter()

        def phase(name: str) -> None:
            nonlocal mark
            now = time.perf_counter()
            self.phases[name] = self.phases.get(name, 0.0) + now - mark
            mark = now

        sampler = hostspeed.Sampler()
        try:
            for index in range(settings.setup_starts):
                if server is not None:
                    server.stop()
                last = index == settings.setup_starts - 1
                server, start, end = self._start(self.traced and last)
                setups.append((start, end))
            phase("setup")
            clients = self._connect(server)
            connect_ms = [ms for c in clients for ms in c.connect_ms]
            stats_before = self._scrape(clients)
            window_start, ops, rss_mb = self._window(server, clients)
            if rss_mb is None:
                rss_mb = server.peak_rss_mb()
            else:
                self.rss_point = (f"after {settings.rss_after_fresh} fresh "
                                  "queries")
            stats_after = self._scrape(clients)
            self.speed = sampler.stop()
            phase("window")
            self._final_check(clients[0])
            for client in clients:
                client.close()
        finally:
            sampler.kill()
            reports = server.stop() if server is not None else []
        phase("final")
        window_end = window_start + settings.seconds
        in_window = {kind: [op for op in kind_ops
                            if window_start <= op.start < window_end]
                     for kind, kind_ops in ops.items()}
        self._check_offline(ops)
        phase("checks")
        metrics = self._end_to_end(in_window, window_start, setups, rss_mb)
        result = {"metrics": metrics}
        if self.traced:
            result["trace"] = self._layers(reports, in_window, connect_ms,
                                           stats_before, stats_after)
        return result

    def _window(self, server: ServerProcess, clients
                ) -> tuple[float, dict, float | None]:
        """Warm-up then the measured window; returns its start, the ops
        by kind, and on analyze the peak RSS read during the window
        (None when the workload does not read it or too few fresh
        queries were answered)."""
        settings = self.settings
        rss = load.Countdown(settings.rss_after_fresh, server.peak_rss_mb)
        window_start = time.perf_counter() + settings.warmup_s
        stop_at = window_start + settings.seconds
        pages = self.versions.pages
        streams = [inputs.page_stream(pages, self.seed, s) for s in (0, 1)]
        last = len(self.versions.xml) - 1
        if self.workload == "browse":
            targets = [(load.reader, (clients[s], streams[s], self.versions,
                                      stop_at)) for s in (0, 1)]
        elif self.workload == "author":
            targets = [(load.editor, (clients[0], self.versions, 1, last,
                                      stop_at, self.commits)),
                       (load.reader, (clients[1], streams[1], self.versions,
                                      stop_at))]
        elif self.workload == "analyze":
            plan = inputs.analyze_streams(self.fresh, self.seed)
            barrier = threading.Barrier(2)
            targets = [(load.analyst, (clients[s], plan[s], self.fresh,
                                       stop_at, barrier, rss.tick))
                       for s in (0, 1)]
        else:
            handoff = load.EditHandoff(self.versions)
            targets = [(handoff.editor, (clients[0], 1, last, stop_at,
                                         self.commits)),
                       (load.reader, (clients[1], streams[1], self.versions,
                                      stop_at, handoff))]
        results = load.run_threads(targets)
        every = [op for result in results for op in result]
        if self.workload == "fleet":
            every += handoff.ops
        ops: dict[str, list] = {}
        for op in every:
            ops.setdefault(op.kind, []).append(op)
        return window_start, ops, rss.result

    def _current_version(self) -> int:
        return max((v for v, _, _ in self.commits), default=0)

    def _final_check(self, client: loadgen.Client) -> None:
        """Every page of the final version, byte-compared."""
        expected = self.versions.hashes[self._current_version()]
        for page in self.versions.pages:
            op = load.read_page(client, page, None)
            self.tally.check(op.ok and op.detail["sha"] == expected[page],
                             f"final site {page}")

    # -- oracles -------------------------------------------------------------

    def _read_ok(self, op) -> bool:
        if not op.ok:
            return False
        low = max((v for v, _, end in self.commits if end <= op.start),
                  default=0)
        high = max((v for v, start, _ in self.commits if start < op.end),
                   default=0)
        page = op.detail["page"]
        if op.detail["status"] == 304:
            digest = self.versions.hashes[0][page]
        else:
            digest = op.detail["sha"]
        return self.versions.accepts(page, digest, low, high)

    def _check_offline(self, ops: dict) -> None:
        for op in ops.get("read", []):
            self.tally.check(self._read_ok(op), f"read {op.detail}")
        for op in ops.get("edit", []):
            self.tally.check(op.ok, f"edit {op.detail}")
        if not ops.get("fresh"):
            return
        olap = OlapOracle()
        answered: dict[int, str] = {}
        for op in ops["fresh"]:
            ok = op.ok and op.detail["sha"] == olap.expected_sha(
                self.versions.xml[0], self.versions.models[0],
                self.fresh[op.detail["index"]])
            self.tally.check(ok, f"fresh query {op.detail}")
            answered[op.detail["index"]] = op.detail.get("sha")
        for op in ops.get("repeat", []):
            self.tally.check(
                op.ok and op.detail["sha"] == answered.get(
                    op.detail["index"]), f"repeat query {op.detail}")

    # -- metrics -------------------------------------------------------------

    def _operations(self, window: dict) -> list:
        """The window's ops that ``op_p50_ms`` times (:data:`OPERATION`)."""
        if self.workload == "browse":
            return [op for op in window.get("read", [])
                    if op.detail.get("conditional")]
        if self.workload == "analyze":
            return window.get("fresh", [])
        return window.get("edit", [])

    def _end_to_end(self, window: dict, window_start: float,
                    setups: list[tuple[float, float]], rss_mb: float
                    ) -> dict:
        """The end-to-end metrics, every time corrected to the reference
        host speed over the interval it was measured in (hostspeed.py);
        :attr:`raw` keeps the uncorrected values."""
        settings = self.settings
        speed = self.speed
        reads = window.get("read", []) if self.workload != "analyze" \
            else window.get("fresh", []) + window.get("repeat", [])
        operations = self._operations(window)
        count = round(settings.seconds / ROUND_S)
        width = settings.seconds / count
        factors = [speed.factor(window_start + i * width,
                                window_start + (i + 1) * width)
                   for i in range(count)]
        per_round = loadgen.rounds(reads, window_start, settings.seconds,
                                   count)
        p50 = [loadgen.percentile([op.ms for op in r], 0.5)
               for r in per_round if r]
        p50_ref = [loadgen.percentile([op.ms for op in r], 0.5) * f
                   for r, f in zip(per_round, factors) if r]
        # Tails are printed under the ">= 10 samples beyond" rule but are
        # not metrics: p99 needs 1000 reads, which the author reader does
        # not reach in a window, and p90 spreads too much (README).
        tails = {q: loadgen.tail_percentile([op.ms for op in reads], q)
                 for q in (0.90, 0.95, 0.99)}
        tally = self.tally
        values = {
            "setup_s": statistics.median(
                (end - start) * speed.factor(start, end)
                for start, end in setups),
            "req_rps": sum(len(r) / f for r, f in zip(per_round, factors))
            / settings.seconds,
            "req_p50_ms": statistics.median(p50_ref),
            "op_p50_ms": statistics.median(
                op.ms * speed.factor(op.start, op.end) for op in operations),
            "server_rss_mb": rss_mb,
            "ok_share": (tally.attempted - tally.failed) / tally.attempted,
        }
        self.raw = {
            "setup_s": statistics.median(end - start
                                         for start, end in setups),
            "req_rps": len(reads) / settings.seconds,
            "req_p50_ms": statistics.median(p50),
            "op_p50_ms": statistics.median(op.ms for op in operations),
        }
        self.samples = {
            "reads": len(reads), "rounds": count,
            "operations": len(operations),
            "p50_iqr": loadgen.median_iqr(p50_ref)[1],
            "setups": [end - start for start, end in setups],
            "speed": speed.factor(window_start,
                                  window_start + settings.seconds),
            "tails": tails}
        units = {name: unit for name, unit, _, _ in END_TO_END}
        return {name: {"value": value, "unit": units[name]}
                for name, value in values.items()}

    def _layers(self, reports, window, connect_ms, stats_before,
                stats_after) -> dict:
        tree = spans.build_tree({r["pid"]: r["spans"] for r in reports})
        reads = [(op.request_id, op.ms)
                 for kind in ("read", "fresh", "repeat")
                 for op in window.get(kind, []) if op.request_id]
        first_edit = min((start for _, start, _ in self.commits),
                         default=None)
        values = spans.derive(
            tree, reads=reads, connect_ms=connect_ms,
            stats_before=stats_before, stats_after=stats_after,
            first_edit_start=first_edit, edits=len(self.commits))
        units = {name: unit for name, unit, *_ in PER_LAYER}
        return {
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name, *_ in PER_LAYER},
            "functions": spans.function_table(tree),
            "coverage": spans.coverage(tree, reads),
            "reads": reads,
            "spans": {r["pid"]: r["spans"] for r in reports},
        }


# -- command line -------------------------------------------------------------


def run_one(args, settings: Settings) -> int:
    traced = bool(args.trace)
    # Before any thread or child exists, so that all of them inherit it.
    core = hostspeed.pin()
    run = Run(args.workload, args.seed, settings, traced, core)
    try:
        result = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it, or it was never made
    tally = run.tally
    metrics = result["trace"]["metrics"] if traced else result["metrics"]
    print(f"goldbench {args.workload} seed={args.seed} "
          f"seconds={settings.seconds:g} size={settings.size} "
          f"trace={int(traced)}")
    samples = run.samples
    print(f"  samples: {samples['reads']} reads in {samples['rounds']} "
          f"rounds; {samples['operations']} operations "
          f"({OPERATION[args.workload]}); setup starts "
          f"{['%.3f' % s for s in samples['setups']]}; peak RSS read "
          f"{run.rss_point}")
    print("  phases: " + ", ".join(f"{name} {seconds:.1f} s"
                                   for name, seconds in run.phases.items()))
    print(f"  host speed over the window: {samples['speed']:.3f} of the "
          f"reference (core {run.core}); uncorrected: "
          + ", ".join(f"{name} {value:.4f}"
                      for name, value in run.raw.items()))
    print(f"  IQR of the read median over rounds: "
          f"{samples['p50_iqr']:.4f} ms")
    for q, (value, reason) in samples["tails"].items():
        print(f"  read p{q * 100:g}: " + (f"{value:.4f} ms" if reason is None
                                          else f"none ({reason})"))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        print(f"  {name:<22} "
              + (f"{value:>14.4f}" if value is not None else f"{'none':>14}")
              + f" {metric['unit']}")
    if traced:
        trace = result["trace"]
        print(f"  span coverage of read latency (median): "
              f"{trace['coverage'] * 100:.1f}%")
        for name, metric in metrics.items():
            print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump({"end_to_end": result["metrics"], **trace},
                          handle)
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


def child(workload: str, seed: int, args, *, trace: bool = False,
          trace_out: str | None = None) -> dict:
    """One run in a fresh interpreter, started like a single-workload
    command line."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace))]
    if args.smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}


def run_all(args, names: list[str]) -> int:
    """Every workload once; the last line sums them up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        result = child(workload, args.seed, args, trace=bool(args.trace))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def run_traced(args, names: list[str]) -> int:
    """Untraced then traced runs; writes DIR/trace.json and prints the
    tracing overhead and the per-layer self-time table."""
    os.makedirs(args.trace_dir, exist_ok=True)
    combined, correct = {}, True
    for workload in names:
        plain = child(workload, args.seed, args)
        part = os.path.join(args.trace_dir, f"{workload}.part.json")
        traced = child(workload, args.seed, args, trace=True,
                       trace_out=part)
        correct &= plain["correct"] and traced["correct"]
        if not os.path.exists(part):
            continue
        with open(part, encoding="utf-8") as handle:
            data = json.load(handle)
        os.remove(part)
        overhead = {
            name: data["end_to_end"][name]["value"] - metric["value"]
            for name, metric in plain["metrics"].items()}
        data["overhead"] = overhead
        combined[workload] = data
        print(f"== {workload}: tracing overhead (traced - untraced)")
        for name, delta in overhead.items():
            base = plain["metrics"][name]["value"]
            print(f"  {name:<22} {delta:>+12.4f} "
                  f"({100 * delta / base if base else 0:+.1f}%)")
        print(f"== {workload}: self time by function")
        for name, row in sorted(data["functions"].items(),
                                key=lambda kv: -kv[1]["busy_ms"]):
            print(f"  {name:<36} calls {row['calls']:>7} "
                  f"busy {row['busy_ms']:>10.1f} ms  errors {row['errors']}")
        print(f"  coverage of read latency: {data['coverage'] * 100:.1f}%")
    with open(os.path.join(args.trace_dir, "trace.json"), "w",
              encoding="utf-8") as handle:
        json.dump(combined, handle)
    print(json.dumps({"correct": correct, "workloads": list(combined)}))
    return 0 if correct else 1


def run_compare(args, names: list[str]) -> int:
    """``--sets`` x ``--runs`` runs per workload, each with its own seed;
    prints per (metric, workload) each set's median and IQR and whether
    the set medians agree within the metric's bound."""
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    values: dict = {}
    correct = True
    for workload in names:
        for s in range(args.sets):
            for r in range(args.runs):
                seed = 2 + s * args.runs + r  # seed 1 is held out
                result = child(workload, seed, args)
                correct &= result["correct"]
                for name, metric in result["metrics"].items():
                    values.setdefault((name, workload), [[] for _ in
                                                         range(args.sets)])
                    values[(name, workload)][s].append(metric["value"])
    agree_all = True
    print(f"{'metric':<22} {'workload':<8} "
          + " ".join(f"{'set' + str(s) + ' median':>14} {'IQR%':>6}"
                     for s in range(args.sets))
          + "   all IQR%  bound  agree")
    for (name, workload), sets in values.items():
        cells, medians = [], []
        for samples in sets:
            median, iqr = loadgen.median_iqr(samples)
            medians.append(median)
            cells.append(f"{median:>14.4f} {100 * iqr / median:>6.1f}")
        median, iqr = loadgen.median_iqr([v for vs in sets for v in vs])
        drift = max(abs(m - medians[0]) / medians[0] for m in medians)
        agree = drift <= bounds[name] if args.compare else True
        agree_all &= agree
        print(f"{name:<22} {workload:<8} " + " ".join(cells)
              + f"  {100 * iqr / median:>9.1f}  {bounds[name]:.2f}  "
              + ("yes" if agree else "NO"))
    print(json.dumps({"correct": correct, "agree": agree_all}))
    return 0 if correct and agree_all else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="goldbench: the repository's end-to-end benchmark")
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (1 is held out for claims)")
    parser.add_argument("--seconds", type=float,
                        help="the measured window; accepted only when it "
                        "equals the window the bounds were set with "
                        f"({Settings.seconds:g}, or {SMOKE.seconds:g} "
                        "with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    parser.add_argument("--trace-dir",
                        help="run untraced and traced, write DIR/trace.json")
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="medium model, short windows")
    parser.add_argument("--sets", type=int, default=0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--compare", action="store_true")
    args = parser.parse_args(argv)

    settings = SMOKE if args.smoke else Settings()
    if args.seconds is not None and args.seconds != settings.seconds:
        parser.error(f"--seconds must be {settings.seconds:g}: the bounds "
                     "in BENCHMARK.json hold for that window only")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.sets:
        return run_compare(args, names)
    if args.trace_dir:
        return run_traced(args, names)
    if args.workload == "all":
        return run_all(args, names)
    # A wedged server must not hold the run past its time limit.
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(170)
    return run_one(args, settings)


def _timeout(_signum, _frame):
    raise TimeoutError("goldbench run exceeded 170 s")


if __name__ == "__main__":
    sys.exit(main())
