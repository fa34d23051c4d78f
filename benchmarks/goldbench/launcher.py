"""The server process a goldbench run measures.

Usage (run.py starts it; the model is uploaded over HTTP afterwards)::

    python benchmarks/goldbench/launcher.py --mode single|fleet \\
        --run-dir DIR [--trace]

``single`` is :class:`repro.server.ModelServer` (the ``goldcase serve``
default); ``fleet`` is ``MultiWorkerServer(workers=2)`` over a fresh
build store in ``DIR/store``.  Once listening it prints one JSON line
(``url``, ``host``, ``port``, ``pids``) and serves until its standard
input closes, then stops the server.

With ``--trace``, each serving process writes its spans to
``DIR/proc-<pid>.json`` when its server closes.  Forked workers leave
through ``os._exit``, which skips ``atexit``, so the writer hooks the
worker servers' ``server_close`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from repro.server import ModelServer  # noqa: E402
from repro.server import workers  # noqa: E402

import spans  # noqa: E402


def write_report(run_dir: str, recorder: spans.Recorder) -> None:
    """This process's spans, as ``proc-<pid>.json``."""
    payload = {"pid": os.getpid(), "spans": list(recorder.spans)}
    path = os.path.join(run_dir, f"proc-{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


def _report_on_close(server_class, run_dir: str, recorder) -> None:
    original = server_class.server_close

    def server_close(self) -> None:
        original(self)
        write_report(run_dir, recorder)

    server_class.server_close = server_close


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("single", "fleet"),
                        required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = spans.Recorder() if args.trace else None
    if recorder is not None:
        spans.install(recorder)
    if args.mode == "single":
        server = ModelServer().start()
        pids = [os.getpid()]
    else:
        if recorder is not None:
            for server_class in (workers._ReusePortServer,
                                 workers._InheritedSocketServer):
                _report_on_close(server_class, args.run_dir, recorder)
        server = workers.MultiWorkerServer(
            os.path.join(args.run_dir, "store"), workers=2).start()
        pids = server.worker_pids()
    print(json.dumps({"url": server.url, "host": server.host,
                      "port": server.port, "pids": pids}), flush=True)
    try:
        sys.stdin.read()  # the parent closes our stdin to stop us
    finally:
        server.stop()
        if recorder is not None and args.mode == "single":
            write_report(args.run_dir, recorder)
    return 0


if __name__ == "__main__":
    sys.exit(main())
