"""The on-disk build store: one artifact per content hash, fleet-wide.

The pre-fork server (DESIGN.md §17) runs N worker processes against one
repository.  In-memory caches stop being shared the moment the server
forks, so without a shared tier every worker would re-render every site
— N transforms per invalidation instead of one.  This module is that
shared tier, and it is safe *by construction*: PR 5's Hypothesis tests
pin that every served byte and ETag is a pure function of the model's
content hash, so an artifact written by one process is byte-identical
to what any other process would have built.

Three cooperating pieces:

* **Content-addressed artifacts.**  Built sites are stored under
  ``site/<hash>-<variant>.json`` and materialized OLAP aggregates under
  ``olap/<hash>-<seed>-<querykey>.json`` — keyed by the model's SHA-256
  content hash (plus the query identity), never by record name or
  revision, so identical bytes share one artifact no matter which model
  name they were uploaded under.  Artifacts are written to a temp file
  and published with :func:`os.rename` — readers see either nothing or
  a complete artifact, never a torn write.  The store is append-only:
  a DELETE drops the *pointer*, not artifacts another record with the
  same bytes may still be serving (GC is future work).
* **Cross-process build locks.**  :meth:`BuildStore.lock` wraps
  ``flock(2)`` on a per-key lock file.  The in-process caches already
  coalesce per-model builds behind ``threading.Lock``; routing their
  build paths through this layer extends the contract fleet-wide: a
  16-client burst across 4 workers still executes exactly one build,
  because every builder re-checks the disk tier *after* acquiring the
  file lock and finds the winner's artifact.  ``flock`` locks die with
  their process, so a SIGKILLed worker never wedges the fleet.
* **The shared model store.**  :class:`SharedModelStore` persists every
  validated upload as a content-addressed blob plus a tiny per-name
  pointer file (atomic rename).  Workers notice a peer's PUT by
  ``stat``-ing the pointer on lookup — one syscall on the hot path —
  and lazily re-ingest the blob, so a PUT acknowledged by any worker is
  visible to every worker's next request (read-your-writes across the
  fleet), and a respawned worker warm-starts from disk instead of an
  empty store.

``fleet/`` holds per-worker telemetry snapshots (tiny JSON files) the
``/metrics`` endpoint aggregates into the supervisor view; see
:mod:`repro.server.workers`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading

from ..mdm import document_to_model
from ..web.linkcheck import LinkReport
from ..xml.parser import parse as parse_xml
from .store import ModelRecord, ModelStore

try:  # POSIX only; the store degrades to in-process locking elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = ["BuildStore", "SharedModelStore"]

#: Schema version stamped into every artifact; a mismatch is treated as
#: a miss (the worker rebuilds), so upgrades never deserialize garbage.
ARTIFACT_VERSION = 1


def _atomic_write(path: str, data: bytes) -> None:
    """Publish *data* at *path* via a same-directory temp + rename."""
    directory = os.path.dirname(path)
    temp = os.path.join(
        directory, f".tmp-{os.getpid()}-{threading.get_ident()}-"
                   f"{os.path.basename(path)}")
    with open(temp, "wb") as handle:
        handle.write(data)
    os.rename(temp, path)


def _key_digest(key: str) -> str:
    """Filesystem-safe digest for arbitrary lock/artifact key strings."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]


class BuildStore:
    """Content-addressed artifacts + cross-process locks under one root."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        for sub in ("site", "olap", "models", "models/blobs",
                    "locks", "fleet"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        #: Fallback when flock is unavailable: per-path in-process locks
        #: (coalesces within one process, which is all there is then).
        self._local_locks: dict[str, threading.Lock] = {}
        self._local_locks_lock = threading.Lock()

    # -- cross-process locks ----------------------------------------------

    @contextlib.contextmanager
    def lock(self, kind: str, key: str):
        """An exclusive fleet-wide lock for one build key.

        Blocks until acquired.  ``flock`` locks are owned by the file
        descriptor, released on close *and* on process death, so a
        worker SIGKILLed mid-build cannot leave the key wedged — the
        next builder simply wins the lock and rebuilds.
        """
        path = os.path.join(self.root, "locks",
                            f"{kind}-{_key_digest(key)}.lock")
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            with self._local_locks_lock:
                local = self._local_locks.setdefault(
                    path, threading.Lock())
            with local:
                yield
            return
        handle = open(path, "a+b")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            # Closing drops the flock atomically with the fd.
            handle.close()

    # -- site artifacts ----------------------------------------------------

    def _site_path(self, content_hash: str, variant: str) -> str:
        return os.path.join(self.root, "site",
                            f"{content_hash}-{variant}.json")

    def store_site(self, entry) -> bool:
        """Persist one built :class:`SiteEntry`.

        The artifact is keyed purely by ``(content_hash, variant)``;
        the record name and revision are serving-time identity and get
        rebound on load, so two models holding identical bytes share
        one artifact.  Writes unconditionally: callers only build (and
        therefore store) after a load miss under the build lock, so
        the only thing ever overwritten is a corrupt or
        version-mismatched artifact — which *should* be replaced.
        """
        path = self._site_path(entry.content_hash, entry.variant)
        report = entry.link_report
        payload = {
            "version": ARTIFACT_VERSION,
            "kind": "site",
            "content_hash": entry.content_hash,
            "variant": entry.variant,
            "pages": {name: data.decode("utf-8")
                      for name, data in entry.pages.items()},
            "etags": dict(entry.etags),
            "messages": list(entry.messages),
            "link_report": None if report is None else {
                "broken_pages": [list(pair)
                                 for pair in report.broken_pages],
                "broken_anchors": [list(pair)
                                   for pair in report.broken_anchors],
                "orphans": list(report.orphans),
                "total_links": report.total_links,
            },
        }
        _atomic_write(path, (json.dumps(payload, sort_keys=True,
                                        separators=(",", ":"))
                             + "\n").encode("utf-8"))
        return True

    def load_site(self, record: ModelRecord, variant: str):
        """The stored entry for *record*'s bytes, rebound to its name.

        Returns None on a miss, an unreadable artifact, or a version
        mismatch — every failure mode degrades to "rebuild locally".
        """
        from .cache import SiteEntry  # circular at module import time

        path = self._site_path(record.content_hash, variant)
        try:
            with open(path, "rb") as handle:
                payload = json.loads(handle.read().decode("utf-8"))
        except (OSError, ValueError):
            return None
        if payload.get("version") != ARTIFACT_VERSION or \
                payload.get("content_hash") != record.content_hash:
            return None
        report_data = payload.get("link_report")
        report = None
        if report_data is not None:
            report = LinkReport(
                broken_pages=[tuple(pair)
                              for pair in report_data["broken_pages"]],
                broken_anchors=[tuple(pair)
                                for pair in report_data["broken_anchors"]],
                orphans=list(report_data["orphans"]),
                total_links=report_data["total_links"])
        return SiteEntry(
            name=record.name, variant=variant,
            content_hash=record.content_hash, revision=record.revision,
            pages={name: text.encode("utf-8")
                   for name, text in payload["pages"].items()},
            etags=dict(payload["etags"]),
            link_report=report, messages=list(payload["messages"]))

    # -- OLAP aggregate artifacts ------------------------------------------

    def _agg_path(self, content_hash: str, seed: int,
                  query_key: str) -> str:
        return os.path.join(
            self.root, "olap",
            f"{content_hash}-{seed}-{_key_digest(query_key)}.json")

    def store_aggregate(self, entry) -> bool:
        """Persist one materialized aggregate's JSON (see
        :meth:`store_site` for why this overwrites unconditionally).

        Only the JSON is stored: every other format is a view a
        process derives from it on demand (DESIGN.md §16.8).
        """
        path = self._agg_path(entry.content_hash, entry.seed,
                              entry.query_key)
        payload = {
            "version": ARTIFACT_VERSION,
            "kind": "aggregate",
            "content_hash": entry.content_hash,
            "seed": entry.seed,
            "query_key": entry.query_key,
            "renderings": {"json": entry.renderings["json"]
                           .decode("utf-8")},
            "etags": {"json": entry.etags["json"]},
            "row_count": entry.row_count,
            "sliced_out": entry.sliced_out,
        }
        _atomic_write(path, (json.dumps(payload, sort_keys=True,
                                        separators=(",", ":"))
                             + "\n").encode("utf-8"))
        return True

    def load_aggregate(self, name: str, content_hash: str, seed: int,
                       query_key: str):
        """The stored aggregate, rebound to *name*; None on any miss.

        Loads the JSON alone, also from an artifact that holds the XML
        too (written before the XML became a view of the JSON).
        """
        from ..olap.service.aggcache import AggregateEntry

        path = self._agg_path(content_hash, seed, query_key)
        try:
            with open(path, "rb") as handle:
                payload = json.loads(handle.read().decode("utf-8"))
        except (OSError, ValueError):
            return None
        if payload.get("version") != ARTIFACT_VERSION or \
                payload.get("content_hash") != content_hash or \
                payload.get("query_key") != query_key:
            return None
        return AggregateEntry(
            name=name, content_hash=content_hash, seed=seed,
            query_key=query_key,
            renderings={"json": payload["renderings"]["json"]
                        .encode("utf-8")},
            etags={"json": payload["etags"]["json"]},
            row_count=payload["row_count"],
            sliced_out=payload["sliced_out"])

    # -- the shared model tier ---------------------------------------------

    def _pointer_path(self, name: str) -> str:
        return os.path.join(self.root, "models", f"{name}.current")

    def _blob_path(self, content_hash: str) -> str:
        return os.path.join(self.root, "models", "blobs",
                            f"{content_hash}.xml")

    def write_model(self, name: str, xml_bytes: bytes,
                    content_hash: str) -> tuple[int, bool]:
        """Publish *name* → *content_hash*; returns (revision, created).

        Callers must already hold ``lock("model", name)`` — the pointer
        read-modify-write (revision increment) is not atomic on its own.
        """
        blob = self._blob_path(content_hash)
        if not os.path.exists(blob):
            _atomic_write(blob, xml_bytes)
        pointer = self.read_pointer(name)
        revision = 1 if pointer is None else pointer["revision"] + 1
        _atomic_write(
            self._pointer_path(name),
            (json.dumps({"hash": content_hash, "revision": revision},
                        sort_keys=True) + "\n").encode("utf-8"))
        return revision, pointer is None

    def pointer_stat(self, name: str) -> tuple[int, int] | None:
        """A cheap freshness key for *name*'s pointer, or None.

        ``(st_ino, st_mtime_ns)`` — pointer updates are atomic renames,
        so any update changes the inode; one ``stat`` per lookup is the
        whole cross-process freshness protocol.
        """
        try:
            status = os.stat(self._pointer_path(name))
        except OSError:
            return None
        return status.st_ino, status.st_mtime_ns

    def read_pointer(self, name: str) -> dict | None:
        """The pointer payload ``{"hash", "revision"}`` or None."""
        try:
            with open(self._pointer_path(name), "rb") as handle:
                return json.loads(handle.read().decode("utf-8"))
        except (OSError, ValueError):
            return None

    def read_model_bytes(self, content_hash: str) -> bytes | None:
        try:
            with open(self._blob_path(content_hash), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def delete_model(self, name: str) -> bool:
        """Unpublish *name* (pointer only; blobs are content-shared)."""
        try:
            os.unlink(self._pointer_path(name))
        except OSError:
            return False
        return True

    def model_names(self) -> list[str]:
        directory = os.path.join(self.root, "models")
        return sorted(
            entry[:-len(".current")] for entry in os.listdir(directory)
            if entry.endswith(".current"))

    # -- fleet telemetry snapshots -----------------------------------------

    def write_fleet(self, worker_id: int, payload: dict) -> None:
        """Publish one worker's telemetry snapshot (atomic, tiny)."""
        _atomic_write(
            os.path.join(self.root, "fleet", f"worker-{worker_id}.json"),
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))

    def clear_fleet(self) -> None:
        """Drop every worker snapshot (supervisor start on a reused
        store: stale snapshots from a previous fleet must not count)."""
        directory = os.path.join(self.root, "fleet")
        for entry in os.listdir(directory):
            if entry.endswith(".json"):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(directory, entry))

    def read_fleet(self) -> dict[int, dict]:
        """Every worker's latest snapshot, keyed by worker id."""
        directory = os.path.join(self.root, "fleet")
        snapshots: dict[int, dict] = {}
        try:
            entries = os.listdir(directory)
        except OSError:
            return snapshots
        for entry in entries:
            if not (entry.startswith("worker-")
                    and entry.endswith(".json")):
                continue
            try:
                worker_id = int(entry[len("worker-"):-len(".json")])
                with open(os.path.join(directory, entry), "rb") as handle:
                    snapshots[worker_id] = json.loads(
                        handle.read().decode("utf-8"))
            except (OSError, ValueError):
                continue  # a snapshot mid-rename; next scrape sees it
        return snapshots


class SharedModelStore(ModelStore):
    """A :class:`ModelStore` whose truth lives in the build store.

    Uploads validate exactly like the in-memory store (same pipeline,
    same diagnostics) and then publish blob + pointer to disk under the
    fleet-wide model lock.  Lookups ``stat`` the pointer file: when a
    peer process has published a newer version, the blob is re-ingested
    *without* re-running XSD validation — the bytes were validated by
    whichever worker accepted the PUT, and re-validating a peer's
    accepted upload on every propagation would put tens of milliseconds
    on the first request after each flip.
    """

    def __init__(self, buildstore: BuildStore) -> None:
        super().__init__()
        self.buildstore = buildstore
        #: name → pointer stat key the cached record was loaded under.
        self._stat_keys: dict[str, tuple[int, int]] = {}

    def _ingest_trusted(self, name: str, xml_bytes: bytes,
                        content_hash: str, revision: int) -> ModelRecord:
        document = parse_xml(xml_bytes)
        return ModelRecord(
            name=name, xml_bytes=xml_bytes, content_hash=content_hash,
            model=document_to_model(document), revision=revision)

    def put(self, name: str, xml_bytes: bytes) -> tuple[ModelRecord, bool]:
        model = self.ingest(name, xml_bytes)  # full validation pipeline
        digest = hashlib.sha256(xml_bytes).hexdigest()
        with self.buildstore.lock("model", name):
            revision, created = self.buildstore.write_model(
                name, bytes(xml_bytes), digest)
            stat_key = self.buildstore.pointer_stat(name)
        record = ModelRecord(
            name=name, xml_bytes=bytes(xml_bytes), content_hash=digest,
            model=model, revision=revision)
        with self._lock:
            self._records[name] = record
            if stat_key is not None:
                self._stat_keys[name] = stat_key
        return record, created

    def get(self, name: str) -> ModelRecord | None:
        stat_key = self.buildstore.pointer_stat(name)
        if stat_key is None:
            with self._lock:
                self._records.pop(name, None)
                self._stat_keys.pop(name, None)
            return None
        with self._lock:
            record = self._records.get(name)
            if record is not None and \
                    self._stat_keys.get(name) == stat_key:
                return record
        pointer = self.buildstore.read_pointer(name)
        if pointer is None:  # deleted between stat and read
            return None
        with self._lock:
            record = self._records.get(name)
        if record is not None and record.content_hash == pointer["hash"]:
            # Same bytes, new pointer (a peer's no-op re-upload): keep
            # the parsed model, adopt the new revision and stat key.
            record = ModelRecord(
                name=name, xml_bytes=record.xml_bytes,
                content_hash=record.content_hash, model=record.model,
                revision=pointer["revision"])
        else:
            xml_bytes = self.buildstore.read_model_bytes(pointer["hash"])
            if xml_bytes is None:
                return None
            record = self._ingest_trusted(
                name, xml_bytes, pointer["hash"], pointer["revision"])
        with self._lock:
            self._records[name] = record
            self._stat_keys[name] = stat_key
        return record

    def delete(self, name: str) -> bool:
        with self.buildstore.lock("model", name):
            existed = self.buildstore.delete_model(name)
        with self._lock:
            self._records.pop(name, None)
            self._stat_keys.pop(name, None)
        return existed

    def names(self) -> list[str]:
        return self.buildstore.model_names()

    def listing(self) -> list[dict]:
        summaries = []
        for name in self.names():
            record = self.get(name)
            if record is not None:
                summaries.append(record.summary())
        return summaries
