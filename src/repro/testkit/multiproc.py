"""The ``multiproc`` family: a live pre-fork fleet vs offline publish.

Run it with ``python -m repro.testkit.run --family multiproc``.  A
random model — and a chain of edited versions of it — is published
through a *live two-worker fleet* (real sockets, real forked workers,
the shared on-disk build store), started once per run, under a random
PUT/GET interleaving, and every served byte is compared against a
single-process offline publish of whichever version was current at
that point.  Every GET opens a fresh connection, so the kernel's
reuseport hashing spreads the reads across workers: the family fails
if *any* worker ever serves bytes that differ from the offline oracle —
catching stale pointer reads, torn artifacts, or a worker building
from different bytes than its peers.
"""

from __future__ import annotations

import random
import tempfile
from contextlib import contextmanager
from typing import Iterator

from ..mdm import model_to_xml
from ..server import MultiWorkerServer
from ..server.store import ModelStore, ModelStoreError
from .generators import (
    apply_model_edit,
    random_model,
    random_model_edit_script,
)
from .live import WORKERS, _sha, fetch, offline_pages

__all__ = ["build_steps", "fleet", "multiproc_differential",
           "random_versions", "run_iteration"]

#: Most versions of one model per iteration (PUTs in the interleaving).
MAX_VERSIONS = 3


def random_versions(rng: random.Random,
                    limit: int = MAX_VERSIONS) -> list[bytes]:
    """A base model plus edited successors, all schema-valid, as XML.

    Versions that a server would reject (random edits can break
    referential structure) or that repeat the previous bytes are
    skipped — every returned version flips the content hash.
    """
    validator = ModelStore()
    model = random_model(rng, max_facts=2, max_dimensions=2,
                         max_levels=2)
    versions = [model_to_xml(model).encode("utf-8")]
    current = model
    for op in random_model_edit_script(rng, 2 * limit):
        if len(versions) >= limit:
            break
        candidate, _ = apply_model_edit(current, op)
        xml_bytes = model_to_xml(candidate).encode("utf-8")
        if xml_bytes == versions[-1]:
            continue
        try:
            validator.ingest("candidate", xml_bytes)
        except ModelStoreError:
            continue
        current = candidate
        versions.append(xml_bytes)
    return versions


def build_steps(rng: random.Random, version_count: int,
                reads_per_gap: int = 3) -> list[tuple]:
    """A random PUT/GET interleaving over *version_count* versions.

    Always starts by publishing version 0; versions advance in order
    (a PUT of version *k* only after *k-1*), with 1..*reads_per_gap*
    read batches between consecutive PUTs and after the last one.
    ``("get", k)`` means "read *k* random paths of the current
    version's oracle".
    """
    steps: list[tuple] = [("put", 0)]
    for version in range(1, version_count + 1):
        for _ in range(rng.randint(1, reads_per_gap)):
            steps.append(("get", rng.randint(1, 3)))
        if version < version_count:
            steps.append(("put", version))
    return steps


def multiproc_differential(server: MultiWorkerServer, name: str,
                           versions: list[bytes], steps: list[tuple],
                           rng: random.Random) -> list[dict]:
    """Execute *steps* against the live fleet; returns failure records.

    After each acknowledged PUT, *every* subsequent GET — regardless of
    which worker answers — must serve bytes identical to the offline
    publish of that version (cross-worker read-your-writes plus
    byte-identity): the model document and every page of its site.
    """
    failures: list[dict] = []
    oracles = [{f"/models/{name}": xml_bytes,
                **{f"/site/{name}/{page}": body
                   for page, body in offline_pages(xml_bytes).items()}}
               for xml_bytes in versions]
    current: int | None = None
    for step in steps:
        if step[0] == "put":
            version = step[1]
            response = fetch(server, "PUT", f"/models/{name}",
                             versions[version])
            if response.status not in (200, 201):
                failures.append({
                    "check": "multiproc-put", "model": name,
                    "workers": server.workers, "version": version,
                    "status": response.status,
                    "body": response.body.decode("utf-8", "replace")[:200]})
                break  # later reads would chase a version never stored
            current = version
            continue
        if current is None:  # defensive; steps always start with a put
            continue
        oracle = oracles[current]
        paths = rng.sample(sorted(oracle), k=min(len(oracle), step[1]))
        for path in paths:
            response = fetch(server, "GET", path)
            if response.status != 200 or response.body != oracle[path]:
                failures.append({
                    "check": "multiproc-identical", "model": name,
                    "workers": server.workers, "version": current,
                    "path": path, "status": response.status,
                    "expected_sha": _sha(oracle[path]),
                    "got_sha": _sha(response.body)})
    return failures


@contextmanager
def fleet() -> Iterator[MultiWorkerServer]:
    """Start the fixture: a fleet over a fresh build store.  Iterations
    share it; each publishes a model of its own name."""
    with tempfile.TemporaryDirectory(prefix="goldcase-multiproc-") as root, \
            MultiWorkerServer(root, workers=WORKERS) as server:
        yield server


def run_iteration(rng: random.Random, seed: int, index: int,
                  server: MultiWorkerServer) -> list[dict]:
    """One iteration of the family, drawn from *rng*."""
    name = f"m{seed}x{index}"
    versions = random_versions(rng)
    steps = build_steps(rng, len(versions))
    return multiproc_differential(server, name, versions, steps, rng)
