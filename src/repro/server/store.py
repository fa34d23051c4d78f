"""The REST model store: named GOLD model documents, validated on upload.

The paper's CASE tool keeps every model as an XML document (§3); this
store is the server-side home for those documents.  A ``put`` runs the
full ingestion pipeline — parse, XSD validation against the goldmodel
schema (reusing :mod:`repro.xsd.validator` and surfacing its
instance-path diagnostics), and conversion to a :class:`GoldModel` —
so everything the store holds is known-publishable.  Rejections raise
:class:`ModelStoreError` carrying the structured diagnostics the HTTP
layer serializes as JSON.

Every record carries a SHA-256 ``content_hash`` of the canonical XML
bytes.  That hash is the cache key for the publishing layer
(:mod:`repro.server.cache`): re-uploading identical bytes keeps the
hash (and therefore every cached page and ETag) stable, while any byte
change rolls the hash and invalidates exactly that model's site.

All public methods are thread-safe: the threaded HTTP server mutates
the store from concurrent request handlers.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass, field

from ..faults import FAULTS, fault_point
from ..mdm import document_to_model, gold_schema
from ..mdm.errors import ModelError
from ..mdm.model import GoldModel
from ..obs.recorder import RECORDER as _REC
from ..xml.errors import XMLError
from ..xml.parser import parse as parse_xml
from ..xsd import validate as xsd_validate

__all__ = ["ModelRecord", "ModelStore", "ModelStoreError"]

_PARSE_FAULT = fault_point(
    "store.parse", "raise/delay/corrupt the uploaded bytes before the "
                   "ingestion parse (store.py)")
_PUT_FAULT = fault_point(
    "store.put", "raise/delay between a validated upload and the store "
                 "write (store.py)")

#: Model names are path segments; keep them trivially URL- and FS-safe.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ModelStoreError(Exception):
    """An upload was rejected; ``issues`` holds structured diagnostics.

    ``kind`` is one of ``"name"``, ``"parse"``, ``"schema"`` or
    ``"structure"`` — the ingestion stage that failed.  ``issues`` is a
    list of JSON-ready dicts (message/path/line/severity/code), the
    schema stage reusing the validator's instance-path diagnostics.
    """

    def __init__(self, kind: str, issues: list[dict]) -> None:
        summary = issues[0]["message"] if issues else kind
        super().__init__(f"{kind}: {summary}")
        self.kind = kind
        self.issues = issues


@dataclass(frozen=True)
class ModelRecord:
    """One stored model: canonical bytes plus the parsed object."""

    name: str
    xml_bytes: bytes
    content_hash: str
    model: GoldModel
    #: Monotonic per-name revision; bumped on every put, even no-ops.
    revision: int = 1

    @property
    def etag(self) -> str:
        """Strong ETag for the raw XML resource."""
        return f'"{self.content_hash}"'

    def summary(self) -> dict:
        """JSON-ready description for the listing endpoint."""
        return {
            "name": self.name,
            "model_id": self.model.id,
            "model_name": self.model.name,
            "content_hash": self.content_hash,
            "revision": self.revision,
            "bytes": len(self.xml_bytes),
            "facts": len(self.model.facts),
            "dimensions": len(self.model.dimensions),
        }


def _content_hash(xml_bytes: bytes) -> str:
    return hashlib.sha256(xml_bytes).hexdigest()


def _issue_dict(issue) -> dict:
    return {
        "message": issue.message,
        "path": issue.path,
        "line": issue.line,
        "column": issue.column,
        "severity": issue.severity,
        "code": issue.code,
    }


class ModelStore:
    """A thread-safe name → :class:`ModelRecord` map with ingestion."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[str, ModelRecord] = {}
        # The compiled goldmodel schema is immutable once built; share it
        # across uploads and threads (built lazily on first put).
        self._schema = None
        self._schema_lock = threading.Lock()

    # -- ingestion ---------------------------------------------------------

    def _gold_schema(self):
        if self._schema is None:
            with self._schema_lock:
                if self._schema is None:
                    self._schema = gold_schema()
        return self._schema

    def ingest(self, name: str, xml_bytes: bytes) -> GoldModel:
        """Run the validation pipeline without storing; returns the model."""
        if not NAME_RE.match(name):
            raise ModelStoreError("name", [{
                "message": f"invalid model name {name!r} "
                           "(expected [A-Za-z0-9._-], max 64 chars)",
                "path": "", "line": None, "column": None,
                "severity": "error", "code": "store-name"}])
        if FAULTS.enabled:
            # A corrupt fault mutates the bytes *before* the parse, so
            # the rejection path (400 + diagnostics) is what degrades.
            xml_bytes = FAULTS.hit(_PARSE_FAULT, xml_bytes)
        try:
            document = parse_xml(xml_bytes)
        except XMLError as exc:
            raise ModelStoreError("parse", [{
                "message": str(exc), "path": "", "line": None,
                "column": None, "severity": "error",
                "code": "xml-parse"}]) from exc
        report = xsd_validate(document, self._gold_schema())
        if not report.valid:
            raise ModelStoreError(
                "schema", [_issue_dict(issue) for issue in report.errors])
        try:
            return document_to_model(document)
        except ModelError as exc:
            raise ModelStoreError("structure", [{
                "message": str(exc), "path": "", "line": None,
                "column": None, "severity": "error",
                "code": "model-structure"}]) from exc

    # -- CRUD --------------------------------------------------------------

    def put(self, name: str, xml_bytes: bytes) -> tuple[ModelRecord, bool]:
        """Validate and store; returns ``(record, created)``.

        ``created`` is True for a new name, False for a replacement.
        Validation runs outside the store lock so concurrent uploads of
        distinct models validate in parallel.
        """
        model = self.ingest(name, xml_bytes)
        if FAULTS.enabled:
            # Fires between validation and the write — the window where
            # a crashed write must leave the previous record intact.
            FAULTS.hit(_PUT_FAULT)
        digest = _content_hash(xml_bytes)
        with self._lock:
            previous = self._records.get(name)
            record = ModelRecord(
                name=name, xml_bytes=bytes(xml_bytes), content_hash=digest,
                model=model,
                revision=previous.revision + 1 if previous else 1)
            self._records[name] = record
        if _REC.enabled:
            _REC.count("server.store.put")
        return record, previous is None

    def get(self, name: str) -> ModelRecord | None:
        """The current record for *name* (None when absent)."""
        with self._lock:
            return self._records.get(name)

    def delete(self, name: str) -> bool:
        """Remove *name*; returns True when it existed."""
        with self._lock:
            existed = self._records.pop(name, None) is not None
        if existed and _REC.enabled:
            _REC.count("server.store.delete")
        return existed

    def names(self) -> list[str]:
        """Stored model names, sorted."""
        with self._lock:
            return sorted(self._records)

    def listing(self) -> list[dict]:
        """JSON-ready summaries of every stored model, sorted by name."""
        with self._lock:
            records = sorted(self._records.values(), key=lambda r: r.name)
        return [record.summary() for record in records]
