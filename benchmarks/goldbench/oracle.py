"""Offline correctness oracles, computed outside the measured window.

* :class:`SiteVersions` holds the expected SHA-256 of every page of every
  model version a run uploads.  Version 0 comes from a cold
  ``publish_multi_page`` of the upload bytes, cross-checked against
  ``publish_with_index``; each edit version comes from the
  ``republish_incremental`` chain (byte-identical to a cold publish by
  contract).  It also picks, per edit, a page the edit changed.
* :class:`OlapOracle` answers each query in-process: the dataset from an
  :class:`~repro.olap.service.OlapService` with the server's default
  ``DatasetConfig``, then the service's own execute path (engine,
  payload, JSON rendering; the XML rendering is skipped, as only JSON
  bodies are requested).
"""

from __future__ import annotations

import hashlib
import random

from repro.mdm import model_to_xml, xml_to_model
from repro.olap.engine import CubeEngine
from repro.olap.service import DatasetConfig, OlapService
from repro.olap.service import parse_query, resolve_query
from repro.olap.service.render import render_json, result_payload
from repro.web.incremental import publish_with_index, republish_incremental
from repro.web.publisher import publish_multi_page

from inputs import MODEL_NAME, as_url_params


class OracleError(Exception):
    """The offline references disagree with each other."""


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hashes(pages: dict[str, str]) -> dict[str, str]:
    return {name: sha(text.encode("utf-8")) for name, text in pages.items()}


class SiteVersions:
    """Expected page hashes for version 0 and every edit after it."""

    def __init__(self, xml: bytes, seed: int) -> None:
        self.xml = [xml]
        self.models = [xml_to_model(xml)]
        cold = publish_multi_page(self.models[0]).pages
        site, self._index = publish_with_index(self.models[0])
        if site.pages != cold:
            raise OracleError("publish_with_index differs from a cold "
                              "publish_multi_page")
        self._pages = dict(site.pages)
        self.hashes = [_hashes(self._pages)]
        #: Per version >= 1: the page the edit changed that gets read.
        self.dirtied: list[str | None] = [None]
        self._rng = random.Random(f"goldbench:dirtied:{seed}")

    @property
    def pages(self) -> list[str]:
        return sorted(self.hashes[0])

    def add(self, model) -> int:
        """Append the version *model*; returns its number."""
        site, self._index, _ = republish_incremental(
            model, self._pages, self._index)
        self._pages = dict(site.pages)
        hashes = _hashes(self._pages)
        changed = sorted(name for name, digest in hashes.items()
                         if self.hashes[-1].get(name) != digest)
        if not changed:
            raise OracleError(f"edit {len(self.hashes)} changed no page")
        secondary = [name for name in changed if name != "index.html"]
        self.xml.append(model_to_xml(model).encode("utf-8"))
        self.models.append(model)
        self.hashes.append(hashes)
        self.dirtied.append(self._rng.choice(secondary or changed))
        return len(self.hashes) - 1

    def accepts(self, page: str, digest: str, low: int, high: int) -> bool:
        """True when *digest* is *page* at some version in [low, high]."""
        return any(self.hashes[v].get(page) == digest
                   for v in range(low, high + 1))


class OlapOracle:
    """Expected JSON bodies from an in-process query service."""

    def __init__(self) -> None:
        self.service = OlapService(dataset=DatasetConfig())
        self._memo: dict[tuple[str, str], str] = {}

    def expected_sha(self, xml: bytes, model, params: dict) -> str:
        content_hash = sha(xml)
        spec = resolve_query(parse_query(as_url_params(params)), model)
        key = (content_hash, spec.query_key())
        if key not in self._memo:
            star = self.service.star_for(MODEL_NAME, content_hash, model,
                                         spec.seed)
            result = CubeEngine(star).execute(spec.to_cube(model))
            payload = result_payload(model, content_hash, spec, result,
                                     dataset=star.summary())
            self._memo[key] = sha(render_json(payload))
        return self._memo[key]
