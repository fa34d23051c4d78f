"""Incremental diff-driven republish (edit-heavy CASE-tool workload).

A cold multi-page publish renders every page of the site even though a
designer's edit typically touches one fact or dimension class.  This
module makes republish cost proportional to the edit:

1. :func:`publish_with_index` performs a cold publish with a
   :class:`~repro.xml.tracking.ReadTracker` installed, recording which
   *units* of the model document each page read.  Units are the designed
   partition of the goldmodel vocabulary — ``factclass`` / ``dimclass``
   / ``cubeclass`` / ``asoclevel`` / ``catlevel`` subtrees, keyed
   ``"tag#id"``; anything above them is the catch-all ``"model"`` unit.
   The page → units map is persisted as a :class:`DependencyIndex`
   alongside the build (a ``.goldcase-index.json`` dotfile on disk, an
   in-memory entry keyed by content hash in the server cache).

2. :func:`republish_incremental` compares the index's baseline model
   with the edited one, unit by unit, and re-renders only the pages
   whose recorded units intersect the dirty ones.  An index reloaded
   from its dotfile rebuilds that model from the XML it stored.  The
   render runs with a *page filter*: the engines skip the body of
   every clean ``xsl:document`` (while still recording its href), so
   the spine plus dirty pages are produced and every clean page reuses
   the previous build's bytes.

Byte-identity to a cold publish is the contract — proven continuously by
the ``incremental_differential`` testkit family — and every situation
the diff and the index cannot prove safe falls back to a full
(re-tracked) publish, counted under
``publish.incremental.fallback:reason=...``:

* ``index_version`` / ``stylesheet_mismatch`` — index from another
  format or stylesheet;
* ``baseline_mismatch`` — reused bytes on disk no longer hash to what
  the index recorded (someone edited the output directory);
* ``missing_page`` — the previous build lacks a page the index names;
* ``structural`` — a whole unit was added or removed (the page set
  itself changes);
* ``page_set_changed`` — the filtered render encountered a different
  set of ``xsl:document`` hrefs than the previous build (tracking
  soundness guard);
* ``error:<Type>`` — any unexpected failure during the attempt.

The ``publish.diff`` fault point fires at entry — *outside* the
graceful-fallback region — so the chaos harness can fail an incremental
rebuild outright and exercise the server's serve-stale degradation path.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import fields as dataclass_fields

from ..faults import FAULTS, fault_point
from ..mdm.errors import ModelError
from ..mdm.model import GoldModel
from ..mdm.xml_io import (
    _write_cube,
    _write_dimension,
    _write_fact,
    _write_level,
    document_to_model,
    model_to_document,
)
from ..xml.errors import XMLError
from ..xml.serializer import pretty_print
from ..obs.recorder import RECORDER as _REC
from ..xml import tracking as _tracking
from ..xml.dom import Document, Element
from ..xml.parser import parse as parse_xml
from .publisher import (
    DEFAULT_CSS,
    PROFILE_PAGE,
    Site,
    _attach_profile,
    publish_multi_page,
)
from .stylesheets import MULTI_PAGE_XSL

__all__ = ["DependencyIndex", "INDEX_FILENAME", "MODEL_UNIT", "UNIT_TAGS",
           "build_index", "classify_node", "publish_with_index",
           "republish_incremental"]

#: Dotfile written next to a published site holding the dependency index.
INDEX_FILENAME = ".goldcase-index.json"

INDEX_VERSION = 1

#: Element tags that root a dependency unit.  The nearest
#: ancestor-or-self unit wins (levels nest inside dimensions), so a read
#: of a level's subtree depends on the level, while a read of the
#: dimension's own attributes depends on the dimension.
UNIT_TAGS = frozenset(
    {"factclass", "dimclass", "cubeclass", "asoclevel", "catlevel"})

#: Catch-all unit for everything above the unit tags (the goldmodel
#: root, section containers, whole-document reads).
MODEL_UNIT = "model"

_DIFF_FAULT = fault_point(
    "publish.diff", "raise/delay at the entry of an incremental republish "
                    "(incremental.py)")

#: Guards DependencyIndex._take_baseline (ownership handover of the
#: baseline DOM); held for two attribute accesses, never during work.
_BASELINE_LOCK = threading.Lock()


def classify_node(node: object) -> str:
    """The dependency unit of a DOM node (nearest unit ancestor-or-self)."""
    current = node
    while current is not None:
        if getattr(current, "kind", None) == "element" and \
                current.name in UNIT_TAGS:
            identifier = current.get_attribute("id")
            if identifier is None:
                return MODEL_UNIT
            return f"{current.name}#{identifier}"
        current = current.parent
    return MODEL_UNIT


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DependencyIndex:
    """Page-level dependency index persisted alongside a build.

    The index holds the :class:`GoldModel` it was recorded for: the
    baseline the next edit is compared with.  Its DOM and its XML are
    caches, derived on first use — serializing or rebuilding the
    baseline eagerly would cost several times a warm publish per
    rebuild and erase the incremental speedup.
    """

    __slots__ = ("stylesheet_hash", "baseline_model", "pages", "page_names",
                 "page_hashes", "version", "_model_xml", "_baseline")

    def __init__(self, stylesheet_hash: str, baseline_model: GoldModel,
                 pages: dict[str, list[str]], page_names: list[str],
                 page_hashes: dict[str, str],
                 version: int = INDEX_VERSION, *,
                 baseline_document: Document | None = None,
                 model_xml: str | None = None) -> None:
        #: sha256 of the stylesheet text the build used.
        self.stylesheet_hash = stylesheet_hash
        #: the model the build was published from.
        self.baseline_model = baseline_model
        #: page name → sorted unit keys it read ("index.html" = spine).
        self.pages = pages
        #: every rendered html page of the build (includes index.html,
        #: excludes gold.css and the additive profile page).
        self.page_names = page_names
        #: page name → sha256 of its text, for verifying reused bytes.
        self.page_hashes = page_hashes
        self.version = version
        self._model_xml = model_xml
        self._baseline = baseline_document

    @property
    def model_xml(self) -> str:
        """The baseline model serialized to XML, derived on first use."""
        if self._model_xml is None:
            self._model_xml = pretty_print(
                model_to_document(self.baseline_model))
        return self._model_xml

    def baseline_document(self) -> Document:
        """The baseline model as a DOM, built at most once."""
        if self._baseline is None:
            self._baseline = model_to_document(self.baseline_model)
        return self._baseline

    def _take_baseline(self) -> Document | None:
        """Hand over the baseline DOM for in-place patching, at most once.

        The incremental republisher advances the baseline by swapping
        dirty subtrees directly in this document, after which it no
        longer represents *this* index's model — so ownership transfers
        atomically: the taker gets the document, the index keeps only
        its (immutable) model and lazily rebuilds a DOM if ever asked
        again.  Concurrent rebuilds from one index therefore never
        patch the same tree twice; the loser just pays a full build.
        """
        with _BASELINE_LOCK:
            document, self._baseline = self._baseline, None
            return document

    def to_json(self) -> str:
        return json.dumps({
            "format": "goldcase-dependency-index",
            "version": self.version,
            "stylesheet_hash": self.stylesheet_hash,
            "model_xml": self.model_xml,
            "pages": {name: sorted(units)
                      for name, units in self.pages.items()},
            "page_names": sorted(self.page_names),
            "page_hashes": self.page_hashes,
        }, indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "DependencyIndex":
        """Reload an index, rebuilding its baseline model from the XML.

        The pages on disk were rendered from the document of
        ``model_xml``, and a unit's subtree is a pure function of its
        model object, so the rebuilt model is a sound baseline only if
        it serializes back to exactly that XML.  Raises ValueError
        when ``model_xml`` does not parse, does not convert to a model,
        or does not re-serialize to itself, and when the page fields do
        not describe a site: ``page_names`` must name exactly the pages
        ``pages`` maps to unit lists, ``index.html`` among them.
        """
        data = json.loads(text)
        if not isinstance(data, dict) or \
                data.get("format") != "goldcase-dependency-index":
            raise ValueError("not a goldcase dependency index")
        if data.get("version") != INDEX_VERSION:
            raise ValueError(
                f"unsupported dependency-index version {data.get('version')!r}")
        pages = data.get("pages")
        page_names = data.get("page_names")
        page_hashes = data.get("page_hashes", {})  # may be partial
        if not (isinstance(data.get("stylesheet_hash"), str)
                and isinstance(pages, dict)
                and all(map(_strings, pages.values()))
                and _strings(page_names) and "index.html" in page_names
                and sorted(page_names) == sorted(pages)
                and isinstance(page_hashes, dict)
                and all(isinstance(h, str) for h in page_hashes.values())):
            raise ValueError("the page fields do not describe a site")
        model_xml = data.get("model_xml")
        if not isinstance(model_xml, str):
            raise ValueError("model_xml is not a string")
        try:
            model = document_to_model(parse_xml(model_xml))
        except (XMLError, ModelError) as exc:
            raise ValueError(f"model_xml is not a goldmodel: {exc}") from exc
        if pretty_print(model_to_document(model)) != model_xml:
            raise ValueError("model_xml does not re-serialize to itself")
        return cls(stylesheet_hash=data["stylesheet_hash"],
                   baseline_model=model, pages=pages,
                   page_names=page_names, page_hashes=page_hashes,
                   version=data["version"], model_xml=model_xml)


def _strings(value: object) -> bool:
    """True when *value* is a JSON list of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


class _Fallback(Exception):
    """Internal: abandon the incremental attempt for a counted reason."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _page_units(tracker: "_tracking.ReadTracker", name: str) -> list[str]:
    """The sorted units page *name* read during a tracked render."""
    units = tracker.deps.get("" if name == "index.html" else name)
    # A page with no recorded reads can never be dirtied; depend on the
    # catch-all unit so it is conservatively always republished.
    return sorted(units) if units else [MODEL_UNIT]


def build_index(tracker: "_tracking.ReadTracker", page_names: list[str],
                page_hashes: dict[str, str], *, stylesheet: str,
                baseline_model: GoldModel,
                baseline_document: Document | None = None
                ) -> DependencyIndex:
    """Assemble a :class:`DependencyIndex` from a tracked publish.

    ``page_names`` are the rendered html pages; ``page_hashes`` their
    unquoted sha256 text hashes (the server derives them from its
    ETags).  ``baseline_model`` is what the next edit is compared with.
    Used by :func:`publish_with_index` and by the server cache, which
    tracks its full builds itself around its own build function.
    """
    return DependencyIndex(
        stylesheet_hash=_hash_text(stylesheet),
        baseline_model=baseline_model,
        pages={name: _page_units(tracker, name) for name in page_names},
        page_names=sorted(page_names),
        page_hashes=dict(page_hashes),
        baseline_document=baseline_document,
    )


def publish_with_index(model: GoldModel, *,
                       stylesheet: str = MULTI_PAGE_XSL
                       ) -> tuple[Site, DependencyIndex]:
    """Cold multi-page publish that also records a dependency index."""
    tracker = _tracking.ReadTracker(classify_node)
    with _REC.span("publish.with_index", model=model.name):
        # Build the DOM outside the tracked render and keep it on the
        # index: the next incremental republish patches it in place
        # instead of rebuilding the whole document.
        document = model_to_document(model)
        with _tracking.installed(tracker):
            site = publish_multi_page(model, stylesheet=stylesheet,
                                      document=document)
        page_names = [name for name in site.pages
                      if name.endswith(".html") and name != PROFILE_PAGE]
        index = build_index(
            tracker, page_names,
            {name: _hash_text(site.pages[name]) for name in page_names},
            stylesheet=stylesheet, baseline_model=model,
            baseline_document=document)
    return site, index


def republish_incremental(model: GoldModel,
                          previous_pages: dict[str, str],
                          index: DependencyIndex, *,
                          stylesheet: str = MULTI_PAGE_XSL,
                          verify_pages: bool = False
                          ) -> tuple[Site, DependencyIndex, dict]:
    """Republish *model*, reusing previous bytes for unaffected pages.

    ``previous_pages`` is the previous build (page name → text) and
    *index* its dependency index.  Returns ``(site, new_index, info)``
    where ``info["mode"]`` is ``"reuse"`` (no effective change — every
    byte reused), ``"incremental"`` (spine + dirty pages re-rendered) or
    ``"full"`` (fell back to a cold tracked publish;
    ``info["reason"]`` says why).  With ``verify_pages`` the reused
    bytes are hash-checked against the index first (for builds reloaded
    from disk).

    The ``publish.diff`` fault point fires at entry, before the
    graceful-fallback region: an injected fault fails the republish
    outright (the server's serve-stale degradation covers it) instead of
    silently degrading to a full publish.
    """
    if FAULTS.enabled:
        FAULTS.hit(_DIFF_FAULT)
    with _REC.span("publish.incremental", model=model.name):
        try:
            return _attempt(model, previous_pages, index, stylesheet,
                            verify_pages)
        except _Fallback as exc:
            reason = exc.reason
        except Exception as exc:  # noqa: BLE001 — counted, then full publish
            reason = f"error:{type(exc).__name__}"
        if _REC.enabled:
            _REC.count(f"publish.incremental.fallback:reason={reason}")
        site, new_index = publish_with_index(model, stylesheet=stylesheet)
        info = {"mode": "full", "reason": reason,
                "pages_rebuilt": len(new_index.page_names),
                "pages_reused": 0}
        return site, new_index, info


def _attempt(model: GoldModel, previous_pages: dict[str, str],
             index: DependencyIndex, stylesheet: str,
             verify_pages: bool) -> tuple[Site, DependencyIndex, dict]:
    if index.version != INDEX_VERSION:
        raise _Fallback("index_version")
    if index.stylesheet_hash != _hash_text(stylesheet):
        raise _Fallback("stylesheet_mismatch")
    for name in index.page_names:
        if name not in previous_pages:
            raise _Fallback("missing_page")
    if verify_pages:
        for name in index.page_names:
            recorded = index.page_hashes.get(name)
            if recorded is None or \
                    _hash_text(previous_pages[name]) != recorded:
                raise _Fallback("baseline_mismatch")

    with _REC.span("publish.diff"):
        dirty_units = _dirty_units_from_models(index.baseline_model, model)
    if not dirty_units:
        return _reuse_everything(previous_pages, index)
    new_document = None
    if MODEL_UNIT not in dirty_units:
        # Every change lives inside unit subtrees, so the new DOM is the
        # baseline DOM with just those subtrees regenerated.  Ownership
        # of the baseline transfers here (_take_baseline); without a
        # materialized baseline the full build below runs.
        base = index._take_baseline()
        if base is not None:
            new_document = _patch_document(base, model, dirty_units)
    if new_document is None:
        new_document = model_to_document(model)

    dirty_pages = {
        name for name in index.page_names
        if name != "index.html" and
        (dirty_units & set(index.pages.get(name) or [MODEL_UNIT]))
    }

    tracker = _tracking.ReadTracker(classify_node, page_filter=dirty_pages)
    with _tracking.installed(tracker):
        partial = publish_multi_page(model, stylesheet=stylesheet,
                                     document=new_document)

    previous_secondary = {n for n in index.page_names if n != "index.html"}
    if set(tracker.encountered) != previous_secondary:
        raise _Fallback("page_set_changed")

    site = Site(messages=list(partial.messages))
    pages: dict[str, list[str]] = {}
    page_hashes: dict[str, str] = {}
    reused = 0
    for name in index.page_names:
        if name == "index.html" or name in dirty_pages:
            site.pages[name] = partial.pages[name]
            pages[name] = _page_units(tracker, name)
            page_hashes[name] = _hash_text(site.pages[name])
        else:
            site.pages[name] = previous_pages[name]
            reused += 1
            pages[name] = list(index.pages.get(name) or [MODEL_UNIT])
            # Reused bytes keep their recorded hash (when the old index
            # has none — e.g. hand-edited dotfile — hash them now).
            recorded = index.page_hashes.get(name)
            page_hashes[name] = recorded if recorded is not None else \
                _hash_text(site.pages[name])
    site.pages["gold.css"] = DEFAULT_CSS
    if _REC.enabled:
        _attach_profile(site)

    new_index = DependencyIndex(
        stylesheet_hash=index.stylesheet_hash,
        baseline_model=model,
        pages=pages,
        page_names=list(index.page_names),
        page_hashes=page_hashes,
        baseline_document=new_document,
    )
    if _REC.enabled:
        _REC.count("publish.incremental.pages_rebuilt",
                   1 + len(dirty_pages))
        _REC.count("publish.incremental.pages_reused", reused)
    info = {"mode": "incremental", "reason": None,
            "pages_rebuilt": 1 + len(dirty_pages), "pages_reused": reused,
            "dirty_units": sorted(dirty_units)}
    return site, new_index, info


def _reuse_everything(previous_pages: dict[str, str],
                      index: DependencyIndex
                      ) -> tuple[Site, DependencyIndex, dict]:
    site = Site()
    for name in index.page_names:
        site.pages[name] = previous_pages[name]
    site.pages["gold.css"] = DEFAULT_CSS
    if _REC.enabled:
        _attach_profile(site)
        _REC.count("publish.incremental.pages_reused",
                   len(index.page_names))
    info = {"mode": "reuse", "reason": None, "pages_rebuilt": 0,
            "pages_reused": len(index.page_names)}
    return site, index, info


#: Model fields whose contents are covered by finer-grained units below.
_MODEL_NESTED = frozenset({"facts", "dimensions", "cubes"})
_DIM_NESTED = frozenset({"levels", "categorization_levels"})


def _own_fields_differ(old: object, new: object,
                       nested: frozenset[str]) -> bool:
    """Dataclass inequality restricted to the fields outside *nested*."""
    return any(getattr(old, spec.name) != getattr(new, spec.name)
               for spec in dataclass_fields(old)
               if spec.name not in nested)


def _changed_units(old_items: list, new_items: list, container: str,
                   dirty: set[str]) -> list[tuple]:
    """The ``(old, new)`` pairs of same-id units that differ.

    A changed id set (or a duplicate id) changes the page set itself:
    the ``structural`` fallback.  Same-id units in another order dirty
    *container*, the unit their container element classifies to.
    """
    old_map = {item.id: item for item in old_items}
    new_map = {item.id: item for item in new_items}
    if set(old_map) != set(new_map) or len(old_map) != len(old_items) \
            or len(new_map) != len(new_items):
        raise _Fallback("structural")
    if [item.id for item in old_items] != [item.id for item in new_items]:
        dirty.add(container)
    return [(old_map[key], item) for key, item in new_map.items()
            if old_map[key] is not item and old_map[key] != item]


def _dirty_units_from_models(old: GoldModel, new: GoldModel) -> set[str]:
    """The units whose document subtree may differ between two models.

    Sound because each unit's subtree is a pure function of its
    dataclass: dataclass inequality over-approximates subtree
    inequality, so a unit can be over-dirtied (e.g. a field the
    serializer normalizes away), which costs a rebuild, but never
    under-dirtied, which would leave a stale byte.
    """
    dirty: set[str] = set()
    if _own_fields_differ(old, new, _MODEL_NESTED):
        dirty.add(MODEL_UNIT)
    for tag, old_items, new_items in (("factclass", old.facts, new.facts),
                                      ("cubeclass", old.cubes, new.cubes)):
        for _, item in _changed_units(old_items, new_items, MODEL_UNIT,
                                      dirty):
            dirty.add(f"{tag}#{item.id}")
    for old_dim, new_dim in _changed_units(old.dimensions, new.dimensions,
                                           MODEL_UNIT, dirty):
        unit = f"dimclass#{new_dim.id}"
        if _own_fields_differ(old_dim, new_dim, _DIM_NESTED):
            dirty.add(unit)
        # Levels are units nested inside the dimension's subtree: the
        # level containers (asoclevels/catlevels) classify to the
        # dimension, the level elements to themselves.
        for tag, old_levels, new_levels in (
                ("asoclevel", old_dim.levels, new_dim.levels),
                ("catlevel", old_dim.categorization_levels,
                 new_dim.categorization_levels)):
            for _, level in _changed_units(old_levels, new_levels, unit,
                                           dirty):
                dirty.add(f"{tag}#{level.id}")
    return dirty


def _patch_document(document: Document, model: GoldModel,
                    dirty: set[str]) -> Document | None:
    """The edited model's DOM, by swapping regenerated *dirty* subtrees
    into the (consumed) baseline DOM.

    Only valid when ``MODEL_UNIT`` is not dirty: the spine — root
    attributes, section containers, sibling order — is then identical
    between baseline and edited model, and each unit subtree is a pure
    function of its model object, so regenerating just the dirty ones
    yields exactly ``model_to_document(model)``.  Returns None (caller
    rebuilds from scratch) when a unit key is ambiguous — the same
    ``tag#id`` on two model objects or two document elements — or
    cannot be located at all.  No mutation happens before every target
    has been resolved, so a bailout never leaves a half-patched tree.
    """
    builders: dict[tuple[str, str], list] = {}
    for fact in model.facts:
        builders.setdefault(("factclass", fact.id), []).append(
            lambda fact=fact: _write_fact(fact))
    for cube in model.cubes:
        builders.setdefault(("cubeclass", cube.id), []).append(
            lambda cube=cube: _write_cube(cube))
    for dim in model.dimensions:
        builders.setdefault(("dimclass", dim.id), []).append(
            lambda dim=dim: _write_dimension(dim))
        for tag, levels in (("asoclevel", dim.levels),
                            ("catlevel", dim.categorization_levels)):
            for level in levels:
                builders.setdefault((tag, level.id), []).append(
                    lambda level=level, tag=tag: _write_level(level, tag))

    wanted = {}
    for unit in dirty:
        tag, _, identifier = unit.partition("#")
        thunks = builders.get((tag, identifier))
        if thunks is None or len(thunks) != 1:
            return None
        wanted[(tag, identifier)] = thunks[0]

    found: dict[tuple[str, str], Element] = {}
    stack = list(document.children)
    while stack:
        node = stack.pop()
        if isinstance(node, Element):
            key = (node.name, node.get_attribute("id"))
            if key in wanted:
                if key in found:
                    return None
                found[key] = node
            stack.extend(node.children)
    if len(found) != len(wanted):
        return None

    # A dirty level inside a dirty dimension is covered twice: the
    # regenerated dimension subtree already carries the new level, and
    # the level's own swap then lands in the detached old subtree —
    # wasted but harmless, so replacement order does not matter.
    for key, thunk in wanted.items():
        old_element = found[key]
        parent = old_element.parent
        parent.insert_before(thunk(), old_element)
        parent.remove_child(old_element)
    return document
