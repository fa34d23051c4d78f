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

2. :func:`republish_incremental` diffs the stored baseline document
   against the edited model (:mod:`repro.xml.diff`), classifies the
   changed elements into dirty units, and re-renders only the pages
   whose recorded units intersect them.  The render runs with a *page
   filter*: the engines skip the body of every clean ``xsl:document``
   (while still recording its href), so the spine plus dirty pages are
   produced and every clean page reuses the previous build's bytes.

Byte-identity to a cold publish is the contract — proven continuously by
the ``incremental_differential`` testkit family — and every situation
the diff/index machinery cannot prove safe falls back to a full
(re-tracked) publish, counted under
``publish.incremental.fallback:reason=...``:

* ``index_version`` / ``stylesheet_mismatch`` — index from another
  format or stylesheet;
* ``baseline_mismatch`` — reused bytes on disk no longer hash to what
  the index recorded (someone edited the output directory);
* ``missing_page`` — the previous build lacks a page the index names;
* ``structural`` — a whole unit was added or removed (the page set
  itself changes);
* ``diff_error`` — the documents cannot be diffed;
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
from ..mdm.model import GoldModel
from ..mdm.xml_io import (
    _write_cube,
    _write_dimension,
    _write_fact,
    _write_level,
    model_to_document,
)
from ..xml.serializer import pretty_print
from ..obs.recorder import RECORDER as _REC
from ..xml import tracking as _tracking
from ..xml.diff import DiffError, DocumentDiff, diff_documents
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

    The baseline the next edit diffs against is carried in whichever
    form the producer already holds — the :class:`GoldModel` itself
    (server steady state), the baseline DOM, or the serialized XML (an
    index reloaded from the dotfile) — and each of the other forms is
    derived lazily and cached.  Serializing or parsing the baseline
    eagerly would cost several times a warm publish per rebuild and
    erase the incremental speedup.
    """

    __slots__ = ("stylesheet_hash", "pages", "page_names", "page_hashes",
                 "version", "_model_xml", "_baseline", "_baseline_model")

    def __init__(self, stylesheet_hash: str, model_xml: str | None = None,
                 pages: dict[str, list[str]] | None = None,
                 page_names: list[str] | None = None,
                 page_hashes: dict[str, str] | None = None,
                 version: int = INDEX_VERSION, *,
                 baseline_document: Document | None = None,
                 baseline_model: GoldModel | None = None) -> None:
        if model_xml is None and baseline_model is None:
            raise ValueError(
                "DependencyIndex needs model_xml or baseline_model")
        #: sha256 of the stylesheet text the build used.
        self.stylesheet_hash = stylesheet_hash
        #: page name → sorted unit keys it read ("index.html" = spine).
        self.pages = pages if pages is not None else {}
        #: every rendered html page of the build (includes index.html,
        #: excludes gold.css and the additive profile page).
        self.page_names = page_names if page_names is not None else []
        #: page name → sha256 of its text, for verifying reused bytes.
        self.page_hashes = page_hashes if page_hashes is not None else {}
        self.version = version
        self._model_xml = model_xml
        self._baseline = baseline_document
        self._baseline_model = baseline_model

    @property
    def model_xml(self) -> str:
        """The baseline model serialized to XML, derived on first use."""
        if self._model_xml is None:
            self._model_xml = pretty_print(
                model_to_document(self._baseline_model))
        return self._model_xml

    @property
    def content_hash(self) -> str:
        """Identity of the baseline model this index was recorded for."""
        return _hash_text(self.model_xml)

    def baseline_document(self) -> Document:
        """The baseline model as a DOM, parsed or rebuilt at most once."""
        if self._baseline is None:
            if self._baseline_model is not None:
                self._baseline = model_to_document(self._baseline_model)
            else:
                self._baseline = parse_xml(self.model_xml)
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
        data = json.loads(text)
        if not isinstance(data, dict) or \
                data.get("format") != "goldcase-dependency-index":
            raise ValueError("not a goldcase dependency index")
        if data.get("version") != INDEX_VERSION:
            raise ValueError(
                f"unsupported dependency-index version {data.get('version')!r}")
        return cls(
            stylesheet_hash=data["stylesheet_hash"],
            model_xml=data["model_xml"],
            pages={name: list(units)
                   for name, units in data["pages"].items()},
            page_names=list(data["page_names"]),
            page_hashes=dict(data.get("page_hashes", {})),
            version=data["version"],
        )


class _Fallback(Exception):
    """Internal: abandon the incremental attempt for a counted reason."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _contains_unit(element: Element) -> bool:
    """True when *element* is, or contains, a whole dependency unit."""
    stack = [element]
    while stack:
        node = stack.pop()
        if node.name in UNIT_TAGS:
            return True
        stack.extend(c for c in node.children if isinstance(c, Element))
    return False


def build_index(tracker: "_tracking.ReadTracker", page_names: list[str],
                page_hashes: dict[str, str], *, stylesheet: str,
                baseline_model: GoldModel,
                baseline_document: Document | None = None,
                model_xml: str | None = None) -> DependencyIndex:
    """Assemble a :class:`DependencyIndex` from a tracked publish.

    ``page_names`` are the rendered html pages; ``page_hashes`` their
    unquoted sha256 text hashes (the server derives them from its
    ETags).  ``baseline_model`` is what the next edit diffs against;
    its XML serialization is derived lazily when needed.  Used by
    :func:`publish_with_index` and by the server cache, which tracks its
    full builds itself around its own build function.
    """
    pages: dict[str, list[str]] = {}
    for name in page_names:
        key = "" if name == "index.html" else name
        units = tracker.deps.get(key)
        # A page with no recorded reads can never be dirtied; depend on
        # the catch-all unit so it is conservatively always republished.
        pages[name] = sorted(units) if units else [MODEL_UNIT]
    return DependencyIndex(
        stylesheet_hash=_hash_text(stylesheet),
        model_xml=model_xml,
        pages=pages,
        page_names=sorted(page_names),
        page_hashes=dict(page_hashes),
        baseline_document=baseline_document,
        baseline_model=baseline_model,
    )


def _index_from_tracker(tracker: "_tracking.ReadTracker", site: Site,
                        stylesheet: str, baseline_model: GoldModel,
                        baseline_document: Document | None = None
                        ) -> DependencyIndex:
    page_names = sorted(name for name in site.pages
                        if name.endswith(".html") and name != PROFILE_PAGE)
    return build_index(
        tracker, page_names,
        {name: _hash_text(site.pages[name]) for name in page_names},
        stylesheet=stylesheet, baseline_model=baseline_model,
        baseline_document=baseline_document)


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
        index = _index_from_tracker(tracker, site, stylesheet, model,
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
        except DiffError:
            reason = "diff_error"
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

    baseline_model = index._baseline_model
    if baseline_model is not None:
        # Fast path (server steady state): diff the models directly at
        # unit granularity — each unit's document subtree is a pure
        # function of its dataclass, so dataclass inequality
        # over-approximates subtree inequality (sound, never under-dirty).
        new_document = None
        with _REC.span("publish.diff"):
            dirty_units = _dirty_units_from_models(baseline_model, model)
        if not dirty_units:
            return _reuse_everything(previous_pages, index)
        if MODEL_UNIT not in dirty_units:
            # Every change lives inside unit subtrees, so the new DOM is
            # the baseline DOM with just those subtrees regenerated.
            # Ownership of the baseline transfers here (_take_baseline);
            # without a materialized baseline the full build below runs.
            base = index._take_baseline()
            if base is not None:
                new_document = _patch_document(base, model, dirty_units)
        if new_document is None:
            new_document = model_to_document(model)
    else:
        # Slow path (index reloaded from the dotfile): diff the model
        # documents themselves.
        new_document = model_to_document(model)
        if pretty_print(new_document) == index.model_xml:
            return _reuse_everything(previous_pages, index)
        old_document = index.baseline_document()
        with _REC.span("publish.diff"):
            diff = diff_documents(old_document, new_document)
        if diff.is_empty:
            return _reuse_everything(previous_pages, index)
        dirty_units = _dirty_units(diff)

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
    reused = 0
    for name in index.page_names:
        if name == "index.html" or name in dirty_pages:
            site.pages[name] = partial.pages[name]
        else:
            site.pages[name] = previous_pages[name]
            reused += 1
    site.pages["gold.css"] = DEFAULT_CSS
    if _REC.enabled:
        _attach_profile(site)

    pages: dict[str, list[str]] = {}
    page_hashes: dict[str, str] = {}
    for name in index.page_names:
        if name == "index.html" or name in dirty_pages:
            key = "" if name == "index.html" else name
            units = tracker.deps.get(key)
            pages[name] = sorted(units) if units else [MODEL_UNIT]
            page_hashes[name] = _hash_text(site.pages[name])
        else:
            pages[name] = list(index.pages.get(name) or [MODEL_UNIT])
            # Reused bytes keep their recorded hash (when the old index
            # has none — e.g. hand-edited dotfile — hash them now).
            recorded = index.page_hashes.get(name)
            page_hashes[name] = recorded if recorded is not None else \
                _hash_text(site.pages[name])
    new_index = DependencyIndex(
        stylesheet_hash=index.stylesheet_hash,
        pages=pages,
        page_names=list(index.page_names),
        page_hashes=page_hashes,
        baseline_document=new_document,
        baseline_model=model,
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


def _dirty_units(diff: DocumentDiff) -> set[str]:
    """Classify diff records into dirty units; whole-unit addition or
    removal changes the page set itself → structural fallback."""
    dirty: set[str] = set()
    for record in diff.added + diff.removed:
        if _contains_unit(record.element):
            raise _Fallback("structural")
        dirty.add(classify_node(record.element))
    for record in diff.changed:
        dirty.add(classify_node(record.element))
    return dirty


#: Model fields whose contents are covered by finer-grained units below.
_MODEL_NESTED = frozenset({"facts", "dimensions", "cubes"})
_DIM_NESTED = frozenset({"levels", "categorization_levels"})


def _own_fields_differ(old: object, new: object,
                       nested: frozenset[str]) -> bool:
    """Dataclass inequality restricted to the fields outside *nested*."""
    return any(getattr(old, spec.name) != getattr(new, spec.name)
               for spec in dataclass_fields(old)
               if spec.name not in nested)


def _diff_keyed_units(tag: str, old_items: list, new_items: list,
                      dirty: set[str]) -> None:
    """Mirror of the document diff over one unit collection: id-set
    changes are structural, same-id reorders dirty the container's unit
    (the model), same-id inequality dirties that unit."""
    old_map = {item.id: item for item in old_items}
    new_map = {item.id: item for item in new_items}
    if set(old_map) != set(new_map) or len(old_map) != len(old_items) \
            or len(new_map) != len(new_items):
        raise _Fallback("structural")
    if [item.id for item in old_items] != [item.id for item in new_items]:
        dirty.add(MODEL_UNIT)
    for key, item in new_map.items():
        if old_map[key] != item:
            dirty.add(f"{tag}#{key}")


def _dirty_units_from_models(old: GoldModel, new: GoldModel) -> set[str]:
    """Dirty units straight from the model dataclasses (no DOM, no
    parse).  Equivalent to ``_dirty_units(diff_documents(...))`` because
    each unit's document subtree is a pure function of its dataclass;
    where the two disagree this one only *over*-dirties (e.g. a field
    the serializer normalizes away), which costs a rebuild, never a
    stale byte."""
    dirty: set[str] = set()
    if _own_fields_differ(old, new, _MODEL_NESTED):
        dirty.add(MODEL_UNIT)
    _diff_keyed_units("factclass", old.facts, new.facts, dirty)
    _diff_keyed_units("cubeclass", old.cubes, new.cubes, dirty)

    old_dims = {dim.id: dim for dim in old.dimensions}
    new_dims = {dim.id: dim for dim in new.dimensions}
    if set(old_dims) != set(new_dims) or \
            len(old_dims) != len(old.dimensions) or \
            len(new_dims) != len(new.dimensions):
        raise _Fallback("structural")
    if [d.id for d in old.dimensions] != [d.id for d in new.dimensions]:
        dirty.add(MODEL_UNIT)
    for key, new_dim in new_dims.items():
        old_dim = old_dims[key]
        if old_dim is new_dim or old_dim == new_dim:
            continue
        if _own_fields_differ(old_dim, new_dim, _DIM_NESTED):
            dirty.add(f"dimclass#{key}")
        # Levels are units nested inside the dimension's subtree: the
        # level containers (asoclevels/catlevels) classify to the
        # dimension, the level elements to themselves.
        for tag, old_levels, new_levels in (
                ("asoclevel", old_dim.levels, new_dim.levels),
                ("catlevel", old_dim.categorization_levels,
                 new_dim.categorization_levels)):
            old_map = {lvl.id: lvl for lvl in old_levels}
            new_map = {lvl.id: lvl for lvl in new_levels}
            if set(old_map) != set(new_map) or \
                    len(old_map) != len(old_levels) or \
                    len(new_map) != len(new_levels):
                raise _Fallback("structural")
            if [lvl.id for lvl in old_levels] != \
                    [lvl.id for lvl in new_levels]:
                dirty.add(f"dimclass#{key}")
            for level_id, level in new_map.items():
                if old_map[level_id] != level:
                    dirty.add(f"{tag}#{level_id}")
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
