"""Incremental republish is byte-identical to cold publish (DESIGN §14).

The contract under test: for *any* reachable edit, republishing through
the diff/dependency-index path produces exactly the bytes a cold publish
of the edited model would — whether the edit dirties one page, every
page, or forces a full-publish fallback.  Hypothesis drives the general
sweep with the testkit's edit-script generator; the deterministic tests
pin the adversarial shapes (rename-and-rename-back, delete-then-recreate
under the same id, shared-dimension edits, structural unit changes).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.mdm import (
    document_to_model,
    model_to_document,
    sales_model,
)
from repro.testkit.differential import incremental_differential
from repro.testkit.strategies import gold_models, model_edit_scripts
from repro.web.incremental import (
    publish_with_index,
    republish_incremental,
)
from repro.web.publisher import publish_multi_page

_MODELS = gold_models(max_facts=2, max_dimensions=2, max_levels=2)


def _edited(model, mutate):
    """A new model: serialize, apply *mutate* to the root element, parse."""
    document = model_to_document(model)
    mutate(document.root_element)
    return document_to_model(document)


def _assert_cold_identical(site, model):
    assert site.pages == publish_multi_page(model).pages


@settings(max_examples=10, deadline=None)
@given(_MODELS, model_edit_scripts(max_size=5))
def test_random_edit_scripts_are_byte_identical(model, edits):
    assert incremental_differential(model, edits) == []


def test_tracked_publish_matches_plain_publish():
    model = sales_model()
    site, index = publish_with_index(model)
    assert site.pages == publish_multi_page(model).pages
    assert "index.html" in index.page_names
    assert all(units for units in index.pages.values())


def test_identity_edit_reuses_every_page():
    model = sales_model()
    site, index = publish_with_index(model)
    new_site, new_index, info = republish_incremental(
        model, dict(site.pages), index)
    assert info["mode"] == "reuse"
    assert info["pages_rebuilt"] == 0
    assert new_site.pages == site.pages
    assert new_index is index


def test_single_fact_edit_rebuilds_few_pages():
    model = sales_model()
    site, index = publish_with_index(model)

    def rename_fact(root):
        fact = root.find("factclasses").find_all("factclass")[0]
        fact.set_attribute("name", "Renamed Sales Fact")

    edited = _edited(model, rename_fact)
    new_site, _, info = republish_incremental(edited, dict(site.pages), index)
    assert info["mode"] == "incremental"
    assert info["pages_reused"] > 0
    _assert_cold_identical(new_site, edited)


def test_shared_dimension_rename_dirties_referencing_pages():
    """A dimension read by fact, cube, and level pages dirties them all —
    and only them."""
    model = sales_model()
    site, index = publish_with_index(model)

    def rename_dim(root):
        dim = root.find("dimclasses").find_all("dimclass")[0]
        dim.set_attribute("name", "Renamed Shared Dimension")

    edited = _edited(model, rename_dim)
    new_site, _, info = republish_incremental(edited, dict(site.pages), index)
    assert info["mode"] == "incremental"
    # The spine plus several referencing pages rebuild, but not the site.
    assert 2 < info["pages_rebuilt"] < len(index.page_names)
    _assert_cold_identical(new_site, edited)


def test_rename_then_rename_back_restores_original_bytes():
    model = sales_model()
    site, index = publish_with_index(model)
    original_pages = dict(site.pages)

    def rename(value):
        def mutate(root):
            dim = root.find("dimclasses").find_all("dimclass")[0]
            dim.set_attribute("name", value)
        return mutate

    old_name = model.dimensions[0].name
    renamed = _edited(model, rename("Temporarily Renamed"))
    mid_site, index, info = republish_incremental(
        renamed, original_pages, index)
    assert info["mode"] == "incremental"
    restored = _edited(renamed, rename(old_name))
    final_site, _, info = republish_incremental(
        restored, dict(mid_site.pages), index)
    assert info["mode"] == "incremental"
    assert final_site.pages == original_pages


def test_delete_then_recreate_same_id_converges():
    """Dropping a measure and recreating it under the same id (with
    different content) must publish the recreated version, not resurrect
    stale bytes."""
    model = sales_model()
    site, index = publish_with_index(model)
    fact_element = model_to_document(model).root_element \
        .find("factclasses").find_all("factclass")[0]
    atts = fact_element.find("factatts").find_all("factatt")
    victim_id = atts[-1].get_attribute("id")

    def drop(root):
        container = root.find("factclasses").find_all("factclass")[0] \
            .find("factatts")
        target = next(e for e in container.find_all("factatt")
                      if e.get_attribute("id") == victim_id)
        container.remove_child(target)

    dropped = _edited(model, drop)
    mid_site, index, _ = republish_incremental(
        dropped, dict(site.pages), index)
    _assert_cold_identical(mid_site, dropped)

    def recreate(root):
        from repro.xml.dom import Element

        container = root.find("factclasses").find_all("factclass")[0] \
            .find("factatts")
        att = Element("factatt")
        att.set_attribute("id", victim_id)
        att.set_attribute("name", "Recreated Under Same Id")
        att.set_attribute("type", "Number")
        att.set_attribute("isoid", "no")
        att.set_attribute("isderived", "no")
        att.set_attribute("atomic", "yes")
        container.append_child(att)

    recreated = _edited(dropped, recreate)
    final_site, _, _ = republish_incremental(
        recreated, dict(mid_site.pages), index)
    _assert_cold_identical(final_site, recreated)
    assert "Recreated Under Same Id" in final_site.pages[
        f"{model.facts[0].id}.html"]


def test_model_level_toggle_dirties_everything():
    model = sales_model()
    site, index = publish_with_index(model)

    def toggle(root):
        current = root.get_attribute("showatts")
        root.set_attribute("showatts", "no" if current == "yes" else "yes")

    edited = _edited(model, toggle)
    new_site, _, info = republish_incremental(edited, dict(site.pages), index)
    assert info["mode"] == "incremental"
    assert "model" in info["dirty_units"]
    _assert_cold_identical(new_site, edited)


def test_structural_unit_change_falls_back_to_full_publish():
    model = sales_model()
    site, index = publish_with_index(model)

    def drop_cube(root):
        container = root.find("cubeclasses")
        container.remove_child(container.find_all("cubeclass")[0])

    edited = _edited(model, drop_cube)
    new_site, new_index, info = republish_incremental(
        edited, dict(site.pages), index)
    assert info["mode"] == "full"
    assert info["reason"] == "structural"
    _assert_cold_identical(new_site, edited)
    # The fallback re-records a usable index for the new page set.
    assert sorted(new_index.page_names) == sorted(
        name for name in new_site.pages if name.endswith(".html"))


def test_dotfile_roundtrip_rebuilds_the_baseline_model():
    """An index reloaded from its JSON form (the dotfile scenario)
    rebuilds the model it was published from, so the republish runs
    the same model diff as an index held in memory — and still matches
    cold bytes."""
    from repro.web.incremental import DependencyIndex

    model = sales_model()
    site, index = publish_with_index(model)
    reloaded = DependencyIndex.from_json(index.to_json())
    assert reloaded.baseline_model == model
    assert reloaded._baseline is None

    def rename(root):
        root.find("dimclasses").find_all("dimclass")[0] \
            .set_attribute("name", "Renamed Via Dotfile Index")

    edited = _edited(model, rename)
    new_site, _, info = republish_incremental(
        edited, dict(site.pages), reloaded)
    assert info["mode"] == "incremental"
    _assert_cold_identical(new_site, edited)


@pytest.mark.parametrize("corrupt", [
    lambda xml: xml.replace("<goldmodel ", "<goldmodel", 1),
    lambda xml: xml.replace("goldmodel", "notamodel"),
    lambda xml: xml.replace("<goldmodel ", '<goldmodel extra="1" ', 1),
    lambda xml: None,
], ids=["malformed", "not-a-goldmodel", "does-not-round-trip",
        "not-a-string"])
def test_dotfile_with_unusable_model_xml_is_rejected(corrupt):
    """The pages on disk were rendered from the document of
    ``model_xml``: a baseline model that does not parse, does not
    convert, or does not serialize back to exactly that XML is no sound
    baseline, and reloading the index says so."""
    from repro.web.incremental import DependencyIndex

    _, index = publish_with_index(sales_model())
    data = json.loads(index.to_json())
    data["model_xml"] = corrupt(data["model_xml"])
    with pytest.raises(ValueError):
        DependencyIndex.from_json(json.dumps(data))


def _without_index_page(data):
    del data["pages"]["index.html"]
    data["page_names"].remove("index.html")


@pytest.mark.parametrize("corrupt", [
    lambda data: data.update(stylesheet_hash=None),
    lambda data: data.pop("stylesheet_hash"),
    lambda data: data.update(pages=[]),
    lambda data: data["pages"].update({"index.html": "model"}),
    lambda data: data["pages"].update({"index.html": [1]}),
    lambda data: data.update(pages={}, page_names={"index.html": 1}),
    lambda data: data.update(page_names=["index.html"]),
    _without_index_page,
    lambda data: data.update(page_hashes=[]),
    lambda data: data["page_hashes"].update({"index.html": None}),
], ids=["stylesheet-hash-null", "stylesheet-hash-missing", "pages-list",
        "units-not-a-list", "unit-not-a-string", "page-names-not-a-list",
        "page-names-not-the-pages", "no-index-page", "page-hashes-list",
        "page-hash-null"])
def test_dotfile_with_unusable_page_fields_is_rejected(corrupt):
    """A hand-edited or truncated dotfile whose page fields do not
    describe a site is rejected on reload, not half-applied: the
    caller publishes cold instead of crashing or writing a site with
    pages missing."""
    from repro.web.incremental import DependencyIndex

    _, index = publish_with_index(sales_model())
    data = json.loads(index.to_json())
    corrupt(data)
    with pytest.raises(ValueError):
        DependencyIndex.from_json(json.dumps(data))


def test_patch_document_refuses_ambiguous_unit_ids():
    """Duplicate ``tag#id`` across units (unpublishable anyway — level
    pages are named by id) must make in-place patching refuse, so the
    caller rebuilds the DOM rather than regenerate the wrong subtree."""
    from repro.web.incremental import _patch_document

    model = sales_model()
    model.dimensions[1].levels[0].id = model.dimensions[0].levels[0].id
    shared = model.dimensions[0].levels[0].id
    document = model_to_document(model)
    assert _patch_document(
        document, model, {f"asoclevel#{shared}"}) is None
    # An unknown unit key refuses the same way.
    assert _patch_document(document, model, {"factclass#no-such"}) is None


def test_chained_patching_advances_the_baseline_document():
    """Two chained single-unit edits: the second republish patches the
    DOM the first one produced (ownership handed over via the index),
    and the consumed index can still lazily rebuild its own baseline."""
    model = sales_model()
    site, index = publish_with_index(model)

    def rename(value):
        def mutate(root):
            root.find("factclasses").find_all("factclass")[0] \
                .set_attribute("name", value)
        return mutate

    first = _edited(model, rename("First Renaming"))
    mid_site, mid_index, info = republish_incremental(
        first, dict(site.pages), index)
    assert info["mode"] == "incremental"
    # The original index handed its DOM over but stays usable.
    assert index._baseline is None
    assert index.baseline_document().root_element.name == "goldmodel"
    assert mid_index._baseline is not None

    second = _edited(first, rename("Second Renaming"))
    final_site, _, info = republish_incremental(
        second, dict(mid_site.pages), mid_index)
    assert info["mode"] == "incremental"
    _assert_cold_identical(final_site, second)


def test_tampered_previous_bytes_fall_back_when_verifying():
    model = sales_model()
    site, index = publish_with_index(model)
    pages = dict(site.pages)
    victim = next(n for n in index.page_names if n != "index.html")
    pages[victim] += "<!-- tampered -->"

    def rename(root):
        root.find("factclasses").find_all("factclass")[0] \
            .set_attribute("name", "Post-Tamper Rename")

    edited = _edited(model, rename)
    new_site, _, info = republish_incremental(
        edited, pages, index, verify_pages=True)
    assert info["mode"] == "full"
    assert info["reason"] == "baseline_mismatch"
    _assert_cold_identical(new_site, edited)
