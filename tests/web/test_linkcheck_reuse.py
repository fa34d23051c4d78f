"""Link-check reuse: a check given an earlier report equals a fresh one.

``check_site(site, previous)`` scans only pages whose content
*previous* has not seen and reuses the anchors and links of the rest.
Along a seeded edit chain (``publish_with_index`` →
``republish_incremental``) every field of that report must equal
``check_site(site)``, through links that break and are repaired, pages
whose text changes under the same name, pages added and removed, and a
report loaded from the build store (which carries no scans).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re

import pytest

from repro.mdm import model_to_xml, sales_model
from repro.server.buildstore import BuildStore
from repro.server.cache import SiteCache, SiteEntry, page_etag
from repro.server.store import ModelStore
from repro.testkit.generators import apply_model_edit
from repro.web import linkcheck
from repro.web.incremental import publish_with_index, republish_incremental
from repro.web.linkcheck import LinkReport, check_site
from repro.web.publisher import Site, publish_multi_page

FIELDS = [field.name for field in dataclasses.fields(LinkReport)]

#: The chain's edits, in order; clone_unit adds a page, drop_unit
#: removes one, the others change pages under their names.
CHAIN = ("rename", "describe", "clone_unit", "rename", "drop_unit",
         "add_measure", "rename", "drop_unit", "describe")


@pytest.fixture
def scanned(monkeypatch) -> list[str]:
    """The page texts ``check_site`` actually scans, in order."""
    texts: list[str] = []
    real = linkcheck._scan

    def counting(content):
        texts.append(content)
        return real(content)

    monkeypatch.setattr(linkcheck, "_scan", counting)
    return texts


def assert_same_report(reused: LinkReport, fresh: LinkReport) -> None:
    for name in FIELDS:
        assert getattr(reused, name) == getattr(fresh, name), name


def content_key(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def html_texts(site: Site) -> set[str]:
    return {text for name, text in site.pages.items()
            if name.endswith(".html")}


def checked(site: Site, previous: LinkReport, scanned: list[str]
            ) -> LinkReport:
    """``check_site(site, previous)``, asserted equal to a fresh check,
    to have scanned once each page content *previous* has not seen, and
    to have reused *previous*'s scan of every other page."""
    del scanned[:]
    reused = check_site(site, previous)
    rescanned = list(scanned)
    fresh = check_site(site)
    assert_same_report(reused, fresh)
    assert reused.page_scans == fresh.page_scans
    unseen = [text for text in html_texts(site)
              if content_key(text) not in previous.page_scans]
    assert sorted(rescanned) == sorted(unseen)
    for key in reused.page_scans.keys() & previous.page_scans.keys():
        assert reused.page_scans[key] is previous.page_scans[key]
    return reused


def break_a_link(site: Site) -> tuple[Site, str]:
    """*site* with one page's first link pointed at a missing page."""
    for name, text in sorted(site.pages.items()):
        match = re.search(r'href="([^"#]+\.html)', text)
        if name.endswith(".html") and match:
            broken = text.replace(match.group(0), 'href="ghost.html', 1)
            return Site(pages={**site.pages, name: broken}), name
    raise AssertionError("no page links to another page")


def test_edit_chain_reuses_scans_and_matches_a_fresh_check(scanned):
    rng = random.Random("linkcheck-reuse")
    model = sales_model()
    site, index = publish_with_index(model)
    report = check_site(site)
    assert report.ok and report.page_scans
    seen = {"added": 0, "removed": 0, "changed": 0, "broken": 0,
            "repaired": 0}

    for step, kind in enumerate(CHAIN):
        op = (kind, rng.randrange(1 << 30), rng.randrange(1 << 30),
              rng.randrange(1 << 30))
        model, what = apply_model_edit(model, op)
        assert "no-op" not in what, what
        new_site, index, _ = republish_incremental(
            model, dict(site.pages), index)
        old_names, new_names = set(site.pages), set(new_site.pages)
        seen["added"] += len(new_names - old_names)
        seen["removed"] += len(old_names - new_names)
        seen["changed"] += sum(
            1 for name in old_names & new_names
            if site.pages[name] != new_site.pages[name])
        report = checked(new_site, report, scanned)
        assert report.ok, what
        site = new_site

        if step % 3 == 1:
            broken_site, victim = break_a_link(site)
            broken = checked(broken_site, report, scanned)
            assert [page for page, _ in broken.broken_pages] == [victim]
            seen["broken"] += 1
            report = checked(site, broken, scanned)
            assert report.ok and report.broken_pages == []
            seen["repaired"] += 1

    assert all(seen.values()), seen


def test_report_from_the_build_store_gets_a_full_check(tmp_path, scanned):
    store = ModelStore()
    model = sales_model()
    record, _ = store.put("sales", model_to_xml(model).encode("utf-8"))
    site = publish_multi_page(model)
    pages = {name: text.encode("utf-8") for name, text in site.pages.items()}
    entry = SiteEntry(
        name="sales", variant="multi", content_hash=record.content_hash,
        revision=record.revision, pages=pages,
        etags={name: page_etag(data) for name, data in pages.items()},
        link_report=check_site(site))
    buildstore = BuildStore(str(tmp_path))
    assert buildstore.store_site(entry)
    loaded = buildstore.load_site(record, "multi").link_report
    assert loaded.page_scans == {}
    assert_same_report(loaded, dataclasses.replace(
        entry.link_report, page_scans={}))

    edited, _ = apply_model_edit(model, ("rename", 3, 7, 0))
    new_site = publish_multi_page(edited)
    del scanned[:]
    reused = check_site(new_site, loaded)
    assert sorted(scanned) == sorted(html_texts(new_site))
    assert_same_report(reused, check_site(new_site))


def test_cache_rebuild_scans_only_changed_pages(scanned):
    store = ModelStore()
    cache = SiteCache()
    model = sales_model()
    first, _ = store.put("sales", model_to_xml(model).encode("utf-8"))
    cache.entry(first, "multi")
    edited, what = apply_model_edit(model, ("rename", 5, 11, 0))
    second, _ = store.put("sales", model_to_xml(edited).encode("utf-8"))
    del scanned[:]
    entry = cache.entry(second, "multi")
    assert cache.stats()["incremental"] == 1
    site = Site(pages={name: data.decode("utf-8")
                       for name, data in entry.pages.items()})
    assert 0 < len(scanned) < len(html_texts(site)) / 2, what
    assert_same_report(entry.link_report, check_site(site))
