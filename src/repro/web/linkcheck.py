"""Link checking for generated sites (verifies Fig. 6 navigation).

The paper's claim "whenever it is possible, there is a link connecting
different pieces of information" is testable: every ``href`` and every
``#anchor`` in a generated site must resolve.  :func:`check_site` scans
each HTML page (with the stdlib HTML parser, since the ``html`` output
method legitimately leaves void elements unclosed) and reports dangling
references and orphan pages.

A page's anchors and links depend on its text alone, so a report keeps
them keyed by the SHA-256 of the page's UTF-8 bytes (the digest its ETag
carries), never by page name and without the text.  Given the report of
an earlier build, :func:`check_site` scans only pages whose content it
has not seen and resolves the links of the whole site again, so the
result is the same as a check from scratch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from html.parser import HTMLParser

from .publisher import PROFILE_PAGE, Site

__all__ = ["LinkReport", "check_site"]


@dataclass
class LinkReport:
    """Outcome of checking a site's link graph."""

    #: (page, target) pairs whose target page does not exist.
    broken_pages: list[tuple[str, str]] = field(default_factory=list)
    #: (page, anchor) pairs whose #anchor does not exist on the target.
    broken_anchors: list[tuple[str, str]] = field(default_factory=list)
    #: Pages with no inbound link (excluding index.html).
    orphans: list[str] = field(default_factory=list)
    total_links: int = 0
    #: SHA-256 of a page's UTF-8 bytes → its (anchors, links).  Empty on
    #: reports that were not made by :func:`check_site` in this process
    #: (e.g. loaded from the build store); those give no reuse.
    page_scans: dict[bytes, tuple[frozenset[str], tuple[str, ...]]] = \
        field(default_factory=dict, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """True when no broken links or anchors were found."""
        return not self.broken_pages and not self.broken_anchors


class _PageScanner(HTMLParser):
    """Collects hrefs and anchors from one page."""

    def __init__(self) -> None:
        super().__init__()
        self.links: list[str] = []
        self.anchors: set[str] = set()

    def handle_starttag(self, tag: str, attrs) -> None:
        attributes = dict(attrs)
        identifier = attributes.get("id")
        if identifier:
            self.anchors.add(identifier)
        if tag == "a":
            anchor = attributes.get("name")
            if anchor:
                self.anchors.add(anchor)
            href = attributes.get("href")
            if href and not href.startswith(
                    ("http:", "https:", "mailto:")) and \
                    not href.endswith(".css"):
                self.links.append(href)


def _scan(content: str) -> tuple[frozenset[str], tuple[str, ...]]:
    scanner = _PageScanner()
    scanner.feed(content)
    return frozenset(scanner.anchors), tuple(scanner.links)


def check_site(site: Site, previous: LinkReport | None = None) -> LinkReport:
    """Check every internal link and anchor of *site*.

    *previous*, the report of an earlier build, lends the scans of the
    pages whose content it has already seen; the report is the same as
    without it.
    """
    report = LinkReport()
    seen = previous.page_scans if previous is not None else {}
    anchors: dict[str, frozenset[str]] = {}
    links: dict[str, tuple[str, ...]] = {}

    for name, content in site.pages.items():
        if not name.endswith(".html"):
            continue
        key = hashlib.sha256(content.encode("utf-8")).digest()
        scan = report.page_scans.get(key) or seen.get(key) or _scan(content)
        report.page_scans[key] = scan
        anchors[name], links[name] = scan

    inbound: set[str] = set()
    for page, page_links in links.items():
        for href in page_links:
            report.total_links += 1
            target, _, fragment = href.partition("#")
            target_page = target or page
            if target_page not in site.pages:
                report.broken_pages.append((page, href))
                continue
            inbound.add(target_page)
            if fragment and fragment not in anchors.get(target_page, ()):
                report.broken_anchors.append((page, href))

    for name in site.pages:
        if name.endswith(".html") and name != "index.html" and \
                name != PROFILE_PAGE and name not in inbound:
            # The profile page is an additive diagnostic emitted while
            # profiling is on; model pages never link to it by design
            # (their bytes are pinned), so it is not an orphan.
            report.orphans.append(name)
    return report
