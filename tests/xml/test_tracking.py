"""Unit tests for read tracking, the half of incremental republish
(DESIGN.md §14) that decides *who read* each unit of a model document.

The byte-identity contract is proven end to end elsewhere
(tests/web/test_incremental_differential.py); here the tracker and the
unit classifier are pinned in isolation.
"""

from __future__ import annotations

from repro.web.incremental import classify_node
from repro.xml import tracking
from repro.xml.parser import parse

MODEL = """<goldmodel id='m' name='M' showatts='yes'>
  <factclasses>
    <factclass id='f1' name='Sales'>
      <factatts>
        <factatt id='a1' name='Price' type='Number' isoid='no'
                 isderived='no' atomic='yes'/>
      </factatts>
    </factclass>
  </factclasses>
  <dimclasses>
    <dimclass id='d1' name='Time'/>
  </dimclasses>
</goldmodel>"""


class TestReadTracker:
    def test_installed_bumps_and_restores_active(self):
        tracker = tracking.ReadTracker(classify_node)
        assert tracking.ACTIVE == 0
        with tracking.installed(tracker):
            assert tracking.ACTIVE == 1
            assert tracking.current() is tracker
        assert tracking.ACTIVE == 0
        assert tracking.current() is None

    def test_reads_attribute_to_the_open_page(self):
        document = parse(MODEL)
        fact = document.root_element.find("factclasses").find("factclass")
        dim = document.root_element.find("dimclasses").find("dimclass")
        tracker = tracking.ReadTracker(classify_node)
        with tracking.installed(tracker):
            tracking.touch_node(fact)  # spine read
            tracking.record_page("f1.html")
            tracking.begin_page("f1.html")
            tracking.touch_node(dim)
            tracking.end_page()
            tracking.touch_root(document)
        assert tracker.deps[""] == {"factclass#f1", "model"}
        assert tracker.deps["f1.html"] == {"dimclass#d1"}
        assert tracker.encountered == ["f1.html"]

    def test_paused_reads_are_not_recorded(self):
        document = parse(MODEL)
        tracker = tracking.ReadTracker(classify_node)
        with tracking.installed(tracker):
            with tracking.paused():
                tracking.touch_node(document.root_element)
        assert tracker.deps == {}

    def test_page_filter_skips_only_unlisted_pages(self):
        tracker = tracking.ReadTracker(classify_node,
                                       page_filter={"keep.html"})
        with tracking.installed(tracker):
            assert not tracking.skips_page("keep.html")
            assert tracking.skips_page("skip.html")
        unfiltered = tracking.ReadTracker(classify_node)
        with tracking.installed(unfiltered):
            assert not tracking.skips_page("anything.html")

    def test_classify_node_walks_to_nearest_unit(self):
        document = parse(MODEL)
        fact = document.root_element.find("factclasses").find("factclass")
        att = fact.find("factatts").find("factatt")
        assert classify_node(att) == "factclass#f1"
        assert classify_node(fact) == "factclass#f1"
        assert classify_node(document.root_element) == "model"
        assert classify_node(
            fact.get_attribute_node("name")) == "factclass#f1"
