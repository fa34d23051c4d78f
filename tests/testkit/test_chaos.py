"""The chaos family: its plans, its trackers, and a round through the
runner."""

from __future__ import annotations

import json
import random

import pytest

from repro.faults import FAULTS
from repro.testkit import chaos
from repro.testkit.chaos import default_trackers, random_plan
from repro.testkit.live import offline_pages
from repro.testkit.run import family_rng, main


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.deactivate()
    yield
    FAULTS.deactivate()


def test_plans_are_seed_deterministic():
    first = random_plan(family_rng("chaos", 7, 3)).describe()
    second = random_plan(family_rng("chaos", 7, 3)).describe()
    other = random_plan(family_rng("chaos", 7, 4)).describe()
    assert first == second
    assert any(random_plan(family_rng("chaos", 7, index)).describe() != first
               for index in range(4, 10))
    assert json.dumps(first)  # reproducer records must serialize
    assert other["specs"]  # every plan injects at least one fault


def test_family_rng_is_the_stream_chaos_rounds_always_drew():
    """A round's seed string has been ``chaos:{seed}:{round}`` since the
    harness began, so an old reproducer's plan, flip and victim replay."""
    assert family_rng("chaos", 7, 3).getstate() \
        == random.Random("chaos:7:3").getstate()
    assert family_rng("chaosmp", 0, 2).getstate() \
        == random.Random("chaosmp:0:2").getstate()


def test_plan_menu_never_includes_store_faults():
    """The harness flips versions through the store and must know the
    flip landed — store faults would make the oracle lie."""
    for index in range(25):
        plan = random_plan(family_rng("chaos", 0, index))
        assert not any(point.startswith("store.")
                       for point in plan.specs)


def test_trackers_version_bytes_are_distinct_and_valid():
    tracker = default_trackers()[0]
    first = tracker._xml_for(1)
    second = tracker._xml_for(2)
    assert first != second != tracker.base_xml
    # Every version parses and publishes (the oracle renderer asserts
    # a 201 PUT, which validates against the schema).
    assert offline_pages(first)["index.html"]


def test_chaos_smoke_run_is_green(tmp_path):
    code = main(["--family", "chaos", "--seed", "5", "--iterations", "1",
                 "--failures-dir", str(tmp_path / "failures")])
    assert code == 0
    assert not (tmp_path / "failures").exists()  # no reproducers written
    assert not FAULTS.enabled  # the harness always cleans up


def test_chaos_writes_reproducers_on_violation(tmp_path, capsys,
                                               monkeypatch):
    """Force a violation and check the red path: exit 1 plus a replayable
    JSON reproducer naming the family, seed, iteration and the active
    plan, beside the run's cache stats."""
    monkeypatch.setattr(chaos, "recovery_sweep", lambda server, trackers: [
        {"check": "forced", "detail": "injected by test"}])
    directory = tmp_path / "failures"
    code = main(["--family", "chaos", "--seed", "9", "--iterations", "1",
                 "--failures-dir", str(directory)])
    assert code == 1
    records = json.loads(
        (directory / "seed9-chaos-failures.json").read_text())
    forced = [r for r in records if r["check"] == "forced"]
    assert [(r["family"], r["seed"], r["iteration"]) for r in forced] \
        == [("chaos", 9, 0)]
    assert "specs" in forced[0]["plan"]
    assert {(r["check"], r["iteration"]) for r in records
            if r["check"] != "forced"} == {("stage-timings", -1),
                                           ("cache-stats", -1)}
    assert ("replay with: python -m repro.testkit.run --family chaos "
            "--seed 9 --start 0 --iterations 1") in capsys.readouterr().out
