"""Smoke and unit coverage for the chaos harness (ISSUE 5)."""

from __future__ import annotations

import json

import pytest

from repro.faults import FAULTS
from repro.testkit import chaos
from repro.testkit.chaos import (
    default_trackers,
    main,
    random_plan,
    round_rng,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.deactivate()
    yield
    FAULTS.deactivate()


def test_plans_are_seed_deterministic():
    first = random_plan(round_rng(7, 3)).describe()
    second = random_plan(round_rng(7, 3)).describe()
    other = random_plan(round_rng(7, 4)).describe()
    assert first == second
    assert any(random_plan(round_rng(7, index)).describe() != first
               for index in range(4, 10))
    assert json.dumps(first)  # reproducer records must serialize
    assert other["specs"]  # every plan injects at least one fault


def test_plan_menu_never_includes_store_faults():
    """The harness flips versions through the store and must know the
    flip landed — store faults would make the oracle lie."""
    for index in range(25):
        plan = random_plan(round_rng(0, index))
        assert not any(point.startswith("store.")
                       for point in plan.specs)


def test_trackers_version_bytes_are_distinct_and_valid():
    tracker = default_trackers()[0]
    first = tracker._xml_for(1)
    second = tracker._xml_for(2)
    assert first != second != tracker.base_xml
    # Every version parses and publishes (the oracle renderer asserts
    # a 201 PUT, which validates against the schema).
    assert chaos._expected_pages(first)["index.html"]


def test_chaos_smoke_run_is_green(tmp_path):
    code = main(["--seed", "5", "--rounds", "1", "--clients", "3",
                 "--requests", "6", "--quiet",
                 "--failures-dir", str(tmp_path / "failures")])
    assert code == 0
    assert not (tmp_path / "failures").exists()  # no reproducers written
    assert not FAULTS.enabled  # the harness always cleans up


def test_chaos_writes_reproducers_on_violation(tmp_path, monkeypatch):
    """Force a violation and check the red path: exit 1 plus a replayable
    JSON reproducer naming the round and the active plan."""

    def broken_sweep(server, trackers, rng):
        return [{"check": "forced", "detail": "injected by test"}]

    monkeypatch.setattr(chaos, "_recovery_sweep", broken_sweep)
    directory = tmp_path / "failures"
    code = main(["--seed", "9", "--rounds", "1", "--clients", "2",
                 "--requests", "4", "--quiet",
                 "--failures-dir", str(directory)])
    assert code == 1
    path = directory / "seed9-chaos-failures.json"
    records = json.loads(path.read_text())
    forced = [r for r in records if r.get("check") == "forced"]
    assert forced and forced[0]["round"] == 0
    assert forced[0]["seed"] == 9
    assert "specs" in forced[0]["plan"]
