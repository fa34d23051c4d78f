"""The fleet families through the runner: one green iteration each,
and a violation that writes a reproducer naming the family, the seed
and the iteration, with its replay line (``test_chaos`` does the same
for the chaos family)."""

from __future__ import annotations

import json
import os

import pytest

from repro.faults import FAULTS
from repro.obs import RECORDER
from repro.testkit import chaosmp, multiproc
from repro.testkit.run import main

FLEET_FAMILIES = ["chaosmp", "multiproc"]

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the fleet families need fork()")


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.deactivate()
    yield
    FAULTS.deactivate()


@pytest.mark.parametrize("family", FLEET_FAMILIES)
def test_one_iteration_is_green(family, tmp_path, capsys):
    code = main(["--family", family, "--seed", "5", "--iterations", "1",
                 "--failures-dir", str(tmp_path / "failures")])
    assert code == 0, capsys.readouterr()
    assert not (tmp_path / "failures").exists()


def test_chaos_beside_an_in_process_family_is_green(tmp_path):
    """The recorder is on around ``pipeline`` only: while it is on,
    every publish adds a timing page that no chaos oracle expects."""
    assert main(["--family", "pipeline", "--family", "chaos",
                 "--iterations", "1",
                 "--failures-dir", str(tmp_path / "failures")]) == 0
    assert not RECORDER.enabled


def _force_violation(monkeypatch, family: str) -> None:
    if family == "multiproc":
        # A real one: the oracle now expects a byte no worker serves.
        real = multiproc.offline_pages
        monkeypatch.setattr(multiproc, "offline_pages", lambda xml: {
            page: body + b"!" for page, body in real(xml).items()})
    else:
        monkeypatch.setattr(chaosmp, "recovery_sweep",
                            lambda server, trackers, passes: [
                                {"check": "forced", "detail": "planted"}])


@pytest.mark.parametrize("family", FLEET_FAMILIES)
def test_violation_writes_a_replayable_reproducer(family, tmp_path, capsys,
                                                  monkeypatch):
    _force_violation(monkeypatch, family)
    code = main(["--family", family, "--seed", "9", "--iterations", "1",
                 "--failures-dir", str(tmp_path)])
    assert code == 1
    records = json.loads(
        (tmp_path / f"seed9-{family}-failures.json").read_text())
    failures = [r for r in records if r["iteration"] != -1]
    assert failures
    assert {(r["family"], r["seed"], r["iteration"]) for r in failures} \
        == {(family, 9, 0)}
    if family == "chaosmp":
        assert failures == [{"check": "forced", "detail": "planted",
                             "family": family, "seed": 9, "iteration": 0,
                             "victim": failures[0]["victim"]}]
        assert failures[0]["victim"] in (0, 1)
    else:
        assert {r["check"] for r in failures} == {"multiproc-identical"}
    assert (f"replay with: python -m repro.testkit.run --family {family} "
            f"--seed 9 --start 0 --iterations 1") \
        in capsys.readouterr().out
