"""The ``python -m repro.testkit.run`` entry point."""

import json

from repro.obs import RECORDER
from repro.testkit import run_pipeline
from repro.testkit.run import (
    DEFAULT_FAMILIES,
    FAMILIES,
    Family,
    family_rng,
    main,
    run_family,
)


def planted(real):
    """Family check *real*, plus one record drawn from what is left of
    the family's RNG stream: a failure that every earlier draw of the
    iteration decides."""

    def check(rng, seed, iteration, *fixture):
        records = real(rng, seed, iteration, *fixture)
        records.append({"check": "planted", "draw": rng.random()})
        return records

    return check


def test_fixed_iterations_green(tmp_path, capsys):
    code = main(["--seed", "0", "--iterations", "2",
                 "--failures-dir", str(tmp_path / "failures")])
    out = capsys.readouterr().out
    assert code == 0
    assert "testkit: OK — 2 iterations of " \
        + "+".join(DEFAULT_FAMILIES) in out
    assert not (tmp_path / "failures").exists()


def test_a_bare_run_never_starts_a_server():
    assert DEFAULT_FAMILIES == ("pipeline", "mutations", "xpath",
                                "compiled", "incremental", "olap")
    assert all(FAMILIES[name].fixture is not None
               for name in set(FAMILIES) - set(DEFAULT_FAMILIES))


def test_iteration_is_deterministic():
    for name in DEFAULT_FAMILIES:
        assert run_family(name, 3, 0) == run_family(name, 3, 0), name


def test_iteration_rng_depends_on_both_seed_and_index():
    """... and on the family, so no family's draws shift another's."""
    draws = {family_rng(family, seed, iteration).random()
             for family, seed, iteration in (("xpath", 1, 0), ("xpath", 1, 1),
                                             ("xpath", 2, 0), ("olap", 1, 0))}
    assert len(draws) == 4


def test_failures_written_as_json_reproducers(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(FAMILIES, "xpath",
                        Family(planted(FAMILIES["xpath"].check)))
    code = main(["--seed", "7", "--iterations", "2", "--family", "xpath",
                 "--failures-dir", str(tmp_path)])
    assert code == 1
    records = json.loads(
        (tmp_path / "seed7-xpath-failures.json").read_text())
    planted_records = [r for r in records if r["check"] == "planted"]
    assert [(r["family"], r["seed"], r["iteration"])
            for r in planted_records] == [("xpath", 7, 0), ("xpath", 7, 1)]
    context = [r for r in records if r["iteration"] == -1]
    assert [(r["family"], r["check"]) for r in context] == [
        ("xpath", "stage-timings")]
    assert ("replay with: python -m repro.testkit.run --family xpath "
            "--seed 7 --start 0 --iterations 1") in capsys.readouterr().out


def test_one_family_replays_its_records_from_a_run_of_several(
        tmp_path, monkeypatch):
    monkeypatch.setitem(FAMILIES, "mutations",
                        Family(planted(FAMILIES["mutations"].check)))
    families = ["--family", "xpath", "--family", "mutations",
                "--family", "pipeline"]
    assert main(["--seed", "5", "--iterations", "3", *families,
                 "--failures-dir", str(tmp_path / "run")]) == 1
    assert main(["--seed", "5", "--start", "2", "--iterations", "1",
                 "--family", "mutations",
                 "--failures-dir", str(tmp_path / "replay")]) == 1

    def at_iteration_2(path):
        return [record for record in json.loads(path.read_text())
                if record["family"] == "mutations"
                and record["iteration"] == 2]

    run = at_iteration_2(
        tmp_path / "run" / "seed5-pipeline+mutations+xpath-failures.json")
    replay = at_iteration_2(
        tmp_path / "replay" / "seed5-mutations-failures.json")
    assert run and replay == run


def test_budget_zero_still_runs_one_iteration(tmp_path, capsys):
    code = main(["--seed", "0", "--budget", "0", "--family", "xpath",
                 "--failures-dir", str(tmp_path / "failures")])
    assert code == 0
    assert "1 iterations of xpath" in capsys.readouterr().out


def test_trace_records_the_in_process_families(tmp_path):
    path = tmp_path / "trace" / "trace.json"
    assert main(["--iterations", "1", "--family", "xpath",
                 "--family", "olap", "--trace", str(path),
                 "--failures-dir", str(tmp_path / "failures")]) == 0
    spans = json.loads(path.read_text())["span_aggregates"]
    assert {"testkit.xpath", "testkit.olap"} <= set(spans)
    assert not RECORDER.enabled  # restored


def test_run_pipeline_importable_from_package():
    # The harness is product code: importable without the CLI.
    from repro.mdm import sales_model

    assert run_pipeline(sales_model(), publish=False).ok
