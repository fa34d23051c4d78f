"""The shared sweep counts every request it sends, and a failed request
(a 404, a reset connection) is a counted failure that fails ``--check``,
never a client thread that dies and takes its remaining requests along.
"""

import argparse
import collections

import pytest

import httpload
from repro.faults import FaultPlan, injected_faults
from repro.mdm import model_to_xml, sales_model
from repro.server import ModelServer

CLIENTS = 4
PER_CLIENT = 6
GOOD = "/site/sales/index.html"
MISSING = "/site/sales/no-such-page.html"


@pytest.fixture(scope="module")
def server():
    with ModelServer() as running:
        reply = httpload.fetch(running, "PUT", "/models/sales",
                               body=model_to_xml(sales_model()).encode())
        assert reply.status == 201
        httpload.prime(running, [GOOD])
        yield running


def _outcomes(sweep):
    return collections.Counter(op.detail["outcome"] for op in sweep.ops)


def test_a_missing_page_fails_exactly_its_requests(server):
    # Client i asks for paths[(i + n) % 3]: two of its six requests
    # name the missing page, whichever client it is.
    sweep = httpload.sweep(server, [GOOD, MISSING, GOOD], PER_CLIENT,
                           clients=CLIENTS)
    assert sweep.attempted == CLIENTS * PER_CLIENT
    assert sweep.failed == 2 * CLIENTS
    assert _outcomes(sweep) == {"ok": 4 * CLIENTS, "status 404": 2 * CLIENTS}


def test_a_reset_fails_one_request_and_its_client_goes_on(server):
    # The server drops the first connection that reaches its write
    # stage without answering, as a reset mid-exchange looks.
    with injected_faults(FaultPlan().add("httpd.write", times=1)):
        sweep = httpload.sweep(server, [GOOD], PER_CLIENT, clients=CLIENTS)
    assert sweep.attempted == CLIENTS * PER_CLIENT
    assert sweep.failed == 1
    [failure] = [op for op in sweep.ops if not op.ok]
    assert failure.detail["outcome"].startswith("transport error")
    assert _outcomes(sweep)["ok"] == CLIENTS * PER_CLIENT - 1


def test_a_404_and_a_reset_in_one_sweep_are_both_counted(server):
    # One client sends GOOD, MISSING, GOOD, ... in order, so the reset
    # lands on its first request, a GOOD one.
    with injected_faults(FaultPlan().add("httpd.write", times=1)):
        sweep = httpload.sweep(server, [GOOD, MISSING], PER_CLIENT,
                               clients=1)
    assert sweep.attempted == PER_CLIENT
    assert sweep.failed == 1 + PER_CLIENT // 2
    assert sweep.ops[0].detail["outcome"].startswith("transport error")


def test_any_failed_request_fails_check(server, capsys):
    series = httpload.measure(
        {"warm": lambda: httpload.sweep(server, [GOOD, MISSING],
                                        PER_CLIENT, clients=CLIENTS)}, 3)
    summary = httpload.summarize(series["warm"])
    assert summary["attempted"] == 3 * CLIENTS * PER_CLIENT
    assert summary["failed"] == 3 * CLIENTS * PER_CLIENT // 2
    assert summary["warmup"]["failed"] == CLIENTS * PER_CLIENT // 2
    args = argparse.Namespace(smoke=True, check=True)
    assert httpload.finish(args, "test", summary,
                           httpload.failed("warm", summary)) == 1
    assert "CHECK FAILED: warm:" in capsys.readouterr().out


def test_summaries_report_no_p99_without_ten_samples_beyond_it(server):
    series = httpload.measure(
        {"warm": lambda: httpload.sweep(server, [GOOD], PER_CLIENT,
                                        clients=CLIENTS)}, 3)
    summary = httpload.summarize(series["warm"])
    assert summary["failed"] == 0 and not httpload.failed("warm", summary)
    assert summary["p99_ms"] is None
    assert "72 samples leave 0" in summary["p99_ms_reason"]
    assert summary["rounds"] == 3
    assert summary["throughput_rps"]["median"] > 0
