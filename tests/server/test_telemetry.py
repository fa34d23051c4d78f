"""The always-on telemetry surface: ids, logs, /metrics, /dashboard.

Covers the ISSUE 8 tentpole end to end at the app layer: every response
carries a request id, access-log lines are structured JSON with cache
flags and fault attribution, ``/metrics`` exposes Prometheus text with
monotonic ``_total`` counters and the PR 6/7 cache views, and serving
the telemetry endpoints never perturbs published page bytes or ETags
(the golden guard).
"""

import io
import json
from random import Random

import pytest

from repro.faults import FAULTS, FaultPlan
from repro.mdm import model_to_xml, sales_model
from repro.obs.ids import RequestIdGenerator, is_request_id
from repro.server import ModelRepositoryApp, ServerTelemetry
from repro.server.telemetry import current_context
from repro.testkit.live import parse_metrics


class ManualClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def make_app(**telemetry_kwargs) -> ModelRepositoryApp:
    telemetry_kwargs.setdefault("enabled", True)
    return ModelRepositoryApp(
        telemetry=ServerTelemetry(**telemetry_kwargs))


@pytest.fixture
def app():
    return make_app()


@pytest.fixture
def loaded(app):
    xml = model_to_xml(sales_model()).encode("utf-8")
    assert app.handle("PUT", "/models/sales", {}, xml).status == 201
    return app


class TestRequestIds:
    def test_every_response_carries_an_id(self, app):
        for path in ("/", "/models", "/nope", "/stats"):
            response = app.handle("GET", path)
            request_id = response.header("X-Goldcase-Request-Id")
            assert request_id is not None, path
            assert is_request_id(request_id)

    def test_ids_are_unique_and_sorted(self, app):
        ids = [app.handle("GET", "/").header("X-Goldcase-Request-Id")
               for _ in range(10)]
        assert len(set(ids)) == 10
        assert ids == sorted(ids)

    def test_client_supplied_id_is_adopted(self, app):
        minted = RequestIdGenerator(rng=Random(7))()
        response = app.handle("GET", "/",
                              {"X-Goldcase-Request-Id": minted})
        assert response.header("X-Goldcase-Request-Id") == minted

    def test_garbage_client_id_is_replaced(self, app):
        response = app.handle(
            "GET", "/", {"X-Goldcase-Request-Id": "attack\nstring"})
        echoed = response.header("X-Goldcase-Request-Id")
        assert echoed != "attack\nstring"
        assert is_request_id(echoed)

    def test_context_is_cleared_after_the_request(self, app):
        app.handle("GET", "/")
        assert current_context() is None


class TestAccessLog:
    def test_structured_line_per_request(self, loaded):
        log = io.StringIO()
        loaded.telemetry.access_log = log
        response = loaded.handle("GET", "/site/sales/index.html")
        line = json.loads(log.getvalue())
        assert line["id"] == response.header("X-Goldcase-Request-Id")
        assert line["method"] == "GET"
        assert line["path"] == "/site/sales/index.html"
        assert line["status"] == 200
        assert line["bytes"] == len(response.body)
        assert line["model"] == "sales"
        assert "rebuild" in line["flags"]
        assert line["duration_ms"] >= 0

    def test_cache_hit_flag(self, loaded):
        loaded.handle("GET", "/site/sales/index.html")
        log = io.StringIO()
        loaded.telemetry.access_log = log
        loaded.handle("GET", "/site/sales/index.html")
        assert "cache_hit" in json.loads(log.getvalue())["flags"]

    def test_fault_points_attributed_to_request(self, loaded):
        loaded.handle("GET", "/site/sales/index.html")  # warm
        log = io.StringIO()
        loaded.telemetry.access_log = log
        xml = model_to_xml(sales_model()).encode("utf-8") \
            .replace(b"Sales DW", b"Sales DW v2")
        loaded.handle("PUT", "/models/sales", {}, xml)
        FAULTS.activate(FaultPlan(seed=1).add("cache.rebuild", "raise"))
        try:
            response = loaded.handle("GET", "/site/sales/index.html")
        finally:
            FAULTS.deactivate()
        assert response.status == 200  # degraded: stale entry served
        lines = [json.loads(line)
                 for line in log.getvalue().splitlines()]
        stale_line = lines[-1]
        assert stale_line["faults"] == ["cache.rebuild"]
        assert "stale_served" in stale_line["flags"]

    def test_callable_sink(self, app):
        captured = []
        app.telemetry.access_log = captured.append
        app.handle("GET", "/")
        assert len(captured) == 1
        assert json.loads(captured[0])["path"] == "/"


class TestMetricsEndpoint:
    def test_exposition_is_parseable(self, loaded):
        loaded.handle("GET", "/site/sales/index.html")
        response = loaded.handle("GET", "/metrics")
        assert response.status == 200
        assert response.header("Content-Type").startswith(
            "text/plain; version=0.0.4")
        samples = parse_metrics(response.body.decode("utf-8"))
        assert samples["goldcase_http_requests_total"] >= 2
        assert 'goldcase_model_requests_total{model="sales"}' in samples
        assert samples["goldcase_site_rebuilds_total"] >= 1

    def test_totals_are_monotonic_across_scrapes(self, loaded):
        first = parse_metrics(
            loaded.handle("GET", "/metrics").body.decode("utf-8"))
        for _ in range(5):
            loaded.handle("GET", "/models/sales")
        second = parse_metrics(
            loaded.handle("GET", "/metrics").body.decode("utf-8"))
        for key, value in first.items():
            if "_total" in key:
                assert second.get(key, -1.0) >= value, key

    def test_engine_caches_exposed(self, loaded):
        loaded.handle("GET", "/site/sales/index.html")
        text = loaded.handle("GET", "/metrics").body.decode("utf-8")
        samples = parse_metrics(text)
        assert 'goldcase_cache_hits_total{cache="xpath.parse"}' in samples
        assert 'goldcase_cache_size{cache="server.dep_index"}' in samples

    def test_latency_histogram_shape(self, loaded):
        loaded.handle("GET", "/models/sales")
        samples = parse_metrics(
            loaded.handle("GET", "/metrics").body.decode("utf-8"))
        count = samples["goldcase_http_latency_seconds_hist_count"]
        inf = samples['goldcase_http_latency_seconds_hist_bucket{le="+Inf"}']
        assert count == inf > 0
        les = [(float(key.split('le="')[1].rstrip('"}')), value)
               for key, value in samples.items()
               if key.startswith(
                   'goldcase_http_latency_seconds_hist_bucket{le="')
               and "+Inf" not in key]
        les.sort()
        counts = [value for _, value in les]
        assert counts == sorted(counts)  # cumulative

    def test_slo_gauges_present(self, app):
        samples = parse_metrics(
            app.handle("GET", "/metrics").body.decode("utf-8"))
        key = ('goldcase_slo_ok{slo="availability-99.9",'
               'window="300s"}')
        assert samples[key] == 1.0


class TestDashboard:
    def test_renders_html_with_slo_table(self, loaded):
        loaded.handle("GET", "/site/sales/index.html")
        response = loaded.handle("GET", "/dashboard")
        assert response.status == 200
        html = response.body.decode("utf-8")
        assert "goldcase ops" in html
        assert "warm-get-p99" in html
        assert "availability-99.9" in html
        assert 'http-equiv="refresh"' in html

    def test_shows_top_models(self, loaded):
        loaded.handle("GET", "/models/sales")
        html = loaded.handle("GET", "/dashboard").body.decode("utf-8")
        assert ">sales<" in html


class TestStats:
    def test_stats_gains_caches_and_slos(self, loaded):
        loaded.handle("GET", "/site/sales/index.html")
        payload = loaded.handle("GET", "/stats").json
        assert "xpath.parse" in payload["caches"]
        assert "server.dep_index" in payload["caches"]
        dep = payload["caches"]["server.dep_index"]
        assert set(dep) == {"hits", "misses", "currsize", "maxsize"}
        assert dep["currsize"] == 1  # the tracked multi build
        names = {slo["name"] for slo in payload["slos"]}
        assert "warm-get-p99" in names


class TestGoldenGuard:
    def test_telemetry_endpoints_never_alter_published_bytes(self, loaded):
        """Scraping /metrics, /dashboard, /stats between page fetches
        must not change a single published byte or ETag."""
        first = loaded.handle("GET", "/site/sales/index.html")
        baseline_pages = {}
        entry = loaded.cache.peek("sales", "multi")
        for page in entry.pages:
            response = loaded.handle("GET", f"/site/sales/{page}")
            baseline_pages[page] = (response.body,
                                    response.header("ETag"))
        for _ in range(3):
            assert loaded.handle("GET", "/metrics").status == 200
            assert loaded.handle("GET", "/dashboard").status == 200
            assert loaded.handle("GET", "/stats").status == 200
        for page, (body, etag) in baseline_pages.items():
            again = loaded.handle("GET", f"/site/sales/{page}")
            assert again.body == body, page
            assert again.header("ETag") == etag, page
        assert first.header("ETag") == \
            loaded.handle("GET", "/site/sales/index.html").header("ETag")

    def test_conditional_get_still_works_with_telemetry(self, loaded):
        response = loaded.handle("GET", "/site/sales/index.html")
        etag = response.header("ETag")
        revalidated = loaded.handle("GET", "/site/sales/index.html",
                                    {"If-None-Match": etag})
        assert revalidated.status == 304
        assert revalidated.header("X-Goldcase-Request-Id") is not None


class TestDisabled:
    def test_kill_switch_removes_ids_and_counters(self):
        app = make_app(enabled=False)
        response = app.handle("GET", "/")
        assert response.header("X-Goldcase-Request-Id") is None
        assert app.telemetry.window.totals() == {}

    def test_set_enabled_flips_live(self, app):
        app.telemetry.set_enabled(False)
        assert app.handle(
            "GET", "/").header("X-Goldcase-Request-Id") is None
        app.telemetry.set_enabled(True)
        assert app.handle(
            "GET", "/").header("X-Goldcase-Request-Id") is not None


class TestTransportEvents:
    def test_transport_event_counts_and_logs(self):
        log = io.StringIO()
        telemetry = ServerTelemetry(enabled=True, access_log=log)
        request_id = telemetry.transport_event(
            "PUT", "/models/x", 413, "body too large")
        assert is_request_id(request_id)
        assert telemetry.window.total("http.status.4xx") == 1
        line = json.loads(log.getvalue())
        assert line["status"] == 413
        assert "transport_error" in line["flags"]

    def test_disabled_transport_event_is_inert(self):
        telemetry = ServerTelemetry(enabled=False)
        assert telemetry.transport_event("GET", "/", 500, "x") is None


class TestSLOReporting:
    def test_slow_requests_burn_the_latency_budget(self):
        clock = ManualClock()
        telemetry = ServerTelemetry(enabled=True, clock=clock)
        app = ModelRepositoryApp(telemetry=telemetry)
        # Inject 100 slow observations directly: the latency SLO must
        # notice without any real time passing.
        for _ in range(100):
            telemetry.window.observe("http.latency", 0.050)
        report = {slo["name"]: slo for slo in telemetry.slo_report()}
        assert not report["warm-get-p99"]["ok"]
        assert report["warm-get-p99"]["burn"] > 1.0
        assert report["availability-99.9"]["ok"]
        samples = parse_metrics(
            app.handle("GET", "/metrics").body.decode("utf-8"))
        key = 'goldcase_slo_ok{slo="warm-get-p99",window="60s"}'
        assert samples[key] == 0.0
