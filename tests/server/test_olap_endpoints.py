"""OLAP endpoints: /olap/<model>/{query,schema,stats} plus the client.

App-level coverage of the query routes (outcomes, conditional GETs,
content negotiation, diagnostics, invalidation, telemetry, the XML
view's fault contract) and a live socket leg exercising
:meth:`RepositoryClient.query_cube` / :meth:`RepositoryClient.olap_stats`.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.faults import FaultPlan, injected_faults
from repro.mdm import model_to_xml, sales_model
from repro.olap import CubeEngine
from repro.olap.service import (
    DatasetConfig,
    OlapService,
    parse_query,
    resolve_query,
    synthesize_star,
)
from repro.olap.service.render import render_json, render_xml, result_payload
from repro.server import ModelRepositoryApp, ModelServer
from repro.web import RepositoryClient

SALES_XML = model_to_xml(sales_model()).encode("utf-8")
SMALL = DatasetConfig(members_per_level=3, rows_per_fact=60)
QUERY = "/olap/sales/query?fact=Sales&measure=qty:SUM&dice=Time@Month&seed=1"


@pytest.fixture()
def app():
    app = ModelRepositoryApp(olap=OlapService(dataset=SMALL))
    assert app.handle("PUT", "/models/sales", {}, SALES_XML).status == 201
    return app


class TestQueryEndpoint:
    def test_executed_then_hit_with_identical_bytes(self, app):
        first = app.handle("GET", QUERY)
        assert first.status == 200
        assert first.header("X-Goldcase-Olap") == "executed"
        assert first.header("Content-Type") == \
            "application/json; charset=utf-8"
        second = app.handle("GET", QUERY)
        assert second.header("X-Goldcase-Olap") == "hit"
        assert second.body == first.body
        assert second.header("ETag") == first.header("ETag")

    def test_payload_shape(self, app):
        payload = app.handle("GET", QUERY).json
        assert payload["fact"] == "Sales"
        assert payload["seed"] == 1
        assert payload["columns"]  # diced to Month: one group level
        assert payload["rows"]
        assert payload["row_count"] == len(payload["rows"])
        assert payload["dataset"]["fact_rows"] > 0
        assert payload["dataset"]["members"] > 0

    def test_conditional_get_304(self, app):
        etag = app.handle("GET", QUERY).header("ETag")
        again = app.handle("GET", QUERY, {"If-None-Match": etag})
        assert again.status == 304
        assert again.body == b""

    def test_xml_format_renders_via_xslt_with_its_own_etag(self, app):
        xml = app.handle("GET", QUERY + "&format=xml")
        assert xml.status == 200
        assert xml.header("Content-Type") == \
            "application/xml; charset=utf-8"
        assert xml.body.startswith(b"<?xml")
        assert b"<olap-result" in xml.body
        json_etag = app.handle("GET", QUERY).header("ETag")
        assert xml.header("ETag") != json_etag
        # Same materialization either way: one execution, one hit.
        assert xml.header("X-Goldcase-Query-Key") == \
            app.handle("GET", QUERY).header("X-Goldcase-Query-Key")

    def test_unknown_format_is_400(self, app):
        assert app.handle("GET", QUERY + "&format=csv").status == 400

    def test_post_json_body_matches_get(self, app):
        get = app.handle("GET", QUERY)
        body = json.dumps(get.json["query"]).encode("utf-8")
        post = app.handle("POST", "/olap/sales/query", {}, body)
        assert post.status == 200
        assert post.header("X-Goldcase-Query-Key") == \
            get.header("X-Goldcase-Query-Key")
        assert post.body == get.body

    def test_repeated_slice_parameters_are_conjunctive(self, app):
        sliced = app.handle(
            "GET", QUERY + "&slice=Product.product_name%20NOTEQ%20"
                           "%22unknown%22&slice=Sales.qty%20GT%202")
        assert sliced.status == 200
        assert len(sliced.json["query"]["slice"]) == 2

    def test_unknown_parameter_is_400_with_issues(self, app):
        response = app.handle("GET", "/olap/sales/query?fct=Sales")
        assert response.status == 400
        assert response.json["issues"]

    def test_dangling_reference_is_422(self, app):
        response = app.handle(
            "GET", "/olap/sales/query?fact=Sales&measure=bogus:SUM")
        assert response.status == 422
        assert response.json["issues"][0]["path"] == "/query/measures/0"

    def test_additivity_violation_is_422_with_instance_path(self, app):
        response = app.handle(
            "GET", "/olap/sales/query?fact=Sales"
                   "&measure=inventory:SUM&dice=Time@Month")
        assert response.status == 422
        payload = response.json
        assert payload["kind"] == "additivity"
        issue = payload["issues"][0]
        assert issue["path"] == "/query/measures/0/aggregation"
        assert "additivity rule" in issue["message"]

    def test_unknown_model_is_404(self, app):
        assert app.handle(
            "GET", "/olap/nope/query?fact=Sales&measure=qty").status == 404

    def test_put_replacing_model_refreshes_without_restart(self, app):
        first = app.handle("GET", QUERY)
        stamped = SALES_XML.replace(b"Sales DW", b"Sales DW v2")
        assert app.handle("PUT", "/models/sales", {},
                          stamped).status == 200
        second = app.handle("GET", QUERY)
        assert second.header("X-Goldcase-Olap") == "executed"
        assert second.body != first.body  # content hash is embedded
        assert second.header("X-Goldcase-Stale") is None

    def test_delete_invalidates_aggregates(self, app):
        assert app.handle("GET", QUERY).status == 200
        assert app.handle("DELETE", "/models/sales").status == 200
        assert app.handle("GET", QUERY).status == 404
        assert app.olap.cache.stats()["entries"] == 0


def oracle(app, fmt: str) -> bytes:
    """:data:`QUERY`'s answer in *fmt*, executed and rendered offline."""
    record = app.store.get("sales")
    params = {"fact": "Sales", "measure": "qty:SUM", "dice": "Time@Month",
              "seed": "1"}
    spec = resolve_query(parse_query(params), record.model)
    star = synthesize_star(record.model, record.content_hash, spec.seed,
                           SMALL)
    result = CubeEngine(star).execute(spec.to_cube(record.model))
    payload = result_payload(record.model, record.content_hash, spec,
                             result, dataset=star.summary())
    return render_json(payload) if fmt == "json" else render_xml(payload)


def _counters(app) -> dict:
    stats = app.olap.cache.stats()
    return {key: stats[key]
            for key in ("executions", "failures", "stale_served")}


class TestXmlView:
    """The XML is rendered from the stored JSON on the first XML
    request (DESIGN.md §16.8)."""

    def test_sixteen_concurrent_cold_xml_requests(self, app, xml_renders):
        barrier = threading.Barrier(16)
        responses: list = [None] * 16

        def ask(slot: int) -> None:
            barrier.wait()
            responses[slot] = app.handle("GET", QUERY + "&format=xml")

        threads = [threading.Thread(target=ask, args=(slot,))
                   for slot in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert app.olap.cache.stats()["executions"] == 1
        assert len(xml_renders) == 1
        assert {r.status for r in responses} == {200}
        assert {r.body for r in responses} == {oracle(app, "xml")}
        assert len({r.header("ETag") for r in responses}) == 1

    def test_transform_fault_fails_only_the_xml_request(self, app):
        assert app.handle("GET", QUERY).status == 200
        before = _counters(app)
        with injected_faults(FaultPlan().add("xslt.transform")):
            failed = app.handle("GET", QUERY + "&format=xml")
            served = app.handle("GET", QUERY)
        assert failed.status == 500
        assert failed.json["kind"] == "olap"
        assert "XML rendering failed" in failed.json["error"]
        assert served.status == 200
        assert served.header("X-Goldcase-Olap") == "hit"
        assert served.body == oracle(app, "json")
        assert _counters(app) == before
        # Nothing was stored: the next XML request renders it.
        retried = app.handle("GET", QUERY + "&format=xml")
        assert retried.status == 200
        assert retried.body == oracle(app, "xml")
        assert _counters(app) == before

    def test_cold_xml_request_under_transform_fault_stores_the_json(
            self, app):
        with injected_faults(FaultPlan().add("xslt.transform")):
            assert app.handle("GET", QUERY + "&format=xml").status == 500
        assert _counters(app) == {"executions": 1, "failures": 0,
                                  "stale_served": 0}
        served = app.handle("GET", QUERY)
        assert served.header("X-Goldcase-Olap") == "hit"
        assert served.body == oracle(app, "json")

    def test_conditional_xml_get_304(self, app, xml_renders):
        etag = app.handle("GET", QUERY + "&format=xml").header("ETag")
        again = app.handle("GET", QUERY + "&format=xml",
                           {"If-None-Match": etag})
        assert again.status == 304
        assert again.header("ETag") == etag
        assert len(xml_renders) == 1
        # A process that has not rendered the XML yet (another worker,
        # a restart) derives it to answer the conditional request.
        other = ModelRepositoryApp(olap=OlapService(dataset=SMALL))
        other.handle("PUT", "/models/sales", {}, SALES_XML)
        assert other.handle("GET", QUERY + "&format=xml",
                            {"If-None-Match": etag}).status == 304
        assert len(xml_renders) == 2


class TestSchemaAndStats:
    def test_schema_lists_the_queryable_surface(self, app):
        response = app.handle("GET", "/olap/sales/schema")
        assert response.status == 200
        payload = response.json
        facts = {fact["name"] for fact in payload["facts"]}
        assert facts == {"Sales"}
        dimensions = {d["name"] for fact in payload["facts"]
                      for d in fact["dimensions"]}
        assert dimensions == {"Time", "Store", "Product"}
        assert payload["aggregations"]
        assert payload["operators"]
        assert payload["cubes"][0]["id"] == "c46-dice-slice"

    def test_schema_etag_tracks_the_content_hash(self, app):
        etag = app.handle("GET", "/olap/sales/schema").header("ETag")
        cached = app.handle("GET", "/olap/sales/schema",
                            {"If-None-Match": etag})
        assert cached.status == 304
        stamped = SALES_XML.replace(b"Sales DW", b"Sales DW v2")
        app.handle("PUT", "/models/sales", {}, stamped)
        fresh = app.handle("GET", "/olap/sales/schema",
                           {"If-None-Match": etag})
        assert fresh.status == 200
        assert fresh.header("ETag") != etag

    def test_stats_counts_hits_and_executions(self, app):
        app.handle("GET", QUERY)
        app.handle("GET", QUERY)
        response = app.handle("GET", "/olap/sales/stats")
        assert response.status == 200
        stats = response.json
        assert stats["aggregates"]["executions"] == 1
        assert stats["aggregates"]["hits"] == 1
        assert stats["datasets"]["currsize"] == 1

    def test_metrics_exposes_the_aggregate_cache(self, app):
        app.handle("GET", QUERY)
        app.handle("GET", QUERY)
        text = app.handle("GET", "/metrics").body.decode("utf-8")
        assert 'goldcase_cache_hits_total{cache="olap.aggregates"} 1' \
            in text
        assert 'goldcase_cache_misses_total{cache="olap.aggregates"} 1' \
            in text

    def test_index_advertises_olap_routes(self, app):
        endpoints = app.handle("GET", "/").json["endpoints"]
        assert any("/olap/" in endpoint for endpoint in endpoints)


class TestLiveClientHelpers:
    @pytest.fixture(scope="class")
    def server(self):
        app = ModelRepositoryApp(olap=OlapService(dataset=SMALL))
        with ModelServer(app) as running:
            response = running.app.handle(
                "PUT", "/models/sales", {}, SALES_XML)
            assert response.status == 201
            yield running

    def test_query_cube_get_and_post_agree(self, server):
        with RepositoryClient(server.host, server.port) as client:
            params = {"fact": "Sales", "measure": "qty:SUM",
                      "dice": "Time@Month", "seed": 1}
            get = client.query_cube("sales", params)
            assert get.status == 200
            canonical = json.loads(get.body)["query"]
            post = client.query_cube("sales", body=canonical)
            assert post.status == 200
            assert post.body == get.body
            assert post.header("X-Goldcase-Olap") == "hit"

    def test_query_cube_repeats_list_valued_parameters(self, server):
        with RepositoryClient(server.host, server.port) as client:
            response = client.query_cube("sales", {
                "fact": "Sales", "measure": "qty:SUM",
                "slice": ['Product.product_name NOTEQ "unknown"',
                          "Sales.qty GT 2"]})
            assert response.status == 200
            assert len(json.loads(response.body)["query"]["slice"]) == 2

    def test_query_cube_format_xml(self, server):
        with RepositoryClient(server.host, server.port) as client:
            response = client.query_cube(
                "sales", {"fact": "Sales", "measure": "qty:SUM"},
                format="xml")
            assert response.status == 200
            assert response.body.startswith(b"<?xml")
            assert b"<olap-result" in response.body

    def test_olap_stats_helper(self, server):
        with RepositoryClient(server.host, server.port) as client:
            client.query_cube("sales", {"fact": "Sales",
                                        "measure": "qty:SUM"})
            stats = client.olap_stats("sales")
            assert stats.status == 200
            payload = json.loads(stats.body)
            assert payload["model"] == "sales"
            assert payload["aggregates"]["entries"] >= 1

    def test_params_and_body_together_is_a_client_error(self, server):
        with RepositoryClient(server.host, server.port) as client:
            with pytest.raises(ValueError):
                client.query_cube("sales", {"fact": "Sales"},
                                  body={"fact": "Sales"})
