"""Property: ETags are content-derived, nothing else (ISSUE 5).

Conditional GET (DESIGN.md §11) is only sound if an ETag is a pure
function of the served bytes: equal bytes must yield equal ETags across
rebuilds, restarts, and independent server instances (or a client's
cached 304 would go stale silently), and different bytes must yield
different ETags (or a client would keep a wrong page).  Hypothesis
drives the check with the testkit's random model generator.
"""

from __future__ import annotations

import hashlib
import random

from hypothesis import given, settings

from repro.mdm import model_to_xml
from repro.server import ModelRepositoryApp
from repro.testkit.strategies import gold_models

_MODELS = gold_models(max_facts=2, max_dimensions=2, max_levels=2)


def _xml(model) -> bytes:
    return model_to_xml(model).encode("utf-8")


def _loaded_app(xml_bytes: bytes) -> ModelRepositoryApp:
    app = ModelRepositoryApp()
    response = app.handle("PUT", "/models/m", {}, xml_bytes)
    assert response.status == 201
    return app


def _site_paths(app: ModelRepositoryApp) -> list[str]:
    """Every page of the (multi-page) published site, plus the raw XML."""
    assert app.handle("GET", "/site/m/index.html").status == 200
    entry = app.cache.peek("m", "multi")
    return ["/models/m"] + sorted(
        f"/site/m/{page}" for page in entry.etags)


def _etag(app: ModelRepositoryApp, path: str) -> str:
    response = app.handle("GET", path)
    assert response.status == 200, (path, response.status)
    etag = response.header("ETag")
    assert etag is not None
    return etag


@settings(max_examples=8, deadline=None)
@given(_MODELS)
def test_equal_bytes_equal_etags_across_instances(model):
    """Two independent 'server processes' holding the same bytes agree
    on every ETag — the restart-safety half of the property."""
    xml_bytes = _xml(model)
    first, second = _loaded_app(xml_bytes), _loaded_app(xml_bytes)
    for path in _site_paths(first):
        assert _etag(first, path) == _etag(second, path)


@settings(max_examples=8, deadline=None)
@given(_MODELS)
def test_equal_bytes_equal_etags_across_rebuilds(model):
    """DELETE + re-PUT of identical bytes rebuilds the site from
    scratch yet reproduces every ETag (revision counters, build order,
    and cache state must not leak in)."""
    xml_bytes = _xml(model)
    app = _loaded_app(xml_bytes)
    paths = _site_paths(app)
    before = {path: _etag(app, path) for path in paths}
    assert app.handle("DELETE", "/models/m").status == 200
    assert app.handle("PUT", "/models/m", {}, xml_bytes).status == 201
    for path in paths:
        assert _etag(app, path) == before[path]


@settings(max_examples=8, deadline=None)
@given(_MODELS, _MODELS)
def test_different_bytes_different_model_etag(model_a, model_b):
    bytes_a, bytes_b = _xml(model_a), _xml(model_b)
    etag_a = _etag(_loaded_app(bytes_a), "/models/m")
    etag_b = _etag(_loaded_app(bytes_b), "/models/m")
    assert (etag_a == etag_b) == (bytes_a == bytes_b)


@settings(max_examples=8, deadline=None)
@given(_MODELS)
def test_page_etag_is_quoted_sha256_of_the_body(model):
    """The strong ETag is exactly the SHA-256 of the served bytes —
    the concrete content function conditional GET relies on."""
    app = _loaded_app(_xml(model))
    for path in _site_paths(app):
        response = app.handle("GET", path)
        assert response.status == 200
        digest = hashlib.sha256(response.body).hexdigest()
        assert response.header("ETag") == f'"{digest}"'


@settings(max_examples=8, deadline=None)
@given(_MODELS)
def test_if_none_match_round_trip(model):
    """A client replaying the ETag it was handed always gets a 304 —
    and still does after a full rebuild of identical bytes."""
    xml_bytes = _xml(model)
    app = _loaded_app(xml_bytes)
    etag = _etag(app, "/site/m/index.html")
    conditional = {"If-None-Match": etag}
    assert app.handle(
        "GET", "/site/m/index.html", conditional).status == 304
    app.handle("DELETE", "/models/m")
    app.handle("PUT", "/models/m", {}, xml_bytes)
    assert app.handle(
        "GET", "/site/m/index.html", conditional).status == 304


@settings(max_examples=6, deadline=None)
@given(_MODELS, _MODELS)
def test_incremental_rebuild_preserves_the_etag_function(model_a, model_b):
    """A warm server that rebuilt v2 incrementally (reusing v1 bytes
    where the diff allows) hands out exactly the ETags a fresh server
    computes for a cold v2 build — reused pages included."""
    bytes_a, bytes_b = _xml(model_a), _xml(model_b)
    warm = _loaded_app(bytes_a)
    assert warm.handle("GET", "/site/m/index.html").status == 200
    assert warm.handle("PUT", "/models/m", {}, bytes_b).status == 200
    cold = _loaded_app(bytes_b)
    paths = _site_paths(cold)
    assert _site_paths(warm) == paths
    for path in paths:
        assert _etag(warm, path) == _etag(cold, path)
    if bytes_a != bytes_b:
        # The warm rebuild went through the incremental path (possibly
        # falling back internally) rather than a plain cold build.
        stats = warm.cache.stats()
        assert stats["incremental"] + stats["incremental_fallback"] >= 1


@settings(max_examples=5, deadline=None)
@given(_MODELS)
def test_etag_function_survives_the_on_disk_build_store(model):
    """ISSUE 10: the property that makes cross-process cache hits safe.
    An app serving from the shared build store — including a second app
    'process' that only ever *loads* the artifact, and a third over a
    reopened store — hands out exactly the ETags an in-memory app
    computes for the same bytes."""
    import tempfile

    from repro.server import BuildStore, make_worker_app

    xml_bytes = _xml(model)
    plain = _loaded_app(xml_bytes)
    paths = _site_paths(plain)
    expected = {path: _etag(plain, path) for path in paths}
    with tempfile.TemporaryDirectory() as root:
        builder = make_worker_app(BuildStore(root))
        assert builder.handle(
            "PUT", "/models/m", {}, xml_bytes).status == 201
        for path in paths:
            assert _etag(builder, path) == expected[path]
        # A peer over the same store, and a revival over a reopened
        # store: both must reproduce the function without rebuilding.
        for peer in (make_worker_app(builder.store.buildstore),
                     make_worker_app(BuildStore(root))):
            for path in paths:
                assert _etag(peer, path) == expected[path]
            assert peer.cache.stats()["rebuilds"] == 0


@settings(max_examples=6, deadline=None)
@given(_MODELS)
def test_designer_edit_script_preserves_the_etag_function(model):
    """Same property along a realistic edit chain: every PUT of an
    edited model yields ETags identical to a cold build of that model."""
    from repro.testkit.generators import (
        apply_model_edit,
        random_model_edit_script,
    )

    rng = random.Random(f"0:{sum(_xml(model)) % 1000}")
    warm = _loaded_app(_xml(model))
    assert warm.handle("GET", "/site/m/index.html").status == 200
    current = accepted = model
    for op in random_model_edit_script(rng, 2):
        current, _ = apply_model_edit(current, op)
        xml_bytes = _xml(current)
        response = warm.handle("PUT", "/models/m", {}, xml_bytes)
        if response.status == 422:
            # The random edit produced a schema-invalid model (e.g. it
            # dropped an attribute a cube still references); the server
            # rightly rejects it and keeps serving the previous build.
            current = accepted
            continue
        assert response.status == 200
        accepted = current
        cold = _loaded_app(xml_bytes)
        paths = _site_paths(cold)
        assert _site_paths(warm) == paths
        for path in paths:
            assert _etag(warm, path) == _etag(cold, path)
