"""Fixtures shared across test packages."""

from __future__ import annotations

import threading
import time

import pytest

from repro.olap.service import service as service_module


@pytest.fixture()
def xml_renders(monkeypatch):
    """Calls of ``render_xml`` through the OLAP service module, each
    held 50 ms so that concurrent requests pile up behind the first."""
    calls = []
    real = service_module.render_xml

    def counting(payload):
        calls.append(threading.get_ident())
        time.sleep(0.05)
        return real(payload)

    monkeypatch.setattr(service_module, "render_xml", counting)
    return calls
