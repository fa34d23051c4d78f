"""Result renderings for the OLAP query service (DESIGN.md §16).

One executed :class:`~repro.olap.engine.CubeResult` has two
deterministic byte strings:

* **JSON** — the canonical payload dict serialized with sorted keys;
  non-finite measure values (an ``AVG`` over an empty group is NaN)
  become ``null`` so the body stays strict JSON.  This is what an
  execution stores;
* **XML** — the payload lowered into a ``<cuberesult>`` tree and pushed
  through the repo's own XSLT engine (the paper's presentation
  pipeline, pointed at query results the way ``/dashboard`` points it
  at telemetry).  The service renders it from ``json.loads`` of the
  stored JSON, which gives back the payload exactly (DESIGN.md §16.8).

Determinism matters: the chaos oracle replays queries offline and
compares bytes, and the strong ETags (quoted SHA-256, same scheme as
served pages) are computed from these exact renderings.
"""

from __future__ import annotations

import hashlib
import json
import math

from ...mdm.model import GoldModel
from ...xml.dom import Document, Element, Text
from ..engine import CubeResult
from .query import QuerySpec

__all__ = ["RESULT_XSL", "result_payload", "render_json", "render_xml",
           "result_etag"]

RESULT_XSL = """<?xml version="1.0"?>
<xsl:stylesheet version="1.0"
    xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="xml" indent="yes"/>

  <xsl:template match="/cuberesult">
    <olap-result model="{@model}" content-hash="{@content-hash}"
                 seed="{@seed}" query-key="{@query-key}">
      <header>
        <xsl:for-each select="columns/column">
          <group-level><xsl:value-of select="@name"/></group-level>
        </xsl:for-each>
        <xsl:for-each select="measures/measure">
          <measure aggregation="{@aggregation}">
            <xsl:value-of select="@name"/>
          </measure>
        </xsl:for-each>
      </header>
      <body rows="{@rows}" sliced-out="{@sliced-out}">
        <xsl:for-each select="rows/row">
          <row>
            <xsl:for-each select="g">
              <group>
                <xsl:if test="@null = 'true'">
                  <xsl:attribute name="null">true</xsl:attribute>
                </xsl:if>
                <xsl:value-of select="."/>
              </group>
            </xsl:for-each>
            <xsl:for-each select="m">
              <value measure="{@name}"><xsl:value-of select="."/></value>
            </xsl:for-each>
          </row>
        </xsl:for-each>
      </body>
    </olap-result>
  </xsl:template>
</xsl:stylesheet>
"""


def result_etag(payload: bytes) -> str:
    """Strong ETag: quoted SHA-256, same scheme as served pages."""
    return f'"{hashlib.sha256(payload).hexdigest()}"'


def _json_value(value: object) -> object:
    """Measure values made JSON-strict (non-finite floats → null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def result_payload(model: GoldModel, content_hash: str, spec: QuerySpec,
                   result: CubeResult, *, dataset: dict) -> dict:
    """The JSON-ready result dict both renderings are derived from."""
    fact = model.fact_class(spec.fact)
    return {
        "model": model.name,
        "content_hash": content_hash,
        "seed": spec.seed,
        "query_key": spec.query_key(),
        "query": spec.canonical_dict(),
        "fact": fact.name,
        "columns": list(result.group_levels),
        "measures": [
            {"name": fact.attribute(m).name, "aggregation": a}
            for m, a in spec.measures],
        "rows": [[_json_value(v) for v in row]
                 for row in result.to_rows()],
        "row_count": len(result.rows),
        "sliced_out": result.sliced_out,
        "dataset": dataset,
    }


def render_json(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n") \
        .encode("utf-8")


def _cell_text(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def result_document(payload: dict) -> Document:
    """Lower *payload* into the ``<cuberesult>`` source tree."""
    document = Document()
    root = document.append_child(Element("cuberesult"))
    root.set_attribute("model", payload["model"])
    root.set_attribute("content-hash", payload["content_hash"])
    root.set_attribute("seed", str(payload["seed"]))
    root.set_attribute("query-key", payload["query_key"])
    root.set_attribute("rows", str(payload["row_count"]))
    root.set_attribute("sliced-out", str(payload["sliced_out"]))

    columns = root.append_child(Element("columns"))
    for name in payload["columns"]:
        column = columns.append_child(Element("column"))
        column.set_attribute("name", name)

    measures = root.append_child(Element("measures"))
    for entry in payload["measures"]:
        measure = measures.append_child(Element("measure"))
        measure.set_attribute("name", entry["name"])
        measure.set_attribute("aggregation", entry["aggregation"])

    group_count = len(payload["columns"])
    rows = root.append_child(Element("rows"))
    for values in payload["rows"]:
        row = rows.append_child(Element("row"))
        for value in values[:group_count]:
            cell = row.append_child(Element("g"))
            if value is None:
                # The engine's non-complete "no ancestor" group.
                cell.set_attribute("null", "true")
            else:
                cell.append_child(Text(_cell_text(value)))
        for entry, value in zip(payload["measures"],
                                values[group_count:]):
            cell = row.append_child(Element("m"))
            cell.set_attribute("name", entry["name"])
            cell.append_child(Text(_cell_text(value)))
    return document


_RESULT_TRANSFORMER = None


def render_xml(payload: dict) -> bytes:
    """Render *payload* through the repo's XSLT engine."""
    global _RESULT_TRANSFORMER
    from ...xslt import Transformer, compile_stylesheet

    if _RESULT_TRANSFORMER is None:
        _RESULT_TRANSFORMER = Transformer(
            compile_stylesheet(RESULT_XSL))
    result = _RESULT_TRANSFORMER.transform(result_document(payload))
    return result.serialize().encode("utf-8")
