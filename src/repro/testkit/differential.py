"""Differential checks: optimized engine vs the reference oracles.

Each function returns a list of failure records (dicts); an empty list
means the optimized implementation agreed with the cache-free oracle
everywhere.  Records are plain JSON-serializable data so the CLI can
dump them as reproducers.
"""

from __future__ import annotations

import math
import traceback
from contextlib import closing
from typing import Sequence

from ..xml.dom import Document, Element, NamespaceNode, Node
from ..xpath.errors import XPathError
from ..xpath.evaluator import evaluate
from .generators import apply_mutation
from .reference import (
    describe_node,
    iter_tree_nodes,
    reference_evaluate,
    reference_lookup_namespace,
    reference_order_key,
    reference_sort,
    template_dispatch_disagreements,
)

__all__ = [
    "order_key_mismatches",
    "namespace_mismatches",
    "check_document",
    "warm_caches",
    "run_mutation_differential",
    "xpath_differential",
    "dispatch_differential",
    "sort_differential",
    "compiled_differential",
    "incremental_differential",
    "cube_differential",
    "olap_differential",
    "GENERIC_DIFFERENTIAL_XSL",
]

#: Prefixes probed on every element during namespace differentials (the
#: generator's vocabulary plus the always-bound ``xml``).
_PROBE_PREFIXES = ("", "p", "q", "xml")


def order_key_mismatches(root: Node) -> list[dict]:
    """Compare cached vs recomputed order keys for every node under *root*."""
    mismatches = []
    for node in iter_tree_nodes(root):
        optimized = node.document_order_key()
        reference = reference_order_key(node)
        if optimized != reference:
            mismatches.append({
                "check": "document-order-key",
                "node": describe_node(node),
                "optimized": list(optimized),
                "reference": list(reference),
            })
    return mismatches


def namespace_mismatches(root: Node,
                         prefixes: Sequence[str] = _PROBE_PREFIXES
                         ) -> list[dict]:
    """Compare cached vs recomputed namespace resolution per element."""
    mismatches = []
    for node in iter_tree_nodes(root, attributes=False):
        if not isinstance(node, Element):
            continue
        probe = set(prefixes) | set(node.namespace_declarations)
        for prefix in sorted(probe):
            optimized = node.lookup_namespace(prefix)
            reference = reference_lookup_namespace(node, prefix)
            if optimized != reference:
                mismatches.append({
                    "check": "namespace-lookup",
                    "node": describe_node(node),
                    "prefix": prefix,
                    "optimized": optimized,
                    "reference": reference,
                })
    return mismatches


def check_document(root: Node) -> list[dict]:
    """All per-document differential checks at once."""
    return order_key_mismatches(root) + namespace_mismatches(root)


def warm_caches(root: Node) -> None:
    """Populate every order-key and namespace cache under *root*.

    Mutation differentials call this *before* each mutation so any
    missing invalidation leaves a provably stale cache behind rather
    than an innocently empty one.
    """
    for node in iter_tree_nodes(root):
        node.document_order_key()
        if isinstance(node, Element):
            for prefix in _PROBE_PREFIXES:
                node.lookup_namespace(prefix)


def run_mutation_differential(documents: Sequence[Document],
                              operations: Sequence[tuple[str, int, int, int]]
                              ) -> list[dict]:
    """Apply a mutation script, re-checking every document after each op.

    Caches are deliberately warmed before every mutation: the check is
    not "does the engine compute correct keys" (that is a single-shot
    property) but "does every mutating method invalidate what it must".
    """
    failures = []
    for step, op in enumerate(operations):
        for document in documents:
            warm_caches(document)
        description = apply_mutation(documents, op)
        for index, document in enumerate(documents):
            for mismatch in check_document(document):
                mismatch.update({
                    "step": step,
                    "op": list(op),
                    "mutation": description,
                    "document": index,
                })
                failures.append(mismatch)
    return failures


def _result_token(value: object) -> object:
    """A comparable token for one XPath result item.

    Namespace nodes are materialized fresh on every axis traversal, so
    identity comparison would always fail for them; they compare by
    (owner, prefix, uri) instead.
    """
    if isinstance(value, NamespaceNode):
        return ("namespace", id(value.owner), value.prefix_name, value.uri)
    return id(value)


def xpath_differential(document: Document,
                       expressions: Sequence[str]) -> list[dict]:
    """Evaluate each expression with both evaluators and compare."""
    failures = []
    for expression in expressions:
        try:
            optimized = evaluate(expression, document)
            optimized_error = None
        except XPathError as exc:
            optimized, optimized_error = None, type(exc).__name__
        try:
            reference = reference_evaluate(expression, document)
            reference_error = None
        except XPathError as exc:
            reference, reference_error = None, type(exc).__name__

        if optimized_error or reference_error:
            if optimized_error != reference_error:
                failures.append({
                    "check": "xpath",
                    "expression": expression,
                    "optimized": optimized_error,
                    "reference": reference_error,
                })
            continue

        if isinstance(optimized, list) and isinstance(reference, list):
            agree = [_result_token(n) for n in optimized] == \
                [_result_token(n) for n in reference]
        elif isinstance(optimized, float) and isinstance(reference, float):
            agree = optimized == reference or (
                math.isnan(optimized) and math.isnan(reference))
        else:
            agree = optimized == reference
        if not agree:
            failures.append({
                "check": "xpath",
                "expression": expression,
                "optimized": _describe_value(optimized),
                "reference": _describe_value(reference),
            })
    return failures


def _describe_value(value: object) -> object:
    if isinstance(value, list):
        return [describe_node(n) for n in value]
    return value


def dispatch_differential(document: Document) -> list[dict]:
    """Indexed vs linear template dispatch, over both paper stylesheets."""
    from ..web.publisher import _transformer
    from ..web.stylesheets import MULTI_PAGE_XSL, SINGLE_PAGE_XSL

    failures = []
    for name, text in (("multi", MULTI_PAGE_XSL),
                       ("single", SINGLE_PAGE_XSL)):
        for record in template_dispatch_disagreements(
                _transformer(text), document):
            record.update({"check": "template-dispatch", "stylesheet": name})
            failures.append(record)
    return failures


def sort_differential(root: Node, shuffles: int,
                      rng) -> list[dict]:
    """Shuffle the node list and compare both document-order sorts."""
    from ..xml.dom import sort_document_order

    nodes = list(iter_tree_nodes(root))
    failures = []
    for _ in range(shuffles):
        shuffled = list(nodes)
        rng.shuffle(shuffled)
        optimized = sort_document_order(shuffled)
        reference = reference_sort(shuffled)
        if [id(n) for n in optimized] != [id(n) for n in reference]:
            failures.append({
                "check": "sort-document-order",
                "optimized": [describe_node(n) for n in optimized],
                "reference": [describe_node(n) for n in reference],
            })
    return failures


def _page_divergences(incremental_pages: dict, cold_pages: dict,
                      skip: frozenset) -> list[dict]:
    """Byte-level divergence records between two published sites."""
    records = []
    for href in sorted((set(incremental_pages) | set(cold_pages)) - skip):
        left = incremental_pages.get(href)
        right = cold_pages.get(href)
        if left == right:
            continue
        record = {"page": href}
        if left is None or right is None:
            record["missing_in"] = "incremental" if left is None else "cold"
        else:
            offset = _first_divergence(left, right)
            record.update({
                "offset": offset,
                "incremental": left[offset:offset + 120],
                "cold": right[offset:offset + 120],
            })
        records.append(record)
    return records


def incremental_differential(model, edits: Sequence[tuple[str, int, int, int]]
                             ) -> list[dict]:
    """Replay an edit script, proving every incremental republish
    byte-identical to a cold publish of the same model.

    Chained deliberately: each step's incremental output (bytes *and*
    refreshed dependency index) becomes the next step's baseline, so a
    single page that is stale-but-plausible poisons every later step —
    exactly how a CASE tool session would compound the bug.  Odd steps
    round-trip the index through its JSON form first — the dotfile
    scenario — so both diff paths run in every script: the in-memory
    model diff (with its in-place DOM patching) on even steps, the
    serialized-baseline document diff on odd ones.  The first record
    for a step names the edit and the diverging page, which is the
    whole reproducer: ``(seed, iteration, step)`` replays it.
    """
    from ..web.incremental import (
        DependencyIndex,
        publish_with_index,
        republish_incremental,
    )
    from ..web.publisher import PROFILE_PAGE, publish_multi_page
    from .generators import apply_model_edit

    # The profile page is additive instrumentation (timings differ run
    # to run by design); everything else must match to the byte.
    skip = frozenset({PROFILE_PAGE})
    failures: list[dict] = []

    site, index = publish_with_index(model)
    for record in _page_divergences(dict(site.pages),
                                    dict(publish_multi_page(model).pages),
                                    skip):
        record.update({"check": "tracked-publish", "model": model.name})
        failures.append(record)

    current = model
    previous_pages = dict(site.pages)
    for step, op in enumerate(edits):
        current, description = apply_model_edit(current, op)
        if step % 2 == 1:
            index = DependencyIndex.from_json(index.to_json())
        new_site, index, info = republish_incremental(
            current, previous_pages, index)
        cold = publish_multi_page(current)
        for record in _page_divergences(dict(new_site.pages),
                                        dict(cold.pages), skip):
            record.update({
                "check": "incremental-byte-identity",
                "step": step,
                "op": list(op),
                "edit": description,
                "mode": info["mode"],
                "fallback_reason": info["reason"],
                "model": current.name,
            })
            failures.append(record)
        previous_pages = dict(new_site.pages)
    return failures


#: Dataset shape for :func:`olap_differential`: small, with more
#: non-strict fan-out and hierarchy gaps than the service default.
OLAP_DATASET = dict(members_per_level=4, rows_per_fact=120,
                    non_strict_fanout=0.5, non_complete_rate=0.2)

#: Queries per :func:`olap_differential` call.
OLAP_QUERIES = 12


def cube_differential(star, specs) -> list[dict]:
    """The cube engine vs the sqlite3 oracle, query by query.

    Group keys, ``sliced_out`` and counts must match exactly; floats to
    ``rel_tol=1e-9``.  A query an additivity rule forbids must make the
    engine raise :class:`~repro.olap.engine.AdditivityError`.
    """
    from ..mdm.enums import AggregationKind
    from ..olap.engine import AdditivityError, CubeEngine
    from .sqloracle import SqlOracle, same_value

    engine = CubeEngine(star)
    with closing(SqlOracle(star)) as oracle:
        expected_answers = [oracle.answer(spec) for spec in specs]
    failures: list[dict] = []
    for spec, expected in zip(specs, expected_answers):
        record = {"check": "olap-sqlite", "query": spec.canonical_dict()}
        try:
            result = engine.execute(spec.to_cube(star.model))
        except AdditivityError as error:
            if not expected.rejected:
                failures.append(dict(record, problem=f"rejected: {error}"))
            continue
        except Exception as error:  # noqa: BLE001 - reported, not raised
            failures.append(dict(record, problem=f"raised {error!r}",
                                 traceback=traceback.format_exc()))
            continue
        if expected.rejected:
            failures.append(dict(
                record, problem="answered a query the additivity rules "
                                "forbid"))
            continue
        if result.sliced_out != expected.sliced_out:
            failures.append(dict(
                record, problem="sliced_out", engine=result.sliced_out,
                oracle=expected.sliced_out))
        if set(result.rows) != set(expected.rows):
            failures.append(dict(
                record, problem="group keys",
                only_engine=sorted(map(repr, set(result.rows)
                                       - set(expected.rows)))[:5],
                only_oracle=sorted(map(repr, set(expected.rows)
                                       - set(result.rows)))[:5]))
            continue
        for key, values in result.rows.items():
            for (measure, aggregation), name, value in zip(
                    spec.measures, result.measure_names,
                    expected.rows[key]):
                if not same_value(AggregationKind(aggregation),
                                  values[name], value):
                    failures.append(dict(
                        record, problem="value", group=repr(key),
                        measure=measure, engine=repr(values[name]),
                        oracle=repr(value)))
    return failures


def olap_differential(model, rng) -> list[dict]:
    """:func:`cube_differential` over a random dataset of *model*.

    Besides the generated rows, each fact table gets rows appended
    without the integrity check: one referencing a member its dimension
    lacks, and one with no member for a dimension.
    """
    from ..olap.service.datagen import DatasetConfig, synthesize_star
    from .generators import random_query_spec

    star = synthesize_star(model, "testkit", rng.randrange(1 << 16),
                           DatasetConfig(**OLAP_DATASET))
    for fact in model.facts:
        table = star.facts[fact.id]
        if not table.rows or not fact.dimension_ids:
            continue
        dimension_id = rng.choice(fact.dimension_ids)
        template = rng.choice(table.rows)
        table.append(dict(template.coordinates, **{dimension_id: "ghost"}),
                     template.values)
        table.append({k: v for k, v in template.coordinates.items()
                      if k != dimension_id}, template.values)
    return cube_differential(star, [random_query_spec(model, star, rng)
                                    for _ in range(OLAP_QUERIES)])


#: Stylesheets exercised by :func:`compiled_differential` on *generic*
#: documents (the mutation pool), where the shipped GOLD sheets would
#: match nothing: an elementwise identity, an HTML tree walk, and a
#: text extraction — one per output method the streaming serializer
#: implements.
_XSLNS = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'
GENERIC_DIFFERENTIAL_XSL = {
    "identity-xml": f"""<xsl:stylesheet version="1.0" {_XSLNS}>
      <xsl:output method="xml" omit-xml-declaration="yes"/>
      <xsl:template match="@* | node()">
        <xsl:copy><xsl:apply-templates select="@* | node()"/></xsl:copy>
      </xsl:template>
    </xsl:stylesheet>""",
    "walk-html": f"""<xsl:stylesheet version="1.0" {_XSLNS}>
      <xsl:output method="html"/>
      <xsl:template match="/">
        <ul><xsl:apply-templates select="*"/></ul>
      </xsl:template>
      <xsl:template match="*">
        <li><b><xsl:value-of select="name()"/></b>
          <xsl:for-each select="@*"> <i>{{name()}}={{.}}</i></xsl:for-each>
          <xsl:if test="*"><ul><xsl:apply-templates select="*"/></ul></xsl:if>
        </li>
      </xsl:template>
    </xsl:stylesheet>""",
    "values-text": f"""<xsl:stylesheet version="1.0" {_XSLNS}>
      <xsl:output method="text"/>
      <xsl:template match="/"><xsl:for-each select="//*">
        <xsl:value-of select="name()"/>=<xsl:value-of select="."/>
      </xsl:for-each></xsl:template>
    </xsl:stylesheet>""",
}


def _first_divergence(compiled: str, interpreted: str) -> int:
    for index, (left, right) in enumerate(zip(compiled, interpreted)):
        if left != right:
            return index
    return min(len(compiled), len(interpreted))


def _shipped_stylesheets(document: Document) -> list[tuple]:
    """(name, text, resolver, params) for every shipped stylesheet."""
    from ..web.stylesheets import (
        MULTI_PAGE_XSL,
        PRESENTATION_XSL,
        SINGLE_PAGE_XSL,
        stylesheet_resolver,
    )
    from ..web.xslfo import MODEL_FO_XSL

    entries = [
        ("multi", MULTI_PAGE_XSL, stylesheet_resolver, None),
        ("single", SINGLE_PAGE_XSL, stylesheet_resolver, None),
        ("fo", MODEL_FO_XSL, stylesheet_resolver, None),
    ]
    fact = next((element for element in document.iter_elements()
                 if element.name == "factclass"), None)
    if fact is not None and fact.get_attribute("id"):
        entries.append(("presentation", PRESENTATION_XSL,
                        stylesheet_resolver,
                        {"factclass": fact.get_attribute("id")}))
    return entries


def compiled_differential(document: Document, *,
                          stylesheets: dict | None = None) -> list[dict]:
    """Compiled streaming renderer vs the DOM interpreter, byte-for-byte.

    With *stylesheets* omitted, *document* is taken to be a GOLD model
    document and every shipped stylesheet runs over it (the
    presentation sheet with the first fact class as its parameter);
    pass :data:`GENERIC_DIFFERENTIAL_XSL` for arbitrary documents.
    The compiled path must also actually engage — a silent interpreter
    fallback on a shipped sheet is itself a failure, because it would
    hollow out every other record this function could produce.
    """
    from ..xslt import CompiledTransformer, compile_stylesheet

    if stylesheets is None:
        entries = _shipped_stylesheets(document)
    else:
        entries = [(name, text, None, None)
                   for name, text in stylesheets.items()]
    failures = []
    for name, text, resolver, params in entries:
        transformer = CompiledTransformer(
            compile_stylesheet(text, resolver=resolver))
        rendered = transformer.render(document, params)
        reference = transformer.transform(document, params).serialize_all()
        if not rendered.used_compiled:
            failures.append({
                "check": "compiled-fallback", "stylesheet": name,
                "error": transformer._compile_error,
            })
            continue
        for href in sorted(set(rendered.pages) | set(reference)):
            compiled_page = rendered.pages.get(href)
            interpreted_page = reference.get(href)
            if compiled_page == interpreted_page:
                continue
            record = {
                "check": "compiled-transform", "stylesheet": name,
                "page": href or "<principal>",
            }
            if compiled_page is None or interpreted_page is None:
                record["missing_in"] = "compiled" \
                    if compiled_page is None else "interpreted"
            else:
                offset = _first_divergence(compiled_page, interpreted_page)
                record.update({
                    "offset": offset,
                    "compiled": compiled_page[offset:offset + 120],
                    "interpreted": interpreted_page[offset:offset + 120],
                })
            failures.append(record)
        if list(rendered.messages) != list(
                transformer.transform(document, params).messages):
            failures.append({"check": "compiled-messages",
                             "stylesheet": name})
    return failures
