"""Seed-replayable random workload generators.

Every generator is a pure function of a ``random.Random`` instance, so
the CLI (``python -m repro.testkit.run``) can reproduce any failing
iteration from ``(seed, iteration)`` alone.  The Hypothesis strategies
in :mod:`repro.testkit.strategies` are thin wrappers over these same
functions, which keeps the shrinking path and the fuzzing path on
identical generation code.

Three workload families:

* :func:`random_model` — GOLD models honouring the §2 metamodel
  constraints (one {OID} per carrier, rooted acyclic hierarchies,
  additivity only over shared dimensions, well-formed cubes), so the
  pipeline harness can demand a *clean* run end to end;
* :func:`random_document` / :func:`random_mutations` — generic XML
  trees plus mutation scripts (append/insert/remove/reattach/…) that
  hammer the version-stamped cache invalidation of the DOM;
* :func:`random_xpath` — expressions built from a grammar whose every
  production is supported by both the optimized and the reference
  evaluator;
* :func:`random_model_edit_script` — designer-shaped edit scripts over
  a model document (renames, flag toggles, measure adds, whole-unit
  clone/drop) that drive the incremental-republish differential;
* :func:`random_query_spec` — OLAP queries over a populated star (0-3
  dice axes at any level, fact/dimension/level slices whose values come
  from the data, now and then an aggregation the additivity rules
  forbid) for the cube-engine-vs-sqlite3 differential.
"""

from __future__ import annotations

import random
import string
from typing import Sequence

from ..mdm.builder import ModelBuilder
from ..mdm.enums import AggregationKind, Multiplicity
from ..mdm.model import GoldModel
from ..olap.service.query import QuerySpec
from ..olap.star import StarSchema
from ..xml.dom import (
    Comment,
    Document,
    DOMError,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)
from .reference import iter_tree_nodes

__all__ = [
    "random_model",
    "random_document",
    "random_mutations",
    "apply_mutation",
    "random_model_edit_script",
    "apply_model_edit",
    "random_xpath",
    "random_query_spec",
    "MUTATION_KINDS",
    "MODEL_EDIT_KINDS",
    "DOCUMENT_TAGS",
    "DOCUMENT_ATTRS",
]

#: Text alphabet matching the existing round-trip property tests:
#: markup characters stress escaping, but no raw newlines/tabs, which
#: the XML attribute-value normalization would rewrite on reparse.
_TEXT_ALPHABET = string.ascii_letters + string.digits + " '&<>\""

_AGGREGATIONS = tuple(AggregationKind)

#: Vocabulary for the generic XML documents (small on purpose, so that
#: generated XPath name tests actually hit something).
DOCUMENT_TAGS = ("a", "b", "c", "item", "row")
DOCUMENT_ATTRS = ("id", "name", "k")
_NS_PREFIXES = ("p", "q", "")
_NS_URIS = ("urn:x", "urn:y", "")


def _random_text(rng: random.Random, max_length: int = 12) -> str:
    length = rng.randrange(max_length + 1)
    return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(length))


def _random_name(rng: random.Random, prefix: str, index: int) -> str:
    return f"{prefix}{index}_" + "".join(
        rng.choice(string.ascii_lowercase) for _ in range(rng.randrange(1, 5)))


# -- GOLD models ------------------------------------------------------------

def random_model(rng: random.Random, *, max_facts: int = 2,
                 max_dimensions: int = 3, max_levels: int = 3,
                 max_measures: int = 3, max_cubes: int = 2) -> GoldModel:
    """A random GOLD model that satisfies every §2 semantic constraint.

    Hierarchy edges are generated only from the dimension root or from a
    lower-indexed level to a higher-indexed one, which guarantees a DAG
    rooted in the dimension class; every attribute carrier gets exactly
    one {OID} attribute and one {D} descriptor; additivity rules and
    dice groupings only reference dimensions the fact actually shares.
    """
    builder = ModelBuilder(
        _random_name(rng, "Model", rng.randrange(100)),
        description=_random_text(rng))

    dimension_builders = []
    level_names: list[list[str]] = []
    for d in range(rng.randrange(1, max_dimensions + 1)):
        dimension = builder.dimension(
            _random_name(rng, "Dim", d), is_time=(d == 0),
            description=_random_text(rng))
        dimension.attribute(f"d{d}_id", type_="Number", oid=True)
        dimension.attribute(f"d{d}_name", descriptor=True)
        if rng.random() < 0.3:
            dimension.method(f"d{d}_op", return_type="String")
        names: list[str] = []
        for lv in range(rng.randrange(0, max_levels + 1)):
            name = _random_name(rng, f"D{d}L", lv)
            (dimension.level(name, description=_random_text(rng))
             .attribute(f"{name}_id", type_="Number", oid=True)
             .attribute(f"{name}_name", descriptor=True)
             .done())
            names.append(name)
        # Rooted DAG: each level gets at least one incoming edge, either
        # from the dimension class itself or from a strictly lower level.
        for index, name in enumerate(names):
            if index == 0 or rng.random() < 0.5:
                dimension.relate_root(
                    name, completeness=rng.choice((None, True, False)))
            else:
                source = names[rng.randrange(index)]
                strict = rng.random() < 0.8
                dimension.relate(
                    source, name,
                    role_a=(Multiplicity.ONE if strict
                            else Multiplicity.MANY),
                    role_b=Multiplicity.MANY,
                    completeness=rng.choice((None, True)))
        if rng.random() < 0.25:
            (dimension.level(_random_name(rng, f"D{d}Cat", 0),
                             categorization=True)
             .attribute(f"d{d}_extra")
             .done())
        dimension_builders.append(dimension)
        level_names.append(names)

    fact_builders = []
    for f in range(rng.randrange(1, max_facts + 1)):
        fact = builder.fact(_random_name(rng, "Fact", f),
                            description=_random_text(rng))
        measures = []
        for m in range(rng.randrange(1, max_measures + 1)):
            name = _random_name(rng, f"f{f}m", m)
            derived = rng.random() < 0.2
            fact.measure(name, derived=derived,
                         derivation_rule="a * b" if derived else "")
            measures.append(name)
        if rng.random() < 0.5:
            fact.degenerate(f"f{f}_ticket")
        if rng.random() < 0.2:
            fact.method(f"f{f}_op")
        shared = [d for d in dimension_builders if rng.random() < 0.8]
        if not shared:
            shared = [rng.choice(dimension_builders)]
        for dimension in shared:
            if rng.random() < 0.2:
                fact.many_to_many(dimension)
            else:
                fact.uses(dimension)
            if rng.random() < 0.4:
                allowed = [k for k in _AGGREGATIONS if rng.random() < 0.5]
                fact.additivity(rng.choice(measures), dimension,
                                is_not=not allowed and rng.random() < 0.5,
                                allow=allowed)
        fact_builders.append((fact, measures, shared))

    for c in range(rng.randrange(0, max_cubes + 1)):
        fact, measures, shared = rng.choice(fact_builders)
        diceable = [
            (dimension, level_names[dimension_builders.index(dimension)])
            for dimension in shared
            if level_names[dimension_builders.index(dimension)]
        ]
        dice_dimension = None
        if diceable and rng.random() < 0.7:
            dice_dimension, names = rng.choice(diceable)
        # A cube aggregation must be permitted by the measure's
        # additivity rules along every diced dimension (§2); a measure
        # whose rule forbids everything cannot appear in the cube.
        candidates: list[tuple[str, AggregationKind]] = []
        for measure in measures:
            allowed = set(_AGGREGATIONS)
            if dice_dimension is not None:
                allowed &= fact.fact.attribute(measure).allowed_aggregations(
                    dice_dimension.dimension.id)
            if allowed:
                candidates.append(
                    (measure, rng.choice(sorted(allowed,
                                                key=lambda k: k.value))))
        if not candidates:
            continue
        chosen = [mc for mc in candidates if rng.random() < 0.6] \
            or [candidates[0]]
        cube = builder.cube(_random_name(rng, "Cube", c), fact,
                            measures=[m for m, _ in chosen],
                            aggregations=[a for _, a in chosen],
                            description=_random_text(rng))
        if dice_dimension is not None:
            from ..mdm.cubes import DiceGrouping

            level = dice_dimension.dimension.level(rng.choice(names))
            builder.replace_cube(cube, cube.dice(
                [DiceGrouping(dice_dimension.dimension.id, level.id)]))

    return builder.build()


# -- generic XML documents --------------------------------------------------

def _fill_element(rng: random.Random, element: Element, depth: int,
                  max_children: int) -> None:
    for name in DOCUMENT_ATTRS:
        if rng.random() < 0.4:
            element.set_attribute(name, _random_text(rng, 6))
    if rng.random() < 0.15:
        prefix = rng.choice(_NS_PREFIXES)
        uri = rng.choice(_NS_URIS)
        if prefix or uri:
            element.declare_namespace(prefix, uri or "urn:default")
    if depth <= 0:
        return
    for _ in range(rng.randrange(max_children + 1)):
        roll = rng.random()
        if roll < 0.55:
            child = Element(rng.choice(DOCUMENT_TAGS))
            element.append_child(child)
            _fill_element(rng, child, depth - 1, max_children)
        elif roll < 0.85:
            element.append_child(Text(_random_text(rng) or "t"))
        elif roll < 0.95:
            element.append_child(Comment(_random_text(rng, 6)))
        else:
            element.append_child(
                ProcessingInstruction("pi", _random_text(rng, 6)))


def random_document(rng: random.Random, *, max_depth: int = 4,
                    max_children: int = 4) -> Document:
    """A random generic XML document (elements, text, comments, PIs)."""
    document = Document()
    if rng.random() < 0.2:
        document.append_child(Comment("prolog"))
    root = Element(rng.choice(DOCUMENT_TAGS))
    document.append_child(root)
    _fill_element(rng, root, max_depth, max_children)
    if rng.random() < 0.1:
        document.append_child(ProcessingInstruction("end", "marker"))
    return document


# -- DOM mutation scripts ---------------------------------------------------

#: Every mutating entry point of the DOM (plus the documented
#: direct-splice contract) appears here, so a stale-cache bug in any one
#: of them is reachable from a generated script.
MUTATION_KINDS = (
    "append", "insert", "remove", "reattach", "reorder",
    "set_attr", "remove_attr", "declare_ns", "splice",
)


def random_mutations(rng: random.Random, count: int = 16
                     ) -> list[tuple[str, int, int, int]]:
    """A replayable mutation script: ``(kind, a, b, c)`` opcode tuples.

    The integer operands are resolved against the *current* tree state
    by :func:`apply_mutation` (modulo the number of available targets),
    so the same script is meaningful on any document pool and the
    script alone fully determines the mutations.
    """
    big = 1 << 30
    return [
        (rng.choice(MUTATION_KINDS), rng.randrange(big), rng.randrange(big),
         rng.randrange(big))
        for _ in range(count)
    ]


def _parents(document: Document) -> list[Node]:
    return [n for n in iter_tree_nodes(document, attributes=False)
            if isinstance(n, (Document, Element))]


def _elements(document: Document) -> list[Element]:
    return [n for n in iter_tree_nodes(document, attributes=False)
            if isinstance(n, Element)]


def apply_mutation(pool: Sequence[Document],
                   op: tuple[str, int, int, int]) -> str:
    """Apply one opcode to the document pool; returns a description.

    Structurally impossible picks (text under a document, a second root
    element, moving a node into its own subtree) raise ``DOMError``
    inside the DOM and are reported as no-ops — real call sites hit the
    same guards, so skipping keeps the script aligned with reality.
    """
    kind, a, b, c = op
    document = pool[a % len(pool)]
    try:
        if kind == "append":
            parents = _parents(document)
            parent = parents[b % len(parents)]
            choice = c % 3
            if choice == 0:
                child: Node = Element(DOCUMENT_TAGS[c % len(DOCUMENT_TAGS)])
            elif choice == 1:
                child = Text(f"t{c % 100}")
            else:
                child = Comment(f"c{c % 100}")
            parent.append_child(child)
            return f"append {child.kind} under {parent.kind}"
        if kind == "insert":
            parents = [p for p in _parents(document) if p.children]
            if not parents:
                return "insert: no-op (no populated parents)"
            parent = parents[b % len(parents)]
            reference = parent.children[c % len(parent.children)]
            parent.insert_before(
                Element(DOCUMENT_TAGS[c % len(DOCUMENT_TAGS)]), reference)
            return f"insert element before child {c % len(parent.children)}"
        if kind == "remove":
            parents = [p for p in _parents(document) if p.children]
            if not parents:
                return "remove: no-op (no populated parents)"
            parent = parents[b % len(parents)]
            child = parent.children[c % len(parent.children)]
            parent.remove_child(child)
            return f"remove {child.kind} from {parent.kind}"
        if kind == "reattach":
            target_doc = pool[(a + 1) % len(pool)]
            movable = [e for e in _elements(document)
                       if e.parent is not None]
            if not movable:
                return "reattach: no-op (no movable elements)"
            element = movable[b % len(movable)]
            targets = _parents(target_doc)
            target = targets[c % len(targets)]
            target.append_child(element)
            return f"reattach <{element.name}> into other document"
        if kind == "reorder":
            parents = [p for p in _parents(document)
                       if len(p.children) >= 2]
            if not parents:
                return "reorder: no-op"
            parent = parents[b % len(parents)]
            child = parent.children[c % len(parent.children)]
            first = parent.children[0]
            if child is first:
                return "reorder: no-op (already first)"
            parent.remove_child(child)
            parent.insert_before(child, first)
            return f"reorder {child.kind} to front"
        if kind == "set_attr":
            elements = _elements(document)
            if not elements:
                return "set_attr: no-op"
            element = elements[b % len(elements)]
            name = DOCUMENT_ATTRS[c % len(DOCUMENT_ATTRS)]
            element.set_attribute(name, f"v{c % 10}")
            return f"set @{name} on <{element.name}>"
        if kind == "remove_attr":
            elements = [e for e in _elements(document) if e.attributes]
            if not elements:
                return "remove_attr: no-op"
            element = elements[b % len(elements)]
            attr = element.attributes[c % len(element.attributes)]
            element.remove_attribute(attr.name)
            return f"remove @{attr.name} from <{element.name}>"
        if kind == "declare_ns":
            elements = _elements(document)
            if not elements:
                return "declare_ns: no-op"
            element = elements[b % len(elements)]
            prefix = _NS_PREFIXES[c % len(_NS_PREFIXES)]
            uri = _NS_URIS[(c // 3) % len(_NS_URIS)]
            element.declare_namespace(prefix, uri)
            return f"declare xmlns:{prefix or ''}={uri!r} on <{element.name}>"
        if kind == "splice":
            parents = [p for p in _parents(document)
                       if len(p.children) >= 2]
            if not parents:
                return "splice: no-op"
            parent = parents[b % len(parents)]
            # The documented contract for direct children manipulation:
            # callers must invoke _children_changed() themselves.
            parent.children.reverse()
            parent._children_changed()
            return f"splice-reverse children of {parent.kind}"
        raise ValueError(f"unknown mutation kind {kind!r}")
    except DOMError as exc:
        return f"{kind}: no-op ({exc})"


# -- GOLD model edit scripts ------------------------------------------------

#: Designer-shaped edits over a model *document*, spanning every
#: incremental-republish regime: attribute tweaks inside one unit
#: (dirty-page republish), model-level toggles (everything dirties),
#: and whole-unit clone/drop (structural → full-publish fallback).
MODEL_EDIT_KINDS = (
    "rename", "describe", "toggle", "add_measure", "drop_child",
    "clone_unit", "drop_unit",
)

#: Unit-rooting tags, mirrored from :mod:`repro.web.incremental` (a
#: value import would drag the publishing stack into the generators).
_UNIT_TAGS = ("factclass", "dimclass", "cubeclass", "asoclevel", "catlevel")


def random_model_edit_script(rng: random.Random, count: int = 6
                             ) -> list[tuple[str, int, int, int]]:
    """A replayable model edit script: ``(kind, a, b, c)`` opcode tuples.

    Like :func:`random_mutations`, the integer operands are resolved
    against the *current* model by :func:`apply_model_edit`, so the
    script alone (plus the starting model) fully determines the edits.
    """
    big = 1 << 30
    return [
        (rng.choice(MODEL_EDIT_KINDS), rng.randrange(big),
         rng.randrange(big), rng.randrange(big))
        for _ in range(count)
    ]


def _unused_id(elements: Sequence[Element], candidate: str) -> str:
    """*candidate*, suffixed until it collides with no existing @id.

    Duplicate ids would collide page hrefs (every unit publishes to
    ``{@id}.html``), turning an edit into a publish error instead of a
    model variation.
    """
    existing = {e.get_attribute("id") for e in elements}
    while candidate in existing:
        candidate += "x"
    return candidate


def _clone_element(element: Element) -> Element:
    clone = Element(element.name)
    for attribute in element.attributes:
        clone.set_attribute(attribute.name, attribute.value)
    for child in element.children:
        if isinstance(child, Element):
            clone.append_child(_clone_element(child))
    return clone


def apply_model_edit(model: GoldModel,
                     op: tuple[str, int, int, int]) -> tuple[GoldModel, str]:
    """Apply one edit opcode to *model*; returns ``(new_model, what)``.

    The edit happens on the serialized document (the form a web-based
    editor would manipulate, §5) and is parsed back through
    :func:`~repro.mdm.xml_io.document_to_model`; an edit the parser
    rejects is reported as a no-op, keeping scripts aligned with what
    the CASE tool would actually accept.
    """
    from ..mdm.errors import ModelStructureError
    from ..mdm.xml_io import document_to_model, model_to_document

    kind, a, b, c = op
    document = model_to_document(model)
    root = document.root_element
    assert root is not None
    elements = list(root.iter_elements())
    units = [e for e in elements if e.name in _UNIT_TAGS]

    if kind == "rename":
        named = [e for e in elements if e.get_attribute("name") is not None]
        target = named[a % len(named)]
        target.set_attribute("name", f"Renamed {b % 50}")
        description = f"rename <{target.name}> to 'Renamed {b % 50}'"
    elif kind == "describe":
        target = ([root] + units)[a % (len(units) + 1)]
        target.set_attribute("description", f"edited description {b % 50}")
        description = f"describe <{target.name}>"
    elif kind == "toggle":
        flags: list[tuple[Element, str]] = [
            (root, "showatts"), (root, "showmethods")]
        flags.extend((e, "atomic") for e in elements
                     if e.name == "factatt")
        target, name = flags[a % len(flags)]
        flipped = "no" if target.get_attribute(name) == "yes" else "yes"
        target.set_attribute(name, flipped)
        description = f"toggle @{name} on <{target.name}> to {flipped}"
    elif kind == "add_measure":
        facts = [e for e in elements if e.name == "factclass"]
        fact = facts[a % len(facts)]
        atts = fact.find("factatts")
        if atts is None:
            atts = Element("factatts")
            fact.append_child(atts)
        new_id = _unused_id(elements, f"genm{b % 1000}")
        measure = Element("factatt")
        measure.set_attribute("id", new_id)
        measure.set_attribute("name", f"Generated Measure {b % 1000}")
        measure.set_attribute("type", "Number")
        measure.set_attribute("isoid", "no")
        measure.set_attribute("isderived", "no")
        measure.set_attribute("atomic", "yes")
        atts.append_child(measure)
        description = f"add factatt {new_id} to {fact.get_attribute('id')}"
    elif kind == "drop_child":
        droppable = [e for e in elements
                     if e.name in ("factatt", "additivity", "method",
                                   "sharedagg")
                     and e.parent is not None]
        if not droppable:
            return model, "drop_child: no-op (nothing droppable)"
        target = droppable[a % len(droppable)]
        target.parent.remove_child(target)
        description = f"drop <{target.name}> " \
                      f"(id={target.get_attribute('id')})"
    elif kind == "clone_unit":
        cubes = [e for e in elements if e.name == "cubeclass"]
        if not cubes:
            return model, "clone_unit: no-op (no cube classes)"
        source = cubes[a % len(cubes)]
        new_id = _unused_id(elements, f"genc{b % 1000}")
        clone = _clone_element(source)
        clone.set_attribute("id", new_id)
        clone.set_attribute("name", f"Cloned Cube {b % 1000}")
        source.parent.append_child(clone)
        description = f"clone cubeclass {source.get_attribute('id')} " \
                      f"as {new_id}"
    elif kind == "drop_unit":
        cubes = [e for e in elements if e.name == "cubeclass"]
        if not cubes:
            return model, "drop_unit: no-op (no cube classes)"
        target = cubes[a % len(cubes)]
        container = target.parent
        container.remove_child(target)
        if not any(isinstance(child, Element)
                   for child in container.children):
            container.parent.remove_child(container)
        description = f"drop cubeclass {target.get_attribute('id')}"
    else:
        raise ValueError(f"unknown model edit kind {kind!r}")

    try:
        return document_to_model(document), description
    except ModelStructureError as exc:
        return model, f"{kind}: no-op ({exc})"


# -- XPath expressions ------------------------------------------------------

_AXIS_POOL = (
    "child", "child", "child", "descendant", "descendant-or-self",
    "self", "parent", "ancestor", "ancestor-or-self",
    "following-sibling", "preceding-sibling", "following", "preceding",
    "attribute", "namespace",
)


def _random_predicate(rng: random.Random,
                      element_names: Sequence[str],
                      attr_names: Sequence[str]) -> str:
    roll = rng.randrange(8)
    if roll == 0:
        return f"[{rng.randrange(1, 4)}]"
    if roll == 1:
        return "[last()]"
    if roll == 2:
        return f"[position() != {rng.randrange(1, 4)}]"
    if roll == 3:
        return f"[@{rng.choice(attr_names)}]"
    if roll == 4:
        return f"[{rng.choice(element_names)}]"
    if roll == 5:
        return f"[@{rng.choice(attr_names)} = 'v{rng.randrange(10)}']"
    if roll == 6:
        return f"[not(self::{rng.choice(element_names)})]"
    return "[count(child::*) > 1]"


def _random_step(rng: random.Random, element_names: Sequence[str],
                 attr_names: Sequence[str]) -> str:
    axis = rng.choice(_AXIS_POOL)
    if axis == "attribute":
        test = rng.choice(tuple(attr_names) + ("*",))
    elif axis == "namespace":
        test = rng.choice(("*", "node()"))
    else:
        roll = rng.randrange(10)
        if roll < 6:
            test = rng.choice(element_names)
        elif roll < 7:
            test = "*"
        elif roll < 8:
            test = "node()"
        elif roll < 9:
            test = "text()"
        else:
            test = "comment()"
    step = f"{axis}::{test}"
    if axis != "namespace" and rng.random() < 0.4:
        step += _random_predicate(rng, element_names, attr_names)
    return step


def random_xpath(rng: random.Random, *,
                 element_names: Sequence[str] = DOCUMENT_TAGS,
                 attr_names: Sequence[str] = DOCUMENT_ATTRS,
                 max_steps: int = 3) -> str:
    """A random XPath expression over the generic-document vocabulary.

    Produces location paths (relative, absolute and ``//``-abbreviated),
    unions, and occasional scalar wrappers (``count``/``sum``), all
    within the XPath 1.0 subset both evaluators implement.
    """
    def path() -> str:
        steps = [_random_step(rng, element_names, attr_names)
                 for _ in range(rng.randrange(1, max_steps + 1))]
        separators = [rng.choice(("/", "//")) for _ in steps[1:]]
        text = steps[0]
        for separator, step in zip(separators, steps[1:]):
            text += separator + step
        lead = rng.randrange(3)
        if lead == 0:
            return "/" + text
        if lead == 1:
            return "//" + text
        return text

    expression = path()
    if rng.random() < 0.25:
        expression = f"{expression} | {path()}"
    if rng.random() < 0.15:
        wrapper = rng.choice(("count", "string", "boolean"))
        expression = f"{wrapper}({expression})"
    return expression


# -- OLAP queries ------------------------------------------------------------

#: Operators for numbers; strings also take the LIKE pair.
_ORDERED_OPERATORS = ("EQ", "NOTEQ", "LT", "GT", "LET", "GET", "IN",
                      "NOTIN")
_TEXT_OPERATORS = _ORDERED_OPERATORS + ("LIKE", "NOTLIKE")

#: Share of measures given an aggregation the additivity rules forbid.
_REJECT_RATE = 0.15


def random_query_spec(model: GoldModel, star: StarSchema,
                      rng: random.Random) -> QuerySpec:
    """A random query over *star*, in canonical :class:`QuerySpec` form.

    Zero to three dice axes, each at the base grain or any level; one to
    three measures, each with an aggregation the additivity rules allow
    along every dice dimension, except that now and then a forbidden
    one is picked where there is one; zero to two slices on a fact
    attribute, a dimension attribute or a level attribute, compared
    with a value taken from the data.
    """
    fact = rng.choice(model.facts)
    dimensions = list(fact.dimension_ids)
    dices = []
    axes = min(len(dimensions), rng.choice((0, 1, 1, 2, 2, 3)))
    for dimension_id in rng.sample(dimensions, axes):
        levels = [level.id for level in
                  model.dimension_class(dimension_id).iter_levels()]
        dices.append((dimension_id, rng.choice([dimension_id] + levels)))

    measures = []
    for attribute in rng.sample(fact.attributes,
                                rng.randint(1, min(3, len(fact.attributes)))):
        allowed = set(_AGGREGATIONS)
        for dimension_id, _level in dices:
            allowed &= attribute.allowed_aggregations(dimension_id)
        forbidden = set(_AGGREGATIONS) - allowed
        pool = forbidden if forbidden and (
            not allowed or rng.random() < _REJECT_RATE) else allowed
        measures.append(
            (attribute.id, rng.choice(sorted(k.value for k in pool))))

    slices = []
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        kind = rng.choice(("fact", "dimension", "level"))
        if kind == "fact":
            attribute = rng.choice(fact.attributes)
            path = f"{fact.id}.{attribute.name}"
            values = [row.values.get(attribute.name)
                      for row in star.facts[fact.id].rows]
        else:
            dimension = model.dimension_class(rng.choice(dimensions))
            if kind == "dimension":
                carriers = [(dimension.id, dimension.attributes)]
            else:
                carriers = [(level.id, level.attributes)
                            for level in dimension.iter_levels()]
            carriers = [(level_id, attributes)
                        for level_id, attributes in carriers if attributes]
            if not carriers:
                continue
            level_id, attributes = rng.choice(carriers)
            attribute = rng.choice(attributes)
            path = (f"{dimension.id}.{attribute.name}" if kind == "dimension"
                    else f"{dimension.id}.{level_id}.{attribute.name}")
            values = [member.attributes.get(attribute.name) for member in
                      star.dimensions[dimension.id].members(level_id)
                      .values()]
        values = sorted({v for v in values if v is not None}, key=repr)
        if values:
            slices.append((path, *_random_comparison(rng, values)))
    return QuerySpec(fact=fact.id, measures=tuple(measures),
                     dices=tuple(dices), slices=tuple(slices))


def _random_comparison(rng: random.Random, values: list
                       ) -> tuple[str, object]:
    """``(operator, value)`` for a slice over the distinct *values*."""
    text = all(isinstance(v, str) for v in values)
    operator = rng.choice(_TEXT_OPERATORS if text else _ORDERED_OPERATORS)
    if operator in ("IN", "NOTIN"):
        return operator, tuple(rng.sample(values,
                                          min(len(values), rng.randint(1, 3))))
    value = rng.choice(values)
    if operator in ("LIKE", "NOTLIKE") and value:
        cut = rng.randrange(len(value))
        value = (value[:cut] + "%" if rng.random() < 0.5
                 else value[:cut] + "_" + value[cut + 1:])
    return operator, value
