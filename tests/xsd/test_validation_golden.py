"""Golden corpus for the XSD validator: every report and every attribute.

``golden_validation.json`` records, for every input below, what
:func:`repro.xsd.validate` made of it: every issue of the report in
report order (severity, code, message, path, line, column), and a digest
of the validated DOM.  The digest covers every attribute of every
element: its name, its value, its ``specified`` flag (False for an
attribute the validator added from a default or fixed value) and its
``is_id`` flag (set by the validator on attributes of type ID).

The inputs:

* goldmodel documents against the goldmodel schema: the large synthetic
  model the benchmark serves (163 KB), the sales and two-facts example
  models and seeded random models;
* seeded one-edit DOM mutants of the small goldmodel documents: an
  element deleted, duplicated, renamed or moved; an attribute deleted,
  or set to a value from a palette that is invalid, normalized or
  special somewhere; an undeclared attribute or ``xsi:nil="true"``
  added; one character of text inserted;
* seeded documents for one generic schema with list, union and IDREFS
  types, fixed and default attributes, simple content, a nillable
  element, and a composite key, a unique and keyrefs, one key/keyref
  pair declared on a repeated element.

The corpus pins the validator's observable behaviour so a rewrite of
its checking can be checked entry by entry.  Re-record it (only after
an intentional change of what the validator reports) with::

    PYTHONPATH=src python tests/xsd/test_validation_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import pytest

from repro.mdm import model_to_xml, sales_model, synthetic_model, \
    two_facts_model
from repro.mdm.schema_gen import gold_schema
from repro.testkit.generators import random_model
from repro.xml import parse
from repro.xml.dom import Element, Text, clone_node
from repro.xsd import read_schema, validate

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_validation.json")

#: The model ``benchmarks/goldbench`` serves.
LARGE_MODEL = dict(facts=20, dimensions=25, levels_per_dimension=5,
                   measures_per_fact=8)

RANDOM_MODELS = 40
#: Random models that also serve as bases for DOM mutants.
MUTANT_RANDOM_BASES = 10
DOM_MUTANTS = 1200
GENERIC_DOCUMENTS = 200

#: Values a mutant sets an attribute to (besides an existing ID and a
#: fresh name).
ATTRIBUTE_PALETTE = ("", " x ", "maybe", "2002-02-30", "a b", "\u00a0x")

#: Character data a mutant inserts.
TEXT_PALETTE = ("x", " ", "\u00a0")

MUTATIONS = ("delete-element", "duplicate-element", "rename-element",
             "move-element", "delete-attribute", "set-attribute",
             "set-attribute", "add-undeclared-attribute", "add-nil",
             "insert-text")

GENERIC_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Code">
    <xsd:restriction base="xsd:token">
      <xsd:pattern value="[A-Z]{2}[0-9]"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Level">
    <xsd:restriction base="xsd:integer">
      <xsd:minInclusive value="0"/>
      <xsd:maxExclusive value="10"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Codes">
    <xsd:list itemType="Code"/>
  </xsd:simpleType>
  <xsd:simpleType name="Size">
    <xsd:union memberTypes="Level xsd:date">
      <xsd:simpleType>
        <xsd:restriction base="xsd:string">
          <xsd:enumeration value="small"/>
          <xsd:enumeration value="large"/>
        </xsd:restriction>
      </xsd:simpleType>
    </xsd:union>
  </xsd:simpleType>
  <xsd:element name="catalog">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="group" minOccurs="0" maxOccurs="unbounded">
          <xsd:complexType>
            <xsd:sequence>
              <xsd:element name="item" minOccurs="0" maxOccurs="unbounded">
                <xsd:complexType>
                  <xsd:simpleContent>
                    <xsd:extension base="xsd:decimal">
                      <xsd:attribute name="id" type="xsd:ID" use="required"/>
                      <xsd:attribute name="sku" type="Code" use="required"/>
                      <xsd:attribute name="variant" type="Level" default="0"/>
                      <xsd:attribute name="tags" type="Codes"/>
                      <xsd:attribute name="size" type="Size"/>
                      <xsd:attribute name="part" type="xsd:IDREF"/>
                      <xsd:attribute name="unit" type="xsd:string"
                                     fixed="EUR"/>
                    </xsd:extension>
                  </xsd:simpleContent>
                </xsd:complexType>
              </xsd:element>
              <xsd:element name="use" minOccurs="0" maxOccurs="unbounded">
                <xsd:complexType>
                  <xsd:attribute name="sku" type="Code"/>
                  <xsd:attribute name="variant" type="Level"/>
                </xsd:complexType>
              </xsd:element>
              <xsd:element name="note" type="xsd:string" nillable="true"
                           minOccurs="0"/>
            </xsd:sequence>
            <xsd:attribute name="name" type="xsd:NCName" use="required"/>
            <xsd:attribute name="related" type="xsd:IDREFS"/>
            <xsd:attribute name="open" type="xsd:boolean" default="true"/>
          </xsd:complexType>
          <xsd:key name="itemKey">
            <xsd:selector xpath="item"/>
            <xsd:field xpath="@sku"/>
            <xsd:field xpath="@variant"/>
          </xsd:key>
          <xsd:keyref name="useRef" refer="itemKey">
            <xsd:selector xpath="use"/>
            <xsd:field xpath="@sku"/>
            <xsd:field xpath="@variant"/>
          </xsd:keyref>
        </xsd:element>
        <xsd:element name="link" minOccurs="0" maxOccurs="unbounded">
          <xsd:complexType>
            <xsd:attribute name="group" type="xsd:string" use="required"/>
          </xsd:complexType>
        </xsd:element>
      </xsd:sequence>
      <xsd:attribute name="version" type="xsd:decimal" fixed="1.0"/>
    </xsd:complexType>
    <xsd:key name="groupKey">
      <xsd:selector xpath="group"/>
      <xsd:field xpath="@name"/>
    </xsd:key>
    <xsd:unique name="noteUnique">
      <xsd:selector xpath="group/note"/>
      <xsd:field xpath="."/>
    </xsd:unique>
    <xsd:keyref name="linkRef" refer="groupKey">
      <xsd:selector xpath="link"/>
      <xsd:field xpath="@group"/>
    </xsd:keyref>
  </xsd:element>
</xsd:schema>
"""

#: Values that make a generic document invalid somewhere.
_BAD_SKUS = ("ab1", "\u00a0AB1", "")
_BAD_VARIANTS = ("10", "-1", "x")
_BAD_AMOUNTS = ("x", "", "\u00a03", "1e3")
_BAD_GROUP_NAMES = ("1g", "")
_BAD_SPACES = ("\u00a0", "x")


def _attribute_digest(document) -> str:
    """A digest of every attribute of every element of *document*."""
    states = [[element.name, [[attr.name, attr.value, attr.specified,
                               attr.is_id] for attr in element.attributes]]
              for element in document.iter_elements()]
    canonical = json.dumps(states, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:32]


def outcome(document, schema) -> list:
    """``[issues, attribute digest]`` of validating *document*."""
    try:
        report = validate(document, schema)
    except Exception as exc:  # a crash is recorded, not hidden
        return ["X", type(exc).__name__, str(exc)]
    issues = [[issue.severity, issue.code, issue.message, issue.path,
               issue.line, issue.column] for issue in report.issues]
    return [issues, _attribute_digest(document)]


def gold_inputs() -> dict[str, str]:
    """The unmutated goldmodel documents, by name, in a fixed order."""
    inputs = {
        "goldbench-large": model_to_xml(synthetic_model(**LARGE_MODEL)),
        "sales": model_to_xml(sales_model()),
        "two_facts": model_to_xml(two_facts_model()),
    }
    for index in range(RANDOM_MODELS):
        rng = random.Random(f"validation-golden-model-{index}")
        inputs[f"random-model:{index}"] = model_to_xml(random_model(rng))
    return inputs


def dom_mutant(rng: random.Random, name: str, text: str):
    """One seeded one-edit DOM mutant: ``(description, document)``."""
    document = parse(text)
    elements = list(document.iter_elements())
    inner = elements[1:]
    op = rng.choice(MUTATIONS)
    if op == "delete-element":
        target = rng.choice(inner)
        target.parent.remove_child(target)
        return f"{name} delete <{target.name}> #{elements.index(target)}", \
            document
    if op == "duplicate-element":
        target = rng.choice(inner)
        index = target.parent.children.index(target)
        following = target.parent.children[index + 1:]
        target.parent.insert_before(clone_node(target),
                                    following[0] if following else None)
        return f"{name} duplicate <{target.name}> " \
               f"#{elements.index(target)}", document
    if op == "rename-element":
        target = rng.choice(elements)
        names = sorted({element.name for element in elements})
        new_name = rng.choice(names + ["fresh"])
        description = f"{name} rename <{target.name}> " \
                      f"#{elements.index(target)} to <{new_name}>"
        target.name = new_name
        return description, document
    if op == "move-element":
        movable = [element for element in inner
                   if sum(isinstance(child, Element)
                          for child in element.parent.children) > 1]
        target = rng.choice(movable)
        parent = target.parent
        siblings = [child for child in parent.children
                    if isinstance(child, Element) and child is not target]
        before = rng.choice(siblings + [None])
        parent.remove_child(target)
        parent.insert_before(target, before)
        where = "the end" if before is None else f"<{before.name}>"
        return f"{name} move <{target.name}> #{elements.index(target)} " \
               f"before {where}", document
    if op in ("delete-attribute", "set-attribute"):
        target = rng.choice([element for element in elements
                             if element.attributes])
        attr = rng.choice(target.attributes)
        where = f"@{attr.name} of <{target.name}> #{elements.index(target)}"
        if op == "delete-attribute":
            target.remove_attribute(attr.name)
            return f"{name} delete {where}", document
        ids = sorted({element.get_attribute("id") for element in elements
                      if element.has_attribute("id")})
        value = rng.choice(ATTRIBUTE_PALETTE + (rng.choice(ids), "fresh7"))
        attr.value = value
        return f"{name} set {where} to {value!r}", document
    target = rng.choice(elements)
    where = f"<{target.name}> #{elements.index(target)}"
    if op == "add-undeclared-attribute":
        target.set_attribute("undeclared", "1")
        return f"{name} add @undeclared to {where}", document
    if op == "add-nil":
        target.set_attribute("xsi:nil", "true")
        return f"{name} add xsi:nil to {where}", document
    data = rng.choice(TEXT_PALETTE)
    children = target.children
    position = rng.randrange(len(children) + 1)
    target.insert_before(
        Text(data), children[position] if position < len(children) else None)
    return f"{name} insert {data!r} in {where} at {position}", document


def _attr(name: str, value: str | None) -> str:
    return "" if value is None else f' {name}="{value}"'


def generic_document(rng: random.Random) -> str:
    """A seeded document for :data:`GENERIC_SCHEMA`, valid or not.

    References are drawn so that they resolve, and each value is
    replaced by a wrong one with the document's own error rate, which
    is 0 for half of the documents.  A ``use`` refers to an item of
    another group now and then, and a note's text is a non-XML space
    now and then.
    """
    error_rate = rng.choice((0.0, 0.0, 0.04, 0.12))

    def bad(chance: float = 1.0) -> bool:
        return rng.random() < error_rate * chance

    def space() -> str:
        if bad():
            return rng.choice(_BAD_SPACES)
        return rng.choice(("\n  ", "\n  ", " ", ""))

    def optional(name: str, value: str, chance: float) -> str:
        return _attr(name, value) if rng.random() < chance else ""

    names = rng.sample(("g1", "g2", "g3", "g-4"), rng.randrange(0, 4))
    groups = []
    next_id = 0
    for name in names:
        pairs = rng.sample([(sku, variant)
                            for sku in ("AB1", "AB2", "CD3", " AB1 ")
                            for variant in ("0", "1", "3")],
                           rng.randrange(0, 4))
        items = []
        for pair in pairs:
            items.append((f"i{next_id}", pair))
            next_id += 1
        groups.append((name, items))
    ids = [item_id for _, items in groups for item_id, _ in items]
    keys = [pair for _, items in groups for _, pair in items]

    parts = ['<catalog xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
             + optional("version", rng.choice(("2", "1.00")) if bad()
                        else "1.0", 0.5) + ">"]
    for name, items in groups:
        related = " ".join(rng.choice(ids) if ids and not bad() else "zz"
                           for _ in range(rng.randrange(1, 3)))
        parts.append(
            f"{space()}<group"
            + _attr("name", rng.choice(_BAD_GROUP_NAMES) if bad() else name)
            + optional("related", related, 0.4)
            + optional("open", "yes" if bad() else rng.choice(("true", "0")),
                       0.3) + ">")
        for item_id, (sku, variant) in items:
            if bad():
                item_id = rng.choice(ids + ["9x"])
            if bad():
                sku = rng.choice(_BAD_SKUS)
            if bad():
                variant = rng.choice(_BAD_VARIANTS)
            parts.append(
                f"{space()}<item" + _attr("id", item_id) + _attr("sku", sku)
                + ("" if variant == "0" and rng.random() < 0.5
                   else _attr("variant", variant))
                + optional("tags", "AB1 x" if bad()
                           else rng.choice(("AB1 CD3", " AB2\tCD3 ")), 0.3)
                + optional("size", "2002-02-30" if bad()
                           else rng.choice(("small", "4", " 5 ",
                                            "2002-02-28")), 0.4)
                + optional("part", "zz" if bad() else rng.choice(ids), 0.3)
                + optional("unit", rng.choice((" EUR ", "USD")) if bad()
                           else "EUR", 0.3)
                + optional("extra", "1", error_rate) + ">"
                + (rng.choice(_BAD_AMOUNTS) if bad()
                   else rng.choice(("1.5", " 2 ", "-0.25"))) + "</item>")
        for _ in range(rng.randrange(0, 3) if items else 0):
            own = [pair for _, pair in items]
            sku, variant = rng.choice(own if rng.random() < 0.9 else keys)
            if bad():
                sku = rng.choice(_BAD_SKUS)
            parts.append(f"{space()}<use" + _attr("sku", sku)
                         + _attr("variant", variant) + "/>")
        roll = rng.random()
        if roll < 0.1:
            parts.append(f'{space()}<note xsi:nil="true"/>')
        elif bad(2):
            parts.append(f'{space()}<note xsi:nil="true">late</note>')
        elif bad(2):
            parts.append(f'{space()}<note lang="en">{name}</note>')
        elif roll < 0.6:
            text = "\u00a0" if roll < 0.15 else f"about {name}"
            parts.append(f"{space()}<note>{text}</note>")
        parts.append(f"{space()}</group>")
    for _ in range(rng.randrange(0, 3) if names else 0):
        target = rng.choice(_BAD_GROUP_NAMES) if bad() else rng.choice(names)
        parts.append(f"{space()}<link" + _attr("group", target) + "/>")
    if bad():
        parts.append(f"{space()}<stray/>")
    parts.append("\n</catalog>\n")
    return "".join(parts)


FAMILIES = ("base", "mutant", "generic")


def corpus(family: str):
    """Every ``(key, description, document, schema)`` of one family."""
    if family == "generic":
        schema = read_schema(GENERIC_SCHEMA)
        for index in range(GENERIC_DOCUMENTS):
            rng = random.Random(f"validation-golden-generic-{index}")
            yield (f"generic:{index}", f"generic document {index}",
                   parse(generic_document(rng)), schema)
        return
    schema = gold_schema()
    bases = gold_inputs()
    if family == "base":
        for name, text in bases.items():
            yield f"base:{name}", name, parse(text), schema
        return
    small = [(name, text) for name, text in bases.items()
             if name in ("sales", "two_facts")
             or name.startswith("random-model:")
             and int(name.split(":")[1]) < MUTANT_RANDOM_BASES]
    rng = random.Random("validation-golden-dom-mutants")
    for index in range(DOM_MUTANTS):
        name, text = rng.choice(small)
        description, document = dom_mutant(rng, name, text)
        yield f"mutant:{index}", description, document, schema


def _generate() -> dict[str, list]:
    return {key: outcome(document, schema) for family in FAMILIES
            for key, _, document, schema in corpus(family)}


def _golden() -> dict[str, list]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_corpus_is_large_enough():
    golden = _golden()
    mutants = [key for key in golden if key.startswith("mutant:")]
    assert len(mutants) >= 1000
    generic = [key for key in golden if key.startswith("generic:")]
    # Valid and invalid documents are both well represented.
    for family in (mutants, generic):
        invalid = sum(1 for key in family if golden[key][0])
        assert 0.2 * len(family) < invalid < 0.9 * len(family)


@pytest.mark.parametrize("family", FAMILIES)
def test_validator_reproduces_golden_corpus(family):
    golden = _golden()
    checked = 0
    mismatches = []
    for key, description, document, schema in corpus(family):
        checked += 1
        actual = outcome(document, schema)
        if actual != golden.get(key):
            mismatches.append(
                f"{key} ({description}): expected {golden.get(key)}, "
                f"got {actual}")
    assert checked == sum(1 for key in golden
                          if key.startswith(family + ":"))
    assert not mismatches, (
        f"{len(mismatches)} of {checked} entries differ:\n"
        + "\n".join(mismatches[:20]))


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            entries = _generate()
            handle.write("{\n" + ",\n".join(
                f"{json.dumps(key)}: {json.dumps(value)}"
                for key, value in entries.items()) + "\n}\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
