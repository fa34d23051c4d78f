"""Golden corpus for the XML parser: exact trees and exact errors.

``golden_parser.json`` records, for every input below, what
:func:`repro.xml.parse` made of it: a digest of the whole tree when the
input parses, or the error class, message, line and column when it does
not.  The tree digest covers element and attribute names, attribute
values and order, text, the CDATA flag, comments, processing
instructions, the prolog fields and the ``line``/``column`` of every
element and attribute.

The inputs:

* every stylesheet and schema the source ships, and the example models
  (one with the GOLD DTD as internal subset);
* the large synthetic model the benchmark serves (163 KB);
* seeded random GOLD models and random generic documents, some with
  CRLF line ends;
* seeded one-edit mutants of the small inputs: a deletion, an insertion
  or a replacement from a palette of markup fragments and characters
  that are illegal, normalized or special somewhere, or a truncation;
* seeded byte-level mutants that exercise decoding: BOMs, declared
  encodings, bytes invalid in their encoding and unknown encodings.

The corpus pins the parser's observable behaviour so a rewrite of its
scanning can be checked entry by entry.  Re-record it (only after an
intentional change of what the parser returns) with::

    PYTHONPATH=src python tests/xml/test_parser_golden.py --regenerate
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
from repro.mdm.schema_gen import gold_dtd_text, gold_schema_xml
from repro.obs.dashboard import DASHBOARD_XSL
from repro.obs.htmlreport import PROFILE_XSL
from repro.olap.service.render import RESULT_XSL
from repro.testkit.differential import GENERIC_DIFFERENTIAL_XSL
from repro.testkit.generators import random_document, random_model
from repro.web import stylesheets
from repro.web.xslfo import MODEL_FO_XSL
from repro.xml import parse, pretty_print, serialize

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_parser.json")

#: The model ``benchmarks/goldbench`` serves.
LARGE_MODEL = dict(facts=20, dimensions=25, levels_per_dimension=5,
                   measures_per_fact=8)

RANDOM_MODELS = 40
RANDOM_DOCUMENTS = 60
TEXT_MUTANTS = 2400
BYTE_MUTANTS = 400
#: Mutants are made from inputs up to this many characters long.
MUTANT_BASE_LIMIT = 12_000

#: Fragments a text mutation inserts or substitutes.
PALETTE = (
    "<", ">", "&", ";", "]", "]]>", "]]", "\r", "\r\n", "\n", "\t", " ",
    '"', "'", "=", "/", "!", "?", "-", "--", "#", ":", ".", "9", "x",
    "&amp;", "&lt;", "&#x41;", "&#65;", "&#0;", "&#xD800;", "&bogus;",
    "&#xZZ;", "\x00", "\x0b", "\x1f", "\ufffe", "\ud800", "\ufffd",
    "\u00e9", "\u00b7", "\u0300", "\u203f", "\U0001f600", "\U000f0000",
    "<![CDATA[y]]>", "x<![CDATA[y]]>z", "<![CDATA[", "<!--c-->", "<!--",
    "-->", "<?pi data?>", "<?xml v?>", "<?", "?>", "<x/>", "</x>", "</",
    "<x a='1'>", " a='1'", ' b="2"', " a='1' a='2'", " xmlns:p='urn:p'",
    " xmlns=''", " xmlns:p=''", " xmlns:xml='urn:x'", "p:", "<p:x/>",
    "<!DOCTYPE d>", "<!DOCTYPE d [<!ELEMENT d ANY>]>", "<!ELEMENT",
    "\r<", "\r\r\n",
)

#: Declarations a byte mutant may be encoded under.
ENCODINGS = ("utf-8", "UTF-8", "ISO-8859-1", "latin-1", "utf-16", "ascii",
             "bogus", "x-unknown-1", "cp1252", "utf-32")

#: Byte strings a byte mutation inserts.
BYTE_PALETTE = (b"\xff", b"\xfe", b"\xc3", b"\xe2\x82", b"\x80",
                b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xc3\xa9", b"\x00",
                b"\xef\xbb\xbf")


def _tree(node) -> list:
    kind = node.kind
    if kind == "element":
        return ["e", node.name, node.line, node.column,
                [[attr.name, attr.value, attr.line, attr.column]
                 for attr in node.attributes],
                [_tree(child) for child in node.children]]
    if kind == "text":
        return ["t", node.data, node.is_cdata]
    if kind == "comment":
        return ["c", node.data]
    if kind == "processing-instruction":
        return ["p", node.target, node.data]
    raise AssertionError(f"unexpected node kind {kind!r}")


def digest(document) -> str:
    """A digest of everything the parser put into *document*."""
    tree = [document.version, document.encoding, document.standalone,
            document.doctype_name, document.doctype_public,
            document.doctype_system, document.internal_subset,
            [_tree(child) for child in document.children]]
    canonical = json.dumps(tree, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:32]


def outcome(data: str | bytes) -> list:
    """``["D", digest]`` for a parsed input, else the exact error."""
    try:
        document = parse(data)
    except Exception as exc:  # every class is recorded, not only XMLError
        return ["E", type(exc).__name__, getattr(exc, "message", str(exc)),
                getattr(exc, "line", None), getattr(exc, "column", None)]
    return ["D", digest(document)]


def _with_internal_subset(model_xml: str) -> str:
    head, sep, body = model_xml.partition("?>")
    return f"{head}{sep}\n<!DOCTYPE goldmodel [\n{gold_dtd_text()}\n]>{body}"


def base_inputs() -> dict[str, str]:
    """The unmutated inputs, by name, in a fixed order."""
    inputs: dict[str, str] = {}
    for name in sorted(dir(stylesheets)):
        value = getattr(stylesheets, name)
        if name.endswith("_XSL") and isinstance(value, str):
            inputs[f"xsl:{name}"] = value
    inputs["xsl:RESULT_XSL"] = RESULT_XSL
    inputs["xsl:DASHBOARD_XSL"] = DASHBOARD_XSL
    inputs["xsl:PROFILE_XSL"] = PROFILE_XSL
    inputs["xsl:MODEL_FO_XSL"] = MODEL_FO_XSL
    for name, sheet in sorted(GENERIC_DIFFERENTIAL_XSL.items()):
        inputs[f"xsl:generic-{name}"] = sheet
    inputs["xsd:goldmodel"] = gold_schema_xml()
    sales = model_to_xml(sales_model())
    inputs["model:sales"] = sales
    inputs["model:sales-dtd"] = _with_internal_subset(sales)
    inputs["model:two_facts"] = model_to_xml(two_facts_model())
    inputs["model:goldbench-large"] = model_to_xml(
        synthetic_model(**LARGE_MODEL))
    for index in range(RANDOM_MODELS):
        rng = random.Random(f"parser-golden-model-{index}")
        text = model_to_xml(random_model(rng))
        if index % 4 == 3:
            text = text.replace("\n", "\r\n")
        inputs[f"random-model:{index}"] = text
    for index in range(RANDOM_DOCUMENTS):
        rng = random.Random(f"parser-golden-document-{index}")
        document = random_document(rng)
        text = pretty_print(document) if index % 2 else serialize(document)
        if index % 5 == 4:
            text = text.replace("\n", "\r\n")
        inputs[f"random-document:{index}"] = text
    return inputs


def text_mutant(rng: random.Random, bases: list[tuple[str, str]]
                ) -> tuple[str, str]:
    """One seeded one-edit mutant: ``(description, text)``."""
    name, text = rng.choice(bases)
    pos = rng.randrange(len(text) + 1)
    op = rng.choice(("delete", "insert", "insert", "replace", "truncate"))
    if op == "delete":
        count = rng.randint(1, 3)
        return f"{name} delete {count}@{pos}", text[:pos] + text[pos + count:]
    if op == "truncate":
        return f"{name} truncate@{pos}", text[:pos]
    fragment = rng.choice(PALETTE)
    if op == "insert":
        return (f"{name} insert {fragment!r}@{pos}",
                text[:pos] + fragment + text[pos:])
    return (f"{name} replace {fragment!r}@{pos}",
            text[:pos] + fragment + text[pos + 1:])


def byte_mutant(rng: random.Random, bases: list[tuple[str, str]]
                ) -> tuple[str, bytes]:
    """One seeded input for the decoder: ``(description, bytes)``."""
    name, text = rng.choice(bases)
    if text.startswith("<?xml"):
        text = text[text.index("?>") + 2:].lstrip()
    encoding = rng.choice(ENCODINGS)
    declared = f'<?xml version="1.0" encoding="{encoding}"?>\n{text}'
    try:
        data = declared.encode(encoding)
    except (LookupError, UnicodeEncodeError):
        data = declared.encode("utf-8")
    op = rng.choice(("plain", "insert", "insert", "bom", "undeclared"))
    if op == "plain":
        return f"{name} as {encoding}", data
    if op == "bom":
        bom = rng.choice((b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff"))
        return f"{name} as {encoding} behind BOM {bom!r}", bom + data
    if op == "undeclared":
        raw = text.encode(rng.choice(("utf-8", "latin-1", "utf-16")))
        pos = rng.randrange(len(raw) + 1)
        chunk = rng.choice(BYTE_PALETTE)
        return (f"{name} undeclared insert {chunk!r}@{pos}",
                raw[:pos] + chunk + raw[pos:])
    pos = rng.randrange(len(data) + 1)
    chunk = rng.choice(BYTE_PALETTE)
    return (f"{name} as {encoding} insert {chunk!r}@{pos}",
            data[:pos] + chunk + data[pos:])


def corpus():
    """Every ``(key, description, input)`` of the golden corpus, in order."""
    bases = base_inputs()
    for name, text in bases.items():
        yield f"base:{name}", name, text
    small = [(name, text) for name, text in bases.items()
             if len(text) <= MUTANT_BASE_LIMIT]
    rng = random.Random("parser-golden-text-mutants")
    for index in range(TEXT_MUTANTS):
        description, text = text_mutant(rng, small)
        yield f"text:{index}", description, text
    rng = random.Random("parser-golden-byte-mutants")
    for index in range(BYTE_MUTANTS):
        description, data = byte_mutant(rng, small)
        yield f"bytes:{index}", description, data


def _generate() -> dict[str, list]:
    return {key: outcome(data) for key, _, data in corpus()}


def _golden() -> dict[str, list]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_corpus_is_large_enough():
    golden = _golden()
    mutants = [key for key in golden if not key.startswith("base:")]
    assert len(mutants) >= 2000
    # Both outcomes are well represented among the mutants.
    errors = sum(1 for key in mutants if golden[key][0] == "E")
    assert 0.2 * len(mutants) < errors < 0.8 * len(mutants)


@pytest.mark.parametrize("family", ["base", "text", "bytes"])
def test_parser_reproduces_golden_corpus(family):
    golden = _golden()
    checked = 0
    mismatches = []
    for key, description, data in corpus():
        if not key.startswith(family + ":"):
            continue
        checked += 1
        actual = outcome(data)
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
