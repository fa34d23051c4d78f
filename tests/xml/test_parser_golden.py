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
  encodings, bytes invalid in their encoding and unknown encodings;
* seeded small documents whose start tags vary (:func:`tag_document`),
  and two start tags of 5,000 attributes each;
* DOCTYPE system and public literals with a character their
  productions do not allow.

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

TAG_DOCUMENTS = 400
#: Attributes of each of the two long start tags that end the family.
LONG_TAG_ATTRIBUTES = 5000
#: Heads of element and attribute names, non-ASCII NameChars included;
#: a tag's attribute names get the attribute's index appended.
TAG_NAMES = ("a", "e", "id", "name", "_u", "data-v", "a.b", "\u00e9",
             "\u00f1ame", "x\u00b7y", "a\u0300", "\u03a9mega",
             "\u540d\u524d")
#: White space a start tag's separators are drawn from.
TAG_SPACE = (" ", " ", " ", "  ", "\n", "\r", "\r\n", "\t", " \r\n\t")
#: Attribute-value pieces that need no attention.
PLAIN_VALUES = ("v", "1", "x y", "\u00e9", "", "/>", ">", "=")
#: Legal attribute-value pieces that are references or are normalized.
NORMALIZED_VALUES = ("&amp;", "&#x41;", "&#65;", "&lt;", "&quot;", "\t",
                     "\n", "\r", "\r\n", "\r\r\n")
#: Attribute-value pieces that make the document ill-formed.
BAD_VALUES = ("<", "\x00", "\x0b", "\ufffe", "&bogus;", "&#0;", "&x",
              "&")
#: Names that are not XML names, or not QNames.
BAD_NAMES = ("1a", "-a", ".a", ":a", "a:", "p:q:r", "\u00b7a")
#: Namespace declarations that are not allowed.
BAD_DECLARATIONS = (" xmlns:p=''", ' xmlns:xmlns="urn:x"',
                    " xmlns:xml='urn:x'")
#: The one fault a start tag of a family document may carry.
TAG_FAULTS = ("duplicate-adjacent", "duplicate-far", "missing-space",
              "no-value", "unquoted", "bad-value", "unterminated",
              "bad-name", "undeclared-element-prefix",
              "undeclared-attribute-prefix", "same-expanded-name",
              "bad-declaration", "bad-close")


#: DOCTYPE external IDs whose literal holds a character its production
#: ([11] SystemLiteral, [12] PubidLiteral) does not allow.
DOCTYPE_LITERALS = {
    "system-nul": '<!DOCTYPE a SYSTEM "y\x00"><a/>',
    "public-nul": '<!DOCTYPE a PUBLIC "x\x00" "y"><a/>',
    "public-brace": '<!DOCTYPE a PUBLIC "x{" "y"><a/>',
    "public-system-soh": '<!DOCTYPE a PUBLIC "x" "y\x01"><a/>',
}


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


def _space(rng: random.Random, odds: float) -> str:
    """White space with probability *odds*, else nothing."""
    return rng.choice(TAG_SPACE) if rng.random() < odds else ""


def _tag_value(rng: random.Random, bad: bool = False) -> str:
    """A quoted attribute value; *bad* puts an ill-formed piece in it."""
    quote = rng.choice("\"'")
    pieces = [rng.choice(PLAIN_VALUES) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        pieces.insert(rng.randrange(len(pieces) + 1),
                      rng.choice(NORMALIZED_VALUES))
    if rng.random() < 0.1:
        pieces.append("'" if quote == '"' else '"')
    if bad:
        pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(BAD_VALUES))
    return quote + "".join(pieces) + quote


def _start_tag(rng: random.Random, scope: frozenset, fault: str | None,
               empty: bool) -> tuple[str, str, frozenset]:
    """One start tag: ``(text, element name, prefixes in scope inside)``."""
    items: list[list[str]] = []   # [name, '=' and value]
    declared = set(scope)
    if rng.random() < 0.2:
        items.append(["xmlns", rng.choice(("='urn:d'", '=""'))])
    for prefix in ("p", "q"):
        if rng.random() < 0.15:
            items.append([f"xmlns:{prefix}", f'="urn:{prefix}"'])
            declared.add(prefix)
    prefixes = sorted(declared)
    for index in range(rng.choice((0, 0, 1, 2, 3, 5, 8, 13, 21, 40))):
        name = f"{rng.choice(TAG_NAMES)}{index}"
        if prefixes and rng.random() < 0.2:
            name = f"{rng.choice(prefixes)}:{name}"
        items.append([name, "=" + _tag_value(rng)])
    if rng.random() < 0.1:
        items.append(["xml:lang", '="en"'])
    rng.shuffle(items)
    name = rng.choice(TAG_NAMES)
    if prefixes and rng.random() < 0.3:
        name = f"{rng.choice(prefixes)}:{name}"
    attributes = [i for i, item in enumerate(items)
                  if not item[0].startswith("xmlns")]
    if fault in ("duplicate-adjacent", "duplicate-far", "missing-space",
                 "no-value", "unquoted", "bad-value") and \
            len(attributes) < 3:
        for index in range(3):
            items.append([f"z{index}", "=" + _tag_value(rng)])
            attributes.append(len(items) - 1)
    if fault == "duplicate-adjacent":
        at = rng.choice(attributes)
        items.insert(at + 1, [items[at][0], "=" + _tag_value(rng)])
    elif fault == "duplicate-far":
        items.append([items[attributes[0]][0], "=" + _tag_value(rng)])
    elif fault == "no-value":
        items[rng.choice(attributes)][1] = ""
    elif fault == "unquoted":
        items[rng.choice(attributes)][1] = "=1"
    elif fault == "bad-value":
        items[rng.choice(attributes)][1] = "=" + _tag_value(rng, bad=True)
    elif fault == "bad-name":
        items.insert(rng.randrange(len(items) + 1),
                     [rng.choice(BAD_NAMES), '="1"'])
    elif fault == "undeclared-element-prefix":
        name = "u:" + name
    elif fault == "undeclared-attribute-prefix":
        items.insert(rng.randrange(len(items) + 1), ["u:k", "='1'"])
    elif fault == "same-expanded-name":
        items[:0] = [["xmlns:s", '="urn:s"'], ["xmlns:t", "='urn:s'"]]
        items.insert(rng.randrange(2, len(items) + 1), ["s:k", '="1"'])
        items.insert(rng.randrange(2, len(items) + 1), ["t:k", "='2'"])
    elif fault == "bad-declaration":
        bad = rng.choice(BAD_DECLARATIONS).split("=")
        items.insert(rng.randrange(len(items) + 1), [bad[0][1:], "=" + bad[1]])
    separators = [rng.choice(TAG_SPACE) for _ in items]
    if fault == "missing-space":
        separators[rng.randrange(1, len(items))] = ""
    text = "<" + name + "".join(
        separators[i] + item[0] + (
            _space(rng, 0.3) + "=" + _space(rng, 0.3) + item[1][1:]
            if item[1] else "")
        for i, item in enumerate(items))
    close = "/>" if empty else ">"
    if fault == "bad-close":
        close = rng.choice(("/ >", "/", "//>", "?>"))
    return text + _space(rng, 0.4) + close, name, frozenset(declared)


def tag_document(rng: random.Random) -> tuple[str, str]:
    """A small seeded document whose start tags vary: ``(fault, text)``.

    The tags vary in attribute count, quotes, white space and line ends
    around ``=`` and between attributes, references and normalized
    characters in values, namespace declarations on inner elements,
    prefixed names and non-ASCII NameChars; one tag in two documents
    carries one fault from :data:`TAG_FAULTS`.
    """
    fault = rng.choice(TAG_FAULTS + (None,) * len(TAG_FAULTS))
    count = rng.randint(1, 6)
    faulty = rng.randrange(count)
    parts: list[str] = []
    stack: list[tuple[str, frozenset]] = []
    for index in range(count):
        while len(stack) > 1 and rng.random() < 0.3:
            parts.append(f"</{stack.pop()[0]}{_space(rng, 0.2)}>")
        empty = (index > 0 or count == 1) and rng.random() < 0.4
        scope = stack[-1][1] if stack else frozenset()
        tag, name, inner = _start_tag(
            rng, scope, fault if index == faulty else None, empty)
        if fault == "unterminated" and index == faulty:
            parts.append(tag[:rng.randrange(1, len(tag))])
            return fault, "".join(parts)
        parts.append(tag)
        if not empty:
            stack.append((name, inner))
        if stack:
            parts.append(rng.choice(("", "t", "\n  ", "\r\n", " x ")))
    while stack:
        parts.append(f"</{stack.pop()[0]}{_space(rng, 0.2)}>")
    return str(fault), "".join(parts)


def long_tag_document(last_value: str) -> str:
    """One start tag of :data:`LONG_TAG_ATTRIBUTES` attributes whose last
    value is *last_value*."""
    last = LONG_TAG_ATTRIBUTES - 1
    attributes = "".join(f' a{index}="{index}"' for index in range(last))
    return f'<r{attributes} a{last}="{last_value}"/>'


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
    rng = random.Random("parser-golden-tags")
    for index in range(TAG_DOCUMENTS):
        fault, text = tag_document(rng)
        yield f"tag:{index}", f"start tags, fault {fault}", text
    for key, value in (("reference", "x&amp;y"), ("lt", "x<y")):
        yield (f"tag:long-{key}", f"{LONG_TAG_ATTRIBUTES} attributes, "
               f"last value {value!r}", long_tag_document(value))
    for key, text in DOCTYPE_LITERALS.items():
        yield f"doctype:{key}", "DOCTYPE literal with an illegal character", \
            text


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


@pytest.mark.parametrize("family", ["base", "text", "bytes", "tag",
                                    "doctype"])
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
