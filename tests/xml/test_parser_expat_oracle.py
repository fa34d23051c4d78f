"""An oracle for the XML parser that shares no code with it: expat.

``pyexpat`` is the C parser in the standard library.  Every input of the
golden corpus (``test_parser_golden.corpus()``, its ``tag`` family
included) and every kind of XML the system emits goes through both
:func:`repro.xml.parse` and ``pyexpat.ParserCreate`` with namespace
processing.  The two must agree on whether the input is well-formed;
where both accept it, they must agree on every element's expanded name,
every attribute value (namespace declarations aside) and the text
between tags, merged across the character-data chunks expat reports.

The separator expat joins a namespace URI and a local name with is
U+0001, a character no document can hold: expat rejects a namespace URI
that contains the separator, so a printable one such as ``" "`` would
itself make a difference.

Where the parsers differ on purpose, an :data:`INTENDED` rule names the
difference, says why, and classifies an input from its own characters
and bytes; a rule that no input needs any more fails
:func:`test_every_intended_rule_is_needed`.  Where ``repro.xml`` is known
to be wrong, :data:`KNOWN_DEFECTS` lists the corpus keys, and
:func:`test_known_defects_still_differ` fails once one is mended.
"""

from __future__ import annotations

import codecs
import functools
import random
import re
import unicodedata
from dataclasses import dataclass
from typing import Callable

import pyexpat
import pytest

from repro.mdm import model_to_xml, sales_model
from repro.olap import AdditivityError, CubeEngine
from repro.olap.service import (
    DatasetConfig,
    render_xml,
    result_payload,
    synthesize_star,
)
from repro.testkit.generators import random_model, random_query_spec
from repro.xml import parse

from .test_parser_golden import base_inputs, corpus

SEPARATOR = "\x01"


def expat_events(data: str | bytes) -> list | None:
    """What expat makes of *data*, or None when it rejects it.

    A string is handed over as UTF-8 with that encoding forced, as
    :func:`repro.xml.parse` takes a string as already decoded; bytes go
    in as they are, so expat reads their BOM and declaration itself.
    """
    if isinstance(data, str):
        parser = pyexpat.ParserCreate("UTF-8", SEPARATOR)
        data = data.encode("utf-8", "surrogatepass")
    else:
        parser = pyexpat.ParserCreate(None, SEPARATOR)
    parser.ordered_attributes = True
    events: list = []
    text: list[str] = []

    def flush() -> None:
        if text:
            events.append(("text", "".join(text)))
            text.clear()

    def start(name: str, attributes: list[str]) -> None:
        flush()
        pairs = zip(attributes[::2], attributes[1::2])
        events.append(("start", name, sorted(pairs)))

    def end(name: str) -> None:
        flush()
        events.append(("end",))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text.append
    try:
        parser.Parse(data, True)
    except (pyexpat.ExpatError, LookupError, ValueError):
        # An encoding expat cannot process is a fatal error too.
        return None
    return events


def _expanded(uri: str | None, local: str) -> str:
    return f"{uri}{SEPARATOR}{local}" if uri else local


def repro_events(data: str | bytes) -> list | None:
    """What :func:`repro.xml.parse` makes of *data*, in expat's terms,
    or None when it rejects it."""
    try:
        document = parse(data)
    except Exception:  # noqa: BLE001 - every rejection counts as one
        return None
    events: list = []

    def walk(element) -> None:
        attributes = sorted(
            (_expanded(attr.namespace_uri, attr.local_name), attr.value)
            for attr in element.attributes if not attr.is_namespace_decl)
        events.append(("start", _expanded(element.namespace_uri,
                                          element.local_name), attributes))
        text: list[str] = []
        for child in element.children:
            if child.kind == "text":
                text.append(child.data)
            elif child.kind == "element":
                if text:
                    events.append(("text", "".join(text)))
                    text.clear()
                walk(child)
        if text:
            events.append(("text", "".join(text)))
        events.append(("end",))

    walk(document.root_element)
    return events


def difference(data: str | bytes) -> str | None:
    """How the two parsers differ on *data*: None when they agree, else
    ``"repro-accepts"``, ``"expat-accepts"`` or ``"tree"``."""
    ours, theirs = repro_events(data), expat_events(data)
    if ours is None and theirs is None:
        return None
    if theirs is None:
        return "repro-accepts"
    if ours is None:
        return "expat-accepts"
    return None if ours == theirs else "tree"


def _declaration(data: str | bytes) -> str:
    """The XML declaration at the head of *data* (decoded as Latin-1
    when it is bytes), or ''."""
    head = data[:200]
    if isinstance(head, bytes):
        head = head.decode("latin-1")
    match = re.match(r"(?:\ufeff|\xef\xbb\xbf)?<\?xml[ \t\r\n][^?]*\?>", head)
    return match.group() if match else ""


def _pseudo_attribute(data: str | bytes, name: str) -> str | None:
    match = re.search(name + r"[ \t\r\n]*=[ \t\r\n]*(['\"])(.*?)\1",
                      _declaration(data))
    return match.group(2) if match else None


def _known_encoding(name: str | None) -> bool:
    try:
        codecs.lookup(name or "utf-8")
    except LookupError:
        return False
    return True


#: Tag and attribute names as they stand in the text, good or bad.
_NAME_TOKEN = re.compile(
    r"<(?![!?])/?([^\s/>=<'\"]+)|\s([^\s/>=<'\"]+)\s*=")
#: Unicode categories of the characters XML 1.0 fourth edition (Appendix
#: B, which expat implements) admits in names: letters, marks and digits.
_FOURTH_EDITION_CATEGORIES = {"Lu", "Ll", "Lt", "Lo", "Lm", "Nl", "Mn",
                              "Mc", "Me", "Nd"}
#: The one non-ASCII Extender of Appendix B outside those categories.
_FOURTH_EDITION_EXTENDERS = {"\u00b7"}


def _has_fifth_edition_name_char(data: str | bytes) -> bool:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            return False
    return any(
        ord(char) > 0x7F and char not in _FOURTH_EDITION_EXTENDERS
        and unicodedata.category(char) not in _FOURTH_EDITION_CATEGORIES
        for match in _NAME_TOKEN.finditer(data)
        for char in match.group(1) or match.group(2))


@dataclass(frozen=True)
class Rule:
    """A difference the two parsers have on purpose."""

    #: Which parser accepts the inputs the rule covers.
    accepts: str
    reason: str
    #: Classifies an input from its own characters and bytes.
    covers: Callable[[str | bytes], bool]


INTENDED = {
    "fifth-edition-name-char": Rule(
        "repro",
        "repro.xml implements the names of XML 1.0 fifth edition, which "
        "admit characters such as U+1F600, U+203F, U+FEFF and U+FFFD; "
        "expat implements the fourth edition's Appendix B, which admits "
        "only letters, marks and digits beyond ASCII.",
        _has_fifth_edition_name_char),
    "version-number": Rule(
        "expat",
        "repro.xml reads only versions 1.0 and 1.1 and rejects any other "
        "version; expat does not check the number.",
        lambda data: _pseudo_attribute(data, "version") not in (
            None, "1.0", "1.1")),
    "utf-32": Rule(
        "repro",
        "Python decodes UTF-32, which expat cannot process.",
        lambda data: isinstance(data, bytes)
        and data[:4] in (b"\xff\xfe\x00\x00", b"\x00\x00\xfe\xff")),
    "utf-8-bom-wins": Rule(
        "repro",
        "A UTF-8 byte-order mark fixes the encoding: repro.xml decodes "
        "UTF-8 and does not look up the name the declaration gives, while "
        "expat rejects a name it does not know.",
        lambda data: isinstance(data, bytes)
        and data.startswith(b"\xef\xbb\xbf")
        and not _known_encoding(_pseudo_attribute(data, "encoding"))),
}

#: Corpus entries where repro.xml is known to be wrong: it skips the
#: internal DTD subset instead of parsing it (XML 1.0 §5.1 has a
#: non-validating processor read its declarations).
KNOWN_DEFECTS = {
    "text:40": "a U+FFFE inside an attribute-list declaration passes",
    "text:161": "the attribute type 'I;REF' passes",
    "text:993": "a PI inside an attribute-list declaration passes",
    "text:1678": "the declared default of 'shwmethods' is not supplied",
    "text:1693": "the declared default of 'roleb' is not supplied",
}


def _explain(data: str | bytes, kind: str) -> str | None:
    """The name of the :data:`INTENDED` rule that covers a difference of
    *kind* on *data*, or None."""
    accepts = {"repro-accepts": "repro", "expat-accepts": "expat"}.get(kind)
    for name, rule in INTENDED.items():
        if rule.accepts == accepts and rule.covers(data):
            return name
    return None


@functools.lru_cache(maxsize=1)
def corpus_differences() -> dict[str, tuple[str, str | bytes]]:
    """Every corpus entry the parsers differ on: key → (kind, input)."""
    found = {}
    for key, _, data in corpus():
        kind = difference(data)
        if kind is not None:
            found[key] = (kind, data)
    return found


def emitted_xml():
    """``(description, text)`` for XML the system writes itself."""
    for index in range(20):
        rng = random.Random(f"expat-oracle-model-{index}")
        yield f"model {index}", model_to_xml(random_model(rng))
    model = sales_model()
    star = synthesize_star(model, "oracle", 1, DatasetConfig(
        members_per_level=3, rows_per_fact=60))
    rng = random.Random("expat-oracle-olap")
    for index in range(12):
        spec = random_query_spec(model, star, rng)
        try:
            result = CubeEngine(star).execute(spec.to_cube(model))
        except AdditivityError:
            continue
        payload = result_payload(model, "oracle", spec, result,
                                 dataset=star.summary())
        yield f"OLAP result {index}", render_xml(payload).decode("utf-8")
    for name, text in base_inputs().items():
        if name.startswith(("xsl:", "xsd:")):
            yield name, text


def test_parsers_agree_on_the_corpus_but_for_listed_differences():
    unexplained = [
        f"{key}: {kind}, {data[:120]!r}"
        for key, (kind, data) in corpus_differences().items()
        if key not in KNOWN_DEFECTS and _explain(data, kind) is None]
    assert not unexplained, "\n".join(unexplained[:20])


def test_every_intended_rule_is_needed():
    used = {_explain(data, kind)
            for kind, data in corpus_differences().values()}
    assert sorted(set(INTENDED) - used) == []


def test_no_rule_covers_an_input_both_parsers_agree_on():
    """Each rule names a real cause: on the corpus, an input the rule
    covers is one the parsers differ on, except where a second fault
    makes both reject it."""
    differing = corpus_differences()
    for key, _, data in corpus():
        for name, rule in INTENDED.items():
            if key not in differing and rule.covers(data):
                assert repro_events(data) is None, (name, key)


@pytest.mark.parametrize("key", sorted(KNOWN_DEFECTS))
def test_known_defects_still_differ(key):
    assert key in corpus_differences(), (
        f"{key} no longer differs: remove it from KNOWN_DEFECTS")


@pytest.mark.parametrize("description,text", list(emitted_xml()))
def test_parsers_agree_on_emitted_xml(description, text):
    ours = repro_events(text)
    assert ours is not None
    assert ours == expat_events(text)


def test_the_separator_cannot_occur_in_a_namespace_uri():
    # A printable separator makes a legal URI unreadable to expat.
    text = "<a xmlns:p=\"urn:default xmlns=''\" p:b='1'/>"
    parser = pyexpat.ParserCreate("UTF-8", " ")
    with pytest.raises(pyexpat.ExpatError):
        parser.Parse(text.encode("utf-8"), True)
    assert difference(text) is None
    # U+0001 is not a character a document may hold.
    assert expat_events("<a xmlns:p='urn:\x01'/>") is None
    assert repro_events("<a xmlns:p='urn:\x01'/>") is None
