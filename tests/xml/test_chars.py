"""Character-class predicates and name validation."""

import re

import pytest

from repro.xml import chars
from repro.xml.chars import (
    collapse_whitespace,
    is_name,
    is_name_char,
    is_name_start_char,
    is_ncname,
    is_qname,
    is_space,
    is_xml_char,
    split_qname,
    strip_xml_space,
)


class TestXmlChar:
    def test_ascii_letters_are_xml_chars(self):
        assert is_xml_char("a")
        assert is_xml_char("Z")

    def test_tab_newline_cr_allowed(self):
        for ch in "\t\n\r":
            assert is_xml_char(ch)

    def test_control_characters_rejected(self):
        for code in (0x00, 0x01, 0x08, 0x0B, 0x0C, 0x1F):
            assert not is_xml_char(chr(code))

    def test_surrogate_block_rejected(self):
        assert not is_xml_char("\ud800")
        assert not is_xml_char("\udfff")

    def test_fffe_ffff_rejected(self):
        assert not is_xml_char("￾")
        assert not is_xml_char("￿")

    def test_supplementary_plane_allowed(self):
        assert is_xml_char("\U00010000")
        assert is_xml_char("\U0010FFFF")


class TestSpace:
    def test_xml_space_characters(self):
        assert all(is_space(ch) for ch in " \t\r\n")

    def test_unicode_spaces_are_not_xml_space(self):
        assert not is_space(" ")
        assert not is_space(" ")


class TestNameChars:
    def test_colon_and_underscore_start_names(self):
        assert is_name_start_char(":")
        assert is_name_start_char("_")

    def test_digit_cannot_start_but_can_continue(self):
        assert not is_name_start_char("5")
        assert is_name_char("5")

    def test_hyphen_and_dot_continue_only(self):
        assert not is_name_start_char("-")
        assert not is_name_start_char(".")
        assert is_name_char("-")
        assert is_name_char(".")

    def test_accented_letters(self):
        assert is_name_start_char("é")
        assert is_name_char("é")


class TestNames:
    @pytest.mark.parametrize("name", [
        "goldmodel", "fact-class", "a.b", "_private", "ns:local", "été",
    ])
    def test_valid_names(self, name):
        assert is_name(name)

    @pytest.mark.parametrize("name", ["", "1abc", "-x", ".x", "a b"])
    def test_invalid_names(self, name):
        assert not is_name(name)

    def test_ncname_rejects_colon(self):
        assert is_ncname("local")
        assert not is_ncname("ns:local")

    @pytest.mark.parametrize("name,ok", [
        ("a", True), ("p:l", True), ("p:l:x", False), (":l", False),
        ("p:", False),
    ])
    def test_qname(self, name, ok):
        assert is_qname(name) is ok

    def test_split_qname(self):
        assert split_qname("xsd:element") == ("xsd", "element")
        assert split_qname("element") == (None, "element")


class TestWhitespaceHelpers:
    def test_strip_xml_space_only_strips_xml_space(self):
        assert strip_xml_space(" \t a \n") == "a"
        assert strip_xml_space(" a") == " a"

    def test_collapse(self):
        assert collapse_whitespace("  a \t b\n\nc ") == "a b c"
        assert collapse_whitespace("") == ""


class TestRegexClasses:
    """The lexer's regex classes and the bisect predicates come from the
    same range tables; both are constant between range boundaries, so
    agreeing on every boundary (and its neighbours) is agreeing
    everywhere."""

    @staticmethod
    def _boundaries():
        tables = (chars._CHAR_RANGES, chars._NAME_START_RANGES,
                  chars._NAME_EXTRA_RANGES)
        points = {0, 0x10FFFF}
        for table in tables:
            for low, high in table:
                points.update((low - 1, low, high, high + 1))
        return sorted(cp for cp in points if 0 <= cp <= 0x10FFFF)

    @pytest.mark.parametrize("body,predicate,negated", [
        (chars.NON_CHAR_CLASS, is_xml_char, True),
        (chars.NAME_START_CLASS, is_name_start_char, False),
        (chars.NAME_CHAR_CLASS, is_name_char, False),
    ], ids=["non-char", "name-start", "name-char"])
    def test_class_agrees_with_predicate(self, body, predicate, negated):
        pattern = re.compile(f"[{body}]")
        for cp in self._boundaries():
            expected = predicate(chr(cp)) is not negated
            assert (pattern.match(chr(cp)) is not None) is expected, hex(cp)
