"""The XPath 1.0 core function library."""

import math

import pytest

from repro.xml import parse
from repro.xpath import XPathTypeError, evaluate

DOC = parse("""
<m id="root" xml:lang="en">
  <v>10</v><v>20</v><v>3.5</v>
  <w xml:lang="en-GB"><inner/></w>
  <item id="i1"/><item id="i2"/>
</m>
""")


def ev(expression, node=DOC, **kwargs):
    return evaluate(expression, node, **kwargs)


class TestNodeSetFunctions:
    def test_count(self):
        assert ev("count(//v)") == 3.0

    def test_count_requires_nodeset(self):
        with pytest.raises(XPathTypeError):
            ev("count(1)")

    def test_sum(self):
        assert ev("sum(//v)") == 33.5

    def test_sum_with_nan(self):
        assert math.isnan(ev("sum(//w)"))

    def test_id_lookup(self):
        result = ev("id('i2')")
        assert [n.name for n in result] == ["item"]

    def test_id_multiple_tokens(self):
        assert len(ev("id('i1 i2')")) == 2

    def test_id_missing(self):
        assert ev("id('nope')") == []

    def test_id_splits_only_on_xml_white_space(self):
        assert len(ev("id('i1\t\ni2')")) == 2
        assert ev("id('i1\xa0i2')") == []  # one token, no such ID

    def test_name_functions(self):
        assert ev("name(/m)") == "m"
        assert ev("local-name(/m)") == "m"
        assert ev("namespace-uri(/m)") == ""
        assert ev("name()") == ""  # document node

    def test_name_of_empty_nodeset(self):
        assert ev("name(//missing)") == ""

    def test_position_and_last_defaults(self):
        assert ev("position()") == 1.0
        assert ev("last()") == 1.0


class TestStringFunctions:
    def test_string_of_number(self):
        assert ev("string(12)") == "12"
        assert ev("string(12.5)") == "12.5"
        assert ev("string(1 div 0)") == "Infinity"
        assert ev("string(0 div 0)") == "NaN"

    def test_string_of_nodeset_uses_first(self):
        assert ev("string(//v)") == "10"

    def test_concat(self):
        assert ev("concat('a', 'b', 'c')") == "abc"

    def test_concat_needs_two_args(self):
        with pytest.raises(XPathTypeError):
            ev("concat('a')")

    def test_starts_with_and_contains(self):
        assert ev("starts-with('goldmodel', 'gold')") is True
        assert ev("contains('goldmodel', 'dmo')") is True
        assert ev("contains('goldmodel', 'xyz')") is False

    def test_substring_before_after(self):
        assert ev("substring-before('1999/04/01', '/')") == "1999"
        assert ev("substring-after('1999/04/01', '/')") == "04/01"
        assert ev("substring-before('abc', 'x')") == ""

    def test_substring_spec_examples(self):
        # The famous edge cases from XPath 1.0 §4.2.
        assert ev("substring('12345', 2, 3)") == "234"
        assert ev("substring('12345', 2)") == "2345"
        assert ev("substring('12345', 1.5, 2.6)") == "234"
        assert ev("substring('12345', 0, 3)") == "12"
        assert ev("substring('12345', 0 div 0, 3)") == ""
        assert ev("substring('12345', 1, 0 div 0)") == ""
        assert ev("substring('12345', -42, 1 div 0)") == "12345"
        assert ev("substring('12345', -1 div 0, 1 div 0)") == ""

    def test_string_length(self):
        assert ev("string-length('hello')") == 5.0

    def test_normalize_space(self):
        assert ev("normalize-space('  a  b ')") == "a b"

    def test_normalize_space_keeps_non_xml_white_space(self):
        """XPath 1.0 §4.2 strips and collapses the S characters only."""
        assert ev("normalize-space('t\xa0u  v')") == "t\xa0u v"
        assert ev("normalize-space(' \u3000x\u2028\t\r\n')") == \
            "\u3000x\u2028"

    def test_translate(self):
        assert ev("translate('bar', 'abc', 'ABC')") == "BAr"
        assert ev("translate('--aaa--', 'abc-', 'ABC')") == "AAA"


class TestBooleanFunctions:
    def test_boolean_conversions(self):
        assert ev("boolean(0)") is False
        assert ev("boolean(0.0)") is False
        assert ev("boolean(1)") is True
        assert ev("boolean('')") is False
        assert ev("boolean('x')") is True
        assert ev("boolean(//v)") is True
        assert ev("boolean(//missing)") is False

    def test_nan_is_false(self):
        assert ev("boolean(0 div 0)") is False

    def test_lang(self):
        w = ev("//w")[0]
        inner = ev("//w/inner")[0]
        assert ev("lang('en')", node=w) is True
        assert ev("lang('en-gb')", node=w) is True
        assert ev("lang('en')", node=inner) is True  # inherited
        assert ev("lang('fr')", node=w) is False


class TestNumberFunctions:
    def test_number_conversions(self):
        assert ev("number('12.5')") == 12.5
        assert ev("number(' 3 ')") == 3.0
        assert math.isnan(ev("number('abc')"))
        assert ev("number(true())") == 1.0
        assert ev("number(false())") == 0.0

    def test_floor_ceiling(self):
        assert ev("floor(2.6)") == 2.0
        assert ev("floor(-2.4)") == -3.0
        assert ev("ceiling(2.1)") == 3.0
        assert ev("ceiling(-2.9)") == -2.0

    def test_round_half_up(self):
        assert ev("round(2.5)") == 3.0
        assert ev("round(-2.5)") == -2.0  # rounds toward +infinity
        assert ev("round(2.4)") == 2.0

    def test_round_special_values(self):
        assert math.isnan(ev("round(0 div 0)"))
        assert ev("round(1 div 0)") == math.inf
