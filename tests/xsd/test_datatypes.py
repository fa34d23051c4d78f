"""Built-in XSD datatype parsing and whitespace handling."""

from datetime import date, datetime, time
from decimal import Decimal

import pytest

from repro.xsd.datatypes import BUILTIN_TYPES, lookup_builtin


def validate(type_name, text):
    return lookup_builtin(type_name).validate(text)


class TestLookup:
    def test_strips_prefix(self):
        assert lookup_builtin("xsd:string").name == "string"

    def test_unknown_type(self):
        with pytest.raises(KeyError, match="unknown built-in"):
            lookup_builtin("xsd:nope")

    def test_registry_size(self):
        assert len(BUILTIN_TYPES) > 30


class TestStringFamily:
    def test_string_preserves_whitespace(self):
        assert validate("string", "  a\tb\n") == "  a\tb\n"

    def test_normalized_string_replaces(self):
        assert validate("normalizedString", "a\tb\nc") == "a b c"

    def test_token_collapses(self):
        assert validate("token", "  a   b  ") == "a b"

    def test_only_the_four_s_characters_are_white_space(self):
        """XSD whiteSpace counts #x20, #x9, #xD and #xA only; U+00A0,
        U+0085, U+2028 and U+3000 are content."""
        assert validate("token", "x\xa0y") == "x\xa0y"
        assert validate("token", " a\u3000b\u2028 \t c\x85 ") == \
            "a\u3000b\u2028 c\x85"
        # One item, and not an NMTOKEN: U+00A0 separates nothing.
        with pytest.raises(ValueError):
            validate("NMTOKENS", "a\xa0b")
        assert validate("NMTOKENS", "a\tb") == ["a", "b"]

    def test_language(self):
        assert validate("language", "en-GB") == "en-GB"
        with pytest.raises(ValueError):
            validate("language", "english language")


class TestBoolean:
    @pytest.mark.parametrize("text,value", [
        ("true", True), ("1", True), ("false", False), ("0", False),
        (" true ", True),
    ])
    def test_valid(self, text, value):
        assert validate("boolean", text) is value

    @pytest.mark.parametrize("text", ["TRUE", "yes", "", "2"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            validate("boolean", text)


class TestNumeric:
    def test_decimal(self):
        assert validate("decimal", "3.14") == Decimal("3.14")
        assert validate("decimal", "-.5") == Decimal("-0.5")
        with pytest.raises(ValueError):
            validate("decimal", "1e3")  # no exponent in xsd:decimal

    def test_integer(self):
        assert validate("integer", "-42") == -42
        with pytest.raises(ValueError):
            validate("integer", "4.0")

    @pytest.mark.parametrize("type_name,good,bad", [
        ("nonNegativeInteger", "0", "-1"),
        ("positiveInteger", "1", "0"),
        ("negativeInteger", "-1", "0"),
        ("byte", "127", "128"),
        ("unsignedByte", "255", "256"),
        ("short", "-32768", "-32769"),
        ("int", "2147483647", "2147483648"),
    ])
    def test_bounded_integers(self, type_name, good, bad):
        validate(type_name, good)
        with pytest.raises(ValueError):
            validate(type_name, bad)

    def test_float_special_values(self):
        assert validate("float", "INF") == float("inf")
        assert validate("double", "-INF") == float("-inf")
        assert str(validate("float", "NaN")) == "nan"
        assert validate("double", "1e3") == 1000.0

    def test_float_rejects_words(self):
        with pytest.raises(ValueError):
            validate("float", "Infinity")


class TestTemporal:
    def test_date(self):
        assert validate("date", "2002-03-15") == date(2002, 3, 15)
        assert validate("date", "2002-03-15Z") == date(2002, 3, 15)

    @pytest.mark.parametrize("text", [
        "2002-13-01", "2002-02-30", "02-03-15", "2002/03/15", "",
    ])
    def test_bad_dates(self, text):
        with pytest.raises(ValueError):
            validate("date", text)

    def test_time(self):
        assert validate("time", "13:20:00") == time(13, 20, 0)
        assert validate("time", "13:20:00.5") == time(13, 20, 0, 500000)

    def test_datetime(self):
        expected = datetime(2002, 3, 15, 13, 20, 0)
        assert validate("dateTime", "2002-03-15T13:20:00") == expected

    def test_gyear(self):
        assert validate("gYear", "2002") == 2002

    def test_duration(self):
        assert validate("duration", "P1Y2M3DT4H5M6S") == "P1Y2M3DT4H5M6S"
        with pytest.raises(ValueError):
            validate("duration", "P")


class TestNames:
    def test_ncname(self):
        assert validate("NCName", "factclass") == "factclass"
        with pytest.raises(ValueError):
            validate("NCName", "a:b")

    def test_qname(self):
        assert validate("QName", "xsd:element") == "xsd:element"

    def test_nmtokens(self):
        assert validate("NMTOKENS", "a b c") == ["a", "b", "c"]
        with pytest.raises(ValueError):
            validate("NMTOKENS", "   ")


class TestIdFamily:
    def test_id_kinds(self):
        assert lookup_builtin("ID").id_kind == "ID"
        assert lookup_builtin("IDREF").id_kind == "IDREF"
        assert lookup_builtin("IDREFS").id_kind == "IDREFS"
        assert lookup_builtin("string").id_kind is None

    def test_id_is_ncname(self):
        assert validate("ID", " m1 ") == "m1"  # collapsed
        with pytest.raises(ValueError):
            validate("ID", "two tokens")

    def test_idrefs_list(self):
        assert validate("IDREFS", "a b") == ["a", "b"]


class TestBinary:
    def test_base64(self):
        assert validate("base64Binary", "aGk=") == b"hi"
        with pytest.raises(ValueError):
            validate("base64Binary", "!!!")

    def test_hex(self):
        assert validate("hexBinary", "6869") == b"hi"
        with pytest.raises(ValueError):
            validate("hexBinary", "ABC")  # odd length
