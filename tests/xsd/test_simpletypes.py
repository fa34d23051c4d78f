"""Simple-type variants: restriction chains, lists, unions, describe()."""

import pytest

from repro.xsd.datatypes import lookup_builtin
from repro.xsd.facets import Enumeration, Length, MaxLength, MinLength
from repro.xsd.simpletypes import (
    AnySimpleType,
    ListType,
    SimpleType,
    UnionType,
    builtin_simple_type,
)


class TestBuiltinWrapper:
    def test_wraps_datatype(self):
        stype = builtin_simple_type("integer")
        assert stype.name == "integer"
        assert stype.validate("42") == 42

    def test_id_kind_propagates(self):
        assert builtin_simple_type("IDREF").id_kind == "IDREF"
        assert builtin_simple_type("string").id_kind is None

    def test_normalize_uses_primitive_whitespace(self):
        assert builtin_simple_type("string").normalize(" a ") == " a "
        assert builtin_simple_type("token").normalize(" a  b ") == "a b"


class TestListType:
    def make(self):
        return ListType(item_type=builtin_simple_type("integer"))

    def test_items_validated(self):
        assert self.make().validate("1 2 3") == [1, 2, 3]

    def test_bad_item_rejected(self):
        with pytest.raises(ValueError):
            self.make().validate("1 two 3")

    def test_length_facet_counts_items(self):
        stype = ListType(item_type=builtin_simple_type("integer"),
                         facets=[Length(2)])
        assert stype.validate("1 2") == [1, 2]
        with pytest.raises(ValueError):
            stype.validate("1 2 3")

    def test_whitespace_collapsed(self):
        assert self.make().validate("  1\t2\n3 ") == [1, 2, 3]

    def test_only_xml_white_space_separates_items(self):
        stype = ListType(item_type=builtin_simple_type("string"))
        assert stype.normalize(" a\xa0b \r\n c\u3000 ") == "a\xa0b c\u3000"
        assert stype.validate("a\xa0b c\u2028d") == ["a\xa0b", "c\u2028d"]

    def test_describe(self):
        assert "integer" in self.make().describe()


class TestUnionType:
    def make(self):
        return UnionType(member_types=[
            builtin_simple_type("integer"),
            builtin_simple_type("boolean")])

    def test_first_matching_member_wins(self):
        union = self.make()
        assert union.validate("42") == 42
        assert union.validate("true") is True

    def test_no_member_matches(self):
        with pytest.raises(ValueError, match="no union member"):
            self.make().validate("maybe")

    def test_member_order_matters(self):
        # "1" is a valid integer AND a valid boolean; integer is first.
        assert self.make().validate("1") == 1
        flipped = UnionType(member_types=[
            builtin_simple_type("boolean"),
            builtin_simple_type("integer")])
        assert flipped.validate("1") is True

    def test_describe(self):
        text = self.make().describe()
        assert "integer" in text and "boolean" in text


class TestAnySimpleType:
    def test_accepts_anything(self):
        assert AnySimpleType.validate("anything at all") == \
            "anything at all"

    def test_no_normalization(self):
        assert AnySimpleType.normalize("  x  ") == "  x  "


class TestDerivationChains:
    def test_three_level_chain(self):
        base = SimpleType(base=lookup_builtin("string"),
                          facets=[MaxLength(10)], name="short")
        middle = SimpleType(base=base, facets=[MinLength(2)],
                            name="shortish")
        leaf = SimpleType(base=middle,
                          facets=[Enumeration(("ab", "abc"))])
        assert leaf.validate("ab") == "ab"
        with pytest.raises(ValueError):
            leaf.validate("x")  # fails the enum AND minLength
        assert len(leaf.all_facets()) == 3

    def test_describe_mentions_facets(self):
        stype = SimpleType(base=lookup_builtin("string"),
                           facets=[Enumeration(("a",))])
        assert "enumeration" in stype.describe()

    def test_named_describe(self):
        stype = SimpleType(base=lookup_builtin("string"),
                           name="Multiplicity")
        assert stype.describe() == "Multiplicity"
