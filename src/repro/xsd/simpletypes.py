"""Simple-type definitions: restriction, list, and union variants.

A :class:`SimpleType` wraps a built-in :class:`~repro.xsd.datatypes.Datatype`
(or another simple type) with constraining facets.  Validation returns the
typed value so the instance validator can track IDs and compare ordered
facets on values rather than text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..xml.chars import collapse_whitespace, split_xml_space
from .datatypes import Datatype, lookup_builtin
from .facets import Facet

__all__ = ["SimpleType", "ListType", "UnionType", "AnySimpleType",
           "builtin_simple_type"]


@dataclass
class SimpleType:
    """A simple type derived by restriction.

    ``name`` is None for anonymous (Russian-doll) types.  ``base`` may be a
    built-in datatype or another :class:`SimpleType` — facets accumulate
    down the derivation chain.
    """

    base: "Datatype | SimpleType"
    facets: list[Facet] = field(default_factory=list)
    name: str | None = None

    @property
    def primitive(self) -> Datatype:
        """The built-in datatype at the root of the derivation chain."""
        base = self.base
        while isinstance(base, SimpleType):
            base = base.base
        return base

    @property
    def id_kind(self) -> str | None:
        """ID/IDREF/IDREFS classification inherited from the primitive."""
        return self.primitive.id_kind

    def normalize(self, text: str) -> str:
        """Apply the primitive's whiteSpace facet."""
        return self.primitive.normalize(text)

    def validate(self, text: str) -> object:
        """Validate *text*; return the typed value or raise ``ValueError``."""
        lexical = self.normalize(text)
        value = self._parse(lexical)
        for facet in self.all_facets():
            problem = facet.check(lexical, value)
            if problem is not None:
                raise ValueError(problem)
        return value

    def _parse(self, lexical: str) -> object:
        base = self.base
        if isinstance(base, SimpleType):
            return base._parse(lexical)
        return base.parse(lexical)

    def all_facets(self) -> list[Facet]:
        """Facets of this type and every restriction ancestor."""
        facets: list[Facet] = []
        current: Datatype | SimpleType = self
        while isinstance(current, SimpleType):
            facets.extend(current.facets)
            current = current.base
        return facets

    def describe(self) -> str:
        """A short human-readable description for the tree view."""
        label = self.name or f"restriction of {self.primitive.name}"
        parts = [facet.describe() for facet in self.facets]
        return f"{label} [{'; '.join(parts)}]" if parts else label


@dataclass
class ListType:
    """A simple type whose value is a whitespace-separated item list."""

    item_type: "SimpleType | Datatype"
    facets: list[Facet] = field(default_factory=list)
    name: str | None = None
    id_kind = None

    def normalize(self, text: str) -> str:
        return collapse_whitespace(text)

    def validate(self, text: str) -> object:
        lexical = self.normalize(text)
        items = split_xml_space(lexical)
        values = [
            self.item_type.validate(item)  # type: ignore[union-attr]
            for item in items
        ]
        for facet in self.facets:
            problem = facet.check(lexical, values)
            if problem is not None:
                raise ValueError(problem)
        return values

    def describe(self) -> str:
        item = getattr(self.item_type, "name", None) or "anonymous"
        return self.name or f"list of {item}"


@dataclass
class UnionType:
    """A simple type accepting any of its member types' values."""

    member_types: Sequence["SimpleType | Datatype"]
    name: str | None = None
    id_kind = None

    def normalize(self, text: str) -> str:
        return text.strip(" \t\r\n")

    def validate(self, text: str) -> object:
        problems: list[str] = []
        for member in self.member_types:
            try:
                return member.validate(text)  # type: ignore[union-attr]
            except ValueError as exc:
                problems.append(str(exc))
        raise ValueError(
            "no union member accepted the value: " + "; ".join(problems))

    def describe(self) -> str:
        members = ", ".join(
            getattr(m, "name", None) or "anonymous" for m in self.member_types)
        return self.name or f"union of ({members})"


class AnySimpleType:
    """The unconstrained simple type (used for untyped attributes)."""

    name = "anySimpleType"
    id_kind = None

    @staticmethod
    def normalize(text: str) -> str:
        return text

    @staticmethod
    def validate(text: str) -> object:
        return text

    @staticmethod
    def describe() -> str:
        return "anySimpleType"


def builtin_simple_type(name: str) -> SimpleType:
    """Wrap the built-in datatype *name* as a facet-less SimpleType."""
    datatype = lookup_builtin(name)
    return SimpleType(base=datatype, name=datatype.name)
