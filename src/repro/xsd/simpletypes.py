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

    The chain is walked once, on first use: the primitive at its root
    and the facets accumulated along it are kept on the type.  A type is
    therefore not changed after it has been used.
    """

    base: "Datatype | SimpleType"
    facets: list[Facet] = field(default_factory=list)
    name: str | None = None

    def __post_init__(self) -> None:
        self._plan: tuple[Datatype, tuple[Facet, ...]] | None = None

    def _resolved(self) -> tuple[Datatype, tuple[Facet, ...]]:
        """``(primitive, facets of this type and every ancestor)``."""
        plan = self._plan
        if plan is None:
            facets: list[Facet] = []
            current: Datatype | SimpleType = self
            while isinstance(current, SimpleType):
                facets.extend(current.facets)
                current = current.base
            plan = self._plan = (current, tuple(facets))
        return plan

    @property
    def primitive(self) -> Datatype:
        """The built-in datatype at the root of the derivation chain."""
        return self._resolved()[0]

    @property
    def id_kind(self) -> str | None:
        """ID/IDREF/IDREFS classification inherited from the primitive."""
        return self._resolved()[0].id_kind

    def normalize(self, text: str) -> str:
        """Apply the primitive's whiteSpace facet."""
        return self._resolved()[0].normalize(text)

    def check(self, text: str) -> tuple[str, object]:
        """Validate *text*: ``(lexical form, typed value)``.

        Raises ``ValueError`` naming the first failing facet.
        """
        primitive, facets = self._resolved()
        lexical = primitive.normalize(text)
        value = primitive.parse(lexical)
        for facet in facets:
            problem = facet.check(lexical, value)
            if problem is not None:
                raise ValueError(problem)
        return lexical, value

    def validate(self, text: str) -> object:
        """Validate *text*; return the typed value or raise ``ValueError``."""
        return self.check(text)[1]

    def all_facets(self) -> list[Facet]:
        """Facets of this type and every restriction ancestor."""
        return list(self._resolved()[1])

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

    def check(self, text: str) -> tuple[str, object]:
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
        return lexical, values

    def validate(self, text: str) -> object:
        return self.check(text)[1]

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

    def check(self, text: str) -> tuple[str, object]:
        """The lexical form and value of the first member accepting *text*."""
        problems: list[str] = []
        for member in self.member_types:
            try:
                return member.check(text)  # type: ignore[union-attr]
            except ValueError as exc:
                problems.append(str(exc))
        raise ValueError(
            "no union member accepted the value: " + "; ".join(problems))

    def validate(self, text: str) -> object:
        return self.check(text)[1]

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
    def check(text: str) -> tuple[str, object]:
        return text, text

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
