"""The Schema object: a registry of global components plus validation entry.

A :class:`Schema` holds global element declarations, named simple and
complex types, and (derived) the key constraints reachable from its root
elements.  Build one programmatically with :class:`SchemaBuilder` (how the
``goldmodel`` schema is produced) or parse a schema document with
:func:`repro.xsd.reader.read_schema`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .components import (
    AttributeDecl,
    ComplexType,
    ElementDecl,
    IdentityConstraint,
    ModelGroup,
    Particle,
    SimpleTypeLike,
)
from .content import ContentAutomaton, compile_content
from .errors import SchemaError
from .simpletypes import ListType, SimpleType, UnionType

__all__ = ["Schema", "SchemaBuilder"]


@dataclass
class Schema:
    """A compiled schema ready for validation.

    ``elements`` maps global element names to declarations; ``types`` maps
    user-defined type names (simple and complex) to definitions.
    """

    elements: dict[str, ElementDecl] = field(default_factory=dict)
    types: dict[str, "ComplexType | SimpleTypeLike"] = field(
        default_factory=dict)
    target_namespace: str | None = None
    #: Optional free-text annotation (xsd:documentation of the schema).
    documentation: str | None = None

    def __post_init__(self) -> None:
        self._automata: dict[int, ContentAutomaton] = {}
        self._referable: dict[str, IdentityConstraint] | None = None

    # -- lookups -----------------------------------------------------------

    def element(self, name: str) -> ElementDecl:
        """The global element declaration *name* (raises SchemaError)."""
        try:
            return self.elements[name]
        except KeyError:
            raise SchemaError(
                f"no global element declaration named {name!r}") from None

    def type_definition(self, name: str) -> "ComplexType | SimpleTypeLike":
        """The named type *name* (raises SchemaError when undefined)."""
        try:
            return self.types[name]
        except KeyError:
            raise SchemaError(f"no type definition named {name!r}") from None

    def automaton_for(self, ctype: ComplexType) -> ContentAutomaton | None:
        """The (cached) compiled content automaton of *ctype*."""
        if ctype.content is None:
            return None
        key = id(ctype)
        automaton = self._automata.get(key)
        if automaton is None:
            automaton = compile_content(ctype.content)
            self._automata[key] = automaton
        return automaton

    def referable_constraints(self) -> dict[str, IdentityConstraint]:
        """The keys and uniques by name: what a keyref may refer to.

        XSD 1.0 Part 1 §3.11.1 allows a key or a unique.  Built on the
        first call and kept; callers must not change it.
        """
        if self._referable is None:
            self._referable = {
                constraint.name: constraint
                for _, constraint in self.iter_identity_constraints()
                if constraint.kind != "keyref"}
        return self._referable

    # -- traversal ----------------------------------------------------------

    def iter_element_decls(self):
        """Yield every element declaration reachable from the globals."""
        seen: set[int] = set()
        stack = list(self.elements.values())
        while stack:
            decl = stack.pop()
            if id(decl) in seen:
                continue
            seen.add(id(decl))
            yield decl
            ctype = decl.type
            if isinstance(ctype, ComplexType) and ctype.content is not None:
                stack.extend(_particle_elements(ctype.content))

    def iter_identity_constraints(self):
        """Yield ``(element_decl, constraint)`` pairs across the schema."""
        for decl in self.iter_element_decls():
            for constraint in decl.constraints:
                yield decl, constraint


def _particle_elements(particle: Particle) -> list[ElementDecl]:
    found: list[ElementDecl] = []
    stack = [particle]
    while stack:
        current = stack.pop()
        term = current.term
        if isinstance(term, ElementDecl):
            found.append(term)
        elif isinstance(term, ModelGroup):
            stack.extend(term.particles)
    return found


class SchemaBuilder:
    """Fluent helper for building schemas programmatically.

    The Russian-doll style of the paper maps naturally: nested calls create
    anonymous complex types inline.

    >>> builder = SchemaBuilder()
    >>> root = builder.element(
    ...     'model',
    ...     builder.complex_type(
    ...         content=builder.sequence(
    ...             builder.particle(builder.element('item'), 0, None)),
    ...         attributes=[builder.attribute('id', 'ID', use='required')]))
    >>> schema = builder.build(root)
    >>> sorted(schema.elements)
    ['model']
    """

    def __init__(self) -> None:
        self._named_types: dict[str, ComplexType | SimpleTypeLike] = {}

    # -- simple types ------------------------------------------------------------

    def simple_type(self, base: str | SimpleTypeLike, *,
                    name: str | None = None,
                    facets: list | None = None) -> SimpleType:
        """A restriction simple type over *base* (builtin name or type)."""
        from .simpletypes import builtin_simple_type

        base_type = builtin_simple_type(base) if isinstance(base, str) else base
        stype = SimpleType(base=base_type, facets=facets or [], name=name)
        if name:
            self.register_type(name, stype)
        return stype

    def enumeration(self, base: str, values: list[str], *,
                    name: str | None = None) -> SimpleType:
        """Shorthand for a restriction with an enumeration facet."""
        from .facets import Enumeration

        return self.simple_type(base, name=name,
                                facets=[Enumeration(tuple(values))])

    # -- structures -----------------------------------------------------------------

    @staticmethod
    def attribute(name: str, type_: str | SimpleTypeLike = "string", *,
                  use: str = "optional", default: str | None = None,
                  fixed: str | None = None) -> AttributeDecl:
        """An attribute declaration; *type_* may be a builtin type name."""
        from .simpletypes import builtin_simple_type

        resolved = builtin_simple_type(type_) if isinstance(type_, str) \
            else type_
        return AttributeDecl(name, resolved, use=use, default=default,
                             fixed=fixed)

    @staticmethod
    def element(name: str,
                type_: "ComplexType | SimpleTypeLike | str | None" = None,
                *, constraints: list[IdentityConstraint] | None = None
                ) -> ElementDecl:
        """An element declaration; *type_* may be a builtin type name."""
        from .simpletypes import builtin_simple_type

        resolved = builtin_simple_type(type_) if isinstance(type_, str) \
            else type_
        return ElementDecl(name, resolved, constraints=constraints or [])

    @staticmethod
    def particle(term, min_occurs: int = 1,
                 max_occurs: int | None = 1) -> Particle:
        """Wrap *term* with occurrence bounds."""
        return Particle(term, min_occurs, max_occurs)

    @staticmethod
    def sequence(*parts: "Particle | ElementDecl | ModelGroup") -> Particle:
        """A sequence group particle (bare terms get 1..1 bounds)."""
        return Particle(ModelGroup("sequence", [_as_particle(p)
                                                for p in parts]))

    @staticmethod
    def choice(*parts: "Particle | ElementDecl | ModelGroup") -> Particle:
        """A choice group particle."""
        return Particle(ModelGroup("choice", [_as_particle(p)
                                              for p in parts]))

    def complex_type(self, *, name: str | None = None,
                     content: Particle | None = None,
                     attributes: list[AttributeDecl] | None = None,
                     simple_content: SimpleTypeLike | None = None,
                     mixed: bool = False) -> ComplexType:
        """A complex type; named ones are registered on the builder."""
        ctype = ComplexType(name=name, attributes=attributes or [],
                            content=content, simple_content=simple_content,
                            mixed=mixed)
        if name:
            self.register_type(name, ctype)
        return ctype

    def register_type(self, name: str,
                      definition: "ComplexType | SimpleTypeLike") -> None:
        """Register a named type, rejecting duplicates."""
        if name in self._named_types:
            raise SchemaError(f"duplicate type definition {name!r}")
        self._named_types[name] = definition

    @staticmethod
    def key(name: str, selector: str, fields: list[str]) -> IdentityConstraint:
        """An ``xsd:key`` constraint."""
        return IdentityConstraint("key", name, selector, fields)

    @staticmethod
    def unique(name: str, selector: str,
               fields: list[str]) -> IdentityConstraint:
        """An ``xsd:unique`` constraint."""
        return IdentityConstraint("unique", name, selector, fields)

    @staticmethod
    def keyref(name: str, selector: str, fields: list[str],
               refer: str) -> IdentityConstraint:
        """An ``xsd:keyref`` constraint referring to key *refer*."""
        return IdentityConstraint("keyref", name, selector, fields,
                                  refer=refer)

    def build(self, *roots: ElementDecl,
              documentation: str | None = None) -> Schema:
        """Assemble the schema from global *roots* and registered types."""
        if not roots:
            raise SchemaError("a schema needs at least one global element")
        return Schema(
            elements={decl.name: decl for decl in roots},
            types=dict(self._named_types),
            documentation=documentation,
        )


def _as_particle(part) -> Particle:
    if isinstance(part, Particle):
        return part
    return Particle(part)
