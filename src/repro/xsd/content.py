"""Content-model validation via position automata.

A :class:`Particle` tree compiles to an epsilon-free NFA (Glushkov-style:
Thompson construction followed by epsilon-closure elimination).  Validation
simulates the NFA over an element's children with a set of live states —
linear in ``children × states`` and immune to pathological backtracking.

Bounded ``maxOccurs`` values are implemented by unrolling (the goldmodel
schema only uses 0, 1 and unbounded, but bounded counts up to
:data:`MAX_UNROLL` are supported for generality).

``xsd:all`` groups do not compose with the automaton construction and are
validated by a dedicated counting matcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..xml.chars import strip_xml_space
from ..xml.dom import Comment, Element, Node, ProcessingInstruction, Text
from .components import AnyWildcard, ElementDecl, ModelGroup, Particle
from .errors import SchemaError

__all__ = ["ContentAutomaton", "compile_content", "MAX_UNROLL"]

#: Largest bounded maxOccurs the compiler will unroll.
MAX_UNROLL = 512


@dataclass
class _State:
    """One NFA state: transitions map symbol objects to state sets."""

    index: int
    transitions: list[tuple["ElementDecl | AnyWildcard", "_State"]] = \
        field(default_factory=list)
    accepting: bool = False


class ContentAutomaton:
    """A compiled content model ready to validate child sequences."""

    def __init__(self, particle: Particle) -> None:
        self._particle = particle
        self._all_group = self._extract_all_group(particle)
        #: What :meth:`matching_decl` answers, by child name.
        self._decls: dict[str, ElementDecl] = {}
        if self._all_group is None:
            self._start, states = _compile_nfa(particle)
            self._states = states
            symbols = (symbol for state in states
                       for symbol, _ in state.transitions)
        else:
            symbols = (member.term for member in self._all_group.particles)
        for symbol in symbols:
            if isinstance(symbol, ElementDecl):
                self._decls.setdefault(symbol.name, symbol)

    @staticmethod
    def _extract_all_group(particle: Particle) -> ModelGroup | None:
        term = particle.term
        if isinstance(term, ModelGroup) and term.kind == "all":
            if particle.max_occurs not in (0, 1):
                raise SchemaError("an xsd:all group cannot repeat")
            return term
        return None

    # -- validation ------------------------------------------------------------

    def validate(self, children: list[Element]) -> str | None:
        """Validate *children* (element nodes only).

        Returns None on success or an error message describing the first
        mismatch and what was expected.
        """
        if self._all_group is not None:
            return self._validate_all(children)
        return self._simulate(children)

    def matching_decl(self, name: str) -> ElementDecl | None:
        """The element declaration a child named *name* would match.

        Used by the validator to recurse into children with the right
        type: the first declaration of that name in the automaton.
        """
        return self._decls.get(name)

    def _simulate(self, children: list[Element]) -> str | None:
        current = {self._start.index}
        states = self._states
        for position, child in enumerate(children):
            nxt: set[int] = set()
            for index in current:
                for symbol, target in states[index].transitions:
                    if _symbol_matches(symbol, child):
                        nxt.add(target.index)
            if not nxt:
                expected = self._expected_names(current)
                return (
                    f"unexpected element <{child.name}> at child position "
                    f"{position + 1}; expected "
                    f"{expected or 'no more elements'}")
            current = nxt
        if not any(states[index].accepting for index in current):
            expected = self._expected_names(current)
            return f"content is incomplete; expected {expected}"
        return None

    def _expected_names(self, live: set[int]) -> str:
        names = sorted({
            symbol.name if isinstance(symbol, ElementDecl) else "*"
            for index in live
            for symbol, _ in self._states[index].transitions
        })
        return ", ".join(f"<{name}>" for name in names)

    def _validate_all(self, children: list[Element]) -> str | None:
        assert self._all_group is not None
        counts: dict[str, int] = {}
        declared = {}
        for particle in self._all_group.particles:
            term = particle.term
            if not isinstance(term, ElementDecl):
                raise SchemaError("xsd:all may only contain elements")
            declared[term.name] = particle
        for child in children:
            if child.name not in declared:
                return f"unexpected element <{child.name}> in all-group"
            counts[child.name] = counts.get(child.name, 0) + 1
        for name, particle in declared.items():
            count = counts.get(name, 0)
            if count < particle.min_occurs:
                return f"element <{name}> occurs {count} time(s), " \
                       f"minimum is {particle.min_occurs}"
            if particle.max_occurs is not None and \
                    count > particle.max_occurs:
                return f"element <{name}> occurs {count} time(s), " \
                       f"maximum is {particle.max_occurs}"
        return None

    # -- introspection -----------------------------------------------------------

    def ambiguous_transitions(self) -> list[str]:
        """Element names reachable ambiguously (UPA violations).

        A content model violates Unique Particle Attribution when some
        state has two transitions on the same element name leading to
        different states.  Returns the offending names (empty = clean).
        """
        if self._all_group is not None:
            return []
        offenders: set[str] = set()
        for state in self._states:
            seen: dict[str, int] = {}
            for symbol, target in state.transitions:
                name = symbol.name if isinstance(symbol, ElementDecl) else "*"
                if name in seen and seen[name] != target.index:
                    offenders.add(name)
                seen[name] = target.index
        return sorted(offenders)


def compile_content(particle: Particle) -> ContentAutomaton:
    """Compile *particle* into a reusable :class:`ContentAutomaton`."""
    return ContentAutomaton(particle)


def _symbol_matches(symbol: ElementDecl | AnyWildcard, child: Element) -> bool:
    if isinstance(symbol, AnyWildcard):
        return True
    return child.name == symbol.name


# -- NFA construction -------------------------------------------------------------


class _Fragment:
    """An epsilon-NFA fragment under construction."""

    __slots__ = ("entries", "exits", "accepts_empty")

    def __init__(self, entries: list[tuple[object, "_State"]],
                 exits: list["_State"], accepts_empty: bool) -> None:
        # entries: transitions leaving the fragment's start.
        self.entries = entries
        # exits: states whose completion ends the fragment.
        self.exits = exits
        self.accepts_empty = accepts_empty


def _compile_nfa(particle: Particle) -> tuple[_State, list[_State]]:
    states: list[_State] = []

    def new_state() -> _State:
        state = _State(len(states))
        states.append(state)
        return state

    def build(particle: Particle) -> _Fragment:
        fragment = build_term(particle.term)
        return apply_occurs(fragment, particle.min_occurs,
                            particle.max_occurs, particle.term)

    def build_term(term: object) -> _Fragment:
        if isinstance(term, (ElementDecl, AnyWildcard)):
            state = new_state()
            return _Fragment([(term, state)], [state], False)
        if isinstance(term, ModelGroup):
            if term.kind == "sequence":
                return build_sequence([build(p) for p in term.particles])
            if term.kind == "choice":
                return build_choice([build(p) for p in term.particles])
            raise SchemaError(
                "xsd:all cannot be nested inside other groups")
        raise SchemaError(f"unsupported term {term!r}")

    def build_sequence(fragments: list[_Fragment]) -> _Fragment:
        if not fragments:
            return _Fragment([], [], True)
        result = fragments[0]
        for fragment in fragments[1:]:
            result = concatenate(result, fragment)
        return result

    def concatenate(left: _Fragment, right: _Fragment) -> _Fragment:
        for state in left.exits:
            state.transitions.extend(right.entries)
        entries = list(left.entries)
        if left.accepts_empty:
            entries.extend(right.entries)
        exits = list(right.exits)
        if right.accepts_empty:
            exits.extend(left.exits)
        return _Fragment(entries, exits,
                         left.accepts_empty and right.accepts_empty)

    def build_choice(fragments: list[_Fragment]) -> _Fragment:
        entries: list[tuple[object, _State]] = []
        exits: list[_State] = []
        accepts_empty = False
        for fragment in fragments:
            entries.extend(fragment.entries)
            exits.extend(fragment.exits)
            accepts_empty = accepts_empty or fragment.accepts_empty
        return _Fragment(entries, exits, accepts_empty or not fragments)

    def clone_term(term: object) -> _Fragment:
        return build_term(term)

    def apply_occurs(fragment: _Fragment, low: int, high: int | None,
                     term: object) -> _Fragment:
        if high is not None and high > MAX_UNROLL:
            raise SchemaError(
                f"maxOccurs={high} exceeds the unroll limit {MAX_UNROLL}; "
                "use 'unbounded'")
        if low == 1 and high == 1:
            return fragment
        if high is None:
            # fragment{low,} — chain `low` copies, make the last self-looping.
            looped = fragment
            for state in looped.exits:
                state.transitions.extend(looped.entries)
            if low <= 1:
                looped.accepts_empty = looped.accepts_empty or low == 0
                return looped
            chain = [clone_term(term) for _ in range(low - 1)]
            result = build_sequence(chain)
            return concatenate(result, looped)
        # Bounded: `low` mandatory copies + (high-low) optional copies.
        copies = [fragment] + [clone_term(term) for _ in range(high - 1)]
        for optional in copies[low:]:
            optional.accepts_empty = True
        if low == 0 and high == 0:
            return _Fragment([], [], True)
        return build_sequence(copies[:high])

    start = new_state()
    fragment = build(particle)
    start.transitions.extend(fragment.entries)
    for state in fragment.exits:
        state.accepting = True
    start.accepting = fragment.accepts_empty
    return start, states


def element_children(element: Element) -> list[Element]:
    """Child *elements* of a node (ignoring comments/PIs/whitespace text)."""
    return [c for c in element.children if isinstance(c, Element)]


def significant_text(element: Element) -> str:
    """Concatenated non-ignorable character data of *element*'s children."""
    return "".join(
        child.data for child in element.children if isinstance(child, Text))


def has_significant_text(element: Element) -> bool:
    """True if *element* has character data other than XML white space.

    Only the four ``S`` characters are ignorable in element-only and
    empty content; U+00A0 and the other Unicode spaces are content.
    """
    return any(
        isinstance(child, Text) and strip_xml_space(child.data)
        for child in element.children)
