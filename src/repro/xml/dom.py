"""A lightweight DOM tailored to the XPath 1.0 data model.

The tree distinguishes the seven XPath node kinds: root (document), element,
attribute, text, comment, processing instruction, and namespace.  It is
deliberately simpler than W3C DOM — no live collections, no entity nodes —
but it supports everything the XPath engine, the XSD/DTD validators and the
XSLT engine require:

* parent links and document order,
* namespace scoping (``xmlns`` declarations are tracked per element),
* string values per the XPath recommendation,
* safe mutation (used by XSLT result-tree construction).

Example
-------
>>> doc = Document()
>>> root = doc.append_child(Element("goldmodel"))
>>> root.set_attribute("name", "Sales DW")
>>> child = root.append_child(Element("factclasses"))
>>> root.get_attribute("name")
'Sales DW'
"""

from __future__ import annotations

from operator import methodcaller
from typing import Iterator, Sequence

from ..obs.recorder import RECORDER as _REC
from .chars import is_name, is_qname, split_qname
from .errors import DOMError

_ORDER_KEY = methodcaller("document_order_key")

__all__ = [
    "XML_NAMESPACE",
    "XMLNS_NAMESPACE",
    "Node",
    "Document",
    "Element",
    "Attribute",
    "Text",
    "Comment",
    "ProcessingInstruction",
    "NamespaceNode",
]

#: Namespace bound to the reserved ``xml`` prefix.
XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"
#: Namespace bound to the reserved ``xmlns`` prefix.
XMLNS_NAMESPACE = "http://www.w3.org/2000/xmlns/"


class Node:
    """Base class for all tree nodes.

    Document-order keys are memoized per node (``_order_cache``) and
    validated against a version counter kept on the tree's root
    (``_doc_version``): structural mutations that shift sibling indices
    bump the root's version, which lazily invalidates every cached key in
    that tree.  Reattaching a subtree under a new root invalidates its
    cached keys automatically because the cache also records which root
    the key was computed under.
    """

    __slots__ = ("parent", "_order_cache", "_doc_version")

    #: XPath node-kind name; overridden by subclasses.
    kind = "node"

    def __init__(self) -> None:
        self.parent: Node | None = None
        #: Cached ``(root, root_version, key)`` for document_order_key.
        self._order_cache: tuple | None = None
        #: Mutation counter; only meaningful on root nodes.
        self._doc_version = 0

    # -- tree navigation ---------------------------------------------------

    @property
    def document(self) -> "Document | None":
        """The owning :class:`Document`, or None for detached trees."""
        node: Node | None = self
        while node is not None:
            if isinstance(node, Document):
                return node
            node = node.parent
        return None

    @property
    def root(self) -> "Node":
        """The topmost ancestor (the document for attached nodes)."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        """Yield ancestors from parent up to (and including) the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # -- XPath data model --------------------------------------------------

    def string_value(self) -> str:
        """The node's string-value per XPath 1.0 §5."""
        raise NotImplementedError

    def document_order_key(self) -> tuple[int, ...]:
        """A sort key giving document order for attached nodes.

        The key is the path of child indices from the root; attributes and
        namespace nodes sort directly after their owner element and before
        its children (namespace nodes before attributes, per XPath).

        Keys are memoized: computing the key for one node caches partial
        keys for every ancestor on the way down, so sorting a node-set is
        amortized O(1) key lookups per node while the tree is stable.
        """
        if self.parent is None:
            return ()
        chain: list[Node] = []
        node: Node = self
        while node.parent is not None:
            chain.append(node)
            node = node.parent
        root = node
        version = root._doc_version
        key: tuple[int, ...] = ()
        if _REC.enabled:
            # Instrumented twin of the loop below; kept separate so the
            # disabled path pays exactly one flag check per call.
            hits = misses = 0
            for link in reversed(chain):
                cache = link._order_cache
                if cache is not None and cache[0] is root and \
                        cache[1] == version:
                    key = cache[2]
                    hits += 1
                else:
                    key = key + (link.parent._child_order_index(link),)
                    link._order_cache = (root, version, key)
                    misses += 1
            if hits:
                _REC.count("dom.order_key.hit", hits)
            if misses:
                _REC.count("dom.order_key.miss", misses)
            return key
        for link in reversed(chain):
            cache = link._order_cache
            if cache is not None and cache[0] is root and \
                    cache[1] == version:
                key = cache[2]
            else:
                key = key + (link.parent._child_order_index(link),)
                link._order_cache = (root, version, key)
        return key

    def _bump_doc_version(self) -> None:
        """Invalidate cached order keys for the whole tree (lazily)."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        node._doc_version += 1
        if _REC.enabled:
            _REC.count("dom.version_bump")

    def _child_order_index(self, child: "Node") -> int:
        raise DOMError(f"{type(self).__name__} has no children")


class _ParentNode(Node):
    """Shared implementation for nodes that hold children."""

    __slots__ = ("children", "_child_index")

    def __init__(self) -> None:
        super().__init__()
        self.children: list[Node] = []
        #: Lazily built ``id(child) -> order index`` map; None when stale.
        self._child_index: dict[int, int] | None = None

    def append_child(self, child: Node) -> Node:
        """Attach *child* as the last child and return it."""
        self._check_insertable(child)
        if child.parent is not None:
            child.parent.remove_child(child)  # type: ignore[union-attr]
        child.parent = self
        self.children.append(child)
        # Appending never shifts existing sibling indices, so cached order
        # keys stay valid; extend the index map in place when present.
        index = self._child_index
        if index is not None:
            base = 2 if isinstance(self, Element) else 0
            index[id(child)] = base + len(self.children) - 1
        return child

    def insert_before(self, child: Node, reference: Node | None) -> Node:
        """Insert *child* before *reference* (append when reference is None)."""
        if reference is None:
            return self.append_child(child)
        self._check_insertable(child)
        try:
            index = self.children.index(reference)
        except ValueError:
            raise DOMError("reference node is not a child") from None
        if child.parent is not None:
            child.parent.remove_child(child)  # type: ignore[union-attr]
        child.parent = self
        self.children.insert(index, child)
        self._children_changed()
        return child

    def remove_child(self, child: Node) -> Node:
        """Detach *child* and return it."""
        try:
            self.children.remove(child)
        except ValueError:
            raise DOMError("node to remove is not a child") from None
        self._children_changed()
        child.parent = None
        return child

    def _children_changed(self) -> None:
        """Invalidate order caches after a mutation that shifts indices.

        Callers that splice ``children`` directly (rather than through
        :meth:`insert_before` / :meth:`remove_child`) must invoke this, or
        cached document-order keys in the tree go stale.
        """
        self._child_index = None
        self._bump_doc_version()

    def _check_insertable(self, child: Node) -> None:
        if isinstance(child, (Document, Attribute, NamespaceNode)):
            raise DOMError(f"cannot insert a {child.kind} node as a child")
        if child is self:
            raise DOMError("cannot insert a node into itself")
        # Only a node with descendants can be an ancestor of self, so the
        # ancestor walk is skipped for leaves and freshly built elements.
        if isinstance(child, _ParentNode) and child.children:
            node: Node | None = self.parent
            while node is not None:
                if node is child:
                    raise DOMError("cannot insert a node into itself")
                node = node.parent

    def _child_order_index(self, child: Node) -> int:
        # Children start at 2 so namespace (0) and attribute (1) pseudo
        # positions of an element sort before them.  See Element.
        index = self._child_index
        if index is None:
            base = 2 if isinstance(self, Element) else 0
            index = {
                id(node): base + i for i, node in enumerate(self.children)
            }
            self._child_index = index
        try:
            return index[id(child)]
        except KeyError:
            raise DOMError("node is not a child") from None

    # -- traversal helpers ---------------------------------------------------

    def iter_descendants(self) -> Iterator[Node]:
        """Yield all descendants in document order (excluding self)."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, _ParentNode):
                stack.extend(reversed(node.children))

    def iter_elements(self) -> Iterator["Element"]:
        """Yield descendant elements in document order."""
        for node in self.iter_descendants():
            if isinstance(node, Element):
                yield node

    def find(self, name: str) -> "Element | None":
        """Return the first child element with tag *name*, or None."""
        for node in self.children:
            if isinstance(node, Element) and node.name == name:
                return node
        return None

    def find_all(self, name: str) -> list["Element"]:
        """Return all child elements with tag *name*."""
        return [
            node for node in self.children
            if isinstance(node, Element) and node.name == name
        ]

    def text_content(self) -> str:
        """Concatenated text of all descendant text nodes."""
        return "".join(
            node.data for node in self.iter_descendants()
            if isinstance(node, Text)
        )


class Document(_ParentNode):
    """The root node of a tree (the XPath *root node*).

    Holds at most one element child plus comments and processing
    instructions.  ``standalone``/``encoding``/``version`` record the XML
    declaration when parsed from text.
    """

    __slots__ = ("version", "encoding", "standalone", "doctype_name",
                 "doctype_system", "doctype_public", "internal_subset")

    kind = "document"

    def __init__(self) -> None:
        super().__init__()
        self.version = "1.0"
        self.encoding: str | None = None
        self.standalone: bool | None = None
        self.doctype_name: str | None = None
        self.doctype_system: str | None = None
        self.doctype_public: str | None = None
        self.internal_subset: str | None = None

    @property
    def root_element(self) -> "Element | None":
        """The document element, or None for an empty document."""
        for node in self.children:
            if isinstance(node, Element):
                return node
        return None

    def _check_insertable(self, child: Node) -> None:
        super()._check_insertable(child)
        if isinstance(child, Element) and self.root_element is not None:
            raise DOMError("document already has a root element")
        if isinstance(child, Text):
            raise DOMError("text is not allowed at document level")

    def string_value(self) -> str:
        return self.text_content()


class Element(_ParentNode):
    """An element node with ordered attributes and namespace declarations."""

    __slots__ = ("name", "attributes", "namespace_declarations",
                 "line", "column", "_ns_cache")

    kind = "element"

    def __init__(self, name: str, *, line: int | None = None,
                 column: int | None = None) -> None:
        if not is_qname(name):
            raise DOMError(f"invalid element name {name!r}")
        super().__init__()
        self.name = name
        self.attributes: list[Attribute] = []
        #: Mapping of prefix (``""`` for default) to namespace URI declared
        #: *on this element* (``xmlns`` / ``xmlns:p`` attributes).
        self.namespace_declarations: dict[str, str] = {}
        self.line = line
        self.column = column
        #: Cached ``(root, version, {prefix: uri})`` namespace resolutions.
        self._ns_cache: tuple | None = None

    @classmethod
    def parsed(cls, name: str, line: int, column: int,
               parent: "Element | None") -> "Element":
        """Parser-only constructor: an element whose *name* the parser
        has matched as a Name without a colon (an NCName, hence a QName),
        attached to *parent* but not yet among its children.  It sets
        every field :meth:`__init__` sets, without re-checking the name.
        """
        element = cls.__new__(cls)
        element.parent = parent
        element._order_cache = None
        element._doc_version = 0
        element.children = []
        element._child_index = None
        element.name = name
        element.attributes = []
        element.namespace_declarations = {}
        element.line = line
        element.column = column
        element._ns_cache = None
        return element

    # -- names ---------------------------------------------------------------

    @property
    def prefix(self) -> str | None:
        """Namespace prefix of the tag, or None."""
        return split_qname(self.name)[0]

    @property
    def local_name(self) -> str:
        """Local part of the tag name."""
        return split_qname(self.name)[1]

    @property
    def namespace_uri(self) -> str | None:
        """The namespace URI the tag is bound to in scope, or None."""
        return self.lookup_namespace(self.prefix or "")

    # -- namespaces ----------------------------------------------------------

    def declare_namespace(self, prefix: str, uri: str) -> None:
        """Declare ``xmlns:prefix="uri"`` (or default when prefix is '')."""
        self.namespace_declarations[prefix] = uri
        # A new declaration changes the in-scope bindings of this whole
        # subtree; the version bump lazily drops descendant ns caches.
        self._bump_doc_version()

    def lookup_namespace(self, prefix: str) -> str | None:
        """Resolve *prefix* against in-scope declarations (None if unbound).

        Resolutions are memoized per element with the same root/version
        stamp as document-order keys, so repeated name tests over a
        stable tree do not re-walk the ancestor chain.
        """
        if prefix == "xml":
            return XML_NAMESPACE
        if prefix == "xmlns":
            return XMLNS_NAMESPACE
        root: Node = self
        while root.parent is not None:
            root = root.parent
        version = root._doc_version
        cache = self._ns_cache
        if cache is None or cache[0] is not root or cache[1] != version:
            cache = (root, version, {})
            self._ns_cache = cache
        table: dict[str, str | None] = cache[2]
        try:
            return table[prefix]
        except KeyError:
            pass
        node: Node | None = self
        uri: str | None = None
        while isinstance(node, Element):
            if prefix in node.namespace_declarations:
                uri = node.namespace_declarations[prefix] or None
                break
            node = node.parent
        table[prefix] = uri
        return uri

    def in_scope_namespaces(self) -> dict[str, str]:
        """All prefix→URI bindings in scope (excluding undeclared defaults)."""
        bindings: dict[str, str] = {}
        chain: list[Element] = []
        node: Node | None = self
        while isinstance(node, Element):
            chain.append(node)
            node = node.parent
        for element in reversed(chain):
            for prefix, uri in element.namespace_declarations.items():
                if uri:
                    bindings[prefix] = uri
                else:
                    bindings.pop(prefix, None)
        bindings["xml"] = XML_NAMESPACE
        return bindings

    # -- attributes ------------------------------------------------------------

    def set_attribute(self, name: str, value: str) -> "Attribute":
        """Set attribute *name* to *value*, replacing any existing value."""
        for attr in self.attributes:
            if attr.name == name:
                attr.value = value
                return attr
        attr = Attribute(name, value)
        attr.parent = self
        self.attributes.append(attr)
        return attr

    def get_attribute(self, name: str, default: str | None = None) -> str | None:
        """Return the value of attribute *name*, or *default*."""
        for attr in self.attributes:
            if attr.name == name:
                return attr.value
        return default

    def get_attribute_node(self, name: str) -> "Attribute | None":
        """Return the :class:`Attribute` node named *name*, or None."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def has_attribute(self, name: str) -> bool:
        """Return True if attribute *name* is present."""
        return any(attr.name == name for attr in self.attributes)

    def remove_attribute(self, name: str) -> None:
        """Remove attribute *name* if present."""
        for i, attr in enumerate(self.attributes):
            if attr.name == name:
                attr.parent = None
                del self.attributes[i]
                # Later attributes shift down one position, invalidating
                # their cached order keys.
                self._bump_doc_version()
                return

    # -- XPath ----------------------------------------------------------------

    def string_value(self) -> str:
        return self.text_content()

    def _attr_order_index(self, attr: "Attribute") -> int:
        return 1

    def document_order_key_for_attr(self, attr: "Attribute") -> tuple:
        """Order key placing *attr* after self but before child nodes.

        Raises :class:`DOMError` when *attr* is not (or no longer) one of
        this element's attributes — a detached attribute has no document
        order, and silently defaulting its position used to mis-sort it.
        """
        index = next(
            (i for i, a in enumerate(self.attributes) if a is attr), None)
        if index is None:
            raise DOMError(
                f"attribute {attr.name!r} is not owned by <{self.name}>")
        key = self.document_order_key() + (1, index)
        cache = self._order_cache
        if cache is not None:
            # Reuse the element's (root, version) stamp so the attribute
            # key invalidates together with the element's own key.
            attr._order_cache = (cache[0], cache[1], key)
        return key


class Attribute(Node):
    """An attribute node.  Its parent is the owning element."""

    __slots__ = ("name", "value", "is_id", "specified", "line", "column",
                 "is_namespace_decl")

    kind = "attribute"

    def __init__(self, name: str, value: str, *, line: int | None = None,
                 column: int | None = None) -> None:
        if not is_qname(name) and not is_name(name):
            raise DOMError(f"invalid attribute name {name!r}")
        super().__init__()
        self.name = name
        self.value = value
        #: True for ``xmlns``/``xmlns:*`` declarations, which the XPath
        #: attribute axis must skip; precomputed because the axis visits
        #: every attribute of every traversed element.
        self.is_namespace_decl = name == "xmlns" or name.startswith("xmlns:")
        #: Set by DTD/XSD validation when the attribute has ID type.
        self.is_id = False
        #: False when the value came from a DTD/schema default.
        self.specified = True
        self.line = line
        self.column = column

    @classmethod
    def parsed(cls, name: str, value: str, line: int, column: int,
               owner: Element, is_namespace_decl: bool) -> "Attribute":
        """Parser-only constructor: an attribute of *owner* whose *name*
        the parser has matched as a Name.  It sets every field
        :meth:`__init__` sets, without re-checking the name; the caller
        appends it to ``owner.attributes``.
        """
        attr = cls.__new__(cls)
        attr.parent = owner
        attr._order_cache = None
        attr._doc_version = 0
        attr.name = name
        attr.value = value
        attr.is_namespace_decl = is_namespace_decl
        attr.is_id = False
        attr.specified = True
        attr.line = line
        attr.column = column
        return attr

    @property
    def prefix(self) -> str | None:
        return split_qname(self.name)[0]

    @property
    def local_name(self) -> str:
        return split_qname(self.name)[1]

    @property
    def namespace_uri(self) -> str | None:
        """Per Namespaces in XML: unprefixed attributes have no namespace."""
        prefix = self.prefix
        if prefix is None:
            return None
        owner = self.parent
        if isinstance(owner, Element):
            return owner.lookup_namespace(prefix)
        if prefix == "xml":
            return XML_NAMESPACE
        return None

    def string_value(self) -> str:
        return self.value

    def document_order_key(self) -> tuple:
        owner = self.parent
        if not isinstance(owner, Element):
            return ()
        cache = self._order_cache
        if cache is not None:
            root: Node = owner
            while root.parent is not None:
                root = root.parent
            if cache[0] is root and cache[1] == root._doc_version:
                return cache[2]
        return owner.document_order_key_for_attr(self)


class Text(Node):
    """A text node (includes what was CDATA in the source)."""

    __slots__ = ("data", "is_cdata")

    kind = "text"

    def __init__(self, data: str, *, is_cdata: bool = False) -> None:
        super().__init__()
        self.data = data
        self.is_cdata = is_cdata

    def string_value(self) -> str:
        return self.data


class Comment(Node):
    """A comment node."""

    __slots__ = ("data",)

    kind = "comment"

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def string_value(self) -> str:
        return self.data


class ProcessingInstruction(Node):
    """A processing-instruction node."""

    __slots__ = ("target", "data")

    kind = "processing-instruction"

    def __init__(self, target: str, data: str = "") -> None:
        super().__init__()
        self.target = target
        self.data = data

    def string_value(self) -> str:
        return self.data


class NamespaceNode(Node):
    """An XPath namespace node (one per in-scope binding per element)."""

    __slots__ = ("prefix_name", "uri", "owner")

    kind = "namespace"

    def __init__(self, prefix: str, uri: str, owner: Element) -> None:
        super().__init__()
        self.prefix_name = prefix
        self.uri = uri
        self.owner = owner
        self.parent = owner

    def string_value(self) -> str:
        return self.uri

    def document_order_key(self) -> tuple:
        return self.owner.document_order_key() + (0, self.prefix_name)


def clone_node(node: Node) -> Node:
    """Deep-copy *node* (and its subtree) into a detached clone."""
    if isinstance(node, Document):
        clone = Document()
        clone.version = node.version
        clone.encoding = node.encoding
        clone.standalone = node.standalone
        clone.doctype_name = node.doctype_name
        clone.doctype_system = node.doctype_system
        clone.doctype_public = node.doctype_public
        clone.internal_subset = node.internal_subset
        for child in node.children:
            clone.append_child(clone_node(child))
        return clone
    if isinstance(node, Element):
        clone = Element(node.name, line=node.line, column=node.column)
        clone.namespace_declarations.update(node.namespace_declarations)
        for attr in node.attributes:
            copied = clone.set_attribute(attr.name, attr.value)
            copied.is_id = attr.is_id
            copied.specified = attr.specified
        for child in node.children:
            clone.append_child(clone_node(child))
        return clone
    if isinstance(node, Text):
        return Text(node.data, is_cdata=node.is_cdata)
    if isinstance(node, Comment):
        return Comment(node.data)
    if isinstance(node, ProcessingInstruction):
        return ProcessingInstruction(node.target, node.data)
    if isinstance(node, Attribute):
        return Attribute(node.name, node.value)
    raise DOMError(f"cannot clone a {node.kind} node")


def sort_document_order(nodes: Sequence[Node]) -> list[Node]:
    """Return *nodes* sorted into document order with duplicates removed."""
    if len(nodes) <= 1:
        return list(nodes)
    seen: set[int] = set()
    unique: list[Node] = []
    for node in nodes:
        if id(node) not in seen:
            seen.add(id(node))
            unique.append(node)
    # methodcaller (not an unbound method) so Attribute/NamespaceNode
    # overrides of document_order_key are honoured.
    return sorted(unique, key=_ORDER_KEY)
