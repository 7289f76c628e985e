"""RDF/XML-subset parser and ontology element extraction.

Parses the common RDF/XML shape used by published OWL ontologies into
triples, then summarizes the schema-level elements: classes, properties,
the relations between them (subClassOf, subPropertyOf, domain, range),
labels, comments, and imports.

Supported RDF/XML subset: an rdf:RDF root; node elements that are either
rdf:Description or typed nodes (element name = type IRI); subjects from
rdf:about or rdf:ID, else a fresh blank node; property elements whose
object comes from rdf:resource, from exactly one nested node element, or
from literal text content. xml:base is honored. Everything else
(parseType, containers, collections, reification) makes the parser skip
that property element with a recorded warning and continue.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple
from urllib.parse import urljoin

from .errors import NotRdf, XmlNotWellFormed

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XML_NS = "http://www.w3.org/XML/1998/namespace"

RDF_TYPE = RDF_NS + "type"
RDF_PROPERTY = RDF_NS + "Property"
RDFS_CLASS = RDFS_NS + "Class"
RDFS_SUBCLASSOF = RDFS_NS + "subClassOf"
RDFS_SUBPROPERTYOF = RDFS_NS + "subPropertyOf"
RDFS_DOMAIN = RDFS_NS + "domain"
RDFS_RANGE = RDFS_NS + "range"
RDFS_LABEL = RDFS_NS + "label"
RDFS_COMMENT = RDFS_NS + "comment"
RDFS_SEEALSO = RDFS_NS + "seeAlso"
OWL_CLASS = OWL_NS + "Class"
OWL_ONTOLOGY = OWL_NS + "Ontology"
OWL_OBJECT_PROPERTY = OWL_NS + "ObjectProperty"
OWL_DATATYPE_PROPERTY = OWL_NS + "DatatypeProperty"
OWL_ANNOTATION_PROPERTY = OWL_NS + "AnnotationProperty"
OWL_IMPORTS = OWL_NS + "imports"

_RDF_ROOT_TAG = "{%s}RDF" % RDF_NS
_RDF_ABOUT = "{%s}about" % RDF_NS
_RDF_ID = "{%s}ID" % RDF_NS
_RDF_RESOURCE = "{%s}resource" % RDF_NS
_RDF_PARSETYPE = "{%s}parseType" % RDF_NS
_RDF_NODEID = "{%s}nodeID" % RDF_NS
_RDF_LI_TAG = "{%s}li" % RDF_NS
_XML_BASE = "{%s}base" % XML_NS


class Iri(str):
    """An absolute IRI node."""

    __slots__ = ()


class BlankNode(str):
    """A document-scoped blank node id (``_:bN``)."""

    __slots__ = ()


class Literal(str):
    """A literal's lexical form; datatype and language tag are dropped."""

    __slots__ = ()


class Triple(NamedTuple):
    subject: str  # Iri or BlankNode
    predicate: Iri
    object: str  # Iri, BlankNode, or Literal


@dataclass
class TripleSet:
    """Parsed statements in document order, without exact duplicates."""

    triples: list[Triple] = field(default_factory=list)
    base_iri: str = ""
    warnings: list[str] = field(default_factory=list)


def local_name(iri: str) -> str:
    """Fragment after the last '#', else the last path segment.

    Falls back to the whole IRI when that substring is empty.
    """
    if "#" in iri:
        candidate = iri.rsplit("#", 1)[1]
    else:
        candidate = iri.rsplit("/", 1)[-1]
    return candidate or iri


def _tag_iri(tag: str) -> str | None:
    """Expanded IRI of a namespaced element tag, None when not namespaced."""
    if tag.startswith("{"):
        ns, _, local = tag[1:].partition("}")
        return ns + local
    return None


class _Parser:
    def __init__(self, base: str):
        self.base = base
        self.triples: list[Triple] = []
        self.warnings: list[str] = []
        self._seen: set[tuple] = set()
        self._blank_counter = 0

    def fresh_blank(self) -> BlankNode:
        node = BlankNode(f"_:b{self._blank_counter}")
        self._blank_counter += 1
        return node

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def emit(self, subject: str, predicate: Iri, obj: str) -> None:
        key = (type(subject).__name__, subject, predicate, type(obj).__name__, obj)
        if key in self._seen:
            return
        self._seen.add(key)
        self.triples.append(Triple(subject, predicate, obj))

    def _element_base(self, element: ET.Element, base: str) -> str:
        declared = element.get(_XML_BASE)
        return urljoin(base, declared) if declared else base

    def node_element(self, element: ET.Element, base: str) -> str | None:
        """Process a node element, returning its subject (or None if skipped)."""
        base = self._element_base(element, base)
        type_iri = _tag_iri(element.tag)
        if type_iri is None:
            self.warn(f"skipped node element with non-namespaced tag {element.tag!r}")
            return None

        about = element.get(_RDF_ABOUT)
        rdf_id = element.get(_RDF_ID)
        if about is not None:
            subject: str = Iri(urljoin(base, about))
        elif rdf_id is not None:
            subject = Iri(base.split("#", 1)[0] + "#" + rdf_id)
        else:
            if element.get(_RDF_NODEID) is not None:
                self.warn("rdf:nodeID on node element ignored; fresh blank node used")
            subject = self.fresh_blank()

        if type_iri != RDF_NS + "Description":
            self.emit(subject, Iri(RDF_TYPE), Iri(type_iri))

        for child in element:
            self.property_element(subject, child, base)
        return subject

    def property_element(self, subject: str, element: ET.Element, base: str) -> None:
        base = self._element_base(element, base)
        predicate = _tag_iri(element.tag)
        if predicate is None:
            self.warn(f"skipped property element with non-namespaced tag {element.tag!r}")
            return
        if element.tag == _RDF_LI_TAG:
            self.warn("skipped rdf:li property element (containers unsupported)")
            return
        if element.get(_RDF_PARSETYPE) is not None:
            self.warn(f"skipped property {predicate} with rdf:parseType (unsupported)")
            return
        if element.get(_RDF_NODEID) is not None:
            self.warn(f"skipped property {predicate} with rdf:nodeID object (unsupported)")
            return
        if element.get(_RDF_ID) is not None:
            self.warn(f"skipped property {predicate} with rdf:ID (reification unsupported)")
            return

        resource = element.get(_RDF_RESOURCE)
        children = list(element)
        has_text = bool(element.text and element.text.strip())

        if resource is not None:
            if children or has_text:
                self.warn(f"skipped property {predicate}: rdf:resource mixed with content")
                return
            self.emit(subject, Iri(predicate), Iri(urljoin(base, resource)))
        elif len(children) == 1 and not has_text:
            obj = self.node_element(children[0], base)
            if obj is not None:
                self.emit(subject, Iri(predicate), obj)
        elif not children:
            self.emit(subject, Iri(predicate), Literal(element.text or ""))
        else:
            self.warn(f"skipped property {predicate}: multiple nested node elements")


def parse_rdfxml(data: bytes, base: str) -> TripleSet:
    """Parse RDF/XML bytes into a TripleSet.

    Raises XmlNotWellFormed for broken XML and NotRdf when the root
    element is not rdf:RDF. Unsupported constructs inside an otherwise
    valid document are skipped with warnings.
    """
    text = data.decode("utf-8", errors="replace")
    root: ET.Element | None = None
    try:
        for _, element in ET.iterparse(io.StringIO(text), events=("start",)):
            if root is None:
                root = element
    except ET.ParseError as exc:
        raise XmlNotWellFormed(str(exc)) from exc
    except ValueError as exc:
        raise XmlNotWellFormed(str(exc)) from exc
    if root is None:
        raise XmlNotWellFormed("empty document")
    if root.tag != _RDF_ROOT_TAG:
        found = _tag_iri(root.tag) or root.tag
        raise NotRdf(f"root element is {found}, not rdf:RDF")

    declared_base = root.get(_XML_BASE)
    doc_base = urljoin(base, declared_base) if declared_base else base

    parser = _Parser(doc_base)
    for child in root:
        parser.node_element(child, doc_base)

    return TripleSet(
        triples=parser.triples,
        base_iri=doc_base,
        warnings=parser.warnings,
    )


class ElementKind(Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    DATATYPE_PROPERTY = "DatatypeProperty"
    ANNOTATION_PROPERTY = "AnnotationProperty"
    PLAIN_PROPERTY = "PlainProperty"


class RelationKind(Enum):
    SUBCLASS_OF = "subClassOf"
    SUBPROPERTY_OF = "subPropertyOf"
    DOMAIN = "domain"
    RANGE = "range"


_PROPERTY_TYPE_KINDS = {
    OWL_OBJECT_PROPERTY: ElementKind.OBJECT_PROPERTY,
    OWL_DATATYPE_PROPERTY: ElementKind.DATATYPE_PROPERTY,
    OWL_ANNOTATION_PROPERTY: ElementKind.ANNOTATION_PROPERTY,
    RDF_PROPERTY: ElementKind.PLAIN_PROPERTY,
}

_RELATION_PREDICATES = {
    RDFS_SUBCLASSOF: RelationKind.SUBCLASS_OF,
    RDFS_SUBPROPERTYOF: RelationKind.SUBPROPERTY_OF,
    RDFS_DOMAIN: RelationKind.DOMAIN,
    RDFS_RANGE: RelationKind.RANGE,
}


@dataclass
class OntologyElement:
    """A named class or property with its annotations."""

    iri: str
    local_name: str
    labels: list[str] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    kind: ElementKind = ElementKind.CLASS


@dataclass
class OntologySummary:
    """Schema-level view of one ontology document."""

    ontology_iri: str
    source_url: str
    blob_id: str
    size_bytes: int
    classes: list[OntologyElement] = field(default_factory=list)
    properties: list[OntologyElement] = field(default_factory=list)
    relations: list[tuple[str, RelationKind, str]] = field(default_factory=list)
    imports: list[str] = field(default_factory=list)


def summarize_ontology(
    triples: TripleSet, source_url: str, blob_id: str, size_bytes: int
) -> OntologySummary:
    """Extract classes, properties, relations, labels, comments, imports.

    Untyped elements are inferred from relational position: subjects and
    objects of subClassOf and objects of domain/range are classes;
    subjects and objects of subPropertyOf and subjects of domain/range
    are properties. Blank nodes never appear in the summary.
    """
    class_iris: dict[str, None] = {}
    property_kinds: dict[str, ElementKind | None] = {}
    labels: dict[str, list[str]] = {}
    comments: dict[str, list[str]] = {}
    relations: list[tuple[str, RelationKind, str]] = []
    imports: list[str] = []
    ontology_iri = ""

    def note_class(node: str) -> None:
        if isinstance(node, Iri):
            class_iris.setdefault(node, None)

    def note_property(node: str, kind: ElementKind | None = None) -> None:
        # First explicit type wins; relational inference never overwrites.
        if not isinstance(node, Iri):
            return
        if node not in property_kinds:
            property_kinds[node] = kind
        elif kind is not None and property_kinds[node] is None:
            property_kinds[node] = kind

    for subject, predicate, obj in triples.triples:
        if predicate == RDF_TYPE and isinstance(obj, Iri):
            if obj in (OWL_CLASS, RDFS_CLASS):
                note_class(subject)
            elif obj in _PROPERTY_TYPE_KINDS:
                note_property(subject, _PROPERTY_TYPE_KINDS[obj])
            elif obj == OWL_ONTOLOGY and not ontology_iri and isinstance(subject, Iri):
                ontology_iri = str(subject)
        elif predicate in _RELATION_PREDICATES:
            kind = _RELATION_PREDICATES[predicate]
            if kind is RelationKind.SUBCLASS_OF:
                note_class(subject)
                note_class(obj)
            elif kind is RelationKind.SUBPROPERTY_OF:
                note_property(subject)
                note_property(obj)
            else:  # domain, range
                note_property(subject)
                note_class(obj)
            if isinstance(subject, Iri) and isinstance(obj, Iri):
                relations.append((str(subject), kind, str(obj)))
        elif predicate == RDFS_LABEL and isinstance(obj, Literal):
            labels.setdefault(subject, []).append(str(obj))
        elif predicate == RDFS_COMMENT and isinstance(obj, Literal):
            comments.setdefault(subject, []).append(str(obj))
        elif predicate == OWL_IMPORTS and isinstance(obj, Iri):
            if str(obj) not in imports:
                imports.append(str(obj))

    def build(iri: str, kind: ElementKind) -> OntologyElement:
        return OntologyElement(
            iri=str(iri),
            local_name=local_name(iri),
            labels=list(labels.get(iri, [])),
            comments=list(comments.get(iri, [])),
            kind=kind,
        )

    classes = [build(iri, ElementKind.CLASS) for iri in sorted(class_iris)]
    properties = [
        build(iri, kind or ElementKind.PLAIN_PROPERTY)
        for iri, kind in sorted(property_kinds.items())
    ]

    return OntologySummary(
        ontology_iri=ontology_iri,
        source_url=source_url,
        blob_id=blob_id,
        size_bytes=size_bytes,
        classes=classes,
        properties=properties,
        relations=relations,
        imports=imports,
    )
