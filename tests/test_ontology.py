import random

import pytest

from owse.errors import NotRdf, XmlNotWellFormed
from owse.ontology import (
    OWL_CLASS,
    RDF_TYPE,
    BlankNode,
    ElementKind,
    Iri,
    Literal,
    RelationKind,
    Triple,
    local_name,
    parse_rdfxml,
    summarize_ontology,
)

RDFXML_HEAD = (
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
    ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
    ' xmlns:owl="http://www.w3.org/2002/07/owl#"'
)


def doc(body: str, attrs: str = "") -> bytes:
    return (RDFXML_HEAD + attrs + ">" + body + "</rdf:RDF>").encode()


def summarize(triples):
    return summarize_ontology(triples, source_url="http://x/o", blob_id="0" * 64, size_bytes=1)


class TestParse:
    def test_typed_node_emits_type_triple(self):
        tset = parse_rdfxml(doc('<owl:Class rdf:about="#Pizza"/>'), base="http://x/o")
        assert tset.triples == [Triple(Iri("http://x/o#Pizza"), Iri(RDF_TYPE), Iri(OWL_CLASS))]

    def test_property_element_with_resource(self):
        tset = parse_rdfxml(
            doc('<rdf:Description rdf:about="#A"><rdfs:seeAlso rdf:resource="#B"/></rdf:Description>'),
            base="http://x/o",
        )
        (triple,) = tset.triples
        assert triple.object == "http://x/o#B"
        assert isinstance(triple.object, Iri)

    def test_literal_property(self):
        tset = parse_rdfxml(
            doc('<owl:Class rdf:about="#A"><rdfs:label>Pizza base</rdfs:label></owl:Class>'),
            base="http://x/o",
        )
        literal = tset.triples[-1].object
        assert literal == "Pizza base"
        assert isinstance(literal, Literal)

    def test_html_root_is_not_rdf(self):
        with pytest.raises(NotRdf):
            parse_rdfxml(b"<html><body>hi</body></html>", base="http://x/")

    def test_broken_xml(self):
        with pytest.raises(XmlNotWellFormed):
            parse_rdfxml(b"<rdf:RDF <<<", base="http://x/")
        with pytest.raises(XmlNotWellFormed):
            parse_rdfxml(b"", base="http://x/")

    def test_xml_base_overrides_fetch_base(self):
        tset = parse_rdfxml(
            doc('<owl:Class rdf:about="#Pizza"/>', attrs=' xml:base="http://other/base"'),
            base="http://x/o",
        )
        assert tset.triples[0].subject == "http://other/base#Pizza"
        assert tset.base_iri == "http://other/base"

    def test_rdf_id_becomes_fragment_of_base(self):
        tset = parse_rdfxml(doc('<owl:Class rdf:ID="Pizza"/>'), base="http://x/o")
        assert tset.triples[0].subject == "http://x/o#Pizza"

    def test_nested_node_element_object(self):
        tset = parse_rdfxml(
            doc(
                '<rdf:Description rdf:about="#A">'
                '<rdfs:subClassOf><owl:Class rdf:about="#B"/></rdfs:subClassOf>'
                "</rdf:Description>"
            ),
            base="http://x/o",
        )
        objects = {(t.predicate, t.object) for t in tset.triples}
        assert (Iri("http://www.w3.org/2000/01/rdf-schema#subClassOf"), "http://x/o#B") in {
            (p, str(o)) for p, o in objects
        }

    def test_anonymous_nested_node_gets_blank_subject(self):
        tset = parse_rdfxml(
            doc(
                '<rdf:Description rdf:about="#A">'
                "<rdfs:subClassOf><owl:Class/></rdfs:subClassOf>"
                "</rdf:Description>"
            ),
            base="http://x/o",
        )
        sub_class_of = [t for t in tset.triples if t.predicate.endswith("subClassOf")]
        assert isinstance(sub_class_of[0].object, BlankNode)

    def test_parsetype_is_skipped_with_warning(self):
        tset = parse_rdfxml(
            doc(
                '<rdf:Description rdf:about="#A">'
                '<rdfs:comment rdf:parseType="Literal"><b>x</b></rdfs:comment>'
                '<rdfs:label>kept</rdfs:label>'
                "</rdf:Description>"
            ),
            base="http://x/o",
        )
        assert tset.warnings
        assert [str(t.object) for t in tset.triples] == ["kept"]

    def test_duplicate_triples_are_dropped(self):
        tset = parse_rdfxml(
            doc('<owl:Class rdf:about="#A"/><owl:Class rdf:about="#A"/>'),
            base="http://x/o",
        )
        assert len(tset.triples) == 1

    def test_arbitrary_bytes_never_escape_defined_errors(self):
        rng = random.Random(20260810)
        for _ in range(100):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
            try:
                parse_rdfxml(blob, base="http://x/")
            except (XmlNotWellFormed, NotRdf):
                pass


class TestLocalName:
    def test_fragment(self):
        assert local_name("http://x/o#Pizza") == "Pizza"

    def test_last_path_segment(self):
        assert local_name("http://x/o/Topping") == "Topping"

    def test_empty_falls_back_to_whole_iri(self):
        assert local_name("http://x/o#") == "http://x/o#"


class TestSummarize:
    def test_minimal_class_document(self):
        tset = parse_rdfxml(doc('<owl:Class rdf:about="#Pizza"/>'), base="http://x/o")
        summary = summarize(tset)
        assert [c.local_name for c in summary.classes] == ["Pizza"]
        assert summary.properties == []
        assert summary.relations == []

    def test_inference_lite_subclassof(self):
        tset = parse_rdfxml(
            doc(
                '<rdf:Description rdf:about="#A">'
                '<rdfs:subClassOf rdf:resource="#B"/>'
                "</rdf:Description>"
            ),
            base="http://x/o",
        )
        summary = summarize(tset)
        assert [c.local_name for c in summary.classes] == ["A", "B"]
        assert summary.relations == [
            ("http://x/o#A", RelationKind.SUBCLASS_OF, "http://x/o#B")
        ]

    def test_domain_range_infer_property_and_classes(self):
        tset = parse_rdfxml(
            doc(
                '<rdf:Description rdf:about="#p">'
                '<rdfs:domain rdf:resource="#C"/><rdfs:range rdf:resource="#D"/>'
                "</rdf:Description>"
            ),
            base="http://x/o",
        )
        summary = summarize(tset)
        assert [c.local_name for c in summary.classes] == ["C", "D"]
        assert [(p.local_name, p.kind) for p in summary.properties] == [
            ("p", ElementKind.PLAIN_PROPERTY)
        ]

    def test_blank_endpoints_excluded_from_relations(self):
        tset = parse_rdfxml(
            doc(
                '<owl:Class rdf:about="#A">'
                "<rdfs:subClassOf><owl:Class/></rdfs:subClassOf>"
                "</owl:Class>"
            ),
            base="http://x/o",
        )
        summary = summarize(tset)
        assert summary.relations == []
        assert [c.local_name for c in summary.classes] == ["A"]

    def test_relation_endpoints_appear_in_elements(self, webroot):
        for name in ("library.rdf", "pizza.owl", "vehicle.rdf", "metadata.rdf"):
            data = (webroot / "onts" / name).read_bytes()
            summary = summarize(parse_rdfxml(data, base=f"http://fixture.local/onts/{name}"))
            named = {e.iri for e in summary.classes} | {e.iri for e in summary.properties}
            for subject, _, obj in summary.relations:
                assert subject in named and obj in named

    def test_labels_and_comments_attach_to_elements(self):
        tset = parse_rdfxml(
            doc(
                '<owl:Class rdf:about="#A">'
                "<rdfs:label>first</rdfs:label><rdfs:label>second</rdfs:label>"
                "<rdfs:comment>note</rdfs:comment>"
                "</owl:Class>"
            ),
            base="http://x/o",
        )
        (cls,) = summarize(tset).classes
        assert cls.labels == ["first", "second"]
        assert cls.comments == ["note"]

    def test_ontology_iri_and_imports(self):
        tset = parse_rdfxml(
            doc(
                '<owl:Ontology rdf:about=""><owl:imports rdf:resource="other.rdf"/></owl:Ontology>'
            ),
            base="http://x/o",
        )
        summary = summarize(tset)
        assert summary.ontology_iri == "http://x/o"
        assert summary.imports == ["http://x/other.rdf"]

    def test_library_fixture_counts(self, webroot):
        data = (webroot / "onts" / "library.rdf").read_bytes()
        summary = summarize(parse_rdfxml(data, base="http://fixture.local/onts/library.rdf"))
        assert len(summary.classes) == 5
        assert len(summary.properties) == 4
        assert len(summary.relations) == 6

    def test_classes_sorted_and_deduplicated(self):
        tset = parse_rdfxml(
            doc(
                '<owl:Class rdf:about="#Zebra"/>'
                '<owl:Class rdf:about="#Ant"/>'
                '<rdf:Description rdf:about="#Ant"><rdfs:subClassOf rdf:resource="#Zebra"/></rdf:Description>'
            ),
            base="http://x/o",
        )
        summary = summarize(tset)
        assert [c.local_name for c in summary.classes] == ["Ant", "Zebra"]
