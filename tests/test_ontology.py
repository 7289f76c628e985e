import random
import time
from urllib.parse import urljoin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owse import ontology
from owse.errors import NotRdf, XmlNotWellFormed
from owse.ontology import (
    OWL_CLASS,
    RDF_TYPE,
    RDFS_LABEL,
    BlankNode,
    ElementKind,
    Iri,
    Literal,
    RelationKind,
    Triple,
    _Parser,
    local_name,
    parse_rdfxml,
    summarize_ontology,
)

from support import UNSUPPORTED_KINDS, UNSUPPORTED_RDF, nested_rdf

RDFXML_HEAD = (
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
    ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
    ' xmlns:owl="http://www.w3.org/2002/07/owl#"'
)


def doc(body: str, attrs: str = "") -> bytes:
    return (RDFXML_HEAD + attrs + ">" + body + "</rdf:RDF>").encode()


def declared(encoding: str, body: str) -> bytes:
    """A document with an XML declaration of ``encoding``, encoded in it."""
    text = f'<?xml version="1.0" encoding="{encoding}"?>' + RDFXML_HEAD + ">" + body + "</rdf:RDF>"
    return text.encode(encoding)


def labels(tset) -> list[str]:
    return [str(t.object) for t in tset.triples if t.predicate == RDFS_LABEL]


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
        assert [kind for kind, _ in tset.warnings] == ["parseType"]
        assert [str(t.object) for t in tset.triples] == ["kept"]

    def test_each_warning_has_its_kind(self):
        tset = parse_rdfxml(UNSUPPORTED_RDF, base="http://x/o")
        assert [kind for kind, _ in tset.warnings] == UNSUPPORTED_KINDS

    def test_nesting_bound_is_the_same_from_any_stack(self):
        # Far past the bound, and past where Python's recursion limit would
        # cut a nest at a depth set by the caller's stack.
        data = nested_rdf(600)

        def parse_under(frames):
            return parse_under(frames - 1) if frames else parse_rdfxml(data, base="http://x/o")

        shallow, deep = parse_under(0), parse_under(300)
        assert shallow == deep
        assert [kind for kind, _ in shallow.warnings] == ["deep-nesting"]
        levels = ontology.MAX_NODE_DEPTH
        assert len(shallow.triples) == 2 * levels - 1  # a type for each level, a link between each pair
        assert {t.subject for t in shallow.triples} == {f"http://x/o#n{i}" for i in range(levels)}

    def test_nesting_up_to_the_bound_is_kept_whole(self):
        levels = ontology.MAX_NODE_DEPTH
        tset = parse_rdfxml(nested_rdf(levels), base="http://x/o")
        assert tset.warnings == []
        assert len(tset.triples) == 2 * levels - 1

    def test_unresolvable_about_skips_node_with_warning(self):
        tset = parse_rdfxml(
            doc(
                '<owl:Class rdf:about="http://[bad/x"><rdfs:label>lost</rdfs:label></owl:Class>'
                '<owl:Class rdf:about="#Kept"/>'
            ),
            base="http://x/o",
        )
        assert tset.triples == [Triple(Iri("http://x/o#Kept"), Iri(RDF_TYPE), Iri(OWL_CLASS))]
        ((kind, message),) = tset.warnings
        assert kind == "unresolvable-iri"
        assert "http://[bad/x" in message

    def test_unresolvable_resource_skips_property_with_warning(self):
        tset = parse_rdfxml(
            doc(
                '<owl:Class rdf:about="#A">'
                '<rdfs:subClassOf rdf:resource="http://[bad/x"/><rdfs:label>kept</rdfs:label>'
                "</owl:Class>"
            ),
            base="http://x/o",
        )
        assert [str(t.object) for t in tset.triples] == [OWL_CLASS, "kept"]
        assert len(tset.warnings) == 1

    def test_unresolvable_xml_base_skips_its_element(self):
        tset = parse_rdfxml(
            doc(
                '<owl:Class rdf:about="#A" xml:base="http://[bad/">'
                "<rdfs:label>lost</rdfs:label></owl:Class>"
                '<owl:Class rdf:about="#B">'
                '<rdfs:subClassOf xml:base="http://[bad/" rdf:resource="#A"/>'
                "<rdfs:label>kept</rdfs:label></owl:Class>"
            ),
            base="http://x/o",
        )
        assert [str(t.object) for t in tset.triples] == [OWL_CLASS, "kept"]
        assert len(tset.warnings) == 2

    def test_unresolvable_root_xml_base_yields_no_triples(self):
        tset = parse_rdfxml(
            doc('<owl:Class rdf:about="#A"/>', attrs=' xml:base="http://[bad/"'), base="http://x/o"
        )
        assert tset.triples == []
        assert len(tset.warnings) == 1

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
        # Generated IRIs in every attribute the parser resolves: urljoin
        # raises ValueError for some (brackets, a netloc that NFKC-normalizes
        # to a delimiter), which must stay inside the parser.
        pieces = ["http:", "https:", "//", "/", "[", "]", "::1", "h", "x", "#", "?", ":", "@", "%", "..",
                  " ", "\t", "\uff03", "\uff0f", "\u2100", "\uff1a"]
        for _ in range(400):
            iri = lambda: "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 7)))  # noqa: E731
            body = (
                f'<owl:Class rdf:about="{iri()}" xml:base="{iri()}">'
                f'<rdfs:subClassOf rdf:resource="{iri()}" xml:base="{iri()}"/>'
                f'<rdfs:seeAlso><rdf:Description rdf:about="{iri()}"/></rdfs:seeAlso>'
                "</owl:Class>"
            )
            try:
                parse_rdfxml(doc(body, attrs=f' xml:base="{iri()}"'), base=rng.choice(["http://x/", "http://[x/"]))
            except (XmlNotWellFormed, NotRdf):
                pass

    def test_declared_encodings_over_arbitrary_bytes_never_escape_defined_errors(self):
        rng = random.Random(20261018)
        encodings = ["utf-8", "utf-16", "iso-8859-1", "cp1252", "shift_jis", "bogus", "utf-32", "euc-jp"]
        for _ in range(400):
            head = f'<?xml version="1.0" encoding="{rng.choice(encodings)}"?>'.encode()
            if rng.random() < 0.5:
                head += RDFXML_HEAD.encode() + b">"
            blob = head + bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
            try:
                parse_rdfxml(blob, base="http://x/")
            except (XmlNotWellFormed, NotRdf):
                pass


class TestEncodings:
    """parse_rdfxml decodes a document as its XML declaration or BOM says."""

    BODY = '<owl:Class rdf:about="#Cafe"><rdfs:label>Café</rdfs:label></owl:Class>'

    def test_iso_8859_1_declaration_honoured(self):
        data = declared("ISO-8859-1", self.BODY)
        assert b"Caf\xe9" in data
        assert labels(parse_rdfxml(data, base="http://x/o")) == ["Café"]

    def test_utf16_with_bom(self):
        data = declared("UTF-16", self.BODY)
        assert data[:2] in (b"\xff\xfe", b"\xfe\xff")
        assert labels(parse_rdfxml(data, base="http://x/o")) == ["Café"]

    def test_multibyte_declaration_expat_refuses_is_read_as_utf8(self):
        body = '<owl:Class rdf:about="#Kissa"><rdfs:label>Kissa 喫茶店</rdfs:label></owl:Class>'
        for encoding in ("Shift_JIS", "EUC-JP"):
            (label,) = labels(parse_rdfxml(declared(encoding, body), base="http://x/o"))
            assert label.startswith("Kissa ") and "\ufffd" in label

    def test_declared_codec_never_decodes_the_document(self):
        # The punycode codec is quadratic: a 1 MiB tail would take minutes.
        data = b'<?xml version="1.0" encoding="punycode"?><x/>-' + b"a" * (1 << 20)
        started = time.monotonic()
        with pytest.raises(XmlNotWellFormed):
            parse_rdfxml(data, base="http://x/o")
        assert time.monotonic() - started < 5

    def test_unknown_declared_encoding_is_not_well_formed(self):
        data = doc('<owl:Class rdf:about="#A"/>')
        with pytest.raises(XmlNotWellFormed):
            parse_rdfxml(b'<?xml version="1.0" encoding="bogus"?>' + data, base="http://x/o")

    @pytest.mark.parametrize("encoding", [None, "UTF-8", "US-ASCII"])
    def test_invalid_bytes_are_not_well_formed(self, encoding):
        data = doc('<owl:Class rdf:about="#A"><rdfs:label>Caf?</rdfs:label></owl:Class>')
        data = data.replace(b"Caf?", b"Caf\xff")
        if encoding is not None:
            data = f'<?xml version="1.0" encoding="{encoding}"?>'.encode() + data
        with pytest.raises(XmlNotWellFormed):
            parse_rdfxml(data, base="http://x/o")


BASES = [
    "http://x/o",
    "http://x/o?q=1",
    "http://x/o?",
    "http://x/o#old",
    "http://x/o#",
    "http://x/o?#",
    "http://user:pw@x/o",
    "http://x:80/o/../p",
    "http://[::1]:8080/o",
    "https://x",
    "o",
    "../a/b",
    "/root/path",
    "",
    "urn:isbn:123",
    "mailto:someone@x",
    "file:///tmp/o.owl",
    "ftp://x/o;type=a",
]
REFS = ["#", "#x", "#a#b", "#%", "#%41", "# x", "#\tx", "#x\r", "#\n", "#é", "#日本"]
REFS += ["x", "", "/y", "//h/z", "?q", "http://o/#z"]
SCHEMES = ["http", "https", "ftp", "file", "urn", "mailto", "HTTP", "x-y"]
URL_CHARS = st.sampled_from(list("ab/.:;@?#[]%=& \t\r\n\x00\x1fé"))


@st.composite
def bases(draw):
    scheme = draw(st.sampled_from(SCHEMES + [""]))
    authority = draw(st.sampled_from(["", "//x", "//u:p@x", "//x:80", "//[::1]", "//X.test:8080"]))
    path = draw(st.text(URL_CHARS, max_size=12))
    tail = draw(st.sampled_from(["", "?", "?q=1", "#", "#old", "?#", "?a#b"]))
    return (scheme + ":" if scheme else "") + authority + path + tail


REFERENCES = st.one_of(
    st.sampled_from(REFS),
    st.text(URL_CHARS, max_size=10).map(lambda s: "#" + s),
    st.text(max_size=10).map(lambda s: "#" + s),
    st.text(URL_CHARS, max_size=10),
)
ANY_BASE = st.one_of(bases(), st.sampled_from(BASES), st.text(max_size=20))


def outcome(resolve, base, ref):
    try:
        return resolve(base, ref)
    except ValueError as exc:  # e.g. an unbalanced IPv6 bracket in the base
        return ("ValueError", str(exc))


class TestJoin:
    """_Parser.join is urljoin, whatever the base and reference."""

    def test_listed_bases_and_references(self):
        parser = _Parser()
        for base in BASES:
            for ref in REFS:
                assert parser.join(base, ref) == urljoin(base, ref), (base, ref)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(ANY_BASE, REFERENCES), max_size=8))
    def test_join_equals_urljoin(self, pairs):
        parser = _Parser()  # one parser, so cached prefixes are reused across pairs
        for base, ref in pairs:
            assert outcome(parser.join, base, ref) == outcome(urljoin, base, ref), (base, ref)


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

    def test_explicit_property_type_after_an_inference_sets_the_kind(self):
        # The domain infers a plain property first; the first explicit
        # type still sets the kind, and a later one does not.
        tset = parse_rdfxml(
            doc(
                '<rdf:Description rdf:about="#p"><rdfs:domain rdf:resource="#C"/></rdf:Description>'
                '<owl:ObjectProperty rdf:about="#p"/><owl:DatatypeProperty rdf:about="#p"/>'
            ),
            base="http://x/o",
        )
        summary = summarize(tset)
        assert [(p.local_name, p.kind) for p in summary.properties] == [("p", ElementKind.OBJECT_PROPERTY)]

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
