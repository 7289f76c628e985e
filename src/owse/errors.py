"""Exception types shared across the owse package."""


class OwseError(Exception):
    """Base class for all owse errors."""


class InvalidRecord(OwseError):
    """A URL record violates its invariants (e.g. non-absolute URL)."""


class EmptyDocument(OwseError):
    """Refusing to store a zero-byte ontology document."""


class NotFound(OwseError):
    """No stored object with the requested id."""


class CorruptObject(OwseError):
    """Stored bytes no longer match their content address."""


class VersionMismatch(OwseError):
    """Index file carries an unknown format version."""


class CorruptIndex(OwseError):
    """Index file violates a structural invariant."""


class UnsupportedScheme(OwseError):
    """URL scheme is not http or https."""


class Unparseable(OwseError):
    """String cannot be interpreted as a URL."""


class XmlNotWellFormed(OwseError):
    """Document is not well-formed XML."""


class NotRdf(OwseError):
    """Well-formed XML whose root element is not rdf:RDF."""


class ConfigError(OwseError):
    """Invalid crawl configuration."""


class FetchError(OwseError):
    """Transport-level fetch failure (connection, timeout, redirect loop).

    ``kind`` is a short machine-readable tag used in crawl reports.
    """

    def __init__(self, kind: str, message: str = ""):
        super().__init__(message or kind)
        self.kind = kind
