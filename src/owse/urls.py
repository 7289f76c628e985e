"""URL normalization: the canonical-equality function used for frontier
dedup and the URL journal.

Normalization resolves a (possibly relative) reference against a base,
lowercases scheme and host, strips default ports and fragments, resolves
"." / ".." path segments, and turns an empty path into "/". Queries are
preserved.
"""

from __future__ import annotations

from urllib.parse import urljoin, urlsplit, urlunsplit

from .errors import Unparseable, UnsupportedScheme

_DEFAULT_PORTS = {"http": "80", "https": "443"}


def remove_dot_segments(path: str) -> str:
    """Resolve "." and ".." segments (RFC 3986 section 5.2.4)."""
    output: list[str] = []
    for segment in path.split("/"):
        if segment == ".":
            continue
        if segment == "..":
            if len(output) > 1:
                output.pop()
            continue
        output.append(segment)
    # A trailing "." or ".." refers to a directory: keep the slash.
    if path.endswith(("/.", "/..")) and (not output or output[-1] != ""):
        output.append("")
    return "/".join(output)


def normalize_url(raw: str, base: str) -> str:
    """Resolve ``raw`` against ``base`` and return its canonical form.

    Raises UnsupportedScheme for anything but http/https and Unparseable
    for strings the URL grammar rejects.
    """
    try:
        absolute = urljoin(base, raw.strip())
        parts = urlsplit(absolute)
    except ValueError as exc:
        raise Unparseable(f"cannot parse URL {raw!r}: {exc}") from exc

    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise UnsupportedScheme(f"unsupported scheme in {absolute!r}")
    if not parts.hostname:
        raise Unparseable(f"no host in {absolute!r}")

    host = parts.hostname.lower()
    if parts.netloc.rpartition("@")[2].startswith("["):
        host = f"[{host}]"  # an IP literal, which urlsplit unbracketed
    try:
        port = parts.port
    except ValueError as exc:
        raise Unparseable(f"bad port in {absolute!r}") from exc

    netloc = host
    if port is not None and str(port) != _DEFAULT_PORTS[scheme]:
        netloc = f"{host}:{port}"
    if parts.username:
        userinfo = parts.username
        if parts.password:
            userinfo += f":{parts.password}"
        netloc = f"{userinfo}@{netloc}"

    path = remove_dot_segments(parts.path) or "/"
    return urlunsplit((scheme, netloc, path, parts.query, ""))


def is_absolute_http(url: str) -> bool:
    """True when ``url`` is an absolute http/https URL with a host."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return False
    return parts.scheme.lower() in ("http", "https") and bool(parts.netloc)


def host_of(url: str) -> str:
    """Lowercased authority (host[:port]) of an absolute URL."""
    return urlsplit(url).netloc.lower()
