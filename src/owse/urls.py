"""URL normalization: the canonical-equality function used for frontier
dedup and the URL journal.

Normalization resolves a (possibly relative) reference against a base,
lowercases scheme and host, strips default ports and fragments, resolves
"." / ".." path segments, and turns an empty path into "/". Queries are
preserved.
"""

from __future__ import annotations

import re
from urllib.parse import urlsplit, urlunsplit, uses_netloc, uses_relative

from .errors import Unparseable, UnsupportedScheme

_DEFAULT_PORTS = {"http": "80", "https": "443"}

# normalize_url's fast path takes a plain reference against a canonical
# base, and gives what its urljoin/urlsplit body gives on every Python
# 3.11-3.13, quirks included; anything else takes that body.
#
# A canonical base has the shape normalize_url returns: http or https, a
# host of [a-z0-9._~-], a port of at most 5 digits (int() refuses over
# 4300), and a path of no tab, CR or LF (urlsplit deletes them). Nothing
# after the path is read.
#
# A plain reference (after strip()) is printable ASCII without "\", "["
# or "]". Whitespace and C0 controls are out because urlsplit deletes
# or strips them (a leading C0 run since 3.11.4), brackets because its
# bracketed-host check differs by version. A plain reference is one of:
#  - http(s)://host[:port], then a path, query and fragment, in any case,
#    with a host of [A-Za-z0-9._~-] (no userinfo; no "%", after which
#    .hostname keeps the case) and a port of at most 5 digits;
#  - another scheme (a letter, then [A-Za-z0-9+.-] up to ":"), rejected;
#  - a relative reference whose path is not empty, does not start with
#    "//" and has no ":" before its first "/", "?" or "#", because
#    urlsplit reads "x.html:" as a scheme.
# In _PLAIN_REF, [!-Z^-~] is any plain character; [!"$-Z^-~] leaves out
# "#" (a query), [!"$->@-Z^-~] also "?" (a path), and [!"$-.0-9;->@-Z^-~]
# also "/" and ":" (a first path segment).
_CANONICAL_BASE = re.compile(r"(https?)://([a-z0-9._~-]+)(?::([0-9]{0,5}))?(/[^?#\t\r\n]*)(?:[?#]|\Z)")
_PLAIN_REF = re.compile(
    r"""(?:
        ([Hh][Tt][Tt][Pp][Ss]?)://([A-Za-z0-9._~-]+)(?::([0-9]{0,5}))?(/[!"$->@-Z^-~]*)?
      | (?![Hh][Tt][Tt][Pp][Ss]?:)([A-Za-z][A-Za-z0-9+.-]*):[!-Z^-~]*
      | (?!//)([!"$-.0-9;->@-Z^-~]*(?:/[!"$->@-Z^-~]*)?)
    )(?:\?([!"$-Z^-~]*))?(?:\#[!-Z^-~]*)?\Z""",
    re.VERBOSE,
)
# What precedes a URL's first "[" when that "[" opens its host, once
# tab, CR and LF are deleted.
_BEFORE_BRACKETED_HOST = re.compile(r"[\x00-\x20]*(?:[A-Za-z][A-Za-z0-9+.-]*:)?//[^/?#]*\Z")
_TAB_CR_LF = re.compile(r"[\t\r\n]")


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


def _netloc(scheme: str, host: str, port: str | None) -> str | None:
    """host[:port] as normalize_url writes it, or None for a port out of range."""
    if not port:
        return host
    number = int(port)
    if number > 65535:
        return None
    return host if str(number) == _DEFAULT_PORTS[scheme] else f"{host}:{number}"


def _merge(base_path: str, ref_path: str) -> str:
    """urljoin's resolution of a non-empty reference path against a base path."""
    if ref_path[0] == "/":
        segments = ref_path.split("/")
    else:
        segments = base_path.split("/")
        if segments[-1]:  # the base's last segment, unless empty, is no directory
            del segments[-1]
        segments += ref_path.split("/")
        segments[1:-1] = filter(None, segments[1:-1])
    resolved: list[str] = []
    for segment in segments:
        if segment == "..":
            if resolved:
                resolved.pop()
        elif segment != ".":
            resolved.append(segment)
    if segments[-1] in (".", ".."):
        resolved.append("")
    return "/".join(resolved)


def join(base: str, ref: str) -> str:
    """urljoin(base, ref), on urlsplit's parts. urljoin reads ";params" off
    the last path segment, as RFC 1808 did: it drops the ";" of empty
    params ("a;" joins as "a") and takes "..;p" for a ".." segment. RFC
    3986 has no params, so here a ";" is a path character like any other."""
    if not base:
        return ref
    if not ref:
        return base
    bscheme, bnetloc, bpath, bquery, _ = urlsplit(base)
    scheme, netloc, path, query, fragment = urlsplit(ref, bscheme)
    if scheme != bscheme or scheme not in uses_relative:
        return ref
    if scheme in uses_netloc:
        if netloc:
            return urlunsplit((scheme, netloc, path, query, fragment))
        netloc = bnetloc
    if not path:
        return urlunsplit((scheme, netloc, bpath, query or bquery, fragment))
    return urlunsplit((scheme, netloc, _merge(bpath, path) or "/", query, fragment))


def _lower_ipvfuture(url: str) -> str:
    """``url`` with the "v" of an IPvFuture host lowercased. RFC 3986 makes
    it case-insensitive; urlsplit (3.11+) accepts only "v"."""
    head, bracket, rest = url.partition("[")
    if rest.lstrip("\t\r\n")[:1] == "V" and _BEFORE_BRACKETED_HOST.match(_TAB_CR_LF.sub("", head)):
        return head + bracket + rest.replace("V", "v", 1)
    return url


def normalize_url(raw: str, base: str) -> str:
    """Resolve ``raw`` against ``base`` and return its canonical form.

    Raises UnsupportedScheme for anything but http/https and Unparseable
    for strings the URL grammar rejects.
    """
    ref = raw.strip()
    base_match = _CANONICAL_BASE.match(base)
    ref_match = base_match and _PLAIN_REF.match(ref)
    if ref_match:
        scheme, host, port, path, other_scheme, relative, query = ref_match.groups()
        if other_scheme:
            raise UnsupportedScheme(f"unsupported scheme in {ref!r}")
        netloc = None
        if scheme:
            scheme = scheme.lower()
            netloc = _netloc(scheme, host.lower(), port)
        elif relative:  # an empty path would take the base's query
            scheme, host, port, base_path = base_match.groups()
            netloc = _netloc(scheme, host, port)
            path = _merge(base_path, relative)
            path = path if path[:1] == "/" else "/" + path
        if netloc is not None:
            if path and "/." in path:  # a path without "/." has no dot segment
                path = remove_dot_segments(path)
            path = path or "/"
            return f"{scheme}://{netloc}{path}?{query}" if query else f"{scheme}://{netloc}{path}"

    try:
        absolute = join(_lower_ipvfuture(base), _lower_ipvfuture(ref))
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


def host_of(url: str) -> str:
    """Lowercased host[:port] of an absolute URL, without userinfo."""
    return urlsplit(url).netloc.rpartition("@")[2].lower()
