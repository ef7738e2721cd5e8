"""URL canonicalization — RFC 3986 normalize + the reference's semantics.

Behavioral parity targets (all in /root/reference/):
- href normalization: entity decode, space escaping, quote/tab trimming
  (src/engine/found_url.rs:122-163)
- validity: drop ``#frag``, non-http schemes ``^[a-z]+:[a-z0-9]``,
  ``file://`` (src/engine/found_urls.rs:13,71-83); requestable check
  rejects ``{``, ``<``, ``&#`` (src/utils.rs:607-633)
- absolutization: RFC 3986 join against the source page URL, fragment
  stripped after join (src/engine/crawler.rs:1130-1143)
- query filtering: ``--remove-query-params`` strips all;
  ``--keep-query-param`` allowlist preserving order, empty names dropped
  (src/engine/crawler.rs:1146-1156, 1882-1902)
- canonical rendering: lowercase scheme+host, default port 80/443 elided
  (src/engine/parsed_url.rs:133-187)
- basename (non-200 guard key): last path segment, trailing ``/``
  trimmed; query appended when the query contains ``/`` or ``%2F``
  (src/engine/parsed_url.rs:465-482)

These are per-row Python functions applied inside ``map_batches``; the
regexes are module-level compiled once per worker process.
:func:`canonicalize_pairs` is the column form of :func:`canonicalize`,
for whole batches.  Hashing the resulting canonical URLs (the actual
partition keys) is fully vectorized in :mod:`.hashing`.
"""

from __future__ import annotations

import re
from urllib.parse import urljoin, urlsplit

import numpy as np

NON_HTTP_SCHEME_RE = re.compile(r"^[a-z]+:[a-z0-9]", re.I)
HAS_SCHEME_RE = re.compile(r"^[a-zA-Z0-9]+:")
IS_HTTP_RE = re.compile(r"^https?:/", re.I)
DOMAIN_2ND_LEVEL_RE = re.compile(r"([^.]+\.[^.]+)$")

DEFAULT_MAX_URL_LENGTH = 2083  # reference default — README.md:569-573

# extensions the reference treats as static assets (parsed_url.rs is_static_file)
STATIC_EXTENSIONS = {
    "css", "js", "mjs", "json", "png", "jpg", "jpeg", "gif", "webp", "avif",
    "svg", "ico", "bmp", "tif", "tiff", "woff", "woff2", "ttf", "otf", "eot",
    "mp3", "ogg", "wav", "aac", "flac", "mp4", "webm", "avi", "mov", "mkv",
    "pdf", "doc", "docx", "xls", "xlsx", "ppt", "pptx", "zip", "gz", "rar",
    "7z", "tar", "txt", "xml",
}


def normalize_href(href: str) -> str:
    """found_url.rs:122-163 (minus the same-host prefix strip, which only
    affects display form — canonical output here is always absolute)."""
    s = (
        href.replace("&#38;", "&")
        .replace("&amp;", "&")
        .replace("\\ ", "%20")
        .replace(" ", "%20")
    )
    s = s.lstrip("\"'\t ")
    return s.rstrip("&\"'\t ")


def is_valid_for_crawling(href: str) -> bool:
    """found_urls.rs:71-83."""
    u = href.strip()
    if not u or u.startswith("#"):
        return False
    if NON_HTTP_SCHEME_RE.match(u):
        return False
    if u.lower().startswith("file://"):
        return False
    return True


def is_requestable_resource(href: str) -> bool:
    """utils.rs:607-633 — applied to raw hrefs before normalization."""
    if href.startswith("#") or "{" in href or "<" in href or "&#" in href:
        return False
    if HAS_SCHEME_RE.match(href) and not IS_HTTP_RE.match(href):
        return False
    return True


def filter_query_params(url: str, keep_params: tuple[str, ...]) -> str:
    """crawler.rs:1882-1902 — allowlist, order preserved, empty names dropped."""
    q_pos = url.find("?")
    if q_pos < 0:
        return url
    base, query = url[:q_pos], url[q_pos + 1 :]
    kept = [p for p in query.split("&") if (n := p.split("=", 1)[0]) and n in keep_params]
    return base + ("?" + "&".join(kept) if kept else "")


def render_canonical(url: str) -> str | None:
    """Canonical absolute form: lowercase scheme+host, default port elided,
    no fragment (parsed_url.rs:133-187 + crawler.rs:1139-1143)."""
    try:
        sp = urlsplit(url)
        # NB: .port (not urlsplit) raises on malformed ports like ":9x"
        # — a crawled href must drop, not crash the extract task
        if sp.scheme not in ("http", "https") or not sp.hostname:
            return None
        host = sp.hostname
        port = sp.port
    except ValueError:
        return None
    if port == 80 and sp.scheme == "http" or port == 443 and sp.scheme == "https":
        port = None
    netloc = host if port is None else f"{host}:{port}"
    path = sp.path or "/"
    return f"{sp.scheme}://{netloc}{path}" + (f"?{sp.query}" if sp.query else "")


def canonicalize(
    href: str,
    base_url: str,
    *,
    remove_query_params: bool = False,
    keep_query_params: tuple[str, ...] = (),
) -> str | None:
    """Full candidate-URL gauntlet: normalize → validity → join → fragment
    strip → query filter → canonical render.  Returns None for dropped URLs.
    Mirrors crawler.rs:1018-1187 ordering of the transformations."""
    s = normalize_href(href)
    if not is_valid_for_crawling(s):
        return None
    try:
        absolute = urljoin(base_url, s)
    except ValueError:
        return None
    if not absolute:
        return None
    hash_pos = absolute.find("#")
    if hash_pos >= 0:
        absolute = absolute[:hash_pos]
    if remove_query_params:
        q = absolute.find("?")
        if q >= 0:
            absolute = absolute[:q]
    elif keep_query_params:
        absolute = filter_query_params(absolute, keep_query_params)
    return render_canonical(absolute)


# Column canonicalizer (one Arrow pass per step over a whole batch).
# Each accepted href shape is a prefix joined to a body; the joined URL
# is accepted only if it is already canonical, i.e. the full gauntlet
# would return it unchanged: ONE canonical-shape regex plus ONE
# disqualifier regex.  RE2's ``\s`` is ASCII-only, so Python's
# (str.isspace) is spelled out.
_PY_SPACE_RE2 = (r"\t\n\x0b\x0c\r\x1c-\x1f \x{85}\x{a0}\x{1680}\x{2000}-\x{200a}"
                 r"\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}")
# explicit port: 1-65535 without zero padding (the renderer would
# rewrite a padded port, urlsplit rejects one above 65535)
_PORT_RE2 = (r"(?::(?:[1-9][0-9]{0,3}|[1-5][0-9]{4}|6[0-4][0-9]{3}|65[0-4][0-9]{2}"
             r"|655[0-2][0-9]|6553[0-5]))?")
_PAIR_CANON_RE2 = r"^https?://[a-z0-9.\-]+" + _PORT_RE2 + r"/[^?#]*(?:\?[^#]*)?$"
# anything normalize/join/render would alter: whitespace, quotes,
# brackets, backslash, a fragment, a percent-encoding, an entity, a dot
# segment in any position ("./", "/." incl. trailing "/." and "/..")
# or a spelled-out default port
_BAD_RE2 = ("[" + _PY_SPACE_RE2 + r"""\"'<>{}\[\]\\#%]|&#|&amp|\./|/\."""
            r"|^http://[^/]*:80/|^https://[^/]*:443/")
# joined URL: also a trailing "&"/"?" (normalize_href's rstrip, bare
# query) or a path ending in empty params
_PAIR_BAD_RE2 = _BAD_RE2 + r"|[&?]$|^[^?]*;(?:\?|$)"
# base a bare relative joins onto: urljoin's merge keeps the base path
# through its last "/" and drops the base query; params and empty
# segments in the base path change the merge, so they disqualify
_BASE_DIR_RE2 = r"^https?://[a-z0-9.\-]+" + _PORT_RE2 + r"/[^?#]*(?:\?[^#]*)?$"
_BASE_BAD_RE2 = _BAD_RE2 + r"|;|(?s:^https?://.*//)"
# bare-relative body: optional "./", then no leading "/.?#", no ":"
# or ";" anywhere, and no empty segment ("//")
_BARE_REL_RE2 = r"^(?:\./)?[^/.?#:;](?:[^:;/]|/(?:[^:;/]|$))*$"
_ABS_PARTS_RE2 = r"(?s)^(?P<a>[^:]*://[^/?#]*)(?P<r>[^#]*)"


def canonicalize_pairs(hrefs, bases):
    """Vectorized :func:`canonicalize` over aligned href/base string
    columns → ``pa.StringArray``: the canonical URL where one of the
    modeled shapes applies, null where the caller must fall back to the
    scalar :func:`canonicalize`.

    Shapes: path-absolute (base origin + href), protocol-relative (base
    scheme + ``:`` + href), absolute (scheme and authority lowercased,
    fragment stripped) and bare or ``./`` relative (base directory +
    href; the base may carry a query, which urljoin drops, but no
    params or empty segments in its path).  Base prefixes are computed
    once per distinct base.  A prefix only has to be right when the
    joined URL passes the two checks, so the origin and scheme are plain
    extractions; every non-null output equals ``canonicalize(href,
    base)`` (property-tested)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(hrefs, pa.ChunkedArray):
        hrefs = hrefs.combine_chunks()
    if isinstance(bases, pa.ChunkedArray):
        bases = bases.combine_chunks()
    n = len(hrefs)
    if n == 0:
        return pa.array([], pa.string())

    def mask(a):
        return pc.fill_null(a, False).to_numpy(zero_copy_only=False)

    # 1 protocol-relative, 2 path-absolute, 3 absolute, 4 bare relative
    shape = np.select(
        [mask(pc.starts_with(hrefs, "//")), mask(pc.starts_with(hrefs, "/")),
         mask(pc.match_substring_regex(hrefs, r"(?i)^https?://")),
         mask(pc.match_substring_regex(hrefs, _BARE_REL_RE2))],
        [1, 2, 3, 4], 0)
    idx_parts, joined = [], []
    based = np.nonzero((shape == 1) | (shape == 2) | (shape == 4))[0]
    if len(based):
        enc = bases.take(pa.array(based)).dictionary_encode()
        ub = enc.dictionary
        dir_ok = pc.and_(pc.match_substring_regex(ub, pattern=_BASE_DIR_RE2),
                         pc.invert(pc.match_substring_regex(ub, pattern=_BASE_BAD_RE2)))
        prefixes = pa.concat_arrays([
            pc.struct_field(pc.extract_regex(ub, pattern=r"^(?P<s>https?:)//"), [0]),
            pc.struct_field(pc.extract_regex(ub, pattern=r"^(?P<o>https?://[^/]*)"), [0]),
            pc.if_else(dir_ok, pc.struct_field(
                pc.extract_regex(ub, pattern=r"^(?P<d>[^?]*/)"), [0]),
                pa.scalar(None, pa.string())),
        ])
        # prefix table rows: [schemes | origins | dirs], one per distinct base
        which = (shape[based] // 2) * len(ub) + enc.indices.to_numpy(zero_copy_only=False)
        # only a bare relative can start with "./"
        body = pc.replace_substring_regex(hrefs.take(pa.array(based)), pattern=r"^\./",
                                          replacement="", max_replacements=1)
        idx_parts.append(based)
        joined.append(pc.binary_join_element_wise(prefixes.take(pa.array(which)), body, ""))
    absi = np.nonzero(shape == 3)[0]
    if len(absi):
        ex = pc.extract_regex(hrefs.take(pa.array(absi)), pattern=_ABS_PARTS_RE2)
        idx_parts.append(absi)
        joined.append(pc.binary_join_element_wise(
            pc.ascii_lower(pc.struct_field(ex, [0])), pc.struct_field(ex, [1]), ""))
    if not idx_parts:
        return pa.nulls(n, pa.string())
    j = pa.concat_arrays(joined)
    ok = pc.and_(pc.match_substring_regex(j, pattern=_PAIR_CANON_RE2),
                 pc.invert(pc.match_substring_regex(j, pattern=_PAIR_BAD_RE2)))
    j = pc.if_else(ok, j, pa.scalar(None, pa.string()))
    pos = np.full(n, -1, dtype=np.int64)
    pos[np.concatenate(idx_parts)] = np.arange(len(j))
    return j.take(pa.array(pos, mask=pos < 0))


def canonicalize_urls(arr, max_len: int = DEFAULT_MAX_URL_LENGTH) -> np.ndarray:
    """Vectorized ``canonicalize(u, u)`` over a URL-list column → object
    ndarray aligned with the input (None = dropped / over-length).

    The dominant shapes in a ``--url-list`` file (crawler.rs:226-230)
    are absolute URLs; :func:`canonicalize_pairs` renders those with
    zero per-row Python.  Everything else falls back to the scalar
    :func:`canonicalize` (property-tested)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def scalar(u):
        c = canonicalize(u, u) if u else None
        return c if c is not None and len(c) <= max_len else None

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    elif not isinstance(arr, (pa.Array,)):
        try:
            arr = pa.array(list(arr), type=pa.string())
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            seq = list(arr)
            out = np.empty(len(seq), dtype=object)
            out[:] = [scalar(u) for u in seq]
            return out
    n = len(arr)
    out = np.empty(n, dtype=object)
    if n == 0:
        return out
    canon = canonicalize_pairs(arr, arr)
    hit = pc.is_valid(canon).to_numpy(zero_copy_only=False)
    short = pc.fill_null(pc.less_equal(pc.utf8_length(canon), max_len), False)
    out[:] = pc.if_else(short, canon, pa.scalar(None, pa.string())).to_numpy(
        zero_copy_only=False)
    miss = np.nonzero(~hit)[0]
    if len(miss):
        for i, u in zip(miss, arr.take(pa.array(miss)).to_pylist()):
            out[i] = scalar(u)
    return out


# scalar fast path: already-lowercase safe host (exactly what the
# gauntlet's canonical URLs carry) up to the first /:?# — identical to
# urlsplit().hostname on that subset, ~15× cheaper per call
_FAST_HOST_RE = re.compile(r"^https?://([a-z0-9.\-]+)(?=[/:?#]|$)")


def host_of(url: str) -> str:
    m = _FAST_HOST_RE.match(url)
    if m is not None:
        return m.group(1)
    try:
        return urlsplit(url).hostname or ""
    except ValueError:
        return ""


# Fast-path extraction: scheme '://' host up to : / ? #.  Gated by
# _CLEAN_RE, which admits only authorities free of userinfo, whitespace,
# control chars, brackets and backslashes — i.e. exactly the canonical
# URLs the gauntlet emits.  Anything else falls back to scalar host_of
# (urlsplit) for exact parity on hostile input.
_HOSTS_RE = r"^[a-zA-Z][a-zA-Z0-9+.\-]*://(?P<h>[^/?#:]*)"
_CLEAN_RE = r"^[a-zA-Z][a-zA-Z0-9+.\-]*://[^@%\s\x00-\x1f\[\]\\]*([/?#]|$)"


def hosts_of(urls, return_arrow: bool = False):
    """Vectorized :func:`host_of` over a column (object ndarray / list /
    Arrow array) — one C++ regex pass instead of per-row urlsplit (which
    was ~30% of gauntlet time on large waves).  Rows the regex can't
    handle fall back to the scalar path for exact parity.

    ``return_arrow=True`` returns a ``pa.StringArray`` — for canonical
    inputs (no fallback rows) the hosts never round-trip through Python
    objects at all."""
    import pyarrow as pa
    import pyarrow.compute as pc

    n = len(urls)
    if n == 0:
        return pa.array([], pa.string()) if return_arrow else np.empty(0, dtype=object)
    if isinstance(urls, (pa.Array, pa.ChunkedArray)):
        arr = urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) else urls
    else:
        try:
            arr = pa.array(urls, type=pa.string())
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            out = np.array([host_of(u) for u in urls], dtype=object)
            return pa.array(out, pa.string()) if return_arrow else out
    clean = pc.match_substring_regex(arr, pattern=_CLEAN_RE)
    ex = pc.extract_regex(arr, pattern=_HOSTS_RE)
    host = pc.if_else(
        pc.and_kleene(clean, pc.is_valid(ex)),
        pc.utf8_lower(pc.struct_field(ex, "h")),
        pa.scalar(None, pa.string()),
    )
    miss = np.nonzero(pc.is_null(host).to_numpy(zero_copy_only=False))[0]
    if return_arrow and not len(miss):
        return host
    out = host.to_numpy(zero_copy_only=False).astype(object)
    if len(miss):
        raw = arr.take(pa.array(miss)).to_pylist()
        for j, u in zip(miss, raw):
            out[j] = host_of(u if u is not None else "")
    return pa.array(out, pa.string()) if return_arrow else out


def strip_www(host: str) -> str:
    return host[4:] if host.startswith("www.") else host


def is_same_host(a: str, b: str) -> bool:
    """www-insensitive host equality — crawler.rs:776-780, 1348-1356."""
    return strip_www(a) == strip_www(b)


def normalize_url_to_initial(url: str, initial_scheme: str, initial_host: str) -> str:
    """``--force-relative-urls`` host/scheme folding (crawler.rs:1245-1265):
    when the URL's host is a www/case variant of the initial host, rewrite
    its host AND scheme to the initial's, so every variant shares one
    seen-set key."""
    try:
        sp = urlsplit(url)
    except ValueError:
        return url
    host = sp.hostname or ""
    if strip_www(host).lower() != strip_www(initial_host).lower():
        return url
    if host == initial_host and sp.scheme == initial_scheme:
        return url
    netloc = initial_host if sp.port is None else f"{initial_host}:{sp.port}"
    out = f"{initial_scheme}://{netloc}{sp.path}"
    if sp.query:
        out += f"?{sp.query}"
    if sp.fragment:
        out += f"#{sp.fragment}"
    return out


def domain_2nd_level(host: str) -> str | None:
    m = DOMAIN_2ND_LEVEL_RE.search(host)
    return m.group(1) if m else None


def extension_of(path: str) -> str:
    seg = path.rsplit("/", 1)[-1]
    if "." in seg:
        return seg.rsplit(".", 1)[-1].lower()
    return ""


def path_of(url: str) -> str:
    """URL path by string slicing for fragment-free http(s) URLs —
    identical to ``urlsplit(url).path`` there (no decoding or
    normalization happens in either); urlsplit fallback otherwise.
    urlsplit was ~20% of gauntlet _derive time via is_static_file."""
    if (url[:8] == "https://" or url[:7] == "http://") and "#" not in url:
        start = 8 if url[4] == "s" else 7
        q = url.find("?", start)
        p = url.find("/", start)
        if p < 0 or (0 <= q < p):  # no path, or "?" before any "/"
            return ""
        return url[p:q] if q >= 0 else url[p:]
    try:
        return urlsplit(url).path
    except ValueError:
        return ""


def is_static_file(url: str) -> bool:
    return extension_of(path_of(url)) in STATIC_EXTENSIONS


def is_sitemap_url(url: str) -> bool:
    """crawler.rs:1637-1640 — path contains 'sitemap' and ends .xml(.gz)."""
    p = path_of(url).lower()
    return "sitemap" in p and (p.endswith(".xml") or p.endswith(".xml.gz"))


def is_xml_url(url: str) -> bool:
    p = path_of(url).lower()
    return p.endswith(".xml") or p.endswith(".xml.gz")


def basename_of(url: str) -> str | None:
    """parsed_url.rs:465-482 — key of the non-200-responses guard."""
    # fast path: fragment-free http(s) URL → path/query by string
    # slicing (urlsplit was the gauntlet's remaining per-row hot spot);
    # identical because urlsplit neither decodes nor normalizes here
    if (url[:8] == "https://" or url[:7] == "http://") and "#" not in url:
        start = 8 if url[4] == "s" else 7
        q = url.find("?", start)
        p = url.find("/", start)
        if p < 0 or (0 <= q < p):  # no path, or "?" before any "/"
            return None
        path = url[p:q] if q >= 0 else url[p:]
        query = url[q + 1:] if q >= 0 else ""
    else:
        sp = urlsplit(url)
        path = sp.path
        query = sp.query
    if not path or path == "/":
        return None
    seg = path.rstrip("/").rsplit("/", 1)[-1]
    if not seg:
        return None
    if query and ("/" in query or "%2F" in query):
        return f"{seg}?{query}"
    return seg


def compile_wildcard_domain(pattern: str) -> re.Pattern:
    """crawler.rs:1871-1880 — ``*`` wildcards in --allowed-domain patterns."""
    return re.compile("^" + re.escape(pattern).replace(r"\*", ".*") + "$", re.I)
