"""Live-HTML/CSS/JS URL extraction — the regex battery for raw bodies.

Span explosion (stages/extract.py) covers the interleaved corpus; this
module covers the reference's raw-HTML mode: the HtmlProcessor sweep
(/root/reference/src/content_processor/html_processor.rs:161-394),
CssProcessor url()/@import (css_processor.rs:17-89) and
JavaScriptProcessor quoted-path extraction (javascript_processor.rs:
17-121), as compiled-regex batch functions for ``map_batches`` over a
``body`` column.  Per-kind gating mirrors the ``--disable-*`` flags
(html_processor.rs:781-804); HTML comments are stripped before the
sweep (html_processor.rs:140-143, 770-779); srcset entries split on
``", "`` and drop size descriptors (html_processor.rs:286-300).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from ..types import UrlSource

_COMMENT_RE = re.compile(r"<!--.*?-->", re.S)

# attribute extraction: quoted (either quote) or unquoted-until-space
_A_HREF_RE = re.compile(r"""<a\s[^>]*?href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>"']+))""", re.I | re.S)
_ESCAPED_HREF_RE = re.compile(r"""href=\\["']([^"'\\]+)\\["']""", re.I)
_IMG_SRC_RE = re.compile(r"""<img\s[^>]*?(?:data-src|src)\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>"']+))""", re.I | re.S)
_INPUT_SRC_RE = re.compile(r"""<input\s[^>]*?src\s*=\s*(?:"([^"]*)"|'([^']*)')""", re.I | re.S)
_SOURCE_SRC_RE = re.compile(r"""<source\s[^>]*?src\s*=\s*(?:"([^"]*)"|'([^']*)')""", re.I | re.S)
_SRCSET_RE = re.compile(r"""<(?:img|source|link)\s[^>]*?(?:imagesrcset|srcset|data-srcset)\s*=\s*(?:"([^"]*)"|'([^']*)')""", re.I | re.S)
_VIDEO_SRC_RE = re.compile(r"""<video\s[^>]*?src\s*=\s*(?:"([^"]*)"|'([^']*)')""", re.I | re.S)
_AUDIO_SRC_RE = re.compile(r"""<audio\s[^>]*?src\s*=\s*(?:"([^"]*)"|'([^']*)')""", re.I | re.S)
_SCRIPT_SRC_RE = re.compile(r"""<script\s[^>]*?src\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>"']+))""", re.I | re.S)
_LINK_TAG_RE = re.compile(r"<link\s[^>]*?>", re.I | re.S)
_LINK_HREF_RE = re.compile(r"""href\s*=\s*(?:"([^"]*)"|'([^']*)')""", re.I)
_LINK_REL_RE = re.compile(r"""rel\s*=\s*["']([^"']*)["']""", re.I)
_CSS_URL_RE = re.compile(r"""url\(\s*['"]?([^'")]+?)['"]?\s*\)""", re.I)

_IMG_EXT_RE = re.compile(r"\.(png|jpe?g|gif|webp|avif|svg|ico)(\?|$)", re.I)
_FONT_EXT_RE = re.compile(r"\.(woff2?|ttf|otf|eot)(\?|$)", re.I)
_CSS_EXT_RE = re.compile(r"\.css(\?|$)", re.I)


def _first(groups) -> str:
    return next((g for g in groups if g), "")


def _split_srcset(value: str) -> list[str]:
    """srcset "url 2x, url2 640w" → urls (html_processor.rs:286-300)."""
    out = []
    for entry in value.split(", "):
        entry = entry.strip()
        if not entry:
            continue
        out.append(entry.split()[0])
    return out


@dataclass
class ExtractFlags:
    """--disable-* gating (html_processor.rs:781-804) +
    --ignore-html-comments (html_processor.rs:774-779: comments are
    KEPT by default — commented-out links extract like the reference —
    and stripped only when the flag is set)."""

    images: bool = True
    scripts: bool = True
    styles: bool = True
    files: bool = True
    fonts: bool = True
    ignore_comments: bool = False


def extract_urls_from_html(html: str, flags: ExtractFlags | None = None) -> list[tuple[str, int]]:
    """→ ordered (url, UrlSource code) pairs, per-document dedup on the
    raw URL (found_urls.rs:29-32)."""
    flags = flags or ExtractFlags()
    body = _COMMENT_RE.sub("", html) if flags.ignore_comments else html
    found: list[tuple[str, int]] = []
    seen: set[str] = set()

    def add(url: str, attr: int) -> None:
        url = url.strip()
        if url and url not in seen:
            seen.add(url)
            found.append((url, attr))

    for m in _A_HREF_RE.finditer(body):
        add(_first(m.groups()), UrlSource.A_HREF)
    for m in _ESCAPED_HREF_RE.finditer(body):
        add(m.group(1), UrlSource.A_HREF)
    if flags.images:
        for m in _IMG_SRC_RE.finditer(body):
            add(_first(m.groups()), UrlSource.IMG_SRC)
        for m in _SRCSET_RE.finditer(body):
            for u in _split_srcset(_first(m.groups())):
                add(u, UrlSource.IMG_SRCSET)
        for m in _INPUT_SRC_RE.finditer(body):
            add(_first(m.groups()), UrlSource.INPUT_SRC)
    for m in _SOURCE_SRC_RE.finditer(body):
        add(_first(m.groups()), UrlSource.SOURCE_SRC)
    for m in _VIDEO_SRC_RE.finditer(body):
        add(_first(m.groups()), UrlSource.VIDEO_SRC)
    for m in _AUDIO_SRC_RE.finditer(body):
        add(_first(m.groups()), UrlSource.AUDIO_SRC)
    if flags.scripts:
        for m in _SCRIPT_SRC_RE.finditer(body):
            add(_first(m.groups()), UrlSource.SCRIPT_SRC)
    for tag in _LINK_TAG_RE.findall(body):
        href_m = _LINK_HREF_RE.search(tag)
        if not href_m:
            continue
        href = _first(href_m.groups())
        rel = (_LINK_REL_RE.search(tag) or [None]) and (
            _LINK_REL_RE.search(tag).group(1).lower() if _LINK_REL_RE.search(tag) else ""
        )
        if "stylesheet" in rel and flags.styles:
            add(href, UrlSource.LINK_HREF)
        elif ("icon" in rel or "image" in rel or _IMG_EXT_RE.search(href)) and flags.images:
            add(href, UrlSource.LINK_HREF)
        elif ("preload" in rel or "modulepreload" in rel) and flags.scripts and href.endswith((".js", ".mjs")):
            add(href, UrlSource.LINK_HREF)
        elif _FONT_EXT_RE.search(href) and flags.fonts:
            add(href, UrlSource.LINK_HREF)
    if flags.styles or flags.images or flags.fonts:
        for m in _CSS_URL_RE.finditer(body):
            u = m.group(1)
            if _FONT_EXT_RE.search(u):
                if flags.fonts:
                    add(u, UrlSource.CSS_URL)
            elif _IMG_EXT_RE.search(u):
                if flags.images:
                    add(u, UrlSource.CSS_URL)
            elif _CSS_EXT_RE.search(u) and flags.styles:
                add(u, UrlSource.CSS_URL)
    return found


_BASE_HREF_RE = re.compile(r"""<base[^>]+href\s*=\s*["']?([^"'\s>]+)""", re.I | re.S)


def detect_base_href(body: str, page_url: str) -> str:
    """``<base href>`` detection (crawler.rs:16-17, 963-987): relative
    links on the page resolve against the base element's href when it is
    an http(s)/protocol-relative/path-absolute URL; otherwise the page
    URL stays the base."""
    m = _BASE_HREF_RE.search(body)
    if not m:
        return page_url
    href = m.group(1)
    if not href.startswith(("http://", "https://", "//", "/")):
        return page_url
    from urllib.parse import urljoin

    try:
        return urljoin(page_url, href)
    except ValueError:
        return page_url


def html_extract_batch(batch: pa.Table, body_col: str = "body", url_col: str = "url") -> pa.Table:
    """map_batches stage: (url, body) rows → found (url, href, attr).

    ``base_url`` carries the effective resolution base per row —
    the ``<base href>`` target when present (crawler.rs:963-987), else
    the page URL; downstream canonicalization must join hrefs against
    it, while ``source_url`` keeps the true lineage page."""
    bodies = batch[body_col].to_numpy(zero_copy_only=False)
    urls = batch[url_col].to_numpy(zero_copy_only=False)
    out_src, out_base, out_href, out_attr = [], [], [], []
    for u, b in zip(urls, bodies):
        if b is None:
            continue
        if isinstance(b, bytes):
            b = b.decode("utf-8", "replace")
        base = detect_base_href(b, u)
        for href, attr in extract_urls_from_html(b):
            out_src.append(u)
            out_base.append(base)
            out_href.append(href)
            out_attr.append(attr)
    return pa.table(
        {
            "source_url": pa.array(out_src, pa.string()),
            "base_url": pa.array(out_base, pa.string()),
            "href": pa.array(out_href, pa.string()),
            "source_attr": pa.array(np.array(out_attr, dtype=np.int8)),
        }
    )


def spans_to_html(spans_row, base_title: str = "") -> str:
    """Render a span row to HTML — the inverse of span explosion, used to
    round-trip-test the extractor against the corpus link graph."""
    parts = ["<!DOCTYPE html><html><head>"]
    for s in spans_row:
        k, text, ref = s["kind"], s["text"], s["media_ref"]
        if k == "title":
            parts.append(f"<title>{text}</title>")
        elif k == "meta":
            parts.append(f'<meta name="description" content="{text}">')
        elif k == "css":
            parts.append(f'<link rel="stylesheet" href="{ref}">')
    parts.append("</head><body>")
    for s in spans_row:
        k, text, ref = s["kind"], s["text"], s["media_ref"]
        if k == "text":
            parts.append(f"<p>{text}</p>")
        elif k == "link":
            parts.append(f'<a href="{ref.strip(chr(34))}">{text}</a>')
        elif k == "img":
            parts.append(f'<img src="{ref}">')
        elif k == "script":
            parts.append(f'<script src="{ref}"></script>')
        elif k == "media":
            parts.append(f'<video src="{ref}"></video>')
    parts.append("</body></html>")
    return "".join(parts)
