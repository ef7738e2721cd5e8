"""Per-page SEO / accessibility / security checks — §2.10 analyzers.

Vectorizable per-row checks re-expressing the reference analyzers as
``map_batches`` batch functions emitting (url, category, rule,
severity) finding rows that feed the summary/scoring pipeline:

- SEO/OpenGraph (/root/reference/src/analysis/seo_opengraph_analyzer.rs:
  650-889): title/description/canonical/robots meta, OG/Twitter tags,
  H1 count + heading-level skips.
- Accessibility (/root/reference/src/analysis/accessibility_analyzer.rs:
  64-540): img alt, input labels, ``<html lang>``, aria-label id refs.
- Security (/root/reference/src/analysis/security_analyzer.rs:43-941):
  response-header checks (HSTS, CSP, X-Frame-Options,
  X-Content-Type-Options, Referrer-Policy, Server disclosure,
  Set-Cookie flags).

Regex-based (no DOM library in this container) — the same approach the
reference takes for extraction; checks are compiled once per worker.
"""

from __future__ import annotations

import re

import pyarrow as pa

_TITLE_RE = re.compile(r"<title[^>]*>([^<]*)</title>", re.I | re.S)
_META_DESC_RE = re.compile(r"""<meta\s[^>]*name=["']description["'][^>]*>""", re.I)
_CANONICAL_RE = re.compile(r"""<link\s[^>]*rel=["']canonical["'][^>]*>""", re.I)
_OG_RE = re.compile(r"""<meta\s[^>]*property=["']og:(\w+)["'][^>]*>""", re.I)
_H_RE = re.compile(r"<h([1-6])[\s>]", re.I)
_IMG_RE = re.compile(r"<img\s[^>]*?>", re.I | re.S)
_ALT_RE = re.compile(r"""\balt\s*=\s*["'][^"']*["']""", re.I)
_HTML_LANG_RE = re.compile(r"""<html\s[^>]*lang=["'][^"']+["']""", re.I)
_INPUT_RE = re.compile(r"<input\s[^>]*?>", re.I | re.S)
_LABELLED_RE = re.compile(r"""\b(?:aria-label|aria-labelledby|id)\s*=""", re.I)
_HIDDEN_TYPE_RE = re.compile(r"""type\s*=\s*["'](?:hidden|submit|button)["']""", re.I)


# OG/Twitter property inventory (seo_opengraph_analyzer.rs:713-779)
_OG_PROPS = ("title", "description", "image", "url", "type", "site_name")
_TW_PROPS = ("card", "site", "creator", "title", "description", "image")
_OG_PROP_RES = {
    p: re.compile(rf"""<meta\s[^>]*property=["']og:{p}["'][^>]*>""", re.I) for p in _OG_PROPS
}
_TW_PROP_RES = {
    p: re.compile(rf"""<meta\s[^>]*name=["']twitter:{p}["'][^>]*>""", re.I) for p in _TW_PROPS
}
_TWITTER_ANY_RE = re.compile(r"""<meta\s[^>]*name=["']twitter:\w+["'][^>]*>""", re.I)


def seo_checks(html: str, max_heading_level: int = 3) -> list[tuple[str, str]]:
    """→ (rule, severity) findings for one HTML document."""
    out = []
    m = _TITLE_RE.search(html)
    if not m or not m.group(1).strip():
        out.append(("missing-title", "WARNING"))
    elif len(m.group(1).strip()) > 60:
        out.append(("long-title", "NOTICE"))
    if not _META_DESC_RE.search(html):
        out.append(("missing-description", "NOTICE"))
    if not _CANONICAL_RE.search(html):
        out.append(("missing-canonical", "INFO"))
    has_og = bool(_OG_RE.search(html))
    has_tw = bool(_TWITTER_ANY_RE.search(html))
    if not has_og and not has_tw:
        out.append(("missing-opengraph", "INFO"))
    else:
        # property inventory: flag the core properties a share card
        # needs (seo_opengraph_analyzer.rs:713-779 table columns)
        if has_og:
            for p in ("title", "description", "image"):
                if not _OG_PROP_RES[p].search(html):
                    out.append((f"og-missing-{p}", "NOTICE"))
        if has_tw and not _TW_PROP_RES["card"].search(html):
            out.append(("twitter-missing-card", "NOTICE"))
    levels = [int(x) for x in _H_RE.findall(html)]
    h1s = levels.count(1)
    if h1s == 0:
        out.append(("missing-h1", "WARNING"))
    elif h1s > 1:
        out.append(("multiple-h1", "NOTICE"))
    for a, b in zip(levels, levels[1:]):
        if b > a + 1:  # heading level skipped (e.g. h2 → h4)
            out.append(("heading-level-skip", "NOTICE"))
            break
    # heading-tree depth beyond the configured maximum
    # (seo_opengraph_analyzer.rs:49-53, 780-889 build_heading_tree)
    if levels and max(levels) > max_heading_level:
        out.append(("heading-depth-exceeded", "INFO"))
    return out


_A_TAG_RE = re.compile(r"<a\s[^>]*href\s*=[^>]*>(.*?)</a>", re.I | re.S)
_BUTTON_RE = re.compile(r"<button\b[^>]*>(.*?)</button>", re.I | re.S)
_ACC_NAME_RE = re.compile(r"""\b(?:aria-label|title)\s*=\s*["'][^"']+["']""", re.I)
_INNER_IMG_ALT_RE = re.compile(r"""<img\s[^>]*alt\s*=\s*["'][^"']+["']""", re.I)
_STRIP_TAGS_RE = re.compile(r"<[^>]+>")
_MAIN_RE = re.compile(r"""<main[\s>]|role\s*=\s*["']main["']""", re.I)
_EMPTY_LANG_RE = re.compile(r"""<html\s[^>]*lang=["']\s*["']""", re.I)
_ID_ATTR_RE = re.compile(r"""\bid\s*=\s*["']([^"']+)["']""", re.I)
_IDREF_RE = re.compile(
    r"""\b(?:aria-labelledby|aria-describedby|aria-controls|aria-owns|for)\s*=\s*["']([^"']+)["']""",
    re.I,
)


def accessibility_checks(html: str) -> list[tuple[str, str]]:
    """accessibility_analyzer.rs:64-540: alt text, labels, lang,
    unnamed interactive elements, main landmark, duplicate ids and
    dangling IDREF references."""
    out = []
    missing_alt = sum(1 for tag in _IMG_RE.findall(html) if not _ALT_RE.search(tag))
    if missing_alt:
        out.append(("img-missing-alt", "WARNING"))
    if "<html" in html.lower():
        if _EMPTY_LANG_RE.search(html):
            # lang present but empty (accessibility_analyzer.rs:232-241)
            out.append(("empty-html-lang", "CRITICAL"))
        elif not _HTML_LANG_RE.search(html):
            out.append(("missing-html-lang", "CRITICAL"))
        # no <main> or role="main" landmark (:194-224)
        if not _MAIN_RE.search(html):
            out.append(("missing-main-landmark", "WARNING"))
    unlabeled = sum(
        1
        for tag in _INPUT_RE.findall(html)
        if not _HIDDEN_TYPE_RE.search(tag) and not _LABELLED_RE.search(tag)
    )
    if unlabeled:
        out.append(("input-missing-label", "NOTICE"))
    # icon-only links/buttons with no accessible name (:152-192)
    unnamed = 0
    for rx in (_A_TAG_RE, _BUTTON_RE):
        for m in rx.finditer(html):
            open_tag = m.group(0)[: m.group(0).find(">") + 1]
            inner = m.group(1)
            if _STRIP_TAGS_RE.sub("", inner).strip():
                continue  # has visible text
            if _ACC_NAME_RE.search(open_tag) or _INNER_IMG_ALT_RE.search(inner):
                continue
            unnamed += 1
    if unnamed:
        out.append(("unnamed-interactive", "WARNING"))
    # duplicate id values + dangling IDREFs (:275-426)
    ids = _ID_ATTR_RE.findall(html)
    if len(ids) != len(set(ids)):
        out.append(("duplicate-id", "WARNING"))
    id_set = set(ids)
    dangling = False
    for m in _IDREF_RE.finditer(html):
        for ref in m.group(1).split():
            if ref and ref not in id_set:
                dangling = True
                break
        if dangling:
            break
    if dangling:
        out.append(("dangling-idref", "WARNING"))
    return out


_SVG_RE = re.compile(r"<svg\b[^>]*>.*?</svg>", re.I | re.S)
_TAG_OPEN_RE = re.compile(r"<(/?)([a-zA-Z][a-zA-Z0-9-]*)[^>]*?(/?)>")
_VOID_TAGS = frozenset("area base br col embed hr img input link meta source track wbr".split())
_PHONE_RE = re.compile(r"(?<![\d/])\+?\d{3}[\s.-]\d{3}[\s.-]\d{4}(?!\d)")
_TEL_LINK_RE = re.compile(r"""<a\s[^>]*href=["']tel:[^"']*["'][^>]*>.*?</a>""", re.I | re.S)


_UNQUOTED_ATTR_RE = re.compile(
    r"""<[^>]*\s(href|src|content|alt|title)\s*=\s*([^"'\s>][^\s>]*)[^>]*>""", re.I
)


def best_practice_checks(html: str, max_dom_depth: int = 32) -> list[tuple[str, str]]:
    """best_practice_analyzer.rs:173-614 class of per-row checks:
    duplicated inline SVGs, DOM depth over limit, unquoted attribute
    values, phone numbers not wrapped in tel: links."""
    out = []
    # unquoted href/src/content/alt/title values
    # (best_practice_analyzer.rs:329-386 incl. the skip rules)
    for m in _UNQUOTED_ATTR_RE.finditer(html):
        full, value = m.group(0), m.group(2)
        if len(full) > 1000 or not value.strip():
            continue
        if "\\\"" in full or "\\'" in full or "&#" in full or full.startswith("<astro"):
            continue
        try:
            float(value)
            continue  # numeric values are fine
        except ValueError:
            pass
        out.append(("missing-attr-quotes", "WARNING"))
        break
    svgs = _SVG_RE.findall(html)
    if len(svgs) > 1 and len(set(svgs)) < len(svgs):
        out.append(("duplicate-inline-svg", "NOTICE"))
    depth = max_depth = 0
    for m in _TAG_OPEN_RE.finditer(html):
        closing, name, self_close = m.group(1), m.group(2).lower(), m.group(3)
        if closing:
            depth = max(0, depth - 1)
        elif not self_close and name not in _VOID_TAGS:
            depth += 1
            max_depth = max(max_depth, depth)
    if max_depth > max_dom_depth:
        out.append(("dom-depth-exceeded", "NOTICE"))
    without_tel = _TEL_LINK_RE.sub("", html)
    if _PHONE_RE.search(_TAG_OPEN_RE.sub(" ", without_tel)):
        out.append(("phone-not-clickable", "NOTICE"))
    return out


_FORM_HTTP_RE = re.compile(r"""<form[^>]*action=["']http://[^"']+["'][^>]*>""", re.I)
_IFRAME_HTTP_RE = re.compile(r"""<iframe[^>]*src=["']http://[^"']+["'][^>]*>""", re.I)
_SCRIPT_HTTP_RE = re.compile(r"""<script[^>]*src=["']http://[^"']+["']""", re.I)
_LINK_TAG_SEC_RE = re.compile(r"<link\b[^>]*>", re.I)
_MEDIA_HTTP_RE = re.compile(r"""<(?:img|audio|video|source)[^>]*src=["']http://[^"']+["']""", re.I)


def security_html_checks(html: str, is_https: bool = True) -> list[tuple[str, str]]:
    """Mixed-content checks on HTTPS pages
    (security_analyzer.rs:156-221 check_html_security)."""
    if not is_https:
        return []
    out = []
    if _FORM_HTTP_RE.search(html):
        out.append(("insecure-form-action", "CRITICAL"))
    if _IFRAME_HTTP_RE.search(html):
        out.append(("insecure-iframe", "CRITICAL"))
    if _SCRIPT_HTTP_RE.search(html):
        out.append(("active-mixed-content-script", "CRITICAL"))
    for tag in _LINK_TAG_SEC_RE.findall(html):
        tl = tag.lower()
        if (('href="http://' in tl or "href='http://" in tl)
                and ('rel="stylesheet"' in tl or "rel='stylesheet'" in tl)):
            out.append(("active-mixed-content-stylesheet", "CRITICAL"))
            break
    if _MEDIA_HTTP_RE.search(html):
        out.append(("passive-mixed-content", "WARNING"))
    return out


def page_checks_batch(batch: pa.Table, body_col: str = "body", url_col: str = "url",
                      max_heading_level: int = 3) -> pa.Table:
    """map_batches stage: HTML rows → finding rows (url, category, rule,
    severity).  ``max_heading_level`` feeds the SEO heading-tree check
    (the reference wires its --max-heading-level option into the SEO
    analyzer the same way, initiator.rs:124-126, default 3; here it is
    a library-level knob of this stage — the CLI's span-corpus scoring
    path has no heading trees to bound)."""
    bodies = batch[body_col].to_numpy(zero_copy_only=False)
    urls = batch[url_col].to_numpy(zero_copy_only=False)
    u_out, cat, rule, sev = [], [], [], []
    for u, b in zip(urls, bodies):
        if b is None:
            continue
        if isinstance(b, bytes):
            b = b.decode("utf-8", "replace")
        for r, s in seo_checks(b, max_heading_level=max_heading_level):
            u_out.append(u), cat.append("seo"), rule.append(r), sev.append(s)
        for r, s in accessibility_checks(b):
            u_out.append(u), cat.append("accessibility"), rule.append(r), sev.append(s)
        for r, s in best_practice_checks(b):
            u_out.append(u), cat.append("best_practice"), rule.append(r), sev.append(s)
        for r, s in security_html_checks(b, is_https=u.startswith("https://")):
            u_out.append(u), cat.append("security"), rule.append(r), sev.append(s)
    return pa.table(
        {
            "url": pa.array(u_out, pa.string()),
            "category": pa.array(cat, pa.string()),
            "rule": pa.array(rule, pa.string()),
            "severity": pa.array(sev, pa.string()),
        }
    )


def findings_summary(findings_ds) -> pa.Table:
    """(category, rule, severity) → counts, combiner partial agg."""
    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(["category", "rule", "severity"], use_threads=False).aggregate(
            [([], "count_all")]
        )

    from .agg import collect_blocks

    parts = collect_blocks(findings_ds.map_batches(partial, batch_format="pyarrow"))
    if not parts:
        return pa.table({"category": pa.array([], pa.string()), "rule": pa.array([], pa.string()),
                         "severity": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    merged = (
        pa.concat_tables(parts)
        .group_by(["category", "rule", "severity"], use_threads=False)
        .aggregate([("count_all", "sum")])
    )
    import pyarrow.compute as pc

    t = pa.table(
        {
            "category": merged["category"],
            "rule": merged["rule"],
            "severity": merged["severity"],
            "n": merged["count_all_sum"],
        }
    )
    return t.take(pc.sort_indices(t, sort_keys=[("category", "ascending"), ("rule", "ascending")]))
