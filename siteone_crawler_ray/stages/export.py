"""Export stages — markdown rendering, offline path derivation, URL
transforms.  All pure per-row ``map_batches`` functions.

- spans→markdown re-expresses the reference's HTML→Markdown converter
  (/root/reference/src/export/utils/html_to_markdown.rs:42-760) for the
  interleaved-span corpus: title→heading, meta→blockquote, text→
  paragraph, link→[text](href), img/script/css/media→reference lines.
- offline path derivation mirrors offline_url_converter.rs:104-520
  (host dir, index.html for directory URLs, query → _q<hash> suffix,
  extension-preserving).
- URL transforms mirror --transform-url (crawler.rs:1680-1724):
  ``from -> to`` literal or regex rewrites applied before fetch.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def spans_to_markdown(batch: pa.Table) -> pa.Table:
    """visited page rows → (url, markdown) — per-page conversion
    (markdown_exporter.rs:147-300 per-page path)."""
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    urls = batch["url"].to_numpy(zero_copy_only=False)
    out_url, out_md = [], []
    for i, row in enumerate(spans.to_pylist()):
        if row is None:
            continue
        lines: list[str] = []
        for s in row:
            k, text, ref = s["kind"], s["text"], s["media_ref"]
            if k == "title":
                lines.append(f"# {text}")
            elif k == "meta":
                lines.append(f"> {text}")
            elif k == "text":
                lines.append(text)
            elif k == "link":
                lines.append(f"[{text or ref}]({ref})")
            elif k == "img":
                lines.append(f"![]({ref})")
            elif k == "redirect":
                lines.append(f"→ {ref}")
            elif k in ("script", "css", "media"):
                continue  # stripped assets (html_processor.rs:397-416)
        out_url.append(urls[i])
        out_md.append("\n\n".join(lines) + "\n")
    return pa.table({"url": pa.array(out_url, pa.string()), "markdown": pa.array(out_md, pa.string())})


def common_boilerplate(pages: list[str], threshold: float = 0.8) -> tuple[list[str], list[str]]:
    """Header/footer lines shared by ≥ threshold of pages
    (markdown_site_aggregator.rs:13-40's 80%-similarity rule): the
    longest line-prefix (and suffix) present in at least that fraction
    of pages."""
    if len(pages) < 2:
        return [], []
    split = [p.splitlines() for p in pages]
    need = max(2, int(len(split) * threshold))

    def run(lines_at) -> list[str]:
        out = []
        depth = 0
        while True:
            counts: dict[str, int] = {}
            for ls in split:
                v = lines_at(ls, depth)
                if v is not None:
                    counts[v] = counts.get(v, 0) + 1
            if not counts:
                break
            line, n = max(counts.items(), key=lambda kv: kv[1])
            if n < need or not line.strip():  # blank lines aren't boilerplate
                break
            out.append(line)
            depth += 1
        return out

    header = run(lambda ls, d: ls[d] if d < len(ls) else None)
    footer = run(lambda ls, d: ls[-1 - d] if d < len(ls) else None)
    footer.reverse()
    return header, footer


_RM_IMG_IN_ANCHOR_RE = re.compile(r"\[!\[[^\]]*\]\([^\)]*\)\]\([^\)]*\)")
_RM_IMG_RE = re.compile(r"!\[.*?\]\([^)]*\)(\s*\"[^\"]*\")?")
_RM_LIST_LINK_RE = re.compile(r"^\s*(\*|-|[0-9]+\.)\s*\[([^\]]+)\]\([^)]+\)", re.M)
_RM_EMPTY_LINK_RE = re.compile(r"\[\]\([^)]+\)")
_RM_EMPTY_TABLE_ROW_RE = re.compile(r"^\s*(\|\s*)+\|\s*$", re.M)
_RM_EMPTY_LIST_ITEM_RE = re.compile(r"^\s*(\*|-|[0-9]+\.)\s*$", re.M)
_RM_MULTI_BLANK_RE = re.compile(r"\n{3,}")


def remove_links_and_images(markdown: str) -> str:
    """--markdown-remove-links-and-images-from-single-file transform
    (markdown_site_aggregator.rs:359-398): linked images, standalone
    images, link-only list items and empty links/rows are removed from
    the aggregated single file."""
    out = _RM_IMG_IN_ANCHOR_RE.sub("", markdown)
    out = _RM_IMG_RE.sub("", out)
    out = _RM_LIST_LINK_RE.sub("", out)
    out = _RM_EMPTY_LINK_RE.sub("", out)
    out = _RM_EMPTY_TABLE_ROW_RE.sub("", out)
    out = _RM_EMPTY_LIST_ITEM_RE.sub("", out)
    return _RM_MULTI_BLANK_RE.sub("\n\n", out)


def aggregate_markdown(
    md_table: pa.Table, max_pages: int | None = None, dedup_boilerplate: bool = True,
    remove_links_images: bool = False,
) -> str:
    """Single-file aggregation ordered by URL (markdown_site_aggregator.rs:
    14-40): common header/footer lines (≥80% of pages) hoist to the top
    once; per-page bodies keep only their distinct content."""
    t = md_table.take(pc.sort_indices(md_table, sort_keys=[("url", "ascending")]))
    if max_pages is not None:
        t = t.slice(0, max_pages)
    urls = t["url"].to_pylist()
    pages = t["markdown"].to_pylist()
    prefix = ""
    if dedup_boilerplate and len(pages) >= 2:
        header, footer = common_boilerplate(pages)
        if header or footer:
            stripped = []
            for p in pages:
                ls = p.splitlines()
                h = len(header) if ls[: len(header)] == header else 0
                f = len(footer) if footer and ls[len(ls) - len(footer) :] == footer else 0
                stripped.append("\n".join(ls[h : len(ls) - f if f else len(ls)]))
            pages = stripped
            prefix = "\n".join(["<!-- common header/footer -->", *header, *footer, "", ""])
    parts = [f"<!-- {u} -->\n\n{m}" for u, m in zip(urls, pages)]
    combined = prefix + "\n---\n\n".join(parts)
    # the reference applies the removal to the COMBINED document
    # (markdown_site_aggregator.rs:110-112)
    return remove_links_and_images(combined) if remove_links_images else combined


class UrlTransforms:
    """Compiled --transform-url rules (crawler.rs:1680-1724): each rule is
    ``from -> to`` with literal or ``regex:`` prefix forms; applied in
    order to scheme-stripped host+path."""

    def __init__(self, rules: tuple[str, ...] = ()):
        self.rules: list[tuple] = []
        for r in rules:
            if "->" not in r:
                raise ValueError(f"transform rule missing '->': {r!r}")
            frm, to = (p.strip() for p in r.split("->", 1))
            if frm.startswith("regex:"):
                self.rules.append((re.compile(frm[len("regex:"):]), to, True))
            else:
                self.rules.append((frm, to, False))

    def apply_one(self, url: str) -> str:
        for frm, to, is_re in self.rules:
            if is_re:
                url = frm.sub(to, url)
            elif frm in url:
                url = url.replace(frm, to)
        return url

    def __call__(self, batch: pa.Table, column: str = "url") -> pa.Table:
        if not self.rules:
            return batch
        urls = batch[column].to_numpy(zero_copy_only=False)
        out = np.array([self.apply_one(u) for u in urls], dtype=object)
        idx = batch.schema.get_field_index(column)
        return batch.set_column(idx, column, pa.array(out, pa.string()))
