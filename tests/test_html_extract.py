"""Live-HTML extraction battery — edge cases ported from the
reference's inline tests (html_processor.rs:962-1233)."""

from __future__ import annotations

import pyarrow as pa

from siteone_crawler_ray.functions.html_extract import (
    ExtractFlags,
    extract_urls_from_html,
    html_extract_batch,
    spans_to_html,
)
from siteone_crawler_ray.types import UrlSource


def urls(found):
    return [u for u, _ in found]


def test_a_href_quote_forms():
    html = """<a href="/dq">x</a><a href='/sq'>y</a><a href=/uq>z</a>
              <a class="c" href="/after-attr">w</a>"""
    assert urls(extract_urls_from_html(html)) == ["/dq", "/sq", "/uq", "/after-attr"]


def test_escaped_href_in_inline_js():
    html = r"""<script>document.write('<a href=\"/esc\">x</a>')</script>"""
    assert "/esc" in urls(extract_urls_from_html(html))


def test_html_comments_included_by_default():
    """html_processor.rs:774-779 + test_html_comments_included_by_default:
    commented-out links ARE extracted unless --ignore-html-comments."""
    from siteone_crawler_ray.functions.html_extract import ExtractFlags

    html = """<!-- <a href="/commented">no</a> --><a href="/live">yes</a>"""
    assert urls(extract_urls_from_html(html)) == ["/commented", "/live"]
    assert urls(extract_urls_from_html(
        html, ExtractFlags(ignore_comments=True))) == ["/live"]


def test_img_src_data_src_and_srcset():
    html = """<img src="/a.png"><img data-src="/lazy.png">
              <img srcset="/r1.png 1x, /r2.png 2x, /r3.png 640w">"""
    found = extract_urls_from_html(html)
    assert ("/a.png", UrlSource.IMG_SRC) in found
    assert ("/lazy.png", UrlSource.IMG_SRC) in found
    assert ("/r2.png", UrlSource.IMG_SRCSET) in found
    assert not any(" " in u for u, _ in found), "size descriptors must be stripped"


def test_media_input_source_tags():
    html = """<video src="/v.mp4"></video><audio src='/a.mp3'></audio>
              <source src="/s.webm"><input type="image" src="/btn.png">"""
    found = dict(extract_urls_from_html(html))
    assert found["/v.mp4"] == UrlSource.VIDEO_SRC
    assert found["/a.mp3"] == UrlSource.AUDIO_SRC
    assert found["/s.webm"] == UrlSource.SOURCE_SRC
    assert found["/btn.png"] == UrlSource.INPUT_SRC


def test_script_and_link_classes():
    html = """<script src="/app.js"></script>
              <link rel="stylesheet" href="/main.css">
              <link rel="icon" href="/fav.ico">
              <link rel="modulepreload" href="/chunk.mjs">
              <link rel="preload" href="/font.woff2" as="font">"""
    found = dict(extract_urls_from_html(html))
    assert found["/app.js"] == UrlSource.SCRIPT_SRC
    assert found["/main.css"] == UrlSource.LINK_HREF
    assert found["/fav.ico"] == UrlSource.LINK_HREF
    assert found["/chunk.mjs"] == UrlSource.LINK_HREF
    assert found["/font.woff2"] == UrlSource.LINK_HREF


def test_css_url_in_style_block_and_flags():
    html = """<style>.a{background:url('/bg.png')}.b{src:url("/f.woff2")}</style>"""
    found = dict(extract_urls_from_html(html))
    assert found["/bg.png"] == UrlSource.CSS_URL
    assert found["/f.woff2"] == UrlSource.CSS_URL
    # --disable-images / fonts gating (html_processor.rs:781-804)
    no_img = extract_urls_from_html(html, ExtractFlags(images=False, fonts=False))
    assert urls(no_img) == []


def test_per_document_dedup_first_wins():
    html = '<a href="/x">1</a><img src="/x"><a href="/x">2</a>'
    found = extract_urls_from_html(html)
    assert found == [("/x", UrlSource.A_HREF)]


def test_batch_stage_and_span_roundtrip():
    """spans→HTML→extract must recover exactly the span refs in order
    (the live-HTML path agrees with span explosion)."""
    from siteone_crawler_ray.sources.corpus import make_graph_corpus

    docs = make_graph_corpus(seed=3, hosts=2, total_pages=60)["documents"]
    spans = docs["spans"].to_pylist()
    bodies, expected = [], []
    for row in spans[:30]:
        if row[0]["kind"] == "redirect":
            continue
        bodies.append(spans_to_html(row))
        # quoted-form hrefs (corpus quirk, normalize_href trims them)
        # render unquoted in HTML
        expected.append([s["media_ref"].strip('"') for s in row if s["media_ref"]])
    batch = pa.table({"url": [f"u{i}" for i in range(len(bodies))], "body": bodies})
    out = html_extract_batch(batch)
    by_src: dict[str, list[str]] = {}
    for s, h in zip(out["source_url"].to_pylist(), out["href"].to_pylist()):
        by_src.setdefault(s, []).append(h)
    for i, exp in enumerate(expected):
        # the battery sweeps per category (as the reference does), so
        # global order is category-major — compare the deduped SET
        dedup = sorted(set(exp))
        assert sorted(set(by_src.get(f"u{i}", []))) == dedup
