"""SEO / accessibility / security analyzer checks (SURVEY §2.10)."""

from __future__ import annotations

import pyarrow as pa

from siteone_crawler_ray.functions.page_checks import (
    accessibility_checks,
    findings_summary,
    page_checks_batch,
    seo_checks,
)


def rules(findings):
    return {r for r, _ in findings}


def test_seo_checks():
    good = ("<html lang='en'><head><title>Hi</title>"
            "<meta name='description' content='d'>"
            "<link rel='canonical' href='/x'>"
            "<meta property='og:title' content='t'>"
            "<meta property='og:description' content='d'>"
            "<meta property='og:image' content='/i.png'></head>"
            "<body><h1>A</h1><h2>B</h2></body></html>")
    assert seo_checks(good) == []
    # partial OG block → per-property findings (seo_opengraph_analyzer.rs:713-779)
    partial_og = "<title>t</title><h1>a</h1><meta property='og:title' content='t'>"
    r = rules(seo_checks(partial_og))
    assert "og-missing-description" in r and "og-missing-image" in r
    tw = "<title>t</title><h1>a</h1><meta name='twitter:title' content='t'>"
    assert "twitter-missing-card" in rules(seo_checks(tw))
    deep = "<title>t</title><h1>a</h1><h2>b</h2><h3>c</h3><h4>d</h4>"
    assert "heading-depth-exceeded" in rules(seo_checks(deep))
    bad = "<html><body><h2>no h1</h2><h4>skip</h4></body></html>"
    r = rules(seo_checks(bad))
    assert {"missing-title", "missing-description", "missing-h1", "heading-level-skip"} <= r
    long_title = f"<title>{'x' * 70}</title><h1>a</h1>"
    assert "long-title" in rules(seo_checks(long_title))
    multi = "<title>t</title><h1>a</h1><h1>b</h1>"
    assert "multiple-h1" in rules(seo_checks(multi))


def test_accessibility_checks():
    ok = ("<html lang='en'><main><img src='/a.png' alt='pic'>"
          "<input type='hidden'></main></html>")
    assert accessibility_checks(ok) == []
    bad = "<html><img src='/a.png'><input type='text'></html>"
    r = rules(accessibility_checks(bad))
    assert {"img-missing-alt", "missing-html-lang", "input-missing-label",
            "missing-main-landmark"} == r
    # missing lang is CRITICAL per accessibility_analyzer.rs:254-266
    assert ("missing-html-lang", "CRITICAL") in accessibility_checks(bad)


def test_accessibility_unnamed_interactive_and_idrefs():
    # icon-only link with no accessible name (accessibility_analyzer.rs:152-192)
    unnamed = "<html lang='x'><main><a href='/x'><svg></svg></a></main></html>"
    assert "unnamed-interactive" in rules(accessibility_checks(unnamed))
    named = ("<html lang='x'><main><a href='/x' aria-label='Home'><svg></svg></a>"
             "<a href='/y'>text</a><button>Go</button></main></html>")
    assert "unnamed-interactive" not in rules(accessibility_checks(named))
    # empty lang attribute → CRITICAL (:232-241)
    assert "empty-html-lang" in rules(accessibility_checks("<html lang=''><main>x</main></html>"))
    # duplicate ids + dangling IDREF (:275-426)
    dup = "<html lang='x'><main><p id='a'>1</p><p id='a'>2</p></main></html>"
    assert "duplicate-id" in rules(accessibility_checks(dup))
    dangle = ("<html lang='x'><main><input type='text' aria-label='q'"
              " aria-describedby='nope'></main></html>")
    assert "dangling-idref" in rules(accessibility_checks(dangle))
    ok_ref = ("<html lang='x'><main><p id='hint'>h</p>"
              "<input type='text' aria-label='q' aria-describedby='hint'></main></html>")
    assert "dangling-idref" not in rules(accessibility_checks(ok_ref))


def test_security_html_mixed_content():
    from siteone_crawler_ray.functions.page_checks import security_html_checks

    body = ('''<form action="http://x.test/post"></form>
            <iframe src="http://x.test/f"></iframe>
            <script src="http://x.test/s.js"></script>
            <link rel="stylesheet" href="http://x.test/s.css">
            <img src="http://x.test/i.png">''')
    r = rules(security_html_checks(body, is_https=True))
    assert r == {"insecure-form-action", "insecure-iframe",
                 "active-mixed-content-script",
                 "active-mixed-content-stylesheet", "passive-mixed-content"}
    # non-stylesheet link over http is NOT active mixed content
    canon = '<link rel="canonical" href="http://x.test/c">'
    assert security_html_checks(canon, is_https=True) == []
    # http pages are exempt (security_analyzer.rs:156-159)
    assert security_html_checks(body, is_https=False) == []


def test_best_practice_unquoted_attrs():
    from siteone_crawler_ray.functions.page_checks import best_practice_checks

    assert "missing-attr-quotes" in {r for r, _ in best_practice_checks(
        "<a href=/unquoted/path>x</a>")}
    assert "missing-attr-quotes" not in {r for r, _ in best_practice_checks(
        '<a href="/quoted">x</a><img width=20>')}


def test_page_checks_pipeline(ray_session):
    import ray.data as rd

    from siteone_crawler_ray.functions.html_extract import spans_to_html
    from siteone_crawler_ray.sources.corpus import make_graph_corpus

    docs = make_graph_corpus(seed=3, hosts=2, total_pages=80)["documents"]
    bodies = [spans_to_html(r) for r in docs["spans"].to_pylist()]
    t = pa.table({"url": docs["doc_id"], "body": pa.array(bodies, pa.string())})
    ds = rd.from_arrow([t.slice(i, 20) for i in range(0, t.num_rows, 20)])
    summary = findings_summary(ds.map_batches(page_checks_batch, batch_format="pyarrow"))
    assert summary.num_rows > 0
    cats = set(summary["category"].to_pylist())
    assert "seo" in cats and "accessibility" in cats
    # counts must sum to the raw finding count
    raw = ds.map_batches(page_checks_batch, batch_format="pyarrow").count()
    assert sum(summary["n"].to_pylist()) == raw


def test_best_practice_checks():
    from siteone_crawler_ray.functions.page_checks import best_practice_checks

    svg_dup = "<svg><circle/></svg><p>x</p><svg><circle/></svg>"
    assert ("duplicate-inline-svg", "NOTICE") in best_practice_checks(svg_dup)
    svg_distinct = "<svg><circle/></svg><svg><rect/></svg>"
    assert not any(r == "duplicate-inline-svg" for r, _ in best_practice_checks(svg_distinct))

    deep = "<div>" * 40 + "x" + "</div>" * 40
    assert ("dom-depth-exceeded", "NOTICE") in best_practice_checks(deep)
    shallow = "<div><p>x</p></div>"
    assert not any(r == "dom-depth-exceeded" for r, _ in best_practice_checks(shallow))

    plain_phone = "<p>Call 555-123-4567 today</p>"
    assert ("phone-not-clickable", "NOTICE") in best_practice_checks(plain_phone)
    linked = '<a href="tel:+15551234567">555-123-4567</a>'
    assert not any(r == "phone-not-clickable" for r, _ in best_practice_checks(linked))
    # void tags must not inflate DOM depth
    voids = "<div>" + "<br><img src='/a.png'>" * 50 + "</div>"
    assert not any(r == "dom-depth-exceeded" for r, _ in best_practice_checks(voids))


def test_max_heading_level_threads_through_batch():
    """--max-heading-level analogue: the batch stage forwards the limit
    to the SEO heading-tree check (initiator.rs:124-126, default 3)."""
    import pyarrow as pa

    from siteone_crawler_ray.functions.page_checks import page_checks_batch

    html = ("<html><head><title>t</title><meta name=\"description\" content=\"d\">"
            "</head><body><h1>a</h1><h2>b</h2><h3>c</h3><h4>d</h4></body></html>")
    b = pa.table({"url": ["https://a.test/x"], "body": [html]})
    deep_default = page_checks_batch(b)
    rules3 = set(deep_default["rule"].to_pylist())
    assert "heading-depth-exceeded" in rules3 or any("heading" in r for r in rules3)
    deep6 = page_checks_batch(b, max_heading_level=6)
    assert not any("depth" in r for r in deep6["rule"].to_pylist())
