"""Exporters, cache parsing, scoring, seed sources (SURVEY §2.1/§2.5/§2.8)."""

from __future__ import annotations

import gzip

import numpy as np
import pyarrow as pa
import pytest

from siteone_crawler_ray.functions.cache import add_cache_columns, parse_cache_control
from siteone_crawler_ray.pipelines import scoring as SC
from siteone_crawler_ray.sources.seeds import parse_url_list_text
from siteone_crawler_ray.stages.export import (
    UrlTransforms,
    aggregate_markdown,
    spans_to_markdown,
)
from siteone_crawler_ray.types import CacheFlag


# -- cache-header parsing (crawler.rs:1743-1818) -----------------------------


def test_parse_cache_control_flags_and_lifetime():
    f, life = parse_cache_control("public, max-age=604800, immutable")
    assert f & CacheFlag.HAS_CACHE_CONTROL and f & CacheFlag.PUBLIC
    assert f & CacheFlag.MAX_AGE and f & CacheFlag.IMMUTABLE
    assert life == 604800
    f, life = parse_cache_control("no-cache, no-store, must-revalidate")
    assert f & CacheFlag.NO_CACHE and f & CacheFlag.NO_STORE and f & CacheFlag.MUST_REVALIDATE
    assert life is None
    assert parse_cache_control(None) == (0, None)
    assert parse_cache_control("") == (0, None)
    # s-maxage provides lifetime when max-age is absent
    f, life = parse_cache_control("s-maxage=60")
    assert f & CacheFlag.S_MAXAGE and life == 60


def test_add_cache_columns_batch():
    batch = pa.table(
        {
            "cache_control": ["public, max-age=100", "", None, "private, max-age=0"],
            "etag": ['W/"abc"', None, "", 'W/"d"'],
        }
    )
    out = add_cache_columns(batch)
    flags = out["cache_type_flags"].to_pylist()
    assert flags[0] & CacheFlag.MAX_AGE and flags[0] & CacheFlag.HAS_ETAG
    assert flags[1] == 0 and flags[2] == 0
    assert flags[3] & CacheFlag.PRIVATE
    assert out["cache_lifetime"].to_pylist() == [100, None, None, 0]


# -- markdown / offline / transforms -----------------------------------------


def _spans(rows):
    t = pa.table(
        {
            "url": pa.array([r[0] for r in rows]),
            "spans": pa.array(
                [r[1] for r in rows],
                type=pa.list_(
                    pa.struct(
                        [("kind", pa.string()), ("text", pa.string()),
                         ("media_ref", pa.string()), ("offset", pa.int32())]
                    )
                ),
            ),
        }
    )
    return t


def test_spans_to_markdown_and_aggregate():
    t = _spans(
        [
            ("https://a.test/x", [
                {"kind": "title", "text": "T", "media_ref": "", "offset": 0},
                {"kind": "text", "text": "hello", "media_ref": "", "offset": 1},
                {"kind": "link", "text": "go", "media_ref": "/y", "offset": 2},
                {"kind": "script", "text": "", "media_ref": "/s.js", "offset": 3},
            ]),
            ("https://a.test/skip", None),
        ]
    )
    md = spans_to_markdown(t)
    assert md.num_rows == 1  # asset-only/null span rows dropped
    body = md["markdown"].to_pylist()[0]
    assert "# T" in body and "[go](/y)" in body and "/s.js" not in body
    agg = aggregate_markdown(md)
    assert "<!-- https://a.test/x -->" in agg


def test_url_transforms():
    tr = UrlTransforms(("old.test -> new.test", r"regex:/v(\d+)/ -> /ver\1/"))
    batch = pa.table({"url": ["https://old.test/v2/a", "https://keep.test/x"]})
    out = tr(batch)
    assert out["url"].to_pylist() == ["https://new.test/ver2/a", "https://keep.test/x"]
    with pytest.raises(ValueError):
        UrlTransforms(("no-arrow",))


# -- scoring + ci gate --------------------------------------------------------


def test_score_deductions_and_caps():
    findings = [
        SC.Finding("seo", "WARNING", count=2, rule="missing-title"),   # 4.0 → capped 2.5
        SC.Finding("best_practice", "CRITICAL", count=1, rule="x"),    # 5.0
        SC.Finding("security", "INFO", count=9, rule="i"),             # ignored
    ]
    rep = SC.score(findings)
    assert rep.scores["seo"] == 7.5  # capped at 2.5 deduction
    assert rep.scores["best_practice"] == 5.0
    assert rep.scores["security"] == 10.0
    assert 0 < rep.total <= 10


def test_ci_gate_exit_code():
    rep = SC.score([])
    code, v = SC.ci_gate(rep, [], n_404=0, cfg=SC.CiGateConfig(min_quality_score=5.0))
    assert code == 0 and not v
    code, v = SC.ci_gate(rep, [], n_404=7, cfg=SC.CiGateConfig(max_404s=5))
    assert code == 10 and v


# -- seed sources -------------------------------------------------------------


def test_parse_url_list_text():
    good, bad = parse_url_list_text(
        "# comment\n\nhttps://a.test/x\nnot a url\nhttps://b.test/y?q=1#frag\n"
    )
    assert good == ["https://a.test/x", "https://b.test/y?q=1"]
    assert bad == ["not a url"]


# -- redirect + header battery over a real crawl ------------------------------


@pytest.fixture(scope="module")
def crawl_result(ray_session, tmp_path_factory):
    import os

    from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    tmp = str(tmp_path_factory.mktemp("exp"))
    tabs = make_graph_corpus(seed=5, hosts=3, total_pages=400)
    cp = os.path.join(tmp, "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=8)
    cfg = CrawlConfig(fetch_concurrency=2,
                      allowed_domains_crawl=("*",), allowed_domains_static=("*",))
    res = EpochCrawler(
        cp,
        tabs["seeds"]["url"].to_pylist(),
        dict(zip(tabs["robots"]["host"].to_pylist(), tabs["robots"]["body"].to_pylist())),
        os.path.join(tmp, "work"),
        cfg,
    ).run()
    return res, tabs


def _ds(res, columns=None):
    import ray.data as rd

    t = res.visited_table(columns=columns)
    return rd.from_arrow(t)


def test_redirects_in_crawl(crawl_result):
    from siteone_crawler_ray.pipelines.reports import redirects_table

    res, tabs = crawl_result
    t = res.visited_table(columns=["url", "status_code", "content_type"])
    codes = set(t["status_code"].to_pylist())
    assert 301 in codes, "corpus should contain redirect docs"
    red = redirects_table(_ds(res))
    assert red.num_rows > 0
    assert all(tr.startswith("https://") or tr.startswith("/") for tr in red["target"].to_pylist())


def test_headers_and_caching_tables(crawl_result):
    from siteone_crawler_ray.pipelines.reports import caching_table, headers_inventory_table

    res, _ = crawl_result
    hdr = headers_inventory_table(_ds(res))
    names = hdr["header"].to_pylist()
    assert "content_type_header" in names and "cache_control" in names
    cache = caching_table(_ds(res))
    assert cache.num_rows > 0
    # long-lived public assets must show as cacheable
    by_type = {r["content_type"]: r for r in cache.to_pylist()}
    from siteone_crawler_ray.types import ContentType

    if ContentType.IMAGE in by_type:
        assert by_type[ContentType.IMAGE]["cacheable"] > 0


def test_redirect_parity_with_oracle(crawl_result):
    from siteone_crawler_ray.pipelines.crawl import CrawlConfig
    from siteone_crawler_ray.pipelines.oracle import run_oracle

    res, tabs = crawl_result
    cfg = CrawlConfig(fetch_concurrency=2,
                      allowed_domains_crawl=("*",), allowed_domains_static=("*",))
    orc = run_oracle(
        tabs["documents"],
        tabs["seeds"]["url"].to_pylist(),
        dict(zip(tabs["robots"]["host"].to_pylist(), tabs["robots"]["body"].to_pylist())),
        cfg,
    )
    ev = res.visited_table(columns=["url", "status_code"])
    ov = orc.visited_table()
    assert ev["url"].to_pylist() == ov["url"].to_pylist()
    assert ev["status_code"].to_pylist() == ov["status_code"].to_pylist()


def test_extra_columns_specs_and_stage(crawl_result):
    from siteone_crawler_ray.functions.extra_columns import ExtraColumnsStage, parse_extra_columns

    cols = parse_extra_columns(["Title(10)", "X-Cache", "Desc=description",
                                "Num=regexp:/page (\\d+)/#1", "DOM"])
    assert [c.kind for c in cols] == ["predefined", "header", "predefined", "regexp", "predefined"]
    assert cols[0].max_len == 10

    res, _ = crawl_result
    t = res.visited_table(columns=["url", "title", "description", "spans",
                                   "content_type_header", "cache_control", "etag",
                                   "content_encoding"])
    out = ExtraColumnsStage(["Short=Title", "Short10(10)=Title", "CT=Content-Type",
                             "PageNum=regexp:/page (\\d+)/#1"])(t)
    assert {"Short", "Short10", "CT", "PageNum"} <= set(out.schema.names)
    shorts = out["Short10"].to_pylist()
    assert all(len(s) <= 10 for s in shorts)
    cts = [c for c in out["CT"].to_pylist() if c]
    assert any("text/html" in c for c in cts)
    nums = [v for v in out["PageNum"].to_pylist() if v]
    assert nums and all(v.isdigit() for v in nums)


def test_extra_columns_xpath_and_reference_syntax():
    """Parser + extraction fixtures from extra_column.rs:236-398 (its
    inline #[test] mod): reference custom syntax, (len>) no-truncate,
    default widths, xpath subset incl. /text(), /@attr, predicates."""
    from siteone_crawler_ray.functions.extra_columns import (
        parse_extra_columns,
        xpath_extract,
    )

    # -- from_text parity -------------------------------------------------
    (c,) = parse_extra_columns(["Title"])
    assert c.kind == "predefined" and c.max_len == 20 and c.truncate  # default width
    (c,) = parse_extra_columns(["Custom(50)"])
    assert c.name == "Custom" and c.max_len == 50 and c.truncate
    (c,) = parse_extra_columns(["Wide(30>)"])
    assert c.name == "Wide" and c.max_len == 30 and not c.truncate
    (c,) = parse_extra_columns(["X=regexp:<title>(.+?)</title>#1"])
    assert c.kind == "regexp" and c.group == 1
    assert c.pattern.search("<title>Hello</title>").group(1) == "Hello"
    (c,) = parse_extra_columns(["X=xpath://h1"])
    assert c.kind == "xpath" and c.xpath == "//h1" and c.group == 0
    (c,) = parse_extra_columns(["Head=xpath://meta[@name='description']/@content#0(40>)"])
    assert c.kind == "xpath" and c.group == 0 and c.max_len == 40 and not c.truncate
    assert c.xpath == "//meta[@name='description']/@content"
    # unrecognized method falls back to a standard (header) column
    (c,) = parse_extra_columns(["X=invalid:foo"])
    assert c.kind == "header"

    # -- truncation (extra_column.rs:389-396): len-1 chars + ellipsis ------
    (c,) = parse_extra_columns(["X(3)"])
    assert c.truncated("Hello") == "He…"
    assert c.truncated("Hi") == "Hi"

    # -- xpath extraction (extra_column.rs:322-383) -------------------------
    html = "<html><body><h1>Title</h1></body></html>"
    assert xpath_extract(html, "//h1") == "Title"
    assert xpath_extract("<html><body><h1>My Heading</h1></body></html>", "//h1/text()") == "My Heading"
    html = '<html><body><a href="https://example.com">Link</a></body></html>'
    assert xpath_extract(html, "//a/@href") == "https://example.com"
    assert xpath_extract("<html><body><h1>Only H1</h1></body></html>", "//h2") is None
    # predicates, child combinator, #index
    html = (
        '<html><head><meta name="description" content="  about us  ">'
        '<meta name="keywords" content="k1"></head>'
        "<body><div><p>first</p><p>second</p></div>"
        '<ul><li class="x">a</li><li>b</li></ul></body></html>'
    )
    assert xpath_extract(html, "//meta[@name='description']/@content") == "about us"
    assert xpath_extract(html, "//meta[name='keywords']/@content") == "k1"  # @-less predicate
    assert xpath_extract(html, "//div/p", 1) == "second"
    assert xpath_extract(html, "//ul//li", 0) == "a"
    assert xpath_extract(html, "/html/body/div/p") == "first"
    assert xpath_extract(html, "//li[@class='x']") == "a"
    assert xpath_extract(html, "//div/p", 5) is None  # index out of range


def test_extra_columns_xpath_stage(crawl_result):
    from siteone_crawler_ray.functions.extra_columns import ExtraColumnsStage

    res, _ = crawl_result
    t = res.visited_table(columns=["url", "title", "description", "spans",
                                   "content_type_header", "cache_control", "etag",
                                   "content_encoding"])
    out = ExtraColumnsStage(["H1=xpath://h1", "FirstHref=xpath://a/@href"])(t)
    assert {"H1", "FirstHref"} <= set(out.schema.names)
    hrefs = [v for v in out["FirstHref"].to_pylist() if v]
    assert hrefs and all(h.startswith(("http", "/", ".", "#")) or h for h in hrefs)


def test_json_report_shape(crawl_result, tmp_path):
    import json

    import ray.data as rd

    from siteone_crawler_ray.pipelines.report_json import write_report_json

    res, _ = crawl_result
    ds = rd.from_arrow(res.visited_table())
    path = str(tmp_path / "report.json")
    report = write_report_json(res, ds, path)
    with open(path) as f:
        loaded = json.load(f)
    assert set(loaded) == {
        "crawler", "options", "results", "stats", "summary", "tables",
        "qualityScores", "extraColumnsFromAnalysis",
    }
    assert len(loaded["results"]) == res.metrics["visited"]
    assert loaded["stats"]["total_urls"] == res.metrics["visited"]
    # table rows are stringly typed (docs/JSON-OUTPUT.md:204)
    for tbl in loaded["tables"]:
        for row in tbl["rows"]:
            assert all(isinstance(v, str) for v in row.values())
    assert 0 <= loaded["qualityScores"]["total"] <= 10


def test_markdown_boilerplate_dedup():
    from siteone_crawler_ray.stages.export import aggregate_markdown, common_boilerplate

    pages = [
        "SiteHeader\nNav\n\nbody A\n\nFooter",
        "SiteHeader\nNav\n\nbody B\n\nFooter",
        "SiteHeader\nNav\n\nbody C\n\nFooter",
        "SiteHeader\nNav\n\nbody D unique\n\nFooter",
        "totally different page\nno shared lines here",
    ]
    header, footer = common_boilerplate(pages)
    assert header == ["SiteHeader", "Nav"]
    assert footer == ["Footer"]
    t = pa.table({"url": [f"https://x.test/{i}" for i in range(len(pages))],
                  "markdown": pages})
    agg = aggregate_markdown(t)
    # the shared header appears exactly once (hoisted), bodies remain
    assert agg.count("SiteHeader") == 1
    assert "body A" in agg and "body C" in agg and "totally different" in agg


def test_html_report_exporter(crawl_result, tmp_path):
    """HTML report (report.rs:91-560 analogue): one self-contained file
    with summary tiles, severity badges, quality scores and every
    SuperTable; section allowlist mirrors --html-report-options."""
    import ray.data as rd

    from siteone_crawler_ray.pipelines.report_html import write_html_report

    res, _ = crawl_result
    ds = rd.from_arrow(res.visited_table())
    path = str(tmp_path / "report.html")
    html = write_html_report(res, ds, path)
    with open(path) as f:
        saved = f.read()
    assert saved == html
    assert html.startswith("<!DOCTYPE html>")
    for section in ("Summary", "Quality scores", "content-types", "source-domains",
                    "fastest-urls", "http-headers", "visited-urls"):
        assert section in html, section
    assert f"{res.metrics['visited']} URLs" in html
    # tabbed layout (template.html mechanics): one radio + label + panel
    # per tab, pure-CSS :checked wiring, first tab checked
    n_tabs = html.count('class="tabs__radio"')
    assert n_tabs >= 10
    assert html.count('class="tabs__title') == n_tabs
    assert html.count('class="tabs__tab ') == n_tabs
    assert ':checked ~ main .tabs__tab-0' in html and 'id="tab-radio-0" name="tabs" class="tabs__radio" checked' in html
    # per-tab drill-down: each report table renders its rows inside its panel
    import re as _re

    for apl in ("content-types", "source-domains", "http-headers", "caching",
                "fastest-urls", "redirects", "404-pages"):
        m = _re.search(rf"<h2>{apl}</h2><table><thead>(.*?)</thead><tbody>(.*?)</tbody>", html)
        assert m, apl
        assert "<th>" in m.group(1), apl
    # badge rules (report.rs:1639-1810): count badges with severity colors
    assert _re.search(r'class="badge (red|orange|green|blue|neutral)"', html)
    # tab order: summary before visited-urls before content-types (report.rs:134-160)
    assert html.index(">Summary ") < html.index(">visited-urls ") < html.index(">content-types ")
    # section allowlist (report.rs:223-230)
    only = write_html_report(res, ds, str(tmp_path / "r2.html"),
                             allowed_sections=["summary", "content-types"])
    assert "content-types" in only and "source-domains" not in only
    # reference section names also work: "headers" selects http-headers
    hdr = write_html_report(res, ds, str(tmp_path / "r3.html"),
                            allowed_sections=["headers"])
    assert "http-headers" in hdr and "content-types" not in hdr
    # XSS-safety: table cells are escaped
    assert "<script" not in only.lower()


def test_format_helpers():
    """utils.rs formatting fixtures (sizes :88-103, durations :105-116,
    ages :118-137, truncation :280-344, transport codes :364-403)."""
    from siteone_crawler_ray.functions.format import (
        formatted_age,
        formatted_duration,
        formatted_size,
        status_code_str,
        truncate_in_two_thirds,
        truncate_url,
    )

    assert formatted_size(0) == "0 B"
    assert formatted_size(1023) == "1023 B"
    assert formatted_size(1024) == "1 kB"
    assert formatted_size(1536, 1) == "1.5 kB"
    assert formatted_size(5 * 1024 * 1024) == "5 MB"
    assert formatted_duration(0.25) == "250 ms"
    assert formatted_duration(1.5) == "1.5 s"
    assert formatted_duration(2.0) == "2 s"
    assert formatted_duration(42.7) == "42 s"
    assert formatted_age(30) == "30 sec(s)"
    assert formatted_age(90) == "1.5 min(s)"
    assert formatted_age(7200) == "2 hour(s)"
    assert formatted_age(172800) == "2 day(s)"
    t = truncate_in_two_thirds("abcdefghijklmnopqrstuvwxyz", 12, "~")
    assert len(t) == 12 and t.startswith("abcdefgh") and t.endswith("yz") and "~" in t
    u = truncate_url("https://h.test/very/long/path", 100, strip_hostname="h.test")
    assert u == "/very/long/path"
    assert status_code_str(-1) == "-1:CON"
    assert status_code_str(-2, short=False) == "-2:TIMEOUT"
    assert status_code_str(200) == "200"


def test_text_report_exporter(crawl_result, tmp_path):
    """TextOutput analogue (text_output.rs:57-420): banner + padded
    visited-URL table + per-analyzer ASCII sections."""
    import ray.data as rd

    from siteone_crawler_ray.pipelines.report_text import write_text_report

    res, _ = crawl_result
    ds = rd.from_arrow(res.visited_table())
    path = str(tmp_path / "report.txt")
    text = write_text_report(res, ds, path)
    with open(path) as f:
        assert f.read() == text
    assert "siteone-crawler-ray" in text
    assert "URL" in text and "| Status | Type" in text
    for section in ("=== summary", "=== content-types", "=== caching", "=== quality-scores"):
        assert section in text, section
    # every visited row rendered
    assert text.count("\n") > res.metrics["visited"]


def test_text_report_url_display_options(crawl_result, tmp_path):
    """text_output.rs:349-354 strips the origin from internal URLs unless
    --show-scheme-and-host; :429-431 two-thirds-truncates unless
    --do-not-truncate-url."""
    import ray.data as rd

    from siteone_crawler_ray.pipelines.report_text import visited_table_text

    res, _ = crawl_result
    visited = res.visited_table(
        columns=["url", "status_code", "content_type", "request_time", "size"])
    origin = visited["url"].to_pylist()[0].split("/")[2]

    default = visited_table_text(visited, origin)
    assert f"https://{origin}/" not in default  # origin stripped by default

    full = visited_table_text(visited, origin, show_scheme_and_host=True)
    assert f"https://{origin}/" in full

    # a long URL truncates by default (placeholder char) but not with the flag
    import pyarrow as pa

    long_url = f"https://{origin}/" + "x" * 300
    one = pa.table({"url": [long_url], "status_code": [200],
                    "content_type": [1], "request_time": [0.1], "size": [10]})
    assert "…" in visited_table_text(one, "")
    untrunc = visited_table_text(one, "", do_not_truncate_url=True)
    assert "…" not in untrunc and long_url in untrunc


def test_report_rows_limit(crawl_result, tmp_path):
    """super_table.rs:22,123 global hard rows limit (--rows-limit, default
    200) caps every report table; the HTML exporter disables it
    (report.rs:1206 set_ignore_hard_rows_limit)."""
    import ray.data as rd

    from siteone_crawler_ray.pipelines.report_json import build_report

    res, _ = crawl_result
    ds = rd.from_arrow(res.visited_table())
    limited = build_report(res, ds, rows_limit=2)
    assert all(len(t["rows"]) <= 2 for t in limited["tables"])
    uncapped = build_report(res, ds, rows_limit=None)
    assert max(len(t["rows"]) for t in uncapped["tables"]) > 2


def test_offline_export_options(crawl_result, tmp_path):
    """--offline-export-* option family (offline_website_exporter.rs:39-96):
    store-only regex filtering, redirect-stub suppression, URL-rewrite
    suppression, and lowercase paths."""
    import os

    from siteone_crawler_ray.cli import _export_offline

    res, tabs = crawl_result
    seeds = tabs["seeds"]["url"].to_pylist()

    def files(d):
        return sorted(os.path.relpath(os.path.join(dp, f), d)
                      for dp, _, fs in os.walk(d) for f in fs)

    base = str(tmp_path / "base")
    _export_offline(res, seeds[0], base)
    all_files = files(base)
    assert len(all_files) > 10

    only = str(tmp_path / "only")
    _export_offline(res, seeds[0], only, store_only_url_regex=(r"/p/000",))
    subset = files(only)
    assert subset and set(subset) < set(all_files)

    nostub = str(tmp_path / "nostub")
    _export_offline(res, seeds[0], nostub, no_auto_redirect_html=True)
    stubs = set(all_files) - set(files(nostub))
    for f in stubs:  # every suppressed file must be a redirect stub
        body = open(os.path.join(base, f)).read()
        assert "http-equiv" in body or "refresh" in body.lower()

    raw = str(tmp_path / "raw")
    _export_offline(res, seeds[0], raw, no_url_rewriting=True)
    # unrewritten bodies keep absolute URLs that the rewritten ones relativize
    rewritten = open(os.path.join(base, all_files[0])).read()
    unrewritten = open(os.path.join(raw, all_files[0])).read()
    assert rewritten != unrewritten or "href" not in rewritten

    lower = str(tmp_path / "lower")
    _export_offline(res, seeds[0], lower, lowercase=True)
    assert all(f == f.lower() for f in files(lower))


def test_export_file_path_decoration():
    """base_exporter.rs:18-58: default-extension append, then .host and
    .timestamp inserted before the extension."""
    from datetime import datetime

    from siteone_crawler_ray.functions.format import export_file_path

    now = datetime(2026, 8, 17, 12, 0, 1)
    assert export_file_path("report", "json") == "report.json"
    assert export_file_path("r.html", "html", add_host=True, host="a.test") == "r.a.test.html"
    assert export_file_path("r", "txt", add_host=True, host="h",
                            add_timestamp=True, now=now) == "r.h.2026-08-17.12-00-01.txt"
    # an 11+-char suffix is not an extension (regex caps at 10)
    assert export_file_path("x.verylongextension", "txt") == "x.verylongextension.txt"


def test_cli_end_to_end(ray_session, tmp_path):
    """CLI main path (main.rs:7-67 / manager.rs:57-465 analogue):
    crawl → exporters → reports → exit code."""
    import json
    import os

    from siteone_crawler_ray.cli import main
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    tabs = make_graph_corpus(seed=21, hosts=2, total_pages=120)
    cp = str(tmp_path / "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    with open(os.path.join(cp, "robots.json"), "w") as f:
        json.dump(dict(zip(tabs["robots"]["host"].to_pylist(),
                           tabs["robots"]["body"].to_pylist())), f)
    out = tmp_path / "out"
    out.mkdir()
    rc = main([
        "--url", tabs["seeds"]["url"].to_pylist()[0],
        "--corpus", cp,
        "--workdir", str(tmp_path / "work"),
        "--allowed-domain", "*",
        "--workers", "2",
        "--extra-columns", "Title(30),Etag,P1=xpath://p/text()(40)",
        "--output-json-file", str(out / "report.json"),
        "--output-text-file", str(out / "report.txt"),
        "--output-html-file", str(out / "report.html"),
        "--fastest-urls-top-limit", "5",
        "--slowest-urls-top-limit", "5", "--slowest-urls-min-time", "0",
        "--max-skipped-urls", "3",
        "--result-storage-compression", "gzip",
        "--sitemap-xml-file", str(out / "sitemap.xml"),
        "--sitemap-txt-file", str(out / "sitemap"),
        "--sitemap-base-priority", "0.7", "--sitemap-priority-increase", "0.2",
        "--offline-export-dir", str(out / "offline"),
        "--markdown-aggregate-file", str(out / "site.md"),
        "--markdown-export-dir", str(out / "md"),
        "--markdown-disable-images",
        "--markdown-replace-content", "/Page/ -> Pg",
        "--mail-to", "dev@example.com",
        "--mail-outbox-dir", str(out / "outbox"),
        "--upload", "--upload-password", " s3cret ",
        "--upload-outbox-dir", str(out / "upload"),
    ], init_ray=False)
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["stats"]["total_urls"] > 0
    # --extra-columns flows into the per-result extras objects
    # (json_output.rs:105-131) and extraColumnsFromAnalysis
    assert rep["extraColumnsFromAnalysis"][-2:] == ["Etag", "P1"]
    extras_rows = [r["extras"] for r in rep["results"]]
    assert all(set(e) == {"Title", "Etag", "P1"} for e in extras_rows)
    assert any(e["Title"] for e in extras_rows)
    assert any(e["P1"] for e in extras_rows)
    txt = (out / "report.txt").read_text()
    assert "siteone-crawler-ray" in txt
    # extra columns widen the visited table header (text_output.rs:76-84)
    assert "| Etag" in txt and "| P1" in txt
    assert (out / "report.html").read_text().startswith("<!DOCTYPE html>")
    xml = (out / "sitemap.xml").read_text()
    assert "<urlset" in xml
    # --sitemap-base-priority .7 / increase .2: the /p/NNNNN pages carry
    # 2 path slashes → priority .7+.2·(1−2) = 0.5 (defaults would give 0.4)
    assert "<priority>0.5</priority>" in xml and "<priority>0.4</priority>" not in xml
    # txt sitemap (.txt extension enforced) mirrors the XML loc list
    txt_sm = (out / "sitemap.txt").read_text().splitlines()
    assert len(txt_sm) == xml.count("<loc>") and txt_sm[0].startswith("http")
    # speed-report knobs flow through the shared table cache
    by_name = {t["aplCode"]: t for t in rep["tables"]}
    assert len(by_name["fastest-urls"]["rows"]) <= 5
    assert sum(int(r["n"]) for r in by_name["skipped-urls"]["rows"]) <= 3
    # gzip-compressed visited parts remain readable parquet
    import pyarrow.parquet as _pq

    part = next(
        os.path.join(dp, f)
        for dp, _, fs in os.walk(tmp_path / "work" / "visited") for f in fs
        if f.endswith(".parquet")
    )
    assert _pq.ParquetFile(part).metadata.row_group(0).column(0).compression in ("GZIP",)
    # offline export wrote rewritten page files
    offline_files = [os.path.join(dp, f) for dp, _, fs in os.walk(out / "offline") for f in fs]
    assert len(offline_files) > 10
    html0 = open(next(f for f in offline_files if f.endswith(".html"))).read()
    assert "<a " not in html0 or 'href="' in html0
    agg = (out / "site.md").read_text()
    assert agg.strip()
    # --markdown-disable-images stripped every image; --markdown-replace-content
    # (regex form) rewrote the page titles
    md_files = [os.path.join(dp, f) for dp, _, fs in os.walk(out / "md") for f in fs]
    assert md_files
    joined = agg + "".join(open(f).read() for f in md_files)
    assert "![" not in joined
    assert "Pg " in joined and "Page " not in joined
    # mailer exporter (manager.rs:585-612): one .eml per recipient with
    # the HTML report attached under report-<host>-<ts>.html
    import email as email_lib

    from siteone_crawler_ray.pipelines.delivery import decode_upload_form

    eml_files = list((out / "outbox").iterdir())
    assert len(eml_files) == 1
    msg = email_lib.message_from_bytes(eml_files[0].read_bytes())
    assert msg["To"] == "dev@example.com"
    assert "Crawler Report for" in msg["Subject"]
    parts = list(msg.walk())
    attachment = next(p for p in parts if p.get_filename())
    assert attachment.get_filename().startswith("report-")
    assert attachment.get_payload(decode=True).decode() == (out / "report.html").read_text()
    # upload exporter (manager.rs:614-634): form body round-trips to the
    # same HTML, password trimmed, metadata fields present
    form = decode_upload_form((out / "upload" / "upload-body.txt").read_text())
    assert form["htmlBody"].decode() == (out / "report.html").read_text()
    assert form["password"] == b"s3cret"
    assert {"version", "platform", "arch", "retention"} <= set(form)
    # CI gate failure path → exit 10
    rc10 = main([
        "--url", tabs["seeds"]["url"].to_pylist()[0],
        "--corpus", cp, "--workdir", str(tmp_path / "work2"),
        "--allowed-domain", "*", "--workers", "2",
        "--min-quality-score", "11.0",
    ], init_ray=False)
    assert rc10 == 10
    # full --ci gate over the finished crawl (--resume re-enters without
    # re-crawling): permissive thresholds pass + write a JUnit report …
    common = ["--url", tabs["seeds"]["url"].to_pylist()[0],
              "--corpus", cp, "--workdir", str(tmp_path / "work"),
              "--allowed-domain", "*", "--workers", "2",
              "--result-storage-compression", "gzip", "--resume", "--ci"]
    rc_ci = main(common + [
        "--ci-min-score", "0", "--ci-max-404", "100000",
        "--ci-max-criticals", "100000", "--ci-min-pages", "1",
        "--ci-min-assets", "0", "--ci-junit-file", str(out / "junit.xml"),
    ], init_ray=False)
    assert rc_ci == 0
    junit = (out / "junit.xml").read_text()
    assert junit.startswith('<?xml version="1.0"')
    assert 'failures="0"' in junit and 'classname="ci-gate"' in junit
    # … and an impossible threshold fails with exit 10
    rc_ci10 = main(common + ["--ci-min-score", "10.5", "--ci-max-404", "100000",
                             "--ci-max-criticals", "100000",
                             "--ci-min-pages", "1", "--ci-min-assets", "0"],
                   init_ray=False)
    assert rc_ci10 == 10
    # legacy thresholds fold into --ci instead of being silently ignored
    # (ADVICE r3): permissive --ci-* + impossible --min-quality-score → 10
    rc_fold = main(common + ["--ci-min-score", "0", "--ci-max-404", "100000",
                             "--ci-max-criticals", "100000",
                             "--ci-min-pages", "1", "--ci-min-assets", "0",
                             "--min-quality-score", "11.0"],
                   init_ray=False)
    assert rc_fold == 10


def test_cli_timezone_sets_tz(tmp_path):
    """--timezone sets TZ before timestamps render (main.rs:15-33)."""
    import os
    import time

    from siteone_crawler_ray.cli import main

    old = os.environ.get("TZ")
    try:
        src = tmp_path / "x.html"
        src.write_text("<p>x</p>")
        rc = main(["--timezone", "Pacific/Kiritimati",
                   "--html-to-markdown", str(src),
                   "--html-to-markdown-output", str(tmp_path / "x.md")],
                  init_ray=False)
        assert rc == 0
        assert os.environ["TZ"] == "Pacific/Kiritimati"
        assert time.strftime("%z") == "+1400"
    finally:
        if old is None:
            os.environ.pop("TZ", None)
        else:
            os.environ["TZ"] = old
        time.tzset()


def test_markdown_export_store_only_and_error_tolerance(crawl_result, tmp_path):
    """--markdown-export-store-only-url-regex filters pages;
    --markdown-ignore-store-file-error logs and continues."""
    import os

    from siteone_crawler_ray.cli import _export_markdown

    res, _ = crawl_result
    full = tmp_path / "all"
    _export_markdown(res, str(full), None)
    all_files = sorted(str(p.relative_to(full))
                       for p in full.rglob("*") if p.is_file())

    only = tmp_path / "only"
    _export_markdown(res, str(only), None, store_only_url_regex=(r"/p/000",))
    subset = sorted(str(p.relative_to(only))
                    for p in only.rglob("*") if p.is_file())
    assert subset and set(subset) < set(all_files)

    # unwritable target dir: ignore-store-file-error continues, default raises
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    os.chmod(blocked, 0o500)
    try:
        if os.getuid() != 0:  # root ignores modes; only meaningful unprivileged
            import pytest as _pytest

            with _pytest.raises(OSError):
                _export_markdown(res, str(blocked / "sub"), None)
        _export_markdown(res, str(blocked / "sub"), None,
                         ignore_store_file_error=True)
    finally:
        os.chmod(blocked, 0o700)


def test_extra_columns_length_suffix_ambiguity_and_escape_hatch():
    """ADVICE r3: a trailing (digits) always parses as a length suffix
    (with a warning); the legacy /…/ wrapping expresses a pattern that
    genuinely ends in (digits)."""
    import warnings

    from siteone_crawler_ray.functions.extra_columns import parse_extra_columns

    (c,) = parse_extra_columns(["X=regexp:/foo(12)/"])
    assert c.pattern.pattern == "foo(12)" and c.max_len is None
    (c,) = parse_extra_columns(["X=regexp:/foo(12)/#1(20)"])
    assert c.pattern.pattern == "foo(12)" and c.group == 1 and c.max_len == 20
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        (c,) = parse_extra_columns(["X=regexp:foo(12)"])
        assert c.pattern.pattern == "foo" and c.max_len == 12
        assert any("length" in str(x.message) for x in w)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        parse_extra_columns(["X=regexp:/price (\\d+)/#1"])
        assert not w  # wrapped + no suffix → quiet


def test_html_report_renders_extra_columns(crawl_result):
    """ADVICE r3: --extra-columns values must appear in the HTML
    visited-urls tab (one real column per extra), and the empty-array
    sentinel column disappears when no extras are configured."""
    import pyarrow as pa

    from siteone_crawler_ray.pipelines.report_html import render_html_report
    from siteone_crawler_ray.pipelines.report_json import build_report

    res, _ = crawl_result
    visited_ds = res.visited_ds()
    urls = res.visited_table(columns=["url"])["url"].to_pylist()
    extras = pa.table({"url": urls,
                       "MyCol": [f"val-{i}" for i in range(len(urls))]})
    html = render_html_report(
        build_report(res, visited_ds, extras_table=extras, rows_limit=None))
    assert "<th>MyCol</th>" in html and "<td>val-0</td>" in html
    assert "<th>extras</th>" not in html
    html2 = render_html_report(build_report(res, visited_ds, rows_limit=None))
    assert "<th>extras</th>" not in html2 and "<td>[]</td>" not in html2


def test_config_file_merge_and_option_aliases(tmp_path, monkeypatch):
    """--config-file: one option per line, # comments, BOM stripped,
    CLI args override (core_options.rs merge semantics); --include-regexp
    /--ignore-regexp/--allowed-domain-for-crawling parse as aliases."""
    from siteone_crawler_ray.cli import _merge_config_args, build_parser

    monkeypatch.delenv("HOME", raising=False)
    conf = tmp_path / "c.conf"
    conf.write_text("﻿--workers=5\n# comment\n\n--max-reqs-per-sec=20\n")
    merged = _merge_config_args([f"--config-file={conf}", "--workers", "9"])
    assert merged == ["--workers=5", "--max-reqs-per-sec=20", "--workers", "9"]
    args = build_parser().parse_args(merged + ["--url", "https://a.test/"])
    assert args.workers == 9  # CLI overrides config
    assert args.max_reqs_per_sec == 20.0
    # two-token form + no config file → argv unchanged
    assert _merge_config_args(["--config-file", str(conf)])[:1] == ["--workers=5"]
    assert _merge_config_args(["--url", "x"]) == ["--url", "x"]

    args = build_parser().parse_args([
        "--include-regexp", r"\.html$", "--ignore-regexp", r"/private/",
        "--allowed-domain-for-crawling", "*.a.test",
        "--user-agent", "MyBot/1.0",
    ])
    assert args.include_regex == [r"\.html$"]
    assert args.ignore_regex == [r"/private/"]
    assert args.allowed_domain == ["*.a.test"]
    assert args.user_agent == "MyBot/1.0"

    import pytest as _pytest
    with _pytest.raises(SystemExit) as e:
        build_parser().parse_args(["--version"])
    assert e.value.code == 0


def test_replace_query_string_rules():
    """--replace-query-string: plain and /regex/ rules rewrite the query
    filename component (then '/'→'~') instead of md5-hashing it
    (offline_url_converter.rs:475-516)."""
    from siteone_crawler_ray.functions.offline import (
        convert_url_to_relative,
        query_component,
        query_hash,
    )

    assert query_component("a=1&b=2") == query_hash("a=1&b=2")  # no rules → hash
    assert query_component("a=1&b=2", ("a=1 -> x",)) == "x&b=2"
    assert query_component("page=3/sub", ("/page=\\d+/ -> p",)) == "p~sub"
    rel = convert_url_to_relative(
        "https://w.test/", "https://w.test/", "https://w.test/p?page=3",
        replace_query_string=("/page=(\\d+)/ -> pg\\1",))
    assert rel == "p.pg3.html", rel
    hashed = convert_url_to_relative("https://w.test/", "https://w.test/",
                                     "https://w.test/p?page=3")
    assert hashed != rel and ".html" in hashed


def test_markdown_remove_links_and_images_from_single_file():
    """Aggregated single file strips linked/standalone images,
    link-only list items and empty links (markdown_site_aggregator.rs:
    359-398)."""
    import pyarrow as pa

    from siteone_crawler_ray.stages.export import (
        aggregate_markdown,
        remove_links_and_images,
    )

    md = ("# T\n\n[![logo](/l.png)](/home)\n\n![pic](/p.jpg \"cap\")\n\n"
          "* [nav](/a)\n* keep me\n\npara [text link](/b) stays text? no — "
          "only empty links go: [](/c)\n")
    out = remove_links_and_images(md)
    assert "![" not in out and "](/l.png)" not in out
    assert "* keep me" in out and "[nav](/a)" not in out
    assert "[](/c)" not in out
    assert "[text link](/b)" in out  # normal inline links survive
    t = pa.table({"url": ["https://a.test/x"], "markdown": [md]})
    agg = aggregate_markdown(t, remove_links_images=True)
    assert "![" not in agg and "<!-- https://a.test/x -->" in agg
    assert "![" in aggregate_markdown(t)  # default unchanged


def test_offline_replace_content_cli(ray_session, tmp_path):
    """--replace-content rewrites stored offline bodies (plain and
    /regex/ rules) before write."""
    import json
    import os

    from siteone_crawler_ray.cli import main
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    tabs = make_graph_corpus(seed=3, hosts=1, total_pages=40)
    cp = str(tmp_path / "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=2)
    with open(os.path.join(cp, "robots.json"), "w") as f:
        json.dump({}, f)
    out = tmp_path / "offline"
    rc = main([
        "--url", tabs["seeds"]["url"].to_pylist()[0],
        "--corpus", cp, "--workdir", str(tmp_path / "work"),
        "--workers", "2",
        "--offline-export-dir", str(out),
        "--replace-content", "data span -> DATA-SPAN",
        "--replace-content", "/crawl\\w*/ -> CRWL",
    ], init_ray=False)
    assert rc == 0
    bodies = "".join(
        open(os.path.join(dp, f)).read()
        for dp, _, fs in os.walk(out) for f in fs if f.endswith(".html")
    )
    assert "DATA-SPAN" in bodies and "data span" not in bodies
    assert "CRWL" in bodies and "crawl" not in bodies


def test_debug_log_file_and_url_regex(ray_session, tmp_path):
    """--debug-log-file writes timestamped per-URL lines;
    --debug-url-regex restricts to matching URLs."""
    import json
    import os

    from siteone_crawler_ray.cli import main
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    tabs = make_graph_corpus(seed=3, hosts=1, total_pages=40)
    cp = str(tmp_path / "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=2)
    with open(os.path.join(cp, "robots.json"), "w") as f:
        json.dump({}, f)
    log = tmp_path / "debug.log"
    rc = main([
        "--url", tabs["seeds"]["url"].to_pylist()[0],
        "--corpus", cp, "--workdir", str(tmp_path / "work"),
        "--workers", "2",
        "--debug-log-file", str(log),
        "--debug-url-regex", r"/p/0000[12]",
    ], init_ray=False)
    assert rc == 0
    lines = log.read_text().splitlines()
    assert lines and all("| visited-url" in ln for ln in lines)
    assert all("/p/0000" in ln for ln in lines)
    assert not any("/p/00005" in ln for ln in lines)


def test_output_json_prints_report_to_stdout(ray_session, tmp_path, capsys):
    """--output json: the full report JSON lands on stdout
    (output/json_output.rs behavior); default text mode stays quiet."""
    import json
    import os

    from siteone_crawler_ray.cli import main
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    tabs = make_graph_corpus(seed=3, hosts=1, total_pages=30)
    cp = str(tmp_path / "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=2)
    with open(os.path.join(cp, "robots.json"), "w") as f:
        json.dump({}, f)
    rc = main(["--url", tabs["seeds"]["url"].to_pylist()[0],
               "--corpus", cp, "--workdir", str(tmp_path / "work"),
               "--workers", "2", "--output", "json"],
              init_ray=False)
    assert rc == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["stats"]["total_urls"] > 0 and "results" in rep


def test_analyzer_filter_regex_limits_report_tables(ray_session, tmp_path, capsys):
    """--analyzer-filter-regex (core_options.rs analyzer filter): only
    SuperTables whose aplCode matches appear — the skipped aggregations
    never run (reference parity: a filtered analyzer is not
    instantiated)."""
    import json
    import os

    from siteone_crawler_ray.cli import main
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    tabs = make_graph_corpus(seed=8, hosts=1, total_pages=40)
    cp = str(tmp_path / "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=2)
    with open(os.path.join(cp, "robots.json"), "w") as f:
        json.dump({}, f)
    out = tmp_path / "report.json"
    rc = main(["--url", tabs["seeds"]["url"].to_pylist()[0],
               "--corpus", cp, "--workdir", str(tmp_path / "work"),
               "--workers", "2",
               "--analyzer-filter-regexp", "content-types|caching",
               "--output-json-file", str(out)],
              init_ray=False)
    assert rc == 0
    rep = json.loads(out.read_text())
    codes = sorted(t["aplCode"] for t in rep["tables"])
    assert codes == ["caching", "content-types"]
