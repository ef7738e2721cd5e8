"""<base href> resolution + --force-relative-urls folding — fixtures
ported from the reference's unit tests
(/root/reference/src/engine/crawler.rs:1905-2130)."""

from __future__ import annotations

import pytest

from siteone_crawler_ray.functions import urls as U
from siteone_crawler_ray.functions.html_extract import detect_base_href, html_extract_batch
from siteone_crawler_ray.stages.extract import CandidateGauntlet
from siteone_crawler_ray.functions.robots import RobotsIndex


# crawler.rs:1913-1958 — base href regex forms
@pytest.mark.parametrize("html,expected_base", [
    ('<html><head><base href="https://example.com/subdir/"></head></html>',
     "https://example.com/subdir/"),
    ("<html><head><base href='https://example.com/'></head></html>", "https://example.com/"),
    ("<base href=https://example.com/dir/>", "https://example.com/dir/"),
    ('<base href="/subdir/">', "https://page.test/subdir/"),
    ('<BASE HREF="https://example.com/">', "https://example.com/"),
    ('<base target="_blank" href="https://example.com/app/">', "https://example.com/app/"),
])
def test_base_href_forms(html, expected_base):
    assert detect_base_href(html, "https://page.test/a/b") == expected_base


def test_base_href_absent_or_invalid_keeps_page_url():
    page = "https://page.test/a/b"
    assert detect_base_href("<html><head><title>No base</title></head></html>", page) == page
    # non-URL-looking href → ignored (crawler.rs:969-978)
    assert detect_base_href('<base href="subdir/">', page) == page


def test_html_extract_batch_emits_effective_base():
    import pyarrow as pa

    batch = pa.table({
        "url": ["https://page.test/deep/page"],
        "body": ['<base href="https://page.test/other/"><a href="x.html">l</a>'],
    })
    out = html_extract_batch(batch)
    rows = {h: b for h, b in zip(out["href"].to_pylist(), out["base_url"].to_pylist())}
    assert rows["x.html"] == "https://page.test/other/"
    # resolving against the base gives /other/x.html, not /deep/x.html
    assert U.canonicalize("x.html", rows["x.html"]) == "https://page.test/other/x.html"


# crawler.rs:2088-2130 — normalize_url_to_initial
@pytest.mark.parametrize("initial,url,expected", [
    ("https://example.com/", "https://www.example.com/page", "https://example.com/page"),
    ("https://www.example.com/", "https://example.com/page", "https://www.example.com/page"),
    ("https://example.com/", "http://example.com/page", "https://example.com/page"),
    ("https://example.com/", "http://www.example.com/page", "https://example.com/page"),
    ("https://example.com/", "https://other.com/page", "https://other.com/page"),
])
def test_normalize_url_to_initial(initial, url, expected):
    from urllib.parse import urlsplit

    sp = urlsplit(initial)
    assert U.normalize_url_to_initial(url, sp.scheme, sp.hostname) == expected


def test_gauntlet_force_relative_folds_seen_keys():
    """www/scheme variants of the seed host fold to ONE canonical URL
    (and therefore one url_key) when force_relative_urls is on."""
    import pyarrow as pa

    def run(force):
        g = CandidateGauntlet(
            RobotsIndex.from_bodies({}), "example.com",
            allowed_domains_crawl=("*",),
            force_relative_urls=force, initial_url="https://example.com/",
        )
        batch = pa.table({
            "href": ["https://www.example.com/a", "http://example.com/a",
                     "https://example.com/a"],
            "norm_href": ["https://www.example.com/a", "http://example.com/a",
                          "https://example.com/a"],
            "kind": ["link"] * 3,
            "source_url": ["https://example.com/"] * 3,
            "source_uq_id": ["s"] * 3,
            "source_seq": pa.array([0, 0, 0], pa.int64()),
            "source_wavepos": pa.array([0, 0, 0], pa.int64()),
            "source_attr": pa.array([10, 10, 10], pa.int8()),
            "extract_idx": pa.array([0, 1, 2], pa.int64()),
            "depth": pa.array([1, 1, 1], pa.int32()),
        })
        out = g(batch)
        ok = out.filter(pa.compute.equal(out["tag"], "ok"))
        return set(ok["url"].to_pylist())

    folded = run(True)
    assert folded == {"https://example.com/a"}
    unfolded = run(False)
    assert len(unfolded) == 3


def test_engine_oracle_parity_with_force_relative(tmp_path, ray_session):
    """Engine and sequential oracle stay identical with the flag on."""
    import numpy as np

    from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
    from siteone_crawler_ray.pipelines.oracle import run_oracle
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    tabs = make_graph_corpus(seed=17, hosts=3, total_pages=150)
    cp = str(tmp_path / "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    robots = dict(zip(tabs["robots"]["host"].to_pylist(), tabs["robots"]["body"].to_pylist()))
    seeds = tabs["seeds"]["url"].to_pylist()
    cfg = CrawlConfig(force_relative_urls=True)
    res = EpochCrawler(cp, seeds, robots, str(tmp_path / "work"), cfg).run()
    orc = run_oracle(tabs["documents"], seeds, robots, cfg)
    assert res.visited_table(columns=["url"])["url"].to_pylist() == [
        v["url"] for v in orc.visited
    ]
    assert np.array_equal(
        np.sort(res.seen_keys),
        np.sort(np.fromiter(orc.seen_keys, dtype=np.uint64)),
    )


@pytest.mark.parametrize("cfg", [
    {},
    {"remove_query_params": True},
    {"keep_query_params": ("q",)},
    {"include_regex": (r"/a/|rel",), "regex_filtering_only_for_pages": True},
    {"ignore_regex": ("secret",), "transform_url": ("example.com -> example.net",)},
    {"force_relative_urls": True, "initial_url": "https://www.example.com/"},
    {"ignore_robots_txt": True, "max_url_length": 60},
])
def test_gauntlet_call_matches_scalar_reference(cfg):
    """`CandidateGauntlet.__call__` (Arrow column kernels + per-pair
    fallback) must return exactly the table built from `_decide_rows`
    (the scalar reference loop), row for row and column for column,
    across href shapes: path-absolute, protocol-relative, absolute
    (mixed case), bare-relative, dot-relative, fragments, ports,
    userinfo, non-ASCII, encodings, params, dot segments, odd bases,
    unrequestable schemes, foreign hosts, robots-blocked paths (incl. a
    `$`+`*` rule), depth overflow, over-length URLs and a basename
    blocklist hit — under each config feature that has no kernel."""
    import numpy as np
    import pyarrow as pa

    robots = RobotsIndex.from_bodies({
        "example.com": ("User-agent: *\nDisallow: /private/\nDisallow: /*.bin$\n"
                        "Disallow: /a*z\nAllow: /a/ok\nDisallow: /Ünï\n"),
        "cdn.example.com": "User-agent: *\nDisallow: /\n",
    })
    hrefs = [
        "/a/b.html", "//cdn.example.com/lib.js", "https://example.com/x",
        "HTTPS://EXAMPLE.COM/Y", "img/logo.png", "./rel.html",
        "#frag", "mailto:x@y.z", "javascript:void(0)",
        "https://foreign.org/p", "https://static.foreign.org/s.css",
        "/private/secret.html", "deep.html", "/a//double.html",
        "page.html?q=1&r=2", "/q?", "x.html;p=1", "",
        "/exact-dup.html", "/exact-dup.html", "notfound.bin",
        # ports: explicit, default, zero-padded, out of range
        "http://example.com:8080/p", "https://example.com:443/p",
        "http://example.com:80/p", "https://example.com:0443/p",
        "https://example.com:70000/p", "HTTP://Example.COM:8080/Q#f",
        # userinfo, non-ASCII hosts and paths
        "https://user:pw@example.com/u", "https://exämple.com/p",
        "https://example.com/pä/ß", "/Ünïcode/path", "ünï/rel",
        # %, ; and dot segments
        "/a%20b", "/p;x", "/p;", "/x/./y", "/x/../y", "../up.html", "./",
        "a/./b", ".hidden", "https://example.com/a?x=1&", "sub//x.html", "./a//b",
        # robots rules: $+* (scalar matcher), * prefix, allow override
        "/dir/file.bin", "/dir/file.bin?x", "/abcz", "/a/ok/z",
        # static files bypass robots; "ſ" case-folds to "s" in RE2 but
        # str.lower() keeps it, so ".xlſ" is not a static extension
        "/private/doc.PDF", "/private/sheet.xlſ", "/private/clip.mKv",
        # over-length URL
        "/" + "long/" * 500,
    ]
    n = len(hrefs)
    rng = np.random.default_rng(3)
    bases = [
        "https://example.com/", "https://example.com/sub/dir/page.html",
        "https://example.com/other/", "https://example.com/q/page?x=1&y=/z",
        "https://example.com/a//b/page", "https://example.com/d;p/page",
        "http://example.com:8080/port/page", "HTTPS://EXAMPLE.COM/up/",
        "https://example.com/%7Euser/page",
    ]
    sources = [bases[i] for i in rng.integers(0, len(bases), size=n)]
    kinds = [["link", "img", "script"][i] for i in rng.integers(0, 3, size=n)]
    depths = rng.integers(0, 6, size=n).astype(np.int32)

    def mk():
        kw = dict(allowed_domains_static=("static.*",), max_depth=4)
        kw.update(cfg)
        g = CandidateGauntlet(robots, "example.com", **kw)
        g.basename_blocklist = frozenset({"exact-dup.html"})
        return g

    batch = pa.table({
        "href": hrefs, "norm_href": hrefs, "kind": kinds,
        "source_url": sources, "source_uq_id": ["s"] * n,
        "source_seq": pa.array(np.zeros(n, np.int64)),
        "source_wavepos": pa.array(np.arange(n, dtype=np.int64)),
        "source_attr": pa.array(np.full(n, 10, np.int8)),
        "extract_idx": pa.array(np.zeros(n, np.int64)),
        "depth": pa.array(depths),
    })
    got = mk()(batch)
    want = mk()._call_rows(batch)
    assert got.schema == want.schema
    for name in got.column_names:
        assert got[name].to_pylist() == want[name].to_pylist(), name
    # every decision class occurred, and both paths were exercised
    tags = set(got["tag"].to_pylist())
    assert {"skip", "ok"} <= tags and got.num_rows < n
    g = mk()
    g(batch)
    assert 0 < g.last_fallback_rows < n
