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
    cfg = CrawlConfig(num_shards=4, force_relative_urls=True)
    res = EpochCrawler(cp, seeds, robots, str(tmp_path / "work"), cfg).run()
    orc = run_oracle(tabs["documents"], seeds, robots, cfg)
    assert res.visited_table(columns=["url"])["url"].to_pylist() == [
        v["url"] for v in orc.visited
    ]
    assert np.array_equal(
        np.sort(res.seen_keys),
        np.sort(np.fromiter(orc.seen_keys, dtype=np.uint64)),
    )


def test_gauntlet_vectorized_decide_matches_scalar():
    """`CandidateGauntlet._decide` (unique-pair vectorized) must be
    element-wise identical to `_decide_rows` (the scalar reference
    loop) across href shapes: path-absolute, protocol-relative,
    absolute (mixed case), bare-relative, dot-relative, fragments,
    unrequestable schemes, foreign hosts, robots-blocked paths,
    depth overflow and a basename blocklist hit."""
    import numpy as np
    import pyarrow as pa

    robots = RobotsIndex.from_bodies({
        "example.com": "User-agent: *\nDisallow: /private/\n",
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
    ]
    n = len(hrefs)
    rng = np.random.default_rng(3)
    sources = [
        ["https://example.com/", "https://example.com/sub/dir/page.html",
         "https://example.com/other/"][rng.integers(0, 3)]
        for _ in range(n)
    ]
    kinds = [["link", "img", "script"][rng.integers(0, 3)] for _ in range(n)]
    depths = rng.integers(0, 6, size=n).astype(np.int32)

    def mk():
        g = CandidateGauntlet(
            robots, "example.com",
            allowed_domains_static=("static.*",),
            max_depth=4, remove_query_params=False,
        )
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
    u1, s1, t1, r1 = mk()._decide(batch)
    u2, s2, t2, r2 = mk()._decide_rows(batch)
    assert list(t1) == list(t2)
    assert list(r1) == list(r2)
    kept = [i for i in range(n) if t1[i]]
    assert [u1[i] for i in kept] == [u2[i] for i in kept]
    assert [s1[i] for i in kept] == [s2[i] for i in kept]
    # at least one row of each decision class actually occurred
    assert {"", "skip", "ok"} <= set(t1)
