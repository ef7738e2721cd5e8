"""Report-table battery over a real crawl's visited dataset."""

import os

import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def crawl(tmp_path_factory, ray_session):
    from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    tmp = str(tmp_path_factory.mktemp("crawlrep"))
    tabs = make_graph_corpus(seed=21, hosts=3, total_pages=250, out_degree=5)
    cp = os.path.join(tmp, "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    seeds = tabs["seeds"]["url"].to_pylist()
    robots = dict(zip(tabs["robots"]["host"].to_pylist(), tabs["robots"]["body"].to_pylist()))
    res = EpochCrawler(cp, seeds, robots, os.path.join(tmp, "work"),
                       CrawlConfig()).run()
    import ray.data as rd

    ds = rd.read_parquet(res.visited_dir, file_extensions=["parquet"])
    return res, ds, tabs


def test_basic_stats_and_counts(crawl):
    from siteone_crawler_ray.pipelines import reports

    res, ds, _ = crawl
    bs = reports.basic_stats(ds)
    assert bs["total_urls"][0].as_py() == res.metrics["visited"]
    assert bs["min_time"][0].as_py() <= bs["p90_time"][0].as_py() <= bs["max_time"][0].as_py()
    cbs = reports.count_by_status(ds)
    assert sum(cbs["n"].to_pylist()) == res.metrics["visited"]
    ct = reports.content_type_table(ds)
    assert ct.num_rows >= 2  # html + assets


def test_topk_and_uniqueness(crawl):
    from siteone_crawler_ray.pipelines import reports

    _, ds, _ = crawl
    fast = reports.fastest_table(ds, k=5)
    slow = reports.slowest_table(ds, k=5)
    assert fast.num_rows == 5 and slow.num_rows == 5
    ft = fast["request_time"].to_pylist()
    st = slow["request_time"].to_pylist()
    assert ft == sorted(ft) and st == sorted(st, reverse=True)
    assert min(ft) <= max(st)
    tu = reports.title_uniqueness_table(ds)
    assert all(n > 1 for n in tu["n"].to_pylist())


def test_domains_404_skips_sitemap(crawl):
    from siteone_crawler_ray.pipelines import reports

    res, ds, tabs = crawl
    sd = reports.source_domains_table(ds)
    assert sd.num_rows >= 1
    p404 = reports.page404_table(ds)
    assert p404.num_rows >= 0
    sk = reports.skipped_by_reason_table(res.skipped)
    assert sum(sk["n"].to_pylist()) == res.skipped.num_rows
    sm = reports.sitemap_urls(ds)
    sl = sm["slashes"].to_pylist()
    assert sl == sorted(sl)
    assert all(0.1 <= p <= 1.0 for p in sm["priority"].to_pylist())
    out = os.path.join(res.workdir, "sitemap.xml")
    reports.write_sitemap_xml(sm, out)
    txt = open(out).read()
    assert txt.startswith('<?xml version="1.0"') and "<urlset" in txt


def test_external_links_and_findings(crawl):
    import ray.data as rd

    from siteone_crawler_ray.pipelines import reports

    res, ds, tabs = crawl
    corpus_ds = rd.from_arrow(tabs["documents"])
    ext = reports.external_links_table(corpus_ds, "site-000.test")
    assert ext.num_rows > 0
    assert all(";" not in e or len(e.split(";")) <= 5 for e in ext["examples"].to_pylist())
    pf = reports.page_findings(ds)
    assert sum(pf["n"].to_pylist()) == res.metrics["visited"]


def test_distributed_exact_rank(ray_session):
    """Histogram-bisection rank selection equals the in-memory sort at
    every rank, including the forced large-input path."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from siteone_crawler_ray.functions.agg import (
        distributed_nearest_rank_percentile,
        exact_rank_value,
    )

    rng = np.random.default_rng(4)
    vals = np.round(rng.random(5000) * 0.1, 5)  # request-time-like
    t = pa.table({"x": pa.array(vals)})
    ds = rd.from_arrow([t.slice(i, 500) for i in range(0, 5000, 500)])
    v_sorted = np.sort(vals)
    for rank in (0, 1, 2499, 4498, 4999):
        # forced histogram path (collect_threshold=1)
        got = exact_rank_value(ds, "x", rank, collect_threshold=1)
        assert got == v_sorted[rank], rank
    # nearest-rank percentile formula matches the reference kernel
    import math

    rank = int(math.floor(0.9 * (len(vals) - 1) + 0.5))
    p = distributed_nearest_rank_percentile(ds, "x", 90, collect_threshold=1)
    assert p == v_sorted[rank]


def test_text_report_hide_columns_and_url_width():
    """--hide-columns / --url-column-size (text_output.rs:119,153-175)."""
    import pyarrow as pa

    from siteone_crawler_ray.pipelines.report_text import visited_table_text

    visited = pa.table({
        "url": pa.array(["https://h.test/page-one", "https://h.test/x"]),
        "status_code": pa.array([200, 404]),
        "content_type": pa.array([1, 0]),
        "request_time": pa.array([0.05, 0.01]),
        "size": pa.array([1000, 0]),
    })
    full = visited_table_text(visited)
    assert "Status" in full and "Size" in full
    hidden = visited_table_text(visited, hide_columns=("status", "Size"))
    head = hidden.splitlines()[0]
    assert "Status" not in head and "Size" not in head
    assert "Type" in head and "Time" in head
    wide = visited_table_text(visited, url_column_size=120)
    assert wide.splitlines()[0].index("| Type") > 100
    # cap at 184 like the reference
    capped = visited_table_text(visited, url_column_size=999)
    assert capped.splitlines()[0].index("|") == 185
