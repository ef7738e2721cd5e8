"""Crawl-order, URL-seen-set, skip and span-sequence parity vs the oracle.

The checks FIXTURES.md §5 requires:
1. engine visited order == oracle visited order (crawl-order parity)
2. engine URL-seen set == oracle seen set
3. per-row span-sequence equality (kind, text, media_ref, order)
4. skip reasons match (NotAllowedHost=1, RobotsTxt=2)
5. limit configs truncate identically
"""

import os

import pyarrow as pa
import pytest

from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
from siteone_crawler_ray.pipelines.oracle import run_oracle
from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

VISITED_COLS = ["seq", "url", "uq_id", "source_uq_id", "source_attr", "epoch", "status_code", "depth"]


def _setup(tmp, tabs, num_buckets=4):
    cp = os.path.join(tmp, "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=num_buckets)
    seeds = tabs["seeds"]["url"].to_pylist()
    robots = dict(zip(tabs["robots"]["host"].to_pylist(), tabs["robots"]["body"].to_pylist()))
    return cp, seeds, robots


def _assert_parity(res, oracle):
    ev = res.visited_table(columns=VISITED_COLS)
    ov = oracle.visited_table()
    assert ev["url"].to_pylist() == ov["url"].to_pylist(), "crawl order mismatch"
    for col in ["uq_id", "source_uq_id", "source_attr", "epoch", "status_code", "depth"]:
        assert ev[col].to_pylist() == ov[col].to_pylist(), f"{col} mismatch"
    assert set(int(k) for k in res.seen_keys) == oracle.seen_keys, "seen-set mismatch"
    got_sk = sorted((r["url"], r["reason"]) for r in res.skipped.to_pylist())
    want_sk = sorted((s["url"], s["reason"]) for s in oracle.skipped)
    assert got_sk == want_sk, "skipped mismatch"


def _run_engine(tmp, tabs, cfg, num_buckets=4):
    cp, seeds, robots = _setup(tmp, tabs, num_buckets)
    c = EpochCrawler(cp, seeds, robots, os.path.join(tmp, "work"), cfg)
    return c.run(), (seeds, robots)


def test_tiny_single_host_parity(tmp_workdir):
    tabs = make_graph_corpus(seed=7, hosts=1, total_pages=50, out_degree=4)
    cfg = CrawlConfig(use_ray=False, num_shards=2)
    res, (seeds, robots) = _run_engine(tmp_workdir, tabs, cfg)
    _assert_parity(res, run_oracle(tabs["documents"], seeds, robots, cfg))
    assert res.metrics["visited"] > 10


def test_small_multi_host_parity(tmp_workdir):
    tabs = make_graph_corpus(seed=42, hosts=4, total_pages=500, out_degree=6)
    cfg = CrawlConfig(use_ray=False, num_shards=4)
    res, (seeds, robots) = _run_engine(tmp_workdir, tabs, cfg)
    oracle = run_oracle(tabs["documents"], seeds, robots, cfg)
    _assert_parity(res, oracle)
    # robots + cross-host skips must actually occur in this corpus
    reasons = set(r["reason"] for r in oracle.skipped)
    assert 1 in reasons


def test_limits_truncate_identically(tmp_workdir):
    tabs = make_graph_corpus(seed=11, hosts=2, total_pages=300, out_degree=6)
    for cfg in [
        CrawlConfig(use_ray=False, num_shards=2, max_visited_urls=40),
        CrawlConfig(use_ray=False, num_shards=2, max_queue_length=15),
        CrawlConfig(use_ray=False, num_shards=2, max_depth=2),
        CrawlConfig(use_ray=False, num_shards=2, max_url_length=60),
    ]:
        res, (seeds, robots) = _run_engine(
            os.path.join(tmp_workdir, f"lim{cfg.max_visited_urls}-{cfg.max_queue_length}-{cfg.max_depth}-{cfg.max_url_length}"),
            tabs,
            cfg,
        )
        _assert_parity(res, run_oracle(tabs["documents"], seeds, robots, cfg))


def test_query_param_filtering_parity(tmp_workdir):
    tabs = make_graph_corpus(seed=13, hosts=2, total_pages=200, out_degree=5)
    cfg = CrawlConfig(use_ray=False, num_shards=2, remove_query_params=True)
    res, (seeds, robots) = _run_engine(tmp_workdir, tabs, cfg)
    _assert_parity(res, run_oracle(tabs["documents"], seeds, robots, cfg))


def test_disable_assets_and_regex_only_pages_parity(tmp_workdir):
    """--disable-* span gating (html_processor.rs:789: a disabled
    extractor never finds the URL) and --regex-filtering-only-for-pages
    (crawler.rs:1316-1318: static files bypass include/ignore) must
    truncate identically in engine and oracle."""
    tabs = make_graph_corpus(seed=17, hosts=2, total_pages=300, out_degree=5)
    base_cfg = CrawlConfig(use_ray=False, num_shards=2)
    base, (seeds, robots) = _run_engine(os.path.join(tmp_workdir, "base"), tabs, base_cfg)

    cfg = CrawlConfig(use_ray=False, num_shards=2,
                      disabled_span_kinds=("img", "script", "css", "media"))
    res, _ = _run_engine(os.path.join(tmp_workdir, "noassets"), tabs, cfg)
    _assert_parity(res, run_oracle(tabs["documents"], seeds, robots, cfg))
    assert res.metrics["visited"] < base.metrics["visited"], \
        "disabling every asset kind must shrink the crawl"

    cfg2 = CrawlConfig(use_ray=False, num_shards=2,
                       ignore_regex=(r"\.(js|png|css)$", r"/p/00"),
                       regex_filtering_only_for_pages=True)
    res2, _ = _run_engine(os.path.join(tmp_workdir, "regexpages"), tabs, cfg2)
    oracle2 = run_oracle(tabs["documents"], seeds, robots, cfg2)
    _assert_parity(res2, oracle2)
    # static files that the ignore regex names must STILL be visited
    urls2 = res2.visited_table(columns=["url"])["url"].to_pylist()
    assert any(u.endswith((".js", ".png", ".css")) for u in urls2), \
        "regex-filtering-only-for-pages must exempt static files"
    # …while matching PAGES are filtered out (the seed always crawls)
    assert not any("/p/00" in u and u not in seeds
                   and not u.endswith((".js", ".png", ".css", ".ico"))
                   for u in urls2)


def test_single_page_and_single_foreign_page_parity(tmp_workdir):
    """--single-page (assets only, no href expansion —
    html_processor.rs:781) and --single-foreign-page (foreign 2nd-level
    pages fetched but never expanded, redirects still followed —
    html_processor.rs:179-182)."""
    tabs = make_graph_corpus(seed=23, hosts=3, total_pages=300, out_degree=5)
    cp, seeds, robots = _setup(tmp_workdir, tabs)

    sp_cfg = CrawlConfig(use_ray=False, num_shards=2, single_page=True)
    res = EpochCrawler(cp, seeds, robots, os.path.join(tmp_workdir, "sp"), sp_cfg).run()
    _assert_parity(res, run_oracle(tabs["documents"], seeds, robots, sp_cfg))
    # only the seed page + its direct assets: nothing at depth 2+, and no
    # visited page beyond the seed
    vt = res.visited_table(columns=["url", "depth", "content_type"])
    assert max(vt["depth"].to_pylist()) <= 1
    from siteone_crawler_ray.types import ContentType

    html_rows = [u for u, ct in zip(vt["url"].to_pylist(), vt["content_type"].to_pylist())
                 if ct == ContentType.HTML]
    assert html_rows == [u for u in html_rows if u in seeds] or len(html_rows) <= len(seeds) + 1

    sf_cfg = CrawlConfig(use_ray=False, num_shards=2, single_foreign_page=True,
                         allowed_domains_crawl=("*",))
    res2 = EpochCrawler(cp, seeds, robots, os.path.join(tmp_workdir, "sf"), sf_cfg).run()
    _assert_parity(res2, run_oracle(tabs["documents"], seeds, robots, sf_cfg))
    full_cfg = CrawlConfig(use_ray=False, num_shards=2, allowed_domains_crawl=("*",))
    full = EpochCrawler(cp, seeds, robots, os.path.join(tmp_workdir, "full"), full_cfg).run()
    # foreign pages are reachable but never expand → strictly fewer visits
    assert 0 < res2.metrics["visited"] < full.metrics["visited"]


def test_sitemap_only_mode_parity(tmp_workdir):
    """Seed URL is a sitemap.xml → only sitemap-listed URLs crawl:
    non-XML pages never parse, so their links/assets are not followed
    (crawler.rs:873-876 automatic sitemap-only mode)."""
    from siteone_crawler_ray.sources.corpus import DOCUMENTS_SCHEMA, SPAN_TYPE

    def span(kind, text, ref):
        return {"kind": kind, "text": text, "media_ref": ref, "offset": 0}

    docs = pa.Table.from_arrays(
        [
            pa.array([
                "https://a.test/sitemap.xml",
                "https://a.test/p/00001",
                "https://a.test/p/00002",
                "https://a.test/p/00003",  # reachable only via p/00001's link
            ]),
            pa.array(
                [
                    [span("link", "s1", "/p/00001"), span("link", "s2", "/p/00002")],
                    [span("title", "p1", ""), span("link", "onward", "/p/00003"),
                     span("img", "", "/static/x.png")],
                    [span("title", "p2", "")],
                    [span("title", "p3", "")],
                ],
                type=pa.list_(SPAN_TYPE),
            ),
        ],
        schema=DOCUMENTS_SCHEMA,
    )
    seeds = ["https://a.test/sitemap.xml"]
    cp = os.path.join(tmp_workdir, "corpus")
    write_corpus(docs, cp, num_buckets=2)
    cfg = CrawlConfig(use_ray=False, num_shards=2)
    res = EpochCrawler(cp, seeds, {}, os.path.join(tmp_workdir, "work"), cfg).run()
    _assert_parity(res, run_oracle(docs, seeds, {}, cfg))
    urls = set(res.visited_table(columns=["url"])["url"].to_pylist())
    assert {"https://a.test/sitemap.xml", "https://a.test/p/00001",
            "https://a.test/p/00002"} <= urls
    assert "https://a.test/p/00003" not in urls, "HTML pages must not expand"
    assert not any(u.endswith(".png") for u in urls), "assets not followed either"

    # a NON-sitemap seed over the same corpus expands normally
    seeds2 = ["https://a.test/p/00001"]
    res2 = EpochCrawler(cp, seeds2, {}, os.path.join(tmp_workdir, "w2"), cfg).run()
    _assert_parity(res2, run_oracle(docs, seeds2, {}, cfg))
    urls2 = set(res2.visited_table(columns=["url"])["url"].to_pylist())
    assert "https://a.test/p/00003" in urls2


def test_disable_files_and_fonts_parity(tmp_workdir):
    """--disable-files (a-href targets with non-HTML file extensions
    never found, html_processor.rs:193) and --disable-fonts (font refs
    never found, html_processor.rs:34-40) — engine/oracle parity on a
    corpus that actually contains .pdf links and .woff refs."""
    from siteone_crawler_ray.sources.corpus import DOCUMENTS_SCHEMA, SPAN_TYPE

    def span(kind, text, ref):
        return {"kind": kind, "text": text, "media_ref": ref, "offset": 0}

    docs = pa.Table.from_arrays(
        [
            pa.array([
                "https://a.test/p/00000", "https://a.test/page.html",
                "https://a.test/doc.pdf", "https://a.test/f.woff2",
            ]),
            pa.array(
                [
                    [
                        span("title", "seed", ""),
                        span("link", "file", "/doc.pdf"),
                        span("link", "page", "/page.html"),
                        span("css", "font", "/f.woff2"),
                        span("link", "query-file", "/x.zip?v=1"),
                    ],
                    [span("title", "p", "")],
                    [span("text", "pdf body", "")],
                    [span("text", "font body", "")],
                ],
                type=pa.list_(SPAN_TYPE),
            ),
        ],
        schema=DOCUMENTS_SCHEMA,
    )
    seeds = ["https://a.test/p/00000"]
    cp = os.path.join(tmp_workdir, "corpus")
    write_corpus(docs, cp, num_buckets=2)

    base_cfg = CrawlConfig(use_ray=False, num_shards=2)
    base = EpochCrawler(cp, seeds, {}, os.path.join(tmp_workdir, "base"), base_cfg).run()
    _assert_parity(base, run_oracle(docs, seeds, {}, base_cfg))
    base_urls = set(base.visited_table(columns=["url"])["url"].to_pylist())
    assert {"https://a.test/doc.pdf", "https://a.test/f.woff2",
            "https://a.test/page.html"} <= base_urls

    cfg = CrawlConfig(use_ray=False, num_shards=2, disable_files=True, disable_fonts=True)
    res = EpochCrawler(cp, seeds, {}, os.path.join(tmp_workdir, "gated"), cfg).run()
    _assert_parity(res, run_oracle(docs, seeds, {}, cfg))
    urls = set(res.visited_table(columns=["url"])["url"].to_pylist())
    assert "https://a.test/doc.pdf" not in urls, "file link must be gated"
    assert "https://a.test/f.woff2" not in urls, "font ref must be gated"
    assert "https://a.test/page.html" in urls, "HTML-extension link still follows"


def test_single_foreign_page_gates_before_dedup(tmp_workdir):
    """ADVICE r3: on a foreign page where a non-redirect span with the
    same normalized href PRECEDES a redirect span, the redirect must
    still follow.  That requires the foreign gating to run before the
    per-page first-occurrence dedup (html_processor.rs:179-182: a
    foreign page's extractors never run, so the link span never claims
    the href's dedup slot)."""
    from siteone_crawler_ray.sources.corpus import DOCUMENTS_SCHEMA, SPAN_TYPE

    target = "https://b.test/p/00002"

    def span(kind, text, ref):
        return {"kind": kind, "text": text, "media_ref": ref, "offset": 0}

    docs = pa.Table.from_arrays(
        [
            pa.array(["https://a.test/p/00000", "https://b.test/p/00001", target]),
            pa.array(
                [
                    [span("title", "seed", ""), span("link", "f", "https://b.test/p/00001")],
                    # non-redirect span with the SAME normalized href first
                    [span("link", "same-href first", target), span("redirect", "", target)],
                    [span("title", "t2", "")],
                ],
                type=pa.list_(SPAN_TYPE),
            ),
        ],
        schema=DOCUMENTS_SCHEMA,
    )
    seeds = ["https://a.test/p/00000"]
    cfg = CrawlConfig(use_ray=False, num_shards=2, single_foreign_page=True,
                      allowed_domains_crawl=("*",))
    cp = os.path.join(tmp_workdir, "corpus")
    write_corpus(docs, cp, num_buckets=2)
    res = EpochCrawler(cp, seeds, {}, os.path.join(tmp_workdir, "work"), cfg).run()
    _assert_parity(res, run_oracle(docs, seeds, {}, cfg))
    urls = res.visited_table(columns=["url"])["url"].to_pylist()
    assert target in urls, "redirect span on the foreign page must still follow"


def test_span_sequence_equality(tmp_workdir):
    """Per-row invariant from BASELINE.json input_hint: output spans must
    equal corpus spans in (kind, text, media_ref, order)."""
    tabs = make_graph_corpus(seed=7, hosts=2, total_pages=100, out_degree=4)
    cfg = CrawlConfig(use_ray=False, num_shards=2)
    res, _ = _run_engine(tmp_workdir, tabs, cfg)
    vt = res.visited_table(columns=["seq", "doc_id", "spans"])
    vt = vt.filter(pa.compute.is_valid(vt["doc_id"]))
    corpus = {
        d: s
        for d, s in zip(tabs["documents"]["doc_id"].to_pylist(), tabs["documents"]["spans"].to_pylist())
    }
    checked = 0
    for doc_id, spans in zip(vt["doc_id"].to_pylist(), vt["spans"].to_pylist()):
        want = corpus[doc_id]
        got = [(s["kind"], s["text"], s["media_ref"]) for s in spans]
        exp = [(s["kind"], s["text"], s["media_ref"]) for s in want]
        assert got == exp, f"span sequence mismatch for {doc_id}"
        offs = [s["offset"] for s in spans]
        assert offs == sorted(offs), "span offsets out of order"
        checked += 1
    assert checked > 10


@pytest.mark.usefixtures("ray_session")
def test_ray_path_parity(tmp_workdir):
    """The distributed path (Ray Data fetch/extract + shard actors) must
    produce the identical canonical order."""
    tabs = make_graph_corpus(seed=42, hosts=4, total_pages=150, out_degree=4)
    cfg = CrawlConfig(use_ray=True, num_shards=4, fetch_concurrency=2)
    res, (seeds, robots) = _run_engine(tmp_workdir, tabs, cfg)
    _assert_parity(res, run_oracle(tabs["documents"], seeds, robots, cfg))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("caps", [{"max_visited_urls": 40}, {"max_queue_length": 15}],
                         ids=["max_visited", "max_queue"])
@pytest.mark.parametrize("threshold", [None, 1], ids=["driver_local", "fan_out"])
def test_ray_limits_truncate_identically(tmp_workdir, monkeypatch, caps, threshold):
    """Caps binding mid-wave under Ray: at the default wave threshold the
    binding wave runs on the driver-local worker; at threshold 1 it fans
    out, so the exact admit pulls full_candidates() from remote workers."""
    exact_on_local = []
    admit_exact = EpochCrawler._admit_exact

    def spy(self, wave_size):
        exact_on_local.append(self._epoch_workers_used is None)
        return admit_exact(self, wave_size)

    monkeypatch.setattr(EpochCrawler, "_admit_exact", spy)
    tabs = make_graph_corpus(seed=11, hosts=2, total_pages=300, out_degree=6)
    cfg = CrawlConfig(use_ray=True, num_shards=2, fetch_concurrency=2, **caps,
                      **({} if threshold is None else {"ray_wave_threshold": threshold}))
    res, (seeds, robots) = _run_engine(tmp_workdir, tabs, cfg)
    _assert_parity(res, run_oracle(tabs["documents"], seeds, robots, cfg))
    assert exact_on_local, "no cap bound: the exact admit never ran"
    assert set(exact_on_local) == {threshold is None}


@pytest.mark.usefixtures("ray_session")
def test_resume_reproduces_uninterrupted_run(tmp_workdir):
    tabs = make_graph_corpus(seed=42, hosts=4, total_pages=200, out_degree=5)
    cp, seeds, robots = _setup(tmp_workdir, tabs)
    cfg = CrawlConfig(use_ray=False, num_shards=4)

    full = EpochCrawler(cp, seeds, robots, os.path.join(tmp_workdir, "full"), cfg).run()

    part_dir = os.path.join(tmp_workdir, "part")
    c1 = EpochCrawler(cp, seeds, robots, part_dir, cfg)
    c1.seed()
    c1.run_epoch()
    c1.run_epoch()  # stop mid-crawl (checkpoint written per epoch)

    c2 = EpochCrawler(cp, seeds, robots, part_dir, cfg)
    assert c2.resume()
    res = c2.run()

    a = full.visited_table(columns=VISITED_COLS)
    b = res.visited_table(columns=VISITED_COLS)
    assert a.equals(b), "resume did not reproduce the uninterrupted run"
    assert (full.seen_keys == res.seen_keys).all()
    assert sorted(full.skipped.to_pylist(), key=str) == sorted(res.skipped.to_pylist(), key=str)


@pytest.mark.usefixtures("ray_session")
def test_deferred_manifest_snapshots_basename_counts(tmp_workdir):
    """``manifest['basename_counts']`` must be a COPY taken at
    checkpoint time: the Ray path writes the manifest one epoch later,
    by which point the live dict already holds the next epoch's non-200
    counts — a resume would re-add them (double count) and trip the
    ≥max_non200 basename blocklist early, silently dropping pages the
    uninterrupted run fetched (caught by the node-loss drill in
    scripts/multinode_sim.py: 6 rows short at 135k pages)."""
    import json

    tabs = make_graph_corpus(seed=42, hosts=4, total_pages=200, out_degree=5)
    cp, seeds, robots = _setup(tmp_workdir, tabs)
    cfg = CrawlConfig(use_ray=True, num_shards=4, fetch_concurrency=2,
                      ray_wave_threshold=1)
    wdir = os.path.join(tmp_workdir, "w")
    c = EpochCrawler(cp, seeds, robots, wdir, cfg)
    c.seed()
    c.warmup()
    c.run_epoch()  # defers manifest-epoch0
    assert c._pending_ckpt is not None
    c.basename_counts["sentinel"] = 99  # what the next epoch's non-200s do
    c.run_epoch()  # flushes manifest-epoch0
    c.shutdown()
    with open(os.path.join(wdir, "manifest-epoch0.json")) as f:
        m0 = json.load(f)
    assert "sentinel" not in m0["basename_counts"], (
        "deferred manifest captured post-checkpoint basename mutations")


@pytest.mark.usefixtures("ray_session")
def test_ray_async_checkpoint_crash_window_resume(tmp_workdir):
    """The Ray path defers each epoch's manifest write until the next
    epoch (fire-and-forget shard checkpoints).  A crash inside that
    window leaves shards/epoch=N written but manifest-epochN.json
    missing; resume() must fall back to epoch N-1, prune the stale
    dirs, and reproduce the uninterrupted run exactly."""
    import ray

    tabs = make_graph_corpus(seed=42, hosts=4, total_pages=200, out_degree=5)
    cp, seeds, robots = _setup(tmp_workdir, tabs)
    cfg = CrawlConfig(use_ray=True, num_shards=4, fetch_concurrency=2,
                      ray_wave_threshold=1)

    full = EpochCrawler(cp, seeds, robots, os.path.join(tmp_workdir, "full"), cfg).run()

    part_dir = os.path.join(tmp_workdir, "part")
    c1 = EpochCrawler(cp, seeds, robots, part_dir, cfg)
    c1.seed()
    c1.warmup()
    c1.run_epoch()
    c1.run_epoch()
    c1.run_epoch()
    # crash simulation: force the pending (deferred) shard checkpoints
    # to land on disk, then drop the driver WITHOUT flushing its
    # manifest — the exact window the async checkpoint opens
    assert c1._pending_ckpt is not None, "async path should defer the manifest"
    pend_epoch, _, refs, ingest_refs = c1._pending_ckpt
    ray.get(list(refs) + list(ingest_refs))
    c1.shutdown()
    manifests = sorted(f for f in os.listdir(part_dir) if f.startswith("manifest-epoch"))
    assert f"manifest-epoch{pend_epoch}.json" not in manifests
    stale = os.path.join(part_dir, "shards", f"epoch={pend_epoch}")
    assert os.path.isdir(stale), "shard ckpt for the unflushed epoch should exist"

    c2 = EpochCrawler(cp, seeds, robots, part_dir, cfg)
    assert c2.resume()
    assert not os.path.isdir(stale), "resume must prune the manifest-less epoch dir"
    res = c2.run()

    a = full.visited_table(columns=VISITED_COLS)
    b = res.visited_table(columns=VISITED_COLS)
    assert a.equals(b), "resume across the async-ckpt crash window diverged"
    assert (full.seen_keys == res.seen_keys).all()
    assert sorted(full.skipped.to_pylist(), key=str) == sorted(res.skipped.to_pylist(), key=str)


def test_resume_prunes_stale_shard_epoch_dirs(tmp_workdir):
    """A crash between shard checkpoint writes and the manifest replace
    leaves a shards/epoch=N dir with no covering manifest; resume() must
    remove it so _collect_skipped doesn't double-count its skip rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tabs = make_graph_corpus(seed=42, hosts=4, total_pages=200, out_degree=5)
    cp, seeds, robots = _setup(tmp_workdir, tabs)
    cfg = CrawlConfig(use_ray=False, num_shards=4)

    full = EpochCrawler(cp, seeds, robots, os.path.join(tmp_workdir, "full"), cfg).run()

    part_dir = os.path.join(tmp_workdir, "part")
    c1 = EpochCrawler(cp, seeds, robots, part_dir, cfg)
    c1.seed()
    c1.run_epoch()
    c1.run_epoch()
    # simulate the torn checkpoint: a post-manifest shard epoch dir with
    # phantom skip rows that the restored filters have never seen
    stale = os.path.join(part_dir, "shards", "epoch=99")
    os.makedirs(stale)
    pq.write_table(
        pa.table({
            "url": ["https://phantom.test/x"],
            "url_key": pa.array([123456789], pa.uint64()),
            "reason": pa.array([1], pa.int8()),
            "source_uq_id": ["deadbeef"],
            "source_attr": pa.array([1], pa.int8()),
        }),
        os.path.join(stale, "skips-0.parquet"),
    )

    c2 = EpochCrawler(cp, seeds, robots, part_dir, cfg)
    assert c2.resume()
    assert not os.path.isdir(stale), "stale shard epoch dir not pruned"
    res = c2.run()
    assert sorted(full.skipped.to_pylist(), key=str) == sorted(res.skipped.to_pylist(), key=str)


def test_depth_include_ignore_transform_parity(tmp_workdir):
    """--max-depth, --include/--ignore regex, --transform-url parity
    (crawler.rs:1146-1338, 1680-1724)."""
    tabs = make_graph_corpus(seed=13, hosts=3, total_pages=300)
    cfg = CrawlConfig(
        use_ray=False, num_shards=4,
        allowed_domains_crawl=("*",), allowed_domains_static=("*",),
        max_depth=3,
        include_regex=(r"site-00[012]\.test",),
        ignore_regex=(r"\?a=3",),
        transform_url=(r"regex:/p/000(\d\d) -> /p/000\1",),
    )
    res, (seeds, robots) = _run_engine(tmp_workdir, tabs, cfg)
    _assert_parity(res, run_oracle(tabs["documents"], seeds, robots, cfg))
    # depth cap respected and produced EXCEEDS_MAX_DEPTH skips
    depths = res.visited_table(columns=["depth"])["depth"].to_pylist()
    assert max(depths) <= 3
    assert 3 in set(res.skipped["reason"].to_pylist())


def test_redirect_pages_parity(tmp_workdir):
    """Redirect docs (single Location span) visit as 301 and enqueue the
    target with source_attr=80 (crawler.rs:733-755); transport-error
    docs visit with their negative code (visited_url.rs:13-17)."""
    tabs = make_graph_corpus(seed=21, hosts=2, total_pages=400)
    cfg = CrawlConfig(use_ray=False, num_shards=4,
                      allowed_domains_crawl=("*",), allowed_domains_static=("*",))
    res, (seeds, robots) = _run_engine(tmp_workdir, tabs, cfg)
    _assert_parity(res, run_oracle(tabs["documents"], seeds, robots, cfg))
    t = res.visited_table(columns=["status_code", "source_attr"])
    codes = set(t["status_code"].to_pylist())
    assert 301 in codes
    assert any(c < 0 for c in codes), "transport-error docs must appear"
    assert 80 in set(t["source_attr"].to_pylist())


def test_politeness_token_bucket_rate():
    """Per-host token buckets bound the fetch rate (north rule;
    reference global limiter crawler.rs:553-568)."""
    import time

    import numpy as np

    from siteone_crawler_ray.stages.fetch import TokenBucket

    b = TokenBucket(rate=20.0, capacity=20.0)
    t0 = time.monotonic()
    b.acquire(30.0)  # 20 burst + 10 refill → ≥ ~0.5 s
    assert time.monotonic() - t0 >= 0.4


def test_host_routing_output_invariance(tmp_workdir):
    """routing='host' (politeness-exact, salted hot hosts) must produce
    the identical visited order/seen set as bucket routing."""
    tabs = make_graph_corpus(seed=31, hosts=3, total_pages=600)
    cfg = CrawlConfig(use_ray=True, num_shards=4, fetch_concurrency=3, routing="host",
                      ray_wave_threshold=16,
                      allowed_domains_crawl=("*",), allowed_domains_static=("*",))
    res, (seeds, robots) = _run_engine(tmp_workdir, tabs, cfg)
    _assert_parity(res, run_oracle(tabs["documents"], seeds, robots, cfg))


def test_host_routing_politeness_rate_bound(tmp_workdir):
    """With routing='host' and a per-host rate cap, wall time is bounded
    below by busiest_host_pages / rate (exact per-host politeness)."""
    import time

    tabs = make_graph_corpus(seed=11, hosts=2, total_pages=60)
    rate = 40.0
    cfg = CrawlConfig(use_ray=False, num_shards=2, routing="host", max_reqs_per_sec=rate,
                      allowed_domains_crawl=("*",), allowed_domains_static=("*",))
    t0 = time.monotonic()
    res, _ = _run_engine(tmp_workdir, tabs, cfg)
    elapsed = time.monotonic() - t0
    hosts = res.visited_table(columns=["host"])["host"].to_pylist()
    from collections import Counter

    busiest = max(Counter(hosts).values())
    # bucket starts full (capacity == rate) → expected wait ≥ (busiest - rate)/rate
    expected_min = max(0.0, (busiest - rate) / rate) * 0.8
    assert elapsed >= expected_min
    assert res.metrics["visited"] == len(hosts)


def test_flat_crawl_streams_all_urls(tmp_workdir):
    """flat (url-list) mode: pure Dataset pipeline visits every input
    URL exactly once with corpus-correct statuses."""
    import ray.data as rd

    from siteone_crawler_ray.pipelines.flat import flat_crawl

    tabs = make_graph_corpus(seed=9, hosts=2, total_pages=200)
    cp, seeds, robots = _setup(tmp_workdir, tabs)
    urls = rd.from_arrow(pa.table({"url": tabs["documents"]["doc_id"]}))
    out = flat_crawl(cp, urls, concurrency=2).select_columns(["url", "status_code"])
    rows = out.take_all()
    assert len(rows) == tabs["documents"].num_rows
    statuses = {r["status_code"] for r in rows}
    assert statuses <= {200, 301, -1, -2, -3}  # incl. transport-error docs
    assert len({r["url"] for r in rows}) == len(rows)


def test_fetch_actor_pool_survives_actor_death(tmp_workdir, tmp_path):
    """Actor-pool fault tolerance (the ray#53727 warning context): Ray
    Data pins the ray.put MapTransformer ref on the operator for the
    life of the execution (ray map_operator.py:295), so a fetch actor
    hard-killed mid-task restarts, the task retries, and the pipeline
    completes exactly-once."""
    import os

    import ray.data as rd

    from siteone_crawler_ray.pipelines.flat import prep_url_batch
    from siteone_crawler_ray.stages.fetch import FetchStage

    tabs = make_graph_corpus(seed=9, hosts=2, total_pages=200)
    cp, seeds, robots = _setup(tmp_workdir, tabs)
    marker = str(tmp_path / "died-once")

    class DieOnceFetch(FetchStage):
        def __call__(self, batch):
            if not os.path.exists(marker) and batch.num_rows:
                with open(marker, "w") as f:
                    f.write("x")
                os._exit(1)  # hard-kill this actor process mid-task
            return super().__call__(batch)

    urls = rd.from_arrow(pa.table({"url": tabs["documents"]["doc_id"]})).repartition(8)
    out = urls.map_batches(prep_url_batch, batch_format="pyarrow").map_batches(
        DieOnceFetch,
        fn_constructor_kwargs=dict(corpus_path=cp, budget_split=2),
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    )
    rows = out.select_columns(["url"]).take_all()
    assert os.path.exists(marker), "the kill branch never ran"
    assert len(rows) == tabs["documents"].num_rows
    assert len({r["url"] for r in rows}) == len(rows)


def test_empty_seeds_and_all_404_corpus(tmp_workdir):
    """Degenerate inputs: no seeds → empty result; seeds pointing at
    URLs absent from the corpus → 404 rows, no link expansion."""
    tabs = make_graph_corpus(seed=2, hosts=2, total_pages=50)
    cp, _, robots = _setup(tmp_workdir, tabs)
    import os

    cfg = CrawlConfig(use_ray=False, num_shards=2)
    res = EpochCrawler(cp, [], robots, os.path.join(tmp_workdir, "w0"), cfg).run()
    assert res.metrics["visited"] == 0 and res.skipped.num_rows == 0

    ghost = ["https://site-000.test/nowhere", "https://site-000.test/gone.html"]
    res2 = EpochCrawler(cp, ghost, robots, os.path.join(tmp_workdir, "w1"), cfg).run()
    t = res2.visited_table(columns=["url", "status_code"])
    assert t.num_rows == 2
    assert set(t["status_code"].to_pylist()) == {404}


def test_resume_rejects_changed_config(tmp_workdir):
    """Resume must refuse a checkpoint written under a different config
    fingerprint (lineage safety)."""
    import os

    import pytest

    tabs = make_graph_corpus(seed=4, hosts=2, total_pages=80)
    cp, seeds, robots = _setup(tmp_workdir, tabs)
    wd = os.path.join(tmp_workdir, "w")
    cfg = CrawlConfig(use_ray=False, num_shards=2)
    EpochCrawler(cp, seeds, robots, wd, cfg).run()
    other = CrawlConfig(use_ray=False, num_shards=2, max_depth=1)
    c2 = EpochCrawler(cp, seeds, robots, wd, other)
    with pytest.raises(ValueError, match="fingerprint"):
        c2.resume()


def test_url_list_seeds_carry_url_list_source(tmp_workdir):
    """--url-list entries seed the SAME queue as --url but with
    UrlSource::UrlList attribution (crawler.rs:223-229)."""
    from siteone_crawler_ray.types import UrlSource

    tabs = make_graph_corpus(seed=9, hosts=2, total_pages=100)
    cp, seeds, robots = _setup(tmp_workdir, tabs)
    docs = tabs["documents"]["doc_id"].to_pylist()
    extra = [u for u in docs if u not in seeds][:3]
    all_seeds = seeds + extra
    attrs = [UrlSource.INIT_URL] * len(seeds) + [UrlSource.URL_LIST] * len(extra)
    cfg = CrawlConfig(use_ray=False, num_shards=2)
    res = EpochCrawler(cp, all_seeds, robots, os.path.join(tmp_workdir, "w"),
                       cfg, seed_attrs=attrs).run()
    oracle = run_oracle(tabs["documents"], all_seeds, robots, cfg, seed_attrs=attrs)
    _assert_parity(res, oracle)
    vt = res.visited_table(columns=["url", "source_attr"])
    by_url = dict(zip(vt["url"].to_pylist(), vt["source_attr"].to_pylist()))
    for u in extra:
        assert by_url[u] == UrlSource.URL_LIST, u
    assert by_url[seeds[0]] == UrlSource.INIT_URL


def test_vectorized_header_kernels_match_scalar():
    """The fetch stage's vectorized header synthesis (LUT gathers /
    masked fills / whole-buffer hexlify) must be element-wise identical
    to the scalar reference functions it replaced — fuzzed over random
    uint64 keys including the 0/1/2 edge keys.  Guards against the
    numpy uint64-%-int float-promotion trap in particular."""
    import numpy as np

    from siteone_crawler_ray.functions import urls as U
    from siteone_crawler_ray.stages.fetch import (
        _CONTENT_TYPE_HEADER, _HEADER_LUT, _cache_control_vec,
        _content_encoding_vec, _etag_vec, _is_external_vec,
        synthetic_cache_control)

    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
    keys[:3] = [0, 1, 2]
    ct = rng.integers(1, 13, size=5000).astype(np.int8)
    cc = _cache_control_vec(keys, ct)
    et = _etag_vec(keys)
    ce = _content_encoding_vec(keys, ct)
    hdr = _HEADER_LUT[ct.astype(np.int64)]
    for i in range(5000):
        k, c = int(keys[i]), int(ct[i])
        assert cc[i] == synthetic_cache_control(k, c)
        assert et[i] == (f'W/"{k:x}"' if k % 2 == 0 else None)
        assert ce[i] == ("gzip" if k % 4 == 0 and c in (1, 2, 3, 8, 12) else None)
        assert hdr[i] == _CONTENT_TYPE_HEADER.get(c, "")
    hosts = np.array(["www.a.com", "a.com", "b.org", "", "A.com"], dtype=object)
    assert list(_is_external_vec(hosts, "a.com")) == [
        not U.is_same_host(h, "a.com") for h in hosts]
