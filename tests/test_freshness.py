"""Recrawl scheduling (pipelines/freshness.py): the Cho & Garcia-Molina
change-rate estimator, observation assembly from crawl deltas, host
shrinkage + staleness priorities vs a DuckDB oracle, and partition
independence of the url_key exchange."""

import numpy as np
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

DT = 86400.0  # one day between cycles
H = 7 * 86400.0


def _synthetic_obs(n_urls=2000, cycles=5, hosts=8, seed=13):
    """Deterministic per-URL change probabilities spread across hosts."""
    from siteone_crawler_ray.functions.hashing import xxh64_strings

    rng = np.random.default_rng(seed)
    urls = np.array([f"https://h{i % hosts}.test/p/{i}" for i in range(n_urls)])
    p_change = ((np.arange(n_urls) % 10) + 1) / 12.0  # 0.083 .. 0.83
    rows = []
    for c in range(cycles):
        # a page is observed in a cycle only if it was reachable: skip ~10%
        seen = rng.random(n_urls) > 0.1
        changed = rng.random(n_urls) < p_change
        rows.append(pa.table({
            "url_key": pa.array(xxh64_strings(urls[seen]), pa.uint64()),
            "url": pa.array(urls[seen]),
            "host": pa.array([u.split("/")[2] for u in urls[seen]]),
            "changed": pa.array(changed[seen]),
            "cycle": pa.array(np.full(int(seen.sum()), c, np.int32)),
        }))
    return pa.concat_tables(rows)


def test_estimator_matches_closed_form():
    import ray.data as rd

    from siteone_crawler_ray.functions.hashing import xxh64_strings
    from siteone_crawler_ray.pipelines.freshness import change_rate_estimates

    urls = ["https://a.test/1", "https://a.test/2", "https://b.test/1"]
    # obs: url1 changed 2/3, url2 changed 0/2, url3 changed 3/3
    obs = pa.table({
        "url_key": pa.array(xxh64_strings(
            [urls[0]] * 3 + [urls[1]] * 2 + [urls[2]] * 3), pa.uint64()),
        "url": pa.array([urls[0]] * 3 + [urls[1]] * 2 + [urls[2]] * 3),
        "host": pa.array(["a.test"] * 5 + ["b.test"] * 3),
        "changed": pa.array([True, True, False, False, False, True, True, True]),
    })
    t = change_rate_estimates(rd.from_arrow(obs), DT)
    got = {u: (n, x, lam) for u, n, x, lam in zip(
        t["url"].to_pylist(), t["n"].to_pylist(), t["x"].to_pylist(),
        t["lam"].to_pylist())}
    for url, n, x in [(urls[0], 3, 2), (urls[1], 2, 0), (urls[2], 3, 3)]:
        want = -np.log((n - x + 0.5) / (n + 0.5)) / DT
        gn, gx, glam = got[url]
        assert (gn, gx) == (n, x)
        assert glam == pytest.approx(want, rel=1e-12)
    # x=0 gives exactly zero rate; x=n stays finite
    assert got[urls[1]][2] == 0.0
    assert np.isfinite(got[urls[2]][2])


def test_observations_from_delta():
    from siteone_crawler_ray.functions.hashing import xxh64_strings
    from siteone_crawler_ray.pipelines.freshness import observations_from_delta

    urls = [f"https://h{i}.test/x" for i in range(4)]
    delta = pa.table({
        "url_key": pa.array(xxh64_strings(urls), pa.uint64()),
        "url": pa.array(urls),
        "change": pa.array(["new", "gone", "changed", "unchanged"]),
    })
    obs = observations_from_delta(delta, cycle=3)
    assert obs["url"].to_pylist() == [urls[2], urls[3]]
    assert obs["changed"].to_pylist() == [True, False]
    assert obs["host"].to_pylist() == ["h2.test", "h3.test"]
    assert obs["cycle"].to_pylist() == [3, 3]


def test_recrawl_priority_matches_duckdb_oracle(tmp_path):
    import duckdb
    import pyarrow.parquet as pq
    import ray.data as rd

    from siteone_crawler_ray.pipelines.freshness import DEFAULT_M0, recrawl_priority

    obs = _synthetic_obs()
    pq.write_table(obs, tmp_path / "obs.parquet")
    top = recrawl_priority(rd.from_arrow(obs), DT, H, top_b=60)
    assert top.num_rows == 60

    con = duckdb.connect()
    ora = con.execute(f"""
        WITH obs AS (SELECT * FROM read_parquet('{tmp_path}/obs.parquet')),
        nx AS (SELECT url, host, count(*) AS n,
                      sum(CASE WHEN changed THEN 1 ELSE 0 END) AS x
               FROM obs GROUP BY url, host),
        r AS (SELECT *, -ln((n - x + 0.5) / (n + 0.5)) / {DT} AS lam FROM nx),
        hm AS (SELECT host, avg(lam) AS lam_host FROM r GROUP BY host),
        s AS (SELECT r.url, r.n, r.x,
                     (r.n * r.lam + {DEFAULT_M0} * hm.lam_host)
                     / (r.n + {DEFAULT_M0}) AS lam2
              FROM r JOIN hm USING (host))
        SELECT url, n, x, lam2 AS lam, 1 - exp(-lam2 * {H}) AS staleness
        FROM s ORDER BY staleness DESC, url LIMIT 60
    """).fetch_arrow_table()

    # compare on a rounding that absorbs the engine's 12-dp rounding and
    # cross-libm exp/ln ulps, with the same (staleness, url) tie-break
    def canon(t):
        rows = sorted(zip(t["url"].to_pylist(), t["n"].to_pylist(),
                          t["x"].to_pylist(),
                          [round(v, 9) for v in t["staleness"].to_pylist()]),
                      key=lambda r: (-r[3], r[0]))
        return rows

    assert canon(top) == canon(ora)


def test_priority_partition_independence():
    import ray.data as rd

    from siteone_crawler_ray.pipelines.freshness import (
        change_rate_estimates,
        recrawl_priority,
    )

    obs = _synthetic_obs(n_urls=600, cycles=4)
    base_rates = change_rate_estimates(rd.from_arrow(obs), DT)
    base_top = recrawl_priority(rd.from_arrow(obs), DT, H, top_b=25)
    for P in (1, 3, 7):
        ds = rd.from_arrow(obs).repartition(P)
        assert change_rate_estimates(ds, DT, num_partitions=P).equals(base_rates)
        assert recrawl_priority(ds, DT, H, top_b=25,
                                num_partitions=P).equals(base_top)


def test_priority_from_real_crawl_deltas():
    """Two synthetic visited snapshots → crawl_delta → observations →
    priorities: the composition a continuous crawl actually runs."""
    import ray.data as rd

    from siteone_crawler_ray.functions.hashing import xxh64_strings
    from siteone_crawler_ray.pipelines.delta import crawl_delta
    from siteone_crawler_ray.pipelines.freshness import (
        observations_from_delta,
        recrawl_priority,
    )

    urls = [f"https://h{i % 3}.test/p/{i}" for i in range(40)]
    keys = xxh64_strings(urls)

    def snap(sizes):
        return pa.table({
            "url_key": pa.array(keys, pa.uint64()),
            "url": pa.array(urls),
            "status_code": pa.array([200] * 40, pa.int32()),
            "size": pa.array(sizes, pa.int64()),
            "title": pa.array(["t"] * 40),
        })

    old = snap([100] * 40)
    # pages 0..9 change size in cycle 1; pages 0..4 change again in cycle 2
    mid = snap([200] * 10 + [100] * 30)
    new = snap([300] * 5 + [200] * 5 + [100] * 30)
    d1 = crawl_delta(rd.from_arrow(old), rd.from_arrow(mid))
    d2 = crawl_delta(rd.from_arrow(mid), rd.from_arrow(new))
    obs = pa.concat_tables([observations_from_delta(d1, 1),
                            observations_from_delta(d2, 2)])
    top = recrawl_priority(rd.from_arrow(obs), DT, H, top_b=10)
    # the twice-changed pages must outrank the once-changed ones
    assert set(top["url"].to_pylist()[:5]) == {f"https://h{i % 3}.test/p/{i}"
                                               for i in range(5)}
    assert all(x == 2 for x in top["x"].to_pylist()[:5])


def test_observation_sink_through_crawl_delta(tmp_path):
    """crawl_delta(observations_out=...) writes partition-local parquet
    observations equal to the in-memory path, and the accumulated tree
    feeds recrawl_priority identically."""
    import ray.data as rd

    from siteone_crawler_ray.functions.hashing import xxh64_strings
    from siteone_crawler_ray.pipelines.delta import crawl_delta
    from siteone_crawler_ray.pipelines.freshness import (
        observations_from_delta,
        read_observations,
        recrawl_priority,
    )

    urls = [f"https://h{i % 3}.test/p/{i}" for i in range(30)]
    keys = xxh64_strings(urls)

    def snap(sizes):
        return pa.table({
            "url_key": pa.array(keys, pa.uint64()),
            "url": pa.array(urls),
            "status_code": pa.array([200] * 30, pa.int32()),
            "size": pa.array(sizes, pa.int64()),
            "title": pa.array(["t"] * 30),
        })

    snaps = [snap([100] * 30), snap([200] * 8 + [100] * 22),
             snap([300] * 4 + [200] * 4 + [100] * 22)]
    obs_dir = str(tmp_path / "obs")
    mem = []
    for c in (1, 2):
        d = crawl_delta(rd.from_arrow(snaps[c - 1]), rd.from_arrow(snaps[c]),
                        observations_out=f"{obs_dir}/epoch={c:05d}",
                        observations_cycle=c, changes_only=True)
        # changes_only output holds no unchanged rows...
        assert "unchanged" not in set(d["change"].to_pylist())
        mem.append(observations_from_delta(
            crawl_delta(rd.from_arrow(snaps[c - 1]), rd.from_arrow(snaps[c])), c))

    disk = read_observations(obs_dir)
    # projected read: only what change_rate_estimates consumes
    assert disk.schema().names == ["url_key", "url", "host", "changed"]
    # ...but the sink captured the full observation set anyway
    got = recrawl_priority(disk, DT, H, top_b=8)
    want = recrawl_priority(rd.from_arrow(pa.concat_tables(mem)), DT, H, top_b=8)
    assert got.equals(want)
    assert got["x"].to_pylist()[:4] == [2, 2, 2, 2]


def test_recrawl_seed_list_drives_crawl_order(tmp_path):
    """Closing the loop: the staleness schedule seeds the next crawl,
    and the crawl fetches those URLs in schedule order (seed priority
    equals list position)."""
    import os

    import ray.data as rd

    from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
    from siteone_crawler_ray.pipelines.freshness import recrawl_seed_list
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    tabs = make_graph_corpus(seed=17, hosts=2, total_pages=60)
    cp = str(tmp_path / "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=2)
    robots = dict(zip(tabs["robots"]["host"].to_pylist(),
                      tabs["robots"]["body"].to_pylist()))

    obs = _synthetic_obs(n_urls=0)  # schema only
    # craft observations so that three REAL corpus pages get distinct
    # staleness: page A changed 3/3, B 1/3, C 0/3
    from siteone_crawler_ray.functions.hashing import xxh64_strings

    pages = [d for d in tabs["documents"]["doc_id"].to_pylist()
             if "/p/" in d][:3]
    rows = []
    for cyc in range(3):
        for u, changed in zip(pages, [True, cyc == 0, False]):
            rows.append((int(xxh64_strings([u])[0]), u,
                         u.split("/")[2], changed, cyc))
    obs = pa.table({
        "url_key": pa.array([r[0] for r in rows], pa.uint64()),
        "url": pa.array([r[1] for r in rows]),
        "host": pa.array([r[2] for r in rows]),
        "changed": pa.array([r[3] for r in rows]),
        "cycle": pa.array(np.array([r[4] for r in rows], np.int32)),
    })
    seeds = recrawl_seed_list(rd.from_arrow(obs), 86400.0, 7 * 86400.0, top_b=3)
    assert seeds[0] == pages[0] and seeds[-1] == pages[2]

    res = EpochCrawler(cp, seeds, robots, str(tmp_path / "work"),
                       CrawlConfig(num_shards=2, fetch_concurrency=2)).run()
    vt = res.visited_table(columns=["seq", "url", "depth"])
    d0 = {u: s for s, u, d in zip(vt["seq"].to_pylist(), vt["url"].to_pylist(),
                                  vt["depth"].to_pylist()) if d == 0}
    seqs = [d0[u] for u in seeds if u in d0]
    assert len(seqs) == 3 and seqs == sorted(seqs)


def test_sitemap_lastmod_parse_and_boost():
    from siteone_crawler_ray.pipelines.freshness import apply_lastmod_boost
    from siteone_crawler_ray.sources.seeds import parse_sitemap_entries

    body = b"""<?xml version="1.0"?>
    <urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">
      <url><loc>https://h0.test/a</loc><lastmod>2026-08-15</lastmod></url>
      <url><loc>https://h0.test/b</loc>
           <lastmod>2026-08-01T10:30:00Z</lastmod></url>
      <url><loc>https://h0.test/c</loc></url>
      <url><lastmod>2026-01-01</lastmod></url>
    </urlset>"""
    t = parse_sitemap_entries(body)
    assert t["url"].to_pylist() == ["https://h0.test/a", "https://h0.test/b",
                                    "https://h0.test/c"]
    import datetime as dt

    ts = t["lastmod_ts"].to_pylist()
    assert ts[0] == dt.datetime.fromisoformat("2026-08-15T00:00:00+00:00").timestamp()
    assert ts[1] == dt.datetime.fromisoformat("2026-08-01T10:30:00+00:00").timestamp()
    assert ts[2] is None

    # index sitemaps yield no page entries
    idx = b"<sitemapindex><sitemap><loc>https://h0.test/s.xml</loc></sitemap></sitemapindex>"
    assert parse_sitemap_entries(idx).num_rows == 0

    prio = pa.table({
        "url": pa.array(["https://h0.test/a", "https://h0.test/b",
                         "https://h0.test/c", "https://h0.test/d"]),
        "n": pa.array([2, 2, 2, 2], pa.int64()),
        "x": pa.array([0, 0, 1, 2], pa.int64()),
        "lam": pa.array([0.0, 0.0, 0.3, 0.9]),
        "staleness": pa.array([0.05, 0.04, 0.5, 0.9]),
    })
    # last crawl 2026-08-10: only /a's lastmod (08-15) is newer
    last_ts = dt.datetime.fromisoformat("2026-08-10T00:00:00+00:00").timestamp()
    boosted = apply_lastmod_boost(prio, t, last_ts)
    assert boosted["url"].to_pylist()[0] == "https://h0.test/a"
    assert boosted["staleness"].to_pylist()[0] == 1.0
    # /b (older lastmod) and /c (no lastmod) keep estimated staleness
    by = dict(zip(boosted["url"].to_pylist(), boosted["staleness"].to_pylist()))
    assert by["https://h0.test/b"] == 0.04 and by["https://h0.test/c"] == 0.5
    assert by["https://h0.test/d"] == 0.9
