"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship crawl pipeline over the interleaved-span
corpus derived deterministically from ``/root/testdata/sf0.001``;
``queries()`` exposes every implemented operator/pipeline from
SURVEY.md §2 plus the training-data additions (50 slots — related
operators share a slot via tagged/merged tables); ``oracle_sql()``
gives the DuckDB-checkable subset.

Oracle conventions:
- identical column names on both sides; rounded floats use
  ``functions.numeric.round_away`` (DuckDB round semantics);
  averages of the synthetic 5-decimal request times go through an
  exact integer-scaled sum (``round(rt·1e5)``) on BOTH sides so
  float-summation order can't flip a rounding boundary.
- the crawl itself is oracled by a recursive-CTE BFS over the
  arithmetic link graph of the interleaved corpus
  (``crawl_visited_set``): DuckDB re-derives the reachable URL set,
  min-depth, status and content type from ``documents`` alone.
- the post-crawl report tables are oracled over the engine's own
  visited/skipped parquet lineage (read_parquet glob) — they verify
  the report aggregations independently of the Ray report code.

Ray is initialised by the driver — nothing here calls ray.init().
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from typing import Any

_CORPUS_CACHE: dict[str, str] = {}


def _corpus_key(sf_dir: str) -> str:
    from siteone_crawler_ray.sources.corpus import GENERATOR_VERSION

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    return f"graft_corpus_{key}_b128_v{GENERATOR_VERSION}"


def _corpus_for(sf_dir: str) -> tuple[str, list[str], dict[str, str]]:
    """Build (once per sf_dir) the interleaved corpus + seeds derived from
    the testdata documents table; cache under /tmp.  Seeds/robots persist
    next to the corpus so warm processes skip the span-building pass."""
    import json

    path = os.path.join("/tmp", _corpus_key(sf_dir))
    driver_json = os.path.join(path, "_driver.json")
    if os.path.exists(driver_json):
        _CORPUS_CACHE[sf_dir] = path
        with open(driver_json) as f:
            d = json.load(f)
        return path, d["seeds"], d["robots"]

    from siteone_crawler_ray.sources.corpus import (
        interleaved_from_testdata,
        write_corpus,
    )

    tabs = interleaved_from_testdata(sf_dir)
    if not os.path.exists(os.path.join(path, "_meta.json")):
        write_corpus(tabs["documents"], path, num_buckets=128)
    _CORPUS_CACHE[sf_dir] = path
    seeds = tabs["seeds"]["url"].to_pylist()
    robots = dict(zip(tabs["robots"]["host"].to_pylist(), tabs["robots"]["body"].to_pylist()))
    with open(driver_json, "w") as f:
        json.dump({"seeds": seeds, "robots": robots}, f)
    return path, seeds, robots


_CRAWL_RESULTS: dict[str, Any] = {}
_REPORT_TABLE_CACHE: dict[str, dict] = {}
_TABS_CACHE: dict[str, Any] = {}


def _tabs(sf_dir: str):
    """interleaved corpus tables, derived once per (sf_dir, process) —
    several rendered-HTML queries share them."""
    if sf_dir not in _TABS_CACHE:
        from siteone_crawler_ray.sources.corpus import interleaved_from_testdata

        _TABS_CACHE[sf_dir] = interleaved_from_testdata(sf_dir)
    return _TABS_CACHE[sf_dir]


def _workdir_for(sf_dir: str) -> str:
    return os.path.join("/tmp", f"graft_crawl_{_corpus_key(sf_dir)}")


def _crawl_for(sf_dir: str):
    """Crawl once per sf_dir per process; report queries share the result."""
    if sf_dir not in _CRAWL_RESULTS:
        _CRAWL_RESULTS[sf_dir] = _run_crawl(sf_dir)
    return _CRAWL_RESULTS[sf_dir]


def _visited_ds(res, columns=None):
    """Visited rows as a streaming multi-block Dataset read straight from
    the per-epoch parquet lineage (no driver materialization)."""
    return res.visited_ds(columns=columns)


def _run_crawl(sf_dir: str):
    from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler

    path, seeds, robots = _corpus_for(sf_dir)
    workdir = _workdir_for(sf_dir)
    import shutil

    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    # multi-host corpus: allow all hosts via the reference's
    # --allowed-domain wildcard semantics (crawler.rs:1871-1880)
    cfg = CrawlConfig(allowed_domains_crawl=("*",), allowed_domains_static=("*",),
                      max_visited_urls=10_000_000, max_queue_length=10_000_000)
    return EpochCrawler(path, seeds, robots, workdir, cfg).run()


def entry() -> Any:
    """Flagship: epoch crawl over the sf0.001-derived interleaved corpus →
    visited dataset (ordered by canonical crawl seq)."""
    import ray.data as rd

    res = _run_crawl("/root/testdata/sf0.001")
    t = res.visited_table(
        columns=["seq", "uq_id", "url", "url_key", "host", "depth", "source_uq_id",
                 "source_attr", "status_code", "content_type", "request_time", "size",
                 "epoch", "title"]
    )
    return rd.from_arrow(t)


def queries() -> dict[str, Callable[[str], Any]]:
    from siteone_crawler_ray.pipelines import curation as C
    from siteone_crawler_ray.pipelines import relational as R
    from siteone_crawler_ray.pipelines import reports as RP

    # -- crawl family -------------------------------------------------------

    def crawl_visited_set(sf_dir: str):
        """Oracle-checkable projection of the flagship crawl: the visited
        URL set with BFS min-depth, status and content type — DuckDB
        re-derives it from ``documents`` via a recursive CTE."""
        import pyarrow as pa

        res = _crawl_for(sf_dir)
        t = res.visited_table(columns=["url", "depth", "status_code", "content_type"])
        return pa.table({
            "url": t["url"],
            "depth": t["depth"].cast(pa.int64()),
            "status_code": t["status_code"].cast(pa.int64()),
            "content_type": t["content_type"].cast(pa.int64()),
        })

    def crawl_visited(sf_dir: str):
        """Full flagship result incl. crawl order (seq) and lineage
        columns — covered by the sequential-oracle parity pytest suite;
        seq/epoch are not SQL-expressible (politeness interleaving)."""
        res = _crawl_for(sf_dir)
        return res.visited_table(
            columns=["seq", "uq_id", "url", "depth", "source_attr", "status_code",
                     "content_type", "epoch"]
        )

    def flat_visit_stats(sf_dir: str):
        """pure-Ray-Data url-list crawl: stream every corpus URL through
        the fetch actor pool, aggregate by (status, content_type)."""
        import pyarrow as pa
        import ray.data as rd

        from siteone_crawler_ray.functions.agg import grouped_agg
        from siteone_crawler_ray.pipelines.flat import flat_crawl

        path, seeds, _ = _corpus_for(sf_dir)
        docs = _tabs(sf_dir)["documents"]
        t = pa.table({"url": docs["doc_id"]})
        step = max(1, -(-t.num_rows // 16))
        urls = rd.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)])
        # no select_columns here: on a computed (actor-stage) dataset it
        # triggers a schema-validation limit-1 execution that re-runs
        # the fetch; the grouped_agg partial only touches its key
        # columns anyway
        ds = flat_crawl(path, urls, concurrency=4)
        out = grouped_agg(ds, ["status_code", "content_type"], [("n", None, "count")])
        return pa.table({
            "status_code": out["status_code"].cast(pa.int64()),
            "content_type": out["content_type"].cast(pa.int64()),
            "n": out["n"],
        })

    def crawl_span_kinds(sf_dir: str):
        """span-explosion operator: count exploded link/asset spans by kind."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data as rd

        from siteone_crawler_ray.functions.agg import grouped_agg
        tabs = _tabs(sf_dir)

        def kinds(batch: pa.Table) -> pa.Table:
            spans = batch["spans"]
            if isinstance(spans, pa.ChunkedArray):
                spans = spans.combine_chunks()
            flat = pc.list_flatten(spans)
            return pa.table({"kind": flat.field("kind")})

        docs = tabs["documents"]
        step = max(1, -(-docs.num_rows // 16))
        ds = rd.from_arrow([docs.slice(i, step) for i in range(0, docs.num_rows, step)])
        return grouped_agg(ds.map_batches(kinds, batch_format="pyarrow"),
                           ["kind"], [("n", None, "count")])

    # -- post-crawl report tables (oracled over the visited parquet) --------
    # every report table computes once per (sf_dir, process); the JSON
    # report reuses the same results (reference analyzers likewise run
    # once per crawl and feed every output format)

    def _rq(fn, columns=None, **kw):
        def q(sf_dir: str):
            cache = _REPORT_TABLE_CACHE.setdefault(sf_dir, {})
            key = fn.__name__
            if key not in cache:
                res = _crawl_for(sf_dir)
                cache[key] = fn(_visited_ds(res, columns=columns), **kw)
            return cache[key]
        return q

    _q404 = _rq(RP.page404_table)
    _qred = _rq(RP.redirects_table)

    def report_broken(sf_dir: str):
        """page404_table + redirects_table tagged into one
        (section, url, target, found_on) slot (404 rows carry an empty
        target) — merged to stay under the 50-slot recorder cap."""
        import pyarrow as pa

        a = _q404(sf_dir)
        r = _qred(sf_dir)
        return pa.table({
            "section": pa.array(["404"] * a.num_rows + ["redirect"] * r.num_rows,
                                pa.string()),
            "url": pa.concat_arrays(
                [a["url"].combine_chunks(), r["url"].combine_chunks()]),
            "target": pa.concat_arrays(
                [pa.array([""] * a.num_rows, pa.string()),
                 r["target"].combine_chunks()]),
            "found_on": pa.concat_arrays(
                [a["found_on"].combine_chunks(), r["found_on"].combine_chunks()]),
        })

    def report_skipped(sf_dir: str):
        return RP.skipped_by_reason_table(_crawl_for(sf_dir).skipped)

    def report_basic_stats(sf_dir: str):
        return RP.basic_stats(_visited_ds(_crawl_for(sf_dir)))

    # -- rows-only crawl-side pipelines -------------------------------------

    def report_external_links(sf_dir: str):
        import ray.data as rd

        from siteone_crawler_ray.pipelines.reports import external_links_table
        tabs = _tabs(sf_dir)
        docs = tabs["documents"]
        step = max(1, -(-docs.num_rows // 16))
        ds = rd.from_arrow([docs.slice(i, step) for i in range(0, docs.num_rows, step)])
        seed_host = tabs["seeds"]["url"].to_pylist()[0].split("/")[2]
        return external_links_table(ds, seed_host)

    def json_report(sf_dir: str):
        """full 8-key JSON report + quality-score CI gate → one
        (key, value) summary table, CANONICALIZED to be fully DuckDB-
        recomputable (oracle_sql has a matching entry): top-level
        section sizes, per-SuperTable row counts (after the 200/20/10
        row caps), the five category scores + weighted total + gate
        exit code, and the modern-format support counts.  The HTML and
        text writers still render from the same cached tables (byte
        lengths are asserted > 0 but excluded from the compared table —
        template length is not SQL-derivable); the DuckDB self-check
        asserts below also still run at any sf_dir."""
        import os as _os

        import pyarrow as pa

        from siteone_crawler_ray.pipelines import scoring as SC
        from siteone_crawler_ray.pipelines.report_json import write_report_json

        res = _crawl_for(sf_dir)
        cache = _REPORT_TABLE_CACHE.setdefault(sf_dir, {})
        path = _os.path.join("/tmp", f"graft_report_{_os.path.basename(sf_dir)}.json")
        rep = write_report_json(res, _visited_ds(res), path, table_cache=cache)
        keys = sorted(rep)
        vals = [float(len(rep[k]) if hasattr(rep[k], "__len__") else 1) for k in keys]
        # per-SuperTable row counts (post rows-limit) — the oracle SQL
        # recomputes each from the visited/skipped parquet
        for blk in rep["tables"]:
            keys.append(f"tables:{blk['aplCode']}")
            vals.append(float(len(blk["rows"])))

        findings = SC.findings_from_reports(
            cache["page_findings"], cache["count_by_status"]
        )
        srep = SC.score(findings)
        code, _ = SC.ci_gate(srep, findings, 0, SC.CiGateConfig(min_quality_score=0.0))
        for cat in sorted(srep.scores):
            keys.append(f"score:{cat}")
            vals.append(float(srep.scores[cat]))
        # weighted total from the (exactly-representable) category
        # scores — identical float64 arithmetic to the oracle SQL;
        # srep.total is the same value rounded to 2dp (asserted)
        total = sum(srep.scores[c] * w for c, w in SC.CATEGORY_WEIGHTS.items()) / sum(
            SC.CATEGORY_WEIGHTS.values())
        assert round(total, 2) == srep.total, (total, srep.total)
        keys += ["score:total", "gate:exit_code"]
        vals += [float(total), float(code)]
        # brotli/webp/avif adoption checks (best_practice_analyzer.rs:864-960)
        support = RP.modern_support_table(_visited_ds(res))
        for chk, ok in zip(support["check"].to_pylist(), support["n_ok"].to_pylist()):
            keys.append(f"support:{chk}")
            vals.append(float(ok))
        # text + HTML writers render from the same cached report dict
        from siteone_crawler_ray.pipelines.report_html import write_html_report
        from siteone_crawler_ray.pipelines.report_text import write_text_report

        html = write_html_report(res, _visited_ds(res),
                                 path.replace(".json", ".html"), table_cache=cache)
        txt = write_text_report(res, _visited_ds(res),
                                path.replace(".json", ".txt"), table_cache=cache)
        # rendered byte lengths are template-dependent (not
        # SQL-derivable) — assert the writers produced output instead
        # of putting the lengths in the compared table
        assert len(html) > 0 and len(txt) > 0

        # SELF-CHECK (the driver records rows-only for this composite
        # slot): re-derive section sizes through DuckDB SQL over the
        # visited parquet — an independent code path from the Ray
        # report pipelines — and fail the slot on any mismatch.
        import duckdb

        glob = _os.path.join(res.visited_dir, "*", "*.parquet")
        con = duckdb.connect()
        n_visited = con.execute(
            f"SELECT count(*) FROM read_parquet('{glob}')").fetchone()[0]
        assert len(rep["results"]) == n_visited, (len(rep["results"]), n_visited)
        assert int(rep["stats"]["total_urls"]) == n_visited
        blocks = {t["aplCode"]: t for t in rep["tables"]}
        n_ct = con.execute(
            f"SELECT count(DISTINCT content_type) FROM read_parquet('{glob}')"
        ).fetchone()[0]
        assert len(blocks["content-types"]["rows"]) == min(n_ct, 200)
        n404 = con.execute(
            f"SELECT count(*) FROM read_parquet('{glob}') WHERE status_code = 404"
        ).fetchone()[0]
        assert len(blocks["404-pages"]["rows"]) == min(n404, 200)
        con.close()
        return pa.table({"key": pa.array(keys, pa.string()), "value": pa.array(vals, pa.float64())})

    def markdown_pages(sf_dir: str):
        from siteone_crawler_ray.stages.export import spans_to_markdown

        res = _crawl_for(sf_dir)
        return _visited_ds(res, columns=["url", "spans"]).map_batches(
            spans_to_markdown, batch_format="pyarrow"
        )

    def html_markdown(sf_dir: str):
        """live-HTML→Markdown conversion (html_to_markdown.rs analogue)
        over rendered corpus pages."""
        import pyarrow as pa
        import ray.data as rd

        from siteone_crawler_ray.functions.html_extract import spans_to_html
        from siteone_crawler_ray.functions.html_markdown import html_to_markdown_batch
        docs = _tabs(sf_dir)["documents"]

        def render(batch: pa.Table) -> pa.Table:
            return pa.table({
                "url": batch["doc_id"],
                "body": pa.array([spans_to_html(r) for r in batch["spans"].to_pylist()], pa.string()),
            })

        step = max(1, -(-docs.num_rows // 16))
        ds = rd.from_arrow([docs.slice(i, step) for i in range(0, docs.num_rows, step)])
        return ds.map_batches(render, batch_format="pyarrow").map_batches(
            html_to_markdown_batch, batch_format="pyarrow"
        )

    def offline_export(sf_dir: str):
        """Offline-website exporter: rendered corpus HTML → attribute-
        aware URL rewriting to relative offline paths + per-page export
        path (+ redirect stubs for 3xx pages) — an actor-pool stage
        (functions/offline.py, parity fixtures in tests/test_offline.py)."""
        import hashlib as _hashlib

        import pyarrow as pa
        import ray.data as rd

        from siteone_crawler_ray.functions.html_extract import spans_to_html
        from siteone_crawler_ray.functions.offline import OfflineRewriter, redirect_stub_html
        tabs = _tabs(sf_dir)
        docs = tabs["documents"]
        initial = tabs["seeds"]["url"].to_pylist()[0]

        def render(batch: pa.Table) -> pa.Table:
            rows = batch["spans"].to_pylist()
            bodies, urls, is_red = [], [], []
            for u, r in zip(batch["doc_id"].to_pylist(), rows):
                urls.append(u)
                red = bool(r) and r[0]["kind"] == "redirect"
                is_red.append(red)
                bodies.append(redirect_stub_html(r[0]["media_ref"]) if red else spans_to_html(r))
            return pa.table({"url": pa.array(urls, pa.string()),
                             "body": pa.array(bodies, pa.string()),
                             "is_redirect": pa.array(is_red, pa.bool_())})

        def summarize(batch: pa.Table) -> pa.Table:
            return pa.table({
                "url": batch["url"],
                "offline_path": batch["offline_path"],
                "body_md5": pa.array(
                    [_hashlib.md5(b.encode()).hexdigest()[:12]
                     for b in batch["body"].to_pylist()], pa.string()),
                "n_bytes": pa.array([len(b) for b in batch["body"].to_pylist()], pa.int64()),
            })

        step = max(1, -(-docs.num_rows // 16))
        ds = rd.from_arrow([docs.slice(i, step) for i in range(0, docs.num_rows, step)])
        return (
            ds.map_batches(render, batch_format="pyarrow")
            .drop_columns(["is_redirect"])
            .map_batches(
                OfflineRewriter, batch_format="pyarrow", concurrency=2,
                fn_constructor_kwargs={"initial_url": initial, "allowed_crawl": ("*",)},
            )
            .map_batches(summarize, batch_format="pyarrow")
        )

    def html_link_extract(sf_dir: str):
        """live-HTML mode: render corpus docs to HTML, run the regex
        battery (functions/html_extract.py), count per source_attr."""
        import pyarrow as pa
        import ray.data as rd

        from siteone_crawler_ray.functions.agg import grouped_agg
        from siteone_crawler_ray.functions.html_extract import html_extract_batch, spans_to_html
        tabs = _tabs(sf_dir)

        def render(batch: pa.Table) -> pa.Table:
            spans = batch["spans"].to_pylist()
            return pa.table({
                "url": batch["doc_id"],
                "body": pa.array([spans_to_html(r) for r in spans], pa.string()),
            })

        docs = tabs["documents"]
        step = max(1, -(-docs.num_rows // 16))
        ds = rd.from_arrow([docs.slice(i, step) for i in range(0, docs.num_rows, step)])
        return grouped_agg(
            ds.map_batches(render, batch_format="pyarrow").map_batches(
                html_extract_batch, batch_format="pyarrow"
            ),
            ["source_attr"], [("n", None, "count")],
        )

    def page_checks(sf_dir: str):
        """§2.10 SEO/accessibility/security/best-practice analyzers over
        rendered corpus HTML → finding-count summary."""
        import pyarrow as pa
        import ray.data as rd

        from siteone_crawler_ray.functions.html_extract import spans_to_html
        from siteone_crawler_ray.functions.page_checks import findings_summary, page_checks_batch
        docs = _tabs(sf_dir)["documents"]

        def render(batch: pa.Table) -> pa.Table:
            return pa.table({
                "url": batch["doc_id"],
                "body": pa.array([spans_to_html(r) for r in batch["spans"].to_pylist()], pa.string()),
            })

        step = max(1, -(-docs.num_rows // 16))
        ds = rd.from_arrow([docs.slice(i, step) for i in range(0, docs.num_rows, step)])
        return findings_summary(
            ds.map_batches(render, batch_format="pyarrow").map_batches(
                page_checks_batch, batch_format="pyarrow"
            )
        )

    # -- training-data operators --------------------------------------------

    def minhash_pairs(sf_dir: str):
        import os as _os

        import ray.data as rd

        from siteone_crawler_ray.stages.dedup import minhash_dedup_pairs

        ds = rd.read_parquet(_os.path.join(sf_dir, "documents.parquet"),
                             columns=["doc_id", "text"], override_num_blocks=32)
        return minhash_dedup_pairs(ds, threshold=0.5)

    def content_signatures(sf_dir: str):
        """SimHash + winnowing fingerprint + language-ID in one pass
        (doc_id, simhash, fingerprint, winnow_min, lang_pred) — three
        signature kernels share one queries() slot.

        ORACLED: this slot runs the kernels with the md5_u64 hash
        backend (functions/hashing.md5_u64_strings — first 8 bytes of
        MD5, big-endian), which DuckDB reproduces bit-for-bit as
        CAST(CONCAT('0x', SUBSTR(md5(s),1,16)) AS UBIGINT), so the
        whole row (simhash bit-votes, full-text fingerprint, winnowed
        shingle min, stopword-argmax language) is SQL-recomputable.
        The production scale path keeps vectorized xxh64 (same code,
        default hasher; pytest pins both backends).  Belt-and-braces:
        every batch ALSO re-derives a deterministic row sample
        (doc_id % 97 == 0, ≤4 rows/batch) through the independent
        scalar reference kernels (functions/reference_kernels.py) and
        raises on any mismatch."""
        import os as _os

        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from siteone_crawler_ray.functions import reference_kernels as RK
        from siteone_crawler_ray.functions.hashing import md5_u64, md5_u64_strings
        from siteone_crawler_ray.stages.dedup import simhash_batch
        from siteone_crawler_ray.stages.textstats import fingerprints, langid

        def _selfcheck(b, sim_u64, fp_u64, win_u64, lang):
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            sel = np.nonzero(ids % 97 == 0)[0][:4]
            texts = b["text"].take(pa.array(sel)).to_pylist()
            for j, t in zip(sel, texts):
                got = (int(sim_u64[j]), int(fp_u64[j]), int(win_u64[j]), lang[j])
                want = (RK.simhash_ref(t, hasher=md5_u64),
                        RK.fingerprint_ref(t, hasher=md5_u64),
                        RK.winnow_min_ref(t, hasher=md5_u64), RK.langid_ref(t))
                if got != want:
                    raise AssertionError(
                        f"content_signatures self-check failed for doc_id="
                        f"{ids[j]}: vectorized={got} reference={want}")

        def combined(b: pa.Table) -> pa.Table:
            sim = simhash_batch(b, hasher=md5_u64_strings)
            fp = fingerprints(b, hasher=md5_u64_strings)
            lg = langid(b)
            _selfcheck(
                b,
                sim["simhash"].to_numpy(zero_copy_only=False),
                fp["fingerprint"].to_numpy(zero_copy_only=False),
                fp["winnow_min"].to_numpy(zero_copy_only=False),
                lg["lang_pred"].to_pylist(),
            )
            return pa.table({
                "doc_id": b["doc_id"],
                "simhash": pa.array(
                    sim["simhash"].to_numpy(zero_copy_only=False).view("int64")),
                "fingerprint": pa.array(
                    fp["fingerprint"].to_numpy(zero_copy_only=False).view("int64")),
                "winnow_min": pa.array(
                    fp["winnow_min"].to_numpy(zero_copy_only=False).view("int64")),
                "lang_pred": lg["lang_pred"],
            })

        return rd.read_parquet(_os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"], override_num_blocks=32
                               ).map_batches(combined, batch_format="pyarrow")

    def _page_link_edges(sf_dir: str):
        """(src, dst) doc-id edges extracted by the REAL regex battery
        from the rendered corpus HTML (the html_link_extract path):
        <a href> rows (source_attr 10), absolute page URLs only (the
        corpus' dead links are relative and drop out), both endpoints
        inside the doc-id universe.  Returns (edges Dataset, n)."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data as rd

        from siteone_crawler_ray.functions.html_extract import (
            html_extract_batch,
            spans_to_html,
        )

        docs = _tabs(sf_dir)["documents"]
        n = docs.num_rows
        rx = r"^https://site-(?P<h>\d{3})\.test/p/(?P<p>\d{5})(?:\?.*)?$"

        def render(batch: pa.Table) -> pa.Table:
            spans = batch["spans"].to_pylist()
            return pa.table({
                "url": batch["doc_id"],
                "body": pa.array([spans_to_html(r) for r in spans], pa.string()),
            })

        def edges(batch: pa.Table) -> pa.Table:
            t = html_extract_batch(batch)
            t = t.filter(pc.equal(t["source_attr"], 10))
            s = pc.extract_regex(t["source_url"], rx)
            d_ = pc.extract_regex(t["href"], rx)
            ok = pc.and_(pc.is_valid(s), pc.is_valid(d_))
            s, d_ = s.filter(ok), d_.filter(ok)

            def ids(struct):
                h = pc.cast(pc.struct_field(struct, "h"), pa.int64())
                p = pc.cast(pc.struct_field(struct, "p"), pa.int64())
                return pc.add(pc.multiply(p, 8), h)

            src, dst = ids(s), ids(d_)
            inside = pc.and_(pc.less(src, n), pc.less(dst, n))
            return pa.table({"src": src.filter(inside), "dst": dst.filter(inside)})

        step = max(1, -(-docs.num_rows // 16))
        ds = rd.from_arrow([docs.slice(i, step) for i in range(0, docs.num_rows, step)])
        return (ds.map_batches(render, batch_format="pyarrow")
                  .map_batches(edges, batch_format="pyarrow")), n

    def dup_clusters(sf_dir: str):
        """BOTH graph algorithms over one (method, node, value) table:
        near-dup FAMILIES — MinHash pairs → connected components
        (alternating large-star/small-star rounds) → canonical survivor
        ('component' + 'keep' rows) — and distributed PageRank over the
        corpus link graph extracted by the live regex battery
        ('pagerank_micro' rows, rank scaled 1e6 with half-up rounding so
        the DuckDB unrolled-CTE oracle matches integer-exactly)."""
        import os as _os

        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from siteone_crawler_ray.stages.dedup import near_dup_clusters
        from siteone_crawler_ray.stages.graph import pagerank

        ds = rd.read_parquet(_os.path.join(sf_dir, "documents.parquet"),
                             columns=["doc_id", "text"], override_num_blocks=32)
        t = near_dup_clusters(ds, threshold=0.5)

        def rows(method, node, value):
            return pa.table({
                "method": pa.array([method] * len(node), pa.string()),
                "node": pa.array(node, pa.int64()),
                "value": pa.array(value, pa.int64()),
            })

        comp = rows("component", t["doc_id"].to_pylist(), t["component"].to_pylist())
        keep = rows("keep", t["doc_id"].to_pylist(),
                    t["keep"].cast(pa.int64()).to_pylist())
        edges_ds, n = _page_link_edges(sf_dir)
        pr = pagerank(edges_ds, n, iters=10)
        micro = np.floor(pr["rank"].to_numpy() * 1e6 + 0.5).astype(np.int64)
        prt = rows("pagerank_micro", pr["node"].to_pylist(), micro)
        return pa.concat_tables([comp, keep, prt])

    def ann_knn(sf_dir: str):
        """ANN machinery end-to-end, DuckDB-oracled: both scale paths
        run in EXHAUSTIVE configurations that are exact by construction
        — IVF through the real cell-partitioned parquet index with
        nprobe = nlist (every cell probed: build → partitioned write →
        probe read → rerank → merge), LSH-bucketed with nbits=0 (one
        bucket: emit → partitioned exchange → pair → rerank).  Exact ⇒
        both equal brute-force cosine top-10, which SQL can express.
        RECALL of the approximate configurations (nprobe < nlist,
        nbits > 0) is measured in tests/test_training_ops.py."""
        import os as _os
        import shutil as _shutil
        import tempfile as _tempfile

        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray.data as rd

        from siteone_crawler_ray.stages.similarity import (
            ivf_build_index,
            ivf_query_index,
            knn_lsh_bucketed,
        )

        q = (
            pq.read_table(_os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])
            .filter(pc.equal(pc.field("vec_id"), 0))["embedding"]
            .to_pylist()[0]
        )

        def _ds():
            return rd.read_parquet(_os.path.join(sf_dir, "embeddings.parquet"),
                                   columns=["vec_id", "embedding"], override_num_blocks=16)

        nlist = 16
        idx_dir = _tempfile.mkdtemp(prefix="graft_ivf_idx_")
        try:
            ivf_build_index(_ds(), idx_dir, nlist=nlist)
            ivf = ivf_query_index(idx_dir, np.array(q), k=10, nprobe=nlist)
        finally:
            _shutil.rmtree(idx_dir, ignore_errors=True)
        # bucket co-located exchange path (pytest-proven identical to the
        # broadcast-scan knn_lsh on any input)
        lsh = knn_lsh_bucketed(_ds(), np.array(q), k=10, nbits=0, ntables=1)
        return pa.table({
            "which": pa.array(["ivf"] * ivf.num_rows + ["lsh"] * lsh.num_rows, pa.string()),
            "vec_id": pa.concat_arrays([ivf["vec_id"].combine_chunks(),
                                        lsh["vec_id"].combine_chunks()]),
            "rank": pa.concat_arrays([ivf["rank"].combine_chunks().cast(pa.int64()),
                                      lsh["rank"].combine_chunks().cast(pa.int64())]),
        })

    def media_stages(sf_dir: str):
        """REAL multimodal decode end-to-end: BMP / PNG / JPEG / GIF /
        lossless-WebP / baseline-TIFF images (the container cycles per
        image row), WAV-PCM / FLAC audio, and MP4 video frame-sampling
        with the pure-Python codecs (decoder='real' on all three
        modalities; MP4 frame counts + durations come from a real
        stbl sample-table walk, frame payloads stay opaque).  One row
        per media item with analytic content (stages/multimodal.py
        synthesize_real_media_table; JPEG rows are constant-color at
        quality 100 = DC-only = exact, GIF, VP8L and TIFF are
        lossless) so the DuckDB oracle recomputes every value
        arithmetically."""
        import pyarrow as pa
        import ray.data as rd

        from siteone_crawler_ray.stages.multimodal import (
            AudioFrameSampleStage,
            ImageDecodeStage,
            VideoFrameSampleStage,
            decode_pipeline,
            synthesize_real_media_table,
        )

        media = synthesize_real_media_table(240)
        ds = rd.from_arrow([media.slice(i, 30) for i in range(0, media.num_rows, 30)])
        img = decode_pipeline(ds, "image", ImageDecodeStage, concurrency=2, decoder="real")
        aud = decode_pipeline(ds, "audio", AudioFrameSampleStage, concurrency=2, decoder="real")
        vid = decode_pipeline(ds, "video", VideoFrameSampleStage, concurrency=2, frames=8,
                              decoder="real")

        def img_row(b: pa.Table) -> pa.Table:
            feats = b["features"].to_pylist()
            return pa.table({
                "media_id": b["media_id"], "kind": pa.array(["image"] * b.num_rows),
                "width": b["width"].cast(pa.int64()), "height": b["height"].cast(pa.int64()),
                "mean_pixel": pa.array([int(round(f[0] * 255)) for f in feats], pa.int64()),
                "duration_us": pa.array([0] * b.num_rows, pa.int64()),
                "rms_energy": pa.array([0] * b.num_rows, pa.int64()),
                "n_frames": pa.array([0] * b.num_rows, pa.int64()),
            })

        def aud_row(b: pa.Table) -> pa.Table:
            fe = b["frame_energy"].to_pylist()
            durs = b["duration_sec"].to_pylist()
            return pa.table({
                "media_id": b["media_id"], "kind": pa.array(["audio"] * b.num_rows),
                "width": pa.array([0] * b.num_rows, pa.int64()),
                "height": pa.array([0] * b.num_rows, pa.int64()),
                "mean_pixel": pa.array([0] * b.num_rows, pa.int64()),
                "duration_us": pa.array([int(round(d * 1e6)) for d in durs], pa.int64()),
                "rms_energy": pa.array([int(round(e[0])) for e in fe], pa.int64()),
                "n_frames": pa.array([0] * b.num_rows, pa.int64()),
            })

        vid_counts = (
            vid.map_batches(
                lambda b: pa.table({
                    "media_id": b["media_id"],
                    "one": pa.array([1] * b.num_rows, pa.int64()),
                    "dur_us": pa.array(
                        [int(round(d * 1e6)) for d in b["duration_sec"].to_pylist()],
                        pa.int64()),
                }),
                batch_format="pyarrow",
            )
        )
        from siteone_crawler_ray.functions.agg import collect_blocks as _cb
        vt = pa.concat_tables(_cb(vid_counts)).group_by("media_id").aggregate(
            [("one", "sum"), ("dur_us", "max")])

        def vid_row(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({
                "media_id": t["media_id"], "kind": pa.array(["video"] * n),
                "width": pa.array([0] * n, pa.int64()), "height": pa.array([0] * n, pa.int64()),
                "mean_pixel": pa.array([0] * n, pa.int64()),
                "duration_us": t["dur_us_max"].cast(pa.int64()),
                "rms_energy": pa.array([0] * n, pa.int64()),
                "n_frames": t["one_sum"].cast(pa.int64()),
            })

        # perceptual-hash leg: 24 analytic 32x32 sawtooth images in
        # lossless containers (BMP/PNG/GIF/WebP/TIFF cycle) through the
        # decode+pHash actor stage; the oracle rebuilds the pixels from
        # the closed form and recomputes both hashes bit-for-bit via
        # the embedded fixed-point cosine table (stages/phash.py)
        import numpy as _np

        from siteone_crawler_ray.stages.phash import (
            ImagePHashStage,
            synthesize_phash_media_table,
        )

        pmedia = synthesize_phash_media_table(24)
        pds = rd.from_arrow([pmedia.slice(i, 6) for i in range(0, pmedia.num_rows, 6)])
        phashed = pds.map_batches(ImagePHashStage, batch_format="pyarrow", concurrency=2)

        def ph_row(b: pa.Table) -> pa.Table:
            n = b.num_rows
            z = pa.array([0] * n, pa.int64())
            s64 = lambda col: pa.array(  # noqa: E731 — uint64 bits as signed int64
                b[col].to_numpy(zero_copy_only=False).astype(_np.uint64).view(_np.int64),
                pa.int64())
            return pa.table({
                "media_id": b["media_id"], "kind": pa.array(["phash"] * n),
                "width": b["width"], "height": b["height"],
                "mean_pixel": z, "duration_us": z, "rms_energy": z, "n_frames": z,
                "phash": s64("phash"), "dhash": s64("dhash"),
            })

        parts = (
            _cb(img.map_batches(img_row, batch_format="pyarrow"))
            + _cb(aud.map_batches(aud_row, batch_format="pyarrow"))
            + [vid_row(vt)]
        )
        out = pa.concat_tables(parts)
        zeros = pa.array([0] * out.num_rows, pa.int64())
        out = out.append_column("phash", zeros).append_column("dhash", zeros)
        out = pa.concat_tables(
            [out] + _cb(phashed.map_batches(ph_row, batch_format="pyarrow")))
        import pyarrow.compute as pc
        return out.take(pc.sort_indices(out, sort_keys=[("media_id", "ascending")]))

    return {
        # ---- oracle-backed block (checked first) --------------------------
        # crawl family (SURVEY §2.1, §2.3, §2.9)
        "crawl_visited_set": crawl_visited_set,
        "flat_visit_stats": flat_visit_stats,
        "crawl_span_kinds": crawl_span_kinds,
        # post-crawl analyzer battery (SURVEY §2.5, §2.10) over the
        # visited parquet lineage
        "report_basic_stats": report_basic_stats,
        "report_status_counts": _rq(RP.count_by_status),
        "report_content_types": _rq(RP.content_type_table),
        "report_source_domains": _rq(RP.source_domains_table),
        "report_speed": _rq(RP.speed_table),
        "report_title_dups": _rq(RP.title_uniqueness_table),
        "report_broken": report_broken,
        "report_headers": _rq(RP.headers_inventory_table),
        "report_caching": _rq(RP.caching_table),
        "report_sitemap": _rq(RP.sitemap_urls),
        "report_skipped": report_skipped,
        # groupby-agg / top-k / join / window shapes (SURVEY §2.4-2.6, §2.9)
        "pricing_summary": R.pricing_summary,
        "global_stats": R.global_stats,
        "user_type_stats": R.user_type_stats,
        "docs_stats": R.docs_stats,
        "returned_by_supplier": R.returned_by_supplier,
        "bucket_counts": R.bucket_counts,
        "events_topk": R.events_topk,
        "p90_by_type": R.p90_by_type,
        "segment_join": R.segment_join,
        "range_join_count": R.range_join_count,
        "top_order_per_segment": R.top_order_per_segment,
        "customers_without_events": R.customers_without_events,
        "supplier_part_stats": R.supplier_part_stats,
        "window_aggregates": R.window_aggregates,
        # training-data ops over documents/embeddings
        "exact_dedup": R.exact_dedup_table,
        "text_metrics": R.text_metrics,
        "knn_top10": R.knn_top10,
        "embedding_checks": R.embedding_checks,
        # corpus curation (SURVEY §2.7b: sampling / quota / n-gram /
        # chunking / decontamination; scrubbing rides text_metrics)
        "corpus_sample": C.corpus_sample,
        "ngram_topk": C.ngram_and_bm25,
        "doc_chunks": C.doc_chunk_table,
        "decontaminate": C.decontaminate_table,
        "packed_sequences": C.packed_sequences,
        # ---- rows-only block ----------------------------------------------
        # (crawl order/seq lives in the sequential-oracle parity pytest
        # suite — the crawl_visited slot was folded into crawl_visited_set
        # to stay under the driver's 50-slot recorder cap)
        "report_findings": _rq(RP.page_findings),
        "report_external_links": report_external_links,
        "json_report": json_report,
        "markdown_pages": markdown_pages,
        "html_markdown": html_markdown,
        "offline_export": offline_export,
        "html_link_extract": html_link_extract,
        "page_checks": page_checks,
        "minhash_pairs": minhash_pairs,
        "dup_clusters": dup_clusters,
        "content_signatures": content_signatures,
        "ann_knn": ann_knn,
        "media_stages": media_stages,
    }


def _oracle_paths() -> tuple[str, str]:
    """Deterministic visited/skipped parquet globs for the correctness
    sf_dir (driver contract: sf0.01; override with GRAFT_ORACLE_SF for
    local runs at other scales)."""
    sf = os.environ.get("GRAFT_ORACLE_SF", "/root/testdata/sf0.01")
    wd = _workdir_for(sf)
    return (os.path.join(wd, "visited", "*", "*.parquet"),
            os.path.join(wd, "shards", "*", "skips-*.parquet"))


# 10-step unrolled PageRank CTE chain (dup_clusters oracle): DuckDB
# forbids aggregates in a recursive term, so each iteration is its own
# CTE — r_{k+1}(v) = (1-d)/N + d * sum over incoming edges of r_k/deg,
# the exact rule stages/graph.py::pagerank computes distributed.
# MATERIALIZED: each r_{k+1} reads r_k twice, and DuckDB 1.0.0 inlines
# a plain CTE at every reference, so the plan held 2^10 chain copies.
_PAGERANK_ITERS = 10
_PAGERANK_CHAIN = ",\n            ".join(
    f"r{i + 1} AS MATERIALIZED (SELECT v.id, (1 - 0.85) / p.n + 0.85 * COALESCE(c.s, 0) AS r "
    f"FROM r{i} v CROSS JOIN nd p LEFT JOIN ("
    f"SELECT e.dst AS id, sum(rr.r / dg.deg) AS s FROM pedges e "
    f"JOIN r{i} rr ON rr.id = e.src JOIN pdeg dg ON dg.src = e.src "
    f"GROUP BY e.dst) c ON c.id = v.id)"
    for i in range(_PAGERANK_ITERS))


def _media_stages_oracle_sql() -> str:
    """media_stages oracle: the arithmetic metadata block over
    range(240) (constant-color images / square-wave audio / counted
    video frames, all closed-form in the row index) UNION the
    perceptual-hash block — DuckDB rebuilds each 32x32 sawtooth image
    from its formula and recomputes the fixed-point-DCT pHash and the
    block-mean dHash bit-for-bit against the embedded cosine table
    (stages/phash.py PH_COS; uint64 hashes compare as their signed
    int64 reinterpretation, bit 63 contributing -2^63)."""
    from siteone_crawler_ray.stages.phash import phash_cos_sql_values

    return f"""
            WITH {phash_cos_sql_values("ct")},
            px AS (
              SELECT t.i AS i, yy.y AS y, xx.x AS x,
                     ((3 + 2*t.i)*xx.x + (5 + 3*t.i)*yy.y + 7*t.i) % 256 AS g
              FROM range(24) t(i), range(32) yy(y), range(32) xx(x)
            ),
            d AS (
              SELECT px.i AS i, cu.u AS u, cv.u AS v,
                     SUM(CAST(cu.c AS BIGINT) * cv.c * px.g) AS dv
              FROM px JOIN ct cu ON cu.x = px.y JOIN ct cv ON cv.x = px.x
              GROUP BY 1, 2, 3
            ),
            med AS (
              SELECT i, max(CASE WHEN rn = 32 THEN dv END) AS med
              FROM (SELECT i, dv, row_number() OVER (PARTITION BY i ORDER BY dv) AS rn
                    FROM d WHERE NOT (u = 0 AND v = 0)) GROUP BY i
            ),
            ph AS (
              SELECT d.i AS i,
                     CAST(SUM(CASE WHEN d.dv > med.med THEN
                         CASE WHEN d.u*8 + d.v = 63
                              THEN CAST(-9223372036854775808 AS HUGEINT)
                              ELSE CAST(1::BIGINT << CAST(d.u*8 + d.v AS INT) AS HUGEINT)
                         END ELSE 0 END) AS BIGINT) AS phash
              FROM d JOIN med ON med.i = d.i GROUP BY 1
            ),
            h8 AS (
              SELECT i, y//4 AS by, x//4 AS bx, SUM(g)//16 AS hval
              FROM px GROUP BY 1, 2, 3
            ),
            dh AS (
              SELECT a.i AS i,
                     CAST(SUM(CASE WHEN a.hval > b.hval THEN
                         CASE WHEN a.by*8 + a.bx = 63
                              THEN CAST(-9223372036854775808 AS HUGEINT)
                              ELSE CAST(1::BIGINT << CAST(a.by*8 + a.bx AS INT) AS HUGEINT)
                         END ELSE 0 END) AS BIGINT) AS dhash
              FROM h8 a JOIN h8 b ON b.i = a.i AND b.by = a.by AND b.bx = (a.bx + 1) % 8
              GROUP BY 1
            )
            SELECT printf('m%05d', CAST(i AS INT)) AS media_id,
                   CASE i % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' ELSE 'video' END AS kind,
                   (CASE WHEN i % 3 = 0 THEN 16 + (i % 8) * 4 ELSE 0 END)::BIGINT AS width,
                   (CASE WHEN i % 3 = 0 THEN 12 + (i % 5) * 4 ELSE 0 END)::BIGINT AS height,
                   (CASE WHEN i % 3 = 0 THEN (i * 7) % 256 ELSE 0 END)::BIGINT AS mean_pixel,
                   (CASE i % 3 WHEN 1 THEN (400 + (i % 7) * 100) * 125
                               WHEN 2 THEN (3 + (i % 5)) * 100000
                               ELSE 0 END)::BIGINT AS duration_us,
                   (CASE WHEN i % 3 = 1 THEN 1000 + 10 * i ELSE 0 END)::BIGINT AS rms_energy,
                   (CASE WHEN i % 3 = 2 THEN 3 + (i % 5) ELSE 0 END)::BIGINT AS n_frames,
                   0::BIGINT AS phash, 0::BIGINT AS dhash
            FROM range(240) t(i)
            UNION ALL
            SELECT printf('p%05d', CAST(p.i AS INT)) AS media_id, 'phash' AS kind,
                   32::BIGINT AS width, 32::BIGINT AS height,
                   0::BIGINT AS mean_pixel, 0::BIGINT AS duration_us,
                   0::BIGINT AS rms_energy, 0::BIGINT AS n_frames,
                   ph.phash, dh.dhash
            FROM range(24) p(i) JOIN ph ON ph.i = p.i JOIN dh ON dh.i = p.i
            ORDER BY media_id
        """


def oracle_sql() -> dict[str, str]:
    from siteone_crawler_ray.stages.sketch import (
        cms_oracle_join_sql as _cms_bucket,
        hll_grouped_oracle_sql as _hll_grouped_sql,
        hll_oracle_sql as _hll_oracle_sql,
        sql_splitmix64 as _sm64,
    )

    visited_glob, skipped_glob = _oracle_paths()
    V = f"SELECT * FROM read_parquet('{visited_glob}', hive_partitioning=false)"

    # recursive-CTE BFS over the interleaved corpus' arithmetic link
    # graph (sources/corpus.py interleaved_from_testdata, v4 rules):
    # 8 hosts; page i → host i%8, page-no i//8; redirect docs i%43==11;
    # 6 links (i*31+d*97+1)%n; dead link when i%13==5; 3 assets per
    # page; robots block host 1 page 9 (doc 73).
    crawl_cte = """
        WITH RECURSIVE
        nd AS (SELECT count(*)::BIGINT AS n FROM documents),
        edges AS (
          SELECT d.doc_id AS src, (d.doc_id * 31 + g.d * 97 + 1) % p.n AS dst
          FROM documents d CROSS JOIN nd p CROSS JOIN range(6) g(d)
          WHERE d.doc_id % 43 <> 11
          UNION ALL
          SELECT d.doc_id,
                 CASE WHEN (d.doc_id * 31 + 7) % p.n = d.doc_id
                      THEN (d.doc_id + 1) % p.n
                      ELSE (d.doc_id * 31 + 7) % p.n END
          FROM documents d CROSS JOIN nd p
          WHERE d.doc_id % 43 = 11
        ),
        reach(id, depth) AS (
          SELECT t.h::BIGINT, 0 FROM range(8) t(h)
          UNION
          SELECT e.dst, r.depth + 1
          FROM reach r JOIN edges e ON e.src = r.id
          WHERE r.depth < 40
            AND NOT (e.dst % 8 = 1 AND e.dst // 8 = 9)  -- robots-blocked
        ),
        pages AS (SELECT id, min(depth) AS depth FROM reach GROUP BY id),
        page_rows AS (
          SELECT printf('https://site-%03d.test/p/%05d', id % 8, id // 8)
                 || CASE WHEN (id // 8) % 11 = 3
                         THEN printf('?a=%d&b=%d', (id // 8) % 7, (id // 8) % 5)
                         ELSE '' END AS url,
                 depth,
                 CASE WHEN id % 43 = 11 THEN 301 ELSE 200 END AS status_code,
                 CASE WHEN id % 43 = 11 THEN 9 ELSE 1 END AS content_type
          FROM pages
        ),
        asset_rows AS (
          SELECT url, min(depth) AS depth, min(status_code) AS status_code,
                 min(content_type) AS content_type
          FROM (
            SELECT printf('https://site-%03d.test/static/img/%d.png', id % 8, id % 64) AS url,
                   depth + 1 AS depth, 200 AS status_code, 4 AS content_type
            FROM pages WHERE id % 43 <> 11
            UNION ALL
            SELECT printf('https://site-%03d.test/static/js/chunk-%d.js', id % 8, id % 16),
                   depth + 1, 200, 2 FROM pages WHERE id % 43 <> 11
            UNION ALL
            SELECT printf('https://site-%03d.test/static/css/site.css', id % 8),
                   depth + 1, 200, 3 FROM pages WHERE id % 43 <> 11
            UNION ALL
            SELECT printf('https://site-%03d.test/p/%05d', id % 8, 100000 + id),
                   depth + 1, 404, 10 FROM pages WHERE id % 43 <> 11 AND id % 13 = 5
          ) GROUP BY url
        )
        SELECT url, depth, status_code, content_type FROM page_rows
        UNION ALL
        SELECT url, depth, status_code, content_type FROM asset_rows
    """

    # content_signatures: the slot runs its kernels with the md5_u64
    # backend (first 8 bytes of MD5, big-endian) precisely so DuckDB can
    # recompute every column: simhash = per-bit ±1 votes over
    # whitespace-regex tokens, fingerprint = full-text md5_u64,
    # winnow_min = min over stride-1 8-char shingle hashes, lang_pred =
    # stopword-argmax (ties → lexicographically greatest language,
    # matching Python max() over (score, lang) tuples).  Hash columns
    # are emitted as int64 two's-complement views on both sides.
    from siteone_crawler_ray.stages.textstats import STOPWORDS as _SW

    _sw_values = ", ".join(
        f"('{lg}', '{w}')" for lg in sorted(_SW) for w in sorted(_SW[lg])
    )
    content_sig_sql = r"""
        WITH docs AS (SELECT doc_id, text FROM documents),
        th AS (
          SELECT doc_id, CAST(CONCAT('0x', SUBSTR(md5(w), 1, 16)) AS UBIGINT) AS h
          FROM (SELECT doc_id,
                       unnest(list_filter(string_split_regex(text, '\s+'),
                                          x -> x <> '')) AS w
                FROM docs)
        ),
        bits AS (
          SELECT doc_id, bb.b,
                 SUM(CASE WHEN (h >> bb.b) & 1 = 1 THEN 1 ELSE -1 END) AS s
          FROM th, (SELECT unnest(generate_series(0, 63)) AS b) bb
          GROUP BY doc_id, bb.b
        ),
        sim AS (
          SELECT doc_id,
                 SUM(CASE WHEN s > 0 THEN (CAST(1 AS HUGEINT) << b)
                          ELSE CAST(0 AS HUGEINT) END) AS v
          FROM bits GROUP BY doc_id
        ),
        fp AS (
          SELECT doc_id,
                 CAST(CAST(CONCAT('0x', SUBSTR(md5(text), 1, 16)) AS UBIGINT)
                      AS HUGEINT) AS v
          FROM docs
        ),
        sh AS (
          SELECT doc_id,
                 unnest(generate_series(1, GREATEST(LENGTH(text) - 7, 1))) AS j,
                 text
          FROM docs
        ),
        win AS (
          SELECT doc_id,
                 CAST(MIN(CAST(CONCAT('0x', SUBSTR(md5(SUBSTR(text, j, 8)), 1, 16))
                               AS UBIGINT)) AS HUGEINT) AS v
          FROM sh GROUP BY doc_id
        ),
        ltok AS (
          SELECT doc_id, unnest(string_split(lower(text), ' ')) AS w FROM docs
        ),
        sw(lg, w) AS (VALUES __SW_VALUES__),
        hits AS (
          SELECT t.doc_id, s.lg, COUNT(DISTINCT t.w) AS sc
          FROM ltok t JOIN sw s ON s.w = t.w GROUP BY t.doc_id, s.lg
        ),
        pick AS (
          SELECT doc_id, lg,
                 ROW_NUMBER() OVER (PARTITION BY doc_id
                                    ORDER BY sc DESC, lg DESC) AS rn
          FROM hits
        )
        SELECT d.doc_id AS doc_id,
               CAST(COALESCE(sim.v, 0)
                    - CASE WHEN COALESCE(sim.v, 0) >= 9223372036854775808
                           THEN 18446744073709551616 ELSE 0 END AS BIGINT) AS simhash,
               CAST(fp.v - CASE WHEN fp.v >= 9223372036854775808
                                THEN 18446744073709551616 ELSE 0 END AS BIGINT) AS fingerprint,
               CAST(win.v - CASE WHEN win.v >= 9223372036854775808
                                 THEN 18446744073709551616 ELSE 0 END AS BIGINT) AS winnow_min,
               COALESCE(p.lg, 'und') AS lang_pred
        FROM docs d
        LEFT JOIN sim ON sim.doc_id = d.doc_id
        JOIN fp ON fp.doc_id = d.doc_id
        JOIN win ON win.doc_id = d.doc_id
        LEFT JOIN pick p ON p.doc_id = d.doc_id AND p.rn = 1
    """.replace("__SW_VALUES__", _sw_values)

    return {
        # ---- crawl family ------------------------------------------------
        "crawl_visited_set": crawl_cte,
        "content_signatures": content_sig_sql,
        "flat_visit_stats": """
            SELECT CASE WHEN doc_id % 43 = 11 THEN 301 ELSE 200 END AS status_code,
                   CASE WHEN doc_id % 43 = 11 THEN 9 ELSE 1 END AS content_type,
                   count(*) AS n
            FROM documents GROUP BY 1, 2
        """,
        "crawl_span_kinds": """
            WITH c AS (
              SELECT count(*) FILTER (WHERE doc_id % 43 = 11) AS nr,
                     count(*) FILTER (WHERE doc_id % 43 <> 11) AS np,
                     count(*) FILTER (WHERE doc_id % 43 <> 11 AND doc_id % 13 = 5) AS nd
              FROM documents)
            SELECT kind, n FROM (
              SELECT 'redirect' AS kind, nr AS n FROM c
              UNION ALL SELECT 'title', np FROM c
              UNION ALL SELECT 'text', np FROM c
              UNION ALL SELECT 'link', np * 6 + nd FROM c
              UNION ALL SELECT 'img', np FROM c
              UNION ALL SELECT 'script', np FROM c
              UNION ALL SELECT 'css', np FROM c
            ) WHERE n > 0
        """,
        # ---- report tables over the engine's visited parquet -------------
        "report_basic_stats": f"""
            WITH v AS ({V}),
            h AS (SELECT request_time FROM v WHERE content_type = 1 AND status_code = 200),
            pr AS (SELECT request_time AS t,
                          row_number() OVER (ORDER BY request_time) - 1 AS r,
                          count(*) OVER () AS n
                   FROM h)
            SELECT count(*) AS total_urls,
                   sum(size)::BIGINT AS total_size,
                   round(sum(round(request_time * 100000)) / 100000.0, 3) AS total_requests_times,
                   round(sum(round(request_time * 100000)) / 100000.0 / count(*), 3) AS avg_time,
                   round(min(request_time), 3) AS min_time,
                   round(max(request_time), 3) AS max_time,
                   (SELECT round(t, 3) FROM pr
                    WHERE r = CAST(floor(0.9 * (n - 1) + 0.5) AS BIGINT)) AS p90_time
            FROM v
        """,
        "report_status_counts": f"""
            WITH v AS ({V})
            SELECT status_code, count(*) AS n FROM v GROUP BY status_code
        """,
        "report_content_types": f"""
            WITH v AS ({V})
            SELECT content_type, count(*) AS n, sum(size)::BIGINT AS total_size,
                   round(sum(round(request_time * 100000)) / 100000.0 / count(*), 6) AS avg_time
            FROM v GROUP BY content_type
        """,
        "report_source_domains": f"""
            WITH v AS ({V})
            SELECT host, count(*) AS n, sum(size)::BIGINT AS total_size
            FROM v GROUP BY host
        """,
        "report_speed": f"""
            WITH v AS ({V}),
            h AS (SELECT url, request_time FROM v
                  WHERE content_type = 1 AND status_code = 200),
            f AS (SELECT 'fastest' AS which, url, request_time FROM h
                  ORDER BY request_time, url LIMIT 20),
            s AS (SELECT 'slowest' AS which, url, request_time FROM h
                  ORDER BY request_time DESC, url LIMIT 20)
            SELECT * FROM f UNION ALL SELECT * FROM s
        """,
        "report_title_dups": f"""
            WITH v AS ({V})
            SELECT title, count(*) AS n FROM v
            WHERE content_type = 1 AND status_code = 200
            GROUP BY title HAVING count(*) > 1
            ORDER BY n DESC, title LIMIT 10
        """,
        "report_broken": f"""
            WITH v AS ({V})
            SELECT '404' AS section, b.url AS url, '' AS target,
                   coalesce(s.url, '') AS found_on
            FROM v b LEFT JOIN v s ON b.source_uq_id = s.uq_id
            WHERE b.status_code = 404
            UNION ALL
            SELECT 'redirect' AS section, r.url AS url,
                   coalesce(struct_extract(r.spans[1], 'media_ref'), '') AS target,
                   coalesce(s.url, '') AS found_on
            FROM v r LEFT JOIN v s ON r.source_uq_id = s.uq_id
            WHERE r.status_code >= 300 AND r.status_code < 400
        """,
        "report_headers": f"""
            WITH v AS ({V}),
            x AS (
              SELECT 'content_type_header' AS header, content_type_header AS value FROM v
              WHERE content_type_header IS NOT NULL AND content_type_header <> ''
              UNION ALL
              SELECT 'cache_control', cache_control FROM v
              WHERE cache_control IS NOT NULL AND cache_control <> ''
              UNION ALL
              SELECT 'etag', etag FROM v WHERE etag IS NOT NULL AND etag <> ''
              UNION ALL
              SELECT 'content_encoding', content_encoding FROM v
              WHERE content_encoding IS NOT NULL AND content_encoding <> ''
            )
            SELECT header, count(*) AS occurrences,
                   count(DISTINCT value) AS distinct_values
            FROM x GROUP BY header
        """,
        "report_caching": f"""
            WITH v AS ({V}),
            c AS (
              SELECT content_type,
                     contains(coalesce(cache_control, ''), 'max-age=') AS is_cacheable,
                     contains(coalesce(cache_control, ''), 'no-store') AS is_no_store,
                     (etag IS NOT NULL AND etag <> '') AS is_etag,
                     CASE WHEN contains(coalesce(cache_control, ''), 'max-age=')
                          THEN CAST(regexp_extract(cache_control, 'max-age=([0-9]+)', 1) AS DOUBLE)
                          ELSE 0 END AS lifetime
              FROM v)
            SELECT content_type, count(*) AS n,
                   sum(CASE WHEN is_cacheable THEN 1 ELSE 0 END)::BIGINT AS cacheable,
                   sum(CASE WHEN is_no_store THEN 1 ELSE 0 END)::BIGINT AS no_store,
                   sum(CASE WHEN is_etag THEN 1 ELSE 0 END)::BIGINT AS has_etag,
                   round(sum(lifetime) / count(*), 3) AS avg_lifetime
            FROM c GROUP BY content_type
        """,
        "report_sitemap": f"""
            WITH v AS ({V})
            SELECT url,
                   (length(rtrim(url, '/')) - length(replace(rtrim(url, '/'), '/', '')))::BIGINT AS slashes,
                   least(1.0, greatest(0.1,
                     0.5 + 0.1 * (1 - (length(url) - length(replace(url, '/', '')) - 2)))) AS priority
            FROM v WHERE content_type = 1 AND status_code = 200 AND is_external = false
        """,
        "report_skipped": f"""
            SELECT reason, count(*) AS n
            FROM read_parquet('{skipped_glob}') GROUP BY reason
        """,
        # full JSON-report canonicalization: every section size, capped
        # SuperTable row count, category/total quality score, gate exit
        # code and modern-support count re-derived in pure SQL over the
        # engine's visited/skipped parquet (scoring model:
        # pipelines/scoring.py — WARNING 2.0/NOTICE 0.5/CRITICAL 5.0
        # per count, per-rule caps 2.5 minor / 5.0 critical, categories
        # start at 10, total = weighted sum with weights .25/.25/.2/.15/.15)
        "json_report": f"""
            WITH v AS ({V}),
            hx AS (
              SELECT 'content_type_header' AS header FROM v
              WHERE coalesce(content_type_header, '') <> ''
              UNION ALL SELECT 'cache_control' FROM v WHERE coalesce(cache_control, '') <> ''
              UNION ALL SELECT 'etag' FROM v WHERE coalesce(etag, '') <> ''
              UNION ALL SELECT 'content_encoding' FROM v
              WHERE coalesce(content_encoding, '') <> ''
            ),
            pf AS (
              SELECT CASE WHEN spans IS NULL THEN 'non-page'
                          WHEN coalesce(description, '\x01') = '' THEN 'missing-description'
                          WHEN length(coalesce(title, '')) > 60 THEN 'long-title'
                          WHEN coalesce(title, '\x01') = '' THEN 'missing-title'
                          ELSE 'ok' END AS finding
              FROM v
            ),
            c AS (
              SELECT
                (SELECT count(*) FROM v) AS n_visited,
                (SELECT count(*) FROM pf WHERE finding = 'missing-title') AS nmt,
                (SELECT count(*) FROM pf WHERE finding = 'long-title') AS nlt,
                (SELECT count(*) FROM pf WHERE finding = 'missing-description') AS nmd,
                (SELECT count(*) FROM v WHERE status_code = 404) AS n404,
                (SELECT count(*) FROM v WHERE status_code >= 500 OR status_code < 0) AS n5xx,
                (SELECT count(DISTINCT status_code) FROM v
                 WHERE status_code >= 500 OR status_code < 0) AS n5xx_codes,
                (SELECT count(DISTINCT content_type) FROM v) AS n_ct,
                (SELECT count(DISTINCT host) FROM v) AS n_host,
                (SELECT count(*) FROM v WHERE content_type = 1 AND status_code = 200) AS n_html,
                (SELECT count(*) FROM (SELECT title FROM v
                   WHERE content_type = 1 AND status_code = 200
                   GROUP BY title HAVING count(*) > 1)) AS n_dupt,
                (SELECT count(*) FROM v
                 WHERE status_code >= 300 AND status_code < 400) AS n_redir,
                (SELECT count(DISTINCT header) FROM hx) AS n_hdr,
                (SELECT count(DISTINCT reason)
                 FROM read_parquet('{skipped_glob}')) AS n_skip,
                (SELECT count(*) FROM v WHERE content_type = 1 AND status_code = 200
                   AND content_encoding = 'br') AS n_br,
                (SELECT count(*) FROM v WHERE content_type = 4
                   AND content_type_header = 'image/webp') AS n_webp,
                (SELECT count(*) FROM v WHERE content_type = 4
                   AND content_type_header = 'image/avif') AS n_avif,
                (SELECT count(*) FROM v WHERE content_type = 4) AS n_img
            ),
            s AS (
              SELECT greatest(0.0, 10.0 - (least(2.5, 2.0 * nmt) + least(2.5, 0.5 * nlt)
                                           + least(2.5, 0.5 * nmd))) AS seo,
                     greatest(0.0, 10.0 - (least(2.5, 2.0 * n404)
                                           + least(5.0, 5.0 * n5xx))) AS bp
              FROM c
            )
            SELECT key, value FROM (
              SELECT 'crawler' AS key, 3.0::DOUBLE AS value
              UNION ALL SELECT 'options', 0.0
              UNION ALL SELECT 'results', n_visited::DOUBLE FROM c
              UNION ALL SELECT 'stats', 7.0
              UNION ALL SELECT 'summary',
                ((nmt > 0)::INT + (nlt > 0)::INT + (nmd > 0)::INT
                 + (n404 > 0)::INT + n5xx_codes)::DOUBLE FROM c
              UNION ALL SELECT 'tables', 10.0
              UNION ALL SELECT 'qualityScores', 2.0
              UNION ALL SELECT 'extraColumnsFromAnalysis', 2.0
              UNION ALL SELECT 'tables:content-types', least(n_ct, 200)::DOUBLE FROM c
              UNION ALL SELECT 'tables:source-domains', least(n_host, 200)::DOUBLE FROM c
              UNION ALL SELECT 'tables:fastest-urls', least(n_html, 20)::DOUBLE FROM c
              UNION ALL SELECT 'tables:slowest-urls', least(n_html, 20)::DOUBLE FROM c
              UNION ALL SELECT 'tables:non-unique-titles', least(n_dupt, 10)::DOUBLE FROM c
              UNION ALL SELECT 'tables:404-pages', least(n404, 200)::DOUBLE FROM c
              UNION ALL SELECT 'tables:redirects', least(n_redir, 200)::DOUBLE FROM c
              UNION ALL SELECT 'tables:http-headers', least(n_hdr, 200)::DOUBLE FROM c
              UNION ALL SELECT 'tables:caching', least(n_ct, 200)::DOUBLE FROM c
              UNION ALL SELECT 'tables:skipped-urls', least(n_skip, 200)::DOUBLE FROM c
              UNION ALL SELECT 'score:accessibility', 10.0
              UNION ALL SELECT 'score:best_practice', bp FROM s
              UNION ALL SELECT 'score:performance', 10.0
              UNION ALL SELECT 'score:security', 10.0
              UNION ALL SELECT 'score:seo', seo FROM s
              UNION ALL SELECT 'score:total',
                (0.25 * seo + 0.25 * bp + 0.2 * 10.0 + 0.15 * 10.0 + 0.15 * 10.0) / 1.0 FROM s
              UNION ALL SELECT 'gate:exit_code', 0.0
              UNION ALL SELECT 'support:brotli-support', n_br::DOUBLE FROM c WHERE n_html > 0
              UNION ALL SELECT 'support:webp-support', n_webp::DOUBLE FROM c WHERE n_img > 0
              UNION ALL SELECT 'support:avif-support', n_avif::DOUBLE FROM c WHERE n_img > 0
            )
        """,
        # external-links analyzer: target counts + 5 lexicographically
        # smallest example sources, re-derived from the arithmetic link
        # graph (dead links on off-seed hosts are external targets too)
        "report_external_links": """
            WITH nd AS (SELECT count(*)::BIGINT AS n FROM documents),
            pl AS (
              SELECT d.doc_id AS src, (d.doc_id*31 + g.d*97 + 1) % p.n AS tgt
              FROM documents d CROSS JOIN nd p CROSS JOIN range(6) g(d)
              WHERE d.doc_id % 43 <> 11
            ),
            ext AS (
              SELECT printf('https://site-%03d.test/p/%05d',
                            CAST(tgt % 8 AS INT), CAST(tgt // 8 AS INT))
                     || CASE WHEN (tgt // 8) % 11 = 3
                             THEN printf('?a=%d&b=%d', CAST((tgt//8)%7 AS INT),
                                         CAST((tgt//8)%5 AS INT))
                             ELSE '' END AS url,
                     printf('https://site-%03d.test/p/%05d',
                            CAST(src % 8 AS INT), CAST(src // 8 AS INT))
                     || CASE WHEN (src // 8) % 11 = 3
                             THEN printf('?a=%d&b=%d', CAST((src//8)%7 AS INT),
                                         CAST((src//8)%5 AS INT))
                             ELSE '' END AS source
              FROM pl WHERE tgt % 8 <> 0
              UNION ALL
              SELECT printf('https://site-%03d.test/p/%05d',
                            CAST(d.doc_id % 8 AS INT), CAST(100000 + d.doc_id AS INT)),
                     printf('https://site-%03d.test/p/%05d',
                            CAST(d.doc_id % 8 AS INT), CAST(d.doc_id // 8 AS INT))
                     || CASE WHEN (d.doc_id // 8) % 11 = 3
                             THEN printf('?a=%d&b=%d', CAST((d.doc_id//8)%7 AS INT),
                                         CAST((d.doc_id//8)%5 AS INT))
                             ELSE '' END
              FROM documents d
              WHERE d.doc_id % 43 <> 11 AND d.doc_id % 13 = 5 AND d.doc_id % 8 <> 0
            )
            SELECT url, count(*) AS n,
                   array_to_string(list_sort(list_distinct(list(source)))[1:5], ';') AS examples
            FROM ext GROUP BY url
        """,
        # live-HTML regex battery over rendered pages: per-source_attr
        # counts re-derived arithmetically (a_href=6/page + dead links;
        # one img/script/css link per page; redirect docs render empty)
        "html_link_extract": """
            WITH c AS (
              SELECT count(*) FILTER (WHERE doc_id % 43 <> 11) AS np,
                     count(*) FILTER (WHERE doc_id % 43 <> 11 AND doc_id % 13 = 5) AS nd
              FROM documents)
            SELECT source_attr, n FROM (
              SELECT 10 AS source_attr, np * 6 + nd AS n FROM c
              UNION ALL SELECT 20, np FROM c
              UNION ALL SELECT 30, np FROM c
              UNION ALL SELECT 50, np FROM c
            ) WHERE n > 0
        """,
        # spans→markdown converter, verified STRING-EXACT per page: the
        # oracle rebuilds every visited page's markdown from documents
        # (titles, text, link lines with the same to/x prefixes, dead
        # links, image lines, redirect arrows) on top of the BFS CTE
        "markdown_pages": """
            WITH RECURSIVE
            nd AS (SELECT count(*)::BIGINT AS n FROM documents),
            edges AS (
              SELECT d.doc_id AS src, (d.doc_id * 31 + g.d * 97 + 1) % p.n AS dst
              FROM documents d CROSS JOIN nd p CROSS JOIN range(6) g(d)
              WHERE d.doc_id % 43 <> 11
              UNION ALL
              SELECT d.doc_id,
                     CASE WHEN (d.doc_id * 31 + 7) % p.n = d.doc_id
                          THEN (d.doc_id + 1) % p.n ELSE (d.doc_id * 31 + 7) % p.n END
              FROM documents d CROSS JOIN nd p WHERE d.doc_id % 43 = 11
            ),
            reach(id, depth) AS (
              SELECT t.h::BIGINT, 0 FROM range(8) t(h)
              UNION
              SELECT e.dst, r.depth + 1 FROM reach r JOIN edges e ON e.src = r.id
              WHERE r.depth < 40 AND NOT (e.dst % 8 = 1 AND e.dst // 8 = 9)
            ),
            pages AS (SELECT DISTINCT id FROM reach),
            pageurl AS (
              SELECT id,
                     printf('https://site-%03d.test/p/%05d', CAST(id % 8 AS INT), CAST(id // 8 AS INT))
                     || CASE WHEN (id // 8) % 11 = 3
                             THEN printf('?a=%d&b=%d', CAST((id//8)%7 AS INT), CAST((id//8)%5 AS INT))
                             ELSE '' END AS url
              FROM pages
            ),
            linkmd AS (
              SELECT p.id,
                     string_agg(
                       '[' || CASE WHEN ((p.id*31 + g.d*97 + 1) % n.n) % 8 = p.id % 8 OR g.d % 3 = 0
                                   THEN 'to ' ELSE 'x ' END
                           || CAST((p.id*31 + g.d*97 + 1) % n.n AS VARCHAR) || ']('
                           || printf('https://site-%03d.test/p/%05d',
                                     CAST(((p.id*31 + g.d*97 + 1) % n.n) % 8 AS INT),
                                     CAST(((p.id*31 + g.d*97 + 1) % n.n) // 8 AS INT))
                           || CASE WHEN (((p.id*31 + g.d*97 + 1) % n.n) // 8) % 11 = 3
                                   THEN printf('?a=%d&b=%d',
                                               CAST((((p.id*31 + g.d*97 + 1) % n.n) // 8) % 7 AS INT),
                                               CAST((((p.id*31 + g.d*97 + 1) % n.n) // 8) % 5 AS INT))
                                   ELSE '' END
                           || ')',
                       chr(10) || chr(10) ORDER BY g.d) AS links
              FROM pages p CROSS JOIN nd n CROSS JOIN range(6) g(d)
              WHERE p.id % 43 <> 11
              GROUP BY p.id, n.n
            )
            SELECT u.url,
                   CASE WHEN p.id % 43 = 11 THEN
                     (SELECT chr(8594) || ' ' ||
                             printf('https://site-%03d.test/p/%05d',
                                    CAST((CASE WHEN (p.id*31+7) % n.n = p.id THEN (p.id+1) % n.n
                                          ELSE (p.id*31+7) % n.n END) % 8 AS INT),
                                    CAST((CASE WHEN (p.id*31+7) % n.n = p.id THEN (p.id+1) % n.n
                                          ELSE (p.id*31+7) % n.n END) // 8 AS INT))
                             || CASE WHEN ((CASE WHEN (p.id*31+7) % n.n = p.id THEN (p.id+1) % n.n
                                            ELSE (p.id*31+7) % n.n END) // 8) % 11 = 3
                                     THEN printf('?a=%d&b=%d',
                                          CAST(((CASE WHEN (p.id*31+7) % n.n = p.id THEN (p.id+1) % n.n
                                                 ELSE (p.id*31+7) % n.n END) // 8) % 7 AS INT),
                                          CAST(((CASE WHEN (p.id*31+7) % n.n = p.id THEN (p.id+1) % n.n
                                                 ELSE (p.id*31+7) % n.n END) // 8) % 5 AS INT))
                                     ELSE '' END || chr(10)
                      FROM nd n)
                   ELSE
                     '# ' || CASE WHEN p.id % 5 = 0 THEN 'Duplicate Title' ELSE 'Doc ' || p.id END
                     || chr(10)||chr(10) || d.text || chr(10)||chr(10) || l.links
                     || CASE WHEN p.id % 13 = 5
                             THEN chr(10)||chr(10) || '[dead](/p/' || printf('%05d', CAST(100000 + p.id AS INT)) || ')'
                             ELSE '' END
                     || chr(10)||chr(10) || '![](/static/img/' || CAST(p.id % 64 AS VARCHAR) || '.png)'
                     || chr(10)
                   END AS markdown
            FROM pages p
            JOIN pageurl u ON u.id = p.id
            LEFT JOIN documents d ON d.doc_id = p.id
            LEFT JOIN linkmd l ON l.id = p.id
        """,
        # DOM-walking HTML→Markdown over rendered pages, verified
        # STRING-EXACT: text paragraph, the consecutive-link table row
        # (6 links + dead link), image line; head/title excluded;
        # redirect docs render empty
        "html_markdown": """
            WITH nd AS (SELECT count(*)::BIGINT AS n FROM documents),
            linkcells AS (
              SELECT d.doc_id AS id,
                     string_agg(
                       '[' || CASE WHEN ((d.doc_id*31 + g.d*97 + 1) % n.n) % 8 = d.doc_id % 8 OR g.d % 3 = 0
                                   THEN 'to ' ELSE 'x ' END
                           || CAST((d.doc_id*31 + g.d*97 + 1) % n.n AS VARCHAR) || ']('
                           || printf('https://site-%03d.test/p/%05d',
                                     CAST(((d.doc_id*31 + g.d*97 + 1) % n.n) % 8 AS INT),
                                     CAST(((d.doc_id*31 + g.d*97 + 1) % n.n) // 8 AS INT))
                           || CASE WHEN (((d.doc_id*31 + g.d*97 + 1) % n.n) // 8) % 11 = 3
                                   THEN printf('?a=%d&b=%d',
                                               CAST((((d.doc_id*31 + g.d*97 + 1) % n.n) // 8) % 7 AS INT),
                                               CAST((((d.doc_id*31 + g.d*97 + 1) % n.n) // 8) % 5 AS INT))
                                   ELSE '' END || ')',
                       ' | ' ORDER BY g.d) AS cells
              FROM documents d CROSS JOIN nd n CROSS JOIN range(6) g(d)
              WHERE d.doc_id % 43 <> 11
              GROUP BY d.doc_id, n.n
            )
            SELECT printf('https://site-%03d.test/p/%05d', CAST(d.doc_id % 8 AS INT), CAST(d.doc_id // 8 AS INT))
                   || CASE WHEN (d.doc_id // 8) % 11 = 3
                           THEN printf('?a=%d&b=%d', CAST((d.doc_id//8)%7 AS INT), CAST((d.doc_id//8)%5 AS INT))
                           ELSE '' END AS url,
                   CASE WHEN d.doc_id % 43 = 11 THEN ''
                   ELSE d.text || chr(10)||chr(10) || '| ' || l.cells
                        || CASE WHEN d.doc_id % 13 = 5
                                THEN ' | [dead](/p/' || printf('%05d', CAST(100000 + d.doc_id AS INT)) || ')'
                                ELSE '' END
                        || ' |' || chr(10)||chr(10)
                        || '![](/static/img/' || CAST(d.doc_id % 64 AS VARCHAR) || '.png)' || chr(10)
                   END AS markdown
            FROM documents d LEFT JOIN linkcells l ON l.id = d.doc_id
        """,
        # offline-website exporter, verified via md5 of the FULL rewritten
        # body: the oracle rebuilds every page's rewritten HTML (all
        # href/src attributes converted to offline relative paths, query
        # -hash file names, redirect stubs) and every export path
        "offline_export": """
            WITH nd AS (SELECT count(*)::BIGINT AS n FROM documents),
            tinfo AS (
              SELECT d.doc_id AS id, g.d AS d,
                     (d.doc_id*31 + g.d*97 + 1) % n.n AS t,
                     ((d.doc_id*31 + g.d*97 + 1) % n.n) % 8 AS th,
                     ((d.doc_id*31 + g.d*97 + 1) % n.n) // 8 AS tp,
                     d.doc_id % 8 AS sh
              FROM documents d CROSS JOIN nd n CROSS JOIN range(6) g(d)
              WHERE d.doc_id % 43 <> 11
            ),
            acell AS (
              SELECT id, d,
                '<a href="' ||
                CASE WHEN th = sh THEN '../'
                     WHEN th = 0 THEN '../../'
                     WHEN sh = 0 THEN '../'
                     ELSE '../../' END ||
                CASE WHEN th <> sh AND th <> 0 THEN printf('_site-%03d.test/', CAST(th AS INT)) ELSE '' END ||
                'p/' || printf('%05d', CAST(tp AS INT)) ||
                CASE WHEN tp % 11 = 3
                     THEN '.' || left(md5(printf('a=%d&b=%d', CAST(tp%7 AS INT), CAST(tp%5 AS INT))), 10)
                     ELSE '' END || '.html">' ||
                CASE WHEN th = sh OR d % 3 = 0 THEN 'to ' ELSE 'x ' END || CAST(t AS VARCHAR) || '</a>' AS cell
              FROM tinfo
            ),
            links AS (SELECT id, string_agg(cell, '' ORDER BY d) AS s FROM acell GROUP BY id),
            rinfo AS (
              SELECT d.doc_id AS id,
                     (CASE WHEN (d.doc_id*31+7) % n.n = d.doc_id THEN (d.doc_id+1) % n.n
                           ELSE (d.doc_id*31+7) % n.n END) % 8 AS th,
                     (CASE WHEN (d.doc_id*31+7) % n.n = d.doc_id THEN (d.doc_id+1) % n.n
                           ELSE (d.doc_id*31+7) % n.n END) // 8 AS tp,
                     d.doc_id % 8 AS sh
              FROM documents d CROSS JOIN nd n WHERE d.doc_id % 43 = 11
            ),
            stub AS (
              SELECT id,
                CASE WHEN th = sh THEN '../'
                     WHEN th = 0 THEN '../../'
                     WHEN sh = 0 THEN '../'
                     ELSE '../../' END ||
                CASE WHEN th <> sh AND th <> 0 THEN printf('_site-%03d.test/', CAST(th AS INT)) ELSE '' END ||
                'p/' || printf('%05d', CAST(tp AS INT)) ||
                CASE WHEN tp % 11 = 3
                     THEN '.' || left(md5(printf('a=%d&b=%d', CAST(tp%7 AS INT), CAST(tp%5 AS INT))), 10)
                     ELSE '' END || '.html' AS rel,
                printf('https://site-%03d.test/p/%05d', CAST(th AS INT), CAST(tp AS INT))
                || CASE WHEN tp % 11 = 3
                        THEN printf('?a=%d&b=%d', CAST(tp%7 AS INT), CAST(tp%5 AS INT))
                        ELSE '' END AS raw
              FROM rinfo
            ),
            bodies AS (
              SELECT d.doc_id AS id,
               '<!DOCTYPE html><html><head><title>' ||
               CASE WHEN d.doc_id % 5 = 0 THEN 'Duplicate Title' ELSE 'Doc ' || d.doc_id END ||
               '</title><link rel="stylesheet" href="../static/css/site.css"></head><body><p>' || d.text || '</p>'
               || l.s
               || CASE WHEN d.doc_id % 13 = 5
                       THEN '<a href="../p/' || printf('%05d', CAST(100000+d.doc_id AS INT)) || '.html">dead</a>'
                       ELSE '' END
               || '<img src="../static/img/' || CAST(d.doc_id % 64 AS VARCHAR) || '.png">'
               || '<script src="../static/js/chunk-' || CAST(d.doc_id % 16 AS VARCHAR) || '.js"></script>'
               || '</body></html>' AS b
              FROM documents d JOIN links l ON l.id = d.doc_id
              WHERE d.doc_id % 43 <> 11
              UNION ALL
              SELECT id,
                '<!DOCTYPE html>' || chr(10) || '<html>' || chr(10) || '<head>' || chr(10)
                || '<meta http-equiv="refresh" content="0; url=' || rel || '">' || chr(10)
                || '<link rel="canonical" href="' || rel || '">' || chr(10)
                || '</head>' || chr(10) || '<body>' || chr(10)
                || '<p>Redirecting to <a href="' || rel || '">' || raw || '</a></p>' || chr(10)
                || '</body>' || chr(10) || '</html>' || chr(10)
              FROM stub
            )
            SELECT printf('https://site-%03d.test/p/%05d', CAST(id % 8 AS INT), CAST(id // 8 AS INT))
                   || CASE WHEN (id // 8) % 11 = 3
                           THEN printf('?a=%d&b=%d', CAST((id//8)%7 AS INT), CAST((id//8)%5 AS INT))
                           ELSE '' END AS url,
                   CASE WHEN id % 8 = 0 THEN '../' ELSE '../' END ||
                   CASE WHEN id % 8 <> 0 THEN printf('_site-%03d.test/', CAST(id % 8 AS INT)) ELSE '' END ||
                   'p/' || printf('%05d', CAST(id // 8 AS INT)) ||
                   CASE WHEN (id // 8) % 11 = 3
                        THEN '.' || left(md5(printf('a=%d&b=%d', CAST((id//8)%7 AS INT), CAST((id//8)%5 AS INT))), 10)
                        ELSE '' END || '.html' AS offline_path,
                   left(md5(b), 12) AS body_md5,
                   length(b)::BIGINT AS n_bytes
            FROM bodies
        """,
        # per-page analyzer battery over rendered HTML: rule counts
        # re-derived arithmetically (rendered pages lack lang/main/
        # canonical/og/h1/meta-description; imgs lack alt; redirect
        # docs render empty → missing-title)
        "page_checks": """
            WITH c AS (
              SELECT count(*) FILTER (WHERE doc_id % 43 <> 11) AS np,
                     count(*) AS total,
                     count(*) FILTER (WHERE doc_id % 43 = 11) AS nr
              FROM documents)
            SELECT category, rule, severity, n FROM (
              SELECT 'accessibility' AS category, 'img-missing-alt' AS rule,
                     'WARNING' AS severity, np AS n FROM c
              UNION ALL SELECT 'accessibility', 'missing-html-lang', 'CRITICAL', total FROM c
              UNION ALL SELECT 'accessibility', 'missing-main-landmark', 'WARNING', total FROM c
              UNION ALL SELECT 'seo', 'missing-canonical', 'INFO', total FROM c
              UNION ALL SELECT 'seo', 'missing-description', 'NOTICE', total FROM c
              UNION ALL SELECT 'seo', 'missing-h1', 'WARNING', total FROM c
              UNION ALL SELECT 'seo', 'missing-opengraph', 'INFO', total FROM c
              UNION ALL SELECT 'seo', 'missing-title', 'WARNING', nr FROM c
            ) WHERE n > 0
        """,
        # visited-table finding summary (the check() precedence: the
        # later assignment wins — description overrides title rules)
        "report_findings": f"""
            WITH v AS ({V})
            SELECT CASE WHEN spans IS NULL THEN 'non-page'
                        WHEN coalesce(description, '\x01') = '' THEN 'missing-description'
                        WHEN length(coalesce(title, '')) > 60 THEN 'long-title'
                        WHEN coalesce(title, '\x01') = '' THEN 'missing-title'
                        ELSE 'ok' END AS finding,
                   count(*) AS n
            FROM v GROUP BY finding
        """,
        # ---- relational / window / training shapes ------------------------
        "pricing_summary": """
            SELECT l_returnflag, count(*) AS n,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(avg(l_extendedprice), 6) AS avg_price
            FROM lineitem GROUP BY l_returnflag
        """,
        # approx_orders: the HyperLogLog register algebra (splitmix64
        # hash, p=8, linear-counting branch) recomputed in SQL by
        # stages/sketch.py::hll_oracle_sql — matches the engine's
        # estimate float-exactly at 4 decimals
        "global_stats": f"""
            SELECT count(*) AS n,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(min(l_extendedprice), 3) AS min_price,
                   round(max(l_extendedprice), 3) AS max_price,
                   round(avg(l_extendedprice), 6) AS avg_price,
                   round({_hll_oracle_sql('l_orderkey', 'lineitem')}, 4)
                       AS approx_orders
            FROM lineitem
        """,
        "user_type_stats": """
            SELECT event_type, count(*) AS n, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """,
        "docs_stats": """
            SELECT source, lang, count(*) AS n, round(avg(n_chars), 6) AS avg_chars
            FROM documents GROUP BY source, lang
        """,
        # approx_n: the Count-Min table rebuilt in SQL (stages/sketch.py
        # ::cms_oracle_join_sql — splitmix64(key*4 + j) % 1024 buckets,
        # min over the 4 rows) next to the exact count it approximates
        "returned_by_supplier": f"""
            WITH r_rows AS (
              SELECT l_suppkey FROM lineitem WHERE l_returnflag = 'R'
            ), cms AS (
              SELECT j, {_cms_bucket('l_suppkey')} AS b, count(*) AS c
              FROM r_rows CROSS JOIN range(4) t(j) GROUP BY 1, 2
            )
            SELECT e.l_suppkey, e.n,
                   (SELECT min(c.c) FROM range(4) t(j) JOIN cms c
                     ON c.j = t.j AND c.b = {_cms_bucket('e.l_suppkey')}
                   ) AS approx_n
            FROM (SELECT l_suppkey, count(*) AS n FROM r_rows
                  GROUP BY l_suppkey) e
        """,
        "bucket_counts": """
            SELECT 'label' AS section, CAST(label AS VARCHAR) AS k, count(*) AS n
            FROM embeddings GROUP BY label
            UNION ALL
            SELECT 'props' AS section, CAST(k_mod AS VARCHAR) AS k, n FROM (
              SELECT CAST(regexp_extract(props, '[0-9]+') AS INTEGER) % 10 AS k_mod,
                     count(*) AS n
              FROM events GROUP BY k_mod)
        """,
        "events_topk": """
            WITH f AS (SELECT 'fastest' AS which, event_id, value FROM events
                       ORDER BY value, event_id LIMIT 20),
            s AS (SELECT 'slowest' AS which, event_id, value FROM events
                  ORDER BY value DESC, event_id LIMIT 20)
            SELECT * FROM f UNION ALL SELECT * FROM s
        """,
        # grouped-HLL distinct-user estimate re-derived register-exactly
        # (stages/sketch.py::hll_grouped_oracle_sql) beside the exact p90
        "p90_by_type": f"""
            WITH s AS (
              SELECT event_type, value,
                     row_number() OVER (PARTITION BY event_type ORDER BY value) - 1 AS r,
                     count(*) OVER (PARTITION BY event_type) AS n
              FROM events),
            p AS (
              SELECT event_type, round(value, 3) AS p90
              FROM s WHERE r = CAST(floor(0.9 * (n - 1) + 0.5) AS BIGINT)),
            h AS (SELECT * FROM {_hll_grouped_sql('event_type', 'user_id', 'events')})
            SELECT p.event_type, p.p90, round(h.approx, 3) AS approx_users
            FROM p JOIN h ON h.g = p.event_type
        """,
        "segment_join": """
            SELECT c_mktsegment, count(*) AS n, round(sum(o_totalprice), 2) AS total
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "top_order_per_segment": """
            SELECT c_mktsegment, o_orderkey, total FROM (
              SELECT c_mktsegment, o_orderkey, round(o_totalprice, 2) AS total,
                     row_number() OVER (PARTITION BY c_mktsegment
                                        ORDER BY o_totalprice DESC, o_orderkey) AS rn
              FROM orders JOIN customer ON o_custkey = c_custkey) WHERE rn <= 3
        """,
        "customers_without_events": """
            SELECT DISTINCT o_custkey FROM orders o
            WHERE NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = o.o_custkey)
        """,
        "supplier_part_stats": """
            SELECT s_nationkey, p_brand, count(*) AS n, round(sum(l_quantity), 2) AS sum_qty
            FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
                          JOIN part ON l_partkey = p_partkey
            GROUP BY s_nationkey, p_brand
        """,
        "range_join_count": """
            -- max(orderdate <= ts) IS the as-of match; a pytest proves
            -- it equal to DuckDB's native ASOF JOIN on the same tables
            SELECT e.event_id, count(o.o_orderkey) AS n_before,
                   coalesce(max(CAST(epoch_us(o.o_orderdate) AS BIGINT)), -1)
                     AS asof_date_us
            FROM events e LEFT JOIN orders o
              ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
            GROUP BY e.event_id
        """,
        "window_aggregates": """
            SELECT 'hourly' AS section, user_id,
                   CAST(floor(epoch(ts) / 3600) AS BIGINT) AS k,
                   count(*) AS n, round(sum(value), 2) AS val
            FROM events GROUP BY user_id, k
            UNION ALL
            SELECT 'session' AS section, user_id,
                   CAST(session_no AS BIGINT) AS k, count(*) AS n,
                   round(epoch(max(ts)) - epoch(min(ts)), 3) AS val
            FROM (
              SELECT user_id, ts,
                     sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                                    ROWS UNBOUNDED PRECEDING) AS session_no
              FROM (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR epoch(ts) - epoch(lag(ts) OVER w) > 1800
                            THEN 1 ELSE 0 END AS brk
                FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)))
            GROUP BY user_id, session_no
        """,
        "exact_dedup": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        # scrub preset locked to pipelines/relational.py::text_metrics —
        # emails, phones, then the demo lexicon, counted on the ORIGINAL
        # text and substituted in order
        "text_metrics": r"""
            WITH tw AS (SELECT doc_id, text, string_split(text, ' ') AS w FROM documents),
            tri AS (
              SELECT doc_id,
                     w[CAST(i AS INT)] || ' ' || w[CAST(i AS INT) + 1]
                       || ' ' || w[CAST(i AS INT) + 2] AS g
              FROM tw, LATERAL (SELECT unnest(range(1, len(w) - 1)) AS i) t),
            rep AS (
              SELECT doc_id, count(*) AS n_tri,
                     round(1 - CAST(count(DISTINCT g) AS DOUBLE) / count(*), 6) AS dup_tri_ratio
              FROM tri GROUP BY doc_id),
            -- windowed exact-substring duplicates (k=64, stride=16 —
            -- locked to stages/dedup.duplicated_window_counts)
            win AS (
              SELECT doc_id, substr(text, CAST(i AS INT) + 1, 64) AS w64
              FROM documents,
                   LATERAL (SELECT unnest(range(0, greatest(length(text) - 63, 1), 16)) AS i) t
              WHERE length(text) >= 64),
            windup AS (SELECT w64 FROM win GROUP BY w64 HAVING count(DISTINCT doc_id) >= 2),
            ww AS (
              SELECT win.doc_id, count(*) AS n_win, count(windup.w64) AS n_dup_win
              FROM win LEFT JOIN windup USING (w64) GROUP BY win.doc_id),
            -- unigram LM (top-65536 vocab, OOV floor 0.5/total — locked
            -- to stages/textstats.unigram_model/log_perplexity)
            toks AS (SELECT doc_id, unnest(w) AS tok FROM tw),
            tot AS (SELECT count(*)::DOUBLE AS n FROM toks),
            voc AS (SELECT tok, count(*) AS c FROM toks
                    GROUP BY tok ORDER BY c DESC, tok LIMIT 65536),
            lpt AS (SELECT tok, ln(c / t.n) AS lp FROM voc CROSS JOIN tot t),
            dppl AS (
              SELECT toks.doc_id,
                     round(-avg(COALESCE(lpt.lp, (SELECT ln(0.5 / n) FROM tot))), 6)
                       AS log_ppl
              FROM toks LEFT JOIN lpt ON lpt.tok = toks.tok GROUP BY toks.doc_id),
            -- unicode normalization (stages/normalize.py, exercised on
            -- deterministically-dirtied sentence boundaries): NFC +
            -- C0-control strip + whitespace collapse + ascii-space trim
            nrm AS (
              SELECT doc_id, dirty,
                     trim(regexp_replace(regexp_replace(nfc_normalize(dirty),
                            '[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]', '', 'g'),
                          '\s+', ' ', 'g'), ' ') AS nt
              FROM (SELECT doc_id,
                           replace(text, '. ', '.' || chr(10) || chr(9) || ' ')
                             AS dirty
                    FROM documents)),
            nrmh AS (
              SELECT doc_id, (nt != dirty) AS norm_changed,
                     length(nt) AS norm_chars,
                     CAST(u - CASE WHEN u >= 9223372036854775808
                                   THEN 18446744073709551616 ELSE 0 END
                          AS BIGINT) AS norm_h
              FROM (SELECT doc_id, nt, dirty,
                           CAST(CAST(CONCAT('0x', SUBSTR(md5(nt), 1, 16))
                                     AS UBIGINT) AS HUGEINT) AS u
                    FROM nrm))
            SELECT d.doc_id, len(string_split(text, ' ')) AS n_tokens,
                   round(CAST(length(text) AS DOUBLE) / len(string_split(text, ' ')), 6) AS avg_tok_len,
                   round(CAST(length(text)
                         - length(replace(replace(replace(replace(text, '.', ''), ',', ''), '!', ''), '?', ''))
                         AS DOUBLE) / greatest(length(text), 1), 6) AS punct_ratio,
                   coalesce(r.n_tri, 0) AS n_tri,
                   coalesce(r.dup_tri_ratio, 0.0) AS dup_tri_ratio,
                   len(regexp_extract_all(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                   + len(regexp_extract_all(text, '\+?[0-9][0-9()\- ]{7,}[0-9]'))
                   + len(regexp_extract_all(text, '\b(customer|supplier)\b')) AS n_matches,
                   regexp_replace(
                     regexp_replace(
                       regexp_replace(text,
                         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g'),
                       '\+?[0-9][0-9()\- ]{7,}[0-9]', '[PHONE]', 'g'),
                     '\b(customer|supplier)\b', '[TERM]', 'g') AS scrubbed,
                   coalesce(ww.n_win, 0) AS n_win,
                   coalesce(ww.n_dup_win, 0) AS n_dup_win,
                   dppl.log_ppl AS log_ppl,
                   nh.norm_changed AS norm_changed,
                   nh.norm_chars AS norm_chars,
                   nh.norm_h AS norm_h
            FROM documents d LEFT JOIN rep r ON d.doc_id = r.doc_id
                 LEFT JOIN ww ON d.doc_id = ww.doc_id
                 LEFT JOIN dppl ON d.doc_id = dppl.doc_id
                 JOIN nrmh nh ON d.doc_id = nh.doc_id
        """,
        # corpus curation: deterministic multiplicative-hash sample →
        # per-source quota; exact bigram top-k; context-window chunking
        # (all parameter-locked to pipelines/curation.py)
        "corpus_sample": f"""
            WITH s AS (
              SELECT source, doc_id FROM documents
              WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 100 < 37)
            SELECT source, doc_id, 'quota' AS method FROM (
              SELECT source, doc_id,
                     row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
              FROM s) WHERE rn <= 7
            UNION ALL
            SELECT source, doc_id, 'mixture' AS method FROM documents
            WHERE (CAST(doc_id + 1009 AS HUGEINT) * 2654435761) % 4294967296 % 100
                  < (7 * CAST(substr(source, 4) AS INT) + 10) % 90
            UNION ALL
            SELECT source, doc_id, 'weighted' AS method FROM (
              SELECT source, doc_id FROM documents
              ORDER BY -ln((CAST({_sm64('doc_id + 77')} // 2048 AS DOUBLE) + 1)
                           / 9007199254740993.0) / n_chars,
                       doc_id
              LIMIT 50)
            UNION ALL
            -- DSIR importance resampling: target split doc_id%5=0,
            -- bounded top-65536 unigram models with OOV floor 0.5/total
            -- (locked to pipelines/curation.dsir_select)
            SELECT source, doc_id, 'dsir' AS method FROM (
              WITH tw AS (SELECT doc_id, string_split(text, ' ') AS w
                          FROM documents),
              toks AS (SELECT doc_id, unnest(w) AS tok FROM tw),
              tt AS (SELECT tok FROM toks WHERE doc_id % 5 = 0),
              tot_t AS (SELECT count(*)::DOUBLE AS n FROM tt),
              voc_t AS (SELECT tok, count(*) AS c FROM tt
                        GROUP BY tok ORDER BY c DESC, tok LIMIT 65536),
              lp_t AS (SELECT tok, ln(c / t.n) AS lp
                       FROM voc_t CROSS JOIN tot_t t),
              tot_r AS (SELECT count(*)::DOUBLE AS n FROM toks),
              voc_r AS (SELECT tok, count(*) AS c FROM toks
                        GROUP BY tok ORDER BY c DESC, tok LIMIT 65536),
              lp_r AS (SELECT tok, ln(c / t.n) AS lp
                       FROM voc_r CROSS JOIN tot_r t),
              iw AS (SELECT toks.doc_id,
                            round(sum(
                              COALESCE(lt.lp, (SELECT ln(0.5 / n) FROM tot_t))
                            - COALESCE(lr.lp, (SELECT ln(0.5 / n) FROM tot_r))
                            ), 6) AS iw
                     FROM toks LEFT JOIN lp_t lt ON lt.tok = toks.tok
                               LEFT JOIN lp_r lr ON lr.tok = toks.tok
                     GROUP BY toks.doc_id)
              SELECT d.source, iw.doc_id
              FROM iw JOIN documents d ON d.doc_id = iw.doc_id
              ORDER BY iw.iw DESC, iw.doc_id LIMIT 50)
        """,
        # BM25 rows locked to stages/retrieval.py (K1=1.2, B=0.75,
        # Lucene idf ln(1+(N-df+.5)/(df+.5)), micro-int scores) and
        # pipelines/curation.BM25_QUERIES
        "ngram_topk": """
            WITH toks AS (SELECT string_split(text, ' ') AS w FROM documents),
            bi AS (SELECT w[CAST(i AS INT)] || ' ' || w[CAST(i AS INT) + 1] AS ngram
                   FROM toks, LATERAL (SELECT unnest(range(1, len(w))) AS i) t),
            top50 AS (
              SELECT ngram, count(*) AS n FROM bi GROUP BY ngram
              ORDER BY n DESC, ngram LIMIT 50),
            tw AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
            stats AS (SELECT count(*) AS nd, avg(len(w)) AS avgdl FROM tw),
            q(query, term) AS (VALUES
              ('spark merge sort', 'spark'), ('spark merge sort', 'merge'),
              ('spark merge sort', 'sort'),
              ('hash table scan', 'hash'), ('hash table scan', 'table'),
              ('hash table scan', 'scan'),
              ('window batch', 'window'), ('window batch', 'batch')),
            tf AS (
              SELECT tw.doc_id, q.query, q.term, len(tw.w) AS dl,
                     len(list_filter(tw.w, x -> x = q.term)) AS tf
              FROM tw CROSS JOIN q),
            df AS (
              SELECT term, count(DISTINCT doc_id) AS df
              FROM tf WHERE tf > 0 GROUP BY term),
            sc AS (
              SELECT tf.query, tf.doc_id,
                     CAST(round(sum(
                       ln(1 + (s.nd - df.df + 0.5) / (df.df + 0.5))
                       * (tf.tf * 2.2)
                       / (tf.tf + 1.2 * (0.25 + 0.75 * tf.dl / s.avgdl))
                     ) * 1e6, 0) AS BIGINT) AS score_micro
              FROM tf JOIN df USING (term) CROSS JOIN stats s
              GROUP BY tf.query, tf.doc_id),
            bm25 AS (
              SELECT query, doc_id, score_micro FROM (
                SELECT query, doc_id, score_micro, row_number() OVER (
                  PARTITION BY query
                  ORDER BY score_micro DESC, doc_id) AS rn
                FROM sc WHERE score_micro > 0) WHERE rn <= 20)
            SELECT 'top50' AS method, ngram AS key,
                   CAST(-1 AS BIGINT) AS doc_id, n FROM top50
            UNION ALL
            SELECT 'bm25' AS method, query AS key, doc_id, score_micro AS n
            FROM bm25
        """,
        "doc_chunks": """
            WITH d AS (SELECT doc_id, string_split(text, ' ') AS w
                       FROM documents WHERE doc_id % 7 = 0)
            SELECT doc_id, CAST(s AS BIGINT) + 1 AS chunk_start,
                   array_to_string(w[CAST(s AS INT) + 1 : CAST(s AS INT) + 32], ' ') AS chunk
            FROM d, LATERAL (SELECT unnest(range(0, greatest(len(w) - 8, 1), 24)) AS s) t
        """,
        "knn_top10": """
            SELECT vec_id, rank FROM (
              SELECT vec_id, row_number() OVER (
                ORDER BY list_cosine_similarity(embedding,
                  (SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC, vec_id) AS rank
              FROM embeddings) WHERE rank <= 10
        """,
        # both ANN paths run exhaustively (nprobe=nlist / nbits=0) in the
        # correctness slot → exact ⇒ each equals brute-force top-10
        "ann_knn": """
            WITH topk AS (
              SELECT vec_id, rank FROM (
                SELECT vec_id, row_number() OVER (
                  ORDER BY list_cosine_similarity(embedding,
                    (SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC, vec_id) AS rank
                FROM embeddings) WHERE rank <= 10)
            SELECT 'ivf' AS which, vec_id, rank FROM topk
            UNION ALL
            SELECT 'lsh' AS which, vec_id, rank FROM topk
        """,
        "embedding_checks": """
            WITH emb AS (
              SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e
              FROM embeddings),
            c AS (SELECT vec_id AS cid, e AS ce FROM emb WHERE vec_id % 37 = 0),
            assign AS (
              SELECT vec_id, e, cl FROM (
                SELECT emb.vec_id, emb.e, c.cid AS cl,
                       row_number() OVER (
                         PARTITION BY emb.vec_id
                         ORDER BY list_cosine_similarity(emb.e, c.ce) DESC, c.cid) AS rn
                FROM emb, c) WHERE rn = 1)
            SELECT 'norm' AS section, vec_id AS id_a,
                   round(sqrt(list_sum(list_transform(embedding, x -> CAST(x AS DOUBLE) * x))), 4) AS x
            FROM embeddings
            UNION ALL
            SELECT 'pair' AS section, a.vec_id AS id_a, CAST(b.vec_id AS DOUBLE) AS x
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
            UNION ALL
            SELECT 'cluster' AS section, vec_id AS id_a, CAST(cl AS DOUBLE) AS x
            FROM assign
            UNION ALL
            SELECT 'semdup' AS section, a.vec_id AS id_a, CAST(count(*) AS DOUBLE) AS x
            FROM assign a JOIN assign b ON a.cl = b.cl AND b.vec_id < a.vec_id
            WHERE list_cosine_similarity(a.e, b.e) >= 0.45
            GROUP BY a.vec_id
            UNION ALL
            -- kNN JOIN (stages/similarity.knn_join at nprobe == nlist:
            -- every cell probed -> exact top-3 per subset row; x packs
            -- b_id*8 + rank)
            SELECT 'knnjoin' AS section, id_a, CAST(b_id * 8 + rn AS DOUBLE) AS x
            FROM (
              SELECT a.vec_id AS id_a, b.vec_id AS b_id,
                     row_number() OVER (
                       PARTITION BY a.vec_id
                       ORDER BY list_cosine_similarity(a.e, b.e) DESC,
                                b.vec_id) AS rn
              FROM emb a, emb b WHERE a.vec_id % 41 = 1) WHERE rn <= 3
        """,
        "packed_sequences": """
            WITH d AS (SELECT source, doc_id, text,
                              len(string_split(text, ' ')) AS n_tok FROM documents),
            p AS (SELECT *, coalesce(sum(n_tok) OVER (
                              PARTITION BY source ORDER BY doc_id
                              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prefix
                  FROM d)
            SELECT source, CAST(floor(prefix / 256) AS BIGINT) AS bin,
                   count(*) AS n_docs, CAST(sum(n_tok) AS BIGINT) AS n_tokens,
                   string_agg(text, ' ' ORDER BY doc_id) AS packed
            FROM p GROUP BY source, bin
        """,
        # decontaminate slot = contam rows (shared eval trigrams) UNION
        # cut rows (exact duplicate-substring REMOVAL, k=64 STRIDE 1 —
        # locked to stages/dedup.dedup_cut, the rewrite step of Lee et
        # al. 2022 ExactSubstr: every non-first occurrence of a
        # corpus-duplicated 64-char window is removed, overlapping
        # removals merge via per-character marking, s = md5(cleaned))
        "decontaminate": """
            WITH tri AS (
              SELECT doc_id,
                     w[CAST(i AS INT)] || ' ' || w[CAST(i AS INT) + 1]
                       || ' ' || w[CAST(i AS INT) + 2] AS g
              FROM (SELECT doc_id, string_split(text, ' ') AS w FROM documents) d,
                   LATERAL (SELECT unnest(range(1, len(w) - 1)) AS i) t),
            bench AS (SELECT DISTINCT g FROM tri WHERE doc_id % 97 = 3),
            cw AS (
              SELECT doc_id, CAST(i AS BIGINT) AS p,
                     substr(text, CAST(i AS INT) + 1, 64) AS w64
              FROM documents,
                   LATERAL (SELECT unnest(range(0, greatest(length(text) - 63, 0))) AS i) t
              WHERE length(text) >= 64),
            crem AS (
              SELECT doc_id, p FROM (
                SELECT doc_id, p, count(*) OVER (PARTITION BY w64) AS c,
                       row_number() OVER (PARTITION BY w64 ORDER BY doc_id, p) AS rn
                FROM cw) WHERE c >= 2 AND rn > 1),
            chars AS (
              SELECT doc_id, CAST(i AS BIGINT) AS i, text
              FROM documents,
                   LATERAL (SELECT unnest(range(0, length(text))) AS i) t),
            cutpos AS (
              SELECT DISTINCT c.doc_id, c.i
              FROM chars c JOIN crem m
                   ON m.doc_id = c.doc_id AND c.i BETWEEN m.p AND m.p + 63),
            cleaned AS (
              SELECT c.doc_id,
                     coalesce(string_agg(
                       CASE WHEN cp.i IS NULL
                            THEN substr(c.text, CAST(c.i AS INT) + 1, 1) END,
                       '' ORDER BY c.i), '') AS cleaned,
                     count(cp.i) AS n_cut
              FROM chars c LEFT JOIN cutpos cp
                   ON cp.doc_id = c.doc_id AND cp.i = c.i
              GROUP BY c.doc_id)
            SELECT 'contam' AS section, doc_id, count(DISTINCT g) AS n, '' AS s
            FROM tri
            WHERE doc_id % 97 <> 3 AND g IN (SELECT g FROM bench)
            GROUP BY doc_id
            UNION ALL
            SELECT 'cut' AS section, d.doc_id, coalesce(cl.n_cut, 0) AS n,
                   md5(coalesce(cl.cleaned, d.text)) AS s
            FROM documents d LEFT JOIN cleaned cl ON d.doc_id = cl.doc_id
        """,
        # MinHash+LSH near-dup: the engine's VERIFY stage computes exact
        # char-5-shingle Jaccard for every banding candidate, and on the
        # fixed test corpora LSH banding has full recall for pairs at
        # jaccard >= 0.5 (verified at sf0.001 and sf0.01), so the output
        # equals the exhaustive exact-Jaccard pair table SQL computes.
        # Shingles here are byte==char (ASCII corpus); windows
        # max(1, len-4) match _shingle_hashes.
        "minhash_pairs": """
            WITH sh AS (
              SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 5) AS s
              FROM documents,
                   LATERAL (SELECT unnest(range(1, greatest(1, length(text) - 4) + 1)) AS i) t
            ), sizes AS (
              SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
            ), inter AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
              FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            )
            SELECT id_a, id_b, round(c / (na.n + nb.n - c), 6) AS jaccard
            FROM inter
            JOIN sizes na ON na.doc_id = id_a
            JOIN sizes nb ON nb.doc_id = id_b
            WHERE c / (na.n + nb.n - c) >= 0.5
            ORDER BY id_a, id_b
        """,
        # transitive closure of the same exact-Jaccard pair graph:
        # WITH RECURSIVE reachability from every node over symmetrized
        # edges; component = min reachable node (= min of the connected
        # component), keep = node is its component's min
        # two graph algorithms in one (method, node, value) table: the
        # recursive-CTE closure for the CC family rows, and a 10-step
        # UNROLLED PageRank chain over the corpus' arithmetic link graph
        # (same 6-link rule as crawl_cte; redirect docs emit no <a>
        # hrefs, dead links are relative and drop out on the Ray side —
        # the SQL edge rule therefore omits both).  rank*1e6 is rounded
        # HALF-UP on both sides (floor(x + 0.5)) — np.round is
        # half-to-even, DuckDB round() is half-away, floor(+0.5) is the
        # one rule both engines compute identically.
        "dup_clusters": f"""
            WITH RECURSIVE sh AS (
              SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 5) AS s
              FROM documents,
                   LATERAL (SELECT unnest(range(1, greatest(1, length(text) - 4) + 1)) AS i) t
            ), sizes AS (
              SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
            ), inter AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
              FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            ), pairs AS (
              SELECT id_a, id_b FROM inter
              JOIN sizes na ON na.doc_id = id_a
              JOIN sizes nb ON nb.doc_id = id_b
              WHERE c / (na.n + nb.n - c) >= 0.5
            ), edges AS (
              SELECT id_a AS u, id_b AS v FROM pairs
              UNION SELECT id_b, id_a FROM pairs
            ), reach(node, root) AS (
              SELECT u, u FROM (SELECT DISTINCT u FROM edges)
              UNION
              SELECT r.node, e.v FROM reach r JOIN edges e ON e.u = r.root
            ),
            nd AS (SELECT count(*)::BIGINT AS n FROM documents),
            pedges AS (
              SELECT d.doc_id AS src, (d.doc_id * 31 + g.d * 97 + 1) % p.n AS dst
              FROM documents d CROSS JOIN nd p CROSS JOIN range(6) g(d)
              WHERE d.doc_id % 43 <> 11
            ),
            pdeg AS (SELECT src, count(*)::DOUBLE AS deg FROM pedges GROUP BY src),
            r0 AS (SELECT doc_id AS id, 1.0 / p.n AS r FROM documents CROSS JOIN nd p),
            {_PAGERANK_CHAIN}
            SELECT 'component' AS method, node, min(root) AS value
            FROM reach GROUP BY node
            UNION ALL
            SELECT 'keep', node, CAST(node = min(root) AS BIGINT)
            FROM reach GROUP BY node
            UNION ALL
            SELECT 'pagerank_micro', id,
                   CAST(floor(r * 1000000 + 0.5) AS BIGINT)
            FROM r{_PAGERANK_ITERS}
        """,
        # real-codec multimodal decode: the media corpus is analytic in
        # the index i (synthesize_real_media_table), so every decoded
        # value — image dims & mean pixel, WAV/FLAC duration & RMS
        # energy, MP4 frame count & duration (10 fps, timescale 1000 →
        # exactly n_frames·100000 µs out of the stts/mdhd tables) —
        # has a closed form the engine must hit exactly after real
        # container parsing.
        "media_stages": _media_stages_oracle_sql(),
    }
