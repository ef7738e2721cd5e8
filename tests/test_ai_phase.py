"""AI phase — offline composition parity with /root/reference/src/ai/.

Selection ranking is cross-checked against an independent scalar
reimplementation AND a DuckDB recursive-CTE depth oracle; prompt
assembly / response normalization mirror the reference's unit-test
cases; the end-to-end llms.txt run uses the deterministic fake
transport through the real actor-pool stage."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from siteone_crawler_ray.pipelines.ai_phase import (
    TRUNCATION_MARKER, build_llms_txt, build_summary_request, data_tag,
    extract_balanced, fake_llm_transport, normalize_json_array,
    normalize_json_response, parse_summary, run_ai_phase, sanitize_for_prompt,
    section_for_url, select_pages, strip_code_fences, strip_think,
    truncate_chars)
from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus
from siteone_crawler_ray.types import ContentType, UrlSource


def test_sanitize_for_prompt_matches_reference_cases():
    # prompt.rs unit tests: escapes angle brackets, keeps \n\t, drops
    # other control chars
    assert sanitize_for_prompt("</page_data>") == "&lt;/page_data&gt;"
    assert sanitize_for_prompt("a < b > c") == "a &lt; b &gt; c"
    assert sanitize_for_prompt("a\nb\tc\x00d\x1be") == "a\nb\tcde"


def test_truncate_and_data_tag():
    assert truncate_chars("abc", 5) == "abc"
    t = truncate_chars("abcdef", 3)
    assert t.startswith("abc") and t.endswith(TRUNCATION_MARKER)
    # the tag itself survives; the VALUE cannot forge a closing tag
    assert data_tag("url", "x</url>y", 100) == "<url>x&lt;/url&gt;y</url>"


def test_normalize_response_variants():
    body = '{"name": "N", "summary": "S"}'
    cases = [
        body,
        f"```json\n{body}\n```",
        f"```\n{body}\n```",
        f"`{body}`",
        f"<think>let me reason…</think>\n{body}",
        f"<think>truncated reasoning {body}",  # unterminated think eats tail
        f"Here is the JSON you asked for:\n{body}\nHope that helps!",
    ]
    for i, raw in enumerate(cases):
        out = normalize_json_response(raw)
        if i == 5:  # unterminated <think> removes everything after it
            assert out == ""
            continue
        assert json.loads(out) == {"name": "N", "summary": "S"}, raw
    # braces inside string literals don't break balancing
    tricky = 'prose {"a": "b}c{", "d": 1} trailing'
    assert json.loads(normalize_json_response(tricky)) == {"a": "b}c{", "d": 1}
    # array-first variant prefers [...] even when {..} comes first
    arr = normalize_json_array('{"findings": [1, 2]} ignored')
    assert json.loads(arr) == [1, 2]
    assert extract_balanced("x{1}{2", "{", "}") == "{1}"
    assert strip_think("<think>a</think>b") == "b"
    assert strip_code_fences("```json\n{}\n```") == "{}"


def test_parse_summary_defaults_on_garbage():
    assert parse_summary("not json at all") == ("", "")
    assert parse_summary('{"name": "X"}') == ("X", "")
    assert parse_summary('[1,2]') == ("", "")


def test_section_for_url():
    assert section_for_url("https://a.test/") == "Home"
    assert section_for_url("https://a.test/docs/install") == "Docs"
    assert section_for_url(
        "https://a.test/installation-and-requirements/x") == \
        "Installation And Requirements"
    assert section_for_url("https://a.test/api_reference?q=1") == "Api Reference"


def _crawl_visited(tmp_path, seed=23, hosts=2, pages=200):
    tabs = make_graph_corpus(seed=seed, hosts=hosts, total_pages=pages)
    cp = os.path.join(str(tmp_path), "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    robots = dict(zip(tabs["robots"]["host"].to_pylist(),
                      tabs["robots"]["body"].to_pylist()))
    cfg = CrawlConfig(use_ray=False, num_shards=2)
    res = EpochCrawler(cp, tabs["seeds"]["url"].to_pylist(), robots,
                       os.path.join(str(tmp_path), "w"), cfg).run()
    return res.visited_table(columns=[
        "uq_id", "url", "source_uq_id", "source_attr", "status_code",
        "content_type", "is_external", "title", "description", "spans"])


def test_select_pages_matches_scalar_and_duckdb_depths(tmp_path):
    visited = _crawl_visited(tmp_path)
    sel = select_pages(visited, max_pages=25)
    assert 0 < sel.selected.num_rows <= 25
    assert sel.total_html_pages >= sel.total_candidates_before_cap

    # independent scalar reimplementation of selection.rs:140-193
    rows = visited.to_pylist()
    init = next((r["uq_id"] for r in rows
                 if r["source_attr"] == UrlSource.INIT_URL), None)
    kids = {}
    for r in rows:
        kids.setdefault(r["source_uq_id"], []).append(r["uq_id"])
    depths, frontier = ({init: 0}, [init]) if init else ({}, [])
    while frontier:
        nxt = []
        for node in frontier:
            for k in kids.get(node, ()):
                if k not in depths:
                    depths[k] = depths[node] + 1
                    nxt.append(k)
        frontier = nxt
    fanout = {}
    for r in rows:
        fanout[r["source_uq_id"]] = fanout.get(r["source_uq_id"], 0) + 1

    import math
    from urllib.parse import urlsplit
    want = []
    for r in rows:
        if r["status_code"] != 200 or r["content_type"] != ContentType.HTML \
                or r["is_external"]:
            continue
        d = depths.get(r["uq_id"], 99)
        hp = 40.0 if (r["uq_id"] == init or r["source_uq_id"] == init
                      or d <= 1) else 0.0
        fo = fanout.get(r["uq_id"], 0)
        segs = len([s for s in urlsplit(r["url"]).path.strip("/").split("/")
                    if s])
        score = (hp + 40.0 / (1.0 + d)
                 + min(5.0 * math.log2(1.0 + fo), 25.0)
                 + (15.0 if r["source_attr"] == UrlSource.SITEMAP else 0.0)
                 + max(10.0 - 2.0 * segs, 0.0))
        want.append((r["uq_id"], r["url"], score))
    want.sort(key=lambda t: -t[2])  # python sort is stable, like Rust's
    want = want[:25]
    got = list(zip(sel.selected["uq_id"].to_pylist(),
                   sel.selected["url"].to_pylist(),
                   sel.selected["score"].to_pylist()))
    assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
    assert np.allclose([s for *_, s in got], [s for *_, s in want])

    # DuckDB recursive-CTE depth oracle over the same edge list
    import duckdb
    edges = pa.table({
        "uq_id": visited["uq_id"], "src": visited["source_uq_id"]})
    con = duckdb.connect()
    con.register("edges", edges)
    dd = con.execute("""
        WITH RECURSIVE d AS (
          SELECT uq_id, 0 AS depth FROM edges WHERE uq_id = ?
          UNION
          SELECT e.uq_id, d.depth + 1 FROM edges e JOIN d ON e.src = d.uq_id
        )
        SELECT uq_id, min(depth) AS depth FROM d GROUP BY uq_id
    """, [init]).fetchall()
    duck_depths = dict(dd)
    for k, v in depths.items():
        assert duck_depths[k] == v, k


def test_masks_fail_closed_and_lookahead_compiles(tmp_path, capsys):
    visited = _crawl_visited(tmp_path, seed=29, pages=120)
    all_sel = select_pages(visited, max_pages=1000)
    n_all = all_sel.total_candidates_before_cap
    # PCRE-style negative lookahead must COMPILE (selection.rs test):
    # excluding everything that is not under /press/ keeps ~nothing
    look = select_pages(visited, exclude=(r"^(?!.*/press/).*$",),
                        max_pages=1000)
    assert look.total_candidates_before_cap < n_all
    # an invalid pattern is dropped with a loud warning, never a crash
    bad = select_pages(visited, include=("(unclosed",), max_pages=1000)
    assert "IGNORED" in capsys.readouterr().err
    assert bad.total_candidates_before_cap == n_all  # dropped ⇒ no filter
    # include mask keeps only matching urls
    one_url = all_sel.selected["url"][0].as_py()
    only = select_pages(visited, include=(one_url.replace("?", r"\?"),),
                        max_pages=1000)
    assert 1 <= only.total_candidates_before_cap < n_all


def test_fake_transport_variants_all_parse():
    # the fake rotates through raw/fenced/backtick/think wrappings —
    # each must survive normalization into a (name, summary) pair
    from siteone_crawler_ray.pipelines.ai_phase import (ChatRequest,
                                                        PageContext)
    seen = set()
    for i in range(16):
        req = build_summary_request(
            PageContext(url=f"https://x.test/p{i}", title=f"T{i}"))
        raw, pt, ct = fake_llm_transport(req)
        name, summary = parse_summary(raw)
        assert name and summary, raw
        assert pt > 0 and ct > 0
        seen.add(req.cache_key() % 4)
    assert len(seen) >= 3  # multiple wrapping variants exercised


def test_run_ai_phase_end_to_end(tmp_path, ray_session):
    visited = _crawl_visited(tmp_path, seed=31, pages=150)
    out1 = run_ai_phase(visited, site_name="Example Site",
                        site_summary="A synthetic crawl corpus.",
                        max_pages=12, concurrency=2)
    out2 = run_ai_phase(visited, site_name="Example Site",
                        site_summary="A synthetic crawl corpus.",
                        max_pages=12, concurrency=3, use_ray=False)
    # deterministic across runs AND across ray/in-process execution
    assert out1["llms_txt"] == out2["llms_txt"]
    txt = out1["llms_txt"]
    assert txt.startswith("# Example Site\n\n> A synthetic crawl corpus.\n")
    assert "## " in txt and "- [" in txt and "](https://" in txt
    # the max_pages selection is the only bound on the Ray path's
    # take_all(): with more candidates than the cap, the SummaryStage
    # must see exactly the selected rows (one llms-txt call per row)
    assert out1["selection"]["total_candidates_before_cap"] > 12
    n = out1["entries"].num_rows
    assert n == 12
    assert out1["usage"]["calls"] == n
    assert out1["usage"]["prompt_tokens"] > 0
    # every selected page produced a parsed (non-empty) entry
    assert all(out1["entries"]["name"].to_pylist())
    assert all(out1["entries"]["summary"].to_pylist())
    # entries follow selection (score) order
    sel = select_pages(visited, max_pages=12)
    assert out1["entries"]["url"].to_pylist() == sel.selected["url"].to_pylist()


def test_build_llms_txt_grouping_and_fallbacks():
    entries = [
        {"url": "https://a.test/", "name": "Home Page", "summary": "Root.",
         "section": "Home"},
        {"url": "https://a.test/docs/a", "name": "", "summary": "",
         "section": "Docs"},
        {"url": "https://a.test/docs/b", "name": "B", "summary": "About B.",
         "section": "Docs"},
    ]
    txt = build_llms_txt("S", "", entries)
    assert "> " not in txt  # empty site summary omitted
    home, docs = txt.index("## Home"), txt.index("## Docs")
    assert home < docs  # first-seen section order
    # empty name falls back to the url; empty summary drops the colon
    assert "- [https://a.test/docs/a](https://a.test/docs/a)\n" in txt
    assert "- [B](https://a.test/docs/b): About B.\n" in txt


def test_cli_ai_phase_end_to_end(tmp_path, ray_session, capsys):
    """--ai-dry-run previews the ranked selection; --ai-provider fake
    writes a deterministic llms.txt; a live provider warns and skips."""
    from siteone_crawler_ray import cli

    tabs = make_graph_corpus(seed=41, hosts=2, total_pages=120)
    cp = os.path.join(str(tmp_path), "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    seed = tabs["seeds"]["url"][0].as_py()

    rc = cli.main(["--url", seed, "--corpus", cp,
                   "--workdir", os.path.join(str(tmp_path), "w1"),
                   "--ai-dry-run", "--ai-max-pages", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "AI selection (dry-run): 5 of" in out

    rc = cli.main(["--url", seed, "--corpus", cp,
                   "--workdir", os.path.join(str(tmp_path), "w2"),
                   "--ai-provider", "fake", "--ai-max-pages", "6"])
    assert rc == 0
    p = os.path.join(str(tmp_path), "w2", "llms.txt")
    with open(p, encoding="utf-8") as f:
        txt = f.read()
    assert txt.startswith("# ") and txt.count("- [") == 6

    rc = cli.main(["--url", seed, "--corpus", cp,
                   "--workdir", os.path.join(str(tmp_path), "w3"),
                   "--ai-provider", "openai"])
    assert rc == 0
    assert "needs a live" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(str(tmp_path), "w3", "llms.txt"))


def test_seo_action_request_and_parse():
    from siteone_crawler_ray.pipelines.ai_phase import (
        PageContext, _string_or_vec, build_seo_request, parse_seo)

    ctx = PageContext(url="https://a.test/docs/x", title="T",
                      meta_description="D", content_markdown="body")
    req = build_seo_request(ctx, "Acme", is_homepage=False)
    # reference field order (actions/seo.rs:150-183)
    u = req.user
    assert u.index("<url>") < u.index("<site_name>") < \
        u.index("<is_homepage>") < u.index("<current_title>") < \
        u.index("<heading_outline>") < u.index("<content_markdown>")
    assert "<site_name>Acme</site_name>" in u
    assert "<is_homepage>false</is_homepage>" in u

    # defaults on garbage / partial JSON (serde #[serde(default)])
    d = parse_seo("nonsense")
    assert d["scores"]["overall"] == 0 and d["lang"] == ""
    assert d["recommendations"]["meta_keywords"] == []
    d = parse_seo('{"scores": {"title": "55"}, '
                  '"recommendations": {"meta_keywords": "a, b,, c"}}')
    assert d["scores"]["title"] == 55
    assert d["recommendations"]["meta_keywords"] == ["a", "b", "c"]
    # string_or_vec both shapes (seo.rs:224-243)
    assert _string_or_vec(["x", " y ", ""]) == ["x", "y"]
    assert _string_or_vec("x, y") == ["x", "y"]
    assert _string_or_vec(None) == []


def test_typos_action_strips_code_and_forces_lang():
    from siteone_crawler_ray.pipelines.ai_phase import (
        PageContext, build_typos_request, parse_typos)

    ctx = PageContext(url="https://a.test/", title="T",
                      content_markdown="text\n```\nfn mian() {}\n```\nmore")
    req = build_typos_request(ctx)
    assert "mian" not in req.user and "[code omitted]" in req.user
    req2 = build_typos_request(ctx, forced_lang="cs")
    assert "<lang>cs</lang>" in req2.user and "cs" in req2.system
    d = parse_typos('{"lang": "en", "issues": [{"type": "spelling", '
                    '"excerpt": "teh"}]}')
    assert d["issues"][0]["kind"] == "spelling"
    assert d["issues"][0]["severity"] == ""  # missing → default
    assert parse_typos("garbage") == {"lang": "", "issues": []}


def test_custom_action_interpolation_and_parse():
    from siteone_crawler_ray.pipelines.ai_phase import (
        CUSTOM_PREAMBLE, PageContext, build_custom_request, interpolate,
        parse_custom)

    ctx = PageContext(url="https://a.test/p", title="<T>",
                      content_markdown="body text")
    # placeholders wrap values in sanitized data tags automatically
    s = interpolate("Check {{title}} on {{url}}.", ctx)
    assert "<title>&lt;T&gt;</title>" in s and "<url>https://a.test/p</url>" in s
    # a prompt with no placeholder still gets the page appended
    req = build_custom_request("Audit tone of voice.", ctx)
    assert req.system == CUSTOM_PREAMBLE
    assert "<content_markdown>body text</content_markdown>" in req.user
    # array / wrapper / prose-fallback parsing (custom.rs:122-151)
    arr = parse_custom('[{"severity": "high", "label": "L", "message": "M"}]')
    assert arr[0]["severity"] == "high" and arr[0]["location"] == ""
    wrapped = parse_custom('{"findings": [{"label": "W"}]}')
    assert wrapped[0]["label"] == "W"
    prose = parse_custom("The page looks fine to me.")
    assert prose[0]["severity"] == "info" and "fine" in prose[0]["message"]
    assert parse_custom("<think>only thoughts") == []


def test_run_ai_phase_all_actions(tmp_path, ray_session):
    from siteone_crawler_ray.pipelines.ai_phase import build_llms_full

    visited = _crawl_visited(tmp_path, seed=37, pages=120)
    out = run_ai_phase(
        visited, site_name="Acme", site_summary="Synthetic.",
        max_pages=6, concurrency=2,
        actions=("llms-txt", "llms-full", "seo", "typos", "custom"),
        custom_prompt="Check {{content_markdown}} for policy issues.")
    n = out["entries"].num_rows
    assert n == 6
    # one summary call (shared by llms-txt/llms-full) + seo + typos +
    # custom per page (runner.rs:81-87 call accounting)
    assert out["usage"]["calls"] == 4 * n
    # llms-full carries the page markdown under summary-derived names
    full = out["llms_full"]
    assert full.startswith("# Acme\n\n> Synthetic.\n")
    assert full.count("---\n") == n and full.count("URL: https://") == n
    # action results are well-formed JSON per page
    for col, probe in (("seo", "scores"), ("typos", "issues")):
        for s in out["entries"][col].to_pylist():
            assert probe in json.loads(s)
    for s in out["entries"]["custom"].to_pylist():
        assert isinstance(json.loads(s), list)
    # determinism across executions
    out2 = run_ai_phase(
        visited, site_name="Acme", site_summary="Synthetic.",
        max_pages=6, concurrency=3, use_ray=False,
        actions=("llms-txt", "llms-full", "seo", "typos", "custom"),
        custom_prompt="Check {{content_markdown}} for policy issues.")
    assert out2["llms_full"] == full
    assert out2["entries"].to_pylist() == out["entries"].to_pylist()
    assert build_llms_full("S", "", []) == "# S\n"


def test_cli_ai_all_actions(tmp_path, ray_session, capsys):
    from siteone_crawler_ray import cli

    tabs = make_graph_corpus(seed=43, hosts=2, total_pages=100)
    cp = os.path.join(str(tmp_path), "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    seed = tabs["seeds"]["url"][0].as_py()
    wd = os.path.join(str(tmp_path), "w")
    rc = cli.main(["--url", seed, "--corpus", cp, "--workdir", wd,
                   "--ai-provider", "fake", "--ai-max-pages", "4",
                   "--ai-actions", "llms-txt,llms-full,seo,typos,custom",
                   "--ai-prompt", "Check {{title}}."])
    assert rc == 0
    assert os.path.exists(os.path.join(wd, "llms.txt"))
    assert os.path.exists(os.path.join(wd, "llms-full.txt"))
    with open(os.path.join(wd, "ai-actions.json"), encoding="utf-8") as f:
        recs = json.load(f)
    assert len(recs) == 4
    assert all("scores" in r["seo"] and "issues" in r["typos"]
               and isinstance(r["custom"], list) for r in recs)
    out = capsys.readouterr().out
    assert "AI usage: 16 calls" in out


# ---- executive summary (src/ai/summary/: 5 area evals + synthesis) ----


def _summary_visited() -> pa.Table:
    return pa.table({
        "url": ["https://a.example/", "https://a.example/p1",
                "http://a.example/old", "https://cdn.example/x.css"],
        "status_code": pa.array([200, 200, 301, 200], pa.int32()),
        "content_type": pa.array(
            [ContentType.HTML, ContentType.HTML, ContentType.REDIRECT,
             ContentType.STYLESHEET], pa.int32()),
        "is_external": [False, False, False, True],
        "size": pa.array([1000, 2500, 0, 300], pa.int64()),
    })


def test_build_area_inputs_scope_and_grouping():
    from siteone_crawler_ray.pipelines.ai_phase import (
        SUMMARY_AREAS, build_area_inputs)
    from siteone_crawler_ray.pipelines.scoring import Finding

    findings = [
        Finding(category="security", severity="WARNING", count=3, rule="https"),
        Finding(category="seo", severity="NOTICE", count=2, rule="title-dup"),
        Finding(category="best_practice", severity="CRITICAL", count=1,
                rule="broken-links"),
    ]
    got = build_area_inputs(_summary_visited(), findings,
                            {"security": 7.0, "seo": 9.5})
    assert [a for a, _ in got] == list(SUMMARY_AREAS)
    payload = dict(got)
    scope = payload["security"]["scope"]
    assert scope == {"total_urls": 4, "html_pages": 2, "internal_urls": 3,
                     "external_urls": 1, "https_urls": 3, "http_urls": 1,
                     "total_transfer_bytes": 3800}
    assert payload["security"]["findings"] == [
        {"severity": "WARNING", "code": "https", "count": 3}]
    assert payload["security"]["category_score"]["score_0_to_10"] == 7.0
    # best_practice routes to infrastructure; unknown scores stay None
    assert payload["infrastructure"]["findings"][0]["code"] == "broken-links"
    assert payload["performance"]["category_score"]["score_0_to_10"] is None
    assert payload["seo"]["findings"][0]["count"] == 2


def test_area_and_synthesis_requests_round_trip_fake_transport():
    from siteone_crawler_ray.pipelines.ai_phase import (
        SUMMARY_AREAS, build_area_request, build_synthesis_request,
        parse_area_assessment, parse_report_summary)

    assessments = []
    for area in SUMMARY_AREAS:
        req = build_area_request(area, {"area": area, "scope": {},
                                        "findings": []})
        assert f'"area": "{area}"' in req.system
        assert "<area_data>" in req.user
        raw, _pt, _ct = fake_llm_transport(req)
        a = parse_area_assessment(raw, area)
        assert a["area"] == area and 0 <= a["score"] <= 100
        assert a["grade"] in set("ABCDF")
        assessments.append(a)
    sreq = build_synthesis_request(assessments)
    assert "<area_assessments>" in sreq.user
    # each finding inside the synthesis payload carries its parent area
    for a in assessments:
        for f in a["findings"]:
            assert f'"area": "{a["area"]}"' in sreq.user
    raw, _pt, _ct = fake_llm_transport(sreq)
    s = parse_report_summary(raw)
    assert s["overall_grade"] in set("ABCDF")
    assert all(r["area"] in SUMMARY_AREAS for r in s["recommendations"])


def test_parse_summary_objects_default_on_garbage():
    from siteone_crawler_ray.pipelines.ai_phase import (
        parse_area_assessment, parse_report_summary)

    a = parse_area_assessment("not json", "seo")
    assert a == {"area": "seo", "grade": "", "score": 0,
                 "summary_narrative": "", "findings": []}
    s = parse_report_summary("[1, 2]")
    assert s == {"overall_assessment": "", "overall_grade": "",
                 "recommendations": []}
    a2 = parse_area_assessment(
        json.dumps({"score": "bad", "findings": ["x", {"title": "t"}]}),
        "performance")
    assert a2["score"] == 0 and a2["findings"] == [
        {"severity": "", "title": "t", "detail": "", "evidence": "",
         "recommendation": ""}]


def test_run_report_summary_deterministic_and_fixed_cost():
    from siteone_crawler_ray.pipelines.ai_phase import (
        render_summary_markdown, run_report_summary)
    from siteone_crawler_ray.pipelines.scoring import Finding

    findings = [Finding(category="security", severity="WARNING", count=2,
                        rule="csp")]
    r1 = run_report_summary(_summary_visited(), findings, {"security": 8.0})
    r2 = run_report_summary(_summary_visited(), findings, {"security": 8.0})
    assert r1 == r2
    assert r1["usage"]["calls"] == 6  # 5 areas + 1 synthesis, site-size-free
    assert len(r1["assessments"]) == 5
    md = render_summary_markdown(r1)
    assert md.startswith("# Executive summary")
    assert "## Area assessments" in md
    for a in r1["assessments"]:
        assert f"**{a['area']}**" in md


def test_cli_ai_summary_action(tmp_path, ray_session, capsys):
    from siteone_crawler_ray import cli

    tabs = make_graph_corpus(seed=44, hosts=2, total_pages=80)
    cp = os.path.join(str(tmp_path), "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    seed = tabs["seeds"]["url"][0].as_py()
    wd = os.path.join(str(tmp_path), "w")
    rc = cli.main(["--url", seed, "--corpus", cp, "--workdir", wd,
                   "--ai-provider", "fake", "--ai-max-pages", "3",
                   "--ai-actions", "llms-txt,summary"])
    assert rc == 0
    sp = os.path.join(wd, "ai-summary.md")
    assert os.path.exists(sp)
    with open(sp, encoding="utf-8") as f:
        md = f.read()
    assert "# Executive summary" in md and "## Area assessments" in md
    out = capsys.readouterr().out
    assert "AI executive summary (6 calls" in out
    # llms.txt still produced; usage line includes the summary's 6 calls
    assert os.path.exists(os.path.join(wd, "llms.txt"))


def test_cli_ai_summary_only_action(tmp_path, ray_session, capsys):
    from siteone_crawler_ray import cli

    tabs = make_graph_corpus(seed=45, hosts=1, total_pages=60)
    cp = os.path.join(str(tmp_path), "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    seed = tabs["seeds"]["url"][0].as_py()
    wd = os.path.join(str(tmp_path), "w")
    rc = cli.main(["--url", seed, "--corpus", cp, "--workdir", wd,
                   "--ai-provider", "fake", "--ai-actions", "summary"])
    assert rc == 0
    assert os.path.exists(os.path.join(wd, "ai-summary.md"))
    assert not os.path.exists(os.path.join(wd, "llms.txt"))
    assert "AI usage: 6 calls" in capsys.readouterr().out
