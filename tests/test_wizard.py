"""Scripted wizard — parity with /root/reference/src/wizard/.

The preset/argv cases are ported from the reference's own unit tests
(presets.rs:479-648, form.rs:460-510); the scripted end-to-end runs the
generated command through the real CLI against a corpus crawl.
"""

import json
import os

import pytest

from siteone_crawler_ray.pipelines.wizard import (
    PRESETS, FormSetting, WizardCancelled, WizardState, apply_form_to_state,
    argv_to_cli_args, build_form_settings, find_export_dirs, parse_max_urls,
    parse_rps, parse_timeout, resolve_export_path, run_wizard_scripted,
    snap_max_urls, snap_rps, snap_timeout, snap_workers,
    summary_lines)
from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus


def _state(idx: int, url: str = "https://example.com") -> WizardState:
    s = WizardState.from_preset(PRESETS[idx])
    s.url = url
    return s


# ---- preset table + build_argv (presets.rs:479-648) ----


def test_preset_count_and_last_is_custom():
    assert len(PRESETS) == 10
    assert PRESETS[-1].name == "Custom"


def test_build_argv_contains_url_and_custom_is_minimal():
    argv = _state(9).build_argv()
    assert argv[0] == "siteone-crawler"
    assert argv[1] == "--url='https://example.com'"
    assert len(argv) == 2  # Custom == defaults, nothing else emitted


def test_build_argv_quick_audit():
    argv = _state(0).build_argv()
    assert "--workers=5" in argv
    assert "--extra-columns='Title(20)'" in argv
    assert "--hide-columns='cache'" in argv


def test_build_argv_seo_disables_assets_and_extra_columns():
    argv = _state(1).build_argv()
    for flag in ("--disable-javascript", "--disable-styles",
                 "--disable-fonts", "--disable-images", "--disable-files",
                 "--workers=8", "--max-reqs-per-sec=20"):
        assert flag in argv
    assert ("--extra-columns='Title(20),Description(20),"
            "H1=xpath://h1/text()(40)'") in argv


def test_build_argv_performance_test():
    argv = _state(2).build_argv()
    for flag in ("--timeout=10", "--max-reqs-per-sec=5", "--no-cache",
                 "--max-visited-urls=5000"):
        assert flag in argv


def test_build_argv_security_check_keeps_js():
    argv = _state(3).build_argv()
    for flag in ("--disable-styles", "--disable-fonts", "--disable-images"):
        assert flag in argv
    assert "--disable-javascript" not in argv


def test_build_argv_offline_clone():
    argv = _state(4).build_argv()
    assert any(a.startswith("--offline-export-dir=") for a in argv)
    for flag in ("--no-cache", "--max-visited-urls=100000", "--workers=2"):
        assert flag in argv
    assert "--allowed-domain-for-external-files='*'" in argv


def test_build_argv_markdown_export_keeps_images():
    argv = _state(5).build_argv()
    assert any(a.startswith("--markdown-export-dir=") for a in argv)
    assert "--disable-javascript" in argv
    assert "--disable-images" not in argv
    assert "--max-visited-urls=20000" in argv


def test_build_argv_stress_test():
    argv = _state(6).build_argv()
    for flag in ("--workers=20", "--max-reqs-per-sec=20",
                 "--add-random-query-params", "--ignore-robots-txt",
                 "--no-cache", "--disable-javascript", "--disable-styles",
                 "--disable-fonts", "--disable-images", "--disable-files"):
        assert flag in argv


def test_build_argv_single_page():
    argv = _state(7).build_argv()
    for flag in ("--single-page", "--workers=1", "--timeout=10",
                 "--max-visited-urls=1"):
        assert flag in argv


def test_build_argv_large_site():
    argv = _state(8).build_argv()
    for flag in ("--workers=10", "--max-reqs-per-sec=50",
                 "--max-visited-urls=0", "--timeout=3",
                 "--ignore-robots-txt", "--sitemap-xml-file='./sitemap.xml'"):
        assert flag in argv


def test_content_summary():
    assert _state(0).content_summary() == "HTML, JS, CSS, Fonts, Images, Files"
    assert _state(1).content_summary() == "HTML"  # SEO: everything off
    assert _state(5).content_summary() == "HTML, Images, Files"  # Markdown


def test_description_lengths_within_range():
    for p in PRESETS:
        assert 50 <= len(p.description) <= 65, p.name


# ---- form model (form.rs) ----


def test_cycle_wraps_around():
    s = FormSetting("test", ["a", "b", "c"])
    s.cycle_left()
    assert s.value() == "c"
    s.cycle_right()
    assert s.value() == "a"
    s.cycle_right()
    assert s.value() == "b"


def test_set_value_rejects_non_options():
    s = FormSetting("Workers", ["1", "2", "3"])
    with pytest.raises(ValueError, match="options: 1, 2, 3"):
        s.set_value("7")


def test_parse_values():
    assert parse_timeout("10s") == 10 and parse_timeout("bogus") == 5
    assert parse_rps("unlimited") == 0 and parse_rps("50/s") == 50
    assert parse_max_urls("unlimited") == 0 and parse_max_urls("5000") == 5000


def test_snap_defaults_to_buckets():
    # form.rs:182-230 match arms, boundary cases
    assert snap_timeout(0) == "1s" and snap_timeout(4) == "3s"
    assert snap_timeout(29) == "10s" and snap_timeout(999) == "60s"
    assert snap_workers(8) == "8" and snap_workers(19) == "10"
    assert snap_workers(49) == "20" and snap_workers(50) == "50"
    assert snap_rps(0) == "unlimited" and snap_rps(15) == "20/s"
    assert snap_rps(300) == "500/s"
    assert snap_max_urls(0) == "unlimited" and snap_max_urls(2500) == "5000"
    assert snap_max_urls(75000) == "100000"


def test_form_round_trip_snaps_to_buckets():
    # an untouched form pass maps every numeric field to its snap bucket
    # (lossy exactly where the reference is: Security Check's rps=15
    # becomes the "20/s" option) and leaves everything else intact
    from siteone_crawler_ray.pipelines.wizard import resolve_export_paths

    for idx in range(len(PRESETS)):
        st = _state(idx)
        settings = build_form_settings(st)
        apply_form_to_state(settings, st)
        resolve_export_paths(st, "20260818")  # mod.rs:104-113 double-resolve
        expect = _state(idx)
        expect.timeout = parse_timeout(snap_timeout(expect.timeout))
        expect.workers = int(snap_workers(expect.workers))
        expect.max_reqs_per_sec = parse_rps(snap_rps(expect.max_reqs_per_sec))
        expect.max_visited_urls = parse_max_urls(
            snap_max_urls(expect.max_visited_urls))
        resolve_export_paths(expect, "20260818")
        assert st.build_argv() == expect.build_argv(), PRESETS[idx].name


def test_apply_form_changes_state():
    st = _state(9)
    settings = build_form_settings(st)
    by = {fs.label: fs for fs in settings}
    by["Workers"].set_value("20")
    by["Max requests/sec"].set_value("unlimited")
    by["JavaScript"].set_value("no")
    by["Offline export"].set_value("./tmp/")
    by["HTTP caching"].set_value("disabled")
    apply_form_to_state(settings, st)
    assert st.workers == 20 and st.max_reqs_per_sec == 0
    assert st.disable_javascript and not st.http_cache_enabled
    # enabling an export resets to the TEMPLATE (form.rs:252-262)
    assert st.offline_export_dir == "./tmp/offline-{domain}-{date}/"


# ---- placeholder resolution + serve discovery (mod.rs) ----


def test_resolve_export_path():
    got = resolve_export_path("./tmp/offline-{domain}-{date}/",
                              "https://sub.example.com/x", "20260818")
    assert got == "./tmp/offline-sub.example.com-20260818/"
    assert resolve_export_path("./tmp/m-{domain}/", "not a url", "d") \
        == "./tmp/m-unknown/"


def test_find_export_dirs_and_serve_offer(tmp_path):
    base = str(tmp_path)
    os.makedirs(os.path.join(base, "tmp", "offline-a.com-20260101"))
    os.makedirs(os.path.join(base, "tmp", "offline-b.com-20260301"))
    os.makedirs(os.path.join(base, "tmp", "markdown-a.com-20260201"))
    (tmp_path / "tmp" / "offline-notadir").write_text("x")
    got = find_export_dirs("offline", base)
    assert [d.name for d in got] == ["offline-b.com-20260301",
                                    "offline-a.com-20260101"]  # newest first
    assert find_export_dirs("markdown", base)[0].name == \
        "markdown-a.com-20260201"
    assert find_export_dirs("offline", str(tmp_path / "empty")) == []


# ---- scripted driver ----


def test_scripted_preset_with_overrides():
    argv = run_wizard_scripted(
        {"preset": "Quick Audit", "url": "https://example.com",
         "settings": {"Workers": "20", "HTTP caching": "disabled",
                      "Markdown export": "./tmp/"}},
        date="20260818")
    assert "--workers=20" in argv and "--no-cache" in argv
    assert "--markdown-export-dir='./tmp/markdown-example.com-20260818/'" \
        in argv
    # Quick Audit's non-form fields survive the form pass
    assert "--extra-columns='Title(20)'" in argv


def test_scripted_errors_and_cancel():
    with pytest.raises(ValueError, match="unknown preset"):
        run_wizard_scripted({"preset": "Nope", "url": "u"}, date="d")
    with pytest.raises(ValueError, match="non-empty 'url'"):
        run_wizard_scripted({"preset": "Custom"}, date="d")
    with pytest.raises(ValueError, match="unknown setting"):
        run_wizard_scripted({"preset": "Custom", "url": "https://e.com",
                             "settings": {"Bogus": "1"}}, date="d")
    with pytest.raises(ValueError, match="invalid value"):
        run_wizard_scripted({"preset": "Custom", "url": "https://e.com",
                             "settings": {"Workers": "7"}}, date="d")
    with pytest.raises(WizardCancelled):
        run_wizard_scripted({"preset": "Custom", "url": "https://e.com",
                             "confirm": False}, date="d")


def test_scripted_serve_selection(tmp_path):
    base = str(tmp_path)
    os.makedirs(os.path.join(base, "tmp", "offline-a.com-20260101"))
    os.makedirs(os.path.join(base, "tmp", "offline-b.com-20260301"))
    argv = run_wizard_scripted({"serve": "offline"}, date="d", base_dir=base)
    assert argv[1].startswith("--serve-offline=")
    assert "offline-b.com-20260301" in argv[1]  # newest by default
    argv = run_wizard_scripted(
        {"serve": "offline", "export": "offline-a.com-20260101"},
        date="d", base_dir=base)
    assert "offline-a.com-20260101" in argv[1]
    with pytest.raises(ValueError, match="not found"):
        run_wizard_scripted({"serve": "offline", "export": "missing"},
                            date="d", base_dir=base)
    with pytest.raises(ValueError, match="no markdown exports"):
        run_wizard_scripted({"serve": "markdown"}, date="d", base_dir=base)


def test_argv_to_cli_args_strips_prog_and_quotes():
    st = _state(0)
    argv = st.build_argv()
    toks = argv_to_cli_args(argv)
    assert toks[0] == "--url=https://example.com"
    assert "--workers=5" in toks and "--hide-columns=cache" in toks
    assert not any(t.startswith("siteone-crawler") for t in toks)
    assert summary_lines(st, argv)[0] == "Preset:    Quick Audit"


# ---- CLI end-to-end: answers doc → generated command → real crawl ----


def test_cli_wizard_dry_run(tmp_path, capsys):
    from siteone_crawler_ray import cli

    ans = tmp_path / "answers.json"
    ans.write_text(json.dumps({"preset": "SEO Analysis",
                               "url": "https://example.com"}))
    rc = cli.main(["--wizard-answers", str(ans), "--wizard-dry-run"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Preset:    SEO Analysis" in out
    assert "Content:   HTML" in out
    assert "--workers=8" in out


def test_cli_wizard_cancel_and_bad_doc(tmp_path, capsys):
    from siteone_crawler_ray import cli

    ans = tmp_path / "a.json"
    ans.write_text(json.dumps({"preset": "Custom", "url": "https://e.com",
                               "confirm": False}))
    assert cli.main(["--wizard-answers", str(ans)]) == 0  # main.rs:41-46
    assert "Wizard cancelled." in capsys.readouterr().out
    ans.write_text(json.dumps({"preset": "Nope", "url": "u"}))
    assert cli.main(["--wizard-answers", str(ans)]) == 2


def test_cli_wizard_executes_generated_crawl(tmp_path, ray_session, capsys):
    from siteone_crawler_ray import cli

    tabs = make_graph_corpus(seed=46, hosts=1, total_pages=60)
    cp = os.path.join(str(tmp_path), "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    seed = tabs["seeds"]["url"][0].as_py()
    wd = os.path.join(str(tmp_path), "w")
    ans = tmp_path / "answers.json"
    ans.write_text(json.dumps({
        "preset": "Quick Audit", "url": seed,
        "settings": {"Max visited URLs": "100"}}))
    rc = cli.main(["--wizard-answers", str(ans), "--corpus", cp,
                   "--workdir", wd])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Command:   siteone-crawler --url=" in out
    # the generated crawl actually ran against the corpus
    assert os.path.isdir(os.path.join(wd, "visited"))


# ---- property: every wizard command parses through the real CLI ----

try:
    from hypothesis import given, settings as hyp_settings, strategies as st

    _FORM_LABELS = {fs.label: fs.options
                    for fs in build_form_settings(WizardState())}

    @st.composite
    def _answers(draw):
        preset = draw(st.sampled_from([p.name for p in PRESETS]))
        chosen = draw(st.dictionaries(
            st.sampled_from(sorted(_FORM_LABELS)), st.none(), max_size=6))
        settings = {label: draw(st.sampled_from(_FORM_LABELS[label]))
                    for label in chosen}
        return {"preset": preset, "url": "https://fuzz.example/p",
                "settings": settings}

    @given(_answers())
    @hyp_settings(max_examples=60, deadline=None)
    def test_fuzz_generated_command_parses_through_cli(answers):
        """Any preset + any valid form selection must yield a command the
        real CLI parser accepts, with the numeric knobs surviving the
        round trip — guards the flag-name coupling between wizard.py's
        argv builder and cli.py's parser."""
        from siteone_crawler_ray.cli import build_parser

        argv, state = run_wizard_scripted(
            answers, date="20260818", with_state=True)
        tokens = argv_to_cli_args(argv)
        ns = build_parser().parse_args(tokens)
        assert ns.url == [answers["url"]]  # --url is repeatable (list)
        assert ns.max_visited_urls == state.max_visited_urls
        if state.workers != 3:
            assert ns.workers == state.workers
        for flag in ("javascript", "styles", "fonts", "images", "files"):
            assert getattr(ns, f"disable_{flag}") == \
                getattr(state, f"disable_{flag}")
except ImportError:  # pragma: no cover - hypothesis is in the container
    pass
