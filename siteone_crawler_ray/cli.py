"""CLI crawl entry point — the reference's main path re-expressed.

Mirrors the option surface and post-crawl pipeline of the reference CLI
(/root/reference/src/main.rs:7-67, options/core_options.rs,
engine/manager.rs:57-465): crawl → analyzers → exporters (sitemap →
offline → markdown → JSON/text/HTML report) → quality gate with the
reference's exit codes (0 ok / 3 no pages crawled / 10 CI gate failed —
manager.rs:458-464).

Corpus mode: ``--corpus`` points at a bucketed interleaved-document
store (sources/corpus.py); fetches are keyed lookups.  robots.txt
bodies load from ``<corpus>/robots.json`` when present.

Run locally::

    python -m siteone_crawler_ray.cli --url https://site-000.test/p/00000 \
        --corpus /tmp/corpus --workdir /tmp/crawl --output-json-file report.json

or on a cluster (the north rule's submission form)::

    ray job submit --working-dir . -- python -m siteone_crawler_ray.cli ...
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Reference option strings (options/core_options.rs) that parse here but
# are inert in corpus mode: {option: (kind, reason)}.  kind "flag" =
# reference OptionType::Bool (bare flag or --x=false), anything else
# takes a value.  Supplying one prints a warning naming the reason —
# accept-and-record, never a parse error, so every reference command
# line runs unchanged.
_WHY_AI = "AI phase (reference src/ai/) needs an external LLM endpoint"
_WHY_BROWSER = "needs a headless Chromium (reference src/browser/)"
_WHY_HTTP = "live-HTTP knob; corpus-mode fetches are keyed lookups"
_WHY_CACHE = "live-HTTP response cache; corpus mode does not fetch over HTTP"
_WHY_TTY = "terminal-presentation knob; no interactive TTY UI here"
_WHY_STORE = "result storage is the workdir parquet lineage (see --workdir)"

INERT_OPTIONS: dict[str, tuple[str, str]] = {
    # --- AI phase (live-endpoint knobs only; the phase itself — page
    # selection/ranking, prompt assembly, llms.txt generation, usage
    # accounting — is LIVE via pipelines/ai_phase.py with an injectable
    # transport: --ai-provider fake runs it fully offline, --ai-dry-run
    # previews the selection for any provider) ----------------------------
    **{o: ("value", _WHY_AI) for o in (
        "--ai-api-key", "--ai-api-key-env", "--ai-api-key-file",
        "--ai-cache-dir", "--ai-endpoint", "--ai-extra-body",
        "--ai-max-reqs-per-sec", "--ai-model",
        "--ai-synthesis-extra-body",
        "--ai-timeout",
    )},
    **{o: ("flag", _WHY_AI) for o in (
        "--ai-seo-affects-score", "--ai-use-max-completion-tokens",
    )},
    # --- headless browser / screenshots / console capture -----------------
    **{o: ("value", _WHY_BROWSER) for o in (
        "--browser-path", "--browser-timeout", "--browser-wait",
        "--browser-wait-extra", "--browser-workers", "--console-max-messages",
        "--console-msg-max-chars", "--console-total-max-kb", "--console-width",
        "--device", "--ffmpeg-path", "--screenshot-format",
        "--screenshot-hide-selector", "--screenshot-mode", "--screenshot-quality",
        "--screenshot-viewport", "--screenshots-animation",
        "--screenshots-animation-frame-duration", "--screenshots-animation-width",
        "--screenshots-dir", "--websocket-server",
    )},
    **{o: ("flag", _WHY_BROWSER) for o in (
        "--browser", "--browser-auto-download", "--browser-headful",
        "--browser-no-sandbox", "--browser-render-all",
        "--remove-all-anchor-listeners", "--screenshot-hide-cookie-banners",
        "--screenshots",
    )},
    # --- live-HTTP transport ----------------------------------------------
    **{o: ("value", _WHY_HTTP) for o in (
        "--accept-encoding", "--http-auth", "--proxy", "--resolve", "--timeout",
    )},
    **{o: ("flag", _WHY_HTTP) for o in (
        "--accept-invalid-certs", "--add-random-query-params",
    )},
    # --- live-HTTP response cache -----------------------------------------
    "--http-cache-dir": ("value", _WHY_CACHE),
    "--http-cache-ttl": ("value", _WHY_CACHE),
    "--http-cache-compression": ("flag", _WHY_CACHE),
    "--no-cache": ("flag", _WHY_CACHE),
    # --- terminal presentation --------------------------------------------
    **{o: ("flag", _WHY_TTY) for o in (
        "--force-color", "--no-color", "--hide-progress-bar",
        "--show-inline-criticals", "--show-inline-warnings",
    )},
    # --- storage / runtime -------------------------------------------------
    "--result-storage": ("value", _WHY_STORE),
    "--result-storage-dir": ("value", _WHY_STORE),
    "--memory-limit": ("value", "worker memory is sized by Ray resources"),
    # --- processing knobs with engine-side equivalents ----------------------
    "--ignore-html-comments": (
        "flag", "live-HTML extraction flag (functions/html_extract.ExtractFlags"
                ".ignore_comments); corpus spans are pre-extracted"),
    "--disable-astro-inline-modules": (
        "flag", "Astro inline-module offline transform; corpus spans carry "
                "no JS bodies"),
    "--max-heading-level": (
        "value", "page-checks knob (functions/page_checks.seo_checks "
                 "max_heading_level) outside the CLI report flow"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="siteone-crawler-ray",
        description="Ray-Data-native crawl engine (reference-compatible options)",
    )
    p.add_argument("--version", action="version",
                   version="%(prog)s (siteone-crawler parity engine, Ray Data)")
    p.add_argument("--config-file", help="file with one option per line "
                                         "(# comments; CLI args override)")
    p.add_argument("--user-agent", default=None,
                   help="request User-Agent string (recorded in reports; corpus-mode "
                        "fetches send no headers, and robots.txt groups are matched "
                        "against '*'/'SiteOne-Crawler' as in robots_txt.rs:61-63)")
    p.add_argument("--url", action="append", default=[], help="seed URL (repeatable)")
    p.add_argument("--url-list", help="file with one URL per line (flat crawl seeds)")
    p.add_argument("--corpus", help="bucketed interleaved-document corpus dir "
                                    "(required except in --html-to-markdown mode)")
    p.add_argument("--workdir", help="checkpoint/lineage directory")
    # standalone file conversion, no crawling (main.rs:97-135)
    p.add_argument("--html-to-markdown", metavar="FILE",
                   help="convert one HTML file to markdown and exit")
    p.add_argument("--html-to-markdown-output", metavar="FILE",
                   help="write the conversion here instead of stdout")
    # serve mode (server.rs; core_options.rs:487-488 defaults)
    p.add_argument("--serve-offline", metavar="DIR",
                   help="serve an offline website export over local HTTP")
    p.add_argument("--serve-markdown", metavar="DIR",
                   help="serve a markdown export rendered to HTML")
    p.add_argument("--serve-port", type=int, default=8321)
    p.add_argument("--serve-bind-address", default="127.0.0.1")
    # scripted wizard (src/wizard/: the TUI's decisions as an answers doc)
    p.add_argument("--wizard-answers", metavar="FILE",
                   help="run the setup wizard from a JSON answers document "
                        "('-' for stdin) instead of a TTY; prints the "
                        "generated command then executes it")
    p.add_argument("--wizard-dry-run", action="store_true",
                   help="with --wizard-answers: print the generated "
                        "command without executing it")
    # crawl limits (README.md:546-573 defaults)
    p.add_argument("--max-visited-urls", type=int, default=10000)
    p.add_argument("--max-queue-length", type=int, default=9000)
    p.add_argument("--max-url-length", type=int, default=2083)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--max-reqs-per-sec", type=float, default=None)
    p.add_argument("--max-non200-per-basename", "--max-non200-responses-per-basename",
                   type=int, default=5)
    # URL filtering (crawler.rs:1018-1187 gauntlet options)
    p.add_argument("--allowed-domain", "--allowed-domain-for-crawling", "-adc",
                   action="append", default=[], dest="allowed_domain")
    p.add_argument("--allowed-domain-for-external-files", action="append", default=[])
    p.add_argument("--include-regex", "--include-regexp", action="append", default=[],
                   dest="include_regex")
    p.add_argument("--ignore-regex", "--ignore-regexp", action="append", default=[],
                   dest="ignore_regex")
    p.add_argument("--transform-url", action="append", default=[])
    p.add_argument("--remove-query-params", action="store_true")
    p.add_argument("--keep-query-param", action="append", default=[])
    p.add_argument("--force-relative-urls", action="store_true")
    p.add_argument("--ignore-robots-txt", action="store_true")
    # asset gating (html_processor.rs:789 extraction gating; corpus-mode
    # span kinds: img/script/css/media.  --disable-files gates a-href
    # targets by extension, --disable-fonts gates font-extension refs
    # (html_processor.rs:193, 34-40) — both before per-page dedup)
    p.add_argument("--disable-images", action="store_true")
    p.add_argument("--disable-javascript", action="store_true")
    p.add_argument("--disable-styles", action="store_true")
    p.add_argument("--disable-all-assets", action="store_true")
    p.add_argument("--disable-files", action="store_true",
                   help="never follow a-href targets with non-HTML file extensions")
    p.add_argument("--disable-fonts", action="store_true",
                   help="never follow font-extension refs")
    p.add_argument("--regex-filtering-only-for-pages", action="store_true")
    p.add_argument("--single-page", action="store_true",
                   help="crawl only the seed page(s) + their assets (no href expansion)")
    p.add_argument("--single-foreign-page", action="store_true",
                   help="fetch pages on other 2nd-level domains but never expand them")
    # extra columns (extra_column.rs:102-160; comma-separated like the
    # reference's --extra-columns / -ec, repeatable to avoid comma
    # collisions inside regexp specs)
    p.add_argument("--extra-columns", action="append", default=[],
                   help="Title(20),X-Cache,H1=xpath://h1/text()(40),...")
    # physical execution
    p.add_argument("--workers", type=int, default=None, help="fetch worker actors")
    p.add_argument("--routing", choices=["bucket", "host"], default="bucket")
    p.add_argument("--resume", action="store_true", help="resume from checkpoints in workdir")
    p.add_argument("--num-cpus", type=int, default=None, help="ray.init num_cpus (local mode)")
    # debugger surface (debugger.rs:16-40; core_options.rs:1891-1905)
    p.add_argument("--debug", action="store_true",
                   help="print timestamped per-URL debug lines to stderr")
    p.add_argument("--debug-log-file",
                   help="append the debug lines to this file (implies logging)")
    p.add_argument("--debug-url-regex", action="append", default=[],
                   help="log only URLs matching any of these regexes")
    # outputs (manager.rs:468-656 exporter chain)
    p.add_argument("--output", "-o", choices=["text", "json"], default="text",
                   help="console output type: json prints the full report "
                        "to stdout (output/json_output.rs)")
    p.add_argument("--output-json-file")
    p.add_argument("--output-text-file")
    p.add_argument("--output-html-file", "--output-html-report")
    p.add_argument("--analyzer-filter-regex", "--analyzer-filter-regexp",
                   dest="analyzer_filter_regex", default=None,
                   help="only report tables whose aplCode matches this regex "
                        "(core_options.rs analyzer filter)")
    # output display options (super_table.rs:22 hard rows limit default;
    # text_output.rs:349-354 origin stripping, :429-431 URL truncation)
    p.add_argument("--rows-limit", type=int, default=200,
                   help="max rows per report table (HTML report ignores it)")
    p.add_argument("--do-not-truncate-url", action="store_true")
    p.add_argument("--show-scheme-and-host", action="store_true")
    p.add_argument("--timezone", default=None,
                   help="IANA timezone for report/file timestamps "
                        "(sets TZ like main.rs:15-33)")
    p.add_argument("--url-column-size", type=int, default=None,
                   help="fixed URL column width in the text report (cap 184)")
    p.add_argument("--hide-columns", action="append", default=[],
                   help="comma-separated standard columns to omit "
                        "(Status,Type,Time,Size; repeatable)")
    p.add_argument("--html-report-options", help="comma-separated section allowlist")
    # speed-report knobs (fastest_analyzer.rs:33-34, slowest_analyzer.rs:34-36 defaults)
    p.add_argument("--fastest-urls-top-limit", type=int, default=20)
    p.add_argument("--fastest-urls-max-time", type=float, default=1.0)
    p.add_argument("--slowest-urls-top-limit", type=int, default=20)
    p.add_argument("--slowest-urls-min-time", type=float, default=0.01)
    p.add_argument("--slowest-urls-max-time", type=float, default=3.0)
    p.add_argument("--max-skipped-urls", type=int, default=None,
                   help="cap the skipped-URL records (epoch order, first N)")
    # output-file decoration (base_exporter.rs:18-58)
    p.add_argument("--add-host-to-output-file", action="store_true")
    p.add_argument("--add-timestamp-to-output-file", action="store_true")
    # result storage (README.md:562-565 --result-storage-compression analogue:
    # parquet codec for the visited parts)
    # reference form is a bare Bool (gzip on/off); bare flag → gzip,
    # an explicit value picks the parquet codec for the visited parts
    p.add_argument("--result-storage-compression", nargs="?", const="gzip",
                   choices=["snappy", "gzip", "zstd", "none"], default="snappy")
    # AI phase (src/ai/: selection + llms.txt generation run offline;
    # the LLM is an injectable transport — provider "fake" is the
    # deterministic offline one, anything else needs a live endpoint)
    p.add_argument("--ai-provider")
    p.add_argument("--ai-actions", default="llms-txt",
                   help="comma list of llms-txt,llms-full,seo,typos,custom,"
                        "summary")
    p.add_argument("--ai-prompt", help="custom-action prompt template "
                   "({{url}}/{{title}}/{{content_markdown}}/… placeholders)")
    p.add_argument("--ai-prompt-file",
                   help="file containing the custom-action prompt")
    p.add_argument("--ai-language",
                   help="force the typos action's evaluation language")
    p.add_argument("--ai-max-pages", type=int, default=30)
    p.add_argument("--ai-include", action="append", default=[])
    p.add_argument("--ai-exclude", action="append", default=[])
    p.add_argument("--ai-dry-run", action="store_true",
                   help="print the ranked page selection, no LLM calls")
    p.add_argument("--ai-max-tokens", type=int, default=256)
    p.add_argument("--ai-temperature", type=float, default=0.0)
    p.add_argument("--ai-max-concurrency", type=int, default=2)
    p.add_argument("--ai-llms-txt-file",
                   help="output path for llms.txt (default: <workdir>/llms.txt)")
    # sitemap settings (core_options.rs:147-151)
    p.add_argument("--sitemap-xml-file")
    p.add_argument("--sitemap-txt-file")
    p.add_argument("--sitemap-base-priority", type=float, default=0.5)
    p.add_argument("--sitemap-priority-increase", type=float, default=0.1)
    p.add_argument("--offline-export-dir")
    # offline export options (offline_website_exporter.rs:39-96,159-160)
    p.add_argument("--offline-export-store-only-url-regex", action="append", default=[])
    p.add_argument("--offline-export-remove-unwanted-code", action="store_true")
    p.add_argument("--offline-export-no-auto-redirect-html", action="store_true")
    p.add_argument("--offline-export-preserve-url-structure", action="store_true")
    p.add_argument("--offline-export-lowercase", action="store_true")
    p.add_argument("--replace-content", action="append", default=[],
                   help="'from -> to' or '/regex/ -> to': rewrite stored offline "
                        "bodies before writing (offline_website_exporter.rs:189-207)")
    p.add_argument("--replace-query-string", action="append", default=[],
                   help="'from -> to' or '/regex/ -> to': rewrite query strings in "
                        "offline filenames instead of md5-hashing them")
    p.add_argument("--offline-export-no-url-rewriting", action="store_true")
    p.add_argument("--offline-export-preserve-urls", action="store_true",
                   help="keep original URLs in bodies (alias of no-url-rewriting "
                        "for the URL-only rewrite pass)")
    p.add_argument("--markdown-export-dir")
    p.add_argument("--markdown-aggregate-file")
    p.add_argument("--markdown-export-single-file",
                   help="alias of --markdown-aggregate-file (reference name)")
    p.add_argument("--markdown-export-store-only-url-regex", action="append", default=[])
    p.add_argument("--markdown-ignore-store-file-error", action="store_true")
    p.add_argument("--ignore-store-file-error", action="store_true")
    # markdown export post-processing (markdown_exporter.rs:36-122)
    p.add_argument("--markdown-disable-images", action="store_true")
    p.add_argument("--markdown-disable-files", action="store_true")
    p.add_argument("--markdown-replace-query-string", action="append", default=[],
                   help="query-string rewrite rules for markdown export filenames")
    p.add_argument("--markdown-remove-links-and-images-from-single-file",
                   action="store_true")
    p.add_argument("--markdown-replace-content", action="append", default=[],
                   help='"from -> to" or "/regex/i -> to" (repeatable)')
    p.add_argument("--markdown-move-content-before-h1-to-end", action="store_true")
    p.add_argument("--markdown-exclude-selector", action="append", default=[],
                   help="CSS selector removed before conversion (repeatable)")
    # report delivery (manager.rs:585-648; README.md:593-609)
    p.add_argument("--mail-to", action="append", default=[],
                   help="e-mail the HTML report (repeatable)")
    p.add_argument("--mail-from", default=None)
    p.add_argument("--mail-from-name", default=None)
    p.add_argument("--mail-smtp-host", default=None)
    p.add_argument("--mail-smtp-port", type=int, default=None)
    p.add_argument("--mail-smtp-user")
    p.add_argument("--mail-smtp-pass")
    p.add_argument("--mail-subject-template", default=None)
    p.add_argument("--mail-outbox-dir",
                   help="write .eml files here instead of SMTP (offline transport)")
    p.add_argument("--upload", action="store_true",
                   help="upload the HTML report to --upload-to")
    p.add_argument("--upload-to", default=None)
    p.add_argument("--upload-retention", default=None)
    p.add_argument("--upload-password")
    p.add_argument("--upload-timeout", type=int, default=None)
    p.add_argument("--upload-outbox-dir",
                   help="write the upload form body here instead of HTTP POST")
    # quality gate (ci_gate.rs:34-202)
    p.add_argument("--max-404-errors", type=int, default=None)
    p.add_argument("--min-quality-score", type=float, default=None)
    # full CI gate (--ci enables it; core_options.rs:495-510 defaults)
    p.add_argument("--ci", action="store_true",
                   help="run the full CI quality gate after the crawl")
    p.add_argument("--ci-min-score", type=float, default=5.0)
    p.add_argument("--ci-min-performance", type=float, default=None)
    p.add_argument("--ci-min-seo", type=float, default=None)
    p.add_argument("--ci-min-security", type=float, default=None)
    p.add_argument("--ci-min-accessibility", type=float, default=None)
    p.add_argument("--ci-min-best-practices", type=float, default=None)
    p.add_argument("--ci-max-404", type=int, default=0)
    p.add_argument("--ci-max-5xx", type=int, default=0)
    p.add_argument("--ci-max-criticals", type=int, default=0)
    p.add_argument("--ci-max-warnings", type=int, default=None)
    p.add_argument("--ci-ignore-code", action="append", default=[])
    p.add_argument("--ci-fail-on-code", action="append", default=[])
    p.add_argument("--ci-max-avg-response", type=float, default=None)
    p.add_argument("--ci-min-pages", type=int, default=10)
    p.add_argument("--ci-min-assets", type=int, default=10)
    p.add_argument("--ci-min-documents", type=int, default=0)
    p.add_argument("--ci-baseline")
    p.add_argument("--ci-max-score-drop", type=float, default=None)
    p.add_argument("--ci-junit-file")
    p.add_argument("--ci-github-annotations", action="store_true")
    # reference option tail: every remaining core_options.rs option
    # string parses but is inert in corpus mode (a warning names the
    # reason when one is actually supplied), so any reference command
    # line runs here unchanged
    for opt, (kind, _why) in INERT_OPTIONS.items():
        if kind == "flag":
            # reference Bool options accept bare "--x" and "--x=false"
            p.add_argument(opt, nargs="?", const="true", default=None,
                           help=argparse.SUPPRESS)
        else:
            p.add_argument(opt, default=None, help=argparse.SUPPRESS)
    return p


def _parse_line_list(content: str) -> list[str]:
    """Newline-delimited option/url lists: BOM stripped first (it is not
    whitespace — a Windows-saved file would corrupt the first entry),
    lines trimmed, blanks and ``#`` comments dropped
    (core_options.rs parse_line_list)."""
    if content.startswith("\ufeff"):
        content = content[1:]
    out = []
    for line in content.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _merge_config_args(argv: list[str]) -> list[str]:
    """--config-file=PATH (or ``--config-file PATH``), else
    ``~/.siteone-crawler.conf`` / ``/etc/siteone-crawler.conf``
    auto-discovery.  Config args are PREPENDED, exactly the reference's
    argv concatenation (core_options.rs:3403-3460): scalar options get
    last-wins CLI override; list (append) options ACCUMULATE config +
    CLI values, as they do in the reference."""
    path = None
    real: list[str] = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a.startswith("--config-file="):
            path = a.split("=", 1)[1]
        elif a == "--config-file" and i + 1 < len(argv):
            path = argv[i + 1]
            i += 1
        else:
            real.append(a)
        i += 1
    if path is None:
        home = os.environ.get("HOME")
        for cand in ([os.path.join(home, ".siteone-crawler.conf")] if home else []) + [
            "/etc/siteone-crawler.conf"
        ]:
            if os.path.exists(cand):
                path = cand
                break
    if path is None:
        return real
    with open(path, encoding="utf-8") as f:
        return _parse_line_list(f.read()) + real


def main(argv: list[str] | None = None, init_ray: bool = True) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_config_args(list(argv)))

    for opt, (_kind, why) in INERT_OPTIONS.items():
        if getattr(args, opt.lstrip("-").replace("-", "_"), None) is not None:
            print(f"WARNING: {opt} accepted but inert in corpus mode: {why}",
                  file=sys.stderr)

    if args.timezone:
        # main.rs:15-33: set TZ before anything renders a local time so
        # output-file timestamps and mail Date headers use it
        import time as _time

        os.environ["TZ"] = args.timezone
        try:
            _time.tzset()
        except AttributeError:
            pass  # non-POSIX platform

    if args.html_to_markdown:
        # standalone conversion mode (main.rs:97-135): honors the
        # --markdown-* options, writes to the output file or stdout,
        # never touches Ray or the corpus
        from .functions.html_markdown import html_to_markdown
        from .functions.markdown_post import MarkdownPostOptions, postprocess_markdown

        try:
            with open(args.html_to_markdown) as f:
                html = f.read()
        except OSError as e:
            print(f"ERROR: cannot read '{args.html_to_markdown}': {e}", file=sys.stderr)
            return 1
        md = html_to_markdown(
            html, excluded_selectors=tuple(args.markdown_exclude_selector))
        md = postprocess_markdown(md, MarkdownPostOptions(
            disable_images=args.markdown_disable_images,
            disable_files=args.markdown_disable_files,
            replace_content=tuple(args.markdown_replace_content),
            move_content_before_h1_to_end=args.markdown_move_content_before_h1_to_end,
            ignore_regexes=tuple(args.ignore_regex),
        ))
        if args.html_to_markdown_output:
            try:
                with open(args.html_to_markdown_output, "w") as f:
                    f.write(md)
            except OSError as e:
                print(f"ERROR: cannot write '{args.html_to_markdown_output}': {e}",
                      file=sys.stderr)
                return 1
        else:
            sys.stdout.write(md)
        return 0

    if args.wizard_answers:
        # scripted wizard (src/wizard/: TTY replaced by an answers doc):
        # build the synthetic command, show the pre-confirm summary, then
        # execute it through this same entry point (main.rs:37-47)
        import time as _time

        from .pipelines.wizard import (WizardCancelled, argv_to_cli_args,
                                       run_wizard_scripted, summary_lines)

        try:
            if args.wizard_answers == "-":
                answers = json.load(sys.stdin)
            else:
                with open(args.wizard_answers, encoding="utf-8") as f:
                    answers = json.load(f)
            wargv, wstate = run_wizard_scripted(
                answers, date=_time.strftime("%Y%m%d"), with_state=True)
        except WizardCancelled:
            print("Wizard cancelled.")
            return 0
        except (ValueError, OSError) as e:
            print(f"ERROR: wizard: {e}", file=sys.stderr)
            return 2
        if wstate is not None:
            for line in summary_lines(wstate, wargv):
                print(line)
        else:
            print("Command:   " + " ".join(wargv))
        if args.wizard_dry_run:
            return 0
        tokens = argv_to_cli_args(wargv)
        # the sandbox engine reads from a corpus, not sockets: carry the
        # harness-level corpus/workdir flags into the generated command
        if args.corpus:
            tokens += ["--corpus", args.corpus]
        if args.workdir:
            tokens += ["--workdir", args.workdir]
        return main(tokens, init_ray=init_ray)

    if args.serve_offline or args.serve_markdown:
        # serve mode replaces crawling (main.rs:80-94); exit 101 on a
        # missing root dir like server.rs:24-33
        from .pipelines.serve import run_server

        root = args.serve_markdown or args.serve_offline
        if not os.path.isdir(root):
            print(f"ERROR: Directory '{root}' does not exist.", file=sys.stderr)
            return 101
        print(f"Serving {root} at http://{args.serve_bind_address}:{args.serve_port}",
              file=sys.stderr)
        run_server(root, markdown=bool(args.serve_markdown),
                   port=args.serve_port, bind_address=args.serve_bind_address)
        return 0

    if not args.corpus or not args.workdir:
        print("--corpus and --workdir are required "
              "(except with --html-to-markdown / --serve-*)", file=sys.stderr)
        return 2

    if init_ray:
        import ray

        if not ray.is_initialized():
            kw = {"num_cpus": args.num_cpus} if args.num_cpus else {}
            ray.init(address="local", include_dashboard=False, logging_level="ERROR", **kw)

    from .pipelines.crawl import CrawlConfig, EpochCrawler

    seeds = list(args.url)
    seed_attrs = None
    if args.url_list:
        from .sources.seeds import parse_url_list_text
        from .types import UrlSource

        with open(args.url_list) as f:
            listed, _bad = parse_url_list_text(f.read())
        seed_attrs = ([UrlSource.INIT_URL] * len(seeds)
                      + [UrlSource.URL_LIST] * len(listed))
        seeds += listed
    if not seeds:
        print("no seed URLs (--url / --url-list)", file=sys.stderr)
        return 2

    robots = {}
    robots_path = os.path.join(args.corpus, "robots.json")
    if os.path.exists(robots_path) and not args.ignore_robots_txt:
        with open(robots_path) as f:
            robots = json.load(f)

    cfg = CrawlConfig(
        max_visited_urls=args.max_visited_urls,
        max_queue_length=args.max_queue_length,
        max_url_length=args.max_url_length,
        max_depth=args.max_depth,
        max_non200_per_basename=args.max_non200_per_basename,
        max_reqs_per_sec=args.max_reqs_per_sec,
        remove_query_params=args.remove_query_params,
        keep_query_params=tuple(args.keep_query_param),
        allowed_domains_crawl=tuple(args.allowed_domain),
        allowed_domains_static=tuple(args.allowed_domain_for_external_files),
        include_regex=tuple(args.include_regex),
        ignore_regex=tuple(args.ignore_regex),
        transform_url=tuple(args.transform_url),
        force_relative_urls=args.force_relative_urls,
        ignore_robots_txt=args.ignore_robots_txt,
        disabled_span_kinds=(
            ("img", "script", "css", "media") if args.disable_all_assets
            else tuple(k for k, d in (("img", args.disable_images),
                                      ("script", args.disable_javascript),
                                      ("css", args.disable_styles)) if d)
        ),
        regex_filtering_only_for_pages=args.regex_filtering_only_for_pages,
        single_page=args.single_page,
        single_foreign_page=args.single_foreign_page,
        user_agent=args.user_agent,
        disable_files=args.disable_files,
        disable_fonts=args.disable_fonts,
        fetch_concurrency=args.workers,
        routing=args.routing,
        storage_compression=args.result_storage_compression,
    )
    crawler = EpochCrawler(args.corpus, seeds, robots, args.workdir, cfg,
                           seed_attrs=seed_attrs)
    if args.resume:
        crawler.resume()
    res = crawler.run()

    n = res.metrics["visited"]
    print(f"crawled {n} URLs in {res.metrics['total_sec']}s "
          f"({res.metrics['pages_per_sec']} pages/s)", file=sys.stderr)
    if args.debug or args.debug_log_file:
        _write_debug_log(res, args.debug, args.debug_log_file,
                         tuple(args.debug_url_regex))
    if n == 0:
        return 3  # manager.rs:458-464

    # ---- post-crawl exporter chain (manager.rs:468-656 order) ----
    from .functions.format import export_file_path
    from .pipelines import reports as RP

    visited_ds = res.visited_ds()
    table_cache: dict = {}

    if args.max_skipped_urls is not None:
        # deterministic analogue of the reference's in-crawl skipped-map
        # capacity: first N records in (epoch, shard) collection order
        res.skipped = res.skipped.slice(0, args.max_skipped_urls)

    from urllib.parse import urlsplit as _us

    _host0 = _us(seeds[0]).hostname or None

    def _outfile(path: str | None, ext: str) -> str | None:
        if not path:
            return path
        return export_file_path(path, ext, add_host=args.add_host_to_output_file,
                                host=_host0, add_timestamp=args.add_timestamp_to_output_file)

    any_report = bool(args.output_json_file or args.output_text_file
                      or args.output_html_file or args.mail_to or args.upload)
    if any_report:
        # thread the speed-report knobs through the shared table cache so
        # every output format sees the same configured tables
        table_cache["fastest_table"] = RP.fastest_table(
            visited_ds, k=args.fastest_urls_top_limit, max_time=args.fastest_urls_max_time)
        table_cache["slowest_table"] = RP.slowest_table(
            visited_ds, k=args.slowest_urls_top_limit,
            min_time=args.slowest_urls_min_time, max_time=args.slowest_urls_max_time)

    extras_specs = [s.strip() for arg in args.extra_columns
                    for s in arg.split(",") if s.strip()]
    extras_table = _extra_columns_table(res, extras_specs) if extras_specs else None

    if args.sitemap_xml_file or args.sitemap_txt_file:
        sm = RP.sitemap_urls(visited_ds, args.sitemap_base_priority,
                             args.sitemap_priority_increase)
        if args.sitemap_xml_file:
            RP.write_sitemap_xml(sm, args.sitemap_xml_file)
        if args.sitemap_txt_file:
            RP.write_sitemap_txt(sm, args.sitemap_txt_file)

    if args.offline_export_dir:
        _export_offline(
            res, seeds[0], args.offline_export_dir,
            store_only_url_regex=tuple(args.offline_export_store_only_url_regex),
            remove_unwanted_code=args.offline_export_remove_unwanted_code,
            no_auto_redirect_html=args.offline_export_no_auto_redirect_html,
            preserve_url_structure=args.offline_export_preserve_url_structure,
            lowercase=args.offline_export_lowercase,
            no_url_rewriting=(args.offline_export_no_url_rewriting
                              or args.offline_export_preserve_urls),
            replace_query_string=tuple(args.replace_query_string),
            replace_content=tuple(args.replace_content),
        )

    md_aggregate = args.markdown_aggregate_file or args.markdown_export_single_file
    if args.markdown_export_dir or md_aggregate:
        from .functions.markdown_post import MarkdownPostOptions

        md_opts = MarkdownPostOptions(
            disable_images=args.markdown_disable_images,
            disable_files=args.markdown_disable_files,
            replace_content=tuple(args.markdown_replace_content),
            move_content_before_h1_to_end=args.markdown_move_content_before_h1_to_end,
            ignore_regexes=tuple(args.ignore_regex),
        )
        _export_markdown(res, args.markdown_export_dir, md_aggregate,
                         md_opts=md_opts,
                         exclude_selectors=tuple(args.markdown_exclude_selector),
                         store_only_url_regex=tuple(
                             args.markdown_export_store_only_url_regex),
                         ignore_store_file_error=(
                             args.markdown_ignore_store_file_error
                             or args.ignore_store_file_error),
                         replace_query_string=tuple(
                             args.markdown_replace_query_string),
                         remove_links_images=(
                             args.markdown_remove_links_and_images_from_single_file))

    # ---- AI phase (src/ai/ runner shape; transport-injectable) ----
    if args.ai_provider or args.ai_dry_run:
        from .pipelines.ai_phase import run_ai_phase, select_pages

        visited_ai = res.visited_table(columns=[
            "uq_id", "url", "source_uq_id", "source_attr", "status_code",
            "content_type", "is_external", "title", "description", "spans",
            "size"])
        inc = tuple(r for arg in args.ai_include for r in arg.split(",") if r)
        exc = tuple(r for arg in args.ai_exclude for r in arg.split(",") if r)
        if args.ai_dry_run:
            # selection preview, no LLM calls (selection.rs dry-run path)
            sel = select_pages(visited_ai, inc, exc, args.ai_max_pages)
            print(f"AI selection (dry-run): {sel.selected.num_rows} of "
                  f"{sel.total_candidates_before_cap} candidates "
                  f"({sel.total_html_pages} HTML pages, "
                  f"{sel.excluded_by_mask} excluded by mask)")
            for r in sel.selected.to_pylist():
                print(f"  {r['score']:7.2f}  {r['url']}")
        elif args.ai_provider != "fake":
            print(f"WARNING: --ai-provider {args.ai_provider} needs a live "
                  "LLM endpoint (no network in corpus mode); only the "
                  "deterministic 'fake' provider runs here. Use "
                  "--ai-dry-run to preview the page selection.",
                  file=sys.stderr)
        else:
            actions = tuple(a.strip() for a in (args.ai_actions or "").split(",")
                            if a.strip())
            custom_prompt = args.ai_prompt or ""
            if args.ai_prompt_file:
                with open(args.ai_prompt_file, encoding="utf-8") as f:
                    custom_prompt = f.read()
            # "summary" is the fixed-cost 6-call executive summary
            # (summary/mod.rs) — not a per-page action; run it off the
            # scoring findings instead of the page selection
            want_summary = "summary" in actions
            page_actions = tuple(a for a in actions if a != "summary")
            if page_actions:
                out = run_ai_phase(
                    visited_ai, site_name=_host0 or "site",
                    include=inc, exclude=exc, max_pages=args.ai_max_pages,
                    concurrency=args.ai_max_concurrency,
                    actions=page_actions,
                    custom_prompt=custom_prompt, forced_lang=args.ai_language)
            else:
                out = {"usage": {"calls": 0, "prompt_tokens": 0,
                                 "completion_tokens": 0}}
            actions = page_actions
            u = out["usage"]
            if want_summary:
                from .pipelines import scoring as SC
                from .pipelines.ai_phase import (render_summary_markdown,
                                                 run_report_summary)

                sc_findings = SC.findings_from_reports(
                    table_cache.get("page_findings")
                    or RP.page_findings(visited_ds),
                    table_cache.get("count_by_status")
                    or RP.count_by_status(visited_ds))
                sum_out = run_report_summary(
                    visited_ai, sc_findings, SC.score(sc_findings).scores)
                sp = os.path.join(args.workdir, "ai-summary.md")
                with open(sp, "w", encoding="utf-8") as f:
                    f.write(render_summary_markdown(sum_out))
                su = sum_out["usage"]
                print(f"AI executive summary ({su['calls']} calls, grade "
                      f"{sum_out['summary']['overall_grade'] or '—'}) → {sp}")
                for k in ("calls", "prompt_tokens", "completion_tokens"):
                    u[k] += su[k]
            if "llms-txt" in actions:
                path = args.ai_llms_txt_file or os.path.join(args.workdir,
                                                             "llms.txt")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(out["llms_txt"])
                print(f"AI llms.txt: {out['entries'].num_rows} entries → "
                      f"{path}")
            if "llms-full" in actions:
                fp = os.path.join(args.workdir, "llms-full.txt")
                with open(fp, "w", encoding="utf-8") as f:
                    f.write(out["llms_full"])
                print(f"AI llms-full.txt → {fp}")
            if {"seo", "typos", "custom"} & set(actions):
                rp = os.path.join(args.workdir, "ai-actions.json")
                recs = [{k: (json.loads(r[k]) if k in ("seo", "typos",
                                                       "custom") and r[k]
                             else r[k])
                         for k in ("url", "seo", "typos", "custom")}
                        for r in out["entries"].to_pylist()]
                with open(rp, "w", encoding="utf-8") as f:
                    json.dump(recs, f, indent=1)
                print(f"AI per-page action results → {rp}")
            print(f"AI usage: {u['calls']} calls, {u['prompt_tokens']} "
                  f"prompt + {u['completion_tokens']} completion tokens")

    report = None
    if args.output_json_file:
        from .pipelines.report_json import write_report_json

        report = write_report_json(res, visited_ds, _outfile(args.output_json_file, "json"),
                                   config=cfg, table_cache=table_cache,
                                   extras_table=extras_table,
                                   rows_limit=args.rows_limit,
                                   analyzer_filter=args.analyzer_filter_regex)
    if args.output_text_file:
        from .pipelines.report_text import write_text_report

        hide = tuple(h.strip() for arg in args.hide_columns
                     for h in arg.split(",") if h.strip())
        write_text_report(res, visited_ds, _outfile(args.output_text_file, "txt"),
                          config=cfg, table_cache=table_cache,
                          extras_table=extras_table,
                          rows_limit=args.rows_limit,
                          show_scheme_and_host=args.show_scheme_and_host,
                          do_not_truncate_url=args.do_not_truncate_url,
                          url_column_size=args.url_column_size,
                          hide_columns=hide,
                          analyzer_filter=args.analyzer_filter_regex)
    # HTML report content is generated once if ANY consumer needs it:
    # file, mailer, or upload (manager.rs:487-500)
    html_report_needed = bool(args.output_html_file or args.mail_to or args.upload)
    if html_report_needed:
        from .pipelines.report_html import render_html_report
        from .pipelines.report_json import build_report

        sections = args.html_report_options.split(",") if args.html_report_options else None
        html_content = render_html_report(
            build_report(res, visited_ds, cfg, table_cache=table_cache,
                         extras_table=extras_table, rows_limit=None,
                         analyzer_filter=args.analyzer_filter_regex),
            sections,
        )
        if args.output_html_file:
            with open(_outfile(args.output_html_file, "html"), "w") as f:
                f.write(html_content)

        # ---- mailer + upload exporters (manager.rs:585-648 order) ----
        from datetime import datetime

        from .pipelines import delivery as DL

        from urllib.parse import urlsplit

        initial_host = urlsplit(seeds[0]).hostname or "unknown"
        if args.mail_to:
            mcfg = DL.MailerConfig(
                mail_to=tuple(args.mail_to),
                mail_from=args.mail_from or DL.DEFAULT_MAIL_FROM,
                mail_from_name=args.mail_from_name or DL.DEFAULT_MAIL_FROM_NAME,
                mail_smtp_host=args.mail_smtp_host or DL.DEFAULT_MAIL_SMTP_HOST,
                mail_smtp_port=min(max(args.mail_smtp_port or DL.DEFAULT_MAIL_SMTP_PORT, 1), 65535),
                mail_smtp_user=args.mail_smtp_user,
                mail_smtp_pass=args.mail_smtp_pass,
                mail_subject_template=(args.mail_subject_template
                                       or DL.DEFAULT_MAIL_SUBJECT_TEMPLATE),
            )
            transport = (DL.file_outbox_transport(args.mail_outbox_dir)
                         if args.mail_outbox_dir else DL.smtp_transport)
            entry = DL.send_report_email(mcfg, initial_host, html_content,
                                         datetime.now(), os.uname().nodename,
                                         transport=transport)
            print(f"{entry['severity']}: {entry['message']}", file=sys.stderr)
        if args.upload:
            ucfg = DL.UploadConfig(
                enabled=True,
                endpoint=args.upload_to or DL.DEFAULT_UPLOAD_TO,
                retention=args.upload_retention or DL.DEFAULT_UPLOAD_RETENTION,
                password=args.upload_password,
                timeout=args.upload_timeout or DL.DEFAULT_UPLOAD_TIMEOUT,
            )
            transport = (DL.file_upload_transport(args.upload_outbox_dir)
                         if args.upload_outbox_dir else DL.http_upload_transport)
            entry = DL.upload_report(ucfg, html_content, transport=transport)
            print(f"{entry['severity']}: {entry['message']}", file=sys.stderr)

    # ---- console output type (--output json → report JSON on stdout) ----
    if args.output == "json":
        from .pipelines.report_json import build_report

        print(json.dumps(
            build_report(res, visited_ds, cfg, table_cache=table_cache,
                         extras_table=extras_table, rows_limit=args.rows_limit,
                         analyzer_filter=args.analyzer_filter_regex),
            default=str))

    # ---- full CI gate (--ci; ci_gate.rs:34-315; exit 10 on failure) ----
    if args.ci:
        from .pipelines import scoring as SC

        findings = SC.findings_from_reports(
            table_cache.get("page_findings") or RP.page_findings(visited_ds),
            table_cache.get("count_by_status") or RP.count_by_status(visited_ds),
        )
        rep = SC.score(findings)
        status_t = table_cache.get("count_by_status") or RP.count_by_status(visited_ds)
        status_counts = {int(r["status_code"]): int(r["n"]) for r in status_t.to_pylist()}
        ct_t = table_cache.get("content_type_table") or RP.content_type_table(visited_ds)
        ct_counts = {int(r["content_type"]): int(r["n"]) for r in ct_t.to_pylist()}
        stats_t = table_cache.get("basic_stats") or RP.basic_stats(visited_ds)
        avg_time = float(stats_t.to_pylist()[0]["avg_time"])
        # fold the legacy gate flags in (stricter bound wins) instead of
        # silently ignoring them when both are given (ADVICE r3)
        min_score = args.ci_min_score
        if args.min_quality_score is not None:
            min_score = max(min_score, args.min_quality_score)
        max_404 = args.ci_max_404
        if args.max_404_errors is not None:
            max_404 = min(max_404, args.max_404_errors)
        opts = SC.CiGateOptions(
            min_score=min_score,
            min_performance=args.ci_min_performance,
            min_seo=args.ci_min_seo,
            min_security=args.ci_min_security,
            min_accessibility=args.ci_min_accessibility,
            min_best_practices=args.ci_min_best_practices,
            max_404=max_404, max_5xx=args.ci_max_5xx,
            max_criticals=args.ci_max_criticals, max_warnings=args.ci_max_warnings,
            ignore_codes=tuple(args.ci_ignore_code),
            fail_on_codes=tuple(args.ci_fail_on_code),
            max_avg_response=args.ci_max_avg_response,
            min_pages=args.ci_min_pages, min_assets=args.ci_min_assets,
            min_documents=args.ci_min_documents,
            baseline=args.ci_baseline, max_score_drop=args.ci_max_score_drop,
        )
        result = SC.evaluate_ci_gate(opts, rep, findings, status_counts,
                                     ct_counts, avg_time)
        for w in result.warnings:
            print(f"WARNING: {w}", file=sys.stderr)
        for c in result.checks:
            if not c.passed:
                print(f"CI gate FAILED: {c.metric} (expected {c.operator} "
                      f"{c.threshold}, actual {c.actual})", file=sys.stderr)
        if args.ci_junit_file:
            with open(args.ci_junit_file, "w") as f:
                f.write(SC.to_junit_xml(result))
        if args.ci_github_annotations:
            for line in SC.github_annotations(result):
                print(line)
        if not result.passed:
            return 10
        return 0

    # ---- legacy quality gate (exit 10 on failure) ----
    if args.max_404_errors is not None or args.min_quality_score is not None:
        from .pipelines import scoring as SC

        findings = SC.findings_from_reports(
            table_cache.get("page_findings") or RP.page_findings(visited_ds),
            table_cache.get("count_by_status") or RP.count_by_status(visited_ds),
        )
        rep = SC.score(findings)
        status_t = table_cache.get("count_by_status") or RP.count_by_status(visited_ds)
        n_404 = 0
        for code, cnt in zip(status_t["status_code"].to_pylist(), status_t["n"].to_pylist()):
            if code == 404:
                n_404 = int(cnt)
        code, violations = SC.ci_gate(
            rep, findings, n_404,
            SC.CiGateConfig(min_quality_score=args.min_quality_score,
                            max_404s=args.max_404_errors),
        )
        for v in violations:
            print(f"CI gate: {v}", file=sys.stderr)
        if code:
            return 10
    return 0


def _extra_columns_table(res, specs: list[str]):
    """--extra-columns evaluation as a streaming map_batches pass over
    the visited parts (crawler.rs:927-934 applies extraction per fetched
    page; here the compiled specs ride into an actor-compatible stage).
    Returns a small driver table of ``url`` + one string column per
    spec — bounded by max_visited_urls, like the report result rows."""
    import pyarrow as pa

    from .functions.extra_columns import ExtraColumnsStage, parse_extra_columns

    names = [c.name for c in parse_extra_columns(specs)]
    ds = res.visited_ds().map_batches(ExtraColumnsStage(specs), batch_format="pyarrow")
    batches = list(ds.select_columns(["url", *names]).iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({"url": pa.array([], pa.string()),
                         **{n: pa.array([], pa.string()) for n in names}})
    return pa.concat_tables(batches, promote_options="permissive")


def _write_debug_log(res, to_stderr: bool, log_file: str | None,
                     url_regex: tuple[str, ...]) -> None:
    """--debug / --debug-log-file / --debug-url-regex: timestamped
    ``ts | severity | category | time | size | message`` lines per
    visited URL (debugger.rs:20-40 line format; corpus mode logs after
    the crawl from the visited lineage).  With --debug-url-regex only
    matching URLs are logged (core_options.rs:1891-1905)."""
    import re as _re
    import time as _time

    from .functions.format import formatted_duration, formatted_size

    pats = [_re.compile(p) for p in url_regex]
    t = res.visited_table(columns=["url", "status_code", "request_time", "size"])
    now = _time.strftime("%Y-%m-%d %H:%M:%S")
    lines = []
    for u, st, rt, sz in zip(t["url"].to_pylist(), t["status_code"].to_pylist(),
                             t["request_time"].to_pylist(), t["size"].to_pylist()):
        if pats and not any(p.search(u) for p in pats):
            continue
        sev = "debug" if st == 200 else "warning"
        lines.append(
            f"{now} | {sev:8} | {'visited-url':14} | "
            f"{formatted_duration(rt or 0.0):7} | "
            f"{formatted_size(int(sz or 0)):7} | {st} {u}")
    text = "\n".join(lines) + ("\n" if lines else "")
    if to_stderr:
        sys.stderr.write(text)
    if log_file:
        with open(log_file, "a") as f:
            f.write(text)


def _export_offline(res, initial_url: str, out_dir: str, *,
                    store_only_url_regex: tuple[str, ...] = (),
                    remove_unwanted_code: bool = False,
                    no_auto_redirect_html: bool = False,
                    preserve_url_structure: bool = False,
                    lowercase: bool = False,
                    no_url_rewriting: bool = False,
                    replace_query_string: tuple[str, ...] = (),
                    replace_content: tuple[str, ...] = ()) -> None:
    """Offline website export: rewrite every visited HTML body and write
    it (plus redirect stubs) at its offline path
    (offline_website_exporter.rs flow; option fields :39-96,159-160)."""
    import re as _re

    from .functions.html_extract import spans_to_html
    from .functions.offline import (
        OfflineRewriter,
        OfflineUrl,
        convert_url_to_relative,
        redirect_stub_html,
        strip_unwanted_code,
    )
    from .functions.urls import host_of

    rw = OfflineRewriter(initial_url, allowed_crawl=("*",), lowercase=lowercase,
                         replace_query_string=replace_query_string)
    store_only = [_re.compile(p) for p in store_only_url_regex]
    # export FILE paths anchor at the site root (depth 0), while link
    # rewriting inside each body uses the page itself as base
    root_base = OfflineUrl.parse(initial_url).origin() + "/"
    t = res.visited_table(columns=["url", "spans", "status_code"])
    os.makedirs(out_dir, exist_ok=True)
    for url, spans, status in zip(t["url"].to_pylist(), t["spans"].to_pylist(),
                                  t["status_code"].to_pylist()):
        if spans is None:
            continue
        if store_only and not any(p.search(url) for p in store_only):
            continue
        rel = convert_url_to_relative(initial_url, root_base, url,
                                      allowed_static=rw.allowed_static,
                                      allowed_crawl=rw.allowed_crawl,
                                      preserve_url_structure=preserve_url_structure,
                                      lowercase=lowercase,
                                      replace_query_string=replace_query_string)
        if rel.startswith(("http://", "https://", "#")) or ".." in rel:
            continue
        path = os.path.join(out_dir, rel.split("#")[0])
        os.makedirs(os.path.dirname(path) or out_dir, exist_ok=True)
        if 300 <= status < 400 and spans:
            if no_auto_redirect_html:
                continue
            target = rw.convert(url, spans[0]["media_ref"])
            body = redirect_stub_html(target)
        else:
            body = spans_to_html(spans)
            if not no_url_rewriting:
                body = rw.rewrite_body(body, url)
            if remove_unwanted_code:
                # --offline-export-remove-unwanted-code enables the
                # analytics/social/cookie-consent pass
                # (html_processor.rs:699-758)
                body = strip_unwanted_code(body, host_of(url),
                                           remove_analytics=True,
                                           remove_socnets=True,
                                           remove_cookies_related=True)
        if replace_content:
            from .functions.markdown_post import apply_content_replacements

            body = apply_content_replacements(body, replace_content)
        with open(path, "w") as f:
            f.write(body)


def _export_markdown(res, out_dir: str | None, aggregate_file: str | None,
                     md_opts=None, exclude_selectors: tuple[str, ...] = (),
                     store_only_url_regex: tuple[str, ...] = (),
                     ignore_store_file_error: bool = False,
                     replace_query_string: tuple[str, ...] = (),
                     remove_links_images: bool = False) -> None:
    """Markdown export: per-page .md files and/or the aggregated
    single-file form (markdown_exporter.rs flow).  With
    ``--markdown-exclude-selector`` the conversion goes through the DOM
    converter (spans → HTML → MarkdownConverter) so selector exclusion
    matches the reference; post-processing (--markdown-disable-*,
    --markdown-replace-content, --markdown-move-content-before-h1-to-end)
    applies either way."""
    import pyarrow as pa

    from .functions.offline import convert_url_to_relative
    from .stages.export import aggregate_markdown, spans_to_markdown

    from .functions.offline import OfflineUrl

    import re as _re

    t = res.visited_table(columns=["url", "spans"])
    if store_only_url_regex:
        # --markdown-export-store-only-url-regex: only matching pages
        # are converted/stored (markdown_exporter.rs store-only filter)
        pats = [_re.compile(p) for p in store_only_url_regex]
        keep = [any(p.search(u) for p in pats) for u in t["url"].to_pylist()]
        t = t.filter(pa.array(keep, pa.bool_()))
    if exclude_selectors:
        from .functions.html_extract import spans_to_html
        from .functions.html_markdown import html_to_markdown

        bodies = [
            html_to_markdown(spans_to_html(s), excluded_selectors=exclude_selectors)
            if s is not None else ""
            for s in t["spans"].to_pylist()
        ]
        md = pa.table({"url": t["url"], "markdown": pa.array(bodies, pa.string())})
    else:
        md = spans_to_markdown(t)
    if md_opts is not None and md_opts.any():
        from .functions.markdown_post import postprocess_markdown

        md = pa.table({
            "url": md["url"],
            "markdown": pa.array(
                [postprocess_markdown(b, md_opts) for b in md["markdown"].to_pylist()],
                pa.string()),
        })
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for url, body in zip(md["url"].to_pylist(), md["markdown"].to_pylist()):
            root_base = OfflineUrl.parse(url).origin() + "/"
            rel = convert_url_to_relative(url, root_base, url,
                                          replace_query_string=replace_query_string)
            if ".." in rel or rel.startswith(("http://", "https://", "#")):
                continue
            path = os.path.join(out_dir, rel.rsplit(".", 1)[0] + ".md")
            try:
                os.makedirs(os.path.dirname(path) or out_dir, exist_ok=True)
                with open(path, "w") as f:
                    f.write(body)
            except OSError as e:
                # --markdown-ignore-store-file-error: log + continue
                if not ignore_store_file_error:
                    raise
                print(f"WARNING: cannot store '{path}': {e}", file=sys.stderr)
    if aggregate_file:
        with open(aggregate_file, "w") as f:
            f.write(aggregate_markdown(md, remove_links_images=remove_links_images))


if __name__ == "__main__":
    raise SystemExit(main())
