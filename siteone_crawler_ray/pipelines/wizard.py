"""Guided-setup wizard as a deterministic, scriptable composition.

The reference ships an interactive TUI wizard (``/root/reference/src/
wizard/``: ``mod.rs`` flow, ``presets.rs`` preset table + argv builder,
``form.rs`` settings form) that turns a preset choice + a settings form
into a minimal command line.  A sandbox has no TTY, so this module keeps
every *decision* — the preset table, the default-snapping, the form
option lists, the value cycling, the minimal-diff argv builder, the
export-dir discovery for serve mode — as pure, unit-testable functions,
and replaces only the keystroke loop with a scripted answers document
(`run_wizard_scripted`).  The CLI exposes it as ``--wizard-answers``.

Parity anchors: presets.rs:38-289 (preset values), presets.rs:357-442
(build_argv minimal-diff rules), presets.rs:467-476 (placeholder
resolution), form.rs:72-178 (form fields + option lists), form.rs:181-230
(default snapping), form.rs:234-296 (apply/parse), mod.rs:140-246
(serve-item discovery + serve argv), mod.rs:26-44 (post-export serve
offer).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from urllib.parse import urlsplit


class WizardCancelled(Exception):
    """Scripted analogue of the TTY Esc/ctrl-c path (mod.rs:271-276)."""


# ---------------------------------------------------------------------------
# Presets (presets.rs:38-289) — defaults mirror the "Custom" preset, each
# entry states only its diffs, exactly the reference's default set
# (workers=3, timeout=5, rps=10, max_urls=10000, cache on, all content on).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    workers: int = 3
    timeout: int = 5
    max_reqs_per_sec: int = 10
    max_visited_urls: int = 10000
    disable_javascript: bool = False
    disable_styles: bool = False
    disable_fonts: bool = False
    disable_images: bool = False
    disable_files: bool = False
    single_page: bool = False
    offline_export_dir: str | None = None
    markdown_export_dir: str | None = None
    sitemap_xml_file: str | None = None
    http_cache_enabled: bool = True
    result_storage_file: bool = False
    extra_columns: str | None = None
    ignore_robots_txt: bool = False
    add_random_query_params: bool = False
    allowed_domains_for_external_files: str | None = None
    hide_columns: str | None = None


PRESETS: tuple[Preset, ...] = (
    Preset("Quick Audit",
           "Fast site health overview — crawls all pages and assets",
           workers=5, extra_columns="Title(20)", hide_columns="cache"),
    Preset("SEO Analysis",
           "Extract titles, descriptions, keywords, and OpenGraph tags",
           workers=8, max_reqs_per_sec=20, max_visited_urls=50000,
           disable_javascript=True, disable_styles=True, disable_fonts=True,
           disable_images=True, disable_files=True,
           extra_columns="Title(20),Description(20),H1=xpath://h1/text()(40)",
           hide_columns="cache"),
    Preset("Performance Test",
           "Measure response times with cache disabled — find bottlenecks",
           timeout=10, max_reqs_per_sec=5, max_visited_urls=5000,
           http_cache_enabled=False, extra_columns="Title(30),DOM"),
    Preset("Security Check",
           "Check SSL/TLS, security headers, and redirects site-wide",
           workers=5, max_reqs_per_sec=15,
           disable_styles=True, disable_fonts=True, disable_images=True,
           disable_files=True, extra_columns="Title(30)",
           hide_columns="cache"),
    Preset("Offline Clone",
           "Download entire website with all assets for offline browsing",
           workers=2, max_reqs_per_sec=8, max_visited_urls=100000,
           offline_export_dir="./tmp/offline-{domain}-{date}/",
           http_cache_enabled=False,
           allowed_domains_for_external_files="*", hide_columns="cache"),
    Preset("Markdown Export",
           "Convert pages to Markdown for AI models or documentation",
           max_visited_urls=20000, disable_javascript=True,
           disable_styles=True, disable_fonts=True,
           markdown_export_dir="./tmp/markdown-{domain}-{date}/",
           extra_columns="Title(40)", hide_columns="cache"),
    Preset("Stress Test",
           "High-concurrency load test with cache-busting random params",
           workers=20, timeout=10, max_reqs_per_sec=20,
           disable_javascript=True, disable_styles=True, disable_fonts=True,
           disable_images=True, disable_files=True, http_cache_enabled=False,
           extra_columns="Title(30)", ignore_robots_txt=True,
           add_random_query_params=True, hide_columns="cache"),
    Preset("Single Page",
           "Deep analysis of a single URL — SEO, security, performance",
           workers=1, timeout=10, max_visited_urls=1, single_page=True,
           extra_columns="Title(50),Description(50),Keywords(30),DOM"),
    Preset("Large Site Crawl",
           "High-throughput HTML-only crawl for large sites (100k+ pages)",
           workers=10, timeout=3, max_reqs_per_sec=50, max_visited_urls=0,
           disable_javascript=True, disable_styles=True, disable_fonts=True,
           disable_images=True, disable_files=True,
           sitemap_xml_file="./sitemap.xml", extra_columns="Title(40)",
           ignore_robots_txt=True, hide_columns="cache"),
    Preset("Custom",
           "Start from defaults and configure every option manually"),
)

_PRESET_BY_NAME = {p.name: p for p in PRESETS}


@dataclass
class WizardState:
    """Mutable wizard state (presets.rs:292-317): a preset snapshot plus
    the URL and the form-editable knobs."""

    preset_name: str = "Custom"
    url: str = ""
    device: str = "desktop"
    http_auth: str | None = None
    proxy: str | None = None
    # the Preset fields repeat here so replace()/setattr work uniformly
    workers: int = 3
    timeout: int = 5
    max_reqs_per_sec: int = 10
    max_visited_urls: int = 10000
    disable_javascript: bool = False
    disable_styles: bool = False
    disable_fonts: bool = False
    disable_images: bool = False
    disable_files: bool = False
    single_page: bool = False
    offline_export_dir: str | None = None
    markdown_export_dir: str | None = None
    sitemap_xml_file: str | None = None
    http_cache_enabled: bool = True
    result_storage_file: bool = False
    extra_columns: str | None = None
    ignore_robots_txt: bool = False
    add_random_query_params: bool = False
    allowed_domains_for_external_files: str | None = None
    hide_columns: str | None = None

    @classmethod
    def from_preset(cls, preset: Preset) -> "WizardState":
        vals = {f.name: getattr(preset, f.name) for f in fields(Preset)
                if f.name not in ("name", "description")}
        return cls(preset_name=preset.name, **vals)

    def build_argv(self, prog: str = "siteone-crawler") -> list[str]:
        """Minimal command line: only flags differing from the engine
        defaults (presets.rs:357-442, same quoting)."""
        args = [prog, f"--url='{self.url}'"]
        if self.workers != 3:
            args.append(f"--workers={self.workers}")
        if self.timeout != 5:
            args.append(f"--timeout={self.timeout}")
        if self.max_reqs_per_sec != 10:
            args.append(f"--max-reqs-per-sec={self.max_reqs_per_sec}")
        if self.max_visited_urls != 10000:
            args.append(f"--max-visited-urls={self.max_visited_urls}")
        if self.device != "desktop":
            args.append(f"--device='{self.device}'")
        if self.single_page:
            args.append("--single-page")
        for flag in ("javascript", "styles", "fonts", "images", "files"):
            if getattr(self, f"disable_{flag}"):
                args.append(f"--disable-{flag}")
        if self.offline_export_dir:
            args.append(f"--offline-export-dir='{self.offline_export_dir}'")
        if self.markdown_export_dir:
            args.append(f"--markdown-export-dir='{self.markdown_export_dir}'")
        if self.sitemap_xml_file:
            args.append(f"--sitemap-xml-file='{self.sitemap_xml_file}'")
        if not self.http_cache_enabled:
            args.append("--no-cache")
        if self.result_storage_file:
            args.append("--result-storage='file'")
        if self.extra_columns:
            args.append(f"--extra-columns='{self.extra_columns}'")
        if self.ignore_robots_txt:
            args.append("--ignore-robots-txt")
        if self.add_random_query_params:
            args.append("--add-random-query-params")
        if self.allowed_domains_for_external_files:
            args.append("--allowed-domain-for-external-files="
                        f"'{self.allowed_domains_for_external_files}'")
        if self.hide_columns:
            args.append(f"--hide-columns='{self.hide_columns}'")
        if self.http_auth:
            args.append(f"--http-auth='{self.http_auth}'")
        if self.proxy:
            args.append(f"--proxy='{self.proxy}'")
        return args

    def content_summary(self) -> str:
        """Human-readable enabled content types (presets.rs:445-463)."""
        types = ["HTML"]
        for label, off in (("JS", self.disable_javascript),
                           ("CSS", self.disable_styles),
                           ("Fonts", self.disable_fonts),
                           ("Images", self.disable_images),
                           ("Files", self.disable_files)):
            if not off:
                types.append(label)
        return ", ".join(types)


def resolve_export_path(template: str, url: str, date: str) -> str:
    """``{domain}``/``{date}`` placeholder resolution (presets.rs:467-476).

    ``date`` (YYYYMMDD) is a parameter — the caller owns "now", keeping
    this pure and the outputs reproducible under a fixed date."""
    host = urlsplit(url).hostname or "unknown"
    return template.replace("{domain}", host).replace("{date}", date)


def resolve_export_paths(state: WizardState, date: str) -> None:
    """In-place placeholder resolution for both export dirs
    (mod.rs:249-263)."""
    for attr in ("offline_export_dir", "markdown_export_dir"):
        d = getattr(state, attr)
        if d and ("{domain}" in d or "{date}" in d):
            setattr(state, attr, resolve_export_path(d, state.url, date))


# ---------------------------------------------------------------------------
# Settings form (form.rs) — fixed field order, fixed option lists, value
# cycling with wrap-around, default snapping to the nearest bucket.
# ---------------------------------------------------------------------------


@dataclass
class FormSetting:
    label: str
    options: list[str]
    index: int = 0

    def value(self) -> str:
        return self.options[self.index]

    def cycle_right(self) -> None:
        self.index = (self.index + 1) % len(self.options)

    def cycle_left(self) -> None:
        self.index = (self.index - 1) % len(self.options)

    def set_value(self, value: str) -> None:
        if value not in self.options:
            raise ValueError(
                f"invalid value {value!r} for {self.label!r}; "
                f"options: {', '.join(self.options)}")
        self.index = self.options.index(value)


def _snap(val: int, buckets: list[tuple[int, str]], last: str) -> str:
    """Snap a numeric default to its form bucket: first label whose
    inclusive upper bound covers ``val`` (form.rs:182-230 match arms)."""
    for hi, label in buckets:
        if val <= hi:
            return label
    return last


def snap_timeout(v: int) -> str:
    return _snap(v, [(1, "1s"), (2, "2s"), (4, "3s"), (9, "5s"),
                     (29, "10s"), (59, "30s")], "60s")


def snap_workers(v: int) -> str:
    return _snap(v, [(1, "1"), (2, "2"), (4, "3"), (7, "5"), (9, "8"),
                     (19, "10"), (49, "20")], "50")


def snap_rps(v: int) -> str:
    if v == 0:
        return "unlimited"
    return _snap(v, [(7, "5/s"), (14, "10/s"), (34, "20/s"), (74, "50/s"),
                     (299, "100/s")], "500/s")


def snap_max_urls(v: int) -> str:
    if v == 0:
        return "unlimited"
    return _snap(v, [(299, "100"), (749, "500"), (2499, "1000"),
                     (7499, "5000"), (29999, "10000"), (74999, "50000")],
                 "100000")


def _onoff(disabled: bool) -> str:
    return "no" if disabled else "yes"


def build_form_settings(state: WizardState) -> list[FormSetting]:
    """The 17-field form in its fixed order (form.rs:52-178)."""
    def s(label, options, default):
        fs = FormSetting(label, list(options))
        fs.set_value(default)
        return fs

    return [
        s("Timeout", ["1s", "2s", "3s", "5s", "10s", "30s", "60s"],
          snap_timeout(state.timeout)),
        s("Workers", ["1", "2", "3", "5", "8", "10", "20", "50"],
          snap_workers(state.workers)),
        s("Max requests/sec",
          ["unlimited", "5/s", "10/s", "20/s", "50/s", "100/s", "500/s"],
          snap_rps(state.max_reqs_per_sec)),
        s("Max visited URLs",
          ["unlimited", "100", "500", "1000", "5000", "10000", "50000",
           "100000"], snap_max_urls(state.max_visited_urls)),
        s("Device", ["desktop", "mobile", "tablet"], state.device),
        s("JavaScript", ["yes", "no"], _onoff(state.disable_javascript)),
        s("CSS stylesheets", ["yes", "no"], _onoff(state.disable_styles)),
        s("Fonts", ["yes", "no"], _onoff(state.disable_fonts)),
        s("Images", ["yes", "no"], _onoff(state.disable_images)),
        s("Files (PDFs, ZIPs..)", ["yes", "no"], _onoff(state.disable_files)),
        s("Single page only", ["no", "yes"],
          "yes" if state.single_page else "no"),
        s("Offline export", ["disabled", "./tmp/"],
          "./tmp/" if state.offline_export_dir else "disabled"),
        s("Markdown export", ["disabled", "./tmp/"],
          "./tmp/" if state.markdown_export_dir else "disabled"),
        s("Sitemap XML", ["disabled", "./sitemap.xml"],
          "./sitemap.xml" if state.sitemap_xml_file else "disabled"),
        s("HTTP caching", ["enabled", "disabled"],
          "enabled" if state.http_cache_enabled else "disabled"),
        s("Data storage", ["memory", "file"],
          "file" if state.result_storage_file else "memory"),
        s("Ignore robots.txt", ["no", "yes"],
          "yes" if state.ignore_robots_txt else "no"),
    ]


def parse_timeout(val: str) -> int:
    try:
        return int(val.removesuffix("s"))
    except ValueError:
        return 5


def parse_rps(val: str) -> int:
    if val == "unlimited":
        return 0
    try:
        return int(val.removesuffix("/s"))
    except ValueError:
        return 10


def parse_max_urls(val: str) -> int:
    if val == "unlimited":
        return 0
    try:
        return int(val)
    except ValueError:
        return 10000


def apply_form_to_state(settings: list[FormSetting], state: WizardState) -> None:
    """Write the form values back (form.rs:234-296).  Enabling an export
    resets its dir to the placeholder TEMPLATE — the caller must
    re-resolve placeholders afterwards, exactly the reference's
    double-resolve flow (mod.rs:104-113)."""
    by = {fs.label: fs.value() for fs in settings}
    state.timeout = parse_timeout(by["Timeout"])
    try:
        state.workers = int(by["Workers"])
    except ValueError:
        state.workers = 3
    state.max_reqs_per_sec = parse_rps(by["Max requests/sec"])
    state.max_visited_urls = parse_max_urls(by["Max visited URLs"])
    state.device = by["Device"]
    state.disable_javascript = by["JavaScript"] == "no"
    state.disable_styles = by["CSS stylesheets"] == "no"
    state.disable_fonts = by["Fonts"] == "no"
    state.disable_images = by["Images"] == "no"
    state.disable_files = by["Files (PDFs, ZIPs..)"] == "no"
    state.single_page = by["Single page only"] == "yes"
    state.offline_export_dir = (None if by["Offline export"] == "disabled"
                                else "./tmp/offline-{domain}-{date}/")
    state.markdown_export_dir = (None if by["Markdown export"] == "disabled"
                                 else "./tmp/markdown-{domain}-{date}/")
    state.sitemap_xml_file = (None if by["Sitemap XML"] == "disabled"
                              else by["Sitemap XML"])
    state.http_cache_enabled = by["HTTP caching"] == "enabled"
    state.result_storage_file = by["Data storage"] == "file"
    state.ignore_robots_txt = by["Ignore robots.txt"] == "yes"


# ---------------------------------------------------------------------------
# Serve-item discovery (mod.rs:199-246) + post-export serve offer
# (mod.rs:26-44)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExportDir:
    name: str
    path: str


def find_export_dirs(kind: str, base: str = ".") -> list[ExportDir]:
    """Existing ``{base}/tmp/{kind}-*/`` export dirs, newest first by
    name (names embed the date, mod.rs:243-245)."""
    tmp = os.path.join(base, "tmp")
    if not os.path.isdir(tmp):
        return []
    out = [ExportDir(name, os.path.join(tmp, name))
           for name in os.listdir(tmp)
           if name.startswith(f"{kind}-")
           and os.path.isdir(os.path.join(tmp, name))]
    return sorted(out, key=lambda d: d.name, reverse=True)


# ---------------------------------------------------------------------------
# Scripted driver — the answers document replaces the keystroke loop.
# ---------------------------------------------------------------------------


def run_wizard_scripted(answers: dict, *, date: str, base_dir: str = ".",
                        prog: str = "siteone-crawler",
                        with_state: bool = False):
    """Produce the synthetic argv from an answers document.

    Shapes::

        {"preset": "Quick Audit", "url": "https://...",
         "settings": {"Workers": "10", "HTTP caching": "disabled"},
         "confirm": true}
        {"serve": "offline", "export": "offline-example.com-20260818"}

    ``settings`` keys are form labels, values must be listed options
    (the scripted analogue of cycling to them); unknown labels or
    non-option values raise ValueError rather than guessing.
    ``confirm: false`` raises :class:`WizardCancelled` (exit 0 upstream,
    main.rs:41-46).
    """
    if "serve" in answers:
        kind = answers["serve"]
        if kind not in ("offline", "markdown"):
            raise ValueError(f"serve kind must be offline|markdown, got {kind!r}")
        dirs = find_export_dirs(kind, base_dir)
        if not dirs:
            raise ValueError(f"no {kind} exports under {base_dir}/tmp/")
        want = answers.get("export")
        sel = next((d for d in dirs if d.name == want), dirs[0]) if want \
            else dirs[0]
        if want and sel.name != want:
            raise ValueError(f"export {want!r} not found; have: "
                             + ", ".join(d.name for d in dirs))
        flag = ("--serve-offline=" if kind == "offline"
                else "--serve-markdown=") + sel.path
        return ([prog, flag], None) if with_state else [prog, flag]

    name = answers.get("preset", "Custom")
    preset = _PRESET_BY_NAME.get(name)
    if preset is None:
        raise ValueError(f"unknown preset {name!r}; have: "
                         + ", ".join(p.name for p in PRESETS))
    state = WizardState.from_preset(preset)
    url = answers.get("url", "")
    if not url:
        raise ValueError("answers must include a non-empty 'url'")
    state.url = url
    resolve_export_paths(state, date)

    settings = build_form_settings(state)
    by_label = {fs.label: fs for fs in settings}
    for label, value in (answers.get("settings") or {}).items():
        fs = by_label.get(label)
        if fs is None:
            raise ValueError(f"unknown setting {label!r}; have: "
                             + ", ".join(by_label))
        fs.set_value(str(value))
    apply_form_to_state(settings, state)
    resolve_export_paths(state, date)  # form may have reset to templates

    if not answers.get("confirm", True):
        raise WizardCancelled()
    argv = state.build_argv(prog)
    return (argv, state) if with_state else argv


def summary_lines(state: WizardState, argv: list[str]) -> list[str]:
    """The pre-confirm summary block (mod.rs print_summary shape)."""
    return [
        f"Preset:    {state.preset_name}",
        f"URL:       {state.url}",
        f"Content:   {state.content_summary()}",
        f"Workers:   {state.workers}   Timeout: {state.timeout}s   "
        f"Max req/s: {state.max_reqs_per_sec or 'unlimited'}   "
        f"Max URLs: {state.max_visited_urls or 'unlimited'}",
        "Command:   " + " ".join(argv),
    ]


def argv_to_cli_args(argv: list[str]) -> list[str]:
    """Convert the display argv (quoted ``--opt='v'`` strings, leading
    program name) into parseable CLI tokens."""
    out = []
    for a in argv[1:]:
        if "=" in a:
            k, _, v = a.partition("=")
            out.append(f"{k}={v.strip(chr(39))}")
        else:
            out.append(a)
    return out
