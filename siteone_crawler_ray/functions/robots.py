"""robots.txt parsing + allow-checks with the reference's exact semantics.

Behavioral parity with /root/reference/src/engine/robots_txt.rs:
- only ``User-agent: *`` and ``User-agent: SiteOne-Crawler`` sections
  contribute rules (:61-63); ``Sitemap:`` lines are collected from any
  section; ``#`` comments stripped; empty Disallow ignored.
- frontend assets (js/css/json/fonts/images) are ALWAYS allowed
  regardless of rules (:8-10, 107) — the substring regex matches
  anywhere in the URL, a quirk we keep for seen-set parity.
- Allow overrides Disallow; matching is case-insensitive prefix, with
  ``*`` wildcards matched by sequential earliest-find (NOT regex
  backtracking — the ``$``-anchored + wildcard combination inherits the
  reference's earliest-find behavior) and a ``$`` end anchor meaning
  exact equality when no wildcard is present (:174-223).

Rules are parsed once per host on the driver and shipped to fetch /
filter actors as a broadcast dict (``ray.put``), so the per-candidate
check is a cheap in-memory lookup — no shuffle, no re-parse per batch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ASSET_EXTENSION_RE = re.compile(
    r"\.(js|css|json|eot|ttf|woff2|woff|otf|png|gif|jpg|jpeg|ico|webp|avif|tif|bmp|svg)",
    re.I,
)
_ASSET_EXTENSION_RE2 = "(?i)" + ASSET_EXTENSION_RE.pattern
_UA_RE = re.compile(r"^User-agent:\s*(.*)", re.I)
_DISALLOW_RE = re.compile(r"^Disallow:\s*(.*)", re.I)
_ALLOW_RE = re.compile(r"^Allow:\s*(.*)", re.I)
_SITEMAP_RE = re.compile(r"^Sitemap:\s*(.*)", re.I)

RELEVANT_AGENTS = ("*", "SiteOne-Crawler")


def _wildcard_match(url_path_lower: str, pattern: str, exact_end: bool) -> bool:
    """Sequential earliest-find wildcard matching (robots_txt.rs:196-223)."""
    parts = pattern.split("*")
    search_from = 0
    for i, part in enumerate(parts):
        if not part:
            continue
        pos = url_path_lower.find(part.lower(), search_from)
        if pos < 0:
            return False
        if i == 0 and pos != 0:
            return False
        search_from = pos + len(part)
    if exact_end:
        return search_from == len(url_path_lower)
    return True


def path_matches(url_path: str, pattern: str) -> bool:
    """robots_txt.rs:174-192 — prefix / wildcard / ``$`` anchor matching."""
    low = url_path.lower()
    if pattern.endswith("$"):
        body = pattern[:-1]
        if "*" in body:
            return _wildcard_match(low, body, True)
        return low == body.lower()
    if "*" in pattern:
        return _wildcard_match(low, pattern, False)
    return low.startswith(pattern.lower())


def _rule_re2(pattern: str) -> str | None:
    """RE2 spelling of :func:`path_matches` for one rule, matched against
    the lowercased path; None for a ``$``-anchored wildcard rule, whose
    earliest-find semantics have no regex form.  An unanchored wildcard
    rule is a regex: earliest-find finds a placement of its parts
    whenever any placement exists."""
    low = pattern.lower()
    if low.endswith("$"):
        body = low[:-1]
        return None if "*" in body else "^" + re.escape(body) + "$"
    return "^" + ".*".join(re.escape(p) for p in low.split("*"))


def _compile_rules(rules: tuple[str, ...]) -> tuple[str | None, tuple[str, ...]]:
    """→ (one RE2 alternation of the regex-expressible rules or None,
    the ``$``+``*`` rules left to the scalar matcher)."""
    res = [(r, _rule_re2(r)) for r in rules]
    alts = [x for _, x in res if x is not None]
    return ("(?s)" + "|".join(f"(?:{x})" for x in alts) if alts else None,
            tuple(r for r, x in res if x is None))


def _paths_of(urls):
    """Column form of :func:`_extract_path`."""
    import pyarrow as pa
    import pyarrow.compute as pc

    rest = pc.replace_substring_regex(urls, pattern=r"(?s)^.*?://[^/]*", replacement="",
                                      max_replacements=1)
    path = pc.if_else(pc.and_(pc.match_substring(urls, "://"), pc.equal(rest, "")),
                      pa.scalar("/"), rest)
    return pc.replace_substring_regex(path, pattern=r"(?s)\?.*", replacement="",
                                      max_replacements=1)


@dataclass(frozen=True)
class RobotsRules:
    """Parsed rules for one host. Hashable/picklable → broadcastable."""

    disallowed: tuple[str, ...] = ()
    allowed: tuple[str, ...] = ()
    sitemaps: tuple[str, ...] = ()

    def is_allowed(self, url: str) -> bool:
        if ASSET_EXTENSION_RE.search(url):
            return True
        if not self.disallowed:
            return True
        path = _extract_path(url)
        for a in self.allowed:
            if path_matches(path, a):
                return True
        for d in self.disallowed:
            if path_matches(path, d):
                return False
        return True

    @cached_property
    def _compiled(self) -> tuple:
        return _compile_rules(self.allowed) + _compile_rules(self.disallowed)

    def allowed_mask(self, urls) -> np.ndarray:
        """:meth:`is_allowed` over a string column → bool ndarray.

        Prefix, ``*`` and ``$`` rules run as one RE2 pass per rule kind
        over the ASCII-lowercased paths; ``$``+``*`` rules keep the
        scalar earliest-find matcher, and non-ASCII URLs (whose Python
        lowercasing RE2 cannot reproduce) take :meth:`is_allowed`."""
        import pyarrow as pa
        import pyarrow.compute as pc

        n = len(urls)
        if not self.disallowed or n == 0:
            return np.ones(n, dtype=bool)
        allow_re, allow_sc, deny_re, deny_sc = self._compiled
        paths = pc.ascii_lower(_paths_of(urls))

        def hits(pattern):
            if pattern is None:
                return np.zeros(n, dtype=bool)
            return pc.match_substring_regex(paths, pattern=pattern).to_numpy(
                zero_copy_only=False)

        allow = hits(allow_re) | pc.match_substring_regex(
            urls, pattern=_ASSET_EXTENSION_RE2).to_numpy(zero_copy_only=False)
        deny = hits(deny_re)
        if allow_sc or deny_sc:
            todo = np.nonzero(~allow)[0]
            for i, p in zip(todo, paths.take(pa.array(todo)).to_pylist()):
                if any(path_matches(p, r) for r in allow_sc):
                    allow[i] = True
                elif any(path_matches(p, r) for r in deny_sc):
                    deny[i] = True
        out = allow | ~deny
        scalar = np.nonzero(~pc.string_is_ascii(urls).to_numpy(zero_copy_only=False))[0]
        for i, u in zip(scalar, urls.take(pa.array(scalar)).to_pylist()):
            out[i] = self.is_allowed(u)
        return out


def _extract_path(url: str) -> str:
    if "://" in url:
        rest = url.split("://", 1)[1]
        slash = rest.find("/")
        path = rest[slash:] if slash >= 0 else "/"
    else:
        path = url
    q = path.find("?")
    # full-URL form keeps its query out of the path (url::Url::path());
    # bare-path form strips at '?' too (robots_txt.rs:117-125)
    return path[:q] if q >= 0 else path


def parse_robots(content: str) -> RobotsRules:
    disallowed: list[str] = []
    allowed: list[str] = []
    sitemaps: list[str] = []
    current_ua: str | None = None
    for raw in content.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if m := _UA_RE.match(line):
            current_ua = m.group(1).strip()
        elif current_ua in RELEVANT_AGENTS:
            if m := _DISALLOW_RE.match(line):
                if p := m.group(1).strip():
                    disallowed.append(p)
            elif m := _ALLOW_RE.match(line):
                if p := m.group(1).strip():
                    allowed.append(p)
        if m := _SITEMAP_RE.match(line):
            if s := m.group(1).strip():
                sitemaps.append(s)
    return RobotsRules(tuple(disallowed), tuple(allowed), tuple(sitemaps))


@dataclass
class RobotsIndex:
    """host → RobotsRules map; the broadcast small side for filter stages.

    ``None`` rules (no robots.txt for a host) → everything allowed, same
    as the reference's Option<RobotsTxt> (crawler.rs:1453-1471).
    """

    by_host: dict[str, RobotsRules] = field(default_factory=dict)

    @classmethod
    def from_bodies(cls, bodies: dict[str, str]) -> "RobotsIndex":
        return cls({h: parse_robots(b) for h, b in bodies.items()})

    def is_allowed(self, host: str, url: str) -> bool:
        rules = self.by_host.get(host)
        return True if rules is None else rules.is_allowed(url)
