"""Span explosion + candidate gauntlet — the per-batch link-discovery path.

``explode_spans`` is the engine's analogue of the reference's
HtmlProcessor regex battery (/root/reference/src/content_processor/
html_processor.rs:161-394): with an interleaved-span corpus the links
are already structured, so discovery is a pure Arrow ``list_flatten`` +
``list_parent_indices`` — zero-copy, no per-row Python.

``CandidateGauntlet`` reproduces the enqueue gauntlet ordering of
crawler.rs:1018-1187: requestable → host allow → basename guard →
robots (checked against the RAW normalized href, a reference quirk we
keep for seen-set parity) → absolutize → fragment strip → query filter
→ suitability (regex include/ignore, URL length).  It runs as Arrow
column kernels over the whole batch: functions/urls.canonicalize_pairs
renders the common href shapes, host facts run once per distinct host,
robots rules run as compiled RE2 (functions/robots), and only the href
shapes the kernels do not model take the scalar per-(href, base)
derivation.  The xxhash64 keys are computed by the vectorized kernel in
functions/hashing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import urls as U
from ..functions.hashing import xxh64_strings
from ..functions.robots import ASSET_EXTENSION_RE, RobotsIndex
from ..types import SPAN_KIND_TO_SOURCE, SkippedReason

# priority packing: (source wave position) * 2^24 + extraction index.
# The shift caps the intra-page extraction index at ~16.7M spans per
# page before priorities would collide and corrupt BFS order; the
# gauntlet raises if a page ever exceeds it (a 16M-link page is
# adversarial input, not crawl data).  Headroom: wavepos up to 2^39
# still fits int64.
PRIO_SHIFT = 1 << 24

# --disable-files gating (html_processor.rs:19-21, 93, 193): an a-href
# target with ANY .ext{1,10} suffix (optional query) is a "file" unless
# the extension is an HTML-page one; --disable-fonts gates refs with a
# font extension anywhere (find_fonts is the reference's only font
# source, html_processor.rs:34-40).  Python + RE2 spellings kept in
# sync (the oracle uses the compiled ones).
import re as _re

FILE_EXT_RE = _re.compile(r"\.[a-z0-9]{1,10}(\?.*)?$", _re.I)
HTML_PAGE_EXT_RE = _re.compile(
    r"\.(htm|html|shtml|php|phtml|ashx|xhtml|asp|aspx|jsp|jspx|do|cfm|cgi|pl)", _re.I)
FONT_EXT_RE = _re.compile(r"\.(eot|ttf|woff2|woff|otf)", _re.I)
_FILE_EXT_RE2 = r"(?i)\.[a-z0-9]{1,10}(\?.*)?$"
_HTML_PAGE_EXT_RE2 = r"(?i)\.(htm|html|shtml|php|phtml|ashx|xhtml|asp|aspx|jsp|jspx|do|cfm|cgi|pl)"
_FONT_EXT_RE2 = r"(?i)\.(eot|ttf|woff2|woff|otf)"
# on canonical URLs: the host, and a static-file extension ending the
# path (U.is_static_file)
_CANON_HOST_RE2 = r"^https?://(?P<h>[a-z0-9.\-]+)"
_STATIC_RE2 = (r"(?i)^[^?]*\.(?:" + "|".join(sorted(U.STATIC_EXTENSIONS))
               + r")(?:\?|$)")


def explode_spans(
    batch: pa.Table,
    disabled_kinds: frozenset = frozenset(),
    foreign_sld: str | None = None,
    disable_files: bool = False,
    disable_fonts: bool = False,
    sitemap_only: bool = False,
) -> pa.Table:
    """documents(doc_id, spans, seq) → found hrefs, one row per link/asset
    span, deduplicated per page on the normalized href (first span wins —
    found_urls.rs:29-32 per-page MD5 dedup, made deterministic by span
    order).

    ``disabled_kinds`` (--disable-images/-javascript/-styles/
    -all-assets) removes those spans BEFORE the per-page dedup — in the
    reference a disabled extractor never adds the URL to found_urls
    (html_processor.rs:789, remove_unwanted_code_from_html gating), so
    a later span of an enabled kind with the same href still wins its
    first-occurrence slot.

    ``foreign_sld`` (--single-foreign-page, html_processor.rs:179-182):
    when set, spans from pages whose 2nd-level domain differs from it
    are dropped here — BEFORE the per-page dedup, like the reference,
    where a foreign page's extractor never runs at all — except
    Location redirects, which follow regardless (crawler.rs:733-755 is
    outside the extraction gating).  Gating after dedup would let a
    same-href non-redirect span consume the redirect's first-occurrence
    slot and strand the redirect."""
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    kind = flat.field("kind")
    ref = flat.field("media_ref")

    # positional extraction index within each document
    n = len(parent)
    if n:
        first = np.ones(n, dtype=bool)
        first[1:] = parent[1:] != parent[:-1]
        starts = np.nonzero(first)[0]
        extract_idx = np.arange(n, dtype=np.int64) - np.repeat(starts, np.diff(np.append(starts, n)))
    else:
        extract_idx = np.empty(0, dtype=np.int64)

    has_ref = pc.and_(pc.is_valid(ref), pc.not_equal(ref, "")).to_numpy(zero_copy_only=False)
    kind_np = None
    if disabled_kinds:
        kind_np = kind.to_numpy(zero_copy_only=False)
        has_ref = has_ref & ~np.isin(kind_np, list(disabled_kinds))
    if disable_files:
        # a-href targets with a non-HTML file extension are never found
        # (html_processor.rs:193) — BEFORE per-page dedup, like every
        # extractor gate; one Arrow regex pass per pattern
        if kind_np is None:
            kind_np = kind.to_numpy(zero_copy_only=False)
        is_file = pc.fill_null(
            pc.and_(
                pc.match_substring_regex(ref, pattern=_FILE_EXT_RE2),
                pc.invert(pc.match_substring_regex(ref, pattern=_HTML_PAGE_EXT_RE2)),
            ),
            False,
        ).to_numpy(zero_copy_only=False)
        has_ref = has_ref & ~((kind_np == "link") & is_file)
    if disable_fonts:
        # find_fonts is the only font source in the reference
        # (html_processor.rs:34-40, 406) — with fonts disabled a font
        # ref is never found regardless of the span kind carrying it
        is_font = pc.fill_null(
            pc.match_substring_regex(ref, pattern=_FONT_EXT_RE2), False
        ).to_numpy(zero_copy_only=False)
        has_ref = has_ref & ~is_font
    if sitemap_only and batch.num_rows:
        # sitemap-only (crawler.rs:873-876): spans of pages that are not
        # XML never parse — only redirect spans survive, like the
        # foreign-page gate below
        is_xml = np.fromiter(
            (U.is_xml_url(d) for d in batch["doc_id"].to_numpy(zero_copy_only=False)),
            dtype=bool, count=batch.num_rows)
        if not is_xml.all():
            if kind_np is None:
                kind_np = kind.to_numpy(zero_copy_only=False)
            has_ref = has_ref & ~(~is_xml[parent] & (kind_np != "redirect"))
    if foreign_sld is not None and batch.num_rows:
        page_hosts = U.hosts_of(batch["doc_id"])
        sld_memo: dict[str, bool] = {}
        is_foreign = np.empty(len(page_hosts), dtype=bool)
        for i, h in enumerate(page_hosts):
            v = sld_memo.get(h)
            if v is None:  # setdefault would evaluate the SLD eagerly per row
                v = U.domain_2nd_level(h) != foreign_sld
                sld_memo[h] = v
            is_foreign[i] = v
        if is_foreign.any():
            if kind_np is None:
                kind_np = kind.to_numpy(zero_copy_only=False)
            has_ref = has_ref & ~(is_foreign[parent] & (kind_np != "redirect"))
    keep = np.nonzero(has_ref)[0]

    wavepos = batch["wavepos"].to_numpy(zero_copy_only=False)
    depths = batch["depth"].to_numpy(zero_copy_only=False)

    par = parent[keep]
    keep_pa = pa.array(keep)
    par_pa = pa.array(par)
    # string columns stay Arrow end-to-end: `take` copies buffer bytes
    # in C++ instead of round-tripping every string through a Python
    # object (the numpy-object → pa.array re-encode was ~25% of
    # explode time on full-fanout waves)
    href_arr = ref.take(keep_pa)
    kind_arr = kind.take(keep_pa)
    # src_attr via factorize: map the handful of distinct kinds once
    kept_kinds = kind_arr.to_numpy(zero_copy_only=False)
    uk, inv = np.unique(kept_kinds, return_inverse=True)
    src_attr = np.array([SPAN_KIND_TO_SOURCE.get(k, 10) for k in uk], dtype=np.int8)[inv]

    doc_id_col = batch["doc_id"]
    uq_col = batch["uq_id"]
    if isinstance(doc_id_col, pa.ChunkedArray):
        doc_id_col = doc_id_col.combine_chunks()
    if isinstance(uq_col, pa.ChunkedArray):
        uq_col = uq_col.combine_chunks()
    out = pa.table(
        {
            "href": href_arr,
            "kind": kind_arr,
            "source_url": doc_id_col.take(par_pa),
            "source_uq_id": uq_col.take(par_pa),
            "source_wavepos": pa.array(wavepos[par], type=pa.int64()),
            "source_attr": pa.array(src_attr, type=pa.int8()),
            "extract_idx": pa.array(extract_idx[keep], type=pa.int64()),
            "depth": pa.array(depths[par] + 1, type=pa.int32()),
        }
    )

    # per-page dedup on the *normalized* href, first occurrence (span
    # order) wins — the reference's per-page FoundUrls MD5 dedup
    # (found_urls.rs:29-32).  Dedup key = (parent page, xxh64(norm));
    # hashing keeps the sort on fixed 8-byte keys — a numpy unicode
    # array would be padded to the longest href (2 KB+) and the sort
    # would move gigabytes.  normalize_href vectorized as Arrow kernels
    # (same replace/trim sequence as functions/urls.normalize_href —
    # the per-href Python loop was the extract hot spot at full fanout)
    norm_arr = out["href"]
    for pat, repl in (("&#38;", "&"), ("&amp;", "&"), ("\\ ", "%20"), (" ", "%20")):
        norm_arr = pc.replace_substring(norm_arr, pattern=pat, replacement=repl)
    norm_arr = pc.utf8_rtrim(pc.utf8_ltrim(norm_arr, characters="\"'\t "),
                             characters="&\"'\t ")
    out = out.append_column("norm_href", norm_arr)
    m = out.num_rows
    if m:
        hh = xxh64_strings(norm_arr)
        parent_ids = par.astype(np.uint64)
        order = np.lexsort((np.arange(m), hh, parent_ids))
        ps, hs = parent_ids[order], hh[order]
        first = np.ones(m, dtype=bool)
        first[1:] = (ps[1:] != ps[:-1]) | (hs[1:] != hs[:-1])
        keep_idx = np.sort(order[first])
        if len(keep_idx) != m:
            out = out.take(pa.array(keep_idx))
    return out


class CandidateGauntlet:
    """Stateful batch filter: compiled regexes + broadcast robots rules +
    broadcast basename blocklist, built once per actor (§2.3 of SURVEY)."""

    def __init__(
        self,
        robots: RobotsIndex,
        seed_host: str,
        *,
        remove_query_params: bool = False,
        keep_query_params: tuple[str, ...] = (),
        allowed_domains_crawl: tuple[str, ...] = (),
        allowed_domains_static: tuple[str, ...] = (),
        include_regex: tuple[str, ...] = (),
        ignore_regex: tuple[str, ...] = (),
        transform_url: tuple[str, ...] = (),
        max_url_length: int = U.DEFAULT_MAX_URL_LENGTH,
        max_depth: int | None = None,
        ignore_robots_txt: bool = False,
        basename_blocklist: frozenset[str] = frozenset(),
        force_relative_urls: bool = False,
        initial_url: str = "",
        disabled_span_kinds: tuple[str, ...] = (),
        regex_filtering_only_for_pages: bool = False,
        single_page: bool = False,
        single_foreign_page: bool = False,
        disable_files: bool = False,
        disable_fonts: bool = False,
        sitemap_only: bool = False,
    ):
        import re

        self.robots = robots
        self.seed_host = seed_host
        self.remove_query = remove_query_params
        self.keep_query = keep_query_params
        self.allowed_crawl = [U.compile_wildcard_domain(p) for p in allowed_domains_crawl]
        self.allowed_static = [U.compile_wildcard_domain(p) for p in allowed_domains_static]
        self.include = [re.compile(p) for p in include_regex]
        self.ignore = [re.compile(p) for p in ignore_regex]
        from .export import UrlTransforms

        self.transforms = UrlTransforms(transform_url)
        self.max_url_length = max_url_length
        self.max_depth = max_depth
        self.ignore_robots = ignore_robots_txt
        self.basename_blocklist = basename_blocklist
        # --disable-* span gating (consumed by explode_spans in the
        # worker, before per-page dedup) + --regex-filtering-only-for-pages
        # (crawler.rs:1316-1318: static files bypass include/ignore)
        self.disabled_span_kinds = frozenset(disabled_span_kinds)
        # --single-page = no href extraction at all (html_processor.rs:781):
        # the "link" kind joins the disabled set consumed by explode_spans
        if single_page:
            self.disabled_span_kinds = self.disabled_span_kinds | {"link"}
        self.regex_only_pages = regex_filtering_only_for_pages
        # consumed by explode_spans via the worker, like disabled_span_kinds
        self.disable_files = disable_files
        self.disable_fonts = disable_fonts
        # sitemap-only mode (crawler.rs:873-876: initial URL is a
        # sitemap.xml → non-XML pages never parse, so only sitemap-
        # listed URLs crawl; Location redirects still follow)
        self.sitemap_only = sitemap_only
        # --single-foreign-page: spans from pages whose 2nd-level domain
        # differs from the initial URL's are dropped (except redirects)
        # — consumed by explode_spans BEFORE its per-page dedup, like
        # disabled_span_kinds (html_processor.rs:179-182)
        self.single_foreign_sld = None
        if single_foreign_page and initial_url:
            self.single_foreign_sld = U.domain_2nd_level(U.host_of(initial_url))
        # --force-relative-urls host/scheme folding (crawler.rs:1245-1265)
        self.force_relative = force_relative_urls and bool(initial_url)
        if self.force_relative:
            from urllib.parse import urlsplit

            sp = urlsplit(initial_url)
            self.initial_scheme = sp.scheme or "https"
            self.initial_host = sp.hostname or ""
        # rows the last __call__ sent to the scalar _derive (worker timing)
        self.last_fallback_rows = 0

    def _derive(self, h: str, b: str) -> tuple:
        """All per-(href, base) derivations: canonical URL, host,
        same-host, allowed-domain matches, basename, robots verdict, and
        the final (query-filtered, length/include/ignore/transform
        checked) URL or None."""
        canon = U.canonicalize(h, b)
        if canon is None:
            return (None,) * 8
        host = U.host_of(canon)
        same = U.is_same_host(host, self.seed_host)
        allowed_s = allowed_c = False
        if not same:
            allowed_s = any(p.match(host) for p in self.allowed_static)
            allowed_c = any(p.match(host) for p in self.allowed_crawl)
        basename = U.basename_of(canon)
        static = U.is_static_file(canon)
        # robots on the RAW normalized href (crawler.rs:1113-1124);
        # static files bypass robots (robots_txt.rs:8-10,107)
        robots_ok = self.ignore_robots or static or self._robots_allowed(host, h)
        if self.remove_query or self.keep_query:
            final = U.canonicalize(
                h, b, remove_query_params=self.remove_query, keep_query_params=self.keep_query
            )
        else:
            final = canon
        return (canon, host, same, allowed_s, allowed_c, basename, robots_ok,
                self._finish(final, static))

    def _fast_query(self, canon: str) -> str:
        """Query filtering of a URL :func:`U.canonicalize_pairs` rendered
        (used by :meth:`_kernel_facts`): a pure string op, identical to
        :func:`U.canonicalize`'s filter-before-render because rendering
        leaves the kernel's already-canonical URLs unchanged."""
        if self.remove_query:
            q = canon.find("?")
            return canon[:q] if q >= 0 else canon
        if self.keep_query:
            return U.filter_query_params(canon, self.keep_query)
        return canon

    def _finish(self, final: str | None, static: bool) -> str | None:
        """force-relative folding, then suitability (length, include,
        ignore), then transforms — crawler.rs:1158-1164 ordering."""
        if final is not None and self.force_relative:
            final = U.normalize_url_to_initial(final, self.initial_scheme, self.initial_host)
        # static files bypass the include/ignore regexes when configured
        # (crawler.rs:1316-1318 is_url_allowed_by_regexes)
        regex_bypass = self.regex_only_pages and static
        if final is None or len(final) > self.max_url_length:
            final = None
        elif (self.include and not regex_bypass
              and not any(p.search(final) for p in self.include)):
            final = None
        elif (self.ignore and not regex_bypass
              and any(p.search(final) for p in self.ignore)):
            final = None
        if final is not None and self.transforms.rules:
            final = self.transforms.apply_one(final)
        return final

    def _requestable(self, batch: pa.Table) -> np.ndarray:
        # is_requestable_resource (utils.rs:607-633) on the RAW href,
        # vectorized: one Arrow regex pass replaces n Python calls and
        # the n-string materialization of the raw column
        raw_col = batch["href"]
        bad = pc.match_substring_regex(raw_col, pattern=r"^#|\{|<|&#")
        has_scheme = pc.match_substring_regex(raw_col, pattern=r"^[a-zA-Z0-9]+:")
        is_http = pc.match_substring_regex(raw_col, pattern=r"(?i)^https?:/")
        return pc.and_(
            pc.invert(bad),
            pc.or_(pc.invert(has_scheme), is_http),
        ).to_numpy(zero_copy_only=False)

    def _kernel_facts(self, nh: pa.Array, canon: pa.Array, link: np.ndarray) -> dict:
        """Gauntlet facts for rows whose canonical URL the column kernels
        rendered (``canon`` has no nulls): host facts once per distinct
        host, static-file as one regex pass, robots only for rows that
        pass the host check on a host with rules, config features
        without a kernel once per distinct canonical URL."""
        n = len(canon)
        host = pc.struct_field(pc.extract_regex(canon, pattern=_CANON_HOST_RE2), [0])
        hd = host.dictionary_encode()
        hi = hd.indices.to_numpy(zero_copy_only=False)
        hosts = hd.dictionary.to_pylist()
        same = np.array([U.is_same_host(h, self.seed_host) for h in hosts], dtype=bool)
        als = np.array([not s and any(p.match(h) for p in self.allowed_static)
                        for h, s in zip(hosts, same)], dtype=bool)[hi]
        alc = np.array([not s and any(p.match(h) for p in self.allowed_crawl)
                        for h, s in zip(hosts, same)], dtype=bool)[hi]
        same = same[hi]
        # U.is_static_file: (?i) folds exactly like str.lower() on ASCII
        # input only, so non-ASCII URLs take the scalar function
        static = pc.match_substring_regex(canon, pattern=_STATIC_RE2).to_numpy(
            zero_copy_only=False)
        odd = np.nonzero(~pc.string_is_ascii(canon).to_numpy(zero_copy_only=False))[0]
        for i, c in zip(odd, canon.take(pa.array(odd)).to_pylist()):
            static[i] = U.is_static_file(c)
        robots_ok = np.ones(n, dtype=bool)
        if not self.ignore_robots:
            need = ~static & (same | alc | (als & ~link))
            for k, h in enumerate(hosts):
                rules = self.robots.by_host.get(h)
                if rules is None or not rules.disallowed:
                    continue
                rows = np.nonzero(need & (hi == k))[0]
                if len(rows):
                    robots_ok[rows] = rules.allowed_mask(nh.take(pa.array(rows)))
        scalar_final = (self.keep_query or self.force_relative or self.include
                        or self.ignore or self.transforms.rules)
        bn_block = np.zeros(n, dtype=bool)
        if scalar_final or self.basename_blocklist:
            cd = canon.dictionary_encode()
            ci = cd.indices.to_numpy(zero_copy_only=False)
            uniq = cd.dictionary.to_pylist()
            if self.basename_blocklist:
                bl = self.basename_blocklist
                bn_block = np.array([U.basename_of(c) in bl for c in uniq], dtype=bool)[ci]
        if scalar_final:
            final = pa.array([self._finish(self._fast_query(c), U.is_static_file(c))
                              for c in uniq], pa.string()).take(cd.indices)
        else:
            final = canon
            if self.remove_query:
                final = pc.replace_substring_regex(final, pattern=r"(?s)\?.*",
                                                   replacement="", max_replacements=1)
            final = pc.if_else(pc.less_equal(pc.utf8_length(final), self.max_url_length),
                               final, pa.scalar(None, pa.string()))
        return {"host": host, "same": same, "als": als, "alc": alc,
                "robots_ok": robots_ok, "bn_block": bn_block, "final": final}

    def __call__(self, batch: pa.Table) -> pa.Table:
        """→ rows tagged ``ok`` (enqueue candidates) or ``skip`` (recorded
        with a reason); silently-dropped rows are removed.

        Column path: :func:`U.canonicalize_pairs` renders the common href
        shapes for the whole batch and :meth:`_kernel_facts` judges them;
        the rows it cannot model go to the scalar :meth:`_derive` once
        per distinct (href, base) pair.  Element-wise identical to
        :meth:`_decide_rows` (the scalar reference kept for parity
        tests)."""
        n = batch.num_rows
        nh = _combined(batch["norm_href"])
        requestable = self._requestable(batch)
        link = pc.equal(batch["kind"], "link").to_numpy(zero_copy_only=False)
        canon = U.canonicalize_pairs(nh, batch["source_url"])
        kern = requestable & pc.is_valid(canon).to_numpy(zero_copy_only=False)
        ki = np.nonzero(kern)[0]
        fi = np.nonzero(requestable & ~kern)[0]
        self.last_fallback_rows = len(fi)

        has_canon = kern.copy()
        same = np.zeros(n, dtype=bool)
        als = np.zeros(n, dtype=bool)
        alc = np.zeros(n, dtype=bool)
        robots_ok = np.zeros(n, dtype=bool)
        has_final = np.zeros(n, dtype=bool)
        bn_block = np.zeros(n, dtype=bool)
        k_canon = canon.take(pa.array(ki))
        kf = self._kernel_facts(nh.take(pa.array(ki)), k_canon, link[ki])
        same[ki], als[ki], alc[ki] = kf["same"], kf["als"], kf["alc"]
        robots_ok[ki], bn_block[ki] = kf["robots_ok"], kf["bn_block"]
        has_final[ki] = pc.is_valid(kf["final"]).to_numpy(zero_copy_only=False)

        # scalar fallback, once per distinct (href, base) pair
        f_ent: list[tuple] = []
        if len(fi):
            fsel = pa.array(fi)
            hd = nh.take(fsel).dictionary_encode()
            sd = _combined(batch["source_url"]).take(fsel).dictionary_encode()
            h_idx = hd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            s_idx = sd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            _, first, inv = np.unique(h_idx * len(sd.dictionary) + s_idx,
                                      return_index=True, return_inverse=True)
            hs = hd.dictionary.take(pa.array(h_idx[first])).to_pylist()
            bs = sd.dictionary.take(pa.array(s_idx[first])).to_pylist()
            uents = [self._derive(h, b) for h, b in zip(hs, bs)]
            f_ent = [uents[j] for j in inv]
            bl = self.basename_blocklist
            for i, ent in zip(fi, f_ent):
                if ent[0] is None:
                    continue
                has_canon[i] = True
                same[i], als[i], alc[i], robots_ok[i] = ent[2], ent[3], ent[4], ent[6]
                has_final[i] = ent[7] is not None
                bn_block[i] = ent[5] is not None and ent[5] in bl

        # decision cascade as mask algebra (same order as _decide_rows:
        # host-skip > robots-skip > depth-skip > final-drop > ok)
        rem = requestable & has_canon & ~bn_block
        skip_host = rem & ~same & ~(alc | (als & ~link))
        rem &= ~skip_host
        skip_robots = rem & ~robots_ok
        rem &= ~skip_robots
        skip_depth = np.zeros(n, dtype=bool)
        if self.max_depth is not None:
            depth = batch["depth"].to_numpy(zero_copy_only=False).astype(np.int64)
            skip_depth = rem & (depth > self.max_depth)
            rem &= ~skip_depth
        ok = rem & has_final
        reason = np.zeros(n, dtype=np.int8)
        reason[skip_host] = SkippedReason.NOT_ALLOWED_HOST
        reason[skip_robots] = SkippedReason.ROBOTS_TXT
        reason[skip_depth] = SkippedReason.EXCEEDS_MAX_DEPTH
        keep = ok | (reason != 0)
        # kept rows' URL (final when ok, else canonical) and host, kernel
        # rows as Arrow, fallback rows from their derivations, then put
        # back in row order
        kk = keep[ki]
        k_url = pc.if_else(pa.array(ok[ki]), kf["final"], k_canon).filter(pa.array(kk))
        k_host = kf["host"].filter(pa.array(kk))
        f_rows = [(i, e) for i, e in zip(fi, f_ent) if keep[i]]
        rows = np.concatenate([ki[kk], np.array([i for i, _ in f_rows], dtype=np.int64)])
        url_arr = pa.concat_arrays([k_url, pa.array(
            [e[7] if ok[i] else e[0] for i, e in f_rows], pa.string())])
        hosts = pa.concat_arrays([k_host, pa.array([e[1] for _, e in f_rows], pa.string())])
        if len(f_rows):
            order = pa.array(np.argsort(rows, kind="stable"))
            rows, url_arr, hosts = rows[order.to_numpy()], url_arr.take(order), hosts.take(order)
        if self.force_relative or self.transforms.rules:
            # both may rewrite an ok row's host
            hosts = U.hosts_of(url_arr, return_arrow=True)
        return _candidate_table(batch, rows, url_arr, hosts, ok[rows], reason[rows])

    def _decide_rows(self, batch: pa.Table) -> tuple:
        """Scalar reference decision loop — semantics-defining twin of
        :meth:`__call__`, kept for the element-wise parity tests."""
        hrefs = batch["norm_href"].to_numpy(zero_copy_only=False)
        sources = batch["source_url"].to_numpy(zero_copy_only=False)
        kinds = batch["kind"].to_numpy(zero_copy_only=False)
        depths = batch["depth"].to_numpy(zero_copy_only=False)
        n = len(hrefs)
        requestable = self._requestable(batch)

        url = np.full(n, None, dtype=object)  # canonical absolute (query-filtered)
        skip_url = np.full(n, None, dtype=object)  # canonical absolute (unfiltered)
        tag = np.empty(n, dtype=object)
        reason = np.zeros(n, dtype=np.int8)

        # NB: --single-foreign-page gating happens in explode_spans
        # (before per-page dedup), not here — see its docstring.
        for i in range(n):
            h, b = hrefs[i], sources[i]
            if not requestable[i]:
                tag[i] = ""
                continue
            canon, host, same, allowed_s, allowed_c, basename, robots_ok, final = (
                self._derive(h, b))
            if canon is None:
                tag[i] = ""
                continue
            if basename is not None and basename in self.basename_blocklist:
                tag[i] = ""
                continue
            allowed = allowed_c or (allowed_s and kinds[i] != "link")
            if not same and not allowed:
                tag[i] = "skip"
                reason[i] = SkippedReason.NOT_ALLOWED_HOST
                skip_url[i] = canon
                continue
            if not robots_ok:
                tag[i] = "skip"
                reason[i] = SkippedReason.ROBOTS_TXT
                skip_url[i] = canon
                continue
            if self.max_depth is not None and int(depths[i]) > self.max_depth:
                tag[i] = "skip"
                reason[i] = SkippedReason.EXCEEDS_MAX_DEPTH
                skip_url[i] = canon
                continue
            if final is None:
                tag[i] = ""
                continue
            tag[i] = "ok"
            url[i] = final
            skip_url[i] = canon
        return url, skip_url, tag, reason

    def _call_rows(self, batch: pa.Table) -> pa.Table:
        """:meth:`__call__`'s output built from :meth:`_decide_rows` — the
        table the parity tests compare the column path against."""
        url, skip_url, tag, reason = self._decide_rows(batch)
        rows = np.nonzero(tag != "")[0]
        ok = tag[rows] == "ok"
        url_arr = pa.array(list(np.where(ok, url[rows], skip_url[rows])), pa.string())
        return _candidate_table(batch, rows, url_arr, U.hosts_of(url_arr, return_arrow=True),
                                ok, reason[rows])

    def _robots_allowed(self, host: str, raw_href: str) -> bool:
        rules = self.robots.by_host.get(host)
        if rules is None:
            return True
        return rules.is_allowed(raw_href)


def _combined(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _candidate_table(batch: pa.Table, rows: np.ndarray, url: pa.Array, hosts: pa.Array,
                     ok: np.ndarray, reason: np.ndarray) -> pa.Table:
    """The gauntlet's output for the kept ``rows`` of ``batch`` (in row
    order): URL (final when ok, canonical when skipped), its key and
    host, tag, skip reason and BFS priority."""
    kept = batch.take(pa.array(rows, pa.int64()))
    extract_idx = kept["extract_idx"].to_numpy(zero_copy_only=False)
    if len(extract_idx) and int(extract_idx.max()) >= PRIO_SHIFT:
        raise ValueError(
            f"page exceeds {PRIO_SHIFT} extracted spans — priority packing "
            "would collide and corrupt BFS order (raise PRIO_SHIFT)"
        )
    prio = (
        kept["source_wavepos"].to_numpy(zero_copy_only=False) * PRIO_SHIFT
        + extract_idx
    )
    return pa.table(
        {
            "url": url,
            "url_key": pa.array(xxh64_strings(url), type=pa.uint64()),
            "host": hosts,
            "tag": pa.array(np.where(ok, "ok", "skip"), type=pa.string()),
            "reason": pa.array(reason, type=pa.int8()),
            "source_uq_id": kept["source_uq_id"],
            "source_attr": kept["source_attr"],
            "priority": pa.array(prio, type=pa.int64()),
            "depth": kept["depth"],
        }
    )


def extract_title_extras(batch: pa.Table) -> dict[str, np.ndarray]:
    """title / meta-description extras from spans (crawler.rs:900-934
    analogue) — first title/meta span per document."""
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    kinds = flat.field("kind").to_numpy(zero_copy_only=False)
    texts = flat.field("text").to_numpy(zero_copy_only=False)
    nrows = batch.num_rows
    title = np.full(nrows, "", dtype=object)
    desc = np.full(nrows, "", dtype=object)
    for sel, out in ((kinds == "title", title), (kinds == "meta", desc)):
        idx = np.nonzero(sel)[0]
        if len(idx):
            # keep the first span of each parent; parent indices are
            # nondecreasing, so first-occurrence is a diff, not a sort
            p = parent[idx]
            firsts = np.flatnonzero(np.diff(p, prepend=p[0] - 1))
            out[p[firsts]] = texts[idx[firsts]]
    return {"title": title, "description": desc}
