"""Property-based invariants (hypothesis) for the URL kernels.

The reference relies on these implicitly (every URL passes through the
canonicalizer multiple times — at discovery, at enqueue, at fetch);
idempotence and stability are what make the seen-set keys well-defined.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from siteone_crawler_ray.functions import urls as U
from siteone_crawler_ray.functions.hashing import xxh64, xxh64_strings

import numpy as np

_hosts = st.sampled_from(["a.test", "www.b.test", "site-001.example.org", "x.y.z.test"])
_paths = st.lists(
    st.text(alphabet="abcdefghij0123456789-_", min_size=1, max_size=8), min_size=0, max_size=4
).map(lambda segs: "/" + "/".join(segs))
_queries = st.one_of(
    st.just(""),
    st.lists(
        st.tuples(st.sampled_from("abcde"), st.text(alphabet="xyz01", min_size=1, max_size=3)),
        min_size=1,
        max_size=3,
    ).map(lambda kv: "?" + "&".join(f"{k}={v}" for k, v in kv)),
)


@st.composite
def absolute_urls(draw):
    scheme = draw(st.sampled_from(["http", "https"]))
    return f"{scheme}://{draw(_hosts)}{draw(_paths)}{draw(_queries)}"


@settings(max_examples=200, deadline=None)
@given(absolute_urls())
def test_canonicalize_idempotent(url):
    c1 = U.canonicalize(url, url)
    assert c1 is not None
    c2 = U.canonicalize(c1, c1)
    assert c2 == c1


@settings(max_examples=200, deadline=None)
@given(absolute_urls())
def test_fragment_never_survives(url):
    c = U.canonicalize(url + "#frag-part", url)
    assert c is not None and "#" not in c


@settings(max_examples=200, deadline=None)
@given(absolute_urls())
def test_remove_query_params_idempotent_and_stripped(url):
    c = U.canonicalize(url, url, remove_query_params=True)
    assert c is not None and "?" not in c
    assert U.canonicalize(c, c, remove_query_params=True) == c


@settings(max_examples=100, deadline=None)
@given(st.lists(absolute_urls(), min_size=1, max_size=20))
def test_vectorized_hash_matches_scalar(urls):
    vec = xxh64_strings(urls)
    assert list(vec) == [xxh64(u) for u in urls]
    assert vec.dtype == np.uint64


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
def test_normalize_href_idempotent(href):
    n1 = U.normalize_href(href)
    assert U.normalize_href(n1) == n1


@settings(max_examples=200, deadline=None)
@given(absolute_urls(), st.sampled_from(["./rel", "../up", "/abs/path", "x/y", "//a.test/pp"]))
def test_relative_resolution_produces_absolute(base, rel):
    c = U.canonicalize(rel, base)
    if c is not None:
        assert c.startswith("http://") or c.startswith("https://")
        # resolving the result against itself is stable
        assert U.canonicalize(c, c) == c


@settings(max_examples=500, deadline=None)
@given(
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=30),
    absolute_urls(),
)
def test_canonicalize_fast_matches_full(href, base):
    """Whenever the fast path claims applicability its answer must equal
    the full canonicalizer's — on arbitrary printable hrefs."""
    fast = U.canonicalize_fast(href, base)
    if fast is not None:
        assert fast == U.canonicalize(href, base)


def test_canonicalize_fast_fuzz_regressions():
    """Shapes hypothesis once caught diverging: relative "//" collapse
    and trailing empty-params ";" stripping (both must fall back or
    match the full path)."""
    for href, base in [
        ("0//", "http://a.test/"),
        ("a//b", "http://a.test/"),
        ("/;", "http://a.test/"),
        ("/x;", "http://a.test/"),
        ("/x;?q=1", "http://a.test/"),
        ("//a.test/;", "http://x.test/"),
        ("http://a.test/x;", "http://x.test/"),
        ("/;x", "http://a.test/"),           # non-empty params survive
        ("http://a.test/a;b", "http://x.test/"),
    ]:
        fast = U.canonicalize_fast(href, base)
        if fast is not None:
            assert fast == U.canonicalize(href, base), (href, base)


@settings(max_examples=300, deadline=None)
@given(_paths, _queries, absolute_urls())
def test_canonicalize_fast_applies_to_clean_paths(path, query, base):
    href = path + query
    fast = U.canonicalize_fast(href, base)
    full = U.canonicalize(href, base)
    if fast is not None:
        assert fast == full


def test_canonicalize_fast_trailing_strip_chars_and_dot_segments():
    # ADVICE r1: trailing '&' is rstripped by normalize_href; trailing
    # '/.' and '/..' are resolved by urljoin — the fast path must
    # decline all of them and agree with the full path everywhere.
    base = "https://x.test/p"
    for href in ("/a?b=1&", "/a/..", "/a/.", "/a/../b", "/a/./b", "/."):
        assert U.canonicalize_fast(href, base) is None, href
    assert U.canonicalize("/a?b=1&", base) == "https://x.test/a?b=1"
    assert U.canonicalize("/a/..", base) == "https://x.test/"
    assert U.canonicalize("/a/.", base) == "https://x.test/a/"


def test_canonicalize_fast_trailing_question_mark():
    # the renderer drops a bare trailing "?" — fast path must decline
    base = "https://x.test/p"
    assert U.canonicalize_fast("/a?", base) is None
    assert U.canonicalize("/a?", base) == "https://x.test/a"
    assert U.canonicalize_fast("/a?b=1", base) == "https://x.test/a?b=1"


@settings(max_examples=300, deadline=None)
@given(absolute_urls())
def test_canonicalize_fast_absolute_branch(url):
    """Already-canonical absolute URLs pass through the fast path and
    always agree with the full canonicalizer."""
    fast = U.canonicalize_fast(url, "https://other.test/base")
    if fast is not None:
        assert fast == U.canonicalize(url, "https://other.test/base")


def test_canonicalize_fast_absolute_rejections():
    base = "https://b.test/x"
    # uppercase scheme/host now takes the any-case fast branch (r4) and
    # must agree with the full canonicalizer
    for href in ("HTTPS://a.test/p", "HtTpS://A.TEST/p?q=Mixed",
                 "HTTP://a.test/p#Frag", "HTTPS://USER@a.test/p"):
        fast = U.canonicalize_fast(href, base)
        full = U.canonicalize(href, base)
        if fast is not None:
            assert fast == full, href
    assert U.canonicalize_fast("HTTPS://a.test/p", base) == "https://a.test/p"
    # must decline: default port, no path, dot segments, bare query, entities
    for href in ("https://a.test:443/p",
                 "https://a.test", "https://a.test/a/../b", "https://a.test/p?",
                 "https://a.test/p?a=1&amp;b=2", "https://a.test#f"):
        assert U.canonicalize_fast(href, base) is None, href
    # accepts and passes through canonical forms
    assert U.canonicalize_fast("https://a.test/p?a=1", base) == "https://a.test/p?a=1"
    assert U.canonicalize_fast("http://a.test:8080/p", base) == "http://a.test:8080/p"


def test_canonicalize_fast_new_branches():
    """r3 additions: fragment-suffixed absolutes, protocol-relative,
    and safe bare-relative hrefs take the fast path and agree with the
    full canonicalizer."""
    base = "https://b.test/p/11560"
    cases = ("https://a.test/p/1#frag", "//c.test/p/2", "./26317", "26317",
             "a/b?q=1", "sub/page")
    for href in cases:
        fast = U.canonicalize_fast(href, base)
        assert fast is not None, href
        assert fast == U.canonicalize(href, base), href
    assert U.canonicalize_fast("https://a.test/p/1#frag", base) == "https://a.test/p/1"
    assert U.canonicalize_fast("//c.test/p/2", base) == "https://c.test/p/2"
    assert U.canonicalize_fast("26317", base) == "https://b.test/p/26317"
    # conservative rejections still fall back
    for href in ("//c.test/p#f&", "../up", "a:b", "a b", "x?", "a%20b",
                 "./", "a/./b"):
        assert U.canonicalize_fast(href, base) is None, href
    # base with a query cannot take the bare-relative shortcut
    assert U.canonicalize_fast("a", "https://b.test/p?x=1") is None


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(
        absolute_urls(),
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40),
        absolute_urls().map(lambda u: u + "#frag"),
        absolute_urls().map(lambda u: u.replace("https://", "HTTPS://", 1)),
    ),
    max_size=12,
))
def test_canonicalize_urls_matches_scalar(urls):
    """The vectorized url-list kernel (flat crawl prep) must agree
    row-for-row with canonicalize(u, u) + the length cap."""
    vec = U.canonicalize_urls(urls)
    for u, got in zip(urls, vec):
        want = U.canonicalize(u, u) if u else None
        if want is not None and len(want) > U.DEFAULT_MAX_URL_LENGTH:
            want = None
        assert got == want, (u, got, want)


@settings(max_examples=300, deadline=None)
@given(
    absolute_urls().map(lambda u: u.upper()),
    st.sampled_from(["", "#Frag", "?", "&"]),
    absolute_urls(),
)
def test_canonicalize_fast_anycase_absolute_matches_full(url, suffix, base):
    """The r4 any-case absolute branch must agree with the full
    canonicalizer on uppercase scheme/host inputs."""
    href = url + suffix
    fast = U.canonicalize_fast(href, base)
    if fast is not None:
        assert fast == U.canonicalize(href, base), href


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["HTTP", "HtTpS", "https", "HTTPS"]),
    st.sampled_from(["A.TEST", "a.test", "USER@a.test", "a.test:8080",
                     "a.test:443", "a.test:80", "É.test", "WWW.B.Test"]),
    st.sampled_from(["/p", "/p/Q?x=1", "", "/p#F", "/p?"]),
    absolute_urls(),
)
def test_canonicalize_fast_anycase_edge_shapes(scheme, authority, rest, base):
    """Ports, userinfo, IDN and bare-origin shapes through the any-case
    branch must agree with the full canonicalizer whenever the fast
    path claims applicability."""
    href = f"{scheme}://{authority}{rest}"
    fast = U.canonicalize_fast(href, base)
    if fast is not None:
        assert fast == U.canonicalize(href, base), href


def test_malformed_and_zero_padded_ports():
    """Review findings r4: malformed ports must DROP (not crash) through
    every path, and zero-padded default ports must not diverge between
    the fast/vector paths and the full canonicalizer."""
    assert U.canonicalize("https://a.test:9x/p", "https://a.test/") is None
    assert U.canonicalize_urls(["https://a.test:9x/p"])[0] is None
    assert U.render_canonical("https://a.test:9x/p") is None
    for u in ("http://a.test:0080/p", "https://a.test:0443/p",
              "http://a.test:08080/p", "https://a.test:000/p"):
        full = U.canonicalize(u, u)
        fast = U.canonicalize_fast(u, u)
        assert fast is None or fast == full, (u, fast, full)
        assert U.canonicalize_urls([u])[0] == full, u
    # path-absolute against a zero-padded-port base must fall back
    assert U.canonicalize_fast("/x", "https://a.test:0443/p") is None
    # normal explicit ports still take the fast path
    assert U.canonicalize_fast("http://a.test:8080/p", "x") == "http://a.test:8080/p"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["http", "https", "HTTP"]),
    st.sampled_from(["a.test", "b.c.test"]),
    st.text(alphabet="0123456789x", min_size=1, max_size=5),
    st.sampled_from(["/p", "/p?q=1", ""]),
)
def test_arbitrary_port_strings_never_crash_and_agree(scheme, host, port, rest):
    href = f"{scheme}://{host}:{port}{rest}"
    full = U.canonicalize(href, href)  # must not raise
    fast = U.canonicalize_fast(href, "https://x.test/b")
    if fast is not None:
        assert fast == U.canonicalize(href, "https://x.test/b"), href
    vec = U.canonicalize_urls([href])[0]
    want = full if full is not None and len(full) <= U.DEFAULT_MAX_URL_LENGTH else None
    assert vec == want, (href, vec, want)


_href_chars = st.sampled_from(list("aZ09/.-_?=&#%;:@ ") + ["//", "./", "../", "é", " ",
                                                         "\t", "&amp;", "K"])
_pieces = st.lists(_href_chars, max_size=8).map("".join)
_hrefs = st.one_of(
    _pieces,
    st.tuples(st.sampled_from(["/", "//a.test/", "//A.test:8080/", "https://a.test/",
                               "HTTP://WWW.B.TEST/", "https://x.test:443/", "http://u@a.test/",
                               "./", "", "http://a.test:0080/", "https://b.test:65536/"]),
              _pieces).map("".join),
    absolute_urls(),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=30),
)
_bases = st.one_of(
    absolute_urls(),
    st.tuples(absolute_urls(), st.sampled_from(["", "?q=1", "//x", ";p", "/a b", "#f", "?",
                                                ":8080", "%41"])).map("".join),
    absolute_urls().map(lambda u: u.replace("://", "://WWW.", 1).upper()),
    absolute_urls().map(lambda u: u.replace(".test", ".test:8443", 1)),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_hrefs, _bases), min_size=1, max_size=16))
def test_canonicalize_pairs_matches_full(pairs):
    """Wherever the column canonicalizer renders a URL, it is the full
    canonicalizer's answer."""
    import pyarrow as pa

    hrefs, bases = (list(c) for c in zip(*pairs))
    got = U.canonicalize_pairs(pa.array(hrefs), pa.array(bases)).to_pylist()
    for h, b, c in zip(hrefs, bases, got):
        if c is not None:
            assert c == U.canonicalize(h, b), (h, b, c)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_hrefs, _bases, st.sampled_from(["link", "img"])),
                min_size=1, max_size=16),
       st.sampled_from([{}, {"remove_query_params": True}, {"keep_query_params": ("a",)},
                        {"allowed_domains_crawl": ("*.b.test",), "max_url_length": 40}]))
def test_gauntlet_call_matches_scalar_rows(rows, cfg):
    """Random href/base batches: the gauntlet's column path returns the
    same table as the one built from the scalar `_decide_rows`."""
    import pyarrow as pa

    from siteone_crawler_ray.functions.robots import RobotsIndex
    from siteone_crawler_ray.stages.extract import CandidateGauntlet

    robots = RobotsIndex.from_bodies({
        "a.test": "User-agent: *\nDisallow: /a\nAllow: /a/b\nDisallow: /*.Z$\n",
        "www.b.test": "User-agent: *\nDisallow: /*9\n",
    })
    n = len(rows)
    hrefs, bases, kinds = (list(c) for c in zip(*rows))
    batch = pa.table({
        "href": hrefs, "norm_href": hrefs, "kind": kinds, "source_url": bases,
        "source_uq_id": ["s"] * n,
        "source_wavepos": pa.array(np.arange(n, dtype=np.int64)),
        "source_attr": pa.array(np.full(n, 10, np.int8)),
        "extract_idx": pa.array(np.zeros(n, np.int64)),
        "depth": pa.array(np.ones(n, np.int32)),
    })

    def mk():
        return CandidateGauntlet(robots, "a.test", **cfg)

    got, want = mk()(batch), mk()._call_rows(batch)
    for name in want.column_names:
        assert got[name].to_pylist() == want[name].to_pylist(), (name, rows)


_rule_chars = st.sampled_from(list("/ab.*?K") + ["é", "İ", "K"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["Allow", "Disallow"]),
                          st.lists(_rule_chars, min_size=1, max_size=6).map("".join),
                          st.sampled_from(["", "$"])),
                max_size=5),
       st.lists(st.tuples(st.sampled_from(["", "https://h.test", "http://h.test/x?y=/"]),
                          st.lists(st.sampled_from(list("/abAB.?*K$") + ["é", "İ", ".js"]),
                                   max_size=8).map("".join)).map("".join),
                min_size=1, max_size=12))
def test_robots_allowed_mask_matches_is_allowed(rules, urls):
    """Rules compiled to RE2 (and the scalar `$`+`*` matcher) decide every
    URL exactly as `RobotsRules.is_allowed`."""
    import pyarrow as pa

    from siteone_crawler_ray.functions.robots import parse_robots

    r = parse_robots("User-agent: *\n" + "".join(f"{k}: {p}{e}\n" for k, p, e in rules))
    got = r.allowed_mask(pa.array(urls, pa.string()))
    assert list(got) == [r.is_allowed(u) for u in urls], (r, urls)
