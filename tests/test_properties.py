"""Property-based invariants (hypothesis) for the URL kernels.

The reference relies on these implicitly (every URL passes through the
canonicalizer multiple times — at discovery, at enqueue, at fetch);
idempotence and stability are what make the seen-set keys well-defined.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siteone_crawler_ray.functions import urls as U
from siteone_crawler_ray.functions.hashing import xxh64, xxh64_strings

import numpy as np
import pyarrow as pa


def _kernel(hrefs: list, bases: list) -> list:
    """The column canonicalizer's answers (None = left to the scalar path)."""
    return U.canonicalize_pairs(pa.array(hrefs, pa.string()), pa.array(bases, pa.string())).to_pylist()

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


# The fast path is the column kernel: wherever it renders a row (rather
# than leaving it to the scalar path) its answer is canonicalize's.
def _fast_agrees(href: str, base: str) -> None:
    fast = _kernel([href], [base])[0]
    if fast is not None:
        assert fast == U.canonicalize(href, base), (href, base, fast)


@settings(max_examples=500, deadline=None)
@given(
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=30),
    absolute_urls(),
)
def test_canonicalize_fast_matches_full(href, base):
    """Arbitrary printable hrefs: the kernel's rendered answers equal
    the full canonicalizer's."""
    _fast_agrees(href, base)


@settings(max_examples=300, deadline=None)
@given(_paths, _queries, absolute_urls())
def test_canonicalize_fast_applies_to_clean_paths(path, query, base):
    _fast_agrees(path + query, base)


@settings(max_examples=300, deadline=None)
@given(absolute_urls())
def test_canonicalize_fast_absolute_branch(url):
    """Already-canonical absolute URLs agree with the full
    canonicalizer whenever the kernel renders them."""
    _fast_agrees(url, "https://other.test/base")


@settings(max_examples=300, deadline=None)
@given(
    absolute_urls().map(lambda u: u.upper()),
    st.sampled_from(["", "#Frag", "?", "&"]),
    absolute_urls(),
)
def test_canonicalize_fast_anycase_absolute_matches_full(url, suffix, base):
    """Upper-case scheme/host absolutes, bare or with a fragment, a
    bare query or a trailing "&", agree with the full canonicalizer."""
    _fast_agrees(url + suffix, base)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["HTTP", "HtTpS", "https", "HTTPS"]),
    st.sampled_from(["A.TEST", "a.test", "USER@a.test", "a.test:8080",
                     "a.test:443", "a.test:80", "É.test", "WWW.B.Test"]),
    st.sampled_from(["/p", "/p/Q?x=1", "", "/p#F", "/p?"]),
    absolute_urls(),
)
def test_canonicalize_fast_anycase_edge_shapes(scheme, authority, rest, base):
    """Ports, userinfo, IDN and bare-origin shapes with any-case
    schemes agree with the full canonicalizer whenever the kernel
    renders them."""
    _fast_agrees(f"{scheme}://{authority}{rest}", base)


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


def test_malformed_and_zero_padded_ports():
    """Malformed ports must DROP (not crash) through every path, and
    zero-padded default ports must not diverge between the column
    kernels and the full canonicalizer."""
    assert U.canonicalize("https://a.test:9x/p", "https://a.test/") is None
    assert U.canonicalize_urls(["https://a.test:9x/p"])[0] is None
    assert U.render_canonical("https://a.test:9x/p") is None
    for u in ("http://a.test:0080/p", "https://a.test:0443/p",
              "http://a.test:08080/p", "https://a.test:000/p"):
        full = U.canonicalize(u, u)
        kern = _kernel([u], [u])[0]
        assert kern is None or kern == full, (u, kern, full)
        assert U.canonicalize_urls([u])[0] == full, u
    # path-absolute against a zero-padded-port base is left to the scalar path
    assert _kernel(["/x"], ["https://a.test:0443/p"]) == [None]
    # normal explicit ports render
    assert _kernel(["http://a.test:8080/p"], ["x"]) == ["http://a.test:8080/p"]


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
    kern = _kernel([href], ["https://x.test/b"])[0]
    if kern is not None:
        assert kern == U.canonicalize(href, "https://x.test/b"), href
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
    # clean path-absolute hrefs with queries
    st.tuples(_paths, _queries).map("".join),
    # upper-case absolutes, bare or with a fragment / bare query / trailing "&"
    st.tuples(absolute_urls().map(str.upper),
              st.sampled_from(["", "#Frag", "?", "&"])).map("".join),
    # any-case scheme with port, userinfo, IDN and bare-origin authorities
    st.tuples(st.sampled_from(["HTTP", "HtTpS", "https", "HTTPS"]),
              st.sampled_from(["A.TEST", "a.test", "USER@a.test", "a.test:8080",
                               "a.test:443", "a.test:80", "É.test", "WWW.B.Test"]),
              st.sampled_from(["/p", "/p/Q?x=1", "", "/p#F", "/p?"])).map(
        lambda t: f"{t[0]}://{t[1]}{t[2]}"),
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
    hrefs, bases = (list(c) for c in zip(*pairs))
    for h, b, c in zip(hrefs, bases, _kernel(hrefs, bases)):
        if c is not None:
            assert c == U.canonicalize(h, b), (h, b, c)


@pytest.mark.parametrize("href, base, want", [
    ("/a?b=1", "https://x.test/p", "https://x.test/a?b=1"),
    ("HTTPS://a.test/p", "https://b.test/x", "https://a.test/p"),
    ("https://a.test/p?a=1", "https://b.test/x", "https://a.test/p?a=1"),
    ("http://a.test:8080/p", "https://b.test/x", "http://a.test:8080/p"),
    ("https://a.test/p/1#frag", "https://b.test/p/11560", "https://a.test/p/1"),
    ("//c.test/p/2", "https://b.test/p/11560", "https://c.test/p/2"),
    ("./26317", "https://b.test/p/11560", "https://b.test/p/26317"),
    ("26317", "https://b.test/p/11560", "https://b.test/p/26317"),
    ("a/b?q=1", "https://b.test/p/11560", "https://b.test/p/a/b?q=1"),
    ("sub/page", "https://b.test/p/11560", "https://b.test/p/sub/page"),
])
def test_canonicalize_pairs_renders_common_shapes(href, base, want):
    """The dominant crawl href shapes (path-absolute with a query,
    any-case and fragment-suffixed absolutes, explicit ports,
    protocol-relative, bare and ``./`` relatives) are rendered by the
    column kernel, as the full canonicalizer renders them."""
    assert _kernel([href], [base]) == [want]
    assert U.canonicalize(href, base) == want


# the full canonicalizer's answers on shapes normalize/join/render alter
_SCALAR_ANSWERS = {
    ("/a?b=1&", "https://x.test/p"): "https://x.test/a?b=1",
    ("/a/..", "https://x.test/p"): "https://x.test/",
    ("/a/.", "https://x.test/p"): "https://x.test/a/",
    ("/a?", "https://x.test/p"): "https://x.test/a",
}


@pytest.mark.parametrize("href, base", [
    *_SCALAR_ANSWERS,
    # dot segments (urljoin resolves them)
    ("/a/../b", "https://x.test/p"), ("/a/./b", "https://x.test/p"), ("/.", "https://x.test/p"),
    # any-case absolutes; default port, no path, dot segments, bare
    # query and entities
    ("HtTpS://A.TEST/p?q=Mixed", "https://b.test/x"), ("HTTP://a.test/p#Frag", "https://b.test/x"),
    ("HTTPS://USER@a.test/p", "https://b.test/x"), ("https://a.test:443/p", "https://b.test/x"),
    ("https://a.test", "https://b.test/x"), ("https://a.test/a/../b", "https://b.test/x"),
    ("https://a.test/p?", "https://b.test/x"), ("https://a.test/p?a=1&amp;b=2", "https://b.test/x"),
    ("https://a.test#f", "https://b.test/x"),
    # relatives with strip chars, parent segments, colons, spaces, encodings
    ("//c.test/p#f&", "https://b.test/p/11560"), ("../up", "https://b.test/p/11560"),
    ("a:b", "https://b.test/p/11560"), ("a b", "https://b.test/p/11560"),
    ("x?", "https://b.test/p/11560"), ("a%20b", "https://b.test/p/11560"),
    ("./", "https://b.test/p/11560"), ("a/./b", "https://b.test/p/11560"),
    ("a", "https://b.test/p?x=1"),
    # relative "//" collapse and trailing empty params ";"; non-empty
    # params survive
    ("0//", "http://a.test/"), ("a//b", "http://a.test/"), ("/;", "http://a.test/"),
    ("/x;", "http://a.test/"), ("/x;?q=1", "http://a.test/"), ("//a.test/;", "http://x.test/"),
    ("http://a.test/x;", "http://x.test/"), ("/;x", "http://a.test/"),
    ("http://a.test/a;b", "http://x.test/"),
])
def test_canonicalize_pairs_declines_or_agrees(href, base):
    """On shapes the scalar path alters (or the kernel does not model),
    the column kernel either leaves the row to ``canonicalize`` or
    gives its answer."""
    got = _kernel([href], [base])[0]
    assert got is None or got == U.canonicalize(href, base), (href, base, got)
    if (href, base) in _SCALAR_ANSWERS:
        assert U.canonicalize(href, base) == _SCALAR_ANSWERS[href, base]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_hrefs, _bases, st.sampled_from(["link", "img"])),
                min_size=1, max_size=16),
       st.sampled_from([{}, {"remove_query_params": True}, {"keep_query_params": ("a",)},
                        {"allowed_domains_crawl": ("*.b.test",), "max_url_length": 40}]))
def test_gauntlet_call_matches_scalar_rows(rows, cfg):
    """Random href/base batches: the gauntlet's column path returns the
    same table as the one built from the scalar `_decide_rows`."""
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


def test_graph_corpus_spans_never_reach_the_scalar_fallback():
    """Every link shape the corpus generator draws (the eight
    ``_href_form`` forms, cross-host, duplicate and invalid links,
    assets, an over-length path) goes through ``explode_spans`` into the
    gauntlet's column kernels: no row takes the scalar fallback, and the
    table equals the scalar reference's (`_call_rows`)."""
    from siteone_crawler_ray.functions.robots import RobotsIndex
    from siteone_crawler_ray.sources.corpus import host_name, make_graph_corpus
    from siteone_crawler_ray.stages.extract import CandidateGauntlet, explode_spans

    tabs = make_graph_corpus(seed=5, hosts=4, total_pages=300)
    docs = tabs["documents"]
    n = docs.num_rows
    pages = docs.append_column("uq_id", docs["doc_id"]).append_column(
        "wavepos", pa.array(np.arange(n, dtype=np.int64))).append_column(
        "depth", pa.array(np.zeros(n, np.int32)))
    spans = explode_spans(pages)
    hrefs = spans["href"].to_pylist()
    # the eight forms: absolute and path-absolute (plain), protocol-
    # relative, dot-relative, entity-encoded query, upper-case
    # scheme/host, quoted, fragment-suffixed
    for shape in (lambda h: h.startswith("https://"), lambda h: h.startswith("/p/"),
                  lambda h: h.startswith("//"), lambda h: h.startswith("./"),
                  lambda h: "&amp;" in h, lambda h: h.startswith("HTTPS://"),
                  lambda h: h.startswith('"'), lambda h: h.endswith("#frag")):
        assert any(shape(h) for h in hrefs)
    robots = RobotsIndex.from_bodies(dict(zip(tabs["robots"]["host"].to_pylist(),
                                              tabs["robots"]["body"].to_pylist())))
    g = CandidateGauntlet(robots, host_name(0))
    got = g(spans)
    assert g.last_fallback_rows == 0
    want = g._call_rows(spans)
    assert got.num_rows > 0
    for name in want.column_names:
        assert got[name].to_pylist() == want[name].to_pylist(), name


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
    from siteone_crawler_ray.functions.robots import parse_robots

    r = parse_robots("User-agent: *\n" + "".join(f"{k}: {p}{e}\n" for k, p, e in rules))
    got = r.allowed_mask(pa.array(urls, pa.string()))
    assert list(got) == [r.is_allowed(u) for u in urls], (r, urls)
