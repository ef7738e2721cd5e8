"""DOM-fidelity HTML→Markdown fixtures — behaviors ported from the
reference converter (/root/reference/src/export/utils/html_to_markdown.rs)
and its CLI fixtures (/root/reference/tests/integration_crawl.rs:517-720)."""

from __future__ import annotations

from siteone_crawler_ray.functions.html_markdown import (
    HtmlToMarkdown,
    html_to_markdown,
)


def test_basic_conversion_fixture():
    # integration_crawl.rs:517-536
    html = ("<html><body><h1>Hello World</h1><p>Paragraph with "
            "<strong>bold</strong> text.</p>"
            "<ul><li>Item 1</li><li>Item 2</li></ul></body></html>")
    md = html_to_markdown(html)
    assert "# Hello World" in md
    assert "**bold**" in md
    assert "- Item 1" in md and "- Item 2" in md


def test_disable_images():
    # integration_crawl.rs:585-605
    conv = HtmlToMarkdown("<body><h1>Title</h1><img src='photo.jpg' alt='Photo'><p>Text</p></body>")
    conv.include_images = False
    md = conv.get_markdown()
    assert "photo.jpg" not in md and "# Title" in md and "Text" in md
    # alt text survives as plain text
    assert "Photo" in md


def test_links_preserved_with_schemes():
    # integration_crawl.rs:607-630: original hrefs preserved incl. tel:
    html = ('<body><a href="/about.html">About</a>'
            '<a href="https://example.com">External</a>'
            '<a href="tel:+420123456">Call</a></body>')
    md = html_to_markdown(html)
    assert "[About](/about.html)" in md
    assert "[External](https://example.com)" in md
    assert "[Call](tel:+420123456)" in md


def test_nested_and_ordered_lists():
    html = ("<ol start='3'><li>three<ul><li>sub a</li><li>sub b</li></ul></li>"
            "<li>four</li></ol>")
    md = html_to_markdown(html)
    assert "3. three" in md and "4. four" in md
    # reference quirk (html_to_markdown.rs:1152-1158): the nested block is
    # trimmed before re-attachment, so the FIRST nested item loses its
    # indent while subsequent ones keep it
    assert "- sub a" in md and "    - sub b" in md


def test_code_block_language_and_inline_backticks():
    md = html_to_markdown("<pre><code class='language-python'>print('x')</code></pre>")
    assert "```python\nprint('x')\n```" in md
    md = html_to_markdown("<p>use <code>a`b</code> here</p>")
    assert "``a`b``" in md


def test_blockquote_multiline_and_hr():
    md = html_to_markdown("<blockquote><p>line one</p><p>line two</p></blockquote><hr>")
    assert "> line one" in md and "> line two" in md
    assert "* * *" in md


def test_thead_table_and_pipe_escaping():
    html = ("<table><thead><tr><th>Name</th><th>Val</th></tr></thead>"
            "<tbody><tr><td>a|b</td><td>2</td></tr></tbody></table>")
    md = html_to_markdown(html)
    assert "| Name | Val |" in md
    # '|' is escaped twice (escape_markdown_chars + table-cell escape),
    # matching the reference's double pass
    assert "a\\\\|b" in md


def test_excluded_selectors_and_implicit_hidden():
    html = ('<body><div class="cookie-banner">cookies!</div>'
            '<div aria-hidden="true">invisible</div>'
            '<nav role="menu"><a href="/m">m</a></nav>'
            '<div class="custom-strip">custom</div>'
            "<p>real content</p></body>")
    md = html_to_markdown(html, excluded_selectors=(".custom-strip",))
    assert "cookies!" not in md
    assert "invisible" not in md
    assert "custom" not in md
    assert "real content" in md


def test_consecutive_links_become_table_row():
    # html_to_markdown.rs:446-520: ≥2 adjacent links → single-row table
    html = ('<p><a href="/a">Alpha</a> <a href="/b">Beta</a> <a href="/c">Gamma</a></p>')
    md = html_to_markdown(html)
    assert "| [Alpha](/a) | [Beta](/b) | [Gamma](/c) |" in md


def test_block_dedup_keeps_longer():
    # html_to_markdown.rs:168-208: duplicate fingerprints collapse
    html = "<p>Repeated block</p><div><p>Repeated block</p></div><p>Unique</p>"
    md = html_to_markdown(html)
    assert md.count("Repeated block") == 1
    assert "Unique" in md


def test_strikethrough_sup_sub():
    md = html_to_markdown("<p><del>old</del> x<sup>2</sup> H<sub>2</sub>O</p>")
    assert "~~old~~" in md and "^2^" in md and "~2~" in md


def test_link_aria_label_and_title():
    md = html_to_markdown('<a href="/x" aria-label="Label here"><img src=""></a>')
    assert "[Label here](/x)" in md
    md = html_to_markdown('<a href="/x" title="Tip">Text</a>')
    assert '[Text](/x "Tip")' in md


def test_heading_strips_markdown_chars_and_escape_roundtrip():
    # delimiters injected by em/strong conversion are stripped from
    # headings (html_to_markdown.rs:549-575)
    md = html_to_markdown("<h2>Big <em>sale</em></h2>")
    assert "## Big sale" in md
    # post_process unescapes \. and \- (html_to_markdown.rs:221-233)
    md = html_to_markdown("<p>v1.2-beta</p>")
    assert "v1.2-beta" in md


def test_markdown_postprocess_options():
    """--markdown-* post passes (markdown_exporter.rs:175-420,572-627)."""
    from siteone_crawler_ray.functions.markdown_post import (
        MarkdownPostOptions,
        extract_regex_pattern,
        is_regex_pattern,
        postprocess_markdown,
    )

    assert is_regex_pattern("/abc/i") and is_regex_pattern("~x~")
    assert not is_regex_pattern("abc") and not is_regex_pattern("/abc")
    assert extract_regex_pattern("/foo\\d+/i") == "(?i)foo\\d+"

    md = "intro ![logo](l.png) text [doc](file.pdf) [page](p.html) [m](mailto:a@b)"
    out = postprocess_markdown(md, MarkdownPostOptions(disable_images=True))
    assert "![" not in out and "[doc](file.pdf)" in out
    out = postprocess_markdown(md, MarkdownPostOptions(disable_files=True))
    assert "[doc](file.pdf)" not in out
    assert "[page](p.html)" in out and "[m](mailto:a@b)" in out
    # ignore-regex exempts a URL from file stripping
    out = postprocess_markdown(
        md, MarkdownPostOptions(disable_files=True, ignore_regexes=(r"\.pdf$",)))
    assert "[doc](file.pdf)" in out

    out = postprocess_markdown(
        "foo1 bar foo22",
        MarkdownPostOptions(replace_content=("/foo\\d+/ -> X", "bar -> baz")))
    assert out == "X baz X"

    moved = postprocess_markdown(
        "intro text\n\n# Title\n\nbody",
        MarkdownPostOptions(move_content_before_h1_to_end=True))
    assert moved == "# Title\n\nbody\n\n---\n\nintro text"
    # nothing before the main heading → unchanged
    same = "# Title\n\nbody"
    assert postprocess_markdown(
        same, MarkdownPostOptions(move_content_before_h1_to_end=True)) == same


def test_cli_html_to_markdown_mode(tmp_path):
    """Standalone --html-to-markdown conversion (main.rs:97-135): no
    corpus, no Ray; honors the --markdown-* options."""
    from siteone_crawler_ray.cli import main

    src = tmp_path / "page.html"
    src.write_text(
        "<html><body><p>before</p><h1>Title</h1>"
        "<p>Hello <b>world</b> ![x] <img src='i.png' alt='pic'></p>"
        "<div class='ads'>buy now</div></body></html>"
    )
    out = tmp_path / "page.md"
    rc = main([
        "--html-to-markdown", str(src),
        "--html-to-markdown-output", str(out),
        "--markdown-disable-images",
        "--markdown-exclude-selector", ".ads",
        "--markdown-move-content-before-h1-to-end",
    ], init_ray=False)
    assert rc == 0
    md = out.read_text()
    assert "# Title" in md and "Hello **world**" in md
    assert "buy now" not in md          # excluded selector
    assert "](i.png)" not in md         # images disabled
    assert md.index("# Title") < md.index("before")  # moved behind H1
    # missing input file → exit 1
    assert main(["--html-to-markdown", str(tmp_path / "nope.html")],
                init_ray=False) == 1
