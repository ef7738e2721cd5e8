"""HTML→Markdown converter."""

from __future__ import annotations

from siteone_crawler_ray.functions.html_markdown import html_to_markdown


def test_markdown_headings_links_images():
    html = ("<html><head><title>x</title><script>bad()</script></head><body>"
            "<h1>Main</h1><p>Hello <b>world</b> and <a href='/y'>link</a>.</p>"
            "<img src='/i.png' alt='pic'>"
            "<h2>Sub</h2><ul><li>one</li><li>two</li></ul>"
            "<blockquote>quoted</blockquote>"
            "<pre>code block</pre></body></html>")
    md = html_to_markdown(html)
    assert "# Main" in md and "## Sub" in md
    assert "**world**" in md and "[link](/y)" in md
    assert "![pic](/i.png)" in md
    assert "- one" in md and "- two" in md
    assert "> quoted" in md
    assert "```\ncode block\n```" in md
    assert "bad()" not in md  # scripts stripped


def test_markdown_tables_and_entities():
    # reference pads columns to max width, min 3 (html_to_markdown.rs:962-985)
    html = ("<table><tr><th>A</th><th>B</th></tr>"
            "<tr><td>1</td><td>2 &amp; 3</td></tr></table>")
    md = html_to_markdown(html)
    assert "| A   | B     |" in md
    assert "| --- | ----- |" in md
    assert "| 1   | 2 & 3 |" in md


def test_markdown_aria_hidden_and_comments_stripped():
    html = "<span aria-hidden=\"true\">hidden</span><!-- c -->visible"
    md = html_to_markdown(html)
    assert "hidden" not in md and "visible" in md
