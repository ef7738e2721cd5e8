"""HTML → Markdown conversion for live-HTML bodies.

DOM-walking behavioral port of the reference converter
(/root/reference/src/export/utils/html_to_markdown.rs:42-1185) on top
of the stdlib ``html.parser`` (no external HTML library in this
environment):

- tag dispatch (convert_node, :354-446): headings, p/br/hr,
  strong/em/strike, links (aria-label/title fallbacks), images,
  inline code (backtick-fence escaping), pre blocks (language from
  class), nested ul/ol (start= offsets), blockquote, tables (padded
  columns, thead/th detection), dl/dt/dd, sup/sub, ignored form/head
  elements, block containers
- excluded selectors (:317-352) incl. the implicit hidden/cookie/
  aria-hidden list (:46-71)
- consecutive-link collapsing into single-row tables (:446-520, 931)
- block-level dedup by alphanumeric fingerprint (:146-220)
- whitespace normalization + post-processing (:221-233, 1167-1185)
- large link-list → <details> accordion (:235-300)

One pure function per row inside ``map_batches``."""

from __future__ import annotations

import re
from html.parser import HTMLParser

_VOID_TAGS = {"br", "hr", "img", "meta", "link", "input", "area", "base", "col",
              "embed", "source", "track", "wbr"}
# tags whose open implicitly closes a same-name predecessor
_AUTO_CLOSE = {"li": {"li"}, "p": {"p"}, "tr": {"tr", "td", "th"},
               "td": {"td", "th"}, "th": {"td", "th"}, "option": {"option"},
               "dt": {"dt", "dd"}, "dd": {"dt", "dd"}}

_IGNORED_TAGS = {"form", "fieldset", "legend", "label", "dialog", "button", "input",
                 "select", "textarea", "script", "style", "noscript", "head", "meta",
                 "link", "iframe", "frame"}
_BLOCK_CONTAINERS = {"nav", "header", "footer", "aside", "article", "section", "main",
                     "figure", "figcaption", "div"}
_UNWANTED_TAGS = {"script", "style", "noscript", "head", "meta", "link", "iframe", "frame"}

# implicit excluded selectors (html_to_markdown.rs:46-71)
IMPLICIT_EXCLUDED_SELECTORS = (
    ".hidden", ".hide", ".invisible", ".lg:sl-hidden", ".md:sl-hidden",
    ".lg:hidden", ".md:hidden", "[aria-hidden='true']", "[role='menu']",
    ".cookie-panel", ".cookie-banner", ".cookie-consent", ".cookie-notice",
    ".cookie-bar", "#cookie-banner", "#cookie-consent", "#cookie-notice",
    "#cookiebanner", "#CybotCookiebotDialog", ".cc-window", "#onetrust-banner-sdk",
)

_NON_ALNUM_RE = re.compile(r"[^a-z0-9]")
_WS_RE = re.compile(r"\s+")
_TRIPLE_NL_RE = re.compile(r"\n{3,}")
_TRAIL_WS_RE = re.compile(r"[ \t]+$", re.M)
_POST_UNESCAPE_RE = re.compile(r"\\([.\-])")
_CODE_WRAP_RE = re.compile(r"(\\)(\s{2,})")


class _Node:
    __slots__ = ("tag", "attrs", "children", "parent", "text")

    def __init__(self, tag: str | None, attrs: dict | None = None, text: str | None = None):
        self.tag = tag          # None → text node
        self.attrs = attrs or {}
        self.children: list[_Node] = []
        self.parent: _Node | None = None
        self.text = text

    def attr(self, name: str) -> str | None:
        return self.attrs.get(name)

    def descendants(self):
        for c in self.children:
            yield c
            yield from c.descendants()


class _DomBuilder(HTMLParser):
    """Tolerant DOM builder: auto-closes per _AUTO_CLOSE, ignores stray
    end tags, treats void tags as self-closing."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root")
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        closers = _AUTO_CLOSE.get(tag)
        if closers:
            while len(self.stack) > 1 and self.stack[-1].tag in closers:
                self.stack.pop()
        node = _Node(tag, dict(attrs))
        node.parent = self.stack[-1]
        self.stack[-1].children.append(node)
        if tag not in _VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        node = _Node(tag, dict(attrs))
        node.parent = self.stack[-1]
        self.stack[-1].children.append(node)

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # stray end tag → ignore

    def handle_data(self, data):
        if data:
            node = _Node(None, text=data)
            node.parent = self.stack[-1]
            self.stack[-1].children.append(node)

    # comments / declarations dropped


def _parse_dom(html: str) -> _Node:
    b = _DomBuilder()
    try:
        b.feed(html)
        b.close()
    except Exception:
        pass
    return b.root


def _matches_selector(node: _Node, sel: str) -> bool:
    """Simple selector subset: tag, .class, #id, [attr='value']."""
    if node.tag is None:
        return False
    if sel.startswith("."):
        classes = (node.attr("class") or "").split()
        return sel[1:] in classes
    if sel.startswith("#"):
        return node.attr("id") == sel[1:]
    m = re.fullmatch(r"\[([a-zA-Z-]+)=['\"]?([^'\"\]]*)['\"]?\]", sel)
    if m:
        return node.attr(m.group(1).lower()) == m.group(2)
    return node.tag == sel.lower()


class HtmlToMarkdown:
    """Reference-shaped converter (html_to_markdown.rs:42-143 options)."""

    def __init__(self, html: str, excluded_selectors: tuple[str, ...] = ()):
        self.html = html
        self.excluded_selectors = tuple(excluded_selectors) + IMPLICIT_EXCLUDED_SELECTORS
        self.strong_delimiter = "**"
        self.em_delimiter = "*"
        self.bullet_list_marker = "-"
        self.code_block_fence = "```"
        self.horizontal_rule = "* * *"
        self.escape_mode = True
        self.include_images = True
        self.convert_tables = True
        self.convert_strikethrough = True
        self.strikethrough_delimiter = "~~"

    # ---- entry ----
    def get_markdown(self) -> str:
        root = _parse_dom(self.html)
        excluded: set[int] = set()
        for sel in self.excluded_selectors:
            for n in root.descendants():
                if _matches_selector(n, sel):
                    excluded.add(id(n))
                    for d in n.descendants():
                        excluded.add(id(d))
        for n in root.descendants():
            if n.tag in _UNWANTED_TAGS:
                excluded.add(id(n))
                for d in n.descendants():
                    excluded.add(id(d))

        start = root
        for n in root.descendants():
            if n.tag == "body":
                start = n
                break
        raw = self._convert_node(start, excluded)
        normalized = self._normalize_whitespace(raw)

        # block-level dedup by alnum fingerprint (keep the longer)
        blocks = normalized.split("\n\n")
        if len(blocks) <= 1:
            return self._post_process(normalized.strip())
        fingerprints: dict[str, tuple[str, int]] = {}
        unique: list[tuple[int, str]] = []
        for idx, block in enumerate(blocks):
            trimmed = block.strip()
            if not trimmed:
                unique.append((idx, block))
                continue
            fp = _NON_ALNUM_RE.sub("", trimmed.lower())
            if not fp:
                unique.append((idx, block))
                continue
            if fp in fingerprints:
                existing_block, existing_idx = fingerprints[fp]
                if len(trimmed) > len(existing_block.strip()):
                    unique = [(i, b) for i, b in unique if i != existing_idx]
                    unique.append((idx, block))
                    fingerprints[fp] = (block, idx)
            else:
                fingerprints[fp] = (block, idx)
                unique.append((idx, block))
        unique.sort(key=lambda x: x[0])
        return self._post_process("\n\n".join(b for _, b in unique))

    # ---- dispatch (convert_node) ----
    def _convert_node(self, node: _Node, excluded: set[int]) -> str:
        if id(node) in excluded:
            return ""
        if node.tag is None:
            text = node.text or ""
            if node.parent is not None and node.parent.tag in ("code", "pre"):
                return text
            return self._escape(text)
        tag = node.tag
        if tag in ("strong", "b"):
            return self._wrap(self._collapse(self._inner(node, excluded)), self.strong_delimiter)
        if tag in ("em", "i"):
            return self._wrap(self._collapse(self._inner(node, excluded)), self.em_delimiter)
        if tag in ("h1", "h2", "h3", "h4", "h5", "h6"):
            return self._heading(node, excluded)
        if tag == "p":
            inner = self._inner(node, excluded).strip()
            return f"\n\n{inner}\n\n" if inner else ""
        if tag == "br":
            return "  \n"
        if tag == "hr":
            return f"\n\n{self.horizontal_rule}\n\n"
        if tag == "a":
            return self._link(node, excluded)
        if tag == "img":
            return self._image(node)
        if tag == "code":
            return self._inline_code(node)
        if tag == "pre":
            return self._code_block(node)
        if tag in ("ul", "ol"):
            md = self._process_list(node, 0, excluded).strip()
            return f"\n\n{md}\n\n" if md else ""
        if tag == "blockquote":
            return self._blockquote(node, excluded)
        if tag == "table":
            return self._table(node, excluded)
        if tag in ("s", "del", "strike"):
            if not self.convert_strikethrough:
                return self._inner(node, excluded)
            return self._wrap(self._collapse(self._inner(node, excluded)),
                              self.strikethrough_delimiter)
        if tag == "dl":
            return self._definition_list(node, excluded)
        if tag in ("dt", "dd"):
            return self._inner(node, excluded)
        if tag == "sup":
            return f"^{self._collapse(self._inner(node, excluded))}^"
        if tag == "sub":
            return f"~{self._collapse(self._inner(node, excluded))}~"
        if tag in _IGNORED_TAGS:
            return ""
        if tag in _BLOCK_CONTAINERS:
            inner = self._inner(node, excluded).strip()
            return f"\n\n{inner}\n\n" if inner else ""
        return self._inner(node, excluded)

    # ---- inner walk with consecutive-link collapsing ----
    def _inner(self, node: _Node, excluded: set[int]) -> str:
        md = []
        consecutive: list[_Node] = []

        def flush():
            if len(consecutive) >= 2:
                md.append(self._links_to_table(consecutive, excluded))
            elif len(consecutive) == 1:
                md.append(self._link(consecutive[0], excluded))
            consecutive.clear()

        for child in node.children:
            if id(child) in excluded:
                continue
            if self._is_valid_link(child):
                consecutive.append(child)
                continue
            if child.tag is None and not (child.text or "").strip() and consecutive:
                continue  # whitespace between links
            flush()
            converted = self._convert_node(child, excluded)
            prev = md[-1] if md else ""
            if prev and prev[-1:].isalnum() and converted[:1].isalnum():
                md.append(" ")
            md.append(converted)
        flush()
        return "".join(md)

    def _is_valid_link(self, node: _Node) -> bool:
        if node.tag != "a":
            return False
        href = node.attr("href")
        if not href:
            return False
        text = self._text_content(node).strip()
        has_image = any(d.tag == "img" for d in node.descendants())
        return bool(text) or has_image

    def _text_content(self, node: _Node) -> str:
        out = []
        for d in node.descendants():
            if d.tag is None:
                if d.parent is not None and d.parent.tag in ("style", "script", "noscript"):
                    continue
                out.append(d.text or "")
        return "".join(out)

    def _collapse(self, text: str) -> str:
        text = text.replace("&nbsp;", " ").replace("\u00a0", " ")
        return _WS_RE.sub(" ", text).strip()

    # ---- element converters ----
    def _heading(self, node: _Node, excluded: set[int]) -> str:
        level = int(node.tag[1])
        content = self._collapse(self._inner(node, excluded))
        content = re.sub(r"[#*_`\[\]]", "", content).strip()
        if not content:
            return ""
        return f"\n\n{'#' * level} {content}\n\n"

    def _link(self, node: _Node, excluded: set[int]) -> str:
        href = node.attr("href") or ""
        if not href:
            return self._inner(node, excluded)
        text = self._collapse(self._inner(node, excluded))
        if not text:
            label = (node.attr("aria-label") or "").strip()
            text = label or href
        title = node.attr("title") or ""
        md = f"[{text}]({href}"
        if title:
            md += f' "{self._escape(title)}"'
        return md + ")"

    def _image(self, node: _Node) -> str:
        if not self.include_images:
            alt = node.attr("alt") or ""
            return self._escape(alt) if alt else ""
        alt = self._collapse(node.attr("alt") or "")
        src = node.attr("src") or ""
        title = self._escape(node.attr("title") or "")
        if not src:
            return ""
        md = f"![{alt}]({src}"
        if title:
            md += f' "{title}"'
        return f"\n\n{md})\n\n"

    def _inline_code(self, node: _Node) -> str:
        code = self._text_content(node)
        trimmed = code.strip()
        max_bt = cur = 0
        for ch in code:
            cur = cur + 1 if ch == "`" else 0
            max_bt = max(max_bt, cur)
        fence = "`" * (max_bt + 1)
        pre = " " if trimmed.startswith("`") else ""
        suf = " " if trimmed.endswith("`") else ""
        return f"{fence}{pre}{trimmed}{suf}{fence}"

    def _code_block(self, node: _Node) -> str:
        code_node = next((d for d in node.descendants() if d.tag == "code"), None)
        code = self._text_content(code_node) if code_node is not None else self._text_content(node)
        code = code.strip("\n\r")
        code = _CODE_WRAP_RE.sub(lambda m: m.group(1) + "\n" + m.group(2), code)
        language = ""
        class_val = node.attr("class") or (code_node.attr("class") if code_node is not None else None)
        if class_val:
            for cls in class_val.split():
                if cls.startswith("language-"):
                    language = cls[len("language-"):]
                    break
                if cls.startswith("lang-"):
                    language = cls[len("lang-"):]
                    break
        language = re.sub(r"[\s`]", "", language)
        return f"\n\n{self.code_block_fence}{language}\n{code}\n{self.code_block_fence}\n\n"

    def _blockquote(self, node: _Node, excluded: set[int]) -> str:
        content = self._inner(node, excluded).strip()
        if not content:
            return ""
        quoted = "\n".join(f"> {line}" for line in content.splitlines())
        return f"\n\n{quoted.rstrip()}\n\n"

    # ---- tables ----
    def _table(self, node: _Node, excluded: set[int]) -> str:
        if not self.convert_tables:
            return f"\n\n{self._text_content(node).strip()}\n\n"
        header_cells: list[str] = []
        rows: list[list[str]] = []
        max_len: list[int] = []
        has_header = False

        def cell_width(i: int, content: str):
            while len(max_len) <= i:
                max_len.append(0)
            max_len[i] = max(max_len[i], len(content))

        for child in node.children:
            if child.tag == "thead":
                for tr in child.children:
                    if tr.tag == "tr":
                        has_header = True
                        ci = 0
                        for cell in tr.children:
                            if cell.tag in ("th", "td"):
                                content = self._header_content(cell, excluded)
                                cell_width(ci, content)
                                header_cells.append(content)
                                ci += 1
                        break

        trs: list[_Node] = []
        for child in node.children:
            if child.tag == "tbody":
                trs.extend(c for c in child.children if c.tag == "tr")
            elif child.tag == "tr":
                trs.append(child)

        for tr in trs:
            if not has_header and not rows:
                potential, is_header = [], False
                for cell in tr.children:
                    if cell.tag in ("th", "td"):
                        if cell.tag == "th":
                            is_header = True
                        content = self._header_content(cell, excluded)
                        cell_width(len(potential), content)
                        potential.append(content)
                if is_header:
                    header_cells, has_header = potential, True
                    continue
            row = []
            for cell in tr.children:
                if cell.tag in ("th", "td"):
                    content = self._collapse(self._inner(cell, excluded))
                    cell_width(len(row), content)
                    row.append(content)
            while len(row) < len(max_len):
                row.append("")
            rows.append(row)

        if not header_cells and not rows:
            return ""
        num_cols = max([len(header_cells)] + [len(r) for r in rows]) if rows or header_cells else 0
        while len(max_len) < num_cols:
            max_len.append(0)
        max_len = [max(x, 3) for x in max_len]

        md = "\n\n"
        if header_cells:
            header_cells += [""] * (num_cols - len(header_cells))
            md += self._format_row(header_cells, max_len)
            md += self._format_separator(max_len)
        else:
            md += self._format_separator(max_len)
        for row in rows:
            row = row + [""] * (num_cols - len(row))
            md += self._format_row(row, max_len)
        return md.rstrip() + "\n\n"

    def _header_content(self, cell: _Node, excluded: set[int]) -> str:
        content = self._collapse(self._inner(cell, excluded))
        return content if content.strip() else self._collapse(self._text_content(cell))

    def _links_to_table(self, links: list[_Node], excluded: set[int]) -> str:
        cells, widths = [], []
        for ln in links:
            c = self._link(ln, excluded)
            if c:
                widths.append(max(len(c), 3))
                cells.append(c)
        if not cells:
            return ""
        return "\n\n" + self._format_row(cells, widths) + "\n"

    def _format_row(self, cells: list[str], widths: list[int]) -> str:
        row = "|"
        for i, cell in enumerate(cells):
            w = widths[i] if i < len(widths) else len(cell)
            pad = " " * max(0, w - len(cell))
            row += f" {cell.replace('|', chr(92) + '|')}{pad} |"
        return row + "\n"

    def _format_separator(self, widths: list[int]) -> str:
        return "|" + "".join(f" {'-' * max(w, 3)} |" for w in widths) + "\n"

    # ---- lists ----
    def _process_list(self, node: _Node, level: int, excluded: set[int]) -> str:
        md = []
        is_ordered = node.tag == "ol"
        counter = 1
        if is_ordered:
            start = node.attr("start")
            if start and start.isdigit() and int(start) > 1:
                counter = int(start)
        indent = "    " * level
        for child in node.children:
            if id(child) in excluded or child.tag != "li":
                continue
            if is_ordered:
                marker = f"{counter}."
                counter += 1
            else:
                marker = self.bullet_list_marker
            item, nested = self._li_data(child, level, excluded)
            lines = [ln for ln in item.strip().split("\n") if ln]
            first = lines[0] if lines else ""
            md.append(f"{indent}{marker} {first}\n")
            cont_indent = indent + " " * (len(marker) + 1)
            for line in lines[1:]:
                md.append(f"{cont_indent}{line}\n")
            if nested:
                md.append(nested + "\n")
        return "".join(md)

    def _li_data(self, li: _Node, level: int, excluded: set[int]) -> tuple[str, str]:
        item, nested = [], []
        for child in li.children:
            if id(child) in excluded:
                continue
            if child.tag in ("ul", "ol"):
                nested.append("\n" + self._process_list(child, level + 1, excluded))
            elif child.tag == "p":
                item.append(self._inner(child, excluded).strip() + "\n")
            else:
                item.append(self._convert_node(child, excluded))
        cleaned_item = "".join(item).strip()
        cleaned_nested = "".join(nested).strip()
        if cleaned_nested and cleaned_item:
            cleaned_nested = "\n" + cleaned_nested
        return cleaned_item, cleaned_nested

    def _definition_list(self, node: _Node, excluded: set[int]) -> str:
        out = []
        for child in node.children:
            if id(child) in excluded:
                continue
            if child.tag == "dt":
                out.append(f"\n**{self._collapse(self._inner(child, excluded))}**\n")
            elif child.tag == "dd":
                out.append(f": {self._collapse(self._inner(child, excluded))}\n")
        return "\n" + "".join(out) + "\n" if out else ""

    # ---- helpers ----
    def _wrap(self, text: str, delim: str) -> str:
        if not text.strip():
            return text
        return f"{delim}{text.strip()}{delim}"

    def _escape(self, text: str) -> str:
        if not self.escape_mode:
            return text
        result = text.replace("\\", "\\\\")
        for ch in "`*_{}[]()#+-.!|":
            result = result.replace(ch, f"\\{ch}")
        return result

    def _normalize_whitespace(self, text: str) -> str:
        text = text.replace("\r\n", "\n")
        text = _TRIPLE_NL_RE.sub("\n\n", text)
        return _TRAIL_WS_RE.sub("", text)

    def _post_process(self, markdown: str) -> str:
        return _POST_UNESCAPE_RE.sub(r"\1", markdown).strip()


def html_to_markdown(html: str, excluded_selectors: tuple[str, ...] = ()) -> str:
    md = HtmlToMarkdown(html, excluded_selectors).get_markdown()
    return md + "\n" if md and not md.endswith("\n") else md


def html_to_markdown_batch(batch, body_col: str = "body", url_col: str = "url"):
    """map_batches stage (CPU-heavy per reference; give it its own pool)."""
    import pyarrow as pa

    bodies = batch[body_col].to_numpy(zero_copy_only=False)
    urls = batch[url_col].to_numpy(zero_copy_only=False)
    out_u, out_md = [], []
    for u, b in zip(urls, bodies):
        if b is None:
            continue
        if isinstance(b, bytes):
            b = b.decode("utf-8", "replace")
        out_u.append(u)
        out_md.append(html_to_markdown(b))
    return pa.table({"url": pa.array(out_u, pa.string()), "markdown": pa.array(out_md, pa.string())})
