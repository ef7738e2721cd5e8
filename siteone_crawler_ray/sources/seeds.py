"""Seed source — the ``--url-list`` reader (reference
src/engine/crawler.rs:226-230, README.md:501): plain text, ``#``
comments, blank lines skipped, invalid lines warned + skipped.  Returns
a plain URL list for EpochCrawler seeding.
"""

from __future__ import annotations

from ..functions import urls as U


def parse_url_list_text(text: str) -> tuple[list[str], list[str]]:
    """→ (valid_urls, invalid_lines).  A line is valid when it
    canonicalizes to an absolute http(s) URL."""
    good, bad = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        c = U.canonicalize(line, line)
        if c is None or not c.startswith(("http://", "https://")):
            bad.append(line)
        else:
            good.append(c)
    return good, bad
