"""Pattern scrubbing (the PII-redaction shape) for corpus curation.

``scrub_kernel`` replaces every match of an ordered pattern list with
its placeholder and reports the total match count per document (counted
on the ORIGINAL text, so the count is order-independent even when a
later pattern would overlap an earlier replacement).  Patterns are
plain regexes compiled once per actor / call site — the stage is a
stateless streaming ``map_batches`` filter, no shuffle.

The preset list covers the standard PII families (emails, phone
numbers) plus a caller-supplied lexicon (the "project-specific
sensitive terms" case); all presets are RE2-compatible so a DuckDB
``regexp_replace(..., 'g')`` oracle reproduces the output byte-for-byte
(verified in tests and the ``text_metrics`` correctness slot).

Reference scope note: the reference engine (janreges/siteone-crawler)
has no redaction surface; this extends the engine per SURVEY.md §2.7b.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

# (pattern, placeholder) preset families, applied in order.
PII_EMAIL = (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "[EMAIL]")
PII_PHONE = (r"\+?[0-9][0-9()\- ]{7,}[0-9]", "[PHONE]")


def lexicon_pattern(terms: list[str], placeholder: str = "[TERM]") -> tuple[str, str]:
    """Whole-word lexicon scrub (sorted for determinism)."""
    return (r"\b(" + "|".join(sorted(terms)) + r")\b", placeholder)


DEFAULT_PATTERNS = [PII_EMAIL, PII_PHONE]


def scrub_kernel(batch: pa.Table, patterns=None, text_col: str = "text") -> pa.Table:
    """Per-batch scrub: (doc cols…, scrubbed, n_matches).

    Python ``re`` over a numpy object array — string-rewrite kernels
    have no Arrow equivalent; the regexes are compiled once per call
    and the loop is one pass per pattern over the batch (the same shape
    the reference uses for its HTML regex battery)."""
    pats = [(re.compile(p), repl) for p, repl in (patterns or DEFAULT_PATTERNS)]
    texts = batch[text_col].to_numpy(zero_copy_only=False)
    out = np.empty(len(texts), dtype=object)
    counts = np.zeros(len(texts), dtype=np.int64)
    for i, s in enumerate(texts):
        n = 0
        scrubbed = s
        for rx, repl in pats:
            n += len(rx.findall(s))
            scrubbed = rx.sub(repl, scrubbed)
        out[i] = scrubbed
        counts[i] = n
    return batch.append_column("scrubbed", pa.array(out, pa.string())).append_column(
        "n_matches", pa.array(counts))
