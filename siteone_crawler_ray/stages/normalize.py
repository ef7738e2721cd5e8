"""Unicode text normalization — the canonical pre-dedup cleanup pass.

Training-data pipelines normalize text BEFORE hashing/dedup so that
byte-different, render-identical documents (NFC vs NFD accents,
compatibility ligatures, stray control bytes, ragged whitespace)
collapse to one representative; the reference crawler's analyzers
operate on raw fetched bytes, but its markdown/offline exporters do the
same class of cleanup ad hoc (src/export/markdown.rs whitespace
folding).  Here it is one vectorized Arrow stage:

- unicode normalization with a vectorized ASCII short-circuit
  (``pc.string_is_ascii`` — NFC/NFD are the identity on ASCII, and web
  text is overwhelmingly ASCII after extraction); the non-ASCII
  residue goes through CPython's C ``unicodedata.normalize``.  This is
  deliberate: pyarrow 16's ``pc.utf8_normalize`` does NOT perform
  canonical composition (NFC of ``e + U+0301`` stays decomposed —
  verified empirically in test_normalize_shuffle.py), so it cannot
  match DuckDB's utf8proc ``nfc_normalize``; unicodedata can and does,
- control-byte strip and whitespace collapse via RE2
  (``pc.replace_substring_regex``) — DuckDB's regexp_replace is also
  RE2, so the whole transform is SQL-oracle-exact (it rides the
  ``text_metrics`` driver slot),
- optional ``pc.utf8_lower``.

Arrow in, Arrow out; the only per-row Python is the non-ASCII
normalization residue, one C call per affected string.
"""

from __future__ import annotations

import unicodedata

import pyarrow as pa
import pyarrow.compute as pc

# C0 controls minus \t (x09) and \n (x0a) — those are whitespace and are
# handled by the collapse step — plus DEL.  RE2 class, identical meaning
# when handed to DuckDB regexp_replace (also RE2).
CONTROL_CLASS = r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]"
_WS = r"\s+"


def normalize_array(
    col,
    *,
    form: str = "NFC",
    strip_control: bool = True,
    collapse_whitespace: bool = True,
    lowercase: bool = False,
):
    """Normalize one string array/chunked-array; returns a string array."""
    s = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    ascii_mask = pc.string_is_ascii(s)
    if not pc.all(ascii_mask).as_py():
        # ONLY the non-ASCII residue round-trips Python: filter it out,
        # normalize those few strings, scatter back with replace_with_mask
        non_ascii = pc.and_kleene(pc.invert(ascii_mask), pc.is_valid(s))
        non_ascii = pc.fill_null(non_ascii, False)
        residue = s.filter(non_ascii).to_pylist()
        fixed = pa.array([unicodedata.normalize(form, v) for v in residue],
                         type=s.type)
        s = pc.replace_with_mask(s, non_ascii, fixed)
    if strip_control:
        s = pc.replace_substring_regex(s, pattern=CONTROL_CLASS, replacement="")
    if collapse_whitespace:
        s = pc.replace_substring_regex(s, pattern=_WS, replacement=" ")
        # trim ONLY the ASCII space the collapse just produced — unicode
        # trim would eat NBSP etc. and diverge from the SQL oracle
        s = pc.utf8_trim(s, characters=" ")
    if lowercase:
        s = pc.utf8_lower(s)
    return s
