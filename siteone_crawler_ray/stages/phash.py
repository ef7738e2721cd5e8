"""Perceptual image hashing — the image-level near-dup family.

Large-scale multimodal curation dedups images the way text pipelines
dedup documents: a 64-bit perceptual fingerprint per image, compared
by Hamming distance.  Two public constructions are implemented:

- **pHash** (Zauner 2010, "Implementation and Benchmarking of
  Perceptual Image Hash Functions"): luma → 32×32 box-filter
  downsample → 2-D DCT-II → low-frequency 8×8 block → one bit per
  coefficient, thresholded at the median of the 63 AC values.
- **dHash** (Krawetz's difference hash): 8×8 block means, one bit per
  horizontally-adjacent "brighter than" comparison (with wraparound so
  the hash is a full 64 bits).

Everything is EXACT INTEGER arithmetic so a DuckDB oracle can recompute
hashes bit-for-bit: luma is the classic ``(77R + 150G + 29B) >> 8``
fixed-point weighting, the box filter uses floor-division bucket means
with ``floor(y·32/H)`` bucket edges, and the DCT uses a fixed-point
cosine table ``round(cos(π(2x+1)u/64)·2^14)`` whose 256 literal values
are embedded below (and re-emitted by :func:`phash_cos_sql_values` for
the SQL side) — no libm call can perturb a bit on either side.
Magnitudes stay well inside int64: ``|D| ≤ 32²·255·2^28 < 2^46``.

Hashing is a ``map_batches`` stage (:class:`ImagePHashStage`); the
``media_stages`` slot of ``__ray_entry__`` checks both hashes against
the SQL oracle.

Reference scope note: the reference engine (janreges/siteone-crawler)
has no image-dedup surface; this extends the engine per SURVEY.md
§2.11 (LLM-data additions) on top of the pure-Python codecs in
stages/multimodal.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# round(cos(pi*(2x+1)*u/64) * 2^14) for u in 0..7, x in 0..31 —
# literal so Python and SQL share the exact table (see module doc).
PH_COS = np.array([
    [16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384],
    [16364, 16207, 15893, 15426, 14811, 14053, 13160, 12140, 11003, 9760, 8423, 7005, 5520, 3981, 2404, 804, -804, -2404, -3981, -5520, -7005, -8423, -9760, -11003, -12140, -13160, -14053, -14811, -15426, -15893, -16207, -16364],
    [16305, 15679, 14449, 12665, 10394, 7723, 4756, 1606, -1606, -4756, -7723, -10394, -12665, -14449, -15679, -16305, -16305, -15679, -14449, -12665, -10394, -7723, -4756, -1606, 1606, 4756, 7723, 10394, 12665, 14449, 15679, 16305],
    [16207, 14811, 12140, 8423, 3981, -804, -5520, -9760, -13160, -15426, -16364, -15893, -14053, -11003, -7005, -2404, 2404, 7005, 11003, 14053, 15893, 16364, 15426, 13160, 9760, 5520, 804, -3981, -8423, -12140, -14811, -16207],
    [16069, 13623, 9102, 3196, -3196, -9102, -13623, -16069, -16069, -13623, -9102, -3196, 3196, 9102, 13623, 16069, 16069, 13623, 9102, 3196, -3196, -9102, -13623, -16069, -16069, -13623, -9102, -3196, 3196, 9102, 13623, 16069],
    [15893, 12140, 5520, -2404, -9760, -14811, -16364, -14053, -8423, -804, 7005, 13160, 16207, 15426, 11003, 3981, -3981, -11003, -15426, -16207, -13160, -7005, 804, 8423, 14053, 16364, 14811, 9760, 2404, -5520, -12140, -15893],
    [15679, 10394, 1606, -7723, -14449, -16305, -12665, -4756, 4756, 12665, 16305, 14449, 7723, -1606, -10394, -15679, -15679, -10394, -1606, 7723, 14449, 16305, 12665, 4756, -4756, -12665, -16305, -14449, -7723, 1606, 10394, 15679],
    [15426, 8423, -2404, -12140, -16364, -13160, -3981, 7005, 14811, 15893, 9760, -804, -11003, -16207, -14053, -5520, 5520, 14053, 16207, 11003, 804, -9760, -15893, -14811, -7005, 3981, 13160, 16364, 12140, 2404, -8423, -15426],
], dtype=np.int64)

_BIT_WEIGHTS = (np.uint64(1) << np.arange(64, dtype=np.uint64))


def phash_cos_sql_values(alias: str = "ct") -> str:
    """The PH_COS table as a DuckDB VALUES CTE body: ``alias(u, x, c)``."""
    rows = ", ".join(
        f"({u}, {x}, {PH_COS[u, x]})" for u in range(8) for x in range(32)
    )
    return f"{alias}(u, x, c) AS (SELECT * FROM (VALUES {rows}) v(u, x, c))"


def luma(px: np.ndarray) -> np.ndarray:
    """(H,W[,C]) uint8 → (H,W) int64 luma: gray passthrough, RGB(A) via
    the fixed-point ``(77R + 150G + 29B) >> 8`` (alpha ignored).  For
    R=G=B=v this is ``(256·v) >> 8 = v`` exactly — gray content encoded
    in an RGB container hashes identically to the gray original."""
    if px.ndim == 2:
        return px.astype(np.int64)
    if px.shape[2] == 1:
        return px[:, :, 0].astype(np.int64)
    r = px[:, :, 0].astype(np.int64)
    g = px[:, :, 1].astype(np.int64)
    b = px[:, :, 2].astype(np.int64)
    return (77 * r + 150 * g + 29 * b) >> 8


def box32(g: np.ndarray) -> np.ndarray:
    """Exact-integer 32×32 box-filter downsample of an (H,W) int64
    plane: source row y lands in bucket ``y·32 // H`` (buckets differ
    by ≤1 row), each output cell is the floor-mean of its bucket
    rectangle.  Sides smaller than 32 are first nearest-upsampled with
    ``(i·H) // 32`` indices; a 32×32 input is the identity."""
    H, W = g.shape
    if H < 32:
        g = g[(np.arange(32) * H) // 32]
        H = 32
    if W < 32:
        g = g[:, (np.arange(32) * W) // 32]
        W = 32
    if H == 32 and W == 32:
        return g.astype(np.int64)
    yb = (np.arange(H, dtype=np.int64) * 32) // H
    xb = (np.arange(W, dtype=np.int64) * 32) // W
    ystart = np.searchsorted(yb, np.arange(32), side="left")
    xstart = np.searchsorted(xb, np.arange(32), side="left")
    s = np.add.reduceat(np.add.reduceat(g, ystart, axis=0), xstart, axis=1)
    ycnt = np.diff(np.append(ystart, H))
    xcnt = np.diff(np.append(xstart, W))
    return s // np.outer(ycnt, xcnt)


def _pack_bits(bits: np.ndarray) -> np.uint64:
    return np.bitwise_or.reduce(np.where(bits, _BIT_WEIGHTS, np.uint64(0)))


def phash64(g32: np.ndarray) -> np.uint64:
    """64-bit pHash of a (32,32) int64 plane.  Bit ``u·8+v`` is set iff
    the fixed-point DCT coefficient D[u][v] exceeds the lower median
    (the 32nd smallest, 0-based index 31) of the 63 AC coefficients."""
    t = PH_COS @ g32.astype(np.int64)
    d = (t @ PH_COS.T).ravel()
    med = np.partition(d[1:], 31)[31]
    return _pack_bits(d > med)


def dhash64(g32: np.ndarray) -> np.uint64:
    """64-bit dHash: 8×8 floor-means of 4×4 blocks, bit ``y·8+x`` set
    iff cell (y,x) is strictly brighter than its right neighbor
    (wrapping at x=7 so all 64 bits carry signal)."""
    h8 = g32.astype(np.int64).reshape(8, 4, 8, 4).sum(axis=(1, 3)) // 16
    return _pack_bits((h8 > np.roll(h8, -1, axis=1)).ravel())


def image_phash_batch(batch: pa.Table, *, id_col: str = "media_id",
                      payload_col: str = "payload") -> pa.Table:
    """Decode each payload (stages/multimodal.decode_image magic-byte
    dispatch) and emit (id, phash, dhash, width, height) rows.  The
    per-row Python loop is the multimodal idiom — each iteration is a
    whole-image decode + two matmuls, not per-element work."""
    from .multimodal import decode_image

    payloads = batch[payload_col].to_numpy(zero_copy_only=False)
    n = len(payloads)
    ph = np.empty(n, np.uint64)
    dh = np.empty(n, np.uint64)
    w = np.empty(n, np.int64)
    h = np.empty(n, np.int64)
    for i, p in enumerate(payloads):
        px = decode_image(p)
        g32 = box32(luma(px))
        ph[i] = phash64(g32)
        dh[i] = dhash64(g32)
        h[i], w[i] = px.shape[0], px.shape[1]
    return pa.table({
        id_col: batch[id_col],
        "phash": pa.array(ph, pa.uint64()),
        "dhash": pa.array(dh, pa.uint64()),
        "width": pa.array(w, pa.int64()),
        "height": pa.array(h, pa.int64()),
    })


class ImagePHashStage:
    """Actor stage for the decode+hash hot path: constructing it once
    per actor keeps any future decoder state (e.g. a Huffman-table
    cache) off the per-batch path; ``__call__`` is pure."""

    def __init__(self, id_col: str = "media_id", payload_col: str = "payload"):
        self.id_col = id_col
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return image_phash_batch(batch, id_col=self.id_col,
                                 payload_col=self.payload_col)


def synthesize_phash_media_table(n: int = 24) -> pa.Table:
    """Deterministic pHash corpus with REAL lossless container payloads
    and a closed-form arithmetic oracle: image ``i`` is the 32×32 gray
    sawtooth ``g[y][x] = ((3+2i)·x + (5+3i)·y + 7i) % 256`` (wrapping
    gradients — spectrally rich, so every image's hash is distinct; a
    pure linear ramp would make all pHashes collapse to the same sparse
    sign pattern).  The container cycles BMP → PNG → GIF → WebP → TIFF
    (``i % 5``), all lossless for gray content, so all five codecs
    share the same oracle: DuckDB rebuilds the pixels from the formula
    and recomputes both hashes bit-for-bit (the __ray_entry__
    media_stages oracle)."""
    y, x = np.mgrid[0:32, 0:32]
    ids, payloads, mimes = [], [], []
    for i in range(n):
        g = (((3 + 2 * i) * x + (5 + 3 * i) * y + 7 * i) % 256).astype(np.uint8)
        fmt = i % 5
        if fmt == 0:
            from .multimodal import encode_bmp

            payloads.append(encode_bmp(np.repeat(g[:, :, None], 3, axis=2)))
            mimes.append("image/bmp")
        elif fmt == 1:
            from .multimodal import encode_png

            payloads.append(encode_png(g))
            mimes.append("image/png")
        elif fmt == 2:
            from .multimodal import encode_gif

            payloads.append(encode_gif(g, interlace=(i // 5) % 2 == 0))
            mimes.append("image/gif")
        elif fmt == 3:
            from .codec_webp import encode_webp

            payloads.append(encode_webp(g))
            mimes.append("image/webp")
        else:
            from .codec_tiff import encode_tiff

            payloads.append(encode_tiff(g, compression=32773 if (i // 5) % 2 == 0 else 1))
            mimes.append("image/tiff")
        ids.append(f"p{i:05d}")
    return pa.table({
        "media_id": pa.array(ids, pa.string()),
        "kind": pa.array(["phash"] * n, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "mime": pa.array(mimes, pa.string()),
    })
