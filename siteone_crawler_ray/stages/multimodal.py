"""Multimodal column plumbing — binary payload stages.

Image/audio/video payloads are opaque ``binary`` columns with typed
metadata, processed by actor-pool ``map_batches`` stages.

Codec support is honest about the environment: ``decoder="real"``
decodes the formats this module implements in pure Python/numpy —
RIFF/WAVE 16-bit PCM (``decode_wav``), Windows BMP 24-bit
(``decode_bmp``), PNG 8-bit gray/RGB/RGBA with all five row filters
(``decode_png``), baseline AND progressive JPEG (``decode_jpeg``:
Annex-K Huffman, spectral selection + successive approximation,
4:4:4/4:2:2/4:2:0, grayscale, restart intervals), GIF87a/89a
(``decode_gif``: LZW, interlace, local color tables), lossless WebP
(``codec_webp.decode_webp``: VP8L prefix codes, color cache, LZ77,
all four transforms), ICO favicons (``decode_ico``), baseline TIFF
(``codec_tiff.decode_tiff``: none/PackBits, both byte orders,
strips), FLAC audio (``codec_flac.decode_flac``), AIFF 16-bit PCM
(``decode_aiff``: 80-bit extended sample rate, chunk walk) and the
MP4 + AVI containers (``codec_mp4.decode_mp4``: full stbl
sample-table walk; ``codec_avi.decode_avi``: RIFF movi/idx1 walk;
frame payloads stay opaque) — and raises ``NotImplementedError`` for
the rest (lossy VP8, AVIF, MP3 sample decode, H.264 frame decode),
whose codec libraries (PIL/ffmpeg) are NOT in this container.
``decoder="fake"`` (the default for arbitrary payloads) derives
deterministic metadata from the payload hash so the Ray-side plumbing
— schema, batch sizing for wide binary rows, actor signature,
zero-copy binary column handling, output layout — is exercised on any
input.

At scale: binary columns dominate block size → pair these stages with
small ``batch_size`` and a larger ``DataContext.target_max_block_size``
so blocks are not split absurdly small (ray_guide pitfalls).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..functions.hashing import xxh64_strings


def synthesize_media_table(n: int = 64, seed: int = 5) -> pa.Table:
    """Deterministic fake media corpus (binary payloads from a seeded RNG)."""
    rng = np.random.default_rng(seed)
    kinds = np.array(["image", "audio", "video"])[rng.integers(0, 3, n)]
    payloads = [rng.integers(0, 256, size=int(rng.integers(64, 2048)), dtype=np.uint8).tobytes() for _ in range(n)]
    mimes = {"image": "image/png", "audio": "audio/wav", "video": "video/mp4"}
    return pa.table(
        {
            "media_id": pa.array([f"m{i:05d}" for i in range(n)], pa.string()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array([mimes[k] for k in kinds], pa.string()),
        }
    )


# ---- real uncompressed-container codecs (pure numpy, public formats) -----

def encode_wav(samples: np.ndarray, sample_rate: int = 8000) -> bytes:
    """int16 mono samples → RIFF/WAVE 16-bit PCM bytes."""
    data = np.asarray(samples, dtype="<i2").tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE", b"fmt ", 16,
        1, 1, sample_rate, sample_rate * 2, 2, 16, b"data", len(data),
    )
    return hdr + data


def decode_wav(payload: bytes) -> tuple[int, int, np.ndarray]:
    """RIFF/WAVE 16-bit PCM → (sample_rate, channels, int16 samples).

    Walks the chunk list (fmt / data can be preceded by LIST etc.);
    raises ``NotImplementedError`` for non-PCM or non-16-bit."""
    if len(payload) < 12 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise NotImplementedError("not a RIFF/WAVE payload")
    pos, rate, channels, bits, data = 12, None, None, None, None
    while pos + 8 <= len(payload):
        cid, size = payload[pos:pos + 4], struct.unpack("<I", payload[pos + 4:pos + 8])[0]
        body = payload[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt_tag, channels, rate = struct.unpack("<HHI", body[:8])
            bits = struct.unpack("<H", body[14:16])[0]
            if fmt_tag != 1:
                raise NotImplementedError("compressed WAV (non-PCM) is not supported")
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if rate is None or data is None:
        raise NotImplementedError("malformed WAV: missing fmt/data chunk")
    if bits != 16:
        raise NotImplementedError(f"{bits}-bit PCM not supported (16-bit only)")
    return rate, channels, np.frombuffer(data, dtype="<i2")


def _f80_encode(rate: int) -> bytes:
    """IEEE 754 80-bit extended float (AIFF-C spec §'extended'): the
    COMM sample-rate field.  Integer rates only (all we emit)."""
    if rate <= 0:
        raise NotImplementedError("non-positive AIFF sample rate")
    exp = rate.bit_length() - 1
    mant = rate << (63 - exp)  # explicit leading 1 in bit 63
    return struct.pack(">HQ", 16383 + exp, mant)


def _f80_decode(b: bytes) -> int:
    se, mant = struct.unpack(">HQ", b[:10])
    exp = (se & 0x7FFF) - 16383
    if se & 0x8000 or not 0 <= exp <= 62:
        raise NotImplementedError("unsupported AIFF sample-rate exponent")
    rate = mant >> (63 - exp)
    if mant != rate << (63 - exp):
        raise NotImplementedError("fractional AIFF sample rates not supported")
    return rate


def encode_aiff(samples: np.ndarray, sample_rate: int = 8000) -> bytes:
    """int16 mono samples → FORM/AIFF bytes (big-endian PCM, COMM with
    the 80-bit extended sample rate, SSND offset/blockSize 0)."""
    data = np.asarray(samples, dtype=">i2").tobytes()
    comm = struct.pack(">HIH", 1, len(samples), 16) + _f80_encode(sample_rate)
    ssnd = struct.pack(">II", 0, 0) + data
    body = (b"AIFF"
            + b"COMM" + struct.pack(">I", len(comm)) + comm
            + b"SSND" + struct.pack(">I", len(ssnd)) + ssnd)
    return b"FORM" + struct.pack(">I", len(body)) + body


def decode_aiff(payload: bytes) -> tuple[int, int, np.ndarray]:
    """FORM/AIFF 16-bit PCM → (sample_rate, channels, int16 samples);
    NotImplementedError for AIFC compression or non-16-bit samples."""
    if len(payload) < 12 or payload[:4] != b"FORM":
        raise NotImplementedError("not a FORM/AIFF payload")
    form = payload[8:12]
    if form not in (b"AIFF", b"AIFC"):
        raise NotImplementedError(f"not an AIFF form ({form!r})")
    pos, rate, channels, bits, nframes, data = 12, None, None, None, None, None
    while pos + 8 <= len(payload):
        cid = payload[pos : pos + 4]
        (size,) = struct.unpack(">I", payload[pos + 4 : pos + 8])
        body = payload[pos + 8 : pos + 8 + size]
        if cid == b"COMM":
            channels, nframes, bits = struct.unpack(">HIH", body[:8])
            rate = _f80_decode(body[8:18])
            if form == b"AIFC" and body[18:22] not in (b"NONE", b"sowt", b""):
                raise NotImplementedError("compressed AIFF-C not supported")
        elif cid == b"SSND":
            off, _blk = struct.unpack(">II", body[:8])
            data = body[8 + off :]
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if rate is None or data is None:
        raise NotImplementedError("malformed AIFF: missing COMM/SSND chunk")
    if bits != 16:
        raise NotImplementedError(f"{bits}-bit AIFF not supported (16-bit only)")
    samples = np.frombuffer(data, dtype=">i2")[: nframes * channels]
    return rate, channels, samples.astype(np.int16)


def encode_bmp(pixels: np.ndarray) -> bytes:
    """(H, W, 3) uint8 RGB → 24-bit uncompressed BMP bytes (bottom-up
    rows, BGR order, rows padded to 4 bytes — the classic layout)."""
    px = np.asarray(pixels, dtype=np.uint8)
    h, w, _ = px.shape
    row = ((w * 3 + 3) // 4) * 4
    body = np.zeros((h, row), dtype=np.uint8)
    body[:, : w * 3] = px[::-1, :, ::-1].reshape(h, w * 3)  # flip rows, RGB→BGR
    data = body.tobytes()
    hdr = struct.pack("<2sIHHI", b"BM", 54 + len(data), 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(data), 2835, 2835, 0, 0)
    return hdr + info + data


def decode_bmp(payload: bytes) -> np.ndarray:
    """24-bit uncompressed BMP → (H, W, 3) uint8 RGB."""
    if len(payload) < 54 or payload[:2] != b"BM":
        raise NotImplementedError("not a BMP payload")
    offset = struct.unpack("<I", payload[10:14])[0]
    _, w, h, _, bpp, comp = struct.unpack("<IiiHHI", payload[14:34])
    if bpp != 24 or comp != 0:
        raise NotImplementedError(f"only 24-bit uncompressed BMP supported (got {bpp}-bit comp={comp})")
    row = ((w * 3 + 3) // 4) * 4
    flip = h > 0
    h = abs(h)
    body = np.frombuffer(payload, dtype=np.uint8, count=h * row, offset=offset).reshape(h, row)
    px = body[:, : w * 3].reshape(h, w, 3)[:, :, ::-1]  # BGR→RGB
    return px[::-1] if flip else px


_PNG_SIG = b"\x89PNG\r\n\x1a\n"
# color type → channels (8-bit depth, non-interlaced support)
_PNG_CHANNELS = {0: 1, 2: 3, 6: 4}


def encode_png(pixels: np.ndarray) -> bytes:
    """(H, W) uint8 gray / (H, W, 3) RGB / (H, W, 4) RGBA → PNG bytes
    (8-bit, filter 0 per row, one zlib IDAT) — pure stdlib zlib, no PIL."""
    import zlib

    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, c = px.shape
    color = {1: 0, 3: 2, 4: 6}[c]

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    raw = np.concatenate([np.zeros((h, 1), np.uint8), px.reshape(h, w * c)], axis=1)
    return (_PNG_SIG + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw.tobytes(), 9))
            + chunk(b"IEND", b""))


def decode_png(payload: bytes) -> np.ndarray:
    """PNG → (H, W, C) uint8.  Supports the common web shape — 8-bit
    depth, gray/RGB/RGBA, non-interlaced, all five row filters
    (None/Sub/Up/Average/Paeth per the PNG spec §6) — and raises
    ``NotImplementedError`` for palettes/16-bit/interlaced variants, in
    line with the honest-codec policy of this module."""
    import zlib

    if len(payload) < 8 or payload[:8] != _PNG_SIG:
        raise NotImplementedError("not a PNG payload")
    pos, ihdr, idat = 8, None, []
    while pos + 8 <= len(payload):
        (ln,) = struct.unpack(">I", payload[pos : pos + 4])
        tag = payload[pos + 4 : pos + 8]
        body = payload[pos + 8 : pos + 8 + ln]
        pos += 12 + ln
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
    if ihdr is None or not idat:
        raise NotImplementedError("malformed PNG: missing IHDR/IDAT")
    w, h, depth, color, comp, filt, interlace = ihdr
    if depth != 8 or comp != 0 or filt != 0 or interlace != 0 or color not in _PNG_CHANNELS:
        raise NotImplementedError(
            f"PNG variant not supported (depth={depth} color={color} interlace={interlace})")
    c = _PNG_CHANNELS[color]
    stride = w * c
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if len(raw) != h * (stride + 1):
        raise NotImplementedError("malformed PNG: bad decompressed length")
    rows = raw.reshape(h, stride + 1)
    out = np.zeros((h, stride), dtype=np.uint8)
    bpp = c  # bytes per pixel at 8-bit depth
    for y in range(h):
        f = rows[y, 0]
        cur = rows[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y else np.zeros(stride, np.int32)
        if f == 0:  # None
            line = cur
        elif f == 2:  # Up
            line = (cur + prev) & 0xFF
        elif f in (1, 3, 4):  # Sub / Average / Paeth: sequential in x
            line = np.zeros(stride, np.int32)
            for x in range(stride):
                a = line[x - bpp] if x >= bpp else 0
                b = prev[x]
                if f == 1:
                    v = cur[x] + a
                elif f == 3:
                    v = cur[x] + ((a + b) >> 1)
                else:
                    cc = prev[x - bpp] if x >= bpp else 0
                    p = a + b - cc
                    pa_, pb, pcd = abs(p - a), abs(p - b), abs(p - cc)
                    pred = a if (pa_ <= pb and pa_ <= pcd) else (b if pb <= pcd else cc)
                    v = cur[x] + pred
                line[x] = v & 0xFF
        else:
            raise NotImplementedError(f"PNG filter {f} is invalid")
        out[y] = line.astype(np.uint8)
    return out.reshape(h, w, c)


# ---- baseline JPEG codec (ITU-T T.81 baseline sequential DCT) -------------
#
# Pure Python/numpy: Annex K quantization + Huffman tables, IJG quality
# scaling, 8×8 DCT via matrix multiplication, 4:4:4 and 4:2:0 chroma,
# grayscale, restart intervals, and progressive (SOF2) with full
# spectral selection + successive approximation on decode.  Honest
# gates: arithmetic coding, 12-bit precision and sampling factors > 2
# raise NotImplementedError.  The dominant web image format
# (src/engine/crawler.rs:1557-1596 content-type map) thus decodes here
# without PIL, in both its sequential and progressive forms.

_JPEG_ZZ = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)

_JPEG_QL = np.array([  # Annex K.1 luminance
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64)
_JPEG_QC = np.array([  # Annex K.2 chrominance
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64)

# Annex K.3 typical Huffman tables: (BITS counts per code length 1..16,
# HUFFVAL symbol list)
_DC_L = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0], list(range(12)))
_DC_C = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0], list(range(12)))
_AC_L = ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D], [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
])
_AC_C = ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77], [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
])


def _dct_basis() -> np.ndarray:
    u, x = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    c = np.where(u == 0, 1.0 / np.sqrt(2.0), 1.0) * 0.5
    return c * np.cos((2 * x + 1) * u * np.pi / 16.0)


_DCT_C = _dct_basis()  # F = C @ f @ C.T ; f = C.T @ F @ C


def _jpeg_qtables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """IJG quality scaling (libjpeg jcparam.c convention, public)."""
    q = min(100, max(1, int(quality)))
    scale = 5000 // q if q < 50 else 200 - 2 * q
    def s(base):
        return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)
    return s(_JPEG_QL), s(_JPEG_QC)


def _huff_encode_table(bits, vals) -> dict[int, tuple[int, int]]:
    """symbol → (code, length), canonical assignment."""
    out, code = {}, 0
    i = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            out[vals[i]] = (code, ln)
            code += 1
            i += 1
        code <<= 1
    return out


def _huff_decode_table(bits, vals) -> dict[tuple[int, int], int]:
    """(length, code) → symbol."""
    out, code = {}, 0
    i = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            out[(ln, code)] = vals[i]
            code += 1
            i += 1
        code <<= 1
    return out


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.n += length
        while self.n >= 8:
            b = (self.acc >> (self.n - 8)) & 0xFF
            self.buf.append(b)
            if b == 0xFF:  # byte stuffing (B.1.1.5)
                self.buf.append(0x00)
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def flush(self) -> bytes:
        if self.n:
            pad = 8 - self.n
            self.write((1 << pad) - 1, pad)  # pad with 1-bits
        return bytes(self.buf)


def _magnitude(v: int) -> tuple[int, int]:
    """v → (category, category-bit pattern) per F.1.2.1."""
    if v == 0:
        return 0, 0
    a = abs(v)
    s = int(a).bit_length()
    return s, (v if v > 0 else v + (1 << s) - 1)


def _encode_block(zz: np.ndarray, pred: int, dc_tab, ac_tab, bw: _BitWriter) -> int:
    s, b = _magnitude(int(zz[0]) - pred)
    code, ln = dc_tab[s]
    bw.write(code, ln)
    if s:
        bw.write(b, s)
    run = 0
    nz = np.nonzero(zz[1:])[0]
    last = nz[-1] + 1 if len(nz) else 0
    for k in range(1, last + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_tab[0xF0]  # ZRL
            bw.write(code, ln)
            run -= 16
        s, b = _magnitude(v)
        code, ln = ac_tab[(run << 4) | s]
        bw.write(code, ln)
        bw.write(b, s)
        run = 0
    if last < 63:
        code, ln = ac_tab[0x00]  # EOB
        bw.write(code, ln)
    return int(zz[0])


def _plane_blocks(plane: np.ndarray, qtab_rm: np.ndarray) -> np.ndarray:
    """(H8, W8) uint8 plane → (n_blocks_y, n_blocks_x, 64) quantized
    coefficients in zigzag (stream) order.  ``qtab_rm`` is row-major;
    stream position k is row-major index ``_JPEG_ZZ[k]``, so the final
    gather by ``_JPEG_ZZ`` converts to stream order."""
    h, w = plane.shape
    f = plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3).astype(np.float64) - 128.0
    F = np.einsum("ux,nmxy,vy->nmuv", _DCT_C, f, _DCT_C)
    q = np.rint(F / qtab_rm.reshape(8, 8)).astype(np.int64)
    return q.reshape(q.shape[0], q.shape[1], 64)[:, :, _JPEG_ZZ]


def _pad_edge(plane: np.ndarray, bh: int, bw_: int) -> np.ndarray:
    h, w = plane.shape
    H = -(-h // bh) * bh
    W = -(-w // bw_) * bw_
    return np.pad(plane, ((0, H - h), (0, W - w)), mode="edge")


def _enc_ac_first(bw: _BitWriter, blk: np.ndarray, ss: int, se: int,
                  al: int, ac_tab) -> None:
    """Progressive AC first-scan encoding (G.1.2.2) for one block:
    point-transformed band coefficients, EOB runs emitted per block
    (run length 1 — symbol 0x00 — so Annex K tables suffice)."""
    vals = []
    for k in range(ss, se + 1):
        v = int(blk[k])
        vals.append(v >> al if v >= 0 else -((-v) >> al))
    nz = [i for i, v in enumerate(vals) if v]
    if not nz:
        code, ln = ac_tab[0x00]
        bw.write(code, ln)
        return
    last = nz[-1]
    run = 0
    for i in range(last + 1):
        v = vals[i]
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_tab[0xF0]  # ZRL
            bw.write(code, ln)
            run -= 16
        s, b = _magnitude(v)
        code, ln = ac_tab[(run << 4) | s]
        bw.write(code, ln)
        bw.write(b, s)
        run = 0
    if last < se - ss:
        code, ln = ac_tab[0x00]
        bw.write(code, ln)


def _enc_ac_refine(bw: _BitWriter, blk: np.ndarray, ss: int, se: int,
                   al: int, ac_tab) -> None:
    """Progressive AC refinement encoding (G.1.2.3) for one block:
    newly-significant coefficients (|coef|>>al == 1) as run+sign,
    history-nonzero coefficients as buffered correction bits flushed
    after each symbol; the tail folds into a per-block EOB."""
    absv = [abs(int(blk[k])) >> al for k in range(ss, se + 1)]
    last_sig = -1
    for i, t in enumerate(absv):
        if t == 1:
            last_sig = i
    run, corr = 0, []
    for i in range(last_sig + 1):
        t = absv[i]
        if t == 0:
            run += 1
            continue
        while run > 15:  # ZRL only before the last newly-significant coef
            code, ln = ac_tab[0xF0]
            bw.write(code, ln)
            run -= 16
            for b in corr:
                bw.write(b, 1)
            corr = []
        if t > 1:
            corr.append(t & 1)
            continue
        code, ln = ac_tab[(run << 4) | 1]
        bw.write(code, ln)
        bw.write(1 if int(blk[ss + i]) > 0 else 0, 1)
        for b in corr:
            bw.write(b, 1)
        corr = []
        run = 0
    if last_sig < se - ss:  # trailing zeros / corrections → EOB(1) + bits
        code, ln = ac_tab[0x00]
        bw.write(code, ln)
        for t in absv[last_sig + 1 :]:
            if t > 1:
                bw.write(t & 1, 1)


def _enc_progressive_scans(comps: list[dict], mcus_y: int,
                           mcus_x: int) -> list[tuple[bytes, bytes]]:
    """libjpeg's default progressive scan script → [(SOS body, entropy
    bytes)]: interleaved DC first (Al=1), per-component AC 1–5 and
    6–63 first (Al=2), DC refine, AC refine 2→1 and 1→0 over 1–63."""
    scans: list[tuple[bytes, bytes]] = []

    def dc_sos(ah: int, al: int) -> bytes:
        return (bytes([len(comps)])
                + b"".join(bytes([c["id"], c["td"] << 4]) for c in comps)
                + bytes([0, 0, (ah << 4) | al]))

    # DC first (Al=1): interleaved over the full MCU grid
    bw = _BitWriter()
    preds = {c["id"]: 0 for c in comps}
    for my in range(mcus_y):
        for mx in range(mcus_x):
            for c in comps:
                for dy in range(c["v"]):
                    for dx in range(c["h"]):
                        v = int(c["blocks"][my * c["v"] + dy, mx * c["h"] + dx, 0]) >> 1
                        s, b = _magnitude(v - preds[c["id"]])
                        code, ln = c["dc"][s]
                        bw.write(code, ln)
                        if s:
                            bw.write(b, s)
                        preds[c["id"]] = v
    scans.append((dc_sos(0, 1), bw.flush()))

    # AC first scans: per component, non-interleaved block raster
    for ss_, se_ in ((1, 5), (6, 63)):
        for c in comps:
            bw = _BitWriter()
            for by in range(c["nbh"]):
                for bx in range(c["nbw"]):
                    _enc_ac_first(bw, c["blocks"][by, bx], ss_, se_, 2, c["ac"])
            scans.append((bytes([1, c["id"], c["ta"], ss_, se_, 2]), bw.flush()))

    # DC refine (Ah=1 → Al=0): one raw bit per block, no Huffman
    bw = _BitWriter()
    for my in range(mcus_y):
        for mx in range(mcus_x):
            for c in comps:
                for dy in range(c["v"]):
                    for dx in range(c["h"]):
                        bw.write(int(c["blocks"][my * c["v"] + dy,
                                                 mx * c["h"] + dx, 0]) & 1, 1)
    scans.append((dc_sos(1, 0), bw.flush()))

    # AC refine sweeps: Ah=2→Al=1, then Ah=1→Al=0
    for al_ in (1, 0):
        for c in comps:
            bw = _BitWriter()
            for by in range(c["nbh"]):
                for bx in range(c["nbw"]):
                    _enc_ac_refine(bw, c["blocks"][by, bx], 1, 63, al_, c["ac"])
            scans.append((bytes([1, c["id"], c["ta"], 1, 63,
                                 ((al_ + 1) << 4) | al_]), bw.flush()))
    return scans


def encode_jpeg(pixels: np.ndarray, quality: int = 90,
                subsampling: str = "444", restart_interval: int = 0,
                progressive: bool = False) -> bytes:
    """(H, W) / (H, W, 1) gray or (H, W, 3) RGB uint8 → baseline
    sequential JPEG bytes (Annex K tables, IJG quality scaling,
    ``subsampling`` ∈ {"444", "420"} for color;
    ``restart_interval`` > 0 emits DRI + RSTn markers every that many
    MCUs with DC-predictor resets).  ``progressive=True`` emits SOF2
    with the classic libjpeg default scan script — interleaved DC
    first (Al=1), per-component AC bands 1–5 and 6–63 first (Al=2),
    DC refine, then two AC refinement sweeps (2→1, 1→0) — driving
    every successive-approximation decoder path; the coefficients are
    identical to the sequential encoding, so decode output matches
    the sequential file bit-for-bit."""
    px = np.asarray(pixels, dtype=np.uint8)
    if progressive and restart_interval:
        raise ValueError("progressive + restart_interval is not supported")
    if px.ndim == 3 and px.shape[2] == 1:
        px = px[:, :, 0]
    gray = px.ndim == 2
    if subsampling not in ("444", "420"):
        raise ValueError(subsampling)
    h, w = px.shape[:2]
    ql, qc = _jpeg_qtables(quality)
    if gray:
        planes = [px.astype(np.float64)]
    else:
        r, g, b = (px[:, :, i].astype(np.float64) for i in range(3))
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
        cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
        planes = [y, cb, cr]
    planes = [np.clip(np.rint(p), 0, 255).astype(np.uint8) for p in planes]

    sub = 2 if (not gray and subsampling == "420") else 1
    if sub == 2:
        yp = _pad_edge(planes[0], 16, 16)
        # 2×2 box average, round half up — the classic chroma downsample
        def down(p):
            p = _pad_edge(p, 2, 2).astype(np.int64)
            q = (p[0::2, 0::2] + p[0::2, 1::2] + p[1::2, 0::2] + p[1::2, 1::2] + 2) // 4
            return _pad_edge(q.astype(np.uint8), 8, 8)
        cps = [down(planes[1]), down(planes[2])] if not gray else []
    else:
        yp = _pad_edge(planes[0], 8, 8)
        cps = [_pad_edge(p, 8, 8) for p in planes[1:]]

    yblocks = _plane_blocks(yp, ql)
    cblocks = [_plane_blocks(p, qc) for p in cps]

    dc_l, ac_l = _huff_encode_table(*_DC_L), _huff_encode_table(*_AC_L)
    dc_c, ac_c = _huff_encode_table(*_DC_C), _huff_encode_table(*_AC_C)
    if progressive:
        # non-interleaved AC-scan rasters use the component's OWN
        # block dims (A.2.2), which for Y in 4:2:0 are smaller than
        # the MCU-padded array
        ph, pw = -(-h // 8), -(-w // 8)
        pcomps = [{"id": 1, "blocks": yblocks, "h": sub if not gray else 1,
                   "v": sub if not gray else 1, "nbh": ph, "nbw": pw,
                   "dc": dc_l, "ac": ac_l, "td": 0, "ta": 0}]
        for ci, cb in enumerate(cblocks):
            pcomps.append({"id": 2 + ci, "blocks": cb, "h": 1, "v": 1,
                           "nbh": cb.shape[0], "nbw": cb.shape[1],
                           "dc": dc_c, "ac": ac_c, "td": 1, "ta": 1})
        scans = _enc_progressive_scans(pcomps, yblocks.shape[0] // (sub if not gray else 1),
                                       yblocks.shape[1] // (sub if not gray else 1))
    else:
        # per-MCU block schedule: [(zigzag coeffs, comp idx, dc tab, ac tab)]
        mcus: list[list] = []
        if gray:
            for by in range(yblocks.shape[0]):
                for bx in range(yblocks.shape[1]):
                    mcus.append([(yblocks[by, bx], 0, dc_l, ac_l)])
        else:
            for my in range(yblocks.shape[0] // sub):
                for mx in range(yblocks.shape[1] // sub):
                    blocks = [(yblocks[my * sub + dy, mx * sub + dx], 0, dc_l, ac_l)
                              for dy in range(sub) for dx in range(sub)]
                    blocks.append((cblocks[0][my, mx], 1, dc_c, ac_c))
                    blocks.append((cblocks[1][my, mx], 2, dc_c, ac_c))
                    mcus.append(blocks)
        bwr = _BitWriter()
        preds = [0, 0, 0]
        scan_parts: list[bytes] = []
        for n, mcu in enumerate(mcus):
            if restart_interval and n and n % restart_interval == 0:
                scan_parts.append(bwr.flush())
                scan_parts.append(
                    bytes([0xFF, 0xD0 + ((n // restart_interval - 1) % 8)]))
                bwr = _BitWriter()
                preds = [0, 0, 0]
            for zz, ci, dct, act in mcu:
                preds[ci] = _encode_block(zz, preds[ci], dct, act, bwr)
        scan_parts.append(bwr.flush())
        scan = b"".join(scan_parts)

    def seg(marker: int, body: bytes) -> bytes:
        return struct.pack(">HH", marker, len(body) + 2) + body

    def dht(tc_th: int, bits, vals) -> bytes:
        return bytes([tc_th]) + bytes(bits) + bytes(vals)

    out = [b"\xff\xd8"]  # SOI
    out.append(seg(0xFFE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"))
    out.append(seg(0xFFDB, b"\x00" + bytes(ql[_JPEG_ZZ].astype(np.uint8))))
    if not gray:
        out.append(seg(0xFFDB, b"\x01" + bytes(qc[_JPEG_ZZ].astype(np.uint8))))
    ncomp = 1 if gray else 3
    sof = struct.pack(">BHHB", 8, h, w, ncomp)
    if gray:
        sof += bytes([1, 0x11, 0])
    else:
        sof += bytes([1, (sub << 4) | sub, 0, 2, 0x11, 1, 3, 0x11, 1])
    out.append(seg(0xFFC2 if progressive else 0xFFC0, sof))
    out.append(seg(0xFFC4, dht(0x00, *_DC_L)))
    out.append(seg(0xFFC4, dht(0x10, *_AC_L)))
    if not gray:
        out.append(seg(0xFFC4, dht(0x01, *_DC_C)))
        out.append(seg(0xFFC4, dht(0x11, *_AC_C)))
    if restart_interval:
        out.append(seg(0xFFDD, struct.pack(">H", restart_interval)))
    if progressive:
        for sos_body, data in scans:
            out.append(seg(0xFFDA, sos_body))
            out.append(data)
    else:
        sos = bytes([ncomp])
        sos += bytes([1, 0x00]) if gray else bytes([1, 0x00, 2, 0x11, 3, 0x11])
        sos += bytes([0, 63, 0])
        out.append(seg(0xFFDA, sos))
        out.append(scan)
    out.append(b"\xff\xd9")  # EOI
    return b"".join(out)


class _BitReader:
    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.pos = 0

    def read_bit(self) -> int:
        if self.pos >= len(self.bits):
            raise NotImplementedError("truncated JPEG entropy segment")
        b = int(self.bits[self.pos])
        self.pos += 1
        return b

    def read(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v


def _huff_decode(br: _BitReader, table: dict[tuple[int, int], int]) -> int:
    code, ln = 0, 0
    while ln < 16:
        code = (code << 1) | br.read_bit()
        ln += 1
        sym = table.get((ln, code))
        if sym is not None:
            return sym
    raise NotImplementedError("invalid JPEG Huffman code")


def _receive_extend(br: _BitReader, s: int) -> int:
    if s == 0:
        return 0
    v = br.read(s)
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def _decode_block_seq(br: _BitReader, dc_tab, ac_tab, pred: int,
                      blk: np.ndarray) -> int:
    """Sequential full-band (Ss=0..63, Ah=Al=0) coefficient decode
    into ``blk`` (64, zigzag/stream order); returns the new DC pred."""
    s = _huff_decode(br, dc_tab)
    pred += _receive_extend(br, s)
    blk[0] = pred
    k = 1
    while k < 64:
        rs = _huff_decode(br, ac_tab)
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if r == 15:
                k += 16
                continue
            break  # EOB
        k += r
        if k > 63:
            raise NotImplementedError("corrupt JPEG AC run")
        blk[k] = _receive_extend(br, s)
        k += 1
    return pred


def _decode_ac_first(br: _BitReader, blk: np.ndarray, ss: int, se: int,
                     al: int, ac_tab, eobrun: int) -> int:
    """Progressive AC first scan (Ah=0) for one block (G.1.2.2);
    returns the remaining end-of-band run."""
    if eobrun > 0:
        return eobrun - 1
    k = ss
    while k <= se:
        rs = _huff_decode(br, ac_tab)
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if r == 15:
                k += 16
                continue
            eobrun = (1 << r) - 1
            if r:
                eobrun += br.read(r)
            break
        k += r
        if k > se:
            raise NotImplementedError("corrupt progressive JPEG AC run")
        blk[k] = _receive_extend(br, s) << al
        k += 1
    return eobrun


def _decode_ac_refine(br: _BitReader, blk: np.ndarray, ss: int, se: int,
                      al: int, ac_tab, eobrun: int) -> int:
    """Progressive AC refinement scan (Ah>0) for one block (G.1.2.3):
    newly-significant coefficients arrive as run+sign, history-nonzero
    coefficients absorb one correction bit each; EOB runs still carry
    correction bits for the rest of the band."""
    p1, m1 = 1 << al, -1 << al
    k = ss
    if eobrun == 0:
        while k <= se:
            rs = _huff_decode(br, ac_tab)
            r, s = rs >> 4, rs & 0x0F
            if s == 0:
                if r < 15:
                    eobrun = 1 << r
                    if r:
                        eobrun += br.read(r)
                    break
                coef = 0  # ZRL: skip 16 zero-history coefficients
            else:
                if s != 1:
                    raise NotImplementedError("invalid JPEG refinement magnitude")
                coef = p1 if br.read_bit() else m1
            while k <= se:
                if blk[k] != 0:
                    if br.read_bit() and (int(blk[k]) & p1) == 0:
                        blk[k] += p1 if blk[k] > 0 else m1
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if coef and k <= se:
                blk[k] = coef
            k += 1
    if eobrun > 0:
        while k <= se:
            if blk[k] != 0:
                if br.read_bit() and (int(blk[k]) & p1) == 0:
                    blk[k] += p1 if blk[k] > 0 else m1
            k += 1
        eobrun -= 1
    return eobrun


def _split_entropy(payload: bytes, start: int) -> tuple[list[bytes], int]:
    """Entropy-coded data from ``start`` → RST-delimited destuffed
    segments + the position of the next marker."""
    segments: list[bytes] = []
    cur = bytearray()
    p = start
    while p < len(payload):
        b = payload[p]
        if b == 0xFF:
            if p + 1 >= len(payload):
                p += 1
                break
            nb = payload[p + 1]
            if nb == 0x00:
                cur.append(0xFF)
                p += 2
                continue
            if 0xD0 <= nb <= 0xD7:  # RSTn
                segments.append(bytes(cur))
                cur = bytearray()
                p += 2
                continue
            break  # next real marker
        cur.append(b)
        p += 1
    segments.append(bytes(cur))
    return segments, p


def _decode_one_scan(segments: list[bytes], scan_comps, ss: int, se: int,
                     ah: int, al: int, frame: dict, coeffs: dict,
                     dc_tabs: dict, ac_tabs: dict, restart: int) -> None:
    """Decode one entropy-coded scan (sequential or any of the four
    progressive kinds) into the per-component coefficient arrays."""
    by_id = {c["id"]: c for c in frame["comps"]}
    progressive = frame["progressive"]
    comps = []
    for cid, td, ta in scan_comps:
        c = by_id.get(cid)
        if c is None:
            raise NotImplementedError("JPEG scan references an unknown component")
        dct, act = dc_tabs.get(td), ac_tabs.get(ta)
        needs_dc = (not progressive) or (ss == 0 and ah == 0)
        needs_ac = (not progressive) or ss > 0
        if (needs_dc and dct is None) or (needs_ac and act is None):
            raise NotImplementedError("JPEG scan references an undefined table")
        comps.append((c, dct, act))

    # unit schedule: interleaved scans walk the MCU grid, single-
    # component scans walk the component's own block raster (A.2.2)
    units: list[list[tuple]] = []
    if len(comps) > 1:
        for my in range(frame["mcus_y"]):
            for mx in range(frame["mcus_x"]):
                unit = []
                for c, dct, act in comps:
                    for dy in range(c["v"]):
                        for dx in range(c["h"]):
                            unit.append((c, dct, act, my * c["v"] + dy, mx * c["h"] + dx))
                units.append(unit)
    else:
        c, dct, act = comps[0]
        for by in range(c["nbh"]):
            for bx in range(c["nbw"]):
                units.append([(c, dct, act, by, bx)])

    seg_i = 0
    br = _BitReader(segments[0])
    preds = {c["id"]: 0 for c in frame["comps"]}
    eobrun = 0
    for n, unit in enumerate(units):
        if restart and n and n % restart == 0:
            seg_i += 1
            if seg_i >= len(segments):
                raise NotImplementedError("truncated JPEG: missing restart segment")
            br = _BitReader(segments[seg_i])
            preds = {c["id"]: 0 for c in frame["comps"]}
            eobrun = 0
        for c, dct, act, by, bx in unit:
            blk = coeffs[c["id"]][by, bx]
            if not progressive:
                preds[c["id"]] = _decode_block_seq(br, dct, act, preds[c["id"]], blk)
            elif ss == 0 and ah == 0:  # DC first
                s = _huff_decode(br, dct)
                preds[c["id"]] += _receive_extend(br, s)
                blk[0] = preds[c["id"]] << al
            elif ss == 0:  # DC refinement: one raw bit per block
                if br.read_bit():
                    blk[0] = int(blk[0]) | (1 << al)
            elif ah == 0:
                eobrun = _decode_ac_first(br, blk, ss, se, al, act, eobrun)
            else:
                eobrun = _decode_ac_refine(br, blk, ss, se, al, act, eobrun)


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Huffman JPEG → (H, W, C) uint8 (C = 1 gray / 3 RGB).

    Supports baseline (SOF0), extended sequential (SOF1) AND
    progressive (SOF2) with full spectral selection + successive
    approximation (DC first/refine, AC first/refine, EOB runs), 8-bit
    precision, sampling factors 1–2 (4:4:4 / 4:2:2 / 4:2:0), restart
    intervals; all scans accumulate into per-component coefficient
    arrays and one vectorized IDCT runs at the end.  Chroma upsampling
    is nearest-neighbour (deterministic; T.81 leaves the filter open).
    Arithmetic coding (SOF9+), hierarchical and 12-bit variants raise
    NotImplementedError."""
    if len(payload) < 4 or payload[:2] != b"\xff\xd8":
        raise NotImplementedError("not a JPEG payload")
    pos = 2
    qtabs: dict[int, np.ndarray] = {}
    dc_tabs: dict[int, dict] = {}
    ac_tabs: dict[int, dict] = {}
    frame = None
    restart = 0
    coeffs: dict[int, np.ndarray] = {}
    saw_scan = False
    while pos + 2 <= len(payload):
        if payload[pos] != 0xFF:
            raise NotImplementedError("desynchronized JPEG marker stream")
        marker = payload[pos + 1]
        if marker == 0xD9:  # EOI
            break
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:  # standalone markers
            pos += 2
            continue
        if pos + 4 > len(payload):
            break
        (ln,) = struct.unpack(">H", payload[pos + 2 : pos + 4])
        body = payload[pos + 4 : pos + 2 + ln]
        if marker == 0xDB:  # DQT (tables arrive zigzagged)
            o = 0
            while o < len(body):
                pq, tq = body[o] >> 4, body[o] & 0x0F
                if pq != 0:
                    raise NotImplementedError("16-bit JPEG quant tables")
                zzt = np.frombuffer(body, dtype=np.uint8, count=64, offset=o + 1)
                qtabs[tq] = zzt.astype(np.int64)
                o += 65
        elif marker == 0xC4:  # DHT
            o = 0
            while o < len(body):
                tc, th = body[o] >> 4, body[o] & 0x0F
                bits = list(body[o + 1 : o + 17])
                nv = sum(bits)
                vals = list(body[o + 17 : o + 17 + nv])
                (dc_tabs if tc == 0 else ac_tabs)[th] = _huff_decode_table(bits, vals)
                o += 17 + nv
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0/1 sequential, SOF2 progressive
            prec, fh, fw, nc = struct.unpack(">BHHB", body[:6])
            if prec != 8:
                raise NotImplementedError(f"{prec}-bit JPEG precision")
            comps = []
            for ci in range(nc):
                cid, hv, tq = body[6 + ci * 3 : 9 + ci * 3]
                hi, vi = hv >> 4, hv & 0x0F
                if hi not in (1, 2) or vi not in (1, 2):
                    raise NotImplementedError(f"JPEG sampling factor {hi}x{vi}")
                comps.append({"id": cid, "h": hi, "v": vi, "tq": tq})
            hmax = max(c["h"] for c in comps)
            vmax = max(c["v"] for c in comps)
            mcus_x = -(-fw // (8 * hmax))
            mcus_y = -(-fh // (8 * vmax))
            for c in comps:
                # non-interleaved block raster dims (A.2.2)
                c["nbh"] = -(-(-(-fh * c["v"] // vmax)) // 8)
                c["nbw"] = -(-(-(-fw * c["h"] // hmax)) // 8)
                coeffs[c["id"]] = np.zeros(
                    (mcus_y * c["v"], mcus_x * c["h"], 64), dtype=np.int32)
            frame = {"h": fh, "w": fw, "comps": comps, "hmax": hmax, "vmax": vmax,
                     "mcus_x": mcus_x, "mcus_y": mcus_y,
                     "progressive": marker == 0xC2}
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                "only sequential/progressive Huffman JPEG is supported "
                f"(SOF marker 0xFF{marker:02X})")
        elif marker == 0xDD:  # DRI
            (restart,) = struct.unpack(">H", body[:2])
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise NotImplementedError("JPEG SOS before SOF")
            ns = body[0]
            scan_comps = [(body[1 + i * 2], body[2 + i * 2] >> 4, body[2 + i * 2] & 0x0F)
                          for i in range(ns)]
            ss, se, a = body[1 + ns * 2 : 4 + ns * 2]
            segments, next_pos = _split_entropy(payload, pos + 2 + ln)
            _decode_one_scan(segments, scan_comps, ss, se, a >> 4, a & 0x0F,
                             frame, coeffs, dc_tabs, ac_tabs, restart)
            saw_scan = True
            pos = next_pos
            continue
        pos += 2 + ln
    if frame is None or not saw_scan:
        raise NotImplementedError("malformed JPEG: missing SOF/SOS")

    # dequantize + one vectorized IDCT per component
    fh, fw = frame["h"], frame["w"]
    hmax, vmax = frame["hmax"], frame["vmax"]
    planes = {}
    for c in frame["comps"]:
        qt = qtabs.get(c["tq"])
        if qt is None:
            raise NotImplementedError("JPEG component references an undefined quant table")
        co = coeffs[c["id"]].astype(np.float64)
        rm = np.zeros_like(co)
        rm[:, :, _JPEG_ZZ] = co * qt  # dezigzag + dequantize
        F = rm.reshape(co.shape[0], co.shape[1], 8, 8)
        f = np.einsum("ux,nmuv,vy->nmxy", _DCT_C, F, _DCT_C)
        plane = f.transpose(0, 2, 1, 3).reshape(co.shape[0] * 8, co.shape[1] * 8)
        planes[c["id"]] = np.clip(np.rint(plane + 128.0), 0, 255).astype(np.uint8)

    if len(frame["comps"]) == 1:
        return planes[frame["comps"][0]["id"]][:fh, :fw][:, :, None]
    full = []
    for c in frame["comps"]:
        p_ = planes[c["id"]]
        if c["h"] < hmax or c["v"] < vmax:
            p_ = np.repeat(np.repeat(p_, vmax // c["v"], axis=0), hmax // c["h"], axis=1)
        full.append(p_[:fh, :fw].astype(np.float64))
    y, cb, cr = full
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    return np.clip(np.rint(np.stack([r, g, b], axis=2)), 0, 255).astype(np.uint8)


# ---- GIF (GIF89a, LZW) ----------------------------------------------------
# Pure-Python GIF codec, from the public GIF89a specification.  The
# reference crawler classifies and fetches image/gif assets like any
# other image (content-type mapping around
# /root/reference/src/engine/crawler.rs:1557-1596); this gives the
# decode stages a fourth real web image container.  Single-frame,
# global/local color tables, interlace, deferred-clear LZW streams.


def _lzw_encode_gif(indices: np.ndarray, min_code_size: int) -> bytes:
    """GIF-variant LZW over palette indices, LSB-first bit packing.

    Code-width bump point derives from the decoder being exactly one
    dictionary entry behind the encoder at each read: the encoder
    bumps after its add leaves ``next == (1 << size) + 1``, which is
    the moment the decoder's own ``next`` hits ``1 << size``."""
    clear = 1 << min_code_size
    eoi = clear + 1
    acc = 0
    nbits = 0
    out = bytearray()

    def emit(code: int, size: int) -> None:
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += size
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    size = min_code_size + 1
    table: dict[tuple[int, int], int] = {}
    nxt = eoi + 1
    emit(clear, size)
    it = iter(indices.tolist())
    cur = next(it, None)
    if cur is not None:
        for k in it:
            key = (cur, k)
            hit = table.get(key)
            if hit is not None:
                cur = hit
                continue
            emit(cur, size)
            if nxt < 4096:
                table[key] = nxt
                nxt += 1
                if nxt == (1 << size) + 1 and size < 12:
                    size += 1
            else:
                # dictionary full: clear and restart (decoder resets too)
                emit(clear, size)
                table.clear()
                size = min_code_size + 1
                nxt = eoi + 1
            cur = k
        emit(cur, size)
    emit(eoi, size)
    if nbits:
        out.append(acc & 0xFF)
    # wrap in ≤255-byte sub-blocks + terminator
    blocks = bytearray()
    for off in range(0, len(out), 255):
        chunk = out[off : off + 255]
        blocks.append(len(chunk))
        blocks.extend(chunk)
    blocks.append(0)
    return bytes(blocks)


def _lzw_decode_gif(data: bytes, min_code_size: int, n_pixels: int) -> np.ndarray:
    """Inverse of :func:`_lzw_encode_gif`: concatenated sub-block bytes →
    palette indices.  Handles mid-stream clears and full-dictionary
    (deferred-clear) streams."""
    clear = 1 << min_code_size
    eoi = clear + 1
    base = [bytes([i]) for i in range(clear)] + [b"", b""]
    table = list(base)
    size = min_code_size + 1
    acc = 0
    nbits = 0
    pos = 0
    prev: bytes | None = None
    chunks: list[bytes] = []
    total = 0
    while total < n_pixels:
        while nbits < size:
            if pos >= len(data):
                raise NotImplementedError("truncated GIF LZW stream")
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        code = acc & ((1 << size) - 1)
        acc >>= size
        nbits -= size
        if code == clear:
            table = list(base)
            size = min_code_size + 1
            prev = None
            continue
        if code == eoi:
            break
        if code < len(table):
            entry = table[code]
        elif code == len(table) and prev is not None:
            entry = prev + prev[:1]
        else:
            raise NotImplementedError("corrupt GIF LZW code")
        chunks.append(entry)
        total += len(entry)
        if prev is not None and len(table) < 4096:
            table.append(prev + entry[:1])
            if len(table) == (1 << size) and size < 12:
                size += 1
        prev = entry
    flat = np.frombuffer(b"".join(chunks), dtype=np.uint8)
    if len(flat) < n_pixels:
        raise NotImplementedError("GIF LZW stream ended before the image did")
    return flat[:n_pixels]


_GIF_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))  # interlace (start, step)


def encode_gif(pixels: np.ndarray, interlace: bool = False) -> bytes:
    """(H, W, 3) / (H, W) uint8 → single-frame GIF89a with a global
    color table built from the image's unique colors (lossless;
    NotImplementedError above 256 distinct colors — GIF is a palette
    format and this codec does no quantization)."""
    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim == 2:
        px = np.stack([px] * 3, axis=2)
    if px.ndim == 3 and px.shape[2] == 1:
        px = np.repeat(px, 3, axis=2)
    h, w = px.shape[:2]
    flat = px.reshape(-1, 3)
    palette, inv = np.unique(flat, axis=0, return_inverse=True)
    if len(palette) > 256:
        raise NotImplementedError(f"GIF needs a ≤256-color palette (got {len(palette)})")
    pal_bits = max(1, int(np.ceil(np.log2(max(len(palette), 2)))))
    pal = np.zeros((1 << pal_bits, 3), np.uint8)
    pal[: len(palette)] = palette
    indices = inv.astype(np.uint8).reshape(h, w)
    if interlace:
        order = np.concatenate([np.arange(s, h, t) for s, t in _GIF_PASSES])
        indices = indices[order]
    min_code = max(2, pal_bits)
    out = bytearray(b"GIF89a")
    out += struct.pack("<HH", w, h)
    out.append(0x80 | ((pal_bits - 1) & 0x07))  # global table, 2^pal_bits entries
    out += b"\x00\x00"  # background index, aspect ratio
    out += pal.tobytes()
    out.append(0x2C)  # image descriptor
    out += struct.pack("<HHHH", 0, 0, w, h)
    out.append(0x40 if interlace else 0x00)
    out.append(min_code)
    out += _lzw_encode_gif(indices.reshape(-1), min_code)
    out.append(0x3B)
    return bytes(out)


def decode_gif(payload: bytes) -> np.ndarray:
    """First frame of a GIF87a/89a → (H, W, 3) uint8.  Global and
    local color tables, interlace, and extension blocks (skipped —
    transparency is ignored, the palette color is returned) are
    handled; malformed streams raise NotImplementedError."""
    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise NotImplementedError("not a GIF payload")
    pos = 6
    _, _, packed, _, _ = struct.unpack_from("<HHBBB", payload, pos)
    pos += 7
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        gct = np.frombuffer(payload, np.uint8, n * 3, pos).reshape(n, 3)
        pos += n * 3
    while pos < len(payload):
        block = payload[pos]
        pos += 1
        if block == 0x3B:  # trailer before any image
            break
        if block == 0x21:  # extension: label + sub-blocks
            pos += 1
            while payload[pos]:
                pos += 1 + payload[pos]
            pos += 1
            continue
        if block != 0x2C:
            raise NotImplementedError(f"unexpected GIF block 0x{block:02x}")
        _, _, w, h, ipacked = struct.unpack_from("<HHHHB", payload, pos)
        pos += 9
        pal = gct
        if ipacked & 0x80:
            n = 2 << (ipacked & 0x07)
            pal = np.frombuffer(payload, np.uint8, n * 3, pos).reshape(n, 3)
            pos += n * 3
        if pal is None:
            raise NotImplementedError("GIF image has no color table")
        min_code = payload[pos]
        pos += 1
        parts = []
        while payload[pos]:
            ln = payload[pos]
            parts.append(payload[pos + 1 : pos + 1 + ln])
            pos += 1 + ln
        idx = _lzw_decode_gif(b"".join(parts), min_code, w * h).reshape(h, w)
        if ipacked & 0x40:  # interlaced: rows arrive in 4 passes
            order = np.concatenate([np.arange(s, h, t) for s, t in _GIF_PASSES])
            rows = np.empty(h, np.int64)
            rows[order] = np.arange(h)
            idx = idx[rows]
        return pal[idx]
    raise NotImplementedError("GIF contains no image frame")


# ---- ICO (favicon container: PNG or header-less DIB entries) --------------


def encode_ico(pixels: np.ndarray, as_png: bool = False) -> bytes:
    """(H, W, 3|4) uint8 → single-entry ICO: a PNG entry
    (``as_png=True``, the modern favicon form) or a 32-bit BGRA DIB
    with the doubled-height header and an all-opaque AND mask."""
    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim == 2:
        px = np.stack([px] * 3, axis=2)
    h, w = px.shape[:2]
    if as_png:
        img = encode_png(px)
    else:
        if px.shape[2] == 3:
            px = np.concatenate([px, np.full((h, w, 1), 255, np.uint8)], axis=2)
        bgra = px[::-1, :, [2, 1, 0, 3]]  # bottom-up BGRA
        mask_stride = ((w + 31) // 32) * 4
        hdr = struct.pack("<IiiHHIIiiII", 40, w, 2 * h, 1, 32, 0,
                          h * w * 4 + h * mask_stride, 0, 0, 0, 0)
        img = hdr + bgra.tobytes() + b"\x00" * (h * mask_stride)
    entry = struct.pack("<BBBBHHII", w % 256, h % 256, 0, 0, 1, 32, len(img), 22)
    return struct.pack("<HHH", 0, 1, 1) + entry + img


def decode_ico(payload: bytes) -> np.ndarray:
    """First entry of an ICO favicon → (H, W, 3|4) uint8.  PNG entries
    route through :func:`decode_png`; DIB entries support 32-bit BGRA
    and 24-bit BGR with the 1-bit AND transparency mask; other DIB
    depths raise NotImplementedError."""
    if len(payload) < 22 or payload[:4] != b"\x00\x00\x01\x00":
        raise NotImplementedError("not an ICO payload")
    count = struct.unpack_from("<H", payload, 4)[0]
    if count < 1:
        raise NotImplementedError("empty ICO directory")
    size, off = struct.unpack_from("<II", payload, 6 + 8)
    img = payload[off : off + size]
    if img[:8] == _PNG_SIG:
        return decode_png(img)
    (hsz, w, h2, _planes, bpp, comp) = struct.unpack_from("<IiiHHI", img, 0)
    if hsz != 40 or comp != 0:
        raise NotImplementedError("unsupported ICO DIB header")
    h = h2 // 2  # doubled height: XOR image + AND mask
    pos = hsz
    if bpp == 32:
        xor = np.frombuffer(img, np.uint8, h * w * 4, pos).reshape(h, w, 4)
        rgba = xor[::-1, :, [2, 1, 0, 3]].copy()
        pos += h * w * 4
    elif bpp == 24:
        stride = ((w * 3 + 3) // 4) * 4
        rows = np.frombuffer(img, np.uint8, h * stride, pos).reshape(h, stride)
        bgr = rows[:, : w * 3].reshape(h, w, 3)
        rgb = bgr[::-1, :, ::-1]
        rgba = np.concatenate([rgb, np.full((h, w, 1), 255, np.uint8)], axis=2)
        pos += h * stride
    else:
        raise NotImplementedError(f"{bpp}-bit ICO DIB not supported (24/32/PNG only)")
    mask_stride = ((w + 31) // 32) * 4
    if pos + h * mask_stride <= len(img):
        mrows = np.frombuffer(img, np.uint8, h * mask_stride, pos).reshape(h, mask_stride)
        bits = np.unpackbits(mrows, axis=1)[:, :w][::-1]
        rgba = rgba.copy()
        rgba[:, :, 3] = np.where(bits == 1, 0, rgba[:, :, 3])
    if (rgba[:, :, 3] == 255).all():
        return rgba[:, :, :3].copy()
    return rgba


def decode_audio(payload: bytes) -> tuple[int, int, np.ndarray]:
    """Magic-byte dispatch: RIFF/WAVE 16-bit PCM, native FLAC or
    FORM/AIFF 16-bit PCM → (sample_rate, channels, samples);
    NotImplementedError otherwise (MP3/AAC/Ogg need codec libraries
    absent from this container)."""
    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        return decode_wav(payload)
    if payload[:4] == b"fLaC":
        from .codec_flac import decode_flac

        rate, ch, samples = decode_flac(payload)
        return rate, ch, samples.reshape(-1) if ch == 1 else samples
    if payload[:4] == b"FORM":
        return decode_aiff(payload)
    raise NotImplementedError(
        "unsupported audio container (WAV-PCM/FLAC/AIFF only)")


def decode_video(payload: bytes) -> dict:
    """Magic-byte dispatch: MP4/ISO-BMFF (``ftyp``), RIFF AVI or
    Matroska/WebM (EBML) → the frame/timestamp/duration dict;
    NotImplementedError otherwise.  Frame payloads stay opaque in all
    three supported containers (H.264/VP8/VP9 entropy decode needs
    codec libraries absent here)."""
    if len(payload) >= 12 and payload[4:8] == b"ftyp":
        from .codec_mp4 import decode_mp4

        return decode_mp4(payload)
    if payload[:4] == b"RIFF" and payload[8:12] == b"AVI ":
        from .codec_avi import decode_avi

        return decode_avi(payload)
    if payload[:4] == bytes.fromhex("1A45DFA3"):
        from .codec_mkv import decode_mkv

        return decode_mkv(payload)
    raise NotImplementedError(
        "unsupported video container (MP4/AVI/MKV-WebM only)")


def decode_image(payload: bytes) -> np.ndarray:
    """Magic-byte dispatch: BMP, PNG, baseline/progressive JPEG, GIF,
    lossless WebP (VP8L), ICO favicon or baseline TIFF → (H, W, C)
    uint8; NotImplementedError for everything else (lossy VP8 / AVIF
    need codecs absent from this container)."""
    if payload[:2] == b"BM":
        return decode_bmp(payload)
    if payload[:8] == _PNG_SIG:
        return decode_png(payload)
    if payload[:2] == b"\xff\xd8":
        return decode_jpeg(payload)
    if payload[:4] == b"GIF8":
        return decode_gif(payload)
    if payload[:4] == b"RIFF" and payload[8:12] == b"WEBP":
        from .codec_webp import decode_webp

        return decode_webp(payload)
    if payload[:4] == b"\x00\x00\x01\x00":
        return decode_ico(payload)
    if payload[:4] in (b"II*\x00", b"MM\x00*"):
        from .codec_tiff import decode_tiff

        return decode_tiff(payload)
    raise NotImplementedError(
        "unsupported image container "
        "(BMP/PNG/JPEG/GIF/WebP-lossless/ICO/TIFF only)")


def synthesize_real_media_table(n: int = 240) -> pa.Table:
    """Deterministic media corpus with REAL container payloads: images
    (``i % 3 == 0``), audio (``i % 3 == 1``) and MP4 video
    (``i % 3 == 2`` — real ISO-BMFF container, opaque frame payloads).
    Content is analytic in ``i`` so decode output has a closed-form
    arithmetic oracle:

    - image ``i``: width ``16+(i%8)*4``, height ``12+(i%5)*4``, every
      pixel channel ``(i*7)%256`` → mean pixel is exactly that value.
      The container cycles BMP → PNG → JPEG → GIF → WebP → TIFF
      across image rows (``(i//3)%6``); JPEG rows encode at quality
      100 (all-ones quant tables), where a constant-color image is
      DC-only and round-trips EXACTLY, and GIF / lossless-WebP /
      baseline-TIFF are exact by construction, so all six codecs
      share the same arithmetic oracle.  JPEG rows alternate 4:2:0 /
      4:4:4 chroma AND baseline / progressive (SOF2) coding — the
      full cross product over the cycle; GIF rows alternate
      interlaced / sequential; TIFF rows alternate PackBits /
      uncompressed and multi-strip / single-strip.
    - audio ``i``: 8 kHz, ``400+(i%7)*100`` samples, alternating
      ±(1000+10·i) square wave → RMS energy is exactly ``1000+10·i``,
      duration ``n_samples/8000``.  The container cycles WAV-PCM /
      FLAC / AIFF (``(i//3)%3``) — FLAC is lossless and AIFF is raw
      big-endian PCM, so all three share the oracle.
    - video ``i``: ``3+(i%5)`` opaque 256-byte frames (frame ``f``
      byte ``j`` is ``(i+256f+j)%256``) at 10 fps → duration is
      exactly ``(3+(i%5))·0.1`` s.  The container cycles MP4 / AVI /
      WebM (``(i//3)%3``): MP4 rows are a real stbl sample-table walk,
      AVI rows a real RIFF movi walk (alternating with/without idx1),
      WebM rows a real EBML cluster walk (alternating known/unknown
      Segment size) — all three share the oracle because the frame
      list and timing are container metadata.
    """
    kinds, payloads, mimes = [], [], []
    for i in range(n):
        m = i % 3
        if m == 0:
            w, h = 16 + (i % 8) * 4, 12 + (i % 5) * 4
            px = np.full((h, w, 3), (i * 7) % 256, dtype=np.uint8)
            kinds.append("image")
            fmt = (i // 3) % 6
            if fmt == 0:
                payloads.append(encode_bmp(px))
                mimes.append("image/bmp")
            elif fmt == 1:
                payloads.append(encode_png(px))
                mimes.append("image/png")
            elif fmt == 2:
                payloads.append(encode_jpeg(
                    px, quality=100,
                    subsampling="420" if (i // 3) % 2 == 0 else "444",
                    progressive=(i // 30) % 2 == 1))
                mimes.append("image/jpeg")
            elif fmt == 3:
                payloads.append(encode_gif(px, interlace=(i // 3) % 2 == 0))
                mimes.append("image/gif")
            elif fmt == 4:
                from .codec_webp import encode_webp

                payloads.append(encode_webp(px))
                mimes.append("image/webp")
            else:
                from .codec_tiff import encode_tiff

                payloads.append(encode_tiff(
                    px,
                    compression=32773 if (i // 3) % 2 == 0 else 1,
                    rows_per_strip=4 if (i // 6) % 2 == 0 else 1000))
                mimes.append("image/tiff")
        elif m == 1:
            ns, amp = 400 + (i % 7) * 100, 1000 + 10 * i
            samples = np.full(ns, amp, dtype=np.int16)
            samples[1::2] *= -1
            kinds.append("audio")
            afmt = (i // 3) % 3
            if afmt == 0:
                payloads.append(encode_wav(samples, 8000))
                mimes.append("audio/wav")
            elif afmt == 1:
                from .codec_flac import encode_flac

                payloads.append(encode_flac(samples.astype(np.int64), 8000,
                                            block_size=256, fixed_order=1))
                mimes.append("audio/flac")
            else:
                payloads.append(encode_aiff(samples, 8000))
                mimes.append("audio/aiff")
        else:
            kinds.append("video")
            raw = bytes((i + j) % 256 for j in range(256 * (3 + (i % 5))))
            fr = [raw[f * 256 : (f + 1) * 256] for f in range(3 + (i % 5))]
            vfmt = (i // 3) % 3
            if vfmt == 0:
                from .codec_mp4 import encode_mp4

                payloads.append(encode_mp4(fr, fps=10, timescale=1000))
                mimes.append("video/mp4")
            elif vfmt == 1:
                from .codec_avi import encode_avi

                payloads.append(encode_avi(
                    fr, fps=10, write_index=(i // 6) % 2 == 0))
                mimes.append("video/x-msvideo")
            else:
                from .codec_mkv import synthesize_mkv

                payloads.append(synthesize_mkv(
                    1, len(fr), cluster_ms=100 * len(fr), frames=fr,
                    unknown_segment_size=(i // 6) % 2 == 0))
                mimes.append("video/webm")
    return pa.table({
        "media_id": pa.array([f"m{i:05d}" for i in range(n)], pa.string()),
        "kind": pa.array(kinds, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "mime": pa.array(mimes, pa.string()),
    })


class ImageDecodeStage:
    """Actor stage: binary payload → (width, height, n_bytes) + feature
    vector.  ``decoder='real'`` decodes BMP, 8-bit PNG and baseline JPEG via
    :func:`decode_image` (features: overall + per-channel pixel means,
    /255) and raises NotImplementedError for other formats (PIL
    absent); ``'fake'`` derives dimensions deterministically from the
    payload hash so downstream layout code is exercisable on any
    input."""

    def __init__(self, decoder: str = "fake", feature_dim: int = 8):
        if decoder not in ("fake", "real"):
            raise ValueError(decoder)
        self.decoder = decoder
        self.feature_dim = feature_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_numpy(zero_copy_only=False)
        if self.decoder == "real":
            w = np.empty(len(payloads), np.int32)
            ht = np.empty(len(payloads), np.int32)
            sizes = np.empty(len(payloads), np.int64)
            feats = np.zeros((len(payloads), self.feature_dim))
            for i, p in enumerate(payloads):
                px = decode_image(p)  # BMP/PNG; NotImplementedError otherwise
                ht[i], w[i] = px.shape[0], px.shape[1]
                sizes[i] = len(p)
                means = px.reshape(-1, px.shape[2]).mean(axis=0)
                vals = [px.mean(), *means][: self.feature_dim]
                feats[i, : len(vals)] = np.round(np.array(vals) / 255.0, 6)
            return pa.table({
                "media_id": batch["media_id"],
                "width": pa.array(w),
                "height": pa.array(ht),
                "n_bytes": pa.array(sizes),
                "features": pa.array(list(feats), pa.list_(pa.float64())),
            })
        h = xxh64_strings([p for p in payloads])
        w = (h % np.uint64(1920)).astype(np.int32) + 16
        ht = ((h >> np.uint64(16)) % np.uint64(1080)).astype(np.int32) + 16
        sizes = np.fromiter((len(p) for p in payloads), dtype=np.int64, count=len(payloads))
        feats = np.empty((len(payloads), self.feature_dim))
        for j in range(self.feature_dim):
            feats[:, j] = ((h >> np.uint64(8 * (j % 8))) & np.uint64(0xFF)).astype(np.float64) / 255.0
        return pa.table(
            {
                "media_id": batch["media_id"],
                "width": pa.array(w),
                "height": pa.array(ht),
                "n_bytes": pa.array(sizes),
                "features": pa.array(list(feats), pa.list_(pa.float64())),
            }
        )


class AudioFrameSampleStage:
    """Actor stage: sample_rate/duration metadata + frame-level RMS
    energy from a binary payload.  ``decoder='real'`` parses RIFF/WAVE
    16-bit PCM or FLAC via :func:`decode_audio` (energy over raw
    sample values); other compressed audio raises.  ``'fake'`` treats
    the payload as 8-bit samples for plumbing tests."""

    def __init__(self, decoder: str = "fake", frames: int = 4):
        self.decoder = decoder
        self.frames = frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_numpy(zero_copy_only=False)
        energies = []
        durs = np.empty(len(payloads))
        for i, p in enumerate(payloads):
            if self.decoder == "real":
                rate, channels, samples = decode_audio(p)
                a = samples.reshape(-1).astype(np.float64)
                durs[i] = len(a) / channels / rate
            else:
                a = np.frombuffer(p, dtype=np.uint8).astype(np.float64)
                durs[i] = len(a) / 8000.0
            chunks = np.array_split(a, self.frames) if len(a) else [np.zeros(1)] * self.frames
            energies.append([round(float(np.sqrt((c**2).mean())), 6) for c in chunks])
        return pa.table(
            {
                "media_id": batch["media_id"],
                "duration_sec": pa.array(np.round(durs, 6)),
                "frame_energy": pa.array(energies, pa.list_(pa.float64())),
            }
        )


class VideoFrameSampleStage:
    """Actor stage: sample N evenly-spaced frames → per-frame byte
    slices + container timestamps + per-item duration.

    ``decoder='real'`` parses the container via :func:`decode_video`
    (MP4 ``stbl`` sample tables via :func:`codec_mp4.decode_mp4`, or
    AVI ``movi``/``idx1`` via :func:`codec_avi.decode_avi`); the frame
    PAYLOADS stay opaque (H.264/MJPEG entropy decode needs codec
    libraries absent here).  ``'fake'`` slices 256-byte pseudo-frames
    for plumbing tests."""

    def __init__(self, decoder: str = "fake", frames: int = 3, fps: float = 25.0):
        self.decoder = decoder
        self.frames = frames
        self.fps = fps

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_numpy(zero_copy_only=False)
        ids, fidx, ts, frames, durs = [], [], [], [], []
        mids = batch["media_id"].to_pylist()
        for mid, p in zip(mids, payloads):
            if self.decoder == "real":
                info = decode_video(p)  # MP4 stbl walk or AVI movi walk
                all_frames, all_ts = info["frames"], info["timestamps"]
                dur = info["duration_sec"]
            else:
                n_total = max(1, len(p) // 256)  # fake: 256 B per frame
                all_frames = [p[f * 256 : (f + 1) * 256] for f in range(n_total)]
                all_ts = [f / self.fps for f in range(n_total)]
                dur = n_total / self.fps
            step = max(1, len(all_frames) // self.frames)
            for k, f in enumerate(range(0, len(all_frames), step)[: self.frames]):
                ids.append(mid)
                fidx.append(k)
                ts.append(round(all_ts[f], 6))
                frames.append(all_frames[f])
                durs.append(round(dur, 6))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "frame_index": pa.array(fidx, pa.int32()),
                "timestamp_sec": pa.array(ts, pa.float64()),
                "duration_sec": pa.array(durs, pa.float64()),
                "frame": pa.array(frames, pa.binary()),
            }
        )


def decode_pipeline(media_ds, kind: str, stage_cls, concurrency: int = 2, batch_size: int = 16,
                    **stage_kwargs):
    """Wire a decode stage the scale-correct way: filter to the modality,
    small batches (wide binary rows), actor pool.  ``stage_kwargs`` go to
    the stage constructor (once per actor), e.g. ``decoder="real"``."""
    return media_ds.filter(expr=f"kind == '{kind}'").map_batches(
        stage_cls,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs=stage_kwargs or None,
    )
