"""Hash kernels: vectorized xxhash64 for partition/dedup keys, MD5 uq_ids.

The north rule mandates xxhash64 URL keys.  No ``xxhash`` wheel ships in
this environment, so this module implements XXH64 (public algorithm,
github.com/Cyan4973/xxHash spec) twice:

- ``xxh64`` — scalar pure-Python reference (used in tests / the oracle),
- ``xxh64_strings`` — numpy-vectorized over a whole Arrow string column
  (the hot path inside ``map_batches``: one gather into a padded byte
  matrix, then O(maxlen/32) masked stripe rounds — no per-row Python).

``uq_id`` parity: the reference derives its display key as the first 8 hex
chars of MD5(full_url) (/root/reference/src/engine/crawler.rs:1642-1649).
We keep that for output parity (``uq_ids``) and use xxhash64 for all
partition / dedup keys (``url_key``).
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = (1 << 64) - 1
_P1 = 11400714785074694791
_P2 = 14029467366897019727
_P3 = 1609587929392839161
_P4 = 9650029242287828579
_P5 = 2870177450012600261

U = np.uint64
_UP1, _UP2, _UP3, _UP4, _UP5 = U(_P1), U(_P2), U(_P3), U(_P4), U(_P5)


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _MASK


def xxh64(data: bytes | str, seed: int = 0) -> int:
    """Scalar XXH64. Reference implementation for tests and the oracle."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    n = len(data)
    p = 0
    if n >= 32:
        v1 = (seed + _P1 + _P2) & _MASK
        v2 = (seed + _P2) & _MASK
        v3 = seed & _MASK
        v4 = (seed - _P1) & _MASK
        while p + 32 <= n:
            for _ in range(1):
                lanes = [int.from_bytes(data[p + 8 * i : p + 8 * i + 8], "little") for i in range(4)]
            v1 = (_rotl((v1 + lanes[0] * _P2) & _MASK, 31) * _P1) & _MASK
            v2 = (_rotl((v2 + lanes[1] * _P2) & _MASK, 31) * _P1) & _MASK
            v3 = (_rotl((v3 + lanes[2] * _P2) & _MASK, 31) * _P1) & _MASK
            v4 = (_rotl((v4 + lanes[3] * _P2) & _MASK, 31) * _P1) & _MASK
            p += 32
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _MASK
        for v in (v1, v2, v3, v4):
            h = ((h ^ (_rotl((v * _P2) & _MASK, 31) * _P1) & _MASK) * _P1 + _P4) & _MASK
    else:
        h = (seed + _P5) & _MASK
    h = (h + n) & _MASK
    while p + 8 <= n:
        k1 = int.from_bytes(data[p : p + 8], "little")
        k1 = (_rotl((k1 * _P2) & _MASK, 31) * _P1) & _MASK
        h = (_rotl(h ^ k1, 27) * _P1 + _P4) & _MASK
        p += 8
    if p + 4 <= n:
        k1 = int.from_bytes(data[p : p + 4], "little")
        h = (_rotl(h ^ (k1 * _P1) & _MASK, 23) * _P2 + _P3) & _MASK
        p += 4
    while p < n:
        h = (_rotl(h ^ (data[p] * _P5) & _MASK, 11) * _P1) & _MASK
        p += 1
    h ^= h >> 33
    h = (h * _P2) & _MASK
    h ^= h >> 29
    h = (h * _P3) & _MASK
    h ^= h >> 32
    return h


def _gather_bytes(strings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather a string/binary column into (data, starts, lens) — the raw
    concatenated byte stream plus per-row offsets, with NO padding.

    Accepts a pyarrow (Chunked)Array, numpy array, pandas Series or list of
    str/bytes.
    """
    import pyarrow as pa

    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if isinstance(strings, pa.Array):
        t = strings.type
        if pa.types.is_string(t) or pa.types.is_binary(t):
            odt = np.int32
        elif pa.types.is_large_string(t) or pa.types.is_large_binary(t):
            odt = np.int64
        else:
            strings = strings.cast(pa.string())
            odt = np.int32
        bufs = strings.buffers()
        offs = np.frombuffer(bufs[1], dtype=odt)[strings.offset : strings.offset + len(strings) + 1]
        data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
        starts = offs[:-1].astype(np.int64)
        lens = (offs[1:] - offs[:-1]).astype(np.int64)
    else:
        items = [s.encode("utf-8") if isinstance(s, str) else bytes(s) for s in strings]
        lens = np.fromiter((len(b) for b in items), dtype=np.int64, count=len(items))
        data = np.frombuffer(b"".join(items), dtype=np.uint8)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]]) if len(items) else np.empty(0, np.int64)
    return data, starts, lens


def _pad_matrix(data: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Zero-padded (n, W) uint8 matrix for the given rows.  W is a multiple
    of 8 and >= 32 so uint64 lane views and the 32-byte tail gather never
    go out of bounds.

    Rows contiguous in `data` (the layout of any Arrow string column, and
    of every ``take``-compacted subset) use a 2-pass index build; scattered
    rows pay one extra gather pass."""
    n = len(lens)
    maxlen = int(lens.max()) if n else 0
    W = max(32, -(-maxlen // 8) * 8)
    mat = np.zeros((n, W), dtype=np.uint8)
    if n and maxlen:
        total = int(lens.sum())
        rows = np.repeat(np.arange(n, dtype=np.int64), lens)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(lens)[:-1]]), lens
        )
        if n == 1 or bool((starts[1:] == starts[:-1] + lens[:-1]).all()):
            chunk = data[starts[0] : starts[0] + total]
        else:
            chunk = data[np.repeat(starts, lens) + within]
        mat.reshape(-1)[rows * W + within] = chunk
    return mat


def _vrotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << U(r)) | (x >> U(64 - r))


def xxh64_strings(strings, seed: int = 0) -> np.ndarray:
    """Vectorized XXH64 over a column of strings → uint64 ndarray.

    Bit-exact with :func:`xxh64` (property-tested).  Cost is a handful of
    masked numpy passes over padded byte matrices — no Python per row.

    Rows are processed in power-of-two width classes so one pathological
    2 KB URL in a batch of 60 k short URLs does NOT pad the whole batch to
    2 KB wide: the stripe loop is O(class maxlen) over only that class's
    rows, keeping total work linear in total bytes instead of
    O(n × global maxlen).  (This was a real 3× extract-phase regression on
    large crawl waves, which almost always contain at least one very long
    href.)
    """
    import pyarrow as pa

    arr = _as_arrow(strings)
    _, _, lens = _gather_bytes(arr)
    n = len(lens)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    maxlen = int(lens.max())
    if maxlen <= 64:
        return _xxh64_matrix(_rpad_matrix(arr, maxlen), lens, seed)
    # width classes: <=64, <=128, ..., each a power of two
    wclass = np.maximum(64, lens - 1).astype(np.float64)
    wclass = np.ceil(np.log2(wclass + 1)).astype(np.int64)
    out = np.empty(n, dtype=np.uint64)
    for c in np.unique(wclass):
        idx = np.nonzero(wclass == c)[0]
        # take() compacts the class into a contiguous buffer (C++ memcpy)
        sub = arr.take(pa.array(idx))
        ln = lens[idx]
        out[idx] = _xxh64_matrix(_rpad_matrix(sub, int(ln.max())), ln, seed)
    return out


def _rpad_matrix(arr, maxlen: int) -> np.ndarray:
    """(n, W) uint8 matrix from an Arrow string array, zero-padded in C++.

    ``ascii_rpad`` pads to a BYTE width (verified: "héllo" → width 10 →
    10 bytes), so after padding every row is exactly W bytes and the data
    buffer IS the matrix — no numpy per-byte index arrays, which on a
    memory-bound box cost ~10× the hash itself.  Binary arrays (no rpad
    kernel) fall back to the numpy scatter."""
    import pyarrow as pa
    import pyarrow.compute as pc

    n = len(arr)
    W = max(32, -(-maxlen // 8) * 8)
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        padded = pc.ascii_rpad(arr, width=W, padding="\x00")
        bufs = padded.buffers()
        odt = np.int64 if pa.types.is_large_string(padded.type) else np.int32
        offs = np.frombuffer(bufs[1], dtype=odt)[padded.offset : padded.offset + n + 1]
        if n == 0 or (int(offs[-1]) - int(offs[0])) == n * W:
            data = np.frombuffer(bufs[2], dtype=np.uint8)
            return data[int(offs[0]) : int(offs[0]) + n * W].reshape(n, W)
    data, starts, lens = _gather_bytes(arr)
    return _pad_matrix(data, starts, lens)


def _as_arrow(strings):
    """Coerce any accepted column type to a flat pyarrow Array."""
    import pyarrow as pa

    if isinstance(strings, pa.ChunkedArray):
        return strings.combine_chunks()
    if isinstance(strings, pa.Array):
        return strings
    try:
        return pa.array(strings, type=pa.string())
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        items = [s.encode("utf-8") if isinstance(s, str) else bytes(s) for s in strings]
        return pa.array(items, type=pa.binary())


def _xxh64_matrix(mat: np.ndarray, lens: np.ndarray, seed: int = 0) -> np.ndarray:
    """XXH64 over a zero-padded (n, W) uint8 matrix (W % 8 == 0, W >= 32)."""
    n = len(lens)
    with np.errstate(over="ignore"):
        ulens = lens.astype(np.uint64)
        u64 = mat.view("<u8")
        nstripes = lens // 32
        long_mask = lens >= 32

        h = np.full(n, U((seed + _P5) & _MASK), dtype=np.uint64)
        if long_mask.any():
            v1 = np.full(n, U((seed + _P1 + _P2) & _MASK))
            v2 = np.full(n, U((seed + _P2) & _MASK))
            v3 = np.full(n, U(seed & _MASK))
            v4 = np.full(n, U((seed - _P1) & _MASK))
            for i in range(int(nstripes.max())):
                m = nstripes > i
                b = 4 * i
                for vi, v in enumerate((v1, v2, v3, v4)):
                    nv = _vrotl(v + u64[:, b + vi] * _UP2, 31) * _UP1
                    v[m] = nv[m]
            hm = _vrotl(v1, 1) + _vrotl(v2, 7) + _vrotl(v3, 12) + _vrotl(v4, 18)
            for v in (v1, v2, v3, v4):
                hm = (hm ^ (_vrotl(v * _UP2, 31) * _UP1)) * _UP1 + _UP4
            h[long_mask] = hm[long_mask]
        h = h + ulens

        # gather the ≤31-byte tail of every row into a fixed (n, 32) matrix.
        # group rows by stripe count: each group's tail is a plain column
        # slice (C-level strided copy), no per-byte index arrays.  padding
        # bytes are already zero, so over-copying past `rem` is harmless.
        tail_start = nstripes * 32
        rem = lens - tail_start
        W = mat.shape[1]
        tail = np.zeros((n, 32), dtype=np.uint8)
        for k in np.unique(nstripes):
            b = int(k) * 32
            if b >= W:
                continue  # rem == 0 for these rows
            m = nstripes == k
            blk = mat[m, b : b + 32]
            tail[m, : blk.shape[1]] = blk
        t64 = tail.view("<u8")
        t32 = tail.view("<u4")

        n8 = rem >> 3
        for j in range(3):
            m = n8 > j
            if not m.any():
                break
            k1 = _vrotl(t64[:, j] * _UP2, 31) * _UP1
            nh = _vrotl(h ^ k1, 27) * _UP1 + _UP4
            h[m] = nh[m]
        has4 = (rem & 4).astype(bool)
        if has4.any():
            lane32 = t32[np.arange(n), n8 * 2].astype(np.uint64)
            nh = _vrotl(h ^ (lane32 * _UP1), 23) * _UP2 + _UP3
            h[has4] = nh[has4]
        bytepos = (n8 << 3) + np.where(has4, 4, 0)
        nbytes = rem & 3
        for j in range(3):
            m = nbytes > j
            if not m.any():
                break
            b = tail[np.arange(n), bytepos + j].astype(np.uint64)
            nh = _vrotl(h ^ (b * _UP5), 11) * _UP1
            h[m] = nh[m]

        h ^= h >> U(33)
        h *= _UP2
        h ^= h >> U(29)
        h *= _UP3
        h ^= h >> U(32)
    return h


# -- splitmix64 ----------------------------------------------------------------
# The avalanche mixer of the sketches (stages/sketch.py), the sampling
# keys, the cuckoo filter and the bloom probes (state/filters.py).

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 (Steele et al. 2014, the JDK
    SplittableRandom finalizer after its gamma step), uint64 in/out:
    every output bit depends on every input bit."""
    x = x.view(np.uint64) if x.dtype == np.int64 else x.astype(np.uint64)
    with np.errstate(over="ignore"):
        z = x + np.uint64(_SM_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_MUL2)
        return z ^ (z >> np.uint64(31))


def in_sorted(sorted_keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Membership mask of ``x`` in the ascending array ``sorted_keys``
    (one ``searchsorted``, no per-call sort of the big side)."""
    if not len(sorted_keys):
        return np.zeros(len(x), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, x), len(sorted_keys) - 1)
    return sorted_keys[pos] == x


def uq_id(url: str) -> str:
    """8-hex-char MD5 prefix, matching the reference's display key
    (/root/reference/src/engine/crawler.rs:1642-1649)."""
    return hashlib.md5(url.encode("utf-8")).hexdigest()[:8]


def uq_ids(urls) -> np.ndarray:
    """MD5[:8] per URL. Only computed on visited rows (output parity),
    never used as a partition key — xxh64_strings is the hot key path."""
    return np.array([hashlib.md5(u.encode("utf-8")).hexdigest()[:8] for u in urls], dtype=object)


def md5_u64(data: bytes | str) -> int:
    """First 8 bytes of MD5 as a big-endian uint64.

    SQL-expressible twin of :func:`xxh64`: DuckDB reproduces it as
    ``CAST(CONCAT('0x', SUBSTR(md5(s), 1, 16)) AS UBIGINT)``, so any
    signature kernel parametrized with this hasher gets a real DuckDB
    oracle.  xxh64 stays the production/partition-key hash (faster,
    vectorized); this backend exists for driver-verifiable runs."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(hashlib.md5(data).digest()[:8], "big")


def md5_u64_strings(strings) -> np.ndarray:
    """md5_u64 over a sequence / Arrow column of strings → uint64 array.

    hashlib.md5 is a C call per string (~0.7 µs); this path is only
    used by oracle-verified slots, never as the scale partition hash."""
    try:  # Arrow column → python list
        strings = strings.to_pylist()
    except AttributeError:
        pass
    md5 = hashlib.md5
    return np.fromiter(
        (int.from_bytes(md5(s.encode("utf-8")).digest()[:8], "big") for s in strings),
        dtype=np.uint64, count=len(strings),
    )


# -- url_key ranges ----------------------------------------------------------
# The one key partitioning of the crawl: corpus buckets
# (sources/corpus.py), fetch workers and frontier owners
# (stages/frontier.py) each cut the url_key space into n contiguous
# ranges here.

KEY_SPACE = 1 << 64


def key_bounds(n: int) -> list[int]:
    """Range j of n holds url_keys ``[b[j], b[j + 1])``, ``b[j] =
    ceil(j·2^64 / n)``: contiguous, covering [0, 2^64), sizes differing
    by at most one."""
    return [-(-j * KEY_SPACE // n) for j in range(n + 1)]


def range_index(keys, n: int) -> np.ndarray:
    """Range of :func:`key_bounds` (n) holding each url_key."""
    cuts = np.array(key_bounds(n)[1:-1], dtype=np.uint64)
    return np.searchsorted(cuts, np.asarray(keys, dtype=np.uint64), side="right")


def key_span(sorted_keys: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """Index span ``[a, b)`` of the keys in ``[lo, hi)`` within an
    ascending uint64 array."""
    if lo >= hi:
        return 0, 0
    return (int(np.searchsorted(sorted_keys, np.uint64(lo))),
            int(np.searchsorted(sorted_keys, np.uint64(hi - 1), side="right")))
