"""Perceptual image hashing (stages/phash.py): kernel exactness,
container invariance, JPEG robustness, pinned hash values."""

import numpy as np
import pyarrow as pa
import pytest

from siteone_crawler_ray.stages.dedup import _hamming64
from siteone_crawler_ray.stages.multimodal import encode_bmp, encode_jpeg, encode_png
from siteone_crawler_ray.stages.phash import (
    ImagePHashStage,
    box32,
    dhash64,
    image_phash_batch,
    luma,
    phash64,
)


def _gradient(h, w, a=3, b=5, c=7):
    y, x = np.mgrid[0:h, 0:w]
    return ((a * x + b * y + c) % 256).astype(np.uint8)


def _box32_ref(g):
    """Brute-force bucket-mean twin of box32 (after the same nearest
    upsample for small sides)."""
    H, W = g.shape
    if H < 32:
        g = g[(np.arange(32) * H) // 32]
        H = 32
    if W < 32:
        g = g[:, (np.arange(32) * W) // 32]
        W = 32
    out = np.zeros((32, 32), np.int64)
    yb = (np.arange(H) * 32) // H
    xb = (np.arange(W) * 32) // W
    for by in range(32):
        for bx in range(32):
            cell = g[np.ix_(yb == by, xb == bx)].astype(np.int64)
            out[by, bx] = cell.sum() // cell.size
    return out


@pytest.mark.parametrize("h,w", [(32, 32), (45, 100), (33, 32), (64, 48), (20, 50), (12, 16)])
def test_box32_matches_bruteforce(h, w):
    g = _gradient(h, w).astype(np.int64)
    np.testing.assert_array_equal(box32(g), _box32_ref(g))


def test_box32_identity_on_32x32():
    g = _gradient(32, 32).astype(np.int64)
    assert box32(g) is not g  # returns an int64 view/copy
    np.testing.assert_array_equal(box32(g), g)


def test_luma_gray_equals_rgb_gray():
    g = _gradient(16, 16)
    rgb = np.repeat(g[:, :, None], 3, axis=2)
    np.testing.assert_array_equal(luma(g), luma(rgb))
    # RGBA: alpha ignored
    rgba = np.dstack([rgb, np.full_like(g, 200)])
    np.testing.assert_array_equal(luma(g), luma(rgba))


def test_phash_container_invariance_png_bmp():
    g = _gradient(40, 56)
    rgb = np.repeat(g[:, :, None], 3, axis=2)
    t = pa.table({
        "media_id": pa.array(["png", "bmp"]),
        "payload": pa.array([encode_png(rgb), encode_bmp(rgb)], pa.binary()),
    })
    out = image_phash_batch(t)
    ph = out["phash"].to_pylist()
    dh = out["dhash"].to_pylist()
    assert ph[0] == ph[1]
    assert dh[0] == dh[1]
    assert out["width"].to_pylist() == [56, 56]
    assert out["height"].to_pylist() == [40, 40]


def test_phash_robust_to_jpeg_reencode_and_far_for_random():
    rng = np.random.default_rng(11)
    g = _gradient(64, 64, a=2, b=3, c=50)
    rgb = np.repeat(g[:, :, None], 3, axis=2)
    t = pa.table({
        "media_id": pa.array(["orig", "jpeg", "noise"]),
        "payload": pa.array([
            encode_png(rgb),
            encode_jpeg(rgb, quality=92, subsampling="444"),
            encode_png(rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)),
        ], pa.binary()),
    })
    out = image_phash_batch(t)
    ph = np.array(out["phash"].to_pylist(), np.uint64)
    d_jpeg = _hamming64(ph[:1], ph[1:2])[0]
    d_noise = _hamming64(ph[:1], ph[2:3])[0]
    assert d_jpeg <= 10, d_jpeg
    assert d_noise >= 16, d_noise


def test_phash_sensitive_to_content():
    # wrapping (sawtooth) gradients are spectrally rich — pure linear
    # ramps all share one sparse sign pattern and legitimately collide
    a = np.repeat(_gradient(32, 32, a=23, b=17)[:, :, None], 3, axis=2)
    b = np.repeat(_gradient(32, 32, a=41, b=29)[:, :, None], 3, axis=2)
    t = pa.table({
        "media_id": pa.array(["a", "b"]),
        "payload": pa.array([encode_png(a), encode_png(b)], pa.binary()),
    })
    out = image_phash_batch(t)
    ph = np.array(out["phash"].to_pylist(), np.uint64)
    assert ph[0] != ph[1]


def test_phash_dhash_known_values_stable():
    """Pin the exact hash of one fixed input so any kernel change that
    would break the SQL oracle fails here first."""
    g32 = _gradient(32, 32).astype(np.int64)
    assert isinstance(phash64(g32), np.uint64)
    # recompute independently: fixed-point DCT with the module table
    from siteone_crawler_ray.stages.phash import PH_COS
    d = (PH_COS @ g32 @ PH_COS.T).ravel()
    med = np.sort(d[1:])[31]
    expect = 0
    for k in range(64):
        if d[k] > med:
            expect |= 1 << k
    assert int(phash64(g32)) == expect
    h8 = g32.reshape(8, 4, 8, 4).sum(axis=(1, 3)) // 16
    expect_d = 0
    for y in range(8):
        for x in range(8):
            if h8[y, x] > h8[y, (x + 1) % 8]:
                expect_d |= 1 << (y * 8 + x)
    assert int(dhash64(g32)) == expect_d
    # hard-coded literals: a change to PH_COS itself moves the
    # recomputation above in lockstep, these do not
    assert phash64(g32) == np.uint64(0x0000000000000001)
    assert dhash64(g32) == np.uint64(0x8080808080808080)
    # the linear ramp sets one pHash bit; a wrapping gradient sets 32
    rich = _gradient(32, 32, a=11, b=7, c=10).astype(np.int64)
    assert phash64(rich) == np.uint64(0xAC502DEA8DB8D2A7)
    assert dhash64(rich) == np.uint64(0x614386848C9898B0)
