"""Cuckoo / bloom / exact-set membership behavior, and the frontier's
first-wins kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from siteone_crawler_ray.stages.frontier import first_wins
from siteone_crawler_ray.state.filters import BloomFilter, CuckooFilter, ExactSeenSet


def _keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 2**63, size=n, dtype=np.int64).astype(np.uint64)


def test_cuckoo_no_false_negatives():
    cf = CuckooFilter(capacity=5000)
    ks = _keys(5000)
    cf.add_batch(ks)
    assert cf.contains_batch(ks).all()


def test_cuckoo_low_false_positive_rate():
    cf = CuckooFilter(capacity=5000)
    cf.add_batch(_keys(5000, seed=1))
    other = _keys(20000, seed=2)
    fpr = cf.contains_batch(other).mean()
    assert fpr < 0.01, fpr


def test_cuckoo_overflow_spills_not_drops():
    cf = CuckooFilter(capacity=64)
    ks = _keys(600, seed=3)  # way past capacity → forces eviction failures
    cf.add_batch(ks)
    assert cf.contains_batch(ks).all()  # still no false negatives


def test_bloom_membership():
    bf = BloomFilter(capacity=10000)
    ks = _keys(10000, seed=4)
    bf.add_batch(ks)
    assert bf.contains_batch(ks).all()
    fpr = bf.contains_batch(_keys(20000, seed=5)).mean()
    assert fpr < 0.01, fpr


def test_exact_seen_set():
    s = ExactSeenSet()
    a, b = _keys(1000, seed=6), _keys(1000, seed=7)
    s.add_batch(a)
    assert s.contains_batch(a).all()
    assert not s.contains_batch(b).any()
    s.add_batch(b[:10])
    got = s.contains_batch(b)
    assert got[:10].all() and not got[10:].any()
    assert len(s) == 1010
    snap = s.snapshot()
    s2 = ExactSeenSet(snap)
    assert s2.contains_batch(a).all() and len(s2) == len(s)


# a small key domain, so batches repeat keys within and across themselves
_batches = st.lists(st.lists(st.integers(0, 40), max_size=30), max_size=8)


@given(initial=st.lists(st.integers(0, 40), max_size=30), batches=_batches,
       probe=st.lists(st.integers(0, 40), max_size=30), as_int64=st.booleans())
@settings(max_examples=200, deadline=None)
def test_exact_seen_set_matches_a_python_set(initial, batches, probe, as_int64):
    """Duplicates within and across batches, empty batches, int64 or
    uint64 input: the set holds exactly the distinct keys, as one
    sorted array that round-trips through ``ExactSeenSet(snapshot)``."""
    dtype = np.int64 if as_int64 else np.uint64
    s = ExactSeenSet(np.array(initial, dtype=dtype) if initial else None)
    ref = set(initial)
    for b in batches:
        s.add_batch(np.array(b, dtype=dtype))
        ref.update(b)
        assert len(s) == len(ref)
    want = np.array(sorted(ref), dtype=np.uint64)
    assert np.array_equal(s.snapshot(), want)
    q = np.array(probe, dtype=dtype)
    assert s.contains_batch(q).tolist() == [k in ref for k in probe]
    again = ExactSeenSet(s.snapshot())
    assert np.array_equal(again.snapshot(), want)
    assert again.contains_batch(q).tolist() == [k in ref for k in probe]


def _first_wins_ref(prio, *keys):
    """Scalar first-wins: per key tuple, the row of the lowest priority,
    the earliest among equal ones."""
    best = {}
    for i, p in enumerate(prio):
        k = tuple(col[i] for col in keys)
        if k not in best or p < prio[best[k]]:
            best[k] = i
    return sorted(best.values())


@given(rows=st.lists(st.tuples(st.integers(0, 5), st.booleans(), st.integers(0, 8)),
                     max_size=60))
@settings(max_examples=200, deadline=None)
def test_first_wins_matches_a_scalar_reference(rows):
    """Single key and the (tag, key) composite of the workers' chunk
    dedup, with repeated priorities so ties go to the earliest row."""
    prio = np.array([r[0] for r in rows], dtype=np.int64)
    tag = np.array([r[1] for r in rows], dtype=bool)
    key = np.array([r[2] for r in rows], dtype=np.uint64)
    assert first_wins(prio, key).tolist() == _first_wins_ref(prio.tolist(), key.tolist())
    assert (first_wins(prio, tag, key).tolist()
            == _first_wins_ref(prio.tolist(), tag.tolist(), key.tolist()))


def test_bloom_union():
    """Per-block partials OR into a new filter of all their keys."""
    ks = _keys(30000, seed=9)
    parts = []
    for chunk in np.array_split(ks, 3):
        bf = BloomFilter(1 << 15, 0.025)
        bf.add_batch(chunk)
        parts.append(bf)
    merged = parts[0].union(*parts[1:])
    assert merged.contains_batch(ks).all()
    assert merged.contains_batch(_keys(20000, seed=10)).mean() < 0.05
    assert not parts[0].contains_batch(ks[-10000:]).all()  # union made a new filter


def test_cuckoo_fp_rate_ignores_partition_bits():
    """Keys of one frontier partition share ``url_key % num_shards``
    (their low bits).  The primary bucket must not be taken from those
    bits, or one partition's keys crowd 1/8 of the buckets and the
    false-positive rate climbs to ~5× that of uniform keys."""
    rng = np.random.default_rng(8)

    def full(n):
        return rng.integers(0, 2**64, size=n, dtype=np.uint64)

    def on_partition(k):
        return k - k % np.uint64(8) + np.uint64(3)

    ins, probe = full(8000), full(2_000_000)
    rates = []
    for f in (lambda k: k, on_partition):
        cf = CuckooFilter(capacity=1 << 14)
        cf.add_batch(f(ins))
        assert cf.contains_batch(f(ins)).all()
        rates.append(cf.contains_batch(f(probe)).mean())
    uniform, partition = rates
    assert 0 < uniform and partition <= 2 * uniform, (uniform, partition)


def test_cuckoo_fp_rate_ignores_key_range_bits():
    """Keys of one frontier owner lie in one contiguous url_key range,
    so they share their high bits.  Fingerprint and bucket come from a
    remixed key, so such keys see the false-positive rate of uniform
    keys (raw fingerprint bits 48-63 with the top 3 bits fixed gave
    ~7× the rate)."""
    rng = np.random.default_rng(8)

    def full(n):
        return rng.integers(0, 2**64, size=n, dtype=np.uint64)

    def in_range(k):  # the top 3 bits fixed: one of 8 equal key ranges
        return (k >> np.uint64(3)) | np.uint64(5 << 61)

    ins, probe = full(8000), full(2_000_000)
    rates = []
    for f in (lambda k: k, in_range):
        cf = CuckooFilter(capacity=1 << 14)
        cf.add_batch(f(ins))
        assert cf.contains_batch(f(ins)).all()
        rates.append(cf.contains_batch(f(probe)).mean())
    uniform, key_range = rates
    assert 0 < uniform and key_range <= 2 * uniform, (uniform, key_range)
