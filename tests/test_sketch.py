"""HyperLogLog sketch (stages/sketch.py): exact register arithmetic vs
a scalar reference, merge algebra, estimate accuracy, and the
distributed path's partition independence."""

import numpy as np
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _scalar_splitmix64(x):
    M = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M
    return z ^ (z >> 31)


def _scalar_registers(keys, p=12):
    nbits = 32 - p
    reg = [0] * (1 << p)
    for k in keys:
        h32 = _scalar_splitmix64(int(k)) >> 32
        b, rem = h32 >> nbits, h32 & ((1 << nbits) - 1)
        rank = nbits + 1 if rem == 0 else nbits - rem.bit_length() + 1
        reg[b] = max(reg[b], rank)
    return np.array(reg, dtype=np.uint8)


def test_registers_match_scalar_reference():
    from siteone_crawler_ray.stages.sketch import hll_registers

    keys = np.arange(0, 50_000, 7, dtype=np.int64)
    np.testing.assert_array_equal(hll_registers(keys), _scalar_registers(keys))


def test_merge_algebra_and_partition_independence():
    from siteone_crawler_ray.stages.sketch import (
        hll_estimate,
        hll_merge,
        hll_registers,
    )

    keys = np.arange(10_000, dtype=np.int64) * 13
    whole = hll_registers(keys)
    parts = [hll_registers(c) for c in np.array_split(keys, 7)]
    np.testing.assert_array_equal(hll_merge(*parts), whole)
    # idempotent + commutative
    np.testing.assert_array_equal(hll_merge(whole, whole), whole)
    np.testing.assert_array_equal(hll_merge(parts[2], parts[0]),
                                  hll_merge(parts[0], parts[2]))
    assert hll_estimate(hll_merge(*parts)) == hll_estimate(whole)


def test_estimate_accuracy_and_small_range():
    from siteone_crawler_ray.stages.sketch import hll_estimate, hll_registers

    # p=8 -> sigma ~ 1.04/sqrt(256) = 6.5%; allow 3 sigma.  Sequential
    # keys are the adversarial case that killed the lattice-structured
    # multiplicative hash (10x off) — splitmix64 must hold there too.
    for n in (1_000, 20_000):
        for keys in (np.arange(n, dtype=np.int64),
                     np.arange(n, dtype=np.int64) * 1_000_003 + 17):
            est = hll_estimate(hll_registers(keys))
            assert abs(est - n) / n < 0.20, (n, est)
    # linear-counting branch: tiny cardinalities stay near-exact
    est = hll_estimate(hll_registers(np.arange(30, dtype=np.int64)))
    assert abs(est - 30) < 5


def test_cms_never_undercounts_and_is_tight_on_heavy_hitters():
    from siteone_crawler_ray.stages.sketch import cms_counts, cms_estimate

    rng = np.random.default_rng(3)
    # zipf-ish: a few heavy keys + a long tail
    keys = np.concatenate([
        np.repeat(np.arange(5, dtype=np.int64), 2_000),
        rng.integers(100, 10_000, size=20_000),
    ])
    c = cms_counts(keys)
    uniq, true = np.unique(keys, return_counts=True)
    est = cms_estimate(c, uniq)
    assert (est >= true).all()  # CMS only over-counts
    # error bound: ~2N/w with high probability
    assert (est - true).max() <= 2 * len(keys) / 1024 * 3
    # heavy hitters essentially exact
    np.testing.assert_array_equal(est[:5] - true[:5] <= len(keys) // 512,
                                  [True] * 5)


def test_cms_merge_by_add_and_scalar_rule():
    from siteone_crawler_ray.functions.hashing import splitmix64
    from siteone_crawler_ray.stages.sketch import cms_counts, cms_estimate

    keys = np.arange(4_000, dtype=np.int64) % 97
    whole = cms_counts(keys)
    parts = sum(cms_counts(chunk) for chunk in np.array_split(keys, 5))
    np.testing.assert_array_equal(parts, whole)
    # scalar rule: bucket_j(k) = splitmix64(4k + j) % 1024
    k = np.int64(42)
    for j in range(4):
        b = int(splitmix64(np.array([4 * k + j])) % np.uint64(1024))
        assert whole[j][b] >= np.count_nonzero(keys == k)
    assert cms_estimate(whole, np.array([42], dtype=np.int64))[0] >= \
        np.count_nonzero(keys == 42)


def test_cms_distributed_matches_local():
    import ray.data as rd

    from siteone_crawler_ray.stages.sketch import (
        approx_group_counts,
        cms_counts,
        cms_estimate,
    )

    keys = (np.arange(9_000, dtype=np.int64) % 131) * 7
    t = pa.table({"k": pa.array(keys)})
    ds = rd.from_arrow([t.slice(i, 1_000) for i in range(0, len(keys), 1_000)])
    q = np.unique(keys)
    np.testing.assert_array_equal(
        approx_group_counts(ds, "k", q), cms_estimate(cms_counts(keys), q))


def test_distributed_matches_local():
    import ray.data as rd

    from siteone_crawler_ray.stages.sketch import (
        approx_distinct,
        hll_estimate,
        hll_registers,
    )

    keys = np.arange(5_000, dtype=np.int64) * 31
    t = pa.table({"k": pa.array(np.repeat(keys, 3))})  # dups change nothing
    step = 1_111
    ds = rd.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)])
    assert approx_distinct(ds, "k") == hll_estimate(hll_registers(keys))


def test_tree_merge_paths_agree(monkeypatch):
    """Force the remote tree reduction (threshold 4, fanin 3) over many
    blocks: HLL and CMS results must be identical to the driver-loop
    path — the coded scale route for extreme block counts."""
    import ray.data as rd

    import siteone_crawler_ray.stages.sketch as sk

    keys = (np.arange(6_000, dtype=np.int64) % 997) * 13
    t = pa.table({"k": pa.array(keys)})
    ds = lambda: rd.from_arrow(  # noqa: E731 — 30 blocks
        [t.slice(i, 200) for i in range(0, len(keys), 200)])
    q = np.unique(keys)
    plain_hll = sk.approx_distinct(ds(), "k")
    plain_cms = sk.approx_group_counts(ds(), "k", q)
    monkeypatch.setattr(sk, "_TREE_THRESHOLD", 4)
    monkeypatch.setattr(sk, "_TREE_FANIN", 3)
    assert sk.approx_distinct(ds(), "k") == plain_hll
    np.testing.assert_array_equal(sk.approx_group_counts(ds(), "k", q), plain_cms)


# ------------------------------------------------------------ grouped HLL


def test_grouped_partial_matches_per_group_registers():
    from siteone_crawler_ray.stages.sketch import grouped_hll_partial, hll_registers

    rng = np.random.default_rng(7)
    groups = np.array(["a", "b", "c"])[rng.integers(0, 3, 5000)]
    keys = rng.integers(0, 1 << 40, 5000)
    uniq, regs = grouped_hll_partial(groups, keys)
    assert list(uniq) == ["a", "b", "c"]
    for i, g in enumerate(uniq):
        np.testing.assert_array_equal(regs[i], hll_registers(keys[groups == g]))


def test_hll_estimates_vector_matches_scalar():
    from siteone_crawler_ray.stages.sketch import (
        hll_estimate,
        hll_estimates,
        hll_registers,
    )

    regs = np.stack([
        hll_registers(np.arange(n, dtype=np.int64) * 31 + 5)
        for n in (3, 700, 60_000)  # linear-counting, mid, raw branches
    ])
    vec = hll_estimates(regs)
    for i in range(len(regs)):
        assert vec[i] == hll_estimate(regs[i])


def test_approx_distinct_by_both_paths_and_partition_independence(monkeypatch):
    import ray.data as rd

    from siteone_crawler_ray.stages import dedup, sketch

    rng = np.random.default_rng(11)
    n = 20_000
    groups = np.array(["x", "y", "zz", "w"])[rng.integers(0, 4, n)]
    # per-group distinct scales differ: key space |g| differs per group
    space = {"x": 50, "y": 5_000, "zz": 400, "w": 37}
    keys = np.array([rng.integers(0, space[g]) for g in groups], np.int64)
    t = pa.table({"g": groups, "k": keys})

    def run(ds):
        return sketch.approx_distinct_by(ds, "g", "k", p=10)

    driver = run(rd.from_arrow(t))
    assert driver["g"].to_pylist() == ["w", "x", "y", "zz"]
    # estimates within 3*sigma (1.04/sqrt(1024) ~ 3.3%) of exact
    for g, est in zip(driver["g"].to_pylist(),
                      driver["approx_distinct"].to_pylist()):
        exact = len(np.unique(keys[groups == g]))
        assert abs(est - exact) / exact < 0.10, (g, est, exact)

    # block layout must not change the answer (register max-merge)
    relaid = run(rd.from_arrow(t).repartition(13))
    assert relaid.equals(driver)

    # force the hash-scatter merge path: same table, byte-identical
    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", 0)
    scattered = run(rd.from_arrow(t).repartition(6))
    assert scattered.equals(driver)


def test_grouped_hll_combine_budget_counts_bytes(monkeypatch):
    """The gather-or-scatter rule counts bytes, not rows: 400 register
    partial rows (4 KiB each at p=12) exceed a 1 MiB budget, so the
    merge takes the scatter path — and returns the driver path's
    table."""
    import ray.data as rd

    from siteone_crawler_ray.stages import dedup, sketch

    rng = np.random.default_rng(5)
    n = 8_000
    t = pa.table({
        "g": np.array([f"g{i:02d}" for i in range(40)])[rng.integers(0, 40, n)],
        "k": rng.integers(0, 10**6, n).astype(np.int64),
    })
    calls = []
    scatter = dedup._scatter_exchange

    def spy(*args, **kwargs):
        calls.append(1)
        return scatter(*args, **kwargs)

    monkeypatch.setattr(dedup, "_scatter_exchange", spy)

    def run():  # 10 blocks × 40 groups = 400 partial rows, ~1.6 MiB
        return sketch.approx_distinct_by(
            rd.from_arrow([t.slice(i, 800) for i in range(0, n, 800)]), "g", "k", p=12)

    driver = run()
    assert calls == [] and driver.num_rows == 40
    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", 1 << 20)
    scattered = run()
    assert calls == [1]
    assert scattered.equals(driver)


def test_grouped_oracle_sql_matches_engine(tmp_path):
    import duckdb
    import pyarrow.parquet as pq
    import ray.data as rd

    from siteone_crawler_ray.stages.sketch import (
        approx_distinct_by,
        hll_grouped_oracle_sql,
    )

    rng = np.random.default_rng(3)
    t = pa.table({
        "g": np.array(["p", "q", "r"])[rng.integers(0, 3, 8000)],
        "k": rng.integers(0, 900, 8000).astype(np.int64),
    })
    pq.write_table(t, tmp_path / "t.parquet")
    eng = approx_distinct_by(rd.from_arrow(t), "g", "k", p=12)
    con = duckdb.connect()
    sql = hll_grouped_oracle_sql("g", "k", f"read_parquet('{tmp_path}/t.parquet')")
    ora = con.execute(f"SELECT g, approx FROM {sql} ORDER BY g").fetchall()
    assert [g for g, _ in ora] == eng["g"].to_pylist()
    # the register algebra is bit-exact on both sides; the final
    # linear-counting branch applies one transcendental (ln), where
    # numpy and DuckDB libm may differ by 1 ulp — hence 1e-12 relative,
    # far inside the round(,3) the driver slot applies
    np.testing.assert_allclose(
        [a for _, a in ora], eng["approx_distinct"].to_pylist(), rtol=1e-12)
