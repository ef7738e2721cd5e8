"""Mergeable cardinality sketch (HyperLogLog, Flajolet et al. 2007) —
the classic 100-TB aggregation primitive: per-block register partials
combine with an element-wise ``max``, so a distinct-count over any data
size reduces to shipping one 2^p-byte array per block (tree-mergeable;
no shuffle, no exact-distinct set ever materializes).

The hash is splitmix64 (Steele et al. 2014, the JDK SplittableRandom
finalizer) — a true avalanche mixer, because HLL register statistics
need pseudorandom bits: the engine's usual multiplicative-hash rule is
a low-discrepancy LATTICE on arithmetic-progression keys (sequential
order ids!) and was measured 10× off.  splitmix64 is still fully
SQL-expressible — xor via ``xor(UBIGINT)``, shifts via integer
division, and each 64×64 wrap-multiply split into 32-bit halves so no
intermediate exceeds 2^96 (signed INT128 overflows at a full 64×64
product); ``hll_oracle_sql`` below emits exactly that expression and
the DuckDB oracle matches the registers and estimate float-exactly.
Rank uses ``floor(log2(rem))`` — safe cross-libm because log2 is exact
on powers of two and non-powers sit ≥1e-7 from integer boundaries at
≤24-bit values, far beyond 1-ulp differences.

Reference scope note: the reference engine (janreges/siteone-crawler)
has no sketch surface; these extend the engine per SURVEY.md §2.11
(LLM-data additions) and reuse its combiner-partial idiom.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import _SM_GAMMA, _SM_MUL1, _SM_MUL2, splitmix64


def _sql_wrapmul(z: str, c: int) -> str:
    """SQL for ``(z * c) mod 2^64`` with 32-bit-split multiplies (no
    INT128 overflow)."""
    hi, lo = c >> 32, c & 0xFFFFFFFF
    return (f"CAST(((CAST({z} AS HUGEINT) * {lo}) % 18446744073709551616 + "
            f"((CAST({z} AS HUGEINT) * {hi}) % 4294967296) * 4294967296) "
            f"% 18446744073709551616 AS UBIGINT)")


def hll_oracle_sql(key_expr: str, table_expr: str, p: int = 12) -> str:
    """DuckDB scalar subquery recomputing ``approx_distinct`` for
    ``key_expr`` over ``table_expr`` — the exact register algebra of
    ``hll_registers`` + ``hll_estimate``."""
    m = 1 << p
    nbits = 32 - p
    alpha = f"0.7213 / (1 + 1.079 / {m})"
    return f"""(
        WITH sm0 AS (
          SELECT CAST((CAST({key_expr} AS HUGEINT) + {_SM_GAMMA})
                      % 18446744073709551616 AS UBIGINT) AS z
          FROM {table_expr}
        ),
        sm1 AS (SELECT {_sql_wrapmul(f"xor(z, z // {1 << 30})", _SM_MUL1)} AS z FROM sm0),
        sm2 AS (SELECT {_sql_wrapmul(f"xor(z, z // {1 << 27})", _SM_MUL2)} AS z FROM sm1),
        smh AS (SELECT xor(z, z // {1 << 31}) // 4294967296 AS h32 FROM sm2),
        mx AS (
          SELECT h32 // {1 << nbits} AS bucket,
                 max(CASE WHEN h32 % {1 << nbits} = 0 THEN {nbits + 1}
                          ELSE {nbits} - CAST(floor(log2(h32 % {1 << nbits})) AS INT)
                     END) AS mj
          FROM smh GROUP BY 1
        ),
        reg AS (
          SELECT COALESCE(mx.mj, 0) AS mj
          FROM range({m}) t(i) LEFT JOIN mx ON mx.bucket = t.i
        ),
        hll AS (
          SELECT {alpha} * {m * m} / sum(pow(2.0, -mj)) AS est,
                 sum(CASE WHEN mj = 0 THEN 1 ELSE 0 END) AS zeros
          FROM reg
        )
        SELECT CASE WHEN est <= {2.5 * m} AND zeros > 0
                    THEN {m} * ln({m}.0 / zeros) ELSE est END
        FROM hll
    )"""


def sql_splitmix64(expr: str) -> str:
    """Single-expression SQL splitmix64 (UBIGINT result) for uses that
    can't afford a CTE chain (e.g. join conditions).  Each xor stage
    duplicates its operand, so the final string holds 8 copies of
    ``expr`` — fine for short column expressions."""
    z = (f"CAST((CAST({expr} AS HUGEINT) + {_SM_GAMMA})"
         f" % 18446744073709551616 AS UBIGINT)")
    z = _sql_wrapmul(f"xor({z}, {z} // {1 << 30})", _SM_MUL1)
    z = _sql_wrapmul(f"xor({z}, {z} // {1 << 27})", _SM_MUL2)
    return f"xor({z}, {z} // {1 << 31})"


# ------------------------------------------------------------- Count-Min

CMS_D = 4
CMS_W = 1024


def cms_counts(keys: np.ndarray, d: int = CMS_D, w: int = CMS_W) -> np.ndarray:
    """(d, w) int64 Count-Min table for one batch (Cormode & Muthukrishnan
    2005).  Mergeable by element-wise ADD — the heavy-hitter companion
    to the HLL max-merge.  Row hashes are splitmix64(key*d + j): the
    ``*d + j`` packing keeps (key, row) inputs injective so rows are
    decorrelated without a second hash family."""
    k = keys.view(np.uint64) if keys.dtype == np.int64 else keys.astype(np.uint64)
    counts = np.zeros((d, w), dtype=np.int64)
    with np.errstate(over="ignore"):
        base = k * np.uint64(d)
        for j in range(d):
            b = (splitmix64(base + np.uint64(j)) % np.uint64(w)).astype(np.int64)
            counts[j] = np.bincount(b, minlength=w)
    return counts


def cms_estimate(counts: np.ndarray, keys: np.ndarray,
                 d: int = CMS_D, w: int = CMS_W) -> np.ndarray:
    """Point estimates (int64) for ``keys``: min over rows — never
    under-counts, over-counts by at most ~2N/w with prob 1-2^-d."""
    k = keys.view(np.uint64) if keys.dtype == np.int64 else keys.astype(np.uint64)
    est = np.full(len(k), np.iinfo(np.int64).max)
    with np.errstate(over="ignore"):
        base = k * np.uint64(d)
        for j in range(d):
            b = (splitmix64(base + np.uint64(j)) % np.uint64(w)).astype(np.int64)
            est = np.minimum(est, counts[j][b])
    return est


def approx_group_counts(ds, key_col: str, query_keys: np.ndarray,
                        d: int = CMS_D, w: int = CMS_W) -> np.ndarray:
    """Distributed CMS: per-block (d, w) partials (d·w·8 bytes each),
    merged by ADD — through the same remote tree as approx_distinct
    above _TREE_THRESHOLD blocks — then the query keys are answered."""

    def partial(batch: pa.Table) -> pa.Table:
        c = cms_counts(batch[key_col].to_numpy(zero_copy_only=False), d, w)
        return pa.table({"cnt": pa.array([c.ravel()], pa.list_(pa.int64()))})

    from ..functions.agg import block_refs

    refs = block_refs(ds.map_batches(partial, batch_format="pyarrow"))
    if not refs:
        return np.zeros(len(query_keys), dtype=np.int64)
    total = _tree_reduce(
        refs,
        lambda arrs: np.sum([a.astype(np.int64) for a in arrs], axis=0),
        "cnt")
    return cms_estimate(total.reshape(d, w), query_keys, d, w)


def cms_oracle_join_sql(key_expr: str, j_expr: str = "t.j",
                        d: int = CMS_D, w: int = CMS_W) -> str:
    """SQL bucket expression for CMS row ``j_expr``:
    splitmix64(key*d + j) % w — for rebuilding the CMS table and the
    min-estimate in DuckDB."""
    return f"{sql_splitmix64(f'{d} * ({key_expr}) + {j_expr}')} % {w}"


def hll_registers(keys: np.ndarray, p: int = 12) -> np.ndarray:
    """uint8 register array of size 2^p for one batch of int keys."""
    nbits = 32 - p
    h32 = splitmix64(keys) >> np.uint64(32)
    bucket = (h32 >> np.uint64(nbits)).astype(np.int64)
    rem = (h32 & np.uint64((1 << nbits) - 1)).astype(np.int64)
    rank = np.where(
        rem == 0, nbits + 1,
        nbits - np.floor(np.log2(np.maximum(rem, 1).astype(np.float64))).astype(np.int64),
    )
    reg = np.zeros(1 << p, dtype=np.uint8)
    np.maximum.at(reg, bucket, rank.astype(np.uint8))
    return reg


def hll_merge(*regs: np.ndarray) -> np.ndarray:
    """Element-wise max — associative/commutative/idempotent, so block
    partials can combine in any tree shape."""
    return np.maximum.reduce(list(regs))


def hll_estimate(reg: np.ndarray, p: int = 12) -> float:
    """Bias-corrected estimate with the small-range linear-counting
    branch (the original HLL paper's rules; no 64-bit large-range
    correction needed at a 32-bit hash below ~10^8 distinct)."""
    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / float(np.sum(np.power(2.0, -reg.astype(np.float64))))
    zeros = int(np.count_nonzero(reg == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * float(np.log(m / zeros))
    return float(est)


# above this many block partials the driver combine switches to a
# remote tree reduction: each level merges _TREE_FANIN refs per task,
# so a 10^6-block input reaches the driver as ~fanin arrays after two
# levels and the partials never all materialize in driver heap
_TREE_THRESHOLD = 64
_TREE_FANIN = 32


def _tree_reduce(refs: list, combine, column: str):
    """Remote tree reduction over refs of 1-row list-column tables (the
    sketch-partial block shape): returns the combined numpy array.
    Below the threshold this is a plain driver loop — same result,
    pytest-pinned (`test_sketch.py::test_tree_merge_paths_agree`)."""
    import ray

    def _arrays(objs):
        out = []
        for o in objs:
            if isinstance(o, np.ndarray):
                out.append(o)
            else:  # pyarrow block table
                out.extend(np.asarray(r) for r in o[column].to_pylist())
        return out

    @ray.remote
    def level(*objs):
        return combine(_arrays(objs))

    while len(refs) > _TREE_THRESHOLD:
        refs = [level.remote(*refs[i:i + _TREE_FANIN])
                for i in range(0, len(refs), _TREE_FANIN)]
    return combine(_arrays(ray.get(refs)))


def approx_distinct(ds, key_col: str, p: int = 12) -> float:
    """Distributed distinct-count estimate: one register row per block
    (2^p bytes), merged by max — through the remote tree above
    _TREE_THRESHOLD blocks, so extreme block counts never pile up on
    the driver; registers are order/partition-independent so the
    estimate is too."""

    def partial(batch: pa.Table) -> pa.Table:
        reg = hll_registers(batch[key_col].to_numpy(zero_copy_only=False), p)
        return pa.table({"reg": pa.array([reg], pa.list_(pa.uint8()))})

    from ..functions.agg import block_refs

    refs = block_refs(ds.map_batches(partial, batch_format="pyarrow"))
    if not refs:
        return 0.0
    merged = _tree_reduce(
        refs, lambda arrs: np.maximum.reduce([a.astype(np.uint8) for a in arrs]),
        "reg")
    return hll_estimate(merged, p)


# ---------------------------------------------------------- grouped HLL
# Per-GROUP distinct-count estimates with the same mergeable register
# algebra: the scale answer to COUNT(DISTINCT key) GROUP BY group.  The
# exact formulation must co-locate every (group, key) pair (the coded
# exchange in pipelines/relational.user_type_stats); this one ships one
# 2^p-byte register row per (block, group) and merges by element-wise
# max, so no key ever crosses the wire and a hot group costs the same
# as a cold one.  ``dedup._combine`` merges the partials: register rows
# that do not fit the byte budget hash-scatter on xxh64(group) —
# identical group ⇒ one partition, so per-partition merges are final and
# the driver only ever sees (group, estimate) rows.


def grouped_hll_partial(groups: np.ndarray, keys: np.ndarray,
                        p: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """One register row per distinct group in the batch, built with a
    single unbuffered ``maximum.at`` scatter over the (group, bucket)
    plane — no per-group Python loop."""
    uniq, gid = np.unique(groups, return_inverse=True)
    nbits = 32 - p
    h32 = splitmix64(keys) >> np.uint64(32)
    bucket = (h32 >> np.uint64(nbits)).astype(np.int64)
    rem = (h32 & np.uint64((1 << nbits) - 1)).astype(np.int64)
    rank = np.where(
        rem == 0, nbits + 1,
        nbits - np.floor(np.log2(np.maximum(rem, 1).astype(np.float64))).astype(np.int64),
    )
    regs = np.zeros((len(uniq), 1 << p), dtype=np.uint8)
    np.maximum.at(regs, (gid, bucket), rank.astype(np.uint8))
    return uniq, regs


def hll_estimates(regs: np.ndarray, p: int = 12) -> np.ndarray:
    """Vectorized row-wise :func:`hll_estimate` over a (G, 2^p) register
    matrix — identical branch rules, so a 1-row matrix reproduces the
    scalar float-exactly (every 2^-mj term is dyadic with ≤34 mantissa
    bits over the sum, so summation order cannot change the result)."""
    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)), axis=1)
    zeros = np.count_nonzero(regs == 0, axis=1)
    lc = m * np.log(m / np.maximum(zeros, 1))
    return np.where((est <= 2.5 * m) & (zeros > 0), lc, est)


def approx_distinct_by(ds, group_col: str, key_col: str, p: int = 12,
                       num_partitions: int | None = None) -> pa.Table:
    """Distributed per-group distinct-count estimates over a Dataset:
    (group, approx_distinct) rows sorted by group.  Register partials
    stay in the object store; ``dedup._combine`` merges them on the
    driver only when block metadata proves their bytes fit the budget."""
    from ..functions.hashing import xxh64_strings
    from .dedup import _combine, _refs_and_bytes

    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        g = batch[group_col].to_numpy(zero_copy_only=False).astype(str)
        k = batch[key_col].to_numpy(zero_copy_only=False)
        uniq, regs = grouped_hll_partial(g, k, p)
        reg_col = pa.FixedSizeListArray.from_arrays(
            pa.array(regs.ravel(), pa.uint8()), m)
        return pa.table({
            group_col: pa.array(uniq, pa.string()),
            "__reg": reg_col,
            "__gkey": pa.array(xxh64_strings(uniq), pa.uint64()),
        })

    def combine(t: pa.Table) -> pa.Table:
        col = t["__reg"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        flat = flat.astype(np.uint8).reshape(t.num_rows, m)
        g = t[group_col].to_numpy(zero_copy_only=False).astype(str)
        uniq, gid = np.unique(g, return_inverse=True)
        out = np.zeros((len(uniq), m), np.uint8)
        np.maximum.at(out, gid, flat)
        return pa.table({group_col: pa.array(uniq, pa.string()),
                         "approx_distinct": pa.array(hll_estimates(out, p))})

    refs, nbytes = _refs_and_bytes(ds.map_batches(partial, batch_format="pyarrow"))
    parts = _combine(refs, nbytes, "__gkey", combine, num_partitions=num_partitions)
    if not parts:
        return pa.table({group_col: pa.array([], pa.string()),
                         "approx_distinct": pa.array([], pa.float64())})
    merged = pa.concat_tables(parts)
    return merged.take(pc.sort_indices(merged, [(group_col, "ascending")]))


def hll_grouped_oracle_sql(group_expr: str, key_expr: str, table_expr: str,
                           p: int = 12) -> str:
    """DuckDB table subquery (columns ``g``, ``approx``) recomputing
    :func:`approx_distinct_by` — the grouped form of
    :func:`hll_oracle_sql`, with the group threaded through the
    splitmix64 CTE chain and the register scaffold built per group."""
    m = 1 << p
    nbits = 32 - p
    alpha = f"0.7213 / (1 + 1.079 / {m})"
    return f"""(
        WITH sm0 AS (
          SELECT {group_expr} AS g,
                 CAST((CAST({key_expr} AS HUGEINT) + {_SM_GAMMA})
                      % 18446744073709551616 AS UBIGINT) AS z
          FROM {table_expr}
        ),
        sm1 AS (SELECT g, {_sql_wrapmul(f"xor(z, z // {1 << 30})", _SM_MUL1)} AS z FROM sm0),
        sm2 AS (SELECT g, {_sql_wrapmul(f"xor(z, z // {1 << 27})", _SM_MUL2)} AS z FROM sm1),
        smh AS (SELECT g, xor(z, z // {1 << 31}) // 4294967296 AS h32 FROM sm2),
        mx AS (
          SELECT g, h32 // {1 << nbits} AS bucket,
                 max(CASE WHEN h32 % {1 << nbits} = 0 THEN {nbits + 1}
                          ELSE {nbits} - CAST(floor(log2(h32 % {1 << nbits})) AS INT)
                     END) AS mj
          FROM smh GROUP BY 1, 2
        ),
        gs AS (SELECT DISTINCT g FROM smh),
        reg AS (
          SELECT gs.g AS g, COALESCE(mx.mj, 0) AS mj
          FROM gs CROSS JOIN range({m}) t(i)
          LEFT JOIN mx ON mx.g = gs.g AND mx.bucket = t.i
        ),
        hll AS (
          SELECT g, {alpha} * {m * m} / sum(pow(2.0, -mj)) AS est,
                 sum(CASE WHEN mj = 0 THEN 1 ELSE 0 END) AS zeros
          FROM reg GROUP BY g
        )
        SELECT g, CASE WHEN est <= {2.5 * m} AND zeros > 0
                       THEN {m} * ln({m}.0 / zeros) ELSE est END AS approx
        FROM hll
    )"""
