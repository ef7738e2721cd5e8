"""Similarity search over an embedding column (list<float>).

- ``knn_bruteforce``: exact cosine top-k — per-batch numpy matmul
  against a broadcast query matrix (``ray.put`` once, read per actor),
  per-batch partial top-k, tiny driver merge.  The baseline.
- ``knn_lsh_bucketed``: random-hyperplane LSH candidates, exact
  rerank; ``knn_lsh`` is its single-table reference.
- ``ivf_build_index`` / ``ivf_query_index``: IVF scale path —
  deterministic k-means (few Lloyd iterations on a uniform sample)
  builds ``nlist`` centroids; vectors are written cell-partitioned and
  queries read only the ``nprobe`` nearest cells.  Approximate; recall
  measured in tests.
- ``knn_join``: big×big approximate top-k over IVF-cell
  co-partitioning.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.agg import collect_blocks as _collect_blocks


def _as_matrix(col) -> np.ndarray:
    return np.vstack(col.to_numpy(zero_copy_only=False)).astype(np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def knn_bruteforce(ds, query_vecs: np.ndarray, k: int = 10,
                   id_col: str = "vec_id", vec_col: str = "embedding") -> pa.Table:
    """→ (query_idx, vec_id, cosine, rank) exact top-k per query.

    Deterministic tie-break: (-cosine, vec_id)."""
    import ray

    q = _normalize(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    qref = ray.put(q)

    def partial(batch: pa.Table) -> pa.Table:
        qm = ray.get(qref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        m = _normalize(_as_matrix(batch[vec_col]))
        cos = qm @ m.T  # (nq, nb)
        nq = cos.shape[0]
        kk = min(k, cos.shape[1])
        out_q, out_id, out_c = [], [], []
        for qi in range(nq):
            idx = np.argpartition(-cos[qi], kk - 1)[:kk]
            out_q.append(np.full(kk, qi, dtype=np.int32))
            out_id.append(ids[idx])
            out_c.append(cos[qi][idx])
        return pa.table(
            {
                "query_idx": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "cosine": pa.array(np.concatenate(out_c)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow")
    t = pa.concat_tables(_collect_blocks(parts))
    qs = t["query_idx"].to_numpy(zero_copy_only=False)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    cos = t["cosine"].to_numpy(zero_copy_only=False)
    rows = {"query_idx": [], id_col: [], "cosine": [], "rank": []}
    for qi in np.unique(qs):
        sel = qs == qi
        order = np.lexsort((ids[sel], -cos[sel]))[:k]
        rows["query_idx"].append(np.full(len(order), qi, dtype=np.int32))
        rows[id_col].append(ids[sel][order])
        rows["cosine"].append(np.round(cos[sel][order], 6))
        rows["rank"].append(np.arange(1, len(order) + 1, dtype=np.int32))
    return pa.table({c: pa.array(np.concatenate(v)) for c, v in rows.items()})


_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _row_priorities(m: np.ndarray, seed: int) -> np.ndarray:
    """Content-derived uint64 priority per row (seeded splitmix-style
    mix over the float64 bytes) — the sampling key for bottom-k
    priority sampling.  Deterministic across runs/partitionings."""
    u = np.ascontiguousarray(m, dtype=np.float64).view(np.uint64)
    with np.errstate(over="ignore"):
        h = np.full(len(u), (np.uint64(seed) * _GOLD) ^ np.uint64(0x85EBCA6B), dtype=np.uint64)
        for j in range(u.shape[1]):
            h = (h ^ u[:, j]) * _GOLD
            h ^= h >> np.uint64(29)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
    return h


def sample_vectors(ds, vec_col: str = "embedding", n: int = 4096, seed: int = 3) -> np.ndarray:
    """Deterministic distributed uniform sample of ≤ ``n`` vectors.

    Bottom-k priority sampling: every row gets a content-derived
    pseudo-random priority, each block keeps its local bottom-``n``
    rows (a ``map_batches`` partial), the driver merges the small
    partials and keeps the global bottom-``n``.  Uniform regardless of
    input order or partitioning — unlike ``ds.limit(n)``, which takes
    the FIRST blocks and collapses the k-means centroids to one region
    when the input is sorted/clustered by topic.  Driver merge holds at
    most ``n × num_blocks`` tiny rows; above ~10⁴ blocks interpose one
    combining ``map_batches`` pass over the partials."""

    def partial(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch[vec_col])
        h = _row_priorities(m, seed)
        if len(h) > n:
            keep = np.argpartition(h, n - 1)[:n]
            m, h = m[keep], h[keep]
        return pa.table({
            "_priority": pa.array(h),
            vec_col: pa.FixedSizeListArray.from_arrays(
                pa.array(np.ascontiguousarray(m).ravel()), m.shape[1]),
        })

    blocks = _collect_blocks(
        ds.select_columns([vec_col]).map_batches(partial, batch_format="pyarrow"))
    if not blocks:  # empty input dataset
        return np.empty((0, 0), np.float64)
    t = pa.concat_tables(blocks, promote_options="permissive")
    h = t["_priority"].to_numpy(zero_copy_only=False)
    m = _as_matrix(t[vec_col])
    order = np.argsort(h, kind="stable")[:n]
    return m[order]


def kmeans_centroids(mat: np.ndarray, nlist: int, iters: int = 5, seed: int = 3) -> np.ndarray:
    """Deterministic Lloyd's k-means on normalized vectors."""
    rng = np.random.default_rng(seed)
    init = rng.choice(len(mat), size=min(nlist, len(mat)), replace=False)
    cent = mat[np.sort(init)].copy()
    for _ in range(iters):
        assign = np.argmax(mat @ cent.T, axis=1)
        for c in range(len(cent)):
            members = mat[assign == c]
            if len(members):
                v = members.sum(axis=0)
                n = np.linalg.norm(v)
                if n > 1e-12:
                    cent[c] = v / n
    return cent


def _lsh_planes(ntables: int, nbits: int, dim: int, seed: int) -> np.ndarray:
    """Seeded Gaussian hyperplanes shared by every LSH path."""
    return np.random.default_rng(seed).standard_normal((ntables, nbits, dim))


def _lsh_signatures(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """(n, dim) → (n, ntables) bucket ids (sign bits packed little-endian)."""
    ntables, nbits, _ = planes.shape
    powers = (1 << np.arange(nbits)).astype(np.int64)
    out = np.empty((m.shape[0], ntables), dtype=np.int64)
    for t in range(ntables):
        out[:, t] = ((m @ planes[t].T) > 0) @ powers
    return out


def _topk_per_query(t: pa.Table, k: int, id_col: str) -> pa.Table:
    """Final per-query top-k over merged (query_idx, id, cosine) partials.
    Deterministic tie-break (-cosine, id); ranks 1..k."""
    qs_np = t["query_idx"].to_numpy(zero_copy_only=False)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    cos = t["cosine"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -cos, qs_np))
    qs_np, ids, cos = qs_np[order], ids[order], cos[order]
    keep, rank = [], []
    prev, r = None, 0
    for i in range(len(qs_np)):
        if qs_np[i] != prev:
            prev, r = qs_np[i], 0
        if r < k:
            keep.append(i)
            r += 1
            rank.append(r)
    return pa.table(
        {
            "query_idx": pa.array(qs_np[keep], pa.int32()),
            id_col: pa.array(ids[keep]),
            "cosine": pa.array(np.round(cos[keep], 6)),
            "rank": pa.array(np.array(rank, dtype=np.int32)),
        }
    )


def knn_lsh(ds, query_vecs: np.ndarray, k: int = 10, *, nbits: int = 4,
            ntables: int = 24, seed: int = 17,
            id_col: str = "vec_id", vec_col: str = "embedding") -> pa.Table:
    """LSH-bucketed ANN — the second scale path (random-hyperplane
    signatures, Charikar'02 SimHash LSH, public algorithm).

    Index pass (map_batches): ntables signatures of nbits each per
    vector (sign of projection on seeded Gaussian hyperplanes).  Query:
    candidates = vectors sharing a bucket with the query in ANY table
    (broadcast query signatures), then exact cosine rerank of only the
    candidates.  Right for a HANDFUL of queries (the broadcast is
    tiny); for large query sets use :func:`knn_lsh_bucketed`, which
    co-locates by bucket via the partitioned exchange instead of
    scanning every batch against every query signature.
    """
    import ray

    q = _normalize(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    planes = _lsh_planes(ntables, nbits, q.shape[1], seed)

    def signatures(m: np.ndarray) -> np.ndarray:
        return _lsh_signatures(m, planes)

    q_sigs = signatures(q)  # (nq, ntables)
    ref = ray.put((q, q_sigs))

    def candidates(batch: pa.Table) -> pa.Table:
        qm, qs = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        m = _normalize(_as_matrix(batch[vec_col]))
        sigs = signatures(m)  # (nb, ntables)
        # vector is a candidate for query qi if any table bucket matches
        hit = np.zeros((qm.shape[0], m.shape[0]), dtype=bool)
        for t in range(ntables):
            hit |= qs[:, t][:, None] == sigs[:, t][None, :]
        out_q, out_id, out_c = [], [], []
        for qi in range(qm.shape[0]):
            sel = np.nonzero(hit[qi])[0]
            if not len(sel):
                continue
            cos = qm[qi] @ m[sel].T  # exact rerank of candidates only
            out_q.append(np.full(len(sel), qi, dtype=np.int32))
            out_id.append(ids[sel])
            out_c.append(cos)
        if not out_q:
            return pa.table({"query_idx": pa.array([], pa.int32()),
                             id_col: pa.array([], batch[id_col].type),
                             "cosine": pa.array([], pa.float64())})
        return pa.table(
            {
                "query_idx": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "cosine": pa.array(np.concatenate(out_c)),
            }
        )

    t = pa.concat_tables(_collect_blocks(ds.map_batches(candidates, batch_format="pyarrow")))
    return _topk_per_query(t, k, id_col)


def knn_lsh_bucketed(ds, query_vecs: np.ndarray, k: int = 10, *, nbits: int = 4,
                     ntables: int = 24, seed: int = 17,
                     id_col: str = "vec_id", vec_col: str = "embedding",
                     num_partitions: int = 16) -> pa.Table:
    """LSH ANN with BUCKET CO-LOCATION — the large-query-set scale path.

    Identical output to :func:`knn_lsh` (same hyperplanes → same bucket
    membership → same candidate set → same exact rerank), but the
    pairing never scans a batch against broadcast query signatures:

    1. *Emit*: one ``(bucket_key, id)`` row per (vector, table), where
       ``bucket_key = table << nbits | bucket`` — a ``map_batches``
       pass.  Query vectors emit the same rows tagged ``query_idx``.
    2. *Exchange*: rows hash-partition on ``bucket_key`` through the
       dedup module's partitioned exchange (broadcast-filter for small
       tables, row-moves-once scatter above its threshold), so every
       bucket's vector rows and query rows meet in ONE partition.
       Pairing inside the partition is a sort-merge on bucket_key.
    3. *Rerank*: the deduped candidate (query_idx, vec_id) pairs are
       broadcast (small — candidates only, not the corpus) and each
       batch computes exact cosines for ITS candidate vectors only;
       per-query top-k merges on the driver.

    At 100 TB step 2 is the only all-to-all and it moves ``ntables``
    int64 rows per vector, never the embeddings; step 3 re-reads the
    (pruned) embedding column once.
    """
    import ray

    from .dedup import _partitioned_exchange

    q = _normalize(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    planes = _lsh_planes(ntables, nbits, q.shape[1], seed)
    tshift = np.uint64(nbits)
    tidx = np.arange(ntables, dtype=np.uint64)

    def bucket_keys(m: np.ndarray) -> np.ndarray:
        """(n, dim) → (n, ntables) uint64 combined (table, bucket) keys."""
        sigs = _lsh_signatures(m, planes).astype(np.uint64)
        return (tidx[None, :] << tshift) | sigs

    # -- step 1: emit bucket rows ------------------------------------------
    def emit(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        keys = bucket_keys(_normalize(_as_matrix(batch[vec_col])))
        return pa.table({
            "bucket_key": pa.array(keys.ravel(), pa.uint64()),
            "idx": pa.array(np.repeat(ids.astype(np.int64), ntables)),
            "is_query": pa.array(np.zeros(keys.size, dtype=np.bool_)),
        })

    qkeys = bucket_keys(q)
    qrows = pa.table({
        "bucket_key": pa.array(qkeys.ravel(), pa.uint64()),
        "idx": pa.array(np.repeat(np.arange(len(q), dtype=np.int64), ntables)),
        "is_query": pa.array(np.ones(qkeys.size, dtype=np.bool_)),
    })
    import ray.data as rd

    bucket_ds = ds.map_batches(emit, batch_format="pyarrow").union(rd.from_arrow(qrows))

    # -- step 2: co-located pairing ----------------------------------------
    def pair_partition(part: pa.Table) -> pa.Table:
        isq = part["is_query"].to_numpy(zero_copy_only=False)
        keys = part["bucket_key"].to_numpy(zero_copy_only=False)
        idx = part["idx"].to_numpy(zero_copy_only=False)
        qk, qi = keys[isq], idx[isq]
        vk, vi = keys[~isq], idx[~isq]
        if not len(qk) or not len(vk):
            return pa.table({"query_idx": pa.array([], pa.int64()),
                             "cand_id": pa.array([], pa.int64())})
        vorder = np.argsort(vk, kind="stable")
        vk, vi = vk[vorder], vi[vorder]
        lo = np.searchsorted(vk, qk, side="left")
        hi = np.searchsorted(vk, qk, side="right")
        runs = hi - lo
        out_q = np.repeat(qi, runs)
        # vector ids covered by each query's [lo, hi) run, concatenated
        out_v = vi[np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])] \
            if runs.sum() else np.empty(0, np.int64)
        return pa.table({"query_idx": pa.array(out_q), "cand_id": pa.array(out_v)})

    parts = _partitioned_exchange(bucket_ds, "bucket_key", pair_partition,
                                  num_partitions=num_partitions)
    if parts:
        cand = pa.concat_tables(parts)
        pairs = np.unique(np.stack([
            cand["query_idx"].to_numpy(zero_copy_only=False),
            cand["cand_id"].to_numpy(zero_copy_only=False),
        ], axis=1), axis=0)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)

    # -- step 3: exact rerank of candidates only ---------------------------
    # candidate ids sorted, with each id's query list (CSR layout)
    cid_sorted = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]
    cand_ids, starts = np.unique(cid_sorted[:, 1], return_index=True)
    bounds = np.append(starts, len(cid_sorted))
    qlists = cid_sorted[:, 0]
    ref = ray.put((q, cand_ids, bounds, qlists))

    def rerank(batch: pa.Table) -> pa.Table:
        qm, cids, bnds, qls = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(cids):
            return pa.table({"query_idx": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        pos = np.searchsorted(cids, ids)
        mask = (pos < len(cids)) & (cids[np.minimum(pos, len(cids) - 1)] == ids)
        if not mask.any():
            return pa.table({"query_idx": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        m = _normalize(_as_matrix(batch[vec_col]))[mask]
        sel_ids, sel_pos = ids[mask], pos[mask]
        out_q, out_id, out_c = [], [], []
        for row, (vid, p) in enumerate(zip(sel_ids, sel_pos)):
            qs = qls[bnds[p]:bnds[p + 1]]
            out_q.append(qs)
            out_id.append(np.full(len(qs), vid, dtype=np.int64))
            out_c.append(qm[qs] @ m[row])
        return pa.table({"query_idx": pa.array(np.concatenate(out_q)),
                         id_col: pa.array(np.concatenate(out_id)),
                         "cosine": pa.array(np.concatenate(out_c))})

    t = pa.concat_tables(_collect_blocks(ds.map_batches(rerank, batch_format="pyarrow")))
    return _topk_per_query(t, k, id_col)


def ivf_build_index(ds, index_path: str, *, nlist: int = 16,
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    seed: int = 3) -> np.ndarray:
    """Materialize the IVF index as CELL-PARTITIONED parquet — the
    100 TB layout where the centroid cell is the physical partition
    key: ``index_path/cell=NN/*.parquet``.

    Build is fully streaming: centroids train on a bounded sample,
    assignment is one ``map_batches`` pass, and
    ``write_parquet(partition_cols=["cell"])`` shuffles rows to their
    cell directories.  A query then touches only its ``nprobe`` cell
    directories (``ivf_query_index``) — no full-corpus scan per query,
    and a failed build resumes per partition.  Returns the centroid
    matrix (also persisted as ``centroids.npy`` next to the cells)."""
    import os

    import ray

    smat = _normalize(sample_vectors(ds, vec_col, n=4096, seed=seed))
    cent = kmeans_centroids(smat, nlist, seed=seed)
    cref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        m = _normalize(_as_matrix(batch[vec_col]))
        cell = np.argmax(m @ cents.T, axis=1).astype(np.int32)
        return batch.append_column("cell", pa.array(cell))

    os.makedirs(index_path, exist_ok=True)
    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        index_path, partition_cols=["cell"]
    )
    np.save(os.path.join(index_path, "centroids.npy"), cent)
    return cent


def ivf_query_index(index_path: str, query_vecs: np.ndarray, k: int = 10, *,
                    nprobe: int = 4, id_col: str = "vec_id",
                    vec_col: str = "embedding") -> pa.Table:
    """Query the partitioned IVF index: read ONLY the ``nprobe``
    nearest cell directories, exact-rerank their vectors.  Same output
    schema as :func:`knn_bruteforce`."""
    import os

    import ray
    import ray.data as rd

    cent = np.load(os.path.join(index_path, "centroids.npy"))
    q = _normalize(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    probe_cells = np.argsort(-(q @ cent.T), axis=1)[:, :nprobe]
    cells = sorted(set(int(c) for row in probe_cells for c in row))
    paths = []
    for c in cells:
        d = os.path.join(index_path, f"cell={c}")
        if os.path.isdir(d):
            paths += [os.path.join(d, f) for f in sorted(os.listdir(d))
                      if f.endswith(".parquet")]
    if not paths:
        return pa.table({"query_idx": pa.array([], pa.int32()), id_col: pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64()), "rank": pa.array([], pa.int32())})
    sub = rd.read_parquet(paths, columns=[id_col, vec_col])
    return knn_bruteforce(sub, query_vecs, k, id_col=id_col, vec_col=vec_col)


# ------------------------------------------------------------- kNN join
# The big×big similarity shape the query-side paths above can't cover:
# for EVERY row of A, the approximate cosine top-k rows of B, with
# neither side broadcastable.  IVF-cell co-partitioning (the same
# public shape as FAISS's IVF + Spark's bucketed join): B rows land in
# their single nearest centroid cell, A rows replicate into their
# ``nprobe`` nearest cells (bounded fan-out, the only duplication in
# the operator), ONE union exchange on cell co-locates both sides, and
# each partition brute-forces its cells locally.  An (a, b) pair can
# appear in at most one cell (b lives in exactly one), so the per-cell
# top-k partials merge exactly: ``dedup._combine`` (a driver merge, or
# a second exchange on a_id when the partials do not fit the byte
# budget) keeps only each a row's global top-k.  nprobe == nlist makes
# the result EXACT by construction (every cell probed) — the pytest
# oracle.


def knn_join(a_ds, b_ds, k: int = 5, *, nlist: int = 16, nprobe: int = 2,
             a_id_col: str = "vec_id", b_id_col: str = "vec_id",
             vec_col: str = "embedding", seed: int = 3,
             train_sample: int = 4096,
             num_partitions: int | None = None) -> pa.Table:
    """→ (a_id, b_id, cosine, rank) — approximate k nearest B rows per
    A row, ordered by (a_id asc, rank asc); ties break on b_id asc.
    Centroids train on a deterministic uniform sample of B (the index
    side); results are partition-count independent."""
    import pyarrow.compute as pc
    import ray

    from .dedup import _auto_partitions, _combine, _partitioned_exchange, _ref_bytes

    smat = _normalize(sample_vectors(b_ds, vec_col, n=train_sample, seed=seed))
    if not len(smat):
        return pa.table({"a_id": pa.array([], pa.int64()),
                         "b_id": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64()),
                         "rank": pa.array([], pa.int32())})
    cent = kmeans_centroids(smat, nlist, seed=seed)
    nprobe = min(nprobe, len(cent))
    cref = ray.put(cent)

    def tag_b(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        m = _normalize(_as_matrix(batch[vec_col]))
        cell = np.argmax(m @ cents.T, axis=1).astype(np.uint64)
        return pa.table({
            "rid": batch[b_id_col].cast(pa.int64()),
            "cell": pa.array(cell, pa.uint64()),
            "side": pa.array(np.ones(len(m), np.int8)),
            vec_col: pa.FixedSizeListArray.from_arrays(
                pa.array(np.ascontiguousarray(m).ravel()), m.shape[1]),
        })

    def tag_a(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        m = _normalize(_as_matrix(batch[vec_col]))
        probes = np.argsort(-(m @ cents.T), axis=1)[:, :nprobe]  # (n, nprobe)
        n = len(m)
        rep = np.repeat(np.arange(n), nprobe)
        return pa.table({
            "rid": batch[a_id_col].cast(pa.int64()).take(pa.array(rep)),
            "cell": pa.array(probes.ravel().astype(np.uint64), pa.uint64()),
            "side": pa.array(np.zeros(n * nprobe, np.int8)),
            vec_col: pa.FixedSizeListArray.from_arrays(
                pa.array(np.ascontiguousarray(m[rep]).ravel()), m.shape[1]),
        })

    tagged = (a_ds.select_columns([a_id_col, vec_col])
              .map_batches(tag_a, batch_format="pyarrow")
              .union(b_ds.select_columns([b_id_col, vec_col])
                     .map_batches(tag_b, batch_format="pyarrow")))

    def cell_knn(t: pa.Table) -> pa.Table:
        cells = t["cell"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        rid = t["rid"].to_numpy(zero_copy_only=False)
        vec = t[vec_col]
        if isinstance(vec, pa.ChunkedArray):
            vec = vec.combine_chunks()
        dim = vec.type.list_size
        m = pc.list_flatten(vec).to_numpy(zero_copy_only=False).reshape(-1, dim)
        out_a, out_b, out_c = [], [], []
        for c in np.unique(cells):
            sel = cells == c
            a_sel = sel & (side == 0)
            b_sel = sel & (side == 1)
            if not a_sel.any() or not b_sel.any():
                continue
            cos = m[a_sel] @ m[b_sel].T
            bi = rid[b_sel]
            na, nb = cos.shape
            kk = min(k, nb)
            # vectorized per-a-row top-k: argpartition prunes to kk
            # candidates, one flat lexsort orders every row's
            # candidates by (cosine desc, b_id asc) at once
            if kk < nb:
                cand = np.argpartition(-cos, kk - 1, axis=1)[:, :kk]
            else:
                cand = np.broadcast_to(np.arange(nb), (na, nb))
            ccos = np.take_along_axis(cos, cand, axis=1)
            cb = bi[cand]
            rows = np.repeat(np.arange(na), kk)
            order = np.lexsort((cb.ravel(), -ccos.ravel(), rows))
            out_a.append(np.repeat(rid[a_sel], kk))
            out_b.append(cb.ravel()[order])
            out_c.append(ccos.ravel()[order])
        if not out_a:
            return pa.table({"a_id": pa.array([], pa.int64()),
                             "b_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        return pa.table({"a_id": pa.array(np.concatenate(out_a)),
                         "b_id": pa.array(np.concatenate(out_b)),
                         "cosine": pa.array(np.concatenate(out_c))})

    P = num_partitions if num_partitions is not None else _auto_partitions()
    part_refs = _partitioned_exchange(tagged, "cell", cell_knn,
                                      num_partitions=P, return_refs=True)
    empty = pa.table({"a_id": pa.array([], pa.int64()),
                      "b_id": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64()),
                      "rank": pa.array([], pa.int32())})

    def merge_topk(t: pa.Table) -> pa.Table:
        a = t["a_id"].to_numpy(zero_copy_only=False)
        b = t["b_id"].to_numpy(zero_copy_only=False)
        c = t["cosine"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, -c, a))  # a asc, cosine desc, b asc
        a, b, c = a[order], b[order], c[order]
        starts = np.nonzero(np.concatenate([[True], a[1:] != a[:-1]]))[0]
        pos = np.arange(len(a)) - np.repeat(starts, np.diff(
            np.append(starts, len(a))))
        keep = pos < k
        return pa.table({"a_id": pa.array(a[keep]), "b_id": pa.array(b[keep]),
                         "cosine": pa.array(np.round(c[keep], 6)),
                         "rank": pa.array((pos[keep] + 1).astype(np.int32))})

    # identical a_id ⇒ one partition, so a per-partition merge is the
    # global answer for its a rows
    out = _combine(part_refs, _ref_bytes(part_refs), "a_id", merge_topk, num_partitions=P)
    if not out:
        return empty
    merged = pa.concat_tables(out)
    return merged.take(pc.sort_indices(
        merged, [("a_id", "ascending"), ("rank", "ascending")]))
