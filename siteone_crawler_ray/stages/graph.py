"""Distributed PageRank over a link-edge Dataset — the iterative graph
operator the engine's training-data family lacked (corpus-quality /
page-importance weighting over the crawl's own link graph; the
reference engine computes nothing comparable, this extends SURVEY §2.11
like the dedup/sampling families).

Scale shape: edges are partitioned ONCE by ``src mod P`` (dense int
node ids) with each input block split remotely — rows move once at
setup.  The rank vector lives
partitioned by the SAME rule, so each iteration's contribution pass is
partition-local (rank lookup is ``(src - p) // P`` indexing, no search)
and only sparse ``(dst, partial-sum)`` pairs cross the wire — one
scatter per iteration.  Driver state is O(P) object refs, never
O(nodes); final ranks are gathered only because callers here want a
small table (at 10^10 nodes, keep the refs / write parquet per
partition instead).

Rank rule (Page et al. 1999, the plain non-redistributing variant):

    r_{k+1}(v) = (1 - d)/N + d * sum_{(u,v) in E} r_k(u) / outdeg(u)

Dangling nodes contribute nothing (no global mass term), multi-edges
count once per edge row, self-loops allowed.  The DuckDB oracle in
``__ray_entry__`` (dup_clusters slot, ``pagerank_micro`` rows) mirrors
the convention term for term with a 10-step unrolled CTE chain.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.agg import block_refs
from .dedup import _auto_partitions


def _part_size(p: int, N: int, P: int) -> int:
    return len(range(p, N, P))


def pagerank(edges_ds, num_nodes: int, iters: int = 10, d: float = 0.85,
             src_col: str = "src", dst_col: str = "dst",
             num_partitions: int | None = None,
             personalization: np.ndarray | None = None,
             materialize: bool = True):
    """→ (node:int64, rank:float64) for nodes ``0..num_nodes-1``.

    ``edges_ds``: Dataset (or pyarrow Table) of int edge rows with both
    endpoints in ``[0, num_nodes)`` — callers filter dangling TARGETS
    beforehand if they want them excluded from the universe.

    ``personalization``: optional length-N teleport distribution
    (normalized internally) — personalized PageRank, the seed-biased
    variant a crawl uses to weight pages by closeness to trusted seeds:
    ``r_{k+1}(v) = (1-d)·t(v) + d·Σ r_k(u)/outdeg(u)``.  None keeps the
    uniform ``t = 1/N``."""
    import ray

    N = int(num_nodes)
    # partition count grows with the graph (≳1k nodes per partition)
    # up to the cluster-wide exchange fanout — tiny graphs avoid paying
    # 2·P·iters task dispatches; floor 2 because Ray's num_returns=1
    # yields a bare ref, not a list; output is partition-count
    # independent (pytest-pinned)
    P = (max(2, num_partitions) if num_partitions
         else max(2, min(_auto_partitions(N), N // 1000 + 1)))

    @ray.remote
    def split(block: pa.Table) -> tuple:
        src = block[src_col].to_numpy(zero_copy_only=False)
        part = src % P
        return tuple(block.take(pa.array(np.nonzero(part == p)[0]))
                     for p in range(P))

    @ray.remote
    def build(p: int, *tabs) -> tuple:
        tabs = [t for t in tabs if t is not None and t.num_rows]
        if not tabs:
            return (np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty(0, np.float64))
        t = pa.concat_tables(tabs)
        src = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(src) and (src.min() < 0 or src.max() >= N
                         or dst.min() < 0 or dst.max() >= N):
            raise ValueError("edge endpoint outside [0, num_nodes)")
        lidx = (src - p) // P  # local rank index, O(1) dense mapping
        deg = np.bincount(lidx, minlength=_part_size(p, N, P)).astype(np.float64)
        return (lidx, dst, deg)

    @ray.remote
    def contribs(edge_part: tuple, rank_part: np.ndarray) -> tuple:
        lidx, dst, deg = edge_part
        if not len(lidx):
            return tuple((np.empty(0, np.int64), np.empty(0, np.float64))
                         for _ in range(P))
        w = rank_part[lidx] / deg[lidx]  # deg >= 1 wherever an edge exists
        dpart = dst % P
        out = []
        for q in range(P):
            sel = dpart == q
            uq, inv = np.unique((dst[sel] - q) // P, return_inverse=True)
            out.append((uq, np.bincount(inv, weights=w[sel])))
        return tuple(out)

    @ray.remote
    def reduce_part(q: int, t_part, *partials) -> np.ndarray:
        r = ((1.0 - d) * t_part if t_part is not None
             else np.full(_part_size(q, N, P), (1.0 - d) / N))
        for uq, s in partials:
            if len(uq):
                np.add.at(r, uq, d * s)
        return r

    # one-time src-keyed exchange: every edge row moves exactly once
    if isinstance(edges_ds, pa.Table):
        blocks = [ray.put(edges_ds)]
    else:
        blocks = block_refs(edges_ds)
    splits = [split.options(num_returns=P).remote(b) for b in blocks]
    edge_parts = [build.remote(p, *[s[p] for s in splits]) for p in range(P)]

    if personalization is not None:
        t_full = np.asarray(personalization, dtype=np.float64)
        if t_full.shape != (N,):
            raise ValueError("personalization must have length num_nodes")
        t_full = t_full / t_full.sum()
        t_parts = [ray.put(t_full[np.arange(q, N, P)]) for q in range(P)]
        ranks = list(t_parts)  # r_0 = t
    else:
        t_parts = [None] * P
        ranks = [ray.put(np.full(_part_size(p, N, P), 1.0 / N)) for p in range(P)]
    contribs_r = contribs.options(num_returns=P)
    for _ in range(int(iters)):
        cons = [contribs_r.remote(edge_parts[p], ranks[p]) for p in range(P)]
        ranks = [reduce_part.remote(q, t_parts[q], *[cons[p][q] for p in range(P)])
                 for q in range(P)]

    if not materialize:
        # the coded 10^10-node route: ranks stay as P object-store refs
        # (partition q owns nodes q, q+P, q+2P, … — pagerank_partition_
        # nodes reconstructs the id axis); consumers write parquet per
        # partition or feed the refs into the next exchange without the
        # rank vector ever landing on the driver
        return {"num_partitions": P, "num_nodes": N, "rank_refs": ranks}

    parts = ray.get(ranks)
    node = np.concatenate([np.arange(p, N, P, dtype=np.int64) for p in range(P)])
    rank = np.concatenate(parts) if parts else np.empty(0)
    t = pa.table({"node": pa.array(node), "rank": pa.array(rank)})
    return t.take(pc.sort_indices(t, [("node", "ascending")]))


def pagerank_partition_nodes(q: int, num_nodes: int, num_partitions: int) -> np.ndarray:
    """Node ids owned by rank partition ``q`` (the mod-P layout)."""
    return np.arange(q, num_nodes, num_partitions, dtype=np.int64)


def pagerank_reference(edges: np.ndarray, num_nodes: int, iters: int = 10,
                       d: float = 0.85,
                       personalization: np.ndarray | None = None) -> np.ndarray:
    """Single-machine scalar reference (tests): same rule, dense numpy."""
    src, dst = edges[:, 0], edges[:, 1]
    deg = np.bincount(src, minlength=num_nodes).astype(np.float64)
    if personalization is not None:
        t = np.asarray(personalization, dtype=np.float64)
        t = t / t.sum()
    else:
        t = np.full(num_nodes, 1.0 / num_nodes)
    r = t.copy()
    for _ in range(iters):
        w = r[src] / deg[src]
        nxt = (1.0 - d) * t
        np.add.at(nxt, dst, d * w)
        r = nxt
    return r
