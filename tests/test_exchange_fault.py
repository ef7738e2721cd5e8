"""Fault tolerance of the raw-task scatter exchange (stages/dedup.py).

The crawl's actor pools already have a hard-kill drill
(test_crawl_parity.test_fetch_actor_pool_survives_actor_death); the
exchange family — the machinery every coded 100-TB scale path rides —
is pure Ray TASKS, so a worker death mid-exchange must be healed by
task retry + lineage reconstruction of the scatter outputs.  These
drills hard-kill a gather worker once and assert the result is
byte-identical to a clean run.
"""

import os

import numpy as np
import pyarrow as pa


def _mkds(n=4000, nblocks=8):
    import ray.data as rd

    keys = np.arange(n, dtype=np.int64) % 97
    vals = np.arange(n, dtype=np.int64)
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    step = -(-n // nblocks)
    return rd.from_arrow([t.slice(i * step, step) for i in range(nblocks)])


def _make_kernels(marker):
    """Kernels built INSIDE a function so cloudpickle ships them by
    value — a retried task on a fresh worker cannot import tests/."""

    def grouped_sum(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(k, return_inverse=True)
        s = np.bincount(inv, weights=v, minlength=len(uk)).astype(np.int64)
        return pa.table({"k": pa.array(uk), "s": pa.array(s)})

    def killing_fn(t: pa.Table) -> pa.Table:
        if not os.path.exists(marker) and t.num_rows:
            with open(marker, "w") as f:
                f.write("x")
            os._exit(1)  # hard-kill this worker mid-gather
        return grouped_sum(t)

    return grouped_sum, killing_fn


def test_scatter_exchange_survives_worker_death(ray_session, tmp_path):
    """A gather task hard-killed mid-exchange is retried by Ray; the
    scatter outputs it consumed are reconstructed from lineage if the
    dead worker took them along.  Output must equal the clean run."""
    from siteone_crawler_ray.functions.agg import block_refs
    from siteone_crawler_ray.stages.dedup import _scatter_exchange

    marker = str(tmp_path / "gather-died-once")
    grouped_sum, killing_fn = _make_kernels(marker)

    refs = block_refs(_mkds())
    clean = pa.concat_tables(
        _scatter_exchange([(refs, "k")], grouped_sum, num_partitions=4)
    ).sort_by("k")

    refs2 = block_refs(_mkds())
    got = pa.concat_tables(
        _scatter_exchange([(refs2, "k")], killing_fn, num_partitions=4)
    ).sort_by("k")
    assert os.path.exists(marker), "the kill branch never ran"
    assert got.equals(clean)


def test_partitioned_exchange_survives_worker_death(ray_session, tmp_path):
    """Same drill through the Dataset-fronted small path
    (_partitioned_exchange), which shares blocks instead of scattering."""
    from siteone_crawler_ray.stages.dedup import _partitioned_exchange

    marker = str(tmp_path / "part-died-once")
    grouped_sum, killing_fn = _make_kernels(marker)

    clean = pa.concat_tables(
        _partitioned_exchange(_mkds(), "k", grouped_sum, num_partitions=4)
    ).sort_by("k")

    got = pa.concat_tables(
        _partitioned_exchange(_mkds(), "k", killing_fn, num_partitions=4)
    ).sort_by("k")
    assert os.path.exists(marker), "the kill branch never ran"
    assert got.equals(clean)


def test_scatter_exchange_single_partition(ray_session):
    """P=1 regression: Ray's num_returns=1 yields a bare ref, so the
    scatter must return the bare table, not a 1-tuple.  Every keyed
    exchange (joins, relational scale paths, dedup index) runs on this
    one scatter, so this guards them all."""
    from siteone_crawler_ray.functions.agg import block_refs
    from siteone_crawler_ray.stages.dedup import _scatter_exchange

    marker_free, _ = _make_kernels("/nonexistent-marker")
    refs = block_refs(_mkds())
    one = pa.concat_tables(
        _scatter_exchange([(refs, "k")], marker_free, num_partitions=1)
    ).sort_by("k")
    refs2 = block_refs(_mkds())
    four = pa.concat_tables(
        _scatter_exchange([(refs2, "k")], marker_free, num_partitions=4)
    ).sort_by("k")
    assert one.equals(four)
