"""Frontier partitions vs their owners (stages/frontier.py).

``num_shards`` partitions are held by the first H = min(
``shard_actor_count``, pool size) crawl workers, each owning a
contiguous partition range; the crawl starts no other actor.  The
crawl's output must not depend on H: the skipped rows come out in the
same order, and a checkpoint written with one owner count — or with the
one-index file names of one owner per partition — resumes with
another."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus
from siteone_crawler_ray.stages import frontier
from siteone_crawler_ray.stages.frontier import FrontierShardState, parse_ckpt_name, shard_of

VISITED_COLS = ["seq", "url", "uq_id", "source_uq_id", "source_attr", "epoch", "status_code", "depth"]
NUM_SHARDS = 4


def _entries(keys):
    n = len(keys)
    return pa.table({
        "url": [f"https://h/{k}" for k in keys],
        "url_key": pa.array(keys, pa.uint64()),
        "host": ["h"] * n,
        "depth": pa.array(np.zeros(n), pa.int32()),
        "priority": pa.array(np.arange(n), pa.int64()),
        "source_uq_id": [""] * n,
        "source_attr": pa.array(np.zeros(n), pa.int8()),
    })


def _skips(keys):
    n = len(keys)
    return pa.table({
        "url": [f"https://s/{k}" for k in keys],
        "url_key": pa.array(keys, pa.uint64()),
        "reason": pa.array(np.ones(n), pa.int8()),
        "source_uq_id": [""] * n,
        "source_attr": pa.array(np.zeros(n), pa.int8()),
        "priority": pa.array(np.arange(n), pa.int64()),
    })


def _state_with(lo, hi, keys, cap=1 << 10):
    """A shard state for [lo, hi) holding the given keys of its own
    partitions as seen, pending and skipped."""
    s = FrontierShardState(range(lo, hi), cap)
    mine = keys[(shard_of(keys, NUM_SHARDS) >= lo) & (shard_of(keys, NUM_SHARDS) < hi)]
    s.offer(_entries(mine))
    s.record_skips(_skips(mine))
    return s, mine


def test_checkpoint_names_carry_the_partition_range(tmp_path):
    keys = np.random.default_rng(1).integers(0, 2**64, 200, dtype=np.uint64)
    s, _ = _state_with(1, 3, keys)
    assert s.filter_capacity == 2 << 10  # per-partition capacity × 2 partitions
    out = s.checkpoint(str(tmp_path))
    assert out["partitions"] == [1, 3]
    assert sorted(os.listdir(tmp_path)) == [
        "pending-001-003.parquet", "seen-delta-001-003.parquet", "skips-001-003.parquet"]
    assert parse_ckpt_name("seen-delta-001-003.parquet") == ("seen-delta", 1, 3)
    assert parse_ckpt_name("pending-003.parquet") == ("pending", 3, 4)
    for bad in ("seen-delta.parquet", "skips-a-1.parquet", "pending-001-003.parquet.tmp",
                "notes.txt"):
        with pytest.raises(ValueError):
            parse_ckpt_name(bad)


@pytest.mark.parametrize("write_bounds,read_bounds", [
    ([0, 4], [0, 2, 4]),      # one actor → two
    ([0, 2, 4], [0, 4]),      # two → one
    ([0, 1, 2, 3, 4], [0, 1, 3, 4]),
    ([0, 3, 4], [0, 1, 2, 3, 4]),
])
def test_restore_reads_overlapping_ranges_only_its_own_rows(tmp_path, write_bounds, read_bounds):
    keys = np.random.default_rng(2).integers(0, 2**64, 400, dtype=np.uint64)
    d0, d1 = str(tmp_path / "e0"), str(tmp_path / "e1")
    writers = [_state_with(lo, hi, keys[:200]) for lo, hi in zip(write_bounds, write_bounds[1:])]
    for s, _ in writers:
        s.checkpoint(d0)
    for s, _ in writers:  # second epoch: more seen keys, a new pending queue
        s.drain()
        mine = keys[200:][np.isin(shard_of(keys[200:], NUM_SHARDS), range(s.lo, s.hi))]
        s.offer(_entries(mine))
        s.checkpoint(d1)
    for lo, hi in zip(read_bounds, read_bounds[1:]):
        r = FrontierShardState(range(lo, hi), 1 << 10)
        r.restore([d0, d1], NUM_SHARDS)
        own = np.isin(shard_of(keys, NUM_SHARDS), range(lo, hi))
        assert np.array_equal(r.snapshot_seen(), np.sort(keys[own]))
        pend = r.drain()
        assert sorted(pend["url_key"].to_pylist()) == sorted(keys[200:][own[200:]].tolist())
        assert r.contains(keys[own]).all() and not r.contains(keys[~own]).any()
        # the skip authority came back too: a restored skip is not re-recorded
        assert r.record_skips(_skips(keys[:200][own[:200]])) == 0


def test_restore_reads_one_index_names_and_rejects_unknown_files(tmp_path):
    keys = np.random.default_rng(3).integers(0, 2**64, 300, dtype=np.uint64)
    d = str(tmp_path / "e0")
    for i in range(NUM_SHARDS):  # one actor per partition, one-index names
        s, _ = _state_with(i, i + 1, keys)
        s.checkpoint(d)
    for f in os.listdir(d):
        kind, lo, hi = parse_ckpt_name(f)
        os.rename(os.path.join(d, f), os.path.join(d, f"{kind}-{lo:03d}.parquet"))
    r = FrontierShardState(range(0, NUM_SHARDS), 1 << 10)
    r.restore([d], NUM_SHARDS)
    assert np.array_equal(r.snapshot_seen(), np.sort(keys))
    assert r.drain().num_rows == len(keys)
    pq.write_table(pa.table({"url_key": pa.array([1], pa.uint64())}),
                   os.path.join(d, "seen-keys.parquet"))
    with pytest.raises(ValueError, match="unrecognised"):
        FrontierShardState(range(0, NUM_SHARDS), 1 << 10).restore([d], NUM_SHARDS)


def test_collect_skipped_orders_by_epoch_then_partition(tmp_path):
    """Skip rows come back in (epoch, partition) order — numeric epoch
    order, so epoch 10 follows epoch 2 — with each partition's rows in
    the priority order the actor wrote them."""
    from types import SimpleNamespace

    keys = np.arange(40, 60, dtype=np.uint64)  # partitions 0..3 interleaved
    for e, ks in ((2, keys[:10]), (10, keys[10:])):
        d = tmp_path / "shards" / f"epoch={e}"
        d.mkdir(parents=True)
        pq.write_table(_skips(ks).drop(["priority"]), str(d / "skips-000-004.parquet"))
    fake = SimpleNamespace(workdir=str(tmp_path), cfg=CrawlConfig(num_shards=NUM_SHARDS))
    got = EpochCrawler._collect_skipped(fake)["url_key"].to_numpy()
    want = [k for ks in (keys[:10], keys[10:])
            for k in sorted(ks.tolist(), key=lambda k: k % NUM_SHARDS)]
    assert got.tolist() == want


# -- crawls at forced actor counts ------------------------------------------


@pytest.fixture()
def corpus(tmp_workdir):
    tabs = make_graph_corpus(seed=42, hosts=4, total_pages=200, out_degree=5)
    cp = os.path.join(tmp_workdir, "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    seeds = tabs["seeds"]["url"].to_pylist()
    robots = dict(zip(tabs["robots"]["host"].to_pylist(), tabs["robots"]["body"].to_pylist()))
    return cp, seeds, robots


def _force_actors(monkeypatch, H):
    monkeypatch.setattr(frontier, "shard_actor_count", lambda num_shards: H)


def _pool_size():
    """Workers a crawl starts in this Ray session (3 at 4 CPUs)."""
    from siteone_crawler_ray.stages.worker import clamp_worker_count

    return max(1, clamp_worker_count(64))


def _crawl(corpus, workdir, cfg):
    cp, seeds, robots = corpus
    return EpochCrawler(cp, seeds, robots, workdir, cfg)


def _same_result(a, b):
    assert a.visited_table(columns=VISITED_COLS).equals(b.visited_table(columns=VISITED_COLS))
    assert np.array_equal(a.seen_keys, b.seen_keys)
    assert a.skipped.equals(b.skipped), "skipped rows differ (content or order)"


@pytest.mark.usefixtures("ray_session")
def test_crawl_starts_one_pool_whose_first_workers_own_the_frontier(
        monkeypatch, tmp_workdir, corpus):
    """A crawl creates exactly its pool's actors, all CrawlWorkers, and
    the owners are the pool's first workers — no separate shard
    actors."""
    import ray.actor

    created = []
    real = ray.actor.ActorClass._remote

    def spy(self, *args, **kwargs):
        created.append(self.__ray_metadata__.class_name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ray.actor.ActorClass, "_remote", spy)
    c = _crawl(corpus, os.path.join(tmp_workdir, "pool"), CrawlConfig(num_shards=NUM_SHARDS))
    try:
        c.seed()
        assert created == ["CrawlWorker"] * len(c._workers)
        assert len(c._workers) == _pool_size()
        assert 1 <= len(c._shards) <= len(c._workers)
        assert all(s is w for s, w in zip(c._shards, c._workers))
    finally:
        c.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_skipped_order_does_not_depend_on_actor_count(monkeypatch, tmp_workdir, corpus):
    # one partition per owner when every worker owns one
    pool = _pool_size()
    cfg = CrawlConfig(num_shards=pool)
    results = []
    for H in (1, pool):
        _force_actors(monkeypatch, H)
        c = _crawl(corpus, os.path.join(tmp_workdir, f"h{H}"), cfg)
        c.seed()
        assert len(c._shards) == H
        results.append(c.run())
    one, every = results
    assert one.skipped.num_rows > 0
    parts = shard_of(every.skipped["url_key"].to_numpy(), pool)
    assert len(set(parts.tolist())) > 1  # the order check spans partitions
    _same_result(one, every)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("h_before,h_after", [(2, 1), (1, 2)])
def test_resume_with_a_changed_actor_count(monkeypatch, tmp_workdir, corpus, h_before, h_after):
    cfg = CrawlConfig(num_shards=NUM_SHARDS)
    full = _crawl(corpus, os.path.join(tmp_workdir, "full"), cfg).run()

    part_dir = os.path.join(tmp_workdir, "part")
    _force_actors(monkeypatch, h_before)
    c1 = _crawl(corpus, part_dir, cfg)
    c1.seed()
    c1.run_epoch()
    c1.run_epoch()
    c1.run_epoch()
    c1.shutdown()

    _force_actors(monkeypatch, h_after)
    c2 = _crawl(corpus, part_dir, cfg)
    assert c2.resume()
    assert len(c2._shards) == h_after
    _same_result(full, c2.run())


@pytest.mark.usefixtures("ray_session")
def test_resume_from_one_index_checkpoint_names(monkeypatch, tmp_workdir, corpus):
    """A checkpoint written one owner per partition under the one-index
    names (``seen-delta-002.parquet``) restores into a single owner."""
    pool = _pool_size()
    cfg = CrawlConfig(num_shards=pool)
    full = _crawl(corpus, os.path.join(tmp_workdir, "full"), cfg).run()

    part_dir = os.path.join(tmp_workdir, "part")
    _force_actors(monkeypatch, pool)
    c1 = _crawl(corpus, part_dir, cfg)
    c1.seed()
    c1.run_epoch()
    c1.run_epoch()
    c1._flush_pending()
    c1.shutdown()
    shards_root = os.path.join(part_dir, "shards")
    for d in os.listdir(shards_root):
        for f in os.listdir(os.path.join(shards_root, d)):
            kind, lo, hi = parse_ckpt_name(f)
            assert hi == lo + 1
            os.rename(os.path.join(shards_root, d, f),
                      os.path.join(shards_root, d, f"{kind}-{lo:03d}.parquet"))

    _force_actors(monkeypatch, 1)
    c2 = _crawl(corpus, part_dir, cfg)
    assert c2.resume()
    _same_result(full, c2.run())
