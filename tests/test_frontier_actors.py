"""Frontier key ranges vs their owners (stages/frontier.py).

The first H = min(``shard_actor_count``, pool size) crawl workers each
own one contiguous url_key range; the crawl starts no other actor.  The
crawl's output must not depend on H: the skipped rows come out in the
oracle's discovery order, and a checkpoint written with one owner count
resumes with another.  An owner's cuckoo filter sizes itself from its
exact seen set.  Owner 0 also routes each wave (``assemble_wave``)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus
from siteone_crawler_ray.functions.hashing import key_bounds, range_index
from siteone_crawler_ray.stages import frontier
from siteone_crawler_ray.stages.frontier import FILTER_START, FrontierShardState, parse_ckpt_name

VISITED_COLS = ["seq", "url", "uq_id", "source_uq_id", "source_attr", "epoch", "status_code", "depth"]
# four owners' ranges; tests split and merge them
B4 = key_bounds(4)


def in_key_range(keys, lo, hi):
    """Mask of the uint64 ``keys`` in [lo, hi), in Python ints (hi may
    be 2^64)."""
    return np.array([lo <= int(k) < hi for k in keys], dtype=bool)


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


def _skips(keys, priority=None):
    n = len(keys)
    return pa.table({
        "url": [f"https://s/{k}" for k in keys],
        "url_key": pa.array(keys, pa.uint64()),
        "reason": pa.array(np.ones(n), pa.int8()),
        "source_uq_id": [""] * n,
        "source_attr": pa.array(np.zeros(n), pa.int8()),
        "priority": pa.array(np.arange(n) if priority is None else priority, pa.int64()),
    })


def _state_with(lo, hi, keys):
    """A shard state for the keys [lo, hi) holding the given keys of its
    own range as seen, pending and skipped."""
    s = FrontierShardState(lo, hi)
    mine = keys[in_key_range(keys, lo, hi)]
    s.offer(_entries(mine))
    s.record_skips(_skips(mine))
    return s, mine


def test_checkpoint_names_carry_the_partition_range(tmp_path):
    """The files are named by the owner's url_key range, 2^64 included."""
    keys = np.random.default_rng(1).integers(0, 2**64, 200, dtype=np.uint64)
    for lo, hi in ((B4[1], B4[3]), (B4[3], B4[4])):
        d = tmp_path / f"{lo}"
        s, mine = _state_with(lo, hi, keys)
        assert len(mine)
        out = s.checkpoint(str(d))
        assert out["keys"] == [lo, hi]
        assert sorted(os.listdir(d)) == [
            f"{k}-{lo:020d}-{hi:020d}.parquet" for k in ("pending", "seen-delta", "skips")]
        assert parse_ckpt_name(f"seen-delta-{lo:020d}-{hi:020d}.parquet") == ("seen-delta", lo, hi)
    # a name without both range bounds is rejected
    for bad in ("seen-delta.parquet", "skips-a-1.parquet", "pending-001-003.parquet.tmp",
                "pending-003.parquet", "notes.txt"):
        with pytest.raises(ValueError):
            parse_ckpt_name(bad)


@pytest.mark.parametrize("write_bounds,read_bounds", [
    ([0, 4], [0, 2, 4]),      # one actor → two
    ([0, 2, 4], [0, 4]),      # two → one
    ([0, 1, 2, 3, 4], [0, 1, 3, 4]),
    ([0, 3, 4], [0, 1, 2, 3, 4]),
])
def test_restore_reads_overlapping_ranges_only_its_own_rows(tmp_path, write_bounds, read_bounds):
    """Bounds index into the four-owner key ranges ``B4``."""
    keys = np.random.default_rng(2).integers(0, 2**64, 400, dtype=np.uint64)
    d0, d1 = str(tmp_path / "e0"), str(tmp_path / "e1")
    writers = [_state_with(B4[lo], B4[hi], keys[:200])
               for lo, hi in zip(write_bounds, write_bounds[1:])]
    for s, _ in writers:
        s.checkpoint(d0)
    for s, _ in writers:  # second epoch: more seen keys, a new pending queue
        s.drain()
        s.offer(_entries(keys[200:][in_key_range(keys[200:], s.lo, s.hi)]))
        s.checkpoint(d1)
    for lo, hi in zip(read_bounds, read_bounds[1:]):
        r = FrontierShardState(B4[lo], B4[hi])
        r.restore([d0, d1])
        own = in_key_range(keys, B4[lo], B4[hi])
        assert np.array_equal(r.snapshot_seen(), np.sort(keys[own]))
        pend = r.drain()
        assert sorted(pend["url_key"].to_pylist()) == sorted(keys[200:][own[200:]].tolist())
        assert r.contains(keys[own]).all() and not r.contains(keys[~own]).any()
        # the skip authority came back too: a restored skip is not re-recorded
        assert r.record_skips(_skips(keys[:200][own[:200]])) == 0


def test_restore_rejects_unknown_checkpoint_files(tmp_path):
    keys = np.random.default_rng(3).integers(0, 2**64, 300, dtype=np.uint64)
    d = str(tmp_path / "e0")
    s, _ = _state_with(0, 2**64, keys)
    s.checkpoint(d)
    r = FrontierShardState()
    r.restore([d])
    assert np.array_equal(r.snapshot_seen(), np.sort(keys))
    pq.write_table(pa.table({"url_key": pa.array([1], pa.uint64())}),
                   os.path.join(d, "seen-keys.parquet"))
    with pytest.raises(ValueError, match="unrecognised"):
        FrontierShardState().restore([d])


def test_collect_skipped_orders_by_epoch_then_priority(tmp_path):
    """Skip rows come back in numeric epoch order — epoch 10 follows
    epoch 2 — and within an epoch in priority (discovery) order across
    every owner's file, without the priority column."""
    from types import SimpleNamespace

    keys = np.arange(40, 60, dtype=np.uint64)
    prio = np.random.default_rng(4).permutation(20)
    for e, sl in ((2, slice(0, 10)), (10, slice(10, 20))):
        d = tmp_path / "shards" / f"epoch={e}"
        d.mkdir(parents=True)
        half = (sl.start + sl.stop) // 2  # two owners' files per epoch
        for lo, hi in ((sl.start, half), (half, sl.stop)):
            pq.write_table(_skips(keys[lo:hi], prio[lo:hi]),
                           str(d / f"skips-{lo:020d}-{hi:020d}.parquet"))
    fake = SimpleNamespace(workdir=str(tmp_path))
    got = EpochCrawler._collect_skipped(fake)
    assert "priority" not in got.column_names
    want = [int(k) for sl in (slice(0, 10), slice(10, 20))
            for _, k in sorted(zip(prio[sl], keys[sl]))]
    assert got["url_key"].to_pylist() == want


def test_filter_grows_from_the_exact_set(tmp_path):
    """Fed 64× its first filter's size in batches, an owner's cuckoo
    filter stays at or below 0.7 load with nothing spilled and no false
    negative after every add — and so after a checkpoint and restore."""
    s = FrontierShardState()
    first_slots = s.filter.nbuckets * s.filter.SLOTS
    assert s.filter.capacity >= FILTER_START
    keys = np.random.default_rng(5).integers(0, 2**64, 64 * first_slots, dtype=np.uint64)
    added = 0
    for batch in np.array_split(keys, 24):
        s.offer(_entries(batch))
        added += len(batch)
        assert not s.filter.spill and s.filter.load_factor <= 0.7
        assert s.contains(keys[:added]).all()
    assert s.filter.nbuckets * s.filter.SLOTS >= 64 * first_slots
    s.checkpoint(str(tmp_path))
    r = FrontierShardState()
    r.restore([str(tmp_path)])
    assert not r.filter.spill and r.filter.load_factor <= 0.7
    assert r.contains(keys).all()


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
    monkeypatch.setattr(frontier, "shard_actor_count", lambda: H)


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


@pytest.mark.parametrize("routing", ["host", "bucket"])
def test_assemble_wave_splits_each_host_rate_over_its_workers(tmp_path, routing):
    """assemble_wave routes a wave over the whole pool of P workers and
    gives each host its split: the number of distinct workers its rows
    land on.  In-process FetchStages, one per worker, each fetching its
    rows, hold a host's buckets on exactly those workers at rates that
    sum to ``max_reqs_per_sec`` — for a salted hot host under host
    routing and for every host under bucket routing."""
    import pyarrow.compute as pc

    from siteone_crawler_ray.functions.hashing import xxh64_strings
    from siteone_crawler_ray.stages.fetch import FetchStage

    tabs = make_graph_corpus(seed=5, hosts=1, total_pages=20)
    cp = str(tmp_path / "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    P, rate = 3, 1000.0
    # the hot host holds 40 of 50 rows: more than 2 fair shares (17)
    hosts = ["hot.test"] * 40 + ["b.test"] * 6 + ["c.test"] * 4
    n = len(hosts)
    urls = [f"https://{h}/p{i}.html" for i, h in enumerate(hosts)]
    drained = _entries(xxh64_strings(np.array(urls, dtype=object)))
    drained = drained.set_column(0, "url", pa.array(urls)).set_column(2, "host", pa.array(hosts))
    meta, wave = FrontierShardState().assemble_wave(0, 0, routing, P, True, drained)
    assert meta["W"] == n
    worker = wave["worker"].to_numpy()
    assert meta["workers"] == sorted(set(worker.tolist()))
    stages = [FetchStage(cp, rate) for _ in range(P)]
    for i, st in enumerate(stages):
        st.split = meta["split"]
        mine = wave.filter(pc.equal(wave["worker"], i))
        if mine.num_rows:
            st(mine)
    wave_hosts = np.array(wave["host"].to_pylist())
    for h in set(hosts):
        on = set(worker[wave_hosts == h].tolist())
        assert meta["split"][h] == len(on)
        assert {i for i, st in enumerate(stages) if h in st.buckets} == on
        assert sum(st.buckets[h].rate for st in stages if h in st.buckets) == pytest.approx(rate)
    if routing == "host":
        # salted over S = min(P, ceil(40 / 17)) = 3 workers; the others on one
        assert meta["split"] == {"hot.test": 3, "b.test": 1, "c.test": 1}


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
    c = _crawl(corpus, os.path.join(tmp_workdir, "pool"), CrawlConfig())
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
    """At one owner and at one per pool worker the skipped rows equal
    the sequential oracle's, row for row and in order."""
    from siteone_crawler_ray.pipelines.oracle import run_oracle

    cp, seeds, robots = corpus
    tabs = make_graph_corpus(seed=42, hosts=4, total_pages=200, out_degree=5)
    want = run_oracle(tabs["documents"], seeds, robots, CrawlConfig()).skipped
    pool = _pool_size()
    results = []
    for H in (1, pool):
        _force_actors(monkeypatch, H)
        c = _crawl(corpus, os.path.join(tmp_workdir, f"h{H}"), CrawlConfig())
        c.seed()
        assert len(c._shards) == H
        results.append(c.run())
    one, every = results
    assert one.skipped.num_rows > 0
    owners = range_index(every.skipped["url_key"].to_numpy(), pool)
    assert len(set(owners.tolist())) > 1  # the order check spans owners
    for res in (one, every):
        got = res.skipped.to_pylist()
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"skipped row {i} of {len(want)} differs: {g} != {w}"
        assert len(got) == len(want)
    _same_result(one, every)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("h_before,h_after", [(2, 1), (1, 2)])
def test_resume_with_a_changed_actor_count(monkeypatch, tmp_workdir, corpus, h_before, h_after):
    cfg = CrawlConfig()
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
