"""Worker-pool sizing (stages/worker.py::_worker_slots), the count of
frontier owners, their url_key ranges and the crawl-worker actor's
process tuning.

The crawl runs one actor pool: one 1-CPU worker per whole cluster CPU,
minus one slot kept back for the driver, whatever the corpus's bucket
count, SPREAD over the nodes; its first
H = min(shard_actor_count, pool) workers own the frontier's url_key
ranges.  Every actor books a whole CPU, so the pool packs node by
node (the per-node reasoning once needed for fractional-CPU shard
actors beside the workers is gone with them)."""

import json
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _fake_nodes(monkeypatch, cpus_per_node):
    import ray

    monkeypatch.setattr(
        ray, "nodes",
        lambda: [{"Alive": True, "Resources": {"CPU": float(c)}}
                 for c in cpus_per_node])


def test_single_node_matches_historical_formula(monkeypatch):
    from siteone_crawler_ray.stages.worker import _worker_slots

    # every whole CPU but the driver's: 32 - 1 = 31, 4 - 1 = 3
    _fake_nodes(monkeypatch, [32])
    assert _worker_slots() == 31
    _fake_nodes(monkeypatch, [4])
    assert _worker_slots() == 3


def test_four_by_eight_cluster_packs_per_node(monkeypatch):
    from siteone_crawler_ray.stages.worker import _worker_slots, clamp_worker_count

    _fake_nodes(monkeypatch, [8, 8, 8, 8])
    # 32 whole CPUs - 1 driver slot: SPREAD packs 8, 8, 8 and 7 workers
    assert _worker_slots() == 31
    assert clamp_worker_count(64) == 31


def test_more_nodes_than_shards_and_dead_nodes(monkeypatch):
    import ray

    from siteone_crawler_ray.stages.worker import _worker_slots

    monkeypatch.setattr(
        ray, "nodes",
        lambda: [{"Alive": True, "Resources": {"CPU": 8.0}},
                 {"Alive": False, "Resources": {"CPU": 8.0}},
                 {"Alive": True, "Resources": {}}])
    # one live CPU-bearing node of 8 CPUs
    assert _worker_slots() == 7


def test_tiny_cluster_never_returns_zero(monkeypatch):
    from siteone_crawler_ray.stages.worker import _worker_slots

    # the smallest clusters with a whole CPU beside the driver's keep it
    _fake_nodes(monkeypatch, [2])
    assert _worker_slots() == 1
    _fake_nodes(monkeypatch, [3])
    assert _worker_slots() == 2


def test_no_whole_cpu_left_means_no_remote_workers(monkeypatch):
    from siteone_crawler_ray.stages.worker import _worker_slots, clamp_worker_count

    # a 1-CPU cluster has no CPU beside the driver's slot: a 1-CPU
    # worker could never schedule (make_crawl_workers then builds one
    # zero-CPU worker instead)
    _fake_nodes(monkeypatch, [1])
    assert _worker_slots() == 0
    assert clamp_worker_count(4) == 0


def _spread(pool: int, node_cpus: list[int]) -> list[int]:
    """Node of each of ``pool`` 1-CPU actors placed the SPREAD way:
    round-robin over the nodes that still have a free CPU."""
    free, nodes, n = list(node_cpus), [], 0
    for _ in range(pool):
        while not free[n % len(free)]:
            n += 1
        free[n % len(free)] -= 1
        nodes.append(n % len(free))
        n += 1
    return nodes


@pytest.mark.parametrize("node_cpus", [[1], [2], [4], [8], [16], [32], [8, 8, 8, 8]])
@pytest.mark.parametrize("num_buckets", [1, 2, 4, 8, 16, 29])
def test_pool_fits_beside_shards_on_every_node(monkeypatch, node_cpus, num_buckets):
    """Every node holds its workers: the pool of 1-CPU workers, as
    large whatever the corpus's bucket count, placed the SPREAD way,
    fits every node's CPUs with one CPU left for the driver, and the H
    owners among them sit on min(H, nodes) distinct nodes.  The pool's
    warm-up loads every bucket, each worker at least one, in at most
    B + P - 1 loads (a cut inside a bucket shares it)."""
    from types import SimpleNamespace

    from siteone_crawler_ray.functions.hashing import key_bounds
    from siteone_crawler_ray.sources.corpus import CorpusReader
    from siteone_crawler_ray.stages.frontier import shard_actor_count
    from siteone_crawler_ray.stages.worker import _worker_slots, clamp_worker_count

    _fake_nodes(monkeypatch, node_cpus)
    assert _worker_slots() == sum(node_cpus) - 1
    k = clamp_worker_count(64)  # as EpochCrawler._make_shards
    P = max(1, k)
    reader = SimpleNamespace(num_buckets=num_buckets)
    b = key_bounds(P)
    spans = [CorpusReader.bucket_span(reader, lo, hi) for lo, hi in zip(b, b[1:])]
    loads = [j for span in spans for j in span]
    assert all(len(span) for span in spans)
    assert set(loads) == set(range(num_buckets))
    assert len(loads) <= num_buckets + P - 1
    if k == 0:  # one zero-CPU worker
        return
    nodes = _spread(k, node_cpus)
    for n, c in enumerate(node_cpus):
        assert nodes.count(n) <= c
    H = min(shard_actor_count(), k)
    assert 1 <= H <= k
    assert H >= min(len(node_cpus), k)  # the frontier reaches every node
    assert len(set(nodes[:H])) == min(H, len(node_cpus))


def test_pool_sizes_at_8_16_32_cpus(monkeypatch):
    # every whole CPU but the driver's
    from siteone_crawler_ray.stages.worker import _worker_slots

    for cpus, want in [(8, 7), (16, 15), (32, 31)]:
        _fake_nodes(monkeypatch, [cpus])
        assert _worker_slots() == want, cpus


@pytest.mark.parametrize("node_cpus,want", [
    ([1], 1), ([4], 1), ([8], 2), ([16], 4), ([2, 2], 2), ([32], 8), ([8, 8, 8, 8], 8),
    ([64], 16),
])
def test_shard_actor_count_per_cluster_shape(monkeypatch, node_cpus, want):
    """One owner per four CPUs, at least one per node: a 4-CPU crawl
    keeps the frontier in one worker, 32 CPUs in 8, 64 CPUs in 16 (the
    crawl caps it at its pool size)."""
    from siteone_crawler_ray.stages.frontier import shard_actor_count

    _fake_nodes(monkeypatch, node_cpus)
    assert shard_actor_count() == want


@pytest.mark.parametrize("num_owners", [1, 2, 5, 8, 29])
def test_partition_ranges_are_contiguous_and_balanced(num_owners):
    """Owner j of H holds url_keys [ceil(j·2^64/H), ceil((j+1)·2^64/H)):
    the ranges cover [0, 2^64), their sizes differ by at most one, and
    every key at a range edge lies in exactly one range — by binary
    search, by ``range_index``, by the driver's owner routing and by
    bucket routing of a wave over a pool of H workers."""
    from types import SimpleNamespace

    import numpy as np
    import pyarrow as pa

    from siteone_crawler_ray.functions.hashing import key_bounds, key_span, range_index
    from siteone_crawler_ray.pipelines.crawl import EpochCrawler
    from siteone_crawler_ray.stages.frontier import route_wave

    b = key_bounds(num_owners)
    assert len(b) == num_owners + 1 and b[0] == 0 and b[-1] == 2**64
    sizes = [hi - lo for lo, hi in zip(b, b[1:])]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    edges = np.array(sorted({x for lo, hi in zip(b, b[1:]) for x in (lo, lo + 1, hi - 1)}),
                     dtype=np.uint64)
    masks = [np.array([lo <= int(k) < hi for k in edges]) for lo, hi in zip(b, b[1:])]
    assert (np.sum(masks, axis=0) == 1).all()
    index = range_index(edges, num_owners)
    owners = EpochCrawler._rows_by_actor(SimpleNamespace(_shards=[None] * num_owners), edges)
    wave = pa.table({"url_key": pa.array(edges, pa.uint64())})
    assert np.array_equal(route_wave(wave, "bucket", num_owners), index)
    for j, ((lo, hi), m) in enumerate(zip(zip(b, b[1:]), masks)):
        a, z = key_span(edges, lo, hi)
        assert np.array_equal(np.arange(a, z), np.nonzero(m)[0])
        assert np.array_equal(index == j, m)
        assert np.array_equal(owners[j], np.nonzero(m)[0])


def test_pool_does_not_depend_on_the_bucket_count(tmp_workdir):
    """Workers and corpus buckets both cut url_key into contiguous
    ranges, so a 2-bucket corpus on the 4-CPU session (3 worker slots)
    starts 3 workers under either routing; under bucket routing every
    worker fetches rows in some wave (its visited part files), and the
    crawl matches the oracle."""
    from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
    from siteone_crawler_ray.pipelines.oracle import run_oracle
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus
    from siteone_crawler_ray.stages.worker import clamp_worker_count

    assert clamp_worker_count(64) == 3
    tabs = make_graph_corpus(seed=11, hosts=3, total_pages=120, out_degree=4)
    cp = os.path.join(tmp_workdir, "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=2)
    seeds = tabs["seeds"]["url"].to_pylist()
    robots = dict(zip(tabs["robots"]["host"].to_pylist(),
                      tabs["robots"]["body"].to_pylist()))
    host = EpochCrawler(cp, seeds, robots, os.path.join(tmp_workdir, "host"),
                        CrawlConfig(routing="host"))
    try:
        host.seed()
        assert len(host._workers) == 3
    finally:
        host.shutdown()
    c = EpochCrawler(cp, seeds, robots, os.path.join(tmp_workdir, "bucket"), CrawlConfig())
    c.seed()
    pool = len(c._workers)
    res = c.run()  # run() frees the pool
    got = res.visited_table(columns=["url"])["url"].to_pylist()
    assert pool == 3
    parts = {f for _, _, fs in os.walk(res.visited_dir) for f in fs if f.endswith(".parquet")}
    assert parts == {f"part-{i:05d}.parquet" for i in range(3)}
    want = run_oracle(tabs["documents"], seeds, robots, CrawlConfig()).visited_table()
    assert got == want["url"].to_pylist() and len(got) > 20


def _tiny_crawl(tmp):
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    tabs = make_graph_corpus(seed=11, hosts=3, total_pages=300, out_degree=5)
    cp = os.path.join(tmp, "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    seeds = tabs["seeds"]["url"].to_pylist()
    robots = dict(zip(tabs["robots"]["host"].to_pylist(),
                      tabs["robots"]["body"].to_pylist()))
    return tabs, cp, seeds, robots


ONE_CPU_CHILD = r"""
import json, sys, ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
cp, workdir, seeds_json, robots_json = sys.argv[1:5]
c = EpochCrawler(cp, json.loads(seeds_json), json.loads(robots_json), workdir,
                 CrawlConfig())
c.seed()
n_workers = len(c._workers)
res = c.run()
print("ONE_CPU_JSON " + json.dumps({
    "workers": n_workers,
    "urls": res.visited_table(columns=["url"])["url"].to_pylist(),
    "seen": sorted(int(k) for k in res.seen_keys)}))
ray.shutdown()
"""


def test_one_cpu_cluster_crawls_on_one_zero_cpu_worker(tmp_workdir):
    """A 1-CPU cluster has no whole CPU beside the driver: the pool must be
    one worker that reserves no CPU (a pending 1-CPU actor hung
    warm-up), and the crawl, every wave on it, must match the oracle."""
    from siteone_crawler_ray.pipelines.crawl import CrawlConfig
    from siteone_crawler_ray.pipelines.oracle import run_oracle

    tabs, cp, seeds, robots = _tiny_crawl(tmp_workdir)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("RAY_ADDRESS", None)
    out = subprocess.run(
        [sys.executable, "-c", ONE_CPU_CHILD, cp, os.path.join(tmp_workdir, "work"),
         json.dumps(seeds), json.dumps(robots)],
        capture_output=True, text=True, timeout=300, env=env, cwd=root)
    line = next((ln for ln in out.stdout.splitlines() if ln.startswith("ONE_CPU_JSON ")), None)
    assert line, out.stderr[-3000:]
    got = json.loads(line[len("ONE_CPU_JSON "):])
    oracle = run_oracle(tabs["documents"], seeds, robots, CrawlConfig())
    assert got["workers"] == 1
    assert got["urls"] == oracle.visited_table()["url"].to_pylist()
    assert set(got["seen"]) == oracle.seen_keys
    assert len(got["urls"]) > 48
