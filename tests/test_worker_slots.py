"""Per-node worker-pool sizing (stages/worker.py::_worker_slots), the
frontier shard-actor count and the crawl-worker actor's process tuning.

The clamp must reason node-by-node: integer 1-CPU workers pack into
each node's residual after its SPREAD shard share.  A cluster-total
count over-provisions multi-node clusters (29 asked, 28 schedulable →
warm-up ray.get pends forever — reproduced on the simulated 4-node
cluster before this existed).  The shard share is the one the shard
pool itself books: stages/frontier.py::shard_actor_count actors of
SHARD_CPU each."""

import json
import math
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

    _fake_nodes(monkeypatch, [32])
    # floor(32 - 8*0.25) - 1 = 29: the recorded 32-CPU pool size
    assert _worker_slots(8) == 29
    _fake_nodes(monkeypatch, [4])
    assert _worker_slots(4) == 2
    # 8 partitions on one shard actor booking 0.25 CPU: floor(4 - 0.25) - 1
    assert _worker_slots(8) == 2


def test_four_by_eight_cluster_packs_per_node(monkeypatch):
    from siteone_crawler_ray.stages.worker import (
        _worker_slots,
        adaptive_worker_count,
        clamp_worker_count,
    )

    _fake_nodes(monkeypatch, [8, 8, 8, 8])
    # 2 shards/node -> floor(8 - 0.5) = 7 workers/node, 28 total, -1 driver
    assert _worker_slots(8) == 27
    assert clamp_worker_count(64, 8) == 27
    assert adaptive_worker_count(8) == 27
    # the old cluster-total formula said 32 - 2 - 1 = 29 > 28 schedulable
    assert _worker_slots(8) < 29


def test_more_nodes_than_shards_and_dead_nodes(monkeypatch):
    import ray

    from siteone_crawler_ray.stages.worker import _worker_slots

    monkeypatch.setattr(
        ray, "nodes",
        lambda: [{"Alive": True, "Resources": {"CPU": 8.0}},
                 {"Alive": False, "Resources": {"CPU": 8.0}},
                 {"Alive": True, "Resources": {}}])
    # one live CPU-bearing node of 8 CPUs: 2 shard actors there
    assert _worker_slots(8) == 6  # floor(8 - 2 * 0.25) - 1


def test_tiny_cluster_never_returns_zero(monkeypatch):
    from siteone_crawler_ray.stages.worker import _worker_slots

    # the smallest clusters with a whole CPU left after the shard
    # reservation keep that CPU as a worker instead of driver headroom
    _fake_nodes(monkeypatch, [2])
    assert _worker_slots(8) == 1
    _fake_nodes(monkeypatch, [3])
    assert _worker_slots(8) == 1


def test_no_whole_cpu_left_means_no_remote_workers(monkeypatch):
    from siteone_crawler_ray.stages.worker import (
        _worker_slots,
        adaptive_worker_count,
        clamp_worker_count,
    )

    # the shard actor books 0.25 CPU of 1: a 1-CPU worker could never schedule
    # (make_crawl_workers then builds one zero-CPU worker instead)
    _fake_nodes(monkeypatch, [1])
    assert _worker_slots(8) == 0
    assert clamp_worker_count(4, 8) == 0
    assert adaptive_worker_count(8) == 0


@pytest.mark.parametrize("node_cpus", [[1], [2], [4], [8], [16], [32], [8, 8, 8, 8]])
@pytest.mark.parametrize("num_shards", [1, 2, 4, 8, 16, 29])
def test_pool_fits_beside_shards_on_every_node(monkeypatch, node_cpus, num_shards):
    """The reservation the H shard actors book plus K whole-CPU
    workers, packed node by node, fits every node's CPUs, and the shard
    actors book at most a quarter of the cluster."""
    from siteone_crawler_ray.stages.frontier import SHARD_CPU, shard_actor_count
    from siteone_crawler_ray.stages.worker import _worker_slots

    _fake_nodes(monkeypatch, node_cpus)
    k = _worker_slots(num_shards)
    H = shard_actor_count(num_shards)
    assert 1 <= H <= num_shards
    assert H >= min(num_shards, len(node_cpus))  # SPREAD reaches every node
    share = SHARD_CPU
    assert share * H <= sum(node_cpus) / 4
    per_node = math.ceil(H / len(node_cpus))
    free = [c - share * per_node for c in node_cpus]
    assert min(free) >= 0
    placed = 0
    for f in free:  # greedy: whole workers into each node's residual
        placed += min(k - placed, math.floor(f))
    assert placed == k
    if len(node_cpus) == 1:
        assert share * H + k <= node_cpus[0]


def test_pool_sizes_unchanged_at_8_16_32_cpus(monkeypatch):
    # 8 and 16 CPUs run 2 and 4 shard actors of 0.25 CPU (8 and 16 did
    # when each of the 8 partitions was its own actor: 5 and 13 workers);
    # 32 CPUs run 8, the one-partition-per-actor layout
    from siteone_crawler_ray.stages.worker import _worker_slots

    for cpus, want in [(8, 6), (16, 14), (32, 29)]:
        _fake_nodes(monkeypatch, [cpus])
        assert _worker_slots(8) == want, cpus


@pytest.mark.parametrize("node_cpus,want", [
    ([1], 1), ([4], 1), ([8], 2), ([16], 4), ([2, 2], 2), ([32], 8), ([8, 8, 8, 8], 8),
    ([64], 8),
])
def test_shard_actor_count_per_cluster_shape(monkeypatch, node_cpus, want):
    """One shard actor per four CPUs, at least one per node, at most one
    per partition (8): a 4-CPU crawl runs one frontier process, 32 CPUs
    keep one partition per actor."""
    from siteone_crawler_ray.stages.frontier import shard_actor_count

    _fake_nodes(monkeypatch, node_cpus)
    assert shard_actor_count(8) == want
    assert shard_actor_count(1) == 1


@pytest.mark.parametrize("num_shards", [1, 2, 5, 8, 29])
def test_partition_ranges_are_contiguous_and_balanced(num_shards):
    from siteone_crawler_ray.stages.frontier import partition_bounds, partition_owner

    for H in range(1, num_shards + 1):
        b = partition_bounds(num_shards, H)
        assert b[0] == 0 and b[-1] == num_shards
        sizes = [hi - lo for lo, hi in zip(b, b[1:])]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        owner = partition_owner(num_shards, H)
        assert list(owner) == sorted(owner) and len(owner) == num_shards
        for j in range(H):
            assert set(range(b[j], b[j + 1])) == set((owner == j).nonzero()[0])


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
                 CrawlConfig(num_shards=8))
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
    """8 shards leave no whole CPU on a 1-CPU cluster: the pool must be
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
    oracle = run_oracle(tabs["documents"], seeds, robots, CrawlConfig(num_shards=8))
    assert got["workers"] == 1
    assert got["urls"] == oracle.visited_table()["url"].to_pylist()
    assert set(got["seen"]) == oracle.seen_keys
    assert len(got["urls"]) > 48
