"""Per-node worker-pool sizing (stages/worker.py::_worker_slots) and
the crawl-worker actor's process tuning.

The clamp must reason node-by-node: integer 1-CPU workers pack into
each node's residual after its SPREAD shard share.  A cluster-total
count over-provisions multi-node clusters (29 asked, 28 schedulable →
warm-up ray.get pends forever — reproduced on the simulated 4-node
cluster before this existed).  The shard share is the one the shard
pool itself books (stages/frontier.py::shard_cpu_share)."""

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
    # 8 shards book 4/4/8 = 0.125 CPU each at 4 CPUs: floor(4 - 1) - 1
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
    # one live CPU-bearing node: ceil(8/1)=8 shards there
    assert _worker_slots(8) == 5  # floor(8 - 2) - 1


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

    # 8 shards book 0.25 CPU of 1: a 1-CPU worker could never schedule
    _fake_nodes(monkeypatch, [1])
    assert _worker_slots(8) == 0
    assert clamp_worker_count(4, 8) == 0
    assert adaptive_worker_count(8) == 0


@pytest.mark.parametrize("node_cpus", [[1], [2], [4], [8], [16], [32], [8, 8, 8, 8]])
@pytest.mark.parametrize("num_shards", [1, 2, 4, 8, 16, 29])
def test_pool_fits_beside_shards_on_every_node(monkeypatch, node_cpus, num_shards):
    """The shard reservation the shard pool books plus K whole-CPU
    workers, packed node by node, fits every node's CPUs."""
    from siteone_crawler_ray.stages.frontier import shard_cpu_share
    from siteone_crawler_ray.stages.worker import _worker_slots

    _fake_nodes(monkeypatch, node_cpus)
    k = _worker_slots(num_shards)
    share = shard_cpu_share(sum(node_cpus), num_shards)
    per_node = math.ceil(num_shards / len(node_cpus))
    free = [c - share * per_node for c in node_cpus]
    assert min(free) >= 0
    placed = 0
    for f in free:  # greedy: whole workers into each node's residual
        placed += min(k - placed, math.floor(f))
    assert placed == k
    if len(node_cpus) == 1:
        assert share * num_shards + k <= node_cpus[0]


def test_pool_sizes_unchanged_at_8_16_32_cpus(monkeypatch):
    from siteone_crawler_ray.stages.worker import _worker_slots

    for cpus, want in [(8, 5), (16, 13), (32, 29)]:
        _fake_nodes(monkeypatch, [cpus])
        assert _worker_slots(8) == want, cpus


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
                 CrawlConfig(use_ray=True, num_shards=8, ray_wave_threshold=1))
c.seed()
n_workers = len(c._workers)
res = c.run()
print("ONE_CPU_JSON " + json.dumps({
    "workers": n_workers,
    "urls": res.visited_table(columns=["url"])["url"].to_pylist(),
    "seen": sorted(int(k) for k in res.seen_keys)}))
ray.shutdown()
"""


def test_one_cpu_cluster_crawls_on_driver_worker(tmp_workdir):
    """8 shards leave no whole CPU on a 1-CPU cluster: the crawl must
    create no remote workers (a pending 1-CPU actor hung warm-up) and
    still match the oracle, every wave on the driver-local worker."""
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
    assert got["workers"] == 0
    assert got["urls"] == oracle.visited_table()["url"].to_pylist()
    assert set(got["seen"]) == oracle.seen_keys
    assert len(got["urls"]) > 48
