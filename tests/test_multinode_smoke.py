"""Fast multi-node smoke: a 2-node simulated cluster (subprocess —
the session fixture owns this process's Ray) must reproduce the
sequential oracle crawl (pipelines/oracle.py) exactly, with actors on
both nodes — the frontier's two owners (2×2 CPUs), the pool's first two
workers, on distinct nodes.

The full 4-node drill (scale crawl, exchange hashes, node-loss
checkpoint resume) lives in scripts/multinode_sim.py; this guards the
two defects it caught — per-node worker-slot packing and deferred-
manifest state aliasing — at pytest cost."""

import json
import os
import subprocess
import sys

import pytest

from siteone_crawler_ray.pipelines.crawl import CrawlConfig
from siteone_crawler_ray.pipelines.oracle import run_oracle
from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

CHILD = r"""
import json, sys, ray
from ray.cluster_utils import Cluster
cluster = Cluster(initialize_head=True,
                  head_node_args=dict(num_cpus=2, object_store_memory=400_000_000,
                                      include_dashboard=False))
cluster.add_node(num_cpus=2, object_store_memory=400_000_000)
ray.init(address=cluster.address, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler
cp, workdir, seeds_json, robots_json = sys.argv[1:5]
cfg = CrawlConfig()
c = EpochCrawler(cp, json.loads(seeds_json), json.loads(robots_json), workdir, cfg)
c.seed(); c.warmup()
n_shards = len(c._shards)
worker_nodes = ray.get([w.node_id.remote() for w in c._workers])
shard_nodes = set(worker_nodes[:n_shards])  # the owners are the first workers
nodes = set(worker_nodes)
res = c.run()
t = res.visited_table(columns=["url", "depth", "status_code"])
rows = sorted(zip(t["url"].to_pylist(), t["depth"].to_pylist(),
                  t["status_code"].to_pylist()))
print("SMOKE_JSON " + json.dumps({"nodes": len(nodes), "shards": n_shards,
                                  "shard_nodes": len(shard_nodes),
                                  "visited": res.metrics["visited"],
                                  "rows_tail": rows[-5:], "n": len(rows)}))
ray.shutdown(); cluster.shutdown()
"""


@pytest.mark.usefixtures("ray_session")
def test_two_node_cluster_matches_single_process(tmp_workdir):
    tabs = make_graph_corpus(seed=42, hosts=4, total_pages=200, out_degree=5)
    cp = os.path.join(tmp_workdir, "corpus")
    write_corpus(tabs["documents"], cp, num_buckets=4)
    seeds = tabs["seeds"]["url"].to_pylist()
    robots = dict(zip(tabs["robots"]["host"].to_pylist(),
                      tabs["robots"]["body"].to_pylist()))

    rt = run_oracle(tabs["documents"], seeds, robots, CrawlConfig()).visited_table()
    ref_rows = sorted(zip(rt["url"].to_pylist(), rt["depth"].to_pylist(),
                          rt["status_code"].to_pylist()))

    env = dict(os.environ, PYTHONPATH="/root/repo", RAY_ADDRESS="")
    p = subprocess.run(
        [sys.executable, "-c", CHILD, cp, os.path.join(tmp_workdir, "mn"),
         json.dumps(seeds), json.dumps(robots)],
        capture_output=True, text=True, timeout=420, env=env, cwd="/root/repo")
    lines = [ln for ln in p.stdout.splitlines() if ln.startswith("SMOKE_JSON ")]
    assert lines, f"child failed:\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}"
    got = json.loads(lines[-1][len("SMOKE_JSON "):])
    assert got["nodes"] == 2, f"actors did not spread: {got['nodes']} node(s)"
    assert got["shards"] == 2 and got["shard_nodes"] == 2, f"owners share a node: {got}"
    assert got["visited"] == rt.num_rows
    assert got["n"] == len(ref_rows)
    assert [tuple(r) for r in got["rows_tail"]] == ref_rows[-5:]
