"""Simulated multi-node evidence run (the closest this sandbox gets to
"run it on a real cluster").

``ray.cluster_utils.Cluster`` starts a REAL multi-node Ray control
plane on this one box: N raylets, N separate plasma object stores,
cross-node object transfer over gRPC, per-node CPU pools.  It cannot
change the shared-memory-bus physics documented in BASELINE.md (all
"nodes" still share one DRAM bus), so it is NOT throughput evidence —
it is *behavioral* evidence: the engine schedules its actors across
nodes, every exchange moves blocks between distinct object stores, and
no hidden same-node assumption exists in the crawl or the LLM-op
exchange paths.  (The corpus directory is read via the shared
filesystem, which on a real cluster is the usual shared object store /
NFS / S3 mount — the same assumption ``read_parquet`` makes.)

Protocol (fresh subprocess per mode, mirroring bench.py --scaling):

  * ``--child multi``:  4-node x 8-CPU simulated cluster
  * ``--child single``: 1-node x 32-CPU local cluster

Each child runs (a) the 150k-page scale crawl (the headline scaling
workload), (b) ``minhash_pairs`` and (c) ``exact_dedup`` at sf0.01 —
the two heaviest hash-partitioned exchanges — and prints canonical
value hashes (scripts.check_correctness.canon/value_hash, the same
functions the driver-gate mirror uses).  The parent compares the
hashes and requires the multi-node child to have placed its
crawl worker actors on >= 3 distinct nodes, and its frontier owners
(the first workers) each on its own node up to the node count.  ``--record`` appends the
verdict to BASELINE.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, "/root/repo")
sys.path.insert(0, "/root/repo/scripts")

SF_DIR = os.environ.get("GRAFT_SF_DIR_SMALL", "/root/testdata/sf0.01")


def _hash_df(obj) -> tuple[str, int]:
    from check_correctness import canon, to_pandas, value_hash

    df = canon(to_pandas(obj))
    return value_hash(df), len(df)


def run_nodeloss() -> dict:
    """Kill a whole node mid-crawl, then resume from the checkpoint on
    the 3-node remnant — the 100-TB operational story (a failed run
    re-attaches to the partitioned parquet lineage and skips finished
    epochs) exercised against REAL node death, not a mocked actor kill.
    Returns the final visited-set hash for comparison with the clean
    multi-node run."""
    import ray
    from ray.cluster_utils import Cluster

    cluster = Cluster(
        initialize_head=True,
        head_node_args=dict(num_cpus=8, object_store_memory=1_500_000_000,
                            include_dashboard=False),
    )
    others = [cluster.add_node(num_cpus=8, object_store_memory=1_500_000_000)
              for _ in range(3)]
    ray.init(address=cluster.address, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import shutil

    from bench import _scaling_corpus

    from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler

    path, seeds, robots = _scaling_corpus()
    workdir = "/tmp/graft_multinode_work_nodeloss"
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    cfg = CrawlConfig(allowed_domains_crawl=("*",),
                      allowed_domains_static=("*",),
                      max_visited_urls=10_000_000, max_queue_length=10_000_000)
    crawler = EpochCrawler(path, seeds, robots, workdir, cfg)
    crawler.seed()
    crawler.warmup()
    epochs_before = 0
    died: str | None = None
    t0 = time.perf_counter()
    try:
        for _ in range(3):
            if crawler.run_epoch() == 0:
                break
            epochs_before += 1
        cluster.remove_node(others[-1], allow_graceful=False)  # node death
        for _ in range(200):
            if crawler.run_epoch() == 0:
                break
            epochs_before += 1
    except Exception as e:  # noqa: BLE001 — RayActorError and kin
        died = type(e).__name__
    interrupted_sec = time.perf_counter() - t0

    # release the dead run's pools (surviving actors still pin CPUs) and
    # wait for cluster membership to converge on 3 nodes — an
    # orchestrator restarts the driver on a steady node pool; resuming
    # before Ray's health checker marks the node dead would place fresh
    # actors on the corpse
    crawler.shutdown()
    deadline = time.time() + 180
    while time.time() < deadline:
        if len([n for n in ray.nodes() if n["Alive"]]) <= 3:
            break
        time.sleep(2)

    # operational restart: fresh driver object, same workdir, remnant
    # cluster (worker pool re-sizes to the 24 surviving CPUs)
    t0 = time.perf_counter()
    resumed = EpochCrawler(path, seeds, robots, workdir, cfg)
    ok = resumed.resume()
    resume_epoch = resumed.epoch
    res = resumed.run()
    resume_sec = time.perf_counter() - t0
    crawl_hash, crawl_rows = _hash_df(
        res.visited_table(columns=["url", "depth", "status_code", "content_type"])
    )
    out = {
        "mode": "nodeloss",
        "epochs_before_death": epochs_before,
        "driver_error": died,
        "interrupted_sec": round(interrupted_sec, 2),
        "resume_found_checkpoint": bool(ok),
        "resumed_from_epoch": resume_epoch,
        "resume_sec": round(resume_sec, 2),
        "crawl": {"hash": crawl_hash, "rows": crawl_rows,
                  "visited": res.metrics["visited"],
                  "sec": round(resume_sec, 2),
                  "pages_per_sec": res.metrics["pages_per_sec"]},
    }
    ray.shutdown()
    cluster.shutdown()
    return out


def run_child(mode: str) -> dict:
    if mode == "nodeloss":
        return run_nodeloss()
    import ray

    t_init0 = time.perf_counter()
    if mode == "multi":
        from ray.cluster_utils import Cluster

        # node count is env-tunable (GRAFT_SIM_NODES, default 4): the
        # 8-node x 4-CPU variant doubles the object-store count and
        # cross-store transfer surface on the same 32 CPUs
        n_nodes = int(os.environ.get("GRAFT_SIM_NODES", "4"))
        per_cpu = max(1, 32 // n_nodes)
        store = 6_000_000_000 // n_nodes
        cluster = Cluster(
            initialize_head=True,
            head_node_args=dict(num_cpus=per_cpu, object_store_memory=store,
                                include_dashboard=False),
        )
        for _ in range(n_nodes - 1):
            cluster.add_node(num_cpus=per_cpu, object_store_memory=store)
        ray.init(address=cluster.address, include_dashboard=False,
                 logging_level="ERROR")
    else:
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    init_sec = time.perf_counter() - t_init0
    nodes_alive = len([n for n in ray.nodes() if n["Alive"]])

    # (a) scale crawl — same corpus + config as bench.py --scaling
    import shutil

    from bench import _scaling_corpus

    from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler

    path, seeds, robots = _scaling_corpus()
    workdir = f"/tmp/graft_multinode_work_{mode}"
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    cfg = CrawlConfig(allowed_domains_crawl=("*",),
                      allowed_domains_static=("*",),
                      max_visited_urls=10_000_000, max_queue_length=10_000_000)
    crawler = EpochCrawler(path, seeds, robots, workdir, cfg)
    crawler.seed()
    crawler.warmup()
    # actor placement, read while the pools are alive (asked of the
    # actors directly — the state API needs the dashboard, which this
    # sandbox disables); run() reuses the seeded pools, then tears down
    # (the owners are the first workers of the one CrawlWorker pool)
    worker_nodes = ray.get([w.node_id.remote() for w in crawler._workers])
    spread = {"CrawlWorker": len(set(worker_nodes)),
              "owners": len(crawler._shards),
              "owner_nodes": len(set(worker_nodes[:len(crawler._shards)]))}

    t0 = time.perf_counter()
    res = crawler.run()
    crawl_sec = time.perf_counter() - t0

    crawl_hash, crawl_rows = _hash_df(
        res.visited_table(columns=["url", "depth", "status_code", "content_type"])
    )

    # (b)+(c) the two heaviest hash-partitioned LLM-op exchanges
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    t0 = time.perf_counter()
    mh_hash, mh_rows = _hash_df(qs["minhash_pairs"](SF_DIR))
    mh_sec = time.perf_counter() - t0
    t0 = time.perf_counter()
    dd_hash, dd_rows = _hash_df(qs["exact_dedup"](SF_DIR))
    dd_sec = time.perf_counter() - t0

    # (d) the continuous-ingest index: add half the documents, query
    # the other half — exercises the partitioned parquet write/read +
    # candidate/verify exchanges across distinct object stores (the
    # index dir lives on the shared filesystem, exactly a real
    # cluster's shared-store mount, the read_parquet assumption)
    import pyarrow.compute as pc
    import ray.data as rd

    from siteone_crawler_ray.stages.dedup_index import MinHashIndex

    ixdir = f"/tmp/graft_multinode_ix_{mode}"
    if os.path.exists(ixdir):
        shutil.rmtree(ixdir)
    ix = MinHashIndex(ixdir, band_parts=8, sig_parts=8)
    docs = rd.read_parquet(os.path.join(SF_DIR, "documents.parquet"),
                           columns=["doc_id", "text"], override_num_blocks=8)
    first = docs.map_batches(lambda b: b.filter(pc.less(b["doc_id"], 250)),
                             batch_format="pyarrow")
    second = docs.map_batches(
        lambda b: b.filter(pc.greater_equal(b["doc_id"], 250)),
        batch_format="pyarrow")
    t0 = time.perf_counter()
    ix.add(first, epoch=0)
    ix_hash, ix_rows = _hash_df(ix.query(second, threshold=0.7))
    ix_sec = time.perf_counter() - t0

    out = {
        "mode": mode,
        "nodes": nodes_alive,
        "init_sec": round(init_sec, 2),
        "crawl": {"hash": crawl_hash, "rows": crawl_rows,
                  "sec": round(crawl_sec, 2),
                  "visited": res.metrics["visited"],
                  "pages_per_sec": res.metrics["pages_per_sec"]},
        "minhash_pairs": {"hash": mh_hash, "rows": mh_rows, "sec": round(mh_sec, 2)},
        "exact_dedup": {"hash": dd_hash, "rows": dd_rows, "sec": round(dd_sec, 2)},
        "dedup_index": {"hash": ix_hash, "rows": ix_rows, "sec": round(ix_sec, 2)},
        "actor_node_spread": spread,
    }
    ray.shutdown()
    if mode == "multi":
        cluster.shutdown()
    return out


def main() -> int:
    if "--child" in sys.argv:
        mode = sys.argv[sys.argv.index("--child") + 1]
        print("CHILD_JSON " + json.dumps(run_child(mode)))
        return 0

    # parent: build the corpus once, then fresh subprocess per mode
    from bench import _scaling_corpus

    _scaling_corpus()
    results = {}
    for mode in ("multi", "single", "nodeloss"):
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", mode],
            capture_output=True, text=True, timeout=1800,
            cwd="/root/repo",
        )
        line = [ln for ln in p.stdout.splitlines() if ln.startswith("CHILD_JSON ")]
        if not line:
            print(p.stdout[-3000:], file=sys.stderr)
            print(p.stderr[-3000:], file=sys.stderr)
            print(f"FAIL: {mode} child produced no result")
            return 1
        results[mode] = json.loads(line[-1][len("CHILD_JSON "):])

    multi, single = results["multi"], results["single"]
    problems = []
    for key in ("crawl", "minhash_pairs", "exact_dedup", "dedup_index"):
        if multi[key]["hash"] != single[key]["hash"]:
            problems.append(f"{key}: hash mismatch "
                            f"{multi[key]['hash']} != {single[key]['hash']}")
        if multi[key]["rows"] != single[key]["rows"]:
            problems.append(f"{key}: rows {multi[key]['rows']} != {single[key]['rows']}")
    n_nodes = int(os.environ.get("GRAFT_SIM_NODES", "4"))
    if multi["nodes"] < n_nodes:
        problems.append(f"multi child saw only {multi['nodes']} nodes")
    nodeloss = results["nodeloss"]
    if nodeloss["crawl"]["hash"] != single["crawl"]["hash"]:
        problems.append("nodeloss: resumed crawl hash diverged from clean run")
    if not nodeloss["resume_found_checkpoint"]:
        problems.append("nodeloss: no checkpoint found on resume")
    if nodeloss["driver_error"] is None and nodeloss["resumed_from_epoch"] == 0:
        problems.append("nodeloss: node death never interrupted the run "
                        "(scenario did not bite)")
    worker_spread = multi["actor_node_spread"]["CrawlWorker"]
    if worker_spread < min(3, n_nodes - 1):
        problems.append(f"crawl actors spread over only {worker_spread} nodes")
    spread = multi["actor_node_spread"]
    if spread["owner_nodes"] < min(spread["owners"], n_nodes):
        problems.append(f"{spread['owners']} frontier owners on only "
                        f"{spread['owner_nodes']} nodes")

    verdict = {
        "metric": "multinode_sim",
        "ok": not problems,
        "problems": problems,
        "multi": multi,
        "single": single,
        "nodeloss": nodeloss,
    }
    print(json.dumps(verdict, indent=2))
    if "--record" in sys.argv and not problems:
        with open("/root/repo/BASELINE.md", "a") as f:
            per_cpu = max(1, 32 // n_nodes)
            f.write(
                "\n<!-- scripts/multinode_sim.py -->\n"
                f"- simulated {n_nodes}-node x {per_cpu}-CPU cluster run (ray.cluster_utils.Cluster,\n"
                f"  {n_nodes} raylets / {n_nodes} object stores / cross-node gRPC transfer): scale\n"
                f"  crawl {multi['crawl']['visited']} pages"
                f" ({multi['crawl']['sec']}s multi vs {single['crawl']['sec']}s single-node),\n"
                f"  minhash_pairs + exact_dedup + the incremental dedup-index\n"
                f"  add/query cycle at sf0.01 — all four value-hash\n"
                f"  IDENTICAL to the single-node 32-CPU run; crawl worker\n"
                f"  actors placed across {worker_spread} distinct nodes\n"
                f"  (spread: {multi['actor_node_spread']}). Behavioral\n"
                f"  multi-node evidence only — all simulated nodes share one DRAM\n"
                f"  bus, so throughput is governed by the BASELINE.md bus ceiling.\n"
                f"- node-loss drill on the same cluster: one of the four nodes\n"
                f"  hard-killed after epoch {nodeloss['epochs_before_death']} "
                f"(driver saw {nodeloss['driver_error']});\n"
                f"  a fresh driver resumed from the epoch-"
                f"{nodeloss['resumed_from_epoch'] - 1} checkpoint on the 24-CPU\n"
                f"  remnant and finished in {nodeloss['resume_sec']}s — final\n"
                f"  visited set value-hash IDENTICAL to the uninterrupted run\n"
                f"  ({nodeloss['crawl']['rows']} rows).\n"
            )
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
