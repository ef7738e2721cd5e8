"""Object-store-pressure evidence: the engine must stay CORRECT (and
degrade gracefully) when the plasma store is far smaller than the
working set — the 100-TB posture is "let the object store spill, never
hold Python lists".  Runs the 150k-page scale crawl and the
minhash_pairs exchange twice in fresh subprocesses:

  * ``--child tight``: object_store_memory = 100 MB
  * ``--child ample``: Ray's default store sizing

and requires identical value hashes.  The tight child additionally
runs a spill TORTURE stage: ~1 GB of deterministic blocks held live in
the 100 MB store through the engine's standard ``block_refs`` pattern,
then read back and checksummed against the closed form — so the run
proves both (a) the crawl's plasma working set (spill bytes reported;
a zero here means 150k pages fit in 100 MB — itself a scale datum) and
(b) that spilled blocks restore byte-correctly through the exact
access pattern every collect in the engine uses.  ``--record`` appends
the verdict to BASELINE.md.
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


def _spill_stats() -> dict:
    """Spill evidence read straight off the session's spill directories
    (``ray_spilled_objects*``) — the gRPC-backed memory_summary API is
    unavailable in this container."""
    import glob

    try:
        import ray

        session = ray._private.worker._global_node.get_session_dir_path()
        files = glob.glob(os.path.join(session, "ray_spilled_objects*", "*"))
        return {"spilled_files": len(files),
                "spilled_mib": round(sum(os.path.getsize(f) for f in files)
                                     / (1024 * 1024), 1)}
    except Exception as e:  # noqa: BLE001
        return {"err": type(e).__name__}


def _spill_torture() -> dict:
    """Hold ~1 GB live in the store, read it all back, checksum."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    from siteone_crawler_ray.functions.agg import block_refs

    rows, row_bytes = 1024, 1_000_000

    def pad(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy().astype(np.int64)
        flat = np.repeat((ids % 251).astype(np.uint8), row_bytes)
        offsets = np.arange(len(ids) + 1, dtype=np.int32) * row_bytes
        payload = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat))
        return pa.table({"id": batch["id"], "payload": payload})

    ds = rd.range(rows, override_num_blocks=64).map_batches(
        pad, batch_format="pyarrow")
    t0 = time.perf_counter()
    refs = block_refs(ds)  # ~1 GB of live refs in a 100 MB store
    got = 0
    for r in refs:
        t = ray.get(r)
        import pyarrow.compute as pc

        got += int(pc.sum(pc.list_flatten(t["payload"])).as_py())
    want = sum(row_bytes * (i % 251) for i in range(rows))
    return {"checksum_ok": got == want, "sec": round(time.perf_counter() - t0, 2),
            "held_mib": rows * row_bytes // (1024 * 1024)}


def run_child(mode: str) -> dict:
    import ray

    kw = dict(address="local", num_cpus=32, include_dashboard=False,
              logging_level="ERROR")
    if mode == "tight":
        kw["object_store_memory"] = 100 * 1024 * 1024
    ray.init(**kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import shutil

    from bench import _scaling_corpus
    from check_correctness import canon, to_pandas, value_hash

    from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler

    path, seeds, robots = _scaling_corpus()
    workdir = f"/tmp/graft_spill_work_{mode}"
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    cfg = CrawlConfig(allowed_domains_crawl=("*",),
                      allowed_domains_static=("*",),
                      max_visited_urls=10_000_000, max_queue_length=10_000_000)
    t0 = time.perf_counter()
    res = EpochCrawler(path, seeds, robots, workdir, cfg).run()
    crawl_sec = time.perf_counter() - t0
    df = canon(to_pandas(res.visited_table(
        columns=["url", "depth", "status_code", "content_type"])))
    crawl_hash = value_hash(df)

    import __ray_entry__ as entrymod

    t0 = time.perf_counter()
    mh = canon(to_pandas(entrymod.queries()["minhash_pairs"](SF_DIR)))
    mh_sec = time.perf_counter() - t0

    out = {
        "mode": mode,
        "crawl": {"hash": crawl_hash, "rows": len(df),
                  "sec": round(crawl_sec, 2),
                  "pages_per_sec": res.metrics["pages_per_sec"]},
        "minhash_pairs": {"hash": value_hash(mh), "rows": len(mh),
                          "sec": round(mh_sec, 2)},
        "crawl_spill": _spill_stats(),
    }
    if mode == "tight":
        out["torture"] = _spill_torture()
        out["spill"] = _spill_stats()  # cumulative, after the torture
    ray.shutdown()
    return out


def main() -> int:
    if "--child" in sys.argv:
        print("CHILD_JSON " + json.dumps(run_child(
            sys.argv[sys.argv.index("--child") + 1])))
        return 0

    from bench import _scaling_corpus

    _scaling_corpus()
    results = {}
    for mode in ("tight", "ample"):
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", mode],
            capture_output=True, text=True, timeout=1800, cwd="/root/repo")
        line = [ln for ln in p.stdout.splitlines() if ln.startswith("CHILD_JSON ")]
        if not line:
            print(p.stdout[-2000:], file=sys.stderr)
            print(p.stderr[-2000:], file=sys.stderr)
            print(f"FAIL: {mode} child produced no result")
            return 1
        results[mode] = json.loads(line[-1][len("CHILD_JSON "):])

    tight, ample = results["tight"], results["ample"]
    problems = []
    for key in ("crawl", "minhash_pairs"):
        if tight[key]["hash"] != ample[key]["hash"]:
            problems.append(f"{key}: hash mismatch under spill pressure")
    if not tight.get("torture", {}).get("checksum_ok"):
        problems.append("torture: spilled blocks restored incorrectly")
    if tight.get("spill", {}).get("spilled_mib", 0) < 500:
        problems.append("torture: expected >=500 MiB of actual spill")
    verdict = {"metric": "spill_check", "ok": not problems,
               "problems": problems, "tight": tight, "ample": ample}
    print(json.dumps(verdict, indent=2))
    if "--record" in sys.argv and not problems:
        sp, csp, tor = tight["spill"], tight["crawl_spill"], tight["torture"]
        with open("/root/repo/BASELINE.md", "a") as f:
            f.write(
                "\n<!-- scripts/spill_check.py -->\n"
                f"- object-store-pressure run (plasma capped at 100 MB): the\n"
                f"  150k-page scale crawl and minhash_pairs value-hash IDENTICAL\n"
                f"  to the default-store run (crawl {tight['crawl']['sec']}s\n"
                f"  tight vs {ample['crawl']['sec']}s ample); the crawl itself\n"
                f"  spilled {csp.get('spilled_mib', 0)} MiB — its plasma working\n"
                f"  set for 150k pages fits a 100 MB store (bodies never enter\n"
                f"  the object store; candidate parts are transient).  The spill\n"
                f"  TORTURE stage then held {tor['held_mib']} MiB live via the\n"
                f"  engine's block_refs pattern: Ray spilled\n"
                f"  {sp.get('spilled_mib', 0)} MiB across"
                f" {sp.get('spilled_files', 0)} files and every restored block\n"
                f"  checksummed exactly ({tor['sec']}s for the 10x-overcommit\n"
                f"  round-trip) — correctness is independent of store sizing.\n"
            )
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
