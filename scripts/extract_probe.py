"""Per-row extract cost vs worker concurrency — the DRAM-evidence probe.

VERDICT r3 #1 asked for a measured answer to "does per-page extract
cost rise with concurrent workers (shared-memory-bus saturation), and
did the byte diet move it?".  This probe isolates exactly that number:

- K CrawlWorker actors (the real fused fetch→explode→gauntlet stage),
- every worker processes the SAME 5k-page wave slice (identical work,
  identical corpus buckets — steady-state: one untimed warm pass loads
  buckets and memo caches first),
- one synchronized timed round per K; reported cost is the per-worker
  ``extract`` phase seconds / rows (max and median across workers).

If the hot path is DRAM-bound, ms/row rises with K on a single box
(CPUs ×K, bandwidth ×1).  Round-3 measured 0.36 → 0.82 ms/row from 6
to 29 workers; after the round-4 byte diet the probe is how we show
the curve is flat (or where it bends).

Usage:  python scripts/extract_probe.py [K ...]   (default 1 8 29)
Prints one JSON line: {"rows": N, "levels": {K: {"max_ms_per_row": …,
"median_ms_per_row": …, "gauntlet_fallback": …}}}; ``gauntlet_fallback``
sums the rows the K workers' gauntlets sent to the scalar per-pair
fallback (0 when the column kernels model every href shape).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402


def build_wave(rows: int = 5000) -> tuple[str, pa.Table]:
    from siteone_crawler_ray.functions import urls as U
    from siteone_crawler_ray.functions.hashing import xxh64_strings
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, write_corpus

    pages = int(os.environ.get("GRAFT_SCALE_PAGES", "150000"))
    tabs = make_graph_corpus(seed=7, hosts=12, total_pages=pages, out_degree=8)
    from siteone_crawler_ray.sources.corpus import GENERATOR_VERSION

    path = f"/tmp/graft_scale_corpus_{pages}_b256_v{GENERATOR_VERSION}"
    if not os.path.exists(os.path.join(path, "_meta.json")):
        write_corpus(tabs["documents"], path, num_buckets=256)
    ids = tabs["documents"]["doc_id"].to_pylist()[: rows]
    keys = xxh64_strings(ids)
    n = len(ids)
    wave = pa.table(
        {
            "url": pa.array(ids),
            "url_key": pa.array(keys, pa.uint64()),
            "host": pa.array(U.hosts_of(np.array(ids, dtype=object)), pa.string()),
            "depth": pa.array(np.zeros(n, np.int32)),
            "priority": pa.array(np.arange(n, dtype=np.int64)),
            "source_uq_id": pa.array([""] * n),
            "source_attr": pa.array(np.zeros(n, np.int8)),
            "seq": pa.array(np.arange(n, dtype=np.int64)),
            "wavepos": pa.array(np.arange(n, dtype=np.int64)),
            "epoch": pa.array(np.zeros(n, np.int32)),
        }
    )
    return path, wave


def main() -> int:
    import ray

    levels = [int(a) for a in sys.argv[1:]] or [1, 8, 29]
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from siteone_crawler_ray.functions.robots import RobotsIndex
    from siteone_crawler_ray.stages.worker import CrawlWorker

    corpus, wave = build_wave()
    wave_ref = ray.put(wave)
    Actor = ray.remote(num_cpus=1)(CrawlWorker)
    gk = dict(robots=RobotsIndex({}), seed_host="site-000.test",
              allowed_domains_crawl=("*",), allowed_domains_static=("*",))
    kmax = max(levels)
    workers = [Actor.remote(corpus, gk) for _ in range(kmax)]
    scratch = "/tmp/extract_probe_vdir"
    # untimed warm pass: buckets + memo caches + module imports
    ray.get([w.process.remote(wave_ref, scratch, i) for i, w in enumerate(workers)])

    out: dict = {"rows": wave.num_rows, "levels": {}}
    for k in levels:
        timings = ray.get(
            [w.process.remote(wave_ref, scratch, i) for i, w in enumerate(workers[:k])]
        )
        per_row = sorted(t[2]["extract"] / wave.num_rows * 1000 for t in timings)
        out["levels"][k] = {
            "max_ms_per_row": round(per_row[-1], 4),
            "median_ms_per_row": round(per_row[len(per_row) // 2], 4),
            "gauntlet_fallback": int(sum(t[2]["gauntlet_fallback"] for t in timings)),
        }
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
