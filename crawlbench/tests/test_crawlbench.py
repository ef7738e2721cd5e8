"""Self-tests for the benchmark's own code (not the engine's):

    python3 -m pytest crawlbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from crawlbench import layers, oracle_gate, trace, workloads  # noqa: E402


def _input_digest(name, seed):
    w = workloads.WORKLOADS[name]
    if isinstance(w, workloads.CrawlWorkload):
        inp = workloads.make_crawl_input(w, seed)
        return workloads.table_digest(inp["documents"]) + repr(inp["seeds"])
    inp = workloads.make_curate_input(w, seed)
    return workloads.table_digest(inp["docs"]) + workloads.table_digest(inp["bench"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_pure_functions_of_the_seed(name):
    a = _input_digest(name, 5)
    assert _input_digest(name, 5) == a
    assert _input_digest(name, 6) != a


def test_oracle_comparator_flags_a_swapped_and_a_missing_row():
    want = [("u0", 0, 1, 200, 0), ("u1", 1, 2, 200, 1), ("u2", 1, 2, 404, 1), ("u3", 2, 2, 200, 2)]
    assert oracle_gate.compare_rows(list(want), want) == {
        "mismatched": 0, "missing": 0, "extra": 0}
    swapped = [want[0], want[2], want[1]]  # rows 1 and 2 swapped, row 3 missing
    assert oracle_gate.compare_rows(swapped, want) == {
        "mismatched": 2, "missing": 1, "extra": 0}
    assert oracle_gate.compare_rows(want + [want[0]], want)["extra"] == 1


def _span(name, t0, t1, sid, parent, pid=1, attrs=None):
    return (name, t0, t1, sid, parent, pid, attrs)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("root", 0.0, 10.0, 1, -1),
        _span("a", 1.0, 3.0, 2, 1),
        _span("b", 2.0, 5.0, 3, 1),     # overlaps a: [1, 5] counted once
        _span("c", 7.0, 8.0, 4, 1),
        _span("d", 9.5, 12.0, 5, 1),    # clipped to the parent's end
        _span("grandchild", 1.5, 2.5, 6, 2),
        _span("other-pid", 0.0, 10.0, 1, -1, pid=2),
    ]
    st = trace.self_times(spans)
    assert st[(1, 1)] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert st[(1, 2)] == pytest.approx(2.0 - 1.0)
    assert st[(1, 3)] == pytest.approx(3.0)
    assert st[(2, 1)] == pytest.approx(10.0)


def test_budget_overrun_windows():
    a = lambda n, bucket: {"n": n, "host": "h", "cap": 10.0, "bucket": bucket}
    ok = [(0.1, a(10, 1)), (0.6, a(10, 1)), (1.2, a(10, 1))]
    assert layers.budget_overruns(ok, host_rate=10.0) == 0
    over = ok + [(0.9, a(5, 1))]  # 25 granted in window 0 > rate 10 + burst 10
    assert layers.budget_overruns(over, host_rate=10.0) == 1
    assert layers.budget_overruns(over, host_rate=None) == 0


def test_bucket_loads_count_only_the_reps_own_set_up_and_run(tmp_path):
    # two reps of one session: each rep's fresh workers load the same
    # three buckets during warmup; the session's span list holds both
    rep = lambda t0: [_span("corpus.bucket_load", t0 + 0.1 * k, t0 + 0.1 * k + 0.05, k, -1,
                            pid=10 + int(t0)) for k in range(3)]
    spans = rep(0.0) + rep(10.0)
    m1 = layers.crawl_layers(spans, 0.0, 1.0, 5.0, 1.0, [], [], str(tmp_path), None)
    m2 = layers.crawl_layers(spans, 10.0, 11.0, 15.0, 1.0, [], [], str(tmp_path), None)
    assert m1["corpus.bucket_loads"] == m2["corpus.bucket_loads"] == 3


def test_oracle_cache_key_covers_every_oracle_input():
    from siteone_crawler_ray.pipelines.crawl import CrawlConfig

    w = workloads.WORKLOADS["crawl_polite"]
    inp = workloads.make_crawl_input(w, 5)
    cfg = workloads.crawl_config(w)
    key = lambda inp=inp, cfg=cfg, cut=w.max_epochs: oracle_gate.cache_key(
        "crawl_polite", 5, inp, cfg, cut)
    assert key() == key()
    assert key(inp={**inp, "seeds": inp["seeds"][:1]}) != key()
    assert key(inp={**inp, "robots": {h: "" for h in inp["robots"]}}) != key()
    assert key(cfg=CrawlConfig(routing="bucket")) != key()
    assert key(cut=3) != key()


def test_curate_reference_matches_the_injected_structure():
    inp = workloads.make_curate_input(workloads.CurateWorkload(base_docs=300, bench_docs=20), 3)
    kinds = dict(zip(inp["docs"]["doc_id"].to_pylist(), inp["kind"]))
    survivors = workloads.curate_reference(inp)
    assert not {i for i in survivors if kinds[i] in ("short", "repetitive")}
    # one copy of each exact pair survives; every suffix near-copy is dropped
    # against its base or the base is dropped against it
    n_exact = sum(k == "exact" for k in inp["kind"])
    n_near = sum(k == "near" for k in inp["kind"])
    n_base = sum(k == "base" for k in inp["kind"])
    n_shuf = sum(k == "shuffled" for k in inp["kind"])
    n_contam = inp["bench"].num_rows - 20
    assert len(survivors) == n_base + n_shuf - n_contam
    assert n_exact and n_near and n_contam


def test_compare_holds_back_time_verdicts_when_a_set_ran_on_a_contended_box(tmp_path, capsys):
    import json

    from crawlbench.compare import compare

    def write(path, run_s, steal):
        with open(path, "w") as f:
            for i, r in enumerate(run_s):
                metrics = {"setup_s": {"value": 5.0 + i / 100, "unit": "s"},
                           "run_s": {"value": r, "unit": "s"},
                           "peak_rss_mb": {"value": 2000.0 + i, "unit": "MB"}}
                f.write(json.dumps({
                    "workload": "crawl_bulk", "seed": i, "trace": 0,
                    "result": {"correct": True, "metrics": metrics},
                    "report": {"env": {"ambient_cal_sec": 0.15, "steal_pct": steal}}}) + "\n")

    before, after = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write(before, [1.0, 1.01, 0.99, 1.0], steal=0.5)
    write(after, [1.5, 1.51, 1.49, 1.5], steal=0.5)
    assert compare(str(before), str(after)) == 1  # quiet on both sides: worse
    capsys.readouterr()
    write(after, [1.5, 1.51, 1.49, 1.5], steal=9.0)
    assert compare(str(before), str(after)) == 0
    verdicts = {ln.split()[1]: ln.rsplit(": ", 1)[1]
                for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("crawl_bulk") and "bound" in ln}
    assert verdicts == {"setup_s": "unresolved (machine speed)",
                        "run_s": "unresolved (machine speed)", "peak_rss_mb": "same"}


def test_spans_arrive_from_actor_processes_through_the_setup_hook(tmp_path):
    ray = pytest.importorskip("ray")
    from siteone_crawler_ray.stages.frontier import FrontierShardState

    if ray.is_initialized():
        pytest.skip("needs its own Ray session")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR",
             runtime_env={"worker_process_setup_hook": "crawlbench.trace.worker_hook",
                          "env_vars": {trace.ENV_DIR: str(tmp_path), trace.ENV_RUN: "t"}})
    try:
        shard = ray.remote(num_cpus=0)(FrontierShardState).remote(0, 1 << 10)
        assert ray.get(shard.contains.remote(np.arange(5, dtype=np.uint64))).sum() == 0
        actor_pid = ray.get(shard.__ray_call__.remote(lambda self: os.getpid()))
    finally:
        ray.shutdown()
    spans = trace.load_spans(str(tmp_path), "t")
    names = {s[0] for s in spans if s[5] == actor_pid}
    assert "frontier.contains" in names
    assert actor_pid != os.getpid()


def test_compare_verdicts_follow_the_bound_and_the_spread():
    from crawlbench.compare import verdict

    steady = [1.0, 1.01, 0.99, 1.0]
    assert verdict(steady, [1.05, 1.04, 1.06, 1.05], 0.1, "lower") == "same"
    assert verdict(steady, [1.3, 1.31, 1.29, 1.3], 0.1, "lower") == "worse"
    assert verdict(steady, [1.3, 1.31, 1.29, 1.3], 0.1, "higher") == "better"
    noisy = [1.0, 1.5, 2.0, 1.0]
    assert verdict(noisy, [1.2, 0.6, 1.55, 2.5], 0.25, "lower") == "unresolved"
    assert verdict(noisy, [0.5, 0.6, 0.55, 0.52], 0.25, "lower") == "better (every run)"
    # the machine-speed probe moved by more than the bound between the sets
    assert verdict(steady, [1.3, 1.31, 1.29, 1.3], 0.1, "lower",
                   machine_drift=0.2) == "unresolved (machine speed)"
