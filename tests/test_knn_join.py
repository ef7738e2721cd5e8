"""kNN join (stages/similarity.py::knn_join): exhaustive-probe
exactness vs a brute-force reference, recall under real pruning,
partition independence, and the scatter merge path."""

import numpy as np
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _vecs_table(mat, ids):
    return pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(np.ascontiguousarray(mat, np.float64).ravel()),
            mat.shape[1]),
    })


def _clustered(n, dim=16, n_clusters=6, seed=5, spread=0.15):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    pick = rng.integers(0, n_clusters, n)
    m = centers[pick] + spread * rng.standard_normal((n, dim))
    return m


def _brute_reference(a_mat, a_ids, b_mat, b_ids, k):
    an = a_mat / np.linalg.norm(a_mat, axis=1, keepdims=True)
    bn = b_mat / np.linalg.norm(b_mat, axis=1, keepdims=True)
    rows = []
    for i, aid in enumerate(a_ids):
        cos = bn @ an[i]
        order = np.lexsort((b_ids, -cos))[:k]
        for r, j in enumerate(order):
            rows.append((int(aid), int(b_ids[j]), round(float(cos[j]), 6), r + 1))
    rows.sort(key=lambda r: (r[0], r[3]))
    return rows


def _as_rows(t):
    return list(zip(t["a_id"].to_pylist(), t["b_id"].to_pylist(),
                    t["cosine"].to_pylist(), t["rank"].to_pylist()))


def test_exhaustive_probe_is_exact():
    import ray.data as rd

    from siteone_crawler_ray.stages.similarity import knn_join

    a = _clustered(40, seed=1)
    b = _clustered(300, seed=2)
    a_ids = np.arange(40) + 1000
    b_ids = np.arange(300)
    got = knn_join(rd.from_arrow(_vecs_table(a, a_ids)),
                   rd.from_arrow(_vecs_table(b, b_ids)),
                   k=5, nlist=8, nprobe=8)  # nprobe == nlist: every cell
    assert _as_rows(got) == _brute_reference(a, a_ids, b, b_ids, 5)


def test_pruned_probe_recall():
    import ray.data as rd

    from siteone_crawler_ray.stages.similarity import knn_join

    a = _clustered(60, seed=3)
    b = _clustered(600, seed=4)
    a_ids = np.arange(60)
    b_ids = np.arange(600)
    got = knn_join(rd.from_arrow(_vecs_table(a, a_ids)),
                   rd.from_arrow(_vecs_table(b, b_ids)),
                   k=5, nlist=6, nprobe=2)
    want = _brute_reference(a, a_ids, b, b_ids, 5)
    want_pairs = {(r[0], r[1]) for r in want}
    got_pairs = {(r[0], r[1]) for r in _as_rows(got)}
    recall = len(got_pairs & want_pairs) / len(want_pairs)
    assert recall >= 0.6, recall
    # every a row still gets k neighbors under pruning at this density
    assert got.num_rows == 60 * 5


def test_partition_independence_and_scatter_merge(monkeypatch):
    import ray.data as rd

    from siteone_crawler_ray.stages import dedup, similarity

    a = _clustered(30, seed=7)
    b = _clustered(200, seed=8)
    ta, tb = _vecs_table(a, np.arange(30)), _vecs_table(b, np.arange(200) + 50)
    base = similarity.knn_join(rd.from_arrow(ta), rd.from_arrow(tb),
                               k=4, nlist=5, nprobe=2)
    for P in (1, 3, 7):
        got = similarity.knn_join(
            rd.from_arrow(ta).repartition(3), rd.from_arrow(tb).repartition(P),
            k=4, nlist=5, nprobe=2, num_partitions=P)
        assert got.equals(base), f"P={P}"
    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", 0)
    scattered = similarity.knn_join(rd.from_arrow(ta), rd.from_arrow(tb),
                                    k=4, nlist=5, nprobe=2)
    assert scattered.equals(base)


def test_empty_sides():
    import ray.data as rd

    from siteone_crawler_ray.stages.similarity import knn_join

    mat = _clustered(20, seed=9)
    t = _vecs_table(mat, np.arange(20))
    e = _vecs_table(np.empty((0, 16)), np.array([], np.int64))
    assert knn_join(rd.from_arrow(e), rd.from_arrow(t), k=3).num_rows == 0
    assert knn_join(rd.from_arrow(t), rd.from_arrow(e), k=3).num_rows == 0
