"""Persistent, incrementally-updatable MinHash-LSH dedup index.

`stages/dedup.minhash_dedup_pairs` answers "which pairs inside THIS
dataset are near-dups" — one batch job.  A continuous crawl needs the
other shape: an index of everything already ingested, consulted by each
new increment ("is this day's crawl a near-dup of ANYTHING in the
100-TB corpus?") and then extended with that increment.  This module
stores the index as two partitioned parquet families under
``index_dir``:

- ``bands/part=PPPPP/epoch-N.parquet`` — (band_id, band_hash, doc_id)
  rows, partitioned by ``band_hash % band_parts``: a query band row
  needs to read exactly ONE partition directory (pruned IO, the
  point of the layout);
- ``sigs/part=PPPPP/epoch-N.parquet`` — (doc_id, mh0..mh{P-1})
  signature rows partitioned by ``doc_id % sig_parts``, read only for
  the candidate doc_ids' partitions during verification.

Each ``add`` lands as a NEW ``epoch-N`` file per partition (atomic
rename, existing epoch files skipped), so index growth is append-only
and resumable — the epoch_shuffle_write contract.  Verification uses
the classic signature-agreement estimator (Broder 1997: matching
minhash components / num_perm is an unbiased Jaccard estimate) — the
full shingle sets of the historical corpus are exactly what a
persistent index cannot afford to keep.

Scale shape per query increment: signatures + band rows are
``map_batches``; candidates come from ONE exchange of the increment's
band rows against their band partitions (index side is a pruned file
read, never shuffled); verification is ONE exchange of candidates
against the signature partitions.  Nothing row-sized lands on the
driver except the final verified pair table (increment-sized).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .dedup import (_key_mod, _partitioned_exchange, _scatter_exchange, lsh_band_rows,
                    minhash_signatures)

_FMT = "part={:05d}"


class MinHashIndex:
    """Handle on a (possibly empty) index directory."""

    def __init__(self, index_dir: str, *, num_perm: int = 64, bands: int = 16,
                 shingle_k: int = 5, seed: int = 7,
                 band_parts: int = 16, sig_parts: int = 16):
        self.dir = index_dir
        self.num_perm, self.bands = int(num_perm), int(bands)
        self.shingle_k, self.seed = int(shingle_k), int(seed)
        self.band_parts, self.sig_parts = int(band_parts), int(sig_parts)
        os.makedirs(os.path.join(index_dir, "bands"), exist_ok=True)
        os.makedirs(os.path.join(index_dir, "sigs"), exist_ok=True)
        # the directory is the durable artifact: pin the hash/layout
        # parameters in it, and refuse to reopen with different ones
        # (mismatched seed/shingle_k would silently return zero matches)
        import json

        meta_path = os.path.join(index_dir, "meta.json")
        params = {"num_perm": self.num_perm, "bands": self.bands,
                  "shingle_k": self.shingle_k, "seed": self.seed,
                  "band_parts": self.band_parts, "sig_parts": self.sig_parts}
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                stored = json.load(f)
            if stored != params:
                raise ValueError(
                    f"index at {index_dir} was built with {stored}, "
                    f"reopened with {params}")
        else:
            tmp = meta_path + f".tmp-{os.getpid()}"
            with open(tmp, "w") as f:
                json.dump(params, f)
            os.replace(tmp, meta_path)

    # ---- plumbing -----------------------------------------------------

    def _sig_ds(self, ds, id_col, text_col):
        np_, sk, sd = self.num_perm, self.shingle_k, self.seed

        def fn(batch: pa.Table) -> pa.Table:
            return minhash_signatures(batch, id_col=id_col, text_col=text_col,
                                      num_perm=np_, shingle_k=sk, seed=sd)

        return ds.map_batches(fn, batch_format="pyarrow")

    def _band_fn(self, id_col):
        np_, bd = self.num_perm, self.bands

        def fn(batch: pa.Table) -> pa.Table:
            return lsh_band_rows(batch, id_col=id_col, num_perm=np_, bands=bd)

        return fn

    @staticmethod
    def _write_part(table: pa.Table, root: str, part: int, epoch: int) -> pa.Table:
        d = os.path.join(root, _FMT.format(part))
        path = os.path.join(d, f"epoch-{epoch}.parquet")
        skipped = os.path.exists(path)
        if not skipped:
            os.makedirs(d, exist_ok=True)
            tmp = path + f".tmp-{os.getpid()}"
            pq.write_table(table, tmp)
            os.replace(tmp, path)
        return pa.table({"path": pa.array([path]), "rows": pa.array([table.num_rows]),
                         "skipped": pa.array([skipped])})

    @staticmethod
    def _read_part(root: str, part: int, columns=None,
                   exclude_epoch: int | None = None) -> pa.Table | None:
        """Read one partition directory.  ``exclude_epoch`` skips that
        epoch's files — the query side of an in-flight ingest must not
        see the ingest's own partial writes, or a crashed-and-resumed
        cycle would classify the increment against itself."""
        d = os.path.join(root, _FMT.format(part))
        if not os.path.isdir(d):
            return None
        files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        if exclude_epoch is not None:
            files = [f for f in files if f != f"epoch-{exclude_epoch}.parquet"]
        if not files:
            return None
        return pa.concat_tables(
            [pq.read_table(os.path.join(d, f), columns=columns) for f in files])

    # ---- add an increment --------------------------------------------

    def signatures(self, ds, *, id_col="doc_id", text_col="text"):
        """Materialized signature Dataset for an increment — compute
        ONCE and hand to both :meth:`query` and :meth:`add` (``sigs=``)
        so the dominant kernel of an ingest cycle runs a single time."""
        return self._sig_ds(ds, id_col, text_col).materialize()

    def add(self, ds=None, *, epoch: int, id_col="doc_id", text_col="text",
            sigs=None) -> dict:
        """Index an increment: signature + band rows land in their
        partition directories as ``epoch-{epoch}`` files (idempotent —
        rerunning the same epoch skips existing partition files).
        Pass ``sigs`` (from :meth:`signatures`) to reuse an already-
        computed signature table instead of ``ds``."""
        sig_root = os.path.join(self.dir, "sigs")
        band_root = os.path.join(self.dir, "bands")
        SP, BP = self.sig_parts, self.band_parts
        wp = MinHashIndex._write_part

        if sigs is None:
            sigs = self.signatures(ds, id_col=id_col, text_col=text_col)
        # an exchange partition holds exactly the rows whose key % P is
        # its index, so the first row's key names the partition directory
        sig_manifest = _partitioned_exchange(
            sigs, id_col,
            lambda t: wp(t, sig_root, int(_key_mod(t, id_col, SP)[0]), epoch),
            num_partitions=SP)
        band_manifest = _partitioned_exchange(
            sigs.map_batches(self._band_fn(id_col), batch_format="pyarrow"),
            "band_hash",
            lambda t: wp(t, band_root, int(_key_mod(t, "band_hash", BP)[0]), epoch),
            num_partitions=BP)
        rows = lambda m: int(sum(t["rows"][0].as_py() for t in m))  # noqa: E731
        return {"epoch": epoch, "sig_rows": rows(sig_manifest),
                "band_rows": rows(band_manifest),
                "skipped": all(t["skipped"][0].as_py()
                               for t in sig_manifest + band_manifest)}

    # ---- query an increment against the index -------------------------

    def query(self, ds=None, *, id_col="doc_id", text_col="text",
              threshold: float = 0.7, sigs=None,
              exclude_epoch: int | None = None) -> pa.Table:
        """(new_id, old_id, est_jaccard) for every increment doc whose
        estimated Jaccard vs an indexed doc is ≥ threshold.

        ``exclude_epoch`` hides that epoch's index files from the query
        — an ingest cycle queries with its OWN epoch excluded so a
        crashed-and-resumed cycle never classifies the increment
        against its own partial add."""
        band_root = os.path.join(self.dir, "bands")
        sig_root = os.path.join(self.dir, "sigs")
        BP, SP, NP = self.band_parts, self.sig_parts, self.num_perm
        xe = exclude_epoch
        rp = MinHashIndex._read_part

        if sigs is None:
            sigs = self.signatures(ds, id_col=id_col, text_col=text_col)
        sig_cols = [f"mh{j}" for j in range(NP)]

        # stage 1: increment band rows → their band partition; candidates
        # = equality on (band_id, band_hash) against the partition's files
        def candidates(t: pa.Table) -> pa.Table:
            part = int(_key_mod(t, "band_hash", BP)[0])
            idx = rp(band_root, part, exclude_epoch=xe)
            if idx is None or idx.num_rows == 0:
                return None
            import pyarrow.compute as pc

            j = t.rename_columns(["band_id", "band_hash", "new_id"]).join(
                idx.rename_columns(["band_id", "band_hash", "old_id"]),
                keys=["band_id", "band_hash"], join_type="inner",
                use_threads=False)
            if j.num_rows == 0:
                return None
            j = j.filter(pc.not_equal(j["new_id"], j["old_id"]))
            if j.num_rows == 0:
                return None
            pairs = j.select(["new_id", "old_id"])
            arr = np.stack([pairs["new_id"].to_numpy(zero_copy_only=False),
                            pairs["old_id"].to_numpy(zero_copy_only=False)], axis=1)
            arr = np.unique(arr, axis=0)
            return pa.table({"new_id": pa.array(arr[:, 0]),
                             "old_id": pa.array(arr[:, 1])})

        band_rows = sigs.map_batches(self._band_fn(id_col), batch_format="pyarrow")
        cand_parts = _partitioned_exchange(band_rows, "band_hash", candidates,
                                           num_partitions=BP)
        if not cand_parts:
            return _empty_pairs()
        cands = pa.concat_tables(cand_parts)
        arr = np.stack([cands["new_id"].to_numpy(zero_copy_only=False),
                        cands["old_id"].to_numpy(zero_copy_only=False)], axis=1)
        arr = np.unique(arr, axis=0)  # cross-band dedup (candidate-sized)

        # stage 2: attach the increment's signatures — the candidate join
        # runs inside each SIG BLOCK's scatter task (the candidate table
        # is pair-ids-only and broadcast via ray.put; no single task
        # ever holds the full signature matrix), and the joined rows
        # exchange on old_id against the signature partitions
        import ray

        from ..functions.agg import block_refs

        cand_tbl = pa.table({"new_id": pa.array(arr[:, 0]),
                             "old_id": pa.array(arr[:, 1])})

        def attach(sig_block: pa.Table, cand: pa.Table) -> pa.Table:
            return cand.join(sig_block.rename_columns(
                ["new_id"] + [c for c in sig_block.column_names if c != id_col]),
                keys="new_id", join_type="inner", use_threads=False)

        def verify(t: pa.Table) -> pa.Table:
            part = int(_key_mod(t, "old_id", SP)[0])
            idx = rp(sig_root, part, exclude_epoch=xe)
            if idx is None or idx.num_rows == 0:
                return None
            old_ids = idx[id_col].to_numpy(zero_copy_only=False)
            order = np.argsort(old_ids, kind="stable")
            old_sorted = old_ids[order]
            want = t["old_id"].to_numpy(zero_copy_only=False)
            lo = np.searchsorted(old_sorted, want, side="left")
            hi = np.searchsorted(old_sorted, want, side="right")
            counts = hi - lo
            hit = counts > 0
            if not hit.any():
                return None
            # an old_id re-ingested after changing has ONE sig row per
            # epoch — compare against ALL of them and keep the best
            # agreement (a stale row must not mask a current near-dup)
            reps = counts[hit]
            total = int(reps.sum())
            seg = np.concatenate([[0], np.cumsum(reps)])
            pos_exp = (np.repeat(lo[hit], reps)
                       + np.arange(total) - np.repeat(seg[:-1], reps))
            rows = order[pos_exp]
            cand_of = np.repeat(np.arange(len(reps)), reps)
            new_sig = np.stack([t[c].to_numpy(zero_copy_only=False)[hit]
                                for c in sig_cols], axis=1)
            old_sig = np.stack([idx[c].to_numpy(zero_copy_only=False)[rows]
                                for c in sig_cols], axis=1)
            est_rows = (new_sig[cand_of] == old_sig).mean(axis=1)
            est = np.maximum.reduceat(est_rows, seg[:-1])
            keep = est >= threshold
            if not keep.any():
                return None
            return pa.table({
                "new_id": pa.array(t["new_id"].to_numpy(zero_copy_only=False)[hit][keep]),
                "old_id": pa.array(want[hit][keep]),
                "est_jaccard": pa.array(np.round(est[keep], 6)),
            })

        out = _scatter_exchange([(block_refs(sigs), "old_id", attach, ray.put(cand_tbl))],
                                verify, SP)
        if not out:
            return _empty_pairs()
        res = pa.concat_tables(out)
        return res.take(pa.compute.sort_indices(
            res, sort_keys=[("new_id", "ascending"), ("old_id", "ascending")]))


def _empty_pairs() -> pa.Table:
    return pa.table({"new_id": pa.array([], pa.int64()),
                     "old_id": pa.array([], pa.int64()),
                     "est_jaccard": pa.array([], pa.float64())})
