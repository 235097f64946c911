"""Approximate-nearest-neighbor search over an embedding column
(``list<float>``) — training-data-pipeline extension.

Two paths:

- ``brute_force_topk``: the exact baseline.  The query matrix is
  ``ray.put`` ONCE (broadcast, not re-shipped per batch); each corpus
  batch computes a float64 cosine matmul against it and emits its local
  top-k per query; a final small groupby over (query, candidate) rows
  reduces to the global top-k.  Scale shape: corpus streams, queries
  broadcast, shuffle carries only n_queries*k rows per batch.
- ``ivf_topk``: the scale path.  A k-means-lite (seeded, few
  iterations, sampled) coarse quantizer assigns every corpus vector to
  a centroid bucket (map_batches, centroids broadcast); queries probe
  the ``n_probe`` nearest buckets only.  Same output contract.

Determinism: float64 math, ties broken by vec_id ascending — matches
the DuckDB oracle's ORDER BY (sim DESC, vec_id ASC).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from rapidocr_ray.util import (
    broadcast_get,
    ensure_worker_importable,
    stack_list_column,
)


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.where(norms == 0, 1, norms)


def _stack_embeddings(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (ids, matrix) from an embedding batch: one flatten +
    reshape per column (util.stack_list_column), no per-row loop."""
    ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
    mat = stack_list_column(batch.column("embedding"))
    return ids, mat


def brute_force_topk(ds, query_ids: np.ndarray, query_mat: np.ndarray, k: int = 5):
    """corpus Dataset (vec_id, embedding) + query matrix -> Dataset
    (query_id, neighbor_id, rank) with rank 1..k by cosine desc.

    Queries may include corpus vectors; self-matches are excluded."""
    import ray

    ensure_worker_importable()
    qref = ray.put((np.asarray(query_ids, dtype=np.int64), _normalize(np.asarray(query_mat, dtype=np.float64))))

    def local_topk(batch: pa.Table) -> pa.Table:
        q_ids, q_mat = broadcast_get(qref)
        c_ids, c_mat = _stack_embeddings(batch)
        sims = q_mat @ _normalize(c_mat).T  # [Q, B]
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            row = sims[qi]
            mask = c_ids != q_ids[qi]  # exclude self
            cand_ids = c_ids[mask]
            cand_sims = row[mask]
            if cand_ids.size == 0:
                continue
            take = min(k, cand_ids.size)
            # deterministic ordering: sim desc, vec_id asc (tie-safe)
            order = np.lexsort((cand_ids, -cand_sims))[:take]
            for j in order:
                out_q.append(int(q_ids[qi]))
                out_n.append(int(cand_ids[j]))
                out_s.append(float(cand_sims[j]))
        return pa.table(
            {"query_id": out_q, "neighbor_id": out_n, "sim": out_s},
            schema=pa.schema(
                [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("sim", pa.float64())]
            ),
        )

    cand = ds.map_batches(local_topk, batch_format="pyarrow")

    def reduce_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["sim", "neighbor_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "neighbor_id", "rank"]]

    return cand.groupby("query_id").map_groups(reduce_topk, batch_format="pandas")


def kmeans_lite(mat: np.ndarray, n_centroids: int, n_iter: int = 5, seed: int = 11) -> np.ndarray:
    """Seeded mini k-means on normalized vectors (cosine ~ dot)."""
    rng = np.random.default_rng(seed)
    mat = _normalize(mat)
    idx = rng.choice(len(mat), size=min(n_centroids, len(mat)), replace=False)
    cents = mat[np.sort(idx)].copy()
    for _ in range(n_iter):
        assign = np.argmax(mat @ cents.T, axis=1)
        for c in range(len(cents)):
            members = mat[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


def _bucketed_topk(ds, query_ids: np.ndarray, q_mat_n: np.ndarray,
                   cents: np.ndarray, probe: np.ndarray, k: int):
    """Shared IVF scan+reduce: corpus batches assign to their nearest
    centroid (np.argmax — first max = lowest centroid index), each
    query scans only its probed buckets, local top-k candidates go
    through one small (query_id, candidate) reduce.  Centroids/probe
    are broadcast ONCE via ray.put; the shuffle carries only
    n_queries*k rows per batch.  Ties everywhere: sim desc, id asc."""
    import ray

    ensure_worker_importable()
    ref = ray.put((np.asarray(query_ids, dtype=np.int64), q_mat_n, cents, probe))

    def local_topk(batch: pa.Table) -> pa.Table:
        q_ids, q_mat, cents_, probe_ = broadcast_get(ref)
        c_ids, c_mat = _stack_embeddings(batch)
        c_n = _normalize(c_mat)
        buckets = np.argmax(c_n @ cents_.T, axis=1)  # [B]
        sims = q_mat @ c_n.T
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            allowed = np.isin(buckets, probe_[qi]) & (c_ids != q_ids[qi])
            cand_ids = c_ids[allowed]
            if cand_ids.size == 0:
                continue
            cand_sims = sims[qi][allowed]
            order = np.lexsort((cand_ids, -cand_sims))[:k]
            for j in order:
                out_q.append(int(q_ids[qi]))
                out_n.append(int(cand_ids[j]))
                out_s.append(float(cand_sims[j]))
        return pa.table(
            {"query_id": out_q, "neighbor_id": out_n, "sim": out_s},
            schema=pa.schema(
                [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("sim", pa.float64())]
            ),
        )

    cand = ds.map_batches(local_topk, batch_format="pyarrow")

    def reduce_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["sim", "neighbor_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "neighbor_id", "rank"]]

    return cand.groupby("query_id").map_groups(reduce_topk, batch_format="pandas")


def ivf_topk(
    ds,
    query_ids: np.ndarray,
    query_mat: np.ndarray,
    k: int = 5,
    n_centroids: int = 16,
    n_probe: int = 4,
    train_sample: int = 2048,
    seed: int = 11,
):
    """IVF-style bucketed ANN: corpus bucketed by nearest centroid;
    each query scans only its n_probe nearest buckets.  Approximate —
    recall depends on (n_centroids, n_probe)."""
    sample = ds.limit(train_sample).to_pandas()
    train = np.stack(sample["embedding"].to_numpy()).astype(np.float64)
    cents = kmeans_lite(train, n_centroids, seed=seed)
    q_mat_n = _normalize(np.asarray(query_mat, dtype=np.float64))
    probe = np.argsort(-(q_mat_n @ cents.T), axis=1)[:, :n_probe]  # [Q, n_probe]
    return _bucketed_topk(ds, query_ids, q_mat_n, cents, probe, k)


def seeded_ivf_topk(
    ds,
    query_ids: np.ndarray,
    query_mat: np.ndarray,
    seed_mat: np.ndarray,
    k: int = 5,
    n_probe: int = 4,
):
    """IVF with a deterministic, SQL-expressible coarse quantizer:
    the centroids ARE the (normalized) embeddings of the given seed
    vectors — by convention the n_centroids smallest vec_ids — with a
    single assignment pass and no k-means refinement.  Same scale
    shape as ivf_topk (shared _bucketed_topk scan+reduce), but every
    step is deterministic, so the full query is hash-checked against a
    DuckDB oracle (window-ranked bucket assignment + probe + ranked
    candidates; see SQL_ANN_IVF_SEEDED).

    Tie discipline (matches the oracle's ORDER BY ... , cidx ASC):
    bucket assignment uses np.argmax (first max = lowest centroid
    index); query probing uses lexsort on (centroid idx, -sim)."""
    cents = _normalize(np.asarray(seed_mat, dtype=np.float64))
    q_mat_n = _normalize(np.asarray(query_mat, dtype=np.float64))
    qsims = q_mat_n @ cents.T  # [Q, C]
    cidx = np.arange(len(cents))
    probe = np.stack(
        [np.lexsort((cidx, -qsims[i]))[:n_probe] for i in range(len(q_mat_n))]
    )
    return _bucketed_topk(ds, query_ids, q_mat_n, cents, probe, k)
