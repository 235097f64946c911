"""Mergeable distributed sketches over a documents-style table —
training-data-pipeline extensions, both with hash-checked oracles.

- Misra-Gries heavy hitters: per-task MG summaries (bounded memory per
  task regardless of vocabulary size) merged through ONE
  ``tiered.by_key`` shuffle on the token, pruned with the
  summed-decrement error bound, then an EXACT verification pass over
  the (small) candidate set.  MG's guarantee —
  a token with true count >= threshold can never be evicted from every
  summary once the global decrement bound is honored — makes the final
  output the exact heavy-hitter set, so the whole operator is checkable
  against a plain SQL GROUP BY ... HAVING oracle.
- HyperLogLog distinct-per-key: per-task register partials (one
  4 KB row per key per task, never the token stream) merged by
  elementwise max — the canonical mergeable-sketch shuffle shape — and
  cross-checked in the same query against an exact token-keyed distinct
  count; the emitted row carries the exact count (hash-checked) plus an
  estimate-within-tolerance boolean whose oracle is the constant TRUE.

Scale shapes: the token explosion never leaves the map task in either
operator; every shuffle key is bounded (``by_key`` bucket / key column); the
only driver-side materializations are per-key register rows and the
candidate set, both O(keys + candidates), never the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from rapidocr_ray.functions.hashing import _stable_hash64
from rapidocr_ray.stages.tiered import by_key
from rapidocr_ray.util import broadcast_get, ensure_worker_importable


def mg_compress(tokens: np.ndarray, weights: np.ndarray, m: int):
    """Misra-Gries compression: reduce a counter set to < m entries by
    subtracting the (m)-th largest weight from every counter and
    dropping the non-positive ones.  Returns (tokens, weights,
    decrement).  Vectorized; exact MG semantics (every surviving weight
    is a lower bound on the true count, undercounting by at most the
    returned decrement)."""
    if len(tokens) < m:
        return tokens, weights, 0
    kth = np.partition(weights, len(weights) - m)[len(weights) - m]
    keep = weights > kth
    return tokens[keep], weights[keep] - kth, int(kth)


def misra_gries_heavy_hitters(ds, text_col: str = "text", m: int = 4096,
                              fraction: float = 0.02):
    """Exact heavy hitters (tokens with count >= fraction * total
    tokens) via distributed Misra-Gries + exact verify.

    1. map_batches partial: exact per-batch counts (Arrow group_by of
       the flattened token column), MG-compressed to < m rows; each
       task also emits one sentinel row carrying its decrement and
       token total.  Per-task output is bounded by m regardless of
       batch vocabulary.
    2. the small summary stream is materialized once; total tokens N
       and global decrement D are two scalar sums over sentinel rows.
    3. ``by_key`` merge (token -> one bucket, so per-bucket sums are
       exact over the summaries): candidates are tokens whose summed
       MG weight >= threshold - D.  MG guarantee: summed weight >=
       true - D, so no true heavy hitter is missing.
    4. exact verify: candidate set broadcast (small by construction),
       second pass counts ONLY candidate tokens, ``by_key`` merge,
       filter >= threshold.  Output is the exact answer: (token, n).
    """
    import ray

    ensure_worker_importable()

    part_schema = pa.schema(
        [("token", pa.string()), ("w", pa.int64()), ("sentinel", pa.bool_())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch.column(text_col), " "))
        if len(toks) == 0:
            return part_schema.empty_table()
        agg = pa.table({"token": toks}).group_by("token").aggregate([("token", "count")])
        t = np.asarray(agg.column("token"), dtype=object)
        w = np.asarray(agg.column("token_count"), dtype=np.int64)
        t, w, dec = mg_compress(t, w, m)
        # sentinel: w = this task's decrement, token = its token total
        return pa.table(
            {
                "token": np.append(t, str(len(toks))),
                "w": np.append(w, dec),
                "sentinel": np.append(np.zeros(len(t), dtype=bool), True),
            },
            schema=part_schema,
        )

    def sentinel_rows(batch: pa.Table, sentinel: bool) -> pa.Table:
        mask = batch.column("sentinel")
        return batch.filter(mask if sentinel else pc.invert(mask))

    # the summary stream is O(n_tasks * m) — the small intermediate —
    # and is consumed twice (scalars + merge), so materialize it once
    part = ds.map_batches(partial, batch_format="pyarrow").materialize()
    sent = part.map_batches(
        sentinel_rows, fn_kwargs={"sentinel": True}, batch_format="pyarrow"
    ).to_pandas()
    # empty-corpus guard: a zero-block dataset loses its schema through
    # map_batches, so the sentinel frame may arrive column-less
    n_total = int(sent.token.astype(np.int64).sum()) if len(sent) else 0
    d_global = int(sent.w.sum()) if len(sent) else 0
    threshold = fraction * n_total
    if n_total and threshold <= d_global:
        # MG completeness requires threshold > global decrement: a true
        # heavy hitter with count <= D can be evicted from EVERY
        # per-task summary and silently vanish from the candidate set.
        # D <= N/m, so fraction > 1/m (per-task, summed) is the safe
        # operating regime; refuse loudly rather than return a wrong
        # "exact" answer.
        raise ValueError(
            f"misra_gries_heavy_hitters: threshold {threshold:.1f} <= "
            f"global decrement {d_global}; raise m (or fraction) so "
            "fraction * total_tokens exceeds the summed MG decrement"
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("token", as_index=False, sort=False)["w"].sum()
        g = g[g.w >= threshold - d_global]
        return g[["token"]]

    summaries = part.map_batches(
        sentinel_rows, fn_kwargs={"sentinel": False}, batch_format="pyarrow"
    )
    cand = by_key(summaries, "token", merge).to_pandas()
    cand_ref = ray.put(frozenset(cand.token) if len(cand) else frozenset())

    exact_schema = pa.schema([("token", pa.string()), ("n", pa.int64())])

    def exact_partial(batch: pa.Table) -> pa.Table:
        cset = broadcast_get(cand_ref)
        toks = pc.list_flatten(pc.split_pattern(batch.column(text_col), " "))
        if len(toks) == 0:
            return exact_schema.empty_table()
        agg = pa.table({"token": toks}).group_by("token").aggregate([("token", "count")])
        t = np.asarray(agg.column("token"), dtype=object)
        keep = np.fromiter((s in cset for s in t), dtype=bool, count=len(t))
        t = t[keep]
        n = np.asarray(agg.column("token_count"), dtype=np.int64)[keep]
        return pa.table({"token": t, "n": n}, schema=exact_schema)

    def exact_merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("token", as_index=False, sort=False)["n"].sum()
        g = g[g.n >= threshold]
        g["n"] = g.n.astype(np.int64)
        return g[["token", "n"]]

    return by_key(
        ds.map_batches(exact_partial, batch_format="pyarrow"), "token", exact_merge
    )


# ---------------------------------------------------------------------------
# HyperLogLog distinct-per-key
# ---------------------------------------------------------------------------


def hll_registers(hashes: np.ndarray, p: int) -> np.ndarray:
    """uint64 hashes -> HLL register array (2^p uint8): register index
    from the low p bits, rho = 1 + leading-zero count of the remaining
    64-p bits (capped), max per register.  Vectorized."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if hashes.size == 0:
        return regs
    idx = (hashes & np.uint64(m - 1)).astype(np.int64)
    rest = hashes >> np.uint64(p)
    # rho: position of the first 1-bit in the top 64-p bits, from the
    # MSB side of that field — 64-p - floor(log2(rest)) for rest > 0
    nbits = 64 - p
    rho = np.full(hashes.shape, nbits + 1, dtype=np.uint8)
    nz = rest > 0
    # float log2 is unsafe near 2^53; use bit_length via uint64 shifts
    bl = np.zeros(hashes.shape, dtype=np.int64)
    r = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = r >= (np.uint64(1) << np.uint64(shift))
        bl[big] += shift
        r[big] >>= np.uint64(shift)
    rho[nz] = (nbits - bl[nz]).astype(np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the small-range linear-counting
    correction (Flajolet et al. 2007)."""
    m = regs.shape[0]
    alpha = 0.7213 / (1 + 1.079 / m) if m >= 128 else {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1 + 1.079 / m))
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        return m * np.log(m / zeros)
    return float(est)


def hll_distinct_tokens_per_key(ds, key_col: str = "lang",
                                text_col: str = "text", p: int = 12):
    """Per-key distinct token count: EXACT (token-keyed distinct, the
    hash-checked column) alongside a merged HyperLogLog estimate whose
    in-tolerance flag is the pinned invariant.  Returns a small
    pyarrow Table (one row per key)."""
    ensure_worker_importable()
    m = 1 << p

    reg_schema = pa.schema([(key_col, pa.string()), ("regs", pa.list_(pa.uint8()))])

    def reg_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column(text_col), " ")
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        keys = np.repeat(np.asarray(batch.column(key_col), dtype=object), lens)
        flat = pc.list_flatten(toks)
        t = (
            pa.table({"k": pa.array(keys, type=pa.string()), "token": flat})
            .group_by(["k", "token"])
            .aggregate([])
        )
        # hash every distinct pair once, then slice per key off ONE
        # argsort partition (not a full rescan per key)
        kcol = np.asarray(t.column("k"), dtype=object)
        tcol = t.column("token").to_pylist()
        hs_all = np.fromiter(
            (_stable_hash64(s) for s in tcol), dtype=np.uint64, count=len(tcol)
        )
        order = np.argsort(kcol, kind="stable")
        ks, starts = np.unique(kcol[order], return_index=True)
        out_k, out_r = [], []
        for i, k in enumerate(ks):
            lo = starts[i]
            hi = starts[i + 1] if i + 1 < len(starts) else len(order)
            out_k.append(k)
            out_r.append(hll_registers(hs_all[order[lo:hi]], p))
        return pa.table({key_col: out_k, "regs": out_r}, schema=reg_schema)

    def reg_merge(group: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack([np.asarray(r, dtype=np.uint8) for r in group.regs])
        merged = np.maximum.reduce(mat)
        return pd.DataFrame(
            {key_col: [group[key_col].iloc[0]], "est": [hll_estimate(merged)]}
        )

    # keys are a bounded categorical (lang) — a direct Ray groupby is
    # the documented-safe shape here; each group is n_tasks rows of
    # 4 KB registers
    est = (
        ds.map_batches(reg_partial, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(reg_merge, batch_format="pandas")
        .to_pandas()
    )

    # exact distinct per key: distinct (key, token) partials, token-
    # keyed merge (token -> one bucket so dupes collide), tiny
    # per-bucket per-key counts, final sum over the bounded key
    ex_schema = pa.schema([(key_col, pa.string()), ("token", pa.string())])

    def ex_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column(text_col), " ")
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        keys = np.repeat(np.asarray(batch.column(key_col), dtype=object), lens)
        flat = pc.list_flatten(toks)
        t = (
            pa.table({key_col: pa.array(keys, type=pa.string()), "token": flat})
            .group_by([key_col, "token"])
            .aggregate([])
        )
        return pa.table(
            {key_col: t.column(key_col), "token": t.column("token")}, schema=ex_schema
        )

    def ex_merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates([key_col, "token"])
        agg = g.groupby(key_col, sort=False)["token"].count()
        return pd.DataFrame(
            {key_col: agg.index.to_numpy(dtype=object), "n_part": agg.to_numpy(np.int64)}
        )

    parts = by_key(
        ds.map_batches(ex_partial, batch_format="pyarrow"), "token", ex_merge
    ).to_pandas()
    out_schema = pa.schema(
        [(key_col, pa.string()), ("n_distinct", pa.int64()), ("hll_ok", pa.bool_())]
    )
    if not len(parts) or not len(est):  # empty corpus: column-less frames
        return out_schema.empty_table()
    exact = parts.groupby(key_col, as_index=False)["n_part"].sum()
    joined = exact.merge(est, on=key_col)
    # 6-sigma band, not 3: hll_ok is pinned as a constant-TRUE oracle,
    # and the md5-register error is DETERMINISTIC per (key, corpus) —
    # an unlucky key outside a tight band would fail permanently, not
    # flake.  6 sigma (~1e-9 per key) keeps full discriminating power
    # against real merge/estimator breaks (those are off by 10-100%).
    tol = np.maximum(6 * 1.04 / np.sqrt(m) * joined.n_part.to_numpy(np.float64), 8.0)
    ok = np.abs(joined.est.to_numpy(np.float64) - joined.n_part.to_numpy(np.float64)) <= tol
    return pa.table(
        {
            key_col: joined[key_col].to_numpy(dtype=object),
            "n_distinct": joined.n_part.to_numpy(np.int64),
            "hll_ok": ok,
        },
        schema=out_schema,
    )
