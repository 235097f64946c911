"""Link-graph operators for crawl curation: outlink-edge derivation and
an iterative, exactly-deterministic PageRank over the domain graph.

Why this exists: large-crawl pipelines rank domains/URLs by link
authority to pick seeds and weight training data (Common Crawl publishes
exactly this kind of domain-rank artifact).  The reference engine has no
graph stage; this is a training-data-pipeline extension in the same
spirit as the dedup/ANN stages.

Scale shapes (the part that matters at 10^12 docs / ~10^8 domains):

- ``derive_domain_edges``: resolving a target doc_id to its domain is a
  ``tiered.by_key`` HASH JOIN on doc_id — the documents table is never
  broadcast (it is the big side).  Edge weights partial-aggregate inside
  each join bucket, then merge in ONE ``by_key`` shuffle on src, so the
  shuffled edge rows are already collapsed to distinct (src, dst) pairs
  per bucket — at most n_domains^2 rows move, not n_docs * out_links.
- ``pagerank_int``: the classic iterative all-to-all.  Per iteration:
  one ``by_key`` shuffle co-locating each src's edges with its current
  rank (contributions computed group-locally, pre-aggregated by dst
  inside the group), then one ``by_key`` shuffle merging contributions
  onto the node list.  Edges (with out-weight attached) are
  materialized ONCE and reused every iteration; only the rank table
  (one row per domain) re-materializes per round — the same working-set
  discipline as ``dedup.dup_groups``'s label table.

Exactness: ranks are int64 "nano-units" (total mass 10^12).  Every
operation is integer (floor division for the per-src share and for the
damping), and integer addition is order-independent, so the result is
bit-identical regardless of block boundaries, task scheduling, or
DuckDB's aggregation order — the oracle (unrolled-iteration SQL, see
``pipelines.queries._pagerank_sql``) matches exactly, no float pin
needed.  Dangling nodes (no out-edges) simply leak their mass, the
standard simplification; the derived graph has none (every doc emits
``out_links`` edges), and the SQL does the same, so the engines agree.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from rapidocr_ray.stages.tiered import by_key
from rapidocr_ray.util import broadcast_get, ensure_worker_importable

TOTAL_NANO = 10**12
DAMP_NUM = 85
DAMP_DEN = 100
EDGE_MULT = 48271  # MINSTD multiplier: cheap full-period doc_id scrambler
# pagerank_int tier limits, read at call time (tests monkeypatch them):
# collapsed edges run driver-side up to EDGE_LOCAL_LIMIT rows, the rank
# vector is broadcast up to BROADCAST_LIMIT nodes
EDGE_LOCAL_LIMIT = 2_000_000
BROADCAST_LIMIT = 2_000_000


def derive_domain_edges(ds, n_docs: int, out_links: int = 3):
    """(doc_id, source) Dataset -> weighted domain edge list
    ``(src:string, dst:string, w:int64)``.

    Targets are derived deterministically — doc ``d`` links to docs
    ``(d * EDGE_MULT + j) % n_docs`` for ``j`` in 1..out_links — the
    synthetic stand-in for href extraction; a real crawl run would emit
    ``html.extract_outlinks(payload)`` rows here and everything
    downstream (the join, the weighting, pagerank) is unchanged.
    """
    ensure_worker_importable()

    def link_side(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        src = np.asarray(batch.column("source"))
        reps = np.repeat(ids, out_links)
        offs = np.tile(np.arange(1, out_links + 1, dtype=np.int64), len(ids))
        return pa.table(
            {
                "key": pa.array((reps * EDGE_MULT + offs) % n_docs, type=pa.int64()),
                "domain": pa.array(np.repeat(src, out_links), type=pa.string()),
                "is_target": pa.array(np.zeros(len(reps), dtype=np.int8), type=pa.int8()),
            }
        )

    def doc_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": pa.array(
                    np.asarray(batch.column("doc_id"), dtype=np.int64), type=pa.int64()
                ),
                "domain": pa.array(batch.column("source"), type=pa.string()),
                "is_target": pa.array(np.ones(n, dtype=np.int8), type=pa.int8()),
            }
        )

    def join_and_partial(group: pd.DataFrame) -> pa.Table:
        # resolve target doc -> its domain, collapse to partial weights
        links = group[group.is_target == 0]
        docs = group[group.is_target == 1][["key", "domain"]].rename(
            columns={"domain": "dst"}
        )
        m = links.merge(docs, on="key")
        if m.empty:
            return pa.table(
                {"src": pa.array([], type=pa.string()),
                 "dst": pa.array([], type=pa.string()),
                 "w": pa.array([], type=pa.int64())}
            )
        part = (
            m.groupby(["domain", "dst"], sort=False).size().rename("w").reset_index()
        )
        return pa.table(
            {
                "src": pa.array(part.domain, type=pa.string()),
                "dst": pa.array(part.dst, type=pa.string()),
                "w": pa.array(part.w.to_numpy(np.int64), type=pa.int64()),
            }
        )

    partials = by_key(
        [
            ds.map_batches(link_side, batch_format="pyarrow"),
            ds.map_batches(doc_side, batch_format="pyarrow"),
        ],
        "key",
        join_and_partial,
    )

    def merge_w(group: pd.DataFrame) -> pa.Table:
        agg = group.groupby(["src", "dst"], sort=False)["w"].sum().reset_index()
        return pa.table(
            {
                "src": pa.array(agg.src, type=pa.string()),
                "dst": pa.array(agg.dst, type=pa.string()),
                "w": pa.array(agg.w.to_numpy(np.int64), type=pa.int64()),
            }
        )

    return by_key(partials, "src", merge_w)


def _pagerank_local(edges_raw, n_iter: int, total: int, damp_num: int, damp_den: int):
    """Edge list under EDGE_LOCAL_LIMIT: run the loop driver-side in
    vectorized numpy (out-weights and the node set come free from the
    local frame — no attach/node shuffles).  Node labels factorize to
    positions once; each iteration is two gathers, one integer
    divide/multiply, and one np.add.at scatter — the same floor
    semantics as the distributed tiers (pinned equal by tests)."""
    import ray.data

    e = edges_raw.to_pandas()
    if e.empty:
        return ray.data.from_arrow(
            pa.table(
                {"node": pa.array([], type=pa.string()),
                 "rank_nano": pa.array([], type=pa.int64())}
            )
        )
    node_arr = np.sort(pd.unique(pd.concat([e["src"], e["dst"]])))
    idx = pd.Index(node_arr)
    n_nodes = len(node_arr)
    tele = (total * (damp_den - damp_num)) // (damp_den * n_nodes)
    src_pos = idx.get_indexer(e["src"])
    dst_pos = idx.get_indexer(e["dst"])
    w = e["w"].to_numpy(np.int64)
    ow = e.groupby("src")["w"].transform("sum").to_numpy(np.int64)
    ranks = np.full(n_nodes, total // n_nodes, dtype=np.int64)
    for _ in range(n_iter):
        insums = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(insums, dst_pos, (ranks[src_pos] // ow) * w)
        ranks = tele + (damp_num * insums) // damp_den
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(node_arr, type=pa.string()),
                "rank_nano": pa.array(ranks.astype(np.int64), type=pa.int64()),
            }
        )
    )


def _pagerank_broadcast(
    edges_w, nodes_ds, n_nodes: int, n_iter: int, tele: int, r0: int,
    damp_num: int, damp_den: int,
):
    """Broadcast-rank path (node table under BROADCAST_LIMIT): the rank
    vector is ray.put once per iteration; edge blocks stream from the
    object store (materialized once, never recomputed); each task emits
    partial in-sums pre-aggregated by dst (bounded by the batch's
    distinct dst count); the driver merges partials positionally
    (np.add.at against a node index) — O(n_nodes) driver memory,
    integer adds so order-independent and identical to the bucketed
    path and the SQL oracle."""
    import ray
    import ray.data

    node_arr = np.sort(nodes_ds.to_pandas()["node"].to_numpy())
    idx = pd.Index(node_arr)
    ranks = np.full(n_nodes, r0, dtype=np.int64)

    for _ in range(n_iter):
        rref = ray.put(pd.Series(ranks, index=idx))

        def partial(batch: pa.Table, _rref=rref) -> pa.Table:
            s = broadcast_get(_rref)
            src = batch.column("node").to_pandas()
            w = np.asarray(batch.column("w"), dtype=np.int64)
            ow = np.asarray(batch.column("ow"), dtype=np.int64)
            c = (s[src].to_numpy(np.int64) // ow) * w
            part = (
                pd.DataFrame({"dst": batch.column("dst").to_pandas(), "c": c})
                .groupby("dst", sort=False)["c"]
                .sum()
            )
            return pa.table(
                {
                    "dst": pa.array(part.index, type=pa.string()),
                    "c": pa.array(part.to_numpy(np.int64), type=pa.int64()),
                }
            )

        insums = np.zeros(n_nodes, dtype=np.int64)
        for b in edges_w.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            if b.num_rows:
                pos = idx.get_indexer(b.column("dst").to_pandas())
                np.add.at(insums, pos, np.asarray(b.column("c"), dtype=np.int64))
        ranks = tele + (damp_num * insums) // damp_den

    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(node_arr, type=pa.string()),
                "rank_nano": pa.array(ranks.astype(np.int64), type=pa.int64()),
            }
        )
    )


def pagerank_int(
    edges_ds,
    n_iter: int = 5,
    total: int = TOTAL_NANO,
    damp_num: int = DAMP_NUM,
    damp_den: int = DAMP_DEN,
):
    """Integer PageRank over a weighted edge Dataset (src, dst, w) ->
    Dataset (node:string, rank_nano:int64).  See module docstring for
    the exactness and scale arguments.

    Three execution tiers, identical integer semantics (tests pin them
    equal): when the COLLAPSED edge list fits under
    ``EDGE_LOCAL_LIMIT`` rows the whole loop runs driver-side in
    vectorized numpy (the graph is the small side — paying 5 rounds of
    cluster scheduling to move 60 rows is wrong at any scale); when
    only the NODE table fits under ``BROADCAST_LIMIT`` the rank vector
    lives on the driver — each iteration is one streaming
    ``map_batches`` pass over the materialized edges (ranks ``ray.put``
    once per round, per-batch contributions pre-aggregated by dst
    before leaving the task) plus a driver merge bounded by the node
    count; past both limits it falls back to the fully-distributed
    bucketed-join loop (two bounded shuffles per iteration) — the
    dedup_by_url auto-fallback discipline."""
    ensure_worker_importable()
    if total <= 0 or damp_num * total >= 2**63:
        # damp_num * insum (insum <= total) must fit int64 in every
        # tier; past this bound the numpy math would wrap while a
        # big-int reference would not
        raise ValueError(
            f"pagerank_int: total={total} out of int64 headroom "
            f"(need 0 < damp_num*total < 2^63)"
        )

    def drop_nonpositive(batch: pa.Table) -> pa.Table:
        # w <= 0 would make a zero out-weight possible (integer
        # division by zero in the share) and carries no rank mass;
        # filter uniformly so all three tiers see the same graph
        import pyarrow.compute as _pc

        return batch.filter(_pc.greater(batch.column("w"), 0))

    # tier 0: collapsed edge list fits on the driver — skip the
    # attach-ow and node shuffles entirely and loop in numpy
    edges_raw = edges_ds.map_batches(
        drop_nonpositive, batch_format="pyarrow"
    ).materialize()
    n_edges = edges_raw.count()
    if n_edges <= EDGE_LOCAL_LIMIT:
        return _pagerank_local(edges_raw, n_iter, total, damp_num, damp_den)
    edges_ds = edges_raw

    def attach_ow(group: pd.DataFrame) -> pa.Table:
        ow = group.groupby("src", sort=False)["w"].sum().rename("ow")
        m = group.merge(ow, on="src")
        return pa.table(
            {
                "node": pa.array(m.src, type=pa.string()),
                "dst": pa.array(m.dst, type=pa.string()),
                "w": pa.array(m.w.to_numpy(np.int64), type=pa.int64()),
                "ow": pa.array(m.ow.to_numpy(np.int64), type=pa.int64()),
                "r": pa.array(np.full(len(m), -1, dtype=np.int64), type=pa.int64()),
            }
        )

    def _coalesce(ds, n_rows: int):
        """Bound block count before re-materializing: map_groups emits
        ~one block per input block and union concatenates block lists,
        so without this the per-iteration sort input grows by
        O(N_BUCKETS) blocks every round (the dup_groups lesson).
        repartition without shuffle is a cheap split/coalesce, sized
        ~64k rows/block with a floor so tiny sessions stay parallel."""
        target = max(4, min(512, (n_rows + 65535) // 65536))
        return ds.repartition(target)

    # materialized ONCE (single pass — row count is already known from
    # the tier check, so the coalesce chains before the materialize),
    # reused every iteration
    edges_w = _coalesce(by_key(edges_ds, "src", attach_ow), n_edges).materialize()

    def node_partial(batch: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [np.asarray(batch.column("node")), np.asarray(batch.column("dst"))]
            )
        )
        return pa.table({"node": pa.array(u, type=pa.string())})

    def node_unique(group: pd.DataFrame) -> pa.Table:
        return pa.table(
            {"node": pa.array(group.node.drop_duplicates(), type=pa.string())}
        )

    # n_edges > EDGE_LOCAL_LIMIT >= 0 here, so the graph is non-empty
    # and n_nodes >= 1 (the empty case returned from tier 0 above)
    nodes = by_key(
        edges_w.map_batches(node_partial, batch_format="pyarrow"), "node", node_unique
    ).materialize()
    n_nodes = nodes.count()

    tele = (total * (damp_den - damp_num)) // (damp_den * n_nodes)
    r0 = total // n_nodes

    if n_nodes <= BROADCAST_LIMIT:
        return _pagerank_broadcast(
            edges_w, nodes, n_nodes, n_iter, tele, r0, damp_num, damp_den
        )

    def seed_rank(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "node": pa.array(batch.column("node"), type=pa.string()),
                "dst": pa.array([""] * n, type=pa.string()),
                "w": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
                "ow": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
                "r": pa.array(np.full(n, r0, dtype=np.int64), type=pa.int64()),
            }
        )

    ranks = _coalesce(
        nodes.map_batches(seed_rank, batch_format="pyarrow"), n_nodes
    ).materialize()

    def contribs(group: pd.DataFrame) -> pa.Table:
        rk = group[group.r >= 0][["node", "r"]].rename(columns={"r": "rank"})
        ed = group[group.r < 0]
        m = ed.merge(rk, on="node")
        if m.empty:
            return pa.table(
                {"node": pa.array([], type=pa.string()),
                 "insum": pa.array([], type=pa.int64()),
                 "is_node": pa.array([], type=pa.int8())}
            )
        c = (m["rank"].to_numpy(np.int64) // m.ow.to_numpy(np.int64)) * m.w.to_numpy(
            np.int64
        )
        part = (
            pd.DataFrame({"node": m.dst, "c": c})
            .groupby("node", sort=False)["c"]
            .sum()
        )
        return pa.table(
            {
                "node": pa.array(part.index, type=pa.string()),
                "insum": pa.array(part.to_numpy(np.int64), type=pa.int64()),
                "is_node": pa.array(np.zeros(len(part), dtype=np.int8), type=pa.int8()),
            }
        )

    def node_tag(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "node": pa.array(batch.column("node"), type=pa.string()),
                "insum": pa.array(np.zeros(n, dtype=np.int64), type=pa.int64()),
                "is_node": pa.array(np.ones(n, dtype=np.int8), type=pa.int8()),
            }
        )

    # static per-iteration union side is built ONCE
    node_tag_b = _coalesce(
        nodes.map_batches(node_tag, batch_format="pyarrow"), n_nodes
    ).materialize()

    def new_rank(group: pd.DataFrame) -> pa.Table:
        node_rows = group[group.is_node == 1]
        s = group[group.is_node == 0].groupby("node", sort=False)["insum"].sum()
        # reindex with fill_value stays int64 — Series.map + fillna
        # promotes to float64 when any node lacks contributions and
        # silently rounds in-sums above 2^53 (total is a parameter)
        insum = s.reindex(node_rows.node, fill_value=0).to_numpy(np.int64)
        r = tele + (damp_num * insum) // damp_den
        n = len(node_rows)
        return pa.table(
            {
                "node": pa.array(node_rows.node, type=pa.string()),
                "dst": pa.array([""] * n, type=pa.string()),
                "w": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
                "ow": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
                "r": pa.array(r.astype(np.int64), type=pa.int64()),
            }
        )

    for _ in range(n_iter):
        contrib = by_key([edges_w, ranks], "node", contribs)
        ranks = _coalesce(
            by_key([contrib, node_tag_b], "node", new_rank), n_nodes
        ).materialize()

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.array(batch.column("node"), type=pa.string()),
                "rank_nano": pa.array(batch.column("r"), type=pa.int64()),
            }
        )

    return ranks.map_batches(project, batch_format="pyarrow")
