"""One tiered plan for "sum a keyed int64 table over each doc's keys".

The curation scorers (unigram and bigram log-probs, Naive Bayes, DSIR)
all score a document as an integer sum of per-key values over the
document's keys (tokens or token pairs).  Each scorer supplies a count
pass, a row-local value formula and a final column map; ``keyed_sum``
owns the tier switch and both plans, so the two tiers give the same
answer by construction:

- **broadcast** (count table rows <= ``BROADCAST_LIMIT``): the table is
  collected once, turned into ``(key index, [V, k] int64 values)``,
  ``ray.put`` once and read once per worker process
  (``util.broadcast_get``); every doc batch is scored with one gather
  plus one offset-cumsum segment sum.
- **bucketed** (over the limit): the table never reaches the driver.
  Key rows (values computed per batch with the same formula) and the
  exploded key instances meet in crc32(key) buckets, tagged by an
  explicit row-kind column; per-doc partial sums then merge in
  ``doc_bucket`` buckets together with an all-docs side table, which
  carries pass-through columns and gives zero-key docs n = 0 and
  all-zero sums.

A key missing from the table raises on both tiers.

Callback contract (all run on workers, so this module ships by value):

- ``keys_of(batch) -> (keys, lens)``: the flat keys of a docs batch and
  the per-doc key counts (int64, one per row, in row order).
- ``totals(rows) -> pd.Series``: additive summary of count-table rows
  (column sums, row counts); the bucketed tier sums it over blocks.
- ``lp(rows, tot) -> int64 [n, k]``: per-row values, row-local given
  ``tot``.
- ``finish(docs, n, sums, tot) -> pa.Table``: the output columns from
  the docs' ``doc_id`` and ``carry`` columns, the per-doc key counts
  ``n`` and the ``[m, k]`` sums.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from rapidocr_ray.functions.hashing import crc_bucket
from rapidocr_ray.util import broadcast_get, stack_list_column

# count-table rows above which the bucketed tier runs; read at call
# time, so tests force a tier by monkeypatching this constant
BROADCAST_LIMIT = 2_000_000
N_BUCKETS = 64

# row kinds of the two tagged unions of the bucketed tier
KEY_ROW, INSTANCE_ROW = 0, 1  # key-bucketed attach
PARTIAL_ROW, DOC_ROW = 0, 1  # doc-bucketed merge


def doc_bucket(ids, n_buckets: int = N_BUCKETS) -> pa.Array:
    """Multiplicative doc_id -> bucket hash of the doc-keyed merges
    (uint64 wrap, so negative ids bucket like any other)."""
    ids = np.asarray(ids, dtype=np.int64).astype(np.uint64)
    return pa.array(
        (ids * np.uint64(2654435761) % np.uint64(2**32) % np.uint64(n_buckets)).astype(
            np.int64
        ),
        type=pa.int64(),
    )


def count_table(docs, partial, merge=None):
    """Materialized count table, one row per distinct key.
    ``partial(batch)`` returns a pa.Table with a string ``key`` column;
    its rows are crc32(key)-bucketed and merged per bucket by ``merge``
    (default: sum every other column by key) in one shuffle."""

    def bucketed(batch: pa.Table) -> pa.Table:
        t = partial(batch)
        return t.append_column("bucket", pa.array(crc_bucket(t["key"], N_BUCKETS)))

    return (
        docs.map_batches(bucketed, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(merge or _sum_by_key, batch_format="pyarrow")
        .materialize()
    )


def _sum_by_key(group: pa.Table) -> pa.Table:
    cols = [c for c in group.column_names if c not in ("key", "bucket")]
    agg = group.group_by("key").aggregate([(c, "sum") for c in cols])
    return pa.table({"key": agg["key"], **{c: agg[f"{c}_sum"] for c in cols}})


def keyed_sum(docs, keys_of, counts, lp, finish, totals=None, carry=()):
    """Score every doc of ``docs`` by summing ``lp`` values of its keys
    over the materialized count table ``counts``; the tier follows the
    table's row count (see the module docstring for the callbacks).
    Returns a Dataset of ``finish`` tables, one row per doc."""
    totals = totals or (lambda rows: pd.Series(dtype=np.int64))
    if counts.count() <= BROADCAST_LIMIT:
        return _broadcast(docs, keys_of, counts, lp, finish, totals)
    return _bucketed(docs, keys_of, counts, lp, finish, totals, carry)


def _positions(index: pd.Index, keys) -> np.ndarray:
    """Row of each key in ``index``; a key missing from the table
    raises instead of reading row -1."""
    pos = index.get_indexer(keys)
    if (pos < 0).any():
        missing = np.asarray(keys, dtype=object)[pos < 0]
        raise KeyError(
            f"{len(missing)} keys not in the count table, e.g. {missing[0]!r}"
        )
    return pos


def _sum_by(ids: np.ndarray, vals: np.ndarray):
    """(distinct ids, rows per id, [n_ids, k] column sums per id)."""
    uniq, inv, n = np.unique(ids, return_inverse=True, return_counts=True)
    if not len(ids):
        return uniq, n.astype(np.int64), np.zeros((0, vals.shape[1]), dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(n)[:-1]])
    sums = np.add.reduceat(vals[np.argsort(inv, kind="stable")], starts, axis=0)
    return uniq, n.astype(np.int64), sums.astype(np.int64)


def _broadcast(docs, keys_of, counts, lp, finish, totals):
    import ray

    blocks = [b for b in ray.get(counts.to_arrow_refs()) if b.num_rows]
    if blocks:
        rows = pa.concat_tables(blocks)
        tot = totals(rows)
        index = pd.Index(rows["key"].to_numpy(), dtype=object)
        vals = lp(rows, tot)
    else:  # no keys at all: every doc scores zero keys
        tot = pd.Series(dtype=np.int64)
        index = pd.Index([], dtype=object)
        vals = np.zeros((0, 1), dtype=np.int64)
    ref = ray.put((index, vals))

    def score(batch: pa.Table) -> pa.Table:
        idx, v = broadcast_get(ref)
        keys, lens = keys_of(batch)
        per = v[_positions(idx, keys)]
        cs = np.concatenate(
            [np.zeros((1, per.shape[1]), dtype=np.int64), np.cumsum(per, axis=0)]
        )
        ends = np.cumsum(lens)
        return finish(batch, lens, cs[ends] - cs[ends - lens], tot)

    return docs.map_batches(score, batch_format="pyarrow")


def _bucketed(docs, keys_of, counts, lp, finish, totals, carry):
    import ray

    # per-block totals; merge tasks may leave empty, schema-less blocks
    block_totals = ray.remote(
        lambda b: totals(b) if b.num_rows else pd.Series(dtype=np.int64)
    )
    parts = ray.get([block_totals.remote(b) for b in counts.to_arrow_refs()])
    tot = pd.concat(parts, axis=1).fillna(0).sum(axis=1).astype(np.int64)
    k = lp(counts.take_batch(1, batch_format="pyarrow"), tot).shape[1]
    vals_t = pa.list_(pa.int64(), k)
    schema = docs.schema().base_schema
    id_t = schema.field("doc_id").type
    carry_t = {c: schema.field(c).type for c in carry}

    def as_list(vals: np.ndarray) -> pa.Array:
        return pa.FixedSizeListArray.from_arrays(
            pa.array(vals.ravel(), type=pa.int64()), k
        )

    def key_rows(rows: pa.Table) -> pa.Table:
        n = rows.num_rows
        return pa.table(
            {
                "bucket": pa.array(crc_bucket(rows["key"], N_BUCKETS)),
                "kind": pa.array(np.full(n, KEY_ROW), type=pa.int8()),
                "key": rows["key"],
                "doc_id": pa.nulls(n, id_t),
                "vals": as_list(lp(rows, tot)),
            }
        )

    def instance_rows(batch: pa.Table) -> pa.Table:
        keys, lens = keys_of(batch)
        keys = pa.array(keys, type=pa.string())
        n = len(keys)
        return pa.table(
            {
                "bucket": pa.array(crc_bucket(keys, N_BUCKETS)),
                "kind": pa.array(np.full(n, INSTANCE_ROW), type=pa.int8()),
                "key": keys,
                "doc_id": pa.array(
                    np.repeat(np.asarray(batch["doc_id"]), lens), type=id_t
                ),
                "vals": pa.nulls(n, vals_t),
            }
        )

    def attach(group: pa.Table) -> pa.Table:
        kind = group["kind"]
        table = group.filter(pc.equal(kind, KEY_ROW))
        inst = group.filter(pc.equal(kind, INSTANCE_ROW))
        index = pd.Index(table["key"].to_numpy(), dtype=object)
        vals = stack_list_column(table["vals"], np.int64).reshape(-1, k)
        per = vals[_positions(index, inst["key"].to_numpy())]
        ids, n, sums = _sum_by(inst["doc_id"].to_numpy(), per)
        m = len(ids)
        return pa.table(
            {
                "dbucket": doc_bucket(ids),
                "kind": pa.array(np.full(m, PARTIAL_ROW), type=pa.int8()),
                "doc_id": pa.array(ids, type=id_t),
                "n": pa.array(n, type=pa.int64()),
                "vals": as_list(sums),
                **{c: pa.nulls(m, t) for c, t in carry_t.items()},
            }
        )

    def doc_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table(
            {
                "dbucket": doc_bucket(batch["doc_id"]),
                "kind": pa.array(np.full(m, DOC_ROW), type=pa.int8()),
                "doc_id": batch["doc_id"],
                "n": pa.array(np.zeros(m, dtype=np.int64)),
                "vals": pa.nulls(m, vals_t),
                **{c: batch[c] for c in carry},
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        kind = group["kind"]
        doc = group.filter(pc.equal(kind, DOC_ROW)).select(["doc_id", *carry])
        part = group.filter(pc.equal(kind, PARTIAL_ROW))
        nv = np.column_stack(
            [
                part["n"].to_numpy(),
                stack_list_column(part["vals"], np.int64).reshape(-1, k),
            ]
        )
        ids, _, agg = _sum_by(part["doc_id"].to_numpy(), nv)
        full = np.zeros((doc.num_rows, k + 1), dtype=np.int64)
        pos = pd.Index(ids).get_indexer(doc["doc_id"].to_numpy())
        full[pos >= 0] = agg[pos[pos >= 0]]
        return finish(doc, full[:, 0], full[:, 1:], tot)

    partials = (
        counts.map_batches(key_rows, batch_format="pyarrow")
        .union(docs.map_batches(instance_rows, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(attach, batch_format="pyarrow")
    )
    side = docs.select_columns(["doc_id", *carry]).map_batches(
        doc_rows, batch_format="pyarrow"
    )
    return partials.union(side).groupby("dbucket").map_groups(
        merge, batch_format="pyarrow"
    )
