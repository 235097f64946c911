"""One keyed shuffle and one tiered plan for keyed sums.

``by_key(inputs, key, fn)`` is the engine's one distributed keyed
operator (a co-hash ``groupby(key).map_groups(fn)``): every bucketed
join, merge and dedup in the registry and the stages goes through it.
The helper adds a bucket column to each input inside a map that fuses
into that input's last map, unions the inputs, groups on the bucket
and runs ``fn`` on each group without the bucket column.  It owns:

- **the hash**: integer and timestamp keys use the multiplicative
  ``(k * 2654435761 mod 2**32) mod N_BUCKETS`` with a uint64 wrap, so
  negative ids and ids above 2**32 bucket like any other; string keys
  use pandas ``hash_array`` (a fixed-key siphash, vectorized and
  stable across processes).  Inputs keyed on the same column type
  co-locate, so a tagged union is a join.
- **the bucket count**: the module constant ``N_BUCKETS``, read at call
  time (tests monkeypatch it, as they do ``BROADCAST_LIMIT``).

Contract: ``fn``'s output on a group equals the union of its outputs
on each key's rows, so no result depends on which keys share a bucket
or on ``N_BUCKETS``.  ``fn`` groups or merges by the key itself.  A
per-bucket top-k prune (``top_terms_per_lang``, ``bpe_merge_pairs``)
keeps a superset of what its final reduce needs under any split of the
keys, so its result does not depend on the buckets either.  A plan
whose result needs particular keys together (one group for a rollup,
hour ranges, hash-order cells, packing shards) groups on its own
column and does not use ``by_key``.

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
  exploded key instances meet by key in ``by_key``, tagged by an
  explicit row-kind column; per-doc partial sums then merge by
  ``doc_id`` together with an all-docs side table, which carries
  pass-through columns and gives zero-key docs n = 0 and all-zero sums.

A key missing from the table raises on both tiers.

Callback contract (all run on workers, so this module can ship by value):

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

from rapidocr_ray.util import broadcast_get, ensure_worker_importable, stack_list_column

# count-table rows above which the bucketed tier runs; read at call
# time, so tests force a tier by monkeypatching this constant
BROADCAST_LIMIT = 2_000_000
# shuffle buckets of ``by_key``; read at call time, like BROADCAST_LIMIT
N_BUCKETS = 64

# row kinds of the two tagged unions of the bucketed tier
KEY_ROW, INSTANCE_ROW = 0, 1  # key-keyed attach
PARTIAL_ROW, DOC_ROW = 0, 1  # doc-keyed merge

_BUCKET = "__bucket"
_PHI = np.uint64(2654435761)


def key_bucket(col, n_buckets: int) -> np.ndarray:
    """Bucket of each key of an Arrow column (int64 numpy): the one
    shuffle-key hash of ``by_key``.  Nulls bucket as 0 / ""."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        keys = col.fill_null("").to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(keys.astype(object))
    else:
        keys = col.fill_null(0).to_numpy(zero_copy_only=False)
        if keys.dtype.kind in "mM":
            keys = keys.view(np.int64)
        h = keys.astype(np.int64).astype(np.uint64) * _PHI % np.uint64(2**32)
    return (h % np.uint64(n_buckets)).astype(np.int64)


def by_key(inputs, key: str, fn, batch_format: str = "pandas"):
    """Run ``fn`` on the rows of ``inputs`` (one Dataset or a list of
    them) grouped by hash of their ``key`` column: one shuffle, every
    key's rows from every input in one group.  ``fn`` sees each group
    (in ``batch_format``) without the bucket column; see the module
    docstring for the contract."""
    ensure_worker_importable()
    n_buckets = N_BUCKETS

    def keyed(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            _BUCKET, pa.array(key_bucket(batch[key], n_buckets), type=pa.int64())
        )

    if not isinstance(inputs, (list, tuple)):
        inputs = [inputs]
    sides = [ds.map_batches(keyed, batch_format="pyarrow") for ds in inputs]
    both = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]

    def run(group):
        if batch_format == "pandas":
            del group[_BUCKET]  # in place: drop() would copy every column
            return fn(group)
        return fn(group.drop_columns([_BUCKET]))

    run.__name__ = getattr(fn, "__name__", run.__name__)  # operator name in stats
    return both.groupby(_BUCKET).map_groups(run, batch_format=batch_format)


def count_table(docs, partial, merge=None):
    """Materialized count table, one row per distinct key.
    ``partial(batch)`` returns a pa.Table with a string ``key`` column;
    its rows merge by key (``by_key``) with ``merge`` (default: sum
    every other column by key) in one shuffle."""
    return by_key(
        docs.map_batches(partial, batch_format="pyarrow"),
        "key",
        merge or _sum_by_key,
        batch_format="pyarrow",
    ).materialize()


def _sum_by_key(group: pa.Table) -> pa.Table:
    cols = [c for c in group.column_names if c != "key"]
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

    partials = by_key(
        [
            counts.map_batches(key_rows, batch_format="pyarrow"),
            docs.map_batches(instance_rows, batch_format="pyarrow"),
        ],
        "key",
        attach,
        batch_format="pyarrow",
    )
    side = docs.select_columns(["doc_id", *carry]).map_batches(
        doc_rows, batch_format="pyarrow"
    )
    return by_key([partials, side], "doc_id", merge, batch_format="pyarrow")
