"""Distributed joins, Ray-Data-first.

Two strategies (SURVEY.md §2.5; ray_guide.md "Joins and lookups"):

- broadcast join (small side): ``common.BroadcastJoiner`` / ``semi_filter``
  — the side is `ray.put` once, looked up per batch, NO shuffle.
- partitioned hash join (both sides large): add ``bucket = hash(key) % B``
  to both sides, tag the side, union, ``groupby(bucket)`` (ONE shuffle for
  both inputs), and pandas-merge within each bucket. Skewed hot keys can be
  salted into sub-buckets by raising B; bucket count B is the explicit
  partitioning knob a cluster sizes to.
"""

from __future__ import annotations

import weakref

import pandas as pd
import pyarrow as pa
import ray.data

from ..core.hashing import partition_ids
from ..core.reconcile import conform, unify_schemas

_SIDE = "_join_side"
_BUCKET = "_join_bucket"


_NATIVE_JOIN_TYPES = {"inner", "left_outer", "right_outer", "full_outer"}

# output schema of every live bucketed_hash_join Dataset, built on the
# driver with its plan: asking the Dataset instead would execute the whole
# upstream plan (sort included) just to learn it
_JOIN_SCHEMAS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    num_buckets: int = 64,
    how: str = "inner",
) -> ray.data.Dataset:
    """Partitioned hash join of two Datasets on one equi-key.

    Uses the native ``Dataset.join`` (hash-partitioned aggregators,
    Ray >= 2.46) when available; otherwise falls back to the portable
    bucketed implementation: both inputs bucketed by
    ``hash(on) % num_buckets``, co-shuffled in a single ``groupby(bucket)``,
    pandas merge per bucket. Non-key column names must be disjoint —
    project/rename before joining.
    """
    if hasattr(left, "join") and how in _NATIVE_JOIN_TYPES:
        # cap the hash-shuffle aggregator count at the cluster's CPU
        # count: each aggregator is an actor that needs a CPU slot, and
        # asking for more than exist DEADLOCKS the streaming executor
        # (verified: num_partitions=64 on a 4-cpu local session hangs
        # forever). On a real cluster num_buckets stays the knob.
        cpus = int(ray.cluster_resources().get("CPU", 4))
        parts = max(2, min(num_buckets, cpus))
        # repartition heals Ray's schema-less empty blocks (a filter that
        # empties a block drops its schema, which breaks the join's Acero
        # key resolution); metadata-level consolidation, not a shuffle
        left = left.repartition(parts)
        right = right.repartition(parts)
        return left.join(right, join_type=how, num_partitions=parts, on=(on,))
    return bucketed_hash_join(left, right, on, num_buckets, how)


BROADCAST_LIMIT_BYTES = 64 << 20  # what one ray.put can sanely pin per node


def adaptive_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    num_buckets: int = 64,
    how: str = "inner",
    broadcast_limit_bytes: int = BROADCAST_LIMIT_BYTES,
) -> ray.data.Dataset:
    """Size-adaptive equi-join (the AQE broadcast-join pattern): execute
    the (expected-smaller) right side once; if it lands under the BYTE
    limit (``size_bytes()`` of the materialized side — a row limit would
    let a few hundred wide rows blow the object store), ``ray.put`` it
    whole and merge inside ``map_batches`` of the left — zero shuffle;
    otherwise fall back to the partitioned hash join. Use when the right
    side's post-filter size is data-dependent (a fixed plan would either
    always shuffle or break at scale)."""
    if how not in ("inner", "left"):
        raise ValueError(f"adaptive_join supports inner/left, not {how!r}")
    right = right.materialize()
    if right.size_bytes() <= broadcast_limit_bytes:
        import ray as _ray

        dim_ref = _ray.put(right.to_pandas())

        def merge(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(_ray.get(dim_ref), on=on, how=how)

        return left.map_batches(merge, batch_format="pandas")
    return hash_join(left, right, on, num_buckets, how="inner" if how == "inner" else "left_outer")


def _arrow_schema(ds: ray.data.Dataset) -> pa.Schema:
    """The dataset's schema as a real ``pyarrow.Schema``. Arrow-block
    datasets expose it directly (``base_schema``); pandas-block datasets
    (``from_pandas`` without an intervening Arrow op) report numpy
    dtypes, which are mapped through ``pa.from_numpy_dtype`` — with
    ``object`` columns resolved from a one-row Arrow batch sample (the
    dtype alone can't distinguish string from list payloads). A
    :func:`bucketed_hash_join` output answers from the schema recorded
    when it was built, without executing anything."""
    known = _JOIN_SCHEMAS.get(ds)
    if known is not None:
        return known
    s = ds.schema()
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields, need_sample = [], False
    for n, t in zip(s.names, s.types):
        if isinstance(t, pa.DataType):
            fields.append(pa.field(n, t))
            continue
        try:
            fields.append(pa.field(n, pa.from_numpy_dtype(t)))
        except (pa.ArrowNotImplementedError, TypeError):
            fields.append(None)
            need_sample = True
    if need_sample:
        sample = next(iter(ds.iter_batches(batch_size=1, batch_format="pyarrow"))).schema
        fields = [f if f is not None else sample.field(i)
                  for i, f in enumerate(fields)]
    return pa.schema(fields)


def bucketed_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    num_buckets: int = 64,
    how: str = "inner",
) -> ray.data.Dataset:
    """Portable bucketed hash join (the explicit pattern the native join
    implements): ONE co-shuffle of both tagged sides, bucket-local merges.
    Kept as the fallback and as the skew-controllable variant (raise
    ``num_buckets`` / pre-salt the key to split hot buckets).

    ``how='left_semi'`` / ``'left_anti'`` keep (drop) left rows whose key
    exists on the right — the distributed J3/J5 filter when the key set
    is too large to broadcast (``common.semi_filter``'s scale path): the
    right side ships only its key column through the same single
    co-shuffle, and the output carries the left columns unchanged."""
    lschema, rschema = _arrow_schema(left), _arrow_schema(right)
    semi = how in ("left_semi", "left_anti")
    if semi:
        right = right.map_batches(
            lambda t: t.select([on]), batch_format="pyarrow"
        )
        rschema = pa.schema([rschema.field(on)])
    lcols, rcols = list(lschema.names), list(rschema.names)
    overlap = (set(lcols) & set(rcols)) - {on}
    if overlap:
        raise ValueError(f"rename overlapping non-key columns before join: {overlap}")
    unified = unify_schemas(lschema, rschema)
    import base64

    uni_b64 = base64.b64encode(unified.serialize().to_pybytes()).decode()

    def prep(side: int):
        def add(batch: pa.Table) -> pa.Table:
            target = pa.ipc.read_schema(pa.BufferReader(base64.b64decode(uni_b64)))
            b = partition_ids(batch[on], num_buckets)
            batch = conform(batch, target)
            batch = batch.append_column(_BUCKET, b)
            return batch.append_column(_SIDE, pa.array([side] * batch.num_rows, pa.int8()))

        return add

    l = left.map_batches(prep(0), batch_format="pyarrow")
    r = right.map_batches(prep(1), batch_format="pyarrow")

    # pandas merge names differ from Dataset.join names (ADVICE: a
    # left_outer fallback used to reach pandas verbatim and raise)
    pandas_how = {"left_outer": "left", "right_outer": "right",
                  "full_outer": "outer"}.get(how, how)
    out_schema = pa.schema(
        [unified.field(unified.get_field_index(c)) for c in lcols]
        + [unified.field(unified.get_field_index(c)) for c in rcols if c != on]
    )
    if semi:
        out_schema = pa.schema(
            [unified.field(unified.get_field_index(c)) for c in lcols]
        )
    out_b64 = base64.b64encode(out_schema.serialize().to_pybytes()).decode()

    def join_bucket(group: pa.Table) -> pa.Table:
        # split sides while still Arrow: the tagged union makes each side's
        # columns null on the other side's rows, and a null-bearing int
        # column turns float in a whole-group pandas conversion — filtering
        # first keeps each side's original dtypes intact. The output is an
        # ARROW table on the explicit unified schema: emitting pandas here
        # lets empty/merged blocks drift to object/float dtypes and
        # poisons every downstream stage of a chained join.
        import pyarrow.compute as _pc

        target = pa.ipc.read_schema(pa.BufferReader(base64.b64decode(out_b64)))
        side = group[_SIDE]
        lg = group.filter(_pc.equal(side, 0)).select(lcols).to_pandas()
        if semi:
            # membership filter, not a merge: right keys never multiply
            # left rows, left columns pass through untouched
            keys = group.filter(_pc.equal(side, 1))[on]
            mask = _pc.is_in(
                pa.Array.from_pandas(lg[on]),
                value_set=keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys,
            ).to_numpy(zero_copy_only=False)
            m = lg[mask] if how == "left_semi" else lg[~mask]
        else:
            rg = group.filter(_pc.equal(side, 1)).select(rcols).to_pandas()
            m = lg.merge(rg, on=on, how=pandas_how)
        cols = [pa.array(m[f.name], type=f.type, from_pandas=True) for f in target]
        return pa.Table.from_arrays(cols, schema=target)

    out = l.union(r).groupby(_BUCKET).map_groups(join_bucket, batch_format="pyarrow")
    _JOIN_SCHEMAS[out] = out_schema
    return out
