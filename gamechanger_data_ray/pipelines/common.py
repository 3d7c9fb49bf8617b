"""Shared pipeline helpers: pruned reads, broadcast small-side joins,
partial (combiner) aggregation before the shuffle.

Scale stance: every read prunes columns at the parquet footer; every
groupby over a large input is preceded by a per-batch partial aggregate so
the all-to-all shuffle moves one row per (batch, key) instead of one per
event; small sides are broadcast via ``ray.put`` once and read per actor,
never re-shipped per batch and never shuffled.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def pool_size(frac: float = 0.5, minimum: int = 1) -> int:
    """Actor-pool size that leaves CPUs free for the read/write stages —
    a pool that reserves every CPU starves the readers and the pipeline
    livelocks (ray_guide.md 'Stateful stages'). ~frac of the cluster,
    always ≤ total-2."""
    total = int(ray.cluster_resources().get("CPU", 4))
    return max(minimum, min(total - 2, int(total * frac)))


def _stripped_schema(path: str) -> "pa.Schema":
    """File schema with key-value metadata removed — pyarrow 16's
    ``Schema.__hash__`` raises on metadata (it hashes the dict), which
    makes every downstream ``unify_schemas`` dedup fall back and spam
    'Failed to hash the schemas' from the workers. One cached footer
    read per file version — keyed on (path, mtime, size), so a file
    rewritten in place is read again; no data bytes."""
    st = os.stat(path)
    return _footer_schema(path, st.st_mtime_ns, st.st_size)


@functools.lru_cache(maxsize=256)
def _footer_schema(path: str, mtime_ns: int, size: int) -> "pa.Schema":
    import pyarrow.parquet as pq

    return pq.read_schema(path).remove_metadata()


def read(sf_dir: str, table: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Pruned parquet read of one testdata table (SURVEY.md §2.1 S1/S4).
    Passes the metadata-stripped file schema so block schemas stay
    hashable (see :func:`_stripped_schema`)."""
    path = os.path.join(sf_dir, f"{table}.parquet")
    schema = _stripped_schema(path)
    if columns is not None:  # the schema= arg must match the projection
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema)


def table_num_rows(sf_dir: str, table: str) -> int:
    """Exact row count from the parquet FOOTER metadata — a driver-side
    stat read, no Ray execution and no data bytes (a ``Dataset.count()``
    on a tiny table still pays ~1s of per-execution scheduling overhead,
    and at 100 TB the footer read is O(#files), not O(rows))."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(os.path.join(sf_dir, f"{table}.parquet")).metadata.num_rows


def read_arrow(sf_dir: str, table: str, columns: list[str] | None = None) -> pa.Table:
    """Driver-side Arrow read — ONLY for small dimension tables that will be
    broadcast (region/nation/supplier-sized), never the fact tables."""
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def broadcast(obj: Any) -> "ray.ObjectRef":
    """``ray.put`` once on the driver; stages ``ray.get`` it in ``__init__``
    (actor pool) or at first use — the J6/J7 broadcast-join pattern
    (``common/document_parser/lib/entities.py:18-25`` loads its lookup trie
    once per process; we load once per cluster + zero-copy per node)."""
    return ray.put(obj)


class BroadcastJoiner:
    """Actor-pool stage: left-join each batch against a broadcast pandas
    dimension table (reference analog: crawler_info dim lookup,
    ``common/document_parser/parsers/policy_analytics/parse.py:112-126``)."""

    def __init__(self, dim_ref, on: str, how: str = "inner"):
        self.dim: pd.DataFrame = ray.get(dim_ref)
        self.on = on
        self.how = how

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(self.dim, on=self.on, how=self.how)


def semi_filter(ds: ray.data.Dataset, column: str, keys_ref, keep: bool = True) -> ray.data.Dataset:
    """Semi/anti join by broadcast key set (J3/J5 alive-set pattern,
    ``gc_crawler_status_tracker.py:55-82``): keep rows whose ``column`` is
    (not) in the broadcast key set. No shuffle."""

    def fn(batch: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        mask = pc.is_in(batch[column], value_set=pa.array(keys))
        if not keep:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")


def partial_groupby_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    sums: dict[str, str],
    counts: str | None = None,
    driver_finish: bool = True,
) -> pd.DataFrame | ray.data.Dataset:
    """Combiner + final aggregate: per-batch pandas groupby-sum (one row per
    key per batch — the distributed heavy lifting), then a final sum over
    the partials. ``sums`` maps input column -> output name; ``counts``
    names a row-count output column.

    The shuffle/collect moves O(batches × distinct keys) partial rows, not
    O(rows). With ``driver_finish=True`` (default) the partials stream to
    the driver and finish in one pandas groupby — right whenever the key
    cardinality is bounded (Q1-style rollups, per-source counters): Ray's
    distributed Aggregate has seconds of fixed overhead that dwarfs a
    thousand-row finish. Set ``driver_finish=False`` for high-cardinality
    keys (e.g. per-doc aggregates over 10^9 keys) to keep the finish
    distributed (see :func:`routed_grouped_agg`).
    """
    sum_items = list(sums.items())

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        agg: dict[str, Any] = {}
        for src, out in sum_items:
            agg[out] = (src, "sum")
        if counts:
            agg[counts] = (keys[0], "size")
        g = batch.groupby(keys, as_index=False, sort=False).agg(**agg)
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    out_cols = [out for _, out in sum_items] + ([counts] if counts else [])
    if driver_finish:
        df = partials.to_pandas()
        if df.empty:
            return df
        return df.groupby(keys, as_index=False, sort=False)[out_cols].sum()
    return routed_grouped_agg(partials, keys, {c: "sum" for c in out_cols})


NUM_ROUTES = 256


def route_key(df: pd.DataFrame, keys: list[str], num_routes: int = NUM_ROUTES) -> pd.Series:
    """THE package route-hash convention: coarse shuffle key over one or
    more key columns — all rows of a key share a route, each route
    carries many keys, so a Ray ``groupby`` runs a few hundred
    vectorized tasks instead of one task per (possibly tiny) key group.
    Used by ``routed_grouped_agg`` and the day-salted windowed operators
    (``relational.py``); change route count / hash here, once."""
    h = pd.util.hash_pandas_object(df[keys], index=False)  # fixed hash key
    return (h % num_routes).astype("int64")


def routed_grouped_agg(
    partials: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, str],
    num_routes: int = NUM_ROUTES,
) -> ray.data.Dataset:
    """Distributed finish over partial-aggregate rows (``aggs`` maps
    column → "sum"/"min"/"max" — the mergeable aggregates), grouped by a
    coarse ROUTE key instead of the raw group key: all partials of one
    key share ``route = hash(key) % num_routes``, each route carries many
    keys, and the per-route finish is one vectorized pandas groupby.
    Scales to unbounded key cardinality (the shuffle hash-partitions
    partial rows into a constant number of groups) without Ray's per-row
    Aggregate accumulate overhead (seconds of fixed cost measured on tiny
    inputs) and without one map_groups call per key."""
    spec = {out: (out, how) for out, how in aggs.items()}

    def add_route(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_route"] = route_key(df, keys, num_routes)
        return df

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.drop(columns=["_route"])
            .groupby(keys, as_index=False, sort=False)
            .agg(**spec)
        )

    return (
        partials.map_batches(add_route, batch_format="pandas")
        .groupby("_route")
        .map_groups(finish, batch_format="pandas")
    )


def to_pandas_sorted(result, by: list[str]) -> pd.DataFrame:
    """Small-result materialization with deterministic order (tests only)."""
    if isinstance(result, ray.data.Dataset):
        df = result.to_pandas()
    elif isinstance(result, pa.Table):
        df = result.to_pandas()
    else:
        df = result
    return df.sort_values(by).reset_index(drop=True)
