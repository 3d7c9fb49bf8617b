"""Incrementally-maintained equi-join view between two CDC tables.

The missing piece between single-table materialized views
(``engine/views.py``) and ad-hoc dataset joins (``pipelines/joins.py``):
a **stream-stream join** kept current as BOTH sides keep changing. The
reference keeps its join-shaped views fresh by re-running SQL views over
the whole orchestration DB on every ingest
(``dataPipelines/gc_db_utils/orch/sql/create_views.sql:16-39`` — the
latest-version join is recomputed from scratch each query); at 10^10
rows that is a full-table join per refresh. Here the join is maintained
incrementally with NO shuffle at refresh time:

- Both inputs are tables maintained by ``engine.cdc`` with the SAME key
  column and the SAME pinned ``num_partitions`` — so they are
  co-partitioned by the identical key hash and the equi-join on that key
  decomposes into P independent partition-local joins. The all-to-all
  exchange happened once, amortized inside the CDC sink, not per refresh.
- The view manifest remembers, per partition, the exact source file set
  (base + merge-on-read deltas of each side) it was built from. A
  refresh re-joins ONLY partitions whose source file set changed — an
  epoch touching 7 of 10k partitions re-joins 7 partition pairs, each a
  local Arrow hash join, and carries the other 9,993 entries forward.
- Commit is the same fenced manifest swap as the base tables: readers
  see the old view atomically replaced by the new one; a crashed refresh
  leaves invisible debris that ``vacuum`` sweeps.

Scale notes (100 TB): refresh cost is O(changed partitions) reads of
both sides' changed partitions + O(P) driver-side manifest rows. The
co-partitioning requirement is checked, not assumed — mismatched
``num_partitions`` raises instead of silently mis-joining.
"""

from __future__ import annotations

import os
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..core.schemas import KEY_COLUMN
from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs
from .cdc import _load_state

_PA_JOIN_TYPE = {"inner": "inner", "left_outer": "left outer"}


def _side_sig(entry: dict[str, Any]) -> str:
    """Content signature of one side's partition state: the ordered file
    set (epoch/rev-stamped names — a rewrite, delta commit or compaction
    always changes it; an untouched partition never does)."""
    return "|".join(mf.entry_rels(entry))


def _join_sig(on: str, how: str, suffixes: tuple[str, str],
              columns: tuple | None) -> str:
    return f"on={on};how={how};suffixes={suffixes};columns={columns}"


def _prep_side(
    table: pa.Table | None, schema: pa.Schema, overlap: list[str], suffix: str
) -> pa.Table:
    """Resolved partition state → join input: bookkeeping column dropped,
    overlapping payload columns suffixed."""
    if table is None:
        table = schema.empty_table()
    if "op" in table.schema.names:
        table = table.drop_columns(["op"])
    if overlap:
        table = table.rename_columns(
            [c + suffix if c in overlap else c for c in table.schema.names]
        )
    return table


def _make_partition_joiner(
    view_dir: str,
    left_dir: str,
    right_dir: str,
    lschema_b64: str,
    rschema_b64: str,
    on: str,
    how: str,
    suffixes: tuple[str, str],
    epoch: int,
    fs: StorageAdapter,
):
    lschema = mf.schema_from_b64(lschema_b64)
    rschema = mf.schema_from_b64(rschema_b64)
    overlap = [c for c in lschema.names
               if c in set(rschema.names) and c != on and c != "op"]

    def join_part(batch: pa.Table) -> pa.Table:
        import numpy as np

        rows_out = []
        for item in batch.to_pylist():
            part = int(item["part"])
            lt = _prep_side(
                _load_state(left_dir, list(item["left_rels"]), lschema, fs),
                lschema, overlap, suffixes[0],
            )
            rt = _prep_side(
                _load_state(right_dir, list(item["right_rels"]), rschema, fs),
                rschema, overlap, suffixes[1],
            )
            # Acero can't join tables with nested non-key columns (the
            # tokens payload is list<int32>) — join key + row-index
            # projections instead, then take() the payloads through the
            # matched index pairs (null right index on an outer miss
            # takes as null, which is exactly the outer-join fill).
            li = pa.table({on: lt[on],
                           "__li": np.arange(lt.num_rows, dtype=np.int64)})
            ri = pa.table({on: rt[on],
                           "__ri": np.arange(rt.num_rows, dtype=np.int64)})
            idx = li.join(ri, keys=on, join_type=_PA_JOIN_TYPE[how])
            if idx.num_rows:
                idx = idx.take(pc.sort_indices(
                    idx, sort_keys=[(on, "ascending"), ("__li", "ascending"),
                                    ("__ri", "ascending")]))
            cols: dict[str, Any] = {}
            for name in lt.schema.names:
                cols[name] = (idx[on] if name == on
                              else pc.take(lt[name], idx["__li"]))
            for name in rt.schema.names:
                if name != on:
                    cols[name] = pc.take(rt[name], idx["__ri"])
            joined = pa.table(cols)
            rel = os.path.join(f"part={part:05d}", f"join-e{epoch:06d}.parquet")
            out_abs = os.path.join(view_dir, rel)
            if joined.num_rows:
                fs.makedirs(os.path.dirname(out_abs))
                fs.write_parquet_atomic(joined, out_abs)
            rows_out.append({"part": part, "file": rel if joined.num_rows else "",
                             "rows": joined.num_rows, "src_sig": item["src_sig"]})
        return pa.Table.from_pylist(
            rows_out,
            schema=pa.schema([("part", pa.int64()), ("file", pa.string()),
                              ("rows", pa.int64()), ("src_sig", pa.string())]),
        )

    return join_part


def refresh_join(
    view_dir: str,
    left_dir: str,
    right_dir: str,
    on: str = KEY_COLUMN,
    how: str = "inner",
    suffixes: tuple[str, str] = ("_l", "_r"),
    fs: StorageAdapter | None = None,
) -> mf.TableManifest | None:
    """Bring the join view up to both sides' committed epochs. Returns the
    committed view manifest, or None if already current (or either side
    has no committed state yet).

    Only partitions whose source file set changed since the last refresh
    are re-joined; everything else is carried forward by manifest entry.
    The view's epoch is ``left.epoch + right.epoch`` — monotone in either
    side's progress, so the manifest fencing that protects the base
    tables protects the view too (a racing refresh of an older state
    loses the swap).
    """
    if how not in _PA_JOIN_TYPE:
        raise ValueError(f"how must be one of {sorted(_PA_JOIN_TYPE)}, got {how!r}")
    fs = default_fs(fs)
    left = mf.load_current(left_dir, fs)
    right = mf.load_current(right_dir, fs)
    if left is None or right is None:
        return None
    if left.num_partitions != right.num_partitions:
        raise ValueError(
            "join view requires co-partitioned inputs: "
            f"left num_partitions={left.num_partitions} != "
            f"right num_partitions={right.num_partitions} "
            "(repartition_table one side first)"
        )
    epoch = left.epoch + right.epoch
    sig = _join_sig(on, how, suffixes, None)
    cur = mf.load_current(view_dir, fs)
    carry: dict[str, Any] = {}
    old: dict[str, Any] = {}
    if cur is not None:
        if cur.epoch_counters.get("join_sig") != sig:
            raise ValueError(
                "join definition changed since this view_dir was built; "
                "build the new definition into a fresh view_dir"
            )
        if cur.epoch >= epoch:
            return None
        old = dict(cur.partitions)

    work = []
    parts = set(left.partitions) | set(right.partitions)
    for k in sorted(parts, key=int):
        le = left.partitions.get(k, {})
        re_ = right.partitions.get(k, {})
        src_sig = _side_sig(le) + "||" + _side_sig(re_)
        prev = old.get(k)
        if prev is not None and prev.get("src_sig") == src_sig:
            carry[k] = prev  # untouched on both sides — no work, no read
            continue
        if how == "inner" and (not _side_sig(le) or not _side_sig(re_)):
            continue  # one side empty: inner join of this partition is empty
        if how == "left_outer" and not _side_sig(le):
            continue
        work.append({
            "part": int(k),
            "left_rels": mf.entry_rels(le),
            "right_rels": mf.entry_rels(re_),
            "src_sig": src_sig,
        })

    counters: list[dict] = []
    if work:
        counters = (
            ray.data.from_items(work)
            .map_batches(
                _make_partition_joiner(
                    view_dir, left_dir, right_dir,
                    left.schema_b64, right.schema_b64,
                    on, how, suffixes, epoch, fs,
                ),
                batch_format="pyarrow",
                retry_exceptions=True,
                max_retries=4,
            )
            .take_all()  # O(changed partitions) rows — tiny
        )

    partitions = dict(carry)
    for row in counters:
        if int(row["rows"]):
            partitions[str(row["part"])] = {
                "file": row["file"], "rows": int(row["rows"]),
                "src_sig": row["src_sig"],
            }
        else:
            partitions.pop(str(row["part"]), None)

    lschema = mf.schema_from_b64(left.schema_b64)
    rschema = mf.schema_from_b64(right.schema_b64)
    overlap = [c for c in lschema.names
               if c in set(rschema.names) and c != on and c != "op"]
    out_fields = [f for f in lschema if f.name != "op"]
    out_fields = [pa.field(f.name + suffixes[0], f.type)
                  if f.name in overlap else f for f in out_fields]
    out_fields += [pa.field(f.name + suffixes[1], f.type)
                   if f.name in overlap else f
                   for f in rschema if f.name not in ("op", on)]
    manifest = mf.TableManifest(
        epoch=epoch,
        schema_b64=mf.schema_to_b64(pa.schema(out_fields)),
        partitions=partitions,
        epoch_counters={
            "join_sig": sig,
            "left_epoch": left.epoch,
            "right_epoch": right.epoch,
            "mode": "incremental" if cur is not None else "full",
            "dirty_partitions": len(work),
        },
        totals={"rows": sum(int(p["rows"]) for p in partitions.values())},
        num_partitions=left.num_partitions,
    )
    if not mf.commit(view_dir, manifest, fs):
        return None  # a racing refresher landed this (or a later) state first
    return manifest


def read_join_view(view_dir: str, fs: StorageAdapter | None = None) -> ray.data.Dataset:
    """The committed join view as a streaming Dataset."""
    from .views import read_view

    return read_view(view_dir, fs)
