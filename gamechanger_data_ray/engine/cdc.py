"""The CDC replay engine — changelog tail → lake upsert, Ray-Data-first.

Pipeline per epoch batch (all streaming, zero-copy Arrow batches):

    read_parquet(epoch files)
      → map_batches(normalize)        # conform to unified schema, partial
                                      # LWW reduce (combiner), add part col
      → EXCHANGE on hash(doc_id)%P    # the engine's ONE shuffle (staged)
      → merge per partition           # one plain task each: read current
                                      # state, LWW merge, write deterministic
                                      # data-eEEEEEE.parquet, return one
                                      # entry row (partition_entry)
      → driver fold                   # rows fold into the manifest
                                      # (fold_entry), committed atomically

The exchange is staged: the combiner output is written as per-partition
Parquet to an ephemeral staging dir, then P merge tasks each read exactly
their partition's staged files — a disk-mediated hash shuffle
(Spark-style shuffle files on the shared store). It scales with per-node
disk bandwidth, sidesteps the single plasma-store bottleneck, and makes a
crashed exchange trivially restartable. Two inputs feed it: a changelog
FILE list (one fused read+normalize+partition+write task per file, see
:func:`make_file_stager`) or a change-event Dataset
(``write_parquet(partition_cols=[_part])``).

Scale properties:
- the combiner collapses duplicate/hot-key events per batch BEFORE the
  shuffle (LWW is associative), so zipf-skewed keys ship at most one row
  per key per input block — the salted-split answer to hot keys;
- only partitions touched by the epoch are rewritten (partition pruning via
  manifest carry-forward);
- state is read inside the merge task (partition-local I/O), never
  broadcast or materialized on the driver;
- the entry rows are O(touched P) — the only thing the driver collects.

Reference lifecycle analog: ``gci pipelines core ingest checkpoint``
(``dataPipelines/gc_ingest/pipelines/core/cli.py:77-120``): tail
timestamped prefixes newer than checkpoint → transform → upsert → publish,
with at-least-once tailing + idempotent sink = exactly-once observable.
"""

from __future__ import annotations

import json
import os
import time as _time_mod
import uuid
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..core import changelog as cl
from ..core.hashing import partition_ids, state_content_sig
from ..core.merge import (
    EVENTS_REP,
    TOMBS_REP,
    collapse_deltas,
    lww_reduce_weighted,
    merge_partition,
)
from ..core.reconcile import (
    conform,
    rename_schema,
    rename_table,
    unify_all,
    unify_schemas,
)
from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs
from .tasks import run_tasks
from .telemetry import merge_sketch_json, sketch_stats_json

PART_COLUMN = "_part"
COUNTER_KEYS = ("events_in", "upserts", "deletes", "tombstones", "rows_out", "watermark_lsn")


def _epoch_files(changelog_dir: str, epoch: int, fs: StorageAdapter | None = None) -> list[str]:
    return default_fs(fs).list_files(cl.epoch_dir(changelog_dir, epoch), suffix=".parquet")


def _partition_path(epoch: int, part: int) -> str:
    return os.path.join(f"part={part:05d}", f"data-e{epoch:06d}.parquet")


def _key_range(state: pa.Table) -> tuple[str, str]:
    """Key zone map of a resolved partition: true min/max, independent of
    row order (a clustered rewrite is not key-sorted). "" means "no map"
    (read routing never prunes on it). Only string keys get a zone map:
    the stored bounds compare lexicographically, which matches sort order
    for strings only — stringified numbers would wrongly skip partitions."""
    if state.num_rows == 0 or not pa.types.is_string(state.schema.field("doc_id").type):
        return "", ""
    mm = pc.min_max(state["doc_id"]).as_py()
    return str(mm["min"]), str(mm["max"])


# columns that never get payload zone maps: engine bookkeeping + the key
# (the key has its own sorted-file zone map, key_min/key_max; version_hash
# is a content hash — min/max over it can never prune and only bloats
# manifests and drift reports)
_STATS_EXCLUDE = {"op", "lsn", "seq", "doc_id", "version_hash",
                  PART_COLUMN, EVENTS_REP, TOMBS_REP}


def _col_stats_json(t: pa.Table) -> str:
    """Payload-column zone maps for a freshly written partition file:
    ``{col: [min, max]}`` over scalar payload columns (ints, floats,
    strings, bools — list/struct payloads carry no useful ordering),
    JSON-encoded so it rides the one-row counters table back through the
    exchange. Nulls are skipped; an all-null (or NaN-tainted float)
    column is omitted — absent bounds mean "unknown", never "empty", so
    readers simply don't prune on them. This is the Iceberg/Delta
    data-skipping idea at the hash-partition grain: stats live in the
    manifest, so a bounded scan prunes whole partitions from the ONE
    driver-side manifest read, before any parquet footer is opened —
    at P=10k that's 10k file opens saved per pruned predicate scan."""
    import math

    out: dict[str, list] = {}
    for field in t.schema:
        if field.name in _STATS_EXCLUDE:
            continue
        ty = field.type
        if not (pa.types.is_integer(ty) or pa.types.is_floating(ty)
                or pa.types.is_boolean(ty) or pa.types.is_string(ty)
                or pa.types.is_large_string(ty)):
            continue
        mm = pc.min_max(t[field.name]).as_py()
        mn, mx = mm["min"], mm["max"]
        if mn is None or mx is None:
            continue
        if isinstance(mn, float) and (math.isnan(mn) or math.isnan(mx)):
            continue
        out[field.name] = [mn, mx]
    return json.dumps(out)


def _widen_col_stats(prev: dict, new: dict) -> dict:
    """Stats fold for a merge-on-read delta commit: the resolved state is
    (base ∪ delta), so sound bounds are the UNION of the two — kept only
    for columns the previous bounds already covered (a column the base
    never had bounds for stays unbounded). Updates and deletes can only
    leave the union too WIDE, never too narrow — wide is sound for
    pruning; the next rewrite or compaction re-tightens from the real
    resolved rows."""
    out: dict[str, list] = {}
    for c, (mn, mx) in prev.items():
        if c in new:
            nmn, nmx = new[c]
            try:
                out[c] = [min(mn, nmn), max(mx, nmx)]
            except TypeError:  # retype mid-stream: bound no longer comparable
                continue
        else:  # delta had only nulls for c — base bounds still cover all
            out[c] = [mn, mx]
    return out


def _stats_overlap(stats: dict | None, bounds: dict) -> bool:
    """May this partition hold rows inside ``bounds``? Missing stats (or a
    missing column, or a non-comparable type) always answer yes — pruning
    is an advisory shortcut, never a correctness dependency."""
    if not stats:
        return True
    for c, (lo, hi) in bounds.items():
        s = stats.get(c)
        if s is None:
            continue
        mn, mx = s
        try:
            if (lo is not None and mx < lo) or (hi is not None and mn > hi):
                return False
        except TypeError:
            continue
    return True


def _bounds_expr(bounds: dict):
    """``{col: (lo, hi)}`` (either side None = unbounded) → a pyarrow
    dataset expression, ANDed into the scan so the row-level result is
    exact whatever the partition-level pruning missed. NULLs in a bounded
    column are excluded, matching SQL comparison semantics."""
    import pyarrow.dataset as pads

    expr = None
    for c, (lo, hi) in bounds.items():
        parts = []
        if lo is not None:
            parts.append(pads.field(c) >= lo)
        if hi is not None:
            parts.append(pads.field(c) <= hi)
        for e in parts:
            expr = e if expr is None else expr & e
    return expr


def _delta_path(epoch: int, part: int) -> str:
    return os.path.join(f"part={part:05d}", f"delta-e{epoch:06d}.parquet")


# skinny columns a delta commit reads from existing state to keep lineage
# counters exact without touching the payload
_INDEX_COLUMNS = ["op", "lsn", "seq", "doc_id"]


def _load_state(
    table_dir: str, rels: list[str], schema: pa.Schema,
    fs: StorageAdapter, columns: list[str] | None = None,
    sort_by_key: bool = True,
) -> pa.Table | None:
    """A partition's resolved current state — the one partition resolver
    of every committed-state read: base file + any merge-on-read deltas,
    conformed to ``schema`` (projected to ``columns``; a column an older
    file lacks comes back null), LWW-collapsed with tombstones dropped.
    ``sort_by_key=False`` skips the key sort of a multi-file collapse for
    callers that re-order the rows anyway."""
    if not rels:
        return None
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    tabs = [conform(fs.read_parquet(os.path.join(table_dir, r), columns=columns), schema)
            for r in rels]
    return collapse_deltas(tabs, sort_by_key=sort_by_key)


BLOOM_SUFFIX = ".bloom"


def _write_bloom_sidecar(merged: pa.Table, base_abs: str, fs: StorageAdapter) -> None:
    """Per-partition key Bloom sidecar (``<base>.parquet.bloom``): lets a
    point lookup prove a key DEFINITELY absent from one tiny fixed-size
    read instead of opening the parquet footer — at P=10k partitions the
    manifest stays small because the filter lives next to its base file,
    not in the manifest. Written after (and keyed to) the base: a reader
    that sees the new base but a stale/missing sidecar only loses the
    shortcut, never correctness (no false negatives; sidecar absence =
    no pruning). Derived data — rewrite overwrites it with its base."""
    from ..core.bloom import sized_for
    from ..core.hashing import fnv1a64

    bloom = sized_for(max(1, merged.num_rows))
    if merged.num_rows:
        bloom.add_many(fnv1a64(pc.cast(merged["doc_id"], pa.string())))
    fs.atomic_write_bytes(base_abs + BLOOM_SUFFIX, bloom.to_bytes())


def _stats_fields(rows: pa.Table) -> dict:
    """Payload zone maps + KLL sketches of ``rows``, JSON-encoded strings
    in the entry row a plain task per partition returns to the driver."""
    return {"col_stats": _col_stats_json(rows), "col_sketch": sketch_stats_json(rows)}


def _state_fields(state: pa.Table) -> dict:
    """Row count, key zone map and logical identity (``content_sig``:
    resolved, layout-independent) of a partition's resolved state."""
    kmin, kmax = _key_range(state)
    return {"rows": state.num_rows, "key_min": kmin, "key_max": kmax,
            "content_sig": state_content_sig(state)}


def partition_entry(
    merged: pa.Table, table_dir: str, rel: str, fs: StorageAdapter,
    row_group_size: int | None = None,
) -> dict:
    """Worker side of every base-file write (copy-on-write merge, compact,
    cluster, repair): publish ``merged`` — one partition's resolved rows —
    as ``rel`` plus its Bloom sidecar, and return the entry row the
    driver folds with :func:`fold_entry`. Everything derived from the
    rows is computed here, from the rows just written, so the stats are
    exact."""
    out_abs = os.path.join(table_dir, rel)
    fs.makedirs(os.path.dirname(out_abs))
    fs.write_parquet_atomic(merged, out_abs, row_group_size=row_group_size)
    _write_bloom_sidecar(merged, out_abs, fs)
    return {"file": rel, "delta": "", **_state_fields(merged), **_stats_fields(merged)}


def fold_entry(prev: dict | None, entry: dict) -> dict:
    """Driver side: fold one worker entry row into a partition's manifest
    entry. ``prev`` is the committed entry (None or {} for a partition
    the table has never held). What ``entry`` carries picks the rule:

    - ``delta`` (merge-on-read): the base stays put and the delta is
      appended. rows, key range and ``content_sig`` describe the resolved
      state (the worker merged against a skinny state index); the
      watermark is the max of both. Stats and sketch cover the delta body
      only, so on an existing entry the zone maps widen
      (:func:`_widen_col_stats`; bounds stay absent if ``prev`` had none)
      and the sketch folds (``merge_sketch_json``), marked
      ``col_sketch_mor`` until the next physical rewrite. A first-ever
      delta IS the whole state, so it is exact.
    - ``file`` with ``watermark_lsn`` (copy-on-write epoch commit): the
      new base resolves and supersedes any deltas; stats and sketch are
      exact.
    - ``file`` without ``watermark_lsn`` (same-epoch revision: compact,
      cluster, repair): as above, keeping ``prev``'s watermark.
    - neither (restamp): only stats and sketch are replaced, exact."""
    prev = prev or {}
    stats = json.loads(entry["col_stats"]) if entry["col_stats"] else {}
    sketch = json.loads(entry["col_sketch"]) if entry["col_sketch"] else {}
    if not (entry.get("file") or entry.get("delta")):
        out = {**prev, "col_stats": stats, "col_sketch": sketch}
        out.pop("col_sketch_mor", None)
        return out
    if entry.get("delta"):
        out = {"file": prev.get("file"),
               "rows": int(entry["rows"]),
               "watermark_lsn": max(int(prev.get("watermark_lsn", 0)),
                                    int(entry["watermark_lsn"])),
               "deltas": [*prev.get("deltas", ()), entry["delta"]]}
    else:
        out = {"file": entry["file"],
               "rows": int(entry["rows"]),
               "watermark_lsn": int(entry.get("watermark_lsn",
                                              prev.get("watermark_lsn", 0)))}
    out |= {"key_min": entry["key_min"], "key_max": entry["key_max"],
            "content_sig": entry["content_sig"]}
    if not (entry.get("delta") and prev):
        out |= {"col_stats": stats, "col_sketch": sketch}
        return out
    if prev.get("col_stats") is not None:
        out["col_stats"] = _widen_col_stats(prev["col_stats"], stats)
    if prev.get("col_sketch") is not None:
        # approximate until the next physical rewrite (over-weights
        # overwritten rows, like the widened bounds)
        out["col_sketch"] = merge_sketch_json(prev["col_sketch"], sketch)
        out["col_sketch_mor"] = True
    return out


def _merge_one_partition(
    part: int,
    events: pa.Table,
    state_rels: list[str],
    table_dir: str,
    epoch: int,
    schema: pa.Schema,
    policy: str,
    fs: StorageAdapter,
    update_mode: str = "replace",
) -> dict:
    """Apply one partition's combined events under the given merge policy;
    returns its entry row: ``part``, the :func:`fold_entry` fields and the
    lineage counters (``COUNTER_KEYS`` plus ``cell_writes``, JSON).

    ``rewrite`` (copy-on-write): read full state (resolving any pending
    deltas — so a rewrite epoch doubles as compaction), LWW-merge, write
    the new base file through :func:`partition_entry`.

    ``delta`` (merge-on-read): write ONLY the epoch's combined events as
    ``delta-eEEEEEE.parquet`` — tombstones included, real (lsn, seq)
    carried, so plain LWW resolves them at read time. The base payload is
    never read or rewritten: write amplification is O(changed keys), not
    O(partition). Lineage counters stay EXACT by merging against a skinny
    (op, lsn, seq, doc_id) index of the current state — columns only,
    via parquet projection. The Hudi/Iceberg MOR trade re-expressed over
    immutable hash partitions."""
    if policy == "rewrite":
        state = _load_state(table_dir, state_rels, schema, fs)
        if update_mode == "coalesce":
            from ..core.coalesce import merge_partition_coalesce

            merged, counters = merge_partition_coalesce(state, events)
        else:
            merged, counters = merge_partition(state, events)
        entry = partition_entry(merged, table_dir, _partition_path(epoch, part), fs)
        return {"part": part, **entry, "cell_writes": counters.pop("cell_writes", ""),
                **{k: int(counters[k]) for k in COUNTER_KEYS}}
    if policy != "delta":
        raise ValueError(f"unknown merge policy: {policy!r}")
    if update_mode == "coalesce":
        # read-time LWW resolution of deltas would wipe columns a partial
        # update left null; coalesce-aware resolution is not implemented
        raise ValueError("update_mode='coalesce' requires merge_policy='rewrite' "
                         "(merge-on-read deltas resolve by row-LWW at read time)")
    winners = lww_reduce_weighted(events)
    idx_cols = [c for c in _INDEX_COLUMNS if c in winners.schema.names]
    state_idx = _load_state(table_dir, state_rels, schema, fs, columns=idx_cols)
    ev_idx = winners.select(idx_cols + [EVENTS_REP, TOMBS_REP])
    merged_idx, counters = merge_partition(state_idx, ev_idx)
    body = winners.drop_columns([EVENTS_REP, TOMBS_REP])
    if body.num_rows:
        body = body.take(pc.sort_indices(body, sort_keys=[("doc_id", "ascending")]))
    out_rel = _delta_path(epoch, part)
    out_abs = os.path.join(table_dir, out_rel)
    fs.makedirs(os.path.dirname(out_abs))
    fs.write_parquet_atomic(body, out_abs)
    # state fields from the skinny index (the FULL alive state, so a later
    # compaction of this stack keeps the same sig); stats and sketch from
    # the delta body only — fold_entry widens them into the previous ones
    return {"part": part, "file": "", "delta": out_rel,
            **_state_fields(merged_idx), **_stats_fields(body),
            "cell_writes": "", **{k: int(counters[k]) for k in COUNTER_KEYS}}


def _combine(batch: pa.Table, update_mode: str) -> pa.Table:
    """The pre-exchange combiner: ≤1 row per key per batch. ``replace`` =
    row-LWW; ``coalesce`` = column-level partial-update reduce (the
    lifted representation composes through the exchange — see
    ``core/coalesce.py``)."""
    if update_mode == "coalesce":
        from ..core.coalesce import attach_orders, coalesce_reduce

        return coalesce_reduce(attach_orders(batch))
    return lww_reduce_weighted(batch)


def make_normalizer(unified_b64: str, num_partitions: int,
                    renames: dict[str, str] | None = None,
                    update_mode: str = "replace"):
    """Stateless map_batches fn: rename → conform → partial reduce →
    add part."""
    def normalize(batch: pa.Table) -> pa.Table:
        schema = mf.schema_from_b64(unified_b64)
        batch = conform(rename_table(batch, renames), schema)
        batch = _combine(batch, update_mode)
        part = partition_ids(batch["doc_id"], num_partitions)
        return batch.append_column(PART_COLUMN, pc.cast(part, pa.int32()))

    return normalize


def make_staged_merger(
    table_dir: str,
    staging_dir: str,
    epoch: int,
    unified_b64: str,
    state_files: dict[int, list[str]],
    policy: str = "rewrite",
    fs: StorageAdapter | None = None,
    update_mode: str = "replace",
):
    """Merge task for the staged exchange, one plain task per touched
    partition (see :func:`~.tasks.run_tasks`): the item ``{"part": K}``
    names the partition; the task reads its staged files (already
    conformed + weight-carrying) plus its current state (base + pending
    deltas), merges under the given policy, writes the deterministic
    output file and returns the partition's entry row (see
    :func:`_merge_one_partition`). All I/O routes through the
    StorageAdapter (picklable; carried into the task closure) so the
    merge runs against any pyarrow filesystem; publication is
    atomic-rename on POSIX, atomic-PUT on object stores — concurrent/stale
    attempts write byte-identical content either way."""
    fs = default_fs(fs)

    def merge_staged(item: dict) -> dict:
        part = item["part"]
        staged = fs.list_files(
            os.path.join(staging_dir, f"{PART_COLUMN}={part}"), suffix=".parquet")
        events = pa.concat_tables(
            [fs.read_parquet(f) for f in staged], promote_options="default")
        return _merge_one_partition(
            part, events, state_files.get(part, []), table_dir, epoch,
            mf.schema_from_b64(unified_b64), policy, fs, update_mode)

    return merge_staged


def make_file_stager(
    staging_dir: str,
    unified_b64: str,
    num_partitions: int,
    fs: StorageAdapter | None = None,
    renames: dict[str, str] | None = None,
    update_mode: str = "replace",
):
    """Fused map-side shuffle write, one plain task per CHANGELOG FILE
    (see :func:`~.tasks.run_tasks`): read → conform → weighted LWW
    combine → hash-partition → write one staged parquet per touched
    partition, all inside the task, which returns ``{"parts": [...]}``,
    the partitions it staged. The payload goes disk→CPU→disk with ZERO
    plasma hops, where the generic Dataset path pays two (read-task put +
    write-task get). Staged names are deterministic per (input file,
    part), so a retried task overwrites its own output byte-identically
    (idempotent).

    This is also the better combiner: the unit of combination is a whole
    changelog file rather than a read block, so hot keys collapse over a
    larger window before the exchange."""
    fs = default_fs(fs)

    def stage_file(item: dict) -> dict:
        path = item["path"]
        schema = mf.schema_from_b64(unified_b64)
        t = conform(rename_table(fs.read_parquet(path), renames), schema)
        t = _combine(t, update_mode)
        part = pc.cast(partition_ids(t["doc_id"], num_partitions), pa.int32())
        order = pc.sort_indices(part)
        t = t.take(order)
        pvals = part.take(order).to_numpy(zero_copy_only=False)
        # contiguous runs per partition → one slice + one write each
        bounds = np.flatnonzero(np.diff(pvals)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(pvals)]))
        stem = os.path.splitext(os.path.basename(path))[0]
        parent = os.path.basename(os.path.dirname(path))  # epoch=NNNNNN
        parts = []
        for s0, e0 in zip(starts, ends):
            if e0 == s0:
                continue
            k = int(pvals[s0])
            d = os.path.join(staging_dir, f"{PART_COLUMN}={k}")
            fs.makedirs(d)
            fs.write_parquet_atomic(t.slice(s0, e0 - s0),
                                    os.path.join(d, f"{parent}-{stem}.parquet"))
            parts.append(k)
        return {"parts": parts}

    return stage_file


def apply_epoch(
    changelog_dir: str,
    table_dir: str,
    epoch: int,
    num_partitions: int = 32,
    merge_policy: str = "rewrite",
    fs: StorageAdapter | None = None,
    renames: dict[str, str] | None = None,
) -> mf.TableManifest | None:
    """Apply one ready epoch to the table (see :func:`apply_epochs`)."""
    return apply_epochs(changelog_dir, table_dir, [epoch], num_partitions,
                        merge_policy=merge_policy, fs=fs, renames=renames)


def apply_epochs(
    changelog_dir: str,
    table_dir: str,
    epochs: list[int],
    num_partitions: int = 32,
    merge_policy: str = "rewrite",
    fs: StorageAdapter | None = None,
    renames: dict[str, str] | None = None,
    update_mode: str = "replace",
) -> mf.TableManifest | None:
    """Apply a run of ready epochs to the table in ONE pipeline; returns the
    committed manifest (at ``max(epochs)``).

    ``renames`` is an old→new column-name map applied at the source
    boundary (each file's batch AND footer schema) before schema
    unification — the rename half of schema evolution: a producer that
    renamed a column mid-stream keeps writing to the SAME table column.
    Epochs that predate the rename (old name) and postdate it (new name)
    both conform; the map is a transition, not a requirement.

    Batching is sound because the LWW reduce is associative over the
    ``(lsn, seq)`` total order: merging epochs {2,3,4} in one shuffle gives
    byte-identical state to merging them one at a time — so the engine
    amortizes read/shuffle/commit overhead across every epoch that is
    already durable, and falls back to epoch-at-a-time only for live
    tailing. Checkpoint granularity = one commit per batch; crash mid-batch
    ⇒ the whole batch replays (at-least-once) to the same state.

    Idempotent: if ``max(epochs)`` is already committed, no-op (None).
    Crash-safe: data files are written under deterministic names before the
    manifest pointer swap; a rerun overwrites them identically.
    """
    fs = default_fs(fs)
    epoch = max(epochs)
    if mf.committed_epoch(table_dir, fs) >= epoch:
        return None
    files = [f for e in sorted(epochs) for f in _epoch_files(changelog_dir, e, fs)]
    # unify: footer schemas of the epoch's files (renamed first) + current
    # table schema.
    incoming = unify_all(
        [rename_schema(fs.read_parquet_schema(f), renames) for f in files]
    )
    # the raw FILE LIST: each stage task fuses read+normalize+partition+
    # write (no plasma round-trips)
    return apply_events_dataset(
        files,
        table_dir,
        epoch,
        incoming,
        num_partitions=num_partitions,
        merge_policy=merge_policy,
        fs=fs,
        renames=renames,
        update_mode=update_mode,
    )


def apply_events_dataset(
    events_ds,
    table_dir: str,
    epoch: int,
    incoming_schema: pa.Schema,
    num_partitions: int = 32,
    carry_forward: bool = True,
    merge_policy: str = "rewrite",
    fs: StorageAdapter | None = None,
    renames: dict[str, str] | None = None,
    update_mode: str = "replace",
    dropped_columns: list[str] | None = None,
) -> mf.TableManifest | None:
    """Apply an arbitrary change-event Dataset (op/lsn/seq/doc_id + payload
    columns) to the table as ``epoch`` — the core upsert used by epoch
    replay, manifest-driven I/U/D runs (S7) and revocation sweeps (J3).

    ``dropped_columns`` seeds the column-DROP tombstone list on a FRESH
    table (``carry_forward=False`` rewrites such as repartition, which
    must not let a still-sending producer resurrect a dropped column in
    the new directory); on an existing table the committed manifest's
    list always wins.

    ``events_ds`` is a change-event Dataset, or a list of parquet FILE
    PATHS, in which case staging fuses
    read+normalize+partition+write into one task per file (zero plasma
    hops for the payload; see :func:`make_file_stager`).

    ``merge_policy="rewrite"`` (default) is copy-on-write: each touched
    partition's base file is fully rewritten (and any pending deltas are
    folded in). ``"delta"`` is merge-on-read: only the epoch's combined
    events land, as a per-partition delta file — O(changed keys) write
    amplification, resolved by LWW at read / at the next compaction or
    rewrite epoch (see :func:`_merge_one_partition`).

    The hash-partition count is pinned by the first commit: on an existing
    table the stored ``num_partitions`` always wins (routing events with a
    different modulus than the state files would duplicate keys); use
    :func:`repartition_table` to change it. ``carry_forward=False`` drops
    untouched-partition carry-forward (repartition rewrites only)."""
    if update_mode not in ("replace", "coalesce"):
        raise ValueError(f"unknown update_mode: {update_mode!r}")
    if update_mode == "coalesce" and merge_policy != "rewrite":
        raise ValueError("update_mode='coalesce' requires merge_policy='rewrite'")
    fs = default_fs(fs)
    current = mf.load_current(table_dir, fs)
    if current is not None and current.epoch >= epoch:
        return None
    if carry_forward and current is not None and current.num_partitions:
        num_partitions = current.num_partitions
    if current is not None and carry_forward:
        # update semantics are a TABLE property: mixing replace- and
        # coalesce-merged epochs would silently change what an update
        # means for untouched columns
        stored_mode = current.epoch_counters.get("update_mode", "replace")
        if stored_mode != update_mode:
            raise ValueError(
                f"table was built with update_mode={stored_mode!r}; "
                f"got {update_mode!r}")

    # column-DROP tombstones: strip dropped names from the INCOMING schema
    # before unification (a producer still sending the column can't
    # resurrect it — and can't even fail unification on a type conflict
    # in a column the table no longer has); ``conform`` to the unified
    # schema then discards the arriving values at the normalize boundary
    drops = (list(current.dropped_columns)
             if current is not None and carry_forward
             else list(dropped_columns or []))
    if drops:
        incoming_schema = pa.schema(
            [f for f in incoming_schema if f.name not in drops])
    unified = (
        unify_schemas(current.schema, incoming_schema)
        if current is not None
        else incoming_schema
    )
    unified_b64 = mf.schema_to_b64(unified)
    state_files = ({int(k): mf.entry_rels(v) for k, v in current.partitions.items()}
                   if current is not None else {})

    # attempt-unique staging dir: two live drivers racing the same epoch
    # must not stage into (or wipe) each other's files — each attempt
    # merges from its own staging; crashed-attempt debris is swept by
    # vacuum once the epoch is committed
    # uuid attempt token, not pid: pids are not unique across the nodes of
    # a shared store and reuse could make the rmtree below delete a
    # DIFFERENT live attempt's staging
    staging = os.path.join(
        table_dir, "_staging", f"epoch-{epoch:06d}-{uuid.uuid4().hex}"
    )
    fs.rmtree(staging)  # (fresh name — a no-op guard)
    _t_stage = _time_mod.perf_counter()
    if isinstance(events_ds, (list, tuple)):
        stage_rows = run_tasks(
            make_file_stager(staging, unified_b64, num_partitions, fs=fs,
                             renames=renames, update_mode=update_mode),
            [{"path": p} for p in events_ds])
        touched = sorted({p for r in stage_rows for p in r["parts"]})
    else:
        events_ds.map_batches(
            make_normalizer(unified_b64, num_partitions, renames=renames,
                            update_mode=update_mode),
            batch_format="pyarrow",
            # normalize is pure and the sink idempotent: a retry is safe
            retry_exceptions=True,
            max_retries=4,
        ).write_parquet(staging, partition_cols=[PART_COLUMN], filesystem=fs.fs)
        touched = sorted(
            int(d.split("=", 1)[1])
            for d in fs.listdir(staging)
            if d.startswith(PART_COLUMN + "=")
        )
    _t_merge = _time_mod.perf_counter()
    counter_rows = run_tasks(
        make_staged_merger(table_dir, staging, epoch, unified_b64, state_files,
                           policy=merge_policy, fs=fs, update_mode=update_mode),
        [{"part": p} for p in touched])  # empty epoch: no task, manifest still advances
    fs.rmtree(staging)
    _t_done = _time_mod.perf_counter()

    # build the new manifest: carry forward untouched partitions
    partitions = dict(current.partitions) if (current and carry_forward) else {}
    epoch_counters: dict[str, Any] = {"per_partition": {}, **{k: 0 for k in COUNTER_KEYS}}
    for r in counter_rows:
        p = str(r["part"])
        partitions[p] = fold_entry(partitions.get(p), r)
        if r["cell_writes"]:
            cw = epoch_counters.setdefault("cell_writes", {})
            for c, v in json.loads(r["cell_writes"]).items():
                cw[c] = cw.get(c, 0) + int(v)
        epoch_counters["per_partition"][p] = {k: int(r[k]) for k in COUNTER_KEYS}
        for k in COUNTER_KEYS:
            if k != "watermark_lsn":
                epoch_counters[k] += int(r[k])
    epoch_counters["watermark_lsn"] = max(
        (int(r["watermark_lsn"]) for r in counter_rows), default=0
    )
    # per-phase wall clocks (driver-observed): surfaced via `history`/`jobs`
    # so a slow replay localizes to exchange vs merge without re-running
    epoch_counters["phase_wall"] = {"stage": round(_t_merge - _t_stage, 3),
                                    "merge": round(_t_done - _t_merge, 3)}
    epoch_counters["update_mode"] = update_mode
    # wall-clock commit stamp: drives time-based retention (vacuum
    # --keep-seconds). Same-epoch revisions inherit it (the epoch's
    # logical time), so a compaction never "refreshes" retention age.
    epoch_counters["committed_at"] = int(_time_mod.time())

    totals = dict(current.totals) if current else {}
    for k in ("events_in", "upserts", "deletes", "tombstones"):
        totals[k] = totals.get(k, 0) + epoch_counters[k]
    totals["rows"] = sum(p["rows"] for p in partitions.values())

    if drops:
        # visible in `history`: values arriving for these columns were
        # discarded at the normalize boundary this epoch
        epoch_counters["dropped_columns_active"] = drops
    manifest = mf.TableManifest(
        epoch=epoch,
        schema_b64=unified_b64,
        partitions=partitions,
        epoch_counters=epoch_counters,
        totals=totals,
        num_partitions=num_partitions,
        dropped_columns=drops,
    )
    fs.makedirs(table_dir)
    if not mf.commit(table_dir, manifest, fs):
        return None  # fenced out by a concurrent/stale attempt
    return manifest


def bootstrap_table(
    snapshot: str | list[str],
    table_dir: str,
    num_partitions: int = 32,
    key: str = "doc_id",
    merge_policy: str = "rewrite",
    fs: StorageAdapter | None = None,
    update_mode: str = "replace",
) -> mf.TableManifest:
    """Initial consistent-snapshot load — the "snapshot, then stream" half
    of a CDC bootstrap (Debezium snapshot mode; the reference's one-time
    S3 corpus clone before incremental ingest,
    ``paasJobs/jobs/configs/clone_s3_ingest_NGA.conf.sh``). Reads the
    snapshot parquet (a directory/prefix or explicit file list, any
    schema with a ``key`` column), synthesizes the change-event
    bookkeeping (``op='I'``, ``lsn=0``), and commits it as **epoch 0** so
    a subsequent ``replay``/``tail`` of the changelog picks up at epoch 1
    with no gap and no overlap.

    Determinism with duplicate keys: a keyed source snapshot should hold
    each key once, but if duplicates slip in, ``seq`` is synthesized from
    the row's ``version_hash`` content hash when that column exists — so
    the LWW winner is a function of row CONTENT, not of nondeterministic
    block order, and a re-run converges to the identical table. The
    returned manifest's ``totals`` expose the dedup: ``events_in`` >
    ``rows`` means the snapshot carried duplicate keys.

    Refuses to run on a table that already has committed state (bootstrap
    is the genesis write; use ``replay`` / ``apply_events_dataset`` for
    everything after)."""
    fs = default_fs(fs)
    if mf.load_current(table_dir, fs) is not None:
        raise FileExistsError(
            f"bootstrap target already committed: {table_dir} "
            "(bootstrap only creates tables; tail the changelog instead)")
    ds = ray.data.read_parquet(snapshot, filesystem=fs.fs)
    in_schema = ds.schema().base_schema
    if key not in in_schema.names:
        raise ValueError(f"snapshot has no key column {key!r}: {in_schema.names}")
    reserved = {"op", "lsn", "seq"} & set(in_schema.names)
    if reserved:
        # silently dropping a payload column that happens to collide with
        # the event bookkeeping would be invisible data loss
        raise ValueError(
            f"snapshot carries reserved event-bookkeeping column names "
            f"{sorted(reserved)}; rename them before bootstrapping")
    has_vh = "version_hash" in in_schema.names

    def to_events(t: pa.Table) -> pa.Table:
        from ..core.hashing import fnv1a64

        if key != "doc_id":
            t = t.rename_columns(
                ["doc_id" if c == key else c for c in t.schema.names])
        n = t.num_rows
        if has_vh:
            seq = pa.array(
                (fnv1a64(pc.cast(t["version_hash"], pa.string())) >> np.uint64(1))
                .astype(np.int64))
        else:
            seq = pa.array(np.zeros(n, dtype=np.int64))
        return pa.table({
            "op": pa.array(["I"] * n, pa.string()),
            "lsn": pa.array(np.zeros(n, dtype=np.int64)),
            "seq": seq,
            **{c: t[c] for c in t.schema.names if c not in ("op", "lsn", "seq")},
        })

    events = ds.map_batches(to_events, batch_format="pyarrow")
    ev_fields = [pa.field("op", pa.string()), pa.field("lsn", pa.int64()),
                 pa.field("seq", pa.int64())]
    payload = [f if f.name != key else pa.field("doc_id", f.type)
               for f in in_schema if f.name not in ("op", "lsn", "seq")]
    schema = pa.schema(ev_fields + payload)
    m = apply_events_dataset(
        events, table_dir, 0, schema, num_partitions=num_partitions,
        merge_policy=merge_policy, fs=fs, update_mode=update_mode)
    if m is None:
        raise RuntimeError(f"bootstrap commit fenced out at {table_dir}")
    _sync_subscribers(table_dir, fs)
    return m


def _sync_subscribers(table_dir: str, fs: StorageAdapter) -> None:
    """Post-commit hook on every ingest path (replay / replay_union /
    bootstrap): bring declared subscribers (engine/subscriptions.py) to
    the committed epoch. A sync failure must NOT mask a successful
    commit — the ingest already durably succeeded — so it is recorded as
    a failed ``sync`` job-status row and logged; the next commit (or an
    explicit ``sync`` CLI call) reconverges the lagging subscriber."""
    from .subscriptions import list_subscriptions, sync as _sync_subs

    if not list_subscriptions(table_dir, fs):
        return
    from .jobs import JobStatus

    try:
        with JobStatus(table_dir, "sync", fs=fs) as job:
            job.result_fields = {"synced": _sync_subs(table_dir, fs)}
    except Exception as e:  # noqa: BLE001 — commit outcome must survive
        import logging

        logging.getLogger(__name__).warning(
            "post-commit subscriber sync failed (table commit unaffected; "
            "recorded in _jobs, rerun `sync` to reconverge): %s", e
        )


def replay(
    changelog_dir: str,
    table_dir: str,
    num_partitions: int = 32,
    up_to_epoch: int | None = None,
    epochs_per_commit: int | None = None,
    merge_policy: str = "rewrite",
    fs: StorageAdapter | None = None,
    renames: dict[str, str] | None = None,
    update_mode: str = "replace",
) -> mf.TableManifest | None:
    """Tail-and-apply loop: process every ready epoch strictly greater than
    the committed checkpoint, ascending (``checkpoint/utils.py:104-119``).
    Resumable from any crash point.

    ``epochs_per_commit=None`` (default) merges ALL pending epochs in one
    pipeline/commit — the backfill/catch-up fast path. Set it to 1 for
    per-epoch commits (finest checkpoint granularity, live tailing) or any
    N in between. Every run appends job-status lifecycle rows
    (``engine/jobs.py`` — the reference's crawler_status/pipeline_jobs
    analog) under the table."""
    from .jobs import JobStatus

    fs = default_fs(fs)
    fs.makedirs(table_dir)
    pending = cl.ready_epochs(changelog_dir, after=mf.committed_epoch(table_dir, fs), fs=fs)
    if up_to_epoch is not None:
        pending = [e for e in pending if e <= up_to_epoch]
    step = len(pending) if epochs_per_commit is None else epochs_per_commit
    last = None
    with JobStatus(table_dir, "replay", fs=fs, pending_epochs=pending) as job:
        for i in range(0, len(pending), max(1, step)):
            batch = pending[i : i + max(1, step)]
            m = apply_epochs(
                changelog_dir, table_dir, batch, num_partitions=num_partitions,
                merge_policy=merge_policy, fs=fs, renames=renames,
                update_mode=update_mode,
            )
            if m is not None:
                last = m
        job.result_fields = {
            "applied_epochs": pending,
            "epoch": last.epoch if last else mf.committed_epoch(table_dir, fs),
            "totals": (last.totals if last else {}),
        }
    _sync_subscribers(table_dir, fs)
    return last if last is not None else mf.load_current(table_dir, fs)


def replay_union(
    changelog_dirs: list[str],
    table_dir: str,
    num_partitions: int = 32,
    merge_policy: str = "rewrite",
    fs: StorageAdapter | None = None,
    renames: dict[str, str] | list[dict[str, str] | None] | None = None,
    update_mode: str = "replace",
) -> mf.TableManifest | None:
    """Multi-source replay: union the pending epochs of several changelogs
    into one table — the reference's many-crawlers-one-corpus model
    (per-crawler outputs merged into a single snapshot,
    ``gc_crawler_status_tracker.py:55-82`` scopes revocation per crawler
    the same way ``source`` scopes it here).

    Determinism across sources: ``seq`` is remapped to
    ``seq * n_sources + source_index`` before the merge, so the
    ``(lsn, seq)`` total order stays collision-free and replay order
    never depends on which source's file was read first.

    Epoch gating: epoch e applies only once EVERY source has either
    published e (ready marker) or published some epoch > e — proof it
    skipped e. Directory absence is NOT treated as a skip: a producer
    that is about to publish e but hasn't mkdir'd yet would otherwise be
    silently dropped forever once the watermark passes e (the race is
    real when tailing concurrently with producers on different
    cadences). The cost is that a source must publish past e before e
    applies — a dormant source holds the union back, which is the
    correct at-least-once behavior (production systems add per-source
    heartbeat/low-watermark signals to declare intentional gaps).
    Epoch numbering is assumed shared across sources (a time-derived LSN
    at production scale).

    ``renames``: one old→new column map for all sources, or a per-source
    list (sources rename independently; each map is a transition — see
    :func:`apply_epochs`)."""
    fs = default_fs(fs)
    fs.makedirs(table_dir)
    after = mf.committed_epoch(table_dir, fs)
    ready = [set(cl.ready_epochs(d, after=after, fs=fs)) for d in changelog_dirs]
    highest = [max(r) if r else None for r in ready]
    present = sorted(set().union(*ready))
    appliable: list[int] = []
    for e in present:
        vouched = all(
            (e in ready[i]) or (highest[i] is not None and highest[i] > e)
            for i in range(len(changelog_dirs))
        )
        if not vouched:
            break  # strict epoch order: wait, don't skip ahead
        appliable.append(e)
    if not appliable:
        return mf.load_current(table_dir, fs)

    n = len(changelog_dirs)
    per_source_renames: list[dict[str, str] | None]
    if isinstance(renames, list):
        if len(renames) != n:
            raise ValueError(
                f"per-source renames list has {len(renames)} entries for {n} sources")
        per_source_renames = renames
    else:
        per_source_renames = [renames] * n
    parts: list[ray.data.Dataset] = []
    schemas: list[pa.Schema] = []
    for i, d in enumerate(changelog_dirs):
        files = [f for e in appliable if e in ready[i] for f in _epoch_files(d, e, fs)]
        if not files:
            continue
        src_renames = per_source_renames[i]
        schemas.extend(
            rename_schema(fs.read_parquet_schema(f), src_renames) for f in files
        )

        def remap(t: pa.Table, i=i, n=n, src_renames=src_renames) -> pa.Table:
            t = rename_table(t, src_renames)
            seq = pc.add(
                pc.multiply(pc.cast(t["seq"], pa.int64()), pa.scalar(n, pa.int64())),
                pa.scalar(i, pa.int64()),
            )
            return t.set_column(t.schema.get_field_index("seq"), "seq", seq)

        parts.append(
            ray.data.read_parquet(files, filesystem=fs.fs).map_batches(remap, batch_format="pyarrow")
        )

    events = parts[0]
    for p in parts[1:]:
        events = events.union(p)
    m = apply_events_dataset(
        events, table_dir, max(appliable), unify_all(schemas),
        num_partitions=num_partitions, merge_policy=merge_policy, fs=fs,
        update_mode=update_mode,
    )
    _sync_subscribers(table_dir, fs)
    return m


def tail(
    changelog_dir: str,
    table_dir: str,
    num_partitions: int = 32,
    poll_interval: float = 1.0,
    idle_polls: int = 3,
    max_epochs: int | None = None,
    merge_policy: str = "rewrite",
    auto_compact: int | None = None,
    fs: StorageAdapter | None = None,
    renames: dict[str, str] | None = None,
    update_mode: str = "replace",
) -> mf.TableManifest | None:
    """Live-tailing driver loop (the continuous form of :func:`replay` —
    reference analog: the cron-driven checkpoint job,
    ``paasJobs/job_runner.sh`` + ``checkpoint/utils.py:154-191``): poll
    for newly-ready epochs, apply each batch as it lands (per-poll
    commits), stop after ``idle_polls`` consecutive empty polls or after
    ``max_epochs`` applied. Safe to run concurrently with a producer —
    the ready-marker gate keeps half-written epochs invisible, and a
    crashed tailer resumes from the committed watermark.

    With ``merge_policy="delta"``, ``auto_compact=N`` bounds delta stacking
    during a long tail: whenever any partition accumulates > N pending
    deltas, a compaction revision folds them — so read amplification stays
    O(N) while write amplification stays O(changed keys)."""
    import time as _time

    fs = default_fs(fs)
    fs.makedirs(table_dir)
    idle = 0
    applied = 0
    last: mf.TableManifest | None = None
    while idle < idle_polls and (max_epochs is None or applied < max_epochs):
        pending = cl.ready_epochs(changelog_dir, after=mf.committed_epoch(table_dir, fs), fs=fs)
        if max_epochs is not None:
            pending = pending[: max_epochs - applied]
        if not pending:
            idle += 1
            _time.sleep(poll_interval)
            continue
        idle = 0
        m = apply_epochs(
            changelog_dir, table_dir, pending,
            num_partitions=num_partitions, merge_policy=merge_policy,
            fs=fs, renames=renames, update_mode=update_mode,
        )
        if m is not None:
            last = m
            applied += len(pending)
            if auto_compact is not None and any(
                len(e.get("deltas", ())) > auto_compact
                for e in m.partitions.values()
            ):
                from .maintenance import compact

                c = compact(table_dir, min_deltas=auto_compact + 1, fs=fs)
                if c is not None:
                    last = c
            _sync_subscribers(table_dir, fs)  # subscribers follow the tail
    return last if last is not None else mf.load_current(table_dir, fs)


def apply_revocation_sweep(
    table_dir: str,
    alive_pairs,
    epoch: int,
    num_partitions: int = 32,
) -> mf.TableManifest | None:
    """Absence-as-event sweep (J3, ``gc_crawler_status_tracker.py:55-82``):
    rows of a source COVERED by the crawl manifest whose key is absent from
    its alive set become tombstones, applied as one epoch.

    ``alive_pairs``: DataFrame with (source, doc_id) of currently-alive
    docs. Sources not present in it are untouched. The alive sets are
    broadcast (``ray.put`` once); the sweep is a streaming anti-join over
    the current table — no shuffle beyond the engine's merge exchange."""
    from ..pipelines.common import broadcast
    from ..sources.manifests import alive_sets, revocation_events

    if mf.committed_epoch(table_dir) >= epoch:
        return None
    alive_ref = broadcast(alive_sets(alive_pairs))
    tombstones = revocation_events(
        read_table(table_dir, columns=["doc_id", "source"]), alive_ref, lsn=epoch
    )
    schema = pa.schema(
        [
            ("op", pa.string()),
            ("lsn", pa.int64()),
            ("seq", pa.int64()),
            ("doc_id", pa.string()),
            ("source", pa.string()),
        ]
    )
    return apply_events_dataset(
        tombstones, table_dir, epoch, schema, num_partitions=num_partitions,
    )


def scan_partitions(
    table_dir: str,
    manifest: mf.TableManifest,
    fs: StorageAdapter,
    read_schema: pa.Schema,
    fn,
    predicate=None,
    bounds: dict | None = None,
) -> ray.data.Dataset:
    """The one full scan of a manifest's committed state: a lazy Dataset
    of ``fn(rows, part)`` outputs, where ``rows`` is one partition's
    resolved rows conformed to ``read_schema`` (a projection of the
    manifest schema) and ``part`` its partition id (an ``int``). Every
    whole-table reducer (read, validate, checksums, restamp, training
    export) is an ``fn``. Rules:

    - zone-map prune: with ``bounds``, partitions whose committed
      ``col_stats`` prove no overlap are skipped before any file opens;
    - one map over the surviving partitions, split into one block per
      cluster CPU (at most); a task reads its partitions one by one and
      yields one ``fn`` output each, so it holds one partition at a time.
      Tasks retry (``max_retries=4``) on any exception, delta-free reads
      included;
    - delta-free partitions: the filter (``predicate`` AND the bounds) is
      pushed into the parquet read, whose dataset schema null-fills and
      widens columns older files lack;
    - delta stacks: base + deltas are resolved (:func:`_load_state`)
      THEN filtered — pre-merge filtering on a non-key column could drop
      a delta winner and resurrect the base loser;
    - read schema: ``read_schema`` plus the bounds columns, so bounded
      scans keep column pruning; an opaque ``predicate`` (its columns
      are not introspectable) widens it to the full table schema.

    ``fn`` is called once per surviving partition, even when the filter
    or a delete leaves it no rows, so every block is typed and a reducer
    learns the id of an empty partition. With no partition to read the
    result is an empty Dataset typed as ``read_schema``, not as ``fn``'s
    output: a reducer guards that case itself."""
    import pyarrow.dataset as pads
    from ray._private.auto_init_hook import auto_init_ray

    full = manifest.schema
    if predicate is None:
        need = set(read_schema.names) | set(bounds or ())
        file_schema = pa.schema([f for f in full if f.name in need])
    else:
        file_schema = full
    flt = _bounds_expr(bounds) if bounds else None
    if predicate is not None:
        flt = predicate if flt is None else predicate & flt
    # delta stacks also read what LWW resolution needs (key, order, op)
    lww = set(file_schema.names) | {"doc_id", "lsn", "seq", "op"}
    cols = None if predicate is not None else [n for n in full.names if n in lww]

    items: list[dict] = []
    for p in sorted(manifest.partitions, key=int):
        e = manifest.partitions[p]
        rels = mf.entry_rels(e)
        if not rels:
            continue
        if bounds and not _stats_overlap(e.get("col_stats"), bounds):
            continue  # manifest zone maps prove no row can match
        items.append({"part": int(p), "files": rels, "stack": bool(e.get("deltas"))})
    if not items:
        return ray.data.from_arrow(read_schema.empty_table())

    def scan_one(item: dict) -> pa.Table:
        if item["stack"]:
            t = _load_state(table_dir, item["files"], full, fs, columns=cols)
            return t if flt is None else pads.dataset(t).to_table(filter=flt)
        return pads.dataset(os.path.join(table_dir, item["files"][0]), schema=file_schema,
                            format="parquet", filesystem=fs.fs).to_table(filter=flt)

    def scan_group(batch: pa.Table):
        for item in batch.to_pylist():
            t = conform(scan_one(item), read_schema)
            yield fn(t, item["part"])

    # a caller without a Ray session gets one, as from any Ray Data read
    auto_init_ray()
    tasks = min(len(items), int(ray.cluster_resources().get("CPU", 1)))
    return ray.data.from_items(items, override_num_blocks=tasks).map_batches(
        scan_group, batch_size=None, batch_format="pyarrow",
        retry_exceptions=True, max_retries=4,
    )


def _project(schema: pa.Schema, payload_only: bool, columns: list[str] | None) -> pa.Schema:
    if payload_only:
        schema = pa.schema([f for f in schema if f.name != "op"])
    if columns:
        # explicit check: get_field_index returns -1 for a missing name and
        # schema.field(-1) would silently return the LAST field
        missing = [c for c in columns if schema.get_field_index(c) < 0]
        if missing:
            raise ValueError(f"columns not in table schema: {missing} "
                             f"(have {schema.names})")
        schema = pa.schema([schema.field(schema.get_field_index(c)) for c in columns])
    return schema


def read_table(
    table_dir: str, payload_only: bool = False, columns: list[str] | None = None,
    predicate=None, bounds: dict | None = None, fs: StorageAdapter | None = None,
    epoch: int | str | None = None,
) -> ray.data.Dataset:
    """The committed table as a streaming Dataset (conformed to the table
    schema, since old partition files may predate a schema evolution),
    read through :func:`scan_partitions`.

    ``bounds`` (``{col: (lo, hi)}``, either side None = unbounded, closed
    interval) first prunes by the committed payload zone maps
    (``col_stats``): whole partitions that provably hold no match are
    dropped before any file is opened. Rows with NULL in a bounded column
    are excluded (SQL comparison semantics).

    ``predicate`` (a ``pyarrow.dataset`` expression, e.g.
    ``pc.field("n_tok") >= 100``) and the bounds are pushed into each
    delta-free partition's parquet read for row-group pruning —
    partition files are written doc_id-sorted, so key-range predicates
    skip whole row groups at the footer. On merge-on-read delta stacks
    they filter after delta resolution. Only ``columns`` plus the bounds
    columns are read; an opaque ``predicate`` reads every column. The
    surviving partitions are read by at most one task per cluster CPU,
    each yielding one typed table per partition.

    ``epoch`` (an int or a snapshot tag name) scans AS OF that retained
    manifest instead of the committed one, without moving ``_CURRENT``
    (the non-destructive sibling of ``maintenance.restore``; analog of
    reading a timestamped snapshot prefix,
    ``gc_ingest/tools/snapshot/utils.py:180-257``) — bounded time-travel
    scans compose with all of the above. It fails up front if vacuum
    removed any file that manifest lists."""
    fs = default_fs(fs)
    current = _resolve_manifest(table_dir, epoch, fs)
    if epoch is not None:
        missing = [f for f in current.data_files(table_dir) if not fs.exists(f)]
        if missing:
            raise FileNotFoundError(
                f"cannot read as of epoch {epoch}: {len(missing)} file(s) vacuumed")
    if current is None or not current.partitions:
        return ray.data.from_arrow(pa.table({}))
    return scan_partitions(table_dir, current, fs,
                           _project(current.schema, payload_only, columns),
                           lambda rows, part: rows,
                           predicate=predicate, bounds=bounds)


def _resolve_manifest(
    table_dir: str, epoch: int | str | None, fs: StorageAdapter
) -> mf.TableManifest | None:
    """None → the committed manifest; an int → that retained epoch; a
    string → a snapshot tag name."""
    if epoch is None:
        return mf.load_current(table_dir, fs)
    if isinstance(epoch, str):
        from .maintenance import resolve_tag

        epoch = resolve_tag(table_dir, epoch, fs)
    return mf.load_manifest(table_dir, epoch, fs)


def routed_partition_files(
    table_dir: str, keys: list, fs: StorageAdapter | None = None,
    epoch: int | str | None = None,
) -> list[str]:
    """The (deduplicated) partition files that can possibly hold ``keys``:
    re-hash each key with the table's pinned partition count and keep only
    the matching manifest entries — O(|keys|) files, never a full scan.
    Per-partition zone maps (``key_min``/``key_max``, written key-sorted)
    prune further when present; on delta-free partitions the Bloom sidecar
    (``.parquet.bloom``, written with the base) proves definite absence
    from one tiny read, so lookups of missing keys touch no parquet at
    all. Both prunes are advisory — a missing sidecar or empty zone map
    just means no shortcut."""
    fs = default_fs(fs)
    current = _resolve_manifest(table_dir, epoch, fs)
    if current is None or not current.partitions:
        return []
    return _route_files(table_dir, current, keys, fs)


def _route_files(table_dir: str, current: mf.TableManifest, keys: list,
                 fs: StorageAdapter) -> list[str]:
    """:func:`routed_partition_files` over an already-loaded manifest."""
    from ..core.bloom import BloomFilter
    from ..core.hashing import fnv1a64

    npart = current.num_partitions or max(
        (int(p) for p in current.partitions), default=0) + 1
    by_pid: dict[int, list] = {}
    for k, pid in zip(keys, partition_ids(pa.array(keys), npart).to_pylist()):
        by_pid.setdefault(pid, []).append(k)
    out = []
    for pid, ks in sorted(by_pid.items()):
        entry = current.partitions.get(str(pid))
        if entry is None:
            continue
        if entry.get("rows") == 0:
            continue
        kmin, kmax = entry.get("key_min"), entry.get("key_max")
        # empty-string bounds mean "no zone map" (non-string keys, or a
        # manifest predating zone maps) — route on hash alone
        if kmin and kmax and kmin <= kmax:
            if not any(kmin <= str(k) <= kmax for k in ks):
                continue
        # bloom prune: only when the base alone is the whole state
        # (pending deltas may hold keys the base's sidecar never saw)
        if not entry.get("deltas") and entry.get("file"):
            sidecar = os.path.join(table_dir, entry["file"] + BLOOM_SUFFIX)
            try:
                raw = fs.read_bytes(sidecar)
            except (FileNotFoundError, OSError):
                raw = None
            if raw is not None:
                bloom = BloomFilter.from_bytes(raw)
                maybe = bloom.contains_many(
                    fnv1a64(pa.array([str(k) for k in ks], pa.string())))
                if not maybe.any():
                    continue
        out.extend(current.partition_files(table_dir, str(pid)))
    return out


def read_keys(
    table_dir: str,
    keys: list,
    columns: list[str] | None = None,
    fs: StorageAdapter | None = None,
    epoch: int | str | None = None,
) -> pa.Table:
    """Hash-routed point lookup: fetch the committed rows for ``keys``
    by reading ONLY the partitions their hashes route to (the analog of
    the reference's fetch-doc-by-id path, e.g. the doc-by-filename gets in
    ``dataPipelines/gc_ingest/tools/load/utils.py``) with parquet
    ``doc_id IN (...)`` pushdown inside each file. Deleted keys are simply
    absent (rewrite compacts tombstones on write; merge-on-read deltas are
    LWW-resolved here — key-equality filtering commutes with the merge, so
    the pushdown stays sound). Result is bounded by ``len(keys)`` rows,
    returned driver-side and key-sorted.

    ``epoch`` (an int or a snapshot tag name) answers the point lookup
    AS OF that retained manifest — "what did this doc look like in the
    v3 training release" — at the same O(|keys|) cost."""
    import pyarrow.dataset as pads

    fs = default_fs(fs)
    current = _resolve_manifest(table_dir, epoch, fs)
    if current is None or not current.partitions:
        return pa.table({})
    files = _route_files(table_dir, current, keys, fs)
    schema = current.schema
    if not files:
        return conform(pa.table({}), schema).slice(0, 0)
    flt = pads.field("doc_id").isin(keys)
    tabs = [
        conform(pads.dataset(f, filesystem=fs.fs).to_table(filter=flt), schema)
        for f in files
    ]
    t = collapse_deltas(tabs)
    if columns:
        t = t.select(columns)
    if t.num_rows:
        t = t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))
    return t


def table_to_arrow(table_dir: str, sort_by_key: bool = True) -> pa.Table:
    """Driver-side full read — for tests/small tables only."""
    fs = default_fs(None)
    current = mf.load_current(table_dir, fs)
    if current is None or not current.partitions:
        return pa.table({})
    schema = current.schema
    tabs = []
    for p in sorted(current.partitions, key=int):
        t = _load_state(table_dir, mf.entry_rels(current.partitions[p]), schema, fs)
        if t is not None:
            tabs.append(t)
    t = pa.concat_tables(tabs)
    if sort_by_key and t.num_rows:
        t = t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))
    return t
