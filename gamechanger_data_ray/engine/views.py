"""Incrementally-maintained materialized views over the lake table.

A view is a grouped additive aggregate (``COUNT(*)`` + ``SUM`` columns;
``AVG`` derives as sum/count at read time) over the committed table's live
rows. The reference keeps such rollups as Postgres views recomputed on
every publish (``dataPipelines/gc_db_utils/orch/sql/create_views.sql``,
``web/sql/create_views.sql``); here refresh cost is proportional to the
DATA THAT CHANGED, not the table:

    diff(e_view → e_table, mode="retractions")   # signed Z-set delta,
                                                 # dirty partitions only
      → stage per block         # signed partial aggregate — the combiner:
                                # one row per (group, block) — sorted by
                                # hash(group key) % P into ONE Arrow IPC
                                # file, one record batch per partition
      → IPC exchange            # the engine's one exchange (cdc.exchange,
                                # the same one a CDC commit runs): the
                                # driver routes (file, batch) pairs
      → run_tasks merge         # one plain task per cluster CPU, each a
                                # run of dirty partitions, one at a time:
                                # old view rows + routed partials → one SUM
                                # fold; groups whose count reaches 0 drop
                                # out; deterministic file per epoch
      → commit view manifest    # same atomic pointer-swap + epoch
                                # fencing as the lake table itself

The fold is sound because a committed state row is live iff it appears
with net sign +1 across the retraction stream: SUM/COUNT are linear in
rows, so folding ``sign * value`` per group maintains them exactly
(integer sums exact; float sums subject to the usual reassociation).

Fallbacks: the first refresh, a vacuumed from-manifest, or a diff across
a repartition boundary all degrade to a FULL rebuild through the very
same fold pipeline (full state read with implicit sign=+1) — one code
path, two data sources.

View state reuses the table's manifest machinery (`state/manifest.py`):
hash-partitioned deterministic files ``part=K/view-eEEEEEE.parquet``,
``_CURRENT`` pointer, epoch fencing (a view can never move backwards or
double-apply a delta), carry-forward for partitions with no dirty
groups. Like a table commit, a refresh stages under
``view_dir/_staging/epoch-EEEEEE-<uuid>``, removed on success; a crashed
refresh's debris is swept by ``maintenance.vacuum(view_dir)``.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..core.diff import SIGN_COLUMN
from ..core.hashing import partition_ids
from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs
from .cdc import exchange, read_table
from .diff import diff_table_epochs

VIEW_COUNT = "n_rows"

# The index tokenizer: lowercase [a-z0-9]+ runs. Shared by
# inverted_index_view and ALL of engine/search_index.py's views — the
# BM25 correctness argument (doc length == Σ term frequencies) rests on
# every view splitting identically, so there is exactly one definition.
TOKEN_SPLIT = r"[^a-z0-9]+"


class ViewDef:
    """Grouped additive aggregate: ``group_by`` columns → COUNT(*) as
    ``n_rows`` plus ``SUM(src) AS out`` for each ``sums[out] = src``.

    Nulls: a NULL in a summed column contributes 0 (oracle equivalent:
    ``COALESCE(SUM(x), 0)``); NULL group keys form their own group, as in
    SQL ``GROUP BY``.

    ``transform`` generalizes the view to MAP-then-AGGREGATE maintenance:
    a per-batch row-deriving function (e.g. explode a document into term
    rows) applied to the signed delta BEFORE the fold. The Z-set algebra
    stays sound because the transform is per-row deterministic and must
    REPLICATE each input row's ``sign`` onto every derived row — a
    retracted document then retracts exactly the derived rows it once
    contributed. With ``group_by=["term", "doc_id"]`` and a
    tokenize-explode transform this IS an incrementally-maintained
    inverted index (postings with term frequency = ``n_rows``), the
    ES-publisher analog (``gc_elasticsearch_publisher.py:79-129``)
    maintained at O(changed docs) per refresh instead of reindex-all.

    Transform contract:
    - receives a pyarrow.Table with ``source_columns`` + ``sign`` (int8,
      +1 on the full-rebuild path);
    - returns a Table carrying ``group_by`` + sum-source columns + the
      inherited ``sign`` per derived row;
    - ``transform_id`` (required with transform) names the logic in the
      view signature — change it when the logic changes so a stale
      view_dir is refused rather than silently mixed;
    - ``derived_schema`` declares output column types the table schema
      can't provide.
    """

    def __init__(
        self,
        group_by: list[str],
        sums: dict[str, str] | None = None,
        transform=None,
        transform_id: str | None = None,
        source_columns: list[str] | None = None,
        derived_schema: pa.Schema | None = None,
        route_by: list[str] | None = None,
    ):
        if not group_by:
            raise ValueError("view needs at least one group-by column")
        self.group_by = tuple(group_by)
        # route_by: hash-partition the stored rows by a SUBSET of the
        # group key instead of the composed key. A lookup keyed on those
        # columns then prunes to the partitions its keys hash to
        # (lookup_terms) instead of scanning every partition — the right
        # trade when the leading column is high-cardinality and uniform
        # (LSH band buckets). Leave unset when the leading column is
        # skewed (BM25 terms are Zipf: routing by term would pile the
        # stop-word postings onto single partitions). Part of the view
        # signature: placement is an on-disk contract.
        self.route_by = tuple(route_by) if route_by else None
        if self.route_by and not set(self.route_by) <= set(self.group_by):
            raise ValueError(
                f"route_by {route_by} must be a subset of group_by {group_by}")
        self.sums = dict(sums or {})
        clash = (set(self.sums) | {VIEW_COUNT}) & set(self.group_by)
        if clash or VIEW_COUNT in self.sums:
            raise ValueError(f"output column name collision: {clash or VIEW_COUNT}")
        if transform is not None and not transform_id:
            raise ValueError("a transform view needs a transform_id for its signature")
        if transform is not None and not source_columns:
            raise ValueError("a transform view must declare source_columns")
        self.transform = transform
        self.transform_id = transform_id
        self.source_columns = tuple(source_columns or ())
        self.derived_schema = derived_schema

    def signature(self) -> str:
        # route_by joins the spec only when set, so every pre-existing
        # composed-key view keeps its exact signature string
        spec = json.dumps(
            [list(self.group_by), sorted(self.sums.items()), self.transform_id]
            + ([list(self.route_by)] if self.route_by else [])
        )
        return hashlib.sha256(spec.encode()).hexdigest()[:16]

    def needed_columns(self) -> list[str]:
        if self.transform is not None:
            return list(self.source_columns)
        return list(dict.fromkeys(list(self.group_by) + list(self.sums.values())))

    def agg_columns(self) -> list[str]:
        return [VIEW_COUNT, *self.sums]


def _sum_type(src_type: pa.DataType) -> pa.DataType:
    return pa.float64() if pa.types.is_floating(src_type) else pa.int64()


def _view_schema(view: ViewDef, table_schema: pa.Schema) -> pa.Schema:
    def field_of(c: str) -> pa.Field:
        if view.derived_schema is not None and c in view.derived_schema.names:
            return view.derived_schema.field(c)
        return table_schema.field(c)

    fields = [field_of(c) for c in view.group_by]
    fields.append(pa.field(VIEW_COUNT, pa.int64()))
    for out, src in view.sums.items():
        fields.append(pa.field(out, _sum_type(field_of(src).type)))
    return pa.schema(fields)


def _group_key(t: pa.Table, group_by: tuple[str, ...]) -> pa.ChunkedArray | pa.Array:
    """Composed null-safe string key for hash-partition routing."""
    parts = [
        pc.coalesce(pc.cast(t.column(c), pa.string()), pa.scalar("\x01NULL"))
        for c in group_by
    ]
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(*parts, "\x00")


def _sum_groups(t: pa.Table, view: ViewDef) -> pa.Table:
    """SUM-fold every aggregate column per group (input columns already
    named as outputs); restores output names pyarrow suffixes with _sum."""
    agg = t.group_by(list(view.group_by)).aggregate(
        [(c, "sum") for c in view.agg_columns()]
    )
    return agg.rename_columns(list(view.group_by) + view.agg_columns())


def _make_fold(view: ViewDef, schema_b64: str, num_partitions: int):
    """Map side of the view's exchange: one block's signed partial
    aggregate — the combiner, one row per group per block — with each
    row's partition id, ``hash(group key) % P``. Input blocks carry
    ``needed_columns()`` (+ optional ``sign``); a block without a sign
    column folds with sign=+1 (the full-rebuild source)."""

    def fold(batch: pa.Table) -> tuple[pa.Table, pa.Array]:
        schema = mf.schema_from_b64(schema_b64)
        if view.transform is not None and batch.num_rows:
            if SIGN_COLUMN not in batch.schema.names:
                batch = batch.append_column(
                    SIGN_COLUMN, pa.array(np.ones(batch.num_rows, dtype=np.int8))
                )
            batch = view.transform(batch)
            if SIGN_COLUMN not in batch.schema.names:
                raise ValueError(
                    "view transform must carry the sign column onto derived rows"
                )
        if batch.num_rows == 0:
            return schema.empty_table(), pa.array([], pa.int32())
        n = batch.num_rows
        sign = (
            pc.cast(batch.column(SIGN_COLUMN), pa.int64())
            if SIGN_COLUMN in batch.schema.names
            else pa.array(np.ones(n, dtype=np.int64))
        )
        cols: dict[str, pa.Array | pa.ChunkedArray] = {
            c: batch.column(c) for c in view.group_by
        }
        cols[VIEW_COUNT] = sign
        for out, src in view.sums.items():
            typ = schema.field(out).type
            v = pc.coalesce(pc.cast(batch.column(src), typ), pa.scalar(0, typ))
            cols[out] = pc.multiply(v, pc.cast(sign, typ))
        agg = _sum_groups(pa.table(cols), view)
        agg = pa.table(
            {f.name: pc.cast(agg.column(f.name), f.type) for f in schema},
            schema=schema,
        )
        return agg, partition_ids(
            _group_key(agg, view.route_by or view.group_by), num_partitions)

    return fold


def _make_part_merger(
    view: ViewDef,
    view_dir: str,
    schema_b64: str,
    old_files: dict[int, str],
    epoch: int,
    fs: StorageAdapter,
):
    """Merge side of the view's exchange, called once per dirty
    partition (by one task per cluster CPU, see ``cdc.exchange``): old
    stored rows (absorbed as sign=+1 partials — they ARE the fold of
    all previous epochs) + the routed delta partials → new deterministic
    file. Returns the partition's ``{part, file, rows}`` row."""

    def merge(part: int, partials: pa.Table) -> dict:
        schema = mf.schema_from_b64(schema_b64)
        pieces = [partials]
        old_rel = old_files.get(part)
        if old_rel:
            old = fs.read_parquet(os.path.join(view_dir, old_rel))
            pieces.append(
                pa.table(
                    {f.name: pc.cast(old.column(f.name), f.type) for f in schema},
                    schema=schema,
                )
            )
        both = pa.concat_tables(pieces, promote_options="default")
        out = _sum_groups(both, view)
        out = out.filter(pc.not_equal(out.column(VIEW_COUNT), pa.scalar(0, pa.int64())))
        out = pa.table(
            {f.name: pc.cast(out.column(f.name), f.type) for f in schema},
            schema=schema,
        )
        if out.num_rows:
            out = out.take(
                pc.sort_indices(
                    out, sort_keys=[(c, "ascending") for c in view.group_by]
                )
            )
        rel = os.path.join(f"part={part}", f"view-e{epoch:06d}.parquet")
        fs.makedirs(os.path.join(view_dir, f"part={part}"))
        fs.write_parquet_atomic(out, os.path.join(view_dir, rel))
        return {"part": part, "file": rel, "rows": out.num_rows}

    return merge


def _fold_into_view(
    view: ViewDef,
    src: ray.data.Dataset,
    view_dir: str,
    epoch: int,
    schema_b64: str,
    num_partitions: int,
    carry: dict,
    fs: StorageAdapter,
) -> tuple[dict, int, int]:
    """Fold the signed rows of ``src`` into the view through the engine's
    one exchange (:func:`~.cdc.exchange`): ``_make_fold`` stages each
    block's partials, ``_make_part_merger`` rewrites each dirty
    partition. ``carry`` is the committed partitions map (empty on a full
    rebuild). Returns the new partitions map (empty partitions dropped),
    its total rows and the dirty-partition count."""
    old_files = {int(k): v["file"] for k, v in carry.items()}
    rows, _ = exchange(
        src,
        _make_fold(view, schema_b64, num_partitions),
        _make_part_merger(view, view_dir, schema_b64, old_files, epoch, fs),
        view_dir, epoch, fs)
    partitions = {**carry, **{str(r["part"]): {"file": r["file"], "rows": int(r["rows"])}
                              for r in rows}}
    partitions = {k: v for k, v in partitions.items() if int(v["rows"])}
    return partitions, sum(int(v["rows"]) for v in partitions.values()), len(rows)


def inverted_index_view(text_column: str = "text", key_column: str = "doc_id") -> ViewDef:
    """Incrementally-maintained inverted index as a transform view:
    documents explode into lower-cased ``[a-z0-9]+`` term rows, grouped by
    ``(term, doc_id)`` — so ``n_rows`` is the term frequency, postings for
    a term are its rows, and document updates/deletes retract their old
    terms through the Z-set sign. Per-term document frequency is
    ``GROUP BY term`` over this view (or a second stacked view)."""

    def explode(batch: pa.Table) -> pa.Table:
        text = pc.coalesce(pc.cast(batch[text_column], pa.string()), pa.scalar(""))
        toks = pc.split_pattern_regex(pc.utf8_lower(text), TOKEN_SPLIT)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        idx = pa.array(np.repeat(np.arange(len(batch)), lens))
        out = pa.table(
            {
                "term": pc.list_flatten(toks),
                key_column: batch[key_column].combine_chunks().take(idx)
                if isinstance(batch[key_column], pa.ChunkedArray)
                else batch[key_column].take(idx),
                SIGN_COLUMN: batch[SIGN_COLUMN].combine_chunks().take(idx)
                if isinstance(batch[SIGN_COLUMN], pa.ChunkedArray)
                else batch[SIGN_COLUMN].take(idx),
            }
        )
        return out.filter(pc.not_equal(out["term"], pa.scalar("")))

    return ViewDef(
        group_by=["term", key_column],
        transform=explode,
        transform_id="inverted-index-v1",
        source_columns=[key_column, text_column],
        derived_schema=pa.schema([("term", pa.string())]),
    )


def refresh(
    view: ViewDef,
    view_dir: str,
    table_dir: str,
    num_partitions: int = 8,
    fs: StorageAdapter | None = None,
) -> mf.TableManifest | None:
    """Bring the view up to the table's committed epoch. Returns the
    committed view manifest, or None if already current (or the table has
    no committed state). Incremental when the view's reflected epoch has a
    retained manifest to diff against; full rebuild otherwise."""
    fs = default_fs(fs)
    cur_table = mf.load_current(table_dir, fs)
    if cur_table is None:
        return None
    epoch = cur_table.epoch
    cur_view = mf.load_current(view_dir, fs)
    delta = None
    if cur_view is not None:
        if cur_view.epoch_counters.get("view_sig") != view.signature():
            raise ValueError(
                "view definition changed since this view_dir was built; "
                "build the new definition into a fresh view_dir"
            )
        if cur_view.epoch >= epoch:
            return None
        num_partitions = cur_view.num_partitions or num_partitions
        try:
            delta = diff_table_epochs(
                table_dir, cur_view.epoch, epoch, mode="retractions", fs=fs
            )
        except (FileNotFoundError, ValueError):
            delta = None  # vacuumed manifest / repartitioned table → rebuild

    schema_b64 = mf.schema_to_b64(_view_schema(view, cur_table.schema))
    if delta is not None:
        src = delta.select_columns(view.needed_columns() + [SIGN_COLUMN])
        carry, mode = dict(cur_view.partitions), "incremental"
    else:
        src = read_table(
            table_dir, payload_only=True, columns=view.needed_columns(), fs=fs
        )
        carry, mode = {}, "full"

    partitions, total, dirty = _fold_into_view(
        view, src, view_dir, epoch, schema_b64, num_partitions, carry, fs)
    manifest = mf.TableManifest(
        epoch=epoch,
        schema_b64=schema_b64,
        partitions=partitions,
        epoch_counters={
            "view_sig": view.signature(),
            "group_by": list(view.group_by),
            "route_by": list(view.route_by) if view.route_by else None,
            "mode": mode,
            "dirty_partitions": dirty,
        },
        totals={"rows": total},
        num_partitions=num_partitions,
    )
    if not mf.commit(view_dir, manifest, fs):
        return None  # a racing refresher landed this (or a later) epoch first
    return manifest


def read_view(view_dir: str, fs: StorageAdapter | None = None) -> ray.data.Dataset:
    """The committed view as a streaming Dataset."""
    fs = default_fs(fs)
    cur = mf.load_current(view_dir, fs)
    if cur is None or not cur.partitions:
        return ray.data.from_arrow(pa.table({}))
    # columns= prunes the hive-inferred `part` directory key back out
    return ray.data.read_parquet(
        cur.data_files(view_dir), filesystem=fs.fs, columns=cur.schema.names
    )


def lookup_terms(
    view_dir: str, terms: list[str], fs: StorageAdapter | None = None
) -> pa.Table:
    """Postings lookup against an ``inverted_index_view`` state: rows
    (term, doc_id, n_rows=tf) for the requested terms only. View partition
    files are written sorted by group key (term first), so the
    ``term IN (...)`` predicate prunes at parquet row-group granularity —
    a term lookup reads footers plus the few row groups that can hold the
    terms, never the whole index. Only the partitions the terms hash to
    are opened at all (the same routing the fold used to place them)."""
    import pyarrow.dataset as pads

    fs = default_fs(fs)
    cur = mf.load_current(view_dir, fs)
    if cur is None or not cur.partitions:
        return pa.table({})
    npart = cur.num_partitions or len(cur.partitions)
    # the fold routed each group row by the COMPOSED group key (e.g.
    # "term\x00doc_id") unless the view declared route_by, so terms alone
    # pin a partition for single-column views AND for views routed by the
    # leading column (route_by=[first_group], e.g. the LSH band indexes);
    # other multi-column indexes fall back to an all-partition scan that
    # the per-file row-group predicate still prunes
    group_by = cur.epoch_counters.get("group_by") or []
    route_by = cur.epoch_counters.get("route_by") or None
    first_group = (group_by[0] if group_by else cur.schema.names[0])
    # coerce the probe terms to the group column's type (so the row-group
    # predicate compares in-type), then route through the SAME string
    # canonicalization the fold used (_group_key casts every group column
    # to string) — hashing a typed array directly would route int keys to
    # the wrong partition and silently return missing rows
    term_arr = pa.array(terms).cast(cur.schema.field(first_group).type)
    terms = term_arr.to_pylist()
    if len(group_by) == 1 or route_by == [first_group]:
        key_arr = _group_key(pa.table({first_group: term_arr}), (first_group,))
        pids = set(partition_ids(key_arr, npart).to_pylist())
        files = [
            os.path.join(view_dir, cur.partitions[str(p)]["file"])
            for p in sorted(pids)
            if str(p) in cur.partitions
        ]
    else:
        files = cur.data_files(view_dir)
    if not files:
        return pa.table({})
    flt = pads.field(first_group).isin(terms)
    tabs = [
        pads.dataset(f, filesystem=fs.fs).to_table(
            filter=flt, columns=cur.schema.names)
        for f in files
    ]
    t = pa.concat_tables(tabs, promote_options="default")
    if t.num_rows:
        t = t.take(pc.sort_indices(
            t, sort_keys=[(c, "ascending") for c in t.schema.names]))
    return t


def view_to_arrow(view_dir: str, fs: StorageAdapter | None = None) -> pa.Table:
    """Driver-side full view read — tests/small views only."""
    fs = default_fs(fs)
    cur = mf.load_current(view_dir, fs)
    if cur is None or not cur.partitions:
        return pa.table({})
    t = pa.concat_tables(
        [fs.read_parquet(f) for f in sorted(cur.data_files(view_dir))]
    )
    return t.take(
        pc.sort_indices(t, sort_keys=[(c, "ascending") for c in t.schema.names])
    )
