"""Table maintenance: restore (point-in-time rollback), vacuum, and
portable export/import bundles.

Reference parity:
- ``restore``: snapshot backup/restore = re-point at an older state
  (``dataPipelines/gc_ingest/tools/snapshot/utils.py:180-257``); here every
  committed manifest IS a retained backup, so restore is a ``_CURRENT``
  pointer swap — the blue/green alias flip of
  ``gc_elasticsearch_publisher.py:157-172``.
- ``vacuum``: the reference's archive grows forever by design (timestamped
  load archive K2); a 10^10-event lake cannot. Vacuum deletes data files
  unreferenced by the current manifest and by the ``keep_epochs`` most
  recent manifests (the restore window), never touching anything a
  retained manifest still points at.
- ``export_table`` / ``import_table``: the DB/ES export-import jobs
  (``dataPipelines/gc_ingest/tools/db/utils.py:135-235``,
  ``dataPipelines/scripts/es_export.py`` / ``es_import.py``) as a
  self-contained bundle of the committed snapshot — data files + manifest
  + integrity footprint — movable between stores and re-importable as a
  fresh table. Export refuses an existing target (the idempotence fence
  of ``snapshot/utils.py:193-195``); import verifies the footprint.

Restore after vacuum: only epochs within the retained window are
restorable — restore refuses (clear error) if the target manifest is gone
or references vacuumed files.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace

from ..state import manifest as mf
from ..state.fs import default_fs


def restore(table_dir: str, epoch: int) -> mf.TableManifest:
    """Point the table back at an older committed epoch (pointer swap; the
    data files are immutable so this is O(1)). Fails clearly if the target
    manifest or any file it references has been vacuumed away."""
    target = mf.load_manifest(table_dir, epoch)
    missing = [f for f in target.data_files(table_dir) if not os.path.exists(f)]
    if missing:
        raise FileNotFoundError(
            f"cannot restore epoch {epoch}: {len(missing)} data file(s) vacuumed, "
            f"e.g. {missing[0]}"
        )
    # restore intentionally moves the table backwards, so it swaps the
    # pointer directly, past the forward-only commit fence
    mf.swap_pointer(table_dir, target)
    return target


def _rewrite_partitions(
    table_dir: str,
    current: "mf.TableManifest",
    work: list[dict],
    fs,
    *,
    transform=None,
    sort_collapsed: bool = True,
    file_tag: str = "",
    row_group_rows: int | None = None,
    extra_counters: dict | None = None,
    source_dir: str | None = None,
) -> mf.TableManifest | None:
    """Shared skeleton for physical rewrites of IDENTICAL logical state
    (compact, cluster, repair): per-partition resolve (base + merge-on-read
    deltas) → optional ``transform`` → ``cdc.partition_entry`` (atomic
    write, bloom sidecar, exact zone maps) → ``cdc.fold_entry`` into a
    same-epoch ``rev+1`` manifest under the commit fence. One plain Ray
    task per partition (``tasks.run_tasks``); O(P) driver rows.

    ``file_tag`` discriminates the output filename per operation
    (``data-e{epoch}r{rev}{tag}.parquet``): retries of the SAME
    operation stay idempotent (same name, same deterministic bytes),
    while two DIFFERENT rewrites racing from the same rev can never
    overwrite each other's already-committed files — the fence loser's
    differently-named files become vacuum-swept orphans.

    ``source_dir`` reads each work item's files from ANOTHER table's
    directory (anti-entropy repair pulls healthy partitions from a
    replica) while the rewrite still commits into ``table_dir``."""
    from .cdc import _load_state, fold_entry, partition_entry
    from .tasks import run_tasks

    schema = current.schema
    new_rev = current.rev + 1
    epoch = current.epoch
    read_dir = source_dir or table_dir

    def rewrite_one(item: dict) -> dict:
        merged = _load_state(read_dir, item["files"], schema, fs,
                             sort_by_key=sort_collapsed)
        if transform is not None and merged.num_rows:
            merged = transform(merged)
        out_rel = os.path.join(
            f"part={item['part']:05d}",
            f"data-e{epoch:06d}r{new_rev:03d}{file_tag}.parquet",
        )
        return {"part": item["part"], **partition_entry(
            merged, table_dir, out_rel, fs, row_group_size=row_group_rows)}

    results = run_tasks(rewrite_one, work)

    partitions = dict(current.partitions)
    for r in results:
        p = str(r["part"])
        partitions[p] = fold_entry(partitions[p], r)
    manifest = replace(
        current, rev=new_rev, partitions=partitions,
        epoch_counters={**current.epoch_counters, **(extra_counters or {})})
    if not mf.commit(table_dir, manifest, fs):
        return None
    return manifest


def compact(table_dir: str, min_deltas: int = 1, fs=None) -> mf.TableManifest | None:
    """Fold merge-on-read deltas back into per-partition base files —
    a physical rewrite of IDENTICAL logical state, committed as a same-epoch
    revision (``rev+1``; the (epoch, rev) fence keeps stale attempts out).
    One Ray task per delta-carrying partition; partitions below
    ``min_deltas`` pending deltas (and all copy-on-write partitions) are
    untouched. Returns the new manifest, or None if nothing to compact
    or a racing rewrite already superseded this revision."""
    fs = default_fs(fs)
    current = mf.load_current(table_dir, fs)
    if current is None:
        return None
    todo = {
        p: e for p, e in current.partitions.items()
        if len(e.get("deltas", ())) >= max(1, min_deltas)
    }
    if not todo:
        return None
    work = [{"part": int(p), "files": mf.entry_rels(e)} for p, e in todo.items()]
    return _rewrite_partitions(table_dir, current, work, fs)


_ZORDER_BITS = 16  # per-column rank resolution (64k distinct ranks)


def _zorder_values(merged, by: list[str]):
    """Per-row 64-bit Morton (Z-curve) codes over ``by``: each column is
    rank/min-max-normalized to a ``_ZORDER_BITS``-bit code WITHIN the
    partition being rewritten (layout-local normalization is sound — the
    z-value only orders rows inside one file, it is never compared across
    partitions or persisted), then the codes' bits are interleaved,
    earlier columns taking the more significant position per bit plane.
    Strings rank via ``np.unique`` inverse indices; numerics/temporals
    min-max-scale; nulls sort first (code 0); a constant column
    contributes nothing (all-zero plane). Vectorized end-to-end."""
    import numpy as np

    import pyarrow as pa
    import pyarrow.compute as pc

    n = merged.num_rows
    top = np.uint64((1 << _ZORDER_BITS) - 1)
    codes = []
    for c in by:
        col = merged[c]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            vals = pc.fill_null(col, "").to_numpy(zero_copy_only=False)
            _, inv = np.unique(vals, return_inverse=True)
            hi = int(inv.max()) if n else 0
            code = (inv.astype(np.uint64) * top // np.uint64(max(1, hi))
                    if hi else np.zeros(n, np.uint64))
        else:
            if pa.types.is_temporal(col.type) or pa.types.is_boolean(col.type):
                col = pc.cast(col, pa.int64())
            a = pc.cast(col, pa.float64()).to_numpy(zero_copy_only=False)
            lo = np.nanmin(a) if n else 0.0
            hi = np.nanmax(a) if n else 0.0
            if not np.isfinite(lo) or hi <= lo:
                code = np.zeros(n, np.uint64)
            else:
                a = np.where(np.isnan(a), lo, a)  # nulls first
                code = ((a - lo) / (hi - lo) * int(top)).astype(np.uint64)
        codes.append(code)
    k = len(codes)
    z = np.zeros(n, dtype=np.uint64)
    for b in range(_ZORDER_BITS):
        for j, code in enumerate(codes):
            bit = (code >> np.uint64(b)) & np.uint64(1)
            z |= bit << np.uint64(b * k + (k - 1 - j))
    return z


def cluster_table(
    table_dir: str,
    by: str | list[str],
    row_group_rows: int = 4096,
    zorder: bool = False,
    fs=None,
) -> mf.TableManifest | None:
    """Sort-cluster every partition's rows by payload column(s) — the
    lake-maintenance analog of Delta ``OPTIMIZE ... ZORDER BY`` / Iceberg
    sort-order rewrite (reference analog: the ES index-settings sort the
    publisher applies at index build, ``gc_elasticsearch_publisher.py``).

    A physical rewrite of IDENTICAL logical state, committed as a
    same-epoch revision: each partition's resolved rows (base + any
    merge-on-read deltas — clustering doubles as compaction) are
    re-ordered by ``(by..., doc_id)`` and written with ``row_group_rows``
    rows per parquet row group, so footer min/max statistics on the
    cluster column(s) become disjoint and a pushed-down predicate
    (``read_table(bounds=...)``/``predicate=``) skips whole row groups
    instead of scanning the partition. Partition-level zone maps
    (``col_stats``) are unchanged in meaning and re-tightened exactly.

    Like Delta's OPTIMIZE, clustering is one-shot maintenance: the next
    rewrite epoch restores doc_id order for the partitions it touches
    (merge writes key-sorted) — re-cluster after heavy write epochs. The
    key zone map stays sound either way (min/max, not first/last), and
    point lookups keep their Bloom sidecars; they only lose doc_id
    row-group locality inside clustered files, the inherent clustering
    trade. ``epoch_counters["clustered_by"]`` records the active order
    for ``status``. One Ray task per partition; O(P) driver rows.

    ``zorder=True`` orders by the interleaved-bit Morton code over
    ``by`` (≥2, ≤4 columns) instead of lexicographically — the true
    ``OPTIMIZE ... ZORDER BY`` shape: a lexicographic (a, b) sort makes
    row-group stats disjoint on ``a`` but leaves ``b``'s range wide in
    every group, so predicates on ``b`` alone prune nothing; the Z-curve
    localizes BOTH columns, so single- and multi-column bounds each skip
    most row groups (at mildly coarser per-column selectivity than a
    dedicated single-column sort — the standard trade)."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    by = [by] if isinstance(by, str) else list(by)
    if not by:
        raise ValueError("cluster_table needs at least one column")
    fs = default_fs(fs)
    current = mf.load_current(table_dir, fs)
    if current is None or not current.partitions:
        return None
    schema = current.schema
    for c in by:
        idx = schema.get_field_index(c)
        if idx < 0:
            raise ValueError(f"cluster column {c!r} not in table schema "
                             f"(have {schema.names})")
        if pa.types.is_nested(schema.field(idx).type):
            raise ValueError(f"cluster column {c!r} is nested — parquet "
                             "row-group stats cannot prune on it")
    if zorder and not 2 <= len(by) <= 4:
        raise ValueError(
            "zorder needs 2-4 columns (one column: use the plain "
            "lexicographic cluster — it is strictly more selective)")

    if zorder:
        def order(merged: pa.Table) -> pa.Table:
            import numpy as np
            z = _zorder_values(merged, by)
            # stable doc_id tie-break keeps the rewrite deterministic
            ids = merged["doc_id"].to_numpy(zero_copy_only=False)
            return merged.take(pa.array(np.lexsort((ids, z))))
    else:
        sort_keys = [(c, "ascending") for c in [*by, "doc_id"]]

        def order(merged: pa.Table) -> pa.Table:
            return merged.take(pc.sort_indices(merged, sort_keys=sort_keys))

    work = [{"part": int(p), "files": mf.entry_rels(e)}
            for p, e in current.partitions.items() if mf.entry_rels(e)]
    if not work:
        return None
    # filename carries the sort order so a cluster rewrite can never
    # collide with compact (or a different-`by` cluster) racing from the
    # same rev — see _rewrite_partitions
    label = (f"zorder({','.join(by)})" if zorder else ",".join(by))
    tag = ("-z" if zorder else "-c") + hashlib.sha1(
        label.encode()).hexdigest()[:8]
    return _rewrite_partitions(
        table_dir, current, work, fs,
        transform=order,
        sort_collapsed=False,  # order() re-sorts; skip the key sort
        file_tag=tag,
        row_group_rows=row_group_rows,
        extra_counters={"clustered_by": label},
    )


def restamp_stats(table_dir: str, fs=None) -> mf.TableManifest | None:
    """Recompute EXACT payload zone maps for every partition from the
    resolved data and commit them as a same-epoch revision — a
    manifest-only repair: no data file is touched. Three uses: fix the
    corruption ``validate`` flags as ``zone_map_oob``, backfill
    ``col_stats`` on tables committed before payload zone maps existed,
    and tighten the soundly-wide bounds merge-on-read delta commits
    accumulate without paying for a compaction. One
    :func:`cdc.scan_partitions` pass whose read schema is only the scalar
    payload columns (list payloads — the wide ``tokens`` column — are
    never read); ``fn`` turns each partition into one stats row, an
    emptied partition included, and the driver folds the rows with
    :func:`cdc.fold_entry`. Returns the committed manifest, or None if
    there is nothing committed or a racing rewrite fenced it."""
    import pyarrow as pa

    from .cdc import _STATS_EXCLUDE, _stats_fields, fold_entry, scan_partitions

    fs = default_fs(fs)
    current = mf.load_current(table_dir, fs)
    if current is None or not current.partitions:
        return None
    read_schema = pa.schema([f for f in current.schema if f.name not in _STATS_EXCLUDE
                             and not pa.types.is_nested(f.type)])

    def stats_one(rows: pa.Table, part: int) -> pa.Table:
        return pa.table({"part": [part], **{k: [v] for k, v in _stats_fields(rows).items()}})

    results = scan_partitions(table_dir, current, fs, read_schema, stats_one).take_all()
    if not results:
        return None  # no partition holds a file
    partitions = dict(current.partitions)
    for r in results:
        p = str(r["part"])
        partitions[p] = fold_entry(partitions[p], r)
    manifest = replace(current, rev=current.rev + 1, partitions=partitions)
    if not mf.commit(table_dir, manifest, fs):
        return None
    return manifest


# columns no drop may remove: the CDC envelope (merge/lineage machinery)
# plus the core tokenized-payload contract every pipeline builds on
_UNDROPPABLE = frozenset(
    {"doc_id", "op", "lsn", "seq", "version_hash", "tokens", "n_tok", "source"}
)


def drop_column(table_dir: str, column: str, fs=None) -> mf.TableManifest:
    """Schema evolution, the DROP half of add/widen/rename/drop: remove
    ``column`` from the live schema as a MANIFEST-ONLY same-epoch revision
    — zero data movement, the lazy-drop shape of Iceberg/Delta
    ``ALTER TABLE DROP COLUMN``.

    Committed data files keep the column's bytes until their partitions
    are next physically rewritten (compaction, clustering, repartition,
    or any copy-on-write merge); reads conform every file to the manifest
    schema, so the column disappears from every scan and lookup
    immediately. The name goes onto the manifest's ``dropped_columns``
    tombstone list, which (a) strips the column from incoming event
    schemas before unification — a producer still sending it cannot
    resurrect it (values are discarded at the normalize boundary, and the
    epoch's counters record ``dropped_columns_active``) — and (b)
    reserves the name until :func:`retire_dropped` proves no current
    file still carries the bytes. Without the tombstone a name-matched
    re-add would RESURRECT old values out of un-rewritten files; with it,
    a post-retire re-add is a fresh column (nulls for all prior rows).

    Time-travel nuance: as-of reads resolve an epoch to its LATEST
    retained revision, so a tag taken at the CURRENT epoch sees the drop
    (the one same-epoch revision that is not state-identical); tags and
    as-of reads at earlier epochs read their own manifests and keep the
    column. The undroppable core (tokens/n_tok/doc_id/source) means a
    pinned training release still re-exports byte-identically either
    way. Reference analog: the parsed-doc schema trims of
    ``common/document_parser`` — expressed as a fenced lake operation
    instead of a re-parse."""
    import pyarrow as pa

    fs = default_fs(fs)
    current = mf.load_current(table_dir, fs)
    if current is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    if column in _UNDROPPABLE:
        raise ValueError(
            f"column {column!r} is part of the CDC envelope / payload "
            "contract and cannot be dropped")
    schema = current.schema
    if column not in schema.names:
        hint = (" (already dropped; pending retire_dropped)"
                if column in current.dropped_columns else "")
        raise KeyError(f"column {column!r} not in table schema{hint}")
    new_schema = pa.schema([f for f in schema if f.name != column],
                           metadata=schema.metadata)
    partitions = {}
    for p, e in current.partitions.items():
        e = dict(e)
        if e.get("col_stats"):
            e["col_stats"] = {c: v for c, v in e["col_stats"].items()
                              if c != column}
        partitions[p] = e
    manifest = replace(
        current, rev=current.rev + 1, schema_b64=mf.schema_to_b64(new_schema),
        partitions=partitions, dropped_columns=[*current.dropped_columns, column])
    if not mf.commit(table_dir, manifest, fs):
        raise RuntimeError("drop_column fenced out by a racing commit")
    return manifest


def retire_dropped(table_dir: str, column: str | None = None, fs=None) -> dict:
    """Clear column-DROP tombstones whose bytes no longer exist in any
    current-manifest data file, making the name safe to re-introduce.

    A distributed FOOTER scan — one plain Ray task per committed file
    (``tasks.run_tasks``) reads its parquet schema, payload never
    touched, and reports which tombstoned names the file still carries;
    tombstones found in zero files are retired in a same-epoch revision
    commit, the rest stay pending.
    Returns ``{"retired": [...], "pending": {column: files_still_carrying}}``.
    Typical flow: ``drop_column`` → next compaction/clustering rewrites
    the partitions → ``retire_dropped`` → the name is free again."""
    from .tasks import run_tasks

    fs = default_fs(fs)
    current = mf.load_current(table_dir, fs)
    if current is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    if column is not None and column not in current.dropped_columns:
        raise KeyError(f"column {column!r} has no drop tombstone")
    targets = [column] if column is not None else list(current.dropped_columns)
    if not targets:
        return {"retired": [], "pending": {}}

    def scan(item: dict) -> dict:
        have = set(fs.read_parquet_schema(item["path"]).names)
        return {c: int(c in have) for c in targets}

    counts = dict.fromkeys(targets, 0)
    for row in run_tasks(scan, [{"path": f} for f in current.data_files(table_dir)]):
        for c in targets:
            counts[c] += row[c]
    retired = sorted(c for c, n in counts.items() if n == 0)
    pending = {c: n for c, n in counts.items() if n}
    if retired:
        manifest = replace(
            current, rev=current.rev + 1,
            dropped_columns=[c for c in current.dropped_columns
                             if c not in retired])
        if not mf.commit(table_dir, manifest, fs):
            raise RuntimeError("retire_dropped fenced out by a racing commit")
    return {"retired": retired, "pending": pending}


TAGS_FILE = "_TAGS.json"


def list_tags(table_dir: str, fs=None) -> dict[str, int]:
    """Named snapshot tags: {name: epoch}. Tags pin their epoch's manifest
    and data files through vacuum — the Iceberg tag idea for reproducible
    reads ("the corpus release we trained v3 on") on top of the retained
    manifest history."""
    fs = default_fs(fs)
    p = os.path.join(table_dir, TAGS_FILE)
    if not fs.exists(p):
        return {}
    return {k: int(v) for k, v in json.loads(fs.read_text(p)).items()}


def tag(table_dir: str, name: str, epoch: int | None = None) -> dict[str, int]:
    """Create/move a named tag. Defaults to the committed epoch; the target
    epoch must have a retained manifest (you can't pin what vacuum already
    dropped). Numeric names are rejected: every epoch selector in the CLI
    and the read paths accepts "an int OR a tag", and a tag named '2024'
    would silently resolve as epoch 2024 instead of the pinned snapshot."""
    try:
        int(name)
    except ValueError:
        pass
    else:
        raise ValueError(
            f"tag name {name!r} parses as an epoch number; numeric tag "
            "names are ambiguous in epoch selectors — pick a non-numeric "
            "name")
    cur = mf.load_current(table_dir)
    if cur is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    e = cur.epoch if epoch is None else epoch
    retained = mf.list_manifests(table_dir)
    if e not in retained:
        raise ValueError(f"epoch {e} has no retained manifest (have {retained})")
    tags = list_tags(table_dir)
    tags[name] = e
    default_fs(None).atomic_write_text(
        os.path.join(table_dir, TAGS_FILE), json.dumps(tags, sort_keys=True))
    return tags


def untag(table_dir: str, name: str) -> dict[str, int]:
    tags = list_tags(table_dir)
    if name not in tags:
        raise KeyError(f"no tag {name!r} (have {sorted(tags)})")
    del tags[name]
    default_fs(None).atomic_write_text(
        os.path.join(table_dir, TAGS_FILE), json.dumps(tags, sort_keys=True))
    return tags


def resolve_tag(table_dir: str, name: str, fs=None) -> int:
    tags = list_tags(table_dir, fs)
    if name not in tags:
        raise KeyError(f"no tag {name!r} (have {sorted(tags)})")
    return tags[name]


def vacuum(table_dir: str, keep_epochs: int = 2,
           keep_seconds: int | None = None, now: int | None = None) -> dict:
    """Delete partition data files not referenced by the current manifest or
    the ``keep_epochs`` most recent retained manifests; drop manifests older
    than the window. Returns {files_deleted, sidecars_deleted, bytes_freed,
    manifests_kept}.

    ``keep_seconds`` ADDS time-based retention (Iceberg
    ``expire_snapshots(older_than)``): every epoch whose ``committed_at``
    stamp is within the window stays restorable, on top of the count
    window — a union, so time retention can only widen what survives.
    Epochs committed before the stamp existed count as in-window
    (conservative: age unknown ≠ old). ``now`` injects the clock for
    tests; default wall clock."""
    import time as _time

    current = mf.load_current(table_dir)
    if current is None:
        return {"files_deleted": 0, "sidecars_deleted": 0, "bytes_freed": 0,
                "manifests_kept": []}
    epochs = mf.list_manifests(table_dir)
    # retained window: everything >= the keep_epochs-th most recent, the
    # committed epoch (restore target safety), and every TAGGED epoch —
    # tags pin reproducible snapshots through retention
    kept = sorted(set(epochs[-keep_epochs:]) | {current.epoch}
                  | set(list_tags(table_dir).values()))
    if keep_seconds is not None:
        cutoff = (now if now is not None else int(_time.time())) - keep_seconds
        young = set()
        for e in epochs:
            try:
                m = mf.load_manifest(table_dir, e)
            except FileNotFoundError:
                continue
            if m.epoch_counters.get("committed_at", cutoff) >= cutoff:
                young.add(e)
        kept = sorted(set(kept) | young)
    referenced: set[str] = set()
    for e in kept:
        try:
            m = mf.load_manifest(table_dir, e)
        except FileNotFoundError:
            continue
        referenced.update(os.path.abspath(p) for p in m.data_files(table_dir))
    # open WAP branches stay auditable through a parent vacuum: protect
    # every file their retained manifests reference (parent files they
    # inherited at fork AND their own staged epochs — the recursive walk
    # below descends into _branches/*/part=* too). Published residue is
    # referenced by the parent's kept manifests directly.
    from .branches import branch_referenced_files

    referenced |= branch_referenced_files(table_dir)

    deleted, freed, sidecars = 0, 0, 0
    for root, _dirs, files in os.walk(table_dir):
        base = os.path.basename(root)
        if not base.startswith("part="):
            continue
        for fname in files:
            p = os.path.abspath(os.path.join(root, fname))
            if fname.endswith(".parquet") and p not in referenced:
                freed += os.path.getsize(p)
                os.remove(p)
                deleted += 1
            elif fname.endswith(".parquet.bloom") and p[: -len(".bloom")] not in referenced:
                # sidecars are derived data keyed to their base — orphaned
                # when the base falls out of the retained window
                freed += os.path.getsize(p)
                os.remove(p)
                sidecars += 1
    ids = mf.manifest_ids(table_dir)
    newest = dict(ids)  # ids ascend, so each epoch keeps its newest rev
    for e, r in ids:
        # drop manifests of evicted epochs, and superseded (pre-compaction)
        # revs of kept epochs — their files are already unreferenced
        if e not in kept or r < newest[e]:
            os.remove(os.path.join(table_dir, mf.MANIFEST_DIR, mf.manifest_name(e, r)))

    # sweep staging debris from crashed/raced attempts of committed epochs
    # (a live attempt for a committed epoch is doomed to be fenced anyway,
    # but vacuum is a maintenance window, not a racing driver)
    staging_root = os.path.join(table_dir, "_staging")
    if os.path.isdir(staging_root):
        for name in os.listdir(staging_root):
            if not name.startswith("epoch-"):
                continue
            try:
                e = int(name.split("-")[1])
            except (IndexError, ValueError):
                continue
            if e <= current.epoch:
                shutil.rmtree(os.path.join(staging_root, name), ignore_errors=True)
    return {"files_deleted": deleted, "sidecars_deleted": sidecars,
            "bytes_freed": freed, "manifests_kept": kept}


def repartition_table(
    table_dir: str, out_dir: str, new_partitions: int
) -> mf.TableManifest:
    """Rewrite the committed table under a different hash-partition count
    — the cluster-resize path. The partition modulus is pinned per table
    (mixing state hashed at P with events hashed at P' silently
    duplicates keys, which is why ``apply_events_dataset`` always reuses
    the stored count); changing it is an explicit full rewrite into a
    fresh ``out_dir``, committed at the SAME checkpoint epoch so tailing
    resumes exactly where the source table stood. The source dir stays
    intact as the rollback copy (swap directories at the orchestration
    layer, the blue/green pattern of ``gc_elasticsearch_publisher.py:157-172``)."""
    from .cdc import apply_events_dataset, read_table

    current = mf.load_current(table_dir)
    if current is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    if mf.load_current(out_dir) is not None:
        raise FileExistsError(f"repartition target already committed: {out_dir}")
    rows = read_table(table_dir)  # keeps op/lsn/seq/version_hash provenance
    # update semantics are a TABLE property (see apply_events_dataset): the
    # rewritten table must carry the source's update_mode, or a coalesce
    # table comes back stamped 'replace' and subsequent coalesce replays
    # are rejected (and replace replays silently null-wipe columns)
    src_mode = current.epoch_counters.get("update_mode", "replace")
    m = apply_events_dataset(
        rows, out_dir, current.epoch, current.schema,
        num_partitions=new_partitions, update_mode=src_mode,
        dropped_columns=current.dropped_columns,
    )
    if m is None:
        raise RuntimeError(f"repartition commit fenced out at {out_dir}")
    return m


BUNDLE_MANIFEST = "_BUNDLE.json"


def export_table(table_dir: str, bundle_dir: str) -> dict:
    """Export the committed snapshot as a self-contained bundle:
    ``bundle_dir/part=*/data-*.parquet`` + the table manifest + a bundle
    footprint ``{epoch, files: {relpath: bytes}}``. Only the files the
    CURRENT manifest references are copied (history/extra epochs stay
    behind — the bundle is a snapshot, not the changelog). Refuses an
    existing target so a retried job can't silently clobber a good export."""
    current = mf.load_current(table_dir)
    if current is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    if os.path.exists(bundle_dir):
        raise FileExistsError(
            f"export target already exists (idempotence fence): {bundle_dir}"
        )
    os.makedirs(bundle_dir)
    footprint: dict[str, int] = {}
    for p in current.partitions.values():
        for rel in mf.entry_rels(p):
            src = os.path.join(table_dir, rel)
            dst = os.path.join(bundle_dir, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copyfile(src, dst)
            footprint[rel] = os.path.getsize(dst)
    mf._atomic_write(
        os.path.join(bundle_dir, BUNDLE_MANIFEST),
        json.dumps(
            {"epoch": current.epoch, "files": footprint, "manifest": json.loads(current.to_json())},
            indent=1,
        ),
    )
    return {"epoch": current.epoch, "files": len(footprint), "bytes": sum(footprint.values())}


def import_table(bundle_dir: str, table_dir: str) -> mf.TableManifest:
    """Recreate a table from a bundle: verify every file in the footprint
    exists with the recorded size, copy data files into place, and commit
    the bundled manifest — the imported table is immediately replayable
    (the watermark carries over, so tailing resumes after the bundle's
    epoch). Refuses a target that already has a committed table."""
    if mf.load_current(table_dir) is not None:
        raise FileExistsError(f"import target already has a committed table: {table_dir}")
    with open(os.path.join(bundle_dir, BUNDLE_MANIFEST)) as f:
        bundle = json.load(f)
    for rel, size in bundle["files"].items():
        p = os.path.join(bundle_dir, rel)
        if not os.path.exists(p) or os.path.getsize(p) != size:
            raise ValueError(f"bundle integrity check failed for {rel}")
    os.makedirs(table_dir, exist_ok=True)
    for rel in bundle["files"]:
        dst = os.path.join(table_dir, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(os.path.join(bundle_dir, rel), dst)
    manifest = mf.TableManifest.from_json(json.dumps(bundle["manifest"]))
    if not mf.commit(table_dir, manifest):
        raise RuntimeError(f"import commit fenced out at {table_dir}")
    return manifest


def validate_table(table_dir: str) -> dict:
    """Distributed schema + row-invariant validation of the committed
    snapshot — the reference's ``--verify`` JSON-schema gate
    (``common/document_parser/cli.py:75-81`` + ``validators/``) as a
    counting pass over :func:`cdc.scan_partitions`: every committed
    partition is read, conformed to the manifest schema (schema drift in
    old files surfaces here) and, on delta stacks, LWW-resolved, by at
    most one retried task per cluster CPU that takes its partitions one
    at a time. ``fn`` counts each partition's violations of these row
    invariants into one row:

    - ``len(tokens) == n_tok`` for payload rows
    - ``doc_id`` non-null and non-empty
    - committed rows carry ``op`` ∈ {I, U} (tombstones never land)
    - ``lsn >= 0`` and ``version_hash`` non-null for payload rows
    - every non-null scalar payload value lies inside its partition's
      committed zone map (``col_stats``) — a stale/corrupt bound would
      silently drop rows from bounded scans, so it is checked here

    The driver indexes those O(P) rows by partition, with no re-fold;
    payload never leaves the workers.
    """
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from .cdc import scan_partitions

    fs = default_fs(None)
    current = mf.load_current(table_dir, fs)
    if current is None or not current.partitions:
        return {"rows": 0, "violations": {}, "by_partition": {}}

    # tiny {part: col_stats} map, closed over by the check tasks
    stats_map = {int(p): (e.get("col_stats") or {})
                 for p, e in current.partitions.items()}

    def check(t: pa.Table, part: int) -> pd.DataFrame:
        ntok = pc.list_value_length(t["tokens"]).to_pandas().astype("float")
        n_tok_col = t["n_tok"].to_pandas().astype("float")
        doc = t["doc_id"].to_pandas()
        op = t["op"].to_pandas()
        lsn = t["lsn"].to_pandas()
        vh = t["version_hash"].to_pandas()
        zone_oob = 0
        for c, (mn, mx) in stats_map.get(part, {}).items():
            if c not in t.schema.names:
                continue
            col = t[c].to_pandas()
            try:
                zone_oob += int((col.notna() & ((col < mn) | (col > mx))).sum())
            except TypeError:  # retyped column vs old bound: skip
                continue
        return pd.DataFrame({
            "part": [part],
            "rows": [t.num_rows],
            "ntok_mismatch": [int((ntok != n_tok_col).fillna(True).sum())],
            "bad_doc_id": [int((doc.isna() | (doc == "")).sum())],
            "bad_op": [int((~op.isin(["I", "U"])).sum())],
            "bad_lsn": [int((lsn.isna() | (lsn < 0)).sum())],
            "null_version_hash": [int(vh.isna().sum())],
            "zone_map_oob": [zone_oob],
        })

    partials = scan_partitions(
        table_dir, current, fs, current.schema, check).to_pandas()
    if partials.empty:
        return {"rows": 0, "violations": {}, "by_partition": {}}
    agg = partials.set_index("part").sort_index()
    viol_cols = [c for c in agg.columns if c != "rows"]
    totals = agg[viol_cols].sum()
    return {
        "rows": int(agg["rows"].sum()),
        "violations": {k: int(v) for k, v in totals.items() if v},
        "by_partition": {
            int(p): {k: int(r[k]) for k in viol_cols if r[k]}
            for p, r in agg.iterrows()
            if any(r[k] for k in viol_cols)
        },
    }


_DIGEST_BYTES = 32


def table_checksums(table_dir: str, fs=None, epoch=None) -> dict:
    """Anti-entropy content digests for the committed snapshot.

    Per row: sha256 over the canonical serialization of EVERY committed
    column (sorted column order; list columns as raw little-endian
    bytes), so bit-rot in the tokens payload is caught, not just metadata
    drift. Rows fold into a partition digest by XOR — order-independent —
    and partitions fold into the table digest the same way, so the table
    digest is also PARTITIONING-independent: a repartitioned, exported/
    imported, compacted, or merge-on-read replica of the same logical
    state digests identically, while any single changed row flips it.
    The analog of the reference's export integrity footprint
    (``dataPipelines/gc_ingest/tools/db/utils.py:135-235``) upgraded to
    a comparable-across-layout checksum, reduced inside the tasks of
    :func:`cdc.scan_partitions` (at most one per cluster CPU, each
    taking its partitions one at a time): ``fn`` returns one digest row
    per partition (32-byte XOR + row count; an empty partition returns
    none), and the driver folds those rows into the table digest.
    """
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from .cdc import _resolve_manifest, scan_partitions

    fs = default_fs(fs)
    # epoch: None = committed; int/tag = as-of a retained manifest — so a
    # pinned release verifies against its replica long after both tables
    # have moved on
    current = _resolve_manifest(table_dir, epoch, fs)
    zero = bytes(_DIGEST_BYTES)
    if current is None or not current.partitions:
        return {"rows": 0, "digest": zero.hex(), "by_partition": {}}

    def digest_rows(t: pa.Table, part: int) -> pd.DataFrame:
        t = t.combine_chunks()
        n = t.num_rows
        if n == 0:
            return pd.DataFrame({"part": [], "rows": [], "digest": []})
        scalar_parts: list[np.ndarray] = []
        list_bytes: list[list[bytes]] = []
        for name in sorted(t.column_names):
            col = t.column(name)
            arr = col.chunk(0) if isinstance(col, pa.ChunkedArray) else col
            # every field is length-prefixed ("<len>:<bytes>", NULL = the
            # single byte \x00, which no prefix can start with) so the
            # per-row serialization is INJECTIVE: a literal \x00 or \x1f in
            # a value can no longer collide with NULL or shift field
            # boundaries (two different rows digesting identically would
            # let the anti-entropy compare report equal on unequal replicas)
            if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
                flat = arr.flatten().to_numpy(zero_copy_only=False)
                offs = arr.offsets.to_numpy(zero_copy_only=False)
                offs = offs - offs[0]
                list_bytes.append(
                    [(lambda b: str(len(b)).encode() + b":" + b)(
                        flat[offs[i]:offs[i + 1]].tobytes())
                     for i in range(n)]
                )
            else:
                vals = arr.cast(pa.string()).to_pandas()
                scalar_parts.append(np.asarray(
                    [b"\x00" if v is None else
                     (lambda b: str(len(b)).encode() + b":" + b)(
                         v.encode("utf-8"))
                     for v in vals], dtype=object))
        heads = [
            b"\x1f".join(vals) for vals in zip(*scalar_parts)
        ] if scalar_parts else [b""] * n
        digests = np.frombuffer(
            b"".join(
                hashlib.sha256(
                    heads[i] + b"\x1e" + b"\x1e".join(lb[i] for lb in list_bytes)
                ).digest()
                for i in range(n)
            ),
            dtype=np.uint8,
        ).reshape(n, _DIGEST_BYTES)
        return pd.DataFrame({
            "part": [part], "rows": [n],
            "digest": [bytes(np.bitwise_xor.reduce(digests, axis=0)).hex()],
        })

    partials = scan_partitions(
        table_dir, current, fs, current.schema, digest_rows).to_pandas()
    if partials.empty:
        return {"rows": 0, "digest": zero.hex(), "by_partition": {}}

    def fold_hex(hexes) -> str:
        acc = np.zeros(_DIGEST_BYTES, dtype=np.uint8)
        for h in hexes:
            acc ^= np.frombuffer(bytes.fromhex(h), dtype=np.uint8)
        return bytes(acc).hex()

    by_part = partials.set_index("part").sort_index()
    return {
        "rows": int(by_part["rows"].sum()),
        "digest": fold_hex(by_part["digest"]),
        "by_partition": {
            int(p): {"rows": int(r["rows"]), "digest": r["digest"]}
            for p, r in by_part.iterrows()
        },
    }


def repair_from_replica(table_dir: str, replica_dir: str, fs=None) -> dict:
    """Anti-entropy repair: pull diverged partitions from a healthy
    replica (the Dynamo/Cassandra repair loop over this engine's
    content digests; reference analog: the backup/restore pairing of
    ``gc_ingest`` snapshots, upgraded from whole-table restore to
    per-partition convergence).

    Both tables must sit at the same committed (epoch, num_partitions)
    — repair converges REPLICAS, it does not time-travel. Partition
    digests (``table_checksums``; merge-on-read resolved, layout-
    independent) pick out the diverged partitions; each one is rebuilt
    in ``table_dir`` from the replica's resolved rows via the standard
    same-epoch ``rev+1`` rewrite (atomic files, bloom sidecars, exact
    zone maps, commit fence — a racing writer loses cleanly). Returns
    a summary with the post-repair digest comparison; a no-op when
    already converged.

    Direction is explicit: ``replica_dir`` is the source of truth. Run
    twice with swapped arguments for mutual convergence only when an
    external quorum says both sides hold good partitions."""
    fs = default_fs(fs)
    mine_m = mf.load_current(table_dir, fs)
    theirs_m = mf.load_current(replica_dir, fs)
    if mine_m is None or theirs_m is None:
        raise ValueError("repair needs committed state on both sides")
    if mine_m.epoch != theirs_m.epoch:
        raise ValueError(
            f"epoch mismatch: {table_dir} at {mine_m.epoch}, "
            f"{replica_dir} at {theirs_m.epoch} — replay/restore first, "
            "then repair")
    if mine_m.num_partitions != theirs_m.num_partitions:
        raise ValueError(
            "partition-count mismatch — repartition first, then repair")

    mine = table_checksums(table_dir, fs=fs)
    theirs = table_checksums(replica_dir, fs=fs)
    if mine["digest"] == theirs["digest"]:
        return {"diverged": [], "repaired": 0, "equal_after": True,
                "digest": mine["digest"]}

    diverged = sorted(
        int(p) for p, d in theirs["by_partition"].items()
        if mine["by_partition"].get(p, {}).get("digest") != d["digest"]
    )
    extra = set(mine["by_partition"]) - set(theirs["by_partition"])
    if extra:
        raise ValueError(
            f"table holds partitions absent from the replica: {sorted(extra)} "
            "— same-epoch replicas cannot disagree on the partition set")

    work = [{"part": p, "files": mf.entry_rels(theirs_m.partitions[str(p)])}
            for p in diverged]
    m = _rewrite_partitions(
        table_dir, mine_m, work, fs,
        file_tag="-repair", source_dir=replica_dir,
        extra_counters={"repaired_partitions": len(work),
                        "repaired_from": replica_dir},
    )
    if m is None:
        raise RuntimeError("repair commit fenced out (racing rewrite) — rerun")
    after = table_checksums(table_dir, fs=fs)
    return {"diverged": diverged, "repaired": len(work),
            "equal_after": after["digest"] == theirs["digest"],
            "digest": after["digest"]}


def resolve_transform(path: str):
    """``module.sub::func`` dynamic resolution — the reference's
    ``--parser-path`` plugin syntax (``process.py:33-71``), reused for
    backfill transforms.

    The plugin module is registered for BY-VALUE cloudpickle
    serialization: a plugin file that exists only on the driver (the
    normal ad-hoc-backfill situation) still runs in every Ray worker,
    because the function ships inside the task instead of being
    re-imported remotely."""
    import importlib

    mod_name, _, fn_name = path.partition("::")
    if not mod_name or not fn_name:
        raise ValueError(f"expected 'module::func', got {path!r}")
    mod = importlib.import_module(mod_name)
    try:
        from ray import cloudpickle as _cp

        _cp.register_pickle_by_value(mod)
    except Exception:
        pass  # stdlib/package modules importable everywhere work anyway
    return getattr(mod, fn_name)


def backfill(
    table_dir: str,
    transform,
    *,
    key_column: str = "doc_id",
    num_partitions: int | None = None,
    fs=None,
) -> dict:
    """CDC-native payload backfill — "re-parse / re-tokenize the corpus"
    as ONE new change epoch instead of an in-place rewrite.

    The reference reprocesses by re-running the parser over everything
    and re-publishing (the ``--parser-path`` plugin surface,
    ``common/document_parser/process.py:33-71``); an in-place rewrite
    here would silently desync every derived index. Instead the
    transform's output becomes ordinary U events: one per live document,
    all stamped with ``lsn = max committed watermark lsn + 1`` — the
    single job-level ``--batch-timestamp`` analog
    (``configs.py:263-268``) — and a fresh deterministic
    ``version_hash``. They apply through the standard fenced commit and
    subscribers sync, so every maintained index retracts the old
    versions and folds the new ones exactly as if the upstream had
    re-crawled every document.

    ``transform`` is ``callable(pa.Table) -> pa.Table`` over committed
    row batches (payload + envelope columns in; it may change any
    payload column). Contract, enforced per batch: same row count, same
    ``key_column`` values in the same order — a backfill that also
    deletes is two operations (run a revocation sweep for the second).
    If the result carries both ``tokens`` and ``n_tok``, ``n_tok`` is
    recomputed from ``tokens`` so the committed ``len(tokens) == n_tok``
    invariant cannot drift.

    Each call commits exactly one epoch; a crashed call leaves the
    previous manifest committed (fenced swap) and a rerun recomputes
    from that state. Streaming end-to-end: the committed table scans
    through the transform into the exchange — nothing corpus-sized
    lands on the driver."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from .cdc import apply_events_dataset, read_table
    from .subscriptions import sync

    fs = default_fs(fs)
    cur = mf.load_current(table_dir, fs)
    if cur is None or not cur.partitions:
        raise ValueError(f"nothing committed at {table_dir} to backfill")
    new_lsn = 1 + max(
        int(e.get("watermark_lsn", 0)) for e in cur.partitions.values()
    )
    epoch = cur.epoch + 1
    nparts = num_partitions or len(cur.partitions)
    envelope = ("op", "lsn", "seq", "version_hash")

    def to_events(t: pa.Table) -> pa.Table:
        out = transform(t)
        if out.num_rows != t.num_rows:
            raise ValueError(
                "backfill transform must preserve row count "
                f"({t.num_rows} in, {out.num_rows} out); deletions are a "
                "revocation sweep, not a backfill")
        if key_column not in out.schema.names or not pc.all(
            pc.equal(pc.cast(out[key_column], pa.string()),
                     pc.cast(t[key_column], pa.string()))
        ).as_py():
            raise ValueError(
                f"backfill transform must keep {key_column!r} values in "
                "order — it rewrites versions of existing documents")
        if "tokens" in out.schema.names and "n_tok" in out.schema.names:
            i = out.schema.get_field_index("n_tok")
            out = out.set_column(i, "n_tok", pc.cast(
                pc.list_value_length(out["tokens"]),
                out.schema.field("n_tok").type))
        n = out.num_rows
        out = out.drop_columns([c for c in envelope if c in out.schema.names])
        vh = pc.binary_join_element_wise(
            pc.cast(out[key_column], pa.string()),
            pa.array([str(new_lsn)] * n),
            pa.array(["bf"] * n),
            "|",
        )
        cols = {
            "op": pa.array(["U"] * n, pa.string()),
            "lsn": pa.array(np.full(n, new_lsn, dtype=np.int64)),
            "seq": pa.array(np.zeros(n, dtype=np.int64)),
            "version_hash": vh,
        }
        for name in out.schema.names:
            cols[name] = out[name]
        return pa.table(cols)

    payload_fields = [f for f in cur.schema if f.name not in envelope]
    incoming = pa.schema(
        [pa.field("op", pa.string()), pa.field("lsn", pa.int64()),
         pa.field("seq", pa.int64()), pa.field("version_hash", pa.string())]
        + payload_fields
    )
    events = read_table(table_dir, fs=fs).map_batches(
        to_events, batch_format="pyarrow")
    m = apply_events_dataset(events, table_dir, epoch, incoming,
                             num_partitions=nparts, fs=fs)
    sync(table_dir, fs)
    docs = int(m.epoch_counters.get("events_in", 0)) if m is not None else 0
    return {"epoch": epoch, "lsn": new_lsn, "docs": docs}


def delete_where(
    table_dir: str,
    *,
    bounds: dict | None = None,
    predicate=None,
    key_column: str = "doc_id",
    num_partitions: int | None = None,
    fs=None,
) -> dict:
    """CDC-native bulk predicate delete — row TTL / compliance purges /
    expired-source removal as ONE new change epoch of D events, never an
    in-place rewrite (which would silently desync every derived index;
    the reference's delete path is per-id only,
    ``gc_ingest/tools/load/utils.py`` remove-by-filename).

    ``bounds`` (``{col: (lo, hi)}``, closed, either side None) rides the
    committed zone maps: partitions that provably contain no matching
    row are never opened, and the parquet scan row-group-prunes inside
    the rest — so a TTL sweep of a mostly-young table reads only the old
    tail. ``predicate`` (a ``pyarrow.dataset`` expression) composes for
    conditions zone maps can't express.

    Only the KEY column of matching rows flows to the exchange (skinny
    events); they apply at ``lsn = watermark + 1`` through the standard
    fenced commit and subscribers sync — every maintained view/index
    retracts the deleted rows exactly as if the upstream had revoked
    them. A rerun finds no matching rows (they're gone) and commits
    nothing: idempotent end to end."""
    import numpy as np
    import pyarrow as pa

    from .cdc import apply_events_dataset, read_table
    from .subscriptions import sync

    if bounds is None and predicate is None:
        raise ValueError("refusing a full-table delete: pass bounds and/or "
                         "predicate (to truncate, remove the table dir)")
    fs = default_fs(fs)
    cur = mf.load_current(table_dir, fs)
    if cur is None or not cur.partitions:
        return {"epoch": None, "deletes": 0, "mode": "noop"}
    new_lsn = 1 + max(
        int(e.get("watermark_lsn", 0)) for e in cur.partitions.values()
    )
    epoch = cur.epoch + 1

    def to_deletes(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "op": pa.array(["D"] * n, pa.string()),
            "lsn": pa.array(np.full(n, new_lsn, dtype=np.int64)),
            "seq": pa.array(np.zeros(n, dtype=np.int64)),
            key_column: t[key_column],
        })

    from .cdc import _stats_overlap

    skipped = 0
    if bounds:
        skipped = sum(1 for e in cur.partitions.values()
                      if not _stats_overlap(e.get("col_stats"), bounds))
    matches = read_table(
        table_dir, columns=[key_column], bounds=bounds, predicate=predicate,
        fs=fs,
    )
    events = matches.map_batches(to_deletes, batch_format="pyarrow")
    # a predicate matching nothing must NOT burn an epoch (idempotence:
    # the second run of the same delete is a clean no-op, not an empty
    # commit) — counting the skinny key column is one pruned scan
    n_match = matches.count()
    if n_match == 0:
        return {"epoch": None, "deletes": 0, "mode": "noop",
                "partitions_skipped": skipped}
    incoming = pa.schema(
        [pa.field("op", pa.string()), pa.field("lsn", pa.int64()),
         pa.field("seq", pa.int64()),
         pa.field(key_column, cur.schema.field(key_column).type)]
    )
    m = apply_events_dataset(
        events, table_dir, epoch, incoming,
        num_partitions=num_partitions or (cur.num_partitions
                                          or len(cur.partitions)),
        fs=fs,
    )
    sync(table_dir, fs)
    return {"epoch": epoch, "lsn": new_lsn,
            "deletes": int(m.epoch_counters.get("deletes", 0)) if m else 0,
            "mode": "delete", "partitions_skipped": skipped}


TTL_FILE = "_ttl_policy.json"


def set_ttl_policy(table_dir: str, column: str, keep: int) -> dict:
    """Record a standing row-TTL policy (atomic write): rows whose
    ``column`` value falls ``keep`` or more units behind the column's
    committed maximum are expired by :func:`delete_where` — directly or
    via the maintenance autopilot, which plans the sweep whenever the
    committed zone maps prove expired rows exist. The cutoff derives
    from COMMITTED METADATA (global column max − keep), never a wall
    clock, so planning is deterministic and testable. ``keep <= 0``
    clears the policy."""
    import json as _json

    path = os.path.join(table_dir, TTL_FILE)
    if keep <= 0:
        if os.path.exists(path):
            os.remove(path)
        return {"policy": None}
    os.makedirs(table_dir, exist_ok=True)
    default_fs(None).atomic_write_text(
        path, _json.dumps({"column": column, "keep": int(keep)}))
    return {"policy": {"column": column, "keep": int(keep)}}


def ttl_policy(table_dir: str) -> dict | None:
    import json as _json

    path = os.path.join(table_dir, TTL_FILE)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return _json.load(f)


def ttl_cutoff(table_dir: str, cur=None) -> tuple[int, int] | None:
    """(cutoff, expired_partition_count) for the recorded policy, from
    committed zone maps alone: cutoff = max over partitions of the TTL
    column's max, minus keep; a partition is possibly-expired when its
    recorded min ≤ cutoff (widened delta bounds can only over-report —
    the sweep itself burns no epoch when nothing truly matches). None
    when no policy, no committed state, or no bounds for the column."""
    pol = ttl_policy(table_dir)
    if pol is None:
        return None
    if cur is None:
        cur = mf.load_current(table_dir)
    if cur is None or not cur.partitions:
        return None
    col = pol["column"]
    maxes = [e["col_stats"][col][1] for e in cur.partitions.values()
             if e.get("col_stats", {}).get(col)]
    if not maxes:
        return None
    cutoff = max(maxes) - int(pol["keep"])
    expired = sum(
        1 for e in cur.partitions.values()
        if e.get("col_stats", {}).get(col)
        and e["col_stats"][col][0] <= cutoff
    )
    return cutoff, expired
