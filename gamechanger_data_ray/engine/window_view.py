"""Event-time tumbling-window views with WATERMARK finalization,
ALLOWED-LATENESS side output and a per-refresh TRIGGER stream of
newly-final windows — the streaming-window semantics (Flink's
event-time windows / allowed lateness / side outputs, public API shape)
grafted onto the engine's Z-set view machinery.

The reference recomputes its time rollups from scratch on every publish
(``gc_db_utils/orch/sql/create_views.sql``); a 10^10-event stream can't.
Here a windowed view is the standard incremental fold
(:mod:`gamechanger_data_ray.engine.views`) over ``window_start =
floor(ts / width) * width`` with three additions per refresh:

1. **Watermark**: ``wm = max(old_wm, max event-time in the delta −
   lateness)``, committed with the view manifest, monotone by
   construction. Windows with ``window_end ≤ wm`` are FINAL.
2. **Late side output**: a delta row (either sign — a late retraction is
   just as late as a late insert) targeting a window already final at
   the PREVIOUS commit never mutates the aggregate; it lands in
   ``late/e{epoch}/part-K-sSS.parquet`` (deterministic names, rows
   sorted — a crashed refresh rewrites the same bytes) with its sign,
   and is counted in the manifest. The LAKE TABLE itself accepts every
   event; lateness is a property of this view's aggregate only.
3. **Trigger stream**: windows whose end crosses the watermark THIS
   refresh are snapshotted (final values) to
   ``triggers/e{epoch}.parquet`` — the exactly-once "window closed"
   emission a downstream consumer tails via :func:`triggers_since`.

Arrival-order caveat (stated, not hidden): which rows are late depends
on the refresh cadence — the view is STATE, not a pure function of the
table. A refresh that can no longer diff (vacuumed history /
repartition) therefore REFUSES to fall back to a full rebuild — a
rebuild would re-admit every previously-late row — instead of silently
changing the answer. Bootstrap (first build) declares all current table
rows on-time, exactly like a Flink job started against existing state.

Scale: the fold touches only the delta; the part-merge touches only
dirty view partitions; the trigger scan reads view ROWS (one per live
window — bounded by windows, not events). Both the on-time fold and the
late side output ride the engine's one staged exchange
(``cdc.exchange``): late rows are routed by ``(view partition, per-row
salt)``, so one hot late window splits over ``_LATE_SALTS`` write tasks.
Driver traffic: O(partitions) counter rows + the two watermark scalars.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..core.diff import SIGN_COLUMN
from ..core.hashing import fnv1a64, partition_ids
from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs
from .cdc import exchange, read_table
from .diff import diff_table_epochs
from .views import ViewDef, _fold_into_view, _view_schema

WINDOW_COLUMN = "window_start"
_LATE_SALTS = 8  # per-row salt: bounds a hot late window's write input


class EventWindowView:
    """Event-time window spec: ``ts_column`` (int64 event time,
    unit-agnostic) assigned to ``width``-sized windows every ``slide``
    (``slide == width`` → tumbling; ``slide < width`` → sliding/hopping,
    each event replicated into the ``width/slide`` windows covering it,
    sign inherited so retractions expand identically), plus optional
    extra ``group_by`` dimensions and additive ``sums`` — maintained by
    :func:`refresh_windowed`. ``lateness`` is the allowed-lateness slack
    subtracted from the max seen event time to form the watermark.
    Lateness is judged per (row, window) pair: a sliding-window event on
    the watermark boundary folds into its still-open windows while its
    already-final windows divert to the side output."""

    def __init__(
        self,
        ts_column: str,
        width: int,
        sums: dict[str, str] | None = None,
        group_by: tuple[str, ...] | list[str] = (),
        lateness: int = 0,
        slide: int | None = None,
    ):
        if width <= 0:
            raise ValueError("window width must be positive")
        if lateness < 0:
            raise ValueError("lateness must be >= 0")
        self.ts_column = ts_column
        self.width = int(width)
        self.slide = int(slide) if slide is not None else int(width)
        if not 0 < self.slide <= self.width:
            raise ValueError("slide must be in (0, width]")
        self.lateness = int(lateness)
        self.extra = tuple(group_by)
        sums = dict(sums or {})
        self._sums = sums
        # the assigned-window column REPLACES a source column of the same
        # name (that's how a coarse view windows over a finer view's
        # fired window_start) — so that name can't double as a dimension
        # or a summed source, where replacement would clobber the values
        if WINDOW_COLUMN in self.extra or WINDOW_COLUMN in sums.values():
            raise ValueError(
                f"{WINDOW_COLUMN!r} is the assigned-window output column; "
                f"it may serve as ts_column but not as a group dimension "
                f"or sum source"
            )
        src = list(dict.fromkeys([ts_column, *self.extra, *sums.values()]))
        keep = [WINDOW_COLUMN, *self.extra, *sums.values(), SIGN_COLUMN]
        keep = list(dict.fromkeys(keep))

        # expansion happens in refresh_windowed (the late split needs
        # per-(row, window) rows); the fold's transform is a projection
        def project(batch: pa.Table) -> pa.Table:
            return batch.select(keep)

        # width + slide + lateness are on-disk contracts: bake them into
        # the signature so a view_dir built with one geometry refuses
        # another
        self.inner = ViewDef(
            group_by=[WINDOW_COLUMN, *self.extra],
            sums=sums,
            transform=project,
            transform_id=(f"window-{ts_column}-w{self.width}"
                          f"-s{self.slide}-l{self.lateness}"),
            source_columns=src,
            derived_schema=pa.schema([pa.field(WINDOW_COLUMN, pa.int64())]),
        )

    def signature(self) -> str:
        return self.inner.signature()

    def expand(self, batch: pa.Table) -> pa.Table:
        """Assign windows: one output row per (input row, covering
        window), all other columns replicated (including ``sign``).
        Vectorized: a repeat + segmented arange, no Python per row."""
        import numpy as np

        if batch.num_rows == 0:
            if WINDOW_COLUMN in batch.schema.names:
                return batch
            return batch.append_column(WINDOW_COLUMN, pa.array([], pa.int64()))
        ts = pc.cast(batch[self.ts_column], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        def put(b: pa.Table, arr: pa.Array) -> pa.Table:
            if WINDOW_COLUMN in b.schema.names:  # replace (ts IS window_start)
                i = b.schema.get_field_index(WINDOW_COLUMN)
                return b.set_column(i, WINDOW_COLUMN, arr)
            return b.append_column(WINDOW_COLUMN, arr)

        w, s = self.width, self.slide
        if s == w:
            ws = (ts // w) * w  # numpy floor division: exact for negatives
            return put(batch, pa.array(ws, pa.int64()))
        first = ((ts - w) // s + 1) * s  # smallest start with ts < start+w
        last = (ts // s) * s             # largest start ≤ ts
        counts = (last - first) // s + 1
        idx = np.repeat(np.arange(len(ts)), counts)
        # segmented 0..count_i-1 ramp: global arange minus each segment's
        # starting offset
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ramp = np.arange(int(counts.sum())) - np.repeat(offsets, counts)
        ws = first[idx] + ramp * s
        out = batch.take(pa.array(idx))
        return put(out, pa.array(ws, pa.int64()))


# the tumbling case reads better under its own name at call sites
TumblingWindowView = EventWindowView


def _max_event_ts(src: ray.data.Dataset, ts_column: str) -> int | None:
    """Max event time: one row per block, maxed on the driver."""

    def block_max(t: pa.Table) -> pa.Table:
        m = pc.max(pc.cast(t[ts_column], pa.int64())).as_py()
        return pa.table({"m": pa.array([m], pa.int64())})

    rows = src.map_batches(block_max, batch_size=None, batch_format="pyarrow").take_all()
    return max((r["m"] for r in rows if r["m"] is not None), default=None)


def refresh_windowed(
    view: TumblingWindowView,
    view_dir: str,
    table_dir: str,
    num_partitions: int = 8,
    fs: StorageAdapter | None = None,
) -> mf.TableManifest | None:
    """Bring the windowed view to the table's committed epoch. Returns
    the committed view manifest, None when already current (or the table
    has no committed state). Raises when incremental history is gone —
    see the module docstring for why there is deliberately no
    full-rebuild fallback once a watermark exists."""
    fs = default_fs(fs)
    cur_table = mf.load_current(table_dir, fs)
    if cur_table is None:
        return None
    epoch = cur_table.epoch
    cur_view = mf.load_current(view_dir, fs)

    old_wm: int | None = None
    delta = None
    if cur_view is not None:
        if cur_view.epoch_counters.get("view_sig") != view.signature():
            raise ValueError(
                "windowed-view definition (ts column / width / lateness / "
                "groups / sums) changed since this view_dir was built; "
                "build the new definition into a fresh view_dir"
            )
        if cur_view.epoch >= epoch:
            return None
        wm = cur_view.epoch_counters.get("watermark_ts")
        old_wm = None if wm is None else int(wm)
        num_partitions = cur_view.num_partitions or num_partitions
        try:
            delta = diff_table_epochs(
                table_dir, cur_view.epoch, epoch, mode="retractions", fs=fs
            )
        except (FileNotFoundError, ValueError) as e:
            raise ValueError(
                "cannot diff the table since this view's epoch (vacuumed "
                "manifest or repartition); a windowed view is arrival-order "
                "state and a full rebuild would re-admit previously-late "
                "rows — rebuild into a fresh view_dir to declare a new "
                "bootstrap instead"
            ) from e

    schema = _view_schema(view.inner, cur_table.schema)
    schema_b64 = mf.schema_to_b64(schema)
    needed = view.inner.needed_columns()

    late_rows = 0
    late_files: list[str] = []
    if delta is not None:
        # epoch-sized, two consumers (max-ts + split) → materialize once,
        # the same economics the ingest gate measured for its epochs.
        # The key column rides along so the late AUDIT rows carry row
        # identity, not just the fold inputs.
        cols = list(needed)
        if "doc_id" in cur_table.schema.names and "doc_id" not in cols:
            cols.append("doc_id")
        src = delta.select_columns(cols + [SIGN_COLUMN]).materialize()
        max_ts = _max_event_ts(src, view.ts_column)
        carry, mode = dict(cur_view.partitions), "incremental"

        # window assignment precedes the late split: lateness is a
        # per-(row, window) judgment (a sliding-window row can be late
        # for its oldest covering window and on time for the rest)
        src = src.map_batches(view.expand, batch_format="pyarrow")

        if old_wm is not None:
            def is_late(t: pa.Table):
                wend = pc.add(pc.cast(t[WINDOW_COLUMN], pa.int64()),
                              pa.scalar(view.width, pa.int64()))
                return pc.less_equal(wend, pa.scalar(old_wm, pa.int64()))

            def route_late(t: pa.Table) -> tuple[pa.Table, pa.Array]:
                # window routing alone lets ONE hot late window form a
                # whole-window raw-row merge input (the skew gate's
                # 10^6-events one-key discipline); a deterministic
                # per-ROW salt bounds each to ~1/_LATE_SALTS of its
                # window. Row hash, not block position → same rows land
                # in the same file on retry regardless of batching.
                t = t.filter(is_late(t))
                part = partition_ids(pc.cast(t[WINDOW_COLUMN], pa.int64()),
                                     num_partitions).to_numpy(zero_copy_only=False)
                key = (t["doc_id"] if "doc_id" in t.schema.names
                       else pc.cast(t[view.ts_column], pa.string()))
                salt = fnv1a64(pc.cast(key, pa.string())) % np.uint64(_LATE_SALTS)
                return t, pa.array(part * _LATE_SALTS + salt.astype(np.int32))

            # late side output: deterministic per-(partition, salt) files,
            # recorded in the manifest. Staged blocks are uuid-named, so
            # the rows are sorted by every column: a retried refresh
            # rewrites the same bytes whatever order they arrive in.
            def write_late(key: int, rows: pa.Table) -> dict:
                part, salt = divmod(key, _LATE_SALTS)
                rows = rows.take(pc.sort_indices(
                    rows, sort_keys=[(c, "ascending") for c in rows.column_names]))
                rel = os.path.join(f"late/e{epoch:06d}",
                                   f"part-{part}-s{salt:02d}.parquet")
                fs.makedirs(os.path.join(view_dir, f"late/e{epoch:06d}"))
                fs.write_parquet_atomic(rows, os.path.join(view_dir, rel))
                return {"file": rel, "rows": rows.num_rows}

            late_stats, _ = exchange(src, route_late, write_late, view_dir, epoch, fs)
            late_rows = sum(int(r["rows"]) for r in late_stats)
            late_files = sorted(r["file"] for r in late_stats)
            src = src.map_batches(lambda t: t.filter(pc.invert(is_late(t))),
                                  batch_format="pyarrow")
    else:
        src = read_table(
            table_dir, payload_only=True, columns=needed, fs=fs
        )
        max_ts = _max_event_ts(src, view.ts_column)
        src = src.map_batches(view.expand, batch_format="pyarrow")
        carry, mode = {}, "bootstrap"

    new_wm = old_wm
    if max_ts is not None:
        cand = max_ts - view.lateness
        new_wm = cand if new_wm is None else max(new_wm, cand)

    partitions, total, dirty = _fold_into_view(
        view.inner, src, view_dir, epoch, schema_b64, num_partitions, carry, fs)

    # trigger stream: windows finalized by THIS watermark advance —
    # final values snapshotted before the commit makes them visible
    trigger_file = None
    trigger_rows = 0
    if new_wm is not None and (old_wm is None or new_wm > old_wm):
        lo = old_wm  # window_end must be > old_wm (None → all ≤ new_wm)
        pieces = []
        for p in partitions.values():
            t = fs.read_parquet(os.path.join(view_dir, p["file"]))
            if not t.num_rows:
                continue
            wend = pc.add(t[WINDOW_COLUMN], pa.scalar(view.width, pa.int64()))
            m = pc.less_equal(wend, pa.scalar(new_wm, pa.int64()))
            if lo is not None:
                m = pc.and_(m, pc.greater(wend, pa.scalar(lo, pa.int64())))
            t = t.filter(m)
            if t.num_rows:
                pieces.append(t)
        fired = (
            pa.concat_tables(pieces, promote_options="default")
            if pieces
            else pa.table(
                {f.name: pa.array([], f.type) for f in schema}, schema=schema
            )
        )
        if fired.num_rows:
            fired = fired.take(
                pc.sort_indices(
                    fired,
                    sort_keys=[(c, "ascending") for c in view.inner.group_by],
                )
            )
        trigger_file = f"triggers/e{epoch:06d}.parquet"
        fs.makedirs(os.path.join(view_dir, "triggers"))
        fs.write_parquet_atomic(fired, os.path.join(view_dir, trigger_file))
        trigger_rows = fired.num_rows

    manifest = mf.TableManifest(
        epoch=epoch,
        schema_b64=schema_b64,
        partitions=partitions,
        epoch_counters={
            "view_sig": view.signature(),
            "group_by": list(view.inner.group_by),
            "mode": mode,
            "dirty_partitions": dirty,
            "watermark_ts": new_wm,
            "late_rows": late_rows,
            "late_files": late_files,
            "trigger_file": trigger_file,
            "trigger_rows": trigger_rows,
        },
        totals={"rows": total},
        num_partitions=num_partitions,
    )
    if not mf.commit(view_dir, manifest, fs):
        return None  # a racing refresher landed this (or a later) epoch first
    return manifest


def read_windowed(view_dir: str, fs: StorageAdapter | None = None) -> pa.Table:
    """Current window aggregates (live + final) as one Arrow table."""
    from .views import view_to_arrow

    return view_to_arrow(view_dir, fs)


def _history(view_dir: str):
    for e in mf.list_manifests(view_dir):
        yield mf.load_manifest(view_dir, e)


def late_rows(
    view_dir: str, fs: StorageAdapter | None = None
) -> pa.Table | None:
    """Every late row diverted so far (signed), from the files recorded
    by committed manifests — the audit trail of what the aggregates do
    NOT contain."""
    fs = default_fs(fs)
    if mf.load_current(view_dir, fs) is None:
        return None
    pieces = []
    for m in _history(view_dir):
        for rel in m.epoch_counters.get("late_files") or []:
            pieces.append(fs.read_parquet(os.path.join(view_dir, rel)))
    if not pieces:
        return None
    return pa.concat_tables(pieces, promote_options="default")


def triggers_since(
    view_dir: str, after_epoch: int, fs: StorageAdapter | None = None
) -> pa.Table | None:
    """Concatenated trigger emissions (finalized-window snapshots) of
    every committed refresh with epoch > ``after_epoch`` — the
    exactly-once consumption surface: a consumer remembers the last
    epoch it saw and tails from there."""
    fs = default_fs(fs)
    if mf.load_current(view_dir, fs) is None:
        return None
    pieces = []
    for m in _history(view_dir):
        rel = m.epoch_counters.get("trigger_file")
        if m.epoch > after_epoch and rel:
            pieces.append(fs.read_parquet(os.path.join(view_dir, rel)))
    if not pieces:
        return None
    return pa.concat_tables(pieces, promote_options="default")


def expire_window_outputs(
    view_dir: str, fs: StorageAdapter | None = None
) -> dict:
    """Delete late/trigger output files whose epoch no longer has a
    retained manifest (a ``vacuum`` of the view dir dropped it): such
    files are unreachable from :func:`late_rows` / :func:`triggers_since`
    and would otherwise accumulate forever. Run after vacuum — the
    retention window is whatever vacuum kept, so tags pin trigger/late
    history exactly like they pin data files. Returns
    ``{late_files_removed, trigger_files_removed, bytes_freed}``."""
    import re
    import shutil

    fs = default_fs(fs)
    retained = set(mf.list_manifests(view_dir))
    freed = late_removed = trig_removed = 0
    late_root = os.path.join(view_dir, "late")
    if os.path.isdir(late_root):
        for name in sorted(os.listdir(late_root)):
            m = re.fullmatch(r"e(\d{6})", name)
            if m and int(m.group(1)) not in retained:
                d = os.path.join(late_root, name)
                for f in os.listdir(d):
                    freed += os.path.getsize(os.path.join(d, f))
                    late_removed += 1
                shutil.rmtree(d)
    trig_root = os.path.join(view_dir, "triggers")
    if os.path.isdir(trig_root):
        for name in sorted(os.listdir(trig_root)):
            m = re.fullmatch(r"e(\d{6})\.parquet", name)
            if m and int(m.group(1)) not in retained:
                p = os.path.join(trig_root, name)
                freed += os.path.getsize(p)
                os.remove(p)
                trig_removed += 1
    return {"late_files_removed": late_removed,
            "trigger_files_removed": trig_removed, "bytes_freed": freed}


def orphaned_window_outputs(view_dir: str) -> int:
    """Count of late/trigger files no retained manifest references —
    the autopilot's signal to plan an ``expire-window-outputs``."""
    import re

    try:
        retained = set(mf.list_manifests(view_dir))
    except FileNotFoundError:
        return 0
    n = 0
    late_root = os.path.join(view_dir, "late")
    if os.path.isdir(late_root):
        for name in os.listdir(late_root):
            m = re.fullmatch(r"e(\d{6})", name)
            if m and int(m.group(1)) not in retained:
                n += len(os.listdir(os.path.join(late_root, name)))
    trig_root = os.path.join(view_dir, "triggers")
    if os.path.isdir(trig_root):
        for name in os.listdir(trig_root):
            m = re.fullmatch(r"e(\d{6})\.parquet", name)
            if m and int(m.group(1)) not in retained:
                n += 1
    return n


def relay_triggers(
    view_dir: str,
    dst_table: str,
    num_partitions: int = 8,
    fs: StorageAdapter | None = None,
) -> dict:
    """Feed a windowed view's finalized-window emissions into a
    downstream CDC table, exactly-once — streaming DAG glue: a
    fine-grained windowed view triggers into a table that can itself
    carry subscriptions (coarser windowed views, relays, indexes), so
    cascading rollups (minute → hour → day) compose out of the same two
    primitives.

    Each trigger epoch applies as pure inserts at the SOURCE epoch
    number (windows fire exactly once, so there are no conflicts), keyed
    ``doc_id = window_start|dim1|...`` — the destination's committed
    epoch is the consumption watermark, so a crashed relay resumes from
    the last commit and a rerun is a fenced no-op. Retention contract
    (same as :func:`~gamechanger_data_ray.engine.diff.relay`): the view
    must still retain the destination's committed epoch, else this
    raises with the remedy instead of silently skipping fired windows."""
    import numpy as np

    from .cdc import apply_events_dataset

    fs = default_fs(fs)
    cur = mf.load_current(view_dir, fs)
    if cur is None:
        raise FileNotFoundError(f"trigger source has no committed state: {view_dir}")
    dst_cur = mf.load_current(dst_table, fs)
    dst_epoch = dst_cur.epoch if dst_cur is not None else None
    result = {"src_epoch": cur.epoch, "dst_epoch_before": dst_epoch,
              "applied_epochs": 0, "applied_rows": 0, "mode": "noop"}
    if dst_epoch is not None and dst_epoch >= cur.epoch:
        result["dst_epoch_after"] = dst_epoch
        return result

    history = list(_history(view_dir))
    retained = {m.epoch for m in history}
    if dst_epoch is not None and dst_epoch not in retained:
        raise FileNotFoundError(
            f"trigger-relay gap: view no longer retains epoch {dst_epoch} "
            f"(the destination's watermark); raise the view's vacuum "
            f"keep_epochs above the relay lag, or relay into a fresh "
            f"table for a bootstrap"
        )

    group_cols = None
    for m in history:
        if dst_epoch is not None and m.epoch <= dst_epoch:
            continue
        rel = m.epoch_counters.get("trigger_file")
        if not rel:
            continue
        t = fs.read_parquet(os.path.join(view_dir, rel))
        if group_cols is None:
            group_cols = [c for c in m.epoch_counters.get("group_by", [])]
        if t.num_rows:
            key = pc.cast(t[WINDOW_COLUMN], pa.string())
            for c in group_cols:
                if c != WINDOW_COLUMN:
                    key = pc.binary_join_element_wise(
                        key, pc.cast(t[c], pa.string()), "|"
                    )
            n = t.num_rows
            ev = t.append_column("doc_id", key)
            ev = ev.append_column("op", pa.array(["I"] * n, pa.string()))
            ev = ev.append_column(
                "lsn", pa.array(np.full(n, m.epoch, dtype=np.int64)))
            ev = ev.append_column(
                "seq", pa.array(np.arange(n, dtype=np.int64)))
            apply_events_dataset(
                ray.data.from_arrow(ev), dst_table, m.epoch, ev.schema,
                num_partitions=(dst_cur.num_partitions if dst_cur is not None
                                else num_partitions),
            )
            result["applied_rows"] += n
        else:
            # an empty trigger epoch still advances the watermark
            apply_events_dataset(
                ray.data.from_arrow(
                    pa.table({
                        "op": pa.array([], pa.string()),
                        "lsn": pa.array([], pa.int64()),
                        "seq": pa.array([], pa.int64()),
                        "doc_id": pa.array([], pa.string()),
                    })
                ),
                dst_table, m.epoch,
                pa.schema([("op", pa.string()), ("lsn", pa.int64()),
                           ("seq", pa.int64()), ("doc_id", pa.string())]),
                num_partitions=(dst_cur.num_partitions if dst_cur is not None
                                else num_partitions),
            )
        dst_cur = mf.load_current(dst_table, fs)
        result["applied_epochs"] += 1
    # epochs with no trigger file still advance the destination's
    # watermark (one empty fenced commit at the head), keeping the two
    # epoch ladders aligned so the retention check stays tight
    dst_cur = mf.load_current(dst_table, fs)
    if dst_cur is not None and dst_cur.epoch < cur.epoch:
        apply_events_dataset(
            ray.data.from_arrow(
                pa.table({
                    "op": pa.array([], pa.string()),
                    "lsn": pa.array([], pa.int64()),
                    "seq": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.string()),
                })
            ),
            dst_table, cur.epoch,
            pa.schema([("op", pa.string()), ("lsn", pa.int64()),
                       ("seq", pa.int64()), ("doc_id", pa.string())]),
            num_partitions=dst_cur.num_partitions or num_partitions,
        )
    dst_cur = mf.load_current(dst_table, fs)
    result["dst_epoch_after"] = dst_cur.epoch if dst_cur else dst_epoch
    result["mode"] = "relay" if result["applied_epochs"] else "noop"
    return result
