"""Table-level snapshot diff — reverse CDC over committed epochs.

``diff_table_epochs(table, e_from, e_to)`` emits the I/U/D changelog that
transforms the table's state at ``e_from`` into its state at ``e_to``,
as a streaming Dataset. Because every committed manifest is retained
(until vacuumed) and data files are immutable, this is a **zero-shuffle**
operation: both manifests route keys with the same pinned hash modulus, so
each output partition is diffed by one task reading exactly two files —
and partitions whose manifest entry is the *same file* (carry-forward:
untouched by any epoch in between) are skipped without reading a byte.
At 100 TB the cost is proportional to the data that actually changed,
not the table size.

Uses: audit "what did epochs N..M change", feed a downstream consumer that
missed the raw changelog (re-derive events from the lake — the reference's
``reparse``/``reindex`` replay-from-the-lake jobs,
``dataPipelines/gc_ingest/pipelines/core/cli.py:152-237``), and drive
incremental materialized-view maintenance (``engine/views.py``) via the
``"retractions"`` mode.

Closure property (tested): LWW-applying the ``"events"``-mode diff onto the
``e_from`` state yields the ``e_to`` state byte-identically — see
``core/diff.py`` for why verbatim new-row emission guarantees this.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data

from ..core.diff import CHANGE_COLUMN, SIGN_COLUMN, diff_states
from ..core.reconcile import unify_schemas
from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs
from .cdc import _load_state


def _diff_task(unified_b64: str, mode: str, fs: StorageAdapter):
    def run(batch: pa.Table) -> pa.Table:
        schema = mf.schema_from_b64(unified_b64)
        out: list[pa.Table] = []
        for row in batch.to_pylist():
            old = _load_state("", list(row["old_files"]), schema, fs)
            new = _load_state("", list(row["new_files"]), schema, fs)
            out.append(diff_states(old, new, mode=mode))
        return pa.concat_tables(out)

    return run


def _diff_manifests(
    man_old: mf.TableManifest, old_root: str,
    man_new: mf.TableManifest, new_root: str,
    mode: str, fs: StorageAdapter,
) -> ray.data.Dataset:
    """The change rows from ``man_old``'s state to ``man_new``'s, each
    manifest's files relative to its own root: one task per partition
    whose files differ. Files are compared by absolute path, so a
    partition both sides reference identically — carry-forward between
    epochs, or a branch entry still pointing into its parent — prunes
    without reading a byte. Callers check partition alignment."""

    def files(man: mf.TableManifest, root: str, p: str) -> list[str]:
        e = man.partitions.get(p)
        return [] if e is None else [os.path.join(root, r) for r in mf.entry_rels(e)]

    work = []
    for p in sorted(set(man_old.partitions) | set(man_new.partitions), key=int):
        old_f, new_f = files(man_old, old_root, p), files(man_new, new_root, p)
        if list(map(os.path.abspath, old_f)) == list(map(os.path.abspath, new_f)):
            continue  # the same files: an untouched partition, free prune
        work.append({"part": int(p), "old_files": old_f, "new_files": new_f})

    unified = unify_schemas(man_old.schema, man_new.schema)
    extra = (
        pa.field(CHANGE_COLUMN, pa.string())
        if mode == "events"
        else pa.field(SIGN_COLUMN, pa.int8())
    )
    if not work:
        return ray.data.from_arrow(pa.schema(list(unified) + [extra]).empty_table())
    return ray.data.from_items(work).map_batches(
        _diff_task(mf.schema_to_b64(unified), mode, fs),
        batch_size=1,
        batch_format="pyarrow",
        retry_exceptions=True,
        max_retries=4,
    )


def diff_table_epochs(
    table_dir: str,
    from_epoch: int | None,
    to_epoch: int | None = None,
    mode: str = "events",
    fs: StorageAdapter | None = None,
) -> ray.data.Dataset:
    """Change rows (see ``core/diff.py``) from state@``from_epoch`` to
    state@``to_epoch`` (default: the committed current epoch). One task per
    partition whose file changed; identical-file partitions are pruned.

    ``from_epoch=None`` diffs from the EMPTY table: every current row
    surfaces as an insert event — the genesis case of :func:`relay`."""
    fs = default_fs(fs)
    if to_epoch is None:
        man_new = mf.load_current(table_dir, fs)
        if man_new is None:
            raise FileNotFoundError(f"no committed state at {table_dir}")
    else:
        man_new = mf.load_manifest(table_dir, to_epoch, fs)
    if from_epoch is None:
        man_old = mf.TableManifest(
            epoch=-1, schema_b64=man_new.schema_b64,
            num_partitions=man_new.num_partitions, partitions={},
        )
    else:
        man_old = mf.load_manifest(table_dir, from_epoch, fs)
    if man_old.num_partitions != man_new.num_partitions:
        raise ValueError(
            "diff requires both epochs to share the pinned hash-partition "
            f"count (got {man_old.num_partitions} vs {man_new.num_partitions}); "
            "a repartition_table between them breaks partition alignment"
        )
    return _diff_manifests(man_old, table_dir, man_new, table_dir, mode, fs)


def relay(
    src_table: str,
    dst_table: str,
    num_partitions: int | None = None,
    step: str = "batch",
    merge_policy: str = "rewrite",
    fs: StorageAdapter | None = None,
) -> dict:
    """Chained CDC: bring ``dst_table`` up to date with ``src_table`` by
    replaying the source's committed changes — the lake itself becomes the
    changelog for downstream tables (the reference's reindex-from-the-lake
    jobs, ``dataPipelines/gc_ingest/pipelines/core/cli.py:152-237``, as a
    standing table→table subscription).

    - **genesis**: an uncommitted ``dst_table`` is seeded with a pure-insert
      diff of the source's full current state (zero shuffle on the diff
      side — one task per source partition).
    - **incremental**: afterwards each call diffs source
      ``state@dst_epoch → state@src_epoch`` and LWW-applies the events at
      the source's epoch number, so the two tables share a watermark
      ladder and the closure property makes them byte-identical.
    - ``step="epoch"`` walks every retained source epoch one commit at a
      time (dst gets the same time-travel ladder); ``"batch"`` (default)
      folds the whole gap into ONE shuffle+commit.
    - Fenced + idempotent like every engine commit: ``dst >= src`` is a
      no-op; rerunning a relay reconverges.

    Retention contract: the source must still RETAIN the manifest of the
    destination's committed epoch (``vacuum keep_epochs`` >= relay lag),
    else this raises with the remedy. At 100 TB the per-call cost is
    O(changed partitions), never O(table).
    """
    if step not in ("batch", "epoch"):
        raise ValueError(f"unknown relay step: {step!r}")
    fs = default_fs(fs)
    from .cdc import apply_events_dataset

    src_cur = mf.load_current(src_table, fs)
    if src_cur is None:
        raise FileNotFoundError(f"relay source has no committed state: {src_table}")
    dst_cur = mf.load_current(dst_table, fs)
    result = {
        "src_epoch": src_cur.epoch,
        "dst_epoch_before": dst_cur.epoch if dst_cur else None,
        "applied": 0,
        "mode": "noop",
    }
    if dst_cur is not None and dst_cur.epoch >= src_cur.epoch:
        result["dst_epoch_after"] = dst_cur.epoch
        return result

    if num_partitions is None:
        num_partitions = (dst_cur.num_partitions if dst_cur is not None
                          else src_cur.num_partitions) or 32
    from_epoch = dst_cur.epoch if dst_cur is not None else None
    if from_epoch is not None:
        if from_epoch not in mf.list_manifests(src_table, fs):
            raise FileNotFoundError(
                f"relay gap: source no longer retains epoch {from_epoch} "
                f"(the destination's watermark); raise the source's vacuum "
                f"keep_epochs above the relay lag, or relay into a fresh "
                f"directory for a genesis rebuild"
            )

    if step == "epoch":
        ladder = [e for e in mf.list_manifests(src_table, fs)
                  if (from_epoch is None or e > from_epoch) and e <= src_cur.epoch]
    else:
        ladder = [src_cur.epoch]

    prev = from_epoch
    for e in ladder:
        events = diff_table_epochs(src_table, prev, e, mode="events", fs=fs)
        man_new = mf.load_manifest(src_table, e, fs)
        man_old = (mf.TableManifest(epoch=-1, schema_b64=man_new.schema_b64,
                                    num_partitions=man_new.num_partitions)
                   if prev is None else mf.load_manifest(src_table, prev, fs))
        incoming = unify_schemas(man_old.schema, man_new.schema)
        m = apply_events_dataset(
            events.drop_columns([CHANGE_COLUMN]),
            dst_table,
            epoch=e,
            incoming_schema=incoming,
            num_partitions=num_partitions,
            merge_policy=merge_policy,
            fs=fs,
        )
        if m is not None:
            result["applied"] += 1
        prev = e
    result["mode"] = "genesis" if from_epoch is None else "diff"
    result["dst_epoch_after"] = mf.committed_epoch(dst_table, fs)
    return result
