"""CDC token lake → packed training shards.

The bridge between the engine (a continuously-upserted table of
pre-tokenized sequences) and the training dataloader (fixed-length packed
chunks): export the committed snapshot as concat-and-chunk ``cap``-length
sequences — documents split across chunk boundaries, nothing padded,
nothing dropped — the reference's corpus-export jobs
(``dataPipelines/gc_ingest/pipelines/core/cli.py:152-237`` re-derive
downstream artifacts from the lake the same way) recast for a token lake.

Determinism: the global document order is **(partition id, doc_id)**.
Partition files are committed doc_id-sorted under a pinned hash modulus,
so the same committed ``(epoch, rev)`` always yields byte-identical
chunks — across re-runs, and across physical layouts (a merge-on-read
stack exports the same bytes as its compacted rewrite; tested).

Scale shape: two passes, neither materializes the corpus —

- pass 1 reads ONLY the skinny merge columns + ``n_tok`` per partition
  (column projection holds even under merge-on-read) and prefix-sums the
  O(P) per-partition token totals on the driver;
- pass 2 re-reads resolved partitions; each document slices itself into
  chunk pieces at global offsets (numpy, one iteration per doc), and a
  chunk-range groupby assembles 64 chunks per task
  (``pipelines/tokens.py::chunk_sized_tokens``, the shared kernel).

Output is partitioned parquet plus an ``_EXPORT.json`` ready marker
(same consumer-gating pattern as the changelog's ``_MANIFEST.json``):
a crashed export leaves no marker and a re-run into a fresh dir is the
recovery path.
"""

from __future__ import annotations

import json
import os
from typing import Any

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs
from .cdc import _load_state
from .tasks import run_tasks

EXPORT_MARKER = "_EXPORT.json"

# skinny pass-1 projection: what LWW resolution needs + the length column
_SIZE_COLUMNS = ["op", "lsn", "seq", "doc_id", "n_tok"]

# seeded-shuffle bucket count: the groupby keyspace of the packing pass.
# 256 keeps groups coarse enough to amortize task overhead and fine
# enough that one bucket (~1/256 of the corpus) fits a worker's heap.
_SHUFFLE_BUCKETS = 256


def _seeded_hash(doc_ids, seed: int):
    """Deterministic per-document shuffle key: FNV-1a of doc_id mixed
    with the seed (splitmix-style finalizer). Depends ONLY on
    (seed, doc_id), so the induced global order is identical across
    physical layouts and re-runs; a different seed is a fresh
    permutation — training epochs reshuffle without materializing an
    index."""
    import numpy as np

    from ..core.hashing import fnv1a64

    h = fnv1a64(pc.cast(doc_ids, pa.string()))
    with np.errstate(over="ignore"):
        h = h ^ np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        h = h * np.uint64(0xBF58476D1CE4E5B9)
        h = h ^ (h >> np.uint64(31))
    return h


def _partition_work(table_dir: str, cur: mf.TableManifest) -> list[dict]:
    work = []
    for p in sorted(cur.partitions, key=int):
        e = cur.partitions[p]
        rels = mf.entry_rels(e)
        if rels and e.get("rows"):
            work.append({"part": int(p), "files": rels})
    return work


def export_training(
    table_dir: str,
    out_dir: str,
    cap: int = 2048,
    fs: StorageAdapter | None = None,
    epoch: int | str | None = None,
    shuffle_seed: int | None = None,
) -> dict[str, Any]:
    """Export the committed table's token streams as packed ``cap``-length
    training chunks under ``out_dir`` (parquet + ``_EXPORT.json`` marker).
    Returns the marker dict. Refuses an ``out_dir`` that already carries a
    completed export (immutable artifacts; export to a fresh dir).

    ``epoch`` (an int or a snapshot tag name) exports AS OF that retained
    manifest — tag a training release once, re-export its byte-identical
    chunks forever, however far the live table has moved on.

    ``shuffle_seed`` replaces the (partition, doc_id) document order with
    a seeded hash order — the deterministic global shuffle a training run
    wants before packing (documents that were adjacent in the lake stop
    being adjacent in the shard). Same seed + same committed (epoch, rev)
    → byte-identical chunks, across re-runs AND physical layouts; a new
    seed is a fresh permutation (per-training-epoch reshuffle without a
    shuffle index or an all-to-all ``random_shuffle`` of the payload —
    the only extra cost is hashing doc_ids, and the packing groupby
    exchanges the same bytes it always did)."""
    from ..pipelines.tokens import chunk_sized_tokens
    from .cdc import _resolve_manifest

    fs = default_fs(fs)
    cur = _resolve_manifest(table_dir, epoch, fs)
    if cur is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    for need in ("tokens", "n_tok"):
        if need not in cur.schema.names:
            raise ValueError(f"table has no {need!r} column: {cur.schema.names}")
    if fs.exists(os.path.join(out_dir, EXPORT_MARKER)):
        raise FileExistsError(
            f"completed export already at {out_dir}; export to a fresh dir")
    debris = fs.list_files(out_dir)
    if debris:
        # a crashed export left files but no marker: re-running into the
        # same dir would MERGE stale chunks into the new export (duplicate
        # chunk_ids read back as silently corrupt training data)
        raise FileExistsError(
            f"{out_dir} holds {len(debris)} file(s) from an incomplete "
            "export; remove them or export to a fresh dir")
    work = _partition_work(table_dir, cur)
    b64 = cur.schema_b64

    def totals(item: dict) -> dict:
        """``{"bucket": [...], "total": [...]}`` token totals of one
        partition: its own bucket, or its occupied shuffle buckets."""
        import numpy as np

        schema = mf.schema_from_b64(b64)
        t = _load_state(table_dir, item["files"], schema, fs,
                        columns=[c for c in _SIZE_COLUMNS if c in schema.names])
        if t is None or t.num_rows == 0:
            return {"bucket": [item["part"]], "total": [0]}
        if shuffle_seed is None:
            return {"bucket": [item["part"]],
                    "total": [int(pc.sum(t["n_tok"]).as_py() or 0)]}
        # per-SHUFFLE-bucket partial sums: O(256) entries per partition
        # task, summed across partitions on the driver
        b = (_seeded_hash(t["doc_id"], shuffle_seed)
             % np.uint64(_SHUFFLE_BUCKETS)).astype(np.int64)
        w = pc.cast(t["n_tok"], pa.int64()).to_numpy(zero_copy_only=False)
        # int64 accumulation: bincount(weights=) sums in float64,
        # exact only below 2^53 per bucket — not good enough for
        # the 10^10-doc base offsets this feeds (ADVICE r3)
        sums = np.zeros(_SHUFFLE_BUCKETS, dtype=np.int64)
        np.add.at(sums, b, w)
        # emit every OCCUPIED bucket, not every positive-sum one:
        # a bucket whose docs all have n_tok=0 still forms a
        # packing group in pass 2 and needs a base-offset entry
        occ = np.flatnonzero(np.bincount(b, minlength=_SHUFFLE_BUCKETS))
        return {"bucket": occ.tolist(), "total": sums[occ].tolist()}

    rows = run_tasks(totals, work)  # O(P [× 256 shuffled]) count metadata
    per_bucket = pd.DataFrame(
        {k: [v for r in rows for v in r[k]] for k in ("bucket", "total")},
        dtype="int64").groupby("bucket", as_index=False)["total"].sum()
    total_tokens = int(per_bucket["total"].sum()) if len(per_bucket) else 0

    def sized(batch: pa.Table) -> pa.Table:
        import numpy as np

        schema = mf.schema_from_b64(b64)
        outs = []
        for row in batch.to_pylist():
            t = _load_state(table_dir, row["files"], schema, fs)
            if t is None or t.num_rows == 0:
                continue
            cols = {
                "doc_id": pc.cast(t["doc_id"], pa.string()),
                "tokens": t["tokens"],
                "n_tok": pc.cast(t["n_tok"], pa.int64()),
            }
            if shuffle_seed is None:
                cols["bucket"] = pa.array([row["part"]] * t.num_rows, pa.int64())
            else:
                h = _seeded_hash(t["doc_id"], shuffle_seed)
                cols["bucket"] = pa.array(
                    (h % np.uint64(_SHUFFLE_BUCKETS)).astype(np.int64))
                cols["skey"] = pa.array(h)
            outs.append(pa.table(cols))
        if not outs:
            empty = {"doc_id": pa.array([], pa.string()),
                     "tokens": pa.array([], pa.list_(pa.int32())),
                     "n_tok": pa.array([], pa.int64()),
                     "bucket": pa.array([], pa.int64())}
            if shuffle_seed is not None:
                empty["skey"] = pa.array([], pa.uint64())
            return pa.table(empty)
        return pa.concat_tables(outs, promote_options="default")

    if work:
        stream = ray.data.from_items(work).map_batches(
            sized, batch_size=1, batch_format="pyarrow",
            retry_exceptions=True, max_retries=4)
        order = None if shuffle_seed is None else ["skey", "doc_id"]
        chunks = chunk_sized_tokens(stream, cap, per_bucket=per_bucket,
                                    order_cols=order)
        chunks.write_parquet(out_dir, filesystem=fs.fs)  # same FS as the marker
    marker = {
        "table": table_dir,
        "epoch": cur.epoch,
        "rev": cur.rev,
        "cap": cap,
        "shuffle_seed": shuffle_seed,
        "total_tokens": total_tokens,
        "chunks": -(-total_tokens // cap) if total_tokens else 0,
        "docs": sum(int(e.get("rows", 0)) for e in cur.partitions.values()),
    }
    fs.makedirs(out_dir)
    fs.atomic_write_bytes(os.path.join(out_dir, EXPORT_MARKER),
                          json.dumps(marker).encode())
    return marker


def read_training_export(
    out_dir: str, fs: StorageAdapter | None = None
) -> ray.data.Dataset:
    """The exported chunks as a Dataset — gated on the ready marker, so a
    half-written export is invisible to consumers."""
    fs = default_fs(fs)
    if not fs.exists(os.path.join(out_dir, EXPORT_MARKER)):
        raise FileNotFoundError(f"no completed export at {out_dir}")
    return ray.data.read_parquet(out_dir, filesystem=fs.fs,
                                 file_extensions=["parquet"])
