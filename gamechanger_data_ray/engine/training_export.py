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

Scale shape: two passes, each one ``engine/cdc.py::scan_partitions``
over the committed manifest, neither materializing the corpus —

- pass 1 reads ONLY ``(doc_id, n_tok)`` (column projection holds even
  under merge-on-read: a delta stack adds just the merge columns); each
  partition returns the token totals of its occupied buckets, and the
  driver prefix-sums those O(P) rows;
- pass 2 reads ``(doc_id, tokens, n_tok)``; each partition returns its
  rows sized and bucketed (typed even when empty), each document slices
  itself into chunk pieces at global offsets, and a chunk-range groupby
  assembles 64 chunks per task (``pipelines/tokens.py::
  chunk_sized_tokens``, the shared kernel).

A table with no live row skips pass 2 and writes only the marker.

Output is partitioned parquet plus an ``_EXPORT.json`` ready marker
(same consumer-gating pattern as the changelog's ``_MANIFEST.json``):
a crashed export leaves no marker and a re-run into a fresh dir is the
recovery path.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..state.fs import StorageAdapter, default_fs, parquet_encodings
from .cdc import _resolve_manifest, scan_partitions

EXPORT_MARKER = "_EXPORT.json"

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
    from ..core.hashing import fnv1a64

    h = fnv1a64(pc.cast(doc_ids, pa.string()))
    with np.errstate(over="ignore"):
        h = h ^ np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        h = h * np.uint64(0xBF58476D1CE4E5B9)
        h = h ^ (h >> np.uint64(31))
    return h


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
    from ..pipelines.tokens import CHUNK_SCHEMA, chunk_sized_tokens

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
    def read(cols: list[str]) -> pa.Schema:
        return pa.schema([cur.schema.field(c) for c in cols])

    def buckets(t: pa.Table, part: int):
        """(packing bucket, shuffle key or None) of each row: the
        partition id, or the row's seeded-hash shuffle bucket."""
        if shuffle_seed is None:
            return np.full(t.num_rows, part, dtype=np.int64), None
        h = _seeded_hash(t["doc_id"], shuffle_seed)
        return (h % np.uint64(_SHUFFLE_BUCKETS)).astype(np.int64), h

    def totals(t: pa.Table, part: int) -> pa.Table:
        """Token totals of the partition's OCCUPIED buckets (an empty
        partition occupies none): its own bucket, or up to 256 shuffle
        buckets, summed across partitions on the driver. A bucket whose
        docs all have n_tok=0 still forms a packing group in pass 2 and
        needs a base-offset entry."""
        occ, inv = np.unique(buckets(t, part)[0], return_inverse=True)
        # int64 accumulation: bincount(weights=) sums in float64, exact
        # only below 2^53 per bucket — not enough for the base offsets
        # of a 10^10-doc corpus
        w = pc.fill_null(pc.cast(t["n_tok"], pa.int64()), 0).to_numpy()
        sums = np.zeros(len(occ), dtype=np.int64)
        np.add.at(sums, inv, w)
        return pa.table({"bucket": occ, "total": sums})

    # pass 1: O(P [× 256 shuffled]) count rows; tokens are never read
    rows = scan_partitions(table_dir, cur, fs, read(["doc_id", "n_tok"]),
                           totals).to_pandas()
    per_bucket = (None if rows.empty  # no live row anywhere
                  else rows.groupby("bucket", as_index=False)["total"].sum())
    total_tokens = int(per_bucket["total"].sum()) if per_bucket is not None else 0

    def sized(t: pa.Table, part: int) -> pa.Table:
        b, h = buckets(t, part)
        cols = {
            "doc_id": pc.cast(t["doc_id"], pa.string()),
            "tokens": t["tokens"],
            "n_tok": pc.cast(t["n_tok"], pa.int64()),
            "bucket": pa.array(b),
        }
        if h is not None:
            cols["skey"] = pa.array(h)
        return pa.table(cols)

    if per_bucket is not None:
        stream = scan_partitions(table_dir, cur, fs,
                                 read(["doc_id", "tokens", "n_tok"]), sized)
        order = None if shuffle_seed is None else ["skey", "doc_id"]
        chunks = chunk_sized_tokens(stream, cap, per_bucket=per_bucket,
                                    order_cols=order)
        # same FS as the marker, same encodings as the engine's data files
        chunks.write_parquet(out_dir, filesystem=fs.fs,
                             **parquet_encodings(CHUNK_SCHEMA))
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
