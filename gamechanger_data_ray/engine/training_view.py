"""Maintained training view: packed ``cap``-length chunks that FOLLOW
the table — refresh cost O(changed partitions), not O(corpus).

``training_export`` is the snapshot path: two passes over every
partition, a global prefix-sum, byte-exact but always full-corpus. A
live token lake re-exporting after every ingest epoch pays that full
cost to move a sliver of data. This module maintains the packed chunks
incrementally by making the packing unit the STORAGE PARTITION:

- documents are already hash-routed to partitions by doc_id (the CDC
  exchange), so each partition is a uniform random sample of the corpus
  — a partition-local pack is statistically the same mix a global
  seeded shuffle produces, minus cross-partition adjacency;
- within a bucket, docs order by the same seeded hash the snapshot
  export uses (``training_export._seeded_hash``), then concat-and-chunk
  at ``cap`` tokens. Chunks never span buckets, so a changed document
  perturbs exactly one bucket's files;
- a refresh fingerprints each partition's manifest entry (base file +
  deltas — committed metadata only) and re-packs ONLY buckets whose
  fingerprint moved; everything else keeps its existing file untouched.

Trade-off vs the snapshot export, stated plainly: each bucket carries
its own short tail chunk (≤1 per bucket, vs 1 global), and a new
``seed`` reshuffles within buckets, not across them — a training run
that wants the stronger global permutation takes a fresh
``export_training(shuffle_seed=...)`` snapshot.

Determinism / idempotence: bucket files are named by
(fingerprint, cap, seed) digest, so the same committed state always
produces the same file at the same path — a crashed or raced refresh
rewrites identical bytes, and "refresh chain" ≡ "fresh create at head"
byte-for-byte (tested). Readers are gated on the ``_TRAINING.json``
marker and read the file LIST in it, so superseded files (deleted
best-effort after the marker swap) are never half-read.

Wired as subscription kind ``training``: the replay tail-loop's
``sync()`` (and the autopilot's stale-subscriber probe) keep the packed
chunks current with every commit — the reference's "re-run the corpus
export job after ingest" (``gc_ingest/pipelines/core/cli.py:152-237``)
as maintained state instead of a remembered step.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs
from .cdc import _load_state, _resolve_manifest
from .tasks import run_tasks
from .training_export import _seeded_hash

TRAINING_MARKER = "_TRAINING.json"


def _fingerprint(entry: dict, trust_sig: bool = True) -> str:
    """Committed-metadata identity of one partition's state. Preferred:
    the manifest's ``content_sig`` — the LOGICAL (resolved,
    layout-independent) identity, under which compaction / clustering /
    unrelated-column retires do NOT dirty the bucket. Fallback for
    entries that predate the sig (or coalesce tables, whose composite
    rows have no single change position): the physical identity — base
    file + delta stack + row count — which is never wrong, only
    conservative (a content-preserving rewrite triggers a re-pack that
    reproduces identical bytes)."""
    sig = entry.get("content_sig")
    if trust_sig and sig:
        return f"sig:{sig}"
    key = json.dumps({"file": entry.get("file"),
                      "deltas": list(entry.get("deltas", ())),
                      "rows": entry.get("rows", 0)}, sort_keys=True)
    return hashlib.sha1(key.encode()).hexdigest()[:16]


def _norm_mixture(mixture: dict[str, float] | None) -> dict[str, float] | None:
    """Validated canonical form: weights in (0, 1], sorted keys. A weight
    of 1.0 is the implicit default for unlisted sources; >1 would need
    doc repetition (a different artifact) and refuses."""
    if not mixture:
        return None
    out = {}
    for k in sorted(mixture):
        w = float(mixture[k])
        if not (0.0 < w <= 1.0):
            raise ValueError(
                f"mixture weight for {k!r} must be in (0, 1], got {w} "
                "(upsampling >1 needs repetition — export that separately)")
        out[str(k)] = w
    return out


# salt for mixture membership, deliberately NOT the shuffle seed: a new
# shuffle seed re-orders chunks without changing which docs are sampled
_MIXTURE_SALT = 0x6D697874


def _bucket_rel(part: int, fp: str, cap: int, seed: int,
                mixture: dict[str, float] | None) -> str:
    mix = json.dumps(mixture, sort_keys=True) if mixture else ""
    tag = hashlib.sha1(f"{fp}|{cap}|{seed}|{mix}".encode()).hexdigest()[:12]
    return os.path.join(f"bucket={part:05d}", f"chunks-{tag}.parquet")


def _pack_bucket(
    table_dir: str, rels: list[str], part: int, schema_b64: str,
    cap: int, seed: int, out_abs: str, fs: StorageAdapter,
    mixture: dict[str, float] | None = None,
) -> dict:
    """Resolve one partition, apply the mixture sample, order docs by
    (seeded hash, doc_id), concat-and-chunk at ``cap``, write ONE parquet
    file at the deterministic path. Returns the bucket's marker entry."""
    schema = mf.schema_from_b64(schema_b64)
    t = _load_state(table_dir, rels, schema, fs)
    if t is None or t.num_rows == 0:
        return {"chunks": 0, "tokens": 0, "docs": 0, "file": None}
    if mixture:
        # hash-Bernoulli per doc on a FIXED salt: membership depends only
        # on (doc_id, mixture), so reshuffles and repacks keep the sample
        src = t["source"].to_numpy(zero_copy_only=False)
        w = np.array([mixture.get(s, 1.0) for s in src], dtype=np.float64)
        u = _seeded_hash(pc.cast(t["doc_id"], pa.string()),
                         _MIXTURE_SALT).astype(np.float64) / 2.0**64
        t = t.filter(pa.array(u < w))
        if t.num_rows == 0:
            return {"chunks": 0, "tokens": 0, "docs": 0, "file": None}
    doc_id = pc.cast(t["doc_id"], pa.string())
    h = _seeded_hash(doc_id, seed)
    order = np.lexsort((doc_id.to_numpy(zero_copy_only=False), h))
    toks = t["tokens"]
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    toks = toks.take(pa.array(order))
    flat = toks.flatten().to_numpy(zero_copy_only=False).astype(np.int32,
                                                                copy=False)
    total = len(flat)
    if total > 2**31 - 1:
        raise ValueError(
            f"partition {part} holds {total} tokens — beyond int32 list "
            "offsets; repartition the table to more partitions first")
    n_chunks = -(-total // cap) if total else 0
    if n_chunks == 0:
        return {"chunks": 0, "tokens": 0, "docs": int(t.num_rows),
                "file": None}
    # one list array over the flat buffer: offsets every cap tokens
    offs = np.minimum(np.arange(n_chunks + 1, dtype=np.int64) * cap, total)
    chunks = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                      pa.array(flat, pa.int32()))
    seqs = np.arange(n_chunks, dtype=np.int64)
    out = pa.table({
        "chunk_id": pa.array([f"{part:05d}-{s:08d}" for s in seqs]),
        "bucket": pa.array(np.full(n_chunks, part, dtype=np.int64)),
        "chunk_seq": pa.array(seqs),
        "n_tok": pa.array(np.diff(offs)),
        "tokens": chunks,
    })
    fs.makedirs(os.path.dirname(out_abs))
    fs.write_parquet_atomic(out, out_abs)  # idempotent: same state → same bytes
    return {"chunks": int(n_chunks), "tokens": int(total),
            "docs": int(t.num_rows), "file": None}


def _run_packs(table_dir: str, out_dir: str, work: list[dict],
               schema_b64: str, cap: int, seed: int,
               fs: StorageAdapter,
               mixture: dict[str, float] | None = None) -> dict[str, dict]:
    """Distribute the dirty-bucket packs (plain Ray tasks, one per
    cluster CPU, ``tasks.run_tasks``)."""
    def pack(item: dict) -> dict:
        return _pack_bucket(
            table_dir, item["files"], item["part"], schema_b64,
            cap, seed, os.path.join(out_dir, item["rel"]), fs,
            mixture=mixture)

    out: dict[str, dict] = {}
    for item, r in zip(work, run_tasks(pack, work)):
        out[str(item["part"])] = {
            "src": item["fp"], "chunks": r["chunks"], "tokens": r["tokens"],
            "docs": r["docs"], "file": item["rel"] if r["chunks"] else None}
    return out


def _write_marker(out_dir: str, marker: dict, fs: StorageAdapter) -> None:
    fs.makedirs(out_dir)
    fs.atomic_write_text(os.path.join(out_dir, TRAINING_MARKER),
                         json.dumps(marker, indent=1))


def load_marker(out_dir: str, fs: StorageAdapter | None = None) -> dict | None:
    fs = default_fs(fs)
    p = os.path.join(out_dir, TRAINING_MARKER)
    if not fs.exists(p):
        return None
    return json.loads(fs.read_text(p))


def training_view_refresh(
    out_dir: str,
    table_dir: str,
    cap: int = 2048,
    seed: int = 0,
    mixture: dict[str, float] | None = None,
    fs: StorageAdapter | None = None,
) -> dict[str, Any]:
    """Create-or-refresh the maintained training view at ``out_dir``.
    First call packs every occupied partition; later calls re-pack only
    buckets whose partition fingerprint moved since the marker's
    (epoch, rev) and delete superseded files after the marker swap.
    Returns the new marker. Fenced: marker at head (epoch, rev) → no-op;
    param drift against an existing marker refuses loudly.

    ``mixture`` down-samples by ``source``: ``{"web": 0.4}`` keeps each
    web doc with probability 0.4 by a deterministic hash-Bernoulli on
    doc_id (fixed salt — independent of ``seed``, so reshuffles keep the
    same sample); unlisted sources keep weight 1.0. Part of the view's
    identity (marker + bucket file names)."""
    fs = default_fs(fs)
    mixture = _norm_mixture(mixture)
    cur = _resolve_manifest(table_dir, None, fs)
    if cur is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    for need in ("tokens", "n_tok"):
        if need not in cur.schema.names:
            raise ValueError(f"table has no {need!r} column: {cur.schema.names}")
    if mixture and "source" not in cur.schema.names:
        raise ValueError("mixture weights need a 'source' column; table has "
                         f"{cur.schema.names}")
    prev = load_marker(out_dir, fs)
    if prev is not None:
        if (prev.get("cap"), prev.get("seed"),
                prev.get("mixture")) != (cap, seed, mixture):
            raise ValueError(
                f"training view at {out_dir} was built with cap="
                f"{prev.get('cap')} seed={prev.get('seed')} mixture="
                f"{prev.get('mixture')}; refusing cap={cap} seed={seed} "
                f"mixture={mixture} (rebuild into a fresh dir)")
        if (prev.get("epoch"), prev.get("rev")) == (cur.epoch, cur.rev):
            return prev  # already current — fenced no-op
    old_buckets: dict[str, dict] = (prev or {}).get("buckets", {})

    # coalesce tables build rows column-by-column across events — there
    # is no single (lsn, seq) change position per row, so the logical
    # content_sig can miss payload movement there; fall back to the
    # (conservative) physical fingerprint
    trust_sig = cur.epoch_counters.get("update_mode", "replace") == "replace"
    buckets: dict[str, dict] = {}
    work: list[dict] = []
    for p in sorted(cur.partitions, key=int):
        entry = cur.partitions[p]
        rels = mf.entry_rels(entry)
        if not rels or not entry.get("rows"):
            continue  # empty partition: no bucket
        fp = _fingerprint(entry, trust_sig=trust_sig)
        old = old_buckets.get(str(int(p)))
        if old is not None and old.get("src") == fp:
            buckets[str(int(p))] = old  # untouched — keep the file as-is
            continue
        work.append({"part": int(p), "files": rels, "fp": fp,
                     "rel": _bucket_rel(int(p), fp, cap, seed, mixture)})
    buckets.update(_run_packs(table_dir, out_dir, work, cur.schema_b64,
                              cap, seed, fs, mixture=mixture))

    marker = {
        "table": table_dir,
        "epoch": cur.epoch,
        "rev": cur.rev,
        "cap": cap,
        "seed": seed,
        "mixture": mixture,
        "buckets": buckets,
        "repacked": len(work),
        "total_chunks": sum(b["chunks"] for b in buckets.values()),
        "total_tokens": sum(b["tokens"] for b in buckets.values()),
        "docs": sum(b["docs"] for b in buckets.values()),
    }
    _write_marker(out_dir, marker, fs)

    # superseded files are invisible the moment the marker lands; sweep
    # by DIRECTORY LISTING against the new marker's live set (not the
    # previous marker), so orphans from any earlier crash — a pack that
    # died before its marker, a sweep that died after one — are reclaimed
    # by whichever refresh runs next. Best-effort: a failed rm is retried
    # implicitly next time, never a correctness issue (readers follow the
    # marker's file list).
    live = {b["file"] for b in buckets.values() if b.get("file")}
    for d in fs.listdir(out_dir):
        name = os.path.basename(d.rstrip("/"))
        if not name.startswith("bucket="):
            continue
        for f in fs.list_files(os.path.join(out_dir, name), suffix=".parquet"):
            rel = os.path.join(name, os.path.basename(f))
            if rel not in live:
                try:
                    fs.rm(os.path.join(out_dir, rel))
                except OSError:
                    pass
    return marker


def read_training_view(
    out_dir: str, fs: StorageAdapter | None = None,
    rank: int | None = None, world_size: int | None = None,
) -> ray.data.Dataset:
    """The maintained chunks as a Dataset — the file list comes from the
    marker, so an in-flight refresh's new files and any undeleted
    superseded files are both invisible.

    ``rank``/``world_size`` (both or neither) shard the view for a
    multi-reader training job: buckets are assigned round-robin in
    bucket order, so every rank's shard is deterministic, the shards are
    disjoint, and their union is the whole view. Balance is bucket-
    granular — ranks ≫ buckets starves ranks; size the table's
    partition count to the training world first."""
    fs = default_fs(fs)
    if (rank is None) != (world_size is None):
        raise ValueError("rank and world_size go together")
    if rank is not None and not (0 <= rank < world_size):
        raise ValueError(f"rank {rank} outside [0, {world_size})")
    marker = load_marker(out_dir, fs)
    if marker is None:
        raise FileNotFoundError(f"no training view at {out_dir}")
    occupied = sorted(
        ((int(p), b["file"]) for p, b in marker["buckets"].items()
         if b.get("file")), key=lambda x: x[0])
    if rank is not None:
        occupied = occupied[rank::world_size]
    files = [os.path.join(out_dir, f) for _, f in occupied]
    if not files:
        return ray.data.from_arrow(pa.table({
            "chunk_id": pa.array([], pa.string()),
            "bucket": pa.array([], pa.int64()),
            "chunk_seq": pa.array([], pa.int64()),
            "n_tok": pa.array([], pa.int64()),
            "tokens": pa.array([], pa.list_(pa.int32())),
        }))
    return ray.data.read_parquet(files, filesystem=fs.fs)
