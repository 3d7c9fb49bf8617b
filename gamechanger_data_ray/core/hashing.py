"""Hashing / partitioning utilities (vectorized).

- ``partition_ids``: stable hash(doc_id) % P — the one partitioning key the
  whole engine reuses (merge, dedup, revocation sweep; SURVEY.md §7.4).
- ``version_hash_column``: sha256 content hash per row — analog of
  ``dict_to_sha256_hex_digest`` (``dataPipelines/gc_ingest/tools/metadata/metadata.py:9-28``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# FNV-1a 64-bit, vectorized over bytes via numpy — stable across processes
# and Python versions (unlike hash()).
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


@np.errstate(over="ignore")  # scoped, not process-global
def fnv1a64(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Stable 64-bit hash of a string array → uint64 numpy array."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    s = arr.cast(pa.large_binary())
    buf = np.frombuffer(s.buffers()[2], dtype=np.uint8) if s.buffers()[2] is not None else np.empty(0, np.uint8)
    offs = np.frombuffer(s.buffers()[1], dtype=np.int64)[s.offset : s.offset + len(s) + 1]
    out = np.full(len(s), _FNV_OFFSET, dtype=np.uint64)
    # byte-position loop bounded by max string length; each iteration is
    # vectorized over all rows that still have a byte at position i —
    # every row below the shortest length, so those positions need no mask
    starts = offs[:-1]
    lens = offs[1:] - starts
    minlen = int(lens.min()) if len(lens) else 0
    maxlen = int(lens.max()) if len(lens) else 0
    for i in range(minlen):
        out ^= buf[starts + i]
        out *= _FNV_PRIME
    for i in range(minlen, maxlen):
        live = lens > i
        out[live] = (out[live] ^ buf[starts[live] + i]) * _FNV_PRIME
    return out


@np.errstate(over="ignore")  # scoped, not process-global
def partition_ids(keys: pa.Array | pa.ChunkedArray, num_partitions: int) -> pa.Array:
    """hash(key) % P as an int32 Arrow array. String keys use FNV-1a;
    integer keys use a Fibonacci/splitmix-style multiplicative hash."""
    typ = keys.type
    if pa.types.is_integer(typ):
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        v = keys.cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.uint64)
        h = v * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(32)
    else:
        h = fnv1a64(keys)
    return pa.array((h % np.uint64(num_partitions)).astype(np.int32))


def sha256_hex(values: list[str]) -> list[str]:
    return [hashlib.sha256(v.encode("utf-8")).hexdigest() for v in values]


def version_hash_column(t: pa.Table, cols: list[str]) -> pa.Array:
    """sha256 hex of the concatenated string forms of ``cols`` per row.

    Matches DuckDB ``sha256(col1 || '|' || col2 ...)`` for oracle checks.
    """
    parts = [pc.cast(t.column(c), pa.string()) for c in cols]
    joined = parts[0]
    for p in parts[1:]:
        joined = pc.binary_join_element_wise(joined, p, "|")
    return pa.array(sha256_hex(joined.to_pylist()), pa.string())


def state_content_sig(t: "pa.Table") -> str:
    """Order-independent identity of one partition's RESOLVED live state:
    XOR of fnv1a64("doc_id|lsn|seq") over rows, plus the row count —
    ``"xorhex:count"``. (lsn, seq) is the engine's change clock (every
    payload change arrives as an event with a new position), so two
    physical layouts of the same logical state — an MOR stack and its
    compacted rewrite, a clustered re-order, a dropped unrelated column —
    produce the SAME sig, while any upsert/delete/backfill moves it.
    Computable from the skinny merge index alone (no payload read)."""
    if t.num_rows == 0:
        return "0:0"
    joined = pc.binary_join_element_wise(
        pc.cast(t["doc_id"], pa.string()),
        pc.cast(t["lsn"], pa.string()),
        pc.cast(t["seq"], pa.string()), "|")
    h = fnv1a64(joined)
    x = np.bitwise_xor.reduce(h)
    return f"{int(x):016x}:{t.num_rows}"
