"""Property test (hypothesis, in-process, no Ray) for the merge-on-read
fold: a commit that resolves a partition's delta stack into a new base
(``_merge_one_partition(policy="fold")``) must give what a delta commit
followed by a compaction of the whole stack gives — the worker side
(``_merge_one_partition(policy="delta")``, then a
``maintenance._rewrite_partitions``-style rewrite of base + deltas through
``partition_entry``) and the driver side (``fold_entry`` of both rows).

Histories are random: I/U/D events over a few keys, lsn drawn from a small
range so late events and duplicate (lsn, seq) pairs occur, delete-only
epochs, an optional copy-on-write base under the deltas, and a column that
appears mid-stream (schema evolution)."""

from __future__ import annotations

import hashlib
import os
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

from gamechanger_data_ray.core.merge import lww_reduce_weighted
from gamechanger_data_ray.core.reconcile import conform, unify_schemas
from gamechanger_data_ray.engine.cdc import (
    COUNTER_KEYS,
    _load_state,
    _merge_one_partition,
    fold_entry,
    partition_entry,
)
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.fs import StorageAdapter

EVENT = st.tuples(st.sampled_from("IUD"), st.sampled_from([f"k{i}" for i in range(6)]),
                  st.integers(1, 4), st.integers(0, 3), st.integers(0, 99))
# (events, whether the epoch carries the evolved column)
EPOCH = st.tuples(st.lists(EVENT, min_size=1, max_size=8), st.booleans())


def _events(evs: list, evolved: bool) -> pa.Table:
    cols = {"op": [e[0] for e in evs],
            "lsn": pa.array([e[2] for e in evs], pa.int64()),
            "seq": pa.array([e[3] for e in evs], pa.int64()),
            "doc_id": [e[1] for e in evs],
            "n_tok": pa.array([e[4] for e in evs], pa.int64())}
    if evolved:
        cols["lang"] = [f"l{e[4] % 3}" for e in evs]
    return pa.table(cols)


def _sha(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@settings(max_examples=40, deadline=None)
@given(st.lists(EPOCH, min_size=1, max_size=4), EPOCH, st.booleans())
def test_fold_equals_delta_commit_then_compaction(history, last, cow_base):
    fs = StorageAdapter()
    with tempfile.TemporaryDirectory() as td:
        schema, prev = None, {}
        for e, (evs, evolved) in enumerate(history, 1):
            t = _events(evs, evolved)
            schema = t.schema if schema is None else unify_schemas(schema, t.schema)
            policy = "rewrite" if cow_base and e == 1 else "delta"
            row = _merge_one_partition(0, lww_reduce_weighted(conform(t, schema)),
                                       mf.entry_rels(prev), td, e, schema, policy, fs)
            prev = fold_entry(prev, row)
        epoch = len(history) + 1
        t = _events(*last)
        schema = unify_schemas(schema, t.schema)
        events = lww_reduce_weighted(conform(t, schema))
        rels = mf.entry_rels(prev)

        folded = _merge_one_partition(0, events, rels, td, epoch, schema, "fold", fs)
        delta = _merge_one_partition(0, events, rels, td, epoch, schema, "delta", fs)
        compacted = partition_entry(
            _load_state(td, [*rels, delta["delta"]], schema, fs), td,
            f"part=00000/data-e{epoch:06d}r001.parquet", fs)

        assert folded["file"] == f"part=00000/data-e{epoch:06d}.parquet"
        assert {k: folded[k] for k in COUNTER_KEYS} == {k: delta[k] for k in COUNTER_KEYS}
        for k in ("rows", "key_min", "key_max", "content_sig", "col_stats", "col_sketch"):
            assert folded[k] == compacted[k], k
        got = fold_entry(prev, folded)
        want = fold_entry(fold_entry(prev, delta), compacted)
        assert got.pop("file") == folded["file"]
        assert want.pop("file") == compacted["file"]
        assert got == want
        # the new base and its sidecar are the compaction's, byte for byte
        a, b = (os.path.join(td, r["file"]) for r in (folded, compacted))
        assert pq.read_table(a).equals(pq.read_table(b))
        assert _sha(a) == _sha(b)
        assert _sha(a + ".bloom") == _sha(b + ".bloom")
