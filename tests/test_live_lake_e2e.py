"""End-to-end 'live training lake': gated ingest (quality → decontam →
exact-dup chain) feeding a SUBSCRIBED maintained training view, with the
autopilot converging the whole thing — the round-4 feature set as one
story. Asserts the final training shards contain exactly the clean
corpus, token-for-token."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from gamechanger_data_ray.core.changelog import READY_MARKER, epoch_dir
from gamechanger_data_ray.engine.autopilot import plan
from gamechanger_data_ray.engine.cdc import table_to_arrow
from gamechanger_data_ray.engine.dedup_index import content_index_view
from gamechanger_data_ray.engine.ingest_gate import (
    MATCH_COLUMN,
    read_quarantine,
    replay_gated,
)
from gamechanger_data_ray.engine.subscriptions import subscribe
from gamechanger_data_ray.engine.training_view import (
    load_marker,
    read_training_view,
)
from gamechanger_data_ray.engine.views import refresh

L = 4
P = 4


def _tokens(seed, n=40):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 900, size=n).astype(int).tolist()


def _events(rows):
    op, lsn, seq, doc, toks = zip(*rows)
    return pa.table({
        "op": pa.array(op, pa.string()),
        "lsn": pa.array(lsn, pa.int64()),
        "seq": pa.array(seq, pa.int64()),
        "doc_id": pa.array(doc, pa.string()),
        "tokens": pa.array([list(t) if t is not None else None
                            for t in toks], pa.list_(pa.int32())),
        "n_tok": pa.array([len(t) if t is not None else 0 for t in toks],
                          pa.int32()),
    })


def _write_epoch(cl, epoch, table):
    d = epoch_dir(cl, epoch)
    os.makedirs(d, exist_ok=True)
    pq.write_table(table, os.path.join(d, "part-00000.parquet"))
    with open(os.path.join(d, READY_MARKER), "w") as f:
        json.dump({"epoch": epoch}, f)


def test_gated_ingest_feeds_subscribed_training_view(tmp_path):
    tb, idx, tview = (str(tmp_path / "tb"), str(tmp_path / "dupidx"),
                      str(tmp_path / "tview"))
    bench_seq = [700, 701, 702, 703, 704]
    bench = str(tmp_path / "bench.parquet")
    pq.write_table(pa.table({"tokens": pa.array([bench_seq],
                                                pa.list_(pa.int32()))}), bench)

    cl = str(tmp_path / "cl")
    base = _tokens(1)
    clean2, clean3 = _tokens(2), _tokens(3)
    _write_epoch(cl, 1, _events([
        ("I", 1, 0, "base", list(base)),
        ("I", 1, 1, "clean2", list(clean2)),
    ]))
    dirty = [9, 9, 701, 702, 703, 704] + _tokens(4, 20)
    _write_epoch(cl, 2, _events([
        ("I", 2, 0, "short", [1, 2, 3]),            # quality reject
        ("I", 2, 1, "leak", list(dirty)),            # decontam reject
        ("I", 2, 2, "copy", list(base)),             # exact-dup reject
        ("I", 2, 3, "clean3", list(clean3)),         # survives
    ]))

    # standing consumers BEFORE ingest: the exact-dup gate index (the
    # gate maintains it per epoch) and the subscribed training view
    subscribe(tb, "training", tview, params={"cap": 16, "seed": 5})
    out = replay_gated(
        cl, tb, idx, num_partitions=P,
        mode=["quality", "decontam", "exact"],
        bench_path=bench, ngram=L, min_tok=5)
    assert out["applied_epochs"] == [1, 2]
    assert out["suppressed"] == 3 and out["applied_events"] == 2 + 1

    # the table holds exactly the clean corpus
    ids = set(table_to_arrow(tb)["doc_id"].to_pylist())
    assert ids == {"base", "clean2", "clean3"}

    # one quarantine row per reject, first flag wins, right reason class
    q = read_quarantine(tb, 2)
    got = dict(zip(q["doc_id"].to_pylist(), q[MATCH_COLUMN].to_pylist()))
    assert got["short"].startswith("quality:")
    assert got["leak"].startswith("contaminated:")
    assert got["copy"] == "base"

    # gated ingest synced the subscriber: the training view is at the
    # committed epoch with exactly the clean corpus' tokens
    marker = load_marker(tview)
    assert marker is not None and marker["epoch"] == 2
    want = len(base) + len(clean2) + len(clean3)
    assert marker["total_tokens"] == want
    chunks = pa.concat_tables(read_training_view(tview).iter_batches(
        batch_size=None, batch_format="pyarrow"))
    assert sum(chunks["n_tok"].to_pylist()) == want
    # multiset of tokens in the shards == multiset in the clean corpus
    flat = sorted(x for t in chunks["tokens"].to_pylist() for x in t)
    assert flat == sorted(base + clean2 + clean3)

    # nothing left for the autopilot: the lake is converged
    assert [a for a in plan(tb) if a["op"] == "sync"] == []

    # the dedup index itself can also be declared (idempotent refresh)
    refresh(content_index_view(), idx, tb, num_partitions=P)
    assert [a for a in plan(tb) if a["op"] == "sync"] == []
