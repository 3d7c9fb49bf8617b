"""Decontam ingest screen (engine/ingest_gate.py::DecontamScreen): eval
-benchmark n-gram contamination as a standing ingest invariant. Oracle is
a naive python window scan; chain semantics, boundary masking, byte-exact
hash-collision confirm, quarantine payload retention + readmit, and the
CLI path are each pinned."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from gamechanger_data_ray.engine.cdc import table_to_arrow
from gamechanger_data_ray.engine.ingest_gate import (
    JACCARD_COLUMN,
    MATCH_COLUMN,
    DecontamScreen,
    read_quarantine,
    replay_gated,
    screen_events,
)

L = 4  # contamination window for the tests


def _events(rows):
    op, lsn, seq, doc, toks = zip(*rows)
    return pa.table({
        "op": pa.array(op, pa.string()),
        "lsn": pa.array(lsn, pa.int64()),
        "seq": pa.array(seq, pa.int64()),
        "doc_id": pa.array(doc, pa.string()),
        "tokens": pa.array(
            [list(t) if t is not None else None for t in toks],
            pa.list_(pa.int32())),
    })


def _bench(tmp_path, seqs, name="bench.parquet"):
    p = str(tmp_path / name)
    pq.write_table(
        pa.table({"tokens": pa.array(seqs, pa.list_(pa.int32()))}), p)
    return p


def _naive_contaminated(payload, bench_seqs, window=L):
    """Oracle: distinct bench windows appearing verbatim in payload."""
    bench_wins = set()
    for s in bench_seqs:
        for i in range(len(s) - window + 1):
            bench_wins.add(tuple(s[i:i + window]))
    hits = set()
    for i in range(len(payload) - window + 1):
        w = tuple(payload[i:i + window])
        if w in bench_wins:
            hits.add(w)
    return hits


def _collect(ds) -> pa.Table:
    return pa.concat_tables(ds.iter_batches(batch_size=None, batch_format="pyarrow"))


def _annotated(tmp_path, events, bench_seqs, **kw):
    bp = _bench(tmp_path, bench_seqs)
    t = _collect(screen_events(
        ray.data.from_arrow(events), str(tmp_path / "tb"), None,
        mode="decontam", bench_path=bp, ngram=L, **kw,
    ))
    return dict(zip(t["doc_id"].to_pylist(), t[MATCH_COLUMN].to_pylist())), t


def test_screen_matches_naive_oracle_and_masks_row_boundaries(tmp_path):
    bench = [[10, 11, 12, 13, 14, 15], [900, 901, 902, 903]]
    rows = [
        # contains bench window [11,12,13,14]
        ("I", 1, 0, "hit-mid", [1, 2, 11, 12, 13, 14, 3]),
        # exactly one bench sequence verbatim → 3 distinct windows
        ("I", 1, 1, "hit-all", [10, 11, 12, 13, 14, 15]),
        # clean
        ("I", 1, 2, "clean", [5, 6, 7, 8, 9, 20, 21, 22]),
        # ends with the PREFIX of a bench window; next row STARTS with
        # its suffix — a flat-buffer window would straddle the boundary
        ("I", 1, 3, "prefix", [7, 7, 900, 901]),
        ("I", 1, 4, "suffix", [902, 903, 7, 7]),
        # shorter than the window
        ("I", 1, 5, "short", [900, 901, 902]),
        # deletes and null payloads pass
        ("D", 1, 6, "gone", None),
    ]
    got, t = _annotated(tmp_path, _events(rows), bench)
    payloads = {d: toks for _, _, _, d, toks in rows if toks is not None}
    for did, toks in payloads.items():
        naive = _naive_contaminated(toks, bench)
        if naive:
            assert got[did] == f"contaminated:ngram={L}:hits={len(naive)}", did
        else:
            assert got[did] is None, did
    assert got["gone"] is None
    assert got["hit-all"].endswith("hits=3")
    # jaccard stays null for every row (reason screen, not a dup screen)
    assert t[JACCARD_COLUMN].null_count == t.num_rows


def test_chained_quality_then_decontam_first_flag_wins(tmp_path):
    bench = [[50, 51, 52, 53]]
    rows = [
        # too short AND contaminated → quality flags first
        ("I", 1, 0, "both", [50, 51, 52, 53]),
        # long enough but contaminated → decontam flags
        ("I", 1, 1, "dirty", list(range(100, 110)) + [50, 51, 52, 53]),
        ("I", 1, 2, "ok", list(range(200, 215))),
    ]
    bp = _bench(tmp_path, bench)
    t = _collect(screen_events(
        ray.data.from_arrow(_events(rows)), str(tmp_path / "tb"), None,
        mode=["quality", "decontam"], bench_path=bp, ngram=L, min_tok=10,
    ))
    got = dict(zip(t["doc_id"].to_pylist(), t[MATCH_COLUMN].to_pylist()))
    assert got["both"].startswith("quality:n_tok=4<10")
    assert got["dirty"] == f"contaminated:ngram={L}:hits=1"
    assert got["ok"] is None


def test_hash_collision_rejected_by_byte_confirm(tmp_path, monkeypatch):
    """Two different windows forced to the same hash: only the byte-equal
    one may quarantine."""
    import gamechanger_data_ray.engine.ingest_gate as ig

    bp = _bench(tmp_path, [[1, 2, 3, 4]])
    screen = ig.DecontamScreen(bench_path=bp, ngram=L, tokens_column="tokens")
    # constant hash → every window is a candidate; confirm must save us
    screen.hash_sorted = np.zeros(1, dtype=np.uint64)
    screen.wins_sorted = np.array([[1, 2, 3, 4]], dtype="<u4")
    screen._mask = np.ones_like(screen._mask)  # prefilter passes all
    screen._hash_windows = lambda toks, w: np.zeros(
        max(0, len(toks) - w + 1), dtype=np.uint64)
    t = _events([
        ("I", 1, 0, "real", [9, 1, 2, 3, 4]),
        ("I", 1, 1, "collider", [5, 6, 7, 8, 9]),
    ])
    out = screen(t)
    got = dict(zip(out["doc_id"].to_pylist(), out[MATCH_COLUMN].to_pylist()))
    assert got["real"] == f"contaminated:ngram={L}:hits=1"
    assert got["collider"] is None


def test_hash_collision_group_confirms_each_member(tmp_path):
    """Two DISTINCT bench windows sharing one hash (a collision group in
    hash_sorted): the byte-exact confirm must match each group member,
    and a third window with the same hash but different bytes must not
    flag."""
    import gamechanger_data_ray.engine.ingest_gate as ig

    screen = ig.DecontamScreen.from_state(
        {"hash_sorted": np.zeros(2, dtype=np.uint64),
         "wins_sorted": np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype="<u4"),
         "mask": np.ones(1 << 22, dtype=bool)},
        ngram=L, tokens_column="tokens")
    screen._hash_windows = lambda toks, w: np.zeros(
        max(0, len(toks) - w + 1), dtype=np.uint64)
    t = _events([
        ("I", 1, 0, "hits-first", [9, 1, 2, 3, 4]),
        ("I", 1, 1, "hits-second", [5, 6, 7, 8, 9]),
        ("I", 1, 2, "hits-both", [1, 2, 3, 4, 5, 6, 7, 8]),
        ("I", 1, 3, "collider", [20, 21, 22, 23, 24]),
    ])
    out = screen(t)
    got = dict(zip(out["doc_id"].to_pylist(), out[MATCH_COLUMN].to_pylist()))
    assert got["hits-first"] == f"contaminated:ngram={L}:hits=1"
    assert got["hits-second"] == f"contaminated:ngram={L}:hits=1"
    assert got["hits-both"] == f"contaminated:ngram={L}:hits=2"
    assert got["collider"] is None


def test_broadcast_state_path_matches_self_built(tmp_path):
    """screen_events with a pre-broadcast decontam_state_ref (the
    replay_gated path: build once, ray.put, plain tasks) annotates
    identically to the build-per-call path."""
    import ray

    from gamechanger_data_ray.engine.ingest_gate import build_decontam_state

    bench = [[10, 11, 12, 13, 14], [700, 701, 702, 703]]
    rows = [
        ("I", 1, 0, "dirty", [1, 11, 12, 13, 14, 2]),
        ("I", 1, 1, "clean", list(range(300, 312))),
    ]
    bp = _bench(tmp_path, bench)
    ref = ray.put(build_decontam_state(bp, ngram=L, tokens_column="tokens"))
    t_ref = _collect(screen_events(
        ray.data.from_arrow(_events(rows)), str(tmp_path / "tb"), None,
        mode="decontam", bench_path=bp, ngram=L, decontam_state_ref=ref,
    )).sort_by("seq")
    t_own = _collect(screen_events(
        ray.data.from_arrow(_events(rows)), str(tmp_path / "tb"), None,
        mode="decontam", bench_path=bp, ngram=L,
    )).sort_by("seq")
    assert t_ref.equals(t_own)
    got = dict(zip(t_ref["doc_id"].to_pylist(),
                   t_ref[MATCH_COLUMN].to_pylist()))
    assert got["dirty"] == f"contaminated:ngram={L}:hits=1"
    assert got["clean"] is None


from hypothesis import given, settings
from hypothesis import strategies as st

_SMALL_VOCAB = st.integers(0, 6)  # tiny vocab → dense accidental overlaps
_SEQ = st.lists(_SMALL_VOCAB, min_size=0, max_size=12)


@given(
    bench=st.lists(_SEQ, min_size=1, max_size=4),
    payloads=st.lists(_SEQ, min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_decontam_screen_matches_naive_oracle_property(tmp_path_factory,
                                                       bench, payloads):
    """Property: over a tiny vocabulary (dense accidental window overlap,
    shared prefixes/suffixes straddling row boundaries, empty and
    sub-window rows) the vectorized state build + flat-buffer screen
    reports EXACTLY the naive per-row window scan — same flagged set,
    same distinct-hit counts."""
    import gamechanger_data_ray.engine.ingest_gate as ig

    d = tmp_path_factory.mktemp("prop")
    bp = _bench(d, bench, name="b.parquet")
    screen = ig.DecontamScreen(bench_path=bp, ngram=L, tokens_column="tokens")
    rows = [("I", 1, i, f"d{i}", toks) for i, toks in enumerate(payloads)]
    out = screen(_events(rows))
    got = dict(zip(out["doc_id"].to_pylist(), out[MATCH_COLUMN].to_pylist()))
    for i, toks in enumerate(payloads):
        naive = _naive_contaminated(toks, bench)
        want = (f"contaminated:ngram={L}:hits={len(naive)}" if naive
                else None)
        assert got[f"d{i}"] == want, (bench, toks)


def test_bench_cap_refuses_corpus_sized_bench(tmp_path, monkeypatch):
    import gamechanger_data_ray.engine.ingest_gate as ig

    monkeypatch.setattr(ig, "DECONTAM_MAX_WINDOWS", 5)
    bp = _bench(tmp_path, [list(range(100))])  # 97 distinct windows
    with pytest.raises(ValueError, match="corpus-sized"):
        ig.DecontamScreen(bench_path=bp, ngram=L, tokens_column="tokens")


def test_mode_validation():
    with pytest.raises(ValueError, match="bench_path"):
        screen_events(ray.data.from_items([]), "/tmp/x", None,
                      mode="decontam")


def _write_epoch(cl_dir, epoch, table):
    import json
    import os

    from gamechanger_data_ray.core.changelog import READY_MARKER, epoch_dir

    d = epoch_dir(cl_dir, epoch)
    os.makedirs(d, exist_ok=True)
    pq.write_table(table, os.path.join(d, "part-00000.parquet"))
    with open(os.path.join(d, READY_MARKER), "w") as f:
        json.dump({"epoch": epoch}, f)


def test_replay_gated_decontam_quarantine_readmit_and_cli(tmp_path):
    """End to end: contaminated rows quarantine WITH payload, the final
    table equals a replay of only the clean rows, readmit (operator
    override) brings a quarantined doc back byte-identical, and the CLI
    verb drives the same path."""
    import json

    from gamechanger_data_ray.__main__ import main
    from gamechanger_data_ray.engine.ingest_gate import readmit

    bench = [[600, 601, 602, 603, 604]]
    bp = _bench(tmp_path, bench)
    cl, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    dirty = [1, 2, 601, 602, 603, 604, 9]
    _write_epoch(cl, 1, _events([
        ("I", 1, 0, "clean1", list(range(20, 30))),
        ("I", 1, 1, "dirty1", list(dirty)),
        ("I", 1, 2, "clean2", list(range(40, 50))),
    ]))
    out = replay_gated(cl, tb, None, num_partitions=4, mode="decontam",
                       bench_path=bp, ngram=L)
    assert out["suppressed"] == 1 and out["applied_events"] == 2
    ids = set(table_to_arrow(tb)["doc_id"].to_pylist())
    assert ids == {"clean1", "clean2"}

    q = read_quarantine(tb, 1)
    assert q["doc_id"].to_pylist() == ["dirty1"]
    # dirty1 carries exactly one bench window: (601, 602, 603, 604)
    assert q[MATCH_COLUMN].to_pylist() == [f"contaminated:ngram={L}:hits=1"]
    # payload rides into quarantine (content exists nowhere else)
    assert q["tokens"].to_pylist() == [dirty]

    r = readmit(tb, 1, num_partitions=4)
    assert r["readmitted"] == 1
    final = table_to_arrow(tb)
    row = {d: t for d, t in zip(final["doc_id"].to_pylist(),
                                final["tokens"].to_pylist())}
    assert row["dirty1"] == dirty

    # CLI: a later epoch through the same gate (epoch 3 — the readmit
    # commit already consumed epoch number 2 on the table)
    _write_epoch(cl, 3, _events([
        ("I", 3, 0, "dirty2", [600, 601, 602, 603, 7]),
        ("I", 3, 1, "clean3", list(range(70, 80))),
    ]))
    assert main(["replay-gated", "--changelog", cl, "--table", tb,
                 "--mode", "decontam", "--bench", bp, "--ngram", str(L),
                 "--partitions", "4"]) == 0
    assert read_quarantine(tb, 3)["doc_id"].to_pylist() == ["dirty2"]
    assert "clean3" in set(table_to_arrow(tb)["doc_id"].to_pylist())
