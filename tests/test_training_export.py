"""CDC table → packed training chunks: byte identity against the serial
concat-and-chunk oracle in (partition, doc_id) order, MOR/COW layout
independence, ready-marker gating, and re-export refusal."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from gamechanger_data_ray.core.hashing import partition_ids
from gamechanger_data_ray.engine.cdc import apply_events_dataset, table_to_arrow
from gamechanger_data_ray.engine.maintenance import compact
from gamechanger_data_ray.engine.training_export import (
    export_training,
    read_training_export,
)

P = 4
CAP = 16


def _events(rows, epoch):
    op, doc, toks = zip(*rows)
    n = len(rows)
    return pa.table({
        "op": pa.array(op, pa.string()),
        "lsn": pa.array(np.full(n, epoch, dtype=np.int64)),
        "seq": pa.array(np.arange(n, dtype=np.int64)),
        "doc_id": pa.array(doc, pa.string()),
        "tokens": pa.array([list(t) for t in toks], pa.list_(pa.int32())),
        "n_tok": pa.array([len(t) for t in toks], pa.int32()),
        "source": pa.array(["s"] * n, pa.string()),
    })


def _apply(tb, epoch, t, policy="rewrite"):
    apply_events_dataset(ray.data.from_arrow(t), tb, epoch, t.schema,
                         num_partitions=P, merge_policy=policy)


def _seed(tmp_path, policy="rewrite"):
    tb = str(tmp_path / f"t-{policy}")
    rng = np.random.default_rng(11)
    rows1 = [("I", f"d{i:03d}", rng.integers(0, 100, size=rng.integers(1, 40)))
             for i in range(50)]
    _apply(tb, 1, _events(rows1, 1))
    # epoch 2: update some docs, delete a few
    rows2 = ([("U", f"d{i:03d}", rng.integers(100, 200, size=rng.integers(1, 30)))
              for i in range(0, 20, 3)]
             + [("D", f"d{i:03d}", []) for i in (5, 17, 41)])
    _apply(tb, 2, _events(rows2, 2), policy=policy)
    return tb


def _oracle_chunks(tb: str) -> list[list[int]]:
    """Serial oracle: resolved rows in (partition, doc_id) order, token
    streams concatenated, cut every CAP."""
    t = table_to_arrow(tb)
    part = partition_ids(t["doc_id"], P).to_pylist()
    order = sorted(range(t.num_rows),
                   key=lambda i: (part[i], t["doc_id"][i].as_py()))
    flat = [tok for i in order for tok in t["tokens"][i].as_py()]
    return [flat[i:i + CAP] for i in range(0, len(flat), CAP)]


def _got_chunks(out: str) -> list[list[int]]:
    df = read_training_export(out).to_pandas().sort_values("chunk_id")
    return [list(x) for x in df["tokens"]]


def test_export_matches_serial_oracle(tmp_path):
    tb = _seed(tmp_path)
    out = str(tmp_path / "out")
    marker = export_training(tb, out, cap=CAP)
    expect = _oracle_chunks(tb)
    got = _got_chunks(out)
    assert got == expect
    assert marker["chunks"] == len(expect)
    assert marker["total_tokens"] == sum(len(c) for c in expect)
    assert marker["epoch"] == 2
    # all full caps except possibly the tail
    assert all(len(c) == CAP for c in got[:-1])


def test_layout_independence_mor_vs_compacted(tmp_path):
    """A merge-on-read stack exports the same bytes as its compacted
    rewrite — physical layout never leaks into the training data."""
    tb = _seed(tmp_path, policy="delta")
    out1 = str(tmp_path / "o1")
    export_training(tb, out1, cap=CAP)
    compact(tb)
    out2 = str(tmp_path / "o2")
    export_training(tb, out2, cap=CAP)
    assert _got_chunks(out1) == _got_chunks(out2) == _oracle_chunks(tb)


def test_marker_gates_consumers_and_rerun_refused(tmp_path):
    tb = _seed(tmp_path)
    out = str(tmp_path / "out")
    with pytest.raises(FileNotFoundError):
        read_training_export(out)  # nothing there yet
    export_training(tb, out, cap=CAP)
    with pytest.raises(FileExistsError):
        export_training(tb, out, cap=CAP)  # immutable artifact
    assert read_training_export(out).count() > 0
    with pytest.raises(FileNotFoundError):
        export_training(str(tmp_path / "nope"), str(tmp_path / "o3"))


def test_export_as_of_tag_is_frozen(tmp_path):
    """Tag a release, keep ingesting, re-export the tag: byte-identical
    chunks both times — the pinned snapshot, not the moved-on table."""
    from gamechanger_data_ray.engine.maintenance import tag

    tb = str(tmp_path / "t")
    _apply(tb, 1, _events([("I", f"d{i:03d}", [i, i]) for i in range(30)], 1))
    tag(tb, "v1")
    out1 = str(tmp_path / "o1")
    m1 = export_training(tb, out1, cap=CAP, epoch="v1")
    # the table moves on: updates + deletes land after the tag
    _apply(tb, 2, _events([("U", "d001", [9, 9, 9]), ("D", "d002", [])], 2))
    out2, out3 = str(tmp_path / "o2"), str(tmp_path / "o3")
    m2 = export_training(tb, out2, cap=CAP, epoch="v1")
    m3 = export_training(tb, out3, cap=CAP)  # current state
    assert _got_chunks(out1) == _got_chunks(out2)
    assert m1["total_tokens"] == m2["total_tokens"]
    assert m1["epoch"] == m2["epoch"] == 1 and m3["epoch"] == 2
    assert _got_chunks(out3) != _got_chunks(out1)
    # every doc deleted through merge-on-read deltas: the live table has
    # zero live rows and exports no chunk, while the tag still exports v1
    _apply(tb, 3, _events([("D", f"d{i:03d}", []) for i in range(30)], 3),
           policy="delta")
    m4 = export_training(tb, str(tmp_path / "o4"), cap=CAP)
    assert (m4["epoch"], m4["total_tokens"], m4["chunks"]) == (3, 0, 0)
    m5 = export_training(tb, str(tmp_path / "o5"), cap=CAP, epoch="v1")
    assert m5["total_tokens"] == m1["total_tokens"]
    assert _got_chunks(str(tmp_path / "o5")) == _got_chunks(out1)


def test_crashed_export_debris_refused(tmp_path):
    """An out_dir holding files but no marker (a crashed export) is
    refused — re-running into it would merge stale chunks into the new
    export as silently duplicated chunk_ids."""
    import os

    tb = _seed(tmp_path)
    out = str(tmp_path / "out")
    os.makedirs(out)
    with open(os.path.join(out, "stale-chunk.parquet"), "wb") as f:
        f.write(b"debris")
    with pytest.raises(FileExistsError, match="incomplete"):
        export_training(tb, out, cap=CAP)


def _shuffled_oracle(tb: str, seed: int) -> list[list[int]]:
    """Serial oracle for the seeded shuffle: resolved rows in
    (hash % buckets, hash, doc_id) order — bucket-major, then shuffle
    key — concatenated and cut every CAP."""
    from gamechanger_data_ray.engine.training_export import (
        _SHUFFLE_BUCKETS,
        _seeded_hash,
    )

    t = table_to_arrow(tb)
    h = _seeded_hash(t["doc_id"], seed)
    b = (h % np.uint64(_SHUFFLE_BUCKETS)).astype(np.int64)
    order = sorted(range(t.num_rows),
                   key=lambda i: (b[i], h[i], t["doc_id"][i].as_py()))
    flat = [tok for i in order for tok in t["tokens"][i].as_py()]
    return [flat[i:i + CAP] for i in range(0, len(flat), CAP)]


def test_shuffled_export_matches_seeded_oracle(tmp_path):
    tb = _seed(tmp_path)
    out = str(tmp_path / "out")
    marker = export_training(tb, out, cap=CAP, shuffle_seed=7)
    assert marker["shuffle_seed"] == 7
    expect = _shuffled_oracle(tb, 7)
    got = _got_chunks(out)
    assert got == expect
    assert marker["total_tokens"] == sum(len(c) for c in expect)


def test_shuffle_is_deterministic_across_layouts(tmp_path):
    """Same seed + same committed state = byte-identical chunks, whether
    the table is a merge-on-read stack or its compacted rewrite."""
    tb = _seed(tmp_path, policy="delta")
    out1 = str(tmp_path / "s1")
    export_training(tb, out1, cap=CAP, shuffle_seed=42)
    compact(tb)
    out2 = str(tmp_path / "s2")
    export_training(tb, out2, cap=CAP, shuffle_seed=42)
    assert _got_chunks(out1) == _got_chunks(out2) == _shuffled_oracle(tb, 42)


def test_new_seed_is_a_fresh_permutation_of_the_same_corpus(tmp_path):
    tb = _seed(tmp_path)
    a = str(tmp_path / "a"); b = str(tmp_path / "b"); c = str(tmp_path / "c")
    export_training(tb, a, cap=CAP, shuffle_seed=1)
    export_training(tb, b, cap=CAP, shuffle_seed=2)
    export_training(tb, c, cap=CAP)  # unshuffled
    ca, cb, cc = _got_chunks(a), _got_chunks(b), _got_chunks(c)
    assert ca != cb and ca != cc  # different orders...
    flat = lambda cs: sorted(t for ch in cs for t in ch)
    assert flat(ca) == flat(cb) == flat(cc)  # ...same token multiset
    assert len(ca) == len(cb) == len(cc)  # same chunk count


def test_zero_token_docs_export_under_shuffle(tmp_path):
    """A doc with an EMPTY token list still forms a packing group in its
    shuffle bucket, so pass 1 must emit a base-offset entry for every
    OCCUPIED bucket even when its token sum is zero (regression: pass 1
    dropped zero-sum buckets -> KeyError in split_pieces when such a doc
    landed alone in a bucket)."""
    from gamechanger_data_ray.engine.training_export import (
        _SHUFFLE_BUCKETS,
        _seeded_hash,
    )
    seed = 3
    others = [f"d{i:03d}" for i in range(8)]
    taken = {int(h) % _SHUFFLE_BUCKETS
             for h in _seeded_hash(pa.array(others, pa.string()), seed)}
    # deterministically pick an empty-token doc that lands ALONE in its bucket
    empty_doc = next(
        f"z{i}" for i in range(10_000)
        if int(_seeded_hash(pa.array([f"z{i}"], pa.string()), seed)[0])
        % _SHUFFLE_BUCKETS not in taken)
    rng = np.random.default_rng(5)
    rows = ([("I", d, rng.integers(0, 50, size=7)) for d in others]
            + [("I", empty_doc, [])])
    tb = str(tmp_path / "t")
    _apply(tb, 1, _events(rows, 1))
    out = str(tmp_path / "out")
    marker = export_training(tb, out, cap=CAP, shuffle_seed=seed)
    assert _got_chunks(out) == _shuffled_oracle(tb, seed)
    assert marker["total_tokens"] == 8 * 7
