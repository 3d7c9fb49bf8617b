"""Maintained training view (engine/training_view.py): refresh-chain ==
fresh-create byte identity, O(changed partitions) repacks, delete
shrinkage, fences/guards, subscription + autopilot integration, CLI."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from gamechanger_data_ray.engine.cdc import apply_events_dataset
from gamechanger_data_ray.engine.training_view import (
    load_marker,
    read_training_view,
    training_view_refresh,
)

CAP = 32
P = 4


def _tokens(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1000, size=n).astype(int).tolist()


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
        "n_tok": pa.array(
            [len(t) if t is not None else 0 for t in toks], pa.int32()),
    })


def _apply(tb, epoch, rows):
    e = _events(rows)
    apply_events_dataset(ray.data.from_arrow(e), tb, epoch, e.schema,
                         num_partitions=P)


def _epoch1_rows():
    return [("I", 1, i, f"d{i:03d}", _tokens(i, 20 + 3 * i))
            for i in range(12)]


def _view_table(out) -> pa.Table:
    t = pa.concat_tables(read_training_view(out).iter_batches(
        batch_size=None, batch_format="pyarrow"))
    return t.take(pa.compute.sort_indices(t, sort_keys=[("chunk_id",
                                                         "ascending")]))


def _digests(out, marker) -> dict[str, str]:
    return {p: hashlib.sha1(open(os.path.join(out, b["file"]),
                                 "rb").read()).hexdigest()
            for p, b in marker["buckets"].items() if b.get("file")}


def test_refresh_chain_equals_fresh_create(tmp_path):
    tb, out1, out2 = (str(tmp_path / "tb"), str(tmp_path / "v1"),
                      str(tmp_path / "v2"))
    _apply(tb, 1, _epoch1_rows())
    m1 = training_view_refresh(out1, tb, cap=CAP, seed=7)
    assert m1["epoch"] == 1 and m1["total_chunks"] > 0
    _apply(tb, 2, [("U", 2, 0, "d003", _tokens(99, 45)),
                   ("I", 2, 1, "new-a", _tokens(98, 33))])
    training_view_refresh(out1, tb, cap=CAP, seed=7)
    _apply(tb, 3, [("D", 3, 0, "d005", None),
                   ("I", 3, 1, "new-b", _tokens(97, 21))])
    chain = training_view_refresh(out1, tb, cap=CAP, seed=7)

    fresh = training_view_refresh(out2, tb, cap=CAP, seed=7)
    # identical marker geometry, identical file names, identical BYTES
    assert {p: b["file"] for p, b in chain["buckets"].items()} == \
           {p: b["file"] for p, b in fresh["buckets"].items()}
    assert _digests(out1, chain) == _digests(out2, fresh)
    assert _view_table(out1).equals(_view_table(out2))
    # chunk shape invariants: every chunk but each bucket's tail is CAP
    t = _view_table(out1)
    for b in set(t["bucket"].to_pylist()):
        lens = [n for bb, n in zip(t["bucket"].to_pylist(),
                                   t["n_tok"].to_pylist()) if bb == b]
        assert all(n == CAP for n in lens[:-1]) and 0 < lens[-1] <= CAP


def test_refresh_is_o_changed_partitions(tmp_path):
    tb, out = str(tmp_path / "tb"), str(tmp_path / "v")
    _apply(tb, 1, _epoch1_rows())
    m1 = training_view_refresh(out, tb, cap=CAP, seed=0)
    assert m1["repacked"] == len(m1["buckets"]) > 1
    # touch ONE document → exactly its partition repacks
    _apply(tb, 2, [("U", 2, 0, "d000", _tokens(5, 50))])
    m2 = training_view_refresh(out, tb, cap=CAP, seed=0)
    assert m2["repacked"] == 1
    unchanged = {p for p in m1["buckets"] if p in m2["buckets"]
                 and m1["buckets"][p]["src"] == m2["buckets"][p]["src"]}
    assert len(unchanged) == len(m1["buckets"]) - 1
    for p in unchanged:  # untouched buckets keep their exact files
        assert m1["buckets"][p]["file"] == m2["buckets"][p]["file"]
    # the superseded file of the repacked bucket was swept
    (changed,) = [p for p in m1["buckets"] if p not in unchanged]
    old_rel = m1["buckets"][changed]["file"]
    if old_rel != m2["buckets"][changed]["file"]:
        assert not os.path.exists(os.path.join(out, old_rel))


def test_delete_shrinks_and_tokens_conserved(tmp_path):
    tb, out = str(tmp_path / "tb"), str(tmp_path / "v")
    rows = _epoch1_rows()
    _apply(tb, 1, rows)
    m1 = training_view_refresh(out, tb, cap=CAP, seed=0)
    assert m1["total_tokens"] == sum(len(t) for *_, t in rows)
    _apply(tb, 2, [("D", 2, 0, "d002", None)])
    m2 = training_view_refresh(out, tb, cap=CAP, seed=0)
    gone = len(rows[2][-1])
    assert m2["total_tokens"] == m1["total_tokens"] - gone
    assert "d002" not in str(_view_table(out)["chunk_id"])  # sanity
    # token conservation through the chunks themselves
    t = _view_table(out)
    assert sum(t["n_tok"].to_pylist()) == m2["total_tokens"]


def test_compaction_and_clustering_do_not_repack(tmp_path):
    """The manifest's content_sig makes the view's change detection
    LOGICAL: physical rewrites of identical state (compact a
    merge-on-read stack, cluster, restamp) refresh the marker without
    repacking a single bucket — at 10^10 docs routine compaction no
    longer re-exports the corpus."""
    from gamechanger_data_ray.engine.maintenance import (
        cluster_table,
        compact,
        restamp_stats,
    )

    tb, out = str(tmp_path / "tb"), str(tmp_path / "v")
    _apply(tb, 1, _epoch1_rows())
    e2 = _events([("U", 2, 0, "d001", _tokens(71, 30)),
                  ("I", 2, 1, "mor-doc", _tokens(72, 25))])
    # merge-on-read delta commit: resolved-state sig rides the manifest
    from gamechanger_data_ray.engine.cdc import apply_events_dataset as aed

    aed(ray.data.from_arrow(e2), tb, 2, e2.schema, num_partitions=P,
        merge_policy="delta")
    m1 = training_view_refresh(out, tb, cap=CAP, seed=0)

    compact(tb)
    m2 = training_view_refresh(out, tb, cap=CAP, seed=0)
    assert m2["repacked"] == 0 and m2["rev"] > m1["rev"]
    assert {p: b["file"] for p, b in m1["buckets"].items()} == \
           {p: b["file"] for p, b in m2["buckets"].items()}

    cluster_table(tb, by="n_tok")
    restamp_stats(tb)
    m3 = training_view_refresh(out, tb, cap=CAP, seed=0)
    assert m3["repacked"] == 0
    # and the packed bytes still equal a from-scratch build
    fresh = training_view_refresh(str(tmp_path / "f"), tb, cap=CAP, seed=0)
    assert _digests(out, m3) == _digests(str(tmp_path / "f"), fresh)
    # a REAL change still dirties exactly its bucket
    _apply(tb, 3, [("D", 3, 0, "mor-doc", None)])
    m4 = training_view_refresh(out, tb, cap=CAP, seed=0)
    assert m4["repacked"] == 1


def test_fences_and_guards(tmp_path):
    tb, out = str(tmp_path / "tb"), str(tmp_path / "v")
    with pytest.raises(FileNotFoundError):
        training_view_refresh(out, tb)
    _apply(tb, 1, _epoch1_rows())
    m1 = training_view_refresh(out, tb, cap=CAP, seed=0)
    # fenced no-op at head: same marker back, nothing rewritten
    assert training_view_refresh(out, tb, cap=CAP, seed=0) == m1
    with pytest.raises(ValueError, match="cap"):
        training_view_refresh(out, tb, cap=CAP * 2, seed=0)
    with pytest.raises(FileNotFoundError):
        read_training_view(str(tmp_path / "nowhere"))


def test_crash_convergence_and_orphan_sweep(tmp_path):
    """Two simulated crash states converge on the next refresh:
    (a) packs landed but the marker write died — the rerun rewrites the
    same deterministic names and commits; (b) the marker landed but the
    sweep died — the next real refresh reclaims orphans by directory
    listing, not by trusting the previous marker."""
    import json

    from gamechanger_data_ray.engine.training_view import TRAINING_MARKER

    tb, out = str(tmp_path / "tb"), str(tmp_path / "v")
    _apply(tb, 1, _epoch1_rows())
    training_view_refresh(out, tb, cap=CAP, seed=0)
    marker1 = open(os.path.join(out, TRAINING_MARKER)).read()

    _apply(tb, 2, [("U", 2, 0, "d000", _tokens(5, 50))])
    m2 = training_view_refresh(out, tb, cap=CAP, seed=0)
    d2 = _digests(out, m2)

    # (a) crash BEFORE the marker: epoch-2 files on disk, epoch-1 marker
    with open(os.path.join(out, TRAINING_MARKER), "w") as f:
        f.write(marker1)
    m2b = training_view_refresh(out, tb, cap=CAP, seed=0)
    assert {p: b["file"] for p, b in m2b["buckets"].items()} == \
           {p: b["file"] for p, b in m2["buckets"].items()}
    assert _digests(out, m2b) == d2

    # (b) crash AFTER the marker, before the sweep: plant an orphan from
    # a long-dead refresh; the NEXT real refresh reclaims it
    orphan = os.path.join(out, "bucket=00000", "chunks-deadbeef0000.parquet")
    os.makedirs(os.path.dirname(orphan), exist_ok=True)
    with open(orphan, "wb") as f:
        f.write(b"stale")
    _apply(tb, 3, [("I", 3, 0, "zz-new", _tokens(88, 30))])
    m3 = training_view_refresh(out, tb, cap=CAP, seed=0)
    assert not os.path.exists(orphan)
    # every on-disk bucket file is exactly the marker's live set
    on_disk = sorted(
        os.path.join(d, f)
        for d in os.listdir(out) if d.startswith("bucket=")
        for f in os.listdir(os.path.join(out, d)) if f.endswith(".parquet"))
    live = sorted(b["file"] for b in m3["buckets"].values() if b.get("file"))
    assert on_disk == live
    json.loads(open(os.path.join(out, TRAINING_MARKER)).read())  # sane


def test_seed_changes_within_bucket_order_only(tmp_path):
    tb = str(tmp_path / "tb")
    _apply(tb, 1, _epoch1_rows())
    a = training_view_refresh(str(tmp_path / "va"), tb, cap=CAP, seed=1)
    b = training_view_refresh(str(tmp_path / "vb"), tb, cap=CAP, seed=2)
    # same totals/geometry, different chunk content order
    assert a["total_tokens"] == b["total_tokens"]
    assert a["total_chunks"] == b["total_chunks"]
    ta = _view_table(str(tmp_path / "va"))
    tbb = _view_table(str(tmp_path / "vb"))
    assert not ta["tokens"].equals(tbb["tokens"])


def test_subscription_autopilot_and_cli(tmp_path):
    import json

    from gamechanger_data_ray.__main__ import main
    from gamechanger_data_ray.engine.autopilot import plan
    from gamechanger_data_ray.engine.subscriptions import subscribe, sync

    tb, out = str(tmp_path / "tb"), str(tmp_path / "v")
    _apply(tb, 1, _epoch1_rows())
    subscribe(tb, "training", out, params={"cap": CAP, "seed": 3})
    # autopilot sees the never-synced subscriber
    acts = plan(tb)
    assert any(a["op"] == "sync" for a in acts)
    rows = sync(tb)
    assert [r for r in rows if r["kind"] == "training"][0]["epoch"] == 1
    assert load_marker(out)["cap"] == CAP
    # current again → no sync planned
    assert not any(a["op"] == "sync" for a in plan(tb))
    _apply(tb, 2, [("I", 2, 0, "cli-doc", _tokens(55, 40))])
    assert any(a["op"] == "sync" for a in plan(tb))
    # CLI refresh (direct verb, same params) converges it
    assert main(["training-view", "--table", tb, "--out", out,
                 "--cap", str(CAP), "--seed", "3"]) == 0
    assert load_marker(out)["epoch"] == 2
    assert not any(a["op"] == "sync" for a in plan(tb))
