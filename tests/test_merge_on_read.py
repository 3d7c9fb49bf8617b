"""Merge-on-read delta commits vs copy-on-write rewrites.

The invariant under test: for the same changelog, a delta-mode replay and a
rewrite-mode replay commit BYTE-IDENTICAL logical state (per-row token-array
equality) and IDENTICAL per-epoch lineage counters — only the physical file
layout (and write amplification) differs. Compaction folds deltas into a new
base as a same-epoch revision without changing state."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine.cdc import (
    read_keys,
    read_table,
    replay,
    table_to_arrow,
)
from gamechanger_data_ray.engine.maintenance import compact, vacuum
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.manifest import load_manifest

N_EPOCHS = 3


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """One changelog (with schema evolution) replayed both ways,
    per-epoch commits so every epoch leaves a manifest."""
    root = tmp_path_factory.mktemp("mor")
    cd = str(root / "cl")
    write_changelog(cd, num_epochs=N_EPOCHS, events_per_epoch=500, num_keys=150,
                    seed=13, evolution=True, dup_frac=0.05)
    cow, morr = str(root / "cow"), str(root / "mor")
    replay(cd, cow, num_partitions=8, epochs_per_commit=1)
    replay(cd, morr, num_partitions=8, epochs_per_commit=1, merge_policy="delta")
    return cow, morr, cd


def test_delta_layout_is_actually_deltas(tables):
    _, morr, _ = tables
    deltas = glob.glob(os.path.join(morr, "part=*", "delta-e*.parquet"))
    bases = glob.glob(os.path.join(morr, "part=*", "data-e*.parquet"))
    assert deltas, "delta mode wrote no delta files"
    assert not bases, "delta mode should never rewrite base files"
    cur = mf.load_current(morr)
    assert any(e.get("deltas") for e in cur.partitions.values())


def test_state_equivalence(tables):
    cow, morr, _ = tables
    a = table_to_arrow(cow)
    b = table_to_arrow(morr)
    assert a.schema.names == b.schema.names
    assert a.equals(b), "delta replay diverged from rewrite replay"


def test_lineage_counters_exact_per_epoch(tables):
    cow, morr, _ = tables
    for e in range(1, N_EPOCHS + 1):
        mc = load_manifest(cow, e)
        md = load_manifest(morr, e)
        for k in ("events_in", "upserts", "deletes", "tombstones", "rows_out"):
            assert mc.epoch_counters[k] == md.epoch_counters[k], (
                f"epoch {e} counter {k}: {mc.epoch_counters[k]} vs {md.epoch_counters[k]}"
            )
        assert mc.totals == md.totals


def test_delta_replay_is_exactly_once(tables):
    _, morr, cd = tables
    before = table_to_arrow(morr)
    assert replay(cd, morr, num_partitions=8, merge_policy="delta") is not None
    assert table_to_arrow(morr).equals(before)  # fenced no-op returns current


def test_read_table_resolves_deltas(tables):
    cow, morr, _ = tables
    a = read_table(cow).take_all()
    b = read_table(morr).take_all()
    key = lambda r: r["doc_id"]  # noqa: E731
    assert sorted(a, key=key) == sorted(b, key=key)


def test_read_table_predicate_on_mor(tables):
    import pyarrow.dataset as pads

    _, morr, _ = tables
    full = table_to_arrow(morr)
    cutoff = int(pc.approximate_median(full["n_tok"]).as_py())
    got = read_table(morr, predicate=pads.field("n_tok") >= cutoff).take_all()
    want = full.filter(pc.field("n_tok") >= cutoff)
    assert len(got) == want.num_rows


def test_read_keys_on_mor(tables):
    _, morr, _ = tables
    full = table_to_arrow(morr)
    keys = full["doc_id"].to_pylist()[::11][:8]
    got = read_keys(morr, keys)
    want = full.filter(pc.field("doc_id").isin(keys))
    assert got["doc_id"].to_pylist() == sorted(want["doc_id"].to_pylist())
    assert got["tokens"].to_pylist() == [
        r["tokens"] for r in sorted(want.to_pylist(), key=lambda r: r["doc_id"])
    ]


def test_diff_on_mor_matches_cow(tables):
    from gamechanger_data_ray.engine.diff import diff_table_epochs

    cow, morr, _ = tables
    a = diff_table_epochs(cow, 1, N_EPOCHS).take_all()
    b = diff_table_epochs(morr, 1, N_EPOCHS).take_all()
    key = lambda r: (r["doc_id"], r["change"])  # noqa: E731
    assert sorted(a, key=key) == sorted(b, key=key)


def test_validate_on_mor(tables):
    from gamechanger_data_ray.engine.maintenance import validate_table

    _, morr, _ = tables
    res = validate_table(morr)
    cur = mf.load_current(morr)
    assert res["violations"] == {}
    assert res["rows"] == cur.totals["rows"]


def test_compact_preserves_state_and_clears_deltas(tables, tmp_path):
    import shutil

    _, morr, _ = tables
    td = str(tmp_path / "tb")
    shutil.copytree(morr, td)
    before = table_to_arrow(td)
    m = compact(td)
    assert m is not None and m.rev == 1 and m.epoch == N_EPOCHS
    assert table_to_arrow(td).equals(before)
    cur = mf.load_current(td)
    assert cur.rev == 1
    assert all(not e.get("deltas") for e in cur.partitions.values())
    assert all(e.get("file") for e in cur.partitions.values())
    # nothing left to compact; a second run is a no-op
    assert compact(td) is None
    # point lookup still routes correctly post-compaction
    keys = before["doc_id"].to_pylist()[:3]
    assert read_keys(td, keys).num_rows == len(keys)


def test_vacuum_after_compact_drops_old_deltas(tables, tmp_path):
    import shutil

    _, morr, _ = tables
    td = str(tmp_path / "tb")
    shutil.copytree(morr, td)
    before = table_to_arrow(td)
    compact(td)
    res = vacuum(td, keep_epochs=1)
    assert res["files_deleted"] > 0
    assert not glob.glob(os.path.join(td, "part=*", "delta-e*.parquet"))
    # compacted-away deltas lose their key sidecars with them
    assert glob.glob(os.path.join(morr, "part=*", "delta-e*.parquet.bloom"))
    assert not glob.glob(os.path.join(td, "part=*", "delta-e*.parquet.bloom"))
    assert table_to_arrow(td).equals(before)


def test_delta_epochs_on_existing_cow_table(tmp_path):
    """Switching an established copy-on-write table to delta commits
    mid-stream converges to the same state as rewrite-only."""
    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=4, events_per_epoch=400, num_keys=120,
                    seed=17, evolution=True)
    td = str(tmp_path / "tb")
    replay(cd, td, num_partitions=4, up_to_epoch=2, epochs_per_commit=1)
    m = replay(cd, td, num_partitions=4, epochs_per_commit=1, merge_policy="delta")
    assert m is not None and m.epoch == 4
    cur = mf.load_current(td)
    assert any(e.get("deltas") for e in cur.partitions.values())
    cow = str(tmp_path / "cow")
    replay(cd, cow, num_partitions=4)
    assert table_to_arrow(td).equals(table_to_arrow(cow))


def test_delta_commit_crash_resume_is_identical(tmp_path):
    """Kill between delta-file write and manifest commit: the rerun
    overwrites the orphaned delta byte-identically (deterministic names)
    and converges — the same exactly-once argument as rewrite mode."""
    import shutil

    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=2, events_per_epoch=300, num_keys=80, seed=9)
    td = str(tmp_path / "tb")
    replay(cd, td, num_partitions=4, up_to_epoch=1, merge_policy="delta")
    # snapshot the committed state, then fake a crashed epoch-2 attempt:
    # delta files landed but the manifest pointer never advanced
    td2 = str(tmp_path / "tb2")
    shutil.copytree(td, td2)
    replay(cd, td2, num_partitions=4, merge_policy="delta")  # full run
    cur2 = mf.load_current(td2)
    for p, e in cur2.partitions.items():
        for rel in e.get("deltas", ()):
            src = os.path.join(td2, rel)
            dst = os.path.join(td, rel)
            if not os.path.exists(dst):
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                shutil.copyfile(src, dst)  # the orphaned pre-crash files
    # resume: replay applies epoch 2 again over the orphaned files
    m = replay(cd, td, num_partitions=4, merge_policy="delta")
    assert m is not None and m.epoch == 2
    assert table_to_arrow(td).equals(table_to_arrow(td2))


def test_export_import_mor_and_rev_manifests(tables, tmp_path):
    """A merge-on-read table exports with its delta files; a compacted
    (rev > 0) table round-trips through export/import with the revision
    preserved."""
    import shutil

    from gamechanger_data_ray.engine.maintenance import export_table, import_table

    _, morr, _ = tables
    # MOR table with pending deltas
    b1 = str(tmp_path / "b1")
    export_table(morr, b1)
    t1 = str(tmp_path / "t1")
    m = import_table(b1, t1)
    assert any(e.get("deltas") for e in m.partitions.values())
    assert table_to_arrow(t1).equals(table_to_arrow(morr))

    # compacted revision round-trip
    td = str(tmp_path / "tb")
    shutil.copytree(morr, td)
    compact(td)
    b2 = str(tmp_path / "b2")
    export_table(td, b2)
    t2 = str(tmp_path / "t2")
    m2 = import_table(b2, t2)
    assert m2.rev == 1
    assert table_to_arrow(t2).equals(table_to_arrow(td))


def test_repartition_resolves_mor(tables, tmp_path):
    """Repartitioning a merge-on-read table reads through the resolved view
    and writes a clean copy-on-write layout at the new modulus."""
    from gamechanger_data_ray.engine.maintenance import repartition_table

    _, morr, _ = tables
    out = str(tmp_path / "re16")
    m = repartition_table(morr, out, 16)
    assert m.num_partitions == 16
    assert all(not e.get("deltas") for e in m.partitions.values())
    a = table_to_arrow(morr).select(["doc_id", "tokens", "n_tok"])
    b = table_to_arrow(out).select(["doc_id", "tokens", "n_tok"])
    assert a.equals(b)


def test_vacuum_keeps_pending_deltas(tables, tmp_path):
    import shutil

    _, morr, _ = tables
    td = str(tmp_path / "tb")
    shutil.copytree(morr, td)
    before = table_to_arrow(td)
    vacuum(td, keep_epochs=1)
    assert glob.glob(os.path.join(td, "part=*", "delta-e*.parquet")), (
        "vacuum must not delete deltas the current manifest references"
    )
    # pending deltas keep their key sidecars
    pending = [os.path.join(td, d) for e in mf.load_current(td).partitions.values()
               for d in e.get("deltas", ())]
    assert pending and all(os.path.exists(d + ".bloom") for d in pending)
    assert table_to_arrow(td).equals(before)


def test_compact_racing_epoch_apply(tmp_path):
    """A compaction that lands while an epoch apply is in flight: the apply
    loaded the PRE-compaction manifest, so its commit carries the old
    base+delta entries forward — (E+1, 0) out-fences (E, 1), both file sets
    remain on disk until vacuum, and the resolved state is correct."""
    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=3, events_per_epoch=300, num_keys=90, seed=31)
    td = str(tmp_path / "tb")
    replay(cd, td, num_partitions=4, up_to_epoch=2, epochs_per_commit=1,
           merge_policy="delta")

    # simulate the interleave: snapshot current (what the apply would read),
    # compact, then apply epoch 3 — apply re-reads current internally, so
    # force the stale view by compacting AFTER generating its inputs is
    # not possible through the public API; instead verify the fencing
    # arithmetic and the post-race convergence explicitly.
    pre = mf.load_current(td)
    m_c = compact(td)
    assert m_c is not None and (m_c.epoch, m_c.rev) == (pre.epoch, pre.rev + 1)
    # a stale attempt at the SAME epoch/rev is fenced out
    assert not mf.commit(td, pre)
    # the next epoch out-fences the compaction rev and applies cleanly
    m3 = replay(cd, td, num_partitions=4, merge_policy="delta")
    assert m3 is not None and (m3.epoch, m3.rev) == (3, 0)
    cow = str(tmp_path / "cow")
    replay(cd, cow, num_partitions=4)
    assert table_to_arrow(td).equals(table_to_arrow(cow))


def test_tail_delta_with_auto_compact(tmp_path):
    """Delta-mode tailing with auto_compact bounds delta stacking: after the
    tail, no partition carries more than the threshold, and the state matches
    a plain rewrite replay of the same changelog."""
    from gamechanger_data_ray.engine.cdc import tail

    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=5, events_per_epoch=300, num_keys=100, seed=21)
    td = str(tmp_path / "tb")
    m = tail(cd, td, num_partitions=4, poll_interval=0.05, idle_polls=2,
             max_epochs=5, merge_policy="delta", auto_compact=1)
    assert m is not None
    cur = mf.load_current(td)
    # per-poll the tail applies ALL pending epochs in one commit, so with a
    # cold start this lands 1 delta, and the budget folds any partition
    # that would take a second one in that same commit
    assert all(len(e.get("deltas", ())) <= 1 for e in cur.partitions.values())
    cow = str(tmp_path / "cow")
    replay(cd, cow, num_partitions=4)
    assert table_to_arrow(td).equals(table_to_arrow(cow))


def test_tail_folds_at_the_delta_budget(tmp_path):
    """A tail, one epoch per commit, with auto_compact=2: a touched
    partition already holding 2 deltas is resolved into a new base in the
    epoch's own commit, so only rev-0 manifests exist, no partition ever
    holds more than 2 deltas, and ``folded`` counts the rewritten bases."""
    from gamechanger_data_ray.core.changelog import epoch_dir
    from gamechanger_data_ray.engine.cdc import tail

    src, cd, td = (str(tmp_path / n) for n in ("src", "cl", "tb"))
    write_changelog(src, num_epochs=7, events_per_epoch=300, num_keys=100, seed=5,
                    evolution=True, dup_frac=0.05)
    os.makedirs(cd)
    folded = 0
    for e in range(1, 8):
        os.rename(epoch_dir(src, e), epoch_dir(cd, e))  # publish one epoch
        tail(cd, td, num_partitions=4, poll_interval=0.0, idle_polls=1, max_epochs=1,
             merge_policy="delta", auto_compact=2)
        cur = mf.load_current(td)
        assert (cur.epoch, cur.rev) == (e, 0)
        assert all(len(p.get("deltas", ())) <= 2 for p in cur.partitions.values())
        based = [k for k, p in cur.partitions.items()
                 if p.get("file") == f"part={int(k):05d}/data-e{e:06d}.parquet"]
        assert cur.epoch_counters["folded"] == len(based)
        folded += len(based)
    assert folded > 0
    assert sorted(os.listdir(os.path.join(td, mf.MANIFEST_DIR))) == [
        mf.manifest_name(e) for e in range(1, 8)]
    cow = str(tmp_path / "cow")
    replay(cd, cow, num_partitions=4, epochs_per_commit=1)
    assert table_to_arrow(td).equals(table_to_arrow(cow))
    assert cur.totals == mf.load_current(cow).totals


def test_tail_budget_fallback_compacts_an_untouched_deep_partition(tmp_path):
    """A partition already deeper than the budget that the commit does not
    touch is still compacted by tail's post-commit check."""
    import pyarrow.parquet as pq

    from gamechanger_data_ray.core.changelog import READY_MARKER, epoch_dir
    from gamechanger_data_ray.core.hashing import partition_ids
    from gamechanger_data_ray.engine.cdc import tail

    cd, td = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=300, num_keys=100, seed=9)
    replay(cd, td, num_partitions=4, epochs_per_commit=1, merge_policy="delta")
    assert all(len(p["deltas"]) == 4 for p in mf.load_current(td).partitions.values())
    # epoch 5 re-sends epoch 4's events at lsn 5, minus every key of partition 0
    ev = pq.read_table(glob.glob(os.path.join(epoch_dir(cd, 4), "*.parquet")))
    ev = ev.filter(pc.not_equal(partition_ids(ev["doc_id"], 4), 0))
    ev = ev.set_column(ev.schema.get_field_index("lsn"), "lsn",
                       pa.array([5] * ev.num_rows, pa.int64()))
    os.makedirs(epoch_dir(cd, 5))
    pq.write_table(ev, os.path.join(epoch_dir(cd, 5), "part-00000.parquet"))
    open(os.path.join(epoch_dir(cd, 5), READY_MARKER), "w").close()

    m = tail(cd, td, num_partitions=4, poll_interval=0.0, idle_polls=1, max_epochs=1,
             merge_policy="delta", auto_compact=2)
    assert (m.epoch, m.rev) == (5, 1)  # the fold commit, then the fallback
    assert m.epoch_counters["folded"] == 3
    assert m.partitions["0"]["file"] == "part=00000/data-e000005r001.parquet"
    assert all(not p.get("deltas") for p in m.partitions.values())
    cow = str(tmp_path / "cow")
    replay(cd, cow, num_partitions=4)
    assert table_to_arrow(td).equals(table_to_arrow(cow))


def test_compact_recomputes_total_rows(tmp_path):
    """A late insert of a key that a delta deleted counts as a row at the
    delta commit, but resolves to nothing: the compaction revision's
    ``totals.rows`` is the sum of its partitions' rows, not the stale
    count it inherited."""
    import ray.data

    from gamechanger_data_ray.engine.cdc import apply_events_dataset

    td = str(tmp_path / "tb")
    history = {1: [("I", "a", 1, 0), ("I", "b", 1, 1)], 2: [("D", "a", 2, 0)],
               3: [("I", "a", 1, 5)]}
    for e, evs in history.items():
        t = pa.table({"op": [r[0] for r in evs], "doc_id": [r[1] for r in evs],
                      "lsn": pa.array([r[2] for r in evs], pa.int64()),
                      "seq": pa.array([r[3] for r in evs], pa.int64())})
        apply_events_dataset(ray.data.from_arrow(t), td, e, t.schema, num_partitions=1,
                             merge_policy="delta")
    m = compact(td)
    assert (m.epoch, m.rev) == (3, 1)
    assert m.partitions["0"]["rows"] == table_to_arrow(td).num_rows == 1
    assert m.totals["rows"] == 1


def test_rewrite_epoch_folds_pending_deltas(tables, tmp_path):
    """A rewrite commit on top of pending deltas resolves them (implicit
    compaction) — the new base carries the merged state, deltas cleared."""
    import shutil

    cow, morr, cd = tables
    td = str(tmp_path / "tb")
    shutil.copytree(morr, td)
    # one more epoch, rewrite mode, applied on top of the delta table
    write_changelog(str(tmp_path / "cl2"), num_epochs=N_EPOCHS + 1,
                    events_per_epoch=500, num_keys=150, seed=13,
                    evolution=True, dup_frac=0.05)
    m = replay(str(tmp_path / "cl2"), td, num_partitions=8)
    assert m is not None and m.epoch == N_EPOCHS + 1
    cur = mf.load_current(td)
    touched = [p for p, e in cur.partitions.items()
               if e.get("file", "").endswith(f"data-e{N_EPOCHS + 1:06d}.parquet")]
    assert touched, "rewrite epoch touched no partitions"
    for p in touched:
        assert not cur.partitions[p].get("deltas")
    # equivalence vs the same 4 epochs replayed rewrite-only from scratch
    cow2 = str(tmp_path / "cow2")
    replay(str(tmp_path / "cl2"), cow2, num_partitions=8)
    assert table_to_arrow(td).equals(table_to_arrow(cow2))
