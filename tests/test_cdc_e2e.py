"""End-to-end CDC replay tests against a DuckDB oracle.

Mirrors the reference's universal_test_harness replay corpus (sequential
timestamped checkpoint batches with re-uploaded docs,
``dev_tools/universal_test_harness/cli.py:23-69``) and the snapshot-view
semantics of ``dataPipelines/gc_db_utils/orch/sql/create_views.sql:16-44``.

Gates (BASELINE.md): replay convergence, replay-from-mid-checkpoint
idempotence, schema evolution, tombstones, per-row tokens-array equality,
epoch fencing, lineage counters.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.core.reconcile import conform, unify_all
from gamechanger_data_ray.engine.cdc import (
    apply_epoch,
    apply_events_dataset,
    read_table,
    replay,
    table_to_arrow,
)
from gamechanger_data_ray.state import manifest as mf

ORACLE_SQL = """
SELECT doc_id, tokens, n_tok, source{extra} FROM (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY lsn DESC, seq DESC) rn
  FROM ev
) WHERE rn = 1 AND op <> 'D' ORDER BY doc_id
"""


def oracle_final(changelog_dir: str, up_to_epoch: int | None = None, extra_cols=()):
    files = sorted(glob.glob(os.path.join(changelog_dir, "epoch=*", "part-*.parquet")))
    if up_to_epoch is not None:
        files = [f for f in files if int(f.split("epoch=")[1][:6]) <= up_to_epoch]
    uni = unify_all([pq.read_schema(f) for f in files])
    all_ev = pa.concat_tables([conform(pq.read_table(f), uni) for f in files])
    con = duckdb.connect()
    con.register("ev", all_ev)
    extra = "".join(f", {c}" for c in extra_cols if c in uni.names)
    return con.sql(ORACLE_SQL.format(extra=extra)).arrow(), all_ev.num_rows


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


def _payload(t: pa.Table, extra=()):
    return t.select(["doc_id", "tokens", "n_tok", "source", *extra])


def test_replay_converges_to_oracle(workdir):
    cd, td = os.path.join(workdir, "cl"), os.path.join(workdir, "tb")
    write_changelog(cd, num_epochs=3, events_per_epoch=2000, num_keys=400, zipf_a=1.5)
    m = replay(cd, td, num_partitions=4)
    oracle, nraw = oracle_final(cd)
    mine = _payload(table_to_arrow(td))
    assert m.totals["events_in"] == nraw
    assert mine.num_rows == oracle.num_rows
    # per-row tokens array equality (the BASELINE.json invariant)
    assert mine.cast(oracle.schema).equals(oracle)


def test_schema_evolution_replay(workdir):
    cd, td = os.path.join(workdir, "cl"), os.path.join(workdir, "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=1500, num_keys=300, evolution=True)
    replay(cd, td, num_partitions=4)
    oracle, _ = oracle_final(cd, extra_cols=("lang",))
    mine = _payload(table_to_arrow(td), extra=("lang",))
    assert mine.cast(oracle.schema).equals(oracle)
    # unified schema recorded in manifest: n_tok widened, lang added
    cur = mf.load_current(td)
    assert cur.schema.field("n_tok").type == pa.int64()
    assert "lang" in cur.schema.names


def test_resume_from_mid_checkpoint_is_identical(workdir):
    cd = os.path.join(workdir, "cl")
    t_full, t_resumed = os.path.join(workdir, "a"), os.path.join(workdir, "b")
    write_changelog(cd, num_epochs=4, events_per_epoch=1500, num_keys=300, evolution=True)
    replay(cd, t_full, num_partitions=4)
    # crash after epoch 2: only the first two epochs committed …
    replay(cd, t_resumed, num_partitions=4, up_to_epoch=2)
    assert mf.committed_epoch(t_resumed) == 2
    # … then resume; must converge to byte-identical state
    replay(cd, t_resumed, num_partitions=4)
    assert table_to_arrow(t_resumed).equals(table_to_arrow(t_full))


def test_crash_between_data_write_and_commit_is_invisible(workdir):
    """Data files written without a manifest commit must not be observable,
    and a rerun must overwrite them and converge."""
    cd, td = os.path.join(workdir, "cl"), os.path.join(workdir, "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=1000, num_keys=200)
    replay(cd, td, num_partitions=4, up_to_epoch=1)
    state_after_1 = table_to_arrow(td)

    # simulate a crashed epoch-2 attempt: run it fully, then roll the
    # pointer back to epoch 1 (as if the commit never happened)
    ptr = os.path.join(td, "_CURRENT")
    before = open(ptr).read()
    apply_epoch(cd, td, 2, num_partitions=4)
    with open(ptr, "w") as f:
        f.write(before)
    # observable state is still epoch 1 even though epoch-2 files exist
    assert table_to_arrow(td).equals(state_after_1)
    leftover = glob.glob(os.path.join(td, "part=*", "data-e000002.parquet"))
    assert leftover  # stale attempt files really are on disk

    # rerun: overwrites the stale files deterministically and commits
    replay(cd, td, num_partitions=4)
    oracle, _ = oracle_final(cd)
    assert _payload(table_to_arrow(td)).cast(oracle.schema).equals(oracle)


def test_epoch_fencing_rejects_stale_commit(workdir):
    cd, td = os.path.join(workdir, "cl"), os.path.join(workdir, "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=500, num_keys=100)
    replay(cd, td, num_partitions=2)
    cur = mf.load_current(td)
    stale = mf.TableManifest(epoch=1, schema_b64=cur.schema_b64, partitions=cur.partitions)
    assert mf.commit(td, stale) is False  # fenced
    assert mf.committed_epoch(td) == cur.epoch


def test_ready_marker_gates_visibility(workdir):
    from gamechanger_data_ray.core.changelog import ready_epochs

    cd = os.path.join(workdir, "cl")
    write_changelog(cd, num_epochs=2, events_per_epoch=100, num_keys=50)
    os.remove(os.path.join(cd, "epoch=000002", "_MANIFEST.json"))
    assert ready_epochs(cd) == [1]


def test_lineage_counters_per_partition(workdir):
    cd, td = os.path.join(workdir, "cl"), os.path.join(workdir, "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=1000, num_keys=100, dup_frac=0.1)
    m = replay(cd, td, num_partitions=4, epochs_per_commit=1)
    per_part = m.epoch_counters["per_partition"]
    assert len(per_part) >= 1
    assert sum(c["events_in"] for c in per_part.values()) == m.epoch_counters["events_in"]
    assert all(c["watermark_lsn"] == 2 for c in per_part.values())
    # totals accumulate across epochs
    assert m.totals["events_in"] > m.epoch_counters["events_in"]


def test_read_table_streams_conformed_schema(workdir):
    cd, td = os.path.join(workdir, "cl"), os.path.join(workdir, "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=800, num_keys=200, evolution=True)
    replay(cd, td, num_partitions=4)
    ds = read_table(td)
    sch = ds.schema()
    assert "lang" in sch.names and dict(zip(sch.names, sch.types))["n_tok"] == pa.int64()
    assert ds.count() == table_to_arrow(td).num_rows


def test_generator_is_deterministic(workdir):
    from gamechanger_data_ray.core.changelog import generate_epoch_table

    a = generate_epoch_table(2, 500, 100, seed=7)
    b = generate_epoch_table(2, 500, 100, seed=7)
    assert a.equals(b)
    c = generate_epoch_table(2, 500, 100, seed=8)
    assert not a.equals(c)


def test_crash_mid_staging_recovers(workdir):
    """A crash DURING the staged exchange leaves a partial _staging dir;
    the next attempt must ignore it and converge (attempt-unique staging
    dirs: the staged files are scratch, not state — only the manifest
    pointer is truth); vacuum sweeps the committed-epoch debris."""
    import pyarrow.parquet as _pq

    from gamechanger_data_ray.engine.maintenance import vacuum
    from gamechanger_data_ray.state.fs import StorageAdapter

    cd, td = os.path.join(workdir, "cl"), os.path.join(workdir, "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=1000, num_keys=200)
    replay(cd, td, num_partitions=4, up_to_epoch=1)

    # fake a torn epoch-2 staging attempt from a dead process (pid 99999)
    staging = os.path.join(td, "_staging", "epoch-000002-99999")
    os.makedirs(os.path.join(staging, "_part=0"), exist_ok=True)
    _pq.write_table(
        pa.table({"doc_id": ["garbage"], "lsn": [999]}),
        os.path.join(staging, "_part=0", "leftover.parquet"),
    )
    # ...and in the exchange's own layout: a torn IPC file (killed before
    # its rename) and a complete one that attempt never routed
    staged = os.path.join(staging, "epoch=000002-part-00000.arrow")
    with open(f"{staged}.inprogress-{'0' * 32}", "wb") as f:
        f.write(b"ARROW1\x00\x00torn")
    StorageAdapter().write_arrow_batches(
        staged, [pa.table({"doc_id": ["garbage"], "lsn": [999]})])

    replay(cd, td, num_partitions=4)
    oracle, _ = oracle_final(cd)
    assert _payload(table_to_arrow(td)).cast(oracle.schema).equals(oracle)
    # the dead attempt's debris is ignored by replay, swept by vacuum
    assert os.path.exists(staging)
    vacuum(td, keep_epochs=2)
    assert not os.path.exists(staging)


def test_late_data_cannot_regress_state(workdir):
    """§2.10 late-data rule: an epoch that arrives LATER but carries OLDER
    lsns (a delayed source flushing stale versions) must lose LWW against
    already-committed newer versions — and still insert genuinely new
    keys."""
    import numpy as np

    cd, td = os.path.join(workdir, "cl"), os.path.join(workdir, "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=1000, num_keys=150)
    replay(cd, td, num_partitions=4)
    before = table_to_arrow(td)

    # epoch 3: late events with lsn=0 — stale updates for every existing
    # key plus one brand-new key
    import pyarrow.parquet as _pq

    from gamechanger_data_ray.core import changelog as _cl

    keys = before["doc_id"].to_pylist()
    n = len(keys) + 1
    late = pa.table(
        {
            "op": pa.array(["U"] * len(keys) + ["I"]),
            "lsn": pa.array([0] * n, pa.int64()),
            "seq": pa.array(list(range(n)), pa.int64()),
            "version_hash": pa.array(["stale"] * n),
            "doc_id": pa.array(keys + ["doc-late-new"]),
            "tokens": pa.array([[1, 2, 3]] * n, pa.list_(pa.int32())),
            "n_tok": pa.array([3] * n, pa.int32()),
            "source": pa.array(["late_src"] * n),
        }
    )
    d = _cl.epoch_dir(cd, 3)
    os.makedirs(d)
    _pq.write_table(late, os.path.join(d, "part-00000.parquet"))
    _cl.write_ready_marker(cd, 3) if hasattr(_cl, "write_ready_marker") else open(
        os.path.join(d, "_MANIFEST.json"), "w"
    ).write("{}")

    m = replay(cd, td, num_partitions=4)
    assert m is not None and m.epoch == 3
    after = table_to_arrow(td)
    # every pre-existing row unchanged (stale updates lost LWW) …
    existing = after.filter(
        pa.compute.not_equal(after["doc_id"], pa.scalar("doc-late-new"))
    )
    assert existing.equals(before)
    # … and the genuinely-new late key landed
    assert "doc-late-new" in after["doc_id"].to_pylist()


def test_unknown_merge_policy_refused_before_staging(workdir):
    """An unknown merge policy is refused on the driver with a plain
    ValueError (not a retried task's error) before anything is staged."""
    cd, td = os.path.join(workdir, "cl"), os.path.join(workdir, "tb")
    write_changelog(cd, num_epochs=1, events_per_epoch=60, num_keys=20, seed=3)
    files = sorted(glob.glob(os.path.join(cd, "epoch=*", "part-*.parquet")))
    with pytest.raises(ValueError, match="unknown merge policy") as exc:
        apply_events_dataset(files, td, 1, pq.read_schema(files[0]), num_partitions=4,
                             merge_policy="bogus")
    assert type(exc.value) is ValueError
    assert not os.path.exists(os.path.join(td, "_staging"))
    assert mf.load_current(td) is None
