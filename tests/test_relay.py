"""relay(): chained table→table CDC.

The lake itself is the changelog for downstream tables: a relay call
diffs the SOURCE's committed state at the destination's watermark
against the source's head (zero-shuffle, O(changed partitions)) and
LWW-applies the events at the source's epoch number. Mirrors the
reference's reindex-from-the-lake jobs
(``dataPipelines/gc_ingest/pipelines/core/cli.py:152-237``) as a
standing subscription instead of a manual batch job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine.cdc import apply_epoch, read_table, replay, table_to_arrow
from gamechanger_data_ray.engine.diff import relay
from gamechanger_data_ray.engine.maintenance import vacuum
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.manifest import list_manifests


@pytest.fixture()
def src_table(tmp_path):
    """3-epoch changelog (updates + deletes + schema evolution) committed
    epoch-at-a-time so the source retains a full manifest ladder."""
    cd, td = str(tmp_path / "cl"), str(tmp_path / "src")
    write_changelog(cd, num_epochs=3, events_per_epoch=1200, num_keys=200,
                    evolution=True)
    for e in (1, 2, 3):
        apply_epoch(cd, td, epoch=e, num_partitions=4)
    return cd, td


def test_relay_genesis_then_incremental(tmp_path, src_table):
    cd, src = src_table
    dst = str(tmp_path / "dst")

    # genesis: uncommitted dst seeded with the full current state
    r = relay(src, dst)
    assert r["mode"] == "genesis" and r["applied"] == 1
    assert r["dst_epoch_after"] == mf.committed_epoch(src) == 3
    a, b = table_to_arrow(src), table_to_arrow(dst)
    assert a.schema.equals(b.schema)
    assert a.equals(b)

    # fenced no-op when already caught up
    r2 = relay(src, dst)
    assert r2["mode"] == "noop" and r2["applied"] == 0

    # source advances (epoch 4 = re-apply epoch-3 events as a new epoch
    # via a second changelog segment): relay catches up incrementally
    cd2 = str(tmp_path / "cl2")
    write_changelog(cd2, num_epochs=5, events_per_epoch=900, num_keys=200)
    for e in (4, 5):
        apply_epoch(cd2, src, epoch=e, num_partitions=4)
    r3 = relay(src, dst)
    assert r3["mode"] == "diff" and r3["dst_epoch_before"] == 3
    assert r3["dst_epoch_after"] == 5
    assert table_to_arrow(dst).equals(table_to_arrow(src))


def test_relay_epoch_step_builds_time_travel_ladder(tmp_path, src_table):
    _, src = src_table
    dst = str(tmp_path / "dst")
    r = relay(src, dst, step="epoch")
    assert r["applied"] == 3
    # dst retains the same epoch ladder as src: per-epoch state matches
    assert list_manifests(dst) == [1, 2, 3]
    for e in (1, 2, 3):
        sa = read_table(src, epoch=e).to_pandas().sort_values("doc_id").reset_index(drop=True)
        da = read_table(dst, epoch=e).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert sa.equals(da), f"epoch {e} state differs"


def test_relay_propagates_deletes(tmp_path, src_table):
    """A key deleted upstream AFTER the genesis relay must disappear
    downstream (diff emits a tombstone; LWW apply drops the row)."""
    import pyarrow as pa
    import ray.data

    from gamechanger_data_ray.engine.cdc import apply_events_dataset

    _, src = src_table
    dst = str(tmp_path / "dst")
    relay(src, dst)
    before = table_to_arrow(dst)
    victim = before.column("doc_id").to_pylist()[0]

    cur = mf.load_current(src)
    ev = pa.table({
        "op": ["D"], "lsn": [10**9], "seq": [0], "doc_id": [victim],
    })
    apply_events_dataset(
        ray.data.from_arrow(ev), src, epoch=cur.epoch + 1,
        incoming_schema=ev.schema, num_partitions=4,
    )
    r = relay(src, dst)
    assert r["mode"] == "diff"
    after = table_to_arrow(dst)
    assert victim not in after.column("doc_id").to_pylist()
    assert after.equals(table_to_arrow(src))


def test_relay_retention_gap_raises_with_remedy(tmp_path, src_table):
    cd, src = src_table
    dst = str(tmp_path / "dst")
    # dst watermark = epoch 1
    r = relay(src, dst, step="epoch")
    assert r["applied"] == 3
    # rebuild a dst stuck at epoch 1 by relaying a fresh table one epoch
    src2 = str(tmp_path / "src2")
    apply_epoch(cd, src2, epoch=1, num_partitions=4)
    dst2 = str(tmp_path / "dst2")
    relay(src2, dst2)
    assert mf.committed_epoch(dst2) == 1
    for e in (2, 3):
        apply_epoch(cd, src2, epoch=e, num_partitions=4)
    # vacuum the source down to its last manifest: epoch-1 manifest gone
    vacuum(src2, keep_epochs=1)
    with pytest.raises(FileNotFoundError, match="relay gap"):
        relay(src2, dst2)


def test_relay_chain_three_deep(tmp_path, src_table):
    """A → B → C: each hop byte-identical, watermarks aligned."""
    _, a = src_table
    b, c = str(tmp_path / "b"), str(tmp_path / "c")
    relay(a, b)
    relay(b, c)
    ta = table_to_arrow(a)
    assert ta.equals(table_to_arrow(b))
    assert ta.equals(table_to_arrow(c))
    assert (mf.committed_epoch(a) == mf.committed_epoch(b)
            == mf.committed_epoch(c) == 3)


def test_relay_cli_verb(tmp_path, src_table):
    _, src = src_table
    dst = str(tmp_path / "dst")
    env = dict(os.environ, PYTHONPATH="/root/repo")
    p = subprocess.run(
        [sys.executable, "-m", "gamechanger_data_ray", "--num-cpus", "4",
         "relay", "--src", src, "--dst", dst],
        env=env, cwd="/root/repo", capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr[-500:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert out["mode"] == "genesis" and out["dst_epoch_after"] == 3
    assert table_to_arrow(dst).equals(table_to_arrow(src))
