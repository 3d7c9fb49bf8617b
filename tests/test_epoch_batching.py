"""Epoch batching must be byte-identical to epoch-at-a-time replay (the LWW
reduce is associative over the (lsn, seq) total order)."""

from __future__ import annotations

import os

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine.cdc import replay, table_to_arrow
from gamechanger_data_ray.state import manifest as mf


def test_batched_equals_per_epoch(tmp_path):
    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=4, events_per_epoch=1200, num_keys=250, evolution=True, zipf_a=1.4)

    t_one = str(tmp_path / "one")
    t_batch = str(tmp_path / "batch")
    t_two = str(tmp_path / "two")
    replay(cd, t_one, num_partitions=4, epochs_per_commit=1)
    replay(cd, t_batch, num_partitions=4)  # all four epochs, one commit
    replay(cd, t_two, num_partitions=4, epochs_per_commit=2)

    a, b, c = table_to_arrow(t_one), table_to_arrow(t_batch), table_to_arrow(t_two)
    assert a.equals(b)
    assert a.equals(c)
    # all converge to the same committed epoch
    assert (
        mf.committed_epoch(t_one)
        == mf.committed_epoch(t_batch)
        == mf.committed_epoch(t_two)
        == 4
    )
    # batched totals still count every raw event exactly once
    assert (
        mf.load_current(t_batch).totals["events_in"]
        == mf.load_current(t_one).totals["events_in"]
    )


def test_file_list_and_dataset_inputs_identical(tmp_path):
    """The staged exchange's two inputs — a changelog FILE list (one fused
    stage task per file, what replay uses) and a change-event Dataset
    (``write_parquet(partition_cols=...)``, what bootstrap/union/gate/
    relay use) — must produce byte-identical tables, counters and
    manifest entries, and leave no staging debris."""
    import pyarrow.parquet as pq
    import ray.data

    from gamechanger_data_ray.core.changelog import ready_epochs
    from gamechanger_data_ray.core.reconcile import unify_all
    from gamechanger_data_ray.engine.cdc import _epoch_files, apply_events_dataset

    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=3, events_per_epoch=1500, num_keys=300, zipf_a=1.5)
    t_files = str(tmp_path / "files")
    t_ds = str(tmp_path / "dataset")
    replay(cd, t_files, num_partitions=4)
    files = [f for e in ready_epochs(cd) for f in _epoch_files(cd, e)]
    apply_events_dataset(ray.data.read_parquet(files), t_ds, 3,
                         unify_all([pq.read_schema(f) for f in files]),
                         num_partitions=4)
    assert table_to_arrow(t_files).equals(table_to_arrow(t_ds))
    mf_, md = mf.load_current(t_files), mf.load_current(t_ds)
    assert mf_.totals == md.totals
    assert mf_.epoch_counters["per_partition"] == md.epoch_counters["per_partition"]
    assert mf_.partitions == md.partitions
    for t in (t_files, t_ds):
        staging = os.path.join(t, "_staging")
        assert not os.path.exists(staging) or not os.listdir(staging)
