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
    (one ``map_batches(stage_block, batch_size=None)`` call per block,
    what bootstrap/union/gate/relay use) — must produce byte-identical
    tables, counters and manifest entries, and leave no staging debris."""
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


def test_exchange_stages_one_ipc_file_per_input_file(tmp_path):
    """One epoch of F=4 changelog files into P=16 partitions stages
    exactly F files — one Arrow IPC file per stage task, nothing per
    partition — and nothing lists a staging directory: each merge task
    reads only the batches the driver routed to it."""
    import uuid

    from gamechanger_data_ray.core.changelog import epoch_dir
    from gamechanger_data_ray.state.fs import StorageAdapter

    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=1, events_per_epoch=2000, num_keys=400,
                    rows_per_file=600)
    assert len([f for f in os.listdir(epoch_dir(cd, 1)) if f.endswith(".parquet")]) == 4
    rec = str(tmp_path / "rec")
    os.makedirs(rec)

    class Recording(StorageAdapter):  # stage/merge tasks run in workers
        def _note(self, kind, path):
            if "_staging" in path:
                with open(os.path.join(rec, f"{kind}-{uuid.uuid4().hex}"), "w") as f:
                    f.write(path)

        def write_arrow_batches(self, path, tables):
            self._note("arrow", path)
            StorageAdapter.write_arrow_batches(self, path, tables)

        def write_parquet_atomic(self, table, path, row_group_size=None):
            self._note("parquet", path)
            StorageAdapter.write_parquet_atomic(self, table, path, row_group_size)

        def list_files(self, path, suffix=""):
            self._note("list", path)
            return StorageAdapter.list_files(self, path, suffix)

        def listdir(self, path):
            self._note("list", path)
            return StorageAdapter.listdir(self, path)

    t_rec, t_plain = str(tmp_path / "rec_tb"), str(tmp_path / "plain_tb")
    replay(cd, t_rec, num_partitions=16, fs=Recording())
    replay(cd, t_plain, num_partitions=16)
    notes: dict[str, list[str]] = {}
    for n in os.listdir(rec):
        with open(os.path.join(rec, n)) as f:
            notes.setdefault(n.split("-", 1)[0], []).append(f.read())
    assert len(notes.get("arrow", [])) == 4
    assert len(set(notes["arrow"])) == 4
    assert "parquet" not in notes and "list" not in notes
    assert len(mf.load_current(t_rec).partitions) == 16
    assert table_to_arrow(t_rec).equals(table_to_arrow(t_plain))


def test_commit_pools_are_sized_to_the_cluster(tmp_path):
    """One epoch of F=4 changelog files into P=16 partitions starts at most
    one stage task and one merge task per cluster CPU, each merge task
    opens each staged file at most once for its whole run of partitions,
    and the epoch still stages exactly F files."""
    import uuid

    import ray

    from gamechanger_data_ray.engine.tasks import cluster_cpus
    from gamechanger_data_ray.state.fs import StorageAdapter

    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=1, events_per_epoch=2000, num_keys=400,
                    rows_per_file=600)
    rec = str(tmp_path / "rec")
    os.makedirs(rec)

    class Recording(StorageAdapter):  # stage/merge tasks run in workers
        def _note(self, kind, path):
            task = ray.get_runtime_context().get_task_id()
            with open(os.path.join(rec, f"{kind}-{uuid.uuid4().hex}"), "w") as f:
                f.write(f"{task} {path}")

        def write_arrow_batches(self, path, tables):
            self._note("stage", path)
            StorageAdapter.write_arrow_batches(self, path, tables)

        def read_arrow_batches(self, path, indices):
            self._note("open", path)
            return StorageAdapter.read_arrow_batches(self, path, indices)

    t_rec, t_plain = str(tmp_path / "rec_tb"), str(tmp_path / "plain_tb")
    replay(cd, t_rec, num_partitions=16, fs=Recording())
    replay(cd, t_plain, num_partitions=16)
    notes: dict[str, list[tuple[str, str]]] = {}
    for n in os.listdir(rec):
        with open(os.path.join(rec, n)) as f:
            notes.setdefault(n.split("-", 1)[0], []).append(tuple(f.read().split(" ", 1)))
    cpus = cluster_cpus()
    staged = {path for _, path in notes["stage"]}
    assert len(notes["stage"]) == len(staged) == 4
    assert len({task for task, _ in notes["stage"]}) <= cpus
    assert len({task for task, _ in notes["open"]}) <= cpus
    assert len(notes["open"]) == len(set(notes["open"]))  # once per (task, file)
    assert {path for _, path in notes["open"]} == staged
    assert len(mf.load_current(t_rec).partitions) == 16
    assert table_to_arrow(t_rec).equals(table_to_arrow(t_plain))
