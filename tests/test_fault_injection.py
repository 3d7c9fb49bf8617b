"""Fault injection: a transform that fails transiently (first attempt per
process) must converge through Ray's task retries, and the engine's
exactly-once sink must keep the final table byte-identical to a clean
run — the at-least-once + idempotent-commit claim, exercised."""

from __future__ import annotations

import os

import pyarrow as pa

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine.cdc import (
    apply_events_dataset,
    replay,
    table_to_arrow,
)
from gamechanger_data_ray.core.reconcile import unify_all
import glob

import pyarrow.parquet as pq
import ray.data


def test_transient_task_failure_converges(tmp_path):
    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=2, events_per_epoch=1500, num_keys=250)
    files = sorted(glob.glob(os.path.join(cd, "epoch=*", "*.parquet")))
    schema = unify_all([pq.read_schema(f) for f in files])

    # clean run
    clean = str(tmp_path / "clean")
    replay(cd, clean, num_partitions=4)

    # faulty run: the event stream passes through a stage that raises on
    # its first attempt in each worker process (marker file = attempt log)
    marker_dir = str(tmp_path / "markers")
    os.makedirs(marker_dir)

    def flaky(batch: pa.Table) -> pa.Table:
        marker = os.path.join(marker_dir, f"pid-{os.getpid()}")
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("failed once")
            raise RuntimeError("injected transient failure")
        return batch

    faulty = str(tmp_path / "faulty")
    events = ray.data.read_parquet(files).map_batches(
        flaky, batch_format="pyarrow",
        retry_exceptions=True, max_retries=4,
    )
    m = apply_events_dataset(events, faulty, epoch=2, incoming_schema=schema,
                             num_partitions=4)
    assert m is not None
    assert len(os.listdir(marker_dir)) > 0  # failures really were injected
    assert table_to_arrow(faulty).equals(table_to_arrow(clean))


def test_transient_failure_converges_delta_policy(tmp_path):
    """Same injected-failure convergence through the merge-on-read path:
    retried staging/merge tasks overwrite their delta files byte-identically
    and the resolved state matches a clean rewrite run."""
    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=2, events_per_epoch=1500, num_keys=250)
    files = sorted(glob.glob(os.path.join(cd, "epoch=*", "*.parquet")))
    schema = unify_all([pq.read_schema(f) for f in files])

    clean = str(tmp_path / "clean")
    replay(cd, clean, num_partitions=4)

    marker_dir = str(tmp_path / "markers")
    os.makedirs(marker_dir)

    def flaky(batch: pa.Table) -> pa.Table:
        marker = os.path.join(marker_dir, f"pid-{os.getpid()}")
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("failed once")
            raise RuntimeError("injected transient failure")
        return batch

    faulty = str(tmp_path / "faulty")
    events = ray.data.read_parquet(files).map_batches(
        flaky, batch_format="pyarrow",
        retry_exceptions=True, max_retries=4,
    )
    m = apply_events_dataset(events, faulty, epoch=2, incoming_schema=schema,
                             num_partitions=4, merge_policy="delta")
    assert m is not None
    assert len(os.listdir(marker_dir)) > 0
    assert table_to_arrow(faulty).equals(table_to_arrow(clean))


def test_scan_retries_flaky_storage_reads(tmp_path):
    """A full scan over copy-on-write partitions and delta stacks retries a
    transient storage read failure (first read per worker process) and
    converges to the clean scan's digests."""
    from gamechanger_data_ray.engine.cdc import apply_epochs
    from gamechanger_data_ray.engine.maintenance import table_checksums
    from gamechanger_data_ray.state.fs import StorageAdapter

    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=500, num_keys=120)
    apply_epochs(cd, tb, [1], num_partitions=4)
    apply_epochs(cd, tb, [2], num_partitions=4, merge_policy="delta")

    marker_dir = str(tmp_path / "markers")
    os.makedirs(marker_dir)

    class FlakyReads(StorageAdapter):
        def read_parquet(self, path, columns=None):
            marker = os.path.join(marker_dir, f"pid-{os.getpid()}")
            if not os.path.exists(marker):
                with open(marker, "w") as f:
                    f.write("failed once")
                raise OSError("injected transient read failure")
            return StorageAdapter.read_parquet(self, path, columns)

    clean = table_checksums(tb)
    assert table_checksums(tb, fs=FlakyReads()) == clean
    assert len(os.listdir(marker_dir)) > 0  # failures really were injected
