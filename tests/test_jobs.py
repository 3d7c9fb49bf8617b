"""Job-status lifecycle rows (the crawler_status/pipeline_jobs analog,
``gc_ingest/pipelines/core/steps.py:141-175``)."""

from __future__ import annotations

import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine.cdc import replay
from gamechanger_data_ray.engine.jobs import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_STARTED,
    JobStatus,
    job_history,
)


def test_replay_records_start_and_complete(tmp_path):
    cd, td = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=500, num_keys=100, seed=3)
    replay(cd, td, num_partitions=4)
    hist = job_history(td)
    assert [h["status"] for h in hist] == [STATUS_STARTED, STATUS_COMPLETED]
    assert hist[0]["job_id"] == hist[1]["job_id"]
    assert hist[0]["job_type"] == "replay"
    assert hist[1]["applied_epochs"] == [1, 2]
    assert hist[1]["epoch"] == 2
    assert hist[1]["totals"]["events_in"] == 1020  # 2 epochs x 510 (incl. 2% dup deliveries)
    # a second (no-op) run appends its own pair — append-only history
    replay(cd, td, num_partitions=4)
    hist = job_history(td)
    assert len(hist) == 4 and hist[3]["applied_epochs"] == []


def test_failed_job_records_error(tmp_path):
    td = str(tmp_path / "tb")
    with pytest.raises(RuntimeError):
        with JobStatus(td, "sweep"):
            raise RuntimeError("boom")
    hist = job_history(td)
    assert [h["status"] for h in hist] == [STATUS_STARTED, STATUS_FAILED]
    assert "boom" in hist[1]["error"]


def test_phase_wall_in_epoch_counters(tmp_path):
    """Each commit records driver-observed stage/merge wall clocks so a
    slow replay localizes to exchange vs merge from `history` alone."""
    from gamechanger_data_ray.core.changelog import write_changelog
    from gamechanger_data_ray.engine.cdc import replay

    cd, td = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=400, num_keys=80)
    m = replay(cd, td, num_partitions=4)
    pw = m.epoch_counters["phase_wall"]
    assert set(pw) == {"stage", "merge"}
    assert pw["stage"] > 0 and pw["merge"] > 0

    # the Dataset input to the same exchange records the same two phases
    import pyarrow.parquet as pq
    import ray.data

    from gamechanger_data_ray.core.changelog import ready_epochs
    from gamechanger_data_ray.engine.cdc import _epoch_files, apply_events_dataset

    files = [f for e in ready_epochs(cd) for f in _epoch_files(cd, e)]
    m2 = apply_events_dataset(ray.data.read_parquet(files), str(tmp_path / "tb2"), 2,
                              pq.read_schema(files[0]), num_partitions=4)
    pw = m2.epoch_counters["phase_wall"]
    assert set(pw) == {"stage", "merge"}
    assert pw["stage"] > 0 and pw["merge"] > 0
