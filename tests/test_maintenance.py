"""Restore (point-in-time rollback) + vacuum + export/import bundle
tests — K4 and S10/S11 (DB/ES export-import jobs) parity."""

from __future__ import annotations

import glob
import os

import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine.cdc import replay, table_to_arrow
from gamechanger_data_ray.engine.maintenance import (
    export_table,
    import_table,
    restore,
    vacuum,
)
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.manifest import list_manifests


@pytest.fixture()
def table(tmp_path):
    cd, td = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=800, num_keys=150)
    # per-epoch commits so every epoch has a retained manifest
    replay(cd, td, num_partitions=4, epochs_per_commit=1)
    return td


def test_restore_is_point_in_time(table):
    assert list_manifests(table) == [1, 2, 3, 4]
    state4 = table_to_arrow(table)
    restore(table, 2)
    assert mf.committed_epoch(table) == 2
    state2 = table_to_arrow(table)
    assert not state2.equals(state4)
    # roll forward again — files are immutable, both states intact
    restore(table, 4)
    assert table_to_arrow(table).equals(state4)


def test_restore_unknown_epoch_fails_clearly(table):
    with pytest.raises(FileNotFoundError, match="no retained manifest"):
        restore(table, 99)


def test_vacuum_frees_old_files_and_protects_window(table):
    n_before = len(glob.glob(os.path.join(table, "part=*", "*.parquet")))
    out = vacuum(table, keep_epochs=2)
    assert out["files_deleted"] > 0 and out["bytes_freed"] > 0
    assert out["manifests_kept"] == [3, 4]
    n_after = len(glob.glob(os.path.join(table, "part=*", "*.parquet")))
    assert n_after == n_before - out["files_deleted"]
    # table still reads identically
    assert table_to_arrow(table).num_rows > 0
    # restore within the window still works …
    restore(table, 3)
    assert mf.committed_epoch(table) == 3
    # … outside the window fails clearly (manifest gone)
    with pytest.raises(FileNotFoundError):
        restore(table, 1)


def test_vacuum_then_replay_continues(table, tmp_path):
    vacuum(table, keep_epochs=1)
    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=5, events_per_epoch=800, num_keys=150)
    m = replay(cd, table, num_partitions=4)
    assert m is not None and m.epoch == 5


def test_export_import_roundtrip_is_identical(table, tmp_path):
    bundle = str(tmp_path / "bundle")
    out = export_table(table, bundle)
    assert out["files"] > 0 and out["bytes"] > 0

    target = str(tmp_path / "imported")
    m = import_table(bundle, target)
    assert m.epoch == mf.committed_epoch(table)
    assert table_to_arrow(target).equals(table_to_arrow(table))


def test_export_refuses_existing_target(table, tmp_path):
    bundle = str(tmp_path / "bundle")
    export_table(table, bundle)
    with pytest.raises(FileExistsError, match="idempotence fence"):
        export_table(table, bundle)


def test_import_refuses_committed_target_and_bad_bundle(table, tmp_path):
    bundle = str(tmp_path / "bundle")
    export_table(table, bundle)
    with pytest.raises(FileExistsError, match="already has a committed table"):
        import_table(bundle, table)
    # corrupt a data file → integrity check fails
    victim = glob.glob(os.path.join(bundle, "part=*", "*.parquet"))[0]
    with open(victim, "ab") as f:
        f.write(b"x")
    with pytest.raises(ValueError, match="integrity"):
        import_table(bundle, str(tmp_path / "fresh"))


def test_imported_table_resumes_tailing(table, tmp_path):
    bundle = str(tmp_path / "bundle")
    export_table(table, bundle)
    target = str(tmp_path / "imported")
    import_table(bundle, target)
    # new epochs land on the imported table exactly as on the original
    cd = str(tmp_path / "cl2")
    write_changelog(cd, num_epochs=5, events_per_epoch=800, num_keys=150)
    m1 = replay(cd, table, num_partitions=4)
    m2 = replay(cd, target, num_partitions=4)
    assert m1.epoch == m2.epoch == 5
    assert table_to_arrow(target).equals(table_to_arrow(table))


def test_repartition_preserves_state_and_checkpoint(table, tmp_path):
    from gamechanger_data_ray.engine.maintenance import repartition_table

    out = str(tmp_path / "wide")
    m = repartition_table(table, out, new_partitions=8)
    assert m.num_partitions == 8
    assert m.epoch == mf.committed_epoch(table)  # same changelog position
    assert table_to_arrow(out).equals(table_to_arrow(table))
    # tailing continues on the repartitioned table at the new width
    cd = str(tmp_path / "cl_more")
    write_changelog(cd, num_epochs=5, events_per_epoch=800, num_keys=150)
    m_new = replay(cd, out, num_partitions=99)  # arg ignored: stored 8 wins
    m_old = replay(cd, table, num_partitions=99)  # stored 4 wins
    assert m_new.num_partitions == 8 and m_old.num_partitions == 4
    assert table_to_arrow(out).equals(table_to_arrow(table))


def test_partition_count_is_pinned_against_misrouting(table, tmp_path):
    """Replaying later epochs with a DIFFERENT num_partitions arg must not
    re-route events away from their stored state partitions (the silent
    key-duplication hazard) — the stored count wins."""
    cd = str(tmp_path / "cl2")
    write_changelog(cd, num_epochs=6, events_per_epoch=800, num_keys=150)
    m = replay(cd, table, num_partitions=16)  # table was created with 4
    assert m.num_partitions == 4
    got = table_to_arrow(table)
    # no duplicate doc_ids (the failure mode of mixed-modulus routing)
    ids = got["doc_id"].to_pylist()
    assert len(ids) == len(set(ids))


def test_repartition_refuses_committed_target(table, tmp_path):
    from gamechanger_data_ray.engine.maintenance import repartition_table

    out = str(tmp_path / "wide")
    repartition_table(table, out, new_partitions=8)
    with pytest.raises(FileExistsError):
        repartition_table(table, out, new_partitions=8)


def test_read_asof_is_nondestructive_time_travel(table):
    from gamechanger_data_ray.engine.cdc import read_table

    import pyarrow.compute as pc

    now = table_to_arrow(table)
    asof2 = read_table(table, epoch=2).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # pointer untouched
    assert mf.committed_epoch(table) == 4
    # asof-2 state equals what restore(2) would show, without restoring
    restore(table, 2)
    want = table_to_arrow(table).to_pandas().sort_values("doc_id").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(asof2, want[asof2.columns])
    restore(table, 4)
    assert table_to_arrow(table).equals(now)


def test_validate_clean_table_has_no_violations(table, ray_session):
    from gamechanger_data_ray.engine.maintenance import validate_table

    out = validate_table(table)
    assert out["rows"] == mf.load_current(table).totals["rows"]
    assert out["violations"] == {}
    assert out["by_partition"] == {}


def test_validate_counts_corrupt_rows_per_partition(table, ray_session):
    """Rewrite one referenced data file with a wrong n_tok and an empty
    doc_id; the validator must count both, attributed to that partition."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gamechanger_data_ray.engine.maintenance import validate_table

    current = mf.load_current(table)
    victim = sorted(current.data_files(table))[0]
    t = pq.read_table(victim)
    n = t.num_rows
    assert n >= 2
    bad_ntok = t["n_tok"].to_pylist()
    bad_ntok[0] = (bad_ntok[0] or 0) + 7
    doc = t["doc_id"].to_pylist()
    doc[1] = ""
    t = t.set_column(t.schema.get_field_index("n_tok"), "n_tok",
                     pa.array(bad_ntok, t.schema.field("n_tok").type))
    t = t.set_column(t.schema.get_field_index("doc_id"), "doc_id",
                     pa.array(doc, pa.string()))
    pq.write_table(t, victim)

    out = validate_table(table)
    assert out["violations"]["ntok_mismatch"] == 1
    assert out["violations"]["bad_doc_id"] == 1
    import re

    part = int(re.search(r"part=(\d+)/", victim.replace("\\", "/")).group(1))
    assert out["by_partition"][part]["ntok_mismatch"] == 1
    assert out["by_partition"][part]["bad_doc_id"] == 1


def test_validate_empty_table(tmp_path, ray_session):
    from gamechanger_data_ray.engine.maintenance import validate_table

    out = validate_table(str(tmp_path / "nope"))
    assert out == {"rows": 0, "violations": {}, "by_partition": {}}


def test_cli_leaves_the_callers_ray_session_up(table, ray_session, capsys):
    """An in-process CLI call runs on the caller's Ray session and leaves
    it running: ``main`` shuts down only a session it started itself."""
    import json

    import ray

    from gamechanger_data_ray.__main__ import main

    for argv in (["validate", "--table", table],
                 ["--num-cpus", "2", "scan", "--table", table]):
        assert main(argv) == 0
        assert ray.is_initialized(), argv
        assert ray.cluster_resources()["CPU"] == 4, argv
    validated, scanned = map(json.loads, capsys.readouterr().out.splitlines())
    assert validated["violations"] == {}
    assert scanned["rows"] == validated["rows"]


def test_prune_changelog_respects_laggiest_consumer(tmp_path):
    from gamechanger_data_ray.core.changelog import (
        prune_changelog,
        ready_epochs,
        write_changelog,
    )

    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=4, events_per_epoch=200, num_keys=50)
    fast, slow = str(tmp_path / "fast"), str(tmp_path / "slow")
    replay(cd, fast, num_partitions=2)                  # applied 4
    replay(cd, slow, num_partitions=2, up_to_epoch=2)   # applied 2

    out = prune_changelog(cd, applied_tables=[fast, slow])
    assert out == {"pruned_epochs": [1, 2], "bound": 2}
    assert ready_epochs(cd) == [3, 4]
    # slow consumer catches up from what's left, converging with fast
    m = replay(cd, slow, num_partitions=2)
    assert m.epoch == 4
    assert table_to_arrow(slow).equals(table_to_arrow(fast))
    # idempotent: nothing new applied, nothing more to prune
    assert prune_changelog(cd, applied_tables=[fast, slow])["pruned_epochs"] == [3, 4]


def test_prune_changelog_explicit_bound_and_guard(tmp_path):
    import pytest

    from gamechanger_data_ray.core.changelog import (
        prune_changelog,
        ready_epochs,
        write_changelog,
    )

    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=3, events_per_epoch=100, num_keys=20)
    with pytest.raises(ValueError):
        prune_changelog(cd)
    out = prune_changelog(cd, up_to_epoch=1)
    assert out["pruned_epochs"] == [1] and ready_epochs(cd) == [2, 3]
    # a consumer that applied NOTHING pins everything, even with a bound
    empty_tb = str(tmp_path / "tb_empty")
    out = prune_changelog(cd, up_to_epoch=3, applied_tables=[empty_tb])
    assert out["pruned_epochs"] == []
    assert ready_epochs(cd) == [2, 3]


def test_interrupted_prune_leaves_only_invisible_debris(tmp_path, monkeypatch):
    """Crash between marker removal and dir removal: the epoch is already
    invisible to every reader (marker-first ordering), and a prune rerun
    sweeps the debris."""
    from gamechanger_data_ray.core.changelog import (
        prune_changelog,
        ready_epochs,
        write_changelog,
    )
    from gamechanger_data_ray.state.fs import StorageAdapter

    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=2, events_per_epoch=100, num_keys=20)

    real_rmtree = StorageAdapter.rmtree
    calls = {"n": 0}

    def crashing_rmtree(self, path):
        if "epoch=" in path:
            calls["n"] += 1
            raise RuntimeError("crash between unpublish and delete")
        return real_rmtree(self, path)

    monkeypatch.setattr(StorageAdapter, "rmtree", crashing_rmtree)
    with pytest.raises(RuntimeError):
        prune_changelog(cd, up_to_epoch=1)
    monkeypatch.setattr(StorageAdapter, "rmtree", real_rmtree)

    assert calls["n"] == 1
    assert ready_epochs(cd) == [2]  # epoch 1's debris is INVISIBLE already
    out = prune_changelog(cd, up_to_epoch=1)  # rerun sweeps the debris dir
    assert out["pruned_epochs"] == []  # nothing newly unpublished
    import os as _os
    assert not _os.path.isdir(_os.path.join(cd, "epoch=000001"))
    assert ready_epochs(cd) == [2]
