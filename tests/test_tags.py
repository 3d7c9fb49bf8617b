"""Named snapshot tags: pin retained epochs through vacuum, time-travel by
name, tag lifecycle + guards."""

from __future__ import annotations

import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine.cdc import read_table, replay
from gamechanger_data_ray.engine.maintenance import (
    list_tags,
    resolve_tag,
    tag,
    untag,
    vacuum,
)
from gamechanger_data_ray.state.manifest import list_manifests


def _table(tmp_path, epochs=4):
    cl, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cl, num_epochs=epochs, events_per_epoch=400, num_keys=80)
    replay(cl, tb, num_partitions=4, epochs_per_commit=1)
    return tb


def test_tag_pins_epoch_through_vacuum(tmp_path):
    tb = _table(tmp_path)
    assert list_manifests(tb) == [1, 2, 3, 4]
    tag(tb, "v1-release", epoch=1)
    rows_at_1 = read_table(tb, epoch="v1-release").count()
    out = vacuum(tb, keep_epochs=1)
    # tagged epoch 1 survives retention; untagged 2 and 3 are dropped
    assert out["manifests_kept"] == [1, 4]
    assert list_manifests(tb) == [1, 4]
    assert read_table(tb, epoch="v1-release").count() == rows_at_1
    with pytest.raises(FileNotFoundError):
        read_table(tb, epoch=2)
    # untag → the next vacuum evicts epoch 1 too
    untag(tb, "v1-release")
    out2 = vacuum(tb, keep_epochs=1)
    assert out2["manifests_kept"] == [4]
    with pytest.raises(KeyError):
        read_table(tb, epoch="v1-release")


def test_point_lookup_as_of_epoch_and_tag(tmp_path):
    """Time-travel point lookup: read_keys(epoch=...) answers against the
    retained manifest — an updated key shows its old version, a key
    deleted later is still visible — at the same O(|keys|) routing."""
    import pyarrow as pa

    from gamechanger_data_ray.engine.cdc import read_keys

    tb = _table(tmp_path)
    cur = read_keys(tb, ["doc-00000007"])
    old = read_keys(tb, ["doc-00000007"], epoch=1)
    tag(tb, "first", epoch=1)
    by_tag = read_keys(tb, ["doc-00000007"], epoch="first")
    assert old.equals(by_tag)
    if cur.num_rows and old.num_rows:
        # same key, possibly different version: lsn monotone
        assert cur["lsn"][0].as_py() >= old["lsn"][0].as_py()
    # a key alive at epoch 1 but deleted by epoch 4 is visible only as-of
    state1 = {r["doc_id"] for r in read_keys(
        tb, [f"doc-{i:08d}" for i in range(80)], epoch=1).to_pylist()}
    state4 = {r["doc_id"] for r in read_keys(
        tb, [f"doc-{i:08d}" for i in range(80)]).to_pylist()}
    gone = state1 - state4
    if gone:
        k = sorted(gone)[0]
        assert read_keys(tb, [k], epoch="first").num_rows == 1
        assert read_keys(tb, [k]).num_rows == 0


def test_checksum_as_of_tag(tmp_path):
    """A pinned release's digest is stable however far the table moves —
    the cross-replica verification story for training snapshots."""
    from gamechanger_data_ray.engine.maintenance import table_checksums

    tb = _table(tmp_path, epochs=3)
    tag(tb, "rel", epoch=2)
    d2 = table_checksums(tb, epoch="rel")["digest"]
    d2_int = table_checksums(tb, epoch=2)["digest"]
    cur = table_checksums(tb)["digest"]
    assert d2 == d2_int
    assert d2 != cur  # epoch 3 changed rows
    # as-of digest equals the digest the table had when it WAS epoch 2:
    # rebuild a second table up to epoch 2 only and compare
    import os

    from gamechanger_data_ray.engine.cdc import replay

    cl = str(tmp_path / "cl")
    tb2 = str(tmp_path / "tb2")
    assert os.path.isdir(cl)
    replay(cl, tb2, num_partitions=4, up_to_epoch=2)
    assert table_checksums(tb2)["digest"] == d2


def test_tag_lifecycle_and_guards(tmp_path):
    tb = _table(tmp_path, epochs=2)
    assert list_tags(tb) == {}
    assert tag(tb, "latest") == {"latest": 2}  # defaults to committed epoch
    assert tag(tb, "latest", epoch=1) == {"latest": 1}  # moves
    tag(tb, "other")
    assert resolve_tag(tb, "latest") == 1
    assert list_tags(tb) == {"latest": 1, "other": 2}
    with pytest.raises(ValueError):
        tag(tb, "bad", epoch=99)  # no retained manifest
    with pytest.raises(KeyError):
        untag(tb, "nope")
    assert untag(tb, "other") == {"latest": 1}
