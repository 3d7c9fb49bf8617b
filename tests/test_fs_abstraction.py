"""Engine I/O through an explicit StorageAdapter (VERDICT #9): the replay
loop must produce byte-identical tables when routed through an injected
pyarrow filesystem handle — both with the POSIX atomic-rename commit and
with the object-store-style direct-PUT commit (atomic_rename=False), and
through a SubTreeFileSystem (proof that no code path escapes to raw
``os.*`` on the table side)."""

from __future__ import annotations

import os

import pyarrow.fs as pafs
import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine.cdc import replay, table_to_arrow
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.fs import StorageAdapter


@pytest.fixture()
def changelog(tmp_path):
    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=3, events_per_epoch=1500, num_keys=250,
                    seed=11, evolution=True)
    return cd


def test_replay_with_explicit_local_adapter(changelog, tmp_path):
    td_default = str(tmp_path / "t_default")
    td_adapter = str(tmp_path / "t_adapter")
    m1 = replay(changelog, td_default, num_partitions=4)
    fs = StorageAdapter(pafs.LocalFileSystem())
    m2 = replay(changelog, td_adapter, num_partitions=4, fs=fs)
    assert m1.epoch == m2.epoch == 3
    assert table_to_arrow(td_default).equals(table_to_arrow(td_adapter))


def test_replay_with_object_store_commit_protocol(changelog, tmp_path):
    """atomic_rename=False = the object-store path: every artifact is
    written DIRECTLY to its final key (PUT semantics), no temp+rename
    anywhere. Result must be byte-identical and resumable."""
    td_ref = str(tmp_path / "t_ref")
    td_put = str(tmp_path / "t_put")
    replay(changelog, td_ref, num_partitions=4)
    fs = StorageAdapter(pafs.LocalFileSystem(), atomic_rename=False)
    # resume mid-way: epoch 1 committed, then the full ladder
    m = replay(changelog, td_put, num_partitions=4, up_to_epoch=1, fs=fs)
    assert m.epoch == 1
    m = replay(changelog, td_put, num_partitions=4, fs=fs)
    assert m.epoch == 3
    assert table_to_arrow(td_ref).equals(table_to_arrow(td_put))
    # no rename debris
    for root, _dirs, files in os.walk(td_put):
        for f in files:
            assert ".tmp-" not in f and ".inprogress-" not in f, os.path.join(root, f)


def test_replay_through_subtree_filesystem(changelog, tmp_path):
    """SubTreeFileSystem relocates every path under a prefix: if any
    engine I/O bypassed the adapter (raw os.*), the table would land
    outside the subtree or the run would fail on missing paths."""
    root = tmp_path / "jail"
    root.mkdir()
    sub = pafs.SubTreeFileSystem(str(root), pafs.LocalFileSystem())
    fs = StorageAdapter(sub)
    # the changelog must also live inside the subtree
    rel_cl = "cl"
    write_changelog(str(root / rel_cl), num_epochs=2, events_per_epoch=800,
                    num_keys=150, seed=12)
    m = replay(rel_cl, "tb", num_partitions=4, fs=fs)
    assert m is not None and m.epoch == 2
    # the committed table physically lives inside the jail
    assert (root / "tb" / mf.CURRENT_POINTER).exists()
    td_ref = str(tmp_path / "t_ref2")
    replay(str(root / rel_cl), td_ref, num_partitions=4)
    assert table_to_arrow(td_ref).equals(table_to_arrow(str(root / "tb")))


def test_manifest_roundtrip_with_adapter(tmp_path):
    fs = StorageAdapter(pafs.LocalFileSystem(), atomic_rename=False)
    td = str(tmp_path / "t")
    fs.makedirs(td)
    man = mf.TableManifest(epoch=1, schema_b64=mf.schema_to_b64(
        __import__("pyarrow").schema([("doc_id", __import__("pyarrow").string())])
    ))
    assert mf.commit(td, man, fs)
    got = mf.load_current(td, fs)
    assert got is not None and got.epoch == 1
    # fencing still holds through the adapter
    assert not mf.commit(td, man, fs)


def test_commit_fence_reads_only_the_pointer(tmp_path):
    """The (epoch, rev) fence is decided from ``_CURRENT`` alone: a commit
    opens no ``_manifests/`` file, and a stale or duplicate (epoch, rev)
    is still refused."""
    import pyarrow as pa

    class CountingReads(StorageAdapter):
        def read_text(self, path):
            self.read.append(path)
            return StorageAdapter.read_text(self, path)

        def read_bytes(self, path):
            self.read.append(path)
            return StorageAdapter.read_bytes(self, path)

    fs = CountingReads()
    fs.read = []
    td = str(tmp_path / "t")
    schema_b64 = mf.schema_to_b64(pa.schema([("doc_id", pa.string())]))

    def man(epoch, rev=0):
        return mf.TableManifest(epoch=epoch, schema_b64=schema_b64, rev=rev)

    assert mf.commit(td, man(1), fs)
    assert mf.commit(td, man(2), fs)
    assert mf.commit(td, man(2, rev=1), fs)
    assert not mf.commit(td, man(2, rev=1), fs)  # duplicate
    assert not mf.commit(td, man(2), fs)  # older rev of the same epoch
    assert not mf.commit(td, man(1, rev=5), fs)  # older epoch
    assert fs.read
    assert not [p for p in fs.read if mf.MANIFEST_DIR in p], fs.read
    assert {os.path.basename(p) for p in fs.read} == {mf.CURRENT_POINTER}
    got = mf.load_current(td)
    assert (got.epoch, got.rev) == (2, 1)


def _sorted_arrow(ds, keys=("doc_id",)):
    import pyarrow as pa
    import pyarrow.compute as pc

    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    return t.take(pc.sort_indices(t, sort_keys=[(k, "ascending") for k in keys]))


def test_time_travel_through_subtree_filesystem(tmp_path):
    """As-of reads resolve retained manifests and tags through the
    adapter: every time-travel read inside a SubTreeFileSystem jail
    answers exactly like the same read on a plain-path replica."""
    from gamechanger_data_ray.core.diff import CHANGE_COLUMN
    from gamechanger_data_ray.engine.cdc import read_keys, read_table
    from gamechanger_data_ray.engine.diff import diff_table_epochs
    from gamechanger_data_ray.engine.maintenance import tag, table_checksums

    root = tmp_path / "jail"
    root.mkdir()
    fs = StorageAdapter(pafs.SubTreeFileSystem(str(root), pafs.LocalFileSystem()))
    write_changelog(str(root / "cl"), num_epochs=3, events_per_epoch=600,
                    num_keys=120, seed=13, evolution=True)
    replay("cl", "tb", num_partitions=4, epochs_per_commit=1, fs=fs)
    ref = str(tmp_path / "ref")
    replay(str(root / "cl"), ref, num_partitions=4, epochs_per_commit=1)
    for t in (str(root / "tb"), ref):
        tag(t, "rel2", epoch=2)

    keys = table_to_arrow(ref)["doc_id"].to_pylist()[::7] + ["no-such-key"]
    for at in (2, "rel2"):
        got = read_keys("tb", keys, fs=fs, epoch=at)
        assert got.num_rows and got.equals(read_keys(ref, keys, epoch=at))
    assert _sorted_arrow(read_table("tb", fs=fs, epoch=2)).equals(
        _sorted_arrow(read_table(ref, epoch=2)))
    assert table_checksums("tb", fs=fs, epoch=2) == table_checksums(ref, epoch=2)
    by = ("doc_id", CHANGE_COLUMN)
    assert _sorted_arrow(diff_table_epochs("tb", 1, 3, fs=fs), by).equals(
        _sorted_arrow(diff_table_epochs(ref, 1, 3), by))
    assert mf.list_manifests("tb", fs) == mf.list_manifests(ref) == [1, 2, 3]


def test_training_view_through_subtree_filesystem(tmp_path):
    """The training view packs its buckets through the adapter it was
    given: with table-relative paths inside a SubTreeFileSystem jail, a
    refresh writes the same bucket files as one on a plain-path replica."""
    import hashlib

    from gamechanger_data_ray.engine.training_view import training_view_refresh

    root = tmp_path / "jail"
    root.mkdir()
    fs = StorageAdapter(pafs.SubTreeFileSystem(str(root), pafs.LocalFileSystem()))
    write_changelog(str(root / "cl"), num_epochs=1, events_per_epoch=300,
                    num_keys=80, seed=14)
    replay("cl", "tb", num_partitions=2, fs=fs)
    ref = str(tmp_path / "ref")
    replay(str(root / "cl"), ref, num_partitions=2)

    got = training_view_refresh("view", "tb", cap=64, seed=1, fs=fs)
    want = training_view_refresh(str(tmp_path / "view"), ref, cap=64, seed=1)
    assert got["total_chunks"] == want["total_chunks"] > 0

    def digests(out, marker):
        return {p: hashlib.sha1((out / b["file"]).read_bytes()).hexdigest()
                for p, b in marker["buckets"].items() if b.get("file")}

    assert digests(root / "view", got) == digests(tmp_path / "view", want)
