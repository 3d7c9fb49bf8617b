"""Hash-routed point lookup + predicate-pushdown reads.

The lookup must read ONLY the partitions the requested keys hash to
(O(|keys|) files, not a table scan) and return exactly the alive rows a
full-scan filter would — the Ray-Data analog of the reference's
fetch-doc-by-id path."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine.cdc import (
    read_keys,
    read_table,
    replay,
    routed_partition_files,
    table_to_arrow,
)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    root = tmp_path_factory.mktemp("lookup")
    cd, td = str(root / "cl"), str(root / "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=400, num_keys=120, seed=3)
    replay(cd, td, num_partitions=8)
    return td


def _alive(t: pa.Table) -> pa.Table:
    if "op" in t.column_names:
        t = t.filter(pc.field("op") != "D")
    return t


def test_lookup_routes_to_few_partitions(table):
    full = _alive(table_to_arrow(table))
    keys = full["doc_id"].to_pylist()[:3]
    files = routed_partition_files(table, keys)
    assert 1 <= len(files) <= len(keys) < 8


def test_lookup_matches_full_scan_filter(table):
    full = _alive(table_to_arrow(table))
    all_keys = full["doc_id"].to_pylist()
    keys = all_keys[::7][:10]
    got = read_keys(table, keys)
    want = _alive(full.filter(pc.field("doc_id").isin(keys)))
    want = want.take(pc.sort_indices(want, sort_keys=[("doc_id", "ascending")]))
    assert got.select(["doc_id", "tokens", "n_tok"]).equals(
        want.select(["doc_id", "tokens", "n_tok"])
    )


def test_lookup_missing_keys_empty(table):
    got = read_keys(table, ["no-such-doc-a", "no-such-doc-b"])
    assert got.num_rows == 0
    # schema still conforms to the table schema
    assert "doc_id" in got.column_names and "tokens" in got.column_names


def test_lookup_after_delete_finds_nothing(table, tmp_path):
    """Deletes compact on write: a deleted key is absent from the lookup,
    and the zone maps of the rewritten partitions reflect the removal."""
    import shutil

    import ray

    from gamechanger_data_ray.engine.cdc import apply_events_dataset
    from gamechanger_data_ray.state.manifest import committed_epoch

    td = str(tmp_path / "tb")
    shutil.copytree(table, td)
    full = _alive(table_to_arrow(td))
    dead = full["doc_id"].to_pylist()[:3]
    assert read_keys(td, dead).num_rows == len(dead)  # present before
    ev = pa.table({
        "op": ["D"] * 3,
        "lsn": pa.array([10**9] * 3, pa.int64()),
        "seq": pa.array([0, 1, 2], pa.int64()),
        "doc_id": dead,
    })
    m = apply_events_dataset(
        ray.data.from_arrow(ev), td, committed_epoch(td) + 1, ev.schema,
        num_partitions=8)
    assert m is not None and m.epoch_counters["tombstones"] >= 3
    assert read_keys(td, dead).num_rows == 0


def test_manifest_zone_maps_written(table):
    from gamechanger_data_ray.state import manifest as mf

    cur = mf.load_current(table)
    assert cur is not None
    for p in cur.partitions.values():
        assert "key_min" in p and "key_max" in p
        assert p["key_min"] <= p["key_max"]


def test_read_table_predicate_pushdown(table):
    import pyarrow.dataset as pads

    full = table_to_arrow(table)
    cutoff = int(pc.approximate_median(full["n_tok"]).as_py())
    got = read_table(table, predicate=pads.field("n_tok") >= cutoff).take_all()
    want = full.filter(pc.field("n_tok") >= cutoff)
    assert len(got) == want.num_rows


def test_projection_across_schema_generations(tmp_path):
    """Column projection over a table whose partition files span a schema
    evolution: untouched partitions carry pre-evolution files (no `lang`
    column) while touched ones are post-evolution — the projected read
    groups files by generation and null-fills the missing column."""
    import ray

    from gamechanger_data_ray.engine.cdc import apply_events_dataset

    td = str(tmp_path / "tb")
    e1 = pa.table({
        "op": ["I"] * 8,
        "lsn": pa.array([1] * 8, pa.int64()),
        "seq": pa.array(range(8), pa.int64()),
        "doc_id": [f"k{i}" for i in range(8)],
        "n_tok": pa.array([10 + i for i in range(8)], pa.int32()),
    })
    apply_events_dataset(ray.data.from_arrow(e1), td, 1, e1.schema, num_partitions=4)
    # epoch 2 touches ONE key and adds the `lang` column
    e2 = pa.table({
        "op": ["U"],
        "lsn": pa.array([2], pa.int64()),
        "seq": pa.array([0], pa.int64()),
        "doc_id": ["k0"],
        "n_tok": pa.array([99], pa.int32()),
        "lang": ["en"],
    })
    apply_events_dataset(ray.data.from_arrow(e2), td, 2, e2.schema, num_partitions=4)
    got = sorted(
        read_table(td, columns=["doc_id", "lang", "n_tok"]).take_all(),
        key=lambda r: r["doc_id"],
    )
    assert [r["doc_id"] for r in got] == [f"k{i}" for i in range(8)]
    langs = {r["doc_id"]: r["lang"] for r in got}
    assert langs["k0"] == "en"
    assert all(langs[f"k{i}"] is None for i in range(1, 8))
    assert {r["doc_id"]: r["n_tok"] for r in got}["k0"] == 99


def test_columns_projection(table):
    got = read_keys(
        table, table_to_arrow(table)["doc_id"].to_pylist()[:2],
        columns=["doc_id", "n_tok"],
    )
    assert got.column_names == ["doc_id", "n_tok"]


def test_columns_without_key_read_only_those_columns(table):
    """``columns`` need not name ``doc_id``: the result is still the
    key-sorted projection of the full lookup, and each routed file is
    read for the asked columns plus the LWW bookkeeping only."""
    from gamechanger_data_ray.state.fs import StorageAdapter

    asked = []

    class Recording(StorageAdapter):
        def read_parquet(self, path, columns=None, keys=None):
            asked.append(columns)
            return StorageAdapter.read_parquet(self, path, columns, keys)

    keys = _alive(table_to_arrow(table))["doc_id"].to_pylist()[::9][:12]
    full = read_keys(table, keys)
    got = read_keys(table, keys, columns=["n_tok"], fs=Recording())
    assert got.column_names == ["n_tok"]
    assert got["n_tok"].to_pylist() == full["n_tok"].to_pylist()
    assert asked
    for cols in asked:
        assert cols is not None
        assert set(cols) <= {"n_tok", "doc_id", "lsn", "seq", "op"}


def _absent_inrange_key(table):
    """An ABSENT key that lands inside its routed partition's zone-map
    range — so only the bloom (not the zone map) can prune it."""
    from gamechanger_data_ray.core.hashing import partition_ids
    from gamechanger_data_ray.state import manifest as mf

    cur = mf.load_current(table)
    npart = cur.num_partitions
    present = set(_alive(table_to_arrow(table))["doc_id"].to_pylist())
    for i in range(500):
        k = f"doc-{i:08d}a"
        if k in present:
            continue
        pid = partition_ids(pa.array([k]), npart).to_pylist()[0]
        e = cur.partitions.get(str(pid))
        if e and e.get("key_min") and e["key_min"] <= k <= e["key_max"]:
            return k
    raise AssertionError("no in-range absent key found")


def test_bloom_sidecars_written_and_prune_absent_keys(table):
    import glob
    import os

    sidecars = glob.glob(os.path.join(table, "part=*", "*.parquet.bloom"))
    assert sidecars, "rewrite merges must write bloom sidecars"
    # an absent key INSIDE its partition's zone range: only the bloom can
    # prove absence, and with it NO parquet file is touched
    k = _absent_inrange_key(table)
    assert routed_partition_files(table, [k]) == []
    assert read_keys(table, [k]).num_rows == 0
    # present keys still resolve through the bloom
    full = _alive(table_to_arrow(table))
    keys = full["doc_id"].to_pylist()[:5]
    got = read_keys(table, keys)
    assert sorted(got["doc_id"].to_pylist()) == sorted(keys)


def test_lookup_without_sidecars_still_works(table, tmp_path):
    """Tables written before sidecars existed (or with sidecars deleted)
    only lose the shortcut."""
    import glob
    import os
    import shutil

    k = _absent_inrange_key(table)
    td = str(tmp_path / "nosc")
    shutil.copytree(table, td)
    for s in glob.glob(os.path.join(td, "part=*", "*.bloom")):
        os.remove(s)
    assert routed_partition_files(td, [k]) != []        # no bloom, no prune
    assert read_keys(td, [k]).num_rows == 0             # still correct
    full = _alive(table_to_arrow(td))
    keys = full["doc_id"].to_pylist()[:5]
    assert sorted(read_keys(td, keys)["doc_id"].to_pylist()) == sorted(keys)


def test_vacuum_sweeps_orphaned_sidecars(tmp_path):
    import glob
    import os

    from gamechanger_data_ray.engine.maintenance import vacuum

    cd, td = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=3, events_per_epoch=300, num_keys=60)
    replay(cd, td, num_partitions=4, epochs_per_commit=1)
    all_blooms = set(glob.glob(os.path.join(td, "part=*", "*.bloom")))
    assert len(all_blooms) > 4  # several epochs' bases have sidecars
    vacuum(td, keep_epochs=1)
    left = set(glob.glob(os.path.join(td, "part=*", "*.bloom")))
    live = set(glob.glob(os.path.join(td, "part=*", "*.parquet")))
    assert left < all_blooms  # orphans swept
    assert left == {p + ".bloom" for p in live}  # exactly the live bases' sidecars
    # lookups still green post-vacuum
    full = _alive(table_to_arrow(td))
    keys = full["doc_id"].to_pylist()[:3]
    assert sorted(read_keys(td, keys)["doc_id"].to_pylist()) == sorted(keys)


def test_compaction_writes_sidecar_and_bloom_prunes_after(tmp_path):
    from gamechanger_data_ray.engine.maintenance import compact

    cd, td = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=300, num_keys=60)
    replay(cd, td, num_partitions=4, epochs_per_commit=1, merge_policy="delta")
    compact(td)
    import glob
    import os

    from gamechanger_data_ray.state import manifest as mf

    cur = mf.load_current(td)
    assert all(not e.get("deltas") for e in cur.partitions.values())
    bases = [os.path.join(td, e["file"]) for e in cur.partitions.values() if e.get("file")]
    assert bases and all(os.path.exists(b + ".bloom") for b in bases)
    k = _absent_inrange_key(td)
    assert routed_partition_files(td, [k]) == []


@pytest.fixture(scope="module")
def mor_table(tmp_path_factory):
    """A copy-on-write base (epoch 1) under three merge-on-read delta
    commits (epochs 2-4), one manifest per epoch."""
    root = tmp_path_factory.mktemp("lookup_mor")
    cd, td = str(root / "cl"), str(root / "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=200, num_keys=300, seed=21)
    replay(cd, td, num_partitions=4, up_to_epoch=1)
    replay(cd, td, num_partitions=4, epochs_per_commit=1, merge_policy="delta")
    return td


def _counting_fs():
    from gamechanger_data_ray.state.fs import StorageAdapter

    class CountingReads(StorageAdapter):
        def read_parquet(self, path, columns=None, keys=None):
            self.opened.append(path)
            return StorageAdapter.read_parquet(self, path, columns, keys)

    fs = CountingReads()
    fs.opened = []
    return fs


def _delta_keys(td, entry):
    import os

    import pyarrow.parquet as pq

    return {k for d in entry["deltas"]
            for k in pq.read_table(os.path.join(td, d), columns=["doc_id"])["doc_id"].to_pylist()}


def _routed_entry(td, key):
    from gamechanger_data_ray.core.hashing import partition_ids
    from gamechanger_data_ray.state import manifest as mf

    cur = mf.load_current(td)
    pid = partition_ids(pa.array([key]), cur.num_partitions).to_pylist()[0]
    return cur.partitions[str(pid)]


def test_lookup_opens_no_delta_that_lacks_the_keys(mor_table):
    """Keys held only by the base of a partition with three pending deltas
    open the base and none of the deltas; the rows are unchanged."""
    import os

    full = table_to_arrow(mor_table)
    entry = _routed_entry(mor_table, full["doc_id"][0].as_py())
    assert len(entry["deltas"]) == 3
    in_deltas = _delta_keys(mor_table, entry)
    keys = [k for k in full["doc_id"].to_pylist()
            if k not in in_deltas and _routed_entry(mor_table, k) == entry][:4]
    assert len(keys) == 4
    fs = _counting_fs()
    got = read_keys(mor_table, keys, fs=fs)
    assert fs.opened == [os.path.join(mor_table, entry["file"])]
    assert got.equals(full.filter(pc.field("doc_id").isin(keys)))


def test_missed_key_on_delta_stack_opens_no_parquet(mor_table):
    """An absent key routed to a partition with pending deltas: every
    file's sidecar, deltas included, rules it out, so nothing is opened."""
    k = _absent_inrange_key(mor_table)
    assert _routed_entry(mor_table, k).get("deltas")
    fs = _counting_fs()
    assert read_keys(mor_table, [k], fs=fs).num_rows == 0
    assert fs.opened == []
    assert routed_partition_files(mor_table, [k]) == []


def test_lookup_without_delta_sidecars_is_identical(mor_table, tmp_path):
    """Delta files without sidecars (older tables, as-of manifests) are
    read, not pruned: current and as-of lookups answer identically."""
    import glob
    import os
    import shutil

    td = str(tmp_path / "nosc")
    shutil.copytree(mor_table, td)
    gone = glob.glob(os.path.join(td, "part=*", "delta-e*.parquet.bloom"))
    assert len(gone) == 12  # every delta of the 4 partitions x 3 commits
    for s in gone:
        os.remove(s)
    full = table_to_arrow(mor_table)["doc_id"].to_pylist()
    keys = full[::9] + [_absent_inrange_key(mor_table), "no-such-doc"]
    for epoch in (None, 2, 3):
        want = read_keys(mor_table, keys, epoch=epoch)
        assert want.num_rows > 0
        assert read_keys(td, keys, epoch=epoch).equals(want)


def test_tombstone_only_delta_row_hides_the_key(mor_table, tmp_path):
    """A key whose only delta row is a tombstone: the delta's sidecar
    admits the key, so the tombstone is read and the key is gone."""
    import os
    import shutil

    import ray

    from gamechanger_data_ray.engine.cdc import apply_events_dataset
    from gamechanger_data_ray.state.manifest import committed_epoch

    td = str(tmp_path / "tomb")
    shutil.copytree(mor_table, td)
    # a key strictly inside its partition's key range, so the range left
    # after the delete still routes it and only the delta can hide it
    k = next(k for k in table_to_arrow(td)["doc_id"].to_pylist()
             if _routed_entry(td, k)["key_min"] < k < _routed_entry(td, k)["key_max"])
    assert read_keys(td, [k]).num_rows == 1
    ev = pa.table({"op": ["D"], "lsn": pa.array([10**9], pa.int64()),
                   "seq": pa.array([0], pa.int64()), "doc_id": [k]})
    e = committed_epoch(td) + 1
    apply_events_dataset(ray.data.from_arrow(ev), td, e, ev.schema, num_partitions=4,
                         merge_policy="delta")
    delta = _routed_entry(td, k)["deltas"][-1]
    assert delta.endswith(f"delta-e{e:06d}.parquet")
    assert os.path.exists(os.path.join(td, delta + ".bloom"))
    assert os.path.join(td, delta) in routed_partition_files(td, [k])
    assert read_keys(td, [k]).num_rows == 0
    assert read_keys(td, [k], epoch=e - 1).num_rows == 1


def test_row_group_key_selection_matches_full_file_filter(table, tmp_path):
    """Files rewritten with small row groups (the clustered rewrite's
    ``row_group_rows``): reading a file with ``keys`` selects row groups
    on their doc_id min/max and returns exactly the full-file filter."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from gamechanger_data_ray.engine.maintenance import cluster_table
    from gamechanger_data_ray.state import manifest as mf
    from gamechanger_data_ray.state.fs import StorageAdapter, _row_groups_holding

    td = str(tmp_path / "rg")
    shutil.copytree(table, td)
    cluster_table(td, by="doc_id", row_group_rows=4)
    full = table_to_arrow(td)
    keys = full["doc_id"].to_pylist()[::11] + ["no-such-doc"]
    fs = StorageAdapter()
    skipped = 0
    for e in mf.load_current(td).partitions.values():
        f = os.path.join(td, e["file"])
        meta = pq.ParquetFile(f).metadata
        assert meta.num_row_groups > 1
        whole = fs.read_parquet(f)
        got = fs.read_parquet(f, keys=keys)
        assert got.equals(whole.filter(pc.is_in(whole["doc_id"], pa.array(keys))))
        one = fs.read_parquet(f, keys=whole["doc_id"][:1].to_pylist())
        assert one.equals(whole.slice(0, 1))
        skipped += meta.num_row_groups - len(
            _row_groups_holding(meta, whole["doc_id"][:1].to_pylist()))
    assert skipped > 0
    assert read_keys(td, keys).equals(full.filter(pc.field("doc_id").isin(keys)))


def test_lookup_hashes_string_keys_once(table, monkeypatch):
    """One string-key lookup hashes its keys once: the partition ids and
    every file's Bloom probes come from the same hash, and the answer is
    the full-scan filter's."""
    from gamechanger_data_ray.core import hashing

    full = _alive(table_to_arrow(table))
    keys = [*full["doc_id"].to_pylist()[::5][:12], "no-such-doc"]
    calls = []
    fnv = hashing.fnv1a64
    monkeypatch.setattr(hashing, "fnv1a64", lambda a: calls.append(len(a)) or fnv(a))
    got = read_keys(table, keys)
    assert calls == [len(keys)]
    want = _alive(full.filter(pc.field("doc_id").isin(keys)))
    assert got["doc_id"].to_pylist() == sorted(want["doc_id"].to_pylist())
    assert got.select(["doc_id", "n_tok"]).equals(
        want.take(pc.sort_indices(want, sort_keys=[("doc_id", "ascending")]))
        .select(["doc_id", "n_tok"]))
