"""Snapshot-diff (reverse CDC) tests: kernel classification, the closure
property (LWW-applying the diff onto the old state reproduces the new
state byte-identically), partition pruning, and retraction folding."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.core.diff import (
    CHANGE_COLUMN,
    TOMBSTONE_SEQ,
    diff_states,
)
from gamechanger_data_ray.engine.cdc import read_table, replay, table_to_arrow
from gamechanger_data_ray.engine.diff import diff_table_epochs
from gamechanger_data_ray.state.manifest import load_manifest

SCHEMA = pa.schema(
    [
        ("op", pa.string()),
        ("lsn", pa.int64()),
        ("seq", pa.int64()),
        ("version_hash", pa.string()),
        ("doc_id", pa.string()),
        ("n_tok", pa.int32()),
    ]
)


def _state(rows: list[tuple]) -> pa.Table:
    cols = list(zip(*rows)) if rows else [[]] * len(SCHEMA)
    return pa.table(
        {f.name: pa.array(list(c), f.type) for f, c in zip(SCHEMA, cols)},
        schema=SCHEMA,
    )


OLD = _state(
    [
        ("I", 1, 0, "a", "d1", 10),
        ("I", 1, 1, "b", "d2", 20),
        ("U", 2, 5, "c", "d3", 30),
    ]
)
NEW = _state(
    [
        ("I", 1, 0, "a", "d1", 10),  # unchanged
        ("U", 3, 7, "c2", "d3", 33),  # updated
        ("I", 3, 9, "e", "d4", 40),  # inserted  (d2 deleted)
    ]
)


def test_kernel_classification():
    ev = diff_states(OLD, NEW)
    by_key = {r["doc_id"]: r for r in ev.to_pylist()}
    assert set(by_key) == {"d2", "d3", "d4"}
    assert by_key["d2"][CHANGE_COLUMN] == "delete"
    assert by_key["d2"]["op"] == "D"
    assert by_key["d2"]["seq"] == TOMBSTONE_SEQ
    assert by_key["d2"]["lsn"] == 1  # the deleted row's own lsn
    assert by_key["d2"]["n_tok"] is None  # tombstones carry no payload
    assert by_key["d3"][CHANGE_COLUMN] == "update"
    assert by_key["d3"]["n_tok"] == 33  # new row verbatim
    assert by_key["d4"][CHANGE_COLUMN] == "insert"


def test_kernel_retractions_mode():
    z = diff_states(OLD, NEW, mode="retractions")
    rows = [(r["doc_id"], r["sign"], r["n_tok"]) for r in z.to_pylist()]
    assert sorted(rows) == [("d2", -1, 20), ("d3", -1, 30), ("d3", 1, 33), ("d4", 1, 40)]
    # signed fold of an additive aggregate = new minus old
    dn = sum(r["sign"] * r["n_tok"] for r in z.to_pylist())
    total = lambda t: pc.sum(t["n_tok"]).as_py()
    assert dn == total(NEW) - total(OLD)


def test_kernel_one_sided_and_empty():
    assert diff_states(None, NEW)[CHANGE_COLUMN].to_pylist() == ["insert"] * 3
    assert diff_states(OLD, None)[CHANGE_COLUMN].to_pylist() == ["delete"] * 3
    assert diff_states(OLD.slice(0, 0), NEW.slice(0, 0)).num_rows == 0
    # identical states → empty diff in both modes
    assert diff_states(OLD, OLD).num_rows == 0
    assert diff_states(OLD, OLD, mode="retractions").num_rows == 0


@pytest.fixture(scope="module")
def diffed_table(tmp_path_factory):
    """A table replayed to epoch 2 and then to epoch 4 (with schema
    evolution + deletes in between), plus a sibling copy stopped at 2."""
    base = tmp_path_factory.mktemp("diff_tbl")
    changelog = str(base / "changelog")
    write_changelog(
        changelog, num_epochs=4, events_per_epoch=800, num_keys=200,
        zipf_a=1.2, mean_tokens=8, evolution=True, rows_per_file=300,
    )
    full = str(base / "table_full")
    replay(changelog, full, num_partitions=8, up_to_epoch=2, epochs_per_commit=1)
    replay(changelog, full, num_partitions=8, epochs_per_commit=1)
    old_copy = str(base / "table_old")
    replay(changelog, old_copy, num_partitions=8, up_to_epoch=2)
    return changelog, full, old_copy


def test_diff_matches_full_state_compare(diffed_table):
    from gamechanger_data_ray.core.reconcile import conform, unify_schemas

    _, full, _ = diffed_table
    got = pa.concat_tables(diff_table_epochs(full, 2, 4).iter_batches(
        batch_size=None, batch_format="pyarrow"))
    old_t = table_to_arrow_asof(full, 2)
    new_t = table_to_arrow_asof(full, 4)
    uni = unify_schemas(old_t.schema, new_t.schema)
    expect = diff_states(conform(old_t, uni), conform(new_t, uni))
    key = [("doc_id", "ascending"), ("seq", "ascending")]
    got = got.take(pc.sort_indices(got, sort_keys=key)).combine_chunks()
    expect = expect.take(pc.sort_indices(expect, sort_keys=key)).combine_chunks()
    assert got.select(sorted(got.schema.names)).equals(
        expect.select(sorted(expect.schema.names))
    )


def table_to_arrow_asof(table_dir: str, epoch: int) -> pa.Table:
    t = pa.concat_tables(
        read_table(table_dir, epoch=epoch)
        .to_pandas()
        .pipe(lambda df: [pa.Table.from_pandas(df, preserve_index=False)])
    )
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


def test_closure_apply_diff_reconverges_byte_identical(diffed_table):
    """The flagship property: old state + diff events == new state."""
    from gamechanger_data_ray.engine.cdc import apply_events_dataset

    _, full, old_copy = diffed_table
    diff_ds = diff_table_epochs(full, 2, 4).drop_columns([CHANGE_COLUMN])
    m = apply_events_dataset(
        diff_ds,
        old_copy,
        epoch=4,
        incoming_schema=diff_ds.schema().base_schema,
        num_partitions=8,
    )
    assert m is not None and m.epoch == 4
    a = table_to_arrow(full)
    b = table_to_arrow(old_copy)
    assert a.schema.equals(b.schema)
    assert a.equals(b)


def test_identical_epochs_diff_empty_without_reads(diffed_table):
    _, full, _ = diffed_table
    ds = diff_table_epochs(full, 4, 4)
    assert ds.count() == 0


def test_partition_count_mismatch_rejected(diffed_table, tmp_path):
    from gamechanger_data_ray.engine.maintenance import repartition_table

    _, full, _ = diffed_table
    repartitioned = str(tmp_path / "repart")
    repartition_table(full, repartitioned, new_partitions=4)
    man_old = load_manifest(full, 2)
    # hand-graft the 8-way epoch-2 manifest into the 4-way table's history
    import shutil

    shutil.copy(
        os.path.join(full, "_manifests", "manifest-000002.json"),
        os.path.join(repartitioned, "_manifests", "manifest-000002.json"),
    )
    assert man_old.num_partitions == 8
    with pytest.raises(ValueError, match="partition"):
        diff_table_epochs(repartitioned, 2).take_all()
