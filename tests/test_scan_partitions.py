"""One committed-state scan: ``read_table``, ``validate_table`` and
``table_checksums`` all read through ``cdc.scan_partitions``. Over a
mixed layout — copy-on-write partitions of two file generations (before
and after the ``lang`` column was added) and merge-on-read delta stacks —
every argument shape of ``read_table`` must equal a driver-side reference
(resolve each partition, filter, project), and the reducers must equal
those of a copy-on-write twin. The scan runs at most one task per Ray CPU,
calls ``fn`` once per partition and never emits a block without columns."""

from __future__ import annotations

import glob
import json
import logging
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.core.hashing import partition_ids
from gamechanger_data_ray.core.reconcile import unify_all
from gamechanger_data_ray.engine.cdc import (
    _load_state,
    apply_epochs,
    apply_events_dataset,
    read_table,
    scan_partitions,
)
from gamechanger_data_ray.engine.maintenance import table_checksums, validate_table
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.fs import default_fs

NPART = 4


def _sorted(t: pa.Table) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")])).combine_chunks()


def _rows(ds) -> pa.Table:
    # materialize first: to_arrow_refs on a lazy Dataset runs the scan a
    # second time to fetch its schema
    blocks = ray.get(ds.materialize().to_arrow_refs())
    assert all(b.num_columns for b in blocks), "schema-less block"
    return _sorted(pa.concat_tables(blocks))


def _reference(td, columns=None, flt=None, epoch=None) -> pa.Table:
    """Driver-side scan: resolve every partition, filter, project."""
    m = mf.load_current(td) if epoch is None else mf.load_manifest(td, epoch)
    t = pa.concat_tables([
        _load_state(td, mf.entry_rels(e), m.schema, default_fs(None))
        for e in m.partitions.values() if mf.entry_rels(e)])
    if flt is not None:
        t = pads.dataset(t).to_table(filter=flt)
    return _sorted(t.select(columns) if columns else t)


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """Epochs 1-2 (no ``lang``) land copy-on-write. Epoch 3 (adds
    ``lang``) is split by partition: partitions 0-1 get it as deltas,
    partition 2 as a copy-on-write rewrite, partition 3 keeps its
    pre-evolution file. The twin applies the same events copy-on-write."""
    root = tmp_path_factory.mktemp("scan")
    cd, td, twin = (str(root / n) for n in ("cl", "mixed", "twin"))
    write_changelog(cd, num_epochs=3, events_per_epoch=600, num_keys=200,
                    evolution=True)
    files = sorted(glob.glob(os.path.join(cd, "epoch=000003", "*.parquet")))
    ev = pa.concat_tables([pq.read_table(f) for f in files])
    schema = unify_all([pq.read_schema(f) for f in files])
    pid = partition_ids(ev["doc_id"].combine_chunks(), NPART).to_numpy()
    for tb, mor in ((td, "delta"), (twin, "rewrite")):
        apply_epochs(cd, tb, [1], num_partitions=NPART)
        apply_epochs(cd, tb, [2], num_partitions=NPART)
        for epoch, parts, policy in ((3, [0, 1], mor), (4, [2], "rewrite")):
            sub = ev.filter(pa.array(np.isin(pid, parts)))
            apply_events_dataset(ray.data.from_arrow(sub), tb, epoch, schema,
                                 num_partitions=NPART, merge_policy=policy)
    return td, twin


def test_mixed_layout_covers_every_partition_kind(mixed):
    td, _ = mixed
    parts = mf.load_current(td).partitions
    assert [bool(parts[p].get("deltas")) for p in ("0", "1", "2", "3")] == \
        [True, True, False, False]
    have_lang = [
        "lang" in pq.read_schema(os.path.join(td, parts[p]["file"])).names
        for p in ("2", "3")]
    assert have_lang == [True, False]


IN_N_TOK = (pc.field("n_tok") >= 40) & (pc.field("n_tok") <= 90)
IS_EN = pc.field("lang") == "en"


@pytest.mark.parametrize("kwargs, columns, flt", [
    ({}, None, None),
    ({"columns": ["doc_id", "n_tok", "lang"]}, ["doc_id", "n_tok", "lang"], None),
    ({"bounds": {"n_tok": (40, 90)}}, None, IN_N_TOK),
    ({"columns": ["doc_id", "lang"], "bounds": {"n_tok": (40, 90)}},
     ["doc_id", "lang"], IN_N_TOK),
    ({"predicate": IS_EN}, None, IS_EN),
    ({"columns": ["doc_id", "source"], "predicate": IS_EN},
     ["doc_id", "source"], IS_EN),
    ({"epoch": 1}, None, None),
], ids=["all", "columns", "bounds", "columns+bounds", "predicate",
        "columns+predicate", "epoch"])
def test_read_table_equals_reference(mixed, kwargs, columns, flt):
    td, _ = mixed
    got = _rows(read_table(td, **kwargs))
    want = _reference(td, columns, flt, kwargs.get("epoch"))
    assert got.num_rows > 0
    assert got.schema == want.schema
    assert got.equals(want)


def test_reducers_equal_copy_on_write_twin(mixed):
    td, twin = mixed
    assert validate_table(td) == validate_table(twin)
    assert table_checksums(td) == table_checksums(twin)


@pytest.mark.parametrize("payload", [["part"], ["part", "path"]])
def test_payload_columns_named_like_scan_columns(tmp_path, payload):
    """A payload ``part`` (hive-style partition name) or ``path`` (the
    scan's file-path column) reads back intact, and partition ids still
    come from the files the rows were read from."""
    n = 40
    t = pa.table({
        "op": pa.array(["I"] * n),
        "lsn": pa.array(np.arange(n, dtype=np.int64)),
        "seq": pa.array(np.zeros(n, dtype=np.int64)),
        "doc_id": pa.array([f"d{i:03d}" for i in range(n)]),
        **{c: pa.array([f"{c}-{i}" for i in range(n)]) for c in payload},
    })
    td = str(tmp_path / "tb")
    apply_events_dataset(ray.data.from_arrow(t), td, 1, t.schema,
                         num_partitions=NPART)
    got = _rows(read_table(td, columns=["doc_id", *payload]))
    assert got.equals(_sorted(t.select(["doc_id", *payload])))
    parts = {int(p) for p in mf.load_current(td).partitions}
    assert set(table_checksums(td)["by_partition"]) == parts


def test_bounded_scan_yields_no_schemaless_block(tmp_path):
    """A pushed-down filter that empties some partitions leaves typed
    blocks only: no ``(0, 0)`` block and no executor warning about a
    RefBundle with a different schema."""
    cd, td = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=1, events_per_epoch=3000, num_keys=800,
                    seed=3)
    apply_epochs(cd, td, [1], num_partitions=NPART)
    seen: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: seen.append(record.getMessage())
    log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    log.addHandler(handler)
    try:
        blocks = ray.get(read_table(td, bounds={"n_tok": (18, 18)})
                         .materialize().to_arrow_refs())
    finally:
        log.removeHandler(handler)
    assert sum(b.num_rows for b in blocks) > 0
    assert [b.shape for b in blocks if not b.num_columns] == []
    assert not [m for m in seen if "different schema" in m]


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """16 partitions: epoch 1 copy-on-write everywhere, epoch 2 as
    merge-on-read deltas on partitions 0-7 only."""
    root = tmp_path_factory.mktemp("wide")
    cd, td = str(root / "cl"), str(root / "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=800, num_keys=300)
    apply_epochs(cd, td, [1], num_partitions=16)
    files = sorted(glob.glob(os.path.join(cd, "epoch=000002", "*.parquet")))
    ev = pa.concat_tables([pq.read_table(f) for f in files])
    pid = partition_ids(ev["doc_id"].combine_chunks(), 16).to_numpy()
    apply_events_dataset(ray.data.from_arrow(ev.filter(pa.array(pid < 8))),
                         td, 2, ev.schema, num_partitions=16,
                         merge_policy="delta")
    return td


def test_scan_groups_partitions_into_one_task_per_cpu(wide, tmp_path):
    """A 16-partition mixed scan runs at most one map task per Ray CPU (4
    on the test session), and ``fn`` sees every partition exactly once,
    its id an ``int``."""
    td = wide
    m = mf.load_current(td)
    assert sum(bool(e.get("deltas")) for e in m.partitions.values()) == 8
    calls = str(tmp_path / "calls")
    os.makedirs(calls)

    def record(rows, part):
        task = ray.get_runtime_context().get_task_id()
        with open(os.path.join(calls, uuid.uuid4().hex), "w") as f:
            json.dump({"task": task, "part": part,
                       "is_int": isinstance(part, int)}, f)
        return rows

    ds = scan_partitions(td, m, default_fs(None), m.schema, record)
    cpus = int(ray.cluster_resources()["CPU"])
    assert cpus < 16
    # one execution: to_arrow_refs would run the scan again for its schema
    got = pa.concat_tables(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert _sorted(got).equals(_reference(td))
    seen = [json.load(open(os.path.join(calls, n))) for n in os.listdir(calls)]
    assert len({c["task"] for c in seen}) <= cpus
    assert all(c["is_int"] for c in seen)
    assert sorted(c["part"] for c in seen) == sorted(
        int(p) for p in m.partitions)


def test_scan_pruned_to_nothing_is_typed_empty(wide):
    """Bounds that zone-map-prune every partition give an empty Dataset
    typed as the read schema."""
    td = wide
    cols = ["doc_id", "n_tok"]
    ds = read_table(td, columns=cols, bounds={"n_tok": (10**9, None)})
    want = pa.schema([mf.load_current(td).schema.field(c) for c in cols])
    assert ds.count() == 0
    assert ds.schema().base_schema == want
