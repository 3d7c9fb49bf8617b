"""Parquet encodings of engine data files (``state/fs.py::parquet_encodings``).

Integer-list columns (``tokens``) are written delta-packed with no
dictionary; every other leaf — strings, struct leaves, list<string>
leaves — keeps dictionary encoding. Pinned on every kind of file the
engine writes (copy-on-write base, merge-on-read delta, compaction,
view, training-view pack, training export), each of which DuckDB must
read back to the same rows as pyarrow. Files written with pyarrow's
default encoding stay readable beside the new ones, through merges and
a compaction."""

from __future__ import annotations

import glob
import io
import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from gamechanger_data_ray.engine.cdc import apply_events_dataset, read_keys, table_to_arrow
from gamechanger_data_ray.engine.maintenance import compact
from gamechanger_data_ray.engine.training_export import export_training
from gamechanger_data_ray.engine.training_view import training_view_refresh
from gamechanger_data_ray.engine.views import ViewDef, refresh
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.fs import StorageAdapter, parquet_encodings

P = 2
TOKENS_LEAF = "tokens.list.element"
DICT_LEAVES = ("doc_id", "source", "meta.lang", "meta.score", "tags.list.element")


def _events(epoch: int, ids, seed: int, deletes=()) -> pa.Table:
    rng = np.random.default_rng(seed)
    ops = ["D" if i in deletes else ("I" if epoch == 1 else "U") for i in ids]
    toks = [[] if i in deletes else rng.integers(0, 50257, size=rng.integers(1, 80)).tolist()
            for i in ids]
    return pa.table({
        "op": pa.array(ops),
        "lsn": pa.array(np.full(len(ids), epoch, dtype=np.int64)),
        "seq": pa.array(np.arange(len(ids), dtype=np.int64)),
        "doc_id": pa.array([f"d{i:03d}" for i in ids]),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array([len(t) for t in toks], pa.int32()),
        "source": pa.array([("web", "book", "code")[(i + epoch) % 3] for i in ids]),
        "meta": pa.array([{"lang": ("en", "fr")[i % 2], "score": i * epoch} for i in ids]),
        "tags": pa.array([["x", "y", "z"][: (i + epoch) % 4] for i in ids],
                         pa.list_(pa.string())),
    })


def _apply(tb: str, epoch: int, t: pa.Table, policy: str = "rewrite") -> None:
    apply_events_dataset(ray.data.from_arrow(t), tb, epoch, t.schema,
                         num_partitions=P, merge_policy=policy)


EPOCH1 = list(range(60))
EPOCH2 = (list(range(0, 60, 4)), {8, 20})
EPOCH3 = (list(range(1, 60, 5)), {11})


def _partition_files(tb: str, pattern: str) -> list[str]:
    return sorted(glob.glob(os.path.join(tb, "part=*", pattern)))


def _encodings(path: str) -> dict[str, set[str]]:
    md = pq.ParquetFile(path).metadata
    out: dict[str, set[str]] = {}
    for g in range(md.num_row_groups):
        for i in range(md.num_columns):
            c = md.row_group(g).column(i)
            out.setdefault(c.path_in_schema, set()).update(c.encodings)
    return out


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Every kind of engine data file, by kind."""
    root = tmp_path_factory.mktemp("enc")
    tb = str(root / "tb")
    _apply(tb, 1, _events(1, EPOCH1, seed=1))
    files = {"cow": _partition_files(tb, "data-e000001.parquet")}
    _apply(tb, 2, _events(2, EPOCH2[0], seed=2, deletes=EPOCH2[1]), policy="delta")
    files["mor_delta"] = _partition_files(tb, "delta-e000002.parquet")
    compact(tb)
    cur = mf.load_current(tb)
    files["compact"] = sorted(os.path.join(tb, e["file"]) for e in cur.partitions.values())
    vd = str(root / "view")
    refresh(ViewDef(["source"], {"sum_tok": "n_tok"}), vd, tb, num_partitions=P)
    files["view"] = sorted(glob.glob(os.path.join(vd, "**", "*.parquet"), recursive=True))
    tv = str(root / "tview")
    training_view_refresh(tv, tb, cap=16, seed=0)
    files["training_view"] = sorted(glob.glob(os.path.join(tv, "**", "*.parquet"),
                                              recursive=True))
    ex = str(root / "export")
    export_training(tb, ex, cap=16)
    files["training_export"] = sorted(glob.glob(os.path.join(ex, "**", "*.parquet"),
                                                recursive=True))
    for kind, fs in files.items():
        assert fs, f"no {kind} files written"
    return files


@pytest.mark.parametrize("kind", ["cow", "mor_delta", "compact", "view",
                                  "training_view", "training_export"])
def test_token_lists_delta_packed_other_leaves_dictionary(written, kind):
    for path in written[kind]:
        enc = _encodings(path)
        if kind == "view":  # an aggregate: a group key, no token column
            assert "RLE_DICTIONARY" in enc["source"], (path, enc["source"])
            continue
        assert "DELTA_BINARY_PACKED" in enc[TOKENS_LEAF], (path, enc[TOKENS_LEAF])
        assert not any(e.endswith("_DICTIONARY") for e in enc[TOKENS_LEAF]), path
        if kind in ("cow", "mor_delta", "compact"):
            for leaf in DICT_LEAVES:
                assert "RLE_DICTIONARY" in enc[leaf], (path, leaf, enc[leaf])


@pytest.mark.parametrize("kind", ["cow", "mor_delta", "compact", "view",
                                  "training_view", "training_export"])
def test_duckdb_reads_the_same_rows(written, kind):
    for path in written[kind]:
        want = pq.ParquetFile(path).read()
        got = duckdb.sql(
            f"SELECT * FROM read_parquet('{path}', hive_partitioning = false)").arrow()
        assert got.column_names == want.column_names
        assert got.to_pylist() == want.to_pylist(), path


def test_rule_is_a_function_of_the_schema():
    nested = pa.schema([
        ("a", pa.list_(pa.int32())), ("b", pa.large_list(pa.int64())),
        ("u", pa.list_(pa.uint64())), ("c", pa.list_(pa.int16(), 2)),
        ("s", pa.struct([("x", pa.int64()), ("y", pa.string())])),
        ("m", pa.list_(pa.string())), ("mp", pa.map_(pa.string(), pa.int32())),
        ("ll", pa.list_(pa.list_(pa.int32()))), ("f", pa.list_(pa.float32())),
        ("k", pa.string()),
    ])
    kw = parquet_encodings(nested)
    assert kw["column_encoding"] == dict.fromkeys(
        ["a.list.element", "b.list.element", "u.list.element"], "DELTA_BINARY_PACKED")
    # leaf paths are parquet's own names for every other leaf
    buf = io.BytesIO()
    pq.write_table(nested.empty_table(), buf)
    md = pq.ParquetFile(io.BytesIO(buf.getvalue())).metadata
    leaves = [md.schema.column(i).path for i in range(md.num_columns)]
    assert kw["use_dictionary"] == [p for p in leaves if p not in kw["column_encoding"]]
    # no integer-list column: pyarrow's defaults, untouched
    assert parquet_encodings(pa.schema([("k", pa.string()), ("f", pa.list_(pa.float64()))])) == {}


def test_row_group_size_passes_through(tmp_path):
    t = _events(1, EPOCH1, seed=4)
    path = str(tmp_path / "f.parquet")
    StorageAdapter().write_parquet_atomic(t, path, row_group_size=16)
    assert pq.ParquetFile(path).metadata.num_row_groups == -(-t.num_rows // 16)
    assert _encodings(path)[TOKENS_LEAF] >= {"DELTA_BINARY_PACKED"}
    assert pq.read_table(path).equals(t)


def _logical(tb: str, keys: list[str]):
    cur = mf.load_current(tb)
    sigs = {p: e["content_sig"] for p, e in cur.partitions.items()}
    return table_to_arrow(tb), read_keys(tb, keys), sigs


def test_default_encoded_files_stay_readable(tmp_path):
    """A base written with pyarrow's default encoding (dictionary tokens)
    merges with delta-packed deltas and compacts into the same logical
    table as one written entirely at the new encoding."""
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    for tb in (old, new):
        _apply(tb, 1, _events(1, EPOCH1, seed=1))
    for path in _partition_files(old, "data-e000001.parquet"):
        pq.write_table(pq.read_table(path), path)
        assert "RLE_DICTIONARY" in _encodings(path)[TOKENS_LEAF]
    for tb in (old, new):
        _apply(tb, 2, _events(2, EPOCH2[0], seed=2, deletes=EPOCH2[1]), policy="delta")
        _apply(tb, 3, _events(3, EPOCH3[0], seed=3, deletes=EPOCH3[1]), policy="delta")
    keys = [f"d{i:03d}" for i in (0, 1, 8, 11, 16, 33, 59, 77)]
    before = _logical(new, keys)
    assert before[0].num_rows == len(EPOCH1) - 3
    assert _logical(old, keys) == before
    for tb in (old, new):
        compact(tb)
    assert _logical(new, keys) == before  # compaction keeps the logical state
    assert _logical(old, keys) == before
    cur = mf.load_current(old)
    for e in cur.partitions.values():
        assert "RLE_DICTIONARY" not in _encodings(os.path.join(old, e["file"]))[TOKENS_LEAF]
