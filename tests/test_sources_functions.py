"""Sources (I/U/D manifest, revocation) and scalar function library tests."""

from __future__ import annotations

import os
from datetime import datetime

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from gamechanger_data_ray.functions import dates, text_utils as tu
from gamechanger_data_ray.pipelines.common import broadcast
from gamechanger_data_ray.sources import manifests as mfs


def test_read_iud_manifest(tmp_path):
    p = str(tmp_path / "manifest.csv")
    pd.DataFrame(
        {
            "doc_id": ["a", "b", "c"],
            "Process": ["Insert", "Delete", "Update"],
            "source": ["s1", "s1", "s2"],
        }
    ).to_csv(p, index=False)
    ds = mfs.read_iud_manifest(p, lsn=7)
    rows = ds.take_all()
    assert [r["op"] for r in rows] == ["I", "D", "U"]
    assert [r["seq"] for r in rows] == [0, 1, 2]
    assert all(r["lsn"] == 7 for r in rows)


def test_iud_manifest_rejects_unknown_process(tmp_path):
    p = str(tmp_path / "bad.csv")
    pd.DataFrame({"doc_id": ["a"], "Process": ["Upsert"]}).to_csv(p, index=False)
    with pytest.raises(Exception, match="unknown Process"):
        mfs.read_iud_manifest(p, lsn=1).take_all()


def test_revocation_events_absence_is_an_event():
    table = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": ["a", "b", "c", "d"],
                "source": ["s1", "s1", "s2", "s3"],
            }
        )
    )
    # crawl covered s1 (only a alive) and s2 (c alive); s3 not crawled
    alive_ref = broadcast({"s1": {"a"}, "s2": {"c"}})
    tombs = mfs.revocation_events(table, alive_ref, lsn=9).take_all()
    assert [(r["doc_id"], r["op"], r["lsn"]) for r in tombs] == [("b", "D", 9)]


def test_alive_sets():
    df = pd.DataFrame({"source": ["s1", "s1", "s2"], "doc_id": ["a", "b", "c"]})
    assert mfs.alive_sets(df) == {"s1": {"a", "b"}, "s2": {"c"}}


def test_text_utils_chain():
    arr = pa.array(['  héllo   "world"  ', "a__b  c"])
    out = tu.chain_apply(
        arr, tu.translate_to_ascii, tu.squash_whitespace, tu.double_to_single_quotes
    )
    assert out.to_pylist() == ["hllo 'world'", "a__b c"]
    assert tu.squash_underscores(pa.array(["a___b"])).to_pylist() == ["a_b"]
    assert tu.squash_non_word(pa.array(["a b-c!"])).to_pylist() == ["a_b_c"]
    assert tu.size_fmt(2048) == "2.0KiB"


def test_date_parsers():
    assert dates.parse_formatted_timestamp("2021-01-01T11:00:00") == datetime(2021, 1, 1, 11)
    assert dates.parse_formatted_timestamp("junk") is None
    assert dates.parse_timestamp("2021-06-01") == datetime(2021, 6, 1)
    assert dates.parse_timestamp("junk", default="d") == "d"
    col = dates.parse_timestamp_column(pa.array(["2021-01-01T11:00:00", None]))
    assert col[0].as_py() == datetime(2021, 1, 1, 11)
    assert col[1].as_py() is None
    assert dates.format_timestamp(datetime(2021, 1, 1, 11)) == "2021-01-01T11:00:00"


# ---------------------------------------------------------------------------
# §2.9 path/prefix helpers
# ---------------------------------------------------------------------------

def test_path_join_and_prefix():
    from gamechanger_data_ray.functions.paths import format_as_prefix, path_join

    assert path_join("a/", "/b/", "c") == "a/b/c"
    assert path_join("/root/", "x") == "/root/x"
    assert path_join() == ""
    assert format_as_prefix("bucket/raw") == "bucket/raw/"
    assert format_as_prefix("bucket/raw///") == "bucket/raw/"


def test_parse_prefixes():
    from datetime import datetime

    from gamechanger_data_ray.functions.paths import (
        parse_epoch_prefix, parse_timestamped_prefix)

    assert parse_timestamped_prefix("raw/2021-09-01T00:30:00/") == datetime(2021, 9, 1, 0, 30)
    assert parse_timestamped_prefix("raw/not-a-ts/") is None
    assert parse_timestamped_prefix("raw/2021-13-01T00:00:00/") is None  # bad month
    assert parse_epoch_prefix("cl/epoch=000042/") == 42
    assert parse_epoch_prefix("cl/epoch=7") == 7
    assert parse_epoch_prefix("cl/other/") is None


def test_translate_to_ascii_vectorized_edge_shapes():
    """Buffer-level ascii-ignore must match str.encode('ascii','ignore')
    on multi-byte codepoints, nulls, slices (nonzero offset) and chunked
    inputs — the shapes the buffer arithmetic can get wrong."""
    import pyarrow as pa

    from gamechanger_data_ray.functions import text_utils as tu

    cases = ["café №42", "plain", "", None, "ü", "日本語text", "àb"]
    exp = [c.encode("ascii", "ignore").decode() if c is not None else None
           for c in cases]
    arr = pa.array(cases, pa.string())
    assert tu.translate_to_ascii(arr).to_pylist() == exp
    assert tu.translate_to_ascii(arr.slice(2, 4)).to_pylist() == exp[2:6]
    chunked = pa.chunked_array([arr.slice(0, 3), arr.slice(3)])
    assert tu.translate_to_ascii(chunked).to_pylist() == exp
    assert tu.translate_to_ascii(pa.array([], pa.string())).to_pylist() == []


def test_translate_to_ascii_property_matches_python():
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from gamechanger_data_ray.functions import text_utils as tu

    @given(st.lists(st.one_of(st.none(), st.text(max_size=40)), max_size=30))
    @settings(max_examples=200, deadline=None)
    def check(vals):
        got = tu.translate_to_ascii(pa.array(vals, pa.string())).to_pylist()
        exp = [v.encode("ascii", "ignore").decode() if v is not None else None
               for v in vals]
        assert got == exp

    check()


def test_stripped_schema_sees_an_overwritten_file(tmp_path):
    """The footer-schema cache is keyed on the file's identity, not its
    path: a file rewritten in place must not serve the old schema."""
    import pyarrow.parquet as pq

    from gamechanger_data_ray.pipelines.common import _stripped_schema

    path = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"a": [1, 2]}), path)
    assert _stripped_schema(path).names == ["a"]
    pq.write_table(pa.table({"b": ["x", "y", "z"]}), path)
    assert _stripped_schema(path).names == ["b"]
