"""Join strategy tests: native hash join, portable bucketed fallback, and
adaptive broadcast-vs-shuffle — all three paths against a pandas oracle."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from gamechanger_data_ray.pipelines.joins import (
    adaptive_join,
    bucketed_hash_join,
    hash_join,
)


def _sides():
    rng = np.random.default_rng(11)
    left = pd.DataFrame({"k": rng.integers(0, 300, 2000), "a": np.arange(2000)})
    right = pd.DataFrame({"k": np.arange(0, 400, 2), "b": np.arange(200)})
    expected = left.merge(right, on="k", how="inner")
    return left, right, expected


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["k", "a", "b"]).reset_index(drop=True).astype("int64")


def _ds(df: pd.DataFrame) -> ray.data.Dataset:
    return ray.data.from_pandas(df).repartition(4)


def test_native_hash_join_matches_pandas(ray_session):
    left, right, expected = _sides()
    got = hash_join(_ds(left), _ds(right), on="k", num_buckets=8).to_pandas()
    pd.testing.assert_frame_equal(_norm(got), _norm(expected))


def test_bucketed_fallback_matches_pandas(ray_session):
    left, right, expected = _sides()
    got = bucketed_hash_join(_ds(left), _ds(right), on="k", num_buckets=8).to_pandas()
    pd.testing.assert_frame_equal(_norm(got), _norm(expected))


def test_adaptive_join_broadcast_and_fallback_paths(ray_session):
    left, right, expected = _sides()
    # small side → broadcast path
    got_b = adaptive_join(_ds(left), _ds(right), on="k").to_pandas()
    pd.testing.assert_frame_equal(_norm(got_b), _norm(expected))
    # force the shuffle fallback with a tiny broadcast byte limit
    got_s = adaptive_join(
        _ds(left), _ds(right), on="k", num_buckets=8, broadcast_limit_bytes=64
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(got_s), _norm(expected))


def test_adaptive_join_byte_limit_rejects_wide_small_count_side(ray_session):
    """A right side with FEW rows but WIDE payloads must take the
    shuffle path: the limit is bytes, not rows (a row threshold would
    happily ray.put gigabytes of wide rows)."""
    left = pd.DataFrame({"k": np.arange(50), "a": np.arange(50)})
    wide = pd.DataFrame({"k": np.arange(10), "blob": ["x" * 200_000] * 10})
    ds_wide = _ds(wide)
    assert ds_wide.materialize().size_bytes() > 1_000_000
    got = adaptive_join(_ds(left), ds_wide, on="k",
                        broadcast_limit_bytes=1_000_000).to_pandas()
    exp = left.merge(wide, on="k", how="inner")
    got = got.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp.sort_values("k").reset_index(drop=True),
                                  check_dtype=False)


def test_semi_and_anti_join_match_pandas(ray_session):
    left, right, _ = _sides()
    keys = set(right["k"])
    exp_semi = left[left["k"].isin(keys)]
    exp_anti = left[~left["k"].isin(keys)]

    def norm(df):
        return df.sort_values(["k", "a"]).reset_index(drop=True).astype("int64")

    got_semi = bucketed_hash_join(_ds(left), _ds(right), on="k",
                                  num_buckets=8, how="left_semi").to_pandas()
    got_anti = bucketed_hash_join(_ds(left), _ds(right), on="k",
                                  num_buckets=8, how="left_anti").to_pandas()
    pd.testing.assert_frame_equal(norm(got_semi), norm(exp_semi))
    pd.testing.assert_frame_equal(norm(got_anti), norm(exp_anti))
    # left columns only, unchanged dtypes, right keys never multiply rows
    assert list(got_semi.columns) == ["k", "a"]
    assert len(got_semi) + len(got_anti) == len(left)


def test_chained_bucketed_join_learns_schema_without_running_upstream(ray_session, tmp_path):
    """A join output knows its schema on the driver: building a second join
    on it runs none of the first join's upstream plan (each upstream batch
    call leaves a marker file), and the chain still equals pandas."""
    import os
    import uuid

    calls = tmp_path / "calls"
    calls.mkdir()

    def mark(b: pa.Table) -> pa.Table:
        (calls / uuid.uuid4().hex).touch()
        return b

    rng = np.random.default_rng(5)
    pairs = pd.DataFrame({"id_a": rng.integers(0, 60, 400), "id_b": rng.integers(0, 60, 400)})
    size_a = pd.DataFrame({"id_a": np.arange(60), "sa": np.arange(60) * 3})
    size_b = pd.DataFrame({"id_b": np.arange(60), "sb": np.arange(60) * 7})
    up = _ds(pairs).map_batches(mark, batch_format="pyarrow")
    j = bucketed_hash_join(up, _ds(size_a), on="id_a", num_buckets=4)
    before = len(os.listdir(calls))
    j2 = bucketed_hash_join(j, _ds(size_b), on="id_b", num_buckets=4)
    assert len(os.listdir(calls)) == before
    want = pairs.merge(size_a, on="id_a").merge(size_b, on="id_b")
    cols = ["id_a", "id_b", "sa", "sb"]
    got = j2.to_pandas()[cols].sort_values(cols).reset_index(drop=True).astype("int64")
    pd.testing.assert_frame_equal(
        got, want[cols].sort_values(cols).reset_index(drop=True).astype("int64"))
