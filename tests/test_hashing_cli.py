"""Hashing kernels + CLI driver tests."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamechanger_data_ray.core.hashing import (
    fnv1a64,
    partition_ids,
    sha256_hex,
    version_hash_column,
)


def test_fnv_matches_reference_scalar():
    # FNV-1a 64 of "a" is a published constant
    out = fnv1a64(pa.array(["a", "", "abc"]))
    def scalar_fnv(s: bytes) -> int:
        h = 0xCBF29CE484222325
        for b in s:
            h = ((h ^ b) * 0x100000001B3) & ((1 << 64) - 1)
        return h
    assert out[0] == scalar_fnv(b"a")
    assert out[1] == scalar_fnv(b"")
    assert out[2] == scalar_fnv(b"abc")


def _fnv_bytes(b: bytes | None) -> int:
    """Pure-Python FNV-1a 64; a null hashes as the empty string."""
    h = 0xCBF29CE484222325
    for c in b or b"":
        h = ((h ^ c) * 0x100000001B3) & ((1 << 64) - 1)
    return h


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=14)), max_size=30),
       st.integers(0, 6), st.integers(1, 4))
def test_fnv_matches_pure_python(values, offset, pieces):
    """Bit-identical to byte-at-a-time FNV-1a on any strings: empty,
    non-ASCII, nulls, a slice with a nonzero offset and a chunked array."""
    want = [_fnv_bytes(None if v is None else v.encode()) for v in values]
    arr = pa.array(values, pa.string())
    assert fnv1a64(arr).tolist() == want
    assert fnv1a64(arr.slice(offset)).tolist() == want[offset:]
    cuts = sorted({len(values) * j // pieces for j in range(pieces + 1)})
    chunked = pa.chunked_array([arr.slice(a, b - a) for a, b in zip(cuts, cuts[1:])],
                               pa.string())
    assert fnv1a64(chunked).tolist() == want
    raw = [None if v is None else v.encode("utf-16-le") for v in values]
    assert fnv1a64(pa.array(raw, pa.binary())).tolist() == [_fnv_bytes(b) for b in raw]


def test_partition_ids_stable_and_in_range():
    keys = pa.array([f"doc-{i:08d}" for i in range(1000)])
    p1 = partition_ids(keys, 16).to_numpy(zero_copy_only=False)
    p2 = partition_ids(keys, 16).to_numpy(zero_copy_only=False)
    assert (p1 == p2).all()
    assert p1.min() >= 0 and p1.max() < 16
    # roughly balanced
    counts = np.bincount(p1, minlength=16)
    assert counts.min() > 20

    ints = pa.array(list(range(1000)), pa.int64())
    pi = partition_ids(ints, 16).to_numpy(zero_copy_only=False)
    assert pi.min() >= 0 and pi.max() < 16
    assert np.bincount(pi, minlength=16).min() > 20


def test_version_hash_matches_duckdb():
    import duckdb

    t = pa.table({"a": ["x", "y"], "b": pa.array([1, 2], pa.int64())})
    mine = version_hash_column(t, ["a", "b"]).to_pylist()
    oracle = [r[0] for r in duckdb.sql(
        "SELECT sha256(a || '|' || CAST(b AS VARCHAR)) FROM t"
    ).fetchall()]
    assert mine == oracle


def test_cli_generate_replay_status(tmp_path):
    env = dict(os.environ, PYTHONPATH="/root/repo")
    cl, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    r1 = subprocess.run(
        [sys.executable, "-m", "gamechanger_data_ray", "generate",
         "--out", cl, "--epochs", "2", "--events", "500", "--keys", "100"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
    )
    assert r1.returncode == 0, r1.stderr[-500:]
    assert json.loads(r1.stdout.strip().splitlines()[-1])["epochs"] == 2

    r2 = subprocess.run(
        [sys.executable, "-m", "gamechanger_data_ray", "--num-cpus", "4",
         "replay", "--changelog", cl, "--table", tb, "--partitions", "4"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
    )
    assert r2.returncode == 0, r2.stderr[-500:]
    out = json.loads(r2.stdout.strip().splitlines()[-1])
    assert out["epoch"] == 2 and out["totals"]["events_in"] > 0

    r3 = subprocess.run(
        [sys.executable, "-m", "gamechanger_data_ray", "status", "--table", tb],
        capture_output=True, text=True, env=env, cwd="/root/repo",
    )
    assert json.loads(r3.stdout.strip().splitlines()[-1])["epoch"] == 2


def test_cli_history_and_export_import(tmp_path):
    env = dict(os.environ, PYTHONPATH="/root/repo")
    cl, tb = str(tmp_path / "cl"), str(tmp_path / "tb")

    def run(*args):
        r = subprocess.run(
            [sys.executable, "-m", "gamechanger_data_ray", *args],
            capture_output=True, text=True, env=env, cwd="/root/repo",
        )
        assert r.returncode == 0, r.stderr[-500:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    run("generate", "--out", cl, "--epochs", "2", "--events", "500", "--keys", "100")
    run("--num-cpus", "4", "replay", "--changelog", cl, "--table", tb,
        "--partitions", "4", "--epochs-per-commit", "1")

    hist = run("history", "--table", tb)
    assert [h["epoch"] for h in hist] == [1, 2]
    assert hist[-1]["committed"] is True
    assert all(h["events_in"] > 0 for h in hist)

    bundle, tb2 = str(tmp_path / "bundle"), str(tmp_path / "tb2")
    exp = run("export", "--table", tb, "--bundle", bundle)
    assert exp["epoch"] == 2 and exp["files"] > 0
    imp = run("import", "--bundle", bundle, "--table", tb2)
    assert imp["epoch"] == 2
    assert run("status", "--table", tb2)["totals"] == run("status", "--table", tb)["totals"]


def test_cli_diff_and_view(tmp_path):
    env = dict(os.environ, PYTHONPATH="/root/repo")
    cl, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    vd, out = str(tmp_path / "view"), str(tmp_path / "diffout")

    def run(*args):
        r = subprocess.run(
            [sys.executable, "-m", "gamechanger_data_ray", *args],
            capture_output=True, text=True, env=env, cwd="/root/repo",
        )
        assert r.returncode == 0, r.stderr[-500:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    run("generate", "--out", cl, "--epochs", "3", "--events", "500", "--keys", "100")
    run("--num-cpus", "4", "replay", "--changelog", cl, "--table", tb,
        "--partitions", "4", "--epochs-per-commit", "1")

    d = run("--num-cpus", "4", "diff", "--table", tb,
            "--from-epoch", "1", "--to-epoch", "3", "--out", out)
    assert set(d["changes"]) <= {"insert", "update", "delete"}
    assert sum(d["changes"].values()) > 0
    assert os.path.isdir(out)

    v1 = run("--num-cpus", "4", "view", "--table", tb, "--view", vd,
             "--group-by", "source", "--sum", "sum_tok=n_tok")
    assert v1["epoch"] == 3 and v1["mode"] == "full" and v1["rows"] > 0
    # second refresh at the same epoch is a fenced no-op
    v2 = run("--num-cpus", "4", "view", "--table", tb, "--view", vd,
             "--group-by", "source", "--sum", "sum_tok=n_tok")
    assert v2["mode"] == "current"
