"""Payload-column zone maps (data skipping): rewrite commits stamp exact
per-partition min/max for scalar payload columns; delta commits widen them
soundly; ``read_table(bounds=...)`` prunes non-overlapping partitions from
the manifest alone and still returns exactly the in-range rows; compaction
re-tightens. (The partition-grain analog of Iceberg/Delta file stats.)"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from gamechanger_data_ray.core.hashing import partition_ids
from gamechanger_data_ray.engine.cdc import (
    _stats_overlap,
    _widen_col_stats,
    apply_events_dataset,
    read_table,
)
from gamechanger_data_ray.engine.maintenance import compact
from gamechanger_data_ray.state import manifest as mf

P = 4


def _keys_by_pid(n_per_pid: int) -> dict[int, list[str]]:
    """Deterministic keys grouped by the partition they hash to."""
    out: dict[int, list[str]] = {p: [] for p in range(P)}
    i = 0
    while any(len(v) < n_per_pid for v in out.values()):
        k = f"doc-{i:05d}"
        pid = partition_ids(pa.array([k]), P)[0].as_py()
        if len(out[pid]) < n_per_pid:
            out[pid].append(k)
        i += 1
    return out


def _events(rows, epoch: int) -> pa.Table:
    op, doc, ntok, src = zip(*rows)
    n = len(rows)
    return pa.table({
        "op": pa.array(op, pa.string()),
        "lsn": pa.array(np.full(n, epoch, dtype=np.int64)),
        "seq": pa.array(np.arange(n, dtype=np.int64)),
        "doc_id": pa.array(doc, pa.string()),
        "tokens": pa.array([[1, 2]] * n, pa.list_(pa.int32())),
        "n_tok": pa.array(ntok, pa.int32()),
        "source": pa.array(src, pa.string()),
    })


def _apply(tb, epoch, tbl, policy="rewrite"):
    return apply_events_dataset(
        ray.data.from_arrow(tbl), tb, epoch, tbl.schema,
        num_partitions=P, merge_policy=policy,
    )


def _seed(tmp_path):
    """pid-dependent n_tok: partition p holds n_tok in [1000p, 1000p+9]."""
    tb = str(tmp_path / "t")
    keys = _keys_by_pid(10)
    rows = [
        ("I", k, 1000 * pid + j, f"src-{pid}")
        for pid, ks in keys.items() for j, k in enumerate(ks)
    ]
    m = _apply(tb, 1, _events(rows, 1))
    return tb, keys, m


def test_rewrite_stamps_exact_stats(tmp_path):
    tb, keys, m = _seed(tmp_path)
    for pid in range(P):
        st = m.partitions[str(pid)]["col_stats"]
        assert st["n_tok"] == [1000 * pid, 1000 * pid + 9]
        assert st["source"] == [f"src-{pid}", f"src-{pid}"]
        # bookkeeping, key, and list payloads never get bounds
        assert set(st) <= {"n_tok", "source"}


def test_bounds_prunes_partitions_and_matches_filter(tmp_path):
    tb, keys, m = _seed(tmp_path)
    bounds = {"n_tok": (2000, 2005)}
    # manifest-level pruning: only partition 2 can overlap
    live = [p for p, e in m.partitions.items()
            if _stats_overlap(e.get("col_stats"), bounds)]
    assert live == ["2"]
    got = read_table(tb, bounds=bounds).to_pandas()
    assert sorted(got["n_tok"]) == list(range(2000, 2006))
    assert set(got["doc_id"]) == set(keys[2][:6])
    # unbounded side + no-overlap interval
    assert read_table(tb, bounds={"n_tok": (9999, None)}).count() == 0


def test_delta_commit_widens_then_compaction_tightens(tmp_path):
    tb, keys, _ = _seed(tmp_path)
    # delta epoch: update two partition-0 docs to n_tok 300/400 and delete
    # the partition-0 doc holding n_tok=9 (bounds may stay wide — sound)
    rows = [("U", keys[0][0], 300, "fix"), ("U", keys[0][1], 400, "fix"),
            ("D", keys[0][9], 0, "fix")]
    m2 = _apply(tb, 2, _events(rows, 2), policy="delta")
    st = m2.partitions["0"]["col_stats"]
    assert st["n_tok"] == [0, 400]  # union of base [0,9] and delta [0,400]
    assert st["source"] == ["fix", "src-0"]
    # wide bounds are sound: the delta winners are found...
    got = read_table(tb, bounds={"n_tok": (300, 500)}).to_pandas()
    assert sorted(got["n_tok"]) == [300, 400]
    # ...and a bounded scan inside the stale-but-wide range returns only
    # rows that truly match after LWW resolution (no resurrection)
    assert read_table(tb, bounds={"source": ("fix", "fix")}).count() == 2
    m3 = compact(tb)
    st3 = m3.partitions["0"]["col_stats"]
    assert st3["n_tok"] == [2, 400]  # exact resolved bounds again
    got3 = read_table(tb, bounds={"n_tok": (300, 500)}).to_pandas()
    assert sorted(got3["n_tok"]) == [300, 400]


def test_scan_cli_reports_skipped_partitions(tmp_path):
    import json
    import os
    import subprocess
    import sys

    tb, keys, _ = _seed(tmp_path)
    env = dict(os.environ, PYTHONPATH="/root/repo")
    r = subprocess.run(
        [sys.executable, "-m", "gamechanger_data_ray", "--num-cpus", "4",
         "scan", "--table", tb, "--bounds", "n_tok:2000:2005"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-500:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out == {"partitions_total": P, "partitions_skipped": P - 1, "rows": 6}


def test_widen_and_overlap_edge_cases():
    # column absent from delta body (all-null there) keeps base bounds
    assert _widen_col_stats({"a": [1, 5]}, {}) == {"a": [1, 5]}
    # column unknown to the base never gains bounds from a delta
    assert _widen_col_stats({}, {"b": [0, 1]}) == {}
    # retype mid-stream → bound dropped, not corrupted
    assert _widen_col_stats({"a": [1, 5]}, {"a": ["x", "y"]}) == {}
    # overlap: missing stats / missing column / type mismatch never prune
    assert _stats_overlap(None, {"a": (0, 1)})
    assert _stats_overlap({}, {"a": (0, 1)})
    assert _stats_overlap({"b": [0, 1]}, {"a": (0, 1)})
    assert _stats_overlap({"a": [5, 9]}, {"a": ("x", None)})
    assert not _stats_overlap({"a": [5, 9]}, {"a": (10, None)})
    assert not _stats_overlap({"a": [5, 9]}, {"a": (None, 4)})
    assert _stats_overlap({"a": [5, 9]}, {"a": (9, 20)})


def test_validate_flags_corrupt_zone_map(tmp_path):
    """A manifest bound narrower than the real data (stale/corrupt stats
    would silently drop rows from bounded scans) is caught by validate."""
    from dataclasses import replace

    from gamechanger_data_ray.engine.maintenance import validate_table

    from gamechanger_data_ray.core.changelog import generate_epoch_table

    tb2 = str(tmp_path / "t2")
    t = generate_epoch_table(1, 500, 100, seed=3)
    apply_events_dataset(ray.data.from_arrow(t), tb2, 1, t.schema,
                         num_partitions=P)
    assert validate_table(tb2)["violations"] == {}
    cur = mf.load_current(tb2)
    parts = dict(cur.partitions)
    victim = next(p for p, e in parts.items() if e["rows"] > 1)
    st = dict(parts[victim]["col_stats"])
    st["n_tok"] = [st["n_tok"][0], st["n_tok"][0]]  # shrink max to min
    parts[victim] = {**parts[victim], "col_stats": st}
    assert mf.commit(tb2, replace(cur, partitions=parts, rev=cur.rev + 1))
    out = validate_table(tb2)
    assert out["violations"].get("zone_map_oob", 0) >= 1
    assert int(victim) in out["by_partition"]


def test_restamp_repairs_backfills_and_tightens(tmp_path):
    """restamp-stats fixes a corrupted bound (validate goes clean again),
    backfills col_stats on a pre-stats manifest, tightens MOR-widened
    bounds to exact, and empties the bounds of a partition every key was
    deleted from — all without touching a data file."""
    from dataclasses import replace

    from gamechanger_data_ray.engine.maintenance import restamp_stats, validate_table

    # (a) tighten: delta commit widened n_tok on partition 0 to [0, 400]
    tb, keys, _ = _seed(tmp_path)
    rows = [("U", keys[0][0], 300, "fix"), ("U", keys[0][1], 400, "fix")]
    _apply(tb, 2, _events(rows, 2), policy="delta")
    wide = mf.load_current(tb)
    assert wide.partitions["0"]["col_stats"]["n_tok"] == [0, 400]
    m = restamp_stats(tb)
    assert m.rev == wide.rev + 1
    assert m.partitions["0"]["col_stats"]["n_tok"] == [2, 400]  # exact
    # files untouched, deltas still pending
    assert m.partitions["0"]["deltas"] == wide.partitions["0"]["deltas"]
    # (b) corrupt + (c) strip → repair + backfill
    cur = mf.load_current(tb)
    parts = dict(cur.partitions)
    st = dict(parts["1"]["col_stats"])
    st["n_tok"] = [0, 1]  # too narrow: real values are 1000..1009
    parts["1"] = {**parts["1"], "col_stats": st}
    parts["2"] = {k: v for k, v in parts["2"].items() if k != "col_stats"}
    assert mf.commit(tb, replace(cur, partitions=parts, rev=cur.rev + 1))
    m2 = restamp_stats(tb)
    assert m2.partitions["1"]["col_stats"]["n_tok"] == [1000, 1009]
    assert m2.partitions["2"]["col_stats"]["n_tok"] == [2000, 2009]
    # bounded reads exact again after the repair
    got = read_table(tb, bounds={"n_tok": (1000, 1009)}).count()
    assert got == 10
    # (d) emptied: delta deletes of every key in partition 3 leave a
    # stack that resolves to no row; its corrupt bound must come back {}
    _apply(tb, 3, _events([("D", k, 0, "x") for k in keys[3]], 3), policy="delta")
    cur = mf.load_current(tb)
    assert cur.partitions["3"]["rows"] == 0 and cur.partitions["3"]["deltas"]
    parts = dict(cur.partitions)
    parts["3"] = {**parts["3"], "col_stats": {"n_tok": [0, 1]}}
    assert mf.commit(tb, replace(cur, partitions=parts, rev=cur.rev + 1))
    m3 = restamp_stats(tb)
    assert m3.partitions["3"]["col_stats"] == {}
    assert m3.partitions["3"]["col_sketch"] == {}
    assert m3.partitions["1"]["col_stats"]["n_tok"] == [1000, 1009]


def test_all_null_column_omitted_and_null_rows_excluded(tmp_path):
    tb = str(tmp_path / "t")
    t = _events([("I", f"d{i}", i, "s") for i in range(8)], 1)
    t = t.set_column(t.schema.get_field_index("source"),
                     "source", pa.array([None] * 8, pa.string()))
    m = _apply(tb, 1, t)
    for e in m.partitions.values():
        if e["rows"]:
            assert "source" not in e["col_stats"]  # all-null → no bounds
            assert "n_tok" in e["col_stats"]
    # NULL in a bounded column is excluded (SQL comparison semantics)
    assert read_table(tb, bounds={"source": (None, "zzz")}).count() == 0
    assert read_table(tb, bounds={"n_tok": (0, None)}).count() == 8
