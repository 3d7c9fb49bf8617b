"""Hot-key skew gate for the per-key windowed operators (VERDICT round-2
item 9): one user with 10^6 events must flow through sessionize / as-of
join / range join without ever forming a whole-user group — the day-salt
bounds groups to (user, day) — and the results must stay EXACT vs the
same DuckDB SQL the driver uses."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gamechanger_data_ray.pipelines.relational import (
    ORACLES,
    events_asof_join,
    events_range_join,
    events_running_total_int,
    events_sessionize,
)
from tests.util_oracle import compare

N_HOT = 1_000_000


@pytest.fixture(scope="module")
def skew_dir(tmp_path_factory):
    """Synthetic events table: user 0 fires 10^6 events across 30 days
    (zipf-free worst case — ONE key owns ~99.7% of the table) plus three
    normal users; deterministic inter-arrival times straddle the 30-min
    session gap and the day boundaries so every merge path is exercised."""
    d = tmp_path_factory.mktemp("skew")
    rng = np.random.default_rng(7)
    base = np.datetime64("2024-01-01T00:00:00", "us")

    # hot user: mixed inter-arrivals (seconds to ~2h) so sessions split
    # within AND across days
    gaps_s = rng.choice([2.0, 40.0, 2400.0, 7200.0], size=N_HOT, p=[0.6, 0.3, 0.08, 0.02])
    hot_ts = base + (np.cumsum(gaps_s) * 1e6).astype("timedelta64[us]")
    # normal users: 1000 events each, hourly-ish
    cold = []
    for u in (1, 2, 3):
        t = base + (np.cumsum(rng.uniform(60, 5400, size=1000)) * 1e6).astype(
            "timedelta64[us]"
        )
        cold.append((np.full(1000, u), t))
    user_id = np.concatenate([np.zeros(N_HOT, np.int64)] + [c[0] for c in cold])
    ts = np.concatenate([hot_ts] + [c[1] for c in cold])
    n = len(user_id)
    event_type = rng.choice(
        np.array(["click", "error", "signup", "view"]), size=n, p=[0.5, 0.2, 0.1, 0.2]
    )
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "user_id": pa.array(user_id),
            "ts": pa.array(ts),
            "event_type": pa.array(event_type),
            "value": pa.array(rng.uniform(0, 1, size=n)),
        }
    )
    pq.write_table(t, str(d / "events.parquet"))
    return str(d)


def test_sessionize_hot_key_exact(skew_dir):
    compare(events_sessionize, ORACLES["events_sessionize"], skew_dir)


def test_asof_join_hot_key_exact(skew_dir):
    compare(events_asof_join, ORACLES["events_asof_join"], skew_dir)


def test_range_join_hot_key_exact(skew_dir):
    compare(events_range_join, ORACLES["events_range_join"], skew_dir)


def test_running_total_int_hot_key_exact(skew_dir):
    """The integer running total's distributed prefix-sum path must
    survive the one-user-owns-the-table case with exact results — the
    whole point of the salted alternative to events_running_total."""
    compare(events_running_total_int, ORACLES["events_running_total_int"], skew_dir)


def test_window_view_hot_key_bounded_groups(ray_session, tmp_path, monkeypatch):
    """Round-5 gate (VERDICT r4 item 6): ONE hot key × 10^6 late+on-time
    events through a SLIDING windowed view must never form a whole-key
    (or whole-window) group. Asserts (a) every part-merge input (the rows
    of its staged batches) and every late-side write file is bounded far
    below N, and (b) the final window aggregates and late totals are
    EXACT vs a numpy serial recompute of the same watermark semantics."""
    import os
    import uuid

    import pyarrow.compute as pc
    import ray.data

    import gamechanger_data_ray.engine.views as views
    import gamechanger_data_ray.engine.window_view as wv
    from gamechanger_data_ray.engine.cdc import apply_events_dataset
    from gamechanger_data_ray.engine.window_view import (
        EventWindowView,
        read_windowed,
        refresh_windowed,
    )

    N = 1_000_000
    width, slide, lateness = 10_000, 5_000, 5_000
    rng = np.random.default_rng(11)

    gdir = tmp_path / "gsz"
    gdir.mkdir()
    orig = views._make_part_merger

    def patched(*a, **k):
        m = orig(*a, **k)

        def wrapped(part, partials):  # one merge task: its staged batches
            (gdir / uuid.uuid4().hex).write_text(str(partials.num_rows))
            return m(part, partials)

        return wrapped

    monkeypatch.setattr(views, "_make_part_merger", patched)

    def events(prefix, ts):
        n = len(ts)
        return pa.table({
            "op": pa.array(["I"] * n),
            "lsn": pa.array(np.arange(n, dtype=np.int64)),
            "seq": pa.array(np.arange(n, dtype=np.int64)),
            "doc_id": pa.array([f"{prefix}-{i}" for i in range(n)]),
            "user": pa.array(["u0"] * n),  # the ONE hot key
            "event_ts": pa.array(ts.astype(np.int64)),
            "amount": pa.array(rng.integers(0, 10, len(ts)).astype(np.int64)),
        })

    tb, vd = str(tmp_path / "tb"), str(tmp_path / "vw")
    view = EventWindowView("event_ts", width=width, slide=slide,
                           sums={"amt": "amount"}, group_by=("user",),
                           lateness=lateness)

    # epoch 1: on-time history, ts uniform over [0, 1e6)
    ts1 = rng.integers(0, 1_000_000, N // 2)
    e1 = events("e1", ts1)
    apply_events_dataset(ray.data.from_arrow(e1), tb, 1, e1.schema,
                         num_partitions=8)
    refresh_windowed(view, vd, tb, num_partitions=8)
    wm1 = int(ts1.max()) - lateness

    # epoch 2: 60% late, ALL into the two windows covering ts∈[0,5000)
    # (the degenerate hot-late-window case), 40% on-time past wm1
    n_late, n_ontime = (N // 2) * 6 // 10, (N // 2) * 4 // 10
    ts2 = np.concatenate([
        rng.integers(0, 5_000, n_late),
        rng.integers(wm1 + 1, wm1 + 50_000, n_ontime),
    ])
    e2 = events("e2", ts2)
    apply_events_dataset(ray.data.from_arrow(e2), tb, 2, e2.schema,
                         num_partitions=8)
    m2 = refresh_windowed(view, vd, tb, num_partitions=8)

    # --- serial recompute of the same semantics -------------------------
    def expand_np(ts):
        first = ((ts - width) // slide + 1) * slide
        last = (ts // slide) * slide
        counts = (last - first) // slide + 1
        idx = np.repeat(np.arange(len(ts)), counts)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ramp = np.arange(int(counts.sum())) - np.repeat(offsets, counts)
        return idx, first[idx] + ramp * slide

    amt1 = e1["amount"].to_numpy(zero_copy_only=False)
    amt2 = e2["amount"].to_numpy(zero_copy_only=False)
    i1, w1 = expand_np(ts1.astype(np.int64))
    i2, w2 = expand_np(ts2.astype(np.int64))
    late2 = (w2 + width) <= wm1
    keep_w = np.concatenate([w1, w2[~late2]])
    keep_a = np.concatenate([amt1[i1], amt2[i2][~late2]])
    uniq, inv = np.unique(keep_w, return_inverse=True)
    exp_n = np.bincount(inv)
    exp_s = np.bincount(inv, weights=keep_a).astype(np.int64)
    expected = {int(w): (int(n), int(s)) for w, n, s in zip(uniq, exp_n, exp_s)}

    t = read_windowed(vd)
    got = {int(w): (int(n), int(s))
           for w, n, s in zip(t["window_start"].to_pylist(),
                              t["n_rows"].to_pylist(),
                              t["amt"].to_pylist())}
    assert got == expected

    # late totals exact, and the late side output is the expanded rows
    assert int(m2.epoch_counters["late_rows"]) == int(late2.sum())

    # --- boundedness ----------------------------------------------------
    sizes = [int(p.read_text()) for p in gdir.iterdir()]
    assert sizes and max(sizes) < N // 10, (
        f"part-merge saw {max(sizes)} staged rows — whole-key merge input")
    late_files = m2.epoch_counters["late_files"]
    assert len(late_files) >= wv._LATE_SALTS // 2  # the salt actually split
    for rel in late_files:
        nrows = pq.read_metadata(os.path.join(vd, rel)).num_rows
        assert nrows < int(late2.sum()) // wv._LATE_SALTS * 2, (
            f"late file {rel} holds {nrows} rows — hot window not salted")
