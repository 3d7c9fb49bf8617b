"""Event-time tumbling-window view: watermark finalization, allowed
lateness, late side output (inserts AND retractions), exactly-once
trigger emission, fencing, geometry guard, no-rebuild refusal."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data

from gamechanger_data_ray.engine.cdc import apply_events_dataset
from gamechanger_data_ray.engine.window_view import (
    TumblingWindowView,
    late_rows,
    read_windowed,
    refresh_windowed,
    triggers_since,
)


def _events(rows: list[tuple]) -> pa.Table:
    """(op, lsn, seq, doc_id, event_ts, amount) event rows."""
    op, lsn, seq, doc, ts, amt = zip(*rows)
    return pa.table(
        {
            "op": pa.array(op, pa.string()),
            "lsn": pa.array(lsn, pa.int64()),
            "seq": pa.array(seq, pa.int64()),
            "doc_id": pa.array(doc, pa.string()),
            "event_ts": pa.array(ts, pa.int64()),
            "amount": pa.array(amt, pa.int64()),
        }
    )


VIEW = TumblingWindowView("event_ts", width=10, sums={"sum_amt": "amount"},
                          lateness=5)


def _apply(tb: str, epoch: int, rows: list[tuple]) -> None:
    e = _events(rows)
    apply_events_dataset(ray.data.from_arrow(e), tb, epoch, e.schema,
                         num_partitions=4)


def _win_map(vd: str) -> dict[int, tuple[int, int]]:
    t = read_windowed(vd)
    return {
        int(w): (int(n), int(s))
        for w, n, s in zip(t["window_start"].to_pylist(),
                           t["n_rows"].to_pylist(),
                           t["sum_amt"].to_pylist())
    }


@pytest.fixture()
def lake(ray_session, tmp_path):
    tb, vd = str(tmp_path / "tb"), str(tmp_path / "view")
    # epoch 1: on-time history. max ts 95 → watermark 90; windows with
    # end ≤ 90 (start ≤ 80) finalize at the bootstrap commit.
    _apply(tb, 1, [
        ("I", 1, 0, "a", 3, 100),
        ("I", 1, 1, "b", 17, 10),
        ("I", 1, 2, "c", 18, 5),
        ("I", 1, 3, "d", 88, 7),
        ("I", 1, 4, "e", 95, 2),
    ])
    m1 = refresh_windowed(VIEW, vd, tb, num_partitions=4)
    return tb, vd, m1


def test_bootstrap_counts_all_and_fires_final_windows(lake):
    tb, vd, m1 = lake
    assert m1.epoch_counters["mode"] == "bootstrap"
    assert m1.epoch_counters["watermark_ts"] == 90
    assert m1.epoch_counters["late_rows"] == 0
    assert _win_map(vd) == {0: (1, 100), 10: (2, 15), 80: (1, 7), 90: (1, 2)}
    trig = triggers_since(vd, 0)
    fired = dict(zip(trig["window_start"].to_pylist(), trig["n_rows"].to_pylist()))
    # ws=80 (end 90 ≤ wm 90) fires; ws=90 (end 100) is still open
    assert fired == {0: 1, 10: 2, 80: 1}


def test_late_insert_diverted_ontime_folds_and_window_fires_once(lake):
    tb, vd, _ = lake
    # ts=50 → window end 60 ≤ wm 90: LATE. ts=96 joins open ws=90.
    # ts=105 pushes wm to 100 → ws=90 (end 100) finalizes THIS refresh.
    _apply(tb, 2, [
        ("I", 2, 0, "f", 50, 999),
        ("I", 2, 1, "g", 96, 4),
        ("I", 2, 2, "h", 105, 11),
    ])
    m2 = refresh_windowed(VIEW, vd, tb)
    assert m2.epoch_counters["mode"] == "incremental"
    assert m2.epoch_counters["watermark_ts"] == 100
    assert m2.epoch_counters["late_rows"] == 1
    # the late 999 never reached the aggregate
    assert _win_map(vd) == {0: (1, 100), 10: (2, 15), 80: (1, 7),
                            90: (2, 6), 100: (1, 11)}
    lr = late_rows(vd)
    assert lr.num_rows == 1
    assert lr["doc_id"].to_pylist() == ["f"] and lr["sign"].to_pylist() == [1]
    # trigger e2: exactly the newly-final ws=90, at its FINAL value (incl.
    # the ts=96 row that arrived in the same refresh)
    t2 = triggers_since(vd, 1)
    assert t2["window_start"].to_pylist() == [90]
    assert t2["n_rows"].to_pylist() == [2] and t2["sum_amt"].to_pylist() == [6]
    # exactly-once across the full stream: no window fires twice
    allt = triggers_since(vd, 0)
    ws = allt["window_start"].to_pylist()
    assert sorted(ws) == sorted(set(ws)) == [0, 10, 80, 90]


def test_late_retraction_diverted_final_window_immutable(lake):
    tb, vd, _ = lake
    _apply(tb, 2, [("I", 2, 0, "g", 96, 4), ("I", 2, 1, "h", 105, 11)])
    refresh_windowed(VIEW, vd, tb)  # wm 100, ws=90 final at (2, 6)
    # update doc e (ts 95, ws=90 — FINAL): the retraction of the old
    # version is late; the new version (ts 130) is on-time
    _apply(tb, 3, [("U", 3, 0, "e", 130, 2)])
    m3 = refresh_windowed(VIEW, vd, tb)
    assert m3.epoch_counters["late_rows"] == 1
    w = _win_map(vd)
    assert w[90] == (2, 6)  # finalized window NOT mutated by the update
    assert w[130] == (1, 2)
    lr = late_rows(vd)
    late_e = lr.filter(pa.compute.equal(lr["doc_id"], "e"))
    assert late_e["sign"].to_pylist() == [-1]  # the audit knows what left


def test_ontime_retraction_updates_open_window(lake):
    tb, vd, _ = lake
    # delete doc e (ts 95, ws=90 end 100 > wm 90 — still open): folds
    _apply(tb, 2, [("D", 2, 0, "e", 0, 0)])
    m2 = refresh_windowed(VIEW, vd, tb)
    assert m2.epoch_counters["late_rows"] == 0
    assert 90 not in _win_map(vd)  # group count hit 0 and dropped out


def test_fenced_noop_and_geometry_guard(lake):
    tb, vd, _ = lake
    assert refresh_windowed(VIEW, vd, tb) is None  # already current
    other = TumblingWindowView("event_ts", width=20,
                               sums={"sum_amt": "amount"}, lateness=5)
    with pytest.raises(ValueError, match="definition"):
        refresh_windowed(other, vd, tb)


def test_watermark_monotone_under_ts_regression(lake):
    tb, vd, _ = lake
    # an epoch whose max ts is BELOW the watermark-5 point must not pull
    # the watermark backwards (and its rows are simply late)
    _apply(tb, 2, [("I", 2, 0, "z", 40, 1)])
    m2 = refresh_windowed(VIEW, vd, tb)
    assert m2.epoch_counters["watermark_ts"] == 90
    assert m2.epoch_counters["late_rows"] == 1
    assert m2.epoch_counters["trigger_rows"] == 0


def test_refresh_refuses_rebuild_when_history_gone(lake, tmp_path):
    tb, vd, _ = lake
    _apply(tb, 2, [("I", 2, 0, "g", 96, 4)])
    import gamechanger_data_ray.engine.window_view as wv

    orig = wv.diff_table_epochs

    def boom(*a, **k):
        raise FileNotFoundError("vacuumed")

    wv.diff_table_epochs = boom
    try:
        with pytest.raises(ValueError, match="arrival-order"):
            refresh_windowed(VIEW, vd, tb)
    finally:
        wv.diff_table_epochs = orig


def test_multi_epoch_gap_single_refresh(ray_session, tmp_path):
    """Two table epochs between refreshes fold in one diff; watermark
    jumps once; lateness is judged against the LAST COMMITTED view
    watermark (refresh cadence is part of the semantics — documented)."""
    tb, vd = str(tmp_path / "tb"), str(tmp_path / "view")
    _apply(tb, 1, [("I", 1, 0, "a", 95, 1)])
    refresh_windowed(VIEW, vd, tb, num_partitions=4)  # wm 90
    _apply(tb, 2, [("I", 2, 0, "b", 85, 2)])   # late vs wm 90
    _apply(tb, 3, [("I", 3, 0, "c", 200, 3)])
    m = refresh_windowed(VIEW, vd, tb)
    assert m.epoch == 3 and m.epoch_counters["watermark_ts"] == 195
    assert m.epoch_counters["late_rows"] == 1
    w = _win_map(vd)
    assert 80 not in w and w[200] == (1, 3)


def test_fuzz_matches_serial_simulator(ray_session, tmp_path):
    """Seeded random I/U/D epochs with shuffled event times, per-epoch
    refresh: window aggregates, watermark, late counts and the fired-
    window stream all match a serial simulator applying the documented
    rules (late ⇔ window_end ≤ previously-COMMITTED watermark; watermark
    = running max event-ts in deltas − lateness; fire once on crossing)."""
    import numpy as np

    rng = np.random.default_rng(20260820)
    W, L = 10, 7
    view = TumblingWindowView("event_ts", width=W, sums={"sum_amt": "amount"},
                              lateness=L)
    tb, vd = str(tmp_path / "tb"), str(tmp_path / "view")

    state: dict[str, tuple[int, int]] = {}
    wm = None
    wins: dict[int, list[int]] = {}
    sim_late = 0
    fired: set[int] = set()
    lsn = 0

    for epoch in range(1, 7):
        lsn += 1
        rows, new_state = [], dict(state)
        for seq in range(int(rng.integers(5, 25))):
            op = rng.choice(["I", "I", "U", "D"])
            if op in ("U", "D") and new_state:
                doc = str(rng.choice(sorted(new_state)))
            else:
                doc = f"d{int(rng.integers(0, 40))}"
            ts = int(rng.integers(0, 60 + epoch * 25))
            amt = int(rng.integers(1, 50))
            rows.append((str(op), lsn, seq, doc, ts, amt))
            if op == "D":
                new_state.pop(doc, None)
            else:
                new_state[doc] = (ts, amt)
        _apply(tb, epoch, rows)
        m = refresh_windowed(view, vd, tb, num_partitions=4)

        # serial delta fold
        delta = []
        for doc in set(state) | set(new_state):
            if state.get(doc) != new_state.get(doc):
                if doc in state:
                    delta.append((*state[doc], -1))
                if doc in new_state:
                    delta.append((*new_state[doc], +1))
        max_ts = max((ts for ts, _, _ in delta), default=None)
        for ts, amt, sign in delta:
            if wm is not None and (ts // W) * W + W <= wm:
                sim_late += 1
            else:
                ws = (ts // W) * W
                n, s = wins.get(ws, (0, 0))
                n, s = n + sign, s + sign * amt
                if n:
                    wins[ws] = (n, s)
                else:
                    wins.pop(ws, None)
        if max_ts is not None:
            wm = max_ts - L if wm is None else max(wm, max_ts - L)
        newly = {ws for ws in wins if wm is not None and ws + W <= wm} - fired
        state = new_state

        assert m.epoch_counters["watermark_ts"] == wm
        assert _win_map(vd) == wins
        trig = triggers_since(vd, epoch - 1)
        got_fired = set() if trig is None else set(trig["window_start"].to_pylist())
        assert got_fired == newly
        fired |= newly

    lr = late_rows(vd)
    assert (0 if lr is None else lr.num_rows) == sim_late
    # exactly-once over the whole run
    allt = triggers_since(vd, 0)
    allw = [] if allt is None else allt["window_start"].to_pylist()
    assert sorted(allw) == sorted(set(allw))


def test_crash_before_commit_then_retry_converges(lake):
    """A refresh that dies after writing data files but BEFORE the
    manifest swap leaves the view readable at the old epoch; the retry
    rewrites the same deterministic paths — late files byte for byte —
    and commits the same state."""
    import hashlib
    import os

    tb, vd, _ = lake
    _apply(tb, 2, [("I", 2, 0, "f", 50, 999), ("I", 2, 1, "h", 105, 11)])

    import gamechanger_data_ray.engine.window_view as wv

    def late_bytes() -> dict[str, str]:
        d = os.path.join(vd, "late", "e000002")
        return {f: hashlib.sha256(open(os.path.join(d, f), "rb").read()).hexdigest()
                for f in sorted(os.listdir(d))}

    orig = wv.mf.commit
    wv.mf.commit = lambda *a, **k: (_ for _ in ()).throw(RuntimeError("crash"))
    try:
        with pytest.raises(RuntimeError):
            refresh_windowed(VIEW, vd, tb)
    finally:
        wv.mf.commit = orig
    crashed = late_bytes()
    assert crashed
    # still readable at epoch 1 state
    assert _win_map(vd) == {0: (1, 100), 10: (2, 15), 80: (1, 7), 90: (1, 2)}
    m2 = refresh_windowed(VIEW, vd, tb)
    assert m2 is not None and m2.epoch == 2
    assert m2.epoch_counters["late_rows"] == 1
    assert late_bytes() == crashed
    assert sorted(os.path.basename(f) for f in m2.epoch_counters["late_files"]) == list(crashed)
    assert _win_map(vd) == {0: (1, 100), 10: (2, 15), 80: (1, 7),
                            90: (1, 2), 100: (1, 11)}


SLIDING = TumblingWindowView("event_ts", width=20, slide=10,
                             sums={"sum_amt": "amount"}, lateness=5)


def test_sliding_expansion_covers_every_window(ray_session):
    """Each event lands in exactly width/slide covering windows and
    nowhere else (vectorized expansion == literal definition)."""
    import numpy as np

    rng = np.random.default_rng(7)
    ts = rng.integers(-50, 200, size=300).astype("int64")
    t = pa.table({"event_ts": pa.array(ts), "amount": pa.array(ts * 0 + 1)})
    out = SLIDING.expand(t)
    got = sorted(zip(out["event_ts"].to_pylist(), out["window_start"].to_pylist()))
    exp = sorted(
        (int(v), ws)
        for v in ts
        for ws in range(((int(v) - 20) // 10 + 1) * 10, ((int(v) // 10) * 10) + 1, 10)
    )
    assert got == exp
    assert all(ws <= v < ws + 20 for v, ws in got)


def test_sliding_partial_lateness_same_event(ray_session, tmp_path):
    """One event on the watermark boundary: its older covering window is
    already final (→ late side output), its newer one is open (→ folds).
    The same physical row splits per (row, window) pair."""
    tb, vd = str(tmp_path / "tb"), str(tmp_path / "view")
    _apply(tb, 1, [("I", 1, 0, "a", 55, 1)])
    m1 = refresh_windowed(SLIDING, vd, tb, num_partitions=4)
    assert m1.epoch_counters["watermark_ts"] == 50
    # a=55 covers ws=40 (end 60 > 50, open) and ws=50 — both counted
    assert _win_map(vd) == {40: (1, 1), 50: (1, 1)}
    # ts=42 covers ws=30 (end 50 ≤ wm 50 → LATE pair) and ws=40 (open)
    _apply(tb, 2, [("I", 2, 0, "b", 42, 7)])
    m2 = refresh_windowed(SLIDING, vd, tb)
    assert m2.epoch_counters["late_rows"] == 1
    w = _win_map(vd)
    assert 30 not in w            # late pair never reached the aggregate
    assert w[40] == (2, 8)        # on-time pair folded
    lr = late_rows(vd)
    assert lr["window_start"].to_pylist() == [30]
    assert lr["doc_id"].to_pylist() == ["b"] and lr["sign"].to_pylist() == [1]


def test_sliding_fuzz_matches_serial_simulator(ray_session, tmp_path):
    import numpy as np

    rng = np.random.default_rng(99)
    W, S, L = 30, 10, 8
    view = TumblingWindowView("event_ts", width=W, slide=S,
                              sums={"sum_amt": "amount"}, lateness=L)
    tb, vd = str(tmp_path / "tb"), str(tmp_path / "view")

    state: dict[str, tuple[int, int]] = {}
    wm = None
    wins: dict[int, list[int]] = {}
    sim_late = 0
    fired: set[int] = set()

    for epoch in range(1, 6):
        rows, new_state = [], dict(state)
        for seq in range(int(rng.integers(4, 20))):
            op = rng.choice(["I", "I", "U", "D"])
            if op in ("U", "D") and new_state:
                doc = str(rng.choice(sorted(new_state)))
            else:
                doc = f"d{int(rng.integers(0, 30))}"
            ts = int(rng.integers(0, 40 + epoch * 35))
            amt = int(rng.integers(1, 9))
            rows.append((str(op), epoch, seq, doc, ts, amt))
            if op == "D":
                new_state.pop(doc, None)
            else:
                new_state[doc] = (ts, amt)
        _apply(tb, epoch, rows)
        m = refresh_windowed(view, vd, tb, num_partitions=4)

        delta = []
        for doc in set(state) | set(new_state):
            if state.get(doc) != new_state.get(doc):
                if doc in state:
                    delta.append((*state[doc], -1))
                if doc in new_state:
                    delta.append((*new_state[doc], +1))
        max_ts = max((ts for ts, _, _ in delta), default=None)
        for ts, amt, sign in delta:
            for ws in range(((ts - W) // S + 1) * S, (ts // S) * S + 1, S):
                if wm is not None and ws + W <= wm:
                    sim_late += 1
                else:
                    n, s = wins.get(ws, (0, 0))
                    n, s = n + sign, s + sign * amt
                    if n:
                        wins[ws] = (n, s)
                    else:
                        wins.pop(ws, None)
        if max_ts is not None:
            wm = max_ts - L if wm is None else max(wm, max_ts - L)
        newly = {ws for ws in wins if wm is not None and ws + W <= wm} - fired
        state = new_state

        assert m.epoch_counters["watermark_ts"] == wm
        assert _win_map(vd) == wins
        trig = triggers_since(vd, epoch - 1)
        got = set() if trig is None else set(trig["window_start"].to_pylist())
        assert got == newly
        fired |= newly

    lr = late_rows(vd)
    assert (0 if lr is None else lr.num_rows) == sim_late


def test_cli_window_view_and_triggers(tmp_path):
    """CLI loop: generate → replay → window-view over n_tok (any int64
    column is a valid event-time axis) → fenced rerun → window-triggers."""
    import json
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH="/root/repo")

    def run(*argv):
        r = subprocess.run(
            [sys.executable, "-m", "gamechanger_data_ray", *argv],
            capture_output=True, text=True, env=env, cwd="/root/repo",
        )
        assert r.returncode == 0, r.stderr[-800:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    cl, tb, vd = str(tmp_path / "cl"), str(tmp_path / "tb"), str(tmp_path / "vw")
    run("generate", "--out", cl, "--epochs", "2", "--events", "400",
        "--keys", "80")
    run("--num-cpus", "4", "replay", "--changelog", cl, "--table", tb,
        "--partitions", "4")
    out = run("--num-cpus", "4", "window-view", "--table", tb, "--view", vd,
              "--ts-column", "n_tok", "--width", "16", "--lateness", "4",
              "--sum", "sum_tok=n_tok")
    assert out["mode"] == "bootstrap" and out["rows"] > 0
    assert out["watermark_ts"] is not None
    again = run("--num-cpus", "4", "window-view", "--table", tb, "--view", vd,
                "--ts-column", "n_tok", "--width", "16", "--lateness", "4",
                "--sum", "sum_tok=n_tok")
    assert again["mode"] == "current"  # fenced no-op
    trig = run("window-triggers", "--view", vd, "--after-epoch", "0")
    assert trig["rows"] >= 0 and isinstance(trig["windows"], list)


def test_window_subscription_followed_by_sync(ray_session, tmp_path):
    """A 'window' subscription keeps the watermark advancing and triggers
    firing as part of the table's own sync loop — no separate refresh
    pipeline to remember."""
    from gamechanger_data_ray.engine.subscriptions import subscribe, sync

    tb, vd = str(tmp_path / "tb"), str(tmp_path / "wv")
    _apply(tb, 1, [("I", 1, 0, "a", 3, 100), ("I", 1, 1, "e", 95, 2)])
    subscribe(tb, "window", vd, params={
        "ts_column": "event_ts", "width": 10, "lateness": 5,
        "sums": {"sum_amt": "amount"}, "num_partitions": 4,
    })
    r1 = sync(tb)
    assert r1[0]["kind"] == "window" and r1[0]["mode"] == "bootstrap"
    assert r1[0]["watermark_ts"] == 90
    _apply(tb, 2, [("I", 2, 0, "f", 50, 999), ("I", 2, 1, "h", 105, 11)])
    r2 = sync(tb)
    assert r2[0]["mode"] == "incremental" and r2[0]["watermark_ts"] == 100
    assert r2[0]["late_rows"] == 1 and r2[0]["trigger_rows"] >= 1
    assert _win_map(vd) == {0: (1, 100), 90: (1, 2), 100: (1, 11)}
    # fenced: a second sync at the same epoch is a no-op
    r3 = sync(tb)
    assert r3[0]["mode"] == "current"


def test_window_output_retention_after_vacuum(ray_session, tmp_path):
    """vacuum of a windowed view dir drops old manifests; the stranded
    late/trigger files are invisible to late_rows/triggers_since and
    expire_window_outputs sweeps them; autopilot plans the sweep for
    window subscribers."""
    from gamechanger_data_ray.engine import autopilot
    from gamechanger_data_ray.engine.maintenance import vacuum
    from gamechanger_data_ray.engine.subscriptions import subscribe, sync
    from gamechanger_data_ray.engine.window_view import (
        expire_window_outputs,
        orphaned_window_outputs,
    )

    tb, vd = str(tmp_path / "tb"), str(tmp_path / "wv")
    _apply(tb, 1, [("I", 1, 0, "a", 95, 2)])
    subscribe(tb, "window", vd, params={
        "ts_column": "event_ts", "width": 10, "lateness": 5,
        "sums": {"sum_amt": "amount"}, "num_partitions": 4,
    })
    sync(tb)
    for e in (2, 3, 4):
        # each epoch: one late row (ts 40) + one on-time advancing the max
        _apply(tb, e, [("I", e, 0, f"l{e}", 40, 1),
                       ("I", e, 1, f"o{e}", 95 + e * 10, 1)])
        sync(tb)
    lr = late_rows(vd)
    assert lr.num_rows == 3
    assert orphaned_window_outputs(vd) == 0

    vacuum(vd, keep_epochs=1)  # view manifests beyond the window drop
    n_orphans = orphaned_window_outputs(vd)
    assert n_orphans > 0
    plan = autopilot.plan(tb)
    ops = [a["op"] for a in plan]
    assert "expire-window-outputs" in ops
    report = autopilot.apply(tb, [a for a in plan
                                  if a["op"] == "expire-window-outputs"])
    assert (report[0]["late_files_removed"]
            + report[0]["trigger_files_removed"]) == n_orphans
    assert orphaned_window_outputs(vd) == 0
    # reachable outputs survive and the view still reads
    assert late_rows(vd) is None or late_rows(vd).num_rows <= 3
    assert len(_win_map(vd)) > 0


def test_windowed_view_with_group_dimension(ray_session, tmp_path):
    """width + extra group_by dimension: aggregates keyed (window, source);
    triggers carry the dimension; a late row for one (window, source) cell
    diverts while the same window's other cells stay live."""
    tb, vd = str(tmp_path / "tb"), str(tmp_path / "wv")

    def ev(rows):
        op, lsn, seq, doc, ts, amt, src = zip(*rows)
        return pa.table({
            "op": pa.array(op, pa.string()),
            "lsn": pa.array(lsn, pa.int64()),
            "seq": pa.array(seq, pa.int64()),
            "doc_id": pa.array(doc, pa.string()),
            "event_ts": pa.array(ts, pa.int64()),
            "amount": pa.array(amt, pa.int64()),
            "source": pa.array(src, pa.string()),
        })

    view = TumblingWindowView("event_ts", width=10, lateness=5,
                              sums={"sum_amt": "amount"},
                              group_by=("source",))
    e1 = ev([("I", 1, 0, "a", 12, 5, "x"), ("I", 1, 1, "b", 17, 3, "y"),
             ("I", 1, 2, "c", 95, 1, "x")])
    apply_events_dataset(ray.data.from_arrow(e1), tb, 1, e1.schema,
                         num_partitions=4)
    refresh_windowed(view, vd, tb, num_partitions=4)  # wm 90
    t = read_windowed(vd)
    cells = {(int(w), s): (int(n), int(a)) for w, s, n, a in zip(
        t["window_start"].to_pylist(), t["source"].to_pylist(),
        t["n_rows"].to_pylist(), t["sum_amt"].to_pylist())}
    assert cells == {(10, "x"): (1, 5), (10, "y"): (1, 3), (90, "x"): (1, 1)}
    # late row into the finalized (10, *) window; on-time row for (90, y)
    e2 = ev([("I", 2, 0, "d", 14, 99, "y"), ("I", 2, 1, "e", 96, 2, "y")])
    apply_events_dataset(ray.data.from_arrow(e2), tb, 2, e2.schema,
                         num_partitions=4)
    m2 = refresh_windowed(view, vd, tb)
    assert m2.epoch_counters["late_rows"] == 1
    t = read_windowed(vd)
    cells = {(int(w), s): (int(n), int(a)) for w, s, n, a in zip(
        t["window_start"].to_pylist(), t["source"].to_pylist(),
        t["n_rows"].to_pylist(), t["sum_amt"].to_pylist())}
    assert cells[(10, "y")] == (1, 3)       # late 99 never landed
    assert cells[(90, "y")] == (1, 2)
    lr = late_rows(vd)
    assert lr["source"].to_pylist() == ["y"] and lr["amount"].to_pylist() == [99]
    # bootstrap trigger carried the dimension column
    trig = triggers_since(vd, 0)
    assert set(trig.schema.names) >= {"window_start", "source", "n_rows", "sum_amt"}


def test_trigger_relay_cascading_rollup(ray_session, tmp_path):
    """Streaming DAG: fine windows (width 10) trigger into a CDC table;
    a COARSE windowed view (width 100 over the fired window_start) on
    that table rolls the finalized minutes into hours — cascading
    rollups out of the two primitives, exactly-once at each hop."""
    from gamechanger_data_ray.engine.cdc import table_to_arrow
    from gamechanger_data_ray.engine.window_view import relay_triggers

    tb = str(tmp_path / "tb")
    vd, mid, vd2 = (str(tmp_path / p) for p in ("wv", "mid", "wv2"))
    fine = TumblingWindowView("event_ts", width=10, lateness=0,
                              sums={"sum_amt": "amount"})
    coarse = TumblingWindowView("window_start", width=100, lateness=0,
                                sums={"amt": "sum_amt"})

    _apply(tb, 1, [("I", 1, 0, "a", 5, 1), ("I", 1, 1, "b", 15, 2),
                   ("I", 1, 2, "c", 115, 4), ("I", 1, 3, "d", 250, 8)])
    refresh_windowed(fine, vd, tb, num_partitions=4)  # wm 250: ws 0,10,110 fire
    r1 = relay_triggers(vd, mid, num_partitions=4)
    assert r1["mode"] == "relay" and r1["applied_rows"] == 3
    got = table_to_arrow(mid)
    assert sorted(got["window_start"].to_pylist()) == [0, 10, 110]
    refresh_windowed(coarse, vd2, mid, num_partitions=4)
    cells = _coarse_cells(vd2)
    # fired minutes 0,10 → hour 0 (1+2); minute 110 → hour 100 (4);
    # minute 240 has NOT fired (wm 250 = its end? end 250 ≤ 250 fires too!)
    assert cells[0] == 3 and cells[100] == 4

    # fenced rerun: no double-apply anywhere
    r2 = relay_triggers(vd, mid)
    assert r2["mode"] == "noop"
    _apply(tb, 2, [("I", 2, 0, "e", 400, 16)])  # wm 400: ws 240+250 fire
    refresh_windowed(fine, vd, tb)
    r3 = relay_triggers(vd, mid)
    assert r3["mode"] == "relay"
    refresh_windowed(coarse, vd2, mid)
    cells = _coarse_cells(vd2)
    assert cells[200] == 8  # minute 250 landed in hour 200


def _coarse_cells(vd2: str) -> dict[int, int]:
    t = read_windowed(vd2)
    return {int(w): int(a) for w, a in zip(
        t["window_start"].to_pylist(), t["amt"].to_pylist())}


def test_trigger_relay_gap_raises_with_remedy(ray_session, tmp_path):
    from gamechanger_data_ray.engine.maintenance import vacuum
    from gamechanger_data_ray.engine.window_view import relay_triggers

    tb, vd, mid = (str(tmp_path / p) for p in ("tb", "wv", "mid"))
    view = TumblingWindowView("event_ts", width=10, lateness=0,
                              sums={"sum_amt": "amount"})
    _apply(tb, 1, [("I", 1, 0, "a", 5, 1), ("I", 1, 1, "z", 95, 1)])
    refresh_windowed(view, vd, tb, num_partitions=4)
    relay_triggers(vd, mid, num_partitions=4)  # dst at epoch 1
    for e in (2, 3, 4, 5):
        _apply(tb, e, [("I", e, 0, f"d{e}", 90 + e * 10, 1)])
        refresh_windowed(view, vd, tb)
    vacuum(vd, keep_epochs=1)  # view drops epoch-1 manifest (dst watermark)
    with pytest.raises(FileNotFoundError, match="relay lag"):
        relay_triggers(vd, mid)
