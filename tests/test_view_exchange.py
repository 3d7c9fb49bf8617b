"""View and window-view refreshes ride the engine's one staged exchange
(``cdc.exchange``): no Ray Data groupby, at most one staged IPC file per
source block per exchange, no schema-divergence warnings, and a crashed
refresh's staging debris is ignored by the retry and swept by vacuum."""

from __future__ import annotations

import hashlib
import logging
import os
import uuid

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from gamechanger_data_ray.engine.cdc import apply_events_dataset, read_table
from gamechanger_data_ray.engine.diff import diff_table_epochs
from gamechanger_data_ray.engine.maintenance import vacuum
from gamechanger_data_ray.engine.views import ViewDef, refresh, view_to_arrow
from gamechanger_data_ray.engine.window_view import EventWindowView, refresh_windowed
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.fs import StorageAdapter

AGG = ViewDef(["source"], {"amt": "amount"})
WIN = EventWindowView("event_ts", width=50, slide=25, lateness=40,
                      sums={"amt": "amount"}, group_by=("source",))


def _events(epoch: int, ids, op: str, ts) -> pa.Table:
    n = len(ids)
    return pa.table({
        "op": pa.array([op] * n),
        "lsn": pa.array(np.full(n, epoch, dtype=np.int64)),
        "seq": pa.array(np.arange(n, dtype=np.int64)),
        "doc_id": pa.array([f"d{i:04d}" for i in ids]),
        "source": pa.array([f"s{i % 5}" for i in ids]),
        "event_ts": pa.array(np.asarray(ts, dtype=np.int64)),
        "amount": pa.array((np.asarray(ids) % 7).astype(np.int64)),
    })


def _lake(tb: str) -> None:
    """Epoch 1: 300 docs over 8 partitions, event times 0..897 (a windowed
    view's bootstrap watermark is 857)."""
    e1 = _events(1, range(300), "I", np.arange(300) * 3)
    apply_events_dataset(ray.data.from_arrow(e1), tb, 1, e1.schema, num_partitions=8)


def _epoch2(tb: str) -> None:
    """Epoch 2: 60 updates (half of them late) and 10 deletes spread over
    the partitions, so the retraction diff has several blocks."""
    upd = _events(2, range(0, 300, 5), "U",
                  np.where(np.arange(60) % 2 == 0, 100, 1500) + np.arange(60))
    dele = _events(2, range(1, 300, 30), "D", np.zeros(10))
    dele = dele.set_column(2, "seq", pa.array(np.arange(100, 110, dtype=np.int64)))
    apply_events_dataset(ray.data.from_arrow([upd, dele]), tb, 2,
                         pa.concat_tables([upd, dele]).schema)


def test_refresh_stages_one_ipc_file_per_block_without_groupby(ray_session, tmp_path, monkeypatch):
    """Incremental and bootstrap refreshes of a view and a windowed view
    run with ``Dataset.groupby`` disabled; each exchange (one staging dir)
    writes at most one IPC file per source block."""
    rec = str(tmp_path / "rec")
    os.makedirs(rec)

    class Recording(StorageAdapter):  # stage tasks run in workers
        def write_arrow_batches(self, path, tables):
            with open(os.path.join(rec, uuid.uuid4().hex), "w") as f:
                f.write(path)
            StorageAdapter.write_arrow_batches(self, path, tables)

    def staged() -> dict[str, list[str]]:
        by_exchange: dict[str, list[str]] = {}
        for n in os.listdir(rec):
            with open(os.path.join(rec, n)) as f:
                p = f.read()
            by_exchange.setdefault(os.path.dirname(p), []).append(p)
            os.remove(os.path.join(rec, n))
        return by_exchange

    def no_groupby(self, *a, **k):
        raise AssertionError("view refresh ran a Ray Data groupby")

    tb, vd, wd = (str(tmp_path / n) for n in ("tb", "vd", "wd"))
    _lake(tb)
    monkeypatch.setattr(ray.data.Dataset, "groupby", no_groupby)
    fs = Recording()

    full_blocks = read_table(tb, payload_only=True, columns=["source", "amount"]
                             ).materialize().num_blocks()
    assert refresh(AGG, vd, tb, num_partitions=4, fs=fs).epoch_counters["mode"] == "full"
    assert refresh_windowed(WIN, wd, tb, num_partitions=4, fs=fs) is not None
    boot = staged()
    assert len(boot) == 2  # one exchange per refresh
    assert all(len(set(ps)) == len(ps) <= full_blocks for ps in boot.values())

    _epoch2(tb)
    delta_blocks = diff_table_epochs(tb, 1, 2, mode="retractions").materialize().num_blocks()
    assert delta_blocks > 1
    m = refresh(AGG, vd, tb, fs=fs)
    assert m.epoch_counters["mode"] == "incremental"
    mw = refresh_windowed(WIN, wd, tb, fs=fs)
    assert mw.epoch_counters["late_rows"] > 0
    inc = staged()
    assert len(inc) == 3  # the view's fold; the window view's late route + fold
    for d, ps in inc.items():
        assert os.path.basename(d).startswith("epoch-000002-")
        assert len(set(ps)) == len(ps) <= delta_blocks
    # staging is removed on success
    for root in (vd, wd):
        assert os.listdir(os.path.join(root, "_staging")) == []

    # the same answer as a fresh full rebuild
    fresh = str(tmp_path / "fresh")
    refresh(AGG, fresh, tb, num_partitions=4)
    assert view_to_arrow(vd).equals(view_to_arrow(fresh))


def test_refresh_logs_no_schema_divergence(ray_session, tmp_path):
    """An incremental refresh and a windowed refresh log no Ray Data
    ``different schema`` warning: every stage block returns the same
    ``{file, parts}`` row schema, empty blocks included."""
    tb, vd, wd = (str(tmp_path / n) for n in ("tb", "vd", "wd"))
    _lake(tb)
    refresh(AGG, vd, tb, num_partitions=4)
    refresh_windowed(WIN, wd, tb, num_partitions=4)
    _epoch2(tb)

    records: list[logging.LogRecord] = []

    class Keep(logging.Handler):
        def emit(self, record):
            records.append(record)

    h = Keep(level=logging.WARNING)
    log = logging.getLogger("ray.data")
    log.addHandler(h)
    try:
        assert refresh(AGG, vd, tb).epoch_counters["mode"] == "incremental"
        assert refresh_windowed(WIN, wd, tb).epoch_counters["late_rows"] > 0
    finally:
        log.removeHandler(h)
    noisy = [r.getMessage()[:120] for r in records if "different schema" in r.getMessage()]
    assert noisy == []


def _sha(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _file_hashes(vd: str) -> dict[str, str]:
    cur = mf.load_current(vd)
    return {p["file"]: _sha(os.path.join(vd, p["file"])) for p in cur.partitions.values()}


def _late_hashes(wd: str) -> dict[str, str]:
    d = os.path.join(wd, "late", "e000002")
    return {f: _sha(os.path.join(d, f)) for f in sorted(os.listdir(d))}


def test_crashed_refresh_staging_is_ignored_then_vacuumed(ray_session, tmp_path):
    """A dead refresh attempt's staged block and torn ``.inprogress-``
    file neither leak into the retry (same view files as a clean refresh)
    nor outlive ``vacuum`` of the view dir."""
    tb, vd, clean = (str(tmp_path / n) for n in ("tb", "vd", "clean"))
    _lake(tb)
    refresh(AGG, vd, tb, num_partitions=4)
    refresh(AGG, clean, tb, num_partitions=4)
    _epoch2(tb)

    dead = os.path.join(vd, "_staging", f"epoch-000002-{uuid.uuid4().hex}")
    os.makedirs(dead)
    bogus = pa.table({"source": ["s0"], "n_rows": pa.array([1000], pa.int64()),
                      "amt": pa.array([10**6], pa.int64())})
    StorageAdapter().write_arrow_batches(
        os.path.join(dead, f"block-{uuid.uuid4().hex}.arrow"), [bogus])
    with open(os.path.join(dead, f"block-{uuid.uuid4().hex}.arrow.inprogress-"
                                 f"{uuid.uuid4().hex}"), "wb") as f:
        f.write(b"ARROW1\x00\x00torn")

    assert refresh(AGG, vd, tb).epoch == 2
    assert refresh(AGG, clean, tb).epoch == 2
    assert _file_hashes(vd) == _file_hashes(clean)
    assert os.path.isdir(dead)  # a refresh never touches another attempt's dir

    vacuum(vd)
    assert not os.path.exists(dead)
    assert _file_hashes(vd) == _file_hashes(clean)


def test_windowed_retry_after_crash_rewrites_identical_late_files(ray_session, tmp_path,
                                                                   monkeypatch):
    """Late rows reach their (partition, salt) file from uuid-named staged
    blocks in any order; a refresh that crashed before its commit and
    its retry write the same late-file bytes as a clean refresh."""
    import gamechanger_data_ray.engine.window_view as wv

    tb, wd, clean = (str(tmp_path / n) for n in ("tb", "wd", "clean"))
    _lake(tb)
    refresh_windowed(WIN, wd, tb, num_partitions=4)
    refresh_windowed(WIN, clean, tb, num_partitions=4)
    _epoch2(tb)

    def crash(*a, **k):
        raise RuntimeError("crash before commit")

    with monkeypatch.context() as m, pytest.raises(RuntimeError, match="crash"):
        m.setattr(wv.mf, "commit", crash)
        refresh_windowed(WIN, wd, tb)
    crashed = _late_hashes(wd)
    assert len(crashed) > 1
    mw = refresh_windowed(WIN, wd, tb)
    assert mw.epoch == 2
    refresh_windowed(WIN, clean, tb)
    assert _late_hashes(wd) == crashed == _late_hashes(clean)
    assert _file_hashes(wd) == _file_hashes(clean)
