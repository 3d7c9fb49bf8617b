"""``engine.tasks.run_tasks``: the plain-task pool behind every
control-plane step (stage, merge, view merges, rewrite, footer scan,
join, pack), at most one task per cluster CPU."""

from __future__ import annotations

import json
import time

import pyarrow as pa
import pytest
import ray
import ray.data

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine import cdc, tasks
from gamechanger_data_ray.engine.maintenance import compact
from gamechanger_data_ray.engine.tasks import run_tasks
from gamechanger_data_ray.state import manifest as mf


def test_rows_come_back_in_item_order():
    def slow_first(item):
        time.sleep(0.3 * (3 - item["i"]))  # the first item finishes last
        return {"i": item["i"], "sq": item["i"] ** 2}

    rows = run_tasks(slow_first, [{"i": i} for i in range(4)])
    assert rows == [{"i": i, "sq": i * i} for i in range(4)]


def test_items_run_in_at_most_one_task_per_cpu():
    def where(item):
        return {"i": item["i"], "task": ray.get_runtime_context().get_task_id()}

    rows = run_tasks(where, [{"i": i} for i in range(10)])
    assert [r["i"] for r in rows] == list(range(10))
    assert len({r["task"] for r in rows}) <= tasks.cluster_cpus()


def test_chunks_are_contiguous_and_balanced():
    cpus = tasks.cluster_cpus()
    assert tasks.chunks([]) == []
    for n in (1, cpus, cpus + 1, 3 * cpus + 2):
        runs = tasks.chunks(list(range(n)))
        assert len(runs) == min(n, cpus)
        assert [x for run in runs for x in run] == list(range(n))
        assert max(map(len, runs)) - min(map(len, runs)) <= 1


def test_no_items_start_no_task(monkeypatch):
    class NoTasks:
        def remote(self, *args):
            raise AssertionError("a task was started")

    monkeypatch.setattr(tasks, "_run_one", NoTasks())
    assert run_tasks(lambda item: item, []) == []


def test_failing_fn_raises_after_retries():
    def bad(item):
        raise ValueError(f"bad item {item['i']}")

    with pytest.raises(ValueError, match="bad item"):
        run_tasks(bad, [{"i": 0}, {"i": 1}])


def _via_ray_data(fn, items):
    """The Ray Data pool the control plane used before: every row makes an
    Arrow round trip, which turns any numpy scalar into a Python value."""
    if not items:
        return []

    def one(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist([fn(r) for r in batch.to_pylist()])

    ds = ray.data.from_items(items).map_batches(one, batch_size=1, batch_format="pyarrow")
    blocks = ds.iter_batches(batch_size=None, batch_format="pyarrow")
    return pa.concat_tables(blocks).to_pylist()


def test_manifest_matches_the_ray_data_pool(tmp_path, monkeypatch):
    """A merge-on-read epoch plus a compaction commit the same manifest
    whether the task rows come back directly or through Arrow."""
    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=2, events_per_epoch=300, num_keys=80)

    def build(tb):
        cdc.replay(cd, tb, num_partitions=4, up_to_epoch=1)
        cdc.replay(cd, tb, num_partitions=4, merge_policy="delta")
        assert compact(tb) is not None
        m = mf.load_current(tb)
        counters = {k: v for k, v in m.epoch_counters.items()
                    if k not in ("committed_at", "phase_wall")}
        return json.dumps([m.partitions, m.totals, counters], sort_keys=True)

    direct = build(str(tmp_path / "direct"))
    monkeypatch.setattr(cdc, "run_tasks", _via_ray_data)
    monkeypatch.setattr(tasks, "run_tasks", _via_ray_data)
    assert build(str(tmp_path / "ray_data")) == direct
