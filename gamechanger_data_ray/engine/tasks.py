"""Control-plane task pools: plain, retried Ray tasks, one per cluster CPU.

The engine's per-partition (and per-file) write steps — stage, merge,
view and window-view refresh merges, rewrite, footer scan, join, pack —
each return a small control row that the driver folds into a manifest.
They run as plain Ray tasks rather
than a Ray Data execution: the executor's fixed start-up cost is larger
than the work of a tail commit, and the driver holds every row for its
fold anyway, so ``ray.get`` over all refs keeps nothing extra. A pool
starts at most one task per cluster CPU (:func:`chunks`), each running a
contiguous run of items one at a time: work units are sized to the
workers, not to the data's partition count, so a commit's task count
(and its per-task scheduling, worker and file-open cost) stays flat as
P grows. Reads of committed state (scan, validate, checksums, restamp,
training export) go through ``cdc.scan_partitions`` instead, with the
same sizing rule; data-plane outputs that feed a Dataset consumer stay
on Ray Data.
"""

from __future__ import annotations

import ray
from ray._private.auto_init_hook import auto_init_ray


def cluster_cpus() -> int:
    """The cluster's CPU count, at least 1: the one sizing rule of every
    task pool. A caller without a Ray session gets one first, as from any
    Ray Data read (CLI verbs reach the pools before they start Ray)."""
    auto_init_ray()
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def chunks(items: list) -> list[list]:
    """``items`` split into ``min(len(items), cluster_cpus())`` contiguous
    runs of near-equal length, in order; none for no items."""
    if not items:
        return []
    n = min(len(items), cluster_cpus())
    bounds = [len(items) * j // n for j in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


# every step is pure or writes deterministically named files, so a retry
# after a transient error (flaky storage, OOM-killed worker) is safe — a
# retried chunk re-runs the items it had already finished, which rewrite
# the same bytes
@ray.remote(retry_exceptions=True, max_retries=4)
def _run_one(fn, items: list[dict]) -> list[dict]:
    return [fn(item) for item in items]


def run_tasks(fn, items: list[dict]) -> list[dict]:
    """``[fn(item) for item in items]``, at most one Ray task per cluster
    CPU (:func:`chunks`), rows in item order. ``fn`` is shipped once
    through the object store; no items start no task."""
    if not items:
        return []
    fn_ref = ray.put(fn)
    done = ray.get([_run_one.remote(fn_ref, run) for run in chunks(items)])
    return [row for rows in done for row in rows]
