"""Control-plane task pools: one plain, retried Ray task per work item.

The engine's per-partition (and per-file) write steps — stage, merge,
rewrite, footer scan, join, pack — each return a small control row that
the driver folds into a manifest. They run as plain Ray tasks rather
than a Ray Data execution: the executor's fixed start-up cost is larger
than the work of a tail commit, and the driver holds every row for its
fold anyway, so ``ray.get`` over all refs keeps nothing extra. Reads of
committed state (scan, validate, checksums, restamp, training export)
go through ``cdc.scan_partitions`` instead; data-plane outputs that feed
a Dataset consumer stay on Ray Data.
"""

from __future__ import annotations

import ray


# every step is pure or writes deterministically named files, so a retry
# after a transient error (flaky storage, OOM-killed worker) is safe
@ray.remote(retry_exceptions=True, max_retries=4)
def _run_one(fn, item: dict) -> dict:
    return fn(item)


def run_tasks(fn, items: list[dict]) -> list[dict]:
    """``[fn(item) for item in items]``, one Ray task per item, rows in
    item order. ``fn`` is shipped once through the object store."""
    if not items:
        return []
    fn_ref = ray.put(fn)
    return ray.get([_run_one.remote(fn_ref, item) for item in items])
