"""Exhaustive crash-point sweep over the commit path.

The existing fault tests cover transient TASK failures (Ray retries) and
two racing DRIVERS (manifest fence). This sweep covers the third failure
mode the north-star's exactly-once claim demands: the driver process
dying at an ARBITRARY point mid-commit. A ``CrashingAdapter`` raises
after its Nth driver-side mutating storage op; for every N from the
first write to the op count of a full clean commit we assert

1. **crash invisibility** — a reader opening the table after the crash
   sees exactly the pre-commit state (the ``_CURRENT`` pointer swap is
   the single publication point), and
2. **reconvergent retry** — re-running the same apply over the debris
   (orphan temp files, staged partitions, un-pointed manifests) commits
   and yields a table byte-identical to a crash-free run.

Worker-side writes are exempted by construction (``__reduce__`` ships a
plain adapter to tasks): task failures are Ray-retry territory, already
covered by test_fault_injection; this sweep is about the driver's own
bookkeeping — stage dirs, partition publishes, manifest + pointer.
"""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq
import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.core.reconcile import unify_all
from gamechanger_data_ray.engine import maintenance as mt
from gamechanger_data_ray.engine.cdc import apply_epoch, apply_epochs, replay, table_to_arrow
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.fs import StorageAdapter


class InjectedCrash(Exception):
    pass


class CrashingAdapter(StorageAdapter):
    """Raises :class:`InjectedCrash` once ``budget`` mutating ops have
    been spent. Pickling (i.e. capture into a Ray task closure) degrades
    it to a plain local adapter so only DRIVER-side ops count — the sweep
    is deterministic and exhaustive over the driver's commit sequence."""

    def __init__(self, budget: int):
        super().__init__()
        self.budget = budget
        self.ops = 0

    def _spend(self) -> None:
        self.ops += 1
        if self.ops > self.budget:
            raise InjectedCrash(f"crash at driver mutating op #{self.ops}")

    def makedirs(self, path):
        self._spend()
        return super().makedirs(path)

    def rmtree(self, path):
        self._spend()
        return super().rmtree(path)

    def rm(self, path):
        self._spend()
        return super().rm(path)

    def atomic_write_bytes(self, path, data):
        self._spend()
        return super().atomic_write_bytes(path, data)

    def atomic_write_text(self, path, data):
        self._spend()
        return super().atomic_write_text(path, data)

    def write_parquet_atomic(self, table, path):
        self._spend()
        return super().write_parquet_atomic(table, path)

    def __reduce__(self):
        return (StorageAdapter, ())


def _mk_changelog(tmp_path) -> str:
    cd = str(tmp_path / "cl")
    write_changelog(cd, num_epochs=2, events_per_epoch=800, num_keys=150)
    return cd


# case → (merge policy, delta budget of the crashed epoch-2 commit); in
# "fold" every partition epoch 1 gave a delta is resolved into a new base
CASES = {"rewrite": ("rewrite", None), "delta": ("delta", None), "fold": ("delta", 1)}


@pytest.mark.parametrize("case", list(CASES))
def test_crash_at_every_driver_write_point(tmp_path, case):
    merge_policy, auto_compact = CASES[case]
    cd = _mk_changelog(tmp_path)

    def commit(td, epoch, fs=None):
        return apply_epochs(cd, td, [epoch], num_partitions=4, merge_policy=merge_policy,
                            fs=fs, auto_compact=auto_compact if epoch == 2 else None)

    # expected final state from a crash-free run
    clean = str(tmp_path / f"clean-{case}")
    if auto_compact is None:
        replay(cd, clean, num_partitions=4, merge_policy=merge_policy)
    else:
        commit(clean, 1)
        commit(clean, 2)
        assert mf.load_current(clean).epoch_counters["folded"] > 0
    expected = table_to_arrow(clean)

    # the table under test: epoch 1 committed cleanly, epoch 2 is the
    # commit we crash — so crash invisibility has a real prior state to
    # protect, and the retry exercises debris from every abort point
    td = str(tmp_path / f"tb-{case}")
    commit(td, 1)
    base = table_to_arrow(td)
    base_epoch = mf.committed_epoch(td)
    assert base_epoch == 1

    crash_points = 0
    budget = 0
    while True:
        fs = CrashingAdapter(budget)
        try:
            m = commit(td, 2, fs=fs)
        except InjectedCrash:
            crash_points += 1
            # 1) crash invisibility: a fresh reader sees the pre-commit
            #    state exactly, debris and all
            assert mf.committed_epoch(td) in (1, 2)
            if mf.committed_epoch(td) == 1:
                assert table_to_arrow(td).equals(base)
            else:
                # the pointer swap is the last mutating op; a crash after
                # it IS a completed commit
                assert table_to_arrow(td).equals(expected)
            # 2) reconvergent retry over the debris (None ⇔ the crash
            #    landed after the pointer swap, i.e. the commit completed
            #    and the retry is the documented idempotent no-op)
            already = mf.committed_epoch(td) == 2
            m2 = commit(td, 2)
            assert (m2 is None) == already
            assert mf.committed_epoch(td) == 2
            assert table_to_arrow(td).equals(expected)
            assert mt.validate_table(td)["violations"] == {}
            # reset for the next crash point: retry already committed, so
            # rebuild the pre-commit table fresh
            td = str(tmp_path / f"tb-{case}-{budget}")
            commit(td, 1)
            budget += 1
        else:
            # budget outlasted the whole commit: sweep complete
            assert m is not None and m.epoch == 2
            assert table_to_arrow(td).equals(expected)
            break

    # the sweep must have actually swept: a real commit spends several
    # driver-side ops (stage dir, partition publishes, manifest, pointer)
    assert crash_points >= 4, f"only {crash_points} crash points reached"


def test_crash_mid_commit_keeps_bounded_reads_working(tmp_path):
    """Zone-map/bounded read paths must also ignore debris: crash the
    commit right before the pointer swap (max budget that still crashes),
    then run a bounded read and a point lookup against the table."""
    from gamechanger_data_ray.engine.cdc import read_keys, read_table

    cd = _mk_changelog(tmp_path)
    td = str(tmp_path / "tb")
    apply_epoch(cd, td, epoch=1, num_partitions=4)
    base = table_to_arrow(td)

    # find the last crashing budget by sweeping up until success
    budget = 0
    last_crash_budget = None
    while True:
        try:
            apply_epoch(cd, td, epoch=2, num_partitions=4,
                        fs=CrashingAdapter(budget))
            break
        except InjectedCrash:
            if mf.committed_epoch(td) == 1:
                last_crash_budget = budget
            budget += 1
            continue
    assert last_crash_budget is not None

    # fresh table, crash at the deepest pre-publication point
    td2 = str(tmp_path / "tb2")
    apply_epoch(cd, td2, epoch=1, num_partitions=4)
    with pytest.raises(InjectedCrash):
        apply_epoch(cd, td2, epoch=2, num_partitions=4,
                    fs=CrashingAdapter(last_crash_budget))
    assert mf.committed_epoch(td2) == 1

    keys = base.column("doc_id").to_pylist()[:3]
    got = read_keys(td2, keys)
    assert set(got.column("doc_id").to_pylist()) <= set(keys)
    lo, hi = min(keys), max(keys)
    ds = read_table(td2, bounds={"doc_id": (lo, hi)})
    t = ds.take_all()
    assert all(lo <= r["doc_id"] <= hi for r in t)
