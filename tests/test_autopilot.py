"""Maintenance autopilot: plan from committed metadata, apply converges.

Invariants under test:
- plan() is metadata-only and empty on a healthy table;
- every apply() preserves logical state byte-for-byte (maintenance
  rewrites identical state — the engine-wide rule);
- after apply(), a re-plan with the same thresholds is clean (the
  autopilot is a fixpoint operator);
- each signal (delta depth / cluster drift / drop tombstone / stale
  subscriber / manifest backlog) raises exactly its own action.
"""

from __future__ import annotations

import glob
import os

import pyarrow.compute as pc

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine import autopilot
from gamechanger_data_ray.engine.cdc import replay, table_to_arrow
from gamechanger_data_ray.engine.maintenance import (
    cluster_table,
    drop_column,
)
from gamechanger_data_ray.engine.subscriptions import subscribe
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.manifest import list_manifests

P = 8


def ops(actions: list[dict]) -> list[str]:
    return [a["op"] for a in actions]


def sorted_state(tb: str):
    t = table_to_arrow(tb)
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


def test_fresh_table_plan_is_empty(tmp_path):
    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=2, events_per_epoch=200, num_keys=80, seed=3)
    replay(cd, tb, num_partitions=P)
    assert autopilot.plan(tb) == []


def test_compact_signal_fixpoint(tmp_path):
    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=300, num_keys=100, seed=11)
    replay(cd, tb, num_partitions=P, epochs_per_commit=1, merge_policy="delta")

    actions = autopilot.plan(tb, max_delta_depth=2, keep_manifests=50)
    assert ops(actions) == ["compact"]
    before = sorted_state(tb)
    report = autopilot.apply(tb, actions)
    assert report[0]["op"] == "compact" and report[0]["done"]
    assert sorted_state(tb).equals(before)
    assert autopilot.plan(tb, max_delta_depth=2, keep_manifests=50) == []


def test_cluster_drift_detected_and_recovered(tmp_path):
    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=300, num_keys=100, seed=23)
    replay(cd, tb, num_partitions=P, up_to_epoch=2)
    assert cluster_table(tb, "source") is not None
    assert autopilot.plan(tb, keep_manifests=50) == []  # freshly clustered

    # later merge epochs rewrite touched partitions key-sorted under plain
    # names AND the replay commit drops clustered_by from epoch_counters —
    # the autopilot must recover the order from retained manifests
    replay(cd, tb, num_partitions=P)
    assert "clustered_by" not in mf.load_current(tb).epoch_counters
    actions = autopilot.plan(tb, keep_manifests=50)
    assert ops(actions) == ["cluster"]
    assert actions[0]["by"] == ["source"] and actions[0]["zorder"] is False

    before = sorted_state(tb)
    autopilot.apply(tb, actions)
    assert sorted_state(tb).equals(before)
    cur = mf.load_current(tb)
    assert cur.epoch_counters["clustered_by"] == "source"
    tag = autopilot._cluster_tag("source")
    for e in cur.partitions.values():
        assert (not e.get("file")) or tag in e["file"]
        assert not e.get("deltas")
    assert autopilot.plan(tb, keep_manifests=50) == []


def test_cluster_plan_subsumes_compact(tmp_path):
    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=300, num_keys=100, seed=31)
    replay(cd, tb, num_partitions=P, up_to_epoch=1)
    cluster_table(tb, ["source", "n_tok"], zorder=True)
    replay(cd, tb, num_partitions=P, epochs_per_commit=1, merge_policy="delta")

    actions = autopilot.plan(tb, max_delta_depth=1, keep_manifests=50)
    assert ops(actions) == ["cluster"]  # re-cluster resolves the deltas too
    assert actions[0]["by"] == ["source", "n_tok"] and actions[0]["zorder"] is True
    before = sorted_state(tb)
    autopilot.apply(tb, actions)
    assert sorted_state(tb).equals(before)
    cur = mf.load_current(tb)
    assert not any(e.get("deltas") for e in cur.partitions.values())
    assert autopilot.plan(tb, max_delta_depth=1, keep_manifests=50) == []


def test_retire_dropped_probe(tmp_path):
    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=250, num_keys=120,
                    seed=7, evolution=True)
    replay(cd, tb, num_partitions=P)  # evolution lands the lang column
    drop_column(tb, "lang")

    # probe runs but clears nothing while committed files carry the bytes
    actions = autopilot.plan(tb, keep_manifests=50)
    assert ops(actions) == ["retire-dropped"]
    report = autopilot.apply(tb, actions)
    assert report[0]["retired"] == [] and report[0]["pending"]["lang"] > 0
    assert mf.load_current(tb).dropped_columns == ["lang"]

    # a physical rewrite (cluster) sheds the bytes; now the probe retires
    cluster_table(tb, "source")
    actions = autopilot.plan(tb, keep_manifests=50)
    assert ops(actions) == ["retire-dropped"]
    report = autopilot.apply(tb, actions)
    assert report[0]["retired"] == ["lang"]
    assert mf.load_current(tb).dropped_columns == []
    assert autopilot.plan(tb, keep_manifests=50) == []


def test_stale_subscriber_sync(tmp_path):
    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    vd = str(tmp_path / "view")
    write_changelog(cd, num_epochs=2, events_per_epoch=200, num_keys=80, seed=5)
    replay(cd, tb, num_partitions=P)
    subscribe(tb, "agg", vd,
              params={"group_by": ["source"], "sums": {"n_tok_sum": "n_tok"},
                      "num_partitions": 4})

    actions = autopilot.plan(tb, keep_manifests=50)
    assert ops(actions) == ["sync"] and actions[0]["stale"] == [os.path.abspath(vd)]
    report = autopilot.apply(tb, actions)
    assert report[0] == {"op": "sync", "synced": 1}
    assert mf.load_current(vd).epoch == mf.load_current(tb).epoch
    assert autopilot.plan(tb, keep_manifests=50) == []


def test_manifest_backlog_vacuum(tmp_path):
    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=200, num_keys=80, seed=17)
    replay(cd, tb, num_partitions=P, epochs_per_commit=1)
    assert len(list_manifests(tb)) == 4

    actions = autopilot.plan(tb, keep_manifests=2)
    assert ops(actions) == ["vacuum"]
    before = sorted_state(tb)
    report = autopilot.apply(tb, actions)
    assert report[0]["op"] == "vacuum" and len(report[0]["manifests_kept"]) == 2
    assert sorted_state(tb).equals(before)
    assert len(list_manifests(tb)) == 2
    # orphaned pre-window files actually left the disk
    live = {os.path.abspath(f)
            for f in mf.load_current(tb).data_files(tb)}
    on_disk = {os.path.abspath(f)
               for f in glob.glob(os.path.join(tb, "part=*", "data-e*.parquet"))}
    for e in list_manifests(tb):
        from gamechanger_data_ray.state.manifest import load_manifest

        live |= {os.path.abspath(f) for f in load_manifest(tb, e).data_files(tb)}
    assert on_disk == live
    assert autopilot.plan(tb, keep_manifests=2) == []


def test_cli_plan_and_apply(tmp_path):
    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=3, events_per_epoch=200, num_keys=80, seed=41)
    replay(cd, tb, num_partitions=P, epochs_per_commit=1, merge_policy="delta")

    import json

    out = json.loads(autopilot.main_json(tb, False, max_delta_depth=2,
                                         keep_manifests=2))
    assert ops(out["plan"]) == ["compact", "vacuum"]
    out = json.loads(autopilot.main_json(tb, True, max_delta_depth=2,
                                         keep_manifests=2))
    assert [r["op"] for r in out["report"]] == ["compact", "vacuum"]
    assert out["replan"] == []
