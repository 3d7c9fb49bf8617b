"""Maintenance autopilot: turn the committed metadata into a standing
maintenance plan.

The reference runs its upkeep as hand-scheduled crawler cron jobs and
operator runbooks (`dataPipelines/gc_ingest/pipelines/*` job wiring,
`paasJobs/` schedule configs); lakehouses schedule OPTIMIZE / expire
-snapshots by hand the same way. This module closes that loop for the
CDC table: `plan()` reads ONLY committed metadata (manifest JSON, the
subscription registry, subscriber `_CURRENT` pointers — never data
files) and emits an explainable action list; `apply()` executes it with
the existing maintenance verbs (`cluster_table` / `compact` /
`retire_dropped` / `subscriptions.sync` / `vacuum`), each of which is
individually fenced and idempotent, so an autopilot run that races a
writer or crashes mid-list converges on the next run.

Signals and the actions they trigger:

- merge-on-read delta depth: a partition carrying >= ``max_delta_depth``
  pending deltas pays that many extra file reads + a read-time LWW
  resolve on every scan → ``compact``.
- clustering drift: a cluster rewrite stamps its order into
  ``epoch_counters["clustered_by"]`` and tags the files it writes
  (``-c<h>``/``-z<h>``); later merge epochs rewrite touched partitions
  key-sorted under plain names. Partitions whose current base file lacks
  the active order's tag (or that re-accumulated deltas) have lost the
  row-group data-skipping layout → ``cluster`` with the SAME recorded
  order (re-clustering subsumes compaction, so a planned cluster drops
  the compact action). Replay commits do not carry ``clustered_by``
  forward, so the active order is recovered from the newest retained
  manifest that recorded one — vacuuming every such manifest simply
  retires the standing order.
- drop tombstones: ``dropped_columns`` non-empty → a ``retire-dropped``
  probe (the probe itself reads only parquet footers and clears exactly
  the names no current file still carries).
- stale subscribers: a registered subscriber whose ``_CURRENT`` epoch
  trails the table's → ``sync`` (each subscriber refresh is itself
  incremental, so syncing early costs O(changed partitions)).
- quarantine backlog: a RECORDED retention policy
  (``ingest_gate.set_quarantine_policy``) with more audit dirs than it
  keeps → ``expire-quarantine`` (opt-in: no policy, no expiry — the
  audit trail is never silently dropped).
- manifest backlog: more retained manifests than ``keep_manifests`` →
  ``vacuum`` (run LAST so it sweeps the orphans the other actions strand).

Everything in ``plan()`` is O(partitions + retained manifests +
subscribers) driver-side JSON; the distributed work happens only inside
the delegated verbs.
"""

from __future__ import annotations

import hashlib
import json

from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs
from . import maintenance
from . import subscriptions as subs


def _cluster_tag(label: str) -> str:
    """The filename tag `cluster_table` stamps for a recorded order."""
    prefix = "-z" if label.startswith("zorder(") else "-c"
    return prefix + hashlib.sha1(label.encode()).hexdigest()[:8]


def _parse_cluster_label(label: str) -> tuple[list[str], bool]:
    if label.startswith("zorder(") and label.endswith(")"):
        return [c for c in label[7:-1].split(",") if c], True
    return [c for c in label.split(",") if c], False


def _active_cluster_label(table_dir: str, current: mf.TableManifest,
                          fs: StorageAdapter) -> str | None:
    """Newest recorded ``clustered_by`` — current manifest first, then
    retained manifests newest→oldest (replay epochs don't carry it)."""
    label = current.epoch_counters.get("clustered_by")
    if label:
        return str(label)
    for epoch in sorted(mf.list_manifests(table_dir, fs), reverse=True):
        if epoch > current.epoch:
            continue  # restored past a rollback: ignore the undone future
        m = mf.load_manifest(table_dir, epoch, fs)
        label = m.epoch_counters.get("clustered_by")
        if label:
            return str(label)
    return None


def plan(
    table_dir: str,
    *,
    max_delta_depth: int = 3,
    keep_manifests: int = 8,
    check_subscribers: bool = True,
    fs: StorageAdapter | None = None,
) -> list[dict]:
    """Inspect committed metadata and return the ordered action list
    ``apply`` would execute. Empty list = nothing to do."""
    fs = default_fs(fs)
    current = mf.load_current(table_dir, fs)
    if current is None:
        return []
    actions: list[dict] = []

    label = _active_cluster_label(table_dir, current, fs)
    cluster_planned = False
    if label:
        tag = _cluster_tag(label)
        stale = [
            p for p, e in current.partitions.items()
            if (e.get("file") and tag not in e["file"]) or e.get("deltas")
        ]
        if stale:
            by, zorder = _parse_cluster_label(label)
            cluster_planned = True
            actions.append({
                "op": "cluster", "by": by, "zorder": zorder,
                "reason": f"{len(stale)}/{len(current.partitions)} partitions "
                          f"lost the recorded order {label!r} to later writes",
            })

    if not cluster_planned:  # a cluster rewrite resolves every delta anyway
        deep = [p for p, e in current.partitions.items()
                if len(e.get("deltas", ())) >= max(1, max_delta_depth)]
        if deep:
            actions.append({
                "op": "compact", "min_deltas": max(1, max_delta_depth),
                "reason": f"{len(deep)} partitions carry >= {max_delta_depth} "
                          f"merge-on-read deltas (read-path resolve cost)",
            })

    if current.dropped_columns:
        actions.append({
            "op": "retire-dropped",
            "reason": f"drop tombstones pending: {current.dropped_columns} "
                      f"(probe clears the ones no current file still carries)",
        })

    if check_subscribers:
        stale_subs = []
        for sub in subs.list_subscriptions(table_dir, fs):
            seen = subs.subscriber_epoch(sub, fs)
            if seen is None or seen < current.epoch:
                stale_subs.append(sub["target_dir"])
        if stale_subs:
            actions.append({
                "op": "sync", "stale": stale_subs,
                "reason": f"{len(stale_subs)} subscriber(s) trail epoch "
                          f"{current.epoch}",
            })
        # windowed views strand late/trigger files when their own
        # manifests get vacuumed — plan the sweep per affected view
        from .window_view import orphaned_window_outputs

        for sub in subs.list_subscriptions(table_dir, fs):
            if sub["kind"] != "window":
                continue
            n = orphaned_window_outputs(sub["target_dir"])
            if n:
                actions.append({
                    "op": "expire-window-outputs",
                    "view_dir": sub["target_dir"],
                    "reason": f"{n} late/trigger file(s) reference vacuumed "
                              f"view manifests",
                })

    ttl = maintenance.ttl_cutoff(table_dir, current)
    if ttl is not None and ttl[1] > 0:
        pol = maintenance.ttl_policy(table_dir)
        actions.append({
            "op": "delete-where",
            "bounds": {pol["column"]: [None, ttl[0]]},
            "reason": f"row TTL: {ttl[1]} partition(s) hold rows with "
                      f"{pol['column']} <= {ttl[0]} "
                      f"(committed max - keep {pol['keep']})",
        })

    from .ingest_gate import list_quarantine_epochs, quarantine_policy

    pol = quarantine_policy(table_dir)
    if pol:  # retention is opt-in: no recorded policy, no expiry planned
        keep_q = int(pol["keep_epochs"])
        backlog = len(list_quarantine_epochs(table_dir))
        if backlog > keep_q:
            actions.append({
                "op": "expire-quarantine", "keep_epochs": keep_q,
                "reason": f"{backlog} quarantine audit dirs > recorded "
                          f"retention {keep_q}",
            })

    # MOR-approximate telemetry: delta commits fold sketches (and widen
    # bounds) until a physical rewrite — shallow stacks below the
    # compact threshold would stay approximate forever; a restamp is a
    # manifest-only rev that re-exacts both. Skipped when a planned
    # cluster/compact resolves the stacks anyway.
    if not cluster_planned and not any(a["op"] == "compact" for a in actions):
        approx = [p for p, e in current.partitions.items()
                  if e.get("col_sketch_mor")]
        if approx:
            actions.append({
                "op": "restamp-stats",
                "reason": f"{len(approx)} partition(s) carry MOR-approximate "
                          f"sketches/bounds (manifest-only re-exact)",
            })

    retained = mf.list_manifests(table_dir, fs)
    if len(retained) > keep_manifests:
        actions.append({
            "op": "vacuum", "keep_epochs": keep_manifests,
            "reason": f"{len(retained)} retained manifests > keep "
                      f"{keep_manifests} (plus any orphaned data files)",
        })
    return actions


def apply(
    table_dir: str,
    actions: list[dict] | None = None,
    fs: StorageAdapter | None = None,
    **plan_kwargs,
) -> list[dict]:
    """Execute ``actions`` (default: a fresh ``plan(**plan_kwargs)``) in
    plan order; returns one report row per action. Each delegated verb
    is fenced/idempotent on its own, so a partial run is safe to re-run."""
    fs = default_fs(fs)
    if actions is None:
        actions = plan(table_dir, fs=fs, **plan_kwargs)
    report: list[dict] = []
    for a in actions:
        op = a["op"]
        if op == "cluster":
            m = maintenance.cluster_table(
                table_dir, by=a["by"], zorder=a["zorder"], fs=fs)
            report.append({"op": op, "done": m is not None,
                           "rev": m.rev if m else None})
        elif op == "compact":
            m = maintenance.compact(
                table_dir, min_deltas=a["min_deltas"], fs=fs)
            report.append({"op": op, "done": m is not None,
                           "rev": m.rev if m else None})
        elif op == "retire-dropped":
            out = maintenance.retire_dropped(table_dir, fs=fs)
            report.append({"op": op, **out})
        elif op == "sync":
            rows = subs.sync(table_dir, fs)
            report.append({"op": op, "synced": len(rows)})
        elif op == "expire-quarantine":
            from .ingest_gate import expire_quarantine

            out = expire_quarantine(table_dir, a["keep_epochs"])
            report.append({"op": op, "removed": len(out["removed"]),
                           "kept": out["kept"]})
        elif op == "delete-where":
            out = maintenance.delete_where(
                table_dir,
                bounds={c: tuple(v) for c, v in a["bounds"].items()}, fs=fs)
            report.append({"op": op, **out})
        elif op == "expire-window-outputs":
            from .window_view import expire_window_outputs

            out = expire_window_outputs(a["view_dir"], fs)
            report.append({"op": op, "view_dir": a["view_dir"], **out})
        elif op == "restamp-stats":
            m = maintenance.restamp_stats(table_dir, fs=fs)
            report.append({"op": op, "done": m is not None,
                           "rev": m.rev if m else None})
        elif op == "vacuum":
            out = maintenance.vacuum(table_dir, keep_epochs=a["keep_epochs"])
            report.append({"op": op, **out})
        else:
            raise ValueError(f"unknown autopilot action {op!r}")
    return report


def main_json(table_dir: str, do_apply: bool, **plan_kwargs) -> str:
    """CLI face: the plan (and, with ``do_apply``, the per-action report)."""
    p = plan(table_dir, **plan_kwargs)
    out: dict = {"plan": p}
    if do_apply and p:
        out["report"] = apply(table_dir, p)
        out["replan"] = plan(table_dir, **plan_kwargs)
    return json.dumps(out)
