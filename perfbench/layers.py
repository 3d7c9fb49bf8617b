"""Per-layer metrics of a traced run, computed from its spans and from the
manifests its commits left behind.

Times are medians per call (or per op, where a layer is called several
times in one op); counts are means per commit or per lookup, and exact
because they come from the engine's committed lineage counters or from
counting spans.
"""

from __future__ import annotations

import glob
import os

from gamechanger_data_ray.state.manifest import manifest_name, parse_manifest_name

import common
from tracing import self_time

# (name, unit) in the order they are printed
METRICS = [
    ("apply.stage_s", "s"), ("apply.merge_s", "s"), ("apply.driver_s", "s"),
    ("apply.events_in", "count"), ("apply.upserts", "count"), ("apply.deletes", "count"),
    ("apply.rows_out", "count"), ("apply.parts_touched", "count"),
    ("apply.write_bytes", "B"), ("apply.write_amp", "ratio"),
    ("manifest.load_ms", "ms"), ("manifest.loads_per_commit", "count"),
    ("manifest.loads_per_lookup", "count"), ("manifest.commit_ms", "ms"),
    ("manifest.bytes", "B"),
    ("reconcile.unify_ms", "ms"), ("reconcile.conform_ms", "ms"),
    ("lookup.route_ms", "ms"), ("lookup.files_per_call", "count"),
    ("lookup.bloom_skip_frac", "ratio"), ("lookup.fetch_ms", "ms"),
    ("lookup.resolve_ms", "ms"), ("table.deltas_per_part", "count"),
    ("scan.plan_ms", "ms"), ("scan.exec_s", "s"), ("scan.rows", "count"),
    ("compact.wall_s", "s"), ("compact.calls", "count"), ("compact.bytes", "B"),
    ("trace.overhead_pct", "%"), ("trace.spans", "count"),
]


def _med(xs: list[float]) -> float:
    return common.median(xs) if xs else 0.0


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _previous_manifest(table: str, epoch: int, rev: int) -> dict | None:
    """The manifest committed just before (epoch, rev), or None."""
    older = []
    for path in glob.glob(os.path.join(table, "_manifests", "manifest-*.json")):
        er = parse_manifest_name(os.path.basename(path))
        if er is not None and er < (epoch, rev):
            older.append(er)
    return common.read_manifest(table, manifest_name(*max(older))) if older else None


def _new_bytes(table: str, epoch: int, rev: int) -> tuple[dict, int]:
    """A commit's manifest and the bytes of the data files it added."""
    man = common.read_manifest(table, manifest_name(epoch, rev))
    prev = _previous_manifest(table, epoch, rev)
    old = set(common.listed_files(prev)) if prev else set()
    new = [f for f in common.listed_files(man) if f not in old]
    return man, sum(os.path.getsize(os.path.join(table, f)) for f in new)


def _changelog_bytes(changelog: str, epochs: list[int]) -> int:
    return sum(os.path.getsize(f) for e in epochs
               for f in glob.glob(os.path.join(changelog, f"epoch={e:06d}", "*.parquet")))


def compute(tracer, primary: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; ``primary`` are the timed loop's primary ops
    (with their ``traced`` flag), used for the tracing overhead."""
    spans = tracer.spans
    kids = tracer.children()
    by: dict[str, list] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    op_kind = {s.id: s.name for s in spans if s.parent is None}

    def in_ops(name: str, kind: str) -> list:
        return [s for s in by.get(name, []) if op_kind.get(s.op) == "op." + kind]

    out: dict[str, float] = {}

    # engine.cdc apply path, from the committed rev-0 manifest of each apply
    stage, merge, driver, write, cl_bytes = [], [], [], [], 0
    counters: dict[str, list[float]] = {k: [] for k in
                                        ("events_in", "upserts", "deletes", "rows_out")}
    parts = []
    for s in by.get("cdc.apply", []):
        if "epoch" not in s.attrs:
            continue  # fenced or already applied: nothing committed
        man, added = _new_bytes(s.attrs["table"], s.attrs["epoch"], 0)
        ec = man["epoch_counters"]
        pw = ec.get("phase_wall", {})
        stage.append(pw.get("stage", 0.0))
        merge.append(pw.get("merge", 0.0))
        driver.append(s.dur - pw.get("stage", 0.0) - pw.get("merge", 0.0))
        for k, v in counters.items():
            v.append(ec[k])
        parts.append(len(ec.get("per_partition", {})))
        write.append(added)
        cl_bytes += _changelog_bytes(s.attrs["changelog"], s.attrs["epochs"])
    out["apply.stage_s"], out["apply.merge_s"] = _med(stage), _med(merge)
    out["apply.driver_s"] = _med(driver)
    for k, v in counters.items():
        out["apply." + k] = _mean(v)
    out["apply.parts_touched"] = _mean(parts)
    out["apply.write_bytes"] = _mean(write)
    out["apply.write_amp"] = _ratio(sum(write), cl_bytes)

    # state.manifest
    out["manifest.load_ms"] = _med([s.dur * 1e3 for s in by.get("manifest.load", [])])
    n_commits = sum(1 for k in op_kind.values() if k == "op.commit")
    n_lookups = sum(1 for k in op_kind.values() if k == "op.lookup")
    out["manifest.loads_per_commit"] = _ratio(len(in_ops("manifest.load", "commit")), n_commits)
    out["manifest.loads_per_lookup"] = _ratio(len(in_ops("manifest.load", "lookup")), n_lookups)
    commits = by.get("manifest.commit", [])
    out["manifest.commit_ms"] = _med([s.dur * 1e3 for s in commits])
    out["manifest.bytes"] = _mean([
        os.path.getsize(os.path.join(s.attrs["table"], "_manifests", s.attrs["name"]))
        for s in commits if s.attrs.get("ok")])

    # core.reconcile
    out["reconcile.unify_ms"] = _med([s.dur * 1e3 for s in by.get("reconcile.unify", [])])
    reads = by.get("cdc.read_keys", [])

    def child_ms(s, name: str) -> float:
        return sum(k.dur for k in kids.get(s.id, []) if k.name == name) * 1e3

    out["reconcile.conform_ms"] = _med([child_ms(s, "reconcile.conform") for s in reads])

    # routing (engine.cdc + core.bloom), fetch, and core.merge resolution
    routes = by.get("cdc.route", [])
    out["lookup.route_ms"] = _med([s.dur * 1e3 for s in routes])
    out["lookup.files_per_call"] = _mean([s.attrs["files"] for s in routes])
    miss_ops = {s.id for s in spans if s.name == "op.lookup" and s.attrs.get("miss")}
    miss_routes = [s for s in routes if s.op in miss_ops]
    out["lookup.bloom_skip_frac"] = _ratio(
        sum(1 for s in miss_routes if s.attrs["files"] == 0), len(miss_routes))
    out["lookup.fetch_ms"] = _med([self_time(s, kids.get(s.id, [])) * 1e3 for s in reads])
    out["lookup.resolve_ms"] = _med([child_ms(s, "merge.collapse") for s in reads])
    out["table.deltas_per_part"] = _ratio(sum(s.attrs["deltas"] for s in routes),
                                          sum(s.attrs["parts"] for s in routes))

    # engine.cdc scan
    out["scan.plan_ms"] = _med([s.dur * 1e3 for s in in_ops("cdc.read_table", "scan")])
    out["scan.exec_s"] = _med([s.dur for s in by.get("scan.exec", [])])
    out["scan.rows"] = _mean([s.attrs["rows"] for s in spans
                              if s.name == "op.scan" and "rows" in s.attrs])

    # engine.maintenance
    compacts = by.get("maintenance.compact", [])
    out["compact.wall_s"] = _med([s.dur for s in compacts])
    out["compact.calls"] = float(len(compacts))
    out["compact.bytes"] = float(sum(_new_bytes(s.attrs["table"], s.attrs["epoch"],
                                                s.attrs["rev"])[1]
                                     for s in compacts if "epoch" in s.attrs))

    traced = [p["cpu"] for p in primary if p["traced"]]
    plain = [p["cpu"] for p in primary if not p["traced"]]
    out["trace.overhead_pct"] = (100.0 * (_med(traced) / _med(plain) - 1.0)
                                 if traced and plain else 0.0)
    out["trace.spans"] = float(len(spans))
    units = dict(METRICS)
    return {name: (float(out[name]), units[name]) for name, _ in METRICS}
