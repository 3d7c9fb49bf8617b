"""Benchmark of the CDC engine: one workload, one seed, one local Ray cluster.

    python3 perfbench/run.py --workload {backfill,tail} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. It generates its inputs from the seed,
times the workload for about ``--seconds`` seconds, checks every result
against a DuckDB reference, and prints a readable summary followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
engine's layers are wrapped and the metrics are the per-layer ones. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (name, unit, what) of the gated end-to-end metrics. Costs are CPU seconds
# of the driver plus the cluster's working processes (see common.ClusterCpu):
# on a shared VM they hold still while wall time swings with the neighbours.
END_TO_END = [
    ("events_per_cpu_s", "1/s", "applied events per CPU second of the apply calls"),
    ("commit_cpu_p50_s", "s", "CPU per apply call"),
    ("commit_cpu_p90_s", "s", "CPU per apply call"),
    ("lookup_cpu_p50_ms", "ms", "driver CPU per read_keys call"),
    ("lookup_cpu_p90_ms", "ms", "driver CPU per read_keys call"),
    ("scan_cpu_p50_s", "s", "CPU per bounded read_table, consumed"),
    ("table_bytes", "B", "data files the committed manifest lists"),
    ("setup_s", "s", "CPU of ray.init plus the median set-up repetition"),
    ("peak_rss_mb", "MiB", "summed peak RSS of the driver and Ray workers"),
]
# the same operations in wall-clock time, printed for reading only
WALL = [
    ("events_per_s", "1/s"), ("commit_p50_s", "s"), ("commit_p90_s", "s"),
    ("lookup_p50_ms", "ms"), ("lookup_p90_ms", "ms"), ("scan_p50_s", "s"),
    ("setup_wall_s", "s"),
]


def end_to_end(run, cluster):
    """(gated, wall): each maps name -> (value, unit, sample count)."""
    from common import median, percentile

    def stats(key: str) -> dict:
        commit = [c[key] for c in run.commits]
        lookup = [lk[key] * 1e3 for lk in run.lookups]
        scan = [s[key] for s in run.scans]
        return {
            "events": (sum(c["events"] for c in run.commits) / sum(commit), len(commit)),
            "commit_p50": (median(commit), len(commit)),
            "commit_p90": (percentile(commit, 90), len(commit)),
            "lookup_p50": (median(lookup), len(lookup)),
            "lookup_p90": (percentile(lookup, 90), len(lookup)),
            "scan_p50": (median(scan), len(scan)),
        }

    cpu, wall = stats("cpu"), stats("wall")
    n_setup = len(run.setup_rep_s)
    gated = list(cpu.values()) + [
        (float(run.table_bytes), 1),
        (cluster.init_cpu_s + median(run.setup_rep_cpu_s), n_setup),
        (run.peak_rss_mb, 1),
    ]
    wall_vals = list(wall.values()) + [(cluster.init_s + median(run.setup_rep_s), n_setup)]
    return ({name: (float(v), unit, n) for (name, unit, _), (v, n) in zip(END_TO_END, gated)},
            {name: (float(v), unit, n) for (name, unit), (v, n) in zip(WALL, wall_vals)})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    # the engine is imported from the checkout; without it this fails here,
    # before any process is started or any result printed
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)  # Ray workers import the engine from the driver's cwd
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")  # no reports sent off the host
    import gamechanger_data_ray  # noqa: F401
    import ray  # noqa: F401  (puts Ray's vendored psutil on sys.path)

    import common
    import layers
    import tracing
    import workloads
    from reference import Reference

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    base = os.path.join(ROOT, ".pbrun")
    work_dir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.instrument(tracer)
    cluster = common.Cluster(os.path.join(base, "r"))
    ref = Reference()
    try:
        cluster.start()
        run = workloads.Run(args.seed, args.seconds, bool(args.trace), work_dir, tracer,
                            cluster.cpu)
        workloads.WORKLOADS[args.workload](run, ref)
        run.set_phase("done")
        e2e, wall = end_to_end(run, cluster)
        per_layer = layers.compute(tracer, run.primary()) if args.trace else {}
    finally:
        tracer.unwrap_all()
        ref.close()
        cluster.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(base) and os.listdir(base) in ([], ["r"]):
            shutil.rmtree(base, ignore_errors=True)

    correct = run.failed == 0 and all(ok for _, ok, _ in run.checks)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ray_cpus={common.RAY_CPUS} partitions={workloads.PARTITIONS} "
          f"zipf={workloads.ZIPF} clients=1 closed_loop=1")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<26} {value:>16.6g} {unit:<6} n={n}")
    for name, (value, unit, n) in wall.items():
        print(f"  {name:<26} {value:>16.6g} {unit:<6} n={n} (wall clock, not gated)")
    for name, (value, unit) in per_layer.items():
        print(f"  {name:<26} {value:>16.6g} {unit}")
    for name, ok, detail in run.checks:
        print(f"  check {name:<26} {'ok' if ok else 'FAIL'} {detail}")
    starts = list(run.phase_start.items())
    print("  phase_s " + " ".join(f"{p}={t1 - t0:.1f}" for (p, t0), (_, t1)
                                  in zip(starts, starts[1:]))
          + f" ray_init={cluster.init_s:.1f} setup_reps="
          + ",".join(f"{x:.2f}" for x in run.setup_rep_s)
          + f" cpu_s: ray_init={cluster.init_cpu_s:.2f} setup_reps="
          + ",".join(f"{x:.2f}" for x in run.setup_rep_cpu_s))
    for note in run.notes:
        print(f"  {note}")
    metrics = per_layer if args.trace else {k: (v, u) for k, (v, u, _) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
