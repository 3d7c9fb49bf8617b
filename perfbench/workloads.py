"""The benchmark's workloads, driven through the engine's public API from
one closed-loop client in the driver process. Each has a write half and a
read half, so every workload reports every end-to-end metric:

- ``backfill`` times catch-up ``replay()`` commits into copy-on-write
  tables, then read-only lookups and scans on the finished table.
- ``tail`` times ``tail()`` commits of small merge-on-read epochs, with
  lookups after each commit and scans twice per compaction cycle.

Each set-up is repeated :data:`SETUP_REPS` times in the run (fresh inputs
and tables each time) and ``setup_s`` is the median repetition plus the
one ``ray.init``. In a traced run the tracer is on for every other step of
the timed work, so that the run measures its own overhead against the
untraced steps between them.
"""

from __future__ import annotations

import os
import sys
import time
import traceback

import numpy as np
import pyarrow as pa

from gamechanger_data_ray.core.changelog import READY_MARKER, epoch_dir, write_changelog
from gamechanger_data_ray.engine import cdc

import common
from reference import Reference

PARTITIONS = 16
ZIPF = 1.3
DUP_FRAC = 0.02
KEYS = 50_000
SETUP_REPS = 5  # the first two still warm up Ray workers; the median is warm
LOOKUP_BATCH = 8
# lookups run in groups of four batches: three hits, then one miss. Half
# and half would put the median on the edge between the slow hit mode and
# the fast Bloom-pruned miss mode, where it jumps from run to run.
MISS_PATTERN = (False, False, False, True)

BACKFILL_EPOCHS, BACKFILL_EVENTS, BACKFILL_PER_COMMIT = 6, 15_000, 2
BACKFILL_MIN_REPLAYS = 2
BACKFILL_WRITE_SHARE = 0.55  # of --seconds; reads on the finished table get the rest
LOOKUPS_PER_SCAN = 8

TAIL_BASE_EPOCHS, TAIL_BASE_EVENTS = 3, 5_000
TAIL_EVENTS, TAIL_MAX_EPOCHS = 1_000, 45
TAIL_AUTO_COMPACT = 2
TAIL_CYCLE = TAIL_AUTO_COMPACT + 1  # every partition takes a delta per commit
TAIL_MIN_COMMITS = 2 * TAIL_CYCLE
TAIL_BYTES_AT = TAIL_CYCLE + 2  # two deltas deep into the second cycle
TAIL_LOOKUPS_PER_COMMIT = 8
TAIL_SCANS_AT = (1, 2)  # positions in a cycle whose commit is followed by a scan

WARMUP_EVENTS = 2_000


def generate(out: str, epochs: int, events: int, seed: int) -> dict[int, int]:
    """Seeded changelog of ``epochs`` epochs; returns events per epoch.
    Four files per epoch so that staging runs one task per file on both
    Ray CPUs."""
    rows = events + max(1, int(events * DUP_FRAC))
    write_changelog(out, num_epochs=epochs, events_per_epoch=events, num_keys=KEYS,
                    seed=seed, zipf_a=ZIPF, evolution=True, dup_frac=DUP_FRAC,
                    rows_per_file=-(-rows // 4))
    return {e: _marker_events(out, e) for e in range(1, epochs + 1)}


def _marker_events(changelog: str, epoch: int) -> int:
    import json

    with open(os.path.join(epoch_dir(changelog, epoch), READY_MARKER)) as f:
        return int(json.load(f)["events"])


class Run:
    """State of one benchmark run: inputs, timings, results kept for the
    reference check, and the attempted/failed operation counts."""

    def __init__(self, seed: int, seconds: float, trace: bool, work_dir: str, tracer,
                 cpu: common.ClusterCpu):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.work_dir = work_dir
        self.tracer = tracer
        self.cpu = cpu
        self.peak_rss_mb = 0.0  # read when the timed work is over
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        self.phase = "setup"
        self.commits: list[dict] = []
        self.lookups: list[dict] = []
        self.scans: list[dict] = []
        self.setup_rep_s: list[float] = []
        self.setup_rep_cpu_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.notes: list[str] = []
        self.table_bytes = 0
        self._step = 0
        self.phase_start = {"setup": time.perf_counter()}

    # -- tracing -----------------------------------------------------------
    def step(self) -> None:
        """Start the next timed-loop step: odd steps of a traced run are
        traced, even steps are not."""
        self._step += 1
        self.tracer.enabled = self.trace and self._step % 2 == 1

    def set_phase(self, phase: str) -> None:
        """Enter a phase; tracing stays off until a timed step turns it on."""
        self.phase = phase
        self.phase_start[phase] = time.perf_counter()
        self.tracer.enabled = False
        if phase == "verify":
            self.peak_rss_mb = common.peak_rss_mb()

    def primary(self) -> list[dict]:
        """The timed commits, whose traced and untraced CPU costs give the
        tracing overhead."""
        return [c for c in self.commits if c["phase"] == "loop"]

    # -- operations ----------------------------------------------------------
    def _op(self, kind: str, fn, driver_only: bool = False, **attrs):
        """Run one operation under an op span; returns (ok, timing, result,
        span). ``timing`` has the wall and CPU seconds of the call; the CPU
        is the driver's alone for operations that start no Ray tasks."""
        self.attempted += 1
        span = self.tracer.begin("op." + kind, **attrs)
        c0 = time.process_time() if driver_only else self.cpu.snapshot()
        t0 = time.perf_counter()
        try:
            out, ok = fn(), True
        except Exception:  # an operation that fails is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out, ok = None, False
            self.failed += 1
        wall = time.perf_counter() - t0
        cpu = (time.process_time() - c0 if driver_only
               else common.ClusterCpu.since(c0, self.cpu.snapshot()))
        self.tracer.end(span)
        return ok, {"wall": wall, "cpu": cpu, "phase": self.phase,
                    "traced": span is not None}, out, span

    def commit(self, fn, table: str, epoch: int, events: int) -> None:
        """One apply call that must leave ``table`` committed at ``epoch``."""
        ok, timing, _, _ = self._op("commit", fn)
        if ok and common.read_committed(table)["epoch"] != epoch:
            print(f"{table}: not committed at epoch {epoch}", file=sys.stderr)
            ok = False
            self.failed += 1
        if ok:
            self.commits.append({**timing, "events": events})

    def lookup(self, table: str, changelog: str, asof: int, miss: bool) -> None:
        if miss:
            # in the key range but never generated: zone maps keep the
            # partition, so only a Bloom sidecar can prove it absent
            ids = self.rng.integers(0, KEYS, LOOKUP_BATCH)
            keys = [f"doc-{k:08d}x" for k in ids]
        else:
            ids = (self.rng.zipf(ZIPF, LOOKUP_BATCH) - 1) % KEYS
            keys = [f"doc-{k:08d}" for k in ids]
        ok, timing, got, _ = self._op("lookup", lambda: cdc.read_keys(table, keys),
                                      driver_only=True, miss=miss)
        if ok:
            self.lookups.append({**timing, "changelog": changelog, "asof": asof,
                                 "keys": keys, "got": got, "miss": miss})

    def scan(self, table: str, changelog: str, asof: int) -> None:
        lo = int(self.rng.integers(30, 110))
        hi = lo + 10

        def call():
            ds = cdc.read_table(table, bounds={"n_tok": (lo, hi)})
            run = self.tracer.begin("scan.exec")
            try:
                return sum(b.num_rows for b in
                           ds.iter_batches(batch_size=None, batch_format="pyarrow"))
            finally:
                self.tracer.end(run)

        ok, timing, rows, span = self._op("scan", call)
        if span is not None and ok:
            span.attrs["rows"] = rows
        if ok:
            self.scans.append({**timing, "changelog": changelog, "asof": asof,
                               "lo": lo, "hi": hi, "rows": rows})

    # -- set-up ----------------------------------------------------------------
    def setup(self, rep_fn):
        """Run ``rep_fn(rep_dir)`` SETUP_REPS times in fresh dirs,
        untraced; returns the first repetition's result, which the timed
        work uses."""
        first = None
        for rep in range(SETUP_REPS):
            rep_dir = os.path.join(self.work_dir, f"rep{rep}")
            c0 = self.cpu.snapshot()
            t0 = time.perf_counter()
            out = rep_fn(rep_dir)
            self.setup_rep_s.append(time.perf_counter() - t0)
            self.setup_rep_cpu_s.append(common.ClusterCpu.since(c0, self.cpu.snapshot()))
            if rep == 0:
                first = out
        return first

    def warm_up(self, rep_dir: str) -> None:
        """A small untimed replay and lookup: the first Dataset execution of
        a process pays for worker start-up and imports."""
        cl = os.path.join(rep_dir, "warm_cl")
        tb = os.path.join(rep_dir, "warm_table")
        generate(cl, 1, WARMUP_EVENTS, self.seed + 1_000_003)
        cdc.replay(cl, tb, num_partitions=PARTITIONS)
        cdc.read_keys(tb, ["doc-00000000"])

    # -- checks --------------------------------------------------------------
    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append((name, ok, detail))

    def check_table(self, ref: Reference, table: str, changelog: str,
                    events: dict[int, int]) -> None:
        """Final table equals the reference; lineage counters conserved."""
        import ray

        man = common.read_committed(table)
        asof = man["epoch"]
        ds = cdc.read_table(table, columns=["doc_id", "n_tok", "tokens"])
        got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        diff = ref.table_diff(changelog, asof, got)
        self.check("table_equals_duckdb_lww", diff == 0,
                   f"rows={got.num_rows} differing={diff}")
        want_events = sum(n for e, n in events.items() if e <= asof)
        got_events = int(man["totals"]["events_in"])
        self.check("lineage_events_in", got_events == want_events,
                   f"events_in={got_events} generated={want_events}")
        want_rows = ref.rows(changelog, asof)
        got_rows = int(man["totals"]["rows"])
        self.check("lineage_rows", got_rows == want_rows,
                   f"manifest_rows={got_rows} reference_rows={want_rows}")

    def check_reads(self, ref: Reference) -> None:
        """Every lookup and scan result equals the reference."""
        for name, ops, fn in (("lookups", self.lookups, ref.bad_lookups),
                              ("scans", self.scans, ref.bad_scans)):
            bad = 0
            for changelog in sorted({o["changelog"] for o in ops}):
                bad += len(fn(changelog, [o for o in ops if o["changelog"] == changelog]))
            self.failed += bad
            self.checks.append((f"{name}_equal_duckdb", bad == 0, f"n={len(ops)} bad={bad}"))

    def check_digests(self, what: str, digests: list[str]) -> None:
        self.check(f"digest_{what}", len(set(digests)) == 1,
                   f"n={len(digests)} sha256={digests[0]}")


def _past_end(unit_start: float, t_end: float) -> bool:
    """Whether to stop before another unit of work (a replay, a compaction
    cycle) as long as the one that started at ``unit_start``: stop at the
    unit boundary nearest to ``t_end``, so a run's length stays close to
    ``--seconds`` and every run measures whole units."""
    now = time.perf_counter()
    return now + (now - unit_start) / 2 >= t_end


# ---------------------------------------------------------------------------
def backfill(run: Run, ref: Reference) -> None:
    """Catch-up replay of a backlog into a fresh copy-on-write table, two
    epochs per commit, repeated for the first BACKFILL_WRITE_SHARE of the
    time (at least twice); then read-only lookups of 8 keys (three hit
    batches to one miss batch) with a bounded scan after every 8 lookups,
    on the last replay's table, for the rest of the time."""
    def rep(rep_dir):
        cl = os.path.join(rep_dir, "cl")
        events = generate(cl, BACKFILL_EPOCHS, BACKFILL_EVENTS, run.seed)
        run.warm_up(rep_dir)
        return cl, events

    cl, events = run.setup(rep)
    bounds = list(range(BACKFILL_PER_COMMIT, BACKFILL_EPOCHS + 1, BACKFILL_PER_COMMIT))
    run.set_phase("loop")
    digests, tables = [], []
    t0 = time.perf_counter()
    t_write_end = t0 + BACKFILL_WRITE_SHARE * run.seconds
    while True:
        replay_start = time.perf_counter()
        tb = os.path.join(run.work_dir, f"table{len(tables)}")
        lo = 0
        for up in bounds:
            run.step()
            n = sum(events[e] for e in range(lo + 1, up + 1))
            run.commit(lambda: cdc.replay(cl, tb, num_partitions=PARTITIONS, up_to_epoch=up),
                       tb, up, n)
            lo = up
        tables.append(tb)
        digests.append(common.table_digest(tb))
        if len(tables) >= BACKFILL_MIN_REPLAYS and _past_end(replay_start, t_write_end):
            break
    tb = tables[-1]
    run.table_bytes = common.table_bytes(tb)
    run.set_phase("reads")
    t_end = t0 + run.seconds
    i = 0
    while time.perf_counter() < t_end or i < LOOKUPS_PER_SCAN:
        run.step()
        run.lookup(tb, cl, BACKFILL_EPOCHS, MISS_PATTERN[i % len(MISS_PATTERN)])
        i += 1
        if i % LOOKUPS_PER_SCAN == 0:
            run.step()
            run.scan(tb, cl, BACKFILL_EPOCHS)
    run.set_phase("verify")
    run.check_digests("replays", digests)
    run.check_table(ref, tb, cl, events)
    run.check_reads(ref)


def tail(run: Run, ref: Reference) -> None:
    """Merge-on-read live tail: each pre-generated 1k-event epoch is
    published into the tailed changelog by one atomic directory rename and
    applied by one ``tail()`` call; lookups follow every commit."""
    def rep(rep_dir):
        cl = os.path.join(rep_dir, "cl")
        src = os.path.join(rep_dir, "pending")
        events = generate(cl, TAIL_BASE_EPOCHS, TAIL_BASE_EVENTS, run.seed)
        events.update({e: n for e, n in generate(
            src, TAIL_BASE_EPOCHS + TAIL_MAX_EPOCHS, TAIL_EVENTS, run.seed + 1).items()
            if e > TAIL_BASE_EPOCHS})
        # the untimed copy-on-write base replay and a lookup on it are
        # this workload's warm-up
        tb = os.path.join(rep_dir, "table")
        cdc.replay(cl, tb, num_partitions=PARTITIONS)
        cdc.read_keys(tb, ["doc-00000000"])
        return cl, src, tb, events

    cl, src, tb, events = run.setup(rep)
    base_digests = [common.table_digest(os.path.join(run.work_dir, f"rep{r}", "table"))
                    for r in range(SETUP_REPS)]
    run.set_phase("loop")
    t_end = time.perf_counter() + run.seconds
    k, cycle_start = 0, time.perf_counter()
    while k < TAIL_MAX_EPOCHS:
        if k % TAIL_CYCLE == 0 and k:
            if k >= TAIL_MIN_COMMITS and _past_end(cycle_start, t_end):
                break
            cycle_start = time.perf_counter()
        run.step()
        e = TAIL_BASE_EPOCHS + k + 1
        os.rename(epoch_dir(src, e), epoch_dir(cl, e))
        run.commit(lambda: cdc.tail(cl, tb, num_partitions=PARTITIONS, poll_interval=0.0,
                                    idle_polls=1, max_epochs=1, merge_policy="delta",
                                    auto_compact=TAIL_AUTO_COMPACT), tb, e, events[e])
        k += 1
        for j in range(TAIL_LOOKUPS_PER_COMMIT):
            run.lookup(tb, cl, e, MISS_PATTERN[j % len(MISS_PATTERN)])
        if k % TAIL_CYCLE in TAIL_SCANS_AT:
            run.scan(tb, cl, e)
        if k == TAIL_BYTES_AT:
            run.table_bytes = common.table_bytes(tb)
            run.notes.append(f"digest table@commit{k} sha256={common.table_digest(tb)}")
    run.set_phase("verify")
    run.check_digests("base_tables", base_digests)
    applied = {e: n for e, n in events.items() if os.path.isdir(epoch_dir(cl, e))}
    run.check_table(ref, tb, cl, applied)
    run.check_reads(ref)


WORKLOADS = {"backfill": backfill, "tail": tail}
