"""Seeded randomized lifecycle fuzz: a deterministic random walk over the
engine's replay + maintenance surface, checking after EVERY step that

- the committed payload equals the DuckDB serial fold of the changelog
  prefix applied so far (the universal-test-harness oracle,
  ``dev_tools/universal_test_harness/cli.py`` shape),
- every state-PRESERVING op (compact / cluster / restamp / vacuum /
  repartition) leaves the layout-independent content digest unchanged,
- hash-routed point lookups agree with the oracle row-for-row, and
- snapshot tags taken mid-walk stay readable and byte-stable through
  later commits, rewrites and vacuums.

The fixed-sequence stories (test_lifecycle_story / test_harness_scenario)
pin known-good walks; this test explores ORDERINGS those can't — e.g.
cluster-then-delta-replay-then-vacuum-then-compact — where fencing,
revision arithmetic and kept-set unions actually interact. Failures
reproduce exactly from the seed."""

from __future__ import annotations

import glob
import os
import random

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.core.reconcile import conform, unify_all
from gamechanger_data_ray.engine.cdc import (
    read_keys,
    read_table,
    replay,
    table_to_arrow,
)
from gamechanger_data_ray.engine.branches import (
    branch_create,
    branch_discard,
    branch_path,
    branch_publish,
    branch_rebase,
)
from gamechanger_data_ray.engine.maintenance import (
    cluster_table,
    compact,
    repartition_table,
    restamp_stats,
    table_checksums,
    tag,
    vacuum,
    validate_table,
)
from gamechanger_data_ray.engine.training_view import training_view_refresh

EPOCHS = 6
EVENTS = 220
KEYS = 110
P = 4


def oracle_upto(changelog_dir: str, epoch: int) -> pa.Table:
    files = [
        f
        for f in sorted(glob.glob(os.path.join(changelog_dir, "epoch=*", "*.parquet")))
        if int(f.split("epoch=")[1][:6]) <= epoch
    ]
    uni = unify_all([pq.read_schema(f) for f in files])
    ev = pa.concat_tables([conform(pq.read_table(f), uni) for f in files])
    con = duckdb.connect()
    con.register("ev", ev)
    cols = "doc_id, tokens, n_tok, source" + (", lang" if "lang" in uni.names else "")
    return con.sql(
        f"""SELECT {cols} FROM (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                        ORDER BY lsn DESC, seq DESC) rn FROM ev)
            WHERE rn = 1 AND op <> 'D' ORDER BY doc_id"""
    ).arrow()


def payload(t: pa.Table, names) -> pa.Table:
    return t.select([c for c in ("doc_id", "tokens", "n_tok", "source", "lang")
                     if c in names])


def asof_payload(table_dir: str, name: str, names) -> pa.Table:
    ds = read_table(table_dir, epoch=name)
    t = pa.concat_tables(
        [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    )
    t = payload(t, names)
    return t.take(pa.compute.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


_SEEDS = [5, 7, 23] + [
    int(s) for s in os.environ.get("GRAFT_FUZZ_SEEDS", "").split(",") if s
]


@pytest.mark.parametrize("seed", _SEEDS)
def test_lifecycle_fuzz(tmp_path, seed):
    rng = random.Random(seed)
    cd = str(tmp_path / "cl")
    tb = str(tmp_path / "t0")
    write_changelog(cd, num_epochs=EPOCHS, events_per_epoch=EVENTS,
                    num_keys=KEYS, evolution=True, zipf_a=1.4, seed=seed)

    applied = 0
    tags: dict[str, pa.Table] = {}  # name -> expected payload at tag time
    repart_gen = 0
    trace: list[str] = []

    def check_state() -> pa.Table:
        oracle = oracle_upto(cd, applied)
        mine = payload(table_to_arrow(tb), oracle.schema.names)
        assert mine.cast(oracle.schema).equals(oracle), (
            f"seed={seed} diverged after {trace}"
        )
        return oracle

    def check_lookups(oracle: pa.Table) -> None:
        ids = oracle["doc_id"].to_pylist()
        if not ids:
            return
        probe = sorted(rng.sample(ids, min(3, len(ids))))
        got = read_keys(tb, probe)
        want = oracle.filter(pa.compute.is_in(oracle["doc_id"], pa.array(probe)))
        assert payload(got, oracle.schema.names).cast(want.schema).equals(want), (
            f"seed={seed} point lookup diverged after {trace}"
        )

    # first epoch always lands so maintenance ops have a committed table
    replay(cd, tb, num_partitions=P, up_to_epoch=1)
    applied = 1
    trace.append("epoch1")
    check_state()

    maintenance = ["compact", "cluster", "restamp", "vacuum", "repartition",
                   "tag", "branch", "tview"]
    branch_gen = 0
    tview_gen = 0
    tview_dir = str(tmp_path / "tview")

    def check_tview() -> None:
        """The MAINTAINED training view refreshed at this arbitrary point
        in the walk must equal a FRESH build of the same committed state,
        file-name- and byte-identical — the incremental path can never
        drift from the from-scratch one, whatever replay/compact/cluster/
        vacuum/repartition history preceded it."""
        import hashlib

        nonlocal tview_gen
        tview_gen += 1
        m = training_view_refresh(tview_dir, tb, cap=48, seed=9)
        fresh_dir = str(tmp_path / f"tview_fresh{tview_gen}")
        f = training_view_refresh(fresh_dir, tb, cap=48, seed=9)

        def digests(root, marker):
            return {
                p: hashlib.sha1(
                    open(os.path.join(root, b["file"]), "rb").read()
                ).hexdigest()
                for p, b in marker["buckets"].items() if b.get("file")
            }

        assert {p: b["file"] for p, b in m["buckets"].items()} == \
               {p: b["file"] for p, b in f["buckets"].items()}, (
            f"seed={seed} training view layout drifted after {trace}")
        assert digests(tview_dir, m) == digests(fresh_dir, f), (
            f"seed={seed} training view bytes drifted after {trace}")
        oracle = oracle_upto(cd, applied)
        want = sum(len(t) for t in oracle["tokens"].to_pylist() if t is not None)
        assert m["total_tokens"] == want, (
            f"seed={seed} training view lost tokens after {trace}")
    while applied < EPOCHS:
        op = rng.choice(maintenance + ["epoch", "epoch", "epoch"])
        trace.append(op)
        if op == "epoch":
            policy = rng.choice(["rewrite", "delta"])
            trace[-1] = f"epoch{applied + 1}:{policy}"
            replay(cd, tb, num_partitions=P, up_to_epoch=applied + 1,
                   merge_policy=policy)
            applied += 1
            check_lookups(check_state())
            continue
        if op == "branch":
            # one WAP episode: fork, stage the next epoch in isolation,
            # then publish it / discard it / prove the non-FF fence when
            # the parent revs underneath. Parent state must be bit-stable
            # through every path except publish.
            branch_gen += 1
            name = f"b{branch_gen}"
            policy = rng.choice(["rewrite", "delta"])
            action = rng.choice(["publish", "discard", "race", "rebase"])
            trace[-1] = f"branch:{policy}:{action}"
            before = table_checksums(tb)
            branch_create(tb, name)
            replay(cd, branch_path(tb, name), num_partitions=P,
                   up_to_epoch=applied + 1, merge_policy=policy)
            assert table_checksums(tb)["digest"] == before["digest"], (
                f"seed={seed} staging leaked into the parent after {trace}"
            )
            if action == "publish":
                branch_publish(tb, name)
                applied += 1
            elif action == "discard":
                branch_discard(tb, name)
            elif action == "rebase":
                # parent revs underneath; rebase re-applies the staged
                # epoch onto the new base, publish must then land and the
                # result must still equal the serial fold of the prefix
                restamp_stats(tb)
                r = branch_rebase(tb, name)
                assert r["rebased"], f"seed={seed} rebase refused {trace}"
                branch_publish(tb, name)
                applied += 1
            else:
                restamp_stats(tb)  # rev bump: the audit base moved
                with pytest.raises(RuntimeError, match="non-fast-forward"):
                    branch_publish(tb, name)
                branch_discard(tb, name)
            if action in ("discard", "race"):
                after = table_checksums(tb)
                assert after["digest"] == before["digest"], (
                    f"seed={seed} closed branch changed the parent {trace}"
                )
            check_lookups(check_state())
            continue
        if op == "tview":
            check_tview()
            continue
        if op == "tag":
            name = f"s{len(tags)}"
            tag(tb, name)
            tags[name] = check_state()
            continue
        before = table_checksums(tb)
        if op == "compact":
            compact(tb)
        elif op == "cluster":
            cluster_table(tb, by="n_tok", row_group_rows=64)
        elif op == "restamp":
            restamp_stats(tb)
        elif op == "vacuum":
            vacuum(tb, keep_epochs=rng.choice([1, 2]))
        elif op == "repartition":
            repart_gen += 1
            new_dir = str(tmp_path / f"t{repart_gen}")
            # tags live with the table dir; verify them against the old
            # dir one last time, then start fresh in the new one
            for name, want in tags.items():
                got = asof_payload(tb, name, want.schema.names)
                assert got.cast(want.schema).equals(want), (
                    f"seed={seed} tag {name} drifted before repartition {trace}"
                )
            repartition_table(tb, new_dir, new_partitions=rng.choice([3, 5, 8]))
            tb = new_dir
            tags = {}
        after = table_checksums(tb)
        assert after["digest"] == before["digest"] and after["rows"] == before["rows"], (
            f"seed={seed} state-preserving op changed the digest after {trace}"
        )
        check_lookups(check_state())

    # converged: full oracle, validator clean, tags still byte-stable,
    # and the maintained training view lands on the final state too
    oracle = check_state()
    check_lookups(oracle)
    check_tview()
    assert validate_table(tb)["violations"] == {}, f"seed={seed} after {trace}"
    for name, want in tags.items():
        got = asof_payload(tb, name, want.schema.names)
        assert got.cast(want.schema).equals(want), (
            f"seed={seed} tag {name} drifted after {trace}"
        )
    # final retention sweep must keep every tagged snapshot readable
    vacuum(tb, keep_epochs=1)
    check_state()
    for name, want in tags.items():
        read_table(tb, epoch=name)  # raises if a pinned file was swept
