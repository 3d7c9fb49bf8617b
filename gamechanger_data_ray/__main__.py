"""CLI driver — the ``ray job submit`` entry surface.

Reference parity: the ``gci pipelines core ingest ...`` click CLI
(``dataPipelines/gc_ingest/cli.py:6-13``, ``pipelines/core/cli.py``) and
the cron-style job wrappers (``paasJobs/job_runner.sh``). Subcommands:

    python -m gamechanger_data_ray generate  --out DIR [--epochs N] [--events N] ...
    python -m gamechanger_data_ray replay    --changelog DIR --table DIR [--partitions P]
    python -m gamechanger_data_ray sweep     --table DIR --alive CSV --epoch E
    python -m gamechanger_data_ray status    --table DIR
    python -m gamechanger_data_ray export    --table DIR --bundle DIR
    python -m gamechanger_data_ray import    --bundle DIR --table DIR
    python -m gamechanger_data_ray diff      --table DIR --from-epoch A [--to-epoch B]
    python -m gamechanger_data_ray view      --table DIR --view DIR --group-by COLS [--sum OUT=SRC]

Starts a Ray session (honouring ``--num-cpus``) when the caller has none
and shuts down only a session it started, so an in-process caller keeps
its own; the library never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_init(num_cpus: int | None) -> bool:
    """Start a Ray session unless the caller already runs one; True if
    this call started it (and so owns its shutdown)."""
    import ray

    started = not ray.is_initialized()
    if started:
        kwargs = dict(
            address="local", include_dashboard=False, ignore_reinit_error=True,
            logging_level="ERROR",
        )
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return started


def _epoch_arg(table_dir: str, v):
    """Epoch selector: an int, a numeric string, or a snapshot tag name."""
    if v is None or isinstance(v, int):
        return v
    try:
        return int(v)
    except ValueError:
        from gamechanger_data_ray.engine.maintenance import resolve_tag

        return resolve_tag(table_dir, v)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="gamechanger_data_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="write a deterministic synthetic changelog")
    g.add_argument("--out", required=True)
    g.add_argument("--epochs", type=int, default=4)
    g.add_argument("--events", type=int, default=100_000, help="events per epoch")
    g.add_argument("--keys", type=int, default=10_000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--zipf", type=float, default=0.0)
    g.add_argument("--evolution", action="store_true")
    g.add_argument("--partial-frac", type=float, default=0.0,
                   help="fraction of U rows emitted as PARTIAL images "
                        "(tokens+n_tok or source nulled) — pair with "
                        "replay --update-mode coalesce")

    r = sub.add_parser("replay", help="tail-and-apply all ready epochs to the table")
    r.add_argument("--changelog", required=True, action="append",
                   help="changelog dir; repeat for a multi-source union replay")
    r.add_argument("--table", required=True)
    r.add_argument("--partitions", type=int, default=32)
    r.add_argument("--epochs-per-commit", type=int, default=None)
    r.add_argument("--merge-policy", choices=["rewrite", "delta"], default="rewrite",
                   help="rewrite = copy-on-write partition files; delta = "
                        "merge-on-read epoch deltas (fold with `compact`)")
    r.add_argument("--rename", action="append", default=[], metavar="OLD=NEW",
                   help="source-boundary column rename (schema evolution); "
                        "repeatable; epochs carrying either name conform")
    r.add_argument("--update-mode", choices=["replace", "coalesce"], default="replace",
                   help="replace = whole-row LWW; coalesce = column-level "
                        "partial updates (null cells leave columns untouched)")
    r.add_argument("--branch", default=None,
                   help="apply onto this OPEN branch of --table instead of "
                        "the live table (write-audit-publish staging)")

    br = sub.add_parser("branch", help="write-audit-publish: fork the committed "
                        "state onto a branch (zero copy), stage epochs there, "
                        "audit, then publish-branch or --discard")
    br.add_argument("--table", required=True)
    brg = br.add_mutually_exclusive_group(required=True)
    brg.add_argument("--create", metavar="NAME")
    brg.add_argument("--list", action="store_true")
    brg.add_argument("--discard", metavar="NAME")

    pb = sub.add_parser("publish-branch", help="fenced fast-forward: the parent "
                        "atomically adopts the branch's audited epochs "
                        "(refuses if the parent moved since the fork)")
    pb.add_argument("--table", required=True)
    pb.add_argument("--name", required=True)
    pb.add_argument("--require-clean", action="store_true",
                    help="run validate_table on the staged state first; "
                         "refuse to publish if it reports violations")
    pb.add_argument("--audit-schema", default=None,
                    help="declarative output-contract audit: path to a "
                         "JSON schema spec (or the builtin name 'tokens') "
                         "the staged payload rows must satisfy — one "
                         "violation refuses the publish")

    rb = sub.add_parser("rebase-branch", help="non-fast-forward recovery: "
                        "re-fork from the parent's new head and re-apply the "
                        "branch's net change as one epoch (conflicts resolve "
                        "by LWW on true lineage)")
    rb.add_argument("--table", required=True)
    rb.add_argument("--name", required=True)

    bdf = sub.add_parser("branch-diff", help="what WOULD this publish change: "
                         "I/U/D rows from the parent's current state to the "
                         "branch head (audit before publish-branch)")
    bdf.add_argument("--table", required=True)
    bdf.add_argument("--name", required=True)
    bdf.add_argument("--mode", choices=["events", "retractions"], default="events")
    bdf.add_argument("--out", default=None,
                     help="write change rows as parquet here "
                          "(default: print summary counts only)")

    bs = sub.add_parser("bootstrap", help="initial consistent-snapshot load: parquet "
                        "snapshot -> epoch-0 table; tail the changelog from epoch 1")
    bs.add_argument("--from", dest="snapshot", required=True,
                    help="snapshot parquet file/dir/prefix")
    bs.add_argument("--table", required=True)
    bs.add_argument("--partitions", type=int, default=32)
    bs.add_argument("--key", default="doc_id",
                    help="snapshot key column (renamed to doc_id)")
    bs.add_argument("--merge-policy", choices=["rewrite", "delta"], default="rewrite")
    bs.add_argument("--update-mode", choices=["replace", "coalesce"], default="replace",
                    help="set coalesce if the changelog you will tail carries "
                         "partial images (the mode is pinned at genesis)")

    tl = sub.add_parser("tail", help="live-tail loop: poll for ready epochs, apply, repeat")
    tl.add_argument("--changelog", required=True)
    tl.add_argument("--table", required=True)
    tl.add_argument("--partitions", type=int, default=32)
    tl.add_argument("--poll-interval", type=float, default=5.0)
    tl.add_argument("--idle-polls", type=int, default=3)
    tl.add_argument("--merge-policy", choices=["rewrite", "delta"], default="rewrite")
    tl.add_argument("--auto-compact", type=int, default=None,
                    help="with --merge-policy delta: fold deltas whenever a "
                         "partition stacks more than N of them")
    tl.add_argument("--rename", action="append", default=[], metavar="OLD=NEW",
                    help="source-boundary column rename (schema evolution); repeatable")
    tl.add_argument("--update-mode", choices=["replace", "coalesce"], default="replace")

    s = sub.add_parser("sweep", help="revocation sweep from an alive-pairs CSV")
    s.add_argument("--table", required=True)
    s.add_argument("--alive", required=True, help="CSV with source,doc_id columns")
    s.add_argument("--epoch", type=int, required=True)
    s.add_argument("--partitions", type=int, default=32)

    dw = sub.add_parser("delete-where", help="CDC-native bulk predicate delete: "
                        "matching rows become D events in one fenced epoch "
                        "(zone-map pruned scan; subscribers retract)")
    dw.add_argument("--table", required=True)
    dw.add_argument("--bounds", action="append", default=[], metavar="COL:LO:HI",
                    help="closed interval on a payload column; repeatable "
                         "(ANDed); empty side = unbounded")
    dw.add_argument("--key-column", default="doc_id")
    dw.add_argument("--partitions", type=int, default=None)

    st = sub.add_parser("status", help="print the committed manifest summary")
    st.add_argument("--table", required=True)
    st.add_argument("--partitions", action="store_true",
                    help="include per-partition rows/watermark/key-range/deltas")

    gt = sub.add_parser("get", help="hash-routed point lookup of doc_ids "
                                    "(reads only the routed partitions)")
    gt.add_argument("--table", required=True)
    gt.add_argument("--at", default=None, metavar="EPOCH_OR_TAG",
                    help="time-travel lookup against a retained epoch or tag")
    gt.add_argument("keys", nargs="+", help="doc_id values to fetch")

    tg = sub.add_parser("tag", help="named snapshot tags: pin a retained epoch "
                        "through vacuum (Iceberg-style release tags)")
    tg.add_argument("--table", required=True)
    tg.add_argument("--set", metavar="NAME", default=None,
                    help="create/move NAME (at --epoch, default: committed)")
    tg.add_argument("--epoch", type=int, default=None)
    tg.add_argument("--delete", metavar="NAME", default=None)

    rt = sub.add_parser("restamp-stats", help="recompute exact payload zone maps "
                        "(manifest-only revision; repairs/backfills/tightens col_stats)")
    rt.add_argument("--table", required=True)

    dc = sub.add_parser("drop-column", help="schema evolution DROP: remove a payload "
                        "column from the live schema (manifest-only lazy drop; "
                        "tombstone blocks resurrection until retire-dropped)")
    dc.add_argument("--table", required=True)
    dc.add_argument("--column", required=True)

    rd = sub.add_parser("retire-dropped", help="clear drop tombstones once no "
                        "current file still carries the column (footer scan)")
    rd.add_argument("--table", required=True)
    rd.add_argument("--column", default=None,
                    help="one tombstone (default: check all)")

    te = sub.add_parser("export-training", help="export the committed token table "
                        "as packed fixed-length training chunks")
    te.add_argument("--table", required=True)
    te.add_argument("--out", required=True)
    te.add_argument("--cap", type=int, default=2048,
                    help="tokens per training chunk")
    te.add_argument("--at", default=None, metavar="EPOCH_OR_TAG",
                    help="export as of a retained epoch or snapshot tag")
    te.add_argument("--shuffle-seed", type=int, default=None,
                    help="deterministic seeded global document shuffle "
                         "before packing (same seed = byte-identical)")

    tv = sub.add_parser("training-view", help="create-or-refresh the MAINTAINED "
                        "training view: bucket-local packed chunks that follow "
                        "the table at O(changed partitions) per refresh")
    tv.add_argument("--table", required=True)
    tv.add_argument("--out", required=True, help="view dir (holds _TRAINING.json)")
    tv.add_argument("--cap", type=int, default=2048,
                    help="tokens per training chunk")
    tv.add_argument("--seed", type=int, default=0,
                    help="within-bucket document shuffle seed")
    tv.add_argument("--mixture", default=None,
                    help='JSON per-source keep probabilities, e.g. '
                         '\'{"web":0.4}\' (unlisted sources keep 1.0; '
                         "part of the view's identity)")

    dr = sub.add_parser("drift", help="distribution drift report between two "
                        "committed epochs (per-column PSI + histograms)")
    dr.add_argument("--table", required=True)
    dr.add_argument("--from-epoch", required=True,
                    help="epoch number or snapshot tag name")
    dr.add_argument("--to-epoch", default=None,
                    help="epoch number or tag (default: the current epoch)")
    dr.add_argument("--column", action="append", default=None,
                    help="profile only these columns (default: all scalar payload)")

    sc = sub.add_parser("scan", help="bounded snapshot scan: zone-map partition "
                        "skipping + predicate pushdown, streamed to parquet")
    sc.add_argument("--table", required=True)
    sc.add_argument("--bounds", action="append", default=[], metavar="COL:LO:HI",
                    help="closed interval on a scalar payload column; empty "
                         "side = unbounded (e.g. n_tok:1024: ); repeatable")
    sc.add_argument("--columns", nargs="*", default=None)
    sc.add_argument("--at", default=None, metavar="EPOCH_OR_TAG",
                    help="scan as of a retained epoch or snapshot tag")
    sc.add_argument("--out", default=None,
                    help="output parquet dir (omit to just count)")

    rs = sub.add_parser("restore", help="point-in-time rollback to an older epoch")
    rs.add_argument("--table", required=True)
    rs.add_argument("--epoch", required=True,
                    help="epoch number or snapshot tag name")

    va = sub.add_parser("validate", help="distributed schema+invariant validation of the snapshot")
    va.add_argument("--table", required=True)

    rp = sub.add_parser("repair", help="anti-entropy repair: converge diverged "
                                       "partitions to a healthy replica's content "
                                       "(digest-diff, per-partition rewrite, fenced)")
    rp.add_argument("--table", required=True, help="table to repair IN PLACE")
    rp.add_argument("--from-replica", required=True, dest="from_replica",
                    help="healthy replica dir (source of truth)")

    ck = sub.add_parser("checksum", help="anti-entropy content digest (order- and "
                                         "partitioning-independent; optionally compare two tables)")
    ck.add_argument("--table", required=True)
    ck.add_argument("--against", default=None,
                    help="second table dir: report per-table digests + equal flag")
    ck.add_argument("--at", default=None, metavar="EPOCH_OR_TAG",
                    help="digest --table as of a retained epoch or tag")
    ck.add_argument("--against-at", default=None, metavar="EPOCH_OR_TAG",
                    help="digest --against as of a retained epoch or tag")
    ck.add_argument("--partitions", action="store_true",
                    help="include per-partition digests in the output")

    cp = sub.add_parser("compact", help="fold merge-on-read deltas into base files "
                                        "(same-epoch revision commit)")
    cp.add_argument("--table", required=True)
    cp.add_argument("--min-deltas", type=int, default=1)

    cl = sub.add_parser("cluster", help="sort-cluster partitions by payload column(s) "
                                        "so pushed predicates skip row groups "
                                        "(same-epoch revision commit)")
    cl.add_argument("--table", required=True)
    cl.add_argument("--by", required=True,
                    help="comma-separated payload column(s), e.g. 'source,n_tok'")
    cl.add_argument("--row-group-rows", type=int, default=4096)
    cl.add_argument("--zorder", action="store_true",
                    help="interleaved-bit Morton order over 2-4 columns "
                         "(multi-column data skipping) instead of "
                         "lexicographic")

    vc = sub.add_parser("vacuum", help="delete unreferenced data files + old manifests")
    vc.add_argument("--table", required=True)
    vc.add_argument("--keep-epochs", type=int, default=2)
    vc.add_argument("--keep-seconds", type=int, default=None,
                    help="ALSO retain every epoch committed within this "
                         "window (time-based retention; union with "
                         "--keep-epochs)")

    pr = sub.add_parser("prune", help="changelog retention: drop epochs every "
                                      "consumer table has durably applied")
    pr.add_argument("--changelog", required=True)
    pr.add_argument("--up-to-epoch", type=int, default=None)
    pr.add_argument("--applied-table", action="append", default=[],
                    help="consumer table dir; repeat per consumer — pruning "
                         "never outruns the laggiest one")

    ap = sub.add_parser("autopilot", help="standing maintenance from committed "
                                          "metadata: plan (and --apply) compact / "
                                          "re-cluster / retire-dropped / sync "
                                          "subscribers / vacuum")
    ap.add_argument("--table", required=True)
    ap.add_argument("--apply", action="store_true",
                    help="execute the plan (default: print it only)")
    ap.add_argument("--max-delta-depth", type=int, default=3,
                    help="compact partitions carrying at least this many "
                         "merge-on-read deltas")
    ap.add_argument("--keep-manifests", type=int, default=8,
                    help="vacuum once more manifests than this are retained")

    hi = sub.add_parser("history", help="per-epoch lineage counters from retained manifests")
    hi.add_argument("--table", required=True)

    qt = sub.add_parser("quantiles", help="committed distribution telemetry: "
                        "per-epoch payload quantiles from the manifest "
                        "sketches alone (no data files opened)")
    qt.add_argument("--table", required=True)
    qt.add_argument("--column", default="n_tok")
    qt.add_argument("--history", action="store_true",
                    help="quantile trajectory across every retained epoch")
    qt.add_argument("--drift-from", type=int, default=None,
                    help="relative quantile shift from this epoch to the head")

    jb = sub.add_parser("jobs", help="job-status lifecycle rows for this table")
    jb.add_argument("--table", required=True)

    rp = sub.add_parser("repartition", help="rewrite the table under a new partition count")
    rp.add_argument("--table", required=True)
    rp.add_argument("--out", required=True)
    rp.add_argument("--partitions", type=int, required=True)

    ex = sub.add_parser("export", help="export the committed snapshot as a portable bundle")
    ex.add_argument("--table", required=True)
    ex.add_argument("--bundle", required=True)

    im = sub.add_parser("import", help="recreate a table from an exported bundle")
    im.add_argument("--bundle", required=True)
    im.add_argument("--table", required=True)

    df = sub.add_parser("diff", help="I/U/D changelog between two committed epochs")
    df.add_argument("--table", required=True)
    df.add_argument("--from-epoch", required=True,
                    help="epoch number or snapshot tag name")
    df.add_argument("--to-epoch", default=None,
                    help="epoch number or tag (default: committed)")
    df.add_argument("--out", default=None, help="write change rows as parquet here "
                    "(default: print summary counts only)")
    df.add_argument("--mode", choices=["events", "retractions"], default="events")

    rl = sub.add_parser("relay", help="chained CDC: bring a downstream table up "
                        "to date with an upstream table's committed epochs "
                        "(genesis seed, then O(changed-partitions) diffs)")
    rl.add_argument("--src", required=True, help="upstream table dir")
    rl.add_argument("--dst", required=True, help="downstream table dir")
    rl.add_argument("--partitions", type=int, default=None,
                    help="dst partition count (default: dst's, else src's)")
    rl.add_argument("--step", choices=["batch", "epoch"], default="batch",
                    help="epoch = walk every retained source epoch (dst gets "
                         "the same time-travel ladder); batch = one commit")
    rl.add_argument("--merge-policy", choices=["rewrite", "delta"],
                    default="rewrite")

    ae = sub.add_parser("apply-envelopes",
                        help="replay Debezium-shaped JSONL change envelopes into the table")
    ae.add_argument("--table", required=True)
    ae.add_argument("--epoch", type=int, required=True,
                    help="epoch to commit the batch as (exactly-once fence)")
    ae.add_argument("--partitions", type=int, default=32)
    ae.add_argument("--update-mode", choices=["replace", "coalesce"],
                    default="replace",
                    help="coalesce = envelopes are partial images (omitted "
                         "fields leave columns untouched)")
    ae.add_argument("files", nargs="+", help="envelope JSONL files")

    pf = sub.add_parser("publish-feed",
                        help="publish the diff between two committed epochs as "
                             "Debezium-shaped JSONL envelopes")
    pf.add_argument("--table", required=True)
    pf.add_argument("--from-epoch", type=int, required=True)
    pf.add_argument("--to-epoch", type=int, default=None)
    pf.add_argument("--out", required=True)

    vw = sub.add_parser("view", help="build/refresh an incremental materialized view")
    vw.add_argument("--table", required=True)
    vw.add_argument("--view", required=True, help="view state dir")
    vw.add_argument("--group-by", required=True, help="comma-separated group columns")
    vw.add_argument("--sum", action="append", default=[],
                    help="OUT=SRC summed column; repeatable")
    vw.add_argument("--partitions", type=int, default=8)

    jv = sub.add_parser("join-view", help="build/refresh an incremental equi-join "
                                          "view of two co-partitioned CDC tables")
    jv.add_argument("--left", required=True)
    jv.add_argument("--right", required=True)
    jv.add_argument("--view", required=True, help="view state dir")
    jv.add_argument("--on", default="doc_id")
    jv.add_argument("--how", default="inner", choices=["inner", "left_outer"])

    ww = sub.add_parser("window-view", help="build/refresh an event-time "
                        "windowed view (watermark + allowed lateness + "
                        "late side output + exactly-once triggers)")
    ww.add_argument("--table", required=True)
    ww.add_argument("--view", required=True, help="view state dir")
    ww.add_argument("--ts-column", required=True, help="int64 event-time column")
    ww.add_argument("--width", type=int, required=True)
    ww.add_argument("--slide", type=int, default=None,
                    help="hop size (default: width = tumbling)")
    ww.add_argument("--lateness", type=int, default=0)
    ww.add_argument("--group-by", default="",
                    help="comma-separated extra dimensions")
    ww.add_argument("--sum", action="append", default=[],
                    help="OUT=SRC summed column; repeatable")
    ww.add_argument("--partitions", type=int, default=8)

    wt = sub.add_parser("window-triggers", help="tail finalized-window "
                        "emissions committed after --after-epoch")
    wt.add_argument("--view", required=True)
    wt.add_argument("--after-epoch", type=int, default=0)

    wr = sub.add_parser("window-relay", help="feed finalized windows into a "
                        "downstream CDC table exactly-once (cascading rollups)")
    wr.add_argument("--view", required=True)
    wr.add_argument("--table", required=True, help="destination CDC table")
    wr.add_argument("--partitions", type=int, default=8)

    ai = sub.add_parser("ann-view", help="build/refresh the incrementally-"
                                         "maintained ANN index (LSH-bucket postings view)")
    ai.add_argument("--table", required=True)
    ai.add_argument("--view", required=True, help="index state dir")
    ai.add_argument("--dim", type=int, required=True, help="embedding dimensionality")
    ai.add_argument("--vec-column", default="embedding")
    ai.add_argument("--key-column", default="doc_id")
    ai.add_argument("--planes", type=int, default=8)
    ai.add_argument("--partitions", type=int, default=8)

    aq = sub.add_parser("ann-search", help="top-k cosine neighbors for query "
                                           "vectors via the maintained index")
    aq.add_argument("--table", required=True)
    aq.add_argument("--view", required=True)
    aq.add_argument("--query", required=True, action="append",
                    help="comma-separated floats; repeatable; use "
                         "--query=-0.1,... when the first value is negative")
    aq.add_argument("--k", type=int, default=5)
    aq.add_argument("--vec-column", default="embedding")
    aq.add_argument("--planes", type=int, default=8)

    ni = sub.add_parser("neardup-view", help="build/refresh the incrementally-"
                                             "maintained MinHash-LSH near-dup "
                                             "index (band-bucket postings view)")
    ni.add_argument("--table", required=True)
    ni.add_argument("--view", required=True, help="index state dir")
    ni.add_argument("--tokens-column", default="tokens")
    ni.add_argument("--key-column", default="doc_id")
    ni.add_argument("--shingle", type=int, default=5, help="token k-gram width")
    ni.add_argument("--partitions", type=int, default=8)

    ev = sub.add_parser("edges-view", help="build/refresh the incrementally-"
                                           "maintained typed graph-edge view "
                                           "(MENTIONS/FROM_SOURCE, signed fold)")
    ev.add_argument("--table", required=True)
    ev.add_argument("--view", required=True, help="edge state dir")
    ev.add_argument("--gazetteer", required=True,
                    help="comma-separated entity token ids")
    ev.add_argument("--tokens-column", default="tokens")
    ev.add_argument("--key-column", default="doc_id")
    ev.add_argument("--source-column", default="source")
    ev.add_argument("--partitions", type=int, default=8)

    eq = sub.add_parser("edges-of", help="committed edges of the given docs "
                                         "via the maintained edge view")
    eq.add_argument("--view", required=True)
    eq.add_argument("--doc-id", required=True, action="append",
                    help="document id; repeatable")

    rg = sub.add_parser("replay-gated", help="tail-and-apply with ingest-time "
                                             "dup suppression: screen each "
                                             "epoch against the maintained index,"
                                             " quarantine matches, apply the rest")
    rg.add_argument("--changelog", required=True)
    rg.add_argument("--table", required=True)
    rg.add_argument("--view", default=None,
                    help="dup index state dir (required for neardup/exact)")
    rg.add_argument("--mode", default="neardup",
                    help="comma-separated screen chain, applied in order "
                         "(first flag wins): neardup = MinHash-LSH + exact-"
                         "Jaccard confirm; exact = sha256 content-hash "
                         "postings; quality = stateless Gopher-rule screen "
                         "(no index); decontam = eval-bench n-gram "
                         "contamination (needs --bench); drift = EPOCH-level "
                         "distribution guard vs the committed manifest "
                         "sketches (quarantines the whole epoch when token-"
                         "length p50/p90 shift beyond --max-drift). E.g. "
                         "--mode drift,quality,exact. At most one index "
                         "screen per gate.")
    rg.add_argument("--partitions", type=int, default=32)
    rg.add_argument("--threshold", type=float, default=0.5)
    rg.add_argument("--shingle", type=int, default=5)
    rg.add_argument("--tokens-column", default="tokens")
    rg.add_argument("--max-drift", type=float, default=0.5,
                    help="drift mode: max relative p50/p90 token-length "
                         "shift vs the committed distribution")
    rg.add_argument("--key-column", default="doc_id")
    rg.add_argument("--max-candidates", type=int, default=500)
    rg.add_argument("--branch", default=None,
                    help="apply onto this OPEN branch of --table (screened "
                         "AND staged: gate rows mechanically, audit the "
                         "epochs, then publish-branch)")
    rg.add_argument("--min-tok", type=int, default=5,
                    help="quality mode: minimum payload length")
    rg.add_argument("--max-tok", type=int, default=None,
                    help="quality mode: maximum payload length (unset = none)")
    rg.add_argument("--max-top-frac", type=float, default=0.2,
                    help="quality mode: max most-frequent-token fraction")
    rg.add_argument("--bench", default=None,
                    help="decontam mode: eval-benchmark parquet (same "
                         "tokens column) whose n-grams must not enter "
                         "the corpus")
    rg.add_argument("--ngram", type=int, default=8,
                    help="decontam mode: contamination window length")

    bf = sub.add_parser("backfill", help="CDC-native payload backfill: run a "
                                         "module::func transform over every "
                                         "live document and commit the results "
                                         "as ONE new U-event epoch (indexes "
                                         "retract + refold via subscribers)")
    bf.add_argument("--table", required=True)
    bf.add_argument("--transform", required=True,
                    help="module.sub::func, callable(pa.Table)->pa.Table "
                         "(the reference's --parser-path plugin syntax)")
    bf.add_argument("--key-column", default="doc_id")
    bf.add_argument("--partitions", type=int, default=None)

    rm = sub.add_parser("readmit", help="operator override for gate false "
                                        "positives: re-apply quarantined rows "
                                        "from a gated epoch as a NEW epoch, "
                                        "bypassing the gate")
    rm.add_argument("--table", required=True)
    rm.add_argument("--from-epoch", type=int, required=True,
                    help="the gated epoch whose quarantine to readmit from")
    rm.add_argument("--doc-id", action="append", default=None,
                    help="readmit only these ids (repeatable; default all)")
    rm.add_argument("--view", default=None,
                    help="gate index dir to refresh directly (when it is "
                         "not a subscriber)")
    rm.add_argument("--gate-mode", default=None,
                    help="comma-separated gate modes owning --view")
    rm.add_argument("--tokens-column", default="tokens")
    rm.add_argument("--key-column", default="doc_id")
    rm.add_argument("--shingle", type=int, default=5)
    rm.add_argument("--partitions", type=int, default=32)

    tp = sub.add_parser("ttl-policy",
                        help="record (or clear with --keep 0) a standing "
                             "row TTL: rows whose COLUMN falls KEEP or "
                             "more units behind the committed max expire; "
                             "autopilot plans the delete-where sweep from "
                             "zone maps alone")
    tp.add_argument("--table", required=True)
    tp.add_argument("--column", required=True)
    tp.add_argument("--keep", type=int, required=True)

    qp = sub.add_parser("quarantine-policy",
                        help="record (or clear with 0) the standing "
                             "quarantine retention: keep the newest N "
                             "gated epochs' audit dirs; autopilot plans "
                             "expirations against this")
    qp.add_argument("--table", required=True)
    qp.add_argument("--keep-epochs", type=int, required=True)

    qe = sub.add_parser("expire-quarantine",
                        help="expire old quarantine audit dirs (by the "
                             "recorded policy, --keep-epochs, or "
                             "--before-epoch); expired epochs can no "
                             "longer readmit")
    qe.add_argument("--table", required=True)
    qe.add_argument("--keep-epochs", type=int, default=None)
    qe.add_argument("--before-epoch", type=int, default=None)

    di = sub.add_parser("dedup-view", help="build/refresh the incrementally-"
                                           "maintained exact-dup content-hash "
                                           "index (sha256 postings view)")
    di.add_argument("--table", required=True)
    di.add_argument("--view", required=True, help="index state dir")
    di.add_argument("--tokens-column", default="tokens")
    di.add_argument("--key-column", default="doc_id")
    di.add_argument("--partitions", type=int, default=8)

    dq = sub.add_parser("dedup-search", help="exact twins of committed docs "
                                             "via the maintained content-hash "
                                             "index")
    dq.add_argument("--table", required=True)
    dq.add_argument("--view", required=True)
    dq.add_argument("--doc-id", required=True, action="append",
                    help="probe document id; repeatable")
    dq.add_argument("--tokens-column", default="tokens")
    dq.add_argument("--key-column", default="doc_id")

    nq = sub.add_parser("neardup-search", help="near-duplicates of committed "
                                               "docs via the maintained index "
                                               "(exact Jaccard confirm)")
    nq.add_argument("--table", required=True)
    nq.add_argument("--view", required=True)
    nq.add_argument("--doc-id", required=True, action="append",
                    help="probe document id; repeatable")
    nq.add_argument("--threshold", type=float, default=0.5)
    nq.add_argument("--shingle", type=int, default=5)
    nq.add_argument("--tokens-column", default="tokens")
    nq.add_argument("--key-column", default="doc_id")

    bi = sub.add_parser("bm25-view", help="build/refresh the incrementally-"
                                          "maintained BM25 text index (postings"
                                          " + doc-length + corpus-stats views)")
    bi.add_argument("--table", required=True)
    bi.add_argument("--index", required=True, help="index state dir")
    bi.add_argument("--text-column", default="text")
    bi.add_argument("--key-column", default="doc_id")
    bi.add_argument("--partitions", type=int, default=8)

    bq = sub.add_parser("bm25-search", help="exact BM25 top-k for a term query "
                                            "via the maintained index")
    bq.add_argument("--table", required=True)
    bq.add_argument("--index", required=True)
    bq.add_argument("--query", required=True, help="query string; tokenized "
                                                   "with the index's tokenizer")
    bq.add_argument("--k", type=int, default=10)
    bq.add_argument("--text-column", default="text")
    bq.add_argument("--key-column", default="doc_id")

    sb = sub.add_parser("subscribe", help="register derived state (view/"
                                          "index/relay) that replay keeps in "
                                          "sync with the table's commits")
    sb.add_argument("--table", required=True)
    sb.add_argument("--kind", required=True,
                    choices=["agg", "inverted", "ann", "bm25", "relay",
                             "neardup", "edges", "dedup", "training",
                             "window"])
    sb.add_argument("--target", required=True, help="subscriber state dir")
    sb.add_argument("--params", default="{}", help="kind-specific JSON params")

    su = sub.add_parser("unsubscribe", help="remove a subscriber by target dir")
    su.add_argument("--table", required=True)
    su.add_argument("--target", required=True)

    sl = sub.add_parser("subscriptions", help="list a table's subscribers")
    sl.add_argument("--table", required=True)

    sy = sub.add_parser("sync", help="bring every subscriber to the table's "
                                     "committed epoch (replay does this "
                                     "automatically after its commits)")
    sy.add_argument("--table", required=True)

    args = p.parse_args(argv)

    if args.cmd == "generate":
        from gamechanger_data_ray.core.changelog import write_changelog

        paths = write_changelog(
            args.out, num_epochs=args.epochs, events_per_epoch=args.events,
            num_keys=args.keys, seed=args.seed, zipf_a=args.zipf,
            evolution=args.evolution, partial_frac=args.partial_frac,
        )
        print(json.dumps({"epochs": len(paths), "out": args.out}))
        return 0

    if args.cmd == "restore":
        from gamechanger_data_ray.engine.maintenance import restore

        m = restore(args.table, _epoch_arg(args.table, args.epoch))
        print(json.dumps({"epoch": m.epoch, "rows": m.totals.get("rows")}))
        return 0

    if args.cmd == "vacuum":
        from gamechanger_data_ray.engine.maintenance import vacuum

        print(json.dumps(vacuum(args.table, keep_epochs=args.keep_epochs,
                                keep_seconds=args.keep_seconds)))
        return 0

    if args.cmd == "quantiles":
        from gamechanger_data_ray.engine.telemetry import (
            epoch_quantiles,
            quantile_drift,
            quantile_history,
        )

        if args.drift_from is not None:
            print(json.dumps(quantile_drift(
                args.table, args.drift_from, column=args.column)))
        elif args.history:
            print(json.dumps(quantile_history(args.table, args.column)))
        else:
            print(json.dumps(epoch_quantiles(args.table)))
        return 0

    if args.cmd == "history":
        from gamechanger_data_ray.state import manifest as mf

        cur = mf.committed_epoch(args.table)
        rows = []
        for e in mf.list_manifests(args.table):
            m = mf.load_manifest(args.table, e)
            c = {k: v for k, v in m.epoch_counters.items() if k != "per_partition"}
            rows.append(
                {"epoch": e, "committed": e == cur, "rows": m.totals.get("rows"),
                 "partitions_touched": len(m.epoch_counters.get("per_partition", {})),
                 **c}
            )
        print(json.dumps(rows))
        return 0

    if args.cmd == "jobs":
        from gamechanger_data_ray.engine.jobs import job_history

        print(json.dumps(job_history(args.table)))
        return 0

    if args.cmd == "export":
        from gamechanger_data_ray.engine.maintenance import export_table

        print(json.dumps(export_table(args.table, args.bundle)))
        return 0

    if args.cmd == "import":
        from gamechanger_data_ray.engine.maintenance import import_table

        m = import_table(args.bundle, args.table)
        print(json.dumps({"epoch": m.epoch, "rows": m.totals.get("rows")}))
        return 0

    if args.cmd == "get":
        from gamechanger_data_ray.engine.cdc import read_keys, routed_partition_files

        at = _epoch_arg(args.table, args.at)
        t = read_keys(args.table, args.keys, epoch=at)
        print(json.dumps({
            "found": t.num_rows,
            "partitions_read": len(
                routed_partition_files(args.table, args.keys, epoch=at)),
            **({"as_of_epoch": at} if at is not None else {}),
            "rows": t.to_pylist(),
        }, default=str))
        return 0

    if args.cmd == "tag":
        from gamechanger_data_ray.engine.maintenance import list_tags, tag, untag

        if args.set:
            tags = tag(args.table, args.set, epoch=args.epoch)
        elif args.delete:
            tags = untag(args.table, args.delete)
        else:
            tags = list_tags(args.table)
        print(json.dumps({"tags": tags}))
        return 0

    if args.cmd == "drop-column":
        from gamechanger_data_ray.engine.maintenance import drop_column

        m = drop_column(args.table, args.column)
        print(json.dumps({"dropped": args.column, "epoch": m.epoch,
                          "rev": m.rev, "tombstones": m.dropped_columns}))
        return 0

    if args.cmd == "status":
        from gamechanger_data_ray.state import manifest as mf

        cur = mf.load_current(args.table)
        if cur is None:
            print(json.dumps({"table": args.table, "epoch": None}))
        else:
            out = {
                "table": args.table,
                "epoch": cur.epoch,
                "rev": cur.rev,
                "update_mode": cur.epoch_counters.get("update_mode", "replace"),
                "clustered_by": cur.epoch_counters.get("clustered_by"),
                "dropped_columns": cur.dropped_columns,
                "totals": cur.totals,
                "partitions": len(cur.partitions),
                "schema": str(cur.schema).replace("\n", "; "),
            }
            from gamechanger_data_ray.engine.branches import list_branches

            open_branches = list_branches(args.table)
            if open_branches:
                out["branches"] = open_branches
            # gated-ingest audit trail, from parquet footers only
            import glob as _glob

            import pyarrow.parquet as _pq

            from gamechanger_data_ray.engine.ingest_gate import (
                list_quarantine_epochs,
                quarantine_policy,
            )

            qepochs = list_quarantine_epochs(args.table)
            if qepochs:
                qdirs = [os.path.join(args.table, "_quarantine",
                                      f"epoch-{e:06d}") for e in qepochs]
                out["quarantine"] = {
                    "epochs": len(qdirs),
                    "rows": sum(
                        _pq.ParquetFile(f).metadata.num_rows
                        for d in qdirs
                        for f in _glob.glob(os.path.join(d, "*.parquet"))),
                }
                pol = quarantine_policy(args.table)
                if pol:
                    out["quarantine"]["retention"] = pol
            from gamechanger_data_ray.engine.subscriptions import (
                list_subscriptions,
                subscriber_epoch,
            )

            subs_list = list_subscriptions(args.table)
            if subs_list:
                out["subscribers"] = [
                    {"target": s["target_dir"], "kind": s["kind"],
                     "epoch_seen": (seen := subscriber_epoch(s)),
                     "lag": cur.epoch - seen if seen is not None else None}
                    for s in subs_list
                ]
            if args.partitions:
                out["per_partition"] = {
                    p: {
                        "rows": e.get("rows"),
                        "watermark_lsn": e.get("watermark_lsn"),
                        "key_min": e.get("key_min"),
                        "key_max": e.get("key_max"),
                        "pending_deltas": len(e.get("deltas", ())),
                    }
                    for p, e in sorted(cur.partitions.items(), key=lambda kv: int(kv[0]))
                }
            print(json.dumps(out))
        return 0

    # registry-only verbs: plain JSON-file edits, no Ray session needed
    if args.cmd == "subscribe":
        from gamechanger_data_ray.engine.subscriptions import subscribe

        subs = subscribe(args.table, args.kind, args.target,
                         params=json.loads(args.params))
        print(json.dumps({"subscriptions": subs}))
        return 0
    if args.cmd == "unsubscribe":
        from gamechanger_data_ray.engine.subscriptions import unsubscribe

        print(json.dumps({"subscriptions": unsubscribe(args.table, args.target)}))
        return 0
    if args.cmd == "subscriptions":
        from gamechanger_data_ray.engine.subscriptions import list_subscriptions

        print(json.dumps({"subscriptions": list_subscriptions(args.table)}))
        return 0

    if args.cmd == "branch":
        from gamechanger_data_ray.engine.branches import (
            branch_create,
            branch_discard,
            list_branches,
        )

        if args.create:
            print(json.dumps(branch_create(args.table, args.create)))
        elif args.discard:
            print(json.dumps(branch_discard(args.table, args.discard)))
        else:
            print(json.dumps({"branches": list_branches(args.table)}))
        return 0

    if args.cmd == "autopilot" and not args.apply:
        # plan() reads only committed metadata — no Ray session needed
        from gamechanger_data_ray.engine.autopilot import main_json

        print(main_json(args.table, False,
                        max_delta_depth=args.max_delta_depth,
                        keep_manifests=args.keep_manifests))
        return 0

    owns_session = _ray_init(args.num_cpus)
    import ray

    try:
        if args.cmd == "replay":
            from gamechanger_data_ray.engine.cdc import replay, replay_union

            if args.branch:
                from gamechanger_data_ray.engine.branches import (
                    _fork_info,
                    branch_path,
                )
                from gamechanger_data_ray.state.fs import default_fs

                bdir = branch_path(args.table, args.branch)
                if _fork_info(bdir, default_fs(None)) is None:
                    raise SystemExit(
                        f"no open branch {args.branch!r} — create it first: "
                        f"branch --table {args.table} --create {args.branch}")
                args.table = bdir
            renames = dict(kv.split("=", 1) for kv in args.rename) or None
            if len(args.changelog) > 1:
                m = replay_union(
                    args.changelog, args.table, num_partitions=args.partitions,
                    merge_policy=args.merge_policy, renames=renames,
                    update_mode=args.update_mode,
                )
            else:
                m = replay(
                    args.changelog[0], args.table, num_partitions=args.partitions,
                    epochs_per_commit=args.epochs_per_commit,
                    merge_policy=args.merge_policy, renames=renames,
                    update_mode=args.update_mode,
                )
            print(json.dumps({"epoch": m.epoch if m else None, "totals": m.totals if m else {}}))
        elif args.cmd == "publish-branch":
            from gamechanger_data_ray.engine.branches import branch_publish

            spec = None
            if args.audit_schema:
                from gamechanger_data_ray.stages.validate import (
                    TOKENS_TABLE_SCHEMA,
                    load_spec,
                )

                spec = (TOKENS_TABLE_SCHEMA if args.audit_schema == "tokens"
                        else load_spec(args.audit_schema))
            print(json.dumps(branch_publish(
                args.table, args.name, require_clean=args.require_clean,
                audit_schema=spec)))
        elif args.cmd == "rebase-branch":
            from gamechanger_data_ray.engine.branches import branch_rebase

            print(json.dumps(branch_rebase(args.table, args.name)))
        elif args.cmd == "branch-diff":
            from gamechanger_data_ray.core.diff import CHANGE_COLUMN, SIGN_COLUMN
            from gamechanger_data_ray.engine.branches import branch_diff

            ds = branch_diff(args.table, args.name, mode=args.mode)
            if args.out:
                ds.write_parquet(args.out)
                ds = ray.data.read_parquet(args.out)
            key = CHANGE_COLUMN if args.mode == "events" else SIGN_COLUMN
            counts = {
                str(r[key]): r["count()"]
                for r in ds.groupby(key).count().take_all()
            }
            print(json.dumps({"branch": args.name, "mode": args.mode,
                              "changes": counts,
                              "out": args.out}))
        elif args.cmd == "bootstrap":
            from gamechanger_data_ray.engine.cdc import bootstrap_table

            m = bootstrap_table(
                args.snapshot, args.table, num_partitions=args.partitions,
                key=args.key, merge_policy=args.merge_policy,
                update_mode=args.update_mode,
            )
            print(json.dumps({"epoch": m.epoch, "totals": m.totals,
                              "duplicate_keys": m.totals["events_in"] - m.totals["rows"]}))
        elif args.cmd == "autopilot":
            from gamechanger_data_ray.engine.autopilot import main_json

            print(main_json(args.table, True,
                            max_delta_depth=args.max_delta_depth,
                            keep_manifests=args.keep_manifests))
        elif args.cmd == "compact":
            from gamechanger_data_ray.engine.maintenance import compact

            m = compact(args.table, min_deltas=args.min_deltas)
            print(json.dumps(
                {"compacted": m is not None,
                 "epoch": m.epoch if m else None, "rev": m.rev if m else None}))
        elif args.cmd == "cluster":
            from gamechanger_data_ray.engine.maintenance import cluster_table

            m = cluster_table(args.table,
                              by=[c.strip() for c in args.by.split(",") if c.strip()],
                              row_group_rows=args.row_group_rows,
                              zorder=args.zorder)
            print(json.dumps(
                {"clustered": m is not None,
                 "by": (m.epoch_counters["clustered_by"] if m else None),
                 "epoch": m.epoch if m else None, "rev": m.rev if m else None}))
        elif args.cmd == "tail":
            from gamechanger_data_ray.engine.cdc import tail

            m = tail(
                args.changelog, args.table, num_partitions=args.partitions,
                poll_interval=args.poll_interval, idle_polls=args.idle_polls,
                merge_policy=args.merge_policy, auto_compact=args.auto_compact,
                renames=dict(kv.split("=", 1) for kv in args.rename) or None,
                update_mode=args.update_mode,
            )
            print(json.dumps({"epoch": m.epoch if m else None, "totals": m.totals if m else {}}))
        elif args.cmd == "repartition":
            from gamechanger_data_ray.engine.maintenance import repartition_table

            m = repartition_table(args.table, args.out, args.partitions)
            print(json.dumps({"epoch": m.epoch, "num_partitions": m.num_partitions,
                              "rows": m.totals.get("rows")}))
        elif args.cmd == "diff":
            from gamechanger_data_ray.core.diff import CHANGE_COLUMN
            from gamechanger_data_ray.engine.diff import diff_table_epochs

            ds = diff_table_epochs(
                args.table, _epoch_arg(args.table, args.from_epoch),
                _epoch_arg(args.table, args.to_epoch), mode=args.mode
            )
            if args.out:
                # write, then count from the written files: no mid-pipeline
                # materialize, and the counts reflect what actually landed
                ds.write_parquet(args.out)
                ds = ray.data.read_parquet(args.out)
            if args.mode == "events":
                counts = {
                    r[CHANGE_COLUMN]: r["count()"]
                    for r in ds.groupby(CHANGE_COLUMN).count().take_all()
                }
            else:
                counts = {
                    str(r["sign"]): r["count()"]
                    for r in ds.groupby("sign").count().take_all()
                }
            print(json.dumps({"from": args.from_epoch, "to": args.to_epoch,
                              "changes": counts, "out": args.out}))
        elif args.cmd == "apply-envelopes":
            from gamechanger_data_ray.sources.cdc_envelope import apply_envelopes

            m = apply_envelopes(
                args.files, args.table, epoch=args.epoch,
                num_partitions=args.partitions, update_mode=args.update_mode,
            )
            print(json.dumps(
                {"epoch": m.epoch if m else None,
                 "totals": m.totals if m else {},
                 "fenced": m is None}))
        elif args.cmd == "relay":
            from gamechanger_data_ray.engine.diff import relay

            print(json.dumps(relay(
                args.src, args.dst, num_partitions=args.partitions,
                step=args.step, merge_policy=args.merge_policy,
            )))
        elif args.cmd == "publish-feed":
            from gamechanger_data_ray.sources.cdc_envelope import publish_envelopes

            publish_envelopes(args.table, args.out, args.from_epoch, args.to_epoch)
            print(json.dumps({"from": args.from_epoch, "to": args.to_epoch,
                              "out": args.out}))
        elif args.cmd == "view":
            from gamechanger_data_ray.engine.views import ViewDef, refresh

            sums = dict(s.split("=", 1) for s in args.sum)
            m = refresh(
                ViewDef(args.group_by.split(","), sums),
                args.view, args.table, num_partitions=args.partitions,
            )
            print(json.dumps(
                {"epoch": m.epoch if m else None,
                 "mode": m.epoch_counters.get("mode") if m else "current",
                 "rows": m.totals.get("rows") if m else None}))
        elif args.cmd == "join-view":
            from gamechanger_data_ray.engine.join_views import refresh_join

            m = refresh_join(args.view, args.left, args.right,
                             on=args.on, how=args.how)
            print(json.dumps(
                {"epoch": m.epoch if m else None,
                 "mode": m.epoch_counters.get("mode") if m else "current",
                 "dirty_partitions":
                     m.epoch_counters.get("dirty_partitions") if m else 0,
                 "rows": m.totals.get("rows") if m else None}))
        elif args.cmd == "window-view":
            from gamechanger_data_ray.engine.window_view import (
                EventWindowView,
                refresh_windowed,
            )

            sums = dict(s.split("=", 1) for s in args.sum)
            view = EventWindowView(
                args.ts_column, args.width, sums=sums,
                group_by=[c for c in args.group_by.split(",") if c],
                lateness=args.lateness, slide=args.slide,
            )
            m = refresh_windowed(view, args.view, args.table,
                                 num_partitions=args.partitions)
            print(json.dumps(
                {"epoch": m.epoch if m else None,
                 "mode": m.epoch_counters.get("mode") if m else "current",
                 "watermark_ts": m.epoch_counters.get("watermark_ts") if m else None,
                 "late_rows": m.epoch_counters.get("late_rows") if m else 0,
                 "trigger_rows": m.epoch_counters.get("trigger_rows") if m else 0,
                 "rows": m.totals.get("rows") if m else None}))
        elif args.cmd == "window-triggers":
            from gamechanger_data_ray.engine.window_view import triggers_since

            t = triggers_since(args.view, args.after_epoch)
            print(json.dumps(
                {"rows": 0 if t is None else t.num_rows,
                 "windows": [] if t is None
                 else sorted(set(t["window_start"].to_pylist()))}))
        elif args.cmd == "window-relay":
            from gamechanger_data_ray.engine.window_view import relay_triggers

            out = relay_triggers(args.view, args.table,
                                 num_partitions=args.partitions)
            print(json.dumps(out))
        elif args.cmd == "ann-view":
            from gamechanger_data_ray.engine.ann_index import ann_index_view
            from gamechanger_data_ray.engine.views import refresh

            m = refresh(
                ann_index_view(args.dim, vec_column=args.vec_column,
                               key_column=args.key_column, n_planes=args.planes),
                args.view, args.table, num_partitions=args.partitions,
            )
            print(json.dumps(
                {"epoch": m.epoch if m else None,
                 "mode": m.epoch_counters.get("mode") if m else "current",
                 "postings": m.totals.get("rows") if m else None}))
        elif args.cmd == "ann-search":
            import numpy as _np

            from gamechanger_data_ray.engine.ann_index import ann_search

            q = _np.array([[float(x) for x in row.split(",")] for row in args.query])
            t = ann_search(args.view, args.table, q, k=args.k,
                           vec_column=args.vec_column, n_planes=args.planes)
            print(json.dumps({"queries": len(q), "results": t.to_pylist()}))
        elif args.cmd == "neardup-view":
            from gamechanger_data_ray.engine.neardup_index import neardup_index_view
            from gamechanger_data_ray.engine.views import refresh

            m = refresh(
                neardup_index_view(tokens_column=args.tokens_column,
                                   key_column=args.key_column, k=args.shingle),
                args.view, args.table, num_partitions=args.partitions,
            )
            print(json.dumps(
                {"epoch": m.epoch if m else None,
                 "mode": m.epoch_counters.get("mode") if m else "current",
                 "postings": m.totals.get("rows") if m else None}))
        elif args.cmd == "edges-view":
            from gamechanger_data_ray.engine.edge_view import typed_edge_view
            from gamechanger_data_ray.engine.views import refresh

            gaz = [int(g) for g in args.gazetteer.split(",") if g.strip()]
            m = refresh(
                typed_edge_view(gaz, tokens_column=args.tokens_column,
                                key_column=args.key_column,
                                source_column=args.source_column),
                args.view, args.table, num_partitions=args.partitions,
            )
            print(json.dumps(
                {"epoch": m.epoch if m else None,
                 "mode": m.epoch_counters.get("mode") if m else "current",
                 "edges": m.totals.get("rows") if m else None}))
        elif args.cmd == "edges-of":
            from gamechanger_data_ray.engine.edge_view import edges_of

            t = edges_of(args.view, args.doc_id)
            print(json.dumps({"docs": args.doc_id, "edges": t.to_pylist()}))
        elif args.cmd == "replay-gated":
            from gamechanger_data_ray.engine.ingest_gate import replay_gated

            modes = [m.strip() for m in args.mode.split(",") if m.strip()]
            if any(m not in ("quality", "decontam", "drift") for m in modes) and not args.view:
                raise SystemExit("replay-gated: --view is required for "
                                 f"mode={args.mode!r}")
            if "decontam" in modes and not args.bench:
                raise SystemExit("replay-gated: --bench is required for "
                                 "mode=decontam")
            if args.branch:
                from gamechanger_data_ray.engine.branches import (
                    _fork_info,
                    branch_path,
                )
                from gamechanger_data_ray.state.fs import default_fs

                bdir = branch_path(args.table, args.branch)
                if _fork_info(bdir, default_fs(None)) is None:
                    raise SystemExit(
                        f"no open branch {args.branch!r} — create it first: "
                        f"branch --table {args.table} --create {args.branch}")
                args.table = bdir
            out = replay_gated(
                args.changelog, args.table, args.view,
                num_partitions=args.partitions, threshold=args.threshold,
                k=args.shingle, tokens_column=args.tokens_column,
                key_column=args.key_column, max_candidates=args.max_candidates,
                mode=modes, min_tok=args.min_tok, max_tok=args.max_tok,
                max_top_frac=args.max_top_frac,
                bench_path=args.bench, ngram=args.ngram,
                max_drift=args.max_drift,
            )
            print(json.dumps(out))
        elif args.cmd == "backfill":
            from gamechanger_data_ray.engine.maintenance import (
                backfill,
                resolve_transform,
            )

            out = backfill(args.table, resolve_transform(args.transform),
                           key_column=args.key_column,
                           num_partitions=args.partitions)
            print(json.dumps(out))
        elif args.cmd == "readmit":
            from gamechanger_data_ray.engine.ingest_gate import readmit

            gate_modes = ([m.strip() for m in args.gate_mode.split(",")
                           if m.strip()] if args.gate_mode else None)
            out = readmit(
                args.table, args.from_epoch, args.doc_id,
                tokens_column=args.tokens_column, key_column=args.key_column,
                num_partitions=args.partitions, view_dir=args.view,
                mode=gate_modes, k=args.shingle,
            )
            print(json.dumps(out))
        elif args.cmd == "ttl-policy":
            from gamechanger_data_ray.engine.maintenance import set_ttl_policy

            print(json.dumps(set_ttl_policy(args.table, args.column,
                                            args.keep)))
        elif args.cmd == "quarantine-policy":
            from gamechanger_data_ray.engine.ingest_gate import (
                set_quarantine_policy,
            )

            print(json.dumps(set_quarantine_policy(args.table,
                                                   args.keep_epochs)))
        elif args.cmd == "expire-quarantine":
            from gamechanger_data_ray.engine.ingest_gate import (
                expire_quarantine,
            )

            print(json.dumps(expire_quarantine(
                args.table, args.keep_epochs,
                before_epoch=args.before_epoch)))
        elif args.cmd == "dedup-view":
            from gamechanger_data_ray.engine.dedup_index import content_index_view
            from gamechanger_data_ray.engine.views import refresh

            m = refresh(
                content_index_view(tokens_column=args.tokens_column,
                                   key_column=args.key_column),
                args.view, args.table, num_partitions=args.partitions,
            )
            print(json.dumps(
                {"epoch": m.epoch if m else None,
                 "mode": m.epoch_counters.get("mode") if m else "current",
                 "postings": m.totals.get("rows") if m else None}))
        elif args.cmd == "dedup-search":
            from gamechanger_data_ray.engine.dedup_index import dup_search

            t = dup_search(args.view, args.table, args.doc_id,
                           tokens_column=args.tokens_column,
                           key_column=args.key_column)
            print(json.dumps({"probes": args.doc_id, "results": t.to_pylist()}))
        elif args.cmd == "neardup-search":
            from gamechanger_data_ray.engine.neardup_index import neardup_search

            t = neardup_search(args.view, args.table, args.doc_id,
                               threshold=args.threshold, k=args.shingle,
                               tokens_column=args.tokens_column,
                               key_column=args.key_column)
            print(json.dumps({"probes": args.doc_id, "results": t.to_pylist()}))
        elif args.cmd == "bm25-view":
            from gamechanger_data_ray.engine.search_index import bm25_refresh

            out = bm25_refresh(
                args.index, args.table, text_column=args.text_column,
                key_column=args.key_column, num_partitions=args.partitions,
            )
            print(json.dumps({"epochs": out}))
        elif args.cmd == "bm25-search":
            from gamechanger_data_ray.engine.search_index import bm25_search

            t = bm25_search(args.index, args.table, args.query, k=args.k,
                            text_column=args.text_column,
                            key_column=args.key_column)
            print(json.dumps({"query": args.query, "results": t.to_pylist()}))
        elif args.cmd == "sync":
            from gamechanger_data_ray.engine.subscriptions import sync

            print(json.dumps({"synced": sync(args.table)}))
        elif args.cmd == "restamp-stats":
            from gamechanger_data_ray.engine.maintenance import restamp_stats

            m = restamp_stats(args.table)
            print(json.dumps({"committed": m is not None,
                              "epoch": m.epoch if m else None,
                              "rev": m.rev if m else None}))
        elif args.cmd == "delete-where":
            from gamechanger_data_ray.engine.maintenance import delete_where

            def side_dw(v):
                if v == "":
                    return None
                for cast in (int, float):
                    try:
                        return cast(v)
                    except ValueError:
                        continue
                return v

            bounds_dw = {}
            for spec in args.bounds:
                parts_ = spec.split(":", 2)
                if len(parts_) != 3:
                    p.error(f"--bounds expects COL:LO:HI (empty side = "
                            f"unbounded), got {spec!r}")
                col, lo, hi = parts_
                bounds_dw[col] = (side_dw(lo), side_dw(hi))
            print(json.dumps(delete_where(
                args.table, bounds=bounds_dw or None,
                key_column=args.key_column, num_partitions=args.partitions)))
        elif args.cmd == "retire-dropped":
            from gamechanger_data_ray.engine.maintenance import retire_dropped

            print(json.dumps(retire_dropped(args.table, args.column)))
        elif args.cmd == "export-training":
            from gamechanger_data_ray.engine.training_export import export_training

            print(json.dumps(export_training(
                args.table, args.out, cap=args.cap,
                epoch=_epoch_arg(args.table, args.at),
                shuffle_seed=args.shuffle_seed)))
        elif args.cmd == "training-view":
            from gamechanger_data_ray.engine.training_view import training_view_refresh

            m = training_view_refresh(
                args.out, args.table, cap=args.cap, seed=args.seed,
                mixture=json.loads(args.mixture) if args.mixture else None)
            print(json.dumps({k: m.get(k) for k in (
                "epoch", "rev", "cap", "seed", "mixture", "repacked",
                "total_chunks", "total_tokens", "docs")}))
        elif args.cmd == "drift":
            from gamechanger_data_ray.engine.drift import drift_report

            print(json.dumps(drift_report(
                args.table, _epoch_arg(args.table, args.from_epoch),
                _epoch_arg(args.table, args.to_epoch), args.column)))
        elif args.cmd == "scan":
            from gamechanger_data_ray.engine.cdc import (
                _resolve_manifest,
                _stats_overlap,
                read_table,
            )
            from gamechanger_data_ray.state.fs import default_fs

            at = _epoch_arg(args.table, args.at)
            cur = _resolve_manifest(args.table, at, default_fs(None))

            def side(col: str, v: str):
                if v == "":
                    return None
                # coerce by the COLUMN's type, not by what the string looks
                # like — a string column may hold numeric-looking values
                if cur is not None and col in cur.schema.names:
                    import pyarrow as pa

                    ty = cur.schema.field(col).type
                    if pa.types.is_integer(ty):
                        return int(v)
                    if pa.types.is_floating(ty):
                        return float(v)
                    return v
                for cast in (int, float):
                    try:
                        return cast(v)
                    except ValueError:
                        continue
                return v

            bounds = {}
            for spec in args.bounds:
                parts_ = spec.split(":", 2)
                if len(parts_) != 3:
                    p.error(f"--bounds expects COL:LO:HI (empty side = unbounded), got {spec!r}")
                col, lo, hi = parts_
                bounds[col] = (side(col, lo), side(col, hi))
            skipped = 0
            if cur is not None and bounds:
                skipped = sum(
                    1 for e in cur.partitions.values()
                    if not _stats_overlap(e.get("col_stats"), bounds))
            ds = read_table(args.table, columns=args.columns or None,
                            bounds=bounds or None, epoch=at)
            if args.out:
                ds.write_parquet(args.out)
                rows = None  # avoid a second pass; the sink already streamed it
            else:
                rows = ds.count()
            print(json.dumps({
                "partitions_total": len(cur.partitions) if cur else 0,
                "partitions_skipped": skipped,
                **({"rows": rows} if rows is not None else {"out": args.out}),
            }))
        elif args.cmd == "validate":
            from gamechanger_data_ray.engine.maintenance import validate_table

            print(json.dumps(validate_table(args.table)))
        elif args.cmd == "prune":
            from gamechanger_data_ray.core.changelog import prune_changelog

            print(json.dumps(prune_changelog(
                args.changelog, up_to_epoch=args.up_to_epoch,
                applied_tables=args.applied_table or None)))
        elif args.cmd == "repair":
            from gamechanger_data_ray.engine.maintenance import repair_from_replica

            print(json.dumps(
                {"table": args.table, "replica": args.from_replica,
                 **repair_from_replica(args.table, args.from_replica)}))
        elif args.cmd == "checksum":
            from gamechanger_data_ray.engine.maintenance import table_checksums

            mine = table_checksums(args.table,
                                   epoch=_epoch_arg(args.table, args.at))
            out = {"table": args.table, "rows": mine["rows"], "digest": mine["digest"]}
            if args.partitions:
                out["by_partition"] = mine["by_partition"]
            if args.against:
                other = table_checksums(
                    args.against, epoch=_epoch_arg(args.against, args.against_at))
                out["against"] = {"table": args.against, "rows": other["rows"],
                                  "digest": other["digest"]}
                out["equal"] = mine["digest"] == other["digest"]
            print(json.dumps(out))
        elif args.cmd == "sweep":
            import pandas as pd

            from gamechanger_data_ray.engine.cdc import apply_revocation_sweep

            alive = pd.read_csv(args.alive)
            m = apply_revocation_sweep(
                args.table, alive, epoch=args.epoch, num_partitions=args.partitions
            )
            print(json.dumps({"epoch": m.epoch if m else None,
                              "deletes": m.epoch_counters["deletes"] if m else 0}))
        return 0
    finally:
        if owns_session:  # an in-process caller's own session stays up
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
