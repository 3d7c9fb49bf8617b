"""Write-audit-publish branches: stage epochs on an isolated branch,
audit them with the full read/validate toolbox, then atomically
fast-forward the parent — or discard the branch without a trace.

The Iceberg/Nessie WAP workflow expressed over this engine's manifest
protocol, and the missing third option between "commit straight to the
live table" and "quarantine individual rows" (``ingest_gate``): the gate
screens ROWS mechanically at ingest; a branch stages whole EPOCHS for
arbitrary audits — drift reports, checksum diffs against a replica,
human sign-off — before readers can see them. Reference analog: the
blue/green alias swap of ``gc_elasticsearch_publisher.py:131-172``,
generalized from "swap one rebuilt index" to "swap in N audited epochs".

Gate interplay: ``replay-gated --branch`` composes (screened AND
staged); with quality mode nothing else is involved. With an INDEX
screen (exact/neardup), point the gate at a branch-scoped view
directory (build it fresh or copy the parent's): the gate refreshes its
index through each staged epoch, so sharing the parent's live view
would leave it ahead of the parent if the branch is later discarded —
the index's staleness guard then refuses it until a re-sync.

Design: a branch IS a table directory (``<table>/_branches/<name>/``)
whose fork manifest references the parent's committed data files through
ABSOLUTE paths (``os.path.join(branch_dir, abspath)`` resolves to the
parent file in every reader, with no ``..`` for a filesystem layer to
trip on) — zero bytes copied at fork, O(partitions) driver work. Every engine surface therefore works on a branch unchanged
(replay, gated replay, merge-on-read, compaction, validate, checksum,
drift, time travel); new epochs write branch-local files. Publish is a
fenced FAST-FORWARD: it requires the parent still at the fork point
(single-writer WAP; a moved parent means the audit ran against a stale
base), rewrites each staged manifest's relpaths into the parent's frame
(``../../X`` → ``X``; branch-local ``part=...`` → ``_branches/<name>/
part=...``), and commits the head through the parent's (epoch, rev)
fence — so the swap is atomic, crash-retryable, and preserves per-epoch
lineage in the parent's history. Published branch-local files age out
naturally: the next physical rewrite of their partitions lands in the
parent tree and vacuum sweeps the residue; open branches' files are
vacuum-protected (see ``maintenance.vacuum``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import replace

from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs

BRANCHES_DIR = "_branches"
FORK_FILE = "_FORK.json"
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def branch_path(table_dir: str, name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"bad branch name {name!r} (want [A-Za-z0-9._-], "
                         "≤64 chars, no leading punctuation)")
    return os.path.join(table_dir, BRANCHES_DIR, name)


def _fork_info(bdir: str, fs: StorageAdapter) -> dict | None:
    p = os.path.join(bdir, FORK_FILE)
    return json.loads(fs.read_text(p)) if fs.exists(p) else None


def _to_parent_frame(rel: str, table_dir: str, name: str) -> str:
    """Publish-time path mapping. Branch frame: inherited parent files
    are ABSOLUTE; branch-local files are plain ``part=...`` rels.
    Parent frame: inherited files become parent-relative again
    (portable manifests); branch-local files become
    ``_branches/<name>/part=...``."""
    if os.path.isabs(rel):
        return os.path.relpath(rel, table_dir)
    return os.path.join(BRANCHES_DIR, name, rel)


def _map_partitions(partitions: dict, fn) -> dict:
    out = {}
    for p, e in partitions.items():
        e = dict(e)
        if e.get("file"):
            e["file"] = fn(e["file"])
        if e.get("deltas"):
            e["deltas"] = [fn(d) for d in e["deltas"]]
        out[p] = e
    return out


def branch_create(table_dir: str, name: str, fs: StorageAdapter | None = None) -> dict:
    """Fork the committed state onto a new branch. No data is copied:
    the branch's genesis manifest points at the parent's files."""
    fs = default_fs(fs)
    cur = mf.load_current(table_dir, fs)
    if cur is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    bdir = branch_path(table_dir, name)
    if _fork_info(bdir, fs) is not None or mf.load_current(bdir, fs) is not None:
        raise FileExistsError(f"branch {name!r} already exists")
    fork = mf.TableManifest(
        epoch=cur.epoch,
        schema_b64=cur.schema_b64,
        partitions=_map_partitions(
            cur.partitions,
            lambda r: (r if os.path.isabs(r)  # re-fork of published residue
                       else os.path.abspath(os.path.join(table_dir, r)))),
        epoch_counters={**cur.epoch_counters, "branch_fork_of": table_dir},
        totals=cur.totals,
        num_partitions=cur.num_partitions,
        rev=cur.rev,
        dropped_columns=cur.dropped_columns,
    )
    fs.makedirs(bdir)
    if not mf.commit(bdir, fork, fs):
        raise RuntimeError(f"branch fork fenced out at {bdir}")
    fs.atomic_write_text(
        os.path.join(bdir, FORK_FILE),
        json.dumps({"name": name, "parent_epoch": cur.epoch,
                    "parent_rev": cur.rev}),
    )
    return {"branch": name, "path": bdir, "epoch": cur.epoch, "rev": cur.rev}


def list_branches(table_dir: str, fs: StorageAdapter | None = None) -> dict[str, dict]:
    """Open branches: name → {fork point, current head}."""
    fs = default_fs(fs)
    root = os.path.join(table_dir, BRANCHES_DIR)
    out: dict[str, dict] = {}
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        bdir = os.path.join(root, name)
        fork = _fork_info(bdir, fs)
        if fork is None:
            continue  # published residue (data files only) or junk
        head = mf.load_current(bdir, fs)
        out[name] = {
            "forked_at": [fork["parent_epoch"], fork["parent_rev"]],
            "head": [head.epoch, head.rev] if head else None,
            "staged_epochs": (head.epoch - fork["parent_epoch"]) if head else 0,
        }
    return out


def _staged_manifests(bdir: str, fork: dict, fs: StorageAdapter) -> list[mf.TableManifest]:
    """Branch manifests strictly after the fork point, ascending."""
    fp = (fork["parent_epoch"], fork["parent_rev"])
    return [mf.load_manifest(bdir, e, fs, rev=r)
            for e, r in mf.manifest_ids(bdir, fs) if (e, r) > fp]


def branch_publish(
    table_dir: str,
    name: str,
    require_clean: bool = False,
    audit_schema: dict | None = None,
    fs: StorageAdapter | None = None,
) -> dict:
    """Fast-forward the parent to the branch head — the audited epochs
    become the table, atomically, with their per-epoch lineage intact.

    Fenced twice: refuses unless the parent is still exactly at the fork
    point (non-fast-forward — the audit validated a stale base; discard
    and re-fork), and the head lands through ``manifest.commit``'s
    (epoch, rev) fence so a racing writer can't be overwritten. Crash
    anywhere = parent unchanged; retry republishes idempotently.
    Post-commit, the parent's declared subscribers sync, exactly as
    after a direct replay.

    ``require_clean=True`` is the built-in audit: the staged state must
    pass ``maintenance.validate_table`` (duplicate keys, n_tok/tokens
    mismatches, zone-map violations, ...) or publish refuses with the
    violation summary — nothing reaches readers unvalidated even if the
    operator forgot to audit by hand.

    ``audit_schema`` is the DECLARATIVE output-contract audit (the
    reference's ``--verify`` against ``output_schema.json``, run at
    publish time instead of parse time): the staged payload rows stream
    through ``stages.validate.validate_docs(mode='annotate')`` and a
    single contract violation refuses the publish, naming the failing
    row count and the first violation."""
    fs = default_fs(fs)
    bdir = branch_path(table_dir, name)
    fork = _fork_info(bdir, fs)
    if fork is None:
        raise FileNotFoundError(f"no open branch {name!r}")
    if require_clean:
        from .maintenance import validate_table

        rep = validate_table(bdir)
        if rep["violations"]:
            raise RuntimeError(
                f"branch {name!r} failed the publish audit: "
                f"{rep['violations']} — fix or discard; nothing published")
    if audit_schema is not None:
        import pyarrow as pa
        import pyarrow.compute as pc

        from ..stages.validate import validate_docs
        from .cdc import read_table

        # annotate mode; each block reduces to its failing-row count and
        # first error, so the refusal names the violation, and the
        # driver holds one row per block
        def failing(t):
            errs = t.filter(pc.invert(t["_valid"]))["_verr"]
            return pa.table({"n": pa.array([len(errs)], pa.int64()),
                             "first": pa.array(errs[:1].to_pylist() or [None],
                                               pa.string())})

        bad = validate_docs(read_table(bdir, payload_only=True, fs=fs),
                            audit_schema, mode="annotate").map_batches(
            failing, batch_format="pyarrow").to_pandas()
        if len(bad) and bad["n"].sum():
            raise RuntimeError(
                f"branch {name!r} failed the declared-schema audit: "
                f"{int(bad['n'].sum())} row(s) failed schema validation; "
                f"first: {bad['first'].dropna().iloc[0]} — fix or discard; "
                "nothing published")
    cur = mf.load_current(table_dir, fs)
    if cur is None or (cur.epoch, cur.rev) != (fork["parent_epoch"], fork["parent_rev"]):
        raise RuntimeError(
            f"non-fast-forward: parent moved to "
            f"{(cur.epoch, cur.rev) if cur else None} since branch {name!r} "
            f"forked at {(fork['parent_epoch'], fork['parent_rev'])} — "
            "the audit no longer covers the live base; discard and re-fork")
    staged = _staged_manifests(bdir, fork, fs)
    if not staged:
        _drop_branch_meta(bdir)
        return {"published_epochs": 0, "epoch": cur.epoch, "rev": cur.rev}
    mdir = os.path.join(table_dir, mf.MANIFEST_DIR)
    reframed = []
    for m in staged:
        reframed.append(replace(
            m,
            partitions=_map_partitions(
                m.partitions,
                lambda r: _to_parent_frame(r, table_dir, name)),
            epoch_counters={**m.epoch_counters, "published_from_branch": name},
        ))
    # intermediates first (history), head last through the commit fence;
    # a crash in between leaves future-epoch manifest files the retried
    # publish rewrites byte-identically — _CURRENT never moves early
    for m in reframed[:-1]:
        fs.atomic_write_text(os.path.join(mdir, m.name), m.to_json())
    if not mf.commit(table_dir, reframed[-1], fs):
        raise RuntimeError("publish fenced out by a racing parent commit")
    _drop_branch_meta(bdir)
    from .cdc import _sync_subscribers

    _sync_subscribers(table_dir, fs)
    head = reframed[-1]
    return {"published_epochs": len(reframed), "epoch": head.epoch,
            "rev": head.rev}


def _drop_branch_meta(bdir: str) -> None:
    """Close the branch: remove pointer/fork/manifests. Data files stay —
    after a publish the parent references them; a no-op publish leaves
    nothing (fork copied no data)."""
    shutil.rmtree(os.path.join(bdir, mf.MANIFEST_DIR), ignore_errors=True)
    for f in (mf.CURRENT_POINTER, FORK_FILE):
        p = os.path.join(bdir, f)
        if os.path.exists(p):
            os.remove(p)
    # a branch that never wrote data vanishes entirely
    if not any(e.startswith("part=") for e in os.listdir(bdir)):
        shutil.rmtree(bdir, ignore_errors=True)


def branch_discard(table_dir: str, name: str, fs: StorageAdapter | None = None) -> dict:
    """Throw the staged epochs away: delete the branch directory — its
    data files were never visible to parent readers. Refuses on a name
    with no open branch (published residue must not be deleted: the
    parent may reference those files)."""
    fs = default_fs(fs)
    bdir = branch_path(table_dir, name)
    if _fork_info(bdir, fs) is None:
        raise FileNotFoundError(
            f"no open branch {name!r} (already published or never created)")
    n_files = sum(
        len(files) for root, _d, files in os.walk(bdir)
        if os.path.basename(root).startswith("part="))
    shutil.rmtree(bdir)
    return {"discarded": name, "data_files_deleted": n_files}


def branch_diff(table_dir: str, name: str, mode: str = "events", fs=None):
    """The audit centerpiece: the I/U/D change rows (``mode="events"``)
    or Z-set retractions (``mode="retractions"``) that PUBLISHING the
    branch would apply to the parent — i.e. ``diff(parent@now,
    branch@head)`` — as a streaming Dataset.

    Zero-shuffle like :func:`engine.diff.diff_table_epochs`: both sides
    route keys with the same pinned hash modulus (branches inherit it),
    so each partition diffs in one task reading exactly two resolved
    states — and partitions the branch never touched still reference the
    parent's files by identical absolute path, so they prune without
    reading a byte. Cost is O(what the branch changed). If the parent
    moved since the fork, the diff is against the parent's CURRENT state
    — exactly what a publish would be refused over, so the report shows
    the operator what the conflict is about."""
    from .diff import _diff_manifests

    fs = default_fs(fs)
    bdir = branch_path(table_dir, name)
    if _fork_info(bdir, fs) is None:
        raise FileNotFoundError(f"no open branch {name!r}")
    man_old = mf.load_current(table_dir, fs)
    man_new = mf.load_current(bdir, fs)
    if man_old is None or man_new is None:
        raise FileNotFoundError("missing committed state on parent or branch")
    if man_old.num_partitions != man_new.num_partitions:
        raise ValueError("parent was repartitioned under the branch — "
                         "partition alignment lost; discard and re-fork")

    return _diff_manifests(man_old, table_dir, man_new, bdir, mode, fs)


def branch_rebase(table_dir: str, name: str, fs=None) -> dict:
    """Recover from non-fast-forward without losing the staged work:
    re-fork from the parent's NEW head and re-apply the branch's net
    change — unioned with the parent's own post-fork net change, see the
    inline correctness note — as one fresh epoch.

    The net change is the branch's own ``diff(fork state, head)`` —
    zero-shuffle, O(what the branch changed) — whose "events" mode is
    built for exactly this replay: inserted/updated keys carry the new
    row VERBATIM with its real (lsn, seq) lineage, deletes carry a
    tombstone at (old lsn, sentinel seq). Conflicts with what the parent
    adopted since the fork therefore resolve by LAST-WRITER-WINS on
    lineage: a parent WRITE newer than the branch's version survives, a
    branch delete loses to a genuinely newer parent write — the same
    rule every other merge in the engine follows, not a bespoke one.

    One asymmetry, pinned in tests: committed state compacts tombstones
    away, so a post-fork parent DELETE survives rebase only at the
    lineage of the row it deleted (the reverse-CDC floor) — a branch
    UPDATE of that key, being post-fork and therefore newer than the
    deleted row, resurrects it (update-beats-concurrent-delete, the
    standard choice when delete lineage is not retained). A parent
    delete of a key the branch never touched stays deleted.

    Refused on ``update_mode='coalesce'`` tables: a rebased full-image
    row would re-apply column-level history it did not observe.
    Crash-safe ordering: the rebased branch is built under a
    ``<name>.rebasing`` temp name; the original branch is kept (as
    ``<name>.old``) until the rebased one sits under the real name, then
    swept — a crash at any point leaves at least one intact copy of the
    staged work on disk."""
    from .cdc import apply_events_dataset
    from .diff import diff_table_epochs

    fs = default_fs(fs)
    bdir = branch_path(table_dir, name)
    fork = _fork_info(bdir, fs)
    if fork is None:
        raise FileNotFoundError(f"no open branch {name!r}")
    cur = mf.load_current(table_dir, fs)
    if cur is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    if cur.epoch_counters.get("update_mode", "replace") == "coalesce":
        raise ValueError(
            "rebase is not defined for update_mode='coalesce' tables "
            "(full-image re-apply would overwrite column-level history); "
            "discard and re-stage instead")
    if (cur.epoch, cur.rev) == (fork["parent_epoch"], fork["parent_rev"]):
        return {"rebased": False, "reason": "parent still at the fork "
                "point; publish directly"}
    head = mf.load_current(bdir, fs)
    if head is None or head.epoch <= fork["parent_epoch"]:
        # nothing staged: a fresh fork of the new head is the rebase
        branch_discard(table_dir, name, fs)
        branch_create(table_dir, name, fs)
        return {"rebased": True, "replayed_changes": 0,
                "new_base": [cur.epoch, cur.rev]}
    # the branch's net change, computed entirely inside the branch dir
    # (fork manifest and head manifest are partition-aligned by
    # construction); drop the change label — the rows ARE the events
    branch_net = diff_table_epochs(
        bdir, fork["parent_epoch"], head.epoch, mode="events", fs=fs
    ).map_batches(
        lambda t: t.drop_columns(["change"]), batch_format="pyarrow")
    n_changes = branch_net.count()
    # …UNIONed with the PARENT's net change since the fork. Required for
    # correctness, not an optimization: committed state drops tombstone
    # rows (safe under replay's strictly-greater-epoch rule), so applying
    # only the branch's events onto the new base would let an old branch
    # row RESURRECT a key the parent deleted post-fork. With both change
    # sets in one event epoch, the LWW combiner arbitrates every
    # conflict by true lineage — the diff kernel's sentinel-seq
    # tombstones beat the row they deleted and lose to genuinely newer
    # writes — and re-applied parent rows are idempotent no-ops.
    try:
        parent_net = diff_table_epochs(
            table_dir, fork["parent_epoch"], cur.epoch, mode="events", fs=fs
        ).map_batches(
            lambda t: t.drop_columns(["change"]), batch_format="pyarrow")
    except FileNotFoundError as e:
        raise RuntimeError(
            f"cannot rebase {name!r}: the fork-point manifest "
            f"(epoch {fork['parent_epoch']}) was vacuumed from the parent "
            "— the conflict set is unrecoverable; discard and re-stage"
        ) from e

    from ..core.reconcile import conform, unify_schemas

    uni = unify_schemas(head.schema, cur.schema)

    def to_uni(t):
        return conform(t, uni)

    events = (branch_net.map_batches(to_uni, batch_format="pyarrow")
              .union(parent_net.map_batches(to_uni, batch_format="pyarrow")))
    tmp_dir = branch_path(table_dir, f"{name}.rebasing")
    old_dir = branch_path(table_dir, f"{name}.old")
    for d in (tmp_dir, old_dir):  # debris from a crashed earlier attempt
        shutil.rmtree(d, ignore_errors=True)
    branch_create(table_dir, f"{name}.rebasing", fs)
    m = apply_events_dataset(
        events, tmp_dir, epoch=cur.epoch + 1,
        incoming_schema=uni,
        num_partitions=cur.num_partitions or head.num_partitions,
        fs=fs,
    )
    if m is None:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise RuntimeError("rebase apply was fenced out; retry")
    # swap, originals preserved until the new branch is in place
    os.rename(bdir, old_dir)
    os.replace(tmp_dir, bdir)
    shutil.rmtree(old_dir, ignore_errors=True)
    info = _fork_info(bdir, fs)
    info["name"] = name
    fs.atomic_write_text(os.path.join(bdir, FORK_FILE), json.dumps(info))
    return {"rebased": True, "replayed_changes": int(n_changes),
            "new_base": [cur.epoch, cur.rev],
            "head": [m.epoch, m.rev]}


def branch_referenced_files(table_dir: str, fs: StorageAdapter | None = None) -> set[str]:
    """Abspaths of every data file any OPEN branch's retained manifests
    reference — vacuum's protection set (an open branch must stay
    auditable even while the parent is vacuumed)."""
    fs = default_fs(fs)
    out: set[str] = set()
    root = os.path.join(table_dir, BRANCHES_DIR)
    if not os.path.isdir(root):
        return out
    for name in os.listdir(root):
        bdir = os.path.join(root, name)
        if _fork_info(bdir, fs) is None:
            continue
        for e, r in mf.manifest_ids(bdir, fs):
            m = mf.load_manifest(bdir, e, fs, rev=r)
            out.update(os.path.abspath(p) for p in m.data_files(bdir))
    return out
