"""Table manifests + checkpoint pointer — the exactly-once commit protocol.

Reference analogs:
- ``checkpoint.txt`` advance-after-processing (at-least-once tail):
  ``dataPipelines/gc_ingest/tools/checkpoint/utils.py:154-191``
- idempotent sink identity (ES ``_id = sha256(filename)`` replay-safe put):
  ``gc_elasticsearch_publisher.py:79-100``
- blue/green publish via alias swap (manifest pointer swap here):
  ``gc_elasticsearch_publisher.py:131-172``
- backup refuses to clobber an existing ts-prefix (fencing):
  ``dataPipelines/gc_ingest/tools/snapshot/utils.py:193-195``

Protocol: data files have deterministic names ``part=K/data-eEEEEEE.parquet``
(a re-run of an epoch overwrites byte-identically); a manifest JSON lists the
exact current file per partition; ``_CURRENT`` is an atomically-replaced
pointer naming the committed manifest + epoch. Observable state = whatever
``_CURRENT`` points at, so a crash between data write and pointer swap is
invisible and replay reconverges — exactly-once observable semantics on top
of Ray's at-least-once tasks.

Every retained manifest stays readable until vacuum drops it; the catalog
of them is read here and nowhere else, through the storage adapter:
:func:`manifest_ids` lists ``(epoch, rev)`` of each retained file,
:func:`list_manifests` the retained epochs, and :func:`load_manifest` one
epoch's newest (or a given) revision. :func:`swap_pointer` is the one
writer of the ``_CURRENT`` format; :func:`commit` fences before calling it.
"""

from __future__ import annotations

import base64
import json
import os
import uuid
from dataclasses import dataclass, field
from typing import Any

import pyarrow as pa

from .fs import StorageAdapter, default_fs

CURRENT_POINTER = "_CURRENT"
MANIFEST_DIR = "_manifests"


def schema_to_b64(schema: pa.Schema) -> str:
    return base64.b64encode(schema.serialize().to_pybytes()).decode("ascii")


def schema_from_b64(s: str) -> pa.Schema:
    return pa.ipc.read_schema(pa.BufferReader(base64.b64decode(s)))


def entry_rels(entry: dict[str, Any]) -> list[str]:
    """A partition entry's data files, relative to the table dir: the
    base (if any) then its merge-on-read deltas, oldest→newest — the
    order LWW resolution reads them in."""
    return ([entry["file"]] if entry.get("file") else []) + list(entry.get("deltas", ()))


@dataclass
class TableManifest:
    epoch: int
    schema_b64: str
    # partition id (str) -> entry, built ONLY by cdc.fold_entry:
    #   {"file": relpath|None, "rows": int, "watermark_lsn": int,
    #    "deltas": [relpath, ...],  (merge-on-read epoch files, ordered
    #      oldest→newest; absent/[] = plain copy-on-write partition)
    #    "key_min": str, "key_max": str,  (key zone map; "" = none)
    #    "content_sig": str,  (identity of the resolved logical state,
    #      layout-independent — unchanged by compact/cluster)
    #    "col_stats": {col: [min, max]},  (payload zone maps; possibly
    #      wide after delta commits; absent = unknown, never prune)
    #    "col_sketch": {col: base64 KLL},  (numeric payload quantiles)
    #    "col_sketch_mor": True}  (present = col_sketch was folded over
    #      merge-on-read deltas and is approximate until a rewrite)
    partitions: dict[str, dict[str, Any]] = field(default_factory=dict)
    # lineage: per-epoch counters for THIS epoch + running totals
    epoch_counters: dict[str, Any] = field(default_factory=dict)
    totals: dict[str, int] = field(default_factory=dict)
    # the hash-partition count rows were routed with — pinned at table
    # creation; changing it requires an explicit repartition rewrite
    # (routing new events with a different modulus than the stored state
    # would silently duplicate keys across partition files)
    num_partitions: int | None = None
    # same-epoch revision: bumped by physical rewrites that do not change
    # logical state (compaction). Fencing is on (epoch, rev).
    rev: int = 0
    # column-DROP tombstones (schema evolution, the drop half of
    # add/widen/rename/drop): names removed from the live schema whose
    # bytes may still sit in committed data files. While listed here the
    # name is (a) stripped from incoming event schemas before unification
    # — a producer still sending the column can't resurrect it — and
    # (b) blocked from re-use. ``maintenance.retire_dropped`` clears a
    # tombstone once no current-manifest file still carries the column
    # (i.e. after the partitions were physically rewritten), after which
    # the name may be re-introduced as a fresh column (nulls for all
    # pre-existing rows — never the old values).
    dropped_columns: list[str] = field(default_factory=list)

    @property
    def schema(self) -> pa.Schema:
        return schema_from_b64(self.schema_b64)

    def data_files(self, table_dir: str) -> list[str]:
        return [os.path.join(table_dir, r)
                for p in self.partitions.values() for r in entry_rels(p)]

    def partition_files(self, table_dir: str, part: str) -> list[str]:
        """Base file + ordered delta files for one partition."""
        return [os.path.join(table_dir, r) for r in entry_rels(self.partitions[part])]

    @property
    def name(self) -> str:
        return manifest_name(self.epoch, self.rev)

    def to_json(self) -> str:
        return json.dumps(
            {
                "epoch": self.epoch,
                "schema_b64": self.schema_b64,
                "schema_repr": str(self.schema).replace("\n", "; "),
                "partitions": self.partitions,
                "epoch_counters": self.epoch_counters,
                "totals": self.totals,
                "num_partitions": self.num_partitions,
                "rev": self.rev,
                "dropped_columns": self.dropped_columns,
            },
            indent=1,
        )

    @staticmethod
    def from_json(s: str) -> "TableManifest":
        d = json.loads(s)
        return TableManifest(
            epoch=d["epoch"],
            schema_b64=d["schema_b64"],
            partitions=d.get("partitions", {}),
            epoch_counters=d.get("epoch_counters", {}),
            totals=d.get("totals", {}),
            num_partitions=d.get("num_partitions"),
            rev=d.get("rev", 0),
            dropped_columns=d.get("dropped_columns", []),
        )


def manifest_name(epoch: int, rev: int = 0) -> str:
    """``manifest-EEEEEE.json`` for rev 0 (back-compat with every manifest
    written before revisions existed), ``manifest-EEEEEErRRR.json`` after a
    same-epoch rewrite."""
    return (f"manifest-{epoch:06d}.json" if rev == 0
            else f"manifest-{epoch:06d}r{rev:03d}.json")


def parse_manifest_name(name: str) -> tuple[int, int] | None:
    """(epoch, rev) from a manifest filename, or None if not one."""
    if not (name.startswith("manifest-") and name.endswith(".json")):
        return None
    stem = name[len("manifest-"):-len(".json")]
    if "r" in stem:
        e, _, r = stem.partition("r")
        try:
            return int(e), int(r)
        except ValueError:
            return None
    try:
        return int(stem), 0
    except ValueError:
        return None


def _atomic_write(path: str, data: str) -> None:
    # attempt-unique temp name: racing committers write identical content
    # for the same path, but a SHARED temp name lets one attempt's rename
    # delete the other's half-written temp (observed as FileNotFoundError
    # under concurrent replay; pids alone are not unique across nodes)
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    with open(tmp, "w") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def load_current(table_dir: str, fs: StorageAdapter | None = None) -> TableManifest | None:
    """The committed manifest, or None for a fresh table."""
    fs = default_fs(fs)
    ptr = os.path.join(table_dir, CURRENT_POINTER)
    if not fs.exists(ptr):
        return None
    p = json.loads(fs.read_text(ptr))
    return TableManifest.from_json(
        fs.read_text(os.path.join(table_dir, MANIFEST_DIR, p["manifest"]))
    )


def commit(table_dir: str, manifest: TableManifest, fs: StorageAdapter | None = None) -> bool:
    """Atomically publish ``manifest`` as the table's current state.

    Epoch fencing: refuses (returns False) if the committed (epoch, rev) is
    already >= the manifest's — a stale/duplicate attempt must not move the
    table backwards (reference fence: ``snapshot/utils.py:193-195``).
    Same-epoch revisions (compaction: new files, identical logical state)
    fence on ``rev``. On stores without atomic rename the pointer swap is a
    plain PUT — see ``state/fs.py`` for the commit-protocol notes per
    store class.
    """
    fs = default_fs(fs)
    cur = load_current(table_dir, fs)
    if cur is not None and (cur.epoch, cur.rev) >= (manifest.epoch, manifest.rev):
        return False
    mdir = os.path.join(table_dir, MANIFEST_DIR)
    fs.makedirs(mdir)
    fs.atomic_write_text(os.path.join(mdir, manifest.name), manifest.to_json())
    swap_pointer(table_dir, manifest, fs)
    return True


def swap_pointer(table_dir: str, manifest: TableManifest,
                 fs: StorageAdapter | None = None) -> None:
    """Point ``_CURRENT`` at ``manifest``, whose file is already written.
    Unfenced: :func:`commit` fences before calling it, and a restore
    calls it directly because it moves the table backwards on purpose."""
    default_fs(fs).atomic_write_text(
        os.path.join(table_dir, CURRENT_POINTER),
        json.dumps({"epoch": manifest.epoch, "rev": manifest.rev,
                    "manifest": manifest.name}),
    )


def committed_epoch(table_dir: str, fs: StorageAdapter | None = None) -> int:
    cur = load_current(table_dir, fs)
    return cur.epoch if cur else 0


def manifest_ids(table_dir: str, fs: StorageAdapter | None = None) -> list[tuple[int, int]]:
    """Sorted ``(epoch, rev)`` of every retained manifest file; [] if the
    table has none."""
    names = default_fs(fs).listdir(os.path.join(table_dir, MANIFEST_DIR))
    return sorted(er for er in map(parse_manifest_name, names) if er is not None)


def list_manifests(table_dir: str, fs: StorageAdapter | None = None) -> list[int]:
    """Epochs with a retained manifest, ascending."""
    return sorted({e for e, _ in manifest_ids(table_dir, fs)})


def load_manifest(table_dir: str, epoch: int, fs: StorageAdapter | None = None,
                  rev: int | None = None) -> TableManifest:
    """A retained manifest: ``epoch`` at ``rev``, by default its newest
    retained rev (a rev is a physical rewrite — compaction — of the same
    logical state, so the newest one is the one whose files exist)."""
    fs = default_fs(fs)
    if rev is None:
        ids = manifest_ids(table_dir, fs)
        revs = [r for e, r in ids if e == epoch]
        if not revs:
            raise FileNotFoundError(
                f"no retained manifest for epoch {epoch} "
                f"(have {sorted({e for e, _ in ids})})")
        rev = revs[-1]
    return TableManifest.from_json(fs.read_text(
        os.path.join(table_dir, MANIFEST_DIR, manifest_name(epoch, rev))))
