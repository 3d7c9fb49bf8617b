"""Storage abstraction for the engine's table / staging / changelog I/O.

The round-1 engine hardwired ``os.listdir`` / ``os.replace`` / local
paths, which confines the staged exchange and the manifest commit to a
shared POSIX filesystem. :class:`StorageAdapter` routes every engine I/O
through a ``pyarrow.fs.FileSystem`` handle instead, so the same code runs
against local disk, NFS, or an object store (S3/GCS via
``pyarrow.fs.S3FileSystem`` etc. — not constructible in this sandbox, but
the call surface is identical).

Commit protocol by store class
------------------------------
- ``atomic_rename=True`` (local POSIX / NFS): files are written to an
  attempt-unique temp name and published with an atomic rename — readers
  never observe a torn file.
- ``atomic_rename=False`` (object stores): there is no rename; a PUT is
  atomic-on-complete, so files are written DIRECTLY to their final key
  and become visible only when complete. This is safe for every engine
  artifact because all of them are deterministic: concurrent/replayed
  attempts write byte-identical content for the same key, so
  last-writer-wins is indistinguishable from exactly-once. The one
  read-modify-write object is the ``_CURRENT`` pointer; its epoch fence
  (refuse to move backwards) makes lost-update harmless for replays of
  the SAME epoch ladder, but a true multi-writer deployment on an object
  store should swap the pointer via the store's conditional-put
  (If-Match / generation precondition) — the adapter exposes
  ``atomic_write_text`` as the single seam where that lands.

The adapter is picklable (pyarrow filesystems are), so map task closures
carry it to workers.
"""

from __future__ import annotations

import posixpath
import uuid

import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq


class StorageAdapter:
    def __init__(self, fs: pafs.FileSystem | None = None, atomic_rename: bool | None = None):
        self.fs = fs or pafs.LocalFileSystem()
        if atomic_rename is None:
            atomic_rename = isinstance(self.fs, pafs.LocalFileSystem) or isinstance(
                self.fs, pafs.SubTreeFileSystem
            )
        self.atomic_rename = atomic_rename

    # -- directory ops ------------------------------------------------------

    def makedirs(self, path: str) -> None:
        self.fs.create_dir(path, recursive=True)

    def exists(self, path: str) -> bool:
        return self.fs.get_file_info(path).type != pafs.FileType.NotFound

    def isdir(self, path: str) -> bool:
        return self.fs.get_file_info(path).type == pafs.FileType.Directory

    def listdir(self, path: str) -> list[str]:
        """Immediate child names (files and dirs); [] if absent."""
        if not self.isdir(path):
            return []
        sel = pafs.FileSelector(path, recursive=False, allow_not_found=True)
        return sorted(posixpath.basename(i.path) for i in self.fs.get_file_info(sel))

    def list_files(self, path: str, suffix: str = "") -> list[str]:
        """Full paths of immediate child FILES, filtered by suffix."""
        if not self.isdir(path):
            return []
        sel = pafs.FileSelector(path, recursive=False, allow_not_found=True)
        return sorted(
            i.path
            for i in self.fs.get_file_info(sel)
            if i.type == pafs.FileType.File and i.path.endswith(suffix)
        )

    def rmtree(self, path: str) -> None:
        try:
            self.fs.delete_dir(path)
        except (FileNotFoundError, OSError):
            pass

    def rm(self, path: str) -> None:
        """Delete one file; missing is fine (idempotent retention ops)."""
        try:
            self.fs.delete_file(path)
        except (FileNotFoundError, OSError):
            pass

    # -- small binary objects (bloom sidecars) -------------------------------

    def read_bytes(self, path: str) -> bytes:
        with self.fs.open_input_stream(path) as f:
            return f.read()

    def atomic_write_bytes(self, path: str, data: bytes) -> None:
        """Binary twin of :meth:`atomic_write_text` (same commit split)."""
        if self.atomic_rename:
            tmp = f"{path}.tmp-{uuid.uuid4().hex}"
            with self.fs.open_output_stream(tmp) as f:
                f.write(data)
            self.fs.move(tmp, path)
        else:
            with self.fs.open_output_stream(path) as f:
                f.write(data)

    # -- small text objects (manifests, pointers, markers) ------------------

    def read_text(self, path: str) -> str:
        with self.fs.open_input_stream(path) as f:
            return f.read().decode("utf-8")

    def atomic_write_text(self, path: str, data: str) -> None:
        """Publish a small text object all-or-nothing. POSIX: attempt-unique
        temp + atomic rename. Object store: direct PUT (atomic on
        complete); see module docstring for the conditional-put seam."""
        if self.atomic_rename:
            tmp = f"{path}.tmp-{uuid.uuid4().hex}"
            with self.fs.open_output_stream(tmp) as f:
                f.write(data.encode("utf-8"))
            self.fs.move(tmp, path)
        else:
            with self.fs.open_output_stream(path) as f:
                f.write(data.encode("utf-8"))

    # -- parquet ------------------------------------------------------------

    def read_parquet(self, path: str, columns: list[str] | None = None) -> pa.Table:
        """The whole file, or just ``columns``. A projected name the file
        lacks (it predates a schema evolution) is skipped — ``conform``
        null-fills it — and the footer and the columns come from one
        open."""
        if columns is None:
            return pq.read_table(path, filesystem=self.fs)
        with self.fs.open_input_file(path) as f:
            pf = pq.ParquetFile(f)
            have = set(pf.schema_arrow.names)
            return pf.read(columns=[c for c in columns if c in have])

    def read_parquet_schema(self, path: str) -> pa.Schema:
        return pq.read_schema(path, filesystem=self.fs)

    def write_parquet_atomic(
        self, table: pa.Table, path: str, row_group_size: int | None = None,
    ) -> None:
        """Publish a parquet file all-or-nothing (same strategy split as
        :meth:`atomic_write_text`). Deterministic content makes concurrent
        attempts idempotent on both paths. ``row_group_size`` bounds rows
        per row group — clustered rewrites use small groups so footer
        statistics stay selective for pushed-down predicates."""
        kw = {} if row_group_size is None else {"row_group_size": row_group_size}
        if self.atomic_rename:
            tmp = f"{path}.inprogress-{uuid.uuid4().hex}"
            pq.write_table(table, tmp, filesystem=self.fs, **kw)
            self.fs.move(tmp, path)
        else:
            pq.write_table(table, path, filesystem=self.fs, **kw)


LOCAL = StorageAdapter()


def default_fs(fs: StorageAdapter | None) -> StorageAdapter:
    return fs if fs is not None else LOCAL
