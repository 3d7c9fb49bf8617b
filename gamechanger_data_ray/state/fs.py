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
from collections.abc import Iterator

import pyarrow as pa
import pyarrow.compute as pc
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

    def _publish(self, path: str, write, tag: str = "tmp") -> None:
        """Run ``write(p)`` so that ``path`` appears all-or-nothing: into an
        attempt-unique ``<path>.<tag>-<uuid>`` then an atomic rename on
        POSIX, directly to ``path`` on an object store (see module
        docstring)."""
        if self.atomic_rename:
            tmp = f"{path}.{tag}-{uuid.uuid4().hex}"
            write(tmp)
            self.fs.move(tmp, path)
        else:
            write(path)

    def _put(self, path: str, data: bytes) -> None:
        with self.fs.open_output_stream(path) as f:
            f.write(data)

    def atomic_write_bytes(self, path: str, data: bytes) -> None:
        """Binary twin of :meth:`atomic_write_text` (same commit split)."""
        self._publish(path, lambda p: self._put(p, data))

    # -- small text objects (manifests, pointers, markers) ------------------

    def read_text(self, path: str) -> str:
        with self.fs.open_input_stream(path) as f:
            return f.read().decode("utf-8")

    def atomic_write_text(self, path: str, data: str) -> None:
        """Publish a small text object all-or-nothing. POSIX: attempt-unique
        temp + atomic rename. Object store: direct PUT (atomic on
        complete); see module docstring for the conditional-put seam."""
        self._publish(path, lambda p: self._put(p, data.encode("utf-8")))

    # -- parquet ------------------------------------------------------------

    def read_parquet(
        self, path: str, columns: list[str] | None = None, keys: list | None = None,
    ) -> pa.Table:
        """One data file, or just ``columns`` of it, from one open and on
        the calling thread: every engine read is one partition's file,
        inside a one-CPU task or a driver-side lookup, so Arrow's thread
        pool would only add CPU. A projected name the file lacks (it
        predates a schema evolution) is skipped — ``conform`` null-fills
        it.

        ``keys`` keeps only the rows whose ``doc_id`` is one of them: only
        the row groups whose ``doc_id`` min/max can hold a key are read
        (the footer pushdown a point lookup needs once files hold many row
        groups), then the rows are filtered exactly."""
        with self.fs.open_input_file(path) as f:
            pf = pq.ParquetFile(f)
            if columns is not None:
                have = set(pf.schema_arrow.names)
                columns = [c for c in columns if c in have]
            if keys is None:
                return pf.read(columns=columns, use_threads=False)
            values = pa.array(keys, type=pf.schema_arrow.field("doc_id").type)
            groups = _row_groups_holding(pf.metadata, values.to_pylist())
            t = pf.read_row_groups(groups, columns=columns, use_threads=False)
            return t.filter(pc.is_in(t["doc_id"], value_set=values))

    def read_parquet_schema(self, path: str) -> pa.Schema:
        return pq.read_schema(path, filesystem=self.fs)

    def write_parquet_atomic(
        self, table: pa.Table, path: str, row_group_size: int | None = None,
    ) -> None:
        """Publish a parquet file all-or-nothing (same strategy split as
        :meth:`atomic_write_text`). Deterministic content makes concurrent
        attempts idempotent on both paths. Encodings follow
        :func:`parquet_encodings` of the table's schema: integer-list
        columns (``tokens``) delta-packed without a dictionary, every
        other column dictionary-encoded; snappy and statistics throughout.
        ``row_group_size`` bounds rows per row group — clustered rewrites
        use small groups so footer statistics stay selective for
        pushed-down predicates."""
        kw = parquet_encodings(table.schema)
        if row_group_size is not None:
            kw["row_group_size"] = row_group_size
        self._publish(path, lambda p: pq.write_table(table, p, filesystem=self.fs, **kw),
                      tag="inprogress")

    # -- Arrow IPC (the staged exchange) -------------------------------------

    def write_arrow_batches(self, path: str, tables: list[pa.Table]) -> None:
        """Publish ``tables`` (one schema) as one Arrow IPC file holding
        one record batch each, in order, so batch ``i`` is ``tables[i]``
        (same commit split as :meth:`write_parquet_atomic`). Arrow's own
        columnar layout, uncompressed: the exchange never re-encodes."""
        batches = [pa.record_batch([c.combine_chunks() for c in t.columns], schema=t.schema)
                   for t in tables]

        def write(p: str) -> None:
            with self.fs.open_output_stream(p) as f, \
                    pa.ipc.new_file(f, tables[0].schema) as w:
                for b in batches:
                    w.write_batch(b)

        self._publish(path, write, tag="inprogress")

    def read_arrow_batches(self, path: str, indices: list[int]) -> Iterator[pa.Table]:
        """Yield record batch ``i`` of an IPC file written by
        :meth:`write_arrow_batches` for each ``i`` in ``indices``, in
        order, from ONE open and one footer parse; the footer locates
        each batch, so no other batch is read. Lazy: a batch is read when
        the consumer asks for it, and the file stays open until the
        generator is exhausted or closed."""
        with self.fs.open_input_file(path) as f:
            reader = pa.ipc.open_file(f)
            for i in indices:
                yield pa.Table.from_batches([reader.get_batch(i)])


def parquet_encodings(schema: pa.Schema) -> dict:
    """``pyarrow.parquet`` writer arguments for ``schema``, a function of
    the schema alone so every engine data file with the same schema is
    encoded the same way.

    A list or large-list column of integers (the token ids) has values
    from a vocabulary too large for a dictionary to pay: its values leaf
    ``<name>.list.element`` is written without one, ``DELTA_BINARY_PACKED``
    (about half the bytes and write time of dictionary encoding on token
    lists). Every other leaf keeps pyarrow's defaults (dictionary on).
    pyarrow accepts a ``column_encoding`` only for a leaf left out of
    ``use_dictionary``, and a top-level name there does not reach nested
    leaves, so ``use_dictionary`` lists leaf paths (``s.a``,
    ``m.list.element``). A schema with no such column gets ``{}``."""
    delta = [f"{f.name}.list.element" for f in schema
             if (pa.types.is_list(f.type) or pa.types.is_large_list(f.type))
             and pa.types.is_integer(f.type.value_type)]
    if not delta:
        return {}
    leaves = [p for f in schema for p in _leaf_paths(f.name, f.type)]
    return {"use_dictionary": [p for p in leaves if p not in delta],
            "column_encoding": dict.fromkeys(delta, "DELTA_BINARY_PACKED")}


def _leaf_paths(path: str, t: pa.DataType) -> Iterator[str]:
    """Parquet column paths of the leaves under an Arrow field."""
    if pa.types.is_struct(t):
        for i in range(t.num_fields):
            yield from _leaf_paths(f"{path}.{t.field(i).name}", t.field(i).type)
    elif pa.types.is_map(t):
        yield from _leaf_paths(f"{path}.key_value.key", t.key_type)
        yield from _leaf_paths(f"{path}.key_value.value", t.item_type)
    elif (pa.types.is_list(t) or pa.types.is_large_list(t)
          or pa.types.is_fixed_size_list(t)):
        yield from _leaf_paths(f"{path}.list.element", t.value_type)
    else:
        yield path


def _row_groups_holding(meta: pq.FileMetaData, keys: list) -> list[int]:
    """Row groups whose ``doc_id`` statistics admit one of ``keys``; a
    group without min/max (or with bounds that do not compare) is kept."""
    col = [meta.schema.column(i).path for i in range(meta.num_columns)].index("doc_id")
    out = []
    for g in range(meta.num_row_groups):
        st = meta.row_group(g).column(col).statistics
        if st is None or not st.has_min_max:
            out.append(g)
            continue
        try:
            if any(st.min <= k <= st.max for k in keys):
                out.append(g)
        except TypeError:
            out.append(g)
    return out


LOCAL = StorageAdapter()


def default_fs(fs: StorageAdapter | None) -> StorageAdapter:
    return fs if fs is not None else LOCAL
