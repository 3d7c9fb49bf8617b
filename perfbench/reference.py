"""Independent DuckDB reference for the benchmark's results.

The reference is last-writer-wins over the raw changelog files: per
``doc_id`` the event with the highest ``(lsn, seq)`` wins and deletes drop
out. Epochs are read with ``union_by_name`` because the generator evolves
the schema at epochs 3 and 4. ``lsn`` is the epoch number, so "as of epoch
E" is the same query over events with ``lsn <= E``.
"""

from __future__ import annotations

import os

import duckdb
import pyarrow as pa
import pyarrow.compute as pc

COLUMNS = ["doc_id", "n_tok", "tokens"]
# (lsn, seq) as one orderable number; seq stays far below 2**32 per epoch
_ORDER = "lsn * 4294967296 + seq"


def _sym_diff(ref: str, got: str) -> str:
    """A WITH clause defining ``d``: rows in exactly one of the two
    queries, counted as multisets."""
    return (f"WITH r AS ({ref}), g AS ({got}),"
            f" d AS (SELECT * FROM (SELECT * FROM r EXCEPT ALL SELECT * FROM g)"
            f"       UNION ALL SELECT * FROM (SELECT * FROM g EXCEPT ALL SELECT * FROM r))")


def normalize(t: pa.Table) -> pa.Table:
    """The compared columns of an engine result, with ``n_tok`` as int64
    (older epochs store it as int32)."""
    t = t.select(COLUMNS)
    return t.set_column(1, "n_tok", pc.cast(t["n_tok"], pa.int64()))


class Reference:
    """DuckDB session; each changelog is read once into a table and each
    (changelog, epoch) reference state is computed once."""

    def __init__(self):
        self.con = duckdb.connect()
        self.con.execute("SET threads = 2")
        self._events: dict[str, str] = {}
        self._states: dict[tuple[str, int], str] = {}

    def close(self) -> None:
        self.con.close()

    def _events_table(self, changelog: str) -> str:
        if changelog not in self._events:
            name = f"ev{len(self._events)}"
            glob = os.path.join(changelog, "epoch=*", "*.parquet").replace("'", "''")
            self.con.execute(
                f"CREATE TEMP TABLE {name} AS SELECT row_number() OVER () AS rid, op, lsn,"
                f" seq, doc_id, CAST(n_tok AS BIGINT) AS n_tok, tokens FROM"
                f" read_parquet('{glob}', union_by_name = true, hive_partitioning = false)")
            self._events[changelog] = name
        return self._events[changelog]

    def state(self, changelog: str, asof: int) -> str:
        """Name of a table holding the reference rows as of ``asof``."""
        key = (changelog, int(asof))
        if key not in self._states:
            name = f"lww{len(self._states)}"
            ev = self._events_table(changelog)
            self.con.execute(
                f"CREATE TEMP TABLE {name} AS SELECT e.doc_id, e.n_tok, e.tokens FROM"
                f" (SELECT max_by(rid, {_ORDER}) AS rid FROM {ev} WHERE lsn <= {int(asof)}"
                f"  GROUP BY doc_id) w JOIN {ev} e USING (rid) WHERE e.op <> 'D'")
            self._states[key] = name
        return self._states[key]

    def rows(self, changelog: str, asof: int) -> int:
        return self.con.execute(f"SELECT count(*) FROM {self.state(changelog, asof)}").fetchone()[0]

    def table_diff(self, changelog: str, asof: int, got: pa.Table) -> int:
        """Rows in the symmetric difference between ``got`` and the
        reference table as of ``asof``; 0 means equal as multisets."""
        self.con.register("got_table", normalize(got))
        try:
            return self.con.execute(
                f"{_sym_diff(f'SELECT * FROM {self.state(changelog, asof)}', 'SELECT * FROM got_table')}"
                f" SELECT count(*) FROM d").fetchone()[0]
        finally:
            self.con.unregister("got_table")

    def bad_lookups(self, changelog: str, lookups: list[dict]) -> set[int]:
        """Indexes of lookups whose rows differ from the reference rows for
        their keys as of the epoch they ran at."""
        if not lookups:
            return set()
        probe, asof, keys, parts = [], [], [], []
        for i, lk in enumerate(lookups):
            for k in sorted(set(lk["keys"])):
                probe.append(i)
                asof.append(lk["asof"])
                keys.append(k)
            got = normalize(lk["got"])
            parts.append(got.add_column(0, "probe", pa.array([i] * got.num_rows, pa.int64())))
        self.con.register("probes", pa.table({"probe": pa.array(probe, pa.int64()),
                                              "at_epoch": pa.array(asof, pa.int64()),
                                              "doc_id": pa.array(keys, pa.string())}))
        self.con.register("got_rows", pa.concat_tables(parts))
        try:
            # winners are picked once per (epoch, key) on the narrow columns:
            # hot keys have thousands of events and recur in many lookups
            ev = self._events_table(changelog)
            ref = (f"SELECT p.probe, e.doc_id, e.n_tok, e.tokens FROM probes p JOIN ("
                   f"  SELECT k.at_epoch, k.doc_id, max_by(e.rid, {_ORDER}) AS rid"
                   f"  FROM (SELECT DISTINCT at_epoch, doc_id FROM probes) k"
                   f"  JOIN {ev} e ON e.doc_id = k.doc_id WHERE e.lsn <= k.at_epoch"
                   f"  GROUP BY k.at_epoch, k.doc_id) w USING (at_epoch, doc_id)"
                   f" JOIN {ev} e USING (rid) WHERE e.op <> 'D'")
            rows = self.con.execute(
                f"{_sym_diff(ref, 'SELECT * FROM got_rows')} SELECT DISTINCT probe FROM d"
            ).fetchall()
            return {r[0] for r in rows}
        finally:
            self.con.unregister("probes")
            self.con.unregister("got_rows")

    def bad_scans(self, changelog: str, scans: list[dict]) -> set[int]:
        """Indexes of scans whose row count differs from the reference
        count of rows with ``lo <= n_tok <= hi`` as of their epoch."""
        bad = set()
        for i, s in enumerate(scans):
            want = self.con.execute(
                f"SELECT count(*) FROM {self.state(changelog, s['asof'])}"
                f" WHERE n_tok BETWEEN {int(s['lo'])} AND {int(s['hi'])}").fetchone()[0]
            if want != s["rows"]:
                bad.add(i)
        return bad
