"""Last-writer-wins merge kernel and the one partition merge — pure Arrow +
numpy, no Ray.

Semantics are the reference's corpus-snapshot view
(``dataPipelines/gc_db_utils/orch/sql/create_views.sql:16-44``): the latest
``versioned_docs`` row per publication wins
(``MAX(batch_timestamp) OVER (PARTITION BY pub_id)``), revoked/deleted keys
drop out. The reference tie-breaks equal timestamps arbitrarily via
DISTINCT (``create_views.sql:24``); we define the deterministic total order
``(lsn DESC, seq DESC)``.

The reduce is associative: LWW(LWW(partials)) == LWW(whole), tombstones
included — which is what lets the engine pre-reduce inside ``map_batches``
(a combiner) before the hash shuffle, the salted-split answer to hot keys.

:func:`merge_partition_with` is the one partition merge (state rows + one
epoch's events → new rows + lineage counters). It decodes the event
weights once, asks a reduce step for the winners per key and which of
them came from the events, counts upserts and deletes (an Arrow
membership test against the state keys), drops tombstones and sorts by
key. Row-LWW (:func:`merge_partition`) and column-coalesce
(``core/coalesce.py::merge_partition_coalesce``) supply only their reduce
step — whose tie-breaks differ on purpose: at an exactly equal (lsn, seq)
the LWW sort keeps the state row (the first), coalesce keeps the event
(the last).

All kernels are vectorized: sort_indices + dictionary codes + numpy
first-occurrence; no Python-per-row loops.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .schemas import KEY_COLUMN, OP_COLUMN, ORDER_COLUMNS, TOMBSTONE_OP

EVENTS_REP = "_events_rep"  # raw events collapsed into this reduced row
TOMBS_REP = "_tombs_rep"  # raw tombstone events collapsed into it


def event_weights(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """How many raw events, and raw tombstones, each row of ``t`` stands
    for: its ``EVENTS_REP``/``TOMBS_REP`` columns when a weighted reduce
    made it, else 1 and is-tombstone."""
    if EVENTS_REP in t.schema.names:
        return (t[EVENTS_REP].to_numpy(zero_copy_only=False),
                t[TOMBS_REP].to_numpy(zero_copy_only=False))
    is_del = pc.equal(t[OP_COLUMN], pa.scalar(TOMBSTONE_OP))
    return (np.ones(t.num_rows, dtype=np.int64),
            is_del.to_numpy(zero_copy_only=False).astype(np.int64))


def drop_weights(t: pa.Table) -> pa.Table:
    return t.drop_columns([EVENTS_REP, TOMBS_REP]) if EVENTS_REP in t.schema.names else t


def key_codes(keys: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Dense int64 code per row: equal keys share a code (the dictionary
    indices of the key column)."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return pc.dictionary_encode(keys).indices.to_numpy(zero_copy_only=False).astype(np.int64)


def _lww_winners(t: pa.Table, key: str, order: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row index in ``t`` of each key's winner — its first row in the
    stable ``order``-descending sort — ascending by that sort position,
    plus the key codes of ``t``."""
    rank = pc.sort_indices(t, sort_keys=[(c, "descending") for c in order])
    rank = rank.to_numpy().astype(np.int64)
    codes = key_codes(t[key])
    _, first = np.unique(codes[rank], return_index=True)
    first.sort()
    return rank[first], codes


def lww_reduce(
    t: pa.Table,
    key: str = KEY_COLUMN,
    order: tuple[str, ...] = ORDER_COLUMNS,
) -> pa.Table:
    """Keep, per ``key``, the single row that wins the ``order`` total order
    (highest wins; ties impossible when (lsn, seq) is a total order — if
    duplicate deliveries repeat the exact (lsn, seq), the first after the
    stable sort wins deterministically).

    Tombstone rows are KEPT — a tombstone must survive partial reduces so it
    can delete state downstream. Filter with :func:`drop_tombstones` at the
    end of the full merge.
    """
    if t.num_rows == 0:
        return t
    win, _ = _lww_winners(t, key, order)
    return t.take(pa.array(win))


def lww_reduce_weighted(
    t: pa.Table,
    key: str = KEY_COLUMN,
    order: tuple[str, ...] = ORDER_COLUMNS,
) -> pa.Table:
    """:func:`lww_reduce` that also attaches per-winner weight columns
    counting how many raw events (and how many tombstones) were collapsed —
    so lineage counters stay exact through the combiner. Weights compose:
    if ``t`` already carries weight columns (a reduce of reduced partials),
    they are summed per key instead of counted."""
    if t.num_rows == 0:
        return t
    w, wt = event_weights(t)
    t = drop_weights(t)
    win, codes = _lww_winners(t, key, order)
    win_codes = codes[win]
    out = t.take(pa.array(win))
    out = out.append_column(
        EVENTS_REP, pa.array(np.bincount(codes, weights=w).astype(np.int64)[win_codes]))
    out = out.append_column(
        TOMBS_REP, pa.array(np.bincount(codes, weights=wt).astype(np.int64)[win_codes]))
    return out


def drop_tombstones(t: pa.Table, op: str = OP_COLUMN) -> pa.Table:
    """Remove rows whose winning op is a delete."""
    if t.num_rows == 0:
        return t
    return t.filter(pc.not_equal(t.column(op), pa.scalar(TOMBSTONE_OP)))


def _live_by_key(t: pa.Table) -> pa.Table:
    """``t`` without its tombstone rows, sorted by key — one ``take``."""
    if t.num_rows == 0:
        return t
    live = pc.indices_nonzero(pc.not_equal(t[OP_COLUMN], pa.scalar(TOMBSTONE_OP)))
    return t.take(live.take(pc.sort_indices(t[KEY_COLUMN].take(live))))


def collapse_deltas(tables: list[pa.Table], sort_by_key: bool = True) -> pa.Table:
    """Resolve a merge-on-read partition — base state + ordered delta files
    (delta rows carry their real (lsn, seq), so plain LWW is the resolver;
    delta tombstones suppress base rows and then drop out). Single-table
    fast path: a copy-on-write partition is already resolved."""
    if not tables:
        return pa.table({})
    if len(tables) == 1:
        # a lone delta file (partition born in delta mode) still carries
        # tombstone rows; a copy-on-write base never does (cheap no-op)
        return drop_tombstones(tables[0]) if OP_COLUMN in tables[0].schema.names else tables[0]
    won = lww_reduce(pa.concat_tables(tables, promote_options="default"))
    return _live_by_key(won) if sort_by_key else drop_tombstones(won)


def _count(mask) -> int:
    return int(pc.sum(mask).as_py() or 0)


def merge_partition_with(
    state: pa.Table | None,
    events: pa.Table,
    reduce: Callable[[pa.Table | None, pa.Table], tuple[pa.Table, pa.Array]],
) -> tuple[pa.Table, dict[str, int]]:
    """Merge one hash partition: current ``state`` rows + this epoch's
    ``events`` (both already conformed to one unified schema, with ``state``
    rows carrying op='I'/their stored provenance; ``events`` raw or
    weight-carrying) → new partition rows, key-sorted, + lineage counters.

    ``reduce(state, events)`` returns the winner row per key (tombstones
    still in) and a boolean mask of the winners that came from ``events``;
    it gets ``events`` without weight columns and ``state`` as None when
    empty.

    Counters (reference analog: success/error counters of the ES bulk
    loader, ``gc_elasticsearch_publisher.py:105-128``):
      events_in, upserts (event row won a key), deletes (key present in
      state removed by a tombstone), tombstones (D events seen), rows_out,
      watermark_lsn (max lsn seen).
    """
    w, wt = event_weights(events)
    events = drop_weights(events)
    counters = {
        "events_in": int(w.sum()),
        "tombstones": int(wt.sum()),
        "upserts": 0,
        "deletes": 0,
        "rows_out": 0,
        "watermark_lsn": int(pc.max(events["lsn"]).as_py() or 0) if events.num_rows else 0,
    }
    if state is not None and not state.num_rows:
        state = None
    won, from_event = reduce(state, events)
    if won.num_rows:
        is_del = pc.equal(won[OP_COLUMN], pa.scalar(TOMBSTONE_OP))
        counters["upserts"] = _count(pc.and_(from_event, pc.invert(is_del)))
        if state is not None:
            gone = won[KEY_COLUMN].filter(pc.and_(from_event, is_del))
            counters["deletes"] = _count(pc.is_in(gone, value_set=state[KEY_COLUMN]))
        won = _live_by_key(won)
    counters["rows_out"] = won.num_rows
    return won, counters


def _lww_merge_reduce(state: pa.Table | None, events: pa.Table) -> tuple[pa.Table, pa.Array]:
    """Row-LWW winners of state + events; state rows come first, so the
    stable sort lets a state row win a tie with an event."""
    both = events if state is None else pa.concat_tables([state, events],
                                                         promote_options="default")
    win, _ = _lww_winners(both, KEY_COLUMN, ORDER_COLUMNS)
    return both.take(pa.array(win)), pa.array(win >= both.num_rows - events.num_rows)


def merge_partition(
    state: pa.Table | None,
    events: pa.Table,
) -> tuple[pa.Table, dict[str, int]]:
    """Row-LWW partition merge: every event carries the full row (see
    :func:`merge_partition_with` for the counters)."""
    return merge_partition_with(state, events, _lww_merge_reduce)
