"""Column-level CDC merge — partial-update events coalesced per column.

The LWW kernel (``core/merge.py``) assumes every update carries the FULL
row. Real CDC sources often emit **partial images**: an update sets only
the changed columns and leaves the rest null ("column missing", Debezium
partial/patch events; the reference's metadata sidecars patch individual
fields the same way, ``gc_ingest/tools/metadata/metadata.py``). Under
replace semantics those nulls would wipe the untouched columns; coalesce
semantics resolve each column independently: **last non-null writer wins
per column**, tombstones reset the whole row.

Associativity under arbitrary batching — the property that lets this run
as a combiner before the hash exchange — requires more than row order:
a reduced row may carry column values set at DIFFERENT (lsn, seq) than
the row's max. So reduced rows carry, per payload column, the order the
current value was written at (transient ``_olsn_<col>``/``_oseq_<col>``
pairs) plus the max tombstone order seen (``_reset_lsn``/``_reset_seq``).
Reducing reduced rows then picks, per column, the value with the highest
column order strictly ABOVE the max reset — which composes: the winning
value of a union is the winning value among partial winners, and a value
killed by a reset in one partial stays killed in every union containing
it. Raw events are lifted by giving every non-null cell its row's
(lsn, seq).

Cross-epoch assumption (NOT checked anywhere): stored state keeps ONE
row order (the key's max (lsn, seq)), not per-column orders — sound only
while every future event outranks every stored cell, which the changelog
contract's epoch-monotone lsn promises. Nothing verifies it, and "event
lsn > watermark" would be the wrong check: a relay's diff tombstones
carry the deleted row's old lsn. Within an epoch (and across duplicate
or out-of-order deliveries of it) the per-column orders give exact
resolution.

All kernels vectorized: one global sort for row winners, one
``np.lexsort`` per payload column for cell winners — no Python-per-row
loops.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .merge import (
    EVENTS_REP,
    TOMBS_REP,
    drop_weights,
    event_weights,
    key_codes,
    merge_partition_with,
)
from .schemas import KEY_COLUMN, OP_COLUMN, ORDER_COLUMNS, TOMBSTONE_OP

ORD_LSN = "_olsn_"  # per-column order prefix (transient exchange columns)
ORD_SEQ = "_oseq_"
RESET_LSN = "_reset_lsn"  # max tombstone order collapsed into this row
RESET_SEQ = "_reset_seq"

_BOOKKEEPING = {OP_COLUMN, KEY_COLUMN, *ORDER_COLUMNS,
                EVENTS_REP, TOMBS_REP, RESET_LSN, RESET_SEQ}


def payload_columns(schema: pa.Schema) -> list[str]:
    return [f.name for f in schema
            if f.name not in _BOOKKEEPING
            and not f.name.startswith((ORD_LSN, ORD_SEQ))]


def attach_orders(t: pa.Table) -> pa.Table:
    """Lift raw change events into the coalesce representation: every
    non-null cell gets its row's (lsn, seq) as its column order; tombstone
    rows record their order as the reset. Idempotent (already-lifted
    tables pass through)."""
    if RESET_LSN in t.schema.names:
        return t
    lsn, seq = t["lsn"], t["seq"]
    is_del = pc.equal(t[OP_COLUMN], pa.scalar(TOMBSTONE_OP))
    for c in payload_columns(t.schema):
        valid = pc.is_valid(t[c])
        t = t.append_column(ORD_LSN + c, pc.if_else(valid, lsn, pa.scalar(None, pa.int64())))
        t = t.append_column(ORD_SEQ + c, pc.if_else(valid, seq, pa.scalar(None, pa.int64())))
    t = t.append_column(RESET_LSN, pc.if_else(is_del, lsn, pa.scalar(None, pa.int64())))
    t = t.append_column(RESET_SEQ, pc.if_else(is_del, seq, pa.scalar(None, pa.int64())))
    return t


def _pair_i64(col_l, col_s, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lsn, seq) arrays with nulls mapped to -1 (always loses)."""
    if col_l is None:
        return np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int64)
    l = np.asarray(pc.fill_null(col_l, -1).to_numpy(zero_copy_only=False), dtype=np.int64)
    s = np.asarray(pc.fill_null(col_s, -1).to_numpy(zero_copy_only=False), dtype=np.int64)
    return l, s


def _last_per_group(codes: np.ndarray, l: np.ndarray, s: np.ndarray,
                    ncodes: int) -> np.ndarray:
    """Row index of the max (l, s) per group code (lexicographic);
    all-null groups return the index of SOME row in the group (its order
    pair is (-1,-1), which callers treat as 'no value')."""
    order = np.lexsort((s, l, codes))  # codes major, then l, then s — ascending
    # last occurrence of each code in the sorted order = per-group max
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(
        np.concatenate([sorted_codes[1:] != sorted_codes[:-1], [True]]))
    out = np.full(ncodes, -1, dtype=np.int64)
    out[sorted_codes[boundaries]] = order[boundaries]
    return out


def _reduce_lifted(t: pa.Table) -> tuple[pa.Table, np.ndarray]:
    """The body of :func:`coalesce_reduce` on a non-empty lifted table;
    also returns, per output row, the index in ``t`` of its row winner."""
    t = t.combine_chunks()
    n = t.num_rows
    codes = key_codes(t[KEY_COLUMN])
    ncodes = int(codes.max()) + 1

    # weights (compose: re-reduce sums them)
    w, wt = event_weights(t)
    events_per_key = np.bincount(codes, weights=w, minlength=ncodes).astype(np.int64)
    tombs_per_key = np.bincount(codes, weights=wt, minlength=ncodes).astype(np.int64)

    # row winner (op / lsn / seq / doc_id): max (lsn, seq) per key
    row_l, row_s = _pair_i64(t["lsn"], t["seq"], n)
    win = _last_per_group(codes, row_l, row_s, ncodes)

    # reset floor: max tombstone order per key
    rst_l, rst_s = _pair_i64(t[RESET_LSN], t[RESET_SEQ], n)
    rwin = _last_per_group(codes, rst_l, rst_s, ncodes)
    floor_l, floor_s = rst_l[rwin], rst_s[rwin]

    win_idx = pa.array(win, pa.int64())
    cols: dict[str, pa.Array] = {}
    for name in (OP_COLUMN, "lsn", "seq", KEY_COLUMN):
        cols[name] = t[name].take(win_idx)

    payload = payload_columns(t.schema)
    for c in payload:
        cl, cs = _pair_i64(t[ORD_LSN + c], t[ORD_SEQ + c], n)
        cwin = _last_per_group(codes, cl, cs, ncodes)
        vl, vs = cl[cwin], cs[cwin]
        # a cell survives only if its order is strictly above the floor
        # (and is a real value, not the -1 null sentinel)
        alive = (vl >= 0) & ((vl > floor_l) | ((vl == floor_l) & (vs > floor_s)))
        taken = t[c].take(pa.array(cwin, pa.int64()))
        cols[c] = pc.if_else(pa.array(alive), taken, pa.scalar(None, t.schema.field(c).type))
        cols[ORD_LSN + c] = pc.if_else(pa.array(alive), pa.array(vl, pa.int64()),
                                       pa.scalar(None, pa.int64()))
        cols[ORD_SEQ + c] = pc.if_else(pa.array(alive), pa.array(vs, pa.int64()),
                                       pa.scalar(None, pa.int64()))
    has_floor = floor_l >= 0
    cols[RESET_LSN] = pc.if_else(pa.array(has_floor), pa.array(floor_l, pa.int64()),
                                 pa.scalar(None, pa.int64()))
    cols[RESET_SEQ] = pc.if_else(pa.array(has_floor), pa.array(floor_s, pa.int64()),
                                 pa.scalar(None, pa.int64()))
    cols[EVENTS_REP] = pa.array(events_per_key, pa.int64())
    cols[TOMBS_REP] = pa.array(tombs_per_key, pa.int64())
    # winner op: the row winner's op (a D at the max order means the key
    # is currently deleted; every cell is ≤ the floor then, hence null)
    return pa.table(cols), win


def coalesce_reduce(t: pa.Table) -> pa.Table:
    """Reduce to ≤1 row per key under column-coalesce semantics. Input
    must be lifted (``attach_orders``); output stays lifted, so the reduce
    composes with itself (combiner → exchange → merge). Weight columns
    (``EVENTS_REP``/``TOMBS_REP``) are attached/summed exactly as in the
    LWW combiner so lineage counters stay exact."""
    if t.num_rows == 0:
        return t
    return _reduce_lifted(t)[0]


def strip_transients(t: pa.Table) -> pa.Table:
    drop = [c for c in t.schema.names
            if c.startswith((ORD_LSN, ORD_SEQ)) or c in (RESET_LSN, RESET_SEQ)]
    return t.drop_columns(drop) if drop else t


def _coalesce_merge_reduce(state: pa.Table | None,
                           events: pa.Table) -> tuple[pa.Table, pa.Array]:
    """Coalesce winners of state + events: stored rows join the reduce as
    fully-written cells at their stored row order (sound only under the
    module docstring's cross-epoch assumption), events as lifted partials.
    A key's row winner is the LAST row at its max (lsn, seq), so an event
    re-delivered at a state row's exact order wins."""
    events = attach_orders(events)
    both = events if state is None else pa.concat_tables(
        [attach_orders(state), events], promote_options="default")
    if both.num_rows == 0:
        return both, pa.array([], pa.bool_())
    won, win = _reduce_lifted(both)
    return won, pa.array(win >= both.num_rows - events.num_rows)


def merge_partition_coalesce(
    state: pa.Table | None,
    events: pa.Table,
) -> tuple[pa.Table, dict[str, int]]:
    """Partition merge under coalesce semantics: the counters of
    :func:`core.merge.merge_partition_with` plus ``cell_writes``, JSON
    ``{column: n}`` — how many surviving rows' CURRENT cell was
    (re)written by this epoch's events. Sound because lsn is
    epoch-monotone: every event cell order ≥ this epoch's min lsn, every
    carried state cell order < it."""
    out, counters = merge_partition_with(state, events, _coalesce_merge_reduce)
    cell_writes: dict[str, int] = {}
    if out.num_rows and counters["events_in"]:
        ev_min = pc.min(events["lsn"])
        for c in payload_columns(out.schema):
            n_w = int(pc.sum(pc.greater_equal(out[ORD_LSN + c], ev_min)).as_py() or 0)
            if n_w:
                cell_writes[c] = n_w
    counters["cell_writes"] = json.dumps(cell_writes)
    return strip_transients(drop_weights(out)), counters
