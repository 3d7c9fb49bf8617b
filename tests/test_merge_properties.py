"""Property-based tests (hypothesis) for the LWW merge kernel — the
algebraic guarantees the whole engine rests on:

1. associativity: reducing arbitrary partial splits then reducing the
   partials equals reducing the whole — what makes the pre-shuffle
   combiner (and salted hot-key splits) sound;
2. weighted-reduce conservation: lineage weights sum exactly to raw
   event/tombstone counts through any reduce chain;
3. replay idempotence: re-applying an epoch to the merged state is a
   no-op (the exactly-once-observable property);
4. oracle equivalence: the kernel matches a serial max-by-(lsn,seq)
   python oracle on any input;
5. one merge skeleton: under the epoch-monotone contract (full-image
   events, each strictly newer than the state) the column-coalesce merge
   equals the row-LWW merge row for row and counter for counter.

The reference has no property tests (SURVEY §5); these guard the
deterministic (lsn, seq) total order we added over its DISTINCT
tie-break (create_views.sql:24).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from gamechanger_data_ray.core.coalesce import (
    attach_orders,
    coalesce_reduce,
    merge_partition_coalesce,
)
from gamechanger_data_ray.core.merge import (
    EVENTS_REP,
    TOMBS_REP,
    drop_tombstones,
    lww_reduce,
    lww_reduce_weighted,
    merge_partition,
)

# events as (key_idx, lsn, seq, op_idx); payload is a pure function of the
# event identity so duplicate deliveries are byte-identical (the engine's
# delivery contract: (lsn, seq) totally orders versions PER KEY, dups
# repeat content verbatim)
EVENT = st.tuples(
    st.integers(0, 7), st.integers(0, 5), st.integers(0, 3), st.integers(0, 2)
)
EVENTS = st.lists(EVENT, min_size=0, max_size=60)


def _dedupe_identity(raw):
    """One op per (key, lsn, seq): the generator may emit the same slot
    with different ops, which would violate the total-order contract."""
    seen = {}
    for k, lsn, seq, op in raw:
        seen[(k, lsn, seq)] = op
    return [(k, lsn, seq, op) for (k, lsn, seq), op in seen.items()]


def _to_table(evts) -> pa.Table:
    ops = np.array(["I", "U", "D"])
    return pa.table(
        {
            "op": pa.array([ops[o] for _, _, _, o in evts], pa.string()),
            "lsn": pa.array([l for _, l, _, _ in evts], pa.int64()),
            "seq": pa.array([s for _, _, s, _ in evts], pa.int64()),
            "doc_id": pa.array([f"doc-{k:04d}" for k, _, _, _ in evts], pa.string()),
            "payload": pa.array(
                [k * 1000 + l * 10 + s for k, l, s, _ in evts], pa.int64()
            ),
        }
    )


def _oracle(evts):
    """Serial winner per key: max (lsn, seq); drop tombstone winners."""
    best = {}
    for k, lsn, seq, op in evts:
        cur = best.get(k)
        if cur is None or (lsn, seq) > cur[:2]:
            best[k] = (lsn, seq, op)
    return {
        k: (lsn, seq) for k, (lsn, seq, op) in best.items() if op != 2
    }


def _as_dict(t: pa.Table) -> dict:
    return {
        int(d.split("-")[1]): (l, s)
        for d, l, s in zip(
            t["doc_id"].to_pylist(), t["lsn"].to_pylist(), t["seq"].to_pylist()
        )
    }


@given(EVENTS, st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_reduce_is_associative_over_any_split(raw, n_chunks):
    evts = _dedupe_identity(raw)
    t = _to_table(evts)
    whole = lww_reduce(t)
    if t.num_rows == 0:
        assert whole.num_rows == 0
        return
    bounds = np.linspace(0, t.num_rows, n_chunks + 1).astype(int)
    partials = [
        lww_reduce(t.slice(a, b - a)) for a, b in zip(bounds, bounds[1:]) if b > a
    ]
    recombined = lww_reduce(pa.concat_tables(partials))
    lhs = drop_tombstones(recombined)
    rhs = drop_tombstones(whole)
    key = lambda tb: sorted(
        zip(tb["doc_id"].to_pylist(), tb["lsn"].to_pylist(), tb["seq"].to_pylist(),
            tb["op"].to_pylist(), tb["payload"].to_pylist())
    )
    assert key(lhs) == key(rhs)


@given(EVENTS, st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_weighted_reduce_conserves_lineage(raw, n_chunks):
    evts = _dedupe_identity(raw)
    t = _to_table(evts)
    if t.num_rows == 0:
        return
    n_tombs = sum(1 for _, _, _, o in evts if o == 2)
    bounds = np.linspace(0, t.num_rows, n_chunks + 1).astype(int)
    partials = [
        lww_reduce_weighted(t.slice(a, b - a))
        for a, b in zip(bounds, bounds[1:])
        if b > a
    ]
    again = lww_reduce_weighted(pa.concat_tables(partials))
    assert int(pc.sum(again[EVENTS_REP]).as_py()) == t.num_rows
    assert int(pc.sum(again[TOMBS_REP]).as_py() or 0) == n_tombs
    # winners identical to the unweighted kernel
    plain = lww_reduce(t)
    assert _as_dict(again.drop_columns([EVENTS_REP, TOMBS_REP])) == _as_dict(plain)


@given(EVENTS)
@settings(max_examples=200, deadline=None)
def test_merge_matches_serial_oracle_and_is_idempotent(raw):
    evts = _dedupe_identity(raw)
    t = _to_table(evts)
    merged, counters = merge_partition(None, t)
    assert _as_dict(merged) == _oracle(evts)
    assert counters["events_in"] == t.num_rows
    assert counters["rows_out"] == merged.num_rows
    # replaying the SAME events over the merged state changes nothing
    again, c2 = merge_partition(merged, t)
    assert again.equals(merged)
    assert c2["rows_out"] == counters["rows_out"]


@given(EVENTS, EVENTS)
@settings(max_examples=150, deadline=None)
def test_epoch_batching_equals_sequential_application(raw1, raw2):
    """apply(e1 ∪ e2) == apply(e2, apply(e1)) when every e2 identity is
    strictly newer — the soundness claim of apply_epochs batching."""
    e1 = _dedupe_identity(raw1)
    # shift epoch-2 lsns above every epoch-1 lsn
    e2 = [(k, lsn + 10, seq, op) for k, lsn, seq, op in _dedupe_identity(raw2)]
    t1, t2 = _to_table(e1), _to_table(e2)
    both = pa.concat_tables([t1, t2])
    merged_batched, _ = merge_partition(None, both)
    step1, _ = merge_partition(None, t1)
    merged_seq, _ = merge_partition(step1, t2)
    assert merged_batched.equals(merged_seq)


def _keyed(t: pa.Table, key_type: str) -> pa.Table:
    if key_type == "string":
        return t
    ids = pa.array([int(d.split("-")[1]) for d in t["doc_id"].to_pylist()], pa.int64())
    return t.set_column(t.schema.get_field_index("doc_id"), "doc_id", ids)


def _pre_reduce(t: pa.Table, n_chunks: int, combine) -> pa.Table:
    """The engine's staged input: one combiner output per input unit,
    concatenated (a key may still appear once per unit)."""
    bounds = np.linspace(0, t.num_rows, n_chunks + 1).astype(int)
    parts = [combine(t.slice(a, b - a)) for a, b in zip(bounds, bounds[1:]) if b > a]
    return pa.concat_tables(parts, promote_options="default") if parts else t


@given(EVENTS, EVENTS, st.sampled_from(["string", "int64"]), st.booleans(),
       st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_coalesce_merge_equals_lww_merge_on_full_images(raw1, raw2, key_type,
                                                        pre_reduced, n_chunks):
    """With every event a full image and every epoch-2 event strictly newer
    than the state, the two merges share everything but their reduce step,
    so their outputs and lineage counters agree (``cell_writes`` is
    coalesce-only). Re-deliveries at a state row's exact (lsn, seq) are
    left out: there the LWW sort keeps the state row, coalesce the event."""
    e1 = _dedupe_identity(raw1)
    e2 = [(k, lsn + 10, seq, op) for k, lsn, seq, op in _dedupe_identity(raw2)]
    t1, t2 = _keyed(_to_table(e1), key_type), _keyed(_to_table(e2), key_type)
    state, _ = merge_partition(None, t1)
    for st_in in (None, state):
        ev_lww, ev_coal = t2, t2
        if pre_reduced:
            ev_lww = _pre_reduce(t2, n_chunks, lww_reduce_weighted)
            ev_coal = _pre_reduce(t2, n_chunks, lambda c: coalesce_reduce(attach_orders(c)))
        lww, c_lww = merge_partition(st_in, ev_lww)
        coal, c_coal = merge_partition_coalesce(st_in, ev_coal)
        assert coal.select(lww.column_names).equals(lww)
        c_coal.pop("cell_writes")
        assert c_coal == c_lww
