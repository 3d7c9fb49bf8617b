"""Property-based tests (hypothesis) for ``cdc.fold_entry`` — the one
driver-side function that folds worker entry rows into a partition's
manifest entry. Random histories of the five entry kinds (copy-on-write
epoch commit, merge-on-read delta, merge-on-read fold into a new base,
same-epoch revision, restamp) are folded and checked against a small
model:

1. a copy-on-write entry after ANY history equals that entry folded onto
   an empty ``prev`` (a new base supersedes everything before it);
2. deltas are appended in order, and a base entry clears them; a fold
   keeps the delta rule's watermark (the max), a copy-on-write entry
   takes its own;
3. widened zone maps contain every folded delta's bounds (and the
   exact bounds they widened from);
4. the folded sketch's ``n`` is the sum of the folded ``n``s;
5. ``col_sketch_mor`` is set exactly when a delta landed on an existing
   entry and no exact entry (base or restamp) came after it.
"""

from __future__ import annotations

import base64
import json

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from gamechanger_data_ray.core.sketch import kll_from_compact
from gamechanger_data_ray.engine.cdc import fold_entry
from gamechanger_data_ray.engine.telemetry import sketch_stats_json

KINDS = ("cow", "mor", "fold", "revision", "restamp")
BOUNDS = st.one_of(
    st.none(),
    st.tuples(st.integers(-50, 50), st.integers(0, 30)).map(lambda t: [t[0], t[0] + t[1]]),
)
STEP = st.tuples(
    st.sampled_from(KINDS),
    st.fixed_dictionaries({"a": BOUNDS, "b": BOUNDS}),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=6),  # sketch values
    st.integers(0, 1000),  # watermark
)
# a partition is born by an epoch commit, then anything may follow
HISTORY = st.tuples(
    STEP.filter(lambda s: s[0] in ("cow", "mor")), st.lists(STEP, max_size=7))


def _entry(i: int, step) -> dict:
    kind, bounds, values, wm = step
    stats = {c: b for c, b in bounds.items() if b is not None}
    row = {"col_stats": json.dumps(stats),
           "col_sketch": sketch_stats_json(pa.table({"a": pa.array(values, pa.float64())}))}
    if kind == "restamp":
        return row
    row |= {"file": "", "delta": "", "rows": i, "key_min": f"k{i}", "key_max": f"k{i}z",
            "content_sig": f"{i}:sig"}
    if kind == "mor":
        row |= {"delta": f"part=00000/delta-e{i:06d}.parquet", "watermark_lsn": wm}
    else:
        row["file"] = f"part=00000/data-e{i:06d}r{int(kind == 'revision')}.parquet"
        if kind in ("cow", "fold"):
            row["watermark_lsn"] = wm
        if kind == "fold":
            row["folded"] = True
    return row


def _sketch_n(entry: dict) -> int:
    b = entry.get("col_sketch", {}).get("a")
    return 0 if b is None else int(kll_from_compact(base64.b64decode(b)).n)


@settings(max_examples=60, deadline=None)
@given(HISTORY)
def test_fold_matches_model(history):
    first, rest = history
    prev: dict = {}
    # model of what must hold since the last exact (reset) entry
    deltas: list[str] = []
    exact_stats: dict = {}
    delta_stats: list[dict] = []
    n_sum = 0
    mor = False
    wm = 0
    for i, step in enumerate([first, *rest]):
        kind = step[0]
        entry = _entry(i, step)
        out = fold_entry(prev, entry)
        stats = json.loads(entry["col_stats"])
        n = len(step[2])
        if kind == "cow":
            assert out == fold_entry(None, entry)
        if kind in ("cow", "fold", "revision"):
            deltas, delta_stats, exact_stats, n_sum, mor = [], [], stats, n, False
            wm = {"cow": step[3], "fold": max(wm, step[3])}.get(kind, wm)
            assert out["file"] == entry["file"] and "deltas" not in out
        elif kind == "restamp":
            delta_stats, exact_stats, n_sum, mor = [], stats, n, False
            assert {k: v for k, v in out.items() if k not in ("col_stats", "col_sketch")} \
                == {k: v for k, v in prev.items() if k not in ("col_stats", "col_sketch",
                                                               "col_sketch_mor")}
        elif not prev:  # first-ever delta: it IS the whole state, exact
            deltas, exact_stats, n_sum, wm = [entry["delta"]], stats, n, step[3]
        else:
            deltas = [*deltas, entry["delta"]]
            delta_stats.append(stats)
            n_sum += n
            mor = True
            wm = max(wm, step[3])
            assert out["file"] == prev.get("file")
        assert list(out.get("deltas", ())) == deltas
        assert out.get("watermark_lsn", 0) == wm
        assert _sketch_n(out) == n_sum
        assert bool(out.get("col_sketch_mor")) == mor
        # widened bounds keep only columns the exact bounds had, and
        # contain the exact bounds and every folded delta's bounds
        assert set(out["col_stats"]) <= set(exact_stats)
        for c, (lo, hi) in out["col_stats"].items():
            for s in [exact_stats, *delta_stats]:
                if c in s:
                    assert lo <= s[c][0] and s[c][1] <= hi
        if not delta_stats:
            assert out["col_stats"] == exact_stats
        prev = out
