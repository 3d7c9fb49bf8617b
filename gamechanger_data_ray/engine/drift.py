"""Epoch-to-epoch distribution drift report over a CDC table.

``diff`` (engine/diff.py) answers *which rows* changed between two
committed epochs; this module answers *did the data distribution shift* —
the training-data monitoring question ("did a bad crawl flood one source?
did sequence lengths collapse?") that the reference answers by eyeballing
per-crawler counts in its status tracker
(``dataPipelines/gc_crawler_status_tracker/gc_crawler_status_tracker.py``).

For each profiled scalar payload column the report carries both epochs'
histograms and the Population Stability Index between them
(PSI = Σ (p−q)·ln(p/q), the standard drift score; <0.1 stable, >0.25
shifted). Numeric columns bin by power-of-two (the natural grain for
sequence lengths); string columns bin by value, with a cardinality cap so
an id-like column degrades to an explicit ``high_cardinality`` flag
instead of a million-bucket report.

Scale shape: one streaming pass per epoch over only the profiled columns
(projection pushed into the scan), each block reduced to O(buckets)
partial counts inside ``map_batches`` — the driver folds tiny partials
and never sees payload rows. Skew-proof: no groupby/shuffle at all.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state import manifest as mf
from ..state.fs import default_fs
from .cdc import _STATS_EXCLUDE, read_table

# beyond this many distinct values a string column is reported as
# high-cardinality instead of histogrammed (an id/hash column would
# otherwise produce a bucket per row)
MAX_BUCKETS = 200

# per-block short-circuit marker: a block that alone exceeds MAX_BUCKETS
# ships one sentinel row instead of a bucket per value
_HC_SENTINEL = "__high_cardinality__"


def _profilable(schema: pa.Schema, columns: list[str] | None) -> list[str]:
    out = []
    for f in schema:
        if f.name in _STATS_EXCLUDE:
            continue
        if columns is not None and f.name not in columns:
            continue
        if (pa.types.is_integer(f.type) or pa.types.is_floating(f.type)
                or pa.types.is_string(f.type) or pa.types.is_large_string(f.type)):
            out.append(f.name)
    if columns is not None:
        missing = set(columns) - set(out)
        if missing:
            raise ValueError(f"not profilable scalar payload columns: {sorted(missing)}")
    return out


def _bucketize(arr: pa.ChunkedArray | pa.Array, numeric: bool) -> pd.Series:
    """Per-value bucket labels: power-of-two bins for numerics ("2^k" for
    the k with 2^k <= v < 2^(k+1); "<=0" below 1), the value itself for
    strings, "null" for nulls."""
    s = arr.to_pandas()
    if numeric:
        lab = pd.Series("null", index=s.index, dtype=object)
        ok = s.notna()
        pos = ok & (s >= 1)
        lab[ok & ~(s >= 1)] = "<1"  # everything below the first pow-2 bin
        if pos.any():
            k = np.floor(np.log2(s[pos].astype("float64"))).astype(int)
            lab[pos] = "2^" + k.astype(str)
        return lab
    return s.fillna("null").astype(str)


def _epoch_histograms(
    table_dir: str, epoch: int, columns: list[str], numeric: set[str]
) -> tuple[int, dict[str, dict[str, int]]]:
    """One streaming pass: per-column bucket counts + total rows."""
    ds = read_table(table_dir, columns=columns, epoch=epoch)

    def partial(t: pa.Table) -> pa.Table:
        cols, buckets, ns = [], [], []
        cols.append("_rows"); buckets.append(""); ns.append(t.num_rows)
        for c in columns:
            vc = _bucketize(t[c], c in numeric).value_counts()
            if len(vc) > MAX_BUCKETS:
                # id/hash-like column: don't ship (or fold) a bucket per
                # row — one sentinel row marks it high-cardinality
                cols.append(c); buckets.append(_HC_SENTINEL); ns.append(len(vc))
                continue
            cols.extend([c] * len(vc))
            buckets.extend(vc.index.tolist())
            ns.extend(int(v) for v in vc.values)
        return pa.table({"col": pa.array(cols, pa.string()),
                         "bucket": pa.array(buckets, pa.string()),
                         "n": pa.array(ns, pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return 0, {c: {} for c in columns}
    agg = parts.groupby(["col", "bucket"])["n"].sum()
    hists = {c: {} for c in columns}
    rows = 0
    for (c, b), n in agg.items():
        if c == "_rows":
            rows += int(n)
        else:
            hists[c][b] = int(n)
    return rows, hists


def psi(p_counts: dict[str, int], q_counts: dict[str, int],
        eps: float = 1e-6) -> float:
    """Population Stability Index between two histograms (smoothed so a
    bucket present in only one side contributes finitely)."""
    keys = sorted(set(p_counts) | set(q_counts))
    if not keys:
        return 0.0
    pt = max(1, sum(p_counts.values()))
    qt = max(1, sum(q_counts.values()))
    out = 0.0
    for k in keys:
        p = max(p_counts.get(k, 0) / pt, eps)
        q = max(q_counts.get(k, 0) / qt, eps)
        out += (p - q) * math.log(p / q)
    return round(out, 6)


def drift_report(
    table_dir: str, epoch_from: int, epoch_to: int | None = None,
    columns: list[str] | None = None,
) -> dict[str, Any]:
    """Distribution drift between two committed epochs (``epoch_to=None``
    = the current epoch). Returns a JSON-able report: per-column PSI,
    both histograms (or a high-cardinality flag), values added/removed,
    and row-count movement."""
    fs = default_fs(None)
    cur = mf.load_current(table_dir, fs)
    if cur is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    e_to = cur.epoch if epoch_to is None else epoch_to
    cols = _profilable(cur.schema, columns)
    numeric = {f.name for f in cur.schema
               if pa.types.is_integer(f.type) or pa.types.is_floating(f.type)}
    # a column added by schema evolution doesn't exist in older manifests'
    # schemas — profile each epoch over what it actually has and report
    # the asymmetry instead of crashing the whole run
    have_f = set(mf.load_manifest(table_dir, epoch_from).schema.names)
    have_t = set(mf.load_manifest(table_dir, e_to).schema.names)
    rows_f, hist_f = _epoch_histograms(
        table_dir, epoch_from, [c for c in cols if c in have_f], numeric)
    rows_t, hist_t = _epoch_histograms(
        table_dir, e_to, [c for c in cols if c in have_t], numeric)
    report_cols: dict[str, Any] = {}
    for c in cols:
        if c not in have_f or c not in have_t:
            report_cols[c] = {"absent_at": "from" if c not in have_f else "to"}
            continue
        hf, ht = hist_f[c], hist_t[c]
        if (_HC_SENTINEL in hf or _HC_SENTINEL in ht
                or max(len(hf), len(ht)) > MAX_BUCKETS):
            # exact distinct count is only known when no block
            # short-circuited (None = "too many to count cheaply")
            report_cols[c] = {
                "high_cardinality": True,
                "distinct_from": None if _HC_SENTINEL in hf else len(hf),
                "distinct_to": None if _HC_SENTINEL in ht else len(ht),
            }
            continue
        report_cols[c] = {
            "psi": psi(hf, ht),
            "from": dict(sorted(hf.items())),
            "to": dict(sorted(ht.items())),
            "added_buckets": sorted(set(ht) - set(hf)),
            "removed_buckets": sorted(set(hf) - set(ht)),
        }
    return {
        "table": table_dir,
        "epoch_from": epoch_from,
        "epoch_to": e_to,
        "rows": {"from": rows_f, "to": rows_t, "delta": rows_t - rows_f},
        "columns": report_cols,
    }
