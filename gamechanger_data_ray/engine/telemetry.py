"""Committed distribution telemetry: per-partition KLL quantile
sketches riding the manifest (round 5).

Zone maps (``col_stats``) answer WHERE values live (min/max pruning);
these sketches answer HOW values are DISTRIBUTED — per-epoch
p50/p90/p99 of every numeric payload column, readable from the ONE
driver-side manifest load with zero data bytes. The training-data
monitoring questions ("did sequence lengths collapse this crawl?",
"which epoch did the long tail appear?") that ``drift`` answers by
re-reading two epochs become a metadata lookup over the retained
manifest history — and unlike a data re-read, they still work after
the underlying files are vacuumed.

Mechanics: each partition merge already holds the resolved rows; a
``KLL(48)`` per numeric payload column (≈130 compressed bytes each)
rides the counters row as base64 JSON next to ``col_stats`` and lands
in the manifest. Epoch-level quantiles merge the partition sketches
(KLL merge is the same associative-combiner contract the engine's
other partials obey). Merge-on-read delta commits FOLD the delta's
sketch into the previous one — the fold over-weights overwritten rows
exactly the way the widened zone maps over-cover, so sketches are
exact-at-rest (rewrite/compact/restamp) and approximate-on-MOR-stacks,
stamped ``"mor_approx": true`` until the next physical rewrite.

Reference anchor: the crawler status tracker's per-crawl count
eyeballing (``gc_crawler_status_tracker.py``) — here as first-class
committed statistics.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pyarrow as pa

from ..core.sketch import KLL, kll_from_compact, kll_to_compact
from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs

SKETCH_K = 48
_QS = (0.5, 0.9, 0.99)


def _numeric_payload_cols(schema: pa.Schema) -> list[str]:
    from .cdc import _STATS_EXCLUDE

    out = []
    for f in schema:
        if f.name in _STATS_EXCLUDE:
            continue
        if pa.types.is_integer(f.type) or pa.types.is_floating(f.type):
            out.append(f.name)
    return out


def sketch_stats_json(t: pa.Table) -> str:
    """{col: base64(KLL)} over numeric payload columns — the sketch
    sibling of ``cdc._col_stats_json``, computed from the same resolved
    partition rows at write time."""
    out: dict[str, str] = {}
    for col in _numeric_payload_cols(t.schema):
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            continue
        s = KLL(SKETCH_K)
        s.add_many(v)
        out[col] = base64.b64encode(kll_to_compact(s)).decode()
    return json.dumps(out)


def merge_sketch_json(prev: dict, new: dict) -> dict:
    """MOR fold: union of the two sketch sets, column-wise KLL merge
    where both exist (approximate — see module docstring)."""
    out = dict(prev)
    for col, b in new.items():
        if col in out:
            merged = kll_from_compact(base64.b64decode(out[col])).merge(
                kll_from_compact(base64.b64decode(b)))
            out[col] = base64.b64encode(kll_to_compact(merged)).decode()
        else:
            out[col] = b
    return out


def _epoch_sketches(man: mf.TableManifest) -> dict[str, KLL]:
    """Column → merged-across-partitions sketch for one manifest."""
    merged: dict[str, KLL] = {}
    for entry in man.partitions.values():
        sk = entry.get("col_sketch")
        if not sk:
            continue
        for col, b in sk.items():
            s = kll_from_compact(base64.b64decode(b))
            merged[col] = merged[col].merge(s) if col in merged else s
    return merged


def epoch_quantiles(
    table_dir: str,
    epoch: int | str | None = None,
    qs: tuple = _QS,
    fs: StorageAdapter | None = None,
) -> dict:
    """Per-column approximate quantiles of one committed epoch — from
    the manifest ALONE (no data files opened)."""
    from .cdc import _resolve_manifest

    fs = default_fs(fs)
    man = _resolve_manifest(table_dir, epoch, fs)
    if man is None:
        raise FileNotFoundError(f"no committed table at {table_dir}")
    cols = {}
    for col, s in _epoch_sketches(man).items():
        cols[col] = {"n": int(s.n),
                     **{f"p{int(q * 100)}": float(s.quantile(q)) for q in qs}}
    return {"epoch": man.epoch, "rev": man.rev, "columns": cols,
            "mor_approx": any(e.get("col_sketch_mor") for e in
                              man.partitions.values())}


def quantile_history(
    table_dir: str, column: str = "n_tok", qs: tuple = _QS,
) -> list[dict]:
    """``column``'s quantile trajectory across every RETAINED epoch —
    the per-epoch distribution timeline, O(#manifests) driver work and
    zero data reads (works on vacuumed-data epochs whose manifests are
    retained)."""
    out = []
    for epoch in mf.list_manifests(table_dir):
        man = mf.load_manifest(table_dir, epoch)
        s = _epoch_sketches(man).get(column)
        if s is None:
            continue
        out.append({"epoch": epoch, "n": int(s.n),
                    **{f"p{int(q * 100)}": float(s.quantile(q)) for q in qs}})
    return out


def quantile_drift(
    table_dir: str, from_epoch: int, to_epoch: int | None = None,
    column: str = "n_tok",
    fs: StorageAdapter | None = None,
) -> dict:
    """Metadata-only distribution drift: relative shift of each tracked
    quantile between two committed epochs. The sketch sibling of
    ``drift.drift_report`` — no data pass, so it is O(manifest) and
    works after vacuum."""
    a = epoch_quantiles(table_dir, from_epoch, fs=fs)
    b = epoch_quantiles(table_dir, to_epoch, fs=fs)
    ca, cb = a["columns"].get(column), b["columns"].get(column)
    if ca is None or cb is None:
        raise ValueError(f"no committed sketch for column {column!r}")
    shifts = {}
    for k in ca:
        if k == "n":
            continue
        base = ca[k]
        shifts[k] = None if base == 0 else (cb[k] - base) / abs(base)
    return {"column": column, "from_epoch": a["epoch"], "to_epoch": b["epoch"],
            "from": ca, "to": cb, "relative_shift": shifts}
