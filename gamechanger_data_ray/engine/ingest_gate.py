"""Ingest-time screening — suppress unwanted change events BEFORE they
commit, with a quarantine audit trail and an operator ``readmit`` path.

Four screens, chainable in one epoch pass (first flag wins):
- ``neardup``: MinHash-LSH candidate lookup against the maintained
  band index + EXACT token-shingle Jaccard confirm (this module's
  original job, detailed below);
- ``exact``: sha256 content-hash postings lookup against the
  maintained index (``engine/dedup_index.py``) — identical payloads
  only, no confirm step needed;
- ``quality``: stateless Gopher/C4-style payload rules (n_tok bounds,
  repetition collapse) — no index, screens even a fresh table;
- ``decontam``: eval-benchmark n-gram contamination (the
  ``docs_decontaminate`` sweep as a standing ingest invariant) — the
  bench state is built once, broadcast via ``ray.put`` and read
  zero-copy by plain tasks; no index.

Batch near-dup sweeps (``dedup_minhash_lsh``) clean a corpus after the
fact; a live lake wants the cheaper invariant "a near-duplicate of an
already-committed document never enters the table". This module
composes two existing pieces into that gate:

- the incrementally-maintained MinHash-LSH index
  (``engine/neardup_index.py``) supplies O(1)-per-probe candidate
  lookup against the committed state — band-bucket postings reads are
  row-group-pruned, candidate tokens come back via hash-routed
  ``read_keys`` point lookups, and the final test is EXACT
  token-shingle Jaccard (LSH only proposes; it never decides);
- the standard ``apply_events_dataset`` commit path applies whatever
  survives, then the index is refreshed so the NEXT epoch screens
  against these documents too.

Scale shape: every screen is a plain-task ``map_batches`` stage over
the *incoming epoch only* (never the corpus) — none holds cross-batch
state an actor pool could amortize (the decontam bench broadcasts once
per replay), so tasks use full cluster parallelism with no per-epoch
pool spin-up; each task's reads are bounded by its batch's bucket
count × postings cap. Suppressed events stream to
a per-epoch quarantine directory (committed by atomic rename, so a
retried epoch neither duplicates nor half-writes the audit trail) —
they are data the operator may want back, not silent drops.

Semantics (documented, tested):
- events are screened against the state committed as of the PREVIOUS
  epoch (the index's epoch); near-dup pairs *within* one incoming epoch
  are the batch sweeps' job, not the gate's;
- a row whose best committed match is ITSELF (same key — an update)
  is never suppressed; deletes and token-less rows pass untouched;
- candidates per probe are capped (``max_candidates``): a boilerplate
  flood degrades to "screened against the cap's worth of candidates",
  never a quadratic verify.

Reference parity: the reference dedups at ingest by exact content
checksum only (``common/utils/text_utils.py`` checksum paths;
``dataPipelines/rpa/rpa_landing_zone_mover.py:100-129`` skip-if-seen);
near-dup-at-ingest is part of this repo's LLM-training-data extension
surface.
"""

from __future__ import annotations

import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..stages.dedup import TokenMinHasher, token_shingle_jaccard
from ..state import manifest as mf
from ..state.fs import StorageAdapter, default_fs
from .cdc import apply_events_dataset, read_keys
from .dedup_index import HASH_COLUMN, content_hashes, content_index_view
from .neardup_index import _band_buckets, neardup_index_view
from .views import lookup_terms, refresh

QUARANTINE_DIR = "_quarantine"
MATCH_COLUMN = "neardup_of"
JACCARD_COLUMN = "neardup_jaccard"


def _gate_view_def(mode: str, *, k: int, seed: int, tokens_column: str,
                   key_column: str):
    """The maintained index the gate screens against and refreshes:
    ``neardup`` = MinHash-LSH band postings (+ exact-Jaccard confirm),
    ``exact`` = sha256 content-hash postings (no confirm needed),
    ``quality`` = None (stateless Gopher-rule screen — nothing to
    maintain)."""
    if mode == "exact":
        return content_index_view(tokens_column=tokens_column,
                                  key_column=key_column)
    if mode == "neardup":
        return neardup_index_view(tokens_column=tokens_column,
                                  key_column=key_column, k=k, seed=seed)
    if mode in ("quality", "decontam", "drift"):
        # stateless screens — nothing to maintain (drift's committed
        # side is the manifest sketch, maintained by every commit)
        return None
    raise ValueError(
        f"unknown gate mode {mode!r} (expected 'neardup', 'exact', "
        "'quality', 'decontam' or 'drift')")


def _check_view(view_dir: str, table_dir: str, *, k: int, seed: int,
                tokens_column: str, key_column: str,
                fs: StorageAdapter, mode: str = "neardup") -> mf.TableManifest | None:
    """The same signature + staleness guards as ``neardup_search``:
    a k/seed/column mismatch or a lagging index must refuse loudly, not
    silently collapse recall. Returns the view manifest, or None when
    there is nothing to screen against (fresh table / empty view)."""
    cur_view = mf.load_current(view_dir, fs)
    if cur_view is None:
        return None
    expect_sig = _gate_view_def(
        mode, k=k, seed=seed, tokens_column=tokens_column,
        key_column=key_column,
    ).signature()
    got_sig = cur_view.epoch_counters.get("view_sig")
    if got_sig != expect_sig:
        raise ValueError(
            f"gate ({mode}) index signature mismatch: view carries "
            f"{got_sig!r}, gate params expect {expect_sig!r}"
        )
    cur_table = mf.load_current(table_dir, fs)
    if cur_table is not None and cur_table.epoch != cur_view.epoch:
        raise ValueError(
            f"gate ({mode}) index is stale: view reflects epoch "
            f"{cur_view.epoch}, table committed epoch {cur_table.epoch} — "
            "refresh before gating"
        )
    return cur_view


def _split_prior(batch: pa.Table):
    """(base_batch, prior_match, prior_jaccard): strip an upstream
    screen's annotations so a CHAINED screen scores only still-clean
    rows and the first flag wins. Returns (batch, None, None) for the
    first screen in a chain."""
    if MATCH_COLUMN not in batch.schema.names:
        return batch, None, None
    pm, pj = batch[MATCH_COLUMN], batch[JACCARD_COLUMN]
    if isinstance(pm, pa.ChunkedArray):
        pm = pm.combine_chunks()
    if isinstance(pj, pa.ChunkedArray):
        pj = pj.combine_chunks()
    return batch.drop_columns([MATCH_COLUMN, JACCARD_COLUMN]), pm, pj


def _merge_prior(matched: pa.Array, jac: pa.Array, pm, pj):
    """Prior (upstream) flags win; this screen's flags fill the rest."""
    if pm is None:
        return matched, jac
    keep = pm.is_valid()
    return pc.if_else(keep, pm, matched), pc.if_else(keep, pj, jac)


class NearDupScreen:
    """Plain-task stage: annotate each incoming event with its best
    committed near-duplicate (``neardup_of`` / ``neardup_jaccard``,
    null = clean). The instance (params + two tiny permutation arrays)
    ships with each task; every read the stage performs (postings
    lookup, candidate point-fetch) is pure-pyarrow and bounded by the
    batch, so the stage runs anywhere a Ray worker runs and holds no
    cross-batch state an actor pool could amortize."""

    def __init__(self, view_dir: str, table_dir: str, *, threshold: float,
                 k: int, seed: int, tokens_column: str, key_column: str,
                 max_candidates: int):
        self.view_dir = view_dir
        self.table_dir = table_dir
        self.threshold = threshold
        self.k = k
        self.max_candidates = max_candidates
        self.tokens_column = tokens_column
        self.key_column = key_column
        self.hasher = TokenMinHasher(id_col=key_column, tokens_col=tokens_column,
                                     k=k, seed=seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch, pm, pj = _split_prior(batch)
        n = batch.num_rows
        match = np.full(n, None, dtype=object)
        jac = np.full(n, np.nan, dtype=np.float64)

        toks = batch[self.tokens_column]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        screen_mask = pc.and_(
            toks.is_valid(), pc.not_equal(batch["op"], "D")
        ).to_numpy(zero_copy_only=False)
        if pm is not None:  # chained: only still-clean rows screen here
            screen_mask &= ~pm.is_valid().to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(screen_mask)
        if idx.size:
            sub = batch.take(pa.array(idx))
            keys = sub[self.key_column].to_pylist()
            token_lists = sub[self.tokens_column].to_pylist()
            buckets = _band_buckets(self.hasher, sub[self.tokens_column])
            probe_sets = [set(int(b) for b in row) for row in buckets]
            all_buckets = sorted(set().union(*probe_sets))
            postings = lookup_terms(self.view_dir, all_buckets)
            if postings.num_rows:
                post_b = postings["bucket"].to_numpy(zero_copy_only=False)
                post_k = postings[self.key_column].to_pylist()
                by_bucket: dict[int, list[str]] = {}
                for b, key in zip(post_b, post_k):
                    by_bucket.setdefault(int(b), []).append(key)
                cands: list[list[str]] = []
                for qi, key in enumerate(keys):
                    c = sorted({d for b in probe_sets[qi]
                                for d in by_bucket.get(b, ()) if d != key})
                    cands.append(c[: self.max_candidates])
                union = sorted(set().union(*[set(c) for c in cands]))
                if union:
                    rows = read_keys(self.table_dir, union,
                                     columns=[self.key_column, self.tokens_column])
                    tok_of = dict(zip(rows[self.key_column].to_pylist(),
                                      rows[self.tokens_column].to_pylist()))
                    for qi, row_i in enumerate(idx):
                        best = None
                        for c in cands[qi]:
                            ct = tok_of.get(c)
                            if ct is None:
                                continue
                            j = token_shingle_jaccard(token_lists[qi], ct, k=self.k)
                            if j >= self.threshold and (
                                best is None or (-j, c) < (-best[0], best[1])
                            ):
                                best = (float(j), c)
                        if best is not None:
                            match[row_i] = best[1]
                            jac[row_i] = round(best[0], 5)

        matched, jac_arr = _merge_prior(
            pa.array(match.tolist(), pa.string()),
            pa.array([None if np.isnan(v) else float(v) for v in jac],
                     pa.float64()),
            pm, pj,
        )
        out = batch.append_column(MATCH_COLUMN, matched)
        return out.append_column(JACCARD_COLUMN, jac_arr)


class ExactDupScreen:
    """Plain-task stage: annotate each incoming event with its committed
    EXACT duplicate (identical token payload), via the maintained
    content-hash index (``engine/dedup_index.py``). sha256 decides at
    the postings row, so the stage is a single routed postings lookup
    per batch — no candidate point-fetch, no verify. Matches report
    ``neardup_jaccard = 1.0`` (an exact dup IS Jaccard 1.0), so the
    quarantine/commit plumbing downstream is shared verbatim with the
    near-dup mode."""

    def __init__(self, view_dir: str, *, tokens_column: str, key_column: str):
        self.view_dir = view_dir
        self.tokens_column = tokens_column
        self.key_column = key_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch, pm, pj = _split_prior(batch)
        n = batch.num_rows
        match = np.full(n, None, dtype=object)

        toks = batch[self.tokens_column]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        screen_mask = pc.and_(
            toks.is_valid(), pc.not_equal(batch["op"], "D")
        ).to_numpy(zero_copy_only=False)
        if pm is not None:  # chained: only still-clean rows screen here
            screen_mask &= ~pm.is_valid().to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(screen_mask)
        if idx.size:
            sub = batch.take(pa.array(idx))
            keys = sub[self.key_column].to_pylist()
            hashes = content_hashes(sub[self.tokens_column]).to_pylist()
            postings = lookup_terms(self.view_dir, sorted(set(hashes)))
            if postings.num_rows:
                by_hash: dict[str, list[str]] = {}
                for h, key in zip(postings[HASH_COLUMN].to_pylist(),
                                  postings[self.key_column].to_pylist()):
                    by_hash.setdefault(h, []).append(key)
                for qi, row_i in enumerate(idx):
                    # a row whose only committed twin is ITSELF (an
                    # update re-upload) is never suppressed
                    twins = sorted(d for d in by_hash.get(hashes[qi], ())
                                   if d != keys[qi])
                    if twins:
                        match[row_i] = twins[0]

        matched = pa.array(match.tolist(), pa.string())
        jac_arr = pc.if_else(matched.is_valid(), pa.scalar(1.0, pa.float64()),
                             pa.nulls(n, pa.float64()))
        matched, jac_arr = _merge_prior(matched, jac_arr, pm, pj)
        out = batch.append_column(MATCH_COLUMN, matched)
        return out.append_column(JACCARD_COLUMN, jac_arr)


class QualityScreen:
    """Stateless plain-task stage: annotate each incoming event with a
    quality-rejection reason — the Gopher/C4-style ingest rules applied
    to the token payload:

    - ``n_tok < min_tok`` (or ``> max_tok`` when set): degenerate or
      runaway payloads;
    - most-frequent-token fraction ``> max_top_frac``: repetition
      collapse (the ``docs_repetition`` keep-rule, applied at ingest).

    No index, no reads — pure per-batch vectorized compute, so this
    screen costs O(incoming epoch) map work and nothing else. In quality
    mode ``MATCH_COLUMN`` carries the human-readable REASON (there is no
    committed twin) and the jaccard column stays null."""

    def __init__(self, *, tokens_column: str, min_tok: int,
                 max_tok: int | None, max_top_frac: float):
        self.tokens_column = tokens_column
        self.min_tok = min_tok
        self.max_tok = max_tok
        self.max_top_frac = max_top_frac

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        batch, pm, pj = _split_prior(batch)
        n = batch.num_rows
        reason = np.full(n, None, dtype=object)

        toks = batch[self.tokens_column]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        screen_mask = pc.and_(
            toks.is_valid(), pc.not_equal(batch["op"], "D")
        ).to_numpy(zero_copy_only=False)
        if pm is not None:  # chained: only still-clean rows screen here
            screen_mask &= ~pm.is_valid().to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(screen_mask)
        if idx.size:
            sub = toks.take(pa.array(idx))
            offsets = np.asarray(sub.offsets, dtype=np.int64)
            lens = np.diff(offsets)
            values = np.asarray(sub.values, dtype=np.int64)
            doc_of = np.repeat(np.arange(len(idx)), lens)
            mx = (
                pd.DataFrame({"d": doc_of, "t": values})
                .groupby(["d", "t"], sort=False).size()
                .groupby(level=0).max()
                .reindex(range(len(idx)), fill_value=0)
                .to_numpy()
            )
            top_frac = mx / np.maximum(lens, 1)
            # rule masks vectorized; Python touches only the FLAGGED
            # minority (reason-string construction), never every row
            short = lens < self.min_tok
            long_ = (np.zeros(len(lens), dtype=bool) if self.max_tok is None
                     else lens > self.max_tok)
            rep = top_frac > self.max_top_frac
            for qi in np.flatnonzero(short | long_ | rep):
                if short[qi]:
                    r = f"quality:n_tok={lens[qi]}<{self.min_tok}"
                elif long_[qi]:
                    r = f"quality:n_tok={lens[qi]}>{self.max_tok}"
                else:
                    r = (f"quality:top_token_frac={top_frac[qi]:.3f}"
                         f">{self.max_top_frac}")
                reason[idx[qi]] = r

        matched, jac_arr = _merge_prior(
            pa.array(reason.tolist(), pa.string()),
            pa.nulls(n, pa.float64()), pm, pj,
        )
        out = batch.append_column(MATCH_COLUMN, matched)
        return out.append_column(JACCARD_COLUMN, jac_arr)


# eval benchmarks are small by definition; the cap turns a misconfigured
# bench path (e.g. pointed at the corpus) into a loud error instead of an
# OOM'd actor pool
DECONTAM_MAX_WINDOWS = 2_000_000

_DECONTAM_MASK_BITS = 22  # 4 MiB direct-indexed bitset prefilter


def build_decontam_state(bench_path: str, *, ngram: int,
                         tokens_column: str) -> dict:
    """Expand the eval benchmark into the screen's lookup state — three
    plain numpy arrays so one ``ray.put`` broadcasts them zero-copy to
    every task for the whole replay (no per-epoch actor pools, no
    per-actor re-read of the bench):

    - ``hash_sorted`` (uint64): one entry per distinct
      (window-hash, window-bytes) pair, sorted by hash — duplicate
      hashes appear when distinct windows collide;
    - ``wins_sorted`` (n × ngram uint32): the window tokens aligned with
      ``hash_sorted``, for the byte-exact confirm;
    - ``mask`` (bool, 2^22): the bitset prefilter — at ~2M bench windows
      the fill ratio stays <50%, so the (exact) binary search runs on a
      small candidate minority only.

    Fully vectorized: the whole bench hashes as ONE flat buffer with the
    same kernel/boundary-masking the per-batch screen uses. Capped at
    ``DECONTAM_MAX_WINDOWS`` distinct windows (total windows are bounded
    first so a corpus-sized file errors before any O(windows) sort)."""
    import pyarrow.parquet as pq

    from ..stages.dedup import token_window_hashes

    L = int(ngram)
    bench = pq.read_table(bench_path, columns=[tokens_column])
    col = bench[tokens_column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    offs = col.offsets.to_numpy(zero_copy_only=False)
    offs = offs - offs[0]
    hs = np.empty(0, dtype=np.uint64)
    Ws = np.empty((0, L), dtype="<u4")
    if len(flat) >= L:
        # distinct ≤ total, so a total-window bound errors loudly before
        # the dedup sort ever allocates corpus-sized temporaries
        if len(flat) > 10 * DECONTAM_MAX_WINDOWS:
            raise ValueError(
                f"decontam bench {bench_path!r} exceeds "
                f"{DECONTAM_MAX_WINDOWS} distinct {L}-gram windows — "
                "that is corpus-sized, not an eval bench")
        h = token_window_hashes(flat, L)
        doc_of = np.repeat(np.arange(len(col)), np.diff(offs))
        within = doc_of[: len(h)] == doc_of[L - 1:]
        valid = np.flatnonzero(within)
        if valid.size:
            hv = h[valid]
            flat_u4 = (flat.view("<u4") if flat.dtype == np.int32
                       else flat.astype("<u4"))
            Wv = np.lib.stride_tricks.sliding_window_view(flat_u4, L)[valid]
            order = np.lexsort(
                tuple(Wv[:, j] for j in range(L - 1, -1, -1)) + (hv,))
            hs, Ws = hv[order], Wv[order]
            keep = np.ones(len(hs), dtype=bool)
            keep[1:] = (hs[1:] != hs[:-1]) | (Ws[1:] != Ws[:-1]).any(axis=1)
            hs, Ws = hs[keep], np.ascontiguousarray(Ws[keep])
    if len(hs) > DECONTAM_MAX_WINDOWS:
        raise ValueError(
            f"decontam bench {bench_path!r} exceeds "
            f"{DECONTAM_MAX_WINDOWS} distinct {L}-gram windows — "
            "that is corpus-sized, not an eval bench")
    mask = np.zeros(1 << _DECONTAM_MASK_BITS, dtype=bool)
    mask[(hs & np.uint64((1 << _DECONTAM_MASK_BITS) - 1)
          ).astype(np.int64)] = True
    return {"hash_sorted": hs, "wins_sorted": Ws, "mask": mask}


class DecontamScreen:
    """Flag incoming events whose token payload contains any
    ``ngram``-token window of the eval benchmark — the
    ``docs_decontaminate`` sweep (GPT-3 App. C-style n-gram
    contamination) turned into a standing ingest invariant: a document
    that would leak eval data never enters the training corpus.

    State is :func:`build_decontam_state` output (eval-bench-sized,
    capped — never the corpus). Per batch, every payload window is
    hashed with the same vectorized polynomial kernel the span dedup
    uses (``stages/dedup.py::token_window_hashes``) over the batch's
    FLAT value buffer — windows straddling a row boundary are masked
    out, hits are confirmed byte-exact (a 64-bit hash collision can
    never quarantine a clean doc), and the row's reason records the
    distinct contaminated windows. Jaccard stays null, like the quality
    screen; the payload rides into quarantine (its content exists
    nowhere else) so ``readmit`` can bring a false positive back.

    Constructed directly it reads the bench itself (self-contained
    actor/stage use); :func:`screen_events` instead builds the state
    ONCE on the driver, broadcasts it via ``ray.put`` and runs the
    screen as plain tasks (:meth:`from_state`) — measured ~2x cheaper
    per gated epoch than per-epoch actor pools (BASELINE.md)."""

    def __init__(self, *, bench_path: str, ngram: int, tokens_column: str):
        from ..stages.dedup import token_window_hashes

        self.ngram = int(ngram)
        self.tokens_column = tokens_column
        self._hash_windows = token_window_hashes
        st = build_decontam_state(bench_path, ngram=ngram,
                                  tokens_column=tokens_column)
        self.hash_sorted = st["hash_sorted"]
        self.wins_sorted = st["wins_sorted"]
        self._mask = st["mask"]

    @classmethod
    def from_state(cls, state: dict, *, ngram: int,
                   tokens_column: str) -> "DecontamScreen":
        from ..stages.dedup import token_window_hashes

        obj = cls.__new__(cls)
        obj.ngram = int(ngram)
        obj.tokens_column = tokens_column
        obj._hash_windows = token_window_hashes
        obj.hash_sorted = state["hash_sorted"]
        obj.wins_sorted = state["wins_sorted"]
        obj._mask = state["mask"]
        return obj

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch, pm, pj = _split_prior(batch)
        n = batch.num_rows
        reason = np.full(n, None, dtype=object)

        toks = batch[self.tokens_column]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        screen_mask = pc.and_(
            toks.is_valid(), pc.not_equal(batch["op"], "D")
        ).to_numpy(zero_copy_only=False)
        if pm is not None:  # chained: only still-clean rows screen here
            screen_mask &= ~pm.is_valid().to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(screen_mask)
        if idx.size and len(self.hash_sorted):
            sub = toks.take(pa.array(idx))
            flat = sub.flatten().to_numpy(zero_copy_only=False)
            offs = np.asarray(sub.offsets, dtype=np.int64)
            offs = offs - offs[0]
            L = self.ngram
            if len(flat) >= L:
                h = self._hash_windows(flat, L)
                doc_of = np.repeat(np.arange(len(idx)), np.diff(offs))
                # a window is real only if its last token is in the same
                # row as its first (the flat buffer concatenates rows)
                within = doc_of[: len(h)] == doc_of[L - 1:]
                # bitset prefilter (one load/window), then exact binary
                # search on the surviving minority only
                maybe = within & self._mask[
                    (h & np.uint64((1 << _DECONTAM_MASK_BITS) - 1)
                     ).astype(np.int64)]
                mi = np.flatnonzero(maybe)
                hit_pos = np.empty(0, dtype=np.int64)
                if mi.size:
                    hm = h[mi]
                    lo = np.searchsorted(self.hash_sorted, hm, "left")
                    hi = np.searchsorted(self.hash_sorted, hm, "right")
                    cand = hi > lo
                    ci = mi[cand]
                    if ci.size:
                        flat_u4 = (flat.view("<u4") if flat.dtype == np.int32
                                   else flat.astype("<u4"))
                        Wv = np.lib.stride_tricks.sliding_window_view(
                            flat_u4, L)
                        lo_c, hi_c = lo[cand], hi[cand]
                        eq = np.zeros(len(ci), dtype=bool)
                        single = (hi_c - lo_c) == 1
                        si = np.flatnonzero(single)
                        if si.size:  # vectorized byte-exact confirm
                            eq[si] = (self.wins_sorted[lo_c[si]]
                                      == Wv[ci[si]]).all(axis=1)
                        for j in np.flatnonzero(~single):  # collision groups
                            eq[j] = (self.wins_sorted[lo_c[j]:hi_c[j]]
                                     == Wv[ci[j]]).all(axis=1).any()
                        hit_pos = ci[eq]
                if hit_pos.size:
                    # distinct contaminated windows per doc: unique
                    # (doc, window tokens) rows of the confirmed hits
                    rows = np.column_stack([
                        doc_of[hit_pos].astype(np.uint64),
                        Wv[hit_pos].astype(np.uint64)])
                    uniq_rows = np.unique(rows, axis=0)
                    docs, counts = np.unique(uniq_rows[:, 0],
                                             return_counts=True)
                    for d, c in zip(docs, counts):
                        reason[idx[int(d)]] = (
                            f"contaminated:ngram={L}:hits={int(c)}")

        matched, jac_arr = _merge_prior(
            pa.array(reason.tolist(), pa.string()),
            pa.nulls(n, pa.float64()), pm, pj,
        )
        out = batch.append_column(MATCH_COLUMN, matched)
        return out.append_column(JACCARD_COLUMN, jac_arr)


def _decontam_task(batch: pa.Table, *, state_ref, ngram: int,
                   tokens_column: str) -> pa.Table:
    """Plain-task form of the decontam screen: the broadcast state comes
    out of the object store zero-copy (all-numpy), so per-batch
    reconstruction is pointer assignment — no actor pool to spin up."""
    state = ray.get(state_ref) if isinstance(state_ref, ray.ObjectRef) \
        else state_ref
    screen = DecontamScreen.from_state(state, ngram=ngram,
                                       tokens_column=tokens_column)
    return screen(batch)


def epoch_distribution_verdict(
    events_ds: ray.data.Dataset,
    table_dir: str,
    *,
    tokens_column: str = "tokens",
    max_drift: float = 0.5,
    fs: StorageAdapter | None = None,
) -> str | None:
    """EPOCH-level distribution guard (the bad-crawl detector): compare
    the incoming epoch's token-length quantiles against the table's
    COMMITTED manifest sketches (``engine/telemetry.py`` — zero data
    reads on the committed side) and return a quarantine reason when
    p50 or p90 shifts by more than ``max_drift`` relative. None = pass.

    The incoming side costs one skinny pass over the epoch (list
    lengths → per-batch KLL partials, merged on the driver — O(#blocks)
    sketch rows). A fresh table (no committed sketch) always passes:
    there is no distribution to defend yet."""
    from ..core.sketch import KLL, kll_from_compact, kll_to_compact
    from .telemetry import SKETCH_K, epoch_quantiles

    try:
        committed = epoch_quantiles(table_dir, fs=fs)["columns"].get("n_tok")
    except FileNotFoundError:
        return None
    if not committed:
        return None

    def partial(t: pa.Table) -> pa.Table:
        # the SAME column the committed sketch tracks: n_tok when the
        # events carry it, else the tokens list lengths (equal under the
        # payload contract; the column is authoritative when present)
        if "n_tok" in t.schema.names:
            vals = pc.cast(t["n_tok"], pa.float64())
            keep = pc.and_(vals.is_valid(), pc.not_equal(t["op"], "D"))
            lens = vals.to_numpy(zero_copy_only=False)
        else:
            col = t[tokens_column]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            keep = pc.and_(col.is_valid(), pc.not_equal(t["op"], "D"))
            lens = pc.list_value_length(col).to_numpy(
                zero_copy_only=False).astype(np.float64)
        lens = lens[keep.to_numpy(zero_copy_only=False)]
        s = KLL(SKETCH_K)
        s.add_many(lens.astype(np.float64))
        return pa.table({"sk": pa.array([kll_to_compact(s)], pa.binary())})

    merged = KLL(SKETCH_K)
    for b in events_ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for raw in b["sk"].to_pylist():
            merged = merged.merge(kll_from_compact(raw))
    if merged.n == 0:
        return None
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        base = committed.get(name)
        if not base:
            continue
        shift = (merged.quantile(q) - base) / abs(base)
        if abs(shift) > max_drift:
            return (f"distribution_drift:{name}{shift:+.0%}"
                    f"(|shift|>{max_drift:.0%} vs committed epoch)")
    return None


def screen_events(
    events_ds: ray.data.Dataset,
    table_dir: str,
    view_dir: str | None,
    *,
    threshold: float = 0.5,
    k: int = 5,
    seed: int = 1234,
    tokens_column: str = "tokens",
    key_column: str = "doc_id",
    max_candidates: int = 500,
    concurrency=None,  # kept for API compat; screens run as plain tasks
    batch_size: int = 4096,
    mode: str | list[str] = "neardup",
    min_tok: int = 5,
    max_tok: int | None = None,
    max_top_frac: float = 0.2,
    bench_path: str | None = None,
    ngram: int = 8,
    max_drift: float = 0.5,
    decontam_state_ref=None,
    fs: StorageAdapter | None = None,
) -> ray.data.Dataset:
    """Annotate an incoming change-event Dataset with suppression flags.
    ``mode`` may be a single screen or a LIST applied in order in ONE
    epoch pass (e.g. ``["quality", "exact"]`` — the full ingest stack):
    each chained screen scores only the rows every earlier screen left
    clean, so the FIRST flag wins and a row quarantines once with one
    reason. At most one INDEX screen (neardup/exact) per gate — it owns
    the one ``view_dir``. Index screens pass through (null columns)
    when there is no committed index state yet; the quality and
    decontam screens are stateless (decontam's bench file, named by
    ``bench_path`` with window length ``ngram``, loads once per actor)
    and always run.

    ``batch_size`` is the screen's amortization lever: each batch pays
    ONE postings lookup (partition-pruned — the indexes route by their
    probe key) plus, for neardup, one candidate point-fetch; larger
    batches spread those fixed reads across more events. Raise it for
    skinny token payloads, lower it only if probe-token memory binds.
    Measurements in BASELINE.md."""
    fs = default_fs(fs)
    modes = [mode] if isinstance(mode, str) else list(mode)
    if not modes:
        raise ValueError("at least one gate mode required")
    for m in modes:
        if m not in ("quality", "exact", "neardup", "decontam", "drift"):
            raise ValueError(f"unknown gate mode {m!r} (expected 'neardup', "
                             "'exact', 'quality', 'decontam' or 'drift')")
    if "decontam" in modes and not bench_path:
        raise ValueError("decontam mode requires bench_path (the eval "
                         "benchmark parquet to screen against)")
    index_modes = [m for m in modes if m in ("neardup", "exact")]
    if len(index_modes) > 1:
        raise ValueError(
            f"at most one index screen per gate, got {index_modes}")

    drift_reason = None
    if "drift" in modes:
        # whole-epoch verdict computed ONCE from the pristine epoch
        # (distribution is judged on the incoming payload as a whole)
        drift_reason = epoch_distribution_verdict(
            events_ds, table_dir, tokens_column=tokens_column,
            max_drift=max_drift, fs=fs)

    ds = events_ds
    for m in modes:
        if m == "drift":
            def drift_flag(batch: pa.Table, _r=drift_reason) -> pa.Table:
                batch, pm, pj = _split_prior(batch)
                n = batch.num_rows
                if _r is None:
                    flags = pa.nulls(n, pa.string())
                else:  # refuse the epoch wholesale: every non-D payload row
                    flags = pc.if_else(
                        pc.equal(batch["op"], "D"),
                        pa.nulls(n, pa.string()),
                        pa.array([_r] * n, pa.string()),
                    )
                matched, jac = _merge_prior(flags, pa.nulls(n, pa.float64()),
                                            pm, pj)
                out = batch.append_column(MATCH_COLUMN, matched)
                return out.append_column(JACCARD_COLUMN, jac)

            ds = ds.map_batches(drift_flag, batch_format="pyarrow",
                                batch_size=batch_size)
            continue
        if m == "quality":
            # stateless: no index to check, screens even a fresh table.
            # Plain tasks, not an actor pool — the screen's only "state"
            # is a ~100-word stop set, and per-epoch pool spin-up costs
            # more than it saves (measured; BASELINE.md)
            screen = QualityScreen(
                tokens_column=tokens_column, min_tok=min_tok,
                max_tok=max_tok, max_top_frac=max_top_frac)
            ds = ds.map_batches(
                screen.__call__,
                batch_format="pyarrow",
                batch_size=batch_size,
            )
            continue
        if m == "decontam":
            # stateless like quality — no maintained index to guard. The
            # bench state is built ONCE (driver) and broadcast: plain
            # tasks read it zero-copy from the object store, so there is
            # no per-epoch actor-pool spin-up and no per-actor bench
            # re-read (measured; BASELINE.md). Callers looping epochs
            # (replay_gated) pass decontam_state_ref to share one build.
            import functools

            ref = decontam_state_ref
            if ref is None:
                ref = ray.put(build_decontam_state(
                    bench_path, ngram=ngram, tokens_column=tokens_column))
            ds = ds.map_batches(
                functools.partial(_decontam_task, state_ref=ref,
                                  ngram=ngram, tokens_column=tokens_column),
                batch_format="pyarrow",
                batch_size=batch_size,
            )
            continue
        cur_view = _check_view(view_dir, table_dir, k=k, seed=seed,
                               tokens_column=tokens_column,
                               key_column=key_column, fs=fs, mode=m)
        if cur_view is None or not cur_view.partitions:
            def passthrough(batch: pa.Table) -> pa.Table:
                if MATCH_COLUMN in batch.schema.names:
                    return batch  # an earlier screen already annotated
                n = batch.num_rows
                out = batch.append_column(MATCH_COLUMN, pa.nulls(n, pa.string()))
                return out.append_column(JACCARD_COLUMN,
                                         pa.nulls(n, pa.float64()))
            ds = ds.map_batches(passthrough, batch_format="pyarrow")
        elif m == "exact":
            # plain tasks, like every other screen: the stage holds no
            # cross-batch state (params + a postings lookup per batch),
            # so an actor pool only adds per-epoch spin-up and caps
            # parallelism at the pool size (measured; BASELINE.md)
            screen = ExactDupScreen(
                view_dir=view_dir, tokens_column=tokens_column,
                key_column=key_column)
            ds = ds.map_batches(
                screen.__call__,
                batch_format="pyarrow",
                batch_size=batch_size,
            )
        else:
            screen = NearDupScreen(
                view_dir=view_dir, table_dir=table_dir, threshold=threshold,
                k=k, seed=seed, tokens_column=tokens_column,
                key_column=key_column, max_candidates=max_candidates)
            ds = ds.map_batches(
                screen.__call__,
                batch_format="pyarrow",
                batch_size=batch_size,
            )
    return ds


def _footer_rows(d: str) -> int:
    import glob

    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in glob.glob(os.path.join(d, "*.parquet")))


def _sweep_orphan_tmp(final: str, keep: str | None = None) -> None:
    """Remove ``epoch-EEEEEE.tmp-*`` residue from crashed attempts.
    Called only once ``final`` exists — at that point the epoch is
    committed, so any remaining tmp (unique uuid per attempt) is
    garbage; sweeping earlier could yank a live peer's in-progress
    write out from under it."""
    import glob

    for d in glob.glob(f"{final}.tmp-*"):
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)


def _write_quarantine(quarantined: ray.data.Dataset, table_dir: str,
                      epoch: int) -> tuple[str | None, int]:
    """Stream suppressed events to ``_quarantine/epoch-EEEEEE/`` with an
    atomic directory rename: a retried epoch finds the directory and
    skips (idempotent), a crashed attempt leaves only a temp dir that
    the next attempt sweeps. Returns ``(dir|None, rows)`` — the write
    IS the count (parquet footers), so the suppressed stream is consumed
    exactly once; an all-clean epoch leaves no directory behind."""
    final = os.path.join(table_dir, QUARANTINE_DIR, f"epoch-{epoch:06d}")
    if os.path.isdir(final):
        _sweep_orphan_tmp(final)  # a crashed attempt's residue
        return final, _footer_rows(final)  # fenced retry: already committed
    os.makedirs(os.path.dirname(final), exist_ok=True)
    tmp = f"{final}.tmp-{uuid.uuid4().hex}"
    quarantined.write_parquet(tmp)
    rows = _footer_rows(tmp)
    if rows == 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return None, 0
    try:
        os.rename(tmp, final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # lost the race to a peer
        if not os.path.isdir(final):
            raise
        return final, _footer_rows(final)
    _sweep_orphan_tmp(final, keep=None)
    return final, rows


def apply_with_neardup_gate(
    events_ds: ray.data.Dataset,
    table_dir: str,
    view_dir: str | None,
    epoch: int,
    incoming_schema: pa.Schema,
    *,
    num_partitions: int = 32,
    threshold: float = 0.5,
    k: int = 5,
    seed: int = 1234,
    tokens_column: str = "tokens",
    key_column: str = "doc_id",
    max_candidates: int = 500,
    merge_policy: str = "rewrite",
    mode: str | list[str] = "neardup",
    min_tok: int = 5,
    max_tok: int | None = None,
    max_top_frac: float = 0.2,
    bench_path: str | None = None,
    ngram: int = 8,
    max_drift: float = 0.5,
    decontam_state_ref=None,
    fs: StorageAdapter | None = None,
) -> dict:
    """Screen → quarantine → apply → refresh, as one ingest step:

    1. screen ``events_ds`` against the committed near-dup index;
    2. stream suppressed events (match/reason + jaccard attached) to the
       per-epoch quarantine directory — the token payload rides along
       UNLESS every screen in the chain is ``exact`` (only then does the
       committed twin hold byte-identical content for ``readmit`` to
       reconstruct);
    3. apply the surviving events through the standard fenced commit;
    4. refresh the index to the new epoch so the next call screens
       against these documents too.

    Returns ``{epoch, suppressed, applied, quarantine_dir}``.

    Pass economics (measured; BASELINE.md): the annotated epoch is
    materialized ONCE — the kept/suppressed split then reads it from
    the object store instead of each consumer re-reading the changelog
    and re-running the screens (two full input passes; measured ~1.6x
    slower even for the cheapest single-screen chain). The epoch is
    incoming-slice-sized, never the corpus. The suppressed stream is
    consumed exactly once: the quarantine write doubles as the count
    (parquet footers)."""
    fs = default_fs(fs)
    modes = [mode] if isinstance(mode, str) else list(mode)
    annotated = screen_events(
        events_ds, table_dir, view_dir, threshold=threshold, k=k, seed=seed,
        tokens_column=tokens_column, key_column=key_column,
        max_candidates=max_candidates, mode=mode, min_tok=min_tok,
        max_tok=max_tok, max_top_frac=max_top_frac,
        bench_path=bench_path, ngram=ngram, max_drift=max_drift,
        decontam_state_ref=decontam_state_ref, fs=fs,
    ).materialize()

    def keep_clean(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_null(t[MATCH_COLUMN])).drop_columns(
            [MATCH_COLUMN, JACCARD_COLUMN])

    def only_flagged(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t[MATCH_COLUMN]))

    kept = annotated.map_batches(keep_clean, batch_format="pyarrow")
    suppressed = annotated.map_batches(only_flagged, batch_format="pyarrow")
    # drop the payload ONLY when every screen in the chain flags
    # byte-identical content (pure-exact gates): the committed twin
    # then holds the exact bytes and readmit reconstructs them.
    # Quality and near-dup rejections hold content that exists
    # nowhere else — it rides into quarantine so readmit can bring
    # it back instead of refusing as unrecoverable.
    drop_payload = all(m == "exact" for m in modes)
    audit_cols = [c for c in suppressed.schema().names
                  if c != tokens_column or not drop_payload]
    qdir, n_sup = _write_quarantine(suppressed.select_columns(audit_cols),
                                    table_dir, epoch)

    m = apply_events_dataset(
        kept, table_dir, epoch, incoming_schema,
        num_partitions=num_partitions, merge_policy=merge_policy, fs=fs,
    )
    for gate_mode in modes:
        view = _gate_view_def(gate_mode, k=k, seed=seed,
                              tokens_column=tokens_column,
                              key_column=key_column)
        if view is not None:  # the quality screen maintains no index
            refresh(view, view_dir, table_dir,
                    num_partitions=num_partitions, fs=fs)
    applied = int(m.epoch_counters.get("events_in", 0)) if m is not None else 0
    return {"epoch": epoch, "suppressed": int(n_sup), "applied": applied,
            "quarantine_dir": qdir}


def replay_gated(
    changelog_dir: str,
    table_dir: str,
    view_dir: str | None,
    num_partitions: int = 32,
    *,
    threshold: float = 0.5,
    k: int = 5,
    seed: int = 1234,
    tokens_column: str = "tokens",
    key_column: str = "doc_id",
    max_candidates: int = 500,
    merge_policy: str = "rewrite",
    mode: str | list[str] = "neardup",
    min_tok: int = 5,
    max_tok: int | None = None,
    max_top_frac: float = 0.2,
    bench_path: str | None = None,
    ngram: int = 8,
    max_drift: float = 0.5,
    fs: StorageAdapter | None = None,
) -> dict:
    """Tail-and-apply with the near-dup gate: every ready epoch past the
    committed checkpoint is screened, quarantined, applied and indexed —
    strictly one epoch per commit, because each epoch must screen against
    the state the previous one committed (unlike plain ``replay``, gated
    epochs cannot batch into one shuffle). Resumable/idempotent like
    ``replay``: a rerun re-screens against the same prior state and
    re-derives the identical quarantine + commit."""
    from ..core import changelog as cl
    from ..core.reconcile import unify_all
    from .cdc import _epoch_files

    fs = default_fs(fs)
    fs.makedirs(table_dir)
    pending = cl.ready_epochs(
        changelog_dir, after=mf.committed_epoch(table_dir, fs), fs=fs)
    modes = [mode] if isinstance(mode, str) else list(mode)
    decontam_ref = None
    if "decontam" in modes:  # build + broadcast ONCE for the whole tail
        decontam_ref = ray.put(build_decontam_state(
            bench_path, ngram=ngram, tokens_column=tokens_column))
    total_sup = total_applied = 0
    for e in pending:
        files = _epoch_files(changelog_dir, e, fs)
        incoming = unify_all([fs.read_parquet_schema(f) for f in files])
        events = ray.data.read_parquet(files, filesystem=fs.fs)
        # the changelog's hive layout (epoch=NNNN/) can surface as a
        # phantom partition column; the commit path conforms it away,
        # but the QUARANTINE writes pre-conform rows — and a later
        # readmit would then commit the artifact into the table schema.
        # Keep only footer-declared columns from the start.
        names = list(incoming.names)

        def footer_cols(t: pa.Table, names=names) -> pa.Table:
            return t.select([c for c in names if c in t.schema.names])

        events = events.map_batches(footer_cols, batch_format="pyarrow")
        r = apply_with_neardup_gate(
            events, table_dir, view_dir, e, incoming,
            num_partitions=num_partitions, threshold=threshold, k=k,
            seed=seed, tokens_column=tokens_column, key_column=key_column,
            max_candidates=max_candidates, merge_policy=merge_policy,
            mode=mode, min_tok=min_tok, max_tok=max_tok,
            max_top_frac=max_top_frac, bench_path=bench_path, ngram=ngram,
            max_drift=max_drift, decontam_state_ref=decontam_ref, fs=fs,
        )
        total_sup += r["suppressed"]
        total_applied += r["applied"]
    if pending:
        # same post-commit contract as plain replay: declared subscribers
        # (views, indexes, the training view) follow gated ingest too —
        # the gate's own index already refreshed per epoch above
        from .cdc import _sync_subscribers

        _sync_subscribers(table_dir, fs)
    return {"applied_epochs": pending, "suppressed": total_sup,
            "applied_events": total_applied,
            "epoch": mf.committed_epoch(table_dir, fs)}


def read_quarantine(table_dir: str, epoch: int) -> pa.Table:
    """The audit trail for one gated epoch (empty table if none)."""
    import pyarrow.dataset as pads

    d = os.path.join(table_dir, QUARANTINE_DIR, f"epoch-{epoch:06d}")
    if not os.path.isdir(d):
        return pa.table({})
    return pads.dataset(d).to_table()


def readmit(
    table_dir: str,
    from_epoch: int,
    doc_ids: list[str] | None = None,
    *,
    tokens_column: str = "tokens",
    key_column: str = "doc_id",
    num_partitions: int = 32,
    merge_policy: str = "rewrite",
    sync_subscribers: bool = True,
    view_dir: str | None = None,
    mode: str | list[str] | None = None,
    k: int = 5,
    seed: int = 1234,
    fs: StorageAdapter | None = None,
) -> dict:
    """Operator override for gate false positives: re-apply quarantined
    rows from epoch ``from_epoch`` as a NEW epoch, bypassing the gate
    (the operator has decided these rows belong in the corpus).

    Payload recovery per row:
    - quality and near-dup rejections quarantine WITH their token
      payload (their content exists nowhere else) → used directly;
    - exact-dup rejections from a pure-exact gate quarantine without
      the payload, but their committed twin holds IDENTICAL content —
      the tokens are reconstructed via a ``read_keys`` point lookup on
      the match id;
    - a payload-less row whose jaccard is < 1.0 (a quarantine written
      by a pre-retention build) is UNRECOVERABLE — the twin differs, so
      the call refuses with the ids rather than silently readmitting
      the wrong content.

    After the fenced commit, subscribers sync to the new epoch, and —
    when ``view_dir``/``mode`` name a gate index that is NOT a
    subscriber — that index refreshes directly, so the next gated epoch
    screens against the readmitted docs instead of tripping the
    staleness guard. Returns ``{epoch, readmitted}``.

    Scale note: the quarantine is EPOCH-bounded (the suppressed slice of
    one ingest epoch, never the corpus), and readmit materializes it on
    the driver — operator-override scale by construction. A readmit big
    enough to strain driver memory means the gate itself was
    misconfigured for that epoch."""
    fs = default_fs(fs)
    q = read_quarantine(table_dir, from_epoch)
    if q.num_rows == 0:
        return {"epoch": None, "readmitted": 0}
    if doc_ids is not None:
        want = sorted(set(doc_ids))
        q = q.filter(pc.is_in(q[key_column], value_set=pa.array(want)))
        found = set(q[key_column].to_pylist())
        missing = [d for d in want if d not in found]
        if missing:
            raise ValueError(
                f"not in epoch {from_epoch}'s quarantine: {missing}")

    keys = q[key_column].to_pylist()
    jac = q[JACCARD_COLUMN].to_pylist()
    match = q[MATCH_COLUMN].to_pylist()
    toks: list[list[int] | None]
    if tokens_column in q.schema.names:
        toks = q[tokens_column].to_pylist()
    else:
        toks = [None] * q.num_rows

    need_twin = [i for i, t in enumerate(toks) if t is None]
    unrecoverable = [keys[i] for i in need_twin if jac[i] != 1.0]
    if unrecoverable:
        raise ValueError(
            "payload unrecoverable for near-dup rejections (quarantine "
            f"drops the tokens and the twin differs): {sorted(unrecoverable)}")
    if need_twin:
        twin_ids = sorted({match[i] for i in need_twin})
        rows = read_keys(table_dir, twin_ids,
                         columns=[key_column, tokens_column], fs=fs)
        tok_of = dict(zip(rows[key_column].to_pylist(),
                          rows[tokens_column].to_pylist()))
        gone = sorted({match[i] for i in need_twin if match[i] not in tok_of})
        if gone:
            raise ValueError(
                f"exact-dup twins no longer committed (deleted?): {gone}")
        for i in need_twin:
            toks[i] = tok_of[match[i]]

    events = q.drop_columns(
        [c for c in (MATCH_COLUMN, JACCARD_COLUMN, tokens_column)
         if c in q.schema.names]
    ).append_column(tokens_column, pa.array(toks, pa.list_(pa.int32())))
    epoch = mf.committed_epoch(table_dir, fs) + 1
    apply_events_dataset(
        ray.data.from_arrow(events), table_dir, epoch, events.schema,
        num_partitions=num_partitions, merge_policy=merge_policy, fs=fs,
    )
    if sync_subscribers:
        from .subscriptions import sync

        sync(table_dir, fs)
    if view_dir is not None and mode is not None:
        for gate_mode in ([mode] if isinstance(mode, str) else list(mode)):
            view = _gate_view_def(gate_mode, k=k, seed=seed,
                                  tokens_column=tokens_column,
                                  key_column=key_column)
            if view is not None:
                refresh(view, view_dir, table_dir,
                        num_partitions=num_partitions, fs=fs)
    return {"epoch": epoch, "readmitted": len(keys)}


# ---------------------------------------------------------------------------
# Quarantine retention — the audit trail is per-gated-epoch directories;
# at changelog scale (one gated commit per epoch) they accumulate without
# bound, so retention is a first-class policy like manifest vacuum.

RETENTION_FILE = "_RETENTION.json"
_EPOCH_DIR_RE = None  # compiled lazily (module import stays light)


def list_quarantine_epochs(table_dir: str) -> list[int]:
    """Committed quarantine epochs, ascending — matches ``epoch-EEEEEE``
    exactly, so crashed-attempt ``.tmp-*`` residue and the retention
    policy file never pollute counts (``status`` uses this too)."""
    import glob
    import re

    global _EPOCH_DIR_RE
    if _EPOCH_DIR_RE is None:
        _EPOCH_DIR_RE = re.compile(r"epoch-(\d{6})$")
    out = []
    for d in glob.glob(os.path.join(table_dir, QUARANTINE_DIR, "epoch-*")):
        m = _EPOCH_DIR_RE.search(os.path.basename(d))
        if m and os.path.isdir(d):
            out.append(int(m.group(1)))
    return sorted(out)


def set_quarantine_policy(table_dir: str, keep_epochs: int) -> dict:
    """Record the standing retention policy (atomic write): keep the
    newest ``keep_epochs`` quarantine directories; older ones are
    expired by :func:`expire_quarantine` — directly or via the
    maintenance autopilot, which plans an expire whenever the backlog
    exceeds the recorded policy. ``keep_epochs <= 0`` clears the
    policy (retention returns to keep-everything)."""
    import json

    qroot = os.path.join(table_dir, QUARANTINE_DIR)
    os.makedirs(qroot, exist_ok=True)
    path = os.path.join(qroot, RETENTION_FILE)
    if keep_epochs <= 0:
        if os.path.exists(path):
            os.remove(path)
        return {"policy": None}
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    with open(tmp, "w") as f:
        json.dump({"keep_epochs": int(keep_epochs)}, f)
    os.replace(tmp, path)
    return {"policy": {"keep_epochs": int(keep_epochs)}}


def quarantine_policy(table_dir: str) -> dict | None:
    """The recorded retention policy, or None (keep everything)."""
    import json

    path = os.path.join(table_dir, QUARANTINE_DIR, RETENTION_FILE)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def expire_quarantine(table_dir: str, keep_epochs: int | None = None,
                      *, before_epoch: int | None = None) -> dict:
    """Expire old quarantine directories. ``before_epoch`` removes every
    committed quarantine strictly older than it; otherwise the newest
    ``keep_epochs`` directories survive (default: the recorded policy).
    With neither, a no-op — the audit trail is never silently dropped.
    Idempotent: re-running removes nothing further. Expired epochs can
    no longer ``readmit`` (read_quarantine returns empty) — that is the
    retention trade the operator opted into."""
    epochs = list_quarantine_epochs(table_dir)
    if before_epoch is not None:
        doomed = [e for e in epochs if e < before_epoch]
    else:
        if keep_epochs is None:
            pol = quarantine_policy(table_dir)
            keep_epochs = pol["keep_epochs"] if pol else None
        if keep_epochs is None:
            return {"removed": [], "kept": len(epochs), "reason": "no policy"}
        doomed = epochs[:-keep_epochs] if keep_epochs > 0 else epochs
    removed = []
    for e in doomed:
        d = os.path.join(table_dir, QUARANTINE_DIR, f"epoch-{e:06d}")
        _sweep_orphan_tmp(d)  # committed-or-doomed either way: residue goes
        shutil.rmtree(d, ignore_errors=True)
        if not os.path.isdir(d):
            removed.append(e)
    return {"removed": removed, "kept": len(epochs) - len(removed)}
