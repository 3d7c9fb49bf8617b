"""HyperLogLog distinct-count sketch — fixed-size approximate COUNT(DISTINCT)
for 10^10-key streams where an exact distinct is an all-to-all shuffle.

The reference has no sketches (SURVEY §2.6); a training-data lake needs
them (unique docs per source, vocabulary size, dedup-rate monitoring)
because the exact answer costs a full exchange while the sketch is a
fixed 2^p-byte register file that per-batch partials max-merge into.

Standard HLL (Flajolet et al.) with the usual small-range linear-counting
correction; vectorized numpy throughout (one pass per batch, no python
per row). Registers merge by elementwise max — associative + commutative,
so partial sketches compose exactly like the engine's other combiners.
"""

from __future__ import annotations

import numpy as np

_MIX = np.uint64(0x9E3779B97F4A7C15)


class HyperLogLog:
    def __init__(self, p: int = 12):
        if not 4 <= p <= 18:
            raise ValueError("p out of range")
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)
        if p == 12:
            self.alpha = 0.7213 / (1 + 1.079 / self.m)
        else:
            self.alpha = (
                0.673 if self.m == 16 else 0.697 if self.m == 32
                else 0.709 if self.m == 64 else 0.7213 / (1 + 1.079 / self.m)
            )

    @np.errstate(over="ignore")  # scoped, not process-global
    def add_many(self, hashes: np.ndarray) -> None:
        """Fold a uint64 hash array into the registers (vectorized)."""
        h = hashes.astype(np.uint64)
        h = (h ^ (h >> np.uint64(33))) * _MIX  # avalanche
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | (np.uint64(1) << np.uint64(self.p - 1))
        # rank = position of the leftmost 1-bit in the remaining 64-p bits
        rank = np.zeros(len(h), dtype=np.uint8)
        mask = np.uint64(1) << np.uint64(63)
        cur = rest.copy()
        alive = np.ones(len(h), dtype=bool)
        for r in range(1, 64 - self.p + 2):
            hit = alive & ((cur & mask) != 0)
            rank[hit] = r
            alive &= ~hit
            if not alive.any():
                break
            cur = cur << np.uint64(1)
        np.maximum.at(self.registers, idx, rank)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.p != self.p:
            raise ValueError("cannot merge sketches with different precision")
        out = HyperLogLog(self.p)
        out.registers = np.maximum(self.registers, other.registers)
        return out

    def estimate(self) -> float:
        est = self.alpha * self.m * self.m / np.sum(2.0 ** -self.registers.astype(np.float64))
        zeros = int((self.registers == 0).sum())
        if est <= 2.5 * self.m and zeros:
            est = self.m * np.log(self.m / zeros)  # linear counting
        return float(est)


class CountMin:
    """Count-Min sketch — fixed-memory frequency estimates; the hot-key
    detector that feeds skew decisions (which doc_ids would need salting
    if LWW weren't associative). Overestimates only, never under; rows
    merge by elementwise + (associative partials)."""

    def __init__(self, width: int = 1 << 12, depth: int = 4):
        self.width = np.uint64(width)
        self.depth = depth
        self.table = np.zeros((depth, width), dtype=np.int64)

    @np.errstate(over="ignore")  # scoped, not process-global
    def _rows(self, hashes: np.ndarray) -> np.ndarray:
        h = hashes.astype(np.uint64)
        out = np.empty((self.depth, len(h)), dtype=np.int64)
        for d in range(self.depth):
            hd = (h ^ np.uint64(d * 0x9E3779B97F4A7C15 & (2**64 - 1))) * _MIX
            hd ^= hd >> np.uint64(31)
            out[d] = (hd % self.width).astype(np.int64)
        return out

    def add_many(self, hashes: np.ndarray, counts: np.ndarray | None = None) -> None:
        idx = self._rows(hashes)
        c = counts if counts is not None else np.ones(len(hashes), dtype=np.int64)
        for d in range(self.depth):
            np.add.at(self.table[d], idx[d], c)

    def estimate_many(self, hashes: np.ndarray) -> np.ndarray:
        idx = self._rows(hashes)
        est = self.table[0][idx[0]]
        for d in range(1, self.depth):
            est = np.minimum(est, self.table[d][idx[d]])
        return est

    def merge(self, other: "CountMin") -> "CountMin":
        if (other.width, other.depth) != (self.width, self.depth):
            raise ValueError("cannot merge differently-shaped sketches")
        out = CountMin(int(self.width), self.depth)
        out.table = self.table + other.table
        return out


class KLL:
    """KLL quantile sketch (Karnin–Lang–Liberty 2016) — fixed-memory
    mergeable rank/quantile estimation for CONTINUOUS domains, where
    :mod:`..pipelines.tokens`'s exact bincount trick (bounded integers)
    cannot apply and the exact answer is a full sort of 10^10 rows.

    Standard simplified form: a stack of buffers, level ℓ items carry
    weight 2^ℓ; a full level sorts and promotes every other item (the
    compaction offset drawn from a seeded per-instance RNG — the sketch
    is randomized by construction, so the tests pin the RANK-ERROR BOUND
    under arbitrary merge orders, not byte equality). All per-batch work
    is numpy; ``add_many`` is one concatenate + possible compaction
    cascade per batch, not per row.

    Memory: O(k·log(n/k)) floats. Rank error: ~1.7/k·√log₂(n/k) with
    high probability — k=200 keeps observed error well under 1% of n at
    10^6 items (pinned in tests/test_kll.py over adversarial inputs)."""

    def __init__(self, k: int = 200, seed: int = 0x5EED):
        if k < 8:
            raise ValueError("k too small")
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0
        self._rng = np.random.default_rng(seed)

    def _capacity(self, level: int) -> int:
        # geometrically decaying capacities, floor 8 (KLL's c^h schedule)
        return max(8, int(round(self.k * (2.0 / 3.0) ** (len(self.levels) - 1 - level))))

    def add_many(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return
        self.n += len(v)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()

    def _compress(self) -> None:
        lv = 0
        while lv < len(self.levels):
            if len(self.levels[lv]) <= self._capacity(lv):
                lv += 1
                continue
            buf = np.sort(self.levels[lv])
            off = int(self._rng.integers(2))
            promoted = buf[off::2]
            self.levels[lv] = np.empty(0, dtype=np.float64)
            if lv + 1 == len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
            self.levels[lv + 1] = np.concatenate([self.levels[lv + 1], promoted])
            lv += 1

    def merge(self, other: "KLL") -> "KLL":
        out = KLL(self.k, seed=int(self._rng.integers(1 << 31)))
        out.n = self.n + other.n
        depth = max(len(self.levels), len(other.levels))
        out.levels = []
        for lv in range(depth):
            parts = []
            if lv < len(self.levels):
                parts.append(self.levels[lv])
            if lv < len(other.levels):
                parts.append(other.levels[lv])
            out.levels.append(np.concatenate(parts) if parts
                              else np.empty(0, dtype=np.float64))
        out._compress()
        return out

    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        items, weights = [], []
        for lv, buf in enumerate(self.levels):
            if len(buf):
                items.append(buf)
                weights.append(np.full(len(buf), 1 << lv, dtype=np.int64))
        if not items:
            return np.empty(0), np.empty(0, dtype=np.int64)
        v = np.concatenate(items)
        w = np.concatenate(weights)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (quantile_disc semantics: smallest
        item whose cumulative weight reaches ⌈q·n⌉)."""
        v, w = self._weighted()
        if not len(v):
            return float("nan")
        cum = np.cumsum(w)
        rank = max(1, int(np.ceil(q * cum[-1])))
        return float(v[np.searchsorted(cum, rank)])

    def rank(self, x: float) -> int:
        """Approximate number of items ≤ x."""
        v, w = self._weighted()
        if not len(v):
            return 0
        return int(np.cumsum(w)[np.searchsorted(v, x, side="right") - 1]) \
            if np.searchsorted(v, x, side="right") > 0 else 0

    def to_bytes(self) -> bytes:
        import pickle

        return pickle.dumps({"k": self.k, "n": self.n,
                             "levels": [b.tolist() for b in self.levels]})

    @classmethod
    def from_bytes(cls, data: bytes) -> "KLL":
        import pickle

        d = pickle.loads(data)
        out = cls(d["k"])
        out.n = d["n"]
        out.levels = [np.asarray(b, dtype=np.float64) for b in d["levels"]]
        return out


# compact wire form for manifest embedding (telemetry rides JSON
# manifests — pickle is bulky and non-portable across versions).
# v2 header: ``<II`` (0, version) then ``<IIQ`` (k, depth, n) — the 64-bit
# count survives merge-on-read folds past 2^32 items. v1 (``<III`` k,
# depth, n) is still read: its first word is k, which is never 0.
_COMPACT_VERSION = 2


def kll_to_compact(s: "KLL") -> bytes:
    import struct
    import zlib

    parts = [struct.pack("<IIIIQ", 0, _COMPACT_VERSION, s.k, len(s.levels), int(s.n))]
    for buf in s.levels:
        b = np.asarray(buf, dtype=np.float32).tobytes()
        parts.append(struct.pack("<I", len(buf)))
        parts.append(b)
    return zlib.compress(b"".join(parts), 6)


def kll_from_compact(data: bytes) -> "KLL":
    import struct
    import zlib

    raw = zlib.decompress(data)
    (first,) = struct.unpack_from("<I", raw, 0)
    if first:  # v1
        k, depth, n = struct.unpack_from("<III", raw, 0)
        off = 12
    else:
        _, version, k, depth, n = struct.unpack_from("<IIIIQ", raw, 0)
        if version != _COMPACT_VERSION:
            raise ValueError(f"unknown KLL compact version {version}")
        off = 24
    out = KLL(k)
    out.n = n
    out.levels = []
    for _ in range(depth):
        (cnt,) = struct.unpack_from("<I", raw, off)
        off += 4
        buf = np.frombuffer(raw, dtype=np.float32, count=cnt, offset=off
                            ).astype(np.float64)
        off += 4 * cnt
        out.levels.append(buf)
    return out
