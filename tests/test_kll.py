"""KLL quantile sketch: rank-error bound under adversarial inputs and
arbitrary merge orders (the sketch is randomized — the CONTRACT is the
bound, not byte equality), serialization roundtrip, and the distributed
price-quantiles face vs DuckDB's exact quantiles."""

from __future__ import annotations

import duckdb
import numpy as np
import pytest

from gamechanger_data_ray.core.sketch import KLL

K = 200
EPS = 0.02  # observed ≤0.8% at 10^6; 2% is a comfortable pinned bound


def _rank_err(data: np.ndarray, sketch: KLL, q: float) -> float:
    """Distance from target rank to the returned value's TIE INTERVAL
    [#(data < v), #(data ≤ v)] — under heavy ties any estimator's
    cumulative rank jumps by the tie size, so the interval (not a point)
    is the correct yardstick."""
    got = sketch.quantile(q)
    lo = (data < got).sum()
    hi = (data <= got).sum()
    target = q * len(data)
    if lo <= target <= hi:
        return 0.0
    return min(abs(target - lo), abs(target - hi)) / len(data)


@pytest.mark.parametrize("dist", ["uniform", "lognormal", "sorted",
                                  "reversed", "constant_blocks", "zipfy"])
def test_rank_error_bound(dist):
    rng = np.random.default_rng(7)
    n = 200_000
    data = {
        "uniform": lambda: rng.uniform(0, 1, n),
        "lognormal": lambda: rng.lognormal(3, 2, n),
        "sorted": lambda: np.sort(rng.normal(0, 1, n)),
        "reversed": lambda: np.sort(rng.normal(0, 1, n))[::-1],
        "constant_blocks": lambda: np.repeat(rng.integers(0, 20, n // 100), 100).astype(float),
        "zipfy": lambda: rng.zipf(1.5, n).astype(float),
    }[dist]()
    s = KLL(K, seed=11)
    for chunk in np.array_split(data, 37):
        s.add_many(chunk)
    assert s.n == n
    for q in (0.01, 0.25, 0.5, 0.75, 0.9, 0.99):
        assert _rank_err(data, s, q) <= EPS, (dist, q)


def test_merge_any_order_keeps_bound():
    """Partial sketches merged in shuffled / pairwise / sequential
    orders all honor the bound — the combiner contract the engine's
    other partials obey (CLAUDE.md: combiners must be associative; for
    a randomized sketch the associativity claim IS the bound)."""
    rng = np.random.default_rng(3)
    n = 120_000
    data = rng.gamma(2.0, 10.0, n)
    chunks = np.array_split(data, 24)

    def sketch_of(chunk, seed):
        s = KLL(K, seed=seed)
        s.add_many(chunk)
        return s

    parts = [sketch_of(c, i) for i, c in enumerate(chunks)]

    seq = parts[0]
    for p in parts[1:]:
        seq = seq.merge(p)

    order = rng.permutation(len(parts))
    shuf = parts[order[0]]
    for i in order[1:]:
        shuf = shuf.merge(parts[i])

    # pairwise tournament
    level = list(parts)
    while len(level) > 1:
        nxt = [level[i].merge(level[i + 1]) if i + 1 < len(level) else level[i]
               for i in range(0, len(level), 2)]
        level = nxt
    tour = level[0]

    for s in (seq, shuf, tour):
        assert s.n == n
        for q in (0.1, 0.5, 0.9):
            assert _rank_err(data, s, q) <= EPS


def test_serialization_roundtrip():
    rng = np.random.default_rng(5)
    s = KLL(64, seed=9)
    s.add_many(rng.normal(0, 1, 50_000))
    s2 = KLL.from_bytes(s.to_bytes())
    assert s2.n == s.n
    for q in (0.25, 0.5, 0.75):
        assert s2.quantile(q) == s.quantile(q)


def _v1_compact(s: KLL) -> bytes:
    """The original manifest wire form: ``<III`` (k, depth, n) header,
    then ``<I`` count + float32 items per level, zlib-compressed."""
    import struct
    import zlib

    parts = [struct.pack("<III", s.k, len(s.levels), int(s.n))]
    for buf in s.levels:
        parts.append(struct.pack("<I", len(buf)))
        parts.append(np.asarray(buf, dtype=np.float32).tobytes())
    return zlib.compress(b"".join(parts), 6)


def test_compact_counts_past_32_bits():
    """A long-lived merge-on-read partition folds sketch counts past
    2^32; the compact form must carry them (a 32-bit count field raised
    struct.error and crashed the commit)."""
    from gamechanger_data_ray.core.sketch import kll_from_compact, kll_to_compact

    s = KLL(48)
    s.add_many(np.arange(1000.0))
    s.n = 2**32
    back = kll_from_compact(kll_to_compact(s))
    assert back.n == 2**32 and back.k == 48
    assert [b.tolist() for b in back.levels] == [
        np.asarray(b, dtype=np.float32).astype(np.float64).tolist() for b in s.levels]
    big = back.merge(back)
    assert kll_from_compact(kll_to_compact(big)).n == 2**33


def test_compact_v1_blobs_still_decode():
    """Manifests written before the 64-bit header keep reading."""
    from gamechanger_data_ray.core.sketch import kll_from_compact

    rng = np.random.default_rng(3)
    s = KLL(48, seed=1)
    s.add_many(rng.normal(0, 1, 5000))
    back = kll_from_compact(_v1_compact(s))
    assert back.k == s.k and back.n == s.n
    for q in (0.1, 0.5, 0.9):
        assert back.quantile(q) == pytest.approx(s.quantile(q), rel=1e-6)


def test_fixed_memory():
    """The whole point: item count stays O(k log n), not O(n)."""
    rng = np.random.default_rng(2)
    s = KLL(128, seed=4)
    for _ in range(50):
        s.add_many(rng.uniform(0, 1, 20_000))
    held = sum(len(b) for b in s.levels)
    assert s.n == 1_000_000 and held < 3 * 128 * 14  # k · ~log2(n/k) slack


def test_price_quantiles_face(ray_session, sf_dir):
    from gamechanger_data_ray.pipelines.incremental import price_quantiles_kll

    out = price_quantiles_kll(sf_dir)
    con = duckdb.connect()
    exact = con.execute(
        f"SELECT l_extendedprice FROM read_parquet('{sf_dir}/lineitem.parquet')"
    ).fetchnumpy()["l_extendedprice"]
    assert int(out["n"][0]) == len(exact)
    for col, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        got = float(out[col][0])
        lo, hi = (exact < got).sum(), (exact <= got).sum()
        target = q * len(exact)
        err = 0.0 if lo <= target <= hi else min(
            abs(target - lo), abs(target - hi)) / len(exact)
        assert err <= EPS, (col, got, err)
