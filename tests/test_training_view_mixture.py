"""Training-view extensions: deterministic per-source mixture weights
(domain up/down-sampling at pack time) and the rank/world sharded reader
(dataloader contract)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from gamechanger_data_ray.engine.cdc import apply_events_dataset
from gamechanger_data_ray.engine.training_view import (
    read_training_view,
    training_view_refresh,
)

CAP = 32
P = 4


def _events(rows):
    op, lsn, seq, doc, toks, src = zip(*rows)
    return pa.table({
        "op": pa.array(op, pa.string()),
        "lsn": pa.array(lsn, pa.int64()),
        "seq": pa.array(seq, pa.int64()),
        "doc_id": pa.array(doc, pa.string()),
        "tokens": pa.array([list(t) for t in toks], pa.list_(pa.int32())),
        "n_tok": pa.array([len(t) for t in toks], pa.int32()),
        "source": pa.array(src, pa.string()),
    })


def _tokens(seed, n=24):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 999, size=n).astype(int).tolist()


@pytest.fixture()
def mixed_table(tmp_path):
    tb = str(tmp_path / "tb")
    rows = (
        [("I", 1, i, f"web-{i:03d}", _tokens(i), "web") for i in range(60)]
        + [("I", 1, 100 + i, f"code-{i:03d}", _tokens(500 + i), "code")
           for i in range(40)]
    )
    e = _events(rows)
    apply_events_dataset(ray.data.from_arrow(e), tb, 1, e.schema,
                         num_partitions=P)
    return tb


def test_mixture_downsamples_deterministically(tmp_path, mixed_table):
    tb = mixed_table
    full = training_view_refresh(str(tmp_path / "full"), tb, cap=CAP, seed=1)
    mix = {"web": 0.4, "code": 1.0}
    a = training_view_refresh(str(tmp_path / "a"), tb, cap=CAP, seed=1,
                              mixture=mix)
    b = training_view_refresh(str(tmp_path / "b"), tb, cap=CAP, seed=1,
                              mixture=mix)
    # deterministic: two builds agree exactly
    assert a["docs"] == b["docs"] and a["total_tokens"] == b["total_tokens"]
    # code kept whole, web thinned to ~40% (hash-Bernoulli, wide tolerance)
    assert a["docs"] < full["docs"]
    assert full["docs"] - a["docs"] <= 60  # only web docs can drop
    kept_web = a["docs"] - 40
    assert 10 <= kept_web <= 40
    # weight > 1 / unknown keys refuse loudly
    with pytest.raises(ValueError, match="mixture"):
        training_view_refresh(str(tmp_path / "c"), tb, cap=CAP, seed=1,
                              mixture={"web": 1.5})


def test_mixture_is_part_of_view_identity(tmp_path, mixed_table):
    tb = mixed_table
    out = str(tmp_path / "v")
    training_view_refresh(out, tb, cap=CAP, seed=1, mixture={"web": 0.5})
    # same params → fenced no-op; different mixture → refuse
    training_view_refresh(out, tb, cap=CAP, seed=1, mixture={"web": 0.5})
    with pytest.raises(ValueError, match="mixture"):
        training_view_refresh(out, tb, cap=CAP, seed=1)
    with pytest.raises(ValueError, match="mixture"):
        training_view_refresh(out, tb, cap=CAP, seed=1, mixture={"web": 0.9})


def test_mixture_refresh_equals_fresh(tmp_path, mixed_table):
    tb = mixed_table
    out = str(tmp_path / "v")
    mix = {"web": 0.4}
    training_view_refresh(out, tb, cap=CAP, seed=1, mixture=mix)
    e2 = _events([("I", 2, 0, "web-new", _tokens(7), "web"),
                  ("D", 2, 1, "code-000", _tokens(1), "code")])
    apply_events_dataset(ray.data.from_arrow(e2), tb, 2, e2.schema,
                         num_partitions=P)
    chain = training_view_refresh(out, tb, cap=CAP, seed=1, mixture=mix)
    fresh = training_view_refresh(str(tmp_path / "f"), tb, cap=CAP, seed=1,
                                  mixture=mix)
    assert {p: b["file"] for p, b in chain["buckets"].items()} == \
           {p: b["file"] for p, b in fresh["buckets"].items()}
    assert chain["total_tokens"] == fresh["total_tokens"]


def test_rank_sharded_reader(tmp_path, mixed_table):
    tb = mixed_table
    out = str(tmp_path / "v")
    training_view_refresh(out, tb, cap=CAP, seed=1)

    def ids(ds):
        return sorted(
            i for t in ds.iter_batches(batch_size=None, batch_format="pyarrow")
            for i in t["chunk_id"].to_pylist())

    world = 3
    shards = [ids(read_training_view(out, rank=r, world_size=world))
              for r in range(world)]
    everything = ids(read_training_view(out))
    # disjoint cover of the full chunk set
    flat = sorted(i for s in shards for i in s)
    assert flat == everything and len(everything) > 0
    assert all(shards)  # every rank gets work at this scale
    # deterministic assignment
    assert ids(read_training_view(out, rank=1, world_size=world)) == shards[1]
    with pytest.raises(ValueError, match="rank"):
        read_training_view(out, rank=3, world_size=3)
    with pytest.raises(ValueError, match="rank"):
        read_training_view(out, rank=0)
