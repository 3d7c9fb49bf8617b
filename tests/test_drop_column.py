"""Column DROP schema evolution (the drop half of add/widen/rename/drop):
manifest-only lazy drop, anti-resurrection tombstones, retire-after-rewrite,
and the post-retire re-add that must come back null for every pre-existing
row — never the old values."""

from __future__ import annotations

import glob
import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.core.reconcile import conform, unify_all
from gamechanger_data_ray.engine.cdc import (
    read_keys,
    read_table,
    replay,
    table_to_arrow,
)
from gamechanger_data_ray.engine.maintenance import (
    cluster_table,
    drop_column,
    retire_dropped,
    tag,
)
from gamechanger_data_ray.state import manifest as mf

P = 4
EPOCHS = 7


def oracle(changelog_dir: str, upto: int, lang_since: int | None) -> pa.Table:
    """DuckDB serial fold with drop semantics: each doc's row is its LWW
    winner; ``lang`` is NULL unless the winner arrived in an epoch >=
    ``lang_since`` (values from earlier epochs were dropped/discarded).
    ``lang_since=None`` = column fully absent."""
    per_epoch = {}
    for f in sorted(glob.glob(os.path.join(changelog_dir, "epoch=*", "*.parquet"))):
        e = int(f.split("epoch=")[1][:6])
        if e <= upto:
            per_epoch.setdefault(e, []).append(f)
    uni = unify_all([pq.read_schema(f) for fs in per_epoch.values() for f in fs])
    tabs = []
    for e, fs in per_epoch.items():
        for f in fs:
            t = conform(pq.read_table(f), uni)
            tabs.append(t.append_column("epoch", pa.array([e] * t.num_rows)))
    ev = pa.concat_tables(tabs)
    con = duckdb.connect()
    con.register("ev", ev)
    lang = ("" if lang_since is None else
            f", CASE WHEN epoch >= {lang_since} THEN lang END AS lang")
    return con.sql(
        f"""SELECT doc_id, tokens, n_tok, source{lang} FROM (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                        ORDER BY lsn DESC, seq DESC) rn FROM ev)
            WHERE rn = 1 AND op <> 'D' ORDER BY doc_id"""
    ).arrow()


def state(tb: str) -> pa.Table:
    t = table_to_arrow(tb)
    keep = [c for c in ("doc_id", "tokens", "n_tok", "source", "lang")
            if c in t.schema.names]
    return t.select(keep)


def test_drop_column_lifecycle(tmp_path):
    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=EPOCHS, events_per_epoch=250,
                    num_keys=120, evolution=True, zipf_a=1.3)

    # epochs 1-3: lang lands via add-column evolution at epoch 3; tag
    # here — an EARLIER-epoch snapshot the drop must never reach into
    replay(cd, tb, num_partitions=P, up_to_epoch=3)
    tag(tb, "pre-drop")
    replay(cd, tb, num_partitions=P, up_to_epoch=4)
    assert "lang" in mf.load_current(tb).schema.names

    # drop: manifest-only revision — column gone from every read NOW
    m = drop_column(tb, "lang")
    assert m.dropped_columns == ["lang"]
    assert "lang" not in m.schema.names
    got = state(tb)
    assert "lang" not in got.schema.names
    want = oracle(cd, 4, lang_since=None)
    assert got.cast(want.schema).equals(want)
    probe = got["doc_id"].to_pylist()[:3]
    assert "lang" not in read_keys(tb, probe).schema.names
    # zone maps scrubbed too
    for e in mf.load_current(tb).partitions.values():
        assert "lang" not in e.get("col_stats", {})

    # guards
    with pytest.raises(ValueError):
        drop_column(tb, "doc_id")
    with pytest.raises(KeyError):
        drop_column(tb, "no_such_col")
    with pytest.raises(KeyError):
        drop_column(tb, "lang")  # already dropped, pending retire
    with pytest.raises(KeyError):
        retire_dropped(tb, "tokens")

    # time travel at an EARLIER epoch is untouched: that manifest reads
    # under its own schema (a tag at the drop's own epoch would resolve
    # to the latest revision and see the drop — documented nuance)
    asof = pa.concat_tables(
        [pa.table(b) for b in read_table(tb, epoch="pre-drop")
         .iter_batches(batch_format="pyarrow")])
    assert "lang" in asof.schema.names

    # retire refused while the epoch-4 files still carry the bytes
    r = retire_dropped(tb)
    assert r["retired"] == [] and r["pending"].get("lang", 0) > 0
    assert "lang" in mf.load_current(tb).dropped_columns

    # epochs 5-6 still SEND lang — the tombstone must discard it, not
    # resurrect the column (5 copy-on-write, 6 merge-on-read)
    replay(cd, tb, num_partitions=P, up_to_epoch=5)
    replay(cd, tb, num_partitions=P, up_to_epoch=6, merge_policy="delta")
    cur = mf.load_current(tb)
    assert "lang" not in cur.schema.names
    assert cur.epoch_counters["dropped_columns_active"] == ["lang"]
    got = state(tb)
    want = oracle(cd, 6, lang_since=None)
    assert got.cast(want.schema).equals(want)

    # cluster rewrites every partition under the lang-less schema (the
    # epoch-5/6 merges may already have rewritten the touched ones) …
    cluster_table(tb, by="n_tok", row_group_rows=64)
    r = retire_dropped(tb)
    assert r == {"retired": ["lang"], "pending": {}}
    assert mf.load_current(tb).dropped_columns == []

    # … so the re-add in epoch 7 is a FRESH column: lang only on docs
    # whose LWW winner arrived post-retire, NULL everywhere else
    replay(cd, tb, num_partitions=P, up_to_epoch=7)
    got = state(tb)
    assert "lang" in got.schema.names
    want = oracle(cd, 7, lang_since=7)
    assert got.cast(want.schema).equals(want)
    n_lang = got["lang"].null_count
    assert 0 < n_lang < got.num_rows  # both populations exist


def test_drop_column_survives_repartition(tmp_path):
    from gamechanger_data_ray.engine.maintenance import repartition_table

    cd, tb, tb2 = (str(tmp_path / p) for p in ("cl", "tb", "tb2"))
    write_changelog(cd, num_epochs=5, events_per_epoch=200, num_keys=80,
                    evolution=True)
    replay(cd, tb, num_partitions=P, up_to_epoch=4)
    drop_column(tb, "lang")
    repartition_table(tb, tb2, new_partitions=3)
    cur = mf.load_current(tb2)
    # the rewrite itself dropped the bytes everywhere, but the tombstone
    # must ride along so epoch 5's still-sending producer is stripped
    assert cur.dropped_columns == ["lang"]
    replay(cd, tb2, num_partitions=3, up_to_epoch=5)
    assert "lang" not in mf.load_current(tb2).schema.names
    got = state(tb2)
    want = oracle(cd, 5, lang_since=None)
    assert got.cast(want.schema).equals(want)
    # every file in the repartitioned table is fresh → retire clears now
    assert retire_dropped(tb2) == {"retired": ["lang"], "pending": {}}


def test_drop_column_cli(tmp_path, capsys):
    from gamechanger_data_ray.__main__ import main

    cd, tb = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=3, events_per_epoch=150, num_keys=60,
                    evolution=True)
    replay(cd, tb, num_partitions=2)
    assert main(["drop-column", "--table", tb, "--column", "lang"]) == 0
    import json

    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["dropped"] == "lang" and out["tombstones"] == ["lang"]
    assert main(["retire-dropped", "--table", tb]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["retired"] == [] and out["pending"]["lang"] > 0
    cluster_table(tb, by="n_tok")
    assert main(["retire-dropped", "--table", tb, "--column", "lang"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out == {"retired": ["lang"], "pending": {}}
    assert main(["status", "--table", tb]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["dropped_columns"] == [] and "lang" not in out["schema"]
