"""Time-based retention: vacuum --keep-seconds (expire_snapshots
older_than). Union semantics with the count window; unstamped manifests
count as young (age unknown is never treated as old)."""

from __future__ import annotations

import json
import os
import time

import pytest

from gamechanger_data_ray.core.changelog import write_changelog
from gamechanger_data_ray.engine.cdc import replay
from gamechanger_data_ray.engine.maintenance import (
    restore,
    vacuum,
)
from gamechanger_data_ray.state import manifest as mf
from gamechanger_data_ray.state.manifest import list_manifests

P = 2


def _age(table_dir: str, epoch: int, by_seconds: int, drop: bool = False):
    """Rewrite one manifest's committed_at stamp (test-only surgery)."""
    path = os.path.join(table_dir, mf.MANIFEST_DIR, mf.manifest_name(epoch))
    d = json.loads(open(path).read())
    if drop:
        d["epoch_counters"].pop("committed_at", None)
    else:
        d["epoch_counters"]["committed_at"] -= by_seconds
    with open(path, "w") as f:
        json.dump(d, f)


def test_keep_seconds_retention(tmp_path):
    cd, td = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=4, events_per_epoch=200, num_keys=80)
    replay(cd, td, num_partitions=P, epochs_per_commit=1)
    now = int(time.time())
    assert all("committed_at" in
               json.loads(open(os.path.join(td, mf.MANIFEST_DIR,
                                            mf.manifest_name(e))).read())
               ["epoch_counters"] for e in (1, 2, 3, 4))

    # everything is young: a huge time window keeps all four even with
    # keep_epochs=1
    out = vacuum(td, keep_epochs=1, keep_seconds=10**6, now=now)
    assert out["manifests_kept"] == [1, 2, 3, 4]

    # age epochs 1-2 past the window; strip epoch 3's stamp entirely
    _age(td, 1, 10**7)
    _age(td, 2, 10**7)
    _age(td, 3, 0, drop=True)
    out = vacuum(td, keep_epochs=1, keep_seconds=3600, now=now)
    # epoch 4 = count window + young; 3 = unstamped -> conservative keep;
    # 1-2 aged out
    assert out["manifests_kept"] == [3, 4]
    assert list_manifests(td) == [3, 4]
    assert restore(td, 3) is not None
    restore(td, 4)
    with pytest.raises(FileNotFoundError):
        restore(td, 1)


def test_keep_seconds_cli(tmp_path, capsys):
    from gamechanger_data_ray.__main__ import main

    cd, td = str(tmp_path / "cl"), str(tmp_path / "tb")
    write_changelog(cd, num_epochs=3, events_per_epoch=150, num_keys=60)
    replay(cd, td, num_partitions=P, epochs_per_commit=1)
    assert main(["vacuum", "--table", td, "--keep-epochs", "1",
                 "--keep-seconds", "1000000"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["manifests_kept"] == [1, 2, 3]
