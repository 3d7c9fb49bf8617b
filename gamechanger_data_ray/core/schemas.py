"""Authoritative Arrow schemas for the CDC engine.

The lake table holds pre-tokenized training sequences (BASELINE.json
input_hint); the changelog is the WAL the engine tails. Analogs in the
reference (dod-advana/gamechanger-data):

- tokens payload table  ~ the parsed-doc corpus snapshot
  (``dataPipelines/gc_db_utils/orch/sql/create_views.sql:16-44``)
- changelog             ~ ``versioned_docs`` append log
  (``dataPipelines/gc_db_utils/orch/sql/create_tables.sql:13-29``):
  ``lsn`` is the ``batch_timestamp`` analog, ``version_hash`` mirrors the
  metadata sidecar's content hash
  (``dataPipelines/gc_ingest/tools/metadata/metadata.py:9-28``).
- ``op`` in {I,U,D}     ~ manifest ``Process`` column in {Insert, Delete}
  (``dataPipelines/gc_ingest/pipelines/core/configs.py:593-636``) plus
  updates-as-new-versions.
- ``seq``               ~ deterministic tie-break the reference lacks (equal
  ``batch_timestamp`` rows are collapsed by DISTINCT in
  ``create_views.sql:24``); we define a total order ``(lsn, seq)`` up front.
"""

from __future__ import annotations

import pyarrow as pa

# The lake table payload (BASELINE.json input_hint shape).
TOKENS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.int32())),
        pa.field("n_tok", pa.int32()),
        pa.field("source", pa.string()),
    ]
)

# Change-event columns prepended to the payload.
EVENT_COLUMNS = [
    pa.field("op", pa.string()),  # I | U | D
    pa.field("lsn", pa.int64()),
    pa.field("seq", pa.int64()),
    pa.field("version_hash", pa.string()),
]

CHANGELOG_SCHEMA = pa.schema(list(EVENT_COLUMNS) + list(TOKENS_SCHEMA))

# Columns persisted in table partitions beyond the payload: the winning
# event's provenance, kept so later epochs can merge against state and so
# exact dedup by (doc_id, version_hash) stays possible (reference analog:
# cumulative version-hash manifest, ``rpa/rpa_landing_zone_mover.py:100-129``).
STATE_EXTRA_COLUMNS = ["lsn", "seq", "version_hash"]

KEY_COLUMN = "doc_id"
ORDER_COLUMNS = ("lsn", "seq")
OP_COLUMN = "op"
TOMBSTONE_OP = "D"
