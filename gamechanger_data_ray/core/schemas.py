"""Column names and event order of the CDC engine.

The lake table holds pre-tokenized training sequences (BASELINE.json
input_hint): ``doc_id`` string, ``tokens`` list<int32>, ``n_tok`` int32,
``source`` string (the evolution epochs widen ``n_tok`` to int64 and add
``lang``). The changelog is the WAL the engine tails: each event
row is ``op``, ``lsn``, ``seq`` and ``version_hash`` ahead of that
payload, and a table partition keeps the winning event's ``lsn``, ``seq``
and ``version_hash`` beside it. ``core/changelog.py`` writes these shapes.
Analogs in the reference (dod-advana/gamechanger-data):

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

KEY_COLUMN = "doc_id"
ORDER_COLUMNS = ("lsn", "seq")
OP_COLUMN = "op"
TOMBSTONE_OP = "D"
