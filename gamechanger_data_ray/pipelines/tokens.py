"""Training-data token operators over the documents / tokens tables:
global vocabulary statistics, sequence packing (the concat-and-chunk step
of an LLM data pipeline), gazetteer mention-edge extraction (the graph
writer analog, ``dataPipelines/gc_neo4j_publisher/neo4j_publisher.py:122-172``
re-expressed as a columnar edge table), the scalar normalization chain
(``common/utils/text_utils.py:1-100``) and schema-on-read JSON repair
(``dataPipelines/gc_ingest/tools/load/utils.py:112-130``).

Scale notes per operator are inline; the packing operators use a
distributed prefix-sum (per-range partial totals → tiny driver scan →
broadcast base offsets → partition-local cumsum), so no stage ever holds
more than one key-range of rows and the only all-to-all moves are the two
keyed groupbys.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions import text_utils as tx
from . import common as cm

ORACLES: dict[str, str] = {}

PACK_CAP = 512  # tokens per packed training sequence
_RANGE_WIDTH = 128  # docs per range bucket for the prefix-sum scan
_CHUNKS_PER_GROUP = 64  # packed chunks assembled per shuffle group

# the rows :func:`chunk_sized_tokens` emits: one packed sequence each
CHUNK_SCHEMA = pa.schema([
    ("chunk_id", pa.int64()), ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int64()),
])


# ---------------------------------------------------------------------------
# Vocabulary statistics
# ---------------------------------------------------------------------------

def vocab_topk(sf_dir: str, k: int = 50):
    """Global word-frequency top-k: per-batch value_counts (combiner) →
    routed distributed sum finish (the vocabulary is open-ended, so the
    finish never lands on the driver; see ``common.routed_grouped_agg``)
    → per-block local top-k → tiny global top-k. The shuffle moves one
    row per (batch, word), never one per token."""
    ds = cm.read(sf_dir, "documents", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.split(" ").explode()
        return words.value_counts().rename_axis("word").reset_index(name="n")

    counts = cm.routed_grouped_agg(
        ds.map_batches(partial, batch_format="pandas"), ["word"], {"n": "sum"}
    )
    # top-k is a mergeable aggregate: local top-k per block, tiny final
    local = counts.map_batches(
        lambda df: df.sort_values(["n", "word"], ascending=[False, True]).head(k),
        batch_format="pandas",
    ).to_pandas()
    out = local.sort_values(["n", "word"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


ORACLES["vocab_topk"] = """
SELECT word, COUNT(*) AS n
FROM (SELECT unnest(string_split(text, ' ')) AS word FROM documents)
GROUP BY word ORDER BY n DESC, word LIMIT 50
"""


def _full_vocab(sf_dir: str) -> pd.DataFrame:
    """word → token_id, id = dense rank by (global freq desc, word asc) —
    the vocabulary-build pass of a tokenizer, fully distributed:

    partial counts → routed distributed sum (one row per word, never on
    the driver) → bucket by (n, first byte): within a bucket the global
    rank order is purely alphabetical, so rank = bucket base offset +
    local sort position — the same prefix-sum trick as
    :func:`_bucket_base_offsets`. The driver scan is O(#buckets), and
    #distinct counts is O(√total_tokens) (Σ of distinct count values ≤
    total), NOT O(|vocab|). The final ``to_pandas`` materializes only the
    finished (word, token_id) table, which every Tokenizer actor needs as
    a broadcast dict anyway — bounded like any real tokenizer vocab."""
    ds = cm.read(sf_dir, "documents", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.split(" ").explode()
        return words.value_counts().rename_axis("word").reset_index(name="n")

    counts = cm.routed_grouped_agg(
        ds.map_batches(partial, batch_format="pandas"), ["word"], {"n": "sum"}
    )

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        first = df["word"].str.slice(0, 1)
        return pd.DataFrame({
            "word": df["word"].to_numpy(),
            "n": df["n"].astype("int64").to_numpy(),
            "b": first.map(lambda s: ord(s) if s else 0).astype("int64").to_numpy(),
        })

    keyed = counts.map_batches(add_bucket, batch_format="pandas")
    keyed = keyed.materialize()  # prefix-sum is two-pass: sizes, then rank

    sizes = (
        keyed.map_batches(
            lambda df: df.groupby(["n", "b"], as_index=False).agg(
                cnt=("word", "size")),
            batch_format="pandas",
        )
        .to_pandas()  # O(#buckets × #blocks) rows — count metadata, not words
        .groupby(["n", "b"], as_index=False)["cnt"].sum()
        .sort_values(["n", "b"], ascending=[False, True])
    )
    offs = np.concatenate([[0], sizes["cnt"].to_numpy().cumsum()[:-1]])
    base_ref = cm.broadcast(dict(zip(zip(sizes["n"], sizes["b"]), offs)))

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        base = ray.get(base_ref)[(int(g["n"].iloc[0]), int(g["b"].iloc[0]))]
        g = g.sort_values("word")
        return pd.DataFrame({
            "word": g["word"].to_numpy(),
            "token_id": base + np.arange(len(g), dtype=np.int64),
        })

    ranked = keyed.groupby(["n", "b"]).map_groups(
        rank_bucket, batch_format="pandas")
    return ranked.to_pandas()


class Tokenizer:
    """Actor-pool tokenizer (ST2 model-per-worker pattern): vocabulary dict
    built once per actor from the broadcast vocab table; batches tokenize
    via C-level explode + dict map, re-assembled positionally."""

    def __init__(self, vocab_ref):
        self.vocab = dict(
            zip(*(lambda v: (v["word"], v["token_id"]))(ray.get(vocab_ref)))
        )

    def __call__(self, df: pd.DataFrame) -> pa.Table:
        # flat id array + offsets -> zero-copy ListArray<int32>: no
        # per-doc python lists (the agg(list) path upcast every token to
        # a python int and doubled the payload to int64)
        words = df["text"].str.split(" ")
        counts = words.str.len().to_numpy(dtype=np.int64)
        exploded = words.explode()
        ids = exploded.map(self.vocab).to_numpy(dtype=np.int32)
        offsets = np.zeros(len(df) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        tokens = pa.ListArray.from_arrays(
            pa.array(offsets.astype(np.int32), pa.int32()),
            pa.array(ids, pa.int32()),
        )
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"].to_numpy()),
                "tokens": tokens,
                "n_tok": pa.array(counts.astype(np.int32), pa.int32()),
                "source": pa.array(df["source"].to_numpy(), pa.string()),
            }
        )


def tokenize_documents(sf_dir: str):
    """documents → the BASELINE tokens payload shape
    ``(doc_id, tokens:list<int32>, n_tok, source)``: vocabulary pass +
    broadcast + actor-pool encode. The parse-stage analog
    (``common/document_parser/parsers/policy_analytics/parse.py:30-90``)
    for a training-data lake: raw text in, token arrays out. Verified in
    tests against a serial python tokenizer; the count projection
    :func:`doc_token_counts` is the SQL-checked face of the same op."""
    vocab_ref = cm.broadcast(_full_vocab(sf_dir))
    ds = cm.read(sf_dir, "documents", columns=["doc_id", "text", "source"])
    return ds.map_batches(
        Tokenizer,
        fn_constructor_args=(vocab_ref,),
        batch_format="pandas",
        concurrency=(1, cm.pool_size()),
    )


def _checksum_frame(ids, id_name: str, token_lists) -> pd.DataFrame:
    """Per-row positional checksum sum(token_id·(pos+1)) — an order- and
    content-sensitive int64 projection of a token array that a SQL oracle
    can recompute exactly (list columns hash unreliably across drivers)."""
    sums = [
        int(np.sum(np.asarray(t, dtype=np.int64) * np.arange(1, len(t) + 1, dtype=np.int64)))
        for t in token_lists
    ]
    return pd.DataFrame({id_name: ids, "checksum": pd.Series(sums, dtype="int64")})


def tokenize_documents_q(sf_dir: str):
    """The driver-checkable face of :func:`tokenize_documents`: the FULL
    tokenize pipeline runs (vocab pass + actor-pool encode), projected to
    (doc_id, source, n_tok, checksum) where checksum is the positional
    token sum — hash-exact vs the SQL oracle; byte-level token equality is
    covered by tests/test_tokens_pipelines.py."""

    def project(df: pd.DataFrame) -> pd.DataFrame:
        out = _checksum_frame(df["doc_id"], "doc_id", df["tokens"])
        out.insert(1, "source", df["source"].to_numpy())
        out.insert(2, "n_tok", df["n_tok"].astype("int64").to_numpy())
        return out

    return tokenize_documents(sf_dir).map_batches(project, batch_format="pandas")


ORACLES["tokenize_documents"] = """
WITH words AS (
  SELECT doc_id, source, unnest(string_split(text, ' ')) AS word,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
), vocab AS (
  SELECT word, ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, word) - 1 AS token_id
  FROM words GROUP BY word
)
SELECT w.doc_id, w.source, COUNT(*) AS n_tok,
       CAST(SUM(v.token_id * (w.pos + 1)) AS BIGINT) AS checksum
FROM words w JOIN vocab v USING (word)
GROUP BY w.doc_id, w.source
"""


def training_data_pipeline_q(sf_dir: str, cap: int | None = None):
    """Driver-checkable face of the flagship :func:`training_data_pipeline`
    (same full tokenize → concat-and-chunk run), projected to
    (chunk_id, n_tok, checksum) with the positional checksum computed per
    packed chunk. Byte-level chunk equality is covered by
    tests/test_tokens_pipelines.py."""
    chunks = training_data_pipeline(sf_dir, cap or PACK_CAP)

    def project(df: pd.DataFrame) -> pd.DataFrame:
        out = _checksum_frame(df["chunk_id"], "chunk_id", df["tokens"])
        out.insert(1, "n_tok", df["n_tok"].astype("int64").to_numpy())
        return out

    return chunks.map_batches(project, batch_format="pandas")


ORACLES["training_data_pipeline"] = f"""
WITH words AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS word,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
), vocab AS (
  SELECT word, ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, word) - 1 AS token_id
  FROM words GROUP BY word
), stream AS (
  SELECT v.token_id,
         ROW_NUMBER() OVER (ORDER BY w.doc_id, w.pos) - 1 AS gpos
  FROM words w JOIN vocab v USING (word)
)
SELECT CAST(gpos // {PACK_CAP} AS BIGINT) AS chunk_id, COUNT(*) AS n_tok,
       CAST(SUM(token_id * ((gpos % {PACK_CAP}) + 1)) AS BIGINT) AS checksum
FROM stream GROUP BY gpos // {PACK_CAP}
"""


def doc_token_counts(sf_dir: str):
    """Per-(doc, token) occurrence counts through the tokenizer — the
    SQL-oracle-checkable projection of :func:`tokenize_documents`."""
    vocab_ref = cm.broadcast(_full_vocab(sf_dir))

    class Counter:
        def __init__(self):
            self.vocab = dict(
                zip(*(lambda v: (v["word"], v["token_id"]))(ray.get(vocab_ref)))
            )

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            exploded = df.assign(word=df["text"].str.split(" ")).explode("word")
            exploded["token_id"] = exploded["word"].map(self.vocab).astype("int64")
            return (
                exploded.groupby(["doc_id", "token_id"], as_index=False, sort=False)
                .size()
                .rename(columns={"size": "n"})
            )

    ds = cm.read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(Counter, batch_format="pandas", concurrency=(1, cm.pool_size()))


ORACLES["doc_token_counts"] = """
WITH vocab AS (
  SELECT word, ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, word) - 1 AS token_id
  FROM (SELECT unnest(string_split(text, ' ')) AS word FROM documents)
  GROUP BY word
), words AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents
)
SELECT doc_id, token_id, COUNT(*) AS n
FROM words JOIN vocab USING (word)
GROUP BY doc_id, token_id
"""


# ---------------------------------------------------------------------------
# Sequence packing — document-preserving assignment
# ---------------------------------------------------------------------------

def _range_bucket(doc_id_arr) -> np.ndarray:
    """Range bucket s.t. bucket order == doc_id order (doc_id is a dense
    int key here; at scale use the sort-key ranges of the table layout)."""
    return np.asarray(doc_id_arr, dtype=np.int64) // _RANGE_WIDTH


def _bucket_base_offsets(per_bucket: pd.DataFrame) -> dict[int, int]:
    """Exclusive scan over per-bucket token totals (tiny: one row per
    range bucket) → global start offset of each bucket."""
    per_bucket = per_bucket.sort_values("bucket")
    bases = np.concatenate([[0], per_bucket["total"].to_numpy()[:-1].cumsum()])
    return dict(zip(per_bucket["bucket"].astype(int), bases.astype(int)))


def docs_pack_assignment(sf_dir: str, cap: int = PACK_CAP):
    """Assign each document (ordered by doc_id) to a fixed-capacity token
    pack: ``pack_id = floor(tokens_before_this_doc / cap)`` — the
    document-preserving sequential packing step of a training-data
    pipeline, as a distributed prefix-sum:

    pass 1: per-batch partial sums per range bucket (combiner) → driver
            exclusive scan (O(#buckets) rows) → broadcast base offsets;
    pass 2: ``groupby(bucket).map_groups``: sort the bucket by doc_id,
            local exclusive cumsum + broadcast base = global offset.

    No stage materializes more than one bucket; the only shuffle is the
    bucket groupby."""
    ds = cm.read(sf_dir, "documents", columns=["doc_id", "text"])

    def with_ntok(t: pa.Table) -> pa.Table:
        n_tok = pc.list_value_length(pc.split_pattern(t["text"], " "))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tok": pc.cast(n_tok, pa.int64()),
                "bucket": pa.array(_range_bucket(t["doc_id"]), pa.int64()),
            }
        )

    # two-pass prefix-sum: persist the sized rows so the totals pass and
    # the assignment pass don't both re-run the read+count transform
    sized = ds.map_batches(with_ntok, batch_format="pyarrow").materialize()

    def bucket_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("bucket", as_index=False).agg(total=("n_tok", "sum"))

    per_bucket = (
        sized.map_batches(bucket_partial, batch_format="pandas")
        .to_pandas()
        .groupby("bucket", as_index=False)["total"]
        .sum()
    )
    base_ref = cm.broadcast(_bucket_base_offsets(per_bucket))

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        base = ray.get(base_ref)[int(g["bucket"].iloc[0])]
        g = g.sort_values("doc_id")
        before = base + g["n_tok"].cumsum().shift(fill_value=0)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"],
                "n_tok": g["n_tok"],
                "pack_id": (before // cap).astype("int64"),
            }
        )

    return sized.groupby("bucket").map_groups(assign, batch_format="pandas")


ORACLES["docs_pack_assignment"] = f"""
SELECT doc_id, n_tok,
       CAST(FLOOR(COALESCE(SUM(n_tok) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
            / {PACK_CAP}.0) AS BIGINT) AS pack_id
FROM (SELECT doc_id, len(string_split(text, ' ')) AS n_tok FROM documents)
"""


# ---------------------------------------------------------------------------
# Sequence packing — concat-and-chunk over the tokens payload table
# ---------------------------------------------------------------------------

def token_table(sf_dir: str) -> pa.Table:
    """Deterministic tokens payload table (doc_id, tokens) sized to the sf
    dir — the BASELINE.json training-sequence shape, generated by the same
    seeded generator the engine tests use (testdata carries no token
    arrays)."""
    from ..core.changelog import generate_epoch_table

    n = {"sf0.001": 400, "sf0.01": 1000, "sf0.1": 4000}.get(
        sf_dir.rstrip("/").rsplit("/", 1)[-1], 400
    )
    t = generate_epoch_table(1, n, n, seed=99, dup_frac=0.0, mean_tokens=64)
    t = t.filter(pc.not_equal(t["op"], "D")).select(["doc_id", "tokens"])
    df = t.to_pandas().drop_duplicates("doc_id").sort_values("doc_id")
    return pa.table(
        {
            "doc_id": pa.array(df["doc_id"]),
            "tokens": pa.array([list(v) for v in df["tokens"]], pa.list_(pa.int32())),
        }
    )


def arith_tokens(base: np.ndarray, m: np.ndarray) -> pa.ListArray:
    """Vectorized arithmetic token payload: token j of base doc d =
    (d·31 + j·7) % 50257, m tokens per row — the SQL-constructible
    pre-tokenized corpus (DuckDB rebuilds it with range()+unnest, see
    ORACLES["pack_token_chunks"]), shaped per BASELINE.json's input_hint
    (tokens:list<int32>). One numpy pass, no per-row python."""
    offs = np.zeros(len(base) + 1, dtype=np.int64)
    np.cumsum(m, out=offs[1:])
    total = int(offs[-1])
    j = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], m)
    flat = (np.repeat(base * 31, m) + j * 7) % 50257
    return pa.ListArray.from_arrays(
        pa.array(offs, pa.int32()), pa.array(flat.astype(np.int32), pa.int32())
    )


def synth_token_stream(sf_dir: str) -> ray.data.Dataset:
    """Sized tokens Dataset (doc_id, tokens, n_tok, bucket) derived
    arithmetically from ``documents.doc_id`` (n_tok = 1 + (d·13) % 97) —
    the generator-free corpus the driver's DuckDB oracle can rebuild,
    unlike :func:`token_table`'s numpy-RNG payload."""
    ds = cm.read(sf_dir, "documents", columns=["doc_id"])

    def gen(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = 1 + (did * 13) % 97
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "tokens": arith_tokens(did, m),
            "n_tok": pa.array(m, pa.int64()),
            "bucket": pa.array(did // _RANGE_WIDTH, pa.int64()),
        })

    return ds.map_batches(gen, batch_format="pyarrow")


def pack_token_chunks_q(sf_dir: str, cap: int = PACK_CAP):
    """Driver-checkable face of :func:`pack_token_chunks`: the SAME
    distributed concat-and-chunk plan (:func:`chunk_sized_tokens` —
    prefix-sum offsets, self-slicing docs, range-grouped zero-copy
    assembly) over the arithmetic corpus, projected to
    (chunk_id, n_tok, checksum) with the positional checksum. Byte-level
    chunk equality vs a serial numpy oracle stays in
    tests/test_tokens_pipelines.py."""
    chunks = chunk_sized_tokens(synth_token_stream(sf_dir), cap)

    def project(df: pd.DataFrame) -> pd.DataFrame:
        out = _checksum_frame(df["chunk_id"], "chunk_id", df["tokens"])
        out.insert(1, "n_tok", df["n_tok"].astype("int64").to_numpy())
        return out

    return chunks.map_batches(project, batch_format="pandas")


ORACLES["pack_token_chunks"] = f"""
WITH docs AS (SELECT doc_id, 1 + (doc_id * 13) % 97 AS m FROM documents),
toks AS (SELECT doc_id, unnest(range(m)) AS j FROM docs),
stream AS (
  SELECT (doc_id * 31 + j * 7) % 50257 AS token_id,
         ROW_NUMBER() OVER (ORDER BY doc_id, j) - 1 AS gpos
  FROM toks
)
SELECT CAST(gpos // {PACK_CAP} AS BIGINT) AS chunk_id,
       CAST(COUNT(*) AS BIGINT) AS n_tok,
       CAST(SUM(token_id * ((gpos % {PACK_CAP}) + 1)) AS BIGINT) AS checksum
FROM stream GROUP BY 1
"""


def pack_token_chunks(sf_dir: str, cap: int = PACK_CAP):
    """Concat-and-chunk packing: the token streams of all docs (in doc_id
    order) concatenated and cut into fixed ``cap``-length training
    sequences — documents SPLIT across chunk boundaries, nothing padded,
    nothing dropped. See :func:`chunk_sized_tokens` for the distributed
    plan. Verified in tests against the serial numpy concat+split oracle
    (byte-identical chunk contents)."""
    corpus = token_table(sf_dir)
    ds = ray.data.from_arrow(corpus)

    def keyed(t: pa.Table) -> pa.Table:
        # doc-00000042 → 42; zero-padded so string order == numeric order
        nums = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 4, 99), pa.int64())
        bucket = pc.cast(pc.divide(nums, pa.scalar(_RANGE_WIDTH, pa.int64())), pa.int64())
        n_tok = pc.cast(pc.list_value_length(t["tokens"]), pa.int64())
        return pa.table(
            {"doc_id": t["doc_id"], "tokens": t["tokens"], "n_tok": n_tok, "bucket": bucket}
        )

    return chunk_sized_tokens(ds.map_batches(keyed, batch_format="pyarrow"), cap)


def chunk_sized_tokens(
    sized: ray.data.Dataset, cap: int, per_bucket: pd.DataFrame | None = None,
    order_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """The distributed concat-and-chunk plan over a sized tokens Dataset
    ``(doc_id, tokens, n_tok:int64, bucket)`` where bucket order follows
    ``order_cols`` order (default ``["doc_id"]``; a seeded training
    shuffle passes a hash column — see ``engine/training_export.py``):

    pass 1: per-range-bucket token totals → driver exclusive scan →
            broadcast base offsets (the same prefix-sum as
            :func:`docs_pack_assignment`);
    pass 2: ``groupby(bucket)``: the bucket's docs (sorted to order)
            occupy ONE contiguous global token range [base, base+total),
            so the whole group cuts its FLATTENED token stream at chunk
            boundaries in one offsets-arithmetic ``ListArray.from_arrays``
            — ~total/cap piece rows per group, zero Python loops, no
            per-doc boxing (the pieces stay an Arrow list column through
            the shuffle);
    pass 3: ``groupby(chunk_id // 64)``: assemble a RANGE of 64 chunks
            per group — sort the group's pieces by (chunk_id, pos), take
            the flattened values once, then cut at per-chunk piece-length
            sums via a zero-copy ``pa.ListArray.from_arrays``. Grouping
            by chunk RANGE instead of chunk keeps the shuffle keyspace
            64× smaller and amortizes the per-group call overhead (one
            vectorized call per 64 chunks, not one frame per chunk).

    Both passes are pure Arrow (``batch_format="pyarrow"``) end-to-end —
    no pandas object-dtype Series of numpy arrays ever forms (the round-4
    verdict's flagship perf finding)."""

    if per_bucket is None:
        # a prefix-sum is inherently two-pass: persist the sized stream so
        # the totals pass and the split pass don't re-run the upstream
        # transform (Ray spills blocks to disk). At lake scale pass
        # ``per_bucket`` computed from the stored table instead — a skinny
        # projected read — and this stays a single streaming pass (see
        # engine/training_export.py).
        sized = sized.materialize()

        def bucket_partial(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby("bucket", as_index=False).agg(total=("n_tok", "sum"))

        per_bucket = (
            sized.map_batches(bucket_partial, batch_format="pandas")
            .to_pandas()
            .groupby("bucket", as_index=False)["total"]
            .sum()
        )
    base_ref = cm.broadcast(_bucket_base_offsets(per_bucket))

    order = list(order_cols) if order_cols else ["doc_id"]

    _PIECE_SCHEMA = pa.schema([
        ("chunk_id", pa.int64()), ("pos", pa.int64()),
        ("piece", pa.list_(pa.int32())), ("cbucket", pa.int64()),
    ])

    def split_pieces(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PIECE_SCHEMA.empty_table()
        base = int(ray.get(base_ref)[int(t["bucket"][0].as_py())])
        t = t.sort_by([(c, "ascending") for c in order])
        toks = t["tokens"].combine_chunks()
        flat = pc.cast(toks.flatten(), pa.int32())
        total = len(flat)
        if total == 0:
            return _PIECE_SCHEMA.empty_table()
        # the sorted group is ONE contiguous global range [base, base+total):
        # every interior chunk boundary (multiple of cap) is a cut point
        cuts = np.arange((base // cap + 1) * cap, base + total, cap, dtype=np.int64)
        bounds = np.concatenate([[base], cuts, [base + total]])
        starts = bounds[:-1]
        return pa.table({
            "chunk_id": pa.array(starts // cap, pa.int64()),
            "pos": pa.array(starts % cap, pa.int64()),
            "piece": pa.ListArray.from_arrays(
                pa.array(bounds - base, pa.int64()).cast(pa.int32()), flat
            ),
            "cbucket": pa.array(starts // cap // _CHUNKS_PER_GROUP, pa.int64()),
        })

    pieces = sized.groupby("bucket").map_groups(split_pieces, batch_format="pyarrow")

    def assemble_range(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return CHUNK_SCHEMA.empty_table()
        t = t.sort_by([("chunk_id", "ascending"), ("pos", "ascending")])
        piece = t["piece"].combine_chunks()
        flat = pc.cast(piece.flatten(), pa.int32())
        piece_len = pc.list_value_length(piece).to_numpy(zero_copy_only=False).astype(np.int64)
        cids = t["chunk_id"].to_numpy(zero_copy_only=False)
        uniq, first = np.unique(cids, return_index=True)  # cids sorted
        per_chunk = np.add.reduceat(piece_len, first)
        offsets = np.concatenate([[0], per_chunk.cumsum()])
        return pa.table({
            "chunk_id": pa.array(uniq, pa.int64()),
            "tokens": pa.ListArray.from_arrays(
                pa.array(offsets, pa.int64()).cast(pa.int32()), flat
            ),
            "n_tok": pa.array(per_chunk, pa.int64()),
        })

    return pieces.groupby("cbucket").map_groups(assemble_range, batch_format="pyarrow")


def training_data_pipeline(sf_dir: str, cap: int = PACK_CAP):
    """The composed flagship for a training-data lake: raw documents →
    tokenize (vocab pass + actor-pool encode) → concat-and-chunk into
    fixed ``cap``-length training sequences → per-chunk rows. One
    pipeline, three distributed passes, no driver-side payload. Verified
    in tests against the serial tokenize+concat+split oracle."""
    tokenized = tokenize_documents(sf_dir)

    def keyed(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "tokens": t["tokens"],
                "n_tok": pc.cast(t["n_tok"], pa.int64()),
                "bucket": pa.array(_range_bucket(t["doc_id"]), pa.int64()),
            }
        )

    return chunk_sized_tokens(tokenized.map_batches(keyed, batch_format="pyarrow"), cap)


# ---------------------------------------------------------------------------
# Gazetteer mention edges — the graph-writer analog (K11)
# ---------------------------------------------------------------------------

GAZETTEER = ("hash", "table", "scan", "merge", "row", "shuffle")


class MentionExtractor:
    """Actor-pool stage (ST1 pattern: lookup structure built once per
    actor, ``common/document_parser/lib/entities.py:18-25``): per-doc
    gazetteer mention counts → (doc_id, entity, n_mentions) edge rows.
    Mentions never cross docs, so the whole extraction is within-batch —
    no shuffle; the edge table is the columnar form of the reference's
    Document-MENTIONS-Entity graph rows."""

    def __init__(self, gazetteer_ref):
        self.gazetteer = frozenset(ray.get(gazetteer_ref))

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        exploded = df.assign(word=df["text"].str.split(" ")).explode("word")
        hits = exploded[exploded["word"].isin(self.gazetteer)]
        out = (
            hits.groupby(["doc_id", "word"], as_index=False, sort=False)
            .size()
            .rename(columns={"word": "entity", "size": "n_mentions"})
        )
        return out


def docs_entity_edges(sf_dir: str):
    """Document→entity mention edges from a broadcast gazetteer."""
    gaz_ref = cm.broadcast(list(GAZETTEER))
    ds = cm.read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        MentionExtractor,
        fn_constructor_args=(gaz_ref,),
        batch_format="pandas",
        concurrency=(1, cm.pool_size()),
    )


_GAZ_SQL = ", ".join(f"'{w}'" for w in GAZETTEER)
ORACLES["docs_entity_edges"] = f"""
SELECT doc_id, word AS entity, COUNT(*) AS n_mentions
FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents)
WHERE word IN ({_GAZ_SQL})
GROUP BY doc_id, word
"""


def ntok_quantiles(sf_dir: str):
    """EXACT distributed quantiles of the per-doc token count (p50/p90/p99
    — what sizes the packing cap): per-batch integer histograms (bincount
    combiner, one array per batch regardless of row count) summed on the
    driver, quantiles read off the cumulative histogram. Exact because
    the domain is bounded integers — no sketch needed, no sort, no
    shuffle; the driver sees O(max_n_tok) counts total."""
    ds = cm.read(sf_dir, "documents", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        n_tok = pc.list_value_length(pc.split_pattern(t["text"], " ")).to_numpy(
            zero_copy_only=False
        )
        counts = np.bincount(n_tok)
        return pa.table({"hist": pa.array([counts.tolist()], pa.list_(pa.int64()))})

    hist = np.zeros(1, dtype=np.int64)
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for h in b["hist"].to_pylist():
            h = np.asarray(h, dtype=np.int64)
            if len(h) > len(hist):
                hist = np.pad(hist, (0, len(h) - len(hist)))
            hist[: len(h)] += h
    cum = hist.cumsum()
    total = int(cum[-1])
    qs = {}
    for q in (0.5, 0.9, 0.99):
        rank = int(np.ceil(q * total))  # quantile_disc semantics
        qs[q] = int(np.searchsorted(cum, rank))
    return pd.DataFrame(
        {"p50": [qs[0.5]], "p90": [qs[0.9]], "p99": [qs[0.99]]}
    )


ORACLES["ntok_quantiles"] = """
SELECT quantile_disc(n, 0.5) AS p50, quantile_disc(n, 0.9) AS p90,
       quantile_disc(n, 0.99) AS p99
FROM (SELECT len(string_split(text, ' ')) AS n FROM documents)
"""


# ---------------------------------------------------------------------------
# Deterministic sampling / split assignment
# ---------------------------------------------------------------------------

_SAMPLE_HEX_LT = "20"  # top byte < 0x20 → 32/256 = 12.5% sample


def docs_hash_sample(sf_dir: str):
    """Deterministic content-hash Bernoulli sample (~12.5%): keep docs
    whose sha256(doc_id) leads below a fixed hex threshold — the
    reproducible train/eval-split primitive of a training-data pipeline
    (same doc always lands on the same side, on any cluster, at any
    scale; no RNG state to coordinate). Pure map-side filter: no shuffle,
    no driver data."""
    from ..core.hashing import sha256_hex

    ds = cm.read(sf_dir, "documents", columns=["doc_id", "source"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.Series(sha256_hex(df["doc_id"].astype(str).tolist()), index=df.index)
        keep = h.str[:2] < _SAMPLE_HEX_LT
        out = df[keep].copy()
        out["bucket_hex"] = h[keep].str[:2]
        return out

    return ds.map_batches(fn, batch_format="pandas")


ORACLES["docs_hash_sample"] = f"""
SELECT doc_id, source, substr(sha256(CAST(doc_id AS VARCHAR)), 1, 2) AS bucket_hex
FROM documents
WHERE substr(sha256(CAST(doc_id AS VARCHAR)), 1, 2) < '{_SAMPLE_HEX_LT}'
"""


# ---------------------------------------------------------------------------
# Scalar normalization chain + schema-on-read JSON repair
# ---------------------------------------------------------------------------

def text_normalize(sf_dir: str):
    """The reference's string-normalization chain
    (``common/utils/text_utils.py``: squash whitespace → quotes → bad
    chars → squash underscores) as chained pyarrow.compute kernels —
    vectorized, zero python-per-row."""
    ds = cm.read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        norm = tx.chain_apply(
            t["text"],
            tx.squash_whitespace,
            tx.double_to_single_quotes,
            tx.bad_chars_to_underscores,
            tx.squash_underscores,
        )
        return pa.table({"doc_id": t["doc_id"], "text_norm": norm})

    return ds.map_batches(fn, batch_format="pyarrow")


ORACLES["text_normalize"] = r"""
SELECT doc_id,
       regexp_replace(
         regexp_replace(
           replace(trim(regexp_replace(text, '\s+', ' ', 'g')), '"', ''''),
           '[^\w\- .()]', '_', 'g'),
         '_+', '_', 'g') AS text_norm
FROM documents
"""


def events_parse_props(sf_dir: str):
    """Schema-on-read JSON extraction with repair semantics (the
    json_metadata string-vs-object wart,
    ``gc_ingest/tools/load/utils.py:112-130``): pull ``k`` out of the
    ``props`` JSON-string column via a vectorized RE2 extract; rows whose
    props don't carry ``k`` yield null instead of failing."""
    ds = cm.read(sf_dir, "events", columns=["event_id", "props"])

    def fn(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"], pattern=r'"k":\s*(?P<k>\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({"event_id": t["event_id"], "k": k})

    return ds.map_batches(fn, batch_format="pyarrow")


ORACLES["events_parse_props"] = r"""
SELECT event_id, CAST(regexp_extract(props, '"k":\s*(\d+)', 1) AS BIGINT) AS k
FROM events
"""


# ---------------------------------------------------------------------------
# Corpus curation: stratified sampling, n-gram statistics, decontamination
# ---------------------------------------------------------------------------

_KNUTH = 2654435761  # Knuth multiplicative hash, exact in int64 and SQL


def docs_stratified_sample(sf_dir: str, n_per_source: int = 20):
    """Deterministic stratified sample: the ``n_per_source`` docs per
    source with the smallest multiplicative hash — the balanced-mixture
    sampling step of a training-data pipeline (equal quota per domain
    regardless of domain skew). Two-level top-k: per-batch top-n per
    source (combiner) → per-source final top-n, so the shuffle moves at
    most n rows per (batch, source), never the corpus."""
    ds = cm.read(sf_dir, "documents", columns=["doc_id", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(h=(df["doc_id"].astype("int64") * _KNUTH) % (1 << 32))
        df = df.sort_values(["h", "doc_id"])
        return df.groupby("source", sort=False).head(n_per_source)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"]).head(n_per_source)
        return g[["source", "doc_id"]]

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("source")
        .map_groups(final, batch_format="pandas")
    )


ORACLES["docs_stratified_sample"] = f"""
SELECT source, doc_id FROM (
  SELECT source, doc_id,
         ROW_NUMBER() OVER (
           PARTITION BY source
           ORDER BY (doc_id * {_KNUTH}) % 4294967296, doc_id
         ) AS rn
  FROM documents
) WHERE rn <= 20
"""


def docs_bigrams(sf_dir: str, k: int = 50):
    """Global top-k word bigrams — the n-gram language-model statistics
    pass. Per-batch: flatten all docs' words into one array, form
    adjacent pairs with a numpy shift, drop pairs that straddle a doc
    boundary, value_counts (combiner). Finish: routed distributed sum
    → per-block local top-k → tiny global top-k (same mergeable-top-k
    shape as :func:`vocab_topk`)."""
    ds = cm.read(sf_dir, "documents", columns=["text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        toks = pc.split_pattern(t["text"], " ")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = np.asarray(toks.flatten(), dtype=object)
        if len(flat) < 2:
            return pd.DataFrame({"bigram": pd.Series(dtype="object"),
                                 "n": pd.Series(dtype="int64")})
        offsets = np.asarray(toks.offsets, dtype=np.int64)
        offsets = offsets - offsets[0]  # sliced ListArray offsets need rebasing
        # positions whose successor starts a new doc are not bigram starts
        starts = np.ones(len(flat) - 1, dtype=bool)
        starts[offsets[1:-1] - 1] = False
        lhs, rhs = flat[:-1][starts], flat[1:][starts]
        # count on the word PAIR (one C-level hash groupby), then build the
        # bigram string only for the few surviving uniques — elementwise
        # string concat over every token is the slow path
        cnt = (
            pd.DataFrame({"w1": lhs, "w2": rhs})
            .groupby(["w1", "w2"], sort=False)
            .size()
            .reset_index(name="n")
        )
        cnt["bigram"] = cnt["w1"] + " " + cnt["w2"]
        return cnt[["bigram", "n"]]

    counts = cm.routed_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"), ["bigram"], {"n": "sum"}
    )
    local = counts.map_batches(
        lambda df: df.sort_values(["n", "bigram"], ascending=[False, True]).head(k),
        batch_format="pandas",
    ).to_pandas()
    return (
        local.sort_values(["n", "bigram"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


ORACLES["docs_bigrams"] = """
WITH words AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
)
SELECT a.w || ' ' || b.w AS bigram, COUNT(*) AS n
FROM words a JOIN words b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
GROUP BY a.w || ' ' || b.w
ORDER BY n DESC, bigram LIMIT 50
"""


def docs_decontaminate(sf_dir: str, probe_words: int = 8):
    """Benchmark decontamination: the eval set is every doc_id % 97 == 0
    document's first-``probe_words`` whole-word prefix; any corpus doc
    containing a probe as a word-boundary substring is contaminated.
    Probes are a SMALL set (the eval benchmark) → driver-collected once,
    broadcast via ``ray.put``; each batch then matches by hashed shingle
    membership — per doc, every ``L``-word window (for each distinct
    probe length L) is formed vectorized from the flat word array and
    checked against the probe set; no text ever leaves the workers.
    Returns (doc_id, n_hits) for contaminated docs (eval docs hit their
    own probe). The decontamination step every training-data pipeline
    runs before packing."""
    docs = cm.read(sf_dir, "documents", columns=["doc_id", "text"])

    def to_probes(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        sub = t.filter(pa.array(did % 97 == 0))
        words = pc.split_pattern(sub["text"], " ")
        probe = pc.binary_join(pc.list_slice(words, 0, probe_words), " ")
        return pa.table({"probe": probe})

    probe_list = sorted(
        set(
            docs.map_batches(to_probes, batch_format="pyarrow")
            .to_pandas()["probe"]
            .tolist()
        )
    )
    probes_ref = cm.broadcast(probe_list)

    class Matcher:
        """Probe set grouped by word-length, hashed once per actor."""

        def __init__(self):
            probes = ray.get(probes_ref)
            self.by_len: dict[int, set[str]] = {}
            for p in probes:
                self.by_len.setdefault(len(p.split(" ")), set()).add(p)

        def __call__(self, t: pa.Table) -> pd.DataFrame:
            toks = pc.split_pattern(t["text"], " ")
            toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
            flat = np.asarray(toks.flatten(), dtype=object)
            offsets = np.asarray(toks.offsets, dtype=np.int64)
            offsets = offsets - offsets[0]  # sliced ListArray offsets need rebasing
            doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
            n_docs = len(doc_ids)
            hits: dict[int, set[str]] = {}
            doc_of = np.repeat(np.arange(n_docs), np.diff(offsets))
            for L, pset in self.by_len.items():
                if len(flat) < L:
                    continue
                # window starts whose L words all belong to one doc
                win_doc = doc_of[: len(flat) - L + 1]
                ok = doc_of[L - 1 :] == win_doc
                grams = pd.Series(flat[: len(flat) - L + 1])
                for j in range(1, L):
                    grams = grams + " " + pd.Series(flat[j : len(flat) - L + 1 + j])
                m = ok & grams.isin(pset).to_numpy()
                for d, g in zip(win_doc[m], grams.to_numpy()[m]):
                    hits.setdefault(int(d), set()).add(g)
            if not hits:
                return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                     "n_hits": pd.Series(dtype="int64")})
            idx = sorted(hits)
            return pd.DataFrame(
                {"doc_id": doc_ids[idx].astype("int64"),
                 "n_hits": [len(hits[i]) for i in idx]}
            )

    return docs.map_batches(
        Matcher, batch_format="pyarrow", concurrency=(1, cm.pool_size())
    )


ORACLES["docs_decontaminate"] = """
WITH bench AS (
  SELECT DISTINCT array_to_string((string_split(text, ' '))[1:8], ' ') AS probe
  FROM documents WHERE doc_id % 97 = 0
)
SELECT d.doc_id, CAST(COUNT(DISTINCT b.probe) AS BIGINT) AS n_hits
FROM documents d JOIN bench b
  ON contains(' ' || d.text || ' ', ' ' || b.probe || ' ')
GROUP BY d.doc_id
"""


# ---------------------------------------------------------------------------
# BPE tokenizer training (the train-the-tokenizer step; stages/bpe.py)
# ---------------------------------------------------------------------------

def bpe_word_frequencies(
    sf_dir: str, min_freq: int = 1, max_words: int | None = None
) -> pd.DataFrame:
    """Distributed corpus pass of BPE training: pre-tokenize + word
    frequency. Per-batch regex findall → value_counts (combiner), routed
    distributed sum finish, min_freq filter applied DISTRIBUTED before
    the driver collect. The returned word table is the trainer's bounded
    working set (see stages/bpe.py module docstring for the 100 TB
    split-of-labor argument); ``max_words`` caps it explicitly (top by
    (freq desc, word asc) — the standard trainer cap, documented as an
    approximation of whole-corpus BPE when it bites)."""
    from ..stages import bpe

    ds = cm.read(sf_dir, "documents", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.findall(bpe.PRETOKEN_RE).explode().dropna()
        return words.value_counts().rename_axis("word").reset_index(name="n")

    counts = cm.routed_grouped_agg(
        ds.map_batches(partial, batch_format="pandas"), ["word"], {"n": "sum"}
    )
    if min_freq > 1:
        counts = counts.filter(expr=f"n >= {min_freq}")
    df = counts.to_pandas()
    df["n"] = df["n"].astype("int64")
    df = df.sort_values(["n", "word"], ascending=[False, True],
                        kind="mergesort").reset_index(drop=True)
    if max_words is not None:
        df = df.head(max_words).reset_index(drop=True)
    return df


def bpe_train_documents(
    sf_dir: str, num_merges: int = 128, min_freq: int = 1,
    max_words: int | None = None,
) -> pd.DataFrame:
    """Train a BPE tokenizer over the documents table: distributed word
    frequencies, then the deterministic merge loop over the bounded word
    table. Returns (rank, left, right, token) — the ordered merge list.
    Not SQL-expressible (an iterative algorithm); equality with a
    from-scratch serial recount oracle + encode/decode properties are
    pytest-verified (tests/test_bpe.py)."""
    from ..stages import bpe

    wf = bpe_word_frequencies(sf_dir, min_freq=min_freq, max_words=max_words)
    merges = bpe.learn_merges(dict(zip(wf["word"], wf["n"])), num_merges)
    return pd.DataFrame({
        "rank": pd.Series(range(len(merges)), dtype="int64"),
        "left": [a for a, _ in merges],
        "right": [b for _, b in merges],
        "token": [a + b for a, b in merges],
    })


def docs_bpe_tokens(sf_dir: str, num_merges: int = 128) -> ray.data.Dataset:
    """End-to-end BPE pipeline face: train on the corpus (one distributed
    word-frequency pass + bounded merge loop), broadcast the model ONCE,
    encode every document in an actor-pool stage (per-word memo makes the
    heavy head of the word distribution a dict lookup). Output
    (doc_id, n_bpe, checksum) where checksum is the positional id sum —
    the same order-sensitive int64 projection as ``tokenize_documents_q``.
    Verified against a serial naive BPE in tests/test_bpe.py."""
    from ..stages import bpe

    wf = bpe_word_frequencies(sf_dir)
    merges = bpe.learn_merges(dict(zip(wf["word"], wf["n"])), num_merges)
    model_ref = cm.broadcast({
        "merges": merges,
        "vocab": bpe.vocab_from_merges(wf["word"], merges),
    })
    ds = cm.read(sf_dir, "documents", columns=["doc_id", "text"])
    encoded = ds.map_batches(
        bpe.BpeEncoder,
        fn_constructor_args=(model_ref,),
        batch_format="pandas",
        concurrency=(1, cm.pool_size()),
    )

    def project(df: pd.DataFrame) -> pd.DataFrame:
        out = _checksum_frame(df["doc_id"], "doc_id", df["bpe_ids"])
        out.insert(1, "n_bpe", df["n_bpe"].astype("int64").to_numpy())
        return out

    return encoded.map_batches(project, batch_format="pandas")


# ---------------------------------------------------------------------------
# LM-based quality filtering (CCNet shape) and importance resampling (DSIR)
# ---------------------------------------------------------------------------

def _surprisal_bits(den: np.ndarray, num: np.ndarray) -> np.ndarray:
    """``floor(log2(den / num))`` for integer arrays with ``1 <= num <=
    den``, in EXACT integer arithmetic — no float log anywhere (numpy's
    SIMD ``log`` and DuckDB's libm ``ln`` disagree in the last ulp on
    ~20% of inputs, measured, so a float mirror can never be
    hash-exact). ``frexp`` exponent == bit_length for ints < 2^53; one
    shift-compare fixes the off-by-one. The SQL mirror is the
    ``length(bin(x))`` CASE built by :func:`_bits_sql` — bit-for-bit
    identical by construction."""
    den = den.astype(np.int64)
    num = num.astype(np.int64)
    k0 = (np.frexp(den.astype(np.float64))[1]
          - np.frexp(num.astype(np.float64))[1]).astype(np.int64)
    return k0 - ((num << k0) > den)


def _bits_sql(den: str, num: str) -> str:
    """The SQL mirror of :func:`_surprisal_bits` over BIGINT expressions."""
    k0 = f"(length(bin({den})) - length(bin({num})))"
    return (f"(CASE WHEN ({num} << {k0}) <= {den} "
            f"THEN {k0} ELSE {k0} - 1 END)")


def _word_count_partial(t: pa.Table, extra_filter=None) -> pa.Table:
    """Per-batch global word-frequency combiner: (w, n) partial rows.
    Emits ARROW (typed even when empty — a 0-row object-dtype pandas
    block trips Ray's block-size estimator into log spam)."""
    if extra_filter is not None:
        t = extra_filter(t)
    toks = pc.split_pattern(t["text"], " ")
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    flat = np.asarray(toks.flatten(), dtype=object)
    if len(flat) == 0:
        return pa.table({"w": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    vc = pd.Series(flat).value_counts()
    return pa.table({"w": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
                     "n": pa.array(vc.to_numpy(np.int64))})


# keep docs with mean transition surprisal <= 87/20 = 4.35 bits
# (perplexity <= 2^4.35 ~= 20.4) — a RATIONAL threshold keeps the compare
# exact-integer (total*den <= num*trans) while splitting the corpus's
# tight surprisal distribution (driver testdata: 4.07..4.73 bits/trans)
_PPL_TAU_NUM, _PPL_TAU_DEN = 87, 20


def docs_lm_perplexity(sf_dir: str, tau=(_PPL_TAU_NUM, _PPL_TAU_DEN)):
    """Bigram-LM perplexity filter — the CCNet quality gate (Wenzek et
    al. 2019: score every document under a language model trained on the
    corpus, drop the high-perplexity tail) with the surprisal quantized
    to WHOLE BITS so the whole pipeline stays in exact integer
    arithmetic and the DuckDB oracle hash-matches.

    Model: add-one-smoothed word-bigram LM fitted on the corpus itself.
    Per transition (w1, w2): ``bits = floor(log2((c(w1) + V) /
    (c(w1,w2) + 1)))`` — the integer part of the surprisal
    ``-log2 p(w2 | w1)``. Per doc: ``total_bits`` over its ``n_trans =
    n_words - 1`` transitions; keep iff ``total_bits / n_trans <=
    tau[0] / tau[1]`` compared cross-multiplied in integers (mean
    surprisal ≤ 4.35 bits = perplexity ≤ ~20).

    Distributed plan (three corpus passes + counts-sized joins, no
    driver state beyond the scalar V):
    pass A: unigram counts — per-batch value_counts combiner → routed
            sum (vocab-sized, materialized once);
    pass B: bigram counts — same shape keyed by the bigram string;
    weight table: bigram rows pick up c(w1) via ONE counts-to-counts
            hash join, then the integer surprisal per distinct bigram —
            LM fitting touches count rows only, never the corpus;
    pass C: per-doc transition multiplicities (doc_id, bigram, m) join
            the weight table (corpus-to-counts hash join), then one
            routed per-doc sum merged with map-side (doc_id, n_trans)
            rows through the SAME routed groupby (union of two partial
            streams — no doc-to-doc join).
    """
    ds = cm.read(sf_dir, "documents", columns=["doc_id", "text"])
    from .joins import hash_join

    ug = cm.routed_grouped_agg(
        ds.map_batches(_word_count_partial, batch_format="pyarrow"),
        ["w"], {"n": "sum"},
    ).materialize()
    vocab_size = ug.count()

    def bg_partial(t: pa.Table) -> pd.DataFrame:
        toks = pc.split_pattern(t["text"], " ")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = np.asarray(toks.flatten(), dtype=object)
        if len(flat) < 2:
            return pd.DataFrame({"bigram": pd.Series(dtype="object"),
                                 "w1": pd.Series(dtype="object"),
                                 "n_bg": pd.Series(dtype="int64")})
        offsets = np.asarray(toks.offsets, dtype=np.int64)
        offsets = offsets - offsets[0]
        starts = np.ones(len(flat) - 1, dtype=bool)
        starts[offsets[1:-1] - 1] = False
        cnt = (
            pd.DataFrame({"w1": flat[:-1][starts], "w2": flat[1:][starts]})
            .groupby(["w1", "w2"], sort=False).size().reset_index(name="n_bg")
        )
        cnt["bigram"] = cnt["w1"] + " " + cnt["w2"]
        return cnt[["bigram", "w1", "n_bg"]]

    bg = cm.routed_grouped_agg(
        ds.map_batches(bg_partial, batch_format="pyarrow"),
        ["bigram", "w1"], {"n_bg": "sum"},
    )

    ug1 = ug.map_batches(
        lambda df: df.rename(columns={"w": "w1", "n": "n_ug"}),
        batch_format="pandas",
    )
    joined = hash_join(bg, ug1, on="w1")

    def weigh(df: pd.DataFrame) -> pd.DataFrame:
        b = _surprisal_bits(df["n_ug"].to_numpy(np.int64) + vocab_size,
                            df["n_bg"].to_numpy(np.int64) + 1)
        return pd.DataFrame({"bigram": df["bigram"], "b": b})

    weights = joined.map_batches(weigh, batch_format="pandas")

    def doc_bg_partial(t: pa.Table) -> pd.DataFrame:
        toks = pc.split_pattern(t["text"], " ")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = np.asarray(toks.flatten(), dtype=object)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        if len(flat) < 2:
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                 "bigram": pd.Series(dtype="object"),
                                 "m": pd.Series(dtype="int64")})
        offsets = np.asarray(toks.offsets, dtype=np.int64)
        offsets = offsets - offsets[0]
        starts = np.ones(len(flat) - 1, dtype=bool)
        starts[offsets[1:-1] - 1] = False
        doc_of = np.repeat(did, np.diff(offsets))[:-1][starts]
        cnt = (
            pd.DataFrame({"doc_id": doc_of,
                          "w1": flat[:-1][starts], "w2": flat[1:][starts]})
            .groupby(["doc_id", "w1", "w2"], sort=False).size().reset_index(name="m")
        )
        cnt["bigram"] = cnt["w1"] + " " + cnt["w2"]
        return cnt[["doc_id", "bigram", "m"]].astype({"doc_id": "int64", "m": "int64"})

    scored = hash_join(
        ds.map_batches(doc_bg_partial, batch_format="pyarrow"), weights, on="bigram"
    ).map_batches(
        lambda df: pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "bits": (df["m"].to_numpy(np.int64) * df["b"].to_numpy(np.int64)),
            "trans": np.zeros(len(df), dtype=np.int64),
        }),
        batch_format="pandas",
    )

    def nw_partial(t: pa.Table) -> pd.DataFrame:
        n = pc.list_value_length(pc.split_pattern(t["text"], " "))
        return pd.DataFrame({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            "bits": np.zeros(t.num_rows, dtype=np.int64),
            "trans": n.to_numpy(zero_copy_only=False).astype(np.int64) - 1,
        })

    tot = cm.routed_grouped_agg(
        scored.union(ds.map_batches(nw_partial, batch_format="pyarrow")),
        ["doc_id"], {"bits": "sum", "trans": "sum"},
    )

    t_num, t_den = tau

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "total_bits": df["bits"].astype("int64"),
            "n_trans": df["trans"].astype("int64"),
            "keep": t_den * df["bits"].to_numpy(np.int64)
                    <= t_num * df["trans"].to_numpy(np.int64),
        })

    return tot.map_batches(finish, batch_format="pandas")


ORACLES["docs_lm_perplexity"] = f"""
WITH words AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
ug AS (SELECT w, COUNT(*) AS c FROM words GROUP BY w),
v AS (SELECT COUNT(*) AS v FROM ug),
bg AS (
  SELECT a.w AS w1, b.w AS w2, COUNT(*) AS c
  FROM words a JOIN words b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
  GROUP BY a.w, b.w
),
wt AS (
  SELECT bg.w1, bg.w2,
         {_bits_sql("(ug.c + v.v)", "(bg.c + 1)")} AS b
  FROM bg JOIN ug ON bg.w1 = ug.w CROSS JOIN v
),
doc_bg AS (
  SELECT a.doc_id, a.w AS w1, b.w AS w2, COUNT(*) AS m
  FROM words a JOIN words b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
  GROUP BY a.doc_id, a.w, b.w
),
scored AS (
  SELECT d.doc_id, SUM(d.m * wt.b) AS total_bits
  FROM doc_bg d JOIN wt ON d.w1 = wt.w1 AND d.w2 = wt.w2
  GROUP BY d.doc_id
),
nw AS (SELECT doc_id, len(string_split(text, ' ')) - 1 AS n_trans FROM documents)
SELECT nw.doc_id,
       CAST(COALESCE(scored.total_bits, 0) AS BIGINT) AS total_bits,
       CAST(nw.n_trans AS BIGINT) AS n_trans,
       {_PPL_TAU_DEN} * COALESCE(scored.total_bits, 0)
         <= {_PPL_TAU_NUM} * nw.n_trans AS keep
FROM nw LEFT JOIN scored USING (doc_id)
"""


_DSIR_K = 40  # resampled subset size


def docs_dsir_sample(sf_dir: str, k: int = _DSIR_K):
    """DSIR-shape importance resampling (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): score every corpus
    document by an importance weight under a TARGET unigram LM vs the RAW
    corpus LM, and keep the top-k most target-like documents. The target
    distribution is fitted on the eval-benchmark subset (``doc_id % 97 ==
    0`` — the same eval-set convention as :func:`docs_decontaminate`),
    the raw distribution on the whole corpus.

    Per word: ``s(w) = bits_raw(w) - bits_target(w)`` where ``bits_X(w) =
    floor(log2((N_X + V) / (c_X(w) + 1)))`` is the add-one-smoothed
    integer surprisal under distribution X (shared vocabulary V from the
    raw corpus). Per doc: ``score = Σ_positions s(w)`` — high score means
    the target model finds the doc's words much less surprising than the
    raw model does. Integer end-to-end (:func:`_surprisal_bits`), so the
    DuckDB mirror is hash-exact; top-k ties break on doc_id.

    Distributed plan: raw unigram counts (routed combiner, vocab-sized,
    materialized); target counts over the tiny eval subset (map-side
    filter → routed combiner → driver dict, broadcast — the target set is
    an eval benchmark, bounded by construction); weight table = one
    map over the raw counts with the broadcast target lookup; scoring =
    per-doc word multiplicities hash-join the weight table, one routed
    per-doc sum; top-k = per-block local top-k → tiny driver merge (the
    ``vocab_topk`` mergeable pattern)."""
    from .joins import hash_join

    ds = cm.read(sf_dir, "documents", columns=["doc_id", "text"])

    raw = cm.routed_grouped_agg(
        ds.map_batches(_word_count_partial, batch_format="pyarrow"),
        ["w"], {"n": "sum"},
    ).materialize()
    vocab_size = raw.count()
    n_raw = int(raw.sum("n"))

    def target_filter(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(did % 97 == 0))

    tgt_df = (
        ds.map_batches(
            lambda t: _word_count_partial(t, extra_filter=target_filter),
            batch_format="pyarrow",
        )
        .to_pandas()
        .groupby("w", as_index=False)["n"].sum()
    )
    n_tgt = int(tgt_df["n"].sum())
    tgt_ref = cm.broadcast(dict(zip(tgt_df["w"], tgt_df["n"].astype(int))))

    def weigh(df: pd.DataFrame) -> pd.DataFrame:
        tgt = ray.get(tgt_ref)
        c_raw = df["n"].to_numpy(np.int64)
        c_tgt = df["w"].map(tgt).fillna(0).to_numpy(np.int64)
        s = (_surprisal_bits(np.full_like(c_raw, n_raw + vocab_size), c_raw + 1)
             - _surprisal_bits(np.full_like(c_tgt, n_tgt + vocab_size), c_tgt + 1))
        return pd.DataFrame({"w": df["w"], "s": s})

    weights = raw.map_batches(weigh, batch_format="pandas")

    def doc_word_partial(t: pa.Table) -> pd.DataFrame:
        toks = pc.split_pattern(t["text"], " ")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = np.asarray(toks.flatten(), dtype=object)
        if len(flat) == 0:
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                 "w": pd.Series(dtype="object"),
                                 "m": pd.Series(dtype="int64")})
        offsets = np.asarray(toks.offsets, dtype=np.int64)
        offsets = offsets - offsets[0]
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        doc_of = np.repeat(did, np.diff(offsets))
        return (
            pd.DataFrame({"doc_id": doc_of, "w": flat})
            .groupby(["doc_id", "w"], sort=False).size().reset_index(name="m")
            .astype({"doc_id": "int64", "m": "int64"})
        )

    scores = cm.routed_grouped_agg(
        hash_join(
            ds.map_batches(doc_word_partial, batch_format="pyarrow"),
            weights, on="w",
        ).map_batches(
            lambda df: pd.DataFrame({
                "doc_id": df["doc_id"].astype("int64"),
                "score": df["m"].to_numpy(np.int64) * df["s"].to_numpy(np.int64),
            }),
            batch_format="pandas",
        ),
        ["doc_id"], {"score": "sum"},
    )

    local = scores.map_batches(
        lambda df: df.sort_values(["score", "doc_id"],
                                  ascending=[False, True]).head(k),
        batch_format="pandas",
    ).to_pandas()
    return (
        local.sort_values(["score", "doc_id"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "score": "int64"})
    )


_DSIR_BITS_RAW = _bits_sql("(nr.n + v.v)", "(ur.c + 1)")
_DSIR_BITS_TGT = _bits_sql("(nt.n + v.v)", "(COALESCE(ut.c, 0) + 1)")
ORACLES["docs_dsir_sample"] = f"""
WITH words AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w
  FROM documents
),
ur AS (SELECT w, COUNT(*) AS c FROM words GROUP BY w),
ut AS (SELECT w, COUNT(*) AS c FROM words WHERE doc_id % 97 = 0 GROUP BY w),
v AS (SELECT COUNT(*) AS v FROM ur),
nr AS (SELECT COUNT(*) AS n FROM words),
nt AS (SELECT COUNT(*) AS n FROM words WHERE doc_id % 97 = 0),
wt AS (
  SELECT ur.w, {_DSIR_BITS_RAW} - {_DSIR_BITS_TGT} AS s
  FROM ur LEFT JOIN ut USING (w) CROSS JOIN v CROSS JOIN nr CROSS JOIN nt
)
SELECT words.doc_id, CAST(SUM(wt.s) AS BIGINT) AS score
FROM words JOIN wt USING (w)
GROUP BY words.doc_id
ORDER BY score DESC, doc_id
LIMIT {_DSIR_K}
"""
