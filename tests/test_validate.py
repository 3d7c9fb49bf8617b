"""Declarative output-validation gate (VERDICT r4 item 5): the repo
analog of the reference's parse ``--verify`` against
``output_schema.json`` (``common/document_parser/cli.py:75-81``,
``validators.py``). A golden bad-doc corpus must be rejected with the
right per-row first-error; the clean parsed corpus must pass; the WAP
publish audit must refuse a branch whose staged rows violate a declared
contract."""

from __future__ import annotations

import re

import pyarrow as pa
import pytest
import ray.data

from gamechanger_data_ray.stages.validate import (
    DOC_OUTPUT_SCHEMA,
    TOKENS_TABLE_SCHEMA,
    SchemaError,
    validate_batch,
    validate_docs,
)

_PAR_T = pa.struct([("par_num", pa.int64()), ("par_text", pa.string()),
                    ("n_words", pa.int64())])
_PAGE_T = pa.struct([("page_num", pa.int64()), ("paragraphs", pa.list_(_PAR_T))])
_DOC_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("filename", pa.string()),
    ("page_count", pa.int64()), ("par_count", pa.int64()),
    ("word_count", pa.int64()), ("version_hash", pa.string()),
    ("ref_list", pa.list_(pa.string())),
    ("entities", pa.struct([("ORG_s", pa.list_(pa.string())),
                            ("PERSON_s", pa.list_(pa.string()))])),
    ("pages", pa.list_(_PAGE_T)),
])


def _doc(**over):
    base = {
        "doc_id": "doc-00000001", "filename": "doc-00000001.pdf",
        "page_count": 1, "par_count": 1, "word_count": 3,
        "version_hash": "ab" * 32,
        "ref_list": ["DoDD 5101.1"],
        "entities": {"ORG_s": ["Department of Defense"], "PERSON_s": []},
        "pages": [{"page_num": 0,
                   "paragraphs": [{"par_num": 0, "par_text": "a b c",
                                   "n_words": 3}]}],
    }
    base.update(over)
    return base


def _table(rows):
    return pa.Table.from_pylist(rows, schema=_DOC_SCHEMA)


def test_clean_corpus_passes():
    t = validate_batch(_table([_doc(), _doc(doc_id="doc-2")]),
                       DOC_OUTPUT_SCHEMA)
    assert t["_valid"].to_pylist() == [True, True]
    assert t["_verr"].to_pylist() == ["", ""]


GOLDEN_BAD = [
    # (row, expected substring of the first error)
    (_doc(doc_id=None), "doc_id: null in non-nullable"),
    (_doc(pages=[]), "pages: fewer than 1 items"),
    (_doc(pages=[{"page_num": 0, "paragraphs": []}]),
     "pages[].paragraphs: fewer than 1"),
    (_doc(pages=[{"page_num": None,
                  "paragraphs": [{"par_num": 0, "par_text": "x",
                                  "n_words": 1}]}]),
     "pages[].page_num: null"),
    (_doc(pages=[{"page_num": 0,
                  "paragraphs": [{"par_num": 0, "par_text": None,
                                  "n_words": 1}]}]),
     "pages[].paragraphs[].par_text: null"),
    (_doc(version_hash=None), "version_hash: null"),
]


def test_golden_bad_corpus_rejected_with_first_error():
    rows = [_doc()] + [r for r, _ in GOLDEN_BAD]
    t = validate_batch(_table(rows), DOC_OUTPUT_SCHEMA)
    assert t["_valid"].to_pylist() == [True] + [False] * len(GOLDEN_BAD)
    for got, (_, want) in zip(t["_verr"].to_pylist()[1:], GOLDEN_BAD):
        assert want in got, (want, got)


def test_schema_level_violations():
    # missing required column → every row invalid
    t = _table([_doc()]).drop_columns(["entities"])
    out = validate_batch(t, DOC_OUTPUT_SCHEMA)
    assert out["_valid"].to_pylist() == [False]
    assert "entities: required column missing" in out["_verr"][0].as_py()

    # wrong type family → every row invalid
    t2 = pa.table({"doc_id": pa.array([1, 2], pa.int64())})
    out2 = validate_batch(t2, {"type": "object", "required": ["doc_id"],
                               "properties": {"doc_id": {"type": "string"}}})
    assert out2["_valid"].to_pylist() == [False, False]
    assert "expected string" in out2["_verr"][0].as_py()

    # missing required STRUCT FIELD → schema-level
    ent = pa.struct([("ORG_s", pa.list_(pa.string()))])
    t3 = pa.table({"entities": pa.array(
        [{"ORG_s": ["x"]}], ent)})
    out3 = validate_batch(t3, {
        "type": "object", "required": ["entities"],
        "properties": {"entities": {
            "type": "object", "required": ["ORG_s", "PERSON_s"]}}})
    assert out3["_valid"].to_pylist() == [False]
    assert "entities.PERSON_s: required field missing" in out3["_verr"][0].as_py()


def test_nullable_and_number_widening():
    spec = {"type": "object", "required": ["a"],
            "properties": {"a": {"type": "number", "nullable": True},
                           "b": {"type": "integer"}}}
    t = pa.table({"a": pa.array([1.5, None]), "b": pa.array([1, None])})
    out = validate_batch(t, spec)
    assert out["_valid"].to_pylist() == [True, False]
    assert "b: null" in out["_verr"][1].as_py()
    # integer column satisfies "number"
    t2 = pa.table({"a": pa.array([1, 2], pa.int32()),
                   "b": pa.array([0, 0], pa.int64())})
    assert validate_batch(t2, spec)["_valid"].to_pylist() == [True, True]


def test_validate_docs_modes(ray_session):
    rows = [_doc(), _doc(doc_id=None), _doc(doc_id="doc-3")]
    ds = ray.data.from_arrow(_table(rows))
    ann = validate_docs(ds, DOC_OUTPUT_SCHEMA).to_pandas()
    assert sorted(ann["_valid"]) == [False, True, True]
    kept = validate_docs(ds, DOC_OUTPUT_SCHEMA, mode="filter").to_pandas()
    assert len(kept) == 2 and "_valid" not in kept.columns
    with pytest.raises(Exception) as e:
        validate_docs(ds, DOC_OUTPUT_SCHEMA, mode="strict").count()
    assert "failed schema validation" in str(e.value)


def test_parse_pipeline_verify_switch(ray_session, sf_dir):
    """The composed parsed-doc assembler passes its own declared
    contract end-to-end (the reference's parse --verify loop)."""
    from gamechanger_data_ray.pipelines.extraction_queries import parsed_docs

    out = parsed_docs(sf_dir, verify=True)
    n = out.count()
    import pyarrow.parquet as pq

    assert n == pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    # structural spot-check of the nested shape
    row = out.take(1)[0]
    assert row["pages"][0]["paragraphs"][0]["n_words"] > 0
    assert row["page_count"] == len(row["pages"])


def test_wap_publish_audit_schema(ray_session, tmp_path):
    """publish-branch --audit-schema: a staged epoch whose rows violate
    the declared contract refuses to publish; the clean branch
    publishes."""
    import numpy as np
    import ray.data

    from gamechanger_data_ray.engine.branches import (
        branch_create,
        branch_discard,
        branch_publish,
    )
    from gamechanger_data_ray.engine.cdc import apply_events_dataset

    def events(n, null_tok=False, lsn0=0):
        toks = pa.array([None if null_tok else [1, 2, 3]] * n,
                        pa.list_(pa.int32()))
        return pa.table({
            "op": pa.array(["I"] * n),
            "lsn": pa.array(np.arange(lsn0, lsn0 + n, dtype=np.int64)),
            "seq": pa.array(np.arange(n, dtype=np.int64)),
            "doc_id": pa.array([f"d{i}" for i in range(n)]),
            "tokens": toks,
            "n_tok": pa.array([3] * n, pa.int32()),
            "source": pa.array(["s"] * n),
        })

    tb = str(tmp_path / "tb")
    e = events(20)
    apply_events_dataset(ray.data.from_arrow(e), tb, 1, e.schema,
                         num_partitions=4)

    # bad branch: null tokens arrays violate the declared contract
    branch_create(tb, "bad")
    from gamechanger_data_ray.engine.branches import branch_path
    bad = events(5, null_tok=True, lsn0=100)
    apply_events_dataset(ray.data.from_arrow(bad), branch_path(tb, "bad"),
                         2, bad.schema, num_partitions=4)
    with pytest.raises(RuntimeError) as err:
        branch_publish(tb, "bad", audit_schema=TOKENS_TABLE_SCHEMA)
    # the refusal names the violated field and how many rows failed
    msg = str(err.value)
    assert "declared-schema audit" in msg
    assert "tokens" in msg and "5 row(s)" in msg
    branch_discard(tb, "bad")

    # clean branch publishes through the same audit
    branch_create(tb, "good")
    good = events(5, lsn0=100)
    apply_events_dataset(ray.data.from_arrow(good), branch_path(tb, "good"),
                         2, good.schema, num_partitions=4)
    out = branch_publish(tb, "good", audit_schema=TOKENS_TABLE_SCHEMA)
    assert out["epoch"] == 2


def test_validator_matches_serial_reference_property():
    """Property (hypothesis): over randomized doc rows — nulls anywhere,
    empty nested lists, missing-by-null struct members — the vectorized
    validator's per-row verdict equals a dumb per-row Python reference
    walking the same spec."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def ref_check(value, spec, path):
        """First violation string or None — the slow obvious walk."""
        if value is None:
            if not spec.get("nullable", False):
                return f"{path}: null"
            return None
        typ = spec.get("type")
        if typ == "array":
            mi = spec.get("minItems")
            if mi is not None and len(value) < mi:
                return f"{path}: fewer than {mi} items"
            items = spec.get("items")
            if items is not None:
                for v in value:
                    e = ref_check(v, items, f"{path}[]")
                    if e:
                        return e
            return None
        if typ == "object":
            for name, sub in (spec.get("properties") or {}).items():
                e = ref_check(value.get(name), sub, f"{path}.{name}")
                if e:
                    return e
            return None
        return None

    par = st.fixed_dictionaries({
        "par_num": st.one_of(st.none(), st.integers(0, 5)),
        "par_text": st.one_of(st.none(), st.text(max_size=5)),
        "n_words": st.one_of(st.none(), st.integers(0, 9)),
    })
    page = st.fixed_dictionaries({
        "page_num": st.one_of(st.none(), st.integers(0, 3)),
        "paragraphs": st.lists(par, max_size=3),
    })
    doc = st.fixed_dictionaries({
        "doc_id": st.one_of(st.none(), st.text(min_size=1, max_size=4)),
        "ref_list": st.one_of(st.none(),
                              st.lists(st.text(max_size=3), max_size=3)),
        "pages": st.lists(page, max_size=3),
        "meta": st.one_of(st.none(), st.fixed_dictionaries({
            "a": st.one_of(st.none(), st.integers(0, 9))})),
    })

    spec = {
        "type": "object",
        "required": ["doc_id", "pages"],
        "properties": {
            # first, so its verdict is not masked by a later field's
            "meta": {"type": "object", "nullable": True,
                     "properties": {"a": {"type": "integer"}}},
            "doc_id": {"type": "string"},
            "ref_list": {"type": "array", "nullable": True,
                         "items": {"type": "string"}},
            "pages": {"type": "array", "minItems": 1, "items": {
                "type": "object",
                "properties": {
                    "page_num": {"type": "integer"},
                    "paragraphs": {"type": "array", "minItems": 1, "items": {
                        "type": "object",
                        "properties": {
                            "par_num": {"type": "integer"},
                            "par_text": {"type": "string"},
                            "n_words": {"type": "integer"},
                        }}},
                }}},
        },
    }
    schema = pa.schema([
        ("doc_id", pa.string()),
        ("ref_list", pa.list_(pa.string())),
        ("pages", pa.list_(pa.struct([
            ("page_num", pa.int64()),
            ("paragraphs", pa.list_(pa.struct([
                ("par_num", pa.int64()), ("par_text", pa.string()),
                ("n_words", pa.int64())]))),
        ]))),
        ("meta", pa.struct([("a", pa.int64())])),
    ])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=6))
    def run(rows):
        t = pa.Table.from_pylist(rows, schema=schema)
        out = validate_batch(t, spec)
        got = out["_valid"].to_pylist()
        want = [all(ref_check(r.get(name), sub, name) is None
                    for name, sub in spec["properties"].items())
                for r in rows]
        assert got == want, (rows, out["_verr"].to_pylist())
        # the first violating top-level field agrees too, so a false
        # positive on a late field is not hidden by an earlier violation
        first = [next((name for name, sub in spec["properties"].items()
                       if ref_check(r.get(name), sub, name) is not None), "")
                 for r in rows]
        assert [re.match(r"\w*", e).group(0) for e in out["_verr"].to_pylist()] \
            == first, (rows, out["_verr"].to_pylist())

    run()
