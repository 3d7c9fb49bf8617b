"""Declarative parsed-output validation (SURVEY §2 "what's missing #2"):
the Ray-Data analog of the reference's on-demand JSON-Schema verify of
every parsed doc (``common/document_parser/cli.py:75-81`` ``--verify`` →
``validators.py::verify`` → ``output_schema.json:1-385``).

The reference validates one JSON file at a time with ``jsonschema``; here
the same declarative contract (required fields, scalar types, nullability,
nested array/struct shape with ``minItems``) runs as a VECTORIZED
``map_batches`` stage over Arrow batches — schema-level checks (missing
column, wrong type family) verdict the whole batch without touching rows,
row-level checks (nulls, short arrays, bad nested items) are pyarrow
kernels, and nested array items validate on the FLATTENED child values
with offsets arithmetic mapping child violations back to parent rows.
No per-row Python in any check.

Spec language — a JSON-serializable subset of JSON Schema draft-07 (the
same vocabulary ``output_schema.json`` uses):

    {"type": "object",
     "required": ["doc_id", "pages"],
     "properties": {
        "doc_id":  {"type": "string"},
        "n_tok":   {"type": "integer", "nullable": True},
        "ref_list":{"type": "array", "items": {"type": "string"}},
        "pages":   {"type": "array", "minItems": 1,
                    "items": {"type": "object",
                              "required": ["page_num", "paragraphs"],
                              "properties": {...}}}}}

``nullable`` defaults False for required fields (a required field with a
null value is a violation, matching jsonschema's type check on null).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

_VALID = "_valid"
_VERR = "_verr"

_TYPE_CHECKS = {
    "string": lambda t: pa.types.is_string(t) or pa.types.is_large_string(t),
    "integer": lambda t: pa.types.is_integer(t),
    "number": lambda t: pa.types.is_floating(t) or pa.types.is_integer(t),
    "boolean": lambda t: pa.types.is_boolean(t),
    "array": lambda t: pa.types.is_list(t) or pa.types.is_large_list(t),
    "object": lambda t: pa.types.is_struct(t),
    "binary": lambda t: pa.types.is_binary(t) or pa.types.is_large_binary(t),
}


class SchemaError(ValueError):
    """A batch failed validation in ``mode='strict'``."""


def _first_error(err: np.ndarray, mask: np.ndarray, msg: str) -> None:
    """Record ``msg`` for rows in ``mask`` that have no error yet."""
    take = mask & (err == "")
    if take.any():
        err[take] = msg


def _check_column(
    arr: pa.ChunkedArray | pa.Array,
    spec: dict,
    path: str,
    err: np.ndarray,
    row_map: np.ndarray | None,
) -> None:
    """Validate one (possibly nested) column. ``row_map`` maps this
    level's value index → top-level row index (None = identity);
    ``err`` is the per-top-row first-error buffer."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n_top = len(err)

    def mark(value_mask: np.ndarray, msg: str) -> None:
        if not value_mask.any():
            return
        rows = np.zeros(n_top, dtype=bool)
        rows[row_map[value_mask] if row_map is not None else value_mask] = True
        _first_error(err, rows, msg)

    typ = spec.get("type")
    if typ is not None:
        check = _TYPE_CHECKS.get(typ)
        if check is None:
            raise ValueError(f"unknown spec type {typ!r} at {path}")
        if not check(arr.type):
            # schema-level violation: every row of the batch is wrong
            _first_error(err, np.ones(n_top, dtype=bool),
                         f"{path}: expected {typ}, column is {arr.type}")
            return

    nulls = pc.is_null(arr).to_numpy(zero_copy_only=False)
    if not spec.get("nullable", False):
        mark(nulls, f"{path}: null in non-nullable field")

    if typ == "array":
        lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        min_items = spec.get("minItems")
        if min_items is not None:
            short = (~nulls) & (np.nan_to_num(lens, nan=0.0) < min_items)
            mark(short, f"{path}: fewer than {min_items} items")
        items = spec.get("items")
        if items is not None and len(arr):
            flat = arr.flatten()
            if len(flat):
                # child value i belongs to the parent at parent_idx[i]
                ln = np.nan_to_num(lens, nan=0.0).astype(np.int64)
                parent = np.repeat(np.arange(len(arr)), ln)
                child_map = (parent if row_map is None
                             else row_map[parent])
                _check_column(flat, items, f"{path}[]", err, child_map)
    elif typ == "object":
        required = spec.get("required", [])
        names = {f.name for f in arr.type}
        for req in required:
            if req not in names:
                _first_error(err, np.ones(n_top, dtype=bool),
                             f"{path}.{req}: required field missing")
        if nulls.any():
            # a null parent has no members to check: recurse on the
            # non-null structs only (already flagged above unless nullable)
            keep = np.flatnonzero(~nulls)
            arr = arr.take(pa.array(keep))
            row_map = keep if row_map is None else row_map[keep]
        for name, sub in (spec.get("properties") or {}).items():
            if name not in names:
                continue
            _check_column(pc.struct_field(arr, name), sub,
                          f"{path}.{name}", err, row_map)


def validate_batch(t: pa.Table, spec: dict) -> pa.Table:
    """Annotate a batch with ``_valid`` / ``_verr`` (first violation per
    row, '' when valid) against a top-level object spec."""
    err = np.full(t.num_rows, "", dtype=object)
    for req in spec.get("required", []):
        if req not in t.schema.names:
            _first_error(err, np.ones(t.num_rows, dtype=bool),
                         f"{req}: required column missing")
    for name, sub in (spec.get("properties") or {}).items():
        if name not in t.schema.names:
            continue
        _check_column(t[name], sub, name, err, None)
    valid = np.array([e == "" for e in err], dtype=bool)
    t = t.drop_columns([c for c in (_VALID, _VERR) if c in t.schema.names])
    return (t.append_column(_VALID, pa.array(valid))
             .append_column(_VERR, pa.array(err.tolist(), pa.string())))


def validate_docs(
    ds: ray.data.Dataset,
    spec: dict,
    mode: str = "annotate",
) -> ray.data.Dataset:
    """The declarative output-validation gate as a Dataset stage.

    - ``mode="annotate"``: pass every row through with ``_valid``/
      ``_verr`` columns (the audit-report shape);
    - ``mode="filter"``: keep only valid rows (the dead-letter shape —
      pair with the inverse filter for the reject stream);
    - ``mode="strict"``: raise :class:`SchemaError` from the worker on
      the first invalid batch (the reference's ``--verify`` exit(1),
      ``common/document_parser/cli.py:75-81``) — the raising task aborts
      the streaming execution, nothing materializes on the driver.
    """
    if mode not in ("annotate", "filter", "strict"):
        raise ValueError(f"unknown mode {mode!r}")

    def check(t: pa.Table) -> pa.Table:
        out = validate_batch(t, spec)
        if mode == "annotate":
            return out
        bad = pc.invert(out[_VALID])
        if mode == "strict" and pc.any(bad).as_py():
            sample = out.filter(bad)[_VERR][0].as_py()
            n = pc.sum(pc.cast(bad, pa.int64())).as_py()
            raise SchemaError(
                f"{n} row(s) failed schema validation; first: {sample}")
        return out.filter(out[_VALID]).drop_columns([_VALID, _VERR])

    return ds.map_batches(check, batch_format="pyarrow")


def load_spec(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# The parsed-doc output contract — the repo analog of the reference's
# output_schema.json:1-385 (required top-level fields; pages/paragraphs
# nested shape with minItems 1; entity buckets as string arrays).
# ---------------------------------------------------------------------------

DOC_OUTPUT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "doc_id", "filename", "page_count", "par_count", "word_count",
        "version_hash", "ref_list", "entities", "pages",
    ],
    "properties": {
        "doc_id": {"type": "string"},
        "filename": {"type": "string"},
        "page_count": {"type": "integer"},
        "par_count": {"type": "integer"},
        "word_count": {"type": "integer"},
        "version_hash": {"type": "string"},
        "summary": {"type": "string", "nullable": True},
        "ref_list": {"type": "array", "items": {"type": "string"}},
        "entities": {
            "type": "object",
            "required": ["ORG_s", "PERSON_s"],
            "properties": {
                "ORG_s": {"type": "array", "items": {"type": "string"}},
                "PERSON_s": {"type": "array", "items": {"type": "string"}},
            },
        },
        "pages": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["page_num", "paragraphs"],
                "properties": {
                    "page_num": {"type": "integer"},
                    "paragraphs": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["par_num", "par_text", "n_words"],
                            "properties": {
                                "par_num": {"type": "integer"},
                                "par_text": {"type": "string"},
                                "n_words": {"type": "integer"},
                            },
                        },
                    },
                },
            },
        },
    },
}

# flat contract for the CDC tokens table (the WAP branch audit shape —
# BASELINE.json input_hint columns)
TOKENS_TABLE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["doc_id", "tokens", "n_tok", "source"],
    "properties": {
        "doc_id": {"type": "string"},
        "tokens": {"type": "array", "items": {"type": "integer"}},
        "n_tok": {"type": "integer"},
        "source": {"type": "string"},
    },
}
