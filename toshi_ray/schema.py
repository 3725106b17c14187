"""Index schema — field definitions mirroring Toshi's wire format.

Toshi declares an index's fields as a JSON array at `PUT /{idx}/_create`
(reference `toshi-server/src/handlers/index.rs:30-42`, example
`schema.json:1-62`). Field types exercised by the reference (SURVEY.md
§1.2): text (indexed with positions / stored-only), i64, u64, facet,
date. Range queries are only legal on i64/u64; querying a non-indexed
field is an error.

Here a schema is a small frozen model serialized as the same JSON shape
into the index directory (`schema.json` side-car) next to the segment
manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import pyarrow as pa

TEXT = "text"
I64 = "i64"
U64 = "u64"
DATE = "date"
FACET = "facet"

_VALID_TYPES = {TEXT, I64, U64, DATE, FACET}
_ARROW_TYPES = {I64: pa.int64(), U64: pa.uint64(), DATE: pa.timestamp("us"),
                TEXT: pa.string(), FACET: pa.string()}


@dataclass(frozen=True)
class FieldDef:
    name: str
    type: str
    stored: bool = True
    indexed: bool = True
    # text-only:
    tokenizer: str = "default"
    positions: bool = True  # record: "position"
    # numeric-only:
    fast: bool = False

    def __post_init__(self):
        if self.type not in _VALID_TYPES:
            raise ValueError(f"Unknown field type: {self.type!r}")

    @property
    def is_text(self) -> bool:
        return self.type == TEXT

    @property
    def is_numeric(self) -> bool:
        return self.type in (I64, U64, DATE)

    @property
    def arrow_type(self) -> pa.DataType:
        """The Arrow type of the field's values, in every table the
        engine builds from documents: a date is its UTC instant."""
        return _ARROW_TYPES[self.type]

    def to_json(self) -> dict:
        if self.type == TEXT:
            opts: dict = {"stored": self.stored}
            if self.indexed:
                opts["indexing"] = {
                    "record": "position" if self.positions else "basic",
                    "tokenizer": self.tokenizer,
                }
            return {"name": self.name, "type": self.type, "options": opts}
        return {
            "name": self.name,
            "type": self.type,
            "options": {"indexed": self.indexed, "stored": self.stored, "fast": self.fast},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FieldDef":
        name, typ, opts = obj["name"], obj["type"], obj.get("options", {})
        if typ == TEXT:
            indexing = opts.get("indexing")
            return cls(
                name=name,
                type=typ,
                stored=bool(opts.get("stored", False)),
                indexed=indexing is not None,
                tokenizer=(indexing or {}).get("tokenizer", "default"),
                positions=(indexing or {}).get("record", "basic") == "position",
            )
        return cls(
            name=name,
            type=typ,
            stored=bool(opts.get("stored", False)),
            indexed=bool(opts.get("indexed", typ == FACET)),
            fast=bool(opts.get("fast", False)),
        )


@dataclass(frozen=True)
class Schema:
    fields: tuple[FieldDef, ...]
    _by_name: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {f.name: f for f in self.fields})

    def field(self, name: str) -> FieldDef | None:
        return self._by_name.get(name)

    @property
    def text_fields(self) -> list[FieldDef]:
        return [f for f in self.fields if f.is_text and f.indexed]

    @property
    def indexed_fields(self) -> list[FieldDef]:
        return [f for f in self.fields if f.indexed]

    @property
    def stored_fields(self) -> list[FieldDef]:
        return [f for f in self.fields if f.stored]

    def to_json(self) -> list[dict]:
        return [f.to_json() for f in self.fields]

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def from_json(cls, arr: list[dict]) -> "Schema":
        return cls(fields=tuple(FieldDef.from_json(o) for o in arr))

    @classmethod
    def loads(cls, s: str) -> "Schema":
        return cls.from_json(json.loads(s))

    @classmethod
    def build(cls, *fields: FieldDef) -> "Schema":
        return cls(fields=tuple(fields))
