"""Toshi's JSON query DSL — parse + validate, with the reference's error strings.

Wire shapes and semantics from the reference's `Query` enum
(`toshi-types/src/query/mod.rs:70-93`, SURVEY.md §2.3):

    {"term":   {"field": "value"}}
    {"phrase": {"field": {"terms": [...], "offsets": [...]?}}}
    {"fuzzy":  {"field": {"value": v, "distance": u8, "transposition": bool}}}
    {"regex":  {"field": "pattern"}}
    {"range":  {"field": {"gte":_, "lte":_, "gt":_, "lt":_}}}
    {"bool":   {"must": [], "must_not": [], "should": [],
                "minimum_should_match": _, "boost": _}}
    {"raw":    "field:value AND ..."}
    query omitted / null  → match-all

Behavioral quirks preserved (FIXTURES.md §F2):
  * every leaf query addresses exactly ONE field (single-entry map);
  * bool's `minimum_should_match` / `boost` parse but are IGNORED
    (reference `query/boolean.rs:47-60` drops them);
  * nested bool/raw/all inside a bool clause is rejected
    (`boolean.rs:72`);
  * term values are NOT analyzed at query time (`query/mod.rs:216-222`);
  * impossible ranges parse fine and match nothing;
  * exclusive bounds (gt/lt) win over inclusive (gte/lte)
    (`query/range.rs:131-153`);
  * default limit 100 (`query/mod.rs:142-144`).

Error strings are the reference's golden formats:
  Error in query execution: '...'   (query build/validation)
  Error in Index: '...'             (raw-parser / unindexed field)
  Error Parsing Json: '...'         (JSON type errors)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Any

DEFAULT_LIMIT = 100  # reference `query/mod.rs:142-144` / `settings.rs:33`


class QueryError(Exception):
    """Carries the reference-format message in str(exc)."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    @classmethod
    def execution(cls, detail: str) -> "QueryError":
        return cls(f"Error in query execution: '{detail}'")

    @classmethod
    def index(cls, detail: str) -> "QueryError":
        return cls(f"Error in Index: '{detail}'")

    @classmethod
    def json(cls, detail: str) -> "QueryError":
        return cls(f"Error Parsing Json: '{detail}'")


@dataclass(frozen=True)
class TermQuery:
    field: str
    value: str


@dataclass(frozen=True)
class PhraseQuery:
    field: str
    terms: tuple[str, ...]
    offsets: tuple[int, ...] | None = None


@dataclass(frozen=True)
class FuzzyQuery:
    field: str
    value: str
    distance: int = 0
    transposition: bool = False


@dataclass(frozen=True)
class RegexQuery:
    field: str
    pattern: str


@dataclass(frozen=True)
class RangeQuery:
    field: str
    gte: Any = None
    lte: Any = None
    gt: Any = None
    lt: Any = None


@dataclass(frozen=True)
class BoolQuery:
    must: tuple = ()
    must_not: tuple = ()
    should: tuple = ()
    # parsed but IGNORED, like the reference (boolean.rs:47-60):
    minimum_should_match: int | None = None
    boost: float | None = None


@dataclass(frozen=True)
class AllQuery:
    pass


@dataclass(frozen=True)
class BoostQuery:
    """Score multiplier from the raw grammar's `term^2` / `(...)^2`
    (tantivy QueryParser boost semantics — only reachable via raw
    queries; the JSON DSL has no boost leaf)."""

    query: Any
    boost: float = 1.0


@dataclass(frozen=True)
class RawQuery:
    query: str


@dataclass
class Search:
    """The POST body: query + limit + facets + sort_by
    (reference `toshi-types/src/query/mod.rs:106-118`)."""

    query: Any = dc_field(default_factory=AllQuery)
    limit: int = DEFAULT_LIMIT
    facets: dict[str, list[str]] | None = None
    sort_by: str | None = None

    @classmethod
    def from_json(cls, body: dict | None) -> "Search":
        """The body's fields, typed as the reference's serde derive
        types them: ``limit`` a usize, ``facets`` a map of field to
        root paths, ``sort_by`` a string; anything else is a
        `QueryError.json`."""
        body = {} if body is None else _expect(body, dict, "struct Search")
        facets, sort_by = body.get("facets"), body.get("sort_by")
        if facets is not None:
            for roots in _expect(facets, dict, "a map").values():
                for root in _expect(roots, list, "a sequence"):
                    _expect(root, str, "a string")
        if sort_by is not None:
            _expect(sort_by, str, "a string")
        limit = _expect(body.get("limit", DEFAULT_LIMIT), int, "usize")
        if not 0 <= limit < 1 << 64:
            raise QueryError.json(f"invalid value: {_unexpected(limit)}, expected usize")
        return cls(query=parse_query(body.get("query")), limit=limit, facets=facets, sort_by=sort_by)


def _unexpected(v: Any) -> str:
    """A JSON value as serde's `Unexpected` names it in an error. The
    integer and floating point forms match the reference's goldens; the
    others follow serde's wording, unchecked against the reference."""
    if isinstance(v, bool):
        return f"boolean `{'true' if v else 'false'}`"
    if isinstance(v, int):
        return f"integer `{v}`"
    if isinstance(v, float):
        return f"floating point `{v}`"
    if isinstance(v, str):
        return f"string {json.dumps(v)}"
    if v is None:
        return "unit value"
    return "sequence" if isinstance(v, list) else "map"


def _expect(v: Any, kind: type, expected: str) -> Any:
    """``v`` if it is of JSON type ``kind``, else serde's invalid-type
    error."""
    if isinstance(v, kind) and not isinstance(v, bool):
        return v
    raise QueryError.json(f"invalid type: {_unexpected(v)}, expected {expected}")


def _single_entry(obj: dict, kind: str) -> tuple[str, Any]:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise QueryError.execution(f"{kind} query must address exactly one field")
    return next(iter(obj.items()))


def parse_query(obj: Any) -> Any:
    """JSON query → typed node (validation errors use golden strings)."""
    if obj is None:
        return AllQuery()
    if not isinstance(obj, dict):
        raise QueryError.execution("Query must be a JSON object")
    if len(obj) != 1:
        raise QueryError.execution("Query must have exactly one variant")
    kind, body = next(iter(obj.items()))

    if kind == "term":
        f, v = _single_entry(body, "Term")
        return TermQuery(field=f, value=str(v))

    if kind == "phrase":
        f, v = _single_entry(body, "Phrase")
        terms = v.get("terms", []) if isinstance(v, dict) else []
        offsets = v.get("offsets") if isinstance(v, dict) else None
        if len(terms) <= 1:
            # golden: query/phrase.rs:84-97
            raise QueryError.execution("Phrase Query must have more than 1 term")
        if offsets is not None and len(terms) != len(offsets):
            # golden: query/phrase.rs:100-113
            raise QueryError.execution(
                f"Differing numbers of offsets and query terms ({len(terms)} and {len(offsets)})"
            )
        return PhraseQuery(
            field=f,
            terms=tuple(str(t) for t in terms),
            offsets=tuple(int(o) for o in offsets) if offsets is not None else None,
        )

    if kind == "fuzzy":
        f, v = _single_entry(body, "Fuzzy")
        if not isinstance(v, dict) or "value" not in v:
            raise QueryError.execution("Fuzzy query requires a value")
        return FuzzyQuery(
            field=f,
            value=str(v["value"]),
            distance=int(v.get("distance", 0)),
            transposition=bool(v.get("transposition", False)),
        )

    if kind == "regex":
        f, v = _single_entry(body, "Regex")
        return RegexQuery(field=f, pattern=str(v))

    if kind == "range":
        f, v = _single_entry(body, "Range")
        if not isinstance(v, dict):
            raise QueryError.execution("Range query requires bounds")
        # serde golden for a float bound: range.rs:191-203
        bounds = {k: None if v.get(k) is None else _expect(v[k], int, "i64")
                  for k in ("gte", "lte", "gt", "lt")}
        if all(b is None for b in bounds.values()):
            raise QueryError.execution("Range query must have at least one bound")
        return RangeQuery(field=f, **bounds)

    if kind == "bool":
        if not isinstance(body, dict):
            raise QueryError.execution("Bool query requires clauses")
        def clauses(key: str) -> tuple:
            out = []
            for c in body.get(key, []):
                sub = parse_query(c)
                if isinstance(sub, (BoolQuery, RawQuery, AllQuery)):
                    # golden string: boolean.rs parse_queries rejects
                    # nested bool/raw/all inside a clause
                    raise QueryError.execution(
                        "Invalid type for boolean query"
                    )
                out.append(sub)
            return tuple(out)

        return BoolQuery(
            must=clauses("must"),
            must_not=clauses("must_not"),
            should=clauses("should"),
            minimum_should_match=body.get("minimum_should_match"),
            boost=body.get("boost"),
        )

    if kind == "raw":
        return RawQuery(query=str(body))

    if kind == "all":
        return AllQuery()

    raise QueryError.execution(f"Unknown query type: {kind}")


# ---------------------------------------------------------------------------
# Raw (Lucene-ish) query parser — reference routes these through tantivy's
# QueryParser over all schema fields (`toshi-server/src/handle.rs:115-119`).
# Unlike {"term": ...}, raw text IS analyzed with the field's tokenizer.
#
# Supported surface (tantivy 0.19 QueryParser grammar):
#   field:term    field:"a phrase"    bare terms over all text fields
#   +must  -must_not  NOT x           AND / OR connectors
#   ( ... ) grouping (recursive)      * match-all
#   field:[1 TO 5]  field:{1 TO 5}    raw numeric ranges, * = open bound
#   term^2  "phrase"^2  (...)^2       score boost (multiplicative)
# AND anywhere in a sequence makes that level conjunctive (bare items
# become musts), mirroring the flat-occur combination tantivy's parser
# produces; parens reset the rule per level. Anything else is the
# reference's golden syntax error (`handlers/search.rs:83-90`).
# ---------------------------------------------------------------------------

import re as _re

_TOKEN_RE = _re.compile(
    r"""(?P<ws>\s+)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<boost>\^(?P<bval>\d+(?:\.\d+)?))
      | (?P<quoted>"(?P<phrase>[^"]*)")
      | (?P<range>[\[\{]\s*(?P<lo>\*|-?\d+)\s+TO\s+(?P<hi>\*|-?\d+)\s*[\]\}])
      | (?P<occur>[+-])
      | (?P<word>[\w.]+)
      | (?P<star>\*)
      | (?P<colon>:)
    """,
    _re.VERBOSE,
)


def _tokenize_raw(raw: str) -> list[tuple[str, Any]]:
    toks: list[tuple[str, Any]] = []
    pos = 0
    prev_word_end = -1
    prev_tok_end = -1  # end of the previous non-whitespace token
    while pos < len(raw):
        m = _TOKEN_RE.match(raw, pos)
        if not m:
            raise QueryError.index(f"Syntax Error: {raw}")
        if m.group("star") and (
            m.start() == prev_word_end  # doc* — wildcards are not supported
            or (m.end() < len(raw) and (raw[m.end()].isalnum() or raw[m.end()] in "_."))
        ):
            raise QueryError.index(f"Syntax Error: {raw}")
        if m.group("boost") and m.start() != prev_tok_end:
            # a detached caret ('a ^2') is a syntax error like the
            # reference's QueryParser — boost binds to its clause
            raise QueryError.index(f"Syntax Error: {raw}")
        if m.group("word"):
            prev_word_end = m.end()
        if not m.group("ws"):
            prev_tok_end = m.end()
        pos = m.end()
        if m.group("ws"):
            continue
        if m.group("lparen"):
            toks.append(("LP", None))
        elif m.group("rparen"):
            toks.append(("RP", None))
        elif m.group("boost"):
            toks.append(("BOOST", float(m.group("bval"))))
        elif m.group("quoted") is not None:
            toks.append(("PHRASE", m.group("phrase")))
        elif m.group("range"):
            linc = raw[m.start("range")] == "["
            hinc = raw[m.end("range") - 1] == "]"
            toks.append(("RANGE", (m.group("lo"), m.group("hi"), linc, hinc)))
        elif m.group("occur"):
            toks.append(("OCCUR", m.group("occur")))
        elif m.group("word"):
            toks.append(("WORD", m.group("word")))
        elif m.group("star"):
            toks.append(("STAR", None))
        else:
            toks.append(("COLON", None))
    return toks


def _analyzed_node(fdef, text: str):
    """Analyze raw text with the field's tokenizer → Term/Phrase/None."""
    from toshi_ray.analyzer import get_analyzer

    if not fdef.is_text:
        return TermQuery(fdef.name, text)
    t = get_analyzer(fdef.tokenizer).tokens(text)
    if not t:
        return None
    return TermQuery(fdef.name, t[0]) if len(t) == 1 else PhraseQuery(fdef.name, tuple(t))


def _multi_field_node(text: str, schema, raw: str):
    targets = schema.text_fields
    if not targets:
        raise QueryError.index(f"Syntax Error: {raw}")
    per_field = [n for fdef in targets if (n := _analyzed_node(fdef, text)) is not None]
    if not per_field:
        return None
    return per_field[0] if len(per_field) == 1 else BoolQuery(should=tuple(per_field))


def _field_payload(field: str, toks, i: int, schema, raw: str):
    """Parse what follows `field:` → (node-or-None, next index)."""
    fdef = schema.field(field)
    if fdef is None:
        raise QueryError.execution(f"Unknown field: {field}")
    if not fdef.indexed:
        # golden: handlers/search.rs:93-101
        raise QueryError.index(f"The field '{field}' is not declared as indexed")
    if i >= len(toks):
        raise QueryError.index(f"Syntax Error: {raw}")
    kind, val = toks[i]
    if kind == "RANGE":
        lo, hi, linc, hinc = val
        b = {"gte": None, "lte": None, "gt": None, "lt": None}
        if lo != "*":
            b["gte" if linc else "gt"] = int(lo)
        if hi != "*":
            b["lte" if hinc else "lt"] = int(hi)
        if all(v is None for v in b.values()):
            raise QueryError.execution("Range query must have at least one bound")
        return RangeQuery(field=field, **b), i + 1
    if kind == "PHRASE":
        return _analyzed_node(fdef, val), i + 1
    if kind == "OCCUR" and val == "-" and i + 1 < len(toks) and toks[i + 1][0] == "WORD":
        # negative numeric literal, e.g. test_i64:-2015
        return _analyzed_node(fdef, "-" + toks[i + 1][1]), i + 2
    if kind == "WORD":
        return _analyzed_node(fdef, val), i + 1
    raise QueryError.index(f"Syntax Error: {raw}")


def _parse_factor(toks, i: int, schema, raw: str):
    kind, val = toks[i]
    if kind == "LP":
        node, i = _parse_seq(toks, i + 1, schema, raw)
        if i >= len(toks) or toks[i][0] != "RP":
            raise QueryError.index(f"Syntax Error: {raw}")
        i += 1
    elif kind == "WORD" and i + 1 < len(toks) and toks[i + 1][0] == "COLON":
        node, i = _field_payload(val, toks, i + 2, schema, raw)
    elif kind == "WORD":
        node = _multi_field_node(val, schema, raw)
        i += 1
    elif kind == "PHRASE":
        node = _multi_field_node(val, schema, raw)
        i += 1
    elif kind == "STAR":
        node, i = AllQuery(), i + 1
    else:
        raise QueryError.index(f"Syntax Error: {raw}")
    if i < len(toks) and toks[i][0] == "BOOST":
        if node is not None:
            node = BoostQuery(query=node, boost=toks[i][1])
        i += 1
    return node, i


def _parse_seq(toks, i: int, schema, raw: str):
    """Parse items until `)` or end; AND at this level → bare items
    become musts (matching the pre-grouping flat-occur behavior)."""
    items: list[tuple[str, Any]] = []
    conj = False
    pending: str | None = None
    awaiting_clause = False  # an AND/OR was consumed; a clause must follow
    n_parsed = 0  # clauses parsed incl. ones analysis dropped
    while i < len(toks):
        kind, val = toks[i]
        if kind == "RP":
            break
        if (
            kind == "WORD"
            and val in ("AND", "OR", "NOT")
            and pending is None
            and not (i + 1 < len(toks) and toks[i + 1][0] == "COLON")
        ):
            if val == "NOT":
                pending = "-"
            else:
                # binary connector needs a left operand ("AND x" errors)
                if n_parsed == 0 or awaiting_clause:
                    raise QueryError.index(f"Syntax Error: {raw}")
                if val == "AND":
                    conj = True
                awaiting_clause = True
            i += 1
            continue
        if kind == "OCCUR":
            pending = val
            i += 1
            continue
        node, i = _parse_factor(toks, i, schema, raw)
        if node is not None:  # analysis may drop a clause (all-stop tokens)
            items.append((pending or "?", node))
        pending = None
        awaiting_clause = False
        n_parsed += 1
    if pending is not None or awaiting_clause:
        # dangling NOT / + / - or a trailing AND / OR
        raise QueryError.index(f"Syntax Error: {raw}")
    if not items:
        raise QueryError.index(f"Syntax Error: {raw}")
    if len(items) == 1 and items[0][0] in ("?", "+"):
        return items[0][1], i
    must = tuple(n for o, n in items if o == "+" or (o == "?" and conj))
    must_not = tuple(n for o, n in items if o == "-")
    should = tuple(n for o, n in items if o == "?" and not conj)
    return BoolQuery(must=must, must_not=must_not, should=should), i


def parse_raw(raw: str, schema) -> Any:
    """Desugar a raw query string to a Term/Phrase/Range/Bool/Boost tree."""
    toks = _tokenize_raw(raw)
    node, i = _parse_seq(toks, 0, schema, raw)
    if i != len(toks):  # stray ')'
        raise QueryError.index(f"Syntax Error: {raw}")
    return node
