"""Index catalog + handler surface — the reference's REST semantics as a
Python API.

Mirrors the route table at `toshi-server/src/router.rs:52-74`:

    GET  /_list            → IndexCatalog.list_indexes()
    PUT  /{idx}/_create    → create_index(name, schema_json)
    GET  /{idx}/_summary   → index_summary(name, include_sizes)
    GET  /{idx}/_flush     → flush(name)
    POST /{idx}/_bulk      → bulk_insert(name, ndjson)      (rollback on error)
    POST /{idx}            → search(name, body)
    PUT  /{idx}            → add_document(name, {options, document})
    DELETE /{idx}          → delete_term(name, {field: term})
    GET  /{idx}            → all_docs(name)

The reference's catalog is a dir-scan over a base path
(`toshi-server/src/index.rs:102-124`); ours scans for index manifests.
"Commit" everywhere is `pipelines.build.commit`, an atomic manifest
swap under the index's writer lock, which also gives the bulk path its
whole-batch rollback for free (parse error ⇒ nothing published —
`handlers/bulk.rs:121-129` semantics).
"""

from __future__ import annotations

import datetime
import json
import logging
import os
import re
import threading
import uuid

import numpy as np
import pyarrow as pa

from toshi_ray.pipelines.build import (
    MANIFEST_FILE,
    SCHEMA_FILE,
    SEGMENTS_DIR,
    _atomic_write,
    commit,
    load_manifest,
)
from toshi_ray.query import QueryError
from toshi_ray.schema import Schema
from toshi_ray.search import Searcher
from toshi_ray.segments import build_segment_tables, write_segment

_LOG = logging.getLogger("toshi_ray.api")


def json_default(v):
    """``json.dumps(default=)`` for a response: a stored date comes back
    from the doc store as a ``datetime`` and renders as an RFC 3339 UTC
    string, tantivy's JSON form of a date (``2021-03-04T05:06:07.000891Z``)."""
    if isinstance(v, datetime.datetime):  # naive: the store casts to timestamp[us]
        return v.isoformat() + "Z"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


_RFC3339 = re.compile(r"\d{4}-\d\d-\d\d[Tt]\d\d:\d\d:\d\d(\.\d+)?([Zz]|[+-]\d\d:\d\d)?")


def _utc_instant(v) -> datetime.datetime:
    """A date field's value as a naive UTC datetime: an RFC 3339 string,
    what tantivy 0.19 parses for a date. A string without an offset is
    read as UTC, as the catalog has always taken it. Anything else is a
    `QueryError`."""
    if not isinstance(v, str):
        raise QueryError.json(f"invalid type: {json.dumps(v)}, expected an RFC 3339 date")
    try:
        if not _RFC3339.fullmatch(v):
            raise ValueError(v)
        dt = datetime.datetime.fromisoformat(v.upper())
    except ValueError:
        raise QueryError.json(f"invalid value: {json.dumps(v)}, expected an RFC 3339 date") from None
    if dt.tzinfo is not None:
        dt = dt.astimezone(datetime.timezone.utc).replace(tzinfo=None)
    return dt


class AutoCommitWatcher:
    """Analogue of the reference's commit watcher (`commit.rs:11-28`):
    every ``every_s`` seconds, commit any index whose opstamp advanced
    since the last commit — unless the bulk-ingest lock is held
    (`bulk.rs:67` suppression). Only meaningful for a catalog in
    buffered-writes mode; with the default publish-on-write mode every
    write already IS a commit (atomic manifest swap)."""

    def __init__(self, catalog: "IndexCatalog", every_s: float = 10.0):
        self.catalog = catalog
        self.every_s = every_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "AutoCommitWatcher":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.every_s):
            try:
                self.tick()
            except Exception:
                # one failing commit must not kill the ticker thread
                _LOG.exception("auto-commit tick failed")

    def tick(self) -> list[str]:
        """One watcher pass; returns the indexes committed (callable
        directly for deterministic tests, mirroring commit.rs:88-109).
        One failing index must not starve the others."""
        c = self.catalog
        if c._bulk_lock.is_set():  # suppressed during bulk ingest
            return []
        out = []
        for name, ops in list(c._opstamp.items()):
            if ops > 0:
                try:
                    c.flush(name)
                    out.append(name)
                except Exception:
                    _LOG.exception("auto-commit failed for index %r", name)
        return out

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5)


class IndexCatalog:
    def __init__(self, base_path: str, buffered_writes: bool = False,
                 auto_commit_s: float | None = None):
        """``buffered_writes=True`` mirrors the reference's writer-arena
        visibility: added docs stay PENDING (invisible) until an
        explicit flush, a per-doc ``options.commit``, or the auto-commit
        ticker fires. The default (False) publishes every write
        immediately — each append is an atomic manifest swap."""
        self.base_path = base_path
        os.makedirs(base_path, exist_ok=True)
        self._searchers: dict[str, Searcher] = {}
        self.buffered_writes = buffered_writes
        self._pending: dict[str, list[dict]] = {}
        self._opstamp: dict[str, int] = {}
        # index -> (write_id, postings, docvalues) of its latest append,
        # handed to the next refresh of its searcher (`_searcher`)
        self._primed: dict[str, tuple] = {}
        self._mutex = threading.Lock()  # guards _pending/_opstamp/_primed (ticker thread)
        self._bulk_lock = threading.Event()
        self._watcher: AutoCommitWatcher | None = None
        if auto_commit_s:
            self.start_auto_commit(auto_commit_s)

    def start_auto_commit(self, every_s: float = 10.0) -> AutoCommitWatcher:
        """Spawn the commit ticker (reference default 10 s,
        `settings.rs` auto_commit_duration)."""
        if self._watcher is None:
            self._watcher = AutoCommitWatcher(self, every_s).start()
        return self._watcher

    def stop_auto_commit(self) -> None:
        if self._watcher is not None:
            self._watcher.stop()
            self._watcher = None

    # ---- GET / — service banner (reference handlers/root.rs:5-7) ----
    def root(self) -> dict:
        from toshi_ray import __version__

        return {"name": "toshi-ray", "version": __version__}

    # ---- S5: create ----
    def create_index(self, name: str, schema_json: list[dict]) -> dict:
        root = self._root(name)
        schema = Schema.from_json(schema_json)
        os.makedirs(os.path.join(root, SEGMENTS_DIR), exist_ok=True)

        def create(manifest: dict) -> dict:
            if manifest:  # checked under the lock: one racing create wins
                raise QueryError.index(f"Index {name} already exists")
            _atomic_write(os.path.join(root, SCHEMA_FILE), schema.dumps())
            return {"segments": []}

        commit(root, create)
        return {"created": name}

    # ---- S6/S9: catalog refresh + list (sorted, deduped — index.rs:51-56) ----
    def list_indexes(self) -> list[str]:
        out = set()
        for entry in os.listdir(self.base_path):
            if os.path.exists(os.path.join(self.base_path, entry, MANIFEST_FILE)):
                out.add(entry)
        return sorted(out)

    # ---- S8: summary ----
    def index_summary(self, name: str, include_sizes: bool = False) -> dict:
        root = self._require(name)
        manifest = load_manifest(root)
        out = {
            "summaries": {
                "num_docs": sum(s["num_docs"] for s in manifest["segments"]),
                "segments": [s["name"] for s in manifest["segments"]],
                "version": manifest["version"],
            }
        }
        if include_sizes:
            sizes = {}
            for s in manifest["segments"]:
                d = os.path.join(root, SEGMENTS_DIR, s["name"])
                sizes[s["name"]] = sum(
                    os.path.getsize(os.path.join(dp, f))
                    for dp, _, fs in os.walk(d)
                    for f in fs
                )
            out["summaries"]["segment_sizes"] = sizes
        return out

    # ---- S7: flush/commit (publish pending docs + bump the version) ----
    def flush(self, name: str) -> dict:
        root = self._require(name)
        with self._mutex:
            pending = self._pending.pop(name, [])
            self._opstamp[name] = 0
        if not pending:
            return {"opstamp": commit(root, lambda manifest: manifest)["version"]}
        try:
            return {"opstamp": self._append_docs(name, pending)["version"]}
        except Exception:
            with self._mutex:  # re-stage: a failed commit loses nothing
                self._pending[name] = pending + self._pending.get(name, [])
                self._opstamp[name] = self._opstamp.get(name, 0) + len(pending)
            raise

    # ---- S3: single-doc add (PUT /{idx}) ----
    def add_document(self, name: str, body: dict) -> dict:
        doc = body.get("document") if "document" in body else body
        if not isinstance(doc, dict):
            # golden: handlers/index.rs:150-169
            raise QueryError.index("The provided string is not valid JSON")
        self._require(name)
        # validate NOW, in BOTH modes: a bad typed value must be a
        # QueryError here, not a raw ArrowInvalid from the segment build
        # (or a dead ticker commit with the whole batch staged)
        self._validate(self._schema(name), doc)
        if self.buffered_writes:
            with self._mutex:
                self._pending.setdefault(name, []).append(doc)
                self._opstamp[name] = self._opstamp.get(name, 0) + 1
            if body.get("options", {}).get("commit"):
                self.flush(name)
        else:
            self._append_docs(name, [doc])
            if body.get("options", {}).get("commit"):
                self.flush(name)
        return {"created": True}

    # ---- S1/S2/S4: bulk NDJSON with whole-batch rollback ----
    def bulk_insert(self, name: str, ndjson: str, max_line_length: int = 10_000) -> dict:
        root = self._require(name)
        schema = self._schema(name)
        # auto-commit suppression for the duration of the bulk
        # (bulk.rs:67 sets the watcher's AtomicBool)
        self._bulk_lock.set()
        try:
            docs = []
            for i, line in enumerate(ndjson.splitlines()):
                if not line.strip():
                    continue
                if len(line) > max_line_length:  # settings.rs:41 default
                    raise QueryError.index(f"Line {i} exceeds max_line_length")
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    raise QueryError.index("The provided string is not valid JSON")
                if not isinstance(doc, dict):
                    raise QueryError.index("The provided string is not valid JSON")
                self._validate(schema, doc)
                docs.append(doc)
            # all lines parsed+validated → stage or publish once (atomic
            # commit = the rollback guarantee: a bad line above aborted
            # before any publish)
            if self.buffered_writes:
                with self._mutex:
                    self._pending.setdefault(name, []).extend(docs)
                    self._opstamp[name] = self._opstamp.get(name, 0) + len(docs)
            else:
                self._append_docs(name, docs)
            return {"docs": len(docs)}
        finally:
            self._bulk_lock.clear()

    # ---- T5: delete by term (DELETE /{idx}) ----
    def delete_term(self, name: str, terms: dict) -> dict:
        from toshi_ray.pipelines.merge import delete_by_term

        self._require(name)
        total = 0
        for field, term in terms.items():
            # the cached searcher, refreshed past the previous term's
            # delete: a doc matching two terms counts once
            total += delete_by_term(self._searcher(name), field, str(term))
        return {"docs_affected": total}

    # ---- search (POST /{idx}) + all_docs (GET /{idx}) ----
    def search(self, name: str, body: dict | None = None, pretty: bool = False):
        """``pretty`` mirrors the reference's ?pretty URL option
        (`toshi-types/src/query/mod.rs:28-59`): return an indented JSON
        string instead of the dict."""
        out = self._searcher(name).search(body)
        return json.dumps(out, indent=2, default=json_default) if pretty else out

    def all_docs(self, name: str) -> dict:
        return self.search(name, None)

    # ---- internals ----
    def _root(self, name: str) -> str:
        return os.path.join(self.base_path, name)

    def _require(self, name: str) -> str:
        root = self._root(name)
        if not os.path.exists(os.path.join(root, MANIFEST_FILE)):
            raise QueryError.index(f"Unknown Index: '{name}' does not exist")
        return root

    def _schema(self, name: str) -> Schema:
        with open(os.path.join(self._root(name), SCHEMA_FILE)) as f:
            return Schema.loads(f.read())

    def _searcher(self, name: str) -> Searcher:
        """The index's cached searcher, refreshed when the manifest's
        version moved. Every commit bumps it, the catalog's own writes
        and those made outside it alike (a job's merge + gc would
        otherwise leave it reading swept segments), so one small JSON
        read per search is an exact check where a file stat is not:
        inode numbers are reused and mtimes are coarse."""
        root = self._require(name)
        version = load_manifest(root)["version"]
        searcher = self._searchers.get(name)
        if searcher is not None and searcher.manifest["version"] == version:
            return searcher
        with self._mutex:  # consumed here, used or not: one write is held at most
            primed = self._primed.pop(name, None)
        if searcher is None:
            searcher = self._searchers[name] = Searcher(root, distributed=False)
        else:  # the segment of the latest append opens with its tables loaded
            searcher.refresh(primed)
        return searcher

    def _validate(self, schema: Schema, doc: dict) -> None:
        for k, v in doc.items():
            fdef = schema.field(k)
            if fdef is None:
                raise QueryError.execution(f"Unknown field: {k}")
            if fdef.type == "u64":
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    # bulk.rs:174-189: bad u64 fails the whole bulk
                    raise QueryError.json(f"invalid value: integer `{v}`, expected u64")
            elif fdef.type == "i64" and (not isinstance(v, int) or isinstance(v, bool)):
                raise QueryError.json(f"invalid type: {json.dumps(v)}, expected i64")
            elif fdef.type == "date":
                _utc_instant(v)
            elif fdef.type in ("text", "facet") and isinstance(v, (list, dict)):
                # a field holds one string; str(v) would index the repr
                kind = "sequence" if isinstance(v, list) else "map"
                raise QueryError.json(f"invalid type: {kind}, expected a string")

    def _append_docs(self, name: str, docs: list[dict]) -> dict | None:
        """Micro-segment append: docs → one new segment, built inside the
        commit so its doc ids come from the locked manifest. Its postings
        and docvalues tables are kept, keyed by the write's `write_id`,
        for the next refresh of the index's searcher (`_searcher`)."""
        if not docs:
            return None
        root = self._require(name)
        schema = self._schema(name)
        rows, given = {}, {}
        for f in schema.fields:
            vals = [d.get(f.name) for d in docs]
            if f.type == "date":  # the fast field holds the UTC instant
                given[f.name] = pa.array(vals, pa.string())
                vals = [None if v is None else _utc_instant(v) for v in vals]
            elif not f.is_numeric:
                vals = [None if v is None else str(v) for v in vals]
            rows[f.name] = pa.array(vals, f.arrow_type)

        written = None  # (write_id, postings, docvalues) of this append

        def append(manifest: dict) -> dict:
            nonlocal written
            # a merge that left no doc keeps its sources' high-water mark
            # in the manifest: ids of deleted docs are never reissued
            next_id = 1 + max([manifest.get("max_doc_id", -1)]
                              + [s["max_doc_id"] for s in manifest["segments"]])
            ids = pa.array(np.arange(next_id, next_id + len(docs), dtype=np.uint64))
            batch = pa.table({**rows, "doc_id": ids})  # ids replace any doc_id field
            postings, dv, store, meta = build_segment_tables(batch, schema)
            for f, col in given.items():  # the store keeps a date as the string given
                if f in store.column_names:
                    store = store.set_column(store.schema.get_field_index(f), f, col)
            # a fresh name per write: a failed commit's published directory
            # can never stand in for a later append of the same doc ids
            seg = f"seg-{next_id:012d}-{len(docs)}-{uuid.uuid4().hex[:8]}"
            meta = write_segment(os.path.join(root, SEGMENTS_DIR), postings, dv, store, meta, seg)
            manifest["segments"].append(meta)
            written = (meta["write_id"], postings, dv)
            return manifest

        manifest = commit(root, append)
        with self._mutex:
            self._primed[name] = written
        return manifest
