"""HTTP router e2e — the analogue of the reference's router+client test
(`toshi-server/tests/lib.rs:16-33`, route table `router.rs:52-74`):
bind the router to a real socket, drive it with an HTTP client, and
exercise every route against a live IndexCatalog."""

import json
import urllib.error
import urllib.request

import pytest

from toshi_ray.api import IndexCatalog
from toshi_ray.server import ToshiRayServer

SCHEMA = [
    {"name": "doc_id", "type": "u64",
     "options": {"indexed": True, "stored": True, "fast": True}},
    {"name": "text", "type": "text",
     "options": {"indexing": {"record": "position", "tokenizer": "default"},
                 "stored": True}},
]


def _req(method, url, body=None):
    data = None
    if body is not None:
        data = body.encode() if isinstance(body, str) else json.dumps(body).encode()
    r = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(r, timeout=30) as resp:
        return resp.status, json.loads(resp.read() or b"null")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cat = IndexCatalog(str(tmp_path_factory.mktemp("http_cat")))
    with ToshiRayServer(cat) as srv:
        yield srv


def test_root_banner(server):
    status, body = _req("GET", server.addr + "/")
    assert status == 200
    assert body["name"] == "toshi-ray" and "version" in body


def test_full_http_flow(server, ray_session):
    base = server.addr
    # create
    status, body = _req("PUT", f"{base}/httpidx/_create", SCHEMA)
    assert status == 201 and body == {"created": "httpidx"}
    # duplicate create → reference-format error
    with pytest.raises(urllib.error.HTTPError) as e:
        _req("PUT", f"{base}/httpidx/_create", SCHEMA)
    assert e.value.code == 400
    assert json.loads(e.value.read())["message"] == \
        "Error in Index: 'Index httpidx already exists'"
    # list
    assert _req("GET", f"{base}/_list")[1] == ["httpidx"]
    # add single docs (PUT /{idx})
    for i, txt in enumerate(["hello world", "hello ray data", "unrelated text"]):
        status, _ = _req("PUT", f"{base}/httpidx",
                         {"document": {"doc_id": i, "text": txt}})
        assert status == 201
    # search (POST /{idx})
    status, res = _req("POST", f"{base}/httpidx",
                       {"query": {"term": {"text": "hello"}}, "limit": 10})
    assert status == 200 and res["hits"] == 2
    ids = sorted(d["doc"]["doc_id"] for d in res["docs"])
    assert ids == [0, 1]
    # ?pretty serves the INDENTED JSON rendering (reference
    # QueryOptions); over the wire it parses to the same payload
    r = urllib.request.Request(f"{base}/httpidx?pretty=true",
                               data=json.dumps({"query": {"term": {"text": "hello"}},
                                                "limit": 10}).encode(),
                               method="POST")
    with urllib.request.urlopen(r, timeout=30) as resp:
        raw = resp.read().decode()
        assert resp.status == 200
    assert raw.startswith("{\n")  # indented rendering, not compact JSON
    assert json.loads(raw)["hits"] == 2
    # all docs (GET /{idx})
    status, res = _req("GET", f"{base}/httpidx")
    assert status == 200 and res["hits"] == 3
    # summary
    status, summ = _req("GET", f"{base}/httpidx/_summary?include_sizes=true")
    assert status == 200
    assert summ["summaries"]["num_docs"] == 3
    assert all(v > 0 for v in summ["summaries"].get("segment_sizes", {1: 1}).values())
    # bulk (POST /{idx}/_bulk, NDJSON)
    nd = "\n".join(json.dumps({"doc_id": 10 + i, "text": f"bulk doc {i}"})
                   for i in range(3))
    status, body = _req("POST", f"{base}/httpidx/_bulk", nd)
    assert status == 201
    # flush
    status, _ = _req("GET", f"{base}/httpidx/_flush")
    assert status == 200
    status, res = _req("GET", f"{base}/httpidx")
    assert res["hits"] == 6
    # delete by term (DELETE /{idx})
    status, body = _req("DELETE", f"{base}/httpidx", {"text": "unrelated"})
    assert status == 200 and body["docs_affected"] == 1
    status, res = _req("POST", f"{base}/httpidx",
                       {"query": {"term": {"text": "unrelated"}}, "limit": 10})
    assert res["hits"] == 0


def test_bulk_rollback_over_the_wire(server, ray_session):
    """A bad row anywhere in an HTTP bulk must fail the WHOLE request
    with the reference-format error and leave nothing visible."""
    base = server.addr
    _req("PUT", f"{base}/rollidx/_create", SCHEMA)
    _req("PUT", f"{base}/rollidx", {"document": {"doc_id": 0, "text": "seed doc"}})
    nd = "\n".join([
        json.dumps({"doc_id": 1, "text": "fine"}),
        json.dumps({"doc_id": -5, "text": "negative u64"}),
    ])
    with pytest.raises(urllib.error.HTTPError) as e:
        _req("POST", f"{base}/rollidx/_bulk", nd)
    assert e.value.code == 400
    msg = json.loads(e.value.read())["message"]
    assert "expected u64" in msg
    status, res = _req("GET", f"{base}/rollidx")
    assert res["hits"] == 1  # only the seed doc; nothing from the bulk


def test_not_found_routes(server):
    for method, path in [("GET", "/favicon.ico"), ("PATCH", "/httpidx"),
                         ("GET", "/a/b/c")]:
        with pytest.raises(urllib.error.HTTPError) as e:
            _req(method, server.addr + path)
        assert e.value.code in (404, 501)


def test_search_error_shape(server, ray_session):
    with pytest.raises(urllib.error.HTTPError) as e:
        _req("POST", server.addr + "/httpidx",
             {"query": {"term": {"nofield": "x"}}, "limit": 5})
    assert e.value.code == 400
    msg = json.loads(e.value.read())["message"]
    assert msg.startswith("Error in query execution:")


def test_bad_search_body_is_400_not_500(server, ray_session):
    """A body serde would refuse (a negative limit, a list body, a list
    of facets) is a client error with the reference's message."""
    _req("PUT", server.addr + "/bodyidx/_create", SCHEMA)
    _req("PUT", server.addr + "/bodyidx", {"document": {"doc_id": 0, "text": "hello"}})
    for body, error in [({"limit": -1}, "invalid value: integer `-1`, expected usize"),
                        ([], "invalid type: sequence, expected struct Search"),
                        ({"facets": ["text"]}, "invalid type: sequence, expected a map")]:
        with pytest.raises(urllib.error.HTTPError) as e:
            _req("POST", server.addr + "/bodyidx", body)
        assert e.value.code == 400
        assert json.loads(e.value.read())["message"] == f"Error Parsing Json: '{error}'"


def test_client_roundtrip(server, ray_session):
    """ToshiClient drives the live router end-to-end (the reference's
    client+router test, lib.rs:16-33, with the full CRUD flow)."""
    from toshi_ray.client import ToshiClient, ToshiClientError

    c = ToshiClient(server.addr)
    assert c.index()["name"] == "toshi-ray"
    c.create_index("cliidx", SCHEMA)
    assert "cliidx" in c.list()
    c.add_document("cliidx", {"doc_id": 1, "text": "hello client world"})
    c.add_document("cliidx", {"doc_id": 2, "text": "another document"},
                   options={"commit": True})
    r = c.search("cliidx", {"query": {"term": {"text": "hello"}}, "limit": 5})
    # doc ids are INTERNAL insertion-order (T4, tantivy semantics) —
    # the first added doc is 0 regardless of any user-supplied value
    assert r["hits"] == 1 and r["docs"][0]["doc"]["doc_id"] == 0
    assert "hello" in r["docs"][0]["doc"]["text"]
    assert c.all_docs("cliidx")["hits"] == 2
    c.bulk_insert("cliidx", json.dumps({"doc_id": 3, "text": "bulk doc"}))
    c.flush("cliidx")
    assert c.all_docs("cliidx")["hits"] == 3
    assert c.index_summary("cliidx", include_sizes=True)["summaries"]["num_docs"] == 3
    assert c.delete_term("cliidx", {"text": "bulk"})["docs_affected"] == 1
    with pytest.raises(ToshiClientError) as e:
        c.create_index("cliidx", SCHEMA)
    assert e.value.status == 400
    assert e.value.message == "Error in Index: 'Index cliidx already exists'"
