"""Thin HTTP router over IndexCatalog — the wire surface of the engine.

Route table mirrors the reference router exactly
(`toshi-server/src/router.rs:52-74`):

    GET    /                     → service banner (handlers/root.rs)
    GET    /_list                → list indexes
    PUT    /{idx}/_create        → create index (schema JSON body)
    GET    /{idx}/_summary       → summary (?include_sizes=true)
    GET    /{idx}/_flush         → flush pending writes
    POST   /{idx}/_bulk          → NDJSON bulk ingest
    POST   /{idx}                → search (JSON body; ?pretty=true)
    PUT    /{idx}                → add single document
    DELETE /{idx}                → delete by term
    GET    /{idx}                → all docs (favicon.ico → 404)
    *                            → 404

Implementation is the stdlib ThreadingHTTPServer — the engine work all
lives in `toshi_ray.api.IndexCatalog`; this module only parses paths /
query options and maps QueryError to the reference's error JSON shape
(`{"message": ...}`, like toshi-types' ErrorResponse).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from toshi_ray.api import IndexCatalog, json_default
from toshi_ray.query import QueryError


def _truthy(qs: dict, key: str) -> bool:
    v = qs.get(key, ["false"])[-1].lower()
    return v in ("", "true", "1", "yes")


class _Handler(BaseHTTPRequestHandler):
    catalog: IndexCatalog  # set by make_server

    # ---- plumbing ----
    def log_message(self, fmt, *args):  # tests stay quiet
        pass

    def _body(self) -> bytes:
        n = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(n) if n else b""

    def _send(self, status: int, payload) -> None:
        body = (
            payload.encode() if isinstance(payload, str)
            else json.dumps(payload, default=json_default).encode()
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        qs = parse_qs(url.query)
        cat = self.catalog
        try:
            match (method, parts):
                case ("GET", []):
                    self._send(200, cat.root())
                case ("GET", ["_list"]):
                    self._send(200, cat.list_indexes())
                case ("PUT", [idx, "_create"]):
                    self._send(201, cat.create_index(idx, json.loads(self._body())))
                case ("GET", [idx, "_summary"]):
                    self._send(
                        200,
                        cat.index_summary(idx, include_sizes=_truthy(qs, "include_sizes")),
                    )
                case ("GET", [idx, "_flush"]):
                    self._send(200, cat.flush(idx))
                case ("POST", [idx, "_bulk"]):
                    self._send(201, cat.bulk_insert(idx, self._body().decode()))
                case ("POST", [idx]):
                    out = cat.search(idx, json.loads(self._body()),
                                     pretty=_truthy(qs, "pretty"))
                    self._send(200, out)
                case ("PUT", [idx]):
                    self._send(201, cat.add_document(idx, json.loads(self._body())))
                case ("DELETE", [idx]):
                    self._send(200, cat.delete_term(idx, json.loads(self._body())))
                case ("GET", ["favicon.ico"]):
                    self._send(404, {"message": "Not found"})
                case ("GET", [idx]):
                    self._send(200, cat.all_docs(idx))
                case _:
                    self._send(404, {"message": "Not found"})
        except QueryError as e:
            # reference error body shape: {"message": "..."}
            self._send(400, {"message": str(e)})
        except json.JSONDecodeError as e:
            self._send(400, {"message": f"Error Parsing Json: '{e}'"})
        except Exception as e:  # pragma: no cover — unexpected
            self._send(500, {"message": str(e)})

    def do_GET(self):
        self._dispatch("GET")

    def do_PUT(self):
        self._dispatch("PUT")

    def do_POST(self):
        self._dispatch("POST")

    def do_DELETE(self):
        self._dispatch("DELETE")


class ToshiRayServer:
    """Serve an IndexCatalog over HTTP (loopback by default).

    Like the reference's `router_with_catalog`, the server owns no
    engine state — it routes to the catalog. Use as a context manager
    in tests: the port is ephemeral (`addr` reports the bound one).
    """

    def __init__(self, catalog: IndexCatalog, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_Handler,), {"catalog": catalog})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def addr(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ToshiRayServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def __enter__(self) -> "ToshiRayServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
