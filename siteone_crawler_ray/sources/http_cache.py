"""HTTP disk cache — the reference's response cache re-expressed.

Re-derivation of the reference engine's src/engine/http_client.rs:111-409
(--http-cache-dir / --http-cache-ttl / --http-cache-compression):

- key: ``{host}-{port}/{md5[:2]}/{md5}{.ext}`` where md5 hashes the
  request args in order (http_client.rs:401-409),
- file: JSON ``{url, status_code, body: base64|null, headers,
  exec_time}`` with extension ``.cache`` or ``.cache.gz`` when
  compression is on,
- TTL: file mtime age > ttl ⇒ miss,
- error statuses (429/500/502/503 and transport codes -1…-4) are
  stored but never *served* from cache (http_client.rs:271-274),
- legacy bodies that are not valid base64 fall back to raw UTF-8
  bytes (http_client.rs:283-289).

In corpus mode the crawl's fetch is a deterministic local lookup, so
the cache is not in the hot path; ``CachedFetcher`` wraps any per-URL
fetch callable (the real-HTTP backend of the worker's injectable
fetcher seam) with the identical hit/miss/store policy.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class CachedResponse:
    url: str
    status_code: int
    body: bytes | None = None
    headers: dict = field(default_factory=dict)
    exec_time: float = 0.0


# statuses never served from cache (http_client.rs:271-274)
_NO_SERVE = {429, 500, 502, 503, -1, -2, -3, -4}


class HttpDiskCache:
    def __init__(self, cache_dir: str, ttl: float | None = None,
                 compression: bool = False):
        self.cache_dir = cache_dir
        self.ttl = ttl
        self.compression = compression

    # -- key / path ---------------------------------------------------------
    @staticmethod
    def cache_key(host: str, port: int, args: list[str],
                  extension: str | None = None) -> str:
        """http_client.rs:401-409 layout."""
        h = hashlib.md5()
        for a in args:
            h.update(a.encode())
        md5 = h.hexdigest()
        ext = f".{extension}" if extension else ""
        return f"{host}-{port}/{md5[:2]}/{md5}{ext}"

    def _path(self, key: str) -> str:
        ext = ".cache.gz" if self.compression else ".cache"
        return os.path.join(self.cache_dir, key + ext)

    # -- read / write -------------------------------------------------------
    def get(self, key: str) -> CachedResponse | None:
        path = self._path(key)
        if not os.path.isfile(path):
            return None
        if self.ttl is not None:
            try:
                if time.time() - os.path.getmtime(path) > self.ttl:
                    return None
            except OSError:
                return None
        try:
            with open(path, "rb") as f:
                data = f.read()
            if self.compression:
                data = gzip.decompress(data)
            cached = json.loads(data.decode())
        except (OSError, json.JSONDecodeError, gzip.BadGzipFile, UnicodeDecodeError):
            return None
        if cached.get("status_code") in _NO_SERVE:
            return None
        body = cached.get("body")
        if body is not None:
            try:
                body = base64.b64decode(body, validate=True)
            except Exception:
                body = body.encode()  # legacy raw-UTF-8 cache format
        return CachedResponse(
            url=cached.get("url", ""),
            status_code=int(cached.get("status_code", 0)),
            body=body,
            headers=dict(cached.get("headers", {})),
            exec_time=float(cached.get("exec_time", 0.0)),
        )

    def put(self, key: str, resp: CachedResponse) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "url": resp.url,
            "status_code": resp.status_code,
            "body": (base64.b64encode(resp.body).decode()
                     if resp.body is not None else None),
            "headers": resp.headers,
            "exec_time": resp.exec_time,
        }
        data = json.dumps(payload).encode()
        if self.compression:
            data = gzip.compress(data)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)


def _split_url(url: str) -> tuple[str, int, str, str | None]:
    from urllib.parse import urlsplit

    sp = urlsplit(url)
    port = sp.port or (443 if sp.scheme == "https" else 80)
    path = sp.path or "/"
    if sp.query:
        path += "?" + sp.query
    ext = None
    base = sp.path.rsplit("/", 1)[-1]
    if "." in base:
        e = base.rsplit(".", 1)[-1].lower()
        if e.isalnum() and len(e) <= 10:
            ext = e
    return sp.hostname or "", port, path, ext


class CachedFetcher:
    """Wrap a per-URL fetch callable with the disk-cache policy: serve
    fresh non-error hits, store every result (errors included — they
    are just never served)."""

    def __init__(self, inner, cache: HttpDiskCache):
        self.inner = inner
        self.cache = cache
        self.hits = 0
        self.misses = 0

    def __call__(self, url: str) -> CachedResponse:
        host, port, path, ext = _split_url(url)
        key = self.cache.cache_key(host, port, [path], ext)
        hit = self.cache.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        resp = self.inner(url)
        self.cache.put(key, resp)
        return resp
