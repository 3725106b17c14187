"""Segment-store storage shim — the seam between the index pipelines
and the filesystem.

Every durable-publish primitive the segment store relies on funnels
through this module, so pointing the engine at a shared object store is
one backend swap instead of a hunt through build/merge/segments:

- ``publish_file(tmp, final)``: atomic single-file publish. POSIX:
  ``os.replace``. Object stores: a PUT is already atomic — upload
  ``final`` then delete ``tmp``.
- ``publish_dir(tmp, final, marker)``: atomic publish of a fully
  written temp directory; the segment becomes visible all-or-nothing.
  POSIX: ``os.rename``. Object stores have no directories — write all
  objects under the final prefix, then write ``marker`` (the segment
  meta) LAST: readers only discover a segment via its marker/manifest,
  so the marker write is the commit point. Losing the race to an
  identical twin (same content-derived name) is not an error.
- ``link_or_copy(src, dst)``: tombstone-free merges reuse side files
  without rewriting them. POSIX: hard link, falling back to copy
  across devices. Object stores: server-side copy.
- ``lock(index_root)``: the writer lock every manifest commit
  (``pipelines.build.commit``) holds. POSIX: ``flock`` on ``.lock`` in
  the index root — each call opens its own file description, so it
  excludes other threads and processes alike, and dies with its holder;
  it is not re-entrant. Object stores: a conditional PUT of the manifest
  on the version it read, re-read and retried on a precondition failure.

Backend selection is process-local (``set_storage``); Ray workers get
the module default, so a cluster deployment selects its backend at
import time (e.g. an env var consulted here), not per-call.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import shutil


class LocalFileStorage:
    """POSIX-filesystem backend: atomic renames + hard links."""

    def publish_file(self, tmp: str, final: str) -> None:
        """Atomically publish a fully written temp file."""
        os.replace(tmp, final)

    def publish_dir(self, tmp: str, final: str, marker: str) -> bool:
        """Atomically publish a fully written temp directory.

        Returns False when an identical twin already published
        ``final`` (detected by ``marker`` existing there) — the caller
        discards its temp dir and adopts the published one. Any other
        rename failure re-raises: silently dropping a segment is data
        loss.
        """
        try:
            os.rename(tmp, final)
            return True
        except OSError:
            if os.path.exists(os.path.join(final, marker)):
                shutil.rmtree(tmp, ignore_errors=True)
                return False
            raise

    def link_or_copy(self, src: str, dst: str) -> None:
        """Reuse an immutable file without rewriting it."""
        try:
            os.link(src, dst)
        except OSError:  # cross-device / link-less filesystem
            shutil.copyfile(src, dst)

    @contextlib.contextmanager
    def lock(self, index_root: str):
        """Hold the index's exclusive writer lock for the block."""
        fd = os.open(os.path.join(index_root, ".lock"), os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the description releases the flock


class CopyOnlyStorage(LocalFileStorage):
    """Object-store-shaped backend for testing the degraded path:
    no hard links (S3-style stores only copy)."""

    def link_or_copy(self, src: str, dst: str) -> None:
        shutil.copyfile(src, dst)


_backend: LocalFileStorage = LocalFileStorage()


def get_storage() -> LocalFileStorage:
    return _backend


def set_storage(backend: LocalFileStorage) -> LocalFileStorage:
    """Swap the process-local backend; returns the previous one."""
    global _backend
    prev = _backend
    _backend = backend
    return prev
