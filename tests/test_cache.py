"""On-disk cache: a write that fails partway never leaves a half-written file."""

import os

import pytest

from lslab import cache
from lslab.triangles import LEGENDRE


def _fail_after_writes(monkeypatch, allowed: int):
    """Make files opened by os.fdopen raise on the write after `allowed`."""
    real_fdopen = os.fdopen

    def fdopen(fd, *args, **kwargs):
        fp = real_fdopen(fd, *args, **kwargs)
        real_write = fp.write
        count = 0

        def write(text):
            nonlocal count
            count += 1
            if count > allowed:
                raise OSError("simulated disk full")
            return real_write(text)

        fp.write = write
        return fp

    monkeypatch.setattr(cache.os, "fdopen", fdopen)


class TestAtomicWrite:
    def test_failed_rewrite_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = cache.cache_path(tmp_path, LEGENDRE, 8)
        lines = cache.write_cache(path, LEGENDRE, 8)
        before = path.read_bytes()
        path.write_bytes(before[: len(before) // 2])  # a corrupt file to rebuild
        earlier = path.read_bytes()
        _fail_after_writes(monkeypatch, allowed=5)
        with pytest.raises(OSError, match="simulated"):
            cache.write_cache(path, LEGENDRE, 8)
        assert path.read_bytes() == earlier
        assert sorted(tmp_path.iterdir()) == [path]
        monkeypatch.undo()
        assert cache.load_or_build(LEGENDRE, 8, tmp_path) == (lines, False, True)
        assert path.read_bytes() == before

    def test_failed_first_write_leaves_no_file(self, tmp_path, monkeypatch):
        path = cache.cache_path(tmp_path, LEGENDRE, 8)
        _fail_after_writes(monkeypatch, allowed=5)
        with pytest.raises(OSError, match="simulated"):
            cache.write_cache(path, LEGENDRE, 8)
        assert list(tmp_path.iterdir()) == []
