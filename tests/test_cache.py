"""On-disk cache: a write that fails partway never leaves a half-written
file, and what is written reads back unchanged."""

import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab import cache
from lslab.cli import EXIT_CACHE, EXIT_OK, main
from lslab.triangles import LEGENDRE, GammaParam, iter_triangle, triangle_record


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


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.integers(min_value=0, max_value=12),
        q=st.integers(min_value=1, max_value=12),
        n_max=st.integers(min_value=0, max_value=10),
    )
    def test_write_then_read(self, p, q, n_max):
        gamma = GammaParam(Fraction(p, q))
        with tempfile.TemporaryDirectory() as tmp:
            path = cache.cache_path(Path(tmp), gamma, n_max)
            lines = cache.write_cache(path, gamma, n_max)
            assert cache.read_cache(path, gamma, n_max) == lines
        assert lines == [triangle_record(*e) for e in iter_triangle(gamma, n_max)]


class TestDamagedFiles:
    """What `lslab table` does with a damaged cache file: it always prints
    the cold table, and exits 4 only when the file was corrupt."""

    N_MAX = 8

    def _table(self, tmp_path, capsys):
        argv = f"table --family legendre --n-max {self.N_MAX} --cache-dir {tmp_path}"
        code = main(argv.split())
        return code, capsys.readouterr().out

    def _damage(self, tmp_path, capsys, damage):
        cold_code, cold_out = self._table(tmp_path, capsys)
        path = cache.cache_path(tmp_path, LEGENDRE, self.N_MAX)
        intact = path.read_bytes()
        path.write_bytes(damage(intact))
        code, out = self._table(tmp_path, capsys)
        assert cold_code == EXIT_OK and out == cold_out
        assert path.read_bytes() == intact
        return code

    def test_empty_file_rebuilds_silently(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
        assert self._damage(tmp_path, capsys, lambda b: b"") == EXIT_OK

    def test_header_only_file_is_corrupt(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
        header_only = lambda b: b[: b.index(b"\n") + 1]
        assert self._damage(tmp_path, capsys, header_only) == EXIT_CACHE

    def test_missing_final_newline_is_corrupt(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
        assert self._damage(tmp_path, capsys, lambda b: b[:-1]) == EXIT_CACHE

    def test_non_object_header_is_corrupt(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
        assert self._damage(tmp_path, capsys, lambda b: b"[1]\n") == EXIT_CACHE
