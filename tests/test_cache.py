"""On-disk cache: records render as json.dumps would and parse back
strictly, a write that fails partway never leaves a half-written file,
no file with a placeholder digest is ever moved into place, what is
written reads back unchanged, a cold build is not read back, a record
longer than a block prints whole, and a damaged file is rebuilt."""

import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab import cache
from lslab.cli import EXIT_CACHE, EXIT_OK, main
from lslab.cache import parse_record, triangle_record
from lslab.triangles import CHEBYSHEV, GAMMA_ZERO, LEGENDRE, format_entry, iter_triangle


def _entries(gamma, n_max):
    """(n, j, value) of the exported rows, row-major."""
    return [(n, j, v) for n, row in iter_triangle(gamma, n_max) for j, v in enumerate(row)]


class TestRecords:
    def test_record_is_json_dumps_and_parses_back(self):
        entries = [*_entries(LEGENDRE, 8), *_entries(Fraction(2, 3), 8),
                   (7, 3, 10**60), (0, 0, Fraction(10**40 + 1, 3))]
        for n, j, value in entries:
            line = triangle_record(n, j, value)
            assert line == json.dumps({"n": n, "j": j, "value": format_entry(value)})
            assert parse_record(line) == (n, j, format_entry(value))


class TestFamilyTags:
    def test_file_names_and_header_families(self, tmp_path):
        """A named family's gamma is tagged with its name in the file name
        and the header; any other gamma is g{p}-{q}, of family jacobi."""
        for gamma, tag, family in [
            (LEGENDRE, "legendre", "legendre"),
            (CHEBYSHEV, "chebyshev", "chebyshev"),
            (GAMMA_ZERO, "gamma-zero", "gamma-zero"),
            (Fraction(7, 3), "g7-3", "jacobi"),
        ]:
            path = cache.cache_path(tmp_path, gamma, 2)
            assert path.name == f"triangle_{tag}_n2.jsonl"
            cache.write_cache(path, gamma, 2).close()
            with open(path, "rb") as fp:
                header = json.loads(fp.readline())
            assert (header["family"], header["gamma"]) == (family, str(gamma))


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
    """Legendre to n = 8 is 9 rows, so a write makes 11 calls to
    fp.write: the header with a zero digest, one block of records per
    row, and the header rewritten in place.  Failing at the first, a
    middle and the last of them leaves the earlier file and no temporary
    file."""

    FAILING_WRITES = (0, 5, 10)

    def test_failed_rewrite_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = cache.cache_path(tmp_path, LEGENDRE, 8)
        cache.write_cache(path, LEGENDRE, 8).close()
        before = path.read_bytes()
        path.write_bytes(before[: len(before) // 2])  # a corrupt file to rebuild
        earlier = path.read_bytes()
        for allowed in self.FAILING_WRITES:
            _fail_after_writes(monkeypatch, allowed)
            with pytest.raises(OSError, match="simulated"):
                cache.write_cache(path, LEGENDRE, 8)
            assert path.read_bytes() == earlier
            assert sorted(tmp_path.iterdir()) == [path]
            monkeypatch.undo()
        source, from_cache, corrupted = cache.load_or_build(LEGENDRE, 8, tmp_path)
        with source:
            assert (from_cache, corrupted) == (False, True)
            assert source.read() == before[before.index(b"\n") + 1:]
        assert path.read_bytes() == before

    def test_failed_first_write_leaves_no_file(self, tmp_path, monkeypatch):
        path = cache.cache_path(tmp_path, LEGENDRE, 8)
        for allowed in self.FAILING_WRITES:
            _fail_after_writes(monkeypatch, allowed)
            with pytest.raises(OSError, match="simulated"):
                cache.write_cache(path, LEGENDRE, 8)
            assert list(tmp_path.iterdir()) == []
            monkeypatch.undo()

    def test_zero_digest_never_in_place(self, tmp_path, monkeypatch):
        real_replace = os.replace
        placed = []

        def replace(src, dst):
            with open(src, "rb") as fp:
                placed.append(json.loads(fp.readline())["sha256"])
            return real_replace(src, dst)

        monkeypatch.setattr(cache.os, "replace", replace)
        path = cache.cache_path(tmp_path, LEGENDRE, 8)
        cache.write_cache(path, LEGENDRE, 8).close()
        header, data = path.read_bytes().split(b"\n", 1)
        assert placed == [json.loads(header)["sha256"]] == [hashlib.sha256(data).hexdigest()]


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.integers(min_value=0, max_value=12),
        q=st.integers(min_value=1, max_value=12),
        n_max=st.integers(min_value=0, max_value=10),
    )
    def test_write_then_read(self, p, q, n_max):
        gamma = Fraction(p, q)
        with tempfile.TemporaryDirectory() as tmp:
            path = cache.cache_path(Path(tmp), gamma, n_max)
            with cache.write_cache(path, gamma, n_max) as fp:
                written = fp.read()
            with cache.read_cache(path, gamma, n_max) as fp:
                assert fp.read() == written
        assert written.decode().splitlines() == [
            triangle_record(*e) for e in _entries(gamma, n_max)
        ]

    def test_cold_build_is_not_read_back(self, tmp_path, monkeypatch):
        """A miss reads the path once, finds nothing, and serves the
        writer's handle: exactly the file's bytes after its header."""
        reads = []
        real_read = cache.read_cache

        def read_cache(*args):
            reads.append(args)
            return real_read(*args)

        monkeypatch.setattr(cache, "read_cache", read_cache)
        source, from_cache, corrupted = cache.load_or_build(LEGENDRE, 8, tmp_path)
        with source:
            assert (from_cache, corrupted) == (False, False)
            served = source.read()
        assert len(reads) == 1
        data = cache.cache_path(tmp_path, LEGENDRE, 8).read_bytes()
        assert served == data[data.index(b"\n") + 1:]


class TestCheckedBlocks:
    def test_record_longer_than_block_prints_whole(self, monkeypatch):
        """Blocks of 16 bytes are shorter than every record: each block is
        read on to its newline, so each record prints whole, one a block."""
        monkeypatch.setattr(cache, "BLOCK_SIZE", 16)
        entries = [(0, 0, 1), (1, 1, 7**3000), (2, 1, Fraction(10**50 + 1, 3))]
        lines = [triangle_record(*e) + "\n" for e in entries]
        printed = list(cache.checked_blocks(io.BytesIO("".join(lines).encode()), csv=False))
        assert printed == [line.encode() for line in lines]
        printed = list(cache.checked_blocks(io.BytesIO("".join(lines).encode()), csv=True))
        assert printed == [f"{n},{j},{format_entry(v)}\n".encode() for n, j, v in entries]


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

    def test_empty_file_rebuilds_silently(self, tmp_path, capsys):
        assert self._damage(tmp_path, capsys, lambda b: b"") == EXIT_OK

    def test_header_only_file_is_corrupt(self, tmp_path, capsys):
        header_only = lambda b: b[: b.index(b"\n") + 1]
        assert self._damage(tmp_path, capsys, header_only) == EXIT_CACHE

    def test_missing_final_newline_is_corrupt(self, tmp_path, capsys):
        assert self._damage(tmp_path, capsys, lambda b: b[:-1]) == EXIT_CACHE

    def test_cut_file_is_refused_before_hashing(self, tmp_path, monkeypatch):
        # cut inside a record halfway through the data, as the benchmark's
        # corrupt-cache op does; the spy counts the bytes given to sha256
        path = cache.cache_path(tmp_path, LEGENDRE, 60)
        cache.write_cache(path, LEGENDRE, 60).close()
        intact = path.read_bytes()
        fed, real = [], hashlib.sha256

        class CountingSha256:
            def __init__(self):
                self.digest = real()

            def update(self, data):
                fed.append(len(data))
                self.digest.update(data)

            def hexdigest(self):
                return self.digest.hexdigest()

        monkeypatch.setattr(cache.hashlib, "sha256", CountingSha256)
        cache.read_cache(path, LEGENDRE, 60).close()
        assert sum(fed) == len(intact) - intact.index(b"\n") - 1
        path.write_bytes(intact[: intact.index(b"\n", len(intact) // 2)])
        fed.clear()
        with pytest.raises(cache.CacheCorruptionError, match="^truncated last line in "):
            cache.read_cache(path, LEGENDRE, 60)
        assert fed == []

    def test_empty_data_section_is_decided_by_the_digest(self, tmp_path):
        # a header alone has no last data byte to test, so its digest
        # decides, as when every data byte was hashed first
        path = cache.cache_path(tmp_path, LEGENDRE, 60)
        cache.write_cache(path, LEGENDRE, 60).close()
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(cache.CacheCorruptionError, match="^content hash mismatch in "):
            cache.read_cache(path, LEGENDRE, 60)
        header["sha256"] = hashlib.sha256(b"").hexdigest()
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with cache.read_cache(path, LEGENDRE, 60) as fp:
            assert fp.read() == b""

    def test_non_object_header_is_corrupt(self, tmp_path, capsys):
        assert self._damage(tmp_path, capsys, lambda b: b"[1]\n") == EXIT_CACHE

    def test_non_utf8_value_is_corrupt(self, tmp_path, capsys):
        bad_value = lambda b: b.replace(b'"value": "8"', b'"value": "\xff"', 1)
        assert self._damage(tmp_path, capsys, bad_value) == EXIT_CACHE

    def test_non_utf8_header_is_corrupt(self, tmp_path, capsys):
        bad_header = lambda b: b.replace(b"legendre", b"legen\xffre", 1)
        assert self._damage(tmp_path, capsys, bad_header) == EXIT_CACHE
