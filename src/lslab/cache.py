"""On-disk triangle cache: the one owner of the table file format, and
the one source of what `lslab table` prints.

A cache file is JSON-lines: a header with schema version, family tag and
a sha256 over the data bytes, then one `triangle_record` per entry,
row-major.  One compiled pattern, RECORD, is the language of those
lines: `parse_record` reads one back strictly, and `checked_blocks`
checks and prints them in blocks of 128 KiB.  `write_cache`
writes one block per row of triangles.iter_triangle to a temporary file
under a zero-digest header, rewrites the header in place once the data
are hashed (a hex digest is always 64 characters, so no byte moves),
flushes, moves the file into place and returns it open at its first
record: a cold table is written and hashed once, and no reader sees a
half-written file.  `read_cache` returns an existing file, open at its
first record, only once its data bytes hash to the header's digest, and
raises CacheCorruptionError otherwise; callers rebuild the file (the CLI
does, and reports it in its exit code).  No table is held in memory."""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from .errors import CacheCorruptionError
from .triangles import FAMILIES, MAX_ROWS, format_entry, iter_triangle

SCHEMA_VERSION = 1


def resolve_cache_dir(explicit) -> Path:
    """An explicit directory first, then ~/.cache/lslab."""
    return Path(explicit) if explicit else Path.home() / ".cache" / "lslab"


# a named family's gamma is tagged with its name, any other as g{p}-{q}
_NAMES = {gamma: name for name, gamma in FAMILIES.items()}


def _gamma_tag(gamma: Fraction) -> str:
    return _NAMES.get(gamma) or f"g{gamma.numerator}-{gamma.denominator}"


def cache_path(cache_dir: Path, gamma: Fraction, n_max: int) -> Path:
    return Path(cache_dir) / f"triangle_{_gamma_tag(gamma)}_n{n_max}.jsonl"


def _header(gamma: Fraction, n_max: int, digest: str) -> bytes:
    return json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "family": _NAMES.get(gamma, "jacobi"),
            "gamma": str(gamma),
            "n_max": n_max,
            "sha256": digest,
        }
    ).encode() + b"\n"


def triangle_record(n: int, j: int, value) -> str:
    """One JSON-lines record of an entry, byte for byte what
    json.dumps({"n": n, "j": j, "value": format_entry(value)}) gives: the
    value is digits or 'p/q', which JSON does not escape."""
    return f'{{"n": {n}, "j": {j}, "value": "{format_entry(value)}"}}'


# Row indices stay below MAX_ROWS, so an index has at most this many
# digits, and int() never meets one longer than its str-digit limit.
_INDEX = rb"(0|[1-9][0-9]{0,%d})" % (len(str(MAX_ROWS - 1)) - 1)
# The one definition of the record language: exactly the lines
# `triangle_record` writes, digits as str(int) prints them and a fraction
# 'p/q' with p > 0 and q >= 2.
RECORD = re.compile(
    rb'\{"n": ' + _INDEX + rb', "j": ' + _INDEX
    + rb', "value": "(0|[1-9][0-9]*(?:/(?:[2-9]|[1-9][0-9]+))?)"\}'
)
_RECORDS = re.compile(rb"(?:" + RECORD.pattern + rb"\n)*")
# sre keeps about 0.7 KiB of backtracking state for each record a match
# has passed: 128 KiB blocks keep peak memory near a line reader's, where
# 1 MiB blocks added 6 MB, and larger blocks are no faster
BLOCK_SIZE = 1 << 17
# the bytes of a record that are not its three parts or a '/'
_RECORD_SYNTAX = b'{}": njvalue'


def _not_a_record(line: str) -> CacheCorruptionError:
    return CacheCorruptionError(f"not a triangle record: {line[:80]!r}")


def parse_record(line: str) -> tuple[int, int, str]:
    """(n, j, value text) of a `triangle_record` line, its strict inverse:
    CacheCorruptionError for any line outside the RECORD language.  The
    value is checked and returned as text, never converted to an int, so
    lowest terms ('4/2') go unchecked: they need the quadratic int(text)."""
    # a non-ASCII character becomes '?', which RECORD rejects
    match = RECORD.fullmatch(line.encode("ascii", "replace"))
    if match is None:
        raise _not_a_record(line)
    n, j, value = match.groups()
    return int(n), int(j), value.decode()


def checked_blocks(fp, csv: bool):
    """The records of fp, from its position on, as `lslab table` prints
    them, in blocks of about BLOCK_SIZE bytes: each block is read on to
    the end of its last line, checked with one match of RECORD lines,
    and yielded as text, whole for JSON or as 'n,j,value' lines for CSV
    (one bytes.translate deletes the record's syntax).  Blocks stop at
    the first line outside the language, with the CacheCorruptionError
    parse_record raises for it; the lines before it are yielded."""
    for block in iter(lambda: fp.read(BLOCK_SIZE), b""):
        block += fp.readline()
        end = _RECORDS.match(block).end()
        checked = block[:end]
        yield (checked.translate(None, _RECORD_SYNTAX) if csv else checked).decode("ascii")
        if end < len(block):
            raise _not_a_record(block[end:].partition(b"\n")[0].decode("ascii", "replace"))


def write_cache(path: Path, gamma: Fraction, n_max: int):
    """Write the table to path and return it open in binary mode at its
    first record, for the caller to close; a failed write leaves path as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    fp = os.fdopen(fd, "w+b")
    try:
        fp.write(_header(gamma, n_max, "0" * 64))
        digest = hashlib.sha256()
        for n, row in iter_triangle(gamma, n_max):
            block = "".join(triangle_record(n, j, v) + "\n" for j, v in enumerate(row)).encode()
            digest.update(block)
            fp.write(block)
        fp.seek(0)
        fp.write(_header(gamma, n_max, digest.hexdigest()))  # ends at the first record
        fp.flush()
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)  # first, in case closing fails to flush
        fp.close()
        raise
    return fp


def _matches(fp, path: Path, gamma: Fraction, n_max: int) -> bool:
    """Whether the header of fp is this table's, leaving fp at the first
    record; CacheCorruptionError when it is and the data bytes do not
    hash to its digest or their last line has no newline."""
    first = fp.readline()
    if not first:
        return False
    try:
        header = json.loads(first.decode())
    except ValueError:  # not UTF-8, or not JSON
        header = None
    if not isinstance(header, dict):
        raise CacheCorruptionError(f"unreadable header in {path}")
    wanted = {"schema": SCHEMA_VERSION, "gamma": str(gamma), "n_max": n_max}
    if any(header.get(key) != value for key, value in wanted.items()):
        return False
    # the last byte first: a cut file is refused before any byte is hashed
    start, end = fp.tell(), fp.seek(0, os.SEEK_END)
    if end > start:
        fp.seek(end - 1)
        if fp.read(1) != b"\n":
            raise CacheCorruptionError(f"truncated last line in {path}")
    fp.seek(start)
    digest = hashlib.sha256()
    for block in iter(lambda: fp.read(1 << 20), b""):
        digest.update(block)
    if digest.hexdigest() != header.get("sha256"):
        raise CacheCorruptionError(f"content hash mismatch in {path}")
    fp.seek(start)
    return True


def read_cache(path: Path, gamma: Fraction, n_max: int):
    """The cache file, open in binary mode at its first record, once its
    data bytes hashed to its header's digest; None when it is absent,
    empty or of another schema, gamma or n_max; CacheCorruptionError
    otherwise.  The caller closes the file."""
    try:
        fp = open(path, "rb")
    except FileNotFoundError:
        return None
    matched = False
    try:
        matched = _matches(fp, path, gamma, n_max)
    finally:
        if not matched:
            fp.close()
    return fp if matched else None


def load_or_build(gamma: Fraction, n_max: int, cache_dir: Path):
    """(open cache file, from_cache, was_corrupted).  A missing,
    incompatible or corrupted file is rewritten, and the handle the
    writer returns is the one served: the table is not read back."""
    path = cache_path(cache_dir, gamma, n_max)
    try:
        source, corrupted = read_cache(path, gamma, n_max), False
    except CacheCorruptionError:
        source, corrupted = None, True
    if source is not None:
        return source, True, False
    return write_cache(path, gamma, n_max), False, corrupted
