"""On-disk triangle cache: the one owner of the table file format, and
the one source of what `lslab table` prints.

A cache file is JSON-lines: a header with schema version, family tag and
a sha256 over the data bytes, then one `triangle_record` per entry,
row-major, which `parse_record` reads back strictly.  `write_cache`
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
import tempfile
from pathlib import Path

from .errors import CacheCorruptionError
from .triangles import GammaParam, format_entry, iter_triangle

SCHEMA_VERSION = 1


def resolve_cache_dir(explicit) -> Path:
    """An explicit directory first, then ~/.cache/lslab."""
    return Path(explicit) if explicit else Path.home() / ".cache" / "lslab"


def _gamma_tag(gamma: GammaParam) -> str:
    if gamma.family:
        return gamma.family
    v = gamma.value
    return f"g{v.numerator}-{v.denominator}"


def cache_path(cache_dir: Path, gamma: GammaParam, n_max: int) -> Path:
    return Path(cache_dir) / f"triangle_{_gamma_tag(gamma)}_n{n_max}.jsonl"


def _header(gamma: GammaParam, n_max: int, digest: str) -> bytes:
    return json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "family": gamma.family or "jacobi",
            "gamma": str(gamma.value),
            "n_max": n_max,
            "sha256": digest,
        }
    ).encode() + b"\n"


def triangle_record(n: int, j: int, value) -> str:
    """One JSON-lines record of an entry, byte for byte what
    json.dumps({"n": n, "j": j, "value": format_entry(value)}) gives: the
    value is digits or 'p/q', which JSON does not escape."""
    return f'{{"n": {n}, "j": {j}, "value": "{format_entry(value)}"}}'


def _is_number(text: str) -> bool:
    """ASCII digits without a leading zero, as str(int) prints a
    non-negative integer.  bytes.isdigit reads ASCII only and is several
    times faster than str.isdigit on long values."""
    return text.isascii() and text.encode().isdigit() and (text[0] != "0" or text == "0")


def parse_record(line: str) -> tuple[int, int, str]:
    """(n, j, value text) of a `triangle_record` line, its strict inverse:
    CacheCorruptionError for a line that differs in any byte from the
    record of its own (n, j, value), whose parts are not digits as
    str(int) prints them, or whose fraction 'p/q' has q < 2 or p = 0.  The
    value is checked and returned as text, never converted to an int, so
    lowest terms ('4/2') go unchecked: they need the quadratic int(text)."""
    n_text, _, rest = line.removeprefix('{"n": ').partition(', "j": ')
    j_text, _, value = rest.partition(', "value": "')
    value = value.removesuffix('"}')
    num, slash, den = value.partition("/")
    if n_text.isdecimal() and j_text.isdecimal() and _is_number(num) and (
        not slash or (_is_number(den) and den not in ("0", "1") and num != "0")
    ):
        # int() reads any decimal digits; comparing with the re-rendered
        # line keeps only the ASCII digits without leading zeros
        n, j = int(n_text), int(j_text)
        if line == f'{{"n": {n}, "j": {j}, "value": "{value}"}}':
            return n, j, value
    raise CacheCorruptionError(f"not a triangle record: {line[:80]!r}")


def write_cache(path: Path, gamma: GammaParam, n_max: int):
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


def _matches(fp, path: Path, gamma: GammaParam, n_max: int) -> bool:
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
    wanted = {"schema": SCHEMA_VERSION, "gamma": str(gamma.value), "n_max": n_max}
    if any(header.get(key) != value for key, value in wanted.items()):
        return False
    start, digest, last = fp.tell(), hashlib.sha256(), b"\n"
    for block in iter(lambda: fp.read(1 << 20), b""):
        digest.update(block)
        last = block[-1:]
    if last != b"\n":
        raise CacheCorruptionError(f"truncated last line in {path}")
    if digest.hexdigest() != header.get("sha256"):
        raise CacheCorruptionError(f"content hash mismatch in {path}")
    fp.seek(start)
    return True


def read_cache(path: Path, gamma: GammaParam, n_max: int):
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


def load_or_build(gamma: GammaParam, n_max: int, cache_dir: Path):
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
