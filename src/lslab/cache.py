"""On-disk triangle cache, the one source of what `lslab table` prints.

A cache file is JSON-lines: a header with schema version, family tag and
a sha256 over the data bytes, followed by one triangles.triangle_record
per entry, row-major.  The rows come from triangles.iter_triangle, in
base 10 when 2*gamma is an integer (exact Decimals under trapped
rounding) and as Fractions from a Q^(n-j)-scaled integer sweep
otherwise, so rendering a table costs time linear in its digits for the
integer families.  Records are streamed into a temporary file, one
encoded block per row, under a header with a zero digest; the header is
rewritten in place once the data are hashed (a hex digest is always 64
characters, so no byte moves), and the file is moved into place: a
reader never sees a half-written file.  A reader gets the file back,
open at its first record, only once its data bytes as they are on disk
hash to the header's digest; otherwise CacheCorruptionError, and callers
rebuild the file (the CLI does, and reports it via its exit code).  No
table is held in memory."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from .errors import CacheCorruptionError
from .triangles import GammaParam, iter_triangle, triangle_record

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


def write_cache(path: Path, gamma: GammaParam, n_max: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fp:
            fp.write(_header(gamma, n_max, "0" * 64))
            digest = hashlib.sha256()
            for _, row in groupby(iter_triangle(gamma, n_max), key=itemgetter(0)):
                block = "".join(triangle_record(*entry) + "\n" for entry in row).encode()
                digest.update(block)
                fp.write(block)
            fp.seek(0)
            fp.write(_header(gamma, n_max, digest.hexdigest()))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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
    if (
        header.get("schema") != SCHEMA_VERSION
        or header.get("gamma") != str(gamma.value)
        or header.get("n_max") != n_max
    ):
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
    incompatible or corrupted file is written first and then read back
    through the same hash check as a warm one."""
    path = cache_path(cache_dir, gamma, n_max)
    try:
        source, corrupted = read_cache(path, gamma, n_max), False
    except CacheCorruptionError:
        source, corrupted = None, True
    if source is not None:
        return source, True, False
    write_cache(path, gamma, n_max)
    return read_cache(path, gamma, n_max), False, corrupted
