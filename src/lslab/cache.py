"""On-disk triangle cache.

A cache file is JSON-lines: a header with schema version, family tag and
a sha256 over the data lines, followed by one triangles.triangle_record
per entry, row-major.  A file whose hash does not match raises
CacheCorruptionError; callers are expected to fall back to recomputation
(the CLI does, and reports it via its exit code).  Files are written to
a temporary name and moved into place, so a reader never sees a
half-written file."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import CacheCorruptionError
from .triangles import GammaParam, iter_triangle, triangle_record

SCHEMA_VERSION = 1
ENV_CACHE_DIR = "LSLAB_CACHE_DIR"


def resolve_cache_dir(explicit) -> Path:
    """An explicit directory first, then LSLAB_CACHE_DIR, then
    ~/.cache/lslab."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "lslab"


def _gamma_tag(gamma: GammaParam) -> str:
    if gamma.family:
        return gamma.family
    v = gamma.value
    return f"g{v.numerator}-{v.denominator}"


def cache_path(cache_dir: Path, gamma: GammaParam, n_max: int) -> Path:
    return Path(cache_dir) / f"triangle_{_gamma_tag(gamma)}_n{n_max}.jsonl"


def _data_lines(gamma: GammaParam, n_max: int) -> list[str]:
    return [triangle_record(n, j, v) for n, j, v in iter_triangle(gamma, n_max)]


def _digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def write_cache(path: Path, gamma: GammaParam, n_max: int) -> list[str]:
    lines = _data_lines(gamma, n_max)
    header = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "family": gamma.family or "jacobi",
            "gamma": str(gamma.value),
            "n_max": n_max,
            "sha256": _digest(lines),
        }
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fp:
            fp.write(header + "\n")
            for line in lines:
                fp.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return lines


def read_cache(path: Path, gamma: GammaParam, n_max: int) -> list[str] | None:
    """Data lines from a compatible cache file; None when absent, empty or
    version/parameter incompatible; CacheCorruptionError on a bad hash or
    a last line without its newline.  The file is read line by line, so
    the whole text is never held next to its lines."""
    if not path.exists():
        return None
    with open(path) as fp:
        first = fp.readline()
        if not first:
            return None
        try:
            header = json.loads(first)
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict):
            raise CacheCorruptionError(f"unreadable header in {path}")
        if (
            header.get("schema") != SCHEMA_VERSION
            or header.get("gamma") != str(gamma.value)
            or header.get("n_max") != n_max
        ):
            return None
        lines = []
        for line in fp:
            if not line.endswith("\n"):
                raise CacheCorruptionError(f"truncated last line in {path}")
            lines.append(line[:-1])
    if _digest(lines) != header.get("sha256"):
        raise CacheCorruptionError(f"content hash mismatch in {path}")
    return lines


def load_or_build(gamma: GammaParam, n_max: int, cache_dir: Path):
    """(data lines, from_cache, was_corrupted); corrupted files are rebuilt
    and rewritten in place.  The rebuild runs after the except block, so
    the failed read's frame and lines are already released."""
    path = cache_path(cache_dir, gamma, n_max)
    try:
        cached, corrupted = read_cache(path, gamma, n_max), False
    except CacheCorruptionError:
        cached, corrupted = None, True
    if cached is not None:
        return cached, True, False
    return write_cache(path, gamma, n_max), False, corrupted
