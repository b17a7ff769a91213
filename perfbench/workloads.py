"""Seeded workloads: each is a list of `lslab` command lines run in order.

A workload is one closed loop with one client.  Every op is a fresh
`python -m lslab.cli ...` process, because every CLI user pays the
in-process memo fills on every invocation.

The seed picks one entry of a short list of inputs of near-equal cost, so
the same seed gives the same ops, every seed's ops have a recorded golden
output, and the cost of a run does not depend on which seed it was given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CACHE_DIR = "{cache_dir}"  # replaced by the cycle's private cache directory


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    # Truncate every file in the cache directory to half its length first,
    # so the op reads a cache file whose content hash no longer matches.
    corrupt_cache: bool = False

    @property
    def key(self) -> str:
        """Golden-output key: the argv with the cache directory left as a
        placeholder, marked when the op runs against a corrupted cache."""
        text = " ".join(self.argv)
        return f"corrupt-cache: {text}" if self.corrupt_cache else text

    @property
    def command(self) -> str:
        return self.argv[0]


def _op(text: str, corrupt_cache: bool = False) -> Op:
    return Op(tuple(text.split()), corrupt_cache)


# analytic: eisenstein.zeta_series does most of the work here and none in
# the other workloads; clt.saddle_constant is called here on several
# precisions, elsewhere on one.  The seed picks the saddle point z ('w'
# is the saddle constant itself); the order nu stays 0, because the op
# costs about half as much at nu 1 or 2.
# `verify eisenstein` (about 37 s, 207 zeta calls) is left out: one run of
# it would not fit the benchmark's time budget; `verify clt` makes 49
# zeta calls of its own.
SADDLE_CHOICES = ("w", "1", "2")


def analytic(z) -> list[Op]:
    return [
        _op("verify clt"),
        _op(f"asymptotics --report saddle --nu 0 --z {z} --n-list 100,200,400"),
    ]


# exact-roots: sturm and genpoly, never zeta.  The roots op costs about
# 12% more per step of n and about 0.025 s more per refinement bit, so the
# row is fixed and the seed picks the bits from a narrow band: the op's
# cost varies by under 1% of the workload.
ROOTS_N = 55
ROOTS_CHOICES = (252, 254, 256, 258, 260)


def exact_roots(bits) -> list[Op]:
    return [
        _op("verify identities"),
        _op("verify roots"),
        _op("verify edgeworth"),
        _op(f"roots --n {ROOTS_N} --refine-bits {bits}"),
    ]


# rows-cache: the triangles, cache and CLI-output layers.  Writes, reads
# and a corrupt-cache rebuild share one cache directory; whole rows sit
# beside single far-out entries.  The compute op builds the triangle up to
# row n and carries the memory load, which grows like n^3, so the seeded
# rows lie in a narrow band.
COMPUTE_CHOICES = (
    (1100, 1037),
    (1101, 1052),
    (1102, 1064),
    (1103, 1029),
    (1104, 1071),
    (1105, 1046),
    (1106, 1058),
    (1107, 1033),
)


def rows_cache(choice) -> list[Op]:
    n, j = choice
    table = f"table --family legendre --n-max 400 --cache-dir {CACHE_DIR}"
    return [
        _op(table),  # cold: build and write
        _op(table),  # warm: read and hash check
        _op(table, corrupt_cache=True),  # rebuild, exit 4, same stdout
        _op(f"table --family jacobi --gamma 2/3 --n-max 200 --cache-dir {CACHE_DIR}"),
        _op(f"compute --family legendre --n {n} --j {j}"),
        _op("clt --report ratio --n 1000 --j 930"),
        _op("clt --report cdf --n 800"),
        _op("edgeworth --n 400"),
        _op("asymptotics --report mass --n-list 200,400,800,1600"),
    ]


WORKLOADS = {
    "analytic": (analytic, SADDLE_CHOICES),
    "exact-roots": (exact_roots, ROOTS_CHOICES),
    "rows-cache": (rows_cache, COMPUTE_CHOICES),
}


def ops_for(workload: str, seed: int) -> list[Op]:
    build, choices = WORKLOADS[workload]
    return build(random.Random(seed).choice(choices))


def op_space(workload: str) -> list[Op]:
    """Every op any seed can generate, in run order, each key once."""
    build, choices = WORKLOADS[workload]
    seen: dict[str, Op] = {}
    for choice in choices:
        for op in build(choice):
            seen.setdefault(op.key, op)
    return list(seen.values())
