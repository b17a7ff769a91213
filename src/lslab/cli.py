"""Command-line front door.

Subcommands: compute, table, verify, roots, clt, edgeworth, asymptotics.
`verify` runs its suites at fixed sizes; --precision-bits is its one
option.
Every output goes to stdout; redirect it to keep a file.  `table` prints
from its cache file (--cache-dir, else ~/.cache/lslab) once the file's
hash is checked, building or rebuilding the file first when needed; the
records are checked and printed in blocks of 128 KiB
(cache.checked_blocks).
Exit codes: 0 success, 1 invariant failure, 2 usage (a bad --cache-dir
too, and `bad --gamma` for a --gamma that is not an integer or p/q with
q > 0, at most 19 digits each), 3 resource limit, 4 cache corruption
(the table is still printed from a fresh build, except for a record
that passes the file's hash but is not in the form
cache.triangle_record writes: the table stops there), 141 stdout
closed by its reader, as by `| head` (no traceback; a table's cache
file is complete before its first byte is printed).
All output is deterministic for a fixed configuration: exact values are
printed as decimal strings, floats at a digit count derived from
--precision-bits.
Each process loads only the modules its command runs (see
lslab._lazy).  Every command loads `triangles`; `compute` loads nothing
more, `table` adds `cache` with hashlib and json, and `verify` adds
`verify` and each module its suites call: mpmath and `precision` with
every suite but `identities`, which is exact.  Every other command
loads mpmath and `precision`, and then: `roots` `sturm` and json; `clt`
`clt` and the `edgeworth` it imports, with json for the ratio report;
`edgeworth` `edgeworth`; `asymptotics` `laplace` and `eisenstein` for
the saddle report, and `clt` for --z w and for the mass report.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import _lazy, triangles
from .errors import CacheCorruptionError, LslabError, ResourceLimitError


json, mp = _lazy("json"), _lazy("mpmath")
cache, clt, edgeworth, eisenstein, genpoly, laplace, precision, sturm, verify = (
    _lazy(f"{__package__}.{name}")
    for name in ("cache", "clt", "edgeworth", "eisenstein", "genpoly", "laplace", "precision",
                 "sturm", "verify")
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_CACHE = 4
EXIT_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer SIGPIPE killed


# the --family choices: the named families with gamma > 0, then jacobi
FAMILY_CHOICES = [name for name, gamma in triangles.FAMILIES.items() if gamma] + ["jacobi"]


def _gamma(parser, args) -> Fraction:
    """The triangle parameter named by --family and --gamma."""
    if args.family == "jacobi":
        if args.gamma is None:
            parser.error("--gamma is required for --family jacobi")
        if triangles.GAMMA_TEXT.fullmatch(args.gamma) is None:
            parser.error("bad --gamma: not an integer or p/q (q > 0), 19 digits at most each")
        return Fraction(args.gamma)
    if args.gamma is not None:
        parser.error("--gamma is only valid with --family jacobi")
    return triangles.FAMILIES[args.family]


def cmd_compute(parser, args) -> int:
    value = triangles.jacobi_stirling(args.n, args.j, _gamma(parser, args))
    print(triangles.format_entry(value))
    return EXIT_OK


def cmd_table(parser, args) -> int:
    gamma = _gamma(parser, args)
    triangles.check_row_cap(args.n_max)
    cache_dir = cache.resolve_cache_dir(args.cache_dir)
    try:
        source, _, corrupted = cache.load_or_build(gamma, args.n_max, cache_dir)
    except OSError as exc:  # e.g. --cache-dir under a regular file
        raise ValueError(exc) from exc
    sys.stdout.flush()  # text printed before stays ahead of these bytes
    out = sys.stdout.buffer
    with source:
        if args.format == "csv":
            out.write(b"n,j,value\n")
        for block in cache.checked_blocks(source, csv=args.format == "csv"):
            out.write(block)
    if corrupted:
        print("warning: cache was corrupted and has been rebuilt", file=sys.stderr)
        return EXIT_CACHE
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, args.precision_bits)
    for result in results:
        print(result.line())
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _write_csv(header: str, rows, bits: int) -> None:
    """A CSV table on stdout, each row printed as it is formatted: int and
    str cells as they are, every other value to print_digits(bits)
    significant digits."""
    digits = precision.print_digits(bits)
    print(header)
    for row in rows:
        print(",".join(str(c) if isinstance(c, (int, str)) else mp.nstr(c, digits) for c in row))


def cmd_roots(parser, args) -> int:
    sturm.check_roots_cap(args.n, args.refine_bits)
    cert = sturm.certify_roots(args.n)
    payload = {
        "n": cert.n,
        "intervals": [[f"{x.numerator}/{x.denominator}" for x in pair] for pair in cert.intervals],
        "sign_at_quarter": cert.sign_at_quarter,
    }
    if args.refine_bits:
        digits = precision.print_digits(args.refine_bits)
        payload["roots"] = [mp.nstr(r, digits) for r in sturm.refine_roots(cert, args.refine_bits)]
    print(json.dumps(payload))
    return EXIT_OK


def cmd_clt(parser, args) -> int:
    bits = args.precision_bits
    if args.report == "ratio":
        if args.n is None or args.j is None:
            parser.error("ratio report needs --n and --j")
        ratio, _ = clt.ratio_check(args.n, args.j, bits)
        digits = precision.print_digits(bits)
        payload = {"n": args.n, "j": args.j, "ratio": mp.nstr(ratio, digits),
                   "precision_bits": bits}
        print(json.dumps(payload))
        return EXIT_OK
    if args.report == "residuals":
        n_list = args.n_list or [100, 200, 400]
        if n_list[0] < 2:
            parser.error("residuals report needs every n >= 2")
        rows = clt.mean_variance_residuals(n_list, bits)
        _write_csv("n,mean_residual,var_residual", rows, bits)
        return EXIT_OK
    # cdf
    if args.n is None:
        parser.error("cdf report needs --n")
    rows = [(mp.nstr(y, 3), s, p) for y, s, p in clt.cdf_grid(args.n, bits)]
    _write_csv("y,scaled_cdf,normal_cdf", rows, bits)
    return EXIT_OK


def cmd_edgeworth(parser, args) -> int:
    if args.n < 2:
        parser.error("edgeworth needs --n >= 2")
    rows = edgeworth.comparison_table(args.n, args.precision_bits)
    _write_csv("j,x,sigma_p,order2,order3,abs_err2,abs_err3", rows, args.precision_bits)
    return EXIT_OK


def cmd_asymptotics(parser, args) -> int:
    bits = args.precision_bits
    saddle = args.report == "saddle"
    n_list = args.n_list or ([100, 200, 400] if saddle else [50, 100, 200, 400])
    # the saddle report's cost grows with n + nu through J(n + nu, n; z)
    triangles.check_row_cap(n_list[-1] + (args.nu if saddle else 0))
    if saddle:
        z = clt.saddle_constant(bits) if args.z == "w" else mp.mpf(args.z, prec=bits)
        rows = []
        for row in laplace.saddle_expansion_check(args.nu, z, n_list, bits):
            r = row[0] + args.nu  # the lattice truncation bound at r, defined from r = 2
            rows.append(row + (eisenstein.tail_bound(r, z, bits) if r >= 2 else mp.mpf("nan"),))
        _write_csv("n,Q,Q_minus_b,n_times_Q_minus_b,residual,tail_bound", rows, bits)
        return EXIT_OK
    # mass: total-mass ratio decay table; abs(m - 1) is taken at mpmath's
    # global precision, not at bits, and the printed digits show it
    rows = []
    for n in n_list:
        m = clt.total_mass_ratio(n, bits)
        rows.append((n, m, abs(m - 1)))
    _write_csv("n,mass_ratio,abs_deviation", rows, bits)
    return EXIT_OK


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _n_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n list {text!r}")
    if values != sorted(values):
        raise argparse.ArgumentTypeError("n list must be ascending")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lslab",
        description="Exact and asymptotic laboratory for Jacobi/Legendre/Chebyshev-"
        "Stirling numbers of the second kind.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compute", help="print one exact triangle entry")
    p.add_argument("--family", required=True, choices=FAMILY_CHOICES)
    p.add_argument("--gamma", help="rational p/q, required iff --family jacobi")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    p = subs.add_parser("table", help="emit a triangle as CSV or JSON lines")
    p.add_argument("--family", required=True, choices=FAMILY_CHOICES)
    p.add_argument("--gamma")
    p.add_argument("--n-max", type=_non_negative, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--cache-dir")

    p = subs.add_parser("verify", help="run a named verification suite")
    p.add_argument(
        "suite", choices=["identities", "roots", "eisenstein", "clt", "edgeworth", "all"]
    )
    p.add_argument("--precision-bits", type=int, default=256)

    p = subs.add_parser("roots", help="certify the generating polynomial roots")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--refine-bits", type=_non_negative, default=0)

    p = subs.add_parser("clt", help="ratio / residual / cdf reports")
    p.add_argument("--report", choices=["ratio", "residuals", "cdf"], default="ratio")
    p.add_argument("--n", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--n-list", type=_n_list)
    p.add_argument("--precision-bits", type=int, default=256)

    p = subs.add_parser("edgeworth", help="expansion comparison table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision-bits", type=int, default=256)

    p = subs.add_parser("asymptotics", help="saddle/mass decay tables")
    p.add_argument("--report", choices=["saddle", "mass"], default="saddle")
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--z", default="w", help="positive real, or 'w' for the saddle constant")
    p.add_argument("--n-list", type=_n_list)
    p.add_argument("--precision-bits", type=int, default=256)

    return parser


COMMANDS = {
    "compute": cmd_compute,
    "table": cmd_table,
    "verify": cmd_verify,
    "roots": cmd_roots,
    "clt": cmd_clt,
    "edgeworth": cmd_edgeworth,
    "asymptotics": cmd_asymptotics,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    bits = getattr(args, "precision_bits", None)  # table and compute have none
    if bits is not None and bits < 64:
        parser.error("--precision-bits must be at least 64")
    try:
        try:
            if bits is not None and bits > triangles.MAX_BITS:
                raise ResourceLimitError(
                    f"--precision-bits {bits} exceeds the cap of {triangles.MAX_BITS}"
                )
            return COMMANDS[args.command](parser, args)
        finally:
            sys.stdout.flush()  # a closed reader shows here, not at exit
    except BrokenPipeError:
        # stdout's reader is gone.  Point stdout at the null device so the
        # interpreter's last flush of what is still buffered cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CacheCorruptionError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except LslabError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
