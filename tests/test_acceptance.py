"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every check is delegated to the verification suites in lslab.verify (the
same code paths the `lslab verify` command runs), so the CLI and this
module can never drift apart.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import hashlib
import time

import mpmath as mp
import pytest

from lslab import edgeworth, verify
from lslab.genpoly import legendre_genpoly_recurrence
from lslab.precision import to_mpf
from lslab.triangles import modified_legendre_row

BITS = 256


class SuiteRun:
    def __init__(self, results, elapsed):
        self.results = results
        self.elapsed = elapsed

    def named(self, prefix: str) -> verify.CheckResult:
        for result in self.results:
            if result.name.startswith(prefix):
                return result
        raise KeyError(prefix)


def _run(suite_fn, *args) -> SuiteRun:
    start = time.monotonic()
    results = list(suite_fn(*args))
    return SuiteRun(results, time.monotonic() - start)


@pytest.fixture(scope="module")
def identities_run():
    return _run(verify.suite_identities, BITS)


@pytest.fixture(scope="module")
def roots_run():
    return _run(verify.suite_roots, BITS)


@pytest.fixture(scope="module")
def eisenstein_run():
    return _run(verify.suite_eisenstein, BITS)


@pytest.fixture(scope="module")
def clt_run():
    return _run(verify.suite_clt, BITS)


@pytest.fixture(scope="module")
def edgeworth_run():
    return _run(verify.suite_edgeworth, BITS)


# sha256 of the lines `lslab verify <suite>` prints at the default
# configuration.  The clt and eisenstein hashes were recorded before the
# lattice identity of the clt suite was routed through
# eisenstein.certified_legendre and before Q(n), w and the Bernoulli
# numbers each went to a single production path; the identities, roots
# and edgeworth hashes before the cdf grid, the Edgeworth table and the
# connection formula each went to one builder.
SUITE_DIGESTS = {
    "identities": "e370f0604c2bf30c6138185908455f52908a83b17db2b2072e8ef5e630cedaa8",
    "roots": "4dea8ec8fadffc5c214a87904bdf506f1f13dd9d83e962ffaaab0ef4cfd05924",
    "clt": "c9f7ac9c6c6b21b0e63da8e0700ec7ab777914dafa29187fc8a7342b2b01a682",
    "eisenstein": "6f44ba9e5c9178271b99caa51df87aae5b31aa95c282eb6f70c1666fb733a60f",
    "edgeworth": "ca2f31f93aba76cb99983828e4bb9c9b64d03a61a50801083576a895936ab5e9",
}


def _digest(run: SuiteRun) -> str:
    text = "".join(result.line() + "\n" for result in run.results)
    return hashlib.sha256(text.encode()).hexdigest()


def test_clt_suite_lines_unchanged(clt_run):
    assert _digest(clt_run) == SUITE_DIGESTS["clt"]


def test_eisenstein_suite_lines_unchanged(eisenstein_run):
    assert _digest(eisenstein_run) == SUITE_DIGESTS["eisenstein"]


def test_identities_suite_lines_unchanged(identities_run):
    assert _digest(identities_run) == SUITE_DIGESTS["identities"]


def test_roots_suite_lines_unchanged(roots_run):
    assert _digest(roots_run) == SUITE_DIGESTS["roots"]


def test_edgeworth_suite_lines_unchanged(edgeworth_run):
    assert _digest(edgeworth_run) == SUITE_DIGESTS["edgeworth"]


@pytest.mark.parametrize("suite", ["eisenstein", "edgeworth"])
def test_suite_passes_at_64_bits(suite):
    results = list(verify.SUITES[suite](64))
    assert [r.line() for r in results if not r.passed] == []


def _criterion(num: int, description: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_ratio_window():
    start = time.monotonic()
    check = verify.ratio_window_check(256)
    elapsed = time.monotonic() - start
    in_time = elapsed < 60
    _criterion(
        1,
        "pointwise ratio at (1000, 930) within published window",
        check.passed and in_time,
        f"{check.detail}; {elapsed:.1f}s",
    )


def test_criterion_01_explained_by_local_expansion():
    """The exact entry at (1000, 930) matches the order-4 local expansion
    built from the exact cumulants of row 1000 to about 1.5e-5, so no
    correction term comes near the 4.1% the reference window asks for.
    Ratios sigma * P(S = 930) / e_k, with e_k the order-k value that
    density_expansion gives at j = 930, measured: 1.002867
    at k = 2, 0.998843 at k = 3 and 0.9999846 at k = 4."""
    bits = 256
    row = modified_legendre_row(1000)
    prof = edgeworth.cumulants_from_genpoly(row, 6, bits)
    with mp.workprec(bits):
        sigma = mp.sqrt(to_mpf(prof.variance))
        prob = mp.mpf(row[930]) / sum(row)
        [(_, *expansion)] = edgeworth.density_expansion(prof, [930], 4, bits)
        ratios = {k: sigma * prob / expansion[k - 2] for k in (2, 3, 4)}
        assert abs(ratios[4] - 1) < 1e-4
        assert abs(ratios[4] - 1) < abs(ratios[3] - 1) < abs(ratios[2] - 1)


def test_criterion_02_printed_polynomials():
    start = time.monotonic()
    ok = list(legendre_genpoly_recurrence(3))[1:] == [(0, 2), (0, 4, 24), (0, 8, 192, 720)]
    elapsed = time.monotonic() - start
    _criterion(2, "generating polynomials n=1..3 exact", ok and elapsed < 1, f"{elapsed:.3f}s")


def test_criterion_03_cross_formula(identities_run):
    a = identities_run.named("cross-formula equality gamma=1 ")
    b = identities_run.named("cross-formula equality gamma=1/2")
    ok = a.passed and b.passed and identities_run.elapsed < 10
    _criterion(3, "cross-formula equality n<=30, both families", ok,
               f"suite {identities_run.elapsed:.1f}s")


def test_criterion_04_connection_formulas(identities_run, roots_run):
    a = identities_run.named("parity connection formulas k<=20")
    b = roots_run.named("connection polynomials k<=40")
    _criterion(4, "connection formulas k<=20 and polynomial form k<=40",
               a.passed and b.passed)


def test_criterion_05_root_certificates(roots_run):
    check = roots_run.named("root certificates 1<=n<=30")
    ok = check.passed and roots_run.elapsed < 120
    _criterion(5, "root certificates for 1<=n<=30", ok,
               f"suite {roots_run.elapsed:.1f}s")


def test_criterion_06_unimodality(roots_run):
    check = roots_run.named("unimodality with centered mode")
    ok = check.passed and roots_run.elapsed < 60
    _criterion(6, "unimodality with peak-or-plateau for 3<=n<=300", ok,
               f"suite {roots_run.elapsed:.1f}s")


def test_criterion_07_lattice_bound(eisenstein_run):
    check = eisenstein_run.named("lattice sums within certified bound")
    ok = check.passed and eisenstein_run.elapsed < 60
    _criterion(7, "lattice sums within certified truncation bound n<=50", ok,
               f"suite {eisenstein_run.elapsed:.1f}s")


def test_criterion_08_saddle_expansion(eisenstein_run):
    check = eisenstein_run.named("saddle expansion two-term match")
    ok = check.passed and eisenstein_run.elapsed < 120
    _criterion(8, "saddle expansion residual within 5% of first coefficient", ok,
               f"suite {eisenstein_run.elapsed:.1f}s")


def test_criterion_09_moment_residuals(clt_run):
    a = clt_run.named("mean-residual doubling ratios")
    b = clt_run.named("variance residual bounded")
    ok = a.passed and b.passed and clt_run.elapsed < 300
    _criterion(9, "mean residual halves; variance residual bounded", ok,
               f"{a.detail}; {b.detail}")


def test_criterion_10_density_residual_decay(clt_run):
    check = clt_run.named("pointwise residual decay")
    ok = check.passed and clt_run.elapsed < 300
    _criterion(10, "max pointwise residual decays and stays under ceiling", ok,
               check.detail)


def test_criterion_11_distributional_limit(clt_run):
    a = clt_run.named("grid KS distance decay")
    b = clt_run.named("total-mass ratio doubling decay")
    ok = a.passed and b.passed and clt_run.elapsed < 300
    _criterion(11, "KS distance decays; total-mass ratio halves", ok,
               f"{a.detail}; {b.detail}")


def test_criterion_12_expansion_engine(edgeworth_run):
    names = [
        "brute-force enumeration equals convolution",
        "root-derived distribution matches exact row",
        "two-path cumulants agree",
        "order-3 expansion beats order-2",
    ]
    checks = [edgeworth_run.named(n) for n in names]
    ok = all(c.passed for c in checks) and edgeworth_run.elapsed < 120
    _criterion(12, "expansion engine: oracle, dual cumulant paths, order-3 gain", ok,
               f"suite {edgeworth_run.elapsed:.1f}s")


def test_criterion_13_gamma_zero_identity(identities_run):
    check = identities_run.named("gamma-zero index shift n<=40")
    ok = check.passed and identities_run.elapsed < 10
    _criterion(13, "gamma-zero index shift exact for 1<=j<=n<=40", ok,
               f"suite {identities_run.elapsed:.1f}s")
