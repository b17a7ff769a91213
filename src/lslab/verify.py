"""Named verification suites.

Each suite re-checks one cluster of module invariants at desk scale and
yields one CheckResult record per check; the CLI prints one PASS/FAIL
line per record and exits nonzero on any failure.  A suite takes the
working precision in bits: `identities` and `roots` are exact and read
none of it, and `clt` and `edgeworth` work at 256 bits at least.  A
suite that raises keeps the lines it yielded before its abort line
(run_suites).  Suites mostly drive module functions and compare against
frozen expected values (constants marked 'reference run' below were
fixed by an independent high-precision oracle run during development).
Four checks carry an oracle of their own, a route no module provides:
`_enumerate_distribution` (all 2^n outcomes), the Hermite coefficient
recursion P_{m+1} = P' - x P, the Horner sum of M_n(g) the lattice sums
must meet, and the fixed-j growth prediction
T(n, j) ~ (j (j + 2 gamma - 1))^n / (j! prod_{t<j} (j + 2 gamma - 1 + t)).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import reduce
from math import factorial, lcm

from . import _lazy, clt, edgeworth, eisenstein, genpoly, laplace, precision, sturm, triangles
from .errors import CertificationError, LslabError, UnimodalityError

mp = _lazy("mpmath")  # the exact suites run no mpmath

RATIO_WINDOW = (Fraction("1.0438485"), Fraction("1.0438495"))
RATIO_TARGET = (1000, 930)           # the (n, j) the window is published for
DOUBLING_WINDOW = (0.3, 0.7)
DENSITY_RESIDUAL_CEILING = 0.05      # reference run: 0.0284 at n=100
VAR_RESIDUAL_CEILING = 0.031         # reference run: 0.0296..0.0300 over n=100..400
VAR_RESIDUAL_SLACK = 5e-4            # trendwise non-increase allowance
SADDLE_REL_TOLERANCE = 0.05          # reference run: <= 0.0061 at n=400

# Scan sizes, each named in its line
UNIMODALITY_MAX = 300
POLY_EQUALITY_MAX = 200
CONNECTION_MAX = 20
CONNECTION_POLY_MAX = 40
LATTICE_MAX = 50
CROSSCHECK_MAX = 30


class CheckResult(namedtuple("CheckResult", "name passed detail", defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}" + (
            f"  [{self.detail}]" if self.detail else ""
        )


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _uncovered(ns, certs, exact, where: str = "") -> str:
    """Each certified lattice sum against its exact value, at the caller's
    precision: the detail of the last n whose relative error its
    certificate does not cover, or "" when it covers every n."""
    detail = ""
    for n, cert, value in zip(ns, certs, exact):
        rel = abs(cert.value - value) / value
        if not cert.covers(rel):
            detail = f"n={n}{where} rel={mp.nstr(rel, 4)}"
    return detail


# --------------------------------------------------------------------------
# identities


def suite_identities(bits: int) -> Iterator[CheckResult]:
    for gamma, binsum in (
        (triangles.LEGENDRE, triangles.legendre_stirling_binsum),
        (triangles.CHEBYSHEV, triangles.chebyshev_stirling_binsum),
    ):
        ok = all(
            rec == triangles.jacobi_stirling_explicit(n, j, gamma) == binsum(n, j)
            for n in range(CROSSCHECK_MAX + 1)
            for j, rec in enumerate(triangles.triangle_row(gamma, n))
        )
        yield _result(f"cross-formula equality gamma={gamma} n<={CROSSCHECK_MAX}", ok)

    ok = all(
        triangles.odd_power_cancellation(j, ell) == 0
        for j in range(13)
        for ell in range(13)
    )
    yield _result("odd-power binomial cancellation j,l<=12", ok)

    kmax = CONNECTION_MAX
    ok = all(
        triangles.legendre_from_chebyshev(n) == triangles.triangle_row(triangles.LEGENDRE, n)
        for n in range(2 * kmax + 2)
    )
    yield _result(f"parity connection formulas k<={kmax}", ok)

    ok = all(
        triangles.jacobi_stirling(n, 1, triangles.LEGENDRE) == 2 ** (n - 1)
        for n in range(1, 201)
    )
    yield _result("first-column doubling law n<=200", ok)

    ok = all(
        triangles.triangle_row(triangles.GAMMA_ZERO, n)[1:]
        == triangles.triangle_row(triangles.LEGENDRE, n - 1)
        for n in range(1, 41)
    )
    yield _result("gamma-zero index shift n<=40", ok)

    ok = True
    detail = ""
    for g in (Fraction(1, 2), Fraction(1)):
        for j in (1, 2, 3):
            devs = []
            for n in (200, 400):
                val = Fraction(triangles.jacobi_stirling(n, j, g))
                denom = Fraction(1)
                for t in range(j):
                    denom *= j + 2 * g - 1 + t
                predicted = (Fraction(j) * (j + 2 * g - 1)) ** n / (factorial(j) * denom)
                devs.append(abs(val / predicted - 1))
            if devs[0] > Fraction(1, 10**6):
                ok, detail = False, f"gamma={g} j={j} off at n=200"
            strict_needed = devs[0] != 0
            if (devs[1] > devs[0]) or (strict_needed and devs[1] >= devs[0]):
                ok, detail = False, f"gamma={g} j={j} no sharpening at n=400"
    yield _result("fixed-j growth-rate ratio j<=3", ok, detail)


# --------------------------------------------------------------------------
# polynomials and roots


def suite_roots(bits: int) -> Iterator[CheckResult]:
    printed = [(0, 2), (0, 4, 24), (0, 8, 192, 720)]
    ok = list(genpoly.legendre_genpoly_recurrence(3))[1:] == printed
    yield _result("generating polynomials n=1..3 exact", ok)

    nmax = POLY_EQUALITY_MAX
    ok = all(
        row == triangles.modified_legendre_row(n)
        for n, row in enumerate(genpoly.legendre_genpoly_recurrence(nmax))
    )
    yield _result(f"recurrence vs triangle polynomials n<={nmax}", ok)

    kmax = CONNECTION_POLY_MAX
    ok = all(
        triangles.scale_row(triangles.legendre_from_chebyshev(n))
        == triangles.modified_legendre_row(n)
        for n in range(2 * kmax + 2)
    )
    yield _result(f"connection polynomials k<={kmax}", ok)

    ok = True
    detail = ""
    try:
        certs = [sturm.certify_roots(n) for n in range(1, CROSSCHECK_MAX + 1)]
        for n, points, signs in sturm.separators(CROSSCHECK_MAX):
            q = triangles.modified_legendre_row(n)[1:]
            if list(certs[n - 1].intervals) != sturm.tree_intervals(q, points, signs):
                ok, detail = False, f"Descartes and interlacing intervals differ at n={n}"
                break
    except CertificationError as exc:
        ok, detail = False, str(exc)
    yield _result(f"root certificates 1<=n<={CROSSCHECK_MAX}", ok, detail)

    ok = True
    detail = ""
    try:
        for n in range(3, UNIMODALITY_MAX + 1):
            mode = genpoly.unimodality_report(n)
            if abs(mode - float(clt.center(n, 64))) > 3:
                ok, detail = False, f"mode far from center at n={n}"
                break
    except UnimodalityError as exc:
        ok, detail = False, str(exc)
    yield _result(f"unimodality with centered mode 3<=n<={UNIMODALITY_MAX}", ok, detail)

    mean2 = clt.mean_variance_exact(2)[0]
    yield _result("row-2 mean equals 13/7", mean2 == Fraction(13, 7))


# --------------------------------------------------------------------------
# laplace / eisenstein


def suite_eisenstein(bits: int) -> Iterator[CheckResult]:
    w = clt.saddle_constant(bits)

    ok = True
    with mp.workprec(bits):
        for r, n in itertools.product(range(0, 51, 5), range(0, 51, 5)):
            terms = laplace.laplace_closed_form(r, n)
            for z in (w / 2, mp.mpf(1), w, mp.mpf(2), 2 * w):
                if not laplace.eval_terms(terms, z) > 0:
                    ok = False
    yield _result("closed-form positivity r,n<=50", ok)

    ok = all(
        laplace.derivative_identity_holds(r, n, order)
        for r in range(11)
        for n in range(11)
        for order in (1, 2, 3)
    )
    yield _result("derivative identity r,n<=10 order<=3", ok)

    ns = range(2, LATTICE_MAX + 1)
    rows = [triangles.modified_legendre_row(n) for n in ns]
    detail = ""
    with mp.workprec(bits + 64):
        for wv in (w / 2, w, 2 * w):
            g = eisenstein.squeeze_argument(wv, bits + 64)
            # M_n(g) by Horner's rule, the value each lattice sum must meet
            exact = [reduce(lambda acc, c: acc * g + c, reversed(row), 0 * g) for row in rows]
            certs = eisenstein.certified_legendre(ns, wv, 16, bits + 64)
            detail = _uncovered(ns, certs, exact, f" w={mp.nstr(wv, 6)}") or detail
    yield _result(f"lattice sums within certified bound n<={LATTICE_MAX}", not detail, detail)

    # The sum is certified at bits + 64, so w must be accurate to as many.
    ns = range(1, 31)
    w_fine = clt.saddle_constant(bits + 64)
    with mp.workprec(bits + 64):
        exact = [
            mp.mpf(sum(triangles.scale_row(triangles.triangle_row(triangles.CHEBYSHEV, n))))
            for n in ns
        ]
        detail = _uncovered(ns, eisenstein.certified_chebyshev(ns, w_fine, 16, bits + 64), exact)
    yield _result("row-sum lattice values n<=30", not detail, detail)

    ok = True
    detail = ""
    for nu in (0, 1, 2):
        for z in (w, mp.mpf(1), mp.mpf(2)):
            # |n (Q - b) - b_nu| at n = 100, 200, 400; a row ends with the residual
            rows = laplace.saddle_expansion_check(nu, z, [100, 200, 400], bits)
            res = [abs(row[-1]) for row in rows]
            if (nu, z) == (2, 1):
                halving = res
            final_rel = res[-1] / abs(laplace.saddle_coefficients(nu, z, bits).correction)
            shrinks = all(b < a for a, b in zip(res, res[1:]))
            if not shrinks or final_rel > SADDLE_REL_TOLERANCE:
                ok, detail = False, f"nu={nu} z={mp.nstr(z, 5)} rel={mp.nstr(final_rel, 4)}"
    yield _result("saddle expansion two-term match at n=400", ok, detail)

    r1 = halving[1] / halving[0]
    r2 = halving[2] / halving[1]
    ok = 0.35 < r1 < 0.65 and 0.35 < r2 < 0.65
    yield _result(
        "saddle residual halves per doubling", ok, f"ratios {mp.nstr(r1, 4)}, {mp.nstr(r2, 4)}"
    )


# --------------------------------------------------------------------------
# clt


def ratio_window_check(bits: int) -> CheckResult:
    """The exact entry over A(n, j) at RATIO_TARGET against RATIO_WINDOW."""
    n, j = RATIO_TARGET
    ratio, entry = clt.ratio_check(n, j, bits)
    with mp.workprec(bits):
        lo, hi = precision.to_mpf(RATIO_WINDOW[0]), precision.to_mpf(RATIO_WINDOW[1])
        ok = lo <= ratio <= hi
    return _result(
        f"pointwise ratio window at ({n}, {j})",
        ok,
        f"computed {mp.nstr(ratio, 12)} vs window [{float(lo)}, {float(hi)}], "
        f"exact value has {len(str(entry))} digits",
    )


def suite_clt(bits: int) -> Iterator[CheckResult]:
    bits = max(bits, 256)
    yield ratio_window_check(bits)

    resid = clt.mean_variance_residuals([100, 200, 400], bits)
    mean_res = {n: m for n, m, _ in resid}
    ok = True
    detail = ""
    with mp.workprec(bits):
        for n in (100, 200):
            ratio = +abs(mean_res[2 * n]) / abs(mean_res[n])
            if not (DOUBLING_WINDOW[0] < float(ratio) < DOUBLING_WINDOW[1]):
                ok, detail = False, f"ratio {mp.nstr(ratio, 5)} at {n}->{2 * n}"
    yield _result("mean-residual doubling ratios n=100,200", ok, detail)

    vr = [abs(v) for _, _, v in resid]
    ok = all(float(v) <= VAR_RESIDUAL_CEILING for v in vr) and all(
        float(b) <= float(a) + VAR_RESIDUAL_SLACK for a, b in zip(vr, vr[1:])
    )
    yield _result(
        "variance residual bounded over n=100..400", ok, ", ".join(mp.nstr(v, 5) for v in vr)
    )

    r100 = clt.max_density_residual(100, bits)
    r400 = clt.max_density_residual(400, bits)
    ok = r400 < r100 and float(r100) < DENSITY_RESIDUAL_CEILING
    yield _result(
        "pointwise residual decay n=100 -> n=400", ok, f"{mp.nstr(r100, 5)} -> {mp.nstr(r400, 5)}"
    )

    with mp.workprec(bits):
        ks100, ks400 = (
            max(abs(s - p) for _, s, p in clt.cdf_grid(n, bits)) for n in (100, 400)
        )
    yield _result(
        "grid KS distance decay n=100 -> n=400",
        ks400 < ks100,
        f"{mp.nstr(ks100, 5)} -> {mp.nstr(ks400, 5)}",
    )

    masses = {n: clt.total_mass_ratio(n, bits) for n in (50, 100, 200, 400)}
    ok = True
    detail = []
    for n in (50, 100, 200):
        ratio = abs(masses[2 * n] - 1) / abs(masses[n] - 1)
        detail.append(mp.nstr(ratio, 5))
        if not (DOUBLING_WINDOW[0] < float(ratio) < DOUBLING_WINDOW[1]):
            ok = False
    yield _result("total-mass ratio doubling decay", ok, ", ".join(detail))

    # At w, g(w) = 1 and (cosh w - 1)/sinh w = 1/sqrt5, so the certified
    # Legendre lattice sum is the row mass; its exact side sums the scaled
    # rows of iter_triangle: no mass kernel, and no row memo (row 400 stays).
    ns = range(2, 51)
    w = clt.saddle_constant(bits + 64)
    with mp.workprec(bits + 64):
        rows = triangles.iter_triangle(triangles.LEGENDRE, ns[-1])
        exact = [mp.mpf(sum(triangles.scale_row([*map(int, r)]))) for n, r in rows if n in ns]
        detail = _uncovered(ns, eisenstein.certified_legendre(ns, w, 16, bits), exact)
    yield _result("lattice identity for sqrt5 * row mass n<=50", not detail, detail)

    n = 20
    ok = True
    with mp.workprec(bits):
        mean, var = clt.mean_variance_exact(n)
        sigma = mp.sqrt(precision.to_mpf(var))
        cs = clt.centering_scaling(n, bits)
        mass = clt.total_mass_ratio(n, bits)
        row = triangles.modified_legendre_row(n)
        total = sum(row)
        for j in range(n + 1):
            lhs = cs.sigma * cs.scale * mp.mpf(row[j])
            sigma_p = sigma * mp.mpf(row[j]) / total
            rhs = sigma_p * (cs.sigma / sigma) * mass
            if abs(lhs - rhs) > mp.mpf(2) ** (-bits + 32) * (1 + abs(lhs)):
                ok = False
    yield _result("scaled row matches rescaled row-sum distribution at n=20", ok)

    center, tail = clt.scaled_cdf(400, [0, -8], bits)
    ok = abs(float(center) - 0.5) < 0.05 and float(tail) < 1e-6
    yield _result(
        "cdf median and far tail at n=400",
        ok,
        f"center {mp.nstr(center, 6)}, tail {mp.nstr(tail, 4)}",
    )


# --------------------------------------------------------------------------
# edgeworth


def _enumerate_distribution(probs) -> list:
    """Brute-force oracle for rational probabilities: sum over all 2^n
    outcome vectors, each weight an integer product over the common
    denominator D of the probabilities, divided by D^n at the end."""
    n = len(probs)
    den = lcm(*(p.denominator for p in probs))
    hits = [p.numerator * (den // p.denominator) for p in probs]
    dist = [0] * (n + 1)
    for mask in range(1 << n):
        weight = 1
        count = 0
        for i, h in enumerate(hits):
            if mask >> i & 1:
                weight *= h
                count += 1
            else:
                weight *= den - h
        dist[count] += weight
    return [Fraction(w, den**n) for w in dist]


def suite_edgeworth(bits: int) -> Iterator[CheckResult]:
    # The root-derived distribution is held to 2^-180, out of reach below
    # 256 bits.
    bits = max(bits, 256)

    rational = tuple(Fraction(i + 1, i + 3) for i in range(12))
    ok = edgeworth.distribution(rational) == _enumerate_distribution(rational)
    m2 = edgeworth.probabilities_from_roots([Fraction(0), Fraction(-1, 6)])
    ok = ok and edgeworth.distribution(m2) == [0, Fraction(1, 7), Fraction(6, 7)]
    yield _result("brute-force enumeration equals convolution n<=12", ok)

    cert = sturm.certify_roots(12)
    roots = [mp.mpf(0)] + sturm.refine_roots(cert, bits)
    probs = edgeworth.probabilities_from_roots(roots, bits)
    approx = edgeworth.distribution(probs, bits)
    row = triangles.modified_legendre_row(12)
    total = sum(row)
    with mp.workprec(bits):
        tol = mp.mpf(2) ** (-180)
        ok = all(
            abs(approx[j] - mp.mpf(row[j]) / total) < tol for j in range(13)
        )
    yield _result("root-derived distribution matches exact row at n=12", ok)

    ok = True
    detail = ""
    for n in (5, 10, 20, 50):
        cert = sturm.certify_roots(n)
        roots = [mp.mpf(0)] + sturm.refine_roots(cert, bits)
        prof_roots = edgeworth.cumulants_from_probabilities(
            edgeworth.probabilities_from_roots(roots, bits), 6, bits
        )
        prof_poly = edgeworth.cumulants_from_genpoly(
            triangles.modified_legendre_row(n), 6, bits
        )
        with mp.workprec(bits):
            tol = mp.mpf(2) ** (-bits + 80)
            for nu in range(2, 7):
                a = prof_roots.normalized_cumulant(nu)
                b = prof_poly.normalized_cumulant(nu)
                if abs(a - b) > tol * (1 + abs(b)):
                    ok, detail = False, f"n={n} nu={nu}"
    yield _result("two-path cumulants agree n in {5,10,20,50}", ok, detail)

    ok = all(
        edgeworth.hermite_value(m, Fraction(x)) ==
        (-1) ** m * edgeworth.hermite_value(m, Fraction(-x))
        for m in range(11)
        for x in (Fraction(1, 3), Fraction(7, 5), 2)
    )
    yield _result("hermite parity m<=10", ok)

    # Rodrigues-style coefficient recursion: P_0 = 1, P_{m+1} = P' - x P,
    # and the value is (-1)^m P_m.
    ok = True
    poly = [Fraction(1)]
    for m in range(7):
        for x in (Fraction(2, 3), Fraction(-3, 2), Fraction(5)):
            direct = (-1) ** m * sum(c * x**i for i, c in enumerate(poly))
            if direct != edgeworth.hermite_value(m, x):
                ok = False
        nxt = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            if i + 1 < len(poly):
                nxt[i] += (i + 1) * poly[i + 1]
            nxt[i + 1] -= c
        poly = nxt
    yield _result("hermite recurrence matches derivative form m<=6", ok)

    table = edgeworth.comparison_table(200, bits)  # each row ends with |err2|, |err3|
    err2, err3 = max(row[-2] for row in table), max(row[-1] for row in table)
    yield _result(
        "order-3 expansion beats order-2 at n=200",
        err3 < err2,
        f"k=2: {mp.nstr(err2, 5)}, k=3: {mp.nstr(err3, 5)}",
    )

    m2prof = edgeworth.cumulants_from_probabilities(m2, 6, bits)
    with mp.workprec(bits):
        [(_, val)] = edgeworth.density_expansion(m2prof, [2], 2, bits)
        sigma2 = mp.sqrt(mp.mpf(6) / 49)
        exact = sigma2 * mp.mpf(6) / 7
        ok = abs(val - mp.mpf("0.36704462")) < 1e-7 and abs(exact - mp.mpf("0.29993751")) < 1e-7
    yield _result("two-point row reference values", ok)


SUITES = {
    "identities": suite_identities,
    "roots": suite_roots,
    "eisenstein": suite_eisenstein,
    "clt": suite_clt,
    "edgeworth": suite_edgeworth,
}


def run_suites(names, bits: int) -> list[CheckResult]:
    """Every line of the named suites at `bits`.  A raised invariant error
    (the modules raise on violated exact identities rather than returning
    falsy values) ends its suite with a FAIL record carrying the first
    counterexample, after the lines the suite already yielded."""
    results: list[CheckResult] = []
    for name in names:
        try:
            results.extend(SUITES[name](bits))
        except LslabError as exc:
            results.append(CheckResult(name=f"{name} suite aborted", passed=False, detail=str(exc)))
    return results
