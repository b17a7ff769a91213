"""In-process tracer for one traced `lslab` op, and the per-layer metrics.

`install` wraps lslab functions before the CLI runs.  A span target is
timed; a count target is only counted.  Every module-level reference to a
wrapped function is rebound too: names imported with `from .x import y`
(such as `clt.modified_legendre_row`) and values of module-level dicts
(such as `verify.SUITES`).  A target that no longer exists at its place is
recorded as absent instead of failing the op, so the benchmark keeps
running when a later change deletes or moves a function.

Spans are aggregated as they close: per stem, the number of calls and the
self time, which is a span's duration minus the part of it covered by its
child spans.  Self times of all stems therefore never double count.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

SPAN, COUNT = "span", "count"

# (stem, module under lslab, attribute, kind)
TARGETS = (
    ("triangles.row", "triangles", "modified_legendre_row", SPAN),
    ("triangles.entry", "triangles", "jacobi_stirling", SPAN),
    ("triangles.entry", "triangles", "jacobi_stirling_explicit", SPAN),
    ("triangles.entry", "triangles", "legendre_stirling_altsum", SPAN),
    ("triangles.entry", "triangles", "legendre_stirling_binsum", SPAN),
    ("triangles.entry", "triangles", "chebyshev_stirling_binsum", SPAN),
    ("triangles.entry", "triangles", "modified_legendre", SPAN),
    ("triangles.entry", "triangles", "legendre_from_chebyshev_odd", SPAN),
    ("triangles.entry", "triangles", "legendre_from_chebyshev_even", SPAN),
    ("triangles.export", "triangles", "iter_triangle", SPAN),
    ("genpoly.poly", "genpoly", "legendre_genpoly", SPAN),
    ("genpoly.poly", "genpoly", "legendre_genpoly_fast", SPAN),
    ("genpoly.poly", "genpoly", "chebyshev_genpoly", SPAN),
    ("genpoly.poly", "genpoly", "legendre_genpoly_recurrence", SPAN),
    ("genpoly.poly", "genpoly", "genpoly_from_connection", SPAN),
    ("genpoly.unimodality", "genpoly", "unimodality_report", SPAN),
    ("sturm.certify", "sturm", "certify_roots", SPAN),
    ("sturm.refine", "sturm", "refine_roots", SPAN),
    ("sturm.sign_at", "sturm", "sign_at", COUNT),
    ("sturm.chain", "sturm", "sturm_chain", COUNT),
    ("laplace.closed_form", "laplace", "laplace_closed_form", COUNT),
    ("laplace.saddle_check", "laplace", "saddle_expansion_check", SPAN),
    ("laplace.normalized_value", "laplace", "normalized_value", SPAN),
    ("eisenstein.zeta", "eisenstein", "zeta_series", SPAN),
    ("eisenstein.tail_bound", "eisenstein", "tail_bound", SPAN),
    ("eisenstein.lattice", "eisenstein", "eisenstein_chebyshev", SPAN),
    ("eisenstein.lattice", "eisenstein", "eisenstein_legendre", SPAN),
    ("eisenstein.lattice", "eisenstein", "certified_legendre", SPAN),
    ("eisenstein.lattice", "eisenstein", "certified_chebyshev", SPAN),
    ("clt.saddle_constant", "clt", "saddle_constant", SPAN),
    ("clt.cdf", "clt", "scaled_cdf", SPAN),
    ("clt.cdf", "clt", "scaled_cdf_detail", SPAN),
    ("clt.cdf", "clt", "normal_cdf", SPAN),
    ("clt.ratio", "clt", "ratio_check", SPAN),
    ("clt.ratio", "clt", "normal_approximation", SPAN),
    ("clt.residual", "clt", "mean_variance_residuals", SPAN),
    ("clt.residual", "clt", "max_density_residual", SPAN),
    ("edgeworth.distribution", "edgeworth", "distribution", SPAN),
    ("edgeworth.distribution", "edgeworth", "probabilities_from_roots", SPAN),
    ("edgeworth.cumulants", "edgeworth", "cumulants_from_genpoly", SPAN),
    ("edgeworth.cumulants", "edgeworth", "cumulants_from_probabilities", SPAN),
    ("edgeworth.expansion", "edgeworth", "density_expansion", SPAN),
    ("verify.identities", "verify", "suite_identities", SPAN),
    ("verify.roots", "verify", "suite_roots", SPAN),
    ("verify.eisenstein", "verify", "suite_eisenstein", SPAN),
    ("verify.clt", "verify", "suite_clt", SPAN),
    ("verify.edgeworth", "verify", "suite_edgeworth", SPAN),
    ("verify.run", "verify", "run_suites", COUNT),
    ("cache.load", "cache", "load_or_build", COUNT),
    ("cache.read", "cache", "read_cache", SPAN),
    ("cache.write", "cache", "write_cache", SPAN),
)

# Stems whose distinct argument tuples are counted: a memo would turn the
# repeats into hits, so distinct / calls is the useful share of the work.
DISTINCT = frozenset({"triangles.row", "eisenstein.zeta", "clt.saddle_constant"})


def _chain_bits(rec, args, chain):
    bits = max((abs(c).bit_length() for p in chain for c in p), default=0)
    rec.maxima["sturm.chain_max_bits"] = max(rec.maxima["sturm.chain_max_bits"], bits)


def _checks(rec, args, results):
    rec.counters["verify.checks"] += len(results)
    rec.counters["verify.checks_failed"] += sum(1 for r in results if not r.passed)


def _cache_outcome(rec, args, result):
    _, from_cache, corrupted = result
    outcome = "corrupt" if corrupted else "hits" if from_cache else "misses"
    rec.counters[f"cache.{outcome}"] += 1


def _bytes_written(rec, args, result):
    rec.counters["cache.bytes_written"] += os.path.getsize(args["path"])


RESULT_HOOKS = {
    "sturm.chain": _chain_bits,
    "verify.run": _checks,
    "cache.load": _cache_outcome,
    "cache.write": _bytes_written,
}


class Recorder:
    """Span stack plus per-stem aggregates for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.distinct = defaultdict(set)
        self.absent: list[str] = []
        self._open: list[list] = []  # [stem, start, time covered by children]

    def enter(self, stem: str) -> None:
        self._open.append([stem, self.clock(), 0.0])

    def exit(self) -> None:
        stem, start, covered = self._open.pop()
        duration = self.clock() - start
        self.self_s[stem] += duration - covered
        if self._open:
            self._open[-1][2] += duration

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "distinct": {stem: len(keys) for stem, keys in self.distinct.items()},
            "absent": list(self.absent),
        }


def _wrap(rec: Recorder, stem: str, kind: str, fn):
    hook = RESULT_HOOKS.get(stem)
    signature = inspect.signature(fn) if hook or stem in DISTINCT else None

    if inspect.isgeneratorfunction(fn):
        # One span per resumption, so the consumer's time between items is
        # not charged to the generator.
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            rec.calls[stem] += 1
            it = fn(*args, **kwargs)
            while True:
                rec.enter(stem)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.exit()
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[stem] += 1
        bound = None
        if signature is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if stem in DISTINCT:
                rec.distinct[stem].add(repr(tuple(bound.arguments.values())))
        if kind == SPAN:
            rec.enter(stem)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
        else:
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(rec, bound.arguments, result)
        return result

    return wrapper


def _rebind(module, old, new) -> None:
    for name, value in list(vars(module).items()):
        if value is old:
            setattr(module, name, new)
        elif type(value) is dict:
            for key, item in value.items():
                if item is old:
                    value[key] = new


def install(rec: Recorder, package: str = "lslab", targets=TARGETS) -> None:
    """Wrap every target found among the already imported modules of
    `package`; record the others in rec.absent."""
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    for stem, module_name, attr, kind in targets:
        module = sys.modules.get(f"{package}.{module_name}")
        fn = getattr(module, attr, None)
        if not inspect.isfunction(fn):
            rec.absent.append(f"{module_name}.{attr}")
            continue
        wrapped = _wrap(rec, stem, kind, fn)
        for mod in modules:
            _rebind(mod, fn, wrapped)


# Per-layer metrics read from the traced ops' summaries:
# (metric, summary field, key, unit).
LAYER_METRICS = (
    ("triangles.row_calls", "calls", "triangles.row", "count"),
    ("triangles.row_distinct_n", "distinct", "triangles.row", "count"),
    ("triangles.row_s", "self_s", "triangles.row", "s"),
    ("triangles.entry_calls", "calls", "triangles.entry", "count"),
    ("triangles.entry_s", "self_s", "triangles.entry", "s"),
    ("triangles.export_s", "self_s", "triangles.export", "s"),
    ("genpoly.poly_calls", "calls", "genpoly.poly", "count"),
    ("genpoly.poly_s", "self_s", "genpoly.poly", "s"),
    ("genpoly.unimodality_s", "self_s", "genpoly.unimodality", "s"),
    ("sturm.certify_calls", "calls", "sturm.certify", "count"),
    ("sturm.certify_s", "self_s", "sturm.certify", "s"),
    ("sturm.refine_s", "self_s", "sturm.refine", "s"),
    ("sturm.sign_at_calls", "calls", "sturm.sign_at", "count"),
    ("sturm.chain_max_bits", "maxima", "sturm.chain_max_bits", "bits"),
    ("laplace.closed_form_calls", "calls", "laplace.closed_form", "count"),
    ("laplace.saddle_check_s", "self_s", "laplace.saddle_check", "s"),
    ("laplace.normalized_value_s", "self_s", "laplace.normalized_value", "s"),
    ("eisenstein.zeta_calls", "calls", "eisenstein.zeta", "count"),
    ("eisenstein.zeta_distinct_args", "distinct", "eisenstein.zeta", "count"),
    ("eisenstein.zeta_s", "self_s", "eisenstein.zeta", "s"),
    ("eisenstein.tail_bound_s", "self_s", "eisenstein.tail_bound", "s"),
    ("eisenstein.lattice_s", "self_s", "eisenstein.lattice", "s"),
    ("clt.saddle_constant_calls", "calls", "clt.saddle_constant", "count"),
    ("clt.saddle_constant_distinct_bits", "distinct", "clt.saddle_constant", "count"),
    ("clt.saddle_constant_s", "self_s", "clt.saddle_constant", "s"),
    ("clt.cdf_s", "self_s", "clt.cdf", "s"),
    ("clt.ratio_s", "self_s", "clt.ratio", "s"),
    ("clt.residual_s", "self_s", "clt.residual", "s"),
    ("edgeworth.distribution_s", "self_s", "edgeworth.distribution", "s"),
    ("edgeworth.cumulants_s", "self_s", "edgeworth.cumulants", "s"),
    ("edgeworth.expansion_calls", "calls", "edgeworth.expansion", "count"),
    ("edgeworth.expansion_s", "self_s", "edgeworth.expansion", "s"),
    ("verify.identities_s", "self_s", "verify.identities", "s"),
    ("verify.roots_s", "self_s", "verify.roots", "s"),
    ("verify.eisenstein_s", "self_s", "verify.eisenstein", "s"),
    ("verify.clt_s", "self_s", "verify.clt", "s"),
    ("verify.edgeworth_s", "self_s", "verify.edgeworth", "s"),
    ("verify.checks", "counters", "verify.checks", "count"),
    ("verify.checks_failed", "counters", "verify.checks_failed", "count"),
    ("cache.hits", "counters", "cache.hits", "count"),
    ("cache.misses", "counters", "cache.misses", "count"),
    ("cache.corrupt", "counters", "cache.corrupt", "count"),
    ("cache.read_s", "self_s", "cache.read", "s"),
    ("cache.write_s", "self_s", "cache.write", "s"),
    ("cache.bytes_written", "counters", "cache.bytes_written", "bytes"),
)


def layer_metrics(summaries: list[dict]) -> dict:
    """Sum the per-op summaries (maxima take the max) into the named
    per-layer metrics; a stem nobody reported reads 0."""
    metrics = {}
    for name, field, key, unit in LAYER_METRICS:
        values = [s[field].get(key, 0) for s in summaries]
        value = max(values, default=0) if field == "maxima" else sum(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def absent(summaries: list[dict]) -> list[str]:
    """Wrapped names that some traced op did not find."""
    return sorted({name for s in summaries for name in s["absent"]})
