"""Traced child: run one bopcalc command with each layer's entry points wrapped.

Usage: python tracer.py TRACE_FILE ARG...

Runs ``bopcalc.cli.main(ARG...)`` in this process, as ``python -m
bopcalc ARG...`` would, and writes per-span counters to TRACE_FILE as
JSON.  The program's source is not edited: after import, every module
attribute of the ``bopcalc`` package that is one of the functions in
``SPANS`` is replaced by a wrapper, and the series operators are wrapped
on ``TruncatedSeries`` itself.  Modules that bind a function by name
(``from .algebra import poincare_series``) are covered because every
attribute holding the same function object is replaced.

A span's self time is its duration minus the time its child spans
cover; time in private helpers lands in the calling span.  The tracer's
own bookkeeping (input keys, term counts) runs outside the timed
interval and is reported as ``bookkeeping_s``, so that

    sum(self_s) + bookkeeping_s == duration of the cli.main wrapper

holds exactly, and the child's wall time minus that duration is the
process start-up and shut-down time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from time import perf_counter

import bopcalc  # noqa: F401  (imports every layer module)
import bopcalc.cli
from bopcalc.algebra import GeneratorTable
from bopcalc.series import TruncatedSeries

# (span name, module, attribute, record distinct inputs)
SPANS = (
    ("cli.main", "bopcalc.cli", "main", False),
    ("series.mul", "bopcalc.series", "TruncatedSeries.__mul__", True),
    ("series.invert", "bopcalc.series", "TruncatedSeries.invert", True),
    ("series.addsub", "bopcalc.series", "TruncatedSeries.__add__", False),
    ("series.addsub", "bopcalc.series", "TruncatedSeries.__sub__", False),
    ("series.product_over", "bopcalc.series", "product_over", True),
    ("series.make_polynomial", "bopcalc.series", "make_polynomial", False),
    ("algebra.poincare_series", "bopcalc.algebra", "poincare_series", True),
    ("algebra.extract_generators", "bopcalc.algebra", "extract_generators",
     True),
    ("algebra.tor_suspend", "bopcalc.algebra", "tor_suspend", False),
    ("catalog.homotopy_profile", "bopcalc.catalog", "homotopy_profile", True),
    ("towers.rank_rule_homology", "bopcalc.towers", "rank_rule_homology",
     True),
    ("towers.bop_tower", "bopcalc.towers", "bop_tower", False),
    ("towers.ses_quotient", "bopcalc.towers", "ses_quotient", False),
    ("towers.bss_iterate", "bopcalc.towers", "bss_iterate", False),
    ("splitting.head_series", "bopcalc.splitting", "head_series", False),
    ("splitting.layer_series", "bopcalc.splitting", "layer_series", False),
    ("splitting.tail_series", "bopcalc.splitting", "tail_series", False),
    ("conjecture.steenrod_series", "bopcalc.conjecture", "steenrod_series",
     True),
    ("conjecture.milnor_quotient_series", "bopcalc.conjecture",
     "milnor_quotient_series", True),
    ("conjecture.milnor_sq2_quotient_series", "bopcalc.conjecture",
     "milnor_sq2_quotient_series", True),
    ("conjecture.conjectured_bopn_cohomology", "bopcalc.conjecture",
     "conjectured_bopn_cohomology", False),
    ("reports.run_check", "bopcalc.reports", "run_check", False),
    ("reports.first_mismatch", "bopcalc.reports", "first_mismatch", False),
)

# Spans whose result is a series feed max_coeff_bits and max_truncation.
_KERNEL = ("series.mul", "series.invert", "series.addsub",
           "series.product_over", "series.make_polynomial")


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = [[0.0]]  # child time covered, per open span
        self.bookkeeping = 0.0
        self.terms = 0
        self.max_bits = 0
        self.max_truncation = 0

    def wrap(self, name, fn, distinct):
        stat = self.stats.setdefault(
            name, {"calls": 0, "self_s": 0.0, "inputs": set()})
        kernel = name in _KERNEL
        is_mul = name == "series.mul"
        is_product = name == "series.product_over"
        stack = self.stack

        def wrapper(*args, **kwargs):
            b0 = perf_counter()
            if is_product:
                consumed = []
                args = (_recording(args[0], consumed),) + args[1:]
            elif distinct:
                key = hash(_key((args, sorted(kwargs.items()))))
            if is_mul:
                self.terms += _mul_terms(*args)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stat["calls"] += 1
                stat["self_s"] += (t1 - t0) - frame[0]
                if is_product:
                    key = hash((tuple(consumed), _key(args[1:])))
                if distinct:
                    stat["inputs"].add(key)
                b1 = perf_counter()
                self.bookkeeping += (t0 - b0) + (b1 - t1)
                stack[-1][0] += b1 - b0
            if kernel:
                b2 = perf_counter()
                coeffs = result.coefficients
                self.max_truncation = max(self.max_truncation,
                                          result.truncation)
                self.max_bits = max(self.max_bits,
                                    max(map(abs, coeffs)).bit_length())
                b3 = perf_counter()
                self.bookkeeping += b3 - b2
                stack[-1][0] += b3 - b2
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "bopcalc" or n.startswith("bopcalc.")]
        for name, module_name, attr, distinct in SPANS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr),
                                             distinct))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, distinct)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    def report(self):
        return {
            "main_s": self.stack[0][0],
            "bookkeeping_s": self.bookkeeping,
            "spans": {name: {"calls": s["calls"], "self_s": s["self_s"],
                             "distinct": len(s["inputs"])}
                      for name, s in self.stats.items()},
            "series.mul.terms": self.terms,
            "series.max_coeff_bits": self.max_bits,
            "series.max_truncation": self.max_truncation,
        }


def _recording(factors, consumed):
    for factor in factors:
        consumed.append(factor)
        yield factor


def _key(value):
    """A hashable stand-in for a call's inputs, compared by value."""
    if isinstance(value, TruncatedSeries):
        return (value.truncation, value.coefficients)
    if isinstance(value, GeneratorTable):
        return (value.kind, tuple(sorted(value.counts.items())),
                value.component_rank, value.truncation)
    if isinstance(value, (tuple, list)):
        return tuple(_key(v) for v in value)
    return value


def _mul_terms(a, b):
    """Multiply-adds TruncatedSeries.__mul__ performs for a * b: it walks
    the operand with fewer nonzero terms and, for each of its terms at
    degree d, the nonzero coefficients of the other at degrees <= N - d."""
    sparse, dense = a.coefficients, b.coefficients
    if sum(map(bool, dense)) < sum(map(bool, sparse)):
        sparse, dense = dense, sparse
    nonzero_below = list(itertools.accumulate(map(bool, dense), initial=0))
    n = a.truncation
    return sum(nonzero_below[n - d + 1] for d, c in enumerate(sparse) if c)


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        status = bopcalc.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    sys.exit(status)


if __name__ == "__main__":
    main()
