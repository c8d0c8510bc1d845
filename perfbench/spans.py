"""Spans recorded from outside the program, and their self-time arithmetic.

A traced pass replaces public functions of ``rip`` with thin wrappers, at
every module name where the program looks them up: ``solve_checked``
reaches ``solve`` and ``verify_certificate`` through ``rip.lp``'s globals,
and ``atoms_at`` is imported into ``rip.hedging`` and ``rip.pricing``, so
each of those names is wrapped.  A wrapper records a span (name, start,
end, parent) in memory; the spans are summed, and written out, only after
the pass.  Counts are read off the public objects a call returns.

A lookup point the program no longer defines stops the traced run with a
``LookupError``: a refactor that moves a function must move its lookup
point here too, rather than have its layer read as 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

RIP_MODULES = ("cli", "hedging", "information", "lp", "modelfile", "paths", "payoff",
               "pricing", "report", "valuation")

# (layer name, lookup points).  A lookup point is (module or class path
# under ``rip``, attribute); the first one is where the function lives.
LAYERS = (
    ("lp.solve", (("lp", "solve"),)),
    ("lp.verify", (("lp", "verify_certificate"),)),
    ("information.atoms_at", (("information", "atoms_at"), ("hedging", "atoms_at"),
                              ("pricing", "atoms_at"))),
    ("hedging.build", (("hedging", "build_hedge_problem"),)),
    ("pricing.build", (("pricing", "build_measure_lp"), ("valuation", "build_measure_lp"))),
    ("hedging.superhedge", (("hedging", "superhedge"), ("valuation", "superhedge"),
                            ("cli", "superhedge"))),
    ("pricing.model_price", (("pricing", "model_price"), ("valuation", "model_price"),
                             ("cli", "model_price"))),
    ("hedging.extract", (("hedging", "extract_strategy"),)),
    ("pricing.audit", (("pricing.MartingaleMeasure", "audit"),)),
    ("hedging.dpp", (("hedging", "dpp_superhedge"), ("cli", "dpp_superhedge"))),
    ("pricing.dpp", (("pricing", "dpp_price"), ("cli", "dpp_price"))),
    ("valuation.chain", (("valuation", "chain_quantities"), ("cli", "chain_quantities"))),
    ("valuation.duality_report", (("valuation", "duality_report"), ("cli", "duality_report"))),
    ("valuation.info_value", (("valuation", "info_value_report"), ("cli", "info_value_report"))),
    ("paths.claim_values", (("paths.PathSpace", "claim_values"),)),
    ("payoff.parse", (("payoff", "parse_payoff"), ("modelfile", "parse_payoff"),
                      ("information", "parse_payoff"), ("paths", "parse_payoff"))),
    ("modelfile.load", (("modelfile", "load_model"), ("cli", "load_model"))),
    ("report.to_text", (("report", "to_text"), ("cli", "to_text"))),
    ("cli.main", (("cli", "main"),)),
)

# layers whose calls are counted as well as timed
CALLS_COUNTED = ("information.atoms_at", "paths.claim_values")

LP_COUNTS = ("lp.solves", "lp.pivots", "lp.rows", "lp.cols", "lp.nonzeros",
             "lp.optimal", "lp.infeasible", "lp.unbounded")

OVERHEAD = "trace.count"  # time the recorder spends counting, kept out of every layer


class Recorder:
    """Wraps every lookup point of ``LAYERS`` and collects spans and counts.

    ``modules`` maps short names (``"lp"``) to the modules of ``rip``.  The
    wrappers are built once and put in place by ``installed()``, only for
    as long as its ``with`` block runs.
    """

    def __init__(self, modules):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self._patches = []  # (owner, attribute, original, wrapper)
        for layer, points in LAYERS:
            counter = _count_solve if layer == "lp.solve" else None
            if layer in CALLS_COUNTED:
                counter = _call_counter(layer + "_calls")
            wrappers = {}  # one per function object, shared by its lookup points
            for where, attr in points:
                owner = _resolve(modules, where)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    raise LookupError(f"rip.{where}.{attr}, a lookup point of layer {layer}, "
                                      "is gone; update spans.LAYERS")
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.span(layer, original, counter)
                self._patches.append((owner, attr, original, wrappers[id(original)]))

    def span(self, name, fn, counter=None):
        """Wrap ``fn`` so that every call records a span named ``name``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                self._count(counter, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, counter, args, result):
        record = [OVERHEAD, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(record)
        counter(self.counts, args, result)
        record[2] = time.perf_counter()

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)


def rip_modules():
    """Import every module of ``rip`` that holds a lookup point, by short name."""
    return {name: importlib.import_module("rip." + name) for name in RIP_MODULES}


def _resolve(rip_modules, where):
    module, _, cls = where.partition(".")
    owner = rip_modules.get(module)
    if owner is not None and cls:
        owner = getattr(owner, cls, None)
    return owner


def _call_counter(name):
    def count(counts, args, result):
        counts[name] += 1

    return count


def _count_solve(counts, args, outcome):
    lp = args[0]
    counts["lp.solves"] += 1
    counts["lp.pivots"] += getattr(outcome, "pivots", 0)
    counts["lp.rows"] += len(lp.rows)
    counts["lp.cols"] += len(lp.objective)
    counts["lp.nonzeros"] += sum(1 for coeffs, _, _ in lp.rows for c in coeffs if c)
    kind = type(outcome).__name__.lower()
    if kind in ("optimal", "infeasible", "unbounded"):
        counts["lp." + kind] += 1


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per-name self time, and the time covered by top-level spans.

    A span's self time is its duration minus the part of it that its
    child spans cover.  Summed over every span, self times equal the union
    of the top-level spans; what a timed region spends outside them is its
    untraced remainder.
    """
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals = Counter()
    roots = []
    for index, (name, start, end, parent) in enumerate(spans):
        totals[name] += (end - start) - covered(children.get(index, ()))
        if parent < 0:
            roots.append((start, end))
    return totals, covered(roots)


def layer_metrics(recorder, traced_wall, untraced_wall):
    """The per-layer metrics of one traced pass.

    ``traced_wall`` is the pass's timed wall time with the wrappers in,
    ``untraced_wall`` the same questions' time without them.
    """
    totals, rooted = self_times(recorder.spans)
    metrics = {}
    for layer, _ in LAYERS:
        metrics[layer + "_s"] = (totals.get(layer, 0.0), "s")
    for name in CALLS_COUNTED:
        metrics[name + "_calls"] = (recorder.counts.get(name + "_calls", 0), "count")
    for name in LP_COUNTS:
        metrics[name] = (recorder.counts.get(name, 0), "count")
    metrics["trace.remainder_s"] = (traced_wall - rooted, "s")
    metrics["trace.count_s"] = (totals.get(OVERHEAD, 0.0), "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics
