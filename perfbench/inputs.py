"""Seeded inputs for the three workloads, as plain data.

Nothing here imports ``rip``: a workload's inputs are a function of its
seed alone, and the package only ever sees what these functions return.

``_random_spec`` draws the same random numbers, in the same order, as the
``random_spec`` generator behind acceptance criterion 1 in
``tests/test_acceptance.py``, so ``CORPUS_SEED`` gives exactly that
criterion's 200 lattices, variants and labels.  It is a copy rather than an
import so that an edit to the test module cannot silently change the
benchmark.  Each spec also carries the claim and the label as data, which
the independent reference in ``reference.py`` evaluates without parsing
payoff text.

The run's seed redraws every claim's strike; it leaves the lattices alone.
Corpora drawn whole from different seeds took from 16 s to 60 s on one
machine, because the count of 256-path lattices among 200 draws ranges
from 3 to 10, and a benchmark whose work moves that much with its seed
cannot show a change of a few per cent.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

RATIO_POOL = ["1/4", "1/3", "1/2", "2/3", "1", "3/2", "2", "3"]
RATIO_VALUES = {r: Fraction(r) for r in RATIO_POOL}
CORPUS_SIZE = 200
CORPUS_SEED = 12  # criterion 1's seed
VARIANTS = ["none", "plus", "minus", "dynamic"]

# the trinomial lattice of the `lattice` workload, and its two sizes
TRINOMIAL = ["1/2", "1", "2"]
LATTICE_EXACT_STEPS = 5
LATTICE_FLOAT_STEPS = 6


def lit(value) -> str:
    """Render an exact number as payoff-expression text."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"({f.numerator}/{f.denominator})"


def _pick_ratios(rng, straddle):
    while True:
        size = rng.choice([2, 2, 3, 3, 4])
        ratios = sorted(rng.sample(RATIO_POOL, size), key=RATIO_VALUES.get)
        if not straddle:
            return ratios
        if RATIO_VALUES[ratios[0]] <= 1 <= RATIO_VALUES[ratios[-1]]:
            return ratios


@functools.lru_cache(maxsize=None)
def _terminals(ratios):
    """Terminal values of a lattice on the tuple ``ratios``, and those values
    with the midpoints between them: where a claim's strike can sit."""
    steps = [RATIO_VALUES[r] for r in ratios]
    factors = steps + [Fraction(1)]
    values = sorted({Fraction(1)} | {a * b * c for a in steps for b in factors for c in factors})
    return values, values + [(x + y) / 2 for x, y in zip(values, values[1:])]


def _draw_strike(rng, ratios):
    return rng.choice(_terminals(tuple(ratios))[1])


def _claim(spec, rng):
    """Fill in the claim text (and a corridor's upper end) for the spec's strike."""
    kind, strike = spec["kind"], spec["strike"]
    spec["upper"] = None
    if kind == "call":
        spec["claim"] = f"pos(S[1,T] - {lit(strike)})"
    elif kind == "put":
        spec["claim"] = f"pos({lit(strike)} - S[1,T])"
    elif kind == "digital":
        spec["claim"] = f"ind(S[1,T] >= {lit(strike)})"
    else:
        spec["upper"] = upper = strike * rng.choice([2, 3])
        spec["claim"] = f"ind(S[1,T] > {lit(strike)}) * ind(S[1,T] < {lit(upper)})"


def _random_spec(rng, straddle):
    n_steps = rng.choice([1, 1, 2, 2, 2, 3, 3, 4])
    ratios = _pick_ratios(rng, straddle)
    variant = rng.choice([v for v in VARIANTS if v != "dynamic" or n_steps >= 2])
    terminals = _terminals(tuple(ratios))[0]
    spec = {"n_steps": n_steps, "ratios": ratios, "variant": variant}
    spec["strike"] = _draw_strike(rng, ratios)
    spec["kind"] = rng.choice(["call", "put", "digital", "corridor"])
    _claim(spec, rng)
    if variant == "dynamic":
        spec["arrival"] = rng.randrange(1, n_steps)
        spec["var"] = rng.choice(["tail-max", "tail-range"])
    elif variant in ("plus", "minus"):
        spec["var"] = rng.choice(["maxdev", "range", "digital-label"])
        spec["var_strike"] = rng.choice(terminals)
    return spec


def corpus_specs(seed: int) -> list:
    """Criterion 1's 200 lattices, each with its claim's strike drawn from ``seed``.

    The claim's kind stays; a corridor's width is drawn again with it.
    Every lattice is asked in both numeric modes.
    """
    _terminals.cache_clear()  # every generation pays for its own
    template = random.Random(CORPUS_SEED)
    specs = [_random_spec(template, straddle=template.random() < 0.6)
             for _ in range(CORPUS_SIZE)]
    rng = random.Random(seed)
    for spec in specs:
        spec["strike"] = _draw_strike(rng, spec["ratios"])
        _claim(spec, rng)
        spec["modes"] = ("rational", "float")
    return specs


def lattice_specs(seed: int) -> list:
    """The large trinomial programs, in a seeded order.

    The programs themselves do not depend on the seed: the workload is a
    fixed scaling point, and only the order in which they are asked moves.
    """
    base = {
        "ratios": TRINOMIAL,
        "kind": "call",
        "strike": Fraction(1),
        "upper": None,
        "claim": "pos(S[1,T] - 1)",
    }
    specs = [
        dict(base, n_steps=LATTICE_EXACT_STEPS, variant="none", modes=("rational",)),
        dict(base, n_steps=LATTICE_EXACT_STEPS, variant="plus", var="maxdev",
             modes=("rational",)),
        dict(base, n_steps=LATTICE_EXACT_STEPS, variant="dynamic", var="tail-max",
             arrival=2, modes=("rational",)),
        dict(base, n_steps=LATTICE_FLOAT_STEPS, variant="none", modes=("float",)),
    ]
    random.Random(seed).shuffle(specs)
    return specs
