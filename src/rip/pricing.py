"""Model prices: suprema of expectations over calibrated martingale measures.

The measure side mirrors the hedging side.  For a path set and an
information arrangement, the admissible measures are the probability
weights on the set under which every traded coordinate is a martingale
with respect to the agent's partition sequence, and every static option's
expected payoff matches its quoted price on each initial-capital atom.
The model price of a claim over an atom is the largest expected claim
value among those measures; an empty polytope prices the claim at
``-inf``, and the separating certificate from the solver is kept as a
witness.

Measures returned anywhere in this module are audited: the defining rows
are rechecked by direct summation before the object is handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence

from ._numeric import NEG_INF, format_number, is_neg_inf
from .errors import InternalCheckError, PreconditionError
from .information import (
    AtomTable,
    InfoStructure,
    atoms_at,
    filtration,
    market_partition,
)
from .hedging import DppDecomposition, _check_dpp_info
from .lp import Infeasible, LinearProgram, Optimal, solve_checked
from .paths import PathSpace, StaticOptionBook, fatten, min_separation
from .payoff import Expr, validate_payoff


@dataclass(frozen=True)
class MartingaleMeasure:
    """Probability weights on paths, tagged with the class they belong to.

    ``weights`` is aligned with the space's full path list (zero off the
    support).  ``interval`` is the half-open index range ``(t_from, t_to)``
    over which the martingale rows apply.
    """

    weights: tuple
    info: InfoStructure
    book: StaticOptionBook
    interval: tuple
    support: tuple

    def mass(self, paths: Iterable[int], ops) -> Any:
        return sum((self.weights[p] for p in paths), ops.zero)

    def expectation(self, values: Sequence[Any], ops) -> Any:
        return sum((w * v for w, v in zip(self.weights, values)), ops.zero)

    def audit(self, space: PathSpace) -> list:
        """Recheck every defining row by direct summation; returns violations."""
        ops = space.ops
        tol = ops.dual_tol
        problems = []
        if len(self.weights) != len(space.paths):
            return ["weight vector does not match the space"]
        support_set = set(self.support)
        for p, w in enumerate(self.weights):
            if w < -tol:
                problems.append(f"negative weight on path {p}")
            if p not in support_set and not ops.eq(w, ops.zero, tol):
                problems.append(f"weight off the support on path {p}")
        total = sum(self.weights, ops.zero) if self.weights else ops.zero
        if not ops.eq(total, ops.one, tol):
            problems.append(f"total mass {format_number(total)} is not 1")
        t_from, t_to = self.interval
        for t in range(t_from, t_to):
            for atom in atoms_at(space, self.info, t):
                for i in range(space.n_coords):
                    drift = ops.zero
                    for p in atom.paths:
                        w = self.weights[p]
                        if w != ops.zero:
                            path = space.paths[p]
                            drift = drift + w * (path.values[t + 1][i] - path.values[t][i])
                    if not ops.eq(drift, ops.zero, tol):
                        problems.append(
                            f"coordinate {i + 1} drifts on an atom at t={t}"
                        )
        if t_from == 0 and not self.book.is_cash_only:
            payoff_rows = self.book.payoff_matrix(space)
            prices = self.book.prices(ops)
            for atom in atoms_at(space, self.info, -1):
                overlap = [p for p in atom.paths if p in support_set]
                if not overlap:
                    continue
                for l in range(1, self.book.size):
                    err = sum(
                        (
                            self.weights[p] * (payoff_rows[l][p] - prices[l])
                            for p in overlap
                        ),
                        ops.zero,
                    )
                    if not ops.eq(err, ops.zero, tol):
                        problems.append(
                            f"static option {l} is mispriced on an initial atom"
                        )
        return problems


@dataclass(frozen=True)
class PriceValue:
    """Outcome for one initial-capital atom: a price and its witness."""

    value: Any
    measure: Optional[MartingaleMeasure] = None
    certificate: Optional[tuple] = None  # separating vector when the class is empty
    pivots: int = 0

    @property
    def finite(self) -> bool:
        return not is_neg_inf(self.value)


def build_measure_lp(
    space: PathSpace,
    target: Sequence[int],
    info: InfoStructure,
    book: Optional[StaticOptionBook] = None,
    interval: Optional[tuple] = None,
    claim: Optional[Expr] = None,
) -> LinearProgram:
    """The measure-class program over a path set.

    Variables are weights on ``sorted(set(target))``, in that order.  Rows:
    total mass 1, one martingale row per (time in the interval, atom
    meeting the target, coordinate), and one calibration row per non-cash
    static option and initial-capital atom meeting the target.  The
    objective maximises the claim's expectation (zero objective when
    ``claim`` is None, making it a pure feasibility program).
    """
    ops = space.ops
    book = book or StaticOptionBook.cash_only()
    vars_paths = tuple(sorted(set(target)))
    if not vars_paths:
        raise PreconditionError("cannot price over an empty path set")
    for p in vars_paths:
        if not 0 <= p < len(space.paths):
            raise PreconditionError(f"path index {p} out of range")
    t_from, t_to = interval if interval is not None else (0, space.n_steps)
    if not 0 <= t_from <= t_to <= space.n_steps:
        raise PreconditionError(f"bad interval ({t_from}, {t_to})")
    index_of = {p: k for k, p in enumerate(vars_paths)}
    n = len(vars_paths)
    fm = filtration(space, info)

    rows = [([ops.one] * n, "==", ops.one)]
    for t in range(t_from, t_to):
        for _, overlap in fm.meet(t, vars_paths):
            for i in range(space.n_coords):
                coeffs = [ops.zero] * n
                nonzero = False
                for p in overlap:
                    delta = fm.delta[t][p][i]
                    if delta != ops.zero:
                        coeffs[index_of[p]] = delta
                        nonzero = True
                if nonzero:
                    rows.append((coeffs, "==", ops.zero))
    if t_from == 0 and not book.is_cash_only:
        payoff_rows = book.payoff_matrix(space)
        prices = book.prices(ops)
        for _, overlap in fm.meet(-1, vars_paths):
            for l in range(1, book.size):
                coeffs = [ops.zero] * n
                for p in overlap:
                    coeffs[index_of[p]] = payoff_rows[l][p] - prices[l]
                rows.append((coeffs, "==", ops.zero))

    if claim is None:
        objective = [ops.zero] * n
    else:
        validate_payoff(claim, space.n_coords, space.n_steps)
        values = space.claim_values(claim)
        objective = [values[p] for p in vars_paths]
    return LinearProgram.build("max", objective, rows, ["nonneg"] * n)


def _measure_from_x(
    space: PathSpace,
    vars_paths: tuple,
    x: tuple,
    info: InfoStructure,
    book: StaticOptionBook,
    interval: tuple,
) -> MartingaleMeasure:
    ops = space.ops
    weights = [ops.zero] * len(space.paths)
    for p, w in zip(vars_paths, x):
        weights[p] = w
    measure = MartingaleMeasure(tuple(weights), info, book, interval, vars_paths)
    problems = measure.audit(space)
    if problems:
        raise InternalCheckError("measure audit failed: " + "; ".join(problems))
    return measure


def _price_table(space, atoms, target, info, claim, book, interval) -> AtomTable:
    """One price per atom meeting the target, over the paths they share."""
    target_set = set(target)
    entries = []
    for atom in atoms:
        meet = tuple(sorted(target_set.intersection(atom.paths)))
        if not meet:
            continue
        lp = build_measure_lp(space, meet, info, book, interval, claim)
        outcome = solve_checked(lp, space.ops)
        if isinstance(outcome, Optimal):
            measure = _measure_from_x(space, meet, outcome.x, info, book, interval)
            value = PriceValue(outcome.value, measure=measure, pivots=outcome.pivots)
        elif isinstance(outcome, Infeasible):
            value = PriceValue(NEG_INF, certificate=outcome.certificate, pivots=outcome.pivots)
        else:
            raise InternalCheckError("a probability-weight program cannot be unbounded")
        entries.append((atom, value))
    return AtomTable(entries)


def model_price(
    space: PathSpace,
    target: Optional[Iterable[int]],
    info: InfoStructure,
    claim: Expr,
    book: Optional[StaticOptionBook] = None,
) -> AtomTable:
    """Model price per initial-capital atom meeting the target set.

    Returns an :class:`AtomTable` of :class:`PriceValue`.  On each atom the
    price is the maximal expected claim over the atom's measure class;
    when that class is empty the value is ``-inf`` and the entry carries
    the separating certificate instead of a measure.
    """
    target = space.all_paths() if target is None else tuple(target)
    if not target:
        raise PreconditionError("cannot price over an empty path set")
    book = book or StaticOptionBook.cash_only()
    atoms = atoms_at(space, info, -1)
    return _price_table(space, atoms, target, info, claim, book, (0, space.n_steps))


def interval_price_table(
    space: PathSpace, t_from: int, info: InfoStructure, claim: Expr
) -> AtomTable:
    """Interval model prices for every market atom at ``t_from`` (cash only)."""
    atoms = market_partition(space, t_from)
    book = StaticOptionBook.cash_only()
    return _price_table(space, atoms, space.all_paths(), info, claim, book, (t_from, space.n_steps))


def condition_measure(
    space: PathSpace, measure: MartingaleMeasure, partition: Sequence
) -> list:
    """Split a measure along a partition into masses and conditional measures.

    Returns ``(atom, mass, conditional)`` triples for atoms of positive
    mass, in partition order; zero-mass atoms are omitted.  Each
    conditional keeps the parent's class tags; whether it satisfies the
    class rows on a smaller interval is the caller's concern (and what
    :meth:`MartingaleMeasure.audit` is for).
    """
    ops = space.ops
    out = []
    for atom in partition:
        mass = measure.mass(atom.paths, ops)
        if not ops.pos(mass):
            continue
        weights = [ops.zero] * len(space.paths)
        for p in atom.paths:
            weights[p] = measure.weights[p] / mass
        support = tuple(p for p in measure.support if p in set(atom.paths))
        out.append(
            (
                atom,
                mass,
                MartingaleMeasure(
                    tuple(weights), measure.info, measure.book, measure.interval, support
                ),
            )
        )
    return out


def concatenate_measure(
    space: PathSpace,
    prefix: MartingaleMeasure,
    kernels: Dict[tuple, MartingaleMeasure],
    split: int,
) -> MartingaleMeasure:
    """Recombine a prefix measure with per-atom tail measures at ``split``.

    ``kernels`` maps the path tuple of each market atom at ``split`` to a
    measure supported inside that atom; atoms carrying prefix mass must
    have a kernel, and a kernel with weight outside its atom is an error.
    The result gives each path its atom's prefix mass times its kernel
    weight, and is tagged with the kernels' information arrangement over
    the full interval.
    """
    ops = space.ops
    weights = [ops.zero] * len(space.paths)
    info = None
    for atom in market_partition(space, split):
        mass = prefix.mass(atom.paths, ops)
        if not ops.pos(mass):
            continue
        kernel = kernels.get(atom.paths)
        if kernel is None:
            raise PreconditionError(
                f"no tail kernel for an atom at t={split} carrying mass "
                f"{format_number(mass)}"
            )
        atom_set = set(atom.paths)
        for p, w in enumerate(kernel.weights):
            if w == ops.zero:
                continue
            if p not in atom_set:
                raise PreconditionError(
                    f"kernel for an atom at t={split} puts weight on path {p} outside it"
                )
            weights[p] = mass * w
        info = info or kernel.info
    support = tuple(p for p, w in enumerate(weights) if w != ops.zero)
    return MartingaleMeasure(
        tuple(weights),
        info or prefix.info,
        prefix.book,
        (0, space.n_steps),
        support,
    )


# ---------------------------------------------------------------------------
# approximate classes


def _approx_lp(
    space: PathSpace,
    support: Sequence[int],
    eta,
    claim: Expr,
    book: StaticOptionBook,
) -> LinearProgram:
    ops = space.ops
    eta = ops.convert(eta)
    if eta < 0:
        raise PreconditionError("the relaxation radius must be nonnegative")
    slack = eta - eta / 1000  # strict interior margin: mass and calibration slack
    fat = set(fatten(space, support, eta))
    n = len(space.paths)

    base = build_measure_lp(
        space, space.all_paths(), InfoStructure.none(), None, (0, space.n_steps), claim
    )
    rows = [row for row in base.rows]
    mass_row = [ops.one if p in fat else ops.zero for p in range(n)]
    rows.append((mass_row, ">=", ops.one - slack))
    if not book.is_cash_only:
        payoff_rows = book.payoff_matrix(space)
        prices = book.prices(ops)
        for l in range(1, book.size):
            coeffs = [payoff_rows[l][p] - prices[l] for p in range(n)]
            rows.append((coeffs, "<=", slack))
            rows.append((coeffs, ">=", -slack))
    return LinearProgram.build("max", base.objective, rows, base.bounds)


def approx_price(
    space: PathSpace,
    support: Iterable[int],
    eta,
    claim: Expr,
    book: Optional[StaticOptionBook] = None,
) -> Any:
    """Price over the relaxed class around a support set.

    Measures are market-filtration martingales on the whole space carrying
    mass at least ``1 - eta`` (plus a strict margin of ``eta / 1000``) on
    the ``eta``-fattening of the support, with every static option priced
    within the same margin of its quote.  Returns ``-inf`` when even the
    relaxed class is empty.  At ``eta = 0`` this is the exact
    support-constrained calibrated price.
    """
    book = book or StaticOptionBook.cash_only()
    lp = _approx_lp(space, tuple(support), eta, claim, book)
    outcome = solve_checked(lp, space.ops)
    if isinstance(outcome, Optimal):
        return outcome.value
    if isinstance(outcome, Infeasible):
        return NEG_INF
    raise InternalCheckError("a probability-weight program cannot be unbounded")


def approx_price_limit(
    space: PathSpace,
    support: Iterable[int],
    claim: Expr,
    book: Optional[StaticOptionBook] = None,
    max_halvings: int = 80,
) -> Any:
    """The exact limit of :func:`approx_price` as the radius shrinks to zero.

    Exact mode only.  Starts below the smallest distance at which the
    fattened support could change and halves the radius; on each step a
    two-point linear extrapolation to radius zero is computed, and once
    two consecutive extrapolations agree exactly the shared value is
    returned.  The relaxed value is piecewise linear in the radius with
    finitely many breakpoints, so below the smallest one the extrapolation
    is exact and the loop stops.  A ``-inf`` at any radius is final (the
    class only shrinks), and is returned at once.
    """
    if space.mode != "rational":
        raise PreconditionError("the exact limit needs rational mode")
    book = book or StaticOptionBook.cash_only()
    support = tuple(sorted(set(support)))
    sep = min_separation(space)
    eta = (sep if sep is not None else space.ops.one) / 2

    previous_extrapolation = None
    v_here = approx_price(space, support, eta, claim, book)
    for _ in range(max_halvings):
        if is_neg_inf(v_here):
            return NEG_INF
        v_half = approx_price(space, support, eta / 2, claim, book)
        if is_neg_inf(v_half):
            return NEG_INF
        extrapolation = v_half + (v_half - v_here)
        if previous_extrapolation is not None and extrapolation == previous_extrapolation:
            return extrapolation
        previous_extrapolation = extrapolation
        v_here = v_half
        eta = eta / 2
    raise InternalCheckError(
        "radius extrapolation did not stabilise; no affine segment was reached"
    )


# ---------------------------------------------------------------------------
# two-stage decomposition


def dpp_price(
    space: PathSpace, claim: Expr, split: int, info: InfoStructure
) -> DppDecomposition:
    """Compare direct pricing with pricing the interval-price table at ``split``.

    Requires every market atom at the split to carry at least one interval
    measure (checked first; a bare atom is a precondition failure, since
    the composed route would have nothing to average there).  The composed
    value maximises, over prefix measures up to the split, the expected
    interval price of the atom reached.  Cash only.
    """
    _check_dpp_info(space, info, split)
    ops = space.ops
    book = StaticOptionBook.cash_only()

    inner = interval_price_table(space, split, info, claim)
    for atom, pv in inner:
        if not pv.finite:
            raise PreconditionError(
                f"no interval measure lives on the atom at t={split} containing "
                f"path {atom.paths[0]}; the two-stage price is undefined there"
            )

    direct = model_price(space, None, info, claim, book).single().value

    n = len(space.paths)
    base = build_measure_lp(
        space, space.all_paths(), info, book, (0, split), None
    )
    floor = [inner.for_path(p).value for p in range(n)]
    lp = LinearProgram.build("max", floor, base.rows, base.bounds)
    outcome = solve_checked(lp, ops)
    composed = outcome.value if isinstance(outcome, Optimal) else NEG_INF
    return DppDecomposition(direct, composed, split, inner, space.mode)


__all__ = [
    "MartingaleMeasure",
    "PriceValue",
    "build_measure_lp",
    "model_price",
    "interval_price_table",
    "condition_measure",
    "concatenate_measure",
    "approx_price",
    "approx_price_limit",
    "dpp_price",
]
