"""Model prices: suprema of expectations over calibrated martingale measures.

The measure side mirrors the hedging side.  For a path set and an
information arrangement, the admissible measures are the probability
weights on the set under which every traded coordinate is a martingale
with respect to the agent's partition sequence, and every static option's
expected payoff matches its quoted price on each initial-capital atom.
The model price of a claim over an atom is the largest expected claim
value among those measures; an empty polytope prices the claim at
``-inf``, and the separating certificate from the solver is kept as a
witness.  Price tables come from the hedge tables' staged walk, with a
measure program on each atom.

An approximate class relaxes the support and the quotes: measures keep
mass ``1 - eta`` near a support set and price each static option within
a margin of ``eta``.  Its limit as ``eta`` shrinks to zero is one program,
the price at radius 0 (:func:`approx_price` carries the argument).

Every price this module returns comes from an audited measure or a
verified certificate.  Each solved program is read by one function,
``_price_value``: an empty class keeps the Farkas certificate that the
solver has verified, and an optimal measure's defining rows are rechecked
by direct summation before the price is handed out, on Python ints in
rational mode, through the space's integer view of its coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Optional, Sequence

from ._numeric import NEG_INF, format_number, is_neg_inf, left_sum
from .errors import InternalCheckError, PreconditionError
from .information import (
    AtomTable,
    InfoStructure,
    atoms_at,
    filtration,
    market_partition,
    trading_terms,
)
from .hedging import DppDecomposition, _dpp, _staged, _trading_interval
from .lp import Infeasible, LinearProgram, Optimal, solve_checked
from .paths import PathSpace, StaticOptionBook, fatten
from .payoff import Expr


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
        return left_sum((self.weights[p] for p in paths), ops.zero)

    def expectation(self, values: Sequence[Any], ops) -> Any:
        return left_sum((w * v for w, v in zip(self.weights, values)), ops.zero)

    def audit(self, space: PathSpace) -> list:
        """Recheck every defining row by direct summation; returns violations.

        The sums add numerators: the weights over one denominator, each
        static option's price and payoffs over another, increments from the
        space's integer view, and tolerances scaled to match.  Float mode
        runs them over denominators of 1, in the order of a direct sum.
        """
        ops = space.ops
        tol = ops.dual_tol
        problems = []
        if len(self.weights) != space.n_paths:
            return ["weight vector does not match the space"]
        weights, dw = ops.over_common(self.weights)
        w_tol = tol * dw
        support_set = set(self.support)
        for p, w in enumerate(weights):
            if w < -w_tol:
                problems.append(f"negative weight on path {p}")
            if p not in support_set and not ops.eq(w, 0, w_tol):
                problems.append(f"weight off the support on path {p}")
        if not ops.eq(left_sum(weights), dw, w_tol):
            total = self.mass(range(len(weights)), ops)
            problems.append(f"total mass {format_number(total)} is not 1")
        # the paths of nonzero weight grouped by atom: an atom without one adds nothing
        fm = filtration(space, self.info)
        weighted = [p for p, w in enumerate(weights) if w]
        nums = space.nums
        drift_tol = w_tol * space.den
        t_from, t_to = self.interval
        for t in range(t_from, t_to):
            for _, members in fm.meet(t, weighted):
                for i in range(space.n_coords):
                    drift = 0
                    for p in members:
                        rows = nums[p]
                        drift = drift + weights[p] * (rows[t + 1][i] - rows[t][i])
                    if not ops.eq(drift, 0, drift_tol):
                        problems.append(
                            f"coordinate {i + 1} drifts on an atom at t={t}"
                        )
        if t_from == 0 and not self.book.is_cash_only:
            # per static option: its price, then its payoff on every path, over one denominator
            options = [
                ops.over_common([option.price, *space.claim_values(option.payoff)])
                for option in self.book.options
            ]
            supported = [p for p in weighted if p in support_set]
            for _, overlap in fm.meet(-1, supported):
                for l, (scaled, dc) in enumerate(options, start=1):
                    price = scaled[0]
                    err = 0
                    for p in overlap:
                        err = err + weights[p] * (scaled[p + 1] - price)
                    if not ops.eq(err, 0, w_tol * dc):
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
    claim_values: Optional[Sequence[Any]] = None,
) -> LinearProgram:
    """The measure-class program over a path set.

    Variables are weights on ``sorted(set(target))``, in that order.  Rows:
    total mass 1, one martingale row per term with moves of
    :func:`~rip.information.trading_terms` over the target and the interval
    (from 0 if the book is not cash only), and one calibration row per
    non-cash static option and initial-capital atom meeting the target.
    ``claim_values`` holds the claim's value on every path of the space, and
    the objective maximises its expectation (zero objective when it is
    None, making it a pure feasibility program).
    """
    ops = space.ops
    book = book or StaticOptionBook.cash_only()
    vars_paths = space.path_set(target)
    interval = _trading_interval(space, book, interval)
    n = len(vars_paths)
    if claim_values is not None and len(claim_values) != space.n_paths:
        raise PreconditionError("need one claim value per path of the space")

    rows = [(tuple(zip(range(n), [ops.one] * n)), "==", ops.one)]
    for _, _, _, moves in trading_terms(space, info, vars_paths, interval):
        if moves:
            rows.append((tuple(moves), "==", ops.zero))
    if not book.is_cash_only:
        index_of = {p: k for k, p in enumerate(vars_paths)}
        payoffs = [space.claim_values(option.payoff) for option in book.options]
        prices = book.prices(ops)[1:]
        for _, overlap in filtration(space, info).meet(-1, vars_paths):
            for values, price in zip(payoffs, prices):
                rows.append((_excess(overlap, values, price, index_of), "==", ops.zero))

    if claim_values is None:
        objective = (ops.zero,) * n
    else:
        objective = tuple(claim_values[p] for p in vars_paths)
    return LinearProgram("max", objective, tuple(rows), ("nonneg",) * n)


def _excess(paths, payoffs, price, column) -> tuple:
    """A calibration row's nonzeros: payoff less price on ``paths``, path ``p`` at ``column[p]``."""
    excess = ((column[p], payoffs[p] - price) for p in paths)
    return tuple(pair for pair in excess if pair[1])


def _price_value(space, lp, paths, info, book, interval) -> PriceValue:
    """Solve a measure program and read its outcome into a price.

    ``paths`` are the program's variables in column order, and ``info``,
    ``book`` and ``interval`` the class whose rows :meth:`MartingaleMeasure.audit`
    rechecks on an optimal measure.  An empty class prices at ``-inf`` with
    the separating certificate; weights are bounded, so an unbounded
    outcome is a fault.
    """
    outcome = solve_checked(lp, space.ops)
    if isinstance(outcome, Infeasible):
        return PriceValue(NEG_INF, certificate=outcome.certificate, pivots=outcome.pivots)
    if not isinstance(outcome, Optimal):
        raise InternalCheckError("a probability-weight program cannot be unbounded")
    weights = [space.ops.zero] * space.n_paths
    for p, w in zip(paths, outcome.x):
        weights[p] = w
    measure = MartingaleMeasure(tuple(weights), info, book, interval, paths)
    problems = measure.audit(space)
    if problems:
        raise InternalCheckError("measure audit failed: " + "; ".join(problems))
    return PriceValue(outcome.value, measure=measure, pivots=outcome.pivots)


def _price_stage(space, paths, info, floor, book, interval) -> PriceValue:
    """The best expectation of ``floor`` over the class on ``paths``; ``-inf`` on no path."""
    if not paths:
        return PriceValue(NEG_INF)
    lp = build_measure_lp(space, paths, info, book, interval, floor)
    return _price_value(space, lp, paths, info, book, interval)


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
    target = space.all_paths() if target is None else space.path_set(target)
    book = book or StaticOptionBook.cash_only()
    stage = (atoms_at(space, info, -1), (0, space.n_steps))
    return _staged(space, target, info, claim, book, [stage], _price_stage)[0]


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
    # the support sorted into atoms in one pass, in support order
    owner = {p: k for k, atom in enumerate(partition) for p in atom.paths}
    supports = [[] for _ in partition]
    for p in measure.support:
        if p in owner:
            supports[owner[p]].append(p)
    out = []
    for atom, support in zip(partition, supports):
        mass = measure.mass(atom.paths, ops)
        if not ops.pos(mass):
            continue
        weights = [ops.zero] * space.n_paths
        for p in atom.paths:
            weights[p] = measure.weights[p] / mass
        out.append(
            (
                atom,
                mass,
                MartingaleMeasure(
                    tuple(weights), measure.info, measure.book, measure.interval, tuple(support)
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
    weights = [ops.zero] * space.n_paths
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
            if not w:
                continue
            if p not in atom_set:
                raise PreconditionError(
                    f"kernel for an atom at t={split} puts weight on path {p} outside it"
                )
            weights[p] = mass * w
        info = info or kernel.info
    support = tuple(p for p, w in enumerate(weights) if w)
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
    fat = set(fatten(space, support, eta))  # refuses a negative radius
    eta = ops.convert(eta)
    slack = eta - eta / 1000  # strict interior margin: mass and calibration slack

    base = build_measure_lp(
        space, space.all_paths(), InfoStructure.none(), None, (0, space.n_steps),
        space.claim_values(claim),
    )
    # the variables are all the paths, in order: path p is column p
    paths = range(space.n_paths)
    rows = [(tuple((p, ops.one) for p in sorted(fat)), ">=", ops.one - slack)]
    for option, price in zip(book.options, book.prices(ops)[1:]):
        nonzeros = _excess(paths, space.claim_values(option.payoff), price, paths)
        rows.append((nonzeros, "<=", slack))
        rows.append((nonzeros, ">=", -slack))
    return replace(base, rows=base.rows + tuple(rows))


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
    relaxed class is empty.  :func:`~rip.paths.fatten` refuses a negative
    radius.

    At ``eta = 0`` this is the exact support-constrained calibrated price,
    and it is also the limit of the price as ``eta`` shrinks to zero,
    ``-inf`` included:

    * below the smallest positive distance between two paths, ``fatten``
      returns the support itself, so the program is one matrix whose
      right-hand side is affine in ``eta`` and only relaxes as ``eta``
      grows;
    * so the radii at which the class is nonempty form a closed interval
      ``[a, inf)``; when ``a > 0`` the price is ``-inf`` at every radius
      below ``a``, zero included;
    * the optimal value is a polyhedral concave function of the right-hand
      side, continuous on the closed set where the program is feasible
      (Rockafellar 1970, Theorem 10.2), so when ``a = 0`` the prices tend
      to the price at zero.

    The optimal measure's audit covers the mass row and the martingale
    rows; the relaxed mass and calibration rows are checked by
    :func:`~rip.lp.verify_certificate` alone.
    """
    book = book or StaticOptionBook.cash_only()
    lp = _approx_lp(space, tuple(support), eta, claim, book)
    cash = StaticOptionBook.cash_only()
    paths = space.all_paths()
    return _price_value(space, lp, paths, InfoStructure.none(), cash, (0, space.n_steps)).value


# ---------------------------------------------------------------------------
# two-stage decomposition


def dpp_price(
    space: PathSpace, claim: Expr, split: int, info: InfoStructure
) -> DppDecomposition:
    """Compare direct pricing with pricing the interval-price table at ``split``.

    The inner stage prices the claim on each market atom at ``split`` from
    there on; the outer stage maximises, over measures up to the split, the
    expected inner price of the atom reached, leaving out the atoms whose
    class is empty (a ``-inf`` price).  Cash only.
    """
    return _dpp(space, claim, split, info, _price_stage)


__all__ = [
    "MartingaleMeasure",
    "PriceValue",
    "build_measure_lp",
    "model_price",
    "condition_measure",
    "concatenate_measure",
    "approx_price",
    "dpp_price",
]
