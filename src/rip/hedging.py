"""Superhedging: cheapest portfolios dominating a claim pathwise.

A hedge combines static positions in the option book (held from time zero)
with a self-financing dynamic strategy in all traded coordinates, whose
holdings at each grid index are constant on the atoms of the agent's
partition.  The superhedging value of a claim over a set of paths is the
least initial cost of such a portfolio whose terminal wealth dominates the
claim on every path of the set; it is one linear program per
initial-capital atom, and the value is ``-inf`` exactly when the program
is unbounded, in which case the improving direction is an arbitrage and is
kept as a witness.

Every table is built by one walk over a list of stages, from the claim
backwards, with the same rule on the pricing side (``_staged``).

Every optimal strategy and every arbitrage ray is re-checked pathwise
before it is returned (:func:`verify_strategy`): a strategy must dominate
the claim at the solver's value, and a ray, an arbitrage, the zero claim
at its negative cost.  The check runs on Python ints in rational mode,
through the space's integer view of its coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from ._numeric import NEG_INF, ModeOps, is_neg_inf, left_sum
from .errors import InternalCheckError, PreconditionError, UndefinedHoldingError
from .information import (
    AtomTable,
    InfoStructure,
    VARIANT_DYNAMIC,
    VARIANT_NONE,
    atoms_at,
    check_scaling_form,
    filtration,
    market_partition,
    trading_terms,
)
from .lp import LinearProgram, Optimal, Unbounded, solve_checked
from .paths import PathSpace, StaticOptionBook
from .payoff import Expr, validate_payoff


@dataclass
class Strategy:
    """Concrete portfolio: static positions plus atom-wise dynamic holdings.

    ``static`` has one position per book slot (cash first).  ``dynamic``
    maps ``(t, atom_paths)`` to a holdings tuple over all traded
    coordinates, valid from ``t`` to ``t + 1``.  An empty ``dynamic`` means
    no dynamic trading at all; a non-empty one must cover every atom it is
    ever asked about.  ``span`` is the ``(t_from, t_to)`` interval traded.
    """

    static: tuple
    dynamic: dict
    span: tuple

    def cost(self, book: StaticOptionBook, ops) -> Any:
        prices = book.prices(ops)
        return left_sum((a * p for a, p in zip(self.static, prices)), ops.zero)


def _scaled_holdings(space: PathSpace, dynamic: dict, static: Sequence[Any] = ()) -> tuple:
    """Positions and holdings over one denominator: ``(static, held, den)``.

    ``static[l] / den`` is position ``l``, and ``held`` maps ``(t, p)`` to
    the numerators of the holding in force from ``t`` to ``t + 1`` on the
    atom of ``dynamic`` that holds path ``p``.  A holding must have one
    entry per traded coordinate, and no path may lie in two atoms at one
    ``t``; either fault raises :class:`PreconditionError`.
    """
    n = space.n_coords
    if any(len(holding) != n for holding in dynamic.values()):
        raise PreconditionError(f"a holding needs one entry per traded coordinate ({n})")
    flat = [*static, *(h for holding in dynamic.values() for h in holding)]
    nums, den = space.ops.over_common(flat)
    held: dict = {}
    start = len(static)
    for (t, paths), holding in dynamic.items():
        scaled = tuple(nums[start : start + n])
        start += n
        for p in paths:
            if (t, p) in held:
                raise PreconditionError(f"two holdings at t={t} cover path {p}")
            held[t, p] = scaled
    return nums[: len(static)], held, den


def _path_gains(space: PathSpace, held: dict, p: int, t_from: int, t_to: int) -> Any:
    """Gains along path ``p`` over ``[t_from, t_to]`` of the holdings ``held``.

    ``held`` is that of :func:`_scaled_holdings`, and the gains are a numerator
    over its denominator times ``space.den``: the increments are read off
    the space's integer view, so rational mode adds Python ints.  An empty
    ``held`` holds nothing; any other must cover every ``t`` in the interval.
    """
    if not held:
        return 0
    rows = space.nums[p]
    total = 0
    for t in range(t_from, t_to):
        try:
            holding = held[t, p]
        except KeyError:
            raise UndefinedHoldingError(
                f"strategy defines no holding at t={t} on an atom containing path {p}"
            ) from None
        for h, now, after in zip(holding, rows[t], rows[t + 1]):
            total = total + h * (after - now)
    return total


def gains(
    space: PathSpace,
    dynamic: Optional[dict],
    path_index: int,
    t_from: int,
    t_to: int,
) -> Any:
    """Trading gains of atom-wise holdings along one path over ``[t_from, t_to]``.

    ``dynamic`` is a ``(t, atom_paths) -> holdings`` map as in
    :class:`Strategy`; ``None`` or an empty map means hold nothing.  Asks
    for a holding at every ``t`` in ``[t_from, t_to)`` and raises
    :class:`UndefinedHoldingError` if a non-empty map misses one.
    """
    space.interval((t_from, t_to))
    space.path_set((path_index,))
    _, held, den = _scaled_holdings(space, dynamic or {})
    total = _path_gains(space, held, path_index, t_from, t_to)
    return space.ops.ratio(total, den * space.den)


@dataclass(frozen=True)
class ArbitrageRay:
    """A direction of strictly negative cost whose payout never falls short.

    Witnesses an unbounded hedge: adding it to any portfolio keeps every
    pathwise constraint and lowers the cost, so no cheapest portfolio
    exists.  Scaled so the static cost is exactly -1.
    """

    static: tuple
    dynamic: dict
    cost: Any


@dataclass(frozen=True)
class HedgeValue:
    """Outcome for one initial-capital atom: a value and its witness."""

    value: Any
    strategy: Optional[Strategy] = None
    ray: Optional[ArbitrageRay] = None
    pivots: int = 0

    @property
    def finite(self) -> bool:
        return not is_neg_inf(self.value)


@dataclass
class HedgeProblem:
    """One superhedging linear program and its variable layout.

    Trading runs over ``interval = (t_from, t_to)`` and the claim is paid
    at ``t_to``.  The program's cash variable is measured above
    ``cash_shift``, the claim's maximum over the target, so its value and
    its cash position fall short of the portfolio's by that amount;
    :func:`extract_strategy` adds it back.
    """

    space: PathSpace
    target: tuple
    info: InfoStructure
    claim_values: tuple  # aligned with target
    book: StaticOptionBook
    interval: tuple
    dynamic_vars: tuple  # of (t, atom_paths, coord)
    lp: LinearProgram
    cash_shift: Any


def _trading_interval(space: PathSpace, book: StaticOptionBook, interval) -> tuple:
    """The checked interval: a static book is formed at 0, so a later start takes cash only."""
    t_from, t_to = space.interval(interval)
    if t_from > 0 and not book.is_cash_only:
        raise PreconditionError(f"a static book is formed at 0, not at {t_from}")
    return t_from, t_to


def build_hedge_problem(
    space: PathSpace,
    target: Sequence[int],
    info: InfoStructure,
    claim_values: Sequence[Any],
    book: StaticOptionBook,
    interval: Optional[tuple] = None,
) -> HedgeProblem:
    """Assemble the cost-minimising program for one path set.

    ``claim_values`` holds the claim's value on every path of the space.
    Variables are the static positions (cash first) followed by one free
    holding per term of :func:`~rip.information.trading_terms` over the
    target and the interval (``(0, n)`` by default, from 0 if the book is
    not cash only), whose moves are its entries in the ``>=`` rows, one per
    target path, that make wealth at the interval's end dominate the
    claim there.  Cash is measured above the claim's maximum on the
    target, so every right-hand side is at most zero and the origin (that
    maximum held in cash, nothing traded) is feasible; the solver then
    needs no phase 1.  The shift is kept as ``cash_shift`` and added back
    to the value and the cash position.
    """
    ops = space.ops
    target = space.path_set(target)
    if len(claim_values) != space.n_paths:
        raise PreconditionError("need one claim value per path of the space")
    t_from, t_to = _trading_interval(space, book, interval)
    values = tuple(claim_values[p] for p in target)
    cash_shift = max(values)
    payoffs = [space.claim_values(option.payoff) for option in book.options]

    n_static = book.size
    nonzeros = [
        [(0, ops.one)] + [(l, v[p]) for l, v in enumerate(payoffs, 1) if v[p]] for p in target
    ]
    dynamic_vars = []
    for t, paths, i, moves in trading_terms(space, info, target, (t_from, t_to)):
        column = n_static + len(dynamic_vars)
        dynamic_vars.append((t, paths, i))
        for k, delta in moves:
            nonzeros[k].append((column, delta))

    rows = tuple((tuple(row), ">=", value - cash_shift) for row, value in zip(nonzeros, values))
    objective = tuple(book.prices(ops)) + (ops.zero,) * len(dynamic_vars)
    lp = LinearProgram("min", objective, rows, ("free",) * len(objective))
    return HedgeProblem(
        space, target, info, values, book, (t_from, t_to), tuple(dynamic_vars), lp, cash_shift
    )


def _holdings(problem: HedgeProblem, values: Sequence[Any]) -> dict:
    """Holdings per ``(t, atom_paths)``, read off the dynamic variables."""
    out: dict = {}
    zeros = [problem.space.ops.zero] * problem.space.n_coords
    for (t, paths, i), value in zip(problem.dynamic_vars, values):
        out.setdefault((t, paths), list(zeros))[i] = value
    return {key: tuple(holding) for key, holding in out.items()}


def verify_strategy(
    space: PathSpace, info: InfoStructure, strategy: Strategy, book: StaticOptionBook,
    target: Sequence[int], claim_values: Sequence[Any], cost: Any,
) -> None:
    """Re-verify pathwise that a strategy superhedges a claim at a given cost.

    ``claim_values`` is aligned with ``target``.  Checks, by direct
    evaluation, that the strategy costs ``cost`` and that its wealth at the
    end of ``strategy.span`` dominates the claim on every target path; a
    failure raises :class:`InternalCheckError`, and a holding missing on a
    target path :class:`UndefinedHoldingError`.  A holding not on an atom of
    ``info``'s partition at its ``t`` trades on what the agent does not know,
    and raises :class:`PreconditionError`.

    The pathwise check cross-multiplies numerators: positions and holdings
    over one denominator, claim and payoffs over another, increments from
    the space's integer view, and the tolerance scaled to match.  Float
    mode runs it over denominators of 1, in the order of a direct sum.
    """
    ops = space.ops
    interval = space.interval(strategy.span)
    if len(claim_values) != len(target) or len(strategy.static) != book.size:
        raise PreconditionError("need one claim value per target path and one position per slot")
    if not ops.eq(strategy.cost(book, ops), cost, ops.dual_tol):
        raise InternalCheckError("strategy cost does not match the solver value")
    fm = filtration(space, info)
    for t, paths in strategy.dynamic:
        paths = space.path_set(paths)
        if not 0 <= t < space.n_steps or fm.atoms[t][fm.cell[t][paths[0]]].paths != paths:
            raise PreconditionError(f"the holding at t={t} on path {paths[0]} is not on an atom")

    # wealth, a numerator over dx * dc * space.den, against the claim over dc
    positions, held, dx = _scaled_holdings(space, strategy.dynamic, strategy.static)
    m = len(target)
    payoffs = [space.claim_values(option.payoff) for option in book.options]
    scaled, dc = ops.over_common([*claim_values, *(v[p] for v in payoffs for p in target)])
    payoff_rows = [[dc] * m] + [scaled[l * m : (l + 1) * m] for l in range(1, book.size)]
    claim_scale = dx * space.den
    slack = ops.dual_tol * dx * dc * space.den
    for r, p in enumerate(target):
        wealth = 0
        for position, row in zip(positions, payoff_rows):
            wealth = wealth + position * row[r]
        wealth = wealth * space.den + dc * _path_gains(space, held, p, *interval)
        if wealth < scaled[r] * claim_scale - slack:
            raise InternalCheckError(
                f"strategy fails to dominate the claim on path {p}"
            )


def extract_strategy(outcome, problem: HedgeProblem) -> Strategy:
    """Read a strategy off an optimal hedge solve and re-verify it pathwise.

    The strategy goes through :func:`verify_strategy` against the
    problem's target and claim, at the reported value plus the cash shift.
    Passing an unbounded or infeasible outcome is an error.
    """
    if not isinstance(outcome, Optimal):
        raise PreconditionError("only an optimal outcome carries a strategy")
    n_static = problem.book.size
    static = (outcome.x[0] + problem.cash_shift,) + tuple(outcome.x[1:n_static])
    strategy = Strategy(static, _holdings(problem, outcome.x[n_static:]), problem.interval)
    cost = outcome.value + problem.cash_shift
    verify_strategy(
        problem.space, problem.info, strategy, problem.book, problem.target,
        problem.claim_values, cost,
    )
    return strategy


def _hedge_value(problem: HedgeProblem) -> HedgeValue:
    outcome = solve_checked(problem.lp, problem.space.ops)
    if isinstance(outcome, Optimal):
        strategy = extract_strategy(outcome, problem)
        value = outcome.value + problem.cash_shift
        return HedgeValue(value, strategy=strategy, pivots=outcome.pivots)
    if isinstance(outcome, Unbounded):
        ops = problem.space.ops
        n_static = problem.book.size
        ray = outcome.ray
        cost = Strategy(ray[:n_static], {}, problem.interval).cost(problem.book, ops)
        if cost < 0:
            scale = -1 / cost
            ray = [d * scale for d in ray]
            cost = -ops.one
        witness = ArbitrageRay(tuple(ray[:n_static]), _holdings(problem, ray[n_static:]), cost)
        # an arbitrage superhedges the zero claim at a negative cost
        strategy = Strategy(witness.static, witness.dynamic, problem.interval)
        verify_strategy(
            problem.space, problem.info, strategy, problem.book, problem.target,
            [ops.zero] * len(problem.target), cost,
        )
        return HedgeValue(NEG_INF, ray=witness, pivots=outcome.pivots)
    raise InternalCheckError(
        "a superhedging program can never be infeasible; "
        "holding max-claim in cash always dominates"
    )


def _staged(space, target, info, claim, book, stages, value_of) -> list:
    """A staged problem's tables, one per ``(atoms, interval)`` stage, from the claim backwards.

    Each table lists the stage's atoms that meet ``target`` in partition
    order and leaves the others out.  The floor holds the value due at the
    end of a stage's interval on every path: for the first stage the
    claim's (:func:`_claim_floor`), and for each later one the table just
    built, on the target paths, the only ones a stage reads; no floor is
    made after the last stage.
    ``value_of`` (:func:`_hedge_stage` or ``pricing._price_stage``) values
    each atom over its target paths, ascending, whose floor is finite: no
    capital meets a ``-inf`` floor, so the hedge drops its row and, as the
    dual of that, the price its column.  Handed no path, ``value_of``
    returns a bare ``-inf`` without solving.
    """
    wanted = set(target)
    floor = _claim_floor(space, claim)
    tables = []
    for atoms, interval in stages:
        if tables:
            floor = [tables[-1].for_path(p).value if p in wanted else v
                     for p, v in enumerate(floor)]
        entries = []
        for atom in atoms:
            meet = [p for p in atom.paths if p in wanted]
            if meet:
                finite = tuple(p for p in meet if not is_neg_inf(floor[p]))
                entries.append((atom, value_of(space, finite, info, floor, book, interval)))
        tables.append(AtomTable(entries))
    return tables


def _hedge_stage(space, paths, info, floor, book, interval) -> HedgeValue:
    """The superhedge of ``floor`` on ``paths``; ``-inf`` when there is nothing to dominate."""
    if not paths:
        return HedgeValue(NEG_INF)
    return _hedge_value(build_hedge_problem(space, paths, info, floor, book, interval))


def _claim_floor(space: PathSpace, claim: Expr) -> tuple:
    """The checked claim's value on every path: the floor of a last stage."""
    validate_payoff(claim, space.n_coords, space.n_steps)
    return space.claim_values(claim)


def superhedge(
    space: PathSpace,
    target: Optional[Iterable[int]],
    info: InfoStructure,
    claim: Expr,
    book: Optional[StaticOptionBook] = None,
) -> AtomTable:
    """Superhedging value per initial-capital atom meeting the target set.

    ``target`` is a set of path indices (``None`` for all paths).  Returns
    an :class:`AtomTable` of :class:`HedgeValue`; atoms of the
    initial-capital partition that miss the target are not listed.  The
    value on an atom is constant across its paths by construction, and is
    ``-inf`` with an arbitrage witness when the program is unbounded.
    """
    target = space.all_paths() if target is None else space.path_set(target)
    book = book or StaticOptionBook.cash_only()
    stage = (atoms_at(space, info, -1), (0, space.n_steps))
    return _staged(space, target, info, claim, book, [stage], _hedge_stage)[0]


@dataclass(frozen=True)
class DppDecomposition:
    """Direct value against the two-stage composition over one split index."""

    direct: Any
    composed: Any
    split: int
    inner: AtomTable  # the interval values on [split, n], per market atom at split
    ops: ModeOps

    @property
    def agree(self) -> bool:
        """Equal values, exactly in rational mode and within ``dual_tol`` in float."""
        return self.ops.same(self.direct, self.composed)


def _check_dpp_info(space: PathSpace, info: InfoStructure, split: int) -> None:
    if info.variant not in (VARIANT_NONE, VARIANT_DYNAMIC):
        raise PreconditionError(
            "two-stage decomposition is defined for variants 'none' and 'dynamic'"
        )
    if info.variant == VARIANT_DYNAMIC:
        if info.arrival != split:
            raise PreconditionError(
                f"the split index ({split}) must equal the arrival index ({info.arrival})"
            )
        if not check_scaling_form(space, info.variable, split):
            raise PreconditionError(
                "the information variable must depend only on the renormalised tail "
                "for the decomposition to apply"
            )
    if not 0 <= split <= space.n_steps:
        raise PreconditionError(f"split index {split} outside grid 0..{space.n_steps}")


def _dpp(space, claim, split, info, value_of) -> DppDecomposition:
    """Both decompositions, cash only: one stage over the grid against two meeting at ``split``."""
    _check_dpp_info(space, info, split)
    cash, everywhere, n = StaticOptionBook.cash_only(), space.all_paths(), space.n_steps
    initial = atoms_at(space, info, -1)
    [direct] = _staged(space, everywhere, info, claim, cash, [(initial, (0, n))], value_of)
    stages = [(market_partition(space, split), (split, n)), (initial, (0, split))]
    inner, composed = _staged(space, everywhere, info, claim, cash, stages, value_of)
    return DppDecomposition(direct.single().value, composed.single().value, split, inner, space.ops)


def dpp_superhedge(
    space: PathSpace, claim: Expr, split: int, info: InfoStructure
) -> DppDecomposition:
    """Compare direct superhedging with hedging into interval values at ``split``.

    The inner stage hedges the claim on each market atom at ``split`` with
    trading from there on; the outer stage hedges those values from 0 to
    ``split``, where a ``-inf`` one (no finite capital is ever enough)
    imposes nothing.  Cash-only throughout.
    """
    return _dpp(space, claim, split, info, _hedge_stage)


__all__ = [
    "Strategy",
    "ArbitrageRay",
    "HedgeValue",
    "HedgeProblem",
    "DppDecomposition",
    "gains",
    "build_hedge_problem",
    "extract_strategy",
    "verify_strategy",
    "superhedge",
    "dpp_superhedge",
]
