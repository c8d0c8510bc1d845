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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from ._numeric import NEG_INF, get_ops, is_neg_inf
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
    span: tuple = (0, 0)

    def cost(self, book: StaticOptionBook, ops) -> Any:
        prices = book.prices(ops)
        return sum((a * p for a, p in zip(self.static, prices)), ops.zero)


def _holding(dynamic: dict, t: int, path_index: int) -> Optional[tuple]:
    if not dynamic:
        return None
    for (kt, paths), holding in dynamic.items():
        if kt == t and path_index in paths:
            return holding
    raise UndefinedHoldingError(
        f"strategy defines no holding at t={t} on an atom containing path {path_index}"
    )


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
    ops = space.ops
    if not 0 <= t_from <= t_to <= space.n_steps:
        raise PreconditionError(f"need 0 <= {t_from} <= {t_to} <= {space.n_steps}")
    if not 0 <= path_index < len(space.paths):
        raise PreconditionError(f"path index {path_index} out of range")
    if isinstance(dynamic, Strategy):
        dynamic = dynamic.dynamic
    total = ops.zero
    path = space.paths[path_index]
    for t in range(t_from, t_to):
        holding = _holding(dynamic, t, path_index) if dynamic else None
        if holding is None:
            continue
        row_now, row_next = path.values[t], path.values[t + 1]
        for i in range(space.n_coords):
            total = total + holding[i] * (row_next[i] - row_now[i])
    return total


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
    claim_values: tuple  # aligned with target
    book: StaticOptionBook
    interval: tuple
    dynamic_vars: tuple  # of (t, atom_paths, coord)
    lp: LinearProgram
    cash_shift: Any

    @property
    def n_static(self) -> int:
        return self.book.size


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
    Variables are the static positions (cash first) followed by one holding
    per ``(t, atom, coordinate)`` for ``t`` in the interval (``(0, n)`` by
    default) and atoms meeting the target; all are free.  One ``>=`` row
    per target path requires wealth at the interval's end to dominate the
    claim there.  Cash is measured above the claim's maximum on the
    target, so every right-hand side is at most zero and the origin (that
    maximum held in cash, nothing traded) is feasible; the solver then
    needs no phase 1.  The shift is kept as ``cash_shift`` and added back
    to the value and the cash position.
    """
    ops = space.ops
    target = tuple(sorted(set(target)))
    if not target:
        raise PreconditionError("cannot hedge over an empty path set")
    for p in target:
        if not 0 <= p < len(space.paths):
            raise PreconditionError(f"path index {p} out of range")
    if len(claim_values) != len(space.paths):
        raise PreconditionError("need one claim value per path of the space")
    t_from, t_to = interval if interval is not None else (0, space.n_steps)
    if not 0 <= t_from <= t_to <= space.n_steps:
        raise PreconditionError(f"bad interval ({t_from}, {t_to})")
    values = tuple(claim_values[p] for p in target)
    cash_shift = max(values)
    payoff_rows = book.payoff_matrix(space)
    fm = filtration(space, info)

    n_static = book.size
    dynamic_vars = []
    column = {}  # (t, atom index) -> the atom's first holding variable
    for t in range(t_from, t_to):
        for k, _ in fm.meet(t, target):
            column[(t, k)] = n_static + len(dynamic_vars)
            paths = fm.atoms[t][k].paths
            dynamic_vars.extend((t, paths, i) for i in range(space.n_coords))
    n_vars = n_static + len(dynamic_vars)

    rows = []
    for p, value in zip(target, values):
        coeffs = [ops.zero] * n_vars
        for l in range(n_static):
            coeffs[l] = payoff_rows[l][p]
        for t in range(t_from, t_to):
            first = column[(t, fm.cell[t][p])]
            for i, delta in enumerate(fm.delta[t][p]):
                if delta != ops.zero:
                    coeffs[first + i] = delta
        rows.append((coeffs, ">=", value - cash_shift))

    objective = list(book.prices(ops)) + [ops.zero] * len(dynamic_vars)
    lp = LinearProgram.build("min", objective, rows, ["free"] * n_vars)
    return HedgeProblem(
        space, target, values, book, (t_from, t_to), tuple(dynamic_vars), lp, cash_shift
    )


def _holdings(problem: HedgeProblem, values: Sequence[Any]) -> dict:
    """Holdings per ``(t, atom_paths)``, read off the dynamic variables."""
    out: dict = {}
    zeros = [problem.space.ops.zero] * problem.space.n_coords
    for (t, paths, i), value in zip(problem.dynamic_vars, values):
        out.setdefault((t, paths), list(zeros))[i] = value
    return {key: tuple(holding) for key, holding in out.items()}


def extract_strategy(outcome, problem: HedgeProblem) -> Strategy:
    """Read a strategy off an optimal hedge solve and re-verify it pathwise.

    Checks, by direct evaluation, that the strategy's wealth at the
    interval's end dominates the claim on every target path and that its
    cost matches the reported value plus the cash shift; a failure raises
    :class:`InternalCheckError`.  Passing an unbounded or infeasible outcome
    is an error.
    """
    if not isinstance(outcome, Optimal):
        raise PreconditionError("only an optimal outcome carries a strategy")
    n_static = problem.n_static
    static = (outcome.x[0] + problem.cash_shift,) + tuple(outcome.x[1:n_static])
    dynamic = _holdings(problem, outcome.x[n_static:])
    strategy = Strategy(static, dynamic, problem.interval)

    space = problem.space
    ops = space.ops
    payoff_rows = problem.book.payoff_matrix(space)
    cost = strategy.cost(problem.book, ops)
    if not ops.eq(cost, outcome.value + problem.cash_shift, ops.dual_tol):
        raise InternalCheckError("strategy cost does not match the solver value")
    for row_idx, p in enumerate(problem.target):
        wealth = sum(
            (static[l] * payoff_rows[l][p] for l in range(n_static)), ops.zero
        ) + gains(space, dynamic, p, *problem.interval)
        if wealth < problem.claim_values[row_idx] - ops.dual_tol:
            raise InternalCheckError(
                f"extracted strategy fails to dominate the claim on path {p}"
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
        n_static = problem.n_static
        ray = outcome.ray
        cost = Strategy(ray[:n_static], {}).cost(problem.book, ops)
        if cost < 0:
            scale = -1 / cost
            ray = [d * scale for d in ray]
            cost = -ops.one
        witness = ArbitrageRay(tuple(ray[:n_static]), _holdings(problem, ray[n_static:]), cost)
        return HedgeValue(NEG_INF, ray=witness, pivots=outcome.pivots)
    raise InternalCheckError(
        "a superhedging program can never be infeasible; "
        "holding max-claim in cash always dominates"
    )


def _hedge_table(space, atoms, target, info, claim, book, interval) -> AtomTable:
    """One hedge per atom meeting the target, over the paths they share."""
    validate_payoff(claim, space.n_coords, space.n_steps)
    values = space.claim_values(claim)
    target_set = set(target)
    entries = []
    for atom in atoms:
        meet = sorted(target_set.intersection(atom.paths))
        if meet:
            problem = build_hedge_problem(space, meet, info, values, book, interval)
            entries.append((atom, _hedge_value(problem)))
    return AtomTable(entries)


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
    target = space.all_paths() if target is None else tuple(target)
    if not target:
        raise PreconditionError("cannot hedge over an empty path set")
    book = book or StaticOptionBook.cash_only()
    atoms = atoms_at(space, info, -1)
    return _hedge_table(space, atoms, target, info, claim, book, (0, space.n_steps))


def interval_value_table(
    space: PathSpace, t_from: int, info: InfoStructure, claim: Expr
) -> AtomTable:
    """Cash-only superhedging values over every market atom at ``t_from``.

    Each value hedges the claim on the atom's paths with trading from
    ``t_from`` on.  At ``t_from = n`` every atom is one path and its value
    is the claim's value there; at ``t_from = 0`` the table has one entry,
    the plain superhedging value over the whole space.
    """
    atoms = market_partition(space, t_from)
    book = StaticOptionBook.cash_only()
    return _hedge_table(space, atoms, space.all_paths(), info, claim, book, (t_from, space.n_steps))


@dataclass(frozen=True)
class DppDecomposition:
    """Direct value against the two-stage composition over one split index."""

    direct: Any
    composed: Any
    split: int
    inner: AtomTable
    mode: str

    @property
    def agree(self) -> bool:
        """Equal values, exactly in rational mode and within ``dual_tol`` in float."""
        if is_neg_inf(self.direct) or is_neg_inf(self.composed):
            return is_neg_inf(self.direct) and is_neg_inf(self.composed)
        ops = get_ops(self.mode)
        return ops.eq(self.direct, self.composed, ops.dual_tol)


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


def dpp_superhedge(
    space: PathSpace, claim: Expr, split: int, info: InfoStructure
) -> DppDecomposition:
    """Compare direct superhedging with hedging into interval values at ``split``.

    The composed route is an ordinary superhedge over ``[0, split]``, with
    market information, of the table of cash-only interval values on
    ``[split, n]``; market atoms whose interval value is ``-inf`` impose no
    outer constraint (no finite capital is ever enough on them).
    Cash-only throughout.
    """
    _check_dpp_info(space, info, split)
    direct = superhedge(space, None, info, claim).single().value

    inner = interval_value_table(space, split, info, claim)
    floor = [NEG_INF] * len(space.paths)
    for atom, hv in inner:
        for p in atom.paths:
            floor[p] = hv.value
    finite = [p for p, value in enumerate(floor) if not is_neg_inf(value)]
    if not finite:
        return DppDecomposition(direct, NEG_INF, split, inner, space.mode)
    outer = build_hedge_problem(
        space, finite, info, floor, StaticOptionBook.cash_only(), (0, split)
    )
    composed = _hedge_value(outer).value
    return DppDecomposition(direct, composed, split, inner, space.mode)


__all__ = [
    "Strategy",
    "ArbitrageRay",
    "HedgeValue",
    "HedgeProblem",
    "DppDecomposition",
    "gains",
    "build_hedge_problem",
    "extract_strategy",
    "superhedge",
    "interval_value_table",
    "dpp_superhedge",
]
