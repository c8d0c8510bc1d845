"""Duality reports, equivalent value routes, and the worth of information.

This module sits on top of hedging and pricing and never reuses one side's
solve for the other: every equality it reports was computed along separate
routes and compared afterwards.  The five-way chain recomputes one number
through hedging with capital fixed up front, hedging and pricing per
initial atom, pricing with support forced by rows, and pricing with
capital fixed up front; agreement across all five is the strongest
internal consistency statement the package can make.  The chain is part
of :func:`duality_report` under uninformed capital.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Iterable, Optional, Sequence

from ._numeric import NEG_INF, ModeOps, format_number, is_neg_inf
from .errors import PreconditionError
from .hedging import HedgeValue, superhedge
from .information import (
    InfoStructure,
    InfoVariable,
    VARIANT_MINUS,
    check_scaling_form,
    z_partition,
)
from .paths import PathSpace, StaticOptionBook
from .payoff import Expr, TailClaim, validate_payoff
from .pricing import PriceValue, _price_value, build_measure_lp, model_price


def _max_or_neg_inf(values: Iterable[Any]):
    finite = [v for v in values if not is_neg_inf(v)]
    return max(finite) if finite else NEG_INF


@dataclass(frozen=True)
class AtomDuality:
    """Hedge value against model price on one initial-capital atom."""

    atom: Any
    hedge: HedgeValue
    price: PriceValue

    @property
    def feasible(self) -> bool:
        return self.hedge.finite and self.price.finite

    @property
    def gap(self):
        if not self.feasible:
            return None
        return self.hedge.value - self.price.value


@dataclass(frozen=True)
class ChainQuantities:
    """One value computed five structurally different ways.

    In order: hedging with information from time 0 but uninformed capital;
    the worst informed-capital hedge over label atoms; the best
    informed-capital price over label atoms; the best price over label
    atoms with the support forced by explicit rows on the full variable
    set; and pricing with uninformed capital.  All five agree (or are all
    ``-inf``) whenever the claim and label are as documented.  The first
    five fields are the routes in that order, and their names are the
    route names that :meth:`values` and ``rip chain`` read.
    """

    hedge_uninformed_capital: Any
    hedge_atom_worst: Any
    price_atom_best: Any
    price_forced_best: Any
    price_uninformed_capital: Any
    per_atom: tuple  # (label, hedge, price, forced price)
    ops: ModeOps

    def values(self) -> tuple:
        """The five routes, in order: the first five fields."""
        return tuple(getattr(self, route.name) for route in fields(self)[:5])

    @property
    def all_equal(self) -> bool:
        """Exactly in rational mode, within ``dual_tol`` in float mode."""
        vals = self.values()
        return all(self.ops.same(v, vals[0]) for v in vals)


def chain_quantities(
    space: PathSpace, variable: InfoVariable, claim: Expr
) -> ChainQuantities:
    """Evaluate the five equivalent routes for a label variable (cash only).

    The worst informed hedge ignores atoms where hedging is already
    hopeless (value ``-inf``): capital chosen before seeing the label must
    cover every label the market can present, so the binding atom is the
    costliest finite one, and only an all-hopeless table yields ``-inf``.
    """
    return duality_report(space, claim, InfoStructure.minus(variable)).chain


def _chain_quantities(
    space: PathSpace, variable: InfoVariable, claim: Expr, hedge_minus: Any, price_minus: Any
) -> ChainQuantities:
    """The chain, from the ``minus`` hedge and price that :func:`duality_report` has solved."""
    minus = InfoStructure.minus(variable)
    book = StaticOptionBook.cash_only()
    ops = space.ops

    plus = duality_report(space, claim, InfoStructure.plus(variable), book)

    forced = {}
    base = build_measure_lp(
        space, space.all_paths(), minus, book, None, space.claim_values(claim)
    )
    for atom in z_partition(space, variable):
        inside = set(atom.paths)
        # weight 0 on every path outside the atom; path p is column p
        outside = (p for p in range(space.n_paths) if p not in inside)
        extra = tuple((((p, ops.one),), "==", ops.zero) for p in outside)
        lp = replace(base, rows=base.rows + extra)
        forced[atom.label] = _price_value(
            space, lp, space.all_paths(), minus, book, (0, space.n_steps)
        ).value

    per_atom = tuple(
        (e.atom.label, e.hedge.value, e.price.value, forced[e.atom.label]) for e in plus.entries
    )
    return ChainQuantities(
        hedge_minus,
        plus.aggregate_hedge,
        plus.aggregate_price,
        _max_or_neg_inf(forced.values()),
        price_minus,
        per_atom,
        space.ops,
    )


@dataclass(frozen=True)
class DualityReport:
    """Per-atom hedge and price values for one claim, plus aggregates."""

    entries: tuple  # of AtomDuality
    aggregate_hedge: Any  # worst finite atom hedge: capital fixed before the label
    aggregate_price: Any  # best atom price
    chain: Optional[ChainQuantities]
    ops: ModeOps

    @property
    def tight_everywhere(self) -> bool:
        """Every gap is zero, within ``dual_tol`` in float mode."""
        return all(self.ops.same(e.hedge.value, e.price.value) for e in self.entries)


def duality_report(
    space: PathSpace,
    claim: Expr,
    info: InfoStructure,
    book: Optional[StaticOptionBook] = None,
) -> DualityReport:
    """Hedge and price every initial-capital atom along independent routes.

    The hedge table and the price table come from separate programs; the
    report simply pairs them per atom.  With a label variable and a
    cash-only book under the uninformed-capital arrangement, the five-way
    chain is evaluated as well.
    """
    book = book or StaticOptionBook.cash_only()
    hedges = superhedge(space, None, info, claim, book)
    prices = model_price(space, None, info, claim, book)
    entries = []
    for atom, hv in hedges:
        pv = prices.for_path(atom.paths[0])
        entries.append(AtomDuality(atom, hv, pv))

    chain = None
    if info.variant == VARIANT_MINUS and book.is_cash_only:
        # info is InfoStructure.minus(info.variable): its two tables are the chain's
        chain = _chain_quantities(
            space, info.variable, claim, hedges.single().value, prices.single().value
        )

    return DualityReport(
        tuple(entries),
        _max_or_neg_inf(hv.value for hv in hedges.values()),
        _max_or_neg_inf(pv.value for pv in prices.values()),
        chain,
        space.ops,
    )


# ---------------------------------------------------------------------------
# the value of information


def _informed_value(
    space: PathSpace, variable: InfoVariable, arrival: int, claim: Expr
) -> Any:
    if arrival == 0:
        info = InfoStructure.minus(variable)
    else:
        if not 1 <= arrival <= space.n_steps - 1:
            raise PreconditionError(
                f"arrival {arrival} outside 0..{space.n_steps - 1}"
            )
        if not check_scaling_form(space, variable, arrival):
            raise PreconditionError(
                "the label must depend only on the renormalised tail when it "
                "arrives after time 0"
            )
        info = InfoStructure.dynamic(variable, arrival)
    return superhedge(space, None, info, claim, None).single().value


def info_value_claim(
    space: PathSpace, variable: InfoVariable, arrival: int, claim: Expr
) -> Any:
    """How much cheaper one claim becomes to superhedge given the label.

    The difference between the uninformed superhedging value and the value
    with the label available from ``arrival`` on (capital fixed before the
    label either way).  Undefined, and an error, when either side is
    ``-inf``.
    """
    return _premium(info_value_report(space, variable, arrival, [claim]))


def info_value(
    space: PathSpace,
    variable: InfoVariable,
    arrival: int,
    claims: Sequence[Expr],
) -> Any:
    """The information premium over a family of claims with values in [0, 1].

    Checks the range claim by claim before any solve (an out-of-range
    claim is a precondition failure) and returns the largest single-claim
    premium.
    """
    if not claims:
        raise PreconditionError("the claim family is empty")
    ops = space.ops
    for k, claim in enumerate(claims):
        values = space.claim_values(claim)
        for p, v in enumerate(values):
            if v < ops.zero or v > ops.one:
                raise PreconditionError(
                    f"claim {k} takes value {format_number(v)} on path {p}; "
                    "the family must stay within [0, 1]"
                )
    return _premium(info_value_report(space, variable, arrival, claims))


@dataclass(frozen=True)
class InfoValueEntry:
    claim: Expr
    base: Any
    informed: Any
    value: Optional[Any]
    flag: str = ""


@dataclass(frozen=True)
class InfoValueReport:
    """Per-claim premiums with degenerate cases flagged instead of raised."""

    arrival: int
    variable_name: str
    entries: tuple
    value: Optional[Any]  # the family premium, None when every entry is flagged


def _premium(report: InfoValueReport) -> Any:
    """The family premium of ``report``; a flagged entry leaves it undefined."""
    if any(entry.flag for entry in report.entries):
        raise PreconditionError(
            "superhedging degenerates to -inf here; the information premium "
            "is undefined"
        )
    return report.value


def info_value_report(
    space: PathSpace,
    variable: InfoVariable,
    arrival: int,
    claims: Sequence[Expr],
) -> InfoValueReport:
    entries = []
    finite = []
    for claim in claims:
        base = superhedge(space, None, InfoStructure.none(), claim, None).single().value
        informed = _informed_value(space, variable, arrival, claim)
        if is_neg_inf(base) or is_neg_inf(informed):
            side = "uninformed" if is_neg_inf(base) else "informed"
            entries.append(
                InfoValueEntry(claim, base, informed, None, f"{side} value is -inf")
            )
        else:
            value = base - informed
            finite.append(value)
            entries.append(InfoValueEntry(claim, base, informed, value))
    return InfoValueReport(
        arrival,
        variable.name,
        tuple(entries),
        max(finite) if finite else None,
    )


def transport_claim(claim: Expr, arrival: int, space: PathSpace) -> TailClaim:
    """Rewrite a short-horizon claim to read the renormalised tail.

    The claim must fit the tail shape: it may reference grid indices up to
    ``space.n_steps - arrival`` (its ``T`` resolves to the tail's last
    index) and only coordinates the space has.  Evaluated on a path, the
    transported claim sees the tail from ``arrival`` on, divided through by
    its value there, so at ``arrival = 0`` it is the original claim.
    """
    if not 0 <= arrival < space.n_steps:
        raise PreconditionError(
            f"arrival {arrival} outside 0..{space.n_steps - 1}"
        )
    validate_payoff(claim, space.n_coords, space.n_steps - arrival)
    return TailClaim(claim, arrival)


__all__ = [
    "AtomDuality",
    "ChainQuantities",
    "DualityReport",
    "InfoValueEntry",
    "InfoValueReport",
    "chain_quantities",
    "duality_report",
    "info_value_claim",
    "info_value",
    "info_value_report",
    "transport_claim",
]
