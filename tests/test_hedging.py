"""Superhedging: values, strategies, arbitrage witnesses, and decompositions.

Fixture expectations marked "oracle" were frozen from tests/oracle.py,
which enumerates measure-polytope vertices independently of the package.
"""

import pytest
from hypothesis import given, settings, strategies as st

from rip import (
    InfoStructure,
    Optimal,
    PreconditionError,
    StaticOption,
    StaticOptionBook,
    UndefinedHoldingError,
    build_hedge_problem,
    build_lattice,
    constant_payoff,
    dpp_superhedge,
    extract_strategy,
    fatten,
    gains,
    info_from_payoff,
    interval_value_table,
    is_neg_inf,
    parse_payoff,
    rat,
    solve_checked,
    space_from_paths,
    superhedge,
)


class TestSingleStep:
    def test_call_value_and_hedge(self, tri1, call_at_1, no_info):
        table = superhedge(tri1, None, no_info, call_at_1)
        hv = table.single()
        assert hv.value == rat(1, 3)  # oracle: tri1_call
        strategy = hv.strategy
        assert strategy.static == (rat(1, 3),)
        holding = next(iter(strategy.dynamic.values()))
        assert holding == (rat(2, 3),)

    def test_put_and_digital(self, tri1, put_at_1, digital_at_2, no_info):
        assert superhedge(tri1, None, no_info, put_at_1).single().value == rat(1, 3)
        assert superhedge(tri1, None, no_info, digital_at_2).single().value == rat(1, 3)

    def test_constant_claim_costs_its_value(self, tri1, no_info):
        hv = superhedge(tri1, None, no_info, constant_payoff(5)).single()
        assert hv.value == 5

    def test_static_digital_lowers_the_call(self, tri1, call_at_1, no_info, flat_digital_book):
        hv = superhedge(tri1, None, no_info, call_at_1, flat_digital_book).single()
        assert hv.value == rat(4, 15)  # oracle: tri1_call_with_digital

    def test_plus_variant_splits_by_label(self, tri1, call_at_1, hits_one):
        table = superhedge(tri1, None, InfoStructure.plus(hits_one), call_at_1)
        values = {a.label: hv.value for a, hv in table}
        assert values == {0: rat(1, 3), 1: 0}  # oracle: tri1_plus_call_z*

    def test_minus_variant_shares_the_capital(self, tri1, call_at_1, hits_one):
        hv = superhedge(tri1, None, InfoStructure.minus(hits_one), call_at_1).single()
        assert hv.value == rat(1, 3)

    def test_target_restriction(self, tri1, call_at_1, no_info):
        hv = superhedge(tri1, [1], no_info, call_at_1).single()
        assert hv.value == 0


class TestStrategyMechanics:
    def test_extract_strategy_demands_an_optimum(self, tri1, call_at_1, no_info):
        problem = build_hedge_problem(tri1, [0, 1, 2], no_info, tri1.claim_values(call_at_1),
                                      StaticOptionBook.cash_only())
        outcome = solve_checked(problem.lp, tri1.ops)
        assert isinstance(outcome, Optimal)
        strategy = extract_strategy(outcome, problem)
        assert strategy.cost(problem.book, tri1.ops) == rat(1, 3)
        with pytest.raises(PreconditionError):
            extract_strategy("not an outcome", problem)

    def test_gains_examples(self, tri2):
        crash = next(
            p for p in range(len(tri2.paths))
            if tri2.paths[p].series(1) == (1, rat(1, 2), rat(1, 4))
        )
        hold_one = {}
        for t in (0, 1):
            for atom_paths in {tuple(a.paths) for a in _market(tri2, t)}:
                hold_one[(t, atom_paths)] = (rat(1),)
        assert gains(tri2, hold_one, crash, 0, 2) == rat(-3, 4)  # oracle: unit gain
        assert gains(tri2, {}, crash, 0, 2) == 0
        assert gains(tri2, None, crash, 0, 2) == 0

    def test_gains_missing_holding_is_an_error(self, tri2):
        partial = {(0, tuple(range(9))): (rat(1),)}
        with pytest.raises(UndefinedHoldingError):
            gains(tri2, partial, 0, 0, 2)

    def test_gains_range_validation(self, tri2):
        with pytest.raises(PreconditionError):
            gains(tri2, {}, 0, 2, 1)
        with pytest.raises(PreconditionError):
            gains(tri2, {}, 0, 0, 5)


def _market(space, t):
    from rip import market_partition

    return market_partition(space, t)


class TestArbitrage:
    def test_forced_high_price_is_unbounded(self):
        # the asset can only go up, so shorting cash against it pumps money
        space = space_from_paths([[(1,), (2,)], [(1,), (3,)]], n_assets=1)
        hv = superhedge(space, None, InfoStructure.none(), constant_payoff(0)).single()
        assert is_neg_inf(hv.value)
        ray = hv.ray
        assert ray is not None
        assert ray.cost == -1
        # the ray's payout direction dominates 0 on every path
        for p in range(len(space.paths)):
            flow = ray.static[0] + gains(space, ray.dynamic, p, 0, space.n_steps)
            assert flow >= 0

    def test_feasible_atom_next_to_empty_atom(self, call_at_1):
        space = space_from_paths([[(1,), (2,)], [(1,), (3,)], [(1,), (1,)]], n_assets=1)
        upper = info_from_payoff(parse_payoff("ind(S[1,1] >= 2)"), "up")
        table = superhedge(space, None, InfoStructure.plus(upper), call_at_1)
        values = {a.label: hv.value for a, hv in table}
        assert values[1] == float("-inf")
        assert values[0] == 0


class TestIntervalValues:
    def test_frozen_subtree_value(self, tri2, call_at_2, no_info):
        start = next(p for p in range(9) if tri2.paths[p].coord(1, 1) == 2)
        table = interval_value_table(tri2, 1, no_info, call_at_2)
        assert table.for_path(start).value == rat(2, 3)  # oracle: tri2_interval_sub2_call2
        assert table.for_path(start).strategy.span == (1, 2)

    def test_degenerates_to_the_claim_at_the_horizon(self, tri2, call_at_2, no_info):
        table = interval_value_table(tri2, 2, no_info, call_at_2)
        assert len(table) == 9
        for p in range(9):
            assert table.for_path(p).value == tri2.claim_value(call_at_2, p)

    def test_interval_hedge_starts_feasible(self, tri2, no_info):
        # cash above the floor's maximum: every row starts on its slack
        floor = [rat(p, 7) for p in range(9)]
        problem = build_hedge_problem(
            tri2, range(1, 9), no_info, floor, StaticOptionBook.cash_only(), (0, 1)
        )
        assert problem.cash_shift == rat(8, 7)
        assert all(rel == ">=" and rhs <= 0 for _, rel, rhs in problem.lp.rows)
        assert {t for t, _, _ in problem.dynamic_vars} == {0}
        outcome = solve_checked(problem.lp, tri2.ops)
        strategy = extract_strategy(outcome, problem)
        assert strategy.span == (0, 1)
        for p in range(1, 9):
            wealth = strategy.static[0] + gains(tri2, strategy.dynamic, p, 0, 1)
            assert wealth >= floor[p]

    def test_table_covers_the_partition(self, tri2, call_at_2, no_info):
        table = interval_value_table(tri2, 1, no_info, call_at_2)
        assert len(table) == 3
        # subtrees from 1/2 and 1 cannot reach above 2, so they hedge for free
        values = sorted(hv.value for _, hv in table)
        assert values == [0, 0, rat(2, 3)]


class TestDpp:
    def test_uninformed_split_agrees(self, tri2, call_at_2, no_info):
        dec = dpp_superhedge(tri2, call_at_2, 1, no_info)
        assert dec.direct == rat(2, 9)  # oracle: tri2_call2
        assert dec.agree

    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_every_split_point(self, tri2, call_at_2, no_info, split):
        dec = dpp_superhedge(tri2, call_at_2, split, no_info)
        assert dec.agree

    def test_dynamic_variant_needs_matching_arrival(self, tri2, call_at_2):
        from rip import tail_range_indicator

        info = InfoStructure.dynamic(tail_range_indicator(rat(3, 4), rat(3, 2), 1), 1)
        dec = dpp_superhedge(tri2, call_at_2, 1, info)
        assert dec.agree
        with pytest.raises(PreconditionError):
            dpp_superhedge(tri2, call_at_2, 0, info)

    def test_prefix_bound_variables_are_rejected(self, tri2, call_at_2):
        from rip import max_abs_deviation

        info = InfoStructure.dynamic(max_abs_deviation(), 1)
        with pytest.raises(PreconditionError, match="renormalised tail"):
            dpp_superhedge(tri2, call_at_2, 1, info)

    def test_float_values_agree_within_the_tolerance(self, call_at_1, no_info):
        space = build_lattice(1, 4, [0.5, 1.0, 2.0], mode="float")
        dec = dpp_superhedge(space, call_at_1, 2, no_info)
        assert abs(dec.direct - dec.composed) <= space.ops.dual_tol
        assert dec.agree

    def test_minus_variant_is_out_of_scope(self, tri2, call_at_2, hits_one):
        with pytest.raises(PreconditionError):
            dpp_superhedge(tri2, call_at_2, 1, InfoStructure.minus(hits_one))


class TestApprox:
    """Superhedging over the support fattened in uniform distance."""

    @staticmethod
    def fattened(space, support, radius, claim):
        fat = fatten(space, support, radius)
        return superhedge(space, fat, InfoStructure.none(), claim).single().value

    def test_radius_zero_equals_exact(self, tri1, call_at_1):
        exact = superhedge(tri1, [1], InfoStructure.none(), call_at_1).single().value
        assert self.fattened(tri1, [1], 0, call_at_1) == exact

    def test_saturates_at_the_full_space(self, tri1, call_at_1, no_info):
        full = superhedge(tri1, None, no_info, call_at_1).single().value
        assert self.fattened(tri1, [1], rat(10), call_at_1) == full

    def test_monotone_in_radius(self, tri2, call_at_2):
        values = [
            self.fattened(tri2, [4], radius, call_at_2)
            for radius in (0, rat(1, 4), rat(1), rat(4))
        ]
        assert values == sorted(values)


# ---------------------------------------------------------------------------
# structural properties on randomised lattices

_ratio_sets = st.lists(
    st.sampled_from([rat(1, 3), rat(1, 2), rat(2, 3), rat(1), rat(3, 2), rat(2), rat(3)]),
    min_size=2,
    max_size=3,
    unique=True,
)


@st.composite
def lattice_and_claim(draw):
    ratios = draw(_ratio_sets)
    steps = draw(st.integers(min_value=1, max_value=2))
    space = build_lattice(1, steps, ratios)
    strike = draw(st.sampled_from([rat(1, 2), rat(1), rat(3, 2), rat(2)]))
    kind = draw(st.sampled_from(["call", "put", "digital"]))
    if kind == "call":
        expr = parse_payoff(f"pos(S[1,T] - {_lit(strike)})")
    elif kind == "put":
        expr = parse_payoff(f"pos({_lit(strike)} - S[1,T])")
    else:
        expr = parse_payoff(f"ind(S[1,T] >= {_lit(strike)})")
    return space, expr


def _lit(q):
    return f"({q.numerator}/{q.denominator})" if q.denominator != 1 else str(q.numerator)


@given(sc=lattice_and_claim())
@settings(max_examples=40, deadline=None)
def test_translation_and_monotonicity(sc):
    space, claim = sc
    none = InfoStructure.none()
    base = superhedge(space, None, none, claim).single().value
    if is_neg_inf(base):
        return
    shifted = parse_payoff(f"({payoff_text(claim)}) + 1")
    up = superhedge(space, None, none, shifted).single().value
    assert up == base + 1
    halved = parse_payoff(f"({payoff_text(claim)}) / 2")
    assert superhedge(space, None, none, halved).single().value == base / 2


def payoff_text(expr):
    from rip import payoff_to_text

    return payoff_to_text(expr)


@given(sc=lattice_and_claim())
@settings(max_examples=30, deadline=None)
def test_informed_capital_never_costs_more(sc):
    space, claim = sc
    if space.n_steps < 2:
        return
    from rip import tail_max_ratio

    variable = tail_max_ratio(1)
    none_value = superhedge(space, None, InfoStructure.none(), claim).single().value
    dyn = InfoStructure.dynamic(variable, 1)
    informed = superhedge(space, None, dyn, claim).single().value
    if is_neg_inf(none_value):
        assert is_neg_inf(informed)
    else:
        assert informed <= none_value
