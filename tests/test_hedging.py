"""Superhedging: values, strategies, arbitrage witnesses, and decompositions.

Fixture expectations marked "oracle" were frozen from tests/oracle.py,
which enumerates measure-polytope vertices independently of the package.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rip import (
    AtomTable,
    BinOp,
    DppDecomposition,
    FLOAT,
    FLOAT_OPS,
    InfoStructure,
    InternalCheckError,
    ModeOps,
    Num,
    Optimal,
    Option,
    PreconditionError,
    StaticOptionBook,
    Strategy,
    Unbounded,
    UndefinedHoldingError,
    build_hedge_problem,
    build_lattice,
    dpp_price,
    dpp_superhedge,
    extract_strategy,
    fatten,
    gains,
    info_from_payoff,
    is_neg_inf,
    parse_payoff,
    rat,
    solve_checked,
    space_from_paths,
    superhedge,
    verify_strategy,
)
import rip.hedging

NONE = InfoStructure.none()


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
        hv = superhedge(tri1, None, no_info, Num(5)).single()
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
            p for p in tri2.all_paths()
            if tri2.rows(p) == ((1,), (rat(1, 2),), (rat(1, 4),))
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
        # malformed holdings on a one-coordinate lattice: path 0 in two atoms
        # at t = 0, in either order, and a holding with an extra entry
        one_step = build_lattice(1, 1, ["1/2", 1, 2])
        for dynamic, p in [
            ({(0, (0, 1)): (1,), (0, (0, 2)): (5,)}, 0),
            ({(0, (0, 2)): (5,), (0, (0, 1)): (1,)}, 0),
            ({(0, (0, 1, 2)): (1, 99)}, 2),
        ]:
            with pytest.raises(PreconditionError):
                gains(one_step, dynamic, p, 0, 1)


# one perturbation per mode: 2**-200 is lost by any rounding of an exact
# comparison, and 10 * dual_tol is well past the float tolerance
_PERTURBATIONS = [
    pytest.param("rational", rat(1, 2**200), id="rational"),
    pytest.param("float", 10 * FLOAT_OPS.dual_tol, id="float"),
]


class TestStrategyRecheckBranches:
    """Each failure branch of the pathwise re-check, on optimal outcomes moved
    by a perturbation at the edge of each mode."""

    @staticmethod
    def _solved(mode, book):
        space = build_lattice(1, 1, ["1/2", 1, 2], mode=mode)
        # claims of 1 and more: wealth and claim are both far from 0 on every path
        claim = parse_payoff("1 + pos(S[1,T] - 1)")
        problem = build_hedge_problem(
            space, space.all_paths(), InfoStructure.none(), space.claim_values(claim), book
        )
        outcome = solve_checked(problem.lp, space.ops)
        extract_strategy(outcome, problem)  # the optimum itself passes
        return problem, outcome

    @pytest.mark.parametrize("with_book", [False, True], ids=["cash", "book"])
    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_less_cash_fails_to_dominate(
        self, mode, eps, with_book, flat_digital_book
    ):
        book = flat_digital_book if with_book else StaticOptionBook.cash_only()
        problem, outcome = self._solved(mode, book)
        # cost and value still match; the wealth falls short on a tight path
        poorer = replace(
            outcome, x=(outcome.x[0] - eps,) + outcome.x[1:], value=outcome.value - eps
        )
        with pytest.raises(InternalCheckError, match="fails to dominate the claim on path"):
            extract_strategy(poorer, problem)

    @pytest.mark.parametrize("with_book", [False, True], ids=["cash", "book"])
    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_a_cost_that_does_not_match(
        self, mode, eps, with_book, flat_digital_book
    ):
        book = flat_digital_book if with_book else StaticOptionBook.cash_only()
        problem, outcome = self._solved(mode, book)
        with pytest.raises(InternalCheckError, match="does not match the solver value"):
            extract_strategy(replace(outcome, value=outcome.value - eps), problem)


class TestVerifyStrategy:
    """The pathwise check on `Strategy` objects, apart from any LP outcome,
    with the perturbations of the re-check branches above."""

    @staticmethod
    def _optimum(mode, book):
        """A two-step hedge's optimal strategy with what it is checked against."""
        space = build_lattice(1, 2, ["1/2", 1, 2], mode=mode)
        claim = parse_payoff("1 + pos(S[1,T] - 1)")
        target = space.all_paths()
        hv = superhedge(space, target, InfoStructure.none(), claim, book).single()
        return space, hv.strategy, target, space.claim_values(claim), hv.value

    @staticmethod
    def _with_cash(strategy, cash, dynamic=None):
        dynamic = strategy.dynamic if dynamic is None else dynamic
        return Strategy((cash,) + strategy.static[1:], dynamic, strategy.span)

    @pytest.mark.parametrize("with_book", [False, True], ids=["cash", "book"])
    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_the_optimum_passes_and_less_cash_fails(self, mode, eps, with_book, flat_digital_book):
        book = flat_digital_book if with_book else StaticOptionBook.cash_only()
        space, strategy, target, claims, value = self._optimum(mode, book)
        verify_strategy(space, NONE, strategy, book, target, claims, value)
        # the optimum is tight on some path, where eps less cash falls short
        poorer = self._with_cash(strategy, strategy.static[0] - eps)
        with pytest.raises(InternalCheckError, match="fails to dominate the claim on path"):
            verify_strategy(space, NONE, poorer, book, target, claims, value - eps)

    @pytest.mark.parametrize("with_book", [False, True], ids=["cash", "book"])
    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_a_cost_that_does_not_match(self, mode, eps, with_book, flat_digital_book):
        book = flat_digital_book if with_book else StaticOptionBook.cash_only()
        space, strategy, target, claims, value = self._optimum(mode, book)
        with pytest.raises(InternalCheckError, match="does not match the solver value"):
            verify_strategy(space, NONE, strategy, book, target, claims, value - eps)

    @pytest.mark.parametrize("with_book", [False, True], ids=["cash", "book"])
    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_a_missing_holding(self, mode, eps, with_book, flat_digital_book):
        book = flat_digital_book if with_book else StaticOptionBook.cash_only()
        space, strategy, target, claims, value = self._optimum(mode, book)
        # drop the holding on one atom at t=1; the other atoms keep theirs
        dropped = next(key for key in strategy.dynamic if key[0] == 1)
        partial = {k: h for k, h in strategy.dynamic.items() if k != dropped}
        richer = self._with_cash(strategy, strategy.static[0] + eps, partial)
        missing = f"t=1 on an atom containing path {dropped[1][0]}"
        with pytest.raises(UndefinedHoldingError, match=missing):
            verify_strategy(space, NONE, richer, book, target, claims, value + eps)

    @pytest.mark.parametrize("with_book", [False, True], ids=["cash", "book"])
    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_a_static_only_strategy(self, mode, eps, with_book, flat_digital_book):
        book = flat_digital_book if with_book else StaticOptionBook.cash_only()
        space, strategy, target, claims, _ = self._optimum(mode, book)
        # an empty dynamic map holds nothing: cash alone must cover the claim
        top = max(claims)
        static_only = Strategy((top,) + (space.ops.zero,) * (book.size - 1), {}, (0, 2))
        verify_strategy(space, NONE, static_only, book, target, claims, top)
        short = Strategy((top - eps,) + static_only.static[1:], {}, (0, 2))
        with pytest.raises(InternalCheckError, match="fails to dominate the claim on path"):
            verify_strategy(space, NONE, short, book, target, claims, top - eps)

    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_a_static_option_pays_its_payoff(self, mode, eps, flat_digital_book):
        space = build_lattice(1, 2, ["1/2", 1, 2], mode=mode)
        claims = space.claim_values(flat_digital_book.options[0].payoff)
        one = space.ops.one
        price = flat_digital_book.prices(space.ops)[1]
        # one unit of the quoted option, and nothing else, covers its own payoff
        unit = Strategy((space.ops.zero, one), {}, (0, 2))
        verify_strategy(space, NONE, unit, flat_digital_book, space.all_paths(), claims, price)
        short = Strategy((space.ops.zero, one - eps), {}, (0, 2))
        with pytest.raises(InternalCheckError, match="fails to dominate the claim on path"):
            verify_strategy(
                space, NONE, short, flat_digital_book, space.all_paths(), claims,
                price * (one - eps),
            )

    def test_inputs_must_align(self, tri1, call_at_1):
        claims = tri1.claim_values(call_at_1)
        book = StaticOptionBook.cash_only()
        verify_strategy(tri1, NONE, Strategy((2,), {}, (0, 1)), book, (0, 1, 2), claims, 2)
        with pytest.raises(PreconditionError):
            verify_strategy(tri1, NONE, Strategy((2,), {}, (0, 1)), book, (0, 1), claims, 2)
        with pytest.raises(PreconditionError):
            verify_strategy(tri1, NONE, Strategy((2, 0), {}, (0, 1)), book, (0, 1, 2), claims, 2)
        with pytest.raises(PreconditionError):
            verify_strategy(tri1, NONE, Strategy((2,), {}, (0, 2)), book, (0, 1, 2), claims, 2)

    def test_holdings_must_sit_on_atoms(self, tri2, call_at_2):
        # cash at the claim's maximum and nothing traded dominate the claim
        # however the holdings are keyed, so only the atom check refuses these
        claims, book = tri2.claim_values(call_at_2), StaticOptionBook.cash_only()
        top, nothing = max(claims), (rat(0),)
        first, second, third = (atom.paths for atom in _market(tri2, 1))
        on_atoms = {(0, tri2.all_paths()): nothing}
        on_atoms.update({(1, atom): nothing for atom in (first, second, third)})
        part = {**on_atoms, (1, first[:1]): nothing, (1, first[1:]): nothing}
        del part[1, first]
        across = {**on_atoms, (1, tuple(sorted(first + second))): nothing}
        del across[1, first], across[1, second]

        def check(dynamic):
            strategy = Strategy((top,), dynamic, (0, 2))
            verify_strategy(tri2, NONE, strategy, book, tri2.all_paths(), claims, top)

        check(on_atoms)
        for dynamic in (part, across):
            with pytest.raises(PreconditionError, match="not on an atom"):
                check(dynamic)


def _market(space, t):
    from rip import market_partition

    return market_partition(space, t)


class TestArbitrage:
    def test_forced_high_price_is_unbounded(self):
        # the asset can only go up, so shorting cash against it pumps money
        space = space_from_paths([[(1,), (2,)], [(1,), (3,)]], n_assets=1)
        hv = superhedge(space, None, InfoStructure.none(), Num(0)).single()
        assert is_neg_inf(hv.value)
        ray = hv.ray
        assert ray is not None
        assert ray.cost == -1
        # the ray's payout direction dominates 0 on every path
        for p in space.all_paths():
            flow = ray.static[0] + gains(space, ray.dynamic, p, 0, space.n_steps)
            assert flow >= 0

    def test_a_ray_that_loses_money_is_refused(self, monkeypatch, tri1, call_at_1, no_info):
        # cash -1 and nothing traded costs -1, and pays -1 on every path
        def unbounded(lp, ops):
            zeros = (ops.zero,) * (lp.n_vars - 1)
            return Unbounded((ops.zero, *zeros), (-ops.one, *zeros), 0)

        monkeypatch.setattr(rip.hedging, "solve_checked", unbounded)
        with pytest.raises(InternalCheckError, match="fails to dominate the claim on path"):
            superhedge(tri1, None, no_info, call_at_1)

    def test_feasible_atom_next_to_empty_atom(self, call_at_1):
        space = space_from_paths([[(1,), (2,)], [(1,), (3,)], [(1,), (1,)]], n_assets=1)
        upper = info_from_payoff(parse_payoff("ind(S[1,1] >= 2)"), "up")
        table = superhedge(space, None, InfoStructure.plus(upper), call_at_1)
        values = {a.label: hv.value for a, hv in table}
        assert values[1] == float("-inf")
        assert values[0] == 0


class TestIntervalValues:
    def test_frozen_subtree_value(self, tri2, call_at_2, no_info):
        start = next(p for p in range(9) if tri2.rows(p)[1][0] == 2)
        table = dpp_superhedge(tri2, call_at_2, 1, no_info).inner
        assert table.for_path(start).value == rat(2, 3)  # oracle: tri2_interval_sub2_call2
        assert table.for_path(start).strategy.span == (1, 2)

    def test_degenerates_to_the_claim_at_the_horizon(self, tri2, call_at_2, no_info):
        table = dpp_superhedge(tri2, call_at_2, 2, no_info).inner
        assert len(table) == 9
        for p in range(9):
            assert table.for_path(p).value == tri2.claim_values(call_at_2)[p]

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

    def test_a_static_book_needs_an_interval_from_zero(self, tri2, no_info):
        # positions formed at 1 in an option quoted at 0 would hedge at 7/9, below the price of 1
        flat = Option(parse_payoff("ind(S[1,1] == 1)"), rat(1, 3), "flat")
        book = StaticOptionBook.of(flat)
        values = tri2.claim_values(parse_payoff("pos(S[1,T] - 1)"))
        with pytest.raises(PreconditionError, match="static book"):
            build_hedge_problem(tri2, tri2.all_paths(), no_info, values, book, (1, 2))
        build_hedge_problem(tri2, tri2.all_paths(), no_info, values, book, (0, 2))
        cash = StaticOptionBook.cash_only()
        build_hedge_problem(tri2, tri2.all_paths(), no_info, values, cash, (1, 2))

    def test_a_book_payoff_outside_the_space_is_a_precondition_error(self, tri1, call_at_1, no_info):
        book = StaticOptionBook.of(Option(parse_payoff("S[2,1]"), rat(1), "second asset"))
        with pytest.raises(PreconditionError, match="coordinate 2, model has 1"):
            superhedge(tri1, None, no_info, call_at_1, book)

    def test_table_covers_the_partition(self, tri2, call_at_2, no_info):
        table = dpp_superhedge(tri2, call_at_2, 1, no_info).inner
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

    # the preconditions hold on both sides of the decomposition
    both_sides = pytest.mark.parametrize(
        "dpp", [dpp_superhedge, dpp_price], ids=lambda f: f.__name__
    )

    @both_sides
    def test_dynamic_variant_needs_matching_arrival(self, tri2, call_at_2, dpp):
        from rip import tail_range_indicator

        info = InfoStructure.dynamic(tail_range_indicator(rat(3, 4), rat(3, 2), 1), 1)
        dec = dpp(tri2, call_at_2, 1, info)
        assert dec.agree
        with pytest.raises(PreconditionError, match="must equal the arrival"):
            dpp(tri2, call_at_2, 0, info)

    @both_sides
    def test_prefix_bound_variables_are_rejected(self, tri2, call_at_2, dpp):
        from rip import max_abs_deviation

        info = InfoStructure.dynamic(max_abs_deviation(), 1)
        with pytest.raises(PreconditionError, match="renormalised tail"):
            dpp(tri2, call_at_2, 1, info)

    @both_sides
    @pytest.mark.parametrize("split", [-1, 3])
    def test_split_outside_the_grid_is_rejected(self, tri2, call_at_2, no_info, dpp, split):
        with pytest.raises(PreconditionError, match="outside grid 0..2"):
            dpp(tri2, call_at_2, split, no_info)

    def test_float_values_agree_within_the_tolerance(self, call_at_1, no_info):
        space = build_lattice(1, 4, [0.5, 1.0, 2.0], mode="float")
        dec = dpp_superhedge(space, call_at_1, 2, no_info)
        assert abs(dec.direct - dec.composed) <= space.ops.dual_tol
        assert dec.agree

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_inner_values_all_neg_inf_compose_to_neg_inf(self, mode):
        # from t = 1 the asset can only rise: every interval value is an arbitrage
        space = space_from_paths([[(1,), (1,), (2,)], [(1,), (1,), (3,)]], 1, mode)
        dec = dpp_superhedge(space, Num(0), 1, NONE)
        assert [hv.finite for _, hv in dec.inner] == [False]
        assert is_neg_inf(dec.direct) and is_neg_inf(dec.composed)
        assert dec.agree

    @both_sides
    def test_minus_variant_is_out_of_scope(self, tri2, call_at_2, hits_one, dpp):
        with pytest.raises(PreconditionError, match="variants 'none' and 'dynamic'"):
            dpp(tri2, call_at_2, 1, InfoStructure.minus(hits_one))

    def test_agreement_reads_the_tolerance_of_the_run(self):
        loose = ModeOps(FLOAT, feas_tol=1e-9, label_tol=1e-12, dual_tol=1e-4)
        dec = DppDecomposition(1.0, 1.0 + 5e-5, 1, AtomTable(()), loose)
        assert dec.agree
        default = build_lattice(1, 1, [0.5, 2.0], mode="float").ops
        assert not DppDecomposition(1.0, 1.0 + 5e-5, 1, AtomTable(()), default).agree


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
    shifted = BinOp("+", claim, Num(1))
    up = superhedge(space, None, none, shifted).single().value
    assert up == base + 1
    halved = BinOp("/", claim, Num(2))
    assert superhedge(space, None, none, halved).single().value == base / 2


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
