"""Model prices, measure mechanics, and the approximate classes.

Oracle-marked expectations come from tests/oracle.py (independent vertex
enumeration over exact rationals).
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rip import (
    FLOAT_OPS,
    InfoStructure,
    InternalCheckError,
    MartingaleMeasure,
    Optimal,
    PreconditionError,
    StaticOption,
    StaticOptionBook,
    Unbounded,
    approx_price,
    build_lattice,
    build_measure_lp,
    chain_quantities,
    concatenate_measure,
    condition_measure,
    dpp_price,
    dpp_superhedge,
    format_number,
    is_neg_inf,
    market_partition,
    model_price,
    parse_payoff,
    rat,
    space_from_paths,
)
import rip.lp
import rip.pricing


class TestModelPrice:
    def test_uncalibrated_call_range(self, tri1, call_at_1, no_info):
        pv = model_price(tri1, None, no_info, call_at_1).single()
        assert pv.value == rat(1, 3)  # oracle: tri1_call
        assert pv.measure is not None
        assert not pv.measure.audit(tri1)

    def test_calibrated_measure_is_unique(self, tri1, call_at_1, no_info, flat_digital_book):
        pv = model_price(tri1, None, no_info, call_at_1, flat_digital_book).single()
        assert pv.value == rat(4, 15)  # oracle: tri1_call_with_digital
        assert pv.measure.weights == (rat(8, 15), rat(1, 5), rat(4, 15))

    def test_dirac_supports(self, tri1, call_at_1, no_info):
        # only the flat path carries a one-point martingale measure
        for p, expected in ((0, None), (1, 0), (2, None)):
            pv = model_price(tri1, [p], no_info, call_at_1).single()
            if expected is None:
                assert is_neg_inf(pv.value)
                assert pv.certificate is not None
            else:
                assert pv.value == expected

    def test_plus_variant_prices_per_atom(self, tri1, call_at_1, hits_one):
        table = model_price(tri1, None, InfoStructure.plus(hits_one), call_at_1)
        values = {a.label: pv.value for a, pv in table}
        assert values == {0: rat(1, 3), 1: 0}  # oracle: tri1_plus_call_z*

    def test_minus_variant_couples_the_atoms(self, tri2, call_at_2, hits_one):
        pv = model_price(tri2, None, InfoStructure.minus(hits_one), call_at_2).single()
        assert pv.value == rat(2, 9)  # oracle: tri2_call2 (flat label is free here)


class TestMeasureAudit:
    def test_audit_catches_broken_weights(self, tri1, call_at_1, no_info):
        pv = model_price(tri1, None, no_info, call_at_1).single()
        measure = pv.measure
        bad = type(measure)(
            weights=(rat(1), rat(1), rat(0)),
            info=measure.info,
            book=measure.book,
            interval=measure.interval,
            support=measure.support,
        )
        problems = bad.audit(tri1)
        assert problems
        assert any("mass" in p for p in problems)

    def test_expectation_and_mass_helpers(self, tri1, call_at_1, no_info):
        pv = model_price(tri1, None, no_info, call_at_1).single()
        values = tri1.claim_values(call_at_1)
        assert pv.measure.expectation(values, tri1.ops) == pv.value
        assert pv.measure.mass(range(3), tri1.ops) == 1

    def test_float_sums_add_left_to_right(self, no_info):
        # a compensated sum reads 1.0 here
        measure = MartingaleMeasure(
            (0.1,) * 10, no_info, StaticOptionBook.cash_only(), (0, 1), tuple(range(10))
        )
        assert measure.expectation([1.0] * 10, FLOAT_OPS) == 0.9999999999999999
        assert measure.mass(range(10), FLOAT_OPS) == 0.9999999999999999


# one perturbation per mode: 2**-200 is lost by any rounding of an exact
# comparison, and 10 * dual_tol is well past the float tolerance
_PERTURBATIONS = [
    pytest.param("rational", rat(1, 2**200), id="rational"),
    pytest.param("float", 10 * FLOAT_OPS.dual_tol, id="float"),
]


def _moved(measure, shift):
    """``measure`` with ``shift[p]`` added to the weight of path ``p``."""
    return replace(measure, weights=tuple(w + d for w, d in zip(measure.weights, shift)))


class TestMeasureAuditBranches:
    """Each failure branch of the audit, on perturbations at the edge of each mode.

    On the trinomial step (paths 1/2, 1, 2), moving weight along
    ``(2, -3, 1)`` keeps the mass and the drift and changes only the weight
    of the flat path.
    """

    @staticmethod
    def _measure(mode, call_at_1, no_info, target=None, book=None):
        space = build_lattice(1, 1, ["1/2", 1, 2], mode=mode)
        return space, model_price(space, target, no_info, call_at_1, book).single().measure

    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_a_negative_weight(self, mode, eps, call_at_1, no_info):
        space, measure = self._measure(mode, call_at_1, no_info)
        assert measure.weights[1] == 0 and not measure.audit(space)
        bad = _moved(measure, (2 * eps, -3 * eps, eps))
        assert bad.audit(space) == ["negative weight on path 1"]

    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_a_weight_off_the_support(self, mode, eps, call_at_1, no_info):
        space, measure = self._measure(mode, call_at_1, no_info, target=[0, 2])
        assert measure.support == (0, 2) and not measure.audit(space)
        bad = _moved(measure, (-2 * eps, 3 * eps, -eps))
        assert bad.audit(space) == ["weight off the support on path 1"]

    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_a_total_mass_off_one(self, mode, eps, call_at_1, no_info):
        space, measure = self._measure(mode, call_at_1, no_info)
        assert not measure.audit(space)
        bad = _moved(measure, (0, eps, 0))
        total = format_number(bad.mass(range(3), space.ops))
        assert bad.audit(space) == [f"total mass {total} is not 1"]

    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_a_drift(self, mode, eps, call_at_1, no_info):
        # weight moved between two paths of the one atom at t=0
        space, measure = self._measure(mode, call_at_1, no_info)
        assert not measure.audit(space)
        bad = _moved(measure, (-eps, eps, 0))
        assert bad.audit(space) == ["coordinate 1 drifts on an atom at t=0"]

    @pytest.mark.parametrize("mode, eps", _PERTURBATIONS)
    def test_a_mispriced_static_option(
        self, mode, eps, call_at_1, no_info, flat_digital_book
    ):
        space, measure = self._measure(mode, call_at_1, no_info, book=flat_digital_book)
        assert not measure.audit(space)
        bad = _moved(measure, (2 * eps, -3 * eps, eps))
        assert bad.audit(space) == ["static option 1 is mispriced on an initial atom"]


class TestConditionAndConcatenate:
    def test_round_trip_recovers_the_measure(self, tri2, call_at_2, no_info):
        pv = model_price(tri2, None, no_info, call_at_2).single()
        parent = pv.measure
        split = 1
        partition = market_partition(tri2, split)
        pieces = condition_measure(tri2, parent, partition)
        kernels = {tuple(atom.paths): cond for atom, _, cond in pieces}
        prefix = parent
        rebuilt = concatenate_measure(tri2, prefix, kernels, split)
        assert rebuilt.weights == parent.weights

    def test_zero_mass_atoms_are_omitted(self, tri2, call_at_2, no_info):
        pv = model_price(tri2, None, no_info, call_at_2).single()
        pieces = condition_measure(tri2, pv.measure, market_partition(tri2, 1))
        for _, mass, cond in pieces:
            assert mass > 0
            assert cond.mass(range(9), tri2.ops) == 1

    def test_missing_kernel_is_an_error(self, tri2, call_at_2, no_info):
        pv = model_price(tri2, None, no_info, call_at_2).single()
        with pytest.raises(PreconditionError, match="kernel"):
            concatenate_measure(tri2, pv.measure, {}, 1)


class TestIntervalPrices:
    def test_matches_the_subtree_oracle(self, tri2, call_at_2, no_info):
        table = dpp_price(tri2, call_at_2, 1, no_info).inner
        by_start = {tri2.rows(a.paths[0])[1][0]: pv.value for a, pv in table}
        assert by_start[rat(2)] == rat(2, 3)  # oracle: tri2_interval_sub2_call2
        assert by_start[rat(1)] == 0
        assert by_start[rat(1, 2)] == 0

    def test_a_static_book_needs_an_interval_from_zero(self, tri2, no_info):
        # calibration rows hold at 0 only: from 1 the price of 1 would top the hedge's 7/9
        flat = StaticOption(parse_payoff("ind(S[1,1] == 1)"), rat(1, 3), "flat")
        book = StaticOptionBook.of(flat)
        values = tri2.claim_values(parse_payoff("pos(S[1,T] - 1)"))
        with pytest.raises(PreconditionError, match="static book"):
            build_measure_lp(tri2, tri2.all_paths(), no_info, book, (1, 2), values)
        build_measure_lp(tri2, tri2.all_paths(), no_info, book, (0, 2), values)
        build_measure_lp(tri2, tri2.all_paths(), no_info, None, (1, 2), values)


class TestApprox:
    def test_frozen_eta_values(self, tri1, call_at_1):
        # oracle: tri1_approx_1_10 and tri1_approx_1_20
        assert approx_price(tri1, [1], rat(1, 10), call_at_1) == rat(333, 10000)
        assert approx_price(tri1, [1], rat(1, 20), call_at_1) == rat(333, 20000)

    def test_limit_recovers_the_exact_dirac_price(self, tri1, call_at_1, no_info):
        exact = model_price(tri1, [1], no_info, call_at_1).single().value
        assert exact == 0  # oracle: tri1_dirac_flat_call
        assert approx_price(tri1, [1], 0, call_at_1) == exact

    def test_limit_on_a_two_point_support(self, tri1, call_at_1, no_info):
        support = [0, 2]
        exact = model_price(tri1, support, no_info, call_at_1).single().value
        assert approx_price(tri1, support, 0, call_at_1) == exact

    def test_infeasible_class_is_neg_inf(self, call_at_1):
        space = space_from_paths([[(1,), (2,)], [(1,), (3,)]], n_assets=1)
        assert is_neg_inf(approx_price(space, [0], rat(1, 100), call_at_1))
        assert is_neg_inf(approx_price(space, [0], 0, call_at_1))

    def test_a_negative_radius_is_refused(self, tri1, call_at_1):
        with pytest.raises(PreconditionError, match="nonnegative"):
            approx_price(tri1, [1], rat(-1, 10), call_at_1)

    # A quoted call that no measure on the support prices at its quote: the
    # class is empty at every small radius, so the limit is -inf.  Each
    # radius below the last breakpoint is -inf; a two-point extrapolation
    # from larger radii gave the finite value in the comment.
    @pytest.mark.parametrize(
        "moves,support,claim,quote,radii",
        [
            # the only martingale measure prices the call at 1/5; extrapolated 1/5
            (["2/3", "3/2"], [0, 1], "pos(S[1,T] - 1)", "1/10", ["1/100", "1/1000000"]),
            # the support prices the call in [1/15, 1/11]; extrapolated 1/11 from
            # radii of 3/320 and up, where the price is finite (at 1/100 too)
            (["1/2", "9/10", "6/5", "2"], [1, 2, 3], "pos(S[1,T] - 1)", "1/10",
             ["3/640", "1/1000000"]),
            # extrapolated 1/40
            (["1/3", "1", "3"], [0, 1], "ind(S[1,T] > 1)", "1/20", ["1/100", "1/1000000"]),
        ],
        ids=["one-measure", "four-moves", "digital"],
    )
    def test_an_empty_class_at_small_radii_is_neg_inf(self, moves, support, claim, quote, radii):
        space = build_lattice(1, 1, moves)
        call = StaticOption(parse_payoff("pos(S[1,T] - 1)"), rat(quote), "call")
        book = StaticOptionBook.of(call)
        for eta in [0] + [rat(r) for r in radii]:
            assert is_neg_inf(approx_price(space, support, eta, parse_payoff(claim), book)), eta

    def test_monotone_in_eta(self, tri2, call_at_2):
        etas = [rat(1, 50), rat(1, 10), rat(1, 2)]
        values = [approx_price(tri2, [4], e, call_at_2) for e in etas]
        assert values == sorted(values)


# small lattices for the radius-0 differential: one to three steps, a
# support of one to four paths, and a quoted call in about 40 % of them
_DOWN_MOVES = ["1/3", "1/2", "2/3", "9/10"]
_UP_MOVES = ["11/10", "6/5", "3/2", "2", "3"]
_APPROX_CLAIMS = ["pos(S[1,T] - 1)", "pos(1 - S[1,T])", "ind(S[1,T] > 1)", "maxt(1) - 1"]


def _approx_cases(seed, count):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        moves = [rng.choice(_DOWN_MOVES), rng.choice(_UP_MOVES)]
        if rng.random() < 0.5:
            moves.insert(1, "1")
        n_steps = rng.randint(1, 3)
        n_paths = len(moves) ** n_steps
        support = sorted(rng.sample(range(n_paths), rng.randint(1, min(4, n_paths))))
        quote = rat(rng.randint(0, 12), 40) if rng.random() < 0.4 else None
        cases.append((moves, n_steps, support, rng.choice(_APPROX_CLAIMS), quote))
    return cases


_APPROX_CASES = _approx_cases(seed=31, count=100)


def _approx_question(case, mode):
    """The case's space, claim and book in ``mode``."""
    moves, n_steps, support, claim, quote = case
    if mode == "float":
        moves = [float(rat(m)) for m in moves]
    space = build_lattice(1, n_steps, moves, mode=mode)
    book = None
    if quote is not None:
        price = float(quote) if mode == "float" else quote
        book = StaticOptionBook.of(StaticOption(parse_payoff("pos(S[1,T] - 1)"), price, "call"))
    return space, parse_payoff(claim), book


def test_the_radius_zero_price_is_the_support_constrained_price():
    finite = 0
    for case in _APPROX_CASES:
        space, claim, book = _approx_question(case, "rational")
        support = case[2]
        limit = approx_price(space, support, 0, claim, book)
        exact = model_price(space, support, InfoStructure.none(), claim, book).single().value
        assert limit == exact, case
        finite += not is_neg_inf(limit)
    # both outcomes are met, so neither check is vacuous
    assert 10 <= finite <= len(_APPROX_CASES) - 10, finite


def test_the_radius_zero_price_agrees_across_modes():
    for case in _APPROX_CASES:
        values = []
        for mode in ("rational", "float"):
            space, claim, book = _approx_question(case, mode)
            values.append(approx_price(space, case[2], 0, claim, book))
        exact, rough = values
        assert FLOAT_OPS.same(rough, float(exact)), (case, rough, exact)


class TestDppPrice:
    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_uninformed_splits_agree(self, tri2, call_at_2, no_info, split):
        dec = dpp_price(tri2, call_at_2, split, no_info)
        assert dec.agree
        if split == 1:
            assert dec.direct == rat(2, 9)  # oracle: tri2_call2

    def test_a_bare_atom_is_left_out_of_the_outer_stage(self, call_at_2, no_info):
        # the up-up subtree supports no measure: its interval price is -inf, and
        # the outer stage leaves its column out as the hedge leaves out its row
        rows = [
            [(1,), (1,), (1,)],
            [(1,), (1,), (rat(1, 2),)],
            [(1,), (2,), (3,)],
        ]
        for mode in ("rational", "float"):
            space = space_from_paths(rows, n_assets=1, mode=mode)
            price = dpp_price(space, call_at_2, 1, no_info)
            assert [(atom.paths, pv.finite) for atom, pv in price.inner] == [
                ((0, 1), True),
                ((2,), False),
            ]
            assert price.inner.for_path(2).certificate is not None
            for dec in (price, dpp_superhedge(space, call_at_2, 1, no_info)):
                assert dec.direct == dec.composed == 0
                assert dec.agree

    def test_dynamic_variant(self, tri2, call_at_2):
        from rip import tail_range_indicator

        info = InfoStructure.dynamic(tail_range_indicator(rat(3, 4), rat(3, 2), 1), 1)
        dec = dpp_price(tri2, call_at_2, 1, info)
        assert dec.agree


def test_build_measure_lp_var_order_is_sorted_target(tri2, call_at_2, no_info):
    lp = build_measure_lp(tri2, [5, 2, 7], no_info)
    assert lp.n_vars == 3
    mass_row = lp.rows[0]
    assert mass_row[1] == "=="
    assert mass_row[2] == 1



def test_build_measure_lp_maximises_the_claim_beside_a_static_book(
    tri2, no_info, flat_digital_book
):
    # the calibration rows read each option's payoff; the objective reads the claim's
    values = tri2.claim_values(parse_payoff("pos(S[1,T] - 1)"))
    lp = build_measure_lp(tri2, [7, 2, 5, 8], no_info, flat_digital_book, None, values)
    assert lp.objective == (values[2], values[5], values[7], values[8])
    assert len(set(lp.objective)) > 1

# ---------------------------------------------------------------------------
# probability weights are bounded: every route that solves a measure program
# treats an unbounded outcome as a fault, not as an empty class


def _unbounded_on(monkeypatch, module, picked):
    """Have ``module.solve_checked`` report ``Unbounded`` on the programs ``picked`` accepts."""
    solve = module.solve_checked

    def patched(lp, ops):
        return Unbounded((), (), 0) if picked(lp) else solve(lp, ops)

    monkeypatch.setattr(module, "solve_checked", patched)


def test_an_unbounded_composed_program_is_a_fault(monkeypatch, tri2, call_at_2, no_info):
    prefix = build_measure_lp(tri2, tri2.all_paths(), no_info, None, (0, 1))
    _unbounded_on(monkeypatch, rip.pricing, lambda lp: lp.rows == prefix.rows)
    with pytest.raises(InternalCheckError, match="cannot be unbounded"):
        dpp_price(tri2, call_at_2, 1, no_info)


def test_an_unbounded_forced_program_is_a_fault(monkeypatch, tri2, call_at_2, hits_one):
    values = tri2.claim_values(call_at_2)
    base = build_measure_lp(
        tri2, tri2.all_paths(), InfoStructure.minus(hits_one), None, None, values
    )
    k = len(base.rows)
    _unbounded_on(
        monkeypatch, rip.pricing, lambda lp: len(lp.rows) > k and lp.rows[:k] == base.rows
    )
    with pytest.raises(InternalCheckError, match="cannot be unbounded"):
        chain_quantities(tri2, hits_one, call_at_2)


@pytest.mark.parametrize("route", ["model_price", "approx_price"])
def test_an_unbounded_price_program_is_a_fault(monkeypatch, tri1, call_at_1, no_info, route):
    _unbounded_on(monkeypatch, rip.pricing, lambda lp: True)
    with pytest.raises(InternalCheckError, match="cannot be unbounded"):
        if route == "model_price":
            model_price(tri1, None, no_info, call_at_1)
        else:
            approx_price(tri1, [1], rat(1, 10), call_at_1)


# every price read off an optimal measure program comes with an audited measure

_PRICE_ROUTES = {
    "model_price": lambda tri2, claim, label: model_price(tri2, None, InfoStructure.none(), claim),
    "dpp_price": lambda tri2, claim, label: dpp_price(tri2, claim, 1, InfoStructure.none()),
    "chain_quantities": lambda tri2, claim, label: chain_quantities(tri2, label, claim),
    "approx_price": lambda tri2, claim, label: approx_price(tri2, [4], rat(1, 10), claim),
}


@pytest.mark.parametrize("route", sorted(_PRICE_ROUTES))
def test_every_optimal_measure_is_audited(monkeypatch, tri2, call_at_2, hits_one, route):
    counts = {"optimal": 0, "audits": 0}
    solve, audit = rip.lp.solve, MartingaleMeasure.audit

    def counted_solve(lp, *args):
        outcome = solve(lp, *args)
        if lp.sense == "max" and isinstance(outcome, Optimal):
            counts["optimal"] += 1
        return outcome

    def counted_audit(measure, space):
        counts["audits"] += 1
        return audit(measure, space)

    monkeypatch.setattr(rip.lp, "solve", counted_solve)
    monkeypatch.setattr(MartingaleMeasure, "audit", counted_audit)
    _PRICE_ROUTES[route](tri2, call_at_2, hits_one)
    assert counts["optimal"] > 0
    assert counts["audits"] == counts["optimal"]


def random_measure(space, objective):
    """An extreme point of the measure polytope favouring the objective."""
    from rip import MartingaleMeasure, Optimal, StaticOptionBook, solve_checked

    base = build_measure_lp(space, space.all_paths(), InfoStructure.none())
    lp = replace(base, objective=tuple(objective))
    out = solve_checked(lp, space.ops)
    assert isinstance(out, Optimal)
    return MartingaleMeasure(
        weights=out.x,
        info=InfoStructure.none(),
        book=StaticOptionBook.cash_only(),
        interval=(0, space.n_steps),
        support=space.all_paths(),
    )


@given(
    objective=st.lists(
        st.integers(min_value=-5, max_value=5), min_size=9, max_size=9
    )
)
@settings(max_examples=40, deadline=None)
def test_conditioning_preserves_structure(tri2, call_at_2, objective):
    """Splitting at t=1 and recombining is lossless, and expectations add up."""
    measure = random_measure(tri2, [rat(c) for c in objective])
    assert not measure.audit(tri2)
    values = tri2.claim_values(call_at_2)
    partition = market_partition(tri2, 1)
    pieces = condition_measure(tri2, measure, partition)
    total = sum(mass * cond.expectation(values, tri2.ops) for _, mass, cond in pieces)
    assert total == measure.expectation(values, tri2.ops)
    kernels = {tuple(atom.paths): cond for atom, _, cond in pieces}
    rebuilt = concatenate_measure(tri2, measure, kernels, 1)
    assert rebuilt.weights == measure.weights


@given(
    objective=st.lists(st.integers(min_value=-5, max_value=5), min_size=9, max_size=9),
    split=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_conditional_supports_partition_the_support(tri2, objective, split):
    """Each atom's conditional keeps the parent's support inside it, in order."""
    measure = random_measure(tri2, [rat(c) for c in objective])
    support = tuple(p for p, w in enumerate(measure.weights) if w)
    measure = replace(measure, support=support)
    pieces = condition_measure(tri2, measure, market_partition(tri2, split))
    for atom, _, cond in pieces:
        assert cond.support == tuple(p for p in support if p in atom.paths)
    # every support path has positive weight, so its atom is kept
    assert sorted(p for _, _, cond in pieces for p in cond.support) == list(support)
