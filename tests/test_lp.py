"""The exact simplex kernel and its certificate checking."""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from rip import (
    FLOAT_OPS,
    Infeasible,
    InfoStructure,
    LinearProgram,
    Num,
    Optimal,
    Option,
    PreconditionError,
    RATIONAL_OPS,
    StaticOptionBook,
    Unbounded,
    build_hedge_problem,
    build_lattice,
    build_measure_lp,
    chain_quantities,
    dpp_superhedge,
    parse_payoff,
    rat,
    solve,
    solve_checked,
    space_from_paths,
    verify_certificate,
)
import reference_simplex
import rip.hedging
import rip.lp
import rip.pricing
from rip.errors import CapacityError, InternalCheckError
from rip.lp import (
    RELATIONS,
    _FloatTableau,
    _IntegerTableau,
    _Row,
    _Tableau,
    _cancel,
    _combine,
)
from rip.pricing import _approx_lp


def lp_min(objective, rows, bounds=None):
    n = len(objective)
    return LinearProgram.build("min", objective, rows, bounds or ["nonneg"] * n)


def _as_rows(n, j, lo=None, hi=None):
    """The bounds ``lo <= x[j] <= hi`` on a variable of an ``n``-variable
    program, written as dense rows; a missing side gives no row."""
    unit = [int(k == j) for k in range(n)]
    return [(unit, rel, b) for rel, b in ((">=", lo), ("<=", hi)) if b is not None]


class TestBasics:
    def test_one_variable_floor(self):
        out = solve(lp_min([1], [([1], ">=", 3)]))
        assert isinstance(out, Optimal)
        assert out.value == 3
        assert out.x == (3,)

    def test_equality_pair(self):
        out = solve(lp_min([1, 1], [([1, 1], "==", 1), ([1, -1], "==", 0)]))
        assert isinstance(out, Optimal)
        assert out.x == (rat(1, 2), rat(1, 2))

    def test_infeasible_pair(self):
        out = solve(lp_min([1], [([1], ">=", 2), ([1], "<=", 1)]))
        assert isinstance(out, Infeasible)

    def test_unbounded_direction(self):
        out = solve(lp_min([-1], [([1], ">=", 0)]))
        assert isinstance(out, Unbounded)
        assert out.ray[0] > 0

    def test_max_sense_flips(self):
        lp = LinearProgram.build("max", [1], [([1], "<=", 5)], ["nonneg"])
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == 5

    def test_free_variables_go_negative(self):
        lp = LinearProgram.build("min", [1], [([1], ">=", -4)], ["free"])
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == -4

    def test_no_rows_optimal_and_unbounded(self):
        out = solve(lp_min([1, 0], []))
        assert isinstance(out, Optimal) and out.value == 0
        out = solve(lp_min([-1], []))
        assert isinstance(out, Unbounded)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            LinearProgram.build("between", [1], [], ["nonneg"])
        with pytest.raises(PreconditionError):
            LinearProgram.build("min", [1], [([1, 2], ">=", 0)], ["nonneg"])
        with pytest.raises(PreconditionError):
            LinearProgram.build("min", [1], [([1], "~", 0)], ["nonneg"])
        with pytest.raises(PreconditionError):
            LinearProgram.build("min", [1, 1], [([1], ">=", 0)], ["nonneg", "nonneg"])
        # the sparse form: columns in range and strictly increasing
        for nonzeros in [((2, 1),), ((-1, 1),), ((0, 1), (0, 2)), ((1, 1), (0, 2))]:
            with pytest.raises(PreconditionError):
                LinearProgram("min", (1, 1), ((nonzeros, ">=", 0),), ("nonneg", "nonneg"))
        # a variable is free or nonnegative; any other bound is written as a row
        for bound in [(3, 2), (0, 1), (None, None), "nonnegative"]:
            with pytest.raises(PreconditionError, match="bad bound spec.*'free', 'nonneg'"):
                LinearProgram.build("min", [1], [], [bound])

    def test_build_drops_the_zeros_of_dense_rows(self):
        bounds = ["nonneg", "free", "nonneg"]
        rows = [
            ([0, 1, rat(-1, 2)], "<=", 3),
            ([0, 0, 0], "==", 0),
            ([rat(1, 3), 0, 0], ">=", -1),
        ]
        dense = LinearProgram.build("max", [0, 2, 0], rows, bounds)
        sparse = LinearProgram(
            "max",
            (0, 2, 0),
            (
                (((1, 1), (2, rat(-1, 2))), "<=", 3),
                ((), "==", 0),
                (((0, rat(1, 3)),), ">=", -1),
            ),
            ("nonneg", "free", "nonneg"),
        )
        assert dense == sparse


class TestDuals:
    def test_tight_row_carries_the_price(self):
        lp = lp_min([2, 3], [([1, 1], ">=", 4), ([1, 0], ">=", 1)])
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == 8
        # value = y . b with correct signs
        assert sum(y * b for y, (_, _, b) in zip(out.y, lp.rows)) == out.value

    def test_redundant_rows_get_zero_duals(self):
        lp = lp_min([1], [([1], ">=", 3), ([1], ">=", 3), ([0], "==", 0)])
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == 3
        assert sum(y * 3 for y, (_, _, b) in zip(out.y, lp.rows) if b == 3) == 3


class TestCertificates:
    def test_optimal_verifies_and_perturbations_fail(self):
        lp = lp_min([2, 3], [([1, 1], ">=", 4), ([1, 0], ">=", 1)])
        out = solve(lp)
        assert verify_certificate(lp, out)
        worse = Optimal(x=(out.x[0] + 1, out.x[1]), y=out.y, value=out.value)
        assert not verify_certificate(lp, worse)
        wrong_value = Optimal(x=out.x, y=out.y, value=out.value + 1)
        assert not verify_certificate(lp, wrong_value)

    def test_infeasible_certificate_is_a_farkas_vector(self):
        lp = lp_min([1], [([1], ">=", 2), ([1], "<=", 1)])
        out = solve(lp)
        assert isinstance(out, Infeasible)
        assert verify_certificate(lp, out)
        zeroed = Infeasible(certificate=tuple(0 for _ in out.certificate))
        assert not verify_certificate(lp, zeroed)

    def test_unbounded_certificate_checks_the_ray(self):
        lp = lp_min([-1, 0], [([1, -1], "<=", 0)])
        out = solve(lp)
        assert isinstance(out, Unbounded)
        assert verify_certificate(lp, out)
        stuck = Unbounded(point=out.point, ray=tuple(0 for _ in out.ray))
        assert not verify_certificate(lp, stuck)

    def test_solve_checked_returns_the_same_outcome(self):
        lp = lp_min([2, 3], [([1, 1], ">=", 4)])
        out = solve_checked(lp)
        assert isinstance(out, Optimal)
        assert out.value == 8


def test_float_mode_matches_rational_on_a_small_program():
    rows = [([1, 1, 1], "==", 1), ([rat(-1, 2), 0, 1], "==", 0)]
    lp = lp_min([0, 0, -2], rows)
    exact = solve(lp)
    rows_f = [([float(c) for c in r], rel, float(b)) for r, rel, b in rows]
    lp_f = lp_min([0.0, 0.0, -2.0], rows_f)
    approx = solve(lp_f, FLOAT_OPS)
    assert isinstance(exact, Optimal) and isinstance(approx, Optimal)
    assert approx.value == pytest.approx(float(exact.value), abs=1e-9)


def test_float_mode_without_a_feasibility_tolerance_pivots_past_the_guard():
    # a model may set its float feasibility tolerance to 0; the bit guard,
    # which runs every 64 pivots, belongs to the exact tableau only
    ops = replace(FLOAT_OPS, feas_tol=0.0)
    n = 70
    rows = [([1.0 if k == i else 0.0 for k in range(n)], "<=", 1.0) for i in range(n)]
    out = solve(LinearProgram.build("max", [1.0] * n, rows, ["nonneg"] * n), ops)
    assert isinstance(out, Optimal)
    assert (out.value, out.pivots) == (70.0, 70)


def test_determinism_on_a_degenerate_program():
    rows = [([1, 1, 1], "==", 1), ([1, -1, 0], "==", 0), ([0, 1, -1], ">=", 0)]
    lp = lp_min([1, 2, 3], rows)
    outs = [solve(lp) for _ in range(3)]
    assert all(isinstance(o, Optimal) for o in outs)
    assert len({(o.x, o.value, o.pivots) for o in outs}) == 1


# ---------------------------------------------------------------------------
# randomised programs; every outcome must carry a verifiable certificate

_coef = st.fractions(min_value=Fraction(-4), max_value=Fraction(4))


@st.composite
def random_lp(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=4))
    sense = draw(st.sampled_from(["min", "max"]))
    objective = [draw(_coef) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [draw(_coef) for _ in range(n)]
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = draw(_coef)
        rows.append((coeffs, rel, rhs))
    bounds = []
    for j in range(n):
        kind = draw(st.integers(min_value=0, max_value=2))
        bounds.append("nonneg" if kind == 0 else "free")
        if kind == 2:
            lo = draw(st.fractions(min_value=Fraction(-3), max_value=Fraction(2)))
            hi = lo + draw(st.fractions(min_value=Fraction(0), max_value=Fraction(3)))
            rows += _as_rows(n, j, lo, hi)
    return LinearProgram.build(sense, objective, rows, bounds)


@given(lp=random_lp())
@settings(max_examples=300, deadline=None)
def test_every_outcome_verifies(lp):
    out = solve(lp)
    assert verify_certificate(lp, out), type(out).__name__


@given(lp=random_lp())
@settings(max_examples=100, deadline=None)
def test_resolving_gives_identical_results(lp):
    a, b = solve(lp), solve(lp)
    assert type(a) is type(b)
    if isinstance(a, Optimal):
        assert (a.x, a.y, a.value) == (b.x, b.y, b.value)


@given(lp=random_lp())
@settings(max_examples=100, deadline=None)
def test_solve_checked_never_disagrees_with_verify(lp):
    out = solve_checked(lp)  # raises InternalCheckError on any bad certificate
    assert verify_certificate(lp, out)


# ---------------------------------------------------------------------------
# Beale's cycling example (Beale 1955): its degenerate rows have right-hand
# side zero, where the textbook largest-coefficient rule cycles forever

_BEALE_OBJECTIVE = [rat(-3, 4), 20, rat(-1, 2), 6]
_BEALE_ROWS = [
    ([rat(1, 4), -8, -1, 9], "<=", 0),
    ([rat(1, 2), -12, rat(-1, 2), 3], "<=", 0),
    ([0, 0, 1, 0], "<=", 1),
]


@pytest.mark.parametrize("as_ge", [False, True], ids=["le-rows", "ge-zero-row"])
def test_beale_cycling_example_from_the_slack_start(as_ge):
    rows = list(_BEALE_ROWS)
    if as_ge:
        # the same constraint written as a >= row with right-hand side zero
        coeffs, _, rhs = rows[0]
        rows[0] = ([-c for c in coeffs], ">=", rhs)
    lp = lp_min(_BEALE_OBJECTIVE, rows)

    # every row is an inequality that its slack satisfies at the origin
    tab = _Tableau(lp, RATIONAL_OPS)
    assert tab.basis == [tab.nz + i for i in range(len(rows))]

    first, second = solve(lp), solve(lp)
    assert isinstance(first, Optimal)
    assert first.value == rat(-5, 4)
    assert first.x == (1, 0, 1, 0)
    assert verify_certificate(lp, first)
    assert first == second


@pytest.mark.parametrize("as_ge", [False, True], ids=["le-rows", "ge-zero-row"])
def test_beale_cycling_example_terminates_in_float_mode(as_ge):
    rows = [([float(c) for c in coeffs], rel, float(rhs)) for coeffs, rel, rhs in _BEALE_ROWS]
    if as_ge:
        coeffs, _, rhs = rows[0]
        rows[0] = ([-c for c in coeffs], ">=", rhs)
    lp = lp_min([float(c) for c in _BEALE_OBJECTIVE], rows)
    first, second = solve(lp, FLOAT_OPS), solve(lp, FLOAT_OPS)
    assert isinstance(first, Optimal)
    assert first.value == pytest.approx(-1.25, abs=FLOAT_OPS.dual_tol)
    assert first.x == pytest.approx((1.0, 0.0, 1.0, 0.0), abs=FLOAT_OPS.dual_tol)
    assert verify_certificate(lp, first, FLOAT_OPS)
    assert first == second


def test_a_round_off_reduced_cost_ends_phase_1_in_float_mode():
    # x >= 8427465369893 and x >= 908102 as <= rows: after two pivots phase 1
    # sees a reduced cost of -1.00003e-9, past the tolerance, on a column
    # with no positive entry, which only round-off can make
    rows = [([-1 / 8427465369893], "<=", -1.0), ([0.0], "<=", 0.0), ([-1 / 908102], "<=", -1.0)]
    lp = lp_min([0.0], rows)
    out = solve(lp, FLOAT_OPS)
    assert isinstance(out, Optimal) and out.pivots == 2
    assert verify_certificate(lp, out, FLOAT_OPS)


# ---------------------------------------------------------------------------
# sparse verification against a dense reference: the checks written out over
# every coefficient, zeros included, as an independent oracle


def _dense_rows(lp):
    """``lp.rows`` as dense ``(coeffs, rel, rhs)`` with every zero written out:
    the reference code reads the program's rows through this view alone."""
    rows = []
    for nonzeros, rel, rhs in lp.rows:
        coeffs = [0] * lp.n_vars
        for j, c in nonzeros:
            coeffs[j] = c
        rows.append((coeffs, rel, rhs))
    return rows


def _dense_standard_rows(lp, ops):
    """The rows over nonnegative columns, a free variable on two, dense."""
    conv = ops.convert
    cols = []
    for j, bnd in enumerate(lp.bounds):
        cols += [(j, 1), (j, -1)] if bnd == "free" else [(j, 1)]
    return [
        ([conv(coeffs[v]) * m for v, m in cols], rel, conv(rhs))
        for coeffs, rel, rhs in _dense_rows(lp)
    ]


def _dense_verify(lp, out, ops):
    conv, zero, tol, n = ops.convert, ops.zero, ops.dual_tol, lp.n_vars
    dense = _dense_rows(lp)

    def dot(coeffs, v):
        return sum((conv(c) * x for c, x in zip(coeffs, v)), zero)

    def feasible(x):
        if len(x) != n:
            return False
        for coeffs, rel, rhs in dense:
            lhs, b = dot(coeffs, x), conv(rhs)
            if rel == "==" and not ops.eq(lhs, b, tol):
                return False
            if (rel == "<=" and lhs > b + tol) or (rel == ">=" and lhs < b - tol):
                return False
        for xj, bnd in zip(x, lp.bounds):
            if bnd == "nonneg" and xj < -tol:
                return False
        return True

    sign = 1 if lp.sense == "min" else -1
    if isinstance(out, Optimal):
        x, y = out.x, out.y
        if len(y) != len(dense) or not feasible(x):
            return False
        if not ops.eq(dot(lp.objective, x), out.value, tol):
            return False
        for yi, (coeffs, rel, rhs) in zip(y, dense):
            if (rel == ">=" and sign * yi < -tol) or (rel == "<=" and sign * yi > tol):
                return False
            if not ops.eq(yi, zero, tol) and not ops.eq(dot(coeffs, x), conv(rhs), tol):
                return False
        for j in range(n):
            column = [coeffs[j] for coeffs, _, _ in dense]
            r = sign * (conv(lp.objective[j]) - dot(column, y))
            at_zero = lp.bounds[j] == "nonneg" and ops.eq(x[j], zero, tol)
            if at_zero and r < -tol:
                return False
            if not at_zero and not ops.eq(r, zero, tol):
                return False
        return True
    if isinstance(out, Infeasible):
        rows, y = _dense_standard_rows(lp, ops), out.certificate
        if len(y) != len(rows):
            return False
        for yi, (_, rel, _) in zip(y, rows):
            if (rel == ">=" and yi < -tol) or (rel == "<=" and yi > tol):
                return False
        for k in range(len(rows[0][0]) if rows else 0):
            if sum((yi * row[k] for yi, (row, _, _) in zip(y, rows)), zero) > tol:
                return False
        return sum((yi * rhs for yi, (_, _, rhs) in zip(y, rows)), zero) > tol
    d = out.ray
    if not feasible(out.point) or len(d) != n:
        return False
    for coeffs, rel, _ in dense:
        move = dot(coeffs, d)
        if rel == "==" and not ops.eq(move, zero, tol):
            return False
        if (rel == "<=" and move > tol) or (rel == ">=" and move < -tol):
            return False
    for dj, bnd in zip(d, lp.bounds):
        if bnd == "nonneg" and dj < -tol:
            return False
    return sign * dot(lp.objective, d) < -tol


_bound = st.fractions(min_value=Fraction(-3), max_value=Fraction(2))
_width = st.fractions(min_value=Fraction(0), max_value=Fraction(3))
# denominators up to 10**6, so that rows and points have large common ones
_wide_coef = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=10**6)
# eighths are floats exactly, so a program reads the same as floats
_eighths = st.integers(min_value=-32, max_value=32).map(lambda k: Fraction(k, 8))


@lru_cache(maxsize=None)
def _sparse(coef):
    """``coef`` with three draws in four set to zero, one strategy per ``coef``."""
    return st.tuples(st.integers(min_value=0, max_value=3), coef).map(
        lambda pair: pair[1] if pair[0] == 0 else Fraction(0)
    )


@st.composite
def sparse_lp(draw, coef=_coef, bound=_bound, width=_width):
    sparse_coef = _sparse(coef)
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=5))
    sense = draw(st.sampled_from(["min", "max"]))
    objective = [draw(sparse_coef) for _ in range(n)]
    rows = [
        ([draw(sparse_coef) for _ in range(n)], draw(st.sampled_from(RELATIONS)), draw(coef))
        for _ in range(m)
    ]
    # a bounded variable is free, with its bounds as rows after the program's
    bounds = []
    for j in range(n):
        kind = draw(st.sampled_from(["free", "nonneg", "lower", "upper", "box", "open"]))
        bounds.append("nonneg" if kind == "nonneg" else "free")
        if kind == "upper":
            rows += _as_rows(n, j, hi=draw(bound.filter(bool)))
        elif kind in ("lower", "box"):
            lo = draw(bound.filter(bool))
            rows += _as_rows(n, j, lo, lo + draw(width) if kind == "box" else None)
    return LinearProgram.build(sense, objective, rows, bounds)


def _as_float(lp):
    return LinearProgram.build(
        lp.sense,
        [float(c) for c in lp.objective],
        [([float(c) for c in coeffs], rel, float(b)) for coeffs, rel, b in _dense_rows(lp)],
        lp.bounds,
    )


def _perturbed(out, field, index, delta):
    values = list(getattr(out, field))
    values[index] = values[index] + delta
    return replace(out, **{field: tuple(values)})


_FIELDS = {Optimal: ("x", "y"), Infeasible: ("certificate",), Unbounded: ("ray",)}


@given(lp=st.one_of(sparse_lp(), sparse_lp(coef=_wide_coef)), data=st.data())
@settings(max_examples=150, deadline=None)
@pytest.mark.parametrize("ops", [RATIONAL_OPS, FLOAT_OPS], ids=["rational", "float"])
def test_sparse_verification_matches_the_dense_reference(ops, lp, data):
    if ops is FLOAT_OPS:
        lp = _as_float(lp)
    out = solve(lp, ops)
    honest = verify_certificate(lp, out, ops)
    assert honest == _dense_verify(lp, out, ops)
    if ops is RATIONAL_OPS:
        assert honest
    for field in _FIELDS[type(out)]:
        size = len(getattr(out, field))
        if not size:
            continue
        index = data.draw(st.integers(min_value=0, max_value=size - 1))
        delta = ops.convert(data.draw(_coef.filter(bool)))
        bad = _perturbed(out, field, index, delta)
        assert verify_certificate(lp, bad, ops) == _dense_verify(lp, bad, ops), field


# one part in 10**30 is far below every denominator of these programs
_TINY = Fraction(1, 10**30)


def _mixed_denominator_outcomes():
    """An Optimal, an Infeasible and an Unbounded outcome of programs whose
    rows mix denominators, each with every entry of its certificate needed."""
    free = ["free", "free"]
    # two equality rows on two free variables: one point, every dual needed
    rows = [([rat(1, 3), rat(2, 7)], "==", rat(5, 11)), ([rat(3, 4), rat(-1, 9)], "==", rat(2, 13))]
    optimal = LinearProgram.build("min", [rat(3, 5), rat(7, 17)], rows, free)
    # a >= row against a <= row over the same free combination
    pair = [rat(1, 3), rat(2, 7)]
    infeasible = LinearProgram.build(
        "min", [0, 0], [(pair, ">=", rat(5, 11)), (pair, "<=", rat(-2, 13))], free
    )
    # a ray along an equality row with both variables free
    unbounded = LinearProgram.build(
        "min", [rat(-3, 5), 0], [([rat(2, 3), rat(-5, 7)], "==", rat(1, 11))], free
    )
    outcomes = [(lp, solve(lp)) for lp in (optimal, infeasible, unbounded)]
    kinds = [type(out) for _, out in outcomes]
    assert kinds == [Optimal, Infeasible, Unbounded]
    return outcomes


@pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
def test_a_perturbation_of_one_part_in_ten_to_the_thirty_is_rejected(sign):
    for lp, out in _mixed_denominator_outcomes():
        assert verify_certificate(lp, out) and _dense_verify(lp, out, RATIONAL_OPS)
        for field in _FIELDS[type(out)]:
            for index in range(len(getattr(out, field))):
                bad = _perturbed(out, field, index, sign * _TINY)
                assert not verify_certificate(lp, bad), (type(out).__name__, field, index)
                assert not _dense_verify(lp, bad, RATIONAL_OPS)


# one variable x, free or nonnegative, rows on x and a Farkas vector over
# them; a bounded x is free, with its bounds as rows after the first:
# ``x <= 3`` and then ``x >= 1`` for the box 1 <= x <= 3
_BOX = [([1], "<=", 3), ([1], ">=", 1)]
_FARKAS_CASES = [
    ("box", "free", [([1], ">=", 4), *_BOX], (1, -1, 0), True),
    ("box, feasible", "free", [([1], ">=", 2), *_BOX], (1, -1, 0), False),
    ("box, halved", "free", [([1], ">=", 4), *_BOX], (Fraction(1, 2), Fraction(-1, 2), 0), True),
    (
        "box, halved, feasible",
        "free",
        [([1], ">=", 2), *_BOX],
        (Fraction(1, 2), Fraction(-1, 2), 0),
        False,
    ),
    ("box, bound row left out", "free", [([1], ">=", 4), *_BOX], (1, 0, 0), False),
    ("box, from below", "free", [([-1], ">=", 0), *_BOX], (1, 0, 1), True),
    ("box, positive bound-row multiplier", "free", [([-1], ">=", 0), *_BOX], (1, 1, 1), False),
    ("upper only", "free", [([1], ">=", 4), ([1], "<=", 3)], (1, -1), True),
    ("upper only, feasible", "free", [([1], ">=", 2), ([1], "<=", 3)], (1, -1), False),
    ("lower only", "free", [([1], "<=", 1), ([1], ">=", 2)], (-1, 1), True),
    ("lower only, feasible", "free", [([1], "<=", 3), ([1], ">=", 2)], (-1, 1), False),
    ("free, two rows", "free", [([1], ">=", 4), ([1], "<=", 3)], (1, -1), True),
    ("free, one side", "free", [([-1], ">=", 4)], (1,), False),
    ("nonneg, one side", "nonneg", [([-1], ">=", 4)], (1,), True),
    ("nonneg, feasible", "nonneg", [([1], ">=", 4)], (1,), False),
    ("nonneg, negative multiplier", "nonneg", [([-1], ">=", 4)], (-1,), False),
    ("wrong length", "free", [([1], ">=", 4), *_BOX], (1, -1), False),
]


@pytest.mark.parametrize("ops", [RATIONAL_OPS, FLOAT_OPS], ids=["rational", "float"])
@pytest.mark.parametrize(
    "bound, rows, certificate, valid", [case[1:] for case in _FARKAS_CASES],
    ids=[case[0] for case in _FARKAS_CASES],
)
def test_farkas_vectors_are_checked_against_the_bounds(ops, bound, rows, certificate, valid):
    lp = LinearProgram.build("min", [0], rows, [bound])
    if ops is FLOAT_OPS:
        lp = _as_float(lp)
    out = Infeasible(tuple(ops.convert(v) for v in certificate))
    assert verify_certificate(lp, out, ops) is valid
    assert _dense_verify(lp, out, ops) is valid


def _retyped(lp, kind):
    """``lp`` with its numbers written as ``kind``: ``"int"`` (ints wherever
    the value is whole), ``"str"`` (``"p/q"`` text) or ``"float"``."""

    def number(v):
        if v is None:
            return None
        if kind == "str":
            return str(v)
        if kind == "float":
            return float(v)
        return int(v) if v.denominator == 1 else v

    return LinearProgram.build(
        lp.sense,
        [number(c) for c in lp.objective],
        [([number(c) for c in coeffs], rel, number(b)) for coeffs, rel, b in _dense_rows(lp)],
        lp.bounds,
    )


@given(lp=sparse_lp(coef=_eighths, bound=_eighths, width=_eighths.map(abs)), data=st.data())
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("kind", ["int", "str", "float"])
def test_ints_text_floats_and_fractions_get_the_same_verdicts(kind, lp, data):
    typed = _retyped(lp, kind)
    out = solve(lp)
    assert solve(typed) == out
    assert verify_certificate(typed, out)
    for field in _FIELDS[type(out)]:
        size = len(getattr(out, field))
        if size:
            index = data.draw(st.integers(min_value=0, max_value=size - 1))
            bad = _perturbed(out, field, index, data.draw(_eighths.filter(bool)))
            assert verify_certificate(typed, bad) == verify_certificate(lp, bad), field


# one program per outcome kind, each with a free and a nonnegative variable,
# and a lower bound alone, an upper bound alone and a box, each on a free
# variable and written as rows after the program's
_EVERY_BOUND = ["free", "nonneg", "free", "free", "free", "free"]
_BOUND_ROWS = [
    *_as_rows(6, 2, lo=rat(-1)),
    *_as_rows(6, 3, hi=rat(2)),
    *_as_rows(6, 4, rat(-1, 2), rat(3)),
]
_EVERY_OUTCOME = {
    Optimal: LinearProgram.build(
        "max",
        [1, 1, -1, 1, 1, -1],
        [
            ([1, 1, 0, 0, 0, 0], "<=", 1),
            ([1, 0, 0, 0, 0, 0], ">=", -2),
            ([0] * 5 + [1], ">=", 1),
            *_BOUND_ROWS,
        ],
        _EVERY_BOUND,
    ),
    Infeasible: LinearProgram.build(
        "min",
        [0, 0, 0, 0, 1, 0],
        [([0, 1, 1, 0, 1, 0], "<=", -3), ([0] * 5 + [1], "==", 2), *_BOUND_ROWS],
        _EVERY_BOUND,
    ),
    Unbounded: LinearProgram.build(
        "min", [-1, 0, 0, 0, 0, 0], [([1, 0, 0, 1, 0, 1], ">=", 1), *_BOUND_ROWS], _EVERY_BOUND
    ),
}


@given(lp=sparse_lp(coef=_eighths, bound=_eighths, width=_eighths.map(abs)))
@example(lp=_EVERY_OUTCOME[Optimal])
@example(lp=_EVERY_OUTCOME[Infeasible])
@example(lp=_EVERY_OUTCOME[Unbounded])
@settings(max_examples=200, deadline=None)
def test_float_mode_agrees_with_rational_mode_on_programs_in_eighths(lp):
    exact = solve(lp)
    as_float = _as_float(lp)
    approx = solve(as_float, FLOAT_OPS)
    assert type(approx) is type(exact)
    assert all(type(v) is float for v in _numbers(approx)), approx
    assert verify_certificate(as_float, approx, FLOAT_OPS)
    if isinstance(exact, Optimal):
        assert abs(approx.value - float(exact.value)) <= FLOAT_OPS.dual_tol


# Float programs on which the solver's decision, made at feas_tol = 1e-9, and
# the verifier's margins of dual_tol = 1e-7 disagree, so that solve_checked
# raises; each names the outcome the solver returns.  Rescaling the rays and
# Farkas vectors alone does not mend the last one.
_FLOAT_TOLERANCE_EDGES = [
    pytest.param(LinearProgram("min", (1e-07,), (), ("free",)), id="unbounded-gain-1e-7"),
    pytest.param(LinearProgram("min", (-5e-08,), (), ("nonneg",)), id="unbounded-gain-5e-8"),
    pytest.param(
        LinearProgram("min", (0.0,), (((), ">=", 1e-07),), ("free",)), id="infeasible-by-1e-7"
    ),
    pytest.param(
        LinearProgram(
            "min", (0.0, 0.0, 0.0), ((((1, -0.01),), ">=", 1e-09),), ("free", "nonneg", "free")
        ),
        id="optimal-x1-below-its-bound",
    ),
]


@pytest.mark.xfail(strict=True, raises=InternalCheckError, reason="float tolerances disagree")
@pytest.mark.parametrize("lp", _FLOAT_TOLERANCE_EDGES)
def test_float_certificates_verify_at_the_tolerance_edge(lp):
    solve_checked(lp, FLOAT_OPS)


class TestConvert:
    def test_a_rational_comes_back_unchanged(self):
        value = rat(-2, 7)
        assert RATIONAL_OPS.convert(value) is value

    def test_text_ints_and_floats_still_convert(self):
        assert RATIONAL_OPS.convert("-2/7") == rat(-2, 7)
        assert RATIONAL_OPS.convert("0.25") == rat(1, 4)
        assert RATIONAL_OPS.convert(3) == 3 and type(RATIONAL_OPS.convert(3)) is type(rat(3))
        assert RATIONAL_OPS.convert(0.5) == rat(1, 2)
        assert FLOAT_OPS.convert("0.25") == 0.25
        assert FLOAT_OPS.convert(rat(1, 4)) == 0.25

    def test_text_zeros_are_no_tableau_entries(self):
        # a "0" is truthy text; stored in a row, the row's zero could be pivoted on
        rows = [(["0", "1"], "==", "1"), (["0", "0"], "==", "0")]
        text = LinearProgram.build("min", ["1", "0"], rows, ["nonneg", "nonneg"])
        numbers = lp_min([1, 0], [([0, 1], "==", 1), ([0, 0], "==", 0)])
        assert solve(text) == solve(numbers)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_are_refused(self, bad):
        with pytest.raises(PreconditionError):
            RATIONAL_OPS.convert(bad)

    @pytest.mark.parametrize("text", ["\u0663", "1/\u0665", "\uff10.5", "\u00a03", "\u00b2"])
    def test_text_outside_ascii_is_not_a_number(self, text):
        # Fraction alone reads all but the superscript: Arabic-Indic 3 and 5,
        # a full-width 0 and a no-break space
        for read in (rat, RATIONAL_OPS.convert, FLOAT_OPS.convert):
            with pytest.raises(ValueError, match="^not a rational number: "):
                read(text)


class TestOverCommon:
    def test_ints_come_back_over_one(self):
        values = [3, -7, 0, 12]
        nums, den = RATIONAL_OPS.over_common(values)
        assert (nums, den) == (values, 1)
        assert all(type(n) is int for n in nums)

    def test_fractions_go_over_the_lcm_of_their_denominators(self):
        nums, den = RATIONAL_OPS.over_common([rat(1, 6), rat(-3, 4), 2, rat(0)])
        assert (nums, den) == ([2, -9, 24, 0], 12)

    def test_integral_fractions_come_back_as_ints_over_one(self):
        nums, den = RATIONAL_OPS.over_common([rat(4), rat(-2, 1), 5])
        assert (nums, den) == ([4, -2, 5], 1)
        assert all(type(n) is int for n in nums)

    def test_text_and_exact_floats_are_converted(self):
        nums, den = RATIONAL_OPS.over_common(["-2/7", "0.25", 0.5, 1.0, "3"])
        assert (nums, den) == ([-8, 7, 14, 28, 84], 28)
        assert all(type(n) is int for n in nums)

    def test_no_values_give_an_empty_row_over_one(self):
        assert RATIONAL_OPS.over_common([]) == ([], 1)
        assert FLOAT_OPS.over_common([]) == ([], 1)

    def test_float_mode_keeps_the_values_over_one(self):
        nums, den = FLOAT_OPS.over_common([0.1, 3, rat(1, 4), "0.5"])
        assert (nums, den) == ([0.1, 3.0, 0.25, 0.5], 1)
        assert all(type(n) is float for n in nums)

    @given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=40))))
    def test_each_numerator_over_the_denominator_is_its_value(self, values):
        nums, den = RATIONAL_OPS.over_common(values)
        assert den > 0 and all(type(n) is int for n in nums)
        assert [Fraction(n, den) for n in nums] == [Fraction(v) for v in values]
        assert den == lcm(*(Fraction(v).denominator for v in values))


class TestSame:
    @pytest.mark.parametrize("ops", [RATIONAL_OPS, FLOAT_OPS], ids=["rational", "float"])
    def test_minus_infinity_matches_only_itself(self, ops):
        neg_inf = float("-inf")
        assert ops.same(neg_inf, neg_inf)
        assert not ops.same(neg_inf, ops.one)
        assert not ops.same(ops.one, neg_inf)

    def test_rationals_are_compared_exactly(self):
        assert RATIONAL_OPS.same(rat(1, 3), rat(2, 6))
        assert not RATIONAL_OPS.same(rat(1, 3), rat(1, 3) + rat(1, 10**30))

    def test_floats_are_compared_within_the_duality_tolerance(self):
        tol = FLOAT_OPS.dual_tol
        assert FLOAT_OPS.same(1.0, 1.0 + tol / 2) and FLOAT_OPS.same(1.0 + tol / 2, 1.0)
        assert not FLOAT_OPS.same(1.0, 1.0 + 2 * tol)
        assert not FLOAT_OPS.same(1.0 + 2 * tol, 1.0)


# ---------------------------------------------------------------------------
# each program is put over integers once per mode: the tableau copies the form
# and the checks read it


def _form_programs():
    """One program per outcome kind, each made of ``Fraction`` objects of its
    own (``Fraction(v)`` is always a new one), so that a conversion of a row
    is told apart by identity."""

    def program(sense, objective, rows):
        rows = [([Fraction(a) for a in coeffs], rel, Fraction(b)) for coeffs, rel, b in rows]
        return LinearProgram.build(sense, [Fraction(c) for c in objective], rows, ["nonneg"] * 2)

    rows = [([Fraction(1, 2), Fraction(1, 3)], ">=", 1), ([1, -1], "<=", Fraction(1, 4))]
    return {
        Optimal: program("min", [1, 2], rows + [([1, 0], "==", Fraction(3, 5))]),
        Infeasible: program("min", [1, 2], rows + [([1, 1], "<=", Fraction(-1, 7))]),
        Unbounded: program("max", [1, 2], rows),
    }


def _fresh_form(lp, ops):
    rows = []
    for nonzeros, _, rhs in lp.rows:
        nums, den = ops.over_common([*(c for _, c in nonzeros), rhs])
        rows.append((tuple(j for j, _ in nonzeros), tuple(nums), den))
    nums, den = ops.over_common(lp.objective)
    return tuple(rows), (tuple(nums), den)


_MODES = pytest.mark.parametrize("ops", [RATIONAL_OPS, FLOAT_OPS], ids=["rational", "float"])
_KINDS = pytest.mark.parametrize("kind", [Optimal, Infeasible, Unbounded], ids=lambda k: k.__name__)


@_MODES
@_KINDS
def test_one_checked_solve_converts_each_row_once(monkeypatch, ops, kind):
    lp = _form_programs()[kind]
    calls = []
    over_common = type(ops).over_common

    def spy(self, values):
        values = list(values)
        calls.append(values)
        return over_common(self, values)

    monkeypatch.setattr(type(ops), "over_common", spy)
    assert type(solve_checked(lp, ops)) is kind
    for nonzeros, _, rhs in lp.rows:
        row = [*(c for _, c in nonzeros), rhs]
        same = [v for v in calls if len(v) == len(row) and all(a is b for a, b in zip(v, row))]
        assert len(same) == 1


@_MODES
@_KINDS
def test_the_form_is_tuples_and_still_a_fresh_conversion_after_the_solve(ops, kind):
    lp = _form_programs()[kind]
    solve_checked(lp, ops)
    form = rip.lp._form(lp, ops)
    assert rip.lp._form(lp, ops) is form and lp._forms == {ops.mode: form}
    rows, (objective, _) = form
    assert type(rows) is tuple and type(objective) is tuple
    for index, nums, _ in rows:
        assert type(index) is tuple and type(nums) is tuple
        number = float if ops is FLOAT_OPS else int
        assert all(type(v) is number for v in nums + objective)
    assert form == _fresh_form(lp, ops)


@_MODES
def test_a_program_with_extra_rows_gets_a_fresh_form(ops):
    lp = _form_programs()[Unbounded]
    solve_checked(lp, ops)
    ceiling = (((0, Fraction(1)), (1, Fraction(1))), "<=", Fraction(5))
    bounded = replace(lp, rows=lp.rows + (ceiling,))
    assert bounded._forms == {}
    assert type(solve_checked(bounded, ops)) is Optimal
    assert rip.lp._form(bounded, ops) == _fresh_form(bounded, ops)
    assert rip.lp._form(lp, ops) == _fresh_form(lp, ops)


@_MODES
def test_equal_programs_stay_equal_after_one_is_solved(ops):
    solved, other = _form_programs()[Optimal], _form_programs()[Optimal]
    solve_checked(solved, ops)
    assert solved._forms and not other._forms
    assert solved == other and hash(solved) == hash(other) and repr(solved) == repr(other)


def _left_to_right_value(lp, x):
    """``sum_j objective[j] * x[j]`` over the objective's nonzeros, from the left."""
    value = RATIONAL_OPS.zero
    for c, xj in zip(lp.objective, x):
        if c:
            value = value + RATIONAL_OPS.convert(c) * xj
    return value


@given(lp=st.one_of(sparse_lp(), sparse_lp(coef=_wide_coef)))
@example(lp=_EVERY_OUTCOME[Optimal])
@settings(max_examples=300, deadline=None)
def test_an_exact_optimum_read_off_the_reduced_costs_is_the_left_to_right_sum(lp):
    out = solve(lp)
    if isinstance(out, Optimal):
        assert out.value == _left_to_right_value(lp, out.x)
        assert type(out.value) is Fraction


# ---------------------------------------------------------------------------
# one start column per row: a row starts on its slack when the slack is
# feasible at the right-hand side, and on an artificial of its own otherwise


def _slack_starts(rel, rhs):
    return (rel == "<=" and rhs >= 0) or (rel == ">=" and rhs <= 0)


@given(lp=st.one_of(sparse_lp(), random_lp()))
@settings(max_examples=200, deadline=None)
@pytest.mark.parametrize("ops", [RATIONAL_OPS, FLOAT_OPS], ids=["rational", "float"])
def test_only_rows_without_a_slack_start_get_an_artificial(ops, lp):
    tab = _Tableau(lp, ops)
    standard = [(rel, ops.convert(rhs)) for _, rel, rhs in lp.rows]
    n_slack = sum(rel != "==" for rel, _ in standard)
    no_slack = [r for r, (rel, rhs) in enumerate(standard) if not _slack_starts(rel, rhs)]
    assert tab.width == lp.n_vars + n_slack + len(no_slack)
    assert tab.art_start == lp.n_vars + n_slack
    assert tab.basis == tab.start
    # the artificials follow the slacks, in row order
    assert [tab.start[r] for r in no_slack] == list(range(tab.art_start, tab.width))
    for r, (rel, rhs) in enumerate(standard):
        if _slack_starts(rel, rhs):
            assert lp.n_vars <= tab.start[r] < tab.art_start
    # each row holds entries on columns and the right-hand side, 1 on its start
    for r, row in enumerate(tab.matrix):
        (_assert_integer_row if ops is RATIONAL_OPS else _assert_sparse_row)(row, tab.width)
        assert tab.ratio(row.nums[tab.start[r]], row.den) == 1


def _assert_sparse_row(row, width):
    """Only nonzero entries, on columns and the right-hand side."""
    assert all(row.nums.values())
    assert all(0 <= k <= width for k in row.nums)


def _assert_integer_row(row, width):
    """A sparse row of integer numerators in lowest terms."""
    _assert_sparse_row(row, width)
    assert row.den > 0
    assert gcd(row.den, *row.nums.values()) == 1


def _check_rows_after_every_pivot(lp, ops, check):
    """Solve ``lp``, running ``check(tab, i, z_row)`` after every pivot into row ``i``."""
    checked = []
    pivot = _Tableau.pivot

    def checked_pivot(tab, i, j, z_row, s, rows):
        pivot(tab, i, j, z_row, s, rows)
        check(tab, i, z_row)
        checked.append(j)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Tableau, "pivot", checked_pivot)
        out = solve(lp, ops)
    assert out.pivots == len(checked)


def _integer_rows(tab, i, z_row):
    """Every row sparse, of ints over a positive int; the pivot row in lowest
    terms, and after a bit guard every row, the reduced-cost row included."""
    rows = tab.matrix + [z_row]
    for row in rows:
        _assert_sparse_row(row, tab.width)
        assert all(type(v) is int for v in row.nums.values())
        assert type(row.den) is int and row.den > 0
    guarded = tab.pivots % rip.lp._GUARD_EVERY == 0
    for row in rows if guarded else [tab.matrix[i]]:
        assert gcd(row.den, *row.nums.values()) == 1


def _sparse_rows(tab, i, z_row):
    for row in tab.matrix + [z_row]:
        _assert_sparse_row(row, tab.width)


@given(lp=st.one_of(sparse_lp(), random_lp()))
@settings(max_examples=200, deadline=None)
def test_integer_rows_stay_sparse_after_every_pivot_and_in_lowest_terms_after_every_guard(lp):
    # a guard every 3 pivots, so that small programs meet it too
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rip.lp, "_GUARD_EVERY", 3)
        _check_rows_after_every_pivot(lp, RATIONAL_OPS, _integer_rows)


@given(lp=st.one_of(sparse_lp(), random_lp()))
@settings(max_examples=100, deadline=None)
def test_float_rows_hold_no_zero_after_every_pivot(lp):
    _check_rows_after_every_pivot(_as_float(lp), FLOAT_OPS, _sparse_rows)


def test_an_update_that_cancels_to_round_off_deletes_the_entry():
    nums = {0: 0.1 + 0.2, 1: 0.5, 2: 1e-20, 3: 1.0}
    _cancel(nums, 1.0, [(0, 0.3), (1, 0.5), (2, 1e-21), (4, 1e-20)])
    # 0.1 + 0.2 - 0.3 leaves round-off and 0.5 - 0.5 an exact zero: both go;
    # 1e-20 - 1e-21 and the new entry -1e-20 are small but cancel nothing
    assert nums == {2: 1e-20 - 1e-21, 3: 1.0, 4: -1e-20}


def _combined(nums, den, scale, f, source):
    row = _Row(dict(nums), den)
    _combine(row, scale, f, source)
    # the value is target - (f / scale) * source, both rows over den
    expected = {
        k: Fraction(nums.get(k, 0), den) - Fraction(f, scale) * Fraction(dict(source).get(k, 0), den)
        for k in {*nums, *dict(source)}
    }
    assert {k: Fraction(v, row.den) for k, v in row.nums.items()} == {
        k: v for k, v in expected.items() if v
    }
    assert row.den > 0
    return row


def test_an_integer_update_keeps_a_common_factor_and_deletes_a_cancelled_entry():
    nums, source = {0: 1, 1: 2, 2: 5}, [(0, 1), (1, 4), (3, 1)]
    # 2 * 2 - 4 cancels entry 1, and the denominator becomes scale times its own
    row = _combined(nums, 3, 2, 1, source)
    assert row.nums == {0: 1, 2: 10, 3: -1} and row.den == 6
    # scale 4 and f 2 share the factor 2, which goes before the update
    row = _combined(nums, 3, 4, 2, source)
    assert row.nums == {0: 1, 2: 10, 3: -1} and row.den == 3 * 4 // 2
    # (1, 1) / 2 - (1, -1) / 2 is (0, 2) / 2, left with its common factor 2
    row = _combined({0: 1, 1: 1}, 2, 1, 1, [(0, 1), (1, -1)])
    assert row.nums == {1: 2} and row.den == 2


# ---------------------------------------------------------------------------
# the reduced-cost row: one pass over one lcm in rational mode


@st.composite
def integer_tableau_with_costs(draw):
    """An integer tableau of rows over pairwise different denominators, each
    basic on its own column with orientation +1 or -1 (-1 on a free column
    entered negated) and not always in lowest terms, as between two bit
    guards, and integer costs over ``den`` that put a cost on some of the
    basic columns."""
    width = draw(st.integers(min_value=2, max_value=7))
    m = draw(st.integers(min_value=1, max_value=min(width, 5)))
    basis = draw(st.permutations(range(width)))[:m]
    dens = draw(st.lists(st.integers(1, 60), min_size=m, max_size=m, unique=True))
    tab = object.__new__(_IntegerTableau)
    tab.basis = list(basis)
    tab.matrix = []
    for b, d in zip(basis, dens):
        # a basic column holds +-1, so its numerator is +-den
        nums = {k: draw(st.integers(-4, 4)) for k in range(width + 1) if k not in basis}
        nums = {k: v for k, v in nums.items() if v}
        nums[b] = draw(st.sampled_from([1, -1])) * d
        tab.matrix.append(_Row(nums, d))
    cost = {k: draw(st.integers(-5, 5)) for k in range(width)}
    den = draw(st.integers(1, 12))
    return tab, {k: c for k, c in cost.items() if c}, den


def _sequential_reduced_costs(tab, cost, den):
    """The reduced costs as Fractions, subtracting the basic rows one at a time."""
    z = {k: Fraction(c, den) for k, c in cost.items()}
    for i, b in enumerate(tab.basis):
        cb = cost.get(b)
        if cb:
            row = tab.matrix[i]
            factor = Fraction(cb * tab.orientation(i), den)
            for k, v in row.nums.items():
                z[k] = z.get(k, 0) - factor * Fraction(v, row.den)
    return {k: v for k, v in z.items() if v}


@given(case=integer_tableau_with_costs())
@settings(max_examples=300, deadline=None)
def test_the_integer_reduced_costs_equal_the_row_by_row_sum(case):
    tab, cost, den = case
    z_row = tab.objective_row(cost, den)
    assert {k: Fraction(v, z_row.den) for k, v in z_row.nums.items()} == (
        _sequential_reduced_costs(tab, cost, den)
    )
    assert all(type(v) is int and v for v in z_row.nums.values())
    if any(cost.get(b) for b in tab.basis):
        assert z_row.den > 0 and gcd(z_row.den, *z_row.nums.values()) == 1
    else:  # nothing to subtract: the costs come back as they were given
        assert (z_row.nums, z_row.den) == (cost, den)


def test_cancelled_reduced_costs_are_deleted_and_the_row_reduced():
    tab = object.__new__(_IntegerTableau)
    # row 0 is x0 + x2 / 2 = 1/2, basic on x0; row 1 is -x1 - 2 x2 / 3 = 1/3,
    # basic on the free column x1 entered negated; column 3 is the right-hand side
    tab.basis = [0, 1]
    tab.matrix = [_Row({0: 2, 2: 1, 3: 1}, 2), _Row({1: -3, 2: -2, 3: 1}, 3)]
    # costs 1, 2 and 11/6: over lcm(2, 3) = 6 and the cost denominator 6, the
    # sum is (36, 72, 66) - 6 * 3 * (2, 0, 1, 1) + 12 * 2 * (0, -3, -2, 1), in
    # which every column but the right-hand side cancels, leaving 6 / 36
    z_row = tab.objective_row({0: 6, 1: 12, 2: 11}, 6)
    assert (z_row.nums, z_row.den) == ({3: 1}, 6)
    assert _sequential_reduced_costs(tab, {0: 6, 1: 12, 2: 11}, 6) == {3: Fraction(1, 6)}


def _objective_rows(lp, ops):
    """Solve ``lp``; return, per call of ``objective_row``, the basic rows
    that carry a cost and the ``_combine`` and ``_cancel`` calls it made."""
    calls = []
    made = []
    tableau = _IntegerTableau if ops is RATIONAL_OPS else _FloatTableau
    objective_row = tableau.objective_row

    def counted(update):
        def wrapped(*args):
            made.append(update.__name__)
            return update(*args)

        return wrapped

    def recorded(tab, cost, den):
        before = len(made)
        z_row = objective_row(tab, cost, den)
        with_cost = sum(1 for b in tab.basis if cost.get(b))
        calls.append((with_cost, made[before:]))
        return z_row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rip.lp, "_combine", counted(_combine))
        patch.setattr(rip.lp, "_cancel", counted(_cancel))
        patch.setattr(tableau, "objective_row", recorded)
        solve(lp, ops)
    return calls


@pytest.mark.parametrize("ops", [RATIONAL_OPS, FLOAT_OPS], ids=["rational", "float"])
def test_rational_reduced_costs_make_no_row_update_and_float_ones_one_per_row(ops):
    # three equality rows start on artificials, over thirds, fifths and
    # sevenths; phase 2 prices a basis that holds all three variables
    rows = [
        ([rat(1, 3), 1, 0], "==", 1),
        ([0, rat(2, 5), 1], "==", 1),
        ([1, 0, rat(3, 7)], "==", 2),
    ]
    lp = lp_min([1, 2, 3], rows)
    calls = _objective_rows(_as_float(lp) if ops is FLOAT_OPS else lp, ops)
    assert [with_cost for with_cost, _ in calls] == [3, 3]
    for with_cost, updates in calls:
        # float mode still cancels the basic rows one at a time
        assert updates == ([] if ops is RATIONAL_OPS else ["_cancel"] * with_cost)


def _row_updates_per_pivot(lp, ops):
    """Solve ``lp``; return, per pivot, the row updates it made and the rows
    that held the entering column before it, the reduced-cost row included
    and the pivot row not, and the pivots of :func:`_drive_out_artificials`."""
    updates = []
    counts = []
    driven = []
    pivot = _Tableau.pivot
    drive_out = rip.lp._drive_out_artificials

    def counted(update):
        def wrapped(*args):
            updates.append(update.__name__)
            return update(*args)

        return wrapped

    def recorded(tab, i, j, z_row, s, rows):
        pivot_row = tab.matrix[i]
        holding = sum(j in row.nums for row in [*tab.matrix, z_row] if row is not pivot_row)
        before = len(updates)
        pivot(tab, i, j, z_row, s, rows)
        counts.append((len(updates) - before, holding))

    def recorded_drive_out(tab, z_row):
        before = tab.pivots
        drive_out(tab, z_row)
        driven.append(tab.pivots - before)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rip.lp, "_combine", counted(_combine))
        patch.setattr(rip.lp, "_cancel", counted(_cancel))
        patch.setattr(_Tableau, "pivot", recorded)
        patch.setattr(rip.lp, "_drive_out_artificials", recorded_drive_out)
        out = solve(lp, ops)
    assert out.pivots == len(counts)
    return counts, sum(driven)


@pytest.mark.parametrize("ops", [RATIONAL_OPS, FLOAT_OPS], ids=["rational", "float"])
def test_a_pivot_updates_each_row_that_holds_the_entering_column_once(ops):
    # phase 1 ends with an artificial basic at 0, which is pivoted out
    rows = [([1, 0], "==", 2), ([-1, 2], ">=", 0), ([2, -2], "==", 2)]
    lp = lp_min([-2, 0], rows)
    counts, driven = _row_updates_per_pivot(_as_float(lp) if ops is FLOAT_OPS else lp, ops)
    assert driven == 1 and len(counts) == 3
    assert all(made == holding for made, holding in counts), counts


@given(lp=st.one_of(sparse_lp(), random_lp()))
@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("ops", [RATIONAL_OPS, FLOAT_OPS], ids=["rational", "float"])
def test_every_pivot_updates_only_the_rows_that_hold_the_entering_column(ops, lp):
    counts, _ = _row_updates_per_pivot(_as_float(lp) if ops is FLOAT_OPS else lp, ops)
    assert all(made == holding for made, holding in counts), counts


@pytest.mark.parametrize("ops", [RATIONAL_OPS, FLOAT_OPS], ids=["rational", "float"])
def test_a_hedge_tableau_has_no_artificial_column(ops):
    mode = "rational" if ops is RATIONAL_OPS else "float"
    space = build_lattice(1, 3, ["1/2", 1, 2], mode=mode)
    values = space.claim_values(parse_payoff("pos(S[1,T] - 1)"))
    problem = build_hedge_problem(
        space, space.all_paths(), InfoStructure.none(), values, StaticOptionBook.cash_only()
    )
    tab = _Tableau(problem.lp, ops)
    assert tab.width == tab.art_start
    assert tab.basis == tab.start
    # 27 rows over 14 free columns, one per variable, and 27 slacks
    assert len(tab.free) == 14
    assert tab.size() == "27 x 41"


# ---------------------------------------------------------------------------
# solver errors name the layer and the program's size


class TestSolverErrors:
    def _tableau(self):
        lp = lp_min([-1, -1], [([1, 2], "<=", 4), ([3, 1], "<=", 6)])
        tab = _Tableau(lp, RATIONAL_OPS)
        return tab, tab.objective_row({0: -1, 1: -1}, 1)

    def test_failed_certificate(self, monkeypatch):
        monkeypatch.setattr(rip.lp, "verify_certificate", lambda *args: False)
        lp = lp_min([2, 3], [([1, 1], ">=", 4)])
        message = r"^lp: the Optimal certificate .* on a 1 x 2 program"
        with pytest.raises(InternalCheckError, match=message):
            solve_checked(lp)

    def test_pivot_cap(self):
        tab, z_row = self._tableau()
        message = r"^lp: simplex stopped after 1 pivots, over its cap of 0, on a 2 x 4 tableau"
        with pytest.raises(CapacityError, match=message):
            tab.run(z_row, tab.art_start, max_pivots=0)

    def test_the_pivot_cap_counts_an_artificial_for_every_row(self, monkeypatch):
        caps = []
        run = _Tableau.run

        def recorded(tab, z_row, allowed_width, max_pivots):
            caps.append((tab.width, max_pivots))
            return run(tab, z_row, allowed_width, max_pivots)

        monkeypatch.setattr(_Tableau, "run", recorded)
        solve(lp_min([-1, -1], [([1, 2], "<=", 4), ([3, 1], "<=", 6)]))
        # 2 rows over 2 structural, 2 slack and 2 artificial columns, though
        # the tableau holds no artificial
        assert caps == [(4, 20000 + 200 * (2 + 6))] * 2

    def test_bit_guard(self, monkeypatch):
        monkeypatch.setattr(rip.lp, "_BIT_GUARD", 1)
        tab, z_row = self._tableau()
        tab.pivot(0, 0, z_row, 1, tab.matrix)  # both rows hold column 0
        message = r"^lp: exact tableau coefficients reached 3 bits after 1 pivots on a 2 x 4 "
        with pytest.raises(CapacityError, match=message):
            tab._capacity_guard(z_row)

    def test_bit_guard_counts_a_row_denominator(self, monkeypatch):
        # in a reachable tableau each row's basic column holds its
        # denominator as numerator, so this row is set by hand: numerators
        # of at most 3 bits over a denominator of 6
        monkeypatch.setattr(rip.lp, "_BIT_GUARD", 5)
        tab, z_row = self._tableau()
        tab._capacity_guard(z_row)
        row = tab.matrix[0]
        row.den = 32
        assert max(abs(v) for v in row.nums.values()).bit_length() <= 3
        message = r"^lp: exact tableau coefficients reached 6 bits after 0 pivots on a 2 x 4 "
        with pytest.raises(CapacityError, match=message):
            tab._capacity_guard(z_row)

    def test_bit_guard_puts_every_row_in_lowest_terms_before_it_measures(self, monkeypatch):
        # the rows hold 3 bits at most in lowest terms (x0 + 2 x1 <= 4 and
        # 3 x0 + x1 <= 6 over 1); times 8 they hold 6, as rows may between guards
        tab, z_row = self._tableau()
        lowest = [(row, dict(row.nums), row.den) for row in tab.matrix + [z_row]]
        for row, nums, den in lowest:
            row.nums, row.den = {k: 8 * v for k, v in nums.items()}, 8 * den
        monkeypatch.setattr(rip.lp, "_BIT_GUARD", 3)
        tab._capacity_guard(z_row)
        assert [(row.nums, row.den) for row, _, _ in lowest] == [(n, d) for _, n, d in lowest]
        for row, nums, den in lowest:
            row.nums, row.den = {k: 8 * v for k, v in nums.items()}, 8 * den
        monkeypatch.setattr(rip.lp, "_BIT_GUARD", 2)
        message = r"^lp: exact tableau coefficients reached 3 bits after 0 pivots on a 2 x 4 "
        with pytest.raises(CapacityError, match=message):
            tab._capacity_guard(z_row)


# ---------------------------------------------------------------------------
# the fraction-free tableau against the same simplex on one rational per
# entry (tests/reference_simplex.py): equal outcomes, pivot counts included,
# and every reported number of the mode's rational type


def _numbers(out):
    if isinstance(out, Optimal):
        return out.x + out.y + (out.value,)
    if isinstance(out, Infeasible):
        return out.certificate
    return out.point + out.ray


def _matches_the_reference(lp):
    out = solve(lp)
    assert out == reference_simplex.solve(lp)
    rational = type(rat(0))
    assert all(type(v) is rational for v in _numbers(out)), out
    return out


@given(lp=st.one_of(sparse_lp(), random_lp()))
@example(lp=_EVERY_OUTCOME[Optimal])
@example(lp=_EVERY_OUTCOME[Infeasible])
@example(lp=_EVERY_OUTCOME[Unbounded])
@settings(max_examples=500, deadline=None)
def test_integer_rows_match_the_rational_reference(lp):
    _matches_the_reference(lp)


def _pivots_per_phase(monkeypatch):
    """Record the pivots of each ``run`` call (phase 1, then phase 2)."""
    counts = []
    run = _Tableau.run

    def counted(tab, *args, **kwargs):
        before = tab.pivots
        try:
            return run(tab, *args, **kwargs)
        finally:
            counts.append(tab.pivots - before)

    monkeypatch.setattr(_Tableau, "run", counted)
    return counts


def test_both_phases_match_the_reference(monkeypatch):
    counts = _pivots_per_phase(monkeypatch)
    # the >= row has no slack start, so phase 1 pivots before phase 2 does
    lp = lp_min([-1, -2, 1], [([1, 1, 1], ">=", 2), ([1, 2, -1], "<=", 6), ([0, 1, 1], "<=", 3)])
    out = _matches_the_reference(lp)
    assert isinstance(out, Optimal)
    assert len(counts) == 2 and all(counts), counts


@pytest.mark.parametrize("as_ge", [False, True], ids=["le-rows", "ge-zero-row"])
def test_beale_cycling_example_matches_the_reference(as_ge):
    rows = list(_BEALE_ROWS)
    if as_ge:
        coeffs, _, rhs = rows[0]
        rows[0] = ([-c for c in coeffs], ">=", rhs)
    out = _matches_the_reference(lp_min(_BEALE_OBJECTIVE, rows))
    assert isinstance(out, Optimal) and out.pivots > 0


def test_a_dropped_redundant_row_matches_the_reference(monkeypatch):
    kept = []
    drive_out = rip.lp._drive_out_artificials

    def recorded(tab, z_row):
        drive_out(tab, z_row)
        kept.append(len(tab.matrix))

    monkeypatch.setattr(rip.lp, "_drive_out_artificials", recorded)
    lp = lp_min([1, 3], [([1, 1], "==", 1), ([2, 2], "==", 2), ([1, -1], "<=", 0)])
    out = _matches_the_reference(lp)
    assert isinstance(out, Optimal)
    assert kept == [2]  # one of the two equal rows is gone


def test_forty_copies_of_one_equality_row_keep_one(monkeypatch):
    kept = []
    drive_out = rip.lp._drive_out_artificials

    def recorded(tab, z_row):
        drive_out(tab, z_row)
        kept.append((len(tab.matrix), list(tab.row_ids)))

    monkeypatch.setattr(rip.lp, "_drive_out_artificials", recorded)
    rows = [([1, 2, 1], "==", 3)] * 40 + [([1, -1, 0], "<=", 1)]
    out = _matches_the_reference(lp_min([2, 1, 3], rows))
    assert isinstance(out, Optimal) and out.pivots > 0
    # the first copy stays, with the slack-start row; 39 copies go
    assert kept == [(2, [0, 40])]
    assert out.y[1:40] == (0,) * 39


def test_infeasible_and_unbounded_programs_match_the_reference():
    infeasible = _matches_the_reference(lp_min([1, 1], [([1, 1], ">=", 2), ([1, 1], "<=", 1)]))
    assert isinstance(infeasible, Infeasible) and infeasible.pivots > 0
    unbounded = _matches_the_reference(
        lp_min([-1, 0], [([1, -1], "<=", 0), ([1, 0], ">=", 1)])
    )
    assert isinstance(unbounded, Unbounded) and unbounded.pivots > 0
    no_rows = _matches_the_reference(lp_min([-1], []))
    assert isinstance(no_rows, Unbounded)


# ---------------------------------------------------------------------------
# one column per free variable against the split program, in both modes: a
# free variable replaced by two adjacent nonnegative ones, x+ and x-, with
# coefficients c and -c, gives the same pivots, duals and Farkas vectors,
# and the point, the optimum and the ray are x+ - x-


def _split(lp):
    """``lp`` with each free variable on two nonnegative ones, and for each
    variable of ``lp`` its columns in the split program."""
    columns, bounds = [], []
    for bnd in lp.bounds:
        pair = bnd == "free"
        columns.append(tuple(range(len(bounds), len(bounds) + 1 + pair)))
        bounds += ["nonneg"] * 2 if pair else [bnd]

    def widen(nonzeros):
        return tuple(
            (k, c if k == columns[j][0] else -c) for j, c in nonzeros for k in columns[j]
        )

    objective = tuple(c for _, c in widen(enumerate(lp.objective)))
    rows = tuple((widen(nonzeros), rel, rhs) for nonzeros, rel, rhs in lp.rows)
    return LinearProgram(lp.sense, objective, rows, tuple(bounds)), columns


def _merged(values, columns):
    return tuple(values[c[0]] - values[c[1]] if len(c) == 2 else values[c[0]] for c in columns)


def _mirrors_the_split(lp, ops):
    split, columns = _split(lp)
    out, ref = solve(lp, ops), solve(split, ops)
    assert type(out) is type(ref) and out.pivots == ref.pivots
    if isinstance(out, Optimal):
        assert (out.x, out.y, out.value) == (_merged(ref.x, columns), ref.y, ref.value)
    elif isinstance(out, Infeasible):
        assert out.certificate == ref.certificate
    else:
        assert out.point == _merged(ref.point, columns)
        assert out.ray == _merged(ref.ray, columns)
    # a float ray can improve by less than the verifier's tolerance: min
    # 1e-7 * x over a free x is Unbounded, and its ray fails the check
    assert ops is FLOAT_OPS or verify_certificate(lp, out, ops)
    return out


_MODES = pytest.mark.parametrize("ops", [RATIONAL_OPS, FLOAT_OPS], ids=["rational", "float"])


@given(lp=sparse_lp())
@settings(max_examples=200, deadline=None)
@_MODES
def test_free_columns_mirror_the_split_program(ops, lp):
    _mirrors_the_split(_as_float(lp) if ops is FLOAT_OPS else lp, ops)


@_MODES
def test_a_free_column_enters_negated_leaves_and_enters_again(ops, monkeypatch):
    # x1 enters as its negation in place of the first row's artificial, x2
    # takes its place, and x1 comes back in its own direction
    pivots = []
    pivot = _Tableau.pivot

    def recorded(tab, i, j, z_row, s, rows):
        pivots.append((tab.basis[i], j, s))
        pivot(tab, i, j, z_row, s, rows)

    monkeypatch.setattr(_Tableau, "pivot", recorded)
    rows = [([-3, -3, -3], ">=", 2), ([3, -3, 1], "<=", 4), ([-2, 0, -2], ">=", 2)]
    lp = lp_min([3, -3, -3], rows, ["nonneg", "free", "free"])
    if ops is FLOAT_OPS:
        lp = _as_float(lp)
    out = _mirrors_the_split(lp, ops)
    assert isinstance(out, Optimal) and verify_certificate(lp, out, ops)
    assert pivots[:3] == [(6, 1, -1), (1, 2, -1), (7, 1, 1)]


def _hedge_lp(space, claim, interval=None):
    values = space.claim_values(claim)
    book = StaticOptionBook.cash_only()
    return build_hedge_problem(
        space, space.all_paths(), InfoStructure.none(), values, book, interval
    ).lp


@_MODES
def test_hedge_programs_mirror_their_split(ops, monkeypatch):
    mode = "rational" if ops is RATIONAL_OPS else "float"
    tri3 = build_lattice(1, 3, ["1/2", 1, 2], mode=mode)
    optimal = _mirrors_the_split(_hedge_lp(tri3, parse_payoff("pos(S[1,T] - 1)")), ops)
    assert isinstance(optimal, Optimal) and optimal.pivots > 0
    # the asset can only go up: shorting cash against it is an arbitrage
    rising = space_from_paths([[(1,), (2,)], [(1,), (3,)]], n_assets=1, mode=mode)
    arbitrage = _mirrors_the_split(_hedge_lp(rising, Num(0)), ops)
    assert isinstance(arbitrage, Unbounded)

    # the outer program of the decomposition at step 1 is the last hedge built
    built = []
    build = rip.hedging.build_hedge_problem

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(rip.hedging, "build_hedge_problem", recorded)
    dpp_superhedge(tri3, parse_payoff("pos(S[1,T] - 1)"), 1, InfoStructure.none())
    outer = built[-1]
    assert outer.interval == (0, 1)
    assert isinstance(_mirrors_the_split(outer.lp, ops), Optimal)


# ---------------------------------------------------------------------------
# the builders hand over their rows' nonzeros, in column order


def test_builders_write_nonzeros_at_increasing_columns(monkeypatch, tri2, hits_one):
    claim = parse_payoff("pos(S[1,T] - 1)")
    at_its_payoff = Option(parse_payoff("ind(S[1,2] == 1)"), rat(1), "at-its-payoff")
    flat_digital = Option(parse_payoff("ind(S[1,1] == 1)"), rat(1, 5), "flat-digital")
    # the first option is worth its price on some paths, where its
    # calibration coefficient is 0; the second pays nothing on some paths
    book = StaticOptionBook.of(at_its_payoff, flat_digital)
    minus = InfoStructure.minus(hits_one)
    values = tri2.claim_values(claim)
    measure = build_measure_lp(tri2, tri2.all_paths(), minus, book, None, values)
    # the mass row, a martingale row per atom at t = 0 and 1, and one
    # calibration row per option: the label is not known at time 0
    assert len(measure.rows) == 1 + (1 + 3) + 2
    programs = [
        build_hedge_problem(tri2, tri2.all_paths(), minus, values, book).lp,
        measure,
        _approx_lp(tri2, [4], rat(1, 2), claim, book),
    ]
    forced = []
    solve_checked = rip.pricing.solve_checked

    def recorded(lp, ops):
        forced.append(lp)
        return solve_checked(lp, ops)

    monkeypatch.setattr(rip.pricing, "solve_checked", recorded)
    chain_quantities(tri2, hits_one, claim)
    assert forced
    for lp in programs + forced:
        for nonzeros, _, _ in lp.rows:
            columns = [j for j, _ in nonzeros]
            assert all(c for _, c in nonzeros)
            assert columns == sorted(set(columns))
            assert all(0 <= j < lp.n_vars for j in columns)
