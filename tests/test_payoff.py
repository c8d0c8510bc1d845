"""Parser, evaluator and validation of the payoff language."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from rip import (
    BinOp,
    Call,
    EvaluationError,
    Indicator,
    Neg,
    Num,
    PayoffSyntaxError,
    PreconditionError,
    Ref,
    RunningExtreme,
    TailClaim,
    build_lattice,
    compile_payoff,
    parse_payoff,
    rat,
    space_from_paths,
    validate_payoff,
)
from rip.payoff import _tokenize

UP_PATH = [(1, 1), (2, 1), (4, 3)]  # two assets, two steps


def value_on(expr, path, mode="rational"):
    """``expr`` on one path, through the claim values of a one-path space."""
    return space_from_paths([path], len(path[0]), mode).claim_values(expr)[0]


def ev(text, values=UP_PATH):
    return value_on(parse_payoff(text), values)


class TestEvaluation:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1 + 2 * 3", 7),
            ("(1 + 2) * 3", 9),
            ("2 - 3 - 1", -2),
            ("8 / 2 / 2", 2),
            ("-S[1,1] + 5", 3),
            ("S[1,T]", 4),
            ("S[2,T] - S[2,0]", 2),
            ("max(S[1,0], S[1,1], S[1,2])", 4),
            ("min(S[1,1], 3)", 2),
            ("abs(1 - S[1,T])", 3),
            ("pos(1 - S[1,T])", 0),
            ("pos(S[1,T] - 1)", 3),
            ("ind(S[1,T] >= 4)", 1),
            ("ind(S[1,T] > 4)", 0),
            ("ind(S[1,1] == 2)", 1),
            ("maxt(1)", 4),
            ("mint(1)", 1),
            ("maxt(2)", 3),
            ("0.25 * S[1,T]", 1),
        ],
    )
    def test_examples(self, text, expected):
        assert ev(text) == expected

    def test_indicator_both_sides_are_expressions(self):
        assert ev("ind(S[1,T] - S[1,1] >= S[2,T] - 1)") == 1

    def test_division_by_zero_is_an_evaluation_error(self):
        with pytest.raises(EvaluationError):
            ev("1 / (S[1,1] - 2)")

    def test_results_are_exact_rationals(self):
        value = ev("S[1,1] / 3")
        assert value == rat(2, 3)

    def test_float_ops_compare_with_tolerance(self):
        expr = parse_payoff("ind(S[1,1] == 2)")
        path = [(1.0,), (2.0 + 1e-13,)]
        assert value_on(expr, path, "float") == 1.0

    def test_tail_claim_reads_the_renormalised_tail(self):
        inner = parse_payoff("pos(S[1,T] - 1)")
        claim = TailClaim(inner, arrival=1)
        # tail from index 1 is (2, 4), renormalised (1, 2)
        assert value_on(claim, [(1,), (2,), (4,)]) == 1

    def test_tail_claim_rejects_tails_leaving_zero(self):
        inner = parse_payoff("S[1,T]")
        claim = TailClaim(inner, arrival=1)
        with pytest.raises(EvaluationError):
            value_on(claim, [(1,), (0,), (3,)])


class TestSyntaxErrors:
    def test_position_is_reported(self):
        with pytest.raises(PayoffSyntaxError) as exc:
            parse_payoff("1 + + 2")
        assert exc.value.line == 1
        assert exc.value.column == 5

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1 +",
            "S[1]",
            "S[1,]",
            "S(1,1)",
            "foo(1)",
            "max(1)",
            "pos(1, 2)",
            "ind(1)",
            "ind(1 = 2)",
            "1..2",
            "maxt(T)",
            "2 ** 3",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(PayoffSyntaxError):
            parse_payoff(text)

    def test_trailing_garbage(self):
        with pytest.raises(PayoffSyntaxError) as exc:
            parse_payoff("1 + 2 )")
        assert "line 1" in str(exc.value)


class TestScanner:
    @pytest.mark.parametrize(
        "text,line,column,token,message",
        [
            ("1.", 1, 1, "1.", "malformed number literal"),
            ("1.x", 1, 1, "1.", "malformed number literal"),
            ("1..2", 1, 1, "1.", "malformed number literal"),
            ("2 * 31.", 1, 5, "31.", "malformed number literal"),
            ("\t\t\r$", 1, 4, "$", "unexpected character '$'"),
            ("1 +\n2 *\n3 # 4", 3, 3, "#", "unexpected character '#'"),
            ("1 +\n", 2, 1, "", "expected a number, reference, function, or '(', found end of input"),
            ("1.5.3", 1, 4, ".", "unexpected character '.'"),
            # numbers are ASCII digits, and any other character is a syntax error
            ("pos(S[1,T] - ²)", 1, 14, "²", "unexpected character '²'"),
            ("S[٣,1]", 1, 3, "٣", "unexpected character '٣'"),
            ("1 +\n  é", 2, 3, "é", "unexpected character 'é'"),
            ("Sé", 1, 2, "é", "unexpected character 'é'"),
        ],
    )
    def test_error_position_token_and_message(self, text, line, column, token, message):
        with pytest.raises(PayoffSyntaxError) as exc:
            parse_payoff(text)
        assert (exc.value.line, exc.value.column, exc.value.token) == (line, column, token)
        assert str(exc.value) == f"{message} (line {line}, column {column})"

    def test_token_positions_of_a_three_line_payoff(self):
        tokens = _tokenize("max(S[1,T],\n\t2.5)\r\n  >= 10")
        assert [(t.kind, t.text, t.line, t.column) for t in tokens] == [
            ("IDENT", "max", 1, 1),
            ("(", "(", 1, 4),
            ("IDENT", "S", 1, 5),
            ("[", "[", 1, 6),
            ("NUMBER", "1", 1, 7),
            (",", ",", 1, 8),
            ("IDENT", "T", 1, 9),
            ("]", "]", 1, 10),
            (",", ",", 1, 11),
            ("NUMBER", "2.5", 2, 2),
            (")", ")", 2, 5),
            (">=", ">=", 3, 3),
            ("NUMBER", "10", 3, 6),
            ("EOF", "", 3, 8),
        ]


class TestValidation:
    def test_asset_and_time_bounds(self):
        expr = parse_payoff("S[2,3]")
        validate_payoff(expr, n_assets=2, n_steps=3)
        with pytest.raises(PreconditionError):
            validate_payoff(expr, n_assets=1, n_steps=3)
        with pytest.raises(PreconditionError):
            validate_payoff(expr, n_assets=2, n_steps=2)

    def test_running_extremes_check_the_asset(self):
        with pytest.raises(PreconditionError):
            validate_payoff(parse_payoff("maxt(3)"), n_assets=2, n_steps=2)

    def test_tail_claim_validates_against_the_shortened_grid(self):
        claim = TailClaim(parse_payoff("S[1,2]"), arrival=1)
        validate_payoff(claim, n_assets=1, n_steps=3)
        with pytest.raises(PreconditionError):
            validate_payoff(claim, n_assets=1, n_steps=2)


# ---------------------------------------------------------------------------
# the compiled evaluator against the reference walk of tests/oracle.py

# ratios that are not dyadic, so that float quotients round
TWO_ASSET_STEPS = [[["3/10", 1, "7/3"], ["2/3", "11/10"]]] * 2

SPACES = {
    "rational lattice": build_lattice(2, 2, TWO_ASSET_STEPS),
    "float lattice": build_lattice(2, 2, TWO_ASSET_STEPS, mode="float"),
    # zero coordinates: at zero from index 1 on, a tail that leaves zero,
    # and a tail at zero in one coordinate only
    "paths with zeros": space_from_paths(
        [
            [(1, 1), (0, 0), (0, 0)],
            [(1, 1), (0, "1/2"), (1, "3/4")],
            [(1, 1), (2, 0), (6, 0)],
            [(1, 1), ("1/3", 3), ("1/9", 5)],
            [(1, 1), (1, 1), (1, 1)],
        ],
        n_assets=2,
    ),
}
SPACES["float paths with zeros"] = space_from_paths(
    [SPACES["paths with zeros"].rows(p) for p in SPACES["paths with zeros"].all_paths()],
    n_assets=2,
    mode="float",
)


def _leaf():
    number = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Num)
    ref = st.builds(Ref, st.integers(1, 3), st.one_of(st.integers(0, 3), st.just("T")))
    extreme = st.builds(RunningExtreme, st.sampled_from(["max", "min"]), st.integers(1, 2))
    return st.one_of(number, ref, extreme)


def _extend(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        st.builds(lambda op, ab: BinOp(op, *ab), st.sampled_from("+-*/"), pair),
        st.builds(Neg, inner),
        st.builds(
            Call, st.sampled_from(["max", "min"]), st.lists(inner, min_size=2, max_size=3).map(tuple)
        ),
        st.builds(lambda name, a: Call(name, (a,)), st.sampled_from(["abs", "pos"]), inner),
        st.builds(
            lambda op, ab: Indicator(op, *ab), st.sampled_from(["<", "<=", ">", ">=", "=="]), pair
        ),
        st.builds(TailClaim, inner, st.integers(0, 2)),
    )


EXPRESSIONS = st.recursive(_leaf(), _extend, max_leaves=8)


def _outcome(evaluate):
    """``repr`` of the value, or the exception's type and message."""
    try:
        return repr(evaluate())
    except Exception as exc:  # every exception must match, whatever its type
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(SPACES))
@given(expr=EXPRESSIONS)
# the sign of a float zero: -pos(x) and -ind(...) are -0.0 where they vanish
@example(expr=Neg(Call("pos", (Num(-1),))))
@example(expr=Neg(Indicator("<", Num(1), Num(0))))
@example(expr=TailClaim(BinOp("/", Ref(1, "T"), Ref(2, 1)), 1))
# a negative divisor, then a comparison with zero
@example(expr=Call("pos", (BinOp("/", Num(1), Neg(Ref(1, "T"))),)))
@settings(max_examples=150, deadline=None)
def test_compiled_payoffs_match_the_reference_walk(name, expr):
    space = SPACES[name]
    compiled = compile_payoff(expr, space.ops)
    for p, rows in enumerate(space.nums):
        got = _outcome(lambda: compiled(rows, space.den))
        want = _outcome(lambda: oracle.evaluate_payoff(expr, space.rows(p), space.ops))
        assert got == want


@pytest.mark.parametrize("name", sorted(SPACES))
def test_claim_values_are_the_compiled_values(name):
    space = SPACES[name]
    claim = parse_payoff("pos(S[1,T] - 1) + ind(S[2,1] < S[1,T]) / 3 - mint(2)")
    want = tuple(oracle.evaluate_payoff(claim, space.rows(p), space.ops) for p in space.all_paths())
    assert [repr(v) for v in space.claim_values(claim)] == [repr(v) for v in want]


def test_claim_values_put_fractions_over_one_denominator():
    path = [(1, 1), (Fraction(1, 2), Fraction(2, 3)), (Fraction(1, 4), 2)]
    claim = TailClaim(parse_payoff("S[1,T] + S[2,T]"), arrival=1)
    assert value_on(claim, path) == Fraction(1, 2) + 3
    assert value_on(parse_payoff("S[2,1] / S[1,2]"), path) == Fraction(8, 3)
