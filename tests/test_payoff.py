"""Parser, evaluator and validation of the payoff language."""

import pytest

from rip import (
    EvaluationError,
    FLOAT_OPS,
    PayoffSyntaxError,
    PreconditionError,
    TailClaim,
    evaluate_payoff,
    parse_payoff,
    rat,
    validate_payoff,
)

UP_PATH = [(1, 1), (2, 1), (4, 3)]  # two assets, two steps


def ev(text, values=UP_PATH):
    return evaluate_payoff(parse_payoff(text), values)


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
        assert evaluate_payoff(expr, path, FLOAT_OPS) == 1.0

    def test_tail_claim_reads_the_renormalised_tail(self):
        inner = parse_payoff("pos(S[1,T] - 1)")
        claim = TailClaim(inner, arrival=1)
        # tail from index 1 is (2, 4), renormalised (1, 2)
        assert evaluate_payoff(claim, [(1,), (2,), (4,)]) == 1

    def test_tail_claim_rejects_tails_leaving_zero(self):
        inner = parse_payoff("S[1,T]")
        claim = TailClaim(inner, arrival=1)
        with pytest.raises(EvaluationError):
            evaluate_payoff(claim, [(1,), (0,), (3,)])


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
