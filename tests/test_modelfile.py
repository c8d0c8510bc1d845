"""Model file loading and collective validation."""

import textwrap

import pytest

from rip import (
    InvalidModelError,
    load_model,
    parse_model,
    parse_payoff,
    rat,
    superhedge,
)


def errors_of(source, **kwargs):
    """Parse a bad model and hand back its collected messages."""
    with pytest.raises(InvalidModelError) as caught:
        parse_model(source, **kwargs)
    return caught.value.errors


class TestLatticeModels:
    def test_minimal_document(self):
        config = parse_model(
            """
            grid: {steps: 2}
            lattice: {ratios: ["1/2", 1, 2]}
            claim: pos(S[1,2] - 1)
            """
        )
        assert config.space.mode == "rational"
        assert config.space.n_assets == 1
        assert config.space.n_steps == 2
        assert config.space.n_paths == 9
        assert config.book.is_cash_only
        assert config.info.variant == "none"
        assert config.scales == (rat(1),)
        assert config.claim == parse_payoff("pos(S[1,2] - 1)")
        assert config.claim_text == "pos(S[1,2] - 1)"

    def test_rational_strings_are_exact(self):
        config = parse_model(
            """
            grid: {steps: 1}
            lattice: {ratios: ["2/3", "4/3"]}
            claim: S[1,1]
            """
        )
        values = sorted(config.space.rows(p)[1][0] for p in config.space.all_paths())
        assert values == [rat(2, 3), rat(4, 3)]

    def test_per_step_and_per_asset_ratios(self):
        config = parse_model(
            """
            grid: {steps: 2}
            lattice:
              assets: 2
              ratios:
                - [["1/2", 2], [1, 2]]
                - [["1/2", 2], [1, 2]]
            claim: S[2,2]
            """
        )
        assert config.space.n_assets == 2
        assert config.space.n_paths == 16

    def test_horizon_is_checked_and_dropped(self):
        model = """
            grid: {steps: 1, horizon: %s}
            lattice: {ratios: [1, 2]}
            claim: maxt(1)
            """
        (message,) = errors_of(model % '"x"')
        assert message.startswith("grid.horizon: ")
        config = parse_model(model % '"1/4"')
        assert config.space.n_steps == 1

    def test_loaded_model_prices(self, tmp_path):
        source = textwrap.dedent(
            """
            grid: {steps: 1}
            lattice: {ratios: ["1/2", 1, 2]}
            claim: pos(S[1,1] - 1)
            """
        )
        file = tmp_path / "call.yaml"
        file.write_text(source)
        config = load_model(str(file))
        result = superhedge(config.space, None, config.info, config.claim, book=config.book)
        assert result.single().value == rat(1, 3)


class TestExplicitPaths:
    def test_normalisation_records_scales(self):
        config = parse_model(
            """
            paths:
              - [100, 50, 25]
              - [100, 100, 100]
              - [100, 200, 400]
            claim: S[1,2]
            """
        )
        assert config.scales == (rat(100),)
        starts = {config.space.rows(p)[0][0] for p in config.space.all_paths()}
        assert starts == {rat(1)}
        tops = {config.space.rows(p)[2][0] for p in config.space.all_paths()}
        assert tops == {rat(1, 4), rat(1), rat(4)}

    def test_two_assets_nest_per_time(self):
        config = parse_model(
            """
            paths:
              - [[10, 4], [5, 4], [5, 8]]
              - [[10, 4], [20, 4], [20, 2]]
            claim: S[2,1]
            """
        )
        assert config.space.n_assets == 2
        assert config.scales == (rat(10), rat(4))

    def test_zero_start_is_rejected(self):
        messages = errors_of(
            """
            paths:
              - [0, 1]
              - [0, 2]
            claim: S[1,1]
            """
        )
        assert any("starts at zero" in m for m in messages)

    def test_mixed_lengths_are_rejected(self):
        messages = errors_of(
            """
            paths:
              - [1, 2]
              - [1, 2, 4]
            """
        )
        assert any("share one length" in m for m in messages)

    def test_grid_must_agree_with_paths(self):
        messages = errors_of(
            """
            grid: {steps: 3}
            paths:
              - [1, 2]
              - [1, 1]
            """
        )
        assert any("declares 3 steps but paths have 1" in m for m in messages)

    def test_different_starts_are_rejected(self):
        messages = errors_of(
            """
            paths:
              - [1, 2]
              - [2, 2]
            """
        )
        assert any("common value" in m for m in messages)


class TestCollectiveValidation:
    def test_many_problems_one_exception(self):
        messages = errors_of(
            """
            grid: {steps: 2, extra: 1}
            lattice: {ratios: ["1/2", 1, 2]}
            claim: pos(S[3,1] - 1)
            split: 9
            target: [0, 99]
            banana: true
            """
        )
        assert len(messages) >= 4
        assert any("unknown key 'banana'" in m for m in messages)
        assert any("unknown key 'extra'" in m for m in messages)
        assert any(m.startswith("claim:") for m in messages)
        assert any(m.startswith("split:") for m in messages)
        assert any(m.startswith("target[1]:") for m in messages)

    def test_lattice_and_paths_are_exclusive(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            paths: [[1, 2]]
            """
        )
        assert any("exactly one of 'lattice' or 'paths'" in m for m in messages)

    def test_neither_lattice_nor_paths(self):
        messages = errors_of("claim: S[1,1]")
        assert any("exactly one of" in m for m in messages)

    def test_not_yaml(self):
        messages = errors_of("{this is: [not\nyaml")
        assert any("not valid YAML" in m for m in messages)

    def test_not_a_mapping(self):
        messages = errors_of("- just\n- a list\n")
        assert any("must be a mapping" in m for m in messages)

    def test_bad_claim_reports_position(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            claim: "pos(S[1,1] - )"
            """
        )
        assert any("claim:" in m and "column" in m for m in messages)

    def test_syntax_and_range_errors_accumulate(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            claims:
              - "pos(S[1,1] - 1"
              - "S[1,5]"
              - "max(1)"
            """
        )
        assert len([m for m in messages if m.startswith("claims[")]) == 3

    def test_missing_file(self, tmp_path):
        messages = []
        with pytest.raises(InvalidModelError) as caught:
            load_model(str(tmp_path / "nowhere.yaml"))
        messages = caught.value.errors
        assert any("cannot read" in m for m in messages)


class TestOptionSections:
    def test_static_options_build_a_book(self):
        config = parse_model(
            """
            grid: {steps: 1}
            lattice: {ratios: ["1/2", 1, 2]}
            static_options:
              - {payoff: "ind(S[1,1] == 1)", price: "1/5", name: flat-digital}
            claim: pos(S[1,1] - 1)
            """
        )
        assert not config.book.is_cash_only
        (option,) = config.book.options
        assert option.name == "flat-digital"
        assert option.price == rat(1, 5)

    def test_static_option_errors_carry_indices(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            static_options:
              - {payoff: "S[1,1]", price: oops}
              - {payoff: "S[9,1]", price: 1}
            """
        )
        assert any(m.startswith("static_options[0].price:") for m in messages)
        assert any(m.startswith("static_options[1].payoff:") for m in messages)

    def test_dynamic_options_grow_the_space(self):
        config = parse_model(
            """
            grid: {steps: 2}
            lattice: {ratios: ["1/2", 1, 2]}
            dynamic_options:
              - {payoff: "ind(S[1,2] >= 2)", price: "4/9", name: listed-digital}
            claim: S[1,2]
            """
        )
        assert config.space.n_assets == 1
        assert config.space.n_coords == 2

    def test_dynamic_reference_rule(self):
        config = parse_model(
            """
            grid: {steps: 2}
            lattice: {ratios: ["1/2", 1, 2]}
            dynamic_options:
              interior: reference
              reference: ["1/9", "1/9", "1/9", "1/9", "1/9", "1/9", "1/9", "1/9", "1/9"]
              options:
                - {payoff: "pos(S[1,2] - 1)", price: "5/9"}
            claim: S[1,2]
            """
        )
        assert config.space.n_coords == 2

    def test_unknown_interior_rule(self):
        messages = errors_of(
            """
            grid: {steps: 2}
            lattice: {ratios: [1, 2]}
            dynamic_options:
              interior: cubic
              options:
                - {payoff: "S[1,2]", price: 1}
            """
        )
        assert any("unknown rule 'cubic'" in m for m in messages)

    def test_empty_dynamic_options(self):
        messages = errors_of(
            """
            grid: {steps: 2}
            lattice: {ratios: [1, 2]}
            dynamic_options: []
            """
        )
        assert any("no options given" in m for m in messages)


class TestInfoSection:
    def test_payoff_variable(self):
        config = parse_model(
            """
            grid: {steps: 1}
            lattice: {ratios: ["1/2", 1, 2]}
            info: {variant: plus, variable: "ind(S[1,1] == 1)"}
            claim: S[1,1]
            """
        )
        assert config.info.variant == "plus"
        assert config.info.variable.name == "ind(S[1,1] == 1)"

    @pytest.mark.parametrize(
        "spec, expected_name",
        [
            ("{catalog: max-abs-deviation}", "max-abs-deviation"),
            ("{catalog: range-indicator, lower: '3/4', upper: '3/2'}", "range-indicator"),
            ("{catalog: tail-max-ratio, arrival: 1}", "tail-max-ratio"),
            (
                "{catalog: tail-range-indicator, lower: '3/4', upper: '3/2', arrival: 1}",
                "tail-range-indicator",
            ),
        ],
    )
    def test_catalog_variables(self, spec, expected_name):
        config = parse_model(
            f"""
            grid: {{steps: 2}}
            lattice: {{ratios: ["1/2", 1, 2]}}
            info: {{variant: minus, variable: {spec}}}
            claim: S[1,2]
            """
        )
        assert expected_name in config.info.variable.name

    def test_unknown_catalog_entry(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            info: {variant: plus, variable: {catalog: skewness}}
            """
        )
        assert any("unknown catalog entry 'skewness'" in m for m in messages)

    def test_a_catalog_entry_that_is_not_a_name_is_reported(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            info: {variant: plus, variable: {catalog: [skewness]}}
            """
        )
        assert messages == ["info.variable: unknown catalog entry ['skewness']"]

    def test_catalog_entry_missing_bounds(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            info: {variant: plus, variable: {catalog: range-indicator}}
            """
        )
        assert any("requires 'lower'" in m for m in messages)
        assert any("requires 'upper'" in m for m in messages)

    def test_dynamic_needs_interior_arrival(self):
        messages = errors_of(
            """
            grid: {steps: 2}
            lattice: {ratios: ["1/2", 1, 2]}
            info:
              variant: dynamic
              variable: {catalog: tail-max-ratio, arrival: 0}
              arrival: 0
            """
        )
        assert any("static variant" in m for m in messages)

    def test_dynamic_arrival_parses(self):
        config = parse_model(
            """
            grid: {steps: 2}
            lattice: {ratios: ["1/2", 1, 2]}
            info:
              variant: dynamic
              variable: {catalog: tail-max-ratio, arrival: 1}
              arrival: 1
            claim: S[1,2]
            """
        )
        assert config.info.variant == "dynamic"
        assert config.info.arrival == 1

    def test_none_takes_no_variable(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            info: {variant: none, variable: "S[1,1]"}
            """
        )
        assert any("does not take 'variable'" in m for m in messages)

    def test_plus_takes_no_arrival(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            info: {variant: plus, variable: "S[1,1]", arrival: 1}
            """
        )
        assert any("does not take an arrival" in m for m in messages)

    def test_unknown_variant(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            info: {variant: sideways}
            """
        )
        assert any("unknown variant 'sideways'" in m for m in messages)


class TestModesAndTolerances:
    def test_mode_override_wins(self):
        config = parse_model(
            """
            mode: rational
            grid: {steps: 1}
            lattice: {ratios: [0.5, 2]}
            claim: S[1,1]
            """,
            mode_override="float",
        )
        assert config.space.mode == "float"
        assert isinstance(config.space.rows(0)[1][0], float)

    def test_bad_override_is_reported(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            """,
            mode_override="decimal",
        )
        assert any("override 'decimal'" in m for m in messages)

    def test_tolerances_require_float_mode(self):
        messages = errors_of(
            """
            grid: {steps: 1}
            lattice: {ratios: [1, 2]}
            tolerances: {feasibility: 0.001}
            """
        )
        assert any("only meaningful in float mode" in m for m in messages)

    def test_tolerances_are_applied(self):
        config = parse_model(
            """
            mode: float
            grid: {steps: 1}
            lattice: {ratios: [0.5, 2]}
            tolerances: {feasibility: 0.001, label: 0.002, duality: 0.003}
            claim: S[1,1]
            """
        )
        assert config.space.ops.feas_tol == 0.001
        assert config.space.ops.label_tol == 0.002
        assert config.space.ops.dual_tol == 0.003

    def test_negative_tolerance_is_rejected(self):
        messages = errors_of(
            """
            mode: float
            grid: {steps: 1}
            lattice: {ratios: [0.5, 2]}
            tolerances: {duality: -1.0}
            """
        )
        assert any("tolerances.duality" in m for m in messages)

    def test_zero_feasibility_tolerance_is_rejected(self):
        # the float simplex would pivot on round-off and fail its certificate
        messages = errors_of(
            """
            mode: float
            grid: {steps: 1}
            lattice: {ratios: [0.5, 2]}
            tolerances: {feasibility: 0, label: 0, duality: 0}
            """
        )
        assert any("tolerances.feasibility" in m and "positive" in m for m in messages)
        assert not any("tolerances.label" in m or "tolerances.duality" in m for m in messages)

    @pytest.mark.parametrize("value", [".nan", ".inf", "1" + "0" * 400])
    def test_non_finite_tolerances_are_rejected(self, value):
        # a float comparison against nan or inf decides nothing, and the
        # certificate check failed only after the whole solve
        messages = errors_of(
            f"""
            mode: float
            grid: {{steps: 1}}
            lattice: {{ratios: [0.5, 2]}}
            tolerances: {{feasibility: {value}, label: {value}, duality: {value}}}
            """
        )
        for key in ("feasibility", "label", "duality"):
            assert any(f"tolerances.{key}" in m and "finite" in m for m in messages), key


    def test_tolerances_are_read_like_every_number(self):
        # YAML reads 1e-9, without a dot, as a string
        config = parse_model(
            """
            mode: float
            grid: {steps: 1}
            lattice: {ratios: [0.5, 2]}
            tolerances: {feasibility: 1e-9, duality: "1/1000"}
            claim: S[1,1]
            """
        )
        assert config.space.ops.feas_tol == 1e-9
        assert config.space.ops.dual_tol == 0.001


class TestNumbers:
    @pytest.mark.parametrize("ratio", ["'1e400'", "1" + "0" * 400], ids=["text", "integer"])
    def test_float_overflow_is_reported(self, ratio):
        messages = errors_of(
            f"""
            mode: float
            grid: {{steps: 1}}
            lattice: {{ratios: [0.5, {ratio}]}}
            """
        )
        assert any(m.startswith("lattice.ratios:") and "finite" in m for m in messages)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_nan_is_reported(self, mode):
        messages = errors_of(
            f"""
            mode: {mode}
            grid: {{steps: 1}}
            lattice: {{ratios: [0.5, .nan]}}
            """
        )
        assert any(m.startswith("lattice.ratios:") and "finite" in m for m in messages)


class TestSelections:
    def test_target_is_sorted_and_deduplicated(self):
        config = parse_model(
            """
            grid: {steps: 1}
            lattice: {ratios: ["1/2", 1, 2]}
            target: [2, 0, 2]
            claim: S[1,1]
            """
        )
        assert config.target == (0, 2)

    def test_split_in_range(self):
        config = parse_model(
            """
            grid: {steps: 2}
            lattice: {ratios: ["1/2", 1, 2]}
            split: 1
            claim: S[1,2]
            """
        )
        assert config.split == 1

    def test_claims_family(self):
        config = parse_model(
            """
            grid: {steps: 1}
            lattice: {ratios: ["1/2", 1, 2]}
            claims:
              - "pos(S[1,1] - 1)"
              - "ind(S[1,1] == 2)"
            """
        )
        assert len(config.claims) == 2
        assert config.claim is None
        assert config.claim_texts == ("pos(S[1,1] - 1)", "ind(S[1,1] == 2)")

    def test_parsed_mapping_is_accepted(self):
        config = parse_model(
            {
                "grid": {"steps": 1},
                "lattice": {"ratios": ["1/2", 1, 2]},
                "claim": "S[1,1]",
            }
        )
        assert config.space.n_paths == 3


class TestDigitsOutsideAscii:
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_digits_outside_ascii_are_not_numbers(self, mode):
        # Fraction alone reads the Arabic-Indic "٣" as 3 and "1/٥" as 1/5
        assert errors_of(
            f"""
            mode: {mode}
            grid: {{steps: 1}}
            lattice: {{ratios: ["1/2", 1, "٣"]}}
            """
        ) == ["lattice.ratios: could not read '٣' as a number (not a rational number: '٣')"]
        assert errors_of(
            f"""
            mode: {mode}
            grid: {{steps: 1}}
            lattice: {{ratios: ["1/2", 1, 2]}}
            static_options:
              - {{payoff: "S[1,1]", price: "1/٥"}}
            """
        ) == [
            "static_options[0].price: could not read '1/٥' as a number "
            "(not a rational number: '1/٥')"
        ]


class TestUnderscoresInNumbers:
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_underscores_are_not_digit_separators(self, mode):
        # Fraction alone reads "1_0" as 10 from Python 3.11 on
        assert errors_of(
            f"""
            mode: {mode}
            grid: {{steps: 1}}
            lattice: {{ratios: ["1/2", 1, "1_0"]}}
            """
        ) == ["lattice.ratios: could not read '1_0' as a number (not a rational number: '1_0')"]


class TestLatticeAssets:
    @pytest.mark.parametrize("text,value", [('"two"', "two"), ("true", True), ("1.5", 1.5)])
    def test_a_non_integer_count_is_one_error(self, text, value):
        assert errors_of(
            f"""
            grid: {{steps: 1}}
            lattice: {{assets: {text}, ratios: ["1/2", 1, 2]}}
            """
        ) == [f"lattice.assets: expected an integer, got {value!r}"]

    def test_a_count_below_one_is_not_positive(self):
        assert errors_of(
            """
            grid: {steps: 1}
            lattice: {assets: 0, ratios: ["1/2", 1, 2]}
            """
        ) == ["lattice.assets: must be a positive integer"]
