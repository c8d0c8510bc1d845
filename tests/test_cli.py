"""The command line driver: exit codes, report shape, determinism."""

import json
import re
import subprocess
import sys
import textwrap

import pytest

import rip.cli
import rip.lp
from rip.cli import main

CALL_MODEL = """
grid: {steps: 1}
lattice: {ratios: ["1/2", 1, 2]}
claim: pos(S[1,1] - 1)
"""

PLUS_MODEL = """
grid: {steps: 1}
lattice: {ratios: ["1/2", 1, 2]}
info: {variant: plus, variable: "ind(S[1,1] == 1)"}
claim: pos(S[1,1] - 1)
"""

MINUS_MODEL = """
grid: {steps: 1}
lattice: {ratios: ["1/2", 1, 2]}
info: {variant: minus, variable: "ind(S[1,1] == 1)"}
claim: pos(S[1,1] - 1)
"""

DPP_MODEL = """
grid: {steps: 2}
lattice: {ratios: ["1/2", 1, 2]}
split: 1
claim: pos(S[1,2] - 2)
"""

DRIFT_MODEL = """
grid: {steps: 1}
lattice: {ratios: [2, 4]}
claim: S[1,1]
"""

PREMIUM_MODEL = """
grid: {steps: 2}
lattice: {ratios: ["1/2", 1, 2]}
info: {variant: minus, variable: "ind(S[1,2] / S[1,1] == 1)"}
claims:
  - "ind(S[1,1] == 2) * ind(S[1,2] == 2) + ind(S[1,1] == 0.5) * ind(S[1,2] == 0.25)"
"""

DYNAMIC_MODEL = """
grid: {steps: 3}
lattice: {ratios: ["1/2", 1, 2]}
info: {variant: dynamic, variable: "ind(S[1,3] == 1)", arrival: 1}
claim: pos(S[1,3] - 1)
"""

FOUR_STEP_MODEL = """
grid: {steps: 4}
lattice: {ratios: ["1/2", 1, 2]}
claim: pos(S[1,T] - 1)
"""

# capital fixed before a max-abs-deviation label that the strategy sees from time 0
FOUR_STEP_LABEL_MODEL = FOUR_STEP_MODEL + """
info:
  variant: minus
  variable: {catalog: max-abs-deviation, asset: 1}
"""

FOUR_STEP_BOOK_MODEL = FOUR_STEP_MODEL + """
static_options:
  - {payoff: "ind(S[1,1] == 1)", price: "1/5"}
"""


@pytest.fixture
def model_file(tmp_path):
    def write(text, name="model.yaml"):
        file = tmp_path / name
        file.write_text(textwrap.dedent(text))
        return str(file)

    return write


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_clean_run_is_zero(self, model_file, capsys):
        code, out, err = run(["price", "--model", model_file(CALL_MODEL)], capsys)
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["findings"] == []

    def test_findings_give_two(self, model_file, capsys):
        code, out, err = run(["hedge", "--model", model_file(DRIFT_MODEL)], capsys)
        assert code == 2
        report = json.loads(out)
        assert any("unbounded" in f for f in report["findings"])

    def test_bad_model_gives_one(self, model_file, capsys):
        path = model_file(
            'grid: {steps: 1}\nlattice: {ratios: ["1/2", 1, 2]}\nsplit: wrong\nextra: 1\n'
        )
        code, out, err = run(["price", "--model", path], capsys)
        assert code == 1
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) >= 2
        assert all(line.startswith("error: ") for line in lines)

    def test_missing_claim_gives_one(self, model_file, capsys):
        path = model_file('grid: {steps: 1}\nlattice: {ratios: ["1/2", 1, 2]}\n')
        code, out, err = run(["price", "--model", path], capsys)
        assert code == 1
        assert "claim" in err

    def test_missing_file_gives_one(self, capsys):
        code, out, err = run(["price", "--model", "/no/such/file.yaml"], capsys)
        assert code == 1
        assert "cannot read" in err

    def test_usage_error_gives_one(self, model_file, capsys):
        path = model_file(CALL_MODEL)
        for argv in (
            ["price"],  # no --model
            ["price", "--model", path, "--strike", "1"],  # an unknown flag
            ["hedge", "--model", path, "--t1", "x"],  # --t1 is not an integer
        ):
            code, out, err = run(argv, capsys)
            assert code == 1, argv
            assert out == ""
            assert "usage: rip" in err

    @pytest.mark.parametrize("command", [None, *rip.cli._COMMANDS])
    def test_help_gives_zero(self, command, capsys):
        code, out, err = run([command, "--help"] if command else ["--help"], capsys)
        assert code == 0
        assert out.startswith(f"usage: rip {command or ''}".rstrip())
        assert err == ""


class TestReports:
    def test_price_report_shape(self, model_file, capsys):
        code, out, _ = run(["price", "--model", model_file(CALL_MODEL)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "price"
        assert report["claim"] == "pos(S[1,1] - 1)"
        (atom,) = report["atoms"]
        assert atom["value"] == "1/3"
        weights = dict(tuple(w) for w in atom["measure"]["weights"])
        assert weights == {0: "8/15", 1: "1/5", 2: "4/15"} or set(weights) <= {0, 1, 2}
        assert report["timings"]["lp_solves"] == 1
        assert report["timings"]["simplex_pivots"] >= 1

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_the_horizon_changes_no_price_report(self, model_file, capsys, mode):
        # grid.horizon is read and checked, and no value or report depends on it
        runs = []
        for horizon in ('"1/4"', "1"):
            source = FOUR_STEP_MODEL.replace("{steps: 4}", f"{{steps: 4, horizon: {horizon}}}")
            assert "horizon" in source
            argv = ["price", "--model", model_file(source), "--mode", mode]
            runs.append(run(argv, capsys))
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    def test_price_measure_weights_sum_to_one(self, model_file, capsys):
        from fractions import Fraction

        _, out, _ = run(["price", "--model", model_file(CALL_MODEL)], capsys)
        (atom,) = json.loads(out)["atoms"]
        total = sum(Fraction(w) for _, w in atom["measure"]["weights"])
        assert total == 1

    def test_hedge_report_shape(self, model_file, capsys):
        code, out, _ = run(["hedge", "--model", model_file(CALL_MODEL)], capsys)
        assert code == 0
        (atom,) = json.loads(out)["atoms"]
        assert atom["value"] == "1/3"
        strategy = atom["strategy"]
        assert strategy["static"] == ["1/3"]
        (holding,) = strategy["dynamic"]
        assert holding["t"] == 0
        assert holding["holding"] == ["2/3"]

    def test_duality_report_carries_chain_for_minus(self, model_file, capsys):
        code, out, _ = run(["duality", "--model", model_file(MINUS_MODEL)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["tight_everywhere"] is True
        assert report["aggregate"] == {"hedge": "1/3", "price": "1/3"}
        assert report["chain"]["all_equal"] is True
        assert report["chain"]["values"] == ["1/3"] * 5

    def test_duality_solves_no_program_twice(self, model_file, capsys, monkeypatch):
        # the minus hedge and price of the duality table are two of the chain's values
        programs = []
        solve = rip.lp.solve

        def counted(lp, ops):
            programs.append(lp)
            return solve(lp, ops)

        monkeypatch.setattr(rip.lp, "solve", counted)
        code, out, _ = run(["duality", "--model", model_file(FOUR_STEP_LABEL_MODEL)], capsys)
        assert code == 0
        assert json.loads(out)["chain"]["all_equal"] is True
        assert len(programs) == len(set(programs)) == 29

    def test_duality_report_skips_chain_without_info(self, model_file, capsys):
        _, out, _ = run(["duality", "--model", model_file(CALL_MODEL)], capsys)
        assert "chain" not in json.loads(out)

    def test_dpp_report(self, model_file, capsys):
        code, out, _ = run(["dpp", "--model", model_file(DPP_MODEL)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["split"] == 1
        assert report["hedge"]["direct"] == "2/9"
        assert report["hedge"]["agree"] is True
        assert report["price"]["composed"] == "2/9"
        assert report["price"]["agree"] is True
        assert len(report["hedge"]["interval_values"]) == 3

    def test_dpp_without_split_fails(self, model_file, capsys):
        path = model_file(CALL_MODEL.replace('claim', 'claim'))
        code, _, err = run(["dpp", "--model", path], capsys)
        assert code == 1
        assert "split" in err

    def test_chain_report(self, model_file, capsys):
        code, out, _ = run(["chain", "--model", model_file(MINUS_MODEL)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["all_equal"] is True
        assert list(report["quantities"]) == [  # in route order
            "hedge_uninformed_capital",
            "hedge_atom_worst",
            "price_atom_best",
            "price_forced_best",
            "price_uninformed_capital",
        ]
        assert set(report["quantities"].values()) == {"1/3"}
        assert len(report["per_atom"]) == 2

    def test_info_value_report(self, model_file, capsys):
        code, out, _ = run(["info-value", "--model", model_file(PREMIUM_MODEL)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["arrival"] == 0
        assert report["value"] == "1/3"
        (entry,) = report["claims"]
        assert entry["uninformed"] == "7/9"
        assert entry["informed"] == "4/9"
        assert entry["premium"] == "1/3"


class TestFlags:
    def test_atom_filter_picks_one(self, model_file, capsys):
        path = model_file(PLUS_MODEL)
        code, out, _ = run(["hedge", "--model", path, "--atom", "1"], capsys)
        assert code == 0
        (atom,) = json.loads(out)["atoms"]
        assert atom["atom"]["label"] == "1"
        assert atom["value"] == "0"

    def test_unknown_atom_lists_known_labels(self, model_file, capsys):
        path = model_file(PLUS_MODEL)
        code, _, err = run(["hedge", "--model", path, "--atom", "7"], capsys)
        assert code == 1
        assert "known labels: 0, 1" in err

    def test_mode_override(self, model_file, capsys):
        code, out, _ = run(
            ["price", "--model", model_file(CALL_MODEL), "--mode", "float"], capsys
        )
        assert code == 0
        (atom,) = json.loads(out)["atoms"]
        assert abs(float(atom["value"]) - 1 / 3) < 1e-9

    def test_t1_moves_the_split(self, model_file, capsys):
        path = model_file(DPP_MODEL)
        code, out, _ = run(["dpp", "--model", path, "--t1", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["split"] == 2
        assert report["hedge"]["agree"] is True

    def test_t1_needs_a_dynamic_variant(self, model_file, capsys):
        code, _, err = run(
            ["price", "--model", model_file(CALL_MODEL), "--t1", "1"], capsys
        )
        assert code == 1
        assert "dynamic" in err

    def test_out_writes_file_and_keeps_stdout_quiet(self, model_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            ["price", "--model", model_file(CALL_MODEL), "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text())
        assert report["command"] == "price"

    def test_out_failure_is_an_error(self, model_file, tmp_path, capsys):
        code, _, err = run(
            ["price", "--model", model_file(CALL_MODEL), "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "cannot write" in err


def _usage_flags(text: str) -> set:
    return set(re.findall(r"--[a-z0-9-]+", text)) - {"--help"}


class TestFlagTable:
    """Each subcommand takes exactly the flags it can use, as its usage line says."""

    @pytest.mark.parametrize("command", list(rip.cli._COMMANDS))
    def test_docstring_usage_lists_the_parser_flags(self, command, capsys):
        usage = {
            m.group(1): _usage_flags(m.group(2))
            for m in re.finditer(r"^ +rip ([a-z-]+) +(--model .*)$", rip.cli.__doc__, re.M)
        }
        assert set(usage) == set(rip.cli._COMMANDS)
        code, out, _ = run([command, "--help"], capsys)  # the parser's usage comes first
        assert code == 0
        assert usage[command] == _usage_flags(out.split("\n\n")[0])

    @pytest.mark.parametrize(
        "argv",
        [["dpp", "--atom", "1"], ["info-value", "--atom", "1"], ["chain", "--t1", "1"],
         ["price", "--bogus"]],
        ids=["dpp-atom", "info-value-atom", "chain-t1", "price-bogus"],
    )
    def test_a_flag_the_subcommand_cannot_use_is_a_usage_error(self, argv, model_file, capsys):
        path = model_file(DYNAMIC_MODEL)
        code, out, err = run([argv[0], "--model", path] + argv[1:], capsys)
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
        # shown against the subcommand's usage, which lists the flags it takes
        assert err.startswith(f"usage: rip {argv[0]} ")

    @pytest.mark.parametrize("command", ["price", "hedge", "duality"])
    def test_t1_moves_the_arrival_in_the_model_block(self, command, model_file, capsys):
        path = model_file(DYNAMIC_MODEL)
        code, out, _ = run([command, "--model", path, "--t1", "2"], capsys)
        assert code == 0
        assert json.loads(out)["model"]["information"]["arrival"] == 2

    @pytest.mark.parametrize("command", ["price", "hedge", "duality"])
    def test_t1_is_checked_before_the_claim(self, command, model_file, capsys):
        path = model_file('grid: {steps: 1}\nlattice: {ratios: ["1/2", 1, 2]}\n')
        code, _, err = run([command, "--model", path, "--t1", "1"], capsys)
        assert code == 1
        assert "dynamic" in err and "claim" not in err


class TestFloatFlags:
    """Float-mode agreement flags compare within the duality tolerance."""

    def test_dpp_agrees_in_float_mode(self, model_file, capsys):
        path = model_file(FOUR_STEP_MODEL)
        code, out, _ = run(["dpp", "--model", path, "--t1", "2", "--mode", "float"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["findings"] == []
        for side in ("hedge", "price"):
            assert report[side]["agree"] is True
            gap = float(report[side]["direct"]) - float(report[side]["composed"])
            assert abs(gap) <= 1e-7

    def test_duality_is_tight_in_float_mode(self, model_file, capsys):
        path = model_file(FOUR_STEP_BOOK_MODEL)
        code, out, _ = run(["duality", "--model", path, "--mode", "float"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["tight_everywhere"] is True
        for atom in report["atoms"]:
            assert abs(float(atom["gap"])) <= 1e-7


class TestDeterminism:
    @pytest.mark.parametrize("command", ["price", "hedge", "duality", "chain"])
    def test_repeated_runs_are_byte_identical(self, command, model_file, capsys):
        path = model_file(MINUS_MODEL)
        _, first, _ = run([command, "--model", path], capsys)
        _, second, _ = run([command, "--model", path], capsys)
        assert first == second
        assert first.endswith("\n")

    def test_report_round_trips_through_json(self, model_file, capsys):
        _, out, _ = run(["duality", "--model", model_file(MINUS_MODEL)], capsys)
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_console_script_entry_point(tmp_path):
    file = tmp_path / "model.yaml"
    file.write_text(textwrap.dedent(CALL_MODEL))
    proc = subprocess.run(
        [sys.executable, "-m", "rip.cli", "price", "--model", str(file)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "price"


def test_one_parser_serves_every_call_of_a_process(model_file, monkeypatch, capsys):
    """Calls in one process print and exit as each would alone in a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the same width in both
    price, dpp = model_file(CALL_MODEL, "call.yaml"), model_file(DPP_MODEL, "dpp.yaml")
    calls = [
        ["--help"],
        ["price"],  # no --model
        ["chain", "--model", dpp, "--t1", "1"],  # a flag chain does not take
        ["price", "--model", price],
        ["dpp", "--model", dpp, "--t1", "1"],
    ]
    rip.cli._build_cli.cache_clear()
    codes = []
    for argv in calls:
        alone = subprocess.run(
            [sys.executable, "-m", "rip.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run(argv, capsys) == (alone.returncode, alone.stdout, alone.stderr), argv
        codes.append(alone.returncode)
    assert codes == [0, 1, 1, 0, 0]
    assert rip.cli._build_cli.cache_info().misses == 1


def test_a_stray_character_in_the_claim_is_one_error_line(tmp_path):
    """A character outside the payoff language exits 1 with an error line, not a traceback."""
    file = tmp_path / "model.yaml"
    file.write_text(
        'grid: {steps: 1}\nlattice: {ratios: ["1/2", 1, 2]}\nclaim: "pos(S[1,T] - ²)"\n',
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-X", "utf8", "-m", "rip.cli", "price", "--model", str(file)],
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: claim: unexpected character '²' (line 1, column 14)"]
