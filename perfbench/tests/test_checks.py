"""The pathwise re-checks accept true witnesses and reject broken ones."""

from fractions import Fraction as F

import checks
import reference

# one step of {1/2, 1, 2}: paths down, flat, up; claim pos(S - 1) = (0, 0, 1)
PATHS = reference.lattice_paths(["1/2", "1", "2"], 1)
CLAIMS = [F(0), F(0), F(1)]
ALL = (0, 1, 2)


def test_strategy_must_cost_its_value_and_cover_the_claim():
    market = checks.Market(PATHS)
    # 1/3 in cash and 2/3 of a unit: ends with 0, 1/3 and 1
    dynamic = {(0, ALL): (F(2, 3),)}
    assert checks.check_strategy(market, ALL, CLAIMS, [F(1, 3)], dynamic, F(1, 3)) == []
    assert checks.check_strategy(market, ALL, CLAIMS, [F(1, 3)], dynamic, F(1, 4))
    short = {(0, ALL): (F(1, 2),)}
    assert checks.check_strategy(market, ALL, CLAIMS, [F(1, 3)], short, F(1, 3))
    peeking = {(0, (0, 1)): (F(2, 3),), (0, (2,)): (F(2, 3),)}
    assert checks.check_strategy(market, ALL, CLAIMS, [F(1, 3)], peeking, F(1, 3))


def test_measure_must_be_a_calibrated_martingale():
    digital = [F(0), F(1), F(0)]  # pays on the flat path
    market = checks.Market(PATHS, statics=[(digital, F(1, 5))])
    weights = {0: F(8, 15), 1: F(1, 5), 2: F(4, 15)}  # tri1_calibrated_measure
    assert checks.check_measure(market, ALL, weights, CLAIMS, F(4, 15)) == []
    assert checks.check_measure(market, ALL, weights, CLAIMS, F(1, 3))
    drifting = {0: F(1, 5), 1: F(1, 5), 2: F(3, 5)}
    assert any("drifts" in p for p in checks.check_measure(
        market, ALL, drifting, CLAIMS, F(3, 5)))
    uncalibrated = {0: F(2, 3), 2: F(1, 3)}
    assert any("static option" in p for p in checks.check_measure(
        market, ALL, uncalibrated, CLAIMS, F(1, 3)))


def test_ray_must_cost_minus_one_and_never_lose():
    # one step of {2, 3} only rises: borrowing 1 to buy a unit never loses
    paths = reference.lattice_paths(["2", "3"], 1)
    market = checks.Market(paths)
    group = (0, 1)
    assert checks.check_ray(market, group, [F(-1)], {(0, group): (F(1),)}, F(-1)) == []
    assert checks.check_ray(market, group, [F(-1)], {(0, group): (F(-1),)}, F(-1))
    assert checks.check_ray(market, group, [F(-2)], {(0, group): (F(1),)}, F(-1))


def test_float_witnesses_use_the_tolerance():
    market = checks.Market(PATHS)
    dynamic = {(0, ALL): (2 / 3,)}
    assert checks.check_strategy(market, ALL, CLAIMS, [1 / 3], dynamic, 1 / 3 + 1e-9, 1e-7) == []
    assert checks.check_strategy(market, ALL, CLAIMS, [1 / 3], dynamic, 1 / 3 + 1e-6, 1e-7)

