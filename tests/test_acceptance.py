"""Acceptance gate: ten criteria, one pass/fail line each.

Each test computes everything it needs, then records a single summary line
through the ``criterion`` fixture; the lines are printed together at the end
of the run.  Randomised corpora are seeded, so the gate is deterministic.

Run it alone with ``pytest tests/test_acceptance.py -v``.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import oracle
from rip import (
    InfoStructure,
    LinearProgram,
    MartingaleMeasure,
    Optimal,
    StaticOptionBook,
    build_lattice,
    build_measure_lp,
    chain_quantities,
    check_scaling_form,
    concatenate_measure,
    condition_measure,
    dpp_price,
    dpp_superhedge,
    duality_report,
    gains,
    info_from_payoff,
    info_value_claim,
    is_neg_inf,
    lift_to_tail,
    market_partition,
    max_abs_deviation,
    model_price,
    parse_payoff,
    range_indicator,
    rat,
    solve,
    solve_checked,
    superhedge,
    tail_max_ratio,
    tail_range_indicator,
    transport_claim,
    verify_certificate,
)

RATIO_POOL = ["1/4", "1/3", "1/2", "2/3", "1", "3/2", "2", "3"]


def frac(text):
    return Fraction(text)


def lit(value):
    """Render an exact number as payoff-expression text."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"({f.numerator}/{f.denominator})"


def pick_ratios(rng, straddle, require_flat=False):
    while True:
        size = rng.choice([2, 2, 3, 3, 4])
        ratios = sorted(rng.sample(RATIO_POOL, size), key=frac)
        if require_flat:
            # a flat move plus strict moves both ways keeps every label
            # region of a revealed step solvable
            if "1" in ratios and frac(ratios[0]) < 1 < frac(ratios[-1]):
                return ratios
            continue
        if not straddle:
            return ratios
        if frac(ratios[0]) <= 1 <= frac(ratios[-1]):
            return ratios


def random_spec(rng, variants, straddle=False, require_flat=False, max_steps=4):
    """Draw the plain data needed to rebuild one instance in either mode."""
    n_steps = rng.choice([1, 1, 2, 2, 2, 3, 3, max_steps])
    ratios = pick_ratios(rng, straddle, require_flat)
    variant = rng.choice([v for v in variants if v != "dynamic" or n_steps >= 2])

    # terminal values the claim's strike can sit on or between
    terminals = sorted({Fraction(1)} | {
        frac(a) * frac(b) * frac(c)
        for a in ratios for b in ratios + ["1"] for c in ratios + ["1"]
    })
    strike = rng.choice(terminals + [
        (x + y) / 2 for x, y in zip(terminals, terminals[1:])
    ])
    kind = rng.choice(["call", "put", "digital", "corridor"])
    if kind == "call":
        claim = f"pos(S[1,T] - {lit(strike)})"
    elif kind == "put":
        claim = f"pos({lit(strike)} - S[1,T])"
    elif kind == "digital":
        claim = f"ind(S[1,T] >= {lit(strike)})"
    else:
        upper = strike * rng.choice([2, 3])
        claim = f"ind(S[1,T] > {lit(strike)}) * ind(S[1,T] < {lit(upper)})"

    spec = {"n_steps": n_steps, "ratios": ratios, "claim": claim, "variant": variant}
    if variant == "dynamic":
        spec["arrival"] = rng.randrange(1, n_steps)
        spec["var"] = rng.choice(["tail-max", "tail-range"])
    elif variant in ("plus", "minus"):
        spec["var"] = rng.choice(["maxdev", "range", "digital-label"])
        spec["var_strike"] = str(rng.choice(terminals))
    return spec


def build_instance(spec, mode):
    if mode == "rational":
        ratios = spec["ratios"]
    else:
        ratios = [float(frac(r)) for r in spec["ratios"]]
    space = build_lattice(1, spec["n_steps"], ratios, mode=mode)
    claim = parse_payoff(spec["claim"])

    def bound(text):
        return rat(text) if mode == "rational" else float(frac(text))

    variant = spec["variant"]
    if variant == "none":
        info = InfoStructure.none()
    elif variant == "dynamic":
        if spec["var"] == "tail-max":
            variable = tail_max_ratio(spec["arrival"])
        else:
            variable = tail_range_indicator(bound("3/4"), bound("3/2"), spec["arrival"])
        info = InfoStructure.dynamic(variable, spec["arrival"])
    else:
        if spec["var"] == "maxdev":
            variable = max_abs_deviation()
        elif spec["var"] == "range":
            variable = range_indicator(bound("3/4"), bound("3/2"))
        else:
            variable = info_from_payoff(
                parse_payoff(f"ind(S[1,1] >= {lit(frac(spec['var_strike']))})"),
                "digital-label",
            )
        info = InfoStructure.plus(variable) if variant == "plus" else InfoStructure.minus(variable)
    return space, info, claim


def ray_covers_atom(space, hv, paths):
    """Check the unbounded direction really is an arbitrage on the atom."""
    ray = hv.ray
    if ray is None or ray.cost != -1:
        return False
    for p in paths:
        if ray.static[0] + gains(space, ray.dynamic, p, 0, space.n_steps) < 0:
            return False
    return True


@pytest.fixture(scope="module")
def duality_corpus():
    """200 seeded instances solved along both routes, shared by two criteria."""
    rng = random.Random(12)
    started = time.monotonic()
    results = []
    for _ in range(200):
        spec = random_spec(
            rng, ["none", "plus", "minus", "dynamic"], straddle=rng.random() < 0.6
        )
        space, info, claim = build_instance(spec, "rational")
        hedges = superhedge(space, None, info, claim)
        prices = model_price(space, None, info, claim)
        atoms = []
        for atom, hv in hedges:
            pv = prices.for_path(atom.paths[0])
            atoms.append((space, atom.paths, hv, pv))
        results.append((spec, atoms))
    elapsed = time.monotonic() - started
    return results, elapsed


def float_twins(results, count):
    """Rebuild the first ``count`` corpus instances in float arithmetic."""
    twins = []
    for spec, _ in results[:count]:
        space, info, claim = build_instance(spec, "float")
        hedges = superhedge(space, None, info, claim)
        prices = model_price(space, None, info, claim)
        for atom, hv in hedges:
            twins.append((hv, prices.for_path(atom.paths[0])))
    return twins


def test_criterion_1_weak_duality(duality_corpus, criterion):
    results, elapsed = duality_corpus
    checked = 0
    worst_gap = None
    for _, atoms in results:
        for _, _, hv, pv in atoms:
            if hv.finite and pv.finite:
                assert pv.value <= hv.value
                checked += 1
    for hv, pv in float_twins(results, 30):
        if hv.finite and pv.finite:
            gap = hv.value - pv.value
            worst_gap = gap if worst_gap is None else min(worst_gap, gap)
            assert gap >= -1e-7
    criterion(
        1,
        "weak duality per atom",
        checked > 150 and elapsed < 60,
        f"{checked} exact atoms, float gap >= -1e-7, corpus in {elapsed:.1f}s",
    )


def test_criterion_2_strong_duality(duality_corpus, criterion):
    results, _ = duality_corpus
    tight = 0
    empty = 0
    for _, atoms in results:
        for space, paths, hv, pv in atoms:
            assert hv.finite == pv.finite
            if hv.finite:
                assert hv.value == pv.value
                tight += 1
            else:
                assert is_neg_inf(hv.value) and is_neg_inf(pv.value)
                assert pv.certificate is not None
                assert ray_covers_atom(space, hv, paths)
                empty += 1
    for hv, pv in float_twins(results, 30):
        if hv.finite and pv.finite:
            assert abs(hv.value - pv.value) <= 1e-7
    criterion(
        2,
        "strong duality and verified rays",
        tight > 0 and empty > 0,
        f"{tight} atoms tight, {empty} empty atoms with arbitrage rays",
    )


def test_criterion_3_five_route_agreement(criterion):
    rng = random.Random(3)
    agreed = 0
    degenerate = 0
    for _ in range(50):
        spec = random_spec(rng, ["minus"], max_steps=3)
        space, info, claim = build_instance(spec, "rational")
        result = chain_quantities(space, info.variable, claim)
        assert result.all_equal
        if is_neg_inf(result.hedge_uninformed_capital):
            degenerate += 1
        else:
            agreed += 1
    criterion(
        3,
        "five equal quantities",
        agreed > 0,
        f"{agreed} finite chains agree, {degenerate} are -inf throughout",
    )


def test_criterion_4_two_stage_decomposition(tri2, tri3, criterion):
    checked = 0

    def check(space, claim, split, info):
        nonlocal checked
        hedge = dpp_superhedge(space, claim, split, info)
        price = dpp_price(space, claim, split, info)
        assert hedge.agree and price.agree
        checked += 1

    call = parse_payoff("pos(S[1,T] - 1)")
    for space in (tri2, tri3):
        for split in range(space.n_steps + 1):
            check(space, call, split, InfoStructure.none())
        for arrival in range(1, space.n_steps):
            info = InfoStructure.dynamic(tail_max_ratio(arrival), arrival)
            check(space, call, arrival, info)

    rng = random.Random(4)
    for _ in range(50):
        spec = random_spec(
            rng, ["none", "dynamic"], straddle=True, require_flat=True, max_steps=3
        )
        space, info, claim = build_instance(spec, "rational")
        if info.variant == "dynamic":
            split = info.arrival
        else:
            split = rng.randrange(0, space.n_steps + 1)
        check(space, claim, split, info)
    criterion(
        4,
        "direct equals composed at every split",
        checked >= 50,
        f"{checked} decompositions, hedge and price sides",
    )


def test_criterion_5_deviation_label_example(tri3, criterion):
    claim = parse_payoff("pos(S[1,T] - 1)")
    variable = max_abs_deviation()
    info = InfoStructure.plus(variable)
    hedges = superhedge(tri3, None, info, claim)
    prices = model_price(tri3, None, info, claim)

    high, feasible = 0, 0
    for atom, hv in hedges:
        pv = prices.for_path(atom.paths[0])
        if atom.label > 1:
            # every path in the atom climbs to exactly 1 + label, so holding
            # one share until that level is hit banks the label for free
            for p in atom.paths:
                assert max(row[0] for row in tri3.rows(p)) == 1 + atom.label
            assert is_neg_inf(hv.value) and is_neg_inf(pv.value)
            assert pv.certificate is not None
            assert ray_covers_atom(tri3, hv, atom.paths)
            high += 1
        elif pv.finite:
            assert hv.value == pv.value
            feasible += 1
    criterion(
        5,
        "deviation label splits into arbitrage atoms",
        high >= 2 and feasible >= 1,
        f"{high} atoms above 1 are empty with verified rays, {feasible} feasible atoms tight",
    )


def test_criterion_6_corridor_label_example(tri2, criterion):
    claim = parse_payoff("pos(S[1,T] - 1)")
    static = duality_report(
        tri2, claim, InfoStructure.plus(range_indicator(rat(3, 4), rat(3, 2)))
    )
    assert len(static.entries) == 2
    for entry in static.entries:
        assert entry.feasible
        assert entry.gap == 0

    arrival = 1
    variable = tail_range_indicator(rat(3, 4), rat(3, 2), arrival)
    dynamic = duality_report(tri2, claim, InfoStructure.dynamic(variable, arrival))
    assert dynamic.tight_everywhere
    from rip import atoms_at

    joined = atoms_at(tri2, InfoStructure.dynamic(variable, arrival), arrival)
    assert len(joined) == oracle.run()["tri2_dyn1_atom_count"]
    criterion(
        6,
        "corridor label keeps both atoms priced",
        True,
        "static atoms both feasible and tight, arrival-1 variant tight",
    )


def test_criterion_7_hand_checked_values(tri1, flat_digital_book, hits_one, criterion):
    table = oracle.run()
    no_info = InfoStructure.none()

    call = parse_payoff("pos(S[1,T] - 1)")
    put = parse_payoff("pos(1 - S[1,T])")
    digital = parse_payoff("ind(S[1,T] == 2)")

    checks = []

    def agree(label, got, expected):
        checks.append((label, got == expected))
        assert got == expected, f"{label}: {got} != {expected}"

    agree("call hedge", superhedge(tri1, None, no_info, call).single().value, table["tri1_call"])
    agree("call price", model_price(tri1, None, no_info, call).single().value, table["tri1_call"])
    agree("put", superhedge(tri1, None, no_info, put).single().value, table["tri1_put"])
    agree(
        "digital",
        model_price(tri1, None, no_info, digital).single().value,
        table["tri1_digital_at_2"],
    )

    priced = model_price(tri1, None, no_info, call, flat_digital_book).single()
    agree("calibrated call", priced.value, table["tri1_call_with_digital"])
    agree("calibrated measure", tuple(priced.measure.weights), table["tri1_calibrated_measure"])
    hedged = superhedge(tri1, None, no_info, call, flat_digital_book).single()
    agree("calibrated hedge", hedged.value, table["tri1_call_with_digital"])

    informed = superhedge(tri1, None, InfoStructure.plus(hits_one), call)
    by_label = {atom.label: hv.value for atom, hv in informed}
    agree("label-0 atom", by_label[0], table["tri1_plus_call_z0"])
    agree("label-1 atom", by_label[1], table["tri1_plus_call_z1"])
    agree("call premium", info_value_claim(tri1, hits_one, 0, call), 0)

    criterion(
        7,
        "hand-checked values match the enumeration oracle",
        all(ok for _, ok in checks),
        f"{len(checks)} values agree",
    )


def test_criterion_8_condition_and_recombine(tri2, criterion):
    rng = random.Random(8)
    base = build_measure_lp(tri2, tri2.all_paths(), InfoStructure.none())
    values = tri2.claim_values(parse_payoff("pos(S[1,T] - 1)"))
    partition = market_partition(tri2, 1)
    done = 0
    for _ in range(100):
        objective = [rat(rng.randint(-5, 5)) for _ in range(9)]
        lp = replace(base, objective=tuple(objective))
        out = solve_checked(lp, tri2.ops)
        assert isinstance(out, Optimal)
        measure = MartingaleMeasure(
            weights=out.x,
            info=InfoStructure.none(),
            book=StaticOptionBook.cash_only(),
            interval=(0, 2),
            support=tri2.all_paths(),
        )
        pieces = condition_measure(tri2, measure, partition)
        total = sum(m * cond.expectation(values, tri2.ops) for _, m, cond in pieces)
        assert total == measure.expectation(values, tri2.ops)
        kernels = {tuple(atom.paths): cond for atom, _, cond in pieces}
        rebuilt = concatenate_measure(tri2, measure, kernels, 1)
        assert rebuilt.weights == measure.weights
        done += 1
    criterion(8, "condition then recombine is lossless", done == 100, f"{done} measures exact")


def test_criterion_9_arrival_timing(criterion):
    rng = random.Random(9)
    base_claims = ["pos(S[1,1] - 1)", "ind(S[1,1] >= 2)", "S[1,1]"]
    base_labels = ["ind(S[1,1] == 1)", "ind(S[1,1] >= 1)"]
    compared = 0
    for _ in range(6):
        ratios = pick_ratios(rng, straddle=True, require_flat=True)
        space = build_lattice(1, 3, ratios)
        claim = parse_payoff(rng.choice(base_claims))
        variable = info_from_payoff(parse_payoff(rng.choice(base_labels)), "window")

        def value_at(arrival):
            moved = transport_claim(claim, arrival, space)
            lifted = lift_to_tail(variable, arrival)
            if arrival == 0:
                info = InfoStructure.minus(lifted)
            else:
                assert check_scaling_form(space, lifted, arrival)
                info = InfoStructure.dynamic(lifted, arrival)
            return superhedge(space, None, info, moved).single().value

        v0, v1, v2 = value_at(0), value_at(1), value_at(2)
        assert not any(is_neg_inf(v) for v in (v0, v1, v2))
        assert v1 == v2
        assert v0 <= v1
        compared += 1
    criterion(
        9,
        "information keeps its worth across arrival times",
        compared == 6,
        f"{compared} transported families: interior values equal, time-0 never dearer",
    )


def random_small_lp(rng):
    n = rng.randint(1, 4)
    m = rng.randint(0, 4)
    sense = rng.choice(["min", "max"])

    def coef():
        return rat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    rows = [
        ([coef() for _ in range(n)], rng.choice(["<=", ">=", "=="]), coef())
        for _ in range(m)
    ]
    # a boxed variable is free, with its two bounds as rows after the program's
    bounds = []
    for j in range(n):
        kind = rng.randint(0, 2)
        bounds.append("nonneg" if kind == 0 else "free")
        if kind == 2:
            lo = rat(rng.randint(-3, 2))
            unit = [int(k == j) for k in range(n)]
            rows += [(unit, ">=", lo), (unit, "<=", lo + rat(rng.randint(0, 3)))]
    return LinearProgram.build(sense, [coef() for _ in range(n)], rows, bounds)


def test_criterion_10_solver_self_audit(criterion):
    rng = random.Random(10)
    kinds = {"Optimal": 0, "Infeasible": 0, "Unbounded": 0}
    for _ in range(1000):
        lp = random_small_lp(rng)
        out = solve(lp)
        assert verify_certificate(lp, out)
        assert solve(lp) == out
        kinds[type(out).__name__] += 1
    criterion(
        10,
        "solver certificates verify and repeat",
        all(kinds.values()),
        f"1000 programs: {kinds['Optimal']} optimal, "
        f"{kinds['Infeasible']} infeasible, {kinds['Unbounded']} unbounded",
    )


def test_criterion_10_optima_are_the_left_to_right_sums():
    # solve reads an exact optimum off its reduced-cost row, as one quotient
    rng = random.Random(10)
    optima = 0
    for _ in range(1000):
        lp = random_small_lp(rng)
        out = solve(lp)
        if isinstance(out, Optimal):
            value = rat(0)
            for c, xj in zip(lp.objective, out.x):
                if c:
                    value = value + c * xj
            assert out.value == value
            optima += 1
    assert optima == 305
