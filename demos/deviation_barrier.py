"""Knowing the running maximum deviation can create arbitrage.

Tell a trader on a three-step lattice how far the price will stray from
its start, as a label available before capital is committed.  On atoms
where the promised deviation exceeds every level a martingale can
sustain, no measure survives the conditioning: the robust price is
``-inf`` and the hedging program returns a certified arbitrage, a
strategy with negative cost whose gains stay nonnegative on the atom.

Deviations above 1 force the price through 1 + c on the upside, and a
martingale pinned to that excursion cannot keep its mean at 1.  More
surprisingly, mid-range promises die too: a path with deviation exactly
1/2 makes a one-sided trip to 1/2 with nothing above 1 to balance it.
On this lattice the only label a martingale can honour is 0, the flat
path.
"""

from rip import (
    InfoStructure,
    build_lattice,
    format_number as fmt,
    gains,
    max_abs_deviation,
    model_price,
    parse_payoff,
    rat,
    superhedge,
)


def main() -> None:
    space = build_lattice(1, 3, ["1/2", 1, 2])
    claim = parse_payoff("pos(S[1,3] - 1)")
    info = InfoStructure.plus(max_abs_deviation(1))

    hedges = superhedge(space, None, info, claim)
    prices = model_price(space, None, info, claim)

    for (atom, hedge), (_, price) in zip(hedges, prices):
        if hedge.finite:
            verdict = f"value {fmt(hedge.value)} on both sides"
            assert hedge.value == price.value
        else:
            verdict = "empty: no martingale measure, certified arbitrage"
            assert not price.finite and price.certificate is not None
            ray = hedge.ray
            assert ray.cost == rat(-1)
            for p in atom.paths:
                profit = ray.static[0] + gains(space, ray.dynamic, p, 0, 3)
                assert profit >= 0
        print(f"deviation {fmt(atom.label)} ({len(atom.paths)} paths): {verdict}")

    # deviations above 1 are reached on the upside, so each of those atoms
    # pins the running maximum at 1 + c: the promise itself is the arbitrage
    for atom, _ in hedges:
        if atom.label > 1:
            tops = {max(row[0] for row in space.rows(p)) for p in atom.paths}
            assert tops == {1 + atom.label}

    # the flat path is the only deviation a martingale can honour here
    feasible = {atom.label for atom, hedge in hedges if hedge.finite}
    assert feasible == {rat(0)}


if __name__ == "__main__":
    main()
