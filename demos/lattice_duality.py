"""A first tour: price and hedge one claim on a trinomial lattice.

The two numbers come from different programs.  The price is the largest
expectation of the claim under any martingale measure on the lattice; the
hedge is the smallest initial capital from which trading covers the claim
on every path.  They coincide, and the script shows both certificates: an
optimal measure on one side, a concrete trading strategy on the other.
"""

from rip import (
    InfoStructure,
    Option,
    StaticOptionBook,
    build_lattice,
    format_number as fmt,
    model_price,
    parse_payoff,
    rat,
    superhedge,
)


def main() -> None:
    space = build_lattice(1, 1, ["1/2", 1, 2])
    claim = parse_payoff("pos(S[1,1] - 1)")
    no_info = InfoStructure.none()

    print("paths:", [fmt(space.rows(p)[1][0]) for p in space.all_paths()])

    hv = superhedge(space, None, no_info, claim).single()
    pv = model_price(space, None, no_info, claim).single()
    print(f"superhedging capital: {fmt(hv.value)}")
    print(f"best model price:     {fmt(pv.value)}")
    assert hv.value == pv.value

    (holding,) = hv.strategy.dynamic.values()
    print(f"hedge: hold {fmt(holding[0])} shares against {fmt(hv.strategy.static[0])} cash")
    print("measure:", {p: fmt(w) for p, w in enumerate(pv.measure.weights) if w != 0})

    # quoting a second instrument narrows the measure set and moves the price
    digital = Option(parse_payoff("ind(S[1,1] == 1)"), rat(1, 5), "flat-digital")
    book = StaticOptionBook.of(digital)
    priced = model_price(space, None, no_info, claim, book).single()
    hedged = superhedge(space, None, no_info, claim, book).single()
    print(f"with the flat digital quoted at 1/5 the call drops to {fmt(priced.value)}")
    assert priced.value == hedged.value


if __name__ == "__main__":
    main()
