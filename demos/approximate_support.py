"""Pricing against almost-supported measures, and the zero-radius limit.

Pinning a measure to an exact support set can be brittle: the flat path
alone carries the only measure with support {flat}, and a claim priced
against it ignores every nearby market.  The relaxed class keeps mass
1 - eta near the support and reprices quoted options within a slim
margin, so the price moves continuously in the radius.

The script prices a call against the relaxed class around the flat path
for radii from 1/2 down to 1/100, then at radius 0, the rigid
support-constrained price.  Below 1/2, the distance from the flat path to
its nearest neighbour, the prices fall linearly in the radius to the
radius-0 price, which is their limit.
"""

from rip import (
    approx_price,
    build_lattice,
    format_number as fmt,
    parse_payoff,
    rat,
)


def main() -> None:
    space = build_lattice(1, 1, ["1/2", 1, 2])
    claim = parse_payoff("pos(S[1,1] - 1)")
    flat = tuple(p for p in space.all_paths() if space.rows(p)[1][0] == rat(1))

    etas = [rat(1, 2), rat(1, 10), rat(1, 20), rat(1, 100)]
    prices = {}
    for eta in etas:
        prices[eta] = approx_price(space, flat, eta, claim)
        print(f"radius {fmt(eta)}: price {fmt(prices[eta])}")

    rigid = approx_price(space, flat, 0, claim)
    print(f"radius 0, the limit as the radius vanishes: price {fmt(rigid)}")
    assert rigid == 0
    slope = prices[rat(1, 10)] / rat(1, 10)
    assert all(prices[eta] == rigid + slope * eta for eta in etas[1:])
    assert prices[rat(1, 2)] > prices[rat(1, 10)]


if __name__ == "__main__":
    main()
