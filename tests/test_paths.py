"""Path spaces: lattices, explicit paths, adjoined options, and the metric."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rip import (
    Call,
    CapacityError,
    DynamicOption,
    FLOAT,
    InfoStructure,
    Num,
    PathSpace,
    PreconditionError,
    RATIONAL,
    StaticOptionBook,
    build_hedge_problem,
    build_info_space,
    build_lattice,
    build_measure_lp,
    fatten,
    gains,
    get_ops,
    parse_payoff,
    rat,
    space_from_paths,
    sup_dist,
)
from rip.paths import _nth_root_exact


def test_lattice_sizes():
    assert build_lattice(1, 1, ["1/2", 1, 2]).n_paths == 3
    assert build_lattice(1, 2, ["1/2", 1, 2]).n_paths == 9
    assert build_lattice(1, 3, [2, "1/2"]).n_paths == 8
    assert build_lattice(2, 1, ["1/2", 2]).n_paths == 4


def test_lattice_paths_start_at_one_and_multiply(tri2):
    for p in tri2.all_paths():
        rows = tri2.rows(p)
        assert rows[0] == (1,)
        for t in range(2):
            ratio = rows[t + 1][0] / rows[t][0]
            assert ratio in (rat(1, 2), rat(1), rat(2))


def test_per_step_ratio_sets():
    space = build_lattice(1, 2, [[2, 1], [3]])
    terminals = sorted(space.rows(p)[2][0] for p in space.all_paths())
    assert terminals == [3, 6]


def test_per_asset_ratio_sets():
    space = build_lattice(2, 1, [[[2, 1], [3, 1]]])
    points = {space.rows(p)[1] for p in space.all_paths()}
    assert points == {(1, 1), (1, 3), (2, 1), (2, 3)}


# name -> (n_assets, ratios as build_lattice takes them, one ratio set per step and asset)
LATTICES = {
    # over 2**2 the rows would have a common factor 2: den is the lcm, 2
    "per step": (1, [["1/2", 2], [2, 4]], [[["1/2", 2]], [[2, 4]]]),
    "one set": (1, ["1/3", 1, "5/2"], [[["1/3", 1, "5/2"]]] * 3),
    "two assets": (2, [[["1/2", 1, 2], ["2/3", "3/2"]]] * 2, [[["1/2", 1, 2], ["2/3", "3/2"]]] * 2),
}


def product_rows(n_assets, sets, mode):
    """Every path's rows as running products of its moves' numbers, the first asset's
    move varying slowest, as ``build_lattice`` orders them."""
    convert = get_ops(mode).convert
    paths = [((convert(1),) * n_assets,)]
    for per_asset in sets:
        moves = list(product(*([convert(r) for r in rset] for rset in per_asset)))
        paths = [
            path + (tuple(x * r for x, r in zip(path[-1], move)),)
            for path in paths
            for move in moves
        ]
    return paths


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("name", sorted(LATTICES))
def test_lattice_rows_are_the_products_of_their_moves(name, mode):
    n_assets, ratios, sets = LATTICES[name]
    space = build_lattice(n_assets, len(sets), ratios, mode)
    want = product_rows(n_assets, sets, mode)
    assert [space.rows(p) for p in space.all_paths()] == want
    kind = float if mode == FLOAT else Fraction
    assert all(type(x) is kind for p in space.all_paths() for row in space.rows(p) for x in row)
    numerators = [x for rows in space.nums for row in rows for x in row]
    if mode == FLOAT:
        assert space.den == 1 and type(space.den) is int
        assert all(type(x) is float for x in numerators)
    else:
        assert type(space.den) is int and gcd(space.den, *numerators) == 1
        assert all(type(x) is int for x in numerators)
    if name == "per step":
        assert space.den == (1 if mode == FLOAT else 2)


def test_paths_with_one_prefix_share_its_rows(tri2):
    # paths 0..2 move down first, paths 3..5 stay flat
    assert all(tri2.nums[p][1] is tri2.nums[0][1] for p in range(3))
    assert tri2.nums[3][1] is not tri2.nums[0][1]


@pytest.mark.parametrize("bad", [[], [0, 2], [-1, 2], [2, 2]])
def test_bad_ratio_sets_are_rejected(bad):
    with pytest.raises(PreconditionError):
        build_lattice(1, 1, bad)


def test_cap_refuses_oversized_lattices():
    with pytest.raises(CapacityError):
        build_lattice(1, 30, [1, 2, 3])


def test_space_from_paths_validates():
    good = [[(1,), (2,)], [(1,), (1,)]]
    space = space_from_paths(good, n_assets=1)
    assert space.n_paths == 2
    with pytest.raises(PreconditionError):
        space_from_paths([[(2,), (2,)]], n_assets=1)
    with pytest.raises(PreconditionError):
        space_from_paths(good + [[(1,), (2,)]], n_assets=1)
    with pytest.raises(PreconditionError):
        space_from_paths([[(1,), (-1,)]], n_assets=1)
    with pytest.raises(PreconditionError, match="positive denominator"):
        PathSpace(1, 1, 0, (((0,), (0,)),), 0)


def test_claim_values_are_cached_per_expression(tri1, call_at_1):
    first = tri1.claim_values(call_at_1)
    assert tri1.claim_values(call_at_1) is first
    assert list(first) == [0, 0, 1]


def test_an_unhashable_claim_is_evaluated_but_not_stored():
    space = build_lattice(1, 1, ["1/2", 1, 2])
    claim = Call("max", [parse_payoff("S[1,T]"), Num(1)])  # list args: no hash
    with pytest.raises(TypeError):
        hash(claim)
    stored = dict(space._cache)
    assert space.claim_values(claim) == (1, 1, 2)
    assert space.claim_values(claim) == (1, 1, 2)
    assert space._cache == stored


class TestSupDist:
    def test_examples(self, tri1):
        down, flat, up = tri1.all_paths()
        assert sup_dist(tri1, flat, up) == 1
        assert sup_dist(tri1, flat, down) == rat(1, 2)
        assert sup_dist(tri1, down, up) == rat(3, 2)

    def test_metric_properties(self, tri2):
        for a in tri2.all_paths():
            assert sup_dist(tri2, a, a) == 0
        for a in range(4):
            for b in range(4):
                assert sup_dist(tri2, a, b) == sup_dist(tri2, b, a)
        assert sup_dist(tri2, 0, 8) <= sup_dist(tri2, 0, 4) + sup_dist(tri2, 4, 8)

    def test_a_distance_is_a_number_of_the_mode(self, tri1):
        assert type(sup_dist(tri1, 1, 2)) is Fraction
        space = build_lattice(1, 1, [0.5, 1.0, 2.0], mode=FLOAT)
        assert sup_dist(space, 0, 2) == 1.5 and type(sup_dist(space, 0, 2)) is float


class TestFatten:
    def test_frozen_example(self, tri1):
        # around the flat path, radius 1/2 catches the down path too
        got = fatten(tri1, [1], rat(1, 2))
        assert got == (0, 1)

    def test_zero_radius_is_identity(self, tri1):
        assert fatten(tri1, [1], 0) == (1,)

    def test_monotone_in_radius(self, tri2):
        small = set(fatten(tri2, [4], rat(1, 4)))
        large = set(fatten(tri2, [4], rat(3, 4)))
        assert small <= large

    def test_rejects_bad_input(self, tri1):
        with pytest.raises(PreconditionError):
            fatten(tri1, [], rat(1))
        with pytest.raises(PreconditionError):
            fatten(tri1, [7], rat(1))
        with pytest.raises(PreconditionError):
            fatten(tri1, [1], rat(-1))


class TestPathSetsAndIntervals:
    """Both builders, ``gains`` and ``fatten`` read their paths through the space."""

    @staticmethod
    def builders(space, claim):
        info, book = InfoStructure.none(), StaticOptionBook.cash_only()
        values = space.claim_values(claim)
        return (
            lambda paths, interval=None: build_hedge_problem(
                space, paths, info, values, book, interval
            ),
            lambda paths, interval=None: build_measure_lp(
                space, paths, info, book, interval, values
            ),
        )

    def test_path_sets_are_sorted_and_deduplicated(self, tri1):
        assert tri1.path_set([2, 0, 2]) == (0, 2)
        assert tri1.interval(None) == (0, 1)

    @pytest.mark.parametrize("paths", [[], [0, 3], [-1, 1]])
    def test_bad_path_sets_get_one_message_everywhere(self, tri1, call_at_1, paths):
        messages = set()
        for build in self.builders(tri1, call_at_1):
            with pytest.raises(PreconditionError) as caught:
                build(paths)
            messages.add(str(caught.value))
        with pytest.raises(PreconditionError) as caught:
            fatten(tri1, paths, 0)
        messages.add(str(caught.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("index", [-1, 3])
    def test_gains_rejects_a_path_out_of_range(self, tri1, index):
        with pytest.raises(PreconditionError, match="out of range"):
            gains(tri1, None, index, 0, 1)

    @pytest.mark.parametrize("interval", [(1, 0), (-1, 1), (0, 2)])
    def test_bad_intervals_get_one_message_everywhere(self, tri1, call_at_1, interval):
        messages = set()
        for build in self.builders(tri1, call_at_1):
            with pytest.raises(PreconditionError) as caught:
                build([0, 1, 2], interval)
            messages.add(str(caught.value))
        with pytest.raises(PreconditionError) as caught:
            gains(tri1, None, 0, *interval)
        messages.add(str(caught.value))
        assert len(messages) == 1


class TestExactRoots:
    def test_a_root_past_float_precision(self):
        c = 3**40 + 7
        assert _nth_root_exact(c**3, 3) == c
        assert _nth_root_exact(c**3 + 1, 3) is None

    def test_a_root_past_float_range(self):
        assert _nth_root_exact(10**400, 2) == 10**200
        assert _nth_root_exact(10**400, 3) is None

    @given(root=st.integers(min_value=0, max_value=10**60), k=st.integers(min_value=1, max_value=7))
    def test_powers_have_their_root_and_their_neighbours_none(self, root, k):
        assert _nth_root_exact(root**k, k) == root
        if k >= 2 and root >= 2:
            assert _nth_root_exact(root**k - 1, k) is None
            assert _nth_root_exact(root**k + 1, k) is None


class TestInfoSpace:
    def test_geometric_interior_frozen_values(self, tri2):
        option = DynamicOption(parse_payoff("ind(S[1,T] >= 2)"), rat(4, 9), "digital")
        space = build_info_space(tri2, [option])
        assert space.n_coords == 2
        rows = [space.rows(p) for p in space.all_paths()]
        assert sorted(set(r[2][1] for r in rows)) == [0, rat(9, 4)]
        assert sorted(set(r[1][1] for r in rows)) == [0, rat(3, 2)]
        for r in rows:
            assert r[0][1] == 1

    def test_geometric_interior_refuses_irrational_roots(self, tri2):
        option = DynamicOption(parse_payoff("ind(S[1,T] >= 2)"), rat(1, 2), "digital")
        with pytest.raises(PreconditionError, match="reference measure|float mode"):
            build_info_space(tri2, [option])

    def test_geometric_interior_takes_roots_past_float_precision(self):
        # (3**40 + 7)**3 has 190 bits; a float cube root misses the integer
        c = 3**40 + 7
        base = build_lattice(1, 3, ["1/8", 1, 8])
        option = DynamicOption(parse_payoff("S[1,T]"), Fraction(1, c**3), "cubed")
        space = build_info_space(base, [option])
        for p in space.all_paths():
            rows = space.rows(p)
            terminal = rows[3][1]
            assert rows[1][1] ** 3 == terminal
            assert rows[2][1] ** 3 == terminal**2

    def test_geometric_interior_refuses_a_root_past_float_range(self, tri3):
        option = DynamicOption(parse_payoff("S[1,T]"), Fraction(1, 10**400), "huge")
        with pytest.raises(PreconditionError, match="is not rational"):
            build_info_space(tri3, [option])

    def test_float_mode_takes_real_roots(self):
        base = build_lattice(1, 2, [0.5, 1.0, 2.0], mode=FLOAT)
        option = DynamicOption(parse_payoff("ind(S[1,T] >= 2)"), 0.5, "digital")
        space = build_info_space(base, [option])
        values = sorted(set(space.rows(p)[1][1] for p in space.all_paths()))
        assert values[0] == 0.0
        assert values[1] == pytest.approx(2.0 ** 0.5)

    def test_reference_interior_is_conditional_expectation(self, tri1):
        # uniform-ish weights pricing the flat digital at 1/3
        option = DynamicOption(parse_payoff("ind(S[1,T] == 1)"), rat(1, 3), "flat")
        weights = [rat(1, 3), rat(1, 3), rat(1, 3)]
        space = build_info_space(tri1, [option], interior="reference", reference=weights)
        rows = [space.rows(p) for p in space.all_paths()]
        assert all(r[0][1] == 1 for r in rows)
        assert sorted(r[1][1] for r in rows) == [0, 0, 3]

    def test_reference_interior_requires_exact_pricing(self, tri1):
        option = DynamicOption(parse_payoff("ind(S[1,T] == 1)"), rat(1, 2), "flat")
        weights = [rat(1, 3), rat(1, 3), rat(1, 3)]
        with pytest.raises(PreconditionError, match="prices it at"):
            build_info_space(tri1, [option], interior="reference", reference=weights)

    def test_reference_interior_requires_positive_prefix_mass(self, tri2):
        option = DynamicOption(parse_payoff("ind(S[1,T] >= 1)"), rat(1), "sure")
        weights = [rat(0)] * 9
        weights[4] = rat(1)
        with pytest.raises(PreconditionError, match="zero mass"):
            build_info_space(tri2, [option], interior="reference", reference=weights)

    def test_negative_payoffs_cannot_be_coordinates(self, tri1):
        option = DynamicOption(parse_payoff("S[1,T] - 1"), rat(1), "fwd")
        with pytest.raises(PreconditionError, match="negative"):
            build_info_space(tri1, [option])

    def test_double_adjoining_is_refused(self, tri1):
        option = DynamicOption(parse_payoff("ind(S[1,T] == 1)"), rat(1, 3), "flat")
        space = build_info_space(
            tri1, [option], interior="reference", reference=[rat(1, 3)] * 3
        )
        with pytest.raises(PreconditionError):
            build_info_space(space, [option])


@given(
    steps=st.integers(min_value=1, max_value=3),
    ratios=st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=4).filter(lambda r: r > 0),
        min_size=1,
        max_size=3,
        unique=True,
    ),
)
@settings(max_examples=60, deadline=None)
def test_lattice_enumeration_is_complete_and_distinct(steps, ratios):
    space = build_lattice(1, steps, ratios)
    assert space.n_paths == len(ratios) ** steps
    assert len(set(space.nums)) == space.n_paths
    assert gcd(space.den, *(x for rows in space.nums for row in rows for x in row)) == 1
    for p in space.all_paths():
        rows = space.rows(p)
        for t in range(steps):
            assert rows[t + 1][0] / rows[t][0] in ratios
