"""Path spaces: lattices, explicit paths, adjoined options, and the metric."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rip import (
    Call,
    CapacityError,
    DynamicOption,
    FLOAT,
    InfoStructure,
    Num,
    PreconditionError,
    StaticOptionBook,
    build_hedge_problem,
    build_info_space,
    build_lattice,
    build_measure_lp,
    fatten,
    gains,
    min_separation,
    parse_payoff,
    rat,
    space_from_paths,
    sup_dist,
)
from rip.paths import _nth_root_exact


def test_lattice_sizes():
    assert len(build_lattice(1, 1, ["1/2", 1, 2]).paths) == 3
    assert len(build_lattice(1, 2, ["1/2", 1, 2]).paths) == 9
    assert len(build_lattice(1, 3, [2, "1/2"]).paths) == 8
    assert len(build_lattice(2, 1, ["1/2", 2]).paths) == 4


def test_lattice_paths_start_at_one_and_multiply(tri2):
    for path in tri2.paths:
        assert path.coord(1, 0) == 1
        for t in range(2):
            ratio = path.coord(1, t + 1) / path.coord(1, t)
            assert ratio in (rat(1, 2), rat(1), rat(2))


def test_per_step_ratio_sets():
    space = build_lattice(1, 2, [[2, 1], [3]])
    terminals = sorted(p.coord(1, 2) for p in space.paths)
    assert terminals == [3, 6]


def test_per_asset_ratio_sets():
    space = build_lattice(2, 1, [[[2, 1], [3, 1]]])
    points = {(p.coord(1, 1), p.coord(2, 1)) for p in space.paths}
    assert points == {(1, 1), (1, 3), (2, 1), (2, 3)}


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
    assert len(space.paths) == 2
    with pytest.raises(PreconditionError):
        space_from_paths([[(2,), (2,)]], n_assets=1)
    with pytest.raises(PreconditionError):
        space_from_paths(good + [[(1,), (2,)]], n_assets=1)
    with pytest.raises(PreconditionError):
        space_from_paths([[(1,), (-1,)]], n_assets=1)


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
        down, flat, up = tri1.paths
        assert sup_dist(flat, up) == 1
        assert sup_dist(flat, down) == rat(1, 2)
        assert sup_dist(down, up) == rat(3, 2)

    def test_metric_properties(self, tri2):
        paths = tri2.paths
        for a in paths:
            assert sup_dist(a, a) == 0
        for a in paths[:4]:
            for b in paths[:4]:
                assert sup_dist(a, b) == sup_dist(b, a)
        a, b, c = paths[0], paths[4], paths[8]
        assert sup_dist(a, c) <= sup_dist(a, b) + sup_dist(b, c)


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


def test_min_separation(tri1):
    # distances: flat-down 1/2, flat-up 1, down-up 3/2
    assert min_separation(tri1) == rat(1, 2)


class TestInfoSpace:
    def test_geometric_interior_frozen_values(self, tri2):
        option = DynamicOption(parse_payoff("ind(S[1,T] >= 2)"), rat(4, 9), "digital")
        space = build_info_space(tri2, [option])
        assert space.n_coords == 2
        assert sorted(set(p.coord(2, 2) for p in space.paths)) == [0, rat(9, 4)]
        assert sorted(set(p.coord(2, 1) for p in space.paths)) == [0, rat(3, 2)]
        for path in space.paths:
            assert path.coord(2, 0) == 1

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
        for path in space.paths:
            terminal = path.coord(2, 3)
            assert path.coord(2, 1) ** 3 == terminal
            assert path.coord(2, 2) ** 3 == terminal**2

    def test_geometric_interior_refuses_a_root_past_float_range(self, tri3):
        option = DynamicOption(parse_payoff("S[1,T]"), Fraction(1, 10**400), "huge")
        with pytest.raises(PreconditionError, match="is not rational"):
            build_info_space(tri3, [option])

    def test_float_mode_takes_real_roots(self):
        base = build_lattice(1, 2, [0.5, 1.0, 2.0], mode=FLOAT)
        option = DynamicOption(parse_payoff("ind(S[1,T] >= 2)"), 0.5, "digital")
        space = build_info_space(base, [option])
        values = sorted(set(p.coord(2, 1) for p in space.paths))
        assert values[0] == 0.0
        assert values[1] == pytest.approx(2.0 ** 0.5)

    def test_reference_interior_is_conditional_expectation(self, tri1):
        # uniform-ish weights pricing the flat digital at 1/3
        option = DynamicOption(parse_payoff("ind(S[1,T] == 1)"), rat(1, 3), "flat")
        weights = [rat(1, 3), rat(1, 3), rat(1, 3)]
        space = build_info_space(tri1, [option], interior="reference", reference=weights)
        assert all(p.coord(2, 0) == 1 for p in space.paths)
        assert sorted(p.coord(2, 1) for p in space.paths) == [0, 0, 3]

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
    assert len(space.paths) == len(ratios) ** steps
    assert len({p.values for p in space.paths}) == len(space.paths)
    for path in space.paths:
        for t in range(steps):
            assert path.coord(1, t + 1) / path.coord(1, t) in ratios
