"""Partitions, the filtration map, and label variables."""

import itertools

import pytest

from rip import (
    Atom,
    InfoStructure,
    InfoVariable,
    PreconditionError,
    atoms_at,
    build_lattice,
    check_scaling_form,
    info_from_payoff,
    joined_partition,
    lift_to_tail,
    market_partition,
    max_abs_deviation,
    parse_payoff,
    range_indicator,
    rat,
    space_from_paths,
    tail_max_ratio,
    tail_range_indicator,
    z_partition,
)
from rip.information import filtration


class TestStructureConstruction:
    def test_variants_validate_their_fields(self, hits_one):
        InfoStructure.none()
        InfoStructure.plus(hits_one)
        InfoStructure.minus(hits_one)
        InfoStructure.dynamic(hits_one, 1)
        with pytest.raises(PreconditionError):
            InfoStructure(variant="plus", variable=None)
        with pytest.raises(PreconditionError):
            InfoStructure(variant="none", variable=hits_one)
        with pytest.raises(PreconditionError):
            InfoStructure(variant="dynamic", variable=hits_one, arrival=0)
        with pytest.raises(PreconditionError):
            InfoStructure(variant="minus", variable=hits_one, arrival=1)


class TestMarketPartition:
    def test_trivial_at_start_and_discrete_at_end(self, tri2):
        assert len(market_partition(tri2, 0)) == 1
        assert len(market_partition(tri2, 1)) == 3
        assert len(market_partition(tri2, 2)) == 9

    def test_refines_over_time(self, tri3):
        for t in range(3):
            coarse = [set(atom.paths) for atom in market_partition(tri3, t)]
            for atom in market_partition(tri3, t + 1):
                assert any(set(atom.paths) <= parent for parent in coarse)


class TestZPartition:
    def test_maxdev_labels_on_the_two_step_lattice(self, tri2):
        table = z_partition(tri2, max_abs_deviation())
        labels = [a.label for a in table]
        assert labels == [0, rat(1, 2), rat(3, 4), 1, 3]
        sizes = {a.label: len(a.paths) for a in table}
        assert sizes == {0: 1, rat(1, 2): 3, rat(3, 4): 1, 1: 3, 3: 1}

    def test_partition_covers_the_space(self, tri2):
        table = z_partition(tri2, max_abs_deviation())
        seen = sorted(p for a in table for p in a.paths)
        assert seen == list(range(9))

    def test_range_indicator_is_strict(self, tri1):
        var = range_indicator(rat(1, 2), 2)
        labels = {p: var.label(tri1.paths[p], tri1.ops) for p in range(3)}
        # both endpoints fall outside the open corridor
        assert labels == {0: 0, 1: 1, 2: 0}


class TestJoinedAndDynamic:
    def test_joined_refines_market(self, tri2, hits_one):
        market = [set(atom.paths) for atom in market_partition(tri2, 1)]
        joined = joined_partition(tri2, hits_one, 1)
        assert len(joined) >= len(market)
        for atom in joined:
            assert any(set(atom.paths) <= parent for parent in market)

    def test_dynamic_atoms_frozen_count(self, tri2):
        flat_tail = info_from_payoff(parse_payoff("ind(S[1,2] / S[1,1] == 1)"), "flat-tail")
        info = InfoStructure.dynamic(flat_tail, 1)
        assert len(atoms_at(tri2, info, 0)) == 1  # before arrival: market only
        assert len(atoms_at(tri2, info, 1)) == 6
        assert len(atoms_at(tri2, info, 2)) == 9

    def test_initial_capital_atoms_by_variant(self, tri1, tri2, hits_one):
        assert len(atoms_at(tri1, InfoStructure.none(), -1)) == 1
        assert len(atoms_at(tri1, InfoStructure.minus(hits_one), -1)) == 1
        plus = atoms_at(tri1, InfoStructure.plus(hits_one), -1)
        assert [a.label for a in plus] == [0, 1]
        assert len(atoms_at(tri2, InfoStructure.dynamic(hits_one, 1), -1)) == 1

    def test_minus_joins_from_time_zero(self, tri2, hits_one):
        minus = InfoStructure.minus(hits_one)
        assert len(atoms_at(tri2, minus, 0)) == 2

    def test_dynamic_arrival_must_be_interior(self, tri1, hits_one):
        info = InfoStructure.dynamic(hits_one, 1)
        with pytest.raises(PreconditionError):
            atoms_at(tri1, info, 0)  # one-step grid has no interior index


class TestCatalogVariables:
    def test_tail_max_ratio_uses_the_renormalised_tail(self, tri2):
        var = tail_max_ratio(1)
        labels = {var.label(p, tri2.ops) for p in tri2.paths}
        assert labels == {1, 2}

    def test_tail_max_ratio_labels_zero_tails_one(self):
        space = space_from_paths([[(1,), (1,), (0,)], [(1,), (1,), (1,)]], n_assets=1)
        var = tail_max_ratio(1)
        zero_path = next(p for p in space.paths if p.coord(1, 2) == 0)
        assert var.label(zero_path, space.ops) == 1

    def test_tail_range_indicator(self, tri2):
        var = tail_range_indicator(rat(3, 4), rat(3, 2), 1)
        for path in tri2.paths:
            inside = path.coord(1, 2) / path.coord(1, 1) == 1
            assert var.label(path, tri2.ops) == (1 if inside else 0)

    def test_lift_to_tail_matches_direct_evaluation(self, tri2):
        base = range_indicator(rat(3, 4), rat(3, 2))
        lifted = lift_to_tail(base, 1)
        direct = tail_range_indicator(rat(3, 4), rat(3, 2), 1)
        for path in tri2.paths:
            assert lifted.label(path, tri2.ops) == direct.label(path, tri2.ops)


class TestScalingForm:
    def test_tail_variables_pass(self, tri2):
        assert check_scaling_form(tri2, tail_max_ratio(1), 1)
        assert check_scaling_form(tri2, tail_range_indicator(rat(3, 4), rat(3, 2), 1), 1)

    def test_prefix_dependent_variables_fail(self, tri2):
        assert not check_scaling_form(tri2, max_abs_deviation(), 1)

    def test_statics_and_extra_assets_are_out_of_scope(self, tri2):
        two = build_lattice(2, 2, ["1/2", 2])
        with pytest.raises(PreconditionError):
            check_scaling_form(two, tail_max_ratio(1), 1)


class TestFiltration:
    VARIANTS = ("none", "plus", "minus", "dynamic")

    def _info(self, variant, variable):
        if variant == "none":
            return InfoStructure.none()
        if variant == "dynamic":
            return InfoStructure.dynamic(variable, 1)
        return getattr(InfoStructure, variant)(variable)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_partitions_match_their_definitions(self, tri3, variant):
        variable = tail_max_ratio(1)
        info = self._info(variant, variable)
        fm = filtration(tri3, info)
        initial = (
            joined_partition(tri3, variable, 0)
            if variant == "plus"
            else (Atom(-1, tri3.all_paths()),)
        )
        assert fm.atoms[-1] == atoms_at(tri3, info, -1) == initial
        for t in range(4):
            market_only = variant == "none" or (variant == "dynamic" and t < 1)
            expected = (
                market_partition(tri3, t)
                if market_only
                else joined_partition(tri3, variable, t)
            )
            assert fm.atoms[t] == atoms_at(tri3, info, t) == expected

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cells_and_increments_agree_with_the_paths(self, tri3, variant):
        fm = filtration(tri3, self._info(variant, tail_max_ratio(1)))
        for t in range(-1, 4):
            for p in range(len(tri3.paths)):
                assert p in fm.atoms[t][fm.cell[t][p]]
        for t in range(3):
            for p, path in enumerate(tri3.paths):
                assert fm.delta[t][p] == (path.coord(1, t + 1) - path.coord(1, t),)

    def test_built_once_per_space_and_structure(self, tri2, hits_one):
        info = InfoStructure.minus(hits_one)
        assert filtration(tri2, info) is filtration(tri2, info)
        assert atoms_at(tri2, info, 1) is atoms_at(tri2, info, 1)

    def test_bad_indices_are_rejected(self, tri2, no_info):
        for t in (-2, 3):
            with pytest.raises(PreconditionError):
                atoms_at(tri2, no_info, t)


def test_labels_are_quantised_in_float_mode():
    space = build_lattice(1, 1, [0.5, 1.0, 2.0], mode="float")
    wobbly = InfoVariable("tiny", lambda path, ops: abs(path.coord(1, 1) - 1.0) * 1e-14)
    table = z_partition(space, wobbly)
    # 0, 5e-15, 1e-14 all collapse into one label at the default tolerance
    assert len(table) == 1


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_float_label_quantisation_ignores_path_order(order):
    # labels a, a + 0.6 tol and a + 1.2 tol: the first two are within the
    # tolerance of the smallest, the third is not, in every path order
    tol = 1e-12
    ends = [0.5, 1.0, 2.0]
    label_of = {0.5: 1.0, 1.0: 1.0 + 0.6 * tol, 2.0: 1.0 + 1.2 * tol}
    space = space_from_paths([[(1.0,), (ends[k],)] for k in order], 1, mode="float")
    assert space.ops.label_tol == tol
    variable = InfoVariable("near", lambda path, ops: label_of[path.coord(1, 1)])
    groups = {
        frozenset(space.paths[p].coord(1, 1) for p in atom.paths)
        for atom in z_partition(space, variable)
    }
    assert groups == {frozenset({0.5, 1.0}), frozenset({2.0})}
