"""Partitions, the filtration map, and label variables."""

import gc
import glob
import itertools
import os
import random
import weakref
from fractions import Fraction

import pytest

import oracle
import rip.hedging
import rip.pricing
from rip import (
    Atom,
    InfoStructure,
    InfoVariable,
    ModeOps,
    PreconditionError,
    StaticOptionBook,
    atoms_at,
    build_hedge_problem,
    build_lattice,
    build_measure_lp,
    check_scaling_form,
    info_from_payoff,
    lift_to_tail,
    market_partition,
    max_abs_deviation,
    model_price,
    parse_payoff,
    range_indicator,
    rat,
    space_from_paths,
    superhedge,
    tail_max_ratio,
    tail_range_indicator,
    z_partition,
)
from rip.information import _labels, filtration, trading_terms
from rip.modelfile import load_model
from test_acceptance import build_instance, random_spec


def labels_of(variable, space):
    """The variable's raw labels on every path of the space's integer view."""
    return list(variable.labeler(space.nums, space.den, space.ops))


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
        labels = dict(enumerate(labels_of(var, tri1)))
        # both endpoints fall outside the open corridor
        assert labels == {0: 0, 1: 1, 2: 0}


class TestJoinedAndDynamic:
    def test_joined_refines_market(self, tri2, hits_one):
        market = [set(atom.paths) for atom in market_partition(tri2, 1)]
        joined = atoms_at(tri2, InfoStructure.minus(hits_one), 1)
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

    def test_initial_capital_atom_times_by_variant(self, tri2):
        # only plus starts from a grid partition, the t = 0 one
        deviation = max_abs_deviation()
        infos = {
            "none": InfoStructure.none(),
            "plus": InfoStructure.plus(deviation),
            "minus": InfoStructure.minus(deviation),
            "dynamic": InfoStructure.dynamic(deviation, 1),
        }
        times = {name: {a.time for a in atoms_at(tri2, info, -1)} for name, info in infos.items()}
        assert times == {"none": {-1}, "plus": {0}, "minus": {-1}, "dynamic": {-1}}

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
        labels = set(labels_of(var, tri2))
        assert labels == {1, 2}

    def test_tail_max_ratio_labels_zero_tails_one(self):
        space = space_from_paths([[(1,), (1,), (0,)], [(1,), (1,), (1,)]], n_assets=1)
        var = tail_max_ratio(1)
        zero_path = next(p for p, path in enumerate(space.paths) if path.coord(1, 2) == 0)
        assert labels_of(var, space)[zero_path] == 1

    def test_tail_range_indicator(self, tri2):
        var = tail_range_indicator(rat(3, 4), rat(3, 2), 1)
        for path, label in zip(tri2.paths, labels_of(var, tri2)):
            inside = path.coord(1, 2) / path.coord(1, 1) == 1
            assert label == (1 if inside else 0)

    def test_lift_to_tail_matches_direct_evaluation(self, tri2):
        base = range_indicator(rat(3, 4), rat(3, 2))
        lifted = lift_to_tail(base, 1)
        direct = tail_range_indicator(rat(3, 4), rat(3, 2), 1)
        assert labels_of(lifted, tri2) == labels_of(direct, tri2)


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
    # thirds on the first asset, quarters, eighths and sevenths on the second
    TWO_ASSETS = [
        [(1, 1), ("4/3", "3/4"), ("5/3", "1/2")],
        [(1, 1), ("4/3", "3/4"), (1, "9/8")],
        [(1, 1), ("2/3", "5/4"), ("2/3", "9/7")],
        [(1, 1), ("2/3", "5/4"), ("1/2", "3/4")],
    ]

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
            atoms_at(tri3, InfoStructure.minus(variable), 0)
            if variant == "plus"
            else (Atom(-1, tri3.all_paths()),)
        )
        assert fm.atoms[-1] == atoms_at(tri3, info, -1) == initial
        for t in range(4):
            market_only = variant == "none" or (variant == "dynamic" and t < 1)
            expected = (
                market_partition(tri3, t)
                if market_only
                else atoms_at(tri3, InfoStructure.minus(variable), t)
            )
            assert fm.atoms[t] == atoms_at(tri3, info, t) == expected

    @staticmethod
    def _increments(space, info, interval):
        """``{(t, p): increments}`` read off the trading terms over all paths.

        Checks on the way that the terms come one per atom and coordinate,
        in partition order, with their moves ascending inside the atom; a
        path left out of a term's moves reads as an increment of 0.
        """
        fm = filtration(space, info)
        terms = list(trading_terms(space, info, space.all_paths(), interval))
        n = space.n_coords
        assert [(t, paths, i) for t, paths, i, _ in terms] == [
            (t, atom.paths, i) for t in range(*interval) for atom in fm.atoms[t] for i in range(n)
        ]
        out = {}
        for t, paths, i, moves in terms:
            assert [p for p, _ in moves] == sorted(p for p, _ in moves)
            assert set(p for p, _ in moves) <= set(paths)
            for p in paths:
                out.setdefault((t, p), [0] * n)[i] = dict(moves).get(p, 0)
        return out

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cells_and_increments_agree_with_the_paths(self, tri3, variant):
        info = self._info(variant, tail_max_ratio(1))
        fm = filtration(tri3, info)
        for t in range(-1, 4):
            for p in range(len(tri3.paths)):
                assert p in fm.atoms[t][fm.cell[t][p]].paths
        increments = self._increments(tri3, info, (0, 3))
        for t in range(3):
            for p, path in enumerate(tri3.paths):
                delta = path.coord(1, t + 1) - path.coord(1, t)
                assert increments[t, p] == [delta]

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_two_assets_over_different_denominators(self, mode, variant):
        space = space_from_paths(self.TWO_ASSETS, 2, mode=mode)
        assert space.mode != "rational" or space.den == 168
        values = [path.values for path in space.paths]
        info = self._info(variant, info_from_payoff(parse_payoff("ind(S[2,2] < 1)")))
        fm = filtration(space, info)
        # the label crosses the branches at t = 1
        label = [1, 0, 0, 1]
        known = {"none": 3, "dynamic": 1}.get(variant, 0)

        def grouped(t):
            keys = [(v[: t + 1], label[p] if t >= known else None) for p, v in enumerate(values)]
            groups = [tuple(p for p in range(4) if keys[p] == key) for key in dict.fromkeys(keys)]
            return groups, tuple(next(k for k, g in enumerate(groups) if p in g) for p in range(4))

        for t in range(3):
            assert ([atom.paths for atom in fm.atoms[t]], fm.cell[t]) == grouped(t)
        initial = grouped(0) if variant == "plus" else ([(0, 1, 2, 3)], (0,) * 4)
        assert ([atom.paths for atom in fm.atoms[-1]], fm.cell[-1]) == initial
        number = Fraction if mode == "rational" else float
        increments = self._increments(space, info, (0, 2))
        for t in range(2):
            for p, v in enumerate(values):
                assert increments[t, p] == [b - a for a, b in zip(v[t], v[t + 1])]
                assert all(type(d) is number for d in increments[t, p] if d)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_holding_columns_are_the_martingale_rows_transposed(self, mode, variant):
        space = space_from_paths(self.TWO_ASSETS, 2, mode=mode)
        info = self._info(variant, info_from_payoff(parse_payoff("ind(S[2,2] < 1)")))
        # the target misses the atom of paths 2 and 3 at t = 1 in every variant
        target, interval = (0, 1), (1, 2)
        values = space.claim_values(parse_payoff("pos(S[1,T] - 1)"))
        cash = StaticOptionBook.cash_only()
        hedge = build_hedge_problem(space, [1, 0], info, values, cash, interval)
        columns = [[] for _ in hedge.dynamic_vars]
        for p, (nonzeros, _, _) in zip(target, hedge.lp.rows):
            for j, coefficient in nonzeros[1:]:
                columns[j - 1].append((p, coefficient))
        measure = build_measure_lp(space, [1, 0], info, cash, interval)
        rows = [[(target[k], c) for k, c in nonzeros] for nonzeros, _, _ in measure.rows[1:]]
        assert len(columns) == 2 * len(filtration(space, info).meet(1, target))
        assert [column for column in columns if column] == rows

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_moves_give_positions_in_the_path_set(self, tri3, variant):
        info = self._info(variant, tail_max_ratio(1))
        paths = tuple(range(1, len(tri3.paths), 3))  # path paths[k] at position k
        for t, atom_paths, _, moves in trading_terms(tri3, info, paths, (0, 3)):
            assert [k for k, _ in moves] == sorted(k for k, _ in moves)
            steps = {p: tri3.paths[p].coord(1, t + 1) - tri3.paths[p].coord(1, t) for p in paths}
            assert {paths[k]: d for k, d in moves} == {
                p: d for p, d in steps.items() if d and p in atom_paths
            }

    def test_each_distinct_increment_is_made_a_number_once(self, monkeypatch):
        calls = []
        ratio = ModeOps.ratio

        def counted(ops, numerator, denominator):
            calls.append(numerator)
            return ratio(ops, numerator, denominator)

        monkeypatch.setattr(ModeOps, "ratio", counted)
        space = build_lattice(1, 4, ["1/2", 1, 2])
        values = space.claim_values(parse_payoff("pos(S[1,T] - 1)"))
        steps = {b[0] - a[0] for rows in space.nums for a, b in zip(rows, rows[1:])}
        increments = sorted(steps - {0})
        info, cash = InfoStructure.none(), StaticOptionBook.cash_only()
        calls.clear()
        build_hedge_problem(space, space.all_paths(), info, values, cash)
        assert sorted(calls) == increments
        calls.clear()
        build_measure_lp(space, space.all_paths(), info)
        assert sorted(calls) == increments

    def test_built_once_per_space_and_structure(self, tri2, hits_one):
        info = InfoStructure.minus(hits_one)
        assert filtration(tri2, info) is filtration(tri2, info)
        assert atoms_at(tri2, info, 1) is atoms_at(tri2, info, 1)

    def test_equal_structures_share_one_map(self, tri2, hits_one):
        assert filtration(tri2, InfoStructure.none()) is filtration(tri2, InfoStructure.none())
        minus = filtration(tri2, InfoStructure.minus(hits_one))
        assert filtration(tri2, InfoStructure.minus(hits_one)) is minus
        # an information variable is still compared by identity
        twin = InfoVariable(hits_one.name, hits_one.labeler)
        assert filtration(tri2, InfoStructure.minus(twin)) is not minus

    def test_partitions_are_cached_in_their_space(self, tri2, hits_one):
        assert market_partition(tri2, 1) == market_partition(tri2, 1)
        assert z_partition(tri2, hits_one) == z_partition(tri2, hits_one)
        cached = dict(tri2._cache)
        assert cached
        market_partition(tri2, 1)
        atoms_at(tri2, InfoStructure.minus(hits_one), 1)
        z_partition(tri2, hits_one)
        assert all(tri2._cache[key] is value for key, value in cached.items())

    def test_spaces_die_with_their_partitions(self):
        # every partition and filtration map lives in its space's own store
        claim = parse_payoff("pos(S[1,T] - 1)")
        refs = []
        for _ in range(40):
            space = build_lattice(1, 2, ["1/2", 1, 2])
            info = InfoStructure.dynamic(max_abs_deviation(), 1)
            superhedge(space, None, info, claim)
            model_price(space, None, info, claim)
            assert space._cache
            refs.append(weakref.ref(space))
        del space
        gc.collect()
        assert sum(ref() is not None for ref in refs) == 0

    def test_bad_indices_are_rejected(self, tri2, no_info):
        for t in (-2, 3):
            with pytest.raises(PreconditionError):
                atoms_at(tri2, no_info, t)


class TestPartitionViews:
    """Market and joined partitions are read off the filtration map."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_views_equal_the_maps_of_none_and_minus(self, mode):
        space = build_lattice(1, 3, ["1/2", 1, 2], mode=mode)
        variable = tail_max_ratio(1)
        levels = [set(atom.paths) for atom in z_partition(space, variable)]
        for t in range(space.n_steps + 1):
            assert market_partition(space, t) == atoms_at(space, InfoStructure.none(), t)
            # the joined partition is the common refinement of the market and the level sets
            joined = atoms_at(space, InfoStructure.minus(variable), t)
            meets = {
                tuple(sorted(set(atom.paths) & level))
                for atom in market_partition(space, t)
                for level in levels
            }
            assert sorted(atom.paths for atom in joined) == sorted(meets - {()})
        # the label splits the paths from time 0 on
        assert len(atoms_at(space, InfoStructure.minus(variable), 0)) > 1

    def test_partition_views_check_their_index(self, tri2, hits_one):
        for t in (-2, 3):
            with pytest.raises(PreconditionError):
                atoms_at(tri2, InfoStructure.minus(hits_one), t)
        for t in (-1, 3):
            with pytest.raises(PreconditionError):
                market_partition(tri2, t)

    def test_tables_skip_atoms_that_miss_the_target(self, tri2, call_at_1):
        # the label is the first move, so the label atoms are paths 0-2, 3-5 and 6-8
        info = InfoStructure.plus(info_from_payoff(parse_payoff("S[1,1]"), "first-move"))
        atoms = atoms_at(tri2, info, -1)
        assert [atom.paths for atom in atoms] == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        # both sides build their tables through the one stage table
        for owner, question, stage in (
            (rip.hedging, "superhedge", "_hedge_stage"),
            (rip.pricing, "model_price", "_price_stage"),
        ):
            seen = []
            value_of = getattr(owner, stage)

            def recorded(space, paths, *rest):
                seen.append(paths)
                return value_of(space, paths, *rest)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(owner, stage, recorded)
                table = getattr(owner, question)(tri2, [8, 0, 7, 1, 2], info, call_at_1)
            # the middle atom misses the target; the others keep partition order
            assert seen == [(0, 1, 2), (7, 8)]
            assert [atom for atom, _ in table] == [atoms[0], atoms[2]]
            alone = getattr(owner, question)(tri2, [7, 8], info, call_at_1).single()
            assert table.for_path(7) == alone


def test_labels_are_quantised_in_float_mode():
    space = build_lattice(1, 1, [0.5, 1.0, 2.0], mode="float")
    wobbly = InfoVariable(
        "tiny", lambda rows, den, ops: [abs(path[1][0] / den - 1.0) * 1e-14 for path in rows]
    )
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
    variable = InfoVariable("near", lambda rows, den, ops: [label_of[path[1][0]] for path in rows])
    groups = {
        frozenset(space.paths[p].coord(1, 1) for p in atom.paths)
        for atom in z_partition(space, variable)
    }
    assert groups == {frozenset({0.5, 1.0}), frozenset({2.0})}


# ---------------------------------------------------------------------------
# labels on the integer view against the formulas on the coordinates

TRINOMIAL = ["1/2", 1, 2]
LABEL_SPACES = {
    "trinomial": build_lattice(1, 3, TRINOMIAL),
    "float trinomial": build_lattice(1, 3, TRINOMIAL, mode="float"),
    "two assets": build_lattice(2, 2, [[["1/2", 2], ["2/3", 1, "3/2"]]] * 2),
    # at zero from the arrival on, zero only at the end, and one coordinate at zero
    "zeros": space_from_paths(
        [
            [(1, 1), (0, 0), (0, 0), (0, 0)],
            [(1, 1), (2, 0), (4, 0), (2, 0)],
            [(1, 1), ("1/2", 3), ("1/4", 2), (0, 1)],
            [(1, 1), (3, "1/3"), (1, 1), (3, "2/3")],
            [(1, 1), (1, 1), (1, 1), (1, 1)],
        ],
        n_assets=2,
    ),
}
LABEL_SPACES["float zeros"] = space_from_paths(
    [path.values for path in LABEL_SPACES["zeros"].paths], n_assets=2, mode="float"
)


def _catalogue(asset, arrival=1):
    """Pairs of a variable and its reference formula, tails read and lifted at ``arrival``."""
    lo, hi = "3/4", "3/2"
    expr = parse_payoff(f"max(S[{asset},1], S[{asset},T]) / S[{asset},0] - ind(mint({asset}) < 1)")
    pairs = [
        (max_abs_deviation(asset), oracle.label_max_abs_deviation(asset)),
        (range_indicator(lo, hi, asset), oracle.label_range_indicator(lo, hi, asset)),
        (tail_max_ratio(arrival, asset), oracle.label_tail_max_ratio(arrival, asset)),
        (
            tail_range_indicator(lo, hi, arrival, asset),
            oracle.label_tail_range_indicator(lo, hi, arrival, asset),
        ),
        (info_from_payoff(expr, "payoff"), oracle.label_payoff(expr)),
    ]
    return pairs + [
        (lift_to_tail(variable, arrival), oracle.label_lift_to_tail(reference, arrival))
        for variable, reference in pairs
    ]


def _reference_variable(space, reference):
    """An information variable that labels each path by the reference formula."""
    labels = [reference(path.values, space.ops) for path in space.paths]
    return InfoVariable("reference", lambda rows, den, ops: labels)


def _outcome(compute):
    try:
        return [repr(x) for x in compute()]
    except Exception as exc:  # the refusals must match too
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(LABEL_SPACES))
def test_labels_on_the_integer_view_match_the_formulas(name):
    space = LABEL_SPACES[name]
    for asset in range(1, space.n_assets + 1):
        for variable, reference in _catalogue(asset):
            got = _outcome(lambda: _labels(space, variable))
            want = _outcome(lambda: oracle.space_labels(space, reference))
            assert got == want, variable.name
            if isinstance(want, tuple):
                continue
            twin = _reference_variable(space, reference)
            assert z_partition(space, variable) == z_partition(space, twin)
            for info in (InfoStructure.plus, InfoStructure.minus):
                assert filtration(space, info(variable)) == filtration(space, info(twin))
            dynamic = filtration(space, InfoStructure.dynamic(variable, 1))
            assert dynamic == filtration(space, InfoStructure.dynamic(twin, 1))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_lifting_refuses_a_tail_that_leaves_zero(mode):
    space = space_from_paths([[(1, 1), (1, 0), (2, 1)], [(1, 1), (1, 1), (1, 2)]], 2, mode)
    reference = oracle.label_lift_to_tail(oracle.label_max_abs_deviation(1), 1)
    with pytest.raises(PreconditionError, match="cannot renormalise a tail that leaves zero"):
        oracle.space_labels(space, reference)
    with pytest.raises(PreconditionError, match="cannot renormalise a tail that leaves zero"):
        _labels(space, lift_to_tail(max_abs_deviation(1), 1))
    # the tail variables themselves label such a path 1
    assert _labels(space, tail_max_ratio(1, 2))[0] == 1


def _same_scaling_form(space):
    """Every catalogue variable on asset 1, its tails at 1 when the grid has
    an interior index, checked at every arrival of the grid."""
    for variable, reference in _catalogue(1, 1 if space.n_steps > 1 else 0):
        labels = oracle.space_labels(space, reference)
        for arrival in range(space.n_steps + 1):
            want = oracle.scaling_form(space, labels, arrival)
            assert check_scaling_form(space, variable, arrival) is want, (variable.name, arrival)


def test_scaling_form_is_unchanged_on_the_criterion_1_corpus():
    # the 200 spaces of criterion 1, drawn as tests/test_acceptance.py draws them
    rng = random.Random(12)
    for _ in range(200):
        spec = random_spec(rng, ["none", "plus", "minus", "dynamic"], straddle=rng.random() < 0.6)
        space, _, _ = build_instance(spec, "rational")
        _same_scaling_form(space)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_scaling_form_is_unchanged_on_the_benchmark_models(mode):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    models = sorted(glob.glob(os.path.join(root, "perfbench", "models", "*.yaml")))
    assert models
    for path in models:
        space = load_model(path, mode).space
        if space.n_assets == 1 and space.n_options == 0:
            _same_scaling_form(space)
