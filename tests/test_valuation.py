"""Duality reports, the five-way chain, and information premiums."""

from collections import Counter

import pytest

from rip import (
    InfoStructure,
    PreconditionError,
    TailClaim,
    build_lattice,
    chain_quantities,
    check_scaling_form,
    dpp_superhedge,
    duality_report,
    info_from_payoff,
    info_value,
    info_value_claim,
    info_value_report,
    is_neg_inf,
    max_abs_deviation,
    parse_payoff,
    rat,
    space_from_paths,
    tail_max_ratio,
    tail_range_indicator,
    transport_claim,
)


class TestDualityReport:
    def test_every_atom_is_tight(self, tri1, call_at_1, hits_one):
        report = duality_report(tri1, call_at_1, InfoStructure.plus(hits_one))
        assert report.tight_everywhere
        assert len(report.entries) == 2
        for entry in report.entries:
            assert entry.gap == 0

    def test_aggregates(self, tri1, call_at_1, hits_one):
        report = duality_report(tri1, call_at_1, InfoStructure.plus(hits_one))
        assert report.aggregate_hedge == rat(1, 3)
        assert report.aggregate_price == rat(1, 3)

    def test_chain_appears_for_minus_with_cash_book(self, tri1, call_at_1, hits_one):
        report = duality_report(tri1, call_at_1, InfoStructure.minus(hits_one))
        assert report.chain is not None
        assert report.chain.all_equal
        none_report = duality_report(tri1, call_at_1, InfoStructure.none())
        assert none_report.chain is None

    def test_infeasible_atom_is_not_tight_but_matches(self, call_at_1):
        space = space_from_paths(
            [[(1,), (2,)], [(1,), (3,)], [(1,), (1,)]], n_assets=1
        )
        upper = info_from_payoff(parse_payoff("ind(S[1,1] >= 2)"), "up")
        report = duality_report(space, call_at_1, InfoStructure.plus(upper))
        flags = {e.atom.label: e.feasible for e in report.entries}
        assert flags == {0: True, 1: False}
        bad = next(e for e in report.entries if not e.feasible)
        assert is_neg_inf(bad.hedge.value) and is_neg_inf(bad.price.value)
        assert report.tight_everywhere  # -inf matches -inf


class TestChain:
    def test_all_five_agree_on_the_fixture(self, tri1, call_at_1, hits_one):
        chain = chain_quantities(tri1, hits_one, call_at_1)
        assert chain.values() == (rat(1, 3),) * 5
        assert chain.all_equal

    def test_per_atom_rows(self, tri1, call_at_1, hits_one):
        chain = chain_quantities(tri1, hits_one, call_at_1)
        rows = {label: (h, p, f) for label, h, p, f in chain.per_atom}
        assert rows[1] == (0, 0, 0)
        assert rows[0] == (rat(1, 3), rat(1, 3), rat(1, 3))

    def test_infeasible_atoms_drop_out_of_the_chain(self, call_at_1):
        space = space_from_paths(
            [[(1,), (2,)], [(1,), (3,)], [(1,), (1,)], [(1,), (rat(1, 2),)]],
            n_assets=1,
        )
        upper = info_from_payoff(parse_payoff("ind(S[1,1] >= 2)"), "up")
        chain = chain_quantities(space, upper, call_at_1)
        # the informed atom {>=2} is hopeless, the other carries value 1/4:
        # hedge 1/4 + gamma/2 covers pos(S-1) on {1, 1/2}
        assert chain.all_equal
        assert not is_neg_inf(chain.hedge_uninformed_capital)

    def test_two_step_chain_with_maxdev(self, tri2, call_at_2):
        chain = chain_quantities(tri2, max_abs_deviation(), call_at_2)
        assert chain.all_equal


class TestInfoValue:
    def test_zero_premium_for_a_useless_label(self, tri1, call_at_1, hits_one):
        assert info_value_claim(tri1, hits_one, 0, call_at_1) == 0

    def test_constant_label_has_zero_premium(self, tri2, call_at_2):
        constant = info_from_payoff(parse_payoff("1"), "const")
        assert info_value_claim(tri2, constant, 0, call_at_2) == 0

    def test_positive_premium_example(self, tri2):
        # pays on up-then-flat or down-then-down; the uninformed optimum
        # routes mass through both label atoms at once, which no measure
        # confined to a single atom can match, so the label is worth money
        claim = parse_payoff(
            "ind(S[1,1] == 2) * ind(S[1,2] == 2)"
            " + ind(S[1,1] == 0.5) * ind(S[1,2] == 0.25)"
        )
        variable = info_from_payoff(parse_payoff("ind(S[1,2] / S[1,1] == 1)"), "flat-tail")
        premium = info_value_claim(tri2, variable, 0, claim)
        assert premium == rat(1, 3)  # 7/9 uninformed against 4/9 informed

    def test_family_takes_the_best_claim(self, tri2):
        flat = parse_payoff("ind(S[1,2] / S[1,1] == 1)")
        nothing = parse_payoff("0")
        variable = tail_range_indicator(rat(3, 4), rat(3, 2), 1)
        single = info_value_claim(tri2, variable, 1, flat)
        family = info_value(tri2, variable, 1, [nothing, flat])
        assert family == single

    def test_family_range_check(self, tri2):
        big = parse_payoff("S[1,T] * 100")
        variable = tail_range_indicator(rat(3, 4), rat(3, 2), 1)
        with pytest.raises(PreconditionError, match="\\[0, 1\\]"):
            info_value(tri2, variable, 1, [big])

    def test_interior_arrival_demands_scaling_form(self, tri2, call_at_2):
        with pytest.raises(PreconditionError, match="renormalised tail"):
            info_value_claim(tri2, max_abs_deviation(), 1, call_at_2)

    def test_a_report_scans_the_tails_once(self):
        space, builds = _counted_space()
        variable = tail_range_indicator(rat(3, 4), rat(3, 2), 1)
        claims = [parse_payoff(c) for c in ("pos(S[1,T] - 1)", "ind(S[1,2] / S[1,1] == 1)", "0")]
        report = info_value_report(space, variable, 1, claims)
        assert len(report.entries) == 3
        assert builds["_scaling_form"] == 1
        # the premiums are those of a space without the cached scan
        fresh = info_value_report(build_lattice(1, 2, ["1/2", 1, 2]), variable, 1, claims)
        assert report == fresh
        # dpp reads the same scan, and still agrees
        dec = dpp_superhedge(space, claims[0], 1, InfoStructure.dynamic(variable, 1))
        assert dec.agree and builds["_scaling_form"] == 1

    def test_a_cached_scan_still_rejects_and_checks_its_arguments(self, call_at_2):
        space, builds = _counted_space()
        prefix = max_abs_deviation()
        with pytest.raises(PreconditionError, match="renormalised tail"):
            info_value_report(space, prefix, 1, [call_at_2, call_at_2])
        with pytest.raises(PreconditionError, match="renormalised tail"):
            dpp_superhedge(space, call_at_2, 1, InfoStructure.dynamic(prefix, 1))
        assert builds["_scaling_form"] == 1
        variable = tail_max_ratio(1)
        assert check_scaling_form(space, variable, 1)
        # the arrival is checked on every call, before the cached scan is read
        with pytest.raises(PreconditionError, match="outside 0..1"):
            info_value_report(space, variable, 2, [call_at_2])
        with pytest.raises(PreconditionError, match="outside grid 0..2"):
            check_scaling_form(space, variable, 3)
        assert builds["_scaling_form"] == 2

    def test_report_flags_degenerate_entries(self, call_at_1):
        space = space_from_paths([[(1,), (2,)], [(1,), (3,)]], n_assets=1)
        upper = info_from_payoff(parse_payoff("ind(S[1,1] >= 2)"), "up")
        report = info_value_report(space, upper, 0, [call_at_1])
        assert report.entries[0].flag
        assert report.value is None


class _CountedStore(dict):
    """A space's cache that counts, per builder, the entries it stores."""

    def __init__(self):
        super().__init__()
        self.builds = Counter()

    def __setitem__(self, key, value):
        self.builds[key[0].__name__] += 1
        super().__setitem__(key, value)


def _counted_space():
    space = build_lattice(1, 2, ["1/2", 1, 2])
    store = _CountedStore()
    object.__setattr__(space, "_partition_cache", store)
    return space, store.builds


class TestTransport:
    def test_transport_at_zero_is_the_identity_claim(self, tri2, call_at_2):
        moved = transport_claim(call_at_2, 0, tri2)
        assert isinstance(moved, TailClaim)
        for p in range(9):
            assert tri2.claim_values(moved)[p] == tri2.claim_values(call_at_2)[p]

    def test_transport_reads_the_renormalised_tail(self, tri2):
        short_call = parse_payoff("pos(S[1,T] - 1)")
        moved = transport_claim(short_call, 1, tri2)
        for p, path in enumerate(tri2.paths):
            ratio = path.coord(1, 2) / path.coord(1, 1)
            assert tri2.claim_values(moved)[p] == max(ratio - 1, 0)

    def test_transport_validates_the_fit(self, tri2, call_at_2):
        with pytest.raises(PreconditionError):
            transport_claim(call_at_2, 2, tri2)  # tail too short for S[1,2]
        with pytest.raises(PreconditionError):
            transport_claim(call_at_2, -1, tri2)


def test_premium_equality_across_arrival_shifts():
    """A label and claim pair transported one step out keeps its premium."""
    base = build_lattice(1, 1, ["1/2", 1, 2])
    long = build_lattice(1, 2, ["1/2", 1, 2])
    claim = parse_payoff("ind(S[1,T] == 1)")
    variable = info_from_payoff(parse_payoff("ind(S[1,1] == 1)"), "flat")

    v0 = info_value_claim(base, variable, 0, claim)

    from rip import lift_to_tail

    lifted_var = lift_to_tail(variable, 1)
    moved_claim = transport_claim(claim, 1, long)
    v1 = info_value_claim(long, lifted_var, 1, moved_claim)
    assert v0 == v1
