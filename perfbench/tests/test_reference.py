"""The independent recursion against the frozen oracle values and the package."""

from fractions import Fraction as F

import pytest

import inputs
import reference
from reference import NEG_INF

TRI = ["1/2", "1", "2"]


def spec(n_steps, kind, strike, **extra):
    return dict(n_steps=n_steps, ratios=TRI, kind=kind, strike=F(strike), upper=None,
                variant="none", **extra)


def values(spec_):
    paths = reference.lattice_paths(spec_["ratios"], spec_["n_steps"])
    return paths, [reference.claim_value(spec_, p) for p in paths]


# values frozen in the table that ``tests/oracle.py`` prints, which that
# module computes by exhaustive vertex enumeration
@pytest.mark.parametrize("kind, strike, want", [
    ("call", 1, F(1, 3)),      # tri1_call
    ("put", 1, F(1, 3)),       # tri1_put
    ("digital", 2, F(1, 3)),   # tri1_digital_at_2
])
def test_one_step_values_match_the_oracle(kind, strike, want):
    assert reference.reference_values(spec(1, kind, strike)) == {(0, 1, 2): want}


def test_two_step_call_matches_the_oracle():
    assert reference.reference_values(spec(2, "call", 2))[tuple(range(9))] == F(2, 9)


def test_interval_value_on_the_up_subtree_matches_the_oracle():
    # tri2_interval_sub2_call2: one step left from S = 2, claim pos(S - 2)
    paths, claims = values(spec(2, "call", 2))
    up = [p for p, path in enumerate(paths) if path[1][0] == 2]
    sub = [paths[p][1:] for p in up]
    assert reference.tree_value(sub, [claims[p] for p in up]) == F(2, 3)


def test_plus_atoms_match_the_oracle():
    # tri1_plus_call_z0 and _z1: the label ind(S[1,1] == 1) splits flat from the rest
    paths, claims = values(spec(1, "call", 1))
    assert reference.tree_value(paths, claims, group=[0, 2]) == F(1, 3)
    assert reference.tree_value(paths, claims, group=[1]) == 0  # also tri1_dirac_flat_call


def test_envelope_needs_points_on_both_sides_of_one():
    assert reference.envelope_at_one([(F(2), F(5)), (F(3), F(1))]) == NEG_INF
    assert reference.envelope_at_one([(F(1), F(4))]) == F(4)
    # the chord from (1/2, 0) to (2, 3) passes 1 at 1, above the point at 1
    assert reference.envelope_at_one([(F(1, 2), F(0)), (F(1), F(1, 2)), (F(2), F(3))]) == 1


def test_arbitrage_node_drops_out_of_its_parent():
    def path(*prices):
        return tuple((F(x),) for x in prices)

    # the node at 2 only rises (ratios 2 and 3), so it is -inf and constrains
    # nothing; the root then prices the claim S[1,2] off the other two nodes
    paths = [path(1, 2, 4), path(1, 2, 6), path(1, "1/2", "1/2"), path(1, "1/2", "1/4"),
             path(1, 1, 1)]
    claims = [p[-1][0] for p in paths]
    assert reference.tree_value(paths, claims, group=[0, 1]) == NEG_INF
    assert reference.tree_value(paths, claims) == 1
    # without the flat node nothing at or above ratio 1 is left at the root
    assert reference.tree_value(paths, claims, group=[0, 1, 2, 3]) == NEG_INF


def test_lattice_that_only_rises_is_an_arbitrage():
    s = dict(n_steps=2, ratios=["2", "3"], kind="call", strike=F(1), upper=None,
             variant="none")
    assert reference.reference_values(s) == {(0, 1, 2, 3): NEG_INF}


def test_minus_is_the_best_finite_plus_atom():
    s = dict(spec(2, "call", 1), variant="plus", var="maxdev")
    plus = reference.reference_values(s)
    finite = [v for v in plus.values() if v != NEG_INF]
    assert NEG_INF in plus.values() and finite
    s["variant"] = "minus"
    assert reference.reference_values(s) == {tuple(range(9)): max(finite)}


def test_seed_twelve_template_keeps_criterion_one_lattices():
    specs = inputs.corpus_specs(12)
    assert len(specs) == 200
    assert sum(len(s["ratios"]) ** s["n_steps"] == 256 for s in specs) == 3
    assert inputs.corpus_specs(5)[7]["ratios"] == specs[7]["ratios"]
    assert [s["claim"] for s in inputs.corpus_specs(5)] != [s["claim"] for s in specs]


def test_recursion_agrees_with_the_package_on_corpus_questions():
    import workloads
    import rip  # noqa: F401  (the package under test, from src/)

    workload = workloads.corpus(2026)
    questions = [q for q in workload.questions
                 if len(q.data["ratios"]) ** q.data["n_steps"] <= 27][:60]
    assert {q.data["variant"] for q in questions} == {"none", "plus", "minus", "dynamic"}
    for question in questions:
        answer = workload.ask(rip, question)
        assert workload.check(question, answer) == [], question.data["claim"]
