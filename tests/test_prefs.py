"""Choice functions, subset comparisons, and the two preference axioms."""

import itertools
import random

import pytest

from matchlattice import (
    AgentId,
    CapacityError,
    RankedPreference,
    ResponsivePreference,
    SetComparison,
    Side,
    ValidationError,
    lad_violation,
    profile_violations,
    responsive_to_ranked,
    substitutability_violation,
)
from oracles import choice_oracle, powerset, prefers_oracle

F1 = AgentId(Side.FIRMS, 0)


def ranked(ranking, n=4, owner=F1):
    return RankedPreference(owner, n, ranking)


def responsive(quota, priority, n=4, owner=F1):
    return ResponsivePreference(owner, n, quota, priority)


def all_subsets(n):
    return [frozenset(s) for s in powerset(range(n))]


def random_ranked(rng, n=4):
    subsets = [s for s in all_subsets(n) if s]
    rng.shuffle(subsets)
    return ranked(subsets[: rng.randint(1, len(subsets))], n=n)


class TestChoice:
    def test_unlisted_offer_falls_back_to_best_listed_piece(self, example_market):
        # {w1,w4} is not ranked by f1; the scan stops at the singleton {w1}.
        assert example_market.firm_prefs[0].choice({0, 3}) == {0}

    def test_empty_offer(self, example_market):
        for pref in example_market.firm_prefs + example_market.worker_prefs:
            assert pref.choice(()) == frozenset()

    def test_full_offer_takes_top_ranked_pair(self, example_market):
        assert example_market.firm_prefs[0].choice({0, 1, 2, 3}) == {0, 1}

    def test_matches_literal_scan_on_every_offer(self, example_market):
        for pref in example_market.firm_prefs + example_market.worker_prefs:
            for offered in all_subsets(4):
                assert pref.choice(offered) == choice_oracle(pref, offered)

    def test_random_rankings_match_literal_scan(self):
        rng = random.Random(5)
        for _ in range(25):
            pref = random_ranked(rng)
            for offered in all_subsets(4):
                assert pref.choice(offered) == choice_oracle(pref, offered)

    def test_choice_is_contained_in_offer_and_idempotent(self):
        rng = random.Random(6)
        prefs = [random_ranked(rng) for _ in range(10)]
        prefs += [responsive(q, [3, 1, 0, 2][:k]) for q in (0, 1, 2, 3) for k in (0, 2, 4)]
        for pref in prefs:
            for offered in all_subsets(4):
                chosen = pref.choice(offered)
                assert chosen <= offered
                assert pref.choice(chosen) == chosen

    def test_out_of_range_member_rejected(self, example_market):
        with pytest.raises(ValidationError):
            example_market.firm_prefs[0].choice({0, 9})


class TestResponsive:
    def test_choice_truncates_at_quota_by_priority(self):
        pref = responsive(2, [2, 0, 3, 1])
        assert pref.choice({0, 1, 3}) == {0, 3}
        assert pref.choice({1}) == {1}
        assert pref.choice({0, 1, 2, 3}) == {2, 0}

    def test_zero_quota_never_chooses(self):
        pref = responsive(0, [0, 1, 2, 3])
        for offered in all_subsets(4):
            assert pref.choice(offered) == frozenset()

    def test_expansion_gives_identical_choice_function(self):
        rng = random.Random(7)
        for _ in range(20):
            quota = rng.randint(0, 4)
            priority = rng.sample(range(4), rng.randint(0, 4))
            pref = responsive(quota, priority)
            expanded = responsive_to_ranked(pref)
            for offered in all_subsets(4):
                assert pref.choice(offered) == expanded.choice(offered)

    def test_duplicate_priority_rejected(self):
        with pytest.raises(ValidationError):
            responsive(1, [0, 0])


class TestCompare:
    def test_pair_against_worse_pair(self, example_market):
        pref = example_market.firm_prefs[0]
        assert pref.compare({0, 1}, {2, 3}) is SetComparison.FIRST
        assert pref.compare({2, 3}, {0, 1}) is SetComparison.SECOND

    def test_identical_sets_are_equal(self, example_market):
        pref = example_market.firm_prefs[0]
        for subset in all_subsets(4):
            assert pref.compare(subset, subset) is SetComparison.EQUAL

    def test_middle_pairs_are_incomparable(self, example_market):
        # The union {w1,w2,w3,w4} chooses {w1,w2}, which is neither argument.
        pref = example_market.firm_prefs[0]
        assert pref.compare({0, 2}, {1, 3}) is SetComparison.INCOMPARABLE
        assert prefers_oracle(pref, frozenset({0, 2}), frozenset({1, 3})) == "incomparable"

    def test_matches_oracle_on_all_pairs(self, example_market):
        pref = example_market.worker_prefs[2]
        for a in all_subsets(4):
            for b in all_subsets(4):
                assert pref.compare(a, b).value == prefers_oracle(pref, a, b)

    def test_transitive_on_substitutable_preference(self, example_market):
        # Weak preference (first-or-equal) must chain across every triple.
        for pref in example_market.firm_prefs:
            subsets = all_subsets(4)
            at_least = {
                (a, b): pref.compare(a, b) in (SetComparison.FIRST, SetComparison.EQUAL)
                for a in subsets
                for b in subsets
            }
            for a, b, c in itertools.product(subsets, repeat=3):
                if at_least[(a, b)] and at_least[(b, c)]:
                    assert at_least[(a, c)]


class TestAxioms:
    def test_example_profile_passes_both_axioms(self, example_market):
        for pref in example_market.firm_prefs + example_market.worker_prefs:
            assert substitutability_violation(pref) is None
            assert lad_violation(pref) is None
        assert profile_violations(example_market) == []

    def test_responsive_always_passes(self):
        rng = random.Random(8)
        for _ in range(15):
            pref = responsive(rng.randint(0, 4), rng.sample(range(4), rng.randint(0, 4)))
            assert substitutability_violation(pref) is None
            assert lad_violation(pref) is None

    def test_substitutability_failure_with_witness(self):
        pref = ranked([(0, 1), (2,), (0,), (1,)], n=3)
        witness = substitutability_violation(pref)
        assert witness is not None
        offer, sub, member = witness
        assert member in pref.choice(offer)
        assert member in sub and sub <= offer
        assert member not in pref.choice(sub | {member})

    def test_lad_failure_with_witness(self):
        pref = ranked([(0,), (1, 2), (1,), (2,)], n=3)
        witness = lad_violation(pref)
        assert witness is not None
        offer, sub = witness
        assert sub <= offer
        assert len(pref.choice(sub)) > len(pref.choice(offer))

    def test_guard_refuses_large_opposite_side(self):
        pref = responsive(1, [0], n=17)
        with pytest.raises(CapacityError):
            substitutability_violation(pref)
        with pytest.raises(CapacityError):
            lad_violation(pref)


class TestValidation:
    def test_duplicate_subset_rejected(self):
        with pytest.raises(ValidationError):
            ranked([(0, 1), (1, 0)])

    def test_empty_subset_rejected(self):
        with pytest.raises(ValidationError):
            ranked([(0,), ()])

    def test_out_of_range_subset_rejected(self):
        with pytest.raises(ValidationError):
            ranked([(0, 7)])
