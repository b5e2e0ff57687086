"""Lottery decomposition, splitting, dominance, and lottery-level join/meet,
pinned to the worked 4x4 example and cross-checked against naive oracles."""

from fractions import Fraction

import pytest

from matchlattice import (
    AgentId,
    Dominance,
    Lottery,
    Market,
    Matching,
    RankedPreference,
    Side,
    SplitAlignment,
    StableSet,
    ValidationError,
    compare_firms,
    decompose,
    decompose_run,
    dominates,
    enumerate_stable,
    is_decreasing,
    join_random,
    lcm_refine,
    meet_random,
    random_rht_check,
    split,
    split_dominates,
)
from matchlattice.lotteries import _combine_termwise
from oracles import expectation_oracle, weak_dominance_oracle


def fr(text):
    return tuple(Fraction(part) for part in text.split())


X1_MATRIX = (
    fr("3/4 1/4 3/4 1/4"),
    fr("1/4 3/4 1/4 3/4"),
    fr("1/4 1/4 3/4 3/4"),
    fr("3/4 3/4 1/4 1/4"),
)
X2_MATRIX = (
    fr("2/3 0 1 1/3"),
    fr("1/3 1 0 2/3"),
    fr("0 1/3 2/3 1"),
    fr("1 2/3 1/3 0"),
)


def lottery(*pairs):
    return Lottery.from_pairs(pairs)


class TestLotteryType:
    def test_weights_must_sum_to_one(self, nus):
        with pytest.raises(ValidationError) as info:
            lottery(("1/2", nus[0]), ("1/3", nus[1]))
        assert info.value.code == "weight-sum"

    def test_weights_must_be_positive(self, nus):
        with pytest.raises(ValidationError):
            lottery(("0", nus[0]), ("1", nus[1]))
        with pytest.raises(ValidationError):
            lottery(("-1/2", nus[0]), ("3/2", nus[1]))

    def test_mixed_market_shapes_rejected(self, nus):
        with pytest.raises(ValidationError):
            lottery(("1/2", nus[0]), ("1/2", Matching.empty(2, 2)))

    def test_merged_aggregates_repeats(self, nus):
        raw = lottery(("1/4", nus[0]), ("1/4", nus[1]), ("1/2", nus[0]))
        merged = raw.merged()
        assert merged == lottery(("3/4", nus[0]), ("1/4", nus[1]))

    def test_expectation_of_reference_lottery(self, raw_x):
        assert raw_x.expectation().rows == X1_MATRIX
        assert expectation_oracle(raw_x.terms) == X1_MATRIX

    def test_degenerate_expectation_is_incidence(self, nus):
        assert Lottery.degenerate(nus[2]).expectation() == nus[2].incidence()

    def test_two_representations_share_expectation(self, raw_x, canonical_x):
        assert raw_x.expectation() == canonical_x.expectation()


class TestDecompose:
    def test_golden_run_step_by_step(self, raw_x, example_stable, nus):
        n1, n2, n3, n4 = nus
        run = decompose_run(raw_x, example_stable)
        assert len(run.steps) == 3

        first, second, third = run.steps
        assert set(first.pool) == {n1, n2, n3, n4}
        assert first.best == n1
        assert first.share == Fraction(1, 4)
        assert first.residual.rows == X1_MATRIX
        assert set(first.removed) == {n1, n3}

        assert set(second.pool) == {n2, n4}
        assert second.best == n2
        assert second.share == Fraction(2, 3)
        assert second.residual.rows == X2_MATRIX
        assert set(second.removed) == {n2}

        assert set(third.pool) == {n4}
        assert third.best == n4
        assert third.share == 1
        assert third.residual == n4.incidence()
        assert set(third.removed) == {n4}

        assert run.result == lottery(("1/4", n1), ("1/2", n2), ("1/4", n4))

    def test_result_is_decreasing_and_expectation_preserving(
        self, raw_x, example_stable, example_market
    ):
        result = decompose(raw_x, example_stable)
        assert is_decreasing(result, example_market)
        assert result.expectation() == raw_x.expectation()

    def test_degenerate_lottery_decomposes_to_itself(self, example_stable, nus):
        one_term = Lottery.degenerate(nus[1])
        run = decompose_run(one_term, example_stable)
        assert run.result == one_term
        assert [step.share for step in run.steps] == [1]

    def test_idempotent_on_canonical_input(self, canonical_x, example_stable):
        assert decompose(canonical_x, example_stable) == canonical_x

    def test_representation_independence(self, raw_x, canonical_x, example_stable):
        assert decompose(raw_x, example_stable) == decompose(canonical_x, example_stable)
        assert decompose(raw_x, example_stable) == canonical_x

    def test_unknown_matching_rejected(self, example_stable):
        diagonal = Matching.from_edges(4, 4, [(i, i) for i in range(4)])
        with pytest.raises(ValidationError) as info:
            decompose(Lottery.degenerate(diagonal), example_stable)
        assert info.value.code == "not-in-stable-set"

    def test_market_where_nobody_is_acceptable(self):
        market = Market(
            tuple(RankedPreference(AgentId(Side.FIRMS, i), 2, []) for i in range(2)),
            tuple(RankedPreference(AgentId(Side.WORKERS, j), 2, []) for j in range(2)),
        )
        stable = enumerate_stable(market)
        assert len(stable) == 1
        run = decompose_run(Lottery.degenerate(stable[0]), stable)
        assert run.result == Lottery.degenerate(stable[0])
        assert run.steps[0].share == 1


class TestSplit:
    def test_golden_alignment(self, canonical_x, canonical_y, example_market, nus):
        n1, n2, n3, n4 = nus
        alignment = split(canonical_x, canonical_y, example_market)
        assert alignment.gamma == fr("1/6 1/12 5/12 1/12 1/4")
        assert alignment.left == (n1, n1, n2, n2, n4)
        assert alignment.right == (n1, n3, n3, n4, n4)
        assert alignment.left_lottery() == canonical_x
        assert alignment.right_lottery() == canonical_y

    def test_split_with_itself_keeps_own_terms(self, canonical_x, example_market):
        alignment = split(canonical_x, canonical_x, example_market)
        assert alignment.gamma == canonical_x.weights
        assert alignment.left == canonical_x.matchings
        assert alignment.right == canonical_x.matchings

    def test_single_breakpoint_insertion(self, example_market, nus):
        left = Lottery.degenerate(nus[0])
        right = lottery(("1/2", nus[0]), ("1/2", nus[3]))
        alignment = split(left, right, example_market)
        assert alignment.gamma == fr("1/2 1/2")
        assert alignment.left == (nus[0], nus[0])
        assert alignment.right == (nus[0], nus[3])
        assert alignment.left_lottery() == left
        assert alignment.right_lottery() == right

    def test_length_bound(self, canonical_x, canonical_y, example_market):
        alignment = split(canonical_x, canonical_y, example_market)
        assert len(alignment) <= len(canonical_x) + len(canonical_y) - 1

    def test_aligned_sequences_descend_weakly(self, canonical_x, canonical_y, example_market):
        from matchlattice import Cmp, compare_firms

        alignment = split(canonical_x, canonical_y, example_market)
        for chain in (alignment.left, alignment.right):
            for earlier, later in zip(chain, chain[1:]):
                assert compare_firms(earlier, later, example_market) in (Cmp.GREATER, Cmp.EQUAL)

    def test_non_decreasing_input_rejected(self, raw_x, canonical_y, example_market):
        with pytest.raises(ValidationError) as info:
            split(raw_x, canonical_y, example_market)
        assert info.value.code == "not-canonical"


class TestDominance:
    def test_reflexive(self, canonical_x, example_stable):
        assert dominates(canonical_x, canonical_x, example_stable, Side.FIRMS) is Dominance.EQUAL
        assert dominates(canonical_x, canonical_x, example_stable, Side.WORKERS) is Dominance.EQUAL

    def test_reference_pair_is_incomparable_for_firms(self, canonical_x, canonical_y, example_stable):
        assert (
            dominates(canonical_x, canonical_y, example_stable, Side.FIRMS)
            is Dominance.INCOMPARABLE
        )
        assert (
            dominates(canonical_y, canonical_x, example_stable, Side.FIRMS)
            is Dominance.INCOMPARABLE
        )

    def test_join_strongly_dominates_both_inputs(self, canonical_x, canonical_y, example_stable):
        top = join_random(canonical_x, canonical_y, example_stable, Side.FIRMS)
        assert dominates(top, canonical_x, example_stable, Side.FIRMS) is Dominance.STRONGLY_DOMINATES
        assert dominates(top, canonical_y, example_stable, Side.FIRMS) is Dominance.STRONGLY_DOMINATES
        assert (
            dominates(canonical_x, top, example_stable, Side.FIRMS) is Dominance.STRONGLY_DOMINATED
        )

    def test_per_firm_outcome(self, canonical_x, canonical_y, example_stable):
        # Firm f1 already refuses both directions of the reference pair.
        outcome = dominates(canonical_x, canonical_y, example_stable, AgentId(Side.FIRMS, 0))
        assert outcome is Dominance.INCOMPARABLE

    def test_workers_rank_the_firm_join_below_its_inputs(
        self, canonical_x, canonical_y, example_stable
    ):
        # The two sides are opposed: the firms' l.u.b. is the workers' g.l.b.
        top = join_random(canonical_x, canonical_y, example_stable, Side.FIRMS)
        assert (
            dominates(canonical_x, top, example_stable, Side.WORKERS)
            is Dominance.STRONGLY_DOMINATES
        )
        for j in range(4):
            agent = AgentId(Side.WORKERS, j)
            assert dominates(top, canonical_x, example_stable, agent) in (
                Dominance.STRONGLY_DOMINATED,
                Dominance.EQUAL,
            )

    def test_literal_sums_agree_with_cumulative_shortcut(
        self, canonical_x, canonical_y, example_stable, example_market
    ):
        top = join_random(canonical_x, canonical_y, example_stable, Side.FIRMS)
        bottom = meet_random(canonical_x, canonical_y, example_stable, Side.FIRMS)
        pairs = [
            (canonical_x, canonical_y),
            (canonical_y, canonical_x),
            (top, canonical_x),
            (canonical_x, top),
            (bottom, canonical_y),
            (canonical_x, bottom),
        ]
        for cx, cy in pairs:
            for i, pref in enumerate(example_market.firm_prefs):
                per_firm = dominates(cx, cy, example_stable, AgentId(Side.FIRMS, i))
                expected = weak_dominance_oracle(cx, cy, pref, lambda m, i=i: m.firm_set(i))
                assert per_firm.weakly_dominates == expected

    def test_split_dominance_goldens(self, canonical_x, canonical_y, example_stable):
        assert split_dominates(canonical_x, canonical_x, example_stable, Side.FIRMS)
        assert not split_dominates(canonical_x, canonical_y, example_stable, Side.FIRMS)
        assert not split_dominates(canonical_y, canonical_x, example_stable, Side.FIRMS)
        top = join_random(canonical_x, canonical_y, example_stable, Side.FIRMS)
        assert split_dominates(top, canonical_x, example_stable, Side.FIRMS)
        assert split_dominates(top, canonical_y, example_stable, Side.FIRMS)

    def test_split_dominance_equals_dominance(self, canonical_x, canonical_y, example_stable):
        top = join_random(canonical_x, canonical_y, example_stable, Side.FIRMS)
        for a, b in [
            (canonical_x, canonical_y),
            (top, canonical_x),
            (canonical_x, top),
            (top, canonical_y),
        ]:
            for side in Side:
                assert split_dominates(a, b, example_stable, side) == dominates(
                    a, b, example_stable, side
                ).weakly_dominates


class TestJoinMeetRandom:
    def test_reference_join_and_meet(self, canonical_x, canonical_y, example_stable, nus):
        n1, n2, n3, n4 = nus
        expected_join = lottery(("2/3", n1), ("1/12", n2), ("1/4", n4))
        expected_meet = lottery(("1/6", n1), ("1/12", n3), ("3/4", n4))
        for method in ("split", "lcm"):
            assert (
                join_random(canonical_x, canonical_y, example_stable, Side.FIRMS, method=method)
                == expected_join
            )
            assert (
                meet_random(canonical_x, canonical_y, example_stable, Side.FIRMS, method=method)
                == expected_meet
            )

    def test_accepts_non_canonical_inputs(self, raw_x, canonical_y, example_stable, nus):
        expected_join = lottery(("2/3", nus[0]), ("1/12", nus[1]), ("1/4", nus[3]))
        assert join_random(raw_x, canonical_y, example_stable, Side.FIRMS) == expected_join

    def test_idempotent(self, canonical_x, example_stable):
        for side in Side:
            assert join_random(canonical_x, canonical_x, example_stable, side) == canonical_x
            assert meet_random(canonical_x, canonical_x, example_stable, side) == canonical_x

    def test_dual_across_sides(self, canonical_x, canonical_y, example_stable):
        join_firms = join_random(canonical_x, canonical_y, example_stable, Side.FIRMS)
        meet_firms = meet_random(canonical_x, canonical_y, example_stable, Side.FIRMS)
        assert join_firms == meet_random(canonical_x, canonical_y, example_stable, Side.WORKERS)
        assert meet_firms == join_random(canonical_x, canonical_y, example_stable, Side.WORKERS)

    def test_results_are_canonical(self, canonical_x, canonical_y, example_stable, example_market):
        for side in Side:
            for op in (join_random, meet_random):
                result = op(canonical_x, canonical_y, example_stable, side)
                assert is_decreasing(result, example_market)

    def test_unknown_method_rejected(self, canonical_x, canonical_y, example_stable):
        with pytest.raises(ValidationError):
            join_random(canonical_x, canonical_y, example_stable, Side.FIRMS, method="fast")

    def test_foreign_lottery_rejected(self, canonical_x, example_stable):
        foreign = Lottery.degenerate(Matching.from_edges(4, 4, [(i, i) for i in range(4)]))
        with pytest.raises(ValidationError):
            join_random(canonical_x, foreign, example_stable, Side.FIRMS)

    def test_combined_term_outside_the_stable_set_rejected(self, example_market, nus):
        # A stable set built by hand from the two incomparable middles only:
        # their join is nu1 and their meet nu4, neither of which it holds.
        middles = (nus[1], nus[2])
        table = tuple(tuple(compare_firms(a, b, example_market) for b in middles) for a in middles)
        partial = StableSet(example_market, middles, table)
        x, y = Lottery.degenerate(nus[1]), Lottery.degenerate(nus[2])
        for combine, side in (
            (join_random, Side.FIRMS),
            (meet_random, Side.FIRMS),
            (join_random, Side.WORKERS),
            (meet_random, Side.WORKERS),
        ):
            for method in ("split", "lcm"):
                with pytest.raises(ValidationError) as info:
                    combine(x, y, partial, side, method=method)
                assert info.value.code == "not-in-stable-set"
        with pytest.raises(ValidationError) as info:
            decompose(lottery(("1/2", nus[1]), ("1/2", nus[2])), partial)
        assert info.value.code == "not-in-stable-set"

    def test_termwise_result_that_is_not_decreasing_raises(self, example_stable, nus):
        # Only an inconsistent alignment can produce this; it is an error,
        # never silently re-decomposed.
        rising = SplitAlignment(fr("1/2 1/2"), (nus[3], nus[0]), (nus[3], nus[0]))
        for take_join in (True, False):
            with pytest.raises(ValidationError) as info:
                _combine_termwise(rising, Side.FIRMS, take_join, example_stable)
            assert info.value.code == "not-canonical"


class TestLcmRefine:
    def test_reference_slice_count(self, canonical_x, canonical_y, example_market, nus):
        n1, n2, n3, n4 = nus
        alignment = lcm_refine(canonical_x, canonical_y, example_market)
        assert len(alignment) == 12
        assert set(alignment.gamma) == {Fraction(1, 12)}
        assert alignment.left == (n1,) * 3 + (n2,) * 6 + (n4,) * 3
        assert alignment.right == (n1,) * 2 + (n3,) * 6 + (n4,) * 4
        assert alignment.left_lottery() == canonical_x
        assert alignment.right_lottery() == canonical_y

    def test_degenerate_pair_has_one_slice(self, nus, example_market):
        one = Lottery.degenerate(nus[0])
        alignment = lcm_refine(one, one, example_market)
        assert len(alignment) == 1
        assert alignment.gamma == (Fraction(1),)

    def test_requires_decreasing_inputs(self, raw_x, canonical_y, example_market):
        with pytest.raises(ValidationError):
            lcm_refine(raw_x, canonical_y, example_market)


class TestRandomRuralHospital:
    def test_reference_pair_sums(self, canonical_x, canonical_y):
        assert random_rht_check(canonical_x, canonical_y)
        assert canonical_x.expectation().row_sums() == (2, 2, 2, 2)
        assert canonical_x.expectation().col_sums() == (2, 2, 2, 2)

    def test_self_comparison(self, raw_x):
        assert random_rht_check(raw_x, raw_x)

    def test_shape_mismatch_rejected(self, canonical_x):
        with pytest.raises(ValidationError):
            random_rht_check(canonical_x, Lottery.degenerate(Matching.empty(2, 2)))
