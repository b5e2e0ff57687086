"""Lottery decomposition, splitting, dominance, and lottery-level join/meet,
pinned to the worked 4x4 example and cross-checked against naive oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from matchlattice import (
    AgentId,
    CapacityError,
    Cmp,
    Dominance,
    Lottery,
    Market,
    Matching,
    RankedPreference,
    RationalMatrix,
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
    join_f,
    join_random,
    lcm_refine,
    meet_f,
    meet_random,
    random_rht_check,
    split,
    split_dominates,
)
from matchlattice import lattice
from matchlattice import lotteries as lottery_module
from matchlattice.lotteries import (
    _VERDICT,
    LCM_SLICE_GUARD,
    _combine_termwise,
    _merge_runs,
    _refined,
)
from conftest import (
    LONG_WEIGHT,
    MIXED_SEEDS,
    alternative_representations,
    block_diagonal_market,
    disjoint_union,
    mixed_market,
    random_lottery,
)
from oracles import (
    decompose_oracle,
    dominance_sums_oracle,
    expectation_oracle,
    termwise_side_cmp,
    weak_dominance_oracle,
)


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


def middles_only(market, nus):
    """A stable set built by hand from the two incomparable middles nu2 and
    nu3 only: their join is nu1 and their meet nu4, neither of which it holds."""
    middles = (nus[1], nus[2])
    table = tuple(tuple(compare_firms(a, b, market) for b in middles) for a in middles)
    return StableSet(market, middles, table)


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

    def test_from_pairs_accepts_only_exact_weights(self, nus):
        quarters = lottery((Fraction(1, 4), nus[0]), ("2/4", nus[1]), ("1/4", nus[2]))
        assert quarters.weights == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
        assert lottery((1, nus[0])) == lottery(("1", nus[0])) == Lottery.degenerate(nus[0])
        for pairs in (
            ((0.5, nus[0]), (0.5, nus[1])),
            ((True, nus[0]),),
            (("0.25", nus[0]), ("3/4", nus[1])),
            ((1.0, nus[0]),),
            ((" 1", nus[0]),),
            (("+1", nus[0]),),
            (("1e0", nus[0]),),
            ((None, nus[0]),),
            ((LONG_WEIGHT, nus[0]),),
        ):
            with pytest.raises(ValidationError) as info:
                lottery(*pairs)
            assert info.value.code == "bad-weight", pairs

    def test_weights_past_the_digit_limit_refused_with_their_length(self, nus):
        # Both denominators are 3,000 digits long; the sum's denominator has 5,999.
        weights = ("1/" + "1" * 3000, "1/" + "1" * 2998 + "13")
        with pytest.raises(ValidationError) as info:
            lottery((weights[0], nus[0]), (weights[1], nus[3]))
        assert info.value.code == "weight-sum"
        assert str(info.value) == "weights sum to a fraction of 5999 digits, not 1"

    def test_int_weight_past_the_digit_limit_refused_without_printing_it(self, nus):
        with pytest.raises(ValidationError) as info:
            Lottery(((10**5000, nus[0]),))
        assert info.value.code == "bad-weight"
        assert str(info.value) == "a weight of type int is not an exact fraction"

    def test_term_that_is_not_a_weight_matching_pair_refused(self, nus):
        half = Fraction(1, 2)
        for terms in (
            ((Fraction(1), "x"),),
            ((Fraction(1), nus[0], nus[1]),),
            ((half, nus[0]), (half, "x")),
            ((half, nus[0]), [half, nus[1]]),
        ):
            with pytest.raises(ValidationError) as info:
                Lottery(terms)
            assert info.value.code == "bad-term", terms

    def test_merged_aggregates_repeats(self, nus):
        raw = lottery(("1/4", nus[0]), ("1/4", nus[1]), ("1/2", nus[0]))
        merged = raw.merged()
        assert merged == lottery(("3/4", nus[0]), ("1/4", nus[1]))

    def test_equality_ignores_how_a_lottery_was_built(self, nus):
        merged = lottery(("1/4", nus[0]), ("1/4", nus[0]), ("1/2", nus[1])).merged()
        halves = lottery(("1/2", nus[0]), ("1/2", nus[1]))
        assert merged == halves and hash(merged) == hash(halves)
        assert (merged.denominator, merged.counts) == (2, (1, 1))

    def test_library_built_lotteries_are_not_rechecked(
        self, monkeypatch, raw_x, canonical_x, canonical_y, example_stable, nus
    ):
        calls = []
        check = Lottery.__init__

        def counted(lottery, terms):
            calls.append(len(terms))
            check(lottery, terms)

        monkeypatch.setattr(Lottery, "__init__", counted)
        decompose_run(raw_x, example_stable)
        decompose(raw_x, example_stable)
        alignment = split(canonical_x, canonical_y, example_stable.market)
        alignment.left_lottery(), alignment.right_lottery()
        for side in Side:
            for method in ("split", "lcm"):
                join_random(raw_x, canonical_y, example_stable, side, method=method)
                meet_random(raw_x, canonical_y, example_stable, side, method=method)
        raw_x.merged(), Lottery.degenerate(nus[0])
        assert calls == []
        lottery(("1/4", nus[0]), ("3/4", nus[1]))
        lottery(("1", nus[2]))
        assert calls == [2, 1]

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

    def test_mass_stays_in_integer_counts(self, monkeypatch, raw_x, canonical_x, example_stable):
        # Only reading a trace step's residual builds a RationalMatrix.
        built = []
        validate = RationalMatrix.__post_init__

        def counted(matrix):
            built.append(matrix)
            validate(matrix)

        monkeypatch.setattr(RationalMatrix, "__post_init__", counted)
        run = decompose_run(raw_x, example_stable)
        assert decompose(raw_x, example_stable) == canonical_x
        assert random_rht_check(raw_x, canonical_x)
        assert built == []
        for side in Side:
            dominates(raw_x, canonical_x, example_stable, side)
            for method in ("split", "lcm"):
                join_random(raw_x, canonical_x, example_stable, side, method=method)
                meet_random(raw_x, canonical_x, example_stable, side, method=method)
            assert built == [], side
        assert run.steps[0].residual.rows == X1_MATRIX
        assert run.steps[1].residual.rows == X2_MATRIX
        assert len(built) == 2

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


class TestDecomposeOracle:
    """Every trace field and the result against the paper's rescaling
    recurrence, on each lottery and on its expectation-preserving rewritings
    (halved repeated terms; a pair traded for its join and meet); the
    profile sweep of :func:`decompose` must return the same result."""

    @staticmethod
    def check(lottery, stable):
        in_order = lambda ms: tuple(sorted(ms, key=stable.index))
        representations = [lottery] + alternative_representations(lottery, stable)
        for representation in representations:
            run = decompose_run(representation, stable)
            assert decompose(representation, stable) == run.result
            steps, result = decompose_oracle(representation.terms, list(stable), stable.market)
            assert len(run.steps) == len(steps)
            for index, (step, expected) in enumerate(zip(run.steps, steps), 1):
                pool, residual, best, share, tight, removed = expected
                assert step.index == index
                assert step.pool == in_order(pool)
                assert step.residual.rows == residual
                assert step.best == best
                assert step.share == share
                assert step.tight_cells == tight
                assert step.removed == in_order(removed)
            assert run.result.terms == result
        return len(representations)

    def test_golden_lattice(self, raw_x, canonical_x, canonical_y, example_stable):
        rng = random.Random(7)
        lotteries = [raw_x, canonical_x, canonical_y]
        lotteries += [random_lottery(rng, example_stable) for _ in range(40)]
        assert sum(self.check(x, example_stable) for x in lotteries) > 100

    def test_block_market(self):
        stable = enumerate_stable(block_diagonal_market((3, 2)))
        assert len(stable) == 6
        rng = random.Random(11)
        for _ in range(40):
            self.check(random_lottery(rng, stable), stable)

    def test_corpus(self, corpus):
        for case in corpus:
            for lottery in case.lotteries:
                self.check(lottery, case.stable)


def sub_stable_set(stable, keep):
    """The members of ``stable`` at the positions ``keep``, with their table."""
    keep = sorted(keep)
    table = tuple(tuple(stable.firm_table[a][b] for b in keep) for a in keep)
    return StableSet(stable.market, tuple(stable[k] for k in keep), table)


def answer(operation, lottery, stable):
    """The operation's result, or the code of its refusal."""
    try:
        return operation(lottery, stable)
    except ValidationError as error:
        return error.code


class TestDecomposeSweep:
    """The profile sweep of :func:`decompose` against the traced peel and
    the literal recurrence, and its down-set index on the stable set."""

    @pytest.mark.parametrize(
        "sizes, irreducibles",
        [((3, 2), 3), ((2, 2, 2), 3), ((4, 4, 4), 9)],
        ids=["block-3+2", "block-2+2+2", "latin-4^3"],
    )
    def test_members_are_the_down_sets_of_the_irreducibles(self, monkeypatch, sizes, irreducibles):
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 144)
        stable = enumerate_stable(block_diagonal_market(sizes))
        masks, position_of = stable._down_sets()
        # A product of chains of lengths n: n - 1 irreducibles per chain.
        assert max(masks).bit_length() == irreducibles
        assert sorted(position_of.values()) == list(range(len(stable)))
        assert all(position_of[mask] == k for k, mask in enumerate(masks))
        for i, j in itertools.product(range(len(stable)), repeat=2):
            below = masks[j] & ~masks[i] == 0
            assert below == stable.cmp_f(i, j).at_least

    def test_golden_irreducibles_are_an_antichain_of_four(self, example_stable):
        masks, _ = example_stable._down_sets()
        assert len(set(masks)) == 16 and max(masks) == 0b1111

    @pytest.mark.parametrize(
        "sizes, count, oracle",
        [((2, 2, 2), 40, True), ((4, 4, 4), 3, True), ((4, 4, 4), 40, False)],
        ids=["block-2+2+2", "latin-4^3-oracle", "latin-4^3"],
    )
    def test_block_markets(self, monkeypatch, sizes, count, oracle):
        # The oracle scans every pair of members, so latin-4^3 gets few lotteries.
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 144)
        stable = enumerate_stable(block_diagonal_market(sizes))
        rng = random.Random(len(stable) + count)
        for _ in range(count):
            x = random_lottery(rng, stable)
            if oracle:
                TestDecomposeOracle.check(x, stable)
            else:
                for representation in [x] + alternative_representations(x, stable):
                    assert decompose(representation, stable) == decompose_run(representation, stable).result

    def test_sweep_points_on_nothing(self, monkeypatch, raw_x, example_stable):
        rng = random.Random(29)
        inputs = [raw_x] + [random_lottery(rng, example_stable) for _ in range(20)]
        assert not is_decreasing(raw_x, example_stable.market)
        expected = [decompose_run(x, example_stable).result for x in inputs]
        fresh = StableSet(example_stable.market, example_stable.matchings, example_stable.firm_table)
        calls = []
        for owner, name in ((lottery_module, "_closed_pool"), (StableSet, "join"), (StableSet, "meet")):
            def counting(*args, name=name, kernel=getattr(owner, name)):
                calls.append(name)
                return kernel(*args)

            monkeypatch.setattr(owner, name, counting)
        assert [decompose(x, fresh) for x in inputs] == expected
        assert calls == []

    def test_a_diamond_whose_top_is_not_the_join_is_refused(self, example_stable):
        # b and c are incomparable, d is their meet, and a lies strictly above
        # their join: {a, b, c, d} is ordered as a diamond, but the cells
        # a adds over b are not the cells c adds over d.
        stable = example_stable
        a, b, c = next(
            (a, b, c)
            for a, b, c in itertools.permutations(range(len(stable)), 3)
            if stable.cmp_f(b, c) is Cmp.INCOMPARABLE and stable.cmp_f(a, stable.join(b, c)) is Cmp.GREATER
        )
        diamond = sub_stable_set(stable, {a, b, c, stable.meet(b, c)})
        with pytest.raises(ValidationError) as info:
            diamond._down_sets()
        assert info.value.code == "not-in-stable-set"
        middles = lottery(("1/2", stable[b]), ("1/2", stable[c]))
        assert answer(decompose, middles, diamond) == "not-in-stable-set"
        # Joins and meets are read off the same index, so every one refuses.
        for i, j in itertools.product(range(len(diamond)), repeat=2):
            for combine in (diamond.join, diamond.meet):
                with pytest.raises(ValidationError) as info:
                    combine(i, j)
                assert info.value.code == "not-in-stable-set"

    @pytest.mark.parametrize("build", [None, (3, 2), (2, 2)], ids=["golden", "block-3+2", "block-2+2"])
    def test_sub_stable_sets_refuse_or_agree_with_the_peel(self, request, build):
        # Dropping members can break the lattice.  The peel closes its pool
        # with joins and meets, so it answers only where the down-set index
        # is accepted, and there the sweep answers the same.  The sweep reads
        # the index on every call, so it never answers where the peel refuses.
        if build is None:
            stable = request.getfixturevalue("example_stable")
        else:
            stable = enumerate_stable(block_diagonal_market(build))
        market = stable.market
        rng = random.Random(len(stable))
        members = range(len(stable))
        subsets = [[k for k in members if k != drop] for drop in members]
        subsets += [rng.sample(members, rng.randint(2, len(stable) - 1)) for _ in range(len(stable))]
        outcomes = {"agree": 0, "peel-refuses": 0, "both-refuse": 0}
        for keep in subsets:
            partial = sub_stable_set(stable, keep)
            for _ in range(8):
                x = random_lottery(rng, partial)
                peeled = answer(lambda x, s: decompose_run(x, s).result, x, partial)
                swept = answer(decompose, x, partial)
                if isinstance(peeled, Lottery):
                    assert swept == peeled
                    assert is_decreasing(swept, market)
                    assert swept.expectation() == x.expectation()
                    outcomes["agree"] += 1
                elif isinstance(swept, Lottery):
                    outcomes["peel-refuses"] += 1
                else:
                    assert swept == peeled == "not-in-stable-set"
                    outcomes["both-refuse"] += 1
        assert outcomes["agree"] > 0 and outcomes["peel-refuses"] == 0, outcomes

    @pytest.mark.parametrize("build", [None, (3, 2), (2, 2, 2), (4, 4, 4)],
                             ids=["golden", "block-3+2", "block-2+2+2", "latin-4^3"])
    def test_the_index_accepts_exactly_the_sub_sets_that_pointing_closes(self, request, monkeypatch, build):
        # The pointing join_f and meet_f are the oracle: a sub-set of the
        # stable set is a lattice of down-sets of its J exactly when they keep
        # every pair of its members inside it, and on such a set the sweep
        # agrees with the peel.
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 144)
        if build is None:
            stable = request.getfixturevalue("example_stable")
        else:
            stable = enumerate_stable(block_diagonal_market(build))
        market = stable.market
        members = range(len(stable))
        pointed = {}
        for a, b in itertools.combinations_with_replacement(members, 2):
            pointed[a, b] = pointed[b, a] = (
                stable.index(join_f(stable[a], stable[b], market)),
                stable.index(meet_f(stable[a], stable[b], market)),
            )
        rng = random.Random(len(stable))
        subsets = [[k for k in members if k != drop] for drop in members]
        subsets += [rng.sample(members, rng.randint(1, len(stable) - 1)) for _ in range(150)]
        accepted = 0
        for keep in map(set, subsets):
            closed = all(k in keep for a, b in itertools.product(keep, repeat=2) for k in pointed[a, b])
            partial = sub_stable_set(stable, keep)
            verdict = answer(lambda _, s: s._down_sets(), None, partial)
            assert (verdict != "not-in-stable-set") == closed, sorted(keep)
            if closed:
                accepted += 1
                for _ in range(3):
                    x = random_lottery(rng, partial)
                    assert decompose(x, partial) == decompose_run(x, partial).result
        assert 0 < accepted < len(subsets)


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


class TestSplitAlignment:
    def test_merge_runs_merges_equal_neighbours_only(self, nus):
        a, b = nus[0], nus[3]
        twin = Matching(a.firm_masks, a.num_workers)
        assert twin == a and twin is not a
        runs = _merge_runs((1, 2, 3, 4, 5), (a, twin, b, a, twin))
        assert runs == [(3, a), (3, b), (9, a)]
        assert runs[0][1] is a and runs[2][1] is a  # a run keeps its first item
        assert _merge_runs((1, 1, 1), ((a, b), (twin, b), (b, b))) == [(2, (a, b)), (1, (b, b))]
        assert _merge_runs((), ()) == []

    def test_gamma_is_each_count_over_the_denominator(self, nus):
        alignment = SplitAlignment(12, (2, 1, 5, 1, 3), nus[:1] * 5, nus[:1] * 5)
        assert alignment.gamma == fr("1/6 1/12 5/12 1/12 1/4")
        assert alignment.gamma == tuple(Fraction(c, 12) for c in alignment.counts)
        assert alignment.left_lottery() == Lottery.degenerate(nus[0])

    def test_unequal_lengths_rejected(self, nus):
        with pytest.raises(ValidationError):
            SplitAlignment(2, (1, 1), (nus[0], nus[3]), (nus[0],))
        with pytest.raises(ValidationError):
            SplitAlignment(2, (2,), (nus[0], nus[3]), (nus[0], nus[3]))

    def test_counts_must_be_positive(self, nus):
        for counts in ((2, 0), (3, -1), (1.5, 0.5), (True, True)):
            with pytest.raises(ValidationError) as info:
                SplitAlignment(2, counts, (nus[0], nus[3]), (nus[0], nus[3]))
            assert info.value.code == "bad-weight"

    def test_counts_must_sum_to_the_denominator(self, nus):
        for denominator in (3, 1, 2.0):
            with pytest.raises(ValidationError) as info:
                SplitAlignment(denominator, (1, 1), (nus[0], nus[3]), (nus[0], nus[3]))
            assert info.value.code == "weight-sum"
        with pytest.raises(ValidationError) as info:
            SplitAlignment(0, (), (), ())
        assert info.value.code == "weight-sum"


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

    def test_agent_outside_the_market_refused(self, canonical_x, canonical_y, example_stable):
        with pytest.raises(ValidationError) as info:
            dominates(canonical_x, canonical_y, example_stable, AgentId(Side.WORKERS, 99))
        assert info.value.code == "unknown-agent"

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
        market = example_stable.market
        for a, b in [
            (canonical_x, canonical_y),
            (top, canonical_x),
            (canonical_x, top),
            (top, canonical_y),
        ]:
            for side in Side:
                fold = _VERDICT[termwise_side_cmp(_refined(a, b, example_stable), market, side)]
                assert split_dominates(a, b, example_stable, side) == fold.weakly_dominates


@pytest.mark.parametrize(
    "operation",
    [dominates, split_dominates, join_random, meet_random],
    ids=["dominates", "split_dominates", "join_random", "meet_random"],
)
def test_side_given_as_text_refused(operation, canonical_x, canonical_y, example_stable):
    # "F" is Side.FIRMS's value, not the side: it used to fall through to the workers.
    with pytest.raises(ValidationError) as info:
        operation(canonical_x, canonical_y, example_stable, "F")
    assert info.value.code == "bad-side"


class TestDominanceOracle:
    """``dominates`` for every agent and both sides, and ``split_dominates``
    for both sides, against the literal inequality sums on canonical forms
    from the paper's rescaling recurrence.  Every raw lottery also enters
    with each term halved and repeated."""

    @staticmethod
    def verdict(forward, backward):
        return {
            (True, True): Dominance.EQUAL,
            (True, False): Dominance.STRONGLY_DOMINATES,
            (False, True): Dominance.STRONGLY_DOMINATED,
            (False, False): Dominance.INCOMPARABLE,
        }[forward, backward]

    def check(self, stable, lotteries):
        """Check every ordered pair; return the agent- and side-level verdicts seen."""
        market = stable.market
        raw = [r for x in lotteries for r in (x, alternative_representations(x, stable)[0])]
        canonical = [Lottery(decompose_oracle(x.terms, list(stable), market)[1]) for x in raw]
        assigned = {
            agent: (lambda m, i=agent.index: m.firm_set(i)) if agent.side is Side.FIRMS
            else (lambda m, j=agent.index: m.worker_set(j))
            for agent in market.agents()
        }
        seen = {"agent": set(), "side": set()}
        for x, cx in zip(raw, canonical):
            for y, cy in zip(raw, canonical):
                weakly = {
                    agent: tuple(
                        dominance_sums_oracle(a, b, market.pref(agent), assigned[agent])
                        for a, b in ((cx, cy), (cy, cx))
                    )
                    for agent in market.agents()
                }
                for agent, (forward, backward) in weakly.items():
                    expected = self.verdict(forward, backward)
                    assert dominates(x, y, stable, agent) is expected, (x, y, agent)
                    seen["agent"].add(expected)
                for side in Side:
                    forward, backward = (
                        all(pair[k] for agent, pair in weakly.items() if agent.side is side)
                        for k in (0, 1)
                    )
                    expected = self.verdict(forward, backward)
                    assert dominates(x, y, stable, side) is expected, (x, y, side)
                    assert split_dominates(x, y, stable, side) == forward, (x, y, side)
                    seen["side"].add(expected)
        return seen

    def test_golden_lattice(self, raw_x, canonical_y, example_stable):
        rng = random.Random(31)
        lotteries = [raw_x, canonical_y] + [random_lottery(rng, example_stable) for _ in range(6)]
        seen = self.check(example_stable, lotteries)
        assert seen == {"agent": set(Dominance), "side": set(Dominance)}

    @pytest.mark.parametrize("sizes", [(3, 2), (2, 2)])
    def test_block_market(self, sizes):
        stable = enumerate_stable(block_diagonal_market(sizes))
        rng = random.Random(37)
        seen = self.check(stable, [random_lottery(rng, stable) for _ in range(6)])
        # In a 2-block an agent has two possible partners, over which the
        # order is total, so only the side-level verdicts cover all four.
        assert seen["side"] == set(Dominance)

    def test_corpus(self, corpus):
        cases = [case for case in corpus if len(case.stable) >= 2]
        assert len(cases) >= 30
        for case in cases:
            self.check(case.stable, case.lotteries[:2])


class TestSideProfileDominance:
    """Side ``dominates`` reads its verdict off the profiles over J; it must
    equal the paper's termwise fold over the split (``termwise_side_cmp`` in
    ``tests/oracles.py``), and ``split_dominates`` must equal the fold's weak
    half, for both sides and every ordered pair."""

    @staticmethod
    def lotteries(stable, rng):
        """Raw lotteries and each halved and repeated, degenerate ones, the
        top and the bottom, and two with denominators 12 and 35, so that the
        profiles are scaled to a common denominator."""
        raw = [random_lottery(rng, stable) for _ in range(2)]
        halved = [alternative_representations(x, stable)[0] for x in raw]
        degenerate = [Lottery.degenerate(stable[k]) for k in rng.sample(range(len(stable)), 2)]
        ends = [Lottery.degenerate(stable.firm_optimal), Lottery.degenerate(stable.firm_pessimal)]
        a, b = rng.sample(list(stable), 2)
        unequal = [
            Lottery.from_pairs([("1/12", a), ("11/12", b)]),
            Lottery.from_pairs([("1/35", b), ("34/35", a)]),
        ]
        return raw + halved + degenerate + ends + unequal

    @pytest.mark.parametrize(
        "family", ["golden", "block-3+2", "block-2+2+2", "mixed", "mixed-unions"]
    )
    def test_equals_the_termwise_fold(self, request, monkeypatch, family):
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 144)
        if family == "golden":
            markets = [request.getfixturevalue("example_market")]
        elif family.startswith("block-"):
            markets = [block_diagonal_market(tuple(map(int, family[len("block-"):].split("+"))))]
        else:
            mixed = [mixed_market(seed) for seed in MIXED_SEEDS]
            if family == "mixed-unions":
                mixed = [disjoint_union(a, b) for a, b in zip(mixed[::2], mixed[1::2])]
            markets = mixed
        seen = set()
        for market in markets:
            stable = enumerate_stable(market)
            assert len(stable) >= 2
            inputs = self.lotteries(stable, random.Random(len(stable)))
            for x, y in itertools.product(inputs, repeat=2):
                alignment = _refined(x, y, stable)
                for side in Side:
                    fold = _VERDICT[termwise_side_cmp(alignment, market, side)]
                    verdict = dominates(x, y, stable, side)
                    assert verdict is fold, (x, y, side)
                    assert split_dominates(x, y, stable, side) == fold.weakly_dominates, (x, y, side)
                    seen.add(verdict)
        assert seen == set(Dominance)

    def test_split_dominates_reads_the_two_profiles_once(
        self, monkeypatch, raw_x, canonical_x, canonical_y, example_stable
    ):
        calls = []
        for name in ("_profiles", "decompose", "_refined", "_aligned"):
            def counting(*args, name=name, kernel=getattr(lottery_module, name)):
                calls.append(name)
                return kernel(*args)

            monkeypatch.setattr(lottery_module, name, counting)
        for x, y in itertools.product((raw_x, canonical_x, canonical_y), repeat=2):
            for side in Side:
                calls.clear()
                split_dominates(x, y, example_stable, side)
                assert calls == ["_profiles"], (x, y, side)

    def test_refuses_a_set_that_lacks_the_join_of_two_members(self, example_stable):
        # The bottom and two incomparable members just above it are not
        # closed under joins, so every reader of the down-set index refuses,
        # side dominance as much as the termwise reference.
        stable = example_stable
        bottom = stable.index(stable.firm_pessimal)
        a, b = next(
            (a, b)
            for a, b in itertools.combinations(range(len(stable)), 2)
            if stable.cmp_f(a, b) is Cmp.INCOMPARABLE and stable.meet(a, b) == bottom
        )
        partial = sub_stable_set(stable, {bottom, a, b})
        x = lottery(("1/2", stable[a]), ("1/2", stable[b]))
        y = Lottery.degenerate(stable[bottom])
        codes = [answer(decompose, x, partial), answer(decompose_run, x, partial)]
        codes.append(answer(lambda _, s: s.join(0, 1), None, partial))
        for side in Side:
            codes.append(answer(lambda x, s: dominates(x, y, s, side), x, partial))
            codes.append(answer(lambda x, s: split_dominates(x, y, s, side), x, partial))
            for combine, method in itertools.product((join_random, meet_random), ("split", "lcm")):
                codes.append(answer(lambda x, s: combine(x, y, s, side, method=method), x, partial))
        assert codes == ["not-in-stable-set"] * 15


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
        partial = middles_only(example_market, nus)
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

    def test_partial_stable_set_refuses_every_lottery_function(self, example_market, nus):
        # Two incomparable members with no join or meet are not a down-set
        # lattice.  Every lottery function reads the down-set index, so each
        # refuses, degenerate lotteries that already descend and one agent's
        # comparison included, and so does every member join and meet.
        partial = middles_only(example_market, nus)
        x, y = Lottery.degenerate(nus[1]), Lottery.degenerate(nus[2])
        calls = [lambda z=z: decompose(z, partial) for z in (x, y)]
        for who in (*Side, AgentId(Side.FIRMS, 0), AgentId(Side.WORKERS, 1)):
            calls += [lambda a=a, b=b, who=who: dominates(a, b, partial, who) for a, b in ((x, x), (x, y))]
        for side in Side:
            calls.append(lambda side=side: split_dominates(x, y, partial, side))
            for combine, method in itertools.product((join_random, meet_random), ("split", "lcm")):
                calls.append(lambda c=combine, m=method, side=side: c(x, y, partial, side, method=m))
        calls += [
            lambda: partial.join(0, 1),
            lambda: partial.meet(0, 1),
            lambda: partial.firm_optimal,
            lambda: partial.firm_pessimal,
        ]
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert info.value.code == "not-in-stable-set"
        assert len(calls) == 24

    @pytest.mark.parametrize("build", [None, (3, 2)], ids=["golden", "block-3+2"])
    def test_the_lottery_layer_never_points(self, request, monkeypatch, build):
        # Member joins and meets are read off the down-set index, so no
        # lottery operation reaches the pointing kernel of join_f and meet_f.
        if build is None:
            stable = request.getfixturevalue("example_stable")
            inputs = [request.getfixturevalue(name) for name in ("raw_x", "canonical_x", "canonical_y")]
        else:
            stable = enumerate_stable(block_diagonal_market(build))
            rng = random.Random(41)
            inputs = [random_lottery(rng, stable) for _ in range(3)]
        agents = (AgentId(Side.FIRMS, 1), AgentId(Side.WORKERS, 2))

        def outputs(stable):
            found = []
            for x in inputs:
                run = decompose_run(x, stable)
                found += [run.result, len(run.steps)]
                for y in inputs:
                    found += [dominates(x, y, stable, who) for who in (*Side, *agents)]
                    for side in Side:
                        found.append(split_dominates(x, y, stable, side))
                        for method in ("split", "lcm"):
                            found.append(join_random(x, y, stable, side, method=method))
                            found.append(meet_random(x, y, stable, side, method=method))
            return found

        expected = outputs(stable)

        class Pointed(Exception):
            pass

        def refuse(*args):
            raise Pointed

        monkeypatch.setattr(lattice, "_pointing", refuse)
        with pytest.raises(Pointed):  # the checked path does reach the patched kernel
            lattice.join_f(stable[0], stable[0], stable.market)
        fresh = StableSet(stable.market, stable.matchings, stable.firm_table)
        assert outputs(fresh) == expected

    def test_lcm_combines_each_run_once(
        self, monkeypatch, canonical_x, canonical_y, example_stable, example_market
    ):
        # The golden lcm alignment has 12 slices but only as many runs of
        # equal (left, right) pairs as split has terms.
        alignment = lcm_refine(canonical_x, canonical_y, example_market)
        budget = len(split(canonical_x, canonical_y, example_market))
        assert (len(alignment), budget) == (12, 5)
        calls = []
        for name in ("join", "meet"):
            def counting(self, i, j, kernel=getattr(StableSet, name)):
                calls.append((i, j))
                return kernel(self, i, j)

            monkeypatch.setattr(StableSet, name, counting)
        for side in Side:
            for take_join in (True, False):
                calls.clear()
                _combine_termwise(alignment, side, take_join, example_stable)
                assert 0 < len(calls) <= budget

    def test_decomposed_inputs_are_not_checked_again(
        self, monkeypatch, raw_x, canonical_x, canonical_y, example_stable
    ):
        # decompose has checked that its output descends, so the lottery
        # functions align it without is_decreasing; split and lcm_refine
        # still check the lotteries they are handed.
        calls = []
        check = lottery_module.is_decreasing

        def counting(lottery, market):
            calls.append(lottery)
            return check(lottery, market)

        monkeypatch.setattr(lottery_module, "is_decreasing", counting)
        for x in (raw_x, canonical_x):
            for side in Side:
                for method in ("split", "lcm"):
                    join_random(x, canonical_y, example_stable, side, method=method)
                    meet_random(x, canonical_y, example_stable, side, method=method)
                dominates(x, canonical_y, example_stable, side)
                split_dominates(x, canonical_y, example_stable, side)
            dominates(x, canonical_y, example_stable, AgentId(Side.FIRMS, 0))
        assert calls == []
        split(canonical_x, canonical_y, example_stable.market)
        lcm_refine(canonical_x, canonical_y, example_stable.market)
        assert calls == [canonical_x, canonical_y] * 2

    def test_termwise_result_that_is_not_decreasing_raises(self, example_stable, nus):
        # Only an inconsistent alignment can produce this; it is an error,
        # never silently re-decomposed.
        rising = SplitAlignment(2, (1, 1), (nus[3], nus[0]), (nus[3], nus[0]))
        for take_join in (True, False):
            with pytest.raises(ValidationError) as info:
                _combine_termwise(rising, Side.FIRMS, take_join, example_stable)
            assert info.value.code == "not-canonical"


class TestProfileJoinMeet:
    """The default join and meet are swept off the pointwise max or min of the
    two profiles over J.  They must equal the termwise join and meet over the
    split and over the lcm refinement, for both sides and every ordered pair."""

    @staticmethod
    def stable_sets(monkeypatch, example_stable, corpus):
        """Golden, 3+2, 2+2+2 and 4+4+4 blocks, the mixed markets and their
        unions, and the corpus: 210 stable sets."""
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 144)
        mixed = [mixed_market(seed) for seed in MIXED_SEEDS]
        markets = [block_diagonal_market(sizes) for sizes in ((3, 2), (2, 2, 2), (4, 4, 4))]
        markets += mixed + [disjoint_union(a, b) for a, b in zip(mixed[::2], mixed[1::2])]
        return [example_stable] + [enumerate_stable(m) for m in markets] + [c.stable for c in corpus]

    def test_equals_the_termwise_join_and_meet(self, monkeypatch, example_stable, corpus):
        stable_sets = self.stable_sets(monkeypatch, example_stable, corpus)
        assert len(stable_sets) == 210
        compared = 0
        for stable in stable_sets:
            rng = random.Random(len(stable) + 43)
            inputs = [random_lottery(rng, stable) for _ in range(6)]
            for x, y in itertools.product(inputs, repeat=2):
                alignment = _refined(x, y, stable)
                for side, (combine, take_join) in itertools.product(
                    Side, ((join_random, True), (meet_random, False))
                ):
                    swept = combine(x, y, stable, side)
                    assert swept == _combine_termwise(alignment, side, take_join, stable), (x, y, side)
                    assert swept == combine(x, y, stable, side, method="lcm"), (x, y, side)
                    compared += 1
        assert compared == 210 * 36 * 4

    def test_reads_each_term_once_and_combines_no_members(
        self, monkeypatch, raw_x, canonical_x, canonical_y, example_stable
    ):
        calls = []
        for owner, name in (
            (lottery_module, "decompose"),
            (lottery_module, "_aligned"),
            (lottery_module, "_combine_termwise"),
            (StableSet, "join"),
            (StableSet, "meet"),
            (StableSet, "index"),
        ):
            def counting(*args, name=name, kernel=getattr(owner, name)):
                calls.append(name)
                return kernel(*args)

            monkeypatch.setattr(owner, name, counting)
        for x, y in itertools.product((raw_x, canonical_x, canonical_y), repeat=2):
            for side, combine in itertools.product(Side, (join_random, meet_random)):
                calls.clear()
                combine(x, y, example_stable, side)
                assert calls == ["index"] * (len(x) + len(y)), (x, y, side)


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

    def test_foreign_market_rejected(self, canonical_x, example_market):
        # Lotteries over a 2x2 market handed over with the golden 4x4 one.
        small = [Matching.from_edges(2, 2, edges) for edges in ([(0, 0), (1, 1)], [(0, 1), (1, 0)])]
        one_term = Lottery.degenerate(small[0])
        two_terms = lottery(("1/2", small[0]), ("1/2", small[1]))
        for refine in (split, lcm_refine):
            for x, y in ((one_term, one_term), (two_terms, two_terms), (canonical_x, one_term)):
                with pytest.raises(ValidationError) as info:
                    refine(x, y, example_market)
                assert info.value.code == "mismatched-market"

    def test_slice_guard_refuses_a_huge_refinement(self, example_stable, example_market, nus):
        # e = 999983 * 999979, about 10**12 slices; split needs three terms.
        x = lottery(("1/999983", nus[0]), ("999982/999983", nus[3]))
        y = lottery(("1/999979", nus[0]), ("999978/999979", nus[3]))
        with pytest.raises(CapacityError) as info:
            lcm_refine(x, y, example_market)
        assert str(999983 * 999979) in str(info.value)
        assert str(LCM_SLICE_GUARD) in str(info.value)
        for combine in (join_random, meet_random):
            with pytest.raises(CapacityError):
                combine(x, y, example_stable, Side.FIRMS, method="lcm")
        assert split(x, y, example_market).gamma == fr("1/999983 4/999962000357 999978/999979")
        assert join_random(x, y, example_stable, Side.FIRMS) == lottery(
            ("1/999979", nus[0]), ("999978/999979", nus[3])
        )

    def test_slice_guard_edge(self, example_stable, nus):
        # e = 10**6 is exactly the guard: the lcm join and meet answer, and
        # agree with split.  e = 101 * 9901 = 10**6 + 1 is one slice past it.
        x = lottery(("1/1000000", nus[0]), ("999999/1000000", nus[3]))
        y = Lottery.degenerate(nus[1])
        assert (x.denominator, y.denominator) == (LCM_SLICE_GUARD, 1)
        for combine in (join_random, meet_random):
            assert combine(x, y, example_stable, Side.FIRMS, method="lcm") == combine(
                x, y, example_stable, Side.FIRMS
            )
        x = lottery(("1/101", nus[0]), ("100/101", nus[3]))
        y = lottery(("1/9901", nus[0]), ("9900/9901", nus[3]))
        for combine in (join_random, meet_random):
            with pytest.raises(CapacityError) as info:
                combine(x, y, example_stable, Side.FIRMS, method="lcm")
            assert str(LCM_SLICE_GUARD + 1) in str(info.value)

    def test_slice_guard_states_the_digits_of_a_count_too_long_to_print(self, example_stable, nus):
        # Denominators of 3,000 digits each: e has 5,999, past the
        # interpreter's int-to-str digit limit, so its length is stated.
        long_a, long_b = int("1" * 3000), int("1" * 2998 + "13")
        x = Lottery(((Fraction(1, long_a), nus[0]), (Fraction(long_a - 1, long_a), nus[3])))
        y = Lottery(((Fraction(1, long_b), nus[0]), (Fraction(long_b - 1, long_b), nus[3])))
        calls = [lambda: lcm_refine(x, y, example_stable.market)]
        for combine, side in itertools.product((join_random, meet_random), Side):
            calls.append(lambda c=combine, side=side: c(x, y, example_stable, side, method="lcm"))
        for call in calls:
            with pytest.raises(CapacityError) as info:
                call()
            assert str(info.value) == (
                "the lcm refinement needs a slice count of 5999 digits; the budget is 1000000 "
                "(use the split refinement)"
            )

    @pytest.mark.parametrize("market", ["golden", "block"])
    def test_agrees_with_split_at_large_e(self, market, example_stable):
        stable = example_stable if market == "golden" else enumerate_stable(block_diagonal_market((3, 2)))
        rng = random.Random(23)
        primes = [p for p in range(31, 71) if all(p % d for d in range(2, p))]
        checked = 0
        while checked < 8:
            x, y = (prime_weighted_lottery(rng, stable, rng.choice(primes)) for _ in range(2))
            cx, cy = decompose(x, stable), decompose(y, stable)
            alignment = lcm_refine(cx, cy, stable.market)
            if not 1000 <= len(alignment) <= 5000:
                continue
            checked += 1
            assert alignment.left_lottery() == cx
            assert alignment.right_lottery() == cy
            parts = split(cx, cy, stable.market)
            units = lambda side: tuple(m for c, m in zip(parts.counts, side) for _ in range(c))
            assert (alignment.denominator, alignment.left, alignment.right) == (
                parts.denominator, units(parts.left), units(parts.right)
            )
            for side in Side:
                for combine in (join_random, meet_random):
                    assert combine(x, y, stable, side, method="lcm") == combine(x, y, stable, side)


def prime_weighted_lottery(rng, stable, prime):
    """Two to four distinct stable matchings with weights in units of 1/prime."""
    count = rng.randint(2, min(4, len(stable)))
    picks = rng.sample(range(len(stable)), count)
    cuts = sorted(rng.sample(range(1, prime), count - 1))
    units = [b - a for a, b in zip([0] + cuts, cuts + [prime])]
    return Lottery.from_pairs([(Fraction(n, prime), stable[i]) for n, i in zip(units, picks)])


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
