"""Matchings, incidence matrices, and the stability predicate."""

import random
from fractions import Fraction

import pytest

from matchlattice import (
    AgentId,
    Market,
    Matching,
    RankedPreference,
    RationalMatrix,
    Side,
    ValidationError,
    dominates,
    find_blocking,
    is_stable,
)
from oracles import stable_oracle

ZERO, ONE = Fraction(0), Fraction(1)


def random_matching(rng, nf=4, nw=4):
    edges = [(i, j) for i in range(nf) for j in range(nw) if rng.random() < 0.4]
    return Matching.from_edges(nf, nw, edges)


class TestMatching:
    def test_symmetry_of_derived_worker_view(self):
        rng = random.Random(11)
        for _ in range(50):
            m = random_matching(rng)
            for i in range(4):
                for j in range(4):
                    assert (j in m.firm_set(i)) == (i in m.worker_set(j))

    def test_constructors_agree(self):
        m = Matching.from_edges(2, 3, [(0, 2), (1, 0), (1, 1)])
        assert m == Matching.from_firm_sets(3, [{2}, {0, 1}])
        assert m == Matching.from_worker_masks(2, m.worker_masks)
        assert m.edges() == {(0, 2), (1, 0), (1, 1)}

    def test_assigned_by_agent(self):
        m = Matching.from_edges(2, 2, [(0, 1)])
        assert m.assigned(AgentId(Side.FIRMS, 0)) == {1}
        assert m.assigned(AgentId(Side.WORKERS, 1)) == {0}
        assert m.assigned(AgentId(Side.WORKERS, 0)) == frozenset()

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValidationError):
            Matching.from_edges(2, 2, [(0, 2)])
        with pytest.raises(ValidationError):
            Matching.from_edges(2, 2, [(2, 0)])

    def test_indices_outside_the_opposite_side_refused(self):
        for build in (lambda: Matching((1 << 9,), 4), lambda: Matching.from_worker_masks(2, (1 << 5,))):
            with pytest.raises(ValidationError) as info:
                build()
            assert info.value.code == "unknown-agent"

    def test_side_views_and_transpose_round_trip(self, example_market):
        rng = random.Random(14)
        for _ in range(50):
            nf, nw = rng.randint(0, 5), rng.randint(0, 5)
            m = Matching(tuple(rng.randrange(1 << nw) for _ in range(nf)), nw)
            assert Matching.from_worker_masks(nf, m.worker_masks) == m
            assert (m.masks(Side.FIRMS), m.masks(Side.WORKERS)) == (m.firm_masks, m.worker_masks)
        market = example_market
        assert (market.prefs(Side.FIRMS), market.prefs(Side.WORKERS)) == (market.firm_prefs, market.worker_prefs)

    def test_empty(self):
        m = Matching.empty(3, 2)
        assert m.edges() == frozenset()
        assert m.shape == (3, 2)


@pytest.mark.parametrize("side", list(Side), ids=str)
@pytest.mark.parametrize("index", [-1, 4, True, 1.0, "1"], ids=repr)
def test_agent_index_must_be_an_int_in_range(
    example_market, example_stable, nus, canonical_x, canonical_y, side, index
):
    # A bool, a float or a string is not an index, and -1 does not count
    # from the end: each is refused instead of read as some other agent.
    agent = AgentId(side, index)
    for call in (
        lambda: example_market.pref(agent),
        lambda: nus[0].assigned_mask(agent),
        lambda: nus[0].assigned(agent),
        lambda: dominates(canonical_x, canonical_y, example_stable, agent),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        assert info.value.code == "unknown-agent"


class TestIncidence:
    def test_rows_of_reference_matchings(self, nus):
        # nu4's first firm holds the last two workers; nu1's second firm too.
        assert nus[3].incidence().rows[0] == (ZERO, ZERO, ONE, ONE)
        assert nus[0].incidence().rows[1] == (ZERO, ZERO, ONE, ONE)

    def test_empty_matching_is_all_zero(self):
        inc = Matching.empty(2, 2).incidence()
        assert all(entry == 0 for row in inc.rows for entry in row)

    def test_entries_match_edges(self):
        rng = random.Random(12)
        for _ in range(20):
            m = random_matching(rng)
            inc = m.incidence()
            for i in range(4):
                for j in range(4):
                    assert inc.entry(i, j) == (1 if j in m.firm_set(i) else 0)

    def test_row_and_column_sums(self, nus):
        inc = nus[0].incidence()
        assert inc.row_sums() == (2, 2, 2, 2)
        assert inc.col_sums() == (2, 2, 2, 2)
        assert inc.support() == nus[0].edges()


class TestRationalMatrix:
    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValidationError):
            RationalMatrix(((Fraction(3, 2),),))
        with pytest.raises(ValidationError):
            RationalMatrix(((Fraction(-1, 2),),))

    def test_rejects_non_fraction_entries(self):
        with pytest.raises(ValidationError):
            RationalMatrix(((0.5,),))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValidationError):
            RationalMatrix(((ZERO, ONE), (ZERO,)))


class TestStability:
    def test_reference_matchings_are_stable(self, example_market, nus):
        for m in nus:
            assert is_stable(m, example_market)

    def test_empty_matching_is_blocked(self, example_market):
        witness = find_blocking(Matching.empty(4, 4), example_market)
        assert isinstance(witness, tuple)
        firm, worker = witness
        # the reported pair really blocks: both sides choose each other
        fpref = example_market.firm_prefs[firm.index]
        wpref = example_market.worker_prefs[worker.index]
        assert worker.index in fpref.choice({worker.index})
        assert firm.index in wpref.choice({firm.index})

    def test_everything_unacceptable_leaves_empty_stable(self):
        market = Market(
            tuple(RankedPreference(AgentId(Side.FIRMS, i), 2, []) for i in range(2)),
            tuple(RankedPreference(AgentId(Side.WORKERS, j), 2, []) for j in range(2)),
        )
        assert is_stable(Matching.empty(2, 2), market)
        assert not is_stable(Matching.from_edges(2, 2, [(0, 0)]), market)

    def test_individual_rationality_witness_is_an_agent(self, example_market):
        # f1 would drop everything from the unranked pair {w1,w4}.
        m = Matching.from_firm_sets(4, [{0, 3}, (), (), ()])
        witness = find_blocking(m, example_market)
        assert witness == AgentId(Side.FIRMS, 0)

    def test_firms_are_tested_for_individual_rationality_first(self, example_market):
        # f4 drops w1 from the unranked pair {w1,w4}; w1 drops f1 from {f1,f2,f4}.
        m = Matching.from_firm_sets(4, [{0}, {0}, (), {0, 3}])
        for agent in (AgentId(Side.FIRMS, 3), AgentId(Side.WORKERS, 0)):
            pref = example_market.pref(agent)
            assert pref.choice_mask(m.assigned_mask(agent)) != m.assigned_mask(agent)
        assert find_blocking(m, example_market) == AgentId(Side.FIRMS, 3)

    def test_agrees_with_literal_oracle_on_random_assignments(self, example_market):
        rng = random.Random(13)
        for _ in range(300):
            m = random_matching(rng)
            assert is_stable(m, example_market) == stable_oracle(m, example_market)

    def test_shape_mismatch_rejected(self, example_market):
        with pytest.raises(ValidationError):
            is_stable(Matching.empty(2, 2), example_market)
