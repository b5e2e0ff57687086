"""Stable-set enumeration, the firms' partial order, and the deterministic
join/meet operations."""

import itertools
import random

import pytest

from matchlattice import (
    AgentId,
    AxiomError,
    CapacityError,
    Cmp,
    Market,
    Matching,
    RankedPreference,
    ResponsivePreference,
    Side,
    ValidationError,
    compare_firms,
    compare_workers,
    enumerate_stable,
    hasse_edges,
    join_f,
    meet_f,
    multi_join_f,
    multi_meet_f,
    rht_check,
    to_dot,
)
from oracles import (
    enumerate_oracle,
    firm_at_least_oracle,
    stable_oracle,
    worker_at_least_oracle,
)


def diagonal_market(n=3):
    return Market(
        tuple(RankedPreference(AgentId(Side.FIRMS, i), n, [(i,)]) for i in range(n)),
        tuple(RankedPreference(AgentId(Side.WORKERS, j), n, [(j,)]) for j in range(n)),
    )


def small_rotation_market():
    rot = lambda base, k: base[k:] + base[:k]
    return Market(
        tuple(
            ResponsivePreference(AgentId(Side.FIRMS, i), 3, 1, rot([0, 1, 2], i))
            for i in range(3)
        ),
        tuple(
            ResponsivePreference(AgentId(Side.WORKERS, j), 3, 1, rot([2, 1, 0], j))
            for j in range(3)
        ),
    )


class TestEnumerate:
    def test_example_matches_full_edge_sweep(self, example_market, example_stable):
        assert set(example_stable) == enumerate_oracle(example_market)

    def test_example_contains_the_reference_four(self, example_stable, nus):
        for m in nus:
            assert m in example_stable

    def test_all_listed_matchings_pass_the_stability_oracle(self, example_market, example_stable):
        for m in example_stable:
            assert stable_oracle(m, example_market)

    def test_listing_is_sorted_by_firm_assignment_encoding(self, example_stable):
        masks = [m.firm_masks for m in example_stable]
        assert masks == sorted(masks)

    def test_small_markets_match_full_edge_sweep(self):
        for market in (diagonal_market(2), diagonal_market(3), small_rotation_market()):
            assert set(enumerate_stable(market)) == enumerate_oracle(market)

    def test_diagonal_market_has_single_matching(self):
        stable = enumerate_stable(diagonal_market(3))
        assert len(stable) == 1
        assert stable[0] == Matching.from_edges(3, 3, [(0, 0), (1, 1), (2, 2)])

    def test_capacity_guard(self):
        market = Market(
            tuple(ResponsivePreference(AgentId(Side.FIRMS, i), 5, 1, range(5)) for i in range(6)),
            tuple(ResponsivePreference(AgentId(Side.WORKERS, j), 6, 1, range(6)) for j in range(5)),
        )
        with pytest.raises(CapacityError):
            enumerate_stable(market)

    def test_axiom_failure_reported_with_witness(self):
        bad = RankedPreference(AgentId(Side.FIRMS, 0), 3, [(0, 1), (2,), (0,), (1,)])
        market = Market(
            (bad,) + tuple(RankedPreference(AgentId(Side.FIRMS, i), 3, [(i,)]) for i in (1, 2)),
            tuple(RankedPreference(AgentId(Side.WORKERS, j), 3, [(j,)]) for j in range(3)),
        )
        with pytest.raises(AxiomError) as info:
            enumerate_stable(market)
        assert info.value.agent == AgentId(Side.FIRMS, 0)
        assert info.value.witness is not None

    def test_membership_and_index(self, example_stable, nus):
        position = example_stable.index(nus[0])
        assert example_stable[position] == nus[0]
        outsider = Matching.empty(4, 4)
        assert outsider not in example_stable
        with pytest.raises(ValidationError):
            example_stable.index(outsider)


class TestFirmOrder:
    def test_reference_relations(self, example_market, nus):
        n1, n2, n3, n4 = nus
        assert compare_firms(n1, n4, example_market) is Cmp.GREATER
        assert compare_firms(n4, n1, example_market) is Cmp.LESS
        assert compare_firms(n2, n3, example_market) is Cmp.INCOMPARABLE
        assert compare_firms(n1, n2, example_market) is Cmp.GREATER
        assert compare_firms(n1, n3, example_market) is Cmp.GREATER
        assert compare_firms(n2, n4, example_market) is Cmp.GREATER
        assert compare_firms(n3, n4, example_market) is Cmp.GREATER

    def test_table_is_consistent(self, example_stable):
        size = len(example_stable)
        for i in range(size):
            assert example_stable.cmp_f(i, i) is Cmp.EQUAL
            for j in range(size):
                assert example_stable.cmp_f(i, j) is example_stable.cmp_f(j, i).flipped
        greater = {
            (i, j)
            for i in range(size)
            for j in range(size)
            if example_stable.cmp_f(i, j) is Cmp.GREATER
        }
        for i, j in greater:
            for k in range(size):
                if (j, k) in greater:
                    assert (i, k) in greater

    def test_agrees_with_choice_criterion_oracle(self, example_market, example_stable):
        for a in example_stable:
            for b in example_stable:
                at_least = compare_firms(a, b, example_market) in (Cmp.GREATER, Cmp.EQUAL)
                assert at_least == firm_at_least_oracle(a, b, example_market)

    def test_firms_and_workers_are_opposed_on_stable_pairs(self, example_market, example_stable):
        for a in example_stable:
            for b in example_stable:
                assert compare_firms(a, b, example_market) is compare_workers(
                    a, b, example_market
                ).flipped

    def test_extremes_exist(self, example_stable, nus):
        assert example_stable.firm_optimal == nus[0]
        assert example_stable.firm_pessimal == nus[3]


class TestJoinMeet:
    def test_reference_join_and_meet(self, example_market, nus):
        n1, n2, n3, n4 = nus
        assert join_f(n2, n3, example_market) == n1
        assert meet_f(n2, n3, example_market) == n4
        assert join_f(n1, n4, example_market) == n1
        assert meet_f(n1, n4, example_market) == n4

    def test_idempotent(self, example_market, nus):
        for m in nus:
            assert join_f(m, m, example_market) == m
            assert meet_f(m, m, example_market) == m

    def test_results_are_stable_members(self, example_market, example_stable):
        for a, b in itertools.product(example_stable, repeat=2):
            assert join_f(a, b, example_market) in example_stable
            assert meet_f(a, b, example_market) in example_stable

    def test_lattice_axioms(self, example_market, example_stable):
        ms = list(example_stable)
        for a, b in itertools.product(ms, repeat=2):
            assert join_f(a, b, example_market) == join_f(b, a, example_market)
            assert meet_f(a, b, example_market) == meet_f(b, a, example_market)
            assert join_f(a, meet_f(a, b, example_market), example_market) == a
            assert meet_f(a, join_f(a, b, example_market), example_market) == a
        rng = random.Random(17)
        for _ in range(200):
            a, b, c = (rng.choice(ms) for _ in range(3))
            assert join_f(join_f(a, b, example_market), c, example_market) == join_f(
                a, join_f(b, c, example_market), example_market
            )
            assert meet_f(meet_f(a, b, example_market), c, example_market) == meet_f(
                a, meet_f(b, c, example_market), example_market
            )

    def test_duality_of_the_four_names(self, example_market, example_stable):
        # The firm join is the worker meet and the firm meet the worker join:
        # on the stable set the workers' order is the firms' order reversed.
        ms = list(example_stable)
        for a, b in itertools.product(ms, repeat=2):
            assert compare_workers(a, b, example_market) == compare_firms(a, b, example_market).flipped
            below = [m for m in ms if compare_workers(a, m, example_market).at_least
                     and compare_workers(b, m, example_market).at_least]
            above = [m for m in ms if compare_workers(m, a, example_market).at_least
                     and compare_workers(m, b, example_market).at_least]
            worker_meet = [m for m in below
                           if all(compare_workers(m, o, example_market).at_least for o in below)]
            worker_join = [m for m in above
                           if all(compare_workers(o, m, example_market).at_least for o in above)]
            assert worker_meet == [join_f(a, b, example_market)]
            assert worker_join == [meet_f(a, b, example_market)]

    def test_join_is_least_upper_bound_by_exhaustive_scan(self, example_market, example_stable):
        for a, b in itertools.product(example_stable, repeat=2):
            top = join_f(a, b, example_market)
            assert firm_at_least_oracle(top, a, example_market)
            assert firm_at_least_oracle(top, b, example_market)
            for other in example_stable:
                if firm_at_least_oracle(other, a, example_market) and firm_at_least_oracle(
                    other, b, example_market
                ):
                    assert firm_at_least_oracle(other, top, example_market)

    def test_meet_is_greatest_lower_bound_by_exhaustive_scan(self, example_market, example_stable):
        for a, b in itertools.product(example_stable, repeat=2):
            bottom = meet_f(a, b, example_market)
            assert firm_at_least_oracle(a, bottom, example_market)
            assert firm_at_least_oracle(b, bottom, example_market)
            for other in example_stable:
                if firm_at_least_oracle(a, other, example_market) and firm_at_least_oracle(
                    b, other, example_market
                ):
                    assert firm_at_least_oracle(bottom, other, example_market)

    def test_firm_join_is_worker_greatest_lower_bound(self, example_market, example_stable):
        for a, b in itertools.product(example_stable, repeat=2):
            top = join_f(a, b, example_market)
            assert worker_at_least_oracle(a, top, example_market)
            assert worker_at_least_oracle(b, top, example_market)
            for other in example_stable:
                if worker_at_least_oracle(a, other, example_market) and worker_at_least_oracle(
                    b, other, example_market
                ):
                    assert worker_at_least_oracle(top, other, example_market)

    def test_firm_meet_is_worker_least_upper_bound(self, example_market, example_stable):
        for a, b in itertools.product(example_stable, repeat=2):
            bottom = meet_f(a, b, example_market)
            assert worker_at_least_oracle(bottom, a, example_market)
            assert worker_at_least_oracle(bottom, b, example_market)
            for other in example_stable:
                if worker_at_least_oracle(other, a, example_market) and worker_at_least_oracle(
                    other, b, example_market
                ):
                    assert worker_at_least_oracle(other, bottom, example_market)

    def test_unstable_input_rejected(self, example_market, nus):
        unstable = Matching.from_firm_sets(4, [{0, 3}, (), (), ()])
        for call in (
            lambda: join_f(unstable, nus[0], example_market),
            lambda: meet_f(nus[0], unstable, example_market),
            lambda: multi_join_f([nus[1], unstable], example_market),
            lambda: multi_meet_f([unstable], example_market),
        ):
            with pytest.raises(ValidationError) as info:
                call()
            assert info.value.code == "not-stable"


class TestMultiJoinMeet:
    def test_reference_family_joins(self, example_market, nus):
        n1, n2, n3, n4 = nus
        assert multi_join_f(nus, example_market) == n1
        assert multi_join_f([n2, n4], example_market) == n2
        assert multi_meet_f(nus, example_market) == n4

    def test_singleton(self, example_market, nus):
        assert multi_join_f([nus[1]], example_market) == nus[1]
        assert multi_meet_f([nus[1]], example_market) == nus[1]

    def test_equals_pairwise_folds_in_any_order(self, example_market, example_stable):
        rng = random.Random(23)
        ms = list(example_stable)
        for _ in range(40):
            family = rng.sample(ms, rng.randint(1, 5))
            joined = multi_join_f(family, example_market)
            left = family[0]
            for m in family[1:]:
                left = join_f(left, m, example_market)
            right = family[-1]
            for m in reversed(family[:-1]):
                right = join_f(m, right, example_market)
            assert joined == left == right
            met = multi_meet_f(family, example_market)
            fold = family[0]
            for m in family[1:]:
                fold = meet_f(fold, m, example_market)
            assert met == fold

    def test_empty_family_rejected(self, example_market):
        with pytest.raises(ValidationError):
            multi_join_f([], example_market)
        with pytest.raises(ValidationError):
            multi_meet_f([], example_market)


class TestRuralHospital:
    def test_example_counts_are_all_two(self, example_stable):
        assert rht_check(example_stable)
        for m in example_stable:
            assert all(mask.bit_count() == 2 for mask in m.firm_masks)
            assert all(mask.bit_count() == 2 for mask in m.worker_masks)

    def test_singleton_stable_set(self):
        assert rht_check(enumerate_stable(diagonal_market(2)))


class TestHasseAndDot:
    def test_edges_are_the_transitive_reduction(self, example_stable):
        size = len(example_stable)
        greater = {
            (i, j)
            for i in range(size)
            for j in range(size)
            if example_stable.cmp_f(i, j) is Cmp.GREATER
        }
        expected = {
            (i, j)
            for i, j in greater
            if not any((i, k) in greater and (k, j) in greater for k in range(size))
        }
        assert set(hasse_edges(example_stable)) == expected

    def test_dot_lists_every_matching_and_edge(self, example_stable):
        dot = to_dot(example_stable)
        assert dot.startswith("digraph")
        node_lines = [
            line for line in dot.splitlines() if line.endswith('";') and "->" not in line
        ]
        edge_lines = [line for line in dot.splitlines() if "->" in line]
        assert len(node_lines) == len(example_stable)
        assert len(edge_lines) == len(hasse_edges(example_stable))

    def test_singleton_dot(self):
        stable = enumerate_stable(diagonal_market(2))
        dot = to_dot(stable)
        assert '"m1";' in dot
        assert "->" not in dot
