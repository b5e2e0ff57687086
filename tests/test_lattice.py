"""Stable-set enumeration, the firms' partial order, and the deterministic
join/meet operations."""

import gc
import itertools
import math
import random
import time

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
    StableSet,
    ValidationError,
    compare_firms,
    compare_workers,
    enumerate_stable,
    find_blocking,
    generate_responsive_market,
    hasse_edges,
    join_f,
    meet_f,
    multi_join_f,
    multi_meet_f,
    profile_violations,
    rht_check,
    to_dot,
)
from matchlattice import lattice, prefs
from matchlattice.lattice import _deferred_acceptance
from conftest import (
    MIXED_SEEDS,
    block_diagonal_market,
    build_example_market,
    disjoint_union,
    mixed_market,
    one_firm_market,
)
from oracles import (
    _bracketed_rows,
    _search,
    block_product_oracle,
    choice_oracle,
    enumerate_oracle,
    enumerate_product_oracle,
    firm_at_least_oracle,
    firm_table_oracle,
    hasse_oracle,
    powerset,
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


def responsive_market(seed, size, quota):
    """Every agent accepts everyone, with one quota and seeded priorities.
    Quota ``size`` makes every subset individually rational (the full-IR
    market, 2^(size*size) firm-side products); quota 2 at size 5 gives each
    firm 1 + 5 + 10 = 16 rows, 16^5 = 1,048,576 products."""
    rng = random.Random(seed)
    return Market(
        tuple(
            ResponsivePreference(AgentId(Side.FIRMS, i), size, quota, rng.sample(range(size), size))
            for i in range(size)
        ),
        tuple(
            ResponsivePreference(AgentId(Side.WORKERS, j), size, quota, rng.sample(range(size), size))
            for j in range(size)
        ),
    )


def extremes(market):
    """The firm-proposing and the worker-proposing deferred-acceptance matchings."""
    nf, nw = market.shape
    firm_side = Matching(_deferred_acceptance(market.firm_prefs, market.worker_prefs), nw)
    worker_side = Matching.from_worker_masks(
        nf, _deferred_acceptance(market.worker_prefs, market.firm_prefs)
    )
    return firm_side, worker_side


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


class TestBracketedEnumeration:
    """The walk from the firm-optimal to the worker-optimal matching: its
    members, their order and the firm table against the unpruned product of
    individually rational rows (``enumerate_product_oracle`` in
    ``tests/oracles.py``), and its two ends against deferred acceptance."""

    def test_corpus_matches_product_oracle(self, corpus):
        for case in corpus:
            assert list(case.stable) == enumerate_product_oracle(case.market), case.seed

    @pytest.mark.parametrize(
        "build, oracle, size",
        [
            (None, enumerate_product_oracle, 16),
            (lambda: responsive_market(0, 4, 4), enumerate_product_oracle, 1),
            (block_diagonal_market, enumerate_product_oracle, 6),
            # 5^12 products of rows; the oracle enumerates each block alone.
            (
                lambda: block_diagonal_market((4, 4, 4)),
                lambda _: block_product_oracle([block_diagonal_market((4,))] * 3),
                64,
            ),
        ],
        ids=["golden", "full-ir-4x4", "block-3+2", "latin-4^3"],
    )
    def test_order_and_table_match_product_oracle(self, example_market, monkeypatch, build, oracle, size):
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 144)
        market = example_market if build is None else build()
        stable = enumerate_stable(market)
        expected = oracle(market)
        assert len(expected) == size
        assert list(stable.matchings) == expected
        assert stable.firm_table == firm_table_oracle(expected, market)

    def test_deferred_acceptance_gives_the_extremes_on_golden(self, example_market, example_stable, nus):
        firm_side, worker_side = extremes(example_market)
        assert firm_side == example_stable.firm_optimal == nus[0]
        assert worker_side == example_stable.firm_pessimal == nus[3]

    def test_deferred_acceptance_gives_the_extremes_on_corpus(self, corpus):
        for case in corpus:
            firm_side, worker_side = extremes(case.market)
            assert firm_side == case.stable.firm_optimal, case.seed
            assert worker_side == case.stable.firm_pessimal, case.seed

    def test_five_by_five_quota_two_market_enumerates_quickly(self):
        market = responsive_market(32, 5, 2)  # a seed with a five-element stable set
        for pref in market.firm_prefs:
            rows = [row for row in map(frozenset, powerset(range(5))) if choice_oracle(pref, row) == row]
            assert len(rows) == 16
        start = time.perf_counter()
        stable = enumerate_stable(market)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"enumeration took {elapsed:.2f} s"
        assert len(stable) == 5
        for m in stable:
            assert stable_oracle(m, market)
        for a, b in itertools.product(stable, repeat=2):
            assert join_f(a, b, market) in stable
            assert meet_f(a, b, market) in stable


def rotation_market(size=5, quota=2):
    """Firm i ranks workers i, i+1, ... and worker j ranks firms j+1, j+2, ...
    (mod size), everyone with the same quota.  At 5x5 with quota 2 every firm
    keeps 7 bracketed rows, a product of 7^5 = 16,807 candidates."""
    return Market(
        tuple(
            ResponsivePreference(AgentId(Side.FIRMS, i), size, quota, [(i + k) % size for k in range(size)])
            for i in range(size)
        ),
        tuple(
            ResponsivePreference(AgentId(Side.WORKERS, j), size, quota, [(j + 1 + k) % size for k in range(size)])
            for j in range(size)
        ),
    )


class TestSearch:
    """The walk against the screened product of the rows that the oracle
    copy of ``_bracketed_rows`` in ``tests/oracles.py`` keeps between the two
    deferred-acceptance matchings, and on markets too large for any product:
    its speed, its garbage and the axiom-size guard.  ``TestWalk`` checks it
    against the oracle copy of ``_search``."""

    def test_rotation_market_matches_the_screened_product(self):
        market = rotation_market()
        nw = market.num_workers
        top, bottom = extremes(market)
        rows_per_firm = [
            _bracketed_rows(pref, nw, high, low)
            for pref, high, low in zip(market.firm_prefs, top.firm_masks, bottom.firm_masks)
        ]
        candidates = [Matching(rows, nw) for rows in itertools.product(*rows_per_firm)]
        assert len(candidates) == 16_807
        screened = sorted(
            (m for m in candidates if find_blocking(m, market) is None), key=lambda m: m.firm_masks
        )
        assert len(screened) == 4
        assert all(stable_oracle(m, market) for m in screened)
        assert list(enumerate_stable(market)) == screened

    def test_three_latin_blocks_past_the_cell_guard(self, monkeypatch):
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 144)
        market = block_diagonal_market((4, 4, 4))
        start = time.perf_counter()
        stable = enumerate_stable(market)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"enumeration took {elapsed:.2f} s"
        assert len(set(stable)) == len(stable) == 4 ** 3
        for m in stable:
            assert stable_oracle(m, market)

    def test_four_latin_blocks_order_their_members_quickly(self, monkeypatch):
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 256)
        market = block_diagonal_market((4, 4, 4, 4))
        start = time.perf_counter()
        stable = enumerate_stable(market)
        edges = hasse_edges(stable)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"enumeration and covers took {elapsed:.2f} s"
        # A product of four 4-chains: each member steps down one of the four
        # blocks' three covers while the other three blocks stay put.
        assert len(set(stable)) == len(stable) == 4 ** 4
        assert len(edges) == 4 * 3 * 4 ** 3

    def test_enumeration_leaves_no_cyclic_garbage(self):
        # Enumeration must not leave a cycle that keeps the market alive
        # until the cyclic collector runs, as the nested recursion of the
        # search it replaced once did.
        market = build_example_market()
        gc.collect()
        gc.disable()
        try:
            enumerate_stable(market)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_responsive_agents_keep_the_axiom_size_guard(self):
        # 17 cells pass the enumeration guard; the firm's 17 workers exceed
        # the axiom budget even though a responsive firm is never searched.
        with pytest.raises(CapacityError):
            enumerate_stable(one_firm_market(17))


def searched(market):
    """The stable set from the backtracking search over the rows bracketed by
    the two deferred-acceptance matchings, sorted by firm-assignment encoding."""
    top, bottom = extremes(market)
    rows_per_firm = [
        _bracketed_rows(pref, market.num_workers, high, low)
        for pref, high, low in zip(market.firm_prefs, top.firm_masks, bottom.firm_masks)
    ]
    need = [mask.bit_count() for mask in top.worker_masks]
    return sorted(_search(market, rows_per_firm, need), key=lambda m: m.firm_masks)


def product_space(market):
    """How many matchings :func:`enumerate_product_oracle` screens."""
    rows = [
        sum(choice_oracle(pref, frozenset(row)) == frozenset(row) for row in powerset(range(market.num_workers)))
        for pref in market.firm_prefs
    ]
    return math.prod(rows)


class TestWalk:
    """The walk down from the firm-optimal matching against the backtracking
    search and the screened products it replaced."""

    @pytest.mark.parametrize(
        "family", ["golden", "corpus", "block-3+2", "block-2+2+2", "block-4+4+4", "mixed", "mixed-unions"]
    )
    def test_matches_the_search_and_the_products(self, request, monkeypatch, family):
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 144)
        # (market, the product oracle's answer or None to compute it when small)
        if family == "golden":
            cases = [(request.getfixturevalue("example_market"), None)]
        elif family == "corpus":
            cases = [(case.market, None) for case in request.getfixturevalue("corpus")]
        elif family.startswith("block-"):
            sizes = tuple(map(int, family[len("block-"):].split("+")))
            blocks = [block_diagonal_market((n,)) for n in sizes]
            cases = [(block_diagonal_market(sizes), block_product_oracle(blocks))]
        else:
            mixed = [mixed_market(seed) for seed in MIXED_SEEDS]
            if family == "mixed":
                cases = [(market, None) for market in mixed]
            else:
                pairs = zip(mixed[::2], mixed[1::2])
                cases = [(disjoint_union(a, b), block_product_oracle([a, b])) for a, b in pairs]
        for market, expected in cases:
            walked = list(enumerate_stable(market))
            assert walked == searched(market), market
            if expected is None and product_space(market) <= 1_000:
                expected = enumerate_product_oracle(market)
            if expected is not None:
                assert walked == expected, market

    def test_mixed_seeds_qualify(self):
        # MIXED_SEEDS holds 51 seeds whose markets pass both axiom checks
        # and have at least two stable matchings, some of them ranked.
        assert len(MIXED_SEEDS) == 51
        ranked = 0
        for seed in MIXED_SEEDS:
            market = mixed_market(seed)
            assert profile_violations(market) == []
            assert len(enumerate_stable(market)) >= 2
            ranked += any(isinstance(p, RankedPreference) for p in market.firm_prefs + market.worker_prefs)
        assert ranked > 40

    @pytest.mark.parametrize("n, axiom_guard", [(12, 16), (20, 20)])
    def test_quota_two_markets_past_the_guards(self, monkeypatch, n, axiom_guard):
        # Every agent has quota 2 and the stable set is a chain of n - 1
        # members; the search took seconds at n = 10.
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", n * n)
        monkeypatch.setattr(prefs, "AXIOM_GUARD", axiom_guard)
        market = generate_responsive_market(1, n, n, max_quota=2).build_market()
        start = time.perf_counter()
        stable = enumerate_stable(market)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"enumeration took {elapsed:.2f} s"
        assert len(set(stable)) == len(stable) == n - 1
        for m in stable:
            assert stable_oracle(m, market)
        for a, b in itertools.product(stable, repeat=2):
            assert join_f(a, b, market) in stable
            assert meet_f(a, b, market) in stable
        assert rht_check(stable)
        masks, _ = stable._down_sets()
        assert len(masks) == n - 1

    def test_golden_runs_one_proposal_loop_per_extreme_and_per_break(self, monkeypatch, example_market):
        # Deferred acceptance from each side, then one break per pair that a
        # member holds and the bottom lacks: one proposal loop serves them all.
        calls = []

        def counting(*args, kernel=lattice._propose):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(lattice, "_propose", counting)
        stable = enumerate_stable(example_market)
        bottom = stable.firm_pessimal.firm_masks
        breaks = sum((row & ~low).bit_count() for m in stable for row, low in zip(m.firm_masks, bottom))
        assert len(calls) == 2 + breaks == 66

    def test_an_unstable_break_is_refused_not_dropped(self, monkeypatch, example_market):
        # With every matching but the firm-optimal one reported blocked, the
        # walk must refuse instead of returning fewer members.
        top, _ = extremes(example_market)
        blocker = (AgentId(Side.FIRMS, 0), AgentId(Side.WORKERS, 0))
        monkeypatch.setattr(lattice, "find_blocking", lambda m, market: None if m == top else blocker)
        with pytest.raises(ValidationError) as info:
            enumerate_stable(example_market)
        assert info.value.code == "not-stable"


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

    def test_stable_set_join_and_meet_by_position(self, monkeypatch, example_stable, corpus):
        # The join and meet read off the down-set index against the
        # stability-checked pointing path, on every ordered pair of the
        # golden set, the corpus lattices and three block lattices.
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 144)
        blocks = [enumerate_stable(block_diagonal_market(sizes)) for sizes in ((3, 2), (2, 2, 2), (4, 4, 4))]
        assert [len(stable) for stable in blocks] == [6, 8, 64]
        for stable in [example_stable, *(case.stable for case in corpus), *blocks]:
            market, positions = stable.market, range(len(stable))
            for i, j in itertools.product(positions, repeat=2):
                a, b = stable[i], stable[j]
                assert stable[stable.join(i, j)] == join_f(a, b, market)
                assert stable[stable.meet(i, j)] == meet_f(a, b, market)
                assert stable.join(i, j) == stable.join(j, i)
                assert stable.meet(i, j) == stable.meet(j, i)
            for i in positions:
                assert stable.join(i, i) == i
                assert stable.meet(i, i) == i

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
    @pytest.mark.parametrize(
        "build, count",
        [
            (None, 32),
            (block_diagonal_market, 7),
            (lambda: block_diagonal_market((4, 4, 4)), 3 * 3 * 4 ** 2),
            ("corpus", None),
        ],
        ids=["golden", "block-3+2", "latin-4^3", "corpus"],
    )
    def test_edges_are_the_transitive_reduction(self, request, monkeypatch, build, count):
        monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 144)
        if build is None:
            stables = [request.getfixturevalue("example_stable")]
        elif build == "corpus":
            stables = [case.stable for case in request.getfixturevalue("corpus")]
        else:
            stables = [enumerate_stable(build())]
        for stable in stables:
            assert hasse_edges(stable) == hasse_oracle(stable.firm_table)
        if count is not None:
            assert len(hasse_edges(stables[0])) == count

    def test_edges_follow_the_all_triples_rule_on_any_table(self, example_stable):
        # Down-set covers match the triple scan on relations that are not
        # orders at all: a random table over the golden members.
        rng = random.Random(5)
        cells = (Cmp.GREATER, Cmp.LESS, Cmp.INCOMPARABLE)
        for _ in range(20):
            size = rng.randint(1, len(example_stable))
            table = tuple(tuple(rng.choice(cells) for _ in range(size)) for _ in range(size))
            stable = StableSet(example_stable.market, example_stable.matchings[:size], table)
            assert hasse_edges(stable) == hasse_oracle(table)

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
