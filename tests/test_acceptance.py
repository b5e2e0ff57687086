"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every comparison is exact rational equality; no tolerances appear anywhere.
Each criterion prints a single PASS line when it holds (run with ``-s`` or
``-rA`` to see them); a failing criterion stops at its assertion.
"""

import itertools
import random
import time
from fractions import Fraction

from matchlattice import (
    Cmp,
    Dominance,
    Lottery,
    decompose,
    decompose_run,
    dominates,
    enumerate_stable,
    hasse_edges,
    is_decreasing,
    join_random,
    meet_random,
    random_rht_check,
    rht_check,
    split,
    split_dominates,
    to_dot,
    Side,
)
from matchlattice.lotteries import _VERDICT, _refined
from conftest import alternative_representations, product_covers, product_table, random_lottery
from oracles import enumerate_oracle, termwise_side_cmp


def passed(number, message):
    print(f"[criterion {number:2d}] PASS - {message}")


def canonical(lottery, stable):
    return decompose(lottery, stable)


def weakly(a, b, stable, side=Side.FIRMS):
    return dominates(a, b, stable, side).weakly_dominates


def test_criterion_01_example_stable_set_is_table_one(example_market, nus):
    started = time.monotonic()
    stable = enumerate_stable(example_market)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"
    table = product_table()
    expected = set(table.values())
    assert len(expected) == 16
    # the hand-built table is the stable set by the naive 2^(F*W) sweep too
    assert expected == enumerate_oracle(example_market)
    assert set(stable) == expected, (
        f"enumeration finds {len(stable)} stable matchings; the hand-built "
        f"product A x B has {len(expected)}"
    )
    assert nus == tuple(table[k, k] for k in range(4)), (
        "the reference four are not the diagonal (a_k, b_k) of A x B"
    )
    passed(
        1,
        "stable set of the 4x4 example is the 16-row product A x B, with the "
        "reference four on its diagonal (< 1 s)",
    )


def test_criterion_02_example_order_and_hasse_diagram(example_market, example_stable, nus):
    n1, n2, n3, n4 = nus
    idx = [example_stable.index(m) for m in nus]
    # reference order: n1 on top, n4 at the bottom, n2 and n3 side by side
    for other in (n2, n3, n4):
        assert example_stable.cmp_f(idx[0], example_stable.index(other)) is Cmp.GREATER
    for other in (n1, n2, n3):
        assert example_stable.cmp_f(idx[3], example_stable.index(other)) is Cmp.LESS
    assert example_stable.cmp_f(idx[1], idx[2]) is Cmp.INCOMPARABLE
    assert example_stable.firm_optimal == n1
    assert example_stable.firm_pessimal == n4

    covers = {
        (example_stable.index(high), example_stable.index(low))
        for high, low in product_covers()
    }
    assert len(covers) == 32
    edges = set(hasse_edges(example_stable))
    assert edges == covers, (
        f"the Hasse diagram has {len(edges)} edges; the product of the two "
        f"diamonds has {len(covers)} covering pairs"
    )
    assert to_dot(example_stable).count("->") == 32

    # covering pairs of the order restricted to the reference four
    reference = {(idx[0], idx[1]), (idx[0], idx[2]), (idx[1], idx[3]), (idx[2], idx[3])}
    greater = {(i, j) for i in idx for j in idx if example_stable.cmp_f(i, j) is Cmp.GREATER}
    restricted = {
        (i, j) for i, j in greater if not any((i, k) in greater and (k, j) in greater for k in idx)
    }
    assert restricted == reference
    passed(
        2,
        "firms' order over the example gives the 32-edge product diagram, and the "
        "reference diagram on the reference four",
    )


def test_criterion_03_decomposition_golden_run(raw_x, example_stable, nus):
    n1, n2, n3, n4 = nus
    run = decompose_run(raw_x, example_stable)
    bests = [step.best for step in run.steps]
    shares = [step.share for step in run.steps]
    assert bests == [n1, n2, n4]
    assert shares == [Fraction(1, 4), Fraction(2, 3), Fraction(1)]
    assert run.result == Lottery.from_pairs(
        [(Fraction(1, 4), n1), (Fraction(1, 2), n2), (Fraction(1, 4), n4)]
    )
    passed(3, "decreasing decomposition reproduces the worked run exactly")


def test_criterion_04_split_golden_run(canonical_x, canonical_y, example_market, nus):
    n1, n2, n3, n4 = nus
    alignment = split(canonical_x, canonical_y, example_market)
    assert alignment.gamma == tuple(
        Fraction(t) for t in ("1/6", "1/12", "5/12", "1/12", "1/4")
    )
    assert alignment.left == (n1, n1, n2, n2, n4)
    assert alignment.right == (n1, n3, n3, n4, n4)
    passed(4, "splitting reproduces the worked alignment exactly")


def test_criterion_05_lottery_join_meet_golden(canonical_x, canonical_y, example_stable, example_market, nus):
    n1, n2, n3, n4 = nus
    expected_join = Lottery.from_pairs(
        [(Fraction(2, 3), n1), (Fraction(1, 12), n2), (Fraction(1, 4), n4)]
    )
    expected_meet = Lottery.from_pairs(
        [(Fraction(1, 6), n1), (Fraction(1, 12), n3), (Fraction(3, 4), n4)]
    )
    for method in ("split", "lcm"):
        assert (
            join_random(canonical_x, canonical_y, example_stable, Side.FIRMS, method=method)
            == expected_join
        )
        assert (
            meet_random(canonical_x, canonical_y, example_stable, Side.FIRMS, method=method)
            == expected_meet
        )
    from matchlattice import lcm_refine

    assert len(lcm_refine(canonical_x, canonical_y, example_market)) == 12
    passed(5, "lottery join/meet match the worked values via both methods; lcm slice count is 12")


def test_criterion_06_decomposition_uniqueness_over_corpus(corpus):
    markets = len(corpus)
    lottery_count = sum(len(case.lotteries) for case in corpus)
    assert markets >= 100 and all(len(case.lotteries) >= 5 for case in corpus)
    checked_alternatives = 0
    for case in corpus:
        for lottery in case.lotteries:
            run = decompose_run(lottery, case.stable)
            result = run.result
            assert result.expectation() == lottery.expectation()
            assert is_decreasing(result, case.market)
            assert run.steps[-1].share == 1
            for alternative in alternative_representations(lottery, case.stable):
                assert alternative.expectation() == lottery.expectation()
                assert decompose(alternative, case.stable) == result
                checked_alternatives += 1
    passed(
        6,
        f"unique decreasing form over {markets} markets / {lottery_count} lotteries "
        f"({checked_alternatives} alternative representations)",
    )


def test_criterion_07_partial_order_and_order_equivalence(corpus):
    reflexive = equal_pairs = transitive_chains = equivalence_checks = 0
    for case in corpus:
        stable = case.stable
        lots = case.lotteries
        for lottery in lots:
            for side in Side:
                assert dominates(lottery, lottery, stable, side) is Dominance.EQUAL
            reflexive += 1

        for x, y in itertools.combinations(lots[:3], 2):
            for side in Side:
                outcome = dominates(x, y, stable, side)
                # antisymmetry: mutual weak dominance collapses to identity
                if outcome is Dominance.EQUAL:
                    assert decompose(x, stable) == decompose(y, stable)
                    equal_pairs += 1
                # order equivalence with the paper's termwise fold over the split, both ways
                for a, b in ((x, y), (y, x)):
                    fold = _VERDICT[termwise_side_cmp(_refined(a, b, stable), stable.market, side)]
                    assert dominates(a, b, stable, side) is fold
                    assert split_dominates(a, b, stable, side) == fold.weakly_dominates
                equivalence_checks += 2

        if len(lots) >= 3:
            x, y, z = lots[0], lots[1], lots[2]
            top = join_random(x, y, stable, Side.FIRMS)
            bottom = meet_random(x, z, stable, Side.FIRMS)
            assert weakly(top, x, stable) and weakly(x, bottom, stable)
            assert weakly(top, bottom, stable)
            transitive_chains += 1
    passed(
        7,
        f"partial-order laws and order equivalence over the corpus "
        f"({reflexive} reflexive, {equal_pairs} equal pairs, "
        f"{transitive_chains} transitive chains, {equivalence_checks} equivalence checks)",
    )


def test_criterion_08_lottery_lattice_laws(corpus):
    law_checks = certified = 0
    for case in corpus:
        stable = case.stable
        lots = case.lotteries
        cx = canonical(lots[0], stable)
        assert join_random(lots[0], lots[0], stable, Side.FIRMS) == cx
        assert meet_random(lots[0], lots[0], stable, Side.FIRMS) == cx

        for x, y in itertools.combinations(lots[:3], 2):
            jf = join_random(x, y, stable, Side.FIRMS)
            mf = meet_random(x, y, stable, Side.FIRMS)
            assert jf == join_random(y, x, stable, Side.FIRMS)
            assert mf == meet_random(y, x, stable, Side.FIRMS)
            assert jf == meet_random(x, y, stable, Side.WORKERS)
            assert mf == join_random(x, y, stable, Side.WORKERS)
            assert join_random(x, mf, stable, Side.FIRMS) == canonical(x, stable)
            assert meet_random(x, jf, stable, Side.FIRMS) == canonical(x, stable)
            assert jf == join_random(x, y, stable, Side.FIRMS, method="lcm")
            assert mf == meet_random(x, y, stable, Side.FIRMS, method="lcm")
            law_checks += 1

            # universal bound certification against sampled third lotteries
            top_deg = Lottery.degenerate(stable.firm_optimal)
            bottom_deg = Lottery.degenerate(stable.firm_pessimal)
            candidates = [top_deg, bottom_deg] + list(lots[3:5])
            for z in candidates:
                if weakly(z, x, stable) and weakly(z, y, stable):
                    assert weakly(z, jf, stable)
                    certified += 1
                if weakly(x, z, stable) and weakly(y, z, stable):
                    assert weakly(mf, z, stable)
                    certified += 1

        x, y, z = lots[0], lots[1], lots[2]
        assert join_random(
            join_random(x, y, stable, Side.FIRMS), z, stable, Side.FIRMS
        ) == join_random(x, join_random(y, z, stable, Side.FIRMS), stable, Side.FIRMS)
        assert meet_random(
            meet_random(x, y, stable, Side.FIRMS), z, stable, Side.FIRMS
        ) == meet_random(x, meet_random(y, z, stable, Side.FIRMS), stable, Side.FIRMS)
    passed(
        8,
        f"lattice laws, duality and bound certification over the corpus "
        f"({law_checks} pairs, {certified} certified bounds)",
    )


def test_criterion_08_distributive_law_golden(example_stable):
    stable = example_stable
    rng = random.Random(8)
    triples = 60
    for _ in range(triples):
        x, y, z = (random_lottery(rng, stable) for _ in range(3))
        for side in Side:
            join = lambda a, b: join_random(a, b, stable, side)
            meet = lambda a, b: meet_random(a, b, stable, side)
            assert join(x, meet(y, z)) == meet(join(x, y), join(x, z))
            assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
    passed(8, f"distributive law and its dual on both sides over {triples} golden triples")


def test_criterion_09_rural_hospital(corpus, example_stable, canonical_x, canonical_y):
    for case in corpus:
        assert rht_check(case.stable)
        for x, y in itertools.combinations(case.lotteries, 2):
            assert random_rht_check(x, y)
    assert rht_check(example_stable)
    assert random_rht_check(canonical_x, canonical_y)
    assert canonical_x.expectation().row_sums() == (2, 2, 2, 2)
    assert canonical_x.expectation().col_sums() == (2, 2, 2, 2)
    assert canonical_y.expectation().row_sums() == (2, 2, 2, 2)
    assert canonical_y.expectation().col_sums() == (2, 2, 2, 2)
    passed(9, "deterministic and random rural-hospital equalities hold everywhere")


def test_criterion_10_decomposition_invariants(corpus):
    runs = steps_checked = 0
    for case in corpus:
        for lottery in case.lotteries:
            run = decompose_run(lottery, case.stable)
            baseline = run.steps[0].residual
            for k, step in enumerate(run.steps):
                assert step.best in step.pool
                assert step.removed
                survivors = [m for m in step.pool if m not in set(step.removed)]
                assert len(survivors) < len(step.pool)
                if k + 1 < len(run.steps):
                    assert set(run.steps[k + 1].pool) == set(survivors)
                    assert survivors and step.share < 1
                else:
                    assert not survivors
                    assert step.share == 1
                    assert step.residual == step.best.incidence()
                assert step.residual.row_sums() == baseline.row_sums()
                assert step.residual.col_sums() == baseline.col_sums()
                assert step.best.incidence().support() <= step.residual.support()
                steps_checked += 1
            runs += 1
    passed(10, f"per-step laws hold on {runs} decomposition runs ({steps_checked} steps)")
