"""Shared fixtures: the golden 4x4 market, its lotteries, and the generated
responsive-market corpus used by the property and acceptance tests; plus the
block-diagonal, one-firm and seeded mixed ranked/responsive market builders,
disjoint unions of markets, and the expectation-preserving rewritings of a
lottery, which several test modules share."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from matchlattice import (
    AgentId,
    Lottery,
    Market,
    Matching,
    RankedPreference,
    ResponsivePreference,
    Side,
    StableSet,
    enumerate_stable,
    generate_responsive_market,
    join_f,
    meet_f,
)
from oracles import responsive_to_ranked

DATA_DIR = Path(__file__).parent / "data"


#: Preference entries the core constructors refuse, each placed in the example
#: market, with the JSON path a refusal from the document parser must name.
INVALID_PREFERENCES = {
    "empty-subset": ("f1", {"ranked": [["w1"], []]}, "$.preferences.f1.ranked[1]"),
    "repeated-subset": ("f1", {"ranked": [["w1", "w2"], ["w2", "w1"]]}, "$.preferences.f1.ranked[1]"),
    "negative-quota": (
        "w1", {"responsive": {"quota": -1, "priority": ["f1"]}}, "$.preferences.w1.responsive.quota"
    ),
    "repeated-partner": (
        "w1", {"responsive": {"quota": 1, "priority": ["f2", "f1", "f2"]}}, "$.preferences.w1.responsive.priority"
    ),
}

#: Market documents that pass the grammar but exceed a limit of the
#: interpreter, with the refusal code each must get: nesting past the
#: recursion limit, an integer past the digit limit of int(), and a repeated
#: key nested deeper than a recursive search for its path can go.
OVERSIZED_MARKETS = {
    "deep-nesting": ("[" * 100_000, "malformed-json"),
    "long-integer": (
        '{"firms": ["f1"], "workers": ["w1"], "preferences": {"f1": {"ranked": [["w1"]]}, '
        '"w1": {"responsive": {"quota": ' + "1" * 5000 + ', "priority": ["f1"]}}}}',
        "malformed-json",
    ),
    "deep-duplicate-key": ('{"a": ' * 500 + '{"k": 1, "k": 2}' + "}" * 500, "duplicate-key"),
}
#: Where the duplicate key of OVERSIZED_MARKETS["deep-duplicate-key"] sits.
DEEP_DUPLICATE_PATH = "$" + ".a" * 500
#: A weight past the digit limit of int(); above 1 where there is no limit.
LONG_WEIGHT = "1" * 5000

# The golden market: four firms and four workers, each ranking four pairs and
# then the four singletons, in rotated orders.
FIRM_RANKINGS = (
    ((0, 1), (0, 2), (1, 3), (2, 3), (0,), (1,), (2,), (3,)),
    ((2, 3), (1, 3), (0, 2), (0, 1), (2,), (3,), (0,), (1,)),
    ((0, 2), (2, 3), (0, 1), (1, 3), (0,), (2,), (1,), (3,)),
    ((1, 3), (0, 1), (2, 3), (0, 2), (1,), (3,), (0,), (2,)),
)
WORKER_RANKINGS = (
    ((1, 3), (1, 2), (0, 3), (0, 2), (1,), (3,), (2,), (0,)),
    ((1, 2), (0, 2), (1, 3), (0, 3), (1,), (2,), (0,), (3,)),
    ((0, 3), (1, 3), (0, 2), (1, 2), (0,), (3,), (1,), (2,)),
    ((0, 2), (0, 3), (1, 2), (1, 3), (0,), (2,), (3,), (1,)),
)

# The four reference matchings nu1..nu4 of the golden market (firm rows). They
# are the diagonal four-element sublattice (a_k, b_k) of the stable set below,
# on which the example's lotteries live; they are not the whole stable set.
TABLE_ROWS = (
    ((0, 1), (2, 3), (0, 2), (1, 3)),
    ((0, 2), (1, 3), (2, 3), (0, 1)),
    ((1, 3), (0, 2), (0, 1), (2, 3)),
    ((2, 3), (0, 1), (1, 3), (0, 2)),
)

# The golden market's stable set, derived by hand from the rankings above. In
# every individually rational matching f1 and f2 hold complementary worker
# pairs, and so do f3 and f4; every worker ranks only pairs with one firm from
# {f1, f2} and one from {f3, f4}. So the stable set is the product A x B of the
# stable rows of the two halves: A for (f1, f2), B for (f3, f4), each listed
# best-first in the firms' order.
A_ROWS = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((1, 3), (0, 2)),
    ((2, 3), (0, 1)),
)
B_ROWS = (
    ((0, 2), (1, 3)),
    ((2, 3), (0, 1)),
    ((0, 1), (2, 3)),
    ((1, 3), (0, 2)),
)
# Each half is a diamond in the firms' order: row 0 > rows 1 and 2 > row 3, with
# rows 1 and 2 incomparable (e.g. Ch_f1({w1,w3} | {w2,w4}) = {w1,w2}). These are
# its covering pairs, as (higher row, lower row).
DIAMOND_COVERS = ((0, 1), (0, 2), (1, 3), (2, 3))


def build_example_market() -> Market:
    return Market(
        tuple(
            RankedPreference(AgentId(Side.FIRMS, i), 4, ranking)
            for i, ranking in enumerate(FIRM_RANKINGS)
        ),
        tuple(
            RankedPreference(AgentId(Side.WORKERS, j), 4, ranking)
            for j, ranking in enumerate(WORKER_RANKINGS)
        ),
    )


def product_table() -> dict[tuple[int, int], Matching]:
    """The 16 stable matchings (a_k, b_l) of the golden market, keyed by
    (k, l), built from the hand-listed halves without enumeration."""
    return {
        (k, l): Matching.from_firm_sets(4, a + b)
        for k, a in enumerate(A_ROWS)
        for l, b in enumerate(B_ROWS)
    }


def product_covers() -> set[tuple[Matching, Matching]]:
    """Covering pairs (higher, lower) of the firms' order on A x B: one
    coordinate steps down a diamond cover while the other stays fixed."""
    table = product_table()
    return {
        pair
        for high, low in DIAMOND_COVERS
        for other in range(4)
        for pair in (
            (table[high, other], table[low, other]),
            (table[other, high], table[other, low]),
        )
    }


@pytest.fixture(scope="session")
def example_market() -> Market:
    return build_example_market()


@pytest.fixture(scope="session")
def example_stable(example_market) -> StableSet:
    return enumerate_stable(example_market)


@pytest.fixture(scope="session")
def nus() -> tuple[Matching, Matching, Matching, Matching]:
    """The reference matchings nu1..nu4 of the golden market: the diagonal
    four-element sublattice on which the example's lotteries live, not its
    stable set (see ``product_table``)."""
    return tuple(Matching.from_firm_sets(4, rows) for rows in TABLE_ROWS)


@pytest.fixture(scope="session")
def raw_x(nus) -> Lottery:
    """The golden lottery in its original two-term form."""
    return Lottery.from_pairs([(Fraction(3, 4), nus[1]), (Fraction(1, 4), nus[2])])


@pytest.fixture(scope="session")
def canonical_x(nus) -> Lottery:
    """The same lottery in decreasing form."""
    return Lottery.from_pairs(
        [(Fraction(1, 4), nus[0]), (Fraction(1, 2), nus[1]), (Fraction(1, 4), nus[3])]
    )


@pytest.fixture(scope="session")
def canonical_y(nus) -> Lottery:
    return Lottery.from_pairs(
        [(Fraction(1, 6), nus[0]), (Fraction(1, 2), nus[2]), (Fraction(1, 3), nus[3])]
    )


@dataclass(frozen=True)
class MarketCase:
    """One generated market with its stable set and sampled lotteries."""

    seed: int
    market: Market
    stable: StableSet
    lotteries: tuple[Lottery, ...]


def random_lottery(rng: random.Random, stable: StableSet) -> Lottery:
    """A lottery over up to four distinct stable matchings with random
    integer weights, normalised exactly."""
    count = rng.randint(1, min(4, len(stable)))
    picks = rng.sample(range(len(stable)), count)
    raw = [rng.randint(1, 6) for _ in picks]
    total = sum(raw)
    return Lottery.from_pairs(
        [(Fraction(n, total), stable[i]) for n, i in zip(raw, picks)]
    ).merged()


def build_corpus(num_markets: int = 130, lotteries_each: int = 5) -> list[MarketCase]:
    cases = []
    for seed in range(num_markets):
        rng = random.Random(10_000 + seed)
        num_firms = rng.randint(2, 4)
        num_workers = num_firms if rng.random() < 0.75 else rng.randint(2, 4)
        doc = generate_responsive_market(seed, num_firms, num_workers, max_quota=2)
        market = doc.build_market()
        stable = enumerate_stable(market)
        lotteries = tuple(random_lottery(rng, stable) for _ in range(lotteries_each))
        cases.append(MarketCase(seed, market, stable, lotteries))
    return cases


@pytest.fixture(scope="session")
def corpus() -> list[MarketCase]:
    return build_corpus()


def block_diagonal_market(sizes=(3, 2)):
    """Disjoint cyclic Latin blocks with quota 1.  In an n-block firm i ranks
    workers i, i+1, ... and worker j ranks firms j+1, j+2, ..., j (mod n), so
    each block has its n diagonal matchings as stable matchings; nobody
    accepts a partner outside its block, so the market's stable set is the
    product of the blocks' stable sets."""
    firms, workers, start = [], [], 0
    for n in sizes:
        for i in range(n):
            firms.append([start + (i + k) % n for k in range(n)])
            workers.append([start + (i + 1 + k) % n for k in range(n)])
        start += n
    return Market(
        tuple(ResponsivePreference(AgentId(Side.FIRMS, i), start, 1, p) for i, p in enumerate(firms)),
        tuple(ResponsivePreference(AgentId(Side.WORKERS, j), start, 1, p) for j, p in enumerate(workers)),
    )


def one_firm_market(n_workers: int) -> Market:
    """One responsive firm facing ``n_workers`` workers who all accept it."""
    return Market(
        (ResponsivePreference(AgentId(Side.FIRMS, 0), n_workers, 1, range(n_workers)),),
        tuple(ResponsivePreference(AgentId(Side.WORKERS, j), 1, 1, [0]) for j in range(n_workers)),
    )


def mixed_preference(rng, owner, n, start):
    """A cyclic priority from ``start``, sometimes with one adjacent swap,
    and quota 1 or 2; half the time its ranking is expanded and one or two
    adjacent subsets are swapped, which may break either axiom."""
    priority = [(start + k) % n for k in range(n)]
    if rng.random() < 0.25:
        k = rng.randrange(n - 1)
        priority[k], priority[k + 1] = priority[k + 1], priority[k]
    pref = ResponsivePreference(owner, n, rng.randint(1, 2), priority)
    if rng.random() < 0.5:
        return pref
    ranking = list(responsive_to_ranked(pref).ranking)
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(ranking) - 1)
        ranking[k], ranking[k + 1] = ranking[k + 1], ranking[k]
    return RankedPreference(owner, n, ranking)


def mixed_market(seed):
    """2-4 agents per side, ranked and responsive mixed, with opposed cyclic
    priorities (as in the Latin blocks) so that stable sets tend to be wide."""
    rng = random.Random(seed)
    nf, nw = rng.randint(2, 4), rng.randint(2, 4)
    shift = rng.randrange(nf)
    return Market(
        tuple(mixed_preference(rng, AgentId(Side.FIRMS, i), nw, i % nw) for i in range(nf)),
        tuple(mixed_preference(rng, AgentId(Side.WORKERS, j), nf, (j + 1 + shift) % nf) for j in range(nw)),
    )


#: The first 51 seeds whose :func:`mixed_market` passes both axiom checks and
#: has at least two stable matchings (found by scanning seeds 0, 1, 2, ...).
MIXED_SEEDS = (
    1, 2, 32, 35, 62, 66, 74, 95, 98, 119, 136, 145, 146, 147, 149, 163, 195,
    203, 228, 234, 241, 250, 261, 330, 340, 345, 403, 411, 415, 418, 432, 437,
    494, 504, 508, 531, 550, 575, 610, 649, 668, 706, 742, 746, 747, 750, 752,
    757, 762, 774, 789,
)


def disjoint_union(first, second):
    """The market of ``first`` and ``second`` side by side: the second's
    agents are renumbered after the first's and nobody accepts a partner
    from the other market."""
    def shifted(pref, side, index, offset, width):
        owner = AgentId(side, index)
        if isinstance(pref, ResponsivePreference):
            return ResponsivePreference(owner, width, pref.quota, [p + offset for p in pref.priority])
        return RankedPreference(owner, width, [[p + offset for p in subset] for subset in pref.ranking])

    (f1, w1), (f2, w2) = first.shape, second.shape
    firms = [(p, 0) for p in first.firm_prefs] + [(p, w1) for p in second.firm_prefs]
    workers = [(p, 0) for p in first.worker_prefs] + [(p, f1) for p in second.worker_prefs]
    return Market(
        tuple(shifted(p, Side.FIRMS, i, offset, w1 + w2) for i, (p, offset) in enumerate(firms)),
        tuple(shifted(p, Side.WORKERS, j, offset, f1 + f2) for j, (p, offset) in enumerate(workers)),
    )


def alternative_representations(lottery, stable):
    """Rewritings of a lottery that leave its expectation matrix unchanged."""
    market = stable.market
    rng = random.Random(hash(lottery.weights) & 0xFFFF)
    alternates = []

    halves = []
    for weight, matching in lottery.terms:
        halves.append((weight / 2, matching))
        halves.append((weight / 2, matching))
    alternates.append(Lottery(tuple(reversed(halves))))

    support = lottery.merged()
    if len(support.terms) >= 2:
        (wa, a), (wb, b) = support.terms[0], support.terms[1]
        rest = support.terms[2:]
        shift = min(wa, wb)
        rewritten = list(rest)
        if wa > shift:
            rewritten.append((wa - shift, a))
        if wb > shift:
            rewritten.append((wb - shift, b))
        rewritten.append((shift, join_f(a, b, market)))
        rewritten.append((shift, meet_f(a, b, market)))
        rng.shuffle(rewritten)
        alternates.append(Lottery(tuple(rewritten)).merged())
    return alternates
