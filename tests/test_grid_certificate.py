"""The paper's theorem certified exhaustively on finite grids of lotteries.

For a lattice and a denominator D, the grid is every decreasing lottery whose
weights lie in (1/D)N: a chain of members strictly descending for the firms,
by ``firm_at_least_oracle``, weighted by a composition of D into as many
parts.  These are the monotone maps from the join-irreducibles J to 0..D
(Birkhoff), so there are (D+1)^|J| of them on a Boolean lattice, and the
grid is closed under the lottery join and meet: "least within the grid" is
an exact finite statement.  Each side's order on the grid is the literal
inequality sums of ``dominance_sums_oracle`` for every agent on that side.
No library call builds the grid or its order.
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from matchlattice import (
    Dominance,
    Lottery,
    Side,
    dominates,
    enumerate_stable,
    join_random,
    meet_random,
    split_dominates,
)
from matchlattice import lattice
from conftest import block_diagonal_market
from oracles import dominance_sums_oracle, firm_at_least_oracle

VERDICT = {
    (True, True): Dominance.EQUAL,
    (True, False): Dominance.STRONGLY_DOMINATES,
    (False, True): Dominance.STRONGLY_DOMINATED,
    (False, False): Dominance.INCOMPARABLE,
}


def compositions(total, parts):
    """Every way to write ``total`` as an ordered sum of ``parts`` positive integers."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def descending_chains(members, market, longest):
    """Every chain of positions whose members strictly descend for the firms,
    at most ``longest`` long."""
    above = {
        (a, b): a != b and firm_at_least_oracle(members[a], members[b], market)
        for a, b in itertools.product(range(len(members)), repeat=2)
    }
    frontier = [(k,) for k in range(len(members))]
    found = list(frontier)
    for _ in range(longest - 1):
        frontier = [chain + (k,) for chain in frontier for k in range(len(members)) if above[chain[-1], k]]
        found += frontier
    return found


def grid(members, market, denominator):
    """Every decreasing lottery with weights in (1/denominator)N, as term tuples."""
    return [
        tuple((Fraction(count, denominator), members[k]) for count, k in zip(counts, chain))
        for chain in descending_chains(members, market, denominator)
        for counts in compositions(denominator, len(chain))
    ]


def weakly_dominates(market, grid_terms, side):
    """``table[a][b]``: grid lottery a weakly dominates b for every agent on
    ``side``.  An agent's sums see only the mass a lottery puts on each of its
    assignments, so they are summed once per pair of such views."""
    size = len(grid_terms)
    table = [[True] * size for _ in range(size)]
    for agent in market.agents():
        if agent.side is not side:
            continue
        views = []
        for terms in grid_terms:
            mass = {}
            for weight, matching in terms:
                partners = matching.assigned(agent)
                mass[partners] = mass.get(partners, 0) + weight
            views.append(frozenset(mass.items()))
        sums = {
            (u, v): dominance_sums_oracle(
                *(SimpleNamespace(terms=[(w, partners) for partners, w in view]) for view in (u, v)),
                market.pref(agent),
                lambda partners: partners,
            )
            for u, v in itertools.product(set(views), repeat=2)
        }
        for a, b in itertools.product(range(size), repeat=2):
            table[a][b] = table[a][b] and sums[views[a], views[b]]
    return table


@pytest.mark.parametrize(
    "sizes, denominator, count",
    [(None, 2, 81), ((3, 2), 3, 40), ((2, 2, 2), 2, 27)],
    ids=["golden-D2", "block-3+2-D3", "block-2+2+2-D2"],
)
def test_join_and_meet_are_the_grids_least_and_greatest_bounds(
    monkeypatch, example_stable, sizes, denominator, count
):
    monkeypatch.setattr(lattice, "ENUMERATION_GUARD", 36)
    stable = example_stable if sizes is None else enumerate_stable(block_diagonal_market(sizes))
    market = stable.market
    grid_terms = grid(list(stable), market, denominator)
    lotteries = [Lottery(terms) for terms in grid_terms]
    position = {x: k for k, x in enumerate(lotteries)}
    assert len(position) == len(lotteries) == count
    for side in Side:
        table = weakly_dominates(market, grid_terms, side)
        # above[k] / below[k]: the grid lotteries at least / at most lottery k.
        above = [sum(1 << a for a in range(count) if table[a][b]) for b in range(count)]
        below = [sum(1 << b for b in range(count) if table[a][b]) for a in range(count)]
        # A partial order, so a least upper or greatest lower bound is unique.
        for k in range(count):
            assert above[k] & below[k] == 1 << k
            assert all(above[j] & ~above[k] == 0 for j in range(count) if above[k] >> j & 1)
        seen = set()
        for a, b in itertools.combinations_with_replacement(range(count), 2):
            x, y = lotteries[a], lotteries[b]
            upper, lower = above[a] & above[b], below[a] & below[b]
            for method in ("split", "lcm"):
                top = position[join_random(x, y, stable, side, method=method)]
                bottom = position[meet_random(x, y, stable, side, method=method)]
                assert upper >> top & 1 and upper & ~above[top] == 0, (a, b, side, method)
                assert lower >> bottom & 1 and lower & ~below[bottom] == 0, (a, b, side, method)
            verdict = VERDICT[table[a][b], table[b][a]]
            assert dominates(x, y, stable, side) is verdict, (a, b, side)
            assert split_dominates(x, y, stable, side) is table[a][b], (a, b, side)
            seen.add(verdict)
        assert seen == set(Dominance)
