"""Output checks.

The orders, expectations and dominance inequalities are recomputed here
from the agents' choice functions, so a fast path in the library that
returns a wrong answer disagrees with these checks instead of with itself.
"""

from __future__ import annotations

from fractions import Fraction

import math

from matchlattice import Side, enumerate_stable, find_blocking, join_f, meet_f, parse_market, rht_check

import gen


def _masks(matching, side: Side):
    return matching.firm_masks if side is Side.FIRMS else matching.worker_masks


def _prefs(market, side: Side):
    return market.firm_prefs if side is Side.FIRMS else market.worker_prefs


def _geq(pref, a: int, b: int) -> bool:
    return a == b or pref.choice_mask(a | b) == a


def weakly_above(market, a, b, side: Side = Side.FIRMS) -> bool:
    """Every agent on ``side`` weakly prefers its ``a`` assignment."""
    return all(_geq(p, x, y) for p, x, y in zip(_prefs(market, side), _masks(a, side), _masks(b, side)))


def expectation(lottery) -> dict:
    cells: dict = {}
    for weight, matching in lottery.terms:
        for i, mask in enumerate(matching.firm_masks):
            for j in range(matching.num_workers):
                if mask >> j & 1:
                    cells[i, j] = cells.get((i, j), Fraction(0)) + weight
    return cells


def row_col_sums(lottery, market) -> tuple[list, list]:
    cells = expectation(lottery)
    nf, nw = market.num_firms, market.num_workers
    rows = [sum(cells.get((i, j), 0) for j in range(nw)) for i in range(nf)]
    cols = [sum(cells.get((i, j), 0) for i in range(nf)) for j in range(nw)]
    return rows, cols


def canonical_problems(result, source, market, members) -> list[str]:
    """Why ``result`` is not the decreasing representation of ``source``."""
    problems = []
    ms = [m for _, m in result.terms]
    if any(m not in members for m in ms):
        problems.append("term outside the stable set")
    if not all(weakly_above(market, a, b) and a != b for a, b in zip(ms, ms[1:])):
        problems.append("terms do not strictly descend for the firms")
    if source is not None and expectation(result) != expectation(source):
        problems.append("expectation matrix differs from the input's")
    return problems


def weakly_dominates(cx, cy, market, side: Side) -> bool:
    """Stochastic dominance of canonical ``cx`` over canonical ``cy`` for
    every agent on ``side``: for each assignment ``t`` that ``cy`` gives an
    agent, ``cx`` puts at least as much mass as ``cy`` on assignments the
    agent weakly prefers to ``t``."""
    for agent, pref in enumerate(_prefs(market, side)):
        xs = [(w, _masks(m, side)[agent]) for w, m in cx.terms]
        ys = [(w, _masks(m, side)[agent]) for w, m in cy.terms]
        for _, target in ys:
            lhs = sum((w for w, a in xs if _geq(pref, a, target)), Fraction(0))
            rhs = sum((w for w, b in ys if _geq(pref, b, target)), Fraction(0))
            if lhs < rhs:
                return False
    return True


def dominance(cx, cy, market, side: Side) -> str:
    """The ``Dominance`` value the library should report, by its ``.value``."""
    forward = weakly_dominates(cx, cy, market, side)
    backward = weakly_dominates(cy, cx, market, side)
    if forward and backward:
        return "equal"
    if forward:
        return "strongly-dominates"
    if backward:
        return "strongly-dominated"
    return "incomparable"


def stable_set_problems(stable, edges, expected_size=None) -> list[str]:
    """Checks on an enumerated stable set and its Hasse edges: every member
    is stable, the set is closed under join and meet, the rural-hospital
    property holds, and the edges generate exactly the firms' strict order
    with no edge implied by two others."""
    market = stable.market
    ms = list(stable.matchings)
    members = set(ms)
    problems = []
    if len(members) != len(ms):
        problems.append("duplicate matchings")
    if expected_size is not None and len(ms) != expected_size:
        problems.append(f"{len(ms)} stable matchings, expected {expected_size}")
    if any(find_blocking(m, market) is not None for m in ms):
        problems.append("a listed matching is blocked")
    elif any(
        join_f(a, b, market) not in members or meet_f(a, b, market) not in members
        for a in ms for b in ms
    ):
        problems.append("not closed under join and meet")
    if not rht_check(stable):
        problems.append("rural-hospital property fails")
    n = len(ms)
    greater = {(i, j) for i in range(n) for j in range(n)
               if i != j and weakly_above(market, ms[i], ms[j])}
    closure = set(edges)
    while True:
        grown = closure | {(i, k) for i, j in closure for j2, k in closure if j == j2}
        if grown == closure:
            break
        closure = grown
    if closure != greater:
        problems.append("Hasse edges do not generate the firms' order")
    if any((i, k) in greater and (k, j) in greater for i, j in edges for k in range(n)):
        problems.append("a Hasse edge is not a covering pair")
    return problems


def expected_size(source):
    """Size oracle for a generated market: 16 for the golden market, the
    product of the blocks' stable-set sizes for a block-diagonal one, and
    None when there is none."""
    if source.label == gen.GOLDEN_LABEL:
        return gen.GOLDEN_SIZE
    if source.blocks:
        return math.prod(len(enumerate_stable(parse_market(b.text).build_market()))
                         for b in source.blocks)
    return None
