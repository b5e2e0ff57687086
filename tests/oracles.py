"""Independent reference implementations used to cross-check the package.

Most of this is written in a deliberately naive, frozenset-based style
with no shared code paths into the package internals (which work on
bitmasks): rank lists are scanned literally, stability enumerates every
agent and every pair, and the stable set is recomputed either from all
2^(F*W) edge subsets or from the product of every firm's individually
rational rows (a market of disjoint blocks block by block).  A second
reference for the stable set is the bitmask search the package once
enumerated with: ``_bracketed_rows`` keeps the rows of each firm between
the two deferred-acceptance matchings, and ``_search`` places the firms
one at a time from them, screening with ``find_blocking``.  The firms'
covering pairs are read off every triple of the order.  The two preference
axioms are searched over every pair of an offer and a sub-offer.  The
decreasing decomposition follows the paper's literal rescaling recurrence on
Fraction grids, stochastic dominance is the literal sum of its inequalities,
and a side's dominance verdict is the termwise fold over the split.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, product
from operator import or_

from matchlattice import Cmp, Market, Matching, RankedPreference, ResponsivePreference, Side, find_blocking
from matchlattice.prefs import mask_subset


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def choice_oracle(pref, offered: frozenset) -> frozenset:
    """Literal scan: the first listed subset contained in the offer wins.

    Responsive preferences are handled by sorting the available acceptable
    partners by priority and truncating at the quota.
    """
    if isinstance(pref, RankedPreference):
        for subset in pref.ranking:
            if subset <= offered:
                return subset
        return frozenset()
    assert isinstance(pref, ResponsivePreference)
    ranked = [p for p in pref.priority if p in offered]
    return frozenset(ranked[: pref.quota])


def responsive_to_ranked(pref: ResponsivePreference) -> RankedPreference:
    """Expand a responsive preference into an equivalent explicit ranking.

    Subsets of the priority list up to quota size, larger subsets first and,
    within a size, ordered lexicographically by priority positions.  The
    expansion induces exactly the same choice function.
    """
    ranking = []
    top = min(pref.quota, len(pref.priority))
    for size in range(top, 0, -1):
        for positions in combinations(range(len(pref.priority)), size):
            ranking.append(tuple(pref.priority[p] for p in positions))
    return RankedPreference(pref.owner, pref.n_opposite, ranking)


def substitutability_oracle(pref):
    """Every offer S, every b chosen from S and every sub-offer S' of S that
    keeps b: b must be chosen from S'.  Returns the first ``(S, S', b)``
    that fails, or ``None``."""
    for offer in map(frozenset, powerset(range(pref.n_opposite))):
        for member in sorted(choice_oracle(pref, offer)):
            for sub in map(frozenset, powerset(offer - {member})):
                if member not in choice_oracle(pref, sub | {member}):
                    return (offer, sub | {member}, member)
    return None


def lad_oracle(pref):
    """Every offer S and every sub-offer S' of S: S' may not have more chosen
    than S.  Returns the first ``(S, S')`` that fails, or ``None``."""
    for offer in map(frozenset, powerset(range(pref.n_opposite))):
        size = len(choice_oracle(pref, offer))
        for sub in map(frozenset, powerset(offer)):
            if len(choice_oracle(pref, sub)) > size:
                return (offer, sub)
    return None


def prefers_oracle(pref, first: frozenset, second: frozenset) -> str:
    if first == second:
        return "equal"
    best = choice_oracle(pref, first | second)
    if best == first:
        return "greater"
    if best == second:
        return "less"
    return "incomparable"


def stable_oracle(matching: Matching, market: Market) -> bool:
    """Stability straight from the definitions, sets only, no short-cuts."""
    nf, nw = market.shape
    mu_f = [matching.firm_set(i) for i in range(nf)]
    mu_w = [matching.worker_set(j) for j in range(nw)]
    for i in range(nf):
        if choice_oracle(market.firm_prefs[i], mu_f[i]) != mu_f[i]:
            return False
    for j in range(nw):
        if choice_oracle(market.worker_prefs[j], mu_w[j]) != mu_w[j]:
            return False
    for i in range(nf):
        for j in range(nw):
            if j in mu_f[i]:
                continue
            wants_firm = j in choice_oracle(market.firm_prefs[i], mu_f[i] | {j})
            wants_worker = i in choice_oracle(market.worker_prefs[j], mu_w[j] | {i})
            if wants_firm and wants_worker:
                return False
    return True


def enumerate_oracle(market: Market) -> set[Matching]:
    """All stable matchings from the full 2^(F*W) edge-set sweep."""
    nf, nw = market.shape
    cells = [(i, j) for i in range(nf) for j in range(nw)]
    found = set()
    for bits in range(1 << len(cells)):
        edges = [cells[k] for k in range(len(cells)) if bits >> k & 1]
        candidate = Matching.from_edges(nf, nw, edges)
        if stable_oracle(candidate, market):
            found.add(candidate)
    return found


def enumerate_product_oracle(market: Market) -> list[Matching]:
    """All stable matchings, sorted by firm-assignment encoding, from the
    product of every firm's individually rational rows: each firm ranges
    over the subsets it would keep whole, and every combination is screened
    with the stability oracle."""
    _, nw = market.shape
    rows_per_firm = [
        [row for row in map(frozenset, powerset(range(nw))) if choice_oracle(pref, row) == row]
        for pref in market.firm_prefs
    ]
    found = [
        candidate
        for candidate in (Matching.from_firm_sets(nw, rows) for rows in product(*rows_per_firm))
        if stable_oracle(candidate, market)
    ]
    return sorted(found, key=lambda m: m.firm_masks)


def _bracketed_rows(pref, n_opposite: int, top: int, bottom: int) -> list[int]:
    """Individually rational rows of one firm that could sit in a stable
    matching: as large as its firm-optimal row ``top``, no better than
    ``top`` and no worse than its worker-optimal row ``bottom``."""
    size = top.bit_count()
    return [
        mask
        for mask in range(1 << n_opposite)
        if mask.bit_count() == size
        and pref.choice_mask(mask) == mask
        and pref.choice_mask(top | mask) == top
        and pref.choice_mask(mask | bottom) == mask
    ]


def _search(market: Market, rows_per_firm: list[list[int]], need: list[int]) -> list[Matching]:
    """Stable matchings among the bracketed rows, placing firms in order.

    ``need[j]`` is worker ``j``'s partner count, the same in every stable
    matching.  A branch is cut when a worker goes over its count, can no
    longer reach it from the firms still to be placed, or has reached it and
    either rejects part of its assignment or forms a blocking pair with a
    firm already placed.  Each cut drops only unstable matchings, and every
    completed matching is still screened by :func:`find_blocking`.
    """
    nf, nw = market.shape
    firm_prefs, worker_prefs = market.firm_prefs, market.worker_prefs
    unions = [reduce(or_, rows, 0) for rows in rows_per_firm]
    # reach[k][j]: how many of the firms k, k+1, ... have a row holding worker j
    reach = [[0] * nw]
    for union in reversed(unions):
        reach.append([r + (union >> j & 1) for j, r in enumerate(reach[-1])])
    reach.reverse()
    options = [
        [(row, mask_subset(row), mask_subset(union & ~row)) for row in rows]
        for rows, union in zip(rows_per_firm, unions)
    ]
    rows = [0] * nf
    held = [0] * nw  # firms placed so far that hold each worker
    found = []

    def blocks(i: int, j: int) -> bool:
        return bool(
            firm_prefs[i].choice_mask(rows[i] | 1 << j) >> j & 1
            and worker_prefs[j].choice_mask(held[j] | 1 << i) >> i & 1
        )

    def settled(j: int, placed: int) -> bool:
        """Worker j, at its count, keeps its whole assignment and blocks
        with none of the first ``placed`` firms."""
        return worker_prefs[j].choice_mask(held[j]) == held[j] and not any(
            blocks(i, j) for i in range(placed) if not rows[i] >> j & 1
        )

    def place(k: int, full: int) -> None:
        if k == nf:
            matching = Matching(tuple(rows), nw)
            if find_blocking(matching, market) is None:
                found.append(matching)
            return
        later, bit, finished = reach[k + 1], 1 << k, mask_subset(full)
        for row, taken, passed in options[k]:
            if row & full:
                continue
            rows[k] = row
            for j in taken:
                held[j] |= bit
            fresh = [j for j in taken if held[j].bit_count() == need[j]]
            if (
                all(held[j].bit_count() + later[j] >= need[j] for j in passed)
                and not any(blocks(k, j) for j in finished)
                and all(settled(j, k + 1) for j in fresh)
            ):
                place(k + 1, full | sum(1 << j for j in fresh))
            for j in taken:
                held[j] ^= bit

    place(0, sum(1 << j for j in range(nw) if need[j] == 0))
    del place  # it refers to itself through its closure: a cycle holding the market
    return found


def block_product_oracle(blocks) -> list[Matching]:
    """All stable matchings of the market made of the disjoint markets
    ``blocks`` (nobody accepts a partner outside its own block), sorted by
    firm-assignment encoding: each block is enumerated on its own by
    :func:`enumerate_product_oracle`, and the whole market's stable set is
    the product of theirs, since no pair across blocks can block."""
    per_block, offset = [], 0
    for block in blocks:
        per_block.append(
            [
                [frozenset(j + offset for j in m.firm_set(i)) for i in range(block.num_firms)]
                for m in enumerate_product_oracle(block)
            ]
        )
        offset += block.num_workers
    found = [Matching.from_firm_sets(offset, chain.from_iterable(parts)) for parts in product(*per_block)]
    return sorted(found, key=lambda m: m.firm_masks)


def firm_table_oracle(matchings, market: Market) -> tuple[tuple[Cmp, ...], ...]:
    """The firms' order on ``matchings`` as a table of :class:`Cmp`, read
    off the literal choice criterion in both directions."""
    def relation(a, b):
        up, down = firm_at_least_oracle(a, b, market), firm_at_least_oracle(b, a, market)
        if up and down:
            return Cmp.EQUAL
        if up:
            return Cmp.GREATER
        if down:
            return Cmp.LESS
        return Cmp.INCOMPARABLE

    return tuple(tuple(relation(a, b) for b in matchings) for a in matchings)


def hasse_oracle(table) -> tuple[tuple[int, int], ...]:
    """Covering pairs of a table of :class:`Cmp`, in ascending order: every
    (i, j) with i greater than j and no k with i greater than k greater than
    j, found by scanning all triples."""
    size = len(table)
    return tuple(
        (i, j)
        for i in range(size)
        for j in range(size)
        if table[i][j] is Cmp.GREATER
        and not any(table[i][k] is Cmp.GREATER and table[k][j] is Cmp.GREATER for k in range(size))
    )


def firm_at_least_oracle(m1: Matching, m2: Matching, market: Market) -> bool:
    """m1 >= m2 in the firms' order, via the literal choice criterion."""
    nf, _ = market.shape
    for i in range(nf):
        a, b = m1.firm_set(i), m2.firm_set(i)
        if a != b and choice_oracle(market.firm_prefs[i], a | b) != a:
            return False
    return True


def worker_at_least_oracle(m1: Matching, m2: Matching, market: Market) -> bool:
    _, nw = market.shape
    for j in range(nw):
        a, b = m1.worker_set(j), m2.worker_set(j)
        if a != b and choice_oracle(market.worker_prefs[j], a | b) != a:
            return False
    return True


def expectation_oracle(terms) -> tuple:
    """Plain weighted sum of 0/1 grids, as nested tuples of Fractions."""
    nf, nw = terms[0][1].shape
    grid = [[Fraction(0)] * nw for _ in range(nf)]
    for weight, matching in terms:
        for i in range(nf):
            for j in range(nw):
                if j in matching.firm_set(i):
                    grid[i][j] += weight
    return tuple(tuple(row) for row in grid)


def dominance_sums_oracle(cx, cy, pref, assigned) -> bool:
    """The dominance inequalities by their literal two-sided sum.

    For every assignment v of ``cy``, the mass ``cx`` puts on assignments
    the agent likes at least as much as v must cover the mass ``cy`` puts
    there; assignments incomparable to v count toward neither sum.
    ``assigned`` maps a matching to the agent's partner set.
    """
    def mass_at_least(lottery, target):
        return sum(
            (w for w, m in lottery.terms if prefers_oracle(pref, assigned(m), target) in ("greater", "equal")),
            Fraction(0),
        )

    return all(mass_at_least(cx, assigned(m)) >= mass_at_least(cy, assigned(m)) for _, m in cy.terms)


def termwise_side_cmp(alignment, market: Market, side: Side) -> Cmp:
    """How the left matchings of an alignment stand to the right ones for a
    whole side, by the paper's termwise fold: every agent on the side votes
    on every aligned pair with the literal choice criterion, and the side
    agrees only if no two votes conflict.  Side ``dominates`` reads its
    verdict off the profiles over J instead and is checked against this."""
    votes = set()
    for a, b in zip(alignment.left, alignment.right):
        for k, pref in enumerate(market.prefs(side)):
            if side is Side.FIRMS:
                votes.add(prefers_oracle(pref, a.firm_set(k), b.firm_set(k)))
            else:
                votes.add(prefers_oracle(pref, a.worker_set(k), b.worker_set(k)))
    votes.discard("equal")
    if not votes:
        return Cmp.EQUAL
    if votes == {"greater"}:
        return Cmp.GREATER
    if votes == {"less"}:
        return Cmp.LESS
    return Cmp.INCOMPARABLE


def weak_dominance_oracle(cx, cy, pref, assigned) -> bool:
    """Dominance inequalities with the cumulative-weight shortcut, for firms.

    On a decreasing representation a firm's assignments descend, so the mass
    the second lottery puts on assignments at least as good as its own j-th
    term is the cumulative weight through j (through the end of a run of
    equal assignments), and the check reduces to comparing against running
    prefix sums.  A worker's assignments ascend, so the shortcut does not
    hold for workers; :func:`dominance_sums_oracle` serves both sides.
    """
    y_sets = [assigned(m) for _, m in cy.terms]
    prefix = Fraction(0)
    prefixes = []
    for w, _ in cy.terms:
        prefix += w
        prefixes.append(prefix)
    for j, target in enumerate(y_sets):
        # push j to the end of its run of equal assignments
        end = j
        while end + 1 < len(y_sets) and y_sets[end + 1] == target:
            end += 1
        lhs = sum(
            (w for w, m in cx.terms if prefers_oracle(pref, assigned(m), target) in ("greater", "equal")),
            Fraction(0),
        )
        if lhs < prefixes[end]:
            return False
    return True


def decompose_oracle(terms, stable, market):
    """The paper's decreasing decomposition by its literal rescaling recurrence.

    The pool is the support closed under least upper and greatest lower
    bounds, each found by an exhaustive scan of ``stable`` with
    ``firm_at_least_oracle``.  Each round takes the pool's least upper bound,
    its share is the least residual entry over that matching's cells, the
    pool members using a cell that attains it leave, and the residual grid
    becomes (residual - share * best) / (1 - share).  Returns one tuple
    (pool, residual, best, share, tight, removed) per round, with pool and
    removed as frozensets, and the result as a tuple of (weight, matching).
    """
    nf, nw = market.shape
    at_least = {(a, b): firm_at_least_oracle(a, b, market) for a in stable for b in stable}

    def least_upper(family):
        upper = [c for c in stable if all(at_least[c, m] for m in family)]
        (least,) = [c for c in upper if all(at_least[u, c] for u in upper)]
        return least

    def greatest_lower(family):
        lower = [c for c in stable if all(at_least[m, c] for m in family)]
        (greatest,) = [c for c in lower if all(at_least[c, d] for d in lower)]
        return greatest

    pool = frozenset(m for _, m in terms)
    while True:
        grown = pool | {
            bound(pair) for pair in combinations(pool, 2) for bound in (least_upper, greatest_lower)
        }
        if grown == pool:
            break
        pool = grown

    residual = expectation_oracle(terms)
    mass = Fraction(1)
    steps, result = [], []
    while pool:
        best = least_upper(pool)
        cells = {(i, j) for i in range(nf) for j in best.firm_set(i)}
        if cells:
            share = min(residual[i][j] for i, j in cells)
            tight = frozenset((i, j) for i, j in cells if residual[i][j] == share)
            removed = frozenset(m for m in pool if any(j in m.firm_set(i) for i, j in tight))
        else:
            share, tight, removed = Fraction(1), frozenset(), pool
        steps.append((pool, residual, best, share, tight, removed))
        result.append((mass * share, best))
        pool -= removed
        if pool:
            residual = tuple(
                tuple(
                    (residual[i][j] - (share if (i, j) in cells else 0)) / (1 - share)
                    for j in range(nw)
                )
                for i in range(nf)
            )
            mass *= 1 - share
    return steps, tuple(result)
