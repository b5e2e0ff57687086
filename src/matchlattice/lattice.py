"""The stable set and its deterministic lattice structure.

Enumeration is brute force over firm-side assignments: each firm row ranges
over its individually rational subsets and every combination is screened for
worker rationality and blocking pairs.  At desk scale this exhaustive search
is the trustworthy oracle, so no deferred-acceptance shortcut is attempted.

Join and meet are computed by pointing functions.  The firm-side join of two
stable matchings gives every firm its choice from the union of its two
assignments (and is simultaneously the worker-side meet); the firm-side meet
points with the workers' choice functions.  Under substitutability plus the
law of aggregated demand these are exactly the least upper bound and the
greatest lower bound in the firms' common partial order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import AxiomError, CapacityError, ValidationError
from .matchings import Matching, find_blocking
from .prefs import Market, Side, profile_violations

#: Largest market (firm count times worker count) the enumerator accepts.
ENUMERATION_GUARD = 25


class Cmp(Enum):
    """How two stable matchings relate in one side's common partial order."""

    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"

    @property
    def at_least(self) -> bool:
        return self in (Cmp.GREATER, Cmp.EQUAL)

    @property
    def flipped(self) -> "Cmp":
        if self is Cmp.GREATER:
            return Cmp.LESS
        if self is Cmp.LESS:
            return Cmp.GREATER
        return self


def _compare_pointwise(prefs, masks1, masks2) -> Cmp:
    better = worse = False
    for pref, a, b in zip(prefs, masks1, masks2):
        if a == b:
            continue
        best = pref.choice_mask(a | b)
        if best == a:
            better = True
        elif best == b:
            worse = True
        else:
            return Cmp.INCOMPARABLE
        if better and worse:
            return Cmp.INCOMPARABLE
    if better:
        return Cmp.GREATER
    if worse:
        return Cmp.LESS
    return Cmp.EQUAL


def compare_firms(m1: Matching, m2: Matching, market: Market) -> Cmp:
    """Position of ``m1`` relative to ``m2`` when every firm gets a vote.

    Greater means every firm weakly prefers its ``m1`` assignment and at
    least one strictly does.
    """
    return _compare_pointwise(market.firm_prefs, m1.firm_masks, m2.firm_masks)


def compare_workers(m1: Matching, m2: Matching, market: Market) -> Cmp:
    return _compare_pointwise(market.worker_prefs, m1.worker_masks, m2.worker_masks)


def compare_side(m1: Matching, m2: Matching, market: Market, side: Side) -> Cmp:
    if side is Side.FIRMS:
        return compare_firms(m1, m2, market)
    return compare_workers(m1, m2, market)


def _firm_pointing(matchings: Iterable[Matching], market: Market) -> Matching:
    unions = [0] * market.num_firms
    for m in matchings:
        for i, mask in enumerate(m.firm_masks):
            unions[i] |= mask
    masks = tuple(pref.choice_mask(u) for pref, u in zip(market.firm_prefs, unions))
    return Matching(masks, market.num_workers)


def _worker_pointing(matchings: Iterable[Matching], market: Market) -> Matching:
    unions = [0] * market.num_workers
    for m in matchings:
        for j, mask in enumerate(m.worker_masks):
            unions[j] |= mask
    masks = tuple(pref.choice_mask(u) for pref, u in zip(market.worker_prefs, unions))
    return Matching.from_worker_masks(market.num_firms, masks)


def _stable_family(matchings: Iterable[Matching], market: Market, operation: str) -> list[Matching]:
    group = list(matchings)
    if not group:
        raise ValidationError(f"{operation} of an empty family of matchings")
    for m in group:
        witness = find_blocking(m, market)
        if witness is not None:
            raise ValidationError(f"matching is not stable (blocked by {witness})", code="not-stable")
    return group


def multi_join_f(matchings: Iterable[Matching], market: Market) -> Matching:
    """Firm-side least upper bound of a whole family, in one pointing step:
    each firm chooses from the union of its assignments.  Coincides with
    the worker-side meet, and equals the fold of pairwise joins in any order.

    Every member is checked for stability first; the lottery algebra, whose
    inputs are already stable-set members, points directly instead.
    """
    return _firm_pointing(_stable_family(matchings, market, "join"), market)


def multi_meet_f(matchings: Iterable[Matching], market: Market) -> Matching:
    """Firm-side greatest lower bound of a family, computed with the
    workers' choices.  Coincides with the worker-side join."""
    return _worker_pointing(_stable_family(matchings, market, "meet"), market)


def join_f(m1: Matching, m2: Matching, market: Market) -> Matching:
    """Firm-side least upper bound of two stable matchings."""
    return multi_join_f((m1, m2), market)


def meet_f(m1: Matching, m2: Matching, market: Market) -> Matching:
    """Firm-side greatest lower bound of two stable matchings."""
    return multi_meet_f((m1, m2), market)


@dataclass(frozen=True)
class StableSet:
    """All stable matchings of a market, with the firms' order materialised.

    ``matchings`` is sorted by firm-assignment encoding, so the listing is
    deterministic.  ``firm_table[i][j]`` compares matching ``i`` against
    matching ``j`` in the firms' common partial order; the table is cached
    here because every lottery-level algorithm queries it heavily.
    """

    market: Market
    matchings: tuple[Matching, ...]
    firm_table: tuple[tuple[Cmp, ...], ...]
    _positions: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_positions", {m: i for i, m in enumerate(self.matchings)})

    def __len__(self) -> int:
        return len(self.matchings)

    def __iter__(self):
        return iter(self.matchings)

    def __getitem__(self, index: int) -> Matching:
        return self.matchings[index]

    def __contains__(self, matching: Matching) -> bool:
        return matching in self._positions

    def index(self, matching: Matching) -> int:
        try:
            return self._positions[matching]
        except KeyError:
            raise ValidationError(
                "matching is not a member of the stable set", code="not-in-stable-set"
            ) from None

    def label(self, index: int) -> str:
        return f"m{index + 1}"

    def cmp_f(self, i: int, j: int) -> Cmp:
        return self.firm_table[i][j]

    def compare(self, m1: Matching, m2: Matching) -> Cmp:
        return self.firm_table[self.index(m1)][self.index(m2)]

    @property
    def firm_optimal(self) -> Matching:
        for i, row in enumerate(self.firm_table):
            if all(c.at_least for c in row):
                return self.matchings[i]
        raise ValidationError("stable set has no firm-side maximum")

    @property
    def firm_pessimal(self) -> Matching:
        for i, row in enumerate(self.firm_table):
            if all(c.flipped.at_least for c in row):
                return self.matchings[i]
        raise ValidationError("stable set has no firm-side minimum")


def _individually_rational_rows(pref, n_opposite: int) -> list[int]:
    return [mask for mask in range(1 << n_opposite) if pref.choice_mask(mask) == mask]


def enumerate_stable(market: Market) -> StableSet:
    """Enumerate the full stable set by guarded brute force.

    Every preference must pass both axiom checks first; a violation is
    reported with its witness, since without the axioms the lattice
    operations downstream are meaningless.
    """
    cells = market.num_firms * market.num_workers
    if cells > ENUMERATION_GUARD:
        raise CapacityError(
            f"enumeration is brute force and refuses markets with more than "
            f"{ENUMERATION_GUARD} firm-worker cells (got {cells})"
        )
    failures = profile_violations(market)
    if failures:
        agent, axiom, witness = failures[0]
        raise AxiomError(
            f"{agent} violates {axiom}: witness {witness}", agent=agent, witness=witness
        )

    nf, nw = market.shape
    firm_prefs = market.firm_prefs
    worker_prefs = market.worker_prefs
    rows_per_firm = [_individually_rational_rows(p, nw) for p in firm_prefs]

    found = []
    for rows in itertools.product(*rows_per_firm):
        worker_masks = [0] * nw
        for i, mask in enumerate(rows):
            rest = mask
            while rest:
                low = rest & -rest
                worker_masks[low.bit_length() - 1] |= 1 << i
                rest ^= low
        if any(
            pref.choice_mask(worker_masks[j]) != worker_masks[j]
            for j, pref in enumerate(worker_prefs)
        ):
            continue
        blocked = False
        for i, fpref in enumerate(firm_prefs):
            fmask = rows[i]
            for j in range(nw):
                if fmask >> j & 1:
                    continue
                if not fpref.choice_mask(fmask | (1 << j)) >> j & 1:
                    continue
                if worker_prefs[j].choice_mask(worker_masks[j] | (1 << i)) >> i & 1:
                    blocked = True
                    break
            if blocked:
                break
        if not blocked:
            found.append(Matching(rows, nw))

    found.sort(key=lambda m: m.firm_masks)
    table = tuple(
        tuple(compare_firms(a, b, market) for b in found) for a in found
    )
    return StableSet(market, tuple(found), table)


def rht_check(stable_set: StableSet) -> bool:
    """Rural Hospital property: every agent has the same number of partners
    in every stable matching.  Must hold whenever the axioms hold."""
    partner_counts = {
        tuple(mask.bit_count() for mask in m.firm_masks + m.worker_masks) for m in stable_set
    }
    return len(partner_counts) <= 1


def hasse_edges(stable_set: StableSet) -> tuple[tuple[int, int], ...]:
    """Covering pairs of the firms' order: the transitive reduction,
    as (higher index, lower index) pairs."""
    size = len(stable_set)
    above = stable_set.firm_table
    edges = []
    for i in range(size):
        for j in range(size):
            if above[i][j] is not Cmp.GREATER:
                continue
            if any(
                above[i][k] is Cmp.GREATER and above[k][j] is Cmp.GREATER
                for k in range(size)
            ):
                continue
            edges.append((i, j))
    return tuple(edges)


def to_dot(stable_set: StableSet) -> str:
    """Graphviz rendering of the Hasse diagram, firm-best at the top."""
    lines = ["digraph stable_set {", "  rankdir=TB;"]
    for i in range(len(stable_set)):
        lines.append(f'  "{stable_set.label(i)}";')
    for i, j in hasse_edges(stable_set):
        lines.append(f'  "{stable_set.label(i)}" -> "{stable_set.label(j)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
