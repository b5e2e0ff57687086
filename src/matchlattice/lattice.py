"""The stable set and its deterministic lattice structure.

Enumeration walks the lattice down from its top.  Deferred acceptance, run
once with the firms proposing and once with the workers proposing, gives
the firm-optimal and the worker-optimal stable matching, the top and the
bottom of the firms' order.  From each member the walk breaks, one at a
time, each pair that the bottom lacks: the firm loses the worker, and
deferred acceptance restarts from the member until the worker's choice
drops the firm (:func:`_walk`).  Every matching the walk reaches is
screened with :func:`~matchlattice.matchings.find_blocking`, the package's
one definition of stability.

The stable set is a distributive lattice, so each member is its down-set
over the join-irreducible members J (Birkhoff 1937), and
:meth:`StableSet.join` and :meth:`StableSet.meet` return the member whose
down-set is the union or the intersection of two.  The checked
:func:`join_f` and :func:`meet_f` point instead: the firm-side join of two
stable matchings gives every firm its choice from the union of its two
assignments (and is simultaneously the worker-side meet); the firm-side meet
points with the workers' choice functions.  Under substitutability plus the
law of aggregated demand these are exactly the least upper bound and the
greatest lower bound in the firms' common partial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Optional

from .errors import AxiomError, CapacityError, ValidationError
from .matchings import Matching, _transpose, find_blocking
from .prefs import Cmp, Market, Side, _compare_pointwise, profile_violations

#: Largest market (firm count times worker count) the enumerator accepts.
ENUMERATION_GUARD = 25


def compare_firms(m1: Matching, m2: Matching, market: Market) -> Cmp:
    """Position of ``m1`` relative to ``m2`` when every firm gets a vote.

    Greater means every firm weakly prefers its ``m1`` assignment and at
    least one strictly does.
    """
    return _compare_pointwise(market.firm_prefs, m1.firm_masks, m2.firm_masks)


def compare_workers(m1: Matching, m2: Matching, market: Market) -> Cmp:
    return _compare_pointwise(market.worker_prefs, m1.worker_masks, m2.worker_masks)


def _pointing(matchings: Iterable[Matching], market: Market, side: Side) -> Matching:
    """Every agent on ``side`` takes its choice from the union of its
    assignments: that side's join, and the other side's meet."""
    prefs = market.prefs(side)
    unions = [0] * len(prefs)
    for m in matchings:
        for k, mask in enumerate(m.masks(side)):
            unions[k] |= mask
    masks = tuple(pref.choice_mask(u) for pref, u in zip(prefs, unions))
    firm_masks = masks if side is Side.FIRMS else _transpose(masks, market.num_firms)
    return Matching(firm_masks, market.num_workers)


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
    inputs are already stable-set members, uses :meth:`StableSet.join`.
    """
    return _pointing(_stable_family(matchings, market, "join"), market, Side.FIRMS)


def multi_meet_f(matchings: Iterable[Matching], market: Market) -> Matching:
    """Firm-side greatest lower bound of a family, computed with the
    workers' choices.  Coincides with the worker-side join."""
    return _pointing(_stable_family(matchings, market, "meet"), market, Side.WORKERS)


def join_f(m1: Matching, m2: Matching, market: Market) -> Matching:
    """Firm-side least upper bound of two stable matchings."""
    return multi_join_f((m1, m2), market)


def meet_f(m1: Matching, m2: Matching, market: Market) -> Matching:
    """Firm-side greatest lower bound of two stable matchings."""
    return multi_meet_f((m1, m2), market)


@dataclass(frozen=True, init=False)
class StableSet:
    """All stable matchings of a market, with the firms' order stored once.

    ``matchings`` is sorted by firm-assignment encoding, so the listing is
    deterministic.  The order is one bitmask per member, ``_below[i]``: bit
    ``j`` is set when member ``j`` lies strictly below member ``i`` for the
    firms.  :func:`enumerate_stable` builds these masks from the walk's own
    breaks; ``StableSet(market, matchings, firm_table)`` reads them off a
    table of :class:`Cmp`, taking ``GREATER`` cells as the strict order.
    :meth:`cmp_f`, :func:`hasse_edges` and the members' down-sets over J
    (:meth:`_down_sets`) read the masks; ``firm_table`` is derived from them
    on first read.  The down-sets over J are checked when first needed, and
    every join and meet, and every lottery profile, is read off them.  A set
    whose held down-sets are not exactly the down-sets of J, or with a cover
    that does not change the cells of its member of J, refuses them all
    (not-in-stable-set).
    """

    market: Market
    matchings: tuple[Matching, ...]
    _below: tuple[int, ...] = field(repr=False)
    _positions: dict = field(compare=False, repr=False)
    _profile: tuple = field(compare=False, repr=False)

    def __init__(self, market: Market, matchings: Iterable[Matching], firm_table):
        below = tuple(sum(1 << j for j, cell in enumerate(row) if cell is Cmp.GREATER) for row in firm_table)
        self._hold(market, tuple(matchings), below)

    @classmethod
    def _ordered(cls, market: Market, matchings: tuple[Matching, ...], below: tuple[int, ...]) -> "StableSet":
        """A stable set built straight from its strict down-set masks: no table."""
        stable_set = object.__new__(cls)
        stable_set._hold(market, matchings, below)
        return stable_set

    def _hold(self, market: Market, matchings: tuple[Matching, ...], below: tuple[int, ...]) -> None:
        positions = {m: i for i, m in enumerate(matchings)}
        self.__dict__.update(
            market=market, matchings=matchings, _below=below, _positions=positions, _profile=None
        )

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
        """Member i against member j in the firms' order, read off two bits."""
        below = self._below
        if below[i] >> j & 1:
            return Cmp.GREATER
        if below[j] >> i & 1:
            return Cmp.LESS
        return Cmp.EQUAL if i == j else Cmp.INCOMPARABLE

    @cached_property
    def firm_table(self) -> tuple[tuple[Cmp, ...], ...]:
        """``firm_table[i][j]`` is :meth:`cmp_f` of i and j, built on first read."""
        members = range(len(self))
        return tuple(tuple(self.cmp_f(i, j) for j in members) for i in members)

    def join(self, i: int, j: int) -> int:
        """Position of the firm-side join (the workers' meet) of members i and
        j: the member whose down-set is the union of theirs."""
        masks, position_of = self._down_sets()
        return position_of[masks[i] | masks[j]]

    def meet(self, i: int, j: int) -> int:
        """Position of the firm-side meet (the workers' join) of members i and
        j: the member whose down-set is the intersection of theirs."""
        masks, position_of = self._down_sets()
        return position_of[masks[i] & masks[j]]

    def _down_sets(self) -> tuple[tuple[int, ...], dict[int, int]]:
        """Each member's down-set over the join-irreducibles as a bitmask, by
        position, and the position of each down-set; built once, and refused
        unless the held down-sets are exactly the down-sets of J and each cover
        changes the cells of its member of J (:func:`_profile_index`)."""
        if self._profile is None:
            object.__setattr__(self, "_profile", _profile_index(self))
        return self._profile

    @property
    def firm_optimal(self) -> Matching:
        return self.matchings[reduce(self.join, range(len(self)))]

    @property
    def firm_pessimal(self) -> Matching:
        return self.matchings[reduce(self.meet, range(len(self)))]


def _propose(proposers, receivers, available, offers, held, pending, phantom=(-1, -1)) -> bool:
    """Deferred acceptance one event at a time, in place, from any state: the
    one loop of :func:`_deferred_acceptance` and :func:`_break`.  A pending
    proposer chooses from ``available`` and offers to the receivers it added;
    each chooses from its ``held`` plus the offer, and each one it drops loses
    it and is pending again.  Returns whether ``phantom``, a (receiver,
    proposer) pair the proposer already lost, was dropped.  Choice is path
    independent under substitutability plus LAD (Aygun and Sonmez 2013), so
    a receiver that drops a proposer beside what it holds drops it beside
    more: no receiver is screened out in advance.  The tests check this;
    they do not prove it."""
    lost_by, lost = phantom
    broken = False
    while pending:
        g = pending.pop()
        chosen = proposers[g].choice_mask(available[g])
        added, offers[g] = chosen & ~offers[g], chosen
        while added:
            bit = added & -added
            added ^= bit
            x = bit.bit_length() - 1
            pool = held[x] | 1 << g
            held[x] = receivers[x].choice_mask(pool)
            dropped = pool & ~held[x]
            while dropped:
                gone = dropped & -dropped
                dropped ^= gone
                h = gone.bit_length() - 1
                if h == lost and x == lost_by:
                    broken = True  # h already lost x
                    continue
                available[h] &= ~bit
                offers[h] &= ~bit
                pending.append(h)
    return broken


def _deferred_acceptance(proposers, receivers) -> tuple[int, ...]:
    """Proposer-optimal stable matching, as one mask of receivers per proposer:
    :func:`_propose` from the empty matching, every proposer pending (Roth
    1984; Hatfield and Milgrom 2005)."""
    n, everyone = len(proposers), (1 << len(receivers)) - 1
    offers = [0] * n
    _propose(proposers, receivers, [everyone] * n, offers, [0] * len(receivers), list(range(n)))
    return tuple(offers)


def _screened(firm_masks: tuple[int, ...], market: Market) -> Matching:
    """A member the walk reached, refused (not-stable) if blocked: never left out."""
    matching = Matching(firm_masks, market.num_workers)
    witness = find_blocking(matching, market)
    if witness is not None:
        raise ValidationError(f"walk reached an unstable matching (blocked by {witness})", code="not-stable")
    return matching


def _break(market: Market, mu: Matching, f: int, w: int) -> Optional[tuple[int, ...]]:
    """Firm rows of the greatest stable matching below ``mu`` without (f, w),
    or ``None``: :func:`_propose` restarted from ``mu``.  Every firm starts
    with every worker available, f loses w, and w keeps f as the phantom.
    The break succeeds if w ever chooses without f."""
    offers, held = list(mu.firm_masks), list(mu.worker_masks)
    available = [(1 << market.num_workers) - 1] * market.num_firms
    available[f] ^= 1 << w
    offers[f] ^= 1 << w
    broken = _propose(market.firm_prefs, market.worker_prefs, available, offers, held, [f], (w, f))
    return tuple(offers) if broken else None


def _walk(market: Market, top: tuple[int, ...], bottom: tuple[int, ...]) -> tuple[list[Matching], list[int]]:
    """Every stable matching, breadth-first down from the firm rows ``top``
    of the firm-optimal one, breaking at each member mu every pair that the
    worker-optimal ``bottom`` lacks (:func:`_break`, the many-to-many form
    of Gusfield and Irving's breakmarriage, 1989), and for each member the
    walk positions its successful breaks returned, as a bitmask, already
    seen members included.  It relies on three facts:

    * the pairs mu shares with ``bottom`` lie in every member between them:
      if (f, w) is in mu and in ``bottom`` and mu >= nu >= ``bottom``, then f
      chooses w from nu(f) | {w} and w chooses f from nu(w) | {f}, so
      (f, w) would block nu unless nu holds it;
    * every lower cover of mu therefore lacks some other pair of mu;
    * the break lemma: breaking (f, w) gives the greatest stable matching
      below mu without it, which is any lower cover that lacks (f, w).  This
      is the rotation structure of substitutable, consistent, cardinally
      monotone choice (Faenza and Zhang 2022); the tests check it against
      two independent enumerations rather than prove it here.

    So every break result lies strictly below its member, and every lower
    cover is one: the results generate the firms' order (:func:`_closure`).
    """
    members, position = [_screened(top, market)], {top: 0}
    reached = []
    for mu in members:  # grows as the walk goes: breadth-first
        children = 0
        for f, row in enumerate(mu.firm_masks):
            pairs = row & ~bottom[f]
            while pairs:
                bit = pairs & -pairs
                pairs ^= bit
                rows = _break(market, mu, f, bit.bit_length() - 1)
                if rows is None:
                    continue
                k = position.get(rows)
                if k is None:
                    k = position[rows] = len(members)
                    members.append(_screened(rows, market))
                children |= 1 << k
        reached.append(children)
    return members, reached


def _closure(children: list[int]) -> tuple[int, ...]:
    """Each member's strict down-set as a bitmask, from the members its
    breaks returned: below(mu) is the union over children c of below(c) and
    c.  This is the firms' order only by the break lemma of :func:`_walk`
    (each result lies strictly below its member, each lower cover is a
    result), which the tests check against the pairwise comparison and do
    not prove.  A depth-first loop keeps each member open, on the path or
    closed; a member that reaches itself is a cycle, refused (not-stable)
    instead of returned as a partial order."""
    below, state = [0] * len(children), [0] * len(children)  # 0 open, 1 on the path, 2 closed
    left = list(children)
    for root in range(len(children)):
        if state[root]:
            continue
        state[root], path = 1, [root]
        while path:
            mu = path[-1]
            rest = left[mu]
            while rest:
                bit = rest & -rest
                c = bit.bit_length() - 1
                if state[c] != 2:
                    break
                below[mu] |= below[c] | bit
                rest ^= bit
            left[mu] = rest
            if not rest:
                state[mu] = 2
                path.pop()
            elif state[c]:
                raise ValidationError(
                    "the walk's breaks do not descend: a member lies below itself", code="not-stable"
                )
            else:
                state[c] = 1
                path.append(c)
    return tuple(below)


def enumerate_stable(market: Market) -> StableSet:
    """Enumerate the full stable set by walking down from its top.

    Every preference must pass both axiom checks first; a violation is
    reported with its witness, since without the axioms the lattice
    operations downstream are meaningless.  Deferred acceptance from each
    side then gives the top and the bottom, and :func:`_walk` the members.
    """
    cells = market.num_firms * market.num_workers
    if cells > ENUMERATION_GUARD:
        raise CapacityError(
            f"enumeration refuses markets with more than "
            f"{ENUMERATION_GUARD} firm-worker cells (got {cells})"
        )
    failures = profile_violations(market)
    if failures:
        agent, axiom, witness = failures[0]
        raise AxiomError(
            f"{agent} violates {axiom}: witness {witness}", agent=agent, witness=witness
        )

    top = _deferred_acceptance(market.firm_prefs, market.worker_prefs)
    bottom = _transpose(_deferred_acceptance(market.worker_prefs, market.firm_prefs), market.num_firms)
    found, reached = _walk(market, top, bottom)
    order = sorted(range(len(found)), key=lambda k: found[k].firm_masks)
    rank = [0] * len(found)
    for r, k in enumerate(order):
        rank[k] = r
    children = []
    for k in order:  # the break results, renumbered to sorted positions
        mask, rest = 0, reached[k]
        while rest:
            bit = rest & -rest
            rest ^= bit
            mask |= 1 << rank[bit.bit_length() - 1]
        children.append(mask)
    return StableSet._ordered(market, tuple(found[k] for k in order), _closure(children))


def rht_check(stable_set: StableSet) -> bool:
    """Rural Hospital property: every agent has the same number of partners
    in every stable matching.  Must hold whenever the axioms hold."""
    partner_counts = {
        tuple(mask.bit_count() for mask in m.firm_masks + m.worker_masks) for m in stable_set
    }
    return len(partner_counts) <= 1


def hasse_edges(stable_set: StableSet) -> tuple[tuple[int, int], ...]:
    """Covering pairs of the firms' order: the transitive reduction,
    as (higher index, lower index) pairs in ascending order.

    The covers of i are the maximal elements of its strict down-set mask:
    the j below i that lie below no other k below i.
    """
    below = stable_set._below
    edges = []
    for i, down in enumerate(below):
        implied, rest = 0, down
        while rest:
            bit = rest & -rest
            rest ^= bit
            implied |= below[bit.bit_length() - 1]
        covers = down & ~implied
        while covers:
            bit = covers & -covers
            covers ^= bit
            edges.append((i, bit.bit_length() - 1))
    return tuple(edges)


def _profile_index(stable_set: StableSet) -> tuple[tuple[int, ...], dict[int, int]]:
    """Birkhoff's representation of the stable set: each member as its
    down-set over J, the join-irreducible members (those with exactly one
    lower cover), bit b of a down-set standing for the b-th member of J.

    Refused (not-in-stable-set) unless the held down-sets are exactly the
    down-sets of J and each cover changes the cells of its member of J: they
    are distinct, the empty one is held, each held m holds d(j), the down-set
    of each j in m, and holds m | d(j) for every j, and each cover adds one j.
    Unions and intersections of held down-sets are then held, and each
    member's incidence matrix is the bottom's plus the changes of the members
    of J in its down-set, which lets a lottery be read off its profile over J.
    """
    edges = hasse_edges(stable_set)
    lower = [[] for _ in stable_set.matchings]
    for i, k in edges:
        lower[i].append(k)
    irreducibles = [i for i, covers in enumerate(lower) if len(covers) == 1]
    masks = tuple(
        sum(1 << b for b, j in enumerate(irreducibles) if (down | 1 << i) >> j & 1)
        for i, down in enumerate(stable_set._below)
    )
    position = {mask: k for k, mask in enumerate(masks)}

    def change(i: int, k: int) -> tuple[tuple[int, int], ...]:
        """The cells, per firm, that the cover of k by i turns on and off."""
        pairs = zip(stable_set[i].firm_masks, stable_set[k].firm_masks)
        return tuple((a & ~b, b & ~a) for a, b in pairs)

    own = {1 << b: change(j, lower[j][0]) for b, j in enumerate(irreducibles)}
    downs = [(b, masks[j]) for b, j in enumerate(irreducibles)]
    if (
        len(position) < len(masks)
        or 0 not in position
        or any(m >> b & 1 and down & ~m or m | down not in position for m in masks for b, down in downs)
        or any(masks[k] & ~masks[i] or own.get(masks[i] ^ masks[k]) != change(i, k) for i, k in edges)
    ):
        raise ValidationError(
            "the stable set is not the lattice of down-sets of its join-irreducibles",
            code="not-in-stable-set",
        )
    return masks, position


def to_dot(stable_set: StableSet) -> str:
    """Graphviz rendering of the Hasse diagram, firm-best at the top."""
    lines = ["digraph stable_set {", "  rankdir=TB;"]
    for i in range(len(stable_set)):
        lines.append(f'  "{stable_set.label(i)}";')
    for i, j in hasse_edges(stable_set):
        lines.append(f'  "{stable_set.label(i)}" -> "{stable_set.label(j)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
