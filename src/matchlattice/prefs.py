"""Preferences of market agents over subsets of the opposite side.

Each agent carries a strict ranking over the subsets of the other side it
finds acceptable, and everything downstream consumes the ranking through its
*choice function*: ``choice(offered)`` returns the best acceptable subset of
``offered``.  Two concrete forms are supported:

* :class:`RankedPreference` -- an explicit best-first list of acceptable
  subsets.  Subsets not on the list are unacceptable (ranked below the empty
  set) and are never chosen.
* :class:`ResponsivePreference` -- a quota plus a priority order over
  individual partners; the choice takes the top partners up to quota.

At the API surface subsets are frozensets of opposite-side indices.
Internally subsets are bitmasks and choice values are memoised, because the
axiom checks, the stable-set enumeration and the lattice operations all
repeat the same choice queries.

The two axioms that make the stable set a lattice -- substitutability and
the law of aggregated demand (LAD) -- are checked in their one-removal
forms: every offer against each offer with one partner fewer, ``n * 2**n``
memoised choice calls for ``n`` opposite-side agents, within the budget
that :data:`AXIOM_GUARD` sets.  Responsive preferences satisfy both by
construction and are not searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .errors import CapacityError, ValidationError

#: Largest opposite side for which the axiom checks will run; the budget is
#: ``AXIOM_GUARD * 2**AXIOM_GUARD`` choice calls per agent.
AXIOM_GUARD = 16


class Side(Enum):
    """One of the two disjoint agent sets of the market."""

    FIRMS = "F"
    WORKERS = "W"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AgentId:
    """A single agent, addressed by side and zero-based index."""

    side: Side
    index: int

    def __str__(self) -> str:
        prefix = "f" if self.side is Side.FIRMS else "w"
        return f"{prefix}{self.index + 1}"


def _agent_entry(agent: AgentId, entries: tuple):
    """The entry at ``agent``'s index, refused (unknown-agent) unless the
    index is an ``int``, not a ``bool``, in range: -1 is no agent."""
    index = agent.index
    if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < len(entries):
        raise ValidationError(f"no such agent: index {index!r} on side {agent.side}", code="unknown-agent")
    return entries[index]


class Cmp(Enum):
    """How one subset, or one matching, relates to another in an order:
    one agent's preference, or one side's common partial order."""

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
    """How ``masks1`` stands to ``masks2`` when each of ``prefs`` votes on its
    pair, a subset weakly beating another iff it is chosen from their union:
    greater when every vote is at least and one is better."""
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


def subset_mask(subset: Iterable[int], size: int) -> int:
    """Encode a collection of opposite-side indices as a bitmask."""
    mask = 0
    for member in subset:
        if not 0 <= member < size:
            raise ValidationError(
                f"agent index {member} outside the opposite side 0..{size - 1}",
                code="unknown-agent",
            )
        mask |= 1 << member
    return mask


def mask_subset(mask: int) -> frozenset[int]:
    """Decode a bitmask back into a frozenset of indices."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(members)


class Preference:
    """Base class for both preference forms.

    Subclasses implement ``_choice_mask`` on bitmask-encoded subsets; all
    public entry points funnel through the memoised :meth:`choice_mask`.
    Instances are immutable after construction apart from the memo table.
    """

    __slots__ = ("owner", "n_opposite", "_memo")

    def __init__(self, owner: AgentId, n_opposite: int):
        if n_opposite < 0:
            raise ValidationError("opposite side size must be nonnegative")
        self.owner = owner
        self.n_opposite = n_opposite
        self._memo: dict[int, int] = {}

    def _choice_mask(self, mask: int) -> int:
        raise NotImplementedError

    def choice_mask(self, mask: int) -> int:
        """Best acceptable subset of ``mask``, as a bitmask."""
        memo = self._memo
        try:
            return memo[mask]
        except KeyError:
            result = memo[mask] = self._choice_mask(mask)
            return result

    def choice(self, offered: Iterable[int]) -> frozenset[int]:
        """Best acceptable subset of ``offered``; empty if nothing qualifies."""
        return mask_subset(self.choice_mask(subset_mask(offered, self.n_opposite)))

    def compare_masks(self, first: int, second: int) -> Cmp:
        """Compare two subsets: a set weakly beats another iff it is chosen
        from their union (the one-agent case of the order kernel)."""
        return _compare_pointwise((self,), (first,), (second,))

    def compare(self, first: Iterable[int], second: Iterable[int]) -> Cmp:
        n = self.n_opposite
        return self.compare_masks(subset_mask(first, n), subset_mask(second, n))


class RankedPreference(Preference):
    """Explicit best-first ranking of acceptable subsets.

    ``ranking`` lists distinct nonempty subsets of the opposite side; every
    unlisted subset is unacceptable.  The induced choice from an offer is
    the first listed subset contained in it, or the empty set.
    """

    __slots__ = ("ranking", "_rank_masks")

    def __init__(self, owner: AgentId, n_opposite: int, ranking: Iterable[Iterable[int]]):
        super().__init__(owner, n_opposite)
        masks = []
        seen = set()
        for subset in ranking:
            mask = subset_mask(subset, n_opposite)
            if mask == 0:
                raise ValidationError(
                    f"{owner}: the empty set cannot appear in a ranking",
                    code="invalid-preference",
                )
            if mask in seen:
                raise ValidationError(
                    f"{owner}: duplicate subset {sorted(mask_subset(mask))} in ranking",
                    code="invalid-preference",
                )
            seen.add(mask)
            masks.append(mask)
        self._rank_masks = tuple(masks)
        self.ranking = tuple(mask_subset(m) for m in masks)

    def _choice_mask(self, mask: int) -> int:
        for candidate in self._rank_masks:
            if candidate & mask == candidate:
                return candidate
        return 0

    def __repr__(self) -> str:
        return f"RankedPreference({self.owner}, {len(self.ranking)} subsets)"


class ResponsivePreference(Preference):
    """Quota-plus-priority compact form.

    The choice from an offer is the top ``quota`` acceptable partners present
    in it, by priority.  Responsive preferences are substitutable and satisfy
    LAD by construction.
    """

    __slots__ = ("quota", "priority")

    def __init__(self, owner: AgentId, n_opposite: int, quota: int, priority: Iterable[int]):
        super().__init__(owner, n_opposite)
        if quota < 0:
            raise ValidationError(f"{owner}: quota must be nonnegative", code="invalid-preference")
        prio = tuple(priority)
        if len(set(prio)) != len(prio):
            raise ValidationError(f"{owner}: duplicate partner in priority list", code="invalid-preference")
        subset_mask(prio, n_opposite)  # range check
        self.quota = quota
        self.priority = prio

    def _choice_mask(self, mask: int) -> int:
        chosen = 0
        room = self.quota
        for partner in self.priority:
            if room == 0:
                break
            bit = 1 << partner
            if mask & bit:
                chosen |= bit
                room -= 1
        return chosen

    def __repr__(self) -> str:
        return f"ResponsivePreference({self.owner}, q={self.quota}, priority={self.priority})"


def _guard(pref: Preference, what: str) -> None:
    n = pref.n_opposite
    estimate, budget = n << n, AXIOM_GUARD << AXIOM_GUARD
    if estimate > budget:
        raise CapacityError(
            f"{what} check of {pref.owner} needs {n}*2^{n} = {estimate:,} choice calls, "
            f"over the budget of {AXIOM_GUARD}*2^{AXIOM_GUARD} = {budget:,}"
        )


def substitutability_violation(
    pref: Preference,
) -> Optional[tuple[frozenset[int], frozenset[int], int]]:
    """Search for a substitutability failure by one-partner removals.

    Returns ``(S, S', b)`` with ``S' = S - {a}`` for some ``a``, ``b`` chosen
    from ``S`` but rejected from ``S'``, or ``None`` if the preference is
    substitutable.  Removals suffice: if every ``Ch(S) - {a}`` is kept by
    ``Ch(S - {a})``, a chosen ``b`` survives any chain of removals down to a
    sub-offer that still contains it (the monotone rejection function of
    Hatfield and Milgrom 2005).
    """
    _guard(pref, "substitutability")
    choice = pref.choice_mask
    for offer in range(1, 1 << pref.n_opposite):
        chosen = choice(offer)
        rest = offer
        while rest:
            low = rest & -rest
            rest ^= low
            lost = chosen & ~low & ~choice(offer ^ low)
            if lost:
                member = (lost & -lost).bit_length() - 1
                return (mask_subset(offer), mask_subset(offer ^ low), member)
    return None


def lad_violation(pref: Preference) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Search for a law-of-aggregated-demand failure by one-partner removals.

    Returns ``(S, S')`` with ``S' = S - {a}`` for some ``a`` but
    ``|choice(S')| > |choice(S)|``, or ``None`` if the chosen-set size is
    monotone in the offer, which follows along chains of removals.
    """
    _guard(pref, "law-of-aggregated-demand")
    choice = pref.choice_mask
    for offer in range(1, 1 << pref.n_opposite):
        size = choice(offer).bit_count()
        rest = offer
        while rest:
            low = rest & -rest
            rest ^= low
            if choice(offer ^ low).bit_count() > size:
                return (mask_subset(offer), mask_subset(offer ^ low))
    return None


@dataclass(frozen=True)
class Market:
    """A complete preference profile: one preference per firm and worker."""

    firm_prefs: tuple[Preference, ...]
    worker_prefs: tuple[Preference, ...]

    def __post_init__(self):
        for prefs, expected in ((self.firm_prefs, self.num_workers), (self.worker_prefs, self.num_firms)):
            for pref in prefs:
                if pref.n_opposite != expected:
                    raise ValidationError(
                        f"{pref.owner}: preference ranges over {pref.n_opposite} "
                        f"agents, market has {expected}"
                    )

    @property
    def num_firms(self) -> int:
        return len(self.firm_prefs)

    @property
    def num_workers(self) -> int:
        return len(self.worker_prefs)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_firms, self.num_workers)

    def prefs(self, side: Side) -> tuple[Preference, ...]:
        """The preferences of the agents on ``side``, by index."""
        return self.firm_prefs if side is Side.FIRMS else self.worker_prefs

    def pref(self, agent: AgentId) -> Preference:
        return _agent_entry(agent, self.prefs(agent.side))

    def agents(self) -> Iterable[AgentId]:
        for side in Side:
            for index in range(len(self.prefs(side))):
                yield AgentId(side, index)


def profile_violations(market: Market) -> list[tuple[AgentId, str, tuple]]:
    """Run both axiom checks on every agent.

    Returns a list of ``(agent, axiom-name, witness)`` triples; empty when
    the whole profile is substitutable and satisfies LAD.  Every agent is
    held to the size guard, but a :class:`ResponsivePreference` satisfies
    both axioms by construction and is not searched.
    """
    failures = []
    for agent in market.agents():
        pref = market.pref(agent)
        _guard(pref, "axiom")
        if isinstance(pref, ResponsivePreference):
            continue
        witness = substitutability_violation(pref)
        if witness is not None:
            failures.append((agent, "substitutability", witness))
        witness = lad_violation(pref)
        if witness is not None:
            failures.append((agent, "law-of-aggregated-demand", witness))
    return failures
