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
the law of aggregated demand (LAD) -- are checked exhaustively over all
subset pairs, guarded at :data:`AXIOM_GUARD` opposite-side agents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .errors import CapacityError, ValidationError

#: Largest opposite side for which the exhaustive axiom checks will run.
AXIOM_GUARD = 16


class Side(Enum):
    """One of the two disjoint agent sets of the market."""

    FIRMS = "F"
    WORKERS = "W"

    @property
    def opposite(self) -> "Side":
        return Side.WORKERS if self is Side.FIRMS else Side.FIRMS

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


class SetComparison(Enum):
    """Outcome of comparing two subsets under one agent's preference."""

    FIRST = "first"
    SECOND = "second"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


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

    def compare_masks(self, first: int, second: int) -> SetComparison:
        """Compare two subsets: a set weakly beats another iff it is chosen
        from their union."""
        if first == second:
            return SetComparison.EQUAL
        best = self.choice_mask(first | second)
        if best == first:
            return SetComparison.FIRST
        if best == second:
            return SetComparison.SECOND
        return SetComparison.INCOMPARABLE

    def compare(self, first: Iterable[int], second: Iterable[int]) -> SetComparison:
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


def responsive_to_ranked(pref: ResponsivePreference) -> RankedPreference:
    """Expand a responsive preference into an equivalent explicit ranking.

    Subsets of the priority list up to quota size, larger subsets first and,
    within a size, ordered lexicographically by priority positions.  The
    expansion induces exactly the same choice function.
    """
    ranking = []
    top = min(pref.quota, len(pref.priority))
    for size in range(top, 0, -1):
        for positions in itertools.combinations(range(len(pref.priority)), size):
            ranking.append(tuple(pref.priority[p] for p in positions))
    return RankedPreference(pref.owner, pref.n_opposite, ranking)


def _guard(pref: Preference, what: str) -> None:
    if pref.n_opposite > AXIOM_GUARD:
        raise CapacityError(
            f"{what} check is exhaustive and refuses opposite sides larger "
            f"than {AXIOM_GUARD} (got {pref.n_opposite})"
        )


def substitutability_violation(
    pref: Preference,
) -> Optional[tuple[frozenset[int], frozenset[int], int]]:
    """Search all subset pairs for a substitutability failure.

    Returns ``(S, S', b)`` with ``b`` chosen from ``S`` but rejected from the
    sub-offer ``S' | {b}`` with ``S' <= S``, or ``None`` if the preference is
    substitutable.
    """
    _guard(pref, "substitutability")
    for offer in range(1 << pref.n_opposite):
        chosen = pref.choice_mask(offer)
        picked = chosen
        while picked:
            low = picked & -picked
            picked ^= low
            member = low.bit_length() - 1
            rest = offer & ~low
            sub = rest
            while True:
                if not pref.choice_mask(sub | low) & low:
                    return (mask_subset(offer), mask_subset(sub | low), member)
                if sub == 0:
                    break
                sub = (sub - 1) & rest
    return None


def lad_violation(pref: Preference) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Search all subset pairs for a law-of-aggregated-demand failure.

    Returns ``(S, S')`` with ``S' <= S`` but ``|choice(S')| > |choice(S)|``,
    or ``None`` if the chosen-set size is monotone in the offer.
    """
    _guard(pref, "law-of-aggregated-demand")
    for offer in range(1 << pref.n_opposite):
        size = pref.choice_mask(offer).bit_count()
        sub = offer
        while True:
            if pref.choice_mask(sub).bit_count() > size:
                return (mask_subset(offer), mask_subset(sub))
            if sub == 0:
                break
            sub = (sub - 1) & offer
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

    def pref(self, agent: AgentId) -> Preference:
        prefs = self.firm_prefs if agent.side is Side.FIRMS else self.worker_prefs
        if not 0 <= agent.index < len(prefs):
            raise ValidationError(f"no such agent {agent}", code="unknown-agent")
        return prefs[agent.index]

    def agents(self) -> Iterable[AgentId]:
        for i in range(self.num_firms):
            yield AgentId(Side.FIRMS, i)
        for j in range(self.num_workers):
            yield AgentId(Side.WORKERS, j)


def profile_violations(market: Market) -> list[tuple[AgentId, str, tuple]]:
    """Run both axiom checks on every agent.

    Returns a list of ``(agent, axiom-name, witness)`` triples; empty when
    the whole profile is substitutable and satisfies LAD.
    """
    failures = []
    for agent in market.agents():
        pref = market.pref(agent)
        witness = substitutability_violation(pref)
        if witness is not None:
            failures.append((agent, "substitutability", witness))
        witness = lad_violation(pref)
        if witness is not None:
            failures.append((agent, "law-of-aggregated-demand", witness))
    return failures
