"""Matchings, exact incidence matrices, and the stability test.

A matching is stored as one bitmask of matched workers per firm; the
worker-side view is derived from it, so the two sides can never disagree.
Probability matrices keep every entry as an exact :class:`~fractions.Fraction`
-- the decomposition and all golden values in this domain are exact
fractions, and floating point would break the equality tests downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import ValidationError
from .prefs import AgentId, Market, Side, _agent_entry, mask_subset

ZERO = Fraction(0)
ONE = Fraction(1)


def _transpose(masks: Iterable[int], width: int) -> tuple[int, ...]:
    """The same incidence read from the other side: bit ``i`` of row ``j``
    is bit ``j`` of ``masks[i]``.  Every mask must lie below ``2**width``."""
    rows = [0] * width
    for i, mask in enumerate(masks):
        if not 0 <= mask < 1 << width:
            raise ValidationError(f"index outside the opposite side 0..{width - 1}", code="unknown-agent")
        while mask:
            low = mask & -mask
            rows[low.bit_length() - 1] |= 1 << i
            mask ^= low
    return tuple(rows)


@dataclass(frozen=True)
class Matching:
    """An assignment of workers to firms, symmetric across sides."""

    firm_masks: tuple[int, ...]
    num_workers: int
    worker_masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "worker_masks", _transpose(self.firm_masks, self.num_workers))

    @classmethod
    def from_edges(cls, num_firms: int, num_workers: int, edges: Iterable[tuple[int, int]]) -> "Matching":
        masks = [0] * num_firms
        for firm, worker in edges:
            if not 0 <= firm < num_firms:
                raise ValidationError(f"firm index {firm} outside the market", code="unknown-agent")
            if not 0 <= worker < num_workers:
                raise ValidationError(f"worker index {worker} outside the market", code="unknown-agent")
            masks[firm] |= 1 << worker
        return cls(tuple(masks), num_workers)

    @classmethod
    def from_firm_sets(cls, num_workers: int, firm_sets: Iterable[Iterable[int]]) -> "Matching":
        sets = [frozenset(s) for s in firm_sets]
        return cls.from_edges(len(sets), num_workers, [(i, w) for i, s in enumerate(sets) for w in s])

    @classmethod
    def from_worker_masks(cls, num_firms: int, worker_masks: tuple[int, ...]) -> "Matching":
        return cls(_transpose(worker_masks, num_firms), len(worker_masks))

    @classmethod
    def empty(cls, num_firms: int, num_workers: int) -> "Matching":
        return cls((0,) * num_firms, num_workers)

    @property
    def num_firms(self) -> int:
        return len(self.firm_masks)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_firms, self.num_workers)

    def firm_set(self, firm: int) -> frozenset[int]:
        return mask_subset(self.firm_masks[firm])

    def worker_set(self, worker: int) -> frozenset[int]:
        return mask_subset(self.worker_masks[worker])

    def masks(self, side: Side) -> tuple[int, ...]:
        """Each agent on ``side``'s partners as a bitmask, by index."""
        return self.firm_masks if side is Side.FIRMS else self.worker_masks

    def assigned(self, agent: AgentId) -> frozenset[int]:
        """The partners matched to ``agent`` (empty when unmatched)."""
        return mask_subset(self.assigned_mask(agent))

    def assigned_mask(self, agent: AgentId) -> int:
        return _agent_entry(agent, self.masks(agent.side))

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i, j) for i, mask in enumerate(self.firm_masks) for j in mask_subset(mask)
        )

    def incidence(self) -> "RationalMatrix":
        """The 0/1 firm-by-worker matrix of this matching."""
        return RationalMatrix(
            tuple(
                tuple(ONE if mask >> j & 1 else ZERO for j in range(self.num_workers))
                for mask in self.firm_masks
            )
        )

    def __repr__(self) -> str:
        rows = "; ".join(
            f"f{i + 1}:{{{','.join('w%d' % (j + 1) for j in sorted(self.firm_set(i)))}}}"
            for i in range(self.num_firms)
        )
        return f"Matching({rows})"


@dataclass(frozen=True)
class RationalMatrix:
    """A firm-by-worker grid of exact probabilities in [0, 1]."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        width = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != width:
                raise ValidationError("matrix rows must have equal length")
            for entry in row:
                if not isinstance(entry, Fraction) or entry < 0 or entry > 1:
                    raise ValidationError(f"matrix entry {entry!r} outside [0, 1]")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def entry(self, firm: int, worker: int) -> Fraction:
        return self.rows[firm][worker]

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, ZERO) for row in self.rows)

    def col_sums(self) -> tuple[Fraction, ...]:
        if not self.rows:
            return ()
        return tuple(sum(row[j] for row in self.rows) for j in range(len(self.rows[0])))

    def support(self) -> frozenset[tuple[int, int]]:
        """Cells with strictly positive probability."""
        return frozenset(
            (i, j) for i, row in enumerate(self.rows) for j, e in enumerate(row) if e > 0
        )


BlockingWitness = Union[AgentId, tuple[AgentId, AgentId]]


def find_blocking(matching: Matching, market: Market) -> Optional[BlockingWitness]:
    """Return why ``matching`` is unstable, or ``None`` if it is stable.

    The witness is either a single agent whose assignment it would reject
    (an individual-rationality failure) or a ``(firm, worker)`` pair that
    would rather be matched with each other.
    """
    if matching.shape != market.shape:
        raise ValidationError(
            f"matching shape {matching.shape} does not fit market {market.shape}",
            code="mismatched-market",
        )
    for side in Side:
        for index, (pref, mask) in enumerate(zip(market.prefs(side), matching.masks(side))):
            if pref.choice_mask(mask) != mask:
                return AgentId(side, index)
    everyone = (1 << market.num_workers) - 1
    worker_prefs, worker_masks = market.worker_prefs, matching.worker_masks
    for i, (fpref, fmask) in enumerate(zip(market.firm_prefs, matching.firm_masks)):
        outside = everyone & ~fmask  # the workers not in firm i's row, in ascending order
        while outside:
            bit = outside & -outside
            outside ^= bit
            if not fpref.choice_mask(fmask | bit) & bit:
                continue
            j = bit.bit_length() - 1
            if worker_prefs[j].choice_mask(worker_masks[j] | 1 << i) >> i & 1:
                return (AgentId(Side.FIRMS, i), AgentId(Side.WORKERS, j))
    return None


def is_stable(matching: Matching, market: Market) -> bool:
    """True iff no agent and no firm-worker pair blocks ``matching``."""
    return find_blocking(matching, market) is None
