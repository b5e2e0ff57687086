"""Lotteries over stable matchings and their dual lattice structure.

A random stable matching is a finite lottery over stable matchings with
exact rational weights.  The same expectation matrix admits many lotteries;
the canonical one is the *decreasing representation*, in which the matchings
strictly descend in the firms' common partial order, and it is independent
of the input representation.  The stable set is a distributive lattice, so
each member is its down-set over the join-irreducible members J (Birkhoff),
and :func:`decompose` reads the canonical form off the lottery's profile
p(j) = P(m >=_F j) by sweeping its levels in ascending order.
:func:`decompose_run` is the paper's traced construction of the same form:
it repeatedly peels the firm-side least upper bound of a closed pool of
candidates off the residual probability matrix and records every round.

On canonical forms the package provides

* :func:`split` -- the common refinement of two decreasing lotteries: both
  rewritten over one shared weight vector, term by term;
* :func:`lcm_refine` -- the split with every slice cut into unit slices of
  weight 1/e, e the split's denominator (refused above
  :data:`LCM_SLICE_GUARD` slices);
* :func:`dominates` -- the stochastic-dominance order, per agent or per
  side: a side's verdict is read off the two profiles over J (p_x >= p_y
  pointwise for the firms, p_x <= p_y for the workers) and checked against
  the paper's termwise fold, ``termwise_side_cmp`` in ``tests/oracles.py``;
  an agent's is decided termwise on the split;
* :func:`split_dominates` -- the forward half of a side's verdict;
* :func:`join_random` / :func:`meet_random` -- least upper bound and
  greatest lower bound for a side: the sweep of the pointwise max or min of
  the two profiles over J, or termwise over the lcm refinement.

A :class:`Lottery` stores its mass as integer counts of 1/D, D the lcm of its
weight denominators; its Fraction weights are views.  The sweep adds
integer counts over J and the peel subtracts integer cell counts; both
refinements are a :class:`SplitAlignment` of integer slice counts, and the
rural-hospital check compares cross-multiplied cell counts.  Side dominance,
join and meet compare or combine two integer profiles scaled to the lcm of
the denominators, and agent dominance adds no weights at all.  A
:class:`~fractions.Fraction` is made per weight or trace value read; no
tolerance is used anywhere.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, groupby, repeat
from operator import ge, itemgetter, le
from typing import Iterable, Union

from .errors import CapacityError, ValidationError
from .lattice import StableSet, compare_firms
from .matchings import Matching, RationalMatrix
from .prefs import AgentId, Cmp, Market, Side, _compare_pointwise, mask_subset

#: :func:`lcm_refine` refuses to build more slices than this.
LCM_SLICE_GUARD = 10**6

#: Weight text is ``n`` or ``n/d``, d nonzero: no sign, space, point or exponent.
_WEIGHT = re.compile(r"([0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def _exact_weight(raw: object) -> Fraction:
    if isinstance(raw, (Fraction, int)) and not isinstance(raw, bool):
        return Fraction(raw)
    match = _WEIGHT.fullmatch(raw) if isinstance(raw, str) else None
    if match is None:
        raise ValidationError(f"weight {raw!r} is not a Fraction, an int or n/d text", code="bad-weight")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError:  # past the interpreter's integer digit limit
        raise ValidationError("weight has too many digits", code="bad-weight") from None


def _digits(value: Fraction) -> int:
    """Decimal digits of the longer term of ``value``, counted without ``str``."""
    n = max(abs(value.numerator), value.denominator)
    k = max(0, int((n.bit_length() - 1) * math.log10(2)) - 1)  # a lower bound, raised below
    while 10**k <= n:
        k += 1
    return k


def _shown(value: Fraction) -> str:
    """``str(value)`` for a refusal text, or its length past the int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"a fraction of {_digits(value)} digits"


def _printed(value: Fraction) -> str:
    """``str(value)`` for output, refused (bad-weight) past the int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        raise ValidationError(
            f"a weight of {_digits(value)} digits is past the interpreter's integer digit limit",
            code="bad-weight",
        ) from None


@dataclass(frozen=True, init=False)
class Lottery:
    """A finite lottery over stable matchings.

    Mass is stored as positive ``counts`` of 1/``denominator``, in lowest terms
    and summing to it; ``terms`` and ``weights`` are Fraction views.  Only
    ``Lottery(terms)`` checks: each term a ``(weight, Matching)`` pair, weights
    positive, summing to exactly one.  Terms may repeat a matching; the
    canonical decreasing form never does.
    """

    denominator: int
    counts: tuple[int, ...]
    matchings: tuple[Matching, ...]

    def __init__(self, terms: tuple[tuple[Fraction, Matching], ...]):
        if not terms:
            raise ValidationError("a lottery needs at least one term", code="empty-lottery")
        for term in terms:
            if not (isinstance(term, tuple) and len(term) == 2 and isinstance(term[1], Matching)):
                raise ValidationError("a lottery term must be a (weight, Matching) pair", code="bad-term")
            weight, matching = term
            if not isinstance(weight, Fraction):
                raise ValidationError(
                    f"a weight of type {type(weight).__name__} is not an exact fraction", code="bad-weight"
                )
            if weight <= 0 or weight > 1:
                raise ValidationError(f"weight {_shown(weight)} outside (0, 1]", code="bad-weight")
            if matching.shape != terms[0][1].shape:
                raise ValidationError("lottery mixes matchings of different markets", code="mismatched-market")
        # D is the lcm of reduced denominators, so the counts are already in lowest terms.
        denominator = math.lcm(*(w.denominator for w, _ in terms))
        counts = tuple(w.numerator * (denominator // w.denominator) for w, _ in terms)
        if sum(counts) != denominator:
            total = Fraction(sum(counts), denominator)
            raise ValidationError(f"weights sum to {_shown(total)}, not 1", code="weight-sum")
        self.__dict__.update(denominator=denominator, counts=counts, matchings=tuple(m for _, m in terms))

    @classmethod
    def _counted(cls, denominator: int, runs: Iterable[tuple[int, Matching]]) -> "Lottery":
        """A lottery built from positive counts summing to ``denominator``: reduced, not checked."""
        counts, matchings = zip(*runs)
        g = math.gcd(denominator, *counts)
        lottery = object.__new__(cls)
        lottery.__dict__.update(
            denominator=denominator // g, counts=tuple(c // g for c in counts), matchings=matchings
        )
        return lottery

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, Matching]]) -> "Lottery":
        """Build a lottery from ``(weight, matching)`` pairs.  A weight is a
        ``Fraction``, an ``int`` or a string ``"n"`` or ``"n/d"`` such as
        ``"5/12"``; floats, bools and other strings are refused (bad-weight)."""
        return cls(tuple((_exact_weight(w), m) for w, m in pairs))

    @classmethod
    def degenerate(cls, matching: Matching) -> "Lottery":
        return cls._counted(1, ((1, matching),))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.counts)

    @property
    def terms(self) -> tuple[tuple[Fraction, Matching], ...]:
        return tuple(zip(self.weights, self.matchings))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matchings[0].shape

    def merged(self) -> "Lottery":
        """Aggregate repeated matchings into single terms."""
        count_of: dict[Matching, int] = {}
        for c, m in zip(self.counts, self.matchings):
            count_of[m] = count_of.get(m, 0) + c
        return Lottery._counted(self.denominator, ((c, m) for m, c in count_of.items()))

    def expectation(self) -> RationalMatrix:
        """The weighted sum of the incidence matrices."""
        denominator, cells = _cell_counts(self)
        return RationalMatrix(tuple(tuple(Fraction(c, denominator) for c in row) for row in cells))

    def __len__(self) -> int:
        return len(self.matchings)


def is_decreasing(lottery: Lottery, market: Market) -> bool:
    """True iff consecutive matchings strictly descend for the firms."""
    ms = lottery.matchings
    return all(compare_firms(a, b, market) is Cmp.GREATER for a, b in zip(ms, ms[1:]))


def _cell_counts(lottery: Lottery) -> tuple[int, list[list[int]]]:
    """The lottery's denominator D and its expectation matrix in whole units of 1/D."""
    nf, nw = lottery.shape
    cells = [[0] * nw for _ in range(nf)]
    for count, matching in zip(lottery.counts, lottery.matchings):
        for i, mask in enumerate(matching.firm_masks):
            for j in mask_subset(mask):
                cells[i][j] += count
    return lottery.denominator, cells


def _require_decreasing_pair(x: Lottery, y: Lottery, market: Market) -> None:
    if x.shape != market.shape or y.shape != market.shape:
        raise ValidationError("lotteries are not over this market", code="mismatched-market")
    for name, lottery in (("first lottery", x), ("second lottery", y)):
        if not is_decreasing(lottery, market):
            raise ValidationError(
                f"{name} is not in decreasing form; run decompose first", code="not-canonical"
            )


def _merge_runs(counts: Iterable[int], items: Iterable) -> list[tuple[int, object]]:
    """Aligned counts paired with their items, equal consecutive items merged
    (compared with ``==``; a run keeps its first item)."""
    runs = groupby(zip(counts, items), itemgetter(1))
    return [(sum(map(itemgetter(0), run)), item) for item, run in runs]


@dataclass(frozen=True)
class DecompositionStep:
    """One peeling round of the decreasing-decomposition loop.

    ``pool`` holds the stable matchings still in play and ``best`` is its
    firm-side least upper bound.  ``counts`` is the unpeeled mass per cell
    and ``mass_left`` the unpeeled total, in the run's units of 1/D;
    ``residual`` is their ratio, built when read.  ``share`` is the fraction
    of the mass left given to ``best`` (the least residual entry over its
    matched cells).  ``tight_cells`` attain that least entry; every pool
    member using one of them is ``removed`` before the next round.
    """

    index: int
    pool: tuple[Matching, ...]
    counts: tuple[tuple[int, ...], ...]
    mass_left: int
    best: Matching
    share: Fraction
    tight_cells: frozenset[tuple[int, int]]
    removed: tuple[Matching, ...]

    @property
    def residual(self) -> RationalMatrix:
        return RationalMatrix(tuple(tuple(Fraction(c, self.mass_left) for c in row) for row in self.counts))


@dataclass(frozen=True)
class DecompositionRun:
    """Full trace of a decomposition, plus the canonical result."""

    steps: tuple[DecompositionStep, ...]
    result: Lottery


def _closed_pool(support: Iterable[int], stable_set: StableSet) -> list[int]:
    """Close a set of stable-set positions under pairwise joins and meets,
    to a fixpoint, and list it in position order.

    By associativity this equals throwing in the join and the meet of every
    sub-family; the fixpoint stays inside the (finite) stable set.
    """
    pool = set(support)
    frontier = list(pool)
    while frontier:
        fresh = []
        members = list(pool)
        for a in frontier:
            for b in members:
                for combined in (stable_set.join(a, b), stable_set.meet(a, b)):
                    if combined not in pool:
                        pool.add(combined)
                        fresh.append(combined)
        frontier = fresh
    return sorted(pool)


def decompose_run(lottery: Lottery, stable_set: StableSet) -> DecompositionRun:
    """The paper's decreasing decomposition, with a full per-step trace.

    The pool starts as the lottery's support closed under joins and meets.
    The expectation matrix is counted in whole units of one common
    denominator.  Each round peels the pool's firm-side least upper bound off
    those counts at the largest feasible weight, the least count over its
    matched cells, and drops every pool member that used an exhausted cell.
    The result is the same lottery :func:`decompose` returns.
    """
    # Looking the terms up is the membership check: raises not-in-stable-set.
    pool = _closed_pool(map(stable_set.index, lottery.matchings), stable_set)
    # Mass is counted in whole units of 1/denominator; left is what is unpeeled.
    denominator, counts = _cell_counts(lottery)
    left = denominator
    steps: list[DecompositionStep] = []
    terms: list[tuple[int, Matching]] = []

    while pool:
        members = tuple(stable_set[k] for k in pool)
        best = stable_set[reduce(stable_set.join, pool)]
        matched_cells = [(i, j) for i, mask in enumerate(best.firm_masks) for j in mask_subset(mask)]
        if matched_cells:
            taken = min(counts[i][j] for i, j in matched_cells)
            tight = frozenset((i, j) for i, j in matched_cells if counts[i][j] == taken)
            removed = tuple(m for m in members if any(m.firm_masks[i] >> j & 1 for i, j in tight))
        else:
            # Everyone in the pool is the all-unmatched matching: equal
            # partner counts force pool == {best}, so consume it whole.
            taken = left
            tight = frozenset()
            removed = members

        steps.append(
            DecompositionStep(
                index=len(steps) + 1,
                pool=members,
                counts=tuple(map(tuple, counts)),
                mass_left=left,
                best=best,
                share=Fraction(taken, left),
                tight_cells=tight,
                removed=removed,
            )
        )
        terms.append((taken, best))

        for i, j in matched_cells:
            counts[i][j] -= taken
        left -= taken
        dropped = set(removed)
        pool = [k for k, m in zip(pool, members) if m not in dropped]

    return DecompositionRun(tuple(steps), Lottery._counted(denominator, terms))


def _descends(stable_set: StableSet, positions: list[int]) -> bool:
    """True iff the members at ``positions`` strictly descend for the firms."""
    return all(stable_set.cmp_f(a, b) is Cmp.GREATER for a, b in zip(positions, positions[1:]))


def _profiles(stable_set: StableSet, *lotteries: Lottery) -> tuple[int, list[list[int]]]:
    """D, the lcm of the lotteries' denominators, and each lottery's profile
    over J in whole units of 1/D: entry b is the mass on the members whose
    down-set holds the b-th member of J, that is p(j) = P(m >=_F j).
    Looking each term up once is the membership check (not-in-stable-set)."""
    masks, _ = stable_set._down_sets()
    denominator = math.lcm(*(z.denominator for z in lotteries))
    # Each member of J is in its own down-set, so the largest mask spans J.
    profiles = [[0] * max(masks).bit_length() for _ in lotteries]
    for z, profile in zip(lotteries, profiles):
        for count, matching in zip(z.counts, z.matchings):
            count *= denominator // z.denominator
            for b in mask_subset(masks[stable_set.index(matching)]):
                profile[b] += count
    return denominator, profiles


def _swept(profile: list[int], denominator: int, stable_set: StableSet) -> Lottery:
    """The decreasing lottery with this profile over J, in units of 1/D: level
    v of the distinct nonzero levels of p, in ascending order, gives the
    member whose down-set over J is {j : p(j) >= v}, with the count v minus
    the previous level, and the mass up to D left after the highest level
    goes to the bottom."""
    _, position_of = stable_set._down_sets()
    runs, previous = [], 0
    for level in sorted(set(profile) - {0}):
        runs.append((level - previous, sum(1 << b for b, p in enumerate(profile) if p >= level)))
        previous = level
    if previous < denominator:
        runs.append((denominator - previous, 0))  # the bottom's down-set is empty
    runs = [(c, position_of[mask]) for c, mask in runs]
    if not _descends(stable_set, [k for _, k in runs]):
        raise ValidationError("the profile sweep is not in decreasing form", code="not-canonical")
    return Lottery._counted(denominator, ((c, stable_set[k]) for c, k in runs))


def decompose(lottery: Lottery, stable_set: StableSet) -> Lottery:
    """Rewrite a lottery into its unique decreasing representation: the sweep
    (:func:`_swept`) of its profile over the join-irreducible members J.
    Two lotteries with equal expectation matrices give identical output, the
    same as the paper's peeling loop, :func:`decompose_run`, which also
    keeps a trace.  A term outside the stable set is refused with
    not-in-stable-set, and so is every lottery over a set that fails the
    down-set index check (:meth:`StableSet._down_sets`).
    """
    denominator, (profile,) = _profiles(stable_set, lottery)
    return _swept(profile, denominator, stable_set)


@dataclass(frozen=True)
class SplitAlignment:
    """Two lotteries rewritten over one shared weight vector.

    Slice ``k`` has weight ``counts[k] / denominator``, the same on both
    sides, and carries ``left[k]`` and ``right[k]``.  The counts are positive
    integers summing to ``denominator``; aggregating equal consecutive
    matchings on either side reconstructs the original lottery exactly.
    """

    denominator: int
    counts: tuple[int, ...]
    left: tuple[Matching, ...]
    right: tuple[Matching, ...]

    def __post_init__(self):
        if not (len(self.counts) == len(self.left) == len(self.right)):
            raise ValidationError("alignment lists must have equal length")
        if not set(map(type, self.counts)) <= {int} or min(self.counts, default=1) <= 0:
            raise ValidationError("alignment counts must be positive ints", code="bad-weight")
        if type(self.denominator) is not int or self.denominator <= 0 or sum(self.counts) != self.denominator:
            raise ValidationError("alignment counts must sum to a positive int denominator", code="weight-sum")

    @property
    def gamma(self) -> tuple[Fraction, ...]:
        """The shared weight vector, one Fraction per slice."""
        return tuple(Fraction(c, self.denominator) for c in self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def left_lottery(self) -> Lottery:
        return Lottery._counted(self.denominator, _merge_runs(self.counts, self.left))

    def right_lottery(self) -> Lottery:
        return Lottery._counted(self.denominator, _merge_runs(self.counts, self.right))


def split(x: Lottery, y: Lottery, market: Market) -> SplitAlignment:
    """Common refinement of two decreasing lotteries.

    Weights are counted in whole units of 1/D, D the least common multiple
    of both inputs' weight denominators.  The cumulative counts of both
    inputs are merged into one breakpoint sequence; each output term covers
    one interval between consecutive breakpoints and carries the matching
    whose input term spans it.  The output has at most
    ``len(x) + len(y) - 1`` terms.  Both inputs are checked to be over
    ``market`` and to descend (not-canonical otherwise).
    """
    _require_decreasing_pair(x, y, market)
    return _aligned(x, y)


def _aligned(x: Lottery, y: Lottery) -> SplitAlignment:
    """The breakpoint merge of :func:`split`, on inputs known to descend."""
    denominator = math.lcm(x.denominator, y.denominator)
    cum_x, cum_y = (list(accumulate(c * (denominator // z.denominator) for c in z.counts)) for z in (x, y))

    counts: list[int] = []
    left: list[Matching] = []
    right: list[Matching] = []
    previous = 0
    for cut in sorted(set(cum_x) | set(cum_y)):
        counts.append(cut - previous)
        left.append(x.matchings[bisect_left(cum_x, cut)])
        right.append(y.matchings[bisect_left(cum_y, cut)])
        previous = cut
    return SplitAlignment(denominator, tuple(counts), tuple(left), tuple(right))


def lcm_refine(x: Lottery, y: Lottery, market: Market) -> SplitAlignment:
    """Refine two decreasing lotteries into equal slices of weight 1/e.

    This is :func:`split` with each slice of count ``c`` cut into ``c``
    unit slices: ``e`` is the split's denominator, the least common multiple
    of every weight denominator, and each slice has count 1.  Termwise joins
    or meets over this alignment agree with the ones computed over
    :func:`split`; they combine once per run of equal aligned pairs, so no
    more often than over the split.  More than :data:`LCM_SLICE_GUARD`
    slices are refused with :class:`CapacityError` before any unit slice is
    built.  The inputs are checked as :func:`split` checks them; the lottery
    functions align the output of :func:`decompose`, already checked to
    descend, without this second check.
    """
    _require_decreasing_pair(x, y, market)
    return _unit_slices(_aligned(x, y))


def _unit_slices(alignment: SplitAlignment) -> SplitAlignment:
    """``alignment`` with each slice cut into unit slices, under the slice guard."""
    slices = alignment.denominator
    if slices > LCM_SLICE_GUARD:
        try:
            needed = f"{slices} slices"
        except ValueError:  # past the interpreter's int-to-str digit limit
            needed = f"a slice count of {_digits(slices)} digits"
        raise CapacityError(
            f"the lcm refinement needs {needed}; the budget is {LCM_SLICE_GUARD} (use the split refinement)"
        )
    left, right = (
        tuple(chain.from_iterable(map(repeat, side, alignment.counts)))
        for side in (alignment.left, alignment.right)
    )
    return SplitAlignment(slices, (1,) * slices, left, right)


class Dominance(Enum):
    """Outcome of the stochastic-dominance comparison of two lotteries."""

    STRONGLY_DOMINATES = "strongly-dominates"
    EQUAL = "equal"
    STRONGLY_DOMINATED = "strongly-dominated"
    INCOMPARABLE = "incomparable"

    @property
    def weakly_dominates(self) -> bool:
        return self in (Dominance.STRONGLY_DOMINATES, Dominance.EQUAL)


def _require_side(who: object, agent_allowed: bool = False) -> None:
    """Refuse (bad-side) a ``who`` that is not a :class:`Side`, or, where
    ``agent_allowed``, an :class:`AgentId` of one."""
    if isinstance(who, Side) or (agent_allowed and isinstance(who, AgentId) and isinstance(who.side, Side)):
        return
    wanted = "a Side or an AgentId" if agent_allowed else "a Side"
    raise ValidationError(f"expected {wanted}, got a {type(who).__name__}", code="bad-side")


#: Each outcome of the folded kernel as a dominance verdict.
_VERDICT = {Cmp.GREATER: Dominance.STRONGLY_DOMINATES, Cmp.EQUAL: Dominance.EQUAL,
            Cmp.LESS: Dominance.STRONGLY_DOMINATED, Cmp.INCOMPARABLE: Dominance.INCOMPARABLE}


def dominates(x: Lottery, y: Lottery, stable_set: StableSet, who: Union[Side, AgentId]) -> Dominance:
    """Stochastic-dominance position of ``x`` relative to ``y``.

    ``who`` is either a whole side (every agent on it must agree) or one
    agent.  ``x`` weakly dominates ``y`` for an agent when, for every
    assignment v of ``y``'s decreasing representation, ``x`` puts at least as
    much mass as ``y`` on the assignments the agent weakly prefers to v.

    For one agent both lotteries are canonicalised and split, and one pass
    of the order kernel over every (aligned slice, agent) pair decides it:
    ``x`` weakly dominates iff every pair weakly favours its ``x`` matching,
    so the kernel's four outcomes are the four verdicts.  This agrees with
    the definition.  If every pair passes, each unit of ``y``'s mass at or
    above v is matched by ``x``'s mass on the same slice.  Along a
    decreasing representation each agent's assignments form a chain in its
    order (a partial order under substitutability), descending for firms and
    ascending for workers.  So if slice k fails for a firm at v, ``y``'s
    slice-k assignment, then ``y`` puts at least c_k on assignments at or
    above v and ``x`` at most c_{k-1}, c_k being the weight of slices 1..k
    (for a worker, read the slices from the other end).

    For a side the verdict is read off the two profiles over J, scaled to
    the lcm of the denominators; a lottery has the profile of its canonical
    form, so neither is decomposed.  ``x`` weakly dominates for the firms
    iff p_x >= p_y at every j, and for the workers iff p_x <= p_y.  This is
    the paper's termwise fold over the split, taken both ways, which
    ``termwise_side_cmp`` in ``tests/oracles.py`` keeps as the reference:
    cut into unit slices, the level-t member of a canonical form has the
    down-set {j : p(j) >= t}; one member is at least another for the firms
    iff its down-set holds the other's, and the workers' order is the
    reverse.  So every slice favours ``x`` iff each level set of p_x holds
    that of p_y.  The tests check this equality; they do not prove it.  A
    stable set that is not the down-set lattice of its J is refused
    (not-in-stable-set).
    """
    _require_side(who, agent_allowed=True)
    if isinstance(who, AgentId):
        alignment = _refined(x, y, stable_set)
        pref, side, k = stable_set.market.pref(who), who.side, who.index
        left, right = ([m.masks(side)[k] for m in ms] for ms in (alignment.left, alignment.right))
        return _VERDICT[_compare_pointwise(repeat(pref), left, right)]
    _, (px, py) = _profiles(stable_set, x, y)
    forward, backward = all(map(ge, px, py)), all(map(le, px, py))
    if who is Side.WORKERS:
        forward, backward = backward, forward
    if forward:
        return _VERDICT[Cmp.EQUAL if backward else Cmp.GREATER]
    return _VERDICT[Cmp.LESS if backward else Cmp.INCOMPARABLE]


def split_dominates(x: Lottery, y: Lottery, stable_set: StableSet, side: Side) -> bool:
    """True iff ``x`` weakly dominates ``y`` for ``side``: the forward half of
    side :func:`dominates`, read off the same two profiles over J."""
    _require_side(side)
    return dominates(x, y, stable_set, side).weakly_dominates


def _combine_termwise(
    alignment: SplitAlignment, side: Side, take_join: bool, stable_set: StableSet
) -> Lottery:
    """Combine termwise by stable-set position; the firm-side join is the
    worker-side meet and vice versa.

    Equal consecutive ``(left, right)`` pairs are merged first, so each run
    of equal aligned pairs is looked up (the membership check) and combined
    once, whether the alignment is a split or its lcm refinement.
    """
    combine = stable_set.join if take_join == (side is Side.FIRMS) else stable_set.meet
    index = stable_set.index
    pairs = _merge_runs(alignment.counts, zip(alignment.left, alignment.right))
    runs = _merge_runs(
        (c for c, _ in pairs),
        (combine(index(a), index(b)) for _, (a, b) in pairs),
    )
    if not _descends(stable_set, [k for _, k in runs]):
        # Termwise combination of two decreasing chains is monotone, so this
        # only happens when the stable set or the market is inconsistent.
        raise ValidationError("termwise combination is not in decreasing form", code="not-canonical")
    return Lottery._counted(alignment.denominator, ((c, stable_set[k]) for c, k in runs))


def _refined(x: Lottery, y: Lottery, stable_set: StableSet) -> SplitAlignment:
    """Both lotteries canonicalised and split; :func:`decompose` has checked
    that its outputs descend, so they are aligned without a second check."""
    return _aligned(decompose(x, stable_set), decompose(y, stable_set))


def _combined(
    x: Lottery, y: Lottery, stable_set: StableSet, side: Side, take_join: bool, method: str
) -> Lottery:
    """:func:`join_random`, or :func:`meet_random` where not ``take_join``."""
    _require_side(side)
    if method == "lcm":
        return _combine_termwise(_unit_slices(_refined(x, y, stable_set)), side, take_join, stable_set)
    if method != "split":
        raise ValidationError(f"unknown refinement method {method!r}", code="bad-method")
    denominator, (px, py) = _profiles(stable_set, x, y)
    # Level set t of max(px, py) is the union of theirs: the firms' join, the workers' meet.
    pick = max if take_join == (side is Side.FIRMS) else min
    return _swept(list(map(pick, px, py)), denominator, stable_set)


def join_random(
    x: Lottery, y: Lottery, stable_set: StableSet, side: Side, method: str = "split"
) -> Lottery:
    """Least upper bound of two lotteries for a side, in canonical form.

    It is the sweep (:func:`_swept`) of the pointwise max (for the firms) or
    min (for the workers) of the two profiles over J, scaled to the lcm of
    the denominators: slice t of the split joins the level sets
    {j : p(j) >= t}.  ``method="lcm"`` combines the canonical forms termwise
    over the lcm refinement, as the paper does: the reference the sweep is
    tested against.  The result weakly dominates both inputs and is below
    every common upper bound; firm-side join equals worker-side meet.
    """
    return _combined(x, y, stable_set, side, True, method)


def meet_random(
    x: Lottery, y: Lottery, stable_set: StableSet, side: Side, method: str = "split"
) -> Lottery:
    """Greatest lower bound of two lotteries for a side (see
    :func:`join_random`); firm-side meet equals worker-side join."""
    return _combined(x, y, stable_set, side, False, method)


def random_rht_check(x: Lottery, y: Lottery) -> bool:
    """Rural Hospital property for lotteries: the expectation matrices of
    any two random stable matchings of one market share all row sums and
    all column sums."""
    if x.shape != y.shape:
        raise ValidationError("lotteries come from different markets", code="mismatched-market")
    (dx, cells_x), (dy, cells_y) = _cell_counts(x), _cell_counts(y)
    # Row then column sums, each count scaled by the other's denominator.
    def line_sums(cells, scale):
        return [scale * sum(line) for line in chain(cells, zip(*cells))]

    return line_sums(cells_x, dy) == line_sums(cells_y, dx)
