"""Lotteries over stable matchings and their dual lattice structure.

A random stable matching is a finite lottery over stable matchings with
exact rational weights.  The same expectation matrix admits many lotteries;
the canonical one is the *decreasing representation*, in which the matchings
strictly descend in the firms' common partial order.  :func:`decompose`
computes it by repeatedly peeling the firm-side least upper bound of a
closed pool of candidates off the residual probability matrix, and the
result is independent of the input representation.

On canonical forms the package provides

* :func:`split` -- the common refinement of two decreasing lotteries: both
  rewritten over one shared weight vector, term by term;
* :func:`lcm_refine` -- the direct refinement into equal slices of weight
  1/e, where e is the least common multiple of all weight denominators;
* :func:`dominates` -- a stochastic-dominance order, per agent or per side;
* :func:`split_dominates` -- the equivalent termwise order on the split;
* :func:`join_random` / :func:`meet_random` -- least upper bound and
  greatest lower bound for a side, computed termwise over a refinement.

All weights stay :class:`~fractions.Fraction` throughout; no tolerance is
used anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Union

from .errors import ValidationError
from .lattice import Cmp, StableSet, _firm_pointing, _worker_pointing, compare_side
from .matchings import Matching, RationalMatrix, ZERO, ONE
from .prefs import AgentId, Market, Preference, SetComparison, Side, mask_subset


@dataclass(frozen=True)
class Lottery:
    """A finite lottery over stable matchings.

    Weights are positive fractions summing to exactly one.  Terms may repeat
    a matching; the canonical decreasing form never does.
    """

    terms: tuple[tuple[Fraction, Matching], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValidationError("a lottery needs at least one term", code="empty-lottery")
        total = ZERO
        shape = self.terms[0][1].shape
        for weight, matching in self.terms:
            if not isinstance(weight, Fraction):
                raise ValidationError(f"weight {weight!r} is not an exact fraction", code="bad-weight")
            if weight <= 0 or weight > 1:
                raise ValidationError(f"weight {weight} outside (0, 1]", code="bad-weight")
            if matching.shape != shape:
                raise ValidationError("lottery mixes matchings of different markets", code="mismatched-market")
            total += weight
        if total != 1:
            raise ValidationError(f"weights sum to {total}, not 1", code="weight-sum")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, Matching]]) -> "Lottery":
        """Build a lottery, coercing weights through ``Fraction`` (so ints
        and strings like ``"5/12"`` are accepted)."""
        return cls(tuple((Fraction(w), m) for w, m in pairs))

    @classmethod
    def degenerate(cls, matching: Matching) -> "Lottery":
        return cls(((ONE, matching),))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.terms)

    @property
    def matchings(self) -> tuple[Matching, ...]:
        return tuple(m for _, m in self.terms)

    @property
    def shape(self) -> tuple[int, int]:
        return self.terms[0][1].shape

    def support(self) -> tuple[Matching, ...]:
        """Distinct matchings, in first-appearance order."""
        seen = []
        for _, m in self.terms:
            if m not in seen:
                seen.append(m)
        return tuple(seen)

    def merged(self) -> "Lottery":
        """Aggregate repeated matchings into single terms."""
        order = []
        weight_of: dict[Matching, Fraction] = {}
        for w, m in self.terms:
            if m in weight_of:
                weight_of[m] += w
            else:
                weight_of[m] = w
                order.append(m)
        return Lottery(tuple((weight_of[m], m) for m in order))

    def expectation(self) -> RationalMatrix:
        """The weighted sum of the incidence matrices."""
        nf, nw = self.shape
        cells = [[ZERO] * nw for _ in range(nf)]
        for weight, matching in self.terms:
            for i, mask in enumerate(matching.firm_masks):
                for j in mask_subset(mask):
                    cells[i][j] += weight
        return RationalMatrix(tuple(tuple(row) for row in cells))

    def __len__(self) -> int:
        return len(self.terms)


def is_decreasing(lottery: Lottery, market: Market) -> bool:
    """True iff consecutive matchings strictly descend for the firms."""
    ms = lottery.matchings
    return all(
        compare_side(ms[k], ms[k + 1], market, Side.FIRMS) is Cmp.GREATER
        for k in range(len(ms) - 1)
    )


def _require_decreasing_pair(x: Lottery, y: Lottery, market: Market) -> None:
    for name, lottery in (("first lottery", x), ("second lottery", y)):
        if not is_decreasing(lottery, market):
            raise ValidationError(
                f"{name} is not in decreasing form; run decompose first", code="not-canonical"
            )
    if x.shape != y.shape:
        raise ValidationError("lotteries come from different markets", code="mismatched-market")


def _merge_runs(gamma: Iterable[Fraction], matchings: Iterable[Matching]) -> Lottery:
    """The lottery of aligned weights, equal consecutive matchings merged."""
    terms: list[tuple[Fraction, Matching]] = []
    for g, m in zip(gamma, matchings):
        if terms and terms[-1][1] == m:
            terms[-1] = (terms[-1][0] + g, m)
        else:
            terms.append((g, m))
    return Lottery(tuple(terms))


@dataclass(frozen=True)
class DecompositionStep:
    """One peeling round of the decreasing-decomposition loop.

    ``pool`` holds the stable matchings still in play, ``residual`` the
    probability mass not yet written off, ``best`` the firm-side least upper
    bound of the pool, and ``share`` the fraction of the residual assigned
    to ``best`` (the minimum residual entry over its matched cells).
    ``tight_cells`` are the cells attaining that minimum; every pool member
    using one of them is ``removed`` before the next round.
    """

    index: int
    pool: tuple[Matching, ...]
    residual: RationalMatrix
    best: Matching
    share: Fraction
    tight_cells: frozenset[tuple[int, int]]
    removed: tuple[Matching, ...]


@dataclass(frozen=True)
class DecompositionRun:
    """Full trace of a decomposition, plus the canonical result."""

    steps: tuple[DecompositionStep, ...]
    result: Lottery


def _closed_pool(support: Iterable[Matching], stable_set: StableSet) -> list[Matching]:
    """Close the support under pairwise joins and meets, to a fixpoint.

    By associativity this equals throwing in the join and the meet of every
    sub-family; the fixpoint stays inside the (finite) stable set.  Sorting
    by stable-set position keeps runs deterministic and rejects non-members.
    """
    market = stable_set.market
    pool = set(support)
    frontier = list(pool)
    while frontier:
        fresh = []
        members = list(pool)
        for a in frontier:
            for b in members:
                pair = (a, b)
                for combined in (_firm_pointing(pair, market), _worker_pointing(pair, market)):
                    if combined not in pool:
                        pool.add(combined)
                        fresh.append(combined)
        frontier = fresh
    return sorted(pool, key=stable_set.index)


def decompose_run(lottery: Lottery, stable_set: StableSet) -> DecompositionRun:
    """Decompose with a full per-step trace (see :func:`decompose`)."""
    market = stable_set.market
    merged = lottery.merged()
    for m in merged.matchings:
        stable_set.index(m)  # raises not-in-stable-set

    pool = _closed_pool(merged.matchings, stable_set)
    residual = merged.expectation()
    mass_left = ONE  # product of (1 - share) over finished steps
    steps: list[DecompositionStep] = []
    terms: list[tuple[Fraction, Matching]] = []

    while pool:
        best = _firm_pointing(pool, market)
        matched_cells = [
            (i, j)
            for i, mask in enumerate(best.firm_masks)
            for j in range(best.num_workers)
            if mask >> j & 1
        ]
        if matched_cells:
            share = min(residual.entry(i, j) for i, j in matched_cells)
            tight = frozenset(
                (i, j) for i, j in matched_cells if residual.entry(i, j) == share
            )
            removed = tuple(
                m for m in pool if any(m.firm_masks[i] >> j & 1 for i, j in tight)
            )
        else:
            # Everyone in the pool is the all-unmatched matching: equal
            # partner counts force pool == {best}, so consume it whole.
            share = ONE
            tight = frozenset()
            removed = tuple(pool)

        steps.append(
            DecompositionStep(
                index=len(steps) + 1,
                pool=tuple(pool),
                residual=residual,
                best=best,
                share=share,
                tight_cells=tight,
                removed=removed,
            )
        )
        terms.append((mass_left * share, best))

        dropped = set(removed)
        pool = [m for m in pool if m not in dropped]
        if pool:
            scale = 1 - share
            best_masks = best.firm_masks
            residual = RationalMatrix(
                tuple(
                    tuple(
                        (entry - share * (best_masks[i] >> j & 1)) / scale
                        for j, entry in enumerate(row)
                    )
                    for i, row in enumerate(residual.rows)
                )
            )
            mass_left *= scale

    return DecompositionRun(tuple(steps), Lottery(tuple(terms)))


def decompose(lottery: Lottery, stable_set: StableSet) -> Lottery:
    """Rewrite a lottery into its unique decreasing representation.

    The pool starts as the lottery's support closed under joins and meets.
    Each round peels the pool's firm-side least upper bound off the residual
    matrix at the largest feasible share, drops every pool member that used
    an exhausted cell, and rescales.  The output weights are the share of
    each round times the mass left over from earlier rounds; the output
    matchings strictly descend for the firms, and two input lotteries with
    equal expectation matrices always produce identical output.
    """
    return decompose_run(lottery, stable_set).result


@dataclass(frozen=True)
class SplitAlignment:
    """Two lotteries rewritten over one shared weight vector.

    ``left[k]`` and ``right[k]`` both carry weight ``gamma[k]``; aggregating
    equal consecutive matchings on either side reconstructs the original
    lottery exactly.
    """

    gamma: tuple[Fraction, ...]
    left: tuple[Matching, ...]
    right: tuple[Matching, ...]

    def __post_init__(self):
        if not (len(self.gamma) == len(self.left) == len(self.right)):
            raise ValidationError("alignment lists must have equal length")
        if any(g <= 0 for g in self.gamma):
            raise ValidationError("alignment weights must be positive", code="bad-weight")
        if sum(self.gamma, ZERO) != 1:
            raise ValidationError("alignment weights must sum to 1", code="weight-sum")

    def __len__(self) -> int:
        return len(self.gamma)

    def left_lottery(self) -> Lottery:
        return _merge_runs(self.gamma, self.left)

    def right_lottery(self) -> Lottery:
        return _merge_runs(self.gamma, self.right)


def split(x: Lottery, y: Lottery, market: Market) -> SplitAlignment:
    """Common refinement of two decreasing lotteries.

    The cumulative weights of both inputs are merged into one breakpoint
    sequence; each output term covers one interval between consecutive
    breakpoints and carries the matching whose input term spans it.  The
    output has at most ``len(x) + len(y) - 1`` terms.
    """
    _require_decreasing_pair(x, y, market)

    cum_x = list(accumulate(x.weights))
    cum_y = list(accumulate(y.weights))
    cuts = sorted(set(cum_x) | set(cum_y))

    gamma: list[Fraction] = []
    left: list[Matching] = []
    right: list[Matching] = []
    previous = ZERO
    for cut in cuts:
        gamma.append(cut - previous)
        left.append(x.matchings[bisect_left(cum_x, cut)])
        right.append(y.matchings[bisect_left(cum_y, cut)])
        previous = cut
    return SplitAlignment(tuple(gamma), tuple(left), tuple(right))


def lcm_refine(x: Lottery, y: Lottery, market: Market) -> SplitAlignment:
    """Refine two decreasing lotteries into equal slices of weight 1/e.

    ``e`` is the least common multiple of every weight denominator (weights
    are in lowest terms), so each input term splits into a whole number of
    slices.  Termwise joins or meets over this alignment agree with the ones
    computed over :func:`split`.
    """
    _require_decreasing_pair(x, y, market)

    slices = math.lcm(*(w.denominator for w in x.weights + y.weights))
    unit = Fraction(1, slices)

    def stretched(lottery: Lottery) -> tuple[Matching, ...]:
        out: list[Matching] = []
        for weight, matching in lottery.terms:
            out.extend([matching] * int(weight * slices))
        return tuple(out)

    return SplitAlignment((unit,) * slices, stretched(x), stretched(y))


class Dominance(Enum):
    """Outcome of the stochastic-dominance comparison of two lotteries."""

    STRONGLY_DOMINATES = "strongly-dominates"
    EQUAL = "equal"
    STRONGLY_DOMINATED = "strongly-dominated"
    INCOMPARABLE = "incomparable"

    @property
    def weakly_dominates(self) -> bool:
        return self in (Dominance.STRONGLY_DOMINATES, Dominance.EQUAL)


def _weakly_dominates_agent(
    cx: Lottery, cy: Lottery, pref: Preference, agent: AgentId
) -> bool:
    """The dominance inequalities for one agent, on canonical forms.

    For every assignment ``v`` appearing in ``cy``, the mass ``cx`` puts on
    assignments the agent likes at least as much as ``v`` must cover the
    mass ``cy`` puts there.  Assignments incomparable to ``v`` count toward
    neither sum.
    """
    x_assign = [(w, m.assigned_mask(agent)) for w, m in cx.terms]
    y_assign = [(w, m.assigned_mask(agent)) for w, m in cy.terms]
    for _, target in y_assign:
        lhs = sum(
            (w for w, a in x_assign
             if pref.compare_masks(a, target) in (SetComparison.FIRST, SetComparison.EQUAL)),
            ZERO,
        )
        rhs = sum(
            (w for w, b in y_assign
             if pref.compare_masks(b, target) in (SetComparison.FIRST, SetComparison.EQUAL)),
            ZERO,
        )
        if lhs < rhs:
            return False
    return True


def _weakly_dominates(cx: Lottery, cy: Lottery, market: Market, who: Union[Side, AgentId]) -> bool:
    if isinstance(who, AgentId):
        agents: Iterable[AgentId] = (who,)
    else:
        nf, nw = market.shape
        count = nf if who is Side.FIRMS else nw
        agents = (AgentId(who, i) for i in range(count))
    return all(
        _weakly_dominates_agent(cx, cy, market.pref(agent), agent) for agent in agents
    )


def dominates(x: Lottery, y: Lottery, stable_set: StableSet, who: Union[Side, AgentId]) -> Dominance:
    """Stochastic-dominance position of ``x`` relative to ``y``.

    ``who`` is either a whole side (every agent on it must agree) or one
    agent.  Inputs are canonicalised first, since the inequalities are
    stated on decreasing representations.
    """
    market = stable_set.market
    cx = decompose(x, stable_set)
    cy = decompose(y, stable_set)
    forward = _weakly_dominates(cx, cy, market, who)
    backward = _weakly_dominates(cy, cx, market, who)
    if forward and backward:
        return Dominance.EQUAL
    if forward:
        return Dominance.STRONGLY_DOMINATES
    if backward:
        return Dominance.STRONGLY_DOMINATED
    return Dominance.INCOMPARABLE


def split_dominates(x: Lottery, y: Lottery, stable_set: StableSet, side: Side) -> bool:
    """Termwise order on the common refinement: true iff every aligned pair
    of ``split(x, y)`` weakly favours ``x`` on ``side``.

    Equivalent to weak dominance of ``x`` over ``y`` for that side.
    """
    market = stable_set.market
    cx = decompose(x, stable_set)
    cy = decompose(y, stable_set)
    alignment = split(cx, cy, market)
    return all(
        compare_side(a, b, market, side).at_least
        for a, b in zip(alignment.left, alignment.right)
    )


def _combine_termwise(
    alignment: SplitAlignment, side: Side, take_join: bool, stable_set: StableSet
) -> Lottery:
    """Point termwise; the firm-side join is the worker-side meet and vice versa."""
    market = stable_set.market
    point = _firm_pointing if take_join == (side is Side.FIRMS) else _worker_pointing
    combined = [point(pair, market) for pair in zip(alignment.left, alignment.right)]
    result = _merge_runs(alignment.gamma, combined)
    for matching in result.matchings:
        stable_set.index(matching)  # raises not-in-stable-set
    if not is_decreasing(result, market):
        # Termwise combination of two decreasing chains is monotone, so this
        # only happens when the stable set or the market is inconsistent.
        raise ValidationError("termwise combination is not in decreasing form", code="not-canonical")
    return result


def _refined(x: Lottery, y: Lottery, stable_set: StableSet, method: str) -> SplitAlignment:
    market = stable_set.market
    cx = decompose(x, stable_set)
    cy = decompose(y, stable_set)
    if method == "split":
        return split(cx, cy, market)
    if method == "lcm":
        return lcm_refine(cx, cy, market)
    raise ValidationError(f"unknown refinement method {method!r}", code="bad-method")


def join_random(
    x: Lottery, y: Lottery, stable_set: StableSet, side: Side, method: str = "split"
) -> Lottery:
    """Least upper bound of two lotteries for a side, in canonical form.

    Both lotteries are canonicalised, aligned over a common weight vector
    (``method`` picks the breakpoint merge or the lcm refinement; the result
    is the same), and combined termwise with the side's deterministic join.
    The result weakly dominates both inputs and is below every common upper
    bound; firm-side join equals worker-side meet.
    """
    return _combine_termwise(_refined(x, y, stable_set, method), side, True, stable_set)


def meet_random(
    x: Lottery, y: Lottery, stable_set: StableSet, side: Side, method: str = "split"
) -> Lottery:
    """Greatest lower bound of two lotteries for a side (see
    :func:`join_random`); firm-side meet equals worker-side join."""
    return _combine_termwise(_refined(x, y, stable_set, method), side, False, stable_set)


def random_rht_check(x: Lottery, y: Lottery) -> bool:
    """Rural Hospital property for lotteries: the expectation matrices of
    any two random stable matchings of one market share all row sums and
    all column sums."""
    if x.shape != y.shape:
        raise ValidationError("lotteries come from different markets", code="mismatched-market")
    ex = x.expectation()
    ey = y.expectation()
    return ex.row_sums() == ey.row_sums() and ex.col_sums() == ey.col_sums()
