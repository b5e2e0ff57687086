"""``lottery-split`` and ``lottery-lcm``: the lottery algebra on two fixed lattices.

Setup enumerates the golden 4x4 lattice (16 matchings, 55 incomparable
pairs) and a block-diagonal 5x5 Latin lattice (a 3-cycle and a 2-cycle:
3 * 2 = 6 matchings, 3 incomparable pairs), then parses seeded lottery pairs
over them.  Enumeration therefore shows only in ``setup_s``.

``lottery-split`` mixes decompose_run, dominates for each side,
split_dominates, join (firms) and meet (workers) over ``split``, and the
rural-hospital check.  ``lottery-lcm`` runs join and meet for both sides
over ``lcm_refine``, with pairs drawn so that the slice count e (the lcm of
all weight denominators) lies in a fixed band: its time is many cheap
termwise joins instead of decomposition.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right

from matchlattice import (
    DecompositionRun,
    Side,
    decompose,
    decompose_run,
    dominates,
    enumerate_stable,
    hasse_edges,
    join_random,
    lcm_refine,
    meet_random,
    parse_lottery,
    parse_market,
    random_rht_check,
    split,
    split_dominates,
)

import check
import gen
from harness import Failure, Op

SIDES = {"F": Side.FIRMS, "W": Side.WORKERS}
SPLIT_KINDS = ("decompose_run", "dominates_F", "dominates_W", "split_dominates_F",
               "join_F", "meet_W", "rht")
LCM_KINDS = ("join_F", "meet_F", "join_W", "meet_W")
MAX_SUPPORT = 8
MAX_WEIGHT = 12
# lcm pairs: the slice count e (lcm of the pair's reduced weight denominators)
# is drawn to within 2% of a target; the targets step evenly through 1000..2500
# with the pair slot, so every run carries the same total of slices.
E_RANGE = (1000, 2500)
E_TOLERANCE = 0.02
# A split-workload join is cross-checked against the lcm refinement only when
# that refinement is small; the lcm workload checks every join against split.
CROSS_CHECK_MAX_E = 400


class Lotteries:
    def __init__(self, name: str):
        self.name = name
        self.method = "lcm" if name == "lottery-lcm" else "split"
        self.kinds = LCM_KINDS if self.method == "lcm" else SPLIT_KINDS
        # Pairs alternate between the two lattices, and every round gives each
        # (lattice, kind) the same number of operations.  The split workload's
        # operations are cheap, so it draws many pairs to average out how
        # much each one costs.
        self.pairs = (8 if self.method == "lcm" else 24) * len(self.kinds)
        self.traced_rounds = 2 if self.method == "lcm" else 8
        top = MAX_WEIGHT * MAX_SUPPORT if self.method == "lcm" else 0
        self._lcm_table = sorted((math.lcm(a, b), a, b) for a in range(1, top) for b in range(1, top))

    def setup(self, seed: int, t):
        rng = random.Random(seed)
        lattices = []
        for source in (gen.golden_market(), gen.block_diagonal_market(rng)):
            doc = t.call("documents.parse_market", parse_market, source.text)
            market = t.call("documents.build_market", doc.build_market)
            stable = t.call("lattice.enumerate_stable", enumerate_stable, market)
            lattices.append((source, doc, stable))
        pairs = []
        for p in range(self.pairs):
            source, doc, stable = lattices[p % 2]
            texts = self._pair_texts(rng, p // 2, source, stable)
            x, y = (t.call("documents.parse_lottery", parse_lottery, text, doc) for text in texts)
            pairs.append((stable, x, y))
        ops = {
            (p, kind): Op(kind, (p, kind), self._op(kind, *pairs[p]))
            for p in range(self.pairs) for kind in self.kinds
        }
        return {"lattices": lattices, "pairs": pairs, "ops": ops, "checked": {}}

    def _pair_texts(self, rng: random.Random, slot: int, source, stable):
        """Two lottery documents over ``stable``.

        For split, support sizes cycle through every size with ``slot``, so
        each run has the same spread of sizes.  For lcm, the two weight
        denominators are chosen so that e lies within ``E_TOLERANCE`` of the
        slot's target, and the weights are drawn to sum to them exactly.
        """
        most = min(MAX_SUPPORT, len(stable))
        if self.method == "split":
            drawn = []
            for shift in (0, most // 2):
                size = 1 + (slot + shift) % most
                drawn.append((size, [rng.randint(1, MAX_WEIGHT) for _ in range(size)]))
        else:
            target = E_RANGE[0] + (E_RANGE[1] - E_RANGE[0]) * slot / (self.pairs // 2 - 1)
            cap = MAX_WEIGHT * most - 1
            window = self._lcm_table[
                bisect_left(self._lcm_table, ((1 - E_TOLERANCE) * target,)):
                bisect_right(self._lcm_table, ((1 + E_TOLERANCE) * target,))]
            options = [(a, b) for _, a, b in window if a <= cap and b <= cap]
            drawn = []
            while len(drawn) < 2:
                drawn = []
                for total in rng.choice(options):
                    size = rng.randint(total // MAX_WEIGHT + 1, min(most, total))
                    raw = gen.weights_summing_to(rng, total, size, MAX_WEIGHT)
                    if raw is None:
                        break
                    drawn.append((size, raw))
        return [
            gen.lottery_json([(n, sum(raw), stable[k].firm_masks)
                              for k, n in zip(rng.sample(range(len(stable)), size), raw)],
                             source.firms, source.workers)
            for size, raw in drawn
        ]

    def _op(self, kind: str, stable, x, y):
        side = SIDES.get(kind[-1])
        method = self.method
        if kind == "decompose_run":
            return lambda t: t.call("lotteries.decompose_run", decompose_run, x, stable)
        if kind.startswith("dominates"):
            return lambda t: t.call("lotteries.dominates", dominates, x, y, stable, side)
        if kind.startswith("split_dominates"):
            return lambda t: t.call("lotteries.split_dominates", split_dominates, x, y, stable, side)
        if kind.startswith("join"):
            return lambda t: t.call("lotteries.join_random", join_random, x, y, stable, side,
                                    method=method)
        if kind.startswith("meet"):
            return lambda t: t.call("lotteries.meet_random", meet_random, x, y, stable, side,
                                    method=method)
        return lambda t: t.call("lotteries.random_rht_check", random_rht_check, x, y)

    def round(self, state, r: int):
        ops = state["ops"]
        return [ops[p, self.kinds[(p // 2 + r) % len(self.kinds)]] for p in range(self.pairs)]

    def close(self, state) -> None:
        pass

    def fingerprint(self, out):
        if isinstance(out, DecompositionRun):
            return out.result, len(out.steps)
        return out

    def _checked(self, state, key, compute):
        """Verification results shared by many operations, computed once."""
        if key not in state["checked"]:
            state["checked"][key] = compute()
        return state["checked"][key]

    def _lattice_ok(self, state, stable) -> bool:
        def compute():
            source = next(s for s, _, st in state["lattices"] if st is stable)
            return not check.stable_set_problems(stable, hasse_edges(stable),
                                                 check.expected_size(source))
        return self._checked(state, ("lattice", id(stable)), compute)

    def _canonical(self, state, lottery, stable):
        """The library's decomposition of ``lottery``, or None if it fails
        the independent checks."""
        def compute():
            result = decompose(lottery, stable)
            bad = check.canonical_problems(result, lottery, stable.market, set(stable))
            return None if bad else result
        return self._checked(state, ("canonical", id(lottery)), compute)

    def output_ok(self, state, op, out) -> bool:
        p, kind = op.key
        stable, x, y = state["pairs"][p]
        if not self._lattice_ok(state, stable):
            return False
        market, members = stable.market, set(stable)
        if kind == "rht":
            return out is True and check.row_col_sums(x, market) == check.row_col_sums(y, market)
        if kind == "decompose_run":
            return bool(out.steps) and not check.canonical_problems(out.result, x, market, members)
        cx, cy = self._canonical(state, x, stable), self._canonical(state, y, stable)
        if cx is None or cy is None:
            return False
        side = SIDES[kind[-1]]
        if kind.startswith("dominates"):
            return out.value == check.dominance(cx, cy, market, side)
        if kind.startswith("split_dominates"):
            return out == check.weakly_dominates(cx, cy, market, side)
        # join / meet: canonical, a bound of both inputs, and the same answer
        # from the other refinement.
        if check.canonical_problems(out, None, market, members):
            return False
        if kind.startswith("join"):
            bounds = all(check.weakly_dominates(out, c, market, side) for c in (cx, cy))
            other = join_random
        else:
            bounds = all(check.weakly_dominates(c, out, market, side) for c in (cx, cy))
            other = meet_random
        if self.method == "lcm":
            return bounds and other(x, y, stable, side, method="split") == out
        if math.lcm(*(w.denominator for w in cx.weights + cy.weights)) > CROSS_CHECK_MAX_E:
            return bounds
        return bounds and other(x, y, stable, side, method="lcm") == out

    def layer_metrics(self, state, loop, tracer) -> dict:
        tracer.op_id = "probe"
        refine_name = "lotteries.lcm_refine" if self.method == "lcm" else "lotteries.split"
        refine = lcm_refine if self.method == "lcm" else split
        steps = pool_max = aligned = 0
        for op, out, times in loop.occurrences():
            if isinstance(out, Failure):
                continue
            if op.kind == "decompose_run":
                steps += times * len(out.steps)
                pool_max = max([pool_max] + [len(s.pool) for s in out.steps])
            elif op.kind.startswith(("join", "meet")):
                # The parts of a join or meet, timed as separate public calls
                # on the same inputs; what they leave over is the termwise
                # combination.
                stable, x, y = state["pairs"][op.key[0]]
                for _ in range(times):
                    cx = tracer.call("lotteries.decompose", decompose, x, stable)
                    cy = tracer.call("lotteries.decompose", decompose, y, stable)
                    aligned += len(tracer.call(refine_name, refine, cx, cy, stable.market))
        combined = tracer.busy("lotteries.join_random") + tracer.busy("lotteries.meet_random")
        parts = tracer.busy("lotteries.decompose") + tracer.busy(refine_name)
        return {
            "lotteries.decompose.steps": steps,
            "lotteries.decompose.pool_max": pool_max,
            "lotteries.aligned_pairs": aligned,
            "lotteries.lcm_refine.slices" if self.method == "lcm" else "lotteries.split.terms": aligned,
            "lotteries.combine.busy_s": combined - parts,
        }
