"""``enumerate``: market JSON -> parse -> build -> enumerate_stable -> hasse_edges.

The ladder mixes seeded rungs from 3x3 to 5x5 with quota at most 2.  Each
seeded rung fixes the product of individually rational firm rows, which is
the brute-force enumerator's work, so the cost of a rung does not drift with
the seed while the preferences do.  The rung counts put the median inside
the ~25 ms class and the 90th percentile inside the 5x5 quota-2 class, away
from class boundaries, so both percentiles are steady from seed to seed.
"""

from __future__ import annotations

import random

from matchlattice import enumerate_stable, hasse_edges, parse_market, profile_violations

import check
import gen
from harness import Failure, Op

VARIANTS = 2  # independently drawn ladders per run; round r uses ladder r % VARIANTS
TRACED_ROUNDS = 4

# (rung, operations per round).  A round is 30 operations, about 1.6 s on the
# seed code: 8 light (under 12 ms), 14 around 25 ms, 3 around 45 ms, 4 around
# 170 ms and one top rung over 300 ms.  The median then falls in the middle
# of the 25 ms class and the 90th percentile a third of the way into the
# 170 ms class, away from the class boundaries where a percentile jumps.
LADDER = (
    (lambda rng: gen.responsive_market(rng, 3, 3, 1), 1),
    (lambda rng: gen.responsive_market(rng, 3, 3, 2), 1),
    (lambda rng: gen.responsive_market(rng, 3, 4, 1), 1),
    (lambda rng: gen.responsive_market(rng, 3, 4, 2), 1),
    (lambda rng: gen.responsive_market(rng, 4, 4, 1, product_space=5 ** 4), 1),
    (lambda rng: gen.responsive_market(rng, 4, 5, 1, product_space=6 ** 4), 1),
    (lambda rng: gen.responsive_market(rng, 5, 4, 1, product_space=5 ** 5), 1),
    (gen.block_diagonal_market, 1),
    (lambda rng: gen.golden_market(), 7),
    (lambda rng: gen.responsive_market(rng, 5, 5, 1, product_space=6 ** 5), 7),
    (lambda rng: gen.responsive_market(rng, 4, 4, 2, product_space=11 ** 4), 3),
    (lambda rng: gen.responsive_market(rng, 5, 5, 2, product_space=6 ** 3 * 16 ** 2), 4),
)
# The top rung of each ladder: full-IR 4x4 for one, 5x4 quota 2 for the other.
TOP = (
    gen.full_ir_market,
    lambda rng: gen.responsive_market(rng, 5, 4, 2, product_space=11 ** 5),
)


def _enumerate(text: str):
    def run(t):
        doc = t.call("documents.parse_market", parse_market, text)
        market = t.call("documents.build_market", doc.build_market)
        stable = t.call("lattice.enumerate_stable", enumerate_stable, market)
        edges = t.call("lattice.hasse_edges", hasse_edges, stable)
        return stable, edges
    return run


class Enumerate:
    name = "enumerate"
    traced_rounds = TRACED_ROUNDS

    def setup(self, seed: int, tracer):
        rng = random.Random(seed)
        ladders = [
            [make(rng) for make, copies in LADDER for _ in range(copies)] + [TOP[v](rng)]
            for v in range(VARIANTS)
        ]
        ops = [[Op("enumerate", (m.text,), _enumerate(m.text)) for m in ladder] for ladder in ladders]
        return {"ops": ops, "inputs": {m.text: m for ladder in ladders for m in ladder}}

    def round(self, state, r: int):
        return state["ops"][r % VARIANTS]

    def close(self, state) -> None:
        pass

    def fingerprint(self, out):
        stable, edges = out
        return tuple(m.firm_masks for m in stable), edges

    def output_ok(self, state, op, out) -> bool:
        return not _problems(state["inputs"][op.key[0]], *out)

    def layer_metrics(self, state, loop, tracer) -> dict:
        tracer.op_id = "probe"
        totals = dict.fromkeys(("prefs.ir_rows", "lattice.product_space", "lattice.stable_found",
                                "lattice.table_cells", "lattice.hasse_edges.count"), 0)
        for op, out, times in loop.occurrences():
            text = op.key[0]
            for _ in range(times):
                # The axiom check runs inside enumerate_stable; timing it as
                # its own call on a fresh market (cold choice memos, like the
                # operation) gives the axiom share of enumeration.
                tracer.call("prefs.profile_violations", profile_violations,
                            parse_market(text).build_market())
            if isinstance(out, Failure):
                continue
            stable, edges = out
            source = state["inputs"][text]
            for name, count in (("prefs.ir_rows", source.ir_rows),
                                ("lattice.product_space", source.product_space),
                                ("lattice.stable_found", len(stable)),
                                ("lattice.table_cells", len(stable) ** 2),
                                ("lattice.hasse_edges.count", len(edges))):
                totals[name] += times * count
        totals["lattice.stable_per_product"] = (
            totals["lattice.stable_found"] / totals["lattice.product_space"])
        return totals


def _problems(source, stable, edges) -> list[str]:
    return check.stable_set_problems(stable, edges, check.expected_size(source))
