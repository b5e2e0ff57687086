"""Seeded input generators.

Every input reaches the program as JSON text written here, never as a
library object: markets and lotteries are serialised by this module and
parsed back through ``parse_market`` / ``parse_lottery`` by the workloads.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from matchlattice import generate_responsive_market

# The golden 4x4 market: each agent ranks four pairs, then the four
# singletons, in rotated orders.  It has 16 stable matchings and 55
# incomparable pairs.
GOLDEN_FIRMS = (
    ((0, 1), (0, 2), (1, 3), (2, 3), (0,), (1,), (2,), (3,)),
    ((2, 3), (1, 3), (0, 2), (0, 1), (2,), (3,), (0,), (1,)),
    ((0, 2), (2, 3), (0, 1), (1, 3), (0,), (2,), (1,), (3,)),
    ((1, 3), (0, 1), (2, 3), (0, 2), (1,), (3,), (0,), (2,)),
)
GOLDEN_WORKERS = (
    ((1, 3), (1, 2), (0, 3), (0, 2), (1,), (3,), (2,), (0,)),
    ((1, 2), (0, 2), (1, 3), (0, 3), (1,), (2,), (0,), (3,)),
    ((0, 3), (1, 3), (0, 2), (1, 2), (0,), (3,), (1,), (2,)),
    ((0, 2), (0, 3), (1, 2), (1, 3), (0,), (2,), (3,), (1,)),
)
GOLDEN_SIZE = 16
GOLDEN_LABEL = "golden-4x4"


@dataclass(frozen=True)
class MarketInput:
    """A generated market as JSON text, with the facts the checks need."""

    label: str
    text: str
    firms: tuple[str, ...]
    workers: tuple[str, ...]
    product_space: int  # product over firms of individually rational rows
    ir_rows: int  # sum over firms of individually rational rows
    blocks: tuple["MarketInput", ...] = ()  # independent sub-markets, if any


def _names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k + 1}" for k in range(count))


def _ranked_rows(subsets) -> int:
    """Individually rational rows of a ranked preference: the empty set plus
    each listed subset that contains no higher-ranked subset."""
    masks = [sum(1 << k for k in s) for s in subsets]
    return 1 + sum(
        1 for pos, m in enumerate(masks) if not any(p & m == p for p in masks[:pos])
    )


def _responsive_rows(quota: int, listed: int) -> int:
    return sum(math.comb(listed, k) for k in range(min(quota, listed) + 1))


def _responsive_market(label, firms, workers, prefs, blocks=()) -> MarketInput:
    """``prefs`` maps each name to ``(quota, priority)``."""
    body = {
        "firms": list(firms),
        "workers": list(workers),
        "preferences": {
            name: {"responsive": {"quota": q, "priority": list(p)}}
            for name, (q, p) in prefs.items()
        },
    }
    rows = [_responsive_rows(prefs[f][0], len(prefs[f][1])) for f in firms]
    return MarketInput(label, json.dumps(body), tuple(firms), tuple(workers),
                       math.prod(rows), sum(rows), tuple(blocks))


def golden_market() -> MarketInput:
    firms, workers = _names("f", 4), _names("w", 4)
    prefs = {}
    for names, opposite, rankings in ((firms, workers, GOLDEN_FIRMS),
                                      (workers, firms, GOLDEN_WORKERS)):
        for name, ranking in zip(names, rankings):
            prefs[name] = {"ranked": [[opposite[k] for k in s] for s in ranking]}
    body = {"firms": list(firms), "workers": list(workers), "preferences": prefs}
    rows = [_ranked_rows(r) for r in GOLDEN_FIRMS]
    return MarketInput(GOLDEN_LABEL, json.dumps(body), firms, workers,
                       math.prod(rows), sum(rows))


def block_diagonal_market(rng: random.Random, sizes=(3, 2)) -> MarketInput:
    """Disjoint cyclic Latin blocks with quota 1.

    In an n-block firm i ranks workers i, i+1, ... and worker j ranks firms
    j+1, j+2, ..., j (indices mod n), so the n diagonal matchings are the
    block's stable matchings.  Agents find nobody outside their block
    acceptable, so the market's stable set is the product of the blocks'
    stable sets.  Agent names are shuffled across blocks by the seed.
    """
    total = sum(sizes)
    firms, workers = _names("f", total), _names("w", total)
    firm_order = rng.sample(firms, total)
    worker_order = rng.sample(workers, total)
    prefs, blocks, start = {}, [], 0
    for n in sizes:
        bf = firm_order[start:start + n]
        bw = worker_order[start:start + n]
        block = {}
        for i in range(n):
            block[bf[i]] = (1, [bw[(i + k) % n] for k in range(n)])
            block[bw[i]] = (1, [bf[(i + 1 + k) % n] for k in range(n)])
        prefs.update(block)
        blocks.append(_responsive_market(f"latin-{n}", sorted(bf, key=firms.index),
                                         sorted(bw, key=workers.index), block))
        start += n
    label = "block-" + "x".join(map(str, sizes))
    return _responsive_market(label, firms, workers, prefs, blocks)


def full_ir_market(rng: random.Random, size: int = 4) -> MarketInput:
    """Quota equal to the opposite side on both sides: every subset is
    individually rational, so no product is screened out early."""
    firms, workers = _names("f", size), _names("w", size)
    prefs = {f: (size, rng.sample(workers, size)) for f in firms}
    prefs.update({w: (size, rng.sample(firms, size)) for w in workers})
    return _responsive_market(f"full-ir-{size}x{size}", firms, workers, prefs)


def responsive_market(rng: random.Random, num_firms: int, num_workers: int,
                      max_quota: int, product_space=None) -> MarketInput:
    """A ``generate_responsive_market`` market on a seed drawn from ``rng``.

    With ``product_space`` set, seeds are drawn until the market's product of
    individually rational firm rows equals it, which pins the enumeration
    work of the rung while the preferences still vary with the seed.
    """
    for _ in range(10_000):
        doc = generate_responsive_market(rng.randrange(1 << 30), num_firms,
                                         num_workers, max_quota)
        prefs = {name: (spec.quota, spec.priority) for name, spec in doc.preferences.items()}
        market = _responsive_market(
            f"responsive-{num_firms}x{num_workers}-q{max_quota}",
            doc.firm_names, doc.worker_names, prefs,
        )
        if product_space is None or market.product_space == product_space:
            return market
    raise RuntimeError(f"no {num_firms}x{num_workers} market with product {product_space}")


def lottery_json(terms, firms, workers) -> str:
    """``terms`` is a list of ``(numerator, denominator, firm_masks)``."""
    out = []
    for num, den, masks in terms:
        out.append({
            "weight": f"{num}/{den}",
            "matching": {
                firms[i]: [workers[j] for j in range(len(workers)) if mask >> j & 1]
                for i, mask in enumerate(masks) if mask
            },
        })
    return json.dumps({"terms": out})


def weights_summing_to(rng: random.Random, total: int, support: int, max_weight: int):
    """``support`` integers in ``[1, max_weight]`` summing to ``total`` and
    sharing no factor with it, so the weights ``n / total`` in lowest terms
    have denominators whose lcm is exactly ``total``; None if a few draws
    find none.  Needs ``support <= total < support * max_weight``."""
    for _ in range(20):
        raw = [1] * support
        for _ in range(total - support):
            raw[rng.choice([k for k, w in enumerate(raw) if w < max_weight])] += 1
        if math.gcd(total, *raw) == 1:
            return raw
    return None
