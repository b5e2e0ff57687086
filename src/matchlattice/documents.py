"""JSON file formats for markets and lotteries, plus the market generator.

Market document::

    {
      "firms": ["f1", "f2"],
      "workers": ["w1", "w2"],
      "preferences": {
        "f1": {"ranked": [["w1", "w2"], ["w1"]]},
        "w1": {"responsive": {"quota": 1, "priority": ["f2", "f1"]}}
      }
    }

Every agent needs a preference entry.  Ranked subsets are listed best-first;
anything not listed is unacceptable.

Lottery document::

    {
      "terms": [
        {"weight": "3/4", "matching": {"f1": ["w1", "w3"], "f2": ["w2", "w4"]}},
        {"weight": "1/4", "matching": {"f1": ["w2", "w4"], "f2": ["w1", "w3"]}}
      ]
    }

Weights are fraction strings ``n`` or ``n/d`` (never decimals) and must sum to
one.  A matching lists only the firm side; omitted firms are unmatched, and the
worker side is derived.  A quota is a JSON integer; no object repeats a key.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import ValidationError
from .lotteries import Lottery
from .matchings import Matching
from .prefs import AgentId, Market, RankedPreference, ResponsivePreference, Side


@dataclass(frozen=True)
class RankedSpec:
    subsets: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ResponsiveSpec:
    quota: int
    priority: tuple[str, ...]


PrefSpec = Union[RankedSpec, ResponsiveSpec]


@dataclass(frozen=True)
class MarketDocument:
    """A parsed market file: agent names plus one preference spec each."""

    firm_names: tuple[str, ...]
    worker_names: tuple[str, ...]
    preferences: dict[str, PrefSpec]

    @property
    def firm_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.firm_names)}

    @property
    def worker_index(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.worker_names)}

    def build_market(self) -> Market:
        firm_idx = self.firm_index
        worker_idx = self.worker_index
        firm_prefs = []
        for i, name in enumerate(self.firm_names):
            firm_prefs.append(
                _build_pref(self.preferences[name], AgentId(Side.FIRMS, i), worker_idx)
            )
        worker_prefs = []
        for j, name in enumerate(self.worker_names):
            worker_prefs.append(
                _build_pref(self.preferences[name], AgentId(Side.WORKERS, j), firm_idx)
            )
        return Market(tuple(firm_prefs), tuple(worker_prefs))


def _build_pref(spec: PrefSpec, owner: AgentId, opposite_index: dict[str, int]):
    size = len(opposite_index)
    if isinstance(spec, RankedSpec):
        ranking = [[opposite_index[n] for n in subset] for subset in spec.subsets]
        return RankedPreference(owner, size, ranking)
    priority = [opposite_index[n] for n in spec.priority]
    return ResponsivePreference(owner, size, spec.quota, priority)


def _fail(path: str, message: str, code: str) -> ValidationError:
    return ValidationError(f"{path}: {message}", code=code)


def _need(mapping, key, kind, path: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise _fail(path, f"missing key {key!r}", "schema")
    value = mapping[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise _fail(f"{path}.{key}", f"expected {kind.__name__}", "schema")
    return value


def _name_list(raw, path: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(n, str) for n in raw):
        raise _fail(path, "expected a list of strings", "schema")
    seen = set()
    for name in raw:
        if name in seen:
            raise _fail(path, f"duplicate name {name!r}", "duplicate-name")
        seen.add(name)
    return tuple(raw)


def _path_to(target, value, path: str = "$") -> Optional[str]:
    """JSON path of the object ``target`` inside ``value``."""
    if value is target:
        return path
    if isinstance(value, dict):
        children = ((f"{path}.{key}", item) for key, item in value.items())
    elif isinstance(value, list):
        children = ((f"{path}[{k}]", item) for k, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_path_to(target, item, sub) for sub, item in children)), None)


def _load_json(data: Union[str, bytes]):
    repeats = []

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            repeats.append((obj, next(key for key in obj if keys.count(key) > 1)))
        return obj

    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed JSON: {exc}", code="malformed-json") from None
    if repeats:
        # The hook cannot see where an object sits; find it in the result.
        obj, key = repeats[0]
        raise _fail(_path_to(obj, raw), f"duplicate key {key!r}", "duplicate-key")
    return raw


def parse_market(data: Union[str, bytes]) -> MarketDocument:
    """Parse and fully validate a market document."""
    raw = _load_json(data)
    firms = _name_list(_need(raw, "firms", list, "$"), "$.firms")
    workers = _name_list(_need(raw, "workers", list, "$"), "$.workers")
    overlap = set(firms) & set(workers)
    if overlap:
        raise _fail("$", f"names on both sides: {sorted(overlap)}", "duplicate-name")

    raw_prefs = _need(raw, "preferences", dict, "$")
    known = set(firms) | set(workers)
    for name in raw_prefs:
        if name not in known:
            raise _fail("$.preferences", f"unknown agent {name!r}", "unknown-agent")
    preferences: dict[str, PrefSpec] = {}
    for name in list(firms) + list(workers):
        path = f"$.preferences.{name}"
        if name not in raw_prefs:
            raise _fail(path, "missing preference entry", "schema")
        opposite = workers if name in set(firms) else firms
        preferences[name] = _parse_pref(raw_prefs[name], path, set(opposite))

    doc = MarketDocument(firms, workers, preferences)
    doc.build_market()  # surfaces core-level validation early
    return doc


def _parse_pref(raw, path: str, opposite: set[str]) -> PrefSpec:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise _fail(path, 'expected exactly one of "ranked" or "responsive"', "schema")
    if "ranked" in raw:
        subsets = raw["ranked"]
        if not isinstance(subsets, list):
            raise _fail(f"{path}.ranked", "expected a list of subsets", "schema")
        parsed = []
        for k, subset in enumerate(subsets):
            sub_path = f"{path}.ranked[{k}]"
            if not isinstance(subset, list) or not all(isinstance(n, str) for n in subset):
                raise _fail(sub_path, "expected a list of agent names", "schema")
            for member in subset:
                if member not in opposite:
                    raise _fail(sub_path, f"unknown agent {member!r}", "unknown-agent")
            if len(set(subset)) != len(subset):
                raise _fail(sub_path, "repeated member", "schema")
            parsed.append(tuple(sorted(subset)))
        return RankedSpec(tuple(parsed))
    if "responsive" in raw:
        body = raw["responsive"]
        quota = _need(body, "quota", int, f"{path}.responsive")
        priority = _need(body, "priority", list, f"{path}.responsive")
        if not all(isinstance(n, str) for n in priority):
            raise _fail(f"{path}.responsive.priority", "expected agent names", "schema")
        for member in priority:
            if member not in opposite:
                raise _fail(
                    f"{path}.responsive.priority", f"unknown agent {member!r}", "unknown-agent"
                )
        return ResponsiveSpec(quota, tuple(priority))
    raise _fail(path, 'expected "ranked" or "responsive"', "schema")


def dump_market(doc: MarketDocument) -> str:
    payload = {
        "firms": list(doc.firm_names),
        "workers": list(doc.worker_names),
        "preferences": {},
    }
    for name in list(doc.firm_names) + list(doc.worker_names):
        spec = doc.preferences[name]
        if isinstance(spec, RankedSpec):
            payload["preferences"][name] = {"ranked": [list(s) for s in spec.subsets]}
        else:
            payload["preferences"][name] = {
                "responsive": {"quota": spec.quota, "priority": list(spec.priority)}
            }
    return json.dumps(payload, indent=2) + "\n"


#: A weight is ``n`` or ``n/d`` with a nonzero denominator: no sign,
#: space, decimal point or exponent.
_WEIGHT = re.compile(r"([0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def _parse_weight(raw, path: str) -> Fraction:
    match = _WEIGHT.fullmatch(raw) if isinstance(raw, str) else None
    if match is None:
        raise _fail(path, f"{raw!r} is not a fraction string n or n/d", "bad-weight")
    weight = Fraction(int(match[1]), int(match[2] or 1))
    if weight <= 0 or weight > 1:
        raise _fail(path, f"weight {raw} outside (0, 1]", "bad-weight")
    return weight


def parse_lottery(data: Union[str, bytes], doc: MarketDocument) -> Lottery:
    """Parse a lottery document against a market's agent names."""
    raw = _load_json(data)
    raw_terms = _need(raw, "terms", list, "$")
    if not raw_terms:
        raise _fail("$.terms", "a lottery needs at least one term", "empty-lottery")
    firm_idx, worker_idx = doc.firm_index, doc.worker_index
    nf, nw = len(doc.firm_names), len(doc.worker_names)

    terms = []
    total = Fraction(0)
    for k, raw_term in enumerate(raw_terms):
        path = f"$.terms[{k}]"
        weight = _parse_weight(_need(raw_term, "weight", object, path), f"{path}.weight")
        raw_matching = _need(raw_term, "matching", dict, path)
        edges = []
        for firm, assigned in raw_matching.items():
            if firm not in firm_idx:
                raise _fail(f"{path}.matching", f"unknown firm {firm!r}", "unknown-agent")
            if not isinstance(assigned, list) or not all(isinstance(n, str) for n in assigned):
                raise _fail(f"{path}.matching.{firm}", "expected worker names", "schema")
            for worker in assigned:
                if worker not in worker_idx:
                    raise _fail(
                        f"{path}.matching.{firm}", f"unknown worker {worker!r}", "unknown-agent"
                    )
                edges.append((firm_idx[firm], worker_idx[worker]))
            if len(set(assigned)) < len(assigned):
                raise _fail(f"{path}.matching.{firm}", "repeated worker", "schema")
        terms.append((weight, Matching.from_edges(nf, nw, edges)))
        total += weight
    if total != 1:
        raise _fail("$.terms", f"weights sum to {total}, not 1", "weight-sum")
    return Lottery(tuple(terms))


def dump_lottery(lottery: Lottery, doc: MarketDocument) -> str:
    terms = []
    for weight, matching in lottery.terms:
        assignment = {}
        for i, name in enumerate(doc.firm_names):
            workers = sorted(matching.firm_set(i))
            if workers:
                assignment[name] = [doc.worker_names[j] for j in workers]
        terms.append({"weight": str(weight), "matching": assignment})
    return json.dumps({"terms": terms}, indent=2) + "\n"


def generate_responsive_market(
    seed: int, num_firms: int, num_workers: int, max_quota: int
) -> MarketDocument:
    """Deterministically generate a market of responsive preferences.

    Responsive preferences are substitutable and satisfy the law of
    aggregated demand by construction, so generated markets always pass the
    axiom checks; this is the instance source for the property tests.

    Three regimes are mixed to keep the test distribution interesting:
    rotated opposed priorities (systematic conflict, which reliably yields
    several stable matchings), dense random priorities, and sparse random
    priorities where some agents find nobody acceptable.
    """
    if max_quota < 1:
        raise ValidationError("max_quota must be at least 1")
    rng = random.Random(seed)
    firms = tuple(f"f{i + 1}" for i in range(num_firms))
    workers = tuple(f"w{j + 1}" for j in range(num_workers))
    preferences: dict[str, PrefSpec] = {}
    mode = rng.choices(("rotation", "dense", "sparse"), weights=(4, 4, 2))[0]

    if mode == "rotation":
        # Firm i reads the workers forward from offset i, worker j reads the
        # firms backward from offset j+shift: whoever a firm ranks high tends
        # to rank that firm low, which reliably produces several stable
        # matchings.  A few adjacent swaps add variety without losing the
        # conflict structure.
        base_w = list(workers)
        base_f = list(firms)[::-1]
        shift = rng.randrange(num_firms)
        quota = rng.randint(1, max_quota)
        rows: dict[str, list[str]] = {}
        for i, name in enumerate(firms):
            k = i % num_workers
            rows[name] = base_w[k:] + base_w[:k]
        for j, name in enumerate(workers):
            k = (j + shift) % num_firms
            rows[name] = base_f[k:] + base_f[:k]
        for name in rng.sample(sorted(rows), rng.randint(0, 2)):
            row = rows[name]
            if len(row) > 1:
                p = rng.randrange(len(row) - 1)
                row[p], row[p + 1] = row[p + 1], row[p]
        for name, row in rows.items():
            preferences[name] = ResponsiveSpec(quota, tuple(row))
    else:
        for name in firms + workers:
            opposite = workers if name in firms else firms
            if mode == "dense":
                count = len(opposite)
            else:
                count = rng.randint(0, len(opposite))
            priority = tuple(rng.sample(opposite, count))
            preferences[name] = ResponsiveSpec(rng.randint(1, max_quota), priority)
    return MarketDocument(firms, workers, preferences)
