"""``cli``: one ``python -m matchlattice.cli`` subprocess per operation.

Every round runs all nine subcommands on the golden and the block-diagonal
market files with seeded lottery files, plus three documented refusals
(malformed JSON and an unknown agent exit 2, a 5x6 market exits 3).  The
child imports the package from ``src`` through ``PYTHONPATH``; setup
compiles ``src/matchlattice`` first, so the bytecode cache is warm, as it is
after an install.  Each command pays interpreter start-up, import, parsing
and a fresh enumeration; this is the only workload that reaches
``documents`` dumping and the ``cli`` module.
"""

from __future__ import annotations

import compileall
import importlib.util
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from matchlattice import (
    Side,
    decompose,
    dump_lottery,
    enumerate_stable,
    hasse_edges,
    join_random,
    meet_random,
    parse_lottery,
    parse_market,
    profile_violations,
    split,
)

import check
import gen
from harness import Op, peak_rss_mb

PAIRS = 4  # lottery pairs per market; round r uses pair r % PAIRS
MAX_SUPPORT = 4
MAX_WEIGHT = 6
TIMEOUT_S = 120
STARTUP_PROBES = 9
COMMANDS = ("check", "enumerate", "lattice", "decompose", "split", "dominates", "join", "meet", "rht")
SENTENCES = {
    "strongly-dominates": "x strongly dominates y for the {}",
    "equal": "x and y are the same random stable matching for the {}",
    "strongly-dominated": "y strongly dominates x for the {}",
    "incomparable": "x and y are incomparable for the {}",
}


class Cli:
    name = "cli"
    traced_rounds = 2

    def __init__(self, root: Path):
        self.root = root
        self.tmp = root / ".perfbench" / f"cli-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _write(self, name: str, text: str) -> str:
        path = self.tmp / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def setup(self, seed: int, t):
        rng = random.Random(seed)
        self.tmp.mkdir(parents=True, exist_ok=True)
        package = self.root / "src" / "matchlattice"
        compileall.compile_dir(str(package), quiet=1)
        markets = {}
        for tag, source in (("golden", gen.golden_market()), ("block", gen.block_diagonal_market(rng))):
            doc = t.call("documents.parse_market", parse_market, source.text)
            stable = t.call("lattice.enumerate_stable", enumerate_stable, doc.build_market())
            files = {"market": self._write(f"{tag}.json", source.text)}
            lotteries = {}
            for k in range(PAIRS):
                for name in ("x", "y"):
                    picks = rng.sample(range(len(stable)), rng.randint(1, min(MAX_SUPPORT, len(stable))))
                    raw = [rng.randint(1, MAX_WEIGHT) for _ in picks]
                    total = sum(raw)
                    text = gen.lottery_json(
                        [(n, total, stable[i].firm_masks) for i, n in zip(picks, raw)],
                        source.firms, source.workers)
                    lottery = t.call("documents.parse_lottery", parse_lottery, text, doc)
                    canonical = t.call("lotteries.decompose", decompose, lottery, stable)
                    files[name, k] = self._write(f"{tag}-{name}{k}.json", text)
                    files["c" + name, k] = self._write(f"{tag}-c{name}{k}.json", gen.lottery_json(
                        [(w.numerator, w.denominator, m.firm_masks) for w, m in canonical.terms],
                        source.firms, source.workers))
                    lotteries[name, k] = lottery
            markets[tag] = {"source": source, "doc": doc, "stable": stable,
                            "files": files, "lotteries": lotteries}
        golden = markets["golden"]["source"]
        big = gen.responsive_market(rng, 5, 6, 2)
        unknown = json.dumps({"terms": [{"weight": "1", "matching": {"f9": ["w1"]}}]})
        refusals = (
            (["enumerate", self._write("malformed.json", golden.text[: len(golden.text) // 2])],
             2, "malformed-json"),
            (["decompose", markets["golden"]["files"]["market"], self._write("unknown.json", unknown)],
             2, "unknown-agent"),
            (["enumerate", self._write("big-5x6.json", big.text)], 3, "capacity"),
        )
        return {"markets": markets, "refusals": refusals, "lattice_ok": {}}

    def close(self, state) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def bytecode_warm(self) -> bool:
        package = self.root / "src" / "matchlattice"
        return all(Path(importlib.util.cache_from_source(str(p))).is_file()
                   for p in package.glob("*.py"))

    def _run(self, argv: list[str], out: str | None = None):
        def run(t):
            if out:
                Path(out).unlink(missing_ok=True)
            proc = subprocess.run([sys.executable, "-m", "matchlattice.cli", *argv],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
            written = Path(out).read_text(encoding="utf-8") if out and Path(out).is_file() else None
            return proc.returncode, proc.stdout, proc.stderr, written
        return run

    def round(self, state, r: int):
        k = r % PAIRS
        side = "F" if r % 2 == 0 else "W"
        ops = []
        for tag, info in state["markets"].items():
            f = info["files"]
            m, x, y = f["market"], f["x", k], f["y", k]
            dot = str(self.tmp / f"{tag}.dot")
            join_out = str(self.tmp / f"{tag}-join.json")
            meet_out = str(self.tmp / f"{tag}-meet.json")
            argvs = {
                "check": ([m], None),
                "enumerate": ([m], None),
                "lattice": ([m, "--dot", dot], dot),
                "decompose": ([m, x], None),
                "split": ([m, f["cx", k], f["cy", k]], None),
                "dominates": ([m, x, y, "--side", side], None),
                "join": ([m, x, y, "--side", "F", "--method", "split", "--out", join_out], join_out),
                "meet": ([m, x, y, "--side", "W", "--method", "lcm", "--out", meet_out], meet_out),
                "rht": ([m, x, y], None),
            }
            for command in COMMANDS:
                args, out = argvs[command]
                argv = [command, *args]
                ops.append(Op("cli." + command, (tag, k, side, *argv), self._run(argv, out)))
        for argv, code, category in state["refusals"]:
            ops.append(Op("cli.refusal", (code, category, *argv), self._run(argv)))
        return ops

    def fingerprint(self, out):
        return out

    def output_ok(self, state, op, out) -> bool:
        code, stdout, stderr, written = out
        if op.kind == "cli.refusal":
            expected_code, category = op.key[:2]
            return code == expected_code and stderr.startswith(f"error[{category}]")
        if code != 0:
            return False
        tag, k, side_letter, command = op.key[:4]
        info = state["markets"][tag]
        doc, stable, source = info["doc"], info["stable"], info["source"]
        market = stable.market
        lines = stdout.splitlines()

        def label(m):
            return stable.label(stable.index(m))

        if command == "check":
            names = list(doc.firm_names) + list(doc.worker_names)
            return not profile_violations(doc.build_market()) and lines == [f"{n}: ok" for n in names] + [
                "all preferences are substitutable and satisfy the law of aggregated demand"]
        edges = hasse_edges(stable)
        if tag not in state["lattice_ok"]:
            state["lattice_ok"][tag] = not check.stable_set_problems(
                stable, edges, check.expected_size(source))
        if not state["lattice_ok"][tag]:
            return False
        if command == "enumerate":
            rows = [line.split() for line in lines]
            want = [[label(m)] + ["{" + ",".join(doc.worker_names[j] for j in sorted(m.firm_set(i))) + "}"
                                  for i in range(len(doc.firm_names))] for m in stable]
            return rows == [list(doc.firm_names)] + want
        if command == "lattice":
            dot = op.key[-1]
            drawn = set(re.findall(r'"(m\d+)" -> "(m\d+)"', written or ""))
            return (lines == [f"wrote {dot} ({len(stable)} matchings, {len(edges)} edges)"]
                    and drawn == {(stable.label(i), stable.label(j)) for i, j in edges})
        x, y = info["lotteries"]["x", k], info["lotteries"]["y", k]
        members = set(stable)
        canon = {}
        for name, lottery in (("x", x), ("y", y)):
            result = decompose(lottery, stable)
            if check.canonical_problems(result, lottery, market, members):
                return False
            canon[name] = [(w, label(m)) for w, m in result.terms]
            canon[name, "lottery"] = result
        cx, cy = canon["x", "lottery"], canon["y", "lottery"]
        if command == "decompose":
            return _terms(stdout) == canon["x"]
        if command == "split":
            alignment = split(cx, cy, market)
            gamma = [Fraction(g) for g in lines[0].split()[1:]]
            left, right = lines[1].split()[1:], lines[2].split()[1:]
            return (len(lines) == 3 and gamma == list(alignment.gamma)
                    and left == [label(m) for m in alignment.left]
                    and right == [label(m) for m in alignment.right]
                    and _regroup(gamma, left) == canon["x"] and _regroup(gamma, right) == canon["y"])
        if command == "dominates":
            side = Side.FIRMS if side_letter == "F" else Side.WORKERS
            who = "firms" if side is Side.FIRMS else "workers"
            return lines == [SENTENCES[check.dominance(cx, cy, market, side)].format(who)]
        if command in ("join", "meet"):
            side = Side.FIRMS if command == "join" else Side.WORKERS
            op_fn = join_random if command == "join" else meet_random
            result = op_fn(x, y, stable, side)
            upper, lower = (result, cx), (result, cy)
            if command == "meet":
                upper, lower = (cx, result), (cy, result)
            ok = (not check.canonical_problems(result, None, market, members)
                  and check.weakly_dominates(*upper, market, side)
                  and check.weakly_dominates(*lower, market, side)
                  and op_fn(x, y, stable, side, method="lcm") == result)
            written_terms = [
                (Fraction(t["weight"]), {f: set(ws) for f, ws in t["matching"].items()})
                for t in json.loads(written or '{"terms": []}')["terms"]]
            want_terms = [(w, {doc.firm_names[i]: {doc.worker_names[j] for j in m.firm_set(i)}
                               for i in range(len(doc.firm_names)) if m.firm_masks[i]})
                          for w, m in result.terms]
            return ok and _terms(stdout) == [(w, label(m)) for w, m in result.terms] \
                and written_terms == want_terms
        # rht
        sums = [check.row_col_sums(lottery, market) for lottery in (x, y)]
        expected = []
        for name, (rows, cols) in zip("xy", sums):
            expected += [f"{name} row sums: " + " ".join(map(str, rows)),
                         f"{name} column sums: " + " ".join(map(str, cols))]
        return sums[0] == sums[1] and lines == expected + ["rural-hospital equality: yes"]

    def layer_metrics(self, state, loop, tracer) -> dict:
        tracer.op_id = "probe"
        for _ in range(STARTUP_PROBES):
            tracer.call("cli.startup", subprocess.run,
                        [sys.executable, "-c", "import matchlattice.cli"],
                        cwd=self.root, env=self.env, check=True, timeout=TIMEOUT_S)
        values = {"cli.startup_ms": statistics.median(tracer.durations("cli.startup")) * 1000,
                  "cli.child_peak_rss_mb": peak_rss_mb(children=True)}
        for kind in [f"cli.{c}" for c in COMMANDS] + ["cli.refusal"]:
            latencies = [t for t, k in zip(loop.latencies, loop.kinds) if k == kind]
            values[kind + ".p50_ms"] = statistics.median(latencies) * 1000
        # The documents and lattice work each child does, repeated in this
        # process on the same files as separate public calls.
        for op, _, times in loop.occurrences():
            if op.kind == "cli.refusal":
                continue
            info = state["markets"][op.key[0]]
            k = op.key[1]
            command = op.kind[len("cli."):]
            for _ in range(times):
                doc = tracer.call("documents.parse_market", parse_market,
                                  Path(info["files"]["market"]).read_text(encoding="utf-8"))
                if command == "check":
                    continue
                tracer.call("lattice.enumerate_stable", enumerate_stable, doc.build_market())
                if command in ("enumerate", "lattice"):
                    continue
                for name in ("x", "y") if command != "decompose" else ("x",):
                    text = Path(info["files"][name, k]).read_text(encoding="utf-8")
                    tracer.call("documents.parse_lottery", parse_lottery, text, doc)
                if command in ("join", "meet"):
                    combine = join_random if command == "join" else meet_random
                    side = Side.FIRMS if command == "join" else Side.WORKERS
                    result = combine(info["lotteries"]["x", k], info["lotteries"]["y", k],
                                     info["stable"], side)
                    tracer.call("documents.dump_lottery", dump_lottery, result, info["doc"])
        return values


def _terms(stdout: str) -> list:
    terms = []
    for part in stdout.strip().split(" + "):
        weight, name = part.split()
        terms.append((Fraction(weight), name))
    return terms


def _regroup(gamma, labels) -> list:
    terms: list = []
    for g, name in zip(gamma, labels):
        if terms and terms[-1][1] == name:
            terms[-1] = (terms[-1][0] + g, name)
        else:
            terms.append((g, name))
    return terms
