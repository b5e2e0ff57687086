"""Self-test of the benchmark: a tiny pass over every workload, then
corrupted outputs that verification must count as failed.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about ten seconds.  Exits 1 on the
first check that does not hold.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from matchlattice import Dominance, Lottery, StableSet  # noqa: E402

from harness import Tracer, count_failed, digest, run_loop  # noqa: E402
from run import _load_workload  # noqa: E402


def _tiny_round(wl, state):
    ops = wl.round(state, 0)
    if wl.name == "enumerate":
        return [op for op in ops if state["inputs"][op.key[0]].product_space <= 10_000]
    if wl.name.startswith("lottery"):
        return ops[: 2 * len(wl.kinds)]  # every kind on both lattices
    return ops


def _corruptions(name, loop):
    """(what, key, corrupted output) for outputs verification must reject."""
    for key, out in loop.first.items():
        kind = loop.ops[key].kind
        if name == "enumerate" and len(out[0]) == 16:
            stable, edges = out
            smaller = StableSet(stable.market, stable.matchings[:-1],
                                tuple(row[:-1] for row in stable.firm_table[:-1]))
            yield "dropped Hasse edge", key, (stable, edges[:-1])
            yield "dropped stable matching", key, (smaller, edges)
        if name.startswith("lottery") and kind.startswith(("join", "meet")) and len(out) > 1:
            (w0, m0), (w1, m1), *rest = out.terms
            nudge = min(w0, w1) / 2
            yield "perturbed weight", key, Lottery(((w0 + nudge, m0), (w1 - nudge, m1), *rest))
        if name.startswith("lottery") and kind.startswith("dominates"):
            flipped = Dominance.INCOMPARABLE if out is not Dominance.INCOMPARABLE else Dominance.EQUAL
            yield "flipped dominance verdict", key, flipped
        if name == "cli" and kind == "cli.refusal":
            yield "wrong exit code on a refusal", key, (0,) + out[1:]
        if name == "cli" and kind == "cli.decompose":
            code, stdout, stderr, written = out
            first = stdout.split()[0]
            wrong = stdout.replace(first, str(Fraction(first) / 2), 1)
            yield "perturbed printed weight", key, (code, wrong, stderr, written)
            yield "wrong exit code", key, (1,) + out[1:]


def _check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAILED: {message}")
        sys.exit(1)


def _no_sources_exit() -> None:
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _check(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py without sources must exit non-zero and print no result")
    print("selftest: no sources -> exit", proc.returncode)


def main() -> int:
    for name in ("enumerate", "lottery-split", "lottery-lcm", "cli"):
        wl = _load_workload(name)
        state = wl.setup(7, Tracer(False))
        try:
            if name == "cli":
                _check(wl.bytecode_warm(), "cli: bytecode cache not warm after set-up")
            ops = _tiny_round(wl, state)
            loop = run_loop(lambda r: ops, Tracer(False), wl.fingerprint, rounds=1)

            def failed(candidate):
                return count_failed(candidate, lambda op, out: wl.output_ok(state, op, out),
                                    wl.fingerprint)

            _check(failed(loop) == 0, f"{name}: clean outputs failed verification")
            caught = 0
            for what, key, out in _corruptions(name, loop):
                # The corrupted output as the first, fully checked one ...
                first = copy.copy(loop)
                first.first = {**loop.first, key: out}
                runs = sum(loop.digests[key].values())
                _check(failed(first) == runs, f"{name}: {what} passed verification")
                # ... and as a later repeat that must match the checked one.
                repeat = copy.copy(loop)
                repeat.digests = {**loop.digests, key: loop.digests[key] + Counter(
                    {digest(out, wl.fingerprint): 1})}
                _check(failed(repeat) == 1, f"{name}: {what} in a repeat passed verification")
                caught += 1
            _check(caught > 0, f"{name}: no output to corrupt")
        finally:
            wl.close(state)
        print(f"selftest: {name}: {len(loop)} operations verified, {caught} corruptions caught")
    _no_sources_exit()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
