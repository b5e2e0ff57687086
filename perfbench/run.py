"""matchlattice benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from ``src/``
(``PYTHONPATH=src``, no install); the ``cli`` workload runs the CLI in
subprocesses the same way.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from harness import Loop, Tracer, count_failed, deciles, peak_rss_mb, run_loop

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
WORKLOADS = ("enumerate", "lottery-split", "lottery-lcm", "cli")


def _load_workload(name: str):
    if name == "enumerate":
        from wl_enumerate import Enumerate
        return Enumerate()
    if name in ("lottery-split", "lottery-lcm"):
        from wl_lottery import Lotteries
        return Lotteries(name)
    from wl_cli import Cli
    return Cli(ROOT)


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _untraced(wl, args):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        state = wl.setup(args.seed, Tracer(False))
        setup_times.append(perf_counter() - start)
    try:
        loop = run_loop(lambda r: wl.round(state, r), Tracer(False), wl.fingerprint,
                        seconds=args.seconds)
        rss = max(peak_rss_mb(), peak_rss_mb(children=True))
        failed = count_failed(loop, lambda op, out: wl.output_ok(state, op, out), wl.fingerprint)
    finally:
        wl.close(state)
    cuts = deciles(loop.latencies)
    values = {
        "ops_per_s": len(loop) / loop.elapsed,
        "op_p50_ms": cuts[4] * 1000,
        "op_p90_ms": cuts[8] * 1000,
        "ok_frac": 1 - failed / len(loop),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    beyond = sum(1 for latency in loop.latencies if latency > cuts[8])
    print(f"{wl.name}: {len(loop)} operations in {loop.elapsed:.2f} s, {beyond} beyond p90; "
          f"setup_s is the median of {SETUP_REPEATS} set-ups")
    return len(loop), failed, values


def _traced(wl, args):
    tracer = Tracer(True)
    state = wl.setup(args.seed, tracer)
    try:
        loop = run_loop(lambda r: wl.round(state, r), Tracer(False), wl.fingerprint,
                        seconds=args.seconds)
        # Tracing overhead: each round once untraced and once traced, in
        # alternating order, after the loop above has warmed the choice
        # memos, so drift in the machine's speed falls on both sides alike.
        plain, traced = Loop(), Loop()
        for r in range(wl.traced_rounds):
            for side, t in ((plain, Tracer(False)), (traced, tracer))[:: 1 if r % 2 else -1]:
                side.extend(run_loop(lambda _: wl.round(state, r), t, wl.fingerprint, rounds=1))
        values = wl.layer_metrics(state, traced, tracer)
        for part in (plain, traced):
            loop.extend(part)
        failed = count_failed(loop, lambda op, out: wl.output_ok(state, op, out), wl.fingerprint)
    finally:
        wl.close(state)
    for name in _declared("per_layer"):
        if name.endswith(".busy_s"):
            values.setdefault(name, tracer.busy(name[: -len(".busy_s")]))
        elif name.endswith(".calls"):
            values.setdefault(name, tracer.calls(name[: -len(".calls")]))
    untraced_rate = len(plain) / plain.elapsed
    traced_rate = len(traced) / traced.elapsed
    values.update({
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_frac": 1 - traced_rate / untraced_rate,
    })
    out = ROOT / ".perfbench" / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(out)
    print(f"{wl.name}: {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    return len(loop), failed, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "matchlattice" / "__init__.py").is_file():
        print(f"error: no matchlattice sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    wl = _load_workload(args.workload)
    section = "per_layer" if args.trace else "end_to_end"
    attempted, failed, values = (_traced if args.trace else _untraced)(wl, args)
    declared = _declared(section)
    unknown = set(values) - set(declared)
    if unknown:
        print(f"error: undeclared metrics {sorted(unknown)}", file=sys.stderr)
        return 2
    if failed:
        print(f"{wl.name}: {failed} of {attempted} operations failed verification",
              file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        # A per-layer metric of a layer this workload never calls reads 0.
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
