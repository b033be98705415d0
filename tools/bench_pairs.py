"""Alternating parent/change pairs of the benchmark, with the claim verdict.

    python3 tools/bench_pairs.py PARENT CHANGE --workload numeric-order \
        --seed 611 --pairs 10 --claim ops_per_s

PARENT and CHANGE are two checkouts of the repository.  Each pair runs the
BENCHMARK.json ``command`` with ``--trace 0`` once in each checkout, for
the ``run_seconds`` that BENCHMARK.json fixes, with
``PYTHONDONTWRITEBYTECODE=1`` so that neither side reuses bytecode that an
earlier run wrote.  The side that runs first alternates from pair to pair.

For every end-to-end metric the report gives each side's median and
quartiles and the pairs the change won (ties count for neither side).  The
claimed metric gets the claim verdict: the change wins at least 9 of every
10 pairs, and the medians differ, in the better direction, by more than the
distance between the parent's quartiles.  Every other metric gets the
bound check: the change's median is no worse than the parent's by more than
the metric's relative bound; where the parent's own quartiles lie further
apart than the bound, the check reads "unresolved" unless every change run
is better than every parent run.

Exit status 1 if any run is not ``correct``, else 0.
Stdlib only; nothing is imported from ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values) -> tuple:
    """(lower quartile, median, upper quartile) of one side's runs."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def is_better(x: float, y: float, better: str) -> bool:
    """Whether x is strictly better than y."""
    return x > y if better == "higher" else x < y


def pair_wins(parent, change, better: str) -> int:
    """Pairs (run i of each side) the change won."""
    return sum(is_better(c, p, better) for p, c in zip(parent, change))


def claim_verdict(parent, change, better: str) -> tuple:
    """(holds, gap, parent IQR) for a claimed gain: at least 9/10 of the
    pairs won and a median gap in the better direction that exceeds the
    parent's interquartile range."""
    wins = pair_wins(parent, change, better)
    p_lo, p_med, p_hi = quartiles(parent)
    gap = statistics.median(change) - p_med
    if better == "lower":
        gap = -gap
    iqr = p_hi - p_lo
    return 10 * wins >= 9 * len(parent) and gap > iqr, gap, iqr


def bound_check(parent, change, better: str, bound: float) -> str:
    """"within", "worse" or "unresolved" for a metric with a relative bound
    on how much its median may worsen."""
    p_lo, p_med, p_hi = quartiles(parent)
    c_med = statistics.median(change)
    worse_by = (p_med - c_med if better == "higher" else c_med - p_med) / p_med
    if worse_by > bound:
        return "worse"
    if (p_hi - p_lo) / p_med > bound and not all(
            is_better(c, p, better) for c in change for p in parent):
        return "unresolved"
    return "within"


def run_once(checkout: Path, command, workload: str, seed: int,
             seconds) -> dict:
    """One untraced benchmark run in ``checkout``: its last stdout line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(runs: dict, spec: dict, claim) -> None:
    """Print one line per end-to-end metric."""
    for m in spec["end_to_end"]:
        name, better = m["name"], m["better"]
        side = {k: [r["metrics"][name]["value"] for r in runs[k]]
                for k in ("parent", "change")}
        cells = []
        for k in ("parent", "change"):
            lo, med, hi = quartiles(side[k])
            cells.append(f"{k} {med:.4g} [{lo:.4g}, {hi:.4g}]")
        wins = pair_wins(side["parent"], side["change"], better)
        line = f"{name} ({m['unit']}, {better} is better): " + "; ".join(
            cells) + f"; change won {wins}/{len(side['parent'])}"
        if name == claim:
            ok, gap, iqr = claim_verdict(side["parent"], side["change"],
                                            better)
            line += (f"; claim {'HOLDS' if ok else 'FAILS'} "
                     f"(median gap {gap:.4g}, parent IQR {iqr:.4g})")
        else:
            line += "; bound {:g}: {}".format(m["bound"], bound_check(
                side["parent"], side["change"], better, m["bound"]))
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="the end-to-end metric claimed")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.claim and args.claim not in {m["name"] for m in spec["end_to_end"]}:
        parser.error(f"unknown metric {args.claim!r}")
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            rec = run_once(checkout, spec["command"], args.workload,
                           args.seed, spec["run_seconds"])
            runs[side].append(rec)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in rec["metrics"].items())
            print(f"# pair {i + 1} {side}: correct={rec['correct']} "
                  f"failed={rec['failed']}/{rec['attempted']} {values}",
                  flush=True)
    print(f"{args.workload} seed={args.seed} pairs={args.pairs} "
          f"run_seconds={spec['run_seconds']}")
    report(runs, spec, args.claim)
    if not all(r["correct"] for side in runs.values() for r in side):
        print("error: a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
