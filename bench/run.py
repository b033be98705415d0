"""The bosonorder benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload symbolic-order --seed 1 --seconds 30 --trace 0

One client in one process runs the workload's ops one at a time, each
starting when the previous one returns, for --seconds seconds and at least
MIN_SAMPLES ops.  After the timed phase every output is checked against an
independent route (check.py).  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
same figures for people, with the raw (not normalized) timings and the
input profile.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the first
TRACE_ROUNDS rounds of the workload under the tracer (tracing.py), then the
same ops untraced, reports the per-layer metrics and writes every traced
layer to bench/out/.  Timings are normalized to a fixed machine speed
(clock.py).

The package is imported from ../src next to this directory, never from
anywhere else; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

#: Ops each timed run completes at least, so that ten lie above p90.
MIN_SAMPLES = 100
#: Rounds generated per run; the loop cycles through them if it runs dry.
#: Only distinct ops are checked, which bounds the checking time.
ROUNDS = 32
#: Rounds the traced run executes; fixed, so its counts repeat exactly.
TRACE_ROUNDS = 1
#: Fresh processes the set-up time is measured in.
SETUP_PROBES = 5


class OpFailed(Exception):
    """The op raised, or the CLI exited with a non-zero status."""


def execute(op, lib):
    """Run one op; return the CLI's stdout text or the oracle's result."""
    if op.kind in workloads.CLI_KINDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = lib.cli.main(list(op.args))
            except SystemExit as exc:
                status = exc.code
        if status != 0:
            raise OpFailed(f"exit {status}: {err.getvalue().strip()}")
        return out.getvalue()
    weyl = lib.weyl
    if op.kind == "normal_order":
        return weyl.normal_order(weyl.Word(op.args[0]))
    if op.kind == "anti_normal_order":
        return weyl.anti_normal_order(weyl.Word(op.args[0]))
    f = lib.check.symbol_of(op)
    if op.kind == "s_quantize":
        return weyl.s_quantize(f, op.s)
    return weyl.convert_order(f, op.s, op.s_to)


def load_library():
    """Import bosonorder from SRC; refuse any other copy."""
    if not (SRC / "bosonorder" / "__init__.py").is_file():
        raise SystemExit(f"error: no bosonorder sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bosonorder.cli
    import bosonorder.weyl
    import check
    pkg = Path(bosonorder.__file__).resolve().parent
    if pkg != SRC / "bosonorder":
        raise SystemExit(f"error: imported bosonorder from {pkg}, not {SRC}")
    return argparse.Namespace(cli=bosonorder.cli, weyl=bosonorder.weyl,
                              check=check)


def round_length(workload: str) -> int:
    return len(workloads.make_rounds(workload, 0, 1)[0])


def flat_ops(workload: str, seed: int, rounds: int) -> list:
    return [op for rnd in workloads.make_rounds(workload, seed, rounds)
            for op in rnd]


def setup_once(workload: str, seed: int):
    """Import, generate the inputs and warm up; return (library, ops)."""
    lib = load_library()
    ops = flat_ops(workload, seed, ROUNDS)
    for op in [op for rnd in workloads.make_rounds(workload, seed, 2, toy=True)
               for op in rnd]:
        execute(op, lib)
    return lib, ops


def setup_probe(workload: str, seed: int) -> int:
    """Body of one set-up probe process: print raw set-up seconds and the
    median reference kernel time right after it, as JSON."""
    t0 = time.perf_counter()
    setup_once(workload, seed)
    raw = time.perf_counter() - t0
    cal = clock.Calibrator()
    cal.sample(5)
    print(json.dumps({"raw_s": raw,
                      "kernel_s": statistics.median(cal.kernel_s)}))
    return 0


def measure_setup(workload: str, seed: int) -> tuple:
    """Median (normalized, raw) set-up seconds over SETUP_PROBES fresh
    processes, each waited for before the next starts."""
    norm, raw = [], []
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        rec = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(rec["raw_s"])
        norm.append(rec["raw_s"] * clock.NOMINAL_S / rec["kernel_s"])
    return statistics.median(norm), statistics.median(raw)


class Loop:
    """A closed loop over ops, keeping one output per distinct op."""

    def __init__(self, lib, ops, cal: clock.Calibrator, tracer=None):
        self.lib, self.ops, self.cal, self.tracer = lib, ops, cal, tracer
        self.times: list = []      # (op index, t0, t1)
        self.outputs: dict = {}    # op -> first output
        self.errors: list = []     # (op index, message)
        self.repeat_mismatch = 0

    def step(self, i: int) -> None:
        self.cal.maybe_sample()
        idx = i % len(self.ops)
        if self.tracer is not None:
            self.tracer.op_id = i
        op = self.ops[idx]
        t0 = time.perf_counter()
        try:
            out = execute(op, self.lib)
        except Exception as exc:  # an op failure, counted
            t1 = time.perf_counter()
            self.errors.append((idx, f"{type(exc).__name__}: {exc}"))
        else:
            t1 = time.perf_counter()
            if op not in self.outputs:
                self.outputs[op] = out
            elif self.outputs[op] != out:
                self.repeat_mismatch += 1
        self.times.append((idx, t0, t1))

    def run_for(self, seconds: float, min_ops: int, round_len: int) -> None:
        """Run whole rounds until both ``seconds`` and ``min_ops`` are met,
        so every run has the same mix of sizes."""
        start = time.perf_counter()
        i = 0
        while True:
            self.step(i)
            i += 1
            if (i % round_len == 0 and i >= min_ops
                    and time.perf_counter() - start >= seconds):
                break

    def run_all(self) -> None:
        for i in range(len(self.ops)):
            self.step(i)

    def latencies(self) -> tuple:
        """(normalized, raw) latency in seconds of every executed op."""
        norm = [(t1 - t0) * self.cal.scale(t0, t1) for _, t0, t1 in self.times]
        raw = [t1 - t0 for _, t0, t1 in self.times]
        return norm, raw

    def failures(self) -> tuple:
        """(failed executions, failure notes), after checking every output."""
        bad = {op for op, out in self.outputs.items()
               if not self.lib.check.output_ok(op, out)}
        bad_runs = sum(1 for idx, _, _ in self.times if self.ops[idx] in bad)
        notes = [msg for _, msg in self.errors[:3]]
        notes += [f"wrong output: {op}" for op in list(bad)[:3]]
        if self.repeat_mismatch:
            notes.append(f"{self.repeat_mismatch} repeats differed")
        return len(self.errors) + bad_runs + self.repeat_mismatch, notes


def percentiles(values) -> tuple:
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def with_units(values: dict, section: str) -> dict:
    """{name: {"value", "unit"}} for every metric BENCHMARK.json lists in
    ``section``, in its order."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[section]}


def run_timed(args, lib, ops) -> tuple:
    cal = clock.Calibrator()
    cal.sample(3)
    loop = Loop(lib, ops, cal)
    loop.run_for(args.seconds, MIN_SAMPLES, round_length(args.workload))
    cal.sample(3)
    rss = peak_rss_mb()
    setup_norm, setup_raw = measure_setup(args.workload, args.seed)
    norm, raw = loop.latencies()
    t0 = time.perf_counter()
    failed, notes = loop.failures()
    check_s = time.perf_counter() - t0
    p50, p90 = percentiles(norm)
    raw50, raw90 = percentiles(raw)
    n = len(norm)
    metrics = {"ops_per_s": n / sum(norm), "latency_p50_ms": p50 * 1e3,
               "latency_p90_ms": p90 * 1e3, "setup_s": setup_norm,
               "peak_rss_mb": rss}
    executed = [ops[idx] for idx, _, _ in loop.times]
    info = {
        "samples": n, "above_p90": sum(1 for x in norm if x > p90),
        "fail_frac": failed / n,
        "raw": {"ops_per_s": n / sum(raw), "latency_p50_ms": raw50 * 1e3,
                "latency_p90_ms": raw90 * 1e3, "setup_s": setup_raw},
        "kernel_ms_median": statistics.median(cal.kernel_s) * 1e3,
        "check_s": check_s,
        "profile": workloads.profile(executed),
        "notes": notes,
    }
    return n, failed, with_units(metrics, "end_to_end"), info


def coefficient_stats(outputs) -> tuple:
    """(max numerator/denominator bit length, max s-degree) over every
    coefficient in the outputs."""
    bits, degree = 0, -1

    def walk(node):
        nonlocal bits, degree
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            if node and all(isinstance(c, str) for c in node):
                degree = max(degree, len(node) - 1)
                for c in node:
                    num, _, den = c.partition("/")
                    bits = max(bits, abs(int(num)).bit_length(),
                               int(den or 1).bit_length())
            else:
                for v in node:
                    walk(v)

    for out in outputs:
        walk(json.loads(out) if isinstance(out, str) else out.to_json())
    return bits, degree


def run_traced(args, lib, ops) -> tuple:
    from tracing import SPANS, Tracer
    cal = clock.Calibrator()
    cal.sample(3)
    tracer = Tracer()
    traced = Loop(lib, ops, cal, tracer)
    tracer.install()
    try:
        traced.run_all()
    finally:
        tracer.uninstall()
    plain = Loop(lib, ops, cal)
    plain.run_all()
    cal.sample(3)
    traced_norm, traced_raw = traced.latencies()
    plain_norm, plain_raw = plain.latencies()
    failed = traced.failures()[0] + plain.failures()[0]
    failed += sum(1 for op, out in traced.outputs.items()
                  if plain.outputs.get(op) != out)

    # Self times, each span scaled by the normalization of its op.
    scale = {i: cal.scale(t0, t1) for i, (_, t0, t1) in enumerate(traced.times)}
    summary = tracer.summary(scale)
    bits, degree = coefficient_stats(traced.outputs.values())
    op_time = sum(traced_norm)
    rev = summary["series.revert"]
    values = {
        "scalars.spoly_mul.calls": summary["scalars.spoly_mul"]["calls"],
        "scalars.spoly_add.calls": summary["scalars.spoly_add"]["calls"],
        "scalars.coeff_bits_max": bits,
        "scalars.s_degree_max": degree,
        "series.compose_per_revert":
            rev["compose_calls"] / rev["calls"] if rev["calls"] else 0.0,
        "riordan.group_inverse.share":
            summary["riordan.group_inverse"]["total_s"] / op_time,
        "trace_overhead_frac": sum(traced_norm) / sum(plain_norm) - 1,
    }
    for name, _, _ in SPANS:
        values[f"{name}.calls"] = summary[name]["calls"]
        values[f"{name}.self_s"] = summary[name]["self_s"]
    metrics = with_units(values, "per_layer")
    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "ops": len(ops), "python": sys.version.split()[0],
              "traced_s": op_time, "untraced_s": sum(plain_norm),
              "traced_raw_s": sum(traced_raw), "untraced_raw_s": sum(plain_raw),
              "layers": summary, "metrics": values,
              "profile": workloads.profile(ops)}
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    info = {"trace_file": str(path.relative_to(BENCH.parent)),
            "profile": report["profile"]}
    return 2 * len(ops), failed, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if not (BENCH.parent / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    try:
        lib, ops = setup_once(args.workload, args.seed)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.trace:
        ops = ops[:TRACE_ROUNDS * round_length(args.workload)]
        attempted, failed, metrics, info = run_traced(args, lib, ops)
    else:
        attempted, failed, metrics, info = run_timed(args, lib, ops)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={sys.version.split()[0]} attempted={attempted} "
          f"failed={failed} fail_frac={failed / attempted:.4g}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
