"""specsing benchmark: seeded op lists, timed in fresh worker processes,
every output checked against an independent reference.

    python3 bench/run.py --workload kernel_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The lines before it
give every end-to-end metric by name and unit, the workload's traffic
properties, the ROADMAP baseline calls and each failed op.  Every op's
verdict, error, digits, CPU time and RuntimeWarning count is written to
.bench_out/ops-<workload>-<seed>.json, and a traced run's spans to
.bench_out/spans-<workload>-<seed>.json.

Load model: a closed loop, one caller, one process, one compute thread.
A pass is one fresh worker process that imports specsing and runs an op
list, so every pass starts with cold lru_caches, as every CLI invocation
does.  One pass runs the untimed ops (the known-failure ops and the longest
baseline calls) once; then passes of the timed ops (all others) run for
--seconds (at least MIN_REPEATS).  An op's time is the least CPU time it
took in any pass, and cpu_s sums it over the timed ops; norm_cpu_s scales
cpu_s to a fixed host speed measured by the worker's speed probe.  See
README.md for the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3   # extra start-ups per run, so setup_s is a median of several
MIN_REPEATS = 3    # passes of the timed ops, at least

# the speed probe's time (worker.probe, estimated as in end_to_end) that
# norm_cpu_s scales to: about its value on a 2-vCPU VM, so that norm_cpu_s
# reads as seconds there
PROBE_REF_MS = 20.0

E2E_UNITS = {"norm_cpu_s": "s", "cpu_s": "s", "probe_ms": "ms", "wall_s": "s",
             "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
             "pass_frac": "fraction", "fail_frac": "fraction", "acc_min_digits": "digits"}
# the end-to-end metrics of the JSON line (BENCHMARK.json).  Printed only:
# cpu_s and probe_ms, of which norm_cpu_s is made; wall_s, which on a shared
# VM also counts the time the host takes the CPU away; the op percentiles,
# which jump between op kinds as the seed moves costs near a percentile;
# fail_frac, which is 0 once the known defects are fixed (pass_frac carries
# the same count and is never 0)
E2E_EMIT = ("norm_cpu_s", "setup_s", "peak_rss_mb", "pass_frac", "acc_min_digits")

class Worker:
    """One worker process: spawned on construction, start-up timed."""

    def __init__(self, trace: bool):
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("benchmark worker failed to start")

    def run(self, ops) -> dict:
        try:
            self.proc.stdin.write(json.dumps(ops) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        finally:
            self.proc.stdin.close()
            code = self.proc.wait()
            self.proc.stdout.close()
        if code != 0 or not line:
            raise RuntimeError(f"benchmark worker exited with code {code}")
        result = json.loads(line)
        result["setup_s"] = self.setup_s
        return result


def measure(ops, seconds: float, trace: bool):
    """Start-up probes, one pass of the untimed ops, then passes of the
    timed ops: at least MIN_REPEATS, and more while the next one ends within
    `seconds` of the first one's start.  Every timed pass runs the same list,
    so each op's samples come from the same process state (in a pass that
    also ran a large op, later ops would reuse its memory pages).  With
    trace, untraced and traced passes of the whole list alternate instead,
    at least one of each.
    Returns the start-up times and the passes as (indices of the ops run,
    result) pairs, untraced and traced."""
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(Worker(trace=False).run([])["setup_s"])

    def one(indices, use_trace):
        result = Worker(trace=use_trace).run([ops[i] for i in indices])
        setups.append(result["setup_s"])
        return indices, result

    if trace:
        whole = range(len(ops))
        plain, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            plain.append(one(whole, False))
            traced.append(one(whole, True))
        return setups, plain, traced
    timed = [i for i, op in enumerate(ops) if op["timed"]]
    plain = [one([i for i, op in enumerate(ops) if not op["timed"]], False)]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(one(timed, False))
        last = time.perf_counter() - t0
        if len(plain) > MIN_REPEATS and time.perf_counter() - start + last > seconds:
            break
    return setups, plain, []


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _samples(ops, passes, key):
    """Per op, its `key` values (op_cpu_s, out, ...) over the passes that ran it."""
    per_op = [[] for _ in ops]
    for indices, result in passes:
        for j, i in enumerate(indices):
            per_op[i].append(result[key][j])
    return per_op


def evaluate(ops, plain):
    """Per-op verdicts from the first pass that ran the op; the later ones
    must give the same output."""
    outs = _samples(ops, plain, "out")
    errs = _samples(ops, plain, "err")
    warns = _samples(ops, plain, "warnings")
    verdicts = []
    for i, op in enumerate(ops):
        out, err = outs[i][0], errs[i][0]
        # compared as JSON text, where NaN equals NaN
        same = len({json.dumps([o, e]) for o, e in zip(outs[i], errs[i])}) == 1
        passed, error, digits = checks.check(op, out)
        if not same:
            passed, err = False, "output differs between passes"
        verdicts.append({"passed": passed, "error": error, "digits": digits,
                         "exc": err, "warnings": warns[i][0]})
    return verdicts


def end_to_end(ops, setups, plain, verdicts) -> dict:
    """The end-to-end metrics.  An op's time is the least CPU time it took in
    any pass: on a shared host other tenants only ever add time, and the
    least of several cold runs is the estimate they disturb least."""
    per_op = [min(s) * 1e3 for s in _samples(ops, plain, "op_cpu_s")]
    passed = sum(v["passed"] for v in verdicts)
    # ops in known-failure regions sit near a failure threshold, so the ones
    # that pass would make the minimum jump from seed to seed
    digits = [v["digits"] for op, v in zip(ops, verdicts)
              if v["passed"] and v["digits"] is not None and not op["known"]]
    cpu_s = sum(t for op, t in zip(ops, per_op) if op["timed"]) / 1e3
    # the speed probe by the ops' own estimator: per slot between ops, the
    # least over the passes of the timed ops; then the mean over the slots
    timed_passes = [result["probe_s"] for _, result in plain[1:] or plain]
    probe_ms = statistics.mean(min(slot) for slot in zip(*timed_passes)) * 1e3
    return {
        "norm_cpu_s": cpu_s * PROBE_REF_MS / probe_ms,
        "cpu_s": cpu_s,
        "probe_ms": probe_ms,
        "wall_s": sum(result["wall_s"] for _, result in plain[:2]),  # the whole list once
        "op_p50_ms": statistics.median(per_op),
        "op_p90_ms": _percentile(per_op, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(result["rss_mb"] for _, result in plain),
        "pass_frac": passed / len(ops),
        "fail_frac": 1 - passed / len(ops),
        "acc_min_digits": min(digits) if digits else 0.0,
    }, per_op


def per_layer(name, plain, traced) -> tuple:
    """Per-layer metrics: counts from the first traced pass, times as medians
    over the traced passes; the overhead is the median CPU time of the ops in
    a traced pass minus that in an untraced one."""
    reports = [result["trace"]["metrics"] for _, result in traced]
    metrics = {}
    for key in tracer.metric_names():
        vals = [r[key] for r in reports]
        metrics[key] = statistics.median(vals) if key.endswith("self_s") else vals[0]
    metrics["trace.overhead_s"] = (
        statistics.median(sum(result["op_cpu_s"]) for _, result in traced)
        - statistics.median(sum(result["op_cpu_s"]) for _, result in plain))
    metrics["ops.runtime_warnings"] = sum(traced[0][1]["warnings"])
    zero = [k for k in tracer.metric_names()
            if name in tracer.stressed_by(k) and not metrics[k]]
    return metrics, zero


def per_layer_names() -> list:
    """The per-layer metrics of a traced run (BENCHMARK.json's per_layer)."""
    return tracer.metric_names() + ["trace.overhead_s", "ops.runtime_warnings"]


def layer_unit(metric):
    if metric.endswith("self_s") or metric.endswith("overhead_s"):
        return "s"
    if metric.endswith("hit_ratio"):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "specsing" / "__init__.py").is_file():
        print(f"bench: no specsing sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    setups, plain, traced = measure(ops, args.seconds, bool(args.trace))
    verdicts = evaluate(ops, plain)
    e2e, per_op = end_to_end(ops, setups, plain, verdicts)
    unexpected = [i for i, (op, v) in enumerate(zip(ops, verdicts))
                  if not v["passed"] and not op["known"]]

    traffic = workloads.traffic(ops)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}"
          f"{f' (+{len(traced)} traced)' if traced else ' (1 untimed)'}  ops {len(ops)}")
    print(f"  why: {workloads.WHY[args.workload]}")
    print(f"  mix: {json.dumps(traffic['mix'])}")
    print(f"  reuse_share {traffic['reuse_share']:.3f}  "
          f"known_failure_share {traffic['known_failure_share']:.3f}")
    print(f"  runtime_warnings {sum(v['warnings'] for v in verdicts)}  "
          f"ops {len(ops)}, each timed op run in {len(plain) - (0 if traced else 1)} passes")
    for key, val in e2e.items():
        print(f"  {key:16s} {val:14.6g} {E2E_UNITS[key]}")
    for i, op in enumerate(ops):
        if op.get("baseline"):
            call = ", ".join(f"{k}={v}" for k, v in op["args"].items())
            print(f"  baseline {op['kind']}({call}) {per_op[i]:.2f} ms")
    for i in sorted(range(len(ops)), key=lambda i: -per_op[i])[:5]:
        print(f"  slow #{i} {ops[i]['kind']} {json.dumps(ops[i]['args'])}: {per_op[i]:.1f} ms")
    for i, (op, v) in enumerate(zip(ops, verdicts)):
        if not v["passed"]:
            tag = "known" if op["known"] else "UNEXPECTED"
            err = v["exc"] or (f"error {v['error']:.2e}" if v["error"] is not None
                               else "non-finite output")
            print(f"  fail[{tag}] #{i} {op['kind']} {json.dumps(op['args'])}: {err}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    records = [dict(op, cpu_ms=per_op[i], **verdicts[i]) for i, op in enumerate(ops)]
    with open(out_dir / f"ops-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump(records, fh)
    if traced:
        metrics, zero = per_layer(args.workload, plain, traced)
        for key in zero:
            print(f"  trace: {key} is zero on its stressing workload", file=sys.stderr)
        spans = [s for _, result in traced for s in result["trace"]["spans"]]
        with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(spans, fh)
        print(f"  trace overhead {metrics['trace.overhead_s']:.3f} s; "
              f"{len(zero)} stressed metrics at zero")
        emitted = {k: {"value": metrics[k], "unit": layer_unit(k)} for k in per_layer_names()}
    else:
        emitted = {k: {"value": e2e[k], "unit": E2E_UNITS[k]} for k in E2E_EMIT}
    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": sum(not v["passed"] for v in verdicts),
                      "metrics": emitted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
