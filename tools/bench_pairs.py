"""Alternating parent/change runs of the benchmark, summarised in a
BENCH_<n>.json file, with the standard library only.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload kernel_sweep --seed 5 --pairs 10 --out BENCH_28.json
    python3 tools/bench_pairs.py ... --pairs 0 --trace   # one traced run per side

Run it from the root of a git checkout.  Each side is a clean `git archive`
copy of its commit in a temporary directory, where bench/run.py runs (with
--seconds, 15 by default, and --trace 0) and writes its .bench_out/; the
copies are deleted at the end, so nothing is written in the checkout but
--out.  Pair i runs the parent first for even i and the change first for
odd i.

--out is read if it exists and the entry of (workload, seed) replaced; other
entries and any notes in it are kept.  An entry holds the run order, each
run's correct flag and failed-op count, and for every end-to-end metric of
the change's BENCHMARK.json: both sides' runs, medians, the parent's
quartiles (inclusive method) and their distance, change_vs_parent (the
relative change of the median), the pairs the change won (better by the
metric's direction) and the ties.  --trace adds one traced run per side
under trace_<workload>_seed<seed>, with every per-layer metric.
"""
import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def _git(*args) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _checkout(commit: str, where: Path) -> Path:
    """A clean copy of commit's tree under where."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    where.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(where, filter="data")
    return where


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The JSON summary line of one bench/run.py run in tree."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(parent: list, change: list, better: str, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    pm, cm = statistics.median(parent), statistics.median(change)
    sign = 1 if better == "higher" else -1
    return {"parent_median": pm, "change_median": cm,
            "change_vs_parent": (cm - pm) / pm if pm else None, "bound": bound,
            "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
            "parent_runs": parent, "change_runs": change}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit of the parent side")
    ap.add_argument("--change", required=True, help="commit of the change side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", action="store_true", help="add one traced run per side")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < (0 if args.trace else 2):
        ap.error("--pairs must be at least 2, or 0 with --trace")
    commits = {side: _git("rev-parse", "--short", ref)
               for side, ref in (("parent", args.parent), ("change", args.change))}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: _checkout(commit, Path(tmp) / side) for side, commit in commits.items()}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        order, runs = [], {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                print(f"pair {i + 1}/{args.pairs}: {side} {commits[side]}", file=sys.stderr)
                order.append(side)
                runs[side].append(_run(trees[side], args.workload, args.seed,
                                       args.seconds, False))
        traced = {side: _run(tree, args.workload, args.seed, args.seconds, True)
                  for side, tree in trees.items()} if args.trace else None

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("parent_commit", commits["parent"])
    doc.setdefault("command", f"python3 bench/run.py --workload W --seed S "
                              f"--seconds {args.seconds:g} --trace 0")
    if args.pairs:
        entry = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                 "run_order": order,
                 "correct": {s: [r["correct"] for r in rs] for s, rs in runs.items()},
                 "failed_ops": {s: [r["failed"] for r in rs] for s, rs in runs.items()},
                 "metrics": {m["name"]: _summary([r["metrics"][m["name"]]["value"]
                                                  for r in runs["parent"]],
                                                 [r["metrics"][m["name"]]["value"]
                                                  for r in runs["change"]],
                                                 m["better"], m["bound"])
                             for m in spec["end_to_end"]}}
        doc["workloads"] = [w for w in doc.get("workloads", [])
                            if (w["workload"], w["seed"]) != (args.workload, args.seed)]
        doc["workloads"].append(entry)
    if traced:
        doc[f"trace_{args.workload}_seed{args.seed}"] = {
            "command": f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
                       f"--seconds {args.seconds:g} --trace 1",
            **{side: {k: v["value"] for k, v in run["metrics"].items()}
               for side, run in traced.items()}}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
