#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and the working tree.

    python3 scripts/bench_pairs.py --parent REV --workload W [W ...] \\
        --pairs N --seed S [S ...] [--seconds T] [--work DIR] --out BENCH_<pr>.json

Both sides are exported the same way, with `git archive`: the parent from
REV, the working tree from a tree object written through a temporary
index (every file that is not ignored, as it is on disk). For each
workload and seed, each pair runs `python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0` once in each export, alternating which
side runs first, and parses the last line of its standard output. The
output file holds, per workload and seed and for every end-to-end metric
of BENCHMARK.json, each side's values, median and quartiles, the number
of pairs the change won (ties count for neither), whether the gap between
the medians exceeds the parent's interquartile range and whether the
change stays within the metric's bound; then one `--trace 1` run per side
(first workload and seed) and the environment block each side printed.

Exit status 0 when every run passed its checks, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(treeish: str, dest: Path) -> None:
    """`git archive` of treeish, unpacked into dest."""
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", "--format=tar", treeish], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def worktree_tree(work: Path) -> str:
    """The working tree as a git tree object, staged in a temporary index
    so that the repository's own index is left alone."""
    env = {**os.environ, "GIT_INDEX_FILE": str(work / "worktree.index")}
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def run_bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    env = [json.loads(x[len("environment: "):]) for x in lines if x.startswith("environment: ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(f"{' '.join(cmd)} in {tree} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return {"returncode": proc.returncode, "wall_s": wall, "result": result,
            "environment": env[-1] if env else None}


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(runs: list, spec: dict) -> dict:
    """Per-side summary of one end-to-end metric over the pairs."""
    name, lower = spec["name"], spec["better"] == "lower"
    pairs = [(r["parent"]["result"]["metrics"][name]["value"],
              r["change"]["result"]["metrics"][name]["value"])
             for r in runs if r["parent"]["result"] and r["change"]["result"]]
    if not pairs:
        return {}
    parent = summary([p for p, _ in pairs])
    change = summary([c for _, c in pairs])
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    worse_by = (change["median"] - parent["median"]) / parent["median"]
    if not lower:
        worse_by = -worse_by
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": parent, "change": change,
            "change_wins": wins, "ties": sum(p == c for p, c in pairs), "pairs": len(pairs),
            "change_over_parent": change["median"] / parent["median"],
            "gap_exceeds_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
            "within_bound": worse_by <= spec["bound"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=("ingest", "train_loso", "stream"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--work", help="directory for the two exports (default: a temporary one)")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = Path(args.work or tempfile.mkdtemp(prefix="bench_pairs-")).resolve()
    work.mkdir(parents=True, exist_ok=True)
    trees = {side: work / side for side in SIDES}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
    try:
        parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
        change_tree = worktree_tree(work)
        export(parent_commit, trees["parent"])
        export(change_tree, trees["change"])

        runs = {}
        for workload in args.workload:
            for seed in args.seed:
                key = f"{workload} seed {seed}"
                runs[key] = []
                for i in range(args.pairs):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    pair = {"pair": i, "first": order[0]}
                    for side in order:
                        pair[side] = run_bench(trees[side], workload, seed, args.seconds, 0)
                    runs[key].append(pair)
                    print(f"{key}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        traced = {side: run_bench(trees[side], args.workload[0], args.seed[0], args.seconds, 1)
                  for side in SIDES}
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)

    by_side = {side: [p[side] for pairs in runs.values() for p in pairs] + [traced[side]]
               for side in SIDES}
    everything = by_side["parent"] + by_side["change"]
    doc = {
        "command": sys.argv if argv is None else argv,
        "seconds": args.seconds, "pairs": args.pairs,
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": {"tree": change_tree, "head": git("rev-parse", "HEAD")},
        "environment": {side: next((r["environment"] for r in by_side[side]
                                    if r["environment"]), None) for side in SIDES},
        "failed_runs": sum(r["returncode"] != 0 or r["result"] is None for r in everything),
        "results": {key: {"metrics": {m["name"]: compare(pairs, m) for m in spec["end_to_end"]},
                          "runs": pairs}
                    for key, pairs in runs.items()},
        "traced": {"workload": args.workload[0], "seed": args.seed[0], **traced},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for key, res in doc["results"].items():
        for name, m in res["metrics"].items():
            if m:
                print(f"{key:<20} {name:<18} parent {m['parent']['median']:>12.6g} "
                      f"change {m['change']['median']:>12.6g} "
                      f"({m['change_over_parent']:.3f}x) wins {m['change_wins']}/{m['pairs']}")
    return 0 if doc["failed_runs"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
