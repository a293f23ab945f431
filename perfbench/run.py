#!/usr/bin/env python3
"""Benchmark of the gazeintent pipeline, driven from outside the package.

    python3 perfbench/run.py --workload {ingest,train_loso,stream,all} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ./src; without
it the command exits with code 2. --trace 0 measures the end-to-end
metrics of one workload; --trace 1 runs the traced suite, which gives the
per-layer metrics of every module. "all" runs each workload in its own
fresh process and prints every result. The last line of standard output
is the result as one JSON object; the full record (environment, sample
counts, notes) goes to .perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "train_loso", "stream")
SETUP_REPEATS = 3


def import_package():
    src = ROOT / "src"
    if not (src / "gazeintent" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'gazeintent'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import gazeintent
    if Path(gazeintent.__file__).resolve().parent != (src / "gazeintent").resolve():
        print(f"error: gazeintent imported from {gazeintent.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------


def run_one(args, work: Path, out_dir: Path) -> int:
    import workloads as wl

    checks = wl.Checks()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import traced
        raw, layers, walls = traced.run(work, args.seed, checks, out_dir, tag)
        metrics = {k: (v, unit, None, "") for k, (v, unit) in raw.items()}
        detail = {"layer_self_s": layers, "job_walls_s": walls,
                  "note": "numerics.tape.retained_mb is computed from tensor sizes "
                          "(node outputs owning their buffer), not measured RSS"}
        inputs = None
    else:
        paths, metrics, detail = wl.E2E[args.workload](work, args.seed, args.seconds, checks)
        metrics["peak_rss_mb"] = (harness.peak_rss_mb(), "MB", 1, "ru_maxrss of this process")
        inputs = harness.sha256_files(paths)
    extra = detail.pop("extra_metrics", {})
    failed_frac = checks.failed / max(checks.attempted, 1)

    for name, (value, unit, n, what) in {**metrics, **extra}.items():
        count = "" if n is None else f"n={n}"
        print(f"{args.workload:<10} {name:<44} {value:>14.6g} {unit:<6} {count:<8} {what}")
    print(f"{args.workload:<10} {'failed_frac':<44} {failed_frac:>14.6g} {'ratio':<6} "
          f"n={checks.attempted:<6} operations that raised or failed a check")
    if args.trace:
        print("self time per layer (s): " + ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
        print(f"tracing overhead: {metrics['trace.overhead_pct'][0]:.1f}% "
              f"(untraced {walls['untraced']:.2f} s, traced {walls['traced']:.2f} s)")
    for note in checks.notes:
        print(f"check failed: {note}")

    env = harness.environment(ROOT, args.seed, inputs)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": {k: {"value": v, "unit": u, "n": n, "what": w}
                          for k, (v, u, n, w) in {**metrics, **extra}.items()},
              "detail": detail, "check_notes": checks.notes}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print("environment: " + json.dumps(env))
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items()}}
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    status = 0
    names = WORKLOADS if not args.trace else WORKLOADS[:1]
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name if not args.trace else "traced"] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)

    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench" / "out"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the package's own temporary files (LOSO checkpoints) stay inside the checkout
    tempfile.tempdir = str(work / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    try:
        return run_one(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
