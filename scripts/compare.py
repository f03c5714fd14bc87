#!/usr/bin/env python3
"""Paired benchmark runs of another revision against this checkout.

    python3 scripts/compare.py REV [--workload W] [--pairs N] [--seconds S] [--seed S]

REV's `src/` and `fixtures/` are unpacked with `git archive` into a
temporary directory, so nothing is written into `.git`, beside a copy of
this checkout's `bench/`; `bench/run.py` imports `ordeq` from the `src/`
beside it, so one harness times both trees.  For each workload (`all`, the
default, is every workload of `bench/workloads.py`, one after another), the
script runs `bench/run.py --workload W --seed S --seconds S --trace 0` on
REV's tree and on this checkout in N alternating pairs: REV first in even
pairs, the checkout first in odd ones, each run its own process.

For each end-to-end metric it prints the checkout's wins (pairs where the
checkout reads better, in the direction `BENCHMARK.json` gives; ties count
for neither side), both medians, the change of the median, and REV's
quartiles.  `gain` marks a metric where the checkout wins at least nine
tenths of the pairs and the medians differ by more than REV's interquartile
range; `worse` marks one whose median is worse than REV's by more than the
bound `BENCHMARK.json` fixes.  The raw runs (each run's last stdout line,
with its side and position) go to `BENCH_<REV>.json` at the root.  Exits 1
when any run fails, reads incorrect or counts a failed op.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKOUT = "checkout"


def _tree(rev: str, tmp: Path) -> Path:
    """REV's src/ and fixtures/ beside a copy of this checkout's bench/."""
    tree = tmp / "tree"
    tree.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src", "fixtures"],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    shutil.copytree(ROOT / "bench", tree / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "BENCH_*.json"))
    return tree


def _run(tree: Path, workload: str, args) -> dict:
    """One bench/run.py process on a tree: its last stdout line, or why it gave none."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each tree's own src/
    done = subprocess.run(cmd, cwd=tree, env=env, text=True, capture_output=True,
                          timeout=3 * args.seconds + 600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def _problem(run: dict):
    """Why a run counts against the comparison, or None."""
    if "error" in run:
        return run["error"]
    if not run["correct"] or run["failed"]:
        return f"correct {run['correct']}, {run['failed']} failed ops"
    return None


def _quartiles(xs: list) -> tuple:
    return tuple(statistics.quantiles(xs, n=4)[::2]) if len(xs) > 1 else (xs[0], xs[0])


def _table(rev: str, runs: dict, metrics: dict) -> list:
    """One printed line per end-to-end metric of a workload's pairs."""
    pairs = list(zip(runs[rev], runs[CHECKOUT]))
    lines = [f"  {'metric':18s} {'better':6s} {'wins':>6s} {rev[:12]:>12s} {CHECKOUT:>12s} "
             f"{'change':>8s}  {rev[:12]} q1-q3"]
    for name, spec in metrics.items():
        if not all(name in r["metrics"] for pair in pairs for r in pair):
            continue
        sign = 1 if spec["better"] == "higher" else -1
        was, now = ([r["metrics"][name]["value"] for r in side] for side in zip(*pairs))
        wins = sum(sign * (b - a) > 0 for a, b in zip(was, now))
        m_was, m_now = statistics.median(was), statistics.median(now)
        q1, q3 = _quartiles(was)
        change = (m_now - m_was) / m_was if m_was else 0.0
        marks = []
        if wins >= 0.9 * len(pairs) and sign * (m_now - m_was) > q3 - q1:
            marks.append("gain")
        if -sign * change > spec["bound"]:
            marks.append("worse")
        lines.append(f"  {name:18s} {spec['better']:6s} {wins:>3d}/{len(pairs):<2d} "
                     f"{m_was:12.6g} {m_now:12.6g} {change:+8.1%}  {q1:.6g}-{q3:.6g}  "
                     f"{' '.join(marks)}".rstrip())
    return lines


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rev, ok = args.rev, True
    resolved = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                               f"{rev}^{{commit}}"], check=True, stdout=subprocess.PIPE,
                              text=True).stdout.strip()
    doc = {"rev": rev, "commit": resolved, "seed": args.seed, "seconds": args.seconds,
           "pairs": args.pairs, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {rev: _tree(rev, Path(tmp)), CHECKOUT: ROOT}
        for workload in workloads:
            runs = {rev: [], CHECKOUT: []}
            for k in range(args.pairs):
                for side in (rev, CHECKOUT) if k % 2 == 0 else (CHECKOUT, rev):
                    run = _run(trees[side], workload, args)
                    run["pair"], run["first"] = k, side == (rev if k % 2 == 0 else CHECKOUT)
                    runs[side].append(run)
                    bad = _problem(run)
                    ok = ok and not bad
                    print(f"{workload} pair {k + 1}/{args.pairs} {side}: "
                          f"{bad or 'ops_per_s %.6g' % run['metrics']['ops_per_s']['value']}",
                          file=sys.stderr, flush=True)
            doc["workloads"][workload] = runs
            if not all("metrics" in r for side in runs.values() for r in side):
                print(f"{workload}: a run gave no result")
                continue
            print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s runs, seed {args.seed}, "
                  f"{rev} ({resolved[:12]}) against this checkout")
            print("\n".join(_table(rev, runs, metrics)), flush=True)
    out = ROOT / f"BENCH_{re.sub(r'[^A-Za-z0-9._-]', '_', rev)}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"raw runs in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
