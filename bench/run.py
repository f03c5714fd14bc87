#!/usr/bin/env python3
"""Benchmark of the `ordeq` command line, one workload per process.

    python3 bench/run.py --workload grid-game --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --out bench/BENCH_x.json

Each op is one `ordeq` command on one generated instance file, run through
`ordeq.cli.main(argv)` in this process: the whole code path of an `ordeq`
process except interpreter start-up.  The loop is closed (one client; the
next op starts when the last one ends) and lasts `--seconds`, and at least
until every command has MIN_SAMPLES samples.  Every op's exit code and
report are checked against the independent reference in `reference.py`,
outside the timed region.  Times are in reference-speed seconds, scaled by
the calibration slices of `calibration.py` that run between the ops.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs a fixed op list
(the first TRACE_INSTANCES instances) with spans from `tracing.py` and prints
the per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".bench_work"

MIN_SAMPLES = 100  # p90 needs ten samples beyond it
TRACE_INSTANCES = 32
OP_TIMEOUT_S = 20.0
RUN_CAP_S = 120.0  # stop starting ops after this, to exit well inside 180 s
IMPORT_SAMPLES = 7
WRITE_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(HERE))
from calibration import REFERENCE_S, scaled, scaled_ops, slice_seconds  # noqa: E402
from reference import Instance, expected, witness_ok  # noqa: E402
from tracing import Tracer, replay  # noqa: E402
from workloads import WORKLOADS, argv, gen_specs, write_instances  # noqa: E402


class OpTimeout(BaseException):
    """Raised by the alarm inside an op; not an Exception, so `main` cannot catch it."""


def _alarm(signum, frame):
    raise OpTimeout


def run_op(cli, args: list) -> tuple:
    """(exit code or None on timeout, start, end, stderr text) of one `ordeq` op."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(args)
            except OpTimeout:
                code = None
            end = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, start, end, err.getvalue()


# -- checks against the reference ----------------------------------------------


def _pair(p) -> tuple:
    return tuple(p) if p else None


def _report(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def check_op(command, code, err, out_path, inst, exp, gen_outcome=None):
    """None when the op's outcome matches the reference, else what differs.

    `out_path` is the `--report` file, or the `-o` file of `gen`.
    """
    if code is None:
        return f"timed out after {OP_TIMEOUT_S} s"
    if command == "gen":
        return _check_gen(code, err, out_path, gen_outcome)
    if command == "check":
        want = 0 if exp["passes"] else 2
    elif command == "enumerate":
        want = 0 if exp["solutions"] else 3
    elif command == "game" and not exp["passes"]:
        want = 2
    else:
        want = 0 if exp["maximal_above"] else 3
    if code != want:
        return f"exit {code}, reference expects {want}: {err.strip()[:200]}"
    doc = _report(out_path)
    if code in (2, 3) and command in ("solve", "game"):
        return None  # these exits write no report
    if doc is None or doc.get("exit_code") != code:
        return "report missing or with another exit code"
    if command == "check":
        hyp = doc["hypotheses"]
        for key, ref in (("phi_increasing_upward", "phi_up"), ("psi_increasing_upward", "psi_up"),
                         ("seed_condition", "seed_condition"), ("passes", "passes")):
            if hyp[key] != exp[ref]:
                return f"hypotheses.{key} is {hyp[key]}, reference says {exp[ref]}"
        if (hyp["seed_witness"] is not None) != exp["seed_condition"] or (
                hyp["seed_witness"] and not witness_ok(inst, hyp["seed_witness"])):
            return f"bad seed witness {hyp['seed_witness']}"
        return None
    if {_pair(s) for s in doc["solutions"]} != exp["solutions"]:
        return f"solution set of {len(doc['solutions'])} pairs differs from the reference's " \
               f"{len(exp['solutions'])}"
    if command == "enumerate":
        return None
    if _pair(doc["solution"]) not in exp["maximal_above"]:
        return f"solution {doc['solution']} is not a maximal solution above the seed"
    if command == "game":
        value = inst.payoff[inst.index(doc["solution"])]
        if Fraction(doc["game_value"]) != value:
            return f"game value {doc['game_value']} differs from the payoff {value}"
    return None


def _check_gen(code, err, out_path: Path, outcome: dict):
    """gen writes an instance that passes the reference check, or exits 1 exhausted.

    The same spec must give the same outcome every time it runs in a run.
    """
    if code == 1:
        if "FilterExhausted" not in err:
            return f"exit 1 without FilterExhausted: {err.strip()[:200]}"
        seen = "exhausted"
    elif code == 0:
        try:
            data = out_path.read_bytes()
            inst = Instance(json.loads(data))
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable gen output: {exc!r}"
        if inst.seed is None or not expected(inst)["passes"]:
            return "gen output fails the hypotheses at its recorded seed"
        if len(inst.unames) != 12 or len(inst.cnames) > 6 or len(inst.dnames) > 6:
            return "gen output has the wrong sizes"
        seen = hashlib.sha256(data).hexdigest()
    else:
        return f"exit {code}: {err.strip()[:200]}"
    if outcome.setdefault("first", seen) != seen:
        return "gen gave another outcome for the same spec"
    return None


# -- set-up -------------------------------------------------------------------------


def time_imports(env: dict) -> list:
    """Reference-speed seconds `import ordeq` takes in fresh interpreters.

    Interpreter start-up is excluded; a calibration slice runs just before
    and just after the import, after three warm-up slices.
    """
    probe = ("import sys, time; sys.path.insert(0, sys.argv[2]); "
             "from calibration import slice_seconds as cal; [cal() for _ in range(3)]; "
             "before = cal(); sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import ordeq; took = time.perf_counter() - t; print(took, before, cal())")
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", probe, str(SRC), str(HERE)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        took, before, after = map(float, done.stdout.split())
        times.append(scaled(took, (before, after)))
    return times


def write_files(workload: str, seed: int, work: Path) -> tuple:
    """Write the instance files WRITE_SAMPLES times.

    Returns (paths, reference-speed seconds of each write, identical?).
    """
    times, copies, paths = [], [], None
    for k in range(WRITE_SAMPLES):
        before = slice_seconds()
        start = time.perf_counter()
        written = write_instances(workload, seed, work / f"files{k}")
        took = time.perf_counter() - start
        times.append(scaled(took, (before, slice_seconds())))
        copies.append([p.read_bytes() for p in written])
        paths = paths or written
    for k in range(1, WRITE_SAMPLES):
        shutil.rmtree(work / f"files{k}")
    return paths, times, all(c == copies[0] for c in copies)


def self_check(cli, work: Path) -> list:
    """The reference against the committed fixtures; returns the problems found."""
    problems = []
    fx = FIXTURES / "game_constrained_3x3.json"
    want = json.loads((FIXTURES / "game_constrained_3x3.expected.json").read_text())
    inst = Instance(json.loads(fx.read_text()))
    exp = expected(inst)
    if exp["solutions"] != {tuple(s) for s in want["solutions"]}:
        problems.append(f"reference solution set differs from {fx.name}'s expected file")
    if exp["maximal_above"] != {tuple(want["equilibrium"])}:
        problems.append(f"reference equilibrium differs from {fx.name}'s expected file")
    if inst.payoff[inst.index(want["equilibrium"])] != Fraction(want["value"]):
        problems.append(f"reference game value differs from {fx.name}'s expected file")
    report = work / "fixture-report.json"
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("schema") != "roep-instance/1":
            continue
        sols = expected(Instance(doc))["solutions"]
        code, _, _, _ = run_op(cli, ["enumerate", str(path), "--report", str(report)])
        got = _report(report) if code in (0, 3) else None
        if code != (0 if sols else 3) or got is None or {
                _pair(s) for s in got["solutions"]} != sols:
            problems.append(f"ordeq enumerate disagrees with the reference on {path.name}")
        report.unlink(missing_ok=True)
    return problems


# -- the measured loop ---------------------------------------------------------------


def schedule(commands: tuple, instances: int):
    """(instance, command) pairs, cycling through the instances."""
    while True:
        for k in range(instances):
            for command in commands:
                yield k, command


def measure(cli, ordeq, wl, paths, refs, specs, work, seconds, tracer):
    """Run the closed loop.

    Returns (latencies per command in reference-speed seconds, failures,
    traced extras, calibration slices).  A slice runs before the first op
    and after every op, and each latency is scaled by the slices around it
    (`calibration.scaled_ops`).
    """
    report = work / "report.json"
    gen_out = work / "gen-out.json"
    gen_outcomes = [dict() for _ in specs]
    failures = []
    measured = {c: [] for c in wl.commands}  # (seconds, index of the slice before)
    slices = [slice_seconds()]
    traced = {"untraced_s": 0.0, "span_s": 0.0, "replay_s": 0.0, "replay_errors": 0}
    start = time.perf_counter()
    limit = TRACE_INSTANCES * len(wl.commands) if tracer else None

    def timed(op, k, command, trace_it):
        elapsed = one(op, k, command, trace_it)
        if not trace_it:
            measured[command].append((elapsed, len(slices) - 1))
        slices.append(slice_seconds())

    def one(op, k, command, trace_it):
        path = gen_out if command == "gen" else paths[k]
        args = argv(command, str(path), str(report), specs[k] if command == "gen" else None)
        report.unlink(missing_ok=True)
        if command == "gen":
            gen_out.unlink(missing_ok=True)
        code, t0, t1, err = run_op(cli, args)
        inst, exp = refs[k]
        try:
            problem = check_op(command, code, err, gen_out if command == "gen" else report,
                               inst, exp, gen_outcomes[k] if command == "gen" else None)
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"malformed report: {exc!r}"
        if problem:
            failures.append({"instance": paths[k].name, "op": " ".join(["ordeq", *args]),
                             "problem": problem})
        if not trace_it:
            if tracer:
                traced["untraced_s"] += t1 - t0
            return t1 - t0
        sid = tracer.add(f"cli.{command}", t0, t1, op)
        r0 = time.perf_counter()
        try:
            replay(ordeq, tracer, op, sid, command, str(path), specs[k])
        except Exception as exc:  # noqa: BLE001 - a replay error skips spans, not the op
            traced["replay_errors"] += 1
            if traced["replay_errors"] <= 3:
                print(f"replay error on {paths[k].name} {command}: {exc!r}", file=sys.stderr)
        traced["span_s"] += t1 - t0
        traced["replay_s"] += time.perf_counter() - r0
        return t1 - t0

    for op, (k, command) in enumerate(schedule(wl.commands, len(paths))):
        now = time.perf_counter() - start
        if tracer:
            if op >= limit or now > RUN_CAP_S:
                break
            # alternate which copy runs first, so warm-cache effects cancel
            for trace_it in ((False, True) if op % 2 == 0 else (True, False)):
                timed(op, k, command, trace_it)
            continue
        enough = min(len(v) for v in measured.values()) >= MIN_SAMPLES
        if (now >= seconds and enough) or now > RUN_CAP_S:
            break
        timed(op, k, command, False)
    latencies = {c: scaled_ops(ops, slices) for c, ops in measured.items()}
    return latencies, failures, traced, slices


# -- output --------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def end_to_end(wl, latencies, setup_s) -> dict:
    """name -> (value, unit, sample count or None); timings at reference speed."""
    solve = "game" if "game" in wl.commands else "solve"
    out = {"setup_s": (setup_s, "s", None)}
    for label, command in (("check_s", "check"), ("solve_s", solve), ("enumerate_s", "enumerate")):
        xs = latencies[command]
        out[f"{label}.p50"] = (statistics.median(xs), "s", len(xs))
        out[f"{label}.p90"] = (statistics.quantiles(xs, n=10)[-1], "s", len(xs))
    every = [x for xs in latencies.values() for x in xs]
    out["ops_per_s"] = (len(every) / sum(every), "1/s", len(every))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", None)
    return out


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    for var in THREAD_VARS:
        os.environ[var] = "1"  # single-threaded ops, also on small machines
    sys.path.insert(0, str(SRC))
    import ordeq
    from ordeq import cli

    if Path(ordeq.__file__).resolve().parent != SRC / "ordeq":
        print(f"error: imported ordeq from {ordeq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        import_times = time_imports(dict(os.environ))
        paths, write_times, identical = write_files(wl.name, args.seed, work)
        setup_s = statistics.median(import_times) + statistics.median(write_times)
        problems = self_check(cli, work)
        if not identical:
            problems.append("the same seed wrote instance files that are not byte-identical")
        refs = []
        for path in paths:
            inst = Instance(json.loads(path.read_text(encoding="utf-8")))
            refs.append((inst, expected(inst)))
        specs = gen_specs(args.seed, wl.instances) if "gen" in wl.commands else [None] * len(paths)
        tracer = Tracer() if args.trace else None
        gc.collect()
        started = time.perf_counter()
        latencies, failures, traced, slices = measure(cli, ordeq, wl, paths, refs, specs, work,
                                                      args.seconds, tracer)
        wall = time.perf_counter() - started
        factor = REFERENCE_S / statistics.median(slices)
        e2e = end_to_end(wl, latencies, setup_s) if not tracer else None
        if tracer:
            tracer.write(WORK / f"trace-{wl.name}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a traced run checks both copies of each op
    attempted = sum(len(v) for v in latencies.values()) * (2 if tracer else 1)
    print(f"workload {wl.name} seed {args.seed}: {attempted} ops in {wall:.1f} s, "
          f"{len(failures)} failed, trace {args.trace}")
    print(f"  ops: {', '.join(f'{c} x{len(v)}' for c, v in latencies.items())}")
    for problem in problems:
        print(f"  SELF-CHECK FAILED: {problem}")
    for f in failures:
        print(f"  FAILED {f['instance']}: {f['op']}: {f['problem']}")
    print(f"  fail_frac = {len(failures) / attempted:.4f} ratio ({len(failures)}/{attempted})")
    print(f"  timings are in reference-speed seconds: calibration slices took "
          f"{statistics.median(slices) * 1e3:.4f} ms (median of {len(slices)}) against "
          f"{REFERENCE_S * 1e3:g} ms at reference speed")
    if tracer:
        # spans are scaled by the run's median slice; ops by the slices around each
        metrics = {k: (v * factor if u == "s" else v, u, None)
                   for k, (v, u) in tracer.metrics().items()}
        span_over = traced["span_s"] / traced["untraced_s"] - 1
        run_over = (traced["span_s"] + traced["replay_s"]) / traced["untraced_s"] - 1
        print(f"  tracing overhead: cli spans {span_over:+.1%} against the same ops untraced; "
              f"a traced op (span plus replay) costs {run_over:+.1%} more; "
              f"{traced['replay_errors']} replay errors")
        extra = {"span_overhead_frac": span_over, "traced_op_overhead_frac": run_over,
                 "replay_errors": traced["replay_errors"]}
    else:
        metrics = e2e
        print(f"  setup: import {statistics.median(import_times):.4f} s (median of "
              f"{IMPORT_SAMPLES}), instance files {statistics.median(write_times):.4f} s "
              f"(median of {WRITE_SAMPLES})")
        extra = {"import_s": import_times, "write_s": write_times}
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:32s} = {value:.6g} {unit}" + (f"  (n={n})" if n else ""))

    if args.out:
        detail = {
            "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": {c: len(v) for c, v in latencies.items()},
            "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
            "fail_frac": len(failures) / attempted, "failures": failures,
            "self_check_problems": problems, "environment": environment(),
            "calibration_median_s": statistics.median(slices), **extra,
        }
        Path(args.out).write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    WORK.mkdir(exist_ok=True)
    results, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            out = WORK / f"all-{name}-trace{trace}-pid{os.getpid()}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out)]
            done = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True, timeout=900)
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            results.setdefault(name, {})["trace" if trace else "end_to_end"] = json.loads(
                out.read_text(encoding="utf-8"))
            out.unlink()
            ok = ok and json.loads(done.stdout.splitlines()[-1])["correct"]
    if args.out:
        doc = {"seed": args.seed, "seconds": args.seconds,
               "environment": results[next(iter(WORKLOADS))]["end_to_end"]["environment"],
               "workloads": results}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    attempted = sum(r["end_to_end"]["ops"][c] for r in results.values()
                    for c in r["end_to_end"]["ops"])
    failed = sum(len(r["end_to_end"]["failures"]) for r in results.values())
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {f"{w}/{k}": {"value": m["value"], "unit": m["unit"]}
                    for w, r in results.items() for k, m in r["end_to_end"]["metrics"].items()},
    }))
    return 0


def main(argv_=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write a detailed JSON result here")
    args = parser.parse_args(argv_)
    if sys.flags.optimize:
        print("error: refusing to run under python -O: it strips the program's asserts, "
              "so the numbers would measure a different program", file=sys.stderr)
        return 2
    missing = [p for p in (SRC / "ordeq" / "cli.py", FIXTURES) if not p.exists()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {missing}",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
