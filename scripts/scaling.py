#!/usr/bin/env python3
"""End-to-end scaling curves of the `ordeq` CLI, one child process per op.

    python3 scripts/scaling.py [--out FILE] [--smallest]

Each family writes its own instance files with the standard library (as
`bench/workloads.py` does, so the program only ever reads files), one per
size, and times each of its commands on each file (with `--report`, as
the benchmark runs them) as a `python -m ordeq.cli` child process that
imports `ordeq` from this checkout's `src/`.  A row gives the family, the
size, the command, the bytes of the file read (or written, for `gen`), the
exit code, the last line of stderr if any, the wall time from spawn to
exit, and the child's own peak RSS (its `ru_maxrss`, read by `os.wait4`, so
each op's memory is its own).  A child still running after `TIMEOUT_S`
seconds is killed, and its row is a result with status "timeout"; every
other row is "ok" when the exit code is one the CLI documents (0 to 3), else
"failed".  Each child runs with one BLAS thread (`THREAD_VARS` set to 1), as
`bench/run.py` runs its ops, and under a `MEMORY_CAP` address-space limit,
so a size past the machine's memory fails alone (MemoryError, exit 4).

The families (`FAMILIES`; sizes are element counts of C = D, or k for a k x k
grid game, or |C|,|D|,|U| for `gen_instance`):

- chain, grid: C = D an n-chain or a grid (8 x 8 up to 32 x 64) up to the
  2048-element cap, U an 8-chain, T the binned difference of the ranks of x
  and y; the hypotheses pass at the bottom seed;
- grid_game, grid_game_fg: square k x k grid games, payoff
  (x0 + 2 x1) - (3 y0 + y1) / 2, with F and G omitted and written out in full;
- wide_oracle: two-level C and D (each top above 2 to 6 bottoms), a
  16-element random U, a random T, as in the `wide-oracle` workload;
- generic_game: k x k grid games whose k**4 payoffs are all distinct;
- constant_t: n-chains with a one-element U, so every pair solves;
- gen_instance: unbiased `gen --kind random_instance --filter
  require_hypotheses`, one command per poset kind;
- gen_poset: `gen --kind random_poset` at density 0.35.

`--smallest` runs the first size of each family only (the CI smoke).  The
full run also splits the wall time of a few fixture commands into
interpreter start and exit, `import numpy`, `import ordeq.cli` and the op,
each the median of `SPLIT_REPEATS` runs, once with default BLAS threading
and once with one thread, both importing this checkout's `src/`, and once
more with one thread from a temporary copy of `src/` whose bytecode cache
is compiled in place.  A process with `PYTHONDONTWRITEBYTECODE` set (as the
environment block records) writes no cache, so every import of this
checkout compiles `src/` afresh; the last setting is what that costs.
It writes everything with an environment block to `--out` (default
`BENCH_scaling.json` at the repo root) and exits 1 if a row failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MEMORY_CAP = 3 << 30  # bytes of address space per child
TIMEOUT_S = 120.0  # per child
SPLIT_REPEATS = 11
SPLIT_STAGES = ("interpreter_s", "import_numpy_s", "import_ordeq_cli_s", "op_s", "wall_s")
SPLIT_COMMANDS = {  # label: argv after `python -m ordeq.cli`
    "check i1": ["check", "fixtures/i1_unconstrained.json"],
    "solve --force i2": ["solve", "fixtures/i2_constrained.json", "--force"],
    "enumerate i1": ["enumerate", "fixtures/i1_unconstrained.json"],
    "game 3x3": ["game", "fixtures/game_constrained_3x3.json"],
}
ROEP_COMMANDS = (("check", []), ("solve", ["--force"]), ("enumerate", []))
GAME_COMMANDS = (("check", []), ("game", ["--force"]), ("enumerate", []))
POSET_KINDS = ("chain", "antichain", "boolean_lattice", "grid", "random_poset")


# -- instance documents ----------------------------------------------------------


def _chain(prefix: str, n: int) -> tuple:
    names = [f"{prefix}{i}" for i in range(n)]
    return names, {"elements": names, "edges": [list(e) for e in zip(names, names[1:])],
                   "edge_kind": "hasse"}


def _grid(rows: int, cols: int) -> tuple:
    """The ids the grid shorthand gives, in its order, each with its rank i + j."""
    return [(f"{i},{j}", i + j) for i in range(rows) for j in range(cols)], {"grid": [rows, cols]}


def _roep(xs, x_doc, ys, y_doc, us, u_doc, table) -> dict:
    return {"schema": "roep-instance/1", "mode": "roep",
            "posets": {"X": x_doc, "Y": y_doc, "U": u_doc},
            "C": {"poset": "X", "members": xs}, "D": {"poset": "Y", "members": ys},
            "T": [[x, y, table(a, b)] for a, x in enumerate(xs) for b, y in enumerate(ys)],
            "seed": [xs[0], ys[0]]}


def _ranked(ranked: list, doc: dict) -> dict:
    """A roep instance on C = D = the ranked ids; T(x, y) bins rank(x) - rank(y) into an 8-chain."""
    ids = [e for e, _ in ranked]
    top = max(r for _, r in ranked) + 1
    level = [8 * r // top for _, r in ranked]  # 0 to 7
    us, u_doc = _chain("u", 8)
    return _roep(ids, doc, ids, doc, us, u_doc,
                 lambda a, b: us[(level[a] - level[b] + 8) // 2])


def chain_doc(n: int) -> dict:
    names, doc = _chain("e", n)
    return _ranked(list(zip(names, range(n))), doc)


GRID_EXTENTS = {64: (8, 8), 128: (8, 16), 256: (16, 16), 512: (16, 32), 1024: (32, 32),
                2048: (32, 64)}


def grid_doc(n: int) -> dict:
    return _ranked(*_grid(*GRID_EXTENTS[n]))


def _game(k: int, payoff) -> dict:
    ids = [e for e, _ in _grid(k, k)[0]]
    return {"schema": "roep-instance/1", "mode": "game",
            "posets": {"X": {"grid": [k, k]}, "Y": {"grid": [k, k]}},
            "C": {"poset": "X", "members": ids}, "D": {"poset": "Y", "members": ids},
            "payoff": [[x, y, payoff(divmod(a, k), divmod(b, k), a, b)]
                       for a, x in enumerate(ids) for b, y in enumerate(ids)],
            "seed": [ids[0], ids[0]]}


def grid_game_doc(k: int) -> dict:
    return _game(k, lambda x, y, a, b: f"{2 * (x[0] + 2 * x[1]) - (3 * y[0] + y[1])}/2")


def grid_game_fg_doc(k: int) -> dict:
    doc = grid_game_doc(k)
    ids = doc["C"]["members"]
    doc["F"] = {x: ids for x in ids}
    doc["G"] = {y: ids for y in ids}
    return doc


def generic_game_doc(k: int) -> dict:
    n = k * k
    return _game(k, lambda x, y, a, b: f"{n * a - b}/7")


def _two_level(rng: random.Random, prefix: str, n: int) -> tuple:
    names = [f"{prefix}{i}" for i in range(n)]
    bottom, top = names[:n // 2], names[n // 2:]
    edges = [[b, t] for t in top for b in sorted(rng.sample(bottom, rng.randint(2, 6)))]
    return names, {"elements": names, "edges": edges, "edge_kind": "hasse"}


def wide_oracle_doc(n: int) -> dict:
    rng = random.Random(n)
    xs, x_doc = _two_level(rng, "c", n)
    ys, y_doc = _two_level(rng, "d", n)
    us = [f"u{i}" for i in range(16)]
    order = rng.sample(us, len(us))
    u_edges = [[a, b] for i, a in enumerate(order) for b in order[i + 1:] if rng.random() < 0.25]
    u_doc = {"elements": us, "edges": u_edges, "edge_kind": "hasse"}
    cells = [rng.choice(us) for _ in range(n * n)]
    return _roep(xs, x_doc, ys, y_doc, us, u_doc, lambda a, b: cells[a * n + b])


def constant_t_doc(n: int) -> dict:
    names, doc = _chain("e", n)
    return _roep(names, doc, names, doc, ["u0"], {"elements": ["u0"], "edges": []},
                 lambda a, b: "u0")


def _file_commands(writer, commands):
    def argvs(size, path: Path) -> list:
        path.write_text(json.dumps(writer(size)), encoding="utf-8")
        report = str(path.with_suffix(".report"))
        return [(name, [name, str(path), *extra, "--report", report]) for name, extra in commands]
    return argvs


def _gen_instance(sizes: str, path: Path) -> list:
    return [(f"gen {kind}", ["gen", "--kind", "random_instance", "--seed", "1", "--sizes", sizes,
                             "--filter", "require_hypotheses", "--poset-kind", kind,
                             "-o", str(path)])
            for kind in POSET_KINDS]


def _gen_poset(n: int, path: Path) -> list:
    return [("gen random_poset", ["gen", "--kind", "random_poset", "--seed", "1",
                                  "--sizes", str(n), "-o", str(path)])]


FAMILIES = {  # name: (sizes, (size, path) -> [(command label, argv)]; it writes what it reads)
    "chain": ((64, 128, 256, 512, 1024, 2048), _file_commands(chain_doc, ROEP_COMMANDS)),
    "grid": (tuple(GRID_EXTENTS), _file_commands(grid_doc, ROEP_COMMANDS)),
    "grid_game": ((4, 8, 16, 32), _file_commands(grid_game_doc, GAME_COMMANDS)),
    "grid_game_fg": ((4, 8, 16, 32), _file_commands(grid_game_fg_doc, GAME_COMMANDS)),
    "wide_oracle": ((32, 64, 128, 256), _file_commands(wide_oracle_doc, ROEP_COMMANDS)),
    "generic_game": ((4, 8, 12, 16), _file_commands(generic_game_doc, GAME_COMMANDS)),
    "constant_t": ((64, 128, 256, 512, 1024), _file_commands(constant_t_doc, ROEP_COMMANDS)),
    "gen_instance": (("2,2,4", "4,4,8", "6,6,12"), _gen_instance),
    "gen_poset": ((64, 128, 256, 512, 1024, 2048), _gen_poset),
}


# -- child processes ---------------------------------------------------------------


def _env(pinned: bool, src: Path = SRC) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in THREAD_VARS:
        env.pop(var, None)
        if pinned:
            env[var] = "1"
    return env


def run_child(argv: list, env: dict) -> dict:
    """Run one child to its exit or kill it at the timeout; its wall time and own peak RSS."""
    with tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        child = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL, stderr=err)
        killed = threading.Event()
        timer = threading.Timer(TIMEOUT_S, lambda: (killed.set(), child.kill()))
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
        timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        err.seek(0)
        lines = err.read().decode("utf-8", "replace").strip().splitlines()
    row = {"exit": child.returncode, "wall_s": round(wall, 4),
           "peak_rss_mib": round(usage.ru_maxrss / 1024, 1)}
    if lines:
        row["stderr"] = lines[-1]
    if killed.is_set():
        return {**row, "status": "timeout"}
    return {**row, "status": "ok" if 0 <= child.returncode <= 3 else "failed"}


def _argvs(name: str, size, path: Path) -> list:
    return FAMILIES[name][1](size, path)


def run_families(smallest: bool) -> list:
    rows, cli = [], [sys.executable, "-m", "ordeq.cli"]
    # a child's ru_maxrss is at least this process's peak RSS when it spawns, so each
    # document is built in a fresh process, and this one stays smaller than any op
    writers = multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1)
    with tempfile.TemporaryDirectory() as tmp, writers:
        for name, (sizes, _) in FAMILIES.items():
            for size in sizes[:1] if smallest else sizes:
                path = Path(tmp, f"{name}-{size}.json")
                for command, argv in writers.apply(_argvs, (name, size, path)):
                    row = run_child(cli + argv, _env(pinned=True))
                    row = {"family": name, "size": size, "command": command,
                           "file_bytes": path.stat().st_size if path.exists() else None, **row}
                    print(json.dumps(row), flush=True)
                    rows.append(row)
                    if command.startswith("gen"):  # the file it wrote, if any
                        path.unlink(missing_ok=True)
                path.unlink(missing_ok=True)
                path.with_suffix(".report").unlink(missing_ok=True)
    return rows


SPLIT_CHILD = """
import sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import ordeq.cli
t2 = time.perf_counter()
ordeq.cli.main(sys.argv[1:])
print(t1 - t0, t2 - t1, time.perf_counter() - t2, file=sys.stderr)
"""


def process_split() -> dict:
    """Each fixture command's median wall time and its four stages, per setting.

    The settings are default BLAS threading and one thread, both on this
    checkout's `src/`, and one thread on a copy of `src/` with its bytecode
    compiled.  The child times its imports and the op itself; the
    interpreter's start and exit are the rest of its wall time.
    """
    with tempfile.TemporaryDirectory() as tmp:
        compiled = Path(tmp, "src")
        shutil.copytree(SRC, compiled, ignore=shutil.ignore_patterns("__pycache__"))
        if not compileall.compile_dir(compiled, quiet=1):
            raise SystemExit(f"cannot compile {compiled}")
        settings = {"default_threads": _env(False), "one_thread": _env(True),
                    "one_thread_compiled": _env(True, compiled)}
        runs = {setting: {label: [] for label in SPLIT_COMMANDS} for setting in settings}
        for _ in range(SPLIT_REPEATS):  # interleaved, so a slow spell hits every run
            for setting, env in settings.items():
                for label, argv in SPLIT_COMMANDS.items():
                    row = run_child([sys.executable, "-c", SPLIT_CHILD, *argv], env)
                    if row["status"] != "ok":
                        raise SystemExit(f"{setting} {label}: {row}")
                    stages = [float(t) for t in row["stderr"].split()]
                    runs[setting][label].append([row["wall_s"] - sum(stages), *stages,
                                                 row["wall_s"]])
    out = {setting: {label: dict(zip(SPLIT_STAGES, (round(statistics.median(column), 4)
                                                    for column in zip(*rows))))
                     for label, rows in by_label.items()}
           for setting, by_label in runs.items()}
    print(json.dumps(out), flush=True)
    return out


def environment() -> dict:
    # every child's ru_maxrss is at least this process's peak RSS before numpy below
    runner_mib = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "runner_peak_rss_mib": runner_mib,
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "threads": {v: "1" for v in THREAD_VARS},
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
            "memory_cap_bytes": MEMORY_CAP}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scaling.json")
    parser.add_argument("--smallest", action="store_true", help="the first size of each family")
    args = parser.parse_args(argv)
    # inherited by every child; no preexec_fn, so that subprocess can spawn by vfork
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    rows = run_families(args.smallest)
    doc = {"environment": environment(), "timeout_s": TIMEOUT_S, "rows": rows}
    if not args.smallest:
        doc["process_split"] = process_split()
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    failed = [row for row in rows if row["status"] not in ("ok", "timeout")]
    missing = [name for name in FAMILIES if not any(row["family"] == name for row in rows)]
    for row in failed:
        print(f"failed: {row}", file=sys.stderr)
    if missing:
        print(f"no rows for {missing}", file=sys.stderr)
    return 1 if failed or missing else 0


if __name__ == "__main__":
    sys.exit(main())
