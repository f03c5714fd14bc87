#!/usr/bin/env python3
"""Check that the `ordeq` CLI gives the same outputs as at another revision.

    python3 scripts/same_outputs.py REV

REV's `src/` is unpacked into a temporary directory with `git archive`, so
nothing is written into `.git`.  The `src/` of this checkout and the `src/`
of REV then each run, in one process per tree, the same list of
`ordeq.cli.main` calls on the same input files:

- every file under `fixtures/` under `validate`, `check`, `solve --force`,
  `solve --minimal --force`, `enumerate`, `game` and `game --force`, and an
  instance file also under `solve --minimal --force` seeded at the last
  members of its C and D, so a descending climb writes a report;
- every instance fixture under `check`, `solve --force` and `game --force`
  with `--seed` at the first members of its C and D and with `--seed q:q`
  (no member), and a roep fixture also under `game` seeded at the first
  members, so a seed is parsed by each op and the mode refusal is compared
  with a seed given;
- a few edge-case posets (`EDGE_CASES`: cycles, self-loops, repeated edges,
  no edges) as poset documents under `validate`, and as the X poset of the
  `i1` fixture under `validate` and `check`, so a cycle's refusal text is
  compared too;
- the 2x2 game fixture with its first payoff written in each spelling of
  `PAYOFF_SPELLINGS` (the accepted ones also all at once, one a cell, and
  every payoff as a JSON int), under `validate`, `check`, `game --force`
  and `enumerate`, so both the plain-integer reading and Fraction's own
  parser are compared, refusals included, and so are values that round to
  one float (1/3 and the float nearest it) or lie past the largest float;
- grid games of k x k strategies each (`GENERIC_GAME_SIZES`, written by
  `generic_game_doc` of `scripts/scaling.py`) whose payoffs are all
  distinct, so that |U| = k**4, under `validate`, `check`, `game --force`
  and `enumerate`;
- the `i2` fixture and the 2x2 game fixture with a malformed F table
  (`MALFORMED_F`: an entry missing, empty, stray or outside the domain, a
  value that is no list) or seed (`MALFORMED_SEEDS`: an unknown C or D
  member, a non-string) under `validate` and `check`, so a refusal's words
  are compared too;
- the same two fixtures with a missing pair or more than one fault in
  their `T` or `payoff` rows (`ROW_FAULTS`: one pair missing, rows
  reversed, reversed with two bad values, a hole before a bad value, a
  malformed row after a bad value), or with an empty C or D, under
  `validate` and `check`, so a missing pair's words and the order in which
  faults are refused are compared too; and `i2` with its first `T` value
  in each refused spelling of `T_SPELLINGS` (JSON `true`, `null`, an
  integer, a float, a list, an object, an id of X), under the same two;
- generated roep files of `LARGE_ROEP_SIDE` x `LARGE_ROEP_SIDE` T rows,
  with F and G written out and with them omitted, under `validate`,
  `check`, `solve --force` and `enumerate`: enough rows that the cyclic
  collector, when it is on, runs during the parse;
- the seed-1 instance files of every benchmark workload (written by
  `bench/workloads.py`, which is imported and not changed) under
  `validate`, each of the workload's commands, and `solve --minimal
  --force` seeded at the last members of C and D, as for the fixtures;
- the 256 seed-1 `small-batch` `gen` specs;
- `gen` runs outside them, on the draws an instance side never makes or
  that the hypothesis filter hides: `--kind random_poset` at
  `GEN_POSET_SIZES` with each density of `GEN_DENSITIES`, every other
  poset kind at `GEN_POSET_KIND_SIZES` (one element or the fewest, a
  middle size, and 2048, the cap), and `--filter none` random instances
  at `GEN_INSTANCE_SIZES` for every poset kind, with and without
  `--monotone-bias`.

Each run is hashed over its exit code, stdout, stderr, the `--report`
document without `elapsed_seconds`, and the file `gen` writes; and hashed
again with the instance digest masked: the hex after `digest=` on stdout,
and the report's `instance_digest` and `schema`.  The script prints the
number of runs, then every run that differs, marked when it differs only
in those digest fields, with both sides' exit code and the start of their
stdout and stderr, then the number of differences, split into digest-only
and all others; it exits 1 on any difference.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_COMMANDS = ("validate", "check", "solve --force", "solve --minimal --force",
                    "enumerate", "game", "game --force")
SEEDED_COMMANDS = ("check", "solve --force", "game --force")
REPORT, WRITTEN = "report.json", "written.json"
DIGEST_FIELDS = ("instance_digest", "schema")  # the report fields a digest-only change may move
EDGE_CASES = {  # name: (elements, edges); i1's C members c0 and c1 are in each
    "two-cycle": (["c0", "c1"], [["c0", "c1"], ["c1", "c0"]]),
    "cycle-with-tail": (["c0", "c1", "c2", "c3"],
                        [["c3", "c2"], ["c2", "c0"], ["c0", "c1"], ["c1", "c2"]]),
    "cycle-after-acyclic-part": (["c0", "c1", "c2", "c3", "c4"],
                                 [["c0", "c1"], ["c1", "c2"], ["c3", "c4"], ["c4", "c3"]]),
    "self-loops-and-repeats": (["c0", "c1", "c2"], [["c0", "c0"], ["c0", "c1"], ["c0", "c1"],
                                                    ["c1", "c2"], ["c2", "c2"]]),
    "no-edges": (["c0", "c1", "c2"], []),
}

PAYOFF_COMMANDS = ("validate", "check", "game --force", "enumerate")
PAYOFF_SPELLINGS = {  # name: a payoff value; the first eight are refused
    "zero-denominator": "1/0", "spaced-slash": "1 / 2", "signed-denominator": "1/-2",
    "huge-exponent": "1e5000", "bool": True, "float": 1.5, "null": None, "list": [1],
    "half": "1/2", "two-quarters": "2/4", "leading-space": " 1/2", "plus": "+1",
    "underscore": "1_0", "decimal": "0.5", "bare-decimal": ".5", "trailing-point": "1.",
    "exponent": "1e2", "minus-zero": "-0", "newline": "1\n", "arabic-indic": "\u0661/\u0662",
    # 1/3 and the float nearest it, below it; past 2**1024, as a string and a JSON int
    "third": "1/3", "third-as-float": "6004799503160661/18014398509481984",
    "past-floats": str(2 ** 1024 + 1), "past-floats-negative": -(2 ** 1024 + 1),
}

GENERIC_GAME_SIZES = (6, 7, 8)  # k: 1296, 2401 and 4096 distinct payoffs

MALFORMED_COMMANDS = ("validate", "check")
MALFORMED_F = {  # name: the F table from C's and D's member lists
    "F-missing": lambda cs, ds: {x: [ds[0]] for x in cs[1:]},
    "F-empty": lambda cs, ds: {x: [ds[0]] if k else [] for k, x in enumerate(cs)},
    "F-stray": lambda cs, ds: {x: [ds[0]] if k else [ds[0], "zz"] for k, x in enumerate(cs)},
    "F-outside": lambda cs, ds: {**{x: [ds[0]] for x in cs}, "q": [ds[0]]},
    "F-non-list": lambda cs, ds: {x: [ds[0]] if k else ds[0] for k, x in enumerate(cs)},
}
MALFORMED_SEEDS = {  # name: the seed from C's and D's member lists
    "seed-C-unknown": lambda cs, ds: ["q", ds[0]],
    "seed-D-unknown": lambda cs, ds: [cs[0], "q"],
    "seed-non-string": lambda cs, ds: [cs[0], 5],
}

ROW_FAULTS = {  # name: the T or payoff rows, from the fixture's, which run over C x D in order
    "hole": lambda rows: rows[:1] + rows[2:],
    "rows-reversed": lambda rows: rows[::-1],
    "reversed-two-bad": lambda rows: _bad(rows, 0, len(rows) - 1)[::-1],
    "hole-and-bad": lambda rows: [r for k, r in enumerate(_bad(rows, 2)) if k != 1],
    "malformed-after-bad": lambda rows: _bad(rows, 0) + [rows[0][:2]],
}

T_SPELLINGS = {  # name: i2's first T value; no id of U, so each is refused
    "T-true": True, "T-null": None, "T-int": 1, "T-float": 1.5, "T-list": [1], "T-object": {},
    "T-X-id": "c0",
}


LARGE_ROEP_SIDE = 128  # |C| = |D|: 16 384 T rows
LARGE_ROEP_COMMANDS = ("validate", "check", "solve --force", "enumerate")

GEN_SEEDS = (1, 2, 2 ** 40 + 3)
GEN_POSET_SIZES = (1, 7, 23, 40)  # random posets, up to past sample's pool method at 21
GEN_DENSITIES = ("0", "0.35", "1")
GEN_POSET_KIND_SIZES = {  # kind: sizes; no seed changes these, so they run at the first
    "chain": ("1", "100", "2048"), "antichain": ("1", "100", "2048"),
    "grid": ("1", "3,4,5", "32,64"), "boolean_lattice": ("1", "6", "11"),
}
GEN_INSTANCE_SIZES = ("1,1,1", "3,4,5", "6,5,11")  # within gen_instance's caps (6, 6, 12)


def _bad(rows: list, *positions) -> list:
    """The rows, the value at each given position k now "qk": no id of U and no rational."""
    return [[x, y, f"q{k}" if k in positions else v] for k, (x, y, v) in enumerate(rows)]


def _command_jobs(path: Path, commands) -> list:
    """(name, argv) of each command on one file, each but validate writing a report."""
    return [(f"{path.name} {command}",
             [*command.split()[:1], str(path), *command.split()[1:],
              *([] if command == "validate" else ["--report", REPORT])])
            for command in commands]


def _payoff_jobs(inputs: Path) -> list:
    """The 2x2 game fixture with payoffs in the spellings the benchmark never writes."""
    base = json.loads((ROOT / "fixtures" / "game_additive_2x2.json").read_text(encoding="utf-8"))
    accepted = list(PAYOFF_SPELLINGS.values())[8:]
    tables = {name: [value] for name, value in PAYOFF_SPELLINGS.items()}
    tables["all-accepted"] = accepted
    tables["json-ints"] = [int(row[2]) for row in base["payoff"]]
    spellings = inputs / "payoff-spellings"
    spellings.mkdir(parents=True)
    jobs = []
    for name, values in tables.items():
        rows = [[x, y, v] for (x, y, _), v in zip(base["payoff"], values)]
        path = spellings / f"{name}.json"
        path.write_text(json.dumps({**base, "payoff": rows + base["payoff"][len(rows):]}),
                        encoding="utf-8")
        jobs += _command_jobs(path, PAYOFF_COMMANDS)
    return jobs


def _generic_game_jobs(inputs: Path) -> list:
    """The k x k grid games of `scripts/scaling.py`'s generic_game family: all payoffs distinct."""
    sys.path.insert(0, str(ROOT / "scripts"))
    from scaling import generic_game_doc

    generic = inputs / "generic-games"
    generic.mkdir(parents=True)
    jobs = []
    for k in GENERIC_GAME_SIZES:
        path = generic / f"generic-{k}x{k}.json"
        path.write_text(json.dumps(generic_game_doc(k)), encoding="utf-8")
        jobs += _command_jobs(path, PAYOFF_COMMANDS)
    return jobs


def _large_roep_jobs(inputs: Path) -> list:
    """Chains X, Y and U (16 values) and a T rising in x and falling in y, so the top block
    of C x D solves without F and G; F and G, when written, are random."""
    rng = random.Random(2017)
    n = LARGE_ROEP_SIDE
    cs, ds, us = ([f"{side}{i}" for i in range(size)] for side, size in
                  (("c", n), ("d", n), ("u", 16)))
    doc = {"schema": "roep-instance/1", "mode": "roep",
           "posets": {name: {"elements": ids, "edges": [list(e) for e in zip(ids, ids[1:])]}
                      for name, ids in (("X", cs), ("Y", ds), ("U", us))},
           "C": {"poset": "X", "members": cs}, "D": {"poset": "Y", "members": ds},
           "T": [[x, y, us[(i * 16 // n + (n - 1 - j) * 16 // n) // 2]]
                 for i, x in enumerate(cs) for j, y in enumerate(ds)],
           "seed": [cs[0], ds[0]]}
    constrained = {**doc,
                   "F": {x: [y for y in ds if rng.random() < 0.8] or ds[:1] for x in cs},
                   "G": {y: [x for x in cs if rng.random() < 0.8] or cs[:1] for y in ds}}
    large = inputs / "large-roep"
    large.mkdir(parents=True)
    jobs = []
    for name, body in (("omitted", doc), ("constrained", constrained)):
        path = large / f"roep-{n}x{n}-{name}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        jobs += _command_jobs(path, LARGE_ROEP_COMMANDS)
    return jobs


def _malformed_jobs(inputs: Path) -> list:
    """i2 and the 2x2 game fixture with one fault (F, seed, rows, empty C or D); i2's bad T."""
    malformed = inputs / "malformed"
    malformed.mkdir(parents=True)
    jobs = []
    for fixture in ("i2_constrained", "game_additive_2x2"):
        base = json.loads((ROOT / "fixtures" / f"{fixture}.json").read_text(encoding="utf-8"))
        cs, ds = base["C"]["members"], base["D"]["members"]
        edits = {name: {"F": make(cs, ds)} for name, make in MALFORMED_F.items()}
        edits.update({name: {"seed": make(cs, ds)} for name, make in MALFORMED_SEEDS.items()})
        table = "T" if "T" in base else "payoff"
        edits.update({name: {table: make(base[table])} for name, make in ROW_FAULTS.items()})
        edits.update({f"{side}-empty": {side: {**base[side], "members": []}} for side in "CD"})
        if table == "T":
            edits.update({name: {"T": [[*base["T"][0][:2], v], *base["T"][1:]]}
                          for name, v in T_SPELLINGS.items()})
        for name, edit in edits.items():
            path = malformed / f"{fixture}.{name}.json"
            path.write_text(json.dumps({**base, **edit}), encoding="utf-8")
            jobs += _command_jobs(path, MALFORMED_COMMANDS)
    return jobs


def _gen_jobs(poset_kinds) -> list:
    """`gen` runs of every poset kind, and of random instances with no filter."""
    runs = [["--kind", "random_poset", "--sizes", str(n), "--density", density]
            for n in GEN_POSET_SIZES for density in GEN_DENSITIES]
    runs += [["--kind", "random_instance", "--sizes", sizes, "--poset-kind", kind, *bias]
             for kind in poset_kinds for sizes in GEN_INSTANCE_SIZES
             for bias in ([], ["--monotone-bias"])]
    seeded = [(run, seed) for run in runs for seed in GEN_SEEDS]
    seeded += [(["--kind", kind, "--sizes", sizes], GEN_SEEDS[0])
               for kind, all_sizes in GEN_POSET_KIND_SIZES.items() for sizes in all_sizes]
    return [(" ".join(["gen", *run, "--seed", str(seed)]),
             ["gen", *run, "--seed", str(seed), "-o", WRITTEN]) for run, seed in seeded]


def _descent(path: Path) -> str:
    """`solve --minimal --force` from the last members of the file's C and D."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return "solve --minimal --force --seed {}:{}".format(doc["C"]["members"][-1],
                                                        doc["D"]["members"][-1])


def _seeded(path: Path) -> list:
    """`SEEDED_COMMANDS` seeded at the first members of C and D and at q:q; a roep's `game` too."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    first = "--seed {}:{}".format(doc["C"]["members"][0], doc["D"]["members"][0])
    roep = [] if doc.get("mode") == "game" else [f"game {first}"]
    return [f"{command} {seed}" for seed in (first, "--seed q:q")
            for command in SEEDED_COMMANDS] + roep


def _jobs(inputs: Path) -> list:
    """(name, argv) of every run; outputs are named relative to the run's directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import SHAPES, WORKLOADS, argv, gen_specs, write_instances

    jobs = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        seeded = [_descent(path), *_seeded(path)] if "C" in doc and "D" in doc else []
        jobs += _command_jobs(path, [*FIXTURE_COMMANDS, *seeded])
    base = json.loads((ROOT / "fixtures" / "i1_unconstrained.json").read_text(encoding="utf-8"))
    edge_cases = inputs / "edge-cases"
    edge_cases.mkdir(parents=True)
    for name, (elements, edges) in EDGE_CASES.items():
        poset = {"elements": elements, "edges": edges, "edge_kind": "full"}
        doc, instance = edge_cases / f"{name}.poset.json", edge_cases / f"{name}.json"
        doc.write_text(json.dumps({"schema": "roep-poset/1", **poset}), encoding="utf-8")
        instance.write_text(json.dumps({**base, "posets": {**base["posets"], "X": poset}}),
                            encoding="utf-8")
        jobs.append((f"{doc.name} validate", ["validate", str(doc)]))
        jobs += [(f"{instance.name} {command}", [command, str(instance)])
                 for command in ("validate", "check")]
    jobs += _payoff_jobs(inputs)
    jobs += _generic_game_jobs(inputs)
    jobs += _malformed_jobs(inputs)
    jobs += _large_roep_jobs(inputs)
    for name, workload in WORKLOADS.items():
        paths = write_instances(name, 1, inputs / name)
        for path in paths:
            jobs.append((f"{path.name} validate", ["validate", str(path)]))
            jobs += [(f"{path.name} {command}", argv(command, str(path), REPORT))
                     for command in workload.commands if command != "gen"]
            jobs += _command_jobs(path, [_descent(path)])
        if "gen" in workload.commands:
            jobs += [(f"gen {spec}", argv("gen", WRITTEN, REPORT, spec))
                     for spec in gen_specs(1, workload.instances)]
    return jobs + _gen_jobs(SHAPES)


def _run_jobs(jobs_file: str) -> None:
    """Run every job in this process, in the current directory; print one JSON result."""
    from ordeq.cli import main

    results = []
    for name, args in json.loads(Path(jobs_file).read_text(encoding="utf-8")):
        for leftover in (REPORT, WRITTEN):
            Path(leftover).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse refusing an argument vector
                code = exc.code
        report = written = None
        if Path(REPORT).exists():
            report = json.loads(Path(REPORT).read_text(encoding="utf-8"))
            report.pop("elapsed_seconds", None)
        if Path(WRITTEN).exists():
            written = Path(WRITTEN).read_text(encoding="utf-8")
        blob = json.dumps([code, out.getvalue(), err.getvalue(), report, written],
                          sort_keys=True)
        masked = json.dumps([code, re.sub(r"digest=[0-9a-f]+", "digest=", out.getvalue()),
                             err.getvalue(), report and {k: v for k, v in report.items()
                                                         if k not in DIGEST_FIELDS}, written],
                            sort_keys=True)
        results.append([name, hashlib.sha256(blob.encode()).hexdigest(),
                        hashlib.sha256(masked.encode()).hexdigest(), code,
                        out.getvalue()[:300], err.getvalue()[:300]])
    json.dump({"ordeq": sys.modules["ordeq"].__file__, "runs": results}, sys.stdout)


def _run_tree(tree: Path, jobs_file: Path, work: Path) -> subprocess.Popen:
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    return subprocess.Popen([sys.executable, __file__, "--run-jobs", str(jobs_file)],
                            cwd=work, env=env, stdout=subprocess.PIPE, text=True)


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        jobs_file = tmp / "jobs.json"
        jobs_file.write_text(json.dumps(_jobs(tmp / "inputs")), encoding="utf-8")
        procs = {tree: _run_tree(tree, jobs_file, tmp / f"work-{k}")
                 for k, tree in enumerate((base, ROOT))}
        outputs = {tree: proc.communicate()[0] for tree, proc in procs.items()}
        if any(proc.returncode for proc in procs.values()):
            print("a tree's run process failed")
            return 1
    (was, now) = (json.loads(outputs[tree]) for tree in (base, ROOT))
    for side, tree, result in ((rev, base, was), ("this checkout", ROOT, now)):
        print(f"{side}: ordeq from {result['ordeq']}")
        if not Path(result["ordeq"]).resolve().is_relative_to((tree / "src").resolve()):
            print(f"{side} did not import ordeq from its own src/")
            return 1
    print(f"{len(now['runs'])} runs")
    differing = [(old, new) for old, new in zip(was["runs"], now["runs"]) if old[1] != new[1]]
    digest_only = 0
    for old, new in differing:
        only = old[2] == new[2]
        digest_only += only
        print(f"difference{' (digest or report schema only)' if only else ''}: {old[0]}")
        print(f"  {rev}: exit {old[3]}\n    stdout {old[4]!r}\n    stderr {old[5]!r}")
        print(f"  this checkout: exit {new[3]}\n    stdout {new[4]!r}\n    stderr {new[5]!r}")
    print(f"{len(differing)} differences: {digest_only} only in the digest or report schema, "
          f"{len(differing) - digest_only} other")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-jobs"]:
        _run_jobs(sys.argv[2])
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit(__doc__)
