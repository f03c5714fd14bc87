"""The benchmark's workloads: instance files made from a seed, and the op mix.

Every instance file is a `roep-instance/1` document written here with the
standard library only, so the program under test only ever sees generated
files.  The same (workload, seed) always gives byte-identical files.  Each
workload keeps one instance size, so a percentile measures the spread
within one family and not a boundary between sizes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SHAPES = ("chain", "antichain", "boolean_lattice", "grid", "random_poset")
SMALL_SIZES = (6, 6, 12)
# One instance in MINORITY takes the cheaper variant (constraints) in grid-game
# and wide-oracle.  A 1:1 mix of two variants whose costs differ puts p50
# in the gap between them, where it swings from run to run; at 1:3, p50
# and p90 both fall inside the majority's distribution.
MINORITY = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple  # commands run on each instance, in this order
    # instance files; the op loop cycles through them.  Cheaper ops get more
    # files, so that one run still spans as much of the family as it can.
    instances: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-game",
            "4x4-grid zero-sum games whose hypotheses pass: chain enumeration, "
            "completeness and the oracle carry the load",
            ("check", "game", "enumerate"),
            64,
        ),
        Workload(
            "wide-oracle",
            "32x32 roep instances on wide two-level posets with a non-total 16-element U: "
            "oracle, certificates and parsing carry the load",
            ("check", "solve", "enumerate"),
            128,
        ),
        Workload(
            "small-batch",
            "desk-scale (6,6,12) instances and gen runs of a few ms each: "
            "file I/O, CLI and per-call overhead carry the load",
            ("gen", "check", "solve", "enumerate"),
            256,
        ),
    )
}


def argv(command: str, path: str, report: str, gen_spec=None) -> list:
    """The `ordeq` argument vector of one op."""
    if command == "gen":
        seed, shape, bias = gen_spec
        out = ["gen", "--kind", "random_instance", "--seed", str(seed),
               "--sizes", ",".join(map(str, SMALL_SIZES)),
               "--filter", "require_hypotheses", "--poset-kind", shape, "-o", path]
        return out + (["--monotone-bias"] if bias else [])
    extra = ["--force"] if command == "solve" else []
    return [command, path, *extra, "--report", report]


def gen_specs(seed: int, count: int) -> list:
    """(rng seed, poset kind, monotone bias) of each small-batch `gen` op.

    The kinds cycle and the bias alternates in blocks of five, so every
    run sees the same share of each (kind, bias) class.
    """
    rng = random.Random(f"gen-{seed}")
    return [
        (rng.getrandbits(32), SHAPES[k % len(SHAPES)], (k // len(SHAPES)) % 2 == 1)
        for k in range(count)
    ]


# -- posets as (element names, hasse edges) -----------------------------------


def _grid(prefix: str, rows: int, cols: int) -> tuple:
    name = lambda i, j: f"{prefix}{i},{j}"
    names = [name(i, j) for i in range(rows) for j in range(cols)]
    edges = [[name(i, j), name(i + 1, j)] for i in range(rows - 1) for j in range(cols)]
    edges += [[name(i, j), name(i, j + 1)] for i in range(rows) for j in range(cols - 1)]
    return names, edges


def _random_dag(rng: random.Random, names: list, density: float) -> list:
    order = list(names)
    rng.shuffle(order)
    return [
        [order[i], order[j]]
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if rng.random() < density
    ]


def _shape(rng: random.Random, kind: str, prefix: str, n: int) -> tuple:
    if kind == "chain":
        names = [f"{prefix}{i}" for i in range(n)]
        return names, [[a, b] for a, b in zip(names, names[1:])]
    if kind == "antichain":
        return [f"{prefix}{i}" for i in range(n)], []
    if kind == "boolean_lattice":
        k = max(1, n.bit_length() - 1)  # the largest lattice with at most n elements
        names = [f"{prefix}{i:0{k}b}" for i in range(2 ** k)]
        edges = [
            [names[i], names[i | 1 << b]]
            for i in range(2 ** k)
            for b in range(k)
            if not i >> b & 1
        ]
        return names, edges
    if kind == "grid":
        rows = max(a for a in range(1, int(n ** 0.5) + 1) if n % a == 0)
        return _grid(prefix, rows, n // rows)
    names = [f"{prefix}{i}" for i in range(n)]
    return names, _random_dag(rng, names, 0.35)


def _down_sets(names: list, edges: list) -> dict:
    below = {e: {e} for e in names}
    for _ in names:  # relax until closed; the posets here are small
        for a, b in edges:
            below[b] |= below[a]
    return below


def _poset_doc(names, edges) -> dict:
    return {"elements": names, "edges": edges, "edge_kind": "hasse"}


def _subset_doc(poset: str, names) -> dict:
    return {"poset": poset, "members": list(names)}


def _nonempty(rng: random.Random, pool: list, density: float) -> list:
    pick = [e for e in pool if rng.random() < density]
    return pick or [rng.choice(pool)]


# -- the three instance families -----------------------------------------------


def grid_game(rng: random.Random, k: int) -> dict:
    """A 4x4-grid zero-sum game with payoff f(x) - g(y).

    f and g sum nonnegative rational weights over down-sets, so they are
    monotone with ties.  Every fourth game adds the coupled dominance
    constraints y <= x of the constrained grid-game demo (see MINORITY).
    """
    names, edges = _grid("", 4, 4)
    below = _down_sets(names, edges)
    weight = lambda: Fraction(rng.randint(0, 4), rng.randint(1, 3))
    wx = {e: weight() for e in names}
    wy = {e: weight() for e in names}
    f = {x: sum((wx[z] for z in below[x]), Fraction(0)) for x in names}
    g = {y: sum((wy[z] for z in below[y]), Fraction(0)) for y in names}
    doc = {
        "schema": "roep-instance/1",
        "mode": "game",
        "posets": {"X": _poset_doc(names, edges), "Y": _poset_doc(names, edges)},
        "C": _subset_doc("X", names),
        "D": _subset_doc("Y", names),
        "payoff": [[x, y, str(f[x] - g[y])] for x in names for y in names],
    }
    if k % MINORITY == MINORITY - 1:
        doc["F"] = {x: [y for y in names if y in below[x]] for x in names}
        doc["G"] = {y: [x for x in names if y in below[x]] for y in names}
    doc["seed"] = [names[0], names[0]]
    return doc


def _two_level(rng: random.Random, prefix: str) -> tuple:
    names = [f"{prefix}{i}" for i in range(32)]
    bottom, top = names[:16], names[16:]
    edges = [[b, t] for t in top for b in sorted(rng.sample(bottom, rng.randint(2, 6)))]
    return names, edges


def wide_oracle(rng: random.Random, k: int) -> dict:
    """A 32x32 roep instance on wide two-level posets, with a non-total U.

    Every fourth instance draws random F and G (see MINORITY); the others
    leave them out, so they default to the constant maps.
    """
    xs, x_edges = _two_level(rng, "c")
    ys, y_edges = _two_level(rng, "d")
    us = [f"u{i}" for i in range(16)]
    u_edges = _random_dag(rng, us, 0.25)
    doc = {
        "schema": "roep-instance/1",
        "mode": "roep",
        "posets": {
            "X": _poset_doc(xs, x_edges),
            "Y": _poset_doc(ys, y_edges),
            "U": _poset_doc(us, u_edges),
        },
        "C": _subset_doc("X", xs),
        "D": _subset_doc("Y", ys),
        "T": [[x, y, rng.choice(us)] for x in xs for y in ys],
    }
    if k % MINORITY == MINORITY - 1:
        doc["F"] = {x: _nonempty(rng, ys, 0.5) for x in xs}
        doc["G"] = {y: _nonempty(rng, xs, 0.5) for y in ys}
    doc["seed"] = [rng.choice(xs[:16]), rng.choice(ys[:16])]
    return doc


def small_instance(rng: random.Random, k: int) -> dict:
    """A (6, 6, 12) roep instance; the poset kind cycles, odd k is monotone-biased.

    Biased instances use a 12-chain U, a separable table f(x) - g(y) binned
    into its levels, and constant constraints 70% of the time, as `ordeq
    gen --monotone-bias` does.
    """
    n_c, n_d, n_u = SMALL_SIZES
    kind = SHAPES[k % len(SHAPES)]
    biased = k % 2 == 1
    xs, x_edges = _shape(rng, kind, "c", n_c)
    ys, y_edges = _shape(rng, kind, "d", n_d)
    us = [f"u{i}" for i in range(n_u)]
    if biased:
        u_edges = [[a, b] for a, b in zip(us, us[1:])]
        bx, by = _down_sets(xs, x_edges), _down_sets(ys, y_edges)
        wx = {e: rng.randint(1, 4) for e in xs}
        wy = {e: rng.randint(1, 4) for e in ys}
        raw = {
            (x, y): sum(wx[z] for z in bx[x]) - sum(wy[z] for z in by[y])
            for x in xs for y in ys
        }
        levels = sorted(set(raw.values()))
        table = {p: us[levels.index(v) * n_u // len(levels)] for p, v in raw.items()}
    else:
        u_edges = _random_dag(rng, us, 0.35)
        table = {(x, y): rng.choice(us) for x in xs for y in ys}

    def constraint(dom, cod) -> dict:
        if biased and rng.random() < 0.7:
            base = _nonempty(rng, cod, 0.5)
            return {x: base for x in dom}
        return {x: _nonempty(rng, cod, 0.5) for x in dom}

    return {
        "schema": "roep-instance/1",
        "mode": "roep",
        "posets": {
            "X": _poset_doc(xs, x_edges),
            "Y": _poset_doc(ys, y_edges),
            "U": _poset_doc(us, u_edges),
        },
        "C": _subset_doc("X", xs),
        "D": _subset_doc("Y", ys),
        "T": [[x, y, table[(x, y)]] for x in xs for y in ys],
        "F": constraint(xs, ys),
        "G": constraint(ys, xs),
        "seed": [rng.choice(xs), rng.choice(ys)],
    }


FAMILIES = {"grid-game": grid_game, "wide-oracle": wide_oracle, "small-batch": small_instance}


def write_instances(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's instance files for `seed`; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}-{seed}")
    paths = []
    for k in range(WORKLOADS[workload].instances):
        path = directory / f"{workload}-{k:03d}.json"
        path.write_text(json.dumps(FAMILIES[workload](rng, k), indent=2) + "\n",
                        encoding="utf-8")
        paths.append(path)
    return paths
