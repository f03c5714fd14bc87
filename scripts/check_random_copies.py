#!/usr/bin/env python3
"""Check that gen's copies of `random`'s algorithms give the stdlib's values.

    python3 scripts/check_random_copies.py

`src/ordeq/generate.py` reads getrandbits as Random's choice, shuffle,
randint and sample do, so that a seed writes the file that those methods
would draw.  The copies hold only while the running CPython's algorithms
are the ones copied, so this runs under every interpreter at hand.  It
needs the standard library alone: it loads `_draws`, `_nonempty_subset` and
`_random_order` from that file through `ast`, with neither numpy nor
`ordeq` imported, and with `_down_set_matrix` stubbed to hand back the
down-set bitsets, so that `_random_order`'s own swaps are read back.  Over
many seeds and sizes it compares:

- `_draws(rng, bounds)` with one `choice(range(b))` per bound;
- `_random_order(n, rng, 1.0)` with `shuffle` of `range(n)` and then one
  `random()` per pair: at density 1 an element's down-set holds every
  element before it in the order, so its size is one past its place;
- `_nonempty_subset(rng, n)` with `sample(range(n), randint(1, n))`, for n
  up to 21, where sample takes its pool method;

and after each, the next `random()`, so that the stream is left where the
stdlib leaves it.  It prints the interpreter and the number of checks, and
the first few differences; it exits 1 on any difference.
"""

from __future__ import annotations

import __future__
import ast
import random
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ordeq" / "generate.py"
COPIES = ("_draws", "_nonempty_subset", "_random_order")
SEEDS = (*range(200), 2 ** 40 + 3, 2 ** 64 - 1, -7)
BOUNDS = (1, 2, 3, 5, 7, 12, 36, 255, 256, 257, 2 ** 31 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40,
          2 ** 62 + 13)  # past 32 bits, getrandbits reads more than one word
MAX_ORDER, MAX_POOL = 40, 21


def load() -> dict:
    """The copies, compiled from their source alone, beside the stdlib's random."""
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"), str(SOURCE))
    defs = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in COPIES]
    missing = set(COPIES) - {node.name for node in defs}
    if missing:
        sys.exit(f"{SOURCE} defines no {', '.join(sorted(missing))}")
    # annotations stay strings, so np.ndarray in a signature needs no numpy
    code = compile(ast.Module(body=defs, type_ignores=[]), str(SOURCE), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {"random": random, "_down_set_matrix": lambda down: down}
    exec(code, namespace)
    return namespace


def checks(copies: dict):
    """(what, the copy's values, the stdlib's values) of every comparison."""
    for seed in SEEDS:
        k = seed % len(BOUNDS)
        for bounds in (BOUNDS[k:] + BOUNDS[:k], (1,) * 5, (4,) * 36, (12,) * 36,
                       tuple(range(MAX_ORDER, 1, -1))):
            ours, theirs = random.Random(seed), random.Random(seed)
            yield (f"_draws seed {seed} bounds {bounds}",
                   (copies["_draws"](ours, bounds), ours.random()),
                   ([theirs.choice(range(b)) for b in bounds], theirs.random()))
        for n in range(1, MAX_ORDER + 1):
            ours, theirs = random.Random(seed), random.Random(seed)
            places = [bin(down).count("1") - 1 for down in copies["_random_order"](n, ours, 1.0)]
            order = list(range(n))
            theirs.shuffle(order)
            for _ in range(n * (n - 1) // 2):
                theirs.random()
            yield (f"_random_order seed {seed} n {n}",
                   (sorted(range(n), key=places.__getitem__), ours.random()),
                   (order, theirs.random()))
        for n in range(1, MAX_POOL + 1):
            ours, theirs = random.Random(seed), random.Random(seed)
            yield (f"_nonempty_subset seed {seed} n {n}",
                   (copies["_nonempty_subset"](ours, n), ours.random()),
                   (theirs.sample(range(n), theirs.randint(1, n)), theirs.random()))


def main() -> int:
    copies = load()
    count, differing = 0, []
    for what, ours, theirs in checks(copies):
        count += 1
        if ours != theirs:
            differing.append(f"{what}: copy {ours!r}, random {theirs!r}")
    name = f"{sys.implementation.name} {sys.version.split()[0]}"
    print(f"{name}: {count} checks of {', '.join(COPIES)} against random, "
          f"{len(differing)} differ")
    for line in differing[:5]:
        print(line)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
