#!/usr/bin/env python3
"""Check that the rules `ordeq` copies from the standard library still match it.

    python3 scripts/check_stdlib_rules.py

Two rules hold only while the running CPython's standard library is the one
they copy, so this runs under every interpreter at hand.  It needs the
standard library alone: it compiles each rule's functions and constants
from its `src/ordeq` file through `ast` into one namespace, beside stubs of
`ValidationError` and of `_down_set_matrix` (which hands back the down-set
bitsets, so that `_random_order`'s own swaps are read back), with neither
numpy nor `ordeq` imported.

- gen's copies of `random` (`generate.py`), over many seeds and sizes:
  `_draws(rng, bounds)` against one `choice(range(b))` per bound;
  `_random_order(n, rng, 1.0)` against `shuffle` of `range(n)` and one
  `random()` per pair (at density 1 an element's down-set holds every
  element before it in the order, so its size is one past its place);
  `_nonempty_subset(rng, n)` against `sample(range(n), randint(1, n))`,
  for n up to 21, where sample takes its pool method; and after each, the
  next `random()`, so that the stream is left where the stdlib leaves it.
- the payoff rule (`games.py`): `_lowest_terms(v)` against
  `Fraction(v).as_integer_ratio()`, or the refusal's text where there is no
  Fraction with a string form under Python's int digit limit
  (`sys.get_int_max_str_digits`, new in CPython 3.10.7, hence the
  `>=3.10.7` floor in `pyproject.toml`), for every value of
  `PAYOFF_SPELLINGS` in `scripts/same_outputs.py` and for strings at the
  limit: integers and ratios of `limit` and `limit + 1` digits, and decimal
  exponents around it, where `_as_fraction` decides before it builds a
  power of ten; under the default limit and under a limit of 640 digits.

It prints the interpreter, each rule's number of checks and its first few
differences; it exits 1 on any difference.
"""

from __future__ import annotations

import __future__
import ast
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from same_outputs import PAYOFF_SPELLINGS  # this script's own directory is on sys.path

ROOT = Path(__file__).resolve().parents[1]
RULES = {"generate.py": ("_draws", "_nonempty_subset", "_random_order"),
         "games.py": ("_lowest_terms", "_as_fraction", "_bad_payoff", "_PLAIN", "_EXPONENT")}
SEEDS = (*range(200), 2 ** 40 + 3, 2 ** 64 - 1, -7)
BOUNDS = (1, 2, 3, 5, 7, 12, 36, 255, 256, 257, 2 ** 31 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40,
          2 ** 62 + 13)  # past 32 bits, getrandbits reads more than one word
MAX_ORDER, MAX_POOL = 40, 21
LIMITS = (None, 640)  # None: the interpreter's default


class ValidationError(Exception):
    pass


def load() -> dict:
    """Every rule's names, compiled from their source alone into one namespace of stubs."""
    namespace = {"Fraction": Fraction, "ValidationError": ValidationError, "math": math,
                 "random": random, "re": re, "sys": sys, "_down_set_matrix": lambda down: down}
    for source, names in RULES.items():
        path = ROOT / "src" / "ordeq" / source
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defs = {node.name if isinstance(node, ast.FunctionDef) else node.targets[0].id: node
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name in names
                or isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in names for t in node.targets)}
        if set(names) - set(defs):
            sys.exit(f"{path} defines no {', '.join(sorted(set(names) - set(defs)))}")
        # annotations stay strings, so np.ndarray in a signature needs no numpy
        exec(compile(ast.Module(body=list(defs.values()), type_ignores=[]), str(path), "exec",
                     flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace


def random_checks(rules: dict):
    """(what, the copy's values, the stdlib's values) of every comparison with random."""
    for seed in SEEDS:
        k = seed % len(BOUNDS)
        for bounds in (BOUNDS[k:] + BOUNDS[:k], (1,) * 5, (4,) * 36, (12,) * 36,
                       tuple(range(MAX_ORDER, 1, -1))):
            ours, theirs = random.Random(seed), random.Random(seed)
            yield (f"_draws seed {seed} bounds {bounds}",
                   (rules["_draws"](ours, bounds), ours.random()),
                   ([theirs.choice(range(b)) for b in bounds], theirs.random()))
        for n in range(1, MAX_ORDER + 1):
            ours, theirs = random.Random(seed), random.Random(seed)
            places = [bin(down).count("1") - 1 for down in rules["_random_order"](n, ours, 1.0)]
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
                   (rules["_nonempty_subset"](ours, n), ours.random()),
                   (theirs.sample(range(n), theirs.randint(1, n)), theirs.random()))


def at_the_limit(limit: int) -> list:
    """Strings with `limit` digits or one more, and exponents around the limit."""
    ok, over = "7" * limit, "7" * (limit + 1)
    values = [ok, over, f"-{ok}", f"-{over}", f"1/{ok}", f"1/{over}", f"{over}/7", f"{ok}/{ok}",
              f"{over}/{over}", f" {ok}", f"{ok}.5"]
    for e in (limit - 1, limit, limit + 1, limit + 2, limit + 4, 10 * limit):
        values += [f"1e{e}", f"-1e{e}", f"1e-{e}", f"0.001e{e}", f"0e{e}", f"0.0e-{e}",
                   f"1_0e{e}", f"5.e{e}", f"1e{e}_0"]
    return values


def referee(v):
    """Fraction(v)'s lowest terms, or the text the payoff rule refuses v with."""
    if isinstance(v, float):
        return f"payoff {v!r} is a float; use exact rationals"
    try:
        if isinstance(v, bool):
            raise TypeError("a bool is no rational")
        exact = Fraction(v)
        str(exact)  # past the digit limit it has no string form
        return exact.as_integer_ratio()
    except (TypeError, ValueError, ZeroDivisionError):
        return f"payoff: bad rational {_short(v, None)}"


def payoff_checks(rules: dict):
    """(the value, the rule's reading, the referee's) of every comparison with Fraction."""
    before = sys.get_int_max_str_digits()
    try:
        for limit in LIMITS:
            sys.set_int_max_str_digits(limit or before)
            for v in [*PAYOFF_SPELLINGS.values(), *at_the_limit(limit or before)]:
                try:
                    got = rules["_lowest_terms"](v)
                except ValidationError as exc:
                    got = str(exc)
                yield _short(v), got, referee(v)
    finally:
        sys.set_int_max_str_digits(before)


def _short(x, cut: int | None = 60) -> str:
    try:
        text = repr(x)
    except ValueError:  # an int past the digit limit has no string form
        return f"{type(x).__name__} with no string form"
    return text if cut is None or len(text) <= cut else f"{text[:40]}... ({len(text)} chars)"


def main() -> int:
    rules, failed = load(), False
    name = f"{sys.implementation.name} {sys.version.split()[0]}"
    for what, stdlib, checks in (
            (", ".join(RULES["generate.py"]), "random", random_checks(rules)),
            ("the payoff rule", "Fraction", payoff_checks(rules))):
        count, differing = 0, []
        for case, ours, theirs in checks:
            count += 1
            if ours != theirs:
                differing.append(f"{case}: ours {_short(ours)}, {stdlib} {_short(theirs)}")
        print(f"{name}: {count} checks of {what} against {stdlib}, {len(differing)} differ")
        for line in differing[:5]:
            print(line)
        failed = failed or bool(differing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
