#!/usr/bin/env python3
"""Check the source rules of `ordeq`, with the standard library alone.

    python3 scripts/check_rules.py

It lists the .py files under src/, tests/, bench/, demos/ and scripts/ once
and parses each once with `ast.parse(..., feature_version=(3, 10))`.  Under
CPython 3.10 that is 3.10's own grammar; later interpreters only approximate
it (3.12 and 3.13 accept a PEP 701 f-string such as `f"{x["k"]}"`), so this
is meant to run under every CPython 3.10 to 3.13 at hand, as scripts/ci.sh
does.  On those trees it checks:

- grammar: every file parses; a SyntaxError names its file and line;
- no assert statement in src/, since invariants must survive `python -O`;
- no dead private definition: every _private function, method or class
  defined under src/ordeq/, and every _PRIVATE constant assigned at module
  level there, is used by name (a name read or an attribute; an import or
  the assignment alone does not count) somewhere in src/;
- no unread attribute: every _private attribute src/ordeq/ sets on self
  (`self._x = ...`, also as one target of a tuple assignment, or
  `object.__setattr__(self, "_x", ...)`) is read as an attribute somewhere
  in src/, and every public one somewhere in any of the five trees;
- no unused import: every name a module under src/ordeq/ imports at module
  level (`from __future__` aside) is used by name in it or listed in its
  `__all__`;
- gen's copies of `random` (`generate.py`), over many seeds and sizes:
  `_draws(rng, bounds)` against one `choice(range(b))` per bound;
  `_random_order(n, rng, 1.0)` against `shuffle` of `range(n)` and one
  `random()` per pair (at density 1 an element's down-set holds every
  element before it in the order, so its size is one past its place);
  `_nonempty_subset(rng, n)` against `sample(range(n), randint(1, n))`,
  for n up to 21, where sample takes its pool method; and after each, the
  next `random()`, so that the stream is left where the stdlib leaves it;
- the payoff rule (`games.py`): `_lowest_terms(v)` against
  `Fraction(v).as_integer_ratio()`, or the refusal's text where there is no
  Fraction with a string form under Python's int digit limit
  (`sys.get_int_max_str_digits`, new in CPython 3.10.7, hence the
  `>=3.10.7` floor in `pyproject.toml`), for every value of
  `PAYOFF_SPELLINGS` in `scripts/same_outputs.py` and for strings at the
  limit: integers and ratios of `limit` and `limit + 1` digits, and decimal
  exponents around it, where `_as_fraction` decides before it builds a
  power of ten; under the default limit and under a limit of 640 digits.

The last two compile each copy's functions and constants from its parsed
tree into one namespace, beside stubs of `ValidationError` and of
`_down_set_matrix` (which hands back the down-set bitsets, so that
`_random_order`'s own swaps are read back), with neither numpy nor `ordeq`
imported.  One report loop runs every rule's cases, each under `try`, so a
case that raises fails with its exception named and the run goes on.  It
prints the interpreter, each rule's number of checks and failures, its first
few cases that raised and that failed otherwise, and exits 1 if any rule
failed.
"""

from __future__ import annotations

import __future__
import ast
import math
import random
import re
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from same_outputs import PAYOFF_SPELLINGS  # this script's own directory is on sys.path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "bench", "demos", "scripts")
COPIES = {"generate.py": ("_draws", "_nonempty_subset", "_random_order"),
          "games.py": ("_lowest_terms", "_as_fraction", "_bad_payoff", "_PLAIN", "_EXPONENT")}
SEEDS = (*range(200), 2 ** 40 + 3, 2 ** 64 - 1, -7)
BOUNDS = (1, 2, 3, 5, 7, 12, 36, 255, 256, 257, 2 ** 31 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40,
          2 ** 62 + 13)  # past 32 bits, getrandbits reads more than one word
MAX_ORDER, MAX_POOL = 40, 21
ValidationError = type("ValidationError", (Exception,), {})  # ordeq.errors' stub


def parse_all() -> dict:
    """{path relative to the root: its tree, or the SyntaxError it raised}."""
    parsed = {}
    for path in sorted(p.relative_to(ROOT) for tree in TREES for p in (ROOT / tree).rglob("*.py")):
        try:
            parsed[path] = ast.parse((ROOT / path).read_text(encoding="utf-8"), str(path),
                                     feature_version=(3, 10))
        except SyntaxError as exc:
            parsed[path] = exc
    return parsed


def load(trees: dict) -> dict:
    """The copies' names, compiled from their trees alone into one namespace of stubs."""
    namespace = {"Fraction": Fraction, "ValidationError": ValidationError, "math": math,
                 "random": random, "re": re, "sys": sys, "_down_set_matrix": lambda down: down}
    for source, names in COPIES.items():
        path = Path("src", "ordeq", source)
        body = [node for node in trees.get(path, ast.Module(body=[])).body
                if isinstance(node, ast.FunctionDef) and node.name in names
                or isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in names for t in node.targets)]
        # annotations stay strings, so np.ndarray in a signature needs no numpy
        exec(compile(ast.Module(body=body, type_ignores=[]), str(ROOT / path), "exec",
                     flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace


def grammar(parsed: dict):
    for path, tree in parsed.items():
        bad = isinstance(tree, SyntaxError)
        yield f"{path}:{tree.lineno}" if bad else str(path), partial(str, tree.msg if bad else "")


def no_assert(trees: dict):
    for path, tree in trees.items():
        if path.parts[0] == "src":
            found = (f"assert at line {node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
            yield str(path), partial(str, ", ".join(found))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _src_names(trees: dict):
    """(definitions, attributes set on self, names used, attributes read, read outside src/)."""
    defs, attrs, used, read, read_outside = [], {}, set(), set(), set()
    for path, tree in trees.items():
        if path.parts[0] != "src":
            read_outside |= {node.attr for node in ast.walk(tree)
                             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
            continue
        ours = "ordeq" in path.parts
        if ours:
            defs += [(t.id, f"{path}:{node.lineno}") for node in tree.body
                     if isinstance(node, ast.Assign) for t in node.targets
                     if isinstance(t, ast.Name) and t.id.startswith("_") and t.id.isupper()]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if ours and _private(node.name):
                    defs.append((node.name, f"{path}:{node.lineno}"))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif ours and ast.unparse(node.value) == "self":
                    attrs.setdefault(node.attr, f"{path}:{node.lineno}")
            if (ours and isinstance(node, ast.Call) and len(node.args) > 1
                    and ast.unparse(node.func) == "object.__setattr__"
                    and ast.unparse(node.args[0]) == "self"
                    and isinstance(getattr(node.args[1], "value", None), str)):
                attrs.setdefault(node.args[1].value, f"{path}:{node.lineno}")
    return defs, attrs, used, read, read_outside


def dead_definitions(trees: dict):
    defs, _, used, _, _ = _src_names(trees)
    for name, where in defs:
        yield where, partial(str, "" if name in used else f"{name} is never used")


def unread_attributes(trees: dict):
    _, attrs, _, read, read_outside = _src_names(trees)
    for name, where in attrs.items():
        seen = read if _private(name) else read | read_outside
        yield where, partial(str, "" if name in seen else f"attribute {name} is set but never read")


def unused_imports(trees: dict):
    for path, tree in trees.items():
        if "ordeq" not in path.parts or path.parts[0] != "src":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
            e.value for node in tree.body if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in node.value.elts}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    yield f"{path}:{node.lineno}", partial(
                        str, "" if name in used else f"{name} is imported but never used")


def _differ(ours, theirs, stdlib: str) -> str:
    return "" if ours == theirs else f"ours {_short(ours)}, {stdlib} {_short(theirs)}"


def _draws_case(rules: dict, seed: int, bounds: tuple) -> str:
    ours, theirs = random.Random(seed), random.Random(seed)
    return _differ((rules["_draws"](ours, bounds), ours.random()),
                   ([theirs.choice(range(b)) for b in bounds], theirs.random()), "random")


def _order_case(rules: dict, seed: int, n: int) -> str:
    ours, theirs = random.Random(seed), random.Random(seed)
    places = [bin(down).count("1") - 1 for down in rules["_random_order"](n, ours, 1.0)]
    theirs.shuffle(order := list(range(n)))
    for _ in range(n * (n - 1) // 2):
        theirs.random()
    return _differ((sorted(range(n), key=places.__getitem__), ours.random()),
                   (order, theirs.random()), "random")


def _subset_case(rules: dict, seed: int, n: int) -> str:
    ours, theirs = random.Random(seed), random.Random(seed)
    return _differ((rules["_nonempty_subset"](ours, n), ours.random()),
                   (theirs.sample(range(n), theirs.randint(1, n)), theirs.random()), "random")


def random_copies(rules: dict):
    for seed in SEEDS:
        k = seed % len(BOUNDS)
        for bounds in (BOUNDS[k:] + BOUNDS[:k], (1,) * 5, (4,) * 36, (12,) * 36,
                       tuple(range(MAX_ORDER, 1, -1))):
            yield f"_draws seed {seed} bounds {bounds}", partial(_draws_case, rules, seed, bounds)
        for n in range(1, MAX_ORDER + 1):
            yield f"_random_order seed {seed} n {n}", partial(_order_case, rules, seed, n)
        for n in range(1, MAX_POOL + 1):
            yield f"_nonempty_subset seed {seed} n {n}", partial(_subset_case, rules, seed, n)


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


def _payoff_case(rules: dict, v, limit: int) -> str:
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        try:
            got = rules["_lowest_terms"](v)
        except ValidationError as exc:
            got = str(exc)
        return _differ(got, referee(v), "Fraction")
    finally:
        sys.set_int_max_str_digits(before)


def payoff_rule(rules: dict):
    for limit in (sys.get_int_max_str_digits(), 640):  # the interpreter's default, then 640
        for v in [*PAYOFF_SPELLINGS.values(), *at_the_limit(limit)]:
            yield f"{_short(v)} at limit {limit}", partial(_payoff_case, rules, v, limit)


def _short(x, cut: int | None = 60) -> str:
    try:
        text = repr(x)
    except ValueError:  # an int past the digit limit has no string form
        return f"{type(x).__name__} with no string form"
    return text if cut is None or len(text) <= cut else f"{text[:40]}... ({len(text)} chars)"


def main() -> int:
    parsed = parse_all()
    trees = {path: tree for path, tree in parsed.items() if isinstance(tree, ast.AST)}
    rules, failed = load(trees), False
    name = f"{sys.implementation.name} {sys.version.split()[0]}"
    # each rule yields (case, check): check() is the case's failure, "" when it holds
    for what, cases in (
            ("files parse as Python 3.10", grammar(parsed)),
            ("files under src/ hold no assert", no_assert(trees)),
            ("private definitions under src/ordeq/ are used", dead_definitions(trees)),
            ("attributes set under src/ordeq/ are read", unread_attributes(trees)),
            ("module-level imports under src/ordeq/ are used", unused_imports(trees)),
            (f"{', '.join(COPIES['generate.py'])} match random", random_copies(rules)),
            ("the payoff rule matches Fraction", payoff_rule(rules))):
        count, differing, raised = 0, [], []
        for case, check in cases:
            count += 1
            try:
                problem = check()
            except Exception as exc:  # a copy that raises fails its case, and the run goes on
                raised.append(f"{case}: raised {type(exc).__name__}: {exc}")
                continue
            if problem:
                differing.append(f"{case}: {problem}")
        print(f"{name}: {count} checks that {what}, {len(differing) + len(raised)} failed"
              + (f", {len(raised)} of them by raising" if raised else ""))
        for line in raised[:3] + differing[:3]:
            print(f"  {line}")
        failed = failed or bool(differing or raised)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
