#!/usr/bin/env python3
"""Check that the payoff rule reads each value as Fraction does, refusals included.

    python3 scripts/check_payoff_reading.py

`src/ordeq/games.py` reads a payoff as its lowest terms: a plain ASCII
``-?digits(/digits)?`` string as two ints and one gcd, any other value
through `_as_fraction`, which refuses floats, bools, values with no
Fraction and values whose Fraction has no string form under Python's int
digit limit (`sys.get_int_max_str_digits`, new in CPython 3.10.7, hence the
`>=3.10.7` floor in `pyproject.toml`).  This runs under every interpreter at
hand and needs the standard library alone: it loads `_lowest_terms`,
`_as_fraction`, `_bad_payoff`, `_PLAIN` and `_EXPONENT` from that file
through `ast`, with neither numpy nor `ordeq` imported, and with
`ValidationError` stubbed.  It compares `_lowest_terms(v)` with the
referee `Fraction(v).as_integer_ratio()`, or with the refusal's text when
the referee finds no Fraction with a string form, for:

- every value of `PAYOFF_SPELLINGS` in `scripts/same_outputs.py`;
- strings at the digit limit: plain integers and ratios of `limit` and
  `limit + 1` digits, and decimal exponents around the limit, where
  `_as_fraction` decides before it builds a power of ten;

each under the default limit and under a limit of 640 digits.  It prints
the interpreter and the number of checks, and the first few differences;
it exits 1 on any difference.
"""

from __future__ import annotations

import ast
import importlib.util
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "ordeq" / "games.py"
RULE = ("_lowest_terms", "_as_fraction", "_bad_payoff", "_PLAIN", "_EXPONENT")
LIMITS = (None, 640)  # None: the interpreter's default


class ValidationError(Exception):
    pass


def load() -> dict:
    """The payoff rule, compiled from its source alone."""
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"), str(SOURCE))
    defs = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in RULE
            or isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in RULE for t in node.targets)]
    found = {node.name if isinstance(node, ast.FunctionDef) else node.targets[0].id
             for node in defs}
    if set(RULE) - found:
        sys.exit(f"{SOURCE} defines no {', '.join(sorted(set(RULE) - found))}")
    code = compile(ast.Module(body=defs, type_ignores=[]), str(SOURCE), "exec",
                   dont_inherit=True)
    namespace = {"Fraction": Fraction, "ValidationError": ValidationError, "math": math,
                 "re": re, "sys": sys}
    exec(code, namespace)
    return namespace


def spellings() -> list:
    path = ROOT / "scripts" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.PAYOFF_SPELLINGS.values())


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
        try:
            shown = repr(v)
        except ValueError:
            shown = f"{type(v).__name__} with no string form"
        return f"payoff: bad rational {shown}"


def checks(rule: dict):
    """(the value, the rule's reading, the referee's) of every comparison."""
    before = sys.get_int_max_str_digits()
    try:
        for limit in LIMITS:
            sys.set_int_max_str_digits(limit or before)
            for v in spellings() + at_the_limit(limit or before):
                try:
                    got = rule["_lowest_terms"](v)
                except ValidationError as exc:
                    got = str(exc)
                yield v, got, referee(v)
    finally:
        sys.set_int_max_str_digits(before)


def _short(x) -> str:
    try:
        text = repr(x)
    except ValueError:  # an int past the digit limit, in a reading that should have refused it
        return f"{type(x).__name__} with no string form"
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} chars)"


def main() -> int:
    rule = load()
    count, differing = 0, []
    for v, got, want in checks(rule):
        count += 1
        if got != want:
            differing.append(f"{_short(v)}: rule {_short(got)}, Fraction {_short(want)}")
    name = f"{sys.implementation.name} {sys.version.split()[0]}"
    print(f"{name}: {count} checks of the payoff rule against Fraction, {len(differing)} differ")
    for line in differing[:5]:
        print(line)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
