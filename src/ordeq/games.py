"""Constrained two-person zero-sum games on component-wise ordered strategy sets.

Player 1 picks from C and receives the payoff; player 2 picks from D and
receives its negation.  Payoffs are exact rationals: order comparisons decide
equilibria, and float ties would corrupt the argmax/argmin sets.  The utility
poset handed to the equilibrium machinery is the chain of distinct payoff
values, which keeps it minimal and totally ordered.  Files and the API turn
a payoff into its Fraction by one rule, so every game built from string or
int payoffs serializes.  Each distinct value is
found, ranked and hashed once: cells are grouped by their lowest-terms
(numerator, denominator) pair, only the distinct values are sorted, and each
cell's rank in the chain is its position in U.  Those ranks are the codes of
the game's instance, built directly: no cell is looked up in U, and no
objective table is built unless one is read.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .equilibrium import Pair, ProblemInstance, SolutionReport, _check_parts, _table_codes
from .errors import InvariantBreach, ValidationError
from .maps import SetValuedMap, constant_map
from .poset import GridPoset, Poset, Subset, grid_poset

__all__ = ["GridPoset", "grid_poset", "ZeroSumGame", "GameReport", "build_game",
           "solve_game", "transpose_game"]


# a decimal string's mantissa and exponent, where Fraction reads them; anchored
# at the start, since a search would rescan a long digit string from each digit
_EXPONENT = re.compile(r"\s*[-+]?([\d_.]*)[eE]([-+]?\d[\d_]*)\s*\Z")


def _as_fraction(v) -> Fraction:
    """A payoff's one Fraction, for files and the API alike.

    A Fraction passes and a float is refused; any other value raises
    ValueError (or ZeroDivisionError) when it has no Fraction, or none with
    a string form.  A nonzero string whose decimal exponent passes Python's
    int digit limit by more than its mantissa's digit count has more digits
    than that, so it is refused before its power of ten is built
    (Fraction("1e10000000") alone took 10.6 s).  A zero mantissa is 0 at
    any exponent.
    """
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise ValidationError(f"payoff {v!r} is a float; use exact rationals")
    m = _EXPONENT.match(v) if isinstance(v, str) and ("e" in v or "E" in v) else None
    limit = sys.get_int_max_str_digits() if m else 0
    if limit and abs(int(m[2])) > limit + len(m[1].replace("_", "").replace(".", "")):
        if any(c not in "_." and int(c) for c in m[1]):
            raise ValueError(f"{v!r} has no string form")
        return Fraction(v[:m.start(2)] + "0")  # the mantissa's syntax still checked
    exact = Fraction(v)
    str(exact)  # past Python's int digit limit it has no string form
    return exact


class ZeroSumGame:
    """Strategy subsets, an exact rational payoff table, and constraint maps.

    C and D are typically full subsets of grid posets (the component-wise
    order on coordinate tuples), but any finite posets work.  Omitted
    constraint maps default to the constant maps (the unconstrained game).
    """

    def __init__(self, C: Subset, D: Subset, payoff: Mapping,
                 F: Optional[SetValuedMap] = None, G: Optional[SetValuedMap] = None,
                 seed: Optional[Pair] = None):
        if not C.members or not D.members:
            raise ValidationError("strategy sets must be nonempty")
        table = {}
        ds = D.ordered()
        for x in C.ordered():
            for y in ds:
                if (x, y) not in payoff:
                    raise ValidationError(f"payoff table has no entry for {(x, y)!r}")
                table[(x, y)] = _as_fraction(payoff[(x, y)])
        _refuse_strays(payoff, C, D)
        self.C = C
        self.D = D
        self.payoff = MappingProxyType(table)
        self.F = F if F is not None else constant_map(C, D)
        self.G = G if G is not None else constant_map(D, C)
        _check_parts(C, D, self.F, self.G)
        if seed is not None and not (seed[0] in C and seed[1] in D):
            raise ValidationError(f"seed {seed!r} is not a pair of C and D members")
        self.seed = seed

    @cached_property
    def instance(self) -> ProblemInstance:
        # the payoffs are Fractions already: skip build_game's conversion
        return _game_instance(self.C, self.D, self.payoff, self.F, self.G, self.seed)

    def transpose(self) -> "ZeroSumGame":
        """Swap the players: payoff negated and transposed, constraints swapped."""
        flipped = {(y, x): -v for (x, y), v in self.payoff.items()}
        seed = (self.seed[1], self.seed[0]) if self.seed is not None else None
        return ZeroSumGame(self.D, self.C, flipped, F=self.G, G=self.F, seed=seed)


def build_game(C: Subset, D: Subset, payoff: Mapping,
               F: Optional[SetValuedMap] = None, G: Optional[SetValuedMap] = None,
               seed: Optional[Pair] = None) -> ProblemInstance:
    """Equilibrium-problem view of a zero-sum game.

    The utility poset is the chain over the distinct payoff values in their
    usual rational order, so the scalar saddle test always applies.
    """
    table = {k: _as_fraction(v) for k, v in payoff.items()}
    F = F if F is not None else constant_map(C, D)
    G = G if G is not None else constant_map(D, C)
    _check_parts(C, D, F, G)
    inst = _game_instance(C, D, table, F, G, seed)  # its lookup of every pair finds holes
    _refuse_strays(payoff, C, D)
    return inst


def _refuse_strays(payoff: Mapping, C: Subset, D: Subset) -> None:
    """Refuse payoff entries outside C x D, once every pair of C x D is known to have one."""
    if len(payoff) != len(C) * len(D):
        extra = set(payoff) - {(x, y) for x in C.ordered() for y in D.ordered()}
        raise ValidationError(f"payoff table has stray entries: {sorted(map(repr, extra))}")


def _game_instance(C: Subset, D: Subset, table: Mapping, F: SetValuedMap,
                   G: SetValuedMap, seed: Optional[Pair]) -> ProblemInstance:
    # A Fraction is kept in lowest terms, so equal values have equal
    # (numerator, denominator) pairs: the distinct values are found without
    # hashing a Fraction.  Only those are sorted, and a cell's rank is its
    # position in U.  No common denominator: on 20 000 values with
    # denominators up to 10**9 the lcm had over 312 000 bits, and ranking
    # the scaled integers took about 5 s against 0.05 s for this sort.
    keys = [v.as_integer_ratio() for v in table.values()]
    values = sorted(dict(zip(keys, table.values())).values(), key=_order_key)
    rank = {v.as_integer_ratio(): i for i, v in enumerate(values)}
    T = _table_codes(table, C.ordered(), D.ordered(), lambda v: rank[v.as_integer_ratio()])
    # the chain's leq matrix is triangular: values[i] <= values[j] iff i <= j
    utility = Poset(values, np.triu(np.ones((len(values), len(values)), dtype=bool)))
    return ProblemInstance._from_codes(C, D, utility, T, F.mask(), G.mask().T, seed)


def _order_key(v: Fraction) -> tuple:
    """An exact sort key: the float orders the values, the Fraction its ties.

    A correctly rounded int division never reverses two values, so only
    values that round to one float are compared as Fractions.
    """
    n, d = v.as_integer_ratio()
    try:
        approx = n / d
    except OverflowError:  # |v| >= 2**1024
        approx = math.inf if n > 0 else -math.inf
    return approx, v


@dataclass(frozen=True, eq=False)
class GameReport:
    """A solve report plus the exhaustively re-verified saddle inequalities."""

    report: SolutionReport
    equilibrium: Pair
    value: Fraction
    saddle_verified: bool


def solve_game(game: ZeroSumGame, seed: Optional[Pair] = None,
               force: bool = False) -> GameReport:
    """Solve the game, then re-check the saddle inequalities on raw payoffs.

    The verification never goes through the utility poset: it scans
    payoff(x, y*) <= payoff(x*, y*) over all x in G(y*) and
    payoff(x*, y*) <= payoff(x*, y) over all y in F(x*) with exact
    rational comparisons, independently of the solver's path.
    """
    rep = game.instance.solve_maximal(seed if seed is not None else game.seed, force=force)
    x, y = rep.maximal_solution
    v = game.payoff[(x, y)]
    row_ok = all(game.payoff[(x2, y)] <= v for x2 in game.G(y))
    col_ok = all(v <= game.payoff[(x, y2)] for y2 in game.F(x))
    if not (row_ok and col_ok):
        raise InvariantBreach(
            f"reported equilibrium {(x, y)!r} failed the saddle re-verification"
        )
    return GameReport(report=rep, equilibrium=(x, y), value=v, saddle_verified=True)


def transpose_game(game: ZeroSumGame) -> ZeroSumGame:
    return game.transpose()
