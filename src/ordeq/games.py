"""Constrained two-person zero-sum games on component-wise ordered strategy sets.

Player 1 picks from C and receives the payoff; player 2 picks from D and
receives its negation.  Payoffs are exact rationals: order comparisons decide
equilibria, and float ties would corrupt the argmax/argmin sets.  A game is
a problem instance whose utility poset is the chain of its distinct payoff
values, which keeps it minimal and totally ordered: its ranks are its codes,
so phi and psi are row minima and column maxima, and the chain stores no
order matrix (so any number of distinct payoffs fits).  One loop codes a
payoff table, for the file parse and the constructor alike: each C x D
cell's raw value is read once, in row order, and coded as its slot among
the distinct raw values, each of which is read once, by the one payoff
rule, as its lowest terms (so every game built from string or int payoffs
serializes); a plain ASCII integer or ratio is read as two ints and one
gcd, any other spelling by Fraction's own parser.  The first bad value in
C x D order is refused, then the first pair with no payoff.  Only the
distinct values are sorted, by their floats and exactly among values that
round to one float, and one gather turns the slots into positions in U.
U holds the lowest terms and builds its Fractions only if they are read:
deciding the hypotheses, the solutions or the solution set, digesting and
serializing build none, and the saddle re-verification compares terms.
No Fraction is hashed, and no payoff table is built unless one is read.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .equilibrium import _HOLE, Pair, ProblemInstance, SolutionReport, _check_parts
from .errors import InvariantBreach, ValidationError
from .maps import SetValuedMap
from .poset import Subset, _Chain

__all__ = ["ZeroSumGame", "GameReport", "solve_game"]

# a decimal string's mantissa and exponent, where Fraction reads them; anchored
# at the start, since a search would rescan a long digit string from each digit
_EXPONENT = re.compile(r"\s*[-+]?([\d_.]*)[eE]([-+]?\d[\d_]*)\s*\Z")
# the spelling str(Fraction) writes, read as two ints without Fraction's regex
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _lowest_terms(v) -> tuple:
    """A payoff's value as its lowest terms (n, d), d > 0: the one payoff rule.

    A plain ASCII ``-?digits(/digits)?`` string is read as two ints and one
    gcd; int() keeps to Python's int digit limit, so the terms have a
    string form.  Any other value is read by _as_fraction.
    """
    plain = _PLAIN.fullmatch(v) if isinstance(v, str) else None
    if plain is None:
        return _as_fraction(v).as_integer_ratio()
    try:
        n, d = int(plain[1]), int(plain[2] or 1)
    except ValueError as exc:  # past the digit limit
        raise _bad_payoff(v) from exc
    if not d:
        raise _bad_payoff(v)
    g = math.gcd(n, d)
    return n // g, d // g


def _as_fraction(v) -> Fraction:
    """A payoff's Fraction, for every value that is no plain ASCII ratio.

    A Fraction passes; a float, a bool, and any value with no Fraction, or
    none with a string form, is refused with ValidationError.  A nonzero
    string whose decimal exponent passes Python's int digit limit by more
    than its mantissa's digit count has more digits than that, so it is
    refused before its power of ten is built (Fraction("1e10000000") alone
    took 10.6 s).  A zero mantissa is 0 at any exponent.
    """
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise ValidationError(f"payoff {v!r} is a float; use exact rationals")
    if isinstance(v, bool):  # Fraction would take True as 1
        raise _bad_payoff(v)
    try:
        m = _EXPONENT.match(v) if isinstance(v, str) and ("e" in v or "E" in v) else None
        limit = sys.get_int_max_str_digits() if m else 0
        if limit and abs(int(m[2])) > limit + len(m[1].replace("_", "").replace(".", "")):
            if any(c not in "_." and int(c) for c in m[1]):
                raise ValueError("no string form")
            return Fraction(v[:m.start(2)] + "0")  # the mantissa's syntax still checked
        exact = Fraction(v)
        str(exact)  # past Python's int digit limit it has no string form
        return exact
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise _bad_payoff(v) from exc


def _bad_payoff(v) -> ValidationError:
    try:
        shown = repr(v)
    except ValueError:  # an int past Python's digit limit has no repr either
        shown = f"{type(v).__name__} with no string form"
    return ValidationError(f"payoff: bad rational {shown}")


class ZeroSumGame(ProblemInstance):
    """Strategy subsets, an exact rational payoff table, and constraint maps.

    C and D are typically full subsets of grid posets (the component-wise
    order on coordinate tuples), but any finite posets work.  Omitted
    constraint maps default to the constant maps (the unconstrained game).
    """

    def __init__(self, C: Subset, D: Subset, payoff: Mapping,
                 F: Optional[SetValuedMap] = None, G: Optional[SetValuedMap] = None,
                 seed: Optional[Pair] = None):
        masks = _check_parts(C, D, F, G)
        cs, ds = C.ordered(), D.ordered()
        U, T = _game_codes(C, D, [payoff.get(pair, _HOLE) for pair in itertools.product(cs, ds)])
        if len(payoff) != len(cs) * len(ds):  # every pair of C x D has its entry
            extra = set(payoff) - {(x, y) for x in cs for y in ds}
            raise ValidationError(f"payoff table has stray entries: {sorted(map(repr, extra))}")
        self._setup(C, D, U, T, *masks, seed)

    @property
    def payoff(self) -> Mapping:
        """The read-only payoff table, {(x, y): Fraction}: T's table."""
        return self.T.table

    @cached_property
    def instance(self) -> ProblemInstance:
        """The same codes as a roep instance, which serializes and digests as one."""
        return ProblemInstance._from_codes(self.C, self.D, self.U, self._T, self._F,
                                           self._G, self.seed)

    def transpose(self) -> "ZeroSumGame":
        """Swap the players: payoff negated and transposed, constraints swapped."""
        # negating reverses the chain: position t becomes |U| - 1 - t, the order stays
        U = _Chain([(-n, d) for n, d in reversed(self.U._terms)])
        seed = (self.seed[1], self.seed[0]) if self.seed is not None else None
        return ZeroSumGame._from_codes(self.D, self.C, U, (len(U) - 1 - self._T).T,
                                       self._G, self._F, seed)


def _game_codes(C: Subset, D: Subset, cells: list) -> tuple:
    """A game's utility chain U and codes T, from each C x D cell's raw payoff.

    The cells run over C x D in row order, _HOLE where a pair has no payoff.
    Each distinct raw value gets a slot (a str is its own key; a Fraction is
    keyed by its lowest terms, so none is hashed; any other value by its
    type and value, so 1, 1.0 and True never share one) and its lowest terms
    once, by the payoff rule; so the first bad value in C x D order is
    refused, and then the first hole.  Only the distinct values are ranked;
    no common denominator: on 20 000 values with denominators up to 10**9
    its lcm had over 312 000 bits, and ranking the scaled integers took 5 s
    against 0.05 s for a sort.
    """
    slots, terms, codes = {}, [], []  # raw value's key -> its slot; each slot's lowest terms
    for v in cells:
        key = v if type(v) is str else v.as_integer_ratio() if type(v) is Fraction else (type(v), v)
        try:
            s = slots.get(key)
        except TypeError:  # an unhashable value is no rational
            raise _bad_payoff(v) from None
        if s is None:
            s = slots[key] = len(terms)
            terms.append(None if v is _HOLE else _lowest_terms(v))
        codes.append(s)
    hole = slots.get((object, _HOLE))  # _HOLE's key, as any other value's
    if hole is not None:
        x, y = divmod(codes.index(hole), len(D))
        pair = (C.ordered()[x], D.ordered()[y])
        raise ValidationError(f"payoff table has no entry for {pair!r}")
    values = _ascending(terms)
    rank = dict(zip(values, range(len(values))))
    T = np.array(list(map(rank.__getitem__, terms)), dtype=np.intp)[codes].reshape(len(C), len(D))
    # values[i] <= values[j] iff i <= j: a chain in element order, with no matrix stored
    return _Chain(values), T


def _ascending(terms: list) -> list:
    """The distinct lowest terms (n, d) in ascending order of n/d.

    The correctly rounded float n/d (an infinity past the largest float)
    never reverses two values, so it sorts them; only when some values round
    to one float are they ordered exactly, as Fractions, among themselves.
    """
    approx = dict(zip(terms, map(_approx, terms)))
    values = sorted(approx, key=approx.__getitem__)
    if len(set(approx.values())) < len(approx):  # some values round to one float
        values.sort(key=lambda nd: (approx[nd], Fraction(*nd)))
    return values


def _approx(t: tuple) -> float:
    n, d = t
    try:
        return n / d
    except OverflowError:  # |n/d| past the largest float
        return math.inf if n > 0 else -math.inf


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

    The verification never goes through the utility order: it scans
    payoff(x, y*) <= payoff(x*, y*) over all x in G(y*) and
    payoff(x*, y*) <= payoff(x*, y) over all y in F(x*) with exact
    rational comparisons (n/d <= n'/d' iff n * d' <= n' * d, on lowest
    terms), independently of the solver's path.
    """
    rep = game.solve_maximal(seed, force=force)
    x, y = rep.solution
    i, j, terms = game._row(x), game._col(y), game.U._terms
    n, d = terms[game._T[i, j]]
    row = map(terms.__getitem__, game._T[game._G[j], j].tolist())
    col = map(terms.__getitem__, game._T[i, game._F[i]].tolist())
    if not (all(a * d <= n * b for a, b in row) and all(n * b <= a * d for a, b in col)):
        raise InvariantBreach(
            f"reported equilibrium {(x, y)!r} failed the saddle re-verification"
        )
    return GameReport(report=rep, equilibrium=(x, y), value=game.U._value(game._T[i, j]),
                      saddle_verified=True)
