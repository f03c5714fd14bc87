"""Constrained two-person zero-sum games on component-wise ordered strategy sets.

Player 1 picks from C and receives the payoff; player 2 picks from D and
receives its negation.  Payoffs are exact rationals: order comparisons decide
equilibria, and float ties would corrupt the argmax/argmin sets.  The utility
poset handed to the equilibrium machinery is the chain of distinct payoff
values, which keeps it minimal and totally ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from .equilibrium import ObjectiveMap, Pair, ProblemInstance, SolutionReport
from .errors import InvariantBreach, ValidationError
from .maps import SetValuedMap, constant_map
from .poset import GridPoset, Subset, grid_poset, load_poset

__all__ = ["GridPoset", "grid_poset", "ZeroSumGame", "GameReport", "build_game",
           "solve_game", "transpose_game"]


def _as_fraction(v) -> Fraction:
    if isinstance(v, float):
        raise ValidationError(f"payoff {v!r} is a float; use exact rationals")
    return Fraction(v)


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
        for x in C.ordered():
            for y in D.ordered():
                if (x, y) not in payoff:
                    raise ValidationError(f"payoff table has no entry for {(x, y)!r}")
                table[(x, y)] = _as_fraction(payoff[(x, y)])
        extra = set(payoff) - set(table)
        if extra:
            raise ValidationError(f"payoff table has stray entries: {sorted(map(repr, extra))}")
        self.C = C
        self.D = D
        self.payoff = MappingProxyType(table)
        self.F = F if F is not None else constant_map(C, D)
        self.G = G if G is not None else constant_map(D, C)
        if self.F.domain != C or self.F.codomain != D:
            raise ValidationError("F must map C into subsets of D")
        if self.G.domain != D or self.G.codomain != C:
            raise ValidationError("G must map D into subsets of C")
        self.seed = seed

    @cached_property
    def instance(self) -> ProblemInstance:
        return build_game(self.C, self.D, self.payoff, self.F, self.G, seed=self.seed)

    def transpose(self) -> "ZeroSumGame":
        """Swap the players: payoff negated and transposed, constraints swapped."""
        flipped = {(y, x): -v for (x, y), v in self.payoff.items()}
        seed = (self.seed[1], self.seed[0]) if self.seed is not None else None
        return ZeroSumGame(
            self.D,
            self.C,
            flipped,
            F=SetValuedMap(self.D, self.C, dict(self.G.table)),
            G=SetValuedMap(self.C, self.D, dict(self.F.table)),
            seed=seed,
        )


def build_game(C: Subset, D: Subset, payoff: Mapping,
               F: Optional[SetValuedMap] = None, G: Optional[SetValuedMap] = None,
               seed: Optional[Pair] = None) -> ProblemInstance:
    """Equilibrium-problem view of a zero-sum game.

    The utility poset is the chain over the distinct payoff values in their
    usual rational order, so the scalar saddle test always applies.
    """
    table = {k: _as_fraction(v) for k, v in payoff.items()}
    values = sorted(set(table.values()))
    utility = load_poset(values, list(zip(values, values[1:])))
    T = ObjectiveMap(utility, table)
    F = F if F is not None else constant_map(C, D)
    G = G if G is not None else constant_map(D, C)
    return ProblemInstance(C, D, T, F, G, seed=seed)


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
