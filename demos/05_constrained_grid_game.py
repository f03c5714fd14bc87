"""A constrained zero-sum game on 3x3 coordinate grids.

Player 1 maximizes the payoff, player 2 minimizes it.  The constraints are
genuinely coupled: player 2 must stay below player 1's coordinates and
player 1 must stay above player 2's.  Payoffs are exact rationals so order
comparisons are never corrupted by float ties.

Run with: python3 demos/05_constrained_grid_game.py
"""

from fractions import Fraction

from ordeq import SetValuedMap, ZeroSumGame, grid_poset, solve_game

C = grid_poset((3, 3)).full_subset()
D = grid_poset((3, 3)).full_subset()

cap = lambda p: min(sum(p), 2)
payoff = {(x, y): Fraction(cap(x) - cap(y)) for x in C.ordered() for y in D.ordered()}

dominates = lambda a, b: all(i >= j for i, j in zip(a, b))
F = SetValuedMap(C, D, {x: {y for y in D.ordered() if dominates(x, y)} for x in C.ordered()})
G = SetValuedMap(D, C, {y: {x for x in C.ordered() if dominates(x, y)} for y in D.ordered()})

# a game is a problem instance: its utility poset is the chain of its payoffs
game = ZeroSumGame(C, D, payoff, F=F, G=G, seed=((0, 0), (0, 0)))
print("distinct payoff values (the utility chain):", [str(v) for v in game.U.elements])

result = solve_game(game)
print("\nclimb:", " -> ".join(map(str, result.report.climb_trace)))
print("equilibrium:", result.equilibrium, "value:", result.value)
print("saddle inequalities re-verified on raw rationals:", result.saddle_verified)

print("\nall", len(game.solution_set), "equilibria (brute force):")
for s in sorted(game.solution_set, key=game.pair_index):
    print("  ", s)

# Zero-sum symmetry: transposing the game (negate payoffs, swap constraint
# maps) swaps the equilibrium coordinates.
flipped = game.transpose()
assert {(y, x) for x, y in flipped.solution_set} == game.solution_set
print("\ntransposed game has the mirrored equilibria:", True)
