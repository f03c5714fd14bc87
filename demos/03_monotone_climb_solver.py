"""Solving by monotone climb: hypotheses, trace, and the maximal solution.

Run with: python3 demos/03_monotone_climb_solver.py
"""

from ordeq import parse_instance

inst = parse_instance("fixtures/i2_constrained.json")

# Before solving, check the preconditions at the seed: phi and psi must be
# increasing upward, their values universally inductive (a theorem for
# finite nonempty sets, so it is reported, not computed), and the seed
# pair must admit a witness above it.
hyp = inst.check_hypotheses(("c0", "d0"))
print("phi increasing upward:", hyp.phi_monotonicity.increasing_upward)
print("psi increasing upward:", hyp.psi_monotonicity.increasing_upward)
print("seed condition witness:", hyp.seed_witness)
print("hypotheses pass:", hyp.passes)

# The climb ascends through gamma until it hits a fixed point, then the
# fixed point is promoted to a maximal solution above the seed.
rep = inst.solve_maximal(("c0", "d0"))
print("\nclimb trace:", " -> ".join(map(str, rep.climb_trace)))
print("maximal solution:", rep.solution)
print("full solution set:", sorted(rep.solutions))

cert = rep.certificates[rep.solution]
print("\ncertificate: feasible:", cert.feasible_in_g and cert.feasible_in_f)
print("row deviations checked:", cert.row_candidates, "violators:", cert.row_violators)
print("col deviations checked:", cert.col_candidates, "violators:", cert.col_violators)

# The dual run descends instead, landing on a minimal solution.
down = inst.solve_minimal(("c1", "d1"))
print("\nminimal solution from the top pair:", down.solution)

# The solutions are exactly the fixed points of gamma: (x, y) in gamma(x, y).
fixed = {(x, y) for x in inst.C for y in inst.D if (x, y) in inst.gamma(x, y)}
assert fixed == inst.solution_set
print("fixed points of gamma:", sorted(fixed))
