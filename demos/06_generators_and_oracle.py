"""Seeded generators, the rejection filter, and the fixed points of gamma.

Run with: python3 demos/06_generators_and_oracle.py
"""

from ordeq import GenSpec, gen_instance, gen_poset, instance_digest

# Poset generators cover the usual shapes; output is a pure function of
# the seed, so experiments are replayable.
for kind, sizes in [("chain", (4,)), ("boolean_lattice", (2,)), ("random_poset", (6,))]:
    p = gen_poset(GenSpec(kind=kind, sizes=sizes, rng_seed=42))
    print(f"{kind}{sizes}: {len(p)} elements, {len(p.hasse_edges())} cover edges")

# Unfiltered random instances are negative-control material: most fail the
# solver hypotheses, but the solutions are the fixed points of gamma regardless.
checked = passed = 0
for seed in range(200):
    inst = gen_instance(GenSpec(kind="random_instance", sizes=(4, 4, 6), rng_seed=seed))
    fixed = {(x, y) for x in inst.C for y in inst.D if (x, y) in inst.gamma(x, y)}
    assert fixed == inst.solution_set
    checked += 1
    first = (inst.C.ordered()[0], inst.D.ordered()[0])
    if inst.check_hypotheses(first).passes:
        passed += 1
print(f"\nfixed points of gamma = solution set on {checked} unfiltered instances")
print(f"hypotheses pass at the first pair for {passed}/{checked} of them")

# The require_hypotheses filter rejection-samples until some seed pair
# passes, then records it on the instance; monotone bias raises the rate.
inst = gen_instance(
    GenSpec(kind="random_instance", sizes=(5, 5, 10), rng_seed=7,
            monotone_bias=True, filter="require_hypotheses")
)
print(f"\nfiltered instance digest: {instance_digest(inst)[:16]}")
print("recorded seed:", inst.seed, "passes:", inst.check_hypotheses().passes)
rep = inst.solve_maximal()
print("solved:", rep.solution, "via", len(rep.climb_trace), "climb steps,",
      f"|S| = {len(inst.solution_set)}")

# Determinism contract: the same spec yields the same instance, bytes and all.
again = gen_instance(
    GenSpec(kind="random_instance", sizes=(5, 5, 10), rng_seed=7,
            monotone_bias=True, filter="require_hypotheses")
)
print("regenerated digest matches:", instance_digest(again) == instance_digest(inst))
