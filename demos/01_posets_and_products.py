"""Build finite posets, query the order, and take component-wise products.

Run with: python3 demos/01_posets_and_products.py
"""

from ordeq import load_poset, product

# A poset is a set of opaque identifiers plus order edges.  Hasse edges are
# enough: the reflexive-transitive closure is computed and validated on load.
effort = load_poset(["low", "medium", "high"], [("low", "medium"), ("medium", "high")])
print("low <= high:", effort.leq("low", "high"))
print("high <= low:", effort.leq("high", "low"))

# Cyclic input is rejected: antisymmetry would fail after closure.
try:
    load_poset(["a", "b"], [("a", "b"), ("b", "a")])
except Exception as exc:
    print("cycle rejected:", type(exc).__name__)

# Products order pairs coordinate by coordinate.  Two 2-chains make the
# diamond: one bottom, one top, two incomparable middles.
two_chain = load_poset(["0", "1"], [("0", "1")])
diamond = product(two_chain, two_chain)
print("\ndiamond elements:", diamond.elements)
print("bottom:", diamond.full_subset().least())
print("top:   ", diamond.full_subset().greatest())
print("middles comparable:", diamond.comparable(("0", "1"), ("1", "0")))

# Extremal points of any nonempty subset are computed by exhaustive scan,
# and the principal up-set is a one-liner.
mids = diamond.subset({("0", "1"), ("1", "0")})
print("maximal points of the middle pair:", sorted(mids.maximal_points().members))
print("up-set of bottom:", sorted(diamond.up_set(("0", "0")).members))

# Every finite nonempty subset is chain-complete, inductive, bi-inductive
# and universally inductive: a finite chain has a maximum, so any member
# above that maximum bounds it.  The solver relies on this without checking.
