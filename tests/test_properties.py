"""Property-based checks over generated posets and instances."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ordeq import (
    GenSpec,
    gen_instance,
    gen_poset,
    product,
    transitive_closure,
)

from oracles import CompletenessOracle, chains

SMALL_SIZES = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 8))
SEEDS = st.integers(0, 10**9)


def random_poset(seed, n=None, density=0.4):
    n = n if n is not None else 2 + seed % 5
    return gen_poset(GenSpec(kind="random_poset", sizes=(n,), rng_seed=seed,
                             density=density))


def random_instance(seed, sizes=(4, 4, 6), **kw):
    return gen_instance(GenSpec(kind="random_instance", sizes=sizes, rng_seed=seed, **kw))


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_closure_idempotence(seed):
    p = random_poset(seed)
    assert np.array_equal(transitive_closure(p.leq_matrix), p.leq_matrix)


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_extremal_points_nonempty_antichains(seed):
    import random

    p = random_poset(seed)
    rng = random.Random(seed)
    members = rng.sample(p.elements, rng.randint(1, len(p)))
    sub = p.subset(members)
    for region in (sub.maximal_points(), sub.minimal_points()):
        assert region.members
        for a in region.members:
            for b in region.members:
                assert a == b or not p.leq(a, b)


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_chains_contain_their_maxima(seed):
    p = random_poset(seed)
    for idxs in chains(p.leq_matrix):
        els = [p.elements[i] for i in idxs]
        assert all(p.leq(e, els[-1]) for e in els)


@given(SEEDS)
@settings(max_examples=30, deadline=None)
def test_product_order_agrees_with_factor_conjunction(seed):
    left = random_poset(seed, n=2 + seed % 3)
    right = random_poset(seed + 1, n=2 + (seed // 7) % 3)
    prod = product(left, right)
    for p in prod.elements:
        for q in prod.elements:
            assert prod.leq(p, q) == (left.leq(p[0], q[0]) and right.leq(p[1], q[1]))


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_up_sets_are_upward_closed(seed):
    p = random_poset(seed)
    for a in p.elements:
        up = p.up_set(a)
        assert a in up
        for m in up.members:
            for other in p.elements:
                if p.leq(m, other):
                    assert other in up


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_completeness_reports_all_true(seed):
    import random

    p = random_poset(seed)
    oracle = CompletenessOracle(p.leq_matrix)
    rng = random.Random(seed ^ 0xBEEF)
    for _ in range(5):
        members = rng.sample(range(len(p)), rng.randint(1, len(p)))
        assert all(oracle.flags(members))


@given(SEEDS, SMALL_SIZES)
@settings(max_examples=60, deadline=None)
def test_oracle_identity_gamma_fixed_points(seed, sizes):
    inst = random_instance(seed, sizes=sizes)
    assert inst.gamma_fixed_points == inst.solution_set


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_existence_under_hypotheses(seed):
    inst = random_instance(seed, sizes=(3, 3, 5), monotone_bias=True,
                           filter="require_hypotheses")
    assert inst.solution_set
    rep = inst.solve_maximal()
    assert rep.solution in inst.solution_set
    assert inst.pair_leq(rep.seed, rep.solution)
    above = {s for s in inst.solution_set if inst.pair_leq(rep.seed, s)}
    assert not any(inst.pair_lt(rep.solution, t) for t in above)
    # climb soundness
    assert len(rep.climb_trace) <= len(inst.C) * len(inst.D)
    for a, b in zip(rep.climb_trace, rep.climb_trace[1:]):
        assert inst.pair_lt(a, b)


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_solution_set_is_inductive_at_finite_scale(seed):
    # every chain inside the solution set has its maximum in the set
    inst = random_instance(seed, sizes=(3, 3, 4), monotone_bias=True)
    sols = sorted(inst.solution_set, key=inst.pair_index)
    if not sols:
        return
    # enumerate solution chains by extension over the pair order
    chains = [[s] for s in sols]
    for chain in chains:
        last = chain[-1]
        for t in sols:
            if inst.pair_lt(last, t):
                chains.append(chain + [t])
    for chain in chains:
        top = chain[-1]
        assert all(inst.pair_leq(s, top) for s in chain)
        assert top in inst.solution_set


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_case_one_reduction_collapses_to_global_maps(seed):
    inst = random_instance(seed, sizes=(3, 3, 5))
    reduced = inst.reduce_to_oep("both")
    for x in inst.C.ordered():
        assert reduced.phi(x) == inst.global_phi(x)
    for y in inst.D.ordered():
        assert reduced.psi(y) == inst.global_psi(y)


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_scalar_equivalence_on_total_utilities(seed):
    inst = random_instance(seed, sizes=(3, 3, 5), monotone_bias=True)
    assert inst.U.is_total()
    for x in inst.C.ordered():
        for y in inst.D.ordered():
            assert inst.scalar_saddle_check(x, y) == inst.is_solution(x, y)


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_dual_solution_set_unchanged(seed):
    inst = random_instance(seed, sizes=(3, 3, 5))
    assert inst.dual().solution_set == inst.solution_set
