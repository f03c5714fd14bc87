"""Property-based checks over generated posets and instances."""

import copy
import io
import json
import operator
import random
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from fractions import Fraction
from functools import cache, reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ordeq import (
    GenSpec,
    ObjectiveMap,
    ProblemInstance,
    SetValuedMap,
    ZeroSumGame,
    gen_instance,
    gen_poset,
    grid_poset,
    load_poset,
    product,
)
from ordeq import equilibrium
from ordeq.cli import main as cli_main
from ordeq.errors import CycleDetected, NoSolution, OrdeqError, ValidationError
from ordeq.fileio import (_parse_cells, _rebuild, dump_instance, element_id, instance_digest,
                          parse_instance, parse_instance_dict, replay_report, serialize_instance)
from ordeq.generate import POSET_KINDS

from conftest import FIXTURES
from oracles import (
    CompletenessOracle,
    broadcast_optima,
    cell_mask,
    chains,
    dict_gamma_fixed_points,
    dict_monotonicity,
    dict_phi,
    dict_psi,
    dict_solution_set,
    edge_poset,
    pair_leq,
    pair_lt,
    referee_cells,
    scan_order_matrix,
    scan_ordered,
    warshall,
)

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
    assert np.array_equal(warshall(p.leq_matrix), p.leq_matrix)


@st.composite
def edge_lists(draw):
    """(n, edges) over n <= 40 nodes: self-loops and repeats included, and
    cycles unless the edges were drawn pointing forward."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if draw(st.booleans()):
        edges = [tuple(sorted(e)) for e in edges]
    return n, edges


@given(edge_lists())
@example((0, []))
# a tail into a 6-cycle: 1 reaches 0 only in 5 steps, so the first pair
# related both ways, (0, 1), needs every squaring of the cycle's block
@example((9, [(8, 7), (7, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (5, 6)]))
@settings(max_examples=300, deadline=None)
def test_load_poset_is_the_checked_warshall_closure(case):
    n, edges = case
    names = [f"v{i}" for i in range(n)]
    named = [(names[a], names[b]) for a, b in edges]
    try:
        expected = edge_poset(names, named)
    except CycleDetected as refused:
        with pytest.raises(CycleDetected) as got:
            load_poset(names, named)
        assert str(got.value) == str(refused)
    else:
        assert load_poset(names, named) == expected


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
    assert dict_gamma_fixed_points(inst) == inst.solution_set


def test_kernel_matches_dict_referee():
    # 100 seeds for each poset kind and bias setting: 1000 instances
    checked = 0
    for seed in range(100):
        for kind in POSET_KINDS:
            for bias in (False, True):
                inst = random_instance(seed, sizes=(6, 6, 12), poset_kind=kind,
                                       monotone_bias=bias)
                for x, value in inst.phi_map.entries():
                    assert value == dict_phi(inst, x)
                    assert inst.global_phi(x) == dict_phi(inst, x, inst.D.members)
                for y, value in inst.psi_map.entries():
                    assert value == dict_psi(inst, y)
                    assert inst.global_psi(y) == dict_psi(inst, y, inst.C.members)
                assert inst.solution_set == dict_solution_set(inst)
                checked += 1
    assert checked == 1000


def _reversed_orders(m):
    """The same table over the dual posets of its domain and codomain."""
    dom = m.domain.parent.dual().subset(m.domain.members)
    cod = m.codomain.parent.dual().subset(m.codomain.members)
    return SetValuedMap(dom, cod, dict(m.table))


def _up_down_swapped(flags):
    """The flags by name with upward and downward swapped, as reversing both orders does."""
    swap = {"upward": "downward", "downward": "upward"}
    return {re.sub("upward|downward", lambda m: swap[m[0]], name): flag
            for name, flag in flags.items()}


def test_monotonicity_matches_dict_referee():
    # 100 seeds for each poset kind and bias setting: 1000 instances
    checked = 0
    seen = set()
    for seed in range(100, 200):
        for kind in POSET_KINDS:
            for bias in (False, True):
                inst = random_instance(seed, sizes=(6, 6, 12), poset_kind=kind,
                                       monotone_bias=bias)
                phi, psi = dict_monotonicity(inst.phi_map), dict_monotonicity(inst.psi_map)
                assert asdict(inst.phi_monotonicity) == phi
                assert asdict(inst.psi_monotonicity) == psi
                # the descending climb reads the same flags, in the orders of C and D
                hyp = inst.check_hypotheses((inst.C.ordered()[0], inst.D.ordered()[0]),
                                            direction="minimal")
                assert asdict(hyp.phi_monotonicity) == phi
                assert asdict(hyp.psi_monotonicity) == psi
                # under both orders reversed (the dual instance) upward and downward swap
                assert dict_monotonicity(_reversed_orders(inst.phi_map)) == _up_down_swapped(phi)
                assert dict_monotonicity(_reversed_orders(inst.psi_map)) == _up_down_swapped(psi)
                seen.update(phi.items())
                checked += 1
    assert checked == 1000
    # every flag was seen both holding and failing
    assert all((name, flag) in seen for name in phi for flag in (True, False))


def test_row_chunked_tables_match_dict_referee():
    # _optima on each row alone must give the same optima as on the whole table
    for seed in range(20):
        inst = random_instance(seed, sizes=(6, 6, 12), poset_kind=POSET_KINDS[seed % 5])
        assert all(v == dict_phi(inst, x) for x, v in inst.phi_map.entries())
        assert all(v == dict_psi(inst, y) for y, v in inst.psi_map.entries())
        assert inst.solution_set == dict_solution_set(inst)
        values, lt = inst._values, inst._lt
        for mask, V, F, lowest in ((inst._phi_mask, values, inst._F, True),
                                   (inst._psi_mask, values.T, inst._G, False)):
            rows = [equilibrium._optima(V[[r]], F[[r]], lt, lowest)[0] for r in range(len(V))]
            assert np.array_equal(mask, np.array(rows))


def _strict_order(U):
    return U.leq_matrix & ~np.eye(len(U), dtype=bool)


def _masks_match_broadcast(inst):
    T, F, G, lt = inst._T, inst._F, inst._G, _strict_order(inst.U)
    assert np.array_equal(inst._phi_mask, broadcast_optima(T, F, lt))
    assert np.array_equal(inst._psi_mask, broadcast_optima(T.T, G, lt.T))


def _gen_sweep():
    """100 seeds for each poset kind and bias setting, densities 0 to 6/7:
    1000 instances, with a chain U under the bias and a random poset U without."""
    for seed in range(100, 200):
        for kind in POSET_KINDS:
            for bias in (False, True):
                yield random_instance(seed, sizes=(6, 6, 12), poset_kind=kind,
                                      monotone_bias=bias, density=seed % 7 / 7)


def test_optima_match_broadcast_referee_on_the_gen_sweep():
    totals = set()
    for inst in _gen_sweep():
        _masks_match_broadcast(inst)
        totals.add(inst.U.is_total())
    assert totals == {True, False}


def test_map_masks_match_cell_referee_on_the_gen_sweep():
    for inst in _gen_sweep():
        for m in (inst.F, inst.G, inst.phi_map, inst.psi_map):
            for s in (m.domain, m.codomain):
                assert s.ordered() == scan_ordered(s)
                assert np.array_equal(s.order_matrix(), scan_order_matrix(s))
            assert np.array_equal(m.mask(), cell_mask(m))


def _grid_game(k, payoff):
    X = grid_poset((k, k))
    return ZeroSumGame(X.full_subset(), X.full_subset(),
                       {(x, y): payoff(x, y) for x in X.elements for y in X.elements}).instance


def test_optima_match_broadcast_referee_on_grid_games():
    # the 16x16 long utility chain, and an 8x8 game whose payoffs are all
    # distinct, so that |U| = |C| * |D|
    long_chain = _grid_game(16, lambda x, y: (x[0] + 16 * x[1]) - Fraction(y[0] + 16 * y[1], 4))
    distinct = _grid_game(8, lambda x, y: 64 * (x[0] + 8 * x[1]) + y[0] + 8 * y[1])
    assert (len(long_chain.U), len(distinct.U)) == (1276, 4096)
    # the scale family, doubled to integer payoffs
    scale = _grid_game(24, lambda x, y: 2 * (x[0] + 2 * x[1]) - (3 * y[0] + y[1]))
    for game in (long_chain, distinct, scale):
        _masks_match_broadcast(game)
    # the global maps read one cached unconstrained instance: per-row optima,
    # each converting the 4096 x 4096 order, took 2.56 s here
    started = time.perf_counter()
    phis = {x: distinct.global_phi(x) for x in distinct.C.ordered()}
    psis = {y: distinct.global_psi(y) for y in distinct.D.ordered()}
    elapsed = time.perf_counter() - started
    assert all(v == dict_phi(distinct, x, distinct.D.members) for x, v in phis.items())
    assert all(v == dict_psi(distinct, y, distinct.C.members) for y, v in psis.items())
    assert elapsed < 0.5, f"global maps took {elapsed:.2f} s"


# -- the rank kernel of a total U against the boolean-matmul referee ------------
#
# A total U compares T's values by rank: phi and psi are the feasible row
# minima and column maxima, and a certificate's violators are rank
# comparisons.  The matmul kernel on U's strict order, which a non-total U
# still uses, referees every case: chains from gen, generic-payoff games,
# their transposes, reductions and duals, and a declared chain whose element
# order is not its order, so that its ranks are not its codes.


def _rank_kernel_matches_matmul(inst):
    assert inst.U.is_total() and inst._lt is None
    lt = _strict_order(inst.U)
    T, F, G = inst._T, inst._F, inst._G
    phi = equilibrium._optima(T, F, lt, lowest=True)
    psi = equilibrium._optima(T.T, G, lt, lowest=False)
    assert np.array_equal(inst._phi_mask, phi)
    assert np.array_equal(inst._psi_mask, psi)
    assert inst.solution_set == frozenset(inst._pairs(phi & psi.T))
    cs, ds = inst.C.ordered(), inst.D.ordered()
    rows_of = [np.flatnonzero(g) for g in G]
    for i, x in enumerate(cs):
        cols = np.flatnonzero(F[i])
        for j, y in enumerate(ds):
            cert, rows = inst.solution_certificate(x, y), rows_of[j]
            assert cert.row_violators == tuple(cs[r] for r in rows[lt[T[i, j], T[rows, j]]])
            assert cert.col_violators == tuple(ds[c] for c in cols[lt[T[i, cols], T[i, j]]])
            assert inst.scalar_saddle_check(x, y) == inst.is_solution(x, y)


def _with_transforms(inst):
    return (inst, inst.reduce_to_oep(), inst.reduce_to_oep("F"), inst.dual())


def test_rank_kernel_matches_matmul_on_the_gen_sweep():
    chains_seen = 0
    for inst in _gen_sweep():
        if inst.U.is_total():
            chains_seen += 1
            for case in _with_transforms(inst):
                _rank_kernel_matches_matmul(case)
        else:
            assert inst._lt is not None
    assert chains_seen >= 500  # every monotone-bias instance has a chain U


def _generic_game(rng, k, constrained):
    """A k x k grid game whose payoffs are all distinct rationals, in random order."""
    X = grid_poset((k, k))
    C = D = X.full_subset()
    values = rng.sample(range(-10**6, 10**6), k ** 4)
    payoff = {(x, y): Fraction(values.pop(), 7) for x in X.elements for y in X.elements}
    F = G = None
    if constrained:
        F = SetValuedMap(C, D, {x: rng.sample(X.elements, rng.randint(1, k * k)) for x in C})
        G = SetValuedMap(D, C, {y: rng.sample(X.elements, rng.randint(1, k * k)) for y in D})
    return ZeroSumGame(C, D, payoff, F, G, seed=(X.elements[0], X.elements[0]))


def test_rank_kernel_matches_matmul_on_generic_games():
    rng = random.Random(24)
    for k in (1, 2, 3, 4, 5):
        for constrained in (False, True):
            game = _generic_game(rng, k, constrained)
            assert len(game.U) == k ** 4
            for g in (game, game.transpose()):
                for case in (*_with_transforms(g), g.instance):
                    _rank_kernel_matches_matmul(case)


def _shuffled_chain_instance(rng, order):
    """An instance whose U is a chain u0 < u1 < ... declared with its elements in ``order``."""
    U = load_poset([f"u{i}" for i in order],
                   [(f"u{i}", f"u{i + 1}") for i in range(len(order) - 1)])
    X = gen_poset(GenSpec(kind="random_poset", sizes=(4,), rng_seed=rng.randrange(10**6)))
    C = D = X.full_subset()
    T = ObjectiveMap(U, {(x, y): rng.choice(U.elements) for x in X.elements for y in X.elements})
    F = SetValuedMap(C, D, {x: rng.sample(X.elements, rng.randint(1, 4)) for x in C})
    G = SetValuedMap(D, C, {y: rng.sample(X.elements, rng.randint(1, 4)) for y in D})
    return ProblemInstance(C, D, T, F, G, seed=(X.elements[0], X.elements[0]))


def test_rank_kernel_matches_matmul_on_a_chain_declared_out_of_order():
    rng = random.Random(3)
    for order in [(2, 0, 1)] * 40 + [(3, 5, 0, 4, 1, 2)] * 40:
        inst = _shuffled_chain_instance(rng, order)
        assert inst.U._ranks.tolist() == list(order)  # ranks are not codes
        parsed = parse_instance_dict(serialize_instance(inst))
        assert parsed.U.elements == inst.U.elements
        for case in (*_with_transforms(inst), parsed):
            _rank_kernel_matches_matmul(case)


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_ranks_are_the_strict_down_set_sizes_of_a_total_order(seed):
    p = random_poset(seed, n=1 + seed % 6, density=0.5 + seed % 5 / 10)
    leq = p.leq_matrix
    assert p.is_total() == bool((leq | leq.T).all())
    if p.is_total():
        assert p._ranks.tolist() == [int(col.sum()) - 1 for col in leq.T]
    else:
        assert p._ranks is None


def _forced(solve, seed):
    try:
        rep = solve(seed, force=True)
    except NoSolution:
        return None
    return rep.solution, rep.climb_trace


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_minimal_direction_matches_dual_instance(seed):
    # the descending climb reverses the orders in place of building the dual; it
    # reports the instance's own flags, which are the dual's with up and down swapped
    inst = random_instance(seed, sizes=(4, 4, 6), monotone_bias=seed % 2 == 0)
    dual = inst.dual()
    for x in inst.C.ordered():
        for y in inst.D.ordered():
            hyp, dual_hyp = inst.check_hypotheses((x, y), "minimal"), dual.check_hypotheses((x, y))
            assert hyp.phi_monotonicity is inst.phi_monotonicity
            assert hyp.psi_monotonicity is inst.psi_monotonicity
            for rep, dual_rep in ((hyp.phi_monotonicity, dual_hyp.phi_monotonicity),
                                  (hyp.psi_monotonicity, dual_hyp.psi_monotonicity)):
                assert asdict(dual_rep) == _up_down_swapped(asdict(rep))
            assert (hyp.seed, hyp.seed_witness, hyp.passes) == (
                dual_hyp.seed, dual_hyp.seed_witness, dual_hyp.passes)
            assert hyp.failures() == [f.replace("upward", "downward")
                                      for f in dual_hyp.failures()]
            assert _forced(inst.solve_minimal, (x, y)) == _forced(dual.solve_maximal, (x, y))


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_existence_under_hypotheses(seed):
    inst = random_instance(seed, sizes=(3, 3, 5), monotone_bias=True,
                           filter="require_hypotheses")
    assert inst.solution_set
    rep = inst.solve_maximal()
    assert rep.solution in inst.solution_set
    assert pair_leq(inst, rep.seed, rep.solution)
    above = {s for s in inst.solution_set if pair_leq(inst, rep.seed, s)}
    assert not any(pair_lt(inst, rep.solution, t) for t in above)
    # climb soundness
    assert len(rep.climb_trace) <= len(inst.C) * len(inst.D)
    for a, b in zip(rep.climb_trace, rep.climb_trace[1:]):
        assert pair_lt(inst, a, b)


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
            if pair_lt(inst, last, t):
                chains.append(chain + [t])
    for chain in chains:
        top = chain[-1]
        assert all(pair_leq(inst, s, top) for s in chain)
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


# -- the API boundary: a value of the wrong type is refused, or the object round-trips ----

_AB = load_poset(["a", "b", "z"], [["a", "b"]]).subset(["a", "b"])  # z: of X, in no side
_PAIRS = [(x, y) for x in "ab" for y in "ab"]
_OUTSIDE = [("z", "z"), ("a", "z"), ("q", "b")]  # keys outside C x D
_U = load_poset([0, 1, 2], [[0, 1], [1, 2]])
# bools, floats, strs outside U, None and unhashables; some equal an element of U
_WRONG = st.sampled_from([True, False, 0.0, 1.0, 2.5, float("nan"), "1", "u9", "", None, [0], {}])
_SEEDS = st.sampled_from([None, ("a", "a"), ("b", "a"), ("z", "a"), ("a", None), (["a"], "b"),
                          ("a",), True, 1.5])
_PAYOFFS = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4),
                     st.sampled_from(["1/2", "2/4", "-3", "0.5", "1e2", "1/0"]))


@st.composite
def _tables(draw, value):
    """A table of `value`s over C x D, then one or two keys of it or outside C x D set to a
    value, set to a wrong one, or dropped."""
    table = {pair: draw(value) for pair in _PAIRS}
    for _ in range(draw(st.integers(1, 2))):
        pair, edit = draw(st.sampled_from(_PAIRS + _OUTSIDE)), draw(st.sampled_from("swd"))
        if edit == "d":
            table.pop(pair, None)
        else:
            table[pair] = draw(value if edit == "s" else _WRONG)
    return table


def _assert_round_trips(obj):
    """The object's file parses back to the same table, ids for ids, and the same digest."""
    back = parse_instance_dict(serialize_instance(obj))
    ids = [{tuple(map(element_id, pair)): element_id(v) for pair, v in o.T.table.items()}
           for o in (obj, back)]
    assert ids[0] == ids[1]
    assert instance_digest(back) == instance_digest(obj)


@given(_tables(st.integers(0, 2)), _SEEDS)
@example({**dict.fromkeys(_PAIRS, 0), ("a", "a"): True}, None)  # True equals U's 1 but is not it
@example({**dict.fromkeys(_PAIRS, 0), ("z", "z"): 1}, None)  # an entry outside C x D
@settings(max_examples=150, deadline=None, derandomize=True)
def test_problem_instance_refuses_or_round_trips(table, seed):
    try:
        inst = ProblemInstance(_AB, _AB, ObjectiveMap(_U, table), seed=seed)
    except OrdeqError:
        return
    _assert_round_trips(inst)


@given(_tables(_PAYOFFS), _SEEDS)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_zero_sum_game_refuses_or_round_trips(payoff, seed):
    try:
        game = ZeroSumGame(_AB, _AB, payoff, seed=seed)
    except OrdeqError:
        return
    _assert_round_trips(game)


_GEN_FIELDS = {  # name: its right values, when it is given
    "rng_seed": st.integers(0, 99), "density": st.floats(0, 1), "monotone_bias": st.booleans(),
    "filter": st.sampled_from(["none", "require_hypotheses"]),
    "poset_kind": st.sampled_from(POSET_KINDS), "max_retries": st.integers(1, 3)}


@st.composite
def _gen_fields(draw):
    """GenSpec's keyword arguments, right for the kind, then up to two of them wrong."""
    kind = draw(st.sampled_from(("random_instance",) * 5 + POSET_KINDS))  # half instances
    n = {"random_instance": 3, "grid": 2}.get(kind, 1)
    fields = {"kind": kind, "sizes": draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
              **draw(st.fixed_dictionaries({}, optional=_GEN_FIELDS))}
    for name in draw(st.sets(st.sampled_from(["kind", "sizes", *_GEN_FIELDS]), max_size=2)):
        fields[name] = draw(st.one_of(_WRONG, st.lists(st.one_of(st.integers(-1, 4), _WRONG),
                                                       max_size=3)))
    return fields


@given(_gen_fields())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_gen_spec_refuses_or_round_trips(fields):
    try:
        spec = GenSpec(**fields)
        made = gen_instance(spec) if spec.kind == "random_instance" else gen_poset(spec)
    except OrdeqError:
        return
    if spec.kind == "random_instance":
        _assert_round_trips(made)


# -- the file boundary: a mutated document exits 0-3 and round-trips, and its reports replay --

_HOSTILE = ["1e5000", "1/0", True, False, 1.5, None, 0, 0.0, 1, -7, "", "zz", [], {}, ["c0"], {"k": 1}]
_SPELLINGS = ["-3", "2/4", " 1/2", "+1", "0.25", "1e2"]  # rationals a payoff may be
_OPS = [["validate"], ["check"], ["solve", "--force"], ["enumerate"], ["game"]]
# a report's own choices, which another value may still verify: every other field is computed
_FREE = {"elapsed_seconds", "seed", "direction", "solution", "climb_trace"}


_DOCS = {**{name: json.loads(Path(FIXTURES[name]).read_text(encoding="utf-8"))
             for name in ("i1", "i2", "i3", "game2x2", "game3x3")},
         "gen": serialize_instance(random_instance(7, sizes=(3, 3, 4)))}


def _children(node) -> list:
    """(key, child) for each child of a JSON object or array; a scalar has none."""
    if isinstance(node, dict):
        return list(node.items())
    return list(enumerate(node)) if isinstance(node, list) else []


def _paths(node, path=()):
    """The path of every node under a JSON document's root, the root's own aside."""
    for key, child in _children(node):
        yield (*path, key)
        yield from _paths(child, (*path, key))


def _strings(node):
    if isinstance(node, str):
        yield node
    for _, child in _children(node):
        yield from _strings(child)


@st.composite
def _mutation(draw, doc):
    """(a copy of doc with one node mutated, that node's path): replaced by a hostile value
    or a rational's spelling, dropped, duplicated (a list element) or copied under a new key
    (an object), swapped with a sibling, or, as an id, replaced by another string of doc."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent, key = reduce(lambda node, k: node[k], path[:-1], doc), path[-1]
    edit = draw(st.sampled_from(["replace", "drop", "duplicate", "swap", "respell"]))
    if edit == "replace":
        parent[key] = draw(st.sampled_from(_HOSTILE + _SPELLINGS))
    elif edit == "drop":
        del parent[key]
    elif edit == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif edit == "duplicate":
        parent[f"{key}+"] = copy.deepcopy(parent[key])
    elif edit == "swap":
        other = draw(st.sampled_from([k for k, _ in _children(parent)]))
        parent[key], parent[other] = parent[other], parent[key]
    else:
        parent[key] = draw(st.sampled_from(sorted(set(_strings(doc)))))
    return doc, path


def _cli(*argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli_main(list(argv))


def _payoff_set(value):
    doc = copy.deepcopy(_DOCS["game2x2"])
    doc["payoff"][1][2] = value
    return doc, ("payoff", 1, 2)


@given(st.sampled_from(sorted(_DOCS)).flatmap(lambda name: _mutation(_DOCS[name])))
@example(_payoff_set("1e5000"))  # no string form under the int digit limit: _as_fraction refuses it
@example(_payoff_set("1/0"))
@example(_payoff_set(True))
@example(_payoff_set(1.5))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_mutated_document_exits_0_to_3_and_round_trips(mutation):
    doc, _ = mutation
    with tempfile.TemporaryDirectory() as tmp:
        path, reports = Path(tmp, "doc.json"), []
        path.write_text(json.dumps(doc), encoding="utf-8")
        for k, op in enumerate(_OPS):
            report = Path(tmp, f"report{k}.json")
            code = _cli(*op, str(path), *(["--report", str(report)] if k else []))
            assert code in (0, 1, 2, 3), (op, code)
            if k == 0 and code:
                return  # refused, so every op refuses it too
            if report.exists():
                reports.append(json.loads(report.read_text(encoding="utf-8")))
        inst, dumps = parse_instance(path), [Path(tmp, "dump1.json"), Path(tmp, "dump2.json")]
        dump_instance(inst, dumps[0])
        again = parse_instance(dumps[0])
        assert instance_digest(again) == instance_digest(inst)
        dump_instance(again, dumps[1])
        assert dumps[1].read_bytes() == dumps[0].read_bytes()
        for report in reports:
            assert replay_report(report, inst), report["command"]


def _wide_table() -> tuple:
    """("T", rows, C, D) in the style of the wide-oracle workload: 32-element antichains X and Y,
    C the first 24 elements of X, so that X's other 8 ids are no members, and 16 values."""
    rng = random.Random(1)
    xs, ys = [f"c{i}" for i in range(32)], [f"d{i}" for i in range(32)]
    rows = [[x, y, f"u{rng.randrange(16)}"] for x in xs[:24] for y in ys]
    return "T", rows, load_poset(xs).subset(xs[:24]), load_poset(ys).subset(ys)


def _document_table(doc) -> tuple:
    """(section, rows, C, D) of a document's T or payoff table."""
    obj, section = parse_instance_dict(doc), "payoff" if doc["mode"] == "game" else "T"
    return section, doc[section], obj.C, obj.D


_TABLES = {**{name: _document_table(doc) for name, doc in _DOCS.items()}, "wide": _wide_table()}


@st.composite
def _edited_table(draw):
    """(section, rows, C, D): a table's rows after one to three edits, each a shuffle, a row
    dropped or duplicated, the table or a row cut short, or one id or both replaced by a
    hostile value or by an element id of X or Y."""
    section, rows, C, D = _TABLES[draw(st.sampled_from(sorted(_TABLES)))]
    rows, ids = copy.deepcopy(rows), [*C.parent.elements, *D.parent.elements]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["shuffle", "drop", "duplicate", "truncate", "ids"]))
        if edit == "shuffle":
            random.Random(draw(st.integers(0, 2**32))).shuffle(rows)
            continue
        if not rows:
            continue
        k = draw(st.integers(0, len(rows) - 1))
        if edit == "drop":
            del rows[k]
        elif edit == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), copy.deepcopy(rows[k]))
        elif edit == "truncate" and draw(st.booleans()):
            del rows[k:]
        elif edit == "truncate":
            rows[k] = rows[k][:draw(st.integers(0, 2))]
        elif len(rows[k]) == 3:
            for slot in draw(st.sampled_from([(0,), (1,), (0, 1)])):
                rows[k][slot] = draw(st.sampled_from(_HOSTILE + ids))
    return section, rows, C, D


def _cells_or_refusal(parse, section, rows, C, D):
    try:
        return parse(section, rows, C, D)
    except ValidationError as exc:
        return str(exc)


@given(_edited_table())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_cells_lays_out_or_refuses_rows_as_the_referee_does(table):
    got, want = (_cells_or_refusal(parse, *table) for parse in (_parse_cells, referee_cells))
    if isinstance(want, str):
        assert got == want
    else:  # each cell holds its row's own value object
        assert len(got) == len(want) and all(map(operator.is_, got, want))


@cache
def _written_reports() -> dict:
    """(instance, report) for every report the CLI writes on the unmutated documents, by
    document name and command."""
    written = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in sorted(_DOCS.items()):
            path = Path(tmp, f"{name}.json")
            path.write_text(json.dumps(doc), encoding="utf-8")
            for k, op in enumerate(_OPS[1:]):
                report = Path(tmp, f"{name}-{k}.json")
                _cli(*op, str(path), "--report", str(report))
                if report.exists():
                    written[name, op[0]] = (parse_instance(path),
                                            json.loads(report.read_text(encoding="utf-8")))
    return written


def _text(doc) -> str:
    return json.dumps(doc, sort_keys=True)


@given(st.deferred(lambda: st.sampled_from(list(_written_reports().values()))).flatmap(
    lambda written: st.tuples(st.just(written), _mutation(written[1]))))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_report_with_one_field_mutated_fails_replay_or_raises_ordeq_error(case):
    (inst, written), (report, path) = case
    try:
        verified = replay_report(report, inst)
    except OrdeqError:
        return
    if not _FREE & set(path):  # its choices are the written report's, so it must be that text
        assert verified is (_text(report) == _text(written)), path
    elif verified:  # it must be the text this program writes with its own choices
        assert _text(report) == _text(_rebuild(report, inst)), path


@pytest.mark.parametrize("path, value", [
    (("exit_code",), False), (("exit_code",), 0.0), (("existence_guaranteed",), 1),
    (("hypotheses", "passes"), 1), (("certificates", 0, "ok"), 1)])
def test_report_with_a_value_equal_only_in_python_fails_replay(path, value):
    """The written i1 solve report with one value that equals the written one in Python but
    not in JSON (false or 0.0 for 0, 1 for true) does not replay."""
    inst, written = _written_reports()["i1", "solve"]
    report = copy.deepcopy(written)
    reduce(lambda node, k: node[k], path[:-1], report)[path[-1]] = value
    assert replay_report(report, inst) is False
