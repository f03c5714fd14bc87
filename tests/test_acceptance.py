"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything here is property- or oracle-based at desk scale: generated
instances are capped at |C|, |D| <= 6 and |U| <= 12, and the committed
fixtures carry oracle-derived expected values.  Run with ``pytest -s`` to
see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from ordeq import GenSpec, gen_instance, gen_poset, parse_instance
from ordeq.cli import main as cli_main
from ordeq.errors import FilterExhausted, NoSolution
from ordeq.games import solve_game

from conftest import FIXTURES
from oracles import CompletenessOracle, dict_gamma_fixed_points, pair_leq, pair_lt, referee_pick

POSET_KINDS_CYCLE = ("random_poset", "grid", "chain", "antichain", "boolean_lattice")


def _sizes(rng):
    return (rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 12))


@pytest.fixture(scope="module")
def unfiltered_batch():
    """700 unfiltered instances of mixed shapes and biases."""
    started = time.perf_counter()
    rng = random.Random(777)
    out = []
    for seed in range(700):
        spec = GenSpec(
            kind="random_instance",
            sizes=_sizes(rng),
            rng_seed=seed,
            monotone_bias=seed % 3 == 0,
            poset_kind=POSET_KINDS_CYCLE[seed % len(POSET_KINDS_CYCLE)],
        )
        out.append(gen_instance(spec))
    return out, time.perf_counter() - started


@pytest.fixture(scope="module")
def filtered_batch():
    """>= 300 instances passing check_hypotheses at their recorded seed."""
    started = time.perf_counter()
    rng = random.Random(20240901)
    out = []
    seed = 0
    while len(out) < 300:
        spec = GenSpec(
            kind="random_instance",
            sizes=(rng.randint(1, 6), rng.randint(1, 6), rng.randint(2, 12)),
            rng_seed=10_000 + seed,
            monotone_bias=True,
            filter="require_hypotheses",
            poset_kind=("random_poset", "grid", "chain")[seed % 3],
            max_retries=60,
        )
        seed += 1
        try:
            out.append(gen_instance(spec))
        except FilterExhausted:
            continue
    return out, time.perf_counter() - started


@pytest.fixture(scope="module")
def theorem_runs(filtered_batch):
    """solve_maximal reports for every filtered instance (criteria 2 and 9)."""
    instances, _ = filtered_batch
    return [(inst, inst.solve_maximal()) for inst in instances]


@pytest.fixture(scope="module")
def bounded_increasing_runs():
    """>= 100 instances with phi, psi increasing both ways on bounded C, D."""
    rng = random.Random(123)
    runs = []
    seed = 0
    while len(runs) < 100:
        spec = GenSpec(
            kind="random_instance",
            sizes=(rng.randint(2, 5), rng.randint(2, 5), rng.randint(4, 12)),
            rng_seed=30_000 + seed,
            monotone_bias=True,
            poset_kind="chain" if seed % 2 else "grid",
        )
        seed += 1
        inst = gen_instance(spec)
        if not (inst.phi_monotonicity.increasing and inst.psi_monotonicity.increasing):
            continue
        bounds = (inst.C.greatest(), inst.C.least(), inst.D.greatest(), inst.D.least())
        if any(b is None for b in bounds):
            continue
        bottom = (inst.C.least(), inst.D.least())
        top = (inst.C.greatest(), inst.D.greatest())
        runs.append((inst, inst.solve_maximal(bottom), inst.solve_minimal(top)))
    return runs


@pytest.fixture(scope="module")
def singleton_runs():
    """>= 100 instances with singleton-valued increasing phi, psi and a seed."""
    rng = random.Random(321)
    runs = []
    seed = 0
    while len(runs) < 100:
        spec = GenSpec(
            kind="random_instance",
            sizes=(rng.randint(2, 4), rng.randint(2, 4), 12),
            rng_seed=50_000 + seed,
            monotone_bias=True,
            poset_kind="chain" if seed % 3 else "random_poset",
        )
        seed += 1
        inst = gen_instance(spec)
        if not (inst.phi_map.is_singleton_valued() and inst.psi_map.is_singleton_valued()):
            continue
        if not (
            inst.phi_monotonicity.increasing_upward
            and inst.psi_monotonicity.increasing_upward
        ):
            continue
        witness_seed = None
        for x in inst.C.ordered():
            for y in inst.D.ordered():
                if inst.check_hypotheses((x, y)).seed_condition:
                    witness_seed = (x, y)
                    break
            if witness_seed:
                break
        if witness_seed is None:
            continue
        runs.append((inst, witness_seed, inst.solve_maximal(witness_seed)))
    return runs


def test_criterion_1_oracle_identity(unfiltered_batch, filtered_batch):
    """Fixed points of gamma equal the brute-forced solution set, instance by instance."""
    started = time.perf_counter()
    unfiltered, gen_a = unfiltered_batch
    filtered, gen_b = filtered_batch
    instances = unfiltered + filtered
    assert len(instances) >= 1000
    mismatches = 0
    for inst in instances:
        if dict_gamma_fixed_points(inst) != inst.solution_set:
            mismatches += 1
    assert mismatches == 0
    elapsed = gen_a + gen_b + (time.perf_counter() - started)
    assert elapsed < 300.0
    print(
        f"\n[acceptance] criterion 1 (oracle identity, {len(instances)} instances, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_2_existence_theorem(theorem_runs):
    """Hypotheses passing implies a nonempty solution set and a valid maximal solve."""
    assert len(theorem_runs) >= 300
    for inst, rep in theorem_runs:
        assert rep.hypotheses.passes
        assert inst.solution_set, "solution set must be nonempty under the hypotheses"
        s = rep.solution
        assert s in inst.solution_set
        assert pair_leq(inst, rep.hypotheses.seed, s)
        above = {t for t in inst.solution_set if pair_leq(inst, rep.hypotheses.seed, t)}
        assert not any(pair_lt(inst, s, t) for t in above)
        # the highest solution is the count referee's first extremal cell
        assert (inst._row(s[0]), inst._col(s[1])) == referee_pick(inst, rep)
    print(f"\n[acceptance] criterion 2 (existence, {len(theorem_runs)} instances): PASS")


def test_criterion_3_bi_directional_bounded(bounded_increasing_runs):
    """Increasing-both-ways maps on bounded C, D solve in both directions."""
    assert len(bounded_increasing_runs) >= 100
    for inst, up, down in bounded_increasing_runs:
        assert up.solution in inst.solution_set
        assert pair_leq(inst, up.hypotheses.seed, up.solution)
        assert down.solution in inst.solution_set
        assert pair_leq(inst, down.solution, down.hypotheses.seed)
    print(
        f"\n[acceptance] criterion 3 (bounded bi-directional, "
        f"{len(bounded_increasing_runs)} instances): PASS"
    )


def test_criterion_4_singleton_maps(singleton_runs):
    """Singleton-valued increasing phi, psi with a witnessed seed always solve."""
    assert len(singleton_runs) >= 100
    for inst, seed, rep in singleton_runs:
        assert rep.solution in inst.solution_set
        assert pair_leq(inst, seed, rep.solution)
    print(f"\n[acceptance] criterion 4 (singleton maps, {len(singleton_runs)} instances): PASS")


def test_criterion_5_scalar_equivalence(unfiltered_batch, filtered_batch):
    """is_solution and the scalar saddle test agree wherever U is a total order."""
    instances = unfiltered_batch[0] + filtered_batch[0]
    checked_pairs = 0
    total_instances = 0
    for inst in instances:
        if not inst.U.is_total():
            continue
        total_instances += 1
        for x in inst.C.ordered():
            for y in inst.D.ordered():
                assert inst.scalar_saddle_check(x, y) == inst.is_solution(x, y)
                checked_pairs += 1
    assert total_instances > 100
    print(
        f"\n[acceptance] criterion 5 (scalar equivalence, {total_instances} "
        f"instances, {checked_pairs} pairs): PASS"
    )


def test_criterion_6_negative_control():
    """Matching pennies: empty solution set, failed hypotheses, forced NoSolution."""
    inst = parse_instance(FIXTURES["i3"])
    assert inst.solution_set == frozenset()
    hyp = inst.check_hypotheses(("c0", "d0"))
    assert not hyp.phi_monotonicity.increasing_upward
    assert not hyp.passes
    with pytest.raises(NoSolution):
        inst.solve_maximal(("c0", "d0"), force=True)
    assert cli_main(["solve", FIXTURES["i3"], "--force"]) == 3
    assert cli_main(["check", FIXTURES["i3"]]) == 2
    print("\n[acceptance] criterion 6 (negative control): PASS")


def test_criterion_7_finite_completeness():
    """All four completeness flags hold on >= 10^4 sampled nonempty subsets.

    The solver takes this as a theorem; the chain-enumerating oracle checks it.
    """
    rng = random.Random(0xC0FFEE)
    kinds = [
        ("random_poset", lambda: (rng.randint(2, 10),)),
        ("chain", lambda: (rng.randint(2, 10),)),
        ("antichain", lambda: (rng.randint(2, 10),)),
        ("boolean_lattice", lambda: (rng.randint(1, 3),)),
        ("grid", lambda: (rng.randint(2, 3), rng.randint(2, 3))),
    ]
    samples = 0
    for i in range(120):
        kind, size_fn = kinds[i % len(kinds)]
        poset = gen_poset(
            GenSpec(kind=kind, sizes=size_fn(), rng_seed=i, density=rng.random())
        )
        oracle = CompletenessOracle(poset.leq_matrix)
        for _ in range(85):
            members = rng.sample(range(len(poset)), rng.randint(1, len(poset)))
            assert all(oracle.flags(members))
            samples += 1
    assert samples >= 10_000
    print(f"\n[acceptance] criterion 7 (finite completeness, {samples} subsets): PASS")


def test_criterion_8_game_fixtures():
    """Both committed game fixtures match their oracle-derived expectations."""
    game = parse_instance(FIXTURES["game2x2"])
    result = solve_game(game)
    top = "1,1"
    assert result.report.solution == (top, top)
    assert result.value == 0
    x, y = result.report.solution
    assert all(game.payoff[(x2, y)] <= result.value for x2 in game.G(y))
    assert all(result.value <= game.payoff[(x, y2)] for y2 in game.F(x))

    constrained = parse_instance(FIXTURES["game3x3"])
    with open(FIXTURES["game3x3_expected"], "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    expected_set = {tuple(pair) for pair in expected["solutions"]}
    assert constrained.instance.solution_set == expected_set

    # independent re-derivation on raw rationals, bypassing the utility poset
    oracle = set()
    for x in constrained.C.ordered():
        for y in constrained.D.ordered():
            if x not in constrained.G(y) or y not in constrained.F(x):
                continue
            v = constrained.payoff[(x, y)]
            if any(constrained.payoff[(x2, y)] > v for x2 in constrained.G(y)):
                continue
            if any(constrained.payoff[(x, y2)] < v for y2 in constrained.F(x)):
                continue
            oracle.add((x, y))
    assert oracle == expected_set

    res3 = solve_game(constrained)
    assert res3.report.solution == tuple(expected["equilibrium"])
    assert res3.value == Fraction(expected["value"])
    print(
        f"\n[acceptance] criterion 8 (game fixtures, |S|={len(expected_set)}): PASS"
    )


def test_criterion_9_climb_bound(theorem_runs, bounded_increasing_runs, singleton_runs):
    """Every climb trace strictly ascends (descends for minimal) within |C|*|D| steps."""
    traces = 0

    def check(inst, rep):
        nonlocal traces
        bound = len(inst.C) * len(inst.D)
        assert len(rep.climb_trace) <= bound
        for a, b in zip(rep.climb_trace, rep.climb_trace[1:]):
            if rep.hypotheses.direction == "maximal":
                assert pair_lt(inst, a, b)
            else:
                assert pair_lt(inst, b, a)
        traces += 1

    for inst, rep in theorem_runs:
        check(inst, rep)
    for inst, up, down in bounded_increasing_runs:
        check(inst, up)
        check(inst, down)
    for inst, _, rep in singleton_runs:
        check(inst, rep)
    for name in ("game2x2", "game3x3"):
        game = parse_instance(FIXTURES[name])
        result = solve_game(game)
        check(game.instance, result.report)
    assert traces >= 500
    print(f"\n[acceptance] criterion 9 (climb bound, {traces} traces): PASS")
