"""Monotone climb solver: traces, promotion, duals, forced runs."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ordeq import (
    ObjectiveMap,
    ProblemInstance,
    ZeroSumGame,
    constant_map,
    grid_poset,
    load_poset,
    parse_instance,
    solve_game,
)
from ordeq.errors import HypothesisFailed, NoSolution

from conftest import FIXTURES, chain, int_chain
from oracles import extremal_mask, pair_leq, pair_lt


class TestSolveMaximal:
    def test_i2_trace(self, i2):
        rep = i2.solve_maximal(("c0", "d0"))
        assert rep.solution == ("c1", "d1")
        assert rep.climb_trace == (("c0", "d0"), ("c1", "d0"), ("c1", "d1"))
        assert rep.hypotheses.passes
        assert rep.certificate.pair == rep.solution and rep.certificate.ok

    def test_i1(self, i1):
        rep = i1.solve_maximal(("c0", "d0"))
        assert rep.solution == ("c1", "d1")

    def test_i3_forced_has_no_solution(self, i3):
        with pytest.raises(NoSolution):
            i3.solve_maximal(("c0", "d0"), force=True)

    def test_i3_unforced_raises_hypothesis_failed(self, i3):
        with pytest.raises(HypothesisFailed) as err:
            i3.solve_maximal(("c0", "d0"))
        assert err.value.report is not None
        assert not err.value.report.phi_monotonicity.increasing_upward

    def test_instance_seed_used_by_default(self, i2):
        assert i2.solve_maximal().solution == ("c1", "d1")

    def test_maximal_promotion_contract(self, constant_objective):
        # every pair solves; from the bottom seed the promoted solution is the top
        rep = constant_objective.solve_maximal(("c0", "d0"))
        assert rep.solution == ("c1", "d1")
        above = {s for s in constant_objective.solution_set
                 if pair_leq(constant_objective, rep.hypotheses.seed, s)}
        assert not any(pair_lt(constant_objective, rep.solution, t) for t in above)

    def test_solution_above_seed(self, constant_objective):
        rep = constant_objective.solve_maximal(("c1", "d0"))
        assert pair_leq(constant_objective, ("c1", "d0"), rep.solution)
        assert rep.solution == ("c1", "d1")

    def test_trace_is_strictly_ascending_and_bounded(self, i1, i2, constant_objective):
        for inst in (i1, i2, constant_objective):
            rep = inst.solve_maximal(("c0", "d0"))
            assert len(rep.climb_trace) <= len(inst.C) * len(inst.D)
            for a, b in zip(rep.climb_trace, rep.climb_trace[1:]):
                assert pair_lt(inst, a, b)


# a solve claims one pair: the solution set is the instance's, and no solve builds it
@pytest.mark.parametrize("name, solve", [
    ("i2", lambda inst: inst.solve_maximal(("c0", "d0"))),
    ("i2", lambda inst: inst.solve_maximal(("c0", "d0"), force=True)),
    ("i1", lambda inst: inst.solve_minimal(("c1", "d1"))),
    ("i1", lambda inst: inst.solve_minimal(("c1", "d1"), force=True)),
    ("game2x2", solve_game),
], ids=["maximal", "maximal-forced", "minimal", "minimal-forced", "game"])
def test_a_solve_builds_no_solution_set(name, solve):
    inst = parse_instance(FIXTURES[name])
    solve(inst)
    assert "solution_set" not in inst.__dict__


class TestSolveMinimal:
    def test_constant_objective_descends_to_bottom(self, constant_objective):
        rep = constant_objective.solve_minimal(("c1", "d1"))
        assert rep.solution == ("c0", "d0")
        assert rep.hypotheses.direction == "minimal"
        assert constant_objective.solution_set == {
            (x, y)
            for x in constant_objective.C.ordered()
            for y in constant_objective.D.ordered()
        }

    def test_i1_unique_solution(self, i1):
        rep = i1.solve_minimal(("c1", "d1"))
        assert rep.solution == ("c1", "d1")

    def test_i2_dual_run_from_top(self, i2):
        rep = i2.solve_minimal(("c1", "d1"))
        assert rep.solution == ("c1", "d1")

    def test_trace_descends(self, constant_objective):
        rep = constant_objective.solve_minimal(("c1", "d1"))
        for a, b in zip(rep.climb_trace, rep.climb_trace[1:]):
            assert pair_lt(constant_objective, b, a)

    def test_minimality_contract(self, constant_objective):
        rep = constant_objective.solve_minimal(("c1", "d1"))
        below = {
            s for s in constant_objective.solution_set
            if pair_leq(constant_objective, s, ("c1", "d1"))
        }
        assert not any(pair_lt(constant_objective, t, rep.solution) for t in below)


class TestStrandedClimb:
    def stranded_instance(self):
        # C an antichain makes gamma point sideways from the seed: the
        # climb strands at a non-fixed point, but a solution still exists
        # above the seed and the forced fallback scan must find it.
        X = load_poset(["a0", "a1"])
        Y = chain("d", 2)
        C, D = X.full_subset(), Y.full_subset()
        payoff = {("a0", "d0"): 0, ("a0", "d1"): 0, ("a1", "d0"): 1, ("a1", "d1"): -1}
        U = int_chain(-1, 1)
        return ProblemInstance(
            C, D, ObjectiveMap(U, payoff), constant_map(C, D), constant_map(D, C)
        )

    def test_forced_fallback_finds_solution(self):
        inst = self.stranded_instance()
        assert inst.solution_set == {("a0", "d1")}
        assert not inst.check_hypotheses(("a0", "d0")).passes
        rep = inst.solve_maximal(("a0", "d0"), force=True)
        assert rep.solution == ("a0", "d1")
        assert not rep.hypotheses.passes

    def test_gamma_points_sideways(self):
        inst = self.stranded_instance()
        gam = inst.gamma("a0", "d0")
        assert all(not pair_leq(inst, ("a0", "d0"), q) for q in gam)


class TestDualInstance:
    def test_dual_of_dual_is_value_equal(self, i2):
        dd = i2.dual().dual()
        assert dd.C.parent == i2.C.parent
        assert dd.solution_set == i2.solution_set

    def test_solution_set_invariant_under_dual(self, i1, i2, i3):
        for inst in (i1, i2, i3):
            assert inst.dual().solution_set == inst.solution_set

    def test_dual_hypotheses_are_downward_monotonicity(self, i2):
        rep = i2.dual().check_hypotheses(("c1", "d1"))
        assert (
            rep.phi_monotonicity.increasing_upward
            == i2.phi_monotonicity.increasing_downward
        )


class TestChainGameScale:
    def test_twenty_chain_game_checks_and_solves_quickly(self):
        # checking the hypotheses once enumerated every chain of both
        # strategy posets (2**20 - 1 each): over 20 s on a 2-core machine
        C, D = chain("c", 20).full_subset(), chain("d", 20).full_subset()
        payoff = {(f"c{i}", f"d{j}"): i - j for i in range(20) for j in range(20)}
        inst = ZeroSumGame(C, D, payoff, seed=("c0", "d0")).instance
        started = time.perf_counter()
        hyp = inst.check_hypotheses()
        rep = inst.solve_maximal()
        elapsed = time.perf_counter() - started
        assert hyp.passes and hyp.values_universally_inductive
        assert rep.solution == ("c19", "d19")
        assert elapsed < 2.0, f"check + solve took {elapsed:.2f} s"


class TestGridGameScale:
    def test_sixteen_grid_game_builds_checks_and_solves_quickly(self):
        # 65 536 pairs: the per-pair oracle alone took about 3 s on an 8x8 grid
        started = time.perf_counter()
        X = grid_poset((16, 16))
        C, D = X.full_subset(), X.full_subset()
        payoff = {
            (x, y): (x[0] + 2 * x[1]) - Fraction(3 * y[0] + y[1], 2)
            for x in X.elements
            for y in X.elements
        }
        inst = ZeroSumGame(C, D, payoff, seed=((0, 0), (0, 0))).instance
        hyp = inst.check_hypotheses()
        rep = inst.solve_maximal()
        elapsed = time.perf_counter() - started
        assert hyp.passes
        assert rep.solution == ((15, 15), (15, 15))
        assert inst.solution_set == {((15, 15), (15, 15))}
        assert elapsed < 10.0, f"build + check + solve took {elapsed:.2f} s"

    def test_sixteen_grid_game_with_a_long_utility_chain(self):
        # 1276 distinct payoffs: the utility chain's closure and its uint8
        # validation took about 3 s of the build
        X = grid_poset((16, 16))
        C, D = X.full_subset(), X.full_subset()
        payoff = {
            (x, y): (x[0] + 16 * x[1]) - Fraction(y[0] + 16 * y[1], 4)
            for x in X.elements
            for y in X.elements
        }
        started = time.perf_counter()
        inst = ZeroSumGame(C, D, payoff, seed=((0, 0), (0, 0))).instance
        hyp = inst.check_hypotheses()
        rep = inst.solve_maximal()
        elapsed = time.perf_counter() - started
        assert len(inst.U) == 1276
        assert hyp.passes
        assert rep.solution == ((15, 15), (15, 15))
        assert elapsed < 2.5, f"build + check + solve took {elapsed:.2f} s"


    def test_thirty_two_grid_game_builds_checks_and_solves_quickly(self):
        # 1 048 576 pairs: the row broadcast behind phi and psi made the check
        # alone take about 19 s
        X = grid_poset((32, 32))
        C, D = X.full_subset(), X.full_subset()
        payoff = {
            (x, y): 2 * (x[0] + 2 * x[1]) - (3 * y[0] + y[1])
            for x in X.elements
            for y in X.elements
        }
        started = time.perf_counter()
        inst = ZeroSumGame(C, D, payoff, seed=((0, 0), (0, 0))).instance
        hyp = inst.check_hypotheses()
        rep = inst.solve_maximal()
        elapsed = time.perf_counter() - started
        assert hyp.passes
        assert rep.solution == ((31, 31), (31, 31))
        assert inst.solution_set == {((31, 31), (31, 31))}
        assert elapsed < 5.0, f"build + check + solve took {elapsed:.2f} s"


class TestPosetCapScale:
    def test_forced_solves_on_two_chains_at_the_cap(self):
        # C = D = a 2048-chain, U an 8-chain: the hypotheses fail, and the
        # maximal climb strands and promotes from the seed.  Counting the
        # solutions beyond each pair took two 2048^3 matmuls, 0.66 s a solve;
        # the descent starts at the top, since nothing solves below e0, e0
        X = chain("e", 2048)
        C = D = X.full_subset()
        ij = np.arange(2048)
        T = (ij[:, None] + ij[None, :]) * 8 // 4096
        inst = ProblemInstance._from_codes(C, D, int_chain(0, 7), T, None, None, ("e0", "e0"))
        assert not inst.check_hypotheses().passes
        for solve, seed in ((inst.solve_maximal, ("e0", "e0")),
                            (inst.solve_minimal, ("e2047", "e2047"))):
            started = time.perf_counter()
            rep = solve(seed, force=True)
            elapsed = time.perf_counter() - started
            sol = inst._row(rep.solution[0]), inst._col(rep.solution[1])
            start = inst._row(seed[0]), inst._col(seed[1])
            assert extremal_mask(inst, start, rep.hypotheses.direction)[sol], rep.solution
            assert elapsed < 0.3, f"{rep.hypotheses.direction} solve took {elapsed:.2f} s"


class TestInvariantBreach:
    def test_non_ascending_trace_raises_under_optimize(self):
        # the invariant must not be an assert, which -O strips
        script = (
            "import sys\n"
            "from ordeq import parse_instance\n"
            "from ordeq.errors import InvariantBreach\n"
            "from ordeq.equilibrium import ProblemInstance\n"
            f"inst = parse_instance({FIXTURES['i1']!r})\n"
            "if inst._climbs([(1, 1), (0, 0)], (0, 0), 'maximal'):\n"
            "    sys.exit(1)\n"
            "ProblemInstance._climbs = lambda self, *args: False\n"
            "try:\n"
            "    inst.solve_maximal(('c0', 'd0'))\n"
            "except InvariantBreach:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
