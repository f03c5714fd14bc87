"""Monotone climb solver: traces, promotion, duals, forced runs."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ordeq import ObjectiveMap, ProblemInstance, build_game, constant_map, load_poset
from ordeq.errors import HypothesisFailed, NoSolution

from conftest import FIXTURES, chain, int_chain


class TestSolveMaximal:
    def test_i2_trace(self, i2):
        rep = i2.solve_maximal(("c0", "d0"))
        assert rep.solution == ("c1", "d1")
        assert rep.climb_trace == (("c0", "d0"), ("c1", "d0"), ("c1", "d1"))
        assert rep.existence_guaranteed
        assert rep.certificates[rep.solution].ok

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
        above = {s for s in rep.solutions if constant_objective.pair_leq(rep.seed, s)}
        assert not any(constant_objective.pair_lt(rep.solution, t) for t in above)

    def test_solution_above_seed(self, constant_objective):
        rep = constant_objective.solve_maximal(("c1", "d0"))
        assert constant_objective.pair_leq(("c1", "d0"), rep.solution)
        assert rep.solution == ("c1", "d1")

    def test_trace_is_strictly_ascending_and_bounded(self, i1, i2, constant_objective):
        for inst in (i1, i2, constant_objective):
            rep = inst.solve_maximal(("c0", "d0"))
            assert len(rep.climb_trace) <= len(inst.C) * len(inst.D)
            for a, b in zip(rep.climb_trace, rep.climb_trace[1:]):
                assert inst.pair_lt(a, b)


class TestSolveMinimal:
    def test_constant_objective_descends_to_bottom(self, constant_objective):
        rep = constant_objective.solve_minimal(("c1", "d1"))
        assert rep.solution == ("c0", "d0")
        assert rep.direction == "minimal"
        assert rep.solutions == {
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
            assert constant_objective.pair_lt(b, a)

    def test_minimality_contract(self, constant_objective):
        rep = constant_objective.solve_minimal(("c1", "d1"))
        below = {
            s for s in rep.solutions if constant_objective.pair_leq(s, ("c1", "d1"))
        }
        assert not any(constant_objective.pair_lt(t, rep.solution) for t in below)


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
        assert not rep.existence_guaranteed

    def test_gamma_points_sideways(self):
        inst = self.stranded_instance()
        gam = inst.gamma("a0", "d0")
        assert all(not inst.pair_leq(("a0", "d0"), q) for q in gam)


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
        inst = build_game(C, D, payoff, seed=("c0", "d0"))
        started = time.perf_counter()
        hyp = inst.check_hypotheses()
        rep = inst.solve_maximal()
        elapsed = time.perf_counter() - started
        assert hyp.passes and hyp.values_universally_inductive
        assert rep.solution == ("c19", "d19")
        assert elapsed < 2.0, f"check + solve took {elapsed:.2f} s"


class TestInvariantBreach:
    def test_non_ascending_trace_raises_under_optimize(self):
        # the invariant must not be an assert, which -O strips
        script = (
            "import sys\n"
            "from ordeq import parse_instance\n"
            "from ordeq.errors import InvariantBreach\n"
            f"inst = parse_instance({FIXTURES['i1']!r})\n"
            "try:\n"
            "    inst._check_trace([('c1', 'd1'), ('c0', 'd0')])\n"
            "except InvariantBreach:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
