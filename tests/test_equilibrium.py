"""Order-optimization maps, the solution predicate, and the brute-force oracle.

Expected values for the worked instances were computed with the independent
integer oracles in oracles.py and frozen here; each test asserts both the
frozen literal and the oracle's output.
"""

import numpy as np
import pytest

from ordeq import (GenSpec, ObjectiveMap, ProblemInstance, SetValuedMap, ZeroSumGame,
                   constant_map, gen_instance, load_poset)
from ordeq.errors import (InvalidSpec, ParseError, UnknownElement, UtilityNotTotal,
                          ValidationError)
from ordeq.fileio import parse_poset_doc

from conftest import chain, instance_from_payoff, int_chain
from oracles import (
    argmax_col,
    argmin_row,
    cell_mask,
    dict_gamma_fixed_points,
    saddle_solutions,
    scan_order_matrix,
    scan_ordered,
    unconstrained_saddles,
)

I1_PAYOFF = {(i, j): i - j for i in range(2) for j in range(2)}
I3_PAYOFF = {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1}
I2_COLS = {0: {0}, 1: {0, 1}}  # F as column indices per row
I2_ROWS = {0: {0, 1}, 1: {1}}  # G as row indices per column


def ids(indexed, prefix):
    return frozenset(f"{prefix}{i}" for i in indexed)


class TestPhiPsi:
    def test_i1_phi(self, i1):
        oracle = argmin_row(0, I1_PAYOFF, {0, 1})
        assert oracle == {1}
        assert i1.phi("c0") == {"d1"}
        assert i1.phi("c1") == {"d1"}

    def test_i2_phi_singleton_feasible(self, i2):
        assert argmin_row(0, I1_PAYOFF, I2_COLS[0]) == {0}
        assert i2.phi("c0") == {"d0"}

    def test_phi_on_antichain_utility_keeps_everything(self):
        X, Y = chain("c", 2), chain("d", 2)
        U = load_poset(["u0", "u1"])  # incomparable values
        T = ObjectiveMap(
            U,
            {("c0", "d0"): "u0", ("c0", "d1"): "u1",
             ("c1", "d0"): "u1", ("c1", "d1"): "u0"},
        )
        inst = ProblemInstance(
            X.full_subset(), Y.full_subset(), T,
            constant_map(X.full_subset(), Y.full_subset()),
            constant_map(Y.full_subset(), X.full_subset()),
        )
        assert inst.phi("c0") == {"d0", "d1"}
        assert inst.psi("d0") == {"c0", "c1"}

    def test_i1_psi(self, i1):
        assert argmax_col(0, I1_PAYOFF, {0, 1}) == {1}
        assert i1.psi("d0") == {"c1"}

    def test_i2_psi_restricted(self, i2):
        assert argmax_col(1, I1_PAYOFF, I2_ROWS[1]) == {1}
        assert i2.psi("d1") == {"c1"}

    def test_i3_global_psi(self, i3):
        assert argmax_col(0, I3_PAYOFF, {0, 1}) == {0}
        assert i3.psi("d0") == {"c0"}

    def test_unknown_element(self, i1):
        with pytest.raises(UnknownElement):
            i1.phi("c9")
        with pytest.raises(UnknownElement):
            i1.psi("d9")


class TestGlobalMaps:
    def test_i1_constant_constraints_collapse(self, i1):
        for x in i1.C.ordered():
            assert i1.global_phi(x) == i1.phi(x)
        for y in i1.D.ordered():
            assert i1.global_psi(y) == i1.psi(y)

    def test_i2_constraint_removal_changes_argmin(self, i2):
        assert argmin_row(0, I1_PAYOFF, {0, 1}) == {1}
        assert i2.global_phi("c0") == {"d1"}
        assert i2.phi("c0") == {"d0"}

    def test_i3_global_phi(self, i3):
        assert argmin_row(1, I3_PAYOFF, {0, 1}) == {0}
        assert i3.global_phi("c1") == {"d0"}


class TestGamma:
    def test_i2(self, i2):
        assert i2.gamma("c0", "d0") == {("c1", "d0")}

    def test_i1_constant_argopt(self, i1):
        for x in i1.C.ordered():
            for y in i1.D.ordered():
                assert i1.gamma(x, y) == {("c1", "d1")}

    def test_i3(self, i3):
        assert i3.gamma("c0", "d0") == {("c0", "d1")}


class TestIsSolution:
    def test_i1_saddle(self, i1):
        cert = i1.solution_certificate("c1", "d1")
        assert cert.ok
        assert cert.row_violators == () and cert.col_violators == ()
        assert set(cert.row_candidates) == {"c0", "c1"}

    def test_i1_maximality_violation(self, i1):
        cert = i1.solution_certificate("c0", "d1")
        assert not cert.ok
        assert "c1" in cert.row_violators

    def test_i2_infeasible(self, i2):
        cert = i2.solution_certificate("c0", "d1")
        assert not cert.ok
        assert not cert.feasible_in_g

    def test_unknown(self, i1):
        with pytest.raises(UnknownElement):
            i1.is_solution("c9", "d0")


class TestSolutionSet:
    def test_i1(self, i1):
        assert unconstrained_saddles(2, 2, I1_PAYOFF) == [(1, 1)]
        assert i1.solution_set == {("c1", "d1")}

    def test_i2(self, i2):
        oracle = saddle_solutions(2, 2, I1_PAYOFF, I2_COLS, I2_ROWS)
        assert oracle == [(1, 1)]
        assert i2.solution_set == {("c1", "d1")}

    def test_i3_empty(self, i3):
        assert unconstrained_saddles(2, 2, I3_PAYOFF) == []
        assert i3.solution_set == frozenset()

    def test_oracle_identity_on_fixtures(self, i1, i2, i3, constant_objective):
        for inst in (i1, i2, i3, constant_objective):
            assert dict_gamma_fixed_points(inst) == inst.solution_set

    def test_constant_objective_all_pairs_solve(self, constant_objective):
        inst = constant_objective
        assert inst.solution_set == {
            (x, y) for x in inst.C.ordered() for y in inst.D.ordered()
        }


class TestCheckHypotheses:
    def test_i2_passes_with_witnesses(self, i2):
        rep = i2.check_hypotheses(("c0", "d0"))
        assert rep.passes
        assert rep.seed_witness == ("c1", "d0")
        assert rep.values_universally_inductive

    def test_i1_passes(self, i1):
        rep = i1.check_hypotheses(("c0", "d0"))
        assert rep.passes
        assert rep.seed_witness == ("c1", "d1")

    def test_i3_fails_increasing_upward(self, i3):
        for seed in [(x, y) for x in i3.C.ordered() for y in i3.D.ordered()]:
            rep = i3.check_hypotheses(seed)
            assert not rep.phi_monotonicity.increasing_upward
            assert not rep.passes
            assert "phi is not increasing upward" in rep.failures()

    def test_seed_must_exist(self):
        inst = instance_from_payoff(I1_PAYOFF)
        with pytest.raises(ValidationError):
            inst.check_hypotheses()

    def test_seed_must_be_member(self, i1):
        with pytest.raises(UnknownElement):
            i1.check_hypotheses(("c9", "d0"))


class TestScalarSaddle:
    def test_i1_true_at_saddle(self, i1):
        # max{-1, 0} = 0 = min{1, 0}
        assert i1.scalar_saddle_check("c1", "d1")

    def test_i1_false_off_saddle(self, i1):
        assert not i1.scalar_saddle_check("c0", "d0")

    def test_i3_false_everywhere(self, i3):
        for x in i3.C.ordered():
            for y in i3.D.ordered():
                assert not i3.scalar_saddle_check(x, y)

    def test_agrees_with_is_solution_on_total_utilities(self, i1, i2, i3):
        for inst in (i1, i2, i3):
            assert inst.U.is_total()
            for x in inst.C.ordered():
                for y in inst.D.ordered():
                    assert inst.scalar_saddle_check(x, y) == inst.is_solution(x, y)

    def test_requires_total_utility(self):
        X, Y = chain("c", 2), chain("d", 2)
        U = load_poset(["u0", "u1"])
        T = ObjectiveMap(U, {(x, y): "u0" for x in X.elements for y in Y.elements})
        inst = ProblemInstance(
            X.full_subset(), Y.full_subset(), T,
            constant_map(X.full_subset(), Y.full_subset()),
            constant_map(Y.full_subset(), X.full_subset()),
        )
        with pytest.raises(UtilityNotTotal):
            inst.scalar_saddle_check("c0", "d0")


class TestReduceToOep:
    def test_i2_both_sides(self, i2):
        reduced = i2.reduce_to_oep("both")
        assert reduced.solution_set == {("c1", "d1")}
        assert reduced.phi("c0") == {"d1"}
        for x in reduced.C.ordered():
            assert reduced.phi(x) == i2.global_phi(x)
        for y in reduced.D.ordered():
            assert reduced.psi(y) == i2.global_psi(y)

    def test_i1_already_constant(self, i1):
        reduced = i1.reduce_to_oep("both")
        for x in i1.C.ordered():
            assert reduced.F(x) == i1.F(x)
        for y in i1.D.ordered():
            assert reduced.G(y) == i1.G(y)

    def test_one_side_only(self, i2):
        reduced = i2.reduce_to_oep("G")
        for y in reduced.D.ordered():
            assert reduced.psi(y) == i2.global_psi(y)
        for x in reduced.C.ordered():
            assert reduced.F(x) == i2.F(x)  # F untouched

    def test_bad_flag(self, i1):
        with pytest.raises(ValueError):
            i1.reduce_to_oep("X")


class TestProperSubsets:
    def proper_subset_instance(self):
        # C and D are strict subsets of larger ambient posets
        X = load_poset(["c0", "c1", "c2"], [("c0", "c1"), ("c1", "c2")])
        Y = load_poset(["d0", "d1", "d2"], [("d0", "d1"), ("d1", "d2")])
        C, D = X.subset({"c0", "c1"}), Y.subset({"d1", "d2"})
        U = int_chain(-2, 2)
        T = ObjectiveMap(
            U, {(f"c{i}", f"d{j}"): i - j for i in range(2) for j in range(1, 3)}
        )
        return ProblemInstance(C, D, T, constant_map(C, D), constant_map(D, C))

    def test_solution_machinery_respects_membership(self):
        inst = self.proper_subset_instance()
        assert inst.solution_set == {("c1", "d2")}
        assert dict_gamma_fixed_points(inst) == inst.solution_set
        with pytest.raises(UnknownElement):
            inst.phi("c2")  # in X but not in C

    def test_codes_match_the_scan_and_cell_referees(self):
        inst = self.proper_subset_instance()
        for m in (inst.F, inst.G, inst.phi_map, inst.psi_map):
            for s in (m.domain, m.codomain):
                assert s.ordered() == scan_ordered(s)
                assert np.array_equal(s.order_matrix(), scan_order_matrix(s))
            assert np.array_equal(m.mask(), cell_mask(m))

    def test_solver_on_proper_subsets(self):
        inst = self.proper_subset_instance()
        rep = inst.solve_maximal(("c0", "d1"))
        assert rep.solution == ("c1", "d2")
        assert rep.hypotheses.passes


class TestValidation:
    def test_objective_value_must_live_in_utility(self):
        U = int_chain(0, 1)
        with pytest.raises(ValidationError):
            ObjectiveMap(U, {("a", "b"): 7})

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_objective_value_must_be_the_element_not_an_equal_one(self, value):
        # True and 1.0 hash and compare equal to U's element 1, but are not it:
        # the instance would keep them while its codes and its file say '1'
        U = load_poset([0, 1], [[0, 1]])
        C, D = chain("c", 1).full_subset(), chain("d", 1).full_subset()
        with pytest.raises(ValidationError, match="objective value .* is not in the utility poset"):
            ProblemInstance(C, D, ObjectiveMap(U, {("c0", "d0"): value}))
        inst = ProblemInstance(C, D, ObjectiveMap(U, {("c0", "d0"): 1}))
        assert inst.T.value("c0", "d0") == 1 and inst._T.tolist() == [[1]]

    def test_total_table_required(self):
        X, Y = chain("c", 2), chain("d", 2)
        U = int_chain(0, 1)
        T = ObjectiveMap(U, {("c0", "d0"): 0})
        with pytest.raises(UnknownElement):
            ProblemInstance(
                X.full_subset(), Y.full_subset(), T,
                constant_map(X.full_subset(), Y.full_subset()),
                constant_map(Y.full_subset(), X.full_subset()),
            )

    def test_constraints_must_match_domains(self):
        X, Y = chain("c", 2), chain("d", 2)
        C, D = X.full_subset(), Y.full_subset()
        U = int_chain(0, 1)
        T = ObjectiveMap(U, {(x, y): 0 for x in X.elements for y in Y.elements})
        with pytest.raises(ValidationError):
            ProblemInstance(C, D, T, constant_map(D, C), constant_map(D, C))


_I1 = instance_from_payoff(I1_PAYOFF)  # instances are immutable, so one is shared
_ZEROS = {(x, y): 0 for x in _I1.C.ordered() for y in _I1.D.ordered()}


# each refusal of a malformed API call, with its exact message
@pytest.mark.parametrize("call, error, message", [
    (lambda: chain("c", 2).subset(["c0", "nope"]), UnknownElement,
     "'nope' is not an element of the parent poset"),
    (lambda: _I1.check_hypotheses(("c0", "d0"), "sideways"),
     ValidationError, "direction must be 'maximal' or 'minimal', got 'sideways'"),
    (lambda: ProblemInstance(_I1.C.parent.subset([]), _I1.D, _I1.T, _I1.F, _I1.G),
     ValidationError, "C must be nonempty"),
    (lambda: ProblemInstance(_I1.C, _I1.D.parent.subset([]), _I1.T, _I1.F, _I1.G),
     ValidationError, "D must be nonempty"),
    (lambda: _I1.T.value("c0", "d9"), UnknownElement,
     "objective table has no entry for ('c0', 'd9')"),
    (lambda: gen_instance(GenSpec(kind="chain", sizes=(3,))), InvalidSpec,
     "kind 'chain' does not generate an instance"),
    (lambda: ProblemInstance(_I1.C, _I1.D, _I1.T, _I1.F, constant_map(_I1.C, _I1.D)),
     ValidationError, "G must map D into subsets of C"),
    (lambda: instance_from_payoff(I1_PAYOFF, seed=("c0", "d9")), UnknownElement,
     "seed second component 'd9' is not in D"),
    (lambda: GenSpec(kind="chain", sizes=(3,), poset_kind="x"), InvalidSpec,
     "unknown poset_kind 'x'"),
    (lambda: parse_poset_doc({"schema": "roep-instance/1", "grid": [2]}), ParseError,
     "expected a 'roep-poset/1' document"),
    (lambda: SetValuedMap(_I1.C, _I1.D, {"c0": 5, "c1": ["d0"]}), ValidationError,
     "set-valued map value at 'c0' is not a set"),
    (lambda: SetValuedMap(_I1.C, _I1.D, {"c0": None, "c1": ["d0"]}), ValidationError,
     "set-valued map value at 'c0' is not a set"),
    (lambda: SetValuedMap(_I1.C, _I1.D, {"c0": [["d0"]], "c1": ["d0"]}), ValidationError,
     "value at 'c0' contains non-codomain elements [\"['d0']\"]"),
    (lambda: ObjectiveMap(_I1.U, {("c0", "d0"): ["u0"]}), ValidationError,
     "objective value ['u0'] at ('c0', 'd0') is not in the utility poset"),
    (lambda: ProblemInstance(_I1.C, _I1.D, _I1.T, seed=(["c0"], "d0")), ValidationError,
     "seed must be a pair of C and D members, got (['c0'], 'd0')"),
    (lambda: ProblemInstance(_I1.C, _I1.D, _I1.T, seed=("c0",)), ValidationError,
     "seed must be a pair of C and D members, got ('c0',)"),
    (lambda: ZeroSumGame(_I1.C, _I1.D, _ZEROS, seed=(["c0"], "d0")), ValidationError,
     "seed must be a pair of C and D members, got (['c0'], 'd0')"),
    (lambda: ZeroSumGame(_I1.C, _I1.D, _ZEROS, seed=("c0",)), ValidationError,
     "seed must be a pair of C and D members, got ('c0',)"),
    (lambda: _I1.check_hypotheses((["c0"], "d0")), ValidationError,
     "seed must be a pair of C and D members, got (['c0'], 'd0')"),
    (lambda: _I1.check_hypotheses(("c0",)), ValidationError,
     "seed must be a pair of C and D members, got ('c0',)"),
], ids=["subset-member", "direction", "empty-C", "empty-D", "missing-objective",
        "gen-poset-kind", "G-domain", "seed-in-D", "poset-kind", "poset-schema",
        "map-value-int", "map-value-none", "map-member-list", "objective-value-list",
        "instance-seed-member-list", "instance-seed-short", "game-seed-member-list",
        "game-seed-short", "check-seed-member-list", "check-seed-short"])
def test_api_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
