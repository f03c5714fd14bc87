"""Constrained ordered equilibrium problems on finite posets.

A problem instance bundles two strategy subsets C and D, a utility poset U,
a total objective table T over C x D, and nonempty-valued restriction maps
F: C -> subsets of D and G: D -> subsets of C.  A pair (x*, y*) solves the
problem when it is feasible (x* in G(y*), y* in F(x*)), its value is maximal
among feasible row deviations, and minimal among feasible column deviations.

The solver iterates the product correspondence gamma(x, y) = psi(y) x phi(x)
of the two order-optimization maps: a monotone climb from a seed pair reaches
a fixed point of gamma, which is exactly a solution, and is then promoted to
a maximal solution above the seed by exhaustive scan.  A brute-force
enumeration of the full solution set serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import (
    HypothesisFailed,
    InvariantBreach,
    NoSolution,
    UnknownElement,
    UtilityNotTotal,
    ValidationError,
)
from .maps import MonotonicityReport, SetValuedMap, constant_map, monotonicity_report
from .poset import Poset, Subset

Pair = tuple


@dataclass(frozen=True)
class ObjectiveMap:
    """Total table assigning an element of the utility poset to each (x, y) pair."""

    utility: Poset
    table: Mapping

    def __post_init__(self):
        tbl = dict(self.table)
        for pair, value in tbl.items():
            if value not in self.utility:
                raise ValidationError(
                    f"objective value {value!r} at {pair!r} is not in the utility poset"
                )
        object.__setattr__(self, "table", MappingProxyType(tbl))

    def value(self, x, y):
        try:
            return self.table[(x, y)]
        except KeyError:
            raise UnknownElement(f"objective table has no entry for {(x, y)!r}") from None


@dataclass(frozen=True)
class SolutionCertificate:
    """Exhaustive evidence for or against a pair being a solution.

    The candidate lists record every feasible deviation that was checked;
    the violator lists are empty exactly when the pair is a solution.
    """

    pair: Pair
    feasible_in_g: bool
    feasible_in_f: bool
    row_candidates: tuple
    col_candidates: tuple
    row_violators: tuple
    col_violators: tuple

    @property
    def ok(self) -> bool:
        return (
            self.feasible_in_g
            and self.feasible_in_f
            and not self.row_violators
            and not self.col_violators
        )


@dataclass(frozen=True)
class HypothesisReport:
    """Solver precondition trail for a given seed pair.

    Mirrors the three conditions the existence argument needs: both
    order-optimization maps increasing upward, universally inductive values
    (a theorem at finite scale, so not evaluated), and a witnessed seed
    condition: some z' in psi(y') above x' and u' in phi(x') above y'.
    """

    seed: Pair
    phi_monotonicity: MonotonicityReport
    psi_monotonicity: MonotonicityReport
    seed_condition: bool
    seed_witness: Optional[Pair]  # (z', u') when seed_condition holds

    @property
    def values_universally_inductive(self) -> bool:
        """Always True: every phi/psi value is a finite nonempty subset.

        A chain dominated by members of such a value is finite, so it has a
        maximum; any member dominating that maximum is an upper bound of the
        chain inside the value.
        """
        return True

    @property
    def passes(self) -> bool:
        return (
            self.phi_monotonicity.increasing_upward
            and self.psi_monotonicity.increasing_upward
            and self.seed_condition
        )

    def failures(self) -> list[str]:
        out = []
        if not self.phi_monotonicity.increasing_upward:
            out.append("phi is not increasing upward")
        if not self.psi_monotonicity.increasing_upward:
            out.append("psi is not increasing upward")
        if not self.seed_condition:
            out.append(f"seed condition has no witness at {self.seed!r}")
        return out


@dataclass(frozen=True, eq=False)
class SolutionReport:
    """Outcome of a solve run: solution, trace, hypotheses, certificates."""

    direction: str  # "maximal" or "minimal"
    seed: Pair
    solutions: frozenset
    maximal_solution: Optional[Pair]
    minimal_solution: Optional[Pair]
    hypotheses: HypothesisReport
    climb_trace: tuple
    certificates: Mapping
    existence_guaranteed: bool

    @property
    def solution(self) -> Optional[Pair]:
        return self.maximal_solution if self.direction == "maximal" else self.minimal_solution


class ProblemInstance:
    """An immutable constrained ordered equilibrium problem.

    All operations are pure; phi/psi tables and the brute-force solution
    set are computed lazily and cached on the instance.
    """

    def __init__(self, C: Subset, D: Subset, T: ObjectiveMap,
                 F: SetValuedMap, G: SetValuedMap, seed: Optional[Pair] = None):
        if not C.members:
            raise ValidationError("C must be nonempty")
        if not D.members:
            raise ValidationError("D must be nonempty")
        if F.domain != C or F.codomain != D:
            raise ValidationError("F must map C into subsets of D")
        if G.domain != D or G.codomain != C:
            raise ValidationError("G must map D into subsets of C")
        for x in C.ordered():
            for y in D.ordered():
                T.value(x, y)  # totality; raises UnknownElement on a hole
        if seed is not None:
            x0, y0 = seed
            if x0 not in C:
                raise UnknownElement(f"seed first component {x0!r} is not in C")
            if y0 not in D:
                raise UnknownElement(f"seed second component {y0!r} is not in D")
            seed = (x0, y0)
        self.C = C
        self.D = D
        self.T = T
        self.F = F
        self.G = G
        self.seed = seed

    @property
    def U(self) -> Poset:
        return self.T.utility

    def __repr__(self):
        return (
            f"ProblemInstance(|C|={len(self.C)}, |D|={len(self.D)}, |U|={len(self.U)})"
        )

    # -- order-optimization mappings ----------------------------------------

    def _value_optima(self, images: list, maximize: bool) -> frozenset:
        # keep carriers whose image has no strictly better image in the list
        U = self.U
        keep = []
        for carrier, v in images:
            if maximize:
                beaten = any(U.lt(v, w) for _, w in images)
            else:
                beaten = any(U.lt(w, v) for _, w in images)
            if not beaten:
                keep.append(carrier)
        return frozenset(keep)

    def phi(self, x) -> frozenset:
        """Feasible argmin: y in F(x) whose value T(x, y) is minimal in T(x, F(x))."""
        if x not in self.C:
            raise UnknownElement(f"{x!r} is not in C")
        images = [(y, self.T.value(x, y)) for y in sorted_by(self.D, self.F(x))]
        return self._value_optima(images, maximize=False)

    def psi(self, y) -> frozenset:
        """Feasible argmax: x in G(y) whose value T(x, y) is maximal in T(G(y), y)."""
        if y not in self.D:
            raise UnknownElement(f"{y!r} is not in D")
        images = [(x, self.T.value(x, y)) for x in sorted_by(self.C, self.G(y))]
        return self._value_optima(images, maximize=True)

    def global_phi(self, x) -> frozenset:
        """phi with the restriction map replaced by the constant map onto D."""
        if x not in self.C:
            raise UnknownElement(f"{x!r} is not in C")
        images = [(y, self.T.value(x, y)) for y in self.D.ordered()]
        return self._value_optima(images, maximize=False)

    def global_psi(self, y) -> frozenset:
        """psi with the restriction map replaced by the constant map onto C."""
        if y not in self.D:
            raise UnknownElement(f"{y!r} is not in D")
        images = [(x, self.T.value(x, y)) for x in self.C.ordered()]
        return self._value_optima(images, maximize=True)

    @cached_property
    def phi_map(self) -> SetValuedMap:
        return SetValuedMap(self.C, self.D, {x: self.phi(x) for x in self.C.members})

    @cached_property
    def psi_map(self) -> SetValuedMap:
        return SetValuedMap(self.D, self.C, {y: self.psi(y) for y in self.D.members})

    def gamma(self, x, y) -> frozenset:
        """The product correspondence gamma(x, y) = psi(y) x phi(x); never empty."""
        return frozenset((z, u) for z in self.psi(y) for u in self.phi(x))

    # -- solution predicate and oracle ---------------------------------------

    def solution_certificate(self, x, y) -> SolutionCertificate:
        """Check the solution conditions for (x, y), recording all evidence."""
        if x not in self.C:
            raise UnknownElement(f"{x!r} is not in C")
        if y not in self.D:
            raise UnknownElement(f"{y!r} is not in D")
        rows = sorted_by(self.C, self.G(y))
        cols = sorted_by(self.D, self.F(x))
        v = self.T.value(x, y)
        row_viol = tuple(x2 for x2 in rows if self.U.lt(v, self.T.value(x2, y)))
        col_viol = tuple(y2 for y2 in cols if self.U.lt(self.T.value(x, y2), v))
        return SolutionCertificate(
            pair=(x, y),
            feasible_in_g=x in self.G(y),
            feasible_in_f=y in self.F(x),
            row_candidates=rows,
            col_candidates=cols,
            row_violators=row_viol,
            col_violators=col_viol,
        )

    def is_solution(self, x, y) -> bool:
        return self.solution_certificate(x, y).ok

    @cached_property
    def solution_set(self) -> frozenset:
        """Brute-force enumeration of every solution pair over C x D."""
        return frozenset(
            (x, y)
            for x in self.C.ordered()
            for y in self.D.ordered()
            if self.is_solution(x, y)
        )

    @cached_property
    def gamma_fixed_points(self) -> frozenset:
        """Pairs with (x, y) in gamma(x, y); provably equal to solution_set."""
        return frozenset(
            (x, y)
            for x in self.C.ordered()
            for y in self.D.ordered()
            if x in self.psi_map(y) and y in self.phi_map(x)
        )

    # -- hypotheses and solving ----------------------------------------------

    @cached_property
    def phi_monotonicity(self) -> MonotonicityReport:
        return monotonicity_report(self.phi_map)

    @cached_property
    def psi_monotonicity(self) -> MonotonicityReport:
        return monotonicity_report(self.psi_map)

    def check_hypotheses(self, seed: Optional[Pair] = None) -> HypothesisReport:
        """Evaluate the existence-theorem preconditions at a seed pair."""
        seed = self._resolve_seed(seed)
        x0, y0 = seed
        phi_rep = self.phi_monotonicity
        psi_rep = self.psi_monotonicity
        witness = None
        for z in sorted_by(self.C, self.psi_map(y0)):
            if witness:
                break
            for u in sorted_by(self.D, self.phi_map(x0)):
                if self.C.parent.leq(x0, z) and self.D.parent.leq(y0, u):
                    witness = (z, u)
                    break
        return HypothesisReport(
            seed=seed,
            phi_monotonicity=phi_rep,
            psi_monotonicity=psi_rep,
            seed_condition=witness is not None,
            seed_witness=witness,
        )

    def _resolve_seed(self, seed: Optional[Pair]) -> Pair:
        if seed is None:
            seed = self.seed
        if seed is None:
            raise ValidationError("no seed pair given and the instance has none")
        x0, y0 = seed
        if x0 not in self.C:
            raise UnknownElement(f"seed first component {x0!r} is not in C")
        if y0 not in self.D:
            raise UnknownElement(f"seed second component {y0!r} is not in D")
        return (x0, y0)

    def pair_leq(self, p: Pair, q: Pair) -> bool:
        """Component-wise product order on C x D pairs."""
        return self.C.parent.leq(p[0], q[0]) and self.D.parent.leq(p[1], q[1])

    def pair_lt(self, p: Pair, q: Pair) -> bool:
        return p != q and self.pair_leq(p, q)

    def pair_index(self, p: Pair) -> tuple[int, int]:
        return (self.C.parent.index(p[0]), self.D.parent.index(p[1]))

    def solve_maximal(self, seed: Optional[Pair] = None, force: bool = False) -> SolutionReport:
        """Climb gamma from the seed to a fixed point, then promote it maximal.

        The climb keeps a pair p admitting some q in gamma(p) with p <= q;
        while a strictly greater q exists it advances to the one with the
        lexicographically smallest element indices.  When no strictly
        greater successor remains, p lies in gamma(p), hence is a solution.
        The returned solution is a maximal element of the solution set
        restricted to the up-set of the seed (exhaustive scan), above the
        fixed point the climb reached.

        Raises HypothesisFailed unless the preconditions hold or ``force``
        is set; raises NoSolution when no solution exists above the seed.
        """
        hyp = self.check_hypotheses(seed)
        start = hyp.seed
        if not hyp.passes and not force:
            raise HypothesisFailed(
                "solver preconditions failed: " + "; ".join(hyp.failures()), report=hyp
            )

        trace = [start]
        p = start
        fixed = None
        while True:
            gam = self.gamma(*p)
            successors = [q for q in gam if self.pair_lt(p, q)]
            if successors:
                p = min(successors, key=self.pair_index)
                trace.append(p)
                continue
            if p in gam:
                fixed = p
            # with failing hypotheses a forced climb can strand at a
            # non-fixed point; the exhaustive scan below still answers
            break

        above = {s for s in self.solution_set if self.pair_leq(start, s)}
        if not above:
            raise NoSolution(
                f"no solution above seed {start!r}"
                + ("" if hyp.passes else " (hypotheses were not satisfied)")
            )
        maximal_above = [
            s for s in above if not any(self.pair_lt(s, t) for t in above)
        ]
        if fixed is not None:
            if fixed not in self.solution_set:
                raise InvariantBreach(f"gamma fixed point {fixed!r} is not a solution")
            candidates = [s for s in maximal_above if self.pair_leq(fixed, s)]
        else:
            candidates = maximal_above
        solution = min(candidates, key=self.pair_index)
        if fixed is not None and solution != fixed:
            trace.append(solution)

        self._check_trace(trace)
        return SolutionReport(
            direction="maximal",
            seed=start,
            solutions=self.solution_set,
            maximal_solution=solution,
            minimal_solution=None,
            hypotheses=hyp,
            climb_trace=tuple(trace),
            certificates={solution: self.solution_certificate(*solution)},
            existence_guaranteed=hyp.passes,
        )

    def solve_minimal(self, seed: Optional[Pair] = None, force: bool = False) -> SolutionReport:
        """Descending climb: solve_maximal on the order-dual instance.

        Requires the dual hypotheses (phi, psi increasing downward and the
        reversed seed condition), which are exactly the upward hypotheses
        of the dual.  phi and psi themselves only involve the utility
        order, so the solution set is unchanged; only the climb direction
        and the promotion target (minimal above nothing, minimal below the
        seed) flip.
        """
        rep = self.dual().solve_maximal(seed, force=force)
        self._check_trace(list(rep.climb_trace), descending=True)
        return SolutionReport(
            direction="minimal",
            seed=rep.seed,
            solutions=rep.solutions,
            maximal_solution=None,
            minimal_solution=rep.maximal_solution,
            hypotheses=rep.hypotheses,
            climb_trace=rep.climb_trace,
            certificates=rep.certificates,
            existence_guaranteed=rep.existence_guaranteed,
        )

    def _check_trace(self, trace: list, descending: bool = False) -> None:
        bound = len(self.C) * len(self.D)
        if len(trace) > bound:
            raise InvariantBreach(f"climb trace length {len(trace)} exceeds {bound}")
        for a, b in zip(trace, trace[1:]):
            lo, hi = (b, a) if descending else (a, b)
            if not self.pair_lt(lo, hi):
                raise InvariantBreach(f"climb trace must strictly ascend at {a!r} -> {b!r}")

    # -- special cases and transforms -----------------------------------------

    def scalar_saddle_check(self, x, y) -> bool:
        """Classical saddle test, valid only for totally ordered utilities.

        True iff (x, y) is feasible and max of T(., y) over G(y) equals
        T(x, y) equals min of T(x, .) over F(x).  Agrees with is_solution
        whenever U is a total order.
        """
        if not self.U.is_total():
            raise UtilityNotTotal("scalar saddle check requires a totally ordered utility poset")
        if x not in self.C:
            raise UnknownElement(f"{x!r} is not in C")
        if y not in self.D:
            raise UnknownElement(f"{y!r} is not in D")
        if x not in self.G(y) or y not in self.F(x):
            return False
        rank = lambda e: int(self.U.leq_matrix[:, self.U.index(e)].sum())
        v = self.T.value(x, y)
        row_max = max((self.T.value(x2, y) for x2 in self.G(y)), key=rank)
        col_min = min((self.T.value(x, y2) for y2 in self.F(x)), key=rank)
        return rank(row_max) == rank(v) == rank(col_min)

    def reduce_to_oep(self, replace: str = "both") -> "ProblemInstance":
        """Replace F, G, or both by the constant maps onto D and C.

        With both replaced the instance is an unconstrained ordered
        equilibrium problem: phi and psi coincide with their global
        variants pointwise.
        """
        if replace not in ("both", "F", "G"):
            raise ValueError(f"replace must be 'both', 'F' or 'G', got {replace!r}")
        F = constant_map(self.C, self.D) if replace in ("both", "F") else self.F
        G = constant_map(self.D, self.C) if replace in ("both", "G") else self.G
        return ProblemInstance(self.C, self.D, self.T, F, G, seed=self.seed)

    def dual(self) -> "ProblemInstance":
        """The instance over order-reversed strategy posets (utility unchanged)."""
        CX = self.C.parent.dual()
        DY = self.D.parent.dual()
        C2 = CX.subset(self.C.members)
        D2 = DY.subset(self.D.members)
        return ProblemInstance(
            C2,
            D2,
            self.T,
            SetValuedMap(C2, D2, dict(self.F.table)),
            SetValuedMap(D2, C2, dict(self.G.table)),
            seed=self.seed,
        )


def sorted_by(subset: Subset, items) -> tuple:
    """Items sorted by their parent-poset index (deterministic iteration)."""
    parent = subset.parent
    return tuple(sorted(items, key=parent.index))
