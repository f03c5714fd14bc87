"""Constrained ordered equilibrium problems on finite posets.

A problem instance bundles two strategy subsets C and D, a utility poset U,
a total objective table T over C x D, and nonempty-valued restriction maps
F: C -> subsets of D and G: D -> subsets of C.  A pair (x*, y*) solves the
problem when it is feasible (x* in G(y*), y* in F(x*)), its value is maximal
among feasible row deviations, and minimal among feasible column deviations.

The solver iterates the product correspondence gamma(x, y) = psi(y) x phi(x)
of the two order-optimization maps: a monotone climb from a seed pair reaches
a fixed point of gamma, which is exactly a solution, and is then promoted to
a maximal solution above the seed.  Inside, an instance is index-coded once,
at construction (positions instead of element ids): phi and psi are boolean
masks built by array broadcasts, their monotonicity flags are boolean matmuls
of those masks with the orders of C and D, and the solution set is where both
masks hold.  Element ids come back only where a result leaves the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .errors import (
    HypothesisFailed,
    InvariantBreach,
    NoSolution,
    UnknownElement,
    UtilityNotTotal,
    ValidationError,
)
from .maps import MonotonicityReport, SetValuedMap, constant_map, mask_monotonicity
from .poset import Poset, Subset

Pair = tuple


@dataclass(frozen=True)
class ObjectiveMap:
    """Total table assigning an element of the utility poset to each (x, y) pair."""

    utility: Poset
    table: Mapping

    def __post_init__(self):
        tbl = dict(self.table)
        index = {e: i for i, e in enumerate(self.utility.elements)}
        # pair -> position of its value in U, kept for the index codes
        positions = dict(zip(tbl, map(index.get, tbl.values())))
        if None in positions.values():
            pair = next(p for p, i in positions.items() if i is None)
            raise ValidationError(
                f"objective value {tbl[pair]!r} at {pair!r} is not in the utility poset"
            )
        object.__setattr__(self, "table", MappingProxyType(tbl))
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def _ranked(cls, utility: Poset, table: Mapping, positions: dict) -> "ObjectiveMap":
        """A map whose caller already knows each value's position in U.

        positions[pair] must be the position of table[pair] in the
        utility's elements; nothing is looked up or checked again.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "utility", utility)
        object.__setattr__(self, "table", MappingProxyType(dict(table)))
        object.__setattr__(self, "_positions", positions)
        return self

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

    All operations are pure.  The index codes are built at construction, and
    their lookup of every T value is the check that T is total; the phi and
    psi masks and the solution set are computed lazily and cached.
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
        self.C = C
        self.D = D
        self.T = T
        self.F = F
        self.G = G
        self._codes = _Codes(self)
        self.seed = None if seed is None else self._resolve_seed(seed)

    @property
    def U(self) -> Poset:
        return self.T.utility

    def __repr__(self):
        return (
            f"ProblemInstance(|C|={len(self.C)}, |D|={len(self.D)}, |U|={len(self.U)})"
        )

    # -- order-optimization mappings ----------------------------------------

    @cached_property
    def _phi_mask(self) -> np.ndarray:
        # row i: phi(x_i) over the members of D
        k = self._codes
        return _optima(k.T, k.F, k.lt)

    @cached_property
    def _psi_mask(self) -> np.ndarray:
        # row j: psi(y_j) over the members of C
        k = self._codes
        return _optima(k.T.T, k.G.T, k.lt.T)

    def phi(self, x) -> frozenset:
        """Feasible argmin: y in F(x) whose value T(x, y) is minimal in T(x, F(x))."""
        k = self._codes
        return _ids(k.ds, self._phi_mask[k.row(x)])

    def psi(self, y) -> frozenset:
        """Feasible argmax: x in G(y) whose value T(x, y) is maximal in T(G(y), y)."""
        k = self._codes
        return _ids(k.cs, self._psi_mask[k.col(y)])

    def global_phi(self, x) -> frozenset:
        """phi with the restriction map replaced by the constant map onto D."""
        k = self._codes
        values = k.T[[k.row(x)]]
        return _ids(k.ds, _optima(values, np.ones(values.shape, bool), k.lt)[0])

    def global_psi(self, y) -> frozenset:
        """psi with the restriction map replaced by the constant map onto C."""
        k = self._codes
        values = k.T.T[[k.col(y)]]
        return _ids(k.cs, _optima(values, np.ones(values.shape, bool), k.lt.T)[0])

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
        k = self._codes
        i, j = k.row(x), k.col(y)
        v = k.T[i, j]
        rows = np.flatnonzero(k.G[:, j])
        cols = np.flatnonzero(k.F[i])
        return SolutionCertificate(
            pair=(x, y),
            feasible_in_g=bool(k.G[i, j]),
            feasible_in_f=bool(k.F[i, j]),
            row_candidates=_ids(k.cs, rows, tuple),
            col_candidates=_ids(k.ds, cols, tuple),
            row_violators=_ids(k.cs, rows[k.lt[v, k.T[rows, j]]], tuple),
            col_violators=_ids(k.ds, cols[k.lt[k.T[i, cols], v]], tuple),
        )

    def is_solution(self, x, y) -> bool:
        return self.solution_certificate(x, y).ok

    @cached_property
    def solution_set(self) -> frozenset:
        """Every solution pair: feasible, with no row and no column violator.

        These are the fixed points of gamma: y in phi(x) and x in psi(y).
        """
        return self._codes.pairs(self._phi_mask & self._psi_mask.T)

    def extremal_solutions(self, seed: Optional[Pair] = None,
                           direction: str = "maximal") -> frozenset:
        """Solutions above the seed with no solution strictly above them.

        With direction "minimal": below the seed, none strictly below.
        """
        return self._codes.pairs(self._extremal_mask(seed, direction))

    def _extremal_mask(self, seed: Optional[Pair], direction: str) -> np.ndarray:
        k = self._codes
        x0, y0 = self._resolve_seed(seed)
        c_leq, d_leq = k.orders(direction)
        above = self._phi_mask & self._psi_mask.T
        above &= c_leq[k.row(x0)][:, None] & d_leq[k.col(y0)][None, :]
        # how many pairs of `above` lie at or above each pair: 1 is itself only
        count = c_leq.astype(float) @ above.astype(float) @ d_leq.T.astype(float)
        return above & (count == 1)

    # -- hypotheses and solving ----------------------------------------------

    @cached_property
    def phi_monotonicity(self) -> MonotonicityReport:
        k = self._codes
        return mask_monotonicity(self._phi_mask, k.c_leq, k.d_leq)

    @cached_property
    def psi_monotonicity(self) -> MonotonicityReport:
        k = self._codes
        return mask_monotonicity(self._psi_mask, k.d_leq, k.c_leq)

    def check_hypotheses(self, seed: Optional[Pair] = None,
                         direction: str = "maximal") -> HypothesisReport:
        """Evaluate the existence-theorem preconditions at a seed pair.

        With direction "minimal" these are the order-dual conditions of the
        descending climb: phi and psi increasing downward (reported under
        the upward names, as for the dual instance), and a witness below
        the seed.
        """
        seed = self._resolve_seed(seed)
        phi_rep = self.phi_monotonicity
        psi_rep = self.psi_monotonicity
        k = self._codes
        c_leq, d_leq = k.orders(direction)
        if direction == "minimal":
            phi_rep, psi_rep = _flip(phi_rep), _flip(psi_rep)
        i, j = k.row(seed[0]), k.col(seed[1])
        zs = np.flatnonzero(self._psi_mask[j] & c_leq[i])
        us = np.flatnonzero(self._phi_mask[i] & d_leq[j])
        witness = (k.cs[zs[0]], k.ds[us[0]]) if len(zs) and len(us) else None
        return HypothesisReport(seed=seed, phi_monotonicity=phi_rep, psi_monotonicity=psi_rep,
                                seed_condition=witness is not None, seed_witness=witness)

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
        restricted to the up-set of the seed, above the fixed point the
        climb reached.

        Raises HypothesisFailed unless the preconditions hold or ``force``
        is set; raises NoSolution when no solution exists above the seed.
        """
        return self._solve(seed, force, "maximal")

    def solve_minimal(self, seed: Optional[Pair] = None, force: bool = False) -> SolutionReport:
        """Descending climb: solve_maximal under the reversed orders of C and D.

        Requires the dual hypotheses (phi, psi increasing downward and the
        reversed seed condition).  phi and psi themselves only involve the
        utility order, so the solution set is unchanged; only the climb
        direction and the promotion target (minimal below the seed) flip.
        """
        return self._solve(seed, force, "minimal")

    def _solve(self, seed: Optional[Pair], force: bool, direction: str) -> SolutionReport:
        hyp = self.check_hypotheses(seed, direction)
        if not hyp.passes and not force:
            raise HypothesisFailed(
                "solver preconditions failed: " + "; ".join(hyp.failures()), report=hyp
            )
        k = self._codes
        c_leq, d_leq = k.orders(direction)
        phi, psi = self._phi_mask, self._psi_mask
        p = (k.row(hyp.seed[0]), k.col(hyp.seed[1]))
        trace = [p]
        while True:
            i, j = p
            zs = np.flatnonzero(psi[j] & c_leq[i])[:2].tolist()
            us = np.flatnonzero(phi[i] & d_leq[j])[:2].tolist()
            # the lexicographically first q in gamma(p) strictly beyond p
            q = next(((z, u) for z in zs for u in us if (z, u) != p), None)
            if q is None:
                break
            p = q
            trace.append(p)
        # with failing hypotheses a forced climb can strand at a non-fixed
        # point; the promotion then picks from all extremal solutions
        best = self._extremal_mask(hyp.seed, direction)
        fixed = phi[i, j] and psi[j, i]
        if fixed:
            best &= c_leq[i][:, None] & d_leq[j][None, :]
        if not best.any():
            raise NoSolution(
                f"no solution above seed {hyp.seed!r}"
                + ("" if hyp.passes else " (hypotheses were not satisfied)")
            )
        # cells run in pair_index order: the first set one is the least pair
        r, c = np.argwhere(best)[0].tolist()
        solution = (k.cs[r], k.ds[c])
        trace = [(k.cs[a], k.ds[b]) for a, b in trace]
        if fixed and solution != trace[-1]:
            trace.append(solution)
        self._check_trace(trace, descending=direction == "minimal")
        maximal, minimal = (solution, None) if direction == "maximal" else (None, solution)
        return SolutionReport(
            direction=direction, seed=hyp.seed, solutions=self.solution_set,
            maximal_solution=maximal, minimal_solution=minimal, hypotheses=hyp,
            climb_trace=tuple(trace), existence_guaranteed=hyp.passes,
            certificates={solution: self.solution_certificate(*solution)},
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
        k = self._codes
        i, j = k.row(x), k.col(y)
        if not (k.G[i, j] and k.F[i, j]):
            return False
        rank = self.U.leq_matrix.sum(axis=0)  # how many values lie at or below each
        row_max = rank[k.T[k.G[:, j], j]].max()
        col_min = rank[k.T[i, k.F[i]]].min()
        return bool(row_max == rank[k.T[i, j]] == col_min)

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


# largest boolean temporary that one order-optimization broadcast allocates
_CHUNK_CELLS = 1 << 22


class _Codes:
    """An instance with element ids replaced by positions, for array kernels.

    Built once, when the instance is constructed.  The members of C and D
    are numbered in parent order, so positions sort pairs as pair_index
    does.  T[i, j] is the position of T(x_i, y_j) in U, as the ObjectiveMap
    recorded it when it validated the value (or as a game ranked it);
    looking every pair up is the check that T is total.  F[i, j] says y_j in
    F(x_i) and G[i, j] says x_i in G(y_j); lt is the strict order of U;
    c_leq and d_leq are the orders of C and D restricted to their members.
    Serialization and digests read these codes too, converting each element
    id once.
    """

    def __init__(self, inst: ProblemInstance):
        self.cs, self.ds = inst.C.ordered(), inst.D.ordered()
        self.c_pos = {x: i for i, x in enumerate(self.cs)}
        self.d_pos = {y: j for j, y in enumerate(self.ds)}
        pos = inst.T._positions
        try:
            cells = [pos[x, y] for x in self.cs for y in self.ds]
        except KeyError as exc:
            raise UnknownElement(f"objective table has no entry for {exc.args[0]!r}") from None
        self.T = np.array(cells, dtype=np.intp).reshape(len(self.cs), len(self.ds))
        self.F = inst.F.mask()
        self.G = inst.G.mask().T
        self.lt = inst.U.leq_matrix & ~np.eye(len(inst.U), dtype=bool)
        self.c_leq, self.d_leq = inst.C.order_matrix(), inst.D.order_matrix()

    def row(self, x) -> int:
        if x not in self.c_pos:
            raise UnknownElement(f"{x!r} is not in C")
        return self.c_pos[x]

    def col(self, y) -> int:
        if y not in self.d_pos:
            raise UnknownElement(f"{y!r} is not in D")
        return self.d_pos[y]

    def pairs(self, mask: np.ndarray) -> frozenset:
        """The (x, y) pairs where a (|C|, |D|) mask is set."""
        rows, cols = np.nonzero(mask)
        return frozenset(zip(_ids(self.cs, rows, list), _ids(self.ds, cols, list)))

    def orders(self, direction: str) -> tuple:
        """The orders of C and D for a climb direction: reversed when minimal."""
        if direction == "maximal":
            return self.c_leq, self.d_leq
        if direction == "minimal":
            return self.c_leq.T, self.d_leq.T
        raise ValidationError(f"direction must be 'maximal' or 'minimal', got {direction!r}")


def _optima(values: np.ndarray, feasible: np.ndarray, beats: np.ndarray) -> np.ndarray:
    """Row-wise optima: the feasible cells that no feasible cell of their row beats.

    Cell (r, c) is dropped when some feasible (r, k) has
    beats[values[r, k], values[r, c]].  One fancy-indexed broadcast per
    chunk of rows; each temporary holds at most _CHUNK_CELLS booleans, or
    one row's m * m when that is more.
    """
    n, m = values.shape
    out = np.empty((n, m), dtype=bool)
    step = max(1, _CHUNK_CELLS // (m * m))
    for lo in range(0, n, step):
        v, f = values[lo:lo + step], feasible[lo:lo + step]
        beaten = beats[v[:, :, None], v[:, None, :]]
        beaten &= f[:, :, None]
        out[lo:lo + step] = f & ~beaten.any(axis=1)
    return out


def _ids(elements: tuple, picks: np.ndarray, kind=frozenset):
    """The elements at the given positions, or where a boolean mask is set."""
    if picks.dtype == bool:
        return kind(compress(elements, picks.tolist()))
    return kind(map(elements.__getitem__, picks.tolist()))


def _flip(rep: MonotonicityReport) -> MonotonicityReport:
    """The same map's report with both orders reversed: up and down swap."""
    return replace(rep, increasing_upward=rep.increasing_downward,
                   increasing_downward=rep.increasing_upward,
                   decreasing_upward=rep.decreasing_downward,
                   decreasing_downward=rep.decreasing_upward)
