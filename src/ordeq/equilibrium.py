"""Constrained ordered equilibrium problems on finite posets.

A problem instance bundles two strategy subsets C and D, a utility poset U,
a total objective table T over C x D, and nonempty-valued restriction maps
F: C -> subsets of D and G: D -> subsets of C.  A pair (x*, y*) solves the
problem when it is feasible (x* in G(y*), y* in F(x*)), its value is maximal
among feasible row deviations, and minimal among feasible column deviations.

The solver iterates the product correspondence gamma(x, y) = psi(y) x phi(x) of
the two order-optimization maps: a monotone climb from a seed pair reaches a
fixed point of gamma, which is exactly a solution, and is then promoted to the
highest solution above it, first on ties: a pair strictly above another counts
more members of C and D at or below it, so it is maximal.  The solver and
replay share one claim rule, _climbs.  An instance is made of index codes
(positions instead of element ids): the parse, the generator and games
build them directly, and T, F and G are views of them.  phi and psi are
boolean masks.  When U is totally ordered (a game's U always is) they are the
feasible cells at each row's minimum and each column's maximum of T's ranks
in U, as in the classical saddle-point problem; otherwise each is one boolean
matmul of the values present in each row with the strict order of U.  Their
monotonicity flags are boolean matmuls of those masks with the orders of C
and D, and the solution set is where both masks hold.  Element ids come back
only where a result leaves the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product
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
from .maps import MonotonicityReport, SetValuedMap, mask_monotonicity
from .poset import Poset, Subset, _bool_matmul

Pair = tuple
_ABOVE_EVERY_RANK = np.iinfo(np.intp).max  # ranks are intp counts of elements
_HOLE = object()  # the cell of a pair that has no entry or row


@dataclass(frozen=True)
class ObjectiveMap:
    """Total table assigning an element of the utility poset to each (x, y) pair."""

    utility: Poset
    table: Mapping

    def __post_init__(self):
        tbl, index, elements = dict(self.table), self.utility._index, self.utility.elements
        for pair, v in tbl.items():
            try:
                at = index.get(v)
            except TypeError:  # an unhashable value is no element
                at = None
            # the element itself, not a value of another type that equals it (True for 1)
            if at is None or type(elements[at]) is not type(v):
                raise ValidationError(
                    f"objective value {v!r} at {pair!r} is not in the utility poset"
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
    """Solver precondition trail for a given seed pair and climb direction.

    Mirrors the three conditions the existence argument needs: both
    order-optimization maps increasing upward, universally inductive values
    (a theorem at finite scale, so not evaluated), and a witnessed seed
    condition: some z' in psi(y') above x' and u' in phi(x') above y'.  A
    minimal climb needs the order duals: increasing downward, a witness
    below.  The monotonicity reports are the instance's own either way.
    """

    seed: Pair
    phi_monotonicity: MonotonicityReport
    psi_monotonicity: MonotonicityReport
    seed_condition: bool
    seed_witness: Optional[Pair]  # (z', u') when seed_condition holds
    direction: str = "maximal"

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
        return not self.failures()

    def failures(self) -> list[str]:
        way = "upward" if self.direction == "maximal" else "downward"
        out = [f"{name} is not increasing {way}" for name, rep in
               (("phi", self.phi_monotonicity), ("psi", self.psi_monotonicity))
               if not getattr(rep, f"increasing_{way}")]
        if not self.seed_condition:
            out.append(f"seed condition has no witness at {self.seed!r}")
        return out


@dataclass(frozen=True, eq=False)
class SolutionReport:
    """Outcome of a solve run: solution, trace, hypotheses, certificates."""

    direction: str  # "maximal" or "minimal"
    seed: Pair
    solutions: frozenset
    solution: Pair  # maximal above the seed, or minimal below it, as direction says
    hypotheses: HypothesisReport
    climb_trace: tuple
    certificates: Mapping
    existence_guaranteed: bool


class ProblemInstance:
    """An immutable constrained ordered equilibrium problem, made of index codes.

    C and D number their members in parent order, so positions sort pairs
    as pair_index does.  The codes are _T, where _T[i, j] is the position of
    T(x_i, y_j) in U; _F, where _F[i, j] says y_j is in F(x_i); and _G, where
    _G[j, i] says x_i is in G(y_j).  The parse, the generator and games (a
    ZeroSumGame is an instance) build these codes directly; an omitted F or
    G, None, is the all-true mask.  The public constructor keeps its checks
    and the maps it is given, and converts them once: the parse's T loop
    codes T's table over C x D and refuses a missing pair, then an entry
    outside C x D.  Otherwise T, F and G are views built from the codes on
    first read.  All operations are pure; the phi and psi masks and the
    solution set are computed lazily and cached.
    """

    def __init__(self, C: Subset, D: Subset, T: ObjectiveMap, F: Optional[SetValuedMap] = None,
                 G: Optional[SetValuedMap] = None, seed: Optional[Pair] = None):
        masks = _check_parts(C, D, F, G)
        cells = [T.table.get(pair, _HOLE) for pair in product(C.ordered(), D.ordered())]
        codes = _objective_codes(C, D, T.utility, cells)
        _refuse_stray(T.table, C, D, "objective")
        self._setup(C, D, T.utility, codes, *masks, seed)
        self.T = T
        if F is not None:
            self.F = F
        if G is not None:
            self.G = G

    @classmethod
    def _from_codes(cls, C: Subset, D: Subset, U: Poset, T: np.ndarray, F: Optional[np.ndarray],
                    G: Optional[np.ndarray], seed: Optional[Pair] = None) -> "ProblemInstance":
        """The instance made of these codes; the caller has validated them, this checks the seed."""
        self = cls.__new__(cls)
        self._setup(C, D, U, T, F, G, seed)
        return self

    def _setup(self, C, D, U, T, F, G, seed) -> None:
        # the one setup every instance passes through
        self.C, self.D, self.U = C, D, U
        self._cs, self._ds = C.ordered(), D.ordered()
        self._T = T
        self._F = np.ones(T.shape, dtype=bool) if F is None else F
        self._G = np.ones(T.shape[::-1], dtype=bool) if G is None else G
        ranks = U._ranks  # a game's chain has ranks and no order matrix, which is not read
        self._values, self._lt = _utility_order(T, ranks, U.leq_matrix if ranks is None else None)
        self._c_leq, self._d_leq = C.order_matrix(), D.order_matrix()
        self._by_direction = {}  # _directed's, built on first use
        self.seed = None if seed is None else self._pair(self._resolve_seed(seed))

    @cached_property
    def T(self) -> ObjectiveMap:
        us = self.U.elements
        return ObjectiveMap(self.U, {
            (x, y): us[t] for x, row in zip(self._cs, self._T.tolist())
            for y, t in zip(self._ds, row)})

    @cached_property
    def F(self) -> SetValuedMap:
        return SetValuedMap._from_mask(self.C, self.D, self._F)

    @cached_property
    def G(self) -> SetValuedMap:
        return SetValuedMap._from_mask(self.D, self.C, self._G)

    def __repr__(self):
        return (
            f"{type(self).__name__}(|C|={len(self.C)}, |D|={len(self.D)}, |U|={len(self.U)})"
        )

    # -- positions of elements ------------------------------------------------

    def _row(self, x) -> int:
        if x not in self.C._index:
            raise UnknownElement(f"{x!r} is not in C")
        return self.C._index[x]

    def _col(self, y) -> int:
        if y not in self.D._index:
            raise UnknownElement(f"{y!r} is not in D")
        return self.D._index[y]

    def _pair(self, p: tuple) -> Pair:
        """The (x, y) pair at positions p."""
        return self._cs[p[0]], self._ds[p[1]]

    def _pairs(self, mask: np.ndarray) -> list:
        """The (x, y) pairs where a (|C|, |D|) mask is set, in pair_index order."""
        rows, cols = np.nonzero(mask)
        return list(zip(_ids(self._cs, rows, list), _ids(self._ds, cols, list)))

    def _directed(self, direction: str) -> tuple:
        """C's and D's orders in a direction, contiguous, then each member's height in them."""
        if direction not in ("maximal", "minimal"):
            raise ValidationError(f"direction must be 'maximal' or 'minimal', got {direction!r}")
        if direction not in self._by_direction:
            orders = [np.ascontiguousarray(m if direction == "maximal" else m.T)
                      for m in (self._c_leq, self._d_leq)]
            self._by_direction[direction] = (*orders, *(m.sum(axis=0) for m in orders))
        return self._by_direction[direction]

    # -- order-optimization mappings ----------------------------------------

    @cached_property
    def _phi_mask(self) -> np.ndarray:
        # row i: phi(x_i) over the members of D
        return _optima(self._values, self._F, self._lt, lowest=True)

    @cached_property
    def _psi_mask(self) -> np.ndarray:
        # row j: psi(y_j) over the members of C
        return _optima(self._values.T, self._G, self._lt, lowest=False)

    def phi(self, x) -> frozenset:
        """Feasible argmin: y in F(x) whose value T(x, y) is minimal in T(x, F(x))."""
        return _ids(self._ds, self._phi_mask[self._row(x)])

    def psi(self, y) -> frozenset:
        """Feasible argmax: x in G(y) whose value T(x, y) is maximal in T(G(y), y)."""
        return _ids(self._cs, self._psi_mask[self._col(y)])

    def global_phi(self, x) -> frozenset:
        """phi with the restriction map replaced by the constant map onto D."""
        return self._unconstrained.phi(x)

    def global_psi(self, y) -> frozenset:
        """psi with the restriction map replaced by the constant map onto C."""
        return self._unconstrained.psi(y)

    @cached_property
    def _unconstrained(self) -> "ProblemInstance":
        return self.reduce_to_oep()

    @cached_property
    def phi_map(self) -> SetValuedMap:
        return SetValuedMap._from_mask(self.C, self.D, self._phi_mask)

    @cached_property
    def psi_map(self) -> SetValuedMap:
        return SetValuedMap._from_mask(self.D, self.C, self._psi_mask)

    def gamma(self, x, y) -> frozenset:
        """The product correspondence gamma(x, y) = psi(y) x phi(x); never empty."""
        return frozenset((z, u) for z in self.psi(y) for u in self.phi(x))

    # -- solution predicate and oracle ---------------------------------------

    def solution_certificate(self, x, y) -> SolutionCertificate:
        """Check the solution conditions for (x, y), recording all evidence."""
        return self._certificate(self._row(x), self._col(y))

    def _certificate(self, i: int, j: int) -> SolutionCertificate:
        """solution_certificate at a pair given as positions."""
        values, v = self._values, self._values[i, j]
        rows = np.flatnonzero(self._G[j])
        cols = np.flatnonzero(self._F[i])
        return SolutionCertificate(
            pair=self._pair((i, j)),
            feasible_in_g=bool(self._G[j, i]),
            feasible_in_f=bool(self._F[i, j]),
            row_candidates=_ids(self._cs, rows, tuple),
            col_candidates=_ids(self._ds, cols, tuple),
            row_violators=_ids(self._cs, rows[self._below(v, values[rows, j])], tuple),
            col_violators=_ids(self._ds, cols[self._below(values[i, cols], v)], tuple),
        )

    def _below(self, a, b) -> np.ndarray:
        """Whether each value of a is strictly below that of b in U, both as _values holds them."""
        return a < b if self._lt is None else self._lt[a, b]

    def is_solution(self, x, y) -> bool:
        return self.solution_certificate(x, y).ok

    @cached_property
    def solution_set(self) -> frozenset:
        """Every solution pair: feasible, with no row and no column violator.

        These are the fixed points of gamma: y in phi(x) and x in psi(y).
        """
        return frozenset(self._pairs(self._solution_mask))

    @cached_property
    def _solution_mask(self) -> np.ndarray:
        return self._phi_mask & self._psi_mask.T

    def _highest(self, p: tuple, direction: str) -> Optional[tuple]:
        """The highest solution at or beyond the pair at positions p (the first on ties), or None.

        Height: the members of C at or below x plus of D at or below y, in the direction's orders.
        """
        c_leq, d_leq, c_height, d_height = self._directed(direction)
        beyond = np.flatnonzero(self._solution_mask & c_leq[p[0]][:, None] & d_leq[p[1]])
        if not len(beyond):
            return None
        rows, cols = np.divmod(beyond, len(d_leq))
        k = int(np.argmax(c_height[rows] + d_height[cols]))
        return int(rows[k]), int(cols[k])

    # -- hypotheses and solving ----------------------------------------------

    @cached_property
    def phi_monotonicity(self) -> MonotonicityReport:
        return mask_monotonicity(self._phi_mask, self._c_leq, self._d_leq)

    @cached_property
    def psi_monotonicity(self) -> MonotonicityReport:
        return mask_monotonicity(self._psi_mask, self._d_leq, self._c_leq)

    def check_hypotheses(self, seed: Optional[Pair] = None,
                         direction: str = "maximal") -> HypothesisReport:
        """Evaluate the existence-theorem preconditions at a seed pair.

        With direction "minimal" these are the order-dual conditions of the
        descending climb: phi and psi increasing downward, and a seed witness
        below the seed.  Either way the report carries the instance's own
        monotonicity reports, with every flag in the orders of C and D.
        """
        return self._hypotheses(self._resolve_seed(seed), direction)

    def _hypotheses(self, seed: tuple, direction: str) -> HypothesisReport:
        """check_hypotheses at a seed given as positions."""
        c_leq, d_leq = self._directed(direction)[:2]
        i, j = seed
        zs = np.flatnonzero(self._psi_mask[j] & c_leq[i])
        us = np.flatnonzero(self._phi_mask[i] & d_leq[j])
        witness = self._pair((zs[0], us[0])) if len(zs) and len(us) else None
        return HypothesisReport(seed=self._pair(seed), phi_monotonicity=self.phi_monotonicity,
                                psi_monotonicity=self.psi_monotonicity,
                                seed_condition=witness is not None, seed_witness=witness,
                                direction=direction)

    def _resolve_seed(self, seed: Optional[Pair]) -> tuple[int, int]:
        """The (row, column) of the seed, or of the instance's own: the one check of a seed."""
        if seed is None:
            seed = self.seed
        if seed is None:
            raise ValidationError("no seed pair given and the instance has none")
        try:
            x0, y0 = seed
            i, j = self.C._index.get(x0), self.D._index.get(y0)
        except (TypeError, ValueError):  # not two values, or an unhashable one
            raise ValidationError(
                f"seed must be a pair of C and D members, got {seed!r}") from None
        if i is None:
            raise UnknownElement(f"seed first component {x0!r} is not in C")
        if j is None:
            raise UnknownElement(f"seed second component {y0!r} is not in D")
        return i, j

    def pair_index(self, p: Pair) -> tuple[int, int]:
        return (self.C.parent.index(p[0]), self.D.parent.index(p[1]))

    def solve_maximal(self, seed: Optional[Pair] = None, force: bool = False) -> SolutionReport:
        """Climb gamma from the seed to a fixed point, then promote it maximal.

        The climb keeps a pair p admitting some q in gamma(p) with p <= q;
        while a strictly greater q exists it advances to the one with the
        lexicographically smallest element indices.  When no strictly
        greater successor remains, p lies in gamma(p), hence is a solution.
        It is promoted to the highest solution above it, first on ties: one
        strictly above another counts more members of C and D at or below
        it, so the pick is maximal.  Replay accepts any maximal one above the seed.

        Raises HypothesisFailed unless the preconditions hold or ``force``
        is set; raises NoSolution when no solution exists above the seed.
        """
        return self._solve(seed, force, "maximal")

    def solve_minimal(self, seed: Optional[Pair] = None, force: bool = False) -> SolutionReport:
        """Descending climb: solve_maximal under the reversed orders of C and D.

        Requires the order-dual hypotheses: phi and psi increasing downward
        and a seed witness below the seed.  phi and psi only involve the
        utility order, so the solution set is unchanged; the climb and the
        promotion flip, to the highest solution in the reversed orders: a
        minimal one below the seed.  Replay accepts any minimal one below it.
        """
        return self._solve(seed, force, "minimal")

    def _solve(self, seed: Optional[Pair], force: bool, direction: str) -> SolutionReport:
        seed = self._resolve_seed(seed)
        hyp = self._hypotheses(seed, direction)
        if not hyp.passes and not force:
            raise HypothesisFailed(
                "solver preconditions failed: " + "; ".join(hyp.failures()), report=hyp
            )
        c_leq, d_leq = self._directed(direction)[:2]
        trace = [seed]
        while (q := self._step(trace[-1], c_leq, d_leq)) is not None:
            trace.append(q)
        # the highest solution beyond the fixed point (first on ties) has none beyond it, which
        # would be higher; a forced climb can strand at a non-fixed point: promote from the seed
        fixed = trace[-1] if self._solution_mask[trace[-1]] else None
        solution = self._highest(fixed or seed, direction)
        if solution is None:
            raise NoSolution(
                f"no solution {'above' if direction == 'maximal' else 'below'} seed {hyp.seed!r}"
                + ("" if hyp.passes else " (hypotheses were not satisfied)")
            )
        if fixed and solution != fixed:
            trace.append(solution)
        report = self._report(hyp, seed, direction, trace, solution)
        if report is None:
            raise InvariantBreach(f"the solver's claim fails the claim rule: {trace}, {solution}")
        return report

    def _step(self, p: tuple, c_leq: np.ndarray, d_leq: np.ndarray) -> Optional[tuple]:
        """The lexicographically first pair of gamma(p) strictly beyond p, or None."""
        i, j = p
        zs = np.flatnonzero(self._psi_mask[j] & c_leq[i])[:2].tolist()
        us = np.flatnonzero(self._phi_mask[i] & d_leq[j])[:2].tolist()
        return next(((z, u) for z in zs for u in us if (z, u) != p), None)

    def _climbs(self, trace: list, solution: tuple, direction: str) -> bool:
        """The claim rule: a trace of positions climbs gamma from the seed, its first pair.

        Each step goes strictly beyond the pair before it and lies in gamma
        of it; only a last step to the solution may leave gamma, to promote a
        fixed point.  A trace that stops short of the solution must strand:
        its last pair is no fixed point, and gamma has no pair beyond it.
        The solution lies at or beyond the seed and is its own highest.
        """
        c_leq, d_leq = self._directed(direction)[:2]
        phi, psi = self._phi_mask, self._psi_mask
        in_gamma = lambda p, q: psi[p[1], q[0]] and phi[p[0], q[1]]  # noqa: E731
        for k, (a, b) in enumerate(zip(trace, trace[1:]), 2):
            beyond = a != b and c_leq[a[0], b[0]] and d_leq[a[1], b[1]]
            promoted = k == len(trace) and b == solution and in_gamma(a, a)
            if not beyond or not (in_gamma(a, b) or promoted):
                return False
        (s, t), last = trace[0], trace[-1]
        ends = last == solution or not in_gamma(last, last) and not self._step(last, c_leq, d_leq)
        return bool(ends and c_leq[s, solution[0]] and d_leq[t, solution[1]]
                    and self._highest(solution, direction) == solution)

    def _report(self, hyp: HypothesisReport, seed: tuple, direction: str, trace: list,
                solution: tuple) -> Optional[SolutionReport]:
        """The report of a claim from the seed; None unless it starts at the seed and _climbs.

        The seed, the trace and the solution are positions; hyp is the
        report of the hypotheses at the seed.  The solver and a report's
        replay both build their report here.
        """
        if trace[:1] != [seed] or not self._climbs(trace, solution, direction):
            return None
        ids = [self._pair(p) for p in trace + [solution]]
        return SolutionReport(
            direction=direction, seed=hyp.seed, solutions=self.solution_set,
            solution=ids[-1], hypotheses=hyp, climb_trace=tuple(ids[:-1]),
            existence_guaranteed=hyp.passes,
            certificates={ids[-1]: self._certificate(*solution)},
        )

    # -- special cases and transforms -----------------------------------------

    def scalar_saddle_check(self, x, y) -> bool:
        """Classical saddle test, valid only for totally ordered utilities.

        True iff (x, y) is feasible and max of T(., y) over G(y) equals
        T(x, y) equals min of T(x, .) over F(x).  Agrees with is_solution
        whenever U is a total order.
        """
        if not self.U.is_total():
            raise UtilityNotTotal("scalar saddle check requires a totally ordered utility poset")
        i, j = self._row(x), self._col(y)
        if not (self._G[j, i] and self._F[i, j]):
            return False
        ranks = self._values  # T's values as ranks in U
        return bool(ranks[self._G[j], j].max() == ranks[i, j] == ranks[i, self._F[i]].min())

    def reduce_to_oep(self, replace: str = "both") -> "ProblemInstance":
        """Replace F, G, or both by the constant maps onto D and C.

        With both replaced the instance is an unconstrained ordered
        equilibrium problem: phi and psi coincide with their global
        variants pointwise.
        """
        if replace not in ("both", "F", "G"):
            raise ValueError(f"replace must be 'both', 'F' or 'G', got {replace!r}")
        F = None if replace in ("both", "F") else self._F
        G = None if replace in ("both", "G") else self._G
        return ProblemInstance._from_codes(self.C, self.D, self.U, self._T, F, G, self.seed)

    def dual(self) -> "ProblemInstance":
        """The instance over order-reversed strategy posets (utility unchanged)."""
        C2 = self.C.parent.dual().subset(self.C.members)
        D2 = self.D.parent.dual().subset(self.D.members)
        return ProblemInstance._from_codes(C2, D2, self.U, self._T, self._F, self._G, self.seed)


def _utility_order(T: np.ndarray, ranks: Optional[np.ndarray], leq: Optional[np.ndarray]) -> tuple:
    """What the kernels compare T's values by: (T's ranks, None) when U is total, else (T, lt).

    ranks are U's ranks, None unless U is total; only then is leq, U's
    order, read, for its strict order lt.  With leading axes, T is a stack
    of instances, and so is leq unless they share U.
    """
    if ranks is None:
        return T, leq & ~np.eye(leq.shape[-1], dtype=bool)
    return ranks[T], None


def _optima(values: np.ndarray, feasible: np.ndarray, lt: Optional[np.ndarray],
            lowest: bool) -> np.ndarray:
    """Row-wise optima: the feasible cells whose value no feasible cell of their row beats.

    A lower value beats when lowest (phi), a higher one otherwise (psi).
    values and lt are as _utility_order gives them.  Ranks in a total U
    leave the feasible cells at the row's minimum (maximum).  Otherwise
    present[r, u] says value u sits in a feasible cell of row r, so one
    boolean matmul with the strict order gives the values each row beats.
    Leading axes are a stack of instances, as _utility_order gives them.
    """
    if lt is None:
        if lowest:
            best = values.min(axis=-1, initial=_ABOVE_EVERY_RANK, where=feasible)
        else:
            best = values.max(axis=-1, initial=-1, where=feasible)
        return feasible & (values == best[..., None])
    present = np.zeros((*values.shape[:-1], lt.shape[-1]), dtype=bool)
    present[(*feasible.nonzero()[:-1], values[feasible])] = True
    beaten = _bool_matmul(present, lt if lowest else lt.swapaxes(-1, -2))
    return feasible & ~np.take_along_axis(beaten, values, axis=-1)


def _check_parts(C: Subset, D: Subset, F: Optional[SetValuedMap],
                 G: Optional[SetValuedMap]) -> tuple:
    """The masks of F and G, None for an omitted map, once the parts are checked to fit."""
    if not C.members:
        raise ValidationError("C must be nonempty")
    if not D.members:
        raise ValidationError("D must be nonempty")
    if F is not None and (F.domain != C or F.codomain != D):
        raise ValidationError("F must map C into subsets of D")
    if G is not None and (G.domain != D or G.codomain != C):
        raise ValidationError("G must map D into subsets of C")
    return tuple(None if m is None else m.mask() for m in (F, G))


def _objective_codes(C: Subset, D: Subset, U: Poset, cells: list) -> np.ndarray:
    """T's codes from its C x D cells in row order (_HOLE where none), for files and API alike.

    ObjectiveMap's rule refuses the first value outside U in C x D order, then the first hole.
    """
    try:  # a value outside U (None, or unhashable), or a hole, raises TypeError
        return np.fromiter(map(U._index.get, cells), np.intp, len(cells)).reshape(len(C), len(D))
    except TypeError:
        pairs = list(product(C.ordered(), D.ordered()))
        ObjectiveMap(U, {pair: v for pair, v in zip(pairs, cells) if v is not _HOLE})
        hole = pairs[cells.index(_HOLE)]
        raise UnknownElement(f"objective table has no entry for {hole!r}") from None


def _refuse_stray(table: Mapping, C: Subset, D: Subset, name: str) -> None:
    """Refuse a table with entries outside C x D, once every pair of C x D has its entry."""
    if len(table) != len(C) * len(D):
        extra = set(table) - set(product(C.ordered(), D.ordered()))
        raise ValidationError(f"{name} table has stray entries: {sorted(map(repr, extra))}")


def _ids(elements: tuple, picks: np.ndarray, kind=frozenset):
    """The elements at the given positions, or where a boolean mask is set."""
    if picks.dtype == bool:
        return kind(compress(elements, picks.tolist()))
    return kind(map(elements.__getitem__, picks.tolist()))

