"""Finite partial orders: closed relations, extremal points, products, grids.

Every poset stores its full reflexive, transitively closed boolean incidence
matrix, so order queries are table lookups; the one exception is a game's
chain of payoffs, whose order is its element order: it is total with no
matrix, and builds its triangle only if one is read; it holds its values'
lowest terms, and builds their Fractions only if they are read.  A total
order also has ranks, each element's count of elements below it, on which
the equilibrium kernels compare values.  The public constructor and
:func:`load_poset` number the elements as they refuse repeats; a poset the
library builds numbers them on its first lookup by element, so a game's
chain of payoffs, only read by position, is never hashed.  Products and
grids are plain posets: :func:`product` and :func:`grid_poset` only build
their elements and orders.  All objects are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CycleDetected, DuplicateElement, EmptySubset, UnknownElement, ZeroExtent

Element = Hashable

# the most elements a generated or declared poset may have: its order is an
# n x n matrix (99999 elements would ask for 10 GB), and the monotonicity
# checks multiply |C| x |C| by |C| x |D| matrices; a game's chain of payoffs
# stores no matrix, and has no cap
_MAX_POSET_ELEMENTS = 2048


def _past_cap(counts: Iterable[int]) -> bool:
    """Whether a count passes _MAX_POSET_ELEMENTS, read up to the first that does."""
    return any(n > _MAX_POSET_ELEMENTS for n in counts)


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # "exists" composition of boolean matrices, through BLAS: a float32 sum
    # of 0/1 terms is exact up to 2**24 and positive iff some term is 1
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _positions(elements: tuple) -> dict:
    """Each element's first position; DuplicateElement names the first repeat."""
    # built backwards: a later key overwrites, so each element keeps its first position
    index = dict(zip(elements[::-1], range(len(elements) - 1, -1, -1)))
    if len(index) != len(elements):
        repeat = next(e for i, e in enumerate(elements) if index[e] != i)
        raise DuplicateElement(f"duplicate element {repeat!r}")
    return index


def _close(succ: list) -> tuple:
    """(leq, acyclic): the reflexive-transitive closure of succ[i], i's successors.

    Each node's down-set is one int bitset, final once Kahn's algorithm
    reaches the node.  Nodes Kahn leaves lie on or after a cycle, as do their
    successors: leq is then their block, closed by repeated squaring, and the
    diagonal.
    """
    n = len(succ)
    indeg = [0] * n
    for i, out in enumerate(succ):
        for j in out:
            indeg[j] += j != i  # a self-loop is no cycle
    down = [1 << i for i in range(n)]
    order = [i for i in range(n) if not indeg[i]]
    for i in order:  # Kahn's queue: the loop also reads what it appends
        for j in succ[i]:
            down[j] |= down[i]
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    if len(order) < n:
        left, leq = [i for i in range(n) if indeg[i] > 0], np.eye(n, dtype=bool)
        for i in left:
            leq[i, succ[i]] = True
        block = leq[np.ix_(left, left)]
        for _ in range((len(left) - 1).bit_length()):  # s squarings span 2**s steps
            block = _bool_matmul(block, block)
        leq[np.ix_(left, left)] = block  # every pair related both ways lies in it
        return leq, False
    return _down_set_matrix(down), True


def _down_set_matrix(down: list) -> np.ndarray:
    """The leq matrix whose column j is down[j], an int bitset of the elements below j."""
    n = len(down)
    width = -(-n // 8)
    rows = np.frombuffer(b"".join([b.to_bytes(width, "little") for b in down]), np.uint8)
    bits = np.unpackbits(rows.reshape(n, width), axis=1, count=n, bitorder="little")
    return bits.view(bool).T


def _total_ranks(leq: np.ndarray) -> Optional[np.ndarray]:
    """Each element's count of elements strictly below it when the order leq is total, else None.

    An order is total iff each of its n(n-1)/2 pairs is related, one way
    only: iff leq holds n(n+1)/2 entries.  Its down-set sizes are then 1 to n.
    """
    n = len(leq)
    if np.count_nonzero(leq) != n * (n + 1) // 2:
        return None
    return leq.sum(axis=0) - 1


class Poset:
    """Immutable finite partial order over opaque hashable identifiers.

    The constructor checks that the relation is reflexive, antisymmetric
    (else :class:`CycleDetected`) and transitively closed; use
    :func:`load_poset` to build one from raw edges.  The orders the library
    builds (closures, chains, grids, products, duals) skip these checks;
    a grid or a product is such a poset, with no class of its own.
    """

    def __init__(self, elements: Sequence[Element], leq_matrix: np.ndarray):
        elements = tuple(elements)
        self._adopt(elements, leq_matrix, _positions(elements))
        m, n = self.leq_matrix, len(self._elements)
        if m.shape != (n, n):
            raise ValueError(f"relation shape {m.shape} does not fit {n} elements")
        if n and not m.diagonal().all():
            raise ValueError("relation is not reflexive")
        both = m & m.T
        np.fill_diagonal(both, False)
        if both.any():
            i, j = map(int, np.argwhere(both)[0])
            raise CycleDetected(
                f"antisymmetry violated: {self._elements[i]!r} and "
                f"{self._elements[j]!r} are related both ways"
            )
        if n and (_bool_matmul(m, m) & ~m).any():
            raise ValueError("relation is not transitively closed")

    def _adopt(self, elements: Sequence[Element], leq_matrix: np.ndarray,
               index: Optional[dict] = None) -> None:
        self._elements = tuple(elements)
        if index is not None:
            self._index = index
        self.leq_matrix = np.array(leq_matrix, dtype=bool)
        self.leq_matrix.flags.writeable = False

    @classmethod
    def _trusted(cls, elements: Sequence[Element], leq_matrix: np.ndarray,
                 index: Optional[dict] = None) -> "Poset":
        """A poset on distinct elements and an order the library built closed.

        Neither is checked; ``index`` is the elements' numbering, if the
        caller has made it, else they are numbered on first lookup.
        """
        poset = cls.__new__(cls)
        poset._adopt(elements, leq_matrix, index)
        return poset

    @cached_property
    def _index(self) -> dict:
        """Each element's position, numbered on first lookup."""
        return _positions(self._elements)

    @property
    def elements(self) -> tuple:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator:
        return iter(self._elements)

    def __contains__(self, a) -> bool:
        return a in self._index

    def __repr__(self) -> str:
        return f"Poset({len(self)} elements)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self._elements == other._elements and np.array_equal(
            self.leq_matrix, other.leq_matrix
        )

    def __hash__(self) -> int:
        return hash((self._elements, self.leq_matrix.tobytes()))

    def index(self, a) -> int:
        """Position of ``a`` in the element list; raises UnknownElement."""
        try:
            return self._index[a]
        except KeyError:
            raise UnknownElement(f"{a!r} is not an element of {self!r}") from None

    def leq(self, a, b) -> bool:
        """True iff a is below-or-equal b in the closed relation."""
        return bool(self.leq_matrix[self.index(a), self.index(b)])

    def lt(self, a, b) -> bool:
        """Strict order: a <= b and a != b."""
        return self.leq(a, b) and a != b

    def comparable(self, a, b) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def is_total(self) -> bool:
        """True iff every pair of elements is comparable."""
        return self._ranks is not None

    @cached_property
    def _ranks(self) -> Optional[np.ndarray]:
        """_total_ranks of the order, computed once."""
        return _total_ranks(self.leq_matrix)

    def dual(self) -> "Poset":
        """Same elements under the reversed order."""
        return Poset._trusted(self._elements, self.leq_matrix.T)

    def subset(self, members: Iterable) -> "Subset":
        return Subset(self, frozenset(members))

    def full_subset(self) -> "Subset":
        return Subset(self, frozenset(self._elements))

    def up_set(self, a) -> "Subset":
        """Principal up-set: every b with a <= b, including a itself."""
        row = self.leq_matrix[self.index(a)]
        return self.subset(e for e, keep in zip(self._elements, row) if keep)

    def greatest(self):
        """The order-maximum element, or None if there is none."""
        return _greatest(self._elements, self.leq_matrix)

    def least(self):
        """The order-minimum element, or None if there is none."""
        return _greatest(self._elements, self.leq_matrix.T)

    def hasse_edges(self) -> list[tuple]:
        """Covering pairs (a, b): a < b with nothing strictly between."""
        lt = self.leq_matrix.copy()
        np.fill_diagonal(lt, False)
        i, j = np.nonzero(lt & ~_bool_matmul(lt, lt))  # row-major, as argwhere
        at = self._elements.__getitem__
        return list(zip(map(at, i.tolist()), map(at, j.tolist())))


class _Chain(Poset):
    """A game's utility: distinct rationals in ascending order, held as lowest terms.

    It holds each value's lowest terms (n, d), d > 0, and builds the
    Fractions that are its elements only if a caller reads them.  Its ranks
    are its positions, so it is total without a matrix; the upper triangle
    that is its leq matrix is built only if a caller reads it too.
    """

    def __init__(self, terms: list):
        self._terms = terms

    def __len__(self) -> int:
        return len(self._terms)

    @cached_property
    def _elements(self) -> tuple:
        return tuple(Fraction(n, d) for n, d in self._terms)

    def _value(self, t: int) -> Fraction:
        """The value at position t, with no other element built."""
        return Fraction(*self._terms[t])

    def _strs(self) -> list:
        """Each value's str(Fraction), "n" or "n/d", formatted from its terms."""
        return [str(n) if d == 1 else f"{n}/{d}" for n, d in self._terms]

    @cached_property
    def leq_matrix(self) -> np.ndarray:
        n = len(self._terms)
        leq = np.triu(np.ones((n, n), dtype=bool))
        leq.flags.writeable = False
        return leq

    @cached_property
    def _ranks(self) -> np.ndarray:
        return np.arange(len(self._terms))


@dataclass(frozen=True)
class Subset:
    """A subset of a poset's elements; may be empty unless an operation forbids it.

    Its members are numbered once, in parent order; _index maps each to its position.
    """

    parent: Poset
    members: frozenset

    def __post_init__(self):
        members = frozenset(self.members)
        ordered = tuple(e for e in self.parent.elements if e in members)
        if len(ordered) < len(members):
            unknown = next(e for e in members if e not in self.parent)
            raise UnknownElement(f"{unknown!r} is not an element of the parent poset")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_ordered", ordered)
        object.__setattr__(self, "_index", dict(zip(ordered, range(len(ordered)))))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, a) -> bool:
        return a in self.members

    def __iter__(self) -> Iterator:
        return iter(self.ordered())

    def ordered(self) -> tuple:
        """Members in parent element order (deterministic)."""
        return self._ordered

    def order_matrix(self) -> np.ndarray:
        """The parent's leq matrix restricted to the members, in parent order.

        A full subset's is the parent's own read-only matrix, not a copy.
        """
        if len(self._ordered) == len(self.parent):
            return self.parent.leq_matrix
        idx = list(map(self.parent._index.__getitem__, self._ordered))
        return self.parent.leq_matrix[np.ix_(idx, idx)]

    def maximal_points(self) -> "Subset":
        """Members with no strictly greater member (an antichain, never empty)."""
        return self._extremal(upper=True)

    def minimal_points(self) -> "Subset":
        """Members with no strictly smaller member (an antichain, never empty)."""
        return self._extremal(upper=False)

    def _nonempty_order(self) -> tuple:
        """The members and their order matrix; raises EmptySubset when empty."""
        if not self.members:
            raise EmptySubset("extremal points of an empty subset are undefined")
        return self.ordered(), self.order_matrix()

    def _extremal(self, upper: bool) -> "Subset":
        els, leq = self._nonempty_order()
        # maximal: its row holds only its own diagonal entry (minimal: its column)
        keep = np.count_nonzero(leq, axis=1 if upper else 0) == 1
        return Subset(self.parent, frozenset(e for e, k in zip(els, keep) if k))

    def greatest(self):
        """Order-maximum member, or None; raises EmptySubset when empty."""
        return _greatest(*self._nonempty_order())

    def least(self):
        """Order-minimum member, or None; raises EmptySubset when empty."""
        els, leq = self._nonempty_order()
        return _greatest(els, leq.T)


def _greatest(elements: tuple, leq: np.ndarray):
    """The element that every element is below in ``leq``, or None.

    Its column is all true; by antisymmetry there is at most one.
    """
    idx = np.flatnonzero(leq.all(axis=0))
    return elements[int(idx[0])] if len(idx) else None


def product(p_x: Poset, p_y: Poset) -> Poset:
    """Pairs from two posets under the component-wise order.

    (x1, y1) <= (x2, y2) iff x1 <= x2 in p_x and y1 <= y2 in p_y.
    """
    return Poset._trusted(itertools.product(p_x, p_y), np.kron(p_x.leq_matrix, p_y.leq_matrix))


def grid_poset(dims: Sequence[int]) -> Poset:
    """Integer coordinate tuples below dims, ordered component-wise; (2, 2) is the diamond.

    The order is the Kronecker product of one chain per extent, in the
    row-major order itertools.product lists the tuples in.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ZeroExtent(f"grid extents must all be >= 1, got {dims}")
    chains = (np.triu(np.ones((d, d), dtype=bool)) for d in dims)
    return Poset._trusted(itertools.product(*map(range, dims)), reduce(np.kron, chains))


def load_poset(elements: Sequence[Element], edges: Iterable[Sequence[Element]] = ()) -> Poset:
    """Build a validated poset from identifiers and order edges.

    An edge is a pair a <= b: any two-item sequence, so a tuple or a parsed
    JSON list.  The stored relation is the reflexive-transitive closure of
    the edges, so a Hasse diagram and any relation between it and its
    closure give one poset.  Raises DuplicateElement, UnknownElement, or CycleDetected.
    """
    elements = tuple(elements)
    index = _positions(elements)
    succ = [[] for _ in elements]
    for a, b in edges:
        for end in (a, b):
            if end not in index:
                raise UnknownElement(f"edge endpoint {end!r} is not a declared element")
        succ[index[a]].append(index[b])
    leq, acyclic = _close(succ)  # on a cycle Poset(...) refuses leq, naming a pair
    return Poset._trusted(elements, leq, index) if acyclic else Poset(elements, leq)
