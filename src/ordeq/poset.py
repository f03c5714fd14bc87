"""Finite partial orders: validated relations, extremal points, products, grids.

Every poset stores its full reflexive, transitively closed boolean incidence
matrix, so order queries are table lookups.  All objects are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CycleDetected, DuplicateElement, EmptySubset, UnknownElement, ZeroExtent

Element = Hashable


def transitive_closure(matrix: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean relation matrix (Warshall)."""
    m = np.array(matrix, dtype=bool)
    np.fill_diagonal(m, True)
    for k in range(len(m)):
        m |= m[:, k, None] & m[None, k, :]
    return m


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # "exists" composition of boolean matrices
    return (a.astype(np.uint8) @ b.astype(np.uint8)) > 0


class Poset:
    """Immutable finite partial order over opaque hashable identifiers.

    The constructor expects an already reflexive and transitively closed
    relation and validates it; use :func:`load_poset` to build one from raw
    edges.  Antisymmetry violations raise :class:`CycleDetected`.
    """

    def __init__(self, elements: Sequence[Element], leq_matrix: np.ndarray):
        self._elements = tuple(elements)
        self._index: dict[Element, int] = {}
        for i, e in enumerate(self._elements):
            if e in self._index:
                raise DuplicateElement(f"duplicate element {e!r}")
            self._index[e] = i
        n = len(self._elements)
        m = np.array(leq_matrix, dtype=bool)
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
        m.flags.writeable = False
        self.leq_matrix = m

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
        return f"{type(self).__name__}({len(self)} elements)"

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
        return bool((self.leq_matrix | self.leq_matrix.T).all())

    def dual(self) -> "Poset":
        """Same elements under the reversed order."""
        return Poset(self._elements, self.leq_matrix.T)

    def subset(self, members: Iterable) -> "Subset":
        return Subset(self, frozenset(members))

    def full_subset(self) -> "Subset":
        return Subset(self, frozenset(self._elements))

    def up_set(self, a) -> "Subset":
        """Principal up-set: every b with a <= b, including a itself."""
        row = self.leq_matrix[self.index(a)]
        return self.subset(e for e, keep in zip(self._elements, row) if keep)

    def down_set(self, a) -> "Subset":
        """Principal down-set: every b with b <= a, including a itself."""
        col = self.leq_matrix[:, self.index(a)]
        return self.subset(e for e, keep in zip(self._elements, col) if keep)

    def greatest(self):
        """The order-maximum element, or None if there is none."""
        if not len(self):
            return None
        cols = self.leq_matrix.all(axis=0)
        idx = np.flatnonzero(cols)
        return self._elements[int(idx[0])] if len(idx) else None

    def least(self):
        """The order-minimum element, or None if there is none."""
        if not len(self):
            return None
        rows = self.leq_matrix.all(axis=1)
        idx = np.flatnonzero(rows)
        return self._elements[int(idx[0])] if len(idx) else None

    def hasse_edges(self) -> list[tuple]:
        """Covering pairs (a, b): a < b with nothing strictly between."""
        lt = self.leq_matrix.copy()
        np.fill_diagonal(lt, False)
        covers = lt & ~_bool_matmul(lt, lt)
        return [
            (self._elements[int(i)], self._elements[int(j)])
            for i, j in np.argwhere(covers)
        ]


@dataclass(frozen=True)
class Subset:
    """A subset of a poset's elements; may be empty unless an operation forbids it."""

    parent: Poset
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for e in self.members:
            if e not in self.parent:
                raise UnknownElement(f"{e!r} is not an element of the parent poset")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, a) -> bool:
        return a in self.members

    def __iter__(self) -> Iterator:
        return iter(self.ordered())

    def ordered(self) -> tuple:
        """Members in parent element order (deterministic)."""
        return tuple(e for e in self.parent.elements if e in self.members)

    def maximal_points(self) -> "Subset":
        """Members with no strictly greater member (an antichain, never empty)."""
        return self._extremal(upper=True)

    def minimal_points(self) -> "Subset":
        """Members with no strictly smaller member (an antichain, never empty)."""
        return self._extremal(upper=False)

    def _extremal(self, upper: bool) -> "Subset":
        if not self.members:
            raise EmptySubset("extremal points of an empty subset are undefined")
        idx = [self.parent.index(e) for e in self.ordered()]
        sub = self.parent.leq_matrix[np.ix_(idx, idx)]
        if not upper:
            sub = sub.T
        strict = sub.copy()
        np.fill_diagonal(strict, False)
        keep = ~strict.any(axis=1)
        els = self.ordered()
        return Subset(self.parent, frozenset(e for e, k in zip(els, keep) if k))

    def greatest(self):
        """Order-maximum member, or None."""
        top = self.maximal_points()
        if len(top) == 1:
            (g,) = top.members
            others = all(self.parent.leq(e, g) for e in self.members)
            return g if others else None
        return None

    def least(self):
        bot = self.minimal_points()
        if len(bot) == 1:
            (g,) = bot.members
            others = all(self.parent.leq(g, e) for e in self.members)
            return g if others else None
        return None


class ProductPoset(Poset):
    """Poset of pairs from two factors under the component-wise order.

    (x1, y1) <= (x2, y2) iff x1 <= x2 in the left factor and y1 <= y2 in
    the right one; the relation is materialized exhaustively over all pairs.
    """

    def __init__(self, left: Poset, right: Poset):
        elements = [(a, b) for a in left.elements for b in right.elements]
        matrix = np.kron(
            left.leq_matrix.astype(np.uint8), right.leq_matrix.astype(np.uint8)
        ).astype(bool)
        super().__init__(elements, matrix)
        self.left = left
        self.right = right


def product(p_x: Poset, p_y: Poset) -> ProductPoset:
    """Component-wise product order on pairs of elements."""
    return ProductPoset(p_x, p_y)


def load_poset(elements: Sequence[Element], edges: Iterable[tuple] = (),
               edge_kind: str = "hasse") -> Poset:
    """Build a validated poset from identifiers and order edges.

    The stored relation is the reflexive-transitive closure of the edges;
    both Hasse diagrams and full relations are accepted (``edge_kind`` only
    documents the input convention, closure is applied either way).
    Raises DuplicateElement, UnknownElement, or CycleDetected.
    """
    if edge_kind not in ("hasse", "full"):
        raise ValueError(f"edge_kind must be 'hasse' or 'full', got {edge_kind!r}")
    elements = tuple(elements)
    index: dict[Element, int] = {}
    for i, e in enumerate(elements):
        if e in index:
            raise DuplicateElement(f"duplicate element {e!r}")
        index[e] = i
    adj = np.zeros((len(elements), len(elements)), dtype=bool)
    for a, b in edges:
        for end in (a, b):
            if end not in index:
                raise UnknownElement(f"edge endpoint {end!r} is not a declared element")
        adj[index[a], index[b]] = True
    return Poset(elements, transitive_closure(adj))


class GridPoset(Poset):
    """Integer coordinate tuples below given extents, ordered component-wise."""

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ZeroExtent(f"grid extents must all be >= 1, got {dims}")
        coords = np.stack(
            np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"), axis=-1
        ).reshape(-1, len(dims))
        elements = [tuple(int(c) for c in row) for row in coords]
        matrix = (coords[:, None, :] <= coords[None, :, :]).all(axis=-1)
        super().__init__(elements, matrix)
        self.dims = dims


def grid_poset(dims: Sequence[int]) -> GridPoset:
    """Finite grid under the component-wise order; dims (2, 2) is the diamond."""
    return GridPoset(dims)
