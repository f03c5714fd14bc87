"""Set-valued mappings between posets and their order-monotonicity taxonomy.

A map's table is checked, and its mask built, in one pass by the one rule
that the F and G tables of an instance file follow too; the maps an instance
builds from masks it holds (its F, G, phi and psi) keep the mask unchecked.
The monotonicity flags are computed on index codes: a map is a boolean
(domain x codomain) membership mask, and each up/down flag is
increasing-upward under reversed orders; the four take four boolean matmuls.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import compress
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .errors import UnknownElement, ValidationError
from .poset import Subset, _bool_matmul


@dataclass(frozen=True)
class SetValuedMap:
    """A total map from a domain subset to nonempty subsets of a codomain subset."""

    domain: Subset
    codomain: Subset
    table: Mapping

    def __post_init__(self):
        # the check and the table each read every value, so an iterator is read into a tuple first
        table = {x: tuple(v) if isinstance(v, Iterator) else v for x, v in self.table.items()}
        object.__setattr__(self, "_mask", _table_mask(self.domain, self.codomain, table))
        tbl = {x: frozenset(table[x]) for x in self.domain.ordered()}
        object.__setattr__(self, "table", MappingProxyType(tbl))

    @classmethod
    def _from_mask(cls, domain: Subset, codomain: Subset, mask: np.ndarray) -> "SetValuedMap":
        """The map whose value at the i-th domain member is the codomain members set in row i.

        The mask is kept as it is, unchecked: the caller holds it with every row nonempty.
        """
        self = cls.__new__(cls)
        cod, rows = codomain.ordered(), mask.tolist()
        table = {x: frozenset(compress(cod, row)) for x, row in zip(domain.ordered(), rows)}
        for name, value in (("domain", domain), ("codomain", codomain), ("_mask", mask),
                            ("table", MappingProxyType(table))):
            object.__setattr__(self, name, value)
        return self

    def __call__(self, x) -> frozenset:
        try:
            return self.table[x]
        except (KeyError, TypeError):  # no member, or unhashable
            raise UnknownElement(f"{x!r} is not in the map's domain") from None

    def entries(self):
        """(x, value) pairs in domain order."""
        return tuple((x, self.table[x]) for x in self.domain.ordered())

    def mask(self) -> np.ndarray:
        """Membership mask: [i, j] says codomain member j is in the value at domain member i.

        Rows and columns follow the parent orders; the shape is
        (len(domain), len(codomain)) even when the domain is empty.
        """
        return self._mask.copy()

    def is_singleton_valued(self) -> bool:
        return all(len(v) == 1 for _, v in self.entries())


def _table_mask(domain: Subset, codomain: Subset, table: Mapping) -> np.ndarray:
    """A map's table, checked, as its membership mask with the domain on rows.

    Each domain member, in domain order, needs a nonempty collection of
    codomain members; then the table may have no other key.
    """
    cols, lens, picks = codomain._index, [], []
    for x in domain.ordered():
        if x not in table:
            raise ValidationError(f"set-valued map has no entry for {x!r}")
        values = table[x]
        if isinstance(values, str):  # iterable, but its characters are no value
            raise ValidationError(f"set-valued map value at {x!r} is a string, not a set")
        start = len(picks)
        try:
            picks += map(cols.__getitem__, values)
        except (KeyError, TypeError):  # a member outside the codomain or with no hash, or no set
            if not isinstance(values, Iterable):
                raise ValidationError(f"set-valued map value at {x!r} is not a set") from None
            keys = list(cols)  # a list's membership test compares, and never hashes
            stray = sorted({repr(y) for y in values if y not in keys})
            raise ValidationError(
                f"value at {x!r} contains non-codomain elements {stray}") from None
        if len(picks) == start:
            raise ValidationError(
                f"set-valued map value at {x!r} is empty; values must be nonempty")
        lens.append(len(picks) - start)
    if len(table) > len(lens):  # every member of the domain has its entry
        extra = [key for key in table if key not in domain.members]
        raise ValidationError(f"table has entries outside the domain: {sorted(map(repr, extra))}")
    mask = np.zeros((len(domain), len(codomain)), dtype=bool)
    mask[np.repeat(np.arange(len(lens)), lens), picks] = True
    return mask


def constant_map(domain: Subset, codomain: Subset) -> SetValuedMap:
    """The map sending every domain element to the full codomain."""
    return SetValuedMap(domain, codomain, {x: codomain.members for x in domain.members})


@dataclass(frozen=True)
class MonotonicityReport:
    """Exhaustively evaluated monotonicity flags of a set-valued map.

    ``strictly_increasing``/``strictly_decreasing`` are evaluated only for
    singleton-valued maps (None otherwise): they compare the single values
    strictly across strictly comparable domain pairs.
    """

    increasing_upward: bool
    increasing_downward: bool
    decreasing_upward: bool
    decreasing_downward: bool
    strictly_increasing: Optional[bool] = None
    strictly_decreasing: Optional[bool] = None

    @property
    def increasing(self) -> bool:
        return self.increasing_upward and self.increasing_downward

    @property
    def decreasing(self) -> bool:
        return self.decreasing_upward and self.decreasing_downward


def monotonicity_report(m: SetValuedMap) -> MonotonicityReport:
    """Evaluate all monotonicity flags over every comparable domain pair.

    Increasing upward: for x <= y, each value at x is dominated by some
    value at y.  Increasing downward: for x <= y, each value at y dominates
    some value at x.  The decreasing flags are the order-reversed clauses.
    No sampling: every quantifier is checked exhaustively, by
    :func:`mask_monotonicity` on the map's membership mask.
    """
    return mask_monotonicity(m.mask(), m.domain.order_matrix(), m.codomain.order_matrix())


def _escapes(mask: np.ndarray, cod_leq: np.ndarray) -> np.ndarray:
    """[x, x']: a value at x lies outside the down-closure of the value at x' (per stacked map)."""
    down = _bool_matmul(mask, cod_leq.swapaxes(-1, -2))  # row x: the down-closure at x
    return _bool_matmul(mask, ~down.swapaxes(-1, -2))


def increasing_upward(mask: np.ndarray, dom_leq: np.ndarray, cod_leq: np.ndarray) -> bool:
    """Whether the map whose value at domain member i is row i of mask is increasing upward.

    dom_leq and cod_leq are the orders of the domain and codomain members.
    The flag fails iff some x <= x' has a value at x outside the down-closure
    of the value at x'.  With leading axes, mask and the orders are stacks,
    and the flags are an array: one per stacked map.
    """
    return ~(dom_leq & _escapes(mask, cod_leq)).any(axis=(-2, -1))


def mask_monotonicity(mask: np.ndarray, dom_leq: np.ndarray,
                      cod_leq: np.ndarray) -> MonotonicityReport:
    """The six flags of the map whose value at domain member i is row i of mask.

    dom_leq and cod_leq are the orders of the domain and codomain members.
    Each up/down flag is :func:`increasing_upward` under reversed orders:
    reversing the domain order swaps upward and downward, reversing the
    codomain order swaps increasing and decreasing.  So the escapes under
    each codomain direction are computed once, and each flag is one AND.  A
    singleton-valued map is strictly increasing (decreasing) iff it is
    increasing (decreasing) upward and no x < x' share their one value.
    """
    up, down = _escapes(mask, cod_leq), _escapes(mask, cod_leq.T)
    inc_up, dec_up = not (dom_leq & up).any(), not (dom_leq & down).any()
    strict_inc = strict_dec = None
    if (mask.sum(axis=1) == 1).all():
        single = mask.nonzero()[1]  # the one value of each row, row by row
        pairs = dom_leq & ~np.eye(len(dom_leq), dtype=bool)
        untied = not (pairs & (single[:, None] == single)).any()
        strict_inc, strict_dec = inc_up and untied, dec_up and untied
    return MonotonicityReport(
        increasing_upward=inc_up,
        increasing_downward=not (dom_leq.T & down).any(),
        decreasing_upward=dec_up,
        decreasing_downward=not (dom_leq.T & up).any(),
        strictly_increasing=strict_inc,
        strictly_decreasing=strict_dec,
    )


def is_constant(m: SetValuedMap):
    """(True, the common value) if all entries agree as sets, else (False, None)."""
    values = {v for _, v in m.entries()}
    if len(values) == 1:
        return True, next(iter(values))
    return False, None
