"""Independent reference answers for `ordeq` commands, in plain Python.

It reads `roep-instance/1` documents into index-coded tables and answers with
integer bitsets; it imports nothing from the `ordeq` package.  An order over
n elements is a list `up` of n ints, where bit j of up[i] is set iff i <= j.

The definitions it follows are the README's: a pair (x, y) solves an
instance when x is in G(y), y is in F(x), no feasible row deviation x' in
G(y) has T(x, y) < T(x', y) in U, and no feasible column deviation y' in
F(x) has T(x, y') < T(x, y) in U.  phi(x) is the set of feasible argmins
of T(x, .) over F(x), psi(y) the feasible argmaxes of T(., y) over G(y).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def bits(mask: int):
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask(indices) -> int:
    """The bitset of the given indices; repeats are fine."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def closure(n: int, edges) -> list:
    """Reflexive-transitive closure of index edges (a, b), as up-set bitsets."""
    up = [1 << i for i in range(n)]
    for a, b in edges:
        up[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for i in range(n):
        for j in bits(up[i] & ~(1 << i)):
            if up[j] >> i & 1:
                raise ValueError(f"order has a cycle through elements {i} and {j}")
    return up


def _poset(doc) -> tuple:
    """(element names, up bitsets) of one `posets` entry."""
    if "grid" in doc:
        coords = list(product(*[range(d) for d in doc["grid"]]))
        names = [",".join(map(str, c)) for c in coords]
        up = [
            mask(j for j, d in enumerate(coords) if all(p <= q for p, q in zip(c, d)))
            for c in coords
        ]
        return names, up
    names = list(doc["elements"])
    index = {e: i for i, e in enumerate(names)}
    return names, closure(len(names), [(index[a], index[b]) for a, b in doc.get("edges", [])])


def _restrict(names, up, members) -> tuple:
    """Members in parent order, with the induced order on them."""
    wanted = set(members)
    keep = [i for i, e in enumerate(names) if e in wanted]
    local = {p: k for k, p in enumerate(keep)}
    sub = [mask(local[j] for j in bits(up[p]) if j in local) for p in keep]
    return [names[p] for p in keep], sub


class Instance:
    """An instance as index-coded tables over the members of C, D and U."""

    def __init__(self, doc: dict):
        posets = {name: _poset(p) for name, p in doc["posets"].items()}
        self.cnames, self.cup = _restrict(*posets[doc["C"]["poset"]], doc["C"]["members"])
        self.dnames, self.dup = _restrict(*posets[doc["D"]["poset"]], doc["D"]["members"])
        ci = {e: i for i, e in enumerate(self.cnames)}
        di = {e: j for j, e in enumerate(self.dnames)}
        nc, nd = len(self.cnames), len(self.dnames)
        if doc.get("mode", "roep") == "game":
            values = {(ci[x], di[y]): Fraction(v) for x, y, v in doc["payoff"]}
            levels = sorted(set(values.values()))
            rank = {v: r for r, v in enumerate(levels)}
            self.payoff = values
            self.unames = [str(v) for v in levels]
            self.uup = [((1 << len(levels)) - 1) >> r << r for r in range(len(levels))]
            cells = {pair: rank[v] for pair, v in values.items()}
        else:
            self.unames, self.uup = posets["U"]
            ui = {e: k for k, e in enumerate(self.unames)}
            cells = {(ci[x], di[y]): ui[v] for x, y, v in doc["T"]}
        self.T = [[cells[(i, j)] for j in range(nd)] for i in range(nc)]
        nu = len(self.unames)
        self.ugt = [self.uup[u] & ~(1 << u) for u in range(nu)]
        self.ult = [mask(v for v in range(nu) if self.ugt[v] >> u & 1) for u in range(nu)]
        self.F = self._constraint(doc.get("F"), ci, di, nc, nd)
        self.G = self._constraint(doc.get("G"), di, ci, nd, nc)
        seed = doc.get("seed")
        self.seed = (ci[seed[0]], di[seed[1]]) if seed else None

    @staticmethod
    def _constraint(table, dom, cod, ndom, ncod) -> list:
        if table is None:
            return [(1 << ncod) - 1] * ndom
        out = [0] * ndom
        for x, values in table.items():
            out[dom[x]] = mask(cod[v] for v in values)
        return out

    def optima(self) -> tuple:
        """(phi, psi) as bitsets: phi[i] over D, psi[j] over C."""
        nc, nd, T = len(self.cnames), len(self.dnames), self.T
        row_values = [mask(T[i][j] for j in bits(self.F[i])) for i in range(nc)]
        col_values = [mask(T[i][j] for i in bits(self.G[j])) for j in range(nd)]
        phi = [
            mask(j for j in bits(self.F[i]) if not self.ult[T[i][j]] & row_values[i])
            for i in range(nc)
        ]
        psi = [
            mask(i for i in bits(self.G[j]) if not self.ugt[T[i][j]] & col_values[j])
            for j in range(nd)
        ]
        return phi, psi

    def solutions(self) -> set:
        """Every solution pair, as (C index, D index)."""
        phi, psi = self.optima()
        return {
            (i, j) for i in range(len(self.cnames)) for j in bits(phi[i]) if psi[j] >> i & 1
        }

    def leq(self, p, q) -> bool:
        """Component-wise order on pairs."""
        return bool(self.cup[p[0]] >> q[0] & 1 and self.dup[p[1]] >> q[1] & 1)

    def maximal_above(self, seed, sols) -> set:
        above = [s for s in sols if self.leq(seed, s)]
        return {s for s in above if not any(t != s and self.leq(s, t) for t in above)}

    def names(self, pair) -> tuple:
        return (self.cnames[pair[0]], self.dnames[pair[1]])

    def index(self, pair_names) -> tuple:
        return (self.cnames.index(pair_names[0]), self.dnames.index(pair_names[1]))


def increasing_upward(dom_up, m, cod_up) -> bool:
    """For all a <= b in the domain, each value at a lies below some value at b."""
    return all(
        cod_up[z] & m[b]
        for a in range(len(m))
        for b in bits(dom_up[a])
        for z in bits(m[a])
    )


def expected(inst: Instance) -> dict:
    """Everything the benchmark compares against, named by element ids."""
    phi, psi = inst.optima()
    sols = inst.solutions()
    out = {"solutions": {inst.names(s) for s in sols}}
    if inst.seed is not None:
        i0, j0 = inst.seed
        phi_up = increasing_upward(inst.cup, phi, inst.dup)
        psi_up = increasing_upward(inst.dup, psi, inst.cup)
        seed_ok = bool(psi[j0] & inst.cup[i0] and phi[i0] & inst.dup[j0])
        out.update(
            phi_up=phi_up,
            psi_up=psi_up,
            seed_condition=seed_ok,
            passes=phi_up and psi_up and seed_ok,
            maximal_above={inst.names(s) for s in inst.maximal_above(inst.seed, sols)},
        )
    return out


def witness_ok(inst: Instance, witness) -> bool:
    """A seed witness (z, u) has z in psi(y0), u in phi(x0) and lies above the seed."""
    phi, psi = inst.optima()
    z, u = inst.index(witness)
    i0, j0 = inst.seed
    return bool(psi[j0] >> z & 1 and phi[i0] >> u & 1 and inst.leq((i0, j0), (z, u)))
