"""Independent brute-force oracles used to freeze expected test values.

The saddle oracles deliberately avoid the package's order machinery:
payoffs are plain numbers compared with ``<``/``>``, feasibility is plain
set membership.  They implement the classical constrained saddle conditions
directly.  The dict-based referee below works on a ProblemInstance's public
data, one pair at a time, the climb referee on element ids, the completeness
oracle on a ``leq`` matrix, and the generator referee builds every attempt
as validated objects, each poset from an edge list closed by Warshall and
checked by the public Poset constructor.  The
broadcast referee works on index codes, as the package's optima kernel
does, but by another route.  The count referee finds the extremal
solutions by counting, with float64 matmuls, where the solver takes one
argmax of heights.  The digest referee lays out the digest's bytes from
the normalized document alone.  The row-layout referee lays a T or payoff
table out with the per-row loop the parse used before it looked both ids
up at once.  The subset and map referees scan the
parent poset and test each cell for membership.  The grid referee lays the
coordinates out with np.meshgrid and compares them axis by axis.
"""

import itertools
import random

import numpy as np


def saddle_solutions(n_rows, n_cols, payoff, feasible_cols, feasible_rows):
    """All (i, j) with i feasible for j, j feasible for i, payoff (i, j)
    maximal over feasible rows and minimal over feasible columns.

    payoff: {(i, j): number}; feasible_cols: {i: set of j}; feasible_rows:
    {j: set of i}.
    """
    out = []
    for i in range(n_rows):
        for j in range(n_cols):
            if i not in feasible_rows[j] or j not in feasible_cols[i]:
                continue
            v = payoff[(i, j)]
            if any(payoff[(i2, j)] > v for i2 in feasible_rows[j]):
                continue
            if any(payoff[(i, j2)] < v for j2 in feasible_cols[i]):
                continue
            out.append((i, j))
    return out


def unconstrained_saddles(n_rows, n_cols, payoff):
    cols = {i: set(range(n_cols)) for i in range(n_rows)}
    rows = {j: set(range(n_rows)) for j in range(n_cols)}
    return saddle_solutions(n_rows, n_cols, payoff, cols, rows)


def argmin_row(i, payoff, feasible):
    """Columns j in feasible attaining the row minimum of payoff(i, .)."""
    best = min(payoff[(i, j)] for j in feasible)
    return {j for j in feasible if payoff[(i, j)] == best}


def argmax_col(j, payoff, feasible):
    best = max(payoff[(i, j)] for i in feasible)
    return {i for i in feasible if payoff[(i, j)] == best}


# -- the dict-based solution path ---------------------------------------------
#
# The per-pair computation the package used before its index-coded kernel,
# kept here as a second referee.  phi and psi compare each feasible image with
# every other one through ``U.lt``; the solution set is a certificate scan of
# every pair over element ids.  It reads only T, F, G and the utility order.
# The monotonicity flags loop over comparable domain pairs of a map.


def value_optima(U, images, maximize):
    """Carriers of the (carrier, value) images that no other image strictly beats."""
    keep = []
    for carrier, v in images:
        if maximize:
            beaten = any(U.lt(v, w) for _, w in images)
        else:
            beaten = any(U.lt(w, v) for _, w in images)
        if not beaten:
            keep.append(carrier)
    return frozenset(keep)


def dict_phi(inst, x, feasible=None):
    """Feasible argmin of T(x, .) over F(x), or over ``feasible`` when given."""
    cols = inst.F(x) if feasible is None else feasible
    return value_optima(inst.U, [(y, inst.T.value(x, y)) for y in cols], maximize=False)


def dict_psi(inst, y, feasible=None):
    """Feasible argmax of T(., y) over G(y), or over ``feasible`` when given."""
    rows = inst.G(y) if feasible is None else feasible
    return value_optima(inst.U, [(x, inst.T.value(x, y)) for x in rows], maximize=True)


def dict_is_solution(inst, x, y):
    """Feasible, with no feasible row or column deviation strictly better."""
    if x not in inst.G(y) or y not in inst.F(x):
        return False
    v = inst.T.value(x, y)
    if any(inst.U.lt(v, inst.T.value(x2, y)) for x2 in inst.G(y)):
        return False
    return not any(inst.U.lt(inst.T.value(x, y2), v) for y2 in inst.F(x))


def dict_solution_set(inst):
    return frozenset(
        (x, y) for x in inst.C.members for y in inst.D.members if dict_is_solution(inst, x, y)
    )


def dict_gamma_fixed_points(inst):
    """Pairs with (x, y) in psi(y) x phi(x), from this module's phi and psi."""
    phi = {x: dict_phi(inst, x) for x in inst.C.members}
    psi = {y: dict_psi(inst, y) for y in inst.D.members}
    return frozenset(
        (x, y) for x in inst.C.members for y in inst.D.members if x in psi[y] and y in phi[x]
    )


# -- the broadcast optima ------------------------------------------------------
#
# The array kernel the package used for phi and psi before its value-mask
# matmul: every cell of a row is compared with every other one, Θ(rows·m²)
# work, in chunks of rows so that no temporary passes ``chunk_cells``
# booleans (or one row's m * m when that is more).


def broadcast_optima(values, feasible, beats, chunk_cells=1 << 22):
    """Row-wise optima: the feasible cells that no feasible cell of their row beats."""
    n, m = values.shape
    out = np.empty((n, m), dtype=bool)
    step = max(1, chunk_cells // (m * m))
    for lo in range(0, n, step):
        v, f = values[lo:lo + step], feasible[lo:lo + step]
        beaten = beats[v[:, :, None], v[:, None, :]]
        beaten &= f[:, :, None]
        out[lo:lo + step] = f & ~beaten.any(axis=1)
    return out


# -- the count referee for the promotion ---------------------------------------
#
# The kernel the solver promoted with before it took the highest solution:
# two float64 count matmuls count the solutions at or beyond each pair, and
# the pairs whose count is 1 (themselves only) are extremal.  Its first set
# cell, in pair_index order, is the pick the solver made then.


def extremal_mask(inst, p, direction):
    """The solutions at or beyond the pair at positions p with no solution strictly beyond them."""
    i, j = p
    c_leq, d_leq = inst._directed(direction)[:2]
    beyond = inst._solution_mask & c_leq[i][:, None] & d_leq[j][None, :]
    count = c_leq.astype(float) @ beyond.astype(float) @ d_leq.T.astype(float)
    return beyond & (count == 1)


def promotion_start(inst, rep):
    """The positions the promotion of a solve report started from.

    That is the fixed point of gamma the climb reached: the trace's last
    pair, or the one before it when a promoted step was appended.  A climb
    that stranded short of the solution promoted from the seed.
    """
    trace = rep.climb_trace
    if trace[-1] != rep.solution:
        start = rep.hypotheses.seed
    elif len(trace) > 1 and trace[-1] not in inst.gamma(*trace[-2]):
        start = trace[-2]
    else:
        start = trace[-1]
    return inst._row(start[0]), inst._col(start[1])


def referee_pick(inst, rep):
    """The referee's first extremal cell beyond a solve report's promotion start, as positions."""
    best = extremal_mask(inst, promotion_start(inst, rep), rep.hypotheses.direction)
    return tuple(np.argwhere(best)[0].tolist())


# -- the id-level climb referee -----------------------------------------------
#
# The check a report's climb trace passed before the solver and replay shared
# one positional check: element ids, the parents' Poset.leq and the public
# gamma, one pair at a time.


def pair_leq(inst, p, q):
    """Component-wise product order on C x D pairs."""
    return inst.C.parent.leq(p[0], q[0]) and inst.D.parent.leq(p[1], q[1])


def pair_lt(inst, p, q):
    return p != q and pair_leq(inst, p, q)


def climb_ok(inst, seed, trace, sol, direction):
    """A climb from the seed: each step goes strictly on and lies in gamma.

    Only a last step to the solution may leave gamma, to promote a fixed
    point of gamma.  The climb ends at the solution, or strands where gamma
    leads no further.
    """
    def beyond(a, b):
        return pair_lt(inst, b, a) if direction == "minimal" else pair_lt(inst, a, b)

    if not trace or trace[0] != seed:
        return False
    for k, (a, b) in enumerate(zip(trace, trace[1:])):
        promoted = k == len(trace) - 2 and b == sol and a in inst.gamma(*a)
        if not beyond(a, b) or (b not in inst.gamma(*a) and not promoted):
            return False
    last = trace[-1]
    stranded = last not in inst.gamma(*last) and not any(
        beyond(last, q) for q in inst.gamma(*last))
    return last == sol or stranded


def dict_monotonicity(m):
    """The six monotonicity flags of a SetValuedMap, by name, pair by pair.

    Loops over every comparable pair of domain members through the parent
    posets' ``leq``/``lt``; the strict flags are None unless every value is
    a singleton.
    """
    dom, cod = m.domain.parent, m.codomain.parent
    members = m.domain.ordered()
    pairs = [(x, y) for x in members for y in members if dom.leq(x, y)]

    def holds(at_smaller, witness_above):
        # at_smaller: quantify over values at the smaller point of each pair;
        # witness_above: the witness must dominate the quantified value
        for x, y in pairs:
            quantified, witnesses = (m(x), m(y)) if at_smaller else (m(y), m(x))
            for z in quantified:
                if witness_above:
                    ok = any(cod.leq(z, w) for w in witnesses)
                else:
                    ok = any(cod.leq(w, z) for w in witnesses)
                if not ok:
                    return False
        return True

    strict_inc = strict_dec = None
    if all(len(m(x)) == 1 for x in members):
        single = {x: next(iter(m(x))) for x in members}
        strict_pairs = [(x, y) for x, y in pairs if x != y]
        strict_inc = all(cod.lt(single[x], single[y]) for x, y in strict_pairs)
        strict_dec = all(cod.lt(single[y], single[x]) for x, y in strict_pairs)
    return {
        "increasing_upward": holds(at_smaller=True, witness_above=True),
        "increasing_downward": holds(at_smaller=False, witness_above=False),
        "decreasing_upward": holds(at_smaller=True, witness_above=False),
        "decreasing_downward": holds(at_smaller=False, witness_above=True),
        "strictly_increasing": strict_inc,
        "strictly_decreasing": strict_dec,
    }


# -- finite order completeness -------------------------------------------------
#
# A plain-Python referee for the finite-scale theorem the solver relies on:
# every finite nonempty subset is chain complete, inductive, bi-inductive and
# universally inductive.  It reads only a reflexive, transitively closed
# ``leq`` matrix (``leq[i][j]`` true iff element i <= element j) and checks
# the definitions against every chain, with elements coded as bits.


def chains(leq):
    """All nonempty chains, as index tuples listed bottom to top.

    An n-element total order has 2**n - 1 of them.
    """
    n = len(leq)
    # fewer elements below comes first: a linear extension of the order
    order = sorted(range(n), key=lambda j: sum(bool(leq[i][j]) for i in range(n)))
    out = []

    def grow(chain, rest):
        out.append(tuple(chain))
        for k, j in enumerate(rest):
            if leq[chain[-1]][j]:
                grow(chain + [j], rest[k + 1:])

    for k, i in enumerate(order):
        grow([i], order[k + 1:])
    return out


class CompletenessOracle:
    """Brute-force completeness flags of subsets of one finite poset."""

    def __init__(self, leq):
        n = len(leq)
        self.up = [sum(1 << j for j in range(n) if leq[i][j]) for i in range(n)]
        self.down = [sum(1 << j for j in range(n) if leq[j][i]) for i in range(n)]
        # per chain: its members, and the elements above / below all of them
        self._rows = []
        for chain in chains(leq):
            bits, above, below = 0, (1 << n) - 1, (1 << n) - 1
            for i in chain:
                bits |= 1 << i
                above &= self.up[i]
                below &= self.down[i]
            self._rows.append((bits, above, below))

    def flags(self, members):
        """(chain_complete, inductive, bi_inductive, universally_inductive).

        chain_complete: every chain inside the subset has a least upper bound
        in it.  inductive: every such chain has an upper bound in it.
        bi_inductive: inductive for the order and its dual.
        universally_inductive: every chain of the whole poset whose elements
        each lie below some member has an upper bound among the members.
        """
        s = dominated = 0
        for i in members:
            s |= 1 << i
            dominated |= self.down[i]
        if not s:
            raise ValueError("completeness flags need a nonempty subset")
        chain_complete = inductive = dual_inductive = universally = True
        for bits, above, below in self._rows:
            if bits & ~dominated:
                continue
            bounds = above & s
            universally = universally and bool(bounds)
            if bits & ~s:
                continue
            inductive = inductive and bool(bounds)
            dual_inductive = dual_inductive and bool(below & s)
            chain_complete = chain_complete and any(
                bounds >> b & 1 and bounds & ~self.up[b] == 0
                for b in range(len(self.up))
            )
        return (chain_complete, inductive, inductive and dual_inductive, universally)


# -- the per-attempt object path of the instance generator ---------------------
#
# The generator as it was before it drew attempts as codes: every attempt is a
# fully validated ProblemInstance from the public constructors, tested through
# its public hypothesis report.  It makes the same random draws in the same
# order, so it must produce the same instance, or exhaust on the same specs.


def warshall(matrix):
    """Reflexive-transitive closure of a boolean relation matrix, Theta(n**3)."""
    m = np.array(matrix, dtype=bool)
    np.fill_diagonal(m, True)
    for k in range(len(m)):
        m |= m[:, k, None] & m[None, k, :]
    return m


def edge_poset(names, edges):
    """The poset of an edge list, closed by Warshall and checked by Poset(...)."""
    from ordeq import Poset

    at = {name: i for i, name in enumerate(names)}
    adj = np.zeros((len(names), len(names)), dtype=bool)
    for a, b in edges:
        adj[at[a], at[b]] = True
    return Poset(names, warshall(adj))


def meshgrid_grid(dims):
    """(elements, leq) of a grid as it was built before the Kronecker order.

    np.meshgrid lays out the coordinates; x <= y iff every coordinate of x is
    at most y's.  np.meshgrid takes at most 32 axes.
    """
    coords = np.stack(
        np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"), axis=-1
    ).reshape(-1, len(dims))
    elements = [tuple(int(c) for c in row) for row in coords]
    return elements, (coords[:, None, :] <= coords[None, :, :]).all(axis=-1)


def referee_poset(kind, sizes, rng, prefix, density):
    """A generated poset from its edge list, closed by Warshall.

    The generator built every kind this way before chains, antichains and
    Boolean lattices became their leq matrices.  No poset here is built by
    the package's own closure or without the public constructor's checks.
    """
    from ordeq import Poset

    if kind == "chain":
        (n,) = sizes
        names = [f"{prefix}{i}" for i in range(n)]
        return edge_poset(names, list(zip(names, names[1:])))
    if kind == "antichain":
        (n,) = sizes
        return edge_poset([f"{prefix}{i}" for i in range(n)], [])
    if kind == "boolean_lattice":
        (k,) = sizes
        names = [f"{prefix}{i:0{k}b}" for i in range(2 ** k)]
        edges = [
            (names[i], names[j])
            for i in range(2 ** k)
            for j in range(2 ** k)
            if i != j and i & j == i
        ]
        return edge_poset(names, edges)
    if kind == "grid":
        points = list(itertools.product(*map(range, sizes)))
        return Poset(points, [[all(map(int.__le__, a, b)) for b in points] for a in points])
    (n,) = sizes
    names = [f"{prefix}{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    edges = [
        (names[order[i]], names[order[j]])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return edge_poset(names, edges)


def _referee_poset_sizes(kind, n):
    if kind == "grid":
        for a in range(int(n ** 0.5), 0, -1):
            if n % a == 0:
                return (a, n // a)
    if kind == "boolean_lattice":
        return (max(1, n.bit_length() - 1),)
    return (n,)


def _nonempty_subset(rng, pool):
    k = rng.randint(1, len(pool))
    return frozenset(rng.sample(pool, k))


def _monotone_score(rng, poset, members):
    weights = {e: rng.uniform(0.5, 2.0) for e in members}
    return {
        e: sum(weights[z] for z in members if poset.leq(z, e)) for e in members
    }


def build_attempt(spec, attempt_seed):
    """One generator attempt as a validated ProblemInstance (no seed)."""
    from ordeq import ObjectiveMap, ProblemInstance, SetValuedMap

    rng = random.Random(attempt_seed)
    n_c, n_d, n_u = spec.sizes
    kind = spec.poset_kind
    X = referee_poset(kind, _referee_poset_sizes(kind, n_c), rng, "c", spec.density)
    Y = referee_poset(kind, _referee_poset_sizes(kind, n_d), rng, "d", spec.density)
    C = X.full_subset()
    D = Y.full_subset()
    u_names = [f"u{i}" for i in range(n_u)]
    if spec.monotone_bias:
        U = referee_poset("chain", (n_u,), rng, "u", spec.density)
    else:
        U = referee_poset("random_poset", (n_u,), rng, "u", spec.density)

    cs = C.ordered()
    ds = D.ordered()
    if spec.monotone_bias:
        f = _monotone_score(rng, X, cs)
        g = _monotone_score(rng, Y, ds)
        raw = {(x, y): f[x] - g[y] for x in cs for y in ds}
        levels = sorted(set(raw.values()))
        table = {pair: u_names[levels.index(v) * n_u // len(levels)]
                 for pair, v in raw.items()}
    else:
        table = {(x, y): rng.choice(u_names) for x in cs for y in ds}
    T = ObjectiveMap(U, table)

    def constraint(dom, cod):
        pool = cod.ordered()
        if spec.monotone_bias and rng.random() < 0.7:
            base = _nonempty_subset(rng, pool)
            return SetValuedMap(dom, cod, {x: base for x in dom.members})
        return SetValuedMap(dom, cod, {x: _nonempty_subset(rng, pool) for x in dom.ordered()})

    F = constraint(C, D)
    G = constraint(D, C)
    return ProblemInstance(C, D, T, F, G)


def referee_gen_instance(spec):
    """gen_instance by building and checking every attempt as objects.

    Returns the instance, or raises FilterExhausted like gen_instance.
    """
    from ordeq import ProblemInstance
    from ordeq.errors import FilterExhausted

    master = random.Random(spec.rng_seed)
    attempts = spec.max_retries if spec.filter == "require_hypotheses" else 1
    for _ in range(attempts):
        inst = build_attempt(spec, master.getrandbits(63))
        if spec.filter == "none":
            return inst
        if not (
            inst.phi_monotonicity.increasing_upward
            and inst.psi_monotonicity.increasing_upward
        ):
            continue
        for x in inst.C.ordered():
            for y in inst.D.ordered():
                if inst.check_hypotheses((x, y)).passes:
                    return ProblemInstance(
                        inst.C, inst.D, inst.T, inst.F, inst.G, seed=(x, y)
                    )
    raise FilterExhausted(
        f"no instance passing check_hypotheses found in {attempts} attempts "
        f"(spec seed {spec.rng_seed})"
    )


# -- the game ranking ----------------------------------------------------------
#
# A game's utility chain as it was built before payoffs were ranked by their
# (numerator, denominator) pairs: the distinct values by hashing, their order
# by Fraction comparisons, and each cell's position by the public
# ObjectiveMap's lookup in U.


def referee_game_instance(C, D, payoff, F=None, G=None, seed=None):
    """A game's roep instance, with every payoff converted and looked up per cell."""
    from fractions import Fraction

    from ordeq import ObjectiveMap, Poset, ProblemInstance, constant_map

    table = {pair: Fraction(v) for pair, v in payoff.items()}
    values = sorted(set(table.values()))
    leq = [[i <= j for j in range(len(values))] for i in range(len(values))]
    utility = Poset(values, np.array(leq, dtype=bool))
    return ProblemInstance(
        C, D, ObjectiveMap(utility, table),
        F if F is not None else constant_map(C, D),
        G if G is not None else constant_map(D, C),
        seed=seed,
    )


# -- the instance digest -------------------------------------------------------
#
# The digest's byte layout, derived from the normalized document alone: ids
# from the element and member lists, each order closed by Warshall from the
# Hasse edges, positions from the id lists, a game's U ranked from its
# payoff strings, bits packed one by one and ints by struct.


def _pack_bits(bits):
    """Bits first-highest in each byte, the last byte padded with zeros."""
    bits = [bool(b) for b in bits]
    bits += [False] * (-len(bits) % 8)
    return bytes(sum(b << (7 - k) for k, b in enumerate(bits[i:i + 8]))
                 for i in range(0, len(bits), 8))


def _id_fields(ids):
    """The id lengths in code points and the ids joined, as UTF-8 with surrogates passed."""
    import struct

    return [struct.pack(f"<{len(ids)}I", *(len(i) for i in ids)),
            "".join(ids).encode("utf-8", "surrogatepass")]


def referee_digest(obj):
    """sha256 over the framed fields instance_digest documents, from serialize_instance(obj)."""
    import hashlib
    import struct
    from fractions import Fraction

    from ordeq import serialize_instance

    doc = serialize_instance(obj)
    game = doc["mode"] == "game"
    posets = doc["posets"]
    fields = [b"roep-digest/1", doc["mode"].encode("ascii")]
    for name in ("X", "Y") if game else ("X", "Y", "U"):
        names = posets[name]["elements"]
        at = {e: k for k, e in enumerate(names)}
        adj = np.zeros((len(names), len(names)), dtype=bool)
        for a, b in posets[name]["edges"]:
            adj[at[a], at[b]] = True
        fields += _id_fields(names)
        fields.append(_pack_bits(warshall(adj).ravel().tolist()))
    cs, ds = doc["C"]["members"], doc["D"]["members"]
    for members, name in ((set(cs), "X"), (set(ds), "Y")):
        fields.append(_pack_bits([e in members for e in posets[name]["elements"]]))
    if game:
        value = {v: Fraction(v) for _, _, v in doc["payoff"]}
        chain = sorted(set(value.values()))
        fields += _id_fields([str(v) for v in chain])
        code = {v: chain.index(f) for v, f in value.items()}
    else:
        code = {u: k for k, u in enumerate(posets["U"]["elements"])}
    table = {(x, y): code[v] for x, y, v in doc["payoff" if game else "T"]}
    fields.append(struct.pack(f"<{len(table)}I", *(table[x, y] for x in cs for y in ds)))
    F, G = ({k: set(v) for k, v in doc[m].items()} for m in ("F", "G"))
    fields.append(_pack_bits([y in F[x] for x in cs for y in ds]))
    fields.append(_pack_bits([x in G[y] for y in ds for x in cs]))
    seed = doc.get("seed")
    fields.append(struct.pack("<2I", cs.index(seed[0]), ds.index(seed[1])) if seed else b"")
    blob = b"".join(struct.pack("<Q", len(f)) + f for f in fields)
    return hashlib.sha256(blob).hexdigest()


# -- the row layout of a T or payoff table -------------------------------------
#
# Each row tests its shape, then each id's type and membership, x before y, and
# only then takes its cell: the loop fileio._parse_cells ran before it looked
# both ids up in one step and named a refusal only when that failed.


def referee_cells(section, data, C, D):
    """The [x, y, value] rows as a flat C x D list of raw values, _HOLE where none."""
    from ordeq.equilibrium import _HOLE
    from ordeq.errors import ValidationError

    if not isinstance(data, list):
        raise ValidationError(f"{section}: must be a list of [x, y, value] rows")
    rows, cols, n_d = C._index, D._index, len(D)
    cells = [_HOLE] * (len(C) * n_d)
    for row in data:
        if not isinstance(row, list) or len(row) != 3:
            raise ValidationError(f"{section}: malformed row {row!r}")
        x, y, v = row
        i = rows.get(x) if isinstance(x, str) else None
        if i is None:
            raise ValidationError(f"{section}: row references {x!r}, not a member of C")
        j = cols.get(y) if isinstance(y, str) else None
        if j is None:
            raise ValidationError(f"{section}: row references {y!r}, not a member of D")
        k = i * n_d + j
        if cells[k] is not _HOLE:
            raise ValidationError(f"{section}: duplicate row for ({x!r}, {y!r})")
        cells[k] = v
    return cells


# -- subsets and maps as codes -------------------------------------------------
#
# A subset's members in parent order by a scan of the whole parent, and a
# map's membership mask by one membership test per domain x codomain cell.


def scan_ordered(subset):
    """The members in parent element order, scanning every parent element."""
    return tuple(e for e in subset.parent.elements if e in subset.members)


def scan_order_matrix(subset):
    """The parent's leq matrix restricted to the scanned members."""
    idx = [subset.parent.index(e) for e in scan_ordered(subset)]
    return subset.parent.leq_matrix[np.ix_(idx, idx)]


def cell_mask(m):
    """[i, j]: codomain member j is in the value at domain member i, cell by cell."""
    cs = scan_ordered(m.codomain)
    cells = [y in m(x) for x in scan_ordered(m.domain) for y in cs]
    return np.array(cells, dtype=bool).reshape(len(m.domain), len(cs))
