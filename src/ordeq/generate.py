"""Deterministic, seeded generation of posets and problem instances.

Everything is a pure function of the GenSpec: the same spec yields the same
artifact, byte for byte after serialization.  Chains, antichains and Boolean
lattices are built as their leq matrices (upper triangle, identity, bitmask
inclusion).  Random posets are built by sampling a strict upper-triangular
edge set over a shuffled element order, which guarantees acyclicity by
construction, and each element's down-set is passed along its edges as
they are drawn, so the order is closed when the last edge is.

An instance attempt is drawn as codes: the orders of X, Y and U as leq
matrices, T as positions in U, F and G as boolean masks.  Its integer draws
(a random order's shuffle, T's cells, a subset's size and members) read
getrandbits as Random's shuffle, choice, randint and sample do, so they
give the stdlib's values (scripts/check_rules.py checks that on
each CPython at hand); a shuffle's swaps and T's cells are each one run of
draws in one loop, and a subset's are one inline loop; random() and
uniform() stay the stdlib's.  The hypothesis filter rejects attempts on
these arrays in batches: phi is tested once on a batch's stacked codes, by
the kernels an instance picks for the same U (T's ranks when U is total),
and G is still each attempt's last draw, made only when its phi passes.
The accepted attempt's codes become the instance as they are.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import accumulate, compress, islice
from operator import mul

import numpy as np

from .equilibrium import ProblemInstance, _optima, _utility_order
from .errors import FilterExhausted, InvalidSpec
from .maps import increasing_upward
from .poset import (_MAX_POSET_ELEMENTS, Poset, _bool_matmul, _down_set_matrix, _past_cap,
                    _total_ranks, grid_poset)

POSET_KINDS = ("chain", "antichain", "boolean_lattice", "grid", "random_poset")
KINDS = POSET_KINDS + ("random_instance",)
_CAPS = (6, 6, 12)  # the largest (|C|, |D|, |U|) gen_instance draws
_BATCH_CAP = 16  # the most attempts whose phi gen_instance tests at once


@dataclass(frozen=True)
class GenSpec:
    """What to generate and from which seed.

    sizes: per kind, (n,) for chain/antichain/random_poset, (k,) for
    boolean_lattice, grid extents for grid, (|C|, |D|, |U|) for
    random_instance.  Each size and rng_seed is an int, and a bool is none.
    filter is "none" or "require_hypotheses"; the latter
    rejection-samples instances until check_hypotheses passes for some seed
    pair, which is then recorded on the instance.
    """

    kind: str
    sizes: tuple
    rng_seed: int = 0
    density: float = 0.35
    monotone_bias: bool = False
    filter: str = "none"
    poset_kind: str = "random_poset"  # shape of C and D in random instances
    max_retries: int = 200

    def __post_init__(self):
        try:
            object.__setattr__(self, "sizes", tuple(self.sizes))
        except TypeError:  # 5 and None hold no sizes
            raise InvalidSpec(f"sizes must be integers, got {self.sizes!r}") from None
        if not all(type(s) is int for s in self.sizes):  # 2.7, "3" and True are no sizes
            raise InvalidSpec(f"sizes must be integers, got {self.sizes!r}")
        if type(self.rng_seed) is not int:  # None would seed from the OS, not from the spec
            raise InvalidSpec(f"rng_seed must be an integer, got {self.rng_seed!r}")
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.filter not in ("none", "require_hypotheses"):
            raise InvalidSpec(f"unknown filter {self.filter!r}")
        if self.poset_kind not in POSET_KINDS:
            raise InvalidSpec(f"unknown poset_kind {self.poset_kind!r}")
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise InvalidSpec(f"sizes must be positive, got {self.sizes}")
        if self.kind in ("chain", "antichain", "boolean_lattice", "random_poset"):
            if len(self.sizes) != 1:
                raise InvalidSpec(f"{self.kind} takes a single size, got {self.sizes}")
        elif self.kind == "random_instance" and len(self.sizes) != 3:
            raise InvalidSpec(
                f"random_instance needs sizes (|C|, |D|, |U|), got {self.sizes}"
            )
        if type(self.max_retries) is not int or self.max_retries < 1:  # a bool is no count
            raise InvalidSpec(f"max_retries must be an integer >= 1, got {self.max_retries!r}")
        if (isinstance(self.density, bool) or not isinstance(self.density, (int, float))
                or not 0.0 <= self.density <= 1.0):  # a bool is no number here
            raise InvalidSpec(f"density must be a number in [0, 1], got {self.density!r}")
        if type(self.monotone_bias) is not bool:
            raise InvalidSpec(f"monotone_bias must be a bool, got {self.monotone_bias!r}")
        if self.kind in POSET_KINDS:
            # n elements, 2**k for a boolean lattice, the extents' product for a grid
            if self.kind == "boolean_lattice":
                counts = [2 ** min(self.sizes[0], 64)]
            else:
                counts = accumulate(self.sizes, mul)
            if _past_cap(counts):
                raise InvalidSpec(f"{self.kind} with sizes {self.sizes} has more than "
                                  f"{_MAX_POSET_ELEMENTS} elements")


def _poset(kind: str, sizes: tuple, rng: random.Random, prefix: str,
           density: float) -> Poset:
    if kind == "chain":
        (n,) = sizes
        return Poset._trusted([f"{prefix}{i}" for i in range(n)],
                              np.triu(np.ones((n, n), dtype=bool)))
    if kind == "antichain":
        (n,) = sizes
        return Poset._trusted([f"{prefix}{i}" for i in range(n)], np.eye(n, dtype=bool))
    if kind == "boolean_lattice":
        (k,) = sizes
        # subsets as bitmasks: i <= j iff every bit of i is set in j
        bits = np.arange(2 ** k)[:, None]
        return Poset._trusted([f"{prefix}{i:0{k}b}" for i in range(2 ** k)], bits & bits.T == bits)
    if kind == "grid":
        return grid_poset(sizes)
    (n,) = sizes  # random_poset: GenSpec and gen_poset admit no other kind
    return Poset._trusted([f"{prefix}{i}" for i in range(n)], _random_order(n, rng, density))


def _draws(rng: random.Random, bounds) -> list:
    """One draw from range(b) per bound b, in order, each as Random._randbelow makes it:
    the top b.bit_length() bits of a word, until they fall below b."""
    getrandbits, out = rng.getrandbits, []
    for b in bounds:
        k = b.bit_length()
        r = getrandbits(k)
        while r >= b:
            r = getrandbits(k)
        out.append(r)
    return out


def _random_order(n: int, rng: random.Random, density: float) -> np.ndarray:
    """The leq matrix of edges drawn along a shuffled order, closed as they are drawn.

    Every edge points to an element later in the order, so each element's
    down-set is final when the draws reach it, and is passed along its edges
    then.
    """
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), _draws(rng, range(n, 1, -1))):  # Random.shuffle's swaps
        order[i], order[j] = order[j], order[i]
    down, draw = [1 << i for i in range(n)], rng.random
    for i, a in enumerate(order):
        below = down[a]
        for b in order[i + 1:]:
            if draw() < density:
                down[b] |= below
    return _down_set_matrix(down)


def gen_poset(spec: GenSpec) -> Poset:
    """Generate a validated poset; deterministic in spec.rng_seed."""
    if spec.kind not in POSET_KINDS:
        raise InvalidSpec(f"kind {spec.kind!r} does not generate a poset")
    rng = random.Random(spec.rng_seed)
    return _poset(spec.kind, spec.sizes, rng, "e", spec.density)


def _side(kind: str, n: int, prefix: str, density: float) -> tuple:
    """One poset of an instance, of about n elements, and a draw of its order.

    A random order is drawn from the attempt's rng, and the poset is then its
    ids; any other is the poset itself, built once per process.
    """
    if kind == "random_poset":
        return tuple(f"{prefix}{i}" for i in range(n)), lambda rng: _random_order(n, rng, density)
    poset = _fixed_side(kind, n, prefix)
    return poset, lambda rng: poset.leq_matrix


@functools.cache  # at most 4 kinds x 12 sizes x 3 prefixes, within _CAPS
def _fixed_side(kind: str, n: int, prefix: str) -> Poset:
    """A side of constant shape; it is immutable, so every instance can share it."""
    sizes = (n,)
    if kind == "grid":
        # the two extents nearest a square whose product is n
        a = max(a for a in range(1, int(n ** 0.5) + 1) if n % a == 0)
        sizes = (a, n // a)
    elif kind == "boolean_lattice":
        sizes = (max(1, n.bit_length() - 1),)
    return _poset(kind, sizes, None, prefix, 0.0)


def _nonempty_subset(rng: random.Random, n: int) -> list:
    """Positions of a random nonempty subset of n members: the draws of randint(1, n), then
    of sample(range(n), k) by its pool method, which sample takes up to 21 members.  They
    are drawn as _draws draws them, inline, below n, then n, n - 1, ... for the picks."""
    getrandbits, pool, picks, b, k = rng.getrandbits, list(range(n)), [], n, 0
    while True:
        w = b.bit_length()
        r = getrandbits(w)
        while r >= b:
            r = getrandbits(w)
        if not k:
            k = r + 1  # randint(1, n)
            continue
        picks.append(pool[r])
        if len(picks) == k:
            return picks
        b -= 1
        pool[r] = pool[b]  # the member not yet picked moves into the vacancy


def _monotone_score(rng: random.Random, leq: np.ndarray) -> list:
    # sum of positive weights over the down-set: nondecreasing along the order
    weights = [rng.uniform(0.5, 2.0) for _ in range(len(leq))]
    return [sum(compress(weights, below)) for below in leq.T.tolist()]


def _draw_table(spec: GenSpec, rng: random.Random, c_leq: np.ndarray,
                d_leq: np.ndarray) -> np.ndarray:
    """T as positions in U, one row per member of C."""
    n_u = spec.sizes[2]
    if spec.monotone_bias:
        f, g = _monotone_score(rng, c_leq), _monotone_score(rng, d_leq)
        raw = [a - b for a in f for b in g]
        level = {v: i for i, v in enumerate(sorted(set(raw)))}  # each distinct value's rank
        cells = [level[v] * n_u // len(level) for v in raw]
    else:
        cells = _draws(rng, [n_u] * (len(c_leq) * len(d_leq)))
    return np.array(cells, dtype=np.intp).reshape(len(c_leq), len(d_leq))


def _draw_constraint(spec: GenSpec, rng: random.Random, n_dom: int, n_cod: int) -> list:
    """The value at each domain member x, as positions x * n_cod + z of its codomain members z."""
    rows = range(0, n_dom * n_cod, n_cod)
    if spec.monotone_bias and rng.random() < 0.7:
        picks = _nonempty_subset(rng, n_cod)
        return [x + z for x in rows for z in picks]
    return [x + z for x in rows for z in _nonempty_subset(rng, n_cod)]


def _stack(leqs: tuple) -> np.ndarray:
    """The attempts' orders of one poset: the order when they all share it, else their stack."""
    return leqs[0] if all(leq is leqs[0] for leq in leqs) else np.array(leqs)


def _masks(positions: list, n_dom: int, n_cod: int) -> np.ndarray:
    """One (n_dom, n_cod) mask per attempt, set at that attempt's positions, in one scatter."""
    size = n_dom * n_cod
    flat = np.zeros(len(positions) * size, dtype=bool)
    flat[[k + p for k, ps in zip(range(0, len(flat), size), positions) for p in ps]] = True
    return flat.reshape(-1, n_dom, n_cod)


def gen_instance(spec: GenSpec) -> ProblemInstance:
    """Generate a valid problem instance; deterministic in spec.rng_seed.

    With filter "require_hypotheses" the generator retries (up to
    spec.max_retries fresh attempts) until some seed pair passes
    check_hypotheses; the first passing pair in C x D order is recorded as
    the instance seed.  Each attempt is drawn as codes from its own rng and
    rejected on them: phi increasing upward is tested before G is drawn,
    then psi, then the seed condition.  Attempts are drawn in batches of 1,
    2, 4, ... up to _BATCH_CAP, and phi is tested once per batch, on the
    stacked codes; the first attempt in order whose phi passes goes on to
    G and psi.  The masks and flags come from the instance's own kernels on
    the same codes, so the verdict is the instance's, and only the accepted
    attempt becomes an instance.  Raises FilterExhausted honestly when the
    cap is hit.
    """
    if spec.kind != "random_instance":
        raise InvalidSpec(f"kind {spec.kind!r} does not generate an instance")
    if any(s > c for s, c in zip(spec.sizes, _CAPS)):
        raise InvalidSpec(f"sizes {spec.sizes} exceed the caps {_CAPS}")

    kind, density, n_u = spec.poset_kind, spec.density, spec.sizes[2]
    sides, draws = zip(
        _side(kind, spec.sizes[0], "c", density),
        _side(kind, spec.sizes[1], "d", density),
        _side("chain" if spec.monotone_bias else "random_poset", n_u, "u", density),
    )
    n_c, n_d = len(sides[0]), len(sides[1])  # a boolean lattice may be smaller
    master = random.Random(spec.rng_seed)

    def attempt() -> tuple:
        """An attempt's rng, orders, T and F; its G is drawn from the rng later, if at all."""
        rng = random.Random(master.getrandbits(63))
        orders = tuple(draw(rng) for draw in draws)
        return (rng, orders, _draw_table(spec, rng, *orders[:2]),
                _draw_constraint(spec, rng, n_c, n_d))

    if spec.filter == "none":
        rng, orders, T, F = attempt()
        G = _draw_constraint(spec, rng, n_d, n_c)
        return _build(sides, orders, T, _masks([F], n_c, n_d)[0], _masks([G], n_d, n_c)[0])
    attempts, size = (attempt() for _ in range(spec.max_retries)), 1
    while batch := list(islice(attempts, size)):
        size = min(2 * size, _BATCH_CAP)
        rngs, orders, T, F = zip(*batch)
        c_leq, d_leq, u_leq = map(_stack, zip(*orders))
        T, F = np.array(T), _masks(F, n_c, n_d)
        # a shared U's ranks, if it is total; lt gives the same optima for any U
        values, lt = _utility_order(T, _total_ranks(u_leq) if u_leq.ndim == 2 else None, u_leq)
        phi = _optima(values, F, lt, lowest=True)
        for k in compress(range(len(batch)), increasing_upward(phi, c_leq, d_leq).tolist()):
            G = _masks([_draw_constraint(spec, rngs[k], n_d, n_c)], n_d, n_c)[0]  # its last draw
            psi = _optima(values[k].T, G, lt if u_leq.ndim == 2 else lt[k], lowest=False)
            c_k, d_k = orders[k][:2]
            if not increasing_upward(psi, d_k, c_k):
                continue
            # seed (x, y): some z in psi(y) above x and some u in phi(x) above y
            seeds = np.flatnonzero(_bool_matmul(c_k, psi.T) & _bool_matmul(phi[k], d_k.T))
            if len(seeds):
                return _build(sides, orders[k], T[k], F[k], G, seed=divmod(int(seeds[0]), n_d))
    raise FilterExhausted(
        f"no instance passing check_hypotheses found in {spec.max_retries} attempts "
        f"(spec seed {spec.rng_seed})"
    )


def _build(sides: tuple, orders: tuple, T: np.ndarray, F: np.ndarray,
           G: np.ndarray, seed=None) -> ProblemInstance:
    """The instance made of an attempt's codes; G's row j is G(y_j), a seed is positions.

    A side that is a poset is used as it is; one that is ids gets the attempt's order.
    """
    X, Y, U = (side if isinstance(side, Poset) else Poset._trusted(side, leq)
               for side, leq in zip(sides, orders))
    return ProblemInstance._from_codes(
        X.full_subset(), Y.full_subset(), U, T, F, G,
        seed=None if seed is None else (X.elements[seed[0]], Y.elements[seed[1]]),
    )
