"""Poset construction, validation, queries, extremal points, products."""

import random
from itertools import compress
from pathlib import Path

import numpy as np
import pytest

from ordeq import (
    GenSpec,
    Poset,
    ZeroSumGame,
    gen_instance,
    gen_poset,
    grid_poset,
    load_poset,
    parse_instance,
    product,
)
from ordeq.errors import (
    CycleDetected,
    DuplicateElement,
    EmptySubset,
    UnknownElement,
)

from ordeq.generate import POSET_KINDS

from conftest import chain
from oracles import CompletenessOracle, chains, scan_order_matrix, scan_ordered, warshall


def antichain(prefix, n):
    return load_poset([f"{prefix}{i}" for i in range(n)])


def diamond():
    return product(chain("c", 2), chain("d", 2))


class TestLoadPoset:
    def test_single_element_is_reflexive(self):
        p = load_poset(["a"])
        assert p.leq("a", "a")

    def test_hasse_edge_closure(self):
        p = chain("c", 2)
        assert p.leq("c0", "c1")
        assert p.leq("c0", "c0") and p.leq("c1", "c1")

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            load_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_long_cycle_rejected_after_closure(self):
        with pytest.raises(CycleDetected):
            load_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_duplicate_element(self):
        with pytest.raises(DuplicateElement):
            load_poset(["a", "a"])
        # named before any edge is read or the order is closed
        with pytest.raises(DuplicateElement, match="duplicate element 'b'"):
            load_poset(["a", "b", "b", "a"], [("a", "z")])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(UnknownElement):
            load_poset(["a"], [("a", "b")])

    def test_full_relation_accepted(self):
        p = load_poset(
            ["a", "b", "c"],
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")],
        )
        assert p.leq("a", "c")

    def test_closure_idempotent(self):
        p = chain("c", 4)
        again = warshall(p.leq_matrix)
        assert np.array_equal(again, p.leq_matrix)


class TestQueries:
    def test_leq_chain(self):
        p = chain("c", 2)
        assert p.leq("c0", "c1")
        assert not p.leq("c1", "c0")

    def test_leq_antichain(self):
        p = antichain("a", 2)
        assert not p.leq("a0", "a1")

    def test_leq_unknown(self):
        with pytest.raises(UnknownElement):
            chain("c", 2).leq("c0", "nope")

    def test_total_and_duals(self):
        assert chain("c", 3).is_total()
        assert not antichain("a", 2).is_total()
        d = chain("c", 2).dual()
        assert d.leq("c1", "c0") and not d.leq("c0", "c1")

    def test_greatest_least(self):
        c = chain("c", 3)
        assert c.greatest() == "c2" and c.least() == "c0"
        a = antichain("a", 3)
        assert a.greatest() is None and a.least() is None
        empty = load_poset([])
        assert empty.greatest() is None and empty.least() is None

    def test_subset_greatest_least(self):
        d = diamond()
        side = d.subset([("c0", "d0"), ("c0", "d1")])
        assert side.greatest() == ("c0", "d1") and side.least() == ("c0", "d0")
        rim = d.subset([("c0", "d1"), ("c1", "d0"), ("c1", "d1")])
        assert rim.greatest() == ("c1", "d1") and rim.least() is None
        with pytest.raises(EmptySubset):
            d.subset(set()).greatest()
        with pytest.raises(EmptySubset):
            d.subset(set()).least()

    def test_equality_and_hash(self):
        assert chain("c", 2) == chain("c", 2)
        assert hash(chain("c", 2)) == hash(chain("c", 2))
        assert chain("c", 2) != antichain("c", 2)
        assert (chain("c", 2) == 3) is False

    def test_hasse_edges_regenerate_relation(self):
        p = load_poset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        rebuilt = load_poset(p.elements, p.hasse_edges())
        assert rebuilt == p


class TestCheckedConstructor:
    # the public constructor refuses a relation that is no closed partial order

    def test_refusals_keep_their_messages(self):
        names = ["a", "b", "c"]
        with pytest.raises(ValueError, match=r"^relation shape \(2, 2\) does not fit 3 elements$"):
            Poset(names, np.eye(2, dtype=bool))
        with pytest.raises(ValueError, match="^relation is not reflexive$"):
            Poset(names, np.zeros((3, 3), dtype=bool))
        both = np.eye(3, dtype=bool)
        both[2, 1] = both[1, 2] = both[0, 2] = both[2, 0] = True
        with pytest.raises(CycleDetected, match="^antisymmetry violated: 'a' and 'c' "
                                                "are related both ways$"):
            Poset(names, both)
        gap = np.eye(3, dtype=bool)
        gap[0, 1] = gap[1, 2] = True
        with pytest.raises(ValueError, match="^relation is not transitively closed$"):
            Poset(names, gap)


class TestNoLibraryPathRunsTheChecks:
    # every order the library builds is closed by construction, so none of
    # them goes through the checked constructor (an n**3 matmul per poset)

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        init = Poset.__init__

        def counting(self, *args):
            calls.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(Poset, "__init__", counting)
        return calls

    def test_the_counter_sees_the_public_constructor(self, checked):
        Poset(["a"], [[True]])
        assert checked == ["Poset"]

    def test_parsing_every_fixture(self, checked):
        paths = sorted(Path(__file__).resolve().parents[1].glob("fixtures/*.json"))
        for path in paths:
            if not path.name.endswith(".expected.json"):
                parse_instance(path)
        assert len(paths) > 3 and checked == []

    @pytest.mark.parametrize("kind", POSET_KINDS)
    def test_gen_poset(self, checked, kind):
        sizes = {"boolean_lattice": (3,), "grid": (2, 3)}.get(kind, (7,))
        gen_poset(GenSpec(kind=kind, sizes=sizes, rng_seed=3))
        assert checked == []

    @pytest.mark.parametrize("poset_kind", POSET_KINDS)
    def test_gen_instance(self, checked, poset_kind):
        for bias in (False, True):
            gen_instance(GenSpec(kind="random_instance", sizes=(4, 4, 5), rng_seed=5,
                                 poset_kind=poset_kind, monotone_bias=bias))
        assert checked == []

    def test_game_and_its_transpose(self, checked):
        C, D = grid_poset((2, 2)).full_subset(), grid_poset((3,)).full_subset()
        game = ZeroSumGame(C, D, {(x, y): sum(x) - 2 * y[0] for x in C for y in D})
        game.transpose()
        assert checked == []

    def test_dual_product_and_grid(self, checked):
        p = chain("c", 3)
        p.dual(), product(p, p), grid_poset((2, 3)).dual()
        assert checked == []


class TestCountsPast256:
    # 256 elements strictly between two others: a uint8 count of them wraps to 0

    def test_long_chain_hasse_edges_are_covers(self):
        p = chain("e", 258)
        edges = p.hasse_edges()
        assert len(edges) == 257
        assert ("e0", "e257") not in edges

    def test_closure_check_sees_a_gap_behind_256_paths(self):
        n = 258  # v0 <= k <= v257 for the 256 middle k, but not v0 <= v257
        m = np.eye(n, dtype=bool)
        m[0, 1:-1] = True
        m[1:-1, -1] = True
        with pytest.raises(ValueError, match="not transitively closed"):
            Poset([f"v{i}" for i in range(n)], m)


class TestExtremalPoints:
    def test_diamond_top(self):
        d = diamond()
        top = d.full_subset().maximal_points()
        assert top.members == {("c1", "d1")}

    def test_diamond_bottom(self):
        d = diamond()
        bot = d.full_subset().minimal_points()
        assert bot.members == {("c0", "d0")}

    def test_antichain_all_maximal(self):
        a = antichain("a", 3)
        assert a.full_subset().maximal_points().members == set(a.elements)
        assert a.full_subset().minimal_points().members == set(a.elements)

    def test_incomparable_middle_pair(self):
        d = diamond()
        mids = d.subset({("c1", "d0"), ("c0", "d1")})
        assert mids.maximal_points().members == mids.members

    def test_two_chain_minimum(self):
        c = chain("c", 2)
        assert c.full_subset().minimal_points().members == {"c0"}

    def test_empty_subset_rejected(self):
        d = diamond()
        with pytest.raises(EmptySubset):
            d.subset(set()).maximal_points()
        with pytest.raises(EmptySubset):
            d.subset(set()).minimal_points()

    def test_extremal_sets_are_antichains(self):
        p = load_poset(
            ["a", "b", "c", "d", "e"],
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "e")],
        )
        for sub in (p.full_subset(), p.subset({"a", "b", "c"}), p.subset({"d", "e"})):
            for region in (sub.maximal_points(), sub.minimal_points()):
                assert region.members
                for x in region.members:
                    for y in region.members:
                        assert x == y or not p.leq(x, y)


class TestProduct:
    def test_two_chains_make_a_diamond(self):
        d = diamond()
        assert len(d) == 4
        assert d.full_subset().greatest() == ("c1", "d1")
        assert d.full_subset().least() == ("c0", "d0")
        assert not d.comparable(("c1", "d0"), ("c0", "d1"))

    def test_identity_factor_is_order_isomorphic(self):
        one = load_poset(["*"])
        p = load_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
        prod = product(one, p)
        for x in p.elements:
            for y in p.elements:
                assert prod.leq(("*", x), ("*", y)) == p.leq(x, y)

    def test_chain_times_antichain_strict_relation_count(self):
        # expected count derived by exhaustive conjunction over the 16 pairs
        c = chain("c", 2)
        a = antichain("a", 2)
        expected = sum(
            1
            for x1 in c.elements for y1 in a.elements
            for x2 in c.elements for y2 in a.elements
            if (x1, y1) != (x2, y2) and c.leq(x1, x2) and a.leq(y1, y2)
        )
        assert expected == 2
        prod = product(c, a)
        strict = [
            (p, q)
            for p in prod.elements
            for q in prod.elements
            if p != q and prod.leq(p, q)
        ]
        assert len(strict) == expected

    def test_product_order_agrees_with_factors(self):
        left = load_poset(["a", "b", "c"], [("a", "b")])
        right = chain("d", 2)
        prod = product(left, right)
        assert type(prod) is Poset
        assert prod.elements == tuple((a, b) for a in "abc" for b in right.elements)
        for p in prod.elements:
            for q in prod.elements:
                assert prod.leq(p, q) == (left.leq(p[0], q[0]) and right.leq(p[1], q[1]))


class TestSubsetCodes:
    def test_subsets_match_the_scan_referee(self):
        # proper, full and empty subsets of every generator poset kind
        rng = random.Random(2017)
        for seed in range(20):
            for kind in POSET_KINDS:
                sizes = {"grid": (rng.randint(1, 3), rng.randint(2, 4)),
                         "boolean_lattice": (rng.randint(1, 4),)}.get(kind, (rng.randint(2, 12),))
                p = gen_poset(GenSpec(kind=kind, sizes=sizes, rng_seed=seed))
                proper = rng.sample(p.elements, rng.randint(1, len(p) - 1))
                for members in (proper, p.elements, ()):
                    s = p.subset(members)
                    assert s.ordered() == tuple(s) == scan_ordered(s)
                    assert np.array_equal(s.order_matrix(), scan_order_matrix(s))

    @pytest.mark.parametrize("kind", POSET_KINDS)
    def test_full_subset_reads_the_parent_order_and_leaves_it_unchanged(self, kind):
        p = gen_poset(GenSpec(kind=kind, sizes=(2, 3) if kind == "grid" else (3,), rng_seed=4))
        before = p.leq_matrix.copy()
        s = p.full_subset()
        assert s.order_matrix() is p.leq_matrix
        maximal, minimal = s.maximal_points(), s.minimal_points()
        assert np.array_equal(p.leq_matrix, before)
        # the referee: x is maximal iff no member is strictly above it
        strict = scan_order_matrix(s) & ~np.eye(len(p), dtype=bool)
        assert maximal.ordered() == tuple(compress(p.elements, ~strict.any(axis=1)))
        assert minimal.ordered() == tuple(compress(p.elements, ~strict.any(axis=0)))


class TestUpSet:
    def test_diamond_bottom_reaches_all(self):
        d = diamond()
        assert d.up_set(("c0", "d0")).members == set(d.elements)

    def test_diamond_top_is_singleton(self):
        d = diamond()
        assert d.up_set(("c1", "d1")).members == {("c1", "d1")}

    def test_chain_up_set(self):
        c = chain("c", 2)
        assert c.up_set("c0").members == {"c0", "c1"}

    def test_up_set_upward_closed(self):
        p = load_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "d")])
        for e in p.elements:
            up = p.up_set(e)
            assert e in up
            for m in up.members:
                for other in p.elements:
                    if p.leq(m, other):
                        assert other in up


class TestCompleteness:
    """The finite-scale theorem the solver relies on, against the chain oracle."""

    def test_diamond_subsets_all_true(self):
        d = diamond()
        oracle = CompletenessOracle(d.leq_matrix)
        subsets = [
            d.elements,
            [("c0", "d0")],
            [("c1", "d0"), ("c0", "d1")],
            [("c0", "d0"), ("c1", "d1")],
        ]
        for s in subsets:
            assert all(oracle.flags([d.index(e) for e in s]))

    def test_singleton_all_true(self):
        c = chain("c", 3)
        assert all(CompletenessOracle(c.leq_matrix).flags([c.index("c1")]))

    def test_antichain_all_true(self):
        a = antichain("a", 3)
        assert all(CompletenessOracle(a.leq_matrix).flags(range(3)))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            CompletenessOracle(chain("c", 2).leq_matrix).flags([])


class TestChains:
    def test_chain_count_of_total_order(self):
        # 2**n - 1 nonempty chains in an n-element total order
        assert len(chains(chain("c", 4).leq_matrix)) == 15

    def test_chains_are_chains_and_contain_their_maxima(self):
        p = load_poset(
            ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        found = chains(p.leq_matrix)
        # a, b, c, d, ab, ac, ad, bd, cd, abd, acd
        assert len(found) == len(set(found)) == 11
        for idxs in found:
            els = [p.elements[i] for i in idxs]
            for lo, hi in zip(els, els[1:]):
                assert p.lt(lo, hi)
            top = els[-1]
            assert all(p.leq(e, top) for e in els)
            assert top in els
