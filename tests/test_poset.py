"""Poset construction, validation, queries, extremal points, products."""

import numpy as np
import pytest

from ordeq import Poset, load_poset, product, transitive_closure
from ordeq.errors import (
    CycleDetected,
    DuplicateElement,
    EmptySubset,
    UnknownElement,
)

from conftest import chain
from oracles import CompletenessOracle, chains


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

    def test_unknown_edge_endpoint(self):
        with pytest.raises(UnknownElement):
            load_poset(["a"], [("a", "b")])

    def test_full_relation_accepted(self):
        p = load_poset(
            ["a", "b", "c"],
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")],
            edge_kind="full",
        )
        assert p.leq("a", "c")

    def test_closure_idempotent(self):
        p = chain("c", 4)
        again = transitive_closure(p.leq_matrix)
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

    def test_hasse_edges_regenerate_relation(self):
        p = load_poset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        rebuilt = load_poset(p.elements, p.hasse_edges())
        assert rebuilt == p


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
        for p in prod.elements:
            for q in prod.elements:
                assert prod.leq(p, q) == (left.leq(p[0], q[0]) and right.leq(p[1], q[1]))


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
