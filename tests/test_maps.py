"""Set-valued maps and the monotonicity taxonomy."""

import random
from dataclasses import asdict

import numpy as np
import pytest

from ordeq import (
    GenSpec,
    SetValuedMap,
    constant_map,
    gen_poset,
    is_constant,
    load_poset,
    monotonicity_report,
)
from ordeq.errors import UnknownElement, ValidationError
from ordeq.generate import POSET_KINDS
from ordeq.maps import increasing_upward

from conftest import chain
from oracles import cell_mask, dict_monotonicity


def make_map(table, domain_poset=None, codomain_poset=None):
    X = domain_poset or chain("c", 2)
    Y = codomain_poset or chain("d", 2)
    return SetValuedMap(X.full_subset(), Y.full_subset(), table)


class TestSetValuedMap:
    def test_missing_entry_rejected(self):
        with pytest.raises(ValidationError):
            make_map({"c0": {"d0"}})

    def test_empty_value_rejected(self):
        with pytest.raises(ValidationError):
            make_map({"c0": set(), "c1": {"d0"}})

    def test_value_outside_codomain_rejected(self):
        with pytest.raises(ValidationError):
            make_map({"c0": {"zzz"}, "c1": {"d0"}})

    def test_stray_entry_rejected(self):
        with pytest.raises(ValidationError):
            make_map({"c0": {"d0"}, "c1": {"d0"}, "c2": {"d0"}})

    def test_lookup_outside_domain(self):
        m = make_map({"c0": {"d0"}, "c1": {"d0"}})
        with pytest.raises(UnknownElement):
            m("nope")

    def test_iterator_values_read_once(self):
        # the table check reads every value, and so does the table built after it
        m = make_map({"c0": iter(["d0"]), "c1": (y for y in ("d1", "d0"))})
        assert m.entries() == (("c0", {"d0"}), ("c1", {"d0", "d1"}))
        assert m.mask().tolist() == [[True, False], [True, True]]

    def test_string_value_rejected(self):
        # a str is iterable, but its characters are no value
        X, Y = chain("x", 1), load_poset(["a", "b", "ab"])
        with pytest.raises(ValidationError, match="'x0'"):
            SetValuedMap(X.full_subset(), Y.full_subset(), {"x0": "ab"})


class TestMonotonicityReport:
    def test_i2_constraint_map_is_increasing(self):
        # F(c0) = {d0} grows to F(c1) = {d0, d1}; the single comparable
        # pair c0 <= c1 satisfies both directions
        m = make_map({"c0": {"d0"}, "c1": {"d0", "d1"}})
        rep = monotonicity_report(m)
        assert rep.increasing_upward
        assert rep.increasing_downward
        assert rep.increasing

    def test_constant_map_satisfies_everything(self):
        X, Y = chain("c", 2), chain("d", 2)
        rep = monotonicity_report(constant_map(X.full_subset(), Y.full_subset()))
        assert rep.increasing_upward and rep.increasing_downward
        assert rep.decreasing_upward and rep.decreasing_downward
        assert rep.increasing and rep.decreasing

    def test_crossing_singletons_not_increasing_upward(self):
        # the matching-pennies global argmin: c0 -> {d1}, c1 -> {d0}
        m = make_map({"c0": {"d1"}, "c1": {"d0"}})
        rep = monotonicity_report(m)
        assert not rep.increasing_upward
        assert rep.strictly_decreasing

    def test_decreasing_upward(self):
        m = make_map({"c0": {"d1"}, "c1": {"d0", "d1"}})
        assert monotonicity_report(m).decreasing_upward

    def test_duality_against_reversed_codomain(self):
        tables = [
            {"c0": {"d0"}, "c1": {"d0", "d1"}},
            {"c0": {"d1"}, "c1": {"d0"}},
            {"c0": {"d0", "d1"}, "c1": {"d1"}},
        ]
        X, Y = chain("c", 2), chain("d", 2)
        for table in tables:
            rep = monotonicity_report(SetValuedMap(X.full_subset(), Y.full_subset(), table))
            flipped = monotonicity_report(
                SetValuedMap(X.full_subset(), Y.dual().full_subset(), table)
            )
            assert rep.decreasing_upward == flipped.increasing_upward
            assert rep.decreasing_downward == flipped.increasing_downward

    def test_singleton_upward_downward_coincide(self):
        for table in (
            {"c0": {"d0"}, "c1": {"d1"}},
            {"c0": {"d1"}, "c1": {"d0"}},
            {"c0": {"d0"}, "c1": {"d0"}},
        ):
            rep = monotonicity_report(make_map(table))
            assert rep.increasing_upward == rep.increasing_downward

    def test_strict_flags_only_for_singletons(self):
        rep = monotonicity_report(make_map({"c0": {"d0"}, "c1": {"d0", "d1"}}))
        assert rep.strictly_increasing is None and rep.strictly_decreasing is None
        rep = monotonicity_report(make_map({"c0": {"d0"}, "c1": {"d1"}}))
        assert rep.strictly_increasing is True
        rep = monotonicity_report(make_map({"c0": {"d0"}, "c1": {"d0"}}))
        assert rep.strictly_increasing is False  # not strict: equal values


def _generated_maps():
    """400 maps between proper subsets of generated posets; every other one
    is singleton-valued, so the strict flags are evaluated."""
    rng = random.Random(2017)
    for seed in range(400):
        X, Y = (
            gen_poset(GenSpec(kind=rng.choice(POSET_KINDS), sizes=(rng.randint(2, 7),),
                              rng_seed=seed * 2 + side, density=0.4))
            for side in (0, 1)
        )
        dom = X.subset(rng.sample(X.elements, rng.randint(1, len(X) - 1)))
        cod = Y.subset(rng.sample(Y.elements, rng.randint(1, len(Y) - 1)))
        members = sorted(cod.members, key=Y.index)
        table = {
            x: rng.sample(members, 1 if seed % 2 else rng.randint(1, len(members)))
            for x in dom.members
        }
        yield SetValuedMap(dom, cod, table)


class TestMaskKernelMatchesReferee:
    def test_maps_between_proper_subsets(self):
        seen = set()
        for m in _generated_maps():
            expected = dict_monotonicity(m)
            assert asdict(monotonicity_report(m)) == expected
            seen.update(expected.items())
        # every flag was seen both holding and failing
        assert all((name, flag) in seen for name in expected for flag in (True, False))
        assert ("strictly_increasing", None) in seen

    def test_increasing_upward_under_reversed_orders(self):
        # reversing the domain order swaps upward and downward, reversing the
        # codomain order swaps increasing and decreasing
        seen = set()
        for m in _generated_maps():
            cs = m.codomain.ordered()
            mask = np.array([[y in m(x) for y in cs] for x in m.domain.ordered()], dtype=bool)
            dom, cod = m.domain.order_matrix(), m.codomain.order_matrix()
            expected = dict_monotonicity(m)
            flags = {
                "increasing_upward": increasing_upward(mask, dom, cod),
                "increasing_downward": increasing_upward(mask, dom.T, cod.T),
                "decreasing_upward": increasing_upward(mask, dom, cod.T),
                "decreasing_downward": increasing_upward(mask, dom.T, cod),
            }
            assert flags == {name: expected[name] for name in flags}
            seen.update(flags.items())
        assert len(seen) == 8

    def test_empty_domain_holds_vacuously(self):
        X, Y = chain("c", 3), chain("d", 3)
        m = SetValuedMap(X.subset([]), Y.subset(["d0", "d2"]), {})
        rep = asdict(monotonicity_report(m))
        assert rep == dict_monotonicity(m)
        assert all(flag is True for flag in rep.values())


class TestMaskMatchesCellReferee:
    def test_maps_between_proper_subsets(self):
        for m in _generated_maps():
            assert np.array_equal(m.mask(), cell_mask(m))

    def test_empty_domain_keeps_its_shape(self):
        X, Y = chain("c", 3), chain("d", 3)
        m = SetValuedMap(X.subset([]), Y.subset(["d0", "d2"]), {})
        assert m.mask().shape == (0, 2)
        assert np.array_equal(m.mask(), cell_mask(m))


class TestIsConstant:
    def test_constant(self):
        X, Y = chain("c", 2), chain("d", 2)
        flag, value = is_constant(constant_map(X.full_subset(), Y.full_subset()))
        assert flag and value == {"d0", "d1"}

    def test_not_constant(self):
        flag, value = is_constant(make_map({"c0": {"d0"}, "c1": {"d0", "d1"}}))
        assert not flag and value is None

    def test_singleton_domain_vacuously_constant(self):
        X = chain("c", 1)
        Y = chain("d", 2)
        m = SetValuedMap(X.full_subset(), Y.full_subset(), {"c0": {"d1"}})
        flag, value = is_constant(m)
        assert flag and value == {"d1"}
