"""Deterministic generators: shapes, determinism, filters, caps."""

import json
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ordeq import (
    GenSpec,
    ProblemInstance,
    gen_instance,
    gen_poset,
    generate,
    instance_digest,
    serialize_instance,
)
from ordeq.errors import FilterExhausted, InvalidSpec
from ordeq.generate import _BATCH_CAP, POSET_KINDS, _draws, _nonempty_subset, _random_order

from oracles import dict_gamma_fixed_points, referee_digest, referee_gen_instance, referee_poset


class TestGenPoset:
    def test_chain_relation_count(self):
        p = gen_poset(GenSpec(kind="chain", sizes=(3,)))
        # pairs with i <= j, reflexive included: 3 + 2 + 1
        assert int(p.leq_matrix.sum()) == 6

    def test_antichain(self):
        p = gen_poset(GenSpec(kind="antichain", sizes=(4,)))
        assert int(p.leq_matrix.sum()) == 4

    def test_boolean_lattice_two_is_diamond(self):
        p = gen_poset(GenSpec(kind="boolean_lattice", sizes=(2,)))
        assert len(p) == 4
        assert p.full_subset().greatest() is not None
        assert p.full_subset().least() is not None
        mids = [e for e in p.elements if e not in (p.greatest(), p.least())]
        assert not p.comparable(*mids)

    def test_grid(self):
        p = gen_poset(GenSpec(kind="grid", sizes=(2, 3)))
        assert len(p) == 6

    def test_random_poset_validates_and_repeats(self):
        a = gen_poset(GenSpec(kind="random_poset", sizes=(5,), rng_seed=42))
        b = gen_poset(GenSpec(kind="random_poset", sizes=(5,), rng_seed=42))
        assert a == b
        assert len(a) == 5  # construction already ran the full validator

    def test_density_extremes(self):
        empty = gen_poset(GenSpec(kind="random_poset", sizes=(5,), rng_seed=1, density=0.0))
        assert int(empty.leq_matrix.sum()) == 5
        full = gen_poset(GenSpec(kind="random_poset", sizes=(5,), rng_seed=1, density=1.0))
        assert full.is_total()

    def test_instance_kind_rejected(self):
        with pytest.raises(InvalidSpec):
            gen_poset(GenSpec(kind="random_instance", sizes=(2, 2, 2)))


class TestOrdersMatchEdgeReferee:
    # chains, antichains and Boolean lattices are built as their leq matrices;
    # the referee closes their edge lists, as the generator once did

    @pytest.mark.parametrize("kind", ["chain", "antichain", "boolean_lattice"])
    def test_small_sizes(self, kind):
        for size in range(1, 7 if kind == "boolean_lattice" else 10):
            spec = GenSpec(kind=kind, sizes=(size,))
            assert gen_poset(spec) == referee_poset(kind, (size,), None, "e", spec.density)

    @pytest.mark.parametrize("kind, size", [("chain", 2048), ("antichain", 2048),
                                            ("boolean_lattice", 11)])
    def test_largest_size_in_under_a_second(self, kind, size):
        # closing the edge lists took 1.6 to 2.1 s at these sizes
        spec = GenSpec(kind=kind, sizes=(size,))
        started = time.perf_counter()
        made = gen_poset(spec)
        elapsed = time.perf_counter() - started
        assert made == referee_poset(kind, (size,), None, "e", spec.density)
        assert elapsed < 1.0, f"gen_poset took {elapsed:.2f} s"

    # a random order is closed as its edges are drawn; the referee draws the same edges
    # along the same shuffle and closes them afterwards

    @pytest.mark.parametrize("density", [0.0, 0.35, 1.0])
    def test_random_poset_small_sizes(self, density):
        for seed in (0, 1, 7, 2017):
            for n in range(1, 41):
                spec = GenSpec(kind="random_poset", sizes=(n,), rng_seed=seed, density=density)
                assert gen_poset(spec) == referee_poset(
                    "random_poset", (n,), random.Random(seed), "e", density), (seed, n)

    def test_random_poset_largest_size_in_under_a_second(self):
        # 0.26 s when its edges went through a Kahn pass after the draws
        started = time.perf_counter()
        made = gen_poset(GenSpec(kind="random_poset", sizes=(2048,), rng_seed=3))
        elapsed = time.perf_counter() - started
        assert len(made) == 2048
        assert elapsed < 1.0, f"gen_poset took {elapsed:.2f} s"


class TestGenInstance:
    def test_trivial_one_by_one(self):
        inst = gen_instance(GenSpec(kind="random_instance", sizes=(1, 1, 1), rng_seed=0))
        (x,) = inst.C.ordered()
        (y,) = inst.D.ordered()
        assert inst.solution_set == {(x, y)}

    def test_deterministic_and_computable(self):
        inst = gen_instance(GenSpec(kind="random_instance", sizes=(3, 3, 5), rng_seed=7))
        assert inst.solution_set == dict_gamma_fixed_points(inst)
        again = gen_instance(GenSpec(kind="random_instance", sizes=(3, 3, 5), rng_seed=7))
        assert serialize_instance(inst) == serialize_instance(again)

    def test_seed_7_twice_byte_identical(self):
        import json

        spec = GenSpec(kind="random_instance", sizes=(4, 3, 6), rng_seed=7,
                       monotone_bias=True)
        one = json.dumps(serialize_instance(gen_instance(spec)), sort_keys=True)
        two = json.dumps(serialize_instance(gen_instance(spec)), sort_keys=True)
        assert one == two

    def test_filter_records_passing_seed(self):
        inst = gen_instance(
            GenSpec(kind="random_instance", sizes=(3, 3, 5), rng_seed=3,
                    monotone_bias=True, filter="require_hypotheses")
        )
        assert inst.seed is not None
        assert inst.check_hypotheses().passes

    def test_filter_exhaustion_is_honest(self):
        # seed 0 with one unbiased attempt at this shape fails the filter;
        # pinned during test authoring
        spec = GenSpec(kind="random_instance", sizes=(4, 4, 8), rng_seed=0,
                       filter="require_hypotheses", max_retries=1)
        with pytest.raises(FilterExhausted):
            gen_instance(spec)

    def test_all_poset_kinds_produce_valid_instances(self):
        for kind in ("chain", "antichain", "grid", "boolean_lattice", "random_poset"):
            inst = gen_instance(
                GenSpec(kind="random_instance", sizes=(4, 4, 5), rng_seed=2,
                        poset_kind=kind)
            )
            assert inst.solution_set == dict_gamma_fixed_points(inst)

    @pytest.mark.parametrize("kind", ["chain", "antichain", "grid", "boolean_lattice"])
    def test_constant_sides_are_built_once_and_shared(self, kind):
        # C and D of a constant shape, and a biased U (a chain), are one poset per size
        a, b = (gen_instance(GenSpec(kind="random_instance", sizes=(4, 4, 6), rng_seed=seed,
                                     poset_kind=kind, monotone_bias=True)) for seed in (1, 2))
        assert a.C.parent is b.C.parent and a.D.parent is b.D.parent and a.U is b.U
        assert a.C.parent is not a.D.parent  # ids c0.. and d0..; a grid's are tuples
        assert not a.C.parent.leq_matrix.flags.writeable


class TestMatchesObjectReferee:
    """The index-coded generator against the per-attempt object path."""

    @staticmethod
    def _outcome(gen, spec):
        try:
            inst = gen(spec)
        except FilterExhausted as exc:
            return f"FilterExhausted: {exc}"
        assert instance_digest(inst) == referee_digest(inst), spec
        return json.dumps(serialize_instance(inst), sort_keys=True)

    def test_same_instances_and_exhaustions_on_1000_specs(self):
        rng = random.Random(2017)
        outcomes = set()
        for k in range(1000):
            spec = GenSpec(
                kind="random_instance",
                sizes=(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 12)),
                rng_seed=rng.getrandbits(32), density=rng.random(),
                monotone_bias=k % 2 == 1, filter=("none", "require_hypotheses")[k // 2 % 2],
                poset_kind=POSET_KINDS[k // 4 % 5], max_retries=rng.choice((1, 2, 5, 20, 200)),
            )
            got = self._outcome(gen_instance, spec)
            assert got == self._outcome(referee_gen_instance, spec), spec
            outcomes.add(got.startswith("FilterExhausted"))
        assert outcomes == {True, False}

    def test_density_extremes_match(self):
        for density in (0.0, 1.0):
            for kind in POSET_KINDS:
                spec = GenSpec(kind="random_instance", sizes=(6, 6, 12), rng_seed=5,
                               density=density, poset_kind=kind, filter="require_hypotheses",
                               max_retries=30)
                assert self._outcome(gen_instance, spec) == self._outcome(
                    referee_gen_instance, spec)

    # (accepted attempt, poset kind, seed) of (4, 4, 6) unbiased specs, pinned during test
    # authoring: each accepts first at that attempt, at or next to an end of the batches
    # of 1, 2, 4, 8, 16, 16, ... attempts (after 1, 3, 7, 15, 31 and 47 attempts)
    @pytest.mark.parametrize("accepted, kind, seed", [
        (3, "chain", 4), (7, "random_poset", 94), (8, "chain", 7), (15, "random_poset", 33),
        (16, "chain", 24), (17, "random_poset", 5), (31, "chain", 45), (32, "random_poset", 304),
        (33, "chain", 14)])
    def test_batch_ends_match(self, accepted, kind, seed):
        assert _BATCH_CAP == 16  # the pins assume this schedule
        outcomes = []
        for max_retries in (accepted - 1, accepted):
            spec = GenSpec(kind="random_instance", sizes=(4, 4, 6), rng_seed=seed,
                           poset_kind=kind, filter="require_hypotheses", max_retries=max_retries)
            got = self._outcome(gen_instance, spec)
            assert got == self._outcome(referee_gen_instance, spec), spec
            outcomes.append(got.startswith("FilterExhausted"))
        assert outcomes == [True, False]

    @pytest.mark.parametrize("max_retries", [1, 3, _BATCH_CAP, _BATCH_CAP + 1, 2 * _BATCH_CAP + 1])
    def test_exhaustion_seeds_exactly_max_retries_attempts(self, monkeypatch, max_retries):
        seeds = []

        class Counting(random.Random):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(generate, "random", SimpleNamespace(Random=Counting))
        # exhausts all 200 attempts: pinned against the object referee
        spec = GenSpec(kind="random_instance", sizes=(6, 6, 12), rng_seed=0,
                       filter="require_hypotheses", max_retries=max_retries)
        with pytest.raises(FilterExhausted, match=f"in {max_retries} attempts"):
            gen_instance(spec)
        assert len(seeds) == 1 + max_retries  # the spec's master rng, then one per attempt

    def test_builds_only_the_accepted_attempt(self, monkeypatch):
        built = []
        setup = ProblemInstance._setup

        def counting(self, *args, **kwargs):
            built.append(self)
            setup(self, *args, **kwargs)

        monkeypatch.setattr(ProblemInstance, "_setup", counting)
        # exhausts all 200 attempts: pinned against the object referee
        spec = GenSpec(kind="random_instance", sizes=(6, 6, 12), rng_seed=0,
                       poset_kind="random_poset", filter="require_hypotheses")
        with pytest.raises(FilterExhausted):
            gen_instance(spec)
        assert built == []
        inst = gen_instance(GenSpec(kind="random_instance", sizes=(6, 6, 12), rng_seed=0,
                                    monotone_bias=True, filter="require_hypotheses"))
        assert built == [inst]


class TestDrawsMatchRandom:
    """Each draw read from getrandbits gives what the Random method it stands for gives,
    and leaves the stream where that method does: the next random() is the same."""

    @given(st.integers(0, 2 ** 64), st.lists(st.integers(1, 2 ** 40), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_draws_are_choices(self, seed, bounds):
        # a run of draws, each bound its own, gives choice's values in order
        ours, stdlib = random.Random(seed), random.Random(seed)
        assert _draws(ours, bounds) == [stdlib.choice(range(b)) for b in bounds]
        assert ours.random() == stdlib.random()

    @given(st.integers(0, 2 ** 64), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_random_order_shuffles_as_shuffle(self, seed, n):
        # at density 1 each element lies below every later one, so its down-set's size is
        # one past its place in the shuffled order; each pair drew one random()
        ours, stdlib = random.Random(seed), random.Random(seed)
        places = _random_order(n, ours, 1.0).sum(axis=0).tolist()
        order = list(range(n))
        stdlib.shuffle(order)
        for _ in range(n * (n - 1) // 2):
            stdlib.random()
        assert sorted(range(n), key=places.__getitem__) == order
        assert ours.random() == stdlib.random()

    @given(st.integers(0, 2 ** 64), st.integers(1, 21))
    @settings(max_examples=200, deadline=None)
    def test_nonempty_subset_is_randint_then_sample(self, seed, n):
        # sample takes its pool method up to 21 members (a side of an instance has at
        # most 6); past that, for a subset of at most 5, it draws by a set of picks
        ours, stdlib = random.Random(seed), random.Random(seed)
        assert _nonempty_subset(ours, n) == stdlib.sample(range(n), stdlib.randint(1, n))
        assert ours.random() == stdlib.random()


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            GenSpec(kind="weird", sizes=(3,))

    def test_bad_sizes(self):
        with pytest.raises(InvalidSpec):
            GenSpec(kind="chain", sizes=(0,))

    @pytest.mark.parametrize("sizes", [(2.7,), (True,), ("3",), 5, None])
    def test_sizes_must_be_ints(self, sizes):
        # none is a count, though int() would make one of each; 5 and None are no tuple
        with pytest.raises(InvalidSpec, match="sizes must be integers"):
            GenSpec(kind="chain", sizes=sizes)

    @pytest.mark.parametrize("rng_seed", [None, (1, 2), "7", True, 7.0])
    def test_rng_seed_must_be_an_int(self, rng_seed):
        # None would seed from the OS, so one spec would give many instances;
        # random.Random refuses a tuple with a raw TypeError
        with pytest.raises(InvalidSpec, match="rng_seed must be an integer"):
            GenSpec(kind="random_instance", sizes=(2, 2, 2), rng_seed=rng_seed)

    def test_bad_filter(self):
        with pytest.raises(InvalidSpec):
            GenSpec(kind="chain", sizes=(3,), filter="sometimes")

    @pytest.mark.parametrize("max_retries", [0, -3, 2.5, True, "5", None])
    @pytest.mark.parametrize("filter", ["none", "require_hypotheses"])
    def test_max_retries_must_be_a_positive_int(self, filter, max_retries):
        with pytest.raises(InvalidSpec, match="max_retries must be an integer >= 1"):
            GenSpec(kind="random_instance", sizes=(2, 2, 2), filter=filter,
                    max_retries=max_retries)

    @pytest.mark.parametrize("density", [True, False, "0.5", None, [0.5], -0.5, 1.5,
                                         float("nan")])
    def test_density_must_be_a_number_in_the_unit_interval(self, density):
        with pytest.raises(InvalidSpec, match=r"density must be a number in \[0, 1\]"):
            GenSpec(kind="random_poset", sizes=(3,), density=density)

    @pytest.mark.parametrize("density", [0, 1, 0.0, 0.35, 1.0])
    def test_density_int_or_float(self, density):
        assert GenSpec(kind="random_poset", sizes=(3,), density=density).density == density

    @pytest.mark.parametrize("bias", ["no", 1, 0, None])
    def test_monotone_bias_must_be_a_bool(self, bias):
        with pytest.raises(InvalidSpec, match="monotone_bias must be a bool"):
            GenSpec(kind="random_instance", sizes=(2, 2, 2), monotone_bias=bias)

    def test_caps_enforced(self):
        with pytest.raises(InvalidSpec):
            gen_instance(GenSpec(kind="random_instance", sizes=(7, 3, 5)))

    def test_caps_overridable(self):
        # the caps are the generator's, not the spec's: (6, 6, 12) is the largest
        with pytest.raises(TypeError):
            GenSpec(kind="random_instance", sizes=(7, 2, 4), caps=(8, 8, 12))
        inst = gen_instance(GenSpec(kind="random_instance", sizes=(6, 6, 12), rng_seed=1))
        assert (len(inst.C), len(inst.D)) == (6, 6)
        with pytest.raises(InvalidSpec, match=r"exceed the caps \(6, 6, 12\)"):
            gen_instance(GenSpec(kind="random_instance", sizes=(6, 6, 13)))

    def test_wrong_arity(self):
        with pytest.raises(InvalidSpec):
            gen_instance(GenSpec(kind="random_instance", sizes=(3, 3)))
