"""Instances are made of index codes: what each way of building one constructs.

The parse, the generator, games, dual and reduce_to_oep build an instance
straight from its codes; T, F and G are views of them, read back into the
public constructor unchanged.
"""

import gc
import json
from fractions import Fraction

import numpy as np
import pytest

import ordeq.fileio
from ordeq import (
    GenSpec,
    ObjectiveMap,
    ProblemInstance,
    SetValuedMap,
    ZeroSumGame,
    constant_map,
    gen_instance,
    grid_poset,
    instance_digest,
    parse_instance,
    solve_game,
)
from ordeq.errors import FilterExhausted
from ordeq.fileio import parse_instance_dict, serialize_instance
from ordeq.generate import POSET_KINDS

from conftest import FIXTURES

ROEP = ("i1", "i2", "i3")
GAMES = ("game2x2", "game3x3")


@pytest.fixture
def built(monkeypatch):
    """How many ObjectiveMaps and SetValuedMaps are constructed, by class."""
    counts = {ObjectiveMap: 0, SetValuedMap: 0}
    for cls in counts:
        def counting(self, plain=cls.__post_init__, cls=cls):
            counts[cls] += 1
            plain(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def _alive(cls) -> int:
    gc.collect()
    return sum(isinstance(o, cls) for o in gc.get_objects())


def load_doc(name):
    with open(FIXTURES[name], "r", encoding="utf-8") as fh:
        return json.load(fh)


def generated(limit=None):
    """Seeded gen specs over every poset kind, with and without the filter."""
    out = []
    for seed in range(10 if limit is None else limit):
        for kind in POSET_KINDS:
            spec = GenSpec(kind="random_instance", sizes=(5, 5, 8), rng_seed=seed,
                           poset_kind=kind, monotone_bias=seed % 2 == 1,
                           filter="require_hypotheses" if seed % 3 else "none")
            try:
                out.append(gen_instance(spec))
            except FilterExhausted:
                pass
    return out


def seeded_game(seed):
    rng = np.random.default_rng(seed)
    C, D = grid_poset((2, 3)).full_subset(), grid_poset((3, 2)).full_subset()
    cs, ds = C.ordered(), D.ordered()
    payoff = {(x, y): Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
              for x in cs for y in ds}
    F = SetValuedMap(C, D, {x: [y for y in ds if rng.random() < 0.6] or [ds[0]] for x in cs})
    G = SetValuedMap(D, C, {y: [x for x in cs if rng.random() < 0.6] or [cs[-1]] for y in ds})
    return ZeroSumGame(C, D, payoff, F=F, G=G, seed=(cs[0], ds[0]))


class TestBuiltFromCodes:
    @pytest.mark.parametrize("name", ROEP)
    def test_roep_parse_builds_no_objective_map(self, built, name):
        parse_instance(FIXTURES[name])
        assert built[ObjectiveMap] == 0

    def test_gen_instance_builds_no_maps(self, built):
        assert generated(limit=4)
        assert built == {ObjectiveMap: 0, SetValuedMap: 0}

    @pytest.mark.parametrize("name", GAMES)
    def test_game_instance_builds_no_objective_map(self, built, name):
        games = [parse_instance(FIXTURES[name]), seeded_game(0)]
        before = _alive(ObjectiveMap)
        instances = [game.instance for game in games]
        # counted alive too: a map can be made without its __post_init__
        assert _alive(ObjectiveMap) == before
        assert built[ObjectiveMap] == 0
        assert all("T" not in vars(inst) for inst in instances)

    def test_unconstrained_game_builds_no_set_valued_map(self, built):
        # an omitted F or G is an all-true mask, from the file and the API alike
        doc = load_doc("game2x2")
        del doc["F"], doc["G"]
        parsed = parse_instance_dict(doc)
        payoff = {(x, y): int(v) for x, y, v in doc["payoff"]}
        made = [parsed, ZeroSumGame(parsed.C, parsed.D, payoff, seed=parsed.seed)]
        made.append(ZeroSumGame(parsed.C, parsed.D, payoff).instance)
        for game in made[:2]:
            solve_game(game)
            made += [game.instance, game.transpose()]
        assert built[SetValuedMap] == 0
        assert all(inst._F.all() and inst._G.all() for inst in made)

    def test_a_game_is_the_instance_of_its_codes(self):
        # no payoff table until one is read; the roep view shares the arrays
        assert issubclass(ZeroSumGame, ProblemInstance)
        for game in (parse_instance(FIXTURES["game3x3"]), seeded_game(1)):
            assert "T" not in vars(game)
            inst = game.instance
            assert all(getattr(inst, k) is getattr(game, k) for k in ("U", "_T", "_F", "_G"))
            assert inst.solution_set == game.solution_set
            assert game.payoff == game.T.table == inst.T.table

    @pytest.mark.parametrize("name", ROEP)
    def test_dual_and_reduction_build_no_maps(self, built, name):
        inst = parse_instance(FIXTURES[name])
        before = dict(built)
        inst.dual()
        for replace in ("both", "F", "G"):
            inst.reduce_to_oep(replace)
        assert built == before

    @pytest.mark.parametrize("doc", [
        load_doc("i2"),
        serialize_instance(gen_instance(GenSpec(kind="random_instance", sizes=(6, 6, 12),
                                                rng_seed=5))),
    ], ids=["i2", "generated"])
    def test_roep_parse_looks_each_value_up_once(self, doc):
        class Counted(str):
            hashes = 0

            def __hash__(self):
                Counted.hashes += 1
                return str.__hash__(self)

        for row in doc["T"]:
            row[2] = Counted(row[2])
        parse_instance_dict(doc)
        assert 0 < Counted.hashes <= len(doc["T"])

    @pytest.mark.parametrize("doc", [load_doc("game2x2"), serialize_instance(seeded_game(2))],
                             ids=["game2x2", "api-game"])
    def test_payoff_parse_converts_each_distinct_value_once(self, monkeypatch, doc):
        # counts the parse's calls to the payoff rule, in the payoff loop of games
        made, convert = [], ordeq.games._lowest_terms
        monkeypatch.setattr(ordeq.games, "_lowest_terms", lambda v: made.append(v) or convert(v))
        parse_instance_dict(doc)
        distinct = {v for _, _, v in doc["payoff"]}
        assert len(distinct) < len(doc["payoff"])
        assert sorted(made) == sorted(distinct)


def _instances():
    out = [parse_instance(FIXTURES[name]) for name in ROEP]
    out += [parse_instance(FIXTURES[name]).instance for name in GAMES]
    out += [seeded_game(seed).instance for seed in range(5)]
    return out + generated()


class TestViews:
    def test_views_round_trip_through_the_public_constructor(self):
        for inst in _instances():
            again = ProblemInstance(inst.C, inst.D, inst.T, inst.F, inst.G, inst.seed)
            for codes in ("_T", "_F", "_G"):
                assert np.array_equal(getattr(again, codes), getattr(inst, codes)), codes
            assert instance_digest(again) == instance_digest(inst)
            assert (again.T, again.F, again.G) == (inst.T, inst.F, inst.G)

    def test_views_agree_with_the_codes(self):
        for inst in _instances():
            assert inst._G.shape == (len(inst.D), len(inst.C))  # row j: G(y_j)
            for i, x in enumerate(inst.C.ordered()):
                assert inst.F(x) == {y for j, y in enumerate(inst.D.ordered()) if inst._F[i, j]}
                for j, y in enumerate(inst.D.ordered()):
                    assert inst.T.value(x, y) == inst.U.elements[inst._T[i, j]]
                    assert (x in inst.G(y)) == inst._G[j, i]
            assert inst.phi_map.table == {x: inst.phi(x) for x in inst.C.ordered()}
            assert inst.psi_map.table == {y: inst.psi(y) for y in inst.D.ordered()}

    def test_omitted_maps_are_the_constant_maps(self):
        # F and G default to None, as for a ZeroSumGame: each is then the constant map
        for inst in _instances():
            F, G = constant_map(inst.C, inst.D), constant_map(inst.D, inst.C)
            for given, explicit in (((), (F, G)), ((None, inst.G), (F, inst.G))):
                omitted = ProblemInstance(inst.C, inst.D, inst.T, *given)
                full = ProblemInstance(inst.C, inst.D, inst.T, *explicit)
                for codes in ("_T", "_F", "_G"):
                    assert np.array_equal(getattr(omitted, codes), getattr(full, codes)), codes
                assert (omitted.F, omitted.G) == (full.F, full.G) == explicit
                assert instance_digest(omitted) == instance_digest(full)
                assert omitted.solution_set == full.solution_set
                for seed in [(x, y) for x in inst.C.ordered() for y in inst.D.ordered()]:
                    for direction in ("maximal", "minimal"):
                        assert (omitted.check_hypotheses(seed, direction)
                                == full.check_hypotheses(seed, direction))

    def test_public_constructor_keeps_its_maps(self):
        inst = parse_instance(FIXTURES["i2"])
        T, F, G = inst.T, inst.F, inst.G
        again = ProblemInstance(inst.C, inst.D, T, F, G)
        assert (again.T, again.F, again.G) == (T, F, G)
        assert again.T is T and again.F is F and again.G is G
