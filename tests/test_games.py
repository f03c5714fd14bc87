"""Zero-sum games on grids: construction, equilibria, symmetry properties."""

import random
import sys
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ordeq.fileio
import ordeq.games
from ordeq import (
    Poset,
    SetValuedMap,
    ZeroSumGame,
    grid_poset,
    instance_digest,
    solve_game,
)
from ordeq.cli import main
from ordeq.errors import NoSolution, UnknownElement, ValidationError, ZeroExtent
from ordeq.fileio import parse_instance_dict, read_json

from conftest import chain
from oracles import meshgrid_grid, referee_game_instance, saddle_solutions


def additive_game(dims, seed=None):
    C = grid_poset(dims).full_subset()
    D = grid_poset(dims).full_subset()
    payoff = {(x, y): sum(x) - sum(y) for x in C.ordered() for y in D.ordered()}
    return ZeroSumGame(C, D, payoff, seed=seed)


class TestGridPoset:
    def test_2x2_is_the_diamond(self):
        g = grid_poset((2, 2))
        assert len(g) == 4
        assert g.full_subset().greatest() == (1, 1)
        assert g.full_subset().least() == (0, 0)
        assert not g.comparable((0, 1), (1, 0))

    def test_one_dimensional_chain(self):
        g = grid_poset((3,))
        assert g.is_total() and len(g) == 3

    def test_2x3_bounds(self):
        g = grid_poset((2, 3))
        assert len(g) == 6
        assert g.full_subset().greatest() == (1, 2)
        assert g.full_subset().least() == (0, 0)

    def test_zero_extent(self):
        with pytest.raises(ZeroExtent):
            grid_poset((2, 0))

    @pytest.mark.parametrize("dims", [(1,), (5,), (2048,), (1, 1), (3, 4), (1, 7), (32, 64),
                                      (64, 32), (4, 1, 3), (2, 3, 4), (8, 16, 16), (16, 1, 128)])
    def test_matches_the_meshgrid_referee(self, dims):
        g = grid_poset(dims)
        elements, leq = meshgrid_grid(dims)
        assert type(g) is Poset
        assert g.elements == tuple(elements)
        assert np.array_equal(g.leq_matrix, leq)

    def test_unit_extents_past_meshgrids_32_axes(self):
        g, base = grid_poset((2,) * 11 + (1,) * 40), grid_poset((2,) * 11)
        assert g.elements == tuple(e + (0,) * 40 for e in base.elements)
        assert np.array_equal(g.leq_matrix, base.leq_matrix)


class TestBuildGame:
    def test_constant_payoff_singleton_utility(self):
        C = grid_poset((2,)).full_subset()
        D = grid_poset((2,)).full_subset()
        inst = ZeroSumGame(C, D, {(x, y): 0 for x in C.ordered() for y in D.ordered()}).instance
        assert len(inst.U) == 1

    def test_matching_pennies_utility_is_two_chain(self):
        X, Y = chain("c", 2), chain("d", 2)
        payoff = {("c0", "d0"): 1, ("c0", "d1"): -1, ("c1", "d0"): -1, ("c1", "d1"): 1}
        inst = ZeroSumGame(X.full_subset(), Y.full_subset(), payoff).instance
        assert tuple(inst.U.elements) == (Fraction(-1), Fraction(1))
        assert inst.U.is_total()

    def test_repr_names_the_sizes(self):
        game = additive_game((2, 3))
        assert repr(game) == "ZeroSumGame(|C|=6, |D|=6, |U|=7)"
        assert repr(game.instance) == "ProblemInstance(|C|=6, |D|=6, |U|=7)"

    def test_additive_payoff_five_chain(self):
        inst = additive_game((2, 2)).instance
        assert tuple(inst.U.elements) == tuple(Fraction(v) for v in (-2, -1, 0, 1, 2))

    def test_floats_rejected(self):
        C = grid_poset((2,)).full_subset()
        D = grid_poset((2,)).full_subset()
        with pytest.raises(ValidationError):
            ZeroSumGame(C, D, {(x, y): 0.5 for x in C.ordered() for y in D.ordered()})

    def test_missing_payoff_entry_rejected(self):
        C = grid_poset((2,)).full_subset()
        D = grid_poset((2,)).full_subset()
        with pytest.raises(ValidationError):
            ZeroSumGame(C, D, {(C.ordered()[0], D.ordered()[0]): 1})
        # a mapping that makes up missing entries does not fill the holes
        with pytest.raises(ValidationError, match=r"no entry for \(\(0,\), \(1,\)\)"):
            ZeroSumGame(C, D, defaultdict(int, {(C.ordered()[0], D.ordered()[0]): 1}))

    def test_build_game_refuses_floats_and_holes(self):
        # a game's roep view is built by the game's one builder, and so its checks
        C = grid_poset((2,)).full_subset()
        D = grid_poset((2,)).full_subset()
        with pytest.raises(ValidationError):
            ZeroSumGame(C, D, {(x, y): 0.5 for x in C.ordered() for y in D.ordered()}).instance
        with pytest.raises(ValidationError, match=r"no entry for \(\(0,\), \(1,\)\)"):
            ZeroSumGame(C, D, {(C.ordered()[0], D.ordered()[0]): 1}).instance

    def test_stray_payoff_entry_refused_by_both(self):
        # the stray value would otherwise join U: a per-entry ranking gave U = (0, 7)
        C = grid_poset((2,)).full_subset()
        D = grid_poset((2,)).full_subset()
        payoff = {(x, y): 0 for x in C.ordered() for y in D.ordered()}
        payoff[((5,), (5,))] = 7
        with pytest.raises(ValidationError,
                           match=r"payoff table has stray entries: \['\(\(5,\), \(5,\)\)'\]"):
            ZeroSumGame(C, D, payoff)

    @pytest.mark.parametrize("huge", ["1e5000", 10**5000], ids=["string", "int"])
    def test_payoff_without_a_string_form_refused_by_both(self, huge):
        # accepted, such a game could be neither digested nor dumped
        C = grid_poset((2,)).full_subset()
        D = grid_poset((2,)).full_subset()
        payoff = {(x, y): 0 for x in C.ordered() for y in D.ordered()}
        payoff[((0,), (0,))] = huge
        with pytest.raises(ValidationError, match="payoff: bad rational"):
            ZeroSumGame(C, D, payoff)

    @pytest.mark.parametrize("bad", [True, None, [1], ([1],), "x", "1/0", "1e5000", 10**5000],
                             ids=["bool", "none", "list", "tuple-of-list", "word",
                                  "zero-denominator", "exponent", "huge-int"])
    def test_every_refused_payoff_is_a_validation_error(self, bad):
        # a caller that catches OrdeqError catches them all, in the file's words; an
        # unhashable value is refused, not failed on, and 10**5000 has no repr
        C = grid_poset((2,)).full_subset()
        D = grid_poset((2,)).full_subset()
        payoff = {(x, y): 0 for x in C.ordered() for y in D.ordered()}
        payoff[((1,), (0,))] = bad
        shown = "int with no string form" if bad == 10**5000 else repr(bad)
        with pytest.raises(ValidationError) as caught:
            ZeroSumGame(C, D, payoff)
        assert str(caught.value) == f"payoff: bad rational {shown}"

    def test_payoff_exponent_decided_before_its_power_of_ten(self, tmp_path):
        # the file parse's rule: Fraction("1e10000000") alone takes seconds, and a
        # zero mantissa is 0 at any exponent
        C = grid_poset((2,)).full_subset()
        D = grid_poset((2,)).full_subset()
        payoff = {(x, y): 1 for x in C.ordered() for y in D.ordered()}
        payoff[((0,), (0,))] = "1e10000000"
        started = time.perf_counter()
        with pytest.raises(ValidationError, match="payoff: bad rational '1e10000000'"):
            ZeroSumGame(C, D, payoff)
        assert time.perf_counter() - started < 1.0
        payoff[((0,), (0,))] = "0e10000000"
        started = time.perf_counter()
        game = ZeroSumGame(C, D, payoff)
        assert time.perf_counter() - started < 1.0
        assert game.U.elements == (Fraction(0), Fraction(1))
        instance_digest(game)
        ordeq.fileio.dump_instance(game, tmp_path / "zero.json")

    def test_seed_outside_strategy_sets_rejected(self):
        # such a seed would be written to a file that parse_instance refuses
        C = grid_poset((2,)).full_subset()
        D = grid_poset((2,)).full_subset()
        payoff = {(x, y): 0 for x in C.ordered() for y in D.ordered()}
        with pytest.raises(UnknownElement, match="seed"):
            ZeroSumGame(C, D, payoff, seed=((5,), (0,)))
        with pytest.raises(UnknownElement, match="seed"):
            ZeroSumGame(C, D, payoff, seed=((0,), (5,)))


class TestSolveGame:
    def test_additive_2x2_equilibrium_at_top(self):
        game = additive_game((2, 2), seed=((0, 0), (0, 0)))
        result = solve_game(game)
        assert result.report.solution == ((1, 1), (1, 1))
        assert result.value == 0
        assert game.scalar_saddle_check(*result.report.solution)

    def test_matching_pennies_forced_no_solution(self):
        X, Y = chain("c", 2), chain("d", 2)
        payoff = {("c0", "d0"): 1, ("c0", "d1"): -1, ("c1", "d0"): -1, ("c1", "d1"): 1}
        game = ZeroSumGame(X.full_subset(), Y.full_subset(), payoff)
        assert game.instance.solution_set == frozenset()
        with pytest.raises(NoSolution):
            solve_game(game, seed=("c0", "d0"), force=True)

    def test_i2_as_a_game(self):
        X, Y = chain("c", 2), chain("d", 2)
        C, D = X.full_subset(), Y.full_subset()
        payoff = {(f"c{i}", f"d{j}"): i - j for i in range(2) for j in range(2)}
        F = SetValuedMap(C, D, {"c0": {"d0"}, "c1": {"d0", "d1"}})
        G = SetValuedMap(D, C, {"d0": {"c0", "c1"}, "d1": {"c1"}})
        game = ZeroSumGame(C, D, payoff, F=F, G=G)
        result = solve_game(game, seed=("c0", "d0"))
        assert result.report.solution == ("c1", "d1")
        assert result.value == 0

    def test_value_and_saddle_against_the_callers_payoffs(self):
        # a referee on the caller's own dict and maps, not on the game's codes or views
        rng = random.Random(17)
        solved = 0
        for k in range(60):
            C = grid_poset((2, 2)).full_subset()
            D = grid_poset((3,)).full_subset()
            cs, ds = C.ordered(), D.ordered()
            raw = _seeded_payoffs(rng, cs, ds)
            F = {x: rng.sample(ds, rng.randint(1, len(ds))) for x in cs} if k % 2 else None
            G = {y: rng.sample(cs, rng.randint(1, len(cs))) for y in ds} if k % 2 else None
            game = ZeroSumGame(C, D, raw, seed=(cs[0], ds[0]),
                               F=F and SetValuedMap(C, D, F), G=G and SetValuedMap(D, C, G))
            try:
                result = solve_game(game, force=True)
            except NoSolution:
                continue
            solved += 1
            x, y = result.report.solution
            assert result.value == Fraction(raw[x, y])
            assert all(Fraction(raw[x2, y]) <= result.value for x2 in (G[y] if G else cs))
            assert all(result.value <= Fraction(raw[x, y2]) for y2 in (F[x] if F else ds))
        assert solved >= 20

    def test_saddle_inequalities_hold_for_reported_equilibria(self):
        game = additive_game((2, 3), seed=((0, 0), (0, 0)))
        result = solve_game(game)
        x, y = result.report.solution
        v = result.value
        assert all(game.payoff[(x2, y)] <= v for x2 in game.G(y))
        assert all(v <= game.payoff[(x, y2)] for y2 in game.F(x))


class TestZeroSumSymmetry:
    def equilibria(self, game):
        return game.instance.solution_set

    def test_transpose_swaps_equilibria_exhaustively(self):
        rng = random.Random(5)
        for _ in range(12):
            C = grid_poset((2, 2)).full_subset()
            D = grid_poset((3,)).full_subset()
            payoff = {
                (x, y): rng.randint(-2, 2) for x in C.ordered() for y in D.ordered()
            }
            game = ZeroSumGame(C, D, payoff)
            flipped = game.transpose()
            direct = self.equilibria(game)
            swapped = {(y, x) for (x, y) in self.equilibria(flipped)}
            assert direct == swapped

    def test_transpose_with_constraints(self):
        X, Y = chain("c", 2), chain("d", 2)
        C, D = X.full_subset(), Y.full_subset()
        payoff = {(f"c{i}", f"d{j}"): i - j for i in range(2) for j in range(2)}
        F = SetValuedMap(C, D, {"c0": {"d0"}, "c1": {"d0", "d1"}})
        G = SetValuedMap(D, C, {"d0": {"c0", "c1"}, "d1": {"c1"}})
        game = ZeroSumGame(C, D, payoff, F=F, G=G)
        flipped = game.transpose()
        assert {(y, x) for (x, y) in flipped.instance.solution_set} == game.instance.solution_set


class TestMonotonePayoffFamily:
    def test_separable_monotone_payoffs(self):
        # payoff f(x) - g(y) with f, g coordinate-wise nondecreasing and
        # constant constraints: psi is the argmax of f everywhere, phi the
        # argmax of g, and every argmax pair is a solution
        rng = random.Random(11)
        for _ in range(8):
            C = grid_poset((2, 2)).full_subset()
            D = grid_poset((3,)).full_subset()
            fw = [rng.randint(0, 2) for _ in range(2)]
            gw = rng.randint(0, 2)
            f = {x: fw[0] * x[0] + fw[1] * x[1] for x in C.ordered()}
            g = {y: gw * y[0] for y in D.ordered()}
            payoff = {(x, y): f[x] - g[y] for x in C.ordered() for y in D.ordered()}
            game = ZeroSumGame(C, D, payoff)
            inst = game.instance
            fmax = max(f.values())
            gmax = max(g.values())
            arg_f = {x for x in C.ordered() if f[x] == fmax}
            arg_g = {y for y in D.ordered() if g[y] == gmax}
            for y in D.ordered():
                assert inst.psi(y) == arg_f
            for x in C.ordered():
                assert inst.phi(x) == arg_g
            for x in arg_f:
                for y in arg_g:
                    assert (x, y) in inst.solution_set


class TestGameOracle:
    def test_constrained_game_matches_index_oracle(self):
        # random constrained games on small grids against the raw index oracle
        rng = random.Random(23)
        for _ in range(10):
            C = grid_poset((2, 2)).full_subset()
            D = grid_poset((2,)).full_subset()
            cs, ds = C.ordered(), D.ordered()
            payoff = {(x, y): rng.randint(-2, 2) for x in cs for y in ds}
            F = SetValuedMap(
                C, D, {x: frozenset(rng.sample(ds, rng.randint(1, len(ds)))) for x in cs}
            )
            G = SetValuedMap(
                D, C, {y: frozenset(rng.sample(cs, rng.randint(1, len(cs)))) for y in ds}
            )
            inst = ZeroSumGame(C, D, payoff, F=F, G=G).instance
            idx_payoff = {
                (i, j): payoff[(x, y)] for i, x in enumerate(cs) for j, y in enumerate(ds)
            }
            cols = {i: {ds.index(y) for y in F(x)} for i, x in enumerate(cs)}
            rows = {j: {cs.index(x) for x in G(y)} for j, y in enumerate(ds)}
            oracle = saddle_solutions(len(cs), len(ds), idx_payoff, cols, rows)
            got = {(cs.index(x), ds.index(y)) for x, y in inst.solution_set}
            assert got == set(oracle)


# payoffs that are equal under other spellings, tie as floats, or leave
# the float range; API callers may pass ints, strings and Fractions alike
_THIRD = Fraction(1, 3)
_TINY = Fraction(1, 10 ** 40)
_AWKWARD = (
    "1/2", "2/4", " 1/2 ", Fraction(1, 2), 3, "3", Fraction(6, 2), "-0", 0,
    _THIRD, _THIRD + _TINY, _THIRD - _TINY, "1/3",
    Fraction(10 ** 400), -Fraction(10 ** 400), Fraction(10 ** 400 + 1), "1e400", "-1e400",
    Fraction(-(10 ** 400), 3), Fraction(1, 10 ** 400), -Fraction(1, 10 ** 400),
)


def _seeded_payoffs(rng, cs, ds):
    shape = rng.randrange(4)
    if shape == 0:  # one value everywhere
        v = rng.choice(_AWKWARD)
        return {(x, y): v for x in cs for y in ds}
    if shape == 1:
        draw = lambda: rng.randint(-3, 3)  # noqa: E731
    elif shape == 2:
        draw = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4))  # noqa: E731
    else:
        draw = lambda: rng.choice(_AWKWARD)  # noqa: E731
    return {(x, y): draw() for x in cs for y in ds}


class TestRankingMatchesReferee:
    def test_seeded_tables(self):
        rng = random.Random(41)
        shapes = [(2, 2), (3,), (2, 3), (1,), (4,)]
        for k in range(300):
            C = grid_poset(rng.choice(shapes)).full_subset()
            D = grid_poset(rng.choice(shapes)).full_subset()
            cs, ds = C.ordered(), D.ordered()
            payoff = _seeded_payoffs(rng, cs, ds)
            F = G = None
            if k % 3 == 0:
                F = SetValuedMap(C, D, {x: rng.sample(ds, rng.randint(1, len(ds))) for x in cs})
                G = SetValuedMap(D, C, {y: rng.sample(cs, rng.randint(1, len(cs))) for y in ds})
            seed = (cs[0], ds[0])
            ref = referee_game_instance(C, D, payoff, F, G, seed)
            game = ZeroSumGame(C, D, payoff, F=F, G=G, seed=seed)
            inst = game.instance
            assert inst.U.elements == ref.U.elements, (k, payoff)
            assert all(type(u) is Fraction for u in inst.U.elements)
            assert np.array_equal(inst._T, ref._T), k
            assert np.array_equal(inst._phi_mask, ref._phi_mask), k
            assert np.array_equal(inst._psi_mask, ref._psi_mask), k
            assert instance_digest(inst) == instance_digest(ref), k
            # the transpose, made on the codes, is the game of the swapped table
            flipped = game.transpose()
            swapped = ZeroSumGame(D, C, {(y, x): -Fraction(v) for (x, y), v in payoff.items()},
                                  F=G, G=F, seed=(ds[0], cs[0]))
            assert flipped.U.elements == swapped.U.elements, k
            for codes in ("_T", "_F", "_G"):
                assert np.array_equal(getattr(flipped, codes), getattr(swapped, codes)), k
            assert instance_digest(flipped) == instance_digest(swapped), k


# 1/3 and the float nearest it, which lies below it; past 2**1024 every
# value's float is an infinity; three spellings of one half
_FLOAT_TWINS = ("1/3", "6004799503160661/18014398509481984")
_PAST_FLOATS = (str(2 ** 1024 + 1), -(2 ** 1024 + 1))
_HALVES = ("1/2", "2/4", "0.5")
_RARE = (*_FLOAT_TWINS, *_PAST_FLOATS, *_HALVES, "-1/3", "-6004799503160661/18014398509481984",
         str(2 ** 1024 + 3), -(2 ** 1030), "1e400", "1e-400", "-1e-400", "0", "-0", 7,
         "1152921504606846977/1152921504606846976", "1152921504606846975/1152921504606846976",
         "1")


class TestRareSortPaths:
    """Values that round to one float, or past the largest float, against an exact referee."""

    def _check(self, values):
        # a 2x2 grid game whose 16 cells hold the values in C x D order, from a file and the API
        X = grid_poset((2, 2))
        C, D = X.full_subset(), X.full_subset()
        pairs = [(x, y) for x in C.ordered() for y in D.ordered()]
        cells = [values[k % len(values)] for k in range(len(pairs))]
        referee = sorted(set(map(Fraction, cells)))
        api = ZeroSumGame(C, D, dict(zip(pairs, cells)))
        doc = ordeq.fileio.serialize_instance(api)
        for row, v in zip(doc["payoff"], cells):
            row[2] = v
        parsed = parse_instance_dict(doc)
        for game in (api, parsed):
            assert game.U.elements == tuple(referee), cells
            assert game._T.ravel().tolist() == [referee.index(Fraction(v)) for v in cells]
        assert instance_digest(parsed) == instance_digest(api)
        return parsed

    def test_values_that_round_to_one_float(self):
        game = self._check(_FLOAT_TWINS)
        assert float(Fraction(_FLOAT_TWINS[0])) == float(Fraction(_FLOAT_TWINS[1]))
        assert game.U.elements == (Fraction(_FLOAT_TWINS[1]), Fraction(1, 3))

    def test_values_past_the_largest_float(self):
        game = self._check((*_PAST_FLOATS, str(2 ** 1024 + 3), "1e400", "-1e400"))
        assert game.U.elements == (-10 ** 400, -(2 ** 1024 + 1), 2 ** 1024 + 1, 2 ** 1024 + 3,
                                   10 ** 400)

    def test_spellings_of_one_half_are_one_element(self):
        assert self._check(_HALVES).U.elements == (Fraction(1, 2),)

    def test_random_tables(self):
        rng = random.Random(1024)
        for _ in range(100):
            self._check([rng.choice(_RARE) for _ in range(16)])


@pytest.fixture(scope="module")
def grid_game_document(bench_files):
    """The first instance file of the grid-game benchmark workload at seed 1."""
    return read_json(bench_files("grid-game")[0])


class TestWorkPerDistinctValue:
    def test_one_fraction_per_distinct_payoff_string(self, monkeypatch, grid_game_document):
        # counts the parse's calls to the payoff rule, in the payoff loop of games
        doc = grid_game_document
        made, convert = [], ordeq.games._lowest_terms
        monkeypatch.setattr(ordeq.games, "_lowest_terms", lambda v: made.append(v) or convert(v))
        parse_instance_dict(doc)
        distinct = {v for _, _, v in doc["payoff"]}
        assert len(distinct) < len(doc["payoff"])
        assert sorted(made) == sorted(distinct)

    def test_api_converts_each_distinct_payoff_once(self, monkeypatch):
        # 65 536 "k/3" cells hold 196 distinct strings; each is read once
        X = grid_poset((16, 16))
        C, D = X.full_subset(), X.full_subset()
        payoff = {(x, y): f"{3 * (x[0] + 2 * x[1]) - (3 * y[0] + y[1])}/3"
                  for x in X.elements for y in X.elements}
        made, convert = [], ordeq.games._lowest_terms
        monkeypatch.setattr(ordeq.games, "_lowest_terms", lambda v: made.append(v) or convert(v))
        ZeroSumGame(C, D, payoff)
        assert sorted(made) == sorted(set(payoff.values()))
        assert len(made) < len(payoff)

    def test_a_check_hashes_no_payoff_and_parses_no_string(self, monkeypatch, bench_files,
                                                           tmp_path):
        # parse, hypotheses, digest and report: payoffs are coded at their distinct
        # strings, plain ones are read as ints, and U is only read by its lowest
        # terms, so check and enumerate build no Fraction at all
        counts = {"hash": 0, "string": 0, "built": 0}
        plain_hash, plain_new = Fraction.__hash__, Fraction.__new__

        def hashing(self):
            counts["hash"] += 1
            return plain_hash(self)

        def making(cls, *args, **kwargs):
            counts["built"] += 1
            counts["string"] += bool(args) and isinstance(args[0], str)
            return plain_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__hash__", hashing)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(making))
        codes = [main([command, str(bench_files("grid-game")[0]),
                       "--report", str(tmp_path / f"{command}.json")])
                 for command in ("check", "enumerate")]
        monkeypatch.undo()
        assert codes == [0, 0]
        assert counts == {"hash": 0, "string": 0, "built": 0}


_PAYOFF_TEXT = st.one_of(st.text("0123456789\u0663-+/.e_ \n", max_size=7),
                         st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,6})?", fullmatch=True))


def _fraction_or_none(s: str):
    """Fraction(s), if it has a string form: what the exponent guard decides early."""
    try:
        exact = Fraction(s)
        str(exact)
        return exact
    except (ValueError, ZeroDivisionError):
        return None


class TestExactPayoffParse:
    @pytest.mark.parametrize("limit", [None, 640], ids=["default-limit", "limit-640"])
    @settings(max_examples=400, deadline=None)
    @given(s=_PAYOFF_TEXT)
    def test_agrees_with_fractions_own_parse(self, limit, s):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit or before)
        try:
            want = _fraction_or_none(s)
            if want is None:
                for rule in (ordeq.games._as_fraction, ordeq.games._lowest_terms):
                    with pytest.raises(ValidationError) as caught:
                        rule(s)
                    assert str(caught.value) == f"payoff: bad rational {s!r}"
            else:
                got = ordeq.games._as_fraction(s)
                assert type(got) is Fraction and got == want
                assert ordeq.games._lowest_terms(s) == want.as_integer_ratio()
        finally:
            sys.set_int_max_str_digits(before)

    def test_plain_string_past_the_digit_limit_refused(self):
        long = "7" * 700
        assert ordeq.games._as_fraction(long) == int(long)
        assert ordeq.games._lowest_terms(f"-{long}/7") == (-int(long) // 7, 1)
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for s in (long, f"1/{long}", f"-{long}/3"):
                for rule in (ordeq.games._as_fraction, ordeq.games._lowest_terms):
                    with pytest.raises(ValidationError) as caught:
                        rule(s)
                    assert str(caught.value) == f"payoff: bad rational {s!r}"
        finally:
            sys.set_int_max_str_digits(before)


class TestErrorOrderAndSpellings:
    def _table(self):
        C, D = grid_poset((2,)).full_subset(), grid_poset((2,)).full_subset()
        return C, D, {(x, y): 0 for x in C.ordered() for y in D.ordered()}

    def test_first_hole_or_bad_value_in_cell_order(self):
        # as in a file: every value is refused before a missing pair
        C, D, payoff = self._table()
        del payoff[((0,), (1,))]
        payoff[((1,), (0,))] = "x"
        with pytest.raises(ValidationError) as caught:
            ZeroSumGame(C, D, payoff)
        assert str(caught.value) == "payoff: bad rational 'x'"
        C, D, payoff = self._table()
        del payoff[((0,), (1,))]
        del payoff[((1,), (0,))]
        with pytest.raises(ValidationError) as caught:
            ZeroSumGame(C, D, payoff)
        assert str(caught.value) == "payoff table has no entry for ((0,), (1,))"
        C, D, payoff = self._table()
        payoff[((0,), (1,))] = "x"
        del payoff[((1,), (0,))]
        with pytest.raises(ValidationError) as caught:
            ZeroSumGame(C, D, payoff)
        assert str(caught.value) == "payoff: bad rational 'x'"

    def test_spellings_of_one_value_are_one_element(self):
        X, Y = grid_poset((2,)), grid_poset((3,))
        C, D = X.full_subset(), Y.full_subset()
        spellings = [1, "1", "2/2", " 1 ", Fraction(1), "1"]
        game = ZeroSumGame(C, D, dict(zip(((x, y) for x in C for y in D), spellings)))
        doc = ordeq.fileio.serialize_instance(game)
        for row, v in zip(doc["payoff"], [1, "1", "2/2", " 1 ", "1", 1]):
            row[2] = v
        parsed = parse_instance_dict(doc)
        for g in (game, parsed):
            assert g.U.elements == (Fraction(1),)
            assert type(g.U.elements[0]) is Fraction
            assert g._T.tolist() == [[0, 0, 0], [0, 0, 0]]
        assert instance_digest(parsed) == instance_digest(game)
