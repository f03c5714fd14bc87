"""Instance file parsing, normalization, digests, and report replay."""

import dataclasses
import gc
import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ordeq import (
    ObjectiveMap,
    ProblemInstance,
    SetValuedMap,
    ZeroSumGame,
    constant_map,
    dump_instance,
    gen_instance,
    GenSpec,
    grid_poset,
    instance_digest,
    load_poset,
    parse_instance,
    replay_report,
    serialize_instance,
)
from ordeq.errors import NoSolution, ParseError, UnknownElement, ValidationError
from ordeq.fileio import (_collector_paused, build_report, element_id, parse_instance_dict,
                          read_json)

from conftest import FIXTURES, REFUSED_FILES, refused_file
from oracles import (
    climb_ok,
    extremal_mask,
    pair_lt,
    promotion_start,
    referee_digest,
    referee_pick,
)


def _forced_reports():
    """(spec seed, instance, report) of every forced solve, both directions, every seed pair."""
    for seed in range(60):
        inst = gen_instance(GenSpec(kind="random_instance", sizes=(4, 4, 6),
                                    rng_seed=seed, monotone_bias=seed % 2 == 0))
        for x in inst.C.ordered():
            for y in inst.D.ordered():
                for solve in (inst.solve_maximal, inst.solve_minimal):
                    try:
                        yield seed, inst, solve((x, y), force=True)
                    except NoSolution:
                        continue


def _tampered_traces(inst, rep):
    """A report's own climb trace, then tampered copies of it that start at the seed."""
    trace = list(rep.climb_trace)
    yield trace
    pairs = [(x, y) for x in inst.C.ordered() for y in inst.D.ordered()]
    for k in range(1, len(trace)):
        a = trace[k - 1]
        for q in pairs:
            lo, hi = (q, a) if rep.direction == "minimal" else (a, q)
            if q != trace[k] and pair_lt(inst, lo, hi):
                yield trace[:k] + [q] + trace[k + 1:]
    if len(trace) > 1:
        yield trace[:-1]  # drops the promotion step where there is one


def _referee_report(inst, rep):
    """The report of the count referee's pick, the solver's pick before; None where they agree.

    A climb that stranded keeps its trace; one that reached a fixed point
    is cut there, and a promoted last step to the referee's pick appended.
    """
    pick = inst._pair(referee_pick(inst, rep))
    if pick == rep.solution:
        return None
    trace = rep.climb_trace
    if trace[-1] == rep.solution:
        fixed = inst._pair(promotion_start(inst, rep))
        trace = trace[:trace.index(fixed) + 1] + ((pick,) if pick != fixed else ())
    rep = dataclasses.replace(rep, solution=pick, climb_trace=trace,
                              certificates={pick: inst.solution_certificate(*pick)})
    return build_report("solve", inst, 0, 0.01, solution_report=rep)


def document_sha256(obj) -> str:
    """The sha256 of the normalized document's canonical JSON text."""
    text = json.dumps(serialize_instance(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_doc(name):
    with open(FIXTURES[name], "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestParse:
    def test_i2_fixture(self):
        inst = parse_instance(FIXTURES["i2"])
        assert isinstance(inst, ProblemInstance)
        assert len(inst.C) == 2 and len(inst.D) == 2
        assert inst.seed == ("c0", "d0")
        assert inst.solution_set == {("c1", "d1")}
        # U as its closed full relation parses to the same instance as its Hasse form
        doc = load_doc("i2")
        us = doc["posets"]["U"]["elements"]
        doc["posets"]["U"]["edges"] = [[a, b] for i, a in enumerate(us) for b in us[i:]]
        doc["posets"]["U"]["edge_kind"] = "full"
        full = parse_instance_dict(doc)
        assert full.U == inst.U
        assert instance_digest(full) == instance_digest(inst)

    def test_game_fixture(self):
        game = parse_instance(FIXTURES["game2x2"])
        assert isinstance(game, ZeroSumGame)
        assert len(game.C) == 4 and len(game.D) == 4

    def test_empty_constraint_value_rejected(self):
        doc = load_doc("i2")
        doc["F"]["c0"] = []
        with pytest.raises(ValidationError, match="nonempty"):
            parse_instance_dict(doc)

    def test_relation_cycle_rejected(self):
        doc = load_doc("i2")
        doc["posets"]["X"]["edges"].append(["c1", "c0"])
        with pytest.raises(ValidationError, match="CycleDetected"):
            parse_instance_dict(doc)

    def test_unknown_field_rejected(self):
        doc = load_doc("i2")
        doc["comment"] = "hello"
        with pytest.raises(ValidationError, match="unknown fields"):
            parse_instance_dict(doc)

    def test_unknown_nested_field_rejected(self):
        doc = load_doc("i2")
        doc["posets"]["X"]["color"] = "red"
        with pytest.raises(ValidationError, match="posets.X"):
            parse_instance_dict(doc)

    def test_incomplete_objective_rejected(self):
        doc = load_doc("i2")
        doc["T"] = doc["T"][:-1]
        with pytest.raises(ValidationError):
            parse_instance_dict(doc)

    def test_duplicate_objective_row_rejected(self):
        doc = load_doc("i2")
        doc["T"].append(doc["T"][0])
        with pytest.raises(ValidationError, match="duplicate"):
            parse_instance_dict(doc)

    def test_objective_value_outside_utility(self):
        doc = load_doc("i2")
        doc["T"][0][2] = "99"
        with pytest.raises(ValidationError, match="not in the utility poset"):
            parse_instance_dict(doc)

    @pytest.mark.parametrize("name, table, bad, message", [
        ("i2", "T", {0: "q0", 3: "q3"},
         "instance: ValidationError: objective value 'q0' at ('c0', 'd0') is not in the "
         "utility poset"),
        ("game2x2", "payoff", {1: "x/y", 14: True}, "payoff: bad rational 'x/y'"),
    ], ids=["T", "payoff"])
    def test_first_bad_value_in_cell_order_whatever_the_row_order(self, name, table, bad,
                                                                   message):
        # the fixtures list their rows in C x D order; here they come reversed
        doc = load_doc(name)
        for k, v in bad.items():
            doc[table][k][2] = v
        doc[table].reverse()
        with pytest.raises(ValidationError) as caught:
            parse_instance_dict(doc)
        assert str(caught.value) == message

    @pytest.mark.parametrize("name, table", [("i1", "T"), ("i2", "T"), ("i3", "T"),
                                             ("game2x2", "payoff"), ("game3x3", "payoff")])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_row_order_does_not_matter(self, name, table, data):
        doc = load_doc(name)
        want = parse_instance_dict(doc)
        doc[table] = data.draw(st.permutations(doc[table]))
        got = parse_instance_dict(doc)
        for codes in ("_T", "_F", "_G"):
            assert np.array_equal(getattr(got, codes), getattr(want, codes))
        assert got.U == want.U
        assert instance_digest(got) == instance_digest(want)

    def test_bad_seed(self):
        doc = load_doc("i2")
        doc["seed"] = ["c0", "zzz"]
        with pytest.raises(ValidationError, match="seed"):
            parse_instance_dict(doc)

    def test_bad_schema(self):
        with pytest.raises(ParseError):
            parse_instance_dict({"schema": "nope/9"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_instance(tmp_path / "absent.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_instance(path)

    def test_float_payoff_rejected(self):
        doc = load_doc("game2x2")
        doc["payoff"][0][2] = 0.5
        with pytest.raises(ValidationError, match="payoff"):
            parse_instance_dict(doc)

    def test_rational_string_payoffs(self):
        doc = load_doc("game2x2")
        for row in doc["payoff"]:
            row[2] = row[2] + "/2"
        game = parse_instance_dict(doc)
        values = set(game.payoff.values())
        assert all(v.denominator in (1, 2) for v in values)

    def test_grid_shorthand(self):
        doc = load_doc("game2x2")
        doc["posets"]["X"] = {"grid": [2, 2]}
        game = parse_instance_dict(doc)
        assert len(game.C) == 4

    def test_missing_constraints_default_to_constant(self):
        doc = load_doc("i1")
        doc.pop("F", None)
        doc.pop("G", None)
        inst = parse_instance_dict(doc)
        assert inst.F("c0") == {"d0", "d1"}
        assert inst.G("d0") == {"c0", "c1"}


_CONSTRAINT_ERRORS = {  # F over i2's C = {c0, c1} and D = {d0, d1}: the refusal, word for word
    "not-an-object": (["d0"], "F: must be an object of element -> list"),
    "non-list": ({"c0": "d0", "c1": ["d1"]}, "F: entry 'c0' must be a list of strings"),
    "non-string": ({"c0": ["d0", 1], "c1": ["d1"]}, "F: entry 'c0' must be a list of strings"),
    "missing": ({"c0": ["d0"]}, "F: ValidationError: set-valued map has no entry for 'c1'"),
    "empty": ({"c0": [], "c1": ["d1"]},
              "F: ValidationError: set-valued map value at 'c0' is empty; values must be nonempty"),
    "stray": ({"c0": ["d0", "zz", "yy", "zz"], "c1": ["d1"]},
              "F: ValidationError: value at 'c0' contains non-codomain elements "
              "[\"'yy'\", \"'zz'\"]"),
    "outside": ({"c0": ["d0"], "c1": ["d1"], "q": ["d0"], "p": []},
                "F: ValidationError: table has entries outside the domain: [\"'p'\", \"'q'\"]"),
    # a row's type first, in file order; then domain members in domain order; strays last
    "non-list-after-missing": ({"q": ["d0"], "c1": 3}, "F: entry 'c1' must be a list of strings"),
    "non-list-outside": ({"c0": ["d0"], "c1": ["d1"], "q": None},
                         "F: entry 'q' must be a list of strings"),
    "missing-before-outside": ({"q": ["d0"], "c1": ["d1"]},
                               "F: ValidationError: set-valued map has no entry for 'c0'"),
    "stray-before-missing": ({"c0": ["zz"]}, "F: ValidationError: value at 'c0' contains "
                             "non-codomain elements [\"'zz'\"]"),
    "empty-before-stray": ({"c0": [], "c1": ["zz"]}, "F: ValidationError: set-valued map "
                           "value at 'c0' is empty; values must be nonempty"),
}


class TestCollectorPause:
    """The cyclic collector is off while a document tree lives, and then as it was found."""

    def test_parse(self, collector):
        parse_instance(FIXTURES["i2"])
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("name", sorted(REFUSED_FILES))
    def test_refused_parse(self, collector, tmp_path, name):
        with pytest.raises((ParseError, ValidationError)):
            parse_instance(refused_file(tmp_path, name))
        assert gc.isenabled() is collector

    def test_dump_and_refused_dump(self, collector, tmp_path):
        dump_instance(parse_instance(FIXTURES["game2x2"]), tmp_path / "written.json")
        assert gc.isenabled() is collector
        C = grid_poset((64, 64)).subset([(0, 0), (1, 1)])
        T = ObjectiveMap(load_poset(["u"]), {(x, y): "u" for x in C for y in C})
        with pytest.raises(ValidationError, match="past 2048 elements"):
            dump_instance(ProblemInstance(C, C, T), tmp_path / "refused.json")
        assert gc.isenabled() is collector

    def test_nested_blocks_and_an_exception(self, collector):
        with pytest.raises(KeyError):
            with _collector_paused():
                with _collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
                raise KeyError
        assert gc.isenabled() is collector

    def test_a_4096_row_parse_starts_no_collection(self, tmp_path):
        # with the collector on, young collections rescan the rows while they live
        cs, ds, us = ([f"{p}{i}" for i in range(n)] for p, n in (("c", 64), ("d", 64), ("u", 8)))
        doc = {"schema": "roep-instance/1",
               "posets": {"X": {"elements": cs}, "Y": {"elements": ds},
                          "U": {"elements": us, "edges": [list(e) for e in zip(us, us[1:])]}},
               "C": {"poset": "X", "members": cs}, "D": {"poset": "Y", "members": ds},
               "T": [[x, y, us[i * j % 8]] for i, x in enumerate(cs) for j, y in enumerate(ds)]}
        path = tmp_path / "roep-64x64.json"
        path.write_text(json.dumps(doc))
        starts = []

        def started(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(started)
        try:
            inst = parse_instance(path)
        finally:
            gc.callbacks.remove(started)
            (gc.enable if was else gc.disable)()
        assert (len(inst.C), len(inst.D), starts) == (64, 64, [])


class TestConstraintParse:
    @pytest.mark.parametrize("name", sorted(_CONSTRAINT_ERRORS))
    def test_refusals_word_for_word(self, name):
        table, message = _CONSTRAINT_ERRORS[name]
        doc = load_doc("i2")
        doc["F"] = table
        with pytest.raises(ValidationError) as caught:
            parse_instance_dict(doc)
        assert str(caught.value) == message

    def test_repeated_members_are_one(self):
        doc = load_doc("i2")
        doc["F"] = {"c0": ["d0", "d0"], "c1": ["d1", "d0", "d1"]}
        assert parse_instance_dict(doc)._F.tolist() == [[True, False], [True, True]]

    @pytest.mark.parametrize("workload", ["grid-game", "wide-oracle"])
    def test_masks_match_the_set_valued_maps(self, workload, bench_files):
        constrained = 0
        for path in bench_files(workload):
            doc = read_json(path)
            inst = parse_instance_dict(doc)
            for key, domain, codomain, mask in (("F", inst.C, inst.D, inst._F),
                                                ("G", inst.D, inst.C, inst._G)):
                if key in doc:
                    constrained += 1
                    want = SetValuedMap(domain, codomain, doc[key]).mask()
                    assert np.array_equal(mask, want), (path, key)
        assert constrained


_F_KEYS = st.sampled_from(["c0", "c1", "q", "p"])  # i2's C and two strays
_F_VALUES = st.lists(st.sampled_from(["d0", "d1", "zz", "yy"]), max_size=4)
_NO_ROW = object()  # a pair left out of the T or payoff table
_OBJECTIVES = st.one_of(  # i2's U ids, its X ids (not in U), refused values and holes
    st.sampled_from(["-1", "0", "1", "c0", "c1", True, None, 1.5, [1], {}, _NO_ROW]),
    st.integers(-2, 2),
)
_PAYOFFS = st.one_of(  # ints, plain and spelled rationals, refused values and holes
    st.integers(-3, 3),
    st.sampled_from(["1", "-2", "1/2", "2/4", " 1 ", "1e2", "x", "1/0", True, None, 1.5, [1],
                     _NO_ROW]),
)


class TestOneConstraintRule:
    """The file parse and the API check an F, T or payoff table and a seed by one rule."""

    @settings(max_examples=300, deadline=None)
    @given(table=st.dictionaries(_F_KEYS, _F_VALUES, max_size=4))
    def test_file_and_map_agree(self, table):
        doc = load_doc("i2")
        inst = parse_instance_dict(doc)
        try:
            want = SetValuedMap(inst.C, inst.D, table).mask().tolist()
        except ValidationError as exc:
            want = str(exc)
        doc["F"] = table
        try:
            got = parse_instance_dict(doc)._F.tolist()
        except ValidationError as exc:
            got = str(exc).removeprefix("F: ValidationError: ")
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_PAYOFFS, min_size=16, max_size=16))
    def test_file_and_game_agree(self, values):
        doc = load_doc("game2x2")
        game = parse_instance_dict(doc)
        pairs = [(x, y) for x in game.C.ordered() for y in game.D.ordered()]
        table = {pair: v for pair, v in zip(pairs, values) if v is not _NO_ROW}
        doc["payoff"] = [[x, y, v] for (x, y), v in table.items()]
        outcomes = []
        for build in (lambda: parse_instance_dict(doc),
                      lambda: ZeroSumGame(game.C, game.D, table, game.F, game.G, game.seed)):
            try:
                built = build()
                outcomes.append((built.U.elements, built._T.tolist()))
            except ValidationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_OBJECTIVES, min_size=4, max_size=4))
    def test_file_and_instance_agree(self, values):
        doc = load_doc("i2")
        inst = parse_instance_dict(doc)
        pairs = [(x, y) for x in inst.C.ordered() for y in inst.D.ordered()]
        table = {pair: v for pair, v in zip(pairs, values) if v is not _NO_ROW}
        doc["T"] = [[x, y, v] for (x, y), v in table.items()]
        try:
            got = parse_instance_dict(doc)._T.tolist()
        except ValidationError as exc:
            got = str(exc)
        try:
            T = ObjectiveMap(inst.U, table)
            want = ProblemInstance(inst.C, inst.D, T, inst.F, inst.G, inst.seed)._T.tolist()
        except (ValidationError, UnknownElement) as exc:
            want = f"instance: {type(exc).__name__}: {exc}"
        assert got == want

    @pytest.mark.parametrize("name, section", [("i2", "instance"), ("game2x2", "game")])
    @pytest.mark.parametrize("side", [0, 1])
    def test_seed_refused_in_the_same_words(self, name, section, side):
        doc = load_doc(name)
        obj = parse_instance_dict(doc)
        seed = list(obj.seed)
        seed[side] = "q"
        doc["seed"] = seed
        with pytest.raises(ValidationError) as from_file:
            parse_instance_dict(doc)
        with pytest.raises(UnknownElement) as from_api:
            if section == "game":
                ZeroSumGame(obj.C, obj.D, obj.payoff, obj.F, obj.G, tuple(seed))
            else:
                ProblemInstance(obj.C, obj.D, obj.T, obj.F, obj.G, tuple(seed))
        component = ("first", "second")[side]
        assert str(from_api.value) == f"seed {component} component 'q' is not in {'CD'[side]}"
        assert str(from_file.value) == f"{section}: UnknownElement: {from_api.value}"


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["i1", "i2", "i3", "game2x2", "game3x3"])
    def test_serialize_parse_idempotent(self, name):
        inst = parse_instance(FIXTURES[name])
        first = serialize_instance(inst)
        second = serialize_instance(parse_instance_dict(first))
        assert first == second
        assert instance_digest(parse_instance_dict(first)) == instance_digest(inst)

    def test_generated_instance_round_trips(self, tmp_path):
        from ordeq import dump_instance

        inst = gen_instance(GenSpec(kind="random_instance", sizes=(3, 3, 4), rng_seed=9))
        path = tmp_path / "gen.json"
        dump_instance(inst, path)
        reparsed = parse_instance(path)
        assert serialize_instance(reparsed) == serialize_instance(
            parse_instance_dict(serialize_instance(reparsed))
        )
        assert reparsed.solution_set == inst.solution_set
        assert instance_digest(reparsed) == instance_digest(inst)

    def test_colliding_element_ids_refused(self):
        # 1 and "1" both print as "1": the document would not parse back
        X = load_poset(["c0", "c1"], [("c0", "c1")])
        C = X.full_subset()
        U = load_poset([1, "1"], [(1, "1")])
        T = ObjectiveMap(U, {("c0", "c0"): 1, ("c0", "c1"): "1",
                             ("c1", "c0"): "1", ("c1", "c1"): 1})
        inst = ProblemInstance(C, C, T, constant_map(C, C), constant_map(C, C))
        with pytest.raises(ValidationError, match="share the id '1'"):
            serialize_instance(inst)
        with pytest.raises(ValidationError, match="share the id '1'"):
            instance_digest(inst)

    def test_poset_past_the_cap_refused_before_its_order_is_read(self, tmp_path):
        # a file holds posets of at most 2048 elements, so none past it is written:
        # a 7 x 7 game's roep view has 2401 distinct payoffs in U, and a 64 x 64 grid X
        k = 7
        X = grid_poset((k, k))
        C = X.full_subset()
        payoff = {(x, y): Fraction(len(X) * a - b, 7) for a, x in enumerate(X.elements)
                  for b, y in enumerate(X.elements)}
        big = grid_poset((64, 64))
        C2 = big.subset([(0, 0), (1, 1)])
        T = ObjectiveMap(load_poset(["u"]), {(x, y): "u" for x in C2 for y in C2})
        wide = ProblemInstance(C2, C2, T, constant_map(C2, C2), constant_map(C2, C2))
        for inst in (ZeroSumGame(C, C, payoff).instance, wide):
            path = tmp_path / "refused.json"
            with pytest.raises(ValidationError) as caught:
                dump_instance(inst, path)
            assert str(caught.value) == "cannot serialize: a poset past 2048 elements"
            assert not path.exists()

    def test_digest_refuses_a_poset_past_the_cap_before_its_order_is_read(self):
        # such a poset has no file form, so no parsed dump has a digest to match; the
        # roep view of a k x k game with distinct payoffs has k**4 of them in U
        for k in (7, 8):
            X = grid_poset((k, k))
            C = X.full_subset()
            game = ZeroSumGame(C, C, {(x, y): Fraction(len(X) * a - b, 7)
                                      for a, x in enumerate(X.elements)
                                      for b, y in enumerate(X.elements)})
            with pytest.raises(ValidationError, match="^cannot digest: a poset past 2048 "
                                                      "elements$"):
                instance_digest(game.instance)
            assert "leq_matrix" not in game.U.__dict__, k
            instance_digest(game)  # the game hashes its U as ids: no cap, no order
            assert "leq_matrix" not in game.U.__dict__, k
        C = grid_poset((64, 64)).subset([(0, 0), (1, 1)])
        T = ObjectiveMap(load_poset(["u"]), {(x, y): "u" for x in C for y in C})
        wide = ProblemInstance(C, C, T, constant_map(C, C), constant_map(C, C))
        with pytest.raises(ValidationError, match="^cannot digest: a poset past 2048 elements$"):
            instance_digest(wide)

    def test_refused_dump_leaves_the_file_untouched(self, tmp_path):
        # the file was once opened, and so emptied, before serializing
        X = load_poset(["c0", "c1"], [("c0", "c1")])
        C = X.full_subset()
        U = load_poset([1, "1"], [(1, "1")])
        T = ObjectiveMap(U, {("c0", "c0"): 1, ("c0", "c1"): "1",
                             ("c1", "c0"): "1", ("c1", "c1"): 1})
        inst = ProblemInstance(C, C, T, constant_map(C, C), constant_map(C, C))
        path = tmp_path / "kept.json"
        path.write_bytes(b"earlier contents\n")
        with pytest.raises(ValidationError, match="share the id '1'"):
            dump_instance(inst, path)
        assert path.read_bytes() == b"earlier contents\n"

    # Pinned digests: reports carry the instance digest, so a change to the
    # codes or to the digest's layout would make every earlier report fail to
    # replay.  Each case also pins the sha256 of the normalized document's
    # canonical JSON text (the digest of roep-report/1), so a change to the
    # serialized bytes shows on its own.
    FIXTURE_DIGESTS = {
        "i1": "760158a66f79ffd2d55359164e3bb048835be0d28ba76211f72891cf5ed03aec",
        "i2": "cb0360a77fab721ff5dbc5112af54cfe7587790a0f17fb90674afdc43ff53878",
        "i3": "20ee11ca9bcd814698ee7b19a4e323f52f5f008082fc50799a121f281d18c6ee",
        "game2x2": "2da2056548564e8f8ebd51d9d017a6eaeca7b857988800db2415c5f5887ce3a7",
        "game3x3": "7627cbc63fc372698b1bef68e2583ac8bb3e253b4ceefb2dfe16e53d7615cc5f",
    }

    @pytest.mark.parametrize("name,document", [
        ("i1", "5f160b34885e7b80e376e05c0929c6b702b20aeb81e225ca7b72109de0b7313d"),
        ("i2", "9e97b91ae2fd7374f58da251843f4f2a707de313b3f509c267b872111d1f55d7"),
        ("i3", "af37906d81844a0b4e55cee72cc81c7c242254fedbfb782238739c96b7801c21"),
        ("game2x2", "b57515ba5fd79b3feedbe6e1f43bdb98597b6dc3224538cc5462a6db2737e05c"),
        ("game3x3", "f9e2ca7a947e143e75ccf88d1281432d980ffa2dd51c1b6f6906817c417b5a73"),
    ])
    def test_fixture_digest_pinned(self, name, document):
        inst = parse_instance(FIXTURES[name])
        assert document_sha256(inst) == document
        assert instance_digest(inst) == self.FIXTURE_DIGESTS[name]

    def test_grid_game_digest_pinned(self):
        # tuple ids, C a proper subset of its grid, F and G constrained
        X, Y = grid_poset((3, 3)), grid_poset((2, 3))
        C = X.subset([e for e in X.elements if e != (2, 2)])
        D = Y.full_subset()
        payoff = {(x, y): (x[0] - y[0]) * (x[1] + 1) - y[1]
                  for x in C.members for y in D.members}
        F = SetValuedMap(C, D, {x: [y for y in D.members if y[0] <= x[0] or y == (1, 2)]
                                for x in C.members})
        G = SetValuedMap(D, C, {y: [x for x in C.members if x[1] >= y[1] - 1]
                                for y in D.members})
        game = ZeroSumGame(C, D, payoff, F=F, G=G, seed=((0, 0), (0, 0)))
        assert instance_digest(game) == (
            "a6ccfd74902589fee0fb60dcf965ee13290a9be5942470398c8e7cf3f8cdd1e2")

    def test_payoffs_beyond_float_range_pinned(self, tmp_path, capsys):
        # +-10**400 do not fit a float; the game's U (in the roep digest)
        # and the climb in the report both depend on ranking them exactly
        from ordeq.cli import main

        doc = load_doc("game2x2")
        doc["payoff"][0][2], doc["payoff"][1][2] = "1e400", "-1e400"
        game = parse_instance_dict(doc)
        assert instance_digest(game) == (
            "d2a4068f1942d3ad995f9b3cbdd1c7fcbef5ecce80eefbe3fe561cd7e2d7ae5c")
        assert instance_digest(game.instance) == (
            "bf4c9081bb1f88e67a5ab13e96ac2dbd9d11c99840542851207b8e2f7a63efaf")
        path, report = tmp_path / "huge.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert main(["game", "--force", str(path), "--report", str(report)]) == 0
        assert capsys.readouterr().out == (
            "instance: mode=game |C|=4 |D|=4 |U|=7 digest=d2a4068f1942\n"
            "climb: (0,0, 0,0) -> (0,0, 0,1) -> (1,1, 0,1) -> (1,1, 1,1)\n"
            "equilibrium: (1,1, 1,1)\nvalue: 0\nsaddle inequalities verified: True\n")
        rep = json.loads(report.read_text())
        del rep["elapsed_seconds"]
        blob = json.dumps(rep, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "614fa7a5ed11975baca922ed6117fcaccfbb8b0512f689ec26acce0ec5654c76")

    GENERATED_DIGESTS = {
        ("chain", False): "f219ead28f25f9052b64b10868442055edf09322425d76a364d095359df2899e",
        ("chain", True): "cbfc699cdec7332cd1f8ae675b523a4d509a244f59a7c5c4de5f8ec5dfa79a4f",
        ("antichain", False): "fb3401feaa25c3fe239d21df85f7f84231c0136d508013d170a6e9f821b687af",
        ("antichain", True): "45b9cfae7ba8ceee52b11075a5d667424f50940b030d4bb709c8bc9b2a085b20",
        ("boolean_lattice", False):
            "a48509699ba2c81404fa00605352a16c40a181afa988346ded36de561a7c0a15",
        ("boolean_lattice", True):
            "10fc79b989f8b165dd940ff04522ac321adb9580a0f689b1cd9bc4e52e6ac68e",
        ("grid", False): "286e1db8cc82e6b06579701a18e7bf8b9e5062262d3c4141357212132dad27fd",
        ("grid", True): "0c73d65a33500dae07bdb28fcd24ac1defa8646325ff5526f78687dd92ece976",
        ("random_poset", False):
            "9d5916ecf525fd0110791b7fa69548fb956b3c896554193208a47697df84a498",
        ("random_poset", True):
            "daddc2479330d14bb0102b68abafac59b091e2e621c270471a508c5553622e56",
    }

    @pytest.mark.parametrize("kind,bias,document", [
        ("chain", False, "06ec16aebfc9de7c9f88a99ac88beec532261d58d962cd1f373a81e91d425dc6"),
        ("chain", True, "15a337bd326ecbd87b7fef538ea292a5efc8510dccd3ed18aac0f153529d01f3"),
        ("antichain", False, "4de9b3ff7078a3001ea9fd1449cf3e504e05d962484c44d54e18424605943693"),
        ("antichain", True, "9bb40172dce206eb40931e7908ffda245e0420a7ffaa02d63683eb98b2492f95"),
        ("boolean_lattice", False,
         "a867729b455194519a52bdb38812ac755f80d12c82b14274d15d77f360e93da3"),
        ("boolean_lattice", True,
         "94cd7ce86a752953e883768c58306821b53e4abe9de421e57b6af0e0cd3ffa9f"),
        ("grid", False, "4840fc0972b339fa5ad7c06dbfb5d9ef8709108e8a0b55437959d30eb9553908"),
        ("grid", True, "07a2e9f2e5c6f341e42b945cc716071020a1ec3d38f094b7b76f93ffac08954c"),
        ("random_poset", False,
         "f30e0eec0ad50dcef6245b1e71eadf23fc8b1f251bd87aeab20f742e4497ecfa"),
        ("random_poset", True,
         "092f032161cb18197605238ee9e957899abc3fa7e7238ef6e24dc09c5cf4a90c"),
    ])
    def test_generated_digest_pinned(self, kind, bias, document):
        spec = GenSpec(kind="random_instance", sizes=(5, 5, 8), rng_seed=7,
                       filter="require_hypotheses", poset_kind=kind, monotone_bias=bias)
        inst = gen_instance(spec)
        assert document_sha256(inst) == document
        assert instance_digest(inst) == self.GENERATED_DIGESTS[kind, bias]

    def test_serialize_converts_ids_per_element_not_per_cell(self, monkeypatch):
        import ordeq.fileio as fileio

        inst = gen_instance(GenSpec(kind="random_instance", sizes=(6, 6, 12), rng_seed=3))
        calls = []
        real = fileio.element_id
        monkeypatch.setattr(fileio, "element_id", lambda e: calls.append(e) or real(e))
        monkeypatch.setattr(ObjectiveMap, "value", lambda *a: pytest.fail("T.value called"))
        fileio.serialize_instance(inst)
        # each poset's ids, then C, D and U's ids for the rows, then the seed
        elements = len(inst.C.parent) + len(inst.D.parent) + len(inst.U)
        assert len(calls) <= elements + len(inst.C) + len(inst.D) + len(inst.U) + 2

    def test_digest_stable_and_sensitive(self):
        a = parse_instance(FIXTURES["i2"])
        b = parse_instance(FIXTURES["i2"])
        assert instance_digest(a) == instance_digest(b)
        c = parse_instance(FIXTURES["i1"])
        assert instance_digest(a) != instance_digest(c)


# ids whose JSON text needs escapes, whose raw and quoted orders differ ('a"'
# sorts before 'a#', its text after), or that print alike as tuple parts
_ODD_IDS = ['a"', "a#", "b\\c", "d\ne", "\x00", "\u2028", "é", "☃", "𝄞", "f,g", "h:i", "", " "]


def _odd_instance(rng, seed):
    """A roep instance on odd ids, with C a proper subset of X and a random U."""
    X = load_poset(_ODD_IDS, [(_ODD_IDS[i], _ODD_IDS[i + 3]) for i in range(0, 9, 2)])
    Y = load_poset([("☃", 1), ('"', (2, "é")), (Fraction(1, 3), "k")],
                   [(("☃", 1), ('"', (2, "é")))])
    U = load_poset([Fraction(-1, 2), 3, "u\"", "ü"], [(Fraction(-1, 2), 3), (3, "ü")])
    C = X.subset(e for e in X.elements if rng.random() < 0.7 or e == "a#")
    D = Y.full_subset()
    cs, ds = C.ordered(), D.ordered()
    T = ObjectiveMap(U, {(x, y): rng.choice(U.elements) for x in cs for y in ds})
    F = SetValuedMap(C, D, {x: [y for y in ds if rng.random() < 0.6] or ds[:1] for x in cs})
    G = SetValuedMap(D, C, {y: [x for x in cs if rng.random() < 0.6] or ["a#"] for y in ds})
    pair = (rng.choice(cs), rng.choice(ds)) if seed else None
    return ProblemInstance(C, D, T, F, G, seed=pair)


class TestDigestReferee:
    """instance_digest against its byte layout, laid out from the normalized document."""

    @pytest.mark.parametrize("name", ["i1", "i2", "i3", "game2x2", "game3x3"])
    def test_fixtures(self, name):
        obj = parse_instance(FIXTURES[name])
        for inst in (obj, getattr(obj, "instance", obj), obj.dual()):
            assert instance_digest(inst) == referee_digest(inst)

    def test_api_games_with_negative_and_past_float_payoffs(self):
        X, Y = grid_poset((2, 3)), grid_poset((3, 2))
        C, D = X.subset(X.elements[1:]), Y.full_subset()
        values = [Fraction(-7, 3), -(10 ** 400), Fraction(10 ** 400 + 1, 3),
                  Fraction(1, 10 ** 400), Fraction(-1, 10 ** 400), 0, "-5/2", 4]
        for seed in range(6):
            rng = random.Random(seed)
            payoff = {(x, y): rng.choice(values) for x in C.ordered() for y in D.ordered()}
            pair = (rng.choice(C.ordered()), rng.choice(D.ordered())) if seed % 2 else None
            game = ZeroSumGame(C, D, payoff, seed=pair)
            for obj in (game, game.instance, game.transpose()):
                assert instance_digest(obj) == referee_digest(obj), seed

    def test_ids_that_need_escapes_or_are_tuples(self):
        for seed in range(20):
            inst = _odd_instance(random.Random(seed), seed % 2)
            assert instance_digest(inst) == referee_digest(inst), seed
            # tuple and Fraction ids parse back as their strings, with the same digest
            again = parse_instance_dict(serialize_instance(inst))
            assert instance_digest(again) == instance_digest(inst), seed
            game = ZeroSumGame(inst.C, inst.D, {
                (x, y): Fraction(inst.U.index(u) - 1, 3) for (x, y), u in inst.T.table.items()},
                F=inst.F, G=inst.G, seed=inst.seed)
            assert instance_digest(game) == referee_digest(game), seed

    def test_grid_subsets_with_and_without_seeds(self):
        for seed in range(12):
            rng = random.Random(seed)
            X, Y, U = grid_poset((3, 2)), grid_poset((2, 2, 2)), grid_poset((2, 3))
            C = X.subset(rng.sample(X.elements, rng.randint(1, len(X))))
            D = Y.subset(rng.sample(Y.elements, rng.randint(1, len(Y))))
            T = ObjectiveMap(U, {(x, y): rng.choice(U.elements)
                                 for x in C.ordered() for y in D.ordered()})
            pair = (rng.choice(C.ordered()), rng.choice(D.ordered())) if seed % 2 else None
            inst = ProblemInstance(C, D, T, constant_map(C, D), constant_map(D, C), seed=pair)
            assert instance_digest(inst) == referee_digest(inst), seed


    def test_a_table_of_65536_cells(self):
        # C = D = a 256-chain, U a non-total poset, F and G random, a seed
        X = load_poset([f"e{i}" for i in range(256)],
                       [(f"e{i}", f"e{i + 1}") for i in range(255)])
        U = load_poset(["u0", "u1", "u2", "u3"], [("u0", "u1"), ("u0", "u2")])
        C = D = X.full_subset()
        rng = np.random.default_rng(5)
        F, G = rng.random((256, 256)) < 0.5, rng.random((256, 256)) < 0.5
        F[:, 0] = G[:, 0] = True
        inst = ProblemInstance._from_codes(C, D, U, rng.integers(0, 4, (256, 256)), F, G,
                                           ("e3", "e250"))
        assert len(inst.C) * len(inst.D) >= 65536
        assert instance_digest(inst) == referee_digest(inst)

    def test_lone_surrogate_ids(self):
        # JSON can spell a lone surrogate; its id is hashed as it is, not refused
        doc = load_doc("i2")
        text = json.dumps(doc).replace('"c0"', '"\\ud800"').replace('"d1"', '"\\udc00"')
        inst = parse_instance_dict(json.loads(text))
        assert "\ud800" in inst.C and "\udc00" in inst.D
        assert instance_digest(inst) == referee_digest(inst)
        assert instance_digest(parse_instance_dict(serialize_instance(inst))) == (
            instance_digest(inst))


def _sensitivity_doc():
    """A small roep document whose every field one edit can change alone."""
    return {
        "schema": "roep-instance/1", "mode": "roep",
        "posets": {"X": {"elements": ["c0", "c1", "c2"], "edges": [["c0", "c1"]]},
                   "Y": {"elements": ["d0", "d1", "d2"], "edges": [["d0", "d1"]]},
                   "U": {"elements": ["u0", "u1", "u2"], "edges": [["u0", "u1"]]}},
        "C": {"poset": "X", "members": ["c0", "c1"]},
        "D": {"poset": "Y", "members": ["d0", "d1"]},
        "T": [["c0", "d0", "u0"], ["c0", "d1", "u1"], ["c1", "d0", "u2"], ["c1", "d1", "u0"]],
        "F": {"c0": ["d0", "d1"], "c1": ["d1"]},
        "G": {"d0": ["c0"], "d1": ["c0", "c1"]},
        "seed": ["c0", "d1"],
    }


def _member_swapped(doc, old, new):
    """The document with member old of C or D replaced by the non-member new.

    new sits where old did among the members, so every position is kept.
    """
    text = json.dumps({k: v for k, v in doc.items() if k != "posets"})
    return {**json.loads(text.replace(f'"{old}"', f'"{new}"')), "posets": doc["posets"]}


def _renamed(doc, old, new):
    return json.loads(json.dumps(doc).replace(f'"{old}"', f'"{new}"'))


def _edited(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


class TestDigestSections:
    """One edit to one section of the document changes the digest."""

    EDITS = {
        "id": lambda d: _renamed(d, "c2", "c9"),
        "member id": lambda d: _renamed(d, "d1", "d9"),
        "U id": lambda d: _renamed(d, "u2", "u9"),
        # c1 and u1 are maximal, so each edge sets one bit of its closed order
        "order of X": lambda d: _edited(d, lambda d: d["posets"]["X"]["edges"].append(
            ["c2", "c1"])),
        "order of U": lambda d: _edited(d, lambda d: d["posets"]["U"]["edges"].append(
            ["u2", "u1"])),
        "C member": lambda d: _member_swapped(d, "c1", "c2"),
        "D member": lambda d: _member_swapped(d, "d1", "d2"),
        "T cell": lambda d: _edited(d, lambda d: d["T"][3].__setitem__(2, "u1")),
        "F bit": lambda d: _edited(d, lambda d: d["F"]["c1"].append("d0")),
        "G bit": lambda d: _edited(d, lambda d: d["G"]["d0"].append("c1")),
        "seed": lambda d: _edited(d, lambda d: d.__setitem__("seed", ["c1", "d1"])),
        "no seed": lambda d: _edited(d, lambda d: d.pop("seed")),
    }

    def test_each_edit_changes_the_digest(self):
        base = parse_instance_dict(_sensitivity_doc())
        digests = {"base": instance_digest(base)}
        for name, edit in self.EDITS.items():
            inst = parse_instance_dict(edit(_sensitivity_doc()))
            assert instance_digest(inst) == referee_digest(inst), name
            digests[name] = instance_digest(inst)
        assert len(set(digests.values())) == len(digests), digests

    def test_the_mode_changes_the_digest(self):
        # a game and its roep view hold the same codes under another mode
        for name in ("game2x2", "game3x3"):
            game = parse_instance(FIXTURES[name])
            assert np.array_equal(game._T, game.instance._T)
            assert instance_digest(game) != instance_digest(game.instance)


class TestReports:
    def test_replay_verifies_solutions(self):
        inst = parse_instance(FIXTURES["i2"])
        rep = inst.solve_maximal()
        doc = build_report("solve", inst, 0, 0.01, solution_report=rep)
        assert replay_report(doc, inst)

    def test_replay_rejects_wrong_instance(self):
        i2 = parse_instance(FIXTURES["i2"])
        i1 = parse_instance(FIXTURES["i1"])
        doc = build_report("solve", i2, 0, 0.01, solution_report=i2.solve_maximal())
        assert not replay_report(doc, i1)

    def test_replay_rejects_tampered_solution(self):
        inst = parse_instance(FIXTURES["i2"])
        doc = build_report("solve", inst, 0, 0.01, solution_report=inst.solve_maximal())
        doc["solution"] = ["c0", "d0"]
        assert not replay_report(doc, inst)

    def test_game_report_replay(self):
        from ordeq import solve_game

        game = parse_instance(FIXTURES["game2x2"])
        result = solve_game(game)
        doc = build_report("game", game, 0, 0.01, solution_report=result.report,
                           game_value=result.value)
        assert doc["game_value"] == "0"
        assert replay_report(doc, game)

    def test_forced_solve_reports_replay_both_directions(self):
        # covers promoted last steps and climbs that strand short of the solution
        replayed = promoted = stranded = 0
        for seed, inst, rep in _forced_reports():
            x, y = rep.seed
            doc = build_report("solve", inst, 0, 0.01, solution_report=rep)
            assert replay_report(doc, inst), (seed, x, y, rep.direction)
            trace = rep.climb_trace
            replayed += 1
            promoted += len(trace) > 1 and trace[-1] not in inst.gamma(*trace[-2])
            stranded += trace[-1] != rep.solution
        assert replayed > 500 and promoted and stranded

    def test_climb_check_agrees_with_the_referee(self):
        # on every solver trace of the sweep above and on tampered copies: a
        # middle step swapped for another pair beyond its predecessor, the
        # promotion step dropped, the trace cut one step early
        verdicts = {True: 0, False: 0}
        for seed, inst, rep in _forced_reports():
            doc = build_report("solve", inst, 0, 0.01, solution_report=rep)
            pos = lambda p: (inst._row(p[0]), inst._col(p[1]))  # noqa: E731
            for trace in _tampered_traces(inst, rep):
                ok = climb_ok(inst, rep.seed, trace, rep.solution, rep.direction)
                assert inst._climbs([pos(p) for p in trace], pos(rep.solution),
                                    rep.direction) == ok, (seed, trace, rep.direction)
                claim = dict(doc, climb_trace=[[element_id(x), element_id(y)] for x, y in trace])
                assert replay_report(claim, inst) == ok, (seed, trace, rep.direction)
                verdicts[ok] += 1
        assert verdicts[True] > 500 and verdicts[False] > 500, verdicts

    def test_forced_picks_against_the_count_referee(self):
        # the pick is extremal above the promotion's start; where the
        # hypotheses pass it is also the count kernel's pick, the first cell
        passing = changed = 0
        for seed, inst, rep in _forced_reports():
            sol = inst._row(rep.solution[0]), inst._col(rep.solution[1])
            assert extremal_mask(inst, promotion_start(inst, rep), rep.direction)[sol]
            first = referee_pick(inst, rep)
            if rep.hypotheses.passes:
                assert sol == first, (seed, rep.seed, rep.direction)
                passing += 1
            changed += sol != first
        assert passing > 100 and changed, (passing, changed)

    def test_replay_predicate_agrees_with_the_count_referee(self):
        # a claim q replays when it lies at or beyond the seed and is its own
        # highest solution: exactly the cells of the referee's mask
        for seed, inst, rep in _forced_reports():
            i, j = inst._row(rep.seed[0]), inst._col(rep.seed[1])
            best = extremal_mask(inst, (i, j), rep.direction)
            c_leq, d_leq = inst._directed(rep.direction)[:2]
            for q in np.ndindex(best.shape):
                claim = c_leq[i, q[0]] and d_leq[j, q[1]] and inst._highest(q, rep.direction) == q
                assert claim == best[q], (seed, rep.seed, q, rep.direction)

    def test_reports_of_the_count_referees_pick_replay(self):
        # what the solver wrote when it promoted with the count kernel
        rewritten = 0
        for seed, inst, rep in _forced_reports():
            doc = _referee_report(inst, rep)
            if doc is not None:
                assert replay_report(doc, inst), (seed, rep.seed, rep.direction)
                rewritten += 1
        assert rewritten

    @pytest.mark.parametrize("name", ["wide-oracle", "small-batch"])
    def test_bench_reports_of_the_count_referees_pick_replay(self, bench_files, name):
        rewritten = 0
        for path in bench_files(name):
            inst = parse_instance(str(path))
            try:
                doc = _referee_report(inst, inst.solve_maximal(force=True))
            except NoSolution:
                continue
            if doc is not None:
                assert replay_report(doc, inst), path.name
                rewritten += 1
        assert rewritten

    def test_replay_rejects_a_stranded_claim_outside_the_seeds_up_set(self):
        # a forced climb that strands claims from the seed: a maximal (minimal)
        # solution outside the seed's up-set (down-set) is its own highest, yet no claim
        refused = {"maximal": 0, "minimal": 0}
        for seed, inst, rep in _forced_reports():
            if rep.climb_trace[-1] == rep.solution:
                continue
            c_leq, d_leq = inst._directed(rep.direction)[:2]
            i, j = inst._row(rep.seed[0]), inst._col(rep.seed[1])
            for q in zip(*np.nonzero(inst._solution_mask)):
                q = tuple(map(int, q))
                if inst._highest(q, rep.direction) != q or c_leq[i, q[0]] and d_leq[j, q[1]]:
                    continue
                pair = inst._pair(q)
                claim = dataclasses.replace(  # its certificate is the claimed solution's
                    rep, solution=pair, certificates={pair: inst.solution_certificate(*pair)})
                doc = build_report("solve", inst, 0, 0.01, solution_report=claim)
                assert not replay_report(doc, inst), (seed, rep.seed, pair, rep.direction)
                refused[rep.direction] += 1
        assert all(refused.values()), refused

    def test_replay_rejects_a_solution_that_is_not_maximal(self, constant_objective):
        rep = constant_objective.solve_maximal(("c0", "d0"))
        doc = build_report("solve", constant_objective, 0, 0.01, solution_report=rep)
        assert replay_report(doc, constant_objective)
        doc["solution"] = ["c0", "d1"]  # a solution, but (c1, d1) lies above it
        doc["climb_trace"] = [["c0", "d0"], ["c0", "d1"]]
        doc["certificates"][0]["pair"] = ["c0", "d1"]
        assert not replay_report(doc, constant_objective)
