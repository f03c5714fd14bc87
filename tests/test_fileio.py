"""Instance file parsing, normalization, digests, and report replay."""

import json

import pytest

from ordeq import (
    ObjectiveMap,
    ProblemInstance,
    ZeroSumGame,
    constant_map,
    gen_instance,
    GenSpec,
    instance_digest,
    load_poset,
    parse_instance,
    replay_report,
    serialize_instance,
)
from ordeq.errors import ParseError, ValidationError
from ordeq.fileio import build_report, parse_instance_dict

from conftest import FIXTURES


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
        with pytest.raises(ValidationError, match="not an element of U"):
            parse_instance_dict(doc)

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


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["i1", "i2", "i3", "game2x2", "game3x3"])
    def test_serialize_parse_idempotent(self, name):
        first = serialize_instance(parse_instance(FIXTURES[name]))
        second = serialize_instance(parse_instance_dict(first))
        assert first == second

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

    def test_digest_stable_and_sensitive(self):
        a = parse_instance(FIXTURES["i2"])
        b = parse_instance(FIXTURES["i2"])
        assert instance_digest(a) == instance_digest(b)
        c = parse_instance(FIXTURES["i1"])
        assert instance_digest(a) != instance_digest(c)


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
