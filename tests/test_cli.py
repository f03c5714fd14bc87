"""The batch front end: commands, output, and the exit-code contract."""

import copy
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ordeq import (GenSpec, ProblemInstance, ZeroSumGame, gen_instance, gen_poset,
                   parse_instance, replay_report, serialize_instance)
from ordeq.cli import main
from ordeq.errors import ParseError
from ordeq.fileio import serialize_poset_doc
from ordeq.generate import KINDS, POSET_KINDS
from ordeq.poset import _Chain

from conftest import FIXTURES, REFUSED_FILES, refused_file

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def generic_game_doc(k):
    """A k x k grid game whose payoffs n*a - b (a, b the positions of x, y) are all distinct.

    phi and psi are constant at the top of the grid, so the hypotheses pass at
    the bottom seed and the top pair is the one solution.
    """
    ids = [f"{i},{j}" for i in range(k) for j in range(k)]
    n = len(ids)
    return {"schema": "roep-instance/1", "mode": "game",
            "posets": {"X": {"grid": [k, k]}, "Y": {"grid": [k, k]}},
            "C": {"poset": "X", "members": ids}, "D": {"poset": "Y", "members": ids},
            "payoff": [[x, y, f"{n * a - b}/7"] for a, x in enumerate(ids)
                       for b, y in enumerate(ids)],
            "seed": [ids[0], ids[0]]}


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES["i2"])
        assert code == 0
        assert "valid" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "nope.json")
        assert code == 1
        assert "ParseError" in err

    def test_invalid_instance(self, capsys, tmp_path):
        doc = json.loads(Path(FIXTURES["i2"]).read_text())
        doc["F"]["c0"] = []
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "ValidationError" in err
        # the file's edge_kind names one of two conventions
        doc = json.loads(Path(FIXTURES["i2"]).read_text())
        doc["posets"]["X"]["edge_kind"] = "dag"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert err == "error: ValidationError: posets.X: edge_kind must be 'hasse' or 'full'\n"

    # more extents than np.meshgrid takes (32): a grid is the Kronecker product of chains
    @pytest.mark.parametrize("dims, summary", [
        ([1] * 40, "poset: 1 elements, 0 cover edges\n"),
        ([2] * 11 + [1] * 40, "poset: 2048 elements, 11264 cover edges\n"),
    ], ids=["40-unit-extents", "2048-elements-51-extents"])
    def test_grid_of_many_extents(self, capsys, tmp_path, dims, summary):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"schema": "roep-poset/1", "grid": dims}))
        assert run(capsys, "validate", str(path)) == (0, summary + "valid\n", "")

    def test_game_utility_has_no_distinct_payoff_cap(self, capsys, tmp_path):
        # a game's U is the chain of its distinct payoffs, |U| up to |C| * |D|;
        # it stores no order matrix, so it is not capped as a declared poset is
        cells = [(str(x), str(y)) for x in range(64) for y in range(33)]
        for distinct in (2048, 2049, len(cells)):
            doc = {"schema": "roep-instance/1", "mode": "game",
                   "posets": {"X": {"grid": [64]}, "Y": {"grid": [33]}},
                   "C": {"poset": "X", "members": [str(x) for x in range(64)]},
                   "D": {"poset": "Y", "members": [str(y) for y in range(33)]},
                   "payoff": [[x, y, f"{min(k, distinct - 1)}/3"]
                              for k, (x, y) in enumerate(cells)]}
            path = tmp_path / f"game{distinct}.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "validate", str(path))
            assert (code, err) == (0, ""), distinct
            assert f"|C|=64 |D|=33 |U|={distinct} " in out and out.endswith("valid\n")


class TestGameUtilityOrder:
    """A game's U is a chain with no stored order: no command on a game builds it."""

    @pytest.mark.parametrize("command", ["check", "solve", "enumerate", "game", "validate"])
    def test_game_commands_never_build_the_order_of_u(self, capsys, monkeypatch, tmp_path,
                                                      command):
        built = []

        def recorded(chain):
            built.append(len(chain))
            return np.triu(np.ones((len(chain), len(chain)), dtype=bool))

        monkeypatch.setattr(_Chain, "leq_matrix", property(recorded))
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(generic_game_doc(3)))
        report = ["--report", str(tmp_path / "report.json")] if command != "validate" else []
        for game in (str(path), FIXTURES["game2x2"]):
            assert type(parse_instance(game).U) is _Chain
            name, *flags = command.split()
            code, _, err = run(capsys, name, game, *flags, *report)
            assert (code, err) == (0, ""), game
        assert built == []


class TestCheck:
    def test_i1_passes_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", FIXTURES["i1"])
        assert code == 0
        assert "witness=(c1, d1)" in out
        assert "hypotheses: pass" in out

    def test_i3_fails_with_exit_2(self, capsys):
        code, out, _ = run(capsys, "check", FIXTURES["i3"])
        assert code == 2
        assert "phi increasing upward: False" in out

    def test_failure_names_psi(self, capsys, tmp_path):
        # unconstrained, psi(d0) = {c0, c1} but psi(d1) = {c0}
        doc = json.loads(Path(FIXTURES["i2"]).read_text())
        del doc["F"], doc["G"]
        for row, value in zip(doc["T"], ["-1", "0", "-1", "-1"]):
            row[2] = value
        path = tmp_path / "psi.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert (code, err) == (2, "")
        assert out.endswith("phi increasing upward: True\npsi increasing upward: False\n"
                            "values universally inductive: True\n"
                            "seed condition: True witness=(c0, d0)\n"
                            "hypotheses: FAIL: psi is not increasing upward\n")

    def test_seed_flag_overrides(self, capsys):
        code, out, _ = run(capsys, "check", FIXTURES["i2"], "--seed", "c1:d1")
        assert code == 0
        assert "seed: (c1, d1)" in out

    def test_missing_seed_is_usage_error(self, capsys, tmp_path):
        doc = json.loads(Path(FIXTURES["i2"]).read_text())
        doc.pop("seed")
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1


class TestSolve:
    def test_i2_solves_with_trace_of_three(self, capsys):
        code, out, _ = run(capsys, "solve", FIXTURES["i2"], "--seed", "c0:d0")
        assert code == 0
        assert "solution (maximal): (c1, d1)" in out
        climb_line = next(l for l in out.splitlines() if l.startswith("climb:"))
        assert climb_line.count("->") == 2  # three visited pairs

    def test_i3_unforced_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", FIXTURES["i3"])
        assert code == 2
        assert "hypothesis failure" in err

    def test_i3_forced_exit_3(self, capsys):
        code, _, err = run(capsys, "solve", FIXTURES["i3"], "--force")
        assert code == 3
        assert "no solution" in err

    def test_forced_run_notes_failed_hypotheses(self, capsys, tmp_path):
        # phi is not increasing upward, yet (c1, d0) solves above the seed
        doc = json.loads(Path(FIXTURES["i2"]).read_text())
        del doc["F"]
        for row, value in zip(doc["T"], ["-1", "-1", "0", "1"]):
            row[2] = value
        path = tmp_path / "forced.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "solve", str(path))[0] == 2
        code, out, err = run(capsys, "solve", str(path), "--force")
        assert (code, err) == (0, "")
        assert out.endswith("climb: (c0, d0) -> (c1, d0)\nsolution (maximal): (c1, d0)\n"
                            "note: hypotheses failed; existence was not guaranteed "
                            "(forced run)\n")

    @pytest.mark.parametrize("name, seed", [
        ("i1", "('c0', 'd0')"), ("i2", "('c0', 'd0')"), ("i3", "('c0', 'd0')"),
        ("game2x2", "('0,0', '0,0')"), ("game3x3", "('0,0', '0,0')"),
    ], ids=["i1", "i2", "i3", "game2x2", "game3x3"])
    def test_minimal_solve_searches_below_the_seed(self, capsys, name, seed):
        assert run(capsys, "solve", FIXTURES[name], "--minimal", "--force") == (
            3, "", f"no solution: no solution below seed {seed} "
                   "(hypotheses were not satisfied)\n")

    def test_minimal_flag(self, capsys):
        code, out, _ = run(capsys, "solve", FIXTURES["i2"], "--seed", "c1:d1", "--minimal")
        assert code == 0
        assert "solution (minimal): (c1, d1)" in out

    def test_minimal_solve_needs_phi_increasing_downward(self, capsys):
        # game3x3's phi is increasing upward, as check reports, but not downward
        assert run(capsys, "solve", FIXTURES["game3x3"], "--minimal", "--seed", "2,2:2,2") == (
            2, "", "hypothesis failure: solver preconditions failed: "
                   "phi is not increasing downward\n")

    def test_minimal_report_names_the_flags_as_check_does(self, capsys, tmp_path):
        check, solve = tmp_path / "check.json", tmp_path / "solve.json"
        assert run(capsys, "check", FIXTURES["game3x3"], "--seed", "2,2:2,2",
                   "--report", str(check))[0] == 0
        code, out, err = run(capsys, "solve", FIXTURES["game3x3"], "--minimal", "--force",
                             "--seed", "2,2:2,2", "--report", str(solve))
        assert (code, err) == (0, "")
        assert "climb: (2,2, 2,2) -> (2,2, 0,2) -> (0,2, 0,2)\n" in out
        assert "solution (minimal): (0,2, 0,2)\n" in out
        checked, solved = (json.loads(path.read_text()) for path in (check, solve))
        same = ["seed", "values_universally_inductive"] + [
            f"{m}_increasing_{way}" for m in ("phi", "psi") for way in ("upward", "downward")]
        assert {k: solved["hypotheses"][k] for k in same} == {
            k: checked["hypotheses"][k] for k in same}
        assert solved["hypotheses"]["phi_increasing_downward"] is False
        assert solved["hypotheses"]["seed_witness"] == ["2,2", "0,2"]  # below the seed
        assert solved["hypotheses"]["passes"] is False
        assert replay_report(solved, parse_instance(FIXTURES["game3x3"]))

    def test_report_file_replays(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "solve", FIXTURES["i2"], "--report", str(report_path))
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["schema"] == "roep-report/2"
        assert doc["solution"] == ["c1", "d1"]
        assert replay_report(doc, parse_instance(FIXTURES["i2"]))

    def test_bad_seed_flag(self, capsys):
        code, _, err = run(capsys, "solve", FIXTURES["i2"], "--seed", "c0")
        assert code == 1


def renamed_i2(tmp_path, names):
    """The i2 fixture with its element ids renamed, written to a file."""
    text = Path(FIXTURES["i2"]).read_text()
    for old, new in names.items():
        text = text.replace(json.dumps(old), json.dumps(new))
    path = tmp_path / "renamed.json"
    path.write_text(text)
    return str(path)


class TestSeedFlag:
    def test_colon_inside_an_id(self, capsys, tmp_path):
        path = renamed_i2(tmp_path, {"c0": "x:1", "d0": "y"})
        code, out, _ = run(capsys, "check", path, "--seed", "x:1:y")
        assert code == 0
        assert "seed: (x:1, y)" in out

    def test_grid_ids_split_at_the_one_fitting_comma(self, capsys):
        code, out, _ = run(capsys, "check", FIXTURES["game2x2"], "--seed", "0,0,1,1")
        assert code == 0
        assert "seed: (0,0, 1,1)" in out

    def test_ambiguous_seed_names_its_splits(self, capsys, tmp_path):
        path = renamed_i2(tmp_path, {"c0": "a", "c1": "a:b", "d0": "b:c", "d1": "c"})
        code, _, err = run(capsys, "check", path, "--seed", "a:b:c")
        assert code == 1
        assert "ValidationError" in err and "ambiguous" in err
        assert "'a' and 'b:c'" in err and "'a:b' and 'c'" in err

    def test_seed_matching_no_members_names_its_splits(self, capsys):
        code, _, err = run(capsys, "solve", FIXTURES["i2"], "--seed", "c0:d9")
        assert code == 1
        assert "ValidationError" in err and "'c0' and 'd9'" in err

    @pytest.mark.parametrize("command, name", [("check", "i2"), ("solve", "i2"),
                                               ("game", "game2x2")])
    def test_empty_seed_is_refused_not_ignored(self, capsys, command, name):
        code, _, err = run(capsys, command, FIXTURES[name], "--seed", "")
        assert code == 1
        assert err == ("error: ValidationError: --seed '' names no pair of C and D members; "
                       "candidate splits: none\n")


REPORTING_COMMANDS = [["check"], ["solve", "--force"], ["solve", "--minimal", "--force"],
                      ["game"], ["game", "--force"], ["enumerate"]]


class TestReplay:
    @pytest.mark.parametrize("name", ["i1", "i2", "i3", "game2x2", "game3x3"])
    def test_fixture_reports_replay(self, capsys, tmp_path, name):
        replayed = 0
        for k, argv in enumerate(REPORTING_COMMANDS):
            path = tmp_path / f"report{k}.json"
            run(capsys, *argv, FIXTURES[name], "--report", str(path))
            if path.exists():
                doc = json.loads(path.read_text())
                assert replay_report(doc, parse_instance(FIXTURES[name])), argv
                replayed += 1
        assert replayed >= 2

    # each fixture's digest as roep-report/1 files carry it: the sha256 of the
    # normalized document's canonical JSON text
    SCHEMA_1_DIGESTS = {
        "i1": "5f160b34885e7b80e376e05c0929c6b702b20aeb81e225ca7b72109de0b7313d",
        "i2": "9e97b91ae2fd7374f58da251843f4f2a707de313b3f509c267b872111d1f55d7",
        "i3": "af37906d81844a0b4e55cee72cc81c7c242254fedbfb782238739c96b7801c21",
        "game2x2": "b57515ba5fd79b3feedbe6e1f43bdb98597b6dc3224538cc5462a6db2737e05c",
        "game3x3": "f9e2ca7a947e143e75ccf88d1281432d980ffa2dd51c1b6f6906817c417b5a73",
    }

    @pytest.mark.parametrize("name", sorted(SCHEMA_1_DIGESTS))
    def test_schema_1_reports_are_refused_and_fresh_ones_replay(self, capsys, tmp_path, name):
        # a /1 report digests another byte layout: it is refused as a document,
        # not replayed into a digest mismatch
        inst = parse_instance(FIXTURES[name])
        written = 0
        for k, argv in enumerate(REPORTING_COMMANDS):
            path = tmp_path / f"report{k}.json"
            run(capsys, *argv, FIXTURES[name], "--report", str(path))
            if not path.exists():
                continue
            doc = json.loads(path.read_text())
            assert doc["schema"] == "roep-report/2"
            assert replay_report(doc, inst), argv
            old = {**doc, "schema": "roep-report/1",
                   "instance_digest": self.SCHEMA_1_DIGESTS[name]}
            with pytest.raises(ParseError, match="^expected a 'roep-report/2' document$"):
                replay_report(old, inst)
            written += 1
        assert written >= 2

    def test_unreplayable_reports(self, capsys, tmp_path):
        path = tmp_path / "check.json"
        assert run(capsys, "check", FIXTURES["i2"], "--report", str(path))[0] == 0
        doc, inst = json.loads(path.read_text()), parse_instance(FIXTURES["i2"])
        assert replay_report(doc, inst)
        with pytest.raises(ParseError, match="^expected a 'roep-report/2' document$"):
            replay_report({**doc, "schema": "roep-report/0"}, inst)
        assert not replay_report({**doc, "command": "frobnicate"}, inst)
        assert not replay_report({**doc, "command": "game"}, inst)  # no game value
        for report in ([], None, "x"):
            with pytest.raises(ParseError, match="^expected a 'roep-report/2' document$"):
                replay_report(report, inst)
        # malformed claims of a solve report are refused, not raised
        assert run(capsys, "solve", FIXTURES["i2"], "--report", str(path))[0] == 0
        doc = json.loads(path.read_text())
        assert replay_report(doc, inst)
        for field, claim in [("seed", ["c0"]), ("climb_trace", 5), ("elapsed_seconds", "0.1"),
                             ("solution", ["d1", "d1"])]:
            assert not replay_report({**doc, field: claim}, inst), field

    @pytest.mark.parametrize("tamper", ["solutions", "direction", "trace", "passes", "all"])
    def test_tampered_game_report_fails(self, capsys, tmp_path, tamper):
        path = tmp_path / "game.json"
        assert run(capsys, "game", FIXTURES["game3x3"], "--report", str(path))[0] == 0
        doc = json.loads(path.read_text())
        game = parse_instance(FIXTURES["game3x3"])
        assert replay_report(doc, game)
        assert len(doc["solutions"]) == 15
        if tamper in ("solutions", "all"):
            doc["solutions"] = [doc["solution"]]
        if tamper in ("direction", "all"):
            doc["direction"] = "minimal"
        if tamper in ("trace", "all"):
            doc["climb_trace"] = []
        if tamper in ("passes", "all"):
            doc["hypotheses"]["passes"] = False
        assert not replay_report(doc, game)


class TestEnumerate:
    def test_i2(self, capsys):
        code, out, _ = run(capsys, "enumerate", FIXTURES["i2"])
        assert code == 0
        assert "(c1, d1)" in out

    def test_i3_empty_exit_3(self, capsys):
        code, out, _ = run(capsys, "enumerate", FIXTURES["i3"])
        assert code == 3
        assert "solutions: 0" in out

    def test_game3x3_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", FIXTURES["game3x3"])
        assert code == 0
        assert "solutions: 15" in out


class TestGame:
    def test_additive_2x2(self, capsys):
        code, out, _ = run(capsys, "game", FIXTURES["game2x2"])
        assert code == 0
        assert "equilibrium: (1,1, 1,1)" in out
        assert "value: 0" in out

    def test_seed_flag_with_grid_ids(self, capsys):
        code, out, _ = run(capsys, "game", FIXTURES["game2x2"], "--seed", "0,0:0,0")
        assert code == 0

    def test_roep_file_rejected(self, capsys):
        code, _, err = run(capsys, "game", FIXTURES["i2"])
        assert code == 1
        assert "mode=game" in err

    def test_constrained_3x3(self, capsys, tmp_path):
        report_path = tmp_path / "g.json"
        code, out, _ = run(capsys, "game", FIXTURES["game3x3"], "--report", str(report_path))
        assert code == 0
        assert "equilibrium: (2,2, 2,2)" in out
        doc = json.loads(report_path.read_text())
        assert doc["game_value"] == "0"
        assert replay_report(doc, parse_instance(FIXTURES["game3x3"]))


class TestGen:
    def test_instance_roundtrip_through_validate(self, capsys, tmp_path):
        out_path = tmp_path / "inst.json"
        code, _, _ = run(capsys, "gen", "--kind", "random_instance", "--seed", "5",
                         "--sizes", "3,3,5", "-o", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(out_path))
        assert code == 0

    def test_filtered_instance_solves(self, capsys, tmp_path):
        out_path = tmp_path / "inst.json"
        code, _, _ = run(capsys, "gen", "--kind", "random_instance", "--seed", "11",
                         "--sizes", "3,3,5", "--monotone-bias",
                         "--filter", "require_hypotheses", "-o", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "solve", str(out_path))
        assert code == 0

    def test_poset_document(self, capsys, tmp_path):
        out_path = tmp_path / "poset.json"
        code, _, _ = run(capsys, "gen", "--kind", "chain", "--seed", "0",
                         "--sizes", "4", "-o", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "roep-poset/1"
        code, out, _ = run(capsys, "validate", str(out_path))
        assert code == 0
        assert "poset: 4 elements" in out

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "gen", "--kind", "random_instance")
        assert code == 1

    def test_malformed_sizes_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--kind", "random_instance", "--seed", "1",
                           "--sizes", "three,3,3", "-o", str(tmp_path / "x.json"))
        assert code == 1
        assert "sizes" in err

    def test_wrong_arity_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--kind", "chain", "--seed", "1",
                           "--sizes", "3,3", "-o", str(tmp_path / "x.json"))
        assert code == 1
        assert "single size" in err

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--kind", "chain", "--seed", "1",
                           "--sizes", "3", "-o", str(tmp_path / "missing" / "x.json"))
        assert code == 1

    def test_oversized_poset_is_refused_before_it_is_built(self, capsys, tmp_path):
        # 99999 x 3 x 4 grid elements once asked for a 3.93 TiB order matrix: exit 4;
        # the parse took 41 s to refuse a 3000-element list
        big = [f"e{i}" for i in range(3000)]
        instance = json.loads(Path(FIXTURES["i2"]).read_text())
        instance["posets"]["X"] = {"elements": big}
        docs = {
            "grid.json": ({"schema": "roep-poset/1", "grid": [99999, 3, 4]},
                          "ValidationError: poset: grid has more than 2048 elements"),
            "list.json": ({"schema": "roep-poset/1", "elements": big},
                          "ValidationError: poset: more than 2048 elements"),
            "instance.json": (instance, "ValidationError: posets.X: more than 2048 elements"),
            # a non-positive extent keeps its own message
            "extent.json": ({"schema": "roep-poset/1", "grid": [99999, 3, -1]},
                            "ValidationError: poset: ZeroExtent: grid extents must all be >= 1"),
        }
        cases = [(["gen", "--kind", "grid", "--seed", "3", "--sizes", "99999,3,4",
                   "-o", str(tmp_path / "x.json")],
                  "InvalidSpec: grid with sizes (99999, 3, 4) has more than")]
        for name, (doc, message) in docs.items():
            (tmp_path / name).write_text(json.dumps(doc))
            cases.append((["validate", str(tmp_path / name)], message))
        for argv, message in cases:
            started = time.perf_counter()
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert message in err, argv
            assert time.perf_counter() - started < 1.0, argv
        assert not (tmp_path / "x.json").exists()

    def test_long_cycle_fed_by_a_dense_clump_exits_1_quickly(self, capsys, tmp_path):
        # Kahn orders the 1024-node clump (16 edges on from each node, and one
        # into the cycle); only the 1024-node cycle's block is then closed, by
        # squaring, where Warshall closed all 2048 nodes in about 1.7 s
        n, k = 2048, 1024
        ids = [f"v{i}" for i in range(n)]
        edges = [[ids[i], ids[j]] for i in range(k) for j in range(i + 1, min(i + 17, k))]
        edges += [[ids[i], ids[k + 7 * i % k]] for i in range(k)]
        edges += [[ids[i], ids[k + (i + 1) % k]] for i in range(k, n)]
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"schema": "roep-poset/1", "elements": ids, "edges": edges}))
        started = time.perf_counter()
        code, _, err = run(capsys, "validate", str(path))
        assert time.perf_counter() - started < 1.7
        assert code == 1
        assert err == ("error: ValidationError: poset: CycleDetected: antisymmetry violated: "
                       "'v1024' and 'v1025' are related both ways\n")

    def test_fuzzed_flags_never_exit_4(self, tmp_path):
        target = str(tmp_path / "x.json")
        sizes = ("0,3,4", "-1,3,4", "a,b,c", "3,3", "", "3", "2,2", "4,4,4", "1", "12",
                 "99999", "99999,3,4", "3,99999", "1e3", "3,,3", "9" * 40,
                 ",".join(["1"] * 33))
        for kind in KINDS:
            for size in sizes:
                for density in ("nan", "inf", "-1", "2", "0.5"):
                    for seed in ("1", "-7", "x", "9" * 30):
                        argv = ["gen", "--kind", kind, "--seed", seed, "--sizes", size,
                                "--density", density, "-o", target]
                        err = io.StringIO()
                        with redirect_stdout(io.StringIO()), redirect_stderr(err):
                            code = main(argv)
                        assert code in (0, 1), (argv, err.getvalue())


class TestExitCodeContract:
    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_invariant_breach_is_exit_4(self, capsys, monkeypatch):
        # a solver trace that fails the climb check is a bug, not a result
        monkeypatch.setattr(ProblemInstance, "_climbs", lambda self, *args: False)
        code, _, err = run(capsys, "solve", FIXTURES["i2"])
        assert code == 4
        assert "InvariantBreach: the solver's claim fails the claim rule: " in err

    def test_a_claim_that_is_not_its_own_highest_is_exit_4(self, capsys, monkeypatch,
                                                           tmp_path):
        # the climb from this file's seed reaches the fixed point (c1, d0), and the
        # promotion goes on to (c2, d2); a promotion that stays put breaks the claim rule
        path, target = str(tmp_path / "instance.json"), tmp_path / "report.json"
        assert run(capsys, "gen", "--kind", "random_instance", "--sizes", "3,3,4", "--seed",
                   "168", "--filter", "require_hypotheses", "-o", path)[0] == 0
        highest, calls = ProblemInstance._highest, []

        def stays_at_first(self, p, direction):
            calls.append(p)
            return p if len(calls) == 1 else highest(self, p, direction)

        monkeypatch.setattr(ProblemInstance, "_highest", stays_at_first)
        code, out, err = run(capsys, "solve", path, "--report", str(target))
        assert (code, out, calls[0]) == (4, "", (1, 0))
        assert err.startswith("internal error: InvariantBreach: the solver's claim fails the "
                              "claim rule: [(0, 0), (1, 0)], (1, 0)")
        assert not target.exists()

    def test_failed_saddle_reverification_is_exit_4(self, capsys, monkeypatch):
        solve = ZeroSumGame.solve_maximal
        monkeypatch.setattr(ZeroSumGame, "solve_maximal", lambda self, *args, **kw: replace(
            solve(self, *args, **kw), solution=("0,0", "0,0")))
        assert run(capsys, "game", FIXTURES["game2x2"]) == (
            4, "", "internal error: InvariantBreach: reported equilibrium ('0,0', '0,0') "
                   "failed the saddle re-verification\n")

    def test_any_other_exception_is_exit_4(self, capsys, monkeypatch):
        def boom(path):
            raise RuntimeError("boom")
        monkeypatch.setattr("ordeq.cli.parse_instance", boom)
        assert run(capsys, "check", FIXTURES["i1"]) == (
            4, "", "internal error: RuntimeError: boom\n")


class TestOpPipeline:
    """check, solve, enumerate and game: parse, run the op, print, then write the report."""

    @pytest.mark.parametrize("command, name, first", [
        ("check", "i1", "seed: "), ("solve", "i2", "climb: "),
        ("enumerate", "i3", "solutions: "), ("game", "game3x3", "climb: "),
    ])
    def test_instance_line_then_the_op_lines(self, capsys, tmp_path, command, name, first):
        target = tmp_path / "report.json"
        code, out, err = run(capsys, command, FIXTURES[name], "--report", str(target))
        assert target.exists() and json.loads(target.read_text())["exit_code"] == code
        lines = out.splitlines()
        assert lines[0].startswith("instance: mode=") and lines[1].startswith(first)
        assert not any(line.startswith("instance: ") for line in lines[1:])
        assert run(capsys, command, FIXTURES[name]) == (code, out, err)  # --report adds nothing

    # the (exit 3) forced solve on i3 is pinned in TestPinnedOutputs
    @pytest.mark.parametrize("argv, code, err", [
        (["solve", "i3"], 2, "hypothesis failure: solver preconditions failed: "),
        (["game", "i2"], 1, "error: ValidationError: the 'game' command needs a mode=game "),
        # the mode is refused before the seed is read
        (["game", "i2", "--seed", "c0:d0"], 1,
         "error: ValidationError: the 'game' command needs a mode=game "),
    ], ids=["solve-i3", "game-i2", "game-i2-seeded"])
    def test_a_refused_op_prints_nothing_and_writes_no_report(self, capsys, tmp_path, argv,
                                                              code, err):
        target = tmp_path / "report.json"
        command, name, *flags = argv
        got = run(capsys, command, FIXTURES[name], *flags, "--report", str(target))
        assert got[:2] == (code, "") and got[2].startswith(err)
        assert not target.exists()

    def test_an_op_breaching_an_invariant_prints_nothing_and_writes_no_report(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(ProblemInstance, "_climbs", lambda self, *args: False)
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "solve", FIXTURES["i2"], "--report", str(target))
        assert (code, out) == (4, "")
        assert not target.exists()


class TestCollectorPause:
    @pytest.mark.parametrize("name", [None, *sorted(REFUSED_FILES)])
    def test_ops_leave_the_collector_as_found(self, capsys, tmp_path, collector, name):
        path = FIXTURES["i2"] if name is None else str(refused_file(tmp_path, name))
        report = str(tmp_path / "report.json")
        unwritable = str(tmp_path / "absent" / "report.json")
        for argv, ok in ((["validate", path], True), (["check", path, "--report", report], True),
                         (["solve", path, "--force", "--report", report], True),
                         (["enumerate", path, "--report", report], True),
                         (["check", path, "--report", unwritable], False)):
            code, _, _ = run(capsys, *argv)
            assert code == (0 if ok and name is None else 1), argv
            assert gc.isenabled() is collector, argv

    def test_gen_leaves_the_collector_as_found(self, capsys, tmp_path, collector):
        written = str(tmp_path / "written.json")
        argv = ["gen", "--kind", "random_instance", "--sizes", "3,3,4", "--seed", "1"]
        assert run(capsys, *argv, "-o", written)[0] == 0
        assert run(capsys, *argv, "-o", str(tmp_path / "absent" / "written.json"))[0] == 1
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("collector", [True], indirect=True, ids=["collector-on"])
    @pytest.mark.parametrize("kind, size", [("random_poset", "2048"), ("boolean_lattice", "11")])
    def test_a_gen_poset_write_starts_no_collection(self, capsys, monkeypatch, tmp_path,
                                                    collector, kind, size):
        # 2048 elements: while the document lives, young collections would rescan its edges
        events = []

        def build(poset):
            events.append("build")
            return serialize_poset_doc(poset)

        @contextmanager
        def marked_open(*args, **kwargs):
            with open(*args, **kwargs) as fh:
                yield fh
            events.append("written")

        def started(phase, info):
            if phase == "start":
                events.append(info["generation"])

        monkeypatch.setattr("ordeq.cli.serialize_poset_doc", build)
        monkeypatch.setattr("ordeq.fileio.open", marked_open, raising=False)
        argv = ["gen", "--kind", kind, "--sizes", size, "--seed", "1"]
        gc.callbacks.append(started)
        try:
            assert run(capsys, *argv, "-o", str(tmp_path / "written.json"))[0] == 0
            assert run(capsys, *argv, "-o", str(tmp_path / "absent" / "written.json"))[0] == 1
        finally:
            gc.callbacks.remove(started)
        assert gc.isenabled()
        assert events[events.index("build"):events.index("written") + 1] == ["build", "written"]


class TestProcess:
    """`python -m ordeq.cli` as its own process, through `entry()` and the exit status."""

    def ordeq(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run([sys.executable, "-m", "ordeq.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_version(self):
        done = self.ordeq("--version")
        assert (done.returncode, done.stdout) == (0, "0.1.0\n")

    def test_check_matches_in_process(self, capsys):
        done = self.ordeq("check", "fixtures/i1_unconstrained.json")
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, "check", FIXTURES["i1"])
        assert done.returncode == 0

    def test_enumerate_without_solutions_exits_3(self):
        assert self.ordeq("enumerate", "fixtures/i3_matching_pennies.json").returncode == 3

    # each command in its own process, which reports its exit code and peak RSS
    MEASURED = ("import resource, sys\nfrom ordeq.cli import main\ncode = main(sys.argv[1:])\n"
                "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")

    @pytest.mark.parametrize("command", ["check", "solve --force", "game --force", "enumerate"])
    def test_generic_16x16_game_in_bounded_memory(self, tmp_path, command):
        # 65 536 distinct payoffs: a dense order of U alone would take 4 GiB
        path = tmp_path / "generic16.json"
        path.write_text(json.dumps(generic_game_doc(16)))
        name, *flags = command.split()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", self.MEASURED, name, str(path), *flags],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert done.stderr == ""
        code, peak_kib = map(int, done.stdout.splitlines()[-1].split())
        assert code == 0
        assert "|U|=65536 " in done.stdout and "(15,15, 15,15)" in done.stdout
        assert peak_kib < 200 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# (fixture, command, exit code, stdout, stderr, report without elapsed_seconds),
# the last three as the first 16 hex digits of their sha256; recorded before
# instances were built straight from their index codes, except the stderr of
# "solve --minimal --force", which now says the search ran below the seed, and
# stdout and report wherever they carry the digest: each of those is the earlier
# output with the digest that hashes the codes and schema roep-report/2 put in
PINNED = [
    ("i1", "check", 0, "d0159c9cd24161ac", "e3b0c44298fc1c14", "d7b9036c36ab2af5"),
    ("i1", "solve --force", 0, "11d70ced7d65271a", "e3b0c44298fc1c14", "50c0de8ac67c7650"),
    ("i1", "solve --minimal --force", 3, "e3b0c44298fc1c14", "da395b4dd31f6e81", None),
    ("i1", "enumerate", 0, "805ec8ab47a7ebfd", "e3b0c44298fc1c14", "d7c626b514aba940"),
    ("i1", "validate", 0, "e573637d0d77ea26", "e3b0c44298fc1c14", None),
    ("i2", "check", 0, "e8f4a365381e8cad", "e3b0c44298fc1c14", "c955085bcddb03cd"),
    ("i2", "solve --force", 0, "f20fe31e1ee81e60", "e3b0c44298fc1c14", "9017233e67c1502a"),
    ("i2", "solve --minimal --force", 3, "e3b0c44298fc1c14", "da395b4dd31f6e81", None),
    ("i2", "enumerate", 0, "fff6f79b041d80da", "e3b0c44298fc1c14", "2c037beb75d14ef1"),
    ("i2", "validate", 0, "4739ef1e137da8f1", "e3b0c44298fc1c14", None),
    ("i3", "check", 2, "d102e2d9343c0371", "e3b0c44298fc1c14", "f9c8529ad645e532"),
    ("i3", "solve --force", 3, "e3b0c44298fc1c14", "14fa174c70ffa0eb", None),
    ("i3", "solve --minimal --force", 3, "e3b0c44298fc1c14", "da395b4dd31f6e81", None),
    ("i3", "enumerate", 3, "eb956c28cc50c91d", "e3b0c44298fc1c14", "803e79bbf844575c"),
    ("i3", "validate", 0, "25aa3e8d05ff6d3d", "e3b0c44298fc1c14", None),
    ("game2x2", "check", 0, "fd78b66620925bef", "e3b0c44298fc1c14", "877edebf02236f2a"),
    ("game2x2", "solve --force", 0, "13a0388f393f79a6", "e3b0c44298fc1c14", "392cd4771f69c973"),
    ("game2x2", "solve --minimal --force", 3, "e3b0c44298fc1c14", "1b9f4e70d73272eb", None),
    ("game2x2", "enumerate", 0, "856667d0ace19412", "e3b0c44298fc1c14", "f15177da2f5b33c7"),
    ("game2x2", "validate", 0, "982222f711dafd6d", "e3b0c44298fc1c14", None),
    ("game2x2", "game", 0, "b1fbefbc896660c6", "e3b0c44298fc1c14", "916f182558f2dd78"),
    ("game2x2", "game --force", 0, "b1fbefbc896660c6", "e3b0c44298fc1c14", "916f182558f2dd78"),
    ("game3x3", "check", 0, "52837a8927faf179", "e3b0c44298fc1c14", "caecb86d9027890d"),
    ("game3x3", "solve --force", 0, "2d68bf4b87fd35b2", "e3b0c44298fc1c14", "beb35ea7e230b15d"),
    ("game3x3", "solve --minimal --force", 3, "e3b0c44298fc1c14", "1b9f4e70d73272eb", None),
    ("game3x3", "enumerate", 0, "8be536647f6ff08b", "e3b0c44298fc1c14", "8c6a2c5108e61614"),
    ("game3x3", "validate", 0, "f613cd60fbe17e9f", "e3b0c44298fc1c14", None),
    ("game3x3", "game", 0, "c8f84d321caa1856", "e3b0c44298fc1c14", "b9be520b6714e5d9"),
    ("game3x3", "game --force", 0, "c8f84d321caa1856", "e3b0c44298fc1c14", "b9be520b6714e5d9"),
]


class TestPinnedOutputs:
    @pytest.mark.parametrize("name, command, code, out, err, report", PINNED,
                             ids=[f"{p[0]}-{p[1].replace(' ', '')}" for p in PINNED])
    def test_fixture_outputs(self, capsys, tmp_path, name, command, code, out, err, report):
        argv = command.split()
        target = tmp_path / "report.json"
        extra = [] if argv[0] == "validate" else ["--report", str(target)]
        got = run(capsys, argv[0], FIXTURES[name], *argv[1:], *extra)
        assert (got[0], _digest(got[1]), _digest(got[2])) == (code, out, err)
        doc = json.loads(target.read_text()) if target.exists() else None
        if doc is not None:
            del doc["elapsed_seconds"]
        assert (doc and _digest(json.dumps(doc, sort_keys=True))) == report

    # i2's T rows: (c0, d0, 0), (c0, d1, -1), (c1, d0, 1), (c1, d1, 0)
    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows.pop(1),
         "instance: UnknownElement: objective table has no entry for ('c0', 'd1')"),
        (lambda rows: rows.append(list(rows[2])), "T: duplicate row for ('c1', 'd0')"),
        (lambda rows: rows[1].__setitem__(2, "u9"),
         "instance: ValidationError: objective value 'u9' at ('c0', 'd1') is not in the "
         "utility poset"),
        (lambda rows: rows[2].__setitem__(1, "c0"), "T: row references 'c0', not a member of D"),
        # every row is checked before any value is: the duplicate is reported
        (lambda rows: (rows[0].__setitem__(2, "u9"), rows.append(list(rows[3]))),
         "T: duplicate row for ('c1', 'd1')"),
        # an id that misses the lookup, or cannot be looked up, is named with its JSON type's repr
        (lambda rows: rows[2].__setitem__(0, "nope"),
         "T: row references 'nope', not a member of C"),
        (lambda rows: rows[2].__setitem__(0, 1), "T: row references 1, not a member of C"),
        (lambda rows: rows[2].__setitem__(0, ["c1"]),
         "T: row references ['c1'], not a member of C"),
        (lambda rows: rows[2].__setitem__(1, None), "T: row references None, not a member of D"),
        (lambda rows: rows[2].__setitem__(1, ["d0"]),
         "T: row references ['d0'], not a member of D"),
        (lambda rows: rows[2].__setitem__(slice(0, 2), ["nope", 1]),
         "T: row references 'nope', not a member of C"),
        # no row is unpacked before its shape passes: three characters are no [x, y, value]
        (lambda rows: rows.__setitem__(2, "abc"), "T: malformed row 'abc'"),
        (lambda rows: rows.__setitem__(2, {"a": 1, "b": 2, "c": 3}),
         "T: malformed row {'a': 1, 'b': 2, 'c': 3}"),
    ], ids=["hole", "duplicate", "not-in-U", "non-member", "precedence", "x-absent", "x-int",
            "x-list", "y-null", "y-list", "both-bad", "three-characters", "three-keys"])
    def test_objective_table_errors(self, capsys, tmp_path, edit, message):
        doc = json.loads(Path(FIXTURES["i2"]).read_text())
        edit(doc["T"])
        target = tmp_path / "broken.json"
        target.write_text(json.dumps(doc))
        expected = (1, "", f"error: ValidationError: {message}\n")
        assert run(capsys, "validate", str(target)) == expected

    # each refusal of a malformed document, with its exact line
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "ParseError: instance document must be a JSON object"),
        (lambda doc: doc.update(mode="dual"),
         "ValidationError: mode: must be 'roep' or 'game', got 'dual'"),
        (lambda doc: doc.update(posets=[]),
         "ValidationError: posets: must be an object of named posets"),
        (lambda doc: doc["posets"].update(X=[]),
         "ValidationError: posets.X: poset must be an object"),
        (lambda doc: doc.update(C=["c0"]), "ValidationError: C: must be an object"),
        (lambda doc: doc["C"]["members"].append("nope"),
         "ValidationError: C: UnknownElement: 'nope' is not an element of the parent poset"),
        (lambda doc: doc["C"].update(members=[]),
         "ValidationError: instance: ValidationError: C must be nonempty"),
        (lambda doc: doc["D"].update(members=[]),
         "ValidationError: instance: ValidationError: D must be nonempty"),
        (lambda doc: doc.update(F=[]),
         "ValidationError: F: must be an object of element -> list"),
        (lambda doc: doc.update(T={}),
         "ValidationError: T: must be a list of [x, y, value] rows"),
        (lambda doc: doc["T"].__setitem__(0, ["c0", "d0"]),
         "ValidationError: T: malformed row ['c0', 'd0']"),
        (lambda doc: doc.update(seed=["c0"]), "ValidationError: seed: must be a [x, y] pair"),
        (lambda doc: doc.pop("posets"),
         "ValidationError: document: missing required field 'posets'"),
        # the first undeclared endpoint is named, a before b
        (lambda doc: doc["posets"]["X"]["edges"].append(["q", "r"]),
         "ValidationError: posets.X: UnknownElement: edge endpoint 'q' is not a declared element"),
        (lambda doc: doc["posets"]["X"]["edges"].append(["c0", "q"]),
         "ValidationError: posets.X: UnknownElement: edge endpoint 'q' is not a declared element"),
        (lambda doc: doc["posets"]["X"]["edges"].append(["c0", 1]),
         "ValidationError: posets.X: edges must be a list of [a, b] pairs of strings"),
        (lambda doc: doc["posets"]["X"]["edges"].append(["c0", "c0", "c0"]),
         "ValidationError: posets.X: edges must be a list of [a, b] pairs of strings"),
    ], ids=["list", "mode", "posets-list", "poset-list", "subset-list", "unknown-member",
            "empty-subset", "empty-D", "constraint-list", "table-object", "short-row", "short-seed",
            "no-posets", "edge-unknown-a", "edge-unknown-b", "edge-int", "edge-triple"])
    def test_document_errors(self, capsys, tmp_path, edit, message):
        doc = json.loads(Path(FIXTURES["i2"]).read_text())
        edited = edit(doc)
        target = tmp_path / "broken.json"
        target.write_text(json.dumps(edited if isinstance(edited, list) else doc))
        assert run(capsys, "validate", str(target)) == (1, "", f"error: {message}\n")

    # game2x2's payoff rows run over C x D in order: ("0,0", "0,0", "0"),
    # ("0,0", "0,1", "-1"), ("0,0", "1,0", "-1"), ("0,0", "1,1", "-2"), ...
    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows.pop(1), "payoff table has no entry for ('0,0', '0,1')"),
        (lambda rows: rows.append(list(rows[2])), "payoff: duplicate row for ('0,0', '1,0')"),
        (lambda rows: rows[2].__setitem__(1, "9,9"),
         "payoff: row references '9,9', not a member of D"),
        (lambda rows: rows[1].__setitem__(2, True), "payoff: bad rational True"),
        (lambda rows: rows[1].__setitem__(2, "1/0"), "payoff: bad rational '1/0'"),
        # every row is checked before any value is: the duplicate is reported
        (lambda rows: (rows[0].__setitem__(2, True), rows.append(list(rows[3]))),
         "payoff: duplicate row for ('0,0', '1,1')"),
        # values are checked in C x D order, whatever the kind of error
        (lambda rows: (rows[5].__setitem__(2, "x/y"), rows[9].__setitem__(2, 0.5)),
         "payoff: bad rational 'x/y'"),
    ], ids=["hole", "duplicate", "non-member", "true", "bad-rational", "precedence",
            "value-order"])
    def test_payoff_table_errors(self, capsys, tmp_path, edit, message):
        doc = json.loads(Path(FIXTURES["game2x2"]).read_text())
        edit(doc["payoff"])
        target = tmp_path / "broken.json"
        target.write_text(json.dumps(doc))
        expected = (1, "", f"error: ValidationError: {message}\n")
        assert run(capsys, "validate", str(target)) == expected


def _leaves(node, path=()):
    """Key paths to every scalar and every empty container of a JSON document."""
    if isinstance(node, dict) and node:
        children = node.items()
    elif isinstance(node, list) and node:
        children = enumerate(node)
    else:
        yield path
        return
    for key, child in children:
        yield from _leaves(child, path + (key,))


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# JSON values of every other type, to put where a document has a leaf
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1e3, 1e3), st.just("1e5000"),
    st.lists(st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.none(), st.integers(-3, 3)),
                    max_size=2),
)


def _game2x2_text(first_payoff: str) -> str:
    doc = json.loads(Path(FIXTURES["game2x2"]).read_text())
    doc["payoff"][0][2] = "PAYOFF"
    return json.dumps(doc).replace('"PAYOFF"', first_payoff)


# the documents the fuzz test mutates: the fixtures, one gen-written roep
# document per poset kind, and one small gen-written poset document per kind
FUZZED = {name: json.loads(Path(FIXTURES[name]).read_text())
          for name in ("i1", "i2", "i3", "game2x2", "game3x3")}
FUZZED.update({kind: serialize_instance(gen_instance(GenSpec(
    kind="random_instance", sizes=(4, 4, 6), rng_seed=3, poset_kind=kind)))
    for kind in POSET_KINDS})
FUZZED.update({f"poset-{kind}": serialize_poset_doc(gen_poset(GenSpec(
    kind=kind, sizes=(2, 2) if kind == "grid" else (3,), rng_seed=3)))
    for kind in POSET_KINDS})


class TestMalformedDocuments:
    """Malformed input is a usage error (exit 1), never an internal one (exit 4)."""

    @pytest.mark.parametrize("path", [
        ("T", 0, 0), ("T", 0, 2), ("C", "members", 0), ("seed", 0), ("F", "c0", 0),
        ("posets", "X", "edges", 0, 0), ("C", "poset"),
    ], ids=["T-row-x", "T-value", "C-member", "seed-x", "F-value", "edge-end", "C-poset"])
    def test_list_where_an_id_belongs(self, capsys, tmp_path, path):
        doc = json.loads(Path(FIXTURES["i2"]).read_text())
        leaf = doc
        for key in path:
            leaf = leaf[key]
        _put(doc, path, [leaf])
        target = tmp_path / "listed.json"
        target.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(target))
        assert code == 1
        assert "ValidationError" in err

    @pytest.mark.parametrize("path, message", [
        (("payoff", 0, 2), "payoff: bad rational True"),
        (("posets", "X"), "posets.X: grid must be a list of integers"),
    ], ids=["payoff-value", "grid-extent"])
    def test_boolean_where_a_number_belongs(self, capsys, tmp_path, path, message):
        # JSON true is a Python bool, which is an int: it once read as 1
        doc = json.loads(Path(FIXTURES["game2x2"]).read_text())
        _put(doc, path, True if path[0] == "payoff" else {"grid": [True, 2]})
        target = tmp_path / "boolean.json"
        target.write_text(json.dumps(doc))
        for command in ("validate", "check"):
            code, _, err = run(capsys, command, str(target))
            assert code == 1
            assert f"ValidationError: {message}" in err

    def test_payoff_without_a_string_form(self, capsys, tmp_path):
        # 10**5000 has more digits than Python converts to a string by default
        target = tmp_path / "huge.json"
        target.write_text(_game2x2_text(first_payoff='"1e5000"'))
        for command in ("validate", "check"):
            code, _, err = run(capsys, command, str(target))
            assert code == 1
            assert "ValidationError: payoff: bad rational '1e5000'" in err

    def test_payoff_exponent_refused_before_its_power_of_ten(self, capsys, tmp_path):
        # Fraction("1e10000000") alone takes seconds; a zero mantissa is 0 at any
        # exponent; a long digit string must not be scanned once per digit
        target = tmp_path / "exponent.json"
        for payoff, expected in (("1e10000000", 1), ("0e10000000", 0), ("1" * 20000, 1)):
            target.write_text(_game2x2_text(first_payoff=f'"{payoff}"'))
            started = time.perf_counter()
            code, _, err = run(capsys, "validate", str(target))
            assert time.perf_counter() - started < 1.0, payoff[:12]
            message = f"error: ValidationError: payoff: bad rational {payoff!r}\n"
            assert (code, err) == (expected, message if expected else "")

    @pytest.mark.parametrize("text", [
        _game2x2_text(first_payoff="1" * 5000),  # json.dumps cannot write it
        "[" * 100_000 + "]" * 100_000,
    ], ids=["5000-digit-payoff", "deep-nesting"])
    def test_json_python_cannot_read(self, capsys, tmp_path, text):
        target = tmp_path / "unreadable.json"
        target.write_text(text)
        for command in ("validate", "check"):
            code, _, err = run(capsys, command, str(target))
            assert code == 1
            assert err.startswith(f"error: ParseError: cannot parse {target}: ")

    def test_byte_order_mark_refused_in_json_words(self, capsys, tmp_path):
        target = tmp_path / "bom.json"
        target.write_text("\ufeff" + Path(FIXTURES["i2"]).read_text(), encoding="utf-8")
        expected = (f"error: ParseError: {target} is not valid JSON: Unexpected UTF-8 BOM "
                    "(decode using utf-8-sig): line 1 column 1 (char 0)\n")
        for command in ("validate", "check"):
            assert run(capsys, command, str(target)) == (1, "", expected)

    @pytest.mark.parametrize("name, opening, repeat, key", [
        ("i2", '"G": {', '"d1": ["c0"], ', "d1"),
        ("i2", "{", '"T": [], ', "T"),
        ("i2", '"posets": {', '"X": {"elements": []}, ', "X"),
        ("i2", '"posets": {"X": {', '"elements": [], ', "elements"),
        ("game2x2", "{", '"seed": ["0,0", "0,0"], ', "seed"),
        ("poset", "{", '"elements": ["a"], ', "elements"),
    ], ids=["G", "top-level", "posets", "poset-field", "seed", "poset-document"])
    def test_repeated_json_key(self, capsys, tmp_path, name, opening, repeat, key):
        # json.load keeps the later entry, so the earlier one vanished unseen
        if name == "poset":
            doc = serialize_poset_doc(gen_poset(GenSpec(kind="chain", sizes=(3,), rng_seed=1)))
        else:
            doc = json.loads(Path(FIXTURES[name]).read_text())
        text = json.dumps(doc)
        assert opening in text
        target = tmp_path / "repeated.json"
        target.write_text(text.replace(opening, opening + repeat, 1))
        for command in ("validate", "check")[:1 if name == "poset" else 2]:
            expected = f"error: ParseError: cannot parse {target}: repeated key {key!r}\n"
            assert run(capsys, command, str(target)) == (1, "", expected)
        target.write_text(text)
        assert run(capsys, "validate", str(target))[0] == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fuzzed_leaves_never_exit_4(self, data):
        name = data.draw(st.sampled_from(sorted(FUZZED)))
        doc = copy.deepcopy(FUZZED[name])
        paths = data.draw(st.lists(st.sampled_from(list(_leaves(doc))), min_size=1,
                                   max_size=3, unique=True))
        for path in paths:
            _put(doc, path, data.draw(JUNK))
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "fuzzed.json"
            target.write_text(json.dumps(doc))
            for command in ("validate", "check", "enumerate", "solve --force", "game",
                            "game --force"):
                argv = command.split()
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    code = main([argv[0], str(target), *argv[1:]])
                assert code != 4, (name, command, paths, err.getvalue())
