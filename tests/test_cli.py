"""The batch front end: commands, output, and the exit-code contract."""

import json

from ordeq import ProblemInstance, parse_instance, replay_report
from ordeq.cli import main
from ordeq.errors import InvariantBreach

from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        doc = json.loads(open(FIXTURES["i2"]).read())
        doc["F"]["c0"] = []
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "ValidationError" in err


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

    def test_seed_flag_overrides(self, capsys):
        code, out, _ = run(capsys, "check", FIXTURES["i2"], "--seed", "c1:d1")
        assert code == 0
        assert "seed: (c1, d1)" in out

    def test_missing_seed_is_usage_error(self, capsys, tmp_path):
        doc = json.loads(open(FIXTURES["i2"]).read())
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

    def test_minimal_flag(self, capsys):
        code, out, _ = run(capsys, "solve", FIXTURES["i2"], "--seed", "c1:d1", "--minimal")
        assert code == 0
        assert "solution (minimal): (c1, d1)" in out

    def test_report_file_replays(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "solve", FIXTURES["i2"], "--report", str(report_path))
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["schema"] == "roep-report/1"
        assert doc["solution"] == ["c1", "d1"]
        assert replay_report(doc, parse_instance(FIXTURES["i2"]))

    def test_bad_seed_flag(self, capsys):
        code, _, err = run(capsys, "solve", FIXTURES["i2"], "--seed", "c0")
        assert code == 1


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


class TestExitCodeContract:
    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_invariant_breach_is_exit_4(self, capsys, monkeypatch):
        def breach(self, trace, descending=False):
            raise InvariantBreach("planted")

        monkeypatch.setattr(ProblemInstance, "_check_trace", breach)
        code, _, err = run(capsys, "solve", FIXTURES["i2"])
        assert code == 4
        assert "InvariantBreach: planted" in err
