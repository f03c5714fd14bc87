"""The batch front end: commands, output, and the exit-code contract."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


def renamed_i2(tmp_path, names):
    """The i2 fixture with its element ids renamed, written to a file."""
    text = open(FIXTURES["i2"]).read()
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
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1e3, 1e3),
    st.lists(st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.none(), st.integers(-3, 3)),
                    max_size=2),
)


class TestMalformedDocuments:
    """Malformed input is a usage error (exit 1), never an internal one (exit 4)."""

    @pytest.mark.parametrize("path", [
        ("T", 0, 0), ("T", 0, 2), ("C", "members", 0), ("seed", 0), ("F", "c0", 0),
        ("posets", "X", "edges", 0, 0), ("C", "poset"),
    ], ids=["T-row-x", "T-value", "C-member", "seed-x", "F-value", "edge-end", "C-poset"])
    def test_list_where_an_id_belongs(self, capsys, tmp_path, path):
        doc = json.loads(open(FIXTURES["i2"]).read())
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
        (("payoff", 0, 2), "payoff: value True must be an integer or rational string"),
        (("posets", "X"), "posets.X: grid must be a list of integers"),
    ], ids=["payoff-value", "grid-extent"])
    def test_boolean_where_a_number_belongs(self, capsys, tmp_path, path, message):
        # JSON true is a Python bool, which is an int: it once read as 1
        doc = json.loads(open(FIXTURES["game2x2"]).read())
        _put(doc, path, True if path[0] == "payoff" else {"grid": [True, 2]})
        target = tmp_path / "boolean.json"
        target.write_text(json.dumps(doc))
        for command in ("validate", "check"):
            code, _, err = run(capsys, command, str(target))
            assert code == 1
            assert f"ValidationError: {message}" in err

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fuzzed_leaves_never_exit_4(self, data):
        name = data.draw(st.sampled_from(["i1", "i2", "i3", "game2x2", "game3x3"]))
        doc = json.loads(open(FIXTURES[name]).read())
        paths = data.draw(st.lists(st.sampled_from(list(_leaves(doc))), min_size=1,
                                   max_size=3, unique=True))
        for path in paths:
            _put(doc, path, data.draw(JUNK))
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "fuzzed.json"
            target.write_text(json.dumps(doc))
            for command in ("validate", "check"):
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    code = main([command, str(target)])
                assert code != 4, (command, paths, err.getvalue())
