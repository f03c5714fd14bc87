"""Shared instance builders for the test suite."""

import gc
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ordeq import (
    ObjectiveMap,
    ProblemInstance,
    SetValuedMap,
    constant_map,
    load_poset,
)

_FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURES = {
    "i1": str(_FIXTURE_DIR / "i1_unconstrained.json"),
    "i2": str(_FIXTURE_DIR / "i2_constrained.json"),
    "i3": str(_FIXTURE_DIR / "i3_matching_pennies.json"),
    "game2x2": str(_FIXTURE_DIR / "game_additive_2x2.json"),
    "game3x3": str(_FIXTURE_DIR / "game_constrained_3x3.json"),
    "game3x3_expected": str(_FIXTURE_DIR / "game_constrained_3x3.expected.json"),
}


def _bad_t_text() -> str:
    doc = json.loads(Path(FIXTURES["i2"]).read_text(encoding="utf-8"))
    doc["T"][0][2] = "zz"  # no id of U
    return json.dumps(doc)


REFUSED_FILES = {  # name: the text of an instance file that the parse refuses; None: no file
    "unreadable": None,
    "invalid-json": "{not json",
    "repeated-key": '{"schema": "roep-instance/1", "schema": "roep-instance/1"}',
    "deep-nesting": "[" * 100_000 + "]" * 100_000,  # RecursionError in json
    "validation-error": _bad_t_text(),
}


def refused_file(tmp_path, name) -> Path:
    """The path of REFUSED_FILES[name], written under tmp_path (or absent)."""
    path = tmp_path / f"refused-{name}.json"
    if REFUSED_FILES[name] is not None:
        path.write_text(REFUSED_FILES[name], encoding="utf-8")
    return path


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on (or off) for the test, and restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def chain(prefix, n):
    names = [f"{prefix}{i}" for i in range(n)]
    return load_poset(names, list(zip(names, names[1:])))


def two_chains():
    return chain("c", 2), chain("d", 2)


def int_chain(lo, hi):
    """Utility chain whose element ids are the integers themselves."""
    values = list(range(lo, hi + 1))
    return load_poset(values, list(zip(values, values[1:])))


def instance_from_payoff(payoff, F_table=None, G_table=None, seed=None):
    """I-style instance over 2-chains with integer payoff table {(i, j): int}."""
    X, Y = two_chains()
    C, D = X.full_subset(), Y.full_subset()
    U = int_chain(min(payoff.values()), max(payoff.values()))
    T = ObjectiveMap(
        U, {(f"c{i}", f"d{j}"): payoff[(i, j)] for i in range(2) for j in range(2)}
    )
    F = SetValuedMap(C, D, F_table) if F_table else constant_map(C, D)
    G = SetValuedMap(D, C, G_table) if G_table else constant_map(D, C)
    return ProblemInstance(C, D, T, F, G, seed=seed)


@pytest.fixture
def i1():
    """T(ci, dj) = i - j with constant constraints."""
    return instance_from_payoff(
        {(0, 0): 0, (0, 1): -1, (1, 0): 1, (1, 1): 0}, seed=("c0", "d0")
    )


@pytest.fixture
def i2():
    """Same payoff, F(c0)={d0}, F(c1)=D, G(d0)=C, G(d1)={c1}."""
    return instance_from_payoff(
        {(0, 0): 0, (0, 1): -1, (1, 0): 1, (1, 1): 0},
        F_table={"c0": {"d0"}, "c1": {"d0", "d1"}},
        G_table={"d0": {"c0", "c1"}, "d1": {"c1"}},
        seed=("c0", "d0"),
    )


@pytest.fixture
def i3():
    """Matching pennies: the negative control with an empty solution set."""
    return instance_from_payoff(
        {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1}, seed=("c0", "d0")
    )


@pytest.fixture
def constant_objective():
    """Every pair is a saddle of a constant map."""
    return instance_from_payoff({(i, j): 0 for i in range(2) for j in range(2)})


@pytest.fixture(scope="session")
def bench_files(tmp_path_factory):
    """bench_files(name): the seed-1 instance files of a benchmark workload, written once."""
    path = _FIXTURE_DIR.parent / "bench" / "workloads.py"
    written = {}

    def files(name):
        if name not in written:
            spec = importlib.util.spec_from_file_location("_bench_workloads", path)
            workloads = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = workloads  # dataclasses look their module up
            try:
                spec.loader.exec_module(workloads)
                written[name] = workloads.write_instances(name, 1, tmp_path_factory.mktemp(name))
            finally:
                del sys.modules[spec.name]
        return written[name]

    return files
