"""Spans around the public calls each `ordeq` command makes, for the traced run.

For one op the traced run first times `cli.main` as the span `cli.<cmd>`.
It then replays the command on a fresh parse as the public calls the
command makes, each under a child span of `cli.<cmd>`, so the spans come
from the benchmark's own files and the package stays untouched.  Spans are
kept in memory and written as JSON when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

# replay spans plus cli.self; each gives the metrics "<layer>_s" and "<layer>_calls"
LAYERS = (
    "fileio.parse", "fileio.digest", "fileio.report", "fileio.dump", "poset.chains",
    "equilibrium.tables", "maps.monotonicity", "equilibrium.check", "equilibrium.oracle",
    "equilibrium.climb", "games.build", "games.verify", "generate.gen", "cli.self",
)
COUNTS = ("poset.chains", "equilibrium.pairs", "equilibrium.climb_steps", "generate.exhausted")


class Tracer:
    """In-memory spans (name, start, end, parent, op) plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)

    def add(self, name: str, start: float, end: float, op: int, parent=None) -> int:
        self.spans.append((name, start, end, parent, op))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op: int, parent=None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), op, parent)

    def metrics(self) -> dict:
        """Per-run totals: self time and call count per layer, plus the counters.

        A replay span has no children, so its self time is its duration.
        `cli.self` is each `cli.<cmd>` span minus the replay spans of its op;
        a `game` op's verify span repeats the climb, so that op subtracts the
        climb span once, not twice.
        """
        total = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        replayed = {}
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            if parent is None:
                continue
            repeated = name == "equilibrium.climb" and self.spans[parent][0] == "cli.game"
            if not repeated:
                replayed[parent] = replayed.get(parent, 0.0) + end - start
            total[name] += end - start
            calls[name] += 1
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            if parent is None:
                total["cli.self"] += end - start - replayed.get(sid, 0.0)
                calls["cli.self"] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}_s"] = (total[layer], "s")
            out[f"{layer}_calls"] = (calls[layer], "count")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        return out

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps([dict(zip(fields, s)) for s in self.spans]) + "\n",
                        encoding="utf-8")


def replay(ordeq, tr: Tracer, op: int, parent: int, command: str, path: str,
           gen_spec=None) -> None:
    """Re-run one command on a fresh parse as public calls, one span each."""
    from ordeq.errors import FilterExhausted, HypothesisFailed, NoSolution
    from ordeq.fileio import build_report

    span = lambda name: tr.span(name, op, parent)
    if command == "gen":
        seed, shape, bias = gen_spec
        spec = ordeq.GenSpec(kind="random_instance", sizes=(6, 6, 12), rng_seed=seed,
                             monotone_bias=bias, filter="require_hypotheses",
                             poset_kind=shape)
        with span("generate.gen"):
            try:
                inst = ordeq.gen_instance(spec)
            except FilterExhausted:
                inst = None
        if inst is None:
            tr.counts["generate.exhausted"] += 1
            return
        with span("fileio.dump"):
            ordeq.dump_instance(inst, path)
        return

    with span("fileio.parse"):
        obj = ordeq.parse_instance(path)
    game = isinstance(obj, ordeq.ZeroSumGame)
    if game:
        with span("games.build"):
            inst = obj.instance
    else:
        inst = obj
    result = {}
    if command in ("check", "solve", "game"):
        for poset in (inst.C.parent, inst.D.parent):
            if hasattr(type(poset), "chains"):
                with span("poset.chains"):
                    tr.counts["poset.chains"] += len(poset.chains)
        with span("equilibrium.tables"):
            inst.phi_map, inst.psi_map
        with span("maps.monotonicity"):
            inst.phi_monotonicity, inst.psi_monotonicity
        with span("equilibrium.check"):
            result["hypothesis_report"] = inst.check_hypotheses(None)
    if command in ("solve", "enumerate", "game"):
        with span("equilibrium.oracle"):
            solutions = inst.solution_set
        tr.counts["equilibrium.pairs"] += len(inst.C) * len(inst.D)
        if command == "enumerate":
            result = {"solutions": sorted(solutions, key=inst.pair_index)}
    if command in ("solve", "game"):
        try:
            with span("equilibrium.climb"):
                rep = inst.solve_maximal(None, force=command == "solve")
        except (HypothesisFailed, NoSolution):
            return  # the command stops here too, before it reports
        tr.counts["equilibrium.climb_steps"] += len(rep.climb_trace) - 1
        result = {"solution_report": rep}
        if game:
            with span("games.verify"):
                verified = ordeq.solve_game(obj, None)
            result["game_value"] = verified.value
    with span("fileio.digest"):
        ordeq.instance_digest(obj)
    with span("fileio.report"):
        build_report(command, obj, 0, 0.0, **result)
