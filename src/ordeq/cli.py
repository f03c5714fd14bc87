"""Batch front end: validate, check, solve, enumerate, game, gen.

Exit codes are a stable contract: 0 success, 1 usage or parse/validation
failure, 2 hypothesis failure, 3 no solution, 4 internal invariant breach
(always a bug).  A game file parses into a ZeroSumGame, which is itself a
ProblemInstance, so every command runs on what the parse returns.  check,
solve, enumerate and game take one path (_run_op): parse, run the op, print
the instance line and then the op's lines, write the --report file.  An op
that raises prints nothing to stdout and writes no report.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import __version__
from .errors import (
    HypothesisFailed,
    InvariantBreach,
    NoSolution,
    OrdeqError,
    ValidationError,
)
from .fileio import (
    POSET_SCHEMA,
    _collector_paused,
    build_report,
    dump_instance,
    instance_digest,
    parse_instance,
    parse_instance_dict,
    parse_poset_doc,
    read_json,
    serialize_poset_doc,
    write_json,
)
from .games import ZeroSumGame, solve_game
from .generate import KINDS, POSET_KINDS, GenSpec, gen_instance, gen_poset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESES = 2
EXIT_NO_SOLUTION = 3
EXIT_INTERNAL = 4


def _seed(args, obj):
    """The --seed pair, or None without --seed (the file's seed then holds); "" names none."""
    if (text := args.seed) is None:
        return None
    # ids may contain the separator: keep the one split into members of C and D
    sep = ":" if ":" in text else ","
    splits = [(text[:k], text[k + 1:]) for k, ch in enumerate(text) if ch == sep]
    fits = [s for s in splits if s[0] in obj.C and s[1] in obj.D]
    if len(fits) != 1:
        what = "is ambiguous" if fits else "names no pair of C and D members"
        tried = "; ".join(f"{x!r} and {y!r}" for x, y in fits or splits) or "none"
        raise ValidationError(f"--seed {text!r} {what}; candidate splits: {tried}")
    return fits[0]


def _pair_str(pair) -> str:
    return f"({pair[0]}, {pair[1]})"


def _describe(obj) -> str:
    """Print the instance line; return the instance digest, computed once per op."""
    mode = "game" if isinstance(obj, ZeroSumGame) else "roep"
    digest = instance_digest(obj)
    print(
        f"instance: mode={mode} |C|={len(obj.C)} |D|={len(obj.D)} "
        f"|U|={len(obj.U)} digest={digest[:12]}"
    )
    return digest


def cmd_validate(args) -> int:
    with _collector_paused():  # the document tree lives until the return
        doc = read_json(args.file)
        if isinstance(doc, dict) and doc.get("schema") == POSET_SCHEMA:
            poset = parse_poset_doc(doc)
            print(f"poset: {len(poset)} elements, {len(poset.hasse_edges())} cover edges")
        else:
            _describe(parse_instance_dict(doc))
        print("valid")
        return EXIT_OK


def _check(obj, args):
    hyp = obj.check_hypotheses(_seed(args, obj))
    witness = _pair_str(hyp.seed_witness) if hyp.seed_witness else "none"
    lines = [
        f"seed: {_pair_str(hyp.seed)}",
        f"phi increasing upward: {hyp.phi_monotonicity.increasing_upward}",
        f"psi increasing upward: {hyp.psi_monotonicity.increasing_upward}",
        f"values universally inductive: {hyp.values_universally_inductive}",
        f"seed condition: {hyp.seed_condition} witness={witness}",
        "hypotheses: " + ("pass" if hyp.passes else "FAIL: " + "; ".join(hyp.failures())),
    ]
    return EXIT_OK if hyp.passes else EXIT_HYPOTHESES, lines, {"hypothesis_report": hyp}


def _solve(obj, args):
    solver = obj.solve_minimal if args.minimal else obj.solve_maximal
    rep = solver(_seed(args, obj), force=args.force)
    lines = ["climb: " + " -> ".join(map(_pair_str, rep.climb_trace)),
             f"solution ({rep.direction}): {_pair_str(rep.solution)}"]
    if not rep.existence_guaranteed:
        lines.append("note: hypotheses failed; existence was not guaranteed (forced run)")
    return EXIT_OK, lines, {"solution_report": rep}


def _enumerate(obj, args):
    solutions = obj._pairs(obj._solution_mask)  # in pair_index order
    lines = [f"solutions: {len(solutions)}", *("  " + _pair_str(s) for s in solutions)]
    return EXIT_OK if solutions else EXIT_NO_SOLUTION, lines, {"solutions": solutions}


def _game(obj, args):
    if not isinstance(obj, ZeroSumGame):
        raise ValidationError("the 'game' command needs a mode=game instance file")
    result = solve_game(obj, _seed(args, obj), force=args.force)
    lines = ["climb: " + " -> ".join(map(_pair_str, result.report.climb_trace)),
             f"equilibrium: {_pair_str(result.equilibrium)}",
             f"value: {result.value}",
             f"saddle inequalities verified: {result.saddle_verified}"]
    return EXIT_OK, lines, {"solution_report": result.report, "game_value": result.value}


def _run_op(args) -> int:
    """The op path; an op maps (instance, args) to (exit code, lines, build_report fields)."""
    started = time.perf_counter()
    obj = parse_instance(args.file)
    code, lines, fields = args.op(obj, args)
    digest = _describe(obj)
    print("\n".join(lines))
    if args.report:
        write_json(args.report, build_report, args.command, obj, code,
                   time.perf_counter() - started, digest=digest, **fields)
    return code


def cmd_gen(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise ValidationError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    spec = GenSpec(
        kind=args.kind,
        sizes=sizes,
        rng_seed=args.seed,
        density=args.density,
        monotone_bias=args.monotone_bias,
        filter=args.filter,
        poset_kind=args.poset_kind,
    )
    if args.kind == "random_instance":
        inst = gen_instance(spec)
        dump_instance(inst, args.output)
    else:
        write_json(args.output, serialize_poset_doc, gen_poset(spec))
    print(f"wrote {args.output}")
    return EXIT_OK


@functools.cache  # main is called once per op by in-process callers
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordeq",
        description="Solve and verify constrained ordered equilibrium problems on finite posets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_common(p, seed=True):
        p.add_argument("file", help="instance file (JSON)")
        if seed:
            p.add_argument("--seed", help="seed pair, 'x:y' (falls back to the file's seed)")
        p.add_argument("--report", help="write a machine-readable report here")

    p = sub.add_parser("validate", help="parse and validate an instance file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="evaluate solver hypotheses at a seed")
    with_common(p)
    p.set_defaults(func=_run_op, op=_check)

    p = sub.add_parser("solve", help="monotone-climb solve from a seed")
    with_common(p)
    p.add_argument("--minimal", action="store_true", help="descending solve (dual order)")
    p.add_argument("--force", action="store_true", help="solve even if hypotheses fail")
    p.set_defaults(func=_run_op, op=_solve)

    p = sub.add_parser("enumerate", help="brute-force the full solution set")
    with_common(p, seed=False)
    p.set_defaults(func=_run_op, op=_enumerate)

    p = sub.add_parser("game", help="solve a zero-sum game instance")
    with_common(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_run_op, op=_game)

    p = sub.add_parser("gen", help="write a generated instance or poset file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--seed", type=int, required=True,
                   help="rng seed (an integer; a seed and its negation write the same file)")
    p.add_argument("--sizes", required=True, help="comma-separated size parameters")
    p.add_argument("--density", type=float, default=0.35)
    p.add_argument("--monotone-bias", action="store_true", dest="monotone_bias")
    p.add_argument("--filter", choices=["none", "require_hypotheses"], default="none")
    p.add_argument("--poset-kind", choices=POSET_KINDS, default="random_poset",
                   dest="poset_kind")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except HypothesisFailed as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES
    except NoSolution as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except InvariantBreach as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OrdeqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - anything else is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
