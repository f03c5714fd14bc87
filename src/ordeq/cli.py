"""Batch front end: validate, check, solve, enumerate, game, gen.

Exit codes are a stable contract: 0 success, 1 usage or parse/validation
failure, 2 hypothesis failure, 3 no solution, 4 internal invariant breach
(always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .equilibrium import ProblemInstance
from .errors import (
    HypothesisFailed,
    InvariantBreach,
    NoSolution,
    OrdeqError,
    ParseError,
    ValidationError,
)
from .fileio import (
    POSET_SCHEMA,
    build_report,
    dump_instance,
    instance_digest,
    parse_instance,
    parse_instance_dict,
    parse_poset_doc,
    serialize_poset_doc,
)
from .games import ZeroSumGame, solve_game
from .generate import KINDS, POSET_KINDS, GenSpec, gen_instance, gen_poset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESES = 2
EXIT_NO_SOLUTION = 3
EXIT_INTERNAL = 4


def _parse_seed_flag(text: str):
    if ":" in text:
        parts = text.split(":")
    else:
        parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(
            f"--seed must be two elements separated by ':' (or a single comma), got {text!r}"
        )
    return (parts[0], parts[1])


def _pair_str(pair) -> str:
    return f"({pair[0]}, {pair[1]})"


def _core_instance(obj) -> ProblemInstance:
    return obj.instance if isinstance(obj, ZeroSumGame) else obj


def _write_report(path, doc) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _describe(obj) -> str:
    inst = _core_instance(obj)
    mode = "game" if isinstance(obj, ZeroSumGame) else "roep"
    return (
        f"instance: mode={mode} |C|={len(inst.C)} |D|={len(inst.D)} "
        f"|U|={len(inst.U)} digest={instance_digest(obj)[:12]}"
    )


def cmd_validate(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {args.file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.file} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and doc.get("schema") == POSET_SCHEMA:
        poset = parse_poset_doc(doc)
        print(f"poset: {len(poset)} elements, {len(poset.hasse_edges())} cover edges")
    else:
        obj = parse_instance_dict(doc)
        print(_describe(obj))
    print("valid")
    return EXIT_OK


def cmd_check(args) -> int:
    started = time.perf_counter()
    obj = parse_instance(args.file)
    inst = _core_instance(obj)
    seed = _parse_seed_flag(args.seed) if args.seed else None
    hyp = inst.check_hypotheses(seed)
    print(_describe(obj))
    print(f"seed: {_pair_str(hyp.seed)}")
    print(f"phi increasing upward: {hyp.phi_monotonicity.increasing_upward}")
    print(f"psi increasing upward: {hyp.psi_monotonicity.increasing_upward}")
    print(f"values universally inductive: {hyp.values_universally_inductive}")
    witness = _pair_str(hyp.seed_witness) if hyp.seed_witness else "none"
    print(f"seed condition: {hyp.seed_condition} witness={witness}")
    code = EXIT_OK if hyp.passes else EXIT_HYPOTHESES
    print("hypotheses: " + ("pass" if hyp.passes else "FAIL: " + "; ".join(hyp.failures())))
    _write_report(args.report, build_report(
        "check", obj, code, time.perf_counter() - started, hypothesis_report=hyp))
    return code


def cmd_solve(args) -> int:
    started = time.perf_counter()
    obj = parse_instance(args.file)
    inst = _core_instance(obj)
    seed = _parse_seed_flag(args.seed) if args.seed else None
    solver = inst.solve_minimal if args.minimal else inst.solve_maximal
    rep = solver(seed, force=args.force)
    print(_describe(obj))
    print("climb: " + " -> ".join(_pair_str(p) for p in rep.climb_trace))
    print(f"solution ({rep.direction}): {_pair_str(rep.solution)}")
    if not rep.existence_guaranteed:
        print("note: hypotheses failed; existence was not guaranteed (forced run)")
    _write_report(args.report, build_report(
        "solve", obj, EXIT_OK, time.perf_counter() - started, solution_report=rep))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    started = time.perf_counter()
    obj = parse_instance(args.file)
    inst = _core_instance(obj)
    solutions = sorted(inst.solution_set, key=inst.pair_index)
    print(_describe(obj))
    print(f"solutions: {len(solutions)}")
    for s in solutions:
        print("  " + _pair_str(s))
    code = EXIT_OK if solutions else EXIT_NO_SOLUTION
    _write_report(args.report, build_report(
        "enumerate", obj, code, time.perf_counter() - started, solutions=solutions))
    return code


def cmd_game(args) -> int:
    started = time.perf_counter()
    obj = parse_instance(args.file)
    if not isinstance(obj, ZeroSumGame):
        raise ValidationError("the 'game' command needs a mode=game instance file")
    seed = _parse_seed_flag(args.seed) if args.seed else None
    result = solve_game(obj, seed, force=args.force)
    print(_describe(obj))
    print("climb: " + " -> ".join(_pair_str(p) for p in result.report.climb_trace))
    print(f"equilibrium: {_pair_str(result.equilibrium)}")
    print(f"value: {result.value}")
    print(f"saddle inequalities verified: {result.saddle_verified}")
    _write_report(args.report, build_report(
        "game", obj, EXIT_OK, time.perf_counter() - started,
        solution_report=result.report, game_value=result.value))
    return EXIT_OK


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
        doc = serialize_poset_doc(gen_poset(spec))
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    print(f"wrote {args.output}")
    return EXIT_OK


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
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="monotone-climb solve from a seed")
    with_common(p)
    p.add_argument("--minimal", action="store_true", help="descending solve (dual order)")
    p.add_argument("--force", action="store_true", help="solve even if hypotheses fail")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("enumerate", help="brute-force the full solution set")
    with_common(p, seed=False)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("game", help="solve a zero-sum game instance")
    with_common(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("gen", help="write a generated instance or poset file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--seed", type=int, required=True, help="rng seed (64-bit integer)")
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
    except (ParseError, ValidationError, OrdeqError) as exc:
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
