"""Finite posets and constrained ordered equilibrium problems.

The package is organized around five layers: validated finite posets
(:mod:`ordeq.poset`), set-valued maps with their monotonicity taxonomy
(:mod:`ordeq.maps`), the equilibrium problem itself with its brute-force
oracle and monotone-climb solver (:mod:`ordeq.equilibrium`), zero-sum games
on component-wise ordered grids (:mod:`ordeq.games`), and deterministic
instance generators (:mod:`ordeq.generate`).  :mod:`ordeq.cli` exposes the
batch front end; :mod:`ordeq.fileio` the JSON file formats.
"""

__version__ = "0.1.0"

from . import errors
from .poset import Poset, Subset, grid_poset, load_poset, product
from .maps import (
    MonotonicityReport,
    SetValuedMap,
    constant_map,
    is_constant,
    monotonicity_report,
)
from .equilibrium import (
    HypothesisReport,
    ObjectiveMap,
    ProblemInstance,
    SolutionCertificate,
    SolutionReport,
)
from .games import GameReport, ZeroSumGame, solve_game
from .generate import GenSpec, gen_instance, gen_poset
from .fileio import (
    dump_instance,
    instance_digest,
    parse_instance,
    replay_report,
    serialize_instance,
)

__all__ = [
    "__version__",
    "errors",
    "Poset",
    "Subset",
    "load_poset",
    "product",
    "grid_poset",
    "SetValuedMap",
    "MonotonicityReport",
    "constant_map",
    "monotonicity_report",
    "is_constant",
    "ObjectiveMap",
    "ProblemInstance",
    "SolutionReport",
    "SolutionCertificate",
    "HypothesisReport",
    "ZeroSumGame",
    "GameReport",
    "solve_game",
    "GenSpec",
    "gen_poset",
    "gen_instance",
    "parse_instance",
    "serialize_instance",
    "dump_instance",
    "instance_digest",
    "replay_report",
]
