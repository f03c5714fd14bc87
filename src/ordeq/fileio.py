"""Instance and report files: a strict, versioned JSON schema.

Instance documents name their posets, the subsets C and D, the objective
table (or a rational payoff table in game mode), the constraint tables, and
an optional seed pair.  Unknown fields are rejected.  Serialization
normalizes: element identifiers become strings, relations become Hasse
edges, rows are emitted in a canonical order; parse-then-serialize is
idempotent after the first normalization pass.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Union

from . import __version__
from .equilibrium import ObjectiveMap, ProblemInstance
from .errors import OrdeqError, ParseError, ValidationError
from .games import ZeroSumGame
from .maps import SetValuedMap
from .poset import Poset, Subset, grid_poset, load_poset

INSTANCE_SCHEMA = "roep-instance/1"
POSET_SCHEMA = "roep-poset/1"
REPORT_SCHEMA = "roep-report/1"


def element_id(e) -> str:
    """Canonical string form of an element identifier."""
    if isinstance(e, tuple):
        return ",".join(element_id(c) for c in e)
    return str(e)


def _reject_unknown(section: str, data: dict, allowed: set) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(f"{section}: unknown fields {sorted(unknown)}")


def _require(section: str, data: dict, key: str):
    if key not in data:
        raise ValidationError(f"{section}: missing required field {key!r}")
    return data[key]


def _parse_poset(section: str, data) -> Poset:
    if not isinstance(data, dict):
        raise ValidationError(f"{section}: poset must be an object")
    if "grid" in data:
        _reject_unknown(section, data, {"grid"})
        dims = data["grid"]
        if not isinstance(dims, list) or not all(isinstance(d, int) for d in dims):
            raise ValidationError(f"{section}: grid must be a list of integers")
        try:
            base = grid_poset(dims)
        except OrdeqError as exc:
            raise ValidationError(f"{section}: {type(exc).__name__}: {exc}") from exc
        names = [element_id(e) for e in base.elements]
        return Poset(names, base.leq_matrix)
    _reject_unknown(section, data, {"elements", "edges", "edge_kind"})
    elements = _require(section, data, "elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ValidationError(f"{section}: elements must be a list of strings")
    edges = data.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 for e in edges
    ):
        raise ValidationError(f"{section}: edges must be a list of [a, b] pairs")
    kind = data.get("edge_kind", "hasse")
    if kind not in ("hasse", "full"):
        raise ValidationError(f"{section}: edge_kind must be 'hasse' or 'full'")
    try:
        return load_poset(elements, [tuple(e) for e in edges], edge_kind=kind)
    except OrdeqError as exc:
        raise ValidationError(f"{section}: {type(exc).__name__}: {exc}") from exc


def _parse_subset(section: str, data, posets: dict) -> Subset:
    if not isinstance(data, dict):
        raise ValidationError(f"{section}: must be an object")
    _reject_unknown(section, data, {"poset", "members"})
    name = _require(section, data, "poset")
    if name not in posets:
        raise ValidationError(f"{section}: references unknown poset {name!r}")
    members = _require(section, data, "members")
    if not isinstance(members, list):
        raise ValidationError(f"{section}: members must be a list")
    try:
        return posets[name].subset(members)
    except OrdeqError as exc:
        raise ValidationError(f"{section}: {type(exc).__name__}: {exc}") from exc


def _parse_constraints(section: str, data, domain: Subset, codomain: Subset) -> SetValuedMap:
    if not isinstance(data, dict):
        raise ValidationError(f"{section}: must be an object of element -> list")
    table = {}
    for key, values in data.items():
        if not isinstance(values, list):
            raise ValidationError(f"{section}: entry {key!r} must be a list")
        table[key] = values
    try:
        return SetValuedMap(domain, codomain, table)
    except OrdeqError as exc:
        raise ValidationError(f"{section}: {type(exc).__name__}: {exc}") from exc


def _parse_rows(section: str, data, C: Subset, D: Subset) -> dict:
    if not isinstance(data, list):
        raise ValidationError(f"{section}: must be a list of [x, y, value] rows")
    table = {}
    for row in data:
        if not isinstance(row, list) or len(row) != 3:
            raise ValidationError(f"{section}: malformed row {row!r}")
        x, y, v = row
        if x not in C.members:
            raise ValidationError(f"{section}: row references {x!r}, not a member of C")
        if y not in D.members:
            raise ValidationError(f"{section}: row references {y!r}, not a member of D")
        if (x, y) in table:
            raise ValidationError(f"{section}: duplicate row for ({x!r}, {y!r})")
        table[(x, y)] = v
    return table


def _parse_seed(data, C: Subset, D: Subset):
    if data is None:
        return None
    if not isinstance(data, list) or len(data) != 2:
        raise ValidationError("seed: must be a [x, y] pair")
    x, y = data
    if x not in C.members:
        raise ValidationError(f"seed: {x!r} is not a member of C")
    if y not in D.members:
        raise ValidationError(f"seed: {y!r} is not a member of D")
    return (x, y)


def parse_instance_dict(doc: dict) -> Union[ProblemInstance, ZeroSumGame]:
    """Validate a parsed JSON document into an instance or a game."""
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    if doc.get("schema") != INSTANCE_SCHEMA:
        raise ParseError(
            f"unsupported schema {doc.get('schema')!r}; expected {INSTANCE_SCHEMA!r}"
        )
    mode = doc.get("mode", "roep")
    if mode not in ("roep", "game"):
        raise ValidationError(f"mode: must be 'roep' or 'game', got {mode!r}")
    allowed = {"schema", "mode", "posets", "C", "D", "F", "G", "seed"}
    allowed |= {"T"} if mode == "roep" else {"payoff"}
    _reject_unknown("document", doc, allowed)

    posets_doc = _require("document", doc, "posets")
    if not isinstance(posets_doc, dict):
        raise ValidationError("posets: must be an object of named posets")
    expected_posets = {"X", "Y", "U"} if mode == "roep" else {"X", "Y"}
    _reject_unknown("posets", posets_doc, expected_posets)
    posets = {
        name: _parse_poset(f"posets.{name}", _require("posets", posets_doc, name))
        for name in sorted(expected_posets)
    }

    C = _parse_subset("C", _require("document", doc, "C"), posets)
    D = _parse_subset("D", _require("document", doc, "D"), posets)
    if not C.members:
        raise ValidationError("C: must be nonempty")
    if not D.members:
        raise ValidationError("D: must be nonempty")

    F = G = None
    if "F" in doc:
        F = _parse_constraints("F", doc["F"], C, D)
    if "G" in doc:
        G = _parse_constraints("G", doc["G"], D, C)
    seed = _parse_seed(doc.get("seed"), C, D)

    if mode == "game":
        rows = _parse_rows("payoff", _require("document", doc, "payoff"), C, D)
        payoff = {}
        for pair, v in rows.items():
            if not isinstance(v, (str, int)):
                raise ValidationError(f"payoff: value {v!r} must be an integer or rational string")
            try:
                payoff[pair] = Fraction(v)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"payoff: bad rational {v!r}") from exc
        try:
            return ZeroSumGame(C, D, payoff, F=F, G=G, seed=seed)
        except OrdeqError as exc:
            raise ValidationError(f"game: {type(exc).__name__}: {exc}") from exc

    rows = _parse_rows("T", _require("document", doc, "T"), C, D)
    for pair, v in rows.items():
        if v not in posets["U"]:
            raise ValidationError(f"T: value {v!r} at {pair!r} is not an element of U")
    from .maps import constant_map  # local import avoids a cycle at module load

    try:
        return ProblemInstance(
            C,
            D,
            ObjectiveMap(posets["U"], rows),
            F if F is not None else constant_map(C, D),
            G if G is not None else constant_map(D, C),
            seed=seed,
        )
    except OrdeqError as exc:
        raise ValidationError(f"instance: {type(exc).__name__}: {exc}") from exc


def parse_instance(path) -> Union[ProblemInstance, ZeroSumGame]:
    """Read and validate an instance file; ParseError or ValidationError on failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return parse_instance_dict(doc)


def _poset_doc(p: Poset) -> dict:
    # distinct elements with one string form would not parse back
    ids = [element_id(e) for e in p.elements]
    seen = set()
    for i in ids:
        if i in seen:
            raise ValidationError(f"cannot serialize: two elements share the id {i!r}")
        seen.add(i)
    return {
        "elements": ids,
        "edges": sorted(
            [element_id(a), element_id(b)] for a, b in p.hasse_edges()
        ),
        "edge_kind": "hasse",
    }


def _subset_doc(name: str, s: Subset) -> dict:
    return {"poset": name, "members": [element_id(e) for e in s.ordered()]}


def _constraint_doc(m: SetValuedMap) -> dict:
    return {
        element_id(x): [element_id(v) for v in m.ordered_value(x)]
        for x in m.domain.ordered()
    }


def serialize_instance(obj: Union[ProblemInstance, ZeroSumGame]) -> dict:
    """Normalized document for an instance or game; inverse of parse up to ids."""
    game = isinstance(obj, ZeroSumGame)
    C, D = obj.C, obj.D
    doc = {
        "schema": INSTANCE_SCHEMA,
        "mode": "game" if game else "roep",
        "posets": {"X": _poset_doc(C.parent), "Y": _poset_doc(D.parent)},
        "C": _subset_doc("X", C),
        "D": _subset_doc("Y", D),
    }
    if game:
        doc["payoff"] = [
            [element_id(x), element_id(y), str(obj.payoff[(x, y)])]
            for x in C.ordered()
            for y in D.ordered()
        ]
    else:
        doc["posets"]["U"] = _poset_doc(obj.U)
        doc["T"] = [
            [element_id(x), element_id(y), element_id(obj.T.value(x, y))]
            for x in C.ordered()
            for y in D.ordered()
        ]
    doc["F"] = _constraint_doc(obj.F)
    doc["G"] = _constraint_doc(obj.G)
    if obj.seed is not None:
        doc["seed"] = [element_id(obj.seed[0]), element_id(obj.seed[1])]
    return doc


def dump_instance(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_instance(obj), fh, indent=2)
        fh.write("\n")


def instance_digest(obj) -> str:
    """sha256 over the canonical JSON bytes of the normalized document."""
    blob = json.dumps(serialize_instance(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def serialize_poset_doc(p: Poset) -> dict:
    doc = {"schema": POSET_SCHEMA}
    doc.update(_poset_doc(p))
    return doc


def parse_poset_doc(doc: dict) -> Poset:
    if not isinstance(doc, dict) or doc.get("schema") != POSET_SCHEMA:
        raise ParseError(f"expected a {POSET_SCHEMA!r} document")
    body = {k: v for k, v in doc.items() if k != "schema"}
    return _parse_poset("poset", body)


# -- reports ------------------------------------------------------------------


def _pair_doc(pair) -> list:
    return [element_id(pair[0]), element_id(pair[1])]


def _certificate_doc(cert) -> dict:
    return {
        "pair": _pair_doc(cert.pair),
        "feasible_in_g": cert.feasible_in_g,
        "feasible_in_f": cert.feasible_in_f,
        "row_candidates": [element_id(e) for e in cert.row_candidates],
        "col_candidates": [element_id(e) for e in cert.col_candidates],
        "row_violators": [element_id(e) for e in cert.row_violators],
        "col_violators": [element_id(e) for e in cert.col_violators],
        "ok": cert.ok,
    }


def hypothesis_doc(hyp) -> dict:
    return {
        "seed": _pair_doc(hyp.seed),
        "phi_increasing_upward": hyp.phi_monotonicity.increasing_upward,
        "phi_increasing_downward": hyp.phi_monotonicity.increasing_downward,
        "psi_increasing_upward": hyp.psi_monotonicity.increasing_upward,
        "psi_increasing_downward": hyp.psi_monotonicity.increasing_downward,
        "values_universally_inductive": hyp.values_universally_inductive,
        "seed_condition": hyp.seed_condition,
        "seed_witness": _pair_doc(hyp.seed_witness) if hyp.seed_witness else None,
        "passes": hyp.passes,
    }


def build_report(command: str, instance, exit_code: int, elapsed: float,
                 solution_report=None, hypothesis_report=None, solutions=None,
                 game_value=None) -> dict:
    """Machine-readable result document mirroring the solve/check output."""
    doc = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "command": command,
        "mode": "game" if isinstance(instance, ZeroSumGame) else "roep",
        "instance_digest": instance_digest(instance),
        "exit_code": exit_code,
        "elapsed_seconds": round(elapsed, 6),
    }
    if hypothesis_report is not None:
        doc["hypotheses"] = hypothesis_doc(hypothesis_report)
    if solutions is not None:
        doc["solutions"] = sorted(_pair_doc(s) for s in solutions)
    if solution_report is not None:
        rep = solution_report
        doc["direction"] = rep.direction
        doc["seed"] = _pair_doc(rep.seed)
        doc["solution"] = _pair_doc(rep.solution) if rep.solution else None
        doc["solutions"] = sorted(_pair_doc(s) for s in rep.solutions)
        doc["climb_trace"] = [_pair_doc(p) for p in rep.climb_trace]
        doc["existence_guaranteed"] = rep.existence_guaranteed
        doc["hypotheses"] = hypothesis_doc(rep.hypotheses)
        doc["certificates"] = [
            _certificate_doc(c) for _, c in sorted(rep.certificates.items())
        ]
    if game_value is not None:
        doc["game_value"] = str(game_value)
    return doc


def replay_report(report: dict, instance) -> bool:
    """Re-verify a report against its instance: digest plus every solution."""
    if report.get("schema") != REPORT_SCHEMA:
        raise ParseError(f"expected a {REPORT_SCHEMA!r} document")
    if report.get("instance_digest") != instance_digest(instance):
        return False
    inst = instance.instance if isinstance(instance, ZeroSumGame) else instance
    by_id = {
        (element_id(x), element_id(y)): (x, y)
        for x in inst.C.ordered()
        for y in inst.D.ordered()
    }
    claimed = [tuple(s) for s in report.get("solutions", [])]
    if report.get("solution"):
        claimed.append(tuple(report["solution"]))
    for sid in claimed:
        if sid not in by_id:
            return False
        if not inst.is_solution(*by_id[sid]):
            return False
    return True
