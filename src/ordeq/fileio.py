"""Instance and report files: a strict, versioned JSON schema.

Instance documents name their posets, the subsets C and D, the objective
table (or a rational payoff table in game mode), the constraint tables, and
an optional seed pair.  Unknown fields are rejected, and so is any element
id or poset name that is not a JSON string.  Where the library has a rule
on what the values mean, the parse calls it rather than a copy, and its
words appear under the section's name.  An F or G entry is a list of
strings; the table is then checked and masked, domain on rows, by the
SetValuedMap rule of :mod:`ordeq.maps`.  A seed is a list of two strings;
whether they are members of C and D, and whether C and D are nonempty,
are the instance's own checks, as in the API.  An object that repeats a
key is refused.  A T or payoff table is laid out, then coded: every row is
checked and its raw value put in a flat C x D list, at the positions C and
D number its ids, before the loop the API runs too codes the list (the
instance's, under ``instance:``: a T value as its position in U; that of
:mod:`ordeq.games`: a payoff as its slot among the distinct raw payoffs),
so the first bad value in C x D order is refused in the API's words, and
then the first missing pair.  A row costs one lookup of its two ids, and
an edge one lookup of each endpoint; the type and membership tests run
only to name the first refusal, in the order and words of a test per id
(x before y, a before b).  Serialization normalizes: element ids become
strings, relations become Hasse edges, rows are emitted in a canonical
order; parse-then-serialize is idempotent after the first pass.  It reads
the codes, so ids are converted once per element, never once per cell,
and serves dump_instance and the API; a poset too large to parse is
refused.

The instance digest is one sha256 over the codes, never over JSON text;
the instance_digest docstring gives its byte layout.  Like serialization,
it refuses a poset too large to parse.  Reports (schema
roep-report/2) carry it.

A document tree is thousands of small lists and dicts that die by
refcount, and while it lives each young collection of the cyclic garbage
collector rescans and promotes it.  So the collector is paused, if it was
on, over a tree's whole life: in parse_instance, in the CLI's validate,
and in write_json, the one writer of every document, from build to write.
"""

from __future__ import annotations

import gc
import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from itertools import accumulate, compress
from operator import mul
from typing import Union

import numpy as np

from . import __version__
from .equilibrium import _HOLE, ProblemInstance, _check_parts, _objective_codes
from .errors import OrdeqError, ParseError, ValidationError
from .games import ZeroSumGame, _game_codes
from .maps import _table_mask
from .poset import _MAX_POSET_ELEMENTS, Poset, Subset, _past_cap, grid_poset, load_poset

INSTANCE_SCHEMA = "roep-instance/1"
POSET_SCHEMA = "roep-poset/1"
REPORT_SCHEMA = "roep-report/2"
_DIGEST_TAG = b"roep-digest/1"


def element_id(e) -> str:
    """Canonical string form of an element identifier."""
    if isinstance(e, tuple):
        return ",".join(element_id(c) for c in e)
    return str(e)


@contextmanager
def _section(section: str):
    """A library error raised in the block becomes the section's ValidationError."""
    try:
        yield
    except OrdeqError as exc:
        raise ValidationError(f"{section}: {type(exc).__name__}: {exc}") from exc


@contextmanager
def _collector_paused():
    """The cyclic collector off for the block if it was on, and on again after it.

    Hold it over a document tree's whole life, so that the tree dies by
    refcount inside it; the promotions of a tree still alive set off full
    collections.  Nested use leaves the collector as the outer block found it.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _reject_unknown(section: str, data: dict, allowed: set) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(f"{section}: unknown fields {sorted(unknown)}")


def _require(section: str, data: dict, key: str):
    if key not in data:
        raise ValidationError(f"{section}: missing required field {key!r}")
    return data[key]


def _strings(data) -> bool:
    """A list of strings, the JSON rule for ids: a loop, twice as fast as all()."""
    if not isinstance(data, list):
        return False
    for e in data:
        if not isinstance(e, str):
            return False
    return True


def _parse_poset(section: str, data) -> Poset:
    if not isinstance(data, dict):
        raise ValidationError(f"{section}: poset must be an object")
    if "grid" in data:
        _reject_unknown(section, data, {"grid"})
        dims = data["grid"]
        if not isinstance(dims, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) for d in dims
        ):
            raise ValidationError(f"{section}: grid must be a list of integers")
        # a non-positive extent is grid_poset's to refuse
        if all(d >= 1 for d in dims) and _past_cap(accumulate(dims, mul)):
            raise ValidationError(f"{section}: grid has more than {_MAX_POSET_ELEMENTS} elements")
        with _section(section):
            base = grid_poset(dims)
        return Poset._trusted(map(element_id, base.elements), base.leq_matrix)
    _reject_unknown(section, data, {"elements", "edges", "edge_kind"})
    elements = _require(section, data, "elements")
    if not _strings(elements):
        raise ValidationError(f"{section}: elements must be a list of strings")
    if _past_cap([len(elements)]):
        raise ValidationError(f"{section}: more than {_MAX_POSET_ELEMENTS} elements")
    edges = data.get("edges", [])
    for e in edges if isinstance(edges, list) else [None]:  # edges that are no list: refused
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                and isinstance(e[1], str)):
            raise ValidationError(f"{section}: edges must be a list of [a, b] pairs of strings")
    if data.get("edge_kind", "hasse") not in ("hasse", "full"):
        raise ValidationError(f"{section}: edge_kind must be 'hasse' or 'full'")
    with _section(section):
        return load_poset(elements, edges)


def _parse_subset(section: str, data, posets: dict) -> Subset:
    if not isinstance(data, dict):
        raise ValidationError(f"{section}: must be an object")
    _reject_unknown(section, data, {"poset", "members"})
    name = _require(section, data, "poset")
    if not isinstance(name, str) or name not in posets:
        raise ValidationError(f"{section}: references unknown poset {name!r}")
    members = _require(section, data, "members")
    if not _strings(members):
        raise ValidationError(f"{section}: members must be a list of strings")
    with _section(section):
        return posets[name].subset(members)


def _parse_constraints(section: str, data, domain: Subset, codomain: Subset) -> np.ndarray:
    """An F or G table as its mask, domain on rows: lists of strings, then the map rule."""
    if not isinstance(data, dict):
        raise ValidationError(f"{section}: must be an object of element -> list")
    for key, values in data.items():
        if not _strings(values):
            raise ValidationError(f"{section}: entry {key!r} must be a list of strings")
    with _section(section):
        return _table_mask(domain, codomain, data)


def _parse_cells(section: str, data, C: Subset, D: Subset) -> list:
    """The [x, y, value] rows laid out as a flat C x D list of raw values, _HOLE where none.

    Every row passes its shape, membership and duplicate checks, in row order,
    before any value is read.
    """
    if not isinstance(data, list):
        raise ValidationError(f"{section}: must be a list of [x, y, value] rows")
    cols, n_d = D._index, len(D)
    first = {x: i * n_d for x, i in C._index.items()}  # each member of C to its row's first cell
    cells = [_HOLE] * (len(C) * n_d)
    for row in data:
        try:  # a row that is no list unpacks as (), so it fails as a list of the wrong length does
            x, y, v = row if type(row) is list or isinstance(row, list) else ()
            k = first[x] + cols[y]
        except ValueError:
            raise ValidationError(f"{section}: malformed row {row!r}") from None
        except (KeyError, TypeError):  # a non-string id misses, or is unhashable
            for end, ids, side in ((x, first, "C"), (y, cols, "D")):
                if not isinstance(end, str) or end not in ids:
                    raise ValidationError(
                        f"{section}: row references {end!r}, not a member of {side}") from None
        if cells[k] is not _HOLE:
            raise ValidationError(f"{section}: duplicate row for ({x!r}, {y!r})")
        cells[k] = v
    return cells


def _parse_seed(data):
    if data is None:
        return None
    if not _strings(data) or len(data) != 2:
        raise ValidationError("seed: must be a [x, y] pair")
    return tuple(data)


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
    posets = {}
    for name in sorted(expected_posets):
        data = _require("posets", posets_doc, name)
        # a Y equal to X is parsed once; a grid's extents must still be ints, as True == 1
        same = name == "Y" and data == posets_doc["X"] and all(
            type(d) is int for d in data.get("grid", ()))
        posets[name] = posets["X"] if same else _parse_poset(f"posets.{name}", data)

    C = _parse_subset("C", _require("document", doc, "C"), posets)
    D = _parse_subset("D", _require("document", doc, "D"), posets)
    with _section("instance"):
        _check_parts(C, D, None, None)

    F = _parse_constraints("F", doc["F"], C, D) if "F" in doc else None
    G = _parse_constraints("G", doc["G"], D, C) if "G" in doc else None
    seed = _parse_seed(doc.get("seed"))

    if mode == "game":
        # the API's payoff loop; U stores no order, so the number of distinct values has no cap
        U, T = _game_codes(C, D, _parse_cells("payoff", _require("document", doc, "payoff"), C, D))
        with _section("game"):
            return ZeroSumGame._from_codes(C, D, U, T, F, G, seed)

    U = posets["U"]
    cells = _parse_cells("T", _require("document", doc, "T"), C, D)
    with _section("instance"):  # the instance's own T loop, which the API runs too
        return ProblemInstance._from_codes(C, D, U, _objective_codes(C, D, U, cells), F, G, seed)


def read_json(path):
    """The JSON document in a file; ParseError when it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("\ufeff"):  # json.loads's refusal, which the decoder leaves to it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an int past Python's digit limit, deep nesting
        raise ParseError(f"cannot parse {path}: {exc}") from exc


def _object_dict(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):  # the later entry would hide the earlier one
        repeated = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"repeated key {repeated!r}")
    return doc


_DECODER = json.JSONDecoder(object_pairs_hook=_object_dict)  # one per process, not per read


def parse_instance(path) -> Union[ProblemInstance, ZeroSumGame]:
    """Read and validate an instance file; ParseError or ValidationError on failure."""
    with _collector_paused():  # from the read through the parse: the tree dies in it
        return parse_instance_dict(read_json(path))


def _ids(p: Poset) -> list:
    """A poset's element ids, in element order; two elements with one id would not parse back."""
    ids = list(map(element_id, p.elements))
    if len(set(ids)) < len(ids):
        seen = set()
        repeated = next(i for i in ids if i in seen or seen.add(i))
        raise ValidationError(f"cannot serialize: two elements share the id {repeated!r}")
    return ids


def _poset_doc(p: Poset) -> dict:
    if _past_cap([len(p)]):  # the parse would refuse it, so its order is not read
        raise ValidationError(f"cannot serialize: a poset past {_MAX_POSET_ELEMENTS} elements")
    ids = _ids(p)
    name = dict(zip(p.elements, ids))
    return {
        "elements": ids,
        "edges": sorted([name[a], name[b]] for a, b in p.hasse_edges()),
        "edge_kind": "hasse",
    }


def serialize_instance(obj: Union[ProblemInstance, ZeroSumGame]) -> dict:
    """Normalized document for an instance or game; inverse of parse up to ids.

    Read from the instance's index codes.  A game's U is the chain of its
    payoffs, whose ids are their Fractions' strings, formatted from the
    lowest terms U holds, so its payoff rows are the T rows of a roep.
    """
    game = isinstance(obj, ZeroSumGame)
    posets = {"X": _poset_doc(obj.C.parent), "Y": _poset_doc(obj.D.parent)}
    if not game:
        posets["U"] = _poset_doc(obj.U)
    cs, ds = ([element_id(e) for e in es] for es in (obj._cs, obj._ds))
    us = obj.U._strs() if game else [element_id(u) for u in obj.U.elements]
    doc = {"schema": INSTANCE_SCHEMA, "mode": "game" if game else "roep", "posets": posets,
           "C": {"poset": "X", "members": cs}, "D": {"poset": "Y", "members": ds}}
    doc["payoff" if game else "T"] = [
        [x, y, us[t]] for x, row in zip(cs, obj._T.tolist()) for y, t in zip(ds, row)
    ]
    doc["F"] = {x: list(compress(ds, row)) for x, row in zip(cs, obj._F.tolist())}
    doc["G"] = {y: list(compress(cs, row)) for y, row in zip(ds, obj._G.tolist())}
    if obj.seed is not None:
        doc["seed"] = [element_id(obj.seed[0]), element_id(obj.seed[1])]
    return doc


def write_json(path, build, *args, **kwargs) -> None:
    """Write build(*args, **kwargs) as indented JSON, the collector paused from build to write;
    a document that cannot be built or encoded touches no file."""
    with _collector_paused():
        text = json.dumps(build(*args, **kwargs), indent=2) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def dump_instance(obj, path) -> None:
    """Write the normalized document; a refused one leaves the file untouched."""
    write_json(path, serialize_instance, obj)


def instance_digest(obj) -> str:
    """sha256 over the instance's codes, in one fixed byte layout.

    The digest reads only what the normalized document holds, so
    digest(parse(serialize(x))) == digest(x).  A poset past the 2048-element
    cap has no file form, and so no parse for its digest to match: when a
    poset whose order is hashed (a roep's X, Y and U, a game's X and Y) is
    past it, the instance is refused (ValidationError) before any order is
    read.  A game's U is hashed as ids only, so it has no cap here.  The
    hash runs over a list of fields, each written as its byte length (8
    bytes, little-endian) and then its bytes.  In order:

    1. the tag ``roep-digest/1``;
    2. the mode, ``roep`` or ``game``;
    3. for X, Y and (a roep only) U, each poset as three fields: the
       lengths in code points of its element ids (``<u4`` each), the ids
       joined, as UTF-8 with surrogates passed through, and its closed leq
       matrix as np.packbits writes it (row-major, first bit highest, the
       last byte zero-padded);
    4. C and D, each as packed bits of membership over its parent's
       elements;
    5. a game only: its U, the chain of its payoffs in ascending order, as
       the two id fields of step 3, each value's id the Fraction's str,
       ``n`` or ``n/d`` in lowest terms, formatted from the terms U holds;
    6. T, one ``<u4`` per C x D cell, row-major, each the position of its
       value in U (members of C and D numbered in parent order);
    7. F (|C| x |D|) and G (|D| x |C|) as packed bits, an omitted map all true;
    8. the seed as the ``<u4`` positions of its members in C and D, or an
       empty field when there is none.
    """
    game = isinstance(obj, ZeroSumGame)
    posets = (obj.C.parent, obj.D.parent) if game else (obj.C.parent, obj.D.parent, obj.U)
    if _past_cap(map(len, posets)):
        raise ValidationError(f"cannot digest: a poset past {_MAX_POSET_ELEMENTS} elements")
    h = hashlib.sha256()

    def field(data) -> None:
        data = memoryview(data)
        h.update(data.nbytes.to_bytes(8, "little"))
        h.update(data)

    def id_fields(ids: list) -> None:
        field(np.array(list(map(len, ids)), dtype="<u4"))
        field("".join(ids).encode("utf-8", "surrogatepass"))

    field(_DIGEST_TAG)
    field(b"game" if game else b"roep")
    for p in posets:
        id_fields(_ids(p))
        field(np.packbits(p.leq_matrix))
    for s in (obj.C, obj.D):
        member = np.zeros(len(s.parent), dtype=bool)
        member[list(map(s.parent._index.__getitem__, s.ordered()))] = True
        field(np.packbits(member))
    if game:
        id_fields(obj.U._strs())  # str of distinct Fractions: distinct
    field(np.ascontiguousarray(obj._T, dtype="<u4"))
    field(np.packbits(obj._F))
    field(np.packbits(obj._G))
    seed = () if obj.seed is None else (obj.C._index[obj.seed[0]], obj.D._index[obj.seed[1]])
    field(np.array(seed, dtype="<u4"))
    return h.hexdigest()


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
                 game_value=None, digest=None) -> dict:
    """Machine-readable result document mirroring the solve/check output.

    ``digest`` is the instance's digest when the caller has it already.  A
    solve or game report's solutions are the instance's solution_set.
    """
    doc = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "command": command,
        "mode": "game" if isinstance(instance, ZeroSumGame) else "roep",
        "instance_digest": digest or instance_digest(instance),
        "exit_code": exit_code,
        "elapsed_seconds": round(elapsed, 6),
    }
    if hypothesis_report is not None:
        doc["hypotheses"] = hypothesis_doc(hypothesis_report)
    if solutions is not None:
        doc["solutions"] = sorted(_pair_doc(s) for s in solutions)
    if solution_report is not None:
        rep, hyp = solution_report, solution_report.hypotheses
        doc["direction"] = hyp.direction
        doc["seed"] = _pair_doc(hyp.seed)
        doc["solution"] = _pair_doc(rep.solution)
        doc["solutions"] = sorted(_pair_doc(s) for s in instance.solution_set)
        doc["climb_trace"] = [_pair_doc(p) for p in rep.climb_trace]
        doc["existence_guaranteed"] = hyp.passes
        doc["hypotheses"] = hypothesis_doc(hyp)
        doc["certificates"] = [_certificate_doc(rep.certificate)]
    if game_value is not None:
        doc["game_value"] = str(game_value)
    return doc


def replay_report(report: dict, instance) -> bool:
    """Re-verify a report against its instance: the digest and every claim.

    The solution and the climb trace are the report's own, and must pass
    the solver's claim rule, ProblemInstance._climbs: the trace climbs
    gamma from the seed, and the solution lies above (below) it, as
    ``direction`` says, and is its own highest, so any maximal (minimal)
    claim passes.  Every other field must equal the report rebuilt from
    them and from freshly computed hypotheses, solution set, certificate,
    game value and exit code, as JSON: false is no 0, and 1 is no true.
    """
    if not isinstance(report, dict) or report.get("schema") != REPORT_SCHEMA:
        raise ParseError(f"expected a {REPORT_SCHEMA!r} document")
    if report.get("instance_digest") != instance_digest(instance):
        return False
    try:
        rebuilt = _rebuild(report, instance)
        return json.dumps(rebuilt, sort_keys=True) == json.dumps(report, sort_keys=True)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, OrdeqError):
        return False  # a malformed claim is not a verified one


def _rebuild(report: dict, obj):
    """The report this program writes with the given report's choices, or None."""
    command, direction = report["command"], report.get("direction", "maximal")
    if command not in ("check", "enumerate", "solve", "game"):
        return None
    if command == "game" and not isinstance(obj, ZeroSumGame):
        return None  # only a game has a game value
    fields, code = {}, 0
    if command == "enumerate":
        fields["solutions"], code = obj.solution_set, 0 if obj.solution_set else 3
    else:
        rows = {element_id(x): i for i, x in enumerate(obj._cs)}
        cols = {element_id(y): j for j, y in enumerate(obj._ds)}
        pos = lambda doc: (rows[doc[0]], cols[doc[1]])  # noqa: E731
        seed = pos(report["seed"] if "seed" in report else report["hypotheses"]["seed"])
        hyp = obj._hypotheses(seed, direction)
        if command == "check":
            fields["hypothesis_report"], code = hyp, 0 if hyp.passes else 2
        else:
            sol, trace = pos(report["solution"]), [pos(p) for p in report["climb_trace"]]
            fields["solution_report"] = obj._report(hyp, seed, direction, trace, sol)
            if fields["solution_report"] is None:
                return None  # a claim the solver's own claim rule refuses
            if command == "game":
                fields["game_value"] = obj.U._value(obj._T[sol])
    return build_report(command, obj, code, report["elapsed_seconds"],
                        digest=report["instance_digest"], **fields)
