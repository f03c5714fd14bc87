#!/usr/bin/env bash
# The CI checks, runnable locally from any directory: scripts/ci.sh
#   1. the Tier-1 test suite, with every warning an error but one: when a
#      hypothesis test fails, hypothesis imports libcst to explain the
#      failure, and libcst's type_inference_provider warns that
#      mypy_extensions.TypedDict is deprecated; as an error that warning
#      stops the whole run (INTERNALERROR) instead of failing one test;
#   2. a one-second benchmark smoke per workload, each judged on the last
#      line of bench/run.py (it exits 0 even when an output is wrong);
#   3. a traced smoke per workload, each judged on its last line and on the
#      replay errors in its --out file: the tracer replays each op through
#      public calls (parse_instance, gen_instance, game.instance,
#      phi_map/psi_map, pair_index), so a replay error means that part of
#      the API broke.  wide-oracle and small-batch replay the roep parse and
#      gen, grid-game the game parse (which builds the game) and its roep
#      view; each takes a few seconds;
#   4. no assert statements in src/ (invariants must survive python -O);
#   5. no dead private helper and no unread attribute: every _private
#      function, method or class defined under src/ordeq/, and every
#      _PRIVATE constant assigned at module level there, is used by name (a
#      name read or an attribute; an import or the assignment alone does not
#      count) somewhere in src/;
#      every _private attribute src/ordeq/ sets on self (self._x = ...,
#      also as one target of a tuple assignment, or object.__setattr__(self,
#      "_x", ...)) is read as an attribute somewhere in src/; and every
#      public attribute it sets that way is read as an attribute somewhere
#      in src/, tests/, demos/, bench/ or scripts/;
#   6. no unused import: every name a module under src/ordeq/ imports at
#      module level (from __future__ aside) is used by name in that module
#      or listed in its __all__;
#   7. Python 3.10 grammar: every .py file under src/, tests/, bench/, demos/
#      and scripts/ parses with ast.parse(..., feature_version=(3, 10)), so
#      syntax newer than the oldest supported Python fails here, not there;
#   8. a scaling smoke: scripts/scaling.py at the smallest size of each
#      family, each op a child process with the script's timeout; it fails
#      unless every row is a result (an exit code the CLI documents) or a
#      recorded timeout, and every family has a row;
#   9. what rests on the interpreter's standard library: gen's copies of
#      random's algorithms (scripts/check_random_copies.py) and the payoff
#      rule against Fraction, at Python's int digit limit too
#      (scripts/check_payoff_reading.py), both standard library only, under
#      python3, then under each other CPython 3.10 to 3.13 that starts, found
#      as pythonX.Y or, with pyenv, as an installed X.Y.Z through
#      PYENV_VERSION; it names each one it skips.
# Not a step, since it needs a base revision: scripts/same_outputs.py REV
# runs the CLI on the fixtures and the benchmark's inputs under this checkout
# and under REV, and exits 1 on any difference in exit code, stdout, stderr,
# report or written file.
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -W error \
  -W "ignore::DeprecationWarning:libcst.metadata.type_inference_provider" \
  --continue-on-collection-errors

for workload in small-batch grid-game wide-oracle; do
  out=$(python3 bench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0)
  echo "$out"
  echo "$out" | tail -n 1 | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'
done

traced=$(mktemp)
trap 'rm -f "$traced"' EXIT
for workload in small-batch grid-game wide-oracle; do
  out=$(python3 bench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 --out "$traced")
  echo "$out"
  echo "$out" | tail -n 1 | python3 -c '
import json, sys
r, detail = json.load(sys.stdin), json.load(open(sys.argv[1], encoding="utf-8"))
sys.exit(0 if r["correct"] is True and detail["replay_errors"] == 0 else 1)' "$traced"
done

python3 - <<'PY'
import ast, pathlib, sys
found = [f"{path}:{node.lineno}" for path in sorted(pathlib.Path("src").rglob("*.py"))
         for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
         if isinstance(node, ast.Assert)]
print("\n".join(found) or "no assert statements in src/")
sys.exit(1 if found else 0)
PY

python3 - <<'PY'
import ast, pathlib, sys
private = lambda name: name.startswith("_") and not name.endswith("__")  # noqa: E731
is_self = lambda node: isinstance(node, ast.Name) and node.id == "self"  # noqa: E731
defs, attrs, used, read, read_outside = [], [], set(), set(), set()
for path in sorted(p for root in ("src", "tests", "demos", "bench", "scripts")
                   for p in pathlib.Path(root).rglob("*.py")):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.parts[0] != "src":
        read_outside |= {node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        continue
    if "ordeq" in path.parts:
        defs += [(t.id, f"{path}:{node.lineno}") for node in tree.body
                 if isinstance(node, ast.Assign) for t in node.targets
                 if isinstance(t, ast.Name) and t.id.startswith("_") and t.id.isupper()]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if "ordeq" in path.parts and private(name):
                defs.append((name, f"{path}:{node.lineno}"))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif "ordeq" in path.parts and is_self(node.value):
                attrs.append((node.attr, f"{path}:{node.lineno}"))
        if ("ordeq" in path.parts and isinstance(node, ast.Call)
                and ast.unparse(node.func) == "object.__setattr__" and len(node.args) > 1
                and is_self(node.args[0]) and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            attrs.append((node.args[1].value, f"{path}:{node.lineno}"))
dead = [f"{where}: {name} is never used" for name, where in defs if name not in used]
dead += [f"{where}: attribute {name} is set but never read" for name, where in attrs
         if name not in (read if private(name) else read | read_outside)]
print("\n".join(dead) or f"{len(defs)} private definitions under src/ordeq/, each used; "
      f"{len({name for name, _ in attrs})} attributes set there, each read")
sys.exit(1 if dead else 0)
PY

python3 - <<'PY'
import ast, pathlib, sys
unused = []
for path in sorted(pathlib.Path("src/ordeq").rglob("*.py")):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path}:{node.lineno}: {name} is imported but never used")
print("\n".join(unused) or "every module-level import under src/ordeq/ is used")
sys.exit(1 if unused else 0)
PY

python3 - <<'PY'
import ast, pathlib, sys
paths = sorted(p for root in ("src", "tests", "bench", "demos", "scripts")
               for p in pathlib.Path(root).rglob("*.py"))
bad = []
for path in paths:
    try:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    except SyntaxError as exc:
        bad.append(f"{path}:{exc.lineno}: {exc.msg}")
print("\n".join(bad) or f"{len(paths)} files parse as Python 3.10")
sys.exit(1 if bad else 0)
PY

scaling=$(mktemp)
trap 'rm -f "$traced" "$scaling"' EXIT
python3 scripts/scaling.py --smallest --out "$scaling"

python3 scripts/check_random_copies.py
python3 scripts/check_payoff_reading.py
ran=$(python3 -c 'import sys; print("%d.%d" % sys.version_info[:2])')
for want in 3.10 3.11 3.12 3.13; do
  [ "$want" = "$ran" ] && continue
  candidates=("python$want")
  if command -v pyenv >/dev/null 2>&1; then
    installed=$(pyenv versions --bare 2>/dev/null || true)
    for version in $(echo "$installed" | grep -E "^${want/./\\.}(\.[0-9]+)?$" || true); do
      candidates+=("env PYENV_VERSION=$version python3")
    done
  fi
  checked=""
  for interpreter in "${candidates[@]}"; do
    got=$($interpreter -c 'import sys; print(sys.implementation.name, *sys.version_info[:2])' \
          2>/dev/null || true)
    if [ "$got" = "cpython ${want/./ }" ]; then
      $interpreter scripts/check_random_copies.py
      $interpreter scripts/check_payoff_reading.py
      checked=yes
      break
    fi
  done
  [ -n "$checked" ] || echo "skipped CPython $want: no interpreter of it starts"
done
