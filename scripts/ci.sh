#!/usr/bin/env bash
# The CI checks, runnable locally from any directory: scripts/ci.sh
# They run in two lanes at once: step 1 in one, and steps 2 to 5 in order in
# the other, whose output is printed when both lanes have ended; the script
# fails if either lane fails.
#   1. the Tier-1 test suite, with every warning an error but one: when a
#      hypothesis test fails, hypothesis imports libcst to explain the
#      failure, and libcst's type_inference_provider warns that
#      mypy_extensions.TypedDict is deprecated; as an error that warning
#      stops the whole run (INTERNALERROR) instead of failing one test;
#   2. a benchmark smoke: bench/run.py --workload all for one second a
#      workload, which runs each workload untraced and then traced, each in
#      its own process.  It is judged on its last line (bench/run.py exits 0
#      even when an output is wrong): correct, with no failed op; and on its
#      --out file: no replay error in any workload's traced run.  The tracer
#      replays each op through public calls (parse_instance, gen_instance,
#      game.instance, phi_map/psi_map, pair_index), so a replay error means
#      that part of the API broke;
#   3. a scaling smoke: scripts/scaling.py at the smallest size of each
#      family, each op a child process with the script's timeout; it fails
#      unless every row is a result (an exit code the CLI documents) or a
#      recorded timeout, and every family has a row;
#   4. scripts/check_rules.py, standard library only: every file parses as
#      Python 3.10, no assert in src/, no dead private definition, unread
#      attribute or unused import, and gen's and the payoff rule's copies
#      of the standard library match it (its docstring states each rule);
#      under python3, then under each other CPython 3.10 to 3.13 that
#      starts, found as pythonX.Y or, with pyenv, as an installed X.Y.Z
#      through PYENV_VERSION, so that 3.10 parses every file with its own
#      grammar; it names each version it skips;
#   5. output stability: scripts/same_outputs.py --check runs the CLI on the
#      fixtures, the benchmark's inputs and the script's other jobs, and
#      exits 1, naming each job, when a job's exit code, stdout, stderr,
#      report or written file no longer matches its digest in the committed
#      scripts/outputs.json (--record rewrites that file; REV in place of
#      --check compares with another revision instead, for diagnosis); the
#      file holds one Python's and numpy's digests, so under other versions
#      the step prints both sets of versions and is skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=$(mktemp)
scaling=$(mktemp)
lane=$(mktemp)
trap 'rm -f "$smoke" "$scaling" "$lane"' EXIT

checks() {  # steps 2 to 5, in order; the first that fails ends the lane
  out=$(python3 bench/run.py --workload all --seed 1 --seconds 1 --out "$smoke")
  echo "$out"
  echo "$out" | tail -n 1 | python3 -c 'import json, sys; r, d = json.load(sys.stdin), json.load(open(sys.argv[1], encoding="utf-8")); sys.exit(0 if r["correct"] is True and r["failed"] == 0 and all(w["trace"]["replay_errors"] == 0 for w in d["workloads"].values()) else 1)' "$smoke"

  python3 scripts/scaling.py --smallest --out "$scaling"

  python3 scripts/check_rules.py
  ran=$(python3 -c 'import sys; print("%d.%d" % sys.version_info[:2])')
  for want in 3.10 3.11 3.12 3.13; do
    [ "$want" = "$ran" ] && continue
    candidates=("python$want")
    installed=$(pyenv versions --bare 2>/dev/null || true)
    for version in $(echo "$installed" | grep -E "^${want/./\\.}(\.[0-9]+)?$" || true); do
      candidates+=("env PYENV_VERSION=$version python3")
    done
    checked=""
    for interpreter in "${candidates[@]}"; do
      got=$($interpreter -c 'import sys; print(sys.implementation.name, *sys.version_info[:2])' \
            2>/dev/null || true)
      if [ "$got" = "cpython ${want/./ }" ]; then
        $interpreter scripts/check_rules.py
        checked=yes
        break
      fi
    done
    [ -n "$checked" ] || echo "skipped CPython $want: no interpreter of it starts"
  done

  python3 scripts/same_outputs.py --check
}

checks > "$lane" 2>&1 &
checks_pid=$!
status=0
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -W error \
  -W "ignore::DeprecationWarning:libcst.metadata.type_inference_provider" \
  --continue-on-collection-errors || status=1
wait "$checks_pid" || status=1
cat "$lane"
exit "$status"
