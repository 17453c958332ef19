#!/usr/bin/env bash
# lint-mutants.sh — proves gslint is armed on the real module. A disarmed
# analyzer reports zero findings too, so a clean scripts/lint.sh cannot
# tell "no violation" from "no check". Each mutant below plants one
# determinism violation as internal/<pkg>/zz_mutant.go; gslint must exit
# 1 with exactly one detflow finding in that file. The mutant is deleted
# after its run, and on any exit.
#
# Usage: scripts/lint-mutants.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
mutant=""
trap 'rm -rf "$tmp"; [ -z "$mutant" ] || rm -f "$mutant"' EXIT
go build -o "$tmp/gslint" ./cmd/gslint

# check PKG SOURCE writes SOURCE to internal/PKG/zz_mutant.go and requires
# exactly one detflow finding there.
check() {
    mutant="internal/$1/zz_mutant.go"
    printf '%s\n' "$2" >"$mutant"
    status=0
    out=$("$tmp/gslint" ./...) || status=$?
    rm -f "$mutant"
    found=$(grep -c "/$mutant:[0-9]*:[0-9]*: .* (detflow)\$" <<<"$out" || true)
    if [ "$status" -ne 1 ] || [ "$found" -ne 1 ]; then
        echo "$mutant: gslint exited $status with $found detflow finding(s) there, want 1 with 1:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "caught $mutant"
}

# A wall-clock read in a deterministic package's var initializer.
check sim 'package sim

import "time"

var mutantBoot = time.Now()'

# A map range in a deterministic function nothing calls: every function
# declared there roots the proof.
check memctrl 'package memctrl

func mutantSum(m map[int]int) (s int) {
	for _, v := range m {
		s += v
	}
	return s
}'

# A wall-clock read in the var initializer of a helper package that
# deterministic code reaches.
check stats 'package stats

import "time"

var mutantBoot = time.Now()'

# The wall clock bound as a function value and called through it.
check sim 'package sim

import "time"

var mutantNow = time.Now

func mutantStamp() int64 { return mutantNow().UnixNano() }'

echo "gslint mutants OK"
