#!/usr/bin/env bash
# lint.sh — the repo's full static-analysis gate, runnable locally and in
# CI's lint job. Four layers, cheapest first:
#
#   1. gofmt       formatting drift
#   2. go vet      the stock correctness checks
#   3. staticcheck (only if a pinned binary is already on PATH — the CI
#                  image bakes one in; a bare dev container just skips it,
#                  because this repo builds offline and cannot go install)
#   4. gslint      the repo-specific determinism and zero-alloc contracts
#                  (internal/lint: noalloc, timerarg, poolsafe, detflow,
#                  concur)
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "files need gofmt:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

# staticcheck is pinned by version check, not by install: the build is
# offline, so we use whatever the image provides and verify it is the
# expected release. A mismatched binary is a hard failure, not a warning:
# different releases disagree on findings, so "ran staticcheck" would
# mean different things on different machines and the gate would drift.
# Override the pin explicitly via STATICCHECK_VERSION to upgrade.
STATICCHECK_VERSION="${STATICCHECK_VERSION:-2023.1.7}"
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    got="$(staticcheck -version 2>/dev/null || true)"
    case "$got" in
    *"$STATICCHECK_VERSION"*) ;;
    *)
        echo "error: staticcheck version '$got' != pinned '$STATICCHECK_VERSION'" >&2
        echo "       (set STATICCHECK_VERSION to accept a different release)" >&2
        exit 1
        ;;
    esac
    staticcheck ./...
else
    echo "== staticcheck (skipped: not installed; the offline build cannot fetch it)"
fi

echo "== gslint"
go run ./cmd/gslint ./...

echo "lint OK"
